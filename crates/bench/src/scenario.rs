//! Scenario files: a dependency-free text format describing one end-to-end
//! thermal experiment, and the shared pipeline that runs it
//! (spec → board → circuit → solve → report). Every scenario runs as a
//! board: the single-die form is the one-placement board without a PCB.
//!
//! A `.scn` file is line-oriented: `[section]` headers followed by
//! `key = value` pairs; `#` starts a comment line. Sections:
//!
//! ```text
//! [scenario]  name, title
//! [die]       plan (uniform | ev6 | athlon64 | center-source), width, height
//! [grid]      rows, cols (each 1..=MAX_GRID_SIDE)
//! [stack]     layer (repeated, bottom→top), silicon, bottom, top
//! [power]     source (uniform W | gcc) or repeated block = <name> <W>
//! [solve]     solver (auto | direct | cg | multigrid), ambient (°C)
//! [output]    field (true | false)
//! ```
//!
//! A *board* scenario replaces `[die]`/`[stack]`/`[power]` with a shared
//! PCB substrate and one `[place]` section per package:
//!
//! ```text
//! [board]     width, height, thickness, material, bottom,
//!             via = <name> <x> <y> <w> <h> <S_per_area> (repeated)
//! [place]     name, plan, width, height, x, y, rotation (0|90|180|270),
//!             layer (repeated), silicon, top, source/block
//! ```
//!
//! Every placement bottom is implicitly insulated (heat reaches the PCB
//! through the solder interface the board assembler stamps); `[grid]` is
//! shared by every plane of the board, as the multigrid hierarchy requires.
//!
//! A `layer` value is `<name> <material> <thickness>` with an optional
//! `plate <side>` suffix for oversized plates; `top`/`bottom` boundaries are
//! `insulated`, `lumped <r> <c>`, or `oil <fluid> <velocity> <direction>
//! <local|global>`. Every parse failure is a [`ScenarioError`] carrying the
//! offending 1-based line number, mirroring the error-path style of the
//! power-trace parser.
//!
//! The pipeline deliberately consumes only the layer-stack IR
//! ([`hotiron_thermal::LayerStack`]), so scenarios can describe stacks the
//! closed [`hotiron_thermal::Package`] enum cannot express — a bare die
//! under forced air, or oil washing the top of a heat spreader.

use crate::common::{self, Fidelity};
use crate::report::{Row, Table};
use hotiron_floorplan::{library, Floorplan, GridMapping};
use hotiron_thermal::circuit::{CircuitCache, DieGeometry};
use hotiron_thermal::solve::{solve_steady, solve_steady_with, SolveError, SolverChoice};
use hotiron_thermal::sparse::SolveStats;
use hotiron_thermal::units::{celsius_to_kelvin, kelvin_to_celsius, ZERO_CELSIUS};
use hotiron_thermal::{fluid, materials, Boundary, FlowDirection, Layer, LayerStack, OilFilm};
use hotiron_thermal::{Board, BoardError, PcbSpec, Placement, Rotation, ViaField};
use hotiron_thermal::{Fluid, Material, PowerMap};
use std::fmt;

/// What a [`ScenarioError`] blames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The scenario is malformed or asks for something unusable.
    Input,
    /// The steady solver failed on a well-formed scenario.
    Solve,
}

/// A parse or pipeline failure, carrying the 1-based line number of the
/// offending scenario line (0 for file-level and runtime failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line, 0 when no single line is at fault.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Whether the input or the solver is at fault.
    pub kind: ErrorKind,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.message)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError { line, message: message.into(), kind: ErrorKind::Input }
}

/// Largest accepted wattage of one source or block: far beyond any package,
/// small enough that power densities and temperatures stay finite.
const MAX_WATTS: f64 = 1e6;

/// Largest accepted `[grid] rows`/`cols`. A side is checked at parse time,
/// before anything is allocated: an unbounded grid (say 20000×20000) aborts
/// the process on allocation. 512 admits the largest served grid, 256².
pub const MAX_GRID_SIDE: usize = 512;

/// Hottest accepted ambient, °C. The coldest must lie above absolute zero;
/// both bounds keep every solver's temperatures physical and finite.
const MAX_AMBIENT_C: f64 = 1e6;

/// Which floorplan the die carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// One block covering the whole die (`width`/`height` required).
    Uniform,
    /// The built-in EV6 floorplan.
    Ev6,
    /// The built-in Athlon64 floorplan.
    Athlon64,
    /// The Fig 3 center-source validation die.
    CenterSource,
}

impl PlanKind {
    fn token(self) -> &'static str {
        match self {
            PlanKind::Uniform => "uniform",
            PlanKind::Ev6 => "ev6",
            PlanKind::Athlon64 => "athlon64",
            PlanKind::CenterSource => "center-source",
        }
    }
}

/// One conduction layer as written in the file, bottom→top order.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer name (also the silicon marker target).
    pub name: String,
    /// Resolved material.
    pub material: Material,
    /// Thickness, m.
    pub thickness: f64,
    /// `Some(side)` for an oversized square plate.
    pub side: Option<f64>,
}

/// How the die is powered.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerSpec {
    /// Total watts spread uniformly over the covered die area.
    Uniform(f64),
    /// The deterministic time-averaged gcc power map (ev6/athlon64 only).
    Gcc,
    /// Explicit per-block watts; unlisted blocks dissipate nothing.
    Blocks(Vec<(String, f64)>),
}

/// Steady-solver request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverSpec {
    /// Let [`solve_steady`] pick (multigrid on large grids).
    Auto,
    /// Sparse LDLᵀ.
    Direct,
    /// Jacobi-preconditioned CG.
    Cg,
    /// Multigrid-preconditioned CG.
    Multigrid,
    /// Green's-function spectral fast path (laterally uniform stacks on
    /// power-of-two grids only; the solve fails with
    /// `SolveError::SpectralIneligible` otherwise).
    Spectral,
}

impl SolverSpec {
    /// The scenario-file token for this solver, also used by the serve
    /// protocol's per-request `solver` field.
    pub fn token(self) -> &'static str {
        match self {
            SolverSpec::Auto => "auto",
            SolverSpec::Direct => "direct",
            SolverSpec::Cg => "cg",
            SolverSpec::Multigrid => "multigrid",
            SolverSpec::Spectral => "spectral",
        }
    }

    /// Parses a scenario-file / serve-protocol solver token.
    pub fn from_token(s: &str) -> Option<Self> {
        Some(match s {
            "auto" => SolverSpec::Auto,
            "direct" => SolverSpec::Direct,
            "cg" => SolverSpec::Cg,
            "multigrid" => SolverSpec::Multigrid,
            "spectral" => SolverSpec::Spectral,
            _ => return None,
        })
    }
}

/// One `via =` line of a `[board]` section: an anisotropic through-plane
/// conductance patch, as written in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaSpec {
    /// Field designator.
    pub name: String,
    /// Board-frame x of the lower-left corner, m.
    pub x: f64,
    /// Board-frame y of the lower-left corner, m.
    pub y: f64,
    /// Patch width, m.
    pub width: f64,
    /// Patch height, m.
    pub height: f64,
    /// Added through-plane conductance per unit area, W/(K·m²).
    pub sigma: f64,
}

/// The `[board]` section: the shared PCB substrate of a board scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSpec {
    /// Board width, m.
    pub width: f64,
    /// Board height, m.
    pub height: f64,
    /// Board thickness, m.
    pub thickness: f64,
    /// Substrate material (default `pcb`).
    pub material: Material,
    /// Boundary on the PCB back side.
    pub bottom: Boundary,
    /// Thermal-via fields.
    pub vias: Vec<ViaSpec>,
}

/// One `[place]` section: a packaged die placed on the board.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceSpec {
    /// Placement designator (`u1`, `cpu`, …).
    pub name: String,
    /// Floorplan choice for this die.
    pub plan: PlanKind,
    /// Die width, m (`uniform` plans only).
    pub width: Option<f64>,
    /// Die height, m (`uniform` plans only).
    pub height: Option<f64>,
    /// Board-frame x of the placement's lower-left corner, m.
    pub x: f64,
    /// Board-frame y of the placement's lower-left corner, m.
    pub y: f64,
    /// Quarter-turn rotation of the die on the board.
    pub rotation: Rotation,
    /// Conduction layers, bottom→top (the bottom is implicitly insulated).
    pub layers: Vec<LayerSpec>,
    /// Name of the silicon layer (same defaulting as the `[stack]` marker).
    pub silicon: Option<String>,
    /// Boundary over the last layer.
    pub top: Boundary,
    /// Power source of this die.
    pub power: PowerSpec,
}

/// A fully parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short identifier (also the output CSV stem).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Floorplan choice.
    pub plan: PlanKind,
    /// Die width, m (`uniform` plans only).
    pub width: Option<f64>,
    /// Die height, m (`uniform` plans only).
    pub height: Option<f64>,
    /// Grid rows.
    pub rows: usize,
    /// Grid cols.
    pub cols: usize,
    /// Conduction layers, bottom→top.
    pub layers: Vec<LayerSpec>,
    /// Name of the silicon layer (default: the layer named `silicon`,
    /// else the first layer).
    pub silicon: Option<String>,
    /// Boundary under the first layer.
    pub bottom: Boundary,
    /// Boundary over the last layer.
    pub top: Boundary,
    /// Power source.
    pub power: PowerSpec,
    /// Solver request.
    pub solver: SolverSpec,
    /// Ambient, °C.
    pub ambient_c: f64,
    /// Also emit the raw silicon temperature field as CSV.
    pub field: bool,
    /// The shared PCB substrate of a board scenario. `None` for the
    /// single-die form, which [`run_in`] lowers to the one-placement board
    /// [`Board::solo`] built from the fields above. When `Some`, `places`
    /// carries the packages and the single-die fields are unused.
    pub board: Option<BoardSpec>,
    /// The placed packages of a board scenario, file order.
    pub places: Vec<PlaceSpec>,
}

fn material_by_name(s: &str) -> Option<Material> {
    Some(match s {
        "silicon" => materials::SILICON,
        "copper" => materials::COPPER,
        "interface" => materials::INTERFACE,
        "interconnect" => materials::INTERCONNECT,
        "c4-underfill" => materials::C4_UNDERFILL,
        "substrate" => materials::SUBSTRATE,
        "solder-balls" => materials::SOLDER_BALLS,
        "pcb" => materials::PCB,
        _ => return None,
    })
}

fn fluid_by_name(s: &str) -> Option<Fluid> {
    Some(match s {
        "mineral-oil" => fluid::MINERAL_OIL,
        "air" => fluid::AIR,
        "water" => fluid::WATER,
        _ => return None,
    })
}

fn direction_by_name(s: &str) -> Option<FlowDirection> {
    Some(match s {
        "left-to-right" => FlowDirection::LeftToRight,
        "right-to-left" => FlowDirection::RightToLeft,
        "bottom-to-top" => FlowDirection::BottomToTop,
        "top-to-bottom" => FlowDirection::TopToBottom,
        _ => return None,
    })
}

fn direction_token(d: FlowDirection) -> &'static str {
    match d {
        FlowDirection::LeftToRight => "left-to-right",
        FlowDirection::RightToLeft => "right-to-left",
        FlowDirection::BottomToTop => "bottom-to-top",
        FlowDirection::TopToBottom => "top-to-bottom",
    }
}

/// Parses a finite number. `f64::from_str` also accepts `NaN`, `inf` and
/// `infinity`; no scenario quantity is meaningful as one, so they are
/// rejected here with the same line-numbered error as any other bad number.
fn parse_f64(ln: usize, key: &str, s: &str) -> Result<f64, ScenarioError> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| err(ln, format!("bad number `{s}` for key `{key}`")))
}

/// Parses a finite, strictly positive number (a dimension, resistance or
/// velocity).
fn parse_positive(ln: usize, key: &str, s: &str) -> Result<f64, ScenarioError> {
    let v = parse_f64(ln, key, s)?;
    if v <= 0.0 {
        return Err(err(ln, format!("`{key}` must be positive, got `{s}`")));
    }
    Ok(v)
}

/// Parses a power in watts within `[0, MAX_WATTS]`.
fn parse_watts(ln: usize, key: &str, s: &str) -> Result<f64, ScenarioError> {
    let v = parse_f64(ln, key, s)?;
    if !(0.0..=MAX_WATTS).contains(&v) {
        return Err(err(ln, format!("`{key}` watts must lie in [0, {MAX_WATTS:e}], got `{s}`")));
    }
    Ok(v)
}

/// Parses an ambient temperature in °C within `(-273.15, MAX_AMBIENT_C]`.
fn parse_ambient(ln: usize, key: &str, s: &str) -> Result<f64, ScenarioError> {
    let v = parse_f64(ln, key, s)?;
    if !(v > -ZERO_CELSIUS && v <= MAX_AMBIENT_C) {
        return Err(err(
            ln,
            format!("`{key}` must lie in (-{ZERO_CELSIUS}, {MAX_AMBIENT_C:e}] °C, got `{s}`"),
        ));
    }
    Ok(v)
}

/// Parses a grid side within `1..=MAX_GRID_SIDE`.
fn parse_grid_side(ln: usize, key: &str, s: &str) -> Result<usize, ScenarioError> {
    let v: usize = s.parse().map_err(|_| err(ln, format!("bad number `{s}` for key `{key}`")))?;
    if !(1..=MAX_GRID_SIDE).contains(&v) {
        return Err(err(ln, format!("`{key}` must lie in [1, {MAX_GRID_SIDE}], got `{s}`")));
    }
    Ok(v)
}

fn parse_boundary(ln: usize, key: &str, value: &str) -> Result<Boundary, ScenarioError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    match words.as_slice() {
        ["insulated"] => Ok(Boundary::Insulated),
        ["lumped", r, c] => Ok(Boundary::Lumped {
            r_total: parse_positive(ln, key, r)?,
            c_total: parse_f64(ln, key, c)?,
        }),
        ["oil", fl, v, dir, locality] => {
            let fluid =
                fluid_by_name(fl).ok_or_else(|| err(ln, format!("unknown fluid `{fl}`")))?;
            let direction = direction_by_name(dir)
                .ok_or_else(|| err(ln, format!("unknown flow direction `{dir}`")))?;
            let local = match *locality {
                "local" => true,
                "global" => false,
                other => {
                    return Err(err(ln, format!("expected `local` or `global`, got `{other}`")))
                }
            };
            Ok(Boundary::OilFilm(OilFilm {
                fluid,
                velocity: parse_positive(ln, key, v)?,
                direction,
                local_h: local,
                local_boundary_layer: local,
            }))
        }
        _ => Err(err(
            ln,
            format!(
                "bad boundary `{value}`: expected `insulated`, `lumped <r> <c>` \
                 or `oil <fluid> <velocity> <direction> <local|global>`"
            ),
        )),
    }
}

fn boundary_to_scn(b: &Boundary) -> String {
    match b {
        Boundary::Insulated => "insulated".to_owned(),
        Boundary::Lumped { r_total, c_total } => format!("lumped {r_total} {c_total}"),
        Boundary::OilFilm(f) => format!(
            "oil {} {} {} {}",
            f.fluid.name(),
            f.velocity,
            direction_token(f.direction),
            if f.local_h { "local" } else { "global" }
        ),
    }
}

fn parse_layer(ln: usize, value: &str) -> Result<LayerSpec, ScenarioError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    let (base, side) = match words.as_slice() {
        [n, m, t] => ((*n, *m, *t), None),
        [n, m, t, "plate", s] => ((*n, *m, *t), Some(parse_positive(ln, "layer", s)?)),
        _ => {
            return Err(err(
                ln,
                format!(
                    "bad layer `{value}`: expected `<name> <material> <thickness> [plate <side>]`"
                ),
            ))
        }
    };
    let (name, mat, thick) = base;
    let material =
        material_by_name(mat).ok_or_else(|| err(ln, format!("unknown material `{mat}`")))?;
    Ok(LayerSpec {
        name: name.to_owned(),
        material,
        thickness: parse_positive(ln, "layer", thick)?,
        side,
    })
}

fn parse_plan(ln: usize, value: &str) -> Result<PlanKind, ScenarioError> {
    Ok(match value {
        "uniform" => PlanKind::Uniform,
        "ev6" => PlanKind::Ev6,
        "athlon64" => PlanKind::Athlon64,
        "center-source" => PlanKind::CenterSource,
        other => return Err(err(ln, format!("unknown plan `{other}`"))),
    })
}

fn parse_rotation(ln: usize, value: &str) -> Result<Rotation, ScenarioError> {
    value
        .parse::<u32>()
        .ok()
        .and_then(Rotation::from_degrees)
        .ok_or_else(|| err(ln, format!("bad rotation `{value}`: expected 0, 90, 180 or 270")))
}

fn parse_source(ln: usize, value: &str) -> Result<PowerSpec, ScenarioError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    match words.as_slice() {
        ["uniform", w] => Ok(PowerSpec::Uniform(parse_watts(ln, "source", w)?)),
        ["gcc"] => Ok(PowerSpec::Gcc),
        _ => {
            Err(err(ln, format!("bad power source `{value}`: expected `uniform <watts>` or `gcc`")))
        }
    }
}

fn parse_via(ln: usize, value: &str) -> Result<ViaSpec, ScenarioError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    let [name, x, y, w, h, sigma] = words.as_slice() else {
        return Err(err(
            ln,
            format!("bad via `{value}`: expected `<name> <x> <y> <w> <h> <S_per_area>`"),
        ));
    };
    Ok(ViaSpec {
        name: (*name).to_owned(),
        x: parse_f64(ln, "via", x)?,
        y: parse_f64(ln, "via", y)?,
        width: parse_f64(ln, "via", w)?,
        height: parse_f64(ln, "via", h)?,
        sigma: parse_f64(ln, "via", sigma)?,
    })
}

/// In-progress `[place]` section; finalized (and validated) once the whole
/// file is consumed so errors can cite the section's header line.
#[derive(Default)]
struct PlaceDraft {
    header_line: usize,
    name: Option<String>,
    plan: Option<PlanKind>,
    width: Option<f64>,
    height: Option<f64>,
    x: Option<f64>,
    y: Option<f64>,
    rotation: Option<Rotation>,
    layers: Vec<LayerSpec>,
    silicon: Option<String>,
    top: Option<Boundary>,
    source: Option<PowerSpec>,
    blocks: Vec<(String, f64)>,
    blocks_line: usize,
}

impl PlaceDraft {
    fn finish(self, index: usize) -> Result<PlaceSpec, ScenarioError> {
        let at = self.header_line;
        let name = self
            .name
            .ok_or_else(|| err(at, format!("[place] section #{} is missing `name`", index + 1)))?;
        let whine = |what: &str| err(at, format!("placement `{name}`: {what}"));
        let plan = self.plan.unwrap_or(PlanKind::Uniform);
        if plan == PlanKind::Uniform && (self.width.is_none() || self.height.is_none()) {
            return Err(whine("plan `uniform` requires `width` and `height`"));
        }
        if plan != PlanKind::Uniform && (self.width.is_some() || self.height.is_some()) {
            return Err(whine("a named plan fixes the die size; drop `width`/`height`"));
        }
        let x = self.x.ok_or_else(|| whine("missing key `x`"))?;
        let y = self.y.ok_or_else(|| whine("missing key `y`"))?;
        if self.layers.is_empty() {
            return Err(whine("missing `layer` lines"));
        }
        let top = self.top.ok_or_else(|| whine("missing key `top`"))?;
        let power = match (self.source, self.blocks.is_empty()) {
            (Some(_), false) => {
                return Err(err(
                    self.blocks_line,
                    format!("placement `{name}`: give either `source` or `block` lines, not both"),
                ))
            }
            (Some(s), true) => s,
            (None, false) => PowerSpec::Blocks(self.blocks),
            (None, true) => return Err(whine("missing power: give `source` or `block` lines")),
        };
        if power == PowerSpec::Gcc && !matches!(plan, PlanKind::Ev6 | PlanKind::Athlon64) {
            return Err(whine("power source `gcc` needs plan `ev6` or `athlon64`"));
        }
        Ok(PlaceSpec {
            name,
            plan,
            width: self.width,
            height: self.height,
            x,
            y,
            rotation: self.rotation.unwrap_or(Rotation::R0),
            layers: self.layers,
            silicon: self.silicon,
            top,
            power,
        })
    }
}

/// Parses a `.scn` scenario file.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] with its 1-based line number
/// (unknown section/key, malformed value, missing section or key).
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut section: Option<(&str, usize)> = None;
    let mut name = None;
    let mut title = None;
    let mut plan = None;
    let mut width = None;
    let mut height = None;
    let mut rows = None;
    let mut cols = None;
    let mut layers: Vec<LayerSpec> = Vec::new();
    let mut silicon = None;
    let mut bottom = None;
    let mut top = None;
    let mut source: Option<PowerSpec> = None;
    let mut blocks: Vec<(String, f64)> = Vec::new();
    let mut blocks_line = 0;
    let mut solver = None;
    let mut ambient_c = None;
    let mut field = None;
    let mut board_line: Option<usize> = None;
    let mut b_width = None;
    let mut b_height = None;
    let mut b_thickness = None;
    let mut b_material = None;
    let mut b_bottom = None;
    let mut vias: Vec<ViaSpec> = Vec::new();
    let mut places: Vec<PlaceDraft> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(sec) = line.strip_prefix('[') {
            let Some(sec) = sec.strip_suffix(']') else {
                return Err(err(ln, format!("malformed section header `{line}`")));
            };
            section = Some(match sec {
                "scenario" | "die" | "grid" | "stack" | "power" | "solve" | "output" => (sec, ln),
                "board" => {
                    if let Some(first) = board_line {
                        return Err(err(
                            ln,
                            format!("duplicate [board] section (first at line {first})"),
                        ));
                    }
                    board_line = Some(ln);
                    (sec, ln)
                }
                // Every `[place]` header opens a fresh placement.
                "place" => {
                    places.push(PlaceDraft { header_line: ln, ..PlaceDraft::default() });
                    (sec, ln)
                }
                other => return Err(err(ln, format!("unknown section `[{other}]`"))),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(ln, format!("expected `key = value`, got `{line}`")));
        };
        let (key, value) = (key.trim(), value.trim());
        let Some((sec, _)) = section else {
            return Err(err(ln, format!("key `{key}` before any [section]")));
        };
        match (sec, key) {
            ("scenario", "name") => name = Some(value.to_owned()),
            ("scenario", "title") => title = Some(value.to_owned()),
            ("die", "plan") => plan = Some(parse_plan(ln, value)?),
            ("die", "width") => width = Some(parse_positive(ln, key, value)?),
            ("die", "height") => height = Some(parse_positive(ln, key, value)?),
            ("grid", "rows") => rows = Some(parse_grid_side(ln, key, value)?),
            ("grid", "cols") => cols = Some(parse_grid_side(ln, key, value)?),
            ("stack", "layer") => layers.push(parse_layer(ln, value)?),
            ("stack", "silicon") => silicon = Some(value.to_owned()),
            ("stack", "bottom") => bottom = Some(parse_boundary(ln, key, value)?),
            ("stack", "top") => top = Some(parse_boundary(ln, key, value)?),
            ("board", "width") => b_width = Some(parse_positive(ln, key, value)?),
            ("board", "height") => b_height = Some(parse_positive(ln, key, value)?),
            ("board", "thickness") => b_thickness = Some(parse_positive(ln, key, value)?),
            ("board", "material") => {
                b_material = Some(
                    material_by_name(value)
                        .ok_or_else(|| err(ln, format!("unknown material `{value}`")))?,
                );
            }
            ("board", "bottom") => b_bottom = Some(parse_boundary(ln, key, value)?),
            ("board", "via") => vias.push(parse_via(ln, value)?),
            ("place", k) => {
                let place = places.last_mut().expect("[place] header pushed a draft");
                match k {
                    "name" => place.name = Some(value.to_owned()),
                    "plan" => place.plan = Some(parse_plan(ln, value)?),
                    "width" => place.width = Some(parse_positive(ln, key, value)?),
                    "height" => place.height = Some(parse_positive(ln, key, value)?),
                    "x" => place.x = Some(parse_f64(ln, key, value)?),
                    "y" => place.y = Some(parse_f64(ln, key, value)?),
                    "rotation" => place.rotation = Some(parse_rotation(ln, value)?),
                    "layer" => place.layers.push(parse_layer(ln, value)?),
                    "silicon" => place.silicon = Some(value.to_owned()),
                    "top" => place.top = Some(parse_boundary(ln, key, value)?),
                    "source" => place.source = Some(parse_source(ln, value)?),
                    "block" => {
                        let words: Vec<&str> = value.split_whitespace().collect();
                        let [block, watts] = words.as_slice() else {
                            return Err(err(
                                ln,
                                format!("bad block power `{value}`: expected `<name> <watts>`"),
                            ));
                        };
                        place.blocks.push(((*block).to_owned(), parse_watts(ln, key, watts)?));
                        place.blocks_line = ln;
                    }
                    other => return Err(err(ln, format!("unknown key `{other}` in [place]"))),
                }
            }
            ("power", "source") => source = Some(parse_source(ln, value)?),
            ("power", "block") => {
                let words: Vec<&str> = value.split_whitespace().collect();
                let [block, watts] = words.as_slice() else {
                    return Err(err(
                        ln,
                        format!("bad block power `{value}`: expected `<name> <watts>`"),
                    ));
                };
                blocks.push(((*block).to_owned(), parse_watts(ln, key, watts)?));
                blocks_line = ln;
            }
            ("solve", "solver") => {
                solver = Some(
                    SolverSpec::from_token(value)
                        .ok_or_else(|| err(ln, format!("unknown solver `{value}`")))?,
                );
            }
            ("solve", "ambient") => ambient_c = Some(parse_ambient(ln, key, value)?),
            ("output", "field") => {
                field = Some(match value {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(err(ln, format!("expected `true` or `false`, got `{other}`")))
                    }
                });
            }
            (sec, key) => return Err(err(ln, format!("unknown key `{key}` in [{sec}]"))),
        }
    }

    let name = name.ok_or_else(|| err(0, "missing key `name` in [scenario]"))?;
    let rows = rows.ok_or_else(|| err(0, "missing key `rows` in [grid]"))?;
    let cols = cols.ok_or_else(|| err(0, "missing key `cols` in [grid]"))?;
    if board_line.is_some() || !places.is_empty() {
        // Board form: the single-die sections must be absent — a file mixing
        // both would be ambiguous about what actually runs.
        if plan.is_some()
            || width.is_some()
            || height.is_some()
            || !layers.is_empty()
            || silicon.is_some()
            || bottom.is_some()
            || top.is_some()
            || source.is_some()
            || !blocks.is_empty()
        {
            return Err(err(
                0,
                "a board scenario replaces [die]/[stack]/[power] with [place] sections",
            ));
        }
        if board_line.is_none() {
            return Err(err(0, "[place] sections require a [board] section"));
        }
        if places.is_empty() {
            return Err(err(0, "a board scenario needs at least one [place] section"));
        }
        let miss = |k: &str| err(0, format!("missing key `{k}` in [board]"));
        let board = BoardSpec {
            width: b_width.ok_or_else(|| miss("width"))?,
            height: b_height.ok_or_else(|| miss("height"))?,
            thickness: b_thickness.ok_or_else(|| miss("thickness"))?,
            material: b_material.unwrap_or(materials::PCB),
            bottom: b_bottom.ok_or_else(|| miss("bottom"))?,
            vias,
        };
        let places = places
            .into_iter()
            .enumerate()
            .map(|(i, d)| d.finish(i))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Scenario {
            title: title.unwrap_or_else(|| name.clone()),
            name,
            // Single-die fields a board scenario never reads; `to_scn` omits
            // their sections, so they round-trip.
            plan: PlanKind::Uniform,
            width: None,
            height: None,
            rows,
            cols,
            layers: Vec::new(),
            silicon: None,
            bottom: Boundary::Insulated,
            top: Boundary::Insulated,
            power: PowerSpec::Uniform(0.0),
            solver: solver.unwrap_or(SolverSpec::Auto),
            ambient_c: ambient_c.unwrap_or(common::AMBIENT_C),
            field: field.unwrap_or(false),
            board: Some(board),
            places,
        });
    }
    if layers.is_empty() {
        return Err(err(0, "missing `layer` lines in [stack]"));
    }
    let top = top.ok_or_else(|| err(0, "missing key `top` in [stack]"))?;
    let plan = plan.unwrap_or(PlanKind::Uniform);
    if plan == PlanKind::Uniform && (width.is_none() || height.is_none()) {
        return Err(err(0, "plan `uniform` requires `width` and `height` in [die]"));
    }
    if plan != PlanKind::Uniform && (width.is_some() || height.is_some()) {
        return Err(err(
            0,
            format!("plan `{}` fixes the die size; drop `width`/`height`", plan.token()),
        ));
    }
    let power = match (source, blocks.is_empty()) {
        (Some(_), false) => {
            return Err(err(
                blocks_line,
                "give either `source` or `block` lines in [power], not both",
            ))
        }
        (Some(s), true) => s,
        (None, false) => PowerSpec::Blocks(blocks),
        (None, true) => {
            return Err(err(0, "missing power: give `source` or `block` lines in [power]"))
        }
    };
    if power == PowerSpec::Gcc && !matches!(plan, PlanKind::Ev6 | PlanKind::Athlon64) {
        return Err(err(0, "power source `gcc` needs plan `ev6` or `athlon64`"));
    }

    Ok(Scenario {
        title: title.unwrap_or_else(|| name.clone()),
        name,
        plan,
        width,
        height,
        rows,
        cols,
        layers,
        silicon,
        bottom: bottom.unwrap_or(Boundary::Insulated),
        top,
        power,
        solver: solver.unwrap_or(SolverSpec::Auto),
        ambient_c: ambient_c.unwrap_or(common::AMBIENT_C),
        field: field.unwrap_or(false),
        board: None,
        places: Vec::new(),
    })
}

impl Scenario {
    /// Renders the canonical `.scn` text; `parse(to_scn(s)) == s`.
    pub fn to_scn(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]\nname = {}\ntitle = {}\n", self.name, self.title);
        if let Some(b) = &self.board {
            let _ = writeln!(
                out,
                "[board]\nwidth = {}\nheight = {}\nthickness = {}\nmaterial = {}\nbottom = {}",
                b.width,
                b.height,
                b.thickness,
                b.material.name(),
                boundary_to_scn(&b.bottom)
            );
            for v in &b.vias {
                let _ = writeln!(
                    out,
                    "via = {} {} {} {} {} {}",
                    v.name, v.x, v.y, v.width, v.height, v.sigma
                );
            }
            let _ = writeln!(out, "\n[grid]\nrows = {}\ncols = {}", self.rows, self.cols);
            for p in &self.places {
                let _ = writeln!(out, "\n[place]\nname = {}\nplan = {}", p.name, p.plan.token());
                if let (Some(w), Some(h)) = (p.width, p.height) {
                    let _ = writeln!(out, "width = {w}\nheight = {h}");
                }
                let _ =
                    writeln!(out, "x = {}\ny = {}\nrotation = {}", p.x, p.y, p.rotation.degrees());
                for l in &p.layers {
                    let _ = write!(out, "layer = {} {} {}", l.name, l.material.name(), l.thickness);
                    if let Some(side) = l.side {
                        let _ = write!(out, " plate {side}");
                    }
                    let _ = writeln!(out);
                }
                if let Some(si) = &p.silicon {
                    let _ = writeln!(out, "silicon = {si}");
                }
                let _ = writeln!(out, "top = {}", boundary_to_scn(&p.top));
                match &p.power {
                    PowerSpec::Uniform(w) => {
                        let _ = writeln!(out, "source = uniform {w}");
                    }
                    PowerSpec::Gcc => {
                        let _ = writeln!(out, "source = gcc");
                    }
                    PowerSpec::Blocks(bs) => {
                        for (b, w) in bs {
                            let _ = writeln!(out, "block = {b} {w}");
                        }
                    }
                }
            }
            let _ = writeln!(
                out,
                "\n[solve]\nsolver = {}\nambient = {}\n",
                self.solver.token(),
                self.ambient_c
            );
            let _ = writeln!(out, "[output]\nfield = {}", self.field);
            return out;
        }
        let _ = writeln!(out, "[die]\nplan = {}", self.plan.token());
        if let (Some(w), Some(h)) = (self.width, self.height) {
            let _ = writeln!(out, "width = {w}\nheight = {h}");
        }
        let _ = writeln!(out, "\n[grid]\nrows = {}\ncols = {}\n", self.rows, self.cols);
        let _ = writeln!(out, "[stack]");
        for l in &self.layers {
            let _ = write!(out, "layer = {} {} {}", l.name, l.material.name(), l.thickness);
            if let Some(side) = l.side {
                let _ = write!(out, " plate {side}");
            }
            let _ = writeln!(out);
        }
        if let Some(si) = &self.silicon {
            let _ = writeln!(out, "silicon = {si}");
        }
        let _ = writeln!(out, "bottom = {}", boundary_to_scn(&self.bottom));
        let _ = writeln!(out, "top = {}\n", boundary_to_scn(&self.top));
        let _ = writeln!(out, "[power]");
        match &self.power {
            PowerSpec::Uniform(w) => {
                let _ = writeln!(out, "source = uniform {w}");
            }
            PowerSpec::Gcc => {
                let _ = writeln!(out, "source = gcc");
            }
            PowerSpec::Blocks(bs) => {
                for (b, w) in bs {
                    let _ = writeln!(out, "block = {b} {w}");
                }
            }
        }
        let _ = writeln!(
            out,
            "\n[solve]\nsolver = {}\nambient = {}\n",
            self.solver.token(),
            self.ambient_c
        );
        let _ = writeln!(out, "[output]\nfield = {}", self.field);
        out
    }

    /// Builds the floorplan this scenario runs on.
    fn floorplan(&self) -> Floorplan {
        plan_for(self.plan, self.width, self.height)
    }

    /// Lowers the `[stack]` section to the layer-stack IR.
    ///
    /// # Errors
    ///
    /// Fails when the `silicon` marker names no layer.
    pub fn stack(&self) -> Result<LayerStack, ScenarioError> {
        let (layers, si_index) = lower_layers(&self.layers, self.silicon.as_deref())?;
        Ok(LayerStack::new(layers, si_index)
            .with_bottom(self.bottom.clone())
            .with_top(self.top.clone()))
    }

    /// Lowers the scenario to the board IR on a `rows × cols` grid — the one
    /// lowering point of the pipeline. A `[board]` scenario becomes its PCB,
    /// via fields and placements; the single-die form becomes its stack's
    /// [`Board::solo`] board.
    ///
    /// # Errors
    ///
    /// Fails when a `silicon` marker names no layer.
    fn lower(&self, rows: usize, cols: usize) -> Result<Lowered<'_>, ScenarioError> {
        let Some(bs) = &self.board else {
            let plan = self.floorplan();
            let stack = self.stack()?;
            let board = Board::solo(rows, cols, die_of(&plan, &stack), stack);
            return Ok(Lowered {
                board,
                mappings: vec![GridMapping::new(&plan, rows, cols)],
                dies: vec![Die { plan, kind: self.plan, power: &self.power, place: None }],
            });
        };
        let mut board = Board::new(
            rows,
            cols,
            PcbSpec {
                width: bs.width,
                height: bs.height,
                thickness: bs.thickness,
                material: bs.material,
                bottom: bs.bottom.clone(),
            },
        );
        for v in &bs.vias {
            board = board.with_via(ViaField {
                name: v.name.clone(),
                x: v.x,
                y: v.y,
                width: v.width,
                height: v.height,
                conductance_per_area: v.sigma,
            });
        }
        let mut mappings = Vec::with_capacity(self.places.len());
        let mut dies = Vec::with_capacity(self.places.len());
        for p in &self.places {
            let plan = plan_for(p.plan, p.width, p.height);
            let (layers, si_index) = lower_layers(&p.layers, p.silicon.as_deref())
                .map_err(|e| in_place(Some(&p.name), e))?;
            let stack = LayerStack::new(layers, si_index)
                .with_bottom(Boundary::Insulated)
                .with_top(p.top.clone());
            board = board.with_placement(Placement {
                name: p.name.clone(),
                die: die_of(&plan, &stack),
                stack,
                x: p.x,
                y: p.y,
                rotation: p.rotation,
            });
            mappings.push(GridMapping::new(&plan, rows, cols));
            dies.push(Die { plan, kind: p.plan, power: &p.power, place: Some(&p.name) });
        }
        Ok(Lowered { board, mappings, dies })
    }
}

/// A scenario lowered to the board IR: the board, one grid mapping per
/// placement, and what the pipeline needs of each die after assembly.
struct Lowered<'a> {
    board: Board,
    mappings: Vec<GridMapping>,
    dies: Vec<Die<'a>>,
}

/// One die of a lowered scenario, in placement order.
struct Die<'a> {
    plan: Floorplan,
    kind: PlanKind,
    power: &'a PowerSpec,
    /// The `[place]` designator; `None` for the single-die form.
    place: Option<&'a str>,
}

/// Die geometry of a stack over a floorplan: the plan's extent, the silicon
/// layer's thickness.
fn die_of(plan: &Floorplan, stack: &LayerStack) -> DieGeometry {
    DieGeometry {
        width: plan.width(),
        height: plan.height(),
        thickness: stack.layers[stack.si_index.min(stack.layers.len() - 1)].thickness,
    }
}

/// Prefixes a per-die error with its `[place]` designator, if any.
fn in_place(place: Option<&str>, e: ScenarioError) -> ScenarioError {
    match place {
        Some(name) => err(e.line, format!("placement `{name}`: {}", e.message)),
        None => e,
    }
}

/// Lowers `layer` lines to [`Layer`]s and resolves the silicon marker
/// (shared by the `[stack]` section and each `[place]` section).
fn lower_layers(
    specs: &[LayerSpec],
    silicon: Option<&str>,
) -> Result<(Vec<Layer>, usize), ScenarioError> {
    let si_index = match silicon {
        Some(marker) => specs
            .iter()
            .position(|l| l.name == marker)
            .ok_or_else(|| err(0, format!("silicon marker `{marker}` names no layer")))?,
        None => specs.iter().position(|l| l.name == "silicon").unwrap_or(0),
    };
    let layers = specs
        .iter()
        .map(|l| match l.side {
            Some(side) => Layer::plate(l.name.clone(), l.material, l.thickness, side),
            None => Layer::new(l.name.clone(), l.material, l.thickness),
        })
        .collect();
    Ok((layers, si_index))
}

/// Resolves a power spec against a floorplan (shared by the `[power]`
/// section and each `[place]` section).
fn block_power_for(
    power: &PowerSpec,
    kind: PlanKind,
    plan: &Floorplan,
) -> Result<PowerMap, ScenarioError> {
    match power {
        PowerSpec::Uniform(watts) => {
            // Request-time overrides (`power_w`, `power_scale`) bypass the
            // parse-time watt bound, so the density is re-checked here.
            let density = watts / plan.covered_area();
            if !(density.is_finite() && density >= 0.0) {
                return Err(err(0, format!("uniform power {watts} W has no finite density")));
            }
            Ok(PowerMap::uniform_density(plan, density))
        }
        PowerSpec::Gcc => Ok(match kind {
            PlanKind::Ev6 => common::ev6_gcc().1,
            PlanKind::Athlon64 => common::athlon_gcc().1,
            // Rejected at parse time.
            _ => unreachable!("gcc power needs a named plan"),
        }),
        PowerSpec::Blocks(blocks) => {
            let mut map = PowerMap::zeros(plan);
            for (block, watts) in blocks {
                if !(watts.is_finite() && *watts >= 0.0) {
                    return Err(err(
                        0,
                        format!("block `{block}` power {watts} W is not a valid wattage"),
                    ));
                }
                map.set(plan, block, *watts)
                    .map_err(|_| err(0, format!("unknown block `{block}` in [power]")))?;
            }
            Ok(map)
        }
    }
}

/// Builds the floorplan a plan choice names (shared by `[die]` and
/// `[place]`; width/height presence is enforced at parse time).
fn plan_for(kind: PlanKind, width: Option<f64>, height: Option<f64>) -> Floorplan {
    match kind {
        PlanKind::Uniform => library::uniform_die(
            width.expect("uniform plan has width"),
            height.expect("uniform plan has height"),
        ),
        PlanKind::Ev6 => library::ev6(),
        PlanKind::Athlon64 => library::athlon64(),
        PlanKind::CenterSource => library::center_source_die(),
    }
}

/// Relative energy-balance slack for the inline post-solve check.
const ENERGY_REL_TOL: f64 = 1e-6;
/// Below-ambient slack (K) for the inline maximum-principle check.
const BELOW_AMBIENT_TOL: f64 = 1e-6;

/// Per-placement readout of a solved board scenario: the package's own
/// silicon temperatures plus the PCB temperature directly under it — the
/// column pair that exposes inter-package coupling.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// Placement designator from the `[place]` section.
    pub name: String,
    /// Hottest silicon cell of this placement, °C.
    pub silicon_max_c: f64,
    /// Mean silicon temperature of this placement, °C.
    pub silicon_mean_c: f64,
    /// Mean PCB temperature over the cells under this placement's
    /// footprint, °C — what a board-back IR camera or sensor array sees.
    pub pcb_under_c: f64,
}

/// The shared PCB plane of a solved board scenario, row-major °C — the
/// raw field a contactless board-back characterization samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PcbReadout {
    /// Grid rows of the PCB plane.
    pub rows: usize,
    /// Grid columns of the PCB plane.
    pub cols: usize,
    /// PCB width, m (x extent).
    pub width: f64,
    /// PCB height, m (y extent).
    pub height: f64,
    /// Row-major cell temperatures, °C.
    pub celsius: Vec<f64>,
}

/// A solved scenario: the summary table plus the raw numbers it was built
/// from, for composition into multi-scenario tables.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Per-metric summary table (stable shape for golden snapshots).
    pub table: Table,
    /// Raw silicon temperature field (°C, row-major CSV) when requested.
    pub field_csv: Option<String>,
    /// Content hash of the lowered stack (the circuit-cache key component).
    pub stack_hash: u64,
    /// Total dissipated power, W.
    pub total_power_w: f64,
    /// Hottest silicon cell, °C.
    pub silicon_max_c: f64,
    /// Mean silicon temperature, °C.
    pub silicon_mean_c: f64,
    /// Hottest node anywhere in the circuit, °C.
    pub global_max_c: f64,
    /// Coldest node, °C.
    pub global_min_c: f64,
    /// Relative energy-balance residual of the steady solution.
    pub energy_rel: f64,
    /// Whether the circuit came out of the cache (`true`) or was assembled
    /// by this run (`false`).
    pub cache_hit: bool,
    /// Area-weighted average temperature of every floorplan block
    /// (name, °C), floorplan order — the per-block report a serving layer
    /// returns to clients.
    pub blocks: Vec<(String, f64)>,
    /// Telemetry of the steady solve (method, iterations, residual, …).
    pub solve_stats: SolveStats,
    /// Per-placement readouts of a board scenario; empty for single-die
    /// scenarios.
    pub placements: Vec<PlacementReport>,
    /// The shared PCB plane of a board scenario; `None` for single-die
    /// scenarios.
    pub pcb: Option<PcbReadout>,
}

/// The first inline oracle: every state value is finite and the energy
/// ledger balances; returns the ledger's relative error. Both tests fail
/// closed on NaN, which every `>`/`<` comparison would let through. A
/// failure blames the solver ([`ErrorKind::Solve`]): the scenario already
/// passed parsing and lowering.
fn check_ledger(state: &[f64], power_in: f64, heat_out: f64) -> Result<f64, ScenarioError> {
    let fault = |message: String| ScenarioError { kind: ErrorKind::Solve, ..err(0, message) };
    if let Some(node) = state.iter().position(|t| !t.is_finite()) {
        return Err(fault(format!("non-finite temperature {} K at node {node}", state[node])));
    }
    let energy_rel = (power_in - heat_out).abs() / power_in.abs().max(f64::MIN_POSITIVE);
    if energy_rel.is_nan() || energy_rel > ENERGY_REL_TOL {
        return Err(fault(format!(
            "energy balance violated: {power_in:.6} W in vs {heat_out:.6} W out (rel {energy_rel:.3e})"
        )));
    }
    Ok(energy_rel)
}

/// Runs one scenario end-to-end: lower it to a board, assemble (through the
/// content-hash circuit cache), solve steady state, check the energy-balance
/// and maximum-principle invariants inline, and report.
///
/// `Fast` fidelity clamps the grid to 16×16 so CI smoke runs stay cheap.
///
/// # Errors
///
/// Returns a [`ScenarioError`] for invalid stacks (naming the offending
/// layer), solver failures, or a violated physics invariant.
pub fn run(sc: &Scenario, fidelity: Fidelity) -> Result<Solution, ScenarioError> {
    run_in(sc, fidelity, CircuitCache::process())
}

/// [`run`] through a caller-owned [`CircuitCache`]: the serving route, where
/// the cache bound, hit/miss counters and eviction behavior belong to the
/// daemon rather than the process.
///
/// A single-die scenario runs as a one-placement board without a PCB; the
/// board-only outputs — [`Solution::placements`], [`Solution::pcb`], the
/// `board_hash`/`placements` meta, `place/` block prefixes and `# place`
/// field headers — appear exactly when the scenario has a `[board]`
/// section.
///
/// # Errors
///
/// As [`run`].
pub fn run_in(
    sc: &Scenario,
    fidelity: Fidelity,
    cache: &CircuitCache,
) -> Result<Solution, ScenarioError> {
    let (rows, cols) = match fidelity {
        Fidelity::Fast => (sc.rows.min(16), sc.cols.min(16)),
        Fidelity::Paper => (sc.rows, sc.cols),
    };
    let Lowered { board, mappings, dies } = sc.lower(rows, cols)?;
    let (circuit, cache_hit) =
        cache.get_or_build_board(&board, &mappings).map_err(|e| match e {
            // A single-die scenario names no placement; report its stack.
            BoardError::InvalidStack { source, .. } if board.pcb.is_none() => {
                err(0, format!("invalid stack: {source}"))
            }
            e => err(0, format!("invalid board: {e}")),
        })?;

    let n_cells = rows * cols;
    let mut cell_power = vec![0.0; dies.len() * n_cells];
    for ((die, mapping), chunk) in dies.iter().zip(&mappings).zip(cell_power.chunks_mut(n_cells)) {
        let power =
            block_power_for(die.power, die.kind, &die.plan).map_err(|e| in_place(die.place, e))?;
        chunk.copy_from_slice(&mapping.spread_block_values(power.values()));
    }
    let ambient = celsius_to_kelvin(sc.ambient_c);
    let mut state = vec![ambient; circuit.node_count()];
    let solve_stats = dispatch_steady(sc, &circuit, &cell_power, ambient, &mut state)?;

    // Inline physics oracles: every scenario run is also a correctness
    // check, so `figures --scenario` doubles as a fast fidelity gate. Energy
    // balance over the whole network, no node below ambient, and the
    // hottest node inside the union of the silicon planes.
    let power_in: f64 = cell_power.iter().sum();
    let heat_out: f64 =
        circuit.ambient_conductance().iter().zip(&state).map(|(g, t)| g * (t - ambient)).sum();
    let energy_rel = check_ledger(&state, power_in, heat_out)?;
    let global_max = state.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let global_min = state.iter().copied().fold(f64::INFINITY, f64::min);
    if global_min < ambient - BELOW_AMBIENT_TOL {
        return Err(err(
            0,
            format!("maximum principle violated: node at {global_min:.4} K below ambient {ambient:.4} K"),
        ));
    }
    // Each placement's silicon plane; a free-standing board's lone stack
    // carries no board metadata.
    let si_planes: Vec<&[f64]> = match circuit.board_nodes() {
        Some(bn) => {
            bn.placements.iter().map(|p| &state[p.si_plane * n_cells..][..n_cells]).collect()
        }
        None => vec![circuit.silicon_slice(&state)],
    };
    let si_max =
        si_planes.iter().flat_map(|si| si.iter().copied()).fold(f64::NEG_INFINITY, f64::max);
    if power_in > 0.0 && si_max + BELOW_AMBIENT_TOL < global_max {
        return Err(err(
            0,
            format!(
                "maximum principle violated: hottest node ({global_max:.4} K) is outside every silicon layer (max {si_max:.4} K)"
            ),
        ));
    }
    let si_sum: f64 = si_planes.iter().map(|si| si.iter().sum::<f64>()).sum();
    let si_mean = si_sum / (si_planes.len() * n_cells) as f64;

    // Area-weighted block temperatures, namespaced `{place}/{block}` on a
    // board.
    let mut blocks = Vec::new();
    for ((die, mapping), si) in dies.iter().zip(&mappings).zip(&si_planes) {
        for (b, block) in die.plan.blocks().iter().enumerate() {
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for &(ci, frac) in mapping.cells_of_block(b) {
                acc += si[ci] * frac;
                wsum += frac;
            }
            let t = if wsum > 0.0 { kelvin_to_celsius(acc / wsum) } else { sc.ambient_c };
            let name = match die.place {
                Some(place) => format!("{place}/{}", block.name()),
                None => block.name().to_owned(),
            };
            blocks.push((name, t));
        }
    }

    // Board readouts: per-placement silicon stats with the PCB temperature
    // under each footprint, and the PCB plane itself.
    let mut placements = Vec::new();
    let mut pcb = None;
    if let (Some(bn), Some(spec)) = (circuit.board_nodes(), &board.pcb) {
        let pcb_plane = &state[bn.pcb_plane * n_cells..][..n_cells];
        let (dx, dy) = (spec.width / cols as f64, spec.height / rows as f64);
        for (place, si) in board.placements.iter().zip(&si_planes) {
            // PCB cells whose centers fall under the placement footprint;
            // the footprint-center cell is the fallback when none do
            // (footprint smaller than one PCB cell).
            let (fw, fh) = place.footprint();
            let mut acc = 0.0;
            let mut cnt = 0usize;
            for r in 0..rows {
                let cy = (r as f64 + 0.5) * dy;
                if cy < place.y || cy > place.y + fh {
                    continue;
                }
                for c in 0..cols {
                    let cx = (c as f64 + 0.5) * dx;
                    if cx >= place.x && cx <= place.x + fw {
                        acc += pcb_plane[r * cols + c];
                        cnt += 1;
                    }
                }
            }
            let pcb_under = if cnt > 0 {
                acc / cnt as f64
            } else {
                let r = (((place.y + fh / 2.0) / dy) as usize).min(rows - 1);
                let c = (((place.x + fw / 2.0) / dx) as usize).min(cols - 1);
                pcb_plane[r * cols + c]
            };
            placements.push(PlacementReport {
                name: place.name.clone(),
                silicon_max_c: kelvin_to_celsius(
                    si.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                ),
                silicon_mean_c: kelvin_to_celsius(si.iter().sum::<f64>() / n_cells as f64),
                pcb_under_c: kelvin_to_celsius(pcb_under),
            });
        }
        pcb = Some(PcbReadout {
            rows,
            cols,
            width: spec.width,
            height: spec.height,
            celsius: pcb_plane.iter().map(|&t| kelvin_to_celsius(t)).collect(),
        });
    }

    let silicon_max_c = kelvin_to_celsius(si_max);
    let silicon_mean_c = kelvin_to_celsius(si_mean);
    let global_max_c = kelvin_to_celsius(global_max);
    let global_min_c = kelvin_to_celsius(global_min);
    let mut table = Table::new(sc.title.clone(), "metric", vec!["value".to_owned()]);
    table.set_meta("scenario", sc.name.clone());
    table.set_meta("grid", format!("{rows}x{cols}"));
    table.set_meta("solver", sc.solver.token());
    let stack_hash = if board.pcb.is_some() {
        let hash = board.content_hash();
        table.set_meta("board_hash", format!("{hash:016x}"));
        table.set_meta("placements", dies.len().to_string());
        hash
    } else {
        let hash = board.placements[0].stack.content_hash();
        table.set_meta("stack_hash", format!("{hash:016x}"));
        hash
    };
    table.set_meta("nodes", circuit.node_count().to_string());
    for (label, v) in [
        ("total_power_W", power_in),
        ("ambient_C", sc.ambient_c),
        ("silicon_max_C", silicon_max_c),
        ("silicon_mean_C", silicon_mean_c),
        ("global_max_C", global_max_c),
        ("global_min_C", global_min_c),
        ("energy_rel_err", energy_rel),
    ] {
        table.push(Row::new(label, vec![v]));
    }
    Ok(Solution {
        field_csv: sc.field.then(|| {
            // Silicon fields in placement order; on a board each is
            // introduced by a `# place <name>` comment row.
            let mut out = String::new();
            for (die, si) in dies.iter().zip(&si_planes) {
                if let Some(place) = die.place {
                    out.push_str(&format!("# place {place}\n"));
                }
                for r in 0..rows {
                    let row: Vec<String> = (0..cols)
                        .map(|c| format!("{:.6}", kelvin_to_celsius(si[r * cols + c])))
                        .collect();
                    out.push_str(&row.join(","));
                    out.push('\n');
                }
            }
            out
        }),
        stack_hash,
        total_power_w: power_in,
        silicon_max_c,
        silicon_mean_c,
        global_max_c,
        global_min_c,
        energy_rel,
        cache_hit,
        blocks,
        solve_stats,
        placements,
        pcb,
        table,
    })
}

/// Dispatches the steady solve per the `[solve]` section's solver choice,
/// mapping an ineligible spectral request to an [`ErrorKind::Input`] error
/// and any other solver failure to [`ErrorKind::Solve`] (serving layers
/// answer 422 vs 500 by kind).
fn dispatch_steady(
    sc: &Scenario,
    circuit: &hotiron_thermal::circuit::ThermalCircuit,
    cell_power: &[f64],
    ambient: f64,
    state: &mut [f64],
) -> Result<SolveStats, ScenarioError> {
    let solved = match sc.solver {
        SolverSpec::Auto => solve_steady(circuit, cell_power, ambient, state),
        SolverSpec::Direct => {
            solve_steady_with(circuit, cell_power, ambient, state, SolverChoice::Direct)
        }
        SolverSpec::Cg => solve_steady_with(circuit, cell_power, ambient, state, SolverChoice::Cg),
        SolverSpec::Multigrid => {
            solve_steady_with(circuit, cell_power, ambient, state, SolverChoice::Multigrid)
        }
        SolverSpec::Spectral => {
            solve_steady_with(circuit, cell_power, ambient, state, SolverChoice::Spectral)
        }
    };
    solved.map_err(|e| match e {
        SolveError::SpectralIneligible { reason } => {
            err(0, format!("spectral solver ineligible: {reason}"))
        }
        other => ScenarioError {
            kind: ErrorKind::Solve,
            ..err(0, format!("steady solve failed: {other:?}"))
        },
    })
}

/// The scenarios shipped in `scenarios/`, embedded so tests and the
/// `stacks` experiment run them without touching the filesystem.
pub const SHIPPED: &[(&str, &str)] = &[
    ("paper-air", include_str!("../../../scenarios/paper-air.scn")),
    ("paper-oil", include_str!("../../../scenarios/paper-oil.scn")),
    ("athlon-hotspot", include_str!("../../../scenarios/athlon-hotspot.scn")),
    ("bare-die-forced-air", include_str!("../../../scenarios/bare-die-forced-air.scn")),
    ("oil-washed-spreader", include_str!("../../../scenarios/oil-washed-spreader.scn")),
    ("board-duo", include_str!("../../../scenarios/board-duo.scn")),
    ("board-qfn-vias", include_str!("../../../scenarios/board-qfn-vias.scn")),
];

/// The IR-only configurations the closed `Package` enum could not express;
/// the `stacks` experiment runs exactly these.
const IR_ONLY: &[&str] = &["bare-die-forced-air", "oil-washed-spreader"];

/// The `stacks` experiment: runs every IR-only shipped scenario through the
/// shared pipeline and tabulates the headline temperatures.
///
/// # Panics
///
/// Panics if an embedded scenario fails to parse or run — they are part of
/// the build and covered by the scenario test-suite.
pub fn stacks_table(fidelity: Fidelity) -> Table {
    let mut table = Table::new(
        "IR-only layer stacks (not expressible as a Package)",
        "scenario",
        ["silicon max C", "silicon mean C", "global max C", "energy rel"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
    );
    for name in IR_ONLY {
        let text = SHIPPED
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("IR-only scenario `{name}` not shipped"));
        let sc = parse(text).unwrap_or_else(|e| panic!("embedded scenario `{name}`: {e}"));
        let sol = run(&sc, fidelity).unwrap_or_else(|e| panic!("embedded scenario `{name}`: {e}"));
        table.set_meta(format!("stack_hash.{name}"), format!("{:016x}", sol.stack_hash));
        table.push(Row::new(
            sc.name.clone(),
            vec![sol.silicon_max_c, sol.silicon_mean_c, sol.global_max_c, sol.energy_rel],
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_oracle_rejects_non_finite_state() {
        let ok = check_ledger(&[320.0, 330.0], 10.0, 10.0).expect("balanced, finite");
        assert_eq!(ok, 0.0);
        let e = check_ledger(&[320.0, f64::NAN], 10.0, 10.0).expect_err("NaN node");
        assert_eq!(e.kind, ErrorKind::Solve);
        assert!(e.message.contains("non-finite temperature NaN K at node 1"), "{e}");
        let e = check_ledger(&[f64::INFINITY], 10.0, 10.0).expect_err("infinite node");
        assert_eq!(e.kind, ErrorKind::Solve);
        // A NaN ledger fails the balance test instead of slipping past `>`.
        let e = check_ledger(&[320.0], 10.0, f64::NAN).expect_err("NaN heat out");
        assert_eq!(e.kind, ErrorKind::Solve);
        assert!(e.message.contains("energy balance violated"), "{e}");
        let e = check_ledger(&[320.0], 10.0, 9.0).expect_err("1 W missing");
        assert_eq!(e.kind, ErrorKind::Solve);
    }

    #[test]
    fn shipped_scenarios_round_trip() {
        for (name, text) in SHIPPED {
            let sc = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(sc.name, *name, "scenario name matches its file stem");
            let again = parse(&sc.to_scn()).unwrap_or_else(|e| panic!("{name} re-parse: {e}"));
            assert_eq!(sc, again, "{name} round-trips through to_scn");
        }
    }

    #[test]
    fn unknown_key_names_its_line() {
        let text = "[scenario]\nname = x\n[grid]\nrows = 8\nwat = 9\n";
        let e = parse(text).expect_err("unknown key");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("unknown key `wat`"), "{e}");
    }

    #[test]
    fn unknown_section_names_its_line() {
        let e = parse("[scenario]\nname = x\n\n[powerz]\n").expect_err("bad section");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("unknown section"), "{e}");
    }

    #[test]
    fn bad_number_names_line_and_key() {
        let text = "[scenario]\nname = x\n[grid]\nrows = eight\n";
        let e = parse(text).expect_err("bad number");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("bad number `eight` for key `rows`"), "{e}");
    }

    #[test]
    fn non_finite_numbers_name_line_and_key() {
        let base = "[scenario]\nname = x\n[die]\nplan = uniform\nwidth = 0.01\nheight = 0.01\n\
                    [grid]\nrows = 8\ncols = 8\n[stack]\nlayer = silicon silicon 5e-4\n\
                    top = lumped 1 10\n";
        let e = parse(&format!("{base}[power]\nsource = uniform NaN\n")).expect_err("NaN watts");
        assert_eq!(e.line, 14);
        assert!(e.message.contains("bad number `NaN` for key `source`"), "{e}");
        let e = parse(&format!("{base}[power]\nsource = uniform 5\n[solve]\nambient = inf\n"))
            .expect_err("infinite ambient");
        assert_eq!(e.line, 16);
        assert!(e.message.contains("bad number `inf` for key `ambient`"), "{e}");
    }

    #[test]
    fn out_of_domain_numbers_name_line_and_key() {
        let base = "[scenario]\nname = x\n[die]\nplan = uniform\nwidth = 0.01\nheight = 0.01\n\
                    [grid]\nrows = 8\ncols = 8\n[stack]\nlayer = silicon silicon 5e-4\n\
                    top = lumped 1 10\n[power]\nsource = uniform 5\n";
        for (from, to, line, want) in [
            ("width = 0.01", "width = 0", 5, "`width` must be positive"),
            ("height = 0.01", "height = -0.016", 6, "`height` must be positive"),
            ("uniform 5", "uniform -40", 14, "`source` watts must lie in"),
            ("uniform 5", "uniform 1e308", 14, "`source` watts must lie in"),
            ("source = uniform 5", "block = sched -3", 14, "`block` watts must lie in"),
            ("5e-4", "0", 11, "`layer` must be positive"),
            ("5e-4", "5e-4 plate 0", 11, "`layer` must be positive"),
            ("lumped 1 10", "lumped 0 30", 12, "`top` must be positive"),
            ("lumped 1 10", "oil mineral-oil 0 left-to-right local", 12, "`top` must be positive"),
            ("lumped 1 10", "oil mineral-oil -5 left-to-right local", 12, "`top` must be positive"),
            // Bounded before anything is allocated: unbounded, a 20000×20000
            // grid aborted the process.
            ("rows = 8", "rows = 20000", 8, "`rows` must lie in [1, 512]"),
            ("cols = 8", "cols = 20000", 9, "`cols` must lie in [1, 512]"),
            ("rows = 8", "rows = 0", 8, "`rows` must lie in [1, 512]"),
            ("cols = 8", "cols = 0", 9, "`cols` must lie in [1, 512]"),
        ] {
            let e = parse(&base.replace(from, to)).expect_err(to);
            assert_eq!(e.line, line, "{to}: {e}");
            assert!(e.message.contains(want), "{to}: {e}");
        }
        let duo = SHIPPED.iter().find(|(n, _)| *n == "board-duo").expect("shipped").1;
        for (from, to) in [("width = 0.016", "width = 0"), ("height = 0.016", "height = -0.016")] {
            let line = duo.lines().position(|l| l == from).expect("place dimension") + 1;
            let e = parse(&duo.replacen(from, to, 1)).expect_err(to);
            assert_eq!(e.line, line, "{to}: {e}");
            assert!(e.message.contains("must be positive"), "{to}: {e}");
        }
        for (from, to) in [
            ("width = 0.06", "width = 0"),
            ("height = 0.04", "height = -0.04"),
            ("thickness = 0.0016", "thickness = 0"),
        ] {
            let line = duo.lines().position(|l| l == from).expect("board dimension") + 1;
            let e = parse(&duo.replacen(from, to, 1)).expect_err(to);
            assert_eq!(e.line, line, "{to}: {e}");
            assert!(e.message.contains("must be positive"), "{to}: {e}");
        }
        for ambient in ["-300", "-273.15", "1e10", "1e200", "1e308"] {
            let e = parse(&format!("{base}[solve]\nambient = {ambient}\n")).expect_err(ambient);
            assert_eq!(e.line, 16, "{ambient}: {e}");
            assert!(e.message.contains("`ambient` must lie in"), "{ambient}: {e}");
        }
        for (ambient, want) in [("-273", -273.0), ("1e6", 1e6)] {
            let sc = parse(&format!("{base}[solve]\nambient = {ambient}\n")).expect(ambient);
            assert_eq!(sc.ambient_c, want);
        }
        let side = format!("rows = {MAX_GRID_SIDE}");
        assert_eq!(parse(&base.replace("rows = 8", &side)).expect("largest").rows, MAX_GRID_SIDE);
    }

    #[test]
    fn missing_section_is_reported() {
        let text = "[scenario]\nname = x\n[grid]\nrows = 8\ncols = 8\n";
        let e = parse(text).expect_err("no stack");
        assert_eq!(e.line, 0);
        assert!(e.message.contains("missing `layer` lines in [stack]"), "{e}");
    }

    #[test]
    fn unknown_material_is_rejected() {
        let text = "[scenario]\nname = x\n[stack]\nlayer = die unobtanium 1e-3\n";
        let e = parse(text).expect_err("bad material");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("unknown material `unobtanium`"), "{e}");
    }

    #[test]
    fn key_before_section_is_rejected() {
        let e = parse("name = x\n").expect_err("no section yet");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("before any [section]"), "{e}");
    }

    #[test]
    fn gcc_power_requires_a_named_plan() {
        let text = "[scenario]\nname = x\n[die]\nplan = uniform\nwidth = 0.01\nheight = 0.01\n\
                    [grid]\nrows = 8\ncols = 8\n[stack]\nlayer = silicon silicon 5e-4\n\
                    top = lumped 1 10\n[power]\nsource = gcc\n";
        let e = parse(text).expect_err("gcc on uniform");
        assert!(e.message.contains("gcc"), "{e}");
    }

    #[test]
    fn bare_die_scenario_runs_end_to_end() {
        let (_, text) = SHIPPED.iter().find(|(n, _)| *n == "bare-die-forced-air").unwrap();
        let sc = parse(text).expect("parses");
        let sol = run(&sc, Fidelity::Fast).expect("runs");
        assert!(sol.silicon_max_c > sc.ambient_c, "die heats above ambient");
        assert!(sol.energy_rel <= ENERGY_REL_TOL);
        assert_eq!(sol.table.rows.len(), 7);
    }

    #[test]
    fn oil_washed_spreader_scenario_runs_end_to_end() {
        let (_, text) = SHIPPED.iter().find(|(n, _)| *n == "oil-washed-spreader").unwrap();
        let sc = parse(text).expect("parses");
        assert!(sc.layers.iter().any(|l| l.side.is_some()), "has an oversized plate");
        assert!(matches!(sc.top, Boundary::OilFilm(_)), "oil over the plate");
        let sol = run(&sc, Fidelity::Fast).expect("runs");
        assert!(sol.global_max_c > sc.ambient_c);
    }

    #[test]
    fn invalid_stack_surfaces_the_offending_layer() {
        let text = "[scenario]\nname = bad\n[die]\nplan = uniform\nwidth = 0.016\nheight = 0.016\n\
                    [grid]\nrows = 8\ncols = 8\n[stack]\nlayer = silicon silicon 5e-4\n\
                    layer = spreader copper 1e-3 plate 1e-3\ntop = lumped 1 10\n\
                    [power]\nsource = uniform 10\n";
        let sc = parse(text).expect("parses");
        let e = run(&sc, Fidelity::Fast).expect_err("undersized plate");
        assert!(e.message.starts_with("invalid stack: "), "no placement to name: {e}");
        assert!(e.message.contains("spreader"), "names the offending layer: {e}");
    }

    #[test]
    fn stacks_table_covers_every_ir_only_scenario() {
        let t = stacks_table(Fidelity::Fast);
        assert_eq!(t.rows.len(), IR_ONLY.len());
        for (row, name) in t.rows.iter().zip(IR_ONLY) {
            assert_eq!(row.label, *name);
            assert!(row.values[0] > common::AMBIENT_C, "{name} heats up");
            assert!(row.values[3] <= ENERGY_REL_TOL, "{name} balances energy");
        }
    }

    #[test]
    fn run_in_reports_cache_disposition_and_block_temperatures() {
        let (_, text) = SHIPPED.iter().find(|(n, _)| *n == "athlon-hotspot").unwrap();
        let sc = parse(text).expect("parses");
        let cache = CircuitCache::new(4);
        let first = run_in(&sc, Fidelity::Fast, &cache).expect("runs");
        assert!(!first.cache_hit, "fresh cache must assemble");
        let second = run_in(&sc, Fidelity::Fast, &cache).expect("runs");
        assert!(second.cache_hit, "second run reuses the circuit");
        assert_eq!(cache.counters().misses, 1);
        // Per-block report: every floorplan block present, the powered
        // scheduler hotter than the unpowered DDR interface.
        let temp = |sol: &Solution, name: &str| {
            sol.blocks.iter().find(|(n, _)| n == name).map(|(_, t)| *t).unwrap()
        };
        assert_eq!(first.blocks.len(), sc.floorplan().blocks().len());
        assert!(temp(&first, "sched") > temp(&first, "mem_ctl") + 1.0);
        assert!(first.solve_stats.converged);
        assert_eq!(first.blocks, second.blocks, "cache hit is observationally identical");
    }

    #[test]
    fn field_output_has_grid_shape() {
        let text = "[scenario]\nname = f\n[die]\nplan = uniform\nwidth = 0.01\nheight = 0.01\n\
                    [grid]\nrows = 8\ncols = 8\n[stack]\nlayer = silicon silicon 5e-4\n\
                    top = lumped 1 10\n[power]\nsource = uniform 5\n[output]\nfield = true\n";
        let sc = parse(text).expect("parses");
        let sol = run(&sc, Fidelity::Fast).expect("runs");
        let field = sol.field_csv.expect("field requested");
        assert_eq!(field.lines().count(), 8);
        assert_eq!(field.lines().next().unwrap().split(',').count(), 8);
    }

    fn shipped(name: &str) -> Scenario {
        let (_, text) = SHIPPED.iter().find(|(n, _)| *n == name).unwrap();
        parse(text).expect("shipped scenario parses")
    }

    /// FNV-1a digest of everything an assembled circuit carries: the CSR
    /// structure and value bits, capacitance and ambient-conductance bits,
    /// node kinds and layer names.
    fn circuit_digest(c: &hotiron_thermal::circuit::ThermalCircuit) -> u64 {
        use hotiron_thermal::circuit::NodeKind;
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let g = c.conductance();
        g.row_offsets().iter().for_each(|v| eat(&v.to_le_bytes()));
        g.col_indices().iter().for_each(|v| eat(&v.to_le_bytes()));
        g.values().iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        c.capacitance().iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        c.ambient_conductance().iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        for k in c.node_kinds() {
            let (tag, layer) = match *k {
                NodeKind::Cell { layer } => (0u8, layer),
                NodeKind::Ring { layer } => (1, layer),
                NodeKind::Coolant => (2, 0),
                NodeKind::Oil => (3, 0),
            };
            eat(&[tag]);
            eat(&(layer as u64).to_le_bytes());
        }
        for name in c.layer_names() {
            eat(name.as_bytes());
            eat(&[0xff]);
        }
        h
    }

    /// Digests of every shipped single-die scenario's circuit at the 16×16
    /// fast grid and at its own paper grid, recorded from the dedicated
    /// single-stack assembler before single dies became one-placement
    /// boards. Any drift here changes every single-die result.
    const SINGLE_DIE_DIGESTS: &[(&str, u64, u64)] = &[
        ("paper-air", 0xea6b_6486_d579_e654, 0x06ae_8ca6_cbf8_7d6f),
        ("paper-oil", 0x0482_bd6c_70b0_4164, 0x9ea6_0e53_db01_b40c),
        ("athlon-hotspot", 0x9f51_593e_0af5_a0bf, 0x684c_c80a_0ee7_5e44),
        ("bare-die-forced-air", 0x9d93_807f_7f6c_bda3, 0x350a_be4e_0590_4d1d),
        ("oil-washed-spreader", 0xee00_f8a1_1e68_9772, 0xcd05_8240_a733_22a3),
    ];

    #[test]
    fn single_die_circuits_match_pinned_digests() {
        use hotiron_thermal::circuit::build_circuit_from_stack;
        let single: Vec<&str> =
            SHIPPED.iter().map(|(n, _)| *n).filter(|n| shipped(n).board.is_none()).collect();
        let mut seen = Vec::new();
        for name in &single {
            let sc = shipped(name);
            let plan = sc.floorplan();
            let stack = sc.stack().expect("lowers");
            let die = DieGeometry {
                width: plan.width(),
                height: plan.height(),
                thickness: stack.layers[stack.si_index].thickness,
            };
            let digest = |rows: usize, cols: usize| {
                let m = GridMapping::new(&plan, rows, cols);
                circuit_digest(&build_circuit_from_stack(&m, die, &stack).expect("assembles"))
            };
            let fast = digest(sc.rows.min(16), sc.cols.min(16));
            let paper = digest(sc.rows, sc.cols);
            seen.push((*name, fast, paper));
            // The scenario pipeline runs on the same cached circuit.
            let cache = CircuitCache::new(4);
            run_in(&sc, Fidelity::Fast, &cache).expect("runs");
            let m = GridMapping::new(&plan, sc.rows.min(16), sc.cols.min(16));
            let (c, hit) = cache.get_or_build(&m, die, &stack).expect("assembles");
            assert!(hit, "{name}: the pipeline's circuit shares the stack's cache entry");
            assert_eq!(circuit_digest(&c), fast, "{name}");
        }
        assert_eq!(seen, SINGLE_DIE_DIGESTS, "single-die circuits drifted");
    }

    #[test]
    fn board_duo_exposes_inter_package_coupling() {
        let sc = shipped("board-duo");
        assert!(sc.board.is_some());
        assert_eq!(sc.places.len(), 2);
        assert_eq!(sc.places[1].rotation, Rotation::R90);
        let sol = run(&sc, Fidelity::Fast).expect("runs");
        let rep = |n: &str| sol.placements.iter().find(|p| p.name == n).unwrap().clone();
        let (cpu, dram) = (rep("cpu"), rep("dram"));
        // The DRAM dissipates nothing — any silicon rise over ambient is
        // conduction through the shared PCB, the coupling signature.
        assert!(dram.silicon_mean_c > sc.ambient_c + 0.05, "coupled rise: {dram:?}");
        assert!(cpu.silicon_max_c > dram.silicon_max_c, "the powered die is hotter");
        assert!(cpu.pcb_under_c > dram.pcb_under_c, "PCB is hottest under the source");
        let pcb = sol.pcb.as_ref().expect("board run reports the PCB plane");
        assert_eq!(pcb.celsius.len(), pcb.rows * pcb.cols);
        assert!(sol.blocks.iter().all(|(n, _)| n.starts_with("cpu/") || n.starts_with("dram/")));
        assert!(sol.energy_rel <= ENERGY_REL_TOL);
    }

    #[test]
    fn board_qfn_vias_runs_and_reports_board_hash() {
        let sc = shipped("board-qfn-vias");
        assert_eq!(sc.board.as_ref().unwrap().vias.len(), 1);
        let sol = run(&sc, Fidelity::Fast).expect("runs");
        assert!(sol.silicon_max_c > sc.ambient_c, "die heats above ambient");
        assert!(sol.table.meta.iter().any(|(k, _)| k == "board_hash"));
        assert_eq!(sol.placements.len(), 1);
    }

    #[test]
    fn board_and_single_die_sections_do_not_mix() {
        let text = "[scenario]\nname = x\n[grid]\nrows = 8\ncols = 8\n\
                    [board]\nwidth = 0.03\nheight = 0.03\nthickness = 1.6e-3\nbottom = lumped 6 15\n\
                    [stack]\nlayer = silicon silicon 5e-4\ntop = lumped 1 10\n\
                    [place]\nname = u1\nplan = uniform\nwidth = 0.007\nheight = 0.007\n\
                    x = 0.01\ny = 0.01\nlayer = silicon silicon 3e-4\ntop = insulated\n\
                    source = uniform 1\n";
        let e = parse(text).expect_err("mixed forms");
        assert!(e.message.contains("replaces [die]/[stack]/[power]"), "{e}");
    }

    #[test]
    fn place_errors_name_the_offending_placement() {
        let text = "[scenario]\nname = x\n[grid]\nrows = 8\ncols = 8\n\
                    [board]\nwidth = 0.03\nheight = 0.03\nthickness = 1.6e-3\nbottom = lumped 6 15\n\
                    [place]\nname = u7\nplan = uniform\nwidth = 0.007\nheight = 0.007\n\
                    y = 0.01\nlayer = silicon silicon 3e-4\ntop = insulated\nsource = uniform 1\n";
        let e = parse(text).expect_err("missing x");
        assert!(e.message.contains("placement `u7`"), "{e}");
        assert!(e.message.contains("missing key `x`"), "{e}");
        assert_eq!(e.line, 11, "cites the [place] header line");
    }

    #[test]
    fn spectral_on_a_board_is_a_named_client_error() {
        let mut sc = shipped("board-duo");
        sc.solver = SolverSpec::Spectral;
        let e = run(&sc, Fidelity::Fast).expect_err("boards are spectrally ineligible");
        assert!(e.message.starts_with("spectral solver ineligible"), "{e}");
    }

    #[test]
    fn out_of_bounds_placement_is_an_invalid_board_error() {
        let mut sc = shipped("board-duo");
        sc.places[1].x = 0.055; // 12 mm footprint off a 60 mm board edge
        let e = run(&sc, Fidelity::Fast).expect_err("overhanging placement");
        assert!(e.message.starts_with("invalid board:"), "{e}");
        assert!(e.message.contains("dram"), "names the placement: {e}");
    }
}
