//! `serve-paper` and `serve-fast`: an in-process `serve::spawn` daemon (one
//! solver worker) answering closed loops of solve requests, at one fidelity
//! tier.
//!
//! The mix has one entry per shipped scenario, sent by name or inline, plus
//! two generated spectral-eligible EV6 dies (128² and 256²) whose block
//! powers come from the seed. Every request carries a `power_scale` from a
//! fixed palette; requests come in shuffled blocks that hold each
//! (entry, scale, form) once, so every seed sends the same proportions.
//! Set-up spawns the daemon and solves each entry once at scale 1; each
//! `200` in the loop must have finite fields, a balanced energy ledger, and
//! match the set-up answer by power linearity.
//!
//! `paper-air` is left out of the paper tier: its shipped direct solver
//! factors a 16,387-node AIR-SINK operator, which takes minutes (the traced
//! run counts that factor symbolically). The fast tier sends it.

use crate::stats::{median, percentile, Report, Rng};
use crate::symbolic;
use crate::trace::{self, span};
use hotiron_bench::common;
use hotiron_bench::scenario::{self, PlanKind, PowerSpec, Scenario, SolverSpec};
use hotiron_bench::Fidelity;
use hotiron_floorplan::{library, Floorplan, GridMapping};
use hotiron_serve::engine::{solution_response, Disposition};
use hotiron_serve::json::Json;
use hotiron_serve::protocol::{FidelityTier, ScenarioSource};
use hotiron_serve::{spawn, Client, Engine, Request, ServerConfig, ServerHandle, SolveRequest};
use hotiron_thermal::circuit::build_circuit_from_stack;
use hotiron_thermal::greens::ResponseCache;
use hotiron_thermal::solve::{solve_steady, solve_steady_with};
use hotiron_thermal::units::celsius_to_kelvin;
use hotiron_thermal::{CircuitCache, DieGeometry, LdlFactor, PowerMap, SolverChoice};
use hotiron_verify::tol;
use std::time::{Duration, Instant};

/// Daemon solver workers: one, so a solve never competes for a core with
/// a second solve or with the client and connection threads.
const WORKERS: usize = 1;
/// Multipliers a request's `power_scale` is drawn from.
const SCALES: [f64; 6] = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
/// Requests in the fixed batch `wall_s` reports.
const BATCH: f64 = 1000.0;
/// Timed daemon set-ups per run, after one untimed warm-up; `setup_s` is
/// their median.
const SETUP_REPS: usize = 11;
/// Counters whose value depends on thread timing, not only on the code.
pub const TIMING_DEPENDENT: &[&str] = &["engine.coalesced", "server.shed"];

/// Fidelity tier of a serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Each scenario's full grid.
    Paper,
    /// Grids clamped to 16×16.
    Fast,
}

impl Tier {
    fn wire(self) -> FidelityTier {
        match self {
            Tier::Paper => FidelityTier::Paper,
            Tier::Fast => FidelityTier::Fast,
        }
    }

    /// Closed-loop client connections. Two keep the worker busy at paper
    /// fidelity; sub-millisecond fast solves need four, or the worker idles
    /// on thread wake-ups between requests and the rate follows the
    /// scheduler instead of the code.
    fn connections(self) -> usize {
        match self {
            Tier::Paper => 2,
            Tier::Fast => 4,
        }
    }

    fn fidelity(self) -> Fidelity {
        match self {
            Tier::Paper => Fidelity::Paper,
            Tier::Fast => Fidelity::Fast,
        }
    }
}

/// (workers, connections) of a workload, for the machine fingerprint.
pub fn shape(workload: &str) -> (usize, usize) {
    match workload {
        "serve-paper" => (WORKERS, Tier::Paper.connections()),
        "serve-fast" => (WORKERS, Tier::Fast.connections()),
        _ => (0, 0),
    }
}

/// One mix entry.
struct Entry {
    name: &'static str,
    /// The `.scn` document (shipped text, or generated).
    text: String,
    /// Shipped scenarios can be requested by name as well as inline.
    shipped: bool,
    ambient_c: f64,
}

/// A set-up answer at scale 1, the reference for power linearity.
#[derive(Clone, Copy)]
struct Base {
    power_w: f64,
    max_rise: f64,
    mean_rise: f64,
}

/// A generated spectral-eligible die: EV6 floorplan, bare silicon plus a
/// thermal interface under a lumped coolant, four seeded hot blocks.
fn spectral_die(name: &str, grid: usize, rng: &mut Rng) -> String {
    const BLOCKS: [&str; 8] =
        ["Icache", "Dcache", "Bpred", "IntExec", "IntReg", "FPAdd", "LdStQ", "FPMul"];
    let mut picks = BLOCKS.to_vec();
    rng.shuffle(&mut picks);
    let power: String = picks[..4]
        .iter()
        .map(|b| format!("block = {b} {:.2}\n", 2.0 + rng.below(1000) as f64 * 0.01))
        .collect();
    format!(
        "[scenario]\nname = {name}\ntitle = Generated spectral die {grid}x{grid}\n\n\
         [die]\nplan = ev6\n\n[grid]\nrows = {grid}\ncols = {grid}\n\n\
         [stack]\nlayer = silicon silicon 0.0005\nlayer = tim interface 0.00002\n\
         silicon = silicon\nbottom = insulated\ntop = lumped 0.8 60\n\n\
         [power]\n{power}\n[solve]\nsolver = spectral\nambient = 45\n\n[output]\nfield = false\n"
    )
}

fn mix(tier: Tier, seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed, 0x7365_7276);
    let mut out = Vec::new();
    for (name, text) in scenario::SHIPPED {
        if tier == Tier::Paper && *name == "paper-air" {
            continue;
        }
        let ambient_c = scenario::parse(text).expect("shipped scenarios parse").ambient_c;
        out.push(Entry { name, text: (*text).to_owned(), shipped: true, ambient_c });
    }
    for (name, grid) in [("spec128", 128), ("spec256", 256)] {
        let text = spectral_die(name, grid, &mut rng);
        out.push(Entry { name, text, shipped: false, ambient_c: 45.0 });
    }
    out
}

fn request(tier: Tier, e: &Entry, scale: f64, by_name: bool) -> Request {
    Request::Solve(SolveRequest {
        scenario: if by_name {
            ScenarioSource::Named(e.name.to_owned())
        } else {
            ScenarioSource::Inline(e.text.clone())
        },
        fidelity: tier.wire(),
        power_scale: (scale != 1.0).then_some(scale),
        power_w: None,
        deadline_ms: Some(60_000),
        blocks: true,
        solver: None,
    })
}

/// One planned request: mix entry, power scale, and whether it names the
/// scenario (`true`) or carries it inline.
type Planned = (usize, f64, bool);

/// One connection's request sequence: shuffled blocks, each holding every
/// (entry, scale, form) once; generated entries only go inline, so they
/// appear twice per block in that form.
fn schedule(entries: &[Entry], rng: &mut Rng, blocks: usize) -> Vec<Planned> {
    let mut out = Vec::new();
    for _ in 0..blocks {
        let mut block = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            for &s in &SCALES {
                for by_name in [false, true] {
                    block.push((i, s, by_name && e.shipped));
                }
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Checks one response against the set-up answer; `Err` names the problem.
fn verify(resp: &Json, e: &Entry, scale: f64, base: &Base) -> Result<(), String> {
    if resp.get("code").and_then(Json::as_f64) != Some(200.0) {
        let msg = resp.get("error").map(Json::render).unwrap_or_else(|| resp.render());
        return Err(format!("{}: non-200 response {msg}", e.name));
    }
    let fields =
        ["total_power_w", "silicon_max_c", "silicon_mean_c", "global_max_c", "global_min_c"];
    if let Some(f) = fields.iter().find(|f| !num(resp, f).is_finite()) {
        return Err(format!("{}: field `{f}` is not finite", e.name));
    }
    let energy = num(resp, "energy_rel");
    if energy.is_nan() || energy > tol::ENERGY_BALANCE_REL {
        return Err(format!("{}: energy_rel {energy:e}", e.name));
    }
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-6 * want.abs() + 1e-6;
    let power = num(resp, "total_power_w");
    let max_rise = num(resp, "silicon_max_c") - e.ambient_c;
    let mean_rise = num(resp, "silicon_mean_c") - e.ambient_c;
    if !(close(power, scale * base.power_w)
        && close(max_rise, scale * base.max_rise)
        && close(mean_rise, scale * base.mean_rise))
    {
        return Err(format!(
            "{} x{scale}: rise {max_rise:.9}/{mean_rise:.9} K is not {scale} x {:.9}/{:.9} K",
            e.name, base.max_rise, base.mean_rise
        ));
    }
    Ok(())
}

/// Spawns a daemon and solves every entry once at scale 1 (warming each
/// distinct circuit and solver set-up), returning the reference answers.
fn setup(tier: Tier, entries: &[Entry]) -> Result<(ServerHandle, Vec<Base>), String> {
    ResponseCache::process().clear();
    let config = ServerConfig {
        workers: WORKERS,
        queue_capacity: 128,
        cache_capacity: 32,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    };
    let handle = spawn(config).map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(&handle.addr().to_string()).map_err(|e| e.to_string())?;
    let mut bases = Vec::with_capacity(entries.len());
    for e in entries {
        let resp = client.request(&request(tier, e, 1.0, false)).map_err(|x| x.to_string())?;
        if resp.get("code").and_then(Json::as_f64) != Some(200.0) {
            handle.shutdown_and_join();
            return Err(format!("{}: set-up solve failed: {}", e.name, resp.render()));
        }
        bases.push(Base {
            power_w: num(&resp, "total_power_w"),
            max_rise: num(&resp, "silicon_max_c") - e.ambient_c,
            mean_rise: num(&resp, "silicon_mean_c") - e.ambient_c,
        });
    }
    Ok((handle, bases))
}

/// What one connection saw: (entry, latency ms) per `200`, plus failures.
#[derive(Default)]
struct Seen {
    ok: Vec<(usize, f64)>,
    sent: u64,
    failures: Vec<String>,
}

fn connection(
    addr: &str,
    tier: Tier,
    entries: &[Entry],
    bases: &[Base],
    plan: &[Planned],
    deadline: Instant,
    id_base: u64,
) -> Seen {
    let mut seen = Seen::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            seen.sent = 1;
            seen.failures.push(format!("connect: {e}"));
            return seen;
        }
    };
    let span_names: Vec<String> =
        entries.iter().map(|e| format!("serve.request.{}", e.name)).collect();
    for (n, &(i, scale, by_name)) in plan.iter().cycle().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let req = request(tier, &entries[i], scale, by_name);
        trace::set_request(id_base + n as u64);
        let t = Instant::now();
        let resp = span(&span_names[i], || client.request(&req));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        seen.sent += 1;
        match resp
            .map_err(|e| e.to_string())
            .and_then(|r| verify(&r, &entries[i], scale, &bases[i]))
        {
            Ok(()) => seen.ok.push((i, ms)),
            Err(why) => seen.failures.push(why),
        }
    }
    trace::set_request(0);
    seen
}

/// Runs one serve workload for `seconds`.
pub fn run(tier: Tier, seed: u64, seconds: f64, report: &mut Report) {
    let entries = mix(tier, seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..=SETUP_REPS {
        if let Some((old, _)) = daemon.take() {
            ServerHandle::shutdown_and_join(old);
        }
        let t = Instant::now();
        match span("serve.setup", || setup(tier, &entries)) {
            Ok(d) => daemon = Some(d),
            Err(why) => {
                report.attempted += 1;
                report.fail(format!("set-up {rep}: {why}"));
                return;
            }
        }
        if rep > 0 {
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    report.put("setup_s", median(&setups), "s");
    let (handle, bases) = daemon.expect("set up");
    let addr = handle.addr().to_string();

    let mut rng = Rng::new(seed, 0x6c6f_6f70);
    let plans: Vec<_> = (0..tier.connections()).map(|_| schedule(&entries, &mut rng, 64)).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let seen: Vec<Seen> = std::thread::scope(|s| {
        let workers: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let (addr, entries, bases) = (&addr, &entries, &bases);
                s.spawn(move || {
                    connection(addr, tier, entries, bases, plan, deadline, (c as u64 + 1) << 32)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut per_entry = vec![Vec::new(); entries.len()];
    for s in &seen {
        report.attempted += s.sent;
        for why in &s.failures {
            report.fail(why.clone());
        }
        for &(i, ms) in &s.ok {
            latencies.push(ms);
            per_entry[i].push(ms);
        }
    }
    let stats = Client::connect(&addr).ok().and_then(|mut c| c.request(&Request::Stats).ok());
    ServerHandle::shutdown_and_join(handle);

    let rps = latencies.len() as f64 / elapsed;
    report.put("throughput_ops_s", rps, "1/s");
    // Every workload prints every end-to-end metric; here `wall_s` is the
    // throughput restated, as the time to answer a batch of requests.
    report.put("wall_s", BATCH / rps, "s");
    report.put("latency_p50_ms", median(&latencies), "ms");
    report.put("latency_p99_ms", percentile(&latencies, 99.0), "ms");
    if !trace::enabled() {
        return;
    }

    for (e, l) in entries.iter().zip(&per_entry) {
        report.put(&format!("serve.{}.p50_ms", e.name), median(l), "ms");
    }
    if let Some(st) = stats {
        let get = |a: &str, b: &str| st.get(a).and_then(|x| x.get(b)).and_then(Json::as_f64);
        let (hits, misses) =
            (get("cache", "hits").unwrap_or(0.0), get("cache", "misses").unwrap_or(0.0));
        report.put("circuit.cache_hit_ratio", hits / (hits + misses).max(1.0), "1");
        report.put("circuit.cache_misses", misses, "count");
        report.put("engine.coalesced", get("requests", "coalesced").unwrap_or(0.0), "count");
        let shed = get("requests", "shed_queue_full").unwrap_or(0.0)
            + get("requests", "shed_deadline").unwrap_or(0.0);
        report.put("server.shed", shed, "count");
    }
    let solutions = backend_probe(tier, &entries, report);
    overhead_probe(tier, &entries, &plans[0], &solutions, report);
    paper_air_factor(report);
}

/// The floorplan a single-die scenario runs on.
fn plan_of(sc: &Scenario) -> Floorplan {
    match sc.plan {
        PlanKind::Uniform => library::uniform_die(
            sc.width.expect("uniform plan has width"),
            sc.height.expect("uniform plan has height"),
        ),
        PlanKind::Ev6 => library::ev6(),
        PlanKind::Athlon64 => library::athlon64(),
        PlanKind::CenterSource => library::center_source_die(),
    }
}

/// Per-cell silicon power of a single-die scenario.
fn cell_power(sc: &Scenario, plan: &Floorplan, mapping: &GridMapping) -> Vec<f64> {
    let map = match &sc.power {
        PowerSpec::Uniform(w) => PowerMap::uniform_density(plan, w / plan.covered_area()),
        PowerSpec::Gcc => match sc.plan {
            PlanKind::Athlon64 => common::athlon_gcc().1,
            _ => common::ev6_gcc().1,
        },
        PowerSpec::Blocks(blocks) => {
            let mut m = PowerMap::zeros(plan);
            for (b, w) in blocks {
                m.set(plan, b, *w).expect("scenario blocks exist");
            }
            m
        }
    };
    mapping.spread_block_values(map.values())
}

/// Runs each entry's scenario pipeline in-process on a private cache, with
/// spans per stage: parse, lower, assemble, solver set-up and warm solve.
/// Returns each entry's warm solution for the encode probe.
fn backend_probe(
    tier: Tier,
    entries: &[Entry],
    report: &mut Report,
) -> Vec<Option<scenario::Solution>> {
    const WARM: usize = 5;
    let fidelity = tier.fidelity();
    let mut self_ms = Vec::new();
    let mut out = Vec::new();
    for e in entries {
        let sc = span("scenario.parse", || scenario::parse(&e.text)).expect("mix entries parse");
        ResponseCache::process().clear();
        let cache = CircuitCache::new(4);
        let cold = match span("scenario.run_in.cold", || scenario::run_in(&sc, fidelity, &cache)) {
            Ok(s) => s,
            Err(why) => {
                report.fail(format!("{}: in-process run failed: {why}", e.name));
                out.push(None);
                continue;
            }
        };
        let warm_name = format!("scenario.run_in.{}", e.name);
        let mut warm = None;
        for _ in 0..WARM {
            warm = span(&warm_name, || scenario::run_in(&sc, fidelity, &cache)).ok();
        }
        let st = &cold.solve_stats;
        let iters = match &st.multigrid {
            Some(mg) => mg.cycles.max(st.iterations),
            None => st.iterations,
        };
        report.put(&format!("scn.{}.iters", e.name), iters as f64, "count");
        report.put(&format!("scn.{}.setup_ms", e.name), st.factor_seconds * 1e3, "ms");
        report.put(&format!("scn.{}.factor_nnz", e.name), st.factor_nnz as f64, "count");
        let warm_ms = trace::median_s(&warm_name) * 1e3;
        report.put(&format!("scn.{}.warm_ms", e.name), warm_ms, "ms");

        if sc.board.is_none() {
            // Stage split for single-die scenarios: lower and assemble
            // outside the cache, then time the bare solver call, so the
            // pipeline's own share of a warm request is what remains.
            let stack = span("stack.lower", || sc.stack()).expect("mix stacks lower");
            let plan = plan_of(&sc);
            let (rows, cols) = match tier {
                Tier::Fast => (sc.rows.min(16), sc.cols.min(16)),
                Tier::Paper => (sc.rows, sc.cols),
            };
            let mapping = GridMapping::new(&plan, rows, cols);
            let die = DieGeometry {
                width: plan.width(),
                height: plan.height(),
                thickness: stack.layers[stack.si_index].thickness,
            };
            let circuit =
                span("circuit.assemble", || build_circuit_from_stack(&mapping, die, &stack))
                    .expect("mix stacks assemble");
            let power = cell_power(&sc, &plan, &mapping);
            let ambient = celsius_to_kelvin(sc.ambient_c);
            let choice = match sc.solver {
                SolverSpec::Auto => None,
                SolverSpec::Direct => Some(SolverChoice::Direct),
                SolverSpec::Cg => Some(SolverChoice::Cg),
                SolverSpec::Multigrid => Some(SolverChoice::Multigrid),
                SolverSpec::Spectral => Some(SolverChoice::Spectral),
            };
            let solve_name = format!("solve.{}", e.name);
            let mut state = Vec::new();
            for _ in 0..=WARM {
                state = vec![ambient; circuit.node_count()];
                let solved = span(&solve_name, || match choice {
                    None => solve_steady(&circuit, &power, ambient, &mut state),
                    Some(c) => solve_steady_with(&circuit, &power, ambient, &mut state, c),
                });
                if solved.is_err() {
                    report.fail(format!("{}: bare solver call failed", e.name));
                }
            }
            // The split is only meaningful if the bare call solved the same
            // problem the pipeline did.
            let hot = circuit.silicon_slice(&state).iter().copied().fold(f64::MIN, f64::max);
            let want = celsius_to_kelvin(cold.silicon_max_c);
            if (hot - want).abs() > 1e-6 * (want - ambient).abs() + 1e-6 {
                report.fail(format!("{}: bare solve max {hot} K != pipeline {want} K", e.name));
            }
            // The first call paid the solver set-up; keep the warm ones.
            let warm_solves = trace::durations(&solve_name);
            let solve_ms = median(&warm_solves[1..]) * 1e3;
            self_ms.push((warm_ms - solve_ms).max(0.0));
        }
        out.push(warm);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.put("scenario.parse_us", mean(&trace::durations("scenario.parse")) * 1e6, "us");
    report.put("stack.lower_us", mean(&trace::durations("stack.lower")) * 1e6, "us");
    report.put("circuit.assemble_ms", mean(&trace::durations("circuit.assemble")) * 1e3, "ms");
    report.put("scenario.run_in_self_ms", mean(&self_ms), "ms");
    out
}

/// The per-request work around the solve, replayed on one connection's
/// request sequence: frame JSON parse, protocol decode, engine resolve,
/// response encode and render.
fn overhead_probe(
    tier: Tier,
    entries: &[Entry],
    plan: &[Planned],
    solutions: &[Option<scenario::Solution>],
    report: &mut Report,
) {
    let engine = Engine::new(4);
    for &(i, scale, by_name) in plan.iter().take(entries.len() * SCALES.len() * 2) {
        let text = request(tier, &entries[i], scale, by_name).to_json().render();
        let doc = span("json.parse", || Json::parse(&text)).expect("client requests are JSON");
        let decoded = span("protocol.decode", || Request::from_json(&doc));
        let Ok(Request::Solve(solve)) = decoded else {
            report.fail(format!("{}: request did not decode", entries[i].name));
            continue;
        };
        if span("engine.resolve", || engine.resolve(&solve)).is_err() {
            report.fail(format!("{}: request did not resolve", entries[i].name));
        }
        if let Some(sol) = &solutions[i] {
            let resp = span("engine.encode", || {
                solution_response(entries[i].name, tier.wire(), sol, Disposition::Hit, true)
            });
            std::hint::black_box(span("json.render", || resp.render()));
        }
    }
    report.put("json.parse_us", trace::median_s("json.parse") * 1e6, "us");
    report.put("protocol.decode_us", trace::median_s("protocol.decode") * 1e6, "us");
    report.put("engine.resolve_us", trace::median_s("engine.resolve") * 1e6, "us");
    report.put("engine.encode_us", trace::median_s("engine.encode") * 1e6, "us");
    report.put("json.render_us", trace::median_s("json.render") * 1e6, "us");
}

/// Counts paper-air's direct steady factor at its shipped 64×64 grid
/// symbolically, after checking the symbolic count against a real factor
/// of the same operator at 16×16.
fn paper_air_factor(report: &mut Report) {
    let text = scenario::SHIPPED.iter().find(|(n, _)| *n == "paper-air").expect("shipped").1;
    let sc = scenario::parse(text).expect("paper-air parses");
    let stack = sc.stack().expect("paper-air lowers");
    let plan = plan_of(&sc);
    let die = DieGeometry {
        width: plan.width(),
        height: plan.height(),
        thickness: stack.layers[stack.si_index].thickness,
    };
    let build = |n: usize| {
        build_circuit_from_stack(&GridMapping::new(&plan, n, n), die, &stack).expect("assembles")
    };
    let small = build(16);
    let real = LdlFactor::factor(small.conductance()).expect("SPD").nnz_l();
    let counted = symbolic::analyze(small.conductance()).nnz;
    if real != counted {
        report.fail(format!("symbolic LDLt count {counted} != factor nnz {real} at 16x16"));
    }
    let full = build(sc.rows);
    let shape = span("cholesky.paper-air.symbolic", || symbolic::analyze(full.conductance()));
    report.put("cholesky.paper-air.symbolic_nnz", shape.nnz as f64, "count");
    report.put("cholesky.paper-air.gflop", shape.flops / 1e9, "GFLOP");
}
