//! Compact thermal modeling of AIR-SINK and OIL-SILICON cooling.
//!
//! This crate reimplements the HotSpot-style compact thermal model with the
//! extensions of Huang et al., *"Differentiating the Roles of IR Measurement
//! and Simulation for Power and Temperature-Aware Design"* (ISPASS 2009):
//!
//! * an **IR-transparent laminar oil flow over the bare die**
//!   ([`package::OilSiliconPackage`]), including the position-dependent
//!   local heat-transfer coefficient that makes the flow *direction* move
//!   hot spots, and
//! * the **secondary heat-transfer path** through interconnect, C4 bumps,
//!   package substrate, solder balls and PCB ([`package::SecondaryPath`]).
//!
//! The conventional forced-air copper heatsink ([`package::AirSinkPackage`])
//! is modeled as in stock HotSpot for comparison.
//!
//! # Quick start
//!
//! ```
//! use hotiron_floorplan::library;
//! use hotiron_thermal::model::{ModelConfig, ThermalModel};
//! use hotiron_thermal::package::{OilSiliconPackage, Package};
//! use hotiron_thermal::power::PowerMap;
//!
//! let plan = library::ev6();
//! let model = ThermalModel::new(
//!     plan.clone(),
//!     Package::OilSilicon(OilSiliconPackage::paper_default()),
//!     ModelConfig::paper_default().with_grid(16, 16),
//! )?;
//! let power = PowerMap::from_pairs(&plan, [("IntReg", 2.0), ("L2", 10.0)])?;
//! let sol = model.steady_state(&power)?;
//! println!("hottest: {:?}", sol.hottest_block());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analytic;
pub mod board;
pub mod cholesky;
pub mod circuit;
pub mod convection;
pub mod fft;
pub mod fluid;
pub mod greens;
mod lru;
pub mod materials;
pub mod model;
pub mod multigrid;
pub mod package;
pub mod pool;
pub mod power;
pub mod solve;
pub mod sparse;
pub mod stack;
pub mod units;

pub use board::{Board, BoardError, PcbSpec, Placement, Rotation, ViaField};
pub use cholesky::{FactorError, LdlFactor};
pub use circuit::{CacheCounters, CircuitCache};
pub use convection::{FlowDirection, LaminarFlow};
pub use fluid::Fluid;
pub use materials::Material;
pub use model::{ModelConfig, Solution, ThermalError, ThermalModel, TransientSim};
pub use multigrid::{MgStats, Multigrid};
pub use package::{AirSinkPackage, OilSiliconPackage, Package, SecondaryPath};
pub use power::PowerMap;
pub use solve::SolverChoice;
pub use stack::{Boundary, DieGeometry, Layer, LayerStack, OilFilm, StackError};
