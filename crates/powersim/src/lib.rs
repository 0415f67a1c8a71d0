//! Synthetic microarchitectural power-trace generation.
//!
//! The paper drives its thermal simulations with SimpleScalar + Wattch
//! running SPEC benchmarks (gcc) on an Alpha EV6 configuration, sampling
//! power every 10 K cycles (≈3.3 µs at 3 GHz). Neither SimpleScalar nor
//! SPEC binaries can be shipped here, so this crate generates
//! **deterministic, phase-structured synthetic power traces** with the same
//! statistical anatomy:
//!
//! * per-unit peak dynamic power + leakage ([`uarch`]), calibrated to the
//!   block-level averages published for EV6-class cores in the
//!   HotSpot/Wattch literature;
//! * workload *phases* (high-IPC bursts, L2-miss stalls, FP-heavy regions)
//!   with per-unit-class activity levels ([`workload`]);
//! * cycle-level dithering from a seeded RNG ([`engine`]).
//!
//! The thermal conclusions of the paper depend on the spatial power
//! distribution and its temporal burstiness, both of which are preserved.
//! See DESIGN.md (substitutions).
//!
//! # Examples
//!
//! ```
//! use hotiron_floorplan::library;
//! use hotiron_powersim::{engine::SyntheticCpu, uarch, workload};
//!
//! let plan = library::ev6();
//! let cpu = SyntheticCpu::new(uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"), workload::gcc(), 42);
//! let trace = cpu.simulate(1000);
//! assert_eq!(trace.len(), 1000);
//! assert!(trace.average().iter().sum::<f64>() > 10.0); // tens of watts
//! ```

pub mod engine;
pub mod trace;
pub mod uarch;
pub mod workload;

pub use engine::SyntheticCpu;
pub use trace::PowerTrace;
pub use uarch::{LeakageModel, UnitClass, UnitSpec};
pub use workload::{Phase, Workload};
