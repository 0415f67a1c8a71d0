//! Chip floorplans for thermal simulation.
//!
//! A [`Floorplan`] is a validated collection of named rectangular [`Block`]s
//! covering a silicon die. Floorplans are consumed by the `hotiron-thermal`
//! compact model and the `hotiron-refsim` reference solver, both of which
//! discretize the die onto a regular grid; the [`grid`] module provides the
//! block-to-cell coverage mapping that makes per-block power injection and
//! per-block temperature read-out exact.
//!
//! Two well-known floorplans used by the ISPASS'09 paper are built in:
//!
//! * [`library::ev6`] — an Alpha EV6 (21264)-class core with an L2 wrapper,
//!   the floorplan used for the paper's Figs 6, 8, 9, 10, 11 and 12.
//! * [`library::athlon64`] — an AMD Athlon64-class die matching the block
//!   list of the paper's Figs 4 and 5.
//!
//! # Examples
//!
//! ```
//! use hotiron_floorplan::library;
//!
//! let plan = library::ev6();
//! assert!(plan.block("IntReg").is_some());
//! // The EV6 die is 16 mm x 16 mm.
//! assert!((plan.width() - 0.016).abs() < 1e-12);
//! ```

pub mod block;
pub mod error;
pub mod grid;
pub mod library;
pub mod plan;

pub use block::Block;
pub use error::FloorplanError;
pub use grid::GridMapping;
pub use plan::Floorplan;
