//! # hotiron
//!
//! A reproduction of Huang et al., *"Differentiating the Roles of IR
//! Measurement and Simulation for Power and Temperature-Aware Design"*
//! (ISPASS 2009), as a production-quality Rust workspace.
//!
//! The paper's question: an IR thermal camera needs the heatsink removed and
//! an IR-transparent oil flowed over the bare die (**OIL-SILICON**) — how
//! does that rig's thermal behavior differ from the real package
//! (**AIR-SINK**), and what does the difference do to DTM design, sensor
//! placement, and power reverse-engineering?
//!
//! This crate re-exports the five sub-crates:
//!
//! | crate | role |
//! |---|---|
//! | [`floorplan`] | die floorplans (EV6, Athlon64), grid mapping |
//! | [`thermal`] | the modified HotSpot: RC model, oil flow, secondary path, solvers |
//! | [`refsim`] | independent fine-grid 3-D finite-volume solver (the ANSYS stand-in) |
//! | [`powersim`] | synthetic SimpleScalar/Wattch power traces |
//! | [`dtm`] | sensors, IR camera, threshold DTM, placement, power inversion |
//!
//! # Quick start
//!
//! ```
//! use hotiron::prelude::*;
//!
//! let plan = library::ev6();
//! let model = ThermalModel::new(
//!     plan.clone(),
//!     Package::OilSilicon(OilSiliconPackage::paper_default()),
//!     ModelConfig::paper_default().with_grid(16, 16),
//! )?;
//! let power = PowerMap::from_pairs(&plan, [("IntReg", 2.0)])?;
//! let sol = model.steady_state(&power)?;
//! assert_eq!(sol.hottest_block().0, "IntReg");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use hotiron_dtm as dtm;
pub use hotiron_floorplan as floorplan;
pub use hotiron_powersim as powersim;
pub use hotiron_refsim as refsim;
pub use hotiron_thermal as thermal;

/// The most common imports in one place.
pub mod prelude {
    pub use hotiron_dtm::{
        ClosedLoop, IrCamera, PackageTranslator, PowerInverter, Sensor, SensorArray, ThresholdDtm,
    };
    pub use hotiron_floorplan::{library, Block, Floorplan, GridMapping};
    pub use hotiron_powersim::{
        engine::SyntheticCpu, trace::PowerTrace, uarch, workload, LeakageModel,
    };
    pub use hotiron_refsim::{OilModel, RefSim, RefSimConfig};
    pub use hotiron_thermal::{
        units, AirSinkPackage, FlowDirection, LaminarFlow, ModelConfig, OilSiliconPackage, Package,
        PowerMap, SecondaryPath, Solution, ThermalModel,
    };
}
