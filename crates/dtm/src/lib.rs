//! Dynamic thermal management, on-chip sensing, IR cameras and power
//! reverse-engineering.
//!
//! Implements the architectural machinery of the paper's §5:
//!
//! * [`sensor`] — placed on-die thermal sensors with noise, quantization and
//!   a maximum sampling rate (§5.2–5.3);
//! * [`camera`] — an IR thermal camera model: finite frame rate and spatial
//!   blur, i.e. what the measurement rig *actually* records (§5.1's "IR
//!   could miss 3 ms emergencies");
//! * [`policy`] — threshold-triggered DTM with hysteresis, engagement
//!   duration and performance-penalty accounting (§5.1);
//! * [`placement`] — sensor-count/error trade-offs on a temperature field
//!   (§5.3–5.4);
//! * [`inversion`] — least-squares temperature→power reverse engineering,
//!   demonstrating the oil-flow-direction artifact (§5.4);
//! * [`closedloop`] — powersim → thermal → sensors → DTM feedback loop.

pub mod camera;
pub mod closedloop;
pub mod inversion;
pub mod placement;
pub mod policy;
pub mod sensor;
pub mod translate;

pub use camera::{FrameAccumulator, IrCamera};
pub use closedloop::{ClosedLoop, LoopReport};
pub use inversion::PowerInverter;
pub use policy::{DtmState, DtmStats, ThresholdDtm};
pub use sensor::{Sensor, SensorArray};
pub use translate::PackageTranslator;
