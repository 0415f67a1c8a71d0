//! Error paths of the microarchitecture layer: every rejected input must
//! produce a `UarchError` that names the offending unit, so a broken
//! workload description is diagnosable from the experiment runner's failure
//! line alone.

use hotiron_floorplan::library;
use hotiron_powersim::uarch::{athlon64_units, ev6_units, UarchError, UnitClass, UnitSpec};

#[test]
fn uarch_errors_name_the_offending_unit() {
    let ev6 = library::ev6();
    let athlon = library::athlon64();

    // Cross-floorplan misuse must fail loudly in either direction (the
    // count check fires first when the block counts differ).
    assert!(ev6_units(&athlon).is_err(), "EV6 units on an Athlon plan");
    assert!(athlon64_units(&ev6).is_err(), "Athlon units on an EV6 plan");

    // A unit naming a block the plan lacks: the message carries the name.
    let mut units = ev6_units(&ev6).expect("matching floorplan");
    units[0].name = "IntRogue".to_owned();
    let err = hotiron_powersim::uarch::align_to_plan(&ev6, units)
        .expect_err("unknown unit name must be rejected");
    assert_eq!(err, UarchError::MissingBlock("IntRogue".to_owned()));
    assert_eq!(err.to_string(), "floorplan lacks block `IntRogue`");

    // Count mismatch reports both sizes.
    let one = vec![UnitSpec::new("IntReg", UnitClass::IntExec, 1.0, 0.1)];
    let err = hotiron_powersim::uarch::align_to_plan(&ev6, one).expect_err("count mismatch");
    assert_eq!(err, UarchError::CountMismatch(1, ev6.len()));
    assert_eq!(err.to_string(), format!("1 unit specs for {} floorplan blocks", ev6.len()));

    // Duplicate unit names are rejected before any mapping happens.
    let dupes: Vec<UnitSpec> =
        (0..ev6.len()).map(|_| UnitSpec::new("IntReg", UnitClass::IntExec, 1.0, 0.1)).collect();
    let err = hotiron_powersim::uarch::align_to_plan(&ev6, dupes).expect_err("duplicates");
    assert_eq!(err, UarchError::DuplicateUnit("IntReg".to_owned()));
}
