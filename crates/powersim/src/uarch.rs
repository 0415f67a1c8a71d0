//! Microarchitectural unit power descriptors (the Wattch role).

use hotiron_floorplan::Floorplan;
use std::fmt;

/// A unit-spec set does not line up with the target floorplan.
///
/// Returned instead of panicking so a unit/floorplan mismatch is a
/// reportable failure under the experiment fan-out runner rather than a
/// crashed worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UarchError {
    /// A unit names a block the floorplan does not have.
    MissingBlock(String),
    /// Two units name the same block.
    DuplicateUnit(String),
    /// The number of units differs from the number of blocks; fields are
    /// `(units, blocks)`.
    CountMismatch(usize, usize),
}

impl fmt::Display for UarchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingBlock(name) => write!(f, "floorplan lacks block `{name}`"),
            Self::DuplicateUnit(name) => write!(f, "duplicate unit spec for `{name}`"),
            Self::CountMismatch(units, blocks) => {
                write!(f, "{units} unit specs for {blocks} floorplan blocks")
            }
        }
    }
}

impl std::error::Error for UarchError {}

/// Functional class of a unit; workload phases set one activity level per
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// Instruction fetch, I-cache, branch prediction, ITB.
    Fetch,
    /// Rename/map and issue queues.
    Schedule,
    /// Integer execution and register file.
    IntExec,
    /// Floating-point execution, registers, queues.
    FpExec,
    /// Load/store queue, D-cache, DTB.
    LoadStore,
    /// L2 cache.
    L2,
    /// Clock distribution (activity ≈ 1 whenever not gated).
    Clock,
    /// Pads, controllers, I/O: weak activity coupling.
    Other,
    /// Blank silicon: leakage only.
    Blank,
}

/// One functional unit's power model: `P = leakage + activity x peak_dynamic`.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSpec {
    /// Block name (must exist in the floorplan).
    pub name: String,
    /// Functional class.
    pub class: UnitClass,
    /// Peak dynamic power at activity 1.0, W.
    pub peak_dynamic: f64,
    /// Leakage at the reference temperature, W.
    pub leakage: f64,
}

impl UnitSpec {
    /// Creates a unit spec.
    ///
    /// # Panics
    ///
    /// Panics if powers are negative or non-finite.
    pub fn new(name: impl Into<String>, class: UnitClass, peak_dynamic: f64, leakage: f64) -> Self {
        assert!(peak_dynamic.is_finite() && peak_dynamic >= 0.0, "peak dynamic must be >= 0");
        assert!(leakage.is_finite() && leakage >= 0.0, "leakage must be >= 0");
        Self { name: name.into(), class, peak_dynamic, leakage }
    }
}

/// Exponential temperature dependence of leakage,
/// `L(T) = L(T_ref) · exp(β·(T − T_ref))` — the feedback loop the paper's
/// §6 lists as a complication for reconciling packages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Exponential sensitivity, 1/K (≈0.02–0.04 for 90–130 nm nodes).
    pub beta: f64,
    /// Reference temperature, K.
    pub t_ref: f64,
}

impl LeakageModel {
    /// A 130 nm-class model: β = 0.025/K around 60 °C.
    pub fn node_130nm() -> Self {
        Self { beta: 0.025, t_ref: 333.15 }
    }

    /// Leakage multiplier at temperature `t` kelvin.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = hotiron_powersim::LeakageModel::node_130nm();
    /// assert!((m.factor(333.15) - 1.0).abs() < 1e-12);
    /// assert!(m.factor(353.15) > 1.5); // +20 K → >1.5x leakage
    /// ```
    pub fn factor(&self, t: f64) -> f64 {
        (self.beta * (t - self.t_ref)).exp()
    }
}

fn unit(name: &str, class: UnitClass, peak: f64, leak: f64) -> UnitSpec {
    UnitSpec::new(name, class, peak, leak)
}

/// EV6-class unit power model matched to [`hotiron_floorplan::library::ev6`].
///
/// Average powers under the `gcc` workload land near the block averages the
/// HotSpot/Wattch literature reports for the EV6: integer cluster dominant,
/// FP cluster nearly idle, ~40–50 W total.
///
/// # Errors
///
/// Returns [`UarchError`] if the floorplan lacks any of the expected EV6
/// block names.
pub fn ev6_units(plan: &Floorplan) -> Result<Vec<UnitSpec>, UarchError> {
    // Peaks back-calculated so gcc-average *power densities* land in the
    // Fig 11 ordering: IntReg > IntExec > LdStQ > Dcache ≈ Bpred ≈ IntQ,
    // with IntReg only ~1.4x Dcache — tight enough that a top-to-bottom
    // oil flow (which cools the top-edge IntReg best) flips the hot spot
    // to Dcache, exactly as the paper's Fig 11 reports.
    let units = vec![
        unit("L2", UnitClass::L2, 12.5, 2.2),
        unit("L2_left", UnitClass::L2, 2.0, 0.5),
        unit("L2_right", UnitClass::L2, 2.0, 0.5),
        unit("Icache", UnitClass::Fetch, 7.7, 0.6),
        unit("Dcache", UnitClass::LoadStore, 14.5, 0.7),
        unit("Bpred", UnitClass::Fetch, 1.65, 0.15),
        unit("DTB", UnitClass::LoadStore, 0.6, 0.05),
        unit("FPAdd", UnitClass::FpExec, 2.0, 0.15),
        unit("FPReg", UnitClass::FpExec, 1.2, 0.1),
        unit("FPMul", UnitClass::FpExec, 1.8, 0.12),
        unit("FPMap", UnitClass::FpExec, 1.0, 0.09),
        unit("IntMap", UnitClass::Schedule, 1.7, 0.1),
        unit("IntQ", UnitClass::Schedule, 0.45, 0.05),
        unit("ITB", UnitClass::Fetch, 0.95, 0.08),
        unit("IntReg", UnitClass::IntExec, 3.8, 0.25),
        unit("IntExec", UnitClass::IntExec, 4.1, 0.3),
        unit("FPQ", UnitClass::FpExec, 1.0, 0.08),
        unit("LdStQ", UnitClass::LoadStore, 3.8, 0.15),
    ];
    align_to_plan(plan, units)
}

/// Athlon64-class unit power model matched to
/// [`hotiron_floorplan::library::athlon64`], calibrated so the scheduler is
/// the hot spot under OIL-SILICON (the paper's Fig 4: ~73 °C at `sched`,
/// ~45 °C at the coolest covered block).
///
/// # Errors
///
/// Returns [`UarchError`] if the floorplan lacks any of the expected
/// Athlon64 block names.
pub fn athlon64_units(plan: &Floorplan) -> Result<Vec<UnitSpec>, UarchError> {
    let units = vec![
        unit("blank1", UnitClass::Blank, 0.0, 0.02),
        unit("blank2", UnitClass::Blank, 0.0, 0.02),
        unit("blank3", UnitClass::Blank, 0.0, 0.02),
        unit("blank4", UnitClass::Blank, 0.0, 0.02),
        unit("mem_ctl", UnitClass::Other, 1.12, 0.12),
        unit("clock", UnitClass::Clock, 1.36, 0.12),
        unit("l2cache", UnitClass::L2, 3.6, 0.8),
        unit("fetch", UnitClass::Fetch, 1.6, 0.12),
        unit("rob_irf", UnitClass::Schedule, 2.0, 0.14),
        unit("sched", UnitClass::Schedule, 3.68, 0.16),
        unit("clockd1", UnitClass::Clock, 0.44, 0.04),
        unit("clockd2", UnitClass::Clock, 0.44, 0.04),
        unit("clockd3", UnitClass::Clock, 0.44, 0.04),
        unit("lsq", UnitClass::LoadStore, 1.12, 0.08),
        unit("dtlb", UnitClass::LoadStore, 0.52, 0.04),
        unit("fp_sched", UnitClass::FpExec, 0.72, 0.048),
        unit("frf", UnitClass::FpExec, 0.68, 0.048),
        unit("sse", UnitClass::FpExec, 0.96, 0.06),
        unit("l1i", UnitClass::Fetch, 1.76, 0.16),
        unit("bus_etc", UnitClass::Other, 0.72, 0.1),
        unit("l1d", UnitClass::LoadStore, 2.24, 0.18),
        unit("fp0", UnitClass::FpExec, 1.12, 0.072),
    ];
    align_to_plan(plan, units)
}

/// Reorders `units` into the floorplan's block order so trace samples align
/// with [`hotiron_floorplan::Floorplan`] indices.
///
/// # Errors
///
/// [`UarchError::CountMismatch`] when the spec count differs from the block
/// count, [`UarchError::MissingBlock`] for a unit naming no block, and
/// [`UarchError::DuplicateUnit`] when two specs name the same block.
pub fn align_to_plan(plan: &Floorplan, units: Vec<UnitSpec>) -> Result<Vec<UnitSpec>, UarchError> {
    if plan.len() != units.len() {
        return Err(UarchError::CountMismatch(units.len(), plan.len()));
    }
    let mut slots: Vec<Option<UnitSpec>> = vec![None; plan.len()];
    for u in units {
        let i =
            plan.block_index(&u.name).ok_or_else(|| UarchError::MissingBlock(u.name.clone()))?;
        if slots[i].is_some() {
            return Err(UarchError::DuplicateUnit(u.name));
        }
        slots[i] = Some(u);
    }
    // Count + no-duplicates implies every slot is filled.
    Ok(slots.into_iter().map(|s| s.expect("every block has a unit spec")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotiron_floorplan::library;

    #[test]
    fn ev6_units_cover_floorplan() {
        let plan = library::ev6();
        let units = ev6_units(&plan).expect("ev6 units align to the ev6 floorplan");
        assert_eq!(units.len(), plan.len());
        // At gcc-like activity levels, IntReg has the highest power
        // density: the Fig 10-12 hot spot.
        let activity = |c: UnitClass| match c {
            UnitClass::IntExec => 0.95,
            UnitClass::Schedule => 0.9,
            UnitClass::Fetch => 0.85,
            UnitClass::LoadStore => 0.8,
            UnitClass::L2 => 0.25,
            UnitClass::Clock => 1.0,
            UnitClass::FpExec => 0.04,
            UnitClass::Other => 0.3,
            UnitClass::Blank => 0.0,
        };
        let density = |name: &str| {
            let u = units.iter().find(|u| u.name == name).unwrap();
            let b = plan.block(name).unwrap();
            (u.leakage + u.peak_dynamic * activity(u.class)) / b.area()
        };
        let d_intreg = density("IntReg");
        for b in plan.iter() {
            if b.name() != "IntReg" {
                assert!(density(b.name()) <= d_intreg, "{} density exceeds IntReg", b.name());
            }
        }
    }

    #[test]
    fn athlon_units_cover_floorplan() {
        let plan = library::athlon64();
        let units = athlon64_units(&plan).expect("athlon64 units align to the athlon64 floorplan");
        assert_eq!(units.len(), plan.len());
        // sched carries the highest density (Fig 4's hot spot).
        let sched = units.iter().find(|u| u.name == "sched").unwrap();
        let a = plan.block("sched").unwrap().area();
        let d_sched = (sched.peak_dynamic + sched.leakage) / a;
        for u in &units {
            let b = plan.block(&u.name).unwrap();
            assert!(
                (u.peak_dynamic + u.leakage) / b.area() <= d_sched + 1e-9,
                "{} density exceeds sched",
                u.name
            );
        }
    }

    #[test]
    fn leakage_model_monotonic() {
        let m = LeakageModel::node_130nm();
        assert!(m.factor(340.0) > m.factor(330.0));
        assert!(m.factor(m.t_ref) == 1.0);
    }

    #[test]
    fn mismatched_floorplan_rejected() {
        let plan = library::athlon64();
        let err = ev6_units(&plan).expect_err("ev6 units cannot align to the athlon64 floorplan");
        assert!(
            matches!(err, UarchError::CountMismatch(..) | UarchError::MissingBlock(_)),
            "unexpected error: {err}"
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn duplicate_unit_rejected() {
        let plan = library::ev6();
        let mut units = ev6_units(&plan).expect("ev6 units align to the ev6 floorplan");
        let dup = units[0].clone();
        let last = units.len() - 1;
        units[last] = dup;
        let err = align_to_plan(&plan, units).expect_err("duplicate spec must be rejected");
        assert!(matches!(err, UarchError::DuplicateUnit(_)), "unexpected error: {err}");
    }
}
