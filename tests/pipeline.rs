//! Cross-crate pipeline tests: powersim → thermal → dtm, and thermal ↔
//! refsim consistency, exercised through the public `hotiron` API.

use hotiron::dtm::placement;
use hotiron::prelude::*;

#[test]
fn full_closed_loop_pipeline_runs() {
    let plan = library::ev6();
    let model = ThermalModel::new(
        plan.clone(),
        Package::AirSink(AirSinkPackage::paper_default().with_r_convec(0.3)),
        ModelConfig::paper_default().with_grid(8, 8),
    )
    .expect("model");
    let cpu = SyntheticCpu::new(
        uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
        workload::gcc(),
        5,
    );
    let sensors = SensorArray::uniform_grid(4, plan.width(), plan.height(), 9);
    let dtm = ThresholdDtm::new(90.0, 88.0, 0.5, 3e-3);
    let mut cl = ClosedLoop::new(&model, cpu, sensors, dtm);
    let report = cl.run(600).expect("loop runs");
    assert_eq!(report.times.len(), 600);
    assert!(report.true_max.iter().all(|t| *t > 45.0 && *t < 200.0));
}

#[test]
fn compact_and_refsim_agree_on_uniform_die() {
    // The Fig 2 scenario at coarse resolution through the public API.
    let plan = library::uniform_die(0.02, 0.02);
    let model = ThermalModel::new(
        plan.clone(),
        Package::OilSilicon(OilSiliconPackage::paper_default()),
        ModelConfig::paper_default().with_grid(16, 16),
    )
    .expect("model");
    let power = PowerMap::from_pairs(&plan, [("die", 200.0)]).expect("power");
    let compact = model.steady_state(&power).expect("steady");

    let sim = RefSim::new(RefSimConfig::paper_validation().with_grid(16, 16, 3, 4));
    let field = sim.solve_steady(&sim.uniform_power(200.0), 30_000);

    let compact_mean = compact.average_celsius() + 273.15;
    let rel = (compact_mean - field.mean()).abs() / (field.mean() - 318.15);
    assert!(rel < 0.25, "mean steady temperatures differ by {rel:.3}");
}

#[test]
fn ir_workflow_camera_blurs_and_inversion_recovers() {
    // A miniature end-to-end IR study: simulate, image, invert.
    let plan = library::multicore(2, 2, 0.016, 0.016);
    let model = ThermalModel::new(
        plan.clone(),
        Package::OilSilicon(OilSiliconPackage::paper_default()),
        ModelConfig::paper_default().with_grid(12, 12),
    )
    .expect("model");
    let truth = PowerMap::from_vec(&plan, vec![3.0, 5.0, 4.0, 2.0]);
    let sol = model.steady_state(&truth).expect("steady");

    // Image through the camera: blur must not destroy the inversion badly.
    let cam = IrCamera::new(1.0 / 30.0, 0.2e-3);
    let m = model.mapping();
    let frame = cam.capture(&sol.celsius_grid(), 12, 12, m.cell_width(), m.cell_height());
    let observed_kelvin: Vec<f64> = frame.iter().map(|c| c + 273.15).collect();

    let inv = PowerInverter::new(&model).expect("basis");
    let est = inv.invert(&observed_kelvin).expect("inversion");
    let est_total: f64 = est.iter().sum();
    assert!((est_total - truth.total()).abs() < 0.1 * truth.total(), "total power {est_total}");
    // Ranking preserved despite blur.
    let max_i = est.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("cores").0;
    assert_eq!(max_i, 1, "hottest-core identification survives the optics: {est:?}");
}

#[test]
fn sensor_budget_depends_on_package() {
    let plan = library::ev6();
    let cpu = SyntheticCpu::new(
        uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
        workload::gcc(),
        42,
    );
    let power = PowerMap::from_vec(&plan, cpu.simulate(4_000).average());
    let cfg = ModelConfig::paper_default().with_grid(16, 16);
    let air =
        ThermalModel::new(plan.clone(), Package::AirSink(AirSinkPackage::paper_default()), cfg)
            .expect("model");
    let oil = ThermalModel::new(
        plan.clone(),
        Package::OilSilicon(OilSiliconPackage::paper_default()),
        cfg,
    )
    .expect("model");
    let sa = air.steady_state(&power).expect("steady");
    let so = oil.steady_state(&power).expect("steady");
    for m in [2usize, 4] {
        let ea = placement::grid_under_read(&sa, m, plan.width(), plan.height());
        let eo = placement::grid_under_read(&so, m, plan.width(), plan.height());
        assert!(eo >= ea - 0.05, "m={m}: oil {eo} vs air {ea}");
    }
}

#[test]
fn compact_air_sink_agrees_with_stack_refsim() {
    // Independent validation of the AIR-SINK package path (our extension
    // beyond the paper's oil-only ANSYS check): a resolved 3-D stack with
    // masked plate extents vs the compact ring-node model.
    use hotiron::refsim::{StackSim, StackSimConfig};
    let plan = library::uniform_die(0.02, 0.02);
    let model = ThermalModel::new(
        plan.clone(),
        Package::AirSink(AirSinkPackage::paper_default().with_r_convec(1.0)),
        ModelConfig::paper_default().with_grid(16, 16),
    )
    .expect("model");
    let power = PowerMap::from_pairs(&plan, [("die", 50.0)]).expect("power");
    let compact = model.steady_state(&power).expect("steady");

    let sim = StackSim::new(StackSimConfig::air_sink_validation(1.0));
    let p = sim.uniform_die_power(50.0);
    let (ref_mean, ref_max) = sim.solve_steady(&p, 30_000);

    let compact_mean = compact.average_celsius() + 273.15;
    let rel = (compact_mean - ref_mean).abs() / (ref_mean - 318.15);
    assert!(rel < 0.10, "mean rise mismatch {rel:.3}: {compact_mean} vs {ref_mean}");
    let compact_max = compact.max_celsius() + 273.15;
    let rel_max = (compact_max - ref_max).abs() / (ref_max - 318.15);
    assert!(rel_max < 0.12, "max rise mismatch {rel_max:.3}");
}

#[test]
fn grid_model_reproduces_flow_direction_ordering() {
    // The grid model reproduces the Fig 11 directional ordering of IntReg
    // that the paper shows.
    let plan = library::ev6();
    let cpu = SyntheticCpu::new(
        uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
        workload::gcc(),
        42,
    );
    let power = PowerMap::from_vec(&plan, cpu.simulate(4_000).average());
    let grid_t = |dir| {
        let m = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default().with_direction(dir)),
            ModelConfig::paper_default().with_grid(16, 16),
        )
        .unwrap();
        m.steady_state(&power).unwrap().block("IntReg")
    };
    use FlowDirection::*;
    for (a, b) in
        [(BottomToTop, LeftToRight), (LeftToRight, RightToLeft), (RightToLeft, TopToBottom)]
    {
        assert!(grid_t(a) > grid_t(b), "grid model: {a:?} hotter than {b:?}");
    }
}
