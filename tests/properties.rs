//! Property-based tests of the core invariants, spanning crates.

use hotiron::prelude::*;
use hotiron::thermal::cholesky::LdlFactor;
use hotiron::thermal::sparse::TripletMatrix;
use proptest::prelude::*;

/// A random tiling floorplan: an n x m grid of blocks with random row/col
/// spans drawn from cut points, guaranteeing exact cover and no overlap.
fn tiling_floorplan(cuts_x: Vec<f64>, cuts_y: Vec<f64>) -> Floorplan {
    let mut xs = vec![0.0];
    xs.extend(cuts_x);
    xs.push(1.0);
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut ys = vec![0.0];
    ys.extend(cuts_y);
    ys.push(1.0);
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    let scale = 0.016;
    let mut blocks = Vec::new();
    for i in 0..xs.len() - 1 {
        for j in 0..ys.len() - 1 {
            let w = (xs[i + 1] - xs[i]) * scale;
            let h = (ys[j + 1] - ys[j]) * scale;
            if w > 1e-6 && h > 1e-6 {
                blocks.push(Block::new(format!("b{i}_{j}"), w, h, xs[i] * scale, ys[j] * scale));
            }
        }
    }
    Floorplan::new(blocks).expect("tiling is valid")
}

prop_compose! {
    fn arb_cuts()(v in proptest::collection::vec(0.05f64..0.95, 0..4)) -> Vec<f64> {
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spreading block power over grid cells conserves total power for any
    /// tiling floorplan and any grid resolution.
    #[test]
    fn grid_mapping_conserves_power(
        cx in arb_cuts(),
        cy in arb_cuts(),
        rows in 2usize..24,
        cols in 2usize..24,
        scale in 0.1f64..10.0,
    ) {
        let plan = tiling_floorplan(cx, cy);
        let mapping = GridMapping::new(&plan, rows, cols);
        let powers: Vec<f64> = (0..plan.len()).map(|i| scale * (i as f64 + 1.0)).collect();
        let cells = mapping.spread_block_values(&powers);
        let total: f64 = cells.iter().sum();
        let expect: f64 = powers.iter().sum();
        prop_assert!((total - expect).abs() < 1e-9 * expect.max(1.0));
        // Every cell of a full tiling is covered: spreading each block's
        // own area fills every cell with exactly one cell area.
        let areas: Vec<f64> = plan.iter().map(|b| b.area()).collect();
        for (c, a) in mapping.spread_block_values(&areas).into_iter().enumerate() {
            prop_assert!((a / mapping.cell_area() - 1.0).abs() < 1e-6, "cell {c} covered {a}");
        }
    }

    /// Steady state: heat out equals heat in, for random power splits and
    /// both package families.
    #[test]
    fn steady_energy_balance(
        p_core in 0.5f64..8.0,
        p_cache in 0.0f64..12.0,
        air in proptest::bool::ANY,
    ) {
        let plan = library::ev6();
        let pkg = if air {
            Package::AirSink(AirSinkPackage::paper_default())
        } else {
            Package::OilSilicon(OilSiliconPackage::paper_default())
        };
        let model = ThermalModel::new(
            plan.clone(),
            pkg,
            ModelConfig::paper_default().with_grid(8, 8),
        ).expect("model");
        let power = PowerMap::from_pairs(&plan, [("IntReg", p_core), ("L2", p_cache)])
            .expect("power");
        let sol = model.steady_state(&power).expect("steady");
        let amb = model.ambient();
        let q_out: f64 = sol
            .state()
            .iter()
            .zip(model.circuit().ambient_conductance())
            .map(|(t, g)| g * (t - amb))
            .sum();
        let q_in = power.total();
        prop_assert!((q_out - q_in).abs() < 1e-4 * q_in.max(1.0),
            "in {q_in} vs out {q_out}");
    }

    /// The steady-state operator is linear: solution(a+b) = solution(a) +
    /// solution(b) - ambient offset.
    #[test]
    fn steady_state_superposition(pa in 0.5f64..5.0, pb in 0.5f64..5.0) {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            ModelConfig::paper_default().with_grid(8, 8),
        ).expect("model");
        let map_a = PowerMap::from_pairs(&plan, [("IntReg", pa)]).expect("a");
        let map_b = PowerMap::from_pairs(&plan, [("Dcache", pb)]).expect("b");
        let map_ab = PowerMap::from_pairs(&plan, [("IntReg", pa), ("Dcache", pb)]).expect("ab");
        let sa = model.steady_state(&map_a).expect("steady a");
        let sb = model.steady_state(&map_b).expect("steady b");
        let sab = model.steady_state(&map_ab).expect("steady ab");
        let amb = 45.0;
        for name in ["IntReg", "Dcache", "L2", "FPMap"] {
            let lhs = sab.block(name) - amb;
            let rhs = (sa.block(name) - amb) + (sb.block(name) - amb);
            prop_assert!((lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0),
                "{name}: {lhs} vs {rhs}");
        }
    }

    /// Monotonicity: scaling all powers up heats every block.
    #[test]
    fn more_power_is_hotter_everywhere(base in 0.5f64..4.0, factor in 1.1f64..3.0) {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            ModelConfig::paper_default().with_grid(8, 8),
        ).expect("model");
        let p1 = PowerMap::from_pairs(&plan, [("IntReg", base), ("L2", base)]).expect("p1");
        let p2 = p1.scaled(factor);
        let s1 = model.steady_state(&p1).expect("steady 1");
        let s2 = model.steady_state(&p2).expect("steady 2");
        for (a, b) in s1.block_celsius().iter().zip(s2.block_celsius()) {
            prop_assert!(b >= *a - 1e-9);
        }
    }

    /// Transient solutions stay within physical bounds: never below ambient
    /// under heating from ambient, never above the steady state of the same
    /// power (for monotone step inputs).
    #[test]
    fn transient_bounded_by_steady(p in 1.0f64..10.0, steps in 2usize..12) {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            ModelConfig::paper_default().with_grid(8, 8),
        ).expect("model");
        let power = PowerMap::from_pairs(&plan, [("Icache", p)]).expect("power");
        let steady = model.steady_state(&power).expect("steady");
        let mut sim = model.transient(0.02);
        for _ in 0..steps {
            sim.run(&power, 0.02).expect("step");
            let sol = sim.solution();
            prop_assert!(sol.min_celsius() >= 45.0 - 1e-6);
            prop_assert!(sol.max_celsius() <= steady.max_celsius() + 1e-3);
        }
    }

    /// The sparse LDLᵀ factorization round-trips `A·x` for random SPD RC
    /// networks: every node is grounded (strict diagonal dominance, hence
    /// positive definite), edges form a ring plus pseudo-random chords.
    #[test]
    fn ldlt_roundtrips_spd_rc_networks(
        n in 3usize..32,
        edge_g in proptest::collection::vec(0.05f64..20.0, 64..65),
        ground_g in proptest::collection::vec(0.01f64..5.0, 32..33),
        x_vals in proptest::collection::vec(-10.0f64..10.0, 32..33),
    ) {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.stamp_grounded_conductance(i, ground_g[i]);
            t.stamp_conductance(i, (i + 1) % n, edge_g[i]);
        }
        // Pseudo-random chords from the remaining conductance values.
        for (k, &g) in edge_g[n..].iter().enumerate() {
            let a = (k * 5 + 1) % n;
            let b = (k * 11 + 3) % n;
            if a != b {
                t.stamp_conductance(a, b, g);
            }
        }
        let a = t.to_csr();
        let f = LdlFactor::factor(&a).expect("grounded RC network is SPD");
        let x: Vec<f64> = x_vals[..n].to_vec();
        let b = a.mul_vec(&x);
        let x_rec = f.solve(&b);
        for (orig, rec) in x.iter().zip(&x_rec) {
            prop_assert!((orig - rec).abs() < 1e-8, "{orig} vs {rec}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Rotation invariance of the whole model: rotating the floorplan 90°
    /// CCW while rotating the flow direction the same way must leave every
    /// block temperature unchanged (square grid).
    #[test]
    fn oil_model_is_rotation_invariant(p_int in 1.0f64..5.0, p_d in 1.0f64..6.0) {
        use FlowDirection::*;
        let plan = library::ev6();
        let rotated = plan.rotated_90();
        let power = PowerMap::from_pairs(&plan, [("IntReg", p_int), ("Dcache", p_d)])
            .expect("power");
        let rotated_power =
            PowerMap::from_pairs(&rotated, [("IntReg", p_int), ("Dcache", p_d)]).expect("power");
        // LeftToRight rotates (CCW) into BottomToTop.
        for (dir, rdir) in [(LeftToRight, BottomToTop), (TopToBottom, LeftToRight)] {
            let m1 = ThermalModel::new(
                plan.clone(),
                Package::OilSilicon(OilSiliconPackage::paper_default().with_direction(dir)),
                ModelConfig::paper_default().with_grid(12, 12),
            ).expect("model");
            let m2 = ThermalModel::new(
                rotated.clone(),
                Package::OilSilicon(OilSiliconPackage::paper_default().with_direction(rdir)),
                ModelConfig::paper_default().with_grid(12, 12),
            ).expect("model");
            let t1 = m1.steady_state(&power).expect("steady");
            let t2 = m2.steady_state(&rotated_power).expect("steady");
            for name in ["IntReg", "Dcache", "L2", "FPMap", "Icache"] {
                let (a, b) = (t1.block(name), t2.block(name));
                prop_assert!((a - b).abs() < 1e-6, "{name} under {dir:?}: {a} vs {b}");
            }
        }
    }
}
