//! Property-based tests on the core data structures and model invariants,
//! spanning all the workspace crates.

use m3d_sram::model2d::analyze_2d;
use m3d_sram::partition3d::{applicable, partition, Strategy as PartStrategy};
use m3d_sram::spec::ArraySpec;
use m3d_tech::layers::LayerStack;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::ProcessCorner;
use m3d_tech::via::ViaKind;
use m3d_thermal::floorplan::{Block, Floorplan};
use m3d_thermal::model::{ThermalConfig, ThermalModel};
use proptest::prelude::*;

/// A rows × cols grid of uniform blocks covering a square die of `area` m².
fn grid_floorplan(rows: usize, cols: usize, area_m2: f64) -> Floorplan {
    let side = area_m2.sqrt();
    let (bw, bh) = (side / cols as f64, side / rows as f64);
    let blocks = (0..rows)
        .flat_map(|r| {
            (0..cols).map(move |c| Block {
                name: format!("B{r}_{c}"),
                x_m: c as f64 * bw,
                y_m: r as f64 * bh,
                w_m: bw,
                h_m: bh,
            })
        })
        .collect();
    Floorplan {
        width_m: side,
        height_m: side,
        blocks,
    }
}

/// Deterministic uneven per-block powers summing to `total_w`.
fn skewed_powers(n_blocks: usize, total_w: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n_blocks).map(|i| 1.0 + (i % 5) as f64).collect();
    let sum: f64 = weights.iter().sum();
    weights.iter().map(|w| total_w * w / sum).collect()
}

fn arb_spec() -> impl proptest::strategy::Strategy<Value = ArraySpec> + Clone {
    ((16usize..=2048), (8usize..=256), (1usize..=8), (0usize..=4)).prop_map(
        |(words, bits, r, w)| {
            ArraySpec::ram(
                "prop",
                words.next_power_of_two(),
                bits.next_power_of_two(),
                r,
                w,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- m3d-sram -------------------------------------------------------

    #[test]
    fn sram_2d_metrics_are_finite_and_positive(spec in arb_spec()) {
        let node = TechnologyNode::n22();
        let a = analyze_2d(&spec, &node, ProcessCorner::bulk_hp());
        prop_assert!(a.metrics.access_s.is_finite() && a.metrics.access_s > 0.0);
        prop_assert!(a.metrics.energy_j.is_finite() && a.metrics.energy_j > 0.0);
        prop_assert!(a.metrics.footprint_um2.is_finite() && a.metrics.footprint_um2 > 0.0);
    }

    #[test]
    fn sram_m3d_partition_reduces_footprint(spec in arb_spec(), word in any::<bool>()) {
        let node = TechnologyNode::n22();
        let strategy = if word { PartStrategy::Word } else { PartStrategy::Bit };
        prop_assume!(applicable(&spec, strategy));
        let base = analyze_2d(&spec, &node, ProcessCorner::bulk_hp());
        let p = partition(&spec, &node, strategy, ViaKind::Miv);
        // Per-layer footprint must shrink (that is the point of folding),
        // and reductions can never exceed 100%.
        prop_assert!(p.metrics.footprint_um2 < base.metrics.footprint_um2);
        let r = p.metrics.reduction_vs(&base.metrics);
        prop_assert!(r.latency_pct <= 100.0 && r.energy_pct <= 100.0 && r.footprint_pct <= 100.0);
    }

    #[test]
    fn sram_bigger_arrays_never_get_faster(words in 32usize..512, bits in 16usize..128) {
        let node = TechnologyNode::n22();
        let small = ArraySpec::ram("s", words.next_power_of_two(), bits.next_power_of_two(), 1, 1);
        let large = ArraySpec::ram(
            "l",
            (words * 4).next_power_of_two(),
            (bits * 2).next_power_of_two(),
            1,
            1,
        );
        let a = analyze_2d(&small, &node, ProcessCorner::bulk_hp());
        let b = analyze_2d(&large, &node, ProcessCorner::bulk_hp());
        prop_assert!(b.metrics.footprint_um2 > a.metrics.footprint_um2);
        prop_assert!(b.metrics.access_s >= 0.8 * a.metrics.access_s);
    }

    // --- m3d-logic ------------------------------------------------------

    #[test]
    fn logic_partition_never_stretches_critical_path(
        width in 2usize..=16,
        penalty in 0.0f64..0.5,
    ) {
        let nl = m3d_logic::adder::carry_skip_adder(width.next_power_of_two().max(8), 4);
        let p = m3d_logic::partition::partition_hetero(&nl, penalty);
        prop_assert!(p.delay_ratio() <= 1.0 + 1e-9, "ratio {}", p.delay_ratio());
        prop_assert!((0.0..=1.0).contains(&p.top_fraction()));
    }

    #[test]
    fn logic_slack_is_nonnegative_at_nominal(entries in 4usize..=128) {
        let nl = m3d_logic::select::select_tree(entries, 4);
        let t = nl.timing();
        for (id, _) in nl.iter() {
            prop_assert!(t.slack(id) > -1e-9);
        }
    }

    // --- m3d-uarch cache ------------------------------------------------

    #[test]
    fn cache_hits_after_access_and_bounded_missrate(addrs in proptest::collection::vec(0u64..1u64 << 20, 1..200)) {
        let mut c = m3d_uarch::cache::Cache::new(m3d_uarch::config::CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
            rt_cycles: 1,
        });
        for &a in &addrs {
            let _ = c.access(a, false);
            // Immediately re-accessing the same address must hit.
            prop_assert!(c.access(a, false).is_hit());
        }
        prop_assert!(c.miss_rate() <= 1.0);
        prop_assert!(c.accesses >= c.misses);
    }

    // --- m3d-workloads --------------------------------------------------

    #[test]
    fn traces_are_deterministic_and_well_formed(seed in any::<u64>(), app in 0usize..21) {
        let p = &m3d_workloads::spec::spec2006()[app];
        let mut g1 = m3d_workloads::TraceGenerator::new(p, seed, 0, 1);
        let mut g2 = m3d_workloads::TraceGenerator::new(p, seed, 0, 1);
        for _ in 0..500 {
            let a = g1.next_op();
            let b = g2.next_op();
            prop_assert_eq!(a, b);
            if let Some(d) = a.dst {
                prop_assert!(d < 32);
            }
            for s in a.srcs.into_iter().flatten() {
                prop_assert!(s < 32);
            }
            if a.kind.is_mem() {
                prop_assert!(a.addr > 0);
            }
        }
    }

    // --- m3d-thermal ----------------------------------------------------

    #[test]
    fn thermal_monotone_in_power(p1 in 1.0f64..8.0, extra in 0.5f64..8.0) {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let cfg = ThermalConfig { nx: 12, ny: 12, ..Default::default() };
        let model = ThermalModel::new(&LayerStack::planar_2d(), std::slice::from_ref(&fp), &cfg)
            .expect("valid model");
        let run = |w: f64| model.solve(&[fp.uniform_power(w)]).expect("solve").0.peak_c;
        prop_assert!(run(p1 + extra) > run(p1));
    }

    #[test]
    fn thermal_warm_start_reaches_cold_start_field(
        rows in 1usize..4,
        cols in 1usize..4,
        w1 in 2.0f64..8.0,
        bump in 1.05f64..1.5,
    ) {
        // Warm-starting from a nearby field must land on the same steady
        // state as a cold start (the fixed point does not depend on the
        // initial guess), in no more iterations.
        let fp = grid_floorplan(rows, cols, 9.0e-6);
        let cfg = ThermalConfig { nx: 14, ny: 14, ..Default::default() };
        let model = ThermalModel::new(&LayerStack::planar_2d(), std::slice::from_ref(&fp), &cfg)
            .expect("valid model");
        let p1 = vec![skewed_powers(fp.blocks.len(), w1)];
        let p2 = vec![skewed_powers(fp.blocks.len(), w1 * bump)];
        let (first, _) = model.solve(&p1).expect("first solve");
        let (cold, cold_stats) = model.solve(&p2).expect("cold solve");
        let (warm, warm_stats) = model
            .solve_from(&p2, Some(&first))
            .expect("warm solve");
        prop_assert!(warm_stats.warm_start && !cold_stats.warm_start);
        prop_assert!(warm_stats.iterations <= cold_stats.iterations);
        for (lc, lw) in cold.layer_temps_c.iter().zip(&warm.layer_temps_c) {
            for (a, b) in lc.iter().zip(lw) {
                // Both runs stop within tolerance_k per sweep of the same
                // fixed point; allow a few tolerances of slack between them.
                prop_assert!((a - b).abs() <= 20.0 * cfg.tolerance_k, "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn thermal_steady_state_conserves_power(
        rows in 1usize..5,
        cols in 1usize..5,
        watts in 1.0f64..15.0,
    ) {
        // At steady state all injected power must exit through the sink's
        // convection boundary.
        let fp = grid_floorplan(rows, cols, 9.0e-6);
        let cfg = ThermalConfig { nx: 16, ny: 16, ..Default::default() };
        let model = ThermalModel::new(&LayerStack::planar_2d(), std::slice::from_ref(&fp), &cfg)
            .expect("valid model");
        let powers = vec![skewed_powers(fp.blocks.len(), watts)];
        let (sol, stats) = model.solve(&powers).expect("solve");
        prop_assert!(stats.converged);
        let g_amb = 1.0 / (cfg.convection_k_per_w * (cfg.nx * cfg.ny) as f64);
        let out_w: f64 = sol.layer_temps_c[0]
            .iter()
            .map(|t| g_amb * (t - cfg.ambient_c))
            .sum();
        prop_assert!(
            (out_w - watts).abs() / watts < 0.05,
            "in {} W vs out {} W", watts, out_w
        );
    }

    // --- m3d-power ------------------------------------------------------

    #[test]
    fn dvfs_curve_round_trips(v in 0.55f64..1.1) {
        let curve = m3d_power::dvfs::VfCurve::n22(3.3);
        let f = curve.frequency_at(v);
        let v2 = curve.voltage_for(f);
        prop_assert!((v - v2).abs() < 1e-4, "{v} vs {v2}");
    }

    #[test]
    fn via_area_scales_with_diameter(d1 in 0.5f64..3.0, scale in 1.1f64..3.0) {
        let mut a = m3d_tech::via::Via::tsv_aggressive();
        a.diameter_um = d1;
        let mut b = a.clone();
        b.diameter_um = d1 * scale;
        prop_assert!(b.occupied_area_um2() > a.occupied_area_um2());
    }
}
