//! Cross-crate integration tests: the full pipeline from technology
//! parameters through partition planning, cycle-level simulation, energy
//! accounting, and thermal solving.

use m3d_core::configs::{DesignPoint, MulticoreDesign};
use m3d_core::planner::DesignSpace;
use m3d_power::model::CorePowerModel;
use m3d_sram::partition3d::Strategy;
use m3d_sram::structures::StructureId;
use m3d_tech::layers::LayerStack;
use m3d_thermal::floorplan::Floorplan;
use m3d_thermal::solver::{solve, LayerPower, ThermalConfig};
use m3d_uarch::multicore::Multicore;
use m3d_workloads::parallel::parallel_by_name;
use m3d_workloads::spec::spec_by_name;
use std::sync::OnceLock;

fn space() -> &'static DesignSpace {
    static S: OnceLock<DesignSpace> = OnceLock::new();
    S.get_or_init(DesignSpace::compute)
}

#[test]
fn planner_to_frequency_to_simulation_to_energy() {
    // Planner: the RF is port-partitioned (paper Table 6 headline).
    let s = space();
    assert_eq!(s.iso_of(StructureId::Rf).strategy, Strategy::Port);

    // Frequencies: derived values track Table 11 within 15%.
    let f_iso = DesignPoint::M3dIso.derived_frequency_ghz(s);
    assert!((f_iso - 3.83).abs() / 3.83 < 0.15, "iso {f_iso}");

    // Simulate one app under Base and M3D-Het and account the energy.
    let model = CorePowerModel::new_22nm();
    let mut results = Vec::new();
    for d in [DesignPoint::Base, DesignPoint::M3dHet] {
        let p = spec_by_name("Gobmk").expect("profile");
        let mut core = Multicore::new(d.core_config(), &p, 5, 1);
        let _ = core.run(40_000);
        let r = core.run(60_000);
        let e = model.energy(&r, &d.power_config(s));
        results.push((r, e));
    }
    let (base_r, base_e) = &results[0];
    let (het_r, het_e) = &results[1];
    assert!(
        het_r.speedup_over(base_r) > 1.05,
        "M3D-Het speedup {}",
        het_r.speedup_over(base_r)
    );
    assert!(
        het_e.total_j() < 0.85 * base_e.total_j(),
        "M3D-Het energy {} vs {}",
        het_e.total_j(),
        base_e.total_j()
    );
}

#[test]
fn simulation_to_thermal() {
    // Power from a simulated interval feeds the thermal solver; the M3D
    // stack stays within ~15 C of the 2D core while TSV3D runs much hotter.
    let s = space();
    let model = CorePowerModel::new_22nm();
    let p = spec_by_name("Gamess").expect("profile");

    let blocks_for = |d: DesignPoint| {
        let mut core = Multicore::new(d.core_config(), &p, 5, 1);
        let _ = core.run(40_000);
        let r = core.run(40_000);
        model.block_powers(&r, &d.power_config(s))
    };

    let cfg = ThermalConfig::default();
    let base_blocks = blocks_for(DesignPoint::Base);
    let fp2d = Floorplan::ryzen_like(9.0e-6);
    let power2d = fp2d.power_from_named(&base_blocks);
    let base = solve(
        &LayerStack::planar_2d(),
        &[LayerPower {
            floorplan: fp2d,
            power_w: power2d,
        }],
        &cfg,
    );

    let het_blocks = blocks_for(DesignPoint::M3dHet);
    let fp3d = Floorplan::ryzen_like(9.0e-6).scaled(0.5);
    let half: Vec<(&str, f64)> = het_blocks.iter().map(|&(n, w)| (n, w * 0.5)).collect();
    let layer = LayerPower {
        floorplan: fp3d.clone(),
        power_w: fp3d.power_from_named(&half),
    };
    let m3d = solve(&LayerStack::m3d(), &[layer.clone(), layer.clone()], &cfg);
    let tsv = solve(&LayerStack::tsv3d(), &[layer.clone(), layer], &cfg);

    assert!(
        m3d.peak_c - base.peak_c < 15.0,
        "M3D {} vs base {}",
        m3d.peak_c,
        base.peak_c
    );
    assert!(
        tsv.peak_c > m3d.peak_c + 3.0,
        "TSV {} vs M3D {}",
        tsv.peak_c,
        m3d.peak_c
    );
}

#[test]
fn multicore_iso_power_headline() {
    // M3D-Het-2X (8 cores, 3.3 GHz, 0.75 V) vs the 4-core Base: large
    // speedup for the same total work at comparable power.
    let s = space();
    let model = CorePowerModel::new_22nm();
    let app = parallel_by_name("Fft").expect("profile");

    let run = |d: MulticoreDesign| {
        let mut mc = Multicore::new(d.core_config(), &app, 9, d.n_cores());
        let _ = mc.run(15_000);
        let r = mc.run(25_000);
        let e = model.energy(&r, &d.power_config(s));
        (
            r.time_s() / r.instructions as f64,
            e.average_power_w(),
            e.total_j() / r.instructions as f64,
        )
    };
    let (base_tpw, base_w, base_epw) = run(MulticoreDesign::Base4);
    let (x2_tpw, x2_w, x2_epw) = run(MulticoreDesign::M3dHet2x8);

    let speedup = base_tpw / x2_tpw;
    assert!(speedup > 1.4, "Het-2X speedup {speedup}");
    assert!(x2_w / base_w < 1.5, "power ratio {}", x2_w / base_w);
    assert!(x2_epw < base_epw, "energy/work {} vs {}", x2_epw, base_epw);
}

#[test]
fn logic_and_storage_planning_compose() {
    // The hetero core combines the slack-driven logic partition (no
    // frequency loss) with asymmetric storage partitioning; the resulting
    // derived frequency recovers most of the iso-layer gain.
    let adder = m3d_logic::adder::carry_skip_adder(64, 4);
    let logic = m3d_logic::partition::partition_hetero(&adder, 0.17);
    assert!(logic.delay_ratio() <= 1.0 + 1e-9);

    let d = space().derived;
    let recovered = (d.het_ghz - 3.3) / (d.iso_ghz - 3.3);
    assert!(
        recovered > 0.5,
        "hetero recovers only {:.0}% of the iso gain",
        recovered * 100.0
    );
    assert!(d.het_ghz > d.het_naive_ghz);
}

#[test]
fn deterministic_results_across_runs() {
    let p = spec_by_name("Bzip2").expect("profile");
    let run = || {
        let mut core = Multicore::new(DesignPoint::Base.core_config(), &p, 123, 1);
        let _ = core.run(10_000);
        core.run(20_000)
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.activity, b.activity);
}
