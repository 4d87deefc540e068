//! Differential property test: [`SimBatch`] against independent machines.
//!
//! The batch shares work between points: a warm-up group measures all of
//! its windows in one nested pass, and the warm groups of one
//! `(profile, seed, core count)` replay one recorded µop stream. Neither
//! may change a result. Every point of a random batch must equal a fresh
//! `Multicore::new → run(warmup) → run(measure)`, field for field. The
//! point lists share apps across machines, nest several windows per
//! warm-up, and include machines without FP units, whose windows run out
//! at the livelock cap.

use m3d_uarch::config::FuConfig;
use m3d_uarch::{CoreConfig, Multicore, SimBatch, SimInterval, SimPoint};
use m3d_workloads::parallel::splash_parsec;
use m3d_workloads::spec::spec2006;
use m3d_workloads::WorkloadProfile;
use proptest::prelude::*;
use support::perturbed;

mod support;

/// `cfg` without FP units: its first FP µop never issues.
fn without_fpus(mut cfg: CoreConfig) -> CoreConfig {
    cfg.fus = FuConfig { fpus: 0, ..cfg.fus };
    cfg
}

/// The point a fresh machine computes for `p`, outside any batch.
fn direct(p: &SimPoint) -> m3d_uarch::PerfResult {
    let mut m = Multicore::new(p.config.clone(), &p.profile, p.seed, p.n_cores);
    if p.interval.warmup > 0 {
        let _ = m.run(p.interval.warmup);
    }
    m.run(p.interval.measure)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_points_equal_independent_runs(
        apps in proptest::collection::vec(0usize..36, 1..3),
        parallel_cores in 1usize..=3,
        designs in proptest::collection::vec(
            (any::<bool>(), 16usize..=128, 1usize..=4, 200u64..=1500, 0usize..4),
            1..4,
        ),
        warmups in (0u64..=1_000, 0u64..=1_000),
        windows in proptest::collection::vec(1u64..=2_500, 1..4),
        seed in any::<u64>(),
        jobs in 1usize..=3,
    ) {
        let profiles: Vec<WorkloadProfile> =
            spec2006().into_iter().chain(splash_parsec()).collect();
        let mut points = Vec::new();
        for &a in &apps {
            let profile = &profiles[a];
            let n_cores = if profile.is_parallel() { parallel_cores } else { 1 };
            for (k, &(three_d, rob, width, dram, kind)) in designs.iter().enumerate() {
                let cfg = perturbed(three_d, rob, 32, 24, 24, width, 330, dram * 2);
                // One design in four lacks FP units; its windows stay short
                // so the livelock cap stays cheap.
                let (cfg, scale) = if kind == 0 { (without_fpus(cfg), 40) } else { (cfg, 1) };
                let warmup = if k % 2 == 0 { warmups.0 } else { warmups.1 };
                for &w in &windows {
                    points.push(SimPoint::multi(
                        cfg.clone(),
                        profile.clone(),
                        seed,
                        n_cores,
                        SimInterval { warmup, measure: (w / scale).max(1) },
                    ));
                }
            }
        }
        let got = SimBatch::new(jobs).without_cache().run(&points);
        for (p, r) in points.iter().zip(&got) {
            let r = r.as_ref().expect("valid point");
            let want = direct(p);
            prop_assert!(
                r == &want,
                "{} on {} cores, {:?}: batch {:?} vs direct {:?}",
                p.profile.name, p.n_cores, p.interval, r, want
            );
        }
    }
}

#[test]
fn nested_windows_stop_at_their_own_caps() {
    // An FP-heavy app on a machine without FP units stalls at its first FP
    // µop, so every window runs out at its own livelock cap (10 000,
    // 12 000 and 20 000 cycles on one core), while the healthy machine
    // sharing the stream completes the same windows.
    let app = spec2006()
        .into_iter()
        .max_by(|a, b| (a.mix.fp_add + a.mix.fp_mul).total_cmp(&(b.mix.fp_add + b.mix.fp_mul)))
        .expect("profiles");
    let healthy = CoreConfig::base_2d();
    let stalled = without_fpus(healthy.clone());
    let points: Vec<SimPoint> = [&stalled, &healthy]
        .into_iter()
        .flat_map(|cfg| {
            [20u64, 60, 100].map(|measure| {
                SimPoint::single(
                    cfg.clone(),
                    app.clone(),
                    5,
                    SimInterval { warmup: 0, measure },
                )
            })
        })
        .collect();
    let got = SimBatch::new(1).without_cache().run(&points);
    for (p, r) in points.iter().zip(&got) {
        let r = r.as_ref().expect("valid point");
        assert_eq!(r, &direct(p), "{:?}", p.interval);
        let fp_units = p.config.fus.fpus > 0;
        assert_eq!(r.cap_exhausted, !fp_units, "{:?}", p.interval);
    }
    let cycles: Vec<u64> = got[..3]
        .iter()
        .map(|r| r.as_ref().expect("ok").cycles)
        .collect();
    assert_eq!(cycles, [10_000, 12_000, 20_000]);
}

#[test]
fn replay_past_the_record_cap_matches_direct_runs() {
    // Four cores get a quarter of a lane's record budget each (32 768
    // µops), so the second machine replays the record and then carries on
    // from the tail generator.
    let app = &splash_parsec()[8];
    let points: Vec<SimPoint> = [CoreConfig::base_2d(), CoreConfig::base_2d().with_3d_paths()]
        .into_iter()
        .map(|cfg| {
            SimPoint::multi(
                cfg,
                app.clone(),
                9,
                4,
                SimInterval {
                    warmup: 20_000,
                    measure: 20_000,
                },
            )
        })
        .collect();
    let got = SimBatch::new(1).without_cache().run(&points);
    for (p, r) in points.iter().zip(&got) {
        assert_eq!(r.as_ref().expect("valid point"), &direct(p));
    }
}
