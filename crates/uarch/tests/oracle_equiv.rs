//! Differential property test: the production cycle loop against the
//! reference core in `support/reference.rs`.
//!
//! `pinned_results` covers only five runs. Here the other side is an
//! independent engine (a whole-ROB issue scan over a `HashMap` of producer
//! completion times, every core stepped every cycle, no skip-ahead), and
//! every field of every [`PerfResult`] must match over randomly drawn
//! machines, workloads and seeds. This is the check that skip-ahead
//! stepping gives the same results as stepping every cycle. The draws
//! include zero-latency functional units and machines with no multiply or
//! no FP units, whose µops of that kind never issue. Cases come from the
//! vendored proptest shim, seeded per test name, so a failure reproduces
//! exactly.

use m3d_uarch::config::FuConfig;
use m3d_uarch::{CoreConfig, Multicore};
use m3d_workloads::parallel::splash_parsec;
use m3d_workloads::spec::spec2006;
use m3d_workloads::WorkloadProfile;
use proptest::prelude::*;
use reference::RefMachine;
use std::sync::atomic::{AtomicU64, Ordering};
use support::perturbed;

mod support;

#[path = "support/reference.rs"]
mod reference;

/// A functional-unit complement from drawn unit counts `(alus, int_mul,
/// lsus, fpus)` and latencies `(int_mul, int_div, fp_add, fp_mul,
/// fp_div)`. `no_pool` 0 removes the multiply units, 1 the FP units; any
/// other value keeps both.
fn drawn_fus(
    units: (usize, usize, usize, usize),
    lat: (u64, u64, u64, u64, u64),
    no_pool: usize,
) -> FuConfig {
    FuConfig {
        alus: units.0,
        int_mul_units: if no_pool == 0 { 0 } else { units.1 },
        lsus: units.2,
        fpus: if no_pool == 1 { 0 } else { units.3 },
        int_mul_lat: lat.0,
        int_div_lat: lat.1,
        fp_add_lat: lat.2,
        fp_mul_lat: lat.3,
        fp_div_lat: lat.4,
    }
}

/// Measured interval for a drawn machine. A machine without multiply or FP
/// units stalls for good at its first µop of that kind and then runs to
/// the livelock cap, which the reference core must step cycle by cycle;
/// a short interval keeps that cap small.
fn interval(fus: &FuConfig, measure: u64) -> u64 {
    if fus.int_mul_units == 0 || fus.fpus == 0 {
        measure.min(60)
    } else {
        measure
    }
}

/// Wake-up calendar entries filed past the bucket ring's reach, summed
/// over the cases of `single_core_matches_reference`.
static CALENDAR_OVERFLOWS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Run by [`cases::single_core_matches_reference`], which also checks
    /// that the draws reach the calendar's overflow heap.
    fn single_core_matches_reference(
        app in 0usize..12,
        three_d in any::<bool>(),
        rob in 16usize..=192,
        iq in 8usize..=64,
        lq in 8usize..=48,
        sq in 8usize..=48,
        width in 1usize..=6,
        freq_centi_ghz in 100u64..=400,
        dram_tenth_ns in 200u64..=2000,
        units in (1usize..=4, 1usize..=2, 1usize..=2, 1usize..=2),
        no_pool in 0usize..6,
        lat in (0u64..=3, 0u64..=6, 0u64..=3, 0u64..=4, 0u64..=24),
        seed in any::<u64>(),
        warmup in 0u64..=1_500,
        measure in 200u64..=4_000,
    ) {
        let mut cfg = perturbed(three_d, rob, iq, lq, sq, width, freq_centi_ghz, dram_tenth_ns);
        cfg.fus = drawn_fus(units, lat, no_pool);
        prop_assume!(cfg.validate().is_ok());
        let apps = spec2006();
        let profile = &apps[app % apps.len()];
        let (warmup, measure) = (interval(&cfg.fus, warmup), interval(&cfg.fus, measure));

        let mut core = Multicore::new(cfg.clone(), profile, seed, 1);
        let mut oracle = RefMachine::single(cfg, profile, seed);
        prop_assert_eq!(core.run(warmup), oracle.run(warmup));
        prop_assert_eq!(core.run(measure), oracle.run(measure));
        CALENDAR_OVERFLOWS.fetch_add(core.calendar_overflows(), Ordering::Relaxed);
    }

    #[test]
    fn multicore_matches_reference(
        app in 0usize..15,
        n_cores in 1usize..=4,
        three_d in any::<bool>(),
        rob in 24usize..=128,
        iq in 8usize..=64,
        width in 1usize..=6,
        dram_tenth_ns in 300u64..=1500,
        barrier_interval in 10u64..=100,
        own_barriers in any::<bool>(),
        units in (1usize..=4, 1usize..=2, 1usize..=2, 1usize..=2),
        no_pool in 0usize..6,
        lat in (0u64..=3, 0u64..=6, 0u64..=3, 0u64..=4, 0u64..=24),
        seed in any::<u64>(),
        measure in 200u64..=3_000,
    ) {
        let mut cfg = perturbed(three_d, rob, iq, 48, 48, width, 330, dram_tenth_ns);
        if three_d {
            cfg = cfg.with_shared_l2();
        }
        cfg.fus = drawn_fus(units, lat, no_pool);
        prop_assume!(cfg.validate().is_ok());
        let apps = splash_parsec();
        let app = &apps[app % apps.len()];
        // Either the profile's own barrier spacing, or barriers every few
        // dozen µops, so many of them pass through the window and the
        // cores wait on each other often.
        let profile = WorkloadProfile {
            barrier_interval: if own_barriers { app.barrier_interval } else { barrier_interval },
            ..app.clone()
        };
        let measure = interval(&cfg.fus, measure);

        let mut mc = Multicore::new(cfg.clone(), &profile, seed, n_cores);
        // One core carries the single-core livelock cap.
        let mut oracle = if n_cores == 1 {
            RefMachine::single(cfg, &profile, seed)
        } else {
            RefMachine::multi(cfg, &profile, seed, n_cores)
        };
        prop_assert_eq!(mc.run(500), oracle.run(500));
        prop_assert_eq!(mc.run(measure), oracle.run(measure));
    }
}

mod cases {
    use super::*;

    /// The single-core draws, plus a check that they exercise the
    /// calendar's overflow path: DRAM latencies of up to 200 ns at up to
    /// 4 GHz put wake-ups 512 or more cycles out.
    #[test]
    fn single_core_matches_reference() {
        super::single_core_matches_reference();
        let overflows = CALENDAR_OVERFLOWS.load(Ordering::Relaxed);
        assert!(overflows > 0, "no drawn machine filed a calendar overflow");
    }
}
