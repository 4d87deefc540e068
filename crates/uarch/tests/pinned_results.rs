//! Exact cycle-level results pinned as literals.
//!
//! `skip_equiv` proves skip-ahead stepping equals plain stepping, but both
//! sides of that comparison share the same issue, dispatch and commit
//! logic, so a change to that logic that moves every result alike passes
//! it. These literals were recorded before the issue-queue list replaced
//! the full-ROB issue and wake scans; every field of each [`PerfResult`]
//! (cycles, every activity counter, cache levels, memory statistics) must
//! stay identical across any refactor of the cycle loop. Re-record them
//! only for a deliberate modelling change, and say so in the change log.

use m3d_uarch::memory::MemStats;
use m3d_uarch::{ActivityStats, Core, CoreConfig, Multicore, PerfResult};
use m3d_workloads::parallel::parallel_by_name;
use m3d_workloads::spec::spec_by_name;
use m3d_workloads::TraceGenerator;

/// Warm one core for 10k µops, then measure 20k.
fn single(app: &str, cfg: CoreConfig) -> PerfResult {
    let profile = spec_by_name(app).expect("SPEC profile");
    let mut core = Core::new(0, cfg, TraceGenerator::new(&profile, 17, 0, 1));
    let _ = core.run(10_000);
    core.run(20_000)
}

/// Four Canneal cores: a measured window long enough to cross barriers,
/// with coherence traffic (invalidations, forwards, NoC hops) on top.
fn canneal_4core() -> PerfResult {
    let profile = parallel_by_name("Canneal").expect("parallel profile");
    let mut mc = Multicore::new(CoreConfig::base_2d(), &profile, 29, 4);
    let _ = mc.run(3_000);
    mc.run(125_000)
}

#[test]
fn mcf_base_2d() {
    assert_eq!(
        single("Mcf", CoreConfig::base_2d()),
        PerfResult {
            cycles: 57571,
            instructions: 20000,
            freq_ghz: 3.3,
            activity: ActivityStats {
                fetched: 19924,
                dispatched: 19930,
                issued: 19941,
                committed: 20000,
                rf_reads: 24501,
                rf_writes: 14344,
                rat_reads: 24972,
                rat_writes: 14298,
                iq_wakeups: 19941,
                lq_searches: 2063,
                sq_searches: 4796,
                store_forwards: 72,
                bpred_accesses: 3570,
                btb_accesses: 3570,
                branches: 3580,
                mispredictions: 415,
                alu_ops: 9303,
                mul_ops: 199,
                fp_ops: 0,
                loads: 4796,
                stores: 2063,
                active_cycles: 9965,
                barriers: 0,
                barrier_stall_cycles: 0,
                stall_frontend_cycles: 2246,
                stall_memory_cycles: 48419,
                stall_execute_cycles: 134,
                rob_occupancy_sum: 5099604,
                iq_occupancy_sum: 1986819,
                occupancy_samples: 57572,
            },
            cache_levels: [(30552, 439), (18482, 10579), (12520, 5704), (2655, 2647)],
            mem: MemStats {
                dram_accesses: 2647,
                prefetches: 8760,
                noc_hops: 0,
                invalidations: 0,
                forwards: 0,
            },
            cap_exhausted: false,
        }
    );
}

#[test]
fn mcf_3d_paths() {
    assert_eq!(
        single("Mcf", CoreConfig::base_2d().with_3d_paths()),
        PerfResult {
            cycles: 56568,
            instructions: 20000,
            freq_ghz: 3.3,
            activity: ActivityStats {
                fetched: 19936,
                dispatched: 19943,
                issued: 19946,
                committed: 20000,
                rf_reads: 24506,
                rf_writes: 14345,
                rat_reads: 24987,
                rat_writes: 14307,
                iq_wakeups: 19946,
                lq_searches: 2063,
                sq_searches: 4798,
                store_forwards: 78,
                bpred_accesses: 3571,
                btb_accesses: 3571,
                branches: 3582,
                mispredictions: 415,
                alu_ops: 9304,
                mul_ops: 199,
                fp_ops: 0,
                loads: 4798,
                stores: 2063,
                active_cycles: 9778,
                barriers: 0,
                barrier_stall_cycles: 0,
                stall_frontend_cycles: 2015,
                stall_memory_cycles: 47650,
                stall_execute_cycles: 134,
                rob_occupancy_sum: 5070717,
                iq_occupancy_sum: 1961377,
                occupancy_samples: 56569,
            },
            cache_levels: [(30562, 439), (18458, 10565), (12496, 5698), (2656, 2648)],
            mem: MemStats {
                dram_accesses: 2648,
                prefetches: 8739,
                noc_hops: 0,
                invalidations: 0,
                forwards: 0,
            },
            cap_exhausted: false,
        }
    );
}

#[test]
fn gobmk_base_2d() {
    assert_eq!(
        single("Gobmk", CoreConfig::base_2d()),
        PerfResult {
            cycles: 154728,
            instructions: 20000,
            freq_ghz: 3.3,
            activity: ActivityStats {
                fetched: 20068,
                dispatched: 20068,
                issued: 20069,
                committed: 20000,
                rf_reads: 20457,
                rf_writes: 14388,
                rat_reads: 25101,
                rat_writes: 14434,
                iq_wakeups: 20069,
                lq_searches: 2075,
                sq_searches: 4857,
                store_forwards: 105,
                bpred_accesses: 3558,
                btb_accesses: 3558,
                branches: 3558,
                mispredictions: 801,
                alu_ops: 9388,
                mul_ops: 191,
                fp_ops: 0,
                loads: 4857,
                stores: 2075,
                active_cycles: 10557,
                barriers: 0,
                barrier_stall_cycles: 0,
                stall_frontend_cycles: 107042,
                stall_memory_cycles: 37994,
                stall_execute_cycles: 1151,
                rob_occupancy_sum: 1249144,
                iq_occupancy_sum: 400201,
                occupancy_samples: 154729,
            },
            cache_levels: [(38798, 10150), (14739, 4953), (18268, 4642), (2047, 1989)],
            mem: MemStats {
                dram_accesses: 1989,
                prefetches: 13281,
                noc_hops: 0,
                invalidations: 0,
                forwards: 0,
            },
            cap_exhausted: false,
        }
    );
}

#[test]
fn gobmk_3d_paths() {
    assert_eq!(
        single("Gobmk", CoreConfig::base_2d().with_3d_paths()),
        PerfResult {
            cycles: 152930,
            instructions: 20000,
            freq_ghz: 3.3,
            activity: ActivityStats {
                fetched: 20068,
                dispatched: 20068,
                issued: 20069,
                committed: 20000,
                rf_reads: 20386,
                rf_writes: 14388,
                rat_reads: 25101,
                rat_writes: 14434,
                iq_wakeups: 20069,
                lq_searches: 2075,
                sq_searches: 4857,
                store_forwards: 105,
                bpred_accesses: 3558,
                btb_accesses: 3558,
                branches: 3558,
                mispredictions: 801,
                alu_ops: 9388,
                mul_ops: 191,
                fp_ops: 0,
                loads: 4857,
                stores: 2075,
                active_cycles: 10269,
                barriers: 0,
                barrier_stall_cycles: 0,
                stall_frontend_cycles: 106492,
                stall_memory_cycles: 36751,
                stall_execute_cycles: 1165,
                rob_occupancy_sum: 1230433,
                iq_occupancy_sum: 388106,
                occupancy_samples: 152931,
            },
            cache_levels: [(38798, 10150), (14707, 4940), (18234, 4640), (2047, 1989)],
            mem: MemStats {
                dram_accesses: 1989,
                prefetches: 13251,
                noc_hops: 0,
                invalidations: 0,
                forwards: 0,
            },
            cap_exhausted: false,
        }
    );
}

#[test]
fn canneal_4_cores() {
    assert_eq!(
        canneal_4core(),
        PerfResult {
            cycles: 390548,
            instructions: 500000,
            freq_ghz: 3.3,
            activity: ActivityStats {
                fetched: 500535,
                dispatched: 500519,
                issued: 500290,
                committed: 500000,
                rf_reads: 618504,
                rf_writes: 360059,
                rat_reads: 627341,
                rat_writes: 360430,
                iq_wakeups: 500290,
                lq_searches: 50160,
                sq_searches: 119874,
                store_forwards: 2092,
                bpred_accesses: 89897,
                btb_accesses: 89897,
                branches: 89876,
                mispredictions: 8662,
                alu_ops: 235389,
                mul_ops: 4991,
                fp_ops: 0,
                loads: 119874,
                stores: 50160,
                active_cycles: 253144,
                barriers: 3,
                barrier_stall_cycles: 103998,
                stall_frontend_cycles: 34279,
                stall_memory_cycles: 1157260,
                stall_execute_cycles: 2192,
                rob_occupancy_sum: 159014856,
                iq_occupancy_sum: 58675340,
                occupancy_samples: 1460420,
            },
            cache_levels: [
                (560541, 5312),
                (369071, 237395),
                (268123, 123260),
                (56975, 41943),
            ],
            mem: MemStats {
                dram_accesses: 41943,
                prefetches: 187989,
                noc_hops: 131851,
                invalidations: 8988,
                forwards: 7690,
            },
            cap_exhausted: false,
        }
    );
}
