//! Activity counters and performance results. The counters feed the
//! McPAT-style energy model in `m3d-power`.

use crate::memory::MemStats;

/// Per-structure activity counts accumulated during simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityStats {
    /// µops fetched.
    pub fetched: u64,
    /// µops dispatched (rename + ROB/IQ insert).
    pub dispatched: u64,
    /// µops issued (IQ wakeup/select + RF read).
    pub issued: u64,
    /// µops committed.
    pub committed: u64,
    /// Register-file read accesses.
    pub rf_reads: u64,
    /// Register-file write accesses.
    pub rf_writes: u64,
    /// RAT lookups.
    pub rat_reads: u64,
    /// RAT updates.
    pub rat_writes: u64,
    /// IQ tag-broadcast wakeup events.
    pub iq_wakeups: u64,
    /// LQ searches (by stores).
    pub lq_searches: u64,
    /// SQ searches (by loads, for forwarding).
    pub sq_searches: u64,
    /// Store-to-load forwards that hit.
    pub store_forwards: u64,
    /// Branch predictor accesses.
    pub bpred_accesses: u64,
    /// BTB accesses.
    pub btb_accesses: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredictions: u64,
    /// Integer ALU operations.
    pub alu_ops: u64,
    /// Integer multiply/divide operations.
    pub mul_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Cycles where at least one µop issued (clock gating proxy).
    pub active_cycles: u64,
    /// Barrier µops committed.
    pub barriers: u64,
    /// Cycles stalled waiting at barriers.
    pub barrier_stall_cycles: u64,
    /// Commit-less cycles attributed to an empty window (front-end: I-cache
    /// misses and branch-misprediction restarts).
    pub stall_frontend_cycles: u64,
    /// Commit-less cycles attributed to an unfinished memory op at the head.
    pub stall_memory_cycles: u64,
    /// Commit-less cycles attributed to unfinished execution at the head.
    pub stall_execute_cycles: u64,
    /// Sum of ROB occupancy sampled each cycle (divide by cycles for the
    /// average).
    pub rob_occupancy_sum: u64,
    /// Sum of IQ occupancy sampled each cycle.
    pub iq_occupancy_sum: u64,
    /// Cycles sampled for the occupancy sums.
    pub occupancy_samples: u64,
}

impl ActivityStats {
    /// Merge another core's counters into this one.
    pub fn merge(&mut self, other: &ActivityStats) {
        macro_rules! add {
            ($($f:ident),*) => { $( self.$f += other.$f; )* };
        }
        add!(
            fetched,
            dispatched,
            issued,
            committed,
            rf_reads,
            rf_writes,
            rat_reads,
            rat_writes,
            iq_wakeups,
            lq_searches,
            sq_searches,
            store_forwards,
            bpred_accesses,
            btb_accesses,
            branches,
            mispredictions,
            alu_ops,
            mul_ops,
            fp_ops,
            loads,
            stores,
            active_cycles,
            barriers,
            barrier_stall_cycles,
            stall_frontend_cycles,
            stall_memory_cycles,
            stall_execute_cycles,
            rob_occupancy_sum,
            iq_occupancy_sum,
            occupancy_samples
        );
    }

    /// Subtract an earlier snapshot of the same counters, leaving the
    /// activity of the interval between the two (used by the run loops to
    /// report per-interval results from cumulative engine counters).
    ///
    /// # Panics
    ///
    /// Underflows (and panics in debug builds) if `earlier` is not a
    /// snapshot taken before `self` on the same engine.
    pub fn subtract(&mut self, earlier: &ActivityStats) {
        macro_rules! sub {
            ($($f:ident),*) => { $( self.$f -= earlier.$f; )* };
        }
        sub!(
            fetched,
            dispatched,
            issued,
            committed,
            rf_reads,
            rf_writes,
            rat_reads,
            rat_writes,
            iq_wakeups,
            lq_searches,
            sq_searches,
            store_forwards,
            bpred_accesses,
            btb_accesses,
            branches,
            mispredictions,
            alu_ops,
            mul_ops,
            fp_ops,
            loads,
            stores,
            active_cycles,
            barriers,
            barrier_stall_cycles,
            stall_frontend_cycles,
            stall_memory_cycles,
            stall_execute_cycles,
            rob_occupancy_sum,
            iq_occupancy_sum,
            occupancy_samples
        );
    }

    /// Average reorder-buffer occupancy over the sampled cycles.
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.rob_occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Average issue-queue occupancy over the sampled cycles.
    pub fn avg_iq_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.iq_occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfResult {
    /// Cycles elapsed (for multicore: the slowest core's completion).
    pub cycles: u64,
    /// Instructions (µops) committed across all cores.
    pub instructions: u64,
    /// Clock frequency, GHz.
    pub freq_ghz: f64,
    /// Aggregated activity.
    pub activity: ActivityStats,
    /// Cache level counters `[il1, dl1, l2, l3]` as `(accesses, misses)`.
    pub cache_levels: [(u64, u64); 4],
    /// Memory-system statistics.
    pub mem: MemStats,
    /// True when the run hit its livelock cap before every core reached its
    /// commit target: `cycles` and `instructions` then cover the truncated
    /// interval actually simulated, not the requested one. Drivers must
    /// surface this instead of reporting the numbers as a full interval.
    pub cap_exhausted: bool,
}

impl PerfResult {
    /// Committed µops per cycle (aggregate).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Wall-clock seconds of the simulated interval.
    pub fn time_s(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Speedup of `self` over a `baseline` run of the same work.
    pub fn speedup_over(&self, baseline: &PerfResult) -> f64 {
        baseline.time_s() / self.time_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, f: f64) -> PerfResult {
        PerfResult {
            cycles,
            instructions: 1000,
            freq_ghz: f,
            activity: ActivityStats::default(),
            cache_levels: [(0, 0); 4],
            mem: MemStats::default(),
            cap_exhausted: false,
        }
    }

    #[test]
    fn ipc_and_time() {
        let r = result(500, 2.0);
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.time_s() - 250e-9).abs() < 1e-18);
    }

    #[test]
    fn speedup_reflects_frequency() {
        let base = result(1000, 3.3);
        let fast = result(1000, 3.83);
        assert!((fast.speedup_over(&base) - 3.83 / 3.3).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ActivityStats {
            issued: 10,
            ..Default::default()
        };
        let b = ActivityStats {
            issued: 5,
            branches: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.issued, 15);
        assert_eq!(a.branches, 2);
    }

    #[test]
    fn subtract_inverts_merge() {
        let mut a = ActivityStats {
            issued: 10,
            loads: 4,
            ..Default::default()
        };
        let b = ActivityStats {
            issued: 5,
            branches: 2,
            ..Default::default()
        };
        a.merge(&b);
        a.subtract(&b);
        assert_eq!(a.issued, 10);
        assert_eq!(a.branches, 0);
        assert_eq!(a.loads, 4);
    }

    #[test]
    fn mispredict_rate_guards_zero() {
        assert_eq!(ActivityStats::default().mispredict_rate(), 0.0);
    }

    #[test]
    fn occupancy_averages() {
        let a = ActivityStats {
            rob_occupancy_sum: 300,
            iq_occupancy_sum: 90,
            occupancy_samples: 30,
            ..Default::default()
        };
        assert!((a.avg_rob_occupancy() - 10.0).abs() < 1e-12);
        assert!((a.avg_iq_occupancy() - 3.0).abs() < 1e-12);
        assert_eq!(ActivityStats::default().avg_rob_occupancy(), 0.0);
    }
}
