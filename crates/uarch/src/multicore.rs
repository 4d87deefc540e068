//! Multicore simulation: N cores over a shared memory system with barrier
//! coordination (paper Section 7.2).

use crate::config::CoreConfig;
use crate::core::{BarrierCtl, CoreEngine};
use crate::error::SimError;
use crate::memory::MemorySystem;
use crate::stats::{ActivityStats, PerfResult};
use m3d_workloads::{TraceGenerator, WorkloadProfile};

/// An `n`-core chip multiprocessor running one parallel workload.
///
/// `Clone` captures the complete machine state (pipeline, caches, directory,
/// barrier control and per-core trace generators), which is what the batch
/// engine uses to checkpoint a warmed-up machine and resume it several times.
#[derive(Debug, Clone)]
pub struct Multicore {
    cores: Vec<CoreEngine>,
    mem: MemorySystem,
    barriers: BarrierCtl,
    freq_ghz: f64,
    skip_ahead: bool,
    cycle: u64,
}

impl Multicore {
    /// Build an `n_cores` multiprocessor where every core runs the given
    /// parallel profile (seeded deterministically per core).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Multicore::try_new`]).
    pub fn new(cfg: CoreConfig, profile: &WorkloadProfile, seed: u64, n_cores: usize) -> Self {
        match Self::try_new(cfg, profile, seed, n_cores) {
            Ok(mc) => mc,
            Err(e) => panic!("invalid multicore configuration: {e}"),
        }
    }

    /// Fallible constructor: validates the core configuration and the core
    /// count (the barrier bitmask and directory sharer masks are 32 bits
    /// wide, so `n_cores` must be in `1..=32`) before building any state.
    pub fn try_new(
        cfg: CoreConfig,
        profile: &WorkloadProfile,
        seed: u64,
        n_cores: usize,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if n_cores == 0 {
            return Err(SimError::ZeroCores);
        }
        if n_cores > crate::MAX_CORES {
            return Err(SimError::TooManyCores {
                n_cores,
                max: crate::MAX_CORES,
            });
        }
        let cores = (0..n_cores)
            .map(|c| {
                let gen = TraceGenerator::new(profile, seed, c, n_cores);
                CoreEngine::new(c, cfg.clone(), gen)
            })
            .collect();
        Ok(Self {
            cores,
            mem: MemorySystem::new(cfg.clone(), n_cores),
            barriers: BarrierCtl::new(n_cores),
            freq_ghz: cfg.freq_ghz,
            skip_ahead: cfg.skip_ahead,
            cycle: 0,
        })
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// `(jumps, cycles)` skipped by the quiescence fast path, summed over
    /// cores. Every core books the same jumps: the clock only skips when
    /// the whole chip is quiescent.
    pub fn skip_counters(&self) -> (u64, u64) {
        self.cores
            .iter()
            .map(|c| c.skip_counters())
            .fold((0, 0), |(j, s), (cj, cs)| (j + cj, s + cs))
    }

    /// Run until every core commits `n_per_core` more µops; the reported
    /// cycle count is the slowest core's completion of this interval
    /// (parallel completion time). Consecutive runs continue the same
    /// machine state, so a first short run serves as warm-up.
    ///
    /// When [`CoreConfig::skip_ahead`] is enabled (the default), cycles in
    /// which no core makes any progress are skipped in bulk; results are
    /// cycle-for-cycle identical to plain stepping (enforced by the
    /// `skip_equiv` property test).
    ///
    /// The loop carries a livelock cap of `n_per_core * 400` cycles (at
    /// least 10k). If any core fails to reach its commit target before the
    /// cap, the result covers only the truncated interval actually
    /// simulated: `instructions` is the number of µops that really
    /// committed (not the nominal `n_per_core * n_cores`) and
    /// [`PerfResult::cap_exhausted`] is set so callers can refuse to treat
    /// the numbers as a full-interval measurement.
    pub fn run(&mut self, n_per_core: u64) -> PerfResult {
        let start_cycle = self.cycle;
        let start_stats: Vec<ActivityStats> = self.cores.iter().map(|c| c.stats).collect();
        for c in &mut self.cores {
            c.set_target(c.committed + n_per_core);
        }
        let cap = start_cycle + n_per_core.saturating_mul(400).max(10_000);
        while self.cycle < cap && self.cores.iter().any(|c| c.cycle_at_target.is_none()) {
            let mut progressed = false;
            for c in &mut self.cores {
                // `|=` (not `||`) so every core always steps.
                progressed |= c.step(self.cycle, &mut self.mem, &mut self.barriers);
            }
            self.cycle += 1;
            if !progressed && self.skip_ahead && self.cycle < cap {
                // The whole chip is quiescent: jump to the earliest wake
                // event across cores. Skip only under *global* quiescence —
                // any single core's progress (including a new barrier
                // arrival) can unblock another core the following cycle.
                let wake = self
                    .cores
                    .iter()
                    .filter_map(|c| c.next_wake(self.cycle - 1))
                    .min()
                    .unwrap_or(cap);
                let k = wake.clamp(self.cycle, cap) - self.cycle;
                if k > 0 {
                    // Cores past their commit target keep stepping in the
                    // slow path, so they book the idle cycles here too.
                    for c in &mut self.cores {
                        c.skip_idle(k);
                    }
                    self.cycle += k;
                }
            }
        }
        let cap_exhausted = self.cores.iter().any(|c| c.cycle_at_target.is_none());
        let finish = self
            .cores
            .iter()
            .map(|c| c.cycle_at_target.unwrap_or(self.cycle))
            .max()
            .unwrap_or(self.cycle);
        let mut activity = ActivityStats::default();
        for (c, start) in self.cores.iter().zip(&start_stats) {
            let mut a = c.stats_at_target();
            a.subtract(start);
            activity.merge(&a);
        }
        let instructions = if cap_exhausted {
            activity.committed
        } else {
            n_per_core * self.cores.len() as u64
        };
        PerfResult {
            cycles: finish - start_cycle,
            instructions,
            freq_ghz: self.freq_ghz,
            activity,
            cache_levels: self.mem.level_counters(),
            mem: self.mem.stats,
            cap_exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_workloads::parallel::parallel_by_name;

    fn run(name: &str, cfg: CoreConfig, n_cores: usize, n: u64) -> PerfResult {
        let p = parallel_by_name(name).expect("profile");
        let mut mc = Multicore::new(cfg, &p, 17, n_cores);
        let _ = mc.run(15_000);
        mc.run(n)
    }

    #[test]
    fn parallel_run_completes_with_barriers() {
        let r = run("Ocean", CoreConfig::base_2d(), 4, 40_000);
        assert!(r.activity.barriers > 0, "barriers committed");
        assert!(r.ipc() > 0.3, "aggregate ipc {}", r.ipc());
    }

    #[test]
    fn coherence_traffic_appears_for_sharing_apps() {
        let r = run("Canneal", CoreConfig::base_2d(), 4, 30_000);
        assert!(r.mem.invalidations > 0, "invalidations expected");
        assert!(r.mem.forwards > 0, "dirty forwards expected");
    }

    #[test]
    fn more_cores_do_not_slow_completion() {
        // Per-core work is fixed, so 8 cores finish the (larger) total work
        // in a comparable time; aggregate IPC must rise.
        let r4 = run("Blackscholes", CoreConfig::base_2d(), 4, 20_000);
        let r8 = run("Blackscholes", CoreConfig::base_2d(), 8, 20_000);
        assert!(
            r8.ipc() > 1.5 * r4.ipc(),
            "8-core ipc {} vs 4-core {}",
            r8.ipc(),
            r4.ipc()
        );
    }

    #[test]
    fn shared_l2_pairing_helps_shared_data() {
        let base = run("Fft", CoreConfig::base_2d(), 4, 30_000);
        let paired = run("Fft", CoreConfig::base_2d().with_shared_l2(), 4, 30_000);
        // Same frequency; pairing shortens the ring and doubles effective
        // L2 reach, so completion time should not regress meaningfully.
        let ratio = paired.time_s() / base.time_s();
        assert!(ratio < 1.05, "paired/base time ratio {ratio}");
    }

    #[test]
    fn livelock_cap_is_reported_not_silent() {
        // A pathological DRAM latency (≫ the cycle cap) guarantees no core
        // reaches its commit target; the result must say so instead of
        // pretending the nominal interval completed.
        let mut cfg = CoreConfig::base_2d();
        cfg.dram_ns = 1.0e6;
        let p = parallel_by_name("Ocean").expect("profile");
        let mut mc = Multicore::new(cfg, &p, 17, 2);
        let r = mc.run(1_000);
        assert!(r.cap_exhausted, "cap exhaustion must be recorded");
        assert!(
            r.instructions < 2 * 1_000,
            "truncated run must not claim the nominal µop count"
        );
        assert_eq!(
            r.instructions, r.activity.committed,
            "truncated run reports the µops actually committed"
        );
        // A healthy run stays clean.
        let healthy = run("Ocean", CoreConfig::base_2d(), 2, 20_000);
        assert!(!healthy.cap_exhausted);
        assert_eq!(healthy.instructions, 2 * 20_000);
    }

    #[test]
    fn try_new_rejects_bad_input() {
        use crate::error::SimError;
        let p = parallel_by_name("Ocean").expect("profile");
        assert!(matches!(
            Multicore::try_new(CoreConfig::base_2d(), &p, 1, 0),
            Err(SimError::ZeroCores)
        ));
        assert!(matches!(
            Multicore::try_new(CoreConfig::base_2d(), &p, 1, 33),
            Err(SimError::TooManyCores { n_cores: 33, max: 32 })
        ));
        let mut cfg = CoreConfig::base_2d();
        cfg.bpred_entries = 999;
        assert!(Multicore::try_new(cfg, &p, 1, 4).is_err());
    }

    #[test]
    fn skip_ahead_matches_stepping_exactly() {
        // The full property test lives in tests/skip_equiv.rs; this smoke
        // check covers a barrier-heavy and a sharing-heavy app.
        for name in ["Ocean", "Canneal"] {
            let on = run(name, CoreConfig::base_2d(), 4, 20_000);
            let off = run(name, CoreConfig::base_2d().with_skip_ahead(false), 4, 20_000);
            assert_eq!(on, off, "{name}: skip-ahead changed the result");
        }
    }

    #[test]
    fn imbalanced_apps_stall_at_barriers() {
        let r = run("Cholesky", CoreConfig::base_2d(), 4, 30_000);
        assert!(
            r.activity.barrier_stall_cycles > 0,
            "imbalance should cause barrier stalls"
        );
    }
}
