//! The simulated machine: N ≥ 1 cores over a shared memory system with
//! barrier coordination. One core is the single-core study of paper
//! Section 7.1; more cores are the multicore study of Section 7.2.

use crate::config::CoreConfig;
use crate::core::{BarrierCtl, CoreEngine};
use crate::error::SimError;
use crate::memory::MemorySystem;
use crate::stats::{ActivityStats, PerfResult};
use m3d_workloads::{OpStream, StreamRecord, TraceGenerator, WorkloadProfile};
use std::sync::Arc;

/// An `n`-core chip multiprocessor running one workload (`n = 1` is the
/// single-core machine).
///
/// `Clone` captures the complete machine state (pipeline, caches, directory,
/// barrier control and per-core µop streams), so a clone is a checkpoint
/// that resumes exactly. The batch engine needs none: it measures a warm
/// group's windows in one pass ([`Multicore::run_windows`]).
#[derive(Debug, Clone)]
pub struct Multicore {
    cores: Vec<CoreEngine>,
    mem: MemorySystem,
    barriers: BarrierCtl,
    freq_ghz: f64,
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
            cycle: 0,
        })
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Record the first `cap` µops of every core's stream as it runs (see
    /// [`Multicore::into_stream_records`]). Call on a fresh machine.
    pub(crate) fn record_streams(&mut self, cap: usize) {
        for c in &mut self.cores {
            let stream = c.stream_mut();
            let OpStream::Live(gen) = stream else {
                panic!("only a fresh live stream can be recorded");
            };
            *stream = OpStream::record(gen.clone(), cap);
        }
    }

    /// Replay `records[c]` on core `c` instead of generating its stream;
    /// the records must come from a machine with the same profile, seed
    /// and core count. Call on a fresh machine.
    pub(crate) fn replay_streams(&mut self, records: &[Arc<StreamRecord>]) {
        assert_eq!(records.len(), self.cores.len(), "one record per core");
        for (c, record) in self.cores.iter_mut().zip(records) {
            *c.stream_mut() = OpStream::replay(Arc::clone(record));
        }
    }

    /// The per-core records of a machine set up by
    /// [`Multicore::record_streams`].
    pub(crate) fn into_stream_records(self) -> Vec<Arc<StreamRecord>> {
        self.cores
            .into_iter()
            .map(|c| Arc::new(c.into_stream().into_record().expect("recorded stream")))
            .collect()
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

    /// Wake-up calendar entries filed 512 or more cycles ahead, which go
    /// to the calendar's overflow heap, summed over cores. Diagnostic only, like
    /// [`Multicore::skip_counters`]: the `oracle_equiv` test reads it to
    /// show that its draws reach that path.
    pub fn calendar_overflows(&self) -> u64 {
        self.cores.iter().map(CoreEngine::calendar_overflows).sum()
    }

    /// Run until every core commits `n_per_core` more µops; the reported
    /// cycle count is the slowest core's completion of this interval
    /// (parallel completion time). Consecutive runs continue the same
    /// machine state, so a first short run serves as warm-up.
    ///
    /// Cycles in which no core makes any progress are skipped in bulk;
    /// results are cycle-for-cycle identical to plain stepping (enforced
    /// against the every-cycle reference core by the `oracle_equiv`
    /// property test).
    ///
    /// The loop carries a livelock cap of `n_per_core * 200` cycles with
    /// one core and `n_per_core * 400` with more (at least 10k either
    /// way). If any core fails to reach its commit target before the cap,
    /// the result covers only the truncated interval actually simulated:
    /// `instructions` is the number of µops that really committed (not
    /// the nominal `n_per_core * n_cores`) and [`PerfResult::cap_exhausted`]
    /// is set so callers can refuse to treat the numbers as a
    /// full-interval measurement.
    pub fn run(&mut self, n_per_core: u64) -> PerfResult {
        self.run_windows(&[n_per_core])
            .pop()
            .expect("one window, one result")
    }

    /// Nested measurement windows from the current state in one pass:
    /// `run_windows(ws)[i]` equals what [`Multicore::run`]`(ws[i])` would
    /// return from this state, for every `i` at once.
    ///
    /// The machine runs to the longest window. Each shorter window is read
    /// off at the exact point where its own run would stop: the step in
    /// which its last core reaches the window's commit target, or the
    /// window's livelock cap. Cycle counts and activity come from per-core
    /// snapshots taken at the commit that reached each target; cache and
    /// memory counters are read when the window stops. Skip-ahead jumps
    /// stop at the nearest pending cap, so a window that runs out of
    /// cycles is read at its cap, as its own run would be. Afterwards the
    /// machine is where `run` of the longest window would leave it.
    pub fn run_windows(&mut self, windows: &[u64]) -> Vec<PerfResult> {
        let start_cycle = self.cycle;
        let start_stats: Vec<ActivityStats> = self.cores.iter().map(|c| c.stats).collect();
        // Target slot `k` of every core is window `order[k]`.
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.sort_by_key(|&i| windows[i]);
        for c in &mut self.cores {
            let base = c.committed;
            c.set_targets(order.iter().map(|&i| base + windows[i]));
        }
        let per_uop = if self.cores.len() == 1 { 200 } else { 400 };
        let caps: Vec<u64> = order
            .iter()
            .map(|&i| start_cycle + windows[i].saturating_mul(per_uop).max(10_000))
            .collect();
        let mut results: Vec<Option<PerfResult>> = vec![None; windows.len()];
        let mut open = windows.len();
        // The nearest cap of a window still open, and the fewest targets
        // any core has passed when windows were last checked: between
        // checks, no window can stop before one of these moves.
        let mut next_cap = caps.first().copied().unwrap_or(start_cycle);
        let mut passed = usize::MAX;
        loop {
            let now_passed = self.passed();
            if self.cycle >= next_cap || now_passed != passed {
                passed = now_passed;
                for (k, &i) in order.iter().enumerate() {
                    if results[i].is_none() {
                        let reached = self.cores.iter().all(|c| c.at_target(k).is_some());
                        if reached || self.cycle >= caps[k] {
                            results[i] =
                                Some(self.window_result(k, windows[i], start_cycle, &start_stats));
                            open -= 1;
                        }
                    }
                }
                next_cap = order
                    .iter()
                    .zip(&caps)
                    .filter(|(&i, _)| results[i].is_none())
                    .map(|(_, &cap)| cap)
                    .min()
                    .unwrap_or(u64::MAX);
            }
            if open == 0 {
                break;
            }
            let mut progressed = false;
            for c in &mut self.cores {
                // `|=` (not `||`) so every core always steps.
                progressed |= c.step(self.cycle, &mut self.mem, &mut self.barriers);
            }
            self.cycle += 1;
            if !progressed && self.cycle < next_cap {
                // The whole chip is quiescent: jump to the earliest wake
                // event across cores. Skip only under *global* quiescence —
                // any single core's progress (including a new barrier
                // arrival) can unblock another core the following cycle.
                let wake = self
                    .cores
                    .iter()
                    .filter_map(|c| c.next_wake(self.cycle - 1))
                    .min()
                    .unwrap_or(next_cap);
                let k = wake.clamp(self.cycle, next_cap) - self.cycle;
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
        results
            .into_iter()
            .map(|r| r.expect("every window stopped"))
            .collect()
    }

    /// The fewest targets any core has passed.
    fn passed(&self) -> usize {
        self.cores
            .iter()
            .map(CoreEngine::targets_passed)
            .min()
            .unwrap_or(0)
    }

    /// The result of the window in target slot `k` (of `n_per_core` µops),
    /// read now, as the window stops.
    fn window_result(
        &self,
        k: usize,
        n_per_core: u64,
        start_cycle: u64,
        start_stats: &[ActivityStats],
    ) -> PerfResult {
        let at: Vec<Option<(u64, ActivityStats)>> =
            self.cores.iter().map(|c| c.at_target(k)).collect();
        let cap_exhausted = at.iter().any(Option::is_none);
        let finish = at
            .iter()
            .map(|a| a.map_or(self.cycle, |(cycle, _)| cycle))
            .max()
            .unwrap_or(self.cycle);
        let mut activity = ActivityStats::default();
        for ((c, a), start) in self.cores.iter().zip(&at).zip(start_stats) {
            let mut a = a.map_or(c.stats, |(_, stats)| stats);
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
    use m3d_workloads::spec::spec_by_name;

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
            Err(SimError::TooManyCores {
                n_cores: 33,
                max: 32
            })
        ));
        let mut cfg = CoreConfig::base_2d();
        cfg.bpred_entries = 999;
        assert!(Multicore::try_new(cfg, &p, 1, 4).is_err());
    }

    #[test]
    fn skip_ahead_actually_skips_on_memory_bound_runs() {
        let p = spec_by_name("Mcf").expect("profile");
        let mut core = Multicore::new(CoreConfig::base_2d(), &p, 11, 1);
        let _ = core.run(30_000);
        let (jumps, cycles) = core.skip_counters();
        assert!(jumps > 0, "mcf must trigger skip-ahead");
        assert!(cycles >= jumps, "each jump skips at least one cycle");
    }

    #[test]
    fn nested_windows_equal_separate_runs() {
        // Any order, a zero window (never reached: it runs to its 10k-cycle
        // cap, as `run(0)` does), and the machine left where the longest
        // run would leave it.
        let p = parallel_by_name("Fft").expect("profile");
        let fresh = || {
            let mut mc = Multicore::new(CoreConfig::base_2d(), &p, 3, 2);
            let _ = mc.run(4_000);
            mc
        };
        let windows = [3_000, 0, 1_000, 6_000];
        let mut nested = fresh();
        let got = nested.run_windows(&windows);
        for (&w, r) in windows.iter().zip(&got) {
            assert_eq!(r, &fresh().run(w), "window {w}");
        }
        assert!(got[1].cap_exhausted && got[1].cycles == 10_000);
        let mut longest = fresh();
        let _ = longest.run(6_000);
        assert_eq!(nested.run(2_000), longest.run(2_000));
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
