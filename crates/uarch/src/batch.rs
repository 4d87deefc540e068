//! Sharded batch simulation engine.
//!
//! Every performance figure in the paper evaluates dozens of independent
//! (configuration × workload × seed × interval) points; this module runs
//! such a set as a batch: points are deduplicated, grouped so that points
//! differing only in their measurement interval share one warm-up
//! (checkpointing the warmed machine by cloning it), sharded across a
//! work-stealing worker pool (the same atomic-claim lane pattern the
//! experiment registry uses), and memoized in a process-wide result cache
//! keyed by the full point tuple.
//!
//! # Determinism contract
//!
//! Results and [`BatchStats`] are pure functions of the input point list —
//! never of the worker count or the schedule:
//!
//! - every point is simulated on a freshly built machine (warm-up µops,
//!   then the measured interval), so a point's result cannot depend on
//!   which worker ran it or what ran before it;
//! - duplicate points inside one call are collapsed *before* sharding and
//!   counted as cache hits, so hit counts do not depend on which copy a
//!   worker happened to claim first;
//! - checkpoint reuses are `group size − 1` summed over warm-up groups,
//!   a property of the point list alone.
//!
//! The process-wide memo cache can only ever substitute a value that an
//! identical computation produced, so cached and uncached runs return the
//! same results.

use crate::config::CoreConfig;
use crate::error::SimError;
use crate::multicore::Multicore;
use crate::stats::PerfResult;
use m3d_workloads::WorkloadProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Warm-up and measurement window of one simulation point, in µops per
/// core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimInterval {
    /// µops per core simulated before measurement starts (caches and
    /// predictors warm; not reported).
    pub warmup: u64,
    /// µops per core in the measured interval.
    pub measure: u64,
}

/// One independent simulation point: a machine configuration, a workload,
/// a trace seed, a core count and an interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Core + memory configuration.
    pub config: CoreConfig,
    /// Workload characterisation driving the trace generator.
    pub profile: WorkloadProfile,
    /// Trace seed.
    pub seed: u64,
    /// Core count of the simulated [`Multicore`] (1 is the single-core
    /// machine).
    pub n_cores: usize,
    /// Warm-up/measure window.
    pub interval: SimInterval,
}

impl SimPoint {
    /// A single-core point.
    pub fn single(
        config: CoreConfig,
        profile: WorkloadProfile,
        seed: u64,
        interval: SimInterval,
    ) -> Self {
        Self {
            config,
            profile,
            seed,
            n_cores: 1,
            interval,
        }
    }

    /// A multicore point.
    pub fn multi(
        config: CoreConfig,
        profile: WorkloadProfile,
        seed: u64,
        n_cores: usize,
        interval: SimInterval,
    ) -> Self {
        Self {
            config,
            profile,
            seed,
            n_cores,
            interval,
        }
    }

    /// Stable 128-bit fingerprint of the full point tuple (the memo-cache
    /// key). Floating-point fields hash by bit pattern, so two points are
    /// equal iff their simulations are bit-identical computations.
    pub fn key(&self) -> PointKey {
        let mut h = Fingerprint::new();
        self.hash_warm(&mut h);
        h.u64(self.interval.measure);
        h.finish()
    }

    /// Fingerprint of everything *except* the measurement window — points
    /// sharing a warm key run the same machine through the same warm-up,
    /// so the batch warms once and checkpoints.
    pub fn warm_key(&self) -> PointKey {
        let mut h = Fingerprint::new();
        self.hash_warm(&mut h);
        h.finish()
    }

    fn hash_warm(&self, h: &mut Fingerprint) {
        let c = &self.config;
        h.f64(c.freq_ghz);
        h.f64(c.vdd);
        for v in [
            c.dispatch_width,
            c.issue_width,
            c.commit_width,
            c.rob_entries,
            c.iq_entries,
            c.lq_entries,
            c.sq_entries,
            c.int_regs,
            c.fp_regs,
            c.fus.alus,
            c.fus.int_mul_units,
            c.fus.lsus,
            c.fus.fpus,
        ] {
            h.u64(v as u64);
        }
        for v in [
            c.fus.int_mul_lat,
            c.fus.int_div_lat,
            c.fus.fp_add_lat,
            c.fus.fp_mul_lat,
            c.fus.fp_div_lat,
        ] {
            h.u64(v);
        }
        for cc in [&c.il1, &c.dl1, &c.l2, &c.l3] {
            h.u64(cc.size_bytes as u64);
            h.u64(cc.ways as u64);
            h.u64(cc.line_bytes as u64);
            h.u64(cc.rt_cycles);
        }
        h.f64(c.dram_ns);
        h.u64(c.mispredict_penalty);
        h.u64(c.load_to_use_saving);
        h.u64(c.shared_l2_pairs as u64);
        h.u64(c.noc_hop_cycles);
        h.u64(c.bpred_entries as u64);
        h.u64(c.btb_entries as u64);
        h.u64(c.btb_ways as u64);
        h.u64(c.ras_entries as u64);
        h.u64(c.complex_decode_extra);

        let p = &self.profile;
        h.bytes(p.name.as_bytes());
        for v in [
            p.mix.load,
            p.mix.store,
            p.mix.branch,
            p.mix.int_mul,
            p.mix.fp_add,
            p.mix.fp_mul,
            p.mix.fp_div,
            p.mean_dep_distance,
            p.branches.biased,
            p.branches.loops,
            p.memory.hot_frac,
            p.memory.warm_frac,
            p.memory.cold_stride_frac,
            p.complex_decode_rate,
            p.shared_frac,
            p.imbalance,
        ] {
            h.f64(v);
        }
        h.u64(p.branches.static_branches as u64);
        h.u64(p.branches.loop_period as u64);
        h.u64(p.memory.hot_bytes);
        h.u64(p.memory.warm_bytes);
        h.u64(p.memory.cold_bytes);
        h.u64(p.code_bytes);
        h.u64(p.barrier_interval);

        h.u64(self.seed);
        h.u64(self.n_cores as u64);
        h.u64(self.interval.warmup);
    }

    /// Which of `shards` memo-cache slices owns this point — shorthand
    /// for [`shard_of_key`] over [`SimPoint::key`]. This is the routing
    /// key the serve shard router uses, exposed here so router, tests,
    /// and clients all compute it from the same stable fingerprint.
    pub fn shard_of(&self, shards: usize) -> usize {
        shard_of_key(self.key(), shards)
    }
}

/// A 128-bit point fingerprint (two independent FNV-1a streams).
pub type PointKey = (u64, u64);

/// Which shard of `shards` owns `key`, under consistent slicing of the
/// first fingerprint stream: shard `s` owns the contiguous slice
/// `⌈s·2⁶⁴/n⌉ ..= ⌈(s+1)·2⁶⁴/n⌉ − 1` of `key.0` (see [`shard_slice`]).
///
/// This is the **stable routing contract** of the serve shard router:
/// together with the FNV-1a fingerprint (stable across Rust releases by
/// construction) it fixes which shard daemon's memo cache owns a point,
/// so the slicing arithmetic must never change. The multiply-shift form
/// is exact — `⌊key.0 · n / 2⁶⁴⌋` — and keeps the slices contiguous,
/// which is what lets a router advertise the key-slice map as plain
/// ranges in its `stats` topology block.
pub fn shard_of_key(key: PointKey, shards: usize) -> usize {
    assert!(shards > 0, "shards must be >= 1");
    ((key.0 as u128 * shards as u128) >> 64) as usize
}

/// The inclusive `key.0` range owned by `shard` of `shards` under
/// [`shard_of_key`]: the exact inverse of the multiply-shift slicing.
/// Slices are contiguous, non-overlapping, and cover the full `u64`
/// keyspace.
pub fn shard_slice(shard: usize, shards: usize) -> (u64, u64) {
    assert!(shard < shards, "shard index out of range");
    let lo = ((shard as u128) << 64).div_ceil(shards as u128) as u64;
    let hi = (((shard as u128 + 1) << 64).div_ceil(shards as u128) - 1) as u64;
    (lo, hi)
}

/// Dual-stream FNV-1a hasher producing a 128-bit fingerprint. FNV is used
/// for stability: the key must not change across Rust releases the way
/// `DefaultHasher` may.
#[derive(Debug)]
struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    fn new() -> Self {
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn byte(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(Self::PRIME);
        self.b = (self.b ^ u64::from(v ^ 0x5a)).wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.byte(byte);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        // Length-prefix so concatenated strings cannot alias.
        self.u64(v.len() as u64);
        for &byte in v {
            self.byte(byte);
        }
    }

    fn finish(&self) -> PointKey {
        (self.a, self.b)
    }
}

/// Schedule-independent statistics of one [`SimBatch::run_with_stats`]
/// call. These values are also exported as `uarch.batch.*` m3d-obs
/// counters and gated by `perf_baseline`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Points requested (input length).
    pub points: u64,
    /// Points answered from the memo cache or collapsed as duplicates of
    /// another point in the same call.
    pub cache_hits: u64,
    /// Measurement runs that resumed a checkpointed warm-up instead of
    /// re-simulating it (`group size − 1` summed over warm-up groups).
    pub checkpoint_reuses: u64,
    /// Machine cycles actually simulated (warm-up + measured intervals of
    /// every non-cached point).
    pub cycles: u64,
    /// Results whose measured interval hit the livelock cap.
    pub cap_exhausted: u64,
}

/// Process-wide memo cache of completed results, keyed by the full point
/// tuple. Bounded: once full, new results are simply not inserted (a
/// deterministic policy — eviction order would otherwise depend on
/// cross-experiment scheduling).
static RESULT_CACHE: OnceLock<Mutex<HashMap<PointKey, PerfResult>>> = OnceLock::new();
const RESULT_CACHE_CAP: usize = 8192;

fn result_cache() -> &'static Mutex<HashMap<PointKey, PerfResult>> {
    RESULT_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of results currently memoized in the process-wide cache.
/// `m3d-serve` reports this in its `stats` response so load generators can
/// tell a warm server from a cold one.
pub fn result_cache_len() -> usize {
    result_cache().lock().expect("batch result cache poisoned").len()
}

/// One warm-up group: points sharing a warm key, simulated as a single
/// task (warm once, then clone the machine per measurement interval).
struct Group {
    /// Indices into the deduplicated primary list.
    members: Vec<usize>,
}

/// A batch runner: shards independent simulation points over `jobs`
/// worker threads.
#[derive(Debug, Clone)]
pub struct SimBatch {
    jobs: usize,
    use_cache: bool,
    deadline: Option<std::time::Instant>,
}

impl SimBatch {
    /// A batch runner with `jobs` worker lanes (clamped to at least one).
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            use_cache: true,
            deadline: None,
        }
    }

    /// Disable the process-wide memo cache for this runner. Used by timing
    /// probes (`perf_baseline`) that must measure real simulation work,
    /// and by determinism tests comparing against cold runs.
    pub fn without_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Cancel work not yet started once `deadline` passes: each warm-up
    /// group checks the clock before it builds its machine, and a group
    /// starting late answers every member with
    /// [`SimError::DeadlineExceeded`] instead of simulating. A group
    /// already running finishes (cancellation is at group granularity, so
    /// no partial or truncated result can ever be returned), and
    /// memo-cache hits are still served — they cost no simulation time.
    ///
    /// A deadline makes *which* points answer time-dependent, so
    /// deadline-bearing batches are exempt from the module's determinism
    /// contract; callers that need byte-stable output (the experiment
    /// drivers) never set one.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Worker-lane count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run every point and return results in input order.
    pub fn run(&self, points: &[SimPoint]) -> Vec<Result<PerfResult, SimError>> {
        self.run_with_stats(points).0
    }

    /// Run every point; additionally return the batch statistics, which
    /// are also added to the `uarch.batch.*` m3d-obs counters.
    pub fn run_with_stats(
        &self,
        points: &[SimPoint],
    ) -> (Vec<Result<PerfResult, SimError>>, BatchStats) {
        let n = points.len();
        let mut stats = BatchStats {
            points: n as u64,
            ..BatchStats::default()
        };
        let keys: Vec<PointKey> = points.iter().map(SimPoint::key).collect();

        // Phase 1: memo-cache lookups.
        let mut results: Vec<Option<Result<PerfResult, SimError>>> = if self.use_cache {
            memo_lookup(&keys).into_iter().map(|r| r.map(Ok)).collect()
        } else {
            vec![None; n]
        };
        stats.cache_hits = results.iter().filter(|r| r.is_some()).count() as u64;

        // Phase 2: collapse duplicates of the remaining points. The first
        // occurrence becomes the primary; later copies are aliases and
        // count as (deterministic) cache hits.
        let mut primaries: Vec<usize> = Vec::new();
        let mut alias_of: HashMap<PointKey, usize> = HashMap::new();
        let mut aliases: Vec<(usize, usize)> = Vec::new(); // (input idx, primary slot)
        for i in 0..n {
            if results[i].is_some() {
                continue;
            }
            match alias_of.get(&keys[i]) {
                Some(&slot) => {
                    aliases.push((i, slot));
                    stats.cache_hits += 1;
                }
                None => {
                    alias_of.insert(keys[i], primaries.len());
                    primaries.push(i);
                }
            }
        }

        // Phase 3: group primaries by warm key — each group warms one
        // machine and checkpoints it for its other members.
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: HashMap<PointKey, usize> = HashMap::new();
        for (slot, &i) in primaries.iter().enumerate() {
            let wk = points[i].warm_key();
            match group_of.get(&wk) {
                Some(&g) => {
                    groups[g].members.push(slot);
                    stats.checkpoint_reuses += 1;
                }
                None => {
                    group_of.insert(wk, groups.len());
                    groups.push(Group {
                        members: vec![slot],
                    });
                }
            }
        }

        // Phase 4: execute the groups across the worker lanes.
        let primary_results: Vec<Option<Result<PerfResult, SimError>>> =
            vec![None; primaries.len()];
        let slots = Mutex::new(primary_results);
        let cycles = std::sync::atomic::AtomicU64::new(0);
        let capped = std::sync::atomic::AtomicU64::new(0);
        let run_group = |g: &Group| {
            let first = &points[primaries[g.members[0]]];
            let _span = m3d_obs::span_named("batch", || {
                format!("{}x{}", first.profile.name, first.n_cores)
            });
            let outcomes = if self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
            {
                vec![Err(SimError::DeadlineExceeded); g.members.len()]
            } else {
                simulate_group(points, &primaries, g, &cycles, &capped)
            };
            let mut guard = slots.lock().expect("batch slots poisoned");
            for (slot, r) in g.members.iter().zip(outcomes) {
                guard[*slot] = Some(r);
            }
        };
        let lanes = self.jobs.min(groups.len());
        if lanes <= 1 {
            for g in &groups {
                run_group(g);
            }
        } else {
            let next = AtomicUsize::new(0);
            let task = m3d_obs::current_task();
            std::thread::scope(|scope| {
                for lane in 0..lanes {
                    let (next, groups, run_group, task) = (&next, &groups, &run_group, &task);
                    scope.spawn(move || {
                        m3d_obs::label_thread(format!("batch-worker-{lane}"));
                        let _task = task.as_ref().map(|t| t.enter());
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= groups.len() {
                                break;
                            }
                            run_group(&groups[k]);
                        }
                    });
                }
            });
        }
        stats.cycles = cycles.load(Ordering::Relaxed);
        stats.cap_exhausted = capped.load(Ordering::Relaxed);

        // Phase 5: scatter primaries and aliases back to input order and
        // refill the memo cache.
        let primary_results = slots.into_inner().expect("batch slots poisoned");
        for (slot, &i) in primaries.iter().enumerate() {
            results[i] = Some(
                primary_results[slot]
                    .clone()
                    .expect("every group member simulated"),
            );
        }
        for (i, slot) in aliases {
            results[i] = Some(
                primary_results[slot]
                    .clone()
                    .expect("alias primary simulated"),
            );
        }
        if self.use_cache {
            let mut cache = result_cache().lock().expect("batch result cache poisoned");
            for (slot, &i) in primaries.iter().enumerate() {
                if cache.len() >= RESULT_CACHE_CAP {
                    break;
                }
                if let Some(Ok(r)) = &primary_results[slot] {
                    cache.insert(keys[i], *r);
                }
            }
        }

        count_batch(&stats);

        let results = results
            .into_iter()
            .map(|r| r.expect("every point answered"))
            .collect();
        (results, stats)
    }

    /// Answer every point from the process-wide memo cache, or none of
    /// them. When each point is cached this returns the results in input
    /// order and counts the `uarch.batch.*` statistics exactly as a
    /// [`run_with_stats`](SimBatch::run_with_stats) call on the same points
    /// would (every point a hit, nothing simulated). On any miss, or for a
    /// runner built [`without_cache`](SimBatch::without_cache), it returns
    /// `None` and counts nothing, so the caller can fall back to a full run.
    ///
    /// The lookup is the same one `run_with_stats` starts with, so the
    /// answer is the one a full run would give. Deadlines play no part:
    /// memo hits are served past a deadline anyway.
    pub fn run_cached(&self, points: &[SimPoint]) -> Option<Vec<PerfResult>> {
        if !self.use_cache {
            return None;
        }
        let keys: Vec<PointKey> = points.iter().map(SimPoint::key).collect();
        let hits: Vec<PerfResult> = memo_lookup(&keys).into_iter().collect::<Option<_>>()?;
        count_batch(&BatchStats {
            points: hits.len() as u64,
            cache_hits: hits.len() as u64,
            ..BatchStats::default()
        });
        Some(hits)
    }
}

/// Look every key up in the process-wide memo cache under one lock round.
fn memo_lookup(keys: &[PointKey]) -> Vec<Option<PerfResult>> {
    let cache = result_cache().lock().expect("batch result cache poisoned");
    keys.iter().map(|k| cache.get(k).copied()).collect()
}

/// Add one batch's statistics to the `uarch.batch.*` m3d-obs counters.
fn count_batch(stats: &BatchStats) {
    m3d_obs::add("uarch.batch.points", stats.points);
    m3d_obs::add("uarch.batch.cache_hits", stats.cache_hits);
    m3d_obs::add("uarch.batch.checkpoint_reuses", stats.checkpoint_reuses);
    m3d_obs::add("uarch.batch.cycles", stats.cycles);
    m3d_obs::add("uarch.batch.cap_exhausted", stats.cap_exhausted);
}

/// Simulate one warm-up group: build the machine, warm it once, then run
/// each member's measured interval on a clone of the checkpoint (the last
/// member consumes the original).
fn simulate_group(
    points: &[SimPoint],
    primaries: &[usize],
    g: &Group,
    cycles: &std::sync::atomic::AtomicU64,
    capped: &std::sync::atomic::AtomicU64,
) -> Vec<Result<PerfResult, SimError>> {
    let first = &points[primaries[g.members[0]]];
    let built = Multicore::try_new(
        first.config.clone(),
        &first.profile,
        first.seed,
        first.n_cores,
    );
    let mut machine = match built {
        Ok(m) => Some(m),
        Err(e) => return vec![Err(e); g.members.len()],
    };
    if first.interval.warmup > 0 {
        let w = machine
            .as_mut()
            .expect("machine built")
            .run(first.interval.warmup);
        cycles.fetch_add(w.cycles, Ordering::Relaxed);
    }
    let last = g.members.len() - 1;
    g.members
        .iter()
        .enumerate()
        .map(|(k, &slot)| {
            let mut m = if k == last {
                // The final member consumes the checkpoint: no clone.
                machine.take().expect("checkpoint consumed once")
            } else {
                machine.clone().expect("checkpoint live until last member")
            };
            let r = m.run(points[primaries[slot]].interval.measure);
            cycles.fetch_add(r.cycles, Ordering::Relaxed);
            if r.cap_exhausted {
                capped.fetch_add(1, Ordering::Relaxed);
            }
            Ok(r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_workloads::parallel::parallel_by_name;
    use m3d_workloads::spec::spec_by_name;

    // Seeds are namespaced per test: the memo cache is process-wide and
    // tests in this binary run concurrently.
    fn single(app: &str, seed: u64, cfg: CoreConfig, warmup: u64, measure: u64) -> SimPoint {
        SimPoint::single(
            cfg,
            spec_by_name(app).expect("profile"),
            seed,
            SimInterval { warmup, measure },
        )
    }

    fn multi(app: &str, seed: u64, n_cores: usize, warmup: u64, measure: u64) -> SimPoint {
        SimPoint::multi(
            CoreConfig::base_2d(),
            parallel_by_name(app).expect("profile"),
            seed,
            n_cores,
            SimInterval { warmup, measure },
        )
    }

    fn mixed_points(seed: u64) -> Vec<SimPoint> {
        vec![
            single("Gcc", seed, CoreConfig::base_2d(), 8_000, 6_000),
            single("Mcf", seed, CoreConfig::base_2d().with_3d_paths(), 8_000, 6_000),
            // Same warm key as the first point, different measure window:
            // one warm-up group of two.
            single("Gcc", seed, CoreConfig::base_2d(), 8_000, 9_000),
            multi("Ocean", seed, 2, 6_000, 5_000),
            // Exact duplicate of the first point: a deterministic hit.
            single("Gcc", seed, CoreConfig::base_2d(), 8_000, 6_000),
        ]
    }

    #[test]
    fn shard_slicing_is_a_stable_partition() {
        // Pinned arithmetic: the router's key-slice contract. These
        // values must never change — a shard daemon's memo cache owns
        // its slice across releases.
        assert_eq!(shard_of_key((0, 99), 1), 0);
        assert_eq!(shard_of_key((u64::MAX, 0), 1), 0);
        assert_eq!(shard_of_key((0x7FFF_FFFF_FFFF_FFFF, 0), 2), 0);
        assert_eq!(shard_of_key((0x8000_0000_0000_0000, 0), 2), 1);
        assert_eq!(shard_of_key((u64::MAX, 0), 3), 2);
        assert_eq!(shard_slice(0, 2), (0, 0x7FFF_FFFF_FFFF_FFFF));
        assert_eq!(shard_slice(1, 2), (0x8000_0000_0000_0000, u64::MAX));
        // shard_slice is the exact inverse of shard_of_key, and the
        // slices are contiguous over the whole keyspace.
        for shards in [1usize, 2, 3, 5, 7, 16] {
            let mut expect_lo = 0u64;
            for s in 0..shards {
                let (lo, hi) = shard_slice(s, shards);
                assert_eq!(lo, expect_lo, "contiguous at shard {s}/{shards}");
                assert!(lo <= hi);
                assert_eq!(shard_of_key((lo, 0), shards), s);
                assert_eq!(shard_of_key((hi, 0), shards), s);
                if s + 1 < shards {
                    assert_eq!(shard_of_key((hi + 1, 0), shards), s + 1);
                    expect_lo = hi + 1;
                } else {
                    assert_eq!(hi, u64::MAX, "last slice ends the keyspace");
                }
            }
        }
        // SimPoint::shard_of goes through the same fingerprint as the
        // memo cache, so equal points route identically and the shard
        // index is always in range.
        let p = single("Gcc", 7, CoreConfig::base_2d(), 8_000, 6_000);
        for shards in [1usize, 2, 3] {
            let s = p.shard_of(shards);
            assert!(s < shards);
            assert_eq!(s, shard_of_key(p.key(), shards));
        }
    }

    #[test]
    fn results_are_identical_across_jobs() {
        let pts = mixed_points(0xBA7C_0001);
        let (serial, s1) = SimBatch::new(1).without_cache().run_with_stats(&pts);
        let (parallel, s4) = SimBatch::new(4).without_cache().run_with_stats(&pts);
        assert_eq!(serial, parallel);
        assert_eq!(s1, s4, "stats must be schedule-independent");
        assert_eq!(s1.points, 5);
        assert_eq!(s1.cache_hits, 1, "the in-batch duplicate");
        assert_eq!(s1.checkpoint_reuses, 1, "the shared warm-up");
        assert!(s1.cycles > 0);
    }

    #[test]
    fn batch_matches_direct_simulation() {
        // The guarantee the driver ports rely on: a batch point is exactly
        // "fresh machine, run(warmup), run(measure)".
        let seed = 0xBA7C_0002;
        let pt = single("Hmmer", seed, CoreConfig::base_2d(), 10_000, 8_000);
        let got = SimBatch::new(2).without_cache().run(std::slice::from_ref(&pt));
        let mut core = Multicore::new(pt.config.clone(), &pt.profile, seed, 1);
        let _ = core.run(10_000);
        let want = core.run(8_000);
        assert_eq!(got[0].as_ref().expect("ok"), &want);

        let mpt = multi("Fft", seed, 2, 6_000, 5_000);
        let got = SimBatch::new(2).without_cache().run(std::slice::from_ref(&mpt));
        let mut mc = Multicore::new(mpt.config.clone(), &mpt.profile, seed, 2);
        let _ = mc.run(6_000);
        let want = mc.run(5_000);
        assert_eq!(got[0].as_ref().expect("ok"), &want);
    }

    #[test]
    fn checkpoint_resume_matches_cold_run() {
        // Two points sharing a warm-up group: the second resumes the
        // checkpoint, and must equal a cold warm-up + measure run.
        let seed = 0xBA7C_0003;
        let pts = vec![
            single("Bzip2", seed, CoreConfig::base_2d(), 9_000, 5_000),
            single("Bzip2", seed, CoreConfig::base_2d(), 9_000, 7_500),
        ];
        let (rs, stats) = SimBatch::new(2).without_cache().run_with_stats(&pts);
        assert_eq!(stats.checkpoint_reuses, 1);
        for pt in &pts {
            let mut core = Multicore::new(pt.config.clone(), &pt.profile, seed, 1);
            let _ = core.run(pt.interval.warmup);
            let want = core.run(pt.interval.measure);
            let got = rs[pts
                .iter()
                .position(|p| p == pt)
                .expect("point present")]
            .as_ref()
            .expect("ok");
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn memo_cache_short_circuits_repeat_runs() {
        let seed = 0xBA7C_0004;
        let pts = vec![
            single("Sjeng", seed, CoreConfig::base_2d(), 7_000, 5_000),
            single("Lbm", seed, CoreConfig::base_2d(), 7_000, 5_000),
        ];
        let batch = SimBatch::new(2);
        let (first, s0) = batch.run_with_stats(&pts);
        assert_eq!(s0.cache_hits, 0);
        assert!(s0.cycles > 0);
        let (second, s1) = batch.run_with_stats(&pts);
        assert_eq!(s1.cache_hits, 2, "every point memoized");
        assert_eq!(s1.cycles, 0, "no simulation on a full cache hit");
        assert_eq!(s1.checkpoint_reuses, 0);
        assert_eq!(first, second);
    }

    #[test]
    fn cached_lookup_is_all_or_nothing() {
        let seed = 0xBA7C_0008;
        let warm = single("Astar", seed, CoreConfig::base_2d(), 6_000, 4_000);
        let cold = single("Astar", seed + 1, CoreConfig::base_2d(), 6_000, 4_000);
        let batch = SimBatch::new(1);
        assert_eq!(batch.run_cached(std::slice::from_ref(&warm)), None);
        let full = batch.run(std::slice::from_ref(&warm));
        let pts = [warm.clone(), warm.clone()];
        let hits = batch.run_cached(&pts).expect("every point memoized");
        assert_eq!(hits.len(), 2);
        assert_eq!(Ok(hits[0]), full[0], "a cached answer equals the full run's");
        assert_eq!(
            hits.into_iter().map(Ok).collect::<Vec<_>>(),
            batch.run(&pts)
        );
        // One unseen point sends the whole request down the full path.
        assert_eq!(batch.run_cached(&[warm.clone(), cold]), None);
        assert_eq!(SimBatch::new(1).without_cache().run_cached(&pts), None);
    }

    #[test]
    fn livelock_cap_propagates_through_batch() {
        let seed = 0xBA7C_0005;
        let mut cfg = CoreConfig::base_2d();
        cfg.dram_ns = 1.0e6; // one DRAM access outlives the whole cap
        let pts = vec![single("Mcf", seed, cfg, 0, 1_000)];
        let (rs, stats) = SimBatch::new(1).without_cache().run_with_stats(&pts);
        let r = rs[0].as_ref().expect("simulates, but truncated");
        assert!(r.cap_exhausted);
        assert!(r.instructions < 1_000);
        assert_eq!(stats.cap_exhausted, 1);
    }

    #[test]
    fn invalid_points_fail_typed_without_poisoning_the_batch() {
        let seed = 0xBA7C_0006;
        let mut bad_cfg = CoreConfig::base_2d();
        bad_cfg.bpred_entries = 999;
        let pts = vec![
            single("Gobmk", seed, bad_cfg, 5_000, 4_000),
            single("Gobmk", seed, CoreConfig::base_2d(), 5_000, 4_000),
        ];
        let rs = SimBatch::new(2).without_cache().run(&pts);
        assert_eq!(
            rs[0],
            Err(SimError::PredictorGeometry { entries: 999 })
        );
        assert!(rs[1].is_ok(), "healthy points are unaffected");

        let zero = SimPoint::multi(
            CoreConfig::base_2d(),
            parallel_by_name("Ocean").expect("profile"),
            seed,
            0,
            SimInterval {
                warmup: 0,
                measure: 100,
            },
        );
        assert_eq!(
            SimBatch::new(1).without_cache().run(&[zero])[0],
            Err(SimError::ZeroCores)
        );
    }

    #[test]
    fn expired_deadline_cancels_unstarted_groups() {
        let seed = 0xBA7C_0007;
        let pts = vec![single("Gcc", seed, CoreConfig::base_2d(), 5_000, 4_000)];
        let past = std::time::Instant::now();
        let rs = SimBatch::new(1)
            .without_cache()
            .with_deadline(past)
            .run(&pts);
        assert_eq!(rs[0], Err(SimError::DeadlineExceeded));
        // Warm the memo cache, then the same expired deadline still
        // answers: hits cost no simulation time and are never cancelled.
        let rs = SimBatch::new(1).run(&pts);
        assert!(rs[0].is_ok());
        let rs = SimBatch::new(1).with_deadline(past).run(&pts);
        assert!(rs[0].is_ok(), "memo hits are served past the deadline");
        assert!(result_cache_len() >= 1);
    }

    #[test]
    fn keys_separate_every_tuple_component() {
        let base = single("Gcc", 1, CoreConfig::base_2d(), 1_000, 2_000);
        assert_eq!(base.key(), base.clone().key());
        let mut other = base.clone();
        other.seed = 2;
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.config = other.config.with_frequency(4.34);
        assert_ne!(base.warm_key(), other.warm_key());
        let mut other = base.clone();
        other.interval.measure = 2_001;
        assert_ne!(base.key(), other.key());
        assert_eq!(
            base.warm_key(),
            other.warm_key(),
            "measure must not enter the warm key"
        );
        let mut other = base.clone();
        other.interval.warmup = 999;
        assert_ne!(base.warm_key(), other.warm_key());
    }
}
