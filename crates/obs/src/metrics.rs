//! Named counters, log₂-scaled histograms, and per-task attribution.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// While a histogram holds at most this many values, the raw samples are
/// retained alongside the buckets so quantile queries are **exact**.
/// Beyond the cap the sample buffer is dropped (bounding memory) and
/// quantiles fall back to the log₂-bucket estimate.
pub const EXACT_QUANTILE_CAP: usize = 64;

/// A log₂-bucketed histogram: values are folded into buckets keyed by
/// `value.log2().floor()` (clamped), which covers the whole positive f64
/// range in ~2100 sparse buckets while keeping residuals around `1e-5` and
/// iteration counts around `1e4` equally well resolved.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: BTreeMap<i32, u64>,
    /// Raw samples, kept only while `count <= EXACT_QUANTILE_CAP`.
    exact: Vec<f64>,
}

/// The log₂ bucket a value falls into. Non-finite and non-positive values
/// land in the dedicated lowest bucket (they still count towards `count`
/// but not `min`/`max`/`sum` semantics beyond the raw addition).
fn bucket_of(value: f64) -> i32 {
    if value.is_finite() && value > 0.0 {
        value.log2().floor().clamp(-1080.0, 1080.0) as i32
    } else {
        i32::MIN
    }
}

impl Histogram {
    pub(crate) fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
        if self.count <= EXACT_QUANTILE_CAP as u64 {
            self.exact.push(value);
        } else if !self.exact.is_empty() {
            self.exact = Vec::new();
        }
    }

    /// Fold `other` into `self` — the [`WindowedHistogram`] read path.
    /// The exact-sample buffer survives only when both sides still hold
    /// their full sample sets and the union stays under the cap.
    ///
    /// [`WindowedHistogram`]: crate::WindowedHistogram
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if self.exact.len() as u64 == self.count
            && other.exact.len() as u64 == other.count
            && self.count + other.count <= EXACT_QUANTILE_CAP as u64
        {
            self.exact.extend_from_slice(&other.exact);
        } else {
            self.exact = Vec::new();
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, c) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += c;
        }
    }

    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.iter().map(|(b, c)| (*b, *c)).collect(),
            exact: self.exact.clone(),
        }
    }
}

/// One histogram's exported state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name (dot-separated, e.g. `thermal.residual_k`).
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Sparse `(log2 bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(i32, u64)>,
    /// Raw samples, populated only while `count <=`
    /// [`EXACT_QUANTILE_CAP`] (empty beyond, and empty after a JSON
    /// round-trip — the buffer is in-process fidelity, never serialized).
    pub exact: Vec<f64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` clamped to `0.0..=1.0`) of the
    /// recorded values; 0.0 when empty.
    ///
    /// **Exact** (nearest-rank over the retained raw samples) while the
    /// histogram holds at most [`EXACT_QUANTILE_CAP`] values. Beyond
    /// that, the estimate comes from the log₂ buckets: the true quantile
    /// lies somewhere in the same `[2^b, 2^{b+1})` bucket as the
    /// estimate, so the result is within a **factor of 2** of the true
    /// value (log-midpoint interpolation inside the bucket), and
    /// clamping to the recorded `min`/`max` keeps the extreme quantiles
    /// tight. Non-positive and non-finite samples live in a sentinel
    /// bucket below every real one; a quantile landing there answers the
    /// recorded minimum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if self.exact.len() as u64 == self.count {
            let mut sorted = self.exact.clone();
            sorted.sort_by(f64::total_cmp);
            return sorted[(rank - 1) as usize];
        }
        let mut below = 0u64;
        for (b, c) in &self.buckets {
            if below + c >= rank {
                if *b == i32::MIN {
                    return self.min;
                }
                let lo = (*b as f64).exp2();
                let pos = (rank - below) as f64 - 0.5;
                let est = lo * (pos / *c as f64).exp2();
                return est.max(self.min).min(self.max);
            }
            below += c;
        }
        self.max
    }
}

/// A point-in-time copy of every counter and histogram in a store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, ascending by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters add, histograms fold bucket-wise.
    /// Used to aggregate per-experiment snapshots into a run-wide total.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for h in &other.histograms {
            match self
                .histograms
                .binary_search_by(|mine| mine.name.cmp(&h.name))
            {
                Ok(i) => {
                    let mine = &mut self.histograms[i];
                    if mine.count == 0 {
                        *mine = h.clone();
                        continue;
                    }
                    if h.count == 0 {
                        continue;
                    }
                    if mine.exact.len() as u64 == mine.count
                        && h.exact.len() as u64 == h.count
                        && mine.count + h.count <= EXACT_QUANTILE_CAP as u64
                    {
                        mine.exact.extend_from_slice(&h.exact);
                    } else {
                        mine.exact = Vec::new();
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                    for (b, c) in &h.buckets {
                        match mine.buckets.binary_search_by(|(mb, _)| mb.cmp(b)) {
                            Ok(j) => mine.buckets[j].1 += c,
                            Err(j) => mine.buckets.insert(j, (*b, *c)),
                        }
                    }
                }
                Err(i) => self.histograms.insert(i, h.clone()),
            }
        }
    }
}

/// The global store: counters behind shared atomics (with a thread-local
/// handle cache so the steady-state `add` takes no lock), histograms behind
/// one mutex (recorded at solve granularity, not per sweep).
///
/// A counter, once named, lives as long as the process ([`reset`] only
/// zeroes it). Names are `&'static str`s, so the set is finite and each
/// counter's atomic is leaked once and shared as a plain `&'static`.
#[derive(Default)]
struct Store {
    counters: Mutex<BTreeMap<&'static str, &'static AtomicU64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(Store::default)
}

/// Hashes the `(address, length)` key of the thread-local counter cache:
/// one multiply per word, and no pass over the name's bytes.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(b.into());
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(32) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; fold the high half down so the
        // table's bucket index (the low bits) sees every input bit.
        self.0 ^ (self.0 >> 32)
    }
}

/// A counter name's identity in the thread-local cache: the literal's
/// address and length. Two copies of one literal get two entries that
/// resolve, through the name-keyed registry, to the same counter.
type NameAddr = (usize, usize);

thread_local! {
    static COUNTER_CACHE: RefCell<HashMap<NameAddr, &'static AtomicU64, BuildHasherDefault<AddrHasher>>> =
        RefCell::new(HashMap::default());
    static CURRENT_TASK: RefCell<Vec<TaskMetrics>> = const { RefCell::new(Vec::new()) };
}

fn counter_handle(name: &'static str) -> &'static AtomicU64 {
    let addr = (name.as_ptr() as usize, name.len());
    COUNTER_CACHE.with(|cache| {
        if let Some(&h) = cache.borrow().get(&addr) {
            return h;
        }
        let h: &'static AtomicU64 = store()
            .counters
            .lock()
            .expect("obs counter registry")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::default()));
        cache.borrow_mut().insert(addr, h);
        h
    })
}

/// Add `delta` to the named counter (and to the current task's copy, when a
/// task is entered on this thread). No-op while collection is disabled.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !crate::is_enabled() {
        return;
    }
    add_slow(name, delta);
}

#[cold]
fn add_slow(name: &'static str, delta: u64) {
    counter_handle(name).fetch_add(delta, Ordering::Relaxed);
    CURRENT_TASK.with(|stack| {
        if let Some(task) = stack.borrow().last() {
            task.add_local(name, delta);
        }
    });
}

/// Record `value` into the named log₂ histogram (and the current task's
/// copy). No-op while collection is disabled.
#[inline]
pub fn record(name: &'static str, value: f64) {
    if !crate::is_enabled() {
        return;
    }
    record_slow(name, value);
}

#[cold]
fn record_slow(name: &'static str, value: f64) {
    store()
        .histograms
        .lock()
        .expect("obs histogram registry")
        .entry(name)
        .or_default()
        .record(value);
    CURRENT_TASK.with(|stack| {
        if let Some(task) = stack.borrow().last() {
            task.record_local(name, value);
        }
    });
}

/// Snapshot the global store (counters with value 0 are omitted).
pub fn snapshot() -> MetricsSnapshot {
    let counters = store()
        .counters
        .lock()
        .expect("obs counter registry")
        .iter()
        .map(|(n, v)| ((*n).to_owned(), v.load(Ordering::Relaxed)))
        .filter(|(_, v)| *v != 0)
        .collect();
    let histograms = store()
        .histograms
        .lock()
        .expect("obs histogram registry")
        .iter()
        .filter(|(_, h)| h.count != 0)
        .map(|(n, h)| h.snapshot(n))
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

pub(crate) fn reset() {
    for v in store()
        .counters
        .lock()
        .expect("obs counter registry")
        .values()
    {
        v.store(0, Ordering::Relaxed);
    }
    store()
        .histograms
        .lock()
        .expect("obs histogram registry")
        .clear();
}

/// A named task-scoped metrics accumulator.
///
/// An experiment creates one, [`enter`](TaskMetrics::enter)s it on every
/// thread doing that experiment's work, and takes a
/// [`snapshot`](TaskMetrics::snapshot) at the end. All `add`/`record` calls
/// made while a task is the innermost entered task on the calling thread
/// are mirrored into it, giving exact per-experiment counters even when
/// several experiments share the process concurrently.
#[derive(Debug, Clone)]
pub struct TaskMetrics {
    inner: Arc<TaskInner>,
}

#[derive(Debug)]
struct TaskInner {
    name: String,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl TaskMetrics {
    /// A fresh, empty task.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            inner: Arc::new(TaskInner {
                name: name.into(),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Make this the current task on the calling thread until the returned
    /// guard drops. Nestable; the innermost entered task wins.
    pub fn enter(&self) -> TaskGuard {
        CURRENT_TASK.with(|stack| stack.borrow_mut().push(self.clone()));
        TaskGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    fn add_local(&self, name: &'static str, delta: u64) {
        *self
            .inner
            .counters
            .lock()
            .expect("obs task counters")
            .entry(name)
            .or_insert(0) += delta;
    }

    fn record_local(&self, name: &'static str, value: f64) {
        self.inner
            .histograms
            .lock()
            .expect("obs task histograms")
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Snapshot everything attributed to this task so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("obs task counters")
            .iter()
            .map(|(n, v)| ((*n).to_owned(), *v))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("obs task histograms")
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// The task entered innermost on the calling thread, if any. Worker pools
/// capture this before spawning and re-`enter` it inside each worker so
/// fan-out work stays attributed to the right experiment.
pub fn current_task() -> Option<TaskMetrics> {
    CURRENT_TASK.with(|stack| stack.borrow().last().cloned())
}

/// Pops the entered task when dropped. Deliberately `!Send`: a guard must
/// drop on the thread that entered the task.
#[derive(Debug)]
pub struct TaskGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        CURRENT_TASK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        add("test.metrics.sum", 2);
                    }
                });
            }
        });
        assert_eq!(snapshot().counter("test.metrics.sum"), Some(800));
        crate::disable();
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        for v in [0.5, 1.0, 1.5, 4.0, 1e-5, 0.0] {
            record("test.metrics.hist", v);
        }
        let snap = snapshot();
        let h = snap.histogram("test.metrics.hist").expect("recorded");
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - (0.5 + 1.0 + 1.5 + 4.0 + 1e-5) / 6.0).abs() < 1e-12);
        // 1.0 and 1.5 share the 2^0 bucket; 0.0 goes to the sentinel bucket.
        let count_at = |b: i32| h.buckets.iter().find(|(k, _)| *k == b).map(|(_, c)| *c);
        assert_eq!(count_at(0), Some(2));
        assert_eq!(count_at(-1), Some(1)); // 0.5
        assert_eq!(count_at(2), Some(1)); // 4.0
        assert_eq!(count_at(i32::MIN), Some(1)); // 0.0
        crate::disable();
    }

    #[test]
    fn bucket_function_handles_extremes() {
        assert_eq!(bucket_of(f64::NAN), i32::MIN);
        assert_eq!(bucket_of(f64::NEG_INFINITY), i32::MIN);
        assert_eq!(bucket_of(-3.0), i32::MIN);
        assert_eq!(bucket_of(f64::MIN_POSITIVE), -1022);
        // f64::MAX.log2() rounds up to exactly 1024.0 in f64 arithmetic.
        assert_eq!(bucket_of(f64::MAX), 1024);
        assert_eq!(bucket_of(8.0), 3);
    }

    #[test]
    fn tasks_attribute_exactly_and_propagate() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        let a = TaskMetrics::new("task-a");
        let b = TaskMetrics::new("task-b");
        {
            let _ga = a.enter();
            add("test.task.n", 1);
            // A worker thread picks up the current task explicitly.
            let cur = current_task().expect("task entered");
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = cur.enter();
                    add("test.task.n", 10);
                    record("test.task.h", 2.0);
                });
            });
        }
        {
            let _gb = b.enter();
            add("test.task.n", 100);
        }
        add("test.task.n", 1000); // no task entered: global only
        assert_eq!(a.snapshot().counter("test.task.n"), Some(11));
        assert_eq!(
            a.snapshot().histogram("test.task.h").map(|h| h.count),
            Some(1)
        );
        assert_eq!(b.snapshot().counter("test.task.n"), Some(100));
        assert!(b.snapshot().histogram("test.task.h").is_none());
        assert_eq!(snapshot().counter("test.task.n"), Some(1111));
        crate::disable();
    }

    #[test]
    fn nested_tasks_innermost_wins() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        let outer = TaskMetrics::new("outer");
        let inner = TaskMetrics::new("inner");
        let _go = outer.enter();
        {
            let _gi = inner.enter();
            add("test.nest.n", 5);
            assert_eq!(current_task().expect("inner").name(), "inner");
        }
        add("test.nest.n", 2);
        assert_eq!(inner.snapshot().counter("test.nest.n"), Some(5));
        assert_eq!(outer.snapshot().counter("test.nest.n"), Some(2));
        crate::disable();
    }

    #[test]
    fn snapshot_is_sorted_and_omits_zeros() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        add("test.sort.b", 1);
        add("test.sort.a", 1);
        add("test.sort.zero", 0);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("test.sort.zero"), None);
        crate::disable();
    }

    #[test]
    fn quantiles_are_exact_below_the_cap() {
        let mut h = Histogram::default();
        for v in 1..=50u32 {
            h.record(v as f64);
        }
        let snap = h.snapshot("q");
        assert_eq!(snap.exact.len(), 50);
        assert_eq!(snap.quantile(0.0), 1.0);
        assert_eq!(snap.quantile(0.5), 25.0);
        assert_eq!(snap.quantile(0.9), 45.0);
        assert_eq!(snap.quantile(1.0), 50.0);
        // Out-of-range q clamps.
        assert_eq!(snap.quantile(7.0), 50.0);
        assert_eq!(Histogram::default().snapshot("e").quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_above_the_cap_stay_within_a_factor_of_two() {
        let mut h = Histogram::default();
        for v in 1..=1000u32 {
            h.record(v as f64);
        }
        let snap = h.snapshot("q");
        assert!(snap.exact.is_empty(), "cap must drop the raw samples");
        for (q, truth) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = snap.quantile(q);
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "q={q}: est {est} vs true {truth}"
            );
        }
        // Extremes clamp to the recorded range.
        assert_eq!(snap.quantile(1.0), 1000.0);
        assert!(snap.quantile(0.001) >= 1.0);
    }

    #[test]
    fn quantile_sentinel_bucket_answers_the_minimum() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(8.0);
        let snap = h.snapshot("q");
        // rank 1 and 2 land in the sentinel bucket.
        assert_eq!(snap.quantile(0.3), -3.0);
        assert_eq!(snap.quantile(1.0), 8.0);
    }

    #[test]
    fn histogram_merge_preserves_small_exact_sets_and_drops_large_ones() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [1.0, 2.0, 3.0] {
            a.record(v);
        }
        for v in [10.0, 20.0] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.exact.len(), 5);
        assert_eq!(a.snapshot("m").quantile(1.0), 20.0);

        let mut big = Histogram::default();
        for v in 0..EXACT_QUANTILE_CAP {
            big.record(v as f64 + 1.0);
        }
        a.merge(&big);
        assert_eq!(a.count, 5 + EXACT_QUANTILE_CAP as u64);
        assert!(a.exact.is_empty(), "union over the cap drops samples");
    }

    #[test]
    fn snapshot_merge_folds_everything() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(1.0);
        b.record(8.0);
        b.record(0.25);
        let mut sa = MetricsSnapshot {
            counters: vec![("n.a".into(), 2), ("n.b".into(), 3)],
            histograms: vec![a.snapshot("m")],
        };
        let sb = MetricsSnapshot {
            counters: vec![("n.b".into(), 10), ("n.c".into(), 1)],
            histograms: vec![b.snapshot("m"), b.snapshot("other")],
        };
        sa.merge_from(&sb);
        assert_eq!(sa.counter("n.a"), Some(2));
        assert_eq!(sa.counter("n.b"), Some(13));
        assert_eq!(sa.counter("n.c"), Some(1));
        let m = sa.histogram("m").expect("merged");
        assert_eq!(m.count, 3);
        assert_eq!(m.min, 0.25);
        assert_eq!(m.max, 8.0);
        assert_eq!(sa.histogram("other").map(|h| h.count), Some(2));
        // Merging into an empty snapshot copies everything.
        let mut empty = MetricsSnapshot::default();
        empty.merge_from(&sa);
        assert_eq!(empty, sa);
    }
}
