//! A bounded, lock-sharded flight recorder for structured request
//! records.
//!
//! Serving layers push one [`FlightRecord`] per finished request; the
//! recorder keeps the most recent `capacity` of them in a ring
//! (drop-oldest) so a warm daemon can always answer "what did the last N
//! requests actually do" without unbounded memory. The ring is split
//! into [`SHARDS`] independently-locked segments and records are routed
//! by sequence number, so concurrent writers from different worker
//! threads rarely contend on the same mutex. Evictions are counted and
//! exposed ([`FlightRecorder::dropped`]) — a reader can tell how much
//! history slid past between polls.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently-locked ring segments.
const SHARDS: usize = 8;

/// One completed request, as observed by the serving layer.
///
/// Every field is plain data (no heap beyond the struct itself except the
/// borrowed static strings), so pushing a record is one small clone under
/// one shard lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number assigned by the recorder at push time.
    pub seq: u64,
    /// Request id as sent by the client (recorders may reuse `-1` for
    /// requests whose id never parsed).
    pub id: i64,
    /// Wire method name (`"sim"`, `"plan"`, ...).
    pub method: &'static str,
    /// Request start, microseconds on the recorder owner's timeline.
    pub start_us: u64,
    /// Bytes in the request line.
    pub req_bytes: u64,
    /// Bytes in the (final) response line.
    pub resp_bytes: u64,
    /// Microseconds spent queued before a worker claimed the request.
    pub queue_us: u64,
    /// Microseconds spent executing the request once claimed.
    pub handle_us: u64,
    /// Number of requests coalesced into the batch that served this one
    /// (1 when served alone, 0 when it never reached a batch).
    pub batch: u32,
    /// Outcome kind: `"ok"` or a wire error kind (`"deadline"`,
    /// `"overloaded"`, `"write_error"`, ...).
    pub outcome: &'static str,
}

/// A bounded drop-oldest ring of [`FlightRecord`]s, sharded 8 ways by
/// sequence number.
#[derive(Debug)]
pub struct FlightRecorder {
    seq: AtomicU64,
    dropped: AtomicU64,
    shard_cap: usize,
    shards: Vec<Mutex<VecDeque<FlightRecord>>>,
}

impl FlightRecorder {
    /// A recorder retaining (about) the `capacity` most recent records.
    /// Capacity is rounded up to a multiple of the shard count (minimum
    /// one record per shard).
    pub fn new(capacity: usize) -> Self {
        let shard_cap = capacity.div_ceil(SHARDS).max(1);
        Self {
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shard_cap,
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Total records the ring retains before evicting.
    pub fn capacity(&self) -> usize {
        self.shard_cap * SHARDS
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("flight shard").len())
            .sum()
    }

    /// Whether no record has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted so far to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Append a record (its `seq` field is overwritten with the assigned
    /// sequence number, which is returned). Evicts the oldest record in
    /// the target shard when that shard is full.
    pub fn push(&self, mut rec: FlightRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        rec.seq = seq;
        let shard = &self.shards[(seq % SHARDS as u64) as usize];
        let mut ring = shard.lock().expect("flight shard");
        if ring.len() == self.shard_cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
        seq
    }

    /// The `n` most recent records, newest first.
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("flight shard")
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: i64) -> FlightRecord {
        FlightRecord {
            seq: 0,
            id,
            method: "sim",
            start_us: id as u64,
            req_bytes: 100,
            resp_bytes: 200,
            queue_us: 5,
            handle_us: 50,
            batch: 1,
            outcome: "ok",
        }
    }

    #[test]
    fn recent_returns_newest_first() {
        let fr = FlightRecorder::new(64);
        for i in 0..20 {
            fr.push(rec(i));
        }
        assert_eq!(fr.len(), 20);
        assert_eq!(fr.dropped(), 0);
        let recent = fr.recent(5);
        let ids: Vec<i64> = recent.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![19, 18, 17, 16, 15]);
        // seq strictly descending and consistent with push order.
        assert!(recent.windows(2).all(|w| w[0].seq > w[1].seq));
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let fr = FlightRecorder::new(16); // 2 per shard
        assert_eq!(fr.capacity(), 16);
        for i in 0..40 {
            fr.push(rec(i));
        }
        assert_eq!(fr.len(), 16);
        assert_eq!(fr.dropped(), 24);
        // Exactly the 16 newest survive, regardless of shard layout.
        let ids: Vec<i64> = fr.recent(100).iter().map(|r| r.id).collect();
        assert_eq!(ids, (24..40).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn concurrent_pushes_assign_unique_seqs() {
        let fr = FlightRecorder::new(1024);
        std::thread::scope(|s| {
            for t in 0..4 {
                let fr = &fr;
                s.spawn(move || {
                    for i in 0..100 {
                        fr.push(rec((t * 100 + i) as i64));
                    }
                });
            }
        });
        assert_eq!(fr.len(), 400);
        let mut seqs: Vec<u64> = fr.recent(400).iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 400);
    }

    #[test]
    fn tiny_capacity_still_works() {
        let fr = FlightRecorder::new(1); // rounds up to 1 per shard
        assert_eq!(fr.capacity(), SHARDS);
        assert!(fr.is_empty());
        fr.push(rec(1));
        assert!(!fr.is_empty());
    }
}
