//! A set-associative, write-back, LRU cache model.

use crate::config::CacheConfig;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled (possibly evicting a line,
    /// whose address is reported when it was dirty).
    Miss {
        /// Dirty victim written back, if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Line metadata bit: the line holds valid data.
const M_VALID: u8 = 1 << 0;
/// Line metadata bit: the line has been written since fill.
const M_DIRTY: u8 = 1 << 1;

/// Set-associative cache with LRU replacement and write-back policy.
///
/// Line state is stored structure-of-arrays — parallel `tags`/`lru`/`meta`
/// columns indexed by `set * ways + way` — so the way scan on the access
/// fast path walks one dense `u64` array instead of striding over padded
/// per-line structs. `meta` packs the valid and dirty bits.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    tags: Vec<u64>,
    lru: Vec<u64>,
    meta: Vec<u8>,
    tick: u64,
    /// Accesses observed.
    pub accesses: u64,
    /// Misses observed.
    pub misses: u64,
}

impl Cache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a positive power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two, got {sets}"
        );
        let n = sets * cfg.ways;
        Self {
            cfg,
            sets,
            tags: vec![0; n],
            lru: vec![0; n],
            meta: vec![0; n],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes as u64;
        ((line as usize) & (self.sets - 1), line)
    }

    /// Access `addr`; fill on miss. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        self.accesses += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.cfg.ways;
        for i in base..base + self.cfg.ways {
            if self.meta[i] & M_VALID != 0 && self.tags[i] == tag {
                self.lru[i] = self.tick;
                if write {
                    self.meta[i] |= M_DIRTY;
                }
                return AccessOutcome::Hit;
            }
        }
        self.misses += 1;
        // Victim: invalid way first, else LRU.
        let mut victim = base;
        for i in base..base + self.cfg.ways {
            if self.meta[i] & M_VALID == 0 {
                victim = i;
                break;
            }
            if self.lru[i] < self.lru[victim] {
                victim = i;
            }
        }
        let wb = (self.meta[victim] & (M_VALID | M_DIRTY) == M_VALID | M_DIRTY).then(|| {
            // Reconstruct the victim's address.
            self.tags[victim] * self.cfg.line_bytes as u64
        });
        self.tags[victim] = tag;
        self.meta[victim] = M_VALID | if write { M_DIRTY } else { 0 };
        self.lru[victim] = self.tick;
        AccessOutcome::Miss { writeback: wb }
    }

    /// Probe without filling or touching LRU.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let base = set * self.cfg.ways;
        (base..base + self.cfg.ways).any(|i| self.meta[i] & M_VALID != 0 && self.tags[i] == tag)
    }

    /// Invalidate a line if present (coherence). Returns whether it was
    /// present and dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let base = set * self.cfg.ways;
        for i in base..base + self.cfg.ways {
            if self.meta[i] & M_VALID != 0 && self.tags[i] == tag {
                let was_dirty = self.meta[i] & M_DIRTY != 0;
                self.meta[i] = 0;
                return was_dirty;
            }
        }
        false
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            rt_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x1038, false).is_hit(), "same line");
    }

    #[test]
    fn lru_eviction() {
        let mut c = small(); // 8 sets, 2 ways
        let stride = 8 * 64; // same set
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh
        c.access(2 * stride, false); // evicts `stride`
        assert!(c.contains(0));
        assert!(!c.contains(stride));
        assert!(c.contains(2 * stride));
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = small();
        let stride = 8 * 64;
        c.access(0, true); // dirty
        c.access(stride, false);
        match c.access(2 * stride, false) {
            AccessOutcome::Miss { writeback: Some(a) } => assert_eq!(a, 0),
            other => panic!("expected writeback of line 0, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.access(0x40, true);
        assert!(c.invalidate(0x40));
        assert!(!c.contains(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn miss_rate_tracks() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_behaviour() {
        // A working set larger than the cache thrashes; a small one fits.
        let mut c = small(); // 1 KB
        for round in 0..4 {
            for a in (0..4096u64).step_by(64) {
                let out = c.access(a, false);
                if round > 0 {
                    assert!(!out.is_hit(), "4 KB set must thrash a 1 KB cache");
                }
            }
        }
        let mut c2 = small();
        let mut last_round_miss = 0;
        for round in 0..4 {
            for a in (0..512u64).step_by(64) {
                let out = c2.access(a, false);
                if round == 3 && !out.is_hit() {
                    last_round_miss += 1;
                }
            }
        }
        assert_eq!(last_round_miss, 0, "512 B set fits in 1 KB cache");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            ways: 1,
            line_bytes: 32,
            rt_cycles: 1,
        });
    }
}
