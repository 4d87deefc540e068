//! Branch prediction: tournament predictor and branch target buffer
//! (paper Table 9: 4K-entry selector/local/global tables, 4K-entry 4-way
//! BTB). Table 9's 32-entry RAS is a configuration parameter only
//! ([`crate::CoreConfig::ras_entries`]): the synthetic traces carry no
//! call/return pairs for a return address stack to predict.

/// A saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counter2(u8);

impl Counter2 {
    fn predict(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Tournament predictor: a selector table (indexed by PC ⊕ global history)
/// chooses between a local predictor (indexed by PC) and a global predictor
/// (indexed by PC ⊕ global history).
#[derive(Debug, Clone)]
pub struct Tournament {
    selector: Vec<Counter2>,
    local: Vec<Counter2>,
    global: Vec<Counter2>,
    history: u64,
    mask: u64,
}

impl Tournament {
    /// Build a predictor with `entries` per table (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            selector: vec![Counter2(1); entries],
            local: vec![Counter2(1); entries],
            global: vec![Counter2(1); entries],
            history: 0,
            mask: entries as u64 - 1,
        }
    }

    fn idx_local(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    fn idx_global(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predict the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        let l = self.local[self.idx_local(pc)].predict();
        let g = self.global[self.idx_global(pc)].predict();
        if self.selector[self.idx_global(pc)].predict() {
            g
        } else {
            l
        }
    }

    /// Update with the resolved outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let li = self.idx_local(pc);
        let gi = self.idx_global(pc);
        let l_correct = self.local[li].predict() == taken;
        let g_correct = self.global[gi].predict() == taken;
        // Selector trains toward whichever component was right.
        if g_correct != l_correct {
            self.selector[gi].update(g_correct);
        }
        self.local[li].update(taken);
        self.global[gi].update(taken);
        self.history = (self.history << 1) | u64::from(taken);
    }
}

/// Set-associative branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    targets: Vec<u64>,
    lru: Vec<u64>,
    tick: u64,
}

impl Btb {
    /// Build a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is divisible by `ways` and the set count is a
    /// power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            sets,
            ways,
            tags: vec![u64::MAX; entries],
            targets: vec![0; entries],
            lru: vec![0; entries],
            tick: 0,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    /// Look up the predicted target for `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.tick += 1;
        let s = self.set_of(pc);
        for w in 0..self.ways {
            let i = s * self.ways + w;
            if self.tags[i] == pc {
                self.lru[i] = self.tick;
                return Some(self.targets[i]);
            }
        }
        None
    }

    /// Install or refresh an entry.
    pub fn insert(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let s = self.set_of(pc);
        // Hit update first.
        for w in 0..self.ways {
            let i = s * self.ways + w;
            if self.tags[i] == pc {
                self.targets[i] = target;
                self.lru[i] = self.tick;
                return;
            }
        }
        // Evict LRU way.
        let mut victim = s * self.ways;
        for w in 1..self.ways {
            let i = s * self.ways + w;
            if self.lru[i] < self.lru[victim] {
                victim = i;
            }
        }
        self.tags[victim] = pc;
        self.targets[victim] = target;
        self.lru[victim] = self.tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter2(0);
        for _ in 0..10 {
            c.update(true);
        }
        assert!(c.predict());
        for _ in 0..10 {
            c.update(false);
        }
        assert!(!c.predict());
    }

    #[test]
    fn tournament_learns_bias() {
        let mut t = Tournament::new(4096);
        let pc = 0x400100;
        for _ in 0..50 {
            t.update(pc, true);
        }
        assert!(t.predict(pc));
    }

    #[test]
    fn tournament_learns_alternation_via_global() {
        // A strict alternating pattern is mispredicted by pure 2-bit local
        // counters but captured by history-based prediction.
        let mut t = Tournament::new(4096);
        let pc = 0x400200;
        let mut correct = 0;
        let mut total = 0;
        let mut taken = false;
        for i in 0..4000 {
            let p = t.predict(pc);
            if i > 1000 {
                total += 1;
                correct += u32::from(p == taken);
            }
            t.update(pc, taken);
            taken = !taken;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "alternating accuracy {acc}");
    }

    #[test]
    fn random_branches_are_hard() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut t = Tournament::new(4096);
        let pc = 0x400300;
        let mut correct = 0;
        for _ in 0..4000 {
            let taken = rng.gen::<bool>();
            correct += u32::from(t.predict(pc) == taken);
            t.update(pc, taken);
        }
        let acc = correct as f64 / 4000.0;
        assert!(acc < 0.65, "random accuracy {acc} should be near chance");
    }

    #[test]
    fn btb_hits_after_insert() {
        let mut b = Btb::new(4096, 4);
        b.insert(0x400100, 0x400800);
        assert_eq!(b.lookup(0x400100), Some(0x400800));
        assert_eq!(b.lookup(0x400104), None);
    }

    #[test]
    fn btb_evicts_lru() {
        let mut b = Btb::new(8, 2); // 4 sets x 2 ways
                                    // Three PCs mapping to the same set: stride by sets*4 = 16.
        let (p1, p2, p3) = (0x1000, 0x1010, 0x1020);
        b.insert(p1, 1);
        b.insert(p2, 2);
        let _ = b.lookup(p1); // refresh p1
        b.insert(p3, 3); // evicts p2
        assert_eq!(b.lookup(p1), Some(1));
        assert_eq!(b.lookup(p2), None);
        assert_eq!(b.lookup(p3), Some(3));
    }
}
