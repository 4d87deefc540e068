//! Memory hierarchy: private IL1/DL1/L2 (optionally a shared L2 per core
//! pair, Figure 4), a banked shared L3 with a MESI directory, a ring NoC,
//! and DRAM.
//!
//! Latencies are returned as a single round-trip cycle count per access —
//! the hierarchy is a latency model (no bandwidth contention), which is the
//! granularity the paper's comparisons need: the design points differ in
//! clock frequency (DRAM nanoseconds become more cycles), hop counts
//! (shared router stops), and L2 sharing.

use crate::cache::Cache;
use crate::config::CoreConfig;
use std::collections::HashMap;

/// MESI-style directory state for a (potentially) shared line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    /// One core holds the line modified.
    Modified(usize),
    /// Some set of cores share the line read-only.
    Shared(u32),
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Next-line prefetch fills issued.
    pub prefetches: u64,
    /// Total NoC flit-hops traversed.
    pub noc_hops: u64,
    /// Coherence invalidations sent.
    pub invalidations: u64,
    /// Dirty-data forwards between cores.
    pub forwards: u64,
}

/// The shared memory system for `n` cores.
///
/// `Clone` snapshots every cache and the coherence directory; the batch
/// engine relies on this when checkpointing warmed-up machines.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: CoreConfig,
    n_cores: usize,
    /// `core >> pair_shift` maps a core to its L2 / ring stop: 1 when core
    /// pairs share an L2 and a router stop (Figure 4), else 0. Precomputed
    /// so the per-access hot paths avoid re-branching on the config.
    pair_shift: u32,
    /// Ring stop count (`n_cores`, halved and rounded up when paired).
    stops: usize,
    il1: Vec<Cache>,
    dl1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    directory: HashMap<u64, DirState>,
    /// Statistics.
    pub stats: MemStats,
}

impl MemorySystem {
    /// Build the hierarchy for `n_cores` cores with a common configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn new(cfg: CoreConfig, n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        let n_l2 = if cfg.shared_l2_pairs {
            n_cores.div_ceil(2)
        } else {
            n_cores
        };
        // When two cores share their L2s (Figure 4), the combined L2 has
        // twice the capacity.
        let mut l2cfg = cfg.l2;
        if cfg.shared_l2_pairs && n_cores > 1 {
            l2cfg.size_bytes *= 2;
        }
        Self {
            il1: (0..n_cores).map(|_| Cache::new(cfg.il1)).collect(),
            dl1: (0..n_cores).map(|_| Cache::new(cfg.dl1)).collect(),
            l2: (0..n_l2).map(|_| Cache::new(l2cfg)).collect(),
            l3: (0..n_cores).map(|_| Cache::new(cfg.l3)).collect(),
            directory: HashMap::new(),
            stats: MemStats::default(),
            pair_shift: u32::from(cfg.shared_l2_pairs),
            stops: n_l2,
            cfg,
            n_cores,
        }
    }

    fn l2_index(&self, core: usize) -> usize {
        core >> self.pair_shift
    }

    /// Number of ring stops (cores pair up on one stop in 3D, Figure 4).
    pub fn ring_stops(&self) -> usize {
        self.stops
    }

    fn stop_of_core(&self, core: usize) -> usize {
        core >> self.pair_shift
    }

    fn home_stop(&self, line: u64) -> usize {
        (line as usize) % self.stops
    }

    fn ring_hops(&self, a: usize, b: usize) -> u64 {
        let d = a.abs_diff(b);
        d.min(self.stops - d) as u64
    }

    /// Round-trip NoC latency between a core and a line's home L3 bank.
    fn noc_latency(&mut self, core: usize, line: u64) -> u64 {
        let hops = self.ring_hops(self.stop_of_core(core), self.home_stop(line));
        self.stats.noc_hops += 2 * hops;
        2 * hops * self.cfg.noc_hop_cycles
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.cfg.l3.line_bytes as u64
    }

    /// Instruction fetch: IL1 → L2 → L3 → DRAM. Returns total cycles.
    pub fn fetch_latency(&mut self, core: usize, pc: u64) -> u64 {
        let mut lat = self.cfg.il1.rt_cycles;
        if self.il1[core].access(pc, false).is_hit() {
            return lat;
        }
        lat += self.cfg.l2.rt_cycles;
        let l2i = self.l2_index(core);
        let l2_hit = self.l2[l2i].access(pc, false).is_hit();
        if !l2_hit {
            lat += self.l3_and_beyond(core, pc, false, false);
        }
        // Sequential-stream instruction prefetch, issued behind the demand
        // access so it cannot mask the demand miss.
        for k in 1..=3u64 {
            self.prefetch_line(core, pc + k * self.cfg.il1.line_bytes as u64, true);
        }
        lat
    }

    /// Idealised next-line prefetch: fill the line into the L1 (+L2) without
    /// charging latency. Real prefetchers overlap the fill with the demand
    /// stream; this keeps strided workloads bandwidth- rather than
    /// latency-bound, as on real hardware.
    fn prefetch_line(&mut self, core: usize, addr: u64, instruction: bool) {
        self.stats.prefetches += 1;
        if instruction {
            let _ = self.il1[core].access(addr, false);
        } else {
            let _ = self.dl1[core].access(addr, false);
        }
        let l2i = self.l2_index(core);
        let _ = self.l2[l2i].access(addr, false);
    }

    /// Data load. `shared` marks accesses to cross-core shared data (which
    /// consult the directory). Returns total cycles including the DL1 hit
    /// time (after the 3D load-to-use saving).
    pub fn load_latency(&mut self, core: usize, addr: u64, shared: bool) -> u64 {
        let mut lat = self.cfg.dl1_effective_rt();
        if self.dl1[core].access(addr, false).is_hit()
            && !(shared && self.stolen_by_other_writer(core, addr))
        {
            if shared {
                self.note_sharer(core, addr);
            }
            return lat;
        }
        lat += self.cfg.l2.rt_cycles;
        let l2i = self.l2_index(core);
        let l2_hit = self.l2[l2i].access(addr, false).is_hit();
        if shared {
            lat += self.coherent_read(core, addr);
            self.note_sharer(core, addr);
        }
        if !l2_hit {
            lat += self.l3_and_beyond(core, addr, false, shared);
        }
        // Stream prefetch on a demand miss (depth 3, as a simple stride
        // prefetcher achieves on unit-stride streams), issued behind the
        // demand access so it cannot mask the demand miss.
        for k in 1..=3u64 {
            self.prefetch_line(core, addr + k * self.cfg.dl1.line_bytes as u64, false);
        }
        lat
    }

    /// Data store (timing at execute; write-back semantics).
    pub fn store_latency(&mut self, core: usize, addr: u64, shared: bool) -> u64 {
        let mut lat = self.cfg.dl1_effective_rt();
        let dl1_hit = self.dl1[core].access(addr, true).is_hit();
        if shared {
            lat += self.coherent_write(core, addr);
            if dl1_hit {
                return lat;
            }
        } else if dl1_hit {
            return lat;
        }
        lat += self.cfg.l2.rt_cycles;
        let l2i = self.l2_index(core);
        if self.l2[l2i].access(addr, true).is_hit() {
            return lat;
        }
        lat += self.l3_and_beyond(core, addr, true, shared);
        lat
    }

    fn l3_and_beyond(&mut self, core: usize, addr: u64, write: bool, _shared: bool) -> u64 {
        let line = self.line_of(addr);
        let mut lat = self.noc_latency(core, line) + self.cfg.l3.rt_cycles;
        let bank = self.home_stop(line) % self.l3.len();
        if !self.l3[bank].access(addr, write).is_hit() {
            self.stats.dram_accesses += 1;
            lat += self.cfg.dram_cycles();
        }
        lat
    }

    /// Whether another core holds the line modified (a DL1 "hit" is stale).
    fn stolen_by_other_writer(&self, core: usize, addr: u64) -> bool {
        matches!(
            self.directory.get(&self.line_of(addr)),
            Some(DirState::Modified(owner)) if *owner != core
        )
    }

    fn note_sharer(&mut self, core: usize, addr: u64) {
        let line = self.line_of(addr);
        let e = self.directory.entry(line).or_insert(DirState::Shared(0));
        if let DirState::Shared(mask) = e {
            *mask |= 1 << core;
        }
    }

    /// Directory actions for a shared-data read. Returns extra latency.
    fn coherent_read(&mut self, core: usize, addr: u64) -> u64 {
        let line = self.line_of(addr);
        match self.directory.get(&line).copied() {
            Some(DirState::Modified(owner)) if owner != core => {
                // 3-hop: requester → home → owner → requester.
                self.stats.forwards += 1;
                let hops = self.ring_hops(self.stop_of_core(core), self.stop_of_core(owner));
                self.stats.noc_hops += hops;
                self.dl1[owner].invalidate(addr);
                self.directory
                    .insert(line, DirState::Shared((1 << core) | (1 << owner)));
                hops * self.cfg.noc_hop_cycles + self.cfg.l2.rt_cycles
            }
            _ => 0,
        }
    }

    /// Directory actions for a shared-data write. Returns extra latency.
    fn coherent_write(&mut self, core: usize, addr: u64) -> u64 {
        let line = self.line_of(addr);
        let mut lat = 0;
        match self.directory.get(&line).copied() {
            Some(DirState::Shared(mask)) => {
                let others = mask & !(1u32 << core);
                if others != 0 {
                    // Invalidate every other sharer through the directory.
                    self.stats.invalidations += others.count_ones() as u64;
                    for other in 0..self.n_cores {
                        if others & (1 << other) != 0 {
                            self.dl1[other].invalidate(addr);
                            let hops =
                                self.ring_hops(self.home_stop(line), self.stop_of_core(other));
                            self.stats.noc_hops += hops;
                            lat = lat.max(hops * self.cfg.noc_hop_cycles);
                        }
                    }
                }
            }
            Some(DirState::Modified(owner)) if owner != core => {
                self.stats.invalidations += 1;
                self.stats.forwards += 1;
                self.dl1[owner].invalidate(addr);
                let hops = self.ring_hops(self.stop_of_core(core), self.stop_of_core(owner));
                self.stats.noc_hops += hops;
                lat += hops * self.cfg.noc_hop_cycles + self.cfg.l2.rt_cycles;
            }
            _ => {}
        }
        self.directory.insert(line, DirState::Modified(core));
        lat
    }

    /// Per-level `(accesses, misses)` summed over cores:
    /// `[il1, dl1, l2, l3]`.
    pub fn level_counters(&self) -> [(u64, u64); 4] {
        let sum = |v: &Vec<Cache>| {
            v.iter()
                .fold((0, 0), |(a, m), c| (a + c.accesses, m + c.misses))
        };
        [sum(&self.il1), sum(&self.dl1), sum(&self.l2), sum(&self.l3)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(n: usize) -> MemorySystem {
        MemorySystem::new(CoreConfig::base_2d(), n)
    }

    #[test]
    fn l1_hit_is_cheapest() {
        let mut m = mem(1);
        let cold = m.load_latency(0, 0x1000, false);
        let warm = m.load_latency(0, 0x1000, false);
        assert_eq!(warm, CoreConfig::base_2d().dl1.rt_cycles);
        assert!(cold > warm);
    }

    #[test]
    fn cold_miss_pays_dram() {
        let mut m = mem(1);
        let cold = m.load_latency(0, 0x9000_0000, false);
        assert!(
            cold >= CoreConfig::base_2d().dram_cycles(),
            "cold load {cold}"
        );
        assert_eq!(m.stats.dram_accesses, 1);
    }

    #[test]
    fn load_to_use_saving_applies() {
        let mut cfg = CoreConfig::base_2d().with_3d_paths();
        cfg.freq_ghz = 3.3;
        let mut m = MemorySystem::new(cfg, 1);
        m.load_latency(0, 0x40, false);
        assert_eq!(m.load_latency(0, 0x40, false), 3);
    }

    #[test]
    fn fetch_goes_through_il1() {
        let mut m = mem(1);
        let cold = m.fetch_latency(0, 0x400000);
        let warm = m.fetch_latency(0, 0x400000);
        assert_eq!(warm, 3);
        assert!(cold > warm);
    }

    #[test]
    fn write_after_remote_read_invalidates() {
        let mut m = mem(4);
        // Core 1 reads a shared line; core 0 then writes it.
        let _ = m.load_latency(1, 0x8000_0000, true);
        let _ = m.load_latency(1, 0x8000_0000, true);
        let inv_before = m.stats.invalidations;
        let _ = m.store_latency(0, 0x8000_0000, true);
        assert!(m.stats.invalidations > inv_before);
        // Core 1's next read must miss its DL1 (the line was invalidated)
        // and fetch the dirty data from core 0.
        let lat = m.load_latency(1, 0x8000_0000, true);
        assert!(lat > CoreConfig::base_2d().dl1.rt_cycles, "lat {lat}");
        assert!(m.stats.forwards > 0);
    }

    #[test]
    fn dirty_read_forwards_from_owner() {
        let mut m = mem(2);
        let _ = m.store_latency(0, 0x8000_0040, true);
        let before = m.stats.forwards;
        let _ = m.load_latency(1, 0x8000_0040, true);
        assert_eq!(m.stats.forwards, before + 1);
    }

    #[test]
    fn private_data_never_touches_directory() {
        let mut m = mem(4);
        let _ = m.load_latency(0, 0x1234_5678, false);
        let _ = m.store_latency(0, 0x1234_5678, false);
        assert!(m.directory.is_empty());
        assert_eq!(m.stats.invalidations, 0);
    }

    #[test]
    fn shared_l2_pairs_halve_ring_stops() {
        let cfg = CoreConfig::base_2d().with_shared_l2();
        let m = MemorySystem::new(cfg, 8);
        assert_eq!(m.ring_stops(), 4);
        let m2 = MemorySystem::new(CoreConfig::base_2d(), 8);
        assert_eq!(m2.ring_stops(), 8);
    }

    #[test]
    fn paired_cores_share_l2_contents() {
        let cfg = CoreConfig::base_2d().with_shared_l2();
        let mut m = MemorySystem::new(cfg, 4);
        // Core 0 warms a line through to L2; core 1 (its pair) misses DL1
        // but hits the shared L2: latency = dl1 + l2 only.
        let _ = m.load_latency(0, 0x2000, false);
        let lat = m.load_latency(1, 0x2000, false);
        assert_eq!(
            lat,
            m.cfg.dl1_effective_rt() + m.cfg.l2.rt_cycles,
            "pair should hit shared L2"
        );
    }

    #[test]
    fn stream_prefetch_hides_stride_misses() {
        let mut m = mem(1);
        // Walk a unit-stride stream: after the first demand miss, the next
        // lines are prefetched, so most accesses hit the DL1.
        let mut misses = 0;
        for i in 0..64u64 {
            let lat = m.load_latency(0, 0x4000_0000 + i * 32, false);
            if lat > CoreConfig::base_2d().dl1.rt_cycles {
                misses += 1;
            }
        }
        assert!(misses <= 20, "{misses} misses on a strided stream");
        assert!(m.stats.prefetches > 0);
    }

    #[test]
    fn prefetch_does_not_mask_demand_misses() {
        let mut m = mem(1);
        let cold = m.load_latency(0, 0x5000_0000, false);
        assert!(
            cold >= CoreConfig::base_2d().dram_cycles(),
            "first touch must pay DRAM, got {cold}"
        );
    }

    #[test]
    fn ring_distance_wraps() {
        let m = mem(8);
        assert_eq!(m.ring_hops(0, 7), 1);
        assert_eq!(m.ring_hops(0, 4), 4);
        assert_eq!(m.ring_hops(2, 2), 0);
    }
}
