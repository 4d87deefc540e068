//! Deterministic synthetic µop stream generator.
//!
//! Given a [`WorkloadProfile`] and a seed, the generator emits an unbounded,
//! reproducible stream of [`MicroOp`]s: the instruction mix, register
//! dependency distances, branch outcome patterns (per static site), and
//! memory address streams all follow the profile. Multicore traces use the
//! same profile per core with core-private data regions plus a shared region
//! at common addresses, and barrier µops on the profile's cadence with
//! per-phase load imbalance.

use crate::op::{MicroOp, OpKind};
use crate::profile::WorkloadProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Base virtual address of the code region.
pub(crate) const CODE_BASE: u64 = 0x0040_0000;
/// Base of core-private data; cores are spaced far apart.
const PRIVATE_BASE: u64 = 0x1000_0000;
/// Spacing between per-core private regions.
const PRIVATE_STRIDE: u64 = 0x4000_0000;
/// Base of the cross-core shared region.
const SHARED_BASE: u64 = 0x8000_0000;
/// Bias probability of a "biased" branch site.
const BIAS_P: f64 = 0.97;
/// Probability that a data-dependent ("random") branch follows its site's
/// preferred direction. Real hard-to-predict branches are ~65-75%
/// predictable, not coin flips.
const DATA_DEP_P: f64 = 0.70;
/// Probability a memory op's address comes from an induction variable or
/// immediate (no in-flight register dependence) — this is what gives real
/// codes their memory-level parallelism.
const ADDR_INDEPENDENT_P: f64 = 0.70;
/// Probability a branch tests a register written long ago (already
/// resolved) rather than a just-produced value.
const BRANCH_INDEPENDENT_P: f64 = 0.50;
/// Fraction of the profile's "hard" branch sites that are truly
/// data-dependent; the rest behave as biased. Even branchy codes are >85%
/// predictable by a tournament predictor.
const HARD_SITE_SCALE: f64 = 0.35;
/// Probability a memory access reuses the previous access's neighbourhood
/// (spatial/temporal locality within a cache line).
const SPATIAL_REUSE_P: f64 = 0.60;
/// Probability a dynamic branch executes one of the hot sites (the first
/// tenth of the site table): real instruction streams concentrate on a
/// small hot working set of branches.
const HOT_SITE_P: f64 = 0.80;

#[derive(Debug, Clone, Copy)]
enum SiteKind {
    Biased,
    Loop,
    /// Data-dependent branch with a per-site preferred direction.
    DataDep {
        prefer_taken: bool,
    },
}

#[derive(Debug, Clone)]
struct BranchSite {
    pc: u64,
    target: u64,
    kind: SiteKind,
    counter: u32,
}

/// Deterministic µop stream generator. See the module docs.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    core_id: usize,
    sites: Vec<BranchSite>,
    recent_dsts: VecDeque<u8>,
    cursor: Cursor,
    emitted: u64,
    next_barrier: u64,
    stride_cursor: u64,
    last_addr: u64,
    last_shared: bool,
    /// Site index of the most recent branch (what a stream record stores
    /// for a branch).
    pub(crate) last_site: usize,
}

impl TraceGenerator {
    /// Create a generator for `core_id` of `n_cores` running `profile`.
    ///
    /// `n_cores` is validation-only: the op stream of a given `core_id` is
    /// a pure function of `(profile, seed, core_id)`, so scaling a design
    /// to more cores never perturbs the cores that already existed. The
    /// batch engine's checkpoint sharing relies on this guarantee, and
    /// `streams_are_independent_of_core_count` pins it.
    ///
    /// # Panics
    ///
    /// Panics if `core_id >= n_cores` or `n_cores == 0`.
    pub fn new(profile: &WorkloadProfile, seed: u64, core_id: usize, n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        assert!(core_id < n_cores, "core_id {core_id} >= n_cores {n_cores}");
        profile.validate();
        // Same site layout on every core (same binary), different data rng.
        let mut site_rng = StdRng::seed_from_u64(seed ^ 0x0051_17e5);
        let nb = profile.branches.static_branches.max(1);
        let hot_sites = (nb / 10).max(1);
        let sites = (0..nb)
            .map(|i| {
                let code = profile.code_bytes.max(4096);
                // The hot sites (most dynamic executions) cluster in a small
                // hot code region, as real programs' inner loops do — this
                // is what keeps IL1 miss rates low even for huge binaries.
                let pc = if i < hot_sites {
                    CODE_BASE + site_rng.gen_range(0..(code / 16).max(1024) / 4) * 4
                } else {
                    CODE_BASE + site_rng.gen_range(0..code / 4) * 4
                };
                let r: f64 = site_rng.gen();
                let hard = 1.0 - profile.branches.biased - profile.branches.loops;
                let kind = if r < 1.0 - hard * HARD_SITE_SCALE - profile.branches.loops {
                    SiteKind::Biased
                } else if r < 1.0 - hard * HARD_SITE_SCALE {
                    SiteKind::Loop
                } else {
                    SiteKind::DataDep {
                        prefer_taken: site_rng.gen(),
                    }
                };
                // Most taken branches are short backward jumps (loop bodies);
                // data-dependent ones jump anywhere in the code.
                let target = match kind {
                    SiteKind::Loop => pc
                        .saturating_sub(site_rng.gen_range(4..256) * 4)
                        .max(CODE_BASE),
                    SiteKind::Biased => pc
                        .saturating_sub(site_rng.gen_range(4..1024) * 4)
                        .max(CODE_BASE),
                    SiteKind::DataDep { .. } => CODE_BASE + site_rng.gen_range(0..code / 4) * 4,
                };
                BranchSite {
                    pc,
                    target,
                    kind,
                    counter: 0,
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(core_id as u64 * 0x9E37_79B9));
        let first_barrier = if profile.barrier_interval > 0 {
            jittered(profile.barrier_interval, profile.imbalance, &mut rng)
        } else {
            u64::MAX
        };
        Self {
            profile: profile.clone(),
            rng,
            core_id,
            sites,
            recent_dsts: VecDeque::with_capacity(32),
            cursor: Cursor::new(),
            emitted: 0,
            next_barrier: first_barrier,
            stride_cursor: 0,
            last_addr: 0,
            last_shared: false,
            last_site: 0,
        }
    }

    fn private_base(&self) -> u64 {
        PRIVATE_BASE + self.core_id as u64 * PRIVATE_STRIDE
    }

    fn pick_dst(&mut self) -> u8 {
        let d = self.cursor.dst();
        if self.recent_dsts.len() == 32 {
            self.recent_dsts.pop_front();
        }
        self.recent_dsts.push_back(d);
        d
    }

    fn pick_src(&mut self) -> Option<u8> {
        if self.recent_dsts.is_empty() {
            return None;
        }
        // Geometric-ish distance: mean `mean_dep_distance` back in the
        // stream of recent destinations.
        let mean = self.profile.mean_dep_distance;
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        let dist = (1.0 + (-u.ln()) * (mean - 1.0)).round() as usize;
        let idx = self.recent_dsts.len().saturating_sub(dist.max(1));
        self.recent_dsts.get(idx).copied()
    }

    fn mem_addr(&mut self) -> (u64, bool) {
        let m = self.profile.memory;
        // Spatial/temporal locality: most accesses stay near the previous
        // one (stack slots, struct fields, sequential array elements).
        if self.last_addr != 0 && self.rng.gen::<f64>() < SPATIAL_REUSE_P {
            let a = self.last_addr.wrapping_add(self.rng.gen_range(0..6) * 8);
            return (a, self.last_shared);
        }
        // Shared accesses replace a slice of the warm/cold traffic.
        let (a, shared) =
            if self.profile.shared_frac > 0.0 && self.rng.gen::<f64>() < self.profile.shared_frac {
                let span = m.warm_bytes.max(64 << 10);
                (SHARED_BASE + self.rng.gen_range(0..span / 8) * 8, true)
            } else {
                let r: f64 = self.rng.gen();
                let base = self.private_base();
                let a = if r < m.hot_frac {
                    base + self.rng.gen_range(0..m.hot_bytes.max(64) / 8) * 8
                } else if r < m.hot_frac + m.warm_frac {
                    base + 0x0100_0000 + self.rng.gen_range(0..m.warm_bytes.max(64) / 8) * 8
                } else {
                    let cold_base = base + 0x0800_0000;
                    if self.rng.gen::<f64>() < m.cold_stride_frac {
                        self.stride_cursor = (self.stride_cursor + 8) % m.cold_bytes.max(64);
                        cold_base + self.stride_cursor
                    } else {
                        cold_base + self.rng.gen_range(0..m.cold_bytes.max(64) / 8) * 8
                    }
                };
                (a, false)
            };
        self.last_addr = a;
        self.last_shared = shared;
        (a, shared)
    }

    fn branch_op(&mut self) -> MicroOp {
        let hot = (self.sites.len() / 10).max(1);
        let i = if self.rng.gen::<f64>() < HOT_SITE_P {
            self.rng.gen_range(0..hot)
        } else {
            self.rng.gen_range(0..self.sites.len())
        };
        self.last_site = i;
        let site = &mut self.sites[i];
        let taken = match site.kind {
            SiteKind::Biased => self.rng.gen::<f64>() < BIAS_P,
            SiteKind::DataDep { prefer_taken } => {
                let follow = self.rng.gen::<f64>() < DATA_DEP_P;
                follow == prefer_taken
            }
            SiteKind::Loop => {
                site.counter += 1;
                if site.counter >= self.profile.branches.loop_period {
                    site.counter = 0;
                    false
                } else {
                    true
                }
            }
        };
        let (pc, target) = (site.pc, site.target);
        self.cursor.branch(taken, target);
        // Branches usually test flags/values produced immediately before
        // them (compare-and-branch) or loop counters that resolved long ago.
        let src = if self.rng.gen::<f64>() < BRANCH_INDEPENDENT_P {
            None
        } else {
            self.recent_dsts.back().copied()
        };
        MicroOp {
            pc,
            kind: OpKind::Branch,
            dst: None,
            srcs: [src, None],
            addr: 0,
            taken,
            target,
            complex_decode: false,
            barrier_id: 0,
            shared: false,
        }
    }

    /// Produce the next µop of the stream.
    pub fn next_op(&mut self) -> MicroOp {
        self.emitted += 1;
        if self.emitted >= self.next_barrier {
            let barrier_id = self.cursor.barrier();
            self.next_barrier = self.emitted
                + jittered(
                    self.profile.barrier_interval,
                    self.profile.imbalance,
                    &mut self.rng,
                );
            return MicroOp {
                pc: self.cursor.pc,
                kind: OpKind::Barrier,
                dst: None,
                srcs: [None, None],
                addr: 0,
                taken: false,
                target: 0,
                complex_decode: false,
                barrier_id,
                shared: false,
            };
        }

        // Sequential fetch within the code footprint.
        let pc = self.cursor.step(self.code_span());
        let m = self.profile.mix;
        let r: f64 = self.rng.gen();
        let complex = self.rng.gen::<f64>() < self.profile.complex_decode_rate;

        let mut op = if r < m.branch {
            self.branch_op()
        } else if r < m.branch + m.load {
            let (addr, shared) = self.mem_addr();
            let src = if self.rng.gen::<f64>() < ADDR_INDEPENDENT_P {
                None
            } else {
                self.pick_src()
            };
            let dst = self.pick_dst();
            MicroOp {
                pc,
                kind: OpKind::Load,
                dst: Some(dst),
                srcs: [src, None],
                addr,
                taken: false,
                target: 0,
                complex_decode: complex,
                barrier_id: 0,
                shared,
            }
        } else if r < m.branch + m.load + m.store {
            let (addr, shared) = self.mem_addr();
            let s0 = if self.rng.gen::<f64>() < ADDR_INDEPENDENT_P {
                None
            } else {
                self.pick_src()
            };
            let s1 = self.pick_src();
            MicroOp {
                pc,
                kind: OpKind::Store,
                dst: None,
                srcs: [s0, s1],
                addr,
                taken: false,
                target: 0,
                complex_decode: complex,
                barrier_id: 0,
                shared,
            }
        } else {
            let kind = {
                let r2 = r - m.branch - m.load - m.store;
                if r2 < m.int_mul {
                    OpKind::IntMul
                } else if r2 < m.int_mul + m.fp_add {
                    OpKind::FpAdd
                } else if r2 < m.int_mul + m.fp_add + m.fp_mul {
                    OpKind::FpMul
                } else if r2 < m.int_mul + m.fp_add + m.fp_mul + m.fp_div {
                    OpKind::FpDiv
                } else {
                    OpKind::IntAlu
                }
            };
            let s0 = self.pick_src();
            let s1 = self.pick_src();
            let dst = self.pick_dst();
            let mut op = MicroOp::alu(pc, kind, dst, [s0, s1]);
            op.complex_decode = complex;
            op
        };
        if op.kind != OpKind::Branch {
            op.pc = pc;
        }
        op
    }

    /// Number of µops emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// `(pc, target)` of every branch site, by site index.
    pub(crate) fn site_table(&self) -> Vec<(u64, u64)> {
        self.sites.iter().map(|s| (s.pc, s.target)).collect()
    }

    /// Size of the sequential code footprint the pc wraps in.
    pub(crate) fn code_span(&self) -> u64 {
        self.profile.code_bytes.max(64)
    }

    /// An upper bound on every data address this generator can emit: the
    /// end of the farthest private or shared region, plus the largest
    /// spatial-reuse offset.
    pub(crate) fn max_addr(&self) -> u64 {
        let m = self.profile.memory;
        let base = self.private_base();
        [
            base.saturating_add(m.hot_bytes.max(64)),
            (base + 0x0100_0000).saturating_add(m.warm_bytes.max(64)),
            (base + 0x0800_0000).saturating_add(m.cold_bytes.max(64)),
            SHARED_BASE.saturating_add(m.warm_bytes.max(64 << 10)),
        ]
        .into_iter()
        .max()
        .expect("four regions")
        .saturating_add(6 * 8)
    }
}

/// The part of a stream's state that follows from the µops alone, with no
/// random draw: the pc, the round-robin destination register and the
/// barrier id. The generator and a stream replay
/// ([`crate::stream::OpStream::Replay`]) each advance one, so the rules
/// live here only.
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    /// The pc of the last µop.
    pub(crate) pc: u64,
    last_dst: u8,
    barrier_id: u64,
}

impl Cursor {
    pub(crate) fn new() -> Self {
        Self {
            pc: CODE_BASE,
            last_dst: 0,
            barrier_id: 0,
        }
    }

    /// Advance to the sequential successor pc in a code footprint of
    /// `code` bytes, `CODE_BASE + (pc − CODE_BASE + 4) mod code`, and
    /// return it. It divides only when the pc wraps or lies outside the
    /// footprint (a branch site can, when `code_bytes` is below the 4 KiB
    /// site span).
    #[inline]
    pub(crate) fn step(&mut self, code: u64) -> u64 {
        let x = self.pc - CODE_BASE + 4;
        self.pc = CODE_BASE + if x < code { x } else { x % code };
        self.pc
    }

    /// A branch to `target` ran: a taken one moves the pc there.
    #[inline]
    pub(crate) fn branch(&mut self, taken: bool, target: u64) {
        if taken {
            self.pc = target;
        }
    }

    /// The next destination register, round-robin over 32.
    #[inline]
    pub(crate) fn dst(&mut self) -> u8 {
        self.last_dst = (self.last_dst + 1) % 32;
        self.last_dst
    }

    /// The id of the next barrier.
    #[inline]
    pub(crate) fn barrier(&mut self) -> u64 {
        self.barrier_id += 1;
        self.barrier_id
    }
}

fn jittered(interval: u64, imbalance: f64, rng: &mut StdRng) -> u64 {
    if interval == 0 {
        return u64::MAX / 2;
    }
    let f = 1.0 + imbalance * (rng.gen::<f64>() * 2.0 - 1.0);
    ((interval as f64) * f).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::splash_parsec;
    use crate::spec::{spec2006, spec_by_name};

    fn take(p: &WorkloadProfile, n: usize) -> Vec<MicroOp> {
        let mut g = TraceGenerator::new(p, 7, 0, 1);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn deterministic_across_instances() {
        let p = &spec2006()[0];
        let a = take(p, 5000);
        let b = take(p, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let p = spec_by_name("Bzip2").expect("exists");
        let ops = take(&p, 100_000);
        let loads = ops.iter().filter(|o| o.kind == OpKind::Load).count() as f64;
        let branches = ops.iter().filter(|o| o.kind == OpKind::Branch).count() as f64;
        let n = ops.len() as f64;
        assert!((loads / n - p.mix.load).abs() < 0.02, "loads {}", loads / n);
        assert!(
            (branches / n - p.mix.branch).abs() < 0.02,
            "branches {}",
            branches / n
        );
    }

    #[test]
    fn serial_traces_have_no_barriers() {
        let p = spec_by_name("Gcc").expect("exists");
        assert!(take(&p, 50_000).iter().all(|o| o.kind != OpKind::Barrier));
    }

    #[test]
    fn parallel_traces_emit_barriers() {
        let p = &splash_parsec()[8]; // Ocean, 30k interval
        let ops = take(p, 100_000);
        let barriers = ops.iter().filter(|o| o.kind == OpKind::Barrier).count();
        assert!(barriers >= 2, "{barriers} barriers");
    }

    #[test]
    fn cores_share_the_shared_region_only() {
        let p = &splash_parsec()[2]; // Canneal, heavy sharing
        let mut g0 = TraceGenerator::new(p, 9, 0, 4);
        let mut g1 = TraceGenerator::new(p, 9, 1, 4);
        let a: Vec<_> = (0..50_000).map(|_| g0.next_op()).collect();
        let b: Vec<_> = (0..50_000).map(|_| g1.next_op()).collect();
        let shared_a: std::collections::HashSet<_> = a
            .iter()
            .filter(|o| o.shared)
            .map(|o| o.addr & !63)
            .collect();
        assert!(!shared_a.is_empty(), "core 0 produced shared accesses");
        let overlap = b
            .iter()
            .filter(|o| o.shared && shared_a.contains(&(o.addr & !63)))
            .count();
        assert!(overlap > 0, "cores must touch common shared lines");
        // Private accesses never collide across cores.
        let priv_a: std::collections::HashSet<_> = a
            .iter()
            .filter(|o| o.kind.is_mem() && !o.shared)
            .map(|o| o.addr & !63)
            .collect();
        let priv_overlap = b
            .iter()
            .filter(|o| o.kind.is_mem() && !o.shared && priv_a.contains(&(o.addr & !63)))
            .count();
        assert_eq!(priv_overlap, 0, "private regions must not overlap");
    }

    #[test]
    fn loop_branches_follow_period() {
        let p = spec_by_name("Lbm").expect("exists"); // period 128, mostly loops
        let ops = take(&p, 200_000);
        let taken = ops
            .iter()
            .filter(|o| o.kind == OpKind::Branch && o.taken)
            .count() as f64;
        let total = ops.iter().filter(|o| o.kind == OpKind::Branch).count() as f64;
        assert!(taken / total > 0.7, "loopy code is mostly taken");
    }

    #[test]
    fn memory_bound_profiles_touch_large_footprints() {
        let p = spec_by_name("Mcf").expect("exists");
        let ops = take(&p, 200_000);
        let lines: std::collections::HashSet<_> = ops
            .iter()
            .filter(|o| o.kind.is_mem())
            .map(|o| o.addr & !63)
            .collect();
        let hot = spec_by_name("Hmmer").expect("exists");
        let hot_ops = take(&hot, 200_000);
        let hot_lines: std::collections::HashSet<_> = hot_ops
            .iter()
            .filter(|o| o.kind.is_mem())
            .map(|o| o.addr & !63)
            .collect();
        assert!(
            lines.len() > 3 * hot_lines.len(),
            "mcf {} lines vs hmmer {}",
            lines.len(),
            hot_lines.len()
        );
    }

    #[test]
    fn streams_are_independent_of_core_count() {
        // A core's op stream depends on (profile, seed, core_id) only —
        // never on how many siblings exist. Use a sharing-heavy parallel
        // profile so barriers and shared accesses are exercised too.
        let p = &splash_parsec()[2]; // Canneal
        for core_id in [0usize, 1, 3] {
            let mut small = TraceGenerator::new(p, 7, core_id, 4);
            let mut large = TraceGenerator::new(p, 7, core_id, 32);
            for i in 0..20_000 {
                let (a, b) = (small.next_op(), large.next_op());
                assert_eq!(a, b, "core {core_id} diverged at op {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "core_id")]
    fn rejects_bad_core_id() {
        let p = &spec2006()[0];
        let _ = TraceGenerator::new(p, 1, 4, 4);
    }
}
