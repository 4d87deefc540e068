//! The out-of-order core engine.
//!
//! A cycle consists of commit → issue → dispatch → fetch (reverse pipeline
//! order so a µop spends at least one cycle per stage). The engine is
//! trace-driven: wrong-path work is not simulated; a mispredicted branch
//! instead blocks fetch until it resolves plus the restart penalty —
//! the standard trace-driven treatment, and the path whose length the
//! paper's 3D designs shorten by two cycles.
//!
//! # Hot-loop layout
//!
//! The reorder buffer is a structure-of-arrays ring (`RobSoa`): one flat
//! array per field, indexed by slot, so the hot paths read a handful of
//! dense `u64` arrays instead of chasing `VecDeque` entries. Slots are
//! generation-tagged: a dependency is the packed pair `(generation, slot)`,
//! and a tag whose generation no longer matches its slot refers to a
//! retired producer, which is by definition complete.
//!
//! Wake-up is event-driven. At dispatch, each operand whose producer has
//! not issued goes on that producer's intrusive consumer list; when the
//! producer issues, its consumers learn its completion cycle. An entry
//! whose producers have all issued waits in a `ready_at` calendar until
//! its operands are available, then sits in a bitmask over ROB slots.
//! Issue select scans that mask oldest-first from the ROB head, so it
//! never visits an entry whose operands are not ready, and
//! [`CoreEngine::next_wake`] reads the calendar instead of walking the
//! queue. See DESIGN.md § "Cycle loop" for the field map and the
//! equivalence argument.
//!
//! # Skip-ahead
//!
//! [`CoreEngine::step`] reports whether the cycle made progress (committed,
//! issued, dispatched or fetched anything, or newly announced a barrier).
//! When a cycle makes no progress, every in-flight µop is draining an event
//! whose completion cycle is already known (a DRAM miss, a long FU op, an
//! I-cache refill), so the run loop in [`crate::Multicore::run`] asks
//! [`CoreEngine::next_wake`] for the earliest cycle at which anything can
//! change and jumps the clock there, applying the per-cycle idle
//! statistics in bulk via [`CoreEngine::skip_idle`]. Results are
//! cycle-for-cycle identical to stepping; the safety argument is spelled
//! out in DESIGN.md and enforced by the `oracle_equiv` property test
//! against a reference core that steps every cycle.

use crate::bpred::{Btb, Tournament};
use crate::config::CoreConfig;
use crate::memory::MemorySystem;
use crate::stats::ActivityStats;
use m3d_workloads::{MicroOp, OpKind, OpStream};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

#[derive(Debug, Clone)]
struct FetchedOp {
    op: MicroOp,
    avail_cycle: u64,
    mispredicted: bool,
}

/// Packed dependency / producer tag: `(generation << 32) | slot`.
///
/// `TAG_NONE` means "no producer". Because slots are bounded by the ROB
/// capacity (far below 2³²), a real tag can never collide with `TAG_NONE`.
const TAG_NONE: u64 = u64::MAX;

/// `done` value of an entry that has not issued yet.
const NOT_ISSUED: u64 = u64::MAX;

/// End of a consumer list.
const NO_CONS: u32 = u32::MAX;

/// `dst` value of an entry without a destination register.
const NO_DST: u8 = u8::MAX;

/// Entry flag: this µop is a mispredicted branch (resolves the front end).
const F_MISPRED: u8 = 1 << 0;
/// Entry flag: the µop touches cross-core shared data.
const F_SHARED: u8 = 1 << 1;
/// Entry flag: the destination register comes from the FP pool.
const F_FP_DST: u8 = 1 << 2;

/// Structure-of-arrays reorder buffer: a ring of `cap` generation-tagged
/// slots. Field `x` of the entry in slot `s` lives at `x[s]`; the occupied
/// window is the `len` slots starting at `head` (wrapping).
///
/// Slot reuse is disambiguated by `gen[s]`, bumped on every allocation:
/// a dependency tag carries the generation it was created under, so a
/// mismatch proves the producer has retired (and its result is available).
///
/// A consumer-list node is `(slot << 1) | operand`: operand `i` of the
/// entry in `slot`. The list of producer `p` starts at `cons_head[p]` and
/// continues through `cons_next[node slot][node operand]` to `NO_CONS`.
#[derive(Debug, Clone)]
struct RobSoa {
    cap: usize,
    head: usize,
    len: usize,
    /// Allocation generation per slot (bumped by `alloc`).
    gen: Vec<u32>,
    /// Program-order sequence number.
    seq: Vec<u64>,
    /// µop kind.
    kind: Vec<OpKind>,
    /// Destination architectural register, or `NO_DST`.
    dst: Vec<u8>,
    /// Producer tags for the two source operands (`TAG_NONE` = none).
    deps: Vec<[u64; 2]>,
    /// Completion cycle once issued; `NOT_ISSUED` before.
    done: Vec<u64>,
    /// Earliest issue cycle: one past dispatch, raised to the `done` of
    /// every producer as it becomes known.
    ready_at: Vec<u64>,
    /// Operands still waiting for their producer to issue.
    pending: Vec<u8>,
    /// First node of this entry's consumer list, or `NO_CONS`.
    cons_head: Vec<u32>,
    /// Next node after each of this entry's two operand nodes.
    cons_next: Vec<[u32; 2]>,
    /// Kind-dependent payload: memory address, or barrier id.
    payload: Vec<u64>,
    /// `F_*` bit flags.
    flags: Vec<u8>,
}

impl RobSoa {
    fn new(cap: usize) -> Self {
        assert!(
            cap > 0 && cap < (NO_CONS >> 1) as usize,
            "ROB capacity {cap}"
        );
        Self {
            cap,
            head: 0,
            len: 0,
            gen: vec![0; cap],
            seq: vec![0; cap],
            kind: vec![OpKind::IntAlu; cap],
            dst: vec![NO_DST; cap],
            deps: vec![[TAG_NONE; 2]; cap],
            done: vec![0; cap],
            ready_at: vec![0; cap],
            pending: vec![0; cap],
            cons_head: vec![NO_CONS; cap],
            cons_next: vec![[NO_CONS; 2]; cap],
            payload: vec![0; cap],
            flags: vec![0; cap],
        }
    }

    /// Slot of the `k`-th oldest entry (`k < len`).
    #[inline]
    fn slot_at(&self, k: usize) -> usize {
        let s = self.head + k;
        if s >= self.cap {
            s - self.cap
        } else {
            s
        }
    }

    /// Packed producer tag for the entry currently in `slot`.
    #[inline]
    fn tag(&self, slot: usize) -> u64 {
        ((self.gen[slot] as u64) << 32) | slot as u64
    }

    /// Allocate the slot after the current tail, bumping its generation.
    /// The caller fills every field. Requires `len < cap`.
    #[inline]
    fn alloc(&mut self) -> usize {
        debug_assert!(self.len < self.cap);
        let slot = self.slot_at(self.len);
        self.len += 1;
        self.gen[slot] = self.gen[slot].wrapping_add(1);
        slot
    }

    /// Free the head slot.
    #[inline]
    fn free_head(&mut self) {
        debug_assert!(self.len > 0);
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.len -= 1;
    }

    /// Slot of the producer named by `tag`, unless there is none or it has
    /// retired (its slot was reused). A retired producer that still holds
    /// its slot keeps its past `done`, so it reads as complete.
    #[inline]
    fn producer(&self, tag: u64) -> Option<usize> {
        let slot = (tag & 0xFFFF_FFFF) as usize;
        (tag != TAG_NONE && self.gen[slot] == (tag >> 32) as u32).then_some(slot)
    }
}

/// One bit per ROB slot: the entries whose operands are ready.
#[derive(Debug, Clone)]
struct SlotMask {
    words: Vec<u64>,
}

impl SlotMask {
    fn new(cap: usize) -> Self {
        Self {
            words: vec![0; cap.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, s: usize) {
        self.words[s >> 6] |= 1 << (s & 63);
    }

    #[inline]
    fn clear(&mut self, s: usize) {
        self.words[s >> 6] &= !(1 << (s & 63));
    }

    /// Lowest set slot in `from..end`.
    #[inline]
    fn first_in(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from >> 6;
        let mut bits = self.words[w] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                return (s < end).then_some(s);
            }
            w += 1;
            if w << 6 >= end {
                return None;
            }
            bits = self.words[w];
        }
    }
}

/// Oldest-first cursor over a [`SlotMask`] in ROB ring order: slots
/// `head..cap`, then `0..head`. Each `next` reads the mask afresh, so a
/// bit set ahead of the cursor during the scan (a consumer of a
/// zero-latency producer that just issued) is still visited.
#[derive(Debug, Clone, Copy)]
struct RingScan {
    pos: usize,
    end: usize,
    head: usize,
}

impl RingScan {
    fn new(head: usize, cap: usize) -> Self {
        Self {
            pos: head,
            end: cap,
            head,
        }
    }

    #[inline]
    fn next(&mut self, mask: &SlotMask) -> Option<usize> {
        loop {
            if let Some(s) = mask.first_in(self.pos, self.end) {
                self.pos = s + 1;
                return Some(s);
            }
            if self.end == self.head {
                return None;
            }
            (self.pos, self.end) = (0, self.head);
        }
    }
}

/// Structure-of-arrays store-forwarding buffer: in-flight stores as
/// parallel `(seq, 8-byte-aligned address, done_cycle)` columns, oldest
/// first. Loads scan `addr8` newest-first for a matching older store.
#[derive(Debug, Clone, Default)]
struct StoreFwd {
    seq: Vec<u64>,
    addr8: Vec<u64>,
    done: Vec<u64>,
}

impl StoreFwd {
    fn push(&mut self, seq: u64, addr8: u64, done: u64) {
        self.seq.push(seq);
        self.addr8.push(addr8);
        self.done.push(done);
    }

    fn remove_seq(&mut self, seq: u64) {
        if let Some(pos) = self.seq.iter().position(|&s| s == seq) {
            self.seq.remove(pos);
            self.addr8.remove(pos);
            self.done.remove(pos);
        }
    }

    /// Completion cycle of the youngest store older than `load_seq` to the
    /// same 8-byte word, if any.
    fn forward_from(&self, load_seq: u64, a8: u64) -> Option<u64> {
        (0..self.seq.len())
            .rev()
            .find(|&i| self.seq[i] < load_seq && self.addr8[i] == a8)
            .map(|i| self.done[i])
    }
}

/// Coordination state for barrier µops across cores.
///
/// The arrival set is a 32-bit mask, so at most [`crate::MAX_CORES`] cores
/// can participate; [`crate::Multicore::try_new`] enforces the limit.
#[derive(Debug, Clone, Default)]
pub struct BarrierCtl {
    arrived: HashMap<u64, u32>,
    n_cores: u32,
}

impl BarrierCtl {
    /// Controller for `n_cores` participants.
    pub fn new(n_cores: usize) -> Self {
        Self {
            arrived: HashMap::new(),
            n_cores: n_cores as u32,
        }
    }

    /// Core `c` has reached barrier `id` (idempotent). Returns whether this
    /// announcement is new — i.e. the barrier state actually changed, which
    /// the skip-ahead machinery counts as forward progress.
    pub fn announce(&mut self, c: usize, id: u64) -> bool {
        let e = self.arrived.entry(id).or_insert(0);
        let bit = 1u32 << c;
        let newly = *e & bit == 0;
        *e |= bit;
        newly
    }

    /// Whether barrier `id` has been reached by all cores.
    pub fn released(&self, id: u64) -> bool {
        self.arrived
            .get(&id)
            .is_some_and(|m| m.count_ones() == self.n_cores)
    }
}

/// One core's pipeline state. Drive it with [`CoreEngine::step`] against a
/// shared [`MemorySystem`] and [`BarrierCtl`].
///
/// `Clone` duplicates the full architectural and microarchitectural state
/// (ROB, RAT, predictors, trace generator position) — the batch engine uses
/// this to checkpoint warmed-up machines.
#[derive(Debug, Clone)]
pub struct CoreEngine {
    /// This core's index.
    pub core_id: usize,
    cfg: CoreConfig,
    gen: OpStream,
    rob: RobSoa,
    next_seq: u64,
    /// Latest in-flight producer tag per architectural register
    /// (`TAG_NONE` = the committed register file holds the value).
    rat: [u64; 32],
    /// Issue-queue occupancy: the unissued, non-barrier entries.
    iq_occ: usize,
    /// Unissued entries whose operands are ready (`ready_at <= cycle`).
    ready: SlotMask,
    /// Unissued entries whose producers have all issued but whose
    /// operands are not ready yet, keyed by `ready_at`.
    calendar: BinaryHeap<Reverse<(u64, u32)>>,
    lq_occ: usize,
    sq_occ: usize,
    free_int: usize,
    free_fp: usize,
    fetch_queue: VecDeque<FetchedOp>,
    fetch_stall_until: u64,
    fetch_blocked_on_branch: bool,
    bpred: Tournament,
    btb: Btb,
    sq_fwd: StoreFwd,
    next_div_free: u64,
    next_fpdiv_free: u64,
    skip_jumps: u64,
    skipped_cycles: u64,
    /// Activity counters.
    pub stats: ActivityStats,
    /// µops committed so far.
    pub committed: u64,
    /// Commit-count targets of the current run, ascending.
    targets: Vec<u64>,
    /// `(cycle, stats)` as each target was reached, aligned with `targets`.
    at_target: Vec<Option<(u64, ActivityStats)>>,
    /// Index of the next target a commit can reach.
    next_target: usize,
    /// `targets[next_target]`, or `u64::MAX` once none is left: the one
    /// value the commit path compares against.
    target: u64,
}

impl CoreEngine {
    /// Create a core running the given µop stream (a
    /// [`m3d_workloads::TraceGenerator`] converts into a live one).
    pub fn new(core_id: usize, cfg: CoreConfig, gen: impl Into<OpStream>) -> Self {
        let bpred = Tournament::new(cfg.bpred_entries);
        let btb = Btb::new(cfg.btb_entries, cfg.btb_ways);
        let rob = RobSoa::new(cfg.rob_entries);
        let ready = SlotMask::new(cfg.rob_entries);
        Self {
            core_id,
            free_int: cfg.int_regs,
            free_fp: cfg.fp_regs,
            cfg,
            gen: gen.into(),
            rob,
            next_seq: 0,
            rat: [TAG_NONE; 32],
            iq_occ: 0,
            ready,
            calendar: BinaryHeap::new(),
            lq_occ: 0,
            sq_occ: 0,
            fetch_queue: VecDeque::new(),
            fetch_stall_until: 0,
            fetch_blocked_on_branch: false,
            bpred,
            btb,
            sq_fwd: StoreFwd::default(),
            next_div_free: 0,
            next_fpdiv_free: 0,
            skip_jumps: 0,
            skipped_cycles: 0,
            stats: ActivityStats::default(),
            committed: 0,
            targets: Vec::new(),
            at_target: Vec::new(),
            next_target: 0,
            target: u64::MAX,
        }
    }

    /// Set the ascending commit counts at which this core's cycle and
    /// statistics are snapshotted, forgetting the previous run's snapshots
    /// (so a run that misses a target reports its own counters, not stale
    /// ones). A target at or below the current commit count is never
    /// reached.
    pub(crate) fn set_targets(&mut self, targets: impl IntoIterator<Item = u64>) {
        self.targets.clear();
        self.targets.extend(targets);
        debug_assert!(self.targets.is_sorted(), "targets must ascend");
        self.at_target.clear();
        self.at_target.resize(self.targets.len(), None);
        self.next_target = self.targets.partition_point(|&t| t <= self.committed);
        self.target = self
            .targets
            .get(self.next_target)
            .copied()
            .unwrap_or(u64::MAX);
    }

    /// Targets reached so far, counting the unreachable ones at the front
    /// as reached: target `i` has been passed iff `i < targets_passed()`.
    pub(crate) fn targets_passed(&self) -> usize {
        self.next_target
    }

    /// `(cycle, stats)` as target `i` was reached, if it was.
    pub(crate) fn at_target(&self, i: usize) -> Option<(u64, ActivityStats)> {
        self.at_target[i]
    }

    /// This core's µop stream.
    pub(crate) fn stream_mut(&mut self) -> &mut OpStream {
        &mut self.gen
    }

    /// Give up the core, keeping its µop stream.
    pub(crate) fn into_stream(self) -> OpStream {
        self.gen
    }

    /// `(jumps, cycles)` the skip-ahead fast path has taken on this core.
    /// Diagnostic only: deliberately kept out of [`ActivityStats`] and
    /// [`crate::PerfResult`], which must read exactly as if every cycle
    /// were stepped.
    pub fn skip_counters(&self) -> (u64, u64) {
        (self.skip_jumps, self.skipped_cycles)
    }

    fn uses_fp_reg(op: &MicroOp) -> bool {
        op.kind.is_fp()
    }

    /// Advance one cycle. Returns whether the cycle made forward progress:
    /// committed, issued, dispatched or fetched at least one µop, or newly
    /// announced a barrier arrival. A `false` return means the machine is
    /// quiescent — every future cycle up to [`CoreEngine::next_wake`] would
    /// also return `false` — which is what lets the run loops skip ahead.
    pub fn step(&mut self, cycle: u64, mem: &mut MemorySystem, barriers: &mut BarrierCtl) -> bool {
        self.sample_occupancy();
        let before = (
            self.stats.committed,
            self.stats.issued,
            self.stats.dispatched,
            self.stats.fetched,
        );
        let newly_announced = self.commit(cycle, barriers);
        if self.stats.committed == before.0 {
            self.attribute_stall(cycle);
        }
        self.issue(cycle, mem);
        self.dispatch(cycle);
        self.fetch(cycle, mem);
        newly_announced
            || (
                self.stats.committed,
                self.stats.issued,
                self.stats.dispatched,
                self.stats.fetched,
            ) != before
    }

    fn sample_occupancy(&mut self) {
        self.stats.occupancy_samples += 1;
        self.stats.rob_occupancy_sum += self.rob.len as u64;
        self.stats.iq_occupancy_sum += self.iq_occ as u64;
    }

    /// Attribute a commit-less cycle to the structure holding it up.
    fn attribute_stall(&mut self, cycle: u64) {
        if self.rob.len == 0 {
            self.stats.stall_frontend_cycles += 1;
            return;
        }
        let h = self.rob.head;
        let kind = self.rob.kind[h];
        if kind == OpKind::Barrier {
            // Counted by the commit path as barrier stall.
        } else if self.rob.done[h] == NOT_ISSUED || self.rob.done[h] > cycle {
            if kind.is_mem() {
                self.stats.stall_memory_cycles += 1;
            } else {
                self.stats.stall_execute_cycles += 1;
            }
        }
    }

    /// In-order commit. Returns whether a barrier arrival was newly
    /// announced (progress even when nothing commits).
    fn commit(&mut self, cycle: u64, barriers: &mut BarrierCtl) -> bool {
        let mut newly_announced = false;
        let mut n = 0;
        while n < self.cfg.commit_width {
            if self.rob.len == 0 {
                break;
            }
            let h = self.rob.head;
            let done = self.rob.done[h];
            if done == NOT_ISSUED || done > cycle {
                break;
            }
            let kind = self.rob.kind[h];
            if kind == OpKind::Barrier {
                newly_announced |= barriers.announce(self.core_id, self.rob.payload[h]);
                if !barriers.released(self.rob.payload[h]) {
                    self.stats.barrier_stall_cycles += 1;
                    break;
                }
                self.stats.barriers += 1;
            }
            let dst = self.rob.dst[h];
            if dst != NO_DST {
                self.stats.rf_writes += 1;
                if self.rob.flags[h] & F_FP_DST != 0 {
                    self.free_fp += 1;
                } else {
                    self.free_int += 1;
                }
            }
            match kind {
                OpKind::Load => self.lq_occ -= 1,
                OpKind::Store => {
                    self.sq_occ -= 1;
                    // The store leaves the store queue at commit.
                    self.sq_fwd.remove_seq(self.rob.seq[h]);
                }
                _ => {}
            }
            // Clear the RAT if this entry is still the latest producer.
            if dst != NO_DST && self.rat[dst as usize] == self.rob.tag(h) {
                self.rat[dst as usize] = TAG_NONE;
            }
            self.rob.free_head();
            self.committed += 1;
            self.stats.committed += 1;
            while self.committed == self.target {
                self.at_target[self.next_target] = Some((cycle, self.stats));
                self.next_target += 1;
                self.target = self
                    .targets
                    .get(self.next_target)
                    .copied()
                    .unwrap_or(u64::MAX);
            }
            n += 1;
        }
        newly_announced
    }

    fn issue(&mut self, cycle: u64, mem: &mut MemorySystem) {
        while let Some(&Reverse((at, s))) = self.calendar.peek() {
            if at > cycle {
                break;
            }
            self.calendar.pop();
            self.ready.set(s as usize);
        }
        let mut issued = 0;
        let (mut alu, mut mul, mut lsu, mut fpu) = (
            self.cfg.fus.alus,
            self.cfg.fus.int_mul_units,
            self.cfg.fus.lsus,
            self.cfg.fus.fpus,
        );
        let core = self.core_id;
        // Oldest-first walk of the ready entries, up to the issue width. An
        // entry blocked by a structural hazard stays ready for next cycle.
        let mut scan = RingScan::new(self.rob.head, self.rob.cap);
        while issued < self.cfg.issue_width {
            let Some(s) = scan.next(&self.ready) else {
                break;
            };
            let kind = self.rob.kind[s];
            // Structural hazards.
            let lat = match kind {
                OpKind::IntAlu | OpKind::Branch => {
                    if alu == 0 {
                        continue;
                    }
                    alu -= 1;
                    1
                }
                OpKind::IntMul => {
                    if mul == 0 {
                        continue;
                    }
                    mul -= 1;
                    self.cfg.fus.int_mul_lat
                }
                OpKind::IntDiv => {
                    if mul == 0 || self.next_div_free > cycle {
                        continue;
                    }
                    mul -= 1;
                    self.next_div_free = cycle + self.cfg.fus.int_div_lat;
                    self.cfg.fus.int_div_lat
                }
                OpKind::FpAdd => {
                    if fpu == 0 {
                        continue;
                    }
                    fpu -= 1;
                    self.cfg.fus.fp_add_lat
                }
                OpKind::FpMul => {
                    if fpu == 0 {
                        continue;
                    }
                    fpu -= 1;
                    self.cfg.fus.fp_mul_lat
                }
                OpKind::FpDiv => {
                    // Divides issue every `fp_div_lat` cycles (Table 9).
                    if fpu == 0 || self.next_fpdiv_free > cycle {
                        continue;
                    }
                    fpu -= 1;
                    self.next_fpdiv_free = cycle + self.cfg.fus.fp_div_lat;
                    self.cfg.fus.fp_div_lat
                }
                OpKind::Load | OpKind::Store => {
                    if lsu == 0 {
                        continue;
                    }
                    lsu -= 1;
                    0 // computed below
                }
                OpKind::Barrier => 1,
            };
            self.ready.clear(s);
            self.iq_occ -= 1;
            let op_addr = self.rob.payload[s];
            let op_shared = self.rob.flags[s] & F_SHARED != 0;
            let op_seq = self.rob.seq[s];
            let done = match kind {
                OpKind::Load => {
                    self.stats.loads += 1;
                    self.stats.sq_searches += 1;
                    let a8 = op_addr & !7;
                    match self.sq_fwd.forward_from(op_seq, a8) {
                        Some(st_done) => {
                            self.stats.store_forwards += 1;
                            cycle.max(st_done) + 1
                        }
                        None => cycle + mem.load_latency(core, op_addr, op_shared),
                    }
                }
                OpKind::Store => {
                    self.stats.stores += 1;
                    self.stats.lq_searches += 1;
                    let _ = mem.store_latency(core, op_addr, op_shared);
                    let done = cycle + 1;
                    self.sq_fwd.push(op_seq, op_addr & !7, done);
                    done
                }
                _ => cycle + lat,
            };
            self.rob.done[s] = done;
            self.wake_consumers(s, done, cycle);
            self.stats.issued += 1;
            self.stats.rf_reads +=
                self.rob.deps[s].iter().filter(|&&d| d != TAG_NONE).count() as u64;
            match kind {
                OpKind::IntAlu => self.stats.alu_ops += 1,
                OpKind::IntMul | OpKind::IntDiv => self.stats.mul_ops += 1,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => self.stats.fp_ops += 1,
                OpKind::Branch => {
                    self.stats.branches += 1;
                }
                _ => {}
            }
            if kind == OpKind::Branch && self.rob.flags[s] & F_MISPRED != 0 {
                // Resolve: restart the front end after the penalty.
                self.stats.mispredictions += 1;
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(done + self.cfg.mispredict_penalty);
                self.fetch_blocked_on_branch = false;
            }
            issued += 1;
        }
        if issued > 0 {
            self.stats.active_cycles += 1;
            // Every issue broadcasts its tag to the IQ.
            self.stats.iq_wakeups += issued as u64;
        }
    }

    /// Producer `p` issued with completion cycle `done`: each consumer
    /// operand on its list stops waiting, and a consumer with no operand
    /// left waiting becomes ready now or joins the calendar.
    fn wake_consumers(&mut self, p: usize, done: u64, cycle: u64) {
        let mut node = std::mem::replace(&mut self.rob.cons_head[p], NO_CONS);
        while node != NO_CONS {
            let c = (node >> 1) as usize;
            node = self.rob.cons_next[c][(node & 1) as usize];
            self.rob.ready_at[c] = self.rob.ready_at[c].max(done);
            self.rob.pending[c] -= 1;
            if self.rob.pending[c] == 0 {
                self.schedule(c, cycle);
            }
        }
    }

    /// Entry `s` has no operand waiting on an unissued producer.
    #[inline]
    fn schedule(&mut self, s: usize, cycle: u64) {
        let at = self.rob.ready_at[s];
        if at <= cycle {
            self.ready.set(s);
        } else {
            self.calendar.push(Reverse((at, s as u32)));
        }
    }

    fn dispatch(&mut self, cycle: u64) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(f) = self.fetch_queue.front() else {
                break;
            };
            if f.avail_cycle >= cycle {
                break;
            }
            if self.rob.len >= self.cfg.rob_entries || self.iq_occ >= self.cfg.iq_entries {
                break;
            }
            let op = f.op;
            match op.kind {
                OpKind::Load if self.lq_occ >= self.cfg.lq_entries => break,
                OpKind::Store if self.sq_occ >= self.cfg.sq_entries => break,
                _ => {}
            }
            let fp_dst = Self::uses_fp_reg(&op);
            if op.dst.is_some() {
                let pool = if fp_dst {
                    &mut self.free_fp
                } else {
                    &mut self.free_int
                };
                if *pool == 0 {
                    break;
                }
                *pool -= 1;
            }
            let f = self.fetch_queue.pop_front().expect("checked non-empty");
            let seq = self.next_seq;
            self.next_seq += 1;
            // Read the RAT before (possibly) renaming the destination, so a
            // µop reading and writing the same register sees the prior
            // producer.
            let deps = [
                op.srcs[0].map_or(TAG_NONE, |r| self.rat[r as usize]),
                op.srcs[1].map_or(TAG_NONE, |r| self.rat[r as usize]),
            ];
            self.stats.rat_reads += op.srcs.iter().flatten().count() as u64;
            match op.kind {
                OpKind::Load => self.lq_occ += 1,
                OpKind::Store => self.sq_occ += 1,
                _ => {}
            }
            let is_barrier = op.kind == OpKind::Barrier;
            let slot = self.rob.alloc();
            self.rob.seq[slot] = seq;
            self.rob.kind[slot] = op.kind;
            self.rob.dst[slot] = op.dst.unwrap_or(NO_DST);
            self.rob.deps[slot] = deps;
            // Barriers bypass the IQ: they only synchronise at commit.
            self.rob.done[slot] = if is_barrier { cycle + 1 } else { NOT_ISSUED };
            self.rob.payload[slot] = if is_barrier { op.barrier_id } else { op.addr };
            self.rob.flags[slot] = (if f.mispredicted { F_MISPRED } else { 0 })
                | (if op.shared { F_SHARED } else { 0 })
                | (if fp_dst { F_FP_DST } else { 0 });
            if let Some(d) = op.dst {
                self.rat[d as usize] = self.rob.tag(slot);
                self.stats.rat_writes += 1;
            }
            if !is_barrier {
                // Wait on each producer that has not issued; take the
                // completion cycle of each one that has.
                debug_assert_eq!(self.rob.cons_head[slot], NO_CONS);
                let mut ready_at = cycle + 1;
                let mut pending = 0;
                for (i, &dep) in deps.iter().enumerate() {
                    let Some(p) = self.rob.producer(dep) else {
                        continue;
                    };
                    if self.rob.done[p] == NOT_ISSUED {
                        self.rob.cons_next[slot][i] = self.rob.cons_head[p];
                        self.rob.cons_head[p] = ((slot << 1) | i) as u32;
                        pending += 1;
                    } else {
                        ready_at = ready_at.max(self.rob.done[p]);
                    }
                }
                self.rob.ready_at[slot] = ready_at;
                self.rob.pending[slot] = pending;
                if pending == 0 {
                    self.schedule(slot, cycle);
                }
                self.iq_occ += 1;
            }
            self.stats.dispatched += 1;
        }
    }

    fn fetch(&mut self, cycle: u64, mem: &mut MemorySystem) {
        if self.fetch_blocked_on_branch || cycle < self.fetch_stall_until {
            return;
        }
        if self.fetch_queue.len() >= 2 * self.cfg.dispatch_width {
            return;
        }
        for _ in 0..self.cfg.dispatch_width {
            let op = self.gen.next_op();
            self.stats.fetched += 1;
            // Instruction cache.
            let ic = mem.fetch_latency(self.core_id, op.pc);
            let mut extra = ic.saturating_sub(self.cfg.il1.rt_cycles);
            // Complex instructions pay the extra decode latency when the
            // complex decoder lives in the top layer (Section 4.1.2).
            if op.complex_decode {
                extra += self.cfg.complex_decode_extra;
            }
            let mut fetched = FetchedOp {
                op,
                avail_cycle: cycle + extra,
                mispredicted: false,
            };
            if op.kind == OpKind::Branch {
                self.stats.bpred_accesses += 1;
                self.stats.btb_accesses += 1;
                let pred_dir = self.bpred.predict(op.pc);
                let pred_target = self.btb.lookup(op.pc);
                let mispredict =
                    pred_dir != op.taken || (op.taken && pred_target != Some(op.target));
                self.bpred.update(op.pc, op.taken);
                if op.taken {
                    self.btb.insert(op.pc, op.target);
                }
                if mispredict {
                    fetched.mispredicted = true;
                    self.fetch_queue.push_back(fetched);
                    self.fetch_blocked_on_branch = true;
                    return;
                }
            }
            self.fetch_queue.push_back(fetched);
            if extra > 0 {
                // I-cache miss: stop fetching until the line returns.
                self.fetch_stall_until = cycle + extra;
                return;
            }
        }
    }

    /// Earliest cycle strictly after `cycle` at which a quiescent core can
    /// make progress, or `None` if no local event is pending (livelock, or
    /// waiting purely on remote cores). Only meaningful right after a
    /// [`CoreEngine::step`] at `cycle` returned `false`.
    ///
    /// Candidates (see DESIGN.md for why this set is exhaustive): the head
    /// entry's completion (commit); the calendar's earliest `ready_at`
    /// (issue of an entry whose producers have all issued — entries still
    /// waiting on an unissued producer are covered by that producer's own
    /// issue); each ready entry a structural hazard held back (kinds with
    /// zero functional units can never issue, dividers wait for their
    /// unit); the fetch queue's front becoming dispatchable; and the
    /// front-end restart cycle. Extra candidates are harmless (the step at
    /// a too-early wake is idle and skip-ahead resumes); a missing candidate
    /// would be a correctness bug, caught by the `oracle_equiv` property
    /// test.
    pub fn next_wake(&self, cycle: u64) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let mut consider = |w: u64| {
            let w = w.max(cycle + 1);
            wake = Some(wake.map_or(w, |cur| cur.min(w)));
        };
        if self.rob.len > 0 {
            let head_done = self.rob.done[self.rob.head];
            if head_done != NOT_ISSUED && head_done > cycle {
                consider(head_done);
            }
        }
        if let Some(&Reverse((at, _))) = self.calendar.peek() {
            consider(at);
        }
        let mut scan = RingScan::new(0, self.rob.cap);
        while let Some(s) = scan.next(&self.ready) {
            let kind = self.rob.kind[s];
            // A kind with no functional unit can never issue; without a
            // candidate the run loop jumps straight to its livelock cap,
            // exactly as idle stepping would.
            let has_fu = match kind {
                OpKind::IntAlu | OpKind::Branch => self.cfg.fus.alus > 0,
                OpKind::IntMul | OpKind::IntDiv => self.cfg.fus.int_mul_units > 0,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => self.cfg.fus.fpus > 0,
                OpKind::Load | OpKind::Store => self.cfg.fus.lsus > 0,
                OpKind::Barrier => true,
            };
            if has_fu {
                consider(match kind {
                    OpKind::IntDiv => self.next_div_free,
                    OpKind::FpDiv => self.next_fpdiv_free,
                    _ => cycle + 1,
                });
            }
        }
        if let Some(f) = self.fetch_queue.front() {
            consider(f.avail_cycle + 1);
        }
        if !self.fetch_blocked_on_branch {
            consider(self.fetch_stall_until);
        }
        wake
    }

    /// Account `k` consecutive idle cycles in bulk, exactly as `k` calls to
    /// [`CoreEngine::step`] on a quiescent machine would. Per idle cycle
    /// that means: one occupancy sample (state is frozen, so the sums scale
    /// linearly) and one stall attribution — barrier stall when a released
    /// barrier is pending at the head (matching the commit path), otherwise
    /// the front-end/memory/execute split of `attribute_stall`. Nothing
    /// else in an idle cycle touches state: no commit, issue, dispatch or
    /// fetch happens, and the memory system and predictors are only
    /// accessed from those paths.
    pub fn skip_idle(&mut self, k: u64) {
        self.skip_jumps += 1;
        self.skipped_cycles += k;
        self.stats.occupancy_samples += k;
        self.stats.rob_occupancy_sum += self.rob.len as u64 * k;
        self.stats.iq_occupancy_sum += self.iq_occ as u64 * k;
        if self.rob.len == 0 {
            self.stats.stall_frontend_cycles += k;
            return;
        }
        let h = self.rob.head;
        let kind = self.rob.kind[h];
        let done = self.rob.done[h];
        if kind == OpKind::Barrier {
            // Quiescence implies the barrier was already announced and not
            // released; each idle cycle's commit attempt counts one stall.
            if done != NOT_ISSUED {
                self.stats.barrier_stall_cycles += k;
            }
        } else {
            // `attribute_stall`'s `done == NOT_ISSUED || done > cycle` test
            // holds at every skipped cycle: an issued non-barrier head with
            // `done <= cycle` would commit (progress, ending the skip), and
            // the head's completion is itself a wake candidate so the jump
            // never crosses it. The attribution is therefore unconditional.
            if kind.is_mem() {
                self.stats.stall_memory_cycles += k;
            } else {
                self.stats.stall_execute_cycles += k;
            }
        }
    }
}

/// The random-machine generator of the `oracle_equiv` property test.
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use super::support::perturbed;
    use super::*;
    use crate::multicore::Multicore;
    use crate::stats::PerfResult;
    use m3d_workloads::parallel::splash_parsec;
    use m3d_workloads::spec::{spec2006, spec_by_name};
    use m3d_workloads::{TraceGenerator, WorkloadProfile};
    use proptest::prelude::*;

    fn run_app(name: &str, cfg: CoreConfig, n: u64) -> PerfResult {
        let p = spec_by_name(name).expect("profile");
        let mut core = Multicore::new(cfg, &p, 11, 1);
        // Warm the caches and predictors, then measure.
        let _ = core.run(30_000);
        core.run(n)
    }

    #[test]
    fn ipc_is_sane_across_suite() {
        for p in spec2006().iter().step_by(5) {
            let mut core = Multicore::new(CoreConfig::base_2d(), p, 3, 1);
            let _ = core.run(20_000);
            let r = core.run(30_000);
            assert!(
                r.ipc() > 0.1 && r.ipc() < 5.0,
                "{}: ipc {}",
                p.name,
                r.ipc()
            );
        }
    }

    #[test]
    fn compute_bound_beats_memory_bound_ipc() {
        let hot = run_app("Hmmer", CoreConfig::base_2d(), 30_000);
        let cold = run_app("Mcf", CoreConfig::base_2d(), 30_000);
        assert!(
            hot.ipc() > 1.5 * cold.ipc(),
            "hmmer {} vs mcf {}",
            hot.ipc(),
            cold.ipc()
        );
    }

    #[test]
    fn branchy_apps_mispredict_more() {
        let branchy = run_app("Sjeng", CoreConfig::base_2d(), 30_000);
        let regular = run_app("Lbm", CoreConfig::base_2d(), 30_000);
        assert!(
            branchy.activity.mispredict_rate() > 2.0 * regular.activity.mispredict_rate(),
            "sjeng {} vs lbm {}",
            branchy.activity.mispredict_rate(),
            regular.activity.mispredict_rate()
        );
    }

    #[test]
    fn higher_frequency_is_faster_but_sublinear_for_memory_bound() {
        let base = run_app("Mcf", CoreConfig::base_2d(), 30_000);
        let fast = run_app("Mcf", CoreConfig::base_2d().with_frequency(4.34), 30_000);
        let speedup = fast.speedup_over(&base);
        assert!(speedup > 1.0, "speedup {speedup}");
        assert!(
            speedup < 4.34 / 3.3,
            "memory-bound app must not scale fully: {speedup}"
        );
    }

    #[test]
    fn compute_bound_scales_nearly_with_frequency() {
        let base = run_app("Hmmer", CoreConfig::base_2d(), 60_000);
        let fast = run_app("Hmmer", CoreConfig::base_2d().with_frequency(4.34), 60_000);
        let speedup = fast.speedup_over(&base);
        let ratio = 4.34 / 3.3;
        // Residual compulsory misses keep even cache-friendly codes a few
        // percent below perfect scaling.
        assert!(
            speedup > 0.83 * ratio && speedup <= 1.02 * ratio,
            "speedup {speedup} vs ratio {ratio}"
        );
    }

    #[test]
    fn shorter_3d_paths_raise_ipc() {
        let base = run_app("Gobmk", CoreConfig::base_2d(), 30_000);
        let threed = run_app("Gobmk", CoreConfig::base_2d().with_3d_paths(), 30_000);
        assert!(
            threed.ipc() > base.ipc(),
            "3d {} vs 2d {}",
            threed.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn stall_attribution_matches_workload_character() {
        // Memory-bound mcf stalls on memory; predictable lbm streams too but
        // through the prefetcher; branchy sjeng burns front-end cycles.
        let mcf = run_app("Mcf", CoreConfig::base_2d(), 30_000);
        assert!(
            mcf.activity.stall_memory_cycles > mcf.activity.stall_execute_cycles,
            "mcf: mem {} vs exec {}",
            mcf.activity.stall_memory_cycles,
            mcf.activity.stall_frontend_cycles
        );
        let sjeng = run_app("Sjeng", CoreConfig::base_2d(), 30_000);
        assert!(
            sjeng.activity.stall_frontend_cycles > 0,
            "sjeng must show front-end stalls"
        );
        // Occupancy: the memory-bound app fills the window far more.
        assert!(
            mcf.activity.avg_rob_occupancy() > sjeng.activity.avg_rob_occupancy(),
            "mcf rob {} vs sjeng {}",
            mcf.activity.avg_rob_occupancy(),
            sjeng.activity.avg_rob_occupancy()
        );
    }

    #[test]
    fn complex_decoder_in_top_costs_a_little() {
        // Section 4.1.2: moving the complex decoder + ucode ROM to the top
        // layer charges complex instructions one extra decode cycle; with
        // the ~2-5% complex rates of real code the slowdown is negligible.
        let base = run_app("Gcc", CoreConfig::base_2d(), 30_000);
        let het = run_app(
            "Gcc",
            CoreConfig::base_2d().with_complex_decoder_in_top(),
            30_000,
        );
        let ratio = het.cycles as f64 / base.cycles as f64;
        assert!(
            ratio >= 0.99,
            "complex decode cannot speed things up: {ratio}"
        );
        assert!(ratio < 1.05, "penalty must be negligible: {ratio}");
    }

    #[test]
    fn commit_counts_match_request() {
        let r = run_app("Bzip2", CoreConfig::base_2d(), 12_345);
        assert_eq!(r.instructions, 12_345);
        assert!(r.cycles > 0);
    }

    #[test]
    fn barrier_ctl_releases_when_all_arrive() {
        let mut b = BarrierCtl::new(3);
        assert!(b.announce(0, 1));
        assert!(b.announce(1, 1));
        assert!(!b.released(1));
        assert!(b.announce(2, 1));
        assert!(b.released(1));
        // Idempotent announcements are not "new".
        assert!(!b.announce(2, 1));
        assert!(b.released(1));
    }

    /// Oldest-first visits of a [`RingScan`] from `head` over a mask of
    /// `cap` slots with `initial` set; visiting the entry at ring position
    /// `k` sets the slots at positions `spawn(k)` (all younger than `k`),
    /// as a zero-latency producer readies its consumers mid-scan.
    fn ring_scan_order(
        cap: usize,
        head: usize,
        initial: &[usize],
        spawn: impl Fn(usize) -> Vec<usize>,
    ) -> Vec<usize> {
        let mut mask = SlotMask::new(cap);
        for &s in initial {
            mask.set(s);
        }
        let mut scan = RingScan::new(head, cap);
        let mut order = Vec::new();
        while let Some(s) = scan.next(&mask) {
            order.push(s);
            for k in spawn((s + cap - head) % cap) {
                mask.set((head + k) % cap);
            }
        }
        order
    }

    #[test]
    fn ring_scan_matches_an_oldest_first_slot_walk() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for cap in [1, 63, 64, 65, 100, 192] {
            for head in 0..cap {
                for density in [0, 1, 8, 64] {
                    let rob = RobSoa {
                        head,
                        len: cap,
                        ..RobSoa::new(cap)
                    };
                    let initial: Vec<usize> = (0..cap).filter(|_| rand() % 64 < density).collect();
                    let salt = rand();
                    // Each visited position readies zero to two younger ones.
                    let spawn = |k: usize| -> Vec<usize> {
                        let h = (k as u64 ^ salt).wrapping_mul(0x2545_F491_4F6C_DD1D);
                        [h % 3, (h >> 8) % 70]
                            .iter()
                            .map(|&d| k + 1 + d as usize)
                            .filter(|&j| j < cap && h >> 62 != 0)
                            .collect()
                    };
                    // The plain walk: every ring position, oldest first.
                    let mut set = vec![false; cap];
                    for &s in &initial {
                        set[s] = true;
                    }
                    let mut expected = Vec::new();
                    for k in 0..rob.len {
                        let s = rob.slot_at(k);
                        if set[s] {
                            expected.push(s);
                            for j in spawn(k) {
                                set[rob.slot_at(j)] = true;
                            }
                        }
                    }
                    assert_eq!(
                        ring_scan_order(cap, head, &initial, spawn),
                        expected,
                        "cap {cap}, head {head}, density {density}"
                    );
                }
            }
        }
    }

    /// What a test can observe of each µop, recorded as it passes through
    /// the window: its dispatch cycle, its producers and its completion.
    #[derive(Default)]
    struct Observed {
        dispatched: HashMap<u64, u64>,
        producers: HashMap<u64, Vec<u64>>,
        done: HashMap<u64, u64>,
    }

    impl Observed {
        /// Record what `step(cycle)` changed in `e`'s window.
        fn record(&mut self, e: &CoreEngine, cycle: u64) {
            for k in 0..e.rob.len {
                let s = e.rob.slot_at(k);
                let seq = e.rob.seq[s];
                if let std::collections::hash_map::Entry::Vacant(v) = self.dispatched.entry(seq) {
                    v.insert(cycle);
                    let producers = e.rob.deps[s]
                        .iter()
                        .filter_map(|&d| e.rob.producer(d))
                        .map(|p| e.rob.seq[p])
                        .collect();
                    self.producers.insert(seq, producers);
                }
                if e.rob.done[s] != NOT_ISSUED {
                    self.done.entry(seq).or_insert(e.rob.done[s]);
                }
            }
        }

        /// Check `e`'s wake-up state after `step(cycle)` against the ROB:
        /// each unissued non-barrier entry is in exactly one of the ready
        /// mask, the calendar or its producers' consumer lists (once per
        /// pending operand); `pending` and `ready_at` equal their
        /// recomputation; the occupancy counts exactly those entries and
        /// fits in `iq_entries`.
        fn check(&self, e: &CoreEngine, cycle: u64) -> Result<(), String> {
            let cap = e.rob.cap;
            let in_mask: Vec<bool> = (0..cap)
                .map(|s| e.ready.first_in(s, s + 1).is_some())
                .collect();
            let mut in_calendar = vec![0usize; cap];
            let mut on_lists = vec![0usize; cap];
            for &head in &e.rob.cons_head {
                let mut node = head;
                while node != NO_CONS {
                    on_lists[(node >> 1) as usize] += 1;
                    node = e.rob.cons_next[(node >> 1) as usize][(node & 1) as usize];
                }
            }
            for &Reverse((at, s)) in &e.calendar {
                let s = s as usize;
                in_calendar[s] += 1;
                if at != e.rob.ready_at[s] || at <= cycle {
                    let ready_at = e.rob.ready_at[s];
                    return Err(format!("slot {s}: calendar key {at}, ready_at {ready_at}"));
                }
            }
            let mut occupancy = 0;
            for k in 0..e.rob.len {
                let s = e.rob.slot_at(k);
                let seq = e.rob.seq[s];
                let waiting = e.rob.done[s] == NOT_ISSUED && e.rob.kind[s] != OpKind::Barrier;
                let places = (in_mask[s], in_calendar[s], on_lists[s]);
                if !waiting {
                    if places != (false, 0, 0) {
                        return Err(format!(
                            "issued or barrier slot {s} still queued: {places:?}"
                        ));
                    }
                    continue;
                }
                occupancy += 1;
                let producers = &self.producers[&seq];
                let pending = producers
                    .iter()
                    .filter(|p| !self.done.contains_key(p))
                    .count();
                let ready_at = producers
                    .iter()
                    .filter_map(|p| self.done.get(p).copied())
                    .fold(self.dispatched[&seq] + 1, u64::max);
                if (e.rob.pending[s] as usize, e.rob.ready_at[s]) != (pending, ready_at) {
                    return Err(format!(
                        "slot {s}: pending {} ready_at {}, expected {pending} {ready_at}",
                        e.rob.pending[s], e.rob.ready_at[s]
                    ));
                }
                let expected = match (pending, ready_at <= cycle) {
                    (0, true) => (true, 0, 0),
                    (0, false) => (false, 1, 0),
                    (n, _) => (false, 0, n),
                };
                if places != expected {
                    return Err(format!("slot {s}: in {places:?}, expected {expected:?}"));
                }
            }
            let stray = (0..cap).find(|&s| {
                let live = (0..e.rob.len).any(|k| e.rob.slot_at(k) == s);
                !live && (in_mask[s] || in_calendar[s] > 0 || on_lists[s] > 0)
            });
            if let Some(s) = stray {
                return Err(format!("free slot {s} is queued"));
            }
            if e.iq_occ != occupancy || occupancy > e.cfg.iq_entries {
                return Err(format!(
                    "occupancy {}, expected {occupancy} (cap {})",
                    e.iq_occ, e.cfg.iq_entries
                ));
            }
            Ok(())
        }
    }

    /// Step `n_cores` engines over one memory system for `cycles` cycles,
    /// checking each core's wake-up state after every step (see
    /// [`Observed::check`]). Returns the first violation, if any, and the
    /// barriers committed, so callers can check that barrier µops really
    /// passed through the window.
    fn first_wakeup_violation(
        cfg: CoreConfig,
        profile: &WorkloadProfile,
        seed: u64,
        n_cores: usize,
        cycles: u64,
    ) -> (Option<String>, u64) {
        let mut mem = MemorySystem::new(cfg.clone(), n_cores);
        let mut barriers = BarrierCtl::new(n_cores);
        let mut cores: Vec<(CoreEngine, Observed)> = (0..n_cores)
            .map(|c| {
                let gen = TraceGenerator::new(profile, seed, c, n_cores);
                (CoreEngine::new(c, cfg.clone(), gen), Observed::default())
            })
            .collect();
        for cycle in 0..cycles {
            for (e, seen) in &mut cores {
                e.step(cycle, &mut mem, &mut barriers);
                seen.record(e, cycle);
                if let Err(msg) = seen.check(e, cycle) {
                    return (Some(format!("core {} cycle {cycle}: {msg}", e.core_id)), 0);
                }
            }
        }
        (None, cores.iter().map(|(e, _)| e.stats.barriers).sum())
    }

    /// `cfg` with every functional-unit latency set to zero, so that
    /// consumers become ready during the issue scan of their producer.
    fn zero_latency(mut cfg: CoreConfig) -> CoreConfig {
        let f = &mut cfg.fus;
        (
            f.int_mul_lat,
            f.int_div_lat,
            f.fp_add_lat,
            f.fp_mul_lat,
            f.fp_div_lat,
        ) = (0, 0, 0, 0, 0);
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn wakeup_state_matches_the_rob_single_core(
            app in 0usize..12,
            three_d in any::<bool>(),
            rob in 16usize..=192,
            iq in 8usize..=64,
            lq in 8usize..=48,
            sq in 8usize..=48,
            width in 1usize..=6,
            freq_centi_ghz in 100u64..=400,
            dram_tenth_ns in 200u64..=2000,
            zero_lat in any::<bool>(),
            seed in any::<u64>(),
            cycles in 500u64..=4_000,
        ) {
            let mut cfg = perturbed(three_d, rob, iq, lq, sq, width, freq_centi_ghz, dram_tenth_ns);
            if zero_lat {
                cfg = zero_latency(cfg);
            }
            prop_assume!(cfg.validate().is_ok());
            let apps = spec2006();
            let (violation, _) =
                first_wakeup_violation(cfg, &apps[app % apps.len()], seed, 1, cycles);
            prop_assert_eq!(violation, None);
        }

        #[test]
        fn wakeup_state_matches_the_rob_with_barriers(
            app in 0usize..15,
            n_cores in 2usize..=4,
            three_d in any::<bool>(),
            rob in 24usize..=128,
            iq in 8usize..=64,
            width in 1usize..=6,
            dram_tenth_ns in 300u64..=1500,
            barrier_interval in 10u64..=100,
            zero_lat in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut cfg = perturbed(three_d, rob, iq, 48, 48, width, 330, dram_tenth_ns);
            if zero_lat {
                cfg = zero_latency(cfg);
            }
            prop_assume!(cfg.validate().is_ok());
            let apps = splash_parsec();
            // Barriers every few dozen µops, so that many of them pass
            // through the window next to issue-queue entries.
            let profile = WorkloadProfile {
                barrier_interval,
                ..apps[app % apps.len()].clone()
            };
            let (violation, barriers) =
                first_wakeup_violation(cfg, &profile, seed, n_cores, 10_000);
            prop_assert_eq!(violation, None);
            prop_assert!(barriers > 0, "no barrier committed");
        }
    }
}
