//! Reference out-of-order core: the plain array-of-structs engine that the
//! production `m3d_uarch::core` replaced, kept only as a test oracle.
//!
//! It shares nothing with the production cycle loop except the memory
//! system, the branch predictors, the barrier controller and the trace
//! generator. Every cycle it scans the whole ROB for issue candidates, looks
//! producer completion times up in a `seq`-keyed `HashMap`, and steps every
//! core on every cycle (no skip-ahead). It is slow and obviously correct;
//! `oracle_equiv` asserts that the production `Core` and `Multicore`, with
//! all their fast paths on, produce exactly its `PerfResult`s.

use m3d_uarch::bpred::{Btb, Tournament};
use m3d_uarch::core::BarrierCtl;
use m3d_uarch::memory::MemorySystem;
use m3d_uarch::{ActivityStats, CoreConfig, PerfResult};
use m3d_workloads::{MicroOp, OpKind, TraceGenerator, WorkloadProfile};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone)]
struct FetchedOp {
    op: MicroOp,
    avail_cycle: u64,
    mispredicted: bool,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    op: MicroOp,
    /// Producer sequence numbers of the two source operands.
    deps: [Option<u64>; 2],
    dispatched: u64,
    issued: bool,
    done_cycle: u64,
    mispredicted: bool,
    in_iq: bool,
}

/// One reference core, stepped against a shared memory system.
#[derive(Debug, Clone)]
pub struct RefEngine {
    core_id: usize,
    cfg: CoreConfig,
    gen: TraceGenerator,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    rat: [Option<u64>; 32],
    /// Completion cycle of every issued, uncommitted µop, by `seq`.
    done_at: HashMap<u64, u64>,
    iq_occ: usize,
    lq_occ: usize,
    sq_occ: usize,
    free_int: usize,
    free_fp: usize,
    fetch_queue: VecDeque<FetchedOp>,
    fetch_stall_until: u64,
    fetch_blocked_on_branch: bool,
    bpred: Tournament,
    btb: Btb,
    /// `(seq, 8-byte-aligned address, done_cycle)` of in-flight stores.
    sq_fwd: VecDeque<(u64, u64, u64)>,
    next_div_free: u64,
    next_fpdiv_free: u64,
    stats: ActivityStats,
    committed: u64,
    cycle_at_target: Option<u64>,
    target: u64,
    stats_at_target: Option<ActivityStats>,
}

impl RefEngine {
    pub fn new(core_id: usize, cfg: CoreConfig, gen: TraceGenerator) -> Self {
        Self {
            core_id,
            free_int: cfg.int_regs,
            free_fp: cfg.fp_regs,
            bpred: Tournament::new(cfg.bpred_entries),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            cfg,
            gen,
            rob: VecDeque::new(),
            next_seq: 0,
            rat: [None; 32],
            done_at: HashMap::new(),
            iq_occ: 0,
            lq_occ: 0,
            sq_occ: 0,
            fetch_queue: VecDeque::new(),
            fetch_stall_until: 0,
            fetch_blocked_on_branch: false,
            sq_fwd: VecDeque::new(),
            next_div_free: 0,
            next_fpdiv_free: 0,
            stats: ActivityStats::default(),
            committed: 0,
            cycle_at_target: None,
            target: u64::MAX,
            stats_at_target: None,
        }
    }

    fn set_target(&mut self, n: u64) {
        self.target = n;
        self.cycle_at_target = None;
        self.stats_at_target = None;
    }

    fn stats_at_target(&self) -> ActivityStats {
        self.stats_at_target.unwrap_or(self.stats)
    }

    /// Advance one cycle: commit → issue → dispatch → fetch.
    pub fn step(&mut self, cycle: u64, mem: &mut MemorySystem, barriers: &mut BarrierCtl) {
        self.stats.occupancy_samples += 1;
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.stats.iq_occupancy_sum += self.iq_occ as u64;
        let committed_before = self.committed;
        self.commit(cycle, barriers);
        if self.committed == committed_before {
            self.attribute_stall(cycle);
        }
        self.issue(cycle, mem);
        self.dispatch(cycle);
        self.fetch(cycle, mem);
    }

    fn attribute_stall(&mut self, cycle: u64) {
        match self.rob.front() {
            None => self.stats.stall_frontend_cycles += 1,
            Some(head) => {
                if head.op.kind == OpKind::Barrier {
                    // Counted by the commit path as barrier stall.
                } else if !head.issued || head.done_cycle > cycle {
                    if head.op.kind.is_mem() {
                        self.stats.stall_memory_cycles += 1;
                    } else {
                        self.stats.stall_execute_cycles += 1;
                    }
                }
            }
        }
    }

    fn commit(&mut self, cycle: u64, barriers: &mut BarrierCtl) {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.issued || head.done_cycle > cycle {
                break;
            }
            if head.op.kind == OpKind::Barrier {
                barriers.announce(self.core_id, head.op.barrier_id);
                if !barriers.released(head.op.barrier_id) {
                    self.stats.barrier_stall_cycles += 1;
                    break;
                }
                self.stats.barriers += 1;
            }
            let head = self.rob.pop_front().expect("checked non-empty");
            if head.op.dst.is_some() {
                self.stats.rf_writes += 1;
                if head.op.kind.is_fp() {
                    self.free_fp += 1;
                } else {
                    self.free_int += 1;
                }
            }
            match head.op.kind {
                OpKind::Load => self.lq_occ -= 1,
                OpKind::Store => {
                    self.sq_occ -= 1;
                    if let Some(pos) = self.sq_fwd.iter().position(|&(s, _, _)| s == head.seq) {
                        self.sq_fwd.remove(pos);
                    }
                }
                _ => {}
            }
            if let Some(d) = head.op.dst {
                if self.rat[d as usize] == Some(head.seq) {
                    self.rat[d as usize] = None;
                }
            }
            self.done_at.remove(&head.seq);
            self.committed += 1;
            self.stats.committed += 1;
            if self.committed == self.target && self.cycle_at_target.is_none() {
                self.cycle_at_target = Some(cycle);
                self.stats_at_target = Some(self.stats);
            }
            n += 1;
        }
    }

    /// A producer's result is available at `cycle` if it has issued and
    /// completed, or if it is older than the ROB head (committed).
    fn dep_ready(&self, dep: Option<u64>, cycle: u64) -> bool {
        match dep {
            None => true,
            Some(seq) => match self.done_at.get(&seq) {
                Some(&done) => done <= cycle,
                None => self.rob.front().is_none_or(|head| seq < head.seq),
            },
        }
    }

    fn issue(&mut self, cycle: u64, mem: &mut MemorySystem) {
        let mut issued = 0;
        let (mut alu, mut mul, mut lsu, mut fpu) = (
            self.cfg.fus.alus,
            self.cfg.fus.int_mul_units,
            self.cfg.fus.lsus,
            self.cfg.fus.fpus,
        );
        let core = self.core_id;
        for i in 0..self.rob.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            let ready = {
                let e = &self.rob[i];
                !e.issued
                    && e.dispatched < cycle
                    && self.dep_ready(e.deps[0], cycle)
                    && self.dep_ready(e.deps[1], cycle)
            };
            if !ready {
                continue;
            }
            let kind = self.rob[i].op.kind;
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
                    0
                }
                OpKind::Barrier => 1,
            };
            let (op_addr, op_shared, op_seq) = {
                let e = &self.rob[i];
                (e.op.addr, e.op.shared, e.seq)
            };
            let done = match kind {
                OpKind::Load => {
                    self.stats.loads += 1;
                    self.stats.sq_searches += 1;
                    let a8 = op_addr & !7;
                    let fwd = self
                        .sq_fwd
                        .iter()
                        .rev()
                        .find(|&&(s, a, _)| s < op_seq && a == a8)
                        .map(|&(_, _, d)| d);
                    match fwd {
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
                    self.sq_fwd.push_back((op_seq, op_addr & !7, done));
                    done
                }
                _ => cycle + lat,
            };
            let e = &mut self.rob[i];
            e.issued = true;
            e.done_cycle = done;
            if e.in_iq {
                self.iq_occ -= 1;
                e.in_iq = false;
            }
            self.done_at.insert(e.seq, done);
            self.stats.issued += 1;
            self.stats.rf_reads += e.deps.iter().flatten().count() as u64;
            match kind {
                OpKind::IntAlu => self.stats.alu_ops += 1,
                OpKind::IntMul | OpKind::IntDiv => self.stats.mul_ops += 1,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => self.stats.fp_ops += 1,
                OpKind::Branch => self.stats.branches += 1,
                _ => {}
            }
            if kind == OpKind::Branch && e.mispredicted {
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
            self.stats.iq_wakeups += issued as u64;
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
            if self.rob.len() >= self.cfg.rob_entries || self.iq_occ >= self.cfg.iq_entries {
                break;
            }
            let op = f.op;
            match op.kind {
                OpKind::Load if self.lq_occ >= self.cfg.lq_entries => break,
                OpKind::Store if self.sq_occ >= self.cfg.sq_entries => break,
                _ => {}
            }
            if op.dst.is_some() {
                let pool = if op.kind.is_fp() {
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
            let deps = [
                op.srcs[0].and_then(|r| self.rat[r as usize]),
                op.srcs[1].and_then(|r| self.rat[r as usize]),
            ];
            self.stats.rat_reads += op.srcs.iter().flatten().count() as u64;
            if let Some(d) = op.dst {
                self.rat[d as usize] = Some(seq);
                self.stats.rat_writes += 1;
            }
            match op.kind {
                OpKind::Load => self.lq_occ += 1,
                OpKind::Store => self.sq_occ += 1,
                _ => {}
            }
            let is_barrier = op.kind == OpKind::Barrier;
            self.rob.push_back(RobEntry {
                seq,
                op,
                deps,
                dispatched: cycle,
                // Barriers bypass the IQ: they only synchronise at commit.
                issued: is_barrier,
                done_cycle: if is_barrier { cycle + 1 } else { u64::MAX },
                mispredicted: f.mispredicted,
                in_iq: !is_barrier,
            });
            if !is_barrier {
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
            let ic = mem.fetch_latency(self.core_id, op.pc);
            let mut extra = ic.saturating_sub(self.cfg.il1.rt_cycles);
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
                self.fetch_stall_until = cycle + extra;
                return;
            }
        }
    }
}

/// `n` reference cores over one memory system, every core stepped on every
/// cycle. With one core and `cap_per_uop = 200` it is the reference for
/// `Core`; with `cap_per_uop = 400` for `Multicore`.
#[derive(Debug, Clone)]
pub struct RefMachine {
    cores: Vec<RefEngine>,
    mem: MemorySystem,
    barriers: BarrierCtl,
    freq_ghz: f64,
    cap_per_uop: u64,
    cycle: u64,
}

impl RefMachine {
    /// The reference for `Core::new(0, cfg, TraceGenerator::new(profile, seed, 0, 1))`.
    pub fn single(cfg: CoreConfig, profile: &WorkloadProfile, seed: u64) -> Self {
        Self::build(cfg, profile, seed, 1, 200)
    }

    /// The reference for `Multicore::new(cfg, profile, seed, n_cores)`.
    pub fn multi(cfg: CoreConfig, profile: &WorkloadProfile, seed: u64, n_cores: usize) -> Self {
        Self::build(cfg, profile, seed, n_cores, 400)
    }

    fn build(
        cfg: CoreConfig,
        profile: &WorkloadProfile,
        seed: u64,
        n_cores: usize,
        cap_per_uop: u64,
    ) -> Self {
        let cores = (0..n_cores)
            .map(|c| {
                RefEngine::new(
                    c,
                    cfg.clone(),
                    TraceGenerator::new(profile, seed, c, n_cores),
                )
            })
            .collect();
        Self {
            cores,
            mem: MemorySystem::new(cfg.clone(), n_cores),
            barriers: BarrierCtl::new(n_cores),
            freq_ghz: cfg.freq_ghz,
            cap_per_uop,
            cycle: 0,
        }
    }

    /// Run until every core commits `n` more µops (or the livelock cap of
    /// `n * cap_per_uop` cycles, at least 10k, runs out). The interval ends
    /// at the slowest core's target cycle.
    pub fn run(&mut self, n: u64) -> PerfResult {
        let start_cycle = self.cycle;
        let start_stats: Vec<ActivityStats> = self.cores.iter().map(|c| c.stats).collect();
        let start_committed: u64 = self.cores.iter().map(|c| c.committed).sum();
        for c in &mut self.cores {
            c.set_target(c.committed + n);
        }
        let cap = start_cycle + n.saturating_mul(self.cap_per_uop).max(10_000);
        while self.cycle < cap && self.cores.iter().any(|c| c.cycle_at_target.is_none()) {
            for c in &mut self.cores {
                c.step(self.cycle, &mut self.mem, &mut self.barriers);
            }
            self.cycle += 1;
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
        let instructions = if !cap_exhausted {
            n * self.cores.len() as u64
        } else if self.cores.len() == 1 {
            self.cores[0].committed - start_committed
        } else {
            activity.committed
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
