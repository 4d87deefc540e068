//! Generating a µop stream once and replaying it.
//!
//! A stream is a pure function of `(profile, seed, core_id)` (see
//! [`TraceGenerator::new`]), so design points that differ only in the
//! machine can share it. An [`OpStream`] is where one core's µops come
//! from:
//!
//! - [`OpStream::Live`] generates every µop;
//! - [`OpStream::Record`] generates every µop and also records the first
//!   `cap` of them in a compact [`StreamRecord`], 8 bytes per µop;
//! - [`OpStream::Replay`] decodes a record, then continues from a copy of
//!   the generator as it stood where the record ends.
//!
//! A record keeps only what the generator drew at random: each µop's kind,
//! source registers, decode/shared/taken flags, and its address (memory
//! µops) or branch-site index (branches). The rest is re-derived on
//! replay: a branch's pc and target from the site table, and the
//! sequential pc, destination registers and barrier ids by advancing the
//! same cursor the generator advances (`gen::Cursor`). A replayed stream
//! therefore equals the live one µop for µop, across the end of the record
//! too.

use crate::gen::{Cursor, TraceGenerator};
use crate::op::{MicroOp, OpKind};
use std::sync::Arc;

/// Bits of a record word that hold the address or the branch-site index.
const PAYLOAD_BITS: u32 = 45;
/// Bit position of the payload.
const PAYLOAD_SHIFT: u32 = 64 - PAYLOAD_BITS;

/// Kinds by their 4-bit record code.
const KINDS: [OpKind; 10] = [
    OpKind::IntAlu,
    OpKind::IntMul,
    OpKind::IntDiv,
    OpKind::FpAdd,
    OpKind::FpMul,
    OpKind::FpDiv,
    OpKind::Load,
    OpKind::Store,
    OpKind::Branch,
    OpKind::Barrier,
];

/// One record word: kind (bits 0–3), complex decode (4), shared (5),
/// taken (6), the two sources as present-bit + register (7–12, 13–18), and
/// the payload from bit 19: a memory µop's address or a branch's site.
fn encode(op: &MicroOp, site: usize) -> u64 {
    let reg = |r: Option<u8>| r.map_or(0, |r| 0x20 | u64::from(r));
    let payload = match op.kind {
        OpKind::Branch => site as u64,
        OpKind::Load | OpKind::Store => op.addr,
        _ => 0,
    };
    debug_assert!(payload >> PAYLOAD_BITS == 0, "payload fits its field");
    KINDS
        .iter()
        .position(|&k| k == op.kind)
        .expect("known kind") as u64
        | u64::from(op.complex_decode) << 4
        | u64::from(op.shared) << 5
        | u64::from(op.taken) << 6
        | reg(op.srcs[0]) << 7
        | reg(op.srcs[1]) << 13
        | payload << PAYLOAD_SHIFT
}

/// The first µops of one stream in compact form, plus what replay needs
/// to re-derive the rest of each µop and to continue past the end.
#[derive(Clone)]
pub struct StreamRecord {
    ops: Vec<u64>,
    /// The generator positioned just after the last recorded µop.
    tail: TraceGenerator,
    /// `(pc, target)` per branch site.
    sites: Vec<(u64, u64)>,
    /// Code footprint the sequential pc wraps in.
    code: u64,
}

impl std::fmt::Debug for StreamRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamRecord")
            .field("ops", &self.ops.len())
            .field("sites", &self.sites.len())
            .finish_non_exhaustive()
    }
}

/// A generator that records the µops it hands out, up to a cap.
#[derive(Debug, Clone)]
pub struct Recorder {
    gen: TraceGenerator,
    ops: Vec<u64>,
    cap: usize,
    /// The generator as it stood at the cap, once the cap is reached.
    tail: Option<Box<TraceGenerator>>,
}

impl Recorder {
    fn next_op(&mut self) -> MicroOp {
        let op = self.gen.next_op();
        if self.ops.len() < self.cap {
            self.ops.push(encode(&op, self.gen.last_site));
            if self.ops.len() == self.cap {
                self.tail = Some(Box::new(self.gen.clone()));
            }
        }
        op
    }
}

/// A cursor over a shared [`StreamRecord`], then a private generator.
#[derive(Debug, Clone)]
pub struct Replay {
    record: Arc<StreamRecord>,
    pos: usize,
    cursor: Cursor,
    /// The record's tail generator, copied once the record runs out.
    tail: Option<Box<TraceGenerator>>,
}

impl Replay {
    fn next_op(&mut self) -> MicroOp {
        match self.record.ops.get(self.pos) {
            Some(&w) => {
                self.pos += 1;
                self.decode(w)
            }
            None => self
                .tail
                .get_or_insert_with(|| Box::new(self.record.tail.clone()))
                .next_op(),
        }
    }

    /// Rebuild one µop, advancing the re-derived state as the generator
    /// advances its own.
    fn decode(&mut self, w: u64) -> MicroOp {
        let reg = |bits: u64| (bits & 0x20 != 0).then_some((bits & 0x1f) as u8);
        let kind = KINDS[(w & 0xf) as usize];
        let mut op = MicroOp {
            pc: self.cursor.pc,
            kind,
            dst: None,
            srcs: [reg(w >> 7), reg(w >> 13)],
            addr: 0,
            taken: w >> 6 & 1 != 0,
            target: 0,
            complex_decode: w >> 4 & 1 != 0,
            barrier_id: 0,
            shared: w >> 5 & 1 != 0,
        };
        if kind == OpKind::Barrier {
            op.barrier_id = self.cursor.barrier();
            return op;
        }
        op.pc = self.cursor.step(self.record.code);
        let payload = w >> PAYLOAD_SHIFT;
        match kind {
            OpKind::Branch => {
                let (pc, target) = self.record.sites[payload as usize];
                op.pc = pc;
                op.target = target;
                self.cursor.branch(op.taken, target);
            }
            OpKind::Store => op.addr = payload,
            OpKind::Load => {
                op.addr = payload;
                op.dst = Some(self.cursor.dst());
            }
            _ => op.dst = Some(self.cursor.dst()),
        }
        op
    }
}

/// Where one core's µops come from; see the module docs.
#[derive(Debug, Clone)]
pub enum OpStream {
    /// Generate every µop.
    Live(TraceGenerator),
    /// Generate every µop and record the first ones.
    Record(Recorder),
    /// Replay a record, then generate.
    Replay(Replay),
}

impl From<TraceGenerator> for OpStream {
    fn from(gen: TraceGenerator) -> Self {
        Self::Live(gen)
    }
}

impl OpStream {
    /// Generate from `gen` and record its first `cap` µops. A fresh
    /// generator is expected: a record always starts at the stream's
    /// first µop. A stream whose addresses could overflow a record word
    /// records nothing, and its replay generates every µop.
    pub fn record(gen: TraceGenerator, cap: usize) -> Self {
        let cap = if gen.max_addr() >> PAYLOAD_BITS == 0 {
            cap
        } else {
            0
        };
        let tail = (cap == 0).then(|| Box::new(gen.clone()));
        Self::Record(Recorder {
            gen,
            ops: Vec::with_capacity(cap),
            cap,
            tail,
        })
    }

    /// Replay `record` from its first µop.
    pub fn replay(record: Arc<StreamRecord>) -> Self {
        Self::Replay(Replay {
            record,
            pos: 0,
            cursor: Cursor::new(),
            tail: None,
        })
    }

    /// The next µop of the stream.
    #[inline]
    pub fn next_op(&mut self) -> MicroOp {
        match self {
            Self::Live(gen) => gen.next_op(),
            Self::Record(rec) => rec.next_op(),
            Self::Replay(rep) => rep.next_op(),
        }
    }

    /// The record of a [`OpStream::Record`] stream, `None` for the others.
    pub fn into_record(self) -> Option<StreamRecord> {
        let Self::Record(rec) = self else {
            return None;
        };
        let (sites, code) = (rec.gen.site_table(), rec.gen.code_span());
        Some(StreamRecord {
            ops: rec.ops,
            tail: rec.tail.map_or(rec.gen, |t| *t),
            sites,
            code,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::splash_parsec;
    use crate::spec::spec2006;
    use crate::WorkloadProfile;
    use proptest::prelude::*;

    /// Record `recorded` µops of a stream with the given cap, then replay
    /// it and compare with a live generator over `total` µops. Returns the
    /// record's length.
    fn replay_matches_live(
        p: &WorkloadProfile,
        seed: u64,
        core: usize,
        cap: usize,
        recorded: usize,
        total: usize,
    ) -> usize {
        let n_cores = core + 1;
        let mut rec = OpStream::record(TraceGenerator::new(p, seed, core, n_cores), cap);
        for _ in 0..recorded {
            rec.next_op();
        }
        let record = Arc::new(rec.into_record().expect("a record stream"));
        let len = record.ops.len();
        let mut live = TraceGenerator::new(p, seed, core, n_cores);
        let mut replay = OpStream::replay(record);
        for i in 0..total {
            assert_eq!(
                replay.next_op(),
                live.next_op(),
                "{} core {core}: µop {i}",
                p.name
            );
        }
        len
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn replay_equals_the_live_generator_across_the_cap(
            pick in 0usize..36,
            seed in any::<u64>(),
            core in 0usize..4,
            cap in 0usize..6_000,
            recorded in 0usize..6_000,
        ) {
            let profiles: Vec<WorkloadProfile> =
                spec2006().into_iter().chain(splash_parsec()).collect();
            let p = &profiles[pick];
            let core = if p.is_parallel() { core } else { 0 };
            let len = replay_matches_live(p, seed, core, cap, recorded, 8_000);
            prop_assert_eq!(len, recorded.min(cap));
        }
    }

    #[test]
    fn barriers_and_every_kind_survive_replay() {
        // Ocean has a 30k-µop barrier cadence; 100k µops cross several
        // barriers, and the tail covers the rest.
        let ocean = &splash_parsec()[8];
        assert_eq!(
            replay_matches_live(ocean, 3, 2, 70_000, 100_000, 120_000),
            70_000
        );
    }

    #[test]
    fn oversized_addresses_record_nothing() {
        let mut p = spec2006()[0].clone();
        p.memory.cold_bytes = 1 << 50;
        assert_eq!(replay_matches_live(&p, 1, 0, 1_000, 500, 2_000), 0);
    }
}
