//! Pins every profile's µop stream.
//!
//! Each case hashes the first [`OPS`] µops of one `(profile, core)` stream
//! with seed [`SEED`] and compares the hash with a literal recorded from
//! the generator. A change to the generator, to a profile, or to how a
//! stream is replayed fails here first and names the stream that moved,
//! long before a simulated figure drifts.

use m3d_workloads::parallel::splash_parsec;
use m3d_workloads::spec::spec2006;
use m3d_workloads::{MicroOp, OpKind, TraceGenerator, WorkloadProfile};

/// µops hashed per stream.
const OPS: usize = 100_000;
/// Trace seed of every pinned stream.
const SEED: u64 = 0x5EED_0021;
/// Core count of the parallel streams (cores 0 and 3 are pinned).
const PARALLEL_CORES: usize = 4;

/// 64-bit FNV-1a over every field of every µop.
fn stream_hash(profile: &WorkloadProfile, core_id: usize, n_cores: usize) -> u64 {
    let mut gen = TraceGenerator::new(profile, SEED, core_id, n_cores);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let reg = |r: Option<u8>| r.map_or(u64::MAX, u64::from);
    for _ in 0..OPS {
        let MicroOp {
            pc,
            kind,
            dst,
            srcs,
            addr,
            taken,
            target,
            complex_decode,
            barrier_id,
            shared,
        } = gen.next_op();
        eat(pc);
        eat(kind_code(kind));
        eat(reg(dst));
        eat(reg(srcs[0]));
        eat(reg(srcs[1]));
        eat(addr);
        eat(u64::from(taken));
        eat(target);
        eat(u64::from(complex_decode));
        eat(barrier_id);
        eat(u64::from(shared));
    }
    h
}

fn kind_code(kind: OpKind) -> u64 {
    match kind {
        OpKind::IntAlu => 0,
        OpKind::IntMul => 1,
        OpKind::IntDiv => 2,
        OpKind::FpAdd => 3,
        OpKind::FpMul => 4,
        OpKind::FpDiv => 5,
        OpKind::Load => 6,
        OpKind::Store => 7,
        OpKind::Branch => 8,
        OpKind::Barrier => 9,
    }
}

/// Compare every case and report all mismatches at once, by name.
fn check(cases: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    assert_eq!(cases.len(), pinned.len(), "one pin per stream");
    let moved: Vec<String> = cases
        .iter()
        .zip(pinned)
        .filter(|((name, got), (want_name, want))| name != want_name || got != want)
        .map(|((name, got), (_, want))| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(moved.is_empty(), "µop streams moved:\n{}", moved.join("\n"));
}

#[test]
fn spec_streams_are_pinned() {
    let cases = spec2006()
        .iter()
        .map(|p| (format!("{} core 0", p.name), stream_hash(p, 0, 1)))
        .collect();
    check(cases, SPEC_PINS);
}

#[test]
fn parallel_streams_are_pinned() {
    let cases = splash_parsec()
        .iter()
        .flat_map(|p| {
            [0, 3].map(|c| {
                (
                    format!("{} core {c}", p.name),
                    stream_hash(p, c, PARALLEL_CORES),
                )
            })
        })
        .collect();
    check(cases, PARALLEL_PINS);
}

const SPEC_PINS: &[(&str, u64)] = &[
    ("Astar core 0", 0x11a1267df32160c8),
    ("Bzip2 core 0", 0x4d0cac2e059406a3),
    ("Calculix core 0", 0xe00ed295827dac68),
    ("Dealii core 0", 0x4544777a1055cb13),
    ("Gamess core 0", 0x99334db51405f606),
    ("Gcc core 0", 0x0ad0f44c409edc32),
    ("Gems core 0", 0x3a6899c8db883a98),
    ("Gobmk core 0", 0x001b52b3a0eeb4f4),
    ("Gromacs core 0", 0x6cd541079593d051),
    ("H264Ref core 0", 0x159ad65ab8494bbb),
    ("Hmmer core 0", 0x93fdc26bb02fc0be),
    ("Lbm core 0", 0x9f30f8f1758c81de),
    ("Libquantum core 0", 0x068a04710514d0da),
    ("Mcf core 0", 0x95ca56acf9e90df8),
    ("Milc core 0", 0xbed76ac9e8e18bc8),
    ("Namd core 0", 0xfdf03b5722008ccd),
    ("Omnetpp core 0", 0x134ccd70f92fff8d),
    ("Povray core 0", 0x58a6332f6b2f41d7),
    ("Sjeng core 0", 0x9750f57184a6517d),
    ("Soplex core 0", 0xcceed029837433ca),
    ("Xalancbmk core 0", 0x90330d8ead475c29),
];

const PARALLEL_PINS: &[(&str, u64)] = &[
    ("Barnes core 0", 0x7b853915bdd4f67d),
    ("Barnes core 3", 0x210f82e653b5c794),
    ("Blackscholes core 0", 0x016e907522728a08),
    ("Blackscholes core 3", 0xe0c72f6e981446aa),
    ("Canneal core 0", 0x9cebeaf8637c396a),
    ("Canneal core 3", 0x80246edce527f78d),
    ("Cholesky core 0", 0x8a7fd6621e520ad6),
    ("Cholesky core 3", 0x6cd2b46f6c69836f),
    ("Fft core 0", 0xe80d84322d6f9eac),
    ("Fft core 3", 0x4eb4b189426d47d2),
    ("Fluidanimate core 0", 0x90f07b2404088b1f),
    ("Fluidanimate core 3", 0xec46752f4c630925),
    ("Fmm core 0", 0xf354dfd53b4e8606),
    ("Fmm core 3", 0x22c5ffcc8a770c84),
    ("Lu core 0", 0xd92d4705b686785a),
    ("Lu core 3", 0x6a65f922d7bb781c),
    ("Ocean core 0", 0x59a558d3fe0e8c93),
    ("Ocean core 3", 0xb2e929f8e269ce28),
    ("Radiosity core 0", 0x607d64b4f1390907),
    ("Radiosity core 3", 0x35e21a3a62c935c2),
    ("Radix core 0", 0x704cf420022ab4d3),
    ("Radix core 3", 0xefa215217cb007ff),
    ("Raytrace core 0", 0xab9824ae06f035fe),
    ("Raytrace core 3", 0xfbea17c2138b6317),
    ("Streamcluster core 0", 0x11fd298af3566ebf),
    ("Streamcluster core 3", 0x70fd250342815ee8),
    ("Water-Nsquared core 0", 0xb250336108f5811b),
    ("Water-Nsquared core 3", 0x3de3d186f654a9b2),
    ("Water-Spatial core 0", 0x1298bf631f3c8e9a),
    ("Water-Spatial core 3", 0xd9fcd79a87980df8),
];
