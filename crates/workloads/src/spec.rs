//! The 21 SPEC CPU2006 application profiles of the paper's Figures 6–8.
//!
//! Each profile is a synthetic stand-in parameterised from the literature's
//! published characterisations of the suite (instruction mixes, branch
//! mispredict behaviour, working sets): e.g. `mcf` is a pointer-chasing,
//! DRAM-bound code with low ILP; `hmmer` is a high-ILP, L1-resident integer
//! kernel; `gamess`/`povray` are compute-bound FP codes; `gobmk`/`sjeng`
//! are branchy game-tree searches. Absolute numbers will not match the real
//! binaries — the *sensitivity ordering* (memory-bound vs compute-bound vs
//! branchy) is what the reproduction relies on.

use crate::profile::{BranchProfile, InstMix, MemoryProfile, WorkloadProfile};
use std::sync::OnceLock;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

#[allow(clippy::too_many_arguments)]
fn prof(
    name: &str,
    mix: InstMix,
    dep: f64,
    branches: BranchProfile,
    memory: MemoryProfile,
    code_kb: u64,
    complex: f64,
) -> WorkloadProfile {
    let p = WorkloadProfile {
        name: name.to_owned(),
        mix,
        mean_dep_distance: dep,
        branches,
        memory,
        code_bytes: code_kb * KB,
        complex_decode_rate: complex,
        shared_frac: 0.0,
        barrier_interval: 0,
        imbalance: 0.0,
    };
    p.validate();
    p
}

fn br(sites: usize, biased: f64, loops: f64, period: u32) -> BranchProfile {
    BranchProfile {
        static_branches: sites,
        biased,
        loops,
        loop_period: period,
    }
}

fn mem(hot: u64, warm: u64, cold: u64, hf: f64, wf: f64, stride: f64) -> MemoryProfile {
    MemoryProfile {
        hot_bytes: hot,
        warm_bytes: warm,
        cold_bytes: cold,
        hot_frac: hf,
        warm_frac: wf,
        cold_stride_frac: stride,
    }
}

/// Build the 21 SPEC CPU2006 profiles, in the paper's figure order.
pub fn spec2006() -> Vec<WorkloadProfile> {
    let int = InstMix::integer;
    let fp = InstMix::floating;
    vec![
        // Path-finding over a grid; pointer-heavy, moderately branchy.
        prof(
            "Astar",
            int(),
            2.8,
            br(420, 0.45, 0.25, 12),
            mem(24 * KB, 384 * KB, 16 * MB, 0.72, 0.20, 0.2),
            48,
            0.02,
        ),
        // Compression: tight loops, medium working set.
        prof(
            "Bzip2",
            int(),
            3.4,
            br(300, 0.55, 0.30, 24),
            mem(32 * KB, 256 * KB, 4 * MB, 0.74, 0.20, 0.7),
            64,
            0.02,
        ),
        // FE solver: FP, regular, L2-resident.
        prof(
            "Calculix",
            fp(),
            4.6,
            br(180, 0.70, 0.25, 32),
            mem(28 * KB, 64 * KB, 96 * KB, 0.82, 0.15, 0.8),
            160,
            0.03,
        ),
        // FE library: FP with irregular meshes.
        prof(
            "Dealii",
            fp(),
            4.0,
            br(520, 0.60, 0.22, 16),
            mem(28 * KB, 512 * KB, 8 * MB, 0.72, 0.20, 0.5),
            384,
            0.04,
        ),
        // Quantum chemistry: compute-bound FP, cache-resident.
        prof(
            "Gamess",
            fp(),
            5.2,
            br(260, 0.72, 0.23, 48),
            mem(26 * KB, 64 * KB, 96 * KB, 0.84, 0.14, 0.8),
            256,
            0.04,
        ),
        // Compiler: huge code footprint, branchy, medium data.
        prof(
            "Gcc",
            int(),
            3.0,
            br(2200, 0.48, 0.22, 10),
            mem(28 * KB, 512 * KB, 16 * MB, 0.70, 0.21, 0.3),
            1024,
            0.05,
        ),
        // GemsFDTD: streaming FP over giant grids — DRAM bound.
        prof(
            "Gems",
            fp(),
            4.4,
            br(140, 0.76, 0.20, 64),
            mem(16 * KB, 256 * KB, 512 * MB, 0.36, 0.12, 0.95),
            128,
            0.03,
        ),
        // Go engine: very branchy, hard-to-predict.
        prof(
            "Gobmk",
            int(),
            2.9,
            br(1500, 0.35, 0.20, 8),
            mem(28 * KB, 64 * KB, 128 * KB, 0.80, 0.16, 0.3),
            512,
            0.04,
        ),
        // Molecular dynamics: FP compute, small kernels.
        prof(
            "Gromacs",
            fp(),
            5.0,
            br(200, 0.72, 0.24, 40),
            mem(28 * KB, 64 * KB, 96 * KB, 0.82, 0.15, 0.8),
            192,
            0.03,
        ),
        // Video encoder: integer compute, predictable loops.
        prof(
            "H264Ref",
            int(),
            4.8,
            br(380, 0.62, 0.32, 16),
            mem(20 * KB, 48 * KB, 96 * KB, 0.88, 0.09, 0.8),
            256,
            0.03,
        ),
        // Sequence search: hot loop, high ILP, L1-resident.
        prof(
            "Hmmer",
            int(),
            6.4,
            br(120, 0.70, 0.28, 32),
            mem(16 * KB, 48 * KB, 64 * KB, 0.90, 0.08, 0.8),
            48,
            0.01,
        ),
        // Lattice Boltzmann: pure streaming — DRAM bandwidth bound.
        prof(
            "Lbm",
            fp(),
            5.4,
            br(60, 0.80, 0.19, 128),
            mem(16 * KB, 256 * KB, 768 * MB, 0.34, 0.11, 0.97),
            16,
            0.01,
        ),
        // Quantum simulation: streaming over one large vector.
        prof(
            "Libquantum",
            int(),
            4.6,
            br(50, 0.72, 0.27, 256),
            mem(8 * KB, 128 * KB, 256 * MB, 0.36, 0.09, 0.95),
            16,
            0.01,
        ),
        // Sparse graph optimisation: pointer chasing, DRAM-latency bound.
        prof(
            "Mcf",
            int(),
            2.2,
            br(160, 0.50, 0.20, 12),
            mem(16 * KB, MB, 512 * MB, 0.42, 0.16, 0.05),
            16,
            0.02,
        ),
        // Lattice QCD: streaming FP.
        prof(
            "Milc",
            fp(),
            4.8,
            br(90, 0.78, 0.20, 96),
            mem(20 * KB, 256 * KB, 512 * MB, 0.38, 0.12, 0.92),
            64,
            0.02,
        ),
        // Molecular dynamics: compute-bound FP, very regular.
        prof(
            "Namd",
            fp(),
            5.6,
            br(140, 0.75, 0.22, 64),
            mem(28 * KB, 64 * KB, 128 * KB, 0.82, 0.15, 0.8),
            192,
            0.02,
        ),
        // Discrete-event simulation: pointer-heavy, poor locality.
        prof(
            "Omnetpp",
            int(),
            2.6,
            br(700, 0.46, 0.22, 10),
            mem(24 * KB, 2 * MB, 64 * MB, 0.60, 0.24, 0.1),
            384,
            0.05,
        ),
        // Ray tracer: FP compute with branchy traversal, cache-friendly.
        prof(
            "Povray",
            fp(),
            4.2,
            br(480, 0.58, 0.22, 14),
            mem(30 * KB, 64 * KB, 96 * KB, 0.84, 0.13, 0.5),
            320,
            0.04,
        ),
        // Chess engine: branchy search, small data.
        prof(
            "Sjeng",
            int(),
            3.0,
            br(900, 0.38, 0.22, 8),
            mem(30 * KB, 64 * KB, 128 * KB, 0.80, 0.15, 0.2),
            128,
            0.03,
        ),
        // LP solver: sparse algebra over large matrices.
        prof(
            "Soplex",
            fp(),
            3.6,
            br(360, 0.58, 0.24, 16),
            mem(26 * KB, 512 * KB, 32 * MB, 0.70, 0.21, 0.5),
            256,
            0.03,
        ),
        // XML transformer: big code, branchy, medium-large data.
        prof(
            "Xalancbmk",
            int(),
            3.0,
            br(1600, 0.50, 0.20, 10),
            mem(26 * KB, 512 * KB, 16 * MB, 0.72, 0.19, 0.2),
            768,
            0.05,
        ),
    ]
}

/// Look up a SPEC profile by (case-insensitive) name.
///
/// Served from a table built and validated once per process, so a lookup
/// costs a name scan and one clone, not a rebuild of all 21 profiles.
pub fn spec_by_name(name: &str) -> Option<WorkloadProfile> {
    spec_profile(name).cloned()
}

/// [`spec_by_name`] without the clone: the profile in the process-wide table.
pub fn spec_profile(name: &str) -> Option<&'static WorkloadProfile> {
    static TABLE: OnceLock<Vec<WorkloadProfile>> = OnceLock::new();
    TABLE
        .get_or_init(spec2006)
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_one_apps() {
        assert_eq!(spec2006().len(), 21);
    }

    #[test]
    fn all_profiles_validate_and_are_serial() {
        for p in spec2006() {
            p.validate();
            assert!(!p.is_parallel(), "{} should be serial", p.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = spec2006().into_iter().map(|p| p.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn memory_bound_apps_have_large_cold_regions() {
        for name in ["Mcf", "Lbm", "Milc", "Libquantum", "Gems"] {
            let p = spec_by_name(name).expect("profile exists");
            assert!(
                p.memory.cold_bytes >= 256 * MB,
                "{name} cold region too small"
            );
            assert!(p.memory.hot_frac < 0.5, "{name} should miss often");
        }
    }

    #[test]
    fn branchy_apps_have_many_unbiased_sites() {
        for name in ["Gobmk", "Sjeng"] {
            let p = spec_by_name(name).expect("profile exists");
            let random = 1.0 - p.branches.biased - p.branches.loops;
            assert!(random > 0.3, "{name} should be hard to predict");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(spec_by_name("mcf").is_some());
        assert!(spec_by_name("MCF").is_some());
        assert!(spec_by_name("nosuch").is_none());
    }
}
