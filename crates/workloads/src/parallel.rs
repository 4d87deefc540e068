//! The 15 SPLASH-2 / PARSEC application profiles of the paper's Figures
//! 9–10 (multicore evaluation).
//!
//! Parallel profiles add data sharing (coherence traffic between cores),
//! barrier cadence, and per-phase load imbalance on top of the serial
//! characterisation. `Barnes`/`Fmm` are tree codes with irregular sharing;
//! `Ocean`/`Fft`/`Radix` are bandwidth-hungry with frequent barriers;
//! `Blackscholes` is embarrassingly parallel; `Canneal` chases pointers
//! through a huge shared netlist.

use crate::profile::{BranchProfile, InstMix, MemoryProfile, WorkloadProfile};
use std::sync::OnceLock;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

#[allow(clippy::too_many_arguments)]
fn par(
    name: &str,
    mix: InstMix,
    dep: f64,
    branches: BranchProfile,
    memory: MemoryProfile,
    code_kb: u64,
    shared_frac: f64,
    barrier_interval: u64,
    imbalance: f64,
) -> WorkloadProfile {
    let p = WorkloadProfile {
        name: name.to_owned(),
        mix,
        mean_dep_distance: dep,
        branches,
        memory,
        code_bytes: code_kb * KB,
        complex_decode_rate: 0.02,
        shared_frac,
        barrier_interval,
        imbalance,
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

/// Build the 15 parallel profiles, in the paper's figure order.
pub fn splash_parsec() -> Vec<WorkloadProfile> {
    let int = InstMix::integer;
    let fp = InstMix::floating;
    vec![
        // N-body tree code: irregular sharing, coarse barriers.
        par(
            "Barnes",
            fp(),
            4.2,
            br(320, 0.62, 0.24, 16),
            mem(28 * KB, 256 * KB, 2 * MB, 0.76, 0.17, 0.3),
            64,
            0.22,
            60_000,
            0.15,
        ),
        // Option pricing: embarrassingly parallel FP.
        par(
            "Blackscholes",
            fp(),
            5.2,
            br(90, 0.76, 0.22, 64),
            mem(26 * KB, 64 * KB, 128 * KB, 0.84, 0.13, 0.9),
            32,
            0.02,
            200_000,
            0.03,
        ),
        // Simulated annealing over a shared netlist: pointer chasing.
        par(
            "Canneal",
            int(),
            2.5,
            br(220, 0.50, 0.20, 10),
            mem(16 * KB, MB, 256 * MB, 0.44, 0.16, 0.05),
            48,
            0.38,
            120_000,
            0.08,
        ),
        // Sparse Cholesky: task-parallel, moderate sharing.
        par(
            "Cholesky",
            fp(),
            4.4,
            br(240, 0.64, 0.24, 24),
            mem(28 * KB, 256 * KB, 4 * MB, 0.74, 0.19, 0.6),
            96,
            0.18,
            50_000,
            0.20,
        ),
        // FFT: all-to-all transpose phases, bandwidth bound.
        par(
            "Fft",
            fp(),
            5.0,
            br(70, 0.76, 0.22, 128),
            mem(24 * KB, 512 * KB, 128 * MB, 0.52, 0.18, 0.9),
            32,
            0.30,
            40_000,
            0.06,
        ),
        // Particle fluid simulation: neighbour sharing.
        par(
            "Fluidanimate",
            fp(),
            4.4,
            br(200, 0.66, 0.24, 24),
            mem(28 * KB, 384 * KB, 8 * MB, 0.72, 0.19, 0.6),
            64,
            0.20,
            45_000,
            0.10,
        ),
        // Fast multipole: tree code, compute-leaning.
        par(
            "Fmm",
            fp(),
            4.6,
            br(280, 0.66, 0.22, 24),
            mem(28 * KB, 256 * KB, 2 * MB, 0.76, 0.17, 0.4),
            96,
            0.18,
            70_000,
            0.12,
        ),
        // Dense LU: blocked kernels, barrier after each step.
        par(
            "Lu",
            fp(),
            5.2,
            br(110, 0.74, 0.24, 48),
            mem(30 * KB, 64 * KB, 256 * KB, 0.80, 0.15, 0.8),
            32,
            0.14,
            35_000,
            0.18,
        ),
        // Ocean currents: stencil over big grids, bandwidth + barriers.
        par(
            "Ocean",
            fp(),
            4.8,
            br(120, 0.74, 0.22, 96),
            mem(24 * KB, 512 * KB, 192 * MB, 0.48, 0.17, 0.92),
            48,
            0.26,
            30_000,
            0.08,
        ),
        // Hierarchical radiosity: irregular task stealing.
        par(
            "Radiosity",
            fp(),
            3.8,
            br(380, 0.56, 0.24, 14),
            mem(28 * KB, 256 * KB, 2 * MB, 0.76, 0.17, 0.3),
            128,
            0.20,
            80_000,
            0.18,
        ),
        // Radix sort: streaming permutation, bandwidth bound.
        par(
            "Radix",
            int(),
            4.8,
            br(60, 0.74, 0.24, 128),
            mem(16 * KB, 256 * KB, 128 * MB, 0.46, 0.15, 0.85),
            16,
            0.28,
            30_000,
            0.05,
        ),
        // Ray tracer: read-shared scene, little write sharing.
        par(
            "Raytrace",
            fp(),
            4.0,
            br(420, 0.58, 0.22, 14),
            mem(30 * KB, 256 * KB, 2 * MB, 0.78, 0.15, 0.4),
            160,
            0.12,
            100_000,
            0.14,
        ),
        // Online clustering: streaming with a shared centre set.
        par(
            "Streamcluster",
            fp(),
            4.6,
            br(90, 0.74, 0.22, 96),
            mem(24 * KB, 256 * KB, 96 * MB, 0.52, 0.18, 0.9),
            32,
            0.24,
            35_000,
            0.07,
        ),
        // O(n²) molecular dynamics: compute bound, rare barriers.
        par(
            "Water-Nsquared",
            fp(),
            5.0,
            br(130, 0.72, 0.24, 48),
            mem(28 * KB, 48 * KB, 128 * KB, 0.82, 0.14, 0.7),
            48,
            0.10,
            90_000,
            0.06,
        ),
        // Spatial molecular dynamics: cell lists, neighbour sharing.
        par(
            "Water-Spatial",
            fp(),
            5.0,
            br(140, 0.72, 0.24, 48),
            mem(28 * KB, 64 * KB, 256 * KB, 0.80, 0.15, 0.7),
            48,
            0.12,
            80_000,
            0.08,
        ),
    ]
}

/// Look up a parallel profile by (case-insensitive) name.
///
/// Served from a table built and validated once per process, so a lookup
/// costs a name scan and one clone, not a rebuild of all 15 profiles.
pub fn parallel_by_name(name: &str) -> Option<WorkloadProfile> {
    parallel_profile(name).cloned()
}

/// [`parallel_by_name`] without the clone: the profile in the process-wide table.
pub fn parallel_profile(name: &str) -> Option<&'static WorkloadProfile> {
    static TABLE: OnceLock<Vec<WorkloadProfile>> = OnceLock::new();
    TABLE
        .get_or_init(splash_parsec)
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_apps() {
        assert_eq!(splash_parsec().len(), 15);
    }

    #[test]
    fn all_parallel_and_valid() {
        for p in splash_parsec() {
            p.validate();
            assert!(p.is_parallel(), "{} should be parallel", p.name);
        }
    }

    #[test]
    fn blackscholes_is_embarrassingly_parallel() {
        let p = parallel_by_name("Blackscholes").expect("exists");
        assert!(p.shared_frac < 0.05);
        assert!(p.imbalance < 0.05);
    }

    #[test]
    fn canneal_shares_heavily() {
        let p = parallel_by_name("Canneal").expect("exists");
        assert!(p.shared_frac > 0.3);
    }

    #[test]
    fn names_match_figure9_order() {
        let names: Vec<_> = splash_parsec().into_iter().map(|p| p.name).collect();
        assert_eq!(names[0], "Barnes");
        assert_eq!(names[14], "Water-Spatial");
    }
}
