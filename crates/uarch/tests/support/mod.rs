//! Random-machine generator shared by the `oracle_equiv` property test and
//! the wake-up invariant tests in `src/core.rs`. Both include this file as
//! a module, so it names `CoreConfig` through the
//! including scope. The reference core the `oracle_equiv` test compares
//! against lives next to it, in `reference.rs`.

use super::CoreConfig;

/// A randomly perturbed core: window sizes, widths, frequency and memory
/// latency drawn from ranges that straddle the interesting regimes (tiny
/// windows that stall constantly, wide machines that rarely quiesce, slow
/// DRAM that makes skip-ahead fire on almost every miss).
#[allow(clippy::too_many_arguments)]
pub fn perturbed(
    three_d: bool,
    rob: usize,
    iq: usize,
    lq: usize,
    sq: usize,
    width: usize,
    freq_centi_ghz: u64,
    dram_tenth_ns: u64,
) -> CoreConfig {
    let base = if three_d {
        CoreConfig::base_2d().with_3d_paths()
    } else {
        CoreConfig::base_2d()
    };
    let mut cfg = base
        .with_frequency(freq_centi_ghz as f64 / 100.0)
        .with_issue_width(width);
    cfg.rob_entries = rob;
    cfg.iq_entries = iq;
    cfg.lq_entries = lq;
    cfg.sq_entries = sq;
    cfg.dram_ns = dram_tenth_ns as f64 / 10.0;
    cfg
}
