//! `perf_baseline` — measure or gate the repository's performance baseline.
//!
//! # Usage
//!
//! ```text
//! perf_baseline --write FILE   # measure and (over)write the baseline
//! perf_baseline --check FILE   # measure and fail on counter drift
//! ```
//!
//! The measurement runs the schedule-independent experiment subset at
//! `--quick` scale with one worker and records, per experiment, the
//! deterministic integer counters (solver sweeps, warm-start hits/misses,
//! SRAM candidates evaluated/pruned, µops simulated). It also runs three
//! probes: the cycle probe (simulated cycles per wall-second over a pinned
//! point set), the design-space search probe, and the instrumentation
//! overhead of a serial thermal solve (median of paired off/on solves).
//! Per-layer wall times live in `perfbench/`, not here.
//!
//! `--check` compares the integer counters, the cycle probe's cycle count
//! and the search probe's four integers exactly against the committed
//! file — a drift means the algorithms changed behaviour, not just speed.
//! It also fails when the cycle probe's throughput falls below a generous
//! fraction of the committed value, or when the overhead probe reads over
//! its 2 % budget. It exits `1` listing every drift.
//!
//! `--write` also runs the serve probe (cold `--oneshot` processes and a
//! 128-connection load tier) and records it as the informational
//! `serve_probe` block; `--check` neither runs nor reads it.

use m3d_bench::baseline::{baseline_from_json, baseline_json, drift, measure, OBS_PROBE_PAIRS};
use m3d_bench::serve_probe::{measure_serve, serve_probe_json};
use m3d_core::report::Json;
use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: perf_baseline --write FILE | --check FILE");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match argv.as_slice() {
        [m, p] if m == "--write" || m == "--check" => (m.as_str(), Path::new(p)),
        _ => usage(),
    };

    eprintln!("[perf_baseline] measuring (quick scale, 1 worker)...");
    let current = measure();
    eprintln!(
        "[perf_baseline] obs overhead on a serial thermal solve: {:+.2}% \
         (median of {OBS_PROBE_PAIRS} off/on pairs)",
        current.overhead_pct
    );
    eprintln!(
        "[perf_baseline] cycle probe: {} cycles in {:.3}s ({:.0} cycles/s)",
        current.cycle_cycles,
        current.cycle_wall_s,
        current.cycles_per_sec()
    );
    eprintln!(
        "[perf_baseline] search probe: {} candidates, {} pruned before \
         simulation, {} simulated, frontier {}",
        current.search_candidates,
        current.search_pruned,
        current.search_simulated,
        current.search_frontier
    );

    match mode {
        "--write" => {
            let mut doc = baseline_json(&current);
            // The serve probe is informational (wall-clock, machine-dependent)
            // and never gated; a missing serve binary skips it rather than
            // failing.
            match measure_serve() {
                Ok(p) => {
                    eprintln!(
                        "[perf_baseline] serve probe: {:.1} rps cold oneshot; \
                         load {:.1} rps p99 {} us",
                        p.cold_rps, p.load_rps, p.load_p99_us
                    );
                    if let Json::Obj(fields) = &mut doc {
                        fields.push(("serve_probe".to_owned(), serve_probe_json(&p)));
                    }
                }
                Err(e) => eprintln!("[perf_baseline] serve probe skipped: {e}"),
            }
            let body = doc.render() + "\n";
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("[perf_baseline] cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[perf_baseline] wrote {}", path.display());
        }
        "--check" => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[perf_baseline] cannot read {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let committed = Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|j| baseline_from_json(&j))
                .unwrap_or_else(|e| {
                    eprintln!("[perf_baseline] {} is not a baseline: {e}", path.display());
                    std::process::exit(1);
                });
            let drifts = drift(&committed, &current);
            if drifts.is_empty() {
                eprintln!(
                    "[perf_baseline] OK: no counter drift against {}",
                    path.display()
                );
            } else {
                eprintln!("[perf_baseline] FAIL: counter drift detected:");
                for d in &drifts {
                    eprintln!("[perf_baseline]   {d}");
                }
                eprintln!(
                    "[perf_baseline] if the change is intentional, refresh the \
                     baseline with `perf_baseline --write {}`",
                    path.display()
                );
                std::process::exit(1);
            }
        }
        _ => unreachable!(),
    }
}
