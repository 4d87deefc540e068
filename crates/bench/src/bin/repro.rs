//! `repro` — regenerate every table and figure of the paper, in parallel.
//!
//! # Usage
//!
//! ```text
//! repro [--quick] [--jobs N] [--out-dir DIR] [--list] [experiment ...]
//! ```
//!
//! With no experiment names, everything runs at full scale (the slowest
//! experiment bounds the wall time; independent experiments run
//! concurrently). Experiment names follow the paper's tables and figures:
//!
//! ```text
//! table1 table2 fig2 table3 table4 table5 fig5 table7 ablations section5
//! table6 table8 table11 fig6 fig7 fig8 fig9 fig10 all
//! ```
//!
//! Figures that share one simulation run are grouped: asking for `fig6`
//! also runs the Figure 7 simulation (and vice versa) but prints only the
//! requested table; the same holds for `fig9`/`fig10`.
//!
//! # Flags
//!
//! * `--quick` — small simulation windows (50k warm-up / 60k measured µops
//!   instead of 250k/150k) and a 6-app subset for the Figure 8 thermal
//!   study; seconds instead of minutes.
//! * `--jobs N` (or `--jobs=N`) — worker-pool size, 1 to 64. Defaults to
//!   the machine's available parallelism. Jobs both run independent
//!   experiments concurrently and shard each experiment's cycle-level
//!   simulations across the `m3d-uarch` batch engine. `--jobs 1`
//!   reproduces the historical serial output byte-for-byte; any N produces
//!   identical rendered tables (only wall-clock numbers vary).
//! * `--out-dir DIR` (or `--out-dir=DIR`) — write JSON artifacts under
//!   `DIR` (created if missing). Enables instrumentation so artifacts carry
//!   `metrics` blocks.
//! * `--metrics` — enable instrumentation and print a metric table (solver
//!   iterations, warm-start hits, search candidates pruned, ...) to stderr
//!   at the end of the run.
//! * `--trace-out FILE` (or `--trace-out=FILE`) — enable instrumentation
//!   and write a Chrome `trace_event` JSON file with per-experiment and
//!   per-solver spans on the worker lanes; open it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! * `--list` — print every registry entry (`name`, declared dependencies,
//!   scheduling weight) one per line and exit; shares the registry
//!   iterator with `m3d-serve`, so the two can never disagree about what
//!   exists.
//!
//! Instrumentation never touches stdout: rendered tables stay
//! byte-identical with and without `--metrics`/`--trace-out`.
//!
//! # Artifact layout
//!
//! With `--out-dir DIR`, each selected registry entry leaves
//! `DIR/<name>.json` (structured rows, metadata, per-phase wall times,
//! thermal-solver statistics, µop count) — shared entries use their
//! registry id, e.g. `fig6_fig7.json` — plus `DIR/manifest.json` with the
//! git revision, scale, seeds, jobs, per-experiment timings, the peak
//! number of overlapping experiments, and aggregate µop throughput.
//!
//! Rendered text always goes to stdout in deterministic registry order
//! regardless of completion order; progress notes go to stderr.
//!
//! # Exit status
//!
//! `0` on success, `1` if any experiment failed (the others still run and
//! their artifacts are still written), `2` on a usage error.

use m3d_bench::artifacts::{write_artifacts, RunInfo};
use m3d_core::experiments::registry::{entries, run_experiments, select, Ctx, MAX_JOBS};
use m3d_core::experiments::RunScale;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
struct Args {
    quick: bool,
    jobs: usize,
    out_dir: Option<PathBuf>,
    metrics: bool,
    trace_out: Option<PathBuf>,
    list: bool,
    wanted: Vec<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        jobs: default_jobs(),
        out_dir: None,
        metrics: false,
        trace_out: None,
        list: false,
        wanted: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut flag_value = |name: &str| -> Result<Option<String>, String> {
            if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                return Ok(Some(v.to_owned()));
            }
            if a == name {
                return match it.next() {
                    Some(v) => Ok(Some(v.clone())),
                    None => Err(format!("{name} requires a value")),
                };
            }
            Ok(None)
        };
        if a == "--quick" {
            args.quick = true;
        } else if a == "--metrics" {
            args.metrics = true;
        } else if a == "--list" {
            args.list = true;
        } else if let Some(v) = flag_value("--jobs")? {
            // Range validation happens in `CtxBuilder::build`; the CLI only
            // rejects values that are not integers at all.
            args.jobs = v.parse::<usize>().map_err(|_| {
                format!("--jobs needs an integer between 1 and {MAX_JOBS}, got `{v}`")
            })?;
        } else if let Some(v) = flag_value("--out-dir")? {
            args.out_dir = Some(PathBuf::from(v));
        } else if let Some(v) = flag_value("--trace-out")? {
            args.trace_out = Some(PathBuf::from(v));
        } else if a.starts_with('-') {
            return Err(format!("unknown flag `{a}` (see --help in the rustdoc)"));
        } else {
            args.wanted.push(a.clone());
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: repro [--quick] [--jobs N] [--out-dir DIR] [--metrics] \
         [--trace-out FILE] [--list] [experiment ...]"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[repro] {e}");
            usage();
            std::process::exit(2);
        }
    };
    if args.list {
        for (name, deps, weight) in entries() {
            let deps = if deps.is_empty() {
                "-".to_owned()
            } else {
                deps.join(",")
            };
            println!("{name}\tdeps={deps}\tweight={weight}");
        }
        return;
    }
    let wanted: Vec<&str> = args.wanted.iter().map(String::as_str).collect();
    let selected = match select(&wanted) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[repro] {e}");
            std::process::exit(2);
        }
    };
    let want = |name: &str| wanted.is_empty() || wanted.iter().any(|w| *w == name || *w == "all");

    // Any observability consumer turns collection on; without one, every
    // instrumentation site is a single relaxed atomic load.
    let instrument = args.metrics || args.trace_out.is_some() || args.out_dir.is_some();
    if instrument {
        m3d_obs::enable();
        m3d_obs::label_thread("repro-main");
    }

    let scale = if args.quick {
        RunScale::quick()
    } else {
        RunScale::full()
    };
    let ctx = match Ctx::builder()
        .scale(scale)
        .quick(args.quick)
        .jobs(args.jobs)
        .build()
    {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("[repro] {e}");
            usage();
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let outcomes = run_experiments(&ctx, &selected, args.jobs, |o| match &o.report {
        Ok(r) => {
            for s in &r.sections {
                if s.only_for.is_none_or(want) {
                    println!("{}", s.text);
                }
            }
        }
        Err(e) => eprintln!("[repro] {} FAILED: {e}", o.spec.name),
    });
    let total_wall_s = t0.elapsed().as_secs_f64();

    if let Some(dir) = &args.out_dir {
        let info = RunInfo {
            quick: args.quick,
            jobs: args.jobs,
            scale,
            wanted: args.wanted.clone(),
        };
        match write_artifacts(dir, &info, &outcomes, total_wall_s) {
            Ok(manifest) => eprintln!(
                "[repro] wrote {} artifact(s) and {}",
                outcomes.len(),
                manifest.display()
            ),
            Err(e) => {
                eprintln!("[repro] failed writing artifacts to {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    if args.metrics {
        eprintln!("[repro] metrics over the whole run:");
        eprint!("{}", m3d_core::report::metrics_text(&m3d_obs::snapshot()));
    }
    if let Some(path) = &args.trace_out {
        match m3d_obs::write_chrome_trace(path) {
            Ok(n) => eprintln!(
                "[repro] wrote {n} trace event(s) to {} (open in https://ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => {
                eprintln!("[repro] failed writing trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if outcomes.iter().any(|o| o.report.is_err()) {
        std::process::exit(1);
    }
}
