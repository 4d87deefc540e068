//! `perfbench` — run one benchmark workload against the program and print
//! its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --run-dir DIR --golden FILE [--rustc V] [--rev R]
//! ```
//!
//! Workloads: `repro-quick`, `serve-hit`, `serve-mixed`, `router-fanout`
//! (see `perfbench/README.md`). The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The line before it is the run's stamp: the run's parameters and the
//! figures it observed but no metric gates. Progress and notes go to
//! stderr.
//! Exits 1 without a result line if the workload cannot run.

mod gen;
mod layers;
mod load;
mod procs;
mod workloads;

use m3d_core::report::Json;
use std::path::PathBuf;
use workloads::Env;

struct Args {
    workload: String,
    env: Env,
    rustc: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let golden_path = need("--golden")?;
    let golden_text =
        std::fs::read_to_string(&golden_path).map_err(|e| format!("{golden_path}: {e}"))?;
    let golden = Json::parse(&golden_text).map_err(|e| format!("{golden_path}: {e}"))?;
    Ok(Args {
        workload: need("--workload")?,
        env: Env {
            bin_dir: PathBuf::from(need("--bin-dir")?),
            run_dir: PathBuf::from(need("--run-dir")?),
            golden,
            seed,
            seconds,
            trace,
        },
        rustc: get("--rustc").unwrap_or_else(|| "unknown".to_owned()),
        rev: get("--rev").unwrap_or_else(|| "unknown".to_owned()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.env.run_dir) {
        eprintln!("[perfbench] {}: {e}", args.env.run_dir.display());
        std::process::exit(1);
    }
    let run = match args.workload.as_str() {
        "repro-quick" => workloads::repro_quick,
        "serve-hit" => workloads::serve_hit,
        "serve-mixed" => workloads::serve_mixed,
        "router-fanout" => workloads::router_fanout,
        w => {
            eprintln!("[perfbench] unknown workload `{w}`");
            std::process::exit(2);
        }
    };
    let rep = match run(&args.env) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[perfbench] {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let env = &args.env;
    let stamp = Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(env.seed)),
        ("seconds", Json::from(env.seconds)),
        ("trace", Json::from(env.trace)),
        ("nproc", Json::from(workloads::nproc())),
        ("rustc", Json::from(args.rustc.as_str())),
        ("rev", Json::from(args.rev.as_str())),
        (
            "params",
            Json::obj(rep.params.iter().map(|(k, v)| (*k, Json::from(v.as_str())))),
        ),
        (
            "observed",
            Json::obj(rep.observed.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
    ]);
    println!("{}", Json::obj([("stamp", stamp)]).render_compact());
    let metrics = Json::obj(rep.metrics.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::from(rep.failed == 0 && rep.attempted > 0)),
        ("attempted", Json::from(rep.attempted.max(1))),
        ("failed", Json::from(rep.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render_compact());
}
