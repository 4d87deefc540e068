//! Determinism of the `repro` orchestrator under parallelism: `--jobs 1`
//! and `--jobs 4` must render byte-identical text (up to wall-clock digits
//! in the solver/timing lines) and semantically equal JSON artifacts.
//!
//! The runs use extra-small simulation windows so two full `all` passes
//! stay cheap; determinism does not depend on the window size.
//! Instrumentation is on, so the per-experiment counters can be compared
//! too.

use m3d_bench::artifacts::{max_overlap, write_artifacts, RunInfo};
use m3d_core::experiments::registry::{run_experiments, select, Ctx, Outcome};
use m3d_core::experiments::RunScale;

/// Tiny windows (the determinism argument is scale-independent).
const TEST_SCALE: RunScale = RunScale {
    warmup: 10_000,
    measure: 12_000,
};

/// Render every section of every successful outcome in emit order,
/// collapsing digit runs on the two kinds of lines that legitimately vary
/// run to run (solver wall-clock milliseconds and experiment wall times) —
/// a run of digits can change width between runs ("9.8 ms" vs "10.2 ms").
fn normalized_text(emitted: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (_, text) in emitted {
        for line in text.lines() {
            if line.contains("thermal solver") || line.contains("experiment wall time") {
                let mut in_digits = false;
                for c in line.chars() {
                    if c.is_ascii_digit() {
                        if !in_digits {
                            out.push('#');
                        }
                        in_digits = true;
                    } else {
                        out.push(c);
                        in_digits = false;
                    }
                }
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
    }
    out
}

fn run_all(jobs: usize) -> (Vec<Outcome>, String) {
    let ctx = Ctx::new(TEST_SCALE, true);
    let selected = select(&[]).expect("empty selection means all");
    let mut emitted: Vec<(&'static str, String)> = Vec::new();
    let outcomes = run_experiments(&ctx, &selected, jobs, |o| {
        if let Ok(r) = &o.report {
            for s in &r.sections {
                emitted.push((o.spec.name, s.text.clone()));
            }
        }
    });
    let text = normalized_text(&emitted);
    (outcomes, text)
}

/// fig8's `uarch.batch.*` counters in one run.
fn fig8_batch_counters(outcomes: &[Outcome]) -> Vec<(&'static str, Option<u64>)> {
    let fig8 = outcomes
        .iter()
        .find(|o| o.spec.name == "fig8")
        .expect("fig8 selected");
    let metrics = fig8.metrics.as_ref().expect("instrumentation enabled");
    [
        "uarch.batch.points",
        "uarch.batch.cache_hits",
        "uarch.batch.checkpoint_reuses",
        "uarch.batch.cycles",
        "uarch.batch.cap_exhausted",
    ]
    .into_iter()
    .map(|k| (k, metrics.counter(k)))
    .collect()
}

#[test]
fn jobs1_and_jobs4_agree() {
    m3d_obs::enable();
    let (serial, text1) = run_all(1);
    let (parallel, text4) = run_all(4);

    // fig8 runs after fig6_fig7 and reads its 18 single-core points
    // (6 quick apps x 3 designs) from the memo cache at every `--jobs`.
    let fig8 = fig8_batch_counters(&serial);
    assert_eq!(fig8, fig8_batch_counters(&parallel), "fig8 batch counters");
    let count = |k: &str| fig8.iter().find(|(n, _)| *n == k).and_then(|(_, v)| *v);
    assert_eq!(count("uarch.batch.points"), Some(18), "{fig8:?}");
    assert_eq!(count("uarch.batch.cache_hits"), Some(18), "{fig8:?}");
    assert_eq!(count("uarch.batch.cycles"), Some(0), "{fig8:?}");

    assert_eq!(serial.len(), parallel.len());
    assert!(serial.iter().all(|o| o.report.is_ok()), "serial run failed");
    assert!(
        parallel.iter().all(|o| o.report.is_ok()),
        "parallel run failed"
    );

    // Rendered text is byte-identical once volatile timing digits are
    // masked.
    assert_eq!(text1, text4, "rendered text differs between --jobs 1 and 4");

    // Structured rows, metadata, and µop counts are exactly equal; thermal
    // stats are equal in every field except measured wall time.
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.spec.name, b.spec.name, "emit order must follow registry");
        let (ra, rb) = (
            a.report.as_ref().expect("checked ok"),
            b.report.as_ref().expect("checked ok"),
        );
        assert_eq!(ra.rows, rb.rows, "{}: rows differ", a.spec.name);
        assert_eq!(ra.meta, rb.meta, "{}: meta differs", a.spec.name);
        assert_eq!(ra.uops, rb.uops, "{}: uops differ", a.spec.name);
        match (&ra.thermal, &rb.thermal) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.solves, sb.solves, "{}", a.spec.name);
                assert_eq!(sa.total_iterations, sb.total_iterations, "{}", a.spec.name);
                assert_eq!(sa.warm_starts, sb.warm_starts, "{}", a.spec.name);
                assert_eq!(sa.cache_hits, sb.cache_hits, "{}", a.spec.name);
                assert_eq!(sa.non_converged, sb.non_converged, "{}", a.spec.name);
                assert_eq!(sa.max_residual_k, sb.max_residual_k, "{}", a.spec.name);
            }
            _ => panic!("{}: thermal stats presence differs", a.spec.name),
        }
    }

    // The parallel run must actually have overlapped experiments.
    assert!(
        max_overlap(&parallel) >= 2,
        "no two experiments overlapped under --jobs 4"
    );

    // Artifact writing round-trips: a manifest with zero errors plus one
    // JSON file per registry entry.
    let dir = std::env::temp_dir().join(format!("m3d-repro-det-{}", std::process::id()));
    let info = RunInfo {
        quick: true,
        jobs: 4,
        scale: TEST_SCALE,
        wanted: Vec::new(),
    };
    let manifest = write_artifacts(&dir, &info, &parallel, 1.0).expect("temp dir writable");
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(text.contains("\"errors\": 0"), "{text}");
    assert!(text.contains("\"max_overlap\""));
    for o in &parallel {
        assert!(
            dir.join(format!("{}.json", o.spec.name)).exists(),
            "{} artifact missing",
            o.spec.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
