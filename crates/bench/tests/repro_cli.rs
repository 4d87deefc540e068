//! End-to-end checks of the `repro` binary: argument parsing, the exact
//! serial byte stream for selected experiments, and artifact writing.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn selected_experiments_print_the_serial_byte_stream() {
    let out = repro()
        .args(["--quick", "table1", "table2"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{:?}", out);
    let expected = format!(
        "{}\n{}\n",
        m3d_core::experiments::table1_table2_fig2_vias::table1_text(),
        m3d_core::experiments::table1_table2_fig2_vias::table2_text()
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro().arg("nope").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn bad_jobs_value_is_a_usage_error() {
    for bad in ["0", "65", "100000", "-1", "two"] {
        let out = repro()
            .args(["--jobs", bad, "table1"])
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "--jobs {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("between 1 and 64"),
            "--jobs {bad}: unclear error: {err}"
        );
        assert!(err.contains("usage:"), "--jobs {bad}: no usage line: {err}");
    }
    // The boundary values are accepted.
    for ok in ["1", "64"] {
        let out = repro()
            .args(["--quick", "--jobs", ok, "table1"])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "--jobs {ok} must be accepted: {out:?}"
        );
    }
}

#[test]
fn out_dir_receives_artifacts_and_manifest() {
    let dir = std::env::temp_dir().join(format!("m3d-repro-cli-{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--jobs=2", "fig5", "table7"])
        .arg(format!("--out-dir={}", dir.display()))
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{:?}", out);
    assert!(dir.join("fig5.json").exists());
    assert!(dir.join("table7.json").exists());
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    assert!(manifest.contains("\"errors\": 0"), "{manifest}");
    assert!(manifest.contains("\"tool\": \"repro\""));
    let fig5 = std::fs::read_to_string(dir.join("fig5.json")).expect("artifact written");
    assert!(fig5.contains("\"ok\": true"));
    assert!(fig5.contains("\"rows\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_writes_chrome_trace_with_spans_from_three_crates() {
    let dir = std::env::temp_dir().join(format!("m3d-repro-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    // section5 exercises the thermal solver; table6 walks the SRAM design
    // space; both run under per-experiment registry spans.
    let out = repro()
        .args(["--quick", "--jobs=2", "section5", "table6"])
        .arg(format!("--trace-out={}", trace.display()))
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{:?}", out);
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let parsed = m3d_core::report::Json::parse(&text).expect("trace is valid JSON");
    let events = match parsed.get("traceEvents") {
        Some(m3d_core::report::Json::Arr(v)) => v,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert!(!events.is_empty());
    let cats: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match e.get("cat") {
            Some(m3d_core::report::Json::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    for needed in ["thermal", "sram", "registry"] {
        assert!(cats.contains(needed), "no `{needed}` spans in {cats:?}");
    }
    // Worker lanes are named for the trace viewer.
    assert!(text.contains("repro-worker-0"), "no worker lane metadata");
    // Every complete event carries the Chrome-trace keys.
    let complete = events
        .iter()
        .find(|e| e.get("ph") == Some(&m3d_core::report::Json::from("X")))
        .expect("at least one span");
    for key in ["name", "cat", "pid", "tid", "ts", "dur"] {
        assert!(complete.get(key).is_some(), "span lacks `{key}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_prints_table_on_stderr_and_leaves_stdout_identical() {
    let base = repro()
        .args(["--quick", "table3"])
        .output()
        .expect("repro runs");
    let with_metrics = repro()
        .args(["--quick", "--metrics", "table3"])
        .output()
        .expect("repro runs");
    assert!(base.status.success() && with_metrics.status.success());
    // Instrumentation must not perturb the rendered tables.
    assert_eq!(base.stdout, with_metrics.stdout);
    let err = String::from_utf8_lossy(&with_metrics.stderr);
    assert!(err.contains("metrics over the whole run"), "{err}");
    assert!(err.contains("sram.organizations.evaluated"), "{err}");
    let base_err = String::from_utf8_lossy(&base.stderr);
    assert!(
        !base_err.contains("metrics over the whole run"),
        "{base_err}"
    );
}

#[test]
fn artifacts_carry_solver_and_warm_start_counters() {
    let dir = std::env::temp_dir().join(format!("m3d-repro-metrics-{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--jobs=2", "section5"])
        .arg(format!("--out-dir={}", dir.display()))
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{:?}", out);
    let text = std::fs::read_to_string(dir.join("section5.json")).expect("artifact written");
    let parsed = m3d_core::report::Json::parse(&text).expect("artifact is valid JSON");
    assert_eq!(
        parsed.get("schema_version"),
        Some(&m3d_core::report::Json::Int(2))
    );
    let metrics =
        m3d_core::report::metrics_from_json(parsed.get("metrics").expect("metrics block"))
            .expect("metrics decode");
    assert!(
        metrics.counter("thermal.iterations").is_some_and(|v| v > 0),
        "no solver iterations in {:?}",
        metrics.counters
    );
    let warm = metrics.counter("thermal.warm_start.hits").unwrap_or(0)
        + metrics.counter("thermal.warm_start.misses").unwrap_or(0);
    assert!(
        warm > 0,
        "no warm-start accounting in {:?}",
        metrics.counters
    );
    assert!(
        metrics.histogram("thermal.residual_k").is_some(),
        "no residual histogram"
    );
    // The manifest aggregates the same counters across experiments.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    let parsed = m3d_core::report::Json::parse(&manifest).expect("manifest is valid JSON");
    let agg =
        m3d_core::report::metrics_from_json(parsed.get("metrics").expect("aggregated metrics"))
            .expect("metrics decode");
    assert!(agg.counter("thermal.iterations").is_some_and(|v| v > 0));
    std::fs::remove_dir_all(&dir).ok();
}
