//! Telemetry accounting tests: the `stats` wire method's counter surface,
//! and the one-record-per-request guarantee for `serve.latency_us` on both
//! the daemon and `--oneshot` paths.
//!
//! This is a separate test binary on purpose — the `m3d-obs` store is
//! process-global, so these tests own their process's counters and only
//! need a file-local mutex to serialize against each other.

use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::engine::SERVE_COUNTERS;
use m3d_serve::protocol::{request_line, Method};
use m3d_serve::{Engine, Server, ServerConfig, ServerHandle};
use std::sync::{Mutex, PoisonError};

/// Serializes the tests in this binary: they all read and write the
/// process-global metrics store.
static STORE_LOCK: Mutex<()> = Mutex::new(());

fn start() -> (String, ServerHandle) {
    let server = Server::bind(ServerConfig {
        quick: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, server.spawn())
}

fn sim_points_params(seed: u64) -> Json {
    Json::obj([(
        "points",
        Json::arr([Json::obj([
            ("app", Json::from("Gcc")),
            ("design", Json::from("Base")),
            ("seed", Json::from(seed)),
            ("warmup", Json::from(1_000u64)),
            ("measure", Json::from(800u64)),
        ])]),
    )])
}

/// `stats` answers every serve counter by name — including the ones that
/// are still zero — plus uptime and the memo-cache size.
#[test]
fn stats_reports_every_serve_counter_including_zeros() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (addr, handle) = start();
    let mut c = Client::connect(&addr).expect("connect");

    let resp = c.stats(1).expect("stats reply");
    let result = resp
        .result()
        .unwrap_or_else(|| panic!("stats failed: {}", resp.raw));
    assert!(
        matches!(result.get("uptime_s"), Some(Json::Num(s)) if *s >= 0.0),
        "{result:?}"
    );
    assert!(
        matches!(result.get("memo_cache_len"), Some(Json::Int(n)) if *n >= 0),
        "{result:?}"
    );

    let counters = result
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters");
    for name in SERVE_COUNTERS {
        match counters.get(name) {
            Some(Json::Int(v)) => assert!(*v >= 0, "{name} negative"),
            other => panic!("counter {name} missing or non-integer: {other:?}"),
        }
    }
    // Nothing else in this binary leaves these paths tripped, so their
    // zeros must still be spelled out rather than omitted.
    for name in [
        "serve.write_errors",
        "serve.rejected",
        "serve.deadline_expired",
    ] {
        assert_eq!(counters.get(name), Some(&Json::Int(0)), "{name}");
    }
    handle.shutdown();
}

/// A pipelined burst of N sims against the daemon records exactly N
/// samples into `serve.latency_us` — never more. Each `stats` poll adds
/// one more sample of its own *after* its reply hits the wire, so the
/// expected count steps by one per poll.
#[test]
fn daemon_burst_records_exactly_one_latency_sample_per_request() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    const N: i64 = 5;
    let (addr, handle) = start();
    let mut c = Client::connect(&addr).expect("connect");

    let count_of = |result: &Json| -> i64 {
        match result
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("serve.latency_us"))
            .and_then(|h| h.get("count"))
        {
            Some(Json::Int(n)) => *n,
            // Absent until the very first sample lands.
            None => 0,
            other => panic!("bad serve.latency_us count: {other:?}"),
        }
    };

    let resp = c.stats(10).expect("baseline stats");
    let before = count_of(resp.result().expect("stats result"));

    for k in 0..N {
        c.send(
            20 + k,
            Method::Sim,
            sim_points_params(0xAC17_0000 + k as u64),
            None,
        )
        .expect("send");
    }
    for _ in 0..N {
        let resp = c.recv().expect("burst reply");
        assert!(resp.is_ok(), "{}", resp.raw);
    }

    // Poll k (1-based) can observe at most: the baseline poll's own sample
    // (+1), the N burst samples, and the k-1 completed earlier polls. A
    // count ever exceeding that ceiling would mean a request was recorded
    // twice.
    let mut settled = false;
    for poll in 1..=200i64 {
        let resp = c.stats(100 + poll).expect("poll stats");
        let now = count_of(resp.result().expect("stats result"));
        let ceiling = before + 1 + N + (poll - 1);
        assert!(
            now <= ceiling,
            "latency histogram over-counted: {now} > {ceiling} at poll {poll}"
        );
        if now == ceiling {
            settled = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(settled, "latency count never settled at the expected total");
    handle.shutdown();
}

/// The `--oneshot` path (bare `answer_lines`, no TCP) also records exactly
/// one latency sample per answered request, and counts deadline misses in
/// `serve.deadline_expired` as the daemon does.
#[test]
fn oneshot_records_exactly_one_latency_sample_per_request() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    const N: u64 = 4;
    let engine = Engine::new(true, 1).expect("engine");

    let count = || {
        m3d_obs::snapshot()
            .histogram("serve.latency_us")
            .map_or(0, |h| h.count)
    };
    let before = count();
    for k in 0..N {
        let line = request_line(
            300 + k as i64,
            Method::Sim,
            sim_points_params(0x0E17_0000 + k),
            None,
        );
        let replies = engine.answer_lines(&line);
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(replies[0].contains(r#""ok":true"#), "{}", replies[0]);
    }
    assert_eq!(
        count() - before,
        N,
        "one latency sample per oneshot request"
    );

    // A sim on a seed nothing has simulated, an experiment and a plan,
    // each already past `deadline_ms: 0` when it arrives.
    let expired = || {
        m3d_obs::snapshot()
            .counter("serve.deadline_expired")
            .unwrap_or(0)
    };
    let expired_before = expired();
    let plan = Json::obj([
        ("apps", Json::arr([Json::from("Gcc")])),
        ("vdds", Json::arr([Json::from(0.7), Json::from(0.75)])),
        ("warmup", Json::from(500u64)),
        ("measure", Json::from(800u64)),
    ]);
    for (id, method, params) in [
        (310, Method::Sim, sim_points_params(0x0E17_DEAD)),
        (
            311,
            Method::Experiment,
            Json::obj([("name", Json::from("frontier"))]),
        ),
        (312, Method::Plan, plan),
    ] {
        let replies = engine.answer_lines(&request_line(id, method, params, Some(0)));
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(
            replies[0].contains(r#""kind":"deadline""#),
            "{}",
            replies[0]
        );
    }
    assert_eq!(
        expired() - expired_before,
        3,
        "every oneshot deadline miss counts in serve.deadline_expired"
    );
    // The `stats` test in this binary expects `serve.deadline_expired` at
    // zero; leave the store without the misses counted here.
    m3d_obs::reset();
}

/// Answering requests leaves nothing in the `serve` trace category: the
/// daemon never exports spans, so each one recorded would be memory held
/// for the life of the process. Per-request timing lives in the telemetry
/// windows and the slow log instead.
#[test]
fn warm_cache_hit_sims_record_no_serve_trace_events() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (addr, handle) = start();
    let mut c = Client::connect(&addr).expect("connect");
    let params = sim_points_params(0x7EAC_E000);
    let warm = c.sim(1, params.clone()).expect("warm-up sim");
    assert!(warm.is_ok(), "{}", warm.raw);
    let _ = m3d_obs::take_trace();

    const N: i64 = 64;
    for id in 2..2 + N {
        let resp = c.sim(id, params.clone()).expect("cache-hit sim");
        assert!(resp.is_ok(), "{}", resp.raw);
    }
    let stats = c.stats(100).expect("stats");
    assert!(stats.is_ok(), "{}", stats.raw);
    handle.shutdown();

    let serve_events = m3d_obs::take_trace()
        .iter()
        .filter(|e| e.cat == "serve")
        .count();
    assert_eq!(serve_events, 0, "{N} warm sims left serve trace events");
}

/// `--oneshot` streams a `plan`: `Engine::answer_stream` writes each
/// partial line the moment the search emits it, so the first one reaches
/// the output while later chunks are still to come. The bytes are those
/// `answer_lines` collects.
#[test]
fn oneshot_streams_plan_partials_while_the_search_runs() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let chunks = || {
        m3d_obs::snapshot()
            .counter("serve.plan_chunks")
            .unwrap_or(0)
    };

    /// Notes `serve.plan_chunks` when the first byte arrives.
    struct Probe<F: Fn() -> u64> {
        chunks: F,
        at_first_write: Option<u64>,
        out: Vec<u8>,
    }
    impl<F: Fn() -> u64> std::io::Write for Probe<F> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.at_first_write.is_none() {
                self.at_first_write = Some((self.chunks)());
            }
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let engine = Engine::new(true, 1).expect("engine");
    let plan = Json::obj([
        ("apps", Json::arr([Json::from("Gcc")])),
        (
            "vdds",
            Json::Arr([0.7, 0.75, 0.8, 0.85, 0.9].map(Json::from).to_vec()),
        ),
        ("seed", Json::from(0x57AE_0001u64)),
        ("warmup", Json::from(500u64)),
        ("measure", Json::from(800u64)),
        ("chunk", Json::from(4u64)),
    ]);
    let line = request_line(400, Method::Plan, plan, None);
    let before = chunks();
    let mut probe = Probe {
        chunks,
        at_first_write: None,
        out: Vec::new(),
    };
    engine
        .answer_stream(line.as_bytes(), &mut probe)
        .expect("answered");
    let total = chunks() - before;
    let at_first = probe.at_first_write.expect("the plan wrote lines") - before;
    assert!(total >= 2, "the plan runs in several chunks, got {total}");
    assert!(
        at_first < total,
        "the first partial went out after {at_first} of {total} chunks"
    );
    let streamed: Vec<String> = String::from_utf8(probe.out)
        .expect("utf-8")
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(streamed, engine.answer_lines(&line));
}
