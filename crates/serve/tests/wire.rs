//! Wire-protocol tests against a real in-process server on an ephemeral
//! port: malformed input, unknown methods, oversized lines, deadline
//! expiry, queue-full backpressure, and the concurrent-equals-serial
//! byte-determinism guarantee.
//!
//! All response decoding goes through the typed [`Client`] /
//! [`Response`] pair; byte-fidelity assertions compare `Response::raw`
//! (or `call_raw`/`recv_raw`) against the serial engine's output.

use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::protocol::{request_line, Method, Response, MAX_LINE_BYTES};
use m3d_serve::{Engine, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Command, Stdio};

fn start(queue_cap: usize) -> (String, ServerHandle) {
    let server = Server::bind(ServerConfig {
        quick: true,
        queue_cap,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, server.spawn())
}

fn kind_of(resp: &Response) -> Option<&'static str> {
    resp.error().map(|e| e.kind.wire_name())
}

fn sim_params(app: &str, seed: u64, warmup: u64, measure: u64) -> Json {
    Json::obj([
        ("app", Json::from(app)),
        ("design", Json::from("Base")),
        ("seed", Json::from(seed)),
        ("warmup", Json::from(warmup)),
        ("measure", Json::from(measure)),
    ])
}

#[test]
fn malformed_and_unknown_requests_answer_structured_errors() {
    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");

    let reply = c.call_raw("this is not json").expect("reply");
    let resp = Response::parse(&reply).expect("error reply parses");
    assert_eq!(kind_of(&resp), Some("parse"));
    assert_eq!(resp.id, None, "{reply}");

    let resp = c
        .call(
            41,
            Method::Sim,
            Json::obj([("app", Json::from(7i64))]),
            None,
        )
        .expect("reply");
    assert_eq!(kind_of(&resp), Some("bad_request"));
    assert_eq!(resp.id, Some(41));

    let reply = c
        .call_raw(r#"{"id":42,"method":"frobnicate"}"#)
        .expect("reply");
    let resp = Response::parse(&reply).expect("parses");
    assert_eq!(kind_of(&resp), Some("unknown_method"));
    assert_eq!(resp.id, Some(42));

    handle.shutdown();
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_recovers() {
    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");

    let huge = format!(
        r#"{{"id":1,"method":"stats","params":{{"pad":"{}"}}}}"#,
        "x".repeat(MAX_LINE_BYTES)
    );
    let reply = c.call_raw(&huge).expect("reply");
    let resp = Response::parse(&reply).expect("parses");
    assert_eq!(kind_of(&resp), Some("oversized"));

    // The reader resynchronizes on the next newline: the connection keeps
    // working.
    let resp = c.stats(2).expect("follow-up works");
    assert!(resp.is_ok(), "{}", resp.raw);

    handle.shutdown();
}

/// `serve --oneshot` frames raw bytes exactly as a daemon connection does:
/// a line over the cap, a byte that is not UTF-8, a `\r\r\n` ending and
/// blank lines get the same reply lines from both, and a normal `sim`
/// after them is still answered.
#[test]
fn oneshot_and_daemon_answer_the_same_raw_bytes_identically() {
    let mut stream = format!(
        r#"{{"id":1,"method":"sim","params":{{"app":"{}"}}}}"#,
        "x".repeat(300 * 1024)
    )
    .into_bytes();
    stream.extend_from_slice(b"\n{\"id\":2,\"method\":\"frob\xFF\"}\n");
    stream.extend_from_slice(b"{\"id\":3,\"method\":\"nope\"}\r\r\n");
    stream.extend_from_slice(b"\n \n\r\n");
    let sim = request_line(
        4,
        Method::Sim,
        sim_params("Gcc", 0xB17E_0001, 1_000, 800),
        None,
    );
    stream.extend_from_slice(sim.as_bytes());
    stream.push(b'\n');

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--quick", "--oneshot"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn oneshot");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(&stream).expect("write requests");
    drop(stdin);
    let mut oneshot = String::new();
    child
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut oneshot)
        .expect("read replies");
    assert!(child.wait().expect("oneshot exit").success());

    // Half-closing the connection ends the request stream; the daemon
    // answers what it read, then closes.
    let (addr, handle) = start(8);
    let mut tcp = TcpStream::connect(&addr).expect("connect");
    tcp.write_all(&stream).expect("write requests");
    tcp.shutdown(Shutdown::Write).expect("half-close");
    let mut daemon = String::new();
    tcp.read_to_string(&mut daemon).expect("read replies");
    handle.shutdown();

    let oneshot: Vec<&str> = oneshot.lines().collect();
    let daemon: Vec<&str> = daemon.lines().collect();
    assert_eq!(oneshot, daemon, "--oneshot and the daemon diverged");
    assert_eq!(daemon.len(), 4, "{daemon:?}");
    assert!(
        daemon[0].starts_with(r#"{"id":null,"ok":false,"error":{"kind":"oversized""#),
        "{}",
        daemon[0]
    );
    assert!(daemon[1].contains("frob\u{FFFD}"), "{}", daemon[1]);
    assert!(
        daemon[3].starts_with(r#"{"id":4,"ok":true"#),
        "{}",
        daemon[3]
    );
}

#[test]
fn deadline_expiry_cancels_cleanly() {
    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");

    // A unique seed keeps this point out of the process-wide memo cache
    // (cache hits are served even past a deadline, by design).
    let resp = c
        .call(
            7,
            Method::Sim,
            Json::obj([(
                "points",
                Json::arr([sim_params("Gcc", 0xDEAD_0001, 2_000, 1_500)]),
            )]),
            Some(0),
        )
        .expect("reply");
    assert_eq!(kind_of(&resp), Some("deadline"));

    // The connection (and server) survive a cancelled request.
    let resp = c.stats(8).expect("follow-up works");
    assert!(resp.is_ok(), "{}", resp.raw);

    handle.shutdown();
}

#[test]
fn full_queue_rejects_with_overloaded() {
    // cap 0: nothing is ever admitted — deterministic backpressure.
    let (addr, handle) = start(0);
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c
        .sim(
            9,
            Json::obj([(
                "points",
                Json::arr([sim_params("Gcc", 0xDEAD_0002, 2_000, 1_500)]),
            )]),
        )
        .expect("reply");
    assert_eq!(kind_of(&resp), Some("overloaded"));

    // Inline methods bypass the queue and still answer.
    let resp = c.stats(10).expect("reply");
    assert!(resp.is_ok(), "{}", resp.raw);

    handle.shutdown();
}

#[test]
fn concurrent_connections_match_serial_answers_byte_for_byte() {
    // The same point list (mixing shared warm keys and a multicore point)
    // answered over 4 concurrent connections must equal the serial
    // engine's answer — the responses are pure functions of the request,
    // never of what the queue coalesced them with.
    let points = Json::arr([
        sim_params("Gcc", 0x00C0_FF01, 3_000, 2_000),
        sim_params("Mcf", 0x00C0_FF02, 3_000, 2_000),
        // Shares a warm-up checkpoint with the first point:
        sim_params("Gcc", 0x00C0_FF01, 3_000, 2_500),
        Json::obj([
            ("app", Json::from("Ocean")),
            ("design", Json::from("M3D-Het")),
            ("seed", Json::from(0x00C0_FF03_u64)),
            ("n_cores", Json::from(2u64)),
            ("warmup", Json::from(2_000u64)),
            ("measure", Json::from(1_500u64)),
        ]),
    ]);
    let line = request_line(77, Method::Sim, Json::obj([("points", points)]), None);

    let engine = Engine::new(true, 1).expect("engine");
    let expected = engine.answer_line(&line);
    assert!(expected.contains(r#""ok":true"#), "{expected}");

    let (addr, handle) = start(64);
    let answers: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (addr, line) = (&addr, &line);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    c.call_raw(line).expect("reply")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    for a in &answers {
        assert_eq!(a, &expected, "concurrent answer diverged from serial");
    }
    handle.shutdown();
}

/// A small plan spec: 2 designs x 5 vdds x 1 app = 10 candidates, chunked
/// at 4 so the stream must carry several partial lines.
fn small_plan_params() -> Json {
    Json::obj([
        (
            "designs",
            Json::arr([Json::from("Base"), Json::from("M3D-Het")]),
        ),
        ("apps", Json::arr([Json::from("Gcc")])),
        (
            "vdds",
            Json::Arr([0.7, 0.75, 0.8, 0.85, 0.9].map(Json::from).to_vec()),
        ),
        ("warmup", Json::from(500u64)),
        ("measure", Json::from(800u64)),
        ("chunk", Json::from(4u64)),
    ])
}

/// Drain a [`Client::plan`] stream to raw lines for byte comparisons.
fn plan_raw_lines(c: &mut Client, id: i64, params: Json) -> Vec<String> {
    c.plan(id, params, None)
        .expect("plan stream")
        .map(|r| r.expect("typed plan line").raw)
        .collect()
}

#[test]
fn streamed_plan_matches_oneshot_byte_for_byte() {
    let line = request_line(55, Method::Plan, small_plan_params(), None);
    // The serial engine's `answer_lines` is the oneshot code path: partials
    // first, final line last.
    let engine = Engine::new(true, 1).expect("engine");
    let expected = engine.answer_lines(&line);
    assert!(expected.len() > 2, "expected several partial lines");
    assert!(
        expected
            .last()
            .expect("final line")
            .contains(r#""ok":true"#),
        "{expected:?}"
    );
    for partial in &expected[..expected.len() - 1] {
        assert!(partial.contains(r#""partial":true"#), "{partial}");
    }

    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");
    let streamed = plan_raw_lines(&mut c, 55, small_plan_params());
    assert_eq!(streamed, expected, "TCP stream diverged from oneshot");
    handle.shutdown();
}

#[test]
fn thousand_candidate_plan_streams_partials_and_is_jobs_invariant() {
    // 6 designs x 10 vdds x 17 apps = 1020 candidates. The four grid
    // points above the 0.8 V clamp prune before simulation, so the run
    // stays cheap at this tiny interval.
    let apps = [
        "Astar",
        "Bzip2",
        "Gcc",
        "Gobmk",
        "Hmmer",
        "Lbm",
        "Libquantum",
        "Mcf",
        "Milc",
        "Namd",
        "Omnetpp",
        "Povray",
        "Sjeng",
        "Soplex",
        "Xalancbmk",
        "H264Ref",
        "Gromacs",
    ];
    let params = Json::obj([
        ("apps", Json::Arr(apps.map(Json::from).to_vec())),
        (
            "vdds",
            Json::Arr(
                (0..10)
                    .map(|i| Json::from(0.55 + 0.05 * i as f64))
                    .collect(),
            ),
        ),
        ("warmup", Json::from(100u64)),
        ("measure", Json::from(150u64)),
        ("chunk", Json::from(128u64)),
    ]);
    let line = request_line(91, Method::Plan, params.clone(), None);

    let engine = Engine::new(true, 1).expect("engine");
    let expected = engine.answer_lines(&line);
    let last = Json::parse(expected.last().expect("final line")).expect("parses");
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
    let result = last.get("result").expect("result");
    assert_eq!(result.get("candidates"), Some(&Json::Int(1020)));
    assert!(expected.len() > 1, "a 1020-candidate plan must stream");

    // The server runs the same spec at jobs=4: every line must still match
    // the serial answer byte for byte.
    let server = Server::bind(ServerConfig {
        quick: true,
        jobs: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.spawn();
    let mut c = Client::connect(&addr).expect("connect");
    let streamed = plan_raw_lines(&mut c, 91, params);
    assert_eq!(streamed, expected, "jobs=4 stream diverged from jobs=1");
    handle.shutdown();
}

#[test]
fn bad_plan_specs_answer_bad_request() {
    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");
    // Missing `vdds` (required axis).
    let resp = c
        .call(
            61,
            Method::Plan,
            Json::obj([("apps", Json::arr([Json::from("Gcc")]))]),
            None,
        )
        .expect("reply");
    assert_eq!(kind_of(&resp), Some("bad_request"));
    // Unknown field.
    let resp = c
        .call(
            62,
            Method::Plan,
            Json::obj([
                ("apps", Json::arr([Json::from("Gcc")])),
                ("vdds", Json::arr([Json::from(0.8)])),
                ("frobnicate", Json::from(1i64)),
            ]),
            None,
        )
        .expect("reply");
    assert_eq!(kind_of(&resp), Some("bad_request"));
    handle.shutdown();
}

#[test]
fn telemetry_reports_rolling_quantiles_and_flight_records_from_a_live_daemon() {
    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");

    // Three sims land in the windowed per-method histograms.
    for k in 0..3i64 {
        let resp = c
            .sim(
                200 + k,
                Json::obj([(
                    "points",
                    Json::arr([sim_params("Gcc", 0x7E1E_0000 + k as u64, 1_000, 800)]),
                )]),
            )
            .expect("reply");
        assert!(resp.is_ok(), "{}", resp.raw);
    }

    // A reply hits the wire just before its observation is recorded, so
    // the freshest request can be in flight between read and record: poll
    // until the engine-local 60 s window holds all three sims.
    let mut result = Json::Null;
    for attempt in 0..200 {
        let resp = c
            .telemetry(210 + attempt, Json::obj([("recent", Json::from(8u64))]))
            .expect("telemetry reply");
        result = resp
            .result()
            .unwrap_or_else(|| panic!("telemetry failed: {}", resp.raw))
            .clone();
        let count = result
            .get("methods")
            .and_then(|m| m.get("sim"))
            .and_then(|s| s.get("latency_us"))
            .and_then(|l| l.get("60s"))
            .and_then(|w| w.get("count"));
        if count == Some(&Json::Int(3)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let result = &result;

    // Per-method quantiles must be present in every rolling window, and
    // the slowest window (engine-local, so nothing else records into it)
    // must hold exactly the three sims we just ran.
    let sim = result
        .get("methods")
        .and_then(|m| m.get("sim"))
        .expect("methods.sim");
    // The cumulative `requests` counter is process-global (other tests in
    // this binary bump it too); only its floor is deterministic here.
    match sim.get("requests") {
        Some(Json::Int(n)) => assert!(*n >= 3, "requests {n} < 3"),
        other => panic!("methods.sim.requests not an int: {other:?}"),
    }
    let latency = sim.get("latency_us").expect("latency_us");
    for window in ["1s", "10s", "60s"] {
        let w = latency
            .get(window)
            .unwrap_or_else(|| panic!("window {window}"));
        for q in ["p50", "p90", "p95", "p99"] {
            assert!(
                matches!(w.get(q), Some(Json::Int(_)) | Some(Json::Num(_))),
                "{window}.{q} missing: {w:?}"
            );
        }
    }
    assert_eq!(
        latency.get("60s").and_then(|w| w.get("count")),
        Some(&Json::Int(3)),
        "{latency:?}"
    );
    assert!(sim.get("queue_us").is_some(), "queue_us windows present");

    // Flight recorder: the three sims are on record, nothing dropped.
    let flight = result.get("flight").expect("flight");
    assert_eq!(flight.get("dropped"), Some(&Json::Int(0)));
    let recent = match flight.get("recent") {
        Some(Json::Arr(r)) => r,
        other => panic!("flight.recent not an array: {other:?}"),
    };
    assert!(recent.len() >= 3, "{recent:?}");

    // The Prometheus-style text variant parses and names the key series.
    let resp = c
        .telemetry(501, Json::obj([("format", Json::from("text"))]))
        .expect("text reply");
    let text = match resp.result().and_then(|r| r.get("text")) {
        Some(Json::Str(t)) => t.clone(),
        other => panic!("result.text not a string: {other:?} ({})", resp.raw),
    };
    assert!(
        text.contains("m3d_serve_requests_total{method=\"sim\"}"),
        "{text}"
    );
    assert!(
        text.contains("m3d_serve_latency_us{method=\"sim\""),
        "{text}"
    );

    // An unknown format is a structured bad_request, not a hang.
    let resp = c
        .telemetry(502, Json::obj([("format", Json::from("xml"))]))
        .expect("bad format reply");
    assert_eq!(kind_of(&resp), Some("bad_request"));

    handle.shutdown();
}

/// Read one serve counter out of a `stats` result payload.
fn stats_counter(result: &Json, name: &str) -> i64 {
    match result
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
    {
        Some(Json::Int(n)) => *n,
        other => panic!("counter {name} missing from stats: {other:?}"),
    }
}

#[test]
fn panicking_request_is_answered_and_leaves_the_pool_alive() {
    // Regression test for the uncaught-panic worker-death bug: every sim
    // path (including the solo fallback arm) must run behind the panic
    // guard, so a poisoned request answers `panic` and the pool keeps
    // serving. The injected seed is unique to this test.
    const POISON: u64 = 0xBAD5_EED0;
    m3d_serve::engine::inject_sim_panic_seed(Some(POISON));
    let (addr, handle) = start(64);
    let mut c = Client::connect(&addr).expect("connect");
    // Two poisoned requests: with the old bug each one killed a worker,
    // which with the default pool of two left nobody to answer anything.
    for k in 0..2i64 {
        let resp = c
            .sim(
                300 + k,
                Json::obj([("points", Json::arr([sim_params("Gcc", POISON, 1_000, 800)]))]),
            )
            .expect("poisoned request still gets a reply");
        assert_eq!(kind_of(&resp), Some("panic"), "{}", resp.raw);
    }
    // The pool must still answer queued work after both panics.
    for k in 0..3i64 {
        let resp = c
            .sim(
                310 + k,
                Json::obj([(
                    "points",
                    Json::arr([sim_params("Gcc", 0xBAD5_EE00 + k as u64, 1_000, 800)]),
                )]),
            )
            .expect("pool survives the panics");
        assert!(resp.is_ok(), "{}", resp.raw);
    }
    m3d_serve::engine::inject_sim_panic_seed(None);
    handle.shutdown();
}

#[test]
fn hung_up_plan_client_aborts_the_search() {
    // Regression test for the dead-client plan bug: a client that drops
    // mid-stream must cancel the search at the next chunk boundary
    // (counted in serve.plan_aborted) instead of simulating every
    // remaining chunk for nobody.
    let (addr, handle) = start(64);
    let before = {
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c.stats(400).expect("stats");
        stats_counter(resp.result().expect("stats result"), "serve.plan_aborted")
    };

    // A wide spec at an interval no other test uses (so nothing is memo
    // cached and chunks take real simulation time), chunked small so the
    // abort lands after only a few of the ~128 chunks.
    let apps = [
        "Astar",
        "Bzip2",
        "Gcc",
        "Gobmk",
        "Hmmer",
        "Lbm",
        "Libquantum",
        "Mcf",
        "Milc",
        "Namd",
        "Omnetpp",
        "Povray",
        "Sjeng",
        "Soplex",
        "Xalancbmk",
        "H264Ref",
        "Gromacs",
    ];
    let params = Json::obj([
        ("apps", Json::Arr(apps.map(Json::from).to_vec())),
        (
            "vdds",
            Json::Arr(
                (0..10)
                    .map(|i| Json::from(0.55 + 0.05 * i as f64))
                    .collect(),
            ),
        ),
        ("warmup", Json::from(130u64)),
        ("measure", Json::from(170u64)),
        ("chunk", Json::from(8u64)),
    ]);
    {
        let mut c = Client::connect(&addr).expect("connect");
        let mut stream = c.plan(401, params, None).expect("send plan");
        let first = stream
            .next()
            .expect("first partial")
            .expect("typed partial");
        assert!(first.partial, "{}", first.raw);
        // Dropping the client closes the socket with partials unread: the
        // kernel resets the connection and the server's next flush fails.
    }

    // The abort is detected at the next chunk boundary after the failed
    // write; poll stats over a fresh connection until the counter moves.
    let mut c = Client::connect(&addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let resp = c.stats(402).expect("stats");
        if stats_counter(resp.result().expect("stats result"), "serve.plan_aborted") > before {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve.plan_aborted never advanced: the search kept running for a dead client"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn requests_buffered_at_shutdown_are_answered_not_dropped() {
    // Requests whose bytes reached the server before the stop signal must
    // each get a terminating line — a real response or a structured
    // `shutdown` error — never a silent close.
    let (addr, handle) = start(64);
    let mut c = Client::connect(&addr).expect("connect");
    for k in 0..4i64 {
        c.send(
            500 + k,
            Method::Sim,
            Json::obj([(
                "points",
                Json::arr([sim_params("Mcf", 0x51D0_0000 + k as u64, 2_000, 1_500)]),
            )]),
            None,
        )
        .expect("send");
    }
    // All four lines are in the server's kernel buffer (loopback write
    // completes delivery); stop before reading anything back.
    handle.shutdown();
    let mut ids = Vec::new();
    for _ in 0..4 {
        let resp = c.recv().expect("buffered request answered");
        assert!(
            resp.is_ok() || kind_of(&resp) == Some("shutdown"),
            "buffered request must answer ok or shutdown: {}",
            resp.raw
        );
        if let Some(id) = resp.id {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    assert_eq!(ids, (500..504).collect::<Vec<i64>>());
    assert!(c.recv_raw().is_err(), "then the connection closes");
}

#[test]
fn many_connections_share_two_workers() {
    // Connections ≫ workers: 24 concurrent connections against the
    // default two-worker pool, each pipelining a sim and a stats request.
    // Every connection must get both answers — the event loop multiplexes
    // all sockets on one thread, so idle connections cannot starve busy
    // ones (or hold a thread hostage like thread-per-connection did).
    let (addr, handle) = start(64);
    std::thread::scope(|scope| {
        for conn in 0..24i64 {
            let addr = &addr;
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.send(
                    600 + conn,
                    Method::Sim,
                    // One shared seed: after the first miss these are memo
                    // hits, keeping 24 connections cheap.
                    Json::obj([(
                        "points",
                        Json::arr([sim_params("Gcc", 0x3A2E_0001, 1_000, 900)]),
                    )]),
                    None,
                )
                .expect("send sim");
                c.send(700 + conn, Method::Stats, Json::Obj(Vec::new()), None)
                    .expect("send stats");
                let mut got = [false; 2];
                for _ in 0..2 {
                    let resp = c.recv().expect("reply");
                    assert!(resp.is_ok(), "{}", resp.raw);
                    match resp.id {
                        Some(id) if id == 600 + conn => got[0] = true,
                        Some(id) if id == 700 + conn => got[1] = true,
                        other => panic!("unexpected id {other:?} on connection {conn}"),
                    }
                }
                assert!(got[0] && got[1], "both replies arrived");
            });
        }
    });
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_all_answered_and_shutdown_closes_cleanly() {
    let (addr, handle) = start(64);
    let mut c = Client::connect(&addr).expect("connect");
    // Pipeline several requests before reading anything: the queue may
    // coalesce them into one batch (or split them across workers, so reply
    // order is not guaranteed), but every request keeps its own reply.
    for k in 0..6i64 {
        c.send(
            100 + k,
            Method::Sim,
            Json::obj([(
                "points",
                Json::arr([sim_params("Bzip2", 0xD7A1_0000 + k as u64, 2_000, 1_500)]),
            )]),
            None,
        )
        .expect("send");
    }
    let mut ids = Vec::new();
    for _ in 0..6 {
        let resp = c.recv().expect("pipelined reply");
        assert!(resp.is_ok(), "{}", resp.raw);
        if let Some(id) = resp.id {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    assert_eq!(ids, (100..106).collect::<Vec<i64>>());
    // Graceful shutdown drains and then closes the connection.
    handle.shutdown();
    assert!(
        c.recv_raw().is_err(),
        "connection must be closed after shutdown"
    );
}

#[test]
fn deeply_nested_json_answers_parse_and_the_connection_keeps_working() {
    let (addr, handle) = start(8);
    let mut c = Client::connect(&addr).expect("connect");

    // 240 KB of `[` fits under the line cap; before the parser capped its
    // nesting depth this line overflowed the event loop's stack.
    let reply = c.call_raw(&"[".repeat(240 * 1024)).expect("reply");
    let resp = Response::parse(&reply).expect("parses");
    assert_eq!(kind_of(&resp), Some("parse"), "{reply}");
    assert_eq!(resp.id, None, "{reply}");

    let stats = c.stats(2).expect("stats after the deep line");
    assert!(stats.is_ok(), "{}", stats.raw);
    assert_eq!(stats.id, Some(2));

    handle.shutdown();
}

#[test]
fn fully_cached_sims_bypass_the_queue() {
    // The memo cache is process-wide, so a point answered in-process is a
    // hit for the daemon too. A seed unique to this test keeps it apart.
    let engine = Engine::new(true, 1).expect("engine");
    let warm = sim_params("Gcc", 0x1A11_0001, 1_000, 800);
    let line = |id: i64, params: Json, deadline: Option<u64>| {
        request_line(id, Method::Sim, params, deadline)
    };
    let plain = line(1, warm.clone(), None);
    let timed = line(2, warm.clone(), Some(0));
    let strict = line(
        3,
        Json::obj([
            ("points", Json::arr([warm.clone()])),
            ("strict", Json::from(true)),
        ]),
        None,
    );
    let want: Vec<String> = [&plain, &timed, &strict]
        .iter()
        .map(|l| engine.answer_line(l))
        .collect();

    // cap 0: anything that reaches the queue is rejected.
    let (addr, handle) = start(0);
    let mut c = Client::connect(&addr).expect("connect");
    let before = c.stats(10).expect("stats").result.expect("ok");
    let before = stats_counter(&before, "serve.inline_hits");
    for (l, w) in [&plain, &timed, &strict].into_iter().zip(&want) {
        let reply = c.call_raw(l).expect("reply");
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        assert_eq!(&reply, w, "inline reply differs from the engine's");
    }
    let after = c.stats(11).expect("stats").result.expect("ok");
    let after = stats_counter(&after, "serve.inline_hits");
    assert!(after >= before + 3, "inline hits {before} -> {after}");

    // A partial hit takes the queue, which is full.
    let pair = Json::obj([(
        "points",
        Json::arr([warm, sim_params("Gcc", 0x1A11_0002, 1_000, 800)]),
    )]);
    let resp = c.sim(4, pair).expect("reply");
    assert_eq!(kind_of(&resp), Some("overloaded"), "{}", resp.raw);

    // Inline hits leave flight records with no queue wait and batch 1.
    let tele = c
        .telemetry(12, Json::obj([("recent", Json::from(16i64))]))
        .expect("telemetry")
        .result
        .expect("ok");
    let Some(Json::Arr(recent)) = tele.get("flight").and_then(|f| f.get("recent")) else {
        panic!("no flight records: {tele:?}");
    };
    let hits: Vec<&Json> = recent
        .iter()
        .filter(|r| matches!(r.get("id"), Some(Json::Int(1..=3))))
        .collect();
    assert_eq!(hits.len(), 3, "{recent:?}");
    for r in hits {
        assert_eq!(r.get("queue_us"), Some(&Json::Int(0)), "{r:?}");
        assert_eq!(r.get("batch"), Some(&Json::Int(1)), "{r:?}");
        assert_eq!(r.get("outcome"), Some(&Json::from("ok")), "{r:?}");
    }

    handle.shutdown();
}
