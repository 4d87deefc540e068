//! Shard-router tests against real `serve` child processes: the
//! byte-equivalence invariant (any shard count answers exactly what the
//! serial engine answers) and graceful degradation when a shard dies.

use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::protocol::{request_line, Method};
use m3d_serve::router::{route_hash, shard_of_hash};
use m3d_serve::{Engine, Router, RouterConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills (and reaps) a spawned daemon when a test panics early.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn one `serve --quick` daemon on an ephemeral port and wait for
/// its port file.
fn spawn_daemon(tag: &str) -> (String, ChildGuard) {
    let port_file =
        std::env::temp_dir().join(format!("m3d-shard-test-{}-{tag}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--quick", "--port-file"])
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve daemon");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim();
            if !s.is_empty() {
                break s.to_owned();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote {port_file:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&port_file);
    (addr, ChildGuard(child))
}

fn sim_point(app: &str, design: &str, seed: u64, warmup: u64, measure: u64) -> Json {
    Json::obj([
        ("app", Json::from(app)),
        ("design", Json::from(design)),
        ("seed", Json::from(seed)),
        ("warmup", Json::from(warmup)),
        ("measure", Json::from(measure)),
    ])
}

/// The pipelined request mix the equivalence test replays everywhere:
/// sims (single, multi-point spanning shards, strict), a streamed plan,
/// malformed lines, and deadline misses on a sim, a plan and an
/// experiment. Returns raw request lines.
fn request_mix() -> Vec<String> {
    let multi = Json::arr([
        sim_point("Gcc", "Base", 0x5AAD_0001, 900, 700),
        sim_point("Mcf", "Base", 0x5AAD_0002, 900, 700),
        // Shares a warm-up checkpoint with the first point:
        sim_point("Gcc", "Base", 0x5AAD_0001, 900, 1_100),
        Json::obj([
            ("app", Json::from("Ocean")),
            ("design", Json::from("M3D-Het")),
            ("seed", Json::from(0x5AAD_0003_u64)),
            ("n_cores", Json::from(2u64)),
            ("warmup", Json::from(800u64)),
            ("measure", Json::from(600u64)),
        ]),
    ]);
    let plan = Json::obj([
        (
            "designs",
            Json::arr([Json::from("Base"), Json::from("M3D-Het")]),
        ),
        ("apps", Json::arr([Json::from("Gcc")])),
        (
            "vdds",
            Json::Arr([0.7, 0.75, 0.8, 0.85, 0.9].map(Json::from).to_vec()),
        ),
        ("warmup", Json::from(450u64)),
        ("measure", Json::from(650u64)),
        ("chunk", Json::from(4u64)),
    ]);
    vec![
        // A bare single-point sim (no `points` array).
        request_line(
            1,
            Method::Sim,
            sim_point("Bzip2", "Base", 0x5AAD_0000, 800, 600),
            None,
        ),
        // Multi-point: under 3 shards these points fan out.
        request_line(2, Method::Sim, Json::obj([("points", multi)]), None),
        // Malformed line: answered with a structured parse error.
        "this is not json".to_owned(),
        // Unknown method.
        r#"{"id":4,"method":"frobnicate"}"#.to_owned(),
        // Bad sim params.
        request_line(5, Method::Sim, Json::obj([("app", Json::from(7i64))]), None),
        // Strict multi-point (nothing caps at these intervals): the
        // router must re-apply the strict check over the merged rows.
        request_line(
            6,
            Method::Sim,
            Json::obj([
                ("strict", Json::Bool(true)),
                (
                    "points",
                    Json::arr([
                        sim_point("Namd", "Base", 0x5AAD_0004, 900, 700),
                        sim_point("Lbm", "Base", 0x5AAD_0005, 900, 700),
                    ]),
                ),
            ]),
            None,
        ),
        // A plan that streams several partial lines before its answer.
        request_line(7, Method::Plan, plan.clone(), None),
        // A deadline miss on an uncached point (cache hits are served
        // even past a deadline, so the seed is unique to this line).
        request_line(
            8,
            Method::Sim,
            Json::obj([(
                "points",
                Json::arr([sim_point("Gcc", "Base", 0x5AAD_0006, 2_000, 1_500)]),
            )]),
            Some(0),
        ),
        // The same plan and a registry experiment, both already past
        // their deadline on arrival: neither may start.
        request_line(9, Method::Plan, plan, Some(0)),
        request_line(
            10,
            Method::Experiment,
            Json::obj([("name", Json::from("frontier"))]),
            Some(0),
        ),
    ]
}

/// Pipeline `lines` over one connection and read back exactly `n` reply
/// lines.
fn pipeline(addr: &str, lines: &[String], n: usize) -> Vec<String> {
    let mut c = Client::connect(addr).expect("connect");
    for line in lines {
        c.send_raw(line).expect("send");
    }
    (0..n).map(|_| c.recv_raw().expect("reply")).collect()
}

#[test]
fn one_and_three_shard_routers_match_the_serial_reference_byte_for_byte() {
    let lines = request_mix();

    // The serial reference: `Engine::answer_lines` is the `--oneshot`
    // code path, one answer stream in request order.
    let engine = Engine::new(true, 1).expect("engine");
    let expected: Vec<String> = lines.iter().flat_map(|l| engine.answer_lines(l)).collect();
    assert!(
        expected.len() > lines.len(),
        "the plan must stream partials"
    );

    // The same mix through an actual `serve --oneshot` child process.
    let mut oneshot = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--quick", "--oneshot"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn oneshot");
    {
        let mut stdin = oneshot.stdin.take().expect("stdin");
        for line in &lines {
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let out = BufReader::new(oneshot.stdout.take().expect("stdout"));
    let got: Vec<String> = out.lines().map(|l| l.expect("read reply")).collect();
    assert!(oneshot.wait().expect("oneshot exit").success());
    assert_eq!(got, expected, "--oneshot diverged from the serial engine");

    // Three real shard daemons shared by both router configurations
    // (responses are pure functions of the request, so warm memo caches
    // cannot change any byte).
    let (a0, _d0) = spawn_daemon("eq0");
    let (a1, _d1) = spawn_daemon("eq1");
    let (a2, _d2) = spawn_daemon("eq2");

    for connect in [vec![a0.clone()], vec![a0.clone(), a1.clone(), a2.clone()]] {
        let shards = connect.len();
        let router = Router::bind(RouterConfig {
            connect,
            quick: true,
            ..RouterConfig::default()
        })
        .expect("bind router");
        let addr = router.local_addr().expect("router addr").to_string();
        let handle = router.spawn();
        let got = pipeline(&addr, &lines, expected.len());
        assert_eq!(
            got, expected,
            "{shards}-shard router diverged from the serial reference"
        );
        handle.shutdown();
    }
}

/// One serve counter out of a router `stats` result.
fn counter(result: &Json, name: &str) -> i64 {
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
fn router_keeps_answering_after_a_shard_is_killed() {
    // Spawn mode: the router owns two real `serve` children.
    let router = Router::bind(RouterConfig {
        shards: 2,
        serve_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_serve"))),
        quick: true,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("router addr").to_string();
    let pids = router.shard_pids();
    assert_eq!(pids.len(), 2);
    let handle = router.spawn();

    // A wide plan at an interval nothing memo-cached (~128 chunks of real
    // simulation), whose shard is predictable from the public routing
    // hash — that is the shard this test kills mid-stream.
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
    let plan_params = Json::obj([
        ("apps", Json::Arr(apps.map(Json::from).to_vec())),
        (
            "vdds",
            Json::Arr(
                (0..10)
                    .map(|i| Json::from(0.55 + 0.05 * i as f64))
                    .collect(),
            ),
        ),
        ("warmup", Json::from(140u64)),
        ("measure", Json::from(160u64)),
        ("chunk", Json::from(8u64)),
    ]);
    let victim = shard_of_hash(route_hash(Method::Plan, &plan_params), 2);
    let victim_pid = pids[victim].expect("spawned shard pid");

    let mut c = Client::connect(&addr).expect("connect");
    let mut stream = c.plan(900, plan_params, None).expect("start plan");
    let first = stream
        .next()
        .expect("first partial")
        .expect("typed partial");
    assert!(first.partial, "{}", first.raw);

    // SIGKILL the shard running the plan: no drain, no goodbye.
    assert!(
        Command::new("kill")
            .args(["-9", &victim_pid.to_string()])
            .status()
            .expect("run kill")
            .success(),
        "kill -9 {victim_pid}"
    );

    // The stream still terminates — with a structured shard_down error,
    // not a hang or a dropped connection.
    let mut last = first;
    for resp in stream {
        last = resp.expect("typed line");
    }
    assert!(!last.partial);
    assert_eq!(
        last.error().map(|e| e.kind.wire_name()),
        Some("shard_down"),
        "{}",
        last.raw
    );

    // The dead shard's key slice is re-routed: sims keep answering on the
    // same connection. 16 distinct seeds make "none owned by the dead
    // slice" a 2^-16 coincidence.
    for k in 0..16u64 {
        let resp = c
            .sim(
                910 + k as i64,
                Json::obj([(
                    "points",
                    Json::arr([sim_point("Gcc", "Base", 0x5AAD_1000 + k, 700, 500)]),
                )]),
            )
            .expect("post-kill sim");
        assert!(resp.is_ok(), "{}", resp.raw);
    }

    // The failure is visible: counters moved and the topology marks the
    // shard dead (floors only — other tests in this binary share the
    // process-global counter store).
    let resp = c.stats(990).expect("stats");
    let result = resp.result().expect("stats result");
    assert!(counter(result, "serve.shard_deaths") >= 1);
    assert!(counter(result, "serve.shard_rerouted") >= 1);
    assert!(counter(result, "serve.shard_failed") >= 1);
    assert!(counter(result, "serve.shard_subrequests") >= 16);
    let slices = match result.get("topology").and_then(|t| t.get("slices")) {
        Some(Json::Arr(s)) => s.clone(),
        other => panic!("topology.slices missing: {other:?}"),
    };
    assert_eq!(slices.len(), 2);
    for (i, slice) in slices.iter().enumerate() {
        let live = slice.get("live") == Some(&Json::Bool(true));
        assert_eq!(live, i != victim, "slice {i}: {slice:?}");
    }

    // Graceful shutdown still drains and reaps the surviving child.
    drop(c);
    handle.shutdown();
}

#[test]
fn router_answers_deeply_nested_json_and_keeps_serving() {
    let router = Router::bind(RouterConfig {
        shards: 2,
        serve_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_serve"))),
        quick: true,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("router addr").to_string();
    let handle = router.spawn();

    let mut c = Client::connect(&addr).expect("connect");
    let reply = c.call_raw(&"[".repeat(240 * 1024)).expect("reply");
    let resp = m3d_serve::protocol::Response::parse(&reply).expect("parses");
    assert_eq!(
        resp.error().map(|e| e.kind.wire_name()),
        Some("parse"),
        "{reply}"
    );

    // Both the router itself and its shards still answer.
    let stats = c.stats(2).expect("stats after the deep line");
    assert!(stats.is_ok(), "{}", stats.raw);
    let sim = c
        .sim(
            3,
            Json::obj([(
                "points",
                Json::arr([
                    sim_point("Gcc", "Base", 0x5AAD_2000, 700, 500),
                    sim_point("Mcf", "Base", 0x5AAD_2001, 700, 500),
                ]),
            )]),
        )
        .expect("sim after the deep line");
    assert!(sim.is_ok(), "{}", sim.raw);

    drop(c);
    handle.shutdown();
}

#[test]
fn concurrent_spawn_mode_binds_get_disjoint_shards() {
    // Three routers bind at once in one process; each must spawn and
    // reach its own two shards, never another router's.
    let start = std::sync::Barrier::new(3);
    let binds: Vec<std::io::Result<Router>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    Router::bind(RouterConfig {
                        shards: 2,
                        serve_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_serve"))),
                        quick: true,
                        ..RouterConfig::default()
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("bind thread"))
            .collect()
    });
    // Query every router that did bind, then shut each down (reaping its
    // shards) before judging the outcome.
    let mut shard_addrs = Vec::new();
    let mut failures = Vec::new();
    for bind in binds {
        let router = match bind {
            Ok(r) => r,
            Err(e) => {
                failures.push(e.to_string());
                continue;
            }
        };
        let addr = router.local_addr().expect("router addr").to_string();
        let handle = router.spawn();
        let mut c = Client::connect(&addr).expect("connect");
        let stats = c.stats(1);
        drop(c);
        handle.shutdown();
        let resp = stats.expect("stats");
        let result = resp.result().expect("stats result");
        let slices = match result.get("topology").and_then(|t| t.get("slices")) {
            Some(Json::Arr(s)) => s.clone(),
            other => panic!("topology.slices missing: {other:?}"),
        };
        assert_eq!(slices.len(), 2);
        for slice in &slices {
            match slice.get("addr") {
                Some(Json::Str(a)) => shard_addrs.push(a.clone()),
                other => panic!("slice without an address: {other:?}"),
            }
        }
    }
    assert!(failures.is_empty(), "concurrent binds failed: {failures:?}");
    let mut unique = shard_addrs.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), 6, "shard addresses overlap: {shard_addrs:?}");
}
