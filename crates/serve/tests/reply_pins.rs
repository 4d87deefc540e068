//! Exact reply bytes for a corpus of request lines: every error branch
//! of the request envelope and of a `sim`'s params and points, the
//! first-occurrence rule for duplicate keys, `\u` escapes, whitespace
//! between tokens, flat params and `points`, `strict`, and integer and
//! float `freq_ghz`. The serial engine (the `--oneshot` path), an
//! in-process daemon and a 2-shard router must each give these bytes.

use m3d_serve::client::Client;
use m3d_serve::{Engine, Router, RouterConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// `(request line, reply line)`, neither with its newline.
const PINS: &[(&str, &str)] = &[
    (
        r##"not json"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: invalid literal at byte 0"}}"##,
    ),
    (
        r##"[1,2]"##,
        r##"{"id":null,"ok":false,"error":{"kind":"bad_request","message":"request must be a JSON object"}}"##,
    ),
    (
        r##"{"method":"sim"}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"bad_request","message":"`id` is required"}}"##,
    ),
    (
        r##"{"id":"7","method":"sim"}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"bad_request","message":"`id` must be an integer"}}"##,
    ),
    (
        r##"{"id":1.5,"method":"sim"}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"bad_request","message":"`id` must be an integer"}}"##,
    ),
    (
        r##"{"id":3,"method":"frobnicate"}"##,
        r##"{"id":3,"ok":false,"error":{"kind":"unknown_method","message":"unknown method `frobnicate`"}}"##,
    ),
    (
        r##"{"id":3}"##,
        r##"{"id":3,"ok":false,"error":{"kind":"bad_request","message":"`method` must be a string"}}"##,
    ),
    (
        r##"{"id":3,"method":7}"##,
        r##"{"id":3,"ok":false,"error":{"kind":"bad_request","message":"`method` must be a string"}}"##,
    ),
    (
        r##"{"id":4,"method":"sim","deadline_ms":-1}"##,
        r##"{"id":4,"ok":false,"error":{"kind":"bad_request","message":"`deadline_ms` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":4,"method":"sim","deadline_ms":"soon"}"##,
        r##"{"id":4,"ok":false,"error":{"kind":"bad_request","message":"`deadline_ms` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":5,"method":"sim","params":[1]}"##,
        r##"{"id":5,"ok":false,"error":{"kind":"bad_request","message":"`params` must be an object"}}"##,
    ),
    (
        r##"{"id":5,"method":"sim"}"##,
        r##"{"id":5,"ok":false,"error":{"kind":"bad_request","message":"each point needs a string `app`"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim",}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: expected `\"` at byte 23"}}"##,
    ),
    (
        r##"{"id":1 "method":"sim"}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: expected `,` or `}` at byte 8"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim","params":{"app":"Gcc"]}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: expected `,` or `}` at byte 44"}}"##,
    ),
    (
        r##"{"id":1e,"method":"sim"}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: invalid number `1e` at byte 6"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim","params":{"app":"\ud800"}}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: lone high surrogate"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim","params":{"app":"\u12G4"}}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: bad \\u escape at byte 42"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim","params":{"app":"\q"}}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: bad escape at byte 41"}}"##,
    ),
    (
        r##"{"id":tru,"method":"sim"}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: invalid literal at byte 6"}}"##,
    ),
    (
        r##"{"id":1,"method":"stats"} x"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: trailing data at byte 26"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: unterminated string"}}"##,
    ),
    (
        r##"{"id":"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: unexpected end of input"}}"##,
    ),
    (
        r##"{"id":@}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: unexpected `@` at byte 6"}}"##,
    ),
    (
        r##"{"id":é}"##,
        r##"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: unexpected `Ã` at byte 6"}}"##,
    ),
    (
        r##"{"id":1,"method":"sim","params":{"app":"Gcc","measure":300,"strict":"yes"}}"##,
        r##"{"id":1,"ok":false,"error":{"kind":"bad_request","message":"`strict` must be a boolean"}}"##,
    ),
    (
        r##"{"id":12,"method":"sim","params":{"points":{"app":"Gcc"}}}"##,
        r##"{"id":12,"ok":false,"error":{"kind":"bad_request","message":"`points` must be an array"}}"##,
    ),
    (
        r##"{"id":12,"method":"sim","params":{"app":"Gcc","measure":300,"points":null}}"##,
        r##"{"id":12,"ok":false,"error":{"kind":"bad_request","message":"`points` must be an array"}}"##,
    ),
    (
        r##"{"id":12,"method":"sim","params":{"points":[]}}"##,
        r##"{"id":12,"ok":false,"error":{"kind":"bad_request","message":"`points` must hold 1..=1024 entries, got 0"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"design":"Base","measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"each point needs a string `app`"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":5,"measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"each point needs a string `app`"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","design":3,"measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`design` must be a string"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","n_cores":-1,"measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`n_cores` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","n_cores":"2","measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`n_cores` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","n_cores":0,"measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`n_cores` must be at least 1"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","seed":1.5,"measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`seed` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","warmup":"x","measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`warmup` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","measure":0}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"each point needs a positive `measure` window"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","warmup":200}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"each point needs a positive `measure` window"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","measure":-3}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`measure` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","warmup":4000000,"measure":1000001}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"warmup + measure exceeds the 5000000 µop per-point cap"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Nope","measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"unknown single-core app `Nope`"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","design":"M3D-Het-W","measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"unknown single-core design `M3D-Het-W`"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Nope","n_cores":2,"measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"unknown parallel app `Nope`"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Ocean","n_cores":2,"design":"M3D-Iso","measure":300}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"unknown multicore design `M3D-Iso`"}}"##,
    ),
    (
        r##"{"id":13,"method":"sim","params":{"app":"Gcc","measure":300,"freq_ghz":"3"}}"##,
        r##"{"id":13,"ok":false,"error":{"kind":"bad_request","message":"`freq_ghz` must be a number"}}"##,
    ),
    (
        r##"{"id":14,"method":"sim","params":{"app":"Gcc","design":"M3D-Het","seed":9,"warmup":200,"measure":300}}"##,
        r##"{"id":14,"ok":true,"result":{"results":[{"cycles":14865,"instructions":300,"ipc":0.020181634712411706,"freq_ghz":3.79,"time_s":0.000003922163588390502,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":14,"method":"sim","params":{"app":"Gcc","design":"M3D-Het","seed":9,"warmup":200,"measure":300,"freq_ghz":3}}"##,
        r##"{"id":14,"ok":true,"result":{"results":[{"cycles":12425,"instructions":300,"ipc":0.02414486921529175,"freq_ghz":3,"time_s":0.000004141666666666666,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":14,"method":"sim","params":{"app":"Gcc","design":"M3D-Het","seed":9,"warmup":200,"measure":300,"freq_ghz":2.5}}"##,
        r##"{"id":14,"ok":true,"result":{"results":[{"cycles":10900,"instructions":300,"ipc":0.027522935779816515,"freq_ghz":2.5,"time_s":0.00000436,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":14,"method":"sim","params":{"app":"Gcc","design":null,"seed":9,"warmup":200,"measure":300,"freq_ghz":null,"strict":null}}"##,
        r##"{"id":14,"ok":true,"result":{"results":[{"cycles":13426,"instructions":300,"ipc":0.022344704305079698,"freq_ghz":3.3,"time_s":0.000004068484848484849,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":15,"method":"sim","params":{"app":"Mcf","seed":9,"warmup":200,"measure":300,"strict":true}}"##,
        r##"{"id":15,"ok":true,"result":{"results":[{"cycles":2970,"instructions":300,"ipc":0.10101010101010101,"freq_ghz":3.3,"time_s":0.0000009,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"params":{"app":"Gcc","design":"M3D-Het","seed":9,"warmup":200,"measure":300},"method":"sim","id":16}"##,
        r##"{"id":16,"ok":true,"result":{"results":[{"cycles":14865,"instructions":300,"ipc":0.020181634712411706,"freq_ghz":3.79,"time_s":0.000003922163588390502,"cap_exhausted":false}]}}"##,
    ),
    (
        r##" { "id" : 17 , "method" : "sim" , "params" : { "app" : "Gcc" , "design" : "M3D-Het" , "seed" : 9 , "warmup" : 200 , "measure" : 300 } } "##,
        r##"{"id":17,"ok":true,"result":{"results":[{"cycles":14865,"instructions":300,"ipc":0.020181634712411706,"freq_ghz":3.79,"time_s":0.000003922163588390502,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":18,"id":"x","method":"sim","method":"nope","params":{"app":"Gcc","app":7,"design":"M3D-Het","seed":9,"seed":-1,"warmup":200,"measure":300},"params":5}"##,
        r##"{"id":18,"ok":true,"result":{"results":[{"cycles":14865,"instructions":300,"ipc":0.020181634712411706,"freq_ghz":3.79,"time_s":0.000003922163588390502,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":19,"method":"sim","params":{"strict":false,"points":[{"app":"Gcc","seed":9,"warmup":200,"measure":300,"strict":"x","points":7},{"app":"Ocean","n_cores":2,"design":"M3D-Het","seed":9,"warmup":200,"measure":300}],"app":5}}"##,
        r##"{"id":19,"ok":true,"result":{"results":[{"cycles":13426,"instructions":300,"ipc":0.022344704305079698,"freq_ghz":3.3,"time_s":0.000004068484848484849,"cap_exhausted":false},{"cycles":3973,"instructions":600,"ipc":0.15101938082053865,"freq_ghz":3.79,"time_s":0.0000010482849604221636,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":20,"method":"sim","params":{"points":[{"app":"Gcc","seed":9,"warmup":200,"measure":300},5]}}"##,
        r##"{"id":20,"ok":false,"error":{"kind":"bad_request","message":"each point needs a string `app`"}}"##,
    ),
    (
        r##"{"id":20,"method":"sim","params":{"points":[{"app":"Gcc","seed":9,"warmup":200,"measure":300},{"app":"Gcc","measure":0}]}}"##,
        r##"{"id":20,"ok":false,"error":{"kind":"bad_request","message":"each point needs a positive `measure` window"}}"##,
    ),
    (
        r##"{"id":21,"method":"experiment","params":{"name":"bogus"}}"##,
        r##"{"id":21,"ok":false,"error":{"kind":"bad_request","message":"unknown experiment `bogus` (try `repro --list`)"}}"##,
    ),
    (
        r##"{"id":21,"method":"experiment","params":{"name":5}}"##,
        r##"{"id":21,"ok":false,"error":{"kind":"bad_request","message":"`name` must be a string"}}"##,
    ),
    (
        r##"{"id":22,"method":"telemetry","params":{"format":"xml"}}"##,
        r##"{"id":22,"ok":false,"error":{"kind":"bad_request","message":"`format` must be \"json\" or \"text\""}}"##,
    ),
    (
        r##"{"id":22,"method":"telemetry","params":{"recent":-1}}"##,
        r##"{"id":22,"ok":false,"error":{"kind":"bad_request","message":"`recent` must be a non-negative integer"}}"##,
    ),
    (
        r##"{"id":23,"method":"plan","params":{"apps":5}}"##,
        r##"{"id":23,"ok":false,"error":{"kind":"bad_request","message":"invalid search spec: `apps` must be an array"}}"##,
    ),
    (
        r##"{"id":25,"method":"sim","params":{"app":"Gcc","design":"M3D-Het","seed":9,"warmup":200,"measure":300}}"##,
        r##"{"id":25,"ok":true,"result":{"results":[{"cycles":14865,"instructions":300,"ipc":0.020181634712411706,"freq_ghz":3.79,"time_s":0.000003922163588390502,"cap_exhausted":false}]}}"##,
    ),
    (
        r##"{"id":25,"method":"sim","params":{"app":"G😀\t\"q\"","measure":300}}"##,
        r##"{"id":25,"ok":false,"error":{"kind":"bad_request","message":"unknown single-core app `G😀\t\"q\"`"}}"##,
    ),
    (
        r##"{"id":25,"method":"méthod"}"##,
        r##"{"id":25,"ok":false,"error":{"kind":"unknown_method","message":"unknown method `méthod`"}}"##,
    ),
];

/// Lines too long to write out, with their replies: one nested a level
/// past the parse depth cap, one with a point more than `MAX_POINTS`.
fn generated() -> Vec<(String, &'static str)> {
    vec![
        (
            format!(
                r#"{{"id":26,"method":"sim","params":{{"x":{}{}}}}}"#,
                "[".repeat(129),
                "]".repeat(129)
            ),
            r#"{"id":null,"ok":false,"error":{"kind":"parse","message":"invalid JSON: nesting deeper than 128 levels at byte 164"}}"#,
        ),
        (
            format!(
                r#"{{"id":26,"method":"sim","params":{{"points":[{}{{}}]}}}}"#,
                "{},".repeat(1024)
            ),
            r#"{"id":26,"ok":false,"error":{"kind":"bad_request","message":"`points` must hold 1..=1024 entries, got 1025"}}"#,
        ),
    ]
}

fn corpus() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PINS.iter().map(|&(l, r)| (l.to_owned(), r)).collect();
    all.extend(generated());
    all
}

/// Ask `addr` each corpus line in turn, one reply per request.
fn check_over_tcp(addr: &str, what: &str) {
    let mut c = Client::connect(addr).expect("connect");
    for (line, want) in corpus() {
        let got = c.call_raw(&line).expect("reply");
        assert_eq!(got, want, "{what} reply to {line}");
    }
}

#[test]
fn serial_engine_gives_the_pinned_replies() {
    let engine = Engine::new(true, 1).expect("engine");
    for (line, want) in corpus() {
        assert_eq!(engine.answer_line(&line), want, "reply to {line}");
    }
}

#[test]
fn daemon_gives_the_pinned_replies() {
    let server = Server::bind(ServerConfig {
        quick: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.spawn();
    check_over_tcp(&addr, "daemon");
    handle.shutdown();
}

#[test]
fn two_shard_router_gives_the_pinned_replies() {
    let router = Router::bind(RouterConfig {
        shards: 2,
        serve_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_serve"))),
        quick: true,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("router addr").to_string();
    let handle = router.spawn();
    check_over_tcp(&addr, "router");
    handle.shutdown();
}

/// A line with bytes that are not UTF-8 is read lossily (each bad byte
/// becomes U+FFFD) and answered like the repaired line; a parse error
/// names the first byte of U+FFFD's encoding, 0xEF, as `ï`.
#[test]
fn a_line_with_invalid_utf8_is_answered_as_its_lossy_text() {
    let server = Server::bind(ServerConfig {
        quick: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = server.spawn();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |bytes: &[u8]| {
        stream.write_all(bytes).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply
    };
    assert_eq!(
        ask(b"{\"id\":1,\"method\":\"m\xffx\"}\n"),
        "{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"unknown_method\",\"message\":\"unknown method `m\u{fffd}x`\"}}\n"
    );
    assert_eq!(
        ask(b"{\"id\":2,\"method\":\"sim\",\"params\":{\"app\":\"\xc3\"}}\r\n"),
        "{\"id\":2,\"ok\":false,\"error\":{\"kind\":\"bad_request\",\"message\":\"each point needs a positive `measure` window\"}}\n"
    );
    assert_eq!(
        ask(b"\xfe{\"id\":3}\n"),
        "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"parse\",\"message\":\"invalid JSON: unexpected `\u{ef}` at byte 0\"}}\n"
    );
    drop(reader);
    handle.shutdown();
}

/// A non-positive `freq_ghz` is a `bad_request`. It used to reach the
/// assertion in `CoreConfig::with_frequency`: the serial engine answered
/// `panic`, and a daemon's event loop died with no reply at all.
#[test]
fn a_non_positive_frequency_is_a_bad_request() {
    let want = |id: i64| {
        format!(
            r#"{{"id":{id},"ok":false,"error":{{"kind":"bad_request","message":"`freq_ghz` must be positive"}}}}"#
        )
    };
    let lines = [
        (
            1,
            r#"{"id":1,"method":"sim","params":{"app":"Gcc","measure":300,"freq_ghz":0}}"#,
        ),
        (
            2,
            r#"{"id":2,"method":"sim","params":{"points":[{"app":"Gcc","measure":300,"freq_ghz":-2.5}]}}"#,
        ),
    ];
    let engine = Engine::new(true, 1).expect("engine");
    for (id, line) in lines {
        assert_eq!(engine.answer_line(line), want(id));
    }
    let server = Server::bind(ServerConfig {
        quick: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.spawn();
    let mut c = Client::connect(&addr).expect("connect");
    for (id, line) in lines {
        assert_eq!(c.call_raw(line).expect("reply"), want(id));
    }
    assert!(c.stats(3).expect("the daemon still answers").is_ok());
    drop(c);
    handle.shutdown();
}
