//! A panic while answering a memo-cache hit on the daemon's event-loop
//! thread is answered with the `panic` kind, and the loop keeps serving;
//! `--oneshot` (`Engine::answer_lines`) runs behind the same guard.
//!
//! This is a separate test binary on purpose: the injected-panic hook is
//! process-global, and the wire tests arm it with a seed of their own.

use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::engine::inject_sim_panic_seed;
use m3d_serve::protocol::{request_line, Method};
use m3d_serve::{Engine, Server, ServerConfig};

#[test]
fn panicking_inline_hit_is_answered_and_the_loop_survives() {
    const SEED: u64 = 0x1A11_BAD0;
    let params = Json::obj([
        ("app", Json::from("Gcc")),
        ("seed", Json::from(SEED)),
        ("warmup", Json::from(1_000u64)),
        ("measure", Json::from(800u64)),
    ]);
    // Warm the point before arming the hook: the cache is process-wide.
    let engine = Engine::new(true, 1).expect("engine");
    let warm = engine.answer_line(&request_line(1, Method::Sim, params.clone(), None));
    assert!(warm.contains(r#""ok":true"#), "{warm}");

    // Queue cap 0: only the inline path can answer the hit.
    let server = Server::bind(ServerConfig {
        quick: true,
        queue_cap: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.spawn();
    let mut c = Client::connect(&addr).expect("connect");

    inject_sim_panic_seed(Some(SEED));
    let resp = c.sim(2, params.clone()).expect("a reply, not a dead loop");
    // The serial `--oneshot` path answers the same panic, then the next
    // line, in the same process.
    let oneshot = engine.answer_lines(&request_line(5, Method::Sim, params.clone(), None));
    let next = engine.answer_lines(&request_line(6, Method::Stats, Json::Obj(Vec::new()), None));
    inject_sim_panic_seed(None);
    assert_eq!(oneshot.len(), 1, "{oneshot:?}");
    assert!(
        oneshot[0].starts_with(r#"{"id":5,"ok":false,"error":{"kind":"panic""#),
        "{}",
        oneshot[0]
    );
    assert_eq!(next.len(), 1, "{next:?}");
    assert!(next[0].starts_with(r#"{"id":6,"ok":true"#), "{}", next[0]);
    assert_eq!(
        resp.error().map(|e| e.kind.wire_name()),
        Some("panic"),
        "{}",
        resp.raw
    );
    assert_eq!(resp.id, Some(2));

    // The same connection still gets answers: the loop thread is alive.
    let stats = c.stats(3).expect("stats after the panic");
    assert!(stats.is_ok(), "{}", stats.raw);
    let resp = c.sim(4, params).expect("the hit again, disarmed");
    assert!(resp.is_ok(), "{}", resp.raw);

    handle.shutdown();
}
