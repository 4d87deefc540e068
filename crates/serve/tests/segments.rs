//! What a request and its reply look like on the wire, and what the event
//! loop's read rule guarantees.
//!
//! A request line leaves [`Client`] in one write and so crosses loopback
//! as one TCP data segment; a daemon's inline reply does the same the
//! other way. Both are counted with `TCP_INFO`'s `tcpi_data_segs_in`.
//!
//! The event loop stops reading a connection at the first short read and
//! leaves whatever arrives later to the next level-triggered readiness
//! event. The other tests pin what that rule must not lose: more than one
//! read chunk of lines buffered when the drain starts, a line that arrives
//! in two pieces, and an upstream whose last reply and EOF arrive
//! together.

use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::protocol::{request_line, Method, Response};
use m3d_serve::{Router, RouterConfig, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

extern "C" {
    fn getsockopt(
        fd: i32,
        level: i32,
        name: i32,
        value: *mut std::ffi::c_void,
        len: *mut u32,
    ) -> i32;
}

const IPPROTO_TCP: i32 = 6;
const TCP_INFO: i32 = 11;
/// Byte offset of `tcpi_data_segs_in` in `struct tcp_info`
/// (`linux/tcp.h`).
const DATA_SEGS_IN_OFFSET: usize = 152;

/// How many segments carrying data `stream` has received so far.
fn data_segs_in(stream: &TcpStream) -> u32 {
    let mut info = [0u8; 256];
    let mut len = info.len() as u32;
    // SAFETY: `info` is writable for `len` bytes, and the kernel writes at
    // most `len` bytes and stores the length it wrote back into `len`.
    let rc = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_INFO,
            info.as_mut_ptr().cast(),
            &mut len,
        )
    };
    assert_eq!(
        rc,
        0,
        "getsockopt(TCP_INFO): {}",
        std::io::Error::last_os_error()
    );
    assert!(
        len as usize >= DATA_SEGS_IN_OFFSET + 4,
        "tcp_info is {len} bytes"
    );
    let at = DATA_SEGS_IN_OFFSET;
    u32::from_ne_bytes(info[at..at + 4].try_into().expect("four bytes"))
}

fn start() -> (String, ServerHandle) {
    let server = Server::bind(ServerConfig {
        quick: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, server.spawn())
}

/// The `"id"` of a request or response line.
fn id_of(line: &str) -> i64 {
    match Json::parse(line).ok().as_ref().and_then(|j| j.get("id")) {
        Some(Json::Int(id)) => *id,
        _ => panic!("no id in {line}"),
    }
}

#[test]
fn client_sends_each_request_line_as_one_segment() {
    const CALLS: u32 = 50;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    // A stand-in server that answers every line and then reports how many
    // data segments its side of the connection received.
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let mut line = String::new();
        for _ in 0..CALLS {
            line.clear();
            reader.read_line(&mut line).expect("request line");
            let reply = format!("{{\"id\":{},\"ok\":true,\"result\":{{}}}}\n", id_of(&line));
            writer.write_all(reply.as_bytes()).expect("reply");
        }
        data_segs_in(&writer)
    });

    let mut c = Client::connect(&addr).expect("connect");
    for id in 0..CALLS as i64 {
        let line = request_line(id, Method::Stats, Json::Obj(Vec::new()), None);
        let reply = c.call_raw(&line).expect("reply");
        assert_eq!(id_of(&reply), id);
    }
    let segs = server.join().expect("stand-in server");
    assert_eq!(
        segs, CALLS,
        "{CALLS} request lines arrived in {segs} data segments"
    );
}

#[test]
fn inline_hit_replies_arrive_as_one_segment_each() {
    const HITS: u32 = 50;
    let (addr, handle) = start();
    let line = request_line(
        9,
        Method::Sim,
        Json::obj([
            ("app", Json::from("Gcc")),
            ("design", Json::from("Base")),
            ("seed", Json::from(0x5E65_0001u64)),
            ("warmup", Json::from(1_000u64)),
            ("measure", Json::from(800u64)),
        ]),
        None,
    );
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let probe = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let request = format!("{line}\n");
    let mut round_trip = || {
        writer.write_all(request.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply
    };
    // The first request simulates the point; every later one is a hit.
    let first = round_trip();
    assert!(first.contains(r#""ok":true"#), "{first}");

    let before = data_segs_in(&probe);
    for _ in 0..HITS {
        assert_eq!(round_trip(), first, "a hit answers the simulated bytes");
    }
    let segs = data_segs_in(&probe) - before;
    handle.shutdown();
    assert_eq!(
        segs, HITS,
        "{HITS} hit replies arrived in {segs} data segments"
    );
}

#[test]
fn more_than_a_read_chunk_of_lines_buffered_at_shutdown_all_get_replies() {
    // 256 lines of ~170 bytes: about 43 KiB, more than two of the event
    // loop's 16 KiB read chunks. They leave in one write just before the
    // stop, so most of them are still in the daemon's socket when its
    // drain takes the final read, and that read must not stop at the
    // first chunk.
    const LINES: i64 = 256;
    let (addr, handle) = start();
    let mut c = Client::connect(&addr).expect("connect");
    let pad = "p".repeat(120);
    let batch: Vec<String> = (0..LINES)
        .map(|id| format!(r#"{{"id":{id},"method":"stats","params":{{"pad":"{pad}"}}}}"#))
        .collect();
    let batch = batch.join("\n");
    assert!(batch.len() > 2 * 16 * 1024, "{} bytes", batch.len());
    c.send_raw(&batch).expect("send the batch");
    // The drain waits for the replies to flush, so they are read while it
    // runs.
    let stop = std::thread::spawn(move || handle.shutdown());

    let mut ids = Vec::new();
    for _ in 0..LINES {
        let resp = c.recv().expect("every buffered line is answered");
        assert!(resp.is_ok(), "{}", resp.raw);
        ids.extend(resp.id);
    }
    ids.sort_unstable();
    assert_eq!(ids, (0..LINES).collect::<Vec<_>>());
    assert!(c.recv_raw().is_err(), "then the connection closes");
    stop.join().expect("shutdown");
}

#[test]
fn a_line_written_in_two_pieces_is_answered_once() {
    let (addr, handle) = start();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(br#"{"id":1,"method":"stats""#)
        .expect("first piece");
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(b"}\n").expect("second piece");

    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    let resp = Response::parse(reply.trim_end()).expect("parses");
    assert!(resp.is_ok(), "{reply}");
    assert_eq!(resp.id, Some(1));

    // Nothing else follows: the first piece alone was not taken for a
    // line.
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("read timeout");
    let mut more = String::new();
    match reader.read_line(&mut more) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a second reply arrived: {other:?} {more:?}"),
    }
    handle.shutdown();
}

#[test]
fn an_upstream_reply_that_arrives_with_eof_is_relayed_then_the_upstream_closed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let shard_addr = listener.local_addr().expect("local addr").to_string();
    // A stand-in shard: it answers one request and sends EOF right behind
    // the reply, then waits for the router to close its end.
    let shard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("request line");
        let reply = format!(
            "{{\"id\":{},\"ok\":true,\"result\":{{\"from\":\"stand-in\"}}}}\n",
            id_of(&line)
        );
        stream.write_all(reply.as_bytes()).expect("reply");
        stream.shutdown(Shutdown::Write).expect("send EOF");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).map(|_| rest)
    });

    let router = Router::bind(RouterConfig {
        connect: vec![shard_addr],
        quick: true,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("router addr").to_string();
    let handle = router.spawn();
    let mut c = Client::connect(&addr).expect("connect");
    let reply = c
        .call_raw(&request_line(
            7,
            Method::Planner,
            Json::Obj(Vec::new()),
            None,
        ))
        .expect("relayed reply");
    assert_eq!(reply, r#"{"id":7,"ok":true,"result":{"from":"stand-in"}}"#);

    let rest = shard.join().expect("stand-in shard");
    assert_eq!(
        rest.expect("the router closes the upstream after its EOF"),
        b"",
        "the router sent nothing more upstream"
    );
    drop(c);
    handle.shutdown();
}
