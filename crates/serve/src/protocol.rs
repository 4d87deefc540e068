//! The newline-delimited JSON wire protocol.
//!
//! # Grammar
//!
//! One request per line, one response per line (a rendered [`Json`] value
//! never contains a raw newline). Requests:
//!
//! ```text
//! {"id": <int>, "method": "sim"|"experiment"|"planner"|"plan"|"stats"
//!                          |"telemetry",
//!  "params": <object>, "deadline_ms": <int, optional>}
//! ```
//!
//! Responses echo the request `id` (or `null` if the line was too broken
//! to carry one):
//!
//! ```text
//! {"id": <int|null>, "ok": true,  "result": <value>}
//! {"id": <int|null>, "ok": false, "error": {"kind": <str>, "message": <str>}}
//! ```
//!
//! Responses to pipelined requests may arrive out of order; clients match
//! on `id`.
//!
//! The `plan` method additionally streams zero or more *partial* lines
//! before its final response, each echoing the id and flagged explicitly:
//!
//! ```text
//! {"id": <int>, "ok": true, "partial": true, "result": <chunk>}
//! ```
//!
//! A response line without `"partial"` terminates the stream (either the
//! final `ok` result or an error). Partial lines for one id always arrive
//! in order; lines for *different* ids may interleave when requests are
//! pipelined.
//!
//! # `sim` params
//!
//! Either a single point or `{"points": [...]}`; each point is
//!
//! ```text
//! {"app": "Gcc", "design": "Base", "seed": 0, "n_cores": 1,
//!  "warmup": 5000, "measure": 4000, "freq_ghz": 3.3 (optional)}
//! ```
//!
//! `design` names a paper design point (`Base`, `TSV3D`, `M3D-Iso`,
//! `M3D-HetNaive`, `M3D-Het`, `M3D-HetAgg` for one core; `Base`, `TSV3D`,
//! `M3D-Het`, `M3D-Het-W`, `M3D-Het-2X` for several), `app` a SPEC CPU2006
//! profile (one core) or a SPLASH-style parallel profile (several).
//! `params` may also carry `"strict": true` to turn truncated
//! (livelock-capped) points into a `cap_exhausted` error instead of a
//! flagged result.
//!
//! # Error kinds
//!
//! `parse`, `bad_request`, `unknown_method`, `oversized`, `overloaded`,
//! `deadline`, `invalid`, `cap_exhausted`, `panic`, `shutdown`,
//! `aborted`, `shard_down`. The set is closed ([`ErrorKind::ALL`]) and
//! round-trips through [`ErrorKind::wire_name`] /
//! [`ErrorKind::from_wire`].

use m3d_core::experiments::registry::ExperimentError;
use m3d_core::report::Json;
use std::fmt::Write as _;

/// Hard cap on one request line, bytes (including the newline). Longer
/// lines are answered with an `oversized` error and discarded.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// Hard cap on the number of points in one `sim` request.
pub const MAX_POINTS: usize = 1024;

/// Hard cap on `warmup + measure` of one point, µops per core — bounds the
/// work one request can demand.
pub const MAX_INTERVAL_UOPS: u64 = 5_000_000;

/// A request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Evaluate simulation points through the batch engine.
    Sim,
    /// Run a registry experiment by name.
    Experiment,
    /// Return the planned design space.
    Planner,
    /// Run a Pareto design-space search, streaming partial frontiers.
    Plan,
    /// Return a live metrics snapshot.
    Stats,
    /// Return rolling-window latency telemetry and recent flight records.
    Telemetry,
}

impl Method {
    /// Every served method, in a fixed order (indexes telemetry tables).
    pub const ALL: [Method; 6] = [
        Method::Sim,
        Method::Experiment,
        Method::Planner,
        Method::Plan,
        Method::Stats,
        Method::Telemetry,
    ];

    /// Wire name → method.
    pub fn from_name(name: &str) -> Option<Method> {
        match name {
            "sim" => Some(Method::Sim),
            "experiment" => Some(Method::Experiment),
            "planner" => Some(Method::Planner),
            "plan" => Some(Method::Plan),
            "stats" => Some(Method::Stats),
            "telemetry" => Some(Method::Telemetry),
            _ => None,
        }
    }

    /// Method → wire name (also the span label).
    pub fn name(self) -> &'static str {
        match self {
            Method::Sim => "sim",
            Method::Experiment => "experiment",
            Method::Planner => "planner",
            Method::Plan => "plan",
            Method::Stats => "stats",
            Method::Telemetry => "telemetry",
        }
    }
}

/// Structured error category carried in the `error.kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    Parse,
    /// The request shape or parameters were wrong.
    BadRequest,
    /// The method name is not one of the six served.
    UnknownMethod,
    /// The request line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// The admission queue was full (backpressure).
    Overloaded,
    /// The request's deadline passed before or while its work ran.
    Deadline,
    /// The simulator rejected the configuration (typed `SimError`).
    Invalid,
    /// A strict `sim` (or an experiment) hit the livelock cap.
    CapExhausted,
    /// The handler panicked; the payload message is attached.
    Panic,
    /// The server is shutting down and no longer admits work.
    Shutdown,
    /// The client hung up while a streaming `plan` was still running, so
    /// the search stopped at the next chunk boundary. The terminating
    /// line carrying this kind is only ever "sent" to the dead
    /// connection — a live client can never observe it.
    Aborted,
    /// A shard daemon behind the router died while this request (or one
    /// of its fanned-out sub-requests) was in flight, or every shard is
    /// down. The dead shard's key slice is re-routed, so a retry reaches
    /// a live shard.
    ShardDown,
}

impl ErrorKind {
    /// Every error kind, in a fixed order — the closed set the wire
    /// names are drawn from.
    pub const ALL: [ErrorKind; 12] = [
        ErrorKind::Parse,
        ErrorKind::BadRequest,
        ErrorKind::UnknownMethod,
        ErrorKind::Oversized,
        ErrorKind::Overloaded,
        ErrorKind::Deadline,
        ErrorKind::Invalid,
        ErrorKind::CapExhausted,
        ErrorKind::Panic,
        ErrorKind::Shutdown,
        ErrorKind::Aborted,
        ErrorKind::ShardDown,
    ];

    /// The wire spelling.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownMethod => "unknown_method",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Invalid => "invalid",
            ErrorKind::CapExhausted => "cap_exhausted",
            ErrorKind::Panic => "panic",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Aborted => "aborted",
            ErrorKind::ShardDown => "shard_down",
        }
    }

    /// Wire spelling → kind; `None` for anything outside the closed set.
    /// Iterates [`ErrorKind::ALL`], so the round-trip holds by
    /// construction for every variant.
    pub fn from_wire(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.wire_name() == name)
    }
}

/// A structured wire error: a category plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Error category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }

    /// Shorthand for [`ErrorKind::BadRequest`].
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::BadRequest, message)
    }
}

impl From<&ExperimentError> for WireError {
    /// Typed experiment failures map to structured wire errors — the point
    /// of replacing the registry's stringly errors.
    fn from(e: &ExperimentError) -> Self {
        let kind = match e {
            ExperimentError::Invalid(_) => ErrorKind::Invalid,
            ExperimentError::CapExhausted { .. } => ErrorKind::CapExhausted,
            ExperimentError::Panic(_) => ErrorKind::Panic,
        };
        WireError::new(kind, e.to_string())
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client correlation id, echoed in the response.
    pub id: i64,
    /// What to do.
    pub method: Method,
    /// Method parameters (an empty object if absent).
    pub params: Json,
    /// Optional deadline, milliseconds from receipt.
    pub deadline_ms: Option<u64>,
}

/// Parse one request line. On failure, returns the id if one was readable
/// (so the error response can still be correlated) plus the error.
pub fn parse_request(line: &str) -> Result<Request, (Option<i64>, WireError)> {
    let mut v = Json::parse(line).map_err(|e| {
        (
            None,
            WireError::new(ErrorKind::Parse, format!("invalid JSON: {e}")),
        )
    })?;
    let Json::Obj(fields) = &mut v else {
        return Err((
            None,
            WireError::bad_request("request must be a JSON object"),
        ));
    };
    // Move the member `get` would find out of the parsed line instead of
    // copying it. `remove` keeps the other members in order, so the
    // lookups below find what they would have found.
    let params = fields
        .iter()
        .position(|(k, _)| k == "params")
        .map(|i| fields.remove(i).1);
    let id = match v.get("id") {
        Some(Json::Int(i)) => *i,
        Some(_) => {
            return Err((None, WireError::bad_request("`id` must be an integer")));
        }
        None => return Err((None, WireError::bad_request("`id` is required"))),
    };
    let method = match v.get("method") {
        Some(Json::Str(s)) => Method::from_name(s).ok_or_else(|| {
            (
                Some(id),
                WireError::new(ErrorKind::UnknownMethod, format!("unknown method `{s}`")),
            )
        })?,
        _ => {
            return Err((
                Some(id),
                WireError::bad_request("`method` must be a string"),
            ));
        }
    };
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(Json::Int(ms)) if *ms >= 0 => Some(*ms as u64),
        Some(_) => {
            return Err((
                Some(id),
                WireError::bad_request("`deadline_ms` must be a non-negative integer"),
            ));
        }
    };
    let params = match params {
        None => Json::Obj(Vec::new()),
        Some(p @ Json::Obj(_)) => p,
        Some(_) => {
            return Err((
                Some(id),
                WireError::bad_request("`params` must be an object"),
            ));
        }
    };
    Ok(Request {
        id,
        method,
        params,
        deadline_ms,
    })
}

/// Render a success response line (no trailing newline).
pub fn ok_line(id: i64, result: Json) -> String {
    result_line(id, "", &result)
}

/// Render a `plan` partial-result line (no trailing newline): like
/// [`ok_line`] but flagged `"partial": true`. Clients read lines for the
/// id until one arrives without the flag.
pub fn partial_line(id: i64, result: Json) -> String {
    result_line(id, r#""partial":true,"#, &result)
}

/// The `{"id":…,"ok":true,<flag>"result":…}` envelope written around
/// `result` in place: the bytes a rendered three- or four-key object
/// would have, without building that object.
fn result_line(id: i64, flag: &str, result: &Json) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(out, r#"{{"id":{id},"ok":true,{flag}"result":"#);
    result.write_compact(&mut out);
    out.push('}');
    out
}

/// Render an error response line (no trailing newline).
pub fn err_line(id: Option<i64>, e: &WireError) -> String {
    Json::obj([
        ("id", id.map(Json::from).unwrap_or(Json::Null)),
        ("ok", Json::from(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::from(e.kind.wire_name())),
                ("message", Json::from(e.message.as_str())),
            ]),
        ),
    ])
    .render_compact()
}

/// A parsed response line — the receiving-side dual of [`ok_line`],
/// [`partial_line`] and [`err_line`]. This is the **one** place response
/// lines are decoded: the typed [`Client`](crate::client::Client), the
/// shard router's upstream connections, and the wire tests all go
/// through it. `raw` keeps the exact wire bytes, so byte-fidelity
/// consumers (the router, the shard-equivalence tests) never re-render
/// what a server said.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The exact line as received (no trailing newline).
    pub raw: String,
    /// Echoed request id; `None` when the request line was too broken to
    /// carry one (`"id": null`).
    pub id: Option<i64>,
    /// `true` on a streamed `plan` partial; a response without the flag
    /// terminates its request's stream.
    pub partial: bool,
    /// The payload: the `result` value on success, the structured error
    /// otherwise.
    pub result: Result<Json, WireError>,
}

impl Response {
    /// Parse one response line. Fails (with a description, not a wire
    /// error — an unparsable *response* means the peer is not speaking
    /// the protocol) on non-JSON, a malformed envelope, or an error kind
    /// outside the closed [`ErrorKind::ALL`] set.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if !matches!(v, Json::Obj(_)) {
            return Err("response must be a JSON object".to_owned());
        }
        let id = match v.get("id") {
            Some(Json::Int(i)) => Some(*i),
            Some(Json::Null) => None,
            _ => return Err("`id` must be an integer or null".to_owned()),
        };
        let partial = matches!(v.get("partial"), Some(Json::Bool(true)));
        let result = match v.get("ok") {
            Some(Json::Bool(true)) => match v.get("result") {
                Some(r) => Ok(r.clone()),
                None => return Err("`result` missing on an ok response".to_owned()),
            },
            Some(Json::Bool(false)) => {
                let e = match v.get("error") {
                    Some(e) => e,
                    None => return Err("`error` missing on a failed response".to_owned()),
                };
                let kind = match e.get("kind") {
                    Some(Json::Str(s)) => ErrorKind::from_wire(s)
                        .ok_or_else(|| format!("unknown error kind `{s}`"))?,
                    _ => return Err("`error.kind` must be a string".to_owned()),
                };
                let message = match e.get("message") {
                    Some(Json::Str(s)) => s.clone(),
                    _ => return Err("`error.message` must be a string".to_owned()),
                };
                Err(WireError { kind, message })
            }
            _ => return Err("`ok` must be a boolean".to_owned()),
        };
        Ok(Response {
            raw: line.to_owned(),
            id,
            partial,
            result,
        })
    }

    /// Whether the response carries a result (not an error).
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The result value, if this is a success response.
    pub fn result(&self) -> Option<&Json> {
        self.result.as_ref().ok()
    }

    /// The structured error, if this is a failure response.
    pub fn error(&self) -> Option<&WireError> {
        self.result.as_ref().err()
    }
}

/// Build a request line (no trailing newline) — the client-side dual of
/// [`parse_request`], shared by `loadgen` and the tests.
pub fn request_line(id: i64, method: Method, params: Json, deadline_ms: Option<u64>) -> String {
    let mut fields = vec![
        ("id".to_owned(), Json::from(id)),
        ("method".to_owned(), Json::from(method.name())),
        ("params".to_owned(), params),
    ];
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms".to_owned(), Json::from(ms)));
    }
    Json::Obj(fields).render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let line = request_line(7, Method::Sim, Json::Obj(Vec::new()), Some(250));
        let r = parse_request(&line).expect("parses");
        assert_eq!(r.id, 7);
        assert_eq!(r.method, Method::Sim);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn parse_failures_are_categorized() {
        let (id, e) = parse_request("not json").expect_err("parse error");
        assert_eq!((id, e.kind), (None, ErrorKind::Parse));
        let (id, e) = parse_request("[1,2]").expect_err("not an object");
        assert_eq!((id, e.kind), (None, ErrorKind::BadRequest));
        let (id, e) =
            parse_request(r#"{"id":3,"method":"frobnicate"}"#).expect_err("unknown method");
        assert_eq!((id, e.kind), (Some(3), ErrorKind::UnknownMethod));
        let (id, e) =
            parse_request(r#"{"id":4,"method":"sim","deadline_ms":-1}"#).expect_err("deadline");
        assert_eq!((id, e.kind), (Some(4), ErrorKind::BadRequest));
    }

    #[test]
    fn method_names_round_trip_and_are_unique() {
        for m in Method::ALL {
            assert_eq!(
                Method::from_name(m.name()),
                Some(m),
                "method `{}` must round-trip through its wire name",
                m.name()
            );
        }
        for (i, a) in Method::ALL.iter().enumerate() {
            for b in &Method::ALL[i + 1..] {
                assert_ne!(a.name(), b.name(), "wire names must not collide");
            }
        }
        assert_eq!(Method::from_name("frobnicate"), None);
    }

    #[test]
    fn error_kinds_round_trip_and_are_unique() {
        for k in ErrorKind::ALL {
            assert_eq!(
                ErrorKind::from_wire(k.wire_name()),
                Some(k),
                "kind `{}` must round-trip through its wire name",
                k.wire_name()
            );
        }
        for (i, a) in ErrorKind::ALL.iter().enumerate() {
            for b in &ErrorKind::ALL[i + 1..] {
                assert_ne!(a.wire_name(), b.wire_name(), "wire names must not collide");
            }
        }
        assert_eq!(ErrorKind::from_wire("no_such_kind"), None);
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_line(3, Json::obj([("x", Json::from(1i64))]));
        let r = Response::parse(&ok).expect("parses");
        assert_eq!(r.raw, ok);
        assert_eq!((r.id, r.partial, r.is_ok()), (Some(3), false, true));
        assert_eq!(r.result().and_then(|v| v.get("x")), Some(&Json::from(1i64)));

        let part = partial_line(4, Json::from(7i64));
        let r = Response::parse(&part).expect("parses");
        assert_eq!((r.id, r.partial), (Some(4), true));

        let e = WireError::new(ErrorKind::ShardDown, "shard 1 died");
        let r = Response::parse(&err_line(Some(5), &e)).expect("parses");
        assert_eq!(r.id, Some(5));
        assert_eq!(r.error(), Some(&e));
        let r = Response::parse(&err_line(None, &e)).expect("parses");
        assert_eq!(r.id, None);

        assert!(Response::parse("not json").is_err());
        assert!(Response::parse(r#"{"id":1}"#).is_err(), "no `ok` flag");
        assert!(
            Response::parse(r#"{"id":1,"ok":false,"error":{"kind":"martian","message":"?"}}"#)
                .is_err(),
            "error kinds are a closed set"
        );
    }

    #[test]
    fn error_lines_echo_known_ids() {
        let e = WireError::new(ErrorKind::Overloaded, "queue full");
        assert_eq!(
            err_line(Some(9), &e),
            r#"{"id":9,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
        assert!(err_line(None, &e).starts_with(r#"{"id":null,"#));
    }
}
