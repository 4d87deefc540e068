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
//!  "warmup": 5000, "measure": 4000, "freq_ghz": 3.3 (optional, positive)}
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

use m3d_core::configs::{DesignPoint, MulticoreDesign};
use m3d_core::experiments::registry::ExperimentError;
use m3d_core::report::{Json, JsonReader, Token};
use m3d_uarch::batch::{SimInterval, SimPoint};
use m3d_workloads::parallel::parallel_profile;
use m3d_workloads::spec::spec_profile;
use std::borrow::Cow;
use std::ops::Range;

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
    /// Method parameters.
    pub params: Params,
    /// Optional deadline, milliseconds from receipt.
    pub deadline_ms: Option<u64>,
}

/// A request's parameters.
#[derive(Debug, Clone)]
pub enum Params {
    /// A `sim`'s points, read straight from the line into simulation
    /// points, or the error its params earn.
    Sim(Result<SimRequest, WireError>),
    /// The `params` object of any other method (an empty object if
    /// absent).
    Tree(Json),
}

/// A parsed `sim` request: the point list plus the strictness flag.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Points to evaluate, in request order.
    pub points: Vec<SimPoint>,
    /// Fail with `cap_exhausted` if any point hits the livelock cap.
    pub strict: bool,
}

/// Parse one request line. On failure, returns the id if one was readable
/// (so the error response can still be correlated) plus the error.
///
/// The line is read once with [`JsonReader`], keeping the first
/// occurrence of each member as [`Json::get`] would find it: a `sim`'s
/// params go straight into its points, any other method's into a
/// [`Json`] tree. Nothing is checked until the whole line is known to be
/// JSON, and the checks run in a fixed order (`id`, `method`,
/// `deadline_ms`, `params`, then a `sim`'s `strict`, `points` and each
/// point's members), so which error a line earns does not depend on the
/// order of its members.
pub fn parse_request(line: &str) -> Result<Request, (Option<i64>, WireError)> {
    let parse = |e: String| {
        (
            None,
            WireError::new(ErrorKind::Parse, format!("invalid JSON: {e}")),
        )
    };
    let Some(env) = read_envelope(line).map_err(parse)? else {
        return Err((
            None,
            WireError::bad_request("request must be a JSON object"),
        ));
    };
    let id = match env.id {
        Some(Val::Int(i)) => i,
        Some(_) => {
            return Err((None, WireError::bad_request("`id` must be an integer")));
        }
        None => return Err((None, WireError::bad_request("`id` is required"))),
    };
    let method = match &env.method {
        Some(Val::Str(s)) => Method::from_name(s).ok_or_else(|| {
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
    let deadline_ms = match env.deadline_ms {
        None | Some(Val::Null) => None,
        Some(Val::Int(ms)) if ms >= 0 => Some(ms as u64),
        Some(_) => {
            return Err((
                Some(id),
                WireError::bad_request("`deadline_ms` must be a non-negative integer"),
            ));
        }
    };
    let params = match env.params {
        None if method == Method::Sim => Params::Sim(sim_request(&SimFields::default())),
        None => Params::Tree(Json::Obj(Vec::new())),
        Some((_, ParamsRead::NotObject)) => {
            return Err((
                Some(id),
                WireError::bad_request("`params` must be an object"),
            ));
        }
        Some((_, ParamsRead::Sim(fields))) => Params::Sim(sim_request(&fields)),
        // The member came before `method`, or the method is not `sim`:
        // read its text again, now that the method is known. The text
        // was read whole once, so reading it again cannot fail.
        Some((at, ParamsRead::Later)) => {
            let text = &line[at];
            if method == Method::Sim {
                let mut r = JsonReader::new(text);
                r.next_token().map_err(parse)?;
                Params::Sim(sim_request(&read_sim_object(&mut r, true).map_err(parse)?))
            } else {
                Params::Tree(Json::parse(text).map_err(parse)?)
            }
        }
    };
    Ok(Request {
        id,
        method,
        params,
        deadline_ms,
    })
}

/// A member value as the request reader keeps it: a scalar whole, a
/// string borrowed from the line unless it holds escapes, an array or an
/// object only as what it is.
#[derive(Debug, Clone, PartialEq)]
enum Val<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(Cow<'a, str>),
    Composite,
}

impl<'a> Val<'a> {
    /// Read one whole value.
    fn read(r: &mut JsonReader<'a>) -> Result<Val<'a>, String> {
        Ok(match r.next_token()? {
            Token::Null => Val::Null,
            Token::Bool(b) => Val::Bool(b),
            Token::Int(i) => Val::Int(i),
            Token::Num(v) => Val::Num(v),
            Token::Str(s) => Val::Str(s),
            _ => {
                r.skip_container()?;
                Val::Composite
            }
        })
    }
}

/// Read the value of a member named like `slot` into it, unless an
/// earlier member of that name already filled it: the first occurrence
/// wins, as with [`Json::get`].
fn first<'a>(slot: &mut Option<Val<'a>>, r: &mut JsonReader<'a>) -> Result<(), String> {
    if slot.is_some() {
        r.skip_value()
    } else {
        *slot = Some(Val::read(r)?);
        Ok(())
    }
}

/// The members of a request line that its reply depends on.
#[derive(Debug, Default)]
struct Envelope<'a> {
    id: Option<Val<'a>>,
    method: Option<Val<'a>>,
    deadline_ms: Option<Val<'a>>,
    /// Where the value of the first `params` member lies, and what was
    /// read of it.
    params: Option<(Range<usize>, ParamsRead<'a>)>,
}

/// What the envelope reader made of a `params` value.
///
/// Unboxed on purpose: one lives on the stack per request line, and a box
/// would cost the memo-hit path an allocation.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum ParamsRead<'a> {
    /// Not an object.
    NotObject,
    /// An object read as a `sim`'s params: `method` was already known to
    /// be `sim`.
    Sim(SimFields<'a>),
    /// An object, read once the method is known.
    Later,
}

/// Read a whole request line; `Ok(None)` when it is JSON but not an
/// object.
fn read_envelope(line: &str) -> Result<Option<Envelope<'_>>, String> {
    let mut r = JsonReader::new(line);
    let mut env = Envelope::default();
    match r.next_token()? {
        Token::ObjStart => {}
        t => {
            if t == Token::ArrStart {
                r.skip_container()?;
            }
            r.end()?;
            return Ok(None);
        }
    }
    while let Token::Key(k) = r.next_token()? {
        match &*k {
            "id" => first(&mut env.id, &mut r)?,
            "method" => first(&mut env.method, &mut r)?,
            "deadline_ms" => first(&mut env.deadline_ms, &mut r)?,
            "params" if env.params.is_none() => {
                let sim = matches!(&env.method, Some(Val::Str(m)) if m == "sim");
                let start = r.pos();
                let read = match r.next_token()? {
                    Token::ObjStart if sim => ParamsRead::Sim(read_sim_object(&mut r, true)?),
                    Token::ObjStart => {
                        r.skip_container()?;
                        ParamsRead::Later
                    }
                    Token::ArrStart => {
                        r.skip_container()?;
                        ParamsRead::NotObject
                    }
                    _ => ParamsRead::NotObject,
                };
                env.params = Some((start..r.pos(), read));
            }
            _ => r.skip_value()?,
        }
    }
    r.end()?;
    Ok(Some(env))
}

/// The members of a `sim`'s params object, or of one `points` entry, that
/// its points depend on (first occurrences).
#[derive(Debug, Default)]
struct SimFields<'a> {
    app: Option<Val<'a>>,
    design: Option<Val<'a>>,
    n_cores: Option<Val<'a>>,
    seed: Option<Val<'a>>,
    warmup: Option<Val<'a>>,
    measure: Option<Val<'a>>,
    freq_ghz: Option<Val<'a>>,
    /// Params level only.
    strict: Option<Val<'a>>,
    /// Params level only.
    points: Option<Points<'a>>,
}

/// A `points` member as read.
#[derive(Debug)]
enum Points<'a> {
    /// An array of `len` entries; the first [`MAX_POINTS`] are kept (a
    /// non-object entry has no members).
    Entries {
        kept: Vec<SimFields<'a>>,
        len: usize,
    },
    /// Anything but an array.
    NotArray,
}

/// Read the members of the object just opened in `r`: a `sim`'s params
/// (`top`, where `strict` and `points` count too) or one `points` entry.
fn read_sim_object<'a>(r: &mut JsonReader<'a>, top: bool) -> Result<SimFields<'a>, String> {
    let mut f = SimFields::default();
    while let Token::Key(k) = r.next_token()? {
        let slot = match &*k {
            "app" => &mut f.app,
            "design" => &mut f.design,
            "n_cores" => &mut f.n_cores,
            "seed" => &mut f.seed,
            "warmup" => &mut f.warmup,
            "measure" => &mut f.measure,
            "freq_ghz" => &mut f.freq_ghz,
            "strict" if top => &mut f.strict,
            "points" if top && f.points.is_none() => {
                f.points = Some(read_points(r)?);
                continue;
            }
            _ => {
                r.skip_value()?;
                continue;
            }
        };
        first(slot, r)?;
    }
    Ok(f)
}

/// Read the value of a `points` member.
fn read_points<'a>(r: &mut JsonReader<'a>) -> Result<Points<'a>, String> {
    match r.next_token()? {
        Token::ArrStart => {}
        Token::ObjStart => {
            r.skip_container()?;
            return Ok(Points::NotArray);
        }
        _ => return Ok(Points::NotArray),
    }
    let (mut kept, mut len) = (Vec::new(), 0);
    loop {
        let entry = match r.next_token()? {
            Token::ArrEnd => return Ok(Points::Entries { kept, len }),
            Token::ObjStart => read_sim_object(r, false)?,
            Token::ArrStart => {
                r.skip_container()?;
                SimFields::default()
            }
            _ => SimFields::default(),
        };
        len += 1;
        if kept.len() < MAX_POINTS {
            kept.push(entry);
        }
    }
}

/// Check a `sim`'s params (a single point, or `{"points": [...]}`).
fn sim_request(f: &SimFields<'_>) -> Result<SimRequest, WireError> {
    let strict = match f.strict {
        None | Some(Val::Null) => false,
        Some(Val::Bool(b)) => b,
        Some(_) => return Err(WireError::bad_request("`strict` must be a boolean")),
    };
    let points = match &f.points {
        Some(Points::Entries { kept, len }) => {
            if *len == 0 || *len > MAX_POINTS {
                return Err(WireError::bad_request(format!(
                    "`points` must hold 1..={MAX_POINTS} entries, got {len}"
                )));
            }
            kept.iter().map(sim_point).collect::<Result<_, _>>()?
        }
        Some(Points::NotArray) => return Err(WireError::bad_request("`points` must be an array")),
        None => vec![sim_point(f)?],
    };
    Ok(SimRequest { points, strict })
}

fn non_negative(v: &Option<Val<'_>>, key: &str) -> Result<Option<u64>, WireError> {
    match v {
        None | Some(Val::Null) => Ok(None),
        Some(Val::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(WireError::bad_request(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

/// Check one point's members. The profile is borrowed from the
/// process-wide table, not copied.
fn sim_point(p: &SimFields<'_>) -> Result<SimPoint, WireError> {
    let app: &str = match &p.app {
        Some(Val::Str(s)) => s,
        _ => return Err(WireError::bad_request("each point needs a string `app`")),
    };
    let design: &str = match &p.design {
        None | Some(Val::Null) => "Base",
        Some(Val::Str(s)) => s,
        Some(_) => return Err(WireError::bad_request("`design` must be a string")),
    };
    let n_cores = non_negative(&p.n_cores, "n_cores")?.unwrap_or(1) as usize;
    if n_cores == 0 {
        return Err(WireError::bad_request("`n_cores` must be at least 1"));
    }
    let seed = non_negative(&p.seed, "seed")?.unwrap_or(0);
    let warmup = non_negative(&p.warmup, "warmup")?.unwrap_or(0);
    let measure = match non_negative(&p.measure, "measure")? {
        Some(m) if m > 0 => m,
        _ => {
            return Err(WireError::bad_request(
                "each point needs a positive `measure` window",
            ));
        }
    };
    if warmup + measure > MAX_INTERVAL_UOPS {
        return Err(WireError::bad_request(format!(
            "warmup + measure exceeds the {MAX_INTERVAL_UOPS} µop per-point cap"
        )));
    }
    let (profile, mut config) = if n_cores == 1 {
        let profile = spec_profile(app)
            .ok_or_else(|| WireError::bad_request(format!("unknown single-core app `{app}`")))?;
        let dp = DesignPoint::ALL
            .iter()
            .find(|d| d.label() == design)
            .ok_or_else(|| {
                WireError::bad_request(format!("unknown single-core design `{design}`"))
            })?;
        (profile, dp.core_config())
    } else {
        let profile = parallel_profile(app)
            .ok_or_else(|| WireError::bad_request(format!("unknown parallel app `{app}`")))?;
        let md = MulticoreDesign::ALL
            .iter()
            .find(|d| d.label() == design)
            .ok_or_else(|| {
                WireError::bad_request(format!("unknown multicore design `{design}`"))
            })?;
        (profile, md.core_config())
    };
    let freq_ghz = match p.freq_ghz {
        None | Some(Val::Null) => None,
        Some(Val::Num(f)) => Some(f),
        Some(Val::Int(i)) => Some(i as f64),
        Some(_) => return Err(WireError::bad_request("`freq_ghz` must be a number")),
    };
    if let Some(f) = freq_ghz {
        // Checked here, not left to the assertion in `with_frequency`:
        // admission runs on the event loop, outside any panic guard.
        if f.is_nan() || f <= 0.0 {
            return Err(WireError::bad_request("`freq_ghz` must be positive"));
        }
        config = config.with_frequency(f);
    }
    Ok(SimPoint {
        config,
        profile: Cow::Borrowed(profile),
        seed,
        n_cores,
        interval: SimInterval { warmup, measure },
    })
}

/// Render a success response line (no trailing newline).
pub fn ok_line(id: i64, result: Json) -> String {
    result_line(id, "", |out| result.write_compact(out))
}

/// Render a `plan` partial-result line (no trailing newline): like
/// [`ok_line`] but flagged `"partial": true`. Clients read lines for the
/// id until one arrives without the flag.
pub fn partial_line(id: i64, result: Json) -> String {
    result_line(id, r#""partial":true,"#, |out| result.write_compact(out))
}

/// The `{"id":…,"ok":true,<flag>"result":…}` envelope written in place
/// around the result `write_result` appends: the bytes a rendered three-
/// or four-key object would have, without building that object.
pub(crate) fn result_line(id: i64, flag: &str, write_result: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(r#"{"id":"#);
    Json::Int(id).write_compact(&mut out);
    out.push_str(r#","ok":true,"#);
    out.push_str(flag);
    out.push_str(r#""result":"#);
    write_result(&mut out);
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
