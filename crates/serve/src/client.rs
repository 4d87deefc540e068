//! A typed blocking client for the NDJSON protocol, shared by `loadgen`
//! and the wire tests.
//!
//! Every reply comes back as a [`Response`] — raw wire bytes plus the
//! parsed id/partial flag and a `Result<Json, WireError>` payload — so
//! response decoding lives in exactly one place
//! ([`Response::parse`]). The per-method wrappers ([`Client::sim`],
//! [`Client::stats`], ...) cover the one-request-one-reply case;
//! [`Client::plan`] returns a streaming iterator of typed partials; the
//! low-level [`Client::send`]/[`Client::recv`] pair stays available for
//! callers that pipeline and correlate ids themselves.

use crate::protocol::{request_line, Method, Response};
use m3d_core::report::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// What a typed client call can fail with: the transport broke, or the
/// peer sent a line that is not a protocol response (which means it is
/// not a serve daemon — the protocol itself reports failures in-band as
/// `Ok(Response)` with an error payload).
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or the server closed the connection.
    Io(std::io::Error),
    /// The peer's line did not parse as a response.
    Protocol {
        /// The offending line, verbatim.
        line: String,
        /// Why it did not parse.
        reason: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol { line, reason } => {
                write!(f, "unparsable response `{line}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing line and its `\n`, kept between sends so a request
    /// costs no allocation on the write side.
    line: Vec<u8>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:4500`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            line: Vec::new(),
        })
    }

    /// Send one raw line without waiting for a response.
    ///
    /// The line and its `\n` leave in one write. The socket is
    /// `TCP_NODELAY`, so a separate write for the newline would go out as
    /// a second TCP segment, and the server's kernel would receive two
    /// segments for every request.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.line.clear();
        self.line.extend_from_slice(line.as_bytes());
        self.line.push(b'\n');
        self.writer.write_all(&self.line)
    }

    /// Send one request without waiting for the response (pipelining).
    pub fn send(
        &mut self,
        id: i64,
        method: Method,
        params: Json,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<()> {
        self.send_raw(&request_line(id, method, params, deadline_ms))
    }

    /// Read one raw response line (without the trailing newline) — for
    /// byte-fidelity comparisons; everything else wants [`Client::recv`].
    pub fn recv_raw(&mut self) -> std::io::Result<String> {
        let mut out = String::new();
        let n = self.reader.read_line(&mut out)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while out.ends_with('\n') || out.ends_with('\r') {
            out.pop();
        }
        Ok(out)
    }

    /// Read and parse one response (for callers that pipelined several
    /// requests before reading; match replies on [`Response::id`]).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let line = self.recv_raw()?;
        Response::parse(&line).map_err(|reason| ClientError::Protocol { line, reason })
    }

    /// Send one raw line and read one raw response line.
    pub fn call_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.send_raw(line)?;
        self.recv_raw()
    }

    /// Send one request and read its (single) typed response.
    pub fn call(
        &mut self,
        id: i64,
        method: Method,
        params: Json,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.send(id, method, params, deadline_ms)?;
        self.recv()
    }

    /// Evaluate simulation points (`sim`).
    pub fn sim(&mut self, id: i64, params: Json) -> Result<Response, ClientError> {
        self.call(id, Method::Sim, params, None)
    }

    /// Run a registry experiment by name (`experiment`).
    pub fn experiment(&mut self, id: i64, name: &str) -> Result<Response, ClientError> {
        let params = Json::obj([("name", Json::from(name))]);
        self.call(id, Method::Experiment, params, None)
    }

    /// Fetch the planned design space (`planner`).
    pub fn planner(&mut self, id: i64) -> Result<Response, ClientError> {
        self.call(id, Method::Planner, Json::Obj(Vec::new()), None)
    }

    /// Fetch a live metrics snapshot (`stats`).
    pub fn stats(&mut self, id: i64) -> Result<Response, ClientError> {
        self.call(id, Method::Stats, Json::Obj(Vec::new()), None)
    }

    /// Fetch rolling-window latency telemetry (`telemetry`).
    pub fn telemetry(&mut self, id: i64, params: Json) -> Result<Response, ClientError> {
        self.call(id, Method::Telemetry, params, None)
    }

    /// Start a `plan` design-space search and stream its typed partials.
    /// The iterator yields every partial and then the terminating
    /// response (the one without the `partial` flag), after which it
    /// ends. Assumes no other request is in flight on this connection.
    pub fn plan(
        &mut self,
        id: i64,
        params: Json,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<PlanStream<'_>> {
        self.send(id, Method::Plan, params, deadline_ms)?;
        Ok(PlanStream {
            client: self,
            done: false,
        })
    }
}

/// Streaming iterator over one `plan` request's response lines — zero or
/// more partials, then the terminating response. Ends after the
/// terminating line (or after yielding an error).
pub struct PlanStream<'a> {
    client: &'a mut Client,
    done: bool,
}

impl Iterator for PlanStream<'_> {
    type Item = Result<Response, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.client.recv() {
            Ok(resp) => {
                self.done = !resp.partial;
                Some(Ok(resp))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}
