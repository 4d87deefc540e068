//! The request extraction as it was before the daemon read request lines
//! with `JsonReader`: the recursive-descent parser that built a whole
//! `Json` tree for every line, and the tree-walking `parse_request`,
//! `parse_sim_params` and `parse_sim_point`. Kept as test reference code
//! only: `reader_equiv.rs` checks that the production reader gives every
//! line the outcome this code gives it. One check differs from the old
//! code, as it does in the reader: a non-positive `freq_ghz` is a
//! `bad_request`, where the old code panicked.

use m3d_core::configs::{DesignPoint, MulticoreDesign};
use m3d_core::report::{Json, MAX_PARSE_DEPTH};
use m3d_serve::protocol::{
    ErrorKind, Method, SimRequest, WireError, MAX_INTERVAL_UOPS, MAX_POINTS,
};
use m3d_uarch::batch::{SimInterval, SimPoint};
use m3d_workloads::parallel::parallel_by_name;
use m3d_workloads::spec::spec_by_name;
use std::borrow::Cow;

/// What a request line parses to, before a `sim`'s params are checked.
pub struct RefRequest {
    pub id: i64,
    pub method: Method,
    pub params: Json,
    pub deadline_ms: Option<u64>,
}

/// Parse a JSON document with the recursive-descent parser.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Parse one request line into a tree-backed request.
pub fn parse_request(line: &str) -> Result<RefRequest, (Option<i64>, WireError)> {
    let mut v = parse_json(line).map_err(|e| {
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
    Ok(RefRequest {
        id,
        method,
        params,
        deadline_ms,
    })
}

/// Parse `sim` params (a single point object or `{"points": [...]}`).
pub fn parse_sim_params(params: &Json) -> Result<SimRequest, WireError> {
    let strict = match params.get("strict") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(WireError::bad_request("`strict` must be a boolean")),
    };
    let points: Vec<SimPoint> = match params.get("points") {
        Some(Json::Arr(items)) => {
            if items.is_empty() || items.len() > MAX_POINTS {
                return Err(WireError::bad_request(format!(
                    "`points` must hold 1..={MAX_POINTS} entries, got {}",
                    items.len()
                )));
            }
            items
                .iter()
                .map(parse_sim_point)
                .collect::<Result<_, _>>()?
        }
        Some(_) => return Err(WireError::bad_request("`points` must be an array")),
        None => vec![parse_sim_point(params)?],
    };
    Ok(SimRequest { points, strict })
}

fn get_u64(obj: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(WireError::bad_request(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

fn parse_sim_point(p: &Json) -> Result<SimPoint, WireError> {
    let app = match p.get("app") {
        Some(Json::Str(s)) => s.as_str(),
        _ => return Err(WireError::bad_request("each point needs a string `app`")),
    };
    let design = match p.get("design") {
        None | Some(Json::Null) => "Base",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(WireError::bad_request("`design` must be a string")),
    };
    let n_cores = get_u64(p, "n_cores")?.unwrap_or(1) as usize;
    if n_cores == 0 {
        return Err(WireError::bad_request("`n_cores` must be at least 1"));
    }
    let seed = get_u64(p, "seed")?.unwrap_or(0);
    let warmup = get_u64(p, "warmup")?.unwrap_or(0);
    let measure = match get_u64(p, "measure")? {
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
        let profile = spec_by_name(app)
            .ok_or_else(|| WireError::bad_request(format!("unknown single-core app `{app}`")))?;
        let dp = DesignPoint::ALL
            .iter()
            .find(|d| d.label() == design)
            .ok_or_else(|| {
                WireError::bad_request(format!("unknown single-core design `{design}`"))
            })?;
        (profile, dp.core_config())
    } else {
        let profile = parallel_by_name(app)
            .ok_or_else(|| WireError::bad_request(format!("unknown parallel app `{app}`")))?;
        let md = MulticoreDesign::ALL
            .iter()
            .find(|d| d.label() == design)
            .ok_or_else(|| {
                WireError::bad_request(format!("unknown multicore design `{design}`"))
            })?;
        (profile, md.core_config())
    };
    let freq_ghz = match p.get("freq_ghz") {
        None | Some(Json::Null) => None,
        Some(Json::Num(f)) => Some(*f),
        Some(Json::Int(i)) => Some(*i as f64),
        Some(_) => return Err(WireError::bad_request("`freq_ghz` must be a number")),
    };
    // The one departure from the old code: it handed a non-positive
    // frequency to `with_frequency`, whose assertion then panicked.
    if let Some(f) = freq_ghz {
        if f.is_nan() || f <= 0.0 {
            return Err(WireError::bad_request("`freq_ghz` must be positive"));
        }
        config = config.with_frequency(f);
    }
    Ok(SimPoint {
        config,
        profile: Cow::Owned(profile),
        seed,
        n_cores,
        interval: SimInterval { warmup, measure },
    })
}

/// Recursive-descent JSON parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_PARSE_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if b == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        // Room for a request's or a `sim` point's members in one
        // allocation, instead of growing 4 → 8.
        let mut fields = Vec::with_capacity(8);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let s = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let v = u16::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_owned());
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let cp = 0x10000
                                    + ((hi as u32 - 0xD800) << 10)
                                    + (lo as u32).wrapping_sub(0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi as u32).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // backslash as one slice. Both are ASCII, so the run
                    // ends on a char boundary of the input `&str`, and each
                    // byte is scanned once however long the string is.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}
