//! Minimal fixed-width table formatting for the experiment reports, plus a
//! dependency-free JSON value type used for the `repro` artifacts.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A simple text table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded or truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// A JSON value, built and rendered without external dependencies.
///
/// The experiment drivers convert their typed rows into `Json` so the
/// orchestrator can write machine-readable artifacts next to the rendered
/// text tables. Rendering is deterministic: object keys keep insertion
/// order and numbers use Rust's shortest round-trip `Display` form, so two
/// semantically equal values render to identical bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null` (also the rendering of non-finite numbers).
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact rather than going through `f64`).
    Int(i64),
    /// A floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Look up a top-level key (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render as a single line with no whitespace and no trailing newline.
    ///
    /// This is the wire form used by the `m3d-serve` newline-delimited
    /// protocol: a rendered value never contains a raw `\n` (strings escape
    /// control characters), so one message is exactly one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::with_capacity(COMPACT_CAPACITY);
        self.write_compact(&mut out);
        out
    }

    /// Append the [`render_compact`](Json::render_compact) form to `out`.
    /// Numbers are written straight into `out` (the same `Display` text,
    /// no temporary string per number).
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(out, *i),
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => Self::write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) if v.is_finite() => {
                // `Display` for f64 is shortest-round-trip decimal notation,
                // which is always valid JSON.
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => Self::write_escaped(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    Self::pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                Self::pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    Self::pad(out, indent + 1);
                    Self::write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                Self::pad(out, indent);
                out.push('}');
            }
        }
    }

    fn pad(out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
    }

    /// Parse a JSON document (the subset this type renders: no exponents are
    /// *required* but they are accepted; `\uXXXX` escapes including
    /// surrogate pairs are decoded). Used by the `perf_baseline` drift gate,
    /// the artifact round-trip tests, and the serve daemon and router for
    /// every request's `params` but a `sim`'s. Arrays and objects nested
    /// deeper than [`MAX_PARSE_DEPTH`] are an error, so no input can
    /// exhaust the stack. The tree is built from [`JsonReader`]'s tokens,
    /// so it accepts and rejects exactly what the reader does.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut r = JsonReader::new(s);
        let first = r.next_token()?;
        let v = Json::build(&mut r, first)?;
        r.end()?;
        Ok(v)
    }

    /// The value whose first token is `first`, built from the tokens that
    /// follow it in `r`.
    fn build(r: &mut JsonReader<'_>, first: Token<'_>) -> Result<Json, String> {
        Ok(match first {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Int(i) => Json::Int(i),
            Token::Num(v) => Json::Num(v),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::ArrStart => {
                let mut items = Vec::new();
                loop {
                    match r.next_token()? {
                        Token::ArrEnd => break Json::Arr(items),
                        t => items.push(Json::build(r, t)?),
                    }
                }
            }
            Token::ObjStart => {
                let mut fields = Vec::new();
                while let Token::Key(k) = r.next_token()? {
                    if fields.is_empty() {
                        // Room for a request's or a reply row's members in
                        // one allocation, instead of growing 4 → 8.
                        fields.reserve_exact(8);
                    }
                    let t = r.next_token()?;
                    fields.push((k.into_owned(), Json::build(r, t)?));
                }
                Json::Obj(fields)
            }
            Token::Key(_) | Token::ObjEnd | Token::ArrEnd => {
                unreachable!("the reader never starts a value with {first:?}")
            }
        })
    }

    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        // Copy the runs between escapes whole. Every escaped byte is
        // ASCII, so each run ends on a char boundary.
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            start = i + 1;
        }
        out.push_str(&s[start..]);
        out.push('"');
    }
}

/// Append `i` in decimal: the digits `write!(out, "{i}")` gives, without
/// the formatting machinery.
fn write_int(out: &mut String, i: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Initial buffer size of [`Json::render_compact`], bytes: room for a
/// one-point `sim` reply line, so a typical wire line renders into one
/// allocation.
const COMPACT_CAPACITY: usize = 256;

/// How deeply [`Json::parse`] lets arrays and objects nest. Far above any
/// request or report this workspace writes (under ten levels); it exists so
/// that hostile input fails with an error instead of a stack overflow.
pub const MAX_PARSE_DEPTH: usize = 128;

/// One token of a JSON document, as [`JsonReader::next_token`] yields them in
/// document order. An object member is its [`Token::Key`] followed by the
/// tokens of its value.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`
    ObjStart,
    /// `}`
    ObjEnd,
    /// `[`
    ArrStart,
    /// `]`
    ArrEnd,
    /// An object member's key; its `:` has been read with it.
    Key(Cow<'a, str>),
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without `.`, `e` or a sign after the first that
    /// fits an `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string value.
    Str(Cow<'a, str>),
}

/// What [`JsonReader::next_token`] reads next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: the document's, an array item or an object member's.
    Value,
    /// An array's first item, or its `]`.
    FirstItem,
    /// An object's first key, or its `}`.
    FirstKey,
    /// A `,` or the close of the innermost open container.
    Separator,
    /// Nothing: the document's value is complete.
    End,
}

/// The JSON tokenizer: a pull reader that yields a document's tokens one
/// at a time. [`Json::parse`] builds its trees from these tokens, and the
/// serve daemon reads request lines straight from them, so both accept
/// the same grammar with the same error texts and byte offsets.
///
/// Strings are borrowed from the input unless they hold escapes. Arrays
/// and objects nested deeper than [`MAX_PARSE_DEPTH`] are an error, and
/// each input byte is scanned once.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Bit `d` is set while the container open at depth `d + 1` is an
    /// object: one bit per level, and `MAX_PARSE_DEPTH` levels fit.
    objects: u128,
    expect: Expect,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
            objects: 0,
            expect: Expect::Value,
        }
    }

    /// The next token, or the first error in the document.
    pub fn next_token(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.expect {
            Expect::Value => self.value(),
            Expect::FirstItem if self.peek() == Some(b']') => Ok(self.close(Token::ArrEnd)),
            Expect::FirstItem => self.value(),
            Expect::FirstKey if self.peek() == Some(b'}') => Ok(self.close(Token::ObjEnd)),
            Expect::FirstKey => self.key(),
            Expect::Separator => {
                let object = (self.objects >> (self.depth - 1)) & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                        if object {
                            self.key()
                        } else {
                            self.value()
                        }
                    }
                    Some(b'}') if object => Ok(self.close(Token::ObjEnd)),
                    Some(b']') if !object => Ok(self.close(Token::ArrEnd)),
                    _ if object => Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    _ => Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
            Expect::End => Err(format!("no token after the document at byte {}", self.pos)),
        }
    }

    /// Read on through the close of the innermost open array or object.
    pub fn skip_container(&mut self) -> Result<(), String> {
        let outer = self.depth.saturating_sub(1);
        while self.depth > outer {
            self.next_token()?;
        }
        Ok(())
    }

    /// Read one whole value, whatever it is.
    pub fn skip_value(&mut self) -> Result<(), String> {
        if matches!(self.next_token()?, Token::ObjStart | Token::ArrStart) {
            self.skip_container()?;
        }
        Ok(())
    }

    /// Byte offset of the first unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Once the document's value is read: only whitespace may follow it.
    pub fn end(&mut self) -> Result<(), String> {
        debug_assert_eq!(self.expect, Expect::End, "the value is not complete");
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self
            .src
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// The token after a complete value: a separator inside a container,
    /// nothing at the top.
    fn after_value(&mut self) {
        self.expect = if self.depth == 0 {
            Expect::End
        } else {
            Expect::Separator
        };
    }

    fn close(&mut self, t: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.after_value();
        t
    }

    fn key(&mut self) -> Result<Token<'a>, String> {
        let k = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        self.expect = Expect::Value;
        Ok(Token::Key(k))
    }

    fn value(&mut self) -> Result<Token<'a>, String> {
        let t = match self.peek() {
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'"') => Token::Str(self.string()?),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_PARSE_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                let object = b == b'{';
                if object {
                    self.objects |= 1 << self.depth;
                } else {
                    self.objects &= !(1 << self.depth);
                }
                self.depth += 1;
                self.pos += 1;
                return Ok(if object {
                    self.expect = Expect::FirstKey;
                    Token::ObjStart
                } else {
                    self.expect = Expect::FirstItem;
                    Token::ArrStart
                });
            }
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(b) => return Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => return Err("unexpected end of input".to_owned()),
        };
        self.after_value();
        Ok(t)
    }

    fn literal(&mut self, lit: &str, t: Token<'a>) -> Result<Token<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(t)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let s = self
            .src
            .as_bytes()
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let v = u16::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    /// Move past the run of bytes up to the next quote or backslash. Both
    /// are ASCII, so the run ends on a char boundary of the input.
    fn skip_run(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_byte(b'"')?;
        let start = self.pos;
        self.skip_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        // Escapes (or no closing quote): decode into an owned string.
        let mut out = self.src[start..self.pos].to_owned();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => {
                    let run = self.pos;
                    self.skip_run();
                    out.push_str(&self.src[run..self.pos]);
                }
            }
        }
    }

    /// Decode the escape at the backslash under the cursor onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() != Some(b'\\') {
                        return Err("lone high surrogate".to_owned());
                    }
                    self.pos += 1;
                    self.expect_byte(b'u')?;
                    let lo = self.hex4()?;
                    let cp =
                        0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32).wrapping_sub(0xDC00);
                    char::from_u32(cp).ok_or("invalid surrogate pair")?
                } else {
                    char::from_u32(hi as u32).ok_or("invalid \\u escape")?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<Token<'a>, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        // The digits' value as they are scanned; `None` past `u64`.
        let mut magnitude = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        // What `text.parse::<i64>()` gives: at least one digit, in range.
        if !is_float && text.len() > usize::from(negative) {
            let int = magnitude.and_then(|m| {
                if negative {
                    0i64.checked_sub_unsigned(m)
                } else {
                    i64::try_from(m).ok()
                }
            });
            if let Some(i) = int {
                return Ok(Token::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Token::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v.try_into().unwrap_or(i64::MAX))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v.try_into().unwrap_or(i64::MAX))
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// Convert a latency/energy/footprint reduction into a JSON object.
pub fn reduction_json(r: &m3d_sram::metrics::Reduction) -> Json {
    Json::obj([
        ("latency_pct", Json::from(r.latency_pct)),
        ("energy_pct", Json::from(r.energy_pct)),
        ("footprint_pct", Json::from(r.footprint_pct)),
    ])
}

/// Convert a thermal-solver summary into a JSON object for the artifacts.
pub fn thermal_stats_json(s: &m3d_thermal::model::SolveStatsSummary) -> Json {
    Json::obj([
        ("solves", Json::from(s.solves)),
        ("total_iterations", Json::from(s.total_iterations)),
        ("warm_starts", Json::from(s.warm_starts)),
        ("cache_hits", Json::from(s.cache_hits)),
        ("max_residual_k", Json::from(s.max_residual_k)),
        ("non_converged", Json::from(s.non_converged)),
        ("total_wall_s", Json::from(s.total_wall_s)),
    ])
}

/// Convert an observability snapshot into a JSON object for the artifacts:
/// `{"counters": {name: value, ...}, "histograms": {name: {count, sum, min,
/// max, mean, buckets: [[log2, count], ...]}, ...}}`. Names stay sorted, so
/// rendering is deterministic.
pub fn metrics_json(snap: &m3d_obs::MetricsSnapshot) -> Json {
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|(n, v)| (n.clone(), Json::from(*v)))
            .collect(),
    );
    let histograms = Json::Obj(
        snap.histograms
            .iter()
            .map(|h| {
                (
                    h.name.clone(),
                    Json::obj([
                        ("count", Json::from(h.count)),
                        ("sum", Json::from(h.sum)),
                        ("min", Json::from(h.min)),
                        ("max", Json::from(h.max)),
                        ("mean", Json::from(h.mean())),
                        (
                            "buckets",
                            Json::arr(h.buckets.iter().map(|(b, c)| {
                                Json::arr([Json::from(i64::from(*b)), Json::from(*c)])
                            })),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([("counters", counters), ("histograms", histograms)])
}

/// Rebuild a [`m3d_obs::MetricsSnapshot`] from [`metrics_json`] output.
/// Unknown fields are ignored; malformed structure is an error.
pub fn metrics_from_json(j: &Json) -> Result<m3d_obs::MetricsSnapshot, String> {
    let as_u64 = |v: &Json| -> Result<u64, String> {
        match v {
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!("expected non-negative integer, got {other:?}")),
        }
    };
    let as_f64 = |v: &Json| -> Result<f64, String> {
        match v {
            Json::Num(f) => Ok(*f),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN), // non-finite floats render as null
            other => Err(format!("expected number, got {other:?}")),
        }
    };
    let mut snap = m3d_obs::MetricsSnapshot::default();
    if let Some(Json::Obj(fields)) = j.get("counters") {
        for (name, v) in fields {
            snap.counters.push((name.clone(), as_u64(v)?));
        }
    }
    if let Some(Json::Obj(fields)) = j.get("histograms") {
        for (name, h) in fields {
            let field = |k: &str| h.get(k).ok_or_else(|| format!("{name}: missing {k}"));
            let mut buckets = Vec::new();
            if let Json::Arr(pairs) = field("buckets")? {
                for p in pairs {
                    if let Json::Arr(bc) = p {
                        if bc.len() == 2 {
                            let b = match &bc[0] {
                                Json::Int(i) => i32::try_from(*i)
                                    .map_err(|_| format!("{name}: bucket out of range"))?,
                                other => return Err(format!("{name}: bad bucket {other:?}")),
                            };
                            buckets.push((b, as_u64(&bc[1])?));
                            continue;
                        }
                    }
                    return Err(format!("{name}: bucket pairs must be [log2, count]"));
                }
            }
            snap.histograms.push(m3d_obs::HistogramSnapshot {
                name: name.clone(),
                count: as_u64(field("count")?)?,
                sum: as_f64(field("sum")?)?,
                min: as_f64(field("min")?)?,
                max: as_f64(field("max")?)?,
                buckets,
                exact: Vec::new(),
            });
        }
    }
    Ok(snap)
}

/// Render a snapshot as an aligned two-column table (the `--metrics` stderr
/// report): counters first, then histogram summary lines.
pub fn metrics_text(snap: &m3d_obs::MetricsSnapshot) -> String {
    let mut t = Table::new(["metric", "value"]);
    for (name, v) in &snap.counters {
        t.row([name.clone(), v.to_string()]);
    }
    for h in &snap.histograms {
        t.row([
            h.name.clone(),
            format!(
                "n={} min={:.3e} mean={:.3e} max={:.3e}",
                h.count,
                h.min,
                h.mean(),
                h.max
            ),
        ]);
    }
    t.render()
}

/// Format a percentage with sign, one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Format a ratio as `x.xx`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}")
}

/// Render an experiment's accumulated thermal-solver statistics as a single
/// labelled line for the `repro` report, so solver performance regressions
/// (iteration blow-ups, lost cache hits, missing warm starts) are visible
/// in ordinary experiment output.
pub fn thermal_stats_text(label: &str, s: &m3d_thermal::model::SolveStatsSummary) -> String {
    format!("[{label}] thermal solver: {s}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parse_caps_nesting_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        // At the cap: fine, for arrays, objects and a mix of both.
        assert!(Json::parse(&nested("[", "]", MAX_PARSE_DEPTH)).is_ok());
        let objs = nested("{\"a\":", "}", MAX_PARSE_DEPTH - 1).replace("{\"a\":}", "{\"a\":{}}");
        assert!(Json::parse(&objs).is_ok(), "{objs}");
        // One past the cap, or a 240 KB run of `[` with no end: an error,
        // not a stack overflow.
        let err = Json::parse(&nested("[", "]", MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(Json::parse(&"[".repeat(240 * 1024)).is_err());
        assert!(Json::parse(&"{\"a\":[".repeat(40_000)).is_err());
        // The depth is per path, not per document: many shallow siblings
        // are fine.
        let wide = format!("[{}[]]", "[[]],".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn long_strings_round_trip() {
        // Over 256 KiB of mixed ASCII, 2-, 3- and 4-byte UTF-8, and
        // characters the renderer escapes.
        let unit = "plain ascii é ü → 中文 😀 \"q\" back\\slash\nnew\ttab\r\u{1}|";
        let text = unit.repeat(256 * 1024 / unit.len() + 1);
        assert!(text.len() >= 256 * 1024);
        assert_eq!(
            Json::from("a\u{1}\u{1f}\"é\n").render_compact(),
            r#""a\u0001\u001f\"é\n""#
        );
        for doc in [
            Json::from(text.as_str()),
            Json::obj([("k", Json::from(text.as_str()))]),
        ] {
            assert_eq!(Json::parse(&doc.render_compact()), Ok(doc.clone()));
            assert_eq!(Json::parse(&doc.render()), Ok(doc));
        }
        // `\u` escapes, surrogate pairs included, between long raw runs.
        let run = "x".repeat(64 * 1024);
        let escaped = format!(r#""{run}\u00e9{run}\ud83d\ude00{run}\u4E2D\/{run}""#);
        let want = format!("{run}é{run}😀{run}中/{run}");
        assert_eq!(Json::parse(&escaped), Ok(Json::Str(want)));
        assert!(Json::parse(&format!("\"{run}")).is_err(), "unterminated");
    }

    #[test]
    fn integers_read_and_write_as_std_does() {
        for i in [0, 7, -1, 10, -10, 4_000_000_007, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(i).render_compact(), i.to_string());
            assert_eq!(Json::parse(&i.to_string()), Ok(Json::Int(i)));
        }
        assert_eq!(Json::parse("-0"), Ok(Json::Int(0)));
        assert_eq!(Json::parse("007"), Ok(Json::Int(7)));
        // Past `i64` a number is read as a float, as `str::parse` would.
        assert_eq!(
            Json::parse("9223372036854775808"),
            Ok(Json::Num(9_223_372_036_854_775_808.0))
        );
        assert_eq!(
            Json::parse("-99999999999999999999"),
            Ok(Json::Num(-99_999_999_999_999_999_999.0))
        );
        assert_eq!(
            Json::parse("-"),
            Err("invalid number `-` at byte 0".to_owned())
        );
        assert_eq!(
            Json::parse("[1,2-3]"),
            Err("invalid number `2-3` at byte 3".to_owned())
        );
    }

    #[test]
    fn reader_tokens_borrow_unescaped_strings() {
        let mut r = JsonReader::new(r#" {"k\u0041": ["v", 1, 2.5, null]} "#);
        let mut tokens = Vec::new();
        loop {
            let t = r.next_token().expect("valid");
            let done = t == Token::ObjEnd;
            tokens.push(t);
            if done {
                break;
            }
        }
        r.end().expect("nothing trails");
        assert_eq!(
            tokens,
            [
                Token::ObjStart,
                Token::Key(Cow::Owned("kA".to_owned())),
                Token::ArrStart,
                Token::Str(Cow::Borrowed("v")),
                Token::Int(1),
                Token::Num(2.5),
                Token::Null,
                Token::ArrEnd,
                Token::ObjEnd,
            ]
        );
        assert!(matches!(tokens[3], Token::Str(Cow::Borrowed(_))));
        assert!(matches!(tokens[1], Token::Key(Cow::Owned(_))));
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["xxx", "y"]);
        t.row(["z", "wwww"]);
        let s = t.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a  "));
        assert!(lines[2].starts_with("xxx"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only"]);
        assert!(t.render().contains("only"));
    }

    #[test]
    fn formats() {
        assert_eq!(pct(41.0), "+41.0%");
        assert_eq!(pct(-3.25), "-3.2%");
        assert_eq!(ratio(1.256), "1.26");
    }

    #[test]
    fn json_renders_scalars_and_nesting() {
        let v = Json::obj([
            ("name", Json::from("fig8")),
            ("ok", Json::from(true)),
            ("count", Json::from(42usize)),
            ("peak_c", Json::from(66.5)),
            ("none", Json::Null),
            ("rows", Json::arr([Json::from(1.5), Json::from("x")])),
            ("empty", Json::arr([])),
        ]);
        let s = v.render();
        assert!(s.contains("\"name\": \"fig8\""));
        assert!(s.contains("\"ok\": true"));
        assert!(s.contains("\"count\": 42"));
        assert!(s.contains("\"peak_c\": 66.5"));
        assert!(s.contains("\"none\": null"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn json_escapes_strings_and_drops_non_finite() {
        let v = Json::obj([
            ("quote", Json::from("a\"b\\c\nd")),
            ("nan", Json::from(f64::NAN)),
        ]);
        let s = v.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"nan\": null"));
    }

    #[test]
    fn json_get_and_determinism() {
        let v = Json::obj([("a", Json::from(1i64)), ("b", Json::from(2i64))]);
        assert_eq!(v.get("b"), Some(&Json::Int(2)));
        assert_eq!(v.get("c"), None);
        assert_eq!(v.render(), v.clone().render());
    }

    #[test]
    fn thermal_stats_json_carries_all_fields() {
        let mut s = m3d_thermal::model::SolveStatsSummary::default();
        s.absorb(&m3d_thermal::model::SolveStats {
            iterations: 7,
            residual_k: 1.0e-5,
            converged: true,
            warm_start: false,
            wall_s: 0.002,
        });
        let j = thermal_stats_json(&s);
        assert_eq!(j.get("solves"), Some(&Json::Int(1)));
        assert_eq!(j.get("total_iterations"), Some(&Json::Int(7)));
        assert_eq!(j.get("non_converged"), Some(&Json::Int(0)));
    }

    #[test]
    fn json_escapes_control_chars_and_keeps_non_ascii() {
        let v = Json::obj([
            ("ctrl", Json::from("a\u{1}b\u{1f}c")),
            ("tabs", Json::from("x\ty\r\n")),
            ("unicode", Json::from("µops → 3D — ünïcode")),
        ]);
        let s = v.render();
        assert!(s.contains("\"a\\u0001b\\u001fc\""));
        assert!(s.contains("\"x\\ty\\r\\n\""));
        // Non-ASCII passes through unescaped (the file is UTF-8).
        assert!(s.contains("µops → 3D — ünïcode"));
    }

    #[test]
    fn json_non_finite_floats_render_null_everywhere() {
        let v = Json::arr([
            Json::from(f64::NAN),
            Json::from(f64::INFINITY),
            Json::from(f64::NEG_INFINITY),
            Json::from(1.5),
        ]);
        let s = v.render();
        assert_eq!(s.matches("null").count(), 3);
        assert!(s.contains("1.5"));
    }

    #[test]
    fn json_parse_round_trips_rendered_output() {
        let v = Json::obj([
            ("name", Json::from("fig8 \"quoted\" \\ path\nline")),
            ("int", Json::from(-42i64)),
            ("big", Json::from(9_007_199_254_740_993i64)),
            ("float", Json::from(0.15625)),
            ("neg", Json::from(-1.5e-7)),
            ("flag", Json::from(false)),
            ("nothing", Json::Null),
            (
                "list",
                Json::arr([Json::from(1i64), Json::arr([]), Json::obj::<String>([])]),
            ),
            ("nested", Json::obj([("k", Json::from("µ → ok"))])),
        ]);
        let parsed = Json::parse(&v.render()).expect("round trip");
        assert_eq!(parsed, v);
    }

    #[test]
    fn json_parse_handles_escapes_and_rejects_garbage() {
        let v = Json::parse(r#"{"a": "éA😀", "b": [1, 2.5]}"#).expect("valid");
        assert_eq!(v.get("a"), Some(&Json::Str("éA😀".to_owned())));
        assert_eq!(v.get("b"), Some(&Json::arr([Json::Int(1), Json::Num(2.5)])));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn metrics_snapshot_round_trips_through_json() {
        let snap = m3d_obs::MetricsSnapshot {
            counters: vec![
                ("thermal.iterations".to_owned(), 1234),
                ("thermal.warm_start.hits".to_owned(), 7),
            ],
            histograms: vec![m3d_obs::HistogramSnapshot {
                name: "thermal.residual_k".to_owned(),
                count: 3,
                sum: 3.5e-5,
                min: 0.5e-5,
                max: 2.0e-5,
                buckets: vec![(-18, 2), (-16, 1)],
                exact: vec![],
            }],
        };
        let j = metrics_json(&snap);
        let back = metrics_from_json(&Json::parse(&j.render()).expect("parses")).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn metrics_text_lists_counters_and_histograms() {
        let snap = m3d_obs::MetricsSnapshot {
            counters: vec![("sram.organizations.evaluated".to_owned(), 99)],
            histograms: vec![m3d_obs::HistogramSnapshot {
                name: "thermal.residual_k".to_owned(),
                count: 2,
                sum: 2.0,
                min: 0.5,
                max: 1.5,
                buckets: vec![(-1, 1), (0, 1)],
                exact: vec![],
            }],
        };
        let text = metrics_text(&snap);
        assert!(text.contains("sram.organizations.evaluated"));
        assert!(text.contains("99"));
        assert!(text.contains("thermal.residual_k"));
        assert!(text.contains("n=2"));
    }

    #[test]
    fn thermal_stats_line_carries_label_and_counts() {
        let mut s = m3d_thermal::model::SolveStatsSummary::default();
        s.absorb(&m3d_thermal::model::SolveStats {
            iterations: 42,
            residual_k: 5.0e-5,
            converged: true,
            warm_start: true,
            wall_s: 0.001,
        });
        let line = thermal_stats_text("fig8", &s);
        assert!(line.contains("[fig8]"));
        assert!(line.contains("1 solves"));
        assert!(line.contains("42 sweeps"));
    }
}
