//! The `locusd` wire protocol: newline-delimited flat JSON.
//!
//! One request per line, one response line per request, over a TCP
//! stream. The codec is the workspace's flat-JSON line codec
//! ([`locus_trace::json`], shared with the store's record log and the
//! trace log): flat objects only, string values escaped, `f64` values
//! carried as exact bit patterns (16 hex digits) with an approximate
//! `_dec` sibling for human readers, so a tuning result survives the
//! wire bit-identically. Unlike the store, the daemon refuses a line
//! with text after its closing `}`.
//!
//! Robustness contract (pinned by `tests/daemon_protocol.rs`): a
//! malformed, truncated, or oversized request line yields a structured
//! [`Response::error`] reply — never a panic, never a dropped
//! connection.

use std::borrow::Cow;
use std::fmt;

use locus_trace::json::{read_flat, read_string, FlatObject, FlatWriter};

/// Hard cap on one request or response line, in bytes (excluding the
/// newline). Oversized requests are answered with an
/// [`codes::OVERSIZED`] error and the rest of the line is discarded.
pub const MAX_LINE: usize = 64 * 1024;

/// Stable error codes carried in the `code` field of error responses.
pub mod codes {
    /// The request line is not a flat JSON object with known fields.
    pub const PARSE: &str = "parse";
    /// The request line exceeds [`super::MAX_LINE`] bytes.
    pub const OVERSIZED: &str = "oversized";
    /// The `op` field names no known operation.
    pub const UNKNOWN_OP: &str = "unknown-op";
    /// The `kernel` field names no registry kernel.
    pub const UNKNOWN_KERNEL: &str = "unknown-kernel";
    /// The `machine` field names no machine profile.
    pub const UNKNOWN_MACHINE: &str = "unknown-machine";
    /// The `search` field names no search module.
    pub const UNKNOWN_SEARCH: &str = "unknown-search";
    /// The request panicked inside the daemon and was isolated at the
    /// session boundary.
    pub const PANIC: &str = "panic";
    /// The request spent longer than its `deadline_ms` queued.
    pub const DEADLINE: &str = "deadline";
    /// The tuning run itself failed (apply error, store I/O).
    pub const INTERNAL: &str = "internal";
}

/// The operations `locusd` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; answered inline.
    Ping,
    /// Tune a registry kernel against the shared store.
    Tune,
    /// Retrieve or synthesize a recipe for a registry kernel.
    Suggest,
    /// Shared-store statistics; answered inline.
    Stats,
    /// Compact every store shard; answered inline.
    Compact,
    /// Deliberately panic inside the supervised request path — the
    /// fault-isolation probe used by tests and the benchmark.
    DebugPanic,
    /// Stop the daemon after replying.
    Shutdown,
}

impl Op {
    /// The wire spelling of this op.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Tune => "tune",
            Op::Suggest => "suggest",
            Op::Stats => "stats",
            Op::Compact => "compact",
            Op::DebugPanic => "debug-panic",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "ping" => Op::Ping,
            "tune" => Op::Tune,
            "suggest" => Op::Suggest,
            "stats" => Op::Stats,
            "compact" => Op::Compact,
            "debug-panic" => Op::DebugPanic,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen request id, echoed on the response and stamped
    /// onto every trace event of the request.
    pub id: String,
    /// What to do.
    pub op: Op,
    /// Registry kernel name (`tune`, `suggest`, `debug-panic`).
    pub kernel: String,
    /// Search module: `exhaustive`, `random`, `bandit`, `anneal`,
    /// `mcts`, `sampler`, `portfolio`.
    pub search: String,
    /// Deterministic search seed.
    pub seed: u64,
    /// Requested evaluation budget; the daemon clamps it to its
    /// configured per-request maximum.
    pub budget: usize,
    /// Requested evaluation threads; clamped likewise.
    pub threads: usize,
    /// Machine-profile name the kernel is tuned for.
    pub machine: String,
    /// Queue deadline: if the request waits longer than this before a
    /// worker picks it up, it is answered with a `deadline` error
    /// instead of running.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with every tunable field at its default: bandit
    /// search, seed 7, budget 16, one thread, the `scaled-xeon`
    /// profile, no deadline.
    pub fn new(id: &str, op: Op) -> Request {
        Request {
            id: id.to_string(),
            op,
            kernel: String::new(),
            search: "bandit".to_string(),
            seed: 7,
            budget: 16,
            threads: 1,
            machine: "scaled-xeon".to_string(),
            deadline_ms: None,
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut w = FlatWriter::new();
        w.str("id", &self.id).str("op", self.op.as_str());
        if !self.kernel.is_empty() {
            w.str("kernel", &self.kernel);
        }
        w.str("search", &self.search)
            .raw("seed", self.seed)
            .raw("budget", self.budget)
            .raw("threads", self.threads)
            .str("machine", &self.machine);
        if let Some(ms) = self.deadline_ms {
            w.raw("deadline_ms", ms);
        }
        w.finish()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming what is wrong, carrying whatever request
    /// id could be salvaged so the error reply still correlates.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let fields = read_whole_line(line).ok_or_else(|| ProtoError {
            id: salvage_id(line),
            code: codes::PARSE,
            message: "request is not a flat JSON object".to_string(),
        })?;
        let get = |key: &str| fields.get(key);
        let id = get("id").unwrap_or_default().to_string();
        let fail = |code: &'static str, message: String| ProtoError {
            id: id.clone(),
            code,
            message,
        };
        let op_text =
            get("op").ok_or_else(|| fail(codes::PARSE, "request has no `op` field".to_string()))?;
        let op = Op::parse(op_text)
            .ok_or_else(|| fail(codes::UNKNOWN_OP, format!("unknown op `{op_text}`")))?;
        let mut request = Request::new(&id, op);
        if let Some(kernel) = get("kernel") {
            request.kernel = kernel.to_string();
        }
        if let Some(search) = get("search") {
            request.search = search.to_string();
        }
        if let Some(machine) = get("machine") {
            request.machine = machine.to_string();
        }
        if let Some(raw) = get("seed") {
            request.seed = raw
                .parse()
                .map_err(|_| fail(codes::PARSE, format!("bad seed `{raw}`")))?;
        }
        if let Some(raw) = get("budget") {
            request.budget = raw
                .parse()
                .map_err(|_| fail(codes::PARSE, format!("bad budget `{raw}`")))?;
        }
        if let Some(raw) = get("threads") {
            request.threads = raw
                .parse()
                .map_err(|_| fail(codes::PARSE, format!("bad threads `{raw}`")))?;
        }
        if let Some(raw) = get("deadline_ms") {
            request.deadline_ms = Some(
                raw.parse()
                    .map_err(|_| fail(codes::PARSE, format!("bad deadline_ms `{raw}`")))?,
            );
        }
        Ok(request)
    }
}

/// A request that could not be parsed or dispatched; converts directly
/// into the error [`Response`] the client sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Salvaged request id ("" when even the id was unreadable).
    pub id: String,
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One response line: `ok` with typed payload fields, or `error` with a
/// code and message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: String,
    /// `true` for `ok`, `false` for `error`.
    pub ok: bool,
    /// Payload fields in encode order.
    pub fields: Vec<(String, WireValue)>,
}

/// A typed response payload value.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// UTF-8 text.
    Str(String),
    /// Unsigned integer (encoded as a raw JSON number).
    U64(u64),
    /// Exact double: encoded as a 16-hex-digit bit pattern plus an
    /// approximate `<key>_dec` sibling field.
    F64(f64),
}

impl Response {
    /// An `ok` response with no payload yet.
    pub fn ok(id: &str) -> Response {
        Response {
            id: id.to_string(),
            ok: true,
            fields: Vec::new(),
        }
    }

    /// An `error` response.
    pub fn error(id: &str, code: &str, message: &str) -> Response {
        let mut r = Response {
            id: id.to_string(),
            ok: false,
            fields: Vec::new(),
        };
        r.fields.push(("code".into(), WireValue::Str(code.into())));
        r.fields
            .push(("message".into(), WireValue::Str(message.into())));
        r
    }

    /// Appends a string payload field (builder style).
    pub fn with_str(mut self, key: &str, value: &str) -> Response {
        self.fields
            .push((key.to_string(), WireValue::Str(value.to_string())));
        self
    }

    /// Appends an integer payload field.
    pub fn with_u64(mut self, key: &str, value: u64) -> Response {
        self.fields.push((key.to_string(), WireValue::U64(value)));
        self
    }

    /// Appends an exact-double payload field.
    pub fn with_f64(mut self, key: &str, value: f64) -> Response {
        self.fields.push((key.to_string(), WireValue::F64(value)));
        self
    }

    fn get(&self, key: &str) -> Option<&WireValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks a string field up.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            WireValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks an integer field up.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            WireValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks an exact-double field up.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            WireValue::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The `code` of an error response.
    pub fn error_code(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            self.get_str("code")
        }
    }

    /// Encodes the response as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut w = FlatWriter::new();
        w.str("id", &self.id)
            .str("status", if self.ok { "ok" } else { "error" });
        for (key, value) in &self.fields {
            match value {
                WireValue::Str(s) => w.str(key, s),
                WireValue::U64(n) => w.raw(key, n),
                WireValue::F64(x) => w.f64(key, *x),
            };
        }
        w.finish()
    }

    /// Parses one response line (the client side of the codec).
    ///
    /// Typing is recovered structurally: quoted 16-hex-digit values
    /// with a `<key>_dec` sibling decode as [`WireValue::F64`], other
    /// quoted values as [`WireValue::Str`], unquoted integers as
    /// [`WireValue::U64`].
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let line = read_whole_line(line).ok_or_else(|| ProtoError {
            id: String::new(),
            code: codes::PARSE,
            message: "response is not a flat JSON object".to_string(),
        })?;
        let id = line.get("id").unwrap_or_default().to_string();
        let ok = match line.get("status") {
            Some("ok") => true,
            Some("error") => false,
            _ => {
                return Err(ProtoError {
                    id,
                    code: codes::PARSE,
                    message: "response has no `status` field".to_string(),
                })
            }
        };
        let mut payload = Vec::new();
        for field in &line.fields {
            let (key, value) = (field.key.as_ref(), field.value.as_ref());
            if key == "id" || key == "status" || key.ends_with("_dec") {
                continue;
            }
            let has_dec = line
                .fields
                .iter()
                .any(|f| f.key.strip_suffix("_dec") == Some(key));
            let wire = if field.quoted && has_dec && value.len() == 16 {
                match u64::from_str_radix(value, 16) {
                    Ok(bits) => WireValue::F64(f64::from_bits(bits)),
                    Err(_) => WireValue::Str(value.to_string()),
                }
            } else if field.quoted {
                WireValue::Str(value.to_string())
            } else if let Ok(n) = value.parse::<u64>() {
                WireValue::U64(n)
            } else {
                WireValue::Str(value.to_string())
            };
            payload.push((key.to_string(), wire));
        }
        Ok(Response {
            id,
            ok,
            fields: payload,
        })
    }
}

/// Reads a whole line as one flat object; a line with text after its
/// closing `}` is malformed.
fn read_whole_line(line: &str) -> Option<FlatObject<'_>> {
    read_flat(line).ok().filter(|object| object.rest.is_empty())
}

/// Best-effort id extraction from a line that failed to parse, so even
/// a truncated request's error reply correlates with its sender.
fn salvage_id(line: &str) -> String {
    let Some(pos) = line.find("\"id\":") else {
        return String::new();
    };
    read_string(line[pos + 5..].trim_start())
        .map(Cow::into_owned)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    // Byte-exact round trips of requests and responses, and the
    // refusal codes, are pinned in `tests/line_codec.rs`.
    use super::*;

    #[test]
    fn request_defaults_fill_missing_fields() {
        let req = Request::parse(r#"{"id":"a","op":"tune","kernel":"dgemm"}"#).unwrap();
        assert_eq!(req.search, "bandit");
        assert_eq!(req.seed, 7);
        assert_eq!(req.budget, 16);
        assert_eq!(req.threads, 1);
        assert_eq!(req.machine, "scaled-xeon");
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn malformed_requests_salvage_the_id() {
        let err = Request::parse(r#"{"id":"r-9","op":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.id, "r-9");
        assert_eq!(err.code, codes::UNKNOWN_OP);
        let err = Request::parse(r#"{"id":"r-9","op":"tune","seed":"abc"}"#).unwrap_err();
        assert_eq!(err.id, "r-9");
        assert_eq!(err.code, codes::PARSE);
        let err = Request::parse("not json").unwrap_err();
        assert_eq!(err.id, "");
        assert_eq!(err.code, codes::PARSE);
        // Even a truncated line salvages a completed id field.
        let err = Request::parse(r#"{"id":"cut","op":"tu"#).unwrap_err();
        assert_eq!(err.id, "cut");
        assert_eq!(err.code, codes::PARSE);
    }

    #[test]
    fn error_responses_carry_code_and_message() {
        let resp = Response::error("r-3", codes::PANIC, "worker died: boom");
        let back = Response::parse(&resp.encode()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error_code(), Some(codes::PANIC));
        assert_eq!(back.get_str("message"), Some("worker died: boom"));
    }
}
