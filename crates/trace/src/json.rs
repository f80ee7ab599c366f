//! The workspace's one line codec: flat JSON objects, one per line,
//! hand-rolled (the workspace has no serde).
//!
//! Three line formats are built on it:
//!
//! * the trace JSONL this crate exports ([`to_jsonl`], read back by
//!   [`from_jsonl`]) — the one format with a nested object, `args`:
//!
//!   ```text
//!   {"cat":"phase","name":"prepare","ts_us":12,"dur_us":34,"lane":0,"args":{"regions":1}}
//!   ```
//!
//!   `dur_us` is omitted for instant events. The Chrome `trace_event`
//!   exporter ([`to_chrome`]) is write-only;
//! * the tuning store's record log (`locus-store`);
//! * the `locusd` wire protocol (`locus-daemon`).
//!
//! The pieces: one string escape (inside [`FlatWriter`]) and one string
//! unescape ([`read_string`]); a flat-object writer with string, raw
//! and exact-`f64` fields ([`FlatWriter`]); a flat-object reader
//! ([`read_flat`]) that keeps each value's text, whether it was quoted,
//! and whatever follows the closing `}`; and one tokenizer behind both
//! readers. What a caller does with text after the `}` is its own
//! choice: the store ignores it, the daemon refuses the line.

use std::borrow::Cow;
use std::error::Error;
use std::fmt::{self, Write as _};

use crate::{Event, Value};

/// Error produced while parsing a JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for TraceParseError {}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, as are
/// newline, carriage return, tab and every other control character
/// (`\u00XX`); everything else, non-ASCII included, passes through.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Writes one flat JSON object, fields in call order:
///
/// ```
/// use locus_trace::json::FlatWriter;
///
/// let mut w = FlatWriter::new();
/// w.str("kind", "eval").raw("ops", 12).f64("ms", 1.5);
/// assert_eq!(
///     w.finish(),
///     r#"{"kind":"eval","ops":12,"ms":"3ff8000000000000","ms_dec":1.500000}"#
/// );
/// ```
#[derive(Debug, Default)]
pub struct FlatWriter {
    out: String,
}

impl FlatWriter {
    /// An object with no fields yet.
    pub fn new() -> FlatWriter {
        FlatWriter::default()
    }

    fn key(&mut self, key: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        push_quoted(&mut self.out, key);
        self.out.push(':');
    }

    /// A string field, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut FlatWriter {
        self.key(key);
        push_quoted(&mut self.out, value);
        self
    }

    /// A field whose value is written verbatim (numbers, booleans,
    /// nested objects).
    pub fn raw(&mut self, key: &str, value: impl fmt::Display) -> &mut FlatWriter {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// An exact double: the 16-hex-digit bit pattern as a string, then
    /// a `<key>_dec` sibling with an approximate decimal for human
    /// readers (`NaN`, `inf` and `-inf` are written bare).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut FlatWriter {
        self.key(key);
        let _ = write!(self.out, "\"{:016x}\"", value.to_bits());
        self.raw(&format!("{key}_dec"), format_args!("{value:.6}"))
    }

    /// The finished object (no trailing newline).
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// The `args` object of a trace event. Finite floats use `{:?}`, Rust's
/// shortest round-trip form, which always has a `.` or an exponent so
/// the reader can tell it from an integer; non-finite floats are not
/// JSON numbers and are written as the strings `nan`, `inf`, `-inf`.
fn args_object(args: &[(String, Value)]) -> String {
    let mut w = FlatWriter::new();
    for (key, value) in args {
        match value {
            Value::Str(s) => w.str(key, s),
            Value::U64(v) => w.raw(key, v),
            Value::I64(v) => w.raw(key, v),
            Value::F64(v) if v.is_finite() => w.raw(key, format_args!("{v:?}")),
            Value::F64(v) if v.is_nan() => w.str(key, "nan"),
            Value::F64(v) => w.str(key, if *v > 0.0 { "inf" } else { "-inf" }),
            Value::Bool(v) => w.raw(key, v),
        };
    }
    w.finish()
}

/// Renders events as JSONL, one event per line.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        let mut w = FlatWriter::new();
        w.str("cat", &event.cat)
            .str("name", &event.name)
            .raw("ts_us", event.ts_us);
        if let Some(dur) = event.dur_us {
            w.raw("dur_us", dur);
        }
        w.raw("lane", event.lane)
            .raw("args", args_object(&event.args));
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

/// Renders events as a Chrome `trace_event` JSON array —
/// `chrome://tracing` and Perfetto load the output directly. Spans
/// become `"X"` (complete) events, instants become `"i"` events.
pub fn to_chrome(events: &[Event]) -> String {
    let mut out = String::from("[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut w = FlatWriter::new();
        w.str("name", &event.name).str("cat", &event.cat);
        match event.dur_us {
            Some(dur) => w.str("ph", "X").raw("dur", dur),
            None => w.str("ph", "i").str("s", "t"),
        };
        w.raw("ts", event.ts_us)
            .raw("pid", 1)
            .raw("tid", event.lane)
            .raw("args", args_object(&event.args));
        out.push('\n');
        out.push_str(&w.finish());
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// The tokenizer behind [`read_flat`], [`read_string`] and
/// [`from_jsonl`]; trace `args` objects are read as flat objects too.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    /// The next byte after any whitespace, which is skipped.
    fn peek(&mut self) -> Option<u8> {
        let rest = self.text[self.pos..].trim_start_matches(|c: char| c.is_ascii_whitespace());
        self.pos = self.text.len() - rest.len();
        rest.bytes().next()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}`, found {:?}",
                want as char,
                other.map(char::from)
            )),
        }
    }

    /// A quoted string, unescaped; borrowed from the line when it holds
    /// no escapes. Knows `\"`, `\\`, `\/`, `\n`, `\r`, `\t` and `\uXXXX`.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest.find(['"', '\\']).ok_or("unterminated string")?;
            let run = &rest[..stop];
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            let esc = *rest.as_bytes().get(stop + 1).ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("unknown escape `\\{}`", other as char)),
            }
        }
    }

    /// An unquoted token: everything up to the next `,` or `}` (or the
    /// end of the line), trimmed. Numbers, booleans and the bare `NaN`
    /// or `inf` of a `_dec` field all read this way.
    fn bare(&mut self) -> &'a str {
        let rest = &self.text[self.pos..];
        let len = rest.find([',', '}']).unwrap_or(rest.len());
        self.pos += len;
        rest[..len].trim()
    }

    /// A `{...}` object of string and bare-token fields. Any run of
    /// commas and whitespace separates fields.
    fn object(&mut self) -> Result<Vec<FlatField<'a>>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        loop {
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                Some(b',') => self.pos += 1,
                Some(b'"') => {
                    let key = self.string()?;
                    self.eat(b':')?;
                    let quoted = self.peek() == Some(b'"');
                    let value = if quoted {
                        self.string()?
                    } else {
                        Cow::Borrowed(self.bare())
                    };
                    fields.push(FlatField { key, value, quoted });
                }
                other => {
                    return Err(format!(
                        "expected a field or `}}`, found {:?}",
                        other.map(char::from)
                    ))
                }
            }
        }
    }

    /// An unsigned integer field of a trace event.
    fn unsigned(&mut self, field: &str) -> Result<u64, String> {
        let token = self.bare();
        token
            .parse()
            .map_err(|_| format!("field `{field}` must be an unsigned integer, got `{token}`"))
    }
}

/// The typed value of one trace argument.
fn arg_value(field: &FlatField<'_>) -> Result<Value, String> {
    let token = field.value.as_ref();
    if field.quoted {
        Ok(Value::Str(token.to_string()))
    } else if token == "true" || token == "false" {
        Ok(Value::Bool(token == "true"))
    } else if token.contains(['.', 'e', 'E']) {
        token
            .parse::<f64>()
            .map(Value::F64)
            .map_err(|_| format!("malformed float `{token}`"))
    } else if let Some(magnitude) = token.strip_prefix('-') {
        let magnitude = magnitude
            .parse::<u64>()
            .map_err(|_| format!("malformed integer `{token}`"))?;
        i64::try_from(-i128::from(magnitude))
            .map(Value::I64)
            .map_err(|_| format!("integer `{token}` is below the i64 range"))
    } else {
        token
            .parse::<u64>()
            .map(Value::U64)
            .map_err(|_| format!("malformed value `{token}`"))
    }
}

/// Reads the quoted JSON string at the start of `text` (leading
/// whitespace skipped) and returns it unescaped. Text after the closing
/// quote is ignored.
///
/// # Errors
///
/// A description of what is malformed: no opening quote, no closing
/// quote, or a bad escape.
pub fn read_string(text: &str) -> Result<Cow<'_, str>, String> {
    Cursor::new(text).string()
}

/// One field of a line read by [`read_flat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatField<'a> {
    /// The field name, unescaped.
    pub key: Cow<'a, str>,
    /// The value's text: unescaped for a string, otherwise the bare
    /// token verbatim (trimmed).
    pub value: Cow<'a, str>,
    /// Whether the value was a quoted string.
    pub quoted: bool,
}

/// A flat object line as [`read_flat`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatObject<'a> {
    /// The fields in line order, duplicates kept.
    pub fields: Vec<FlatField<'a>>,
    /// Whatever follows the closing `}` (empty when nothing does).
    pub rest: &'a str,
}

impl FlatObject<'_> {
    /// The value text of the first field named `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| f.key == key)
            .map(|f| f.value.as_ref())
    }
}

/// Reads one flat JSON object line (surrounding whitespace ignored).
/// The reader is tolerant: any run of commas and whitespace separates
/// fields, and an unquoted value is whatever precedes the next `,` or
/// `}`, so the caller decides what a value must look like.
///
/// # Errors
///
/// A description of the first malformed token, or of a line that ends
/// before its closing `}`.
pub fn read_flat(line: &str) -> Result<FlatObject<'_>, String> {
    let mut c = Cursor::new(line.trim());
    let fields = c.object()?;
    Ok(FlatObject {
        fields,
        rest: &c.text[c.pos..],
    })
}

/// Parses a JSONL trace back into events, skipping blank lines.
///
/// # Errors
///
/// Returns [`TraceParseError`] on the first malformed line.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, TraceParseError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = parse_event(line).map_err(|message| TraceParseError {
            line: idx + 1,
            message,
        })?;
        events.push(event);
    }
    Ok(events)
}

fn parse_event(line: &str) -> Result<Event, String> {
    let mut c = Cursor::new(line);
    c.eat(b'{')?;
    let mut cat = None;
    let mut name = None;
    let mut ts_us = None;
    let mut dur_us = None;
    let mut lane = None;
    let mut args = Vec::new();
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        match key.as_ref() {
            "cat" => cat = Some(c.string()?.into_owned()),
            "name" => name = Some(c.string()?.into_owned()),
            "ts_us" => ts_us = Some(c.unsigned("ts_us")?),
            "dur_us" => dur_us = Some(c.unsigned("dur_us")?),
            "lane" => lane = Some(c.unsigned("lane")?),
            "args" => {
                for field in c.object()? {
                    args.push((field.key.to_string(), arg_value(&field)?));
                }
            }
            other => return Err(format!("unknown field `{other}`")),
        }
        if c.peek() == Some(b',') {
            c.eat(b',')?;
        } else {
            break;
        }
    }
    c.eat(b'}')?;
    Ok(Event {
        cat: cat.ok_or("missing `cat`")?,
        name: name.ok_or("missing `name`")?,
        ts_us: ts_us.ok_or("missing `ts_us`")?,
        dur_us,
        lane: lane.ok_or("missing `lane`")?,
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                cat: "phase".to_string(),
                name: "prepare".to_string(),
                ts_us: 10,
                dur_us: Some(25),
                lane: 0,
                args: vec![kv("regions", 2u64), kv("ok", true)],
            },
            Event {
                cat: "eval".to_string(),
                name: "point".to_string(),
                ts_us: 40,
                dur_us: None,
                lane: 3,
                args: vec![
                    kv("point", "tileI=8;tileJ=16"),
                    kv("ms", 1.5),
                    kv("delta", -2i64),
                    kv("weird", "a\"b\\c\nd"),
                ],
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn float_values_round_trip_bit_exactly() {
        let cases = [0.1, 1.0, 3.5e-9, 1e300, -0.0, 123456.789];
        for v in cases {
            let events = vec![Event {
                cat: "t".into(),
                name: "t".into(),
                ts_us: 0,
                dur_us: None,
                lane: 0,
                args: vec![kv("v", v)],
            }];
            let parsed = from_jsonl(&to_jsonl(&events)).unwrap();
            match &parsed[0].args[0].1 {
                Value::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{v}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_export_as_strings() {
        let events = vec![Event {
            cat: "t".into(),
            name: "t".into(),
            ts_us: 0,
            dur_us: None,
            lane: 0,
            args: vec![
                kv("a", f64::NAN),
                kv("b", f64::INFINITY),
                kv("c", f64::NEG_INFINITY),
            ],
        }];
        let parsed = from_jsonl(&to_jsonl(&events)).unwrap();
        assert_eq!(parsed[0].args[0].1, Value::Str("nan".into()));
        assert_eq!(parsed[0].args[1].1, Value::Str("inf".into()));
        assert_eq!(parsed[0].args[2].1, Value::Str("-inf".into()));
    }

    #[test]
    fn chrome_export_has_complete_and_instant_phases() {
        let text = to_chrome(&sample());
        assert!(text.starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"tid\":3"));
        assert!(text.contains("\"dur\":25"));
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let err = from_jsonl(
            "{\"cat\":\"a\",\"name\":\"b\",\"ts_us\":1,\"lane\":0,\"args\":{}}\nnot json\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", to_jsonl(&sample()).trim_end());
        assert_eq!(from_jsonl(&text).unwrap().len(), 2);
    }

    fn arg_line(value: &str) -> String {
        format!(
            "{{\"cat\":\"c\",\"name\":\"n\",\"ts_us\":1,\"lane\":0,\"args\":{{\"v\":{value}}}}}"
        )
    }

    #[test]
    fn negative_integers_use_the_whole_i64_range() {
        let parsed = from_jsonl(&arg_line("-9223372036854775808")).unwrap();
        assert_eq!(parsed[0].args[0].1, Value::I64(i64::MIN));
        let parsed = from_jsonl(&arg_line("-0")).unwrap();
        assert_eq!(parsed[0].args[0].1, Value::I64(0));
    }

    #[test]
    fn integers_below_the_i64_range_are_errors_naming_the_line() {
        for token in [
            "-9223372036854775809",
            "-18446744073709551615",
            "-18446744073709551616",
        ] {
            let text = format!("{}{}\n", to_jsonl(&sample()), arg_line(token));
            let err = from_jsonl(&text).unwrap_err();
            assert_eq!(err.line, 3, "{token}");
            assert!(err.message.contains(token), "{token}: {err}");
        }
    }

    #[test]
    fn flat_reader_keeps_text_quoting_and_the_rest_of_the_line() {
        let obj = read_flat(r#" {"a":"x\ty" , "b": 12 ,"c":NaN,"a":"dup"} tail "#).unwrap();
        let view: Vec<_> = obj
            .fields
            .iter()
            .map(|f| (f.key.as_ref(), f.value.as_ref(), f.quoted))
            .collect();
        assert_eq!(
            view,
            [
                ("a", "x\ty", true),
                ("b", "12", false),
                ("c", "NaN", false),
                ("a", "dup", true)
            ]
        );
        assert_eq!(obj.get("a"), Some("x\ty"));
        assert_eq!(obj.rest, " tail");
        assert_eq!(read_flat("{}").unwrap().rest, "");
        for bad in ["", "x", "{", r#"{"a""#, r#"{"a":1"#, r#"{"a":"\q"}"#, "{x}"] {
            assert!(read_flat(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn writer_output_reads_back() {
        let mut w = FlatWriter::new();
        w.str("s", "q\"\\\u{1}é")
            .raw("n", 7)
            .f64("x", f64::NEG_INFINITY);
        let line = w.finish();
        assert_eq!(
            line,
            r#"{"s":"q\"\\\u0001é","n":7,"x":"fff0000000000000","x_dec":-inf}"#
        );
        let obj = read_flat(&line).unwrap();
        assert_eq!(obj.get("s"), Some("q\"\\\u{1}é"));
        assert_eq!(obj.get("x_dec"), Some("-inf"));
        assert_eq!(FlatWriter::new().finish(), "{}");
        assert_eq!(read_string(r#" "a\/bé" tail"#).unwrap(), "a/bé");
    }
}
