//! The three line formats — store records, `locusd` requests and
//! responses, and trace JSONL — share one flat-JSON codec
//! (`locus::trace::json`). This suite pins their exact bytes against
//! lines captured from the per-crate encoders the shared codec
//! replaced, so a change to any pinned line is a format change. Every
//! pinned line must also decode and re-encode to itself: the encodings
//! are injective (doubles travel as their bit patterns), so equal bytes
//! mean every field came back bit for bit — quotes, backslashes,
//! control characters, non-ASCII text, multi-line recipes, `NaN`,
//! `±inf` and `-0.0` included.

use locus::daemon::{codes, Op, Request, Response};
use locus::search::Objective;
use locus::store::record::{decode, encode_eval, encode_prune, encode_session};
use locus::store::{EvalRecord, PruneRecord, Record, RegionShape, SessionRecord, StoreKey};
use locus::trace::{from_jsonl, to_jsonl, Event, Value};

/// Text that exercises every escape the codec knows, plus characters it
/// must pass through untouched.
const NASTY: &str = "q\"b\\s/c\u{1}\u{1f}\t\r\n é日本🦀 \u{7f}end";

const EVAL_VALUE: &str =
    "{\"kind\":\"eval\",\"regions\":\"axpy \\\"x\\\":ffffffffffffffff,mm:000000000000abcd,\",\"machine\":\"0000000000001111\",\"space\":\"0000000000000000\",\"point\":\"tileI=i32;q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"variant\":\"deadbeefcafef00d\",\"obj\":\"V\",\"ms\":\"3fd3333333333334\",\"ms_dec\":0.300000,\"cycles\":\"8000000000000000\",\"cycles_dec\":-0.000000,\"ops\":18446744073709551615,\"flops\":0,\"checksum\":\"0123456789abcdef\",\"search\":\"bandit (opentuner-like)\",\"wall_ms\":0.250000}";
const EVAL_NAN: &str =
    "{\"kind\":\"eval\",\"regions\":\"axpy \\\"x\\\":ffffffffffffffff,mm:000000000000abcd,\",\"machine\":\"0000000000001111\",\"space\":\"0000000000000000\",\"point\":\"tileI=i32;q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"variant\":\"deadbeefcafef00d\",\"obj\":\"V\",\"ms\":\"7ff8000000000000\",\"ms_dec\":NaN,\"cycles\":\"7ff0000000000000\",\"cycles_dec\":inf,\"ops\":18446744073709551615,\"flops\":0,\"checksum\":\"0123456789abcdef\",\"search\":\"bandit (opentuner-like)\",\"wall_ms\":0.500000}";
const EVAL_INVALID: &str =
    "{\"kind\":\"eval\",\"regions\":\"axpy \\\"x\\\":ffffffffffffffff,mm:000000000000abcd,\",\"machine\":\"0000000000001111\",\"space\":\"0000000000000000\",\"point\":\"tileI=i32;q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"variant\":\"deadbeefcafef00d\",\"obj\":\"I\",\"ms\":\"0000000000000000\",\"ms_dec\":0.000000,\"cycles\":\"fff0000000000000\",\"cycles_dec\":-inf,\"ops\":18446744073709551615,\"flops\":0,\"checksum\":\"0123456789abcdef\",\"search\":\"bandit (opentuner-like)\",\"wall_ms\":0.000000}";
const PRUNE: &str =
    "{\"kind\":\"prune\",\"regions\":\"axpy \\\"x\\\":ffffffffffffffff,mm:000000000000abcd,\",\"machine\":\"0000000000001111\",\"space\":\"0000000000000000\",\"point\":\"or:omp=c1;\",\"variant\":\"0000000000000001\",\"reason\":\"data race: q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"provenance\":\"exact\",\"search\":\"exhaustive\"}";
const SESSION: &str =
    "{\"kind\":\"session\",\"regions\":\"axpy \\\"x\\\":ffffffffffffffff,mm:000000000000abcd,\",\"machine\":\"0000000000001111\",\"space\":\"0000000000000000\",\"region\":\"matmul\",\"depth\":3,\"perfect\":true,\"deps\":false,\"inner\":1,\"vec\":true,\"best_point\":\"tileI=i16;\",\"best_ms\":\"8000000000000000\",\"best_ms_dec\":-0.000000,\"recipe\":\"CodeReg matmul {\\n    RoseLocus.Interchange(order=[0, 2, 1]);\\n    Pips.Tiling(loop=\\\"0\\\", factor=[8]); # q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\\n}\\n\",\"search\":\"bandit\"}";

fn key() -> StoreKey {
    StoreKey::new(
        vec![("mm".into(), 0xabcd), ("axpy \"x\"".into(), u64::MAX)],
        0x1111,
        0,
    )
}

fn eval(objective: Objective, cycles: f64, wall_ms: f64) -> String {
    let record = EvalRecord {
        point_key: format!("tileI=i32;{NASTY}"),
        variant: 0xdead_beef_cafe_f00d,
        objective,
        cycles,
        ops: u64::MAX,
        flops: 0,
        checksum: 0x0123_4567_89ab_cdef,
        search: "bandit (opentuner-like)".into(),
        wall_ms,
    };
    encode_eval(&key(), &record)
}

/// Decodes a store line and encodes the record again.
fn reencode(line: &str) -> String {
    match decode(line).unwrap_or_else(|| panic!("does not decode: {line}")) {
        Record::Eval { key, record } => encode_eval(&key, &record),
        Record::Prune { key, record } => encode_prune(&key, &record),
        Record::Session { key, record } => encode_session(&key, &record),
    }
}

#[test]
fn store_records_keep_their_bytes_and_decode_bit_for_bit() {
    let prune = PruneRecord {
        point_key: "or:omp=c1;".into(),
        variant: 1,
        reason: format!("data race: {NASTY}"),
        provenance: "exact".into(),
        search: "exhaustive".into(),
    };
    let session = SessionRecord {
        region: "matmul".into(),
        shape: RegionShape {
            depth: 3,
            perfect: true,
            deps_available: false,
            inner_loops: 1,
            vectorizable: true,
        },
        best_point: "tileI=i16;".into(),
        best_ms: -0.0,
        recipe: format!(
            "CodeReg matmul {{\n    RoseLocus.Interchange(order=[0, 2, 1]);\n    \
             Pips.Tiling(loop=\"0\", factor=[8]); # {NASTY}\n}}\n"
        ),
        search: "bandit".into(),
    };
    let lines = [
        (eval(Objective::Value(0.1 + 0.2), -0.0, 0.25), EVAL_VALUE),
        (
            eval(Objective::Value(f64::NAN), f64::INFINITY, 0.5),
            EVAL_NAN,
        ),
        (
            eval(Objective::Invalid, f64::NEG_INFINITY, 0.0),
            EVAL_INVALID,
        ),
        (encode_prune(&key(), &prune), PRUNE),
        (encode_session(&key(), &session), SESSION),
    ];
    for (line, pinned) in lines {
        assert_eq!(line, pinned);
        assert_eq!(reencode(pinned), pinned);
    }
}

#[test]
fn store_lines_the_log_always_accepted_still_decode_the_same() {
    // The `_dec` siblings of NaN and inf are bare words, not numbers.
    assert!(EVAL_NAN.contains("\"ms_dec\":NaN,\"cycles\":\"7ff0000000000000\",\"cycles_dec\":inf"));
    let variants = [
        // Text after the closing brace is ignored by the store.
        format!("{EVAL_NAN} trailing text"),
        // Spaces between fields and around colons are tolerated.
        EVAL_NAN
            .replace(",\"machine\":", " , \"machine\" : ")
            .replace(",\"ms_dec\":", ",  \"ms_dec\":  "),
        // Unknown fields are ignored.
        EVAL_NAN.replacen('{', "{\"future\":7,", 1),
    ];
    for line in variants {
        assert_eq!(reencode(&line), EVAL_NAN, "{line}");
    }
}

const REQUEST: &str =
    "{\"id\":\"id-q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"op\":\"tune\",\"kernel\":\"dgemm\",\"search\":\"sampler\",\"seed\":18446744073709551615,\"budget\":24,\"threads\":4,\"machine\":\"manycore é\",\"deadline_ms\":0}";
const REQUEST_MINIMAL: &str =
    "{\"id\":\"\",\"op\":\"ping\",\"search\":\"bandit\",\"seed\":7,\"budget\":16,\"threads\":1,\"machine\":\"scaled-xeon\"}";
const RESPONSE_OK: &str =
    "{\"id\":\"r-q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"status\":\"ok\",\"program\":\"CodeReg r {\\n  q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\\n}\\n\",\"evaluations\":18446744073709551615,\"empty\":\"\",\"f0\":\"3fd3333333333334\",\"f0_dec\":0.300000,\"f1\":\"7ff8000000000000\",\"f1_dec\":NaN,\"f2\":\"7ff0000000000000\",\"f2_dec\":inf,\"f3\":\"fff0000000000000\",\"f3_dec\":-inf,\"f4\":\"8000000000000000\",\"f4_dec\":-0.000000}";
const RESPONSE_ERROR: &str =
    "{\"id\":\"e-1\",\"status\":\"error\",\"code\":\"panic\",\"message\":\"worker died: q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\"}";

#[test]
fn wire_lines_keep_their_bytes_and_decode_bit_for_bit() {
    let mut request = Request::new(&format!("id-{NASTY}"), Op::Tune);
    request.kernel = "dgemm".into();
    request.search = "sampler".into();
    request.seed = u64::MAX;
    request.budget = 24;
    request.threads = 4;
    request.machine = "manycore é".into();
    request.deadline_ms = Some(0);
    let minimal = Request::new("", Op::Ping);
    for (request, pinned) in [(request, REQUEST), (minimal, REQUEST_MINIMAL)] {
        assert_eq!(request.encode(), pinned);
        assert_eq!(Request::parse(pinned).unwrap(), request);
    }

    let mut response = Response::ok(&format!("r-{NASTY}"))
        .with_str("program", &format!("CodeReg r {{\n  {NASTY}\n}}\n"))
        .with_u64("evaluations", u64::MAX)
        .with_str("empty", "");
    let floats = [0.1 + 0.2, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    for (i, x) in floats.into_iter().enumerate() {
        response = response.with_f64(&format!("f{i}"), x);
    }
    let error = Response::error("e-1", codes::PANIC, &format!("worker died: {NASTY}"));
    for (response, pinned) in [(response, RESPONSE_OK), (error, RESPONSE_ERROR)] {
        assert_eq!(response.encode(), pinned);
        let back = Response::parse(pinned).unwrap();
        assert_eq!(
            (back.id.as_str(), back.ok),
            (response.id.as_str(), response.ok)
        );
        assert_eq!(back.encode(), pinned);
    }
}

#[test]
fn wire_refusals_keep_their_error_codes() {
    let refusals = [
        (r#"{"id":"x","op":"ping"} extra"#, codes::PARSE, "x"),
        (r#"{"id":"x","op":"ping"}}"#, codes::PARSE, "x"),
        (r#"{"id":"x","kernel":"dgemm"}"#, codes::PARSE, "x"),
        (r#"{"id":"x","op":"frobnicate"}"#, codes::UNKNOWN_OP, "x"),
        (r#"{"id":"x","op":"tune","seed":-1}"#, codes::PARSE, "x"),
        (r#"{"id":"x","op":"tune","budget":1.5}"#, codes::PARSE, "x"),
        (
            r#"{"id":"x","op":"tune","threads":99999999999999999999}"#,
            codes::PARSE,
            "x",
        ),
        (
            r#"{"id":"x","op":"tune","deadline_ms":"soon"}"#,
            codes::PARSE,
            "x",
        ),
        (r#"{"id":"x","op":"tune""#, codes::PARSE, "x"),
        (r#"{"id":"x","op":"tune","kernel":"\q"}"#, codes::PARSE, "x"),
        ("not json", codes::PARSE, ""),
        ("", codes::PARSE, ""),
    ];
    for (line, code, id) in refusals {
        let err = Request::parse(line).unwrap_err();
        assert_eq!((err.code, err.id.as_str()), (code, id), "{line}");
    }
}

const TRACE: &str =
    "{\"cat\":\"phase\",\"name\":\"prepare q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"ts_us\":0,\"dur_us\":18446744073709551615,\"lane\":1,\"args\":{}}\n{\"cat\":\"eval\",\"name\":\"point\",\"ts_us\":7,\"lane\":0,\"args\":{\"q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\":\"q\\\"b\\\\s/c\\u0001\\u001f\\t\\r\\n é日本🦀 \u{7f}end\",\"ms\":0.30000000000000004,\"neg\":-0.0,\"big\":1e300,\"min\":-9223372036854775808,\"max\":18446744073709551615,\"ok\":false}}\n";

#[test]
fn trace_lines_keep_their_bytes_and_parse_back() {
    let args = [
        (NASTY, Value::Str(NASTY.into())),
        ("ms", Value::F64(0.1 + 0.2)),
        ("neg", Value::F64(-0.0)),
        ("big", Value::F64(1e300)),
        ("min", Value::I64(i64::MIN)),
        ("max", Value::U64(u64::MAX)),
        ("ok", Value::Bool(false)),
    ];
    let events = vec![
        Event {
            cat: "phase".into(),
            name: format!("prepare {NASTY}"),
            ts_us: 0,
            dur_us: Some(u64::MAX),
            lane: 1,
            args: vec![],
        },
        Event {
            cat: "eval".into(),
            name: "point".into(),
            ts_us: 7,
            dur_us: None,
            lane: 0,
            args: args.map(|(k, v)| (k.to_string(), v)).to_vec(),
        },
    ];
    assert_eq!(to_jsonl(&events), TRACE);
    let back = from_jsonl(TRACE).unwrap();
    assert_eq!(back, events);
    assert_eq!(to_jsonl(&back), TRACE);
    // `\/` is a JSON escape the trace reader has always accepted.
    let slash = from_jsonl(r#"{"cat":"a\/b","name":"n","ts_us":1,"lane":0,"args":{}}"#).unwrap();
    assert_eq!(slash[0].cat, "a/b");
}
