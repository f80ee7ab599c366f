//! The benchmark's own test: a short run of every workload, untraced and
//! traced, done twice. Every metric `BENCHMARK.json` names must be
//! emitted with its unit, every output check must pass, and every
//! deterministic counter must repeat exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root (a few minutes on two cores).

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["dgemm-search", "dgemm-sweep", "service-mix"];

/// End-to-end metrics that are simulated or counted, not timed.
const EXACT_END_TO_END: [&str; 2] = ["best_speedup", "evals_to_best"];

/// Per-layer counters that must repeat exactly.
const EXACT_PER_LAYER: [&str; 11] = [
    "machine.runs",
    "machine.sim_ops",
    "machine.l1_miss_ratio",
    "machine.l2_miss_ratio",
    "machine.l3_miss_ratio",
    "memo.point_hits",
    "memo.variant_hits",
    "memo.coalesced",
    "memo.store_hits",
    "memo.misses",
    "store.records_appended",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark's directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').expect("section closes") + start;
    text[start..end]
        .lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` in one line.
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

/// One parsed result line.
struct Outcome {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Parses the benchmark's result line (the fixed shape `result_line`
/// writes: `"name": {"value": v, "unit": "u"}` per metric).
fn parse(line: &str) -> Outcome {
    let correct = line.contains("\"correct\": true");
    let failed_at = line.find("\"failed\": ").expect("failed field") + 10;
    let failed = line[failed_at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("failed count");
    let body = &line[line.find("\"metrics\": {").expect("metrics field") + 12..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value_at = entry.find("\"value\": ").expect("value") + 9;
        let value: f64 = entry[value_at..]
            .split(',')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .expect("numeric value");
        let unit = field(entry, "unit").expect("unit");
        metrics.insert(name, (value, unit));
    }
    Outcome {
        correct,
        failed,
        metrics,
    }
}

fn run(workload: &str, trace: u8) -> Outcome {
    let work = tempdir();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
        ])
        .arg(trace.to_string())
        .current_dir(&work)
        .output()
        .expect("the benchmark runs");
    std::fs::remove_dir_all(&work).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

/// A fresh working directory for one run, under the build directory.
fn tempdir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create a working directory");
    dir
}

fn check_section(workload: &str, trace: u8, section: &str, exact: &[&str]) {
    let declared = declared(section);
    let first = run(workload, trace);
    let second = run(workload, trace);
    for outcome in [&first, &second] {
        assert!(outcome.correct, "{workload}: an output check failed");
        let names: Vec<&String> = outcome.metrics.keys().collect();
        assert_eq!(names.len(), declared.len(), "{workload}: emitted {names:?}");
        for (name, unit) in &declared {
            let (_, got) = outcome
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(got, unit, "{workload}: unit of {name}");
        }
    }
    assert_eq!(
        first.failed, second.failed,
        "{workload}: failed operations differ"
    );
    for name in exact {
        let a = first.metrics[*name].0;
        let b = second.metrics[*name].0;
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{workload}: {name} differs: {a} vs {b}"
        );
    }
}

#[test]
fn end_to_end_metrics_are_emitted_and_exact_ones_repeat() {
    for workload in WORKLOADS {
        check_section(workload, 0, "end_to_end", &EXACT_END_TO_END);
    }
}

#[test]
fn per_layer_metrics_are_emitted_and_counters_repeat() {
    for workload in WORKLOADS {
        check_section(workload, 1, "per_layer", &EXACT_PER_LAYER);
    }
}
