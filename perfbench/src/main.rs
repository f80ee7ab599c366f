//! The Locus tuning benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dgemm-search|dgemm-sweep|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it replays the run's sessions on one thread
//! with a span around every call into a layer and reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! nonzero when any output check fails. See `NOTES.md` for the design.

mod dgemm;
mod layers;
mod replay;
mod service;
mod session;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{result_line, Checks};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Stores, shard files and span logs live under the working
    // directory; each run gets its own scratch directory.
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }

    // Time the hypervisor steals from this virtual machine slows every
    // wall-clock metric; stderr reports its share to explain noisy runs.
    let ticks = stats::CpuTicks::now();
    let mut checks = Checks::default();
    let (metrics, spans) = match (args.workload.as_str(), args.trace) {
        ("dgemm-search", false) => (
            dgemm::run(&dgemm::SEARCH, args.seed, args.seconds, &work, &mut checks),
            None,
        ),
        ("dgemm-sweep", false) => (
            dgemm::run(&dgemm::SWEEP, args.seed, args.seconds, &work, &mut checks),
            None,
        ),
        ("service-mix", false) => (
            service::run(args.seed, args.seconds, &work, &mut checks),
            None,
        ),
        ("dgemm-search", true) => {
            let (m, s) = dgemm::traced(&dgemm::SEARCH, args.seed, &work, &mut checks);
            (m, Some(s))
        }
        ("dgemm-sweep", true) => {
            let (m, s) = dgemm::traced(&dgemm::SWEEP, args.seed, &work, &mut checks);
            (m, Some(s))
        }
        ("service-mix", true) => {
            let (m, s) = service::traced(args.seed, &work, &mut checks);
            (m, Some(s))
        }
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::fs::remove_dir_all(&work).ok();
            return ExitCode::from(2);
        }
    };
    std::fs::remove_dir_all(&work).ok();
    if let Some(spans) = spans {
        let path = root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    eprintln!(
        "perfbench: hypervisor steal {:.1}% of the CPU time wanted during the run",
        100.0 * ticks.steal_share_since()
    );
    eprintln!(
        "perfbench: process peak resident set (VmHWM) {:.2} MiB",
        stats::peak_rss_mb()
    );
    eprintln!(
        "perfbench: failed_frac {} ({} of {} operations)",
        stats::ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    let correct = checks.failed_checks == 0;
    println!("{}", result_line(correct, &checks, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
