//! The two library workloads: the Fig. 7 DGEMM program tuned by the
//! parallel driver against a fresh single-file store.
//!
//! * `dgemm-search` — n=32, tiles up to 16 (524,288 points), the bandit
//!   tuner, budget 128. A run tunes a fixed list of sessions whose
//!   bandit seeds derive from `--seed`; the machine layer does most of
//!   the work. The list is long (32 sessions) and the budget modest so
//!   that the run's medians and means average many search trajectories:
//!   each session's time and evaluations-to-best depend on its seed.
//! * `dgemm-sweep` — n=8, tiles up to 4 (8192 points), exhaustive. The
//!   sweep has no randomness, so `--seed` changes nothing; the serial
//!   build and digest on the driver thread dominate.

use std::path::{Path, PathBuf};
use std::time::Instant;

use locus_core::{LocusSystem, TuneReport, TuneResult};
use locus_lang::LocusProgram;
use locus_machine::{ExecEngine, Machine, MachineConfig};
use locus_search::{BanditTuner, ExhaustiveSearch, SearchModule};
use locus_space::rng::SplitMix64;
use locus_srcir::ast::Program;
use locus_store::TuningStore;
use locus_trace::Tracer;

use crate::layers::{per_layer, DaemonView, TracedRun};
use crate::replay::{replay_session, Counters, StoreRef};
use crate::session::{evals_to_best, store_counts, Clocked, Fingerprint};
use crate::spans::Spans;
use crate::stats::{mean, median, metric, percentile, Checks, CpuTicks, Metric, RssPeak};

/// Worker threads of every session (the host has two cores).
const THREADS: usize = 2;
/// Set-up is repeated this many times before each session of a run;
/// the median over the run is reported.
const SETUP_REPEATS: usize = 20;

/// One DGEMM workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    name: &'static str,
    n: usize,
    max_tile: i64,
    space_size: u128,
    budget: usize,
    /// Distinct sessions in a run's list.
    sessions: usize,
    /// Sessions the traced run replays (a prefix of the list).
    traced_sessions: usize,
    machine: fn() -> MachineConfig,
    bandit: bool,
}

pub const SEARCH: Shape = Shape {
    name: "dgemm-search",
    n: 32,
    max_tile: 16,
    space_size: 524_288,
    budget: 128,
    sessions: 32,
    traced_sessions: 3,
    machine: MachineConfig::scaled_small,
    bandit: true,
};

pub const SWEEP: Shape = Shape {
    name: "dgemm-sweep",
    n: 8,
    max_tile: 4,
    space_size: 8192,
    budget: 8192,
    sessions: 1,
    traced_sessions: 1,
    machine: MachineConfig::scaled_tiny,
    bandit: false,
};

/// The generated inputs of one run.
struct Inputs {
    system: LocusSystem,
    source: Program,
    locus: LocusProgram,
    seeds: Vec<u64>,
}

impl Shape {
    fn search(&self, seed: u64) -> Box<dyn SearchModule> {
        if self.bandit {
            Box::new(BanditTuner::new(seed))
        } else {
            Box::new(ExhaustiveSearch::new())
        }
    }

    /// Generates the inputs and checks them: the program must prepare
    /// into the expected space.
    fn inputs(&self, seed: u64, checks: &mut Checks) -> Inputs {
        let source = locus_corpus::dgemm_program(self.n);
        let locus = locus_bench::fig6::fig7_locus_program(self.max_tile);
        let system = LocusSystem::new(Machine::new((self.machine)()));
        let size = system.prepare(&source, &locus).map(|p| p.space.size());
        checks.check(size.as_ref().ok() == Some(&self.space_size), || {
            format!("space size {size:?}, expected {}", self.space_size)
        });
        let mut rng = SplitMix64::new(seed);
        let seeds = (0..self.sessions).map(|_| rng.next_u64() >> 16).collect();
        Inputs {
            system,
            source,
            locus,
            seeds,
        }
    }
}

/// One untraced session's observations.
struct Session {
    wall_s: f64,
    /// Share of the busy CPU time the hypervisor stole during the session.
    steal: f64,
    /// Peak resident set during the session, MiB.
    peak_rss_mb: f64,
    result: TuneResult,
    report: TuneReport,
    simulated: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
}

impl Session {
    /// The share of the session's wall-clock the host did not steal.
    fn unstolen(&self) -> f64 {
        1.0 - self.steal
    }

    /// The session's steal-adjusted wall-clock.
    fn busy_s(&self) -> f64 {
        self.wall_s * self.unstolen()
    }
}

fn fresh_store(path: &Path) -> TuningStore {
    std::fs::remove_file(path).ok();
    TuningStore::open(path).expect("open a fresh tuning store")
}

/// Runs one session through the real driver, untraced unless `tracer`
/// is enabled.
fn run_session(
    inputs: &Inputs,
    shape: &Shape,
    seed: u64,
    store: &Path,
    tracer: &Tracer,
) -> Session {
    let mut store = fresh_store(store);
    let mut search = Clocked::new(shape.search(seed));
    let rss = RssPeak::start();
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let (result, report) = inputs
        .system
        .tune_parallel_with_store_and_tracer(
            &inputs.source,
            &inputs.locus,
            &mut search,
            shape.budget,
            THREADS,
            &mut store,
            tracer,
        )
        .expect("the DGEMM session runs");
    let wall_s = start.elapsed().as_secs_f64();
    let steal = ticks.steal_share_since();
    let peak_rss_mb = rss.stop();
    let (simulated, failed) = store_counts(&store);
    Session {
        wall_s,
        steal,
        peak_rss_mb,
        result,
        report,
        simulated,
        failed,
        latencies_ms: search.latencies_ms,
    }
}

/// The output checks of a session's winner: its checksum equals the
/// baseline's, and re-measured on the tree interpreter (the oracle
/// engine) it gives a bit-identical measurement.
fn check_winner(system: &LocusSystem, session: &Session, checks: &mut Checks) {
    let Some((point, program, m)) = &session.result.best else {
        checks.check(false, || "the session found no winner".to_string());
        return;
    };
    checks.check(m.checksum == session.result.baseline.checksum, || {
        format!(
            "winner {} checksum differs from the baseline's",
            point.canonical_key()
        )
    });
    let oracle = Machine::new(
        system
            .machine
            .config()
            .clone()
            .with_engine(ExecEngine::Tree),
    );
    let again = oracle.run(program, &system.entry);
    checks.check(again.as_ref() == Ok(m), || {
        format!(
            "winner {} re-measured on the tree engine differs",
            point.canonical_key()
        )
    });
}

/// The untraced run: every end-to-end metric.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    work: &Path,
    checks: &mut Checks,
) -> Vec<Metric> {
    let store_path = work.join("session.jsonl");
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    // Set-up runs before every session, so its samples spread over the
    // whole run. One sample is far shorter than the kernel's 10 ms
    // accounting tick, so a block of samples is steal-adjusted by the
    // share stolen during the session that follows it. The space check
    // of every repeat is tallied once.
    let mut setup_checks = Checks::default();
    let mut set_up = || {
        let (mut inputs, mut block) = (None, Vec::new());
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            let generated = shape.inputs(seed, &mut setup_checks);
            drop(fresh_store(&store_path));
            block.push(start.elapsed().as_secs_f64());
            inputs = Some(generated);
        }
        (inputs.expect("set-up ran"), block)
    };

    let start = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut firsts: Vec<Fingerprint> = Vec::new();
    let mut all_repeated = true;
    let (mut inputs, mut block) = set_up();
    while sessions.len() < shape.sessions || start.elapsed().as_secs_f64() < seconds {
        if !sessions.is_empty() {
            (inputs, block) = set_up();
        }
        let i = sessions.len() % shape.sessions;
        let session = run_session(
            &inputs,
            shape,
            inputs.seeds[i],
            &store_path,
            &Tracer::disabled(),
        );
        setups.extend(block.iter().map(|t| t * session.unstolen()));
        raw_setups.append(&mut block);
        let fingerprint = Fingerprint::of(&session.result, &session.report);
        if sessions.len() < shape.sessions {
            firsts.push(fingerprint);
        } else {
            all_repeated &= fingerprint == firsts[i];
        }
        sessions.push(session);
    }

    checks.check(setup_checks.failed_checks == 0, || {
        "a set-up prepared a space of the wrong size".to_string()
    });
    checks.check(all_repeated, || {
        "a repeated session changed its fingerprint".to_string()
    });
    let list = &sessions[..shape.sessions];
    let mut winners_checked = std::collections::HashSet::new();
    for session in list {
        let key = session
            .result
            .best
            .as_ref()
            .map(|(p, _, _)| p.canonical_key());
        if winners_checked.insert(key) {
            check_winner(&inputs.system, session, checks);
        }
    }
    // The list's proposals are the run's operations; a variant recorded
    // as `Error` is a failed one. Later repeats are checked above.
    checks.operations(
        list.iter().map(|s| s.report.proposed as u64).sum(),
        list.iter().map(|s| s.failed).sum(),
    );

    // Rates and latency percentiles are medians of per-session values,
    // so a slow moment on a shared host moves them little. Every time is
    // steal-adjusted (see `stats::CpuTicks`).
    let per_session = |value: &dyn Fn(&Session) -> f64| -> f64 {
        median(&sessions.iter().map(value).collect::<Vec<_>>())
    };
    eprintln!(
        "perfbench: {} sessions, {} requests, {} simulations; median session {:.4} s unadjusted, {:.1}% stolen; set-up p10/p50/p90 {:.6}/{:.6}/{:.6} s unadjusted",
        sessions.len(),
        sessions.iter().map(|s| s.latencies_ms.len()).sum::<usize>(),
        sessions.iter().map(|s| s.simulated).sum::<u64>(),
        per_session(&|s| s.wall_s),
        100.0 * per_session(&|s| s.steal),
        percentile(&raw_setups, 0.1),
        median(&raw_setups),
        percentile(&raw_setups, 0.9),
    );
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("session_s", per_session(&|s| s.busy_s()), "s"),
        metric(
            "req_p50_ms",
            per_session(&|s| percentile(&s.latencies_ms, 0.50) * s.unstolen()),
            "ms",
        ),
        metric(
            "req_p95_ms",
            per_session(&|s| percentile(&s.latencies_ms, 0.95) * s.unstolen()),
            "ms",
        ),
        metric(
            "evals_per_s",
            per_session(&|s| s.simulated as f64 / s.busy_s()),
            "1/s",
        ),
        metric(
            "points_per_s",
            per_session(&|s| s.report.proposed as f64 / s.busy_s()),
            "1/s",
        ),
        metric(
            "req_per_s",
            per_session(&|s| s.latencies_ms.len() as f64 / s.busy_s()),
            "1/s",
        ),
        metric(
            "best_speedup",
            locus_bench::geomean(&list.iter().map(|s| s.result.speedup()).collect::<Vec<_>>()),
            "x",
        ),
        metric(
            "evals_to_best",
            mean(
                &list
                    .iter()
                    .filter_map(|s| evals_to_best(&s.result))
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric("peak_rss_mb", per_session(&|s| s.peak_rss_mb), "MiB"),
    ]
}

/// The traced run: the first sessions of the list run untraced, then
/// with the driver's own tracer, then replayed on one thread with the
/// benchmark's spans. Every replay must reproduce its session's
/// fingerprint.
pub fn traced(shape: &Shape, seed: u64, work: &Path, checks: &mut Checks) -> (Vec<Metric>, Spans) {
    let inputs = shape.inputs(seed, checks);
    let store_path: PathBuf = work.join("session.jsonl");
    let seeds = &inputs.seeds[..shape.traced_sessions];

    let mut untraced_s = 0.0;
    let mut fingerprints = Vec::new();
    let mut simulated = 0;
    for &s in seeds {
        let session = run_session(&inputs, shape, s, &store_path, &Tracer::disabled());
        untraced_s += session.wall_s;
        simulated += session.simulated;
        fingerprints.push(Fingerprint::of(&session.result, &session.report));
    }

    let tracer = Tracer::enabled();
    let mut driver_traced_s = 0.0;
    for (&s, expected) in seeds.iter().zip(&fingerprints) {
        let session = run_session(&inputs, shape, s, &store_path, &tracer);
        driver_traced_s += session.wall_s;
        checks.check(
            &Fingerprint::of(&session.result, &session.report) == expected,
            || "a session traced by the driver changed its result".to_string(),
        );
    }

    let spans = Spans::new();
    let mut counters = Counters::default();
    let mut store_bytes = 0.0;
    for (i, (&s, expected)) in seeds.iter().zip(&fingerprints).enumerate() {
        spans.set_session(i as u64);
        std::fs::remove_file(&store_path).ok();
        let mut store = {
            let _span = spans.enter("store.open");
            TuningStore::open(&store_path).expect("open a fresh tuning store")
        };
        let mut search = shape.search(s);
        let replayed = replay_session(
            &inputs.system,
            &inputs.source,
            &inputs.locus,
            search.as_mut(),
            shape.budget,
            StoreRef::Single(&mut store),
            &spans,
            &mut counters,
        );
        store_bytes += std::fs::metadata(&store_path).map_or(0.0, |m| m.len() as f64);
        match replayed {
            Ok((result, report)) => {
                let got = Fingerprint::of(&result, &report);
                checks.check(&got == expected, || {
                    format!(
                        "replay of session {i} diverged:\n  driver {expected:?}\n  replay {got:?}"
                    )
                });
            }
            Err(e) => checks.check(false, || format!("replay of session {i} failed: {e}")),
        }
    }
    checks.check(counters.variant_runs == simulated, || {
        format!(
            "the replay simulated {} variants, the driver's store records {simulated}",
            counters.variant_runs
        )
    });
    let run = TracedRun {
        spans: spans.clone(),
        counters,
        untraced_s,
        driver_traced_s,
        driver_events: tracer.events(),
        store_bytes,
        daemon: DaemonView::default(),
    };
    (per_layer(shape.name, &run), spans)
}
