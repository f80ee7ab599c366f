//! The `service-mix` workload: an in-process `locusd` with two workers,
//! a sharded store and one evaluation thread per request, driven over
//! loopback by two closed-loop clients.
//!
//! In each pass, each client tunes the 15 registry kernels, each on one
//! of the four machine profiles, with all seven search modules, and
//! sends `suggest`, `stats` and `ping` requests. Each (kernel, profile)
//! pair belongs to one client, so every store key a client touches
//! evolves in that client's order: whether a tune is cold or warm, and
//! its reply, is deterministic. Every tune key is sent twice, so half
//! the tunes are warm. Each pass runs against a fresh daemon and store.

use std::path::Path;
use std::time::Instant;

use locus_core::{LocusSystem, TuneReport, TuneResult};
use locus_corpus::registry::{all_programs, CorpusEntry};
use locus_daemon::{Client, Daemon, DaemonConfig, Op, Request, Response};
use locus_machine::profiles::all_profiles;
use locus_machine::{ExecEngine, Machine, MachineConfig};
use locus_space::rng::SplitMix64;
use locus_store::{ShardedStore, TuningStore, DEFAULT_SHARDS};
use locus_trace::Tracer;

use crate::layers::{per_layer, DaemonView, TracedRun};
use crate::replay::{replay_session, Counters, StoreRef};
use crate::session::{evals_to_best, make_search, store_counts, SEARCHES};
use crate::spans::Spans;
use crate::stats::{mean, median, metric, percentile, Checks, CpuTicks, Metric, RssPeak};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SUGGESTS_PER_CLIENT: usize = 30;
const STATS_PER_CLIENT: usize = 15;
const PINGS_PER_CLIENT: usize = 15;
/// The daemon's default per-request budget.
const BUDGET: usize = 16;

/// One client's request stream.
type Stream = Vec<Request>;

/// The seeded request streams of one pass, one per client, and the
/// (kernel, profile) pairs whose tunes the library check repeats.
///
/// Each client tunes every kernel on one profile with every search: one
/// tune key per (kernel, profile, search), sent twice. So each pass
/// tunes the same mix of kernels and searches whatever the seed, and
/// the clients' loads are alike. The seed deals each kernel's profiles
/// to the clients, draws the search seeds, picks one checked profile
/// per kernel, and orders each stream.
fn plan(
    seed: u64,
    registry: &[CorpusEntry],
    profiles: &[String],
) -> (Vec<Stream>, Vec<(String, String)>) {
    let mut rng = SplitMix64::new(seed);
    let mut streams: Vec<Stream> = vec![Vec::new(); CLIENTS];
    let mut checked = Vec::new();
    for entry in registry {
        let mut dealt: Vec<usize> = (0..profiles.len()).collect();
        rng.shuffle(&mut dealt);
        checked.push((
            entry.name.to_string(),
            profiles[dealt[rng.below_usize(CLIENTS)]].clone(),
        ));
        for (client, &p) in dealt.iter().take(CLIENTS).enumerate() {
            for search in SEARCHES {
                let mut tune = Request::new("", Op::Tune);
                tune.kernel = entry.name.to_string();
                tune.machine = profiles[p].clone();
                tune.search = search.to_string();
                tune.seed = rng.next_u64() >> 16;
                tune.budget = BUDGET;
                tune.threads = 1;
                streams[client].push(tune.clone());
                streams[client].push(tune);
            }
        }
    }
    for (c, stream) in streams.iter_mut().enumerate() {
        for _ in 0..SUGGESTS_PER_CLIENT {
            let mut suggest = Request::new("", Op::Suggest);
            suggest.kernel = registry[rng.below_usize(registry.len())].name.to_string();
            stream.push(suggest);
        }
        stream.extend((0..STATS_PER_CLIENT).map(|_| Request::new("", Op::Stats)));
        stream.extend((0..PINGS_PER_CLIENT).map(|_| Request::new("", Op::Ping)));
        rng.shuffle(stream);
        for (i, request) in stream.iter_mut().enumerate() {
            request.id = format!("c{c}-{i}");
        }
    }
    (streams, checked)
}

/// Whether each request of a stream is the first tune of its key.
fn cold_flags(stream: &Stream) -> Vec<bool> {
    let mut seen = std::collections::HashSet::new();
    stream
        .iter()
        .map(|r| r.op == Op::Tune && seen.insert((&r.kernel, &r.machine, &r.search, r.seed)))
        .collect()
}

/// One answered request.
struct Answer {
    latency_ms: f64,
    reply: Option<Response>,
}

/// One pass of both streams against a fresh daemon.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// Share of the busy CPU time the hypervisor stole during the pass.
    steal: f64,
    /// Peak resident set during the pass, MiB.
    peak_rss_mb: f64,
    answers: Vec<Vec<Answer>>,
    simulated: u64,
    failed_evals: u64,
}

fn daemon_config(dir: &Path) -> DaemonConfig {
    let mut config = DaemonConfig::new(dir);
    config.workers = WORKERS;
    config.max_threads = 1;
    config
}

fn run_pass(streams: &[Stream], dir: &Path) -> Result<Pass, String> {
    std::fs::remove_dir_all(dir).ok();
    let setup = Instant::now();
    let mut daemon = Daemon::start(daemon_config(dir)).map_err(|e| format!("daemon start: {e}"))?;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let mut client = Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
        if !client
            .ping(&format!("setup-{c}"))
            .map_err(|e| format!("ping: {e}"))?
        {
            return Err("the daemon refused a ping".to_string());
        }
        clients.push(client);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let rss = RssPeak::start();
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut answers = Vec::with_capacity(stream.len());
                    for request in stream {
                        let sent = Instant::now();
                        let reply = client.request(request).ok();
                        answers.push(Answer {
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            reply,
                        });
                    }
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal = ticks.steal_share_since();
    let peak_rss_mb = rss.stop();
    drop(clients);
    daemon.stop();

    let (simulated, failed_evals) = shard_counts(dir)?;
    Ok(Pass {
        setup_s,
        wall_s,
        steal,
        peak_rss_mb,
        answers,
        simulated,
        failed_evals,
    })
}

/// Simulations and failed evaluations recorded in a closed sharded
/// store (see [`store_counts`]).
fn shard_counts(dir: &Path) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for shard in 0..DEFAULT_SHARDS {
        let path = dir.join(format!("shard-{shard:02}.jsonl"));
        let store =
            TuningStore::open_read_only(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (simulated, failed) = store_counts(&store);
        total = (total.0 + simulated, total.1 + failed);
    }
    Ok(total)
}

/// The parts of a tune reply that must be bit-identical between the
/// daemon and the library.
fn reply_print(r: &Response) -> Vec<String> {
    let mut out = vec![format!("ok={}", r.ok)];
    for key in ["best_point", "checksum", "space_size"] {
        out.push(format!("{key}={:?}", r.get_str(key)));
    }
    for key in ["evaluations", "rehydrated", "appended", "proposed"] {
        out.push(format!("{key}={:?}", r.get_u64(key)));
    }
    for key in ["baseline_ms", "speedup", "best_ms"] {
        out.push(format!("{key}={:?}", r.get_f64(key).map(f64::to_bits)));
    }
    out
}

/// The same print computed from a library call's result.
fn library_print(result: &TuneResult, report: &TuneReport) -> Vec<String> {
    let (best_point, best_ms, checksum) = match &result.best {
        Some((p, _, m)) => (
            p.canonical_key(),
            m.time_ms,
            Some(format!("{:016x}", m.checksum)),
        ),
        None => (String::new(), result.baseline.time_ms, None),
    };
    vec![
        "ok=true".to_string(),
        format!("best_point={:?}", Some(best_point)),
        format!("checksum={:?}", checksum),
        format!("space_size={:?}", Some(result.space_size.to_string())),
        format!("evaluations={:?}", Some(report.evaluations() as u64)),
        format!("rehydrated={:?}", Some(report.rehydrated as u64)),
        format!("appended={:?}", Some(report.appended as u64)),
        format!("proposed={:?}", Some(report.proposed as u64)),
        format!("baseline_ms={:?}", Some(result.baseline.time_ms.to_bits())),
        format!("speedup={:?}", Some(result.speedup().to_bits())),
        format!("best_ms={:?}", Some(best_ms.to_bits())),
    ]
}

/// The generated inputs of one pass.
struct Setting {
    registry: Vec<CorpusEntry>,
    profiles: Vec<(String, MachineConfig)>,
    streams: Vec<Stream>,
    /// (kernel, profile) pairs whose tunes are repeated through the
    /// library: one profile per kernel, every search.
    checked: Vec<(String, String)>,
}

impl Setting {
    fn new(seed: u64) -> Setting {
        let registry = all_programs();
        let profiles: Vec<(String, MachineConfig)> = all_profiles()
            .into_iter()
            .map(|p| (p.name.to_string(), p.config))
            .collect();
        let names: Vec<String> = profiles.iter().map(|(n, _)| n.clone()).collect();
        let (streams, checked) = plan(seed, &registry, &names);
        Setting {
            registry,
            profiles,
            streams,
            checked,
        }
    }

    fn entry(&self, name: &str) -> &CorpusEntry {
        self.registry
            .iter()
            .find(|e| e.name == name)
            .expect("planned kernels exist")
    }

    fn system(&self, machine: &str) -> LocusSystem {
        let config = &self
            .profiles
            .iter()
            .find(|(n, _)| n == machine)
            .expect("planned profiles exist")
            .1;
        LocusSystem::new(Machine::new(config.clone()))
    }

    /// The tune requests of the checked (kernel, profile) pairs, with
    /// their client and stream position, client by client in stream
    /// order. Each pair's store key sees exactly these tunes, in this
    /// order, in the daemon too.
    fn checked_tunes(&self) -> impl Iterator<Item = (usize, usize, &Request)> {
        self.streams.iter().enumerate().flat_map(move |(c, s)| {
            s.iter()
                .enumerate()
                .filter(move |(_, r)| {
                    r.op == Op::Tune
                        && self
                            .checked
                            .iter()
                            .any(|(k, m)| *k == r.kernel && *m == r.machine)
                })
                .map(move |(i, r)| (c, i, r))
        })
    }
}

/// Runs the checked tunes through the library's sharded-store entry
/// point — the call `locusd` makes — against a fresh store, and checks
/// each result against the daemon's reply, bit for bit, and its winner
/// against the tree-interpreter oracle. Returns the results and the
/// wall-clock they took.
fn mirror(
    setting: &Setting,
    pass: &Pass,
    dir: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
) -> (Vec<TuneResult>, f64) {
    std::fs::remove_dir_all(dir).ok();
    let store = ShardedStore::open(dir, DEFAULT_SHARDS).expect("open the mirror store");
    let mut results = Vec::new();
    let mut wall_s = 0.0;
    let mut oracle_checked = std::collections::HashSet::new();
    for (c, i, request) in setting.checked_tunes() {
        let entry = setting.entry(&request.kernel);
        let system = setting.system(&request.machine);
        let mut search =
            make_search(&request.search, request.seed).expect("planned searches exist");
        let start = Instant::now();
        let tuned = system.tune_parallel_with_sharded_store(
            &entry.program,
            &entry.locus_program(),
            search.as_mut(),
            request.budget,
            1,
            &store,
            tracer,
        );
        wall_s += start.elapsed().as_secs_f64();
        let Ok((result, report)) = tuned else {
            checks.check(false, || format!("library tune {} failed", request.id));
            continue;
        };
        let reply = pass.answers[c][i].reply.as_ref();
        checks.check(
            reply.map(reply_print) == Some(library_print(&result, &report)),
            || format!("daemon reply {} differs from the library call", request.id),
        );
        if let Some((point, program, m)) = &result.best {
            checks.check(m.checksum == result.baseline.checksum, || {
                format!("{} winner checksum differs from the baseline's", request.id)
            });
            if oracle_checked.insert((
                request.kernel.clone(),
                request.machine.clone(),
                point.canonical_key(),
            )) {
                let oracle = Machine::new(
                    system
                        .machine
                        .config()
                        .clone()
                        .with_engine(ExecEngine::Tree),
                );
                checks.check(oracle.run(program, &system.entry).as_ref() == Ok(m), || {
                    format!(
                        "{} winner re-measured on the tree engine differs",
                        request.id
                    )
                });
            }
        }
        results.push(result);
    }
    (results, wall_s)
}

/// Counts a pass's requests, proposals and error replies.
fn tally(setting: &Setting, pass: &Pass) -> (u64, u64, u64) {
    let (mut requests, mut proposed, mut errors) = (0, 0, 0);
    for (stream, answers) in setting.streams.iter().zip(&pass.answers) {
        for (request, answer) in stream.iter().zip(answers) {
            requests += 1;
            let reply = answer.reply.as_ref();
            proposed += reply.and_then(|r| r.get_u64("proposed")).unwrap_or(0);
            if !reply.is_some_and(|r| r.ok) {
                errors += 1;
                eprintln!("perfbench: request {} failed: {reply:?}", request.id);
            }
        }
    }
    (requests, proposed, errors)
}

/// Where, across a run's passes, a per-pass timing is read: the first
/// quartile of latencies, and the same quartile from the other end for
/// rates. A busy host only ever slows a pass, and a burst of it
/// stretches the latency tail of the passes it hits most; this quartile
/// still takes a quarter of the passes' plans but leaves out the passes
/// hit hardest. Read at the median, `req_p95_ms` spread by a quarter of
/// its median over ten runs on a busy shared host.
const FAST_QUARTILE: f64 = 0.25;

/// The plan seed of a run's `pass`-th pass.
fn pass_seed(seed: u64, pass: usize) -> u64 {
    SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64() >> 16
}

/// The untraced run: every end-to-end metric. Each pass tunes a plan of
/// its own, drawn from the run's seed. Each timing is taken per pass
/// (each pass has 540 requests, 27 beyond its p95) and reported at
/// [`FAST_QUARTILE`] across passes, so it hangs on no one plan. The
/// first pass holds the run's accounted operations, and its checked
/// tunes repeat through the library.
pub fn run(seed: u64, seconds: f64, work: &Path, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let mut first: Option<(Setting, Pass)> = None;
    let (mut setups, mut tune_s, mut p50, mut p95) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut req_rate, mut eval_rate, mut point_rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steals, mut unadjusted_p95, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut tune_count) = (0, 0);
    let mut error_replies = 0;
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let setting = Setting::new(pass_seed(seed, passes));
        let pass = match run_pass(&setting.streams, &work.join("daemon")) {
            Ok(pass) => pass,
            Err(e) => {
                checks.check(false, || format!("service pass failed: {e}"));
                break;
            }
        };
        let (n, p, errors) = tally(&setting, &pass);
        setups.push(pass.setup_s);
        // Every time is steal-adjusted by the pass's stolen share (see
        // `stats::CpuTicks`).
        let unstolen = 1.0 - pass.steal;
        steals.push(pass.steal);
        rss.push(pass.peak_rss_mb);
        let (mut latencies, mut tunes) = (Vec::new(), Vec::new());
        for (stream, answers) in setting.streams.iter().zip(&pass.answers) {
            for (request, answer) in stream.iter().zip(answers) {
                latencies.push(answer.latency_ms * unstolen);
                if request.op == Op::Tune {
                    tunes.push(answer.latency_ms * 1e-3 * unstolen);
                }
            }
        }
        tune_count += tunes.len();
        tune_s.push(median(&tunes));
        p50.push(percentile(&latencies, 0.50));
        p95.push(percentile(&latencies, 0.95));
        unadjusted_p95.push(percentile(&latencies, 0.95) / unstolen);
        requests += n;
        let busy_s = pass.wall_s * unstolen;
        req_rate.push(n as f64 / busy_s);
        eval_rate.push(pass.simulated as f64 / busy_s);
        point_rate.push(p as f64 / busy_s);
        error_replies += errors;
        passes += 1;
        if first.is_none() {
            checks.operations(n + p, errors + pass.failed_evals);
            first = Some((setting, pass));
        }
    }
    // Every request of every pass must get an `ok` reply. One check
    // covers them all, so the attempted count does not grow with the
    // number of passes a faster program fits into the run.
    checks.check(error_replies == 0, || {
        format!("{error_replies} error replies over {passes} passes")
    });
    let Some((setting, pass)) = first else {
        return Vec::new();
    };
    let (results, _) = mirror(
        &setting,
        &pass,
        &work.join("mirror"),
        &Tracer::disabled(),
        checks,
    );
    let speedups: Vec<f64> = pass
        .answers
        .iter()
        .flatten()
        .filter_map(|a| a.reply.as_ref().and_then(|r| r.get_f64("speedup")))
        .collect();
    eprintln!(
        "perfbench: {passes} passes, {requests} requests ({} tunes); p95 {:.4} ms unadjusted, {:.1}% stolen; set-up p10/p50/p90 {:.5}/{:.5}/{:.5} s",
        tune_count,
        percentile(&unadjusted_p95, FAST_QUARTILE),
        100.0 * median(&steals),
        percentile(&setups, 0.1),
        median(&setups),
        percentile(&setups, 0.9),
    );
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("session_s", percentile(&tune_s, FAST_QUARTILE), "s"),
        metric("req_p50_ms", percentile(&p50, FAST_QUARTILE), "ms"),
        metric("req_p95_ms", percentile(&p95, FAST_QUARTILE), "ms"),
        metric("evals_per_s", percentile(&eval_rate, 1.0 - FAST_QUARTILE), "1/s"),
        metric("points_per_s", percentile(&point_rate, 1.0 - FAST_QUARTILE), "1/s"),
        metric("req_per_s", percentile(&req_rate, 1.0 - FAST_QUARTILE), "1/s"),
        metric("best_speedup", locus_bench::geomean(&speedups), "x"),
        metric(
            "evals_to_best",
            mean(&results.iter().filter_map(evals_to_best).collect::<Vec<_>>()),
            "count",
        ),
        metric("peak_rss_mb", median(&rss), "MiB"),
    ]
}

/// The client-side view of the daemon in one pass.
fn daemon_view(setting: &Setting, pass: &Pass) -> DaemonView {
    let mut by_kind: [Vec<f64>; 4] = Default::default();
    let mut view = DaemonView::default();
    for (stream, answers) in setting.streams.iter().zip(&pass.answers) {
        for ((request, answer), cold) in stream.iter().zip(answers).zip(cold_flags(stream)) {
            let kind = match (request.op, cold) {
                (Op::Ping, _) => 0,
                (Op::Tune, true) => 1,
                (Op::Tune, false) => 2,
                (Op::Suggest, _) => 3,
                _ => {
                    let queued = answer.reply.as_ref().and_then(|r| r.get_u64("queued"));
                    view.queued_max = view.queued_max.max(queued.unwrap_or(0) as f64);
                    continue;
                }
            };
            by_kind[kind].push(answer.latency_ms);
            if !answer.reply.as_ref().is_some_and(|r| r.ok) {
                view.error_replies += 1.0;
            }
        }
    }
    view.ping_ms = median(&by_kind[0]);
    view.tune_cold_ms = median(&by_kind[1]);
    view.tune_warm_ms = median(&by_kind[2]);
    view.suggest_ms = median(&by_kind[3]);
    view
}

/// The traced run: one daemon pass, the library repeat of its checked
/// tunes untraced and with the driver's tracer, then the same tunes
/// replayed on one thread with the benchmark's spans, each compared
/// with the daemon's reply.
pub fn traced(seed: u64, work: &Path, checks: &mut Checks) -> (Vec<Metric>, Spans) {
    let setting = Setting::new(pass_seed(seed, 0));
    let spans = Spans::new();
    let pass = match run_pass(&setting.streams, &work.join("daemon")) {
        Ok(pass) => pass,
        Err(e) => {
            checks.check(false, || format!("service pass failed: {e}"));
            return (Vec::new(), spans);
        }
    };
    let (requests, proposed, errors) = tally(&setting, &pass);
    checks.operations(requests + proposed, errors + pass.failed_evals);
    checks.check(errors == 0, || format!("{errors} error replies"));
    let mirror_dir = work.join("mirror");
    let (_, untraced_s) = mirror(&setting, &pass, &mirror_dir, &Tracer::disabled(), checks);
    let simulated = shard_counts(&mirror_dir).map_or(0, |(s, _)| s);
    let tracer = Tracer::enabled();
    let (_, driver_traced_s) = mirror(&setting, &pass, &mirror_dir, &tracer, checks);

    let dir = work.join("replay");
    std::fs::remove_dir_all(&dir).ok();
    let store = {
        let _span = spans.enter("store.open");
        ShardedStore::open(&dir, DEFAULT_SHARDS).expect("open the replay store")
    };
    let mut counters = Counters::default();
    for (n, (c, i, request)) in setting.checked_tunes().enumerate() {
        spans.set_session(n as u64);
        let entry = setting.entry(&request.kernel);
        let system = setting.system(&request.machine);
        let mut search =
            make_search(&request.search, request.seed).expect("planned searches exist");
        let replayed = replay_session(
            &system,
            &entry.program,
            &entry.locus_program(),
            search.as_mut(),
            request.budget,
            StoreRef::Sharded(&store),
            &spans,
            &mut counters,
        );
        let reply = pass.answers[c][i].reply.as_ref().map(reply_print);
        match replayed {
            Ok((result, report)) => {
                checks.check(reply == Some(library_print(&result, &report)), || {
                    format!(
                        "replay of tune {} differs from the daemon's reply",
                        request.id
                    )
                })
            }
            Err(e) => checks.check(false, || {
                format!("replay of tune {} failed: {e}", request.id)
            }),
        }
    }
    checks.check(counters.variant_runs == simulated, || {
        format!(
            "the replay simulated {} variants, the library's store records {simulated}",
            counters.variant_runs
        )
    });
    drop(store);
    let store_bytes: f64 = (0..DEFAULT_SHARDS)
        .filter_map(|s| std::fs::metadata(dir.join(format!("shard-{s:02}.jsonl"))).ok())
        .map(|m| m.len() as f64)
        .sum();
    let run = TracedRun {
        spans: spans.clone(),
        counters,
        untraced_s,
        driver_traced_s,
        driver_events: tracer.events(),
        store_bytes,
        daemon: daemon_view(&setting, &pass),
    };
    (per_layer("service-mix", &run), spans)
}
