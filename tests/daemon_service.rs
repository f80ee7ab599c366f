//! Integration suite for `locusd`, the tuning-as-a-service daemon.
//!
//! The load-bearing properties, each pinned by a test below:
//!
//! * **bit-identity** — N concurrent clients tuning registry kernels
//!   through the daemon get byte- and bit-identical results (best
//!   point, best milliseconds as an exact `f64` bit pattern, checksum)
//!   to direct `LocusSystem::run` library calls;
//! * **fault isolation** — a deliberately poisoned request (the
//!   `debug-panic` op) is answered with a structured `panic` error
//!   while sibling requests on other connections complete normally and
//!   the daemon keeps serving;
//! * **shared warm store** — a repeat tune re-measures nothing
//!   (`evaluations == 0`) because every client's evaluations land in
//!   the one process-wide sharded store, and `suggest` retrieves the
//!   recorded winning recipe;
//! * **per-request deadlines and budget clamping** — the daemon's cost
//!   and latency controls are enforced per request;
//! * **request-tagged tracing** — any single request can be replayed
//!   out of the interleaved daemon trace log with
//!   `filter_request` + `check_trace` (the engine behind
//!   `locus-report --request`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use locus::daemon::{codes, Client, Daemon, DaemonConfig, Op, Request};
use locus::machine::Machine;
use locus::report::{check_trace, filter_request};
use locus::search::SearchModule;
use locus::store::TuningStore;
use locus::system::{LocusSystem, StoreHandle, TuneRequest};
use locus::trace::{from_jsonl, Tracer};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "locus-daemon-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tuning cases the concurrency tests drive: kernel, search, seed,
/// budget. Two clients share the `dgemm`/`exhaustive` case on purpose —
/// concurrent same-key sessions must agree.
const CASES: &[(&str, &str, u64, usize)] = &[
    ("dgemm", "exhaustive", 0, 10),
    ("dgemm", "exhaustive", 0, 10),
    ("stencil-jacobi1d", "bandit", 7, 8),
    ("poly-syrk", "random", 7, 8),
];

fn tune_request(id: &str, kernel: &str, search: &str, seed: u64, budget: usize) -> Request {
    let mut request = Request::new(id, Op::Tune);
    request.kernel = kernel.to_string();
    request.search = search.to_string();
    request.seed = seed;
    request.budget = budget;
    request
}

/// Builds the search module a case names, seeded like the daemon does.
fn make_search(name: &str, seed: u64) -> Box<dyn SearchModule> {
    match name {
        "exhaustive" => Box::new(locus::search::ExhaustiveSearch::new()),
        "random" => Box::new(locus::search::RandomSearch::new(seed)),
        "bandit" => Box::new(locus::search::BanditTuner::new(seed)),
        _ => panic!("unknown search `{name}`"),
    }
}

/// Runs one case directly through the library against a fresh
/// single-file store, returning `(best_point, best_ms_bits, checksum)`.
fn direct_result(
    dir: &std::path::Path,
    kernel: &str,
    search_name: &str,
    seed: u64,
    budget: usize,
) -> (String, u64, String) {
    let entry = locus::corpus::registry::all_programs()
        .into_iter()
        .find(|e| e.name == kernel)
        .unwrap();
    let profile = locus::machine::profiles::all_profiles()
        .into_iter()
        .find(|p| p.name == "scaled-xeon")
        .unwrap();
    let system = LocusSystem::new(Machine::new(profile.config));
    let mut store =
        TuningStore::open(dir.join(format!("direct-{kernel}-{search_name}.jsonl"))).unwrap();
    let mut search = make_search(search_name, seed);
    let locus = entry.locus_program();
    let request = TuneRequest::new(&entry.program, &locus, budget)
        .parallel(1)
        .store(StoreHandle::Single(&mut store));
    let (result, _report) = system.run(request, search.as_mut()).unwrap();
    let (point, _, measurement) = result.best.expect("registry kernels find a best variant");
    (
        point.canonical_key(),
        measurement.time_ms.to_bits(),
        format!("{:016x}", measurement.checksum),
    )
}

#[test]
fn concurrent_clients_are_bit_identical_to_direct_library_calls() {
    let dir = scratch("bitident");
    let trace_log = dir.join("trace.jsonl");
    let mut config = DaemonConfig::new(dir.join("store.d"));
    config.trace_log = Some(trace_log.clone());
    let mut daemon = Daemon::start(config).unwrap();
    let addr = daemon.addr();

    // One thread (connection) per case, all tuning concurrently.
    let daemon_results: Vec<(String, String, u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = CASES
            .iter()
            .enumerate()
            .map(|(i, &(kernel, search, seed, budget))| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let id = format!("req-{i}");
                    let response = client
                        .request(&tune_request(&id, kernel, search, seed, budget))
                        .unwrap();
                    assert!(response.ok, "case {i}: {response:?}");
                    (
                        id,
                        response.get_str("best_point").unwrap().to_string(),
                        response.get_f64("best_ms").unwrap().to_bits(),
                        response.get_str("checksum").unwrap().to_string(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Direct library runs over fresh stores, one per unique case.
    type Case = (&'static str, &'static str, u64, usize);
    let mut direct: BTreeMap<Case, (String, u64, String)> = BTreeMap::new();
    for &(kernel, search, seed, budget) in CASES {
        direct
            .entry((kernel, search, seed, budget))
            .or_insert_with(|| direct_result(&dir, kernel, search, seed, budget));
    }
    for (i, &(kernel, search, seed, budget)) in CASES.iter().enumerate() {
        let expected = &direct[&(kernel, search, seed, budget)];
        let (_, point, ms_bits, checksum) = &daemon_results[i];
        assert_eq!(point, &expected.0, "case {i} ({kernel}/{search}): point");
        assert_eq!(
            *ms_bits, expected.1,
            "case {i} ({kernel}/{search}): best_ms bits"
        );
        assert_eq!(
            checksum, &expected.2,
            "case {i} ({kernel}/{search}): checksum"
        );
    }

    // Every request replays individually out of the interleaved trace
    // log — the engine behind `locus-report --request <id>`.
    daemon.stop();
    let text = std::fs::read_to_string(&trace_log).unwrap();
    let events = from_jsonl(&text).unwrap();
    for (id, ..) in &daemon_results {
        let mine = filter_request(&events, id);
        assert!(!mine.is_empty(), "request {id} left no tagged events");
        check_trace(&mine).unwrap_or_else(|e| panic!("request {id} does not replay: {e}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_request_is_isolated_from_siblings() {
    let dir = scratch("poison");
    let mut daemon = Daemon::start(DaemonConfig::new(dir.join("store.d"))).unwrap();
    let addr = daemon.addr();

    std::thread::scope(|scope| {
        // Two well-behaved siblings...
        let good: Vec<_> = [
            ("dgemm", "exhaustive", 0u64, 10usize),
            ("stencil-jacobi1d", "bandit", 7, 8),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (kernel, search, seed, budget))| {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let response = client
                    .request(&tune_request(
                        &format!("good-{i}"),
                        kernel,
                        search,
                        seed,
                        budget,
                    ))
                    .unwrap();
                assert!(response.ok, "sibling {i}: {response:?}");
                (
                    response.get_str("best_point").unwrap().to_string(),
                    response.get_f64("best_ms").unwrap().to_bits(),
                )
            })
        })
        .collect();
        // ...and one deliberately poisoned request in between.
        let poisoned = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client
                .request(&Request::new("boom", Op::DebugPanic))
                .unwrap()
        });

        let response = poisoned.join().unwrap();
        assert!(!response.ok);
        assert_eq!(response.error_code(), Some(codes::PANIC));
        assert!(
            response.get_str("message").unwrap().contains("panicked"),
            "{response:?}"
        );

        // Siblings completed bit-identically to direct library calls.
        let results: Vec<_> = good.into_iter().map(|h| h.join().unwrap()).collect();
        let d0 = direct_result(&dir, "dgemm", "exhaustive", 0, 10);
        let d1 = direct_result(&dir, "stencil-jacobi1d", "bandit", 7, 8);
        assert_eq!(results[0], (d0.0, d0.1));
        assert_eq!(results[1], (d1.0, d1.1));
    });

    // The daemon survived: same connection limits, fresh client, ping.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping("after").unwrap());
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_store_warms_repeat_sessions_and_feeds_suggest() {
    let dir = scratch("warm");
    let mut daemon = Daemon::start(DaemonConfig::new(dir.join("store.d"))).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let cold = client
        .request(&tune_request("cold", "dgemm", "exhaustive", 0, 10))
        .unwrap();
    assert!(cold.ok, "{cold:?}");
    assert!(cold.get_u64("evaluations").unwrap() > 0);

    // Same kernel, same space, new connection: everything rehydrates.
    let mut second = Client::connect(daemon.addr()).unwrap();
    let warm = second
        .request(&tune_request("warm", "dgemm", "exhaustive", 0, 10))
        .unwrap();
    assert!(warm.ok, "{warm:?}");
    assert_eq!(warm.get_u64("evaluations"), Some(0), "warm re-measured");
    assert!(warm.get_u64("rehydrated").unwrap() > 0);
    assert_eq!(
        warm.get_f64("best_ms").unwrap().to_bits(),
        cold.get_f64("best_ms").unwrap().to_bits(),
        "warm result drifted from cold"
    );

    // The recorded session feeds recipe retrieval.
    let mut suggest = Request::new("sug", Op::Suggest);
    suggest.kernel = "dgemm".to_string();
    let suggested = client.request(&suggest).unwrap();
    assert!(suggested.ok, "{suggested:?}");
    assert_eq!(suggested.get_u64("retrieved"), Some(1), "{suggested:?}");
    assert!(suggested
        .get_str("program")
        .unwrap()
        .contains("retrieved from tuning store"));

    // Store maintenance ops work over the same connection.
    let stats = client.request(&Request::new("st", Op::Stats)).unwrap();
    assert!(stats.get_u64("evals").unwrap() > 0);
    let compacted = client.request(&Request::new("cp", Op::Compact)).unwrap();
    assert!(compacted.ok, "{compacted:?}");
    assert!(
        compacted.get_u64("bytes_after").unwrap() <= compacted.get_u64("bytes_before").unwrap()
    );

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budgets_are_clamped_and_deadlines_enforced() {
    let dir = scratch("limits");
    let mut config = DaemonConfig::new(dir.join("store.d"));
    config.max_budget = 4;
    let mut daemon = Daemon::start(config).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // A greedy budget request is clamped to the daemon's ceiling.
    let response = client
        .request(&tune_request("greedy", "dgemm", "exhaustive", 0, 10_000))
        .unwrap();
    assert!(response.ok, "{response:?}");
    assert_eq!(response.get_u64("budget"), Some(4));
    assert!(response.get_u64("evaluations").unwrap() <= 4);

    // A zero deadline has always expired by the time a worker looks.
    let mut hasty = tune_request("hasty", "dgemm", "exhaustive", 0, 4);
    hasty.deadline_ms = Some(0);
    let response = client.request(&hasty).unwrap();
    assert!(!response.ok);
    assert_eq!(response.error_code(), Some(codes::DEADLINE));

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_op_stops_the_daemon() {
    let dir = scratch("shutdown");
    let mut daemon = Daemon::start(DaemonConfig::new(dir.join("store.d"))).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let response = client.shutdown("bye").unwrap();
    assert!(response.ok);
    // join returns because a client-initiated shutdown tears the
    // service threads down.
    daemon.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon's supervised result path and the tracer interact: a
/// traced daemon still answers bit-identically (tracing must never
/// perturb tuning).
#[test]
fn tracing_does_not_perturb_results() {
    let dir = scratch("traceident");
    let mut traced_config = DaemonConfig::new(dir.join("traced.d"));
    traced_config.trace_log = Some(dir.join("trace.jsonl"));
    let mut traced = Daemon::start(traced_config).unwrap();
    let mut untraced = Daemon::start(DaemonConfig::new(dir.join("plain.d"))).unwrap();

    let mut a = Client::connect(traced.addr()).unwrap();
    let mut b = Client::connect(untraced.addr()).unwrap();
    let request = tune_request("t", "poly-syrk", "random", 7, 8);
    let ra = a.request(&request).unwrap();
    let rb = b.request(&request).unwrap();
    assert!(ra.ok && rb.ok);
    assert_eq!(ra.get_str("best_point"), rb.get_str("best_point"));
    assert_eq!(
        ra.get_f64("best_ms").unwrap().to_bits(),
        rb.get_f64("best_ms").unwrap().to_bits()
    );

    traced.stop();
    untraced.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sixteen concurrent clients, mixed kernels, one shared store — the
/// acceptance-scale smoke: every request answered, no panic leaks, and
/// same-case responses agree bit-for-bit with each other.
#[test]
fn sixteen_concurrent_clients_all_complete() {
    let dir = scratch("sixteen");
    let mut daemon = Daemon::start(DaemonConfig::new(dir.join("store.d"))).unwrap();
    let addr = daemon.addr();
    let kernels = ["dgemm", "stencil-jacobi1d", "poly-syrk", "poly-trmm"];

    let results: Vec<(usize, String, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|i| {
                scope.spawn(move || {
                    let kernel = kernels[i % kernels.len()];
                    let mut client = Client::connect(addr).unwrap();
                    let response = client
                        .request(&tune_request(&format!("c{i}"), kernel, "exhaustive", 0, 6))
                        .unwrap();
                    assert!(response.ok, "client {i}: {response:?}");
                    (
                        i % kernels.len(),
                        response.get_str("best_point").unwrap().to_string(),
                        response.get_f64("best_ms").unwrap().to_bits(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All clients of the same kernel agree bit-for-bit.
    let mut by_kernel: BTreeMap<usize, (String, u64)> = BTreeMap::new();
    for (kernel_idx, point, bits) in results {
        match by_kernel.get(&kernel_idx) {
            None => {
                by_kernel.insert(kernel_idx, (point, bits));
            }
            Some((p, b)) => {
                assert_eq!(&point, p, "kernel {kernel_idx} disagreed on point");
                assert_eq!(bits, *b, "kernel {kernel_idx} disagreed on best_ms");
            }
        }
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A tracer-equipped direct library call and the daemon both exist to
/// serve the same workflows; this pins that `Tracer::disabled` stays
/// zero-cost in the daemon path (no trace log → no events buffered).
#[test]
fn untraced_daemon_writes_no_trace_log() {
    let dir = scratch("notrace");
    let mut daemon = Daemon::start(DaemonConfig::new(dir.join("store.d"))).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let response = client
        .request(&tune_request("r", "dgemm", "exhaustive", 0, 4))
        .unwrap();
    assert!(response.ok);
    daemon.stop();
    assert!(!dir.join("trace.jsonl").exists());
    // Sanity: the disabled tracer really buffers nothing.
    let tracer = Tracer::disabled();
    tracer.instant("x", "y", Vec::new);
    assert!(tracer.events().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
