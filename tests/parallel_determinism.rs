//! The contract of the tuning driver ([`LocusSystem::run`]): a parallel
//! request — batched, multi-threaded variant evaluation with a shared
//! memo cache — returns the *same* best point, best objective, and
//! evaluation count at any thread count, and the same as a sequential
//! request (batches of one) for observation-independent and
//! block-buffering modules. Sequential trajectories of the adaptive
//! modules are pinned by a recorded fixture.
//!
//! Why this holds: proposals are consumed in proposal order through the
//! shared `Bookkeeper`, the parallel batch size is fixed (16) regardless
//! of the thread count, and threads only race on *building* and
//! *measuring* — the driver accounts for the built variants, and the
//! merge loop feeds observations back to the search module, sequentially
//! and in proposal order.

use locus::corpus::dgemm_program;
use locus::lang::LocusProgram;
use locus::machine::{Machine, MachineConfig};
use locus::search::{ExhaustiveSearch, RandomSearch, SearchModule};
use locus::srcir::ast::Program;
use locus::system::{LocusSystem, StoreHandle, TuneRequest};

fn tiny_system(cores: usize) -> LocusSystem {
    LocusSystem::new(Machine::new(MachineConfig::scaled_tiny().with_cores(cores)))
}

/// A sequential request for `threads == None`, a parallel one otherwise.
fn tune_request<'a>(
    source: &'a Program,
    locus: &'a LocusProgram,
    budget: usize,
    threads: Option<usize>,
) -> TuneRequest<'a> {
    let request = TuneRequest::new(source, locus, budget);
    match threads {
        Some(threads) => request.parallel(threads),
        None => request,
    }
}

/// A small but non-trivial space: the Fig. 7 program with tiles capped
/// at 4 (two tiling levels + OR block over OMP schedules).
fn fig7_small() -> locus::lang::LocusProgram {
    locus_bench::fig6::fig7_locus_program(4)
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    best_key: Option<String>,
    best_value: Option<u64>,
    evaluations: usize,
    invalid: usize,
}

fn fingerprint(result: &locus::system::TuneResult) -> Fingerprint {
    Fingerprint {
        best_key: result.best.as_ref().map(|(p, _, _)| p.canonical_key()),
        best_value: result.outcome.best.as_ref().map(|(_, v)| v.to_bits()),
        evaluations: result.outcome.evaluations,
        invalid: result.outcome.invalid,
    }
}

/// A parallel request with 1, 2, and 8 threads is bit-identical to a
/// sequential one under exhaustive search.
#[test]
fn parallel_matches_sequential_exhaustive() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 48;

    let mut search = ExhaustiveSearch::default();
    let request = TuneRequest::new(&source, &locus, budget);
    let (sequential, _) = system.run(request, &mut search).unwrap();
    let want = fingerprint(&sequential);
    assert!(sequential.best.is_some(), "sequential run found a variant");

    for threads in [1, 2, 8] {
        let mut search = ExhaustiveSearch::default();
        let request = TuneRequest::new(&source, &locus, budget).parallel(threads);
        let (parallel, _) = system.run(request, &mut search).unwrap();
        assert_eq!(
            fingerprint(&parallel),
            want,
            "threads={threads}: parallel driver diverged from sequential"
        );
    }
}

/// Same bit-identity under seeded random search: the proposal stream is
/// observation-independent, so the driver (batched or not) must not
/// perturb it.
#[test]
fn parallel_matches_sequential_random() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 40;
    let seed = 0xdead;

    let mut search = RandomSearch::new(seed);
    let request = TuneRequest::new(&source, &locus, budget);
    let (sequential, _) = system.run(request, &mut search).unwrap();
    let want = fingerprint(&sequential);

    for threads in [1, 2, 8] {
        let mut search = RandomSearch::new(seed);
        let request = TuneRequest::new(&source, &locus, budget).parallel(threads);
        let (parallel, _) = system.run(request, &mut search).unwrap();
        assert_eq!(
            fingerprint(&parallel),
            want,
            "threads={threads}: parallel driver diverged from sequential"
        );
    }
}

/// Thread-count invariance holds for observation-*dependent* modules
/// too (bandit, anneal, portfolio): at a fixed batch size the
/// observation order is deterministic, so any two thread counts agree
/// with each other.
#[test]
fn thread_count_is_invariant_for_adaptive_modules() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 32;

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let mut make: Vec<(&str, MakeSearch)> = Vec::new();
    make.push((
        "bandit",
        Box::new(|| Box::new(locus::search::BanditTuner::new(7))),
    ));
    make.push((
        "anneal",
        Box::new(|| Box::new(locus::search::AnnealTuner::new(7))),
    ));
    make.push((
        "portfolio",
        Box::new(|| Box::new(locus::search::PortfolioSearch::new(7))),
    ));
    make.push((
        "mcts",
        Box::new(|| Box::new(locus::search::MctsTuner::new(7))),
    ));
    make.push((
        "sampler",
        Box::new(|| Box::new(locus::search::TraceSampler::new(7))),
    ));

    for (name, factory) in &mut make {
        let mut reference: Option<Fingerprint> = None;
        for threads in [1, 2, 8] {
            let mut search = factory();
            let request = TuneRequest::new(&source, &locus, budget).parallel(threads);
            let (result, _) = system.run(request, search.as_mut()).unwrap();
            let fp = fingerprint(&result);
            match &reference {
                None => reference = Some(fp),
                Some(want) => assert_eq!(
                    &fp, want,
                    "{name}: threads={threads} diverged from threads=1"
                ),
            }
        }
    }
}

/// Warm-start is deterministic: the same store file plus the same
/// search seed reproduce the same trajectory — proposal history, best
/// point and objective, bit for bit — for parallel sessions at any
/// thread count and for sequential sessions alike.
fn warm_start_roundtrip(module: &str, make: &dyn Fn() -> Box<dyn SearchModule>) {
    use locus::store::TuningStore;

    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 32;

    let dir = std::env::temp_dir();
    let tag = format!("{}-warm-determinism-{module}", std::process::id());
    let cold_path = dir.join(format!("locus-{tag}-cold.jsonl"));
    std::fs::remove_file(&cold_path).ok();

    // Cold session builds the store.
    {
        let mut store = TuningStore::open(&cold_path).unwrap();
        let mut search = make();
        let request = TuneRequest::new(&source, &locus, budget)
            .parallel(4)
            .store(StoreHandle::Single(&mut store));
        let (_, report) = system.run(request, search.as_mut()).unwrap();
        assert!(report.evaluations() > 0, "{module}: cold run evaluated");
    }

    // Warm sessions, each against its own copy of the same file (a warm
    // run may append, so copies keep the starting state identical): two
    // parallel ones with different thread counts, and a sequential one
    // with its repeat. Same seed and protocol => same trajectory.
    let mut runs = Vec::new();
    for (i, threads) in [Some(2), Some(8), None, None].into_iter().enumerate() {
        let path = dir.join(format!("locus-{tag}-warm{i}.jsonl"));
        std::fs::copy(&cold_path, &path).unwrap();
        let mut store = TuningStore::open(&path).unwrap();
        let mut search = make();
        let request =
            tune_request(&source, &locus, budget, threads).store(StoreHandle::Single(&mut store));
        let (result, report) = system.run(request, search.as_mut()).unwrap();
        std::fs::remove_file(&path).ok();
        runs.push((fingerprint(&result), result.outcome.history.clone(), report));
    }
    std::fs::remove_file(&cold_path).ok();

    let bits = |h: &[(usize, f64)]| -> Vec<(usize, u64)> {
        h.iter().map(|(i, v)| (*i, v.to_bits())).collect()
    };
    for pair in runs.chunks(2) {
        let (fp_a, history_a, report_a) = &pair[0];
        let (fp_b, history_b, report_b) = &pair[1];
        assert_eq!(
            fp_a, fp_b,
            "{module}: same store + same seed must agree on the best"
        );
        assert_eq!(
            bits(history_a),
            bits(history_b),
            "{module}: improvement trajectory must be bit-identical"
        );
        assert_eq!(report_a.seeded, report_b.seeded);
        assert!(
            report_a.seeded > 0,
            "{module}: warm sessions were seeded from the store"
        );
        assert_eq!(report_a.rehydrated, report_b.rehydrated);
    }
}

#[test]
fn warm_start_from_one_store_file_is_deterministic() {
    warm_start_roundtrip("bandit", &|| {
        Box::new(locus::search::BanditTuner::new(0x5eed))
    });
}

/// The block-buffering modules warm-start deterministically too: store
/// elites force tree paths (MCTS) / fit distributions (sampler) the
/// same way at every thread count.
#[test]
fn warm_start_is_deterministic_for_block_modules() {
    warm_start_roundtrip("mcts", &|| Box::new(locus::search::MctsTuner::new(0x5eed)));
    warm_start_roundtrip("sampler", &|| {
        Box::new(locus::search::TraceSampler::new(0x5eed))
    });
}

/// The MCTS and trace-sampler modules integrate observations in blocks
/// of [`locus::search::OBSERVATION_BLOCK`] — exactly the parallel
/// batch size — so their proposal streams are bit-identical between
/// sequential and parallel requests at every thread count, not merely
/// invariant across thread counts.
#[test]
fn block_modules_match_sequential_tune_exactly() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 32;

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let make: Vec<(&str, MakeSearch)> = vec![
        (
            "mcts",
            Box::new(|| Box::new(locus::search::MctsTuner::new(0xb10c))),
        ),
        (
            "sampler",
            Box::new(|| Box::new(locus::search::TraceSampler::new(0xb10c))),
        ),
    ];
    for (name, factory) in &make {
        let mut search = factory();
        let request = TuneRequest::new(&source, &locus, budget);
        let (sequential, _) = system.run(request, search.as_mut()).unwrap();
        let want = fingerprint(&sequential);
        assert!(
            sequential.best.is_some(),
            "{name}: sequential run found a variant"
        );
        for threads in [1, 2, 8] {
            let mut search = factory();
            let request = TuneRequest::new(&source, &locus, budget).parallel(threads);
            let (parallel, _) = system.run(request, search.as_mut()).unwrap();
            assert_eq!(
                fingerprint(&parallel),
                want,
                "{name} threads={threads}: parallel driver diverged from sequential"
            );
        }
    }
}

/// The shared memo cache actually dedups: exhaustive search over a
/// space whose OR-block dead parameters collapse to few distinct
/// variants must record variant-level hits, and duplicate points
/// proposed twice must record point-level hits.
#[test]
fn memo_cache_sees_hits_on_duplicate_proposals() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);

    // A stride small enough to sweep the fast-varying OR-block params:
    // distinct points in the plain OR branch differ only in dead
    // schedule/chunk values, so their direct programs collide at the
    // variant level and are measured once.
    let mut search = ExhaustiveSearch::default();
    let request = TuneRequest::new(&source, &locus, 512).parallel(4);
    let (result, report) = system.run(request, &mut search).unwrap();
    let stats = report.memo;
    assert!(result.best.is_some());
    assert!(
        stats.hits() >= 1,
        "expected memo hits on duplicate variants, stats: {stats:?}"
    );
    assert!(
        stats.unique_variants <= stats.unique_points,
        "variant dedup can only shrink the measurement set: {stats:?}"
    );

    // A random walk re-proposing points also scores point-level hits.
    let mut search = RandomSearch::new(3);
    let request = TuneRequest::new(&source, &locus, 96).parallel(2);
    let (_, report) = system.run(request, &mut search).unwrap();
    let stats = report.memo;
    assert!(
        stats.hits() >= 1,
        "expected point or variant hits under random re-proposals, stats: {stats:?}"
    );
}

/// A caller-owned cache shared across a session replays earlier
/// measurements without perturbing outcomes: a random search run against
/// a cache pre-populated by an exhaustive sweep returns exactly what the
/// same run returns standalone.
#[test]
fn shared_cache_replays_without_perturbing_outcomes() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);

    let mut search = RandomSearch::new(11);
    let request = TuneRequest::new(&source, &locus, 32).parallel(2);
    let (standalone, _) = system.run(request, &mut search).unwrap();

    let shared = locus::system::MemoCache::new();
    let mut sweep = ExhaustiveSearch::default();
    let request = TuneRequest::new(&source, &locus, 8192)
        .parallel(2)
        .cache(&shared);
    system.run(request, &mut sweep).unwrap();
    let before = shared.stats();

    let mut search = RandomSearch::new(11);
    let request = TuneRequest::new(&source, &locus, 32)
        .parallel(2)
        .cache(&shared);
    let (replayed, _) = system.run(request, &mut search).unwrap();
    let after = shared.stats();

    assert_eq!(
        fingerprint(&replayed),
        fingerprint(&standalone),
        "cached replay must match the standalone run bit for bit"
    );
    assert_eq!(
        after.unique_variants, before.unique_variants,
        "the sweep covered the space; the replay must measure nothing new"
    );
    assert!(
        after.hits() > before.hits(),
        "the replay must hit the cache"
    );
}

/// Every proposed point is accounted for exactly once: as a memo hit, a
/// store hit, a fresh evaluation, or a statically pruned point. A counter
/// leak here would make the `locus-report` rate table lie.
#[test]
fn report_counters_sum_to_proposed_points() {
    use locus::search::BanditTuner;

    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let make: Vec<(&str, MakeSearch)> = vec![
        (
            "exhaustive",
            Box::new(|| Box::new(ExhaustiveSearch::default())),
        ),
        ("random", Box::new(|| Box::new(RandomSearch::new(9)))),
        ("bandit", Box::new(|| Box::new(BanditTuner::new(9)))),
    ];
    for (name, factory) in &make {
        for threads in [None, Some(1), Some(4)] {
            let mut search = factory();
            let request = tune_request(&source, &locus, 48, threads);
            let (result, report) = system.run(request, search.as_mut()).unwrap();
            assert!(result.best.is_some(), "{name}: no best found");
            assert!(report.proposed > 0, "{name}: nothing proposed");
            assert_eq!(
                report.accounted(),
                report.proposed,
                "{name} threads={threads:?}: memo {} + store {} + fresh {} + pruned {} \
                 != proposed {}",
                report.memo_hits(),
                report.store_hits(),
                report.evaluations(),
                report.pruned_illegal,
                report.proposed
            );
        }
    }
}

/// Tracing is observation-only: a run with an enabled tracer returns a
/// `TuneResult` bit-identical to the same run without one, sequential or
/// parallel, and the parallel trace itself is deterministic across
/// thread counts (workers merge by evaluation slot, not by scheduling
/// order).
#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    use locus::search::BanditTuner;
    use locus::trace::Tracer;

    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 32;
    let seed = 0x7ace;

    // Untraced references: the sequential protocol and the parallel one
    // (whose result does not depend on the thread count).
    let untraced_run = |threads| {
        let mut search = BanditTuner::new(seed);
        let request = tune_request(&source, &locus, budget, threads);
        system.run(request, &mut search).unwrap()
    };
    let sequential = untraced_run(None);
    let parallel = untraced_run(Some(4));

    let mut traces = Vec::new();
    for threads in [None, Some(1), Some(4), Some(8)] {
        let (untraced, untraced_report) = match threads {
            None => &sequential,
            Some(_) => &parallel,
        };
        let tracer = Tracer::enabled();
        let mut search = BanditTuner::new(seed);
        let request = tune_request(&source, &locus, budget, threads).tracer(&tracer);
        let (traced, traced_report) = system.run(request, &mut search).unwrap();
        assert_eq!(
            fingerprint(&traced),
            fingerprint(untraced),
            "threads={threads:?}: tracing perturbed the tuning outcome"
        );
        assert_eq!(traced_report.evaluations(), untraced_report.evaluations());
        assert_eq!(traced_report.proposed, untraced_report.proposed);
        assert_eq!(traced_report.accounted(), traced_report.proposed);

        let events = tracer.events();
        assert!(
            locus::report::check_trace(&events).is_ok(),
            "threads={threads:?}: incomplete trace"
        );
        // Scrub wall-clock fields; everything else must be scheduling
        // independent.
        let shape: Vec<(String, String, u64)> = events
            .iter()
            .map(|e| (e.cat.clone(), e.name.clone(), e.lane))
            .collect();
        traces.push((threads, shape));
    }
    let eval_points = |shape: &[(String, String, u64)]| {
        shape
            .iter()
            .filter(|(c, n, _)| c == "eval" && n == "point")
            .count()
    };
    for (threads, shape) in &traces {
        assert!(
            eval_points(shape) > 0,
            "threads={threads:?}: trace recorded no evaluations"
        );
    }
    // The parallel traces (everything after the sequential one) agree
    // with each other at every thread count.
    for (threads, shape) in &traces[2..] {
        assert_eq!(
            eval_points(shape),
            eval_points(&traces[1].1),
            "threads={threads:?}: merged evaluation stream diverged"
        );
    }
}

/// A store file's text with every `wall_ms` field zeroed: that field
/// records real (non-simulated) wall-clock time and differs between any
/// two runs, so everything else is what must be reproducible.
fn scrub_wall_ms(text: &str) -> String {
    text.lines()
        .map(|line| match line.split_once("\"wall_ms\":") {
            Some((head, tail)) => {
                let rest = tail.find([',', '}']).map_or("", |i| &tail[i..]);
                format!("{head}\"wall_ms\":0{rest}")
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Same observation-only guarantee for the store-backed entry point, and
/// the disabled tracer records nothing.
#[test]
fn store_backed_tracing_is_observation_only() {
    use locus::search::BanditTuner;
    use locus::store::TuningStore;
    use locus::trace::Tracer;

    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 24;
    let seed = 0xace5;

    let dir = std::env::temp_dir();
    let tag = format!("{}-trace-store", std::process::id());
    let path_a = dir.join(format!("locus-{tag}-a.jsonl"));
    let path_b = dir.join(format!("locus-{tag}-b.jsonl"));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    let mut store = TuningStore::open(&path_a).unwrap();
    let mut search = BanditTuner::new(seed);
    let request = TuneRequest::new(&source, &locus, budget)
        .parallel(4)
        .store(StoreHandle::Single(&mut store));
    let (plain, _) = system.run(request, &mut search).unwrap();
    drop(store);

    let tracer = Tracer::enabled();
    let mut store = TuningStore::open(&path_b).unwrap();
    let mut search = BanditTuner::new(seed);
    let request = TuneRequest::new(&source, &locus, budget)
        .parallel(4)
        .store(StoreHandle::Single(&mut store))
        .tracer(&tracer);
    let (traced, _) = system.run(request, &mut search).unwrap();
    drop(store);

    assert_eq!(
        fingerprint(&traced),
        fingerprint(&plain),
        "tracing perturbed the store-backed run"
    );
    assert!(
        tracer
            .events()
            .iter()
            .any(|e| e.cat == "phase" && e.name == "store-append"),
        "store-backed trace must record the append phase"
    );

    // And the stores stayed identical, modulo the `wall_ms` field.
    let a = scrub_wall_ms(&std::fs::read_to_string(&path_a).unwrap());
    let b = scrub_wall_ms(&std::fs::read_to_string(&path_b).unwrap());
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    assert_eq!(a, b, "tracing changed what was persisted");

    // A disabled tracer stays empty no matter what ran through it.
    let disabled = Tracer::disabled();
    let mut search = BanditTuner::new(seed);
    let request = TuneRequest::new(&source, &locus, budget)
        .parallel(2)
        .tracer(&disabled);
    system.run(request, &mut search).unwrap();
    assert!(disabled.events().is_empty());
}

/// Sequential trajectories are pinned: a sequential request reproduces,
/// bit for bit, the sessions recorded in
/// `tests/fixtures/sequential_tune.txt` — the bandit, the annealer and
/// the portfolio at seeds 1, 7 and 42 and budgets 16 and 48, on the
/// Fig. 7 program and on the registry's DGEMM, Jacobi-2D and LU entries.
///
/// The fixture was recorded with the sequential driver that predates
/// [`LocusSystem::run`] (`SearchModule::search` behind a
/// build-and-measure closure), so it pins that running the one driver at
/// batch 1 moved no trajectory. Each line holds the best point, its
/// objective bits, the evaluation, invalid and duplicate counts, the
/// winner's re-measured time bits, and the improvement history.
#[test]
fn sequential_trajectories_match_the_fixture() {
    let system = tiny_system(1);
    let mut programs = vec![("fig7", dgemm_program(8), fig7_small())];
    for entry in locus::corpus::all_programs() {
        if ["dgemm", "stencil-jacobi2d", "poly-lu"].contains(&entry.name) {
            programs.push((entry.name, entry.program.clone(), entry.locus_program()));
        }
    }
    let hex = |v: f64| format!("{:016x}", v.to_bits());
    let mut dump = String::new();
    for (name, source, locus) in &programs {
        for module in ["bandit", "anneal", "portfolio"] {
            for seed in [1u64, 7, 42] {
                for budget in [16usize, 48] {
                    let mut search: Box<dyn SearchModule> = match module {
                        "bandit" => Box::new(locus::search::BanditTuner::new(seed)),
                        "anneal" => Box::new(locus::search::AnnealTuner::new(seed)),
                        _ => Box::new(locus::search::PortfolioSearch::new(seed)),
                    };
                    let request = TuneRequest::new(source, locus, budget);
                    let (result, _) = system.run(request, search.as_mut()).unwrap();
                    let o = &result.outcome;
                    let best = o.best.as_ref();
                    let history: Vec<String> = o
                        .history
                        .iter()
                        .map(|(i, v)| format!("{i}:{}", hex(*v)))
                        .collect();
                    dump.push_str(&format!(
                        "{name} {module} seed={seed} budget={budget} best={} obj={} evals={} \
                         invalid={} dups={} time={} history={}\n",
                        best.map_or("-".to_string(), |(p, _)| p.canonical_key()),
                        best.map_or("-".to_string(), |(_, v)| hex(*v)),
                        o.evaluations,
                        o.invalid,
                        o.duplicates,
                        result
                            .best
                            .as_ref()
                            .map_or("-".to_string(), |(_, _, m)| hex(m.time_ms)),
                        history.join(","),
                    ));
                }
            }
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sequential_tune.txt");
    let want = std::fs::read_to_string(&path).expect("fixture exists");
    for (got, want) in dump.lines().zip(want.lines()) {
        assert_eq!(
            got, want,
            "a sequential trajectory drifted from the fixture"
        );
    }
    assert_eq!(dump.lines().count(), want.lines().count());
}

/// DGEMM tiled with a dependent second factor, then parallelized by one
/// of two OR branches. Over its 32 points this gives build-time
/// `Invalid` points (`tileJ > tileI`, all denoting one variant),
/// verifier-refused points (an `omp for` on the inner `k` loop races),
/// and measured points whose dead `schedule`/`loop` parameters make
/// several distinct points denote the same variant.
const BATCH_PROGRAM: &str = r#"CodeReg matmul {
    tileI = poweroftwo(2..4);
    tileJ = poweroftwo(2..tileI);
    Pips.Tiling(loop="0", factor=[tileI, tileJ, 2]);
    {
        Pragma.OMPFor(loop="0");
    } OR {
        Pragma.OMPFor(loop=enum("0", "0.0.0.0.0.0"), schedule=enum("static", "dynamic"));
    }
}"#;

/// Three 16-point batches of space indices into [`BATCH_PROGRAM`]'s
/// space. Indices 8–15 are `Invalid` (8–11 share one variant), 6, 7, 22,
/// 23, 30 and 31 are refused as racy, and 0–3, 16–19 and 24–27 are
/// groups of four points with one variant each. The first batch holds
/// every case at once: repeats of an invalid point (8), of a refused
/// point (6) and of a point still being measured (0), a second invalid
/// point of the same variant (9), and coalescable measured points (1, 2,
/// 17).
const BATCH_SCRIPT: [u128; 48] = [
    8, 0, 6, 8, 1, 9, 4, 6, 16, 2, 24, 12, 5, 17, 7, 0, //
    0, 3, 25, 6, 10, 20, 21, 13, 26, 22, 8, 28, 29, 30, 18, 14, //
    31, 23, 27, 19, 11, 15, 5, 24, 29, 1, 7, 30, 2, 16, 28, 9,
];

/// A search module that proposes a fixed script of space indices in
/// order and ignores every observation.
struct Scripted {
    next: usize,
}

impl SearchModule for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn begin(&mut self, _space: &locus::space::Space, _budget: usize) {
        self.next = 0;
    }

    fn propose(&mut self, space: &locus::space::Space) -> Option<locus::space::Point> {
        let index = *BATCH_SCRIPT.get(self.next)?;
        self.next += 1;
        Some(space.point_at(index))
    }

    fn observe(
        &mut self,
        _point: &locus::space::Point,
        _objective: locus::search::Objective,
        _fresh: bool,
    ) {
    }
}

/// How a batch is accounted — memo counters, prunes, the `eval` origin
/// of every proposal and the store's record sequence — does not depend
/// on the thread count, and matches `tests/fixtures/batch_accounting.txt`.
///
/// The fixture was recorded with the driver that built every new variant
/// on the calling thread, so it pins that building on the worker pool
/// moved no counter: a repeated invalid point is still a point hit, a
/// second point of an invalid variant a variant hit, a repeat of a point
/// under measurement coalesced, and build-time failures still precede
/// the measured records in the store.
#[test]
fn batch_accounting_is_thread_invariant_and_pinned() {
    use locus::store::TuningStore;
    use locus::trace::Tracer;

    let source = dgemm_program(8);
    let locus = locus::lang::parse(BATCH_PROGRAM).expect("program parses");
    let system = tiny_system(2);
    let path = std::env::temp_dir().join(format!(
        "locus-{}-batch-accounting.jsonl",
        std::process::id()
    ));

    let mut dumps = Vec::new();
    for threads in [1, 2, 4] {
        std::fs::remove_file(&path).ok();
        let tracer = Tracer::enabled();
        let mut store = TuningStore::open(&path).unwrap();
        let request = TuneRequest::new(&source, &locus, 64)
            .parallel(threads)
            .store(StoreHandle::Single(&mut store))
            .tracer(&tracer);
        let (_, report) = system.run(request, &mut Scripted { next: 0 }).unwrap();
        drop(store);
        assert_eq!(report.proposed, BATCH_SCRIPT.len());
        assert_eq!(report.accounted(), report.proposed);

        let m = report.memo;
        let mut dump = format!(
            "memo point_hits={} variant_hits={} store_hits={} misses={} unique_points={} \
             unique_variants={}\nreport proposed={} pruned_illegal={} appended={}\n",
            m.point_hits,
            m.variant_hits,
            m.store_hits,
            m.misses,
            m.unique_points,
            m.unique_variants,
            report.proposed,
            report.pruned_illegal,
            report.appended,
        );
        let origins: Vec<String> = tracer
            .events()
            .iter()
            .filter(|e| e.cat == "eval" && e.name == "point")
            .map(|e| {
                let origin = e.arg("origin").and_then(|v| v.as_str());
                origin
                    .expect("every eval event names its origin")
                    .to_string()
            })
            .collect();
        for batch in origins.chunks(16) {
            dump.push_str(&format!("origins {}\n", batch.join(" ")));
        }
        for line in scrub_wall_ms(&std::fs::read_to_string(&path).unwrap()).lines() {
            dump.push_str(&format!("store {line}\n"));
        }
        dumps.push((threads, dump));
    }
    std::fs::remove_file(&path).ok();

    for (threads, dump) in &dumps[1..] {
        assert_eq!(
            dump, &dumps[0].1,
            "threads={threads}: batch accounting diverged from threads=1"
        );
    }
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/batch_accounting.txt");
    let want = std::fs::read_to_string(&fixture).expect("fixture exists");
    for (got, want) in dumps[0].1.lines().zip(want.lines()) {
        assert_eq!(got, want, "batch accounting drifted from the fixture");
    }
    assert_eq!(dumps[0].1.lines().count(), want.lines().count());
}
