//! Pieces every workload shares: session fingerprints, the search-module
//! wrapper that times requests, the seven search modules, and the
//! store-side simulation count.

use std::collections::VecDeque;
use std::time::Instant;

use locus_core::{MemoStats, TuneReport, TuneResult};
use locus_search::{
    AnnealTuner, BanditTuner, ExhaustiveSearch, LegalityOracle, MctsTuner, Objective,
    PortfolioSearch, RandomSearch, SearchModule, TraceSampler,
};
use locus_space::{Point, Space};
use locus_store::TuningStore;

/// What a tuning session must reproduce, bit for bit, on every run of
/// the same inputs: the best point and its objective bits, the book
/// counts, and the memo and store accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub best: Option<(String, u64)>,
    pub evaluations: usize,
    pub invalid: usize,
    pub duplicates: usize,
    pub history: Vec<(usize, u64)>,
    pub proposed: usize,
    pub memo: MemoStats,
    pub pruned: usize,
    pub rehydrated: usize,
    pub appended: usize,
    pub winner_ms: Option<u64>,
}

impl Fingerprint {
    pub fn of(result: &TuneResult, report: &TuneReport) -> Fingerprint {
        Fingerprint {
            best: result
                .outcome
                .best
                .as_ref()
                .map(|(p, v)| (p.canonical_key(), v.to_bits())),
            evaluations: result.outcome.evaluations,
            invalid: result.outcome.invalid,
            duplicates: result.outcome.duplicates,
            history: result
                .outcome
                .history
                .iter()
                .map(|(i, v)| (*i, v.to_bits()))
                .collect(),
            proposed: report.proposed,
            memo: report.memo,
            pruned: report.pruned_illegal,
            rehydrated: report.rehydrated,
            appended: report.appended,
            winner_ms: result.best.as_ref().map(|(_, _, m)| m.time_ms.to_bits()),
        }
    }
}

/// The book's evaluation index of the session's final best.
pub fn evals_to_best(result: &TuneResult) -> Option<f64> {
    result.outcome.history.last().map(|(i, _)| *i as f64)
}

/// Builds the seeded search module a service request names, exactly as
/// `locusd`'s private `make_search` does for the seven names it accepts.
pub fn make_search(name: &str, seed: u64) -> Option<Box<dyn SearchModule>> {
    Some(match name {
        "exhaustive" => Box::new(ExhaustiveSearch::new()),
        "random" => Box::new(RandomSearch::new(seed)),
        "bandit" => Box::new(BanditTuner::new(seed)),
        "anneal" => Box::new(AnnealTuner::new(seed)),
        "mcts" => Box::new(MctsTuner::new(seed)),
        "sampler" => Box::new(TraceSampler::new(seed)),
        "portfolio" => Box::new(PortfolioSearch::new(seed)),
        _ => return None,
    })
}

/// The seven search-module names `locusd` accepts.
pub const SEARCHES: [&str; 7] = [
    "exhaustive",
    "random",
    "bandit",
    "anneal",
    "mcts",
    "sampler",
    "portfolio",
];

/// Simulations and failed evaluations recorded in a store. Every
/// simulation the driver runs appends one record, and only a simulated
/// record carries a nonzero operation count, so this counts the
/// machine's work rather than `TuneReport::evaluations()`, which also
/// counts build-time `Invalid` points.
pub fn store_counts(store: &TuningStore) -> (u64, u64) {
    let mut simulated = 0;
    let mut failed = 0;
    for key in store.keys() {
        for record in store.evals(key) {
            simulated += u64::from(record.ops > 0);
            failed += u64::from(record.objective == Objective::Error);
        }
    }
    (simulated, failed)
}

/// A search module wrapper that times each proposal from the moment the
/// module hands it out to the moment the driver feeds its objective
/// back: the latency of one evaluation request as the module sees it.
/// Proposals the driver drops once the budget is spent are never fed
/// back and are not counted.
pub struct Clocked {
    inner: Box<dyn SearchModule>,
    outstanding: VecDeque<Instant>,
    pub latencies_ms: Vec<f64>,
}

impl Clocked {
    pub fn new(inner: Box<dyn SearchModule>) -> Clocked {
        Clocked {
            inner,
            outstanding: VecDeque::new(),
            latencies_ms: Vec::new(),
        }
    }
}

impl SearchModule for Clocked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, space: &Space, budget: usize) {
        self.inner.begin(space, budget);
    }

    fn seed_observations(&mut self, space: &Space, prior: &[(Point, f64)]) {
        self.inner.seed_observations(space, prior);
    }

    fn attach_tracer(&mut self, tracer: &locus_trace::Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn attach_pruner(&mut self, oracle: &LegalityOracle) {
        self.inner.attach_pruner(oracle);
    }

    // The parallel driver proposes through `propose_batch` only.
    fn propose(&mut self, space: &Space) -> Option<Point> {
        self.inner.propose(space)
    }

    fn propose_batch(&mut self, space: &Space, k: usize) -> Vec<Point> {
        let batch = self.inner.propose_batch(space, k);
        let now = Instant::now();
        // A new batch abandons whatever the driver left unobserved.
        self.outstanding.clear();
        self.outstanding.extend(batch.iter().map(|_| now));
        batch
    }

    fn observe(&mut self, point: &Point, objective: Objective, fresh: bool) {
        if let Some(at) = self.outstanding.pop_front() {
            self.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
        }
        self.inner.observe(point, objective, fresh);
    }
}
