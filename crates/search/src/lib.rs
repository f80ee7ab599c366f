//! Search modules for traversing Locus optimization spaces.
//!
//! The paper integrates OpenTuner and Hyperopt through a three-function
//! interface (Sec. IV-B): convert the space, run the search, convert
//! chosen points back. This crate provides the same contract natively:
//!
//! * [`ExhaustiveSearch`] — enumerates the space (stratified when the
//!   budget is smaller than the space);
//! * [`RandomSearch`] — uniform sampling with de-duplication;
//! * [`BanditTuner`] — the OpenTuner substitute: an ensemble of search
//!   techniques (greedy mutation, differential evolution, hill climbing,
//!   random restarts) arbitrated by a sliding-window AUC bandit, with
//!   memoization of already-assessed variants (the behaviour the paper
//!   credits for OpenTuner finding the best variant faster);
//! * [`AnnealTuner`] — the Hyperopt substitute: simulated annealing with
//!   random restarts;
//! * [`PortfolioSearch`] — the paper's Sec. VII future work implemented:
//!   several modules combined in one run, sharing a memo table and a
//!   best-so-far, with budget shifting toward whichever module recently
//!   improved the result.
//!
//! # The ask/tell batch protocol
//!
//! Every module implements [`SearchModule`] as an *ask/tell* state
//! machine: [`SearchModule::begin`] resets it for a space and budget,
//! [`SearchModule::propose_batch`] asks for up to `k` candidate points,
//! and [`SearchModule::observe`] tells it the [`Objective`] of each
//! proposal, in proposal order. The driver — this crate's standalone
//! [`SearchModule::search`] (the default implementation, which drives
//! batches of one), or `LocusSystem::run` in the core crate (batches of
//! one for a sequential request, or a fixed batch fanned out over a
//! worker pool for a parallel one, behind a memo cache) — owns
//! evaluation, de-duplication, best-so-far tracking and budget
//! accounting through a [`Bookkeeper`].
//!
//! Because a `Bookkeeper` consumes results strictly in proposal order,
//! any two drivers that feed the same proposal stream produce
//! bit-identical [`SearchOutcome`]s; for modules whose proposals do not
//! depend on observations (exhaustive enumeration, seeded random
//! sampling) the parallel protocol is therefore exactly equivalent to
//! the sequential one, regardless of worker count.
//!
//! Points may be rejected as [`Objective::Invalid`] — e.g. when a
//! dependent-range constraint such as `tileI_2 <= tileI` fails
//! (Sec. IV-B.1) — without counting as useful evaluations.

#![warn(missing_docs)]

pub mod anneal;
pub mod bandit;
pub mod exhaustive;
pub mod mcts;
pub mod portfolio;
pub mod random;
pub mod sampler;

pub use anneal::AnnealTuner;
pub use bandit::BanditTuner;
pub use exhaustive::ExhaustiveSearch;
pub use mcts::MctsTuner;
pub use portfolio::{Member, PortfolioSearch};
pub use random::RandomSearch;
pub use sampler::TraceSampler;

/// The deterministic in-tree PRNG all modules draw from, re-exported so
/// downstream crates (and tests) need not depend on `locus-space`
/// directly for it.
pub use locus_space::rng;

use locus_space::{Point, Space};

/// The observation block size adaptive modules synchronize their state
/// updates on: [`MctsTuner`] and [`TraceSampler`] buffer incoming
/// [`SearchModule::observe`] calls and integrate them into their
/// sampling state only once a full block has arrived.
///
/// A parallel request to the core driver proposes in batches of exactly
/// this size (its `PARALLEL_BATCH` is defined as this constant), so a
/// module that updates on block boundaries sees the *same* integrated
/// state before every proposal whether it is driven one point at a time
/// (a sequential request, or [`SearchModule::search`]) or a whole batch
/// ahead of its observations — which is what makes those modules
/// bit-identical under both protocols at any worker count.
pub const OBSERVATION_BLOCK: usize = 16;

/// A legality oracle a driver can attach to a module via
/// [`SearchModule::attach_pruner`]: returns `true` when the point
/// builds into a legal variant (in the core driver this runs the
/// optimization program, and with it `verify::legal` and the dependent
/// range checks). Modules that structure the space — the MCTS tree, the
/// trace sampler — consult it at expansion/sampling time so illegal
/// prefixes are pruned before they are ever proposed, let alone
/// simulated.
pub type LegalityOracle = std::sync::Arc<dyn Fn(&Point) -> bool + Send + Sync>;

/// The outcome of evaluating one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// A valid measurement; lower is better (e.g. milliseconds).
    Value(f64),
    /// The point violates a constraint (dependent ranges) — skipped.
    Invalid,
    /// The variant failed to build or run; treated as very bad but
    /// counted, mirroring a crashed empirical evaluation.
    Error,
}

impl Objective {
    /// The measured value, if any.
    pub fn value(self) -> Option<f64> {
        match self {
            Objective::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// Result of a search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Best point found and its objective, if any valid point was seen.
    pub best: Option<(Point, f64)>,
    /// Number of *distinct, valid-or-error* evaluations performed.
    pub evaluations: usize,
    /// Number of proposals rejected as invalid.
    pub invalid: usize,
    /// Number of duplicate proposals skipped via memoization.
    pub duplicates: usize,
    /// Best-so-far trajectory: `(evaluation index, objective)` at every
    /// improvement.
    pub history: Vec<(usize, f64)>,
}

impl SearchOutcome {
    fn new() -> SearchOutcome {
        SearchOutcome {
            best: None,
            evaluations: 0,
            invalid: 0,
            duplicates: 0,
            history: Vec::new(),
        }
    }
}

/// A search module: an ask/tell state machine over a [`Space`].
///
/// Drivers call [`SearchModule::begin`] once, then alternate
/// [`SearchModule::propose_batch`] and (for every proposal, in proposal
/// order) [`SearchModule::observe`] until the budget is spent or the
/// module returns an empty batch. Modules own their termination
/// heuristics (staleness limits on tiny spaces); drivers own budget,
/// memoization and best-so-far tracking.
pub trait SearchModule {
    /// A short human-readable name ("opentuner-like bandit", ...).
    fn name(&self) -> &str;

    /// Resets the module for a fresh run over `space` with `budget`
    /// evaluations available.
    fn begin(&mut self, space: &Space, budget: usize);

    /// Feeds prior `(point, objective)` observations — e.g. the top-k
    /// results a persistent tuning store recorded in earlier sessions —
    /// into the module *before* the first proposal, warm-starting the
    /// search without consuming any of this run's budget.
    ///
    /// Drivers call this between [`SearchModule::begin`] and the first
    /// [`SearchModule::propose_batch`], with `prior` sorted best-first
    /// (ties broken by canonical key, so the call is deterministic for a
    /// given store state). The default implementation ignores the prior
    /// — correct for modules whose proposal stream must not depend on
    /// observations (exhaustive, seeded random); adaptive modules
    /// ([`BanditTuner`], [`AnnealTuner`]) override it to prime their
    /// internal state.
    fn seed_observations(&mut self, space: &Space, prior: &[(Point, f64)]) {
        let _ = (space, prior);
    }

    /// Attaches a [`locus_trace::Tracer`] the module emits
    /// `search`-category decision events into — the bandit's chosen
    /// arm, the annealer's temperature and acceptance, the portfolio's
    /// budget shares. Tracing is *observation-only*: a module must
    /// never let the tracer influence its proposal stream (traced and
    /// untraced runs stay bit-identical). The default implementation
    /// ignores the tracer; every built-in module overrides it.
    fn attach_tracer(&mut self, tracer: &locus_trace::Tracer) {
        let _ = tracer;
    }

    /// Attaches a [`LegalityOracle`] the module may consult *before*
    /// proposing a candidate, pruning points a driver's static verifier
    /// would refuse anyway. Purely an optimization hook: a module must
    /// behave correctly without one (illegal proposals then come back
    /// as [`Objective::Invalid`]), and drivers attach the same oracle
    /// on every path so sequential/parallel determinism is preserved.
    /// The default implementation ignores it; the tree/trace modules
    /// ([`MctsTuner`], [`TraceSampler`]) override it.
    fn attach_pruner(&mut self, oracle: &LegalityOracle) {
        let _ = oracle;
    }

    /// Proposes the next point, or `None` when the module has nothing
    /// left to try (space exhausted, staleness limit hit).
    fn propose(&mut self, space: &Space) -> Option<Point>;

    /// Proposes up to `k` points for (possibly parallel) evaluation.
    ///
    /// The default implementation asks [`SearchModule::propose`] `k`
    /// times; modules with batch-aware strategies (technique fan-out,
    /// per-member shares) override it.
    fn propose_batch(&mut self, space: &Space, k: usize) -> Vec<Point> {
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            match self.propose(space) {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }

    /// Feeds back the objective of a proposed point. `fresh` is `false`
    /// when the driver's memo table already held the point (a duplicate
    /// proposal that consumed no evaluation budget).
    fn observe(&mut self, point: &Point, objective: Objective, fresh: bool);

    /// Runs the search sequentially: the classic evaluate-one-point-at-
    /// a-time workflow of Fig. 2 (bottom), implemented as the batch
    /// protocol with `k = 1`. This is the search crate's standalone
    /// driver over any `evaluate` closure; `LocusSystem::run` in the
    /// core crate runs the same `k = 1` protocol for a sequential
    /// request, adding its memo cache, pruning and accounting.
    fn search(
        &mut self,
        space: &Space,
        budget: usize,
        evaluate: &mut dyn FnMut(&Point) -> Objective,
    ) -> SearchOutcome {
        self.begin(space, budget);
        let mut book = Bookkeeper::new(budget);
        while !book.done() {
            let batch = self.propose_batch(space, 1);
            if batch.is_empty() {
                break;
            }
            for point in &batch {
                let (objective, fresh) = book.record(point, |p| evaluate(p));
                self.observe(point, objective, fresh);
            }
        }
        book.finish()
    }
}

/// Driver-side evaluation bookkeeping shared by the standalone default
/// driver and `LocusSystem::run` in the core crate: memoized dedup,
/// budget accounting, best tracking and history recording.
///
/// The bookkeeper consumes proposals **in proposal order**; equal
/// objective values never displace an earlier best (ties break toward
/// the earliest proposal, whose canonical key the driver ordering makes
/// stable), which is what makes sequential and batched runs of
/// observation-independent modules bit-identical.
#[derive(Debug)]
pub struct Bookkeeper {
    seen: std::collections::HashMap<String, Objective>,
    outcome: SearchOutcome,
    budget: usize,
}

impl Bookkeeper {
    /// Creates a bookkeeper for a run of `budget` evaluations.
    pub fn new(budget: usize) -> Bookkeeper {
        Bookkeeper {
            seen: std::collections::HashMap::new(),
            outcome: SearchOutcome::new(),
            budget,
        }
    }

    /// Whether the budget is exhausted.
    pub fn done(&self) -> bool {
        self.outcome.evaluations >= self.budget
    }

    /// Records a point, calling `evaluate` only when the point was not
    /// seen before in this run. Returns the objective and whether this
    /// was a *fresh* evaluation.
    pub fn record(
        &mut self,
        point: &Point,
        evaluate: impl FnOnce(&Point) -> Objective,
    ) -> (Objective, bool) {
        let key = point.canonical_key();
        if let Some(cached) = self.seen.get(&key) {
            self.outcome.duplicates += 1;
            return (*cached, false);
        }
        let objective = evaluate(point);
        self.seen.insert(key, objective);
        match objective {
            Objective::Invalid => {
                self.outcome.invalid += 1;
            }
            Objective::Error => {
                self.outcome.evaluations += 1;
            }
            // A non-finite measurement (a NaN/infinite objective from a
            // broken cost model or evaluator) counts like an errored
            // evaluation: it spends budget but can never become the
            // best, so `SearchOutcome::best` stays finite.
            Objective::Value(v) if !v.is_finite() => {
                self.outcome.evaluations += 1;
            }
            Objective::Value(v) => {
                self.outcome.evaluations += 1;
                let improved = self.outcome.best.as_ref().is_none_or(|(_, best)| v < *best);
                if improved {
                    self.outcome.best = Some((point.clone(), v));
                    self.outcome.history.push((self.outcome.evaluations, v));
                }
            }
        }
        (objective, true)
    }

    /// Current best objective value.
    pub fn best_value(&self) -> Option<f64> {
        self.outcome.best.as_ref().map(|(_, v)| *v)
    }

    /// Current best point.
    pub fn best_point(&self) -> Option<&Point> {
        self.outcome.best.as_ref().map(|(p, _)| p)
    }

    /// Finishes the run and returns the outcome.
    pub fn finish(self) -> SearchOutcome {
        self.outcome
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use locus_space::{ParamDef, ParamKind, ParamValue, Point, Space};

    use crate::Objective;

    /// A 3-parameter space with a smooth optimum at
    /// (tile = 32, choice = 1, n = 10).
    pub fn quadratic_space() -> Space {
        vec![
            ParamDef::new("tile", ParamKind::PowerOfTwo { min: 2, max: 512 }),
            ParamDef::new("alg", ParamKind::Enum(vec!["a".into(), "b".into()])),
            ParamDef::new("n", ParamKind::Integer { min: 1, max: 32 }),
        ]
        .into_iter()
        .collect()
    }

    pub fn quadratic_objective(p: &Point) -> Objective {
        let tile = match p.get("tile") {
            Some(ParamValue::Int(v)) => *v as f64,
            _ => return Objective::Error,
        };
        let alg = match p.get("alg") {
            Some(ParamValue::Choice(c)) => *c as f64,
            _ => return Objective::Error,
        };
        let n = match p.get("n") {
            Some(ParamValue::Int(v)) => *v as f64,
            _ => return Objective::Error,
        };
        let score = (tile.log2() - 5.0).powi(2) + (1.0 - alg) * 4.0 + (n - 10.0).powi(2) * 0.1;
        Objective::Value(score)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn bookkeeper_dedups_and_tracks_best() {
        let space = quadratic_space();
        let mut book = Bookkeeper::new(10);
        let p = space.point_at(0);
        let (_, fresh1) = book.record(&p, quadratic_objective);
        let (_, fresh2) = book.record(&p, quadratic_objective);
        assert!(fresh1);
        assert!(!fresh2);
        let out = book.finish();
        assert_eq!(out.evaluations, 1);
        assert_eq!(out.duplicates, 1);
        assert!(out.best.is_some());
    }

    #[test]
    fn invalid_points_do_not_consume_budget() {
        let space = quadratic_space();
        let mut book = Bookkeeper::new(5);
        for i in 0..5 {
            book.record(&space.point_at(i), |_| Objective::Invalid);
        }
        let out = book.finish();
        assert_eq!(out.evaluations, 0);
        assert_eq!(out.invalid, 5);
        assert!(out.best.is_none());
    }

    #[test]
    fn history_is_monotonically_improving() {
        let space = quadratic_space();
        let mut book = Bookkeeper::new(100);
        for i in 0..60 {
            book.record(&space.point_at(i * 7 % space.size()), quadratic_objective);
        }
        let out = book.finish();
        for w in out.history.windows(2) {
            assert!(w[1].1 < w[0].1);
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn default_batch_proposals_match_repeated_single_proposals() {
        let space = quadratic_space();
        let mut a = RandomSearch::new(17);
        let mut b = RandomSearch::new(17);
        a.begin(&space, 64);
        b.begin(&space, 64);
        let batch = a.propose_batch(&space, 8);
        let singles: Vec<_> = (0..8).filter_map(|_| b.propose(&space)).collect();
        assert_eq!(batch, singles);
    }
}
