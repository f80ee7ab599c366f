//! The Locus system: direct and search workflows (Fig. 2 of the paper).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Mutex;

use locus_lang::ast::{LItem, LocusProgram};
use locus_lang::interp::{HostError, LocusError};
use locus_lang::{extract_space, Interp};
use locus_machine::{CompiledVariant, Machine, Measurement};
use locus_search::{Objective, SearchModule, SearchOutcome};
use locus_space::{Point, Space};
use locus_srcir::ast::Program;
use locus_srcir::hash::{hash_region, RegionHash};
use locus_srcir::region::{extract_region, find_regions, replace_region};
use locus_trace::{kv, Tracer};

use locus_store::{EvalRecord, PruneRecord, SessionRecord, ShardedStore, StoreKey, TuningStore};

use crate::memo::MemoCache;
use crate::registry::{is_query, run_query, RegionHost};
use crate::report::TuneReport;

/// Number of proposals a [`TuneRequest::parallel`] session draws per
/// batch (a sequential [`TuneRequest::new`] session draws one). Fixed —
/// independent of the worker count — so a run's proposal stream, and
/// with it the tuning result, is identical for 1, 2 or 8 threads.
///
/// Defined as [`locus_search::OBSERVATION_BLOCK`]: the block-buffering
/// modules (MCTS, the trace sampler) integrate observations at exactly
/// this granularity, which makes their proposal streams bit-identical
/// between sequential and parallel requests.
pub const PARALLEL_BATCH: usize = locus_search::OBSERVATION_BLOCK;

/// How many prior points a store-backed session feeds to
/// [`SearchModule::seed_observations`] when warm-starting.
pub const WARM_START_K: usize = 8;

/// Errors of the orchestration layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyError {
    /// The Locus program references no region present in the source.
    NoMatchingRegion,
    /// Space extraction failed (e.g. unsubstitutable constructs).
    Extract(String),
    /// Interpreting the optimization program failed.
    Locus(String),
    /// The persistent tuning store could not be read or written.
    Store(String),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::NoMatchingRegion => {
                write!(f, "no code region matches any CodeReg of the program")
            }
            ApplyError::Extract(m) => write!(f, "space extraction failed: {m}"),
            ApplyError::Locus(m) => write!(f, "optimization program failed: {m}"),
            ApplyError::Store(m) => write!(f, "tuning store failed: {m}"),
        }
    }
}

impl Error for ApplyError {}

/// The store a tuning session runs against: either an exclusively
/// owned single-file [`TuningStore`], or the shared lock-striped
/// [`ShardedStore`] many concurrent sessions (the `locusd` daemon's
/// workers) multiplex onto. The driver is indifferent — rehydration,
/// warm start and append-back go through this handle — which is what
/// makes daemon results bit-identical to the library path.
pub enum StoreHandle<'a> {
    /// A caller-owned single-file store (the classic library path).
    Single(&'a mut TuningStore),
    /// A shared sharded store; locking is internal and per stripe.
    Sharded(&'a ShardedStore),
}

impl StoreHandle<'_> {
    fn invalidate_stale(&mut self, current: &HashMap<String, u64>) -> usize {
        match self {
            StoreHandle::Single(s) => s.invalidate_stale(current),
            StoreHandle::Sharded(s) => s.invalidate_stale(current),
        }
    }

    fn for_each_eval(&self, key: &StoreKey, mut f: impl FnMut(&EvalRecord)) {
        match self {
            StoreHandle::Single(s) => s.evals(key).iter().for_each(&mut f),
            StoreHandle::Sharded(s) => s.for_each_eval(key, f),
        }
    }

    fn for_each_prune(&self, key: &StoreKey, mut f: impl FnMut(&PruneRecord)) {
        match self {
            StoreHandle::Single(s) => s.prunes(key).iter().for_each(&mut f),
            StoreHandle::Sharded(s) => s.for_each_prune(key, f),
        }
    }

    fn top_k(&self, key: &StoreKey, k: usize) -> Vec<(Point, f64)> {
        match self {
            StoreHandle::Single(s) => s.top_k(key, k),
            StoreHandle::Sharded(s) => s.top_k(key, k),
        }
    }

    fn append_evals(&mut self, key: &StoreKey, records: &[EvalRecord]) -> std::io::Result<usize> {
        match self {
            StoreHandle::Single(s) => s.append_evals(key, records),
            StoreHandle::Sharded(s) => s.append_evals(key, records),
        }
    }

    fn append_prunes(&mut self, key: &StoreKey, records: &[PruneRecord]) -> std::io::Result<usize> {
        match self {
            StoreHandle::Single(s) => s.append_prunes(key, records),
            StoreHandle::Sharded(s) => s.append_prunes(key, records),
        }
    }

    fn append_session(&mut self, key: &StoreKey, record: SessionRecord) -> std::io::Result<()> {
        match self {
            StoreHandle::Single(s) => s.append_session(key, record),
            StoreHandle::Sharded(s) => s.append_session(key, record),
        }
    }
}

/// A prepared (query-substituted, optimized) Locus program together with
/// its extracted optimization space.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The optimized Locus program all variants are generated from.
    pub locus: LocusProgram,
    /// The optimization space (the `convertOptUniverse` result).
    pub space: Space,
    /// Serial-to-parameter-id mapping for the interpreter.
    pub ids: HashMap<usize, String>,
}

/// The result of building and measuring one variant.
#[derive(Debug, Clone)]
pub enum VariantOutcome {
    /// The variant was built and measured.
    Measured(Box<(Program, Measurement)>),
    /// The point violates a dependent-range constraint.
    Invalid(String),
    /// The static safety verifier refused the point: a transformation's
    /// legality check failed, or an inserted `omp parallel for` races.
    /// The payload is the verifier's reason. Illegal points are *pruned*
    /// — excluded from the search without ever being simulated.
    Illegal(String),
    /// A module failed outright, the variant crashed, or the result
    /// diverged from the baseline.
    Failed(String),
}

/// Result of the search workflow.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Search statistics and best point.
    pub outcome: SearchOutcome,
    /// Measurement of the untransformed baseline.
    pub baseline: Measurement,
    /// Best variant: point, transformed program, and its measurement.
    pub best: Option<(Point, Program, Measurement)>,
    /// Size of the optimization space.
    pub space_size: u128,
}

impl TuneResult {
    /// Speedup of the shipped result over the baseline. The system is
    /// non-prescriptive (Sec. II): when the best variant does not beat
    /// the baseline, the baseline itself ships, so the speedup never
    /// drops below 1.0. Degenerate measurements — a zero or near-zero
    /// time on either side, as an empty kernel produces — report 1.0
    /// rather than infinity, and the ratio is clamped so the value is
    /// always finite.
    pub fn speedup(&self) -> f64 {
        const EPS: f64 = 1e-12;
        const MAX_SPEEDUP: f64 = 1e12;
        match &self.best {
            Some((_, _, m)) if m.time_ms > EPS && self.baseline.time_ms.is_finite() => {
                (self.baseline.time_ms / m.time_ms).clamp(1.0, MAX_SPEEDUP)
            }
            _ => 1.0,
        }
    }
}

/// One tuning session for [`LocusSystem::run`]: what to tune, for how
/// many evaluations, and the optional parts it runs with — a worker
/// pool, a caller-owned memo, a persistent store, a tracer.
pub struct TuneRequest<'a> {
    source: &'a Program,
    locus: &'a LocusProgram,
    budget: usize,
    threads: usize,
    batch_size: usize,
    cache: Option<&'a MemoCache>,
    store: Option<StoreHandle<'a>>,
    tracer: Option<&'a Tracer>,
}

impl<'a> TuneRequest<'a> {
    /// The paper's one-at-a-time search loop (Fig. 2, bottom) over
    /// `source` under `locus` for `budget` evaluations: batches of one
    /// point on the calling thread, a fresh session memo, no store, no
    /// tracing. [`SearchModule::search`] runs the same protocol without
    /// the driver's memo, pruning and accounting.
    pub fn new(source: &'a Program, locus: &'a LocusProgram, budget: usize) -> TuneRequest<'a> {
        TuneRequest {
            source,
            locus,
            budget,
            threads: 1,
            batch_size: 1,
            cache: None,
            store: None,
            tracer: None,
        }
    }

    /// Switches to batches of [`PARALLEL_BATCH`] proposals, measured by
    /// `threads` workers (the calling thread is one of them).
    pub fn parallel(mut self, threads: usize) -> TuneRequest<'a> {
        self.threads = threads;
        self.batch_size = PARALLEL_BATCH;
        self
    }

    /// Runs against a caller-owned [`MemoCache`], so several sessions —
    /// different search modules or seeds over the same source and
    /// machine — share measurements: a variant assessed by any earlier
    /// session is never measured again (the OpenTuner-memoization effect
    /// the paper credits in Sec. IV-B). The session's
    /// [`TuneReport::memo`] then reports the cache's cumulative counters.
    ///
    /// Cache entries record objectives of *one* machine; sharing a cache
    /// between systems with different machine configurations would
    /// return stale measurements. Use one cache per (source, machine)
    /// pair.
    pub fn cache(mut self, cache: &'a MemoCache) -> TuneRequest<'a> {
        self.cache = Some(cache);
        self
    }

    /// Runs against a persistent store, closing the loop the paper opens
    /// in Sec. II (shipping tuning results for reuse). Before the search
    /// starts the driver:
    ///
    /// 1. **checks coherence** — store entries recorded for region
    ///    contents that have since been edited are invalidated
    ///    ([`TuningStore::invalidate_stale`]); entries of unchanged
    ///    sibling regions stay live;
    /// 2. **rehydrates** the session's [`MemoCache`] with every prior
    ///    evaluation of this exact `(regions, machine, space)` context,
    ///    so previously assessed proposals are answered from disk — a
    ///    repeat session over unchanged code re-measures nothing;
    /// 3. **warm-starts** the search module with the store's
    ///    [`WARM_START_K`] best prior points via
    ///    [`SearchModule::seed_observations`].
    ///
    /// Every fresh measurement is appended to the store — as is every
    /// *prune* (a point the static safety verifier refused before
    /// simulation), so warm sessions replay refusals from disk — along
    /// with a session summary (region profile, winning point, and the
    /// direct recipe it denotes) that
    /// [`crate::suggest::suggest_with_store`] retrieves for structurally
    /// similar regions. Prior points are fed best-first with
    /// canonical-key tie-breaks and objectives are persisted bit-exactly,
    /// so the same store contents plus the same search seed reproduce
    /// the same trajectory and the same best point, whichever kind of
    /// [`StoreHandle`] holds them.
    ///
    /// A [`StoreHandle::Sharded`] store is taken by `&`, so any number of
    /// concurrent sessions — the `locusd` daemon's workers — share one;
    /// each locks only the stripe holding its own `(regions, machine,
    /// space)` records, and the batch loop in between holds no store
    /// lock at all.
    pub fn store(mut self, store: StoreHandle<'a>) -> TuneRequest<'a> {
        self.store = Some(store);
        self
    }

    /// Records the session into `tracer`. When it is enabled the driver
    /// emits, into it:
    ///
    /// * `phase` spans bracketing every pipeline stage — prepare,
    ///   baseline, store rehydration, warm start, and per batch the
    ///   propose / build-verify / measure / merge stages, then
    ///   finalize-best and store-append;
    /// * one `eval` instant event per merged proposal, carrying the
    ///   point's canonical key, its variant digest, where the objective
    ///   came from (fresh measurement, session memo, store, coalesced,
    ///   pruned), the verdict and the measured milliseconds;
    /// * `verify` events for every statically pruned point (with the
    ///   verifier's reason), `machine` spans from the workers (merged
    ///   deterministically in evaluation-slot order), `search` events
    ///   from the module's own decisions, and a final `session` summary
    ///   with the complete [`TuneReport`] accounting.
    ///
    /// Tracing is observation-only: for the same inputs the returned
    /// [`TuneResult`] is bit-identical whether the tracer is enabled,
    /// disabled, or absent (asserted by the parallel determinism suite).
    pub fn tracer(mut self, tracer: &'a Tracer) -> TuneRequest<'a> {
        self.tracer = Some(tracer);
        self
    }
}

/// The Locus system: a simulated machine plus orchestration policy.
#[derive(Debug, Clone)]
pub struct LocusSystem {
    /// The machine variants are measured on.
    pub machine: Machine,
    /// Snippet store for `BuiltIn.Altdesc`.
    pub snippets: HashMap<String, String>,
    /// Whether transformation modules run their legality checks.
    pub check_legality: bool,
    /// Entry function executed to measure a variant.
    pub entry: String,
    /// Whether variants must reproduce the baseline's checksum.
    pub verify_results: bool,
    /// Whether the Sec. IV-C program optimizer (constant propagation,
    /// folding, DCE) runs during [`LocusSystem::prepare`]. On by
    /// default; the ablation benches turn it off to measure its effect
    /// on space size and search time.
    pub optimize_programs: bool,
    /// Pre-compiled handle for the tuning *source* (batched
    /// evaluation): when set and it wraps exactly the source and entry
    /// a driver is about to baseline, the measurement goes through the
    /// handle's compile memo instead of re-lowering. The fleet driver
    /// shares one across machine profiles — the source compiles once
    /// for the whole fan-out. Ignored (with a fresh lowering) whenever
    /// the wrapped program differs from the measured one.
    baseline_variant: Option<std::sync::Arc<CompiledVariant>>,
}

impl LocusSystem {
    /// Creates a system over a machine with default policy: legality
    /// checks on, result verification on, entry point `kernel`.
    pub fn new(machine: Machine) -> LocusSystem {
        LocusSystem {
            machine,
            snippets: HashMap::new(),
            check_legality: true,
            entry: "kernel".to_string(),
            verify_results: true,
            optimize_programs: true,
            baseline_variant: None,
        }
    }

    /// Shares a pre-compiled source handle with this system (see the
    /// `baseline_variant` field): subsequent baseline measurements of
    /// that exact program reuse its compiled code across machine
    /// configurations instead of re-lowering per run.
    pub fn set_baseline_variant(&mut self, variant: std::sync::Arc<CompiledVariant>) {
        self.baseline_variant = Some(variant);
    }

    /// Prepares a Locus program for a given source: substitutes queries
    /// per `CodeReg` (Sec. IV-C), runs the program optimizer, and
    /// extracts the space.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError::Extract`] when a search construct cannot be
    /// statically bounded even after query substitution.
    pub fn prepare(&self, source: &Program, locus: &LocusProgram) -> Result<Prepared, ApplyError> {
        let mut locus = locus.clone();
        let regions = find_regions(source);

        // Per-CodeReg selective query substitution against the first
        // matching region: only queries whose results reach search
        // constructs or control flow are pre-evaluated (Sec. IV-C); the
        // rest (e.g. Fig. 13's `innerloops`) run live per variant so
        // they observe earlier transformations.
        for item in &mut locus.items {
            let LItem::CodeReg { name, body } = item else {
                continue;
            };
            let Some(region) = regions.iter().find(|r| &r.id == name) else {
                continue;
            };
            let Some(code) = extract_region(source, region) else {
                continue;
            };
            crate::subst::substitute_needed_queries(body, &mut |module, func| {
                if is_query(module, func) {
                    run_query(&code.stmt, module, func)
                } else {
                    None
                }
            });
        }

        if self.optimize_programs {
            locus_lang::optimize::optimize(&mut locus);
        }
        let info = extract_space(&locus).map_err(|e| ApplyError::Extract(e.to_string()))?;
        Ok(Prepared {
            locus,
            space: info.space,
            ids: info.ids,
        })
    }

    /// A [`locus_search::LegalityOracle`] over this system: `true` iff
    /// the point decodes and passes verification (`verify::legal`).
    /// [`LocusSystem::run`] attaches the same oracle on every path, so
    /// pruning-aware modules behave the same under any request; the oracle
    /// is an optimization hook only — a module must also cope with
    /// `Objective::Invalid` feedback for points that slip through.
    fn legality_oracle(
        &self,
        source: &Program,
        prepared: &Prepared,
    ) -> locus_search::LegalityOracle {
        let sys = self.clone();
        let source = source.clone();
        let prepared = prepared.clone();
        std::sync::Arc::new(move |point: &Point| {
            sys.build_variant(&source, &prepared, point).is_ok()
        })
    }

    /// Builds the variant a point denotes: runs the optimization program
    /// on every matching region of (a clone of) the source.
    pub fn build_variant(
        &self,
        source: &Program,
        prepared: &Prepared,
        point: &Point,
    ) -> Result<Program, VariantOutcome> {
        let mut program = source.clone();
        let regions = find_regions(&program);
        let mut matched = false;
        for region in &regions {
            if prepared.locus.codereg(&region.id).is_none() {
                continue;
            }
            matched = true;
            let Some(code) = extract_region(&program, region) else {
                continue;
            };
            let mut stmt = code.stmt;
            {
                let mut host = RegionHost::new(&mut stmt, &self.snippets);
                host.check_legality = self.check_legality;
                let mut interp = Interp::new(&prepared.locus, &mut host, point, &prepared.ids);
                match interp.run_codereg(&region.id) {
                    Ok(()) => {}
                    Err(LocusError::InvalidPoint(m)) => {
                        return Err(VariantOutcome::Invalid(m));
                    }
                    Err(LocusError::Host(HostError::Illegal(m))) => {
                        return Err(VariantOutcome::Illegal(m));
                    }
                    Err(e) => return Err(VariantOutcome::Failed(e.to_string())),
                }
            }
            replace_region(&mut program, region, stmt);
        }
        if !matched {
            return Err(VariantOutcome::Failed(
                ApplyError::NoMatchingRegion.to_string(),
            ));
        }
        Ok(program)
    }

    /// Measures a program on the system's machine.
    ///
    /// # Errors
    ///
    /// Propagates the interpreter's runtime errors.
    pub fn measure(&self, program: &Program) -> Result<Measurement, locus_machine::RuntimeError> {
        self.machine.run(program, &self.entry)
    }

    /// Measures `source` for a baseline, routing through the shared
    /// [`CompiledVariant`] when one is set for exactly this program and
    /// entry (bit-identical to [`LocusSystem::measure`] either way —
    /// the batched path's contract).
    fn measure_baseline(
        &self,
        source: &Program,
    ) -> Result<Measurement, locus_machine::RuntimeError> {
        if let Some(v) = &self.baseline_variant {
            if v.entry() == self.entry && v.program() == source {
                return v.run(self.machine.config());
            }
        }
        self.measure(source)
    }

    /// Builds and measures the variant of one point, verifying the
    /// result against `expected_checksum` when verification is on.
    pub fn evaluate_point(
        &self,
        source: &Program,
        prepared: &Prepared,
        point: &Point,
        expected_checksum: Option<u64>,
    ) -> VariantOutcome {
        let program = match self.build_variant(source, prepared, point) {
            Ok(p) => p,
            Err(outcome) => return outcome,
        };
        match self.measure(&program) {
            Ok(m) => {
                if self.verify_results {
                    if let Some(expect) = expected_checksum {
                        if m.checksum != expect {
                            return VariantOutcome::Failed(format!(
                                "variant checksum {:016x} diverged from baseline {expect:016x}",
                                m.checksum
                            ));
                        }
                    }
                }
                VariantOutcome::Measured(Box::new((program, m)))
            }
            Err(e) => VariantOutcome::Failed(e.to_string()),
        }
    }

    /// Renders the *direct* Locus program a chosen point denotes — the
    /// artifact the paper ships alongside the baseline source so the
    /// tuning result can be reused "for machines with similar
    /// environments" (Sec. II). The result contains no search
    /// constructs; running it through [`LocusSystem::apply_direct`]
    /// reproduces the winning variant.
    pub fn direct_program(&self, prepared: &Prepared, point: &Point) -> String {
        let specialized = locus_lang::specialize(&prepared.locus, point, &prepared.ids);
        locus_lang::print_program(&specialized)
    }

    /// The direct workflow (Fig. 2, top): applies the program with
    /// default choices for any search construct and returns the
    /// optimized source.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when the program cannot be prepared or a
    /// module invocation fails.
    pub fn apply_direct(
        &self,
        source: &Program,
        locus: &LocusProgram,
    ) -> Result<Program, ApplyError> {
        let prepared = self.prepare(source, locus)?;
        match self.build_variant(source, &prepared, &Point::new()) {
            Ok(p) => Ok(p),
            Err(VariantOutcome::Invalid(m))
            | Err(VariantOutcome::Illegal(m))
            | Err(VariantOutcome::Failed(m)) => Err(ApplyError::Locus(m)),
            Err(VariantOutcome::Measured(_)) => unreachable!("build never measures"),
        }
    }

    /// The [`StoreKey`] a tuning session of `source` under `prepared`
    /// files its records under: the hashes of the regions the program
    /// actually matches, plus machine and space digests.
    pub fn store_key(&self, source: &Program, prepared: &Prepared) -> StoreKey {
        let regions = matched_regions(source, prepared);
        StoreKey::new(
            regions
                .into_iter()
                .map(|(id, hash, _)| (id, hash))
                .collect(),
            self.machine.digest(),
            prepared.space.digest(),
        )
    }

    /// [`LocusSystem::run`] with a single-file store and a tracer, kept
    /// only because the benchmark harness calls it by name
    /// (`perfbench/src/dgemm.rs`). Workspace code calls `run`.
    #[allow(clippy::too_many_arguments)]
    pub fn tune_parallel_with_store_and_tracer(
        &self,
        source: &Program,
        locus: &LocusProgram,
        search: &mut dyn SearchModule,
        budget: usize,
        threads: usize,
        store: &mut TuningStore,
        tracer: &Tracer,
    ) -> Result<(TuneResult, TuneReport), ApplyError> {
        let store = StoreHandle::Single(store);
        let request = TuneRequest::new(source, locus, budget).parallel(threads);
        self.run(request.store(store).tracer(tracer), search)
    }

    /// [`LocusSystem::run`] with a sharded store and a tracer, kept only
    /// because the benchmark harness calls it by name
    /// (`perfbench/src/service.rs`). Workspace code, the daemon
    /// included, calls `run`.
    #[allow(clippy::too_many_arguments)]
    pub fn tune_parallel_with_sharded_store(
        &self,
        source: &Program,
        locus: &LocusProgram,
        search: &mut dyn SearchModule,
        budget: usize,
        threads: usize,
        store: &ShardedStore,
        tracer: &Tracer,
    ) -> Result<(TuneResult, TuneReport), ApplyError> {
        let store = StoreHandle::Sharded(store);
        let request = TuneRequest::new(source, locus, budget).parallel(threads);
        self.run(request.store(store).tracer(tracer), search)
    }

    /// The search workflow (Fig. 2, bottom): converts the space, drives
    /// the search module for the request's budget of evaluations, and
    /// returns the best variant together with the baseline measurement
    /// and the session's [`TuneReport`] — most importantly
    /// [`TuneReport::pruned_illegal`], the number of proposals the
    /// static safety verifier rejected *before* simulation.
    ///
    /// Proposals are drawn in batches (one point for a sequential
    /// request, [`PARALLEL_BATCH`] for a [`TuneRequest::parallel`] one)
    /// and resolved against a two-level [`MemoCache`], so duplicate
    /// points — and distinct points denoting the *same* variant — are
    /// measured exactly once. New variants are built on the calling
    /// thread and measured by the request's workers.
    ///
    /// Determinism: the batch size does not depend on the worker count,
    /// workers only compute objectives (the simulated machine is
    /// deterministic), and results are merged back in proposal order
    /// through a [`locus_search::Bookkeeper`]. For search modules whose
    /// proposals do not depend on observations (exhaustive, seeded
    /// random) a parallel request is bit-identical to a sequential one;
    /// for every module it is bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when preparation fails, the baseline
    /// cannot be measured, or ([`ApplyError::Store`]) the store cannot
    /// be written.
    pub fn run(
        &self,
        request: TuneRequest<'_>,
        search: &mut dyn SearchModule,
    ) -> Result<(TuneResult, TuneReport), ApplyError> {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (source, locus, budget) = (request.source, request.locus, request.budget);
        let mut store = request.store;
        let session_cache = MemoCache::new();
        let cache = request.cache.unwrap_or(&session_cache);
        let disabled = Tracer::disabled();
        let tracer = request.tracer.unwrap_or(&disabled);

        let prepared = {
            let _span = tracer.span("phase", "prepare");
            self.prepare(source, locus)?
        };
        let baseline = {
            let _span = tracer.span("phase", "baseline");
            self.measure_baseline(source)
                .map_err(|e| ApplyError::Locus(format!("baseline run failed: {e}")))?
        };
        let expected = baseline.checksum;
        let threads = request.threads.max(1);
        let mut report = TuneReport::default();

        // Store session prologue: coherence check, cache rehydration.
        let store_key = store.as_ref().map(|_| self.store_key(source, &prepared));
        if let (Some(store), Some(key)) = (store.as_mut(), store_key.as_ref()) {
            let _span = tracer.span("phase", "store-rehydrate");
            let current: HashMap<String, u64> = region_hashes(source)
                .into_iter()
                .map(|(id, hash)| (id, hash.0))
                .collect();
            report.invalidated = store.invalidate_stale(&current);
            store.for_each_eval(key, |record| {
                cache.seed(&record.point_key, record.variant, record.objective);
                report.rehydrated += 1;
            });
            // Prior static refusals replay from disk too: a warm
            // session neither re-analyzes nor re-proposes known-racy
            // points.
            store.for_each_prune(key, |prune| {
                cache.seed(&prune.point_key, prune.variant, Objective::Invalid);
                report.rehydrated += 1;
            });
        }

        search.attach_tracer(tracer);
        search.attach_pruner(&self.legality_oracle(source, &prepared));
        search.begin(&prepared.space, budget);
        if let (Some(store), Some(key)) = (store.as_ref(), store_key.as_ref()) {
            let _span = tracer.span("phase", "warm-start");
            let prior = store.top_k(key, WARM_START_K);
            report.seeded = prior.len();
            if !prior.is_empty() {
                search.seed_observations(&prepared.space, &prior);
            }
        }

        // Tracing-only state: per-point objectives for the top-variant
        // epilogue events. Populated only when the tracer is enabled, so
        // the untraced driver allocates nothing here.
        let mut traced_best: HashMap<String, (f64, Point)> = HashMap::new();
        let mut eval_index: u64 = 0;
        let search_name = search.name().to_string();
        let mut fresh_records: Vec<EvalRecord> = Vec::new();
        // Every variant built this run, keyed by its digest and held as
        // a [`CompiledVariant`]: workers measure through these, and the
        // finalize step reuses the winner's compiled code. The programs
        // are small region kernels, so holding them for the run is
        // cheap next to even one simulation.
        let mut compiled: HashMap<u64, std::sync::Arc<CompiledVariant>> = HashMap::new();
        let mut fresh_prunes: Vec<PruneRecord> = Vec::new();

        let mut book = locus_search::Bookkeeper::new(budget);
        'driver: while !book.done() {
            let batch = {
                let _span = tracer.span("phase", "propose");
                search.propose_batch(&prepared.space, request.batch_size)
            };
            if batch.is_empty() {
                break;
            }
            report.proposed += batch.len();

            // Resolve every proposal against the cache, then *build*
            // each new variant on this thread: the build runs the
            // optimization program, and with it every legality check
            // and the race analyzer, so statically refused points are
            // pruned here — before a worker thread ever simulates
            // anything. What reaches the pool is one built program per
            // *new, legal* variant digest.
            let mut batch_variant: Vec<u64> = Vec::with_capacity(batch.len());
            // One origin label per proposal, read back by the merge
            // loop's `eval` events. When the tracer is disabled the
            // labels are never read; pushing `&'static str`s is free.
            let mut batch_origin: Vec<&'static str> = Vec::with_capacity(batch.len());
            let mut to_measure: Vec<(u64, Point, std::sync::Arc<CompiledVariant>)> = Vec::new();
            let mut measuring = std::collections::HashSet::new();
            let build_span = tracer.span("phase", "build-verify");
            for point in &batch {
                let variant =
                    locus_srcir::hash::fnv1a(self.direct_program(&prepared, point).as_bytes());
                batch_variant.push(variant);
                if cache.lookup_point(point).is_some() || cache.lookup_variant(variant).is_some() {
                    batch_origin.push(if tracer.is_enabled() {
                        cache.peek_origin(point, variant).unwrap_or("session")
                    } else {
                        "hit"
                    });
                    continue;
                }
                if !measuring.insert(variant) {
                    cache.note_coalesced();
                    batch_origin.push("coalesced");
                    continue;
                }
                let start = std::time::Instant::now();
                match self.build_variant(source, &prepared, point) {
                    Ok(program) => {
                        batch_origin.push("fresh");
                        // Wrap for batched evaluation: the worker that
                        // measures it compiles it (off the main thread),
                        // and the finalize step below re-measures the
                        // winner through the same memo — no re-lowering.
                        let cv = std::sync::Arc::new(CompiledVariant::new(program, &self.entry));
                        compiled.insert(variant, std::sync::Arc::clone(&cv));
                        to_measure.push((variant, point.clone(), cv));
                    }
                    Err(VariantOutcome::Illegal(reason)) => {
                        // Pruned: no measurement happened, so no
                        // `note_miss` — the point simply never costs an
                        // evaluation.
                        batch_origin.push("pruned");
                        let provenance = locus_verify::refusal_provenance(&reason);
                        tracer.instant("verify", "prune", || {
                            vec![
                                kv("point", point.canonical_key()),
                                kv("category", locus_verify::refusal_category(&reason)),
                                kv("provenance", provenance),
                                kv("reason", reason.clone()),
                            ]
                        });
                        cache.insert(point, variant, Objective::Invalid);
                        report.pruned_illegal += 1;
                        if store.is_some() {
                            fresh_prunes.push(PruneRecord {
                                point_key: point.canonical_key(),
                                variant,
                                reason,
                                provenance: provenance.to_string(),
                                search: search_name.clone(),
                            });
                        }
                    }
                    Err(outcome) => {
                        // Build-time invalid/failed points keep the
                        // ordinary evaluation accounting.
                        let objective = match outcome {
                            VariantOutcome::Invalid(_) => Objective::Invalid,
                            _ => Objective::Error,
                        };
                        batch_origin.push(match objective {
                            Objective::Invalid => "invalid",
                            _ => "error",
                        });
                        cache.note_miss();
                        cache.insert(point, variant, objective);
                        if store.is_some() {
                            fresh_records.push(EvalRecord {
                                point_key: point.canonical_key(),
                                variant,
                                objective,
                                cycles: 0.0,
                                ops: 0,
                                flops: 0,
                                checksum: 0,
                                search: search_name.clone(),
                                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                            });
                        }
                    }
                }
            }
            drop(build_span);

            // Fan the fresh measurements out over the worker pool: the
            // calling thread plus `threads - 1` scoped helpers, all
            // borrowing this system (and thus the machine); an atomic
            // cursor deals work out. Workers only *measure* — every
            // program handed to them was built (and statically vetted)
            // on the calling thread above.
            if !to_measure.is_empty() {
                let _span = tracer.span("phase", "measure");
                let work = &to_measure;
                let cursor = AtomicUsize::new(0);
                let cursor = &cursor;
                let results: Vec<Mutex<Option<(Objective, MeasureSummary)>>> =
                    work.iter().map(|_| Mutex::new(None)).collect();
                let results = &results;
                // One scoped child tracer per work *slot* (not per worker
                // thread): whichever thread measures slot `i` records into
                // slot `i`'s buffer, so absorbing the buffers in slot order
                // below merges worker-side spans deterministically no
                // matter how the scheduler dealt the work out.
                let slot_tracers: Vec<Tracer> = (0..work.len())
                    .map(|i| tracer.scoped(i as u64 + 1))
                    .collect();
                let slot_tracers = &slot_tracers;
                let worker = move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((_, _, variant)) = work.get(i) else {
                        break;
                    };
                    let start = std::time::Instant::now();
                    let (objective, mut summary) =
                        match variant.run_traced(self.machine.config(), &slot_tracers[i]) {
                            Ok(m) if self.verify_results && m.checksum != expected => {
                                (Objective::Error, MeasureSummary::default())
                            }
                            Ok(m) => (
                                Objective::Value(m.time_ms),
                                MeasureSummary {
                                    cycles: m.cycles,
                                    ops: m.ops,
                                    flops: m.flops,
                                    checksum: m.checksum,
                                    wall_ms: 0.0,
                                },
                            ),
                            Err(_) => (Objective::Error, MeasureSummary::default()),
                        };
                    summary.wall_ms = start.elapsed().as_secs_f64() * 1e3;
                    *results[i].lock().expect("result slot") = Some((objective, summary));
                };
                std::thread::scope(|scope| {
                    for _ in 1..threads.min(work.len()) {
                        scope.spawn(worker);
                    }
                    worker();
                });
                for slot in slot_tracers {
                    tracer.absorb(slot.drain());
                }
                for ((variant, point, _), slot) in work.iter().zip(results) {
                    let (objective, summary) = slot
                        .lock()
                        .expect("result slot")
                        .expect("worker filled every dealt slot");
                    cache.note_miss();
                    cache.insert(point, *variant, objective);
                    if store.is_some() {
                        fresh_records.push(EvalRecord {
                            point_key: point.canonical_key(),
                            variant: *variant,
                            objective,
                            cycles: summary.cycles,
                            ops: summary.ops,
                            flops: summary.flops,
                            checksum: summary.checksum,
                            search: search_name.clone(),
                            wall_ms: summary.wall_ms,
                        });
                    }
                }
            }

            // Deterministic merge: feed results back in proposal order
            // through the same bookkeeping the sequential driver uses.
            let _span = tracer.span("phase", "merge");
            for ((point, variant), origin) in batch.iter().zip(&batch_variant).zip(&batch_origin) {
                if book.done() {
                    break 'driver;
                }
                let objective = cache
                    .peek_variant(*variant)
                    .or_else(|| cache.peek_point(point))
                    .expect("every batch point resolved");
                cache.insert_point(point, objective);
                let (recorded, fresh) = book.record(point, |_| objective);
                if tracer.is_enabled() {
                    eval_index += 1;
                    let (value, verdict) = match recorded {
                        Objective::Value(v) => (Some(v), "ok"),
                        Objective::Invalid => (None, "invalid"),
                        Objective::Error => (None, "error"),
                    };
                    let key = point.canonical_key();
                    if let Some(v) = value {
                        traced_best
                            .entry(key.clone())
                            .or_insert_with(|| (v, point.clone()));
                    }
                    tracer.instant("eval", "point", || {
                        let mut args = vec![
                            kv("index", eval_index),
                            kv("point", key),
                            kv("variant", format!("{variant:016x}")),
                            kv("origin", *origin),
                            kv("verdict", verdict),
                            kv("fresh", fresh),
                        ];
                        if let Some(v) = value {
                            args.push(kv("ms", v));
                        }
                        args
                    });
                }
                search.observe(point, recorded, fresh);
            }
        }
        let outcome = book.finish();

        let best = {
            let _span = tracer.span("phase", "finalize-best");
            outcome.best.clone().and_then(|(point, _)| {
                // When the winner was built (and therefore compiled)
                // this run, re-measure through its memoized code; a
                // winner resolved purely from rehydrated records was
                // never built here and takes the build-and-measure
                // path.
                let digest =
                    locus_srcir::hash::fnv1a(self.direct_program(&prepared, &point).as_bytes());
                if let Some(cv) = compiled.get(&digest) {
                    return match cv.run(self.machine.config()) {
                        Ok(m) if !self.verify_results || m.checksum == expected => {
                            Some((point, cv.program().clone(), m))
                        }
                        _ => None,
                    };
                }
                match self.evaluate_point(source, &prepared, &point, Some(expected)) {
                    VariantOutcome::Measured(boxed) => {
                        let (program, m) = *boxed;
                        Some((point, program, m))
                    }
                    _ => None,
                }
            })
        };

        // Store session epilogue: persist fresh measurements and a
        // session summary (region profile + winning recipe) the
        // suggester can retrieve later.
        if let (Some(mut store), Some(key)) = (store, store_key.as_ref()) {
            let _span = tracer.span("phase", "store-append");
            report.appended = store
                .append_evals(key, &fresh_records)
                .map_err(|e| ApplyError::Store(e.to_string()))?;
            report.appended += store
                .append_prunes(key, &fresh_prunes)
                .map_err(|e| ApplyError::Store(e.to_string()))?;
            if let Some((point, _, m)) = &best {
                let recipe = self.direct_program(&prepared, point);
                for (id, _, stmt) in matched_regions(source, &prepared) {
                    let profile = crate::suggest::profile_region(&stmt);
                    store
                        .append_session(
                            key,
                            SessionRecord {
                                region: id,
                                shape: profile.shape(),
                                best_point: point.canonical_key(),
                                best_ms: m.time_ms,
                                recipe: recipe.clone(),
                                search: search_name.clone(),
                            },
                        )
                        .map_err(|e| ApplyError::Store(e.to_string()))?;
                }
            }
        }
        report.memo = cache.stats();

        // Trace epilogue: the top variants (with their shippable direct
        // recipes) and a session summary carrying the full report
        // accounting — the raw material of `locus-report`.
        if tracer.is_enabled() {
            let mut ranked: Vec<(&String, &(f64, Point))> = traced_best.iter().collect();
            ranked.sort_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then_with(|| a.0.cmp(b.0)));
            for (rank, (key, (ms, point))) in ranked.into_iter().take(3).enumerate() {
                let recipe = self.direct_program(&prepared, point);
                tracer.instant("eval", "top-variant", || {
                    vec![
                        kv("rank", (rank + 1) as u64),
                        kv("point", key.as_str()),
                        kv("ms", *ms),
                        kv("recipe", recipe),
                    ]
                });
            }
            let best_ms = best.as_ref().map(|(_, _, m)| m.time_ms);
            tracer.instant("session", "summary", || {
                let mut args = vec![
                    kv("search", search_name.as_str()),
                    kv("budget", budget as u64),
                    kv("threads", threads as u64),
                    kv("space_size", format!("{}", prepared.space.size())),
                    kv("proposed", report.proposed as u64),
                    kv("evaluations", report.evaluations() as u64),
                    kv("memo_hits", report.memo_hits() as u64),
                    kv("store_hits", report.store_hits() as u64),
                    kv("pruned_illegal", report.pruned_illegal as u64),
                    kv("rehydrated", report.rehydrated as u64),
                    kv("seeded", report.seeded as u64),
                    kv("appended", report.appended as u64),
                    kv("baseline_ms", baseline.time_ms),
                    kv("machine_digest", format!("{:016x}", self.machine.digest())),
                    kv("space_digest", format!("{:016x}", prepared.space.digest())),
                ];
                if let Some(ms) = best_ms {
                    args.push(kv("best_ms", ms));
                }
                args
            });
        }

        Ok((
            TuneResult {
                outcome,
                baseline,
                best,
                space_size: prepared.space.size(),
            },
            report,
        ))
    }
}

/// Measurement summary workers hand back alongside the objective — the
/// payload of the store's evaluation records.
#[derive(Debug, Clone, Copy, Default)]
struct MeasureSummary {
    cycles: f64,
    ops: u64,
    flops: u64,
    checksum: u64,
    wall_ms: f64,
}

/// The regions of `source` the prepared program actually matches, as
/// `(id, content hash, region root)` triples sorted by id — the region
/// component of a session's [`StoreKey`].
fn matched_regions(
    source: &Program,
    prepared: &Prepared,
) -> Vec<(String, u64, locus_srcir::ast::Stmt)> {
    let mut out: Vec<(String, u64, locus_srcir::ast::Stmt)> = Vec::new();
    for region in find_regions(source) {
        if prepared.locus.codereg(&region.id).is_none() {
            continue;
        }
        if out.iter().any(|(id, _, _)| id == &region.id) {
            continue;
        }
        if let Some(code) = extract_region(source, &region) {
            out.push((region.id.clone(), hash_region(&code.stmt).0, code.stmt));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Checks stored region hashes against the current source (the coherence
/// mechanism of Sec. II). Returns a warning per changed or missing
/// region.
pub fn check_coherence(source: &Program, stored: &HashMap<String, RegionHash>) -> Vec<String> {
    let regions = find_regions(source);
    let mut warnings = Vec::new();
    for (id, expected) in stored {
        let found: Vec<_> = regions.iter().filter(|r| &r.id == id).collect();
        if found.is_empty() {
            warnings.push(format!("region `{id}` no longer exists in the source"));
            continue;
        }
        for r in found {
            if let Some(code) = extract_region(source, r) {
                let current = hash_region(&code.stmt);
                if current != *expected {
                    warnings.push(format!(
                        "region `{id}` changed (stored {expected}, current {current}); \
                         stored optimizations may no longer apply"
                    ));
                }
            }
        }
    }
    warnings
}

/// Computes the hashes of every region for storing alongside a Locus
/// program.
pub fn region_hashes(source: &Program) -> HashMap<String, RegionHash> {
    let mut out = HashMap::new();
    for r in find_regions(source) {
        if let Some(code) = extract_region(source, &r) {
            out.entry(r.id.clone())
                .or_insert_with(|| hash_region(&code.stmt));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_machine::MachineConfig;
    use locus_search::BanditTuner;
    use locus_srcir::parse_program;

    const MATMUL_SRC: &str = r#"
    double C[32][32];
    double A[32][32];
    double B[32][32];
    void kernel() {
        int i;
        int j;
        int k;
        #pragma @Locus loop=matmul
        for (i = 0; i < 32; i++)
            for (j = 0; j < 32; j++)
                for (k = 0; k < 32; k++)
                    C[i][j] = C[i][j] + A[i][k] * B[k][j];
    }
    "#;

    fn system() -> LocusSystem {
        LocusSystem::new(Machine::new(MachineConfig::scaled_small().with_cores(1)))
    }

    #[test]
    fn direct_workflow_applies_fixed_sequence() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                Pips.Tiling(loop="0", factor=[8, 8, 8]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let optimized = sys.apply_direct(&source, &locus).unwrap();
        let regions = find_regions(&optimized);
        assert_eq!(regions.len(), 1, "region annotation preserved");
        let stmt = extract_region(&optimized, &regions[0]).unwrap().stmt;
        assert_eq!(locus_analysis::loops::all_loops(&stmt).len(), 6);

        // The transformed program computes the same result.
        let base = sys.measure(&source).unwrap();
        let opt = sys.measure(&optimized).unwrap();
        assert_eq!(base.checksum, opt.checksum);
    }

    #[test]
    fn direct_workflow_reports_missing_region() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse("CodeReg other { RoseLocus.LICM(); }").unwrap();
        let sys = system();
        assert!(matches!(
            sys.apply_direct(&source, &locus),
            Err(ApplyError::Locus(_))
        ));
    }

    #[test]
    fn tiling_improves_matmul_locality() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                Pips.Tiling(loop="0", factor=[16, 16, 16]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let optimized = sys.apply_direct(&source, &locus).unwrap();
        let base = sys.measure(&source).unwrap();
        let opt = sys.measure(&optimized).unwrap();
        assert_eq!(base.checksum, opt.checksum);
        // Everything fits in the simulated L3, so DRAM traffic ties; the
        // win shows up as more L1 hits and fewer cycles.
        assert!(
            opt.cycles < base.cycles,
            "tiling+interchange should beat naive ijk: {} vs {}",
            opt.cycles,
            base.cycles
        );
    }

    #[test]
    fn search_workflow_finds_an_improving_variant() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                tileI = poweroftwo(4..16);
                tileK = poweroftwo(4..16);
                tileJ = poweroftwo(4..16);
                Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let mut search = BanditTuner::new(7);
        let (result, _) = sys
            .run(TuneRequest::new(&source, &locus, 12), &mut search)
            .unwrap();
        assert_eq!(result.space_size, 27);
        let (_, _, best) = result.best.as_ref().expect("a best variant");
        assert_eq!(best.checksum, result.baseline.checksum);
        assert!(
            result.speedup() > 1.0,
            "tiled matmul should beat the naive baseline (speedup {})",
            result.speedup()
        );
    }

    #[test]
    fn invalid_dependent_points_are_skipped_not_fatal() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                tileI = poweroftwo(4..16);
                tileI_2 = poweroftwo(4..tileI);
                Pips.Tiling(loop="0", factor=[tileI, tileI_2, 8]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let mut search = locus_search::ExhaustiveSearch::default();
        let (result, _) = sys
            .run(TuneRequest::new(&source, &locus, 64), &mut search)
            .unwrap();
        // 3x3 grid; points with tileI_2 > tileI are invalid.
        assert!(result.outcome.invalid > 0);
        assert!(result.best.is_some());
    }

    #[test]
    fn query_substitution_runs_against_the_region() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                depth = BuiltIn.LoopNestDepth();
                permorder = permutation(seq(0, depth));
                RoseLocus.Interchange(order=permorder);
            }"#,
        )
        .unwrap();
        let sys = system();
        let prepared = sys.prepare(&source, &locus).unwrap();
        assert_eq!(
            prepared.space.param("permorder").unwrap().kind,
            locus_space::ParamKind::Permutation(3)
        );
        assert_eq!(prepared.space.size(), 6);
        // All six permutations of matmul are legal; exhaustively searching
        // them must yield six valid evaluations.
        let mut search = locus_search::ExhaustiveSearch::default();
        let (result, _) = sys
            .run(TuneRequest::new(&source, &locus, 10), &mut search)
            .unwrap();
        assert_eq!(result.outcome.evaluations, 6);
    }

    #[test]
    fn coherence_check_detects_source_drift() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let hashes = region_hashes(&source);
        assert!(check_coherence(&source, &hashes).is_empty());

        let drifted = parse_program(&MATMUL_SRC.replace("A[i][k] * B[k][j]", "A[i][k]")).unwrap();
        let warnings = check_coherence(&drifted, &hashes);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("matmul"));

        let removed =
            parse_program(&MATMUL_SRC.replace("#pragma @Locus loop=matmul\n", "")).unwrap();
        let warnings = check_coherence(&removed, &hashes);
        assert!(warnings[0].contains("no longer exists"));
    }

    #[test]
    fn store_backed_sessions_skip_prior_measurements() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                tileI = poweroftwo(4..16);
                Pips.Tiling(loop="0", factor=[tileI, tileI, tileI]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let path = std::env::temp_dir().join(format!(
            "locus-core-store-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_file(&path).ok();

        let session = |threads: Option<usize>| {
            let mut store = TuningStore::open(&path).unwrap();
            let mut request = TuneRequest::new(&source, &locus, 8);
            if let Some(threads) = threads {
                request = request.parallel(threads);
            }
            let request = request.store(StoreHandle::Single(&mut store));
            sys.run(request, &mut locus_search::ExhaustiveSearch::default())
                .unwrap()
        };
        let (cold, cold_report) = session(Some(2));
        assert!(cold_report.evaluations() > 0);
        assert_eq!(cold_report.store_hits(), 0);
        assert_eq!(cold_report.appended, cold_report.evaluations());

        // Re-open the file cold: a brand-new session, parallel or
        // sequential, must answer every proposal from disk.
        for threads in [Some(2), None] {
            let (warm, warm_report) = session(threads);
            assert_eq!(
                warm_report.evaluations(),
                0,
                "warm session re-measures nothing"
            );
            assert_eq!(warm_report.store_hits(), cold_report.evaluations());
            assert_eq!(warm_report.rehydrated, cold_report.appended);
            assert_eq!(warm_report.appended, 0);

            let (cold_point, _, cold_m) = cold.best.as_ref().expect("cold best");
            let (warm_point, _, warm_m) = warm.best.as_ref().expect("warm best");
            assert_eq!(cold_point.canonical_key(), warm_point.canonical_key());
            assert_eq!(cold_m.time_ms.to_bits(), warm_m.time_ms.to_bits());
            assert_eq!(
                cold.outcome.best.as_ref().unwrap().1.to_bits(),
                warm.outcome.best.as_ref().unwrap().1.to_bits(),
                "replayed objective is bit-identical"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn speedup_is_finite_for_degenerate_measurements() {
        fn measurement(time_ms: f64) -> Measurement {
            Measurement {
                cycles: time_ms * 1e6,
                time_ms,
                ops: 1,
                flops: 1,
                cache: Default::default(),
                checksum: 0,
            }
        }
        let source = parse_program(MATMUL_SRC).unwrap();
        let result = |baseline_ms: f64, best_ms: f64| TuneResult {
            outcome: locus_search::SearchOutcome {
                best: Some((Point::new(), best_ms)),
                evaluations: 1,
                invalid: 0,
                duplicates: 0,
                history: vec![(1, best_ms)],
            },
            baseline: measurement(baseline_ms),
            best: Some((Point::new(), source.clone(), measurement(best_ms))),
            space_size: 1,
        };

        // Zero-time baseline (empty kernel): no infinity, no panic.
        assert_eq!(result(0.0, 0.0).speedup(), 1.0);
        assert_eq!(result(0.0, 2.0).speedup(), 1.0);
        // Sub-epsilon variant time is degenerate, not an infinite win.
        assert_eq!(result(1.0, 1e-300).speedup(), 1.0);
        // A tiny-but-measurable variant time is clamped, still finite.
        let huge = result(1e3, 1e-11).speedup();
        assert!(huge.is_finite(), "speedup must never be infinite");
        assert_eq!(huge, 1e12, "clamped at the ceiling");
        // Ordinary case unchanged.
        assert_eq!(result(4.0, 2.0).speedup(), 2.0);
        // Slower-than-baseline best still reports 1.0 (baseline ships).
        assert_eq!(result(1.0, 2.0).speedup(), 1.0);
    }

    #[test]
    fn failed_variants_fall_back_to_baseline() {
        let source = parse_program(MATMUL_SRC).unwrap();
        // Interchange with an order that is not a permutation: every
        // variant fails, yet the session still reports the baseline.
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 0, 1]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let mut search = locus_search::ExhaustiveSearch::default();
        let (result, _) = sys
            .run(TuneRequest::new(&source, &locus, 4), &mut search)
            .unwrap();
        assert!(result.best.is_none());
        assert_eq!(result.speedup(), 1.0);
        assert!(result.baseline.cycles > 0.0);
    }
}
