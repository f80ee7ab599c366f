//! The traced replay: one tuning session driven on one thread through
//! the layers' public functions, in the order the parallel driver
//! (`LocusSystem::tune_parallel_with_store`) calls them — propose,
//! digest, memo lookup, build, compile and run, observe, store append —
//! with a span around each call.
//!
//! The parallel driver's result does not depend on its thread count, so
//! a faithful single-thread replay reproduces its fingerprint: the best
//! point, the objective bits and the book counts. The caller checks that
//! it does; a replay that drifts from the driver fails the traced run.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use locus_core::{LocusSystem, MemoCache, TuneReport, TuneResult, VariantOutcome};
use locus_lang::LocusProgram;
use locus_machine::{CompiledVariant, Measurement};
use locus_search::{Bookkeeper, Objective, SearchModule};
use locus_space::Point;
use locus_srcir::ast::{Program, Stmt};
use locus_srcir::region::{extract_region, find_regions};
use locus_store::{EvalRecord, PruneRecord, SessionRecord, ShardedStore, StoreKey, TuningStore};
use locus_trace::Tracer;

use crate::spans::Spans;

/// The store a replayed session runs against. (`locus_core::StoreHandle`
/// does the same dispatch, but keeps its methods private.)
pub enum StoreRef<'a> {
    Single(&'a mut TuningStore),
    Sharded(&'a ShardedStore),
}

impl StoreRef<'_> {
    fn invalidate_stale(&mut self, current: &HashMap<String, u64>) -> usize {
        match self {
            StoreRef::Single(s) => s.invalidate_stale(current),
            StoreRef::Sharded(s) => s.invalidate_stale(current),
        }
    }

    fn for_each_eval(&self, key: &StoreKey, mut f: impl FnMut(&EvalRecord)) {
        match self {
            StoreRef::Single(s) => s.evals(key).iter().for_each(&mut f),
            StoreRef::Sharded(s) => s.for_each_eval(key, f),
        }
    }

    fn for_each_prune(&self, key: &StoreKey, mut f: impl FnMut(&PruneRecord)) {
        match self {
            StoreRef::Single(s) => s.prunes(key).iter().for_each(&mut f),
            StoreRef::Sharded(s) => s.for_each_prune(key, f),
        }
    }

    fn top_k(&self, key: &StoreKey, k: usize) -> Vec<(Point, f64)> {
        match self {
            StoreRef::Single(s) => s.top_k(key, k),
            StoreRef::Sharded(s) => s.top_k(key, k),
        }
    }

    fn append(
        &mut self,
        key: &StoreKey,
        evals: &[EvalRecord],
        prunes: &[PruneRecord],
        sessions: Vec<SessionRecord>,
    ) -> std::io::Result<usize> {
        let mut appended = 0;
        match self {
            StoreRef::Single(s) => {
                appended += s.append_evals(key, evals)?;
                appended += s.append_prunes(key, prunes)?;
                for record in sessions {
                    s.append_session(key, record)?;
                }
            }
            StoreRef::Sharded(s) => {
                appended += s.append_evals(key, evals)?;
                appended += s.append_prunes(key, prunes)?;
                for record in sessions {
                    s.append_session(key, record)?;
                }
            }
        }
        Ok(appended)
    }
}

/// Work counted at the layer boundaries, summed over replayed sessions.
#[derive(Debug, Default)]
pub struct Counters {
    pub proposals: u64,
    pub duplicates: u64,
    pub invalid: u64,
    pub digests: u64,
    pub builds: u64,
    pub builds_legal: u64,
    pub pruned: u64,
    pub regions: u64,
    pub regions_exact: u64,
    pub point_hits: u64,
    pub variant_hits: u64,
    pub coalesced: u64,
    pub store_hits: u64,
    pub misses: u64,
    pub compiles: u64,
    pub runs: u64,
    /// Simulations of proposed variants (every machine run except the
    /// baseline and the winner's re-measurement).
    pub variant_runs: u64,
    pub sim_ops: u64,
    /// Accesses reaching, and missing in, cache levels 1..=3.
    pub level_reach: [u64; 3],
    pub level_miss: [u64; 3],
    pub records_loaded: u64,
    pub records_appended: u64,
}

impl Counters {
    fn add_measurement(&mut self, m: &Measurement) {
        self.sim_ops += m.ops;
        let mut reaching = m.cache.accesses;
        for (level, hits) in m.cache.hits.iter().take(3).enumerate() {
            self.level_reach[level] += reaching;
            self.level_miss[level] += reaching - hits;
            reaching -= hits;
        }
    }
}

/// A machine-layer call timed with a tracer the replay owns: the whole
/// call is a `machine.run` span and the compile the machine reports
/// (if it compiled) becomes its `machine.compile` child.
fn run_machine(
    spans: &Spans,
    counters: &mut Counters,
    call: impl FnOnce(&Tracer) -> Result<Measurement, locus_machine::RuntimeError>,
) -> Result<Measurement, locus_machine::RuntimeError> {
    let _span = spans.enter("machine.run");
    let epoch = Instant::now();
    let tracer = Tracer::enabled();
    let result = call(&tracer);
    for event in tracer.drain() {
        if event.cat == "machine" && event.name.starts_with("compile") {
            counters.compiles += 1;
            let start = epoch + std::time::Duration::from_micros(event.ts_us);
            spans.record("machine.compile", start, event.dur_us.unwrap_or(0) * 1000);
        }
    }
    counters.runs += 1;
    if let Ok(m) = &result {
        counters.add_measurement(m);
    }
    result
}

/// The regions of `program` the prepared recipe tunes, sorted by id,
/// first occurrence of each id (the driver's private
/// `matched_regions`).
fn matched_regions(program: &Program, locus: &LocusProgram) -> Vec<(String, Stmt)> {
    let mut out: Vec<(String, Stmt)> = Vec::new();
    for region in find_regions(program) {
        if locus.codereg(&region.id).is_none() || out.iter().any(|(id, _)| id == &region.id) {
            continue;
        }
        if let Some(code) = extract_region(program, &region) {
            out.push((region.id.clone(), code.stmt));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Replays one store-backed tuning session. Returns what the driver
/// would have returned, for the caller's fingerprint comparison.
#[allow(clippy::too_many_arguments)]
pub fn replay_session(
    system: &LocusSystem,
    source: &Program,
    locus: &LocusProgram,
    search: &mut dyn SearchModule,
    budget: usize,
    mut store: StoreRef<'_>,
    spans: &Spans,
    counters: &mut Counters,
) -> Result<(TuneResult, TuneReport), String> {
    let _session = spans.enter("driver.session");
    let prepared = {
        let _span = spans.enter("prepare.prepare");
        system.prepare(source, locus).map_err(|e| e.to_string())?
    };
    let baseline = run_machine(spans, counters, |tracer| {
        system.machine.run_traced(source, &system.entry, tracer)
    })
    .map_err(|e| format!("baseline run failed: {e}"))?;
    let expected = baseline.checksum;
    let mut report = TuneReport::default();
    let cache = MemoCache::new();

    let key = system.store_key(source, &prepared);
    {
        let _span = spans.enter("store.rehydrate");
        let current: HashMap<String, u64> = locus_core::region_hashes(source)
            .into_iter()
            .map(|(id, hash)| (id, hash.0))
            .collect();
        report.invalidated = store.invalidate_stale(&current);
        store.for_each_eval(&key, |record| {
            cache.seed(&record.point_key, record.variant, record.objective);
            report.rehydrated += 1;
        });
        store.for_each_prune(&key, |prune| {
            cache.seed(&prune.point_key, prune.variant, Objective::Invalid);
            report.rehydrated += 1;
        });
    }
    counters.records_loaded += report.rehydrated as u64;

    let oracle_builds = Arc::new(AtomicUsize::new(0));
    let oracle_legal = Arc::new(AtomicUsize::new(0));
    let oracle: locus_search::LegalityOracle = {
        let (system, source, prepared) = (system.clone(), source.clone(), prepared.clone());
        let (spans, builds, legal) = (spans.clone(), oracle_builds.clone(), oracle_legal.clone());
        Arc::new(move |point: &Point| {
            let _span = spans.enter("transform.oracle");
            let ok = system.build_variant(&source, &prepared, point).is_ok();
            builds.fetch_add(1, Ordering::Relaxed);
            legal.fetch_add(usize::from(ok), Ordering::Relaxed);
            ok
        })
    };
    {
        let _span = spans.enter("search.begin");
        search.attach_tracer(&Tracer::disabled());
        search.attach_pruner(&oracle);
        search.begin(&prepared.space, budget);
    }
    let prior = {
        let _span = spans.enter("store.top_k");
        store.top_k(&key, locus_core::WARM_START_K)
    };
    report.seeded = prior.len();
    if !prior.is_empty() {
        let _span = spans.enter("search.seed");
        search.seed_observations(&prepared.space, &prior);
    }

    let search_name = search.name().to_string();
    let mut fresh_records: Vec<EvalRecord> = Vec::new();
    let mut fresh_prunes: Vec<PruneRecord> = Vec::new();
    let mut compiled: HashMap<u64, Arc<CompiledVariant>> = HashMap::new();
    let mut book = Bookkeeper::new(budget);
    'driver: while !book.done() {
        let batch = {
            let _span = spans.enter("search.propose");
            search.propose_batch(&prepared.space, locus_core::PARALLEL_BATCH)
        };
        if batch.is_empty() {
            break;
        }
        report.proposed += batch.len();

        let mut batch_variant: Vec<u64> = Vec::with_capacity(batch.len());
        let mut to_measure: Vec<(u64, Point, Arc<CompiledVariant>)> = Vec::new();
        let mut measuring = HashSet::new();
        for point in &batch {
            let variant = {
                let _span = spans.enter("lang.digest");
                locus_srcir::hash::fnv1a(system.direct_program(&prepared, point).as_bytes())
            };
            counters.digests += 1;
            batch_variant.push(variant);
            {
                let _span = spans.enter("memo.lookup");
                if cache.lookup_point(point).is_some() || cache.lookup_variant(variant).is_some() {
                    continue;
                }
                if !measuring.insert(variant) {
                    cache.note_coalesced();
                    counters.coalesced += 1;
                    continue;
                }
            }
            let start = Instant::now();
            let built = {
                let _span = spans.enter("transform.build");
                system.build_variant(source, &prepared, point)
            };
            counters.builds += 1;
            match built {
                Ok(program) => {
                    counters.builds_legal += 1;
                    analyze_built(&program, &prepared.locus, spans, counters);
                    let cv = Arc::new(CompiledVariant::new(program, &system.entry));
                    compiled.insert(variant, Arc::clone(&cv));
                    to_measure.push((variant, point.clone(), cv));
                }
                Err(VariantOutcome::Illegal(reason)) => {
                    counters.pruned += 1;
                    cache.insert(point, variant, Objective::Invalid);
                    report.pruned_illegal += 1;
                    fresh_prunes.push(PruneRecord {
                        point_key: point.canonical_key(),
                        variant,
                        provenance: locus_verify::refusal_provenance(&reason).to_string(),
                        reason,
                        search: search_name.clone(),
                    });
                }
                Err(outcome) => {
                    let objective = match outcome {
                        VariantOutcome::Invalid(_) => Objective::Invalid,
                        _ => Objective::Error,
                    };
                    cache.note_miss();
                    cache.insert(point, variant, objective);
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

        for (variant, point, cv) in &to_measure {
            let start = Instant::now();
            let result = run_machine(spans, counters, |tracer| {
                cv.run_traced(system.machine.config(), tracer)
            });
            counters.variant_runs += 1;
            let (objective, m) = match result {
                Ok(m) if system.verify_results && m.checksum != expected => {
                    (Objective::Error, None)
                }
                Ok(m) => (Objective::Value(m.time_ms), Some(m)),
                Err(_) => (Objective::Error, None),
            };
            {
                let _span = spans.enter("memo.insert");
                cache.note_miss();
                cache.insert(point, *variant, objective);
            }
            fresh_records.push(EvalRecord {
                point_key: point.canonical_key(),
                variant: *variant,
                objective,
                cycles: m.as_ref().map_or(0.0, |m| m.cycles),
                ops: m.as_ref().map_or(0, |m| m.ops),
                flops: m.as_ref().map_or(0, |m| m.flops),
                checksum: m.as_ref().map_or(0, |m| m.checksum),
                search: search_name.clone(),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }

        for (point, variant) in batch.iter().zip(&batch_variant) {
            if book.done() {
                break 'driver;
            }
            let objective = {
                let _span = spans.enter("memo.insert");
                let objective = cache
                    .peek_variant(*variant)
                    .or_else(|| cache.peek_point(point))
                    .ok_or("a batch point was left unresolved")?;
                cache.insert_point(point, objective);
                objective
            };
            let (recorded, fresh) = book.record(point, |_| objective);
            let _span = spans.enter("search.observe");
            search.observe(point, recorded, fresh);
        }
    }
    let outcome = book.finish();

    let best = outcome.best.clone().and_then(|(point, _)| {
        let digest = {
            let _span = spans.enter("lang.digest");
            locus_srcir::hash::fnv1a(system.direct_program(&prepared, &point).as_bytes())
        };
        counters.digests += 1;
        // A winner built this session re-measures through its compiled
        // code; one resolved from rehydrated records is built first.
        let cv = match compiled.get(&digest) {
            Some(cv) => Arc::clone(cv),
            None => {
                let built = {
                    let _span = spans.enter("transform.build");
                    system.build_variant(source, &prepared, &point)
                };
                counters.builds += 1;
                let program = built.ok()?;
                counters.builds_legal += 1;
                Arc::new(CompiledVariant::new(program, &system.entry))
            }
        };
        match run_machine(spans, counters, |tracer| {
            cv.run_traced(system.machine.config(), tracer)
        }) {
            Ok(m) if !system.verify_results || m.checksum == expected => {
                Some((point, cv.program().clone(), m))
            }
            _ => None,
        }
    });

    {
        let _span = spans.enter("store.append");
        let sessions: Vec<SessionRecord> = match &best {
            Some((point, _, m)) => {
                let recipe = system.direct_program(&prepared, point);
                matched_regions(source, &prepared.locus)
                    .into_iter()
                    .map(|(region, stmt)| SessionRecord {
                        region,
                        shape: locus_core::profile_region(&stmt).shape(),
                        best_point: point.canonical_key(),
                        best_ms: m.time_ms,
                        recipe: recipe.clone(),
                        search: search_name.clone(),
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        report.appended = store
            .append(&key, &fresh_records, &fresh_prunes, sessions)
            .map_err(|e| format!("store append failed: {e}"))?;
    }
    counters.records_appended += report.appended as u64;
    report.memo = cache.stats();

    counters.proposals += report.proposed as u64;
    counters.duplicates += outcome.duplicates as u64;
    counters.invalid += outcome.invalid as u64;
    counters.point_hits += report.memo.point_hits as u64;
    counters.variant_hits += report.memo.variant_hits as u64;
    counters.store_hits += report.memo.store_hits as u64;
    counters.misses += report.memo.misses as u64;
    counters.builds += oracle_builds.load(Ordering::Relaxed) as u64;
    counters.builds_legal += oracle_legal.load(Ordering::Relaxed) as u64;

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

/// Runs the dependence analysis on each tuned region of a built
/// variant. This probe is the benchmark's own: the driver reaches the
/// analysis only inside the legality checks of `build_variant`, which
/// the benchmark cannot split out without changing program code.
/// The whole probe, region extraction included, runs inside one
/// `analysis.probe` span, so none of it counts as the driver's time.
fn analyze_built(program: &Program, locus: &LocusProgram, spans: &Spans, counters: &mut Counters) {
    let _probe = spans.enter("analysis.probe");
    for (_, stmt) in matched_regions(program, locus) {
        let info = {
            let _span = spans.enter("analysis.deps");
            locus_analysis::deps::analyze_region(&stmt)
        };
        counters.regions += 1;
        counters.regions_exact += u64::from(info.exact);
    }
}
