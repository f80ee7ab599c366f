//! Benchmarks the two search protocols of [`LocusSystem::run`] on the
//! Fig. 7 DGEMM tuning problem: a sequential request (batches of one
//! point on the calling thread) against a [`TuneRequest::parallel`] one
//! (batches of [`locus_core::PARALLEL_BATCH`] over a worker pool), and
//! checks the determinism contract while at it: same seed, same best —
//! bit for bit.
//!
//! Both sides run the same driver with the same memo, so the comparison
//! isolates the protocol: batching and worker threads. On a small host
//! the simulated measurements are CPU-bound, so thread-level speedup is
//! bounded by the core count.

use std::time::Instant;

use locus_core::{LocusSystem, MemoCache, MemoStats, TuneRequest};
use locus_corpus::dgemm_program;
use locus_search::{ExhaustiveSearch, RandomSearch, SearchModule};

use crate::bench_machine_tiny;
use crate::fig6::fig7_locus_program;

/// One comparison row of the sequential-vs-parallel benchmark.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Row label.
    pub label: String,
    /// Search module driven on both sides.
    pub search: String,
    /// Evaluation budget.
    pub budget: usize,
    /// Worker threads of the parallel side.
    pub threads: usize,
    /// Wall-clock of the sequential request.
    pub sequential_s: f64,
    /// Wall-clock of the parallel request.
    pub parallel_s: f64,
    /// `sequential_s / parallel_s`.
    pub speedup: f64,
    /// Evaluations recorded by the sequential side.
    pub evaluations: usize,
    /// Memo-cache statistics of the parallel side.
    pub stats: MemoStats,
    /// Whether both protocols returned the same best point and objective.
    pub identical_best: bool,
}

type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;

/// What one protocol did over a list of runs.
struct Side {
    seconds: f64,
    best: Option<(String, u64)>,
    evaluations: usize,
    stats: MemoStats,
}

/// Drives `runs` back to back through one memo cache, sequentially
/// (`threads == None`) or in parallel batches, keeping the best result
/// over all runs.
fn drive(
    system: &LocusSystem,
    source: &locus_srcir::ast::Program,
    locus: &locus_lang::LocusProgram,
    runs: &[(usize, MakeSearch)],
    threads: Option<usize>,
) -> Side {
    let cache = MemoCache::new();
    let (mut seconds, mut best, mut evaluations) = (0.0, None, 0);
    for (budget, make) in runs {
        let mut request = TuneRequest::new(source, locus, *budget).cache(&cache);
        if let Some(threads) = threads {
            request = request.parallel(threads);
        }
        let mut search = make();
        let start = Instant::now();
        let (result, _) = system.run(request, search.as_mut()).expect("tuning runs");
        seconds += start.elapsed().as_secs_f64();
        evaluations += result.outcome.evaluations;
        let run_best = result
            .outcome
            .best
            .as_ref()
            .map(|(p, v)| (p.canonical_key(), v.to_bits()));
        if best.is_none() || best_value(&run_best) < best_value(&best) {
            best = run_best;
        }
    }
    Side {
        seconds,
        best,
        evaluations,
        stats: cache.stats(),
    }
}

fn compare(
    label: &str,
    name: &str,
    n: usize,
    runs: Vec<(usize, MakeSearch)>,
    threads: usize,
) -> ParallelRow {
    let source = dgemm_program(n);
    let locus = fig7_locus_program(4);
    let system = LocusSystem::new(bench_machine_tiny(1));
    let sequential = drive(&system, &source, &locus, &runs, None);
    let parallel = drive(&system, &source, &locus, &runs, Some(threads));
    ParallelRow {
        label: label.to_string(),
        search: name.to_string(),
        budget: runs.iter().map(|(b, _)| b).sum(),
        threads,
        sequential_s: sequential.seconds,
        parallel_s: parallel.seconds,
        speedup: sequential.seconds / parallel.seconds.max(1e-12),
        evaluations: sequential.evaluations,
        stats: parallel.stats,
        identical_best: sequential.best == parallel.best,
    }
}

fn best_value(best: &Option<(String, u64)>) -> f64 {
    best.as_ref()
        .map(|(_, bits)| f64::from_bits(*bits))
        .unwrap_or(f64::INFINITY)
}

/// Runs the benchmark: two single-run comparisons on the Fig. 7 program
/// (tiles capped at 4, an 8192-point space), then the shared-cache
/// session — the headline row of `BENCH_parallel.json`.
pub fn run_parallel(threads: usize) -> Vec<ParallelRow> {
    vec![
        // Budget 2048 over the 8192-point space = stride 4: each batch
        // sweeps the fast-varying OR-block params, so most points in the
        // plain branch are dead-param duplicates of an already-measured
        // variant.
        compare(
            "fig7 dgemm exhaustive",
            "ExhaustiveSearch",
            16,
            vec![(2048, Box::new(|| Box::new(ExhaustiveSearch::default())))],
            threads,
        ),
        compare(
            "fig7 dgemm random",
            "RandomSearch(seed 7)",
            16,
            vec![(256, Box::new(|| Box::new(RandomSearch::new(7))))],
            threads,
        ),
        // A Fig. 6-style tuning *session*: several searches over the
        // same source and machine, back to back through one workspace
        // cache, so later runs mostly replay cached measurements — the
        // OpenTuner-memoization effect of Sec. IV-B. A full sweep of the
        // 8192-point space comes first, then two adaptive searches that
        // re-propose inside it.
        compare(
            "fig6 dgemm tuning session",
            "Exhaustive(8192) + Random(512) + Bandit(512), shared cache",
            8,
            vec![
                (8192, Box::new(|| Box::new(ExhaustiveSearch::default()))),
                (512, Box::new(|| Box::new(RandomSearch::new(7)))),
                (
                    512,
                    Box::new(|| Box::new(locus_search::BanditTuner::new(1))),
                ),
            ],
            threads,
        ),
    ]
}

/// Renders the rows as a JSON document (hand-rolled; the workspace has
/// no serde).
pub fn to_json(rows: &[ParallelRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"run parallel vs run sequential (fig7 dgemm)\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"label\": \"{}\",\n",
                "      \"search\": \"{}\",\n",
                "      \"budget\": {},\n",
                "      \"threads\": {},\n",
                "      \"sequential_s\": {:.6},\n",
                "      \"parallel_s\": {:.6},\n",
                "      \"speedup\": {:.3},\n",
                "      \"evaluations\": {},\n",
                "      \"unique_points\": {},\n",
                "      \"unique_variants\": {},\n",
                "      \"point_hits\": {},\n",
                "      \"variant_hits\": {},\n",
                "      \"identical_best\": {}\n",
                "    }}{}\n",
            ),
            r.label,
            r.search,
            r.budget,
            r.threads,
            r.sequential_s,
            r.parallel_s,
            r.speedup,
            r.evaluations,
            r.stats.unique_points,
            r.stats.unique_variants,
            r.stats.point_hits,
            r.stats.variant_hits,
            r.identical_best,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_bench_rows_are_consistent() {
        // Scaled-down budgets: the real rows (run by the bench_parallel
        // binary) use the same harness with bigger sweeps.
        let rows = vec![
            compare(
                "exhaustive",
                "ExhaustiveSearch",
                16,
                vec![(512, Box::new(|| Box::new(ExhaustiveSearch::default())))],
                2,
            ),
            compare(
                "random",
                "RandomSearch(seed 7)",
                16,
                vec![(64, Box::new(|| Box::new(RandomSearch::new(7))))],
                2,
            ),
        ];
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.identical_best, "{}: protocols disagreed", row.label);
            assert!(row.evaluations > 0);
            assert!(
                row.stats.unique_variants <= row.stats.unique_points,
                "{}: variant dedup can only shrink",
                row.label
            );
        }
        // The exhaustive row sweeps dead OR-block parameters: the memo
        // cache must fire.
        assert!(rows[0].stats.hits() > 0, "{:?}", rows[0].stats);
        let json = to_json(&rows);
        assert!(json.contains("\"identical_best\": true"));
        assert!(json.ends_with("}\n"));
    }
}
