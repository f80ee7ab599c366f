//! Benchmarks the persistent tuning store: the same Fig. 6 DGEMM tuning
//! session run twice against one store file. The cold session pays for
//! every measurement; the warm session rehydrates the memo cache from
//! disk, warm-starts the search, and should perform **zero** fresh
//! measurements — its wall-clock is pure replay. The cold/warm ratio is
//! the headline number of `BENCH_store.json`.

use std::time::Instant;

use locus_core::{LocusSystem, StoreHandle, TuneReport, TuneRequest, TuneResult};
use locus_corpus::dgemm_program;
use locus_search::{ExhaustiveSearch, SearchModule};
use locus_store::TuningStore;

use crate::bench_machine_tiny;
use crate::fig6::fig7_locus_program;

/// One cold-vs-warm comparison of a store-backed tuning session.
#[derive(Debug, Clone)]
pub struct StoreRow {
    /// Row label.
    pub label: String,
    /// Search module driven in both sessions.
    pub search: String,
    /// Evaluation budget per session.
    pub budget: usize,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock of the cold (empty-store) session.
    pub cold_s: f64,
    /// Wall-clock of the warm (rehydrated) session.
    pub warm_s: f64,
    /// `cold_s / warm_s`.
    pub ratio: f64,
    /// Session accounting of the cold run.
    pub cold: TuneReport,
    /// Session accounting of the warm run.
    pub warm: TuneReport,
    /// Whether both sessions returned the same best point and objective,
    /// bit for bit.
    pub identical_best: bool,
    /// Size of the store file after both sessions, in bytes.
    pub store_bytes: u64,
}

fn best_key(result: &TuneResult) -> Option<(String, u64)> {
    result
        .outcome
        .best
        .as_ref()
        .map(|(p, v)| (p.canonical_key(), v.to_bits()))
}

fn session(
    system: &LocusSystem,
    store_path: &std::path::Path,
    search: &mut dyn SearchModule,
    budget: usize,
    threads: usize,
) -> (TuneResult, TuneReport, f64) {
    let source = dgemm_program(8);
    let locus = fig7_locus_program(4);
    let mut store = TuningStore::open(store_path).expect("open tuning store");
    let start = Instant::now();
    let request = TuneRequest::new(&source, &locus, budget)
        .parallel(threads)
        .store(StoreHandle::Single(&mut store));
    let (result, report) = system
        .run(request, search)
        .expect("store-backed tuning runs");
    (result, report, start.elapsed().as_secs_f64())
}

/// Runs one cold-vs-warm pair. The store file lives in the system temp
/// directory and is removed afterwards; each session opens it fresh, so
/// the warm session sees only what the cold session persisted.
pub fn run_pair(label: &str, budget: usize, threads: usize) -> StoreRow {
    let system = LocusSystem::new(bench_machine_tiny(1));
    let path = std::env::temp_dir().join(format!(
        "locus-bench-store-{}-{label}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();

    let mut search = ExhaustiveSearch::default();
    let (cold_result, cold, cold_s) = session(&system, &path, &mut search, budget, threads);
    let mut search = ExhaustiveSearch::default();
    let (warm_result, warm, warm_s) = session(&system, &path, &mut search, budget, threads);

    let store_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();

    StoreRow {
        label: label.to_string(),
        search: "ExhaustiveSearch".to_string(),
        budget,
        threads,
        cold_s,
        warm_s,
        ratio: cold_s / warm_s.max(1e-12),
        cold,
        warm,
        identical_best: best_key(&cold_result) == best_key(&warm_result),
        store_bytes,
    }
}

/// Runs the benchmark: the Fig. 7 DGEMM space (tiles capped at 4) at two
/// budgets — a partial sweep and the full 8192-point space.
pub fn run_store(threads: usize) -> Vec<StoreRow> {
    vec![
        run_pair("fig6 dgemm partial sweep", 1024, threads),
        run_pair("fig6 dgemm full space", 8192, threads),
    ]
}

/// Renders the rows as a JSON document (hand-rolled; the workspace has
/// no serde).
pub fn to_json(rows: &[StoreRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"cold vs warm store-backed tuning session (fig6 dgemm)\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"label\": \"{}\",\n",
                "      \"search\": \"{}\",\n",
                "      \"budget\": {},\n",
                "      \"threads\": {},\n",
                "      \"cold_s\": {:.6},\n",
                "      \"warm_s\": {:.6},\n",
                "      \"cold_over_warm\": {:.3},\n",
                "      \"cold_evaluations\": {},\n",
                "      \"cold_appended\": {},\n",
                "      \"warm_evaluations\": {},\n",
                "      \"warm_store_hits\": {},\n",
                "      \"warm_rehydrated\": {},\n",
                "      \"store_bytes\": {},\n",
                "      \"identical_best\": {}\n",
                "    }}{}\n",
            ),
            r.label,
            r.search,
            r.budget,
            r.threads,
            r.cold_s,
            r.warm_s,
            r.ratio,
            r.cold.evaluations(),
            r.cold.appended,
            r.warm.evaluations(),
            r.warm.store_hits(),
            r.warm.rehydrated,
            r.store_bytes,
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
    fn warm_session_is_pure_replay() {
        // Scaled-down budget; the bench_store binary runs the same
        // harness with the full sweeps.
        let row = run_pair("test", 256, 2);
        assert!(row.identical_best, "cold and warm best must agree");
        assert!(row.cold.evaluations() > 0);
        assert_eq!(row.cold.store_hits(), 0, "{:?}", row.cold);
        assert_eq!(row.warm.evaluations(), 0, "warm re-measures nothing");
        // Every warm proposal is a store hit — including the ones the
        // cold session answered from its own in-session memo cache.
        assert_eq!(
            row.warm.store_hits(),
            row.cold.evaluations() + row.cold.memo_hits()
        );
        assert_eq!(row.warm.rehydrated, row.cold.appended);
        assert!(row.store_bytes > 0);
        let json = to_json(&[row]);
        assert!(json.contains("\"warm_evaluations\": 0"), "{json}");
        assert!(json.ends_with("}\n"));
    }
}
