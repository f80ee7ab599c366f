//! Search-module shoot-out over the corpus registry
//! (`BENCH_search.json`): evaluations-to-best-known per module, per
//! entry, aggregated per family.
//!
//! Every module tunes every registry entry with the *same* budget and a
//! shared [`MemoCache`], so a variant is simulated once no matter how
//! many modules propose it and every module sees bit-identical
//! objectives. The **best-known** value of an entry is the best
//! objective any module reached within the sweep; a module's score is
//! the evaluation index at which its improvement history first reached
//! that value (lower is better), with a `2 x budget` penalty when it
//! never got there. Family aggregates are plain means of that score.
//!
//! The [`check`] acceptance bar (run by `bench_search --check` in CI):
//!
//! 1. at least one family where MCTS or the trace sampler beats *both*
//!    the bandit and the annealer on evaluations-to-best-known; and
//! 2. no family where the default portfolio (now including MCTS and the
//!    sampler) regresses against the pre-extension composition
//!    (bandit + anneal + random) beyond a 10% + 2 evaluations
//!    allowance.
//!
//! Everything is seeded and the simulator is deterministic, so the
//! committed `BENCH_search.json` regenerates bit-for-bit.

use std::collections::BTreeMap;

use locus_core::{LocusSystem, MemoCache, TuneRequest};
use locus_corpus::{all_programs, CorpusEntry};
use locus_search::{
    AnnealTuner, BanditTuner, MctsTuner, Member, PortfolioSearch, SearchModule, TraceSampler,
};

use crate::bench_machine_tiny;

/// Fixed sweep seed: one seed for every module so nobody gets a lucky
/// draw the others were denied.
const SEED: u64 = 0xbe7c;

/// Penalty multiplier for a run that never reached the best-known
/// value: scored as `budget * PENALTY`.
const PENALTY: usize = 2;

/// The competitors, in report order. `portfolio-pre` is the portfolio
/// frozen at its pre-MCTS member list — the regression reference.
pub const MODULES: [&str; 6] = [
    "bandit",
    "anneal",
    "mcts",
    "sampler",
    "portfolio",
    "portfolio-pre",
];

fn make_module(name: &str) -> Box<dyn SearchModule> {
    match name {
        "bandit" => Box::new(BanditTuner::new(SEED)),
        "anneal" => Box::new(AnnealTuner::new(SEED)),
        "mcts" => Box::new(MctsTuner::new(SEED)),
        "sampler" => Box::new(TraceSampler::new(SEED)),
        "portfolio" => Box::new(PortfolioSearch::new(SEED)),
        "portfolio-pre" => Box::new(PortfolioSearch::new(SEED).with_members(vec![
            Member::Bandit,
            Member::Anneal,
            Member::Random,
        ])),
        other => panic!("unknown bench module {other}"),
    }
}

/// One (entry, module) run of the shoot-out.
#[derive(Debug, Clone)]
pub struct SearchRow {
    /// Registry entry name.
    pub entry: String,
    /// Kernel family (`dgemm` / `stencil` / `polybench`).
    pub family: String,
    /// Competing module name.
    pub module: String,
    /// Optimization-space size of the entry.
    pub space_size: u128,
    /// Evaluation budget every module got.
    pub budget: usize,
    /// Distinct evaluations the module actually spent.
    pub evaluations: usize,
    /// Best objective (simulated ms) this module reached.
    pub best_value: f64,
    /// Best objective any module reached on this entry.
    pub best_known: f64,
    /// Whether this module reached the best-known value.
    pub reached_best: bool,
    /// Evaluation index at which it first reached best-known
    /// (`budget * 2` penalty when it never did).
    pub evals_to_best_known: usize,
}

/// Mean evaluations-to-best-known per (family, module).
#[derive(Debug, Clone)]
pub struct FamilyAggregate {
    /// Kernel family name.
    pub family: String,
    /// Module name.
    pub module: String,
    /// Entries aggregated.
    pub entries: usize,
    /// Mean evaluations-to-best-known (penalties included).
    pub mean_evals_to_best: f64,
    /// How many entries this module reached best-known on.
    pub reached: usize,
}

/// Runs every module over `entries` and scores them. One shared memo
/// cache per entry keeps objectives bit-identical across modules and
/// simulates each variant once.
pub fn run_entries(entries: &[CorpusEntry], budget: usize, threads: usize) -> Vec<SearchRow> {
    let system = LocusSystem::new(bench_machine_tiny(2));
    let mut rows = Vec::new();
    for entry in entries {
        let locus = entry.locus_program();
        let cache = MemoCache::new();
        let mut runs = Vec::new();
        for module in MODULES {
            let mut search = make_module(module);
            let request = TuneRequest::new(&entry.program, &locus, budget)
                .parallel(threads)
                .cache(&cache);
            let (result, _) = system
                .run(request, search.as_mut())
                .unwrap_or_else(|e| panic!("{}/{module}: tuning failed: {e}", entry.name));
            runs.push((module, result));
        }
        let best_known = runs
            .iter()
            .filter_map(|(_, r)| r.outcome.best.as_ref().map(|(_, v)| *v))
            .fold(f64::INFINITY, f64::min);
        for (module, result) in runs {
            // Objectives are cache-shared, so "reached best-known" is
            // exact equality of the measured value.
            let reached_at = result
                .outcome
                .history
                .iter()
                .find(|(_, v)| *v <= best_known)
                .map(|(at, _)| *at);
            rows.push(SearchRow {
                entry: entry.name.to_string(),
                family: entry.family.to_string(),
                module: module.to_string(),
                space_size: result.space_size,
                budget,
                evaluations: result.outcome.evaluations,
                best_value: result
                    .outcome
                    .best
                    .as_ref()
                    .map_or(f64::INFINITY, |(_, v)| *v),
                best_known,
                reached_best: reached_at.is_some(),
                evals_to_best_known: reached_at.unwrap_or(budget * PENALTY),
            });
        }
    }
    rows
}

/// The full shoot-out: every registry entry.
pub fn run_search(budget: usize, threads: usize) -> Vec<SearchRow> {
    run_entries(&all_programs(), budget, threads)
}

/// Family x module aggregates from a set of rows.
pub fn aggregate(rows: &[SearchRow]) -> Vec<FamilyAggregate> {
    let mut groups: BTreeMap<(String, String), Vec<&SearchRow>> = BTreeMap::new();
    for row in rows {
        groups
            .entry((row.family.clone(), row.module.clone()))
            .or_default()
            .push(row);
    }
    groups
        .into_iter()
        .map(|((family, module), rows)| FamilyAggregate {
            family,
            module,
            entries: rows.len(),
            mean_evals_to_best: rows
                .iter()
                .map(|r| r.evals_to_best_known as f64)
                .sum::<f64>()
                / rows.len() as f64,
            reached: rows.iter().filter(|r| r.reached_best).count(),
        })
        .collect()
}

/// The acceptance bar (see the module docs). Returns the list of
/// violated conditions; empty means pass.
pub fn check(rows: &[SearchRow]) -> Vec<String> {
    let aggregates = aggregate(rows);
    let score = |family: &str, module: &str| -> Option<f64> {
        aggregates
            .iter()
            .find(|a| a.family == family && a.module == module)
            .map(|a| a.mean_evals_to_best)
    };
    let families: Vec<String> = {
        let mut f: Vec<String> = aggregates.iter().map(|a| a.family.clone()).collect();
        f.dedup();
        f
    };
    let mut violations = Vec::new();

    let mut new_module_wins = false;
    for family in &families {
        let (Some(bandit), Some(anneal)) = (score(family, "bandit"), score(family, "anneal"))
        else {
            continue;
        };
        for module in ["mcts", "sampler"] {
            if let Some(s) = score(family, module) {
                if s < bandit && s < anneal {
                    new_module_wins = true;
                }
            }
        }
    }
    if !new_module_wins {
        violations.push(
            "no family where mcts or sampler beats both bandit and anneal \
             on evaluations-to-best-known"
                .to_string(),
        );
    }

    for family in &families {
        let (Some(now), Some(pre)) = (score(family, "portfolio"), score(family, "portfolio-pre"))
        else {
            continue;
        };
        let allowance = pre * 0.10 + 2.0;
        if now > pre + allowance {
            violations.push(format!(
                "family {family}: extended portfolio ({now:.1}) regresses \
                 vs pre-extension composition ({pre:.1})"
            ));
        }
    }
    violations
}

/// Renders rows and aggregates as a JSON document (hand-rolled; the
/// workspace has no serde).
pub fn to_json(rows: &[SearchRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"search-module shoot-out: evaluations-to-best-known \
         per corpus entry\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"entry\": \"{}\",\n",
                "      \"family\": \"{}\",\n",
                "      \"module\": \"{}\",\n",
                "      \"space_size\": {},\n",
                "      \"budget\": {},\n",
                "      \"evaluations\": {},\n",
                "      \"best_value_ms\": {:.6},\n",
                "      \"best_known_ms\": {:.6},\n",
                "      \"reached_best\": {},\n",
                "      \"evals_to_best_known\": {}\n",
                "    }}{}\n",
            ),
            r.entry,
            r.family,
            r.module,
            r.space_size,
            r.budget,
            r.evaluations,
            r.best_value,
            r.best_known,
            r.reached_best,
            r.evals_to_best_known,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"families\": [\n");
    let aggregates = aggregate(rows);
    for (i, a) in aggregates.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{ \"family\": \"{}\", \"module\": \"{}\", \"entries\": {}, ",
                "\"mean_evals_to_best\": {:.3}, \"reached\": {} }}{}\n",
            ),
            a.family,
            a.module,
            a.entries,
            a.mean_evals_to_best,
            a.reached,
            if i + 1 == aggregates.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shootout_scores_every_module() {
        let entries: Vec<CorpusEntry> = all_programs()
            .into_iter()
            .filter(|e| e.name == "dgemm")
            .collect();
        let rows = run_entries(&entries, 12, 2);
        assert_eq!(rows.len(), MODULES.len());
        let best_known = rows[0].best_known;
        assert!(best_known.is_finite());
        for r in &rows {
            assert_eq!(r.best_known, best_known, "{}: best-known differs", r.module);
            assert!(r.evaluations <= 12, "{}: overspent", r.module);
            if r.reached_best {
                assert!(r.evals_to_best_known <= 12);
            } else {
                assert_eq!(
                    r.evals_to_best_known, 24,
                    "{}: penalty misapplied",
                    r.module
                );
            }
        }
        // Somebody reached the best-known value by construction.
        assert!(rows.iter().any(|r| r.reached_best));
        let json = to_json(&rows);
        assert!(json.contains("\"families\""));
        assert!(json.ends_with("}\n"));
    }
}
