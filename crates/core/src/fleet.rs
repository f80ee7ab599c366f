//! Cross-machine tuning: fan one tuning request out over a library of
//! [`MachineProfile`]s, filing every result in one persistent store.
//!
//! The store keys records by [`locus_machine::MachineConfig::digest`],
//! so tuning the same source on N machines through one
//! [`locus_store::TuningStore`] keeps the per-machine results apart
//! automatically while sharing the session log that
//! [`crate::suggest_with_store`] retrieves recipes from. That retrieval
//! is *machine-agnostic* (it matches on region shape, not machine), so
//! a recipe tuned on one profile can be transferred to another and
//! re-measured there — [`transfer_recipe`] packages exactly that
//! experiment, and `bench_corpus` reports cold-search-vs-transferred
//! evaluations-to-best across the whole corpus registry.

use std::sync::Arc;

use locus_lang::LocusProgram;
use locus_machine::{CompiledVariant, Machine, MachineProfile, Measurement};
use locus_search::SearchModule;
use locus_srcir::ast::Program;
use locus_srcir::region::{extract_region, find_regions};
use locus_store::TuningStore;

use crate::report::TuneReport;
use crate::suggest::suggest_with_store;
use crate::system::{ApplyError, LocusSystem, StoreHandle, TuneRequest, TuneResult};

/// The result of tuning on one machine profile.
#[derive(Debug, Clone)]
pub struct MachineTuneResult {
    /// Profile name (from [`MachineProfile::name`]).
    pub profile: String,
    /// [`locus_machine::MachineConfig::digest`] the store filed this
    /// run's records under.
    pub machine_digest: u64,
    /// The tuning result on this machine.
    pub result: TuneResult,
    /// The per-phase report of this run.
    pub report: TuneReport,
    /// The best point specialized into a direct (search-free) Locus
    /// program — the per-machine recipe. `None` when no valid point was
    /// found within budget.
    pub best_recipe: Option<String>,
}

/// Runs one tuning request over every profile in `profiles`, sharing
/// one persistent `store` (distinct machine digests keep the records
/// apart) and the internally parallel driver (`threads` workers per
/// machine). `make_search` builds a fresh search module per machine —
/// modules are stateful, so each machine must search independently.
///
/// `template` supplies everything but the machine: snippets, legality
/// policy, entry point, verification flags.
///
/// # Errors
///
/// Returns the first [`ApplyError`] any machine's run produces
/// (preparation failure, unmeasurable baseline, or store I/O).
#[allow(clippy::too_many_arguments)]
pub fn tune_across_machines(
    template: &LocusSystem,
    profiles: &[MachineProfile],
    source: &Program,
    locus: &LocusProgram,
    make_search: &mut dyn FnMut(&MachineProfile) -> Box<dyn SearchModule>,
    budget: usize,
    threads: usize,
    store: &mut TuningStore,
) -> Result<Vec<MachineTuneResult>, ApplyError> {
    let mut out = Vec::with_capacity(profiles.len());
    // Batched evaluation of the shared baseline: the untransformed
    // source is measured once per profile, and the profile library
    // varies only runtime knobs (clock, cache geometry, fuel), so one
    // [`CompiledVariant`] lowers it once for the whole fan-out.
    let baseline = Arc::new(CompiledVariant::new(source.clone(), &template.entry));
    for profile in profiles {
        let mut system = template.clone();
        system.machine = Machine::new(profile.config.clone());
        system.set_baseline_variant(Arc::clone(&baseline));
        let mut search = make_search(profile);
        let request = TuneRequest::new(source, locus, budget)
            .parallel(threads)
            .store(StoreHandle::Single(store));
        let (result, report) = system.run(request, search.as_mut())?;
        let best_recipe = result.best.as_ref().map(|(point, _, _)| {
            // Re-prepare to specialize the best point; preparation is
            // deterministic, so the space and ids match the tuning run.
            system
                .prepare(source, locus)
                .map(|prepared| system.direct_program(&prepared, point))
                .unwrap_or_default()
        });
        out.push(MachineTuneResult {
            profile: profile.name.to_string(),
            machine_digest: profile.config.digest(),
            result,
            report,
            best_recipe,
        });
    }
    Ok(out)
}

/// The outcome of transferring a stored recipe onto a target machine.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// The suggested Locus program (retrieved from the store, or the
    /// static fallback when nothing close enough was stored).
    pub recipe: String,
    /// Whether the recipe came from a stored session (as opposed to the
    /// static [`crate::suggest_program`] fallback).
    pub from_store: bool,
    /// Measurement of the transferred variant on the target machine —
    /// exactly one evaluation. `None` when the recipe could not be
    /// applied or the variant failed to run there.
    pub measurement: Option<Measurement>,
    /// Baseline measurement of the untransformed source on the target.
    pub baseline: Measurement,
}

impl TransferOutcome {
    /// Speedup of the transferred variant over the target baseline
    /// (1.0 when the transfer failed — the baseline ships).
    pub fn speedup(&self) -> f64 {
        match &self.measurement {
            Some(m) if m.time_ms > 1e-12 => (self.baseline.time_ms / m.time_ms).max(1.0),
            _ => 1.0,
        }
    }
}

/// Transfers the store's nearest recipe for `region_id` of `source`
/// onto `target`'s machine: retrieve via [`suggest_with_store`] (shape
/// matched, machine-agnostic), apply directly (search-free), and
/// measure once. This is the one-evaluation alternative to a cold
/// search on the target.
///
/// # Errors
///
/// Returns [`ApplyError::Locus`] when `region_id` does not exist in
/// `source` or the target cannot measure the baseline.
pub fn transfer_recipe(
    target: &LocusSystem,
    source: &Program,
    region_id: &str,
    store: &TuningStore,
) -> Result<TransferOutcome, ApplyError> {
    let regions = find_regions(source);
    let region = regions
        .iter()
        .find(|r| r.id == region_id)
        .ok_or_else(|| ApplyError::Locus(format!("no region `{region_id}` in source")))?;
    let stmt = extract_region(source, region)
        .ok_or_else(|| ApplyError::Locus(format!("region `{region_id}` is not extractable")))?
        .stmt;
    let baseline = target
        .measure(source)
        .map_err(|e| ApplyError::Locus(format!("baseline run failed on target: {e}")))?;

    let recipe = suggest_with_store(region_id, &stmt, store);
    let from_store = recipe.starts_with("# retrieved from tuning store");

    let measurement = locus_lang::parse(&recipe)
        .ok()
        .and_then(|locus| target.apply_direct(source, &locus).ok())
        .and_then(|variant| target.measure(&variant).ok())
        // A transferred variant must still be semantically equivalent;
        // refuse silently-wrong transfers just like the tuner does.
        .filter(|m| !target.verify_results || m.checksum == baseline.checksum);

    Ok(TransferOutcome {
        recipe,
        from_store,
        measurement,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_corpus::all_programs;
    use locus_machine::all_profiles;
    use locus_search::ExhaustiveSearch;

    fn temp_store(name: &str) -> TuningStore {
        let path =
            std::env::temp_dir().join(format!("locus-fleet-{name}-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TuningStore::open(&path).unwrap()
    }

    #[test]
    fn fan_out_files_results_per_machine_digest() {
        let entry = &all_programs()[0]; // dgemm
        let locus = entry.locus_program();
        let profiles = all_profiles();
        let template = LocusSystem::new(Machine::new(profiles[0].config.clone()));
        let mut store = temp_store("fanout");
        let results = tune_across_machines(
            &template,
            &profiles[..2],
            &entry.program,
            &locus,
            &mut |_| Box::new(ExhaustiveSearch::default()),
            6,
            2,
            &mut store,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        let digests: std::collections::HashSet<u64> =
            results.iter().map(|r| r.machine_digest).collect();
        assert_eq!(digests.len(), 2, "profiles must key separately");
        for r in &results {
            assert!(r.result.outcome.evaluations > 0, "{}", r.profile);
        }
        // Both machines' sessions landed in one store.
        assert!(store.sessions().count() >= 2);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn transfer_reuses_a_recipe_tuned_on_another_machine() {
        let entry = &all_programs()[0];
        let locus = entry.locus_program();
        let profiles = all_profiles();
        let mut store = temp_store("transfer");

        // Tune on the first profile only.
        let template = LocusSystem::new(Machine::new(profiles[0].config.clone()));
        tune_across_machines(
            &template,
            &profiles[..1],
            &entry.program,
            &locus,
            &mut |_| Box::new(ExhaustiveSearch::default()),
            8,
            2,
            &mut store,
        )
        .unwrap();

        // Transfer to a different machine: one evaluation, no search.
        let target = LocusSystem::new(Machine::new(profiles[1].config.clone()));
        let outcome = transfer_recipe(&target, &entry.program, entry.region, &store).unwrap();
        assert!(
            outcome.from_store,
            "expected a store hit:\n{}",
            outcome.recipe
        );
        assert!(outcome.speedup() >= 1.0);
        let _ = std::fs::remove_file(store.path());
    }
}
