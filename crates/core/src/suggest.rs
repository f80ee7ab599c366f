//! Optimization-sequence suggestion.
//!
//! The paper's Sec. VII closes with: "Ongoing work aims to help users at
//! designing optimization sequences." This module implements that
//! assistant: given a code region, it runs the analyses and emits a
//! tailored Locus program — the Fig. 13 recipe specialized to what the
//! region actually supports, so the space contains no statically dead
//! constructs and the user has a meaningful starting point to edit.

use std::fmt::Write as _;

use locus_lang::ast::LItem;
use locus_srcir::ast::Stmt;
use locus_store::{RegionShape, SessionRecord, ShardedStore, TuningStore};

use locus_transform::queries;

/// Maximum structural distance ([`RegionShape::distance`]) at which a
/// stored session still counts as "similar enough" for recipe
/// retrieval.
pub const MAX_SUGGEST_DISTANCE: u32 = 3;

/// What the suggester learned about a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionProfile {
    /// Loop nest depth.
    pub depth: usize,
    /// Whether the nest is perfect.
    pub perfect: bool,
    /// Whether dependence analysis succeeded.
    pub deps_available: bool,
    /// Number of innermost loops.
    pub inner_loops: usize,
    /// Whether every innermost loop is already provably vectorizable
    /// (pragmas would be redundant).
    pub vectorizable: bool,
}

impl RegionProfile {
    /// The store's serialized form of this profile — the retrieval key
    /// of persisted session records.
    pub fn shape(&self) -> RegionShape {
        RegionShape {
            depth: self.depth,
            perfect: self.perfect,
            deps_available: self.deps_available,
            inner_loops: self.inner_loops,
            vectorizable: self.vectorizable,
        }
    }
}

/// Analyzes a region root.
pub fn profile_region(stmt: &Stmt) -> RegionProfile {
    let info = locus_analysis::loops::loop_nest_info(stmt);
    let deps_available = queries::is_dep_available(stmt);
    let vectorizable = deps_available
        && info.inner_loops.iter().all(|idx| {
            idx.resolve(stmt)
                .map(|l| locus_analysis::deps::analyze_region(l).vectorizable())
                .unwrap_or(false)
        });
    RegionProfile {
        depth: info.depth,
        perfect: info.perfect,
        deps_available,
        inner_loops: info.inner_loops.len(),
        vectorizable,
    }
}

/// Generates a Locus program source for the region named `region_id`,
/// tailored to the region's profile:
///
/// * perfect nests of depth ≥ 2 get an interchange permutation and a
///   tiling-vs-unroll-and-jam `OR`;
/// * imperfect multi-loop regions get optional distribution;
/// * non-vectorizable innermost loops get an *optional* `ivdep`/`vector`
///   pair (the expert decides whether forcing is legal);
/// * everything gets a final innermost unroll;
/// * regions without dependence information fall back to unrolling only,
///   exactly like Fig. 13's outer conditional.
///
/// The returned text parses with [`locus_lang::parse`] and is meant to be
/// edited by the user — it is a starting recipe, not an oracle.
pub fn suggest_program(region_id: &str, stmt: &Stmt) -> String {
    let profile = profile_region(stmt);
    let mut body = String::new();
    let mut push = |line: &str| {
        let _ = writeln!(body, "    {line}");
    };

    push(&format!(
        "# auto-generated recipe: depth={}, perfect={}, deps={}",
        profile.depth, profile.perfect, profile.deps_available
    ));
    if profile.deps_available {
        if profile.perfect && profile.depth > 1 {
            push(&format!(
                "permorder = permutation(seq(0, {}));",
                profile.depth
            ));
            push("RoseLocus.Interchange(order=permorder);");
        }
        if profile.perfect && profile.depth > 1 {
            push("{");
            push(
                "    indexT1 = integer(1..LoopDepth);"
                    .replace("LoopDepth", &profile.depth.to_string())
                    .as_str(),
            );
            push("    T1fac = poweroftwo(2..32);");
            push("    RoseLocus.Tiling(loop=indexT1, factor=T1fac);");
            push("} OR {");
            push(&format!(
                "    indexUAJ = integer(1..{});",
                (profile.depth - 1).max(1)
            ));
            push("    UAJfac = poweroftwo(2..4);");
            push("    RoseLocus.UnrollAndJam(loop=indexUAJ, factor=UAJfac);");
            push("} OR {");
            push("    None;");
            push("}");
        } else if profile.perfect && profile.depth == 1 {
            push("*RoseLocus.Tiling(loop=1, factor=poweroftwo(8..64));");
        }
        if !profile.perfect && profile.inner_loops >= 1 {
            push("innerloops = BuiltIn.ListInnerLoops();");
            push("*RoseLocus.Distribute(loop=innerloops);");
        }
    }
    if !profile.vectorizable {
        push("# innermost loops are not provably vectorizable; force only");
        push("# if you know the accesses cannot alias:");
        push("*Pragma.Ivdep(loop=innermost);");
        push("*Pragma.Vector(loop=innermost);");
    }
    push("innerloops = BuiltIn.ListInnerLoops();");
    push("RoseLocus.Unroll(loop=innerloops, factor=poweroftwo(2..8));");

    format!("CodeReg {region_id} {{\n{body}}}\n")
}

/// Store-backed suggestion: before falling back to the static
/// [`suggest_program`] recipe, retrieve the winning recipe of the
/// structurally nearest region a prior session tuned
/// ([`TuningStore::nearest_session`], matched on loop depth, perfect
/// nesting, dependence availability, inner-loop count and
/// vectorizability, within [`MAX_SUGGEST_DISTANCE`]), retargeted to
/// `region_id` and prefixed with a provenance comment. The retrieved
/// recipe is *direct* (search-free) — it encodes a known-good outcome,
/// which the user can run as-is or reopen into a search.
pub fn suggest_with_store(region_id: &str, stmt: &Stmt, store: &TuningStore) -> String {
    let profile = profile_region(stmt);
    let retrieved = store
        .nearest_session(&profile.shape(), MAX_SUGGEST_DISTANCE)
        .and_then(|(session, distance)| format_retrieval(region_id, session, distance));
    retrieved.unwrap_or_else(|| suggest_program(region_id, stmt))
}

/// [`suggest_with_store`] against the daemon's shared sharded store:
/// same retrieval, same provenance comment, same fallback — the only
/// difference is that the nearest-session scan crosses every shard.
pub fn suggest_with_sharded_store(region_id: &str, stmt: &Stmt, store: &ShardedStore) -> String {
    let profile = profile_region(stmt);
    let retrieved = store
        .nearest_session(&profile.shape(), MAX_SUGGEST_DISTANCE)
        .and_then(|(session, distance)| format_retrieval(region_id, &session, distance));
    retrieved.unwrap_or_else(|| suggest_program(region_id, stmt))
}

/// Formats a retrieved session as a retargeted recipe with a provenance
/// header; `None` when the stored recipe no longer parses.
fn format_retrieval(region_id: &str, session: &SessionRecord, distance: u32) -> Option<String> {
    retarget_recipe(&session.recipe, region_id).map(|recipe| {
        format!(
            "# retrieved from tuning store: region `{}` (shape distance {}, \
             best {:.6} ms, search `{}`)\n{}",
            session.region, distance, session.best_ms, session.search, recipe
        )
    })
}

/// Re-targets a stored recipe at a new region: parse, rename every
/// `CodeReg`, re-print. `None` when the stored text no longer parses
/// (e.g. written by a newer language version) — callers fall back.
fn retarget_recipe(recipe: &str, region_id: &str) -> Option<String> {
    let mut program = locus_lang::parse(recipe).ok()?;
    let mut renamed = false;
    for item in &mut program.items {
        if let LItem::CodeReg { name, .. } = item {
            *name = region_id.to_string();
            renamed = true;
        }
    }
    renamed.then(|| locus_lang::print_program(&program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_srcir::parse_program;
    use locus_srcir::region::{extract_region, find_regions};

    fn region_of(src: &str) -> Stmt {
        let p = parse_program(src).unwrap();
        let regions = find_regions(&p);
        extract_region(&p, &regions[0]).unwrap().stmt
    }

    #[test]
    fn deep_perfect_nest_gets_the_full_recipe() {
        let stmt = region_of(
            r#"double C[8][8]; double A[8][8]; double B[8][8];
            void kernel() {
                #pragma @Locus loop=mm
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++)
                        for (int k = 0; k < 8; k++)
                            C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }"#,
        );
        let text = suggest_program("mm", &stmt);
        assert!(text.contains("permutation(seq(0, 3))"), "{text}");
        assert!(text.contains("RoseLocus.Tiling"), "{text}");
        assert!(text.contains("UnrollAndJam"), "{text}");
        // And it parses.
        let program = locus_lang::parse(&text).unwrap();
        assert_eq!(program.codereg_names(), vec!["mm"]);
    }

    #[test]
    fn non_affine_region_gets_unroll_only() {
        let stmt = region_of(
            r#"double A[64]; int idx[64];
            void kernel() {
                #pragma @Locus loop=scatter
                for (int i = 0; i < 64; i++)
                    A[idx[i]] = A[idx[i]] + 1.0;
            }"#,
        );
        let text = suggest_program("scatter", &stmt);
        assert!(!text.contains("Interchange"), "{text}");
        assert!(!text.contains("Tiling"), "{text}");
        assert!(text.contains("RoseLocus.Unroll"), "{text}");
        assert!(text.contains("*Pragma.Ivdep"), "forcing offered: {text}");
        locus_lang::parse(&text).unwrap();
    }

    #[test]
    fn suggested_program_tunes_end_to_end() {
        use crate::system::LocusSystem;
        let src = r#"double C[32][32]; double A[32][32]; double B[32][32];
        void kernel() {
            #pragma @Locus loop=mm
            for (int i = 0; i < 32; i++)
                for (int j = 0; j < 32; j++)
                    for (int k = 0; k < 32; k++)
                        C[i][j] = C[i][j] + A[i][k] * B[k][j];
        }"#;
        let program = parse_program(src).unwrap();
        let regions = find_regions(&program);
        let stmt = extract_region(&program, &regions[0]).unwrap().stmt;
        let text = suggest_program("mm", &stmt);
        let locus_program = locus_lang::parse(&text).unwrap();
        let system = LocusSystem::new(locus_machine::Machine::new(
            locus_machine::MachineConfig::scaled_small().with_cores(1),
        ));
        let mut search = locus_search::BanditTuner::new(5);
        let request = crate::system::TuneRequest::new(&program, &locus_program, 8);
        let (result, _) = system.run(request, &mut search).unwrap();
        assert!(result.best.is_some());
    }

    #[test]
    fn suggest_retrieves_nearest_stored_recipe_and_falls_back() {
        use locus_store::{SessionRecord, StoreKey};

        let stmt = region_of(
            r#"double C[8][8]; double A[8][8]; double B[8][8];
            void kernel() {
                #pragma @Locus loop=mm
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++)
                        for (int k = 0; k < 8; k++)
                            C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }"#,
        );
        let path = std::env::temp_dir().join(format!(
            "locus-suggest-store-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_file(&path).ok();
        let mut store = TuningStore::open(&path).unwrap();
        let key = StoreKey::new(vec![("mm".into(), 0x1)], 0x2, 0x3);
        store
            .append_session(
                &key,
                SessionRecord {
                    region: "mm".into(),
                    shape: profile_region(&stmt).shape(),
                    best_point: "tileI=i16;".into(),
                    best_ms: 1.25,
                    recipe: "CodeReg mm {\n    RoseLocus.Interchange(order=[0, 2, 1]);\n}\n".into(),
                    search: "bandit".into(),
                },
            )
            .unwrap();

        // A structurally identical region retrieves the stored recipe,
        // retargeted at its own name.
        let text = suggest_with_store("other", &stmt, &store);
        assert!(text.contains("retrieved from tuning store"), "{text}");
        let parsed = locus_lang::parse(&text).unwrap();
        assert_eq!(parsed.codereg_names(), vec!["other"]);
        assert!(text.contains("Interchange"), "{text}");

        // A structurally alien region (flat, non-affine) is farther than
        // MAX_SUGGEST_DISTANCE and falls back to the static recipe.
        let scatter = region_of(
            r#"double A[64]; int idx[64];
            void kernel() {
                #pragma @Locus loop=scatter
                for (int i = 0; i < 64; i++)
                    A[idx[i]] = A[idx[i]] + 1.0;
            }"#,
        );
        let fallback = suggest_with_store("scatter", &scatter, &store);
        assert!(
            !fallback.contains("retrieved from tuning store"),
            "{fallback}"
        );
        assert!(fallback.contains("RoseLocus.Unroll"), "{fallback}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_reports_vectorizability() {
        let stmt = region_of(
            r#"double A[64]; double B[64];
            void kernel() {
                #pragma @Locus loop=saxpy
                for (int i = 0; i < 64; i++)
                    A[i] = A[i] + 2.0 * B[i];
            }"#,
        );
        let p = profile_region(&stmt);
        assert!(p.vectorizable);
        assert_eq!(p.depth, 1);
        let text = suggest_program("saxpy", &stmt);
        assert!(
            !text.contains("Ivdep"),
            "no redundant pragma for provably safe loops: {text}"
        );
    }
}
