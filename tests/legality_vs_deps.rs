//! Differential test: the unified legality engine (`locus-verify`)
//! against the raw dependence analysis (`locus-analysis`).
//!
//! The two layers answer the same question through different code paths —
//! `verify::legal` adds target resolution, nest reconstruction, race
//! classification and clause synthesis on top of the direction-vector
//! predicates. The invariant checked here is one-directional and safety
//! critical: **no transformation may be declared legal that a reported
//! dependence forbids**. (The converse — the engine being *more*
//! conservative than the raw predicates — is allowed by design.)
//!
//! The sweep covers hand-written nests spanning the interesting dependence
//! shapes (matmul, recurrences, skewed stencils, reductions, privatizable
//! temporaries, triangular nests, fusable/unfusable sequences, non-affine
//! subscripts) plus every loop of the committed fuzz corpus under
//! `tests/fixtures/fuzz_corpus/`.

use locus::analysis::deps::{analyze_region, analyze_region_conservative};
use locus::srcir::ast::{OmpClause, Stmt};
use locus::srcir::visit::{child, child_count};
use locus::srcir::{parse_program, HierIndex};
use locus::verify::{legal, parallel_for_clauses, TransformStep};

// ---- helpers -----------------------------------------------------------

fn region(src: &str) -> Stmt {
    let p = parse_program(src).unwrap();
    let s = p.functions().next().unwrap().body[0].clone();
    s
}

fn block_region(src: &str) -> Stmt {
    let p = parse_program(src).unwrap();
    let s = Stmt::block(p.functions().next().unwrap().body.clone());
    s
}

/// All hierarchical indices of `for` loops in the region, root first.
fn loop_targets(root: &Stmt) -> Vec<HierIndex> {
    fn rec(stmt: &Stmt, index: HierIndex, out: &mut Vec<HierIndex>) {
        if stmt.is_for() {
            out.push(index.clone());
        }
        for i in 0..child_count(stmt) {
            if let Some(c) = child(stmt, i) {
                rec(c, index.push(i), out);
            }
        }
    }
    let mut out = Vec::new();
    rec(root, HierIndex::root(), &mut out);
    out
}

/// Permutations (as `order[new] = old`) worth sweeping at the root.
const PERMS: &[&[usize]] = &[
    &[0, 1],
    &[1, 0],
    &[0, 1, 2],
    &[0, 2, 1],
    &[1, 0, 2],
    &[1, 2, 0],
    &[2, 0, 1],
    &[2, 1, 0],
];

/// Checks every one-directional consistency invariant for one region.
/// Returns the number of (target, step) pairs the engine declared legal,
/// so callers can assert the sweep was not vacuous.
fn check_region(root: &Stmt, label: &str) -> usize {
    let mut legal_count = 0;

    // Interchange is judged at the region root against the root's own
    // dependence info, extended to the analyzed nest depth exactly as the
    // engine extends it.
    let root_info = analyze_region(root);
    for &perm in PERMS {
        let verdict = legal(
            root,
            &TransformStep::Interchange {
                order: perm.to_vec(),
            },
        );
        let identity = perm.iter().enumerate().all(|(i, &o)| i == o);
        if verdict.is_legal() {
            legal_count += 1;
            if identity {
                continue; // legal by definition, no analysis consulted
            }
            assert!(
                root_info.available,
                "{label}: interchange {perm:?} declared legal with unavailable dependence info"
            );
            let full: Vec<usize> = perm
                .iter()
                .copied()
                .chain(perm.len()..root_info.loop_vars.len())
                .collect();
            assert!(
                root_info.interchange_legal(&full),
                "{label}: interchange {perm:?} declared legal but a dependence forbids it"
            );
        } else {
            assert!(!identity, "{label}: the identity permutation must be legal");
        }
    }

    for target in loop_targets(root) {
        let loop_stmt = target.resolve(root).expect("loop target resolves");
        let info = analyze_region(loop_stmt);

        for width in 1..=3usize {
            let verdict = legal(
                root,
                &TransformStep::Tile {
                    target: target.clone(),
                    width,
                },
            );
            if verdict.is_legal() {
                legal_count += 1;
                let band: Vec<usize> = (0..width).collect();
                assert!(
                    info.available && info.band_permutable(&band),
                    "{label}@{target}: tiling width {width} declared legal but the band \
                     is not permutable"
                );
            }
        }

        if legal(
            root,
            &TransformStep::UnrollAndJam {
                target: target.clone(),
            },
        )
        .is_legal()
        {
            legal_count += 1;
            assert!(
                info.available && info.band_permutable(&[0, 1]),
                "{label}@{target}: unroll-and-jam declared legal but the loop pair \
                 is not permutable"
            );
        }

        if legal(
            root,
            &TransformStep::Vectorize {
                target: target.clone(),
            },
        )
        .is_legal()
        {
            legal_count += 1;
            assert!(
                info.available && info.vectorizable(),
                "{label}@{target}: vectorization declared legal but a loop-carried \
                 dependence exists"
            );
        }

        if legal(
            root,
            &TransformStep::Distribute {
                target: target.clone(),
            },
        )
        .is_legal()
        {
            legal_count += 1;
            assert!(
                info.available && info.distribution_legal(),
                "{label}@{target}: distribution declared legal but a backward \
                 dependence exists"
            );
        }

        // Parallelization: when the engine hands out a clause list, every
        // dependence the raw analysis reports as carried by the candidate
        // loop (level 0 of the loop-rooted nest) must be a scalar the
        // clauses fix. An array dependence carried by a "legal" parallel
        // loop would be a miscompile.
        if let Ok(clauses) = parallel_for_clauses(root, &target) {
            legal_count += 1;
            if info.available {
                let fixed: Vec<&str> = clauses
                    .iter()
                    .map(|c| match c {
                        OmpClause::Reduction { var, .. } => var.as_str(),
                        OmpClause::Private { var } => var.as_str(),
                    })
                    .collect();
                for dep in &info.deps {
                    if dep.carrier_level() == Some(0) {
                        assert!(
                            fixed.contains(&dep.array.as_str()),
                            "{label}@{target}: parallel-for declared legal but a {:?} \
                             dependence on `{}` is carried by the parallel loop and no \
                             clause fixes it (clauses: {clauses:?})",
                            dep.kind,
                            dep.array
                        );
                    }
                }
            }
        }

        // The conservative direction for the predicates implemented
        // directly on `analyze_region`: unavailable info must refuse.
        if !info.available {
            for step in [
                TransformStep::Tile {
                    target: target.clone(),
                    width: 1,
                },
                TransformStep::Distribute {
                    target: target.clone(),
                },
                TransformStep::Vectorize {
                    target: target.clone(),
                },
            ] {
                assert!(
                    !legal(root, &step).is_legal(),
                    "{label}@{target}: {step:?} declared legal without dependence info"
                );
            }
        }
    }
    legal_count
}

// ---- hand-written nests ------------------------------------------------

fn hand_written_nests() -> Vec<(&'static str, Stmt)> {
    vec![
        (
            "matmul",
            region(
                r#"void f(int n, double C[8][8], double A[8][8], double B[8][8]) {
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        for (int k = 0; k < n; k++)
                            C[i][j] = C[i][j] + A[i][k] * B[k][j];
                }"#,
            ),
        ),
        (
            "first-order-recurrence",
            region(
                r#"void f(int n, double A[64]) {
                for (int i = 1; i < n; i++)
                    A[i] = A[i - 1] + 1.0;
                }"#,
            ),
        ),
        (
            "skewed-stencil",
            region(
                r#"void f(int n, double A[8][8]) {
                for (int i = 1; i < n; i++)
                    for (int j = 0; j < n - 1; j++)
                        A[i][j] = A[i - 1][j + 1];
                }"#,
            ),
        ),
        (
            "jacobi-style",
            region(
                r#"void f(int n, double A[64][64], double B[64][64]) {
                for (int i = 1; i < n - 1; i++)
                    for (int j = 1; j < n - 1; j++)
                        B[i][j] = A[i - 1][j] + A[i + 1][j] + A[i][j - 1] + A[i][j + 1];
                }"#,
            ),
        ),
        (
            "sum-reduction",
            block_region(
                r#"void f(int n, double s, double r, double A[64]) {
                for (int i = 0; i < n; i++)
                    s = s + A[i];
                r = s;
                }"#,
            ),
        ),
        (
            "privatizable-temp",
            block_region(
                r#"void f(int n, double t, double A[64], double B[64]) {
                for (int i = 0; i < n; i++) {
                    t = A[i] * 2.0;
                    B[i] = t + 1.0;
                }
                }"#,
            ),
        ),
        (
            "live-out-temp",
            block_region(
                r#"void f(int n, double t, double A[64], double B[64]) {
                for (int i = 0; i < n; i++) {
                    t = A[i] * 2.0;
                    B[i] = t + 1.0;
                }
                B[0] = t;
                }"#,
            ),
        ),
        (
            "triangular",
            region(
                r#"void f(int n, double L[32][32], double x[32]) {
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < i; j++)
                        x[i] = x[i] - L[i][j] * x[j];
                }"#,
            ),
        ),
        (
            "fusable-sequence",
            block_region(
                r#"void f(int n, double A[64], double B[64]) {
                for (int i = 0; i < 64; i++) A[i] = 1.0;
                for (int j = 0; j < 64; j++) B[j] = A[j] * 2.0;
                }"#,
            ),
        ),
        (
            "fusion-preventing-sequence",
            block_region(
                r#"void f(int n, double A[66], double B[64]) {
                for (int i = 0; i < 64; i++) A[i] = 1.0;
                for (int j = 0; j < 64; j++) B[j] = A[j + 1];
                }"#,
            ),
        ),
        (
            "backward-distribution",
            region(
                r#"void f(int n, double A[8], double B[8], double C[8]) {
                for (int i = 1; i < n; i++) {
                    B[i] = A[i - 1];
                    A[i] = C[i] + 1.0;
                }
                }"#,
            ),
        ),
        (
            "non-affine",
            region(
                r#"void f(int n, double A[64], int idx[64]) {
                for (int i = 0; i < n; i++)
                    A[idx[i]] = 1.0;
                }"#,
            ),
        ),
    ]
}

// ---- the differential sweeps -------------------------------------------

#[test]
fn hand_written_nests_are_judged_consistently() {
    let mut legal_total = 0;
    for (label, root) in hand_written_nests() {
        legal_total += check_region(&root, label);
    }
    // The sweep must actually exercise the legal path, not refuse
    // everything: matmul alone contributes interchange + tiling +
    // parallelization verdicts.
    assert!(
        legal_total >= 10,
        "sweep looks vacuous: only {legal_total} legal verdicts"
    );
}

#[test]
fn corpus_registry_regions_are_judged_consistently() {
    // Every registry entry's tagged region goes through the same
    // one-directional sweep — this is where the triangular PolyBench
    // factorizations, the data-dependent SpMV bounds and the guarded
    // stencil meet the legality engine. Rectangular entries must keep
    // contributing legal verdicts; triangular ones are allowed to refuse
    // everything (the engine may be more conservative than the raw
    // predicates, never less).
    use locus::srcir::region::{extract_region, find_regions};
    let mut legal_total = 0;
    for entry in locus::corpus::all_programs() {
        let regions = find_regions(&entry.program);
        let region = regions
            .iter()
            .find(|r| r.id == entry.region)
            .unwrap_or_else(|| panic!("{}: region `{}` missing", entry.name, entry.region));
        let root = extract_region(&entry.program, region)
            .unwrap_or_else(|| panic!("{}: region not extractable", entry.name))
            .stmt;
        let count = check_region(&root, entry.name);
        if entry.rectangular {
            assert!(
                count > 0,
                "{}: rectangular entry produced no legal verdicts",
                entry.name
            );
        }
        legal_total += count;
    }
    assert!(
        legal_total >= 10,
        "registry sweep looks vacuous: only {legal_total} legal verdicts"
    );
}

#[test]
fn fusion_verdicts_respect_the_reconstructed_dependences() {
    // Fusion is judged on a privately fused candidate; re-do the engine's
    // construction through the public analysis API and compare verdicts.
    let fusable = block_region(
        r#"void f(int n, double A[64], double B[64]) {
        for (int i = 0; i < 64; i++) A[i] = 1.0;
        for (int j = 0; j < 64; j++) B[j] = A[j] * 2.0;
        }"#,
    );
    assert!(legal(
        &fusable,
        &TransformStep::Fuse {
            first: "0.0".parse().unwrap()
        }
    )
    .is_legal());

    let preventing = block_region(
        r#"void f(int n, double A[66], double B[64]) {
        for (int i = 0; i < 64; i++) A[i] = 1.0;
        for (int j = 0; j < 64; j++) B[j] = A[j + 1];
        }"#,
    );
    let verdict = legal(
        &preventing,
        &TransformStep::Fuse {
            first: "0.0".parse().unwrap(),
        },
    );
    assert!(!verdict.is_legal());
    // The raw analysis agrees there is a dependence between the two
    // bodies through `A` (the engine saw it point backward after fusing).
    let info = analyze_region(&preventing);
    assert!(info.available);
    assert!(
        info.deps.iter().any(|d| d.array == "A"),
        "analysis reports no dependence on A at all: {:?}",
        info.deps
    );
}

#[test]
fn known_dependences_are_reported_and_refused() {
    // Both layers must agree on the classic recurrence — this guards
    // against the *analysis* silently going permissive, which would make
    // the one-directional sweep above vacuous.
    let root = region(
        r#"void f(int n, double A[64]) {
        for (int i = 1; i < n; i++)
            A[i] = A[i - 1] + 1.0;
        }"#,
    );
    let info = analyze_region(&root);
    assert!(info.available);
    assert!(
        info.deps.iter().any(|d| d.carrier_level() == Some(0)),
        "analysis must report the carried dependence: {:?}",
        info.deps
    );
    assert!(!legal(
        &root,
        &TransformStep::Vectorize {
            target: HierIndex::root()
        }
    )
    .is_legal());
    assert!(parallel_for_clauses(&root, &HierIndex::root()).is_err());
}

/// Collects every region this suite sweeps: the hand-written nests plus
/// each registry entry's tagged region.
fn all_swept_regions() -> Vec<(String, Stmt)> {
    use locus::srcir::region::{extract_region, find_regions};
    let mut out: Vec<(String, Stmt)> = hand_written_nests()
        .into_iter()
        .map(|(label, root)| (label.to_string(), root))
        .collect();
    for entry in locus::corpus::all_programs() {
        let regions = find_regions(&entry.program);
        let region = regions
            .iter()
            .find(|r| r.id == entry.region)
            .unwrap_or_else(|| panic!("{}: region `{}` missing", entry.name, entry.region));
        let root = extract_region(&entry.program, region)
            .unwrap_or_else(|| panic!("{}: region not extractable", entry.name))
            .stmt;
        out.push((entry.name.to_string(), root));
    }
    out
}

#[test]
fn exact_refusals_are_a_subset_of_conservative_refusals() {
    // The polyhedral engine may only *admit* more than the conservative
    // subscript tests, never less: any direction-vector predicate that
    // holds under the conservative dependence set must hold under the
    // exact one. A violation means the exact engine invented a
    // dependence — the one failure mode that would make its "legal"
    // verdicts unsound to trust over the old ones.
    let mut compared = 0usize;
    for (label, root) in all_swept_regions() {
        let exact = analyze_region(&root);
        let cons = analyze_region_conservative(&root);
        assert_eq!(
            exact.available, cons.available,
            "{label}: engines disagree on availability"
        );
        if !exact.available {
            continue;
        }
        let depth = exact.loop_vars.len();
        for &perm in PERMS {
            let full: Vec<usize> = perm.iter().copied().chain(perm.len()..depth).collect();
            if cons.interchange_legal(&full) {
                assert!(
                    exact.interchange_legal(&full),
                    "{label}: conservative admits interchange {perm:?}, exact refuses"
                );
            }
            compared += 1;
        }
        for width in 1..=depth.min(3) {
            let band: Vec<usize> = (0..width).collect();
            if cons.band_permutable(&band) {
                assert!(
                    exact.band_permutable(&band),
                    "{label}: conservative admits band {band:?}, exact refuses"
                );
            }
            compared += 1;
        }
        if cons.vectorizable() {
            assert!(
                exact.vectorizable(),
                "{label}: conservative admits vectorization, exact refuses"
            );
        }
        if cons.distribution_legal() {
            assert!(
                exact.distribution_legal(),
                "{label}: conservative admits distribution, exact refuses"
            );
        }
        compared += 2;
    }
    assert!(compared > 100, "sweep looks vacuous: {compared} predicates");
}

#[test]
fn newly_legal_variants_execute_checksum_identically() {
    // Every restructuring the polyhedral engine newly admits — legal
    // under `verify::legal`, refused by the conservative predicate or by
    // the old rectangular-band structural gate — is applied for real and
    // executed on both engines. The variant's checksum must be
    // bit-identical to the untransformed oracle's: a "newly legal" point
    // that changes the result would be the exact engine miscompiling.
    use locus::machine::{ExecEngine, Machine, MachineConfig};
    use locus::srcir::ast::Expr;
    use locus::srcir::region::{extract_region, find_regions, replace_region};
    use locus::srcir::visit::walk_exprs;
    use locus::transform;

    /// The old structural gate: every bound in the width-`width`
    /// perfectly nested band must not reference another band variable.
    fn rectangular_band(loop_stmt: &Stmt, width: usize) -> bool {
        use locus::analysis::loops::canonicalize;
        let mut band = Vec::new();
        let mut cur = loop_stmt;
        for level in 0..width {
            let Some(canon) = canonicalize(cur) else {
                return false;
            };
            band.push(canon);
            if level + 1 < width {
                let body = cur.as_for().expect("canonical loop").body.body_stmts();
                if body.len() != 1 || !body[0].is_for() {
                    return false;
                }
                cur = &body[0];
            }
        }
        band.iter().all(|canon| {
            [&canon.lower, &canon.upper].iter().all(|bound| {
                let mut ok = true;
                walk_exprs(bound, &mut |e| {
                    if let Expr::Ident(n) = e {
                        if band.iter().any(|l| &l.var == n && l.var != canon.var) {
                            ok = false;
                        }
                    }
                });
                ok
            })
        })
    }

    let config = MachineConfig::scaled_small();
    let mut executed = 0usize;
    for entry in locus::corpus::all_programs() {
        let regions = find_regions(&entry.program);
        let Some(region) = regions.iter().find(|r| r.id == entry.region) else {
            continue;
        };
        let root = extract_region(&entry.program, region).expect("region").stmt;
        let cons = analyze_region_conservative(&root);
        let depth = analyze_region(&root).loop_vars.len();

        // Candidate steps and whether the old engine (conservative deps
        // + rectangular band gate) would have admitted them.
        let mut candidates: Vec<(TransformStep, bool)> = Vec::new();
        for &perm in PERMS {
            if perm.len() > depth {
                continue;
            }
            let full: Vec<usize> = perm.iter().copied().chain(perm.len()..depth).collect();
            let old = cons.available
                && cons.interchange_legal(&full)
                && rectangular_band(&root, perm.len());
            candidates.push((
                TransformStep::Interchange {
                    order: perm.to_vec(),
                },
                old,
            ));
        }
        for width in 2..=depth.min(3) {
            let band: Vec<usize> = (0..width).collect();
            let old =
                cons.available && cons.band_permutable(&band) && rectangular_band(&root, width);
            candidates.push((
                TransformStep::Tile {
                    target: HierIndex::root(),
                    width,
                },
                old,
            ));
        }

        for (step, old_legal) in candidates {
            if old_legal || !legal(&root, &step).is_legal() {
                continue; // not *newly* legal
            }
            let mut stmt = root.clone();
            let applied = match &step {
                TransformStep::Interchange { order } => {
                    transform::interchange::interchange(&mut stmt, order, true).is_ok()
                }
                TransformStep::Tile { width, .. } => {
                    transform::tiling::tile(&mut stmt, &HierIndex::root(), &vec![4; *width], true)
                        .is_ok()
                }
                _ => false,
            };
            if !applied {
                continue;
            }
            let mut variant = entry.program.clone();
            replace_region(&mut variant, region, stmt);
            let oracle = Machine::new(config.clone().with_engine(ExecEngine::Tree))
                .run(&entry.program, "kernel")
                .unwrap_or_else(|e| panic!("{}: oracle failed: {e:?}", entry.name));
            for engine in [ExecEngine::Tree, ExecEngine::RegisterVm] {
                let m = Machine::new(config.clone().with_engine(engine))
                    .run(&variant, "kernel")
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}: newly-legal {step:?} failed on {engine:?}: {e:?}",
                            entry.name
                        )
                    });
                assert_eq!(
                    m.checksum, oracle.checksum,
                    "{}: newly-legal {step:?} changed the checksum on {engine:?}",
                    entry.name
                );
            }
            executed += 1;
        }
    }
    // SYRK's triangular band alone must contribute (interchange and/or
    // hull tiling); if nothing executed the precision story is vacuous.
    assert!(executed >= 1, "no newly-legal variant was executed");
}

#[test]
fn fuzz_corpus_loops_are_judged_consistently() {
    let dir = format!("{}/tests/fixtures/fuzz_corpus", env!("CARGO_MANIFEST_DIR"));
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "fuzz corpus is missing");

    let mut regions = 0;
    for path in entries {
        let src = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&src).unwrap();
        for f in program.functions() {
            // Judge each function body as one region, exactly like the
            // tuning driver does with annotated regions.
            let root = Stmt::block(f.body.clone());
            check_region(&root, &format!("{}:{}", path.display(), f.name));
            regions += 1;
        }
    }
    assert!(regions > 0, "corpus contained no functions");
}
