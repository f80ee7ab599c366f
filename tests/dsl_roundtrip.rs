//! Property tests on the language layers: the mini-C printer/parser
//! round trip, space/point invariants, and — the part the parallel
//! engine's memo cache leans on — Locus DSL printer↔parser round trips
//! for every figure program and for the direct programs emitted during
//! tuning.
//!
//! All loops are hand-rolled over the in-tree [`SplitMix64`] generator
//! (offline-only build; see README "Testing"): every trial derives from
//! a fixed seed and reproduces exactly.

use locus::lang::LocusProgram;
use locus::space::SplitMix64;

/// Seeded trials per scenario.
const TRIALS: usize = 64;

// ---- mini-C round trip ------------------------------------------------------

/// Generates a small mini-C program from the trial's RNG.
fn random_minic(rng: &mut SplitMix64) -> String {
    const STMTS: [&str; 5] = [
        "A[i] = A[i] + 1.0;",
        "A[i] = B[i] * 2.0 - 1.0;",
        "x = x + i;",
        "if (i % 2 == 0) { A[i] = 0.0; }",
        "A[i] = (double)(i * 3 % 7);",
    ];
    let stmt = STMTS[rng.below_usize(STMTS.len())];
    let n = rng.range_i64(1, 29);
    let p = if rng.chance(0.5) {
        "#pragma @Locus loop=r\n"
    } else {
        ""
    };
    format!(
        r#"
        double A[32];
        double B[32];
        int x;
        void kernel() {{
            {p}for (int i = 0; i < {n}; i++) {{
                {stmt}
            }}
        }}
        "#
    )
}

/// print(parse(x)) re-parses to the same AST.
#[test]
fn minic_print_parse_is_a_fixpoint() {
    let mut rng = SplitMix64::new(0xc001);
    for trial in 0..TRIALS {
        let src = random_minic(&mut rng);
        let p1 = locus::srcir::parse_program(&src).expect("generated source parses");
        let printed = locus::srcir::print_program(&p1);
        let p2 = locus::srcir::parse_program(&printed)
            .unwrap_or_else(|e| panic!("trial {trial}: reparse failed: {e}\n{printed}"));
        assert_eq!(p1, p2, "trial {trial}: printed:\n{printed}");
    }
}

/// Expression printing preserves evaluation (via the machine).
#[test]
fn minic_reprint_preserves_execution() {
    let machine = locus::machine::Machine::new(locus::machine::MachineConfig::scaled_small());
    let mut rng = SplitMix64::new(0xc002);
    for trial in 0..TRIALS {
        let src = random_minic(&mut rng);
        let p1 = locus::srcir::parse_program(&src).expect("parses");
        let m1 = machine.run(&p1, "kernel").expect("runs");
        let p2 = locus::srcir::parse_program(&locus::srcir::print_program(&p1)).expect("reparses");
        let m2 = machine.run(&p2, "kernel").expect("reruns");
        assert_eq!(m1.checksum, m2.checksum, "trial {trial}");
        assert_eq!(
            m1.cycles, m2.cycles,
            "trial {trial}: costs must be deterministic"
        );
    }
}

// ---- space / point invariants ------------------------------------------------

fn random_space(rng: &mut SplitMix64) -> locus::space::Space {
    use locus::space::{ParamDef, ParamKind};
    let count = 1 + rng.below_usize(4);
    (0..count)
        .map(|i| {
            let kind = match rng.below(5) {
                0 => ParamKind::Integer {
                    min: rng.range_i64(1, 19),
                    max: rng.range_i64(20, 39),
                },
                1 => ParamKind::PowerOfTwo {
                    min: rng.range_i64(1, 7),
                    max: rng.range_i64(16, 127),
                },
                2 => ParamKind::Permutation(2 + rng.below_usize(3)),
                3 => ParamKind::Bool,
                _ => {
                    let n = 2 + rng.below_usize(4);
                    ParamKind::Enum((0..n).map(|i| format!("v{i}")).collect())
                }
            };
            ParamDef::new(format!("p{i}"), kind)
        })
        .collect()
}

/// Every lexicographic index decodes to a distinct in-domain point.
#[test]
fn space_point_at_is_injective_and_in_domain() {
    let mut rng = SplitMix64::new(0x5ace);
    for trial in 0..2 * TRIALS {
        let space = random_space(&mut rng);
        let size = space.size();
        let sample = size.min(64);
        let mut seen = std::collections::HashSet::new();
        for k in 0..sample {
            // Spread indices over the whole range.
            let idx = if sample == size {
                k
            } else {
                k * (size / sample)
            };
            let point = space.point_at(idx);
            assert_eq!(point.len(), space.len(), "trial {trial}");
            seen.insert(point.canonical_key());
        }
        assert_eq!(seen.len() as u128, sample, "trial {trial}");
    }
}

/// Random points and mutations stay inside the domain.
#[test]
fn random_and_mutated_points_stay_in_domain() {
    use locus::space::{ParamKind, ParamValue};
    let mut rng = SplitMix64::new(0xd0d0);
    for trial in 0..2 * TRIALS {
        let space = random_space(&mut rng);
        let p = space.random_point(&mut rng);
        let q = space.mutate(&p, 2, &mut rng);
        for point in [&p, &q] {
            for def in space.params() {
                let v = point.get(&def.id).expect("assigned");
                match (&def.kind, v) {
                    (ParamKind::Integer { min, max }, ParamValue::Int(x)) => {
                        assert!(x >= min && x <= max, "trial {trial}");
                    }
                    (ParamKind::PowerOfTwo { min, max }, ParamValue::Int(x)) => {
                        assert!(x >= min && x <= max && x.count_ones() == 1, "trial {trial}");
                    }
                    (ParamKind::Permutation(n), ParamValue::Perm(perm)) => {
                        let mut sorted = perm.clone();
                        sorted.sort_unstable();
                        assert_eq!(sorted, (0..*n).collect::<Vec<_>>(), "trial {trial}");
                    }
                    (ParamKind::Bool, ParamValue::Choice(c)) => {
                        assert!(*c < 2, "trial {trial}")
                    }
                    (ParamKind::Enum(labels), ParamValue::Choice(c)) => {
                        assert!(*c < labels.len(), "trial {trial}");
                    }
                    other => panic!("trial {trial}: mismatched kind/value {other:?}"),
                }
            }
        }
    }
}

// ---- Locus DSL round trips ---------------------------------------------------

/// Asserts print→parse→print is a fixpoint, reporting the first
/// divergent line on failure.
fn assert_locus_round_trip(label: &str, program: &LocusProgram) {
    let printed = locus::lang::print_program(program);
    let reparsed = locus::lang::parse(&printed)
        .unwrap_or_else(|e| panic!("{label}: printed program failed to reparse: {e}\n{printed}"));
    let reprinted = locus::lang::print_program(&reparsed);
    if printed != reprinted {
        for (i, (a, b)) in printed.lines().zip(reprinted.lines()).enumerate() {
            if a != b {
                panic!(
                    "{label}: round trip diverged at line {}:\n  before: {a}\n  after:  {b}",
                    i + 1
                );
            }
        }
        panic!(
            "{label}: round trip diverged in length: {} vs {} lines\n--- before ---\n{printed}\n--- after ---\n{reprinted}",
            printed.lines().count(),
            reprinted.lines().count()
        );
    }
}

/// Every figure program of the paper round-trips through the printer.
#[test]
fn figure_programs_round_trip() {
    use locus::corpus::{KripkeKernel, Stencil};
    assert_locus_round_trip(
        "fig7(max_tile=64)",
        &locus_bench::fig6::fig7_locus_program(64),
    );
    assert_locus_round_trip(
        "fig7(max_tile=4)",
        &locus_bench::fig6::fig7_locus_program(4),
    );
    for stencil in Stencil::ALL {
        assert_locus_round_trip(
            &format!("fig9({stencil:?})"),
            &locus_bench::fig6::fig9_locus_program(stencil, 2, 16),
        );
    }
    for kernel in KripkeKernel::ALL {
        assert_locus_round_trip(
            &format!("fig11({kernel:?})"),
            &locus_bench::fig12::fig11_locus_program(kernel),
        );
    }
    let fig13 = locus::lang::parse(locus_bench::table1::FIG13_PROGRAM).expect("Fig. 13 parses");
    assert_locus_round_trip("fig13", &fig13);
}

/// The inline example programs from `examples/` round-trip too.
#[test]
fn example_programs_round_trip() {
    const EXAMPLES: [(&str, &str); 3] = [
        (
            "matmul-tuning",
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                tileI = poweroftwo(4..16);
                tileK = poweroftwo(4..16);
                tileJ = poweroftwo(4..16);
                Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
            }"#,
        ),
        (
            "or-blocks-and-optionals",
            r#"CodeReg scop {
                t = poweroftwo(2..8);
                u = integer(1..4);
                {
                    Pips.Tiling(loop="0", factor=[t, t, t]);
                } OR {
                    RoseLocus.Unroll(loop=innermost, factor=u);
                }
            }"#,
        ),
        (
            "queries-and-permutations",
            r#"CodeReg matmul {
                depth = BuiltIn.LoopNestDepth();
                permorder = permutation(seq(0, depth));
                RoseLocus.Interchange(order=permorder);
            }"#,
        ),
    ];
    for (label, src) in EXAMPLES {
        let program = locus::lang::parse(src).expect(label);
        assert_locus_round_trip(label, &program);
    }
}

/// Every direct program emitted while tuning round-trips: the memo
/// cache of the parallel engine keys variants by the printed direct
/// program, so printing must be loss-free for all reachable points.
#[test]
fn direct_programs_round_trip_during_tuning() {
    let source = locus::corpus::dgemm_program(8);
    let locus_program = locus_bench::fig6::fig7_locus_program(8);
    let system = locus::system::LocusSystem::new(locus::machine::Machine::new(
        locus::machine::MachineConfig::scaled_tiny().with_cores(1),
    ));
    let prepared = system.prepare(&source, &locus_program).expect("prepares");

    // A stratified sweep of the space, plus random points: every direct
    // program printed must re-parse to a program that prints the same.
    let size = prepared.space.size();
    let mut rng = SplitMix64::new(0xd1ec7);
    let mut checked = 0usize;
    for k in 0..TRIALS as u128 {
        let idx = (k * size / TRIALS as u128).min(size - 1);
        let point = prepared.space.point_at(idx);
        let direct = system.direct_program(&prepared, &point);
        let reparsed = locus::lang::parse(&direct)
            .unwrap_or_else(|e| panic!("point {idx}: direct program unparseable: {e}\n{direct}"));
        assert_locus_round_trip(&format!("direct@{idx}"), &reparsed);
        checked += 1;

        let random = prepared.space.random_point(&mut rng);
        let direct = system.direct_program(&prepared, &random);
        let reparsed = locus::lang::parse(&direct)
            .unwrap_or_else(|e| panic!("random point: direct program unparseable: {e}\n{direct}"));
        assert_locus_round_trip("direct@random", &reparsed);
        checked += 1;
    }
    assert_eq!(checked, 2 * TRIALS);

    // And the direct program of an actual tuning winner.
    let mut search = locus::search::ExhaustiveSearch::default();
    let request = locus::system::TuneRequest::new(&source, &locus_program, 16);
    let (result, _) = system.run(request, &mut search).expect("tunes");
    if let Some((point, _, _)) = &result.best {
        let direct = system.direct_program(&prepared, point);
        let reparsed = locus::lang::parse(&direct).expect("winner direct program parses");
        assert_locus_round_trip("direct@winner", &reparsed);
    }
}

// ---- Locus DSL determinism ---------------------------------------------------

/// Interpreting the same program twice under the same point produces
/// identical module-call sequences (determinism of the pipeline).
#[test]
fn locus_interpretation_is_deterministic() {
    let source = locus::corpus::dgemm_program(8);
    let locus_program = locus::lang::parse(
        r#"CodeReg matmul {
            t = poweroftwo(2..8);
            u = integer(1..4);
            {
                Pips.Tiling(loop="0", factor=[t, t, t]);
            } OR {
                RoseLocus.Unroll(loop=innermost, factor=u);
            }
        }"#,
    )
    .expect("parses");
    let system = locus::system::LocusSystem::new(locus::machine::Machine::new(
        locus::machine::MachineConfig::scaled_small(),
    ));
    let prepared = system.prepare(&source, &locus_program).expect("prepares");
    let mut rng = SplitMix64::new(0xde7e);
    for trial in 0..32 {
        let point = prepared.space.random_point(&mut rng);
        let a = system.build_variant(&source, &prepared, &point);
        let b = system.build_variant(&source, &prepared, &point);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(
                locus::srcir::print_program(&x),
                locus::srcir::print_program(&y),
                "trial {trial}"
            ),
            (Err(_), Err(_)) => {}
            other => panic!("trial {trial}: divergent outcomes {other:?}"),
        }
    }
}
