//! Integration tests spanning the whole workspace: source front-end →
//! Locus DSL → transformation modules → simulated machine → search.

use locus::machine::{Machine, MachineConfig};
use locus::search::{AnnealTuner, BanditTuner, ExhaustiveSearch, RandomSearch, SearchModule};
use locus::system::{LocusSystem, TuneRequest};

fn small_machine(cores: usize) -> Machine {
    Machine::new(MachineConfig::scaled_small().with_cores(cores))
}

#[test]
fn fig5_program_end_to_end() {
    // The paper's first example: 2D-vs-3D tiling alternative with pow2
    // tile ranges and an unroll conditional on the chosen alternative.
    let source = locus::corpus::dgemm_program(32);
    let locus_program = locus::lang::parse(
        r#"
        import "RoseLocus";
        def printstatus(type) {
            print "Tiling selected: " + type;
        }
        OptSeq Tiling2D() {
            tileI = poweroftwo(2..32);
            tileJ = poweroftwo(2..32);
            RoseLocus.Tiling(loop="0", factor=[tileI, tileJ]);
            return "2D";
        }
        OptSeq Tiling3D() {
            RoseLocus.Tiling(loop="0", factor=[4, 4, 8]);
            return "3D";
        }
        CodeReg matmul {
            tiledim = 4;
            tiletype = Tiling2D() OR Tiling3D();
            printstatus(tiletype);
            if (tiletype == "2D") {
                RoseLocus.Unroll(loop=innermost, factor=tiledim);
            }
        }
        "#,
    )
    .unwrap();
    let system = LocusSystem::new(small_machine(1));
    let prepared = system.prepare(&source, &locus_program).unwrap();
    // tileI (5) * tileJ (5) * OR (2) = 50 assignments, covering the
    // paper's 25 + 1 semantic variants.
    assert_eq!(prepared.space.size(), 50);

    let mut search = ExhaustiveSearch::default();
    let (result, _) = system
        .run(TuneRequest::new(&source, &locus_program, 64), &mut search)
        .unwrap();
    // Every assignment is a valid, correct variant.
    assert_eq!(result.outcome.evaluations, 50);
    assert!(result.best.is_some());
    assert!(result.speedup() >= 1.0);
}

#[test]
fn all_search_modules_tune_the_same_space() {
    let source = locus::corpus::dgemm_program(24);
    let locus_program = locus::lang::parse(
        r#"CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            t = poweroftwo(2..16);
            Pips.Tiling(loop="0", factor=[t, t, t]);
        }"#,
    )
    .unwrap();
    let system = LocusSystem::new(small_machine(1));
    let mut modules: Vec<Box<dyn SearchModule>> = vec![
        Box::new(ExhaustiveSearch::default()),
        Box::new(RandomSearch::new(1)),
        Box::new(BanditTuner::new(1)),
        Box::new(AnnealTuner::new(1)),
    ];
    let mut bests = Vec::new();
    for m in &mut modules {
        let request = TuneRequest::new(&source, &locus_program, 8);
        let (result, _) = system.run(request, m.as_mut()).unwrap();
        let (_, _, best) = result.best.expect("found a variant");
        bests.push(best.time_ms);
    }
    // Exhaustive covers the whole 4-point space; every module must land
    // on the same optimum given budget >= space.
    for b in &bests {
        assert!((b - bests[0]).abs() < 1e-9, "{bests:?}");
    }
}

#[test]
fn variant_checksum_guard_rejects_wrong_code() {
    // Force an illegal interchange with legality checks off: the
    // dependence reverses and the checksum diverges, so the system
    // counts the variant as failed rather than reporting wrong results.
    let source = locus::srcir::parse_program(
        r#"
        double A[64][64];
        void kernel() {
            #pragma @Locus loop=rec
            for (int i = 1; i < 64; i++)
                for (int j = 0; j < 63; j++)
                    A[i][j] = A[i - 1][j + 1] * 0.5;
        }
        "#,
    )
    .unwrap();
    let locus_program = locus::lang::parse(
        r#"CodeReg rec {
            RoseLocus.Interchange(order=[1, 0]);
        }"#,
    )
    .unwrap();
    let mut system = LocusSystem::new(small_machine(1));
    system.check_legality = false; // expert override...
    let mut search = ExhaustiveSearch::default();
    let (result, _) = system
        .run(TuneRequest::new(&source, &locus_program, 4), &mut search)
        .unwrap();
    // ...but the empirical result check catches the broken variant.
    assert!(result.best.is_none());
    assert_eq!(result.outcome.evaluations, 1);

    // With legality checks on, the module itself refuses.
    let mut strict = LocusSystem::new(small_machine(1));
    strict.check_legality = true;
    let mut search = ExhaustiveSearch::default();
    let (result, _) = strict
        .run(TuneRequest::new(&source, &locus_program, 4), &mut search)
        .unwrap();
    assert!(result.best.is_none());
}

#[test]
fn multiple_regions_with_the_same_id_get_the_same_sequence() {
    let source = locus::srcir::parse_program(
        r#"
        double A[128];
        double B[128];
        void kernel() {
            #pragma @Locus loop=init
            for (int i = 0; i < 128; i++)
                A[i] = 1.0;
            #pragma @Locus loop=init
            for (int j = 0; j < 128; j++)
                B[j] = 2.0;
        }
        "#,
    )
    .unwrap();
    let locus_program = locus::lang::parse(
        r#"CodeReg init {
            RoseLocus.Unroll(loop="0", factor=4);
        }"#,
    )
    .unwrap();
    let system = LocusSystem::new(small_machine(1));
    let optimized = system.apply_direct(&source, &locus_program).unwrap();
    let printed = locus::srcir::print_program(&optimized);
    assert!(printed.contains("A[i + 3]"), "{printed}");
    assert!(printed.contains("B[j + 3]"), "{printed}");
}

#[test]
fn or_statement_alternatives_produce_distinct_variants() {
    let source = locus::corpus::dgemm_program(16);
    let locus_program = locus::lang::parse(
        r#"
        OptSeq A2() { RoseLocus.Unroll(loop=innermost, factor=2); return 2; }
        OptSeq A4() { RoseLocus.Unroll(loop=innermost, factor=4); return 4; }
        CodeReg matmul {
            A2() OR A4();
        }
        "#,
    )
    .unwrap();
    let system = LocusSystem::new(small_machine(1));
    let prepared = system.prepare(&source, &locus_program).unwrap();
    assert_eq!(prepared.space.size(), 2);
    let a = system
        .build_variant(&source, &prepared, &prepared.space.point_at(0))
        .unwrap();
    let b = system
        .build_variant(&source, &prepared, &prepared.space.point_at(1))
        .unwrap();
    assert_ne!(
        locus::srcir::print_program(&a),
        locus::srcir::print_program(&b)
    );
}

#[test]
fn search_block_configuration_is_exposed() {
    let locus_program = locus::lang::parse(
        r#"
        Search {
            buildcmd = "make clean; make";
            runcmd = "./matmul";
        }
        CodeReg matmul { RoseLocus.Unroll(loop="0", factor=2); }
        "#,
    )
    .unwrap();
    let mut host = NullHost;
    let point = locus::space::Point::new();
    let ids = std::collections::HashMap::new();
    let mut interp = locus::lang::Interp::new(&locus_program, &mut host, &point, &ids);
    interp.run_search_block().unwrap();
    let out = interp.into_output();
    assert_eq!(
        out.search_config.get("buildcmd").map(ToString::to_string),
        Some("make clean; make".to_string())
    );
}

struct NullHost;

impl locus::lang::TransformHost for NullHost {
    fn call(
        &mut self,
        _module: &str,
        _func: &str,
        _args: &[(Option<String>, locus::lang::Value)],
    ) -> Result<locus::lang::Value, locus::lang::HostError> {
        Ok(locus::lang::Value::None)
    }
}
