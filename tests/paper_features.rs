//! Integration tests for the remaining paper features: shippable direct
//! programs (Sec. II), block regions with `Altdesc` algorithm selection
//! (Sec. II / IV-A.4), `Search` blocks with control flow (Sec. III), the
//! portfolio search (Sec. VII future work), and `Query` definitions.

use std::collections::HashMap;

use locus::machine::{Machine, MachineConfig};
use locus::search::{BanditTuner, PortfolioSearch};
use locus::space::Point;
use locus::system::{LocusSystem, TuneRequest};

fn machine(cores: usize) -> Machine {
    Machine::new(MachineConfig::scaled_small().with_cores(cores))
}

#[test]
fn shipped_direct_program_reproduces_the_tuned_variant() {
    let source = locus::corpus::dgemm_program(32);
    let locus_program = locus::lang::parse(
        r#"CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            tileI = poweroftwo(2..32);
            tileK = poweroftwo(2..32);
            Pips.Tiling(loop="0", factor=[tileI, tileK, 8]);
            *Pragma.Vector(loop=innermost);
        }"#,
    )
    .unwrap();
    let system = LocusSystem::new(machine(1));
    let mut search = BanditTuner::new(11);
    let (result, _) = system
        .run(TuneRequest::new(&source, &locus_program, 12), &mut search)
        .unwrap();
    let (point, _, best_measurement) = result.best.expect("found a variant");

    // Render the direct program and run it through the direct workflow:
    // the measurement must be identical to the tuned best.
    let prepared = system.prepare(&source, &locus_program).unwrap();
    let direct_src = system.direct_program(&prepared, &point);
    assert!(
        !direct_src.contains("poweroftwo") && !direct_src.contains(" OR "),
        "direct programs contain no search constructs:\n{direct_src}"
    );
    let direct = locus::lang::parse(&direct_src).unwrap();
    let rebuilt = system.apply_direct(&source, &direct).unwrap();
    let m = system.measure(&rebuilt).unwrap();
    assert_eq!(m.checksum, best_measurement.checksum);
    assert_eq!(m.cycles, best_measurement.cycles, "identical variant");
}

#[test]
fn block_region_algorithm_selection_via_altdesc() {
    // Sec. II: "block annotations for alternative algorithm selections".
    // The block region holds a naive summation; Altdesc swaps in an
    // unrolled alternative from the snippet store, chosen by an OR.
    let source = locus::srcir::parse_program(
        r#"
        double A[256];
        double total[1];
        void kernel() {
            #pragma @Locus block=reduce
            {
                total[0] = 0.0;
                for (int i = 0; i < 256; i++)
                    total[0] = total[0] + A[i];
            }
        }
        "#,
    )
    .unwrap();
    let locus_program = locus::lang::parse(
        r#"CodeReg reduce {
            {
                None; # keep the baseline algorithm
            } OR {
                BuiltIn.Altdesc(stmt="0", source="pairwise.txt");
            }
        }"#,
    )
    .unwrap();
    let mut system = LocusSystem::new(machine(1));
    system.snippets.insert(
        "pairwise.txt".to_string(),
        r#"{
            double partial[4];
            for (int p = 0; p < 4; p++) partial[p] = 0.0;
            for (int i = 0; i < 256; i += 4) {
                partial[0] = partial[0] + A[i];
                partial[1] = partial[1] + A[i + 1];
                partial[2] = partial[2] + A[i + 2];
                partial[3] = partial[3] + A[i + 3];
            }
            total[0] = partial[0] + partial[1] + partial[2] + partial[3];
        }"#
        .to_string(),
    );
    let prepared = system.prepare(&source, &locus_program).unwrap();
    assert_eq!(prepared.space.size(), 2, "baseline OR alternative");

    let base = system
        .build_variant(&source, &prepared, &prepared.space.point_at(0))
        .unwrap();
    let alt = system
        .build_variant(&source, &prepared, &prepared.space.point_at(1))
        .unwrap();
    let base_m = system.measure(&base).unwrap();
    let alt_m = system.measure(&alt).unwrap();
    assert_eq!(
        base_m.checksum, alt_m.checksum,
        "both algorithms compute the same sum"
    );
    assert_ne!(
        locus::srcir::print_program(&base),
        locus::srcir::print_program(&alt)
    );
}

#[test]
fn search_block_supports_control_flow() {
    // Sec. III: "The statements in the search block may include flow
    // statements and take actions based on variable selections made in
    // the global scope."
    let locus_program = locus::lang::parse(
        r#"
        compiler = "icc";
        Search {
            if (compiler == "icc") {
                buildcmd = "icc -O3 -xHost";
            } else {
                buildcmd = "gcc -O3";
            }
            runcmd = "./kernel";
        }
        CodeReg r { A.X(); }
        "#,
    )
    .unwrap();
    struct Null;
    impl locus::lang::TransformHost for Null {
        fn call(
            &mut self,
            _m: &str,
            _f: &str,
            _a: &[(Option<String>, locus::lang::Value)],
        ) -> Result<locus::lang::Value, locus::lang::HostError> {
            Ok(locus::lang::Value::None)
        }
    }
    let mut host = Null;
    let point = Point::new();
    let ids = HashMap::new();
    let mut interp = locus::lang::Interp::new(&locus_program, &mut host, &point, &ids);
    interp.run_search_block().unwrap();
    let out = interp.into_output();
    assert_eq!(
        out.search_config.get("buildcmd").map(ToString::to_string),
        Some("icc -O3 -xHost".to_string())
    );
}

#[test]
fn portfolio_search_drives_the_full_system() {
    let source = locus::corpus::dgemm_program(24);
    let locus_program = locus::lang::parse(
        r#"CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            t = poweroftwo(2..16);
            Pips.Tiling(loop="0", factor=[t, t, t]);
        }"#,
    )
    .unwrap();
    let system = LocusSystem::new(machine(1));
    let mut search = PortfolioSearch::new(3);
    let (result, _) = system
        .run(TuneRequest::new(&source, &locus_program, 4), &mut search)
        .unwrap();
    assert_eq!(result.outcome.evaluations, 4, "whole 4-point space covered");
    assert!(result.best.is_some());
}

#[test]
fn user_defined_queries_work_like_optseqs() {
    // `Query NAME(args) { ... }` defines a reusable analysis procedure.
    let source = locus::corpus::dgemm_program(16);
    let locus_program = locus::lang::parse(
        r#"
        Query tile_for_depth(d) {
            if (d > 2) { return 8; }
            return 16;
        }
        CodeReg matmul {
            depth = BuiltIn.LoopNestDepth();
            t = tile_for_depth(depth);
            Pips.Tiling(loop="0", factor=[t, t, t]);
        }
        "#,
    )
    .unwrap();
    let system = LocusSystem::new(machine(1));
    let optimized = system.apply_direct(&source, &locus_program).unwrap();
    let printed = locus::srcir::print_program(&optimized);
    // depth 3 > 2 -> tile 8.
    assert!(printed.contains("+ 8"), "tile 8 chosen:\n{printed}");
}

#[test]
fn import_and_module_declarations_are_accepted() {
    let locus_program = locus::lang::parse(
        r#"
        import "RoseLocus";
        Module MyTools {
            x = 1;
        }
        CodeReg r { RoseLocus.LICM(); }
        "#,
    )
    .unwrap();
    assert_eq!(locus_program.codereg_names(), vec!["r"]);
}

#[test]
fn fusion_merges_adjacent_loops_end_to_end() {
    // Pips.Fusion (Sec. IV-A.1) exercised through the whole stack.
    let source = locus::srcir::parse_program(
        r#"
        double A[2048];
        double B[2048];
        void kernel() {
            #pragma @Locus block=streams
            {
                for (int i = 0; i < 2048; i++)
                    A[i] = A[i] * 0.5;
                for (int j = 0; j < 2048; j++)
                    B[j] = B[j] + A[j];
            }
        }
        "#,
    )
    .unwrap();
    let locus_program = locus::lang::parse(
        r#"CodeReg streams {
            Pips.Fusion(loop="0.0");
        }"#,
    )
    .unwrap();
    let system = LocusSystem::new(machine(1));
    let base = system.measure(&source).unwrap();
    let fused = system.apply_direct(&source, &locus_program).unwrap();
    let fused_m = system.measure(&fused).unwrap();
    assert_eq!(base.checksum, fused_m.checksum);
    let printed = locus::srcir::print_program(&fused);
    assert_eq!(printed.matches("for (").count(), 1, "one loop:\n{printed}");
    // Fusion reuses A[i] while its line is still in L1: more L1 hits,
    // fewer cycles (cold DRAM misses tie, so compare hits).
    assert!(
        fused_m.cache.hits[0] > base.cache.hits[0],
        "L1 hits: fused {} vs unfused {}",
        fused_m.cache.hits[0],
        base.cache.hits[0]
    );
    assert!(fused_m.cycles < base.cycles);
}

#[test]
fn fusion_or_distribution_is_searchable() {
    // Choose between the fused and distributed forms empirically.
    let source = locus::srcir::parse_program(
        r#"
        double A[256];
        double B[256];
        void kernel() {
            #pragma @Locus block=streams
            {
                for (int i = 0; i < 256; i++)
                    A[i] = A[i] * 0.5;
                for (int j = 0; j < 256; j++)
                    B[j] = B[j] + A[j];
            }
        }
        "#,
    )
    .unwrap();
    let locus_program = locus::lang::parse(
        r#"CodeReg streams {
            {
                Pips.Fusion(loop="0.0");
            } OR {
                None;
            }
        }"#,
    )
    .unwrap();
    let system = LocusSystem::new(machine(1));
    let mut search = locus::search::ExhaustiveSearch::default();
    let (result, _) = system
        .run(TuneRequest::new(&source, &locus_program, 4), &mut search)
        .unwrap();
    assert_eq!(result.outcome.evaluations, 2);
    assert!(result.best.is_some());
}
