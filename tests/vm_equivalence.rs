//! Differential suite for the two execution engines: the tree
//! interpreter (the reference oracle) and the register VM (the
//! production path) must return *bit-identical* [`Measurement`]s —
//! cycles compared by f64 bit pattern, not approximately — and
//! identical [`RuntimeError`]s, across the corpus, transformed
//! variants, and every error path.
//! Batched evaluation ([`CompiledVariant`]) must match per-variant
//! [`Machine::run`] point for point, and its compile memo must reuse
//! code exactly when only runtime fields of the configuration change.
//!
//! Like `transform_semantics.rs`, the randomized sweeps are hand-rolled
//! over the in-tree [`SplitMix64`] generator (offline-only build, no
//! property-testing framework); every trial is a pure function of the
//! fixed seed, and a failing program is printed next to the trial
//! number.

use locus::corpus::{self, KripkeKernel, Stencil};
use locus::machine::{
    CompiledVariant, ExecEngine, Machine, MachineConfig, Measurement, RuntimeError,
};
use locus::space::SplitMix64;
use locus::srcir::ast::{OmpSchedule, OmpScheduleKind, Program};
use locus::srcir::index::HierIndex;
use locus::srcir::region::{extract_region, find_regions, replace_region};
use locus::trace::Tracer;
use locus::transform;
use locus::transform::selector::LoopSel;

type Outcome = Result<Measurement, RuntimeError>;

/// Runs `program` on `config` under the tree oracle and the register
/// VM.
fn run_both(config: &MachineConfig, program: &Program) -> (Outcome, Outcome) {
    let run = |engine| Machine::new(config.clone().with_engine(engine)).run(program, "kernel");
    (run(ExecEngine::Tree), run(ExecEngine::RegisterVm))
}

/// Runs `program` on both engines under `config` and asserts the
/// results are bit-identical: either the same [`Measurement`] field for
/// field (floats by bit pattern) or the same [`RuntimeError`].
fn assert_engines_agree(label: &str, config: &MachineConfig, program: &Program) {
    match run_both(config, program) {
        (Ok(t), Ok(v)) => assert_measurements_identical(label, program, &t, &v),
        (tree, vm) => assert_eq!(
            tree,
            vm,
            "{label}: tree and register VM disagree on outcome\n{}",
            locus::srcir::print_program(program)
        ),
    }
}

fn assert_measurements_identical(label: &str, program: &Program, t: &Measurement, v: &Measurement) {
    let src = || locus::srcir::print_program(program);
    assert_eq!(
        t.cycles.to_bits(),
        v.cycles.to_bits(),
        "{label}: cycles differ (tree {} vs vm {})\n{}",
        t.cycles,
        v.cycles,
        src()
    );
    assert_eq!(
        t.time_ms.to_bits(),
        v.time_ms.to_bits(),
        "{label}: time_ms differ\n{}",
        src()
    );
    assert_eq!(t.ops, v.ops, "{label}: ops differ\n{}", src());
    assert_eq!(t.flops, v.flops, "{label}: flops differ\n{}", src());
    assert_eq!(t.cache, v.cache, "{label}: cache stats differ\n{}", src());
    assert_eq!(
        t.checksum,
        v.checksum,
        "{label}: checksums differ\n{}",
        src()
    );
}

fn parse(src: &str) -> Program {
    locus::srcir::parse_program(src).expect("test program parses")
}

/// DGEMM, the six stencils and a spread of Kripke kernels/layouts, on
/// the default parallel machine (10 cores, auto-vectorizer on) — the
/// exact configuration the tuner evaluates variants with.
#[test]
fn corpus_kernels_are_bit_identical() {
    let config = MachineConfig::scaled_small();
    assert_engines_agree("dgemm", &config, &corpus::dgemm_program(12));
    for s in Stencil::ALL {
        assert_engines_agree(
            &format!("{s:?}"),
            &config,
            &corpus::stencil_program(s, 12, 3),
        );
    }
    for kernel in KripkeKernel::ALL {
        assert_engines_agree(
            &format!("kripke-skeleton-{kernel:?}"),
            &config,
            &corpus::kripke_skeleton(kernel),
        );
    }
    for (kernel, layout) in [
        (KripkeKernel::LTimes, "DGZ"),
        (KripkeKernel::Scattering, "ZGD"),
        (KripkeKernel::Sweep, "GZD"),
    ] {
        assert_engines_agree(
            &format!("kripke-opt-{kernel:?}-{layout}"),
            &config,
            &corpus::kripke_hand_optimized(kernel, layout),
        );
    }
    // The tiny-cache preset exercises a different miss structure.
    assert_engines_agree(
        "heat2d-tiny",
        &MachineConfig::scaled_tiny(),
        &corpus::stencil_program(Stencil::Heat2d, 16, 3),
    );
}

/// The whole corpus registry — dgemm, the stencils and every PolyBench
/// kernel (triangular, imperfect, data-dependent bounds, guarded) —
/// must be bit-identical across the engines on *every* machine profile:
/// the profiles change cache geometry, core count and vectorization
/// policy, and none of that may open a gap between tree and VM.
#[test]
fn corpus_registry_is_bit_identical_on_every_profile() {
    for profile in locus::machine::all_profiles() {
        for entry in corpus::all_programs() {
            assert_engines_agree(
                &format!("{}/{}", entry.name, profile.name),
                &profile.config,
                &entry.program,
            );
        }
    }
}

/// The synthetic Table-I corpus: one generated nest per suite covers
/// perfect/imperfect nests and affine/non-affine accesses.
#[test]
fn generated_corpus_is_bit_identical() {
    let config = MachineConfig::scaled_small();
    for nest in corpus::generate_corpus(0xD1FF, 1) {
        assert_engines_agree(&nest.name, &config, &nest.program);
    }
}

/// Seeded sweep of legality-checked transformation sequences (the
/// variants the search actually generates): tiling, interchange,
/// unrolling, unroll-and-jam, distribution/fusion, LICM, scalar
/// replacement, plus `omp parallel for` and `vector always` pragma
/// insertion. Engines must agree on every variant, applied or not.
#[test]
fn transformed_variants_are_bit_identical() {
    let config = MachineConfig::scaled_small().with_cores(4);
    let mut kernels = vec![("dgemm".to_string(), corpus::dgemm_program(10))];
    for s in [Stencil::Jacobi1d, Stencil::Heat2d, Stencil::Seidel2d] {
        kernels.push((format!("{s:?}"), corpus::stencil_program(s, 10, 3)));
    }
    // The PolyBench registry entries put triangular and imperfect nests
    // (and data-dependent bounds) under the same randomized transform
    // sweep: most restructurings are refused there, and the ones that
    // apply must still agree bit-for-bit.
    for entry in corpus::all_programs() {
        if matches!(entry.family, corpus::Family::PolyBench) {
            kernels.push((entry.name.to_string(), entry.program.clone()));
        }
    }
    let mut rng = SplitMix64::new(0xbead);
    for trial in 0..60 {
        let (label, program) = &kernels[rng.below_usize(kernels.len())];
        let mut variant = program.clone();
        let regions = find_regions(&variant);
        let mut stmt = extract_region(&variant, &regions[0]).expect("region").stmt;
        for _ in 0..(1 + rng.below_usize(3)) {
            let _ = match rng.below(9) {
                0 => transform::interchange::interchange(&mut stmt, &[1, 0], true).is_ok(),
                1 => {
                    let a = rng.range_i64(1, 11);
                    let b = rng.range_i64(1, 11);
                    transform::tiling::tile(&mut stmt, &HierIndex::root(), &[a, b], true).is_ok()
                }
                2 => {
                    let f = rng.range_i64(2, 6) as u64;
                    let inner = locus::analysis::loops::loop_nest_info(&stmt).inner_loops;
                    transform::unroll::unroll_all(&mut stmt, &inner, f).is_ok()
                }
                3 => {
                    let f = rng.range_i64(2, 4) as u64;
                    transform::unroll_jam::unroll_and_jam(&mut stmt, &HierIndex::root(), f, true)
                        .is_ok()
                }
                4 => {
                    let inner = locus::analysis::loops::loop_nest_info(&stmt).inner_loops;
                    transform::distribution::distribute_all(&mut stmt, &inner, true).is_ok()
                }
                5 => transform::licm::licm(&mut stmt).is_ok(),
                6 => transform::scalar_repl::scalar_replacement(&mut stmt).is_ok(),
                7 => {
                    let schedule = if rng.chance(0.5) {
                        Some(OmpSchedule {
                            kind: if rng.chance(0.5) {
                                OmpScheduleKind::Static
                            } else {
                                OmpScheduleKind::Dynamic
                            },
                            chunk: if rng.chance(0.5) {
                                Some(rng.range_i64(1, 9) as u32)
                            } else {
                                None
                            },
                        })
                    } else {
                        None
                    };
                    transform::pragmas::insert_omp_for(
                        &mut stmt,
                        &LoopSel::Outermost,
                        schedule,
                        true,
                    )
                    .is_ok()
                }
                _ => {
                    transform::pragmas::insert_vector_always(&mut stmt, &LoopSel::Innermost).is_ok()
                }
            };
        }
        replace_region(&mut variant, &regions[0], stmt);
        assert_engines_agree(&format!("{label} trial {trial}"), &config, &variant);
    }
}

/// Hand-written programs exercising the whole performance-model surface
/// in one place: omp schedules (including nested pragmas, which
/// serialize), reductions, vectorization pragmas, while loops, builtins,
/// casts, compound assignment, short-circuit logic, local arrays and an
/// early `return` inside a parallel loop.
#[test]
fn language_and_model_surface_is_bit_identical() {
    let sources: &[(&str, &str)] = &[
        (
            "omp-schedules",
            r#"double A[64][16];
            void kernel() {
                #pragma omp parallel for
                for (int i = 0; i < 64; i++)
                    for (int j = 0; j < 16; j++)
                        A[i][j] = A[i][j] + 1.0;
                #pragma omp parallel for schedule(static, 4)
                for (int i = 0; i < 64; i++)
                    A[i][0] = A[i][0] * 2.0;
                #pragma omp parallel for schedule(dynamic, 8)
                for (int i = 0; i < 64; i++)
                    A[i][1] = A[i][1] - 0.5;
            }"#,
        ),
        (
            "omp-nested-serializes",
            r#"double A[32][32];
            void kernel() {
                #pragma omp parallel for
                for (int i = 0; i < 32; i++) {
                    #pragma omp parallel for
                    for (int j = 0; j < 32; j++)
                        A[i][j] = A[i][j] * 2.0;
                }
            }"#,
        ),
        (
            "omp-reduction",
            r#"double A[128];
            double S[1];
            void kernel() {
                double s = 0.0;
                #pragma omp parallel for reduction(+:s)
                for (int i = 0; i < 128; i++)
                    s += A[i];
                S[0] = s;
            }"#,
        ),
        (
            "vector-pragmas",
            r#"double A[256];
            double B[256];
            void kernel() {
                #pragma vector always
                for (int i = 0; i < 256; i++)
                    A[i] = A[i] * 0.5 + B[i];
                #pragma ivdep
                for (int i = 1; i < 256; i++)
                    B[i] = B[i - 1] + 1.0;
            }"#,
        ),
        (
            "while-and-builtins",
            r#"double A[64];
            void kernel() {
                int i = 0;
                while (i < 64) {
                    A[i] = sqrt(fabs(A[i])) + min(i, 10) + max(2.0, floor(A[i]))
                         + ceil(A[i] * 0.3) + abs(0 - i);
                    i = i + 1;
                }
            }"#,
        ),
        (
            "casts-compound-logic",
            r#"int A[64];
            double B[64];
            void kernel() {
                for (int i = 0; i < 64; i++) {
                    int k = (int)(B[i] * 3.0);
                    double x = (double)A[i];
                    A[i] += k % 7 + 1;
                    A[i] -= 2;
                    A[i] *= 2;
                    B[i] /= 1.5;
                    if (i > 3 && A[i] > 0 || !(i % 2))
                        B[i] = x - 1.0;
                }
            }"#,
        ),
        (
            "local-arrays-and-shadowing",
            r#"double G[32];
            void kernel() {
                double T[32];
                for (int i = 0; i < 32; i++)
                    T[i] = G[i] * 2.0;
                int n = 8;
                double T2[8];
                for (int i = 0; i < n; i++)
                    T2[i] = T[i] + T[i + 1];
                for (int i = 0; i < n; i++)
                    G[i] = T2[i];
            }"#,
        ),
        (
            "early-return-in-parallel-loop",
            r#"double A[64];
            void kernel() {
                #pragma omp parallel for
                for (int i = 0; i < 64; i++) {
                    A[i] = A[i] + 1.0;
                    if (i == 40)
                        return;
                }
            }"#,
        ),
        (
            "global-scalar-init",
            r#"int N = 16;
            double SCALE = 0.5;
            double A[16];
            void kernel() {
                for (int i = 0; i < N; i++)
                    A[i] = A[i] * SCALE;
            }"#,
        ),
    ];
    for cores in [1usize, 4] {
        let config = MachineConfig::scaled_small().with_cores(cores);
        for (label, src) in sources {
            assert_engines_agree(&format!("{label}/cores={cores}"), &config, &parse(src));
        }
    }
}

/// Every runtime-error path: both engines must return the *same* error
/// (variant and payload), including errors that only manifest after
/// partial execution.
#[test]
fn runtime_errors_are_identical() {
    let config = MachineConfig::scaled_small();
    let cases: &[(&str, &str)] = &[
        (
            "oob-read",
            r#"double A[8];
            void kernel() {
                for (int i = 0; i < 16; i++)
                    A[0] = A[i];
            }"#,
        ),
        (
            "oob-write",
            r#"double A[8];
            void kernel() {
                for (int i = 0; i < 16; i++)
                    A[i] = 1.0;
            }"#,
        ),
        (
            "oob-negative",
            r#"double A[8];
            void kernel() { A[0 - 1] = 1.0; }"#,
        ),
        (
            "div-by-zero",
            r#"int A[4];
            void kernel() {
                int z = 0;
                A[0] = 1 / z;
            }"#,
        ),
        (
            "mod-by-zero",
            r#"int A[4];
            void kernel() {
                int z = 0;
                A[0] = 1 % z;
            }"#,
        ),
        (
            "compound-div-by-zero",
            r#"int A[4];
            void kernel() {
                int z = 0;
                A[0] /= z;
            }"#,
        ),
        (
            "undefined-variable",
            r#"double A[4];
            void kernel() { A[0] = nope; }"#,
        ),
        (
            "undefined-function",
            r#"double A[4];
            void kernel() { A[0] = frobnicate(1.0); }"#,
        ),
        (
            "wrong-arity-builtin",
            r#"double A[4];
            void kernel() { A[0] = sqrt(1.0, 2.0); }"#,
        ),
        (
            "wrong-rank",
            r#"double A[4][4];
            void kernel() { A[0] = 1.0; }"#,
        ),
        (
            "undeclared-array",
            r#"double A[4];
            void kernel() { B[0] = 1.0; }"#,
        ),
        (
            "bad-local-dim",
            r#"double A[4];
            void kernel() {
                int n = 0;
                double T[n];
                A[0] = 1.0;
            }"#,
        ),
        (
            "pointer-unsupported",
            r#"double A[4];
            void kernel() {
                int x = 1;
                A[0] = *x;
            }"#,
        ),
        (
            // Element count exceeds the allocation cap (2^28) without
            // overflowing the multiply.
            "alloc-too-large",
            r#"double A[4];
            void kernel() {
                int n = 70000;
                double T[n][n][n];
                A[0] = 1.0;
            }"#,
        ),
        (
            // Element count overflows usize: the size multiply itself
            // must be checked, not just the final bound.
            "alloc-size-overflow",
            r#"double A[4];
            void kernel() {
                int n = 2000000000;
                double T[n][n][n];
                A[0] = 1.0;
            }"#,
        ),
        (
            "error-inside-omp-loop",
            r#"double A[8];
            void kernel() {
                #pragma omp parallel for
                for (int i = 0; i < 8; i++)
                    A[i] = A[i] / (4 - i) / 0.0 + 1 / (4 - i);
            }"#,
        ),
    ];
    for (label, src) in cases {
        let (tree, vm) = run_both(&config, &parse(src));
        assert!(tree.is_err(), "{label}: tree unexpectedly succeeded");
        assert_eq!(
            tree, vm,
            "{label}: tree and register VM disagree on the error"
        );
    }

    // Fuel exhaustion: same budget, same tick sequence, same error.
    let mut tiny = MachineConfig::scaled_small();
    tiny.max_ops = 1_000;
    let runaway = parse(
        r#"double A[4];
        void kernel() {
            for (int i = 0; i < 100000; i++)
                A[0] = A[0] + 1.0;
        }"#,
    );
    let (tree, vm) = run_both(&tiny, &runaway);
    assert_eq!(tree, Err(RuntimeError::FuelExhausted));
    assert_eq!(tree, vm, "fuel exhaustion differs on the register VM");

    // A missing entry point and a bad entry signature are pre-execution
    // errors; they must match too.
    let no_entry = parse("double A[4];\nvoid other() { A[0] = 1.0; }");
    let (tree, vm) = run_both(&MachineConfig::scaled_small(), &no_entry);
    assert!(tree.is_err());
    assert_eq!(tree, vm, "missing entry differs on the register VM");
}

/// The one construct where static slot resolution is insufficient: a
/// *bare* declaration as an `if` branch binds a name into the enclosing
/// scope only when the branch executes. The VM handles it with guarded
/// slot chains; both engines must agree on every dynamic outcome —
/// bound, unbound (error), shadowing an outer binding, and re-entry of
/// a loop iteration that re-unbinds the name.
#[test]
fn conditional_bare_declarations_match_dynamic_scoping() {
    let config = MachineConfig::scaled_small().with_cores(1);
    let cases: &[(&str, &str)] = &[
        (
            "bound-when-branch-runs",
            r#"double A[4];
            void kernel() {
                if (1) int x = 7;
                A[0] = x;
            }"#,
        ),
        (
            "unbound-when-branch-skipped",
            r#"double A[4];
            void kernel() {
                if (0) int x = 7;
                A[0] = x;
            }"#,
        ),
        (
            "shadows-outer-binding",
            r#"double A[4];
            void kernel() {
                int x = 1;
                if (1) int x = 9;
                A[0] = x;
            }"#,
        ),
        (
            "falls-back-to-outer-binding",
            r#"double A[4];
            void kernel() {
                int x = 1;
                if (0) int x = 9;
                A[0] = x;
            }"#,
        ),
        (
            "loop-reentry-unbinds",
            r#"double A[8];
            void kernel() {
                for (int i = 0; i < 8; i++) {
                    if (i == 0) int t = 5;
                    if (i < 4)
                        A[i] = 1.0;
                    A[i] = A[i] + t;
                }
            }"#,
        ),
        (
            "nested-guards-innermost-wins",
            r#"double A[4];
            void kernel() {
                int x = 1;
                if (1) {
                    if (1) int x = 2;
                    if (1) int x = 3;
                    A[0] = x;
                }
                A[1] = x;
            }"#,
        ),
        (
            "else-branch-bare-decl",
            r#"double A[4];
            void kernel() {
                if (0) int x = 1; else int x = 2;
                A[0] = x;
            }"#,
        ),
        (
            "write-through-chain",
            r#"double A[4];
            void kernel() {
                if (1) int x = 0;
                x = 3;
                x += 2;
                A[0] = x;
            }"#,
        ),
    ];
    for (label, src) in cases {
        assert_engines_agree(label, &config, &parse(src));
    }
}

/// An unusable cache geometry is an [`RuntimeError::InvalidConfig`] on
/// both engines — and takes precedence over any program error.
#[test]
fn invalid_cache_geometry_matches() {
    let mut config = MachineConfig::scaled_small();
    config.cache.levels[0].capacity = 3000; // not a power-of-two set count
    let program = parse("double A[4];\nvoid kernel() { A[0] = undefined_name; }");
    let (tree, vm) = run_both(&config, &program);
    assert!(
        matches!(tree, Err(RuntimeError::InvalidConfig(_))),
        "expected InvalidConfig, got {tree:?}"
    );
    assert_eq!(tree, vm, "invalid-config error differs on the register VM");
}

/// Batched evaluation must be indistinguishable from per-variant
/// evaluation: for every corpus-registry program, one
/// [`CompiledVariant`] swept across every machine profile (compiling
/// once per distinct compile key) returns exactly what a fresh
/// [`Machine::run`] returns at each point — measurements bit for bit,
/// errors included. This is the contract that lets tuning drivers
/// route memo misses through the batched path. The memo itself must
/// compile once per compile key: runtime-only fields share code,
/// compile-time fields do not.
#[test]
fn batched_evaluation_matches_sequential() {
    let profiles = locus::machine::all_profiles();
    for entry in corpus::all_programs() {
        let variant = CompiledVariant::new(entry.program.clone(), "kernel");
        for profile in &profiles {
            for engine in [ExecEngine::Tree, ExecEngine::RegisterVm] {
                let config = profile.config.clone().with_engine(engine);
                let batched = variant.run(&config);
                let sequential = Machine::new(config).run(&entry.program, "kernel");
                match (&batched, &sequential) {
                    (Ok(b), Ok(s)) => assert_measurements_identical(
                        &format!("batched {}/{}/{engine:?}", entry.name, profile.name),
                        &entry.program,
                        s,
                        b,
                    ),
                    _ => assert_eq!(
                        batched, sequential,
                        "batched vs sequential outcome differs for {}/{}/{engine:?}",
                        entry.name, profile.name
                    ),
                }
            }
        }
    }

    // One variant swept with a live tracer. The configurations first
    // differ only in runtime fields — the fuel limit (exhausted on a
    // memo hit, an error point that must round-trip identically) and
    // the cache geometry — so they share one compile. Flipping the
    // parallel lowering (`cores > 1`) or a cost constant changes the
    // compile key and must compile again.
    let program = corpus::dgemm_program(12);
    let variant = CompiledVariant::new(program.clone(), "kernel");
    let tracer = Tracer::enabled();
    let compiles = || {
        tracer
            .events()
            .iter()
            .filter(|e| e.cat == "machine" && e.name == "compile-regvm")
            .count()
    };
    let sweep = |cfg: &MachineConfig| {
        let got = variant.run_traced(cfg, &tracer);
        let want = Machine::new(cfg.clone()).run(&program, "kernel");
        match (&got, &want) {
            (Ok(b), Ok(s)) => assert_measurements_identical("memo sweep", &program, s, b),
            _ => assert_eq!(got, want, "memo sweep outcome differs"),
        }
        got
    };
    let small = MachineConfig::scaled_small();
    let mut tiny_fuel = small.clone();
    tiny_fuel.max_ops = 1_000;
    assert!(sweep(&small).is_ok());
    assert_eq!(sweep(&tiny_fuel), Err(RuntimeError::FuelExhausted));
    assert!(sweep(&MachineConfig::scaled_tiny()).is_ok());
    assert_eq!(compiles(), 1, "runtime-only fields must hit the memo");

    assert!(sweep(&small.clone().with_cores(1)).is_ok());
    assert_eq!(compiles(), 2, "cores > 1 flips the parallel lowering");
    let mut dearer_add = small.clone();
    dearer_add.cost.add += 1.0;
    assert!(sweep(&dearer_add).is_ok());
    assert_eq!(compiles(), 3, "cost constants are baked into the code");
    assert!(sweep(&dearer_add).is_ok());
    assert!(sweep(&small).is_ok());
    assert_eq!(compiles(), 3, "every compile key is memoized");
}
