//! Robustness: the front-ends must never panic on malformed input, the
//! interpreters must fail closed (errors, not UB), and less-traveled
//! constructs (float search values, log-scaled ranges, nested parallel
//! pragmas) behave sensibly.
//!
//! Fuzz loops are hand-rolled over the in-tree [`SplitMix64`] generator
//! (offline-only build; see README "Testing").

use locus::space::SplitMix64;

// ---- parsers never panic ----------------------------------------------------

/// A random string over a broad printable alphabet (plus newlines), the
/// deterministic stand-in for arbitrary fuzz input.
fn random_garbage(rng: &mut SplitMix64, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcxyzXYZ0123456789 \t\n(){}[];,.+-*/=<>!&|%#@\"'_\\~^?:$";
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.below_usize(ALPHABET.len())] as char)
        .collect()
}

fn random_soup(rng: &mut SplitMix64, lexemes: &[&str], max_len: usize) -> String {
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| lexemes[rng.below_usize(lexemes.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Arbitrary bytes: the mini-C parser returns Ok or Err, never panics.
#[test]
fn minic_parser_is_panic_free() {
    let mut rng = SplitMix64::new(0xf022);
    for _ in 0..256 {
        let _ = locus::srcir::parse_program(&random_garbage(&mut rng, 120));
    }
}

/// Arbitrary token soup assembled from the language's own lexemes.
#[test]
fn minic_parser_survives_token_soup() {
    const LEXEMES: [&str; 24] = [
        "for",
        "if",
        "else",
        "while",
        "int",
        "double",
        "return",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        "+",
        "*",
        "=",
        "==",
        "<",
        "x",
        "42",
        "1.5",
        "#pragma @Locus loop=r\n",
    ];
    let mut rng = SplitMix64::new(0x50a1);
    for _ in 0..256 {
        let _ = locus::srcir::parse_program(&random_soup(&mut rng, &LEXEMES, 60));
    }
}

/// The Locus parser is equally panic-free.
#[test]
fn locus_parser_is_panic_free() {
    let mut rng = SplitMix64::new(0xf0cb);
    for _ in 0..256 {
        let _ = locus::lang::parse(&random_garbage(&mut rng, 120));
    }
}

#[test]
fn locus_parser_survives_token_soup() {
    const LEXEMES: [&str; 27] = [
        "CodeReg",
        "OptSeq",
        "Search",
        "OR",
        "if",
        "elif",
        "else",
        "def",
        "poweroftwo",
        "integer",
        "enum",
        "permutation",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        "..",
        ".",
        "=",
        "*",
        "x",
        "7",
        "\"s\"",
    ];
    let mut rng = SplitMix64::new(0x50a2);
    for _ in 0..256 {
        let _ = locus::lang::parse(&random_soup(&mut rng, &LEXEMES, 60));
    }
}

/// Hierarchical indices round-trip through their string form.
#[test]
fn hier_index_round_trips() {
    let mut rng = SplitMix64::new(0x41d3);
    for _ in 0..256 {
        let components: Vec<usize> = (0..1 + rng.below_usize(5))
            .map(|_| rng.below_usize(30))
            .collect();
        let idx = locus::srcir::HierIndex::new(components.clone());
        let parsed: locus::srcir::HierIndex = idx.to_string().parse().unwrap();
        assert_eq!(idx, parsed);
    }
}

/// Region hashing is stable across print/parse round trips.
#[test]
fn region_hash_is_print_stable() {
    for n in 1usize..40 {
        let src = format!(
            "double A[64];\nvoid kernel() {{\n#pragma @Locus loop=r\nfor (int i = 0; i < {n}; i++) A[i] = 1.0;\n}}"
        );
        let p1 = locus::srcir::parse_program(&src).unwrap();
        let p2 = locus::srcir::parse_program(&locus::srcir::print_program(&p1)).unwrap();
        let h = |p: &locus::srcir::ast::Program| {
            let regions = locus::srcir::region::find_regions(p);
            let stmt = locus::srcir::region::extract_region(p, &regions[0])
                .unwrap()
                .stmt;
            locus::srcir::hash::hash_region(&stmt)
        };
        assert_eq!(h(&p1), h(&p2), "n = {n}");
    }
}

// ---- less-traveled constructs -----------------------------------------------

#[test]
fn float_and_log_constructs_flow_through_the_space() {
    let program = locus::lang::parse(
        r#"CodeReg r {
            alpha = float(1..4);
            beta = logfloat(1..100);
            gamma = loginteger(1..1000);
            A.Use(a=alpha, b=beta, c=gamma);
        }"#,
    )
    .unwrap();
    let info = locus::lang::extract_space(&program).unwrap();
    assert_eq!(info.space.len(), 3);
    use locus::space::ParamKind;
    assert!(matches!(
        info.space.param("alpha").unwrap().kind,
        ParamKind::Float { .. }
    ));
    assert!(matches!(
        info.space.param("beta").unwrap().kind,
        ParamKind::LogFloat { .. }
    ));
    assert!(matches!(
        info.space.param("gamma").unwrap().kind,
        ParamKind::LogInteger { .. }
    ));

    // Random points decode through the interpreter.
    let mut rng = SplitMix64::new(1);
    struct Capture(Vec<String>);
    impl locus::lang::TransformHost for Capture {
        fn call(
            &mut self,
            _m: &str,
            _f: &str,
            args: &[(Option<String>, locus::lang::Value)],
        ) -> Result<locus::lang::Value, locus::lang::HostError> {
            self.0.extend(args.iter().map(|(_, v)| v.to_string()));
            Ok(locus::lang::Value::None)
        }
    }
    for _ in 0..20 {
        let point = info.space.random_point(&mut rng);
        let mut host = Capture(Vec::new());
        let mut interp = locus::lang::Interp::new(&program, &mut host, &point, &info.ids);
        interp.run_codereg("r").unwrap();
        assert_eq!(host.0.len(), 3);
    }
}

#[test]
fn nested_parallel_pragmas_are_serialized() {
    // Only the outer `omp parallel for` parallelizes; the inner pragma is
    // ignored (common OpenMP runtime default), so timing equals the
    // outer-only version.
    let nested = locus::srcir::parse_program(
        r#"double A[64][64];
        void kernel() {
            #pragma omp parallel for
            for (int i = 0; i < 64; i++) {
                #pragma omp parallel for
                for (int j = 0; j < 64; j++)
                    A[i][j] = A[i][j] * 2.0;
            }
        }"#,
    )
    .unwrap();
    let outer_only = locus::srcir::parse_program(
        r#"double A[64][64];
        void kernel() {
            #pragma omp parallel for
            for (int i = 0; i < 64; i++) {
                for (int j = 0; j < 64; j++)
                    A[i][j] = A[i][j] * 2.0;
            }
        }"#,
    )
    .unwrap();
    let machine =
        locus::machine::Machine::new(locus::machine::MachineConfig::scaled_small().with_cores(4));
    let a = machine.run(&nested, "kernel").unwrap();
    let b = machine.run(&outer_only, "kernel").unwrap();
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn scaled_tiny_machine_is_consistent() {
    let program = locus::corpus::stencil_program(locus::corpus::Stencil::Heat1d, 32, 4);
    let small = locus::machine::Machine::new(locus::machine::MachineConfig::scaled_small());
    let tiny = locus::machine::Machine::new(locus::machine::MachineConfig::scaled_tiny());
    let a = small.run(&program, "kernel").unwrap();
    let b = tiny.run(&program, "kernel").unwrap();
    assert_eq!(a.checksum, b.checksum, "cache size never changes results");
    assert!(b.cycles >= a.cycles, "smaller caches cannot be faster");
}

#[test]
fn runtime_errors_fail_closed_through_the_system() {
    // A variant that indexes out of bounds is a failed variant, not a
    // crash: the search continues and reports the valid ones.
    let source = locus::srcir::parse_program(
        r#"double A[32];
        void kernel() {
            #pragma @Locus loop=r
            for (int i = 0; i < 32; i++)
                A[i] = 1.0;
        }"#,
    )
    .unwrap();
    // Unrolling by 7 generates a remainder loop; forcing an interchange
    // on a depth-1 nest errors. Both failure kinds must surface cleanly.
    let locus_program = locus::lang::parse(
        r#"CodeReg r {
            {
                RoseLocus.Interchange(order=[1, 0]);
            } OR {
                RoseLocus.Unroll(loop="0", factor=7);
            }
        }"#,
    )
    .unwrap();
    let system = locus::system::LocusSystem::new(locus::machine::Machine::new(
        locus::machine::MachineConfig::scaled_small(),
    ));
    let mut search = locus::search::ExhaustiveSearch::default();
    let request = locus::system::TuneRequest::new(&source, &locus_program, 4);
    let (result, _) = system.run(request, &mut search).unwrap();
    // Alternative 0 fails (interchange on depth-1), alternative 1 works.
    assert_eq!(result.outcome.evaluations, 2);
    assert!(result.best.is_some());
}
