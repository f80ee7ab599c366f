//! Ablation studies for the design choices called out in `DESIGN.md`:
//!
//! 1. the Sec. IV-C Locus-program optimizer (space shrink from query
//!    substitution + DCE);
//! 2. dependent-range constraints (invalid-point rejection rate);
//! 3. search-module quality (bandit vs random vs annealing vs
//!    stratified exhaustive at equal budget);
//! 4. cache-simulator fidelity (the non-monotone tile-size cost
//!    surface that makes empirical search worthwhile).
//!
//! Usage: `cargo run --release -p locus-bench --bin ablations`

use locus_bench::report::render_table;
use locus_bench::{bench_machine, table1::FIG13_PROGRAM};
use locus_core::{LocusSystem, TuneRequest};
use locus_corpus::{dgemm_program, generate_corpus};
use locus_search::{AnnealTuner, BanditTuner, ExhaustiveSearch, RandomSearch, SearchModule};
use locus_srcir::index::HierIndex;

fn main() {
    ablation_program_optimizer();
    ablation_constraints();
    ablation_search_modules();
    ablation_cost_surface();
}

/// 1. Space sizes with and without the Sec. IV-C optimizer, over nests
///    of different depths (the paper's depth-1 example).
fn ablation_program_optimizer() {
    let locus = locus_lang::parse(FIG13_PROGRAM).expect("Fig. 13 parses");
    let mut rows = Vec::new();
    for nest in generate_corpus(21, 1) {
        let mut on = LocusSystem::new(bench_machine(1));
        on.optimize_programs = true;
        let mut off = on.clone();
        off.optimize_programs = false;
        let with = on
            .prepare(&nest.program, &locus)
            .map(|p| p.space.size())
            .unwrap_or(0);
        let without = off
            .prepare(&nest.program, &locus)
            .map(|p| p.space.size())
            .unwrap_or(0);
        if rows.len() < 6 {
            rows.push(vec![
                nest.name.clone(),
                nest.depth.to_string(),
                nest.affine.to_string(),
                without.to_string(),
                with.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            "Ablation 1: Sec. IV-C program optimizer (space size per nest)",
            &[
                "nest",
                "depth",
                "affine",
                "space (opt off)",
                "space (opt on)"
            ],
            &rows
        )
    );
}

/// 2. How many proposed points the dependent-range revalidation rejects
///    in the two-level-tiling space of Fig. 7.
fn ablation_constraints() {
    let source = dgemm_program(32);
    let locus = locus_lang::parse(
        r#"CodeReg matmul {
            tileI = poweroftwo(2..32);
            tileI_2 = poweroftwo(2..tileI);
            Pips.Tiling(loop="0", factor=[tileI, tileI_2, 8]);
        }"#,
    )
    .expect("program parses");
    let system = LocusSystem::new(bench_machine(1));
    let mut search = ExhaustiveSearch::default();
    let (result, _) = system
        .run(TuneRequest::new(&source, &locus, 64), &mut search)
        .expect("tuning runs");
    println!("Ablation 2: dependent-range constraints (Fig. 7 style two-level tiling)");
    println!(
        "  evaluated {} valid variants, rejected {} invalid points (tileI_2 > tileI)\n",
        result.outcome.evaluations, result.outcome.invalid
    );
}

/// 3. Search quality at equal budget on the DGEMM space.
fn ablation_search_modules() {
    let source = dgemm_program(48);
    let locus = locus_bench::fig6::fig7_locus_program(64);
    let budget = 25;
    let system = LocusSystem::new(bench_machine(4));
    let mut rows = Vec::new();
    let mut run = |name: &str, search: &mut dyn SearchModule| {
        let (result, _) = system
            .run(TuneRequest::new(&source, &locus, budget), search)
            .expect("tuning runs");
        rows.push(vec![
            name.to_string(),
            format!("{:.2}x", result.speedup()),
            result.outcome.evaluations.to_string(),
            result.outcome.duplicates.to_string(),
        ]);
    };
    run("bandit (OpenTuner-like)", &mut BanditTuner::new(5));
    run("annealing (Hyperopt-like)", &mut AnnealTuner::new(5));
    run("random", &mut RandomSearch::new(5));
    run("stratified exhaustive", &mut ExhaustiveSearch::default());
    println!(
        "{}",
        render_table(
            &format!("Ablation 3: search modules, DGEMM 48x48, budget {budget}"),
            &["module", "speedup", "evals", "dups skipped"],
            &rows
        )
    );
}

/// 4. The tile-size cost surface on the simulated machine: non-monotone,
///    with an interior optimum — the property that makes search pay off.
fn ablation_cost_surface() {
    let machine = bench_machine(1);
    let mut rows = Vec::new();
    for tile in [2i64, 4, 8, 16, 32, 48] {
        let source = dgemm_program(48);
        let mut stmt = {
            let regions = locus_srcir::region::find_regions(&source);
            locus_srcir::region::extract_region(&source, &regions[0])
                .expect("region exists")
                .stmt
        };
        locus_transform::interchange::interchange(&mut stmt, &[0, 2, 1], true)
            .expect("legal interchange");
        locus_transform::tiling::tile(&mut stmt, &HierIndex::root(), &[tile, tile, tile], true)
            .expect("legal tiling");
        let mut program = source.clone();
        let regions = locus_srcir::region::find_regions(&program);
        locus_srcir::region::replace_region(&mut program, &regions[0], stmt);
        let m = machine.run(&program, "kernel").expect("variant runs");
        rows.push(vec![
            tile.to_string(),
            format!("{:.0}", m.cycles),
            format!("{:.1}%", 100.0 * m.cache.l1_miss_ratio()),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Ablation 4: DGEMM 48x48 tile-size cost surface (i,k,j + square tiles)",
            &["tile", "cycles", "L1 miss"],
            &rows
        )
    );
}
