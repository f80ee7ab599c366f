//! Bench of the Locus pipeline stages and the ablation knobs: parsing,
//! query substitution + optimization, space extraction, and the Table I
//! per-nest tuning step — with the Sec. IV-C optimizer on and off.
//! Runs under the in-tree [`locus_bench::timer`] harness.

use std::hint::black_box;

use locus_bench::bench_machine;
use locus_bench::table1::FIG13_PROGRAM;
use locus_bench::timer::bench_function;
use locus_core::{LocusSystem, TuneRequest};
use locus_corpus::generate_corpus;

fn main() {
    bench_function("pipeline/parse_fig13", || {
        locus_lang::parse(black_box(FIG13_PROGRAM)).unwrap()
    });

    let locus = locus_lang::parse(FIG13_PROGRAM).unwrap();
    let nest = generate_corpus(9, 1)
        .into_iter()
        .find(|n| n.depth >= 2 && n.affine)
        .expect("a deep affine nest exists");

    let mut on = LocusSystem::new(bench_machine(1));
    on.optimize_programs = true;
    let mut off = on.clone();
    off.optimize_programs = false;

    bench_function("pipeline/prepare_optimizer_on", || {
        on.prepare(black_box(&nest.program), &locus).unwrap()
    });
    bench_function("pipeline/prepare_optimizer_off", || {
        off.prepare(black_box(&nest.program), &locus).unwrap()
    });

    bench_function("pipeline/tune_one_nest/budget6", || {
        let mut search = locus_search::BanditTuner::new(3);
        let request = TuneRequest::new(black_box(&nest.program), &locus, 6);
        on.run(request, &mut search).unwrap()
    });

    // Dependence analysis, the hot inner analysis of every legality
    // check.
    let stmt = {
        let regions = locus_srcir::region::find_regions(&nest.program);
        locus_srcir::region::extract_region(&nest.program, &regions[0])
            .expect("region")
            .stmt
    };
    bench_function("pipeline/dependence_analysis", || {
        locus_analysis::deps::analyze_region(black_box(&stmt))
    });
}
