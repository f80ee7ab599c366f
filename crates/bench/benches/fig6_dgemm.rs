//! Bench behind Fig. 6 (right): the cost of the DGEMM pipeline stages —
//! preparing the Fig. 7 program, building one variant, measuring it on
//! the simulated machine, and a short end-to-end search.
//!
//! Runs under the in-tree [`locus_bench::timer`] harness (`cargo bench
//! -p locus-bench --bench fig6_dgemm`); the workspace has no external
//! bench dependencies.

use std::hint::black_box;

use locus_bench::fig6::fig7_locus_program;
use locus_bench::timer::bench_function;
use locus_bench::{bench_machine, fig6::run_dgemm};
use locus_core::{LocusSystem, TuneRequest};
use locus_corpus::dgemm_program;
use locus_space::{ParamValue, Point};

fn fig7_point() -> Point {
    let mut point = Point::new();
    for (id, v) in [
        ("tileI", 16),
        ("tileK", 16),
        ("tileJ", 16),
        ("tileI_2", 4),
        ("tileK_2", 4),
        ("tileJ_2", 4),
    ] {
        point.set(id, ParamValue::Int(v));
    }
    point.set("p6", ParamValue::Choice(0)); // schedule enum
    point.set("p7", ParamValue::Int(8)); // chunk
    point.set("p8", ParamValue::Choice(0)); // OR block
    point
}

fn main() {
    let source = dgemm_program(32);
    let locus = fig7_locus_program(512);
    let system = LocusSystem::new(bench_machine(4));
    let prepared = system.prepare(&source, &locus).expect("prepare");
    let point = fig7_point();

    bench_function("fig6_dgemm/prepare", || {
        system
            .prepare(black_box(&source), black_box(&locus))
            .unwrap()
    });
    bench_function("fig6_dgemm/build_variant", || {
        system
            .build_variant(black_box(&source), &prepared, &point)
            .unwrap()
    });
    let variant = system.build_variant(&source, &prepared, &point).unwrap();
    bench_function("fig6_dgemm/measure_32", || {
        system.measure(black_box(&variant)).unwrap()
    });
    bench_function("fig6_dgemm/search/bandit_budget8", || {
        let mut search = locus_search::BanditTuner::new(1);
        let request = TuneRequest::new(black_box(&source), black_box(&locus), 8);
        system.run(request, &mut search).unwrap()
    });
    bench_function("fig6_dgemm/figure/two_core_points", || {
        run_dgemm(black_box(24), 4, &[1, 4], 7, 16)
    });
}
