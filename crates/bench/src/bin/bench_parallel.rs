//! Benchmarks a parallel `LocusSystem::run` request (batches of
//! `PARALLEL_BATCH` over a worker pool) against a sequential one
//! (batches of one point) on the Fig. 7 DGEMM problem and writes the
//! result to `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p locus-bench --bin bench_parallel
//! [output.json]` (threads via `LOCUS_THREADS`, default 8).

use locus_bench::parallel::{run_parallel, to_json};

fn main() {
    let threads = std::env::var("LOCUS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());

    eprintln!("run parallel vs run sequential, {threads} worker threads");
    let rows = run_parallel(threads);
    for r in &rows {
        println!(
            "{:<28} {:<20} budget {:>4}  seq {:>8.3}s  par {:>8.3}s  speedup {:>5.2}x  \
             variants {}/{} points  hits {}+{}  identical_best {}",
            r.label,
            r.search,
            r.budget,
            r.sequential_s,
            r.parallel_s,
            r.speedup,
            r.stats.unique_variants,
            r.stats.unique_points,
            r.stats.point_hits,
            r.stats.variant_hits,
            r.identical_best,
        );
    }
    std::fs::write(&out, to_json(&rows)).expect("write benchmark JSON");
    eprintln!("wrote {out}");
}
