//! Fig. 6 harnesses: DGEMM core sweep and the six-stencil comparison.

use locus_baselines::{mkl_like_dgemm, PlutoLike};
use locus_core::{LocusSystem, TuneRequest};
use locus_corpus::{dgemm_program, stencil_program, Stencil};
use locus_search::BanditTuner;

use crate::{bench_machine, bench_machine_tiny};

/// The paper's Fig. 7 optimization program, verbatim apart from scaled
/// tile ranges (`2..512` on a 2048-point loop maps to `2..{max}` here).
pub fn fig7_locus_program(max_tile: i64) -> locus_lang::LocusProgram {
    let src = format!(
        r#"
Search {{
    buildcmd = "make clean; make";
    runcmd = "./matmul";
}}
CodeReg matmul {{
    RoseLocus.Interchange(order=[0, 2, 1]);
    tileI = poweroftwo(2..{max_tile});
    tileK = poweroftwo(2..{max_tile});
    tileJ = poweroftwo(2..{max_tile});
    Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
    tileI_2 = poweroftwo(2..tileI);
    tileK_2 = poweroftwo(2..tileK);
    tileJ_2 = poweroftwo(2..tileJ);
    Pips.Tiling(loop="0.0.0.0", factor=[tileI_2, tileK_2, tileJ_2]);
    {{
        Pragma.OMPFor(loop="0");
    }} OR {{
        Pragma.OMPFor(loop="0",
                      schedule=enum("static", "dynamic"),
                      chunk=integer(1..32));
    }}
}}
"#
    );
    locus_lang::parse(&src).expect("Fig. 7 program parses")
}

/// One row of the Fig. 6 (right) DGEMM plot.
#[derive(Debug, Clone)]
pub struct DgemmRow {
    /// Core count of this row.
    pub cores: usize,
    /// Locus speedup over the 1-core naive baseline.
    pub locus: f64,
    /// Pluto-like speedup over the same baseline.
    pub pluto: f64,
    /// MKL-like oracle speedup over the same baseline.
    pub mkl: f64,
    /// Search evaluations actually spent.
    pub evaluations: usize,
}

/// Result of the DGEMM sweep.
#[derive(Debug, Clone)]
pub struct DgemmResult {
    /// One row per core count.
    pub rows: Vec<DgemmRow>,
    /// Size of the Fig. 7 optimization space (the paper quotes
    /// 34,012,224 under OpenTuner's encoding).
    pub space_size: u128,
    /// Matrix dimension used.
    pub n: usize,
}

/// Runs the DGEMM core sweep: for each core count, Locus empirical
/// search (Fig. 7 program), Pluto with fixed tiles, and the MKL-like
/// oracle; speedups are over the single-core naive baseline, as in the
/// paper.
pub fn run_dgemm(
    n: usize,
    budget: usize,
    cores: &[usize],
    seed: u64,
    max_tile: i64,
) -> DgemmResult {
    let source = dgemm_program(n);
    let locus = fig7_locus_program(max_tile);

    let base = bench_machine(1)
        .run(&source, "kernel")
        .expect("baseline DGEMM runs");
    let mut rows = Vec::new();
    let mut space_size = 0u128;
    for (k, &c) in cores.iter().enumerate() {
        let system = LocusSystem::new(bench_machine(c));
        let mut search = BanditTuner::new(seed + k as u64);
        let (result, _) = system
            .run(TuneRequest::new(&source, &locus, budget), &mut search)
            .expect("DGEMM tuning runs");
        space_size = result.space_size;
        let locus_speedup = match &result.best {
            Some((_, _, m)) => base.time_ms / m.time_ms,
            None => 1.0,
        };

        let machine = bench_machine(c);
        let (pluto_program, _) = PlutoLike::default().optimize(&source, &machine);
        let pluto_m = machine
            .run(&pluto_program, "kernel")
            .expect("pluto variant runs");
        let mkl_program = mkl_like_dgemm(n, machine.config());
        let mkl_m = machine
            .run(&mkl_program, "kernel")
            .expect("mkl variant runs");

        rows.push(DgemmRow {
            cores: c,
            locus: locus_speedup,
            pluto: base.time_ms / pluto_m.time_ms,
            mkl: base.time_ms / mkl_m.time_ms,
            evaluations: result.outcome.evaluations,
        });
    }
    DgemmResult {
        rows,
        space_size,
        n,
    }
}

/// The paper's Fig. 9 stencil optimization program (Skewing-1 generic
/// tiling + vectorization pragmas), with the skew factor range scaled to
/// the simulated problem sizes.
pub fn fig9_locus_program(
    stencil: Stencil,
    min_skew: i64,
    max_skew: i64,
) -> locus_lang::LocusProgram {
    let id = stencil.region_id();
    let tmat = match stencil.dims() {
        1 => "[[skew1, 0], [0 - skew1, skew1]]",
        _ => "[[skew1, 0, 0], [0 - skew1, skew1, 0], [0 - skew1, 0, skew1]]",
    };
    let src = format!(
        r#"
Search {{
    buildcmd = "make clean; make";
    runcmd = "./{id}";
}}
CodeReg {id} {{
    skew1 = poweroftwo({min_skew}..{max_skew});
    tmat = {tmat};
    Pips.GenericTiling(loop="0", factor=tmat);
    Pragma.Ivdep(loop=innermost);
    Pragma.Vector(loop=innermost);
}}
"#
    );
    locus_lang::parse(&src).expect("Fig. 9 program parses")
}

/// One row of the Fig. 6 (left) stencil plot.
#[derive(Debug, Clone)]
pub struct StencilRow {
    /// The stencil kernel.
    pub stencil: Stencil,
    /// Speedup of the best Locus variant over the baseline.
    pub locus: f64,
    /// Speedup of the Pluto (-tile -pet) output over the baseline.
    pub pluto: f64,
    /// Search evaluations spent.
    pub evaluations: usize,
}

/// Runs the six-stencil comparison (sequential, like the paper's
/// stencil figure).
pub fn run_stencils(n: usize, t_steps: usize, budget: usize) -> Vec<StencilRow> {
    let machine = bench_machine_tiny(1);
    let mut rows = Vec::new();
    for stencil in Stencil::ALL {
        let source = stencil_program(stencil, n, t_steps);
        let locus = fig9_locus_program(stencil, 4, 32);
        let system = LocusSystem::new(machine.clone());
        let mut search = locus_search::ExhaustiveSearch::default();
        let (result, _) = system
            .run(TuneRequest::new(&source, &locus, budget), &mut search)
            .expect("stencil tuning runs");
        let locus_speedup = result.speedup();

        let (pluto_program, _) = PlutoLike::tiling_only().optimize(&source, &machine);
        let pluto_m = machine
            .run(&pluto_program, "kernel")
            .expect("pluto stencil runs");
        rows.push(StencilRow {
            stencil,
            locus: locus_speedup,
            pluto: result.baseline.time_ms / pluto_m.time_ms,
            evaluations: result.outcome.evaluations,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_program_space_matches_expected_encoding() {
        let source = dgemm_program(16);
        let locus = fig7_locus_program(512);
        let system = LocusSystem::new(bench_machine(1));
        let prepared = system.prepare(&source, &locus).unwrap();
        // 9^6 * 2 * 2 * 32 flattened (paper: 34,012,224 under OpenTuner).
        assert_eq!(prepared.space.size(), 68_024_448);
    }

    #[test]
    fn dgemm_sweep_produces_monotone_locus_column() {
        let result = run_dgemm(32, 8, &[1, 4], 3, 32);
        assert_eq!(result.rows.len(), 2);
        assert!(result.rows[0].locus >= 1.0);
        // More cores must not hurt the tuned variant.
        assert!(result.rows[1].locus >= result.rows[0].locus);
        assert!(result.rows[1].mkl > result.rows[0].mkl);
    }

    #[test]
    fn stencil_rows_cover_all_six() {
        let rows = run_stencils(24, 4, 4);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.locus > 0.0, "{:?}", row.stencil);
            assert!(row.pluto > 0.0, "{:?}", row.stencil);
        }
    }
}
