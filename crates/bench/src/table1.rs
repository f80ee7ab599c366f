//! Table I + Sec. V-D harness: the generic Fig. 13 optimization program
//! over the synthetic extraction corpus, compared against the Pluto-like
//! baseline.

use locus_baselines::{PlutoLike, PlutoOutcome};
use locus_core::{LocusSystem, TuneRequest};
use locus_corpus::{generate_corpus, CorpusNest, TABLE1_SUITES};
use locus_search::BanditTuner;

use crate::{bench_machine, geomean};

/// The paper's Fig. 13 program, verbatim (37 lines in the paper).
pub const FIG13_PROGRAM: &str = r#"
Search {
    buildcmd = "make clean; make LOOPEXTRACTED";
    runcmd = "LOOPEXTRACTED ../input 10";
}
CodeReg scop {
    perfect = BuiltIn.IsPerfectLoopNest();
    depth = BuiltIn.LoopNestDepth();
    if (RoseLocus.IsDepAvailable()) {
        if (perfect && depth > 1) {
            permorder = permutation(seq(0, depth));
            RoseLocus.Interchange(order=permorder);
        }
        {
            if (perfect) {
                indexT1 = integer(1..depth);
                T1fac = poweroftwo(2..32);
                RoseLocus.Tiling(loop=indexT1, factor=T1fac);
            }
        } OR {
            if (depth > 1) {
                indexUAJ = integer(1..depth-1);
                UAJfac = poweroftwo(2..4);
                RoseLocus.UnrollAndJam(loop=indexUAJ, factor=UAJfac);
            }
        } OR {
            None; # No tiling, interchange, or unroll and jam.
        }
        innerloops = BuiltIn.ListInnerLoops();
        *RoseLocus.Distribute(loop=innerloops);
    }
    innerloops = BuiltIn.ListInnerLoops();
    RoseLocus.Unroll(loop=innerloops, factor=poweroftwo(2..8));
}
"#;

/// Per-nest result.
#[derive(Debug, Clone)]
pub struct NestResult {
    /// Suite the nest is attributed to.
    pub suite: &'static str,
    /// Nest name within the corpus.
    pub name: String,
    /// Locus shipped-result speedup.
    pub locus_speedup: f64,
    /// Whether Locus produced any valid variant.
    pub locus_transformed: bool,
    /// Pluto-like speedup (1.0 when untransformed).
    pub pluto_speedup: f64,
    /// Whether the Pluto model restructured the nest.
    pub pluto_transformed: bool,
    /// Search evaluations spent on the nest.
    pub variants_assessed: usize,
}

/// Aggregate statistics matching the Sec. V-D narrative.
#[derive(Debug, Clone, Default)]
pub struct Table1Summary {
    /// Nests in this run.
    pub nests: usize,
    /// Total variants assessed.
    pub variants_assessed: usize,
    /// Nests Locus transformed (paper: 822 / 856).
    pub locus_transformed: usize,
    /// Nests Pluto transformed (paper: 397 / 856).
    pub pluto_transformed: usize,
    /// Mean (geometric) Locus speedup (paper: 1.15).
    pub locus_mean_speedup: f64,
    /// Mean (geometric) Pluto speedup (paper: 1.05).
    pub pluto_mean_speedup: f64,
    /// Nests Locus sped up by > 1.05 (paper: 360).
    pub locus_gt_105: usize,
    /// Nests Pluto sped up by > 1.05 (paper: 170).
    pub pluto_gt_105: usize,
    /// Nests both tools sped up by > 1.05 (paper: 170).
    pub both_gt_105: usize,
    /// Of those, how many Locus won (paper: 129).
    pub locus_wins_head_to_head: usize,
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// `(suite, nests run, variants assessed)` triples.
    pub per_suite: Vec<(String, usize, usize)>,
    /// Per-nest details.
    pub nests: Vec<NestResult>,
    /// Aggregate statistics.
    pub summary: Table1Summary,
}

/// Runs the Table I experiment over a corpus capped at `per_suite_cap`
/// nests per suite with `budget` variants per nest (the paper used the
/// full 856 nests and 500 variants; the defaults in the harness binary
/// scale this to seconds).
pub fn run_table1(seed: u64, per_suite_cap: usize, budget: usize) -> Table1Result {
    let corpus = generate_corpus(seed, per_suite_cap);
    let machine = bench_machine(1);
    let system = LocusSystem::new(machine.clone());
    let locus = locus_lang::parse(FIG13_PROGRAM).expect("Fig. 13 parses");
    let pluto = PlutoLike::gong_flags();

    let mut nests = Vec::new();
    for (k, nest) in corpus.iter().enumerate() {
        let CorpusNest { program, .. } = nest;
        let mut search = BanditTuner::new(seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
        let (locus_speedup, locus_transformed, evals) =
            match system.run(TuneRequest::new(program, &locus, budget), &mut search) {
                Ok((result, _)) => (
                    result.speedup(),
                    result.best.is_some(),
                    result.outcome.evaluations,
                ),
                Err(_) => (1.0, false, 0),
            };

        let (pluto_program, outcomes) = pluto.optimize(program, &machine);
        let pluto_transformed = outcomes.contains(&PlutoOutcome::Transformed);
        let pluto_speedup = if pluto_transformed {
            let base = machine.run(program, "kernel").expect("baseline runs");
            let m = machine.run(&pluto_program, "kernel").expect("pluto runs");
            base.time_ms / m.time_ms
        } else {
            1.0
        };

        nests.push(NestResult {
            suite: nest.suite,
            name: nest.name.clone(),
            locus_speedup,
            locus_transformed,
            pluto_speedup,
            pluto_transformed,
            variants_assessed: evals,
        });
    }

    let mut per_suite = Vec::new();
    for suite in TABLE1_SUITES {
        let mine: Vec<&NestResult> = nests.iter().filter(|n| n.suite == suite.name).collect();
        if !mine.is_empty() {
            per_suite.push((
                suite.name.to_string(),
                mine.len(),
                mine.iter().map(|n| n.variants_assessed).sum(),
            ));
        }
    }

    let locus_speedups: Vec<f64> = nests.iter().map(|n| n.locus_speedup).collect();
    let pluto_speedups: Vec<f64> = nests.iter().map(|n| n.pluto_speedup).collect();
    let both: Vec<&NestResult> = nests
        .iter()
        .filter(|n| n.locus_speedup > 1.05 && n.pluto_speedup > 1.05)
        .collect();
    let summary = Table1Summary {
        nests: nests.len(),
        variants_assessed: nests.iter().map(|n| n.variants_assessed).sum(),
        locus_transformed: nests.iter().filter(|n| n.locus_transformed).count(),
        pluto_transformed: nests.iter().filter(|n| n.pluto_transformed).count(),
        locus_mean_speedup: geomean(&locus_speedups),
        pluto_mean_speedup: geomean(&pluto_speedups),
        locus_gt_105: nests.iter().filter(|n| n.locus_speedup > 1.05).count(),
        pluto_gt_105: nests.iter().filter(|n| n.pluto_speedup > 1.05).count(),
        both_gt_105: both.len(),
        locus_wins_head_to_head: both
            .iter()
            .filter(|n| n.locus_speedup > n.pluto_speedup)
            .count(),
    };
    Table1Result {
        per_suite,
        nests,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_program_parses_and_prepares_everywhere() {
        let locus = locus_lang::parse(FIG13_PROGRAM).unwrap();
        let system = LocusSystem::new(bench_machine(1));
        for nest in generate_corpus(5, 1) {
            let prepared = system
                .prepare(&nest.program, &locus)
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
            assert!(prepared.space.size() >= 1, "{}", nest.name);
        }
    }

    #[test]
    fn small_run_reproduces_the_papers_shape() {
        let result = run_table1(17, 2, 6);
        let s = &result.summary;
        assert!(s.nests >= 30);
        // Locus transforms more nests than the polyhedral baseline.
        assert!(
            s.locus_transformed > s.pluto_transformed,
            "locus {} vs pluto {}",
            s.locus_transformed,
            s.pluto_transformed
        );
        assert!(s.locus_mean_speedup >= 1.0);
    }
}
