//! The paper's Sec. VII future work, implemented: combining multiple
//! search modules in the same run. The portfolio races the bandit
//! (OpenTuner-like), the annealer (Hyperopt-like), uniform random,
//! Monte-Carlo tree search and the probabilistic trace sampler over
//! one shared memo table, shifting budget toward whichever module
//! keeps improving the shared best.
//!
//! Run with: `cargo run --release --example portfolio_search`

use locus::machine::{Machine, MachineConfig};
use locus::search::{
    AnnealTuner, BanditTuner, MctsTuner, PortfolioSearch, RandomSearch, SearchModule, TraceSampler,
};
use locus::system::{LocusSystem, TuneRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = locus::corpus::dgemm_program(48);
    let locus_program = locus::lang::parse(
        r#"CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            tileI = poweroftwo(2..32);
            tileK = poweroftwo(2..32);
            tileJ = poweroftwo(2..32);
            Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
            {
                Pragma.OMPFor(loop="0");
            } OR {
                Pragma.OMPFor(loop="0", schedule=enum("static", "dynamic"),
                              chunk=integer(1..32));
            }
        }"#,
    )?;
    let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small().with_cores(4)));

    let budget = 30;
    println!("module                      speedup  evals  dups");
    let run = |name: &str, search: &mut dyn SearchModule| {
        let (result, _) = system
            .run(TuneRequest::new(&source, &locus_program, budget), search)
            .expect("tuning runs");
        println!(
            "{name:<27} {:>6.2}x  {:>5}  {:>4}",
            result.speedup(),
            result.outcome.evaluations,
            result.outcome.duplicates
        );
    };
    run("portfolio (all five)", &mut PortfolioSearch::new(7));
    run("bandit alone", &mut BanditTuner::new(7));
    run("annealing alone", &mut AnnealTuner::new(7));
    run("random alone", &mut RandomSearch::new(7));
    run("mcts alone", &mut MctsTuner::new(7));
    run("trace sampler alone", &mut TraceSampler::new(7));
    Ok(())
}
