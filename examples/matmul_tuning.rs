//! The search workflow on DGEMM (the paper's Sec. V-A): run the Fig. 7
//! optimization program, let the OpenTuner-like bandit explore tile
//! sizes and OpenMP schedules, and report the best variant.
//!
//! Run with: `cargo run --release --example matmul_tuning`

use locus::machine::{Machine, MachineConfig};
use locus::search::BanditTuner;
use locus::system::{LocusSystem, TuneRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 48;
    let source = locus::corpus::dgemm_program(n);

    // The paper's Fig. 7 program: interchange + two-level hierarchical
    // tiling with dependent ranges + an OR block over OpenMP schedules.
    let locus_program = locus::lang::parse(
        r#"
        Search {
            buildcmd = "make clean; make";
            runcmd = "./matmul";
        }
        CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            tileI = poweroftwo(2..512);
            tileK = poweroftwo(2..512);
            tileJ = poweroftwo(2..512);
            Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
            tileI_2 = poweroftwo(2..tileI);
            tileK_2 = poweroftwo(2..tileK);
            tileJ_2 = poweroftwo(2..tileJ);
            Pips.Tiling(loop="0.0.0.0", factor=[tileI_2, tileK_2, tileJ_2]);
            {
                Pragma.OMPFor(loop="0");
            } OR {
                Pragma.OMPFor(loop="0",
                              schedule=enum("static", "dynamic"),
                              chunk=integer(1..32));
            }
        }
        "#,
    )?;

    let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small().with_cores(8)));

    let budget = 40;
    println!("searching {budget} of the space's variants with the bandit ensemble...");
    let mut search = BanditTuner::new(42);
    let request = TuneRequest::new(&source, &locus_program, budget);
    let (result, _) = system.run(request, &mut search)?;

    println!("space size      : {} variants", result.space_size);
    println!(
        "evaluated       : {} distinct variants",
        result.outcome.evaluations
    );
    println!(
        "invalid points  : {} (dependent-range violations)",
        result.outcome.invalid
    );
    println!(
        "duplicates      : {} (skipped via memoization)",
        result.outcome.duplicates
    );
    println!(
        "baseline        : {:.3} simulated ms",
        result.baseline.time_ms
    );
    if let Some((point, _, best)) = &result.best {
        println!("best variant    : {:.3} simulated ms", best.time_ms);
        println!("speedup         : {:.2}x", result.speedup());
        println!("best point      :");
        for (id, value) in point.iter() {
            println!("    {id} = {value:?}");
        }
    }
    println!("\nbest-so-far trajectory (evaluation -> simulated ms):");
    for (eval, value) in &result.outcome.history {
        println!("    {eval:>4}  {value:.3}");
    }

    // The artifact the paper ships with the baseline (Sec. II): a
    // *direct* Locus program reproducing the winning variant, with every
    // search construct replaced by its chosen value.
    if let Some((point, _, _)) = &result.best {
        let prepared = system.prepare(&source, &locus_program)?;
        println!("\n--- shipped direct program ----------------------------------");
        println!("{}", system.direct_program(&prepared, point));
    }
    Ok(())
}
