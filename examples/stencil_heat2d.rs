//! The paper's stencil experiment (Sec. V-B) on Heat 2D: skewed generic
//! tiling (`Pips.GenericTiling` with the Skewing-1 matrix of Fig. 9),
//! searching the skew factor empirically.
//!
//! Run with: `cargo run --release --example stencil_heat2d`

use locus::corpus::{stencil_program, Stencil};
use locus::machine::{Machine, MachineConfig};
use locus::search::ExhaustiveSearch;
use locus::system::{LocusSystem, TuneRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = stencil_program(Stencil::Heat2d, 48, 8);

    // Fig. 9, with the skew-factor range scaled to the simulated grid.
    let locus_program = locus::lang::parse(
        r#"
        Search {
            buildcmd = "make clean; make";
            runcmd = "./heat-2d";
        }
        CodeReg heat2d {
            skew1 = poweroftwo(4..32);
            tmat = [[skew1, 0, 0],
                    [0 - skew1, skew1, 0],
                    [0 - skew1, 0, skew1]];
            Pips.GenericTiling(loop="0", factor=tmat);
            Pragma.Ivdep(loop=innermost);
            Pragma.Vector(loop=innermost);
        }
        "#,
    )?;

    let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small()));
    let mut search = ExhaustiveSearch::default();
    let (result, _) = system.run(TuneRequest::new(&source, &locus_program, 8), &mut search)?;

    println!(
        "skew factors tried: {} (space size {})",
        result.outcome.evaluations, result.space_size
    );
    println!("baseline : {:.3} simulated ms", result.baseline.time_ms);
    if let Some((point, program, best)) = &result.best {
        println!(
            "best     : {:.3} simulated ms ({:.2}x)",
            best.time_ms,
            result.speedup()
        );
        println!("chosen   : {:?}", point.get("skew1"));
        assert_eq!(best.checksum, result.baseline.checksum, "tiling is exact");
        println!("\n--- time-skewed tile loops (excerpt) -----------------------");
        for line in locus::srcir::print_program(program)
            .lines()
            .skip_while(|l| !l.contains("kernel"))
            .take(12)
        {
            println!("{line}");
        }
    }
    Ok(())
}
