//! The generic optimization program of Fig. 13 (Sec. V-D): a single
//! 37-line Locus program that adapts itself — via queries, conditionals
//! and search constructs — to loop nests whose structure is unknown in
//! advance. Also demonstrates the region-hash coherence check of Sec. II.
//!
//! Run with: `cargo run --release --example arbitrary_loops`

use locus::machine::{Machine, MachineConfig};
use locus::search::BanditTuner;
use locus::system::{check_coherence, region_hashes, LocusSystem, TuneRequest};

const FIG13: &str = r#"
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let locus_program = locus::lang::parse(FIG13)?;
    let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small()));

    println!("nest                        depth perfect affine  space   best speedup");
    for nest in locus::corpus::generate_corpus(2026, 1).into_iter().take(8) {
        let mut search = BanditTuner::new(7);
        match system.run(
            TuneRequest::new(&nest.program, &locus_program, 10),
            &mut search,
        ) {
            Ok((result, _)) => println!(
                "{:<27} {:>5} {:>7} {:>6} {:>6}  {:>6.2}x",
                nest.name,
                nest.depth,
                nest.perfect,
                nest.affine,
                result.space_size,
                result.speedup()
            ),
            Err(e) => println!("{:<27} failed: {e}", nest.name),
        }
    }

    // Coherence: hash the regions now, edit the source, get warned.
    let nest = locus::corpus::generate_corpus(2026, 1).remove(0);
    let hashes = region_hashes(&nest.program);
    let mut edited = nest.program.clone();
    if let Some(f) = edited.function_mut("kernel") {
        f.body.push(locus::srcir::ast::Stmt::new(
            locus::srcir::ast::StmtKind::Empty,
        ));
    }
    // Adding a statement outside the region leaves the hash intact:
    assert!(check_coherence(&edited, &hashes).is_empty());
    println!("\nregion hashes verified: stored optimization program still applies");
    Ok(())
}
