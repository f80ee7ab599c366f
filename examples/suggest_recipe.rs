//! The paper's closing "ongoing work": helping users design optimization
//! sequences. `locus::system::suggest_program` analyzes a region and
//! emits a tailored Locus recipe — which can then be tuned directly.
//!
//! Run with: `cargo run --release --example suggest_recipe`

use locus::machine::{Machine, MachineConfig};
use locus::search::BanditTuner;
use locus::srcir::region::{extract_region, find_regions};
use locus::system::{suggest_program, LocusSystem, TuneRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (label, src) in [
        (
            "perfect depth-3 matmul",
            r#"double C[48][48]; double A[48][48]; double B[48][48];
            void kernel() {
                #pragma @Locus loop=scop
                for (int i = 0; i < 48; i++)
                    for (int j = 0; j < 48; j++)
                        for (int k = 0; k < 48; k++)
                            C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }"#,
        ),
        (
            "indirect scatter (non-affine)",
            r#"double A[512]; int idx[512];
            void kernel() {
                #pragma @Locus loop=scop
                for (int i = 0; i < 512; i++)
                    A[idx[i]] = A[idx[i]] + 1.0;
            }"#,
        ),
    ] {
        let program = locus::srcir::parse_program(src)?;
        let regions = find_regions(&program);
        let stmt = extract_region(&program, &regions[0]).expect("region").stmt;

        let recipe = suggest_program("scop", &stmt);
        println!("=== {label} — suggested recipe =============================");
        println!("{recipe}");

        let locus_program = locus::lang::parse(&recipe)?;
        let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small()));
        let mut search = BanditTuner::new(1);
        let request = TuneRequest::new(&program, &locus_program, 12);
        let (result, _) = system.run(request, &mut search)?;
        println!(
            "tuned: space {} variants, {} evaluated, speedup {:.2}x\n",
            result.space_size,
            result.outcome.evaluations,
            result.speedup()
        );
    }
    Ok(())
}
