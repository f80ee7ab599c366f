//! Benchmarks the execution engines against each other: every kernel is
//! run on the tree interpreter and the register VM (each timed over
//! several repeats of the full `Machine::run` path, compilation
//! included), plus the register VM's *batched* path
//! (compile once via [`CompiledVariant`], then measure repeatedly) —
//! after first asserting that every path returns bit-identical
//! measurements. The per-kernel speedups over the tree oracle and
//! their geometric means are the headline numbers of
//! `BENCH_interp.json`.
//!
//! The kernels are the corpus the tuner actually evaluates — DGEMM,
//! stencils, Kripke — plus a tiled, OMP-annotated DGEMM variant so the
//! transformed programs the search generates are represented too.

use std::time::Instant;

use locus_corpus::{dgemm_program, kripke_hand_optimized, KripkeKernel, Stencil};
use locus_machine::{CompiledVariant, ExecEngine, Machine, MachineConfig, Measurement};
use locus_srcir::ast::Program;
use locus_transform as transform;

use crate::geomean;

/// One engine comparison on a single kernel: all speedups are over the
/// tree interpreter.
#[derive(Debug, Clone)]
pub struct InterpRow {
    /// Kernel label.
    pub label: String,
    /// Timed repeats per engine.
    pub repeats: usize,
    /// Interpreted operations of one run (identical across engines).
    pub ops: u64,
    /// Wall-clock of `repeats` tree-interpreter runs, seconds.
    pub tree_s: f64,
    /// Wall-clock of `repeats` register-VM runs (compile every call,
    /// like `Machine::run`), seconds.
    pub reg_s: f64,
    /// Wall-clock of `repeats` register-VM runs through a shared
    /// [`CompiledVariant`] (compile once, measure many), seconds.
    pub batched_s: f64,
    /// `tree_s / reg_s`.
    pub reg_speedup: f64,
    /// `tree_s / batched_s`.
    pub batched_speedup: f64,
    /// Whether both engines *and* the batched path returned
    /// bit-identical measurements.
    pub identical: bool,
}

/// Bit-level measurement identity: floats by bit pattern (stricter than
/// `PartialEq`, which would accept `-0.0 == 0.0`).
pub fn bit_identical(a: &Measurement, b: &Measurement) -> bool {
    a.cycles.to_bits() == b.cycles.to_bits()
        && a.time_ms.to_bits() == b.time_ms.to_bits()
        && a.ops == b.ops
        && a.flops == b.flops
        && a.cache == b.cache
        && a.checksum == b.checksum
}

/// DGEMM tiled and OMP-parallelized the way a tuned variant would be.
fn tuned_dgemm(n: usize) -> Program {
    use locus_srcir::index::HierIndex;
    use locus_srcir::region::{extract_region, find_regions, replace_region};

    let mut program = dgemm_program(n);
    let regions = find_regions(&program);
    let mut stmt = extract_region(&program, &regions[0]).expect("region").stmt;
    transform::interchange::interchange(&mut stmt, &[0, 2, 1], true).expect("interchange");
    transform::tiling::tile(&mut stmt, &HierIndex::root(), &[8, 8, 8], true).expect("tile");
    transform::pragmas::insert_omp_for(&mut stmt, &transform::LoopSel::Outermost, None, true)
        .expect("omp");
    replace_region(&mut program, &regions[0], stmt);
    program
}

/// The benchmarked kernels.
pub fn kernels() -> Vec<(String, Program)> {
    vec![
        ("dgemm-24".to_string(), dgemm_program(24)),
        ("dgemm-24-tuned".to_string(), tuned_dgemm(24)),
        (
            "jacobi2d-32x4".to_string(),
            locus_corpus::stencil_program(Stencil::Jacobi2d, 32, 4),
        ),
        (
            "heat2d-32x4".to_string(),
            locus_corpus::stencil_program(Stencil::Heat2d, 32, 4),
        ),
        (
            "seidel1d-256x8".to_string(),
            locus_corpus::stencil_program(Stencil::Seidel1d, 256, 8),
        ),
        (
            "kripke-ltimes-dgz".to_string(),
            kripke_hand_optimized(KripkeKernel::LTimes, "DGZ"),
        ),
        (
            "kripke-scattering-zgd".to_string(),
            kripke_hand_optimized(KripkeKernel::Scattering, "ZGD"),
        ),
    ]
}

/// Times `repeats` full runs, best of five batches (the minimum is the
/// standard estimator under scheduler noise: every perturbation only
/// adds time).
fn time_engine(
    config: &MachineConfig,
    engine: ExecEngine,
    program: &Program,
    repeats: usize,
) -> f64 {
    let machine = Machine::new(config.clone().with_engine(engine));
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..repeats {
            machine.run(program, "kernel").expect("kernel runs");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times `repeats` measurements through one compiled variant (the
/// batched path tuning sweeps take: lowering happens once, on the
/// first call, and is amortized across the batch).
fn time_batched(config: &MachineConfig, program: &Program, repeats: usize) -> f64 {
    let variant = CompiledVariant::new(program.clone(), "kernel");
    variant.run(config).expect("kernel runs");
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..repeats {
            variant.run(config).expect("kernel runs");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Runs one kernel on every engine: asserts identity first (tree vs
/// register vs batched register), then times `repeats` full runs of
/// each path.
pub fn run_kernel(label: &str, program: &Program, repeats: usize) -> InterpRow {
    let config = MachineConfig::scaled_small();
    let tree_m = Machine::new(config.clone().with_engine(ExecEngine::Tree))
        .run(program, "kernel")
        .expect("tree run");
    let reg_m = Machine::new(config.clone().with_engine(ExecEngine::RegisterVm))
        .run(program, "kernel")
        .expect("register vm run");
    let batched_m = CompiledVariant::new(program.clone(), "kernel")
        .run(&config.clone().with_engine(ExecEngine::RegisterVm))
        .expect("batched run");
    let identical = bit_identical(&tree_m, &reg_m) && bit_identical(&tree_m, &batched_m);

    let tree_s = time_engine(&config, ExecEngine::Tree, program, repeats);
    let reg_s = time_engine(&config, ExecEngine::RegisterVm, program, repeats);
    let batched_s = time_batched(
        &config.clone().with_engine(ExecEngine::RegisterVm),
        program,
        repeats,
    );
    InterpRow {
        label: label.to_string(),
        repeats,
        ops: tree_m.ops,
        tree_s,
        reg_s,
        batched_s,
        reg_speedup: tree_s / reg_s.max(1e-12),
        batched_speedup: tree_s / batched_s.max(1e-12),
        identical,
    }
}

/// Runs the full engine comparison.
pub fn run_interp(repeats: usize) -> Vec<InterpRow> {
    kernels()
        .iter()
        .map(|(label, program)| run_kernel(label, program, repeats))
        .collect()
}

/// Geometric-mean register-VM speedup (compile every call).
pub fn geomean_reg(rows: &[InterpRow]) -> f64 {
    geomean(&rows.iter().map(|r| r.reg_speedup).collect::<Vec<_>>())
}

/// Geometric-mean batched register-VM speedup (compile once).
pub fn geomean_batched(rows: &[InterpRow]) -> f64 {
    geomean(&rows.iter().map(|r| r.batched_speedup).collect::<Vec<_>>())
}

/// The cost of the tracing hooks when tracing is off.
#[derive(Debug, Clone)]
pub struct TraceOverheadRow {
    /// Kernel label.
    pub label: String,
    /// Timed repeats per batch.
    pub repeats: usize,
    /// Best batch time of the plain `Machine::run` path, seconds.
    pub plain_s: f64,
    /// Best batch time of `Machine::run_traced` with a disabled
    /// [`locus_trace::Tracer`], seconds.
    pub traced_s: f64,
}

impl TraceOverheadRow {
    /// Relative overhead: `traced_s / plain_s - 1` (0.01 == 1%).
    pub fn overhead(&self) -> f64 {
        self.traced_s / self.plain_s.max(1e-12) - 1.0
    }
}

/// Measures the disabled-tracer overhead of [`Machine::run_traced`]
/// against the plain `run` path on the DGEMM kernel (register engine —
/// the path every tuning evaluation takes).
///
/// Batches of the two paths are interleaved with alternating order and
/// the minimum over 21 batches is kept for each, so scheduler drift and
/// frequency ramps hit both sides equally. The tuning driver calls
/// `run_traced` unconditionally, so this ratio is exactly the tracing
/// tax every untraced session pays.
pub fn trace_overhead(repeats: usize) -> TraceOverheadRow {
    let program = dgemm_program(24);
    let machine = Machine::new(MachineConfig::scaled_small().with_engine(ExecEngine::RegisterVm));
    let tracer = locus_trace::Tracer::disabled();

    // Warm both paths.
    machine.run(&program, "kernel").expect("kernel runs");
    machine
        .run_traced(&program, "kernel", &tracer)
        .expect("kernel runs");

    let time_plain = |plain_s: &mut f64| {
        let start = Instant::now();
        for _ in 0..repeats {
            machine.run(&program, "kernel").expect("kernel runs");
        }
        *plain_s = plain_s.min(start.elapsed().as_secs_f64());
    };
    let time_traced = |traced_s: &mut f64| {
        let start = Instant::now();
        for _ in 0..repeats {
            machine
                .run_traced(&program, "kernel", &tracer)
                .expect("kernel runs");
        }
        *traced_s = traced_s.min(start.elapsed().as_secs_f64());
    };

    let mut plain_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    for batch in 0..21 {
        if batch % 2 == 0 {
            time_plain(&mut plain_s);
            time_traced(&mut traced_s);
        } else {
            time_traced(&mut traced_s);
            time_plain(&mut plain_s);
        }
    }
    TraceOverheadRow {
        label: "dgemm-24".to_string(),
        repeats,
        plain_s,
        traced_s,
    }
}

/// Renders the rows as a JSON document (hand-rolled; the workspace has
/// no serde).
pub fn to_json(rows: &[InterpRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"execution engines vs tree interpreter (full Machine::run, compile included; batched = CompiledVariant, compile once)\",\n",
    );
    out.push_str(&format!(
        concat!(
            "  \"geomean_register_speedup\": {:.2},\n",
            "  \"geomean_batched_speedup\": {:.2},\n",
            "  \"rows\": [\n",
        ),
        geomean_reg(rows),
        geomean_batched(rows)
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"label\": \"{}\",\n",
                "      \"repeats\": {},\n",
                "      \"ops\": {},\n",
                "      \"tree_s\": {:.6},\n",
                "      \"reg_s\": {:.6},\n",
                "      \"batched_s\": {:.6},\n",
                "      \"register_speedup\": {:.2},\n",
                "      \"batched_speedup\": {:.2},\n",
                "      \"bit_identical\": {}\n",
                "    }}{}\n",
            ),
            r.label,
            r.repeats,
            r.ops,
            r.tree_s,
            r.reg_s,
            r.batched_s,
            r.reg_speedup,
            r.batched_speedup,
            r.identical,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_vm_is_faster() {
        // One repeat keeps the test quick; the bench_interp binary runs
        // the same harness with enough repeats for stable timing.
        let row = run_kernel("dgemm", &dgemm_program(16), 1);
        assert!(row.identical, "engines disagree on dgemm");
        assert!(row.ops > 0);
        let json = to_json(&[row]);
        assert!(json.contains("\"bit_identical\": true"), "{json}");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn run_traced_with_disabled_tracer_matches_run() {
        let program = dgemm_program(16);
        let machine = Machine::new(MachineConfig::scaled_small());
        let plain = machine.run(&program, "kernel").unwrap();
        let traced = machine
            .run_traced(&program, "kernel", &locus_trace::Tracer::disabled())
            .unwrap();
        assert!(bit_identical(&plain, &traced), "run_traced diverged");
        let row = trace_overhead(1);
        assert!(row.plain_s > 0.0 && row.traced_s > 0.0);
    }

    #[test]
    fn tuned_dgemm_variant_is_transformed_and_identical() {
        let program = tuned_dgemm(16);
        let printed = locus_srcir::print_program(&program);
        assert!(printed.contains("omp parallel for"), "{printed}");
        let row = run_kernel("dgemm-tuned", &program, 1);
        assert!(row.identical, "engines disagree on tuned dgemm");
    }
}
