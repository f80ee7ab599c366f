//! Observability demo: tune DGEMM with a tracer attached, export the
//! trace, and render the `locus-report` narrative.
//!
//! Run with: `cargo run --release --example traced_session [trace.jsonl [trace.chrome.json]]`
//!
//! With path arguments the trace is also written as JSONL (the format
//! `locus-report` replays) and as a Chrome `trace_event` file that
//! `chrome://tracing` / Perfetto load directly.

use locus::machine::{Machine, MachineConfig};
use locus::search::BanditTuner;
use locus::system::{LocusSystem, TuneRequest};
use locus::trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = locus::corpus::dgemm_program(32);
    let locus_program = locus::lang::parse(
        r#"
        CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            tileI = poweroftwo(4..16);
            tileK = poweroftwo(4..16);
            tileJ = poweroftwo(4..16);
            Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
        }
        "#,
    )?;

    let system = LocusSystem::new(Machine::new(MachineConfig::scaled_small().with_cores(4)));
    let tracer = Tracer::enabled();
    let mut search = BanditTuner::new(42);
    let request = TuneRequest::new(&source, &locus_program, 24)
        .parallel(4)
        .tracer(&tracer);
    let (result, report) = system.run(request, &mut search)?;

    println!(
        "tuned: baseline {:.3} ms, speedup {:.2}x, {} evaluations ({} proposals)",
        result.baseline.time_ms,
        result.speedup(),
        report.evaluations(),
        report.proposed,
    );

    let events = tracer.events();
    let mut args = std::env::args().skip(1);
    if let Some(path) = args.next() {
        std::fs::write(&path, locus::trace::to_jsonl(&events))?;
        println!("trace written to {path}");
    }
    if let Some(path) = args.next() {
        std::fs::write(&path, locus::trace::to_chrome(&events))?;
        println!("chrome trace written to {path}");
    }

    println!("\n{}", locus::report::render_trace(&events));
    Ok(())
}
