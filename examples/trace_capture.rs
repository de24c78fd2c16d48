//! Trace capture and replay: ship a workload as a file.
//!
//! Records a benchmark's exact dynamic instruction stream as a
//! [`TraceTape`], writes it to disk in the tape artifact format (the same
//! versioned, checksummed encoding the artifact store uses), reads the
//! file back, replays it through the simulator and verifies the result is
//! bit-identical to direct execution.
//!
//! ```text
//! cargo run --release --example trace_capture [benchmark] [out.nblt]
//! ```

use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::driver::{run_compiled, run_tape};
use nonblocking_loads::trace::tape::TraceTape;
use nonblocking_loads::trace::workloads::{build, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "eqntott".to_string());
    let path = std::env::args().nth(2).map_or_else(
        || std::env::temp_dir().join(format!("{bench}.nblt")),
        Into::into,
    );

    // 1. Generate + compile + capture.
    let program = build(&bench, Scale::full()).ok_or("unknown benchmark")?;
    let compiled = compile(&program, 10)?;
    let tape = TraceTape::record(&compiled);
    std::fs::write(&path, tape.to_bytes())?;
    let size = std::fs::metadata(&path)?.len();
    println!(
        "captured {} instructions to {} ({size} bytes, {:.1} B/inst)",
        tape.len(),
        path.display(),
        size as f64 / tape.len() as f64
    );

    // 2. Direct simulation for reference.
    let cfg = SimConfig::baseline(HwConfig::Fc(2)).at_latency(10);
    let direct = run_compiled(&bench, &compiled, &cfg)?;
    println!("direct simulation:   MCPI {:.6}", direct.mcpi);

    // 3. Read the file back and replay it.
    let loaded = TraceTape::from_bytes(&std::fs::read(&path)?)?;
    println!(
        "tape header: name={} latency={}",
        loaded.name(),
        loaded.load_latency()
    );
    let replayed = run_tape(loaded.name(), &loaded, &cfg)?;
    println!(
        "replayed simulation: MCPI {:.6} ({} instructions)",
        replayed.mcpi, replayed.instructions
    );

    assert_eq!(loaded, tape, "the file must decode to the recorded tape");
    assert_eq!(replayed, direct, "replay must be bit-identical");
    println!("replay is bit-identical to direct execution ✓");
    Ok(())
}
