//! Trace capture and replay: ship a workload as a file.
//!
//! Captures a benchmark's exact dynamic instruction stream to a binary
//! `.nblt` trace (the lineage of the paper's long-address-trace
//! infrastructure), then replays the file through the simulator and
//! verifies the MCPI is bit-identical to direct execution.
//!
//! ```text
//! cargo run --release --example trace_capture [benchmark] [out.nblt]
//! ```

use nonblocking_loads::cpu::core_engine::EngineConfig;
use nonblocking_loads::cpu::issue::{IssueEngine, IssuePolicy};
use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::driver::run_compiled;
use nonblocking_loads::trace::dump::{TraceReader, TraceWriter};
use nonblocking_loads::trace::exec::Executor;
use nonblocking_loads::trace::machine::InstSink;
use nonblocking_loads::trace::workloads::{build, Scale};
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "eqntott".to_string());
    let path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| format!("/tmp/{bench}.nblt"));

    // 1. Generate + compile + capture.
    let program = build(&bench, Scale::full()).ok_or("unknown benchmark")?;
    let compiled = compile(&program, 10)?;
    let mut writer = TraceWriter::new(BufWriter::new(File::create(&path)?), &bench, 10)?;
    Executor::new(&compiled).run(&mut writer);
    let n = writer.finish()?;
    let size = std::fs::metadata(&path)?.len();
    println!(
        "captured {n} instructions to {path} ({size} bytes, {:.1} B/inst)",
        size as f64 / n as f64
    );

    // 2. Direct simulation for reference.
    let cfg = SimConfig::baseline(HwConfig::Fc(2));
    let direct = run_compiled(&bench, &compiled, &cfg)?;
    println!("direct simulation:   MCPI {:.6}", direct.mcpi);

    // 3. Replay the file through a fresh processor.
    let mut cpu = IssueEngine::new(
        EngineConfig {
            cache: cfg.hw.cache_config(cfg.geometry),
            miss_penalty: cfg.miss_penalty,
            perfect_cache: false,
            memory_gap: 0,
            l2: None,
        },
        IssuePolicy::SingleInOrder,
    );
    struct Sink<'a>(&'a mut IssueEngine);
    impl InstSink for Sink<'_> {
        fn exec(&mut self, inst: nonblocking_loads::core::inst::DynInst) {
            self.0.push(inst).expect("replay hits no engine error");
        }
    }
    let reader = TraceReader::new(BufReader::new(File::open(&path)?))?;
    println!(
        "trace header: name={} latency={}",
        reader.name(),
        reader.load_latency()
    );
    let replayed = reader.replay_into(&mut Sink(&mut cpu))?;
    cpu.finish()?;
    println!(
        "replayed simulation: MCPI {:.6} ({replayed} instructions)",
        cpu.stats().mcpi()
    );

    assert_eq!(replayed, n);
    assert!(
        (cpu.stats().mcpi() - direct.mcpi).abs() < 1e-12,
        "replay must be bit-identical"
    );
    println!("replay is bit-identical to direct execution ✓");
    Ok(())
}
