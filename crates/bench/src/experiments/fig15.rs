//! Figure 15: baseline miss CPI for su2cor, with the per-set fetch-limit
//! curves (`fs=1`, `fs=2`) added to the usual seven — the paper's
//! in-cache-MSHR-storage study.

use super::{program, Ctx, ExhibitError, LATENCIES};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use std::io::Write;

/// The nine configurations of Fig. 15.
pub fn configs() -> Vec<HwConfig> {
    let mut c = HwConfig::baseline_seven();
    c.insert(3, HwConfig::Fs(1));
    c.insert(4, HwConfig::Fs(2));
    c
}

/// Prints the Fig. 15 sweep.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let p = program("su2cor", ctx.scale)?;
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweep = ctx
        .engine
        .latency_sweep(&p, &base, &configs(), &LATENCIES)
        .map_err(|e| ExhibitError::new("su2cor @ Fig. 15 latencies", e))?;
    let _ = writeln!(
        out,
        "== Figure 15: baseline miss CPI for su2cor (with fs= curves) =="
    );
    let _ = writeln!(out, "{}", report::mcpi_vs_latency_table(&sweep));
    let _ = writeln!(out, "{}", report::mcpi_vs_latency_chart(&sweep));
    ctx.write_csv("fig15", &report::latency_sweep_csv(&sweep))?;
    ctx.write_json("fig15", &report::latency_sweep_json(&sweep))
}
