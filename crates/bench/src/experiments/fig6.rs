//! Figure 6: histogram of in-flight misses and fetches for doduc, per
//! scheduled load latency, measured on the unrestricted configuration
//! with the baseline system.

use super::{program, Ctx, ExhibitError, LATENCIES};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use nbl_trace::ir::Program;
use std::io::Write;

/// Prints the Fig. 6 table.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let p = program("doduc", ctx.scale)?;
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let jobs: Vec<(&Program, SimConfig)> = LATENCIES
        .into_iter()
        .map(|lat| (&p, base.clone().at_latency(lat)))
        .collect();
    let results = ctx
        .engine
        .run_many(&jobs)
        .map_err(|e| ExhibitError::new("doduc @ Fig. 6 latencies", e))?;
    let rows: Vec<(u32, &nbl_sim::driver::RunResult)> =
        LATENCIES.into_iter().zip(results.iter()).collect();
    let _ = writeln!(
        out,
        "== Figure 6: in-flight misses and fetches for doduc =="
    );
    let _ = writeln!(out, "{}", report::inflight_table("doduc", &rows));
    Ok(())
}
