//! Figure 18 (table): MCPI as a function of the miss penalty for tomcatv
//! at scheduled load latency 10 — penalties 4, 8, 16, 32, 64, 128 under
//! the seven legend configurations. The paper's point: blocking MCPI is
//! linear in the penalty; non-blocking MCPI is strongly super-linear
//! because overlap capacity exhausts.

use super::paper::{FIG18, FIG18_PENALTIES};
use super::{program, Ctx, ExhibitError};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use std::io::Write;

/// The miss penalties the paper sweeps.
pub const PENALTIES: [u32; 6] = [4, 8, 16, 32, 64, 128];

/// Prints the Fig. 18 table.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let p = program("tomcatv", ctx.scale)?;
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let sweep = ctx
        .engine
        .penalty_sweep(&p, &base, &HwConfig::baseline_seven(), &PENALTIES)
        .map_err(|e| ExhibitError::new("tomcatv @ Fig. 18 penalties", e))?;
    let _ = writeln!(
        out,
        "== Figure 18: MCPI vs miss penalty for tomcatv (latency 10) =="
    );
    let _ = writeln!(out, "{}", report::mcpi_vs_penalty_table(&sweep));
    ctx.write_csv("fig18", &report::grid_csv(&sweep))?;
    ctx.write_json("fig18", &report::grid_json(&sweep))?;
    // The paper's numbers, for side-by-side comparison.
    let _ = writeln!(out, "paper's Fig. 18 (same layout):");
    let _ = write!(out, "{:>14}", "config");
    for p in FIG18_PENALTIES {
        let _ = write!(out, "{p:>10}");
    }
    let _ = writeln!(out);
    for (config, row) in FIG18 {
        let _ = write!(out, "{config:>14}");
        for v in row {
            let _ = write!(out, "{v:>10.3}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    Ok(())
}
