//! Figure 14 (table): explicit, implicit and hybrid MSHR target layouts
//! for doduc at load latency 10 — MCPI, ratio to the unrestricted cache,
//! and the hardware cost in bits of one MSHR under each layout.
//!
//! Like the paper's table, the hardware has unlimited MSHR entries and the
//! rows/columns vary only the per-MSHR target-field structure:
//! rows = sub-blocks per line, columns = misses per sub-block.

use super::{program, Ctx, ExhibitError};
use nbl_core::geometry::CacheGeometry;
use nbl_core::mshr::cost::MshrCostModel;
use nbl_core::mshr::TargetPolicy;
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_trace::ir::Program;
use std::io::Write;

/// The (sub-blocks, misses-per-sub-block) grid of the paper's Fig. 14:
/// the top row is fully explicit, the left column fully implicit, the
/// diagonal hybrid.
pub const GRID: [(u32, u32); 6] = [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (4, 1)];

/// The near-implicit 8-sub-block point the paper also reports.
pub const IMPLICIT_8: (u32, u32) = (8, 1);

fn policy_for(sub: u32, misses: u32) -> TargetPolicy {
    if misses == 1 && sub > 1 {
        TargetPolicy::implicit_sub_blocks(sub)
    } else if sub == 1 {
        TargetPolicy::explicit(nbl_core::limit::Limit::Finite(misses))
    } else {
        TargetPolicy::hybrid(sub, misses)
    }
}

/// Prints the Fig. 14 table.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let p = program("doduc", ctx.scale)?;
    let geom = CacheGeometry::baseline();
    let costs = MshrCostModel::default();

    // One pool invocation: the unrestricted reference plus every layout.
    let points: Vec<(u32, u32, TargetPolicy)> = GRID
        .iter()
        .copied()
        .chain(std::iter::once(IMPLICIT_8))
        .map(|(sub, misses)| (sub, misses, policy_for(sub, misses)))
        .collect();
    let mut jobs: Vec<(&Program, SimConfig)> =
        vec![(&p, SimConfig::baseline(HwConfig::NoRestrict))];
    jobs.extend(
        points
            .iter()
            .map(|(_, _, pol)| (&p, SimConfig::baseline(HwConfig::Targets(*pol)))),
    );
    let results = ctx
        .engine
        .run_many(&jobs)
        .map_err(|e| ExhibitError::new("doduc @ Fig. 14 target layouts", e))?;
    let unrestricted = results[0].mcpi;

    let _ = writeln!(
        out,
        "== Figure 14: explicit, implicit, and hybrid MSHRs for doduc =="
    );
    let _ = writeln!(
        out,
        "{:>12} {:>14} {:>8} {:>6} {:>10}",
        "sub-blocks", "misses/sub-bl", "MCPI", "ratio", "bits/MSHR"
    );
    for ((sub, misses, policy), r) in points.iter().zip(&results[1..]) {
        let bits = costs
            .register_mshr(*policy, &geom)
            .map(|c| c.bits.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:>12} {:>14} {:>8.3} {:>6.2} {:>10}",
            sub,
            misses,
            r.mcpi,
            r.mcpi / unrestricted,
            bits
        );
    }
    let _ = writeln!(
        out,
        "{:>12} {:>14} {:>8.3} {:>6.2} {:>10}",
        "-", "inf", unrestricted, 1.0, "-"
    );
    let _ = writeln!(out);
    Ok(())
}
