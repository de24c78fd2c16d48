//! Static-oracle coverage: how much of each benchmark's memory stream
//! the abstract must-hit/may-miss analysis (DESIGN.md §18) can classify,
//! across the detailed five benchmarks × {direct-mapped, 4-way} ×
//! every replacement policy × {blocking `mc=0`, non-blocking `fc=2`} —
//! and, as a standing regression gate, that the cross-check against the
//! simulator's per-access outcomes reports **zero violations** in every
//! cell. Blocking cells have a zero-length fill window, where the LRU
//! and FIFO analyses are exact (unknown% = 0); non-blocking cells show
//! the price of fill-timing uncertainty.

use super::{Ctx, ExhibitError};
use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_oracle::{check_cell, coverage_json, table_header, CellReport, CSV_HEADER};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_trace::workloads::{self, DETAILED_FIVE};
use std::io::Write;

/// Runs the coverage grid and writes `oracle.csv` / `oracle.json`.
/// Deterministic (fixed tapes, fixed random-policy seed).
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let geometries = [
        CacheGeometry::new(8 * 1024, 32, 1)
            .map_err(|e| ExhibitError::new("oracle dm geometry", e))?,
        CacheGeometry::new(8 * 1024, 32, 4)
            .map_err(|e| ExhibitError::new("oracle 4-way geometry", e))?,
    ];
    let hws = [HwConfig::Mc0, HwConfig::Fc(2)];
    let (artifacts, telemetry) = (ctx.engine.store(), ctx.engine.telemetry());
    let _ = writeln!(
        out,
        "== Static oracle coverage: must-hit/must-miss/unknown per cell =="
    );
    let _ = writeln!(out, "{}", table_header(6));
    let mut reports = Vec::new();
    for bench in DETAILED_FIVE {
        let program = workloads::build(bench, ctx.scale.workload_scale())
            .ok_or_else(|| ExhibitError::new(format!("oracle {bench}"), "unknown benchmark"))?;
        let base = SimConfig::baseline(HwConfig::Mc0);
        let compiled = artifacts
            .get_or_compile(&program, base.load_latency)
            .map_err(|e| ExhibitError::new(format!("oracle {bench} compile"), e))?;
        let tape = artifacts.get_or_record(&compiled);
        for geometry in geometries {
            for policy in ReplacementKind::all() {
                for hw in &hws {
                    let cfg = SimConfig::baseline(hw.clone())
                        .with_geometry(geometry)
                        .with_replacement(policy);
                    let report =
                        telemetry
                            .track(|| check_cell(bench, &tape, &cfg))
                            .map_err(|e| {
                                ExhibitError::new(
                                    format!("oracle {bench} {} {}", policy.label(), hw.label()),
                                    e,
                                )
                            })?;
                    telemetry.record_result(&cfg, &report.run);
                    let _ = writeln!(out, "{}", report.table_row(6));
                    reports.push(report);
                }
            }
        }
    }
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    let _ = writeln!(
        out,
        "{} cells, {violations} cross-check violation(s)",
        reports.len()
    );
    let csv: String = reports.iter().map(CellReport::csv_row).collect();
    ctx.write_csv("oracle", &format!("{CSV_HEADER}{csv}"))?;
    ctx.write_json("oracle", &coverage_json(&reports))
}
