//! Figures 5, 7, 8 (doduc), 9 (xlisp), 10 (xlisp, fully associative),
//! 11 (eqntott), 12 (tomcatv), 15 is in its own module, 16 (doduc, 64 KB)
//! and 17 (doduc, 16-byte lines): baseline MCPI-vs-latency sweeps under
//! the seven legend configurations.

use super::{Ctx, ExhibitError};
use nbl_core::geometry::CacheGeometry;
use nbl_mem::memory::PipelinedMemory;
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::report;
use nbl_sim::sweep::Grid;
use std::io::Write;

fn baseline() -> SimConfig {
    SimConfig::baseline(HwConfig::NoRestrict)
}

/// The doduc baseline sweep behind Figs. 5, 7 and 8, simulated once per
/// invocation and shared through the context — the compile cache would
/// make a rerun cheap to build, but not to simulate (42 cells).
fn doduc_sweep(ctx: &Ctx) -> Result<&Grid, ExhibitError> {
    if let Some(sweep) = ctx.doduc_sweep.get() {
        return Ok(sweep);
    }
    let sweep = ctx.baseline_sweep("doduc", &baseline())?;
    Ok(ctx.doduc_sweep.get_or_init(|| sweep))
}

fn emit_sweep(
    ctx: &Ctx,
    out: &mut dyn Write,
    fig: &str,
    title: &str,
    sweep: &Grid,
) -> Result<(), ExhibitError> {
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(out, "{}", report::mcpi_vs_latency_table(sweep));
    let _ = writeln!(out, "{}", report::mcpi_vs_latency_chart(sweep));
    ctx.write_csv(fig, &report::grid_csv(sweep))?;
    ctx.write_json(fig, &report::grid_json(sweep))
}

/// Fig. 5: baseline miss CPI for doduc (sweep shared with Figs. 7–8).
pub fn fig5(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let sweep = doduc_sweep(ctx)?;
    emit_sweep(
        ctx,
        out,
        "fig5",
        "Figure 5: baseline miss CPI for doduc",
        sweep,
    )
}

/// Fig. 7: stall-cycle breakdown for doduc (share of MCPI from structural
/// hazards).
pub fn fig7(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let sweep = doduc_sweep(ctx)?;
    let _ = writeln!(out, "== Figure 7: stall cycle breakdown for doduc ==");
    let _ = writeln!(out, "{}", report::structural_share_table(sweep));
    Ok(())
}

/// Fig. 8: baseline miss rate for doduc (primary+secondary / secondary).
pub fn fig8(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let sweep = doduc_sweep(ctx)?;
    let _ = writeln!(out, "== Figure 8: baseline miss rate for doduc ==");
    let _ = writeln!(out, "{}", report::miss_rate_table(sweep));
    Ok(())
}

/// Fig. 9: baseline miss CPI for xlisp.
pub fn fig9(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let sweep = ctx.baseline_sweep("xlisp", &baseline())?;
    emit_sweep(
        ctx,
        out,
        "fig9",
        "Figure 9: baseline miss CPI for xlisp",
        &sweep,
    )
}

/// Fig. 10: miss CPI for xlisp with a fully associative 8 KB cache.
pub fn fig10(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let geom = CacheGeometry::fully_associative(8 * 1024, 32)
        .map_err(|e| ExhibitError::new("fig10 geometry", e))?;
    let sweep = ctx.baseline_sweep("xlisp", &baseline().with_geometry(geom))?;
    emit_sweep(
        ctx,
        out,
        "fig10",
        "Figure 10: miss CPI for xlisp, fully associative cache",
        &sweep,
    )
}

/// Fig. 11: baseline miss CPI for eqntott.
pub fn fig11(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let sweep = ctx.baseline_sweep("eqntott", &baseline())?;
    emit_sweep(
        ctx,
        out,
        "fig11",
        "Figure 11: baseline miss CPI for eqntott",
        &sweep,
    )
}

/// Fig. 12: baseline miss CPI for tomcatv.
pub fn fig12(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let sweep = ctx.baseline_sweep("tomcatv", &baseline())?;
    emit_sweep(
        ctx,
        out,
        "fig12",
        "Figure 12: baseline miss CPI for tomcatv",
        &sweep,
    )
}

/// Fig. 16: miss CPI for doduc with a 64 KB data cache.
pub fn fig16(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let geom = CacheGeometry::direct_mapped(64 * 1024, 32)
        .map_err(|e| ExhibitError::new("fig16 geometry", e))?;
    let sweep = ctx.baseline_sweep("doduc", &baseline().with_geometry(geom))?;
    emit_sweep(
        ctx,
        out,
        "fig16",
        "Figure 16: miss CPI for doduc, 64KB cache",
        &sweep,
    )
}

/// Fig. 17: miss CPI for doduc with 16-byte lines (14-cycle penalty,
/// per the paper's §5.2 pipelined memory).
pub fn fig17(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let geom = CacheGeometry::direct_mapped(8 * 1024, 16)
        .map_err(|e| ExhibitError::new("fig17 geometry", e))?;
    let base = baseline()
        .with_geometry(geom)
        .with_penalty(PipelinedMemory::penalty_for_line(16));
    let sweep = ctx.baseline_sweep("doduc", &base)?;
    emit_sweep(
        ctx,
        out,
        "fig17",
        "Figure 17: miss CPI for doduc, 16-byte lines",
        &sweep,
    )
}
