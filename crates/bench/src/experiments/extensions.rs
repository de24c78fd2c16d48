//! Extension experiments beyond the paper's evaluation — directions its
//! text sketches but never measures.
//!
//! * **E-NBW — non-blocking write allocate.** §2.4 lists write-buffer
//!   entries among the possible destinations of fetch data "for merging
//!   with write data when writing into a write-allocate cache", but every
//!   write-allocate datapoint in the paper (`mc=0 + wma`) stalls. Here
//!   store misses occupy an MSHR non-blockingly, quantifying how much of
//!   the write-allocate penalty is an artifact of blocking stores.
//! * **E-ASSOC — set associativity vs. fetch-per-set limits.** §4.2
//!   remarks that a set-associative in-cache-MSHR implementation could
//!   support multiple fetches per set, "however, by implementing a
//!   set-associative cache, most of these concurrent conflict misses
//!   might be eliminated in the first place." This sweep measures that
//!   conjecture on su2cor across direct-mapped / 2-way / 4-way / fully
//!   associative caches, with and without the fs=1 restriction — and
//!   finds it only half true: the steady conflict misses disappear, the
//!   simultaneous same-set fetches do not.
//!
//! Each study is a benchmark × variant grid run on the shared parallel
//! engine; the tables print from the input-ordered results.

use super::{programs_for, Ctx, ExhibitError};
use nbl_core::geometry::CacheGeometry;
use nbl_sim::config::{HwConfig, SimConfig};
use std::io::Write;

/// E-NBW: non-blocking write allocation on the store-heavy benchmarks.
pub fn nonblocking_write_allocate(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Extension E-NBW: non-blocking write-miss allocation =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>10} {:>14} {:>14}",
        "bench", "mc=0 + wma", "mc=0", "fc=2", "fc=2 + nb-wma", "wma recovered"
    );
    let benches = ["xlisp", "tomcatv", "compress", "su2cor"];
    let grid = ctx.mcpi_grid(
        &programs_for(&benches, ctx.scale)?,
        &[
            SimConfig::baseline(HwConfig::Mc0Wma),
            SimConfig::baseline(HwConfig::Mc0),
            SimConfig::baseline(HwConfig::Fc(2)),
            SimConfig::baseline(HwConfig::FcWma(2)),
        ],
    )?;
    for (bench, row) in benches.iter().zip(&grid) {
        let [wma_blocking, around_blocking, fc2, fc2_nbw] = row[..] else {
            return Err(ExhibitError::new(
                format!("E-NBW row for {bench}"),
                "grid row is not 4 columns wide",
            ));
        };
        // How much of the (blocking) write-allocate overhead does the
        // non-blocking version eliminate, relative to write-around fc=2?
        let blocking_overhead = wma_blocking - around_blocking;
        let nb_overhead = fc2_nbw - fc2;
        let recovered = if blocking_overhead > 1e-9 {
            format!("{:.0}%", 100.0 * (1.0 - nb_overhead / blocking_overhead))
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "{:>10} {:>12.3} {:>10.3} {:>10.3} {:>14.3} {:>14}",
            bench, wma_blocking, around_blocking, fc2, fc2_nbw, recovered
        );
    }
    let _ = writeln!(out);
    Ok(())
}

/// E-ASSOC: associativity removes the conflicts that per-set fetch limits
/// choke on.
pub fn associativity_vs_fetch_limits(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Extension E-ASSOC: associativity vs per-set fetch limits (su2cor) =="
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>10}",
        "ways", "fs=1", "no restrict", "fs=1 cost"
    );
    const WAYS: [u32; 4] = [1, 2, 4, 256];
    let mut cfgs: Vec<SimConfig> = Vec::new();
    for ways in WAYS {
        let geom = CacheGeometry::new(8 * 1024, 32, ways)
            .map_err(|e| ExhibitError::new(format!("E-ASSOC geometry, {ways} ways"), e))?;
        cfgs.push(SimConfig::baseline(HwConfig::Fs(1)).with_geometry(geom));
        cfgs.push(SimConfig::baseline(HwConfig::NoRestrict).with_geometry(geom));
    }
    let grid = ctx.mcpi_grid(&programs_for(&["su2cor"], ctx.scale)?, &cfgs)?;
    for (i, ways) in WAYS.into_iter().enumerate() {
        let (fs1, inf) = (grid[0][2 * i], grid[0][2 * i + 1]);
        let label = if ways == 256 {
            "full".to_string()
        } else {
            ways.to_string()
        };
        let _ = writeln!(
            out,
            "{:>8} {:>10.3} {:>12.3} {:>9.2}x",
            label,
            fs1,
            inf,
            fs1 / inf.max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "(a measured refinement of the paper's §4.2 conjecture: associativity\n\
         does remove the steady conflict MISSES — the no-restrict column\n\
         falls — but the aligned streams still cross line boundaries\n\
         together, so simultaneous same-set FETCHES remain and a per-set\n\
         limit keeps hurting; under full associativity a per-set limit\n\
         degenerates into one fetch for the whole cache)\n"
    );
    Ok(())
}

/// E-L2: a two-level hierarchy. The paper stops at the first-level cache
/// ("we are limiting our studies to first-level cache configurations which
/// are feasible for on-chip implementation"); this measures whether its
/// central ranking survives when a 256 KB L2 turns most L1 misses into
/// 6-cycle hits and stretches true memory trips to 40 cycles.
pub fn two_level_hierarchy(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Extension E-L2: 256KB L2 (6-cycle hit, 40-cycle miss) =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>18} {:>10} {:>10} {:>10} {:>12}",
        "bench", "hierarchy", "mc=0", "mc=1", "fc=2", "no restrict"
    );
    let benches = ["doduc", "tomcatv", "xlisp"];
    let hws = [
        HwConfig::Mc0,
        HwConfig::Mc(1),
        HwConfig::Fc(2),
        HwConfig::NoRestrict,
    ];
    // Columns: the four configurations flat, then the four L2 variants.
    let cfgs: Vec<SimConfig> = [false, true]
        .into_iter()
        .flat_map(|with_l2| {
            hws.clone().map(|hw| {
                let cfg = SimConfig::baseline(hw);
                if with_l2 {
                    cfg.with_penalty(40).with_l2(256 * 1024, 6)
                } else {
                    cfg
                }
            })
        })
        .collect();
    let grid = ctx.mcpi_grid(&programs_for(&benches, ctx.scale)?, &cfgs)?;
    for (bench, row) in benches.iter().zip(&grid) {
        for (h, label) in ["flat 16cy", "L2 6/40cy"].into_iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>10} {:>18} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
                bench,
                label,
                row[4 * h],
                row[4 * h + 1],
                row[4 * h + 2],
                row[4 * h + 3],
            );
        }
    }
    let _ = writeln!(
        out,
        "(the organization ranking survives the hierarchy everywhere, but the\n\
         L2 only helps working sets it can hold: doduc (~57 KB) improves,\n\
         while tomcatv's pure streams miss the L2 too and now pay 40 cycles —\n\
         the Fig. 18 lesson that a longer effective penalty erodes the\n\
         non-blocking win, restated in hierarchy form)\n"
    );
    Ok(())
}

/// E-VICTIM: a small fully associative victim buffer (Jouppi 1990 — the
/// same author's conflict-miss fix) next to the direct-mapped L1, against
/// the conflict-dominated benchmarks. How close does a 4-entry buffer get
/// to the fully associative cache of Fig. 10?
pub fn victim_buffer(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Extension E-VICTIM: victim buffer vs associativity (mc=1) =="
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>10} {:>10} {:>12}",
        "bench", "DM", "DM+4v", "DM+16v", "fully assoc"
    );
    let benches = ["xlisp", "su2cor", "doduc"];
    let fa = CacheGeometry::fully_associative(8 * 1024, 32)
        .map_err(|e| ExhibitError::new("E-VICTIM geometry", e))?;
    let cfgs = [
        SimConfig::baseline(HwConfig::Mc(1)),
        SimConfig::baseline(HwConfig::Mc(1)).with_victim_buffer(4),
        SimConfig::baseline(HwConfig::Mc(1)).with_victim_buffer(16),
        SimConfig::baseline(HwConfig::Mc(1)).with_geometry(fa),
    ];
    let grid = ctx.mcpi_grid(&programs_for(&benches, ctx.scale)?, &cfgs)?;
    for (bench, row) in benches.iter().zip(&grid) {
        let _ = writeln!(
            out,
            "{:>10} {:>8.3} {:>10.3} {:>10.3} {:>12.3}",
            bench, row[0], row[1], row[2], row[3],
        );
    }
    let _ = writeln!(
        out,
        "(victim buffers shine exactly where Jouppi 1990 predicted: su2cor's\n\
         conflicts come from a few lock-step streams evicting each other, so a\n\
         4-entry buffer matches — even beats — full associativity; xlisp's\n\
         conflicts are scattered across the whole heap, and only real\n\
         associativity removes them)\n"
    );
    Ok(())
}

/// Runs all extensions.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    nonblocking_write_allocate(ctx, out)?;
    associativity_vs_fetch_limits(ctx, out)?;
    two_level_hierarchy(ctx, out)?;
    victim_buffer(ctx, out)
}
