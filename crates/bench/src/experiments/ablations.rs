//! Ablation studies for the design choices DESIGN.md calls out — not
//! exhibits from the paper, but quantifications of modeling decisions the
//! paper's prose asserts qualitatively.
//!
//! 1. **Victim claiming time** (in-cache MSHR storage): §2.3 stores MSHR
//!    state in the line being fetched, so the victim dies at *miss* time.
//!    Comparing `InCache` against the otherwise-identical `fs=ways`
//!    register file isolates the cost of those early evictions.
//! 2. **Write-miss policy**: `mc=0 + wma` vs `mc=0` across the most
//!    store-heavy benchmarks — what the paper's top curve actually buys.
//! 3. **Secondary-miss merging**: one target field vs unlimited fields at
//!    unlimited entries — the pure value of merging, with fetch counts
//!    held equal.
//! 4. **Memory pipelining**: the paper assumes a fully pipelined memory;
//!    this sweep inserts a minimum gap between fetch completions (a
//!    bandwidth-limited bus) and measures how much of the non-blocking
//!    benefit depends on that assumption.
//!
//! Each section is a small benchmark × variant grid; the grids run on the
//! shared parallel engine and print from the input-ordered results.

use super::{programs_for, Ctx, ExhibitError};
use nbl_core::limit::Limit;
use nbl_core::mshr::TargetPolicy;
use nbl_sim::config::{HwConfig, SimConfig};
use std::io::Write;

/// Prints all the ablations.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let _ = writeln!(out, "== Ablations ==");

    // 1. In-cache storage vs discrete MSHRs at the same per-set limit.
    let _ = writeln!(
        out,
        "\n-- victim claimed at miss time (in-cache) vs fill time (fs=1) --"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>10}",
        "bench", "fs=1", "in-cache", "penalty"
    );
    let benches = ["su2cor", "doduc", "tomcatv"];
    let grid = ctx.mcpi_grid(
        &programs_for(&benches, ctx.scale)?,
        &[
            SimConfig::baseline(HwConfig::Fs(1)),
            SimConfig::baseline(HwConfig::InCache),
        ],
    )?;
    for (bench, row) in benches.iter().zip(&grid) {
        let (fs1, inc) = (row[0], row[1]);
        let _ = writeln!(
            out,
            "{:>10} {:>10.3} {:>10.3} {:>9.1}%",
            bench,
            fs1,
            inc,
            100.0 * (inc / fs1 - 1.0)
        );
    }

    // 1b. Narrow read port: extra fill cycles for in-cache storage.
    let _ = writeln!(
        out,
        "\n-- in-cache MSHR read-port width (su2cor, extra fill cycles) --"
    );
    let _ = writeln!(out, "{:>10} {:>9} {:>9} {:>9}", "", "+0cy", "+2cy", "+4cy");
    {
        let cfgs: Vec<SimConfig> = [0u32, 2, 4]
            .into_iter()
            .map(|k| SimConfig::baseline(HwConfig::InCacheNarrowPort(k)))
            .collect();
        let grid = ctx.mcpi_grid(&programs_for(&["su2cor"], ctx.scale)?, &cfgs)?;
        let _ = write!(out, "{:>10}", "MCPI");
        for m in &grid[0] {
            let _ = write!(out, " {m:>8.3}");
        }
        let _ = writeln!(out);
    }

    // 2. Write-miss allocate cost on store-heavy codes.
    let _ = writeln!(
        out,
        "\n-- write-around vs write-miss-allocate (blocking cache) --"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>10}",
        "bench", "mc=0", "mc=0+wma", "overhead"
    );
    let benches = ["xlisp", "tomcatv", "compress"];
    let grid = ctx.mcpi_grid(
        &programs_for(&benches, ctx.scale)?,
        &[
            SimConfig::baseline(HwConfig::Mc0),
            SimConfig::baseline(HwConfig::Mc0Wma),
        ],
    )?;
    for (bench, row) in benches.iter().zip(&grid) {
        let (around, alloc) = (row[0], row[1]);
        let _ = writeln!(
            out,
            "{:>10} {:>10.3} {:>12.3} {:>9.1}%",
            bench,
            around,
            alloc,
            100.0 * (alloc / around - 1.0)
        );
    }

    // 3. Pure value of secondary-miss merging (entries unlimited).
    let _ = writeln!(
        out,
        "\n-- secondary-miss merging: 1 target field vs unlimited --"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>10}",
        "bench", "1 field", "unlimited", "gain"
    );
    let benches = ["doduc", "mdljdp2", "tomcatv"];
    let grid = ctx.mcpi_grid(
        &programs_for(&benches, ctx.scale)?,
        &[
            SimConfig::baseline(HwConfig::Targets(TargetPolicy::explicit(Limit::Finite(1)))),
            SimConfig::baseline(HwConfig::Targets(TargetPolicy::explicit(Limit::Unlimited))),
        ],
    )?;
    for (bench, row) in benches.iter().zip(&grid) {
        let (one, unl) = (row[0], row[1]);
        let _ = writeln!(
            out,
            "{:>10} {:>10.3} {:>10.3} {:>9.1}%",
            bench,
            one,
            unl,
            100.0 * (1.0 - unl / one)
        );
    }

    // 4. Bandwidth-limited memory.
    let _ = writeln!(
        out,
        "\n-- fully pipelined memory vs bandwidth-limited bus (no restrict) --"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>9} {:>9} {:>9} {:>9}",
        "bench", "gap=0", "gap=4", "gap=8", "gap=16"
    );
    let benches = ["tomcatv", "su2cor", "eqntott"];
    let cfgs: Vec<SimConfig> = [0u32, 4, 8, 16]
        .into_iter()
        .map(|gap| SimConfig::baseline(HwConfig::NoRestrict).with_memory_gap(gap))
        .collect();
    let grid = ctx.mcpi_grid(&programs_for(&benches, ctx.scale)?, &cfgs)?;
    for (bench, row) in benches.iter().zip(&grid) {
        let _ = write!(out, "{bench:>10}");
        for m in row {
            let _ = write!(out, " {m:>8.3}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(a 16-cycle completion gap serializes fetches entirely: the paper's\n\
         fully-pipelined assumption is what makes overlap possible at all)\n"
    );
    Ok(())
}
