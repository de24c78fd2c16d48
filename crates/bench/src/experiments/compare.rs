//! `compare`: measured Fig. 13 numbers side by side with the paper's, for
//! workload calibration and for EXPERIMENTS.md.

use super::paper::fig13_row;
use super::{fig13, Ctx, ExhibitError};
use std::io::Write;

/// Prints measured-vs-paper MCPI and ratios for all 18 benchmarks.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), ExhibitError> {
    let _ = writeln!(
        out,
        "== Paper vs measured: Fig. 13 (MCPI at latency 10; ratio = config/unrestricted) =="
    );
    let _ = writeln!(
        out,
        "{:>10} | {:>11} {:>11} | {:>17} {:>17}",
        "bench", "mc0 (p/m)", "inf (p/m)", "ratios paper", "ratios measured"
    );
    for (name, measured) in fig13::grid(ctx)? {
        let paper = fig13_row(name).ok_or_else(|| {
            ExhibitError::new(
                format!("paper row for {name}"),
                "benchmark missing from the transcribed Fig. 13 table",
            )
        })?;
        let p_inf = paper.mcpi[5];
        let m_inf = measured[5].mcpi.max(1e-9);
        let p_ratios: Vec<String> = paper.mcpi[..5]
            .iter()
            .map(|m| format!("{:.1}", m / p_inf))
            .collect();
        let m_ratios: Vec<String> = measured[..5]
            .iter()
            .map(|r| format!("{:.1}", r.mcpi / m_inf))
            .collect();
        let _ = writeln!(
            out,
            "{:>10} | {:>5.3}/{:<5.3} {:>5.3}/{:<5.3} | {:>17} {:>17}",
            name,
            paper.mcpi[0],
            measured[0].mcpi,
            p_inf,
            m_inf,
            p_ratios.join(" "),
            m_ratios.join(" "),
        );
    }
    let _ = writeln!(out);
    Ok(())
}
