//! Cell-by-cell cross-validation of the abstract domain against the
//! real memory system.
//!
//! A *cell* is one `(benchmark tape, SimConfig)` pair. The check runs
//! the analyzer over the tape, replays the same tape through the actual
//! engine with the [`AccessOutcome`] tap enabled, and compares verdicts
//! access-by-access: every [`Classification::MustHit`] must have hit
//! (in L1 or the victim buffer — the oracle only gates victim-free
//! configs, but the mapping stays conservative), and every
//! [`Classification::MustMiss`] must have missed. [`Classification::Unknown`]
//! accesses are unconstrained. Any mismatch is a
//! [`CrossCheckViolation`] — evidence that either the abstract domain
//! or the tag-array/replacement implementation is wrong.

use crate::domain::{analyze_tape, Classification, Coverage};
use crate::{OracleConfig, OracleError};
use nbl_core::types::Addr;
use nbl_mem::AccessOutcome;
use nbl_sim::config::SimConfig;
use nbl_sim::driver::{run_tape_probed, RunResult};
use nbl_trace::TraceTape;

/// A disagreement between the oracle and the simulator for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossCheckViolation {
    /// The oracle proved a hit; the simulator observed a miss.
    MustHitMissed {
        /// Instruction index of the access in the tape.
        index: usize,
        /// The accessed address.
        addr: Addr,
    },
    /// The oracle proved a miss; the simulator observed a hit.
    MustMissHit {
        /// Instruction index of the access in the tape.
        index: usize,
        /// The accessed address.
        addr: Addr,
    },
    /// The analyzer and the tap disagree on how many memory accesses
    /// the tape performs — a plumbing bug, reported as its own variant
    /// so it can never masquerade as a clean pass.
    LengthMismatch {
        /// Accesses the analyzer classified.
        analyzed: usize,
        /// Outcomes the tap recorded.
        observed: usize,
    },
}

impl std::fmt::Display for CrossCheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrossCheckViolation::MustHitMissed { index, addr } => {
                write!(
                    f,
                    "must-hit missed at instruction {index} addr {:#x}",
                    addr.0
                )
            }
            CrossCheckViolation::MustMissHit { index, addr } => {
                write!(f, "must-miss hit at instruction {index} addr {:#x}", addr.0)
            }
            CrossCheckViolation::LengthMismatch { analyzed, observed } => {
                write!(
                    f,
                    "access count mismatch: analyzer saw {analyzed}, tap saw {observed}"
                )
            }
        }
    }
}

/// Compares per-access verdicts against observed outcomes.
///
/// `classes` and `outcomes` are both in tape memory-op order (the
/// single-issue in-order core resolves accesses in program order, and
/// the tap records final resolutions only — retried accesses record
/// one outcome at their final resolution). A victim-buffer hit counts
/// as a hit.
pub fn cross_check(
    tape: &TraceTape,
    classes: &[Classification],
    outcomes: &[AccessOutcome],
) -> Vec<CrossCheckViolation> {
    let mut violations = Vec::new();
    if classes.len() != outcomes.len() {
        violations.push(CrossCheckViolation::LengthMismatch {
            analyzed: classes.len(),
            observed: outcomes.len(),
        });
        return violations;
    }
    for (op, (&class, &outcome)) in tape.mem_ops().zip(classes.iter().zip(outcomes)) {
        let hit = matches!(outcome, AccessOutcome::Hit | AccessOutcome::VictimHit);
        match class {
            Classification::MustHit if !hit => {
                violations.push(CrossCheckViolation::MustHitMissed {
                    index: op.index,
                    addr: op.addr,
                });
            }
            Classification::MustMiss if hit => {
                violations.push(CrossCheckViolation::MustMissHit {
                    index: op.index,
                    addr: op.addr,
                });
            }
            _ => {}
        }
    }
    violations
}

/// Outcome of checking one cell: coverage plus any violations.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Geometry label, e.g. `8KB/32B dm`.
    pub geometry: String,
    /// Replacement-policy label.
    pub policy: String,
    /// Hardware-configuration label, e.g. `mc=0` or `fc=2`.
    pub hw: String,
    /// Classification counts from the analyzer walk.
    pub coverage: Coverage,
    /// Cross-check disagreements (empty on a sound pass).
    pub violations: Vec<CrossCheckViolation>,
    /// The probed replay's result (for callers that count simulated
    /// work).
    pub run: RunResult,
}

/// Header of the per-cell coverage CSV, in [`CellReport::csv_row`] order.
pub const CSV_HEADER: &str =
    "bench,geometry,policy,hw,accesses,must_hit,must_miss,unknown,violations\n";

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The fixed-width table header matching [`CellReport::table_row`].
pub fn table_header(hw_width: usize) -> String {
    format!(
        "{:<9} {:<12} {:<7} {:<hw_width$} {:>9} {:>7} {:>7} {:>7} {:>5}",
        "bench", "geometry", "policy", "hw", "accesses", "hit%", "miss%", "unk%", "viol"
    )
}

impl CellReport {
    /// One fixed-width table row (coverage as percentages);
    /// `hw_width` sizes the hardware column.
    pub fn table_row(&self, hw_width: usize) -> String {
        let c = &self.coverage;
        format!(
            "{:<9} {:<12} {:<7} {:<hw_width$} {:>9} {:>6.1} {:>6.1} {:>6.1} {:>6}",
            self.benchmark,
            self.geometry,
            self.policy,
            self.hw,
            c.accesses,
            pct(c.must_hit, c.accesses),
            pct(c.must_miss, c.accesses),
            pct(c.unknown, c.accesses),
            self.violations.len()
        )
    }

    /// One newline-terminated CSV row under [`CSV_HEADER`].
    pub fn csv_row(&self) -> String {
        let c = &self.coverage;
        format!(
            "{},{},{},{},{},{},{},{},{}\n",
            self.benchmark,
            self.geometry,
            self.policy,
            self.hw,
            c.accesses,
            c.must_hit,
            c.must_miss,
            c.unknown,
            self.violations.len()
        )
    }

    /// One JSON object with the same fields as [`Self::csv_row`].
    pub fn json_row(&self) -> String {
        let c = &self.coverage;
        format!(
            "{{\"bench\": \"{}\", \"geometry\": \"{}\", \"policy\": \"{}\", \
             \"hw\": \"{}\", \"accesses\": {}, \"must_hit\": {}, \
             \"must_miss\": {}, \"unknown\": {}, \"violations\": {}}}",
            self.benchmark,
            self.geometry,
            self.policy,
            self.hw,
            c.accesses,
            c.must_hit,
            c.must_miss,
            c.unknown,
            self.violations.len()
        )
    }
}

/// The coverage document for `reports`: cell and violation totals plus
/// one [`CellReport::json_row`] per cell.
pub fn coverage_json(reports: &[CellReport]) -> String {
    let rows: Vec<String> = reports.iter().map(CellReport::json_row).collect();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    format!(
        "{{\n  \"exhibit\": \"oracle\",\n  \"cells\": {},\n  \"violations\": {violations},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.len(),
        rows.join(",\n    ")
    )
}

/// Analyzes `tape` under `cfg` and cross-validates against a probed
/// replay through the real engine.
///
/// # Errors
///
/// [`OracleError::Unsupported`] when `cfg` is outside the model's
/// envelope; [`OracleError::Engine`] when the probed replay fails.
pub fn check_cell(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<CellReport, OracleError> {
    let ocfg = OracleConfig::from_sim(cfg)?;
    let analysis = analyze_tape(tape, &ocfg);
    let (run, outcomes) =
        run_tape_probed(benchmark, tape, cfg).map_err(|e| OracleError::Engine(e.to_string()))?;
    let violations = cross_check(tape, &analysis.classes, &outcomes);
    Ok(CellReport {
        benchmark: benchmark.to_string(),
        geometry: format!(
            "{}KB/{}B {}",
            cfg.geometry.size_bytes() / 1024,
            cfg.geometry.line_bytes(),
            if cfg.geometry.ways() == 1 {
                "dm".to_string()
            } else {
                format!("{}-way", cfg.geometry.ways())
            }
        ),
        policy: cfg.replacement.label().to_string(),
        hw: cfg.hw.label(),
        coverage: analysis.coverage,
        violations,
        run,
    })
}
