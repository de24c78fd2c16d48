//! `nbl-oracle` — the CI gate around the static cache oracle.
//!
//! Runs the golden grid — {eqntott, doduc, tomcatv} × {8 KB/32 B
//! direct-mapped, 8 KB/32 B 4-way} × every [`ReplacementKind`] ×
//! {`mc=0`, `fc=2`, `no restrict`} at quick scale, 72 cells — and
//! cross-validates the analyzer against the simulator cell by cell.
//!
//! Flags:
//!
//! * `--deny` — exit nonzero on any cross-check violation (CI mode);
//! * `--csv PATH` — write per-cell coverage rows;
//! * `--json PATH` — write the machine-readable report.

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_oracle::{check_cell, coverage_json, table_header, CellReport, OracleError, CSV_HEADER};
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::store::ArtifactStore;
use nbl_trace::workloads::{self, Scale};
use std::process::ExitCode;

/// Benchmarks of the golden grid (one integer-heavy, two float-heavy —
/// the cheap end of the detailed five, so the gate stays fast).
const BENCHMARKS: [&str; 3] = ["eqntott", "doduc", "tomcatv"];

struct Args {
    deny: bool,
    csv: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        csv: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--csv" => args.csv = Some(it.next().ok_or("--csv needs a path")?),
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--help" | "-h" => {
                println!(
                    "nbl-oracle [--deny] [--csv PATH] [--json PATH]\n\
                     static must-hit/may-miss cache oracle, cross-validated against the simulator"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn geometries() -> Vec<CacheGeometry> {
    // 8 KB / 32 B lines, direct-mapped and 4-way: both paper shapes.
    vec![
        CacheGeometry::new(8 * 1024, 32, 1).expect("valid dm geometry"),
        CacheGeometry::new(8 * 1024, 32, 4).expect("valid 4-way geometry"),
    ]
}

fn hw_configs() -> Vec<HwConfig> {
    // Blocking, bounded non-blocking, and unbounded non-blocking: the
    // three fill-timing regimes the window bound must cover.
    vec![HwConfig::Mc0, HwConfig::Fc(2), HwConfig::NoRestrict]
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let artifacts = ArtifactStore::in_memory();
    let mut reports: Vec<CellReport> = Vec::new();
    let mut total_violations = 0u64;

    for bench in BENCHMARKS {
        let program = workloads::build(bench, Scale::quick())
            .ok_or_else(|| format!("unknown benchmark {bench}"))?;
        let base = SimConfig::baseline(HwConfig::Mc0);
        let compiled = artifacts
            .get_or_compile(&program, base.load_latency)
            .map_err(|e| OracleError::Compile(e.to_string()).to_string())?;
        let tape = artifacts.get_or_record(&compiled);
        for geometry in geometries() {
            for policy in ReplacementKind::all() {
                for hw in hw_configs() {
                    let cfg = SimConfig::baseline(hw.clone())
                        .with_geometry(geometry)
                        .with_replacement(policy);
                    let report = check_cell(bench, &tape, &cfg).map_err(|e| e.to_string())?;
                    total_violations += report.violations.len() as u64;
                    for v in report.violations.iter().take(5) {
                        eprintln!(
                            "violation: {bench} {} {} {}: {v}",
                            report.geometry, report.policy, report.hw
                        );
                    }
                    reports.push(report);
                }
            }
        }
    }

    print_table(&reports);
    if let Some(path) = &args.csv {
        let csv: String = reports.iter().map(CellReport::csv_row).collect();
        std::fs::write(path, format!("{CSV_HEADER}{csv}"))
            .map_err(|e| format!("csv write failed: {e}"))?;
    }
    if let Some(path) = &args.json {
        std::fs::write(path, coverage_json(&reports))
            .map_err(|e| format!("json write failed: {e}"))?;
    }
    if total_violations > 0 {
        eprintln!("nbl-oracle: {total_violations} cross-check violation(s)");
        if args.deny {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn print_table(reports: &[CellReport]) {
    println!("{}", table_header(12));
    for r in reports {
        println!("{}", r.table_row(12));
    }
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    println!("{} cells, {violations} violation(s)", reports.len());
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nbl-oracle: {e}");
            ExitCode::FAILURE
        }
    }
}
