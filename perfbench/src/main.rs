//! `nbl-perfbench`: the repository benchmark. One run measures one
//! workload for a fixed time and prints a JSON summary as its last line:
//! the end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! from a traced run (`--trace 1`). See `README.md` beside this crate
//! for the workloads, the metrics and which layer moves which metric.
//!
//! ```text
//! nbl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tmp <dir>]
//! ```

mod metrics;
mod spans;
mod traced;
mod workload;

use metrics::{median, Metric, Outcome, END_TO_END, PER_LAYER};
use nbl_sim::pool::JobPool;
use nbl_sim::store::{compiled_fingerprint, ArtifactStore, DiskTier};
use nbl_sim::sweep::SweepEngine;
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::Scale;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{engine_pass, resident_tapes, Plan, Workload};

/// Set-up is repeated at least this many times per run; the median is
/// reported.
const SETUP_MIN_REPS: usize = 5;
/// Short set-ups repeat until they have taken this long in total…
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(2);
/// …or this many repetitions have run.
const SETUP_MAX_REPS: usize = 50;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tmp) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tmp: tmp
            .unwrap_or_else(|| PathBuf::from(format!(".perfbench_tmp/run-{}", std::process::id()))),
    })
}

/// Worker threads: the host's parallelism, read directly so that no
/// `NBL_THREADS` setting changes what is measured.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Writes every tape of `plan` into a disk store at `dir`, one tape per
/// worker at a time, so priming never holds the whole tape set and
/// cannot set the run's resident high-water mark.
pub fn prime_store(plan: &Plan, dir: &Path, threads: usize) -> Result<(), String> {
    let disk = DiskTier::new(dir);
    JobPool::new(threads)
        .try_run(plan.pairs.len(), |i| {
            let (p, lat) = plan.pairs[i];
            let compiled = nbl_sched::compile(&plan.programs[p], lat).map_err(|e| e.to_string())?;
            let tape = TraceTape::record(&compiled);
            disk.write_tape(&tape, compiled_fingerprint(&compiled))
                .map_err(|e| format!("priming {}: {e}", tape.name()))
        })
        .map_err(|e| format!("priming pool: {e}"))?
        .into_iter()
        .collect()
}

/// The end-to-end run: repeated set-up, one reference pass, then timed
/// passes for `seconds`.
fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let threads = host_threads();
    let store_dir = args.tmp.join("store");
    if args.workload == Workload::AssocStore {
        prime_store(
            &Plan::new(args.workload, Scale::full(), args.seed)?,
            &store_dir,
            threads,
        )?;
    }
    let mut setups = Vec::new();
    let mut current: Option<(SweepEngine, Plan)> = None;
    let setup_phase = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setup_phase.elapsed() < SETUP_MIN_TOTAL)
    {
        // Free the previous set-up's tapes first: set-ups must not stack.
        drop(current.take());
        let t0 = Instant::now();
        let plan = Plan::new(args.workload, Scale::full(), args.seed)?;
        let engine = match args.workload {
            Workload::AssocStore => {
                SweepEngine::with_store(threads, ArtifactStore::with_disk(&store_dir, false))
            }
            _ => SweepEngine::new(threads),
        };
        resident_tapes(&engine, &plan)?;
        setups.push(t0.elapsed().as_secs_f64());
        current = Some((engine, plan));
    }
    let (engine, plan) = current.expect("at least one set-up ran");
    let mut out = Outcome::default();
    if args.workload == Workload::AssocStore {
        // Every tape must come from the store, none re-recorded.
        out.failed += engine.tapes().stats().records;
    }
    let cells = plan.cells() as u64;
    out.attempted += cells;
    let reference = match engine_pass(&engine, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reference pass failed: {e}");
            out.failed += cells;
            return Ok(out);
        }
    };
    eprintln!(
        "digest {}: {:016x}",
        args.workload.name(),
        reference.digest()
    );
    if args.seed == 0 && reference.digest() != args.workload.pinned_digest() {
        eprintln!(
            "digest mismatch: pinned {:016x}",
            args.workload.pinned_digest()
        );
        out.failed += cells;
    }
    out.failed += reference.violating_cells() as u64;
    let mut rates = Vec::new();
    let timed = Instant::now();
    let mut passes = 0;
    while passes == 0 || timed.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        let t0 = Instant::now();
        let pass = engine_pass(&engine, &plan);
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += cells;
        match pass {
            Ok(pass) => {
                out.failed += pass.mismatches(&reference) as u64;
                rates.push(pass.instructions() as f64 / wall / 1e6);
            }
            Err(e) => {
                eprintln!("timed pass failed: {e}");
                out.failed += cells;
            }
        }
    }
    let store = engine.store().disk_stats();
    out.failed += store.corruptions + store.io_errors;
    eprintln!(
        "{} setups (s): {:?}; {} passes (Minst/s): {:?}",
        setups.len(),
        setups,
        rates.len(),
        rates
    );
    out.metrics = vec![
        Metric::new("setup_s", median(&setups)),
        Metric::new("sim_minst_per_s", median(&rates)),
        Metric::new("peak_rss_mib", peak_rss_mib()?),
    ];
    Ok(out)
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nbl-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = ScratchDir(args.tmp.clone());
    let result = if args.trace {
        traced::run(
            args.workload,
            args.seed,
            args.seconds,
            &args.tmp,
            host_threads(),
        )
    } else {
        run_untraced(&args)
    };
    drop(scratch);
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result {
        Ok(outcome) if outcome.reports(expected) => println!("{}", outcome.to_json()),
        Ok(_) => {
            eprintln!("nbl-perfbench: the run did not report the listed metrics");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("nbl-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
