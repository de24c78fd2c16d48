//! One module per paper exhibit. Every `run` function prints its tables to
//! the given writer and asserts nothing — the shape checks live in the
//! workspace integration tests; this harness is for regenerating the
//! numbers in EXPERIMENTS.md.

pub mod ablations;
pub mod bench;
pub mod compare;
pub mod extensions;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig18;
pub mod fig19;
pub mod fig4;
pub mod fig6;
pub mod figs_baseline;
pub mod misslife;
pub mod oracle;
pub mod paper;
pub mod replaymodel;
pub mod replsens;

use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::sweep::{Grid, SweepEngine};
use nbl_sim::telemetry::TelemetrySnapshot;
use nbl_sim::{CacheStats, TapeStats};
use nbl_trace::ir::Program;
use nbl_trace::workloads::{build, Scale};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// One registered exhibit: CLI name, one-line description, entry point.
pub struct Exhibit {
    /// CLI name (`figures <name>`).
    pub name: &'static str,
    /// One-line description shown by `figures list`.
    pub about: &'static str,
    /// Entry point: prints tables to the writer, running on the
    /// invocation's context. On failure the error names the grid cell or
    /// phase that broke, so the harness can report it without aborting
    /// the other exhibits.
    pub run: fn(&Ctx, &mut dyn Write) -> Result<(), ExhibitError>,
}

/// A failed exhibit: the grid cell or phase that broke, and why. The
/// harness prefixes the exhibit name when reporting, so one bad cell
/// prints `exhibit fig13 failed at compress @ latency 20: ...` instead
/// of panicking the whole `figures all` run.
#[derive(Debug)]
pub struct ExhibitError {
    /// Where it failed: benchmark / grid cell / phase.
    pub context: String,
    /// The underlying failure, rendered.
    pub cause: String,
}

impl ExhibitError {
    /// Builds an error for the given grid-cell/phase context.
    pub fn new(context: impl Into<String>, cause: impl std::fmt::Display) -> ExhibitError {
        ExhibitError {
            context: context.into(),
            cause: cause.to_string(),
        }
    }
}

impl std::fmt::Display for ExhibitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at {}: {}", self.context, self.cause)
    }
}

impl std::error::Error for ExhibitError {}

/// Every exhibit the harness can regenerate, in presentation order.
/// Adding an exhibit is one entry here — `figures list`, `help`, `all`,
/// and argument validation all derive from this table.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "compare",
        about: "paper-vs-measured MCPI comparison for the headline cells",
        run: compare::run,
    },
    Exhibit {
        name: "fig4",
        about: "scheduled load latency vs achieved overlap",
        run: fig4::run,
    },
    Exhibit {
        name: "fig5",
        about: "baseline miss CPI vs latency for doduc",
        run: figs_baseline::fig5,
    },
    Exhibit {
        name: "fig6",
        about: "miss decomposition for doduc",
        run: fig6::run,
    },
    Exhibit {
        name: "fig7",
        about: "stall-cycle breakdown for doduc",
        run: figs_baseline::fig7,
    },
    Exhibit {
        name: "fig8",
        about: "baseline miss rate for doduc",
        run: figs_baseline::fig8,
    },
    Exhibit {
        name: "fig9",
        about: "baseline miss CPI vs latency for xlisp",
        run: figs_baseline::fig9,
    },
    Exhibit {
        name: "fig10",
        about: "xlisp on a fully associative 8KB cache",
        run: figs_baseline::fig10,
    },
    Exhibit {
        name: "fig11",
        about: "baseline miss CPI vs latency for eqntott",
        run: figs_baseline::fig11,
    },
    Exhibit {
        name: "fig12",
        about: "baseline miss CPI vs latency for tomcatv",
        run: figs_baseline::fig12,
    },
    Exhibit {
        name: "fig13",
        about: "MSHR organizations compared at equal cost",
        run: fig13::run,
    },
    Exhibit {
        name: "fig14",
        about: "in-cache MSHR variants",
        run: fig14::run,
    },
    Exhibit {
        name: "fig15",
        about: "victim buffering and write-miss policy",
        run: fig15::run,
    },
    Exhibit {
        name: "fig16",
        about: "doduc with a 64KB data cache",
        run: figs_baseline::fig16,
    },
    Exhibit {
        name: "fig17",
        about: "doduc with 16-byte lines",
        run: figs_baseline::fig17,
    },
    Exhibit {
        name: "fig18",
        about: "miss CPI vs miss penalty",
        run: fig18::run,
    },
    Exhibit {
        name: "fig19",
        about: "bandwidth-limited memory sensitivity",
        run: fig19::run,
    },
    Exhibit {
        name: "ablations",
        about: "mechanism ablation grid across benchmarks",
        run: ablations::run,
    },
    Exhibit {
        name: "extensions",
        about: "beyond-the-paper extension sweeps",
        run: extensions::run,
    },
    Exhibit {
        name: "misslife",
        about: "traced miss-lifecycle transaction summaries",
        run: misslife::run,
    },
    Exhibit {
        name: "oracle",
        about: "static must-hit/may-miss coverage, cross-checked against the simulator",
        run: oracle::run,
    },
    Exhibit {
        name: "replsens",
        about: "replacement policy x MSHR config x latency sensitivity",
        run: replsens::run,
    },
    Exhibit {
        name: "replaymodel",
        about: "stalling vs replay-cause pipeline x MSHR config x latency",
        run: replaymodel::run,
    },
    Exhibit {
        name: "bench",
        about: "record/replay pipeline timing on a pinned grid (BENCH_sweep.json)",
        run: bench::run,
    },
];

/// Everything one `figures` invocation runs on, built once from its
/// flags and environment and passed to every exhibit.
pub struct Ctx {
    /// The sweep engine every exhibit runs on: its pool fans
    /// `(benchmark, latency, configuration)` cells across threads
    /// (`NBL_THREADS` overrides the count) and its store compiles and
    /// records each `(benchmark, latency)` pair at most once per
    /// invocation, however many exhibits replay it.
    pub engine: SweepEngine,
    /// Experiment sizing (`--quick`).
    pub scale: RunScale,
    /// `--csv DIR`: sweep-producing exhibits also write `<dir>/<name>.csv`.
    pub csv_dir: Option<PathBuf>,
    /// `--json DIR`: exhibits also write machine-readable
    /// `<dir>/<name>.json` (typically `results/`).
    pub json_dir: Option<PathBuf>,
    /// The `bench` exhibit's options.
    pub bench: BenchOpts,
    /// The artifact-store directory (`--store` or `NBL_STORE_DIR`).
    pub store_dir: Option<PathBuf>,
    /// The doduc baseline sweep behind Figs. 5, 7 and 8, simulated once.
    doduc_sweep: OnceLock<Grid>,
    /// Counters of engines that exhibits built for themselves.
    retired: Mutex<Counters>,
}

/// What an engine counted: its simulated work and its memory-tier caches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Simulated work (runs, instructions, arena use).
    pub work: TelemetrySnapshot,
    /// Compile-cache counters.
    pub compile: CacheStats,
    /// Tape-cache counters.
    pub tapes: TapeStats,
}

impl Counters {
    fn of(engine: &SweepEngine) -> Counters {
        Counters {
            work: engine.telemetry().snapshot(),
            compile: engine.cache().stats(),
            tapes: engine.tapes().stats(),
        }
    }

    /// `self` plus the counters of `other`; the resident tape footprint
    /// stays `self`'s.
    fn plus(mut self, other: Counters) -> Counters {
        self.work = self.work + other.work;
        self.compile.hits += other.compile.hits;
        self.compile.compiles += other.compile.compiles;
        self.tapes.hits += other.tapes.hits;
        self.tapes.records += other.tapes.records;
        self.tapes.evictions += other.tapes.evictions;
        self
    }
}

impl Ctx {
    /// A context on `engine` at `scale`, with no side outputs and default
    /// `bench` options.
    pub fn new(engine: SweepEngine, scale: RunScale) -> Ctx {
        Ctx {
            engine,
            scale,
            csv_dir: None,
            json_dir: None,
            bench: BenchOpts::default(),
            store_dir: None,
            doduc_sweep: OnceLock::new(),
            retired: Mutex::new(Counters::default()),
        }
    }

    /// Adds the counters of an engine an exhibit built for itself to this
    /// invocation's totals.
    pub fn retire(&self, engine: &SweepEngine) {
        let mut retired = self.retired.lock().expect("retired counters lock poisoned");
        *retired = retired.plus(Counters::of(engine));
    }

    /// The invocation's counters so far: the context's engine plus every
    /// retired one.
    pub fn counters(&self) -> Counters {
        Counters::of(&self.engine)
            .plus(*self.retired.lock().expect("retired counters lock poisoned"))
    }

    /// Writes `contents` to `<csv dir>/<name>.csv` if CSV output is on.
    pub fn write_csv(&self, name: &str, contents: &str) -> Result<(), ExhibitError> {
        write_side(self.csv_dir.as_deref(), name, "csv", contents)
    }

    /// Writes `contents` to `<json dir>/<name>.json` if JSON output is on.
    pub fn write_json(&self, name: &str, contents: &str) -> Result<(), ExhibitError> {
        write_side(self.json_dir.as_deref(), name, "json", contents)
    }

    /// Runs a `benchmarks × configs` grid on the engine and returns
    /// `mcpi[bench][config]`, rows in benchmark order — the workhorse
    /// behind the ablation and extension tables.
    pub fn mcpi_grid(
        &self,
        programs: &[Program],
        cfgs: &[SimConfig],
    ) -> Result<Vec<Vec<f64>>, ExhibitError> {
        let jobs: Vec<(&Program, SimConfig)> = programs
            .iter()
            .flat_map(|p| cfgs.iter().map(move |c| (p, c.clone())))
            .collect();
        let names: Vec<&str> = programs.iter().map(|p| p.name.as_str()).collect();
        let results = self
            .engine
            .run_many(&jobs)
            .map_err(|e| ExhibitError::new(format!("grid over {}", names.join(", ")), e))?;
        Ok(results
            .chunks(cfgs.len())
            .map(|row| row.iter().map(|r| r.mcpi).collect())
            .collect())
    }

    /// The full baseline latency sweep (7 configurations × 6 latencies)
    /// for one benchmark — the data behind Figs. 5–12 and 15–17. The 42
    /// cells run in parallel and the six compilations are shared with
    /// every other exhibit.
    pub fn baseline_sweep(&self, name: &str, base: &SimConfig) -> Result<Grid, ExhibitError> {
        let p = program(name, self.scale)?;
        self.engine
            .latency_sweep(&p, base, &HwConfig::baseline_seven(), &LATENCIES)
            .map_err(|e| ExhibitError::new(format!("{name} baseline latency sweep"), e))
    }
}

fn write_side(
    dir: Option<&Path>,
    name: &str,
    ext: &str,
    contents: &str,
) -> Result<(), ExhibitError> {
    if let Some(dir) = dir {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::write(&path, contents)
            .map_err(|e| ExhibitError::new(format!("writing {}", path.display()), e))?;
    }
    Ok(())
}

/// Command-line knobs for the `bench` exhibit.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Best-of-N repetitions for each repeatable timed phase.
    pub reps: usize,
    /// ISO date stamped into the trajectory entry. Supplied by the
    /// caller (`--bench-date` or `NBL_BENCH_DATE`) rather than read from
    /// the wall clock, keeping result-producing code clock-free.
    pub date: String,
}

impl Default for BenchOpts {
    /// Best-of-2, dated from `NBL_BENCH_DATE` (or `"unknown"`).
    fn default() -> BenchOpts {
        BenchOpts {
            reps: 2,
            date: std::env::var("NBL_BENCH_DATE").unwrap_or_else(|_| "unknown".to_string()),
        }
    }
}

/// The load latencies the paper sweeps.
pub const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// Experiment sizing selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// ~40 k instructions per run: seconds, for smoke checks.
    Quick,
    /// ~400 k instructions per run: the defaults used for EXPERIMENTS.md.
    Full,
}

impl RunScale {
    /// The workload scale for this run size.
    pub fn workload_scale(self) -> Scale {
        match self {
            RunScale::Quick => Scale::quick(),
            RunScale::Full => Scale::full(),
        }
    }
}

/// Builds a benchmark program; an unknown name is an [`ExhibitError`]
/// (the registry only names known benchmarks, so this marks a typo in
/// the exhibit itself, reported with its grid context).
pub fn program(name: &str, scale: RunScale) -> Result<Program, ExhibitError> {
    build(name, scale.workload_scale())
        .ok_or_else(|| ExhibitError::new(format!("benchmark {name}"), "unknown benchmark"))
}

/// Builds several benchmark programs.
pub fn programs_for(names: &[&str], scale: RunScale) -> Result<Vec<Program>, ExhibitError> {
    names.iter().map(|name| program(name, scale)).collect()
}
