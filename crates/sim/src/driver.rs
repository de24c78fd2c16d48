//! The simulation driver: compile a workload for the configured load
//! latency, stream it through the configured processor, and collect the
//! paper's metrics.

use crate::config::{ProcessorKind, SimConfig};
use nbl_core::geometry::CacheGeometry;
use nbl_core::inst::DynInst;
use nbl_cpu::core_engine::{Core, EngineConfig, EngineError, L2Params};
use nbl_cpu::issue::{IssueEngine, IssuePolicy};
use nbl_cpu::stats::ReplayAttribution;
use nbl_mem::event::MemTrace;
use nbl_mem::AccessOutcome;
use nbl_sched::compile::{compile, CompileError};
use nbl_trace::exec::Executor;
use nbl_trace::ir::Program;
use nbl_trace::machine::{CompiledProgram, InstSink};
use nbl_trace::tape::TraceTape;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Any failure a simulation run can report: the compiler model rejected
/// the program, the engine hit a model invariant violation, or a pool
/// worker's grid cell panicked.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scheduling compiler failed.
    Compile(CompileError),
    /// The execution engine failed mid-run.
    Engine(EngineError),
    /// A sweep cell panicked on a pool worker; the panic was caught so the
    /// sweep fails instead of the process.
    WorkerPanic {
        /// Input index of the grid cell that panicked.
        job: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Compile(e) => write!(f, "compile error: {e}"),
            SimError::Engine(e) => write!(f, "engine error: {e}"),
            SimError::WorkerPanic { job, message } => {
                write!(f, "sweep cell {job} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<CompileError> for SimError {
    fn from(e: CompileError) -> SimError {
        SimError::Compile(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> SimError {
        SimError::Engine(e)
    }
}

impl From<crate::pool::JobPanic> for SimError {
    fn from(p: crate::pool::JobPanic) -> SimError {
        SimError::WorkerPanic {
            job: p.job,
            message: p.message,
        }
    }
}

/// Fig. 6-style occupancy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightSummary {
    /// Fraction of run time with ≥1 miss in flight ("MIF").
    pub frac_time_with_misses: f64,
    /// Distribution of miss counts 1..6 and 7+, given ≥1 in flight.
    pub miss_dist: [f64; 7],
    /// Distribution of fetch counts 1..6 and 7+, given ≥1 in flight.
    pub fetch_dist: [f64; 7],
    /// Maximum simultaneous misses.
    pub max_misses: usize,
    /// Maximum simultaneous fetches.
    pub max_fetches: usize,
}

/// All measurements from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Hardware configuration label.
    pub config: String,
    /// Processor-model label (`"single"` unless the run swept models).
    pub model: String,
    /// Replacement-policy label (`"lru"` unless the run swept it).
    pub replacement: String,
    /// Scheduled load latency the code was compiled for.
    pub load_latency: u32,
    /// Miss penalty.
    pub miss_penalty: u32,
    /// Instructions executed.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Miss CPI — the paper's metric.
    pub mcpi: f64,
    /// Stall cycles from true data dependencies.
    pub data_dep_stalls: u64,
    /// Stall cycles from MSHR structural hazards.
    pub structural_stalls: u64,
    /// Stall cycles from blocking miss service (`mc=0`, `+wma`).
    pub blocking_stalls: u64,
    /// Fraction of MCPI due to structural stalls (Fig. 7).
    pub structural_fraction: f64,
    /// Loads that took a structural-stall miss.
    pub structural_stall_misses: u64,
    /// Primary + secondary load miss rate (Fig. 8), as a fraction of loads.
    pub load_miss_rate: f64,
    /// Secondary-only load miss rate (Fig. 8).
    pub secondary_miss_rate: f64,
    /// In-flight occupancy summary (Fig. 6).
    pub inflight: InFlightSummary,
    /// Spill memory operations added by the compiler, per static program.
    pub static_spill_ops: usize,
    /// Per-cause replay counts and stall attribution (all zero unless the
    /// run used the replaying processor model).
    pub replay: ReplayAttribution,
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] lat={} pen={}: MCPI {:.3}",
            self.benchmark, self.config, self.load_latency, self.miss_penalty, self.mcpi
        )
    }
}

/// The dynamic instruction stream a run feeds its engine from.
#[derive(Clone, Copy)]
enum Stream<'a> {
    /// Replayed off a recorded tape (the product path).
    Tape(&'a TraceTape),
    /// Re-interpreted from the compiled program's script through the
    /// [`Executor`] (the reference path).
    Interpreted(&'a CompiledProgram),
}

impl Stream<'_> {
    /// Feeds the whole stream into `cpu` (still call
    /// [`IssueEngine::finish`] afterwards).
    fn feed(self, cpu: &mut IssueEngine) -> Result<(), EngineError> {
        match self {
            Stream::Tape(tape) => cpu.run_tape(tape),
            Stream::Interpreted(compiled) => {
                let mut sink = EngineSink { cpu, error: None };
                Executor::new(compiled).run(&mut sink);
                sink.error.map_or(Ok(()), Err)
            }
        }
    }

    fn load_latency(self) -> u32 {
        match self {
            Stream::Tape(tape) => tape.load_latency(),
            Stream::Interpreted(compiled) => compiled.load_latency,
        }
    }

    fn static_spill_ops(self) -> usize {
        match self {
            Stream::Tape(tape) => tape.static_spill_ops(),
            Stream::Interpreted(compiled) => compiled.blocks.iter().map(|b| b.spill_ops).sum(),
        }
    }
}

/// [`InstSink`] adapter: `InstSink::exec` is infallible, so an engine
/// error is held sticky — execution degenerates to a no-op for the rest of
/// the stream and the driver reports the first error after the run.
struct EngineSink<'a> {
    cpu: &'a mut IssueEngine,
    error: Option<EngineError>,
}

impl InstSink for EngineSink<'_> {
    #[inline]
    fn exec(&mut self, inst: DynInst) {
        if self.error.is_none() {
            if let Err(e) = self.cpu.push(inst) {
                self.error = Some(e);
            }
        }
    }
}

fn l2_params(cfg: &SimConfig) -> Option<L2Params> {
    cfg.l2.map(|(size, hit_penalty)| L2Params {
        geometry: CacheGeometry::direct_mapped(size, cfg.geometry.line_bytes())
            .expect("valid L2 geometry"),
        hit_penalty,
        replacement: cfg.replacement,
    })
}

fn summarize(
    benchmark: &str,
    cfg: &SimConfig,
    static_spill_ops: usize,
    cpu: &IssueEngine,
) -> RunResult {
    let stats = *cpu.stats();
    let counters = *cpu.cache().counters();
    let sampler = cpu.sampler();
    // Blocking-cache misses never reach the cache counters (the rejection
    // is resolved by a synchronous fill), so add them back for miss rates.
    let loads = stats.loads.max(1);
    let missing =
        counters.load_primary_misses + counters.load_secondary_misses + stats.blocking_load_misses;
    RunResult {
        benchmark: benchmark.to_string(),
        config: cfg.hw.label(),
        model: cfg.processor.label().to_string(),
        replacement: cfg.replacement.label(),
        load_latency: cfg.load_latency,
        miss_penalty: cfg.miss_penalty,
        instructions: stats.instructions,
        loads: stats.loads,
        stores: stats.stores,
        cycles: cpu.now().0,
        mcpi: stats.mcpi(),
        data_dep_stalls: stats.data_dep_stall_cycles,
        structural_stalls: stats.structural_stall_cycles,
        blocking_stalls: stats.blocking_stall_cycles,
        structural_fraction: stats.structural_fraction(),
        structural_stall_misses: stats.structural_stall_misses,
        load_miss_rate: missing as f64 / loads as f64,
        secondary_miss_rate: counters.load_secondary_misses as f64 / loads as f64,
        inflight: InFlightSummary {
            frac_time_with_misses: sampler.fraction_with_misses_in_flight(),
            miss_dist: sampler.miss_distribution_given_busy(),
            fetch_dist: sampler.fetch_distribution_given_busy(),
            max_misses: sampler.max_misses(),
            max_fetches: sampler.max_fetches(),
        },
        static_spill_ops,
        replay: *cpu.attribution(),
    }
}

/// Pooled processors a sweep worker keeps beyond one run. The bench grid
/// cycles through a handful of hardware configurations per thread, so a
/// small cap covers them all without hoarding memory on wide sweeps.
const ARENA_CAP: usize = 16;

thread_local! {
    /// Per-worker bump arena of issue engines, keyed by the configuration
    /// and issue policy they were built for. A run takes a matching engine
    /// out (resetting it — bit-identical to a fresh build, see
    /// [`IssueEngine::reset`]) and hands it back afterwards, so a warm
    /// worker serves every run of a sweep without constructing simulator
    /// state on the heap.
    static WORKER_ARENA: RefCell<Vec<((EngineConfig, IssuePolicy), IssueEngine)>> =
        const { RefCell::new(Vec::new()) };

    /// This thread's arena builds, read by [`arena_counts`].
    static ARENA_BUILDS: Cell<u64> = const { Cell::new(0) };

    /// This thread's arena reuses, read by [`arena_counts`].
    static ARENA_REUSES: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic per-thread worker-arena counters: processors built from
/// scratch because no pooled one matched the run's configuration, and
/// runs served by resetting a pooled processor. On a warm worker the
/// build count stays flat run-to-run — the allocation counter the
/// zero-alloc tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaCounts {
    /// Processors built from scratch.
    pub builds: u64,
    /// Runs served by a reset pooled processor.
    pub reuses: u64,
}

impl ArenaCounts {
    /// Builds and reuses between `earlier` and `self`.
    pub fn since(self, earlier: ArenaCounts) -> ArenaCounts {
        ArenaCounts {
            builds: self.builds.saturating_sub(earlier.builds),
            reuses: self.reuses.saturating_sub(earlier.reuses),
        }
    }
}

/// The calling thread's arena counters so far. Per-thread, so a delta
/// taken around work on one thread counts only that work.
pub fn arena_counts() -> ArenaCounts {
    ArenaCounts {
        builds: ARENA_BUILDS.with(Cell::get),
        reuses: ARENA_REUSES.with(Cell::get),
    }
}

/// Takes an engine for `(config, policy)` from this worker's arena (reset,
/// so its behavior is bit-identical to a fresh one), or builds one on a
/// miss.
fn acquire_engine(config: &EngineConfig, policy: IssuePolicy) -> IssueEngine {
    let pooled = WORKER_ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena
            .iter()
            .position(|((c, p), _)| c == config && *p == policy)
            .map(|pos| arena.swap_remove(pos).1)
    });
    match pooled {
        Some(mut cpu) => {
            cpu.reset();
            ARENA_REUSES.with(|c| c.set(c.get() + 1));
            cpu
        }
        None => {
            ARENA_BUILDS.with(|c| c.set(c.get() + 1));
            IssueEngine::new(config.clone(), policy)
        }
    }
}

/// Returns an engine to this worker's arena for reuse (dropped if the
/// arena is full). The engine may be dirty — acquisition resets it.
fn release_engine(key: (EngineConfig, IssuePolicy), cpu: IssueEngine) {
    WORKER_ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        if arena.len() < ARENA_CAP {
            arena.push((key, cpu));
        }
    });
}

/// Runs `body` on an engine for `(config, policy)` taken from this
/// worker's arena and hands the engine back afterwards (one that failed
/// is dropped instead).
fn with_engine<T>(
    config: EngineConfig,
    policy: IssuePolicy,
    body: impl FnOnce(&mut IssueEngine) -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let mut cpu = acquire_engine(&config, policy);
    let out = body(&mut cpu)?;
    release_engine((config, policy), cpu);
    Ok(out)
}

/// The engine configuration for `cfg`; `perfect` overrides the cache to
/// hit on every access (the dual-issue IPC probe).
fn engine_config(cfg: &SimConfig, perfect: bool) -> EngineConfig {
    let mut cache = cfg.hw.cache_config(cfg.geometry);
    cache.victim_entries = cfg.victim_entries;
    cache.replacement = cfg.replacement;
    EngineConfig {
        cache,
        miss_penalty: cfg.miss_penalty,
        perfect_cache: perfect,
        memory_gap: cfg.memory_gap,
        l2: l2_params(cfg),
    }
}

/// Drives the run (finish + summarize) once the stream has been fed,
/// shared by the single and fused paths.
fn finish_single(
    benchmark: &str,
    cfg: &SimConfig,
    static_spill_ops: usize,
    cpu: &mut IssueEngine,
) -> Result<(RunResult, Option<MemTrace>), EngineError> {
    cpu.finish()?;
    let trace = cpu.take_mem_trace();
    Ok((summarize(benchmark, cfg, static_spill_ops, cpu), trace))
}

/// What one single-width run observed: its result plus whatever the
/// armed taps recorded.
struct SingleRun {
    result: RunResult,
    trace: Option<MemTrace>,
    outcomes: Option<Vec<AccessOutcome>>,
}

/// One single-width run (whichever `cfg.processor` policy) of `stream`
/// on a pooled engine, with miss-lifecycle tracing armed when
/// `trace_ring` is set and the outcome tap armed when `probe` is.
fn run_single(
    benchmark: &str,
    stream: Stream<'_>,
    cfg: &SimConfig,
    trace_ring: Option<usize>,
    probe: bool,
) -> Result<SingleRun, EngineError> {
    debug_assert_eq!(stream.load_latency(), cfg.load_latency);
    with_engine(engine_config(cfg, false), cfg.processor.policy(), |cpu| {
        if let Some(ring) = trace_ring {
            cpu.enable_mem_tracing(ring);
        }
        if probe {
            cpu.enable_outcome_tap();
        }
        stream.feed(cpu)?;
        let (result, trace) = finish_single(benchmark, cfg, stream.static_spill_ops(), cpu)?;
        Ok(SingleRun {
            result,
            trace,
            outcomes: cpu.take_outcomes(),
        })
    })
}

/// Replays a recorded tape through the single-issue processor under `cfg`
/// (the tape must have been recorded at `cfg.load_latency`). Produces a
/// [`RunResult`] bit-identical to interpreting the same compiled program.
///
/// # Errors
///
/// [`EngineError`] if the engine hit a model invariant violation mid-run.
pub fn run_tape(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<RunResult, EngineError> {
    run_single(benchmark, Stream::Tape(tape), cfg, None, false).map(|run| run.result)
}

/// [`run_tape`] with the per-access outcome tap armed: returns the run
/// result plus one [`AccessOutcome`] per finally-resolved memory access,
/// in program order (the *n*-th outcome belongs to the *n*-th memory
/// operation of the tape). This is the observation half of the static
/// cache oracle's cell-by-cell cross-check (DESIGN.md §18); the tap adds
/// one null-check per access, so the replayed timing is identical to an
/// untapped run.
///
/// # Errors
///
/// [`EngineError`] if the engine hit a model invariant violation mid-run.
pub fn run_tape_probed(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<(RunResult, Vec<AccessOutcome>), EngineError> {
    let run = run_single(benchmark, Stream::Tape(tape), cfg, None, true)?;
    Ok((run.result, run.outcomes.unwrap_or_default()))
}

/// Replays one tape through several hardware configurations in a single
/// lockstep walk ([`Core::replay_fused`]): the tape's barrier stream is
/// decoded once and each entry is applied to every configuration before
/// moving on, instead of one full traversal per configuration. Every
/// configuration must share the tape's load latency; results are
/// bit-identical to calling [`run_tape`] per configuration, in order.
///
/// # Errors
///
/// [`EngineError`] if any configuration hit a model invariant violation —
/// the whole group is discarded as a unit (no partial results).
pub fn run_tape_fused(
    benchmark: &str,
    tape: &TraceTape,
    cfgs: &[SimConfig],
) -> Result<Vec<RunResult>, EngineError> {
    if cfgs.len() == 1 {
        return Ok(vec![run_tape(benchmark, tape, &cfgs[0])?]);
    }
    debug_assert!(cfgs.iter().all(|c| c.load_latency == tape.load_latency()));
    // The lockstep walk decodes a single-issue schedule; any other
    // processor model replays per configuration instead (identical
    // results, one traversal each).
    if cfgs
        .iter()
        .any(|c| c.processor != ProcessorKind::SingleInOrder)
    {
        return cfgs
            .iter()
            .map(|cfg| run_tape(benchmark, tape, cfg))
            .collect();
    }
    let engine_configs: Vec<EngineConfig> = cfgs.iter().map(|c| engine_config(c, false)).collect();
    let mut cpus: Vec<IssueEngine> = engine_configs
        .iter()
        .map(|c| acquire_engine(c, IssuePolicy::SingleInOrder))
        .collect();
    {
        let mut cores: Vec<&mut Core> = cpus.iter_mut().map(IssueEngine::core_mut).collect();
        Core::replay_fused(tape, &mut cores)?;
    }
    let mut results = Vec::with_capacity(cfgs.len());
    for (cpu, cfg) in cpus.iter_mut().zip(cfgs) {
        let (result, _) = finish_single(benchmark, cfg, tape.static_spill_ops(), cpu)?;
        results.push(result);
    }
    for (config, cpu) in engine_configs.into_iter().zip(cpus) {
        release_engine((config, IssuePolicy::SingleInOrder), cpu);
    }
    Ok(results)
}

/// Runs one compiled program through the single-issue processor under
/// `cfg` (the program must already be compiled for `cfg.load_latency`):
/// records its tape with one `Executor` walk and replays it. Callers
/// that replay a pair many times fetch the tape once from an
/// [`ArtifactStore`](crate::store::ArtifactStore) and call [`run_tape`];
/// use [`run_compiled_interpreted`] to force the interpreter.
///
/// # Errors
///
/// [`EngineError`] if the engine hit a model invariant violation mid-run.
pub fn run_compiled(
    benchmark: &str,
    compiled: &CompiledProgram,
    cfg: &SimConfig,
) -> Result<RunResult, EngineError> {
    run_tape(benchmark, &TraceTape::record(compiled), cfg)
}

/// [`run_compiled`] without the tape fast path: re-interprets the
/// compiled program's script through the [`Executor`]. Kept public as the
/// reference implementation the equivalence tests and the `figures bench`
/// exhibit compare the replay path against.
///
/// # Errors
///
/// [`EngineError`] if the engine hit a model invariant violation mid-run.
pub fn run_compiled_interpreted(
    benchmark: &str,
    compiled: &CompiledProgram,
    cfg: &SimConfig,
) -> Result<RunResult, EngineError> {
    run_single(benchmark, Stream::Interpreted(compiled), cfg, None, false).map(|run| run.result)
}

/// Compiles `program` for `cfg.load_latency` and runs it.
///
/// # Errors
///
/// [`SimError`] from the compiler model or the engine.
pub fn run_program(program: &Program, cfg: &SimConfig) -> Result<RunResult, SimError> {
    let compiled = compile(program, cfg.load_latency)?;
    Ok(run_compiled(&program.name, &compiled, cfg)?)
}

/// [`run_tape`] with miss-lifecycle tracing enabled: the returned
/// [`MemTrace`] holds the last `ring_capacity` raw events and the full
/// [`nbl_mem::event::MissLifecycleStats`] aggregate of the run.
///
/// # Errors
///
/// [`EngineError`] if the engine hit a model invariant violation mid-run.
pub fn run_tape_traced(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
    ring_capacity: usize,
) -> Result<(RunResult, MemTrace), EngineError> {
    let run = run_single(
        benchmark,
        Stream::Tape(tape),
        cfg,
        Some(ring_capacity),
        false,
    )?;
    Ok((run.result, run.trace.expect("tracing was enabled")))
}

/// Result of a dual-issue run (paper §6 / Fig. 19).
#[derive(Debug, Clone, PartialEq)]
pub struct DualRunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Hardware configuration label.
    pub config: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles with the real cache.
    pub cycles: u64,
    /// Cycles with a perfect cache (same stream).
    pub perfect_cycles: u64,
    /// Average instructions per cycle on the perfect-cache machine — the
    /// IPC the paper's scaling rule multiplies by.
    pub ipc: f64,
    /// Memory CPI: `(cycles − perfect_cycles) / instructions`.
    pub mcpi: f64,
}

/// Runs `program` on the dual-issue machine: once with a perfect cache to
/// obtain the machine's ideal cycle count and IPC, once for real.
///
/// # Errors
///
/// [`SimError`] from the compiler model or the engine.
pub fn run_dual(program: &Program, cfg: &SimConfig) -> Result<DualRunResult, SimError> {
    let compiled = compile(program, cfg.load_latency)?;
    Ok(run_dual_compiled(&program.name, &compiled, cfg)?)
}

/// Both dual-issue passes of `stream` — perfect-cache, then real — on
/// pooled engines, summarized into a [`DualRunResult`].
fn run_dual_stream(
    benchmark: &str,
    stream: Stream<'_>,
    cfg: &SimConfig,
) -> Result<DualRunResult, EngineError> {
    debug_assert_eq!(stream.load_latency(), cfg.load_latency);
    let pass = |cpu: &mut IssueEngine| -> Result<(), EngineError> {
        stream.feed(cpu)?;
        cpu.finish()
    };
    let perfect = with_engine(engine_config(cfg, true), IssuePolicy::DualInOrder, |cpu| {
        pass(cpu)?;
        Ok(cpu.now())
    })?;
    with_engine(
        engine_config(cfg, false),
        IssuePolicy::DualInOrder,
        |real| {
            pass(real)?;
            let instructions = real.stats().instructions;
            Ok(DualRunResult {
                benchmark: benchmark.to_string(),
                config: cfg.hw.label(),
                instructions,
                cycles: real.now().0,
                perfect_cycles: perfect.0,
                ipc: instructions as f64 / perfect.0.max(1) as f64,
                mcpi: real.mcpi_against(perfect),
            })
        },
    )
}

/// The dual-issue run on a recorded tape (which must match
/// `cfg.load_latency`): both passes — perfect-cache and real — replay the
/// same tape, so the stream is materialized once for the pair.
///
/// # Errors
///
/// [`EngineError`] if either pass hit a model invariant violation.
pub fn run_dual_tape(
    benchmark: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<DualRunResult, EngineError> {
    run_dual_stream(benchmark, Stream::Tape(tape), cfg)
}

/// The dual-issue run on an already-compiled program (which must match
/// `cfg.load_latency`): records its tape once and replays it for both
/// the perfect-cache and real passes; use
/// [`run_dual_compiled_interpreted`] to force the interpreter.
///
/// # Errors
///
/// [`EngineError`] if either pass hit a model invariant violation.
pub fn run_dual_compiled(
    benchmark: &str,
    compiled: &CompiledProgram,
    cfg: &SimConfig,
) -> Result<DualRunResult, EngineError> {
    run_dual_tape(benchmark, &TraceTape::record(compiled), cfg)
}

/// [`run_dual_compiled`] without the tape fast path: both passes
/// re-interpret the compiled program's script. The reference
/// implementation the equivalence tests compare the replay path against.
///
/// # Errors
///
/// [`EngineError`] if either pass hit a model invariant violation.
pub fn run_dual_compiled_interpreted(
    benchmark: &str,
    compiled: &CompiledProgram,
    cfg: &SimConfig,
) -> Result<DualRunResult, EngineError> {
    run_dual_stream(benchmark, Stream::Interpreted(compiled), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use nbl_core::tag_array::ReplacementKind;
    use nbl_trace::workloads::{build, Scale};

    fn quick(name: &str, hw: HwConfig) -> RunResult {
        let p = build(name, Scale::quick()).unwrap();
        run_program(&p, &SimConfig::baseline(hw)).unwrap()
    }

    #[test]
    fn blocking_is_worst_for_a_streaming_benchmark() {
        let blocking = quick("tomcatv", HwConfig::Mc0);
        let wma = quick("tomcatv", HwConfig::Mc0Wma);
        let hum = quick("tomcatv", HwConfig::Mc(1));
        let best = quick("tomcatv", HwConfig::NoRestrict);
        assert!(wma.mcpi >= blocking.mcpi, "wma adds store-miss stalls");
        assert!(blocking.mcpi > hum.mcpi, "hit-under-miss must help tomcatv");
        assert!(
            hum.mcpi > best.mcpi,
            "unrestricted must beat hit-under-miss"
        );
        assert!(best.mcpi < 0.5 * blocking.mcpi, "tomcatv overlaps heavily");
    }

    #[test]
    fn stall_breakdown_sums_to_mcpi() {
        let r = quick("doduc", HwConfig::Mc(2));
        let total = r.data_dep_stalls + r.structural_stalls + r.blocking_stalls;
        assert!((r.mcpi - total as f64 / r.instructions as f64).abs() < 1e-9);
        assert!(r.instructions > 10_000);
        assert!(r.cycles >= r.instructions);
    }

    #[test]
    fn miss_rates_counted_for_blocking_caches_too() {
        let blocking = quick("tomcatv", HwConfig::Mc0);
        let best = quick("tomcatv", HwConfig::NoRestrict);
        assert!(blocking.load_miss_rate > 0.05);
        // The unrestricted cache classifies same-line loads issued during
        // a fetch as *secondary misses*; under a blocking cache the fetch
        // completes first and they hit — so its combined rate is at least
        // as high (paper Fig. 8 plots both components for this reason).
        assert!(best.load_miss_rate >= blocking.load_miss_rate - 0.02);
        assert!(best.secondary_miss_rate > 0.0);
        // Blocking caches have nothing in flight.
        assert_eq!(blocking.inflight.max_fetches, 0);
        assert!(best.inflight.max_fetches >= 2);
    }

    #[test]
    fn dual_issue_runs_and_reports_ipc() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let d = run_dual(&p, &SimConfig::baseline(HwConfig::NoRestrict)).unwrap();
        assert!(
            d.ipc > 1.0,
            "dual issue must beat 1 IPC on eqntott: {}",
            d.ipc
        );
        assert!(d.ipc <= 2.0);
        assert!(d.mcpi >= 0.0);
        assert!(d.cycles >= d.perfect_cycles);
    }

    /// The probed replay records every access, in order, exactly once:
    /// its outcome sequence equals the one from pushing the executor's
    /// stream through a tapped engine, both on the direct-mapped kernel
    /// (dm `mc=0`, dm `fc=2`) and on the generic walk (4-way LRU `fc=2`).
    #[test]
    fn probed_replay_matches_pushed_stream_outcomes() {
        let four_way = CacheGeometry::new(8 * 1024, 32, 4).unwrap();
        let cfgs = [
            SimConfig::baseline(HwConfig::Mc0),
            SimConfig::baseline(HwConfig::Fc(2)),
            SimConfig::baseline(HwConfig::Fc(2))
                .with_geometry(four_way)
                .with_replacement(ReplacementKind::Lru),
        ];
        for name in ["eqntott", "tomcatv"] {
            let p = build(name, Scale::quick()).unwrap();
            for cfg in &cfgs {
                let compiled = compile(&p, cfg.load_latency).unwrap();
                let tape = TraceTape::record(&compiled);
                let (result, probed) = run_tape_probed(name, &tape, cfg).unwrap();

                let mut pushed =
                    IssueEngine::new(engine_config(cfg, false), IssuePolicy::SingleInOrder);
                pushed.enable_outcome_tap();
                for inst in tape.iter() {
                    pushed.push(inst).unwrap();
                }
                pushed.finish().unwrap();
                let reference = pushed.take_outcomes().unwrap();

                let label = format!("{name} {} {}", cfg.geometry, cfg.hw.label());
                assert_eq!(
                    probed.len() as u64,
                    result.loads + result.stores,
                    "{label}: one outcome per access"
                );
                assert_eq!(probed, reference, "{label}");
            }
        }
    }
}
