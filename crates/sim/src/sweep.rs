//! Parameter sweeps. Every exhibit of the paper is a [`Grid`]: an
//! optional plane axis (replacement policy or processor model) × an x
//! axis (load latency or miss penalty) × hardware configurations.
//!
//! Compilation is shared across hardware configurations — the compiled
//! program depends only on the load latency, so each (benchmark, latency)
//! pair is compiled once and replayed under every configuration, exactly
//! as the paper replays each binary.

use crate::compile_cache::CompileCache;
use crate::config::{HwConfig, ProcessorKind, SimConfig};
use crate::driver::{run_tape_fused, RunResult, SimError};
use crate::pool::JobPool;
use crate::store::{program_fingerprint, result_fingerprint, ArtifactStore};
use crate::tape_cache::TapeCache;
use crate::telemetry::Telemetry;
use nbl_core::tag_array::ReplacementKind;
use nbl_trace::ir::Program;
use nbl_trace::tape::TraceTape;
use std::sync::{Arc, OnceLock};

/// What a grid's x axis varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XAxis {
    /// The scheduled load latency (Figs. 5, 9–17): one compiled program
    /// per value.
    LoadLatency,
    /// The miss penalty at the base load latency (Fig. 18): one compiled
    /// program for every value.
    MissPenalty,
}

/// What a grid's plane axis varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneAxis {
    /// The replacement policy (the `figures replsens` exhibit).
    Policy,
    /// The processor model (the `figures replaymodel` exhibit).
    Model,
}

/// The result of one sweep over one benchmark: planes × x values ×
/// configurations.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Benchmark name.
    pub benchmark: String,
    /// The plane axis and its labels in input order; `None` for a
    /// plane-less grid, whose `rows` hold exactly one plane.
    pub plane: Option<(PlaneAxis, Vec<String>)>,
    /// What the x axis varies.
    pub x_axis: XAxis,
    /// The x values swept, in input order.
    pub xs: Vec<u32>,
    /// Configuration labels, in input order.
    pub configs: Vec<String>,
    /// `rows[p][i][j]` = result in plane `p` at `xs[i]` under
    /// `configs[j]`.
    pub rows: Vec<Vec<Vec<RunResult>>>,
}

impl Grid {
    /// Result lookup by plane label (`None` on a plane-less grid),
    /// configuration label and x value.
    pub fn at(&self, plane: Option<&str>, config: &str, x: u32) -> Option<&RunResult> {
        let p = match (&self.plane, plane) {
            (None, None) => 0,
            (Some((_, labels)), Some(label)) => labels.iter().position(|l| l == label)?,
            _ => return None,
        };
        let i = self.xs.iter().position(|&v| v == x)?;
        let j = self.configs.iter().position(|c| c == config)?;
        self.rows.get(p)?.get(i)?.get(j)
    }
}

/// One benchmark's slice of [`SweepEngine::grid_sweep`]: MCPI-vs-load-
/// latency curves in the plane-less [`Grid`] layout.
#[derive(Debug, Clone)]
pub struct LatencySweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration labels, in input order (one curve each).
    pub configs: Vec<String>,
    /// Latencies swept (the x axis).
    pub latencies: Vec<u32>,
    /// `rows[i][j]` = result at `latencies[i]` under `configs[j]`.
    pub rows: Vec<Vec<RunResult>>,
}

impl From<LatencySweep> for Grid {
    fn from(s: LatencySweep) -> Grid {
        Grid {
            benchmark: s.benchmark,
            plane: None,
            x_axis: XAxis::LoadLatency,
            xs: s.latencies,
            configs: s.configs,
            rows: vec![s.rows],
        }
    }
}

/// One fused row of a sweep: configurations sharing one load latency
/// (any mix of hardware, penalty, policy and model), replayed on the tape
/// of `programs[program]`.
struct Row {
    program: usize,
    cfgs: Vec<SimConfig>,
}

/// One scheduling unit: configurations `lo..hi` of row `row`, replayed in
/// one fused walk. Produced by [`plan_row_spans`] (or one per row, or one
/// per configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSpan {
    /// Row index.
    row: usize,
    /// First configuration index of the slice (inclusive).
    lo: usize,
    /// Last configuration index of the slice (exclusive).
    hi: usize,
}

/// Splits each fused row into contiguous configuration spans sized by the
/// row's barrier weight, so a multi-thread pool schedules comparable work
/// units instead of whole rows. A row whose share of the grid's total
/// work exceeds one target-unit is split into proportionally many spans
/// (capped at one configuration per span); light rows stay whole. Spans
/// are emitted row-major (`row` ascending, `lo` ascending) so callers can
/// stitch rows back by a single scan.
fn plan_row_spans(weights: &[u64], nc: usize, threads: usize) -> Vec<RowSpan> {
    debug_assert!(nc > 0, "spans need at least one configuration");
    let row_work = |w: u64| w.saturating_mul(nc as u64).max(1);
    let total: u64 = weights.iter().map(|&w| row_work(w)).sum();
    // Aim for ~4 units per worker (the chunked queue's oversubscription
    // factor) so claim-order balancing has slack without shrinking units
    // into per-cell jobs that would repay the fusion win.
    let target = (total / (threads as u64 * 4).max(1)).max(1);
    let mut spans = Vec::with_capacity(weights.len());
    for (row, &w) in weights.iter().enumerate() {
        let work = row_work(w);
        let parts = (work.div_ceil(target)).clamp(1, nc as u64) as usize;
        let (base_len, extra) = (nc / parts, nc % parts);
        let mut lo = 0;
        for p in 0..parts {
            let len = base_len + usize::from(p < extra);
            spans.push(RowSpan {
                row,
                lo,
                hi: lo + len,
            });
            lo += len;
        }
        debug_assert_eq!(lo, nc, "spans tile the row exactly");
    }
    spans
}

/// The longest-processing-time claim order for `spans`: unit indices
/// sorted by descending estimated work (row weight × slice width), ties
/// broken by input order (the sort is stable), so heavy units start
/// first and nothing heavy lands last on a drained pool.
fn span_claim_order(spans: &[RowSpan], weights: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&u| {
        let s = &spans[u];
        std::cmp::Reverse(weights[s.row].saturating_mul((s.hi - s.lo) as u64))
    });
    order
}

/// `base` with its hardware configuration replaced by `hw`.
fn on(base: &SimConfig, hw: &HwConfig) -> SimConfig {
    SimConfig {
        hw: hw.clone(),
        ..base.clone()
    }
}

/// The parallel sweep engine: a [`JobPool`], an [`ArtifactStore`] (the
/// memory-tier [`CompileCache`] and [`TapeCache`], optionally backed by
/// the content-addressed disk tier) and the [`Telemetry`] of the cells it
/// simulates. All state is the engine's own: two engines share no caches
/// and no counters.
///
/// Every sweep is an axis declaration over one scheduler: each
/// `(program, x value)` row holds its planes × configurations, rows are
/// split into weight-sized configuration spans and claimed longest-first,
/// and each span replays the row's recorded tape once for all of its
/// configurations ([`run_tape_fused`]). Each distinct
/// `(program, load latency)` pair is compiled and recorded at most once
/// per sweep — rows sharing a pair (a penalty sweep's) share one tape
/// slot. With a disk tier every cell's [`RunResult`] also writes through
/// under its input fingerprint; in incremental mode
/// ([`ArtifactStore::incremental`]) cells whose fingerprints are
/// unchanged are answered from those stored results without simulating.
/// The pool places results in input order, so the parallel sweeps return
/// [`RunResult`]s **identical** to the serial ones.
#[derive(Debug, Default)]
pub struct SweepEngine {
    pool: JobPool,
    store: ArtifactStore,
    telemetry: Telemetry,
}

impl SweepEngine {
    /// An engine with `threads` workers and a fresh memory-only store.
    pub fn new(threads: usize) -> Self {
        Self::with_store(threads, ArtifactStore::in_memory())
    }

    /// An engine with `threads` workers running on an explicit store
    /// (the bench exhibit's disk-warm pass builds a fresh engine on a
    /// populated store to model a fresh process).
    pub fn with_store(threads: usize, store: ArtifactStore) -> Self {
        Self {
            pool: JobPool::new(threads),
            store,
            telemetry: Telemetry::default(),
        }
    }

    /// The engine's pool (e.g. for ad-hoc fan-out over benchmarks).
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// The engine's artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The engine's compile cache (e.g. for counter reporting).
    pub fn cache(&self) -> &CompileCache {
        self.store.compile_cache()
    }

    /// The engine's tape cache (e.g. for counter reporting).
    pub fn tapes(&self) -> &TapeCache {
        self.store.tape_cache()
    }

    /// The counters of every cell this engine simulated (cells answered
    /// from stored results are not simulated and not counted), plus the
    /// worker-arena builds and reuses of its pool jobs.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// One scheduling unit: the configuration slice `cfgs` of a row,
    /// replayed in one tape walk. In incremental mode, cells whose stored
    /// results are present under their exact input fingerprints are
    /// answered from the store; only the missing configurations are
    /// simulated (still fused, and each configuration's replay is
    /// independent of its row neighbours, so the mix is bit-identical to
    /// an all-simulated row). Fresh results write through. Every unit of
    /// a `(program, latency)` pair shares `tape_slot`, so the pair is
    /// compiled and recorded **at most once per sweep** — the first unit
    /// that needs the tape initializes the slot and the rest reuse the
    /// `Arc` without touching the caches.
    fn run_row_span(
        &self,
        program: &Program,
        program_fp: Option<u64>,
        cfgs: &[SimConfig],
        tape_slot: &OnceLock<Result<Arc<TraceTape>, SimError>>,
    ) -> Result<Vec<RunResult>, SimError> {
        let latency = cfgs[0].load_latency;
        let fps: Option<Vec<u64>> =
            program_fp.map(|pfp| cfgs.iter().map(|c| result_fingerprint(pfp, c)).collect());
        let mut row: Vec<Option<RunResult>> = vec![None; cfgs.len()];
        if self.store.incremental() {
            if let Some(fps) = &fps {
                for (slot, &fp) in row.iter_mut().zip(fps) {
                    *slot = self.store.load_result(&program.name, latency, fp);
                }
            }
        }
        if row.iter().any(Option::is_none) {
            let tape = tape_slot
                .get_or_init(|| {
                    let compiled = self.store.get_or_compile(program, latency)?;
                    Ok(self.store.get_or_record(&compiled))
                })
                .clone()?;
            let missing: Vec<usize> = (0..cfgs.len()).filter(|&j| row[j].is_none()).collect();
            let missing_cfgs: Vec<SimConfig> = missing.iter().map(|&j| cfgs[j].clone()).collect();
            let fresh = run_tape_fused(&program.name, &tape, &missing_cfgs)?;
            for (&j, result) in missing.iter().zip(fresh) {
                self.telemetry.record_result(&cfgs[j], &result);
                if let Some(fps) = &fps {
                    self.store.store_result(&result, fps[j]);
                }
                row[j] = Some(result);
            }
        }
        Ok(row.into_iter().flatten().collect())
    }

    /// The scheduling weight of one `(program, latency)` row: the
    /// recorded tape's barrier count when the tape is already resident
    /// (warm sweeps — the common bench shape), else the program's
    /// statically estimated dynamic instruction count. Both are
    /// proportional to replay work; mixing the two across rows only
    /// happens on partially warm caches, where any positive weight
    /// already beats uniform chunking.
    fn row_weight(&self, program: &Program, latency: u32) -> u64 {
        self.store
            .tape_cache()
            .peek_barriers(&program.name, latency)
            .unwrap_or_else(|| program.estimated_instructions())
    }

    /// The one sweep scheduler: runs equally wide `rows` on the pool and
    /// returns each row's results in configuration order. Fused, a
    /// single-thread pool (or a single row) runs one job per row, and a
    /// multi-thread pool runs the weight-sized spans of
    /// [`plan_row_spans`] longest-first; unfused, every configuration is
    /// its own span (the reference path). Spans of one
    /// `(program, load latency)` pair share one tape slot. A row reports
    /// its first (lowest-configuration) error, and the sweep its first
    /// failing row.
    fn run_rows(
        &self,
        programs: &[&Program],
        rows: &[Row],
        fused: bool,
    ) -> Result<Vec<Vec<RunResult>>, SimError> {
        let width = rows.first().map_or(0, |r| r.cfgs.len());
        debug_assert!(rows.iter().all(|r| r.cfgs.len() == width));
        if width == 0 {
            return Ok(rows.iter().map(|_| Vec::new()).collect());
        }
        // One stable IR fingerprint per program, shared by every span
        // (only needed when a disk tier exists to address results into).
        let program_fps: Vec<Option<u64>> = programs
            .iter()
            .map(|p| self.store.disk().map(|_| program_fingerprint(p)))
            .collect();
        let pair = |r: &Row| (r.program, r.cfgs[0].load_latency);
        let mut pairs: Vec<(usize, u32)> = Vec::new();
        let slot_of: Vec<usize> = rows
            .iter()
            .map(|r| match pairs.iter().position(|&p| p == pair(r)) {
                Some(slot) => slot,
                None => {
                    pairs.push(pair(r));
                    pairs.len() - 1
                }
            })
            .collect();
        let tape_slots: Vec<OnceLock<Result<Arc<TraceTape>, SimError>>> =
            pairs.iter().map(|_| OnceLock::new()).collect();
        let weights: Vec<u64> = rows
            .iter()
            .map(|r| self.row_weight(programs[r.program], r.cfgs[0].load_latency))
            .collect();
        let spans: Vec<RowSpan> = if !fused {
            (0..rows.len())
                .flat_map(|row| {
                    (0..width).map(move |lo| RowSpan {
                        row,
                        lo,
                        hi: lo + 1,
                    })
                })
                .collect()
        } else if self.pool.threads() <= 1 || rows.len() <= 1 {
            (0..rows.len())
                .map(|row| RowSpan {
                    row,
                    lo: 0,
                    hi: width,
                })
                .collect()
        } else {
            plan_row_spans(&weights, width, self.pool.threads())
        };
        let order = span_claim_order(&spans, &weights);
        let parts = self.pool.try_run_order(spans.len(), &order, |u| {
            let RowSpan { row, lo, hi } = spans[u];
            let r = &rows[row];
            self.telemetry.track(|| {
                self.run_row_span(
                    programs[r.program],
                    program_fps[r.program],
                    &r.cfgs[lo..hi],
                    &tape_slots[slot_of[row]],
                )
            })
        })?;
        // Stitch spans back into whole rows: spans are row-major, so
        // appending in span order rebuilds each row's configuration order.
        let mut out: Vec<Result<Vec<RunResult>, SimError>> =
            rows.iter().map(|_| Ok(Vec::with_capacity(width))).collect();
        for (span, part) in spans.iter().zip(parts) {
            match (&mut out[span.row], part) {
                (Ok(row), Ok(mut slice)) => row.append(&mut slice),
                (slot @ Ok(_), Err(e)) => *slot = Err(e),
                (Err(_), _) => {}
            }
        }
        out.into_iter().collect()
    }

    /// Declares one grid per program and runs it: a row per
    /// `(program, x value)` holding the planes × configurations (plane
    /// major), `cell(plane, x, hw)` building each cell's configuration.
    /// An empty axis yields an empty grid of the declared shape and
    /// compiles nothing.
    fn grids(
        &self,
        programs: &[&Program],
        plane: Option<(PlaneAxis, Vec<String>)>,
        (x_axis, xs): (XAxis, &[u32]),
        configs: &[HwConfig],
        fused: bool,
        cell: impl Fn(usize, u32, &HwConfig) -> SimConfig,
    ) -> Result<Vec<Grid>, SimError> {
        let planes = plane.as_ref().map_or(1, |(_, labels)| labels.len());
        let rows: Vec<Row> = (0..programs.len())
            .flat_map(|program| xs.iter().map(move |&x| (program, x)))
            .map(|(program, x)| Row {
                program,
                cfgs: (0..planes)
                    .flat_map(|p| configs.iter().map(move |hw| (p, hw)))
                    .map(|(p, hw)| cell(p, x, hw))
                    .collect(),
            })
            .collect();
        let mut results = self.run_rows(programs, &rows, fused)?.into_iter();
        Ok(programs
            .iter()
            .map(|program| {
                let mut grid_rows = vec![Vec::with_capacity(xs.len()); planes];
                for row in results.by_ref().take(xs.len()) {
                    let mut row = row.into_iter();
                    for plane_rows in &mut grid_rows {
                        plane_rows.push(row.by_ref().take(configs.len()).collect());
                    }
                }
                Grid {
                    benchmark: program.name.clone(),
                    plane: plane.clone(),
                    x_axis,
                    xs: xs.to_vec(),
                    configs: configs.iter().map(HwConfig::label).collect(),
                    rows: grid_rows,
                }
            })
            .collect())
    }

    /// `configs` × `latencies` for the cross-benchmark grid, one
    /// [`LatencySweep`] per program in input order.
    fn latency_sweeps(
        &self,
        programs: &[&Program],
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
        fused: bool,
    ) -> Result<Vec<LatencySweep>, SimError> {
        let x = (XAxis::LoadLatency, latencies);
        let grids = self.grids(programs, None, x, configs, fused, |_, lat, hw| {
            on(base, hw).at_latency(lat)
        })?;
        Ok(grids
            .into_iter()
            .map(|g| LatencySweep {
                benchmark: g.benchmark,
                configs: g.configs,
                latencies: g.xs,
                rows: g.rows.into_iter().flatten().collect(),
            })
            .collect())
    }

    /// `configs` × `latencies` for one benchmark program (the shape of
    /// Figs. 5, 9–12, 15–17): one fused row per latency.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn latency_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Grid, SimError> {
        let sweep = self.grid_sweep(&[program], base, configs, latencies)?.pop();
        Ok(Grid::from(sweep.expect("one program in, one sweep out")))
    }

    /// Cross-benchmark sweep, fused: every `(program, latency)` row walks
    /// the shared tape **once**, advancing a simulator instance per
    /// hardware configuration in lockstep ([`run_tape_fused`]).
    /// Results are bit-identical to [`Self::grid_sweep_unfused`], one
    /// [`LatencySweep`] per program in input order.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn grid_sweep(
        &self,
        programs: &[&Program],
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Vec<LatencySweep>, SimError> {
        self.latency_sweeps(programs, base, configs, latencies, true)
    }

    /// [`Self::grid_sweep`] without tape fusion: every
    /// `(program, latency, config)` cell replays the tape independently as
    /// its own pool job. The reference path the bench exhibit's
    /// fused-vs-unfused bit-identity check compares against.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn grid_sweep_unfused(
        &self,
        programs: &[&Program],
        base: &SimConfig,
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Vec<LatencySweep>, SimError> {
        self.latency_sweeps(programs, base, configs, latencies, false)
    }

    /// `configs` × `penalties` at the base config's load latency (Fig.
    /// 18's shape): one fused row per penalty, all rows replaying the one
    /// tape of the base latency.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn penalty_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        penalties: &[u32],
    ) -> Result<Grid, SimError> {
        let x = (XAxis::MissPenalty, penalties);
        let mut grids = self.grids(&[program], None, x, configs, true, |_, pen, hw| {
            on(base, hw).with_penalty(pen)
        })?;
        Ok(grids.pop().expect("one program in, one grid out"))
    }

    /// Policy × configuration × latency grid for one benchmark (the
    /// `figures replsens` exhibit): one fused row per latency holding
    /// every policy and configuration. Results are fully deterministic
    /// (the random policy reseeds per run from its fixed seed).
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn replacement_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        policies: &[ReplacementKind],
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Grid, SimError> {
        let plane = (
            PlaneAxis::Policy,
            policies.iter().map(ReplacementKind::label).collect(),
        );
        let x = (XAxis::LoadLatency, latencies);
        let mut grids = self.grids(&[program], Some(plane), x, configs, true, |p, lat, hw| {
            on(base, hw).at_latency(lat).with_replacement(policies[p])
        })?;
        Ok(grids.pop().expect("one program in, one grid out"))
    }

    /// Model × configuration × latency grid for one benchmark (the
    /// `figures replaymodel` exhibit): one row per latency holding every
    /// model and configuration. Every model replays the same recorded
    /// tape, so the grid isolates the pipeline's reaction — stall on
    /// first use vs. replay with cause attribution — from the code and
    /// the reference stream.
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn model_sweep(
        &self,
        program: &Program,
        base: &SimConfig,
        models: &[ProcessorKind],
        configs: &[HwConfig],
        latencies: &[u32],
    ) -> Result<Grid, SimError> {
        let plane = (
            PlaneAxis::Model,
            models.iter().map(|m| m.label().to_string()).collect(),
        );
        let x = (XAxis::LoadLatency, latencies);
        let mut grids = self.grids(&[program], Some(plane), x, configs, true, |m, lat, hw| {
            on(base, hw).at_latency(lat).with_processor(models[m])
        })?;
        Ok(grids.pop().expect("one program in, one grid out"))
    }

    /// Runs many independent `(program, config)` jobs on the pool, results
    /// in input order, compilation cached: each job is a one-cell row of
    /// the sweep scheduler. The workhorse for experiment tables that
    /// aren't sweeps (per-benchmark rows, ablations).
    ///
    /// # Errors
    ///
    /// [`SimError`] from the compiler model or the engine.
    pub fn run_many(&self, jobs: &[(&Program, SimConfig)]) -> Result<Vec<RunResult>, SimError> {
        let programs: Vec<&Program> = jobs.iter().map(|&(program, _)| program).collect();
        let rows: Vec<Row> = jobs
            .iter()
            .enumerate()
            .map(|(program, (_, cfg))| Row {
                program,
                cfgs: vec![cfg.clone()],
            })
            .collect();
        let results = self.run_rows(&programs, &rows, false)?;
        Ok(results.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_program, run_tape};
    use nbl_sched::compile::compile;
    use nbl_trace::workloads::{build, Scale};

    /// The serial reference for plane-less sweeps: one compile and one
    /// independent tape replay per cell, in order. `x_axis` picks what
    /// each x value sets; the tape is compiled for the cell's latency.
    fn serial_grid(
        program: &Program,
        base: &SimConfig,
        configs: &[HwConfig],
        (x_axis, xs): (XAxis, &[u32]),
    ) -> Result<Grid, SimError> {
        let mut rows = Vec::with_capacity(xs.len());
        for &x in xs {
            let cell = |hw: &HwConfig| match x_axis {
                XAxis::LoadLatency => on(base, hw).at_latency(x),
                XAxis::MissPenalty => on(base, hw).with_penalty(x),
            };
            let tape = TraceTape::record(&compile(program, cell(&base.hw).load_latency)?);
            let mut row = Vec::with_capacity(configs.len());
            for hw in configs {
                row.push(run_tape(&program.name, &tape, &cell(hw))?);
            }
            rows.push(row);
        }
        Ok(Grid {
            benchmark: program.name.clone(),
            plane: None,
            x_axis,
            xs: xs.to_vec(),
            configs: configs.iter().map(HwConfig::label).collect(),
            rows: vec![rows],
        })
    }

    #[test]
    fn row_spans_tile_rows_and_split_by_weight() {
        // Row 1 carries ~8× the work of the others: it must split into
        // more spans, every row must be tiled exactly, and spans must be
        // emitted row-major.
        let weights = [100, 800, 100, 100];
        let nc = 8;
        let spans = plan_row_spans(&weights, nc, 4);
        let mut next_row = 0;
        let mut cursor = 0;
        let mut per_row = [0usize; 4];
        for s in &spans {
            if s.row != next_row {
                assert_eq!(cursor, nc, "row {next_row} tiled exactly");
                assert_eq!(s.row, next_row + 1, "row-major emission");
                next_row = s.row;
                cursor = 0;
            }
            assert_eq!(s.lo, cursor, "contiguous spans");
            assert!(s.hi > s.lo && s.hi <= nc);
            cursor = s.hi;
            per_row[s.row] += 1;
        }
        assert_eq!(cursor, nc, "last row tiled exactly");
        assert!(
            per_row[1] > per_row[0],
            "heavy row splits finer: {per_row:?}"
        );
        assert!(per_row[1] <= nc, "never below one configuration per span");
        // Claim order starts with a slice of the heavy row.
        let order = span_claim_order(&spans, &weights);
        assert_eq!(spans[order[0]].row, 1, "heaviest unit claimed first");
        // Degenerate shapes: uniform weights and single-thread targets
        // still tile.
        for threads in [1, 2, 16] {
            let spans = plan_row_spans(&[0, 0], 3, threads);
            let covered: usize = spans.iter().map(|s| s.hi - s.lo).sum();
            assert_eq!(covered, 6, "zero-weight rows still tile ({threads})");
        }
    }

    #[test]
    fn latency_sweep_shape_and_lookup() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
        let s = SweepEngine::new(1)
            .latency_sweep(&p, &base, &configs, &[1, 10])
            .unwrap();
        assert_eq!(s.rows.len(), 1, "a plane-less grid holds one plane");
        assert_eq!(s.rows[0].len(), 2);
        assert_eq!(s.rows[0][0].len(), 3);
        assert_eq!(s.x_axis, XAxis::LoadLatency);
        let r = s.at(None, "mc=1", 10).unwrap();
        assert_eq!(r.config, "mc=1");
        assert_eq!(r.load_latency, 10);
        assert!(s.at(None, "mc=7", 10).is_none());
        assert!(s.at(None, "mc=1", 11).is_none());
        assert!(
            s.at(Some("lru"), "mc=1", 10).is_none(),
            "no plane label on a plane-less grid"
        );
    }

    #[test]
    fn parallel_sweeps_match_serial_exactly() {
        // The determinism contract: parallel execution returns RunResults
        // *equal* (full struct equality, every metric) to the serial path,
        // across ≥2 benchmarks × 2 latencies × 3 configs.
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc(1), HwConfig::Fc(4), HwConfig::NoRestrict];
        let latencies = [2, 10];
        let engine = SweepEngine::new(4);
        for name in ["doduc", "eqntott"] {
            let p = build(name, Scale::quick()).unwrap();
            let serial =
                serial_grid(&p, &base, &configs, (XAxis::LoadLatency, &latencies)).unwrap();
            let parallel = engine
                .latency_sweep(&p, &base, &configs, &latencies)
                .unwrap();
            assert_eq!(serial.configs, parallel.configs);
            assert_eq!(serial.xs, parallel.xs);
            assert_eq!(
                serial.rows, parallel.rows,
                "{name}: parallel must be bit-identical"
            );
        }
        // And the penalty sweep, whose rows all replay one tape: a fresh
        // engine compiles and records it once.
        let engine = SweepEngine::new(4);
        let p = build("tomcatv", Scale::quick()).unwrap();
        let serial = serial_grid(&p, &base, &configs, (XAxis::MissPenalty, &[8, 32])).unwrap();
        let parallel = engine.penalty_sweep(&p, &base, &configs, &[8, 32]).unwrap();
        assert_eq!(parallel.x_axis, XAxis::MissPenalty);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(engine.cache().stats().compiles, 1);
        assert_eq!(engine.cache().stats().hits, 0);
        assert_eq!(engine.tapes().stats().records, 1);
        assert_eq!(engine.tapes().stats().hits, 0);
    }

    #[test]
    fn grid_sweep_shape_and_compile_sharing() {
        let engine = SweepEngine::new(3);
        let doduc = build("doduc", Scale::quick()).unwrap();
        let eqntott = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        let sweeps = engine
            .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
            .unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].benchmark, "doduc");
        assert_eq!(sweeps[1].benchmark, "eqntott");
        for s in &sweeps {
            assert_eq!(s.rows.len(), 2);
            assert_eq!(s.rows[0].len(), 3);
            for (i, row) in s.rows.iter().enumerate() {
                for (j, r) in row.iter().enumerate() {
                    assert_eq!(r.benchmark, s.benchmark, "input-ordered placement");
                    assert_eq!(r.load_latency, latencies[i]);
                    assert_eq!(r.config, configs[j].label());
                }
            }
        }
        // 2 benchmarks × 2 latencies compiled; the fused sweep fetches
        // each compilation and tape exactly once per (benchmark, latency)
        // row — the 3 configurations inside a row share one walk.
        let stats = engine.cache().stats();
        assert_eq!(
            stats.compiles, 4,
            "each (benchmark, latency) pair compiles exactly once"
        );
        assert_eq!(stats.hits, 0, "fused rows fetch each compilation once");
        let tapes = engine.tapes().stats();
        assert_eq!(
            tapes.records, 4,
            "each (benchmark, latency) pair records exactly once"
        );
        assert_eq!(tapes.hits, 0, "fused rows fetch each tape once");
        assert_eq!(tapes.evictions, 0);
        engine
            .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
            .unwrap();
        assert_eq!(
            engine.cache().stats().compiles,
            4,
            "re-sweep recompiles nothing"
        );
        assert_eq!(engine.cache().stats().hits, 4);
        assert_eq!(
            engine.tapes().stats().records,
            4,
            "re-sweep re-records nothing"
        );
        assert_eq!(engine.tapes().stats().hits, 4);
    }

    #[test]
    fn two_engines_do_not_share_counters() {
        let (a, b) = (SweepEngine::new(2), SweepEngine::new(2));
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        a.grid_sweep(&[&p], &base, &configs, &latencies).unwrap();
        let work = a.telemetry().snapshot();
        assert_eq!(work.runs, 6, "one run per cell");
        assert!(work.instructions > 0 && work.cycles >= work.instructions);
        assert_eq!(work.arena_builds + work.arena_reuses, 6);
        assert_eq!(a.cache().stats().compiles, 2, "one compile per pair");
        assert_eq!(a.tapes().stats().records, 2, "one recording per pair");
        assert_eq!(b.telemetry().snapshot(), Default::default());
        assert_eq!(b.cache().stats(), Default::default());
        assert_eq!(b.tapes().stats(), Default::default());
    }

    #[test]
    fn fused_grid_matches_unfused_bit_for_bit() {
        let engine = SweepEngine::new(3);
        let doduc = build("doduc", Scale::quick()).unwrap();
        let swm = build("swm256", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let configs = [
            HwConfig::Mc0,
            HwConfig::Mc(1),
            HwConfig::Fc(4),
            HwConfig::NoRestrict,
        ];
        let latencies = [1, 3];
        let fused = engine
            .grid_sweep(&[&doduc, &swm], &base, &configs, &latencies)
            .unwrap();
        let unfused = engine
            .grid_sweep_unfused(&[&doduc, &swm], &base, &configs, &latencies)
            .unwrap();
        for (f, u) in fused.iter().zip(&unfused) {
            assert_eq!(
                f.rows, u.rows,
                "{}: fusion must not change results",
                f.benchmark
            );
        }
    }

    #[test]
    fn run_many_matches_run_program() {
        let engine = SweepEngine::new(2);
        let p = build("xlisp", Scale::quick()).unwrap();
        let jobs = [
            (&p, SimConfig::baseline(HwConfig::Mc0)),
            (&p, SimConfig::baseline(HwConfig::NoRestrict)),
        ];
        let out = engine.run_many(&jobs).unwrap();
        assert_eq!(out.len(), 2);
        for (job, got) in jobs.iter().zip(&out) {
            assert_eq!(*got, run_program(job.0, &job.1).unwrap());
        }
    }

    #[test]
    fn replacement_sweep_is_deterministic_and_lru_matches_default() {
        use nbl_core::geometry::CacheGeometry;
        let p = build("eqntott", Scale::quick()).unwrap();
        // Policies only differ on an associative geometry.
        let base = SimConfig::baseline(HwConfig::Mc0)
            .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap());
        let policies = [
            ReplacementKind::Lru,
            ReplacementKind::random(),
            ReplacementKind::TreePlru,
        ];
        let configs = [HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        let engine = SweepEngine::new(4);
        let a = engine
            .replacement_sweep(&p, &base, &policies, &configs, &latencies)
            .unwrap();
        // One row per latency holds every policy: one compile and one
        // recording per latency.
        assert_eq!(engine.cache().stats().compiles, 2);
        assert_eq!(engine.tapes().stats().records, 2);
        assert_eq!(engine.tapes().stats().hits, 0);
        let b = engine
            .replacement_sweep(&p, &base, &policies, &configs, &latencies)
            .unwrap();
        assert_eq!(a.rows, b.rows, "replay must be bit-identical (seeded)");
        let (axis, labels) = a.plane.as_ref().unwrap();
        assert_eq!(*axis, PlaneAxis::Policy);
        assert_eq!(*labels, vec!["lru", "random", "plru"]);
        // Every fused cell equals an independent run of its configuration.
        for (policy, plane) in policies.iter().zip(&a.rows) {
            for (&lat, row) in latencies.iter().zip(plane) {
                for (hw, got) in configs.iter().zip(row) {
                    let cfg = on(&base, hw).at_latency(lat).with_replacement(*policy);
                    assert_eq!(*got, run_program(&p, &cfg).unwrap());
                }
            }
        }
        // The LRU plane equals a plain (default-policy) run.
        let lru = a.at(Some("lru"), "mc=1", 10).unwrap();
        let plain = engine
            .latency_sweep(&p, &base, &configs, &latencies)
            .unwrap();
        let reference = plain.at(None, "mc=1", 10).unwrap();
        assert_eq!(lru.cycles, reference.cycles);
        assert_eq!(lru.replacement, "lru");
        assert_eq!(a.at(Some("plru"), "mc=1", 10).unwrap().replacement, "plru");
        assert!(a.at(Some("fifo"), "mc=1", 10).is_none());
        assert!(
            a.at(None, "mc=1", 10).is_none(),
            "a planed grid needs a plane label"
        );
    }

    #[test]
    fn model_sweep_is_deterministic_and_single_matches_default() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let models = [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause];
        let configs = [HwConfig::Mc(1), HwConfig::NoRestrict];
        let latencies = [1, 10];
        let engine = SweepEngine::new(4);
        let a = engine
            .model_sweep(&p, &base, &models, &configs, &latencies)
            .unwrap();
        let b = engine
            .model_sweep(&p, &base, &models, &configs, &latencies)
            .unwrap();
        assert_eq!(a.rows, b.rows, "replay must be bit-identical");
        let (axis, labels) = a.plane.as_ref().unwrap();
        assert_eq!(*axis, PlaneAxis::Model);
        assert_eq!(*labels, vec!["single", "replay"]);
        // The single plane equals a plain (default-model) run.
        let single = a.at(Some("single"), "mc=1", 10).unwrap();
        let plain = serial_grid(&p, &base, &configs, (XAxis::LoadLatency, &latencies)).unwrap();
        assert_eq!(single.cycles, plain.at(None, "mc=1", 10).unwrap().cycles);
        assert_eq!(single.model, "single");
        assert_eq!(single.replay.total_replays(), 0);
        // The replaying plane attributes stalls to causes; the parallel
        // grid cell equals a direct serial run of the same configuration.
        let replay = a.at(Some("replay"), "mc=1", 10).unwrap();
        assert_eq!(replay.model, "replay");
        assert!(replay.replay.total_replays() > 0, "mc=1 must NACK or miss");
        let cfg = SimConfig::baseline(HwConfig::Mc(1))
            .at_latency(10)
            .with_processor(ProcessorKind::ReplayCause);
        assert_eq!(*replay, run_program(&p, &cfg).unwrap());
    }

    #[test]
    fn empty_axes_yield_empty_grids_and_compile_nothing() {
        let p = build("eqntott", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let hw = [HwConfig::Mc0, HwConfig::NoRestrict];
        let (lat, pen) = ([1, 10], [8, 16]);
        let policies = [ReplacementKind::Lru, ReplacementKind::Fifo];
        let models = [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause];
        for threads in [1, 3] {
            let engine = SweepEngine::new(threads);
            // Plane-less grids keep their one plane; an empty x axis
            // leaves it empty, an empty config axis leaves its rows empty.
            let g = engine.latency_sweep(&p, &base, &hw, &[]).unwrap();
            assert_eq!(g.rows, vec![Vec::<Vec<RunResult>>::new()]);
            let g = engine.latency_sweep(&p, &base, &[], &lat).unwrap();
            assert_eq!(g.rows, vec![vec![Vec::new(); 2]]);
            let g = engine.penalty_sweep(&p, &base, &hw, &[]).unwrap();
            assert_eq!(
                (g.x_axis, g.rows.len(), g.rows[0].len()),
                (XAxis::MissPenalty, 1, 0)
            );
            let g = engine.penalty_sweep(&p, &base, &[], &pen).unwrap();
            assert_eq!(g.rows, vec![vec![Vec::new(); 2]]);
            // Planed grids: zero planes, zero x values, zero configs.
            let g = engine.replacement_sweep(&p, &base, &[], &hw, &lat).unwrap();
            assert!(g.rows.is_empty() && g.plane.unwrap().1.is_empty());
            let g = engine
                .replacement_sweep(&p, &base, &policies, &hw, &[])
                .unwrap();
            assert_eq!(g.rows, vec![Vec::<Vec<RunResult>>::new(); 2]);
            let g = engine
                .replacement_sweep(&p, &base, &policies, &[], &lat)
                .unwrap();
            assert_eq!(g.rows, vec![vec![Vec::new(); 2]; 2]);
            let g = engine.model_sweep(&p, &base, &[], &hw, &lat).unwrap();
            assert!(g.rows.is_empty());
            let g = engine.model_sweep(&p, &base, &models, &hw, &[]).unwrap();
            assert_eq!(g.rows.len(), 2);
            let g = engine.model_sweep(&p, &base, &models, &[], &lat).unwrap();
            assert_eq!(g.rows, vec![vec![Vec::new(); 2]; 2]);
            // Cross-benchmark grids: no programs, no latencies, no configs.
            assert!(engine.grid_sweep(&[], &base, &hw, &lat).unwrap().is_empty());
            let s = engine.grid_sweep(&[&p], &base, &hw, &[]).unwrap();
            assert!(s[0].rows.is_empty());
            let s = engine.grid_sweep_unfused(&[&p], &base, &[], &lat).unwrap();
            assert_eq!(s[0].rows, vec![Vec::new(); 2]);
            assert_eq!(
                engine.cache().stats(),
                Default::default(),
                "compiles nothing"
            );
            assert_eq!(
                engine.tapes().stats(),
                Default::default(),
                "records nothing"
            );
            assert_eq!(engine.telemetry().snapshot().runs, 0, "simulates nothing");
        }
    }

    #[test]
    fn penalty_sweep_blocking_is_linear() {
        let p = build("tomcatv", Scale::quick()).unwrap();
        let base = SimConfig::baseline(HwConfig::Mc0);
        let s = SweepEngine::new(1)
            .penalty_sweep(&p, &base, &[HwConfig::Mc0], &[8, 16, 32])
            .unwrap();
        let m = |pen: u32| s.at(None, "mc=0", pen).unwrap().mcpi;
        // "The blocking organization's miss CPI is strictly a linear
        // function of the miss penalty."
        assert!((m(16) / m(8) - 2.0).abs() < 0.05, "{} {}", m(8), m(16));
        assert!((m(32) / m(16) - 2.0).abs() < 0.05, "{} {}", m(16), m(32));
    }
}
