//! The traced run: the workload's cells again, through the lower-level
//! public calls of each layer, every call inside a span, plus probes
//! that drive single layers (tag array, memory system, tape and result
//! store I/O, report emitters) with the workload's own inputs.

use crate::metrics::{quantile, Metric, Outcome};
use crate::spans::{self, Span, Tracer, ROOT};
use crate::workload::{
    build_programs, check_oracle_cell, engine_pass, resident_tapes, OracleOutcome, PassResults,
    Plan, Row, Workload, LATENCIES,
};
use nbl_core::cache::CacheConfig;
use nbl_core::geometry::CacheGeometry;
use nbl_core::mshr::MissKind;
use nbl_core::tag_array::TagArray;
use nbl_core::types::{Cycle, Dest};
use nbl_mem::system::{L2Params, LoadResponse, MemSystemConfig, MemorySystem, StoreResponse};
use nbl_mem::RetirePolicy;
use nbl_oracle::OracleConfig;
use nbl_sim::config::SimConfig;
use nbl_sim::driver::{run_tape, run_tape_fused, RunResult};
use nbl_sim::pool::JobPool;
use nbl_sim::report;
use nbl_sim::store::{
    compiled_fingerprint, program_fingerprint, result_fingerprint, ArtifactStore, DiskTier,
};
use nbl_sim::sweep::{LatencySweep, SweepEngine};
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::Scale;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Counts gathered by one tag-array or memory-system probe.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeCounts {
    accesses: u64,
    hits: u64,
    fills: u64,
    primary: u64,
    secondary: u64,
}

impl ProbeCounts {
    fn add(&mut self, o: ProbeCounts) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.fills += o.fills;
        self.primary += o.primary;
        self.secondary += o.secondary;
    }
}

/// Drives one L1 tag array with the tape's memory stream: probe, then
/// note the hit or install the block.
fn tag_probe(tape: &TraceTape, cfg: &SimConfig) -> ProbeCounts {
    let mut tags = TagArray::new(cfg.geometry, cfg.replacement);
    let mut c = ProbeCounts::default();
    for op in tape.mem_ops() {
        let block = cfg.geometry.block_of(op.addr);
        c.accesses += 1;
        match tags.probe(block) {
            Some(slot) => {
                tags.note_hit(slot);
                c.hits += 1;
            }
            None => {
                tags.install(block);
            }
        }
    }
    c
}

/// The memory system `cfg` describes (L1 + MSHRs, optional L2, memory,
/// write buffer), as the simulator's driver assembles it.
fn memory_system(cfg: &SimConfig) -> Result<MemorySystem, String> {
    let mut cache: CacheConfig = cfg.hw.cache_config(cfg.geometry);
    cache.victim_entries = cfg.victim_entries;
    cache.replacement = cfg.replacement;
    let l2 = match cfg.l2 {
        Some((size, hit_penalty)) => Some(L2Params {
            geometry: CacheGeometry::direct_mapped(size, cfg.geometry.line_bytes())
                .map_err(|e| e.to_string())?,
            hit_penalty,
            replacement: cfg.replacement,
        }),
        None => None,
    };
    Ok(MemorySystem::new(MemSystemConfig {
        cache,
        miss_penalty: cfg.miss_penalty,
        memory_gap: cfg.memory_gap,
        l2,
        retire: RetirePolicy::Free,
    }))
}

/// Drives one memory system with the tape's memory stream on a clock
/// that advances one cycle per instruction, waits out blocking misses
/// and waits for a fill whenever the MSHRs reject a load.
fn mem_probe(tape: &TraceTape, cfg: &SimConfig) -> Result<ProbeCounts, String> {
    let mut mem = memory_system(cfg)?;
    let mut c = ProbeCounts::default();
    let (mut now, mut last) = (0u64, 0usize);
    let count_miss = |c: &mut ProbeCounts, kind: MissKind| match kind {
        MissKind::Primary => c.primary += 1,
        MissKind::Secondary => c.secondary += 1,
    };
    for op in tape.mem_ops() {
        now += (op.index - last) as u64;
        last = op.index;
        mem.advance_to(Cycle(now), |_| c.fills += 1);
        c.accesses += 1;
        if op.is_store {
            match mem.access_store(op.addr, Cycle(now)) {
                StoreResponse::Done => {}
                StoreResponse::Pending { kind } => count_miss(&mut c, kind),
                StoreResponse::Ready { at } => {
                    c.primary += 1;
                    now = now.max(at.0);
                }
            }
            continue;
        }
        let dest = tape.dst(op.index).map_or(Dest::Pc, Dest::Reg);
        loop {
            match mem.access_load(op.addr, dest, tape.format(op.index), Cycle(now)) {
                LoadResponse::Hit | LoadResponse::VictimHit => c.hits += 1,
                LoadResponse::Pending { kind } => count_miss(&mut c, kind),
                LoadResponse::Ready { at } => {
                    c.primary += 1;
                    now = now.max(at.0);
                }
                LoadResponse::Retry(_) => {
                    let fill = mem.advance_to_next_event().map_err(|e| e.to_string())?;
                    c.fills += 1;
                    now = now.max(fill.at.0);
                    mem.recycle_fill(fill);
                    continue;
                }
            }
            break;
        }
    }
    while let Ok(fill) = mem.advance_to_next_event() {
        c.fills += 1;
        mem.recycle_fill(fill);
    }
    Ok(c)
}

/// Fans `jobs` out over the pool inside a phase span; a panicking job
/// becomes an error.
fn fan_out<T: Send>(
    tr: &Tracer,
    pool: &JobPool,
    name: &'static str,
    jobs: usize,
    f: impl Fn(u32, usize) -> T + Sync,
) -> Result<Vec<T>, String> {
    tr.phase(ROOT, name, pool.threads(), |ph| {
        pool.try_run(jobs, |i| f(ph, i))
    })
    .map_err(|e| format!("{name}: {e}"))
}

/// One traced pass of the workload's own cells, in plan order.
fn traced_pass(
    tr: &Tracer,
    pool: &JobPool,
    plan: &Plan,
    tapes: &[TraceTape],
) -> Result<PassResults, String> {
    let name = |pair: usize| plan.program(pair).name.as_str();
    let mut out = PassResults::default();
    if !plan.fused.is_empty() {
        let rows = fan_out(tr, pool, "sim.fused_phase", plan.fused.len(), |ph, r| {
            let row = &plan.fused[r];
            tr.span(ph, "cpu.fused", || {
                run_tape_fused(name(row.pair), &tapes[row.pair], &row.cfgs)
            })
        })?;
        for row in rows {
            out.results.extend(row.map_err(|e| e.to_string())?);
        }
    }
    if !plan.single.is_empty() {
        let cells = fan_out(tr, pool, "sim.single_phase", plan.single.len(), |ph, i| {
            let cell = &plan.single[i];
            tr.span(ph, "cpu.unfused", || {
                run_tape(name(cell.pair), &tapes[cell.pair], &cell.cfg)
            })
        })?;
        for cell in cells {
            out.results.push(cell.map_err(|e| e.to_string())?);
        }
    }
    if !plan.oracle.is_empty() {
        let cells = fan_out(tr, pool, "sim.oracle_phase", plan.oracle.len(), |ph, i| {
            let cell = &plan.oracle[i];
            check_oracle_cell(tr, ph, name(cell.pair), &tapes[cell.pair], &cell.cfg)
        })?;
        out.oracle = cells.into_iter().collect::<Result<_, _>>()?;
    }
    Ok(out)
}

/// Phase containers of the traced pass (their wall is the traced
/// counterpart of the untraced engine pass).
const PASS_PHASES: [&str; 3] = ["sim.fused_phase", "sim.single_phase", "sim.oracle_phase"];

/// Every `(pair, config)` cell the workload simulates.
fn all_cells(plan: &Plan) -> Vec<(usize, &SimConfig)> {
    let mut cells: Vec<(usize, &SimConfig)> = plan
        .fused
        .iter()
        .flat_map(|r| r.cfgs.iter().map(move |c| (r.pair, c)))
        .collect();
    cells.extend(
        plan.single
            .iter()
            .chain(&plan.oracle)
            .map(|c| (c.pair, &c.cfg)),
    );
    cells
}

/// Rows whose fused and per-cell replays are compared: the workload's
/// fused rows, or, when it has none, its cells grouped by tape and L1
/// geometry (a fused group shares one geometry).
fn check_rows(plan: &Plan) -> Vec<Row> {
    if !plan.fused.is_empty() {
        return plan.fused.clone();
    }
    let mut groups: BTreeMap<(usize, String), Vec<SimConfig>> = BTreeMap::new();
    for (pair, cfg) in all_cells(plan) {
        groups
            .entry((pair, format!("{:?}", cfg.geometry)))
            .or_default()
            .push(cfg.clone());
    }
    groups
        .into_iter()
        .map(|((pair, _), cfgs)| Row { pair, cfgs })
        .collect()
}

/// Distinct cells by the part of the config a probe depends on.
fn distinct_by(plan: &Plan, key: impl Fn(&SimConfig) -> String) -> Vec<(usize, &SimConfig)> {
    let mut seen = BTreeMap::new();
    for (pair, cfg) in all_cells(plan) {
        seen.entry((pair, key(cfg))).or_insert(cfg);
    }
    seen.into_iter()
        .map(|((pair, _), cfg)| (pair, cfg))
        .collect()
}

/// Builds, compiles and records (or, for `assoc-store`, primes a fresh
/// store and decodes from it) every tape, with spans; returns the plan,
/// the tapes and the instructions recorded.
fn traced_setup(
    tr: &Tracer,
    pool: &JobPool,
    workload: Workload,
    seed: u64,
    tmp: &Path,
) -> Result<(Plan, Vec<TraceTape>, u64), String> {
    let programs = workload
        .benchmarks()
        .iter()
        .map(|name| {
            tr.span(ROOT, "trace.build", || {
                build_programs(&[name], Scale::full(), seed)
            })
        })
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    let plan = Plan::with_programs(workload, programs);
    let compile = |ph: u32, i: usize| {
        let (p, lat) = plan.pairs[i];
        tr.span(ph, "sched.compile", || {
            nbl_sched::compile(&plan.programs[p], lat)
        })
        .map_err(|e| format!("{} @ {lat}: {e}", plan.programs[p].name))
    };
    if workload != Workload::AssocStore {
        let tapes = fan_out(tr, pool, "sim.setup_phase", plan.pairs.len(), |ph, i| {
            let compiled = compile(ph, i)?;
            Ok(tr.span(ph, "trace.record", || TraceTape::record(&compiled)))
        })?
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
        let recorded = tapes.iter().map(|t| t.len() as u64).sum();
        return Ok((plan, tapes, recorded));
    }
    // Store-warm set-up: prime a store of this run's own, then decode.
    let disk = DiskTier::new(tmp.join("traced-store"));
    let recorded = fan_out(tr, pool, "sim.prime_phase", plan.pairs.len(), |ph, i| {
        let compiled = compile(ph, i)?;
        let tape = tr.span(ph, "trace.record", || TraceTape::record(&compiled));
        tr.span(ph, "store.tape_write", || {
            disk.write_tape(&tape, compiled_fingerprint(&compiled))
        })
        .map_err(|e| e.to_string())?;
        Ok(tape.len() as u64)
    })?
    .into_iter()
    .sum::<Result<u64, String>>()?;
    let tapes = fan_out(tr, pool, "sim.setup_phase", plan.pairs.len(), |ph, i| {
        let compiled = compile(ph, i)?;
        let fp = compiled_fingerprint(&compiled);
        tr.span(ph, "trace.decode", || {
            disk.read_tape(&compiled.name, compiled.load_latency, fp)
        })
        .map_err(|e| e.to_string())?
        .ok_or(format!(
            "{} @ {}: tape missing from the store",
            compiled.name, compiled.load_latency
        ))
    })?
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    Ok((plan, tapes, recorded))
}

/// The untraced comparator: the engine's own pass on a warm engine,
/// timed once after a reference pass. Returns the wall, the reference
/// results and the cells of the timed pass that differ from them.
fn untraced_reference(
    workload: Workload,
    seed: u64,
    tmp: &Path,
    threads: usize,
) -> Result<(f64, PassResults, u64), String> {
    let plan = Plan::new(workload, Scale::full(), seed)?;
    let engine = if workload == Workload::AssocStore {
        let dir = tmp.join("store");
        crate::prime_store(&plan, &dir, threads)?;
        SweepEngine::with_store(threads, ArtifactStore::with_disk(dir, false))
    } else {
        SweepEngine::new(threads)
    };
    resident_tapes(&engine, &plan)?;
    let reference = engine_pass(&engine, &plan)?;
    let t0 = Instant::now();
    let pass = engine_pass(&engine, &plan)?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((wall, reference.clone(), pass.mismatches(&reference) as u64))
}

/// The traced run for one workload.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tmp: &Path,
    threads: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (untraced_wall, reference, mismatches) = untraced_reference(workload, seed, tmp, threads)?;
    out.failed += mismatches;
    if seed == 0 && reference.digest() != workload.pinned_digest() {
        eprintln!(
            "digest mismatch: {:016x}, pinned {:016x}",
            reference.digest(),
            workload.pinned_digest()
        );
        out.failed += (reference.results.len() + reference.oracle.len()) as u64;
    }

    let pool = JobPool::new(threads);
    let tr = Tracer::new();
    let (plan, tapes, recorded) = traced_setup(&tr, &pool, workload, seed, tmp)?;
    let cells = plan.cells() as u64;
    out.attempted += 2 * cells;

    let len = |pair: usize| tapes[pair].len() as u64;
    let mut work = Work::default();

    // The workload's own cells, traced, for the run's time budget.
    let timed = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || timed.elapsed().as_secs_f64() < seconds {
        let pass = traced_pass(&tr, &pool, &plan, &tapes)?;
        out.attempted += cells;
        out.failed += pass.mismatches(&reference) as u64 + pass.violating_cells() as u64;
        passes += 1;
        work.fused_inst_cfgs += plan
            .fused
            .iter()
            .map(|r| len(r.pair) * r.cfgs.len() as u64)
            .sum::<u64>();
        work.unfused_inst += plan.single.iter().map(|c| len(c.pair)).sum::<u64>();
        pass.oracle.iter().for_each(|o| work.note_oracle(o));
    }

    // Fused against per-cell replay on the same rows.
    let rows = check_rows(&plan);
    let name = |pair: usize| plan.program(pair).name.as_str();
    let fused = fan_out(&tr, &pool, "sim.check_phase", rows.len(), |ph, r| {
        let row = &rows[r];
        tr.span(ph, "cpu.fused", || {
            run_tape_fused(name(row.pair), &tapes[row.pair], &row.cfgs)
        })
    })?;
    let flat: Vec<(usize, &SimConfig)> = rows
        .iter()
        .flat_map(|r| r.cfgs.iter().map(move |c| (r.pair, c)))
        .collect();
    let unfused = fan_out(&tr, &pool, "sim.check_phase", flat.len(), |ph, i| {
        let (pair, cfg) = flat[i];
        tr.span(ph, "cpu.unfused", || {
            run_tape(name(pair), &tapes[pair], cfg)
        })
    })?;
    work.fused_inst_cfgs += rows
        .iter()
        .map(|r| len(r.pair) * r.cfgs.len() as u64)
        .sum::<u64>();
    work.unfused_inst += flat.iter().map(|&(pair, _)| len(pair)).sum::<u64>();
    let fused: Vec<RunResult> = fused
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    out.attempted += flat.len() as u64;
    for (f, u) in fused.iter().zip(&unfused) {
        out.failed += u64::from(u.as_ref() != Ok(f));
    }
    out.failed += flat.len().abs_diff(fused.len()) as u64;

    // The oracle on every other cell inside its envelope; its probed
    // replays must match the reference pass.
    let extra: Vec<(usize, (usize, &SimConfig))> = if plan.oracle.is_empty() {
        all_cells(&plan)
            .into_iter()
            .enumerate()
            .filter(|(_, (_, cfg))| OracleConfig::from_sim(cfg).is_ok())
            .collect()
    } else {
        Vec::new()
    };
    let checked = fan_out(
        &tr,
        &pool,
        "sim.oracle_check_phase",
        extra.len(),
        |ph, i| {
            let (_, (pair, cfg)) = extra[i];
            check_oracle_cell(&tr, ph, name(pair), &tapes[pair], cfg)
        },
    )?;
    out.attempted += extra.len() as u64;
    for (o, (cell, _)) in checked.iter().zip(&extra) {
        match o {
            Ok(o) => {
                out.failed +=
                    u64::from(o.violations > 0 || reference.results.get(*cell) != Some(&o.result));
                work.note_oracle(o);
            }
            Err(_) => out.failed += 1,
        }
    }

    // Single-layer probes over the workload's own streams.
    let tag_cells = distinct_by(&plan, |c| format!("{:?} {:?}", c.geometry, c.replacement));
    let tag = fan_out(
        &tr,
        &pool,
        "sim.tag_probe_phase",
        tag_cells.len(),
        |ph, i| {
            let (pair, cfg) = tag_cells[i];
            tr.span(ph, "core.tag", || tag_probe(&tapes[pair], cfg))
        },
    )?;
    let mem_cells = distinct_by(&plan, |c| {
        format!(
            "{:?} {:?} {:?} {} {:?} {} {}",
            c.hw, c.geometry, c.replacement, c.miss_penalty, c.l2, c.victim_entries, c.memory_gap
        )
    });
    let mem = fan_out(
        &tr,
        &pool,
        "sim.mem_probe_phase",
        mem_cells.len(),
        |ph, i| {
            let (pair, cfg) = mem_cells[i];
            tr.span(ph, "mem.access", || mem_probe(&tapes[pair], cfg))
        },
    )?;
    let (mut tag_counts, mut mem_counts) = (ProbeCounts::default(), ProbeCounts::default());
    tag.into_iter().for_each(|c| tag_counts.add(c));
    for c in mem {
        mem_counts.add(c?);
    }

    // Tape store round trip (the assoc-store set-up already decoded).
    if workload != Workload::AssocStore {
        let disk = DiskTier::new(tmp.join("probe-store"));
        let roundtrip = fan_out(
            &tr,
            &pool,
            "sim.decode_probe_phase",
            tapes.len(),
            |ph, i| {
                let tape = &tapes[i];
                // Any key will do: the probe reads back the key it wrote.
                let fp = i as u64;
                tr.span(ph, "store.tape_write", || disk.write_tape(tape, fp))
                    .map_err(|e| e.to_string())?;
                let back = tr
                    .span(ph, "trace.decode", || {
                        disk.read_tape(tape.name(), tape.load_latency(), fp)
                    })
                    .map_err(|e| e.to_string())?;
                Ok::<bool, String>(back.as_ref() == Some(tape))
            },
        )?;
        out.attempted += tapes.len() as u64;
        out.failed += roundtrip.iter().filter(|r| !matches!(r, Ok(true))).count() as u64;
    }

    // Result write-through into a fresh store, and report emission.
    let results: Vec<(usize, &SimConfig, &RunResult)> = {
        let cells = all_cells(&plan);
        let flat = reference
            .results
            .iter()
            .chain(reference.oracle.iter().map(|o| &o.result));
        cells
            .into_iter()
            .zip(flat)
            .map(|((p, c), r)| (p, c, r))
            .collect()
    };
    let results_disk = DiskTier::new(tmp.join("result-store"));
    let program_fps: Vec<u64> = plan.programs.iter().map(program_fingerprint).collect();
    let writes = fan_out(
        &tr,
        &pool,
        "sim.result_write_phase",
        results.len(),
        |ph, i| {
            let (pair, cfg, result) = results[i];
            let fp = result_fingerprint(program_fps[plan.pairs[pair].0], cfg);
            tr.span(ph, "sim.store_result_write", || {
                results_disk.write_result(result, fp)
            })
        },
    )?;
    out.failed += writes.iter().filter(|w| w.is_err()).count() as u64;
    let store = results_disk.stats();
    out.failed += store.corruptions + store.io_errors;
    let emitted = tr.span(ROOT, "sim.report", || emit_reports(&plan, &reference));
    std::hint::black_box(emitted);

    let spans = tr.finish();
    write_spans(workload, seed, &spans);
    out.metrics = layer_metrics(LayerInputs {
        spans: &spans,
        threads,
        passes,
        untraced_wall,
        recorded,
        tapes: &tapes,
        tag: tag_counts,
        mem: mem_counts,
        work,
    });
    Ok(out)
}

/// Emits the pass through the public report emitters into memory: a
/// latency-sweep JSON and CSV per benchmark of a fused grid, one result
/// JSON object per other cell. Returns the bytes emitted.
fn emit_reports(plan: &Plan, pass: &PassResults) -> usize {
    let mut bytes = 0;
    let mut results = pass.results.iter();
    for rows in plan.fused.chunks(LATENCIES.len()) {
        let sweep = LatencySweep {
            benchmark: plan.program(rows[0].pair).name.clone(),
            configs: rows[0].cfgs.iter().map(|c| c.hw.label()).collect(),
            latencies: LATENCIES.to_vec(),
            rows: rows
                .iter()
                .map(|r| results.by_ref().take(r.cfgs.len()).cloned().collect())
                .collect(),
        };
        bytes += report::latency_sweep_json(&sweep).len() + report::latency_sweep_csv(&sweep).len();
    }
    for r in results.chain(pass.oracle.iter().map(|o| &o.result)) {
        bytes += report::run_result_json(r).len();
    }
    bytes
}

/// Writes the spans as JSON under `.perfbench_out/` for inspection;
/// failure to write them does not fail the run.
fn write_spans(workload: Workload, seed: u64, spans: &[Span]) {
    let dir = Path::new(".perfbench_out");
    let path = dir.join(format!("spans-{}-seed{seed}.json", workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans::to_json(spans)))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Replay and analysis work done inside the traced spans, the
/// denominators of the per-instruction and per-access metrics.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    /// Σ instructions × configurations over `cpu.fused` spans.
    fused_inst_cfgs: u64,
    /// Σ instructions over `cpu.unfused` spans.
    unfused_inst: u64,
    /// Σ memory accesses over `oracle.analyze` spans.
    oracle_accesses: u64,
    /// Of those, accesses classified must-hit or must-miss.
    oracle_classified: u64,
}

impl Work {
    fn note_oracle(&mut self, o: &OracleOutcome) {
        self.oracle_accesses += o.coverage.accesses;
        self.oracle_classified += o.coverage.must_hit + o.coverage.must_miss;
    }
}

struct LayerInputs<'a> {
    spans: &'a [Span],
    threads: usize,
    passes: u64,
    untraced_wall: f64,
    recorded: u64,
    tapes: &'a [TraceTape],
    tag: ProbeCounts,
    mem: ProbeCounts,
    work: Work,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(x: LayerInputs<'_>) -> Vec<Metric> {
    let spans = x.spans;
    let selfs = spans::self_times(spans);
    let secs = |name: &str| spans::self_secs(spans, &selfs, name);
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let parent_name = |s: &Span| by_id.get(&s.parent).map_or("", |p| p.name);
    // Σ duration of `name` spans, split by whether they ran in the
    // fused-vs-unfused check phase.
    let total = |name: &str, in_check: bool| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && (parent_name(s) == "sim.check_phase") == in_check)
            .map(Span::secs)
            .sum()
    };
    let fused_rows: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "cpu.fused")
        .map(|s| s.secs() * 1e3)
        .collect();
    let pass_wall: f64 = spans
        .iter()
        .filter(|s| PASS_PHASES.contains(&s.name))
        .map(Span::secs)
        .sum::<f64>()
        / x.passes as f64;
    let pass_jobs: f64 = spans
        .iter()
        .filter(|s| PASS_PHASES.contains(&parent_name(s)))
        .map(Span::secs)
        .sum::<f64>()
        / x.passes as f64;
    let tape_bytes: usize = x.tapes.iter().map(TraceTape::bytes).sum();
    vec![
        Metric::new("trace.build_s", secs("trace.build")),
        Metric::new("sched.compile_s", secs("sched.compile")),
        Metric::new("trace.record_s", secs("trace.record")),
        Metric::new(
            "trace.record_ns_per_inst",
            ratio(secs("trace.record") * 1e9, x.recorded as f64),
        ),
        Metric::new("trace.decode_s", secs("trace.decode")),
        Metric::new("trace.tape_mib", tape_bytes as f64 / (1024.0 * 1024.0)),
        Metric::new(
            "core.tag_ns_per_access",
            ratio(secs("core.tag") * 1e9, x.tag.accesses as f64),
        ),
        Metric::new(
            "core.tag_hit_frac",
            ratio(x.tag.hits as f64, x.tag.accesses as f64),
        ),
        Metric::new(
            "mem.access_ns",
            ratio(secs("mem.access") * 1e9, x.mem.accesses as f64),
        ),
        Metric::new("mem.fills", x.mem.fills as f64),
        Metric::new(
            "mem.merged_frac",
            ratio(
                x.mem.secondary as f64,
                (x.mem.primary + x.mem.secondary) as f64,
            ),
        ),
        Metric::new(
            "cpu.fused_ns_per_inst_cfg",
            ratio(secs("cpu.fused") * 1e9, x.work.fused_inst_cfgs as f64),
        ),
        Metric::new(
            "cpu.unfused_ns_per_inst",
            ratio(secs("cpu.unfused") * 1e9, x.work.unfused_inst as f64),
        ),
        Metric::new(
            "cpu.fusion_gain",
            ratio(total("cpu.unfused", true), total("cpu.fused", true)),
        ),
        Metric::new("cpu.row_p50_ms", quantile(&fused_rows, 0.5)),
        Metric::new("cpu.row_p90_ms", quantile(&fused_rows, 0.9)),
        Metric::new(
            "sim.pool_busy_frac",
            ratio(pass_jobs, x.threads as f64 * x.untraced_wall),
        ),
        Metric::new("sim.store_result_write_s", secs("sim.store_result_write")),
        Metric::new("sim.report_s", secs("sim.report")),
        Metric::new(
            "oracle.analyze_ns_per_access",
            ratio(secs("oracle.analyze") * 1e9, x.work.oracle_accesses as f64),
        ),
        Metric::new("oracle.probe_s", secs("oracle.probe")),
        Metric::new("oracle.check_s", secs("oracle.check")),
        Metric::new(
            "oracle.classified_frac",
            ratio(
                x.work.oracle_classified as f64,
                x.work.oracle_accesses as f64,
            ),
        ),
        Metric::new(
            "trace_overhead_frac",
            1.0 - ratio(x.untraced_wall, pass_wall),
        ),
        Metric::new("span_coverage_frac", spans::coverage(spans)),
    ]
}
