//! The benchmark's three workloads: which programs they build (remixed
//! from the run seed), which cells they simulate, the engine calls that
//! run those cells, and the digests their seed-0 results are pinned to.

use crate::spans::{Tracer, ROOT};
use nbl_core::geometry::CacheGeometry;
use nbl_core::rng::SplitMix64;
use nbl_core::tag_array::ReplacementKind;
use nbl_oracle::{analyze_tape, cross_check, Coverage, OracleConfig};
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::driver::{run_tape_probed, RunResult};
use nbl_sim::store::encode_result;
use nbl_sim::sweep::SweepEngine;
use nbl_trace::ir::{AddrPattern, Program};
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::{self, Scale, ALL, DETAILED_FIVE};
use std::hash::Hasher;

/// The paper's six scheduled load latencies.
pub const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// The latency the oracle cells are compiled for (`SimConfig::baseline`).
pub const ORACLE_LATENCY: u32 = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 13 roster on the paper's 8 KB direct-mapped cache, in memory.
    BaselineGrid,
    /// 4-way + L2 grid, replacement and model sweeps, store-warm.
    AssocStore,
    /// The `figures oracle` cell set: analyze + probe + cross-check.
    OracleCells,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BaselineGrid,
        Workload::AssocStore,
        Workload::OracleCells,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BaselineGrid => "baseline-grid",
            Workload::AssocStore => "assoc-store",
            Workload::OracleCells => "oracle-cells",
        }
    }

    /// The benchmarks the workload builds.
    pub fn benchmarks(self) -> &'static [&'static str] {
        match self {
            Workload::OracleCells => &DETAILED_FIVE,
            _ => &ALL,
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of the workload's results at seed 0 and full scale, pinned
    /// when the benchmark was defined. A change here means the simulator
    /// computes different results for unchanged inputs.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::BaselineGrid => 0x7b42_0cbd_78c9_0cea,
            Workload::AssocStore => 0x2131_e5c4_43ac_3e0e,
            Workload::OracleCells => 0x5eb7_2446_137b_3de7,
        }
    }
}

/// Re-seeds every `Gather` and `Chase` pattern of `program` from the run
/// seed. The new pattern seed depends only on the old one and the run
/// seed, so patterns that shared a seed still share one (mdljdp2's field
/// gathers walk the same records). Seed 0 leaves the program unchanged.
pub fn remix_seeds(program: &mut Program, seed: u64) {
    if seed == 0 {
        return;
    }
    let salt = SplitMix64::new(seed).next_u64();
    for pattern in &mut program.patterns {
        if let AddrPattern::Gather { seed: s, .. } | AddrPattern::Chase { seed: s, .. } = pattern {
            *s = SplitMix64::new(*s ^ salt).next_u64();
        }
    }
}

/// Builds the named benchmarks at `scale`, remixed from `seed` and
/// validated.
pub fn build_programs(names: &[&str], scale: Scale, seed: u64) -> Result<Vec<Program>, String> {
    names
        .iter()
        .map(|name| {
            let mut p = workloads::build(name, scale).ok_or(format!("unknown benchmark {name}"))?;
            remix_seeds(&mut p, seed);
            p.validate().map_err(|e| format!("{name}: {e}"))?;
            Ok(p)
        })
        .collect()
}

/// The eight grid configurations: the paper's seven plus in-cache MSHRs.
pub fn grid_configs() -> Vec<HwConfig> {
    let mut configs = HwConfig::baseline_seven();
    configs.push(HwConfig::InCache);
    configs
}

/// The MSHR organizations of the replacement and model sweeps.
pub fn sweep_configs() -> Vec<HwConfig> {
    vec![HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict]
}

fn geometry(ways: u32) -> CacheGeometry {
    CacheGeometry::new(8 * 1024, 32, ways).expect("8 KB, 32 B lines is a valid geometry")
}

/// Base configuration of the workload's fused grid, if it has one: the
/// paper's baseline for `baseline-grid`; for `assoc-store` an 8 KB 4-way
/// L1 and a 256 KB L2 with a 6-cycle hit and a 40-cycle L2-miss penalty
/// (the E-L2 extension).
fn grid_base(workload: Workload) -> Option<SimConfig> {
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    match workload {
        Workload::BaselineGrid => Some(base),
        Workload::AssocStore => Some(
            base.with_geometry(geometry(4))
                .with_penalty(40)
                .with_l2(256 * 1024, 6),
        ),
        Workload::OracleCells => None,
    }
}

/// Base of the replacement sweep: the `replsens` 4-way 8 KB cache.
pub fn replacement_base() -> SimConfig {
    SimConfig::baseline(HwConfig::NoRestrict).with_geometry(geometry(4))
}

/// One fused row: every configuration of one `(program, latency)` pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Index into [`Plan::pairs`].
    pub pair: usize,
    /// The row's configurations, in grid order.
    pub cfgs: Vec<SimConfig>,
}

/// One cell replayed on its own.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Plan::pairs`].
    pub pair: usize,
    /// The cell's configuration.
    pub cfg: SimConfig,
}

/// Everything a workload simulates, in the order the engine returns it:
/// fused rows first, then single cells, then oracle cells.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Built, remixed programs.
    pub programs: Vec<Program>,
    /// `(program index, latency)` of every tape the workload replays.
    pub pairs: Vec<(usize, u32)>,
    /// Rows the engine replays fused (`run_tape_fused`).
    pub fused: Vec<Row>,
    /// Cells the engine replays one by one (`run_tape`).
    pub single: Vec<Cell>,
    /// Cells analyzed, probed and cross-checked by the oracle.
    pub oracle: Vec<Cell>,
}

impl Plan {
    /// The workload's cells at `scale`, with programs remixed from `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Result<Plan, String> {
        Ok(Plan::with_programs(
            workload,
            build_programs(workload.benchmarks(), scale, seed)?,
        ))
    }

    /// The workload's cells over already built `programs`, one per name
    /// of [`Workload::benchmarks`], in that order.
    pub fn with_programs(workload: Workload, programs: Vec<Program>) -> Plan {
        let names = workload.benchmarks();
        let index = |name: &str| {
            names
                .iter()
                .position(|n| *n == name)
                .expect("benchmark in roster")
        };
        let mut plan = Plan {
            workload,
            programs,
            pairs: Vec::new(),
            fused: Vec::new(),
            single: Vec::new(),
            oracle: Vec::new(),
        };
        match grid_base(workload) {
            Some(base) => {
                for p in 0..names.len() {
                    for lat in LATENCIES {
                        plan.pairs.push((p, lat));
                        let cfgs = grid_configs()
                            .into_iter()
                            .map(|hw| SimConfig { hw, ..base.clone() }.at_latency(lat))
                            .collect();
                        plan.fused.push(Row {
                            pair: plan.pairs.len() - 1,
                            cfgs,
                        });
                    }
                }
            }
            None => {
                for p in 0..names.len() {
                    plan.pairs.push((p, ORACLE_LATENCY));
                }
            }
        }
        let pair_of = |p: usize, lat: u32| {
            LATENCIES
                .iter()
                .position(|&l| l == lat)
                .expect("paper latency")
                + p * LATENCIES.len()
        };
        match workload {
            Workload::BaselineGrid => {}
            Workload::AssocStore => {
                // Same nesting as `replacement_sweep` / `model_sweep`:
                // outer axis, then latency, then configuration.
                for name in DETAILED_FIVE {
                    for policy in ReplacementKind::all() {
                        for lat in LATENCIES {
                            for hw in sweep_configs() {
                                let cfg = SimConfig {
                                    hw,
                                    ..replacement_base()
                                }
                                .at_latency(lat)
                                .with_replacement(policy);
                                plan.single.push(Cell {
                                    pair: pair_of(index(name), lat),
                                    cfg,
                                });
                            }
                        }
                    }
                }
                for model in ProcessorKind::ALL {
                    for lat in LATENCIES {
                        for hw in sweep_configs() {
                            let cfg = SimConfig::baseline(hw)
                                .at_latency(lat)
                                .with_processor(model);
                            plan.single.push(Cell {
                                pair: pair_of(index("eqntott"), lat),
                                cfg,
                            });
                        }
                    }
                }
            }
            Workload::OracleCells => {
                for (pair, _) in DETAILED_FIVE.iter().enumerate() {
                    for ways in [1, 4] {
                        for policy in ReplacementKind::all() {
                            for hw in [HwConfig::Mc0, HwConfig::Fc(2)] {
                                let cfg = SimConfig::baseline(hw)
                                    .with_geometry(geometry(ways))
                                    .with_replacement(policy);
                                plan.oracle.push(Cell { pair, cfg });
                            }
                        }
                    }
                }
            }
        }
        plan
    }

    /// Cells in one pass: fused cells plus single plus oracle cells.
    pub fn cells(&self) -> usize {
        self.fused.iter().map(|r| r.cfgs.len()).sum::<usize>()
            + self.single.len()
            + self.oracle.len()
    }

    /// The program of pair `pair`.
    pub fn program(&self, pair: usize) -> &Program {
        &self.programs[self.pairs[pair].0]
    }
}

/// One oracle cell's outcome: the probed run, the classification counts
/// and the number of cross-check violations.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutcome {
    /// The probed replay's result (identical to `run_tape`).
    pub result: RunResult,
    /// Must-hit / must-miss / unknown counts.
    pub coverage: Coverage,
    /// Cross-check disagreements between oracle and simulator.
    pub violations: usize,
}

/// Analyzes, probes and cross-checks one cell, each step in a span under
/// `parent`.
pub fn check_oracle_cell(
    tr: &Tracer,
    parent: u32,
    name: &str,
    tape: &TraceTape,
    cfg: &SimConfig,
) -> Result<OracleOutcome, String> {
    let ocfg = OracleConfig::from_sim(cfg).map_err(|e| e.to_string())?;
    let analysis = tr.span(parent, "oracle.analyze", || analyze_tape(tape, &ocfg));
    let (result, outcomes) = tr
        .span(parent, "oracle.probe", || run_tape_probed(name, tape, cfg))
        .map_err(|e| e.to_string())?;
    let violations = tr.span(parent, "oracle.check", || {
        cross_check(tape, &analysis.classes, &outcomes).len()
    });
    Ok(OracleOutcome {
        result,
        coverage: analysis.coverage,
        violations,
    })
}

/// A pass's results in plan order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassResults {
    /// Fused then single cell results.
    pub results: Vec<RunResult>,
    /// Oracle cell outcomes.
    pub oracle: Vec<OracleOutcome>,
}

impl PassResults {
    /// Simulated (or oracle-checked) dynamic instructions in the pass.
    pub fn instructions(&self) -> u64 {
        self.results
            .iter()
            .chain(self.oracle.iter().map(|o| &o.result))
            .map(|r| r.instructions)
            .sum()
    }

    /// Digest over every result's `encode_result` bytes and every oracle
    /// cell's coverage and violation counts, in plan order.
    pub fn digest(&self) -> u64 {
        let mut h = nbl_core::fingerprint::StableHasher::new();
        for r in &self.results {
            h.write(&encode_result(r));
        }
        for o in &self.oracle {
            h.write(&encode_result(&o.result));
            let c = &o.coverage;
            for n in [
                c.accesses,
                c.must_hit,
                c.must_miss,
                c.unknown,
                o.violations as u64,
            ] {
                h.write_u64(n);
            }
        }
        h.finish()
    }

    /// Cells that differ from `reference` (all of them if the shapes differ).
    pub fn mismatches(&self, reference: &PassResults) -> usize {
        if self.results.len() != reference.results.len()
            || self.oracle.len() != reference.oracle.len()
        {
            return self.results.len().max(reference.results.len())
                + self.oracle.len().max(reference.oracle.len());
        }
        let cells = self
            .results
            .iter()
            .zip(&reference.results)
            .filter(|(a, b)| a != b)
            .count();
        cells
            + self
                .oracle
                .iter()
                .zip(&reference.oracle)
                .filter(|(a, b)| a != b)
                .count()
    }

    /// Oracle cells with at least one cross-check violation.
    pub fn violating_cells(&self) -> usize {
        self.oracle.iter().filter(|o| o.violations > 0).count()
    }
}

/// Runs one pass of the workload through the engine's public sweep
/// entry points, on tapes the engine already holds.
pub fn engine_pass(engine: &SweepEngine, plan: &Plan) -> Result<PassResults, String> {
    let refs: Vec<&Program> = plan.programs.iter().collect();
    let mut out = PassResults::default();
    if let Some(base) = grid_base(plan.workload) {
        let sweeps = engine
            .grid_sweep(&refs, &base, &grid_configs(), &LATENCIES)
            .map_err(|e| format!("grid sweep: {e}"))?;
        out.results.extend(
            sweeps
                .into_iter()
                .flat_map(|s| s.rows.into_iter().flatten()),
        );
    }
    if plan.workload == Workload::AssocStore {
        for name in DETAILED_FIVE {
            let p = plan
                .programs
                .iter()
                .find(|p| p.name == name)
                .expect("detailed benchmark built");
            let sweep = engine
                .replacement_sweep(
                    p,
                    &replacement_base(),
                    &ReplacementKind::all(),
                    &sweep_configs(),
                    &LATENCIES,
                )
                .map_err(|e| format!("{name} replacement sweep: {e}"))?;
            out.results
                .extend(sweep.rows.into_iter().flatten().flatten());
        }
        let p = plan
            .programs
            .iter()
            .find(|p| p.name == "eqntott")
            .expect("eqntott built");
        let sweep = engine
            .model_sweep(
                p,
                &SimConfig::baseline(HwConfig::NoRestrict),
                &ProcessorKind::ALL,
                &sweep_configs(),
                &LATENCIES,
            )
            .map_err(|e| format!("eqntott model sweep: {e}"))?;
        out.results
            .extend(sweep.rows.into_iter().flatten().flatten());
    }
    if plan.workload == Workload::OracleCells {
        let tapes = resident_tapes(engine, plan)?;
        let off = Tracer::disabled();
        let outcomes = engine
            .pool()
            .try_run(plan.oracle.len(), |i| {
                let cell = &plan.oracle[i];
                check_oracle_cell(
                    &off,
                    ROOT,
                    &plan.program(cell.pair).name,
                    &tapes[cell.pair],
                    &cell.cfg,
                )
            })
            .map_err(|e| format!("oracle pool: {e}"))?;
        out.oracle = outcomes.into_iter().collect::<Result<_, _>>()?;
    }
    Ok(out)
}

/// Compiles (cached) and records or decodes (tiered) every tape of the
/// plan into the engine's store, in parallel; returns them in pair order.
pub fn resident_tapes(
    engine: &SweepEngine,
    plan: &Plan,
) -> Result<Vec<std::sync::Arc<TraceTape>>, String> {
    engine
        .pool()
        .try_run(plan.pairs.len(), |i| {
            let (p, lat) = plan.pairs[i];
            let compiled = engine
                .store()
                .get_or_compile(&plan.programs[p], lat)
                .map_err(|e| format!("{} @ {lat}: {e}", plan.programs[p].name))?;
            Ok(engine.store().get_or_record(&compiled))
        })
        .map_err(|e| format!("setup pool: {e}"))?
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_seeds(p: &Program) -> Vec<u64> {
        p.patterns
            .iter()
            .filter_map(|pat| match *pat {
                AddrPattern::Gather { seed, .. } | AddrPattern::Chase { seed, .. } => Some(seed),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn seed_zero_is_the_identity() {
        for name in ALL {
            let original = workloads::build(name, Scale::quick()).unwrap();
            let mut remixed = original.clone();
            remix_seeds(&mut remixed, 0);
            assert_eq!(format!("{original:?}"), format!("{remixed:?}"), "{name}");
        }
    }

    #[test]
    fn remix_changes_seeds_keeps_equal_seeds_equal_and_programs_valid() {
        let mut changed = 0;
        for name in ALL {
            let original = workloads::build(name, Scale::quick()).unwrap();
            let before = pattern_seeds(&original);
            let mut remixed = original.clone();
            remix_seeds(&mut remixed, 42);
            let after = pattern_seeds(&remixed);
            remixed.validate().unwrap();
            for i in 0..before.len() {
                for j in 0..before.len() {
                    assert_eq!(
                        before[i] == before[j],
                        after[i] == after[j],
                        "{name} {i} {j}"
                    );
                }
                changed += usize::from(before[i] != after[i]);
            }
            let mut again = original.clone();
            remix_seeds(&mut again, 42);
            assert_eq!(
                after,
                pattern_seeds(&again),
                "{name}: remix is deterministic"
            );
        }
        assert!(changed > 0, "a nonzero seed remixes some pattern");
        // mdljdp2's field gathers share one seed before and after.
        let mut p = workloads::build("mdljdp2", Scale::quick()).unwrap();
        remix_seeds(&mut p, 7);
        let seeds = pattern_seeds(&p);
        assert!(seeds.windows(2).any(|w| w[0] == w[1]));
    }

    #[test]
    fn plans_have_the_documented_shapes() {
        let grid = Plan::new(Workload::BaselineGrid, Scale::quick(), 0).unwrap();
        assert_eq!((grid.pairs.len(), grid.cells()), (108, 864));
        let assoc = Plan::new(Workload::AssocStore, Scale::quick(), 0).unwrap();
        assert_eq!(assoc.cells(), 864 + 5 * 4 * 3 * 6 + 3 * 3 * 6);
        let oracle = Plan::new(Workload::OracleCells, Scale::quick(), 0).unwrap();
        assert_eq!((oracle.pairs.len(), oracle.cells()), (5, 80));
    }

    #[test]
    fn digests_are_stable_across_thread_counts_and_sensitive_to_results() {
        let plan = Plan::new(Workload::OracleCells, Scale::quick(), 3).unwrap();
        let one = SweepEngine::new(1);
        resident_tapes(&one, &plan).unwrap();
        let a = engine_pass(&one, &plan).unwrap();
        let two = SweepEngine::new(2);
        resident_tapes(&two, &plan).unwrap();
        let b = engine_pass(&two, &plan).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.mismatches(&b), 0);
        assert_eq!(a.violating_cells(), 0);
        let mut c = a.clone();
        c.oracle[0].result.cycles += 1;
        assert_ne!(a.digest(), c.digest());
        assert_eq!(c.mismatches(&a), 1);
    }
}
