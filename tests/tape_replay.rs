//! Tape-replay equivalence guard for the record-once/replay-many backend.
//!
//! `run_compiled` serves the dynamic stream from a recorded [`TraceTape`]
//! instead of re-walking the compiled script through the `Executor`; this
//! suite pins that the swap is invisible: every metric of every
//! [`RunResult`] is bit-identical between the replay and interpreter
//! paths, on the same 72-cell golden grid `refactor_equivalence.rs` pins
//! against the pre-port engine, plus one workload per family and the
//! dual-issue driver.

use nonblocking_loads::sched::compile::compile;
use nonblocking_loads::sim::config::{HwConfig, ProcessorKind, SimConfig};
use nonblocking_loads::sim::driver::{
    run_compiled, run_compiled_interpreted, run_dual_compiled, run_dual_compiled_interpreted,
};
use nonblocking_loads::trace::machine::CompiledProgram;
use nonblocking_loads::trace::tape::TraceTape;
use nonblocking_loads::trace::workloads::{build, Scale};

/// The Fig. 13 hardware configurations of the 72-row golden grid.
const GOLDEN_CONFIGS: [HwConfig; 6] = [
    HwConfig::Mc0,
    HwConfig::Mc(1),
    HwConfig::Mc(2),
    HwConfig::Fc(1),
    HwConfig::Fc(2),
    HwConfig::NoRestrict,
];

/// The paper's scheduled load latencies.
const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

fn compiled(name: &str, latency: u32) -> CompiledProgram {
    let p = build(name, Scale::quick()).unwrap();
    compile(&p, latency).unwrap()
}

/// Replay must be indistinguishable from interpretation on the exact grid
/// the refactor-equivalence goldens pin: 2 benchmarks × 6 configurations
/// × 6 latencies, full `RunResult` equality (every field, bit for bit).
#[test]
fn tape_replay_matches_interpreter_on_every_golden_cell() {
    for bench in ["eqntott", "tomcatv"] {
        for lat in LATENCIES {
            let c = compiled(bench, lat);
            for hw in &GOLDEN_CONFIGS {
                let cfg = SimConfig::baseline(hw.clone()).at_latency(lat);
                let replayed = run_compiled(bench, &c, &cfg).unwrap();
                let interpreted = run_compiled_interpreted(bench, &c, &cfg).unwrap();
                assert_eq!(
                    replayed,
                    interpreted,
                    "{bench} [{}] latency {lat}: tape replay diverged",
                    hw.label()
                );
            }
        }
    }
}

/// One benchmark per workload family, run under the two configurations
/// the golden grid does not cover (blocking + write-miss allocate, and
/// the in-cache MSHR organization) as well as the unrestricted one, on
/// both single-width processor models: the stalling pipeline and the
/// replaying one (whose per-cause `replay` attribution is compared too).
#[test]
fn tape_replay_matches_interpreter_per_workload_family() {
    // integer / pointer-chase / FP-streaming / FP-mixed archetypes.
    for bench in ["eqntott", "xlisp", "tomcatv", "doduc"] {
        for lat in [2, 10] {
            let c = compiled(bench, lat);
            for hw in [HwConfig::Mc0Wma, HwConfig::InCache, HwConfig::NoRestrict] {
                for model in [ProcessorKind::SingleInOrder, ProcessorKind::ReplayCause] {
                    let cfg = SimConfig::baseline(hw.clone())
                        .at_latency(lat)
                        .with_processor(model);
                    let replayed = run_compiled(bench, &c, &cfg).unwrap();
                    let interpreted = run_compiled_interpreted(bench, &c, &cfg).unwrap();
                    assert_eq!(
                        replayed,
                        interpreted,
                        "{bench} [{}] latency {lat} {}: tape replay diverged",
                        hw.label(),
                        model.label()
                    );
                }
            }
        }
    }
}

/// The recorded tape's structure matches the program it came from: entry
/// count, load/store mix, ascending barrier indices, and a mem flag on
/// exactly the memory-operation barriers.
#[test]
fn recorded_tapes_are_structurally_sound_for_every_family() {
    for bench in ["eqntott", "xlisp", "tomcatv", "doduc"] {
        let c = compiled(bench, 6);
        let tape = TraceTape::record(&c);
        assert_eq!(tape.len() as u64, c.dynamic_instructions(), "{bench}");
        let (loads, stores, _) = c.dynamic_mix();
        assert_eq!(tape.loads(), loads, "{bench}");
        assert_eq!(tape.stores(), stores, "{bench}");
        let mut prev = None;
        for (slot, &entry) in tape.barriers().iter().enumerate() {
            let i = entry as usize;
            assert!(prev < Some(i), "{bench}: barrier indices must ascend");
            prev = Some(i);
            assert_eq!(
                tape.is_mem_barrier(slot),
                tape.is_mem(i),
                "{bench}: barrier {i} mem flag disagrees with its kind"
            );
        }
        // Every memory operation must appear in the barrier index (a mem
        // op always touches the memory system, so replay may never skip
        // one in a bulk free-run).
        let mem_ops = (0..tape.len()).filter(|&i| tape.is_mem(i)).count() as u64;
        let mem_barriers = (0..tape.barriers().len())
            .filter(|&slot| tape.is_mem_barrier(slot))
            .count() as u64;
        assert_eq!(mem_ops, loads + stores, "{bench}");
        assert_eq!(mem_barriers, mem_ops, "{bench}");
    }
}

/// The dual-issue driver replays both its passes (perfect-cache and real)
/// from one tape; the pair must match the interpreted reference exactly.
#[test]
fn dual_issue_tape_replay_matches_interpreter() {
    for bench in ["eqntott", "doduc"] {
        for hw in [HwConfig::Mc(1), HwConfig::NoRestrict] {
            let c = compiled(bench, 3);
            let cfg = SimConfig::baseline(hw.clone()).at_latency(3);
            let replayed = run_dual_compiled(bench, &c, &cfg).unwrap();
            let interpreted = run_dual_compiled_interpreted(bench, &c, &cfg).unwrap();
            assert_eq!(
                replayed,
                interpreted,
                "{bench} [{}]: dual tape replay diverged",
                hw.label()
            );
        }
    }
}
