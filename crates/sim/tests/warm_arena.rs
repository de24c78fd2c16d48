//! Exact pins on the worker-arena allocation counters.
//!
//! The counters are per-thread ([`arena_counts`]), so each test reads the
//! deltas of its own runs only: tests may run concurrently without
//! perturbing each other's equalities.

use nbl_sim::{
    arena_counts, run_dual_tape, run_tape, run_tape_fused, ArtifactStore, HwConfig, SimConfig,
};
use nbl_trace::workloads::{build, Scale};

#[test]
fn warm_workers_serve_replays_without_building_processors() {
    let store = ArtifactStore::in_memory();
    let program = build("eqntott", Scale::quick()).unwrap();
    let base = SimConfig::baseline(HwConfig::Mc0);
    let compiled = store.get_or_compile(&program, base.load_latency).unwrap();
    let tape = store.get_or_record(&compiled);
    let configs = [
        SimConfig::baseline(HwConfig::Mc0),
        SimConfig::baseline(HwConfig::Mc(1)),
        SimConfig::baseline(HwConfig::Fc(4)),
        SimConfig::baseline(HwConfig::NoRestrict),
    ];

    // Cold pass: every configuration builds its processor.
    let mut cold = Vec::new();
    for cfg in &configs {
        cold.push(run_tape(&program.name, &tape, cfg).unwrap());
    }

    // Warm pass: every run must be served from the arena — the pinned
    // allocation counter. This is the model-level stand-in for a heap
    // profiler: a reset processor reuses all of its internal storage, so
    // zero builds means zero per-run simulator construction.
    let before = arena_counts();
    let mut warm = Vec::new();
    for cfg in &configs {
        warm.push(run_tape(&program.name, &tape, cfg).unwrap());
    }
    let delta = arena_counts().since(before);
    assert_eq!(delta.builds, 0, "a warm worker builds no processors");
    assert_eq!(delta.reuses, configs.len() as u64);

    // And reuse must be invisible in the results.
    assert_eq!(cold, warm, "pooled replay must be bit-identical");
}

#[test]
fn fused_replay_draws_from_and_refills_the_arena() {
    let store = ArtifactStore::in_memory();
    let program = build("compress", Scale::quick()).unwrap();
    let base = SimConfig::baseline(HwConfig::Mc0);
    let compiled = store.get_or_compile(&program, base.load_latency).unwrap();
    let tape = store.get_or_record(&compiled);
    let cfgs = vec![
        SimConfig::baseline(HwConfig::Mc0),
        SimConfig::baseline(HwConfig::Mc(2)),
        SimConfig::baseline(HwConfig::NoRestrict),
    ];

    let first = run_tape_fused(&program.name, &tape, &cfgs).unwrap();
    let before = arena_counts();
    let second = run_tape_fused(&program.name, &tape, &cfgs).unwrap();
    let delta = arena_counts().since(before);
    assert_eq!(delta.builds, 0, "a warm fused walk builds nothing");
    assert_eq!(delta.reuses, cfgs.len() as u64);
    assert_eq!(first, second);

    // Fused and unfused agree cell-for-cell.
    let solo: Vec<_> = cfgs
        .iter()
        .map(|cfg| run_tape(&program.name, &tape, cfg).unwrap())
        .collect();
    assert_eq!(first, solo, "fusion must not change any metric");
}

#[test]
fn warm_dual_runs_draw_both_passes_from_the_arena() {
    let store = ArtifactStore::in_memory();
    let program = build("xlisp", Scale::quick()).unwrap();
    let cfg = SimConfig::baseline(HwConfig::Fc(2));
    let compiled = store.get_or_compile(&program, cfg.load_latency).unwrap();
    let tape = store.get_or_record(&compiled);

    let cold = run_dual_tape(&program.name, &tape, &cfg).unwrap();
    let before = arena_counts();
    let warm = run_dual_tape(&program.name, &tape, &cfg).unwrap();
    let delta = arena_counts().since(before);
    // One engine per pass: the perfect-cache probe and the real run.
    assert_eq!(delta.builds, 0, "a warm dual run builds nothing");
    assert_eq!(delta.reuses, 2);
    assert_eq!(cold, warm, "pooled dual replay must be bit-identical");
}
