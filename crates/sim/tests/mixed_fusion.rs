//! Heterogeneous fused groups: rows mixing configurations that qualify
//! for the specialized direct-mapped/no-L2 replay kernel with ones that
//! do not (L2-backed, victim-buffered), and the planed rows of the
//! replacement and model sweeps (every policy, or every processor model,
//! in one row), must stay bit-identical to unfused replay — fusion and
//! kernel selection are pure performance choices, never observable in
//! results.

use nbl_core::geometry::CacheGeometry;
use nbl_core::tag_array::ReplacementKind;
use nbl_sim::config::{HwConfig, ProcessorKind, SimConfig};
use nbl_sim::driver::{run_tape, run_tape_fused};
use nbl_sim::store::ArtifactStore;
use nbl_sim::sweep::SweepEngine;
use nbl_trace::workloads::{build, Scale};

const LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// Six configurations over one shared L1 geometry: the first three
/// qualify for the specialized kernel (direct-mapped, no L2, no victim
/// buffer), the last three each break one qualification (an L2 behind
/// the same L1, a victim buffer, both at once) — so the whole group can
/// share a decode but must not take the specialized loop.
fn mixed_configs(lat: u32) -> Vec<SimConfig> {
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    let mk = |hw: HwConfig| SimConfig { hw, ..base.clone() }.at_latency(lat);
    let mut with_l2 = mk(HwConfig::NoRestrict);
    with_l2.l2 = Some((64 * 1024, 4));
    let mut with_victim = mk(HwConfig::Mc0);
    with_victim.victim_entries = 4;
    let mut with_both = mk(HwConfig::Fc(4));
    with_both.l2 = Some((32 * 1024, 6));
    with_both.victim_entries = 2;
    vec![
        mk(HwConfig::Mc0),
        mk(HwConfig::Mc(1)),
        mk(HwConfig::NoRestrict),
        with_l2,
        with_victim,
        with_both,
    ]
}

/// The 72-cell golden grid: 2 benchmarks x 6 latencies x 6 mixed
/// configurations, fused rows against per-cell replays of the same
/// tapes.
#[test]
fn mixed_qualifying_rows_fall_back_and_match_unfused() {
    let store = ArtifactStore::in_memory();
    let mut cells = 0;
    for name in ["doduc", "eqntott"] {
        let program = build(name, Scale::quick()).unwrap();
        for lat in LATENCIES {
            let compiled = store.get_or_compile(&program, lat).unwrap();
            let tape = store.get_or_record(&compiled);
            let cfgs = mixed_configs(lat);
            let fused = run_tape_fused(name, &tape, &cfgs).unwrap();
            for (cfg, fused_result) in cfgs.iter().zip(&fused) {
                let unfused = run_tape(name, &tape, cfg).unwrap();
                assert_eq!(
                    *fused_result,
                    unfused,
                    "{name} lat {lat} {}: mixed fused row diverged from unfused",
                    cfg.hw.label()
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 72, "the golden grid covers 72 cells");
}

/// The same heterogeneity through the sweep engine: `grid_sweep` rows
/// whose base carries an L2 (so no cell qualifies for the specialized
/// kernel) still match `grid_sweep_unfused` bit for bit.
#[test]
fn l2_backed_grid_sweep_matches_unfused() {
    let engine = SweepEngine::new(3);
    let doduc = build("doduc", Scale::quick()).unwrap();
    let eqntott = build("eqntott", Scale::quick()).unwrap();
    let mut base = SimConfig::baseline(HwConfig::NoRestrict);
    base.l2 = Some((64 * 1024, 4));
    let configs = [HwConfig::Mc0, HwConfig::Mc(1), HwConfig::NoRestrict];
    let latencies = [1, 10];
    let fused = engine
        .grid_sweep(&[&doduc, &eqntott], &base, &configs, &latencies)
        .unwrap();
    let unfused = engine
        .grid_sweep_unfused(&[&doduc, &eqntott], &base, &configs, &latencies)
        .unwrap();
    for (f, u) in fused.iter().zip(&unfused) {
        assert_eq!(
            f.rows, u.rows,
            "{}: L2-backed fusion must not change results",
            f.benchmark
        );
    }
}

/// The planed rows the replacement and model sweeps fuse: on a 4-way
/// cache, every replacement policy × 3 configurations in one row; and
/// every processor model × 3 configurations in one row (the dual-issue
/// and replaying models fall back to per-configuration replay inside
/// `run_tape_fused`). Each fused cell must equal its per-cell replay.
#[test]
fn policy_and_model_rows_fuse_bit_identically() {
    let store = ArtifactStore::in_memory();
    let configs = [HwConfig::Mc(1), HwConfig::Fc(2), HwConfig::NoRestrict];
    let four_way = SimConfig::baseline(HwConfig::NoRestrict)
        .with_geometry(CacheGeometry::new(8 * 1024, 32, 4).unwrap());
    let plain = SimConfig::baseline(HwConfig::NoRestrict);
    for name in ["eqntott", "doduc"] {
        let program = build(name, Scale::quick()).unwrap();
        for lat in [1, 10] {
            let tape = store.get_or_record(&store.get_or_compile(&program, lat).unwrap());
            let on = |base: &SimConfig, hw: &HwConfig| {
                SimConfig {
                    hw: hw.clone(),
                    ..base.clone()
                }
                .at_latency(lat)
            };
            let policy_row: Vec<SimConfig> = ReplacementKind::all()
                .into_iter()
                .flat_map(|p| configs.iter().map(move |hw| (p, hw)))
                .map(|(p, hw)| on(&four_way, hw).with_replacement(p))
                .collect();
            let model_row: Vec<SimConfig> = ProcessorKind::ALL
                .into_iter()
                .flat_map(|m| configs.iter().map(move |hw| (m, hw)))
                .map(|(m, hw)| on(&plain, hw).with_processor(m))
                .collect();
            assert_eq!(policy_row.len(), 12);
            assert_eq!(model_row.len(), 9);
            for row in [policy_row, model_row] {
                let fused = run_tape_fused(name, &tape, &row).unwrap();
                for (cfg, fused_result) in row.iter().zip(&fused) {
                    assert_eq!(
                        *fused_result,
                        run_tape(name, &tape, cfg).unwrap(),
                        "{name} lat {lat} {} {:?} {:?}: planed fused row diverged",
                        cfg.hw.label(),
                        cfg.replacement,
                        cfg.processor
                    );
                }
            }
        }
    }
}
