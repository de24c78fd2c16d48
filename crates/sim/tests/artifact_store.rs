//! End-to-end tests of the tiered artifact store (DESIGN.md §16): two
//! store instances over one directory model two processes sharing
//! `results/store/`, and every corruption scenario must degrade to a
//! transparent re-record/re-simulate with bit-identical results.

use nbl_sim::driver::RunResult;
use nbl_sim::store::{
    decode_result, encode_result, program_fingerprint, result_fingerprint, ArtifactError,
    ArtifactStore, DiskTier,
};
use nbl_sim::{HwConfig, SimConfig, SweepEngine};
use nbl_trace::ir::Program;
use nbl_trace::tape::io::{TapeCodecError, TAPE_FORMAT_VERSION};
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::{build, Scale};
use std::path::PathBuf;

/// A fresh per-test store directory under the system temp dir. Each test
/// passes a distinct tag, so the tests in this binary can run
/// concurrently; the process id keeps parallel `cargo test` invocations
/// apart.
fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nbl-artifact-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but heterogeneous grid: 2 benchmarks x 2 configs x 2
/// latencies = 8 cells, 4 `(benchmark, latency)` compile/tape pairs.
fn grid_programs() -> Vec<Program> {
    vec![
        build("eqntott", Scale::quick()).unwrap(),
        build("compress", Scale::quick()).unwrap(),
    ]
}

const GRID_CONFIGS: [HwConfig; 2] = [HwConfig::Mc0, HwConfig::Mc(4)];
const GRID_LATENCIES: [u32; 2] = [6, 10];
const CELLS: u64 = 8;
const PAIRS: u64 = 4;

fn run_grid(engine: &SweepEngine, programs: &[Program]) -> Vec<RunResult> {
    let refs: Vec<&Program> = programs.iter().collect();
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    engine
        .grid_sweep(&refs, &base, &GRID_CONFIGS, &GRID_LATENCIES)
        .unwrap()
        .into_iter()
        .flat_map(|s| s.rows.into_iter().flatten())
        .collect()
}

/// Fig. 18's shape in small: one benchmark, 2 configs x 3 penalties at
/// the base latency = 6 cells over one `(benchmark, latency)` pair, none
/// of them equal to a grid cell (the base penalty is 16).
const PENALTIES: [u32; 3] = [8, 32, 64];
const PENALTY_CELLS: u64 = 6;

fn run_penalties(engine: &SweepEngine, programs: &[Program]) -> Vec<RunResult> {
    let base = SimConfig::baseline(HwConfig::NoRestrict);
    engine
        .penalty_sweep(&programs[0], &base, &GRID_CONFIGS, &PENALTIES)
        .unwrap()
        .rows
        .into_iter()
        .flatten()
        .flatten()
        .collect()
}

fn disk_engine(dir: &PathBuf, incremental: bool) -> SweepEngine {
    SweepEngine::with_store(2, ArtifactStore::with_disk(dir, incremental))
}

/// Artifact files of one kind currently in the store directory.
fn artifacts_with_extension(dir: &PathBuf, ext: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    found.sort();
    found
}

#[test]
fn cross_process_warm_start_hits_the_disk_tier() {
    let dir = temp_store("warm");
    let programs = grid_programs();

    // "Process" A: empty store, so every pair records and writes through.
    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);
    let sa = a.store().disk_stats();
    assert_eq!(sa.tape_hits, 0);
    assert_eq!(sa.tape_misses, PAIRS);
    assert_eq!(sa.tape_writes, PAIRS);
    assert_eq!(sa.result_writes, CELLS);
    assert_eq!(a.tapes().stats().records, PAIRS);

    // "Process" B: a fresh instance over the same directory. Every tape
    // request must be answered by decoding A's artifacts — no recording.
    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(
        again, baseline,
        "disk-tier tapes must replay bit-identically"
    );
    let sb = b.store().disk_stats();
    assert_eq!(sb.tape_hits, PAIRS);
    assert_eq!(sb.tape_misses, 0);
    assert_eq!(sb.corruptions, 0);
    assert_eq!(
        b.tapes().stats().records,
        0,
        "warm start must not re-record"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_mode_answers_cells_from_stored_results() {
    let dir = temp_store("incremental");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);
    let penalties = run_penalties(&a, &programs);
    assert_eq!(a.store().disk_stats().result_writes, CELLS + PENALTY_CELLS);

    // Incremental "process": every cell's input fingerprints are
    // unchanged, so the whole grid and the penalty sweep come back from
    // result artifacts without compiling, recording, or simulating
    // anything.
    let b = disk_engine(&dir, true);
    assert!(b.store().incremental());
    let served = run_grid(&b, &programs);
    assert_eq!(served, baseline, "stored results must be bit-identical");
    let served = run_penalties(&b, &programs);
    assert_eq!(
        served, penalties,
        "stored penalty cells must be bit-identical"
    );
    let sb = b.store().disk_stats();
    assert_eq!(sb.result_hits, CELLS + PENALTY_CELLS);
    assert_eq!(sb.result_misses, 0);
    assert_eq!(b.telemetry().snapshot().runs, 0, "nothing is simulated");
    assert_eq!(
        b.cache().stats().compiles,
        0,
        "incremental hit skips compile"
    );
    assert_eq!(
        b.tapes().stats().records,
        0,
        "incremental hit skips recording"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_tape_is_quarantined_and_transparently_re_recorded() {
    let dir = temp_store("corrupt-tape");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    // Flip one bit in the middle of one tape artifact.
    let tapes = artifacts_with_extension(&dir, "nbt");
    assert_eq!(tapes.len(), PAIRS as usize);
    let victim = &tapes[1];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(victim, &bytes).unwrap();

    // A fresh "process" must detect the damage, quarantine the file,
    // re-record the pair, and finish the sweep with unperturbed results.
    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(again, baseline, "corruption must not perturb results");
    let sb = b.store().disk_stats();
    assert_eq!(sb.corruptions, 1);
    assert_eq!(sb.tape_hits, PAIRS - 1);
    assert_eq!(sb.tape_writes, 1, "the damaged pair is re-recorded");
    assert_eq!(b.tapes().stats().records, 1);
    assert_eq!(
        artifacts_with_extension(&dir, "corrupt").len(),
        1,
        "the damaged file is kept aside as evidence"
    );
    assert!(victim.exists(), "the content address is repopulated");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A tape artifact from a format-1 build (address per entry, barrier
/// flag in bit 31) must never reach a replay: its header fails as
/// `UnsupportedVersion(1)`, the file is quarantined, and the pair is
/// re-recorded in the current format with unperturbed results.
#[test]
fn v1_tape_artifact_is_rejected_and_re_recorded() {
    let dir = temp_store("v1-tape");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    // Stamp format version 1 into one artifact's header (the `u32` after
    // the magic).
    let tapes = artifacts_with_extension(&dir, "nbt");
    assert_eq!(tapes.len(), PAIRS as usize);
    let victim = &tapes[0];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        TraceTape::from_bytes(&bytes),
        Err(TapeCodecError::UnsupportedVersion(1))
    );
    std::fs::write(victim, &bytes).unwrap();

    let b = disk_engine(&dir, false);
    let again = run_grid(&b, &programs);
    assert_eq!(
        again, baseline,
        "a rejected v1 tape must not perturb results"
    );
    let sb = b.store().disk_stats();
    assert_eq!(sb.corruptions, 1);
    assert_eq!(sb.tape_hits, PAIRS - 1);
    assert_eq!(sb.tape_writes, 1, "the v1 pair is re-recorded");
    assert_eq!(b.tapes().stats().records, 1);
    let fresh = std::fs::read(victim).unwrap();
    assert_eq!(fresh[4..8], TAPE_FORMAT_VERSION.to_le_bytes());
    assert!(TraceTape::from_bytes(&fresh).is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_result_is_quarantined_and_the_cell_re_simulated() {
    let dir = temp_store("corrupt-result");
    let programs = grid_programs();

    let a = disk_engine(&dir, false);
    let baseline = run_grid(&a, &programs);

    let results = artifacts_with_extension(&dir, "nbr");
    assert_eq!(results.len(), CELLS as usize);
    let victim = &results[3];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    // Incremental sweep over the damaged store: 7 cells come back from
    // artifacts, the quarantined one is re-simulated, and the reassembled
    // grid is still bit-identical.
    let b = disk_engine(&dir, true);
    let served = run_grid(&b, &programs);
    assert_eq!(served, baseline, "re-simulated cell must be bit-identical");
    let sb = b.store().disk_stats();
    assert_eq!(sb.corruptions, 1);
    assert_eq!(sb.result_hits, CELLS - 1);
    assert_eq!(sb.result_writes, 1, "the re-simulated cell writes back");
    assert!(victim.exists(), "the content address is repopulated");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_mislabeled_artifacts_report_typed_errors() {
    let dir = temp_store("typed-errors");
    let program = build("eqntott", Scale::quick()).unwrap();
    let store = ArtifactStore::in_memory();
    let compiled = store.get_or_compile(&program, 6).unwrap();
    let tape = TraceTape::record(&compiled);

    let tier = DiskTier::new(&dir);
    let fp = 0x1234u64;
    tier.write_tape(&tape, fp).unwrap();
    let path = tier.tape_path(tape.name(), tape.load_latency(), fp);

    // Truncation is a typed codec error, and the read quarantines the
    // file, so the next lookup is a plain miss.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    match tier.read_tape(tape.name(), tape.load_latency(), fp) {
        Err(ArtifactError::Codec(_)) => {}
        other => panic!("truncated artifact must be a codec error, got {other:?}"),
    }
    assert_eq!(
        tier.read_tape(tape.name(), tape.load_latency(), fp),
        Ok(None)
    );

    // A healthy artifact parked at the wrong content address decodes
    // fine but fails the identity check.
    let alias = tier.tape_path("compress", tape.load_latency(), fp);
    std::fs::write(&alias, &bytes).unwrap();
    assert_eq!(
        tier.read_tape("compress", tape.load_latency(), fp),
        Err(ArtifactError::Identity)
    );
    assert!(!alias.exists(), "mislabeled artifact is quarantined");

    let stats = tier.stats();
    assert_eq!(stats.corruptions, 2);
    assert_eq!(stats.tape_misses, 1);
    assert_eq!(stats.tape_hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_codec_round_trips_and_rejects_every_bit_flip() {
    let program = build("swm256", Scale::quick()).unwrap();
    let store = ArtifactStore::in_memory();
    let compiled = store.get_or_compile(&program, 10).unwrap();
    let cfg = SimConfig::baseline(HwConfig::Fc(4)).at_latency(10);
    let result = nbl_sim::run_compiled(&program.name, &compiled, &cfg).unwrap();

    let bytes = encode_result(&result);
    assert_eq!(
        decode_result(&bytes).unwrap(),
        result,
        "decode must reproduce the result bit-for-bit (floats included)"
    );

    // Every single-bit flip anywhere in the artifact must be caught by
    // magic, version, structure, or checksum — never decode silently.
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            assert!(
                decode_result(&damaged).is_err(),
                "bit flip at byte {byte} bit {bit} decoded silently"
            );
        }
    }

    // Every truncation must be typed, and appended garbage is rejected.
    for len in 0..bytes.len() {
        assert!(decode_result(&bytes[..len]).is_err());
    }
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        decode_result(&padded),
        Err(TapeCodecError::ChecksumMismatch | TapeCodecError::TrailingBytes)
    ));
}

#[test]
fn result_fingerprints_separate_configs_and_programs() {
    let eqntott = build("eqntott", Scale::quick()).unwrap();
    let compress = build("compress", Scale::quick()).unwrap();
    let fp_e = program_fingerprint(&eqntott);
    let fp_c = program_fingerprint(&compress);
    assert_ne!(fp_e, fp_c);
    assert_eq!(
        fp_e,
        program_fingerprint(&eqntott),
        "fingerprints are deterministic"
    );

    let base = SimConfig::baseline(HwConfig::Mc0).at_latency(6);
    let key = result_fingerprint(fp_e, &base);
    assert_ne!(
        key,
        result_fingerprint(fp_c, &base),
        "different program, same config"
    );
    assert_ne!(
        key,
        result_fingerprint(fp_e, &base.clone().at_latency(10)),
        "same program, different latency"
    );
    assert_ne!(
        key,
        result_fingerprint(fp_e, &SimConfig::baseline(HwConfig::Mc(4)).at_latency(6)),
        "same program, different hardware"
    );

    // A changed fingerprint is a miss: the store never serves a stale
    // result for modified inputs.
    let dir = temp_store("fingerprints");
    let store = ArtifactStore::with_disk(&dir, true);
    let compiled = store.get_or_compile(&eqntott, 6).unwrap();
    let result = nbl_sim::run_compiled(&eqntott.name, &compiled, &base).unwrap();
    store.store_result(&result, key);
    assert_eq!(store.load_result(&eqntott.name, 6, key), Some(result));
    assert_eq!(
        store.load_result(&eqntott.name, 6, key ^ 1),
        None,
        "a different input fingerprint must never hit"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
