//! The tiered artifact store: one abstraction over every cached
//! derivation of a workload (DESIGN.md §16).
//!
//! The memory tier is the existing pair of exactly-once caches —
//! [`CompileCache`](crate::compile_cache::CompileCache) for compiled
//! programs and [`TapeCache`](crate::tape_cache::TapeCache) for recorded
//! tapes — with unchanged semantics. This module adds the disk tier
//! ([`DiskTier`]): a directory (by convention `results/store/`) of
//! content-addressed artifacts that survive the process, so a fresh run
//! against a populated store skips straight past recording (tape
//! artifacts) or past simulation entirely (result artifacts, under
//! `--incremental`).
//!
//! ## Content addressing
//!
//! Artifact filenames derive **only** from content fingerprints
//! ([`nbl_core::fingerprint`]) and format versions — never from clocks,
//! process ids or absolute paths — so two processes (or two machines
//! sharing the directory) agree byte-for-byte on where an artifact
//! lives:
//!
//! ```text
//! results/store/
//!   tape-v1-<workload>-l<latency>-<fp:016x>.nbt    recorded trace tape
//!   result-v1-<workload>-l<latency>-<fp:016x>.nbr  one RunResult
//!   <name>.corrupt                                 quarantined artifact
//! ```
//!
//! A tape's `<fp>` is the [`fingerprint_of`](nbl_core::fingerprint::fingerprint_of) the compiled program; a
//! result's is the fingerprint of `(program-IR fingerprint, SimConfig)`,
//! so a result can be looked up *before* compiling. Format versions are
//! embedded in the name: a version bump makes old files invisible
//! instead of misread.
//!
//! ## Corruption policy
//!
//! Every artifact carries a trailing [`checksum_bytes`](nbl_core::fingerprint::checksum_bytes) checksum. A file
//! that fails to decode — truncated, bit-flipped, version-skewed, or
//! describing a different workload than its name claims — is counted,
//! renamed to `<name>.corrupt` (quarantined, so the evidence survives
//! but the path never resolves again), and treated as a miss: the caller
//! transparently re-records or re-simulates. Disk trouble therefore
//! *degrades* the store to the memory tier; it never fails a sweep and
//! never perturbs results.

use crate::compile_cache::CompileCache;
use crate::config::SimConfig;
use crate::driver::RunResult;
use crate::tape_cache::TapeCache;
use nbl_core::fingerprint::{checksum_bytes, fingerprint_of};
use nbl_cpu::stats::ReplayAttribution;
use nbl_sched::compile::CompileError;
use nbl_trace::ir::Program;
use nbl_trace::machine::CompiledProgram;
use nbl_trace::tape::io::TapeCodecError;
use nbl_trace::tape::TraceTape;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Leading magic of a serialized [`RunResult`] artifact.
pub const RESULT_MAGIC: [u8; 4] = *b"NBLR";

/// Format version of [`RunResult`] artifacts. Bump on any change to the
/// result byte layout *or* to the `RunResult` field set; the version is
/// embedded in filenames, so old artifacts are ignored, not misparsed.
pub const RESULT_FORMAT_VERSION: u32 = 1;

/// Why a disk-tier operation failed. The store maps every variant to a
/// degraded-but-correct outcome (quarantine + miss, or skip the write),
/// so these surface in telemetry and tests rather than as run failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactError {
    /// The filesystem refused a read, write or rename (permission,
    /// space, transient). The store counts it and falls back to the
    /// memory tier.
    Io(std::io::ErrorKind),
    /// The artifact's bytes fail decoding (bad magic, version skew,
    /// truncation, checksum mismatch, …). The file is quarantined.
    Codec(TapeCodecError),
    /// The artifact decoded cleanly but describes a different
    /// `(workload, latency)` than its content address claims — a
    /// renamed or colliding file. Quarantined like corruption.
    Identity,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(kind) => write!(f, "artifact store i/o error: {kind}"),
            ArtifactError::Codec(e) => write!(f, "artifact damaged: {e}"),
            ArtifactError::Identity => {
                write!(f, "artifact identity does not match its content address")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<TapeCodecError> for ArtifactError {
    fn from(e: TapeCodecError) -> ArtifactError {
        ArtifactError::Codec(e)
    }
}

/// Counter snapshot from a [`DiskTier`]: how the disk tier served and
/// absorbed traffic. Surfaced in the throughput table and under
/// `"caches" → "store"` in the JSON exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Tape lookups answered from a decoded artifact.
    pub tape_hits: u64,
    /// Tape lookups that found no artifact (the caller records).
    pub tape_misses: u64,
    /// Tape artifacts written through after a recording.
    pub tape_writes: u64,
    /// Result lookups answered from a decoded artifact.
    pub result_hits: u64,
    /// Result lookups that found no artifact (the caller simulates).
    pub result_misses: u64,
    /// Result artifacts written through after a simulation.
    pub result_writes: u64,
    /// Artifacts that failed decoding or identity and were quarantined.
    pub corruptions: u64,
    /// Filesystem errors absorbed (reads and writes that gave up).
    pub io_errors: u64,
}

/// The on-disk tier: a directory of content-addressed, versioned,
/// checksummed artifacts shared across processes. All methods are
/// `&self` and thread-safe; counters are atomics.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    /// Result paths this process has already published (or found on
    /// disk): content addressing means an equal key carries equal bytes,
    /// so a repeated write is a no-op — this set answers it without the
    /// per-call `stat`. Benches that resimulate the same grid many times
    /// otherwise pay hundreds of filesystem probes per pass.
    results_written: Mutex<BTreeSet<PathBuf>>,
    tape_hits: AtomicU64,
    tape_misses: AtomicU64,
    tape_writes: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    result_writes: AtomicU64,
    corruptions: AtomicU64,
    io_errors: AtomicU64,
}

/// Keeps content-addressed filenames portable: lowercase alphanumerics,
/// `_` and `-` pass through, everything else becomes `-`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | '-' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '-',
        })
        .collect()
}

impl DiskTier {
    /// A disk tier rooted at `root`. No filesystem access happens here;
    /// the directory is created on first write.
    pub fn new(root: impl Into<PathBuf>) -> DiskTier {
        DiskTier {
            root: root.into(),
            results_written: Mutex::new(BTreeSet::new()),
            tape_hits: AtomicU64::new(0),
            tape_misses: AtomicU64::new(0),
            tape_writes: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            result_writes: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// The store directory this tier reads and writes.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Content address of a tape artifact: workload + latency for human
    /// eyes, fingerprint + format version for correctness.
    pub fn tape_path(&self, name: &str, latency: u32, fingerprint: u64) -> PathBuf {
        self.root.join(format!(
            "tape-v{}-{}-l{latency}-{fingerprint:016x}.nbt",
            nbl_trace::tape::io::TAPE_FORMAT_VERSION,
            sanitize(name),
        ))
    }

    /// Content address of a result artifact.
    pub fn result_path(&self, name: &str, latency: u32, fingerprint: u64) -> PathBuf {
        self.root.join(format!(
            "result-v{RESULT_FORMAT_VERSION}-{}-l{latency}-{fingerprint:016x}.nbr",
            sanitize(name),
        ))
    }

    /// Moves a damaged artifact aside as `<name>.corrupt` so the path
    /// never resolves again but the evidence survives for diagnosis.
    fn quarantine(&self, path: &Path) {
        self.corruptions.fetch_add(1, Ordering::Relaxed);
        let mut target = path.as_os_str().to_owned();
        target.push(".corrupt");
        if std::fs::rename(path, &target).is_err() {
            // Removal is the fallback; if even that fails the next read
            // will just quarantine again.
            let _ = std::fs::remove_file(path);
        }
    }

    /// Atomically publishes `bytes` at `path` (temp file + rename, so
    /// readers never observe a partial artifact).
    fn publish(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
        let io = |e: std::io::Error| {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            ArtifactError::Io(e.kind())
        };
        std::fs::create_dir_all(&self.root).map_err(io)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, bytes).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    fn read_file(&self, path: &Path) -> Result<Option<Vec<u8>>, ArtifactError> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                Err(ArtifactError::Io(e.kind()))
            }
        }
    }

    /// Looks up the tape recorded for `(name, latency, fingerprint)`.
    ///
    /// `Ok(None)` is a plain miss. A decodable artifact must also agree
    /// with the requested identity; damage or disagreement quarantines
    /// the file and reports the typed cause.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on filesystem trouble, damage, or identity
    /// mismatch — all of which the caller treats as "record it again".
    pub fn read_tape(
        &self,
        name: &str,
        latency: u32,
        fingerprint: u64,
    ) -> Result<Option<TraceTape>, ArtifactError> {
        let path = self.tape_path(name, latency, fingerprint);
        let Some(bytes) = self.read_file(&path)? else {
            self.tape_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        match TraceTape::from_bytes(&bytes) {
            Ok(tape) if tape.name() == name && tape.load_latency() == latency => {
                self.tape_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(tape))
            }
            Ok(_) => {
                self.quarantine(&path);
                Err(ArtifactError::Identity)
            }
            Err(e) => {
                self.quarantine(&path);
                Err(ArtifactError::Codec(e))
            }
        }
    }

    /// [`DiskTier::read_tape`] degraded to an `Option`: any typed
    /// failure has been counted (and quarantined) and becomes a miss.
    pub fn load_tape(&self, name: &str, latency: u32, fingerprint: u64) -> Option<TraceTape> {
        self.read_tape(name, latency, fingerprint).ok().flatten()
    }

    /// Writes `tape` through to its content address.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the filesystem refuses; the failure is
    /// counted and the store simply stays cold for this key.
    pub fn write_tape(&self, tape: &TraceTape, fingerprint: u64) -> Result<(), ArtifactError> {
        let path = self.tape_path(tape.name(), tape.load_latency(), fingerprint);
        // Content-addressed: an artifact already at this path holds these
        // exact bytes (damage is quarantined away at read time), so the
        // write would be a byte-identical no-op — skip the disk traffic.
        if path.exists() {
            return Ok(());
        }
        self.publish(&path, &tape.to_bytes())?;
        self.tape_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks up the stored [`RunResult`] for `(name, latency,
    /// fingerprint)` — the incremental-sweep fast path that answers a
    /// grid cell without compiling, recording or simulating.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] exactly as [`DiskTier::read_tape`]: damage is
    /// quarantined and the caller re-simulates.
    pub fn read_result(
        &self,
        name: &str,
        latency: u32,
        fingerprint: u64,
    ) -> Result<Option<RunResult>, ArtifactError> {
        let path = self.result_path(name, latency, fingerprint);
        let Some(bytes) = self.read_file(&path)? else {
            self.result_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        match decode_result(&bytes) {
            Ok(result) if result.benchmark == name && result.load_latency == latency => {
                self.result_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(result))
            }
            Ok(_) => {
                self.quarantine(&path);
                Err(ArtifactError::Identity)
            }
            Err(e) => {
                self.quarantine(&path);
                Err(ArtifactError::Codec(e))
            }
        }
    }

    /// [`DiskTier::read_result`] degraded to an `Option`: typed failures
    /// are counted (and quarantined) and become misses.
    pub fn load_result(&self, name: &str, latency: u32, fingerprint: u64) -> Option<RunResult> {
        self.read_result(name, latency, fingerprint).ok().flatten()
    }

    /// Writes `result` through to its content address.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the filesystem refuses; counted, never
    /// fatal.
    pub fn write_result(&self, result: &RunResult, fingerprint: u64) -> Result<(), ArtifactError> {
        let path = self.result_path(&result.benchmark, result.load_latency, fingerprint);
        // Process-local exactly-once: a path this tier already published
        // (or already found on disk) never pays another `stat`.
        if let Ok(written) = self.results_written.lock() {
            if written.contains(&path) {
                return Ok(());
            }
        }
        // Same existence skip as `write_tape`: equal key ⇒ equal bytes.
        if !path.exists() {
            self.publish(&path, &encode_result(result))?;
            self.result_writes.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(mut written) = self.results_written.lock() {
            written.insert(path);
        }
        Ok(())
    }

    /// Current hit/miss/write/corruption counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            tape_hits: self.tape_hits.load(Ordering::Relaxed),
            tape_misses: self.tape_misses.load(Ordering::Relaxed),
            tape_writes: self.tape_writes.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            result_writes: self.result_writes.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }
}

/// Stable fingerprint of a program's IR — half of a result artifact's
/// content address (the other half is the [`SimConfig`]).
pub fn program_fingerprint(program: &Program) -> u64 {
    fingerprint_of(program)
}

/// Stable fingerprint of a compiled program — a tape artifact's content
/// address.
pub fn compiled_fingerprint(compiled: &CompiledProgram) -> u64 {
    fingerprint_of(compiled)
}

/// Content address of one grid cell's [`RunResult`]: every input that
/// can change the result — the program's IR (which, with the config's
/// latency, determines the compiled form and the tape) and the complete
/// [`SimConfig`] — folded into one stable fingerprint.
pub fn result_fingerprint(program_fp: u64, cfg: &SimConfig) -> u64 {
    fingerprint_of(&(RESULT_FORMAT_VERSION, program_fp, cfg))
}

// ---------------------------------------------------------------------
// RunResult binary codec
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    // Bit pattern, not value: round-trips NaN payloads and -0.0, so a
    // stored result stays bit-identical to the simulated one.
    push_u64(out, v.to_bits());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TapeCodecError> {
        let end = self.off.checked_add(n).ok_or(TapeCodecError::Truncated)?;
        let s = self
            .buf
            .get(self.off..end)
            .ok_or(TapeCodecError::Truncated)?;
        self.off = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, TapeCodecError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, TapeCodecError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, TapeCodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize_u64(&mut self) -> Result<usize, TapeCodecError> {
        usize::try_from(self.u64()?).map_err(|_| TapeCodecError::HeaderMismatch)
    }

    fn string(&mut self) -> Result<String, TapeCodecError> {
        let len = usize::try_from(self.u32()?).map_err(|_| TapeCodecError::Truncated)?;
        Ok(std::str::from_utf8(self.take(len)?)
            .map_err(|_| TapeCodecError::HeaderMismatch)?
            .to_string())
    }

    fn f64_array<const N: usize>(&mut self) -> Result<[f64; N], TapeCodecError> {
        let mut out = [0.0; N];
        for slot in &mut out {
            *slot = self.f64()?;
        }
        Ok(out)
    }

    fn u64_array<const N: usize>(&mut self) -> Result<[u64; N], TapeCodecError> {
        let mut out = [0; N];
        for slot in &mut out {
            *slot = self.u64()?;
        }
        Ok(out)
    }
}

/// Serializes one [`RunResult`] into the versioned, checksummed artifact
/// format (`NBLR` magic; field order pinned by
/// [`RESULT_FORMAT_VERSION`]). Floats serialize by bit pattern, so
/// decode → compare is exact equality with the simulated result.
pub fn encode_result(r: &RunResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    out.extend_from_slice(&RESULT_MAGIC);
    push_u32(&mut out, RESULT_FORMAT_VERSION);
    push_str(&mut out, &r.benchmark);
    push_str(&mut out, &r.config);
    push_str(&mut out, &r.model);
    push_str(&mut out, &r.replacement);
    push_u32(&mut out, r.load_latency);
    push_u32(&mut out, r.miss_penalty);
    push_u64(&mut out, r.instructions);
    push_u64(&mut out, r.loads);
    push_u64(&mut out, r.stores);
    push_u64(&mut out, r.cycles);
    push_f64(&mut out, r.mcpi);
    push_u64(&mut out, r.data_dep_stalls);
    push_u64(&mut out, r.structural_stalls);
    push_u64(&mut out, r.blocking_stalls);
    push_f64(&mut out, r.structural_fraction);
    push_u64(&mut out, r.structural_stall_misses);
    push_f64(&mut out, r.load_miss_rate);
    push_f64(&mut out, r.secondary_miss_rate);
    push_f64(&mut out, r.inflight.frac_time_with_misses);
    for v in r.inflight.miss_dist {
        push_f64(&mut out, v);
    }
    for v in r.inflight.fetch_dist {
        push_f64(&mut out, v);
    }
    push_u64(&mut out, r.inflight.max_misses as u64);
    push_u64(&mut out, r.inflight.max_fetches as u64);
    push_u64(&mut out, r.static_spill_ops as u64);
    for v in r.replay.counts {
        push_u64(&mut out, v);
    }
    for v in r.replay.stall_cycles {
        push_u64(&mut out, v);
    }
    let sum = checksum_bytes(&out);
    push_u64(&mut out, sum);
    out
}

/// Decodes a [`RunResult`] artifact, verifying magic, version and the
/// trailing checksum.
///
/// # Errors
///
/// [`TapeCodecError`] (the shared artifact codec error) on any damage;
/// the store quarantines and the sweep re-simulates.
pub fn decode_result(bytes: &[u8]) -> Result<RunResult, TapeCodecError> {
    let mut r = Reader { buf: bytes, off: 0 };
    if r.take(4)? != RESULT_MAGIC {
        return Err(TapeCodecError::BadMagic);
    }
    let version = r.u32()?;
    if version != RESULT_FORMAT_VERSION {
        return Err(TapeCodecError::UnsupportedVersion(version));
    }
    let body_len = bytes
        .len()
        .checked_sub(8)
        .ok_or(TapeCodecError::Truncated)?;
    let stored = {
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes.get(body_len..).ok_or(TapeCodecError::Truncated)?);
        u64::from_le_bytes(b)
    };
    let body = bytes.get(..body_len).ok_or(TapeCodecError::Truncated)?;
    if checksum_bytes(body) != stored {
        return Err(TapeCodecError::ChecksumMismatch);
    }
    r.buf = body;
    let result = RunResult {
        benchmark: r.string()?,
        config: r.string()?,
        model: r.string()?,
        replacement: r.string()?,
        load_latency: r.u32()?,
        miss_penalty: r.u32()?,
        instructions: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        cycles: r.u64()?,
        mcpi: r.f64()?,
        data_dep_stalls: r.u64()?,
        structural_stalls: r.u64()?,
        blocking_stalls: r.u64()?,
        structural_fraction: r.f64()?,
        structural_stall_misses: r.u64()?,
        load_miss_rate: r.f64()?,
        secondary_miss_rate: r.f64()?,
        inflight: crate::driver::InFlightSummary {
            frac_time_with_misses: r.f64()?,
            miss_dist: r.f64_array()?,
            fetch_dist: r.f64_array()?,
            max_misses: r.usize_u64()?,
            max_fetches: r.usize_u64()?,
        },
        static_spill_ops: r.usize_u64()?,
        replay: ReplayAttribution {
            counts: r.u64_array()?,
            stall_cycles: r.u64_array()?,
        },
    };
    if r.off != body.len() {
        return Err(TapeCodecError::TrailingBytes);
    }
    Ok(result)
}

// ---------------------------------------------------------------------
// Store settings
// ---------------------------------------------------------------------

/// How a caller wires its [`ArtifactStore`]: where (and whether) the
/// disk tier lives, and whether sweeps run incrementally (answering
/// unchanged grid cells from stored results without simulating). The
/// `figures` CLI reads these once from the environment, merges its
/// `--store`/`--incremental` flags over them, and opens one store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreSettings {
    /// Disk-tier directory; `None` keeps the store memory-only.
    pub dir: Option<PathBuf>,
    /// Incremental sweeps: serve grid cells from stored [`RunResult`]s
    /// when every input fingerprint is unchanged.
    pub incremental: bool,
}

impl StoreSettings {
    /// Settings from the environment: `NBL_STORE_DIR` names the disk
    /// tier, `NBL_INCREMENTAL=1` turns on incremental sweeps.
    pub fn from_env() -> StoreSettings {
        StoreSettings {
            dir: std::env::var_os("NBL_STORE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            incremental: std::env::var("NBL_INCREMENTAL").is_ok_and(|v| v.trim() == "1"),
        }
    }
}

// ---------------------------------------------------------------------
// The tiered store facade
// ---------------------------------------------------------------------

/// The tiered artifact store the sweep engine runs on: the two
/// exactly-once memory caches, optionally backed by a shared
/// [`DiskTier`], plus the incremental-mode switch.
///
/// Tier order on a tape request: memory (`OnceLock` slot) → disk
/// (decode + verify) → record. Recordings write through to disk; the
/// memory tier's semantics (sharing, byte budget, eviction) are
/// unchanged from the pre-store caches.
#[derive(Debug)]
pub struct ArtifactStore {
    compile: CompileCache,
    tapes: TapeCache,
    disk: Option<Arc<DiskTier>>,
    incremental: bool,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::in_memory()
    }
}

impl ArtifactStore {
    /// A memory-only store: exactly the pre-disk cache behavior.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore {
            compile: CompileCache::new(),
            tapes: TapeCache::new(),
            disk: None,
            incremental: false,
        }
    }

    /// A store with a disk tier rooted at `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>, incremental: bool) -> ArtifactStore {
        let disk = Arc::new(DiskTier::new(dir));
        ArtifactStore {
            compile: CompileCache::new(),
            tapes: TapeCache::with_disk(Arc::clone(&disk)),
            disk: Some(disk),
            incremental,
        }
    }

    /// The memory-tier compile cache.
    pub fn compile_cache(&self) -> &CompileCache {
        &self.compile
    }

    /// The memory-tier tape cache (disk-backed when the store has a
    /// disk tier).
    pub fn tape_cache(&self) -> &TapeCache {
        &self.tapes
    }

    /// The disk tier, if this store has one.
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.disk.as_ref()
    }

    /// `true` when sweeps should answer unchanged grid cells from
    /// stored results without simulating.
    pub fn incremental(&self) -> bool {
        self.incremental && self.disk.is_some()
    }

    /// Compiles through the memory tier (exactly-once per key).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] like
    /// [`CompileCache::get_or_compile`].
    pub fn get_or_compile(
        &self,
        program: &Program,
        latency: u32,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        self.compile.get_or_compile(program, latency)
    }

    /// Fetches the tape for `compiled` through all tiers (memory →
    /// disk → record), writing any fresh recording through to disk.
    pub fn get_or_record(&self, compiled: &CompiledProgram) -> Arc<TraceTape> {
        self.tapes.get_or_record(compiled)
    }

    /// The stored result for one grid cell, if the disk tier holds one
    /// under the exact input fingerprint (incremental mode's fast path).
    pub fn load_result(&self, name: &str, latency: u32, fingerprint: u64) -> Option<RunResult> {
        self.disk
            .as_ref()
            .and_then(|d| d.load_result(name, latency, fingerprint))
    }

    /// Writes one grid cell's result through to the disk tier (no-op
    /// for a memory-only store).
    pub fn store_result(&self, result: &RunResult, fingerprint: u64) {
        if let Some(d) = &self.disk {
            let _ = d.write_result(result, fingerprint);
        }
    }

    /// Disk-tier counters (zeroes for a memory-only store).
    pub fn disk_stats(&self) -> StoreStats {
        self.disk.as_ref().map(|d| d.stats()).unwrap_or_default()
    }
}
