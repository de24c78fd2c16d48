//! Record-once / replay-many trace tapes.
//!
//! Every figure in the paper sweeps one `(benchmark, scheduled load
//! latency)` program across many MSHR/hardware configurations, and the
//! dynamic instruction stream is **identical at every grid point** — the
//! hardware configuration changes how the stream is timed, never what it
//! contains. Re-walking the [`CompiledProgram`] script through
//! [`crate::exec::Executor`] for each configuration therefore repeats the
//! same work: loop control, IR dispatch, pattern-state updates (including
//! an `i128` modulus per strided address and a Sattolo permutation build
//! per chase pattern) and a [`DynInst`] construction per instruction.
//!
//! A [`TraceTape`] flattens that stream once into a struct-of-arrays
//! encoding that replays with nothing but sequential array reads, and
//! stores only what replay reads:
//!
//! | array      | type       | bytes            | contents                         |
//! |------------|------------|------------------|----------------------------------|
//! | `ops`      | `u8`       | 1 / inst         | [`TapeKind`] in bits 0–1, packed [`LoadFormat`] in bits 2–4 (loads only) |
//! | `dsts`     | `u8`       | 1 / inst         | dense register index, `0xff` = none |
//! | `srcs`     | `[u8; 2]`  | 2 / inst         | dense register indices, `0xff` = none |
//! | `addrs`    | `u64`      | 8 / memory op    | effective address, memory operations only, in program order |
//! | `mem_bits` | `u64`      | 8 / 64 inst      | is-memory bit plane over entries |
//! | `mem_rank` | `u32`      | 4 / 64 inst      | memory operations before each 64-entry word |
//! | `barriers` | `u32`      | 4 / barrier      | instruction index of each barrier |
//! | `mem_flags`| `u64`      | 8 / 64 barriers  | is-memory bit plane over barrier slots |
//!
//! Only ~26 % of entries on the paper's workload mixes are loads or
//! stores, so storing an address per *memory operation* instead of per
//! entry is what keeps the tape small. [`TraceTape::addr`] stays O(1)
//! through the rank plane (`mem_rank[i / 64]` plus a popcount of the
//! lower bits of `mem_bits[i / 64]`), but the replay loops never need
//! it: they visit every memory operation in program order, so they read
//! [`TraceTape::mem_addrs`] through a running cursor instead.
//!
//! The **barrier** index lists the memory operations and the entries
//! that read or rewrite a register whose most recent writer is a load.
//! Only a barrier can stall or touch the memory system — a register is
//! pending only while an outstanding load owns it, so an entry whose
//! registers were all last written by non-loads can never wait
//! ([`TraceTape::barriers`]). Replay exploits this by issuing everything
//! between barriers in bulk. The `mem_flags` plane marks which barrier
//! slots are memory operations, so the replay loop's quiescent scan
//! ([`TraceTape::next_mem_barrier`]) strides over non-memory spans 64
//! barriers at a time.
//!
//! That is 4 bytes per dynamic instruction, plus 8 per memory operation,
//! plus 12 per 64 instructions, plus 4 per barrier (~40 % of entries),
//! plus 8 per 64 barriers: ~8.2 B/inst on the full-scale roster, ~3 MiB
//! for a full-scale (~400 k instruction) run — see [`TraceTape::bytes`]
//! and DESIGN.md §12 for the footprint bounds.
//!
//! The tape is itself an [`InstSink`], so recording is just running the
//! executor once into it ([`TraceTape::record`]); `nbl-sim` caches the
//! result per `(benchmark, latency, fingerprint)` and replays it through
//! the processor models for every grid point.

use crate::exec::Executor;
use crate::machine::{CompiledProgram, InstSink};
use nbl_core::inst::{DynInst, DynKind};
use nbl_core::types::{AccessSize, Addr, LoadFormat, PhysReg};

/// Versioned, checksummed binary (de)serialization of tapes — the byte
/// format the artifact store persists (DESIGN.md §16).
pub mod io;

/// Dense register encoding for "no register".
const REG_NONE: u8 = u8::MAX;

/// Bits 0–1 of an `ops` byte: the [`TapeKind`].
const OP_KIND_MASK: u8 = 0b11;

/// Bit 1 of an `ops` byte: set for [`TapeKind::Load`] and
/// [`TapeKind::Store`].
const OP_MEM_BIT: u8 = 0b10;

/// Position of the packed [`LoadFormat`] (bits 2–4) in an `ops` byte.
const OP_FORMAT_SHIFT: u32 = 2;

/// Bits an `ops` byte may set: kind and format, nothing above bit 4.
const OP_VALID_MASK: u8 = 0b1_1111;

/// What one tape entry does. One byte per entry; the split of
/// [`DynKind::Alu`] into `Alu` (has a destination) and `Branch` (none)
/// keeps the destination array sentinel-free on the hot load path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TapeKind {
    /// Single-cycle computation writing a destination register.
    Alu = 0,
    /// Branch / compare: single-cycle, no destination.
    Branch = 1,
    /// Load: reads memory, writes `dsts[i]`, format in bits 2–4 of
    /// `ops[i]`.
    Load = 2,
    /// Store: writes memory.
    Store = 3,
}

impl TapeKind {
    /// The kind packed in bits 0–1 of an `ops` byte.
    #[inline]
    fn of_op(op: u8) -> TapeKind {
        match op & OP_KIND_MASK {
            0 => TapeKind::Alu,
            1 => TapeKind::Branch,
            2 => TapeKind::Load,
            _ => TapeKind::Store,
        }
    }
}

/// One memory operation of a tape, as yielded by [`TraceTape::mem_ops`]:
/// the flattened (instruction index, kind, address) triple the static
/// cache oracle classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Position of the instruction in the tape.
    pub index: usize,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
    /// Effective byte address.
    pub addr: Addr,
}

#[inline]
fn pack_reg(r: Option<PhysReg>) -> u8 {
    r.map_or(REG_NONE, |r| r.dense_index() as u8)
}

/// Bitmap bit of a packed register (`0` for the `REG_NONE` sentinel — the
/// 64 dense register indices all fit a `u64`).
#[inline]
fn reg_bit(packed: u8) -> u64 {
    if packed == REG_NONE {
        0
    } else {
        1u64 << packed
    }
}

#[inline]
fn unpack_reg(b: u8) -> Option<PhysReg> {
    (b != REG_NONE).then(|| PhysReg::from_dense(b as usize))
}

#[inline]
fn pack_format(f: LoadFormat) -> u8 {
    let size = match f.size {
        AccessSize::B1 => 0u8,
        AccessSize::B2 => 1,
        AccessSize::B4 => 2,
        AccessSize::B8 => 3,
    };
    size | (u8::from(f.sign_extend) << 2)
}

#[inline]
fn unpack_format(b: u8) -> LoadFormat {
    let size = match b & 0b11 {
        0 => AccessSize::B1,
        1 => AccessSize::B2,
        2 => AccessSize::B4,
        _ => AccessSize::B8,
    };
    LoadFormat {
        size,
        sign_extend: b & 0b100 != 0,
    }
}

/// A recorded dynamic instruction stream in struct-of-arrays form. See the
/// module docs for the encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTape {
    name: String,
    load_latency: u32,
    static_spill_ops: usize,
    /// Per entry: [`TapeKind`] in bits 0–1, packed [`LoadFormat`] in bits
    /// 2–4 (zero for everything but loads).
    ops: Vec<u8>,
    dsts: Vec<u8>,
    srcs: Vec<[u8; 2]>,
    /// Effective addresses of the memory operations only, in program
    /// order: the `r`-th load or store reads `addrs[r]`.
    addrs: Vec<u64>,
    /// Is-memory bit plane over entries: bit `k` of word `w` is set when
    /// entry `w * 64 + k` is a load or store.
    mem_bits: Vec<u64>,
    /// Memory operations recorded before word `w` of `mem_bits` — with a
    /// popcount of the word's lower bits, the rank of an entry's address
    /// in `addrs` ([`TraceTape::addr`]).
    mem_rank: Vec<u32>,
    /// Instruction indices of the barrier entries, ascending.
    barriers: Vec<u32>,
    /// Packed flag plane over barrier *positions*: bit `k` of word `w` is
    /// set when `barriers[w * 64 + k]` is a memory operation, laid out so
    /// the replay loop's quiescent scan ([`TraceTape::next_mem_barrier`])
    /// advances in 64-barrier strides instead of probing entries one at a
    /// time.
    mem_flags: Vec<u64>,
    /// Bitmap of registers whose most recent writer (so far) is a load —
    /// recording state for the barrier computation in [`TraceTape::push`].
    load_written: u64,
    loads: u64,
    stores: u64,
}

impl TraceTape {
    /// An empty tape with the given identity and capacity reserved for
    /// `capacity` entries (the memory-operation addresses grow on demand).
    pub fn with_capacity(
        name: &str,
        load_latency: u32,
        static_spill_ops: usize,
        capacity: usize,
    ) -> TraceTape {
        TraceTape::reserved(name, load_latency, static_spill_ops, capacity, 0)
    }

    /// An empty tape reserving `entries` instructions, of which `mem_ops`
    /// are loads or stores.
    fn reserved(
        name: &str,
        load_latency: u32,
        static_spill_ops: usize,
        entries: usize,
        mem_ops: usize,
    ) -> TraceTape {
        let words = entries.div_ceil(64);
        TraceTape {
            name: name.to_string(),
            load_latency,
            static_spill_ops,
            ops: Vec::with_capacity(entries),
            dsts: Vec::with_capacity(entries),
            srcs: Vec::with_capacity(entries),
            addrs: Vec::with_capacity(mem_ops),
            mem_bits: Vec::with_capacity(words),
            mem_rank: Vec::with_capacity(words),
            barriers: Vec::new(),
            mem_flags: Vec::new(),
            load_written: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Records `compiled` by running the executor once into a fresh tape.
    /// The stream is bit-identical to what any processor-backed sink would
    /// have received — the tape just stores it instead of timing it.
    ///
    /// Every array but the barrier index and its flag plane is reserved
    /// exactly from [`CompiledProgram::dynamic_instructions`] and
    /// [`CompiledProgram::dynamic_mix`], and those two are shrunk when
    /// done, so [`TraceTape::bytes`] is the exact footprint. Programs from
    /// `nbl_sched::compile` hold at most `u32::MAX` instructions, the
    /// width of a barrier entry.
    pub fn record(compiled: &CompiledProgram) -> TraceTape {
        let entries = usize::try_from(compiled.dynamic_instructions()).unwrap_or(0);
        let (loads, stores, _) = compiled.dynamic_mix();
        let mem_ops = usize::try_from(loads + stores).unwrap_or(0);
        let mut tape = TraceTape::reserved(
            &compiled.name,
            compiled.load_latency,
            compiled.blocks.iter().map(|b| b.spill_ops).sum(),
            entries,
            mem_ops,
        );
        Executor::new(compiled).run(&mut tape);
        debug_assert_eq!(tape.len() as u64, compiled.dynamic_instructions());
        tape.barriers.shrink_to_fit();
        tape.mem_flags.shrink_to_fit();
        tape
    }

    /// Appends one instruction (the [`InstSink`] implementation calls this).
    ///
    /// Besides the packed arrays this maintains the barrier index: the
    /// entry is a barrier when it is a memory operation, or when any of
    /// its registers (sources or destination) was most recently written
    /// by a load — the only way a register can be pending when the entry
    /// issues. The "most recent writer is a load" bitmap is then updated
    /// for the entry's own destination: a load sets its bit, an ALU write
    /// clears it, branches and stores write no register.
    ///
    /// A tape holds at most `u32::MAX` entries: barrier entries and the
    /// rank plane are `u32`.
    pub fn push(&mut self, inst: DynInst) {
        let (kind, dst, addr, format) = match inst.kind {
            DynKind::Load { addr, dst, format } => {
                self.loads += 1;
                (TapeKind::Load, Some(dst), Some(addr.0), pack_format(format))
            }
            DynKind::Store { addr } => {
                self.stores += 1;
                (TapeKind::Store, None, Some(addr.0), 0)
            }
            DynKind::Alu { dst: Some(dst) } => (TapeKind::Alu, Some(dst), None, 0),
            DynKind::Alu { dst: None } => (TapeKind::Branch, None, None, 0),
        };
        let i = self.ops.len();
        debug_assert!(u32::try_from(i).is_ok(), "tape entry index exceeds u32");
        if i.is_multiple_of(64) {
            self.mem_bits.push(0);
            self.mem_rank.push(self.addrs.len() as u32);
        }
        let d = pack_reg(dst);
        let [s0, s1] = [pack_reg(inst.srcs[0]), pack_reg(inst.srcs[1])];
        let is_mem = addr.is_some();
        if let Some(a) = addr {
            self.mem_bits[i / 64] |= 1u64 << (i % 64);
            self.addrs.push(a);
        }
        if is_mem || (reg_bit(d) | reg_bit(s0) | reg_bit(s1)) & self.load_written != 0 {
            let slot = self.barriers.len();
            if slot.is_multiple_of(64) {
                self.mem_flags.push(0);
            }
            if is_mem {
                self.mem_flags[slot / 64] |= 1u64 << (slot % 64);
            }
            self.barriers.push(i as u32);
        }
        match kind {
            TapeKind::Load => self.load_written |= reg_bit(d),
            TapeKind::Alu => self.load_written &= !reg_bit(d),
            TapeKind::Branch | TapeKind::Store => {}
        }
        self.ops.push(kind as u8 | format << OP_FORMAT_SHIFT);
        self.dsts.push(d);
        self.srcs.push([s0, s1]);
    }

    /// Benchmark name the tape was recorded from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scheduled load latency the recorded program was compiled for.
    pub fn load_latency(&self) -> u32 {
        self.load_latency
    }

    /// Spill memory operations the compiler added, per static program
    /// (carried so replay can build a full `RunResult` without the
    /// [`CompiledProgram`]).
    pub fn static_spill_ops(&self) -> usize {
        self.static_spill_ops
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Loads recorded.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores recorded.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Heap footprint of the tape's arrays, in bytes: 4 per entry, 8 per
    /// memory operation, 12 per 64-entry word of the is-memory and rank
    /// planes, 4 per barrier and 8 per 64-barrier flag word. Exact for a
    /// tape from [`TraceTape::record`] or the codec, which reserve (or
    /// shrink) every array to its length.
    pub fn bytes(&self) -> usize {
        self.ops.capacity()
            + self.dsts.capacity()
            + self.srcs.capacity() * 2
            + self.addrs.capacity() * 8
            + self.mem_bits.capacity() * 8
            + self.mem_rank.capacity() * 4
            + self.barriers.capacity() * 4
            + self.mem_flags.capacity() * 8
    }

    /// Kind of entry `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> TapeKind {
        TapeKind::of_op(self.ops[i])
    }

    /// Effective address of entry `i` for a memory operation, `Addr(0)`
    /// otherwise. O(1) through the rank plane; loops that visit every
    /// memory operation in order read [`TraceTape::mem_addrs`] instead.
    #[inline]
    pub fn addr(&self, i: usize) -> Addr {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let bits = self.mem_bits[word];
        if bits & bit == 0 {
            return Addr(0);
        }
        let rank = self.mem_rank[word] as usize + (bits & (bit - 1)).count_ones() as usize;
        Addr(self.addrs[rank])
    }

    /// The effective addresses of the memory operations, in program order:
    /// the `r`-th load or store of the tape accesses `mem_addrs()[r]`. The
    /// replay loops keep a running cursor into this slice.
    #[inline]
    pub fn mem_addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Destination register of entry `i`, if it writes one.
    #[inline]
    pub fn dst(&self, i: usize) -> Option<PhysReg> {
        unpack_reg(self.dsts[i])
    }

    /// Source registers of entry `i` (positional, as recorded).
    #[inline]
    pub fn srcs(&self, i: usize) -> [Option<PhysReg>; 2] {
        let [a, b] = self.srcs[i];
        [unpack_reg(a), unpack_reg(b)]
    }

    /// Load format of entry `i` (meaningful for loads).
    #[inline]
    pub fn format(&self, i: usize) -> LoadFormat {
        unpack_format(self.ops[i] >> OP_FORMAT_SHIFT)
    }

    /// `true` if entry `i` is a memory operation.
    #[inline]
    pub fn is_mem(&self, i: usize) -> bool {
        self.ops[i] & OP_MEM_BIT != 0
    }

    /// Walks the tape's memory operations in program order: one
    /// [`MemOp`] per load or store, carrying the instruction index and
    /// effective address. This is the walk API the static cache oracle
    /// consumes — its classification vector and the simulator's
    /// `AccessOutcome` tap both index accesses in this order, so the
    /// *n*-th item here lines up with the *n*-th recorded outcome.
    #[inline]
    pub fn mem_ops(&self) -> impl Iterator<Item = MemOp> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|&(_, &op)| op & OP_MEM_BIT != 0)
            .zip(&self.addrs)
            .map(|((index, &op), &addr)| MemOp {
                index,
                is_store: TapeKind::of_op(op) == TapeKind::Store,
                addr: Addr(addr),
            })
    }

    /// The barrier entries' instruction indices, ascending: the memory
    /// operations plus every entry that reads or rewrites a register
    /// whose most recent writer is a load. A register is pending only
    /// while the load that last wrote it is outstanding, so entries *not*
    /// in this index can never stall and never touch the memory system —
    /// the replay loop issues the gaps between barriers in bulk (one
    /// instruction, one cycle each) and runs the full
    /// drain/hazard/execute machinery only at the barriers themselves.
    /// [`TraceTape::is_mem_barrier`] classifies a slot without touching
    /// the `ops` array.
    #[inline]
    pub fn barriers(&self) -> &[u32] {
        &self.barriers
    }

    /// `true` if barrier slot `slot` (an index into
    /// [`TraceTape::barriers`]) is a memory operation, read from the
    /// packed flag plane.
    #[inline]
    pub fn is_mem_barrier(&self, slot: usize) -> bool {
        self.mem_flags[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Index (into [`TraceTape::barriers`]) of the first barrier at or
    /// after `from` that is a memory operation, or `barriers().len()` when
    /// none remains.
    ///
    /// This is the vectorized form of the scalar scan
    /// `while from < n && !is_mem_barrier(from) { from += 1 }`: it reads
    /// the packed flag plane in `u64` words, so a span of non-memory
    /// barriers is skipped 64 entries per iteration instead of one. The
    /// replay loop leans on this whenever the engine is quiescent — every
    /// barrier until the next memory operation then bulk-issues, and the
    /// scan is the only per-entry work left.
    #[inline]
    #[must_use]
    pub fn next_mem_barrier(&self, from: usize) -> usize {
        let n = self.barriers.len();
        if from >= n {
            return n;
        }
        let mut word = from / 64;
        let mut bits = self.mem_flags[word] & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            if word >= self.mem_flags.len() {
                return n;
            }
            bits = self.mem_flags[word];
        }
        // A set bit only ever marks a real barrier slot, so the result is
        // in bounds by construction.
        word * 64 + bits.trailing_zeros() as usize
    }

    /// `true` if entry `j` reads or rewrites the register entry `i` writes
    /// — [`DynInst::conflicts_with`] evaluated on the packed encoding (a
    /// byte compare against the `0xff` sentinel, no decode).
    #[inline]
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        let d = self.dsts[i];
        if d == REG_NONE {
            return false;
        }
        let [s0, s1] = self.srcs[j];
        s0 == d || s1 == d || self.dsts[j] == d
    }

    /// Reconstructs entry `i` as a [`DynInst`].
    pub fn get(&self, i: usize) -> DynInst {
        let srcs = self.srcs(i);
        let kind = match self.kind(i) {
            TapeKind::Alu => DynKind::Alu { dst: self.dst(i) },
            TapeKind::Branch => DynKind::Alu { dst: None },
            TapeKind::Load => DynKind::Load {
                addr: self.addr(i),
                // nbl-allow(no-panic): InstSink::record stores a dst for every load
                dst: self.dst(i).expect("loads always record a destination"),
                format: self.format(i),
            },
            TapeKind::Store => DynKind::Store { addr: self.addr(i) },
        };
        DynInst { srcs, kind }
    }

    /// Iterates the tape as reconstructed [`DynInst`]s (for consumers that
    /// need owned instructions, e.g. the dual-issue pairing buffer; the
    /// single-issue replay loop reads the arrays directly instead).
    pub fn iter(&self) -> impl Iterator<Item = DynInst> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl InstSink for TraceTape {
    #[inline]
    fn exec(&mut self, inst: DynInst) {
        self.push(inst);
    }
}

/// Property suite for the chunked mem-barrier scan, gated behind the
/// off-by-default `scan-prop` feature (run with
/// `cargo test -p nbl-trace --features scan-prop`). Uses the in-tree
/// [`SplitMix64`](nbl_core::rng::SplitMix64) so the cases are
/// deterministic and the workspace stays dependency-free.
#[cfg(all(test, feature = "scan-prop"))]
mod scan_prop {
    use super::*;
    use nbl_core::rng::SplitMix64;

    /// Scalar reference: classifies each barrier by its entry's kind, not
    /// by the flag plane under test.
    fn scalar_next_mem_barrier(tape: &TraceTape, mut from: usize) -> usize {
        let barriers = tape.barriers();
        while from < barriers.len()
            && !matches!(
                tape.kind(barriers[from] as usize),
                TapeKind::Load | TapeKind::Store
            )
        {
            from += 1;
        }
        from
    }

    fn check_all_starts(tape: &TraceTape, label: &str) {
        for from in 0..=tape.barriers().len() + 65 {
            assert_eq!(
                tape.next_mem_barrier(from),
                scalar_next_mem_barrier(tape, from.min(tape.barriers().len())),
                "{label}: scan diverged at start {from}"
            );
        }
    }

    /// One random instruction; `mem_bias`/1000 is the memory-op rate, so
    /// seeds can steer tapes toward all-mem, no-mem or mixed layouts.
    fn random_inst(rng: &mut SplitMix64, mem_bias: u64) -> DynInst {
        let reg = |rng: &mut SplitMix64| PhysReg::from_dense(rng.next_below(64) as usize);
        let maybe_reg = |rng: &mut SplitMix64| {
            if rng.next_below(2) == 0 {
                None
            } else {
                Some(reg(rng))
            }
        };
        if rng.next_below(1000) < mem_bias {
            if rng.next_below(2) == 0 {
                DynInst::load(Addr(rng.next_below(1 << 20)), reg(rng), LoadFormat::WORD)
            } else {
                DynInst::store(Addr(rng.next_below(1 << 20)), maybe_reg(rng))
            }
        } else if rng.next_below(4) == 0 {
            DynInst::branch([maybe_reg(rng), maybe_reg(rng)])
        } else {
            DynInst::alu(reg(rng), [maybe_reg(rng), maybe_reg(rng)])
        }
    }

    #[test]
    fn chunked_scan_agrees_with_scalar_on_random_layouts() {
        let mut rng = SplitMix64::new(0x5ca9);
        // Mixed rates, including all-mem (1000) and no-mem (0) spans, and
        // lengths chosen to land both short of and straddling word
        // boundaries (tail-word coverage).
        for &mem_bias in &[0, 15, 120, 500, 930, 1000] {
            for case in 0..24 {
                let len = 1 + rng.next_below(400) as usize;
                let mut tape = TraceTape::with_capacity("prop", 1, 0, len);
                for _ in 0..len {
                    let inst = random_inst(&mut rng, mem_bias);
                    tape.push(inst);
                }
                check_all_starts(&tape, &format!("bias {mem_bias} case {case}"));
            }
        }
    }

    #[test]
    fn chunked_scan_handles_exact_word_multiples() {
        let mut rng = SplitMix64::new(0xb0b);
        // Exactly 64 and 128 barriers: the tail word is full, exercising
        // the word-boundary exit paths.
        for &barriers_wanted in &[64usize, 128] {
            let mut tape = TraceTape::with_capacity("prop", 1, 0, barriers_wanted);
            while tape.barriers().len() < barriers_wanted {
                let inst = random_inst(&mut rng, 700);
                tape.push(inst);
            }
            check_all_starts(&tape, &format!("{barriers_wanted} barriers"));
        }
    }

    #[test]
    fn empty_tape_scan_is_a_no_op() {
        let tape = TraceTape::with_capacity("prop", 1, 0, 0);
        assert_eq!(tape.next_mem_barrier(0), 0);
        assert_eq!(tape.next_mem_barrier(10), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AddrPattern, BlockId, PatternId, ScriptNode};
    use crate::machine::{MachineBlock, MachineOp};

    /// A program exercising every pattern kind and op shape: a chase load,
    /// a strided store, a gather load, ALU and branch — looped so the
    /// pattern states advance through wrap-around and re-seeding.
    fn exercise_program() -> CompiledProgram {
        CompiledProgram {
            name: "exercise".into(),
            load_latency: 6,
            patterns: vec![
                AddrPattern::Chase {
                    base: 0x1_0000,
                    node_bytes: 32,
                    nodes: 16,
                    field_offset: 8,
                    seed: 5,
                },
                AddrPattern::Strided {
                    base: 0x2_0000,
                    elem_bytes: 8,
                    stride: 3,
                    length: 7,
                },
                AddrPattern::Gather {
                    base: 0x3_0000,
                    elem_bytes: 4,
                    length: 50,
                    seed: 11,
                },
            ],
            blocks: vec![MachineBlock {
                ops: vec![
                    MachineOp::Load {
                        dst: PhysReg::int(1),
                        pattern: PatternId(0),
                        format: LoadFormat::DOUBLE,
                        addr_src: Some(PhysReg::int(1)),
                    },
                    MachineOp::Alu {
                        dst: PhysReg::fp(2),
                        srcs: [Some(PhysReg::int(1)), Some(PhysReg::fp(3))],
                    },
                    MachineOp::Store {
                        pattern: PatternId(1),
                        data: Some(PhysReg::fp(2)),
                        addr_src: None,
                    },
                    MachineOp::Load {
                        dst: PhysReg::int(4),
                        pattern: PatternId(2),
                        format: LoadFormat {
                            size: AccessSize::B2,
                            sign_extend: true,
                        },
                        addr_src: None,
                    },
                    MachineOp::Branch {
                        srcs: [Some(PhysReg::int(4)), None],
                    },
                ],
                spill_ops: 3,
            }],
            script: vec![ScriptNode::Loop {
                body: vec![ScriptNode::Run {
                    block: BlockId(0),
                    times: 4,
                }],
                trips: 25,
            }],
        }
    }

    #[test]
    fn recorded_tape_matches_the_executor_stream_exactly() {
        let c = exercise_program();
        let mut interpreted: Vec<DynInst> = Vec::new();
        Executor::new(&c).run(&mut interpreted);
        let tape = TraceTape::record(&c);
        assert_eq!(tape.len(), interpreted.len());
        assert_eq!(tape.len() as u64, c.dynamic_instructions());
        let replayed: Vec<DynInst> = tape.iter().collect();
        assert_eq!(replayed, interpreted, "streams must be identical");
    }

    #[test]
    fn mem_ops_projects_exactly_the_memory_stream() {
        let c = exercise_program();
        let tape = TraceTape::record(&c);
        let ops: Vec<MemOp> = tape.mem_ops().collect();
        assert_eq!(ops.len() as u64, tape.loads() + tape.stores());
        // Every projected op points back at a matching tape entry, in
        // strictly increasing instruction order.
        let mut last = None;
        for op in &ops {
            assert!(last.is_none_or(|l| op.index > l), "indices must ascend");
            last = Some(op.index);
            match tape.kind(op.index) {
                TapeKind::Load => assert!(!op.is_store),
                TapeKind::Store => assert!(op.is_store),
                other => panic!("mem_ops yielded a {other:?}"),
            }
            assert_eq!(op.addr, tape.addr(op.index));
        }
    }

    #[test]
    fn identity_and_counts_come_from_the_program() {
        let c = exercise_program();
        let tape = TraceTape::record(&c);
        assert_eq!(tape.name(), "exercise");
        assert_eq!(tape.load_latency(), 6);
        let (loads, stores, _) = c.dynamic_mix();
        assert_eq!(tape.loads(), loads);
        assert_eq!(tape.stores(), stores);
        assert_eq!(tape.static_spill_ops(), 3);
    }

    /// The footprint arithmetic of the module docs, pinned exactly: 4 B
    /// per entry, 8 per memory operation, 12 per 64-entry word, 4 per
    /// barrier, 8 per 64-barrier flag word.
    #[test]
    fn footprint_stores_addresses_for_memory_operations_only() {
        let c = exercise_program();
        let tape = TraceTape::record(&c);
        let (n, nb) = (tape.len(), tape.barriers().len());
        let (loads, stores, _) = c.dynamic_mix();
        let mem = (loads + stores) as usize;
        assert_eq!(tape.mem_addrs().len(), mem);
        assert!(mem < n, "the exercise program has non-memory entries");
        assert_eq!(
            tape.bytes(),
            n * 4 + mem * 8 + n.div_ceil(64) * 12 + nb * 4 + nb.div_ceil(64) * 8
        );
        assert!(!tape.is_empty());
    }

    /// Memory operations at both edges of the first 64-entry words
    /// (entries 0, 63, 64, 127, 128), one all-memory word, one all-ALU
    /// word and a partial tail: the rank plane must hand every entry its
    /// own address, checked against the executor's own stream.
    #[test]
    fn word_boundary_layouts_match_the_executor_stream() {
        let block = |op| MachineBlock {
            ops: vec![op],
            spill_ops: 0,
        };
        let run = |b: u32, times: u64| ScriptNode::Run {
            block: BlockId(b),
            times,
        };
        let c = CompiledProgram {
            name: "words".into(),
            load_latency: 1,
            patterns: vec![
                AddrPattern::Strided {
                    base: 0x1000,
                    elem_bytes: 8,
                    stride: 1,
                    length: 100,
                },
                AddrPattern::Strided {
                    base: 0x8000,
                    elem_bytes: 8,
                    stride: 3,
                    length: 37,
                },
            ],
            blocks: vec![
                block(MachineOp::Load {
                    dst: PhysReg::int(1),
                    pattern: PatternId(0),
                    format: LoadFormat::DOUBLE,
                    addr_src: None,
                }),
                block(MachineOp::Store {
                    pattern: PatternId(1),
                    data: Some(PhysReg::int(1)),
                    addr_src: None,
                }),
                block(MachineOp::Alu {
                    dst: PhysReg::int(2),
                    srcs: [Some(PhysReg::int(3)), None],
                }),
            ],
            script: vec![
                run(0, 1),  // 0: load
                run(2, 62), // 1..=62
                run(1, 1),  // 63: store
                run(0, 1),  // 64: load
                run(2, 62), // 65..=126
                run(0, 1),  // 127: load
                run(1, 1),  // 128: store
                run(2, 63), // 129..=191
                run(0, 32), // 192..=255: an all-memory word
                run(1, 32),
                run(2, 64), // 256..=319: an all-ALU word
                run(0, 3),  // 320..=322: a partial tail word
            ],
        };
        let mut stream: Vec<DynInst> = Vec::new();
        Executor::new(&c).run(&mut stream);
        let tape = TraceTape::record(&c);
        assert_eq!(tape.len(), 323);
        assert_eq!(tape.len(), stream.len());
        let mut expected = Vec::new();
        for (i, inst) in stream.iter().enumerate() {
            assert_eq!(tape.get(i), *inst, "entry {i}");
            let addr = match inst.kind {
                DynKind::Load { addr, .. } => Some((addr, false)),
                DynKind::Store { addr } => Some((addr, true)),
                DynKind::Alu { .. } => None,
            };
            assert_eq!(tape.addr(i), addr.map_or(Addr(0), |(a, _)| a), "entry {i}");
            if let Some((addr, is_store)) = addr {
                expected.push(MemOp {
                    index: i,
                    is_store,
                    addr,
                });
            }
        }
        assert_eq!(tape.mem_ops().collect::<Vec<_>>(), expected);
        let addrs: Vec<u64> = expected.iter().map(|op| op.addr.0).collect();
        assert_eq!(tape.mem_addrs(), addrs.as_slice());
        for i in [0, 63, 64, 127, 128] {
            assert!(tape.is_mem(i), "entry {i}");
        }
        assert!((192..256).all(|i| tape.is_mem(i)));
        assert!((256..320).all(|i| !tape.is_mem(i)));
        assert_eq!(
            tape.bytes(),
            TraceTape::from_bytes(&tape.to_bytes()).unwrap().bytes()
        );
    }

    /// Scalar reference for [`TraceTape::next_mem_barrier`]: a per-slot
    /// probe of each barrier entry's kind.
    fn scalar_next_mem_barrier(tape: &TraceTape, mut from: usize) -> usize {
        let barriers = tape.barriers();
        while from < barriers.len() && !tape.is_mem(barriers[from] as usize) {
            from += 1;
        }
        from
    }

    #[test]
    fn chunked_mem_scan_matches_scalar_probe_on_a_recorded_tape() {
        let tape = TraceTape::record(&exercise_program());
        assert!(tape.barriers().len() > 64, "needs a multi-word flag plane");
        for from in 0..=tape.barriers().len() + 2 {
            assert_eq!(
                tape.next_mem_barrier(from),
                scalar_next_mem_barrier(&tape, from.min(tape.barriers().len())),
                "scan diverged at {from}"
            );
        }
    }

    #[test]
    fn barriers_cover_exactly_the_entries_that_can_stall() {
        let tape = TraceTape::record(&exercise_program());
        // Reference computation: walk the stream tracking which registers
        // were most recently written by a load.
        let mut loadw: u64 = 0;
        let mut expected = Vec::new();
        for (i, inst) in tape.iter().enumerate() {
            let touches_loadw = inst
                .srcs
                .iter()
                .copied()
                .chain([inst.dst()])
                .flatten()
                .any(|r| loadw & (1u64 << r.dense_index()) != 0);
            if inst.is_mem() || touches_loadw {
                expected.push(i as u32);
            }
            if let Some(d) = inst.dst() {
                match inst.kind {
                    DynKind::Load { .. } => loadw |= 1u64 << d.dense_index(),
                    DynKind::Alu { .. } => loadw &= !(1u64 << d.dense_index()),
                    DynKind::Store { .. } => unreachable!("stores write no register"),
                }
            }
        }
        assert_eq!(tape.barriers(), expected.as_slice());
        // Every memory operation must be a barrier, flagged as one.
        let mem_barriers: Vec<usize> = (0..tape.barriers().len())
            .filter(|&slot| tape.is_mem_barrier(slot))
            .map(|slot| tape.barriers()[slot] as usize)
            .collect();
        let mem_entries: Vec<usize> = (0..tape.len()).filter(|&i| tape.is_mem(i)).collect();
        assert_eq!(mem_barriers, mem_entries);
    }

    #[test]
    fn alu_rewrite_retires_a_load_written_register() {
        let mut tape = TraceTape::with_capacity("t", 1, 0, 8);
        let (r1, r2, r3) = (PhysReg::int(1), PhysReg::int(2), PhysReg::int(3));
        // ALU chain touching no load results: no barriers.
        tape.push(DynInst::alu(r2, [None, None]));
        tape.push(DynInst::alu(r3, [Some(r2), None]));
        // A load, a consumer, a WAW rewrite: all barriers.
        tape.push(DynInst::load(Addr(0x100), r1, LoadFormat::WORD));
        tape.push(DynInst::alu(r2, [Some(r1), None]));
        tape.push(DynInst::alu(r1, [None, None]));
        // r1 now ALU-owned again: reading it is no barrier.
        tape.push(DynInst::alu(r3, [Some(r1), None]));
        assert_eq!(tape.barriers(), &[2, 3, 4]);
        assert!(tape.is_mem_barrier(0) && !tape.is_mem_barrier(1) && !tape.is_mem_barrier(2));
    }

    #[test]
    fn format_packing_round_trips() {
        for size in [
            AccessSize::B1,
            AccessSize::B2,
            AccessSize::B4,
            AccessSize::B8,
        ] {
            for sign_extend in [false, true] {
                let f = LoadFormat { size, sign_extend };
                assert_eq!(unpack_format(pack_format(f)), f);
            }
        }
    }

    #[test]
    fn register_packing_round_trips() {
        assert_eq!(unpack_reg(pack_reg(None)), None);
        for dense in 0..64 {
            let r = PhysReg::from_dense(dense);
            assert_eq!(unpack_reg(pack_reg(Some(r))), Some(r));
        }
    }

    #[test]
    fn packed_conflict_check_matches_dyninst() {
        let tape = TraceTape::record(&exercise_program());
        for i in 0..tape.len() - 1 {
            let (a, b) = (tape.get(i), tape.get(i + 1));
            assert_eq!(
                tape.conflicts(i, i + 1),
                a.conflicts_with(&b),
                "entry {i}: packed conflict check must agree"
            );
            assert_eq!(tape.is_mem(i), a.is_mem());
        }
        // The exercise block contains both a true conflict (load feeding
        // the ALU) and a non-conflict (store then gather load).
        assert!(tape.conflicts(0, 1));
        assert!(!tape.conflicts(2, 3));
    }

    #[test]
    fn per_entry_accessors_agree_with_reconstruction() {
        let tape = TraceTape::record(&exercise_program());
        for i in 0..tape.len() {
            let inst = tape.get(i);
            assert_eq!(tape.dst(i), inst.dst());
            assert_eq!(tape.srcs(i), inst.srcs);
            match inst.kind {
                DynKind::Load { addr, format, .. } => {
                    assert_eq!(tape.kind(i), TapeKind::Load);
                    assert_eq!(tape.addr(i), addr);
                    assert_eq!(tape.format(i), format);
                }
                DynKind::Store { addr } => {
                    assert_eq!(tape.kind(i), TapeKind::Store);
                    assert_eq!(tape.addr(i), addr);
                }
                DynKind::Alu { dst: Some(_) } => assert_eq!(tape.kind(i), TapeKind::Alu),
                DynKind::Alu { dst: None } => assert_eq!(tape.kind(i), TapeKind::Branch),
            }
        }
    }
}
