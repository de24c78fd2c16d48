//! Versioned, checksummed binary (de)serialization of [`TraceTape`]s —
//! the byte format the artifact store persists under `results/store/`
//! (DESIGN.md §16).
//!
//! The encoding mirrors the in-memory struct-of-arrays layout, so each
//! stream decodes as one bulk conversion of a contiguous slice:
//!
//! ```text
//! magic "NBLT" | format_version u32
//! header: name_len u32 | load_latency u32 | static_spill_ops u64
//!         | len u64 | barriers u64 | flag_words u64
//!         | loads u64 | stores u64 | load_written u64
//! name bytes (UTF-8, name_len)
//! flag plane: mem_flags  (flag_words × 8 B)
//! streams:   ops (len) | dsts (len) | srcs (2·len)
//!            | addrs (8·(loads + stores)) | barriers (4·barriers)
//! checksum u64 over every preceding byte
//! ```
//!
//! The per-entry is-memory and rank planes are not stored: decoding
//! rebuilds them in the same pass that validates the `ops` bytes.
//!
//! All integers are little-endian; multi-byte streams serialize value by
//! value, so the bytes are identical across host endianness. The
//! trailing checksum is [`checksum_bytes`](nbl_core::fingerprint::checksum_bytes)
//! — the same pinned mixing as
//! the store's content fingerprints — so truncation and bit flips are
//! detected before a corrupt tape can reach a replay. Decoding
//! additionally re-validates the structural invariants replay relies on
//! (`ops` bytes well formed and agreeing with the load/store counts,
//! barrier indices ascending and in range, every memory operation a
//! barrier flagged as one), because a checksum only protects against
//! *accidental* damage after a correct encode.
//!
//! Every failure is a typed [`TapeCodecError`](crate::tape::io::TapeCodecError);
//! the store maps any of
//! them to "quarantine the file and re-record" (never a panic, never a
//! wrong replay).

use super::{TapeKind, TraceTape, OP_FORMAT_SHIFT, OP_MEM_BIT, OP_VALID_MASK};
use nbl_core::fingerprint::checksum_bytes;
use std::fmt;

/// Leading magic of a serialized tape.
pub const TAPE_MAGIC: [u8; 4] = *b"NBLT";

/// Current tape format version. Bump on any change to the byte layout
/// (or to the checksum/fingerprint scheme, see
/// [`nbl_core::fingerprint::FINGERPRINT_VERSION`]); the store embeds the
/// version in artifact filenames, so old files are ignored rather than
/// misparsed.
pub const TAPE_FORMAT_VERSION: u32 = 2;

/// Why a serialized tape failed to decode. The artifact store treats
/// every variant the same way — quarantine and re-record — but the
/// variant names the failure for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeCodecError {
    /// The buffer does not start with [`TAPE_MAGIC`].
    BadMagic,
    /// The format version is not [`TAPE_FORMAT_VERSION`] (a newer or
    /// older writer); the payload is not decodable by this build.
    UnsupportedVersion(u32),
    /// The buffer ends before the structure it declares (a cut-short
    /// write or a length field the buffer cannot satisfy).
    Truncated,
    /// The buffer is longer than the structure it declares.
    TrailingBytes,
    /// The trailing checksum does not match the payload (bit rot, torn
    /// write, or any in-place mutation).
    ChecksumMismatch,
    /// An `ops` byte is outside the encoding: bits above the
    /// [`TapeKind`] and load format set, or a format on a non-load.
    BadKind(u8),
    /// Header fields are mutually inconsistent (load/store counts out of
    /// step with the `ops` stream, flag plane sized or populated out of
    /// step with the barrier index, barrier entries out of order or range,
    /// non-UTF-8 name) — the invariants replay relies on.
    HeaderMismatch,
}

impl fmt::Display for TapeCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeCodecError::BadMagic => write!(f, "not a tape artifact (bad magic)"),
            TapeCodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported tape format version {v} (this build reads v{TAPE_FORMAT_VERSION})"
                )
            }
            TapeCodecError::Truncated => write!(f, "tape artifact truncated"),
            TapeCodecError::TrailingBytes => write!(f, "tape artifact has trailing bytes"),
            TapeCodecError::ChecksumMismatch => write!(f, "tape artifact checksum mismatch"),
            TapeCodecError::BadKind(b) => write!(f, "tape artifact has invalid op byte {b}"),
            TapeCodecError::HeaderMismatch => {
                write!(f, "tape artifact header is internally inconsistent")
            }
        }
    }
}

impl std::error::Error for TapeCodecError {}

/// Fixed bytes before the name: magic + version + 2 `u32` + 7 `u64`.
const FIXED_HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 7 * 8;

/// Bytes of the whole artifact for a tape of `n` entries, `nm` memory
/// operations, `nb` barriers, `nf` flag words and a `name_len`-byte name
/// (including the checksum).
fn artifact_len(n: usize, nm: usize, nb: usize, nf: usize, name_len: usize) -> Option<usize> {
    // 4 B/inst + 8 B/memory op + 4 B/barrier + 8 B/flag word (the
    // in-memory arrays minus the rebuilt planes), plus header and checksum.
    let streams = n
        .checked_mul(4)?
        .checked_add(nm.checked_mul(8)?)?
        .checked_add(nb.checked_mul(4)?)?
        .checked_add(nf.checked_mul(8)?)?;
    FIXED_HEADER_BYTES
        .checked_add(name_len)?
        .checked_add(streams)?
        .checked_add(8)
}

/// Little-endian `u64`s of a byte slice whose length is a multiple of 8.
fn le_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|c| {
        let mut b = [0u8; 8];
        b.copy_from_slice(c);
        u64::from_le_bytes(b)
    })
}

/// Little-endian `u32`s of a byte slice whose length is a multiple of 4.
fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| {
        let mut b = [0u8; 4];
        b.copy_from_slice(c);
        u32::from_le_bytes(b)
    })
}

/// Collects exactly `len` items into a `Vec` of exactly that capacity, so
/// a decoded tape's [`TraceTape::bytes`] equals a recorded one's.
fn exact<T>(len: usize, items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v = Vec::with_capacity(len);
    v.extend(items);
    v
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked cursor over the serialized buffer.
struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TapeCodecError> {
        let end = self.off.checked_add(n).ok_or(TapeCodecError::Truncated)?;
        let slice = self
            .buf
            .get(self.off..end)
            .ok_or(TapeCodecError::Truncated)?;
        self.off = end;
        Ok(slice)
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

    fn len_u64(&mut self) -> Result<usize, TapeCodecError> {
        usize::try_from(self.u64()?).map_err(|_| TapeCodecError::Truncated)
    }
}

impl TraceTape {
    /// Serializes the tape into the versioned, checksummed byte format
    /// (see the [module docs](self) for the layout). The encoding is a
    /// pure function of the tape's content — no clocks, paths or
    /// process state — so equal tapes always produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (n, nb, nf) = (self.ops.len(), self.barriers.len(), self.mem_flags.len());
        let name = self.name.as_bytes();
        let cap =
            artifact_len(n, self.addrs.len(), nb, nf, name.len()).unwrap_or(FIXED_HEADER_BYTES);
        let mut out = Vec::with_capacity(cap);
        out.extend_from_slice(&TAPE_MAGIC);
        push_u32(&mut out, TAPE_FORMAT_VERSION);
        push_u32(&mut out, name.len() as u32);
        push_u32(&mut out, self.load_latency);
        push_u64(&mut out, self.static_spill_ops as u64);
        push_u64(&mut out, n as u64);
        push_u64(&mut out, nb as u64);
        push_u64(&mut out, nf as u64);
        push_u64(&mut out, self.loads);
        push_u64(&mut out, self.stores);
        push_u64(&mut out, self.load_written);
        out.extend_from_slice(name);
        for &w in &self.mem_flags {
            push_u64(&mut out, w);
        }
        out.extend_from_slice(&self.ops);
        out.extend_from_slice(&self.dsts);
        out.extend_from_slice(self.srcs.as_flattened());
        for &a in &self.addrs {
            push_u64(&mut out, a);
        }
        for &b in &self.barriers {
            push_u32(&mut out, b);
        }
        let sum = checksum_bytes(&out);
        push_u64(&mut out, sum);
        out
    }

    /// Decodes a serialized tape, verifying the magic, version, declared
    /// sizes, trailing checksum, and the structural invariants replay
    /// relies on. The result is [`PartialEq`]-equal to the tape that was
    /// encoded (every field round-trips, including the recording-state
    /// bitmap), so a replay from a loaded tape is bit-identical to a
    /// replay from the original recording.
    ///
    /// # Errors
    ///
    /// [`TapeCodecError`] on any damage or version skew; the caller
    /// (the artifact store) quarantines the file and re-records.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceTape, TapeCodecError> {
        let mut r = Reader { buf: bytes, off: 0 };
        if r.take(4)? != TAPE_MAGIC {
            return Err(TapeCodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != TAPE_FORMAT_VERSION {
            return Err(TapeCodecError::UnsupportedVersion(version));
        }
        let name_len = usize::try_from(r.u32()?).map_err(|_| TapeCodecError::Truncated)?;
        let load_latency = r.u32()?;
        let static_spill_ops = r.len_u64()?;
        let n = r.len_u64()?;
        let nb = r.len_u64()?;
        let nf = r.len_u64()?;
        let loads = r.u64()?;
        let stores = r.u64()?;
        let load_written = r.u64()?;

        // The declared structure must account for the buffer exactly;
        // checking before the checksum distinguishes truncation from rot.
        let nm = loads
            .checked_add(stores)
            .and_then(|m| usize::try_from(m).ok())
            .ok_or(TapeCodecError::Truncated)?;
        match artifact_len(n, nm, nb, nf, name_len) {
            Some(total) if total == bytes.len() => {}
            Some(total) if total > bytes.len() => return Err(TapeCodecError::Truncated),
            Some(_) => return Err(TapeCodecError::TrailingBytes),
            None => return Err(TapeCodecError::Truncated),
        }
        let body_len = bytes.len() - 8;
        let stored = {
            let mut b = [0u8; 8];
            b.copy_from_slice(bytes.get(body_len..).ok_or(TapeCodecError::Truncated)?);
            u64::from_le_bytes(b)
        };
        let body = bytes.get(..body_len).ok_or(TapeCodecError::Truncated)?;
        if checksum_bytes(body) != stored {
            return Err(TapeCodecError::ChecksumMismatch);
        }
        if nf != nb.div_ceil(64) || u32::try_from(n).is_err() {
            return Err(TapeCodecError::HeaderMismatch);
        }

        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| TapeCodecError::HeaderMismatch)?
            .to_string();
        let mem_flags = exact(nf, le_u64s(r.take(nf * 8)?));
        let ops = r.take(n)?.to_vec();

        // One pass over the ops bytes validates each and rebuilds the
        // is-memory and rank planes.
        let words = n.div_ceil(64);
        let (mut mem_bits, mut mem_rank) = (Vec::with_capacity(words), Vec::with_capacity(words));
        let (mut seen_loads, mut seen_stores) = (0u64, 0u64);
        for chunk in ops.chunks(64) {
            mem_rank.push((seen_loads + seen_stores) as u32);
            let mut bits = 0u64;
            for (k, &op) in chunk.iter().enumerate() {
                let kind = TapeKind::of_op(op);
                if op & !OP_VALID_MASK != 0
                    || (kind != TapeKind::Load && op >> OP_FORMAT_SHIFT != 0)
                {
                    return Err(TapeCodecError::BadKind(op));
                }
                bits |= u64::from(op & OP_MEM_BIT != 0) << k;
                seen_loads += u64::from(kind == TapeKind::Load);
                seen_stores += u64::from(kind == TapeKind::Store);
            }
            mem_bits.push(bits);
        }
        if (seen_loads, seen_stores) != (loads, stores) {
            return Err(TapeCodecError::HeaderMismatch);
        }

        let dsts = r.take(n)?.to_vec();
        let srcs = exact(n, r.take(n * 2)?.chunks_exact(2).map(|c| [c[0], c[1]]));
        let addrs = exact(nm, le_u64s(r.take(nm * 8)?));
        let barriers = exact(nb, le_u32s(r.take(nb * 4)?));

        // Structural invariants behind the replay loops' running address
        // cursor: barriers ascend through real entries, the flag plane
        // marks exactly the memory operations among them (and nothing past
        // the last slot), and every memory operation is one of them.
        let mut next = 0usize;
        let mut mem_barriers = 0usize;
        for (slot, &entry) in barriers.iter().enumerate() {
            let i = entry as usize;
            if i < next || i >= n {
                return Err(TapeCodecError::HeaderMismatch);
            }
            next = i + 1;
            let is_mem = ops[i] & OP_MEM_BIT != 0;
            if (mem_flags[slot / 64] >> (slot % 64)) & 1 != u64::from(is_mem) {
                return Err(TapeCodecError::HeaderMismatch);
            }
            mem_barriers += usize::from(is_mem);
        }
        if let Some(last) = mem_flags.last() {
            let used = nb - (nf - 1) * 64;
            if used < 64 && last >> used != 0 {
                return Err(TapeCodecError::HeaderMismatch);
            }
        }
        if mem_barriers != nm {
            return Err(TapeCodecError::HeaderMismatch);
        }

        Ok(TraceTape {
            name,
            load_latency,
            static_spill_ops,
            ops,
            dsts,
            srcs,
            addrs,
            mem_bits,
            mem_rank,
            barriers,
            mem_flags,
            load_written,
            loads,
            stores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::inst::DynInst;
    use nbl_core::types::{Addr, LoadFormat, PhysReg};

    /// A small mixed tape: loads, stores, ALU chains, barriers spanning
    /// more than one flag word.
    fn sample_tape() -> TraceTape {
        let mut tape = TraceTape::with_capacity("sample", 6, 2, 400);
        for i in 0..400u64 {
            let r = PhysReg::from_dense((i % 48) as usize);
            let r2 = PhysReg::from_dense(((i + 7) % 48) as usize);
            match i % 5 {
                0 => tape.push(DynInst::load(Addr(0x1000 + i * 8), r, LoadFormat::WORD)),
                1 => tape.push(DynInst::alu(r2, [Some(r), None])),
                2 => tape.push(DynInst::store(Addr(0x9000 + i * 4), Some(r2))),
                3 => tape.push(DynInst::branch([Some(r2), None])),
                _ => tape.push(DynInst::alu(r, [None, None])),
            }
        }
        tape
    }

    #[test]
    fn round_trip_preserves_equality() {
        let tape = sample_tape();
        let bytes = tape.to_bytes();
        let back = TraceTape::from_bytes(&bytes).unwrap();
        assert_eq!(back, tape, "decode must invert encode exactly");
        assert_eq!(back.name(), "sample");
        assert_eq!(back.load_latency(), 6);
        assert_eq!(back.static_spill_ops(), 2);
        assert_eq!(back.loads(), tape.loads());
        assert_eq!(back.stores(), tape.stores());
        // Encoding is a pure function of content.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn empty_tape_round_trips() {
        let tape = TraceTape::with_capacity("empty", 1, 0, 0);
        let back = TraceTape::from_bytes(&tape.to_bytes()).unwrap();
        assert_eq!(back, tape);
        assert!(back.is_empty());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_tape().to_bytes();
        for cut in 0..bytes.len() {
            let err = TraceTape::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample_tape().to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(
                TraceTape::from_bytes(&bad).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn specific_failure_modes_name_themselves() {
        let bytes = sample_tape().to_bytes();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            TraceTape::from_bytes(&bad_magic),
            Err(TapeCodecError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xfe;
        assert!(matches!(
            TraceTape::from_bytes(&bad_version),
            Err(TapeCodecError::UnsupportedVersion(_))
        ));
        let mut flipped_payload = bytes.clone();
        let mid = bytes.len() / 2;
        flipped_payload[mid] ^= 0x40;
        assert_eq!(
            TraceTape::from_bytes(&flipped_payload),
            Err(TapeCodecError::ChecksumMismatch)
        );
        assert_eq!(
            TraceTape::from_bytes(&bytes[..bytes.len() - 3]),
            Err(TapeCodecError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            TraceTape::from_bytes(&trailing),
            Err(TapeCodecError::TrailingBytes)
        );
        assert_eq!(TraceTape::from_bytes(b""), Err(TapeCodecError::Truncated));
        // Errors render.
        for e in [
            TapeCodecError::BadMagic,
            TapeCodecError::UnsupportedVersion(9),
            TapeCodecError::Truncated,
            TapeCodecError::TrailingBytes,
            TapeCodecError::ChecksumMismatch,
            TapeCodecError::BadKind(7),
            TapeCodecError::HeaderMismatch,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Recomputes the trailing checksum, so a test can reach the
    /// structural validation behind it.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let sum = checksum_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn structural_damage_behind_a_valid_checksum_is_rejected() {
        let tape = sample_tape();
        let bytes = tape.to_bytes();
        let n = tape.len();
        let ops = FIXED_HEADER_BYTES + tape.name().len() + tape.mem_flags.len() * 8;
        let barriers = bytes.len() - 8 - tape.barriers().len() * 4;
        // sample_tape: entry 0 is a load, entry 1 an ALU op.
        assert_eq!(tape.kind(0), TapeKind::Load);
        assert_eq!(tape.kind(1), TapeKind::Alu);
        let edit = |pos: usize, byte: u8| {
            let mut b = bytes.clone();
            b[pos] = byte;
            TraceTape::from_bytes(&reseal(b))
        };
        assert_eq!(edit(ops, 0x80 | 2), Err(TapeCodecError::BadKind(0x82)));
        assert_eq!(
            edit(ops + 1, 1 << OP_FORMAT_SHIFT),
            Err(TapeCodecError::BadKind(4))
        );
        // A load turned into a store: counts no longer match the header.
        assert_eq!(edit(ops, 3), Err(TapeCodecError::HeaderMismatch));
        // An ALU op turned into a branch is well formed, and still decodes.
        assert!(edit(ops + 1, 1).is_ok());
        // A barrier out of range, and one out of order.
        let mut b = bytes.clone();
        b[barriers..barriers + 4].copy_from_slice(&(n as u32).to_le_bytes());
        assert_eq!(
            TraceTape::from_bytes(&reseal(b)),
            Err(TapeCodecError::HeaderMismatch)
        );
        let mut b = bytes.clone();
        b.copy_within(barriers + 4..barriers + 8, barriers);
        assert_eq!(
            TraceTape::from_bytes(&reseal(b)),
            Err(TapeCodecError::HeaderMismatch)
        );
        // The flag plane disagreeing with a barrier's kind.
        let flags = ops - tape.mem_flags.len() * 8;
        assert_eq!(
            edit(flags, bytes[flags] ^ 1),
            Err(TapeCodecError::HeaderMismatch)
        );
    }
}

/// Property suite for the codec, gated behind the off-by-default
/// `codec-prop` feature (run with
/// `cargo test -p nbl-trace --features codec-prop`), mirroring the
/// `scan-prop` suite: randomized tapes from the in-tree
/// [`SplitMix64`](nbl_core::rng::SplitMix64), zero external deps.
#[cfg(all(test, feature = "codec-prop"))]
mod codec_prop {
    use super::*;
    use nbl_core::inst::DynInst;
    use nbl_core::rng::SplitMix64;
    use nbl_core::types::{Addr, LoadFormat, PhysReg};

    /// One random instruction; `mem_bias`/1000 is the memory-op rate.
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
                DynInst::load(Addr(rng.next_below(1 << 40)), reg(rng), LoadFormat::WORD)
            } else {
                DynInst::store(Addr(rng.next_below(1 << 40)), maybe_reg(rng))
            }
        } else if rng.next_below(4) == 0 {
            DynInst::branch([maybe_reg(rng), maybe_reg(rng)])
        } else {
            DynInst::alu(reg(rng), [maybe_reg(rng), maybe_reg(rng)])
        }
    }

    #[test]
    fn random_tapes_round_trip_bit_identically() {
        let mut rng = SplitMix64::new(0xc0dec);
        for &mem_bias in &[0, 40, 500, 1000] {
            for case in 0..24 {
                let len = rng.next_below(700) as usize;
                let mut tape = TraceTape::with_capacity("prop", 1 + case % 20, 0, len);
                for _ in 0..len {
                    let inst = random_inst(&mut rng, mem_bias);
                    tape.push(inst);
                }
                let bytes = tape.to_bytes();
                let back = TraceTape::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("bias {mem_bias} case {case}: {e}"));
                assert_eq!(back, tape, "bias {mem_bias} case {case}");
                assert_eq!(bytes, back.to_bytes());
            }
        }
    }

    /// One entry of a word-shaped layout: `shape` picks the 64-entry
    /// word's mix — all memory, no memory, memory only at the word's first
    /// and last entries, or random.
    fn shaped_inst(rng: &mut SplitMix64, shape: u64, k: usize) -> DynInst {
        let bias = match shape {
            0 => 1000,
            1 => 0,
            2 if k == 0 || k == 63 => 1000,
            2 => 0,
            _ => 300,
        };
        random_inst(rng, bias)
    }

    /// Lengths straddling 64-entry word edges and words of every shape:
    /// each decoded tape must equal the original, and its rank plane must
    /// hand every entry its own address.
    #[test]
    fn word_shaped_tapes_round_trip_with_exact_addresses() {
        let mut rng = SplitMix64::new(0x64_64);
        for &len in &[1usize, 63, 64, 65, 127, 128, 129, 191, 192, 193, 320, 449] {
            for case in 0..12 {
                let mut tape = TraceTape::with_capacity("words", 2, 0, len);
                let mut stream = Vec::with_capacity(len);
                let mut shape = 0;
                for i in 0..len {
                    if i % 64 == 0 {
                        shape = rng.next_below(4);
                    }
                    let inst = shaped_inst(&mut rng, shape, i % 64);
                    stream.push(inst);
                    tape.push(inst);
                }
                let back = TraceTape::from_bytes(&tape.to_bytes())
                    .unwrap_or_else(|e| panic!("len {len} case {case}: {e}"));
                assert_eq!(back, tape, "len {len} case {case}");
                let mut mem = 0;
                for (i, inst) in stream.iter().enumerate() {
                    assert_eq!(back.get(i), *inst, "len {len} case {case} entry {i}");
                    if inst.is_mem() {
                        assert_eq!(back.addr(i).0, back.mem_addrs()[mem]);
                        mem += 1;
                    }
                }
                assert_eq!(back.mem_ops().count(), mem);
                assert_eq!(back.mem_addrs().len(), mem);
            }
        }
    }

    #[test]
    fn random_corruption_never_decodes_to_a_different_tape() {
        let mut rng = SplitMix64::new(0xdeadc0de);
        let mut tape = TraceTape::with_capacity("prop", 3, 1, 300);
        for _ in 0..300 {
            let inst = random_inst(&mut rng, 400);
            tape.push(inst);
        }
        let bytes = tape.to_bytes();
        for _ in 0..600 {
            let mut bad = bytes.clone();
            let pos = rng.next_below(bytes.len() as u64) as usize;
            let bit = rng.next_below(8) as u32;
            bad[pos] ^= 1 << bit;
            // Either a typed error, or (if the flip hit nothing the
            // checksum covers — impossible here, everything is covered)
            // the identical tape. Never a silently different tape.
            match TraceTape::from_bytes(&bad) {
                Err(_) => {}
                Ok(t) => assert_eq!(
                    t, tape,
                    "corruption at byte {pos} bit {bit} went undetected"
                ),
            }
        }
        // Random truncations, too.
        for _ in 0..200 {
            let cut = rng.next_below(bytes.len() as u64) as usize;
            assert!(TraceTape::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
