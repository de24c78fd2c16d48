//! Fundamental value types shared by every subsystem: byte addresses, cache
//! block addresses, cycle counts, physical registers and load formats.
//!
//! These are deliberate newtypes ([C-NEWTYPE]): an [`Addr`] is a byte address
//! in the simulated 48-bit physical address space, while a [`BlockAddr`] is an
//! address already shifted right by the cache's block-offset bits. Mixing the
//! two is the classic cache-simulator bug, so the type system rules it out.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// A byte address in the simulated physical address space.
///
/// The paper assumes a 64-bit virtual address architecture with 48 physical
/// address bits; we model the 48-bit physical space directly since the
/// simulated caches are physically indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Number of physical address bits modeled (as in the paper's MSHR
    /// sizing arithmetic: 48-bit physical addresses).
    pub const PHYSICAL_BITS: u32 = 48;

    /// Returns the block address obtained by discarding `block_bits` low bits.
    ///
    /// `block_bits` is `log2(line size in bytes)`.
    #[inline]
    pub fn block(self, block_bits: u32) -> BlockAddr {
        BlockAddr(self.0 >> block_bits)
    }

    /// Returns the byte offset of this address within its cache block.
    #[inline]
    pub fn offset_in_block(self, block_bits: u32) -> u32 {
        (self.0 & ((1u64 << block_bits) - 1)) as u32
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block (line) address: a byte address shifted right by the
/// block-offset bits. Two accesses with equal `BlockAddr` hit the same line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Reconstructs the first byte address of this block.
    #[inline]
    pub fn first_byte(self, block_bits: u32) -> Addr {
        Addr(self.0 << block_bits)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// A simulation time point, measured in processor cycles from reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The beginning of time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns this time advanced by `n` cycles.
    #[inline]
    #[must_use]
    pub fn plus(self, n: u64) -> Cycle {
        Cycle(self.0 + n)
    }

    /// Returns the number of cycles from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        debug_assert!(earlier <= self, "time ran backwards: {earlier} > {self}");
        self.0 - earlier.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cy{}", self.0)
    }
}

/// The two architectural register files of the modeled machine
/// (32 integer + 32 floating-point registers, paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// Fixed-point (integer) register file.
    Int,
    /// Floating-point register file.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "r"),
            RegClass::Fp => write!(f, "f"),
        }
    }
}

/// Number of architectural registers in each register file.
pub const REGS_PER_CLASS: u8 = 32;

/// A physical (architectural) register: `r0..r31` or `f0..f31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg {
    class: RegClass,
    index: u8,
}

impl PhysReg {
    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[inline]
    pub fn int(index: u8) -> PhysReg {
        assert!(
            index < REGS_PER_CLASS,
            "integer register index {index} out of range"
        );
        PhysReg {
            class: RegClass::Int,
            index,
        }
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[inline]
    pub fn fp(index: u8) -> PhysReg {
        assert!(
            index < REGS_PER_CLASS,
            "fp register index {index} out of range"
        );
        PhysReg {
            class: RegClass::Fp,
            index,
        }
    }

    /// The register file this register belongs to.
    #[inline]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The index within its register file (0..32).
    #[inline]
    pub fn index(self) -> u8 {
        self.index
    }

    /// A dense index over both files (0..64), used for scoreboard storage
    /// and for sizing the inverted MSHR.
    #[inline]
    pub fn dense_index(self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => REGS_PER_CLASS as usize + self.index as usize,
        }
    }

    /// Inverse of [`PhysReg::dense_index`].
    ///
    /// # Panics
    ///
    /// Panics if `dense >= 64`.
    #[inline]
    pub fn from_dense(dense: usize) -> PhysReg {
        assert!(
            dense < 2 * REGS_PER_CLASS as usize,
            "dense register index {dense} out of range"
        );
        if dense < REGS_PER_CLASS as usize {
            PhysReg::int(dense as u8)
        } else {
            PhysReg::fp((dense - REGS_PER_CLASS as usize) as u8)
        }
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class, self.index)
    }
}

/// A destination that fetch data can be delivered to.
///
/// The inverted MSHR (paper §2.4) has one entry per possible destination:
/// every architectural register, plus the program counter, write-buffer
/// entries and instruction-prefetch buffers. Our processor model only ever
/// *uses* register destinations (stores never allocate in the baseline
/// write-around cache and the instruction cache is perfect), but the other
/// destinations participate in the hardware cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dest {
    /// An architectural register.
    Reg(PhysReg),
    /// The program counter (instruction fetch on a branch miss).
    Pc,
    /// A write-buffer entry awaiting merge with fetched data.
    WriteBuffer(u8),
    /// An instruction prefetch buffer slot.
    Prefetch(u8),
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Reg(r) => write!(f, "{r}"),
            Dest::Pc => write!(f, "pc"),
            Dest::WriteBuffer(i) => write!(f, "wb{i}"),
            Dest::Prefetch(i) => write!(f, "pf{i}"),
        }
    }
}

impl From<PhysReg> for Dest {
    fn from(r: PhysReg) -> Self {
        Dest::Reg(r)
    }
}

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AccessSize {
    /// 1 byte.
    B1,
    /// 2 bytes (halfword).
    B2,
    /// 4 bytes (word).
    B4,
    /// 8 bytes (doubleword).
    #[default]
    B8,
}

impl AccessSize {
    /// The access width in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B2 => 2,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// The formatting information an MSHR target field must carry so that the
/// load can be completed when its block returns (paper Fig. 1: width,
/// low-order byte address bits, sign extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LoadFormat {
    /// Access width.
    pub size: AccessSize,
    /// Whether sub-word data is sign extended when placed in the register.
    pub sign_extend: bool,
}

impl LoadFormat {
    /// A plain 8-byte (doubleword) load: the common case for FP code.
    pub const DOUBLE: LoadFormat = LoadFormat {
        size: AccessSize::B8,
        sign_extend: false,
    };

    /// A sign-extending 4-byte (word) load: the common case for integer code.
    pub const WORD: LoadFormat = LoadFormat {
        size: AccessSize::B4,
        sign_extend: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_split_roundtrips() {
        let a = Addr(0x1234_5678);
        let block_bits = 5; // 32-byte lines
        assert_eq!(a.block(block_bits).0, 0x1234_5678 >> 5);
        assert_eq!(a.offset_in_block(block_bits), 0x18);
        assert_eq!(
            a.block(block_bits).first_byte(block_bits).0 + u64::from(a.offset_in_block(block_bits)),
            a.0
        );
    }

    #[test]
    fn addresses_in_same_line_share_block() {
        let block_bits = 5;
        let a = Addr(0x1000);
        let b = Addr(0x101f);
        let c = Addr(0x1020);
        assert_eq!(a.block(block_bits), b.block(block_bits));
        assert_ne!(a.block(block_bits), c.block(block_bits));
    }

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle(10);
        assert_eq!(t.plus(6), Cycle(16));
        assert_eq!(Cycle(16).since(t), 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time ran backwards")]
    fn cycle_since_panics_in_debug_when_backwards() {
        let _ = Cycle(5).since(Cycle(9));
    }

    #[test]
    fn dense_register_indexing_roundtrips() {
        for dense in 0..64 {
            assert_eq!(PhysReg::from_dense(dense).dense_index(), dense);
        }
        assert_eq!(PhysReg::int(3).dense_index(), 3);
        assert_eq!(PhysReg::fp(3).dense_index(), 35);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_index_bounds_checked() {
        let _ = PhysReg::int(32);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(PhysReg::int(7).to_string(), "r7");
        assert_eq!(PhysReg::fp(0).to_string(), "f0");
        assert_eq!(Dest::Pc.to_string(), "pc");
        assert_eq!(Addr(16).to_string(), "0x10");
        assert_eq!(Cycle(4).to_string(), "cy4");
        assert_eq!(AccessSize::B4.to_string(), "4B");
    }

    #[test]
    fn access_size_bytes() {
        assert_eq!(AccessSize::B1.bytes(), 1);
        assert_eq!(AccessSize::B2.bytes(), 2);
        assert_eq!(AccessSize::B4.bytes(), 4);
        assert_eq!(AccessSize::B8.bytes(), 8);
    }
}
