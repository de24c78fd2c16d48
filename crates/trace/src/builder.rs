//! Fluent construction of workload [`Program`]s.
//!
//! Generators describe blocks in natural dataflow style; the builder takes
//! care of virtual-register bookkeeping and script assembly.

use crate::ir::{AddrPattern, Block, BlockId, IrOp, PatternId, Program, ScriptNode, VirtReg};
use nbl_core::types::{LoadFormat, RegClass};

/// Builder for a whole [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    patterns: Vec<AddrPattern>,
    blocks: Vec<Block>,
    script: Vec<ScriptNode>,
}

impl ProgramBuilder {
    /// Starts a program named `name`.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            patterns: Vec::new(),
            blocks: Vec::new(),
            script: Vec::new(),
        }
    }

    /// Registers an address pattern.
    pub fn pattern(&mut self, p: AddrPattern) -> PatternId {
        let id = PatternId(self.patterns.len() as u32);
        self.patterns.push(p);
        id
    }

    /// Starts building a basic block; call [`BlockBuilder::finish`] to get
    /// its id.
    pub fn block(&mut self) -> BlockBuilder<'_> {
        BlockBuilder {
            parent: self,
            block: Block::default(),
        }
    }

    /// Appends "run `block` `times` times" to the top-level script.
    pub fn run(&mut self, block: BlockId, times: u64) -> &mut Self {
        self.script.push(ScriptNode::Run { block, times });
        self
    }

    /// Appends a loop node built from `body` to the top-level script.
    pub fn loop_of(&mut self, trips: u64, body: Vec<ScriptNode>) -> &mut Self {
        self.script.push(ScriptNode::Loop { body, trips });
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            patterns: self.patterns,
            blocks: self.blocks,
            script: self.script,
        }
    }
}

/// Builder for one basic [`Block`].
#[derive(Debug)]
pub struct BlockBuilder<'a> {
    parent: &'a mut ProgramBuilder,
    block: Block,
}

impl BlockBuilder<'_> {
    /// Allocates a fresh virtual register of `class`.
    pub fn vreg(&mut self, class: RegClass) -> VirtReg {
        let v = VirtReg(self.block.classes.len() as u32);
        self.block.classes.push(class);
        v
    }

    /// Allocates a loop-carried virtual register (live across iterations;
    /// never spilled).
    pub fn carried(&mut self, class: RegClass) -> VirtReg {
        let v = self.vreg(class);
        self.block.carried.push(v);
        v
    }

    /// Emits a load from `pattern` into a fresh register of `class`.
    pub fn load(&mut self, pattern: PatternId, class: RegClass, format: LoadFormat) -> VirtReg {
        let dst = self.vreg(class);
        self.block.ops.push(IrOp::Load {
            dst,
            pattern,
            format,
            addr_src: None,
        });
        dst
    }

    /// Emits a dependent load: the effective address reads `addr_src`.
    pub fn load_via(
        &mut self,
        pattern: PatternId,
        addr_src: VirtReg,
        class: RegClass,
        format: LoadFormat,
    ) -> VirtReg {
        let dst = self.vreg(class);
        self.block.ops.push(IrOp::Load {
            dst,
            pattern,
            format,
            addr_src: Some(addr_src),
        });
        dst
    }

    /// Emits a pointer-chase step: load the next pointer *through* the
    /// current one, into the same carried register.
    pub fn chase(&mut self, pattern: PatternId, ptr: VirtReg, format: LoadFormat) {
        self.block.ops.push(IrOp::Load {
            dst: ptr,
            pattern,
            format,
            addr_src: Some(ptr),
        });
    }

    /// Emits a store of `data` to `pattern`.
    pub fn store(&mut self, pattern: PatternId, data: Option<VirtReg>) {
        self.block.ops.push(IrOp::Store {
            pattern,
            data,
            addr_src: None,
        });
    }

    /// Emits `dst <- op(a, b)` into a fresh register of `class`.
    pub fn alu(&mut self, class: RegClass, a: Option<VirtReg>, b: Option<VirtReg>) -> VirtReg {
        let dst = self.vreg(class);
        self.block.ops.push(IrOp::Alu { dst, srcs: [a, b] });
        dst
    }

    /// Emits `dst <- op(a, b)` into an existing register (accumulation /
    /// induction update).
    pub fn alu_into(&mut self, dst: VirtReg, a: Option<VirtReg>, b: Option<VirtReg>) {
        self.block.ops.push(IrOp::Alu { dst, srcs: [a, b] });
    }

    /// Emits a chain of `n` dependent ALU ops starting from `seed`,
    /// returning the final value — models a serial computation.
    pub fn alu_chain(&mut self, class: RegClass, seed: VirtReg, n: usize) -> VirtReg {
        let mut cur = seed;
        for _ in 0..n {
            cur = self.alu(class, Some(cur), None);
        }
        cur
    }

    /// Emits a branch reading `a` (loop back-edges, compare-and-branch).
    pub fn branch(&mut self, a: Option<VirtReg>) {
        self.block.ops.push(IrOp::Branch { srcs: [a, None] });
    }

    /// Finishes the block and returns its id.
    pub fn finish(self) -> BlockId {
        let id = BlockId(self.parent.blocks.len() as u32);
        self.parent.blocks.push(self.block);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_two_block_program() {
        let mut pb = ProgramBuilder::new("demo");
        let arr = pb.pattern(AddrPattern::Strided {
            base: 0,
            elem_bytes: 8,
            stride: 1,
            length: 64,
        });
        let out = pb.pattern(AddrPattern::Strided {
            base: 4096,
            elem_bytes: 8,
            stride: 1,
            length: 64,
        });

        let mut b = pb.block();
        let i = b.carried(RegClass::Int);
        let x = b.load(arr, RegClass::Fp, LoadFormat::DOUBLE);
        let y = b.alu(RegClass::Fp, Some(x), None);
        b.store(out, Some(y));
        b.alu_into(i, Some(i), None);
        b.branch(Some(i));
        let body = b.finish();

        let mut b2 = pb.block();
        let t = b2.vreg(RegClass::Int);
        b2.alu_into(t, None, None);
        let epilogue = b2.finish();

        pb.run(body, 100);
        pb.run(epilogue, 1);
        let p = pb.build();

        assert_eq!(p.blocks.len(), 2);
        assert_eq!(p.patterns.len(), 2);
        assert_eq!(p.blocks[0].ops.len(), 5);
        assert!(p.blocks[0].is_carried(VirtReg(0)));
        assert!(!p.blocks[0].is_carried(VirtReg(1)));
        assert_eq!(p.blocks[0].op_mix(), (1, 1, 3));
        assert_eq!(p.estimated_instructions(), 100 * 5 + 1);
    }

    #[test]
    fn chase_reads_and_writes_same_register() {
        let mut pb = ProgramBuilder::new("chase");
        let ring = pb.pattern(AddrPattern::Chase {
            base: 0,
            node_bytes: 16,
            nodes: 32,
            field_offset: 0,
            seed: 1,
        });
        let mut b = pb.block();
        let p = b.carried(RegClass::Int);
        b.chase(ring, p, LoadFormat::DOUBLE);
        let id = b.finish();
        pb.run(id, 10);
        let prog = pb.build();
        match prog.blocks[0].ops[0] {
            IrOp::Load { dst, addr_src, .. } => {
                assert_eq!(dst, p);
                assert_eq!(addr_src, Some(p));
            }
            _ => panic!("expected load"),
        }
    }

    #[test]
    fn alu_chain_is_serial() {
        let mut pb = ProgramBuilder::new("chain");
        let mut b = pb.block();
        let s = b.vreg(RegClass::Fp);
        b.alu_into(s, None, None);
        let end = b.alu_chain(RegClass::Fp, s, 4);
        b.branch(Some(end));
        let id = b.finish();
        pb.run(id, 1);
        let prog = pb.build();
        // 1 init + 4 chain + 1 branch.
        assert_eq!(prog.blocks[0].ops.len(), 6);
        // Each chain op reads the previous dst.
        for w in prog.blocks[0].ops[1..5].windows(2) {
            let prev_dst = w[0].dst().unwrap();
            assert!(w[1].srcs().contains(&prev_dst));
        }
    }
}
