//! The compile driver: schedules and register-allocates every block of a
//! workload program for a target load latency.
//!
//! This is the model of the paper's "compile the benchmark using
//! instruction scheduling rules pertaining to the architecture of the
//! processor to be modeled" step (§3.2): the same IR program compiled at
//! latency 1 and latency 20 yields different instruction orders, different
//! spill code, and hence different dynamic reference counts (Fig. 4).

use crate::list_schedule::schedule;
use crate::regalloc::{allocate, AllocContext, AllocError};
use nbl_core::hash::FastMap;
use nbl_core::types::{PhysReg, RegClass, REGS_PER_CLASS};
use nbl_trace::ir::{Program, VirtReg};
use nbl_trace::machine::{CompiledProgram, MachineBlock};

/// The scheduled load latencies the paper sweeps (§3.3 / Fig. 4).
pub const LOAD_LATENCIES: [u32; 6] = [1, 2, 3, 6, 10, 20];

/// Base address of the compiler-managed spill area. Far above the
/// workloads' data regions (which stay below 64 × 16 MB; see
/// `nbl_trace::workloads::layout`), so spill traffic and data traffic
/// never alias — though they *do* share the cache, as real spills would.
pub const SPILL_AREA_BASE: u64 = 1 << 40;

/// Bytes of spill area reserved per block.
const SPILL_AREA_PER_BLOCK: u64 = 4096;

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A block could not be register-allocated.
    Alloc {
        /// Index of the failing block.
        block: usize,
        /// The underlying allocation failure.
        source: AllocError,
    },
    /// More loop-carried registers were requested than the architecture
    /// has (the generators keep well under this).
    TooManyCarried(RegClass),
    /// The program runs more dynamic instructions than a trace tape can
    /// index (`u32::MAX`, the width of a barrier entry).
    TooLong {
        /// Dynamic instruction count of the compiled program.
        instructions: u64,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Alloc { block, source } => {
                write!(f, "register allocation failed in block {block}: {source}")
            }
            CompileError::TooManyCarried(c) => {
                write!(f, "too many loop-carried {c:?} registers")
            }
            CompileError::TooLong { instructions } => write!(
                f,
                "{instructions} dynamic instructions exceed the trace tape limit of {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Per-block carried-register maps plus the leftover int and fp scratch
/// pools.
type CarriedAssignment = (Vec<FastMap<VirtReg, PhysReg>>, Vec<PhysReg>, Vec<PhysReg>);

/// Globally assigns loop-carried virtual registers: each (block, vreg)
/// pair gets its own architectural register so that interleaved block
/// executions never clobber one another's carried state. Returns the per
/// block maps and the per-class scratch pools left over.
fn assign_carried(program: &Program) -> Result<CarriedAssignment, CompileError> {
    let mut next_int: u8 = 0;
    let mut next_fp: u8 = 0;
    let mut maps = Vec::with_capacity(program.blocks.len());
    for block in &program.blocks {
        let mut map = FastMap::default();
        for &v in &block.carried {
            let reg = match block.class_of(v) {
                RegClass::Int => {
                    if next_int >= REGS_PER_CLASS / 2 {
                        return Err(CompileError::TooManyCarried(RegClass::Int));
                    }
                    let r = PhysReg::int(next_int);
                    next_int += 1;
                    r
                }
                RegClass::Fp => {
                    if next_fp >= REGS_PER_CLASS / 2 {
                        return Err(CompileError::TooManyCarried(RegClass::Fp));
                    }
                    let r = PhysReg::fp(next_fp);
                    next_fp += 1;
                    r
                }
            };
            map.insert(v, reg);
        }
        maps.push(map);
    }
    let int_pool: Vec<PhysReg> = (next_int..REGS_PER_CLASS).map(PhysReg::int).collect();
    let fp_pool: Vec<PhysReg> = (next_fp..REGS_PER_CLASS).map(PhysReg::fp).collect();
    Ok((maps, int_pool, fp_pool))
}

/// Compiles `program` for the given scheduled load latency.
///
/// # Errors
///
/// Returns [`CompileError`] if a block cannot be register-allocated, the
/// program declares more loop-carried values than the register files
/// hold, or it runs more than `u32::MAX` dynamic instructions (the most a
/// trace tape indexes).
///
/// # Examples
///
/// ```
/// use nbl_sched::compile::{compile, LOAD_LATENCIES};
/// use nbl_trace::workloads::{build, Scale};
///
/// let program = build("tomcatv", Scale::quick()).unwrap();
/// for lat in LOAD_LATENCIES {
///     let compiled = compile(&program, lat).unwrap();
///     assert_eq!(compiled.load_latency, lat);
/// }
/// ```
pub fn compile(program: &Program, load_latency: u32) -> Result<CompiledProgram, CompileError> {
    debug_assert_eq!(
        program.validate(),
        Ok(()),
        "generators must produce valid programs"
    );
    let (carried_maps, int_pool, fp_pool) = assign_carried(program)?;
    let mut patterns = program.patterns.clone();
    let mut blocks: Vec<MachineBlock> = Vec::with_capacity(program.blocks.len());
    for (bi, block) in program.blocks.iter().enumerate() {
        let order = schedule(block, load_latency);
        let scheduled_ops = order.iter().map(|&i| block.ops[i]).collect();
        let mut ctx = AllocContext {
            carried: &carried_maps[bi],
            int_pool: &int_pool,
            fp_pool: &fp_pool,
            patterns: &mut patterns,
            spill_base: SPILL_AREA_BASE + bi as u64 * SPILL_AREA_PER_BLOCK,
        };
        let mb = allocate(scheduled_ops, block.classes.clone(), &mut ctx)
            .map_err(|source| CompileError::Alloc { block: bi, source })?;
        blocks.push(mb);
    }
    let compiled = CompiledProgram {
        name: program.name.clone(),
        load_latency,
        patterns,
        blocks,
        script: program.script.clone(),
    };
    let instructions = compiled.dynamic_instructions();
    if instructions > u64::from(u32::MAX) {
        return Err(CompileError::TooLong { instructions });
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_trace::exec::Executor;
    use nbl_trace::ir::{BlockId, ScriptNode};
    use nbl_trace::machine::CountingSink;
    use nbl_trace::workloads::{build, Scale, ALL};

    #[test]
    fn compiles_every_benchmark_at_every_latency() {
        for name in ALL {
            let p = build(name, Scale::quick()).unwrap();
            for lat in LOAD_LATENCIES {
                let c = compile(&p, lat).unwrap_or_else(|e| panic!("{name} at latency {lat}: {e}"));
                assert_eq!(c.blocks.len(), p.blocks.len());
                // Block op counts only grow (spill code).
                for (mb, b) in c.blocks.iter().zip(&p.blocks) {
                    assert!(mb.ops.len() >= b.ops.len());
                    assert_eq!(mb.ops.len(), b.ops.len() + mb.spill_ops);
                }
            }
        }
    }

    #[test]
    fn reference_counts_vary_with_latency() {
        // The Fig. 4 effect: compiling for different latencies changes the
        // dynamic instruction count via spill code for at least some
        // benchmark (register pressure grows as loads hoist).
        let mut any_varied = false;
        for name in ALL {
            let p = build(name, Scale::quick()).unwrap();
            let counts: Vec<u64> = LOAD_LATENCIES
                .iter()
                .map(|&lat| compile(&p, lat).unwrap().dynamic_instructions())
                .collect();
            if counts.windows(2).any(|w| w[0] != w[1]) {
                any_varied = true;
            }
        }
        assert!(
            any_varied,
            "spill code should vary with the scheduled latency somewhere"
        );
    }

    #[test]
    fn compiled_streams_execute() {
        let p = build("doduc", Scale::quick()).unwrap();
        let c = compile(&p, 10).unwrap();
        let mut sink = CountingSink::default();
        Executor::new(&c).run(&mut sink);
        assert_eq!(sink.instructions, c.dynamic_instructions());
        let (l, s, _) = c.dynamic_mix();
        assert_eq!(sink.loads, l);
        assert_eq!(sink.stores, s);
    }

    /// The count is static, so a loop of 2³² and more instructions is
    /// checked without running a single one.
    #[test]
    fn programs_longer_than_the_tape_index_width_are_rejected() {
        let mut p = build("tomcatv", Scale::quick()).unwrap();
        let looped = |trips| {
            vec![ScriptNode::Loop {
                body: vec![ScriptNode::Run {
                    block: BlockId(0),
                    times: 1,
                }],
                trips,
            }]
        };
        p.script = looped(1);
        let per_trip = compile(&p, 6).unwrap().dynamic_instructions();
        let fits = u64::from(u32::MAX) / per_trip;
        p.script = looped(fits);
        assert_eq!(
            compile(&p, 6).unwrap().dynamic_instructions(),
            fits * per_trip
        );
        for trips in [fits + 1, 1 << 32] {
            p.script = looped(trips);
            let err = compile(&p, 6).unwrap_err();
            assert_eq!(
                err,
                CompileError::TooLong {
                    instructions: trips * per_trip
                }
            );
            assert!(err.to_string().contains("trace tape limit"));
        }
    }

    #[test]
    fn carried_registers_are_globally_disjoint() {
        let p = build("nasa7", Scale::quick()).unwrap(); // three blocks with carried regs
        let (maps, int_pool, fp_pool) = assign_carried(&p).unwrap();
        let mut seen = std::collections::HashSet::new();
        for m in &maps {
            for &r in m.values() {
                assert!(seen.insert(r), "carried register {r} shared across blocks");
                assert!(!int_pool.contains(&r) && !fp_pool.contains(&r));
            }
        }
    }

    #[test]
    fn spill_area_is_disjoint_from_workload_data() {
        let p = build("fpppp", Scale::quick()).unwrap();
        let c = compile(&p, 20).unwrap();
        // Workload-fixed patterns (the IR prefix of the table) stay below
        // the spill area; compiler-added spill slots live at or above it.
        for (i, pat) in c.patterns.iter().enumerate() {
            if let nbl_trace::ir::AddrPattern::Fixed { addr } = pat {
                if i < p.patterns.len() {
                    assert!(
                        *addr < SPILL_AREA_BASE,
                        "workload pattern {i} inside spill area"
                    );
                } else {
                    assert!(
                        *addr >= SPILL_AREA_BASE,
                        "spill slot {i} below the spill area"
                    );
                }
            }
        }
        // Deterministic: compiling twice gives identical programs.
        let c2 = compile(&p, 20).unwrap();
        assert_eq!(c.dynamic_instructions(), c2.dynamic_instructions());
    }
}
