//! The abstract domain: one walk over a tape's memory operations,
//! classifying each as must-hit / must-miss / unknown under a given
//! `(geometry, replacement, window)`.
//!
//! # The model
//!
//! Tapes are single concrete paths, so every address is known; the only
//! nondeterminism the domain abstracts is *fill timing*. The engine's
//! discipline (see `Core::replay_fused`) gives a hard bound: a miss finally
//! accessed at instruction `t` has installed its line before
//! instruction `t + window` issues (`window` = effective miss penalty
//! in cycles; the single-issue core burns at least one cycle per
//! instruction and drains due fills before every access). Within the
//! window the install may or may not have landed — every quantity below
//! is therefore an *interval* over possible commit positions.
//!
//! # Stamp characterization
//!
//! For LRU, a block is resident iff it is among the `W` (= ways) most
//! recently *stamped* distinct blocks of its set, where a stamp is a
//! hit touch or a fill install (write-around store misses stamp
//! nothing). Eviction takes the minimum-stamp way, so by induction the
//! resident set is exactly the top-`W` of the stamp order. FIFO is the
//! same with stamps = installs only. Tree-PLRU admits the weaker
//! published bound: the last `log2(W) + 1` distinct touched blocks are
//! guaranteed resident (its tree bits can protect an untouched block
//! forever, so eviction is never provable). Seeded-random is may-only:
//! a block is provably resident only while *no* other block possibly
//! installed into its set since it was last definitely present, and
//! provably absent only when it was never possibly installed.
//! Direct-mapped sets degenerate every policy to install order, which
//! the domain analyzes exactly.
//!
//! Per block the domain keeps its last *definite* stamp (position lower
//! bound + the instruction by which it committed) and its last
//! *possible* stamp/install positions (upper bounds). Must-hit then
//! needs a committed definite stamp with fewer than the policy
//! threshold of distinct other blocks possibly stamped after it;
//! must-miss needs either cold (never possibly installed) or at least
//! `W` distinct committed definite stamps after the block's last
//! possible stamp. Both walks are bounded; on overflow the access
//! degrades to [`Classification::Unknown`] — never to a wrong claim.

use crate::OracleConfig;
use nbl_core::hash::FastMap;
use nbl_core::tag_array::ReplacementKind;
use nbl_core::types::Addr;
use nbl_trace::TraceTape;
use std::cell::Cell;

/// The oracle's verdict for one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// The access provably hits in the L1 tag array.
    MustHit,
    /// The access provably misses (cold, definitely evicted, or
    /// possibly in flight — an in-flight block is a secondary miss at
    /// the port, so "not resident in the tag array" suffices).
    MustMiss,
    /// The analysis cannot prove either way (typically an access within
    /// the fill window of a possible install of the same set).
    Unknown,
}

/// Aggregate classification counts for one analyzed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Total memory accesses classified.
    pub accesses: u64,
    /// Accesses proven to hit.
    pub must_hit: u64,
    /// Accesses proven to miss.
    pub must_miss: u64,
    /// Accesses left undecided.
    pub unknown: u64,
}

/// Result of one analyzer walk: per-access verdicts (indexed in
/// [`TraceTape::mem_ops`] order) plus the aggregate counts.
#[derive(Debug, Clone)]
pub struct OracleAnalysis {
    /// One verdict per memory operation, in tape order.
    pub classes: Vec<Classification>,
    /// Aggregate counts over `classes`.
    pub coverage: Coverage,
}

/// Per-policy classification rules (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Rules {
    /// Must-hit threshold: the access hits if fewer than `m` distinct
    /// other blocks possibly stamped after the block's definite stamp.
    m: u32,
    /// Whether hits refresh the stamp order (LRU/PLRU) or only installs
    /// do (FIFO, and every policy when direct-mapped).
    stamps_on_hit: bool,
    /// Whether `W` distinct committed stamps after a block's last
    /// possible stamp prove eviction (LRU/FIFO; PLRU and random can
    /// protect a stale block forever).
    evict_proof: bool,
    /// Random replacement: must-hit only while no other block possibly
    /// installed into the set since the block was definitely present.
    any_victim: bool,
}

impl Rules {
    fn for_policy(kind: ReplacementKind, ways: u32) -> Rules {
        if ways == 1 {
            // Direct-mapped: every policy degenerates to install order.
            return Rules {
                m: 1,
                stamps_on_hit: false,
                evict_proof: true,
                any_victim: false,
            };
        }
        match kind {
            ReplacementKind::Lru => Rules {
                m: ways,
                stamps_on_hit: true,
                evict_proof: true,
                any_victim: false,
            },
            ReplacementKind::Fifo => Rules {
                m: ways,
                stamps_on_hit: false,
                evict_proof: true,
                any_victim: false,
            },
            ReplacementKind::TreePlru => Rules {
                // Reineke's PLRU bound: the last log2(W)+1 distinct
                // touched blocks are resident.
                m: ways.trailing_zeros() + 1,
                stamps_on_hit: true,
                evict_proof: false,
                any_victim: false,
            },
            ReplacementKind::Random { .. } => Rules {
                m: 1,
                stamps_on_hit: true,
                evict_proof: false,
                any_victim: true,
            },
        }
    }
}

/// Abstract state of one block (one record per distinct block ever
/// accessed; records persist so "no record" means provably cold).
#[derive(Debug, Clone)]
struct BlockRec {
    /// Instruction index of the last access to this block.
    last_access: u32,
    /// Latest *definite* stamp: (position lower bound, committed-by
    /// instruction). Present only when the block was definitely
    /// resident-or-installing at that stamp.
    def: Option<(u32, u32)>,
    /// Upper bound on the latest *possible* stamp position (policy
    /// stamps: touches + installs for LRU/PLRU, installs for FIFO).
    hi_stamp: Option<u32>,
    /// Upper bound on the latest *possible install* position.
    hi_install: Option<u32>,
    /// Whether the block was ever possibly installed; `false` means it
    /// was never resident (write-around stores don't install).
    ever_install: bool,
    /// Tombstone: the record was pruned from its set's recency list and
    /// its bounds folded into the set's `pruned_*` caps. Revived (with
    /// fresh bounds) on the block's next access.
    dropped: bool,
}

impl BlockRec {
    fn new(u: u32) -> BlockRec {
        BlockRec {
            last_access: u,
            def: None,
            hi_stamp: None,
            hi_install: None,
            ever_install: false,
            dropped: false,
        }
    }
}

/// Per-set state: the recency list (record indices ordered by
/// `last_access`, oldest first) and the caps folded in from pruned
/// records.
#[derive(Debug, Clone, Default)]
struct SetState {
    recency: Vec<u32>,
    /// Max possible-stamp position among pruned records: a must-hit
    /// proof with a definite stamp at or before this cap is refused
    /// (a dropped record might have stamped later).
    pruned_hi: Option<u32>,
    /// Same cap for possible installs (the random policy's walk).
    pruned_install_hi: Option<u32>,
}

fn max_opt(a: Option<u32>, b: u32) -> Option<u32> {
    Some(a.map_or(b, |a| a.max(b)))
}

fn max_opt2(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match b {
        Some(b) => max_opt(a, b),
        None => a,
    }
}

/// The growable tables of one analysis, handed from each finished walk to
/// the next on the same thread. A walk over a full-scale tape grows them
/// to megabytes; reusing them keeps repeated analyses (one per oracle
/// cell) from paying for fresh zeroed pages every time.
#[derive(Default)]
struct Buffers {
    records: Vec<BlockRec>,
    map: FastMap<u64, u32>,
    sets: Vec<SetState>,
}

thread_local! {
    /// This thread's spare [`Buffers`]; [`State::new`] clears them, so
    /// reuse never carries state from one analysis into the next.
    static SPARE: Cell<Buffers> = Cell::new(Buffers::default());
}

struct State {
    geometry: nbl_core::geometry::CacheGeometry,
    rules: Rules,
    ways: u32,
    window: u32,
    write_allocate: bool,
    walk_cap: usize,
    prune_len: usize,
    records: Vec<BlockRec>,
    map: FastMap<u64, u32>,
    sets: Vec<SetState>,
}

impl State {
    /// A cold state for `cfg`, built in the (cleared) `spare` tables.
    fn new(cfg: &OracleConfig, spare: Buffers) -> State {
        let ways = cfg.geometry.ways();
        let walk_cap = (8 * ways as usize) + (2 * cfg.window as usize) + 32;
        let Buffers {
            mut records,
            mut map,
            mut sets,
        } = spare;
        records.clear();
        map.clear();
        sets.resize_with(cfg.geometry.num_sets() as usize, SetState::default);
        for s in &mut sets {
            s.recency.clear();
            s.pruned_hi = None;
            s.pruned_install_hi = None;
        }
        State {
            geometry: cfg.geometry,
            rules: Rules::for_policy(cfg.replacement, ways),
            ways,
            window: cfg.window,
            write_allocate: cfg.write_allocate,
            walk_cap,
            prune_len: (walk_cap * 2).max(64),
            records,
            map,
            sets,
        }
    }

    /// The state's tables, for the next analysis on this thread.
    fn into_buffers(self) -> Buffers {
        Buffers {
            records: self.records,
            map: self.map,
            sets: self.sets,
        }
    }

    /// Classifies the access at instruction `u`, then folds it into the
    /// abstract state.
    fn step(&mut self, u: u32, is_store: bool, addr: Addr) -> Classification {
        let block = self.geometry.block_of(addr);
        let set = self.geometry.set_of_block(block) as usize;
        let installing = !is_store || self.write_allocate;
        let class = self.classify(block.0, set, u);
        self.update(block.0, set, u, installing, class);
        class
    }

    fn classify(&self, block: u64, set: usize, u: u32) -> Classification {
        let Some(&ri) = self.map.get(&block) else {
            return Classification::MustMiss; // cold: never accessed
        };
        let r = &self.records[ri as usize];
        if !r.ever_install {
            // Only ever written around the cache: provably not resident.
            return Classification::MustMiss;
        }
        if r.dropped {
            return Classification::Unknown; // bounds lost at prune time
        }
        let s = &self.sets[set];
        if let Some((lo, commit)) = r.def {
            let pruned_ok = if self.rules.any_victim {
                s.pruned_install_hi.is_none_or(|p| p < lo)
            } else {
                s.pruned_hi.is_none_or(|p| p < lo)
            };
            if u >= commit && pruned_ok {
                let proven = if self.rules.any_victim {
                    self.no_other_install_after(set, ri, lo) == Some(true)
                } else {
                    self.count_possible_after(set, ri, lo)
                        .is_some_and(|c| c < self.rules.m)
                };
                if proven {
                    return Classification::MustHit;
                }
            }
        }
        if self.rules.evict_proof {
            if let Some(hi) = r.hi_stamp {
                if self.count_definite_after(set, ri, hi, u) >= self.ways {
                    return Classification::MustMiss; // definitely evicted
                }
            }
        }
        Classification::Unknown
    }

    /// Distinct other blocks whose possible stamp position reaches `lo`
    /// or later; `None` when the bounded walk gave up. Early-exits at
    /// the must-hit threshold.
    fn count_possible_after(&self, set: usize, skip: u32, lo: u32) -> Option<u32> {
        let mut count = 0u32;
        let mut steps = 0usize;
        for &ri in self.sets[set].recency.iter().rev() {
            if ri == skip {
                continue;
            }
            let r = &self.records[ri as usize];
            // hi_stamp ≤ last_access + window, so no deeper entry (the
            // list is ordered by last_access) can reach `lo`.
            if (r.last_access as u64 + self.window as u64) < lo as u64 {
                break;
            }
            steps += 1;
            if steps > self.walk_cap {
                return None;
            }
            if r.hi_stamp.is_some_and(|h| h >= lo) {
                count += 1;
                if count >= self.rules.m {
                    return Some(count);
                }
            }
        }
        Some(count)
    }

    /// Distinct other blocks with a *definite, committed* stamp
    /// strictly after position `hi`, capped at `ways` (the eviction
    /// threshold). A truncated walk undercounts, which only loses
    /// precision, never soundness.
    fn count_definite_after(&self, set: usize, skip: u32, hi: u32, u: u32) -> u32 {
        let mut count = 0u32;
        let mut steps = 0usize;
        for &ri in self.sets[set].recency.iter().rev() {
            if ri == skip {
                continue;
            }
            let r = &self.records[ri as usize];
            // A definite stamp's position lower bound is an access
            // index, so def.0 ≤ last_access ≤ hi rules the rest out.
            if r.last_access <= hi {
                break;
            }
            steps += 1;
            if steps > self.walk_cap {
                break;
            }
            if let Some((lo, commit)) = r.def {
                if lo > hi && u >= commit {
                    count += 1;
                    if count >= self.ways {
                        return count;
                    }
                }
            }
        }
        count
    }

    /// `Some(true)` when no other block possibly installed into the set
    /// at position `lo` or later; `None` when the walk gave up.
    fn no_other_install_after(&self, set: usize, skip: u32, lo: u32) -> Option<bool> {
        let mut steps = 0usize;
        for &ri in self.sets[set].recency.iter().rev() {
            if ri == skip {
                continue;
            }
            let r = &self.records[ri as usize];
            if (r.last_access as u64 + self.window as u64) < lo as u64 {
                break;
            }
            steps += 1;
            if steps > self.walk_cap {
                return None;
            }
            if r.hi_install.is_some_and(|h| h >= lo) {
                return Some(false);
            }
        }
        Some(true)
    }

    fn update(&mut self, block: u64, set: usize, u: u32, installing: bool, class: Classification) {
        let inst_hi = u.saturating_add(self.window);
        let ri = if let Some(&ri) = self.map.get(&block) {
            let r = &mut self.records[ri as usize];
            if r.dropped {
                // Revive with fresh bounds; the pre-drop possibilities
                // live on in the set's pruned caps.
                r.dropped = false;
                r.def = None;
                r.hi_stamp = None;
                r.hi_install = None;
            }
            ri
        } else {
            let ri = self.records.len() as u32;
            self.records.push(BlockRec::new(u));
            self.map.insert(block, ri);
            ri
        };
        let stamps_on_hit = self.rules.stamps_on_hit;
        let r = &mut self.records[ri as usize];
        r.last_access = u;
        match class {
            Classification::MustHit => {
                if stamps_on_hit {
                    // A definite touch: position exactly `u`, committed
                    // immediately.
                    r.def = Some((u, u));
                    r.hi_stamp = max_opt(r.hi_stamp, u);
                }
            }
            Classification::MustMiss => {
                if installing {
                    // A definite install: position in [u, u+window],
                    // committed by `inst_hi`.
                    r.def = Some((u, inst_hi));
                    r.hi_stamp = max_opt(r.hi_stamp, inst_hi);
                    r.hi_install = max_opt(r.hi_install, inst_hi);
                    r.ever_install = true;
                }
                // Write-around store miss: no tag effect at all.
            }
            Classification::Unknown => {
                if installing {
                    r.hi_stamp = max_opt(r.hi_stamp, inst_hi);
                    r.hi_install = max_opt(r.hi_install, inst_hi);
                    r.ever_install = true;
                    if stamps_on_hit {
                        // Either way the block stamps: a hit touches at
                        // `u`, a miss installs by `inst_hi` — so a
                        // definite stamp at position ≥ u exists and has
                        // committed by `inst_hi`. This is the exact
                        // refinement that keeps deterministic tapes
                        // near-fully classified.
                        r.def = Some((u, inst_hi));
                    }
                } else if stamps_on_hit {
                    // Write-around store of unknown outcome: a hit
                    // would touch at `u`, a miss stamps nothing.
                    r.hi_stamp = max_opt(r.hi_stamp, u);
                }
            }
        }
        // Keep the set's recency list ordered by last_access.
        let s = &mut self.sets[set];
        if let Some(p) = s.recency.iter().rposition(|&x| x == ri) {
            s.recency.remove(p);
        }
        s.recency.push(ri);
        while s.recency.len() > self.prune_len {
            let old = s.recency.remove(0);
            let r = &mut self.records[old as usize];
            s.pruned_hi = max_opt2(s.pruned_hi, r.hi_stamp);
            s.pruned_install_hi = max_opt2(s.pruned_install_hi, r.hi_install);
            r.dropped = true;
            r.def = None;
            r.hi_stamp = None;
            r.hi_install = None;
        }
    }
}

/// Walks `tape` once and classifies every memory access under `cfg`.
/// Deterministic and linear-ish in tape length (walks are bounded by a
/// cap derived from associativity and window).
pub fn analyze_tape(tape: &TraceTape, cfg: &OracleConfig) -> OracleAnalysis {
    let mut st = State::new(cfg, SPARE.take());
    let mut classes = Vec::with_capacity((tape.loads() + tape.stores()) as usize);
    let mut coverage = Coverage::default();
    for op in tape.mem_ops() {
        let c = st.step(op.index as u32, op.is_store, op.addr);
        coverage.accesses += 1;
        match c {
            Classification::MustHit => coverage.must_hit += 1,
            Classification::MustMiss => coverage.must_miss += 1,
            Classification::Unknown => coverage.unknown += 1,
        }
        classes.push(c);
    }
    SPARE.set(st.into_buffers());
    OracleAnalysis { classes, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbl_core::geometry::CacheGeometry;
    use nbl_core::inst::DynInst;
    use nbl_core::types::{LoadFormat, PhysReg};

    /// Loads and stores walking a `region`-byte region at `stride` bytes.
    fn strided_tape(stride: u64, len: u64, region: u64) -> TraceTape {
        let mut tape = TraceTape::with_capacity("reuse", 1, 0, len as usize);
        for i in 0..len {
            let addr = Addr((i * stride) % region);
            if i % 3 == 0 {
                tape.push(DynInst::store(addr, None));
            } else {
                tape.push(DynInst::load(addr, PhysReg::int(1), LoadFormat::WORD));
            }
        }
        tape
    }

    /// The per-thread tables carry no state from one analysis into the
    /// next: interleaving two tapes under two geometries on one thread
    /// reproduces what a fresh thread computes for each.
    #[test]
    fn reused_buffers_carry_no_state_between_analyses() {
        let (a, b) = (strided_tape(40, 3000, 1024), strided_tape(72, 2000, 4096));
        let assoc = OracleConfig {
            geometry: CacheGeometry::new(2048, 32, 4).expect("4-way"),
            replacement: ReplacementKind::Lru,
            write_allocate: true,
            window: 16,
        };
        let direct = OracleConfig {
            geometry: CacheGeometry::new(256, 32, 1).expect("direct-mapped"),
            replacement: ReplacementKind::Fifo,
            write_allocate: false,
            window: 0,
        };
        let fresh = |tape: &TraceTape, cfg: &OracleConfig| {
            std::thread::scope(|s| s.spawn(|| analyze_tape(tape, cfg)).join())
                .expect("analysis thread")
        };
        let (want_a, want_b) = (fresh(&a, &assoc), fresh(&b, &direct));
        assert!(want_a.coverage.must_hit > 0 && want_b.coverage.must_miss > 0);
        for _ in 0..2 {
            let got = analyze_tape(&a, &assoc);
            assert_eq!(
                (got.classes, got.coverage),
                (want_a.classes.clone(), want_a.coverage)
            );
            let got = analyze_tape(&b, &direct);
            assert_eq!(
                (got.classes, got.coverage),
                (want_b.classes.clone(), want_b.coverage)
            );
        }
    }
}
