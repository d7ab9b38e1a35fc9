//! Generates synthetic programs: a layered call graph of functions made of
//! basic blocks, with stochastic branch behaviours attached.
//!
//! The generator mirrors the structural properties that make the IPC-1
//! server/client workloads frontend-bound: large static code footprints,
//! frequent calls through a dispatcher, a mix of strongly-biased and mixed
//! conditionals, loops, and indirect jumps/calls.
//!
//! The call graph is layered (a function at level `L` only calls functions
//! at deeper levels), so call/return nesting is bounded and every return
//! has a matching call.

use crate::behavior::{BranchBehavior, IndirectSelect};
use crate::image::{CodeImage, Program};
use fdip_types::{Addr, BranchKind, OpClass, StaticInstr};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Tunable parameters of the synthetic program generator.
///
/// Fractions are probabilities in `[0, 1]`; the terminator-kind fractions
/// (`cond`, `call`, `jump`, `indirect_jump`) are tried in that order and
/// should sum to at most 1 (the remainder becomes plain fallthrough).
#[derive(Clone, Debug)]
pub struct ProgramParams {
    /// RNG seed for the static structure (layout and wiring).
    pub seed: u64,
    /// Number of functions, including the dispatcher (function 0).
    pub num_funcs: usize,
    /// Inclusive range of basic blocks per function.
    pub blocks_per_func: (usize, usize),
    /// Inclusive range of instructions per basic block (including the
    /// terminator slot).
    pub instrs_per_block: (usize, usize),
    /// Number of call-graph levels below the dispatcher.
    pub call_levels: usize,
    /// Probability that a block terminator is a conditional branch.
    pub cond_fraction: f64,
    /// Probability that a block terminator is a function call.
    pub call_fraction: f64,
    /// Probability that a block terminator is a direct jump.
    pub jump_fraction: f64,
    /// Probability that a block terminator is an indirect (switch) jump.
    pub indirect_jump_fraction: f64,
    /// Fraction of calls that are register-indirect.
    pub indirect_call_fraction: f64,
    /// Fraction of conditionals that are strongly biased (p near 0 or 1).
    pub strongly_biased_fraction: f64,
    /// Fraction of conditionals that are loop back-edges.
    pub loop_fraction: f64,
    /// Fraction of conditionals that follow a fixed periodic pattern.
    pub pattern_fraction: f64,
    /// Inclusive range of loop trip counts.
    pub loop_trip: (u32, u32),
    /// Fraction of non-branch instructions that are loads/stores.
    pub mem_fraction: f64,
    /// Number of level-1 functions the dispatcher rotates through.
    pub dispatcher_fanout: usize,
}

impl Default for ProgramParams {
    fn default() -> Self {
        ProgramParams {
            seed: 1,
            num_funcs: 256,
            blocks_per_func: (3, 10),
            instrs_per_block: (3, 9),
            call_levels: 4,
            cond_fraction: 0.45,
            call_fraction: 0.20,
            jump_fraction: 0.08,
            indirect_jump_fraction: 0.04,
            indirect_call_fraction: 0.15,
            strongly_biased_fraction: 0.5,
            loop_fraction: 0.15,
            pattern_fraction: 0.15,
            loop_trip: (3, 24),
            mem_fraction: 0.35,
            dispatcher_fanout: 32,
        }
    }
}

/// Base virtual address at which generated code is laid out.
const CODE_BASE: u64 = 0x0010_0000;

/// Dispatcher block count: enough calls to spread over the footprint.
const DISPATCHER_BLOCKS: usize = 8;

struct FuncPlan {
    level: usize,
    /// Instruction index of each block start.
    block_starts: Vec<usize>,
    /// One-past-the-end instruction index.
    end: usize,
}

impl FuncPlan {
    fn start(&self) -> usize {
        self.block_starts[0]
    }
}

/// Builds a [`Program`] from [`ProgramParams`].
///
/// # Examples
///
/// ```
/// use fdip_program::{ProgramBuilder, ProgramParams};
///
/// let program = ProgramBuilder::new(ProgramParams::default()).build("demo");
/// assert!(program.image().len() > 100);
/// assert!(program.static_branch_count() > 10);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    params: ProgramParams,
}

impl ProgramBuilder {
    /// Creates a builder for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_funcs < 2`, `call_levels == 0`, or a range is empty.
    pub fn new(params: ProgramParams) -> Self {
        assert!(params.num_funcs >= 2, "need a dispatcher and one callee");
        assert!(params.call_levels >= 1, "need at least one call level");
        assert!(
            params.blocks_per_func.0 >= 1 && params.blocks_per_func.0 <= params.blocks_per_func.1,
            "blocks_per_func range must be non-empty"
        );
        assert!(
            params.instrs_per_block.0 >= 1
                && params.instrs_per_block.0 <= params.instrs_per_block.1,
            "instrs_per_block range must be non-empty"
        );
        ProgramBuilder { params }
    }

    /// Generates the program.
    pub fn build(&self, name: &str) -> Program {
        let p = &self.params;
        let mut rng = SmallRng::seed_from_u64(p.seed);

        // Pass A: sizes and layout.
        let mut funcs = Vec::with_capacity(p.num_funcs);
        let mut cursor = 0usize;
        for f in 0..p.num_funcs {
            let level = if f == 0 {
                0
            } else {
                // Spread functions over levels 1..=call_levels; guarantee
                // level 1 has at least `dispatcher_fanout` members by
                // assigning the first functions to level 1.
                if f <= p.dispatcher_fanout.max(1) {
                    1
                } else {
                    rng.gen_range(1..=p.call_levels)
                }
            };
            let nblocks = if f == 0 {
                DISPATCHER_BLOCKS
            } else {
                rng.gen_range(p.blocks_per_func.0..=p.blocks_per_func.1)
            };
            let mut block_starts = Vec::with_capacity(nblocks);
            for _ in 0..nblocks {
                block_starts.push(cursor);
                let sz = rng.gen_range(p.instrs_per_block.0..=p.instrs_per_block.1);
                cursor += sz;
            }
            funcs.push(FuncPlan {
                level,
                block_starts,
                end: cursor,
            });
        }
        let total = cursor;
        let base = Addr::new(CODE_BASE);
        let addr_of = |idx: usize| base + idx as u64 * fdip_types::INSTR_BYTES;

        // Callee pools by level.
        let max_level = p.call_levels;
        let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
        for (i, f) in funcs.iter().enumerate() {
            by_level[f.level].push(i);
        }
        // Decouple the dispatcher's visit order from code layout: real
        // call graphs do not walk functions in address order, and a
        // layout-ordered rotation would degenerate the temporal miss
        // pattern into a sequential one.
        by_level[1].shuffle(&mut rng);

        // Pass B: fill instructions and behaviours.
        let mut instrs = vec![StaticInstr::NOP; total];
        let mut behaviors: Vec<Option<BranchBehavior>> = vec![None; total];

        for (fi, func) in funcs.iter().enumerate() {
            let nblocks = func.block_starts.len();
            for (bi, &bstart) in func.block_starts.iter().enumerate() {
                let bend = if bi + 1 < nblocks {
                    func.block_starts[bi + 1]
                } else {
                    func.end
                };
                // Body: everything except the final (terminator) slot.
                for instr in &mut instrs[bstart..bend.saturating_sub(1)] {
                    *instr = StaticInstr::op(self.sample_op_class(&mut rng));
                }
                let term = bend - 1;
                let is_last_block = bi + 1 == nblocks;
                let (instr, behavior) = if is_last_block {
                    if fi == 0 {
                        // Dispatcher loops forever.
                        (
                            StaticInstr::branch(BranchKind::DirectJump, addr_of(func.start())),
                            None,
                        )
                    } else {
                        (StaticInstr::branch(BranchKind::Return, Addr::NULL), None)
                    }
                } else if fi == 0 {
                    // Dispatcher blocks call level-1 functions, rotating
                    // over the whole fanout via round-robin indirect calls.
                    self.dispatcher_call(&mut rng, bi, &funcs, &by_level, addr_of)
                } else {
                    self.block_terminator(&mut rng, func, bi, fi, &funcs, &by_level, addr_of)
                };
                instrs[term] = instr;
                behaviors[term] = behavior;
            }
        }

        let entry = addr_of(funcs[0].start());
        Program::new(name, CodeImage::new(base, instrs), behaviors, entry)
    }

    fn sample_op_class(&self, rng: &mut SmallRng) -> OpClass {
        let p = &self.params;
        if rng.gen_bool(p.mem_fraction) {
            if rng.gen_bool(0.65) {
                OpClass::Load
            } else {
                OpClass::Store
            }
        } else if rng.gen_bool(0.08) {
            OpClass::Mul
        } else if rng.gen_bool(0.05) {
            OpClass::Fp
        } else {
            OpClass::Alu
        }
    }

    fn dispatcher_call(
        &self,
        _rng: &mut SmallRng,
        site: usize,
        funcs: &[FuncPlan],
        by_level: &[Vec<usize>],
        addr_of: impl Fn(usize) -> Addr,
    ) -> (StaticInstr, Option<BranchBehavior>) {
        let pool = &by_level[1];
        let fanout = self.params.dispatcher_fanout.clamp(1, pool.len());
        // Each dispatcher call site starts its rotation at a different
        // phase, so one pass through the dispatcher touches a spread of
        // handlers and the full working set revisits quickly — the
        // recurring, temporally-correlated miss stream of a request
        // loop.
        let phase = site * fanout / DISPATCHER_BLOCKS;
        let targets: Vec<Addr> = (0..fanout)
            .map(|i| addr_of(funcs[pool[(i + phase) % fanout]].start()))
            .collect();
        if targets.len() == 1 {
            return (
                StaticInstr::branch(BranchKind::DirectCall, targets[0]),
                None,
            );
        }
        (
            StaticInstr::branch(BranchKind::IndirectCall, Addr::NULL),
            // The dispatcher rotates through its handlers like a server
            // working a request loop: this gives the miss stream the
            // temporal correlation real frontend traces have (which
            // temporal prefetchers such as EIP/MMA/D-JOLT exploit).
            Some(BranchBehavior::Indirect {
                targets,
                select: IndirectSelect::RoundRobin,
            }),
        )
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "one call site passes the builder's loop state through; a struct would \
                  only rename it"
    )]
    fn block_terminator(
        &self,
        rng: &mut SmallRng,
        func: &FuncPlan,
        bi: usize,
        fi: usize,
        funcs: &[FuncPlan],
        by_level: &[Vec<usize>],
        addr_of: impl Fn(usize) -> Addr + Copy,
    ) -> (StaticInstr, Option<BranchBehavior>) {
        let p = &self.params;
        let later: Vec<Addr> = func.block_starts[bi + 1..]
            .iter()
            .map(|&s| addr_of(s))
            .collect();
        let earlier: Vec<Addr> = func.block_starts[..=bi]
            .iter()
            .map(|&s| addr_of(s))
            .collect();
        let roll: f64 = rng.gen();
        let cond_cut = p.cond_fraction;
        let call_cut = cond_cut + p.call_fraction;
        let jump_cut = call_cut + p.jump_fraction;
        let ind_cut = jump_cut + p.indirect_jump_fraction;

        if roll < cond_cut {
            self.conditional(rng, &later, &earlier)
        } else if roll < call_cut {
            self.call_terminator(rng, fi, funcs, by_level, addr_of)
        } else if roll < jump_cut && !later.is_empty() {
            let t = later[rng.gen_range(0..later.len())];
            (StaticInstr::branch(BranchKind::DirectJump, t), None)
        } else if roll < ind_cut && later.len() >= 2 {
            let n = rng.gen_range(2..=later.len().min(8));
            let targets: Vec<Addr> = (0..n)
                .map(|_| later[rng.gen_range(0..later.len())])
                .collect();
            let select = if rng.gen_bool(0.5) {
                IndirectSelect::RoundRobin
            } else {
                IndirectSelect::Sticky { switch_prob: 0.1 }
            };
            (
                StaticInstr::branch(BranchKind::IndirectJump, Addr::NULL),
                Some(BranchBehavior::Indirect { targets, select }),
            )
        } else {
            // Plain fallthrough into the next block.
            (StaticInstr::op(self.sample_op_class(rng)), None)
        }
    }

    fn call_terminator(
        &self,
        rng: &mut SmallRng,
        fi: usize,
        funcs: &[FuncPlan],
        by_level: &[Vec<usize>],
        addr_of: impl Fn(usize) -> Addr,
    ) -> (StaticInstr, Option<BranchBehavior>) {
        let level = funcs[fi].level;
        // Collect callable functions strictly deeper in the call graph.
        let deeper: Vec<usize> = by_level[level + 1..].iter().flatten().copied().collect();
        if deeper.is_empty() {
            // Leaf-level function: nothing to call, degrade to a plain op.
            return (StaticInstr::op(self.sample_op_class(rng)), None);
        }
        let indirect = rng.gen_bool(self.params.indirect_call_fraction) && deeper.len() >= 2;
        if indirect {
            let n = rng.gen_range(2..=deeper.len().min(6));
            let targets: Vec<Addr> = (0..n)
                .map(|_| addr_of(funcs[deeper[rng.gen_range(0..deeper.len())]].start()))
                .collect();
            (
                StaticInstr::branch(BranchKind::IndirectCall, Addr::NULL),
                Some(BranchBehavior::Indirect {
                    targets,
                    select: IndirectSelect::Sticky { switch_prob: 0.08 },
                }),
            )
        } else {
            let callee = deeper[rng.gen_range(0..deeper.len())];
            (
                StaticInstr::branch(BranchKind::DirectCall, addr_of(funcs[callee].start())),
                None,
            )
        }
    }

    fn conditional(
        &self,
        rng: &mut SmallRng,
        later: &[Addr],
        earlier: &[Addr],
    ) -> (StaticInstr, Option<BranchBehavior>) {
        let p = &self.params;
        let make_loop = rng.gen_bool(p.loop_fraction) && !earlier.is_empty();
        if make_loop {
            let t = earlier[rng.gen_range(0..earlier.len())];
            let trip = rng.gen_range(p.loop_trip.0.max(1)..=p.loop_trip.1.max(p.loop_trip.0 + 1));
            return (
                StaticInstr::branch(BranchKind::CondDirect, t),
                Some(BranchBehavior::Loop { trip }),
            );
        }
        if later.is_empty() {
            // Nothing ahead to branch to: degrade to a plain op.
            return (StaticInstr::op(OpClass::Alu), None);
        }
        let t = later[rng.gen_range(0..later.len())];
        let behavior = if rng.gen_bool(p.strongly_biased_fraction) {
            let p_taken = if rng.gen_bool(0.5) {
                rng.gen_range(0.0..0.012)
            } else {
                rng.gen_range(0.988..1.0)
            };
            BranchBehavior::Bias { p_taken }
        } else if rng.gen_bool(p.pattern_fraction) {
            let len = rng.gen_range(2..=12u8);
            let bits: u64 = rng.gen::<u64>() & ((1u64 << len) - 1);
            BranchBehavior::Pattern { bits, len }
        } else {
            BranchBehavior::Bias {
                p_taken: rng.gen_range(0.25..0.75),
            }
        };
        (
            StaticInstr::branch(BranchKind::CondDirect, t),
            Some(behavior),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_types::InstrKind;

    fn small_params(seed: u64) -> ProgramParams {
        ProgramParams {
            seed,
            num_funcs: 24,
            ..ProgramParams::default()
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = ProgramBuilder::new(small_params(7)).build("a");
        let b = ProgramBuilder::new(small_params(7)).build("b");
        assert_eq!(a.image().len(), b.image().len());
        for i in 0..a.image().len() {
            let addr = a.image().addr_of(i);
            assert_eq!(a.image().instr_at(addr), b.image().instr_at(addr));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramBuilder::new(small_params(7)).build("a");
        let b = ProgramBuilder::new(small_params(8)).build("b");
        let same = a.image().len() == b.image().len()
            && (0..a.image().len()).all(|i| {
                a.image().instr_at(a.image().addr_of(i)) == b.image().instr_at(b.image().addr_of(i))
            });
        assert!(!same, "seeds 7 and 8 produced identical programs");
    }

    #[test]
    fn every_direct_branch_targets_mapped_code() {
        let p = ProgramBuilder::new(small_params(3)).build("t");
        let img = p.image();
        for i in 0..img.len() {
            let a = img.addr_of(i);
            if let InstrKind::Branch { kind, target } = img.instr_at(a).kind {
                if kind.is_direct() {
                    assert!(
                        img.contains(target),
                        "branch at {a} targets unmapped {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_indirect_branch_has_behavior_with_mapped_targets() {
        let p = ProgramBuilder::new(small_params(5)).build("t");
        let img = p.image();
        for i in 0..img.len() {
            let a = img.addr_of(i);
            if let InstrKind::Branch { kind, .. } = img.instr_at(a).kind {
                if kind.is_indirect() {
                    let b = p.behavior_at(a).expect("indirect branch missing behaviour");
                    match b {
                        BranchBehavior::Indirect { targets, .. } => {
                            assert!(!targets.is_empty());
                            for t in targets {
                                assert!(img.contains(*t));
                            }
                        }
                        other => panic!("indirect branch with behaviour {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_conditional_has_direction_behavior() {
        let p = ProgramBuilder::new(small_params(9)).build("t");
        let img = p.image();
        for i in 0..img.len() {
            let a = img.addr_of(i);
            if img.instr_at(a).kind.branch_kind() == Some(BranchKind::CondDirect) {
                let b = p.behavior_at(a).expect("conditional missing behaviour");
                assert!(!b.is_indirect());
            }
        }
    }

    #[test]
    fn entry_is_a_dispatcher_that_loops() {
        let p = ProgramBuilder::new(small_params(11)).build("t");
        // The dispatcher's last block ends with a direct jump back to the
        // entry, so the program never "ends".
        let img = p.image();
        let mut found_loopback = false;
        for i in 0..img.len() {
            let a = img.addr_of(i);
            if let InstrKind::Branch {
                kind: BranchKind::DirectJump,
                target,
            } = img.instr_at(a).kind
            {
                if target == p.entry() {
                    found_loopback = true;
                }
            }
        }
        assert!(found_loopback);
    }

    #[test]
    fn footprint_scales_with_num_funcs() {
        let small = ProgramBuilder::new(small_params(1)).build("s");
        let big = ProgramBuilder::new(ProgramParams {
            seed: 1,
            num_funcs: 200,
            ..ProgramParams::default()
        })
        .build("b");
        assert!(big.image().footprint_bytes() > 4 * small.image().footprint_bytes());
    }

    #[test]
    #[should_panic(expected = "need a dispatcher")]
    fn rejects_too_few_funcs() {
        let _ = ProgramBuilder::new(ProgramParams {
            num_funcs: 1,
            ..ProgramParams::default()
        });
    }
}
