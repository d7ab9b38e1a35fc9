//! The execution engine: walks a [`Program`] and yields the committed-path
//! dynamic instruction stream.

use crate::behavior::BranchState;
use crate::image::Program;
use fdip_types::{Addr, BranchKind, DynInstr, InstrKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Maximum call-stack depth the engine tracks; deeper calls drop the
/// oldest frame (matching a finite hardware RAS's eventual behaviour and
/// keeping memory bounded).
const MAX_STACK_DEPTH: usize = 256;

/// Deterministic interpreter over a synthetic [`Program`].
///
/// Given the same program and seed, the engine always produces the same
/// committed instruction stream. It never terminates on its own (generated
/// programs loop through their dispatcher forever); callers take as many
/// instructions as they need.
///
/// # Examples
///
/// ```
/// use fdip_program::{ProgramBuilder, ProgramParams, ExecutionEngine};
///
/// let program = ProgramBuilder::new(ProgramParams::default()).build("demo");
/// let stream: Vec<_> = ExecutionEngine::new(&program, 42).take(100).collect();
/// assert_eq!(stream.len(), 100);
/// // Committed path is contiguous: each next_pc is the next pc.
/// for w in stream.windows(2) {
///     assert_eq!(w[0].next_pc, w[1].pc);
/// }
/// ```
#[derive(Debug)]
pub struct ExecutionEngine<'a> {
    program: &'a Program,
    pc: Addr,
    ret_stack: Vec<Addr>,
    rng: SmallRng,
    states: Vec<BranchState>,
    executed: u64,
}

impl<'a> ExecutionEngine<'a> {
    /// Creates an engine at the program entry point.
    pub fn new(program: &'a Program, seed: u64) -> Self {
        ExecutionEngine {
            program,
            pc: program.entry(),
            ret_stack: Vec::with_capacity(MAX_STACK_DEPTH),
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_f00d),
            states: vec![BranchState::default(); program.image().len()],
            executed: 0,
        }
    }

    /// Current program counter (address of the next instruction to issue).
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Current call-stack depth.
    pub fn stack_depth(&self) -> usize {
        self.ret_stack.len()
    }

    /// Executes one instruction and returns it.
    pub fn step(&mut self) -> DynInstr {
        let image = self.program.image();
        let idx = self.slot();
        let pc = self.pc;
        let si = image.instrs()[idx];

        let (taken, next_pc) = match si.kind {
            InstrKind::Op(_) => (false, pc.next_instr()),
            InstrKind::Branch { kind, target } => match kind {
                BranchKind::CondDirect => {
                    let taken = match self.program.behavior_by_index(idx) {
                        Some(b) => b.decide_direction(&mut self.states[idx], &mut self.rng),
                        // Behaviour-less conditional: treat as never taken.
                        None => false,
                    };
                    (taken, if taken { target } else { pc.next_instr() })
                }
                BranchKind::DirectJump => (true, target),
                BranchKind::DirectCall => {
                    self.push_return(pc.next_instr());
                    (true, target)
                }
                BranchKind::IndirectJump => (true, self.indirect_target(idx)),
                BranchKind::IndirectCall => {
                    self.push_return(pc.next_instr());
                    (true, self.indirect_target(idx))
                }
                BranchKind::Return => {
                    let t = self.ret_stack.pop().unwrap_or(self.program.entry());
                    (true, t)
                }
            },
        };

        let next_pc = if image.contains(next_pc) {
            next_pc
        } else {
            // Fell off the mapped range (e.g. fallthrough at image end):
            // restart at the dispatcher.
            self.ret_stack.clear();
            self.program.entry()
        };

        self.pc = next_pc;
        self.executed += 1;
        DynInstr {
            pc,
            kind: si.kind,
            taken,
            next_pc,
        }
    }

    /// Executes `n` instructions exactly as `n` calls of
    /// [`step`](Self::step) would, passing only the branches to
    /// `on_branch`, in order.
    ///
    /// A non-branch instruction changes nothing but the program counter
    /// and the executed count, so each straight-line run is skipped in one
    /// step, found by scanning the image from `pc`; every branch goes
    /// through `step` itself.
    pub fn advance(&mut self, n: u64, mut on_branch: impl FnMut(DynInstr)) {
        let image = self.program.image();
        let mut left = n;
        while left > 0 {
            let idx = self.slot();
            let ahead = &image.instrs()[idx..];
            let cap = usize::try_from(left).map_or(ahead.len(), |l| l.min(ahead.len()));
            let run = ahead[..cap]
                .iter()
                .position(|si| si.kind.is_branch())
                .unwrap_or(cap);
            if run == 0 {
                on_branch(self.step());
                left -= 1;
                continue;
            }
            self.executed += run as u64;
            left -= run as u64;
            if run < ahead.len() {
                self.pc = image.addr_of(idx + run);
            } else {
                // The run fell off the image end: restart at the
                // dispatcher, as `step` does.
                self.ret_stack.clear();
                self.pc = self.program.entry();
            }
        }
    }

    /// Image slot of `pc`. An unmapped `pc` (which a well-formed program
    /// never produces) restarts the program at its entry.
    fn slot(&mut self) -> usize {
        let image = self.program.image();
        if let Some(idx) = image.index_of(self.pc) {
            return idx;
        }
        self.pc = self.program.entry();
        self.ret_stack.clear();
        image.index_of(self.pc).expect("the entry is mapped")
    }

    fn push_return(&mut self, ra: Addr) {
        if self.ret_stack.len() >= MAX_STACK_DEPTH {
            self.ret_stack.remove(0);
        }
        self.ret_stack.push(ra);
    }

    fn indirect_target(&mut self, idx: usize) -> Addr {
        match self.program.behavior_by_index(idx) {
            Some(b) if b.is_indirect() => b.decide_target(&mut self.states[idx], &mut self.rng),
            // Behaviour-less indirect: restart the program.
            _ => self.program.entry(),
        }
    }
}

impl Iterator for ExecutionEngine<'_> {
    type Item = DynInstr;

    fn next(&mut self) -> Option<DynInstr> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProgramBuilder, ProgramParams};
    use crate::image::CodeImage;
    use fdip_types::{OpClass, StaticInstr};
    use std::collections::BTreeSet;

    fn demo_program(seed: u64) -> Program {
        ProgramBuilder::new(ProgramParams {
            seed,
            num_funcs: 32,
            ..ProgramParams::default()
        })
        .build("demo")
    }

    #[test]
    fn committed_path_is_contiguous() {
        let p = demo_program(1);
        let stream: Vec<DynInstr> = ExecutionEngine::new(&p, 9).take(20_000).collect();
        for w in stream.windows(2) {
            assert_eq!(w[0].next_pc, w[1].pc, "gap after {}", w[0]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = demo_program(2);
        let a: Vec<DynInstr> = ExecutionEngine::new(&p, 5).take(5_000).collect();
        let b: Vec<DynInstr> = ExecutionEngine::new(&p, 5).take(5_000).collect();
        assert_eq!(a, b);
        let c: Vec<DynInstr> = ExecutionEngine::new(&p, 6).take(5_000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn non_branches_are_never_taken() {
        let p = demo_program(3);
        for d in ExecutionEngine::new(&p, 1).take(10_000) {
            if !d.is_branch() {
                assert!(!d.taken);
                assert_eq!(d.next_pc, d.pc.next_instr());
            }
        }
    }

    #[test]
    fn unconditional_branches_are_always_taken() {
        let p = demo_program(4);
        for d in ExecutionEngine::new(&p, 1).take(10_000) {
            if let InstrKind::Branch { kind, .. } = d.kind {
                if kind.is_unconditional() {
                    assert!(d.taken, "{d}");
                }
            }
        }
    }

    #[test]
    fn calls_and_returns_nest() {
        let p = demo_program(5);
        let mut eng = ExecutionEngine::new(&p, 1);
        let mut stack: Vec<Addr> = Vec::new();
        for _ in 0..50_000 {
            let d = eng.step();
            if let InstrKind::Branch { kind, .. } = d.kind {
                if kind.is_call() {
                    stack.push(d.pc.next_instr());
                } else if kind.is_return() {
                    if let Some(expect) = stack.pop() {
                        assert_eq!(d.next_pc, expect, "return to wrong site at {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn touches_a_wide_footprint() {
        let p = demo_program(6);
        let lines: BTreeSet<u64> = ExecutionEngine::new(&p, 1)
            .take(100_000)
            .map(|d| d.pc.line_number())
            .collect();
        // The dispatcher rotates through many functions, so the dynamic
        // footprint should span a significant part of the image.
        let total_lines = p.image().footprint_bytes() / 64;
        assert!(
            lines.len() as u64 > total_lines / 4,
            "touched {} of {} lines",
            lines.len(),
            total_lines
        );
    }

    #[test]
    fn stack_depth_is_bounded() {
        let p = demo_program(7);
        let mut eng = ExecutionEngine::new(&p, 1);
        for _ in 0..100_000 {
            eng.step();
            assert!(eng.stack_depth() <= MAX_STACK_DEPTH);
        }
    }

    #[test]
    fn executed_counts_steps() {
        let p = demo_program(8);
        let mut eng = ExecutionEngine::new(&p, 1);
        for i in 0..100 {
            assert_eq!(eng.executed(), i);
            eng.step();
        }
    }

    #[test]
    fn recovers_from_fallthrough_off_image_end() {
        // Hand-build a pathological program: a single op at the end of the
        // image with no terminator; the engine must restart at the entry.
        let img = CodeImage::new(
            Addr::new(0x1000),
            vec![StaticInstr::op(OpClass::Alu), StaticInstr::op(OpClass::Alu)],
        );
        let p = Program::new("edge", img, vec![None, None], Addr::new(0x1000));
        let mut eng = ExecutionEngine::new(&p, 1);
        let d0 = eng.step();
        let d1 = eng.step();
        let d2 = eng.step();
        assert_eq!(d0.pc, Addr::new(0x1000));
        assert_eq!(d1.pc, Addr::new(0x1004));
        // Fallthrough off the end restarts at entry.
        assert_eq!(d1.next_pc, Addr::new(0x1000));
        assert_eq!(d2.pc, Addr::new(0x1000));
    }
}
