//! `ExecutionEngine::advance` is `step` repeated: after advancing `n`
//! instructions and stepping `m` more, an engine must have reported the
//! same branches, in the same order, as `n + m` calls of `step`, produce
//! the same next `m` instructions, and count the same `executed()`.
//!
//! The programs are every `fdip-fuzz` generator profile plus hand-built
//! images for the engine's recovery paths: fallthrough off the image end,
//! conditional and indirect branches without a behaviour, a return on an
//! empty stack, and call chains deeper than the engine's 256-frame stack.

use fdip_fuzz::{generate, FuzzProfile};
use fdip_program::{BranchBehavior, CodeImage, ExecutionEngine, IndirectSelect, Program};
use fdip_types::{Addr, BranchKind, DynInstr, OpClass, StaticInstr};

const BASE: u64 = 0x1000;
/// Instructions stepped after the advance.
const AFTER: usize = 64;
/// Engine seeds tried on every program.
const SEEDS: [u64; 2] = [1, 0xf0cced];

fn at(slot: u64) -> Addr {
    Addr::new(BASE + 4 * slot)
}

fn op() -> StaticInstr {
    StaticInstr::op(OpClass::Alu)
}

fn branch(kind: BranchKind, target_slot: u64) -> StaticInstr {
    StaticInstr::branch(kind, at(target_slot))
}

fn hand_built(
    name: &str,
    instrs: Vec<StaticInstr>,
    behaviors: Vec<(usize, BranchBehavior)>,
) -> Program {
    let mut slots = vec![None; instrs.len()];
    for (i, b) in behaviors {
        slots[i] = Some(b);
    }
    Program::new(name, CodeImage::new(at(0), instrs), slots, at(0))
}

/// Hand-built programs for the engine's edge cases.
fn edge_programs() -> Vec<Program> {
    vec![
        // A call whose callee falls off the image end: the restart
        // empties the stack, so the return that follows it goes to the
        // entry, not back to the call site.
        hand_built(
            "fallthrough",
            vec![
                branch(BranchKind::CondDirect, 2),
                StaticInstr::branch(BranchKind::Return, Addr::NULL),
                branch(BranchKind::DirectCall, 4),
                op(),
                op(),
                op(),
            ],
            vec![(0, BranchBehavior::Loop { trip: 2 })],
        ),
        // A conditional and an indirect jump and call without a
        // behaviour: never taken, and restart at the entry.
        hand_built(
            "no_behaviour",
            vec![
                op(),
                branch(BranchKind::CondDirect, 0),
                op(),
                StaticInstr::branch(BranchKind::IndirectCall, Addr::NULL),
                op(),
                StaticInstr::branch(BranchKind::IndirectJump, Addr::NULL),
            ],
            vec![],
        ),
        // A return at the entry, with an empty stack.
        hand_built(
            "empty_return",
            vec![
                StaticInstr::branch(BranchKind::Return, Addr::NULL),
                op(),
                op(),
            ],
            vec![],
        ),
        // Recursion 299 calls deep, then the returns: the stack drops
        // its oldest frames past 256, so the outermost returns restart
        // at the entry.
        hand_built(
            "deep_calls",
            vec![
                op(),
                branch(BranchKind::CondDirect, 3),
                branch(BranchKind::DirectJump, 5),
                branch(BranchKind::DirectCall, 0),
                op(),
                StaticInstr::branch(BranchKind::Return, Addr::NULL),
            ],
            vec![(1, BranchBehavior::Loop { trip: 300 })],
        ),
        // Indirect branches with behaviours, between straight-line runs
        // of several lengths, and a final fallthrough off the end.
        hand_built(
            "indirect_runs",
            vec![
                op(),
                op(),
                op(),
                StaticInstr::branch(BranchKind::IndirectJump, Addr::NULL),
                op(),
                StaticInstr::branch(BranchKind::IndirectCall, Addr::NULL),
                op(),
                op(),
                branch(BranchKind::CondDirect, 0),
                op(),
            ],
            vec![
                (
                    3,
                    BranchBehavior::Indirect {
                        targets: vec![at(4), at(6), at(9)],
                        select: IndirectSelect::Random,
                    },
                ),
                (
                    5,
                    BranchBehavior::Indirect {
                        targets: vec![at(0), at(8)],
                        select: IndirectSelect::RoundRobin,
                    },
                ),
                (8, BranchBehavior::Bias { p_taken: 0.5 }),
            ],
        ),
    ]
}

fn fuzz_programs() -> Vec<Program> {
    FuzzProfile::ALL
        .iter()
        .flat_map(|profile| {
            (0..3).map(move |seed| {
                generate(&profile.params(), seed)
                    .emit(&format!("{}_{seed}", profile.name()))
                    .expect("generated programs emit")
            })
        })
        .collect()
}

/// Values of `n` to advance by: none, one, a long run, and the positions
/// around block edges of the reference stream (just before, at and just
/// after each of its first branches, and each restart at the entry).
fn advance_lengths(reference: &[DynInstr], entry: Addr) -> Vec<u64> {
    let mut ns = vec![0, 1, 100_000];
    let mut branches = 0;
    for (i, d) in reference.iter().enumerate() {
        if d.next_pc == entry || (d.is_branch() && branches < 12) {
            let i = i as u64;
            ns.extend([i, i + 1, i + 2]);
        }
        branches += usize::from(d.is_branch());
    }
    ns.sort_unstable();
    ns.dedup();
    ns
}

fn check(program: &Program, seed: u64, n: u64) {
    let mut stepped = ExecutionEngine::new(program, seed);
    let mut want_branches = Vec::new();
    for _ in 0..n {
        let d = stepped.step();
        if d.is_branch() {
            want_branches.push(d);
        }
    }
    let depth_at_n = stepped.stack_depth();
    let want_next: Vec<DynInstr> = (0..AFTER).map(|_| stepped.step()).collect();

    let mut advanced = ExecutionEngine::new(program, seed);
    let mut got_branches = Vec::new();
    advanced.advance(n, |d| got_branches.push(d));
    let name = program.name();
    assert_eq!(advanced.executed(), n, "{name} seed {seed} n {n}");
    assert_eq!(advanced.pc(), want_next[0].pc, "{name} seed {seed} n {n}");
    assert_eq!(
        advanced.stack_depth(),
        depth_at_n,
        "{name} seed {seed} n {n}"
    );
    let got_next: Vec<DynInstr> = (0..AFTER).map(|_| advanced.step()).collect();

    assert_eq!(
        got_branches, want_branches,
        "{name} seed {seed} n {n}: branches"
    );
    assert_eq!(
        got_next, want_next,
        "{name} seed {seed} n {n}: next {AFTER}"
    );
    assert_eq!(
        advanced.executed(),
        stepped.executed(),
        "{name} seed {seed} n {n}"
    );
    assert_eq!(
        advanced.stack_depth(),
        stepped.stack_depth(),
        "{name} seed {seed} n {n}"
    );
}

#[test]
fn advance_matches_repeated_steps() {
    let programs: Vec<Program> = edge_programs().into_iter().chain(fuzz_programs()).collect();
    for program in &programs {
        for seed in SEEDS {
            let reference: Vec<DynInstr> =
                ExecutionEngine::new(program, seed).take(2_000).collect();
            for n in advance_lengths(&reference, program.entry()) {
                check(program, seed, n);
            }
        }
    }
}

#[test]
fn deep_calls_overflow_the_stack_and_fallthrough_restarts() {
    // The hand-built programs reach the paths they are named for.
    let programs = edge_programs();
    let depth = |p: &Program| {
        let mut e = ExecutionEngine::new(p, 1);
        (0..10_000)
            .map(|_| {
                e.step();
                e.stack_depth()
            })
            .max()
            .unwrap_or(0)
    };
    assert_eq!(depth(&programs[3]), 256, "deep_calls");
    let entry = programs[0].entry();
    let restarts = ExecutionEngine::new(&programs[0], 1)
        .take(100)
        .filter(|d| !d.is_branch() && d.next_pc == entry)
        .count();
    assert!(restarts > 0, "fallthrough never fell off the image end");
}
