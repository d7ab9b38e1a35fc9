//! Property-based tests over the core data structures and invariants,
//! exercised through the public API of the workspace crates.

use fdip_bpred::{Btb, BtbConfig, FoldPlan, GlobalHistory, Ras};
use fdip_harness::geomean;
use fdip_mem::{Cache, CacheConfig, FillSrc, Lookup};
use fdip_program::{ExecutionEngine, ProgramBuilder, ProgramParams};
use fdip_sim::{Ftq, FtqEntry};
use fdip_types::{Addr, BranchKind};
use proptest::prelude::*;

proptest! {
    /// Incremental fold maintenance must equal recomputation from the
    /// raw history, for arbitrary push sequences.
    #[test]
    fn folds_match_recompute(pushes in prop::collection::vec((0u64..0x1_0000, 1u32..3), 1..300)) {
        let mut plan = FoldPlan::new();
        for (len, out) in [(7u32, 9u32), (23, 10), (64, 11), (130, 12), (260, 9)] {
            plan.register(len, out);
        }
        let mut h = GlobalHistory::new();
        let mut f = plan.initial();
        for (inject, k) in pushes {
            plan.push(&mut f, &h, inject, k);
            h.push_bits(inject, k);
        }
        prop_assert_eq!(f, plan.recompute(&h));
    }

    /// `GlobalHistory::fold` only depends on the most recent `len` bits.
    #[test]
    fn fold_window_is_respected(
        prefix in prop::collection::vec(any::<bool>(), 0..100),
        suffix in prop::collection::vec(any::<bool>(), 64..100),
    ) {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        for &bit in &prefix {
            a.push_direction(bit);
        }
        // b skips the prefix entirely.
        for &bit in &suffix {
            a.push_direction(bit);
            b.push_direction(bit);
        }
        let len = suffix.len() as u32;
        prop_assert_eq!(a.fold(len, 11), b.fold(len, 11));
    }

    /// The RAS behaves exactly like a depth-bounded stack.
    #[test]
    fn ras_matches_reference_stack(ops in prop::collection::vec(prop::option::of(1u64..1_000_000), 1..200)) {
        let mut ras = Ras::new();
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(v) => {
                    ras.push(Addr::new(v));
                    model.push(v);
                    if model.len() > fdip_bpred::RAS_DEPTH {
                        model.remove(0);
                    }
                }
                None => {
                    let got = ras.pop().map(Addr::raw);
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(ras.len(), model.len());
            prop_assert_eq!(ras.top().map(Addr::raw), model.last().copied());
        }
    }

    /// The BTB never exceeds capacity and always serves the most recent
    /// target for a present branch.
    #[test]
    fn btb_capacity_and_recency(branches in prop::collection::vec((0u64..4096, 0u64..1_000_000), 1..500)) {
        let mut btb = Btb::new(BtbConfig { entries: 64, assoc: 4 });
        let mut last: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (slot, target) in branches {
            let pc = Addr::new(0x1000 + slot * 4);
            btb.insert(pc, BranchKind::CondDirect, Addr::new(0x2000 + target * 4));
            last.insert(pc.raw(), 0x2000 + target * 4);
            prop_assert!(btb.occupancy() <= 64);
            // If still present, the target must be the latest one.
            if let Some(e) = btb.peek(pc) {
                prop_assert_eq!(e.target.raw(), last[&pc.raw()]);
            }
        }
    }

    /// A cache line that was just filled and not since evicted must hit;
    /// occupancy never exceeds capacity.
    #[test]
    fn cache_is_a_bounded_set(lines in prop::collection::vec(0u64..256, 1..400)) {
        let mut c = Cache::new("P", CacheConfig {
            size_bytes: 4096, assoc: 4, line_bytes: 64, hit_latency: 1, mshrs: 8,
        });
        let capacity = 4096 / 64;
        for (t, &line) in lines.iter().enumerate() {
            let now = t as u64 * 10;
            match c.probe_demand(line, now) {
                Lookup::Hit(ready) => prop_assert!(ready >= now),
                Lookup::Miss => c.fill(line, now + 5, FillSrc::Demand),
            }
            // Immediately after a fill/probe the line is present.
            prop_assert!(c.contains(line));
            prop_assert!(c.occupancy() <= capacity);
        }
    }

    /// Any generated program yields a contiguous committed path whose
    /// branches respect their static kinds.
    #[test]
    fn engine_stream_is_well_formed(seed in 0u64..5_000, num_funcs in 8usize..40) {
        let program = ProgramBuilder::new(ProgramParams {
            seed,
            num_funcs,
            ..ProgramParams::default()
        })
        .build("prop");
        let mut eng = ExecutionEngine::new(&program, seed ^ 0xabc);
        let mut prev_next = program.entry();
        for _ in 0..2_000 {
            let d = eng.step();
            prop_assert_eq!(d.pc, prev_next);
            if let Some(kind) = d.kind.branch_kind() {
                if kind.is_unconditional() {
                    prop_assert!(d.taken);
                }
                if kind.is_direct() && d.taken {
                    // Taken direct branches land on their static target.
                    let st = program.image().instr_at(d.pc).kind.static_target();
                    prop_assert_eq!(Some(d.next_pc), st);
                }
            } else {
                prop_assert!(!d.taken);
                prop_assert_eq!(d.next_pc, d.pc.next_instr());
            }
            prev_next = d.next_pc;
        }
    }

    /// The Table III overhead formula: 65 bits per entry.
    #[test]
    fn ftq_overhead_scales_linearly(entries in 1usize..512) {
        prop_assert_eq!(fdip_sim::ftq_overhead_bytes(entries), entries * 65 / 8);
    }

    /// A fold to `out` bits always fits in `out` bits, for any history
    /// content and any registered window.
    #[test]
    fn fold_width_is_bounded(
        pushes in prop::collection::vec((any::<u64>(), 1u32..3), 0..200),
        len in 1u32..512,
        out in 1u32..32,
    ) {
        let mut h = GlobalHistory::new();
        for (inject, k) in pushes {
            h.push_bits(inject, k);
        }
        prop_assert!(h.fold(len, out) < 1u64 << out);
    }

    /// FTQ occupancy never exceeds capacity under arbitrary sequences of
    /// gated pushes, head pops and (partial) flushes, and `free`/`len`/
    /// `is_empty` stay mutually consistent.
    #[test]
    fn ftq_occupancy_is_bounded(
        capacity in 1usize..33,
        ops in prop::collection::vec((0u8..4, 0usize..8), 1..300),
    ) {
        let mut ftq = Ftq::new(capacity);
        for (op, arg) in ops {
            match op {
                // Pushes are gated on free(), as the frontend gates.
                0 | 1 => {
                    if ftq.free() > 0 {
                        ftq.push(FtqEntry::new(Addr::new(0x4000), arg));
                    }
                }
                2 => {
                    ftq.pop_head();
                }
                _ => {
                    if ftq.is_empty() || arg % 2 == 0 {
                        ftq.flush_all();
                        prop_assert!(ftq.is_empty());
                    } else {
                        let idx = arg % ftq.len();
                        ftq.flush_younger_than(idx);
                        prop_assert!(ftq.len() <= idx + 1);
                    }
                }
            }
            prop_assert!(ftq.len() <= ftq.capacity());
            prop_assert_eq!(ftq.free(), ftq.capacity() - ftq.len());
            prop_assert_eq!(ftq.is_empty(), ftq.free() == ftq.capacity());
        }
    }

    /// The suite geomean is order-free (any permutation reachable by
    /// reversal/rotation gives the same value) and sits between the
    /// smallest and largest input.
    #[test]
    fn geomean_is_order_free_and_bounded(
        raw in prop::collection::vec(1u64..10_000, 1..24),
        rot in 0usize..24,
    ) {
        let vals: Vec<f64> = raw.iter().map(|&v| v as f64 / 100.0).collect();
        let g = geomean(&vals);
        let mut rev = vals.clone();
        rev.reverse();
        let mut rotated = vals.clone();
        rotated.rotate_left(rot % vals.len());
        let close = |a: f64, b: f64| ((a - b) / b).abs() < 1e-9;
        prop_assert!(close(geomean(&rev), g));
        prop_assert!(close(geomean(&rotated), g));
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(g >= min * (1.0 - 1e-9));
        prop_assert!(g <= max * (1.0 + 1e-9));
    }
}

/// Simulation results must be identical across runs (full determinism),
/// including under different thread interleavings of the runner.
#[test]
fn simulation_is_deterministic_across_runs() {
    use fdip_program::workload::{Workload, WorkloadFamily};
    use fdip_sim::{run_workload, CoreConfig};
    let program = Workload::family_default("det", WorkloadFamily::Client, 9).build();
    let a = run_workload(&CoreConfig::fdp(), &program, 5_000, 20_000);
    let b = run_workload(&CoreConfig::fdp(), &program, 5_000, 20_000);
    assert_eq!(a, b);
}
