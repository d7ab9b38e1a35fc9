//! Backend building blocks: the in-flight instruction record,
//! unresolved-branch records, and the synthetic data-address generator
//! for the load/store stream.

use crate::ftq::BranchId;
use fdip_types::{Addr, BranchKind, Cycle};

/// An instruction from fetch to retirement. It is written once, at
/// fetch, into the simulator's in-flight ring: it sits in the decode
/// queue until dispatch stamps `complete_at` and hands its branch record
/// on, and then in the ROB until it retires.
#[derive(Copy, Clone, Debug)]
pub struct InFlight {
    /// Monotonic fetch id (program order).
    pub id: u64,
    /// Program counter.
    pub pc: Addr,
    /// Pre-decoded dense kind tag (see [`crate::meta`]).
    pub tag: u8,
    /// Committed-path sequence number, if on the correct path.
    pub seq: Option<u64>,
    /// Branch speculation record in the simulator's slab (actual
    /// branches, until dispatch).
    pub branch: Option<BranchId>,
    /// Cycle at which execution completes (set at dispatch).
    pub complete_at: Cycle,
}

/// A dispatched correct-path branch awaiting execute-time resolution.
///
/// Branch execute latency is constant, so records are naturally sorted
/// by `resolve_at` in dispatch order.
#[derive(Copy, Clone, Debug)]
pub struct UnresolvedBranch {
    /// Fetch id (program order).
    pub id: u64,
    /// Cycle at which the branch resolves.
    pub resolve_at: Cycle,
    /// Branch address.
    pub pc: Addr,
    /// Committed-path sequence number.
    pub seq: u64,
    /// Actual branch kind.
    pub kind: BranchKind,
    /// Speculation record carried from prediction (possibly updated by
    /// PFC), in the simulator's slab.
    pub rec: BranchId,
}

/// Deterministic synthetic data-address generator.
///
/// The IPC-1 traces carry real load/store addresses; the synthetic
/// programs do not, so each static memory instruction gets a
/// deterministic pseudo-random address stream over a two-level working
/// set (a hot region that mostly fits in the L1D plus a large cold
/// region), giving the backend a realistic mix of data-cache hits and
/// misses.
#[derive(Clone, Debug)]
pub struct DataAddressGen {
    /// Per-static-instruction occurrence counters.
    counters: Vec<u32>,
    hot_bytes: u64,
    total_bytes: u64,
    hot_pct: u8,
}

/// Base virtual address of the synthetic data segment.
const DATA_BASE: u64 = 0x4000_0000;

impl DataAddressGen {
    /// Creates a generator for a program with `image_len` static
    /// instructions.
    pub fn new(image_len: usize, hot_bytes: u64, total_bytes: u64, hot_pct: u8) -> Self {
        DataAddressGen {
            counters: vec![0; image_len],
            hot_bytes: hot_bytes.max(64),
            total_bytes: total_bytes.max(128),
            hot_pct: hot_pct.min(100),
        }
    }

    /// Next data line number for the memory instruction at image slot
    /// `instr_idx`.
    pub fn next_line(&mut self, instr_idx: usize) -> u64 {
        let n = &mut self.counters[instr_idx];
        *n = n.wrapping_add(1);
        let mut x = (instr_idx as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(*n as u64);
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 32;
        let addr = if (x % 100) < self.hot_pct as u64 {
            DATA_BASE + x % self.hot_bytes
        } else {
            DATA_BASE + self.hot_bytes + x % (self.total_bytes - self.hot_bytes)
        };
        addr / 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_gen_is_deterministic() {
        let mut a = DataAddressGen::new(100, 32 * 1024, 1024 * 1024, 90);
        let mut b = DataAddressGen::new(100, 32 * 1024, 1024 * 1024, 90);
        for i in 0..500 {
            assert_eq!(a.next_line(i % 100), b.next_line(i % 100));
        }
    }

    #[test]
    fn hot_region_dominates() {
        let hot = 32 * 1024u64;
        let mut g = DataAddressGen::new(10, hot, 8 * 1024 * 1024, 90);
        let hot_lines = (DATA_BASE + hot) / 64;
        let in_hot = (0..10_000)
            .filter(|i| g.next_line(i % 10) < hot_lines)
            .count();
        assert!(in_hot > 8_000, "{in_hot}");
        assert!(in_hot < 9_800, "{in_hot}");
    }

    #[test]
    fn occurrences_vary_per_instruction() {
        let mut g = DataAddressGen::new(4, 64 * 1024, 1024 * 1024, 50);
        let l1 = g.next_line(0);
        let l2 = g.next_line(0);
        // Same static instruction, different occurrences -> (almost
        // always) different lines.
        assert_ne!(l1, l2);
    }
}
