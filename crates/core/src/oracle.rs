//! The committed-path oracle: a sliding window over the execution
//! engine's dynamic instruction stream, addressed by sequence number.
//!
//! The frontend consults it to tag predicted slots as on/off the correct
//! path, execute-time resolution reads actual branch outcomes from it,
//! and the retire stage releases consumed entries.
//!
//! The window is a power-of-two ring buffer: the slot of sequence `s` is
//! always `s & mask`, so lookups are one mask away from the backing
//! array, release is O(1) bookkeeping, and the buffer only grows
//! (doubling) on the rare occasion in-flight work exceeds its capacity.

use fdip_program::ExecutionEngine;
use fdip_types::{Addr, DynInstr, InstrKind};

/// Filler for never-read ring slots.
const DUMMY: DynInstr = DynInstr {
    pc: Addr::NULL,
    kind: InstrKind::Op(fdip_types::OpClass::Alu),
    taken: false,
    next_pc: Addr::NULL,
};

/// Sliding window over the committed instruction stream.
///
/// # Examples
///
/// ```
/// use fdip_program::{ExecutionEngine, ProgramBuilder, ProgramParams};
/// use fdip_sim::oracle::Oracle;
///
/// let program = ProgramBuilder::new(ProgramParams::default()).build("p");
/// let mut oracle = Oracle::new(ExecutionEngine::new(&program, 1));
/// let first = *oracle.get(0);
/// assert_eq!(first.pc, program.entry());
/// let fourth = *oracle.get(4);
/// assert_eq!(oracle.get(5).pc, fourth.next_pc);
/// ```
#[derive(Debug)]
pub struct Oracle<'p> {
    engine: ExecutionEngine<'p>,
    /// Ring storage; capacity is a power of two.
    buf: Vec<DynInstr>,
    mask: u64,
    /// Sequence number of the oldest retained instruction.
    base: u64,
    /// Retained instructions: sequences `base .. base + len`.
    len: u64,
}

impl<'p> Oracle<'p> {
    /// Wraps an execution engine positioned at its entry point.
    pub fn new(engine: ExecutionEngine<'p>) -> Self {
        let cap = 1024usize;
        Oracle {
            engine,
            buf: vec![DUMMY; cap],
            mask: cap as u64 - 1,
            base: 0,
            len: 0,
        }
    }

    /// Doubles the ring, re-homing every retained instruction to its
    /// slot under the new mask.
    #[cold]
    fn grow(&mut self) {
        let new_cap = self.buf.len() * 2;
        let new_mask = new_cap as u64 - 1;
        let mut new_buf = vec![DUMMY; new_cap];
        for seq in self.base..self.base + self.len {
            new_buf[(seq & new_mask) as usize] = self.buf[(seq & self.mask) as usize];
        }
        self.buf = new_buf;
        self.mask = new_mask;
    }

    /// The committed instruction with sequence number `seq`, generating
    /// the stream as needed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was already released.
    #[inline]
    pub fn get(&mut self, seq: u64) -> &DynInstr {
        assert!(seq >= self.base, "sequence {seq} already released");
        if self.base + self.len <= seq {
            self.generate_to(seq);
        }
        &self.buf[(seq & self.mask) as usize]
    }

    /// Runs the engine until `seq` is in the window. Out of line so the
    /// common already-generated case inlines to a compare and a load.
    #[inline(never)]
    fn generate_to(&mut self, seq: u64) {
        while self.base + self.len <= seq {
            if self.len > self.mask {
                self.grow();
            }
            let i = ((self.base + self.len) & self.mask) as usize;
            self.buf[i] = self.engine.step();
            self.len += 1;
        }
    }

    /// Releases all instructions with sequence numbers below `seq`
    /// (called as instructions retire).
    #[inline]
    pub fn release_below(&mut self, seq: u64) {
        if seq > self.base {
            let n = (seq - self.base).min(self.len);
            self.base += n;
            self.len -= n;
        }
    }

    /// Current window size (bounded by in-flight work).
    pub fn window_len(&self) -> usize {
        self.len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_program::{ProgramBuilder, ProgramParams};

    fn params() -> ProgramParams {
        ProgramParams {
            seed: 3,
            num_funcs: 16,
            ..ProgramParams::default()
        }
    }

    #[test]
    fn stream_is_contiguous_and_stable() {
        let p = ProgramBuilder::new(params()).build("p");
        let mut o = Oracle::new(ExecutionEngine::new(&p, 7));
        let d10 = *o.get(10);
        let d11 = *o.get(11);
        assert_eq!(d10.next_pc, d11.pc);
        // Re-reading gives the same instruction.
        assert_eq!(*o.get(10), d10);
    }

    #[test]
    fn release_advances_base() {
        let p = ProgramBuilder::new(params()).build("p");
        let mut o = Oracle::new(ExecutionEngine::new(&p, 7));
        o.get(100);
        assert_eq!(o.window_len(), 101);
        o.release_below(50);
        assert_eq!(o.window_len(), 51);
        // Still addressable above the release point.
        o.get(50);
        o.get(100);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn reading_released_seq_panics() {
        let p = ProgramBuilder::new(params()).build("p");
        let mut o = Oracle::new(ExecutionEngine::new(&p, 7));
        o.get(10);
        o.release_below(5);
        o.get(3);
    }

    #[test]
    fn window_grows_past_initial_capacity_without_losing_entries() {
        let p = ProgramBuilder::new(params()).build("p");
        let mut o = Oracle::new(ExecutionEngine::new(&p, 7));
        // Hold everything (no release) well past the 1024 initial ring.
        let last = 10_000u64;
        let d0 = *o.get(0);
        o.get(last);
        assert_eq!(o.window_len() as u64, last + 1);
        // Old and new entries both intact, stream still contiguous.
        assert_eq!(*o.get(0), d0);
        for seq in [1u64, 4095, 4096, 4097, 9_999] {
            let next_pc = o.get(seq).next_pc;
            assert_eq!(next_pc, o.get(seq + 1).pc, "seq {seq}");
        }
    }

    #[test]
    fn release_beyond_generated_is_clamped() {
        let p = ProgramBuilder::new(params()).build("p");
        let mut o = Oracle::new(ExecutionEngine::new(&p, 7));
        o.get(10);
        o.release_below(1_000);
        // Only the 11 generated instructions could be released.
        assert_eq!(o.window_len(), 0);
        // The stream continues from where generation stopped.
        o.get(11);
        assert_eq!(o.window_len(), 1);
    }
}
