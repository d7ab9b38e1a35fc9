//! The Fetch Target Queue (§IV-A) — the one structure FDP adds.
//!
//! Each entry covers (part of) a 32-byte aligned instruction block, so
//! all of its instructions fall in one I-cache line. The entry layout
//! follows the paper's Table III exactly; [`ftq_overhead_bytes`] computes
//! the 195-byte total for the 24-entry baseline from the field widths.

use crate::hist::HistState;
use fdip_bpred::{IttagePrediction, TagePrediction};
use fdip_types::{Addr, BranchKind, Cycle};
use std::collections::VecDeque;

/// Field widths of one FTQ entry in bits (Table III).
pub const FTQ_FIELD_BITS: [(&str, u32); 6] = [
    ("Start address", 48),
    ("Block predicted taken", 1),
    ("Block termination offset", 3),
    ("I-cache way", 3),
    ("State", 2),
    ("Direction hint", 8),
];

/// Hardware overhead of an `entries`-deep FTQ in bytes (Table III: 195
/// bytes for 24 entries).
pub fn ftq_overhead_bytes(entries: usize) -> usize {
    let bits_per_entry: u32 = FTQ_FIELD_BITS.iter().map(|&(_, b)| b).sum();
    entries * bits_per_entry as usize / 8
}

/// Per-branch speculation record attached to an FTQ entry slot.
///
/// Created at prediction time for every slot the code image identifies as
/// an actual branch (detected by the BTB or not), so that execute-time
/// resolution, PFC, and history fixup all have a checkpoint to restore.
/// The checkpoint makes a record several hundred bytes, so it is written
/// once into a slab the simulator owns and travels by [`BranchId`]
/// through the FTQ entry, the decode queue and the unresolved list.
#[derive(Clone, Debug)]
pub struct SlotBranch {
    /// Actual branch kind (from pre-decode / the code image).
    pub kind: BranchKind,
    /// History/RAS state *before* this branch's speculative effects.
    pub ckpt: HistState,
    /// TAGE metadata from prediction time.
    pub tage_pred: TagePrediction,
    /// ITTAGE metadata from prediction time (indirect branches).
    pub itt_pred: IttagePrediction,
    /// The frontend's assumed direction for this branch.
    pub predicted_taken: bool,
    /// The frontend's assumed target (when `predicted_taken`).
    pub predicted_target: Addr,
    /// Was the branch detected (BTB hit / perfect BTB) at prediction?
    pub detected: bool,
}

/// Index of a [`SlotBranch`] in the simulator's slab.
#[derive(Copy, Clone, Debug, Default)]
pub struct BranchId(u32);

/// The simulator's store of in-flight [`SlotBranch`] records.
///
/// Each record lives in one slot from prediction until its branch
/// resolves or is flushed; then its slot goes on a free list for the next
/// prediction to reuse, so the steady state allocates nothing. The slab
/// grows on demand: records stay live past the FTQ, in the decode queue
/// and the unresolved list, so FTQ depth × slots does not bound it. It
/// reaches its high-water mark (about 50 records on the quick suite)
/// early in a run.
#[derive(Clone, Debug, Default)]
pub(crate) struct BranchSlab {
    recs: Vec<SlotBranch>,
    free: Vec<BranchId>,
}

impl BranchSlab {
    /// Writes a new record for a branch of `kind` into a free slot,
    /// growing the slab if none is free. The record is written in place,
    /// so the checkpoint is copied once; its prediction fields start
    /// empty for the caller to fill in.
    #[inline]
    pub(crate) fn alloc(
        &mut self,
        kind: BranchKind,
        ckpt: &HistState,
        tage_pred: TagePrediction,
        detected: bool,
    ) -> BranchId {
        let Some(id) = self.free.pop() else {
            let id = BranchId(self.recs.len() as u32);
            self.recs.push(SlotBranch {
                kind,
                ckpt: *ckpt,
                tage_pred,
                itt_pred: IttagePrediction::default(),
                predicted_taken: false,
                predicted_target: Addr::NULL,
                detected,
            });
            return id;
        };
        let r = &mut self.recs[id.0 as usize];
        r.kind = kind;
        r.ckpt = *ckpt;
        r.tage_pred = tage_pred;
        r.itt_pred = IttagePrediction::default();
        r.predicted_taken = false;
        r.predicted_target = Addr::NULL;
        r.detected = detected;
        id
    }

    /// The record at `id`.
    #[inline]
    pub(crate) fn get(&self, id: BranchId) -> &SlotBranch {
        &self.recs[id.0 as usize]
    }

    /// The record at `id`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: BranchId) -> &mut SlotBranch {
        &mut self.recs[id.0 as usize]
    }

    /// Frees the slot at `id` for reuse. Every id is released exactly
    /// once, by whichever structure drops it.
    #[inline]
    pub(crate) fn release(&mut self, id: BranchId) {
        self.free.push(id);
    }

    /// Records currently held (inserted and not yet released).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.recs.len() - self.free.len()
    }

    /// Slots allocated so far: the high-water mark of [`BranchSlab::live`].
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.recs.len()
    }
}

/// The branch records of one FTQ entry: the [`BranchId`] of each block
/// slot that holds an actual branch, inline (at most 8, one per slot).
#[derive(Copy, Clone, Debug, Default)]
pub struct EntryBranches {
    /// Bit per block slot: does `ids[slot]` hold a record?
    mask: u8,
    ids: [BranchId; 8],
}

impl EntryBranches {
    /// Attaches the record of the branch in block slot `offset` (0..8).
    #[inline]
    pub(crate) fn push(&mut self, offset: usize, id: BranchId) {
        debug_assert!(self.mask >> offset & 1 == 0, "one record per slot");
        self.mask |= 1 << offset;
        self.ids[offset] = id;
    }

    /// Detaches the record of block slot `offset`, if it holds one.
    #[inline]
    pub(crate) fn take(&mut self, offset: usize) -> Option<BranchId> {
        let bit = 1u8 << offset;
        (self.mask & bit != 0).then(|| {
            self.mask &= !bit;
            self.ids[offset]
        })
    }

    /// Number of records attached.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Returns `true` when no records are attached.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Detaches every record, returning each to `slab`.
    pub(crate) fn release_all(&mut self, slab: &mut BranchSlab) {
        while self.mask != 0 {
            let offset = self.mask.trailing_zeros() as usize;
            self.mask &= self.mask - 1;
            slab.release(self.ids[offset]);
        }
    }
}

/// Fill-pipeline state of an FTQ entry (paper's 2-bit State field,
/// collapsed onto the ready-time model).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FillState {
    /// Prediction completed; waiting for I-TLB/I-cache tag lookup.
    Waiting,
    /// Tag lookup done; line ready (or in flight until `ready_at`).
    Requested {
        /// Cycle at which the I-cache line is available.
        ready_at: Cycle,
        /// The tag probe missed (a fill was initiated).
        missed: bool,
        /// The entry was already the FTQ head when the request was
        /// initiated (=> a miss is *fully exposed*, §VI-G).
        was_head: bool,
        /// Cycle at which the fill probe was initiated (for the
        /// prefetch lead-time distribution).
        requested_at: Cycle,
    },
}

/// One FTQ entry.
#[derive(Clone, Debug)]
pub struct FtqEntry {
    /// Address of the first instruction covered.
    pub start: Addr,
    /// Inclusive slot offset of the last instruction covered.
    pub end_offset: usize,
    /// Entry ends with a predicted-taken branch.
    pub predicted_taken: bool,
    /// Predicted address of the next block (taken target or sequential).
    pub next_block: Addr,
    /// Per-slot direction hints (bit per block slot; PFC's extra field).
    pub hints: u8,
    /// Committed-path sequence number of the first covered slot, if the
    /// prediction pipeline was on the correct path.
    pub first_seq: Option<u64>,
    /// Number of leading slots (from `start`) that matched the committed
    /// path at prediction time.
    pub matched: usize,
    /// Speculation records of the actual branches in this entry, by
    /// block slot: indices into the simulator's slab, which holds each
    /// record from prediction until it resolves or is flushed.
    pub branches: EntryBranches,
    /// Fill-pipeline state.
    pub fill: FillState,
    /// Next slot offset to fetch (starts at `start.ftq_offset()`).
    pub fetched_upto: usize,
    /// First cycle this entry was the FTQ head (for exposure
    /// classification).
    pub head_since: Option<Cycle>,
}

impl FtqEntry {
    /// Creates an entry covering `start ..= block(start) + end_offset`.
    pub fn new(start: Addr, end_offset: usize) -> Self {
        debug_assert!(start.ftq_offset() <= end_offset && end_offset < 8);
        FtqEntry {
            start,
            end_offset,
            predicted_taken: false,
            next_block: start.ftq_block() + fdip_types::FTQ_BLOCK_BYTES,
            hints: 0,
            first_seq: None,
            matched: 0,
            branches: EntryBranches::default(),
            fill: FillState::Waiting,
            fetched_upto: start.ftq_offset(),
            head_since: None,
        }
    }

    /// First slot offset covered.
    pub fn start_offset(&self) -> usize {
        self.start.ftq_offset()
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.end_offset - self.start_offset() + 1
    }

    /// Always `false`: an entry covers at least its starting slot.
    /// (Provided alongside [`FtqEntry::len`] for convention's sake.)
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` when the entry covers no unfetched instructions.
    pub fn is_drained(&self) -> bool {
        self.fetched_upto > self.end_offset
    }

    /// Address of the instruction in slot `offset`.
    pub fn addr_of_offset(&self, offset: usize) -> Addr {
        self.start.ftq_block() + (offset as u64) * fdip_types::INSTR_BYTES
    }

    /// Committed-path sequence number of slot `offset`, if that slot was
    /// on the correct path at prediction time.
    pub fn seq_of_offset(&self, offset: usize) -> Option<u64> {
        let first = self.first_seq?;
        let idx = offset.checked_sub(self.start_offset())?;
        (idx < self.matched).then(|| first + idx as u64)
    }

    /// The I-cache line this entry's instructions live in.
    pub fn line(&self) -> u64 {
        self.start.line_number()
    }
}

/// The fetch target queue.
///
/// # Examples
///
/// ```
/// use fdip_sim::ftq::{Ftq, FtqEntry, ftq_overhead_bytes};
/// use fdip_types::Addr;
///
/// assert_eq!(ftq_overhead_bytes(24), 195); // Table III
/// let mut ftq = Ftq::new(4);
/// ftq.push(FtqEntry::new(Addr::new(0x1000), 7));
/// assert_eq!(ftq.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Ftq {
    entries: VecDeque<FtqEntry>,
    capacity: usize,
    /// Queue position of the oldest [`FillState::Waiting`] entry. Fill
    /// probes go oldest first and entries join at the tail, so the
    /// waiting entries are always a suffix of the queue.
    first_waiting: usize,
}

impl Ftq {
    /// Creates an empty FTQ with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FTQ needs at least one entry");
        Ftq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            first_waiting: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy in entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the FTQ is full (callers gate on [`Ftq::free`]).
    pub fn push(&mut self, entry: FtqEntry) {
        assert!(self.entries.len() < self.capacity, "FTQ overflow");
        self.entries.push_back(entry);
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&FtqEntry> {
        self.entries.front()
    }

    /// The oldest entry, mutably.
    pub fn head_mut(&mut self) -> Option<&mut FtqEntry> {
        self.entries.front_mut()
    }

    /// Entry by queue position (0 = head).
    pub fn get(&self, idx: usize) -> Option<&FtqEntry> {
        self.entries.get(idx)
    }

    /// Queue position of the oldest entry still waiting for its fill
    /// probe, if any.
    pub fn oldest_waiting(&self) -> Option<usize> {
        debug_assert!(
            self.entries
                .iter()
                .enumerate()
                .all(|(i, e)| (e.fill == FillState::Waiting) == (i >= self.first_waiting)),
            "waiting entries must be a suffix of the queue"
        );
        (self.first_waiting < self.entries.len()).then_some(self.first_waiting)
    }

    /// Records the fill probe of the oldest waiting entry.
    ///
    /// # Panics
    ///
    /// Panics if no entry is waiting.
    pub fn set_oldest_waiting_fill(&mut self, fill: FillState) {
        debug_assert!(fill != FillState::Waiting);
        self.entries[self.first_waiting].fill = fill;
        self.first_waiting += 1;
    }

    /// Iterates entries from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        self.entries.iter()
    }

    /// Iterates entries mutably from head to tail.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut FtqEntry> {
        self.entries.iter_mut()
    }

    /// Pops the (drained) head entry.
    pub fn pop_head(&mut self) -> Option<FtqEntry> {
        let head = self.entries.pop_front()?;
        if head.fill != FillState::Waiting {
            self.first_waiting -= 1;
        }
        Some(head)
    }

    /// Removes every entry (execute-time flush).
    pub fn flush_all(&mut self) {
        self.entries.clear();
        self.first_waiting = 0;
    }

    /// Removes all entries younger than queue position `idx` (PFC
    /// restream: keep `0..=idx`, drop the rest).
    pub fn flush_younger_than(&mut self, idx: usize) {
        self.entries.truncate(idx + 1);
        self.first_waiting = self.first_waiting.min(self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_overhead_is_195_bytes_at_24_entries() {
        assert_eq!(ftq_overhead_bytes(24), 195);
    }

    #[test]
    fn conventional_fdp_delta_is_24_bytes() {
        // The direction-hint field (8 bits/entry) is the only addition
        // over conventional FDP: 24 bytes for 24 entries.
        let hint_bits: u32 = FTQ_FIELD_BITS
            .iter()
            .find(|&&(n, _)| n == "Direction hint")
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(24 * hint_bits as usize / 8, 24);
    }

    #[test]
    fn entry_geometry() {
        // Entry starting mid-block at offset 2, ending at 6.
        let e = FtqEntry::new(Addr::new(0x1008), 6);
        assert_eq!(e.start_offset(), 2);
        assert_eq!(e.len(), 5);
        assert_eq!(e.addr_of_offset(2), Addr::new(0x1008));
        assert_eq!(e.addr_of_offset(6), Addr::new(0x1018));
        assert_eq!(e.line(), Addr::new(0x1008).line_number());
    }

    #[test]
    fn seq_of_offset_respects_matched_prefix() {
        let mut e = FtqEntry::new(Addr::new(0x1008), 6);
        e.first_seq = Some(100);
        e.matched = 3; // offsets 2,3,4 matched
        assert_eq!(e.seq_of_offset(2), Some(100));
        assert_eq!(e.seq_of_offset(4), Some(102));
        assert_eq!(e.seq_of_offset(5), None);
        assert_eq!(e.seq_of_offset(1), None);
    }

    #[test]
    fn drained_tracking() {
        let mut e = FtqEntry::new(Addr::new(0x1000), 1);
        assert!(!e.is_drained());
        e.fetched_upto = 2;
        assert!(e.is_drained());
    }

    #[test]
    fn queue_push_pop_flush() {
        let mut q = Ftq::new(3);
        for i in 0..3u64 {
            q.push(FtqEntry::new(Addr::new(0x1000 + i * 32), 7));
        }
        assert_eq!(q.free(), 0);
        assert_eq!(q.head().unwrap().start, Addr::new(0x1000));
        q.flush_younger_than(0);
        assert_eq!(q.len(), 1);
        q.flush_all();
        assert!(q.is_empty());
    }

    #[test]
    fn the_waiting_cursor_follows_probes_pops_and_flushes() {
        let requested = FillState::Requested {
            ready_at: 0,
            missed: false,
            was_head: false,
            requested_at: 0,
        };
        let mut q = Ftq::new(4);
        assert_eq!(q.oldest_waiting(), None);
        for i in 0..3u64 {
            q.push(FtqEntry::new(Addr::new(0x1000 + i * 32), 7));
        }
        assert_eq!(q.oldest_waiting(), Some(0));
        q.set_oldest_waiting_fill(requested);
        q.set_oldest_waiting_fill(requested);
        assert_eq!(q.oldest_waiting(), Some(2));
        q.pop_head();
        assert_eq!(q.oldest_waiting(), Some(1));
        q.flush_younger_than(0);
        assert_eq!(q.oldest_waiting(), None);
        q.push(FtqEntry::new(Addr::new(0x2000), 7));
        assert_eq!(q.oldest_waiting(), Some(1));
        q.flush_all();
        q.push(FtqEntry::new(Addr::new(0x3000), 7));
        assert_eq!(q.oldest_waiting(), Some(0));
    }

    #[test]
    #[should_panic(expected = "FTQ overflow")]
    fn overflow_panics() {
        let mut q = Ftq::new(1);
        q.push(FtqEntry::new(Addr::new(0x1000), 7));
        q.push(FtqEntry::new(Addr::new(0x1020), 7));
    }
}
