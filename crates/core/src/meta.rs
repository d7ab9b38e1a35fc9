//! Flat static-instruction metadata for the simulator hot path.
//!
//! The predict, fetch, pre-decode/PFC, and prefetch stages all need the
//! same few static facts about an instruction slot — is it a branch, of
//! which kind, with which embedded target, in which cache line, and
//! would an idealized BTB ever hold it. Deriving those through
//! `program.image().instr_at(pc)` re-does the address-to-slot mapping
//! and re-matches the `InstrKind` enum on every touch, several times per
//! predicted slot per cycle.
//!
//! [`StaticMeta`] computes everything once per [`Program`] into a
//! structure of flat arrays indexed by image slot: a dense one-byte kind
//! tag, a property-bit byte, and the statically-embedded target (a
//! slot's address and cache line follow from its index). The perfect-BTB
//! visibility rule (§VI-A: real BTBs only ever allocate branches that are
//! taken at least once, so never-taken conditionals stay undetectable) is
//! folded into the property bits, so configurations with `perfect_btb`
//! derive their lookup lazily from here instead of re-walking the
//! behaviour models.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use fdip_program::{BranchBehavior, Program};
use fdip_types::{Addr, BranchKind, InstrKind, OpClass, CACHE_LINE_BYTES, INSTR_BYTES};

/// Dense kind tag: non-branch operation classes first, branch kinds
/// from [`TAG_COND_DIRECT`] upward (so `tag >= TAG_COND_DIRECT` is the
/// is-branch test).
pub const TAG_ALU: u8 = 0;
/// Integer multiply / long-latency ALU operation.
pub const TAG_MUL: u8 = 1;
/// Floating-point operation.
pub const TAG_FP: u8 = 2;
/// Memory load.
pub const TAG_LOAD: u8 = 3;
/// Memory store.
pub const TAG_STORE: u8 = 4;
/// Conditional PC-relative branch (first branch tag).
pub const TAG_COND_DIRECT: u8 = 5;
/// Unconditional PC-relative jump.
pub const TAG_DIRECT_JUMP: u8 = 6;
/// Unconditional register-indirect jump.
pub const TAG_INDIRECT_JUMP: u8 = 7;
/// PC-relative call.
pub const TAG_DIRECT_CALL: u8 = 8;
/// Register-indirect call.
pub const TAG_INDIRECT_CALL: u8 = 9;
/// Function return.
pub const TAG_RETURN: u8 = 10;

/// Property bit: the slot is a branch.
pub const F_BRANCH: u8 = 1 << 0;
/// Property bit: unconditional branch.
pub const F_UNCOND: u8 = 1 << 1;
/// Property bit: call (pushes the RAS).
pub const F_CALL: u8 = 1 << 2;
/// Property bit: return (pops the RAS).
pub const F_RETURN: u8 = 1 << 3;
/// Property bit: PC-relative (target embedded in the instruction word).
pub const F_DIRECT: u8 = 1 << 4;
/// Property bit: register-indirect (target unknown until execute).
pub const F_INDIRECT: u8 = 1 << 5;
/// Property bit: pre-decode can recover the target for PFC (§III-B).
pub const F_PFC_TARGET: u8 = 1 << 6;
/// Property bit: an idealized ("perfect") BTB would hold this branch —
/// it is taken at least once in practice (§VI-A bias rule).
pub const F_BTB_VISIBLE: u8 = 1 << 7;

/// Returns `true` if `tag` denotes any kind of branch.
#[inline]
pub const fn tag_is_branch(tag: u8) -> bool {
    tag >= TAG_COND_DIRECT
}

/// Branch kind denoted by `tag`, if any.
#[inline]
pub const fn tag_branch_kind(tag: u8) -> Option<BranchKind> {
    match tag {
        TAG_COND_DIRECT => Some(BranchKind::CondDirect),
        TAG_DIRECT_JUMP => Some(BranchKind::DirectJump),
        TAG_INDIRECT_JUMP => Some(BranchKind::IndirectJump),
        TAG_DIRECT_CALL => Some(BranchKind::DirectCall),
        TAG_INDIRECT_CALL => Some(BranchKind::IndirectCall),
        TAG_RETURN => Some(BranchKind::Return),
        _ => None,
    }
}

/// The dense tag of a decoded [`InstrKind`].
#[inline]
pub const fn tag_of(kind: InstrKind) -> u8 {
    match kind {
        InstrKind::Op(OpClass::Alu) => TAG_ALU,
        InstrKind::Op(OpClass::Mul) => TAG_MUL,
        InstrKind::Op(OpClass::Fp) => TAG_FP,
        InstrKind::Op(OpClass::Load) => TAG_LOAD,
        InstrKind::Op(OpClass::Store) => TAG_STORE,
        InstrKind::Branch { kind, .. } => match kind {
            BranchKind::CondDirect => TAG_COND_DIRECT,
            BranchKind::DirectJump => TAG_DIRECT_JUMP,
            BranchKind::IndirectJump => TAG_INDIRECT_JUMP,
            BranchKind::DirectCall => TAG_DIRECT_CALL,
            BranchKind::IndirectCall => TAG_INDIRECT_CALL,
            BranchKind::Return => TAG_RETURN,
        },
    }
}

/// Structure-of-arrays static metadata, one entry per image slot.
///
/// Built once per program by [`StaticMeta::new`]; every accessor that
/// takes a PC does one subtract-shift-compare to find the slot, so the
/// hot path never re-enters `fdip_program`.
#[derive(Clone, Debug)]
pub struct StaticMeta {
    /// Raw base address of slot 0.
    base: u64,
    /// Dense kind tag per slot.
    tags: Vec<u8>,
    /// Property bits per slot.
    flags: Vec<u8>,
    /// Embedded branch target per slot ([`Addr::NULL`] for non-branches,
    /// indirect branches, and returns).
    targets: Vec<Addr>,
}

impl StaticMeta {
    /// Decodes the whole image (and the behaviour models backing the
    /// perfect-BTB visibility bit) into flat arrays, in one walk over the
    /// image and behaviour slices.
    pub fn new(program: &Program) -> Self {
        let image = program.image();
        let n = image.len();
        let mut tags = Vec::with_capacity(n);
        let mut flags = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for (si, behavior) in image.instrs().iter().zip(program.behaviors()) {
            let kind = si.kind;
            tags.push(tag_of(kind));
            targets.push(match kind {
                InstrKind::Branch { target, .. } => target,
                InstrKind::Op(_) => Addr::NULL,
            });
            let mut f = 0u8;
            if let InstrKind::Branch { kind: bk, .. } = kind {
                f |= F_BRANCH;
                if bk.is_unconditional() {
                    f |= F_UNCOND;
                }
                if bk.is_call() {
                    f |= F_CALL;
                }
                if bk.is_return() {
                    f |= F_RETURN;
                }
                if bk.is_direct() {
                    f |= F_DIRECT;
                }
                if bk.is_indirect() {
                    f |= F_INDIRECT;
                }
                if bk.pfc_target_available() {
                    f |= F_PFC_TARGET;
                }
                let visible = if bk.is_unconditional() {
                    true
                } else {
                    match behavior {
                        Some(BranchBehavior::Bias { p_taken }) => *p_taken >= 0.02,
                        _ => true,
                    }
                };
                if visible {
                    f |= F_BTB_VISIBLE;
                }
            }
            flags.push(f);
        }
        StaticMeta {
            base: image.base().raw(),
            tags,
            flags,
            targets,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Returns `true` when the image is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Slot index holding `pc`, if mapped.
    #[inline]
    pub fn slot_of(&self, pc: Addr) -> Option<usize> {
        // A pc below base wraps to an enormous offset, failing the
        // length check, so one compare covers both bounds.
        let idx = (pc.raw().wrapping_sub(self.base) / INSTR_BYTES) as usize;
        (idx < self.tags.len()).then_some(idx)
    }

    /// Address of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> Addr {
        assert!(idx < self.tags.len(), "slot index out of bounds");
        Addr::new(self.base + idx as u64 * INSTR_BYTES)
    }

    /// Dense kind tag of slot `idx`.
    #[inline]
    pub fn tag(&self, idx: usize) -> u8 {
        self.tags[idx]
    }

    /// Number of consecutive non-branch slots from `idx`, at most `max`.
    /// The run stops before the image's last slot, whose committed
    /// successor is the entry point rather than the next slot.
    #[inline]
    pub fn straight_run(&self, idx: usize, max: usize) -> usize {
        let end = (idx + max).min(self.tags.len().saturating_sub(1));
        self.tags.get(idx..end).map_or(0, |tags| {
            tags.iter().take_while(|&&t| !tag_is_branch(t)).count()
        })
    }

    /// Property bits of slot `idx`.
    #[inline]
    pub fn flags(&self, idx: usize) -> u8 {
        self.flags[idx]
    }

    /// Embedded target of slot `idx` (NULL when none is encoded).
    #[inline]
    pub fn target(&self, idx: usize) -> Addr {
        self.targets[idx]
    }

    /// Cache-line number of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn line(&self, idx: usize) -> u64 {
        self.addr_of(idx).line_number()
    }

    /// Dense kind tag at `pc` ([`TAG_ALU`], i.e. NOP, when unmapped —
    /// matching the image's sequential wrong-path semantics).
    #[inline]
    pub fn tag_at(&self, pc: Addr) -> u8 {
        self.slot_of(pc).map_or(TAG_ALU, |i| self.tags[i])
    }

    /// Property bits at `pc` (`0` when unmapped).
    #[inline]
    pub fn flags_at(&self, pc: Addr) -> u8 {
        self.slot_of(pc).map_or(0, |i| self.flags[i])
    }

    /// Branch kind at `pc`, if the slot is a mapped branch.
    #[inline]
    pub fn branch_kind_at(&self, pc: Addr) -> Option<BranchKind> {
        tag_branch_kind(self.tag_at(pc))
    }

    /// Statically-embedded target at `pc` (direct branches only) — the
    /// flat equivalent of `instr_at(pc).kind.static_target()`.
    #[inline]
    pub fn static_target_at(&self, pc: Addr) -> Option<Addr> {
        let i = self.slot_of(pc)?;
        (self.flags[i] & F_DIRECT != 0).then(|| self.targets[i])
    }

    /// The mapped slot range that falls inside cache line `line`.
    #[inline]
    pub fn slots_of_line(&self, line: u64) -> std::ops::Range<usize> {
        let line_base = line * CACHE_LINE_BYTES;
        let line_end = line_base + CACHE_LINE_BYTES;
        let lo = line_base.saturating_sub(self.base) / INSTR_BYTES;
        let hi = line_end.saturating_sub(self.base) / INSTR_BYTES;
        let n = self.tags.len() as u64;
        (lo.min(n) as usize)..(hi.min(n) as usize)
    }

    /// Builds the perfect-BTB lookup as a packed bitset (one bit per
    /// slot), for configurations with an idealized BTB. Non-perfect-BTB
    /// configurations never call this, so they allocate nothing — the
    /// visibility rule lives in the always-present [`F_BTB_VISIBLE`]
    /// flag bit.
    pub fn perfect_btb_bits(&self) -> Vec<u64> {
        let mut bits = vec![0u64; self.flags.len().div_ceil(64)];
        for (i, &f) in self.flags.iter().enumerate() {
            if f & F_BTB_VISIBLE != 0 {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_program::workload::{Workload, WorkloadFamily};

    fn meta_and_program() -> (StaticMeta, Program) {
        let p = Workload::family_default("meta-test", WorkloadFamily::Server, 11).build();
        (StaticMeta::new(&p), p)
    }

    #[test]
    fn tags_and_targets_match_the_image() {
        let (m, p) = meta_and_program();
        let image = p.image();
        assert_eq!(m.len(), image.len());
        assert!(!m.is_empty());
        for i in 0..m.len() {
            let addr = image.addr_of(i);
            let kind = image.instr_at(addr).kind;
            assert_eq!(m.tag(i), tag_of(kind), "slot {i}");
            assert_eq!(m.tag_at(addr), tag_of(kind), "slot {i}");
            assert_eq!(m.addr_of(i), addr);
            assert_eq!(m.line(i), addr.line_number());
            assert_eq!(tag_branch_kind(m.tag(i)), kind.branch_kind(), "slot {i}");
            assert_eq!(m.static_target_at(addr), kind.static_target(), "slot {i}");
            if let InstrKind::Branch { target, .. } = kind {
                assert_eq!(m.target(i), target, "slot {i}");
            }
        }
    }

    #[test]
    fn flags_encode_the_branch_taxonomy() {
        let (m, p) = meta_and_program();
        for i in 0..m.len() {
            let kind = p.image().instr_at(m.addr_of(i)).kind;
            let f = m.flags(i);
            match kind.branch_kind() {
                None => assert_eq!(f, 0, "slot {i}"),
                Some(bk) => {
                    assert_ne!(f & F_BRANCH, 0, "slot {i}");
                    assert_eq!(f & F_UNCOND != 0, bk.is_unconditional(), "slot {i}");
                    assert_eq!(f & F_CALL != 0, bk.is_call(), "slot {i}");
                    assert_eq!(f & F_RETURN != 0, bk.is_return(), "slot {i}");
                    assert_eq!(f & F_DIRECT != 0, bk.is_direct(), "slot {i}");
                    assert_eq!(f & F_INDIRECT != 0, bk.is_indirect(), "slot {i}");
                    assert_eq!(f & F_PFC_TARGET != 0, bk.pfc_target_available(), "slot {i}");
                }
            }
        }
    }

    #[test]
    fn unmapped_pcs_read_as_nops() {
        let (m, p) = meta_and_program();
        let below = Addr::new(p.image().base().raw().saturating_sub(64));
        let above = p.image().base() + p.image().footprint_bytes() + 64;
        for pc in [below, above, Addr::NULL] {
            assert_eq!(m.slot_of(pc), None, "{pc}");
            assert_eq!(m.tag_at(pc), TAG_ALU, "{pc}");
            assert_eq!(m.flags_at(pc), 0, "{pc}");
            assert_eq!(m.static_target_at(pc), None, "{pc}");
            assert_eq!(m.branch_kind_at(pc), None, "{pc}");
        }
    }

    #[test]
    fn slots_of_line_covers_exactly_the_line() {
        let (m, _p) = meta_and_program();
        for line in [m.line(0), m.line(m.len() / 2), m.line(m.len() - 1)] {
            let r = m.slots_of_line(line);
            assert!(!r.is_empty(), "line {line}");
            for i in r.clone() {
                assert_eq!(m.line(i), line, "slot {i}");
            }
            if r.start > 0 {
                assert_ne!(m.line(r.start - 1), line);
            }
            if r.end < m.len() {
                assert_ne!(m.line(r.end), line);
            }
        }
        // A line entirely outside the image maps to no slots.
        assert!(m.slots_of_line(m.line(m.len() - 1) + 10).is_empty());
    }

    #[test]
    fn perfect_btb_bits_follow_the_visibility_flag() {
        let (m, _p) = meta_and_program();
        let bits = m.perfect_btb_bits();
        assert_eq!(bits.len(), m.len().div_ceil(64));
        let mut visible = 0usize;
        for i in 0..m.len() {
            let bit = bits[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, m.flags(i) & F_BTB_VISIBLE != 0, "slot {i}");
            visible += bit as usize;
        }
        // Unconditional branches are always visible, so some bits are set.
        assert!(visible > 0);
        // Non-branches are never visible.
        for i in 0..m.len() {
            if !tag_is_branch(m.tag(i)) {
                assert_eq!(m.flags(i) & F_BTB_VISIBLE, 0, "slot {i}");
            }
        }
    }

    #[test]
    fn tag_round_trips_through_branch_kind() {
        use fdip_types::BranchKind::*;
        for bk in [
            CondDirect,
            DirectJump,
            IndirectJump,
            DirectCall,
            IndirectCall,
            Return,
        ] {
            let tag = tag_of(InstrKind::Branch {
                kind: bk,
                target: Addr::NULL,
            });
            assert!(tag_is_branch(tag));
            assert_eq!(tag_branch_kind(tag), Some(bk));
        }
        for tag in [TAG_ALU, TAG_MUL, TAG_FP, TAG_LOAD, TAG_STORE] {
            assert!(!tag_is_branch(tag));
            assert_eq!(tag_branch_kind(tag), None);
        }
    }
}
