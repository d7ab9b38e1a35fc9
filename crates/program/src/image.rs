//! The static code image: a dense map from instruction addresses to
//! decoded instructions, plus per-branch behaviour attachments.

use crate::behavior::BranchBehavior;
use fdip_types::{Addr, StaticInstr, INSTR_BYTES};

/// Dense static code image.
///
/// Instructions occupy a contiguous address range starting at
/// [`CodeImage::base`]. Lookups outside the range return
/// [`StaticInstr::NOP`], so sequential wrong-path walks past the end of
/// the program are well defined (they behave like fetching padding).
#[derive(Clone, Debug, Default)]
pub struct CodeImage {
    base: Addr,
    instrs: Vec<StaticInstr>,
}

impl CodeImage {
    /// Creates an image with instructions laid out contiguously from `base`.
    pub fn new(base: Addr, instrs: Vec<StaticInstr>) -> Self {
        CodeImage { base, instrs }
    }

    /// Base (lowest) instruction address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the image holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Total code footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.instrs.len() as u64 * INSTR_BYTES
    }

    /// The instructions, one per slot in address order.
    pub fn instrs(&self) -> &[StaticInstr] {
        &self.instrs
    }

    /// Index of the instruction slot holding `addr`, if mapped.
    pub fn index_of(&self, addr: Addr) -> Option<usize> {
        let off = addr.raw().checked_sub(self.base.raw())?;
        let idx = (off / INSTR_BYTES) as usize;
        (idx < self.instrs.len()).then_some(idx)
    }

    /// Address of the instruction at slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn addr_of(&self, idx: usize) -> Addr {
        assert!(idx < self.instrs.len(), "instruction index out of bounds");
        self.base + idx as u64 * INSTR_BYTES
    }

    /// Returns the instruction at `addr`, or [`StaticInstr::NOP`] when the
    /// address is unmapped. This is what pre-decode hardware "sees".
    pub fn instr_at(&self, addr: Addr) -> StaticInstr {
        self.index_of(addr)
            .map_or(StaticInstr::NOP, |i| self.instrs[i])
    }

    /// Returns `true` if `addr` falls inside the mapped range.
    pub fn contains(&self, addr: Addr) -> bool {
        self.index_of(addr).is_some()
    }
}

/// A complete synthetic program: static code image, per-branch behaviour
/// models, and the entry point.
#[derive(Clone, Debug)]
pub struct Program {
    image: CodeImage,
    /// Behaviour model per instruction slot (only branches have one).
    behaviors: Vec<Option<BranchBehavior>>,
    entry: Addr,
    name: String,
}

impl Program {
    /// Assembles a program from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors` is not the same length as the image, or if
    /// `entry` is unmapped.
    pub fn new(
        name: impl Into<String>,
        image: CodeImage,
        behaviors: Vec<Option<BranchBehavior>>,
        entry: Addr,
    ) -> Self {
        assert_eq!(
            behaviors.len(),
            image.len(),
            "one behaviour slot per instruction required"
        );
        assert!(image.contains(entry), "entry point must be mapped");
        Program {
            image,
            behaviors,
            entry,
            name: name.into(),
        }
    }

    /// The static code image.
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// Entry-point address.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Human-readable workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Behaviour model of the branch at `addr`, if any.
    pub fn behavior_at(&self, addr: Addr) -> Option<&BranchBehavior> {
        self.image
            .index_of(addr)
            .and_then(|i| self.behaviors[i].as_ref())
    }

    /// Behaviour model by instruction slot index.
    pub(crate) fn behavior_by_index(&self, idx: usize) -> Option<&BranchBehavior> {
        self.behaviors.get(idx).and_then(|b| b.as_ref())
    }

    /// Behaviour models, one per image slot (only branches have one).
    pub fn behaviors(&self) -> &[Option<BranchBehavior>] {
        &self.behaviors
    }

    /// Number of static branch instructions.
    pub fn static_branch_count(&self) -> usize {
        (0..self.image.len())
            .filter(|&i| self.image.instrs[i].kind.is_branch())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_types::{BranchKind, InstrKind, OpClass};

    fn tiny_image() -> CodeImage {
        CodeImage::new(
            Addr::new(0x1000),
            vec![
                StaticInstr::op(OpClass::Alu),
                StaticInstr::branch(BranchKind::DirectJump, Addr::new(0x1000)),
            ],
        )
    }

    #[test]
    fn index_round_trip() {
        let img = tiny_image();
        assert_eq!(img.index_of(Addr::new(0x1000)), Some(0));
        assert_eq!(img.index_of(Addr::new(0x1004)), Some(1));
        assert_eq!(img.addr_of(1), Addr::new(0x1004));
        assert_eq!(img.index_of(Addr::new(0x1008)), None);
        assert_eq!(img.index_of(Addr::new(0xfff)), None);
    }

    #[test]
    fn unmapped_reads_are_nops() {
        let img = tiny_image();
        assert_eq!(img.instr_at(Addr::new(0x2000)), StaticInstr::NOP);
        assert_eq!(img.instr_at(Addr::new(0x0)), StaticInstr::NOP);
    }

    #[test]
    fn footprint_is_four_bytes_per_instruction() {
        assert_eq!(tiny_image().footprint_bytes(), 8);
        assert_eq!(tiny_image().len(), 2);
        assert!(!tiny_image().is_empty());
        assert!(CodeImage::default().is_empty());
    }

    #[test]
    fn program_assembly_and_lookup() {
        let img = tiny_image();
        let behaviors = vec![None, None];
        let p = Program::new("t", img, behaviors, Addr::new(0x1000));
        assert_eq!(p.entry(), Addr::new(0x1000));
        assert_eq!(p.name(), "t");
        assert_eq!(p.static_branch_count(), 1);
        assert!(p.behavior_at(Addr::new(0x1004)).is_none());
        assert!(matches!(
            p.image().instr_at(Addr::new(0x1004)).kind,
            InstrKind::Branch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "entry point must be mapped")]
    fn unmapped_entry_panics() {
        let img = tiny_image();
        let _ = Program::new("t", img, vec![None, None], Addr::new(0x9000));
    }

    #[test]
    #[should_panic(expected = "one behaviour slot per instruction")]
    fn behavior_length_mismatch_panics() {
        let img = tiny_image();
        let _ = Program::new("t", img, vec![None], Addr::new(0x1000));
    }
}
