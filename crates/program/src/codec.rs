//! JSON round-trip codec for [`Program`] images.
//!
//! Fuzz failures must be replayable: a minimized program is written to a
//! case file and decoded back into the *identical* [`Program`] later —
//! same image bytes, same behaviours, same entry — so a replay simulates
//! exactly what the original run simulated. The codec therefore
//! serializes the assembled image (not generator parameters): it
//! round-trips any structurally valid program regardless of how it was
//! produced (stochastic builder, CFG emitter, hand assembly).
//!
//! Floats (`Bias::p_taken`, `Sticky::switch_prob`) survive the trip
//! exactly because `fdip-telemetry` prints `f64` via Rust's shortest
//! round-trip `Display`. Pattern bits are hex strings so the full `u64`
//! range survives the signed JSON integer type.
//!
//! The document layout is specified in `docs/METRICS.md` (Document 7
//! appendix: program encoding).
//!
//! # Examples
//!
//! ```
//! use fdip_program::workload::{Workload, WorkloadFamily};
//! use fdip_program::codec::{program_from_json, program_to_json};
//!
//! let p = Workload::family_default("w", WorkloadFamily::Spec, 1).build();
//! let json = program_to_json(&p);
//! let back = program_from_json(&json).unwrap();
//! assert_eq!(back.image().len(), p.image().len());
//! assert_eq!(back.entry(), p.entry());
//! ```

use crate::behavior::{BranchBehavior, IndirectSelect};
use crate::image::{CodeImage, Program};
use std::fmt;

use fdip_telemetry::Json;
use fdip_types::{Addr, BranchKind, InstrKind, OpClass, StaticInstr};

/// Why a JSON document failed to decode into a [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodecError {
    msg: String,
}

impl CodecError {
    fn new(msg: impl Into<String>) -> Self {
        CodecError { msg: msg.into() }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program decode: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

/// Wire names of the op classes and branch kinds, one `(value, name)`
/// table per map; both directions search it.
const OP_NAMES: [(OpClass, &str); 5] = [
    (OpClass::Alu, "alu"),
    (OpClass::Mul, "mul"),
    (OpClass::Fp, "fp"),
    (OpClass::Load, "load"),
    (OpClass::Store, "store"),
];
const BRANCH_NAMES: [(BranchKind, &str); 6] = [
    (BranchKind::CondDirect, "cond"),
    (BranchKind::DirectJump, "jmp"),
    (BranchKind::IndirectJump, "ijmp"),
    (BranchKind::DirectCall, "call"),
    (BranchKind::IndirectCall, "icall"),
    (BranchKind::Return, "ret"),
];

fn name_of<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table
        .iter()
        .find(|(v, _)| *v == value)
        .map(|(_, n)| *n)
        .expect("every op class and branch kind has a wire name")
}

fn value_of<T: Copy>(table: &[(T, &str)], name: &str) -> Option<T> {
    table.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
}

fn select_to_json(s: IndirectSelect) -> Json {
    match s {
        IndirectSelect::Random => Json::from("random"),
        IndirectSelect::RoundRobin => Json::from("rr"),
        IndirectSelect::Sticky { switch_prob } => {
            Json::obj().with("k", "sticky").with("p", switch_prob)
        }
    }
}

fn select_from_json(j: &Json) -> Result<IndirectSelect, CodecError> {
    if let Some(s) = j.as_str() {
        return match s {
            "random" => Ok(IndirectSelect::Random),
            "rr" => Ok(IndirectSelect::RoundRobin),
            other => Err(CodecError::new(format!("unknown select `{other}`"))),
        };
    }
    match j.get("k").and_then(Json::as_str) {
        Some("sticky") => Ok(IndirectSelect::Sticky {
            switch_prob: j
                .get("p")
                .and_then(Json::as_f64)
                .ok_or_else(|| CodecError::new("sticky select missing `p`"))?,
        }),
        _ => Err(CodecError::new("malformed select")),
    }
}

fn behavior_to_json(b: &BranchBehavior) -> Json {
    match b {
        BranchBehavior::Bias { p_taken } => Json::obj().with("k", "bias").with("p", *p_taken),
        BranchBehavior::Pattern { bits, len } => Json::obj()
            .with("k", "pattern")
            .with("bits", format!("{bits:x}"))
            .with("len", u64::from(*len)),
        BranchBehavior::Loop { trip } => {
            Json::obj().with("k", "loop").with("trip", u64::from(*trip))
        }
        BranchBehavior::Indirect { targets, select } => Json::obj()
            .with("k", "indirect")
            .with(
                "targets",
                Json::Arr(targets.iter().map(|t| Json::from(t.raw())).collect()),
            )
            .with("sel", select_to_json(*select)),
    }
}

fn behavior_from_json(j: &Json) -> Result<BranchBehavior, CodecError> {
    let kind = j
        .get("k")
        .and_then(Json::as_str)
        .ok_or_else(|| CodecError::new("behaviour missing `k`"))?;
    match kind {
        "bias" => Ok(BranchBehavior::Bias {
            p_taken: j
                .get("p")
                .and_then(Json::as_f64)
                .ok_or_else(|| CodecError::new("bias missing `p`"))?,
        }),
        "pattern" => {
            let bits = j
                .get("bits")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| CodecError::new("pattern missing hex `bits`"))?;
            let len = j
                .get("len")
                .and_then(Json::as_u64)
                .filter(|&l| (1..=64).contains(&l))
                .ok_or_else(|| CodecError::new("pattern `len` out of range"))?;
            Ok(BranchBehavior::Pattern {
                bits,
                len: len as u8,
            })
        }
        "loop" => Ok(BranchBehavior::Loop {
            trip: j
                .get("trip")
                .and_then(Json::as_u64)
                .and_then(|t| u32::try_from(t).ok())
                .ok_or_else(|| CodecError::new("loop missing `trip`"))?,
        }),
        "indirect" => {
            let targets = j
                .get("targets")
                .and_then(Json::as_arr)
                .ok_or_else(|| CodecError::new("indirect missing `targets`"))?
                .iter()
                .map(|t| t.as_u64().map(Addr::new))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| CodecError::new("non-integer indirect target"))?;
            if targets.is_empty() {
                return Err(CodecError::new("indirect with empty `targets`"));
            }
            let select = select_from_json(
                j.get("sel")
                    .ok_or_else(|| CodecError::new("indirect missing `sel`"))?,
            )?;
            Ok(BranchBehavior::Indirect { targets, select })
        }
        other => Err(CodecError::new(format!("unknown behaviour `{other}`"))),
    }
}

fn instr_to_json(i: StaticInstr) -> Json {
    match i.kind {
        InstrKind::Op(c) => Json::from(name_of(&OP_NAMES, c)),
        InstrKind::Branch { kind, target } => Json::obj()
            .with("k", name_of(&BRANCH_NAMES, kind))
            .with("t", target.raw()),
    }
}

fn instr_from_json(j: &Json) -> Result<StaticInstr, CodecError> {
    if let Some(s) = j.as_str() {
        return value_of(&OP_NAMES, s)
            .map(StaticInstr::op)
            .ok_or_else(|| CodecError::new(format!("unknown op `{s}`")));
    }
    let kind = j
        .get("k")
        .and_then(Json::as_str)
        .and_then(|s| value_of(&BRANCH_NAMES, s))
        .ok_or_else(|| CodecError::new("malformed branch instruction"))?;
    let target = j
        .get("t")
        .and_then(Json::as_u64)
        .ok_or_else(|| CodecError::new("branch missing `t`"))?;
    Ok(StaticInstr::branch(kind, Addr::new(target)))
}

/// Serializes a program (image + behaviours + entry) to a JSON value.
pub fn program_to_json(p: &Program) -> Json {
    let image = p.image();
    let instrs: Vec<Json> = (0..image.len())
        .map(|i| instr_to_json(image.instr_at(image.addr_of(i))))
        .collect();
    let behaviors: Vec<Json> = (0..image.len())
        .filter_map(|i| {
            p.behavior_at(image.addr_of(i)).map(|b| {
                Json::obj()
                    .with("i", i as u64)
                    .with("b", behavior_to_json(b))
            })
        })
        .collect();
    Json::obj()
        .with("name", p.name())
        .with("base", image.base().raw())
        .with("entry", p.entry().raw())
        .with("instrs", Json::Arr(instrs))
        .with("behaviors", Json::Arr(behaviors))
}

/// Decodes a program serialized by [`program_to_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the first malformed field; also
/// rejects documents whose entry point or behaviour indices fall outside
/// the decoded image.
pub fn program_from_json(j: &Json) -> Result<Program, CodecError> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| CodecError::new("missing `name`"))?;
    let base = j
        .get("base")
        .and_then(Json::as_u64)
        .ok_or_else(|| CodecError::new("missing `base`"))?;
    let entry = j
        .get("entry")
        .and_then(Json::as_u64)
        .ok_or_else(|| CodecError::new("missing `entry`"))?;
    let instrs = j
        .get("instrs")
        .and_then(Json::as_arr)
        .ok_or_else(|| CodecError::new("missing `instrs`"))?
        .iter()
        .map(instr_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if instrs.is_empty() {
        return Err(CodecError::new("empty `instrs`"));
    }
    let mut behaviors: Vec<Option<BranchBehavior>> = vec![None; instrs.len()];
    for entry in j
        .get("behaviors")
        .and_then(Json::as_arr)
        .ok_or_else(|| CodecError::new("missing `behaviors`"))?
    {
        let idx = entry
            .get("i")
            .and_then(Json::as_u64)
            .ok_or_else(|| CodecError::new("behaviour entry missing `i`"))?
            as usize;
        if idx >= behaviors.len() {
            return Err(CodecError::new(format!(
                "behaviour index {idx} outside image"
            )));
        }
        behaviors[idx] =
            Some(behavior_from_json(entry.get("b").ok_or_else(|| {
                CodecError::new("behaviour entry missing `b`")
            })?)?);
    }
    let image = CodeImage::new(Addr::new(base), instrs);
    if !image.contains(Addr::new(entry)) {
        return Err(CodecError::new("entry point outside image"));
    }
    Ok(Program::new(name, image, behaviors, Addr::new(entry)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadFamily};
    use crate::ExecutionEngine;

    fn assert_same_program(a: &Program, b: &Program) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.entry(), b.entry());
        assert_eq!(a.image().base(), b.image().base());
        assert_eq!(a.image().len(), b.image().len());
        for i in 0..a.image().len() {
            let addr = a.image().addr_of(i);
            assert_eq!(
                a.image().instr_at(addr),
                b.image().instr_at(addr),
                "slot {i}"
            );
            assert_eq!(a.behavior_at(addr), b.behavior_at(addr), "slot {i}");
        }
    }

    #[test]
    fn round_trip_preserves_every_slot() {
        for family in [
            WorkloadFamily::Server,
            WorkloadFamily::Client,
            WorkloadFamily::Spec,
        ] {
            let p = Workload::family_default("w", family, 9).build();
            let back = program_from_json(&program_to_json(&p)).unwrap();
            assert_same_program(&p, &back);
        }
    }

    #[test]
    fn round_trip_survives_text_serialization() {
        let p = Workload::family_default("w", WorkloadFamily::Server, 3).build();
        let text = program_to_json(&p).to_string();
        let back = program_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_same_program(&p, &back);
        // Decoded program produces the identical committed stream.
        let orig: Vec<_> = ExecutionEngine::new(&p, 5).take(2000).collect();
        let replay: Vec<_> = ExecutionEngine::new(&back, 5).take(2000).collect();
        assert_eq!(orig, replay);
    }

    #[test]
    fn name_tables_map_one_to_one() {
        for (op, name) in OP_NAMES {
            assert_eq!(name_of(&OP_NAMES, op), name);
            assert_eq!(value_of(&OP_NAMES, name), Some(op));
        }
        for (kind, name) in BRANCH_NAMES {
            assert_eq!(name_of(&BRANCH_NAMES, kind), name);
            assert_eq!(value_of(&BRANCH_NAMES, name), Some(kind));
        }
        assert_eq!(value_of(&OP_NAMES, "jmp"), None);
        assert_eq!(value_of(&BRANCH_NAMES, "alu"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        let p = Workload::family_default("w", WorkloadFamily::Spec, 1).build();
        let good = program_to_json(&p);

        let mut no_entry = good.clone();
        no_entry.set("entry", 0x1u64);
        assert!(program_from_json(&no_entry)
            .unwrap_err()
            .to_string()
            .contains("entry"));

        let mut bad_behavior = good.clone();
        bad_behavior.set(
            "behaviors",
            Json::Arr(vec![Json::obj()
                .with("i", 1u64 << 40)
                .with("b", Json::obj().with("k", "loop").with("trip", 2u64))]),
        );
        assert!(program_from_json(&bad_behavior)
            .unwrap_err()
            .to_string()
            .contains("outside image"));

        assert!(program_from_json(&Json::obj()).is_err());
    }

    #[test]
    fn pattern_bits_round_trip_full_u64() {
        let b = BranchBehavior::Pattern {
            bits: u64::MAX,
            len: 64,
        };
        let back = behavior_from_json(&behavior_to_json(&b)).unwrap();
        assert_eq!(back, b);
    }
}
