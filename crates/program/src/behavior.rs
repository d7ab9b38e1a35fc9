//! Stochastic branch-behaviour models attached to static branches.
//!
//! Each conditional branch in a generated program carries a behaviour that
//! decides its direction at each dynamic execution; each indirect branch
//! carries a target-selection behaviour. All decisions are driven by the
//! execution engine's seeded RNG and small per-branch state, so a given
//! `(program, engine seed)` pair always produces the same committed stream.

use fdip_types::Addr;
use rand::Rng;

/// How an indirect branch picks among its possible targets.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum IndirectSelect {
    /// Uniform random choice each execution (hard for ITTAGE).
    Random,
    /// Strict rotation through the target list (history-predictable).
    RoundRobin,
    /// Mostly the same target with occasional random switches
    /// (monomorphic-ish call sites; easy for BTB/ITTAGE).
    Sticky {
        /// Probability of switching to a new random target, in [0, 1].
        switch_prob: f64,
    },
}

/// Behaviour model for one static branch.
#[derive(Clone, PartialEq, Debug)]
pub enum BranchBehavior {
    /// Conditional branch taken with fixed probability `p_taken`.
    Bias {
        /// Probability of being taken, in [0, 1].
        p_taken: f64,
    },
    /// Conditional branch following a fixed periodic pattern of directions
    /// (LSB first). Perfectly predictable given enough history.
    Pattern {
        /// Direction bits, least-significant bit first.
        bits: u64,
        /// Pattern period, 1..=64.
        len: u8,
    },
    /// Loop back-edge: taken `trip - 1` consecutive times, then not taken
    /// once (a `trip`-iteration loop).
    Loop {
        /// Loop trip count, >= 1.
        trip: u32,
    },
    /// Indirect branch choosing among `targets`.
    Indirect {
        /// Candidate targets (non-empty).
        targets: Vec<Addr>,
        /// Selection policy.
        select: IndirectSelect,
    },
}

/// Mutable per-branch dynamic state kept by the execution engine.
#[derive(Copy, Clone, Default, Debug)]
pub struct BranchState {
    /// Iterations executed in the current loop instance / pattern position.
    pub counter: u32,
    /// Last chosen indirect-target index.
    pub last_target: u32,
}

impl BranchBehavior {
    /// Decides the direction of a conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if called on an [`BranchBehavior::Indirect`] behaviour.
    pub fn decide_direction<R: Rng>(&self, state: &mut BranchState, rng: &mut R) -> bool {
        match *self {
            BranchBehavior::Bias { p_taken } => rng.gen_bool(p_taken.clamp(0.0, 1.0)),
            BranchBehavior::Pattern { bits, len } => {
                let len = len.clamp(1, 64) as u32;
                let taken = (bits >> (state.counter % len)) & 1 == 1;
                state.counter = (state.counter + 1) % len;
                taken
            }
            BranchBehavior::Loop { trip } => {
                let trip = trip.max(1);
                state.counter += 1;
                if state.counter >= trip {
                    state.counter = 0;
                    false
                } else {
                    true
                }
            }
            BranchBehavior::Indirect { .. } => {
                panic!("indirect behaviour asked for a direction")
            }
        }
    }

    /// Picks the target of an indirect branch.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-indirect behaviour or with no targets.
    pub fn decide_target<R: Rng>(&self, state: &mut BranchState, rng: &mut R) -> Addr {
        match self {
            BranchBehavior::Indirect { targets, select } => {
                assert!(!targets.is_empty(), "indirect branch with no targets");
                let idx = match *select {
                    IndirectSelect::Random => rng.gen_range(0..targets.len()),
                    IndirectSelect::RoundRobin => {
                        let idx = state.last_target as usize % targets.len();
                        state.last_target = ((idx + 1) % targets.len()) as u32;
                        return targets[idx];
                    }
                    IndirectSelect::Sticky { switch_prob } => {
                        if rng.gen_bool(switch_prob.clamp(0.0, 1.0)) {
                            rng.gen_range(0..targets.len())
                        } else {
                            state.last_target as usize % targets.len()
                        }
                    }
                };
                state.last_target = idx as u32;
                targets[idx]
            }
            _ => panic!("direction behaviour asked for a target"),
        }
    }

    /// Returns `true` for indirect-target behaviours.
    pub fn is_indirect(&self) -> bool {
        matches!(self, BranchBehavior::Indirect { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xfd1f)
    }

    #[test]
    fn bias_extremes_are_deterministic() {
        let mut st = BranchState::default();
        let mut r = rng();
        let never = BranchBehavior::Bias { p_taken: 0.0 };
        let always = BranchBehavior::Bias { p_taken: 1.0 };
        for _ in 0..100 {
            assert!(!never.decide_direction(&mut st, &mut r));
            assert!(always.decide_direction(&mut st, &mut r));
        }
    }

    #[test]
    fn bias_mid_is_mixed() {
        let mut st = BranchState::default();
        let mut r = rng();
        let b = BranchBehavior::Bias { p_taken: 0.5 };
        let taken = (0..1000)
            .filter(|_| b.decide_direction(&mut st, &mut r))
            .count();
        assert!((300..700).contains(&taken), "taken={taken}");
    }

    #[test]
    fn pattern_repeats_with_period() {
        // Pattern T N T T (LSB first: bits 0b1101).
        let b = BranchBehavior::Pattern {
            bits: 0b1011,
            len: 4,
        };
        let mut st = BranchState::default();
        let mut r = rng();
        let seq: Vec<bool> = (0..8)
            .map(|_| b.decide_direction(&mut st, &mut r))
            .collect();
        assert_eq!(seq, vec![true, true, false, true, true, true, false, true]);
    }

    #[test]
    fn loop_trip_count_shape() {
        let b = BranchBehavior::Loop { trip: 4 };
        let mut st = BranchState::default();
        let mut r = rng();
        // A 4-trip loop back-edge: T T T N, repeating.
        let seq: Vec<bool> = (0..8)
            .map(|_| b.decide_direction(&mut st, &mut r))
            .collect();
        assert_eq!(seq, vec![true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn loop_trip_one_never_taken() {
        let b = BranchBehavior::Loop { trip: 1 };
        let mut st = BranchState::default();
        let mut r = rng();
        for _ in 0..5 {
            assert!(!b.decide_direction(&mut st, &mut r));
        }
    }

    #[test]
    fn round_robin_rotates() {
        let targets = vec![Addr::new(0x10), Addr::new(0x20), Addr::new(0x30)];
        let b = BranchBehavior::Indirect {
            targets: targets.clone(),
            select: IndirectSelect::RoundRobin,
        };
        let mut st = BranchState::default();
        let mut r = rng();
        let picks: Vec<Addr> = (0..6).map(|_| b.decide_target(&mut st, &mut r)).collect();
        assert_eq!(picks[0], targets[0]);
        assert_eq!(picks[1], targets[1]);
        assert_eq!(picks[2], targets[2]);
        assert_eq!(picks[3], targets[0]);
    }

    #[test]
    fn sticky_mostly_repeats() {
        let targets = vec![Addr::new(0x10), Addr::new(0x20), Addr::new(0x30)];
        let b = BranchBehavior::Indirect {
            targets,
            select: IndirectSelect::Sticky { switch_prob: 0.01 },
        };
        let mut st = BranchState::default();
        let mut r = rng();
        let first = b.decide_target(&mut st, &mut r);
        let repeats = (0..100)
            .filter(|_| b.decide_target(&mut st, &mut r) == first)
            .count();
        assert!(repeats > 60, "repeats={repeats}");
    }

    #[test]
    fn random_select_covers_targets() {
        let targets = vec![Addr::new(0x10), Addr::new(0x20)];
        let b = BranchBehavior::Indirect {
            targets: targets.clone(),
            select: IndirectSelect::Random,
        };
        let mut st = BranchState::default();
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(b.decide_target(&mut st, &mut r));
        }
        assert_eq!(seen.len(), targets.len());
    }

    #[test]
    #[should_panic(expected = "indirect behaviour asked for a direction")]
    fn indirect_direction_panics() {
        let b = BranchBehavior::Indirect {
            targets: vec![Addr::new(0x10)],
            select: IndirectSelect::Random,
        };
        b.decide_direction(&mut BranchState::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "direction behaviour asked for a target")]
    fn direction_target_panics() {
        let b = BranchBehavior::Bias { p_taken: 0.5 };
        b.decide_target(&mut BranchState::default(), &mut rng());
    }
}
