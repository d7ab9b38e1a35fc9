#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Branch-prediction substrate for the FDIP reproduction.
//!
//! Implements every prediction structure the paper's frontend uses (§II-A,
//! §V):
//!
//! * [`GlobalHistory`] — the global history register as a wide bit buffer
//!   with chunked folding, supporting both **taken-only branch target
//!   history** (paper Eq. 2–3) and classic per-branch **direction history**
//!   (Eq. 1). Cheap to snapshot, so the simulator checkpoints it per
//!   speculative block.
//! * [`Tage`] — a TAGE conditional direction predictor (geometric history
//!   lengths up to 260 bits), scalable between the paper's 9/18/36KB
//!   points; [`Gshare`] and [`Bimodal`] baselines.
//! * [`Btb`] — a set-associative branch target buffer indexed at 16-byte
//!   block granularity (§IV-B), 1K–32K entries.
//! * [`Ittage`] — an ITTAGE-style indirect target predictor.
//! * [`Ras`] — a return address stack with snapshot/restore.
//! * [`HistoryPolicy`] — the six history-management policies of the
//!   paper's Table V (THR, Ideal, GHR0–GHR3).
//!
//! The predictors are *passive*: they take the (speculative) history they
//! should use as an argument, and the simulator owns speculation,
//! checkpointing, and repair. This keeps every structure independently
//! testable.

mod btb;
mod direction;
mod fold;
mod history;
mod ittage;
mod loop_pred;
mod policy;
mod ras;
mod tage;

pub use btb::{Btb, BtbConfig, BtbEntry, BtbStats};
pub use direction::{Bimodal, DirectionPredictor, Gshare, GshareConfig};
pub use fold::{FoldPlan, FoldSpec, FoldedHistories, MAX_FOLDS};
pub use history::{GlobalHistory, HISTORY_BITS};
pub use ittage::{Ittage, IttageConfig, IttagePrediction};
pub use loop_pred::{LoopPrediction, LoopPredictor, LoopPredictorConfig};
pub use policy::HistoryPolicy;
pub use ras::{Ras, RAS_DEPTH};
pub use tage::{Tage, TageConfig, TagePrediction};
