//! # btfluid-bench
//!
//! The experiment harness: one function per figure of the paper, each
//! returning a structured result that renders as an aligned table (what the
//! CLI prints) and as CSV (what EXPERIMENTS.md records).
//!
//! | Experiment | Paper artifact | Function |
//! |---|---|---|
//! | F2  | Figure 2 — MTCD vs MTSD online time per file vs correlation | [`fig2::run`] |
//! | F3  | Figure 3 — per-class times at `p = 0.1` and `p = 1.0` | [`fig3::run`] |
//! | F4a | Figure 4(a) — CMFSD online time per file over `(p, ρ)` | [`fig4a::run`] |
//! | F4b/c | Figure 4(b),(c) — per-class CMFSD vs MFCD at `p = 0.9 / 0.1` | [`fig4bc::run`] |
//! | X3  | fluid vs simulator validation | [`validate::run`] |
//! | X4  | Adapt under cheaters (paper's future work) | [`adapt_exp::run`] |
//! | X5  | flash-crowd transients (ablation) | [`transient::run`] |
//! | X6  | parameter elasticities (ablation) | [`ablation::run`] |
//! | X8  | Zipf popularity skew (extension) | [`skew::run`] |
//!
//! Parameter sweeps are a few fluid solves each and run serially.

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it also
// rejects NaN, which is exactly what parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adapt_exp;
pub mod fig2;
pub mod fig3;
pub mod fig4a;
pub mod fig4bc;
pub mod skew;
pub mod table;
pub mod transient;
pub mod validate;

pub use table::Table;

/// Convenience error alias.
pub type BenchError = btfluid_numkit::NumError;
