#![warn(missing_docs)]
//! # bcq-exec — bounded and conventional query executors
//!
//! * [`eval_dq()`] executes the bounded plans of [`bcq_core::qplan`]: index
//!   witness fetches only, `|D_Q|` independent of `|D|`.
//! * [`baseline()`] is the conventional-DBMS competitor (the paper's MySQL):
//!   constant-key index access, full scans elsewhere, whole-tuple fetching,
//!   and a work budget reproducing the 2 500 s cap.
//! * [`eval_ra_prepared`] is the one RA evaluator. It walks the skeleton
//!   [`PreparedRa`] (re-exported from [`bcq_core::ra`], whose one walk
//!   certifies an expression and builds its plans): [`eval_dq_with()`] per
//!   enumerated block, and per membership probe with the candidate row
//!   bound to the probed block's reserved slots. [`eval_ra`] is the same
//!   path for a ground expression.
//! * [`pipeline`] is the **one engine** all of the above share: the
//!   columnar interpreter of compiled [`bcq_core::program::OpProgram`]s
//!   (fetch / filter sweeps / join schedule / project over
//!   [`bcq_core::batch::ColumnBatch`]es, with unified metering and the
//!   work budget).
//! * The private `reference` module is the **one reference**: a
//!   query-walking, row-at-a-time filter → hash-join → project over the
//!   same batches. It serves nothing; [`eval_dq_interpreted()`] /
//!   [`eval_dq_with_interpreted()`] / [`baseline_interpreted()`] select it
//!   so the differential suites can check the engine's join strategies,
//!   join order and budget accounting on workload-sized inputs, which the
//!   exponential enumeration oracle in `tests/oracle.rs` cannot reach.

pub mod baseline;
pub mod eval_dq;
pub mod pipeline;
pub mod ra;
mod reference;
pub mod results;
#[cfg(test)]
mod test_fixtures;
// The RA suites' full-scan oracle and fixture, shared with the workspace's
// integration tests; it names this crate the way they do.
#[cfg(test)]
extern crate self as bcq_exec;
#[cfg(test)]
#[path = "../../../tests/common/ra_oracle.rs"]
mod ra_oracle;
pub mod views;

pub use baseline::{
    baseline, baseline_interpreted, BaselineMode, BaselineOptions, BaselineOutcome,
};
pub use eval_dq::{
    eval_dq, eval_dq_interpreted, eval_dq_profiled, eval_dq_with, eval_dq_with_interpreted,
    ExecOutcome,
};
pub use pipeline::{BudgetExhausted, ExecContext, ParamEnv};
pub use ra::{eval_ra, eval_ra_prepared, PreparedRa, RaOutcome};
pub use results::ResultSet;
pub use views::materialize_views;
