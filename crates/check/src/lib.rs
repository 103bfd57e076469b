//! `dam-check` — the differential correctness harness.
//!
//! The paper's cross-structure comparisons (Table 3, Figures 2–3) are only
//! meaningful if every [`dam_kv::Dictionary`] implementation is
//! *semantically identical*: a tombstone leaking into `range`, an
//! off-by-one at a segment boundary, or a miscounted `len` corrupts the
//! cost comparison without failing any unit test. This crate makes the
//! contract executable:
//!
//! 1. [`generate_trace`] derives a deterministic, adversarial operation
//!    sequence from a seed — shared-prefix keys, the empty key, keys that
//!    sort above the `[0xFF; 64]` sentinel, zero-length values, degenerate
//!    ranges (`start == end`, `start > end`), and keys dense around node
//!    and segment boundaries. Its ops are [`Op`], the serving engine's
//!    `ServeOp`: one alphabet for traces and engine clients alike.
//! 2. [`replay`] runs the trace in lockstep against any subset of the four
//!    trees (B-tree, Bε-tree, optimized Bε-tree, LSM), each checked
//!    against its own [`dam_serve::Oracle`] (the `BTreeMap` reference
//!    model), asserting byte-identical answers after every step and
//!    enforcing the [`dam_kv::OpCost`] accounting contract (reset per op,
//!    attributed ≤ device totals).
//! 3. [`Mode`] composes the earlier resilience layers: transient faults
//!    fully absorbed by `RetryingDevice`, probabilistic faults that may
//!    surface as typed `KvError`s (the harness redrives idempotent ops and
//!    still demands convergence to the oracle), `CrashAfterIos`
//!    crash-points followed by reopen-and-compare against the last synced
//!    state, and, on request, faults that persist (every op armed with
//!    `AfterIos(1)`, or a device that fills), under which each dictionary's
//!    in-memory buffer must stay within its cap. [`Mode::Concurrent`]
//!    serves the trace through the `dam-serve` engine to several
//!    closed-loop clients over hash shards and checks the commit log
//!    against the oracle. [`replay`] is the one entry point of all six.
//! 4. On failure, in any mode, [`shrink`] minimizes the trace and
//!    [`render_test`] prints a ready-to-paste `#[test]` that replays the
//!    reproducer under the failing mode.
//!
//! The `damlab check` subcommand and the `tests/differential.rs` seed
//! corpus are thin wrappers over [`check`] and [`replay`].

pub mod harness;
pub mod trace;

pub use dam_serve::ServeOp as Op;
pub use harness::{
    buffer_cap, check, replay, shrink, CheckConfig, CheckReport, Failure, Mode, Structure,
};
pub use trace::{generate_trace, render_test};
