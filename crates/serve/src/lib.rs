//! dam-serve: a deterministic multi-client serving engine over the
//! workspace's four dictionaries, scheduled on the PDAM device model.
//!
//! This is the end-to-end realization of the paper's §7–8 concurrency
//! story: Lemma 13 says `k ≤ P` clients sharing a `P`-slot device, each
//! holding `P/k` slots, sustain query throughput `Ω(k / log_{PB/k} N)` —
//! provided the data structure turns its slot share into parallel IO.
//! The repo's dictionaries were previously only ever driven by a single
//! synchronous caller; this crate serves them to `k` closed-loop clients
//! and measures that throughput through real trees:
//!
//! * [`capture`] — splits data from timing so synchronous trees can be
//!   re-timed by a step scheduler (execute now, charge later).
//! * [`shard`] — hash-partitions the keyspace over `S` independent tree
//!   instances, each with its own device and pager.
//! * [`engine`] — admission (per-shard write batching / group commit),
//!   the closed-loop round structure, the commit log, and metrics.
//! * [`oracle`] — the op alphabet ([`ServeOp`], [`ServeAnswer`]) and the
//!   `BTreeMap` reference model ([`Oracle`]) that the commit log and every
//!   `dam-check` mode are compared against.
//!
//! The scheduler itself lives in `dam_storage::sched` (it is a storage-
//! layer concern); this crate composes it with the trees. Determinism is
//! absolute: reruns are byte-identical at any host parallelism, which is
//! what lets `dam-check` replay concurrent traces against the serial oracle
//! and lets CI diff whole reports across jobs settings.

pub mod capture;
pub mod engine;
pub mod oracle;
pub mod shard;

pub use capture::{CaptureDevice, CaptureHandle, CapturedIo};
pub use engine::{
    generate_workload, oracle_divergence, preload_pairs, run_ops, run_ops_with_obs, run_with_obs,
    Commit, ServeConfig, ServeOutcome, ServeReport,
};
pub use oracle::{Oracle, ServeAnswer, ServeOp};
pub use shard::{ServeStructure, ShardConfig, ShardSet};
