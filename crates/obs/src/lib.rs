//! Unified observability for the refined-DAM storage stack.
//!
//! The paper's validation hinges on one question: does *realized* IO cost
//! track the model's prediction (§4, Tables 1–2)? Aggregate device counters
//! can't answer it per operation — they can't say which tree level, buffer
//! drain, or compaction produced an IO, nor whether a dictionary's measured
//! cost matches its affine/PDAM-predicted cost. This crate supplies that
//! substrate:
//!
//! * [`Obs`] — a cloneable handle to a metrics registry: counters, gauges,
//!   and log-bucketed latency histograms keyed on the simulated clock
//!   ([`dam_storage::SimTime`]), so identical runs produce byte-identical
//!   snapshots. No wall-clock anywhere. Registries are *mergeable*
//!   ([`Obs::merge_from`]): parallel sweep workers each record into a
//!   private registry and the results fold back in input order, keeping
//!   snapshots byte-identical at any worker count.
//! * **Spans** — [`Obs::span`] / [`Obs::span_at`] / [`Obs::descend`] open
//!   scoped operation spans (`"betree.get"` → child spans per level
//!   descent, buffer drain, compaction). Every IO the [`ObservedDevice`]
//!   sees is attributed to the innermost active span and, through the
//!   nearest enclosing span with a level, to a per-level IO tally.
//! * [`ObservedDevice`] — a [`dam_storage::BlockDevice`] wrapper that feeds
//!   the registry. It unifies what `DeviceStats` (totals) and the
//!   `FaultInjector`/`RetryingDevice` counters (ingested via
//!   [`Obs::record_fault_stats`] / [`Obs::record_retry_stats`]) each
//!   reported separately.
//! * [`ObservedDict`] — a [`dam_kv::Dictionary`] wrapper opening a root
//!   span per operation and recording per-op latency histograms and the
//!   logical byte counters that read/write amplification is derived from.
//! * **Model residuals** — with [`ModelParams`] installed, every observed
//!   IO is also priced under the DAM, affine, and PDAM models (reusing
//!   `dam-models`), and the snapshot reports measured-vs-predicted ratios:
//!   a per-run miniature of the paper's Table 1/2 validation.
//!
//! * [`PagedDict`] — the cost window a paged dictionary runs each operation
//!   in; it also publishes the pager's counters to the registry.
//!
//! [`MetricsSnapshot`] renders as deterministic JSON ([`MetricsSnapshot::to_json`])
//! or a human-readable table ([`MetricsSnapshot::render_table`]); snapshots
//! can be validated against a checked-in schema with
//! [`snapshot::validate_snapshot_json`].

pub mod device;
pub mod dict;
pub mod registry;
pub mod residual;
pub mod snapshot;
pub mod span;
pub mod window;

pub use device::ObservedDevice;
pub use dict::ObservedDict;
pub use registry::{IoTally, Obs};
pub use residual::{ModelParams, ResidualReport};
pub use snapshot::{validate_snapshot_json, HistSummary, MetricsSnapshot, SpanSummary};
pub use span::{SpanGuard, SpanNode};
pub use window::PagedDict;
