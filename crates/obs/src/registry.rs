//! The metrics registry and span engine behind [`Obs`].

use crate::residual::{ModelParams, ResidualAcc};
use crate::span::{SpanGuard, SpanNode};
use dam_cache::PagerCounters;
use dam_storage::{FaultStats, LatencyHist, RetryStats};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Children kept verbatim per span before folding the rest into totals.
const MAX_CHILDREN: usize = 64;

/// An IO tally: count, bytes by direction, and simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTally {
    /// IOs counted.
    pub ios: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Simulated nanoseconds of IO latency.
    pub time_ns: u64,
}

impl IoTally {
    /// Fold another tally in.
    pub fn add(&mut self, other: &IoTally) {
        self.ios += other.ios;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.time_ns = self.time_ns.saturating_add(other.time_ns);
    }

    /// Count one IO.
    pub fn add_io(&mut self, is_write: bool, bytes: u64, latency_ns: u64) {
        self.ios += 1;
        if is_write {
            self.bytes_written += bytes;
        } else {
            self.bytes_read += bytes;
        }
        self.time_ns = self.time_ns.saturating_add(latency_ns);
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// An open span on the stack.
struct SpanFrame {
    name: String,
    level: Option<u32>,
    own: IoTally,
    cum: IoTally,
    children: Vec<SpanNode>,
    dropped_children: u64,
}

/// Per-name aggregate over closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpanAgg {
    pub count: u64,
    pub own: IoTally,
    pub cum: IoTally,
}

pub(crate) struct ObsInner {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) hists: BTreeMap<String, LatencyHist>,
    stack: Vec<SpanFrame>,
    pub(crate) span_aggr: BTreeMap<String, SpanAgg>,
    pub(crate) levels: BTreeMap<u32, IoTally>,
    pub(crate) attributed: IoTally,
    pub(crate) unattributed: IoTally,
    pub(crate) device: IoTally,
    pub(crate) roots: IoTally,
    pub(crate) root_count: u64,
    pub(crate) model: Option<ModelParams>,
    pub(crate) residual: ResidualAcc,
    last_root: Option<SpanNode>,
}

impl ObsInner {
    fn new() -> Self {
        ObsInner {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            stack: Vec::new(),
            span_aggr: BTreeMap::new(),
            levels: BTreeMap::new(),
            attributed: IoTally::default(),
            unattributed: IoTally::default(),
            device: IoTally::default(),
            roots: IoTally::default(),
            root_count: 0,
            model: None,
            residual: ResidualAcc::default(),
            last_root: None,
        }
    }
}

/// Cloneable handle to one observability domain: a registry, a span stack,
/// and the attribution/residual state they share. Clones see the same
/// state; typically one `Obs` is shared between an
/// [`crate::ObservedDevice`], an [`crate::ObservedDict`], and the tree it
/// instruments.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Mutex<ObsInner>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A fresh, empty registry with no model installed.
    pub fn new() -> Self {
        Obs {
            inner: Arc::new(Mutex::new(ObsInner::new())),
        }
    }

    /// A fresh registry with a model-residual channel installed.
    pub fn with_model(params: ModelParams) -> Self {
        let o = Self::new();
        o.set_model(params);
        o
    }

    /// Install (or replace) the model parameters the residual channel
    /// prices IOs with.
    pub fn set_model(&self, params: ModelParams) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .model = Some(params);
    }

    // ------------------------------------------------------------------
    // Plain metrics
    // ------------------------------------------------------------------

    /// Add `by` to a counter (created at zero).
    pub fn inc(&self, name: &str, by: u64) {
        *self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
            .entry(name.to_string())
            .or_insert(0) += by;
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Record a nanosecond duration into a named histogram.
    pub fn observe_ns(&self, hist: &str, ns: u64) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .hists
            .entry(hist.to_string())
            .or_default()
            .record_ns(ns);
    }

    // ------------------------------------------------------------------
    // Spans
    // ------------------------------------------------------------------

    /// Open an unleveled span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open_span(name, None)
    }

    /// Open a span descending into tree level `level`.
    pub fn span_at(&self, name: &str, level: u32) -> SpanGuard {
        self.open_span(name, Some(level))
    }

    /// Open a level span one level below the innermost enclosing level
    /// span (level 0 when none is open) — recursive descents get their
    /// depth from the nesting itself.
    pub fn descend(&self, name: &str) -> SpanGuard {
        let level = {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner
                .stack
                .iter()
                .rev()
                .find_map(|f| f.level)
                .map(|l| l + 1)
                .unwrap_or(0)
        };
        self.open_span(name, Some(level))
    }

    fn open_span(&self, name: &str, level: Option<u32>) -> SpanGuard {
        let token = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.stack.push(SpanFrame {
                name: name.to_string(),
                level,
                own: IoTally::default(),
                cum: IoTally::default(),
                children: Vec::new(),
                dropped_children: 0,
            });
            inner.stack.len() - 1
        };
        SpanGuard {
            obs: self.clone(),
            token,
        }
    }

    /// Close the span opened at `token` and any still-open descendants.
    pub(crate) fn close_span(&self, token: usize) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        while inner.stack.len() > token {
            let frame = inner.stack.pop().expect("nonempty");
            let mut cum = frame.cum;
            cum.add(&frame.own);
            let node = SpanNode {
                name: frame.name,
                level: frame.level,
                own: frame.own,
                cum,
                children: frame.children,
                dropped_children: frame.dropped_children,
            };
            let agg = inner.span_aggr.entry(node.name.clone()).or_default();
            agg.count += 1;
            agg.own.add(&node.own);
            agg.cum.add(&cum);
            match inner.stack.last_mut() {
                Some(parent) => {
                    parent.cum.add(&cum);
                    if parent.children.len() < MAX_CHILDREN {
                        parent.children.push(node);
                    } else {
                        parent.dropped_children += 1;
                    }
                }
                None => {
                    inner.roots.add(&cum);
                    inner.root_count += 1;
                    let hist_name = format!("op.{}.io_time_ns", node.name);
                    inner
                        .hists
                        .entry(hist_name)
                        .or_default()
                        .record_ns(cum.time_ns);
                    inner.last_root = Some(node);
                }
            }
        }
    }

    /// The most recently closed root span's full tree.
    pub fn last_root(&self) -> Option<SpanNode> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last_root
            .clone()
    }

    // ------------------------------------------------------------------
    // IO ingestion (called by ObservedDevice)
    // ------------------------------------------------------------------

    /// Record one successful device IO: updates device totals, per-kind
    /// counters and latency histograms, span and per-level attribution,
    /// and the model-residual channel.
    pub fn record_io(&self, is_write: bool, bytes: u64, latency_ns: u64) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        inner.device.add_io(is_write, bytes, latency_ns);
        let (kc, kb, kh) = if is_write {
            (
                "device.write.count",
                "device.write.bytes",
                "device.write.latency_ns",
            )
        } else {
            (
                "device.read.count",
                "device.read.bytes",
                "device.read.latency_ns",
            )
        };
        *inner.counters.entry(kc.to_string()).or_insert(0) += 1;
        *inner.counters.entry(kb.to_string()).or_insert(0) += bytes;
        inner
            .hists
            .entry(kh.to_string())
            .or_default()
            .record_ns(latency_ns);
        inner
            .hists
            .entry("device.io.latency_ns".to_string())
            .or_default()
            .record_ns(latency_ns);

        // Span attribution: innermost open span owns the IO; the nearest
        // enclosing level span places it on a tree level.
        let level = inner.stack.iter().rev().find_map(|f| f.level);
        match inner.stack.last_mut() {
            Some(top) => {
                top.own.add_io(is_write, bytes, latency_ns);
                inner.attributed.add_io(is_write, bytes, latency_ns);
            }
            None => inner.unattributed.add_io(is_write, bytes, latency_ns),
        }
        if let Some(l) = level {
            inner
                .levels
                .entry(l)
                .or_default()
                .add_io(is_write, bytes, latency_ns);
        }

        if let Some(model) = inner.model.clone() {
            inner.residual.record(&model, bytes, latency_ns);
        }
    }

    /// Record a failed device IO.
    pub fn record_error(&self, is_write: bool) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *inner
            .counters
            .entry("device.errors".to_string())
            .or_insert(0) += 1;
        let k = if is_write {
            "device.write.errors"
        } else {
            "device.read.errors"
        };
        *inner.counters.entry(k.to_string()).or_insert(0) += 1;
    }

    // ------------------------------------------------------------------
    // External counter ingestion
    // ------------------------------------------------------------------

    /// Ingest the pager's cumulative counters (cache hit/miss/eviction
    /// rates in the snapshot derive from these).
    pub fn record_pager(&self, c: &PagerCounters) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        for (k, v) in [
            ("pager.hits", c.hits),
            ("pager.misses", c.misses),
            ("pager.evictions", c.evictions),
            ("pager.writebacks", c.writebacks),
            ("pager.ios", c.ios),
            ("pager.bytes_read", c.bytes_read),
            ("pager.bytes_written", c.bytes_written),
            ("pager.io_time_ns", c.io_time_ns),
        ] {
            inner.counters.insert(k.to_string(), v);
        }
    }

    /// Ingest a [`dam_storage::FaultSwitch`]'s cumulative counters.
    pub fn record_fault_stats(&self, s: &FaultStats) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .counters
            .insert("fault.ios_seen".to_string(), s.ios_seen);
        inner
            .counters
            .insert("fault.injected".to_string(), s.faults_injected);
    }

    /// Ingest a [`dam_storage::RetryHandle`]'s cumulative counters.
    pub fn record_retry_stats(&self, s: &RetryStats) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .counters
            .insert("retry.retries".to_string(), s.retries);
        inner
            .counters
            .insert("retry.absorbed".to_string(), s.absorbed);
        inner
            .counters
            .insert("retry.giveups".to_string(), s.giveups);
    }

    // ------------------------------------------------------------------
    // Merging (parallel sweep support)
    // ------------------------------------------------------------------

    /// Fold a finished worker registry into this one.
    ///
    /// This is what makes per-worker observability safe under parallel
    /// sweeps: each sweep point records into its own `Obs`, and the sweep
    /// engine folds the per-point registries back **in input order**, so
    /// the merged registry — and hence its snapshot JSON — is byte-for-byte
    /// identical at any worker count. Semantics per channel:
    ///
    /// * counters, histograms, per-level tallies, span aggregates, the
    ///   attribution tallies (`attributed`/`unattributed`/`device`/`roots`),
    ///   and the model-residual accumulator **add** (so ingested cumulative
    ///   counters like `pager.*` become sweep-wide totals);
    /// * `last_root` takes the source's value (last merge wins —
    ///   deterministic because merges happen in input order);
    /// * this registry's model parameters are kept (the source's are used
    ///   only if none are installed here).
    ///
    /// Spans still open in the source are ignored — merge finished
    /// registries only. Merging a registry into itself is a no-op. The two
    /// locks are taken source-then-destination from the single merging
    /// thread; concurrent cross-merges of the same pair are not supported.
    pub fn merge_from(&self, other: &Obs) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let src = other.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let dst = &mut *guard;
        for (k, v) in &src.counters {
            *dst.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &src.hists {
            dst.hists.entry(k.clone()).or_default().merge(h);
        }
        for (k, a) in &src.span_aggr {
            let agg = dst.span_aggr.entry(k.clone()).or_default();
            agg.count += a.count;
            agg.own.add(&a.own);
            agg.cum.add(&a.cum);
        }
        for (l, t) in &src.levels {
            dst.levels.entry(*l).or_default().add(t);
        }
        dst.attributed.add(&src.attributed);
        dst.unattributed.add(&src.unattributed);
        dst.device.add(&src.device);
        dst.roots.add(&src.roots);
        dst.root_count += src.root_count;
        dst.residual.merge(&src.residual);
        if dst.model.is_none() {
            dst.model = src.model.clone();
        }
        if src.last_root.is_some() {
            dst.last_root = src.last_root.clone();
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Clear every metric, tally, and open span (model parameters are
    /// kept). Outstanding [`SpanGuard`]s become no-ops.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let model = inner.model.take();
        *inner = ObsInner::new();
        inner.model = model;
    }

    /// Take a deterministic snapshot of everything the registry holds.
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        crate::snapshot::build(&self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists() {
        let o = Obs::new();
        o.inc("a", 2);
        o.inc("a", 3);
        o.observe_ns("h", 100);
        o.observe_ns("h", 200);
        assert_eq!(o.counter("a"), 5);
        assert_eq!(o.counter("b"), 0);
        let snap = o.snapshot();
        assert_eq!(snap.hists.get("h").unwrap().count, 2);
    }

    #[test]
    fn spans_attribute_and_fold() {
        let o = Obs::new();
        {
            let _root = o.span("op.get");
            o.record_io(false, 100, 10);
            {
                let _l0 = o.descend("level");
                o.record_io(false, 200, 20);
                {
                    let _l1 = o.descend("level");
                    o.record_io(true, 50, 5);
                }
            }
        }
        let root = o.last_root().expect("root closed");
        assert_eq!(root.name, "op.get");
        assert_eq!(root.own.ios, 1);
        assert_eq!(root.cum.ios, 3);
        assert_eq!(root.cum.bytes_read, 300);
        assert_eq!(root.cum.bytes_written, 50);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].level, Some(0));
        assert_eq!(root.children[0].children[0].level, Some(1));
        let snap = o.snapshot();
        assert_eq!(snap.levels.get(&0).unwrap().ios, 1);
        assert_eq!(snap.levels.get(&1).unwrap().ios, 1);
        assert_eq!(snap.attributed.ios, 3);
        assert_eq!(snap.unattributed.ios, 0);
        assert_eq!(snap.roots, snap.attributed);
    }

    #[test]
    fn unattributed_io_is_separate() {
        let o = Obs::new();
        o.record_io(false, 64, 1);
        {
            let _s = o.span("x");
            o.record_io(true, 32, 1);
        }
        let snap = o.snapshot();
        assert_eq!(snap.unattributed.ios, 1);
        assert_eq!(snap.attributed.ios, 1);
        assert_eq!(snap.device.ios, 2);
        assert_eq!(snap.device.total_bytes(), 96);
    }

    #[test]
    fn out_of_order_guard_drop_force_closes_subtree() {
        let o = Obs::new();
        let root = o.span("outer");
        let _inner = o.span("inner");
        o.record_io(false, 10, 1);
        drop(root); // closes inner too
        let snap = o.snapshot();
        assert_eq!(snap.spans.get("inner").unwrap().count, 1);
        assert_eq!(snap.spans.get("outer").unwrap().cum.ios, 1);
        // the leftover inner guard must be a no-op now
        drop(_inner);
        assert_eq!(o.snapshot().spans.get("inner").unwrap().count, 1);
    }

    /// Drive one registry with `2n` interleaved workloads vs two registries
    /// with `n` each, merged: the snapshots must coincide exactly.
    #[test]
    fn merge_equals_combined_recording() {
        let record = |o: &Obs, salt: u64| {
            let _root = o.span("op.get");
            o.record_io(false, 4096 + salt, 100 + salt);
            o.inc("c", salt);
            {
                let _l = o.span_at("level", (salt % 3) as u32);
                o.record_io(true, 512, 7 * salt + 1);
            }
        };
        let combined = Obs::new();
        let a = Obs::new();
        let b = Obs::new();
        for salt in 0..20u64 {
            record(&combined, salt);
            record(if salt < 10 { &a } else { &b }, salt);
        }
        a.merge_from(&b);
        let left = a.snapshot();
        let right = combined.snapshot();
        assert_eq!(left.counters, right.counters);
        assert_eq!(left.hists, right.hists);
        assert_eq!(left.levels, right.levels);
        assert_eq!(left.spans, right.spans);
        assert_eq!(left.attributed, right.attributed);
        assert_eq!(left.device, right.device);
        assert_eq!(left.roots, right.roots);
        assert_eq!(left.root_count, right.root_count);
        assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn merge_folds_residuals_and_keeps_model() {
        use dam_storage::profiles;
        let params = crate::ModelParams::from_hdd(&profiles::toshiba_dt01aca050());
        let a = Obs::with_model(params.clone());
        let b = Obs::with_model(params);
        a.record_io(false, 65536, 1000);
        b.record_io(false, 65536, 1000);
        b.record_io(true, 4096, 500);
        a.merge_from(&b);
        let r = a.snapshot().residual.expect("model installed");
        assert_eq!(r.ios, 3);
        // Merging a model-less registry must not clear the model.
        a.merge_from(&Obs::new());
        assert!(a.snapshot().residual.is_some());
        // Self-merge is a no-op.
        let before = a.snapshot();
        a.merge_from(&a.clone());
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn merge_into_empty_reproduces_source() {
        let src = Obs::new();
        {
            let _s = src.span("x");
            src.record_io(false, 128, 9);
        }
        src.record_io(true, 64, 3);
        let dst = Obs::new();
        dst.merge_from(&src);
        assert_eq!(dst.snapshot().to_json(), src.snapshot().to_json());
    }

    #[test]
    fn reset_keeps_model() {
        use dam_storage::profiles;
        let o = Obs::with_model(crate::ModelParams::from_hdd(&profiles::toshiba_dt01aca050()));
        o.record_io(false, 65536, 1000);
        o.reset();
        let snap = o.snapshot();
        assert_eq!(snap.device.ios, 0);
        assert!(snap.residual.is_none(), "no IOs after reset");
        o.record_io(false, 65536, 1000);
        assert!(o.snapshot().residual.is_some(), "model survived reset");
    }
}
