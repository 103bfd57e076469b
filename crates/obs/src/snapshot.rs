//! Deterministic snapshots: JSON, human-readable tables, and schema checks.
//!
//! Everything is ordered (`BTreeMap`) and keyed on simulated time, so two
//! identical runs render byte-identical snapshots — asserted by
//! `tests/observability.rs` and relied on by CI's schema validation step.

use crate::registry::{IoTally, ObsInner};
use crate::residual::ResidualReport;
use dam_storage::LatencyHist;
use std::collections::BTreeMap;

/// Percentile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, nanoseconds (log-bucket estimate, ≤12.5% error).
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
    /// Exact mean, nanoseconds.
    pub mean_ns: u64,
}

impl HistSummary {
    fn from_hist(h: &LatencyHist) -> Self {
        HistSummary {
            count: h.count(),
            p50_ns: h.quantile_ns(0.50),
            p90_ns: h.quantile_ns(0.90),
            p99_ns: h.quantile_ns(0.99),
            max_ns: h.max_ns(),
            mean_ns: h.mean_ns(),
        }
    }
}

/// Per-span-name aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans closed under this name.
    pub count: u64,
    /// IO attributed directly to these spans.
    pub own: IoTally,
    /// IO attributed to their subtrees (nested same-name spans make these
    /// sums overlap; `own` never overlaps).
    pub cum: IoTally,
}

/// A complete, deterministic picture of one [`crate::Obs`] registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters (includes ingested pager/fault/retry values).
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries.
    pub hists: BTreeMap<String, HistSummary>,
    /// Per-tree-level IO, from level spans.
    pub levels: BTreeMap<u32, IoTally>,
    /// Per-span-name aggregates.
    pub spans: BTreeMap<String, SpanSummary>,
    /// IO observed while some span was open.
    pub attributed: IoTally,
    /// IO observed with no span open (setup, background).
    pub unattributed: IoTally,
    /// All IO observed by the device wrapper.
    pub device: IoTally,
    /// Total IO folded into closed root spans.
    pub roots: IoTally,
    /// Root spans closed.
    pub root_count: u64,
    /// Derived metrics (cache hit rate, amplification, serving ratios, …),
    /// each a ratio of summed counters, so merged registries stay exact.
    pub derived: BTreeMap<String, f64>,
    /// Model-residual report, when a model is installed and IOs were seen.
    pub residual: Option<ResidualReport>,
}

/// Build a snapshot from the registry's internals (called under its lock).
pub(crate) fn build(inner: &ObsInner) -> MetricsSnapshot {
    let hists = inner
        .hists
        .iter()
        .map(|(k, h)| (k.clone(), HistSummary::from_hist(h)))
        .collect();
    let spans = inner
        .span_aggr
        .iter()
        .map(|(k, a)| {
            (
                k.clone(),
                SpanSummary {
                    count: a.count,
                    own: a.own,
                    cum: a.cum,
                },
            )
        })
        .collect();

    let mut derived = BTreeMap::new();
    let c = |name: &str| inner.counters.get(name).copied();
    if let (Some(h), Some(m)) = (c("pager.hits"), c("pager.misses")) {
        if h + m > 0 {
            derived.insert("cache.hit_rate".to_string(), h as f64 / (h + m) as f64);
        }
        if let Some(e) = c("pager.evictions") {
            if h + m > 0 {
                derived.insert("cache.eviction_rate".to_string(), e as f64 / (h + m) as f64);
            }
        }
    }
    if let Some(lr) = c("logical.read.bytes") {
        if lr > 0 {
            derived.insert(
                "amp.read".to_string(),
                inner.device.bytes_read as f64 / lr as f64,
            );
        }
    }
    if let Some(lw) = c("logical.write.bytes") {
        if lw > 0 {
            derived.insert(
                "amp.write".to_string(),
                inner.device.bytes_written as f64 / lw as f64,
            );
        }
    }
    derived.insert("io.time_s".to_string(), inner.device.time_ns as f64 * 1e-9);
    // Serving ratios, from counters that add across merged runs.
    for (name, num, den) in [
        (
            "serve.slot_utilization",
            "serve.slots_used",
            "serve.slot_capacity",
        ),
        (
            "serve.coalesce_rate",
            "serve.coalesced_blocks",
            "serve.blocks_served",
        ),
        ("serve.ops_per_step", "serve.ops", "serve.steps"),
    ] {
        if let (Some(n), Some(d)) = (c(num), c(den)) {
            if d > 0 {
                derived.insert(name.to_string(), n as f64 / d as f64);
            }
        }
    }

    let residual = inner
        .model
        .as_ref()
        .and_then(|m| ResidualReport::from_acc(&m.profile, &inner.residual));

    MetricsSnapshot {
        counters: inner.counters.clone(),
        hists,
        levels: inner.levels.clone(),
        spans,
        attributed: inner.attributed,
        unattributed: inner.unattributed,
        device: inner.device,
        roots: inner.roots,
        root_count: inner.root_count,
        derived,
        residual,
    }
}

// ----------------------------------------------------------------------
// JSON
// ----------------------------------------------------------------------

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Finite floats via the shortest round-trip repr (valid JSON); non-finite
/// values become `null`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` never emits NaN/inf here, but normalize "-0.0".
        if s == "-0.0" {
            "0.0".to_string()
        } else {
            s
        }
    } else {
        "null".to_string()
    }
}

fn push_tally(out: &mut String, t: &IoTally) {
    out.push_str(&format!(
        "{{\"ios\":{},\"bytes_read\":{},\"bytes_written\":{},\"time_ns\":{}}}",
        t.ios, t.bytes_read, t.bytes_written, t.time_ns
    ));
}

impl MetricsSnapshot {
    /// Deterministic JSON rendering (keys sorted, stable float formatting).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push('{');

        o.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_str(&mut o, k);
            o.push_str(&format!(":{v}"));
        }
        o.push_str("},");

        o.push_str("\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_str(&mut o, k);
            o.push_str(&format!(
                ":{{\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
                h.count, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns, h.mean_ns
            ));
        }
        o.push_str("},");

        o.push_str("\"levels\":{");
        for (i, (l, t)) in self.levels.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("\"{l}\":"));
            push_tally(&mut o, t);
        }
        o.push_str("},");

        o.push_str("\"spans\":{");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_str(&mut o, k);
            o.push_str(&format!(":{{\"count\":{},\"own\":", s.count));
            push_tally(&mut o, &s.own);
            o.push_str(",\"cum\":");
            push_tally(&mut o, &s.cum);
            o.push('}');
        }
        o.push_str("},");

        o.push_str("\"io\":{\"attributed\":");
        push_tally(&mut o, &self.attributed);
        o.push_str(",\"unattributed\":");
        push_tally(&mut o, &self.unattributed);
        o.push_str(",\"device\":");
        push_tally(&mut o, &self.device);
        o.push_str(",\"roots\":");
        push_tally(&mut o, &self.roots);
        o.push_str(&format!(",\"root_count\":{}}},", self.root_count));

        o.push_str("\"derived\":{");
        for (i, (k, v)) in self.derived.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_str(&mut o, k);
            o.push(':');
            o.push_str(&fmt_f64(*v));
        }
        o.push_str("},");

        o.push_str("\"residual\":");
        match &self.residual {
            None => o.push_str("null"),
            Some(r) => {
                o.push_str("{\"profile\":");
                push_str(&mut o, &r.profile);
                o.push_str(&format!(
                    ",\"ios\":{},\"measured_s\":{},\"affine_s\":{},\"dam_ios\":{},\"dam_s\":{},\"pdam_steps\":{},\"pdam_s\":{},\"ratio_affine\":{},\"ratio_dam\":{},\"ratio_pdam\":{}}}",
                    r.ios,
                    fmt_f64(r.measured_s),
                    fmt_f64(r.affine_s),
                    fmt_f64(r.dam_ios),
                    fmt_f64(r.dam_s),
                    fmt_f64(r.pdam_steps),
                    fmt_f64(r.pdam_s),
                    fmt_f64(r.ratio_affine),
                    fmt_f64(r.ratio_dam),
                    fmt_f64(r.ratio_pdam)
                ));
            }
        }

        o.push('}');
        o
    }

    /// Human-readable multi-section table.
    pub fn render_table(&self) -> String {
        let mut o = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;

        o.push_str("== device IO ==\n");
        o.push_str(&format!(
            "  observed: {} ios, {} B read, {} B written, {:.3} ms\n",
            self.device.ios,
            self.device.bytes_read,
            self.device.bytes_written,
            ms(self.device.time_ns)
        ));
        o.push_str(&format!(
            "  attributed to spans: {} ios ({} unattributed)\n",
            self.attributed.ios, self.unattributed.ios
        ));
        for k in [
            "device.errors",
            "fault.ios_seen",
            "fault.injected",
            "retry.retries",
            "retry.absorbed",
            "retry.giveups",
        ] {
            if let Some(v) = self.counters.get(k) {
                o.push_str(&format!("  {k}: {v}\n"));
            }
        }

        if !self.levels.is_empty() {
            o.push_str("\n== per-level IO ==\n");
            o.push_str("  level      ios     bytes_read  bytes_written    time_ms\n");
            for (l, t) in &self.levels {
                o.push_str(&format!(
                    "  {:>5} {:>8} {:>14} {:>14} {:>10.3}\n",
                    l,
                    t.ios,
                    t.bytes_read,
                    t.bytes_written,
                    ms(t.time_ns)
                ));
            }
        }

        if !self.spans.is_empty() {
            o.push_str("\n== spans ==\n");
            o.push_str("  name                          count    own_ios    cum_ios     cum_ms\n");
            for (k, s) in &self.spans {
                o.push_str(&format!(
                    "  {:<28} {:>6} {:>10} {:>10} {:>10.3}\n",
                    k,
                    s.count,
                    s.own.ios,
                    s.cum.ios,
                    ms(s.cum.time_ns)
                ));
            }
        }

        if !self.hists.is_empty() {
            o.push_str("\n== latency percentiles (ms) ==\n");
            o.push_str(
                "  histogram                         count       p50       p90       p99       max\n",
            );
            for (k, h) in &self.hists {
                o.push_str(&format!(
                    "  {:<32} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                    k,
                    h.count,
                    ms(h.p50_ns),
                    ms(h.p90_ns),
                    ms(h.p99_ns),
                    ms(h.max_ns)
                ));
            }
        }

        let pager: Vec<&str> = [
            "pager.hits",
            "pager.misses",
            "pager.evictions",
            "pager.writebacks",
        ]
        .into_iter()
        .filter(|k| self.counters.contains_key(*k))
        .collect();
        if !pager.is_empty() || !self.derived.is_empty() {
            o.push_str("\n== cache & derived ==\n");
            for k in pager {
                o.push_str(&format!("  {k}: {}\n", self.counters[k]));
            }
            for (k, v) in &self.derived {
                o.push_str(&format!("  {k}: {v:.4}\n"));
            }
        }

        if let Some(r) = &self.residual {
            o.push_str("\n== model residuals (measured / predicted) ==\n");
            o.push_str(&format!("  profile: {}\n", r.profile));
            o.push_str(&format!(
                "  measured: {:.4} s over {} ios\n",
                r.measured_s, r.ios
            ));
            o.push_str(&format!(
                "  affine: pred {:.4} s, ratio {:.3}\n",
                r.affine_s, r.ratio_affine
            ));
            o.push_str(&format!(
                "  DAM:    pred {:.4} s ({:.0} block IOs), ratio {:.3}\n",
                r.dam_s, r.dam_ios, r.ratio_dam
            ));
            o.push_str(&format!(
                "  PDAM:   pred {:.4} s ({:.0} steps), ratio {:.3}\n",
                r.pdam_s, r.pdam_steps, r.ratio_pdam
            ));
        }
        o
    }

    /// Cross-check the deduplicated IO counting across the wrapper stack.
    ///
    /// With the canonical stack `Observed(Retrying(FaultInjector(device)))`
    /// every raw attempt the injector saw must be accounted for exactly
    /// once above it: `attempts = successes + retries + surfaced errors`.
    /// Also asserts `attributed + unattributed = observed totals` (span
    /// attribution loses nothing). Counters that were never ingested are
    /// skipped, not failed.
    pub fn check_io_consistency(&self) -> Result<(), String> {
        let mut sum = self.attributed;
        sum.add(&self.unattributed);
        if sum != self.device {
            return Err(format!(
                "attribution leak: attributed {:?} + unattributed {:?} != device {:?}",
                self.attributed, self.unattributed, self.device
            ));
        }
        if let Some(&attempts) = self.counters.get("fault.ios_seen") {
            let successes = self.device.ios;
            let retries = self.counters.get("retry.retries").copied().unwrap_or(0);
            let errors = self.counters.get("device.errors").copied().unwrap_or(0);
            if attempts != successes + retries + errors {
                return Err(format!(
                    "attempt accounting: injector saw {attempts} attempts but \
                     successes {successes} + retries {retries} + errors {errors} \
                     = {}",
                    successes + retries + errors
                ));
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Schema validation
// ----------------------------------------------------------------------

/// Validate a snapshot JSON document against a schema file listing required
/// keys.
///
/// The schema is a JSON document whose `required_keys` array lists metric
/// and structural key names; each must occur in the snapshot as a quoted
/// key (`"name":`). Renaming or dropping a metric fails validation, which
/// is exactly what the CI step wants to catch. Returns the missing keys.
pub fn validate_snapshot_json(snapshot_json: &str, schema_text: &str) -> Result<(), Vec<String>> {
    let mut keys = Vec::new();
    let mut rest = schema_text;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('"') else { break };
        let token = &tail[..end];
        if token != "required_keys" && !token.is_empty() {
            keys.push(token.to_string());
        }
        rest = &tail[end + 1..];
    }
    let missing: Vec<String> = keys
        .into_iter()
        .filter(|k| !snapshot_json.contains(&format!("\"{k}\":")))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Obs;

    fn sample() -> MetricsSnapshot {
        let o = Obs::new();
        {
            let _root = o.span("t.get");
            o.record_io(false, 4096, 1500);
            let _l = o.span_at("t.level", 0);
            o.record_io(true, 512, 700);
        }
        o.snapshot()
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"device.read.count\":1"));
        assert!(a.contains("\"residual\":null"));
    }

    #[test]
    fn table_renders_every_section() {
        let t = sample().render_table();
        assert!(t.contains("== device IO =="));
        assert!(t.contains("== per-level IO =="));
        assert!(t.contains("== spans =="));
        assert!(t.contains("== latency percentiles"));
    }

    #[test]
    fn schema_validation_catches_renames() {
        let snap = sample().to_json();
        let schema = r#"{"required_keys":["counters","device.read.count","io","attributed"]}"#;
        assert!(validate_snapshot_json(&snap, schema).is_ok());
        let schema2 = r#"{"required_keys":["device.read.total"]}"#;
        let missing = validate_snapshot_json(&snap, schema2).unwrap_err();
        assert_eq!(missing, vec!["device.read.total".to_string()]);
    }

    #[test]
    fn consistency_check_balances_the_stack() {
        let o = Obs::new();
        o.record_io(false, 100, 10);
        o.record_io(true, 100, 10);
        o.record_error(false);
        o.record_fault_stats(&dam_storage::FaultStats {
            ios_seen: 5,
            faults_injected: 3,
        });
        o.record_retry_stats(&dam_storage::RetryStats {
            retries: 2,
            absorbed: 1,
            giveups: 1,
        });
        // 5 attempts = 2 successes + 2 retries + 1 surfaced error
        o.snapshot().check_io_consistency().unwrap();
        // Tamper: one more attempt than accounted for.
        o.record_fault_stats(&dam_storage::FaultStats {
            ios_seen: 6,
            faults_injected: 3,
        });
        assert!(o.snapshot().check_io_consistency().is_err());
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(-0.0), "0.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1e-9), "1e-9");
    }
}
