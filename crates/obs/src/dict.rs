//! [`ObservedDict`]: dictionary-level instrumentation.
//!
//! Wraps any [`Dictionary`] (including `&mut dyn Dictionary`) and, per
//! operation: opens a root span named `"<dict>.<op>"` (so every device IO
//! the operation issues is attributed to it, with tree-internal level/drain
//! spans nesting underneath), records the operation's reported
//! [`OpCost`] into per-op latency histograms, and maintains the logical
//! byte counters that read/write amplification derives from:
//!
//! * `logical.read.bytes` — keys probed plus values returned,
//! * `logical.write.bytes` — keys plus values handed to insert/delete.
//!
//! Amplification in the snapshot is then `device bytes / logical bytes`
//! per direction — the flash-evaluation literature's first-class metric.

use crate::registry::Obs;
use dam_kv::{BatchOp, Dictionary, KvError, KvPair, OpCost};

/// A [`Dictionary`] wrapper that instruments every operation.
pub struct ObservedDict<D: Dictionary> {
    inner: D,
    obs: Obs,
    name: String,
}

impl<D: Dictionary> ObservedDict<D> {
    /// Wrap `inner` under `name` (used as the span-name prefix).
    pub fn new(inner: D, name: &str, obs: Obs) -> Self {
        ObservedDict {
            inner,
            obs,
            name: name.to_string(),
        }
    }

    /// The wrapped dictionary.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Record per-op metrics once the op's root span has closed. The
    /// `op.<name>.<op>.io_time_ns` latency histogram is filled by the
    /// registry when the root span closes (device-measured cumulative IO
    /// time); here we only count the op and record the dictionary's
    /// self-reported cost, so the two can be cross-checked.
    fn finish(&self, op: &str) {
        let cost = self.inner.last_op_cost();
        let prefix = format!("op.{}.{op}", self.name);
        self.obs.inc(&format!("{prefix}.count"), 1);
        self.obs
            .inc(&format!("{prefix}.self_reported_io_ns"), cost.io_time_ns);
    }
}

impl<D: Dictionary> Dictionary for ObservedDict<D> {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let r = {
            let _span = self.obs.span(&format!("{}.insert", self.name));
            self.inner.insert(key, value)
        };
        self.obs
            .inc("logical.write.bytes", (key.len() + value.len()) as u64);
        self.finish("insert");
        r
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        let r = {
            let _span = self.obs.span(&format!("{}.delete", self.name));
            self.inner.delete(key)
        };
        self.obs.inc("logical.write.bytes", key.len() as u64);
        self.finish("delete");
        r
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let r = {
            let _span = self.obs.span(&format!("{}.get", self.name));
            self.inner.get(key)
        };
        let returned = match &r {
            Ok(Some(v)) => v.len(),
            _ => 0,
        };
        self.obs
            .inc("logical.read.bytes", (key.len() + returned) as u64);
        self.finish("get");
        r
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>, KvError> {
        let r = {
            let _span = self.obs.span(&format!("{}.range", self.name));
            self.inner.range(start, end)
        };
        if let Ok(pairs) = &r {
            let bytes: u64 = pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
            self.obs.inc("logical.read.bytes", bytes);
        }
        self.finish("range");
        r
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // One op, one span: the inner dictionary's batch path (and its
        // single cost window) is what runs, not a loop of wrapped inserts.
        let r = {
            let _span = self.obs.span(&format!("{}.apply_batch", self.name));
            self.inner.apply_batch(batch)
        };
        let bytes: usize = batch
            .iter()
            .map(|op| match op {
                BatchOp::Put { key, value } => key.len() + value.len(),
                BatchOp::Del { key } => key.len(),
            })
            .sum();
        self.obs.inc("logical.write.bytes", bytes as u64);
        self.finish("apply_batch");
        r
    }

    fn last_op_cost(&self) -> OpCost {
        self.inner.last_op_cost()
    }

    fn buffered_bytes(&self) -> usize {
        self.inner.buffered_bytes()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        let r = {
            let _span = self.obs.span(&format!("{}.sync", self.name));
            self.inner.sync()
        };
        self.finish("sync");
        r
    }

    fn len(&mut self) -> Result<u64, KvError> {
        let _span = self.obs.span(&format!("{}.len", self.name));
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// In-memory dictionary for wrapper-behavior tests.
    #[derive(Default)]
    struct MemDict {
        map: BTreeMap<Vec<u8>, Vec<u8>>,
    }

    impl Dictionary for MemDict {
        fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
            self.map.insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
            self.map.remove(key);
            Ok(())
        }
        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
            Ok(self.map.get(key).cloned())
        }
        fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>, KvError> {
            Ok(self
                .map
                .range(start.to_vec()..end.to_vec())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }
        fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
            for op in batch {
                match op {
                    BatchOp::Put { key, value } => self.insert(key, value)?,
                    BatchOp::Del { key } => self.delete(key)?,
                }
            }
            Ok(())
        }
        fn last_op_cost(&self) -> OpCost {
            OpCost::default()
        }
        fn len(&mut self) -> Result<u64, KvError> {
            Ok(self.map.len() as u64)
        }
    }

    #[test]
    fn wrapper_preserves_semantics_and_counts_ops() {
        let obs = Obs::new();
        let mut d = MemDict::default();
        // Wrap a borrow: the blanket `&mut T` Dictionary impl at work.
        let mut od = ObservedDict::new(&mut d, "mem", obs.clone());
        od.insert(b"k1", b"hello").unwrap();
        od.insert(b"k2", b"world!").unwrap();
        assert_eq!(od.get(b"k1").unwrap(), Some(b"hello".to_vec()));
        assert_eq!(od.get(b"nope").unwrap(), None);
        assert_eq!(od.range(b"k0", b"k9").unwrap().len(), 2);
        od.delete(b"k1").unwrap();
        od.sync().unwrap();
        assert_eq!(od.len().unwrap(), 1);

        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("op.mem.insert.count"), Some(&2));
        assert_eq!(snap.counters.get("op.mem.get.count"), Some(&2));
        assert_eq!(snap.counters.get("op.mem.delete.count"), Some(&1));
        // logical writes: (2+5) + (2+6) on insert, +2 on delete
        assert_eq!(snap.counters.get("logical.write.bytes"), Some(&17));
        // logical reads: get hit (2+5), get miss (4+0), range (2+5 + 2+6)
        assert_eq!(snap.counters.get("logical.read.bytes"), Some(&26));
        assert_eq!(snap.spans.get("mem.insert").unwrap().count, 2);
        assert!(snap.hists.contains_key("op.mem.get.io_time_ns"));
    }

    #[test]
    fn batch_is_forwarded_as_one_op() {
        let obs = Obs::new();
        let mut od = ObservedDict::new(MemDict::default(), "mem", obs.clone());
        od.apply_batch(&[
            BatchOp::Put {
                key: b"k1".to_vec(),
                value: b"abc".to_vec(),
            },
            BatchOp::Del {
                key: b"k2".to_vec(),
            },
        ])
        .unwrap();
        assert_eq!(od.get(b"k1").unwrap(), Some(b"abc".to_vec()));
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("op.mem.apply_batch.count"), Some(&1));
        assert_eq!(snap.counters.get("op.mem.insert.count"), None);
        assert_eq!(snap.spans.get("mem.apply_batch").unwrap().count, 1);
        assert_eq!(snap.counters.get("logical.write.bytes"), Some(&7));
    }
}
