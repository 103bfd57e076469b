//! The operation alphabet and its reference model.
//!
//! [`ServeOp`] is the one operation type of the workspace's correctness
//! story: engine clients issue it, `dam-check` generates adversarial
//! traces of it, and [`Oracle`] — a plain `BTreeMap` — defines what every
//! op must answer. The engine's commit log ([`crate::oracle_divergence`])
//! and every `dam-check` mode are compared against that one model.

use dam_kv::{KvPair, Pairs};
use std::collections::BTreeMap;

/// One dictionary operation. Keys and values are stored inline, so a trace
/// is self-contained (a shrunk reproducer pastes straight into a test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOp {
    /// Insert or overwrite.
    Put {
        /// Key to insert.
        key: Vec<u8>,
        /// Value to store.
        value: Vec<u8>,
    },
    /// Delete (absent keys are a no-op).
    Del {
        /// Key to delete.
        key: Vec<u8>,
    },
    /// Point query.
    Get {
        /// Key to look up.
        key: Vec<u8>,
    },
    /// Range query over `start ≤ key < end`; empty when `start >= end`
    /// (the engine fans it out to all shards).
    Range {
        /// Inclusive lower bound.
        start: Vec<u8>,
        /// Exclusive upper bound.
        end: Vec<u8>,
    },
    /// Checkpoint (every shard, in the engine).
    SyncAll,
    /// Count live keys.
    Len,
}

/// The answer an operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAnswer {
    /// Writes and syncs.
    Unit,
    /// Point-query result.
    Val(Option<Vec<u8>>),
    /// Range-query result.
    Pairs(Pairs),
    /// `Len` result.
    Count(u64),
}

/// The reference dictionary: whatever the trees and the engine answer,
/// this is the truth they are compared against, byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl FromIterator<KvPair> for Oracle {
    fn from_iter<I: IntoIterator<Item = KvPair>>(pairs: I) -> Self {
        Oracle {
            map: pairs.into_iter().collect(),
        }
    }
}

impl Oracle {
    /// Answer `op`, applying it first if it writes. `SyncAll` changes
    /// nothing.
    pub fn apply(&mut self, op: &ServeOp) -> ServeAnswer {
        match op {
            ServeOp::Put { key, value } => {
                self.map.insert(key.clone(), value.clone());
                ServeAnswer::Unit
            }
            ServeOp::Del { key } => {
                self.map.remove(key);
                ServeAnswer::Unit
            }
            ServeOp::Get { key } => ServeAnswer::Val(self.get(key)),
            ServeOp::Range { start, end } if start < end => ServeAnswer::Pairs(
                self.map
                    .range(start.clone()..end.clone())
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect(),
            ),
            ServeOp::Range { .. } => ServeAnswer::Pairs(Pairs::new()),
            ServeOp::SyncAll => ServeAnswer::Unit,
            ServeOp::Len => ServeAnswer::Count(self.map.len() as u64),
        }
    }

    /// Point query.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.get(key).cloned()
    }

    /// Every pair in key order.
    pub fn dump(&self) -> Pairs {
        self.map
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect()
    }

    /// An exclusive upper bound strictly above every stored key (one zero
    /// byte appended to the maximum key): with a `len` check, it makes a
    /// *finite* `range` call provably cover the whole dictionary.
    pub fn exclusive_upper_bound(&self) -> Vec<u8> {
        let mut b = self.map.keys().next_back().cloned().unwrap_or_default();
        b.push(0);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_map_semantics() {
        let mut o = Oracle::default();
        let put = |k: &[u8], v: &[u8]| ServeOp::Put {
            key: k.to_vec(),
            value: v.to_vec(),
        };
        let range = |s: &[u8], e: &[u8]| ServeOp::Range {
            start: s.to_vec(),
            end: e.to_vec(),
        };
        assert_eq!(o.apply(&put(b"a", b"1")), ServeAnswer::Unit);
        o.apply(&put(b"", b""));
        o.apply(&put(b"a", b"2"));
        o.apply(&ServeOp::Del {
            key: b"missing".to_vec(),
        });
        assert_eq!(o.apply(&ServeOp::SyncAll), ServeAnswer::Unit);
        assert_eq!(o.apply(&ServeOp::Len), ServeAnswer::Count(2));
        assert_eq!(
            o.apply(&ServeOp::Get { key: b"a".to_vec() }),
            ServeAnswer::Val(Some(b"2".to_vec()))
        );
        assert_eq!(o.get(b""), Some(vec![]));
        assert_eq!(
            o.apply(&range(b"a", b"a")),
            ServeAnswer::Pairs(Pairs::new())
        );
        assert_eq!(
            o.apply(&range(b"b", b"a")),
            ServeAnswer::Pairs(Pairs::new())
        );
        assert_eq!(o.apply(&range(b"", b"b")), ServeAnswer::Pairs(o.dump()));
        let ub = o.exclusive_upper_bound();
        assert!(ub.as_slice() > b"a".as_slice());
        assert_eq!(o.apply(&range(b"", &ub)), ServeAnswer::Pairs(o.dump()));
        assert_eq!(Oracle::default().exclusive_upper_bound(), vec![0]);
    }
}
