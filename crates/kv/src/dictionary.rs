//! The external-dictionary interface (§3): inserts, deletes, point queries,
//! and range queries, with per-operation cost reporting so experiments can
//! attribute simulated time and IO to individual operations.

use crate::pairs::Pairs;

/// An owned key-value pair. A range query answers with [`Pairs`], which
/// compares equal to a `Vec<KvPair>` of the same pairs.
pub type KvPair = (Vec<u8>, Vec<u8>);

/// Errors surfaced by dictionary implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The underlying device failed.
    Storage(String),
    /// A node image failed to decode.
    Corrupt(String),
    /// The dictionary is misconfigured (e.g. node size too small for a
    /// single entry).
    Config(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Storage(s) => write!(f, "storage error: {s}"),
            KvError::Corrupt(s) => write!(f, "corruption: {s}"),
            KvError::Config(s) => write!(f, "configuration error: {s}"),
        }
    }
}

impl std::error::Error for KvError {}

/// A malformed image is corruption.
impl From<crate::codec::CodecError> for KvError {
    fn from(e: crate::codec::CodecError) -> Self {
        KvError::Corrupt(e.to_string())
    }
}

/// Cost of one dictionary operation, as observed at the storage layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Device IOs issued (cache misses).
    pub ios: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Simulated time the operation spent waiting on IO, nanoseconds.
    pub io_time_ns: u64,
}

impl OpCost {
    /// Accumulate another operation's cost.
    pub fn add(&mut self, other: &OpCost) {
        self.ios += other.ios;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.io_time_ns = self.io_time_ns.saturating_add(other.io_time_ns);
    }

    /// IO time in fractional milliseconds.
    pub fn io_time_ms(&self) -> f64 {
        self.io_time_ns as f64 / 1e6
    }
}

/// One write in a batch submitted through [`Dictionary::apply_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite `key`.
    Put {
        /// Key to insert.
        key: Vec<u8>,
        /// Value to store.
        value: Vec<u8>,
    },
    /// Delete `key` (absent keys are a no-op).
    Del {
        /// Key to delete.
        key: Vec<u8>,
    },
}

impl BatchOp {
    /// The key this write targets.
    pub fn key(&self) -> &[u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Del { key } => key,
        }
    }
}

/// A key-value dictionary over simulated storage.
///
/// Implementations report, through [`Dictionary::last_op_cost`], the storage
/// cost of the most recent operation; experiment harnesses sum these per
/// parameter setting.
pub trait Dictionary {
    /// Insert or overwrite `key`.
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError>;

    /// Delete `key` (absent keys are a no-op).
    fn delete(&mut self, key: &[u8]) -> Result<(), KvError>;

    /// Point query.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError>;

    /// Range query: all pairs with `start ≤ key < end`, in key order,
    /// copied into one packed answer (see [`Pairs`]): an implementation
    /// hands it the pairs it walks past, with no allocation per pair.
    ///
    /// The interval is half-open. Degenerate intervals — `start == end` or
    /// `start > end` — MUST return an empty answer (never an error, never a
    /// wrapped-around scan). Every implementation guards this before
    /// touching storage; the differential harness (`dam-check`) pins it.
    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Pairs, KvError>;

    /// Cost of the most recently completed operation.
    ///
    /// Accounting contract (pinned by the `dam-check` harness): the cost
    /// covers exactly the device IO the operation issued, from its start
    /// to its return — including [`Dictionary::len`], [`Dictionary::sync`]
    /// and failed operations — so it never accumulates across operations,
    /// and the sum of reported costs never exceeds the device's own IO
    /// totals. An operation that returns an error reports the IO it issued
    /// before it failed (zero if it failed before any IO), never a stale
    /// cost from an earlier operation.
    fn last_op_cost(&self) -> OpCost;

    /// Flush buffered state to the device (checkpoint). The flush's IO cost
    /// is reported through [`Dictionary::last_op_cost`] so experiment
    /// harnesses can attribute deferred writes. Default: no-op.
    fn sync(&mut self) -> Result<(), KvError> {
        Ok(())
    }

    /// Apply a batch of writes in slice order, reporting ONE combined cost
    /// through [`Dictionary::last_op_cost`] for the whole batch.
    ///
    /// This is the admission-layer entry point: a serving engine groups
    /// consecutive same-shard writes and submits them together so buffered
    /// structures can amortize (the Bε-trees push the whole batch through
    /// their root message buffer before any cascade settles). The result
    /// MUST equal applying the ops one by one in order — batching changes
    /// cost, never visible state.
    ///
    /// There is no default: a loop over `insert`/`delete` could report only
    /// the last op's cost, so every implementation wraps the batch in one
    /// cost window of its own, and wrappers forward the batch as one op.
    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError>;

    /// Number of live keys. A read: it may issue IO (a walk over every
    /// node, and the write-backs its cache misses evict), but it changes no
    /// state a later operation can observe, and buffered writes stay
    /// buffered.
    fn len(&mut self) -> Result<u64, KvError>;

    /// True when no live keys exist.
    fn is_empty(&mut self) -> Result<bool, KvError> {
        Ok(self.len()? == 0)
    }

    /// Bytes of writes held only in memory, in no node or table image the
    /// cache or device holds (the Bε-tree's root buffer, the LSM-tree's
    /// memtable). Default: none.
    ///
    /// Fault contract (pinned by `dam-check`'s persistent-fault mode): when
    /// a write's flush fails, the dictionary either keeps the write in such
    /// a buffer of bounded size, or refuses it with a typed error, leaving
    /// itself exactly as it was before the write — so a later write does a
    /// bounded amount of work, however long the fault persists. It never
    /// re-encodes an ever-growing buffer on every operation, and never
    /// drops a write it acknowledged.
    fn buffered_bytes(&self) -> usize {
        0
    }
}

/// Mutable references are dictionaries too, so instrumentation wrappers can
/// decorate a borrowed tree (including `&mut dyn Dictionary` trait objects)
/// without taking ownership.
impl<T: Dictionary + ?Sized> Dictionary for &mut T {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        (**self).insert(key, value)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        (**self).delete(key)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        (**self).get(key)
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Pairs, KvError> {
        (**self).range(start, end)
    }

    fn last_op_cost(&self) -> OpCost {
        (**self).last_op_cost()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        (**self).sync()
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        (**self).apply_batch(batch)
    }

    fn len(&mut self) -> Result<u64, KvError> {
        (**self).len()
    }

    fn is_empty(&mut self) -> Result<bool, KvError> {
        (**self).is_empty()
    }

    fn buffered_bytes(&self) -> usize {
        (**self).buffered_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_accumulates() {
        let mut a = OpCost {
            ios: 1,
            bytes_read: 10,
            bytes_written: 20,
            io_time_ns: 5,
        };
        let b = OpCost {
            ios: 2,
            bytes_read: 1,
            bytes_written: 2,
            io_time_ns: 3,
        };
        a.add(&b);
        assert_eq!(
            a,
            OpCost {
                ios: 3,
                bytes_read: 11,
                bytes_written: 22,
                io_time_ns: 8
            }
        );
        assert!((a.io_time_ms() - 8e-6).abs() < 1e-15);
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", KvError::Storage("x".into())).contains("storage"));
        assert!(format!("{}", KvError::Corrupt("y".into())).contains("corruption"));
        assert!(format!("{}", KvError::Config("z".into())).contains("configuration"));
    }
}
