//! The [`BlockDevice`] trait and shared device plumbing.
//!
//! A device accepts reads and writes at arbitrary byte offsets and sizes —
//! the point of the affine/PDAM refinements is precisely that IO size is a
//! *choice* — and returns, for each IO, when it started service and when it
//! completed on the simulated clock. Submission order is service order
//! (devices model their own internal queues/resources).

use crate::clock::{SimDuration, SimTime};
use std::sync::{Arc, Mutex, PoisonError};

/// Completion record for one IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// When the device began servicing the IO (≥ submission time).
    pub start: SimTime,
    /// When the last byte transferred.
    pub complete: SimTime,
}

impl IoCompletion {
    /// Service latency of this IO.
    pub fn latency(&self) -> SimDuration {
        self.complete - self.start
    }
}

/// Errors a device can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The IO extends past the device capacity.
    OutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// Zero-length IOs are rejected: they have no physical meaning and would
    /// corrupt the cost accounting.
    ZeroLength,
    /// Injected device fault (failure-injection testing).
    Faulted,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::OutOfRange {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "IO [{offset}, {offset}+{len}) exceeds device capacity {capacity}"
            ),
            IoError::ZeroLength => write!(f, "zero-length IO"),
            IoError::Faulted => write!(f, "injected device fault"),
        }
    }
}

impl std::error::Error for IoError {}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Number of read IOs serviced.
    pub reads: u64,
    /// Number of write IOs serviced.
    pub writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Sum of per-IO service latencies (ns). With a single internal resource
    /// this equals busy time; with parallel units it can exceed makespan.
    pub service_ns: u64,
}

impl DeviceStats {
    /// Record one IO.
    pub fn record(&mut self, is_write: bool, bytes: u64, latency: SimDuration) {
        if is_write {
            self.writes += 1;
            self.bytes_written += bytes;
        } else {
            self.reads += 1;
            self.bytes_read += bytes;
        }
        self.service_ns = self.service_ns.saturating_add(latency.0);
    }

    /// Total IOs serviced.
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// A simulated storage device.
///
/// Implementations are single-threaded state machines; wrap in
/// [`SharedDevice`] for concurrent use. The `now` argument is the client's
/// submission time; devices may start service later if their internal
/// resources are busy (queueing), and the returned [`IoCompletion`] reports
/// the realized schedule.
pub trait BlockDevice: Send {
    /// Device capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Read `buf.len()` bytes at `offset`, charging simulated time.
    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError>;

    /// Service a read of `len` bytes at `offset` without delivering them:
    /// the same checks, timing, statistics and fault decisions as
    /// [`read`](BlockDevice::read), for callers that only time IOs (the
    /// closed-loop microbenchmarks). The default reads into a scratch
    /// buffer; [`SimDevice`](crate::SimDevice), the simulated HDD, SSD and
    /// RAM disk, overrides it to skip moving the bytes.
    fn read_discard(
        &mut self,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        let mut scratch = vec![0u8; len as usize];
        self.read(offset, &mut scratch, now)
    }

    /// Read the `len`-byte object at `offset` as a shared image: the same
    /// checks, timing, statistics and fault decisions as
    /// [`read`](BlockDevice::read). The default reads into a fresh zeroed
    /// buffer; [`SimDevice`](crate::SimDevice) overrides it to return the
    /// very image that a [`write_image`](BlockDevice::write_image) of the
    /// same range stored, without copying it, and a copy of just the bytes
    /// read when they lie inside one such image (see [`crate::store`]).
    fn read_image(
        &mut self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        let mut buf = vec![0u8; len];
        let c = self.read(offset, &mut buf, now)?;
        Ok((Arc::new(buf), c))
    }

    /// Write `data` at `offset`, charging simulated time.
    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError>;

    /// Write the immutable shared `image` at `offset`: the same checks,
    /// timing, statistics and fault decisions as
    /// [`write`](BlockDevice::write). The default writes the image's bytes;
    /// [`SimDevice`](crate::SimDevice) overrides it to keep the image itself,
    /// at any offset and length (see [`crate::store`]). A device may hold
    /// the image for as long as no later write covers it, so nobody mutates
    /// an image while it is shared: a caller that edits one edits a copy
    /// unless it holds the only handle.
    fn write_image(
        &mut self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        self.write(offset, image, now)
    }

    /// Cumulative statistics.
    fn stats(&self) -> DeviceStats;

    /// Reset cumulative statistics (device timing state is preserved).
    fn reset_stats(&mut self);

    /// Short human-readable description ("Samsung 860 pro (sim)").
    fn describe(&self) -> String;

    /// Validate an IO against capacity; shared helper for implementations.
    fn check_range(&self, offset: u64, len: u64) -> Result<(), IoError> {
        if len == 0 {
            return Err(IoError::ZeroLength);
        }
        let cap = self.capacity_bytes();
        if offset.checked_add(len).is_none_or(|end| end > cap) {
            return Err(IoError::OutOfRange {
                offset,
                len,
                capacity: cap,
            });
        }
        Ok(())
    }
}

impl BlockDevice for Box<dyn BlockDevice> {
    fn capacity_bytes(&self) -> u64 {
        (**self).capacity_bytes()
    }

    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        (**self).read(offset, buf, now)
    }

    fn read_discard(
        &mut self,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        (**self).read_discard(offset, len, now)
    }

    fn read_image(
        &mut self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        (**self).read_image(offset, len, now)
    }

    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        (**self).write(offset, data, now)
    }

    fn write_image(
        &mut self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        (**self).write_image(offset, image, now)
    }

    fn stats(&self) -> DeviceStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Thread-safe handle around a [`BlockDevice`], cloneable across simulated
/// clients. Lock scope is a single IO, which matches the serialization the
/// device's internal `next_free` bookkeeping needs.
#[derive(Clone)]
pub struct SharedDevice {
    inner: Arc<Mutex<Box<dyn BlockDevice>>>,
}

impl SharedDevice {
    /// Wrap a device.
    pub fn new(device: Box<dyn BlockDevice>) -> Self {
        SharedDevice {
            inner: Arc::new(Mutex::new(device)),
        }
    }

    /// Read through the shared handle.
    pub fn read(&self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .read(offset, buf, now)
    }

    /// Read a shared image through the shared handle.
    pub fn read_image(
        &self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .read_image(offset, len, now)
    }

    /// Write through the shared handle.
    pub fn write(&self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write(offset, data, now)
    }

    /// Write a shared image through the shared handle.
    pub fn write_image(
        &self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write_image(offset, image, now)
    }

    /// Device capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .capacity_bytes()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DeviceStats {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Reset statistics.
    pub fn reset_stats(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reset_stats()
    }

    /// Description of the wrapped device.
    pub fn describe(&self) -> String {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDisk;

    #[test]
    fn stats_accumulate() {
        let mut s = DeviceStats::default();
        s.record(false, 100, SimDuration(5));
        s.record(true, 200, SimDuration(7));
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.bytes_written, 200);
        assert_eq!(s.total_ios(), 2);
        assert_eq!(s.total_bytes(), 300);
        assert_eq!(s.service_ns, 12);
    }

    #[test]
    fn check_range_rejects_bad_ios() {
        let d = RamDisk::new(1024, SimDuration(10));
        assert_eq!(d.check_range(0, 0), Err(IoError::ZeroLength));
        assert!(matches!(
            d.check_range(1000, 100),
            Err(IoError::OutOfRange { .. })
        ));
        assert!(d.check_range(0, 1024).is_ok());
        // Overflowing offset+len must not wrap.
        assert!(matches!(
            d.check_range(u64::MAX, 2),
            Err(IoError::OutOfRange { .. })
        ));
    }

    #[test]
    fn shared_device_roundtrip() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(4096, SimDuration(100))));
        let c = dev.write(0, b"abc", SimTime::ZERO).unwrap();
        assert_eq!(c.latency(), SimDuration(100));
        let mut buf = [0u8; 3];
        let c2 = dev.read(0, &mut buf, c.complete).unwrap();
        assert_eq!(&buf, b"abc");
        assert!(c2.complete > c.complete);
        assert_eq!(dev.stats().total_ios(), 2);
        dev.reset_stats();
        assert_eq!(dev.stats().total_ios(), 0);
    }

    #[test]
    fn shared_device_clones_share_state() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(4096, SimDuration(1))));
        let dev2 = dev.clone();
        dev.write(10, &[42; 4], SimTime::ZERO).unwrap();
        let mut buf = [0u8; 4];
        dev2.read(10, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(buf, [42; 4]);
    }

    #[test]
    fn io_error_display() {
        let e = IoError::OutOfRange {
            offset: 10,
            len: 20,
            capacity: 15,
        };
        assert!(format!("{e}").contains("capacity 15"));
        assert_eq!(format!("{}", IoError::ZeroLength), "zero-length IO");
    }
}
