//! A constant-latency device for unit tests and cache-layer development.
//!
//! Every IO takes exactly `fixed_latency`, regardless of size or position —
//! the degenerate device on which the DAM, affine, and PDAM models all
//! coincide. A fault flag supports failure-injection tests.

use crate::clock::{SimDuration, SimTime};
use crate::device::{BlockDevice, DeviceStats, IoCompletion, IoError};
use crate::store::SparseStore;
use std::sync::Arc;

/// In-memory device with fixed per-IO latency.
pub struct RamDisk {
    capacity: u64,
    latency: SimDuration,
    next_free: SimTime,
    store: SparseStore,
    stats: DeviceStats,
    faulted: bool,
}

impl RamDisk {
    /// A RAM disk of `capacity` bytes with the given per-IO latency.
    pub fn new(capacity: u64, latency: SimDuration) -> Self {
        RamDisk {
            capacity,
            latency,
            next_free: SimTime::ZERO,
            store: SparseStore::new(),
            stats: DeviceStats::default(),
            faulted: false,
        }
    }

    /// Inject (or clear) a fault: subsequent IOs fail with
    /// [`IoError::Faulted`] until cleared.
    pub fn set_faulted(&mut self, faulted: bool) {
        self.faulted = faulted;
    }

    fn service(&mut self, now: SimTime) -> IoCompletion {
        let start = now.max(self.next_free);
        let complete = start + self.latency;
        self.next_free = complete;
        IoCompletion { start, complete }
    }

    /// Check, time and count one IO; the caller moves its bytes.
    fn serve_io(
        &mut self,
        is_write: bool,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        self.check_range(offset, len)?;
        if self.faulted {
            return Err(IoError::Faulted);
        }
        let c = self.service(now);
        self.stats.record(is_write, len, c.latency());
        Ok(c)
    }
}

impl BlockDevice for RamDisk {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        let c = self.serve_io(false, offset, buf.len() as u64, now)?;
        self.store.read(offset, buf);
        Ok(c)
    }

    fn read_discard(
        &mut self,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        self.serve_io(false, offset, len, now)
    }

    fn read_image(
        &mut self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        let c = self.serve_io(false, offset, len as u64, now)?;
        Ok((self.store.read_image(offset, len), c))
    }

    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        let c = self.serve_io(true, offset, data.len() as u64, now)?;
        self.store.write(offset, data);
        Ok(c)
    }

    fn write_image(
        &mut self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        let c = self.serve_io(true, offset, image.len() as u64, now)?;
        self.store.write_image(offset, image);
        Ok(c)
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }

    fn describe(&self) -> String {
        format!("RamDisk({} bytes, {} per IO)", self.capacity, self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_constant_latency() {
        let mut d = RamDisk::new(1 << 20, SimDuration(250));
        let w = d.write(4096, &[1, 2, 3, 4], SimTime::ZERO).unwrap();
        assert_eq!(w.latency(), SimDuration(250));
        let mut buf = [0u8; 4];
        let r = d.read(4096, &mut buf, w.complete).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(r.latency(), SimDuration(250));
    }

    #[test]
    fn ios_serialize_on_single_resource() {
        let mut d = RamDisk::new(1 << 20, SimDuration(100));
        let a = d.write(0, &[0], SimTime::ZERO).unwrap();
        // Submitted at t=0 but device busy until 100.
        let b = d.write(1, &[0], SimTime::ZERO).unwrap();
        assert_eq!(a.complete, SimTime(100));
        assert_eq!(b.start, SimTime(100));
        assert_eq!(b.complete, SimTime(200));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = RamDisk::new(100, SimDuration(1));
        let mut buf = [0u8; 10];
        assert!(matches!(
            d.read(95, &mut buf, SimTime::ZERO),
            Err(IoError::OutOfRange { .. })
        ));
    }

    #[test]
    fn fault_injection_blocks_io_until_cleared() {
        let mut d = RamDisk::new(100, SimDuration(1));
        d.set_faulted(true);
        assert_eq!(d.write(0, &[1], SimTime::ZERO), Err(IoError::Faulted));
        let mut buf = [0u8; 1];
        assert_eq!(d.read(0, &mut buf, SimTime::ZERO), Err(IoError::Faulted));
        d.set_faulted(false);
        assert!(d.write(0, &[1], SimTime::ZERO).is_ok());
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut d = RamDisk::new(1 << 16, SimDuration(10));
        d.write(0, &[0; 100], SimTime::ZERO).unwrap();
        let mut buf = [0u8; 50];
        d.read(0, &mut buf, SimTime::ZERO).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!((s.bytes_read, s.bytes_written), (50, 100));
    }
}
