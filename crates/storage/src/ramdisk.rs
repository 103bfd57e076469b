//! A constant-latency device for unit tests and cache-layer development.
//!
//! Every IO takes exactly `fixed_latency`, regardless of size or position —
//! the degenerate device on which the DAM, affine, and PDAM models all
//! coincide.

use crate::clock::{SimDuration, SimTime};
use crate::device::IoCompletion;
use crate::sim::{SimDevice, Timing};

/// In-memory device with fixed per-IO latency.
pub type RamDisk = SimDevice<RamTiming>;

/// A RAM disk's timing: one resource, busy for `latency` per IO.
pub struct RamTiming {
    capacity: u64,
    latency: SimDuration,
    next_free: SimTime,
}

impl RamDisk {
    /// A RAM disk of `capacity` bytes with the given per-IO latency.
    pub fn new(capacity: u64, latency: SimDuration) -> Self {
        SimDevice::from(RamTiming {
            capacity,
            latency,
            next_free: SimTime::ZERO,
        })
    }
}

impl Timing for RamTiming {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn schedule(&mut self, _: bool, _: u64, _: u64, now: SimTime) -> IoCompletion {
        let start = now.max(self.next_free);
        let complete = start + self.latency;
        self.next_free = complete;
        IoCompletion { start, complete }
    }

    fn describe(&self) -> String {
        format!("RamDisk({} bytes, {} per IO)", self.capacity, self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, IoError};

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
