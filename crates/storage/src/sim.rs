//! The one simulated device: a timing model over a single byte path.
//!
//! The paper's refinements of the DAM change only how an IO is priced, and
//! the simulated HDD, SSD and RAM disk likewise differ only in their timing.
//! [`SimDevice`] owns what they share: the [`SparseStore`] holding the
//! bytes, the [`DeviceStats`], the range check and the one [`BlockDevice`]
//! implementation, including the byte-free [`read_discard`] and the shared
//! image paths [`read_image`] and [`write_image`]. A [`Timing`] model prices
//! each IO that passes the range check and keeps the state that pricing
//! needs (head position, flash units and bus, a `next_free` time).
//!
//! [`read_discard`]: BlockDevice::read_discard
//! [`read_image`]: BlockDevice::read_image
//! [`write_image`]: BlockDevice::write_image

use crate::clock::SimTime;
use crate::device::{BlockDevice, DeviceStats, IoCompletion, IoError};
use crate::store::SparseStore;
use std::sync::Arc;

/// How a simulated device prices its IOs.
pub trait Timing: Send {
    /// Device capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Schedule one IO of `len > 0` bytes at `offset`, submitted at `now`
    /// and already checked against the capacity; advances the model's state
    /// and returns when the IO started and completed.
    fn schedule(&mut self, is_write: bool, offset: u64, len: u64, now: SimTime) -> IoCompletion;

    /// Short human-readable description of the device.
    fn describe(&self) -> String;
}

/// A simulated device: real bytes in a sparse store, timed by `T`.
///
/// Build one from its timing model with `SimDevice::from(timing)`; the
/// aliases [`HddDevice`](crate::HddDevice), [`SsdDevice`](crate::SsdDevice)
/// and [`RamDisk`](crate::RamDisk) have their own constructors.
pub struct SimDevice<T> {
    pub(crate) timing: T,
    store: SparseStore,
    stats: DeviceStats,
}

impl<T: Timing> From<T> for SimDevice<T> {
    fn from(timing: T) -> Self {
        SimDevice {
            timing,
            store: SparseStore::new(),
            stats: DeviceStats::default(),
        }
    }
}

impl<T: Timing> SimDevice<T> {
    /// Check, time and count one IO; the caller moves its bytes.
    fn serve_io(
        &mut self,
        is_write: bool,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        self.check_range(offset, len)?;
        let c = self.timing.schedule(is_write, offset, len, now);
        self.stats.record(is_write, len, c.latency());
        Ok(c)
    }
}

impl<T: Timing> BlockDevice for SimDevice<T> {
    fn capacity_bytes(&self) -> u64 {
        self.timing.capacity_bytes()
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
        self.timing.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    /// Every IO takes one nanosecond per byte; counts what it schedules.
    struct PerByte {
        scheduled: u64,
    }

    impl Timing for PerByte {
        fn capacity_bytes(&self) -> u64 {
            1 << 16
        }

        fn schedule(&mut self, _: bool, _: u64, len: u64, now: SimTime) -> IoCompletion {
            self.scheduled += 1;
            IoCompletion {
                start: now,
                complete: now + SimDuration(len),
            }
        }

        fn describe(&self) -> String {
            "per-byte".into()
        }
    }

    #[test]
    fn rejected_ios_are_neither_timed_nor_counted() {
        let mut d = SimDevice::from(PerByte { scheduled: 0 });
        let mut buf = [0u8; 8];
        assert!(d.read(1 << 16, &mut buf, SimTime::ZERO).is_err());
        assert_eq!(
            d.read_discard(0, 0, SimTime::ZERO),
            Err(IoError::ZeroLength)
        );
        assert_eq!(d.timing.scheduled, 0);
        assert_eq!(d.stats(), DeviceStats::default());
        let c = d.write(8, &[7; 8], SimTime::ZERO).unwrap();
        assert_eq!(c.latency(), SimDuration(8));
        d.read(8, &mut buf, c.complete).unwrap();
        assert_eq!((buf, d.timing.scheduled), ([7; 8], 2));
        assert_eq!(d.describe(), "per-byte");
    }
}
