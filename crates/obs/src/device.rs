//! [`ObservedDevice`]: the single IO observation point of a device stack.
//!
//! Place it *outermost* (above `RetryingDevice`/`FaultInjector`): then the
//! registry's `device.*` counters see logical IOs (successes and surfaced
//! failures), the fault injector's `ios_seen` counts raw attempts, and the
//! retry counters account for the difference —
//! `attempts = successes + retries + surfaced errors`, which
//! [`crate::MetricsSnapshot::check_io_consistency`] asserts.

use crate::registry::Obs;
use dam_storage::{BlockDevice, DeviceStats, IoCompletion, IoError, SharedDevice, SimTime};
use std::sync::Arc;

/// A [`BlockDevice`] wrapper that reports every IO to an [`Obs`] registry:
/// totals, per-kind latency histograms, span/per-level attribution, and
/// model residuals.
pub struct ObservedDevice<D: BlockDevice> {
    inner: D,
    obs: Obs,
}

impl<D: BlockDevice> ObservedDevice<D> {
    /// Wrap `inner`, reporting into `obs`.
    pub fn new(inner: D, obs: Obs) -> Self {
        ObservedDevice { inner, obs }
    }

    /// The registry this device reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Report the outcome `r` of one IO of `len` bytes submitted at `now`,
    /// whose completion `done` extracts, and pass it through.
    fn observe<T>(
        &self,
        is_write: bool,
        len: u64,
        now: SimTime,
        r: Result<T, IoError>,
        done: impl FnOnce(&T) -> IoCompletion,
    ) -> Result<T, IoError> {
        match &r {
            Ok(v) => self
                .obs
                .record_io(is_write, len, (done(v).complete - now).0),
            Err(_) => self.obs.record_error(is_write),
        }
        r
    }
}

impl ObservedDevice<Box<dyn BlockDevice>> {
    /// Wrap a boxed device and hand back a [`SharedDevice`] ready for the
    /// pager/tree constructors.
    pub fn shared(inner: Box<dyn BlockDevice>, obs: Obs) -> SharedDevice {
        SharedDevice::new(Box::new(ObservedDevice::new(inner, obs)))
    }
}

impl<D: BlockDevice> BlockDevice for ObservedDevice<D> {
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        let r = self.inner.read(offset, buf, now);
        self.observe(false, buf.len() as u64, now, r, |c| *c)
    }

    fn read_image(
        &mut self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        let r = self.inner.read_image(offset, len, now);
        self.observe(false, len as u64, now, r, |(_, c)| *c)
    }

    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        let r = self.inner.write(offset, data, now);
        self.observe(true, data.len() as u64, now, r, |c| *c)
    }

    fn write_image(
        &mut self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        let r = self.inner.write_image(offset, image, now);
        self.observe(true, image.len() as u64, now, r, |c| *c)
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn describe(&self) -> String {
        format!("observed {}", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_storage::{RamDisk, SimDuration};

    #[test]
    fn observed_totals_match_device_stats() {
        let obs = Obs::new();
        let mut d = ObservedDevice::new(RamDisk::new(1 << 16, SimDuration(100)), obs.clone());
        d.write(0, &[7u8; 512], SimTime::ZERO).unwrap();
        let mut buf = [0u8; 256];
        d.read(0, &mut buf, SimTime(1000)).unwrap();
        let snap = obs.snapshot();
        let stats = d.stats();
        assert_eq!(snap.device.ios, stats.total_ios());
        assert_eq!(snap.device.bytes_read, stats.bytes_read);
        assert_eq!(snap.device.bytes_written, stats.bytes_written);
        assert_eq!(snap.counters.get("device.read.count"), Some(&1));
        assert_eq!(snap.counters.get("device.write.bytes"), Some(&512));
        assert_eq!(snap.hists.get("device.io.latency_ns").unwrap().count, 2);
    }

    #[test]
    fn errors_are_counted_not_attributed() {
        let obs = Obs::new();
        let mut d = ObservedDevice::new(RamDisk::new(64, SimDuration(10)), obs.clone());
        let mut buf = [0u8; 128];
        assert!(d.read(0, &mut buf, SimTime::ZERO).is_err());
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("device.errors"), Some(&1));
        assert_eq!(snap.device.ios, 0);
    }

    #[test]
    fn shared_constructor_reports_through_the_pager_path() {
        let obs = Obs::new();
        let shared = ObservedDevice::shared(
            Box::new(RamDisk::new(1 << 16, SimDuration(50))),
            obs.clone(),
        );
        shared.write(0, &[1u8; 64], SimTime::ZERO).unwrap();
        assert_eq!(obs.snapshot().device.bytes_written, 64);
        assert!(shared.describe().starts_with("observed"));
    }
}
