//! A recording device: executes IOs synchronously (so the dictionaries see
//! real bytes immediately) while logging each IO's shape for the PDAM
//! scheduler to re-time.
//!
//! The dictionaries in this workspace are synchronous — an op runs
//! root-to-leaf to completion before returning. To schedule many clients'
//! IOs against a `P`-slot device we split *data* from *timing*: the op
//! executes against a [`CaptureDevice`] (data served at once by an inner
//! device, every IO recorded as `(write, offset, len)`), and the recorded
//! sequence becomes an [`IoChain`] whose cost in PDAM steps the scheduler
//! computes afterwards. Determinism is free: the tree's behaviour never
//! depends on timing, only on bytes, so re-timing commutes with execution.

use dam_storage::{BlockDevice, DeviceStats, IoChain, IoCompletion, IoError, SimTime};
use std::sync::{Arc, Mutex, PoisonError};

/// One recorded IO: `(is_write, offset, len)`.
pub type CapturedIo = (bool, u64, u64);

/// Handle for draining the IOs recorded since the last drain.
#[derive(Clone)]
pub struct CaptureHandle {
    log: Arc<Mutex<Vec<CapturedIo>>>,
}

impl CaptureHandle {
    fn log(&self) -> std::sync::MutexGuard<'_, Vec<CapturedIo>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drain the IOs recorded since the previous drain into a chain
    /// ([`IoChain::from_ios`]). The log is cleared in place and keeps its
    /// capacity, so steady-state draining allocates only the chain.
    pub fn drain_chain(&self, space: u32, block_bytes: u64) -> IoChain {
        let mut log = self.log();
        let chain = IoChain::from_ios(space, block_bytes, &log);
        log.clear();
        chain
    }

    /// Discard the IOs recorded since the previous drain.
    pub fn clear(&self) {
        self.log().clear();
    }

    /// IOs currently recorded (without draining).
    pub fn pending(&self) -> usize {
        self.log().len()
    }
}

/// See the module docs. Wraps any inner device; timing the inner device
/// charges is ignored by the serving engine (the scheduler is the clock).
pub struct CaptureDevice {
    inner: Box<dyn BlockDevice>,
    log: Arc<Mutex<Vec<CapturedIo>>>,
}

impl CaptureDevice {
    /// Wrap `inner`, returning the device and its drain handle.
    pub fn new(inner: Box<dyn BlockDevice>) -> (Self, CaptureHandle) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            CaptureDevice {
                inner,
                log: log.clone(),
            },
            CaptureHandle { log },
        )
    }

    fn record(&self, io: CapturedIo) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(io);
    }
}

impl BlockDevice for CaptureDevice {
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        let c = self.inner.read(offset, buf, now)?;
        self.record((false, offset, buf.len() as u64));
        Ok(c)
    }

    fn read_image(
        &mut self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        let r = self.inner.read_image(offset, len, now)?;
        self.record((false, offset, len as u64));
        Ok(r)
    }

    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        let c = self.inner.write(offset, data, now)?;
        self.record((true, offset, data.len() as u64));
        Ok(c)
    }

    fn write_image(
        &mut self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        let c = self.inner.write_image(offset, image, now)?;
        self.record((true, offset, image.len() as u64));
        Ok(c)
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn describe(&self) -> String {
        format!("capture({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_storage::{RamDisk, SimDuration};

    #[test]
    fn records_and_drains_ios() {
        let (mut d, h) = CaptureDevice::new(Box::new(RamDisk::new(4096, SimDuration(1))));
        d.write(0, b"abcd", SimTime::ZERO).unwrap();
        let mut buf = [0u8; 2];
        d.read(1, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"bc");
        assert_eq!(h.pending(), 2);
        // One-byte blocks: each IO's wave lists the bytes it touched.
        assert_eq!(
            h.drain_chain(5, 1),
            IoChain::from_ios(5, 1, &[(true, 0, 4), (false, 1, 2)])
        );
        assert_eq!(h.pending(), 0);
        assert_eq!(d.stats().total_ios(), 2);
        d.write(1000, &[7; 30], SimTime::ZERO).unwrap();
        let chain = h.drain_chain(5, 512);
        assert_eq!((chain.depth(), chain.blocks()), (1, 2));
        assert_eq!(h.pending(), 0);
        d.write(0, b"x", SimTime::ZERO).unwrap();
        h.clear();
        assert_eq!(h.pending(), 0);
        assert!(d.describe().starts_with("capture("));
    }

    #[test]
    fn errors_are_not_recorded() {
        let (mut d, h) = CaptureDevice::new(Box::new(RamDisk::new(16, SimDuration(1))));
        let mut buf = [0u8; 32];
        assert!(d.read(0, &mut buf, SimTime::ZERO).is_err());
        assert_eq!(h.pending(), 0);
    }
}
