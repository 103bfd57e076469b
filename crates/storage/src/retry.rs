//! Retry with deterministic exponential backoff, charged on simulated time.
//!
//! [`RetryingDevice`] wraps any [`BlockDevice`] and absorbs *transient*
//! faults ([`IoError::Faulted`]): each failed attempt is retried after an
//! exponentially growing backoff, with the wait charged by advancing the
//! `now` timestamp passed to the inner device — so retries cost simulated
//! time exactly like any other latency source, and experiments see the
//! true price of running on flaky media. Permanent faults (a device that
//! never recovers) surface after the bounded retry budget is spent;
//! programming errors (`OutOfRange`, `ZeroLength`) propagate immediately,
//! retrying those would only mask bugs.

use crate::clock::SimTime;
use crate::device::{BlockDevice, DeviceStats, IoCompletion, IoError};
use std::sync::{Arc, Mutex, PoisonError};

/// Retry budget and backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (total attempts = 1 + this).
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based) is `base_backoff << (k-1)`.
    pub base_backoff: crate::clock::SimDuration,
}

impl Default for RetryPolicy {
    /// 4 retries, 10 µs base: worst case ~150 µs of backoff per IO.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: crate::clock::SimDuration::from_micros(10),
        }
    }
}

/// Counters for one [`RetryingDevice`] (see [`RetryHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Individual retry attempts issued (excludes first attempts).
    pub retries: u64,
    /// IOs that failed at least once but ultimately succeeded.
    pub absorbed: u64,
    /// IOs that exhausted the retry budget and surfaced `Faulted`.
    pub giveups: u64,
}

/// Shared handle reading a [`RetryingDevice`]'s counters from outside the
/// device box (same pattern as [`crate::FaultSwitch`]).
#[derive(Clone, Default)]
pub struct RetryHandle {
    inner: Arc<Mutex<RetryStats>>,
}

impl RetryHandle {
    /// Counter snapshot.
    pub fn stats(&self) -> RetryStats {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Zero the counters.
    pub fn reset(&self) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = RetryStats::default();
    }
}

/// A device wrapper that retries transient faults with exponential
/// backoff on the simulated clock.
pub struct RetryingDevice<D: BlockDevice> {
    inner: D,
    policy: RetryPolicy,
    stats: RetryHandle,
}

impl<D: BlockDevice> RetryingDevice<D> {
    /// Wrap `inner`; returns the device and a counter handle.
    pub fn new(inner: D, policy: RetryPolicy) -> (Self, RetryHandle) {
        let stats = RetryHandle::default();
        (
            RetryingDevice {
                inner,
                policy,
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Run `io` (an attempt closure) under the retry policy.
    fn with_retries<T>(
        &mut self,
        now: SimTime,
        mut io: impl FnMut(&mut D, SimTime) -> Result<T, IoError>,
    ) -> Result<T, IoError> {
        let mut at = now;
        let mut attempt = 0u32;
        loop {
            match io(&mut self.inner, at) {
                Ok(done) => {
                    if attempt > 0 {
                        self.stats
                            .inner
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .absorbed += 1;
                    }
                    return Ok(done);
                }
                // Transient device fault: back off and retry.
                Err(IoError::Faulted) if attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.stats
                        .inner
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .retries += 1;
                    // Exponential: base << (attempt-1), saturating.
                    let backoff = crate::clock::SimDuration(
                        self.policy
                            .base_backoff
                            .0
                            .saturating_mul(1u64 << (attempt - 1).min(63)),
                    );
                    at += backoff;
                }
                Err(IoError::Faulted) => {
                    self.stats
                        .inner
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .giveups += 1;
                    return Err(IoError::Faulted);
                }
                // OutOfRange / ZeroLength are caller bugs, not weather.
                Err(e) => return Err(e),
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for RetryingDevice<D> {
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        // Reborrow per attempt: the closure can't capture `buf` by move.
        self.with_retries(now, |d, at| d.read(offset, buf, at))
    }

    fn read_image(
        &mut self,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<(Arc<Vec<u8>>, IoCompletion), IoError> {
        self.with_retries(now, |d, at| d.read_image(offset, len, at))
    }

    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        self.with_retries(now, |d, at| d.write(offset, data, at))
    }

    fn write_image(
        &mut self,
        offset: u64,
        image: &Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<IoCompletion, IoError> {
        self.with_retries(now, |d, at| d.write_image(offset, image, at))
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn describe(&self) -> String {
        format!(
            "retrying(max {}, base {}ns) {}",
            self.policy.max_retries,
            self.policy.base_backoff.0,
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::faulty::{FaultInjector, FaultMode};
    use crate::ramdisk::RamDisk;

    fn stack(
        policy: RetryPolicy,
    ) -> (
        RetryingDevice<FaultInjector<RamDisk>>,
        crate::FaultSwitch,
        RetryHandle,
    ) {
        let (inj, sw) = FaultInjector::new(RamDisk::new(1 << 16, SimDuration(100)));
        let (dev, handle) = RetryingDevice::new(inj, policy);
        (dev, sw, handle)
    }

    #[test]
    fn clean_ios_cost_nothing_extra() {
        let (mut d, _sw, h) = stack(RetryPolicy::default());
        d.write(0, &[1, 2, 3], SimTime::ZERO).unwrap();
        let mut buf = [0u8; 3];
        d.read(0, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(h.stats(), RetryStats::default());
    }

    #[test]
    fn transient_faults_absorbed_with_backoff_on_sim_clock() {
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff: SimDuration(1000),
        };
        let (mut d, sw, h) = stack(policy);
        d.write(0, &[7; 4], SimTime::ZERO).unwrap();
        // Fail 2, pass 1: every logical IO needs exactly 2 retries.
        sw.set(FaultMode::Transient {
            fail_n: 2,
            pass_n: 1,
        });
        let mut buf = [0u8; 4];
        let done = d.read(0, &mut buf, SimTime(5000)).unwrap();
        assert_eq!(buf, [7; 4]);
        assert_eq!(
            h.stats(),
            RetryStats {
                retries: 2,
                absorbed: 1,
                giveups: 0
            }
        );
        // Attempt 3 ran at now + 1000 + 2000; completion reflects the
        // backoff charged on the simulated clock.
        assert!(
            done.complete.0 >= 5000 + 3000,
            "complete {:?}",
            done.complete
        );
    }

    #[test]
    fn permanent_faults_surface_after_budget() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration(10),
        };
        let (mut d, sw, h) = stack(policy);
        sw.set(FaultMode::All);
        let mut buf = [0u8; 1];
        assert_eq!(d.read(0, &mut buf, SimTime::ZERO), Err(IoError::Faulted));
        assert_eq!(
            h.stats(),
            RetryStats {
                retries: 3,
                absorbed: 0,
                giveups: 1
            }
        );
        // 1 first attempt + 3 retries hit the injector.
        assert_eq!(sw.stats().ios_seen, 4);
    }

    #[test]
    fn programming_errors_do_not_retry() {
        let (mut d, _sw, h) = stack(RetryPolicy::default());
        let mut buf = [0u8; 8];
        assert!(matches!(
            d.read(u64::MAX - 4, &mut buf, SimTime::ZERO),
            Err(IoError::OutOfRange { .. })
        ));
        assert_eq!(d.read(0, &mut [], SimTime::ZERO), Err(IoError::ZeroLength));
        assert_eq!(h.stats(), RetryStats::default());
    }

    #[test]
    fn zero_retries_means_fail_fast() {
        let policy = RetryPolicy {
            max_retries: 0,
            base_backoff: SimDuration(10),
        };
        let (mut d, sw, h) = stack(policy);
        sw.set(FaultMode::Transient {
            fail_n: 1,
            pass_n: 10,
        });
        let mut buf = [0u8; 1];
        assert_eq!(d.read(0, &mut buf, SimTime::ZERO), Err(IoError::Faulted));
        assert_eq!(h.stats().giveups, 1);
        assert_eq!(sw.stats().ios_seen, 1);
    }
}
