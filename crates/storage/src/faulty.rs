//! Fault injection: wrap any device and make it fail on demand.
//!
//! Used by the failure-injection and crash-consistency tests to verify
//! that device errors propagate through the pager and the dictionaries as
//! typed errors (never panics), and that silent corruption — bit rot, torn
//! writes, power cuts mid-write — is caught by the checksummed block
//! frames rather than decoded as garbage.
//!
//! All randomness is deterministic: probabilistic modes hash `(seed,
//! io-ordinal)` with splitmix64, so a given seed reproduces the exact same
//! fault schedule run after run.

use crate::clock::SimTime;
use crate::device::{BlockDevice, DeviceStats, IoCompletion, IoError};
use dam_stats::rng::SplitMix64;
use std::sync::{Arc, Mutex, PoisonError};

/// What the injector should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Pass everything through.
    #[default]
    None,
    /// Fail every IO.
    All,
    /// Fail reads only.
    Reads,
    /// Fail writes only.
    Writes,
    /// Pass the next `n` IOs, then fail everything.
    AfterIos(u64),
    /// Intermittent faults: fail `fail_n` IOs, pass `pass_n`, repeat.
    /// Models a flaky link/controller that recovers on retry.
    Transient {
        /// Consecutive IOs to fail at the start of each cycle.
        fail_n: u64,
        /// Consecutive IOs to pass after the failures.
        pass_n: u64,
    },
    /// Each IO independently fails with probability `num/denom`,
    /// deterministically derived from `seed` and the IO ordinal.
    Probabilistic {
        /// Fault probability numerator.
        num: u32,
        /// Fault probability denominator (> 0).
        denom: u32,
        /// Seed for the deterministic schedule.
        seed: u64,
    },
    /// Writes persist only the first half of the buffer, then report
    /// failure; reads pass. Models a torn sector write.
    TornWrite,
    /// Reads succeed but one deterministically-chosen bit is flipped in
    /// every `every`-th read's returned data; writes pass. Models silent
    /// media bit rot — the caller sees `Ok`, only a checksum can tell.
    BitFlip {
        /// Seed choosing which bit flips.
        seed: u64,
        /// Corrupt every `every`-th read (1 = every read; 0 = never).
        every: u64,
    },
    /// Power-cut emulation: the first `n` IOs pass; the `n+1`-th, if a
    /// write, persists only a prefix (torn) and fails; every IO after
    /// that fails permanently until the mode is reset.
    CrashAfterIos(u64),
}

/// A snapshot of an injector's counters (see [`FaultSwitch::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// IOs that reached the injector (faulted or not).
    pub ios_seen: u64,
    /// IOs that were failed, torn, or silently corrupted.
    pub faults_injected: u64,
}

/// Shared switch controlling an injector from outside the device box.
#[derive(Clone, Default)]
pub struct FaultSwitch {
    inner: Arc<Mutex<FaultState>>,
}

#[derive(Default)]
struct FaultState {
    mode: FaultMode,
    ios_seen: u64,
    faults_injected: u64,
    /// Latched by `CrashAfterIos` once the crash point is hit: every
    /// subsequent IO fails until the mode is reset.
    crashed: bool,
}

/// What the injector should do to the current IO (decided under the state
/// lock; acted on with buffer access outside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Pass,
    Fail,
    /// Persist only the first half of the write, then report failure.
    Tear,
    /// Perform the read, then flip the bit at `bit % (len*8)`.
    Corrupt {
        bit: u64,
    },
}

impl FaultSwitch {
    /// A switch in pass-through mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Change the fault mode (resets the IO countdown and crash latch).
    pub fn set(&self, mode: FaultMode) {
        let mut s = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        s.mode = mode;
        s.ios_seen = 0;
        s.crashed = false;
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .faults_injected
    }

    /// Counter snapshot: IOs seen and faults injected.
    pub fn stats(&self) -> FaultStats {
        let s = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        FaultStats {
            ios_seen: s.ios_seen,
            faults_injected: s.faults_injected,
        }
    }

    /// Decide this IO's fate. `ios_seen` counts the IO before deciding,
    /// so ordinals are 1-based.
    fn decide(&self, is_write: bool) -> Action {
        let mut s = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        s.ios_seen += 1;
        let ordinal = s.ios_seen;
        let action = if s.crashed {
            Action::Fail
        } else {
            match s.mode {
                FaultMode::None => Action::Pass,
                FaultMode::All => Action::Fail,
                FaultMode::Reads => {
                    if is_write {
                        Action::Pass
                    } else {
                        Action::Fail
                    }
                }
                FaultMode::Writes => {
                    if is_write {
                        Action::Fail
                    } else {
                        Action::Pass
                    }
                }
                FaultMode::AfterIos(n) => {
                    if ordinal > n {
                        Action::Fail
                    } else {
                        Action::Pass
                    }
                }
                FaultMode::Transient { fail_n, pass_n } => {
                    let cycle = (fail_n + pass_n).max(1);
                    if (ordinal - 1) % cycle < fail_n {
                        Action::Fail
                    } else {
                        Action::Pass
                    }
                }
                FaultMode::Probabilistic { num, denom, seed } => {
                    let h = SplitMix64::new(seed ^ ordinal).next_u64();
                    if denom > 0 && (h % denom as u64) < num as u64 {
                        Action::Fail
                    } else {
                        Action::Pass
                    }
                }
                FaultMode::TornWrite => {
                    if is_write {
                        Action::Tear
                    } else {
                        Action::Pass
                    }
                }
                FaultMode::BitFlip { seed, every } => {
                    if !is_write && every > 0 && ordinal.is_multiple_of(every) {
                        Action::Corrupt {
                            bit: SplitMix64::new(seed ^ ordinal).next_u64(),
                        }
                    } else {
                        Action::Pass
                    }
                }
                FaultMode::CrashAfterIos(n) => {
                    if ordinal <= n {
                        Action::Pass
                    } else {
                        // The crash point: latch permanent failure. A
                        // write caught mid-flight is torn; a read just
                        // fails.
                        s.crashed = true;
                        if is_write {
                            Action::Tear
                        } else {
                            Action::Fail
                        }
                    }
                }
            }
        };
        if action != Action::Pass {
            s.faults_injected += 1;
        }
        action
    }
}

/// A device wrapper that injects faults per its [`FaultSwitch`].
pub struct FaultInjector<D: BlockDevice> {
    inner: D,
    switch: FaultSwitch,
}

impl<D: BlockDevice> FaultInjector<D> {
    /// Wrap `inner`; returns the injector and its control switch.
    pub fn new(inner: D) -> (Self, FaultSwitch) {
        let switch = FaultSwitch::new();
        (
            FaultInjector {
                inner,
                switch: switch.clone(),
            },
            switch,
        )
    }
}

impl<D: BlockDevice> BlockDevice for FaultInjector<D> {
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn read(&mut self, offset: u64, buf: &mut [u8], now: SimTime) -> Result<IoCompletion, IoError> {
        match self.switch.decide(false) {
            Action::Pass | Action::Tear => self.inner.read(offset, buf, now),
            Action::Fail => Err(IoError::Faulted),
            Action::Corrupt { bit } => {
                let done = self.inner.read(offset, buf, now)?;
                if !buf.is_empty() {
                    let b = bit % (buf.len() as u64 * 8);
                    buf[(b / 8) as usize] ^= 1 << (b % 8);
                }
                Ok(done)
            }
        }
    }

    fn write(&mut self, offset: u64, data: &[u8], now: SimTime) -> Result<IoCompletion, IoError> {
        match self.switch.decide(true) {
            Action::Pass | Action::Corrupt { .. } => self.inner.write(offset, data, now),
            Action::Fail => Err(IoError::Faulted),
            Action::Tear => {
                // Persist only a prefix, then report failure — exactly
                // what a power cut mid-sector-stream leaves behind.
                let prefix = &data[..data.len() / 2];
                if !prefix.is_empty() {
                    let _ = self.inner.write(offset, prefix, now);
                }
                Err(IoError::Faulted)
            }
        }
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn describe(&self) -> String {
        format!("fault-injected {}", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::ramdisk::RamDisk;

    fn dev() -> (FaultInjector<RamDisk>, FaultSwitch) {
        FaultInjector::new(RamDisk::new(1 << 16, SimDuration(10)))
    }

    #[test]
    fn passthrough_by_default() {
        let (mut d, sw) = dev();
        d.write(0, &[1, 2, 3], SimTime::ZERO).unwrap();
        let mut buf = [0u8; 3];
        d.read(0, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(sw.faults_injected(), 0);
        assert_eq!(
            sw.stats(),
            FaultStats {
                ios_seen: 2,
                faults_injected: 0
            }
        );
    }

    #[test]
    fn fail_all_then_recover() {
        let (mut d, sw) = dev();
        sw.set(FaultMode::All);
        assert_eq!(d.write(0, &[1], SimTime::ZERO), Err(IoError::Faulted));
        let mut buf = [0u8; 1];
        assert_eq!(d.read(0, &mut buf, SimTime::ZERO), Err(IoError::Faulted));
        assert_eq!(sw.faults_injected(), 2);
        sw.set(FaultMode::None);
        assert!(d.write(0, &[1], SimTime::ZERO).is_ok());
    }

    #[test]
    fn directional_faults() {
        let (mut d, sw) = dev();
        sw.set(FaultMode::Reads);
        assert!(d.write(0, &[1], SimTime::ZERO).is_ok());
        let mut buf = [0u8; 1];
        assert_eq!(d.read(0, &mut buf, SimTime::ZERO), Err(IoError::Faulted));
        sw.set(FaultMode::Writes);
        assert!(d.read(0, &mut buf, SimTime::ZERO).is_ok());
        assert_eq!(d.write(0, &[1], SimTime::ZERO), Err(IoError::Faulted));
    }

    #[test]
    fn countdown_faults() {
        let (mut d, sw) = dev();
        sw.set(FaultMode::AfterIos(2));
        assert!(d.write(0, &[1], SimTime::ZERO).is_ok());
        assert!(d.write(1, &[1], SimTime::ZERO).is_ok());
        assert_eq!(d.write(2, &[1], SimTime::ZERO), Err(IoError::Faulted));
    }

    #[test]
    fn transient_cycles() {
        let (mut d, sw) = dev();
        sw.set(FaultMode::Transient {
            fail_n: 2,
            pass_n: 3,
        });
        let mut buf = [0u8; 1];
        let mut pattern = Vec::new();
        for _ in 0..10 {
            pattern.push(d.read(0, &mut buf, SimTime::ZERO).is_err());
        }
        assert_eq!(
            pattern,
            [true, true, false, false, false, true, true, false, false, false]
        );
        assert_eq!(sw.stats().faults_injected, 4);
    }

    #[test]
    fn probabilistic_is_deterministic_and_roughly_calibrated() {
        let run = |seed: u64| {
            let (mut d, sw) = dev();
            sw.set(FaultMode::Probabilistic {
                num: 1,
                denom: 4,
                seed,
            });
            let mut buf = [0u8; 1];
            (0..400)
                .map(|_| d.read(0, &mut buf, SimTime::ZERO).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same schedule");
        assert_ne!(a, run(43), "different seed, different schedule");
        let faults = a.iter().filter(|&&f| f).count();
        // ~100 expected; allow a generous band.
        assert!((40..=180).contains(&faults), "faults {faults}");
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let (mut d, sw) = dev();
        d.write(0, &[0xAA; 8], SimTime::ZERO).unwrap();
        sw.set(FaultMode::TornWrite);
        assert_eq!(d.write(0, &[0xBB; 8], SimTime::ZERO), Err(IoError::Faulted));
        sw.set(FaultMode::None);
        let mut buf = [0u8; 8];
        d.read(0, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf[..4], &[0xBB; 4], "prefix persisted");
        assert_eq!(&buf[4..], &[0xAA; 4], "tail untouched");
    }

    #[test]
    fn bit_flip_is_silent_and_deterministic() {
        let (mut d, sw) = dev();
        d.write(0, &[0u8; 16], SimTime::ZERO).unwrap();
        sw.set(FaultMode::BitFlip { seed: 7, every: 1 });
        let mut a = [0u8; 16];
        assert!(
            d.read(0, &mut a, SimTime::ZERO).is_ok(),
            "corruption is silent"
        );
        assert_ne!(a, [0u8; 16], "one bit flipped");
        assert_eq!(a.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        // Same ordinal + seed → same bit.
        sw.set(FaultMode::BitFlip { seed: 7, every: 1 });
        let mut b = [0u8; 16];
        d.read(0, &mut b, SimTime::ZERO).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faults_on_a_sub_page_extent_land_in_private_copies() {
        // Two 1 KiB images share one store page of the device below the
        // injector, each kept as an extent.
        let mut disk = RamDisk::new(1 << 16, SimDuration(10));
        let node: Arc<Vec<u8>> = Arc::new((0..1024).map(|i| (i % 251) as u8).collect());
        let next = Arc::new(vec![0x5Au8; 1024]);
        disk.write_image(1024, &node, SimTime::ZERO).unwrap();
        disk.write_image(2048, &next, SimTime::ZERO).unwrap();
        let (mut d, sw) = FaultInjector::new(disk);

        // A flipped bit, in a whole read and in a sub-range read of the
        // extent, lands in the read's own buffer.
        sw.set(FaultMode::BitFlip { seed: 3, every: 1 });
        for (offset, len) in [(1024, 1024), (1100, 300)] {
            let (rotten, _) = d.read_image(offset, len, SimTime::ZERO).unwrap();
            assert_eq!(Arc::strong_count(&rotten), 1, "a private copy");
            let at = (offset - 1024) as usize;
            let flipped: u32 = rotten
                .iter()
                .zip(&node[at..at + len])
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "{offset}+{len}");
        }
        sw.set(FaultMode::None);
        let (clean, _) = d.read_image(1024, 1024, SimTime::ZERO).unwrap();
        assert_eq!(clean, node);

        // A torn write over the extent persists its prefix as a copy: the
        // image the caller holds keeps its bytes, and the device keeps the
        // extent's bytes past the prefix and the neighbouring image.
        sw.set(FaultMode::TornWrite);
        let torn = Arc::new(vec![0xEEu8; 1024]);
        assert_eq!(
            d.write_image(1024, &torn, SimTime::ZERO),
            Err(IoError::Faulted)
        );
        sw.set(FaultMode::None);
        assert_eq!(Arc::strong_count(&torn), 1, "the device kept no handle");
        let (after, _) = d.read_image(1024, 2048, SimTime::ZERO).unwrap();
        assert_eq!(&after[..512], &[0xEE; 512][..]);
        assert_eq!(&after[512..1024], &node[512..]);
        assert_eq!(&after[1024..], &next[..]);
        assert_eq!(
            node[..],
            (0..1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>()[..]
        );
    }

    #[test]
    fn crash_tears_then_fails_forever() {
        let (mut d, sw) = dev();
        sw.set(FaultMode::CrashAfterIos(2));
        assert!(d.write(0, &[0x11; 4], SimTime::ZERO).is_ok());
        assert!(d.write(4, &[0x22; 4], SimTime::ZERO).is_ok());
        // IO #3 is the crash point: torn write.
        assert_eq!(d.write(8, &[0x33; 4], SimTime::ZERO), Err(IoError::Faulted));
        // Everything after is dead, reads included.
        let mut buf = [0u8; 4];
        assert_eq!(d.read(0, &mut buf, SimTime::ZERO), Err(IoError::Faulted));
        assert_eq!(d.write(0, &[0x44; 4], SimTime::ZERO), Err(IoError::Faulted));
        // Reset = reboot: the torn prefix is visible, later data is not.
        sw.set(FaultMode::None);
        d.read(8, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(buf, [0x33, 0x33, 0, 0]);
    }
}
