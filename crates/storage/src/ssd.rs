//! Flash (SSD/NVMe) simulator.
//!
//! Models the mechanisms the PDAM abstracts into "`P` IOs per time step"
//! (§2.2). A command passes through a two-stage pipeline:
//!
//! 1. **flash array**: the die(s) holding the data perform the read/program
//!    — many dies (`units`) work in parallel, and two commands landing on
//!    the same die queue behind each other (a **bank conflict**, the reason
//!    Figure 1's knee "is not perfectly sharp");
//! 2. **shared bus/controller**: the data crosses a single shared resource
//!    at `bus_bytes_per_s` — transfers serialize.
//!
//! Because array work overlaps bus transfers across commands, a closed-loop
//! workload scales until the bus saturates: the effective parallelism is
//! `P ≈ 1 + t_flash / t_bus` for the benchmark IO size, which is how
//! [`SsdProfile::from_pdam_targets`] dials a device to a target `P` —
//! fractional values like Table 1's 3.3 fall out naturally.

use crate::clock::{SimDuration, SimTime};
use crate::device::IoCompletion;
use crate::sim::{SimDevice, Timing};

/// Static description of an SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdProfile {
    /// Marketing name, e.g. "Samsung 860 pro".
    pub name: String,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Independent flash units (channels × dies).
    pub units: usize,
    /// LBA striping granularity across units, bytes.
    pub stripe_bytes: u64,
    /// Flash page size, bytes.
    pub page_bytes: u64,
    /// Array read time per command on one unit, microseconds (includes
    /// firmware/FTL overhead).
    pub read_us: f64,
    /// Array program time per command on one unit, microseconds.
    pub program_us: f64,
    /// Additional array time per page, microseconds.
    pub array_us_per_page: f64,
    /// Shared bus/controller throughput, bytes per second.
    pub bus_bytes_per_s: f64,
}

impl SsdProfile {
    /// Array-phase time of a read command of `pages` pages.
    pub fn read_array_us(&self, pages: u64) -> f64 {
        self.read_us + self.array_us_per_page * pages as f64
    }

    /// Array-phase time of a write command of `pages` pages.
    pub fn write_array_us(&self, pages: u64) -> f64 {
        self.program_us + self.array_us_per_page * pages as f64
    }

    /// Bus-transfer time for `bytes`, seconds.
    pub fn bus_s(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bus_bytes_per_s
    }

    /// Single-command read latency for `bytes` (array + bus), seconds.
    pub fn read_latency_s(&self, bytes: u64) -> f64 {
        let pages = bytes.div_ceil(self.page_bytes);
        self.read_array_us(pages) * 1e-6 + self.bus_s(bytes)
    }

    /// Saturated random-read throughput for any IO size: the bus rate.
    pub fn saturated_read_rate(&self) -> f64 {
        self.bus_bytes_per_s
    }

    /// Effective closed-loop parallelism for IOs of `bytes`:
    /// `(t_array + t_bus) / t_bus` — the number of concurrent clients that
    /// first saturates the bus.
    pub fn effective_p(&self, bytes: u64) -> f64 {
        self.read_latency_s(bytes) / self.bus_s(bytes)
    }

    /// Construct a profile whose *fitted* PDAM parameters land on targets:
    /// effective parallelism `target_p` and saturated throughput
    /// `saturated_mb_s`, both at the paper's 64 KiB benchmark IO size.
    ///
    /// The bus rate is the saturation target; the array read time is set so
    /// `1 + t_array/t_bus = target_p`. 16 flash units keep bank conflicts
    /// rare but present.
    pub fn from_pdam_targets(
        name: &str,
        capacity_bytes: u64,
        target_p: f64,
        saturated_mb_s: f64,
    ) -> Self {
        assert!(target_p > 1.0, "effective parallelism must exceed 1");
        let io = 64 * 1024u64;
        let bus_bytes_per_s = saturated_mb_s * 1e6;
        let t_bus_us = io as f64 / bus_bytes_per_s * 1e6;
        let pages = io / 4096;
        let array_us_per_page = 0.5;
        let read_us = (target_p - 1.0) * t_bus_us - array_us_per_page * pages as f64;
        assert!(read_us > 0.0, "target_p too small for this saturation rate");
        SsdProfile {
            name: name.to_string(),
            capacity_bytes,
            units: 16,
            stripe_bytes: io,
            page_bytes: 4096,
            read_us,
            program_us: 3.0 * read_us,
            array_us_per_page,
            bus_bytes_per_s,
        }
    }
}

/// A simulated SSD: parallel flash units feeding one shared bus.
pub type SsdDevice = SimDevice<SsdTiming>;

/// An SSD's timing state: when each flash unit and the bus are free.
pub struct SsdTiming {
    profile: SsdProfile,
    unit_free: Vec<SimTime>,
    bus_free: SimTime,
}

impl SsdDevice {
    /// Build a device from a profile.
    pub fn new(profile: SsdProfile) -> Self {
        SimDevice::from(SsdTiming {
            unit_free: vec![SimTime::ZERO; profile.units],
            bus_free: SimTime::ZERO,
            profile,
        })
    }

    /// The profile this device simulates.
    pub fn profile(&self) -> &SsdProfile {
        &self.timing.profile
    }
}

impl Timing for SsdTiming {
    fn capacity_bytes(&self) -> u64 {
        self.profile.capacity_bytes
    }

    /// Array phases run in parallel on the involved units (queueing per
    /// unit = bank conflicts); the bus transfer then serializes behind
    /// other commands.
    fn schedule(&mut self, is_write: bool, offset: u64, len: u64, now: SimTime) -> IoCompletion {
        // Pages per involved unit; a stripe lives on unit
        // `(offset / stripe) % units`.
        let mut per_unit: Vec<(usize, u64)> = Vec::new();
        let stripe = self.profile.stripe_bytes;
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe_end = (pos / stripe + 1) * stripe;
            let chunk = stripe_end.min(end) - pos;
            let pages = chunk.div_ceil(self.profile.page_bytes).max(1);
            let u = ((pos / stripe) % self.profile.units as u64) as usize;
            match per_unit.iter_mut().find(|(uu, _)| *uu == u) {
                Some((_, p)) => *p += pages,
                None => per_unit.push((u, pages)),
            }
            pos = stripe_end.min(end);
        }
        // Array phase: each involved unit works independently.
        let mut start = SimTime(u64::MAX);
        let mut array_done = SimTime::ZERO;
        for &(u, pages) in &per_unit {
            let t_us = if is_write {
                self.profile.write_array_us(pages)
            } else {
                self.profile.read_array_us(pages)
            };
            let s = now.max(self.unit_free[u]);
            let done = s + SimDuration::from_secs_f64(t_us * 1e-6);
            self.unit_free[u] = done;
            start = SimTime(start.0.min(s.0));
            array_done = array_done.max(done);
        }
        debug_assert!(start.0 != u64::MAX, "IO touched no unit");
        // Bus phase: one serialized transfer of the whole payload.
        let bus_start = array_done.max(self.bus_free);
        let complete = bus_start + SimDuration::from_secs_f64(self.profile.bus_s(len));
        self.bus_free = complete;
        IoCompletion { start, complete }
    }

    fn describe(&self) -> String {
        format!(
            "{} ({} units + shared bus, sim SSD)",
            self.profile.name, self.profile.units
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDevice;

    fn test_profile() -> SsdProfile {
        SsdProfile::from_pdam_targets("test ssd", 1 << 34, 3.3, 530.0)
    }

    #[test]
    fn target_saturation_is_bus_rate() {
        let p = test_profile();
        assert!((p.saturated_read_rate() / 530e6 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn target_p_roundtrips() {
        let p = test_profile();
        assert!(
            (p.effective_p(64 * 1024) - 3.3).abs() < 1e-9,
            "{}",
            p.effective_p(64 * 1024)
        );
    }

    #[test]
    fn single_io_latency_is_array_plus_bus() {
        let p = test_profile();
        let mut d = SsdDevice::new(p.clone());
        let mut buf = vec![0u8; 64 * 1024];
        let c = d.read(0, &mut buf, SimTime::ZERO).unwrap();
        let expect = p.read_latency_s(64 * 1024);
        assert!((c.latency().as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn concurrent_ios_pipeline_on_bus() {
        // Two IOs on different units: array phases overlap, bus serializes.
        let p = test_profile();
        let mut d = SsdDevice::new(p.clone());
        let stripe = p.stripe_bytes;
        let mut buf = vec![0u8; stripe as usize];
        let a = d.read(0, &mut buf, SimTime::ZERO).unwrap();
        let b = d.read(stripe, &mut buf, SimTime::ZERO).unwrap();
        let t_bus = SimDuration::from_secs_f64(p.bus_s(stripe));
        // b finishes one bus-transfer after a.
        assert_eq!(b.complete, a.complete + t_bus);
        // Far sooner than full serialization.
        assert!(b.complete.0 < 2 * a.complete.0);
    }

    #[test]
    fn bank_conflict_serializes_array_phase() {
        let p = test_profile();
        let units = p.units as u64;
        let mut d = SsdDevice::new(p.clone());
        let stripe = p.stripe_bytes;
        let mut buf = vec![0u8; stripe as usize];
        let a = d.read(0, &mut buf, SimTime::ZERO).unwrap();
        // Same unit: array waits for the first command's array phase.
        let b = d.read(units * stripe, &mut buf, SimTime::ZERO).unwrap();
        let t_array = SimDuration::from_secs_f64(p.read_array_us(stripe / p.page_bytes) * 1e-6);
        assert!(b.complete >= a.start + t_array + t_array);
    }

    #[test]
    fn large_io_rate_approaches_bus_rate() {
        let p = test_profile();
        let mut d = SsdDevice::new(p.clone());
        let big = 4 * 1024 * 1024usize;
        let mut buf = vec![0u8; big];
        let c = d.read(0, &mut buf, SimTime::ZERO).unwrap();
        let rate = big as f64 / c.latency().as_secs_f64();
        assert!(rate > 0.8 * p.bus_bytes_per_s, "rate {rate}");
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut d = SsdDevice::new(test_profile());
        let mut buf = vec![0u8; 4096];
        let r = d.read(0, &mut buf, SimTime::ZERO).unwrap();
        let w = d.write(1 << 20, &buf, SimTime::ZERO).unwrap();
        assert!(w.latency() > r.latency());
    }

    #[test]
    fn data_integrity() {
        let mut d = SsdDevice::new(test_profile());
        let pattern: Vec<u8> = (0..200_000).map(|i| (i % 253) as u8).collect();
        d.write(777_777, &pattern, SimTime::ZERO).unwrap();
        let mut buf = vec![0u8; pattern.len()];
        d.read(777_777, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(buf, pattern);
    }

    #[test]
    fn closed_loop_knee_near_target_p() {
        // The defining property: makespan flat-ish until ~P clients, then
        // linear. Ratio T(8)/T(1) ≈ 8/P for a bus-bound tail.
        use crate::concurrency::{run_closed_loop, ClosedLoopConfig};
        let p = test_profile();
        let run = |clients: usize| {
            let mut d = SsdDevice::new(p.clone());
            let cfg = ClosedLoopConfig::random_reads(clients, 200, 64 * 1024, 9);
            run_closed_loop(&mut d, &cfg)
                .unwrap()
                .makespan
                .as_secs_f64()
        };
        let t1 = run(1);
        let t2 = run(2);
        let t3 = run(3);
        let t16 = run(16);
        // Flat region: 2 and 3 clients barely slower than 1.
        assert!(t2 < 1.25 * t1, "t2/t1 = {}", t2 / t1);
        assert!(t3 < 1.4 * t1, "t3/t1 = {}", t3 / t1);
        // Saturated tail: T(16) ≈ 16/3.3 · T(1).
        let ratio = t16 / t1;
        assert!((3.5..6.5).contains(&ratio), "t16/t1 = {ratio}");
    }
}
