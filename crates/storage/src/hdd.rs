//! Mechanical hard-disk simulator.
//!
//! Models the mechanisms the affine model abstracts into `1 + αx` (§2.3):
//!
//! * **seek** — distance-dependent arm movement, `min + (max−min)·√(d/D)`
//!   cylinders (the classic Ruemmler–Wilkes shape: short seeks are
//!   acceleration-bound, long seeks coast),
//! * **rotational latency** — a uniformly random fraction of one platter
//!   revolution (seeded, hence reproducible),
//! * **transfer** — media-rate streaming, optionally zoned (outer tracks
//!   carry more sectors per revolution and hence stream faster),
//! * **sequential detection** — an IO starting exactly where the previous
//!   one ended continues the stream with no positioning cost.
//!
//! Fitting `time = s + t·size` to random reads on this device recovers
//! `s ≈ avg_seek + ½ revolution` and `t ≈ 1/rate`, which is how the
//! Table 2 profiles are constructed (see [`HddProfile::from_affine_targets`]).

use crate::clock::{SimDuration, SimTime};
use crate::device::IoCompletion;
use crate::sim::{SimDevice, Timing};
use dam_stats::rng::Rng;

/// Expected value of `√(|u−v|)` for `u, v` uniform on `[0, 1]` — the mean
/// normalized seek distance factor under random access.
/// `E[√|u−v|] = ∫₀¹∫₀¹ √|x−y| dx dy = 8/15`.
pub const MEAN_SQRT_SEEK_FRACTION: f64 = 8.0 / 15.0;

/// Static description of a hard drive.
#[derive(Debug, Clone, PartialEq)]
pub struct HddProfile {
    /// Marketing name, e.g. "1 TB WD Black".
    pub name: String,
    /// Model year (Table 2 spans 2002–2018).
    pub year: u32,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: f64,
    /// Track-to-track seek time in seconds.
    pub min_seek_s: f64,
    /// Full-stroke seek time in seconds.
    pub max_seek_s: f64,
    /// Streaming transfer rate at the outer edge, bytes per second.
    pub outer_rate_bytes_s: f64,
    /// Inner-track rate as a fraction of the outer rate (1.0 disables
    /// zoning).
    pub inner_rate_fraction: f64,
    /// Number of cylinders the LBA space maps onto.
    pub cylinders: u64,
}

impl HddProfile {
    /// One platter revolution.
    pub fn rotation(&self) -> f64 {
        60.0 / self.rpm
    }

    /// Expected positioning time for a random access: mean seek plus half a
    /// revolution. This is the affine model's `s`.
    pub fn expected_setup_s(&self) -> f64 {
        let mean_seek =
            self.min_seek_s + (self.max_seek_s - self.min_seek_s) * MEAN_SQRT_SEEK_FRACTION;
        mean_seek + self.rotation() / 2.0
    }

    /// Mean transfer time per byte (averaged over zones). This is the affine
    /// model's `t`.
    pub fn expected_seconds_per_byte(&self) -> f64 {
        let mean_rate = self.outer_rate_bytes_s * (1.0 + self.inner_rate_fraction) / 2.0;
        1.0 / mean_rate
    }

    /// The affine `α = t/s` implied by this profile, per byte.
    pub fn alpha_per_byte(&self) -> f64 {
        self.expected_seconds_per_byte() / self.expected_setup_s()
    }

    /// Construct a profile whose *fitted* affine parameters land on given
    /// targets: setup `s_target` seconds and transfer `t_per_4k` seconds per
    /// 4096-byte block (the units Table 2 reports).
    ///
    /// Seek curve: track-to-track fixed at 1 ms; the full-stroke time is
    /// chosen so the mean random seek plus half a revolution equals
    /// `s_target`. Zoning is disabled so the fitted slope is exactly
    /// `t_per_4k / 4096`.
    pub fn from_affine_targets(
        name: &str,
        year: u32,
        capacity_bytes: u64,
        rpm: f64,
        s_target: f64,
        t_per_4k: f64,
    ) -> Self {
        let rotation = 60.0 / rpm;
        let min_seek_s = 0.001;
        let mean_seek = (s_target - rotation / 2.0).max(2.0 * min_seek_s);
        let max_seek_s = min_seek_s + (mean_seek - min_seek_s) / MEAN_SQRT_SEEK_FRACTION;
        HddProfile {
            name: name.to_string(),
            year,
            capacity_bytes,
            rpm,
            min_seek_s,
            max_seek_s,
            outer_rate_bytes_s: 4096.0 / t_per_4k,
            inner_rate_fraction: 1.0,
            cylinders: 250_000,
        }
    }

    fn bytes_per_cylinder(&self) -> f64 {
        self.capacity_bytes as f64 / self.cylinders as f64
    }

    fn cylinder_of(&self, offset: u64) -> u64 {
        ((offset as f64 / self.bytes_per_cylinder()) as u64).min(self.cylinders - 1)
    }

    /// Seek time between two cylinders.
    pub fn seek_time_s(&self, from_cyl: u64, to_cyl: u64) -> f64 {
        if from_cyl == to_cyl {
            return 0.0;
        }
        let d = from_cyl.abs_diff(to_cyl) as f64 / self.cylinders as f64;
        self.min_seek_s + (self.max_seek_s - self.min_seek_s) * d.sqrt()
    }

    /// Streaming rate at a cylinder (outer cylinders are faster when zoning
    /// is enabled).
    pub fn rate_at(&self, cyl: u64) -> f64 {
        let frac = cyl as f64 / self.cylinders as f64;
        self.outer_rate_bytes_s * (1.0 - (1.0 - self.inner_rate_fraction) * frac)
    }
}

/// A simulated hard drive: one head, one command at a time.
pub type HddDevice = SimDevice<HddTiming>;

/// A hard drive's timing state: where the head is, when it is free, where
/// the previous IO ended and the rotational-latency stream.
pub struct HddTiming {
    profile: HddProfile,
    head_cylinder: u64,
    next_free: SimTime,
    /// End offset of the previous IO, for sequential-stream detection.
    last_end: Option<u64>,
    rng: Rng,
}

impl HddDevice {
    /// Build a drive from a profile with a deterministic RNG seed (the seed
    /// drives rotational-latency sampling).
    pub fn new(profile: HddProfile, seed: u64) -> Self {
        SimDevice::from(HddTiming {
            profile,
            head_cylinder: 0,
            next_free: SimTime::ZERO,
            last_end: None,
            rng: Rng::seed_from_u64(seed),
        })
    }

    /// The profile this device simulates.
    pub fn profile(&self) -> &HddProfile {
        &self.timing.profile
    }
}

impl Timing for HddTiming {
    fn capacity_bytes(&self) -> u64 {
        self.profile.capacity_bytes
    }

    /// Positioning (none for a sequential IO) plus transfer, after the
    /// previous command; moves the head to the IO's last byte.
    fn schedule(&mut self, _: bool, offset: u64, len: u64, now: SimTime) -> IoCompletion {
        let target_cyl = self.profile.cylinder_of(offset);
        let positioning = if self.last_end == Some(offset) {
            0.0
        } else {
            let seek = self.profile.seek_time_s(self.head_cylinder, target_cyl);
            let rot = self.rng.gen_range(0.0..self.profile.rotation());
            seek + rot
        };
        let transfer = len as f64 / self.profile.rate_at(target_cyl);
        self.head_cylinder = self.profile.cylinder_of(offset + len - 1);
        self.last_end = Some(offset + len);
        let start = now.max(self.next_free);
        let complete = start + SimDuration::from_secs_f64(positioning + transfer);
        self.next_free = complete;
        IoCompletion { start, complete }
    }

    fn describe(&self) -> String {
        format!("{} ({}, sim HDD)", self.profile.name, self.profile.year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDevice;

    fn test_profile() -> HddProfile {
        HddProfile::from_affine_targets("test disk", 2011, 1 << 34, 7200.0, 0.012, 0.000035)
    }

    #[test]
    fn profile_targets_roundtrip() {
        let p = test_profile();
        assert!(
            (p.expected_setup_s() - 0.012).abs() < 1e-6,
            "{}",
            p.expected_setup_s()
        );
        assert!((p.expected_seconds_per_byte() - 0.000035 / 4096.0).abs() < 1e-12);
        // Table 2 reports alpha per 4 KiB block.
        let alpha_4k = p.alpha_per_byte() * 4096.0;
        assert!(
            (alpha_4k - 0.0029).abs() < 2e-4,
            "alpha per 4k = {alpha_4k}"
        );
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let p = test_profile();
        assert_eq!(p.seek_time_s(100, 100), 0.0);
        let near = p.seek_time_s(0, 100);
        let mid = p.seek_time_s(0, p.cylinders / 2);
        let far = p.seek_time_s(0, p.cylinders - 1);
        assert!(near < mid && mid < far);
        assert!(near >= p.min_seek_s);
        assert!(far <= p.max_seek_s + 1e-12);
    }

    #[test]
    fn sequential_io_skips_positioning() {
        let mut d = HddDevice::new(test_profile(), 42);
        let data = vec![7u8; 1 << 20];
        let first = d.write(0, &data, SimTime::ZERO).unwrap();
        // Continue exactly where the first IO ended: pure transfer time.
        let second = d.write(1 << 20, &data, first.complete).unwrap();
        let transfer = SimDuration::from_secs_f64((1 << 20) as f64 / d.profile().rate_at(0));
        let slack = (second.latency().0 as i64 - transfer.0 as i64).abs();
        assert!(
            slack < 1_000_000,
            "sequential IO should be transfer-only, slack {slack}ns"
        );
        assert!(second.latency() < first.latency());
    }

    #[test]
    fn random_io_pays_positioning() {
        let mut d = HddDevice::new(test_profile(), 42);
        let buf = vec![0u8; 4096];
        let c1 = d.write(0, &buf, SimTime::ZERO).unwrap();
        // Jump to the far end of the disk: long seek.
        let far = d.capacity_bytes() - 8192;
        let c2 = d.write(far, &buf, c1.complete).unwrap();
        assert!(c2.latency().as_secs_f64() > d.profile().min_seek_s);
    }

    #[test]
    fn mean_random_read_time_matches_affine_prediction() {
        // The headline §4.2 claim in miniature: random fixed-size reads have
        // mean latency ≈ s + t·size.
        let profile = test_profile();
        let mut d = HddDevice::new(profile.clone(), 7);
        let io: usize = 256 * 1024;
        let mut buf = vec![0u8; io];
        let mut now = SimTime::ZERO;
        let n = 200;
        let mut rng = Rng::seed_from_u64(99);
        let mut total = 0.0;
        for _ in 0..n {
            let offset = rng.gen_range(0..(profile.capacity_bytes - io as u64) / 4096) * 4096;
            let c = d.read(offset, &mut buf, now).unwrap();
            total += c.latency().as_secs_f64();
            now = c.complete;
        }
        let mean = total / n as f64;
        let predicted =
            profile.expected_setup_s() + io as f64 * profile.expected_seconds_per_byte();
        let err = (mean - predicted).abs() / predicted;
        assert!(
            err < 0.15,
            "mean {mean} vs predicted {predicted} (err {err})"
        );
    }

    #[test]
    fn zoned_profile_streams_slower_on_inner_tracks() {
        let mut p = test_profile();
        p.inner_rate_fraction = 0.5;
        assert!(p.rate_at(p.cylinders - 1) < p.rate_at(0));
        assert!((p.rate_at(p.cylinders - 1) / p.rate_at(0) - 0.5).abs() < 0.01);
    }

    #[test]
    fn data_integrity_across_simulated_geometry() {
        let mut d = HddDevice::new(test_profile(), 1);
        let pattern: Vec<u8> = (0..100_000).map(|i| (i * 31 % 251) as u8).collect();
        d.write(12_345_678, &pattern, SimTime::ZERO).unwrap();
        let mut buf = vec![0u8; pattern.len()];
        d.read(12_345_678, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(buf, pattern);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut d = HddDevice::new(test_profile(), 5);
            let mut buf = vec![0u8; 8192];
            let mut now = SimTime::ZERO;
            for i in 0..50u64 {
                let c = d.read(i * 1_000_000, &mut buf, now).unwrap();
                now = c.complete;
            }
            now
        };
        assert_eq!(run(), run());
    }
}
