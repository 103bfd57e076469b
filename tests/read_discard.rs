//! Every read or write path of a simulated device costs the same:
//! `read_discard` is `read` without the bytes, and `read_image` and
//! `write_image` are `read` and `write` with shared images.
//!
//! Identical devices run one seeded mixed IO sequence, each through one
//! path: `read` and `write`; `read_discard` and `write`; or `read_image`
//! and `write_image`. Each simulated device (RAM disk, SSD, HDD: the
//! `SimDevice` that overrides all three) must then report the same
//! completions and errors, read the same bytes, and end with the same
//! device statistics. Wrappers keep the provided methods, which call their
//! `read` and `write`. The sequence includes out-of-range and zero-length
//! reads, so the error paths are compared too. A second sequence writes
//! 1 KiB nodes, as the serving engine's trees do, and reads them back
//! whole, in part and across their ends: every such image is kept shared
//! although it fills only part of a 4 KiB store page.
//!
//! The generator is `dam_stats::rng::SplitMix64`, whose modulo `below` the
//! sequence is pinned to.

use dam_stats::rng::SplitMix64;
use dam_storage::profiles;
use dam_storage::store::STORE_PAGE_BYTES;
use dam_storage::{
    BlockDevice, DeviceStats, HddDevice, IoCompletion, IoError, RamDisk, SimDuration, SimTime,
    SsdDevice,
};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Io {
    Read { offset: u64, len: u64 },
    Write { offset: u64, len: u64, fill: u8 },
}

/// `n` IOs over a device of `capacity` bytes: mostly reads and writes of
/// 512 B to 64 KiB within the first MiB (so reads find written bytes and
/// the HDD sees both sequential and random access), plus reads that run
/// past the end and zero-length reads.
fn sequence(seed: u64, capacity: u64, n: usize) -> Vec<Io> {
    let mut rng = SplitMix64::new(seed);
    let mut last_end = 0u64;
    (0..n)
        .map(|_| {
            let len = 512 << rng.below(8);
            let offset = match rng.below(4) {
                0 => last_end,
                _ => rng.below(1 << 20) / 512 * 512,
            };
            last_end = offset + len;
            match rng.below(20) {
                0 => Io::Read {
                    offset: capacity - len / 2,
                    len,
                },
                1 => Io::Read { offset, len: 0 },
                2..=11 => Io::Read { offset, len },
                _ => Io::Write {
                    offset,
                    len,
                    fill: rng.next_u64() as u8 | 1,
                },
            }
        })
        .collect()
}

/// `sequence` with every third read turned into a read of exactly the
/// range the latest write covered, so the image paths hand back the images
/// they kept (whole-page writes at page offsets) and read images that
/// later writes overwrote in part.
fn rereading_sequence(seed: u64, capacity: u64, n: usize) -> Vec<Io> {
    let mut last_write = None;
    sequence(seed, capacity, n)
        .into_iter()
        .enumerate()
        .map(|(i, io)| match (io, last_write) {
            (Io::Write { offset, len, .. }, _) => {
                last_write = Some((offset, len));
                io
            }
            (Io::Read { .. }, Some((offset, len))) if i % 3 == 0 => Io::Read { offset, len },
            _ => io,
        })
        .collect()
}

/// `n` IOs over a device of `capacity` bytes that write one to three 1 KiB
/// nodes at 1 KiB offsets within the first 256 KiB, and read back the
/// latest write's exact range, a sub-range inside it, or any range (which
/// may straddle several images and unwritten bytes); plus reads that run
/// past the end.
fn node_sequence(seed: u64, capacity: u64, n: usize) -> Vec<Io> {
    const NODE: u64 = 1024;
    let mut rng = SplitMix64::new(seed);
    let mut last = (0, NODE);
    (0..n)
        .map(|_| match rng.below(10) {
            0 => Io::Read {
                offset: capacity - NODE / 2,
                len: NODE,
            },
            1..=3 => Io::Read {
                offset: last.0,
                len: last.1,
            },
            4 | 5 => {
                let at = rng.below(last.1);
                let len = 1 + rng.below(last.1 - at);
                Io::Read {
                    offset: last.0 + at,
                    len,
                }
            }
            6 => Io::Read {
                offset: rng.below(256 * NODE),
                len: 1 + rng.below(3 * NODE),
            },
            _ => {
                last = (rng.below(256) * NODE, NODE * (1 + rng.below(3)));
                Io::Write {
                    offset: last.0,
                    len: last.1,
                    fill: rng.next_u64() as u8 | 1,
                }
            }
        })
        .collect()
}

/// The bytes a write with `fill` carries: a pattern that differs between
/// neighbouring bytes, so a read of a misplaced range shows.
fn pattern(fill: u8, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| fill ^ (i as u8).wrapping_mul(31))
        .collect()
}

/// Which `BlockDevice` methods a replica moves its bytes through.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `read` and `write`.
    Copy,
    /// `read_discard` and `write`.
    Discard,
    /// `read_image` and `write_image`.
    Image,
}

#[derive(Debug, PartialEq)]
struct Report {
    results: Vec<Result<IoCompletion, IoError>>,
    device: DeviceStats,
}

/// What a replica's successful reads returned (nothing through
/// `read_discard`), how many of them were images the device shared, and
/// how many of those do not span whole store pages.
#[derive(Debug, Default, PartialEq)]
struct ReadBytes {
    bytes: Vec<Vec<u8>>,
    shared: usize,
    shared_sub_page: usize,
}

/// Run `ios` against `dev` through `path`, each IO submitted when the
/// previous one completed (or a microsecond after it failed).
fn drive(mut dev: Box<dyn BlockDevice>, ios: &[Io], path: Path) -> (Report, ReadBytes) {
    let mut now = SimTime::ZERO;
    let mut read = ReadBytes::default();
    let results = ios
        .iter()
        .map(|&io| {
            let done = match (io, path) {
                (Io::Read { offset, len }, Path::Discard) => dev.read_discard(offset, len, now),
                (Io::Read { offset, len }, Path::Copy) => {
                    let mut buf = vec![0; len as usize];
                    let done = dev.read(offset, &mut buf, now);
                    if done.is_ok() {
                        read.bytes.push(buf);
                    }
                    done
                }
                (Io::Read { offset, len }, Path::Image) => {
                    dev.read_image(offset, len as usize, now).map(|(image, c)| {
                        // The device keeps a reference to an image it shares.
                        let shared = Arc::strong_count(&image) > 1;
                        let sub_page = (offset | len) % STORE_PAGE_BYTES as u64 != 0;
                        read.shared += usize::from(shared);
                        read.shared_sub_page += usize::from(shared && sub_page);
                        read.bytes.push(image.to_vec());
                        c
                    })
                }
                (Io::Write { offset, len, fill }, Path::Image) => {
                    dev.write_image(offset, &Arc::new(pattern(fill, len)), now)
                }
                (Io::Write { offset, len, fill }, _) => dev.write(offset, &pattern(fill, len), now),
            };
            now = match &done {
                Ok(c) => c.complete,
                Err(_) => now + SimDuration::from_micros(1),
            };
            done
        })
        .collect();
    let report = Report {
        results,
        device: dev.stats(),
    };
    (report, read)
}

type Base = fn() -> Box<dyn BlockDevice>;

fn bases() -> [(&'static str, Base); 3] {
    [
        ("ramdisk", || {
            Box::new(RamDisk::new(1 << 21, SimDuration(800)))
        }),
        ("ssd", || {
            Box::new(SsdDevice::new(profiles::samsung_860_pro()))
        }),
        // Seeded rotational latency: the HDD's random stream must advance
        // the same way on both devices.
        ("hdd", || {
            Box::new(HddDevice::new(profiles::wd_black_1tb_2011(), 31))
        }),
    ]
}

#[test]
fn read_discard_matches_read_on_every_device() {
    for (name, base) in bases() {
        let ios = sequence(0xD15C_A7D0, base().capacity_bytes(), 300);
        let (with_bytes, _) = drive(base(), &ios, Path::Copy);
        let (timing_only, _) = drive(base(), &ios, Path::Discard);
        assert_eq!(with_bytes, timing_only, "{name}");
    }
}

#[test]
fn image_paths_match_read_and_write_on_every_device() {
    for (name, base) in bases() {
        let capacity = base().capacity_bytes();
        for (kind, ios) in [
            ("mixed", rereading_sequence(0x1AA6_E5ED, capacity, 300)),
            ("nodes", node_sequence(0x1AA6_E5ED, capacity, 300)),
        ] {
            let (copied, copied_bytes) = drive(base(), &ios, Path::Copy);
            let (shared, shared_bytes) = drive(base(), &ios, Path::Image);
            assert_eq!(copied, shared, "{name} {kind}");
            assert_eq!(copied_bytes.bytes, shared_bytes.bytes, "{name} {kind}");
            // The image replica did take the shared path, sub-page images
            // included, and no read of the copying replica shares anything.
            assert!(shared_bytes.shared > 0, "{name} {kind}");
            assert!(shared_bytes.shared_sub_page > 0, "{name} {kind}");
            assert_eq!(copied_bytes.shared, 0, "{name} {kind}");
        }
    }
}

#[test]
fn the_sequence_covers_errors_sequential_and_random_io() {
    let ios = sequence(0xD15C_A7D0, 1 << 21, 300);
    let (report, _) = drive(
        Box::new(RamDisk::new(1 << 21, SimDuration(1))),
        &ios,
        Path::Discard,
    );
    let out_of_range = report
        .results
        .iter()
        .filter(|r| matches!(r, Err(IoError::OutOfRange { .. })))
        .count();
    let zero = report
        .results
        .iter()
        .filter(|r| matches!(r, Err(IoError::ZeroLength)))
        .count();
    assert!(out_of_range > 0 && zero > 0, "{out_of_range} {zero}");
    assert!(report.device.reads > 50 && report.device.writes > 50);
}
