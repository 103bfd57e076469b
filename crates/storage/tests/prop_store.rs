//! Property tests: `SparseStore` serves the same bytes as a flat array under
//! any interleaving of slice writes, shared-image writes, reads and clears,
//! at aligned and unaligned, overlapping offsets and lengths.
//!
//! Shared images add promises of their own. Images are kept at any
//! alignment (all but unaligned ones that end in a page's worth of zeros),
//! so a read of exactly the range a kept image was written to returns that
//! image (`Arc::ptr_eq`) until a later write overlaps it. A read inside an
//! image, straddling its ends or outside it returns the bytes the flat
//! array holds. And an image handle taken earlier keeps its bytes whatever
//! is written over its range later.

use dam_stats::prop::*;
use dam_storage::store::{SparseStore, STORE_PAGE_BYTES};
use std::sync::Arc;

const PAGE: u64 = STORE_PAGE_BYTES as u64;
/// Sixteen pages: small enough that most IOs overlap earlier ones.
const SPACE: u64 = 16 * PAGE;
/// The serving engine's node size: images that share store pages.
const NODE: u64 = 1024;

#[derive(Debug, Clone, Copy)]
enum Align {
    /// Whole store pages.
    Page,
    /// One to three whole 1 KiB nodes: never whole store pages.
    Node,
    /// Any byte range.
    Byte,
}

#[derive(Debug, Clone)]
enum Op {
    Write {
        offset: u64,
        len: u64,
        fill: u8,
    },
    /// A padded image is all zeros past its first quarter, as a node
    /// padded to its slot is.
    WriteImage {
        offset: u64,
        len: u64,
        fill: u8,
        padded: bool,
    },
    Read {
        offset: u64,
        len: u64,
    },
    ReadImage {
        offset: u64,
        len: u64,
    },
    /// A read placed against the `back`-th latest image written, resolved
    /// when it runs (see [`near`]).
    ReadNear {
        back: u8,
        a: u64,
        b: u64,
    },
    Clear,
}

/// `(offset, len)` inside the space.
fn range(align: Align, a: u64, b: u64) -> (u64, u64) {
    match align {
        Align::Page => {
            let page = a % 16;
            (page * PAGE, (1 + b % 4).min(16 - page) * PAGE)
        }
        Align::Node => {
            let node = a % (SPACE / NODE);
            (node * NODE, (1 + b % 3).min(SPACE / NODE - node) * NODE)
        }
        Align::Byte => {
            let offset = a % SPACE;
            (offset, (1 + b % (3 * PAGE)).min(SPACE - offset))
        }
    }
}

fn align() -> impl Gen<Value = Align> {
    select(vec![Align::Page, Align::Node, Align::Byte])
}

/// `(alignment, offset seed, length seed, fill)`.
fn io() -> impl Gen<Value = (Align, u64, u64, u8)> {
    (align(), any::<u64>(), any::<u64>(), any::<u8>())
}

fn op() -> impl Gen<Value = Op> {
    prop_oneof![
        3 => io().prop_map(|(al, a, b, fill)| {
            let (offset, len) = range(al, a, b);
            Op::Write { offset, len, fill }
        }),
        4 => io().prop_map(|(al, a, b, fill)| {
            let (offset, len) = range(al, a, b);
            let padded = b >> 62 == 0;
            Op::WriteImage { offset, len, fill, padded }
        }),
        2 => io().prop_map(|(al, a, b, _)| {
            let (offset, len) = range(al, a, b);
            Op::Read { offset, len }
        }),
        2 => io().prop_map(|(al, a, b, _)| {
            let (offset, len) = range(al, a, b);
            Op::ReadImage { offset, len }
        }),
        4 => (any::<u8>(), any::<u64>(), any::<u64>())
            .prop_map(|(back, a, b)| Op::ReadNear { back, a, b }),
        1 => Just(Op::Clear),
    ]
}

/// A read against the image at `[start, start + len)`, chosen by `a`:
/// exactly its range, a sub-range inside it, a range over its start or
/// its end, or a range just past it. `b` picks the offset and length.
fn near(start: u64, len: u64, a: u64, b: u64) -> (u64, u64) {
    let end = start + len;
    let (offset, end) = match a % 5 {
        0 => (start, end),
        1 => {
            let offset = start + b % len;
            (offset, offset + 1 + (b >> 32) % (end - offset))
        }
        2 => (
            start.saturating_sub(1 + b % NODE),
            start + 1 + (b >> 32) % len,
        ),
        3 => (start + b % len, end + 1 + (b >> 32) % NODE),
        _ => (end + b % NODE, end + b % NODE + 1 + (b >> 32) % NODE),
    };
    let offset = offset.min(SPACE - 1);
    (offset, end.min(SPACE).max(offset + 1) - offset)
}

/// The bytes an op with `fill` writes: all zeros for `fill == 0` (the
/// store leaves zero pages unmaterialized), else a pattern that differs
/// between neighbouring bytes, so a misplaced copy shows.
fn bytes(fill: u8, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            if fill == 0 {
                0
            } else {
                fill ^ (i as u8).wrapping_mul(31)
            }
        })
        .collect()
}

fn span(offset: u64, len: u64) -> std::ops::Range<usize> {
    offset as usize..(offset + len) as usize
}

/// Images written, latest last, each with whether it is still intact: kept
/// as an extent, and no write has overlapped it since.
type Written = Vec<(u64, Arc<Vec<u8>>, bool)>;

/// Whether the store keeps `image`, written at `offset`, as an extent:
/// unless it starts or ends inside a page and its last page's worth of
/// bytes is all zero.
fn kept(offset: u64, image: &[u8]) -> bool {
    let len = image.len();
    (offset | len as u64).is_multiple_of(PAGE)
        || len < STORE_PAGE_BYTES
        || image[len - STORE_PAGE_BYTES..].iter().any(|&b| b != 0)
}

/// Record a write of `len` bytes at `offset` against `written`.
fn wrote(offset: u64, len: u64, written: &mut Written) {
    for (start, image, intact) in written.iter_mut() {
        *intact &= offset + len <= *start || *start + image.len() as u64 <= offset;
    }
}

props! {
    cases = 192;

    #[test]
    fn store_matches_a_flat_array(ops in vec(op(), 1..80)) {
        let mut store = SparseStore::new();
        let mut model = vec![0u8; SPACE as usize];
        // Every image handed out or stored so far, with its bytes then.
        let mut held: Vec<(Arc<Vec<u8>>, Vec<u8>)> = Vec::new();
        let mut written = Written::new();
        for op in &ops {
            match *op {
                Op::Write { offset, len, fill } => {
                    let data = bytes(fill, len);
                    store.write(offset, &data);
                    model[span(offset, len)].copy_from_slice(&data);
                    wrote(offset, len, &mut written);
                }
                Op::WriteImage { offset, len, fill, padded } => {
                    let mut image = bytes(fill, len);
                    if padded {
                        image[len as usize / 4..].fill(0);
                    }
                    let image = Arc::new(image);
                    store.write_image(offset, &image);
                    model[span(offset, len)].copy_from_slice(&image);
                    wrote(offset, len, &mut written);
                    written.push((offset, image.clone(), kept(offset, &image)));
                    held.push((image.clone(), image.to_vec()));
                }
                Op::Read { offset, len } => {
                    let mut buf = vec![0xA5u8; len as usize];
                    store.read(offset, &mut buf);
                    prop_assert_eq!(&buf[..], &model[span(offset, len)], "read {}+{}", offset, len);
                }
                Op::ReadImage { offset, len } => {
                    let image = store.read_image(offset, len as usize);
                    prop_assert_eq!(&image[..], &model[span(offset, len)], "image {}+{}", offset, len);
                    held.push((image.clone(), image.to_vec()));
                }
                Op::ReadNear { back, a, b } => {
                    let Some(at) = written.len().checked_sub(1 + back as usize % 4) else {
                        continue;
                    };
                    let (start, ref image, intact) = written[at];
                    let (offset, len) = near(start, image.len() as u64, a, b);
                    let got = store.read_image(offset, len as usize);
                    prop_assert_eq!(&got[..], &model[span(offset, len)], "near {}+{}", offset, len);
                    if intact && (offset, len) == (start, image.len() as u64) {
                        prop_assert!(
                            Arc::ptr_eq(&got, image),
                            "image at {offset}+{len} not returned as written"
                        );
                    }
                    let mut buf = vec![0xA5u8; len as usize];
                    store.read(offset, &mut buf);
                    prop_assert_eq!(&buf[..], &got[..], "near read {}+{}", offset, len);
                    held.push((got.clone(), got.to_vec()));
                }
                Op::Clear => {
                    store.clear();
                    model.fill(0);
                    written.clear();
                    prop_assert_eq!(store.resident_bytes(), 0);
                }
            }
            for (offset, image, intact) in &written {
                if *intact {
                    let back = store.read_image(*offset, image.len());
                    prop_assert!(
                        Arc::ptr_eq(&back, image),
                        "intact image at {offset}+{} not shared",
                        image.len()
                    );
                }
            }
            for (image, then) in &held {
                prop_assert_eq!(&image[..], &then[..], "a held image changed");
            }
        }
        let mut all = vec![0xA5u8; SPACE as usize];
        store.read(0, &mut all);
        prop_assert_eq!(all, model);
    }
}

#[test]
fn an_exact_rewrite_replaces_the_image_and_unaligned_images_are_shared() {
    let mut store = SparseStore::new();
    let first = Arc::new(vec![1u8; 2 * STORE_PAGE_BYTES]);
    store.write_image(PAGE, &first);
    assert!(Arc::ptr_eq(&store.read_image(PAGE, first.len()), &first));
    assert_eq!(store.resident_bytes(), first.len());
    let second = Arc::new(vec![2u8; 2 * STORE_PAGE_BYTES]);
    store.write_image(PAGE, &second);
    assert!(Arc::ptr_eq(&store.read_image(PAGE, second.len()), &second));
    assert_eq!(store.resident_bytes(), second.len());
    assert_eq!(*first, vec![1u8; 2 * STORE_PAGE_BYTES]);
    // A sub-range of an image is a copy of just those bytes.
    let part = store.read_image(PAGE + 1, STORE_PAGE_BYTES);
    assert!(!Arc::ptr_eq(&part, &second));
    assert_eq!(*part, vec![2u8; STORE_PAGE_BYTES]);

    // Images that start or end inside a page are kept too, side by side
    // in one page, and no page is materialized for them.
    let unaligned = Arc::new(vec![3u8; 100]);
    store.write_image(10, &unaligned);
    let node = Arc::new((0..1024).map(|i| i as u8).collect::<Vec<u8>>());
    store.write_image(1024, &node);
    assert!(Arc::ptr_eq(&store.read_image(10, 100), &unaligned));
    assert!(Arc::ptr_eq(&store.read_image(1024, 1024), &node));
    assert_eq!(*store.read_image(1030, 4), vec![6, 7, 8, 9]);
    assert_eq!(store.resident_pages(), 0);
    // A read over both images and the gap between them is assembled.
    let mut want = vec![0u8; 2048];
    want[10..110].fill(3);
    want[1024..].copy_from_slice(&node);
    assert_eq!(*store.read_image(0, 2048), want);

    // The exception: an unaligned image that ends in a page of zeros is
    // copied, and its pages keep none of the zeros; the same image at a
    // page boundary is kept.
    let mut node = vec![0u8; 3 * STORE_PAGE_BYTES];
    node[..100].fill(4);
    let padded = Arc::new(node);
    store.write_image(8 * PAGE + 512, &padded);
    let back = store.read_image(8 * PAGE + 512, padded.len());
    assert!(!Arc::ptr_eq(&back, &padded));
    assert_eq!(back, padded);
    assert_eq!(store.resident_pages(), 1);
    store.write_image(12 * PAGE, &padded);
    assert!(Arc::ptr_eq(
        &store.read_image(12 * PAGE, padded.len()),
        &padded
    ));
}

#[test]
fn a_partial_overwrite_keeps_the_survivors_and_the_old_handle() {
    let mut store = SparseStore::new();
    let image = Arc::new(
        (0..4 * STORE_PAGE_BYTES)
            .map(|i| i as u8)
            .collect::<Vec<u8>>(),
    );
    store.write_image(0, &image);
    let handle = store.read_image(0, image.len());
    store.write(PAGE + 7, &[0xEE; 10]);
    assert_eq!(*handle, *image, "the handle keeps its bytes");
    let mut want = (*image).clone();
    want[span(PAGE + 7, 10)].fill(0xEE);
    let mut got = vec![0u8; want.len()];
    store.read(0, &mut got);
    assert_eq!(got, want);
    // The extent is gone: its survivors live in pages now.
    assert!(!Arc::ptr_eq(&store.read_image(0, image.len()), &image));
    assert_eq!(store.resident_pages(), 4);
}
