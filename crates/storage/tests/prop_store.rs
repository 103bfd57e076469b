//! Property tests: `SparseStore` serves the same bytes as a flat array under
//! any interleaving of slice writes, shared-image writes, reads and clears,
//! at aligned and unaligned, overlapping offsets and lengths.
//!
//! Shared images add two promises of their own: a read of exactly the range
//! an image was written to returns that image (`Arc::ptr_eq`), and an image
//! handle taken earlier keeps its bytes whatever is written over its range
//! later.

use dam_stats::prop::*;
use dam_storage::store::{SparseStore, STORE_PAGE_BYTES};
use std::sync::Arc;

const PAGE: u64 = STORE_PAGE_BYTES as u64;
/// Sixteen pages: small enough that most IOs overlap earlier ones.
const SPACE: u64 = 16 * PAGE;

#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, len: u64, fill: u8 },
    WriteImage { offset: u64, len: u64, fill: u8 },
    Read { offset: u64, len: u64 },
    ReadImage { offset: u64, len: u64 },
    Clear,
}

/// `(offset, len)` inside the space: whole pages when `aligned`, any byte
/// range otherwise.
fn range(aligned: bool, a: u64, b: u64) -> (u64, u64) {
    if aligned {
        let page = a % 16;
        (page * PAGE, (1 + b % 4).min(16 - page) * PAGE)
    } else {
        let offset = a % SPACE;
        (offset, (1 + b % (3 * PAGE)).min(SPACE - offset))
    }
}

/// `(aligned, offset seed, length seed, fill)`.
fn io() -> impl Gen<Value = (bool, u64, u64, u8)> {
    (any::<bool>(), any::<u64>(), any::<u64>(), any::<u8>())
}

fn op() -> impl Gen<Value = Op> {
    prop_oneof![
        3 => io().prop_map(|(al, a, b, fill)| {
            let (offset, len) = range(al, a, b);
            Op::Write { offset, len, fill }
        }),
        4 => io().prop_map(|(al, a, b, fill)| {
            // Mostly aligned: the case that keeps the image.
            let (offset, len) = range(al || fill % 4 != 0, a, b);
            Op::WriteImage { offset, len, fill }
        }),
        3 => io().prop_map(|(al, a, b, _)| {
            let (offset, len) = range(al, a, b);
            Op::Read { offset, len }
        }),
        3 => io().prop_map(|(al, a, b, _)| {
            let (offset, len) = range(al, a, b);
            Op::ReadImage { offset, len }
        }),
        1 => Just(Op::Clear),
    ]
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

props! {
    cases = 128;

    #[test]
    fn store_matches_a_flat_array(ops in vec(op(), 1..80)) {
        let mut store = SparseStore::new();
        let mut model = vec![0u8; SPACE as usize];
        // Every image handed out or stored so far, with its bytes then.
        let mut held: Vec<(Arc<Vec<u8>>, Vec<u8>)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Write { offset, len, fill } => {
                    let data = bytes(fill, len);
                    store.write(offset, &data);
                    model[span(offset, len)].copy_from_slice(&data);
                }
                Op::WriteImage { offset, len, fill } => {
                    let image = Arc::new(bytes(fill, len));
                    store.write_image(offset, &image);
                    model[span(offset, len)].copy_from_slice(&image);
                    let back = store.read_image(offset, len as usize);
                    if (offset | len) % PAGE == 0 {
                        prop_assert!(
                            Arc::ptr_eq(&back, &image),
                            "aligned image at {offset}+{len} not returned as written"
                        );
                    }
                    prop_assert_eq!(&back[..], &image[..]);
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
                Op::Clear => {
                    store.clear();
                    model.fill(0);
                    prop_assert_eq!(store.resident_bytes(), 0);
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
fn an_exact_rewrite_replaces_the_image_and_unaligned_images_are_copied() {
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
    // A sub-range of an image is assembled, not shared.
    let part = store.read_image(PAGE, STORE_PAGE_BYTES);
    assert_eq!(*part, vec![2u8; STORE_PAGE_BYTES]);

    let unaligned = Arc::new(vec![3u8; 100]);
    store.write_image(10, &unaligned);
    let back = store.read_image(10, 100);
    assert!(!Arc::ptr_eq(&back, &unaligned));
    assert_eq!(back, unaligned);
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
