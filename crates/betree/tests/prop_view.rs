//! Property tests, run once per layout: a node written through its layout
//! decodes to itself; the part a query reads in place answers what the
//! decoded node answers (leaf lookups and ranges, routing, buffered
//! messages per key); and a well-framed image around a malformed or
//! arbitrary payload is a `CodecError` or a node, never a panic. The
//! whole-node layout's in-place [`BufferEdit`] leaves the bytes its owned
//! edit encodes to.

use dam_betree::layout::{Body, Node, PartView};
use dam_betree::node::{buffer_insert, encode_internal, internal_size};
use dam_betree::{BeTreeConfig, BufferEdit, ChildDesc, Layout, OptConfig};
use dam_betree::{Segmented, WholeNode};
use dam_cache::Pager;
use dam_kv::codec::{frame_into_slot, unframe, Record};
use dam_kv::msg::{Message, Operation};
use dam_stats::prop::*;
use dam_storage::{RamDisk, SharedDevice, SimDuration};
use std::collections::{BTreeMap, BTreeSet};

fn key() -> impl Gen<Value = Vec<u8>> {
    vec(0u8..4, 0..4)
}

fn op() -> impl Gen<Value = Operation> {
    prop_oneof![
        vec(any::<u8>(), 0..8).prop_map(Operation::Put),
        Just(Operation::Delete),
    ]
}

/// A `(key, seq)`-sorted message buffer.
fn buffer() -> impl Gen<Value = Vec<Message>> {
    vec((key(), any::<u16>(), op()), 0..8).prop_map(|raw| {
        let mut msgs: Vec<Message> = raw
            .into_iter()
            .map(|(key, seq, op)| Message {
                seq: seq as u64,
                key,
                op,
            })
            .collect();
        msgs.sort_by(|a, b| (&a.key, a.seq).cmp(&(&b.key, b.seq)));
        msgs
    })
}

/// A leaf of up to `chunks` chunks.
fn leaf(chunks: usize) -> impl Gen<Value = Node> {
    (
        btree_map(key(), vec(any::<u8>(), 0..12), 0..40),
        1..chunks + 1,
    )
        .prop_map(|(m, c): (BTreeMap<Vec<u8>, Vec<u8>>, usize)| {
            let entries: Vec<_> = m.into_iter().collect();
            let c = c.min(entries.len()).max(1);
            let len = entries.len();
            let chunks: Vec<Vec<_>> = (0..c)
                .map(|j| entries[j * len / c..(j + 1) * len / c].to_vec())
                .collect();
            let pivots = chunks[1..].iter().map(|ch| ch[0].0.clone()).collect();
            Node {
                pivots,
                body: Body::Leaf(chunks),
            }
        })
}

/// An internal node of up to 13 children; their pivots and kinds are set
/// only when the layout keeps them in the parent.
fn internal(pivots_in_parent: bool) -> impl Gen<Value = Node> {
    let kid = (any::<bool>(), btree_set(key(), 0..4), buffer());
    (btree_set(key(), 0..12), vec(kid, 13..14)).prop_map(
        move |(pivots, mut kids): (BTreeSet<Vec<u8>>, Vec<_>)| {
            kids.truncate(pivots.len() + 1);
            let kids = kids
                .into_iter()
                .enumerate()
                .map(|(i, (is_leaf, boundaries, msgs))| ChildDesc {
                    addr: 4096 * (i as u64 + 1),
                    is_leaf: is_leaf && pivots_in_parent,
                    boundaries: if pivots_in_parent {
                        boundaries.into_iter().collect()
                    } else {
                        Vec::new()
                    },
                    msgs,
                })
                .collect();
            Node {
                pivots: pivots.into_iter().collect(),
                body: Body::Internal(kids),
            }
        },
    )
}

fn whole() -> WholeNode {
    WholeNode::from_config(BeTreeConfig::new(1 << 16, 16, 1 << 20))
        .unwrap()
        .0
}

fn segmented() -> Segmented {
    Segmented::from_config(OptConfig::new(8, 2048, 1 << 20))
        .unwrap()
        .0
}

/// A pager holding `node`, written through `layout`, and its descriptor.
fn written<L: Layout>(layout: &L, node: &Node) -> (Pager, ChildDesc) {
    let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(100))));
    let mut pager = Pager::new(dev, 1 << 22, layout.superblock_bytes());
    let addr = pager.alloc(layout.node_bytes() as u64).unwrap();
    let mut desc = ChildDesc::new(addr, node.is_leaf());
    layout.write(&mut pager, &mut desc, node).unwrap();
    (pager, desc)
}

fn route(pivots: &[Vec<u8>], key: &[u8]) -> usize {
    pivots.partition_point(|p| p.as_slice() <= key)
}

fn check_views<L: Layout>(layout: L, node: Node, probes: &[(Vec<u8>, Vec<u8>)]) -> CaseResult {
    let (mut pager, desc) = written(&layout, &node);
    let page = layout.fetch(&mut pager, &desc).unwrap();
    prop_assert_eq!(&layout.decode(&page, &desc).unwrap(), &node);
    let parts = match &node.body {
        Body::Leaf(chunks) => chunks.len(),
        Body::Internal(kids) => kids.len(),
    };
    for (a, b) in probes {
        let j = route(&node.pivots, a);
        let seg = if L::PIVOTS_IN_PARENT { j } else { 0 };
        let page = layout.read_for_query(&mut pager, desc.addr, seg).unwrap();
        let (pivots, all) = layout.parts(&page, desc.addr, seg, node.is_leaf()).unwrap();
        let (pivots, all): (Vec<&[u8]>, usize) = (pivots.collect(), all.count());
        if L::PIVOTS_IN_PARENT {
            prop_assert!(pivots.is_empty() && all == 1);
        } else {
            prop_assert_eq!(
                pivots,
                node.pivots.iter().map(Vec::as_slice).collect::<Vec<_>>()
            );
            prop_assert_eq!(all, parts);
        }
        let part = layout
            .part_for_key(&page, desc.addr, seg, node.is_leaf(), a)
            .unwrap();
        match (part, &node.body) {
            (PartView::Pairs(pairs), Body::Leaf(chunks)) => {
                let chunk = &chunks[j];
                let want = chunk
                    .binary_search_by(|(k, _)| k.as_slice().cmp(a))
                    .ok()
                    .map(|i| chunk[i].1.as_slice());
                prop_assert_eq!(pairs.get(a), want);
                let want: Vec<(&[u8], &[u8])> = chunk
                    .iter()
                    .filter(|(k, _)| k >= a && k < b)
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                prop_assert_eq!(pairs.range(a, b).collect::<Vec<_>>(), want);
            }
            (
                PartView::Kid {
                    addr,
                    is_leaf,
                    pivots,
                    msgs,
                },
                Body::Internal(kids),
            ) => {
                let kid = &kids[j];
                prop_assert_eq!((addr, is_leaf), (kid.addr, kid.is_leaf));
                prop_assert_eq!(pivots.map_or(0, |p| p.route(a)), kid.route(a));
                let want: Vec<Message> = kid.msgs.iter().filter(|m| &m.key == a).cloned().collect();
                let got: Vec<Message> = msgs.for_key(a).map(|m| m.owned()).collect();
                prop_assert_eq!(got, want);
            }
            _ => prop_assert!(false, "view and decoded node disagree on the kind"),
        }
    }
    Ok(())
}

/// Replace the node's first frame (the whole image, or segment 0) with
/// `payload` in a valid frame; decoding and reading it must then fail or
/// yield a node, never panic. A truncated payload must fail.
fn check_framed<L: Layout>(
    layout: L,
    node: Node,
    payload: Option<Vec<u8>>,
    cut: u64,
) -> CaseResult {
    let (mut pager, desc) = written(&layout, &node);
    let slot = layout
        .read_for_query(&mut pager, desc.addr, 0)
        .unwrap()
        .to_vec();
    let truncated = payload.is_none();
    let payload = payload.unwrap_or_else(|| {
        let p = unframe(&slot).unwrap();
        p[..cut as usize % p.len()].to_vec()
    });
    let mut image = layout.fetch(&mut pager, &desc).unwrap().to_vec();
    image[..slot.len()].copy_from_slice(&frame_into_slot(&payload, slot.len()));
    pager.write(desc.addr, image).unwrap();
    let page = layout.fetch(&mut pager, &desc).unwrap();
    let decoded = layout.decode(&page, &desc);
    let page = layout.read_for_query(&mut pager, desc.addr, 0).unwrap();
    let part = layout.part_for_key(&page, desc.addr, 0, node.is_leaf(), &[]);
    if truncated {
        prop_assert!(decoded.is_err() && part.is_err());
    }
    Ok(())
}

props! {
    cases = 256;

    #[test]
    fn views_match_the_node(
        whole_node in prop_oneof![leaf(1), internal(false)],
        seg_node in prop_oneof![leaf(16), internal(true)],
        probes in vec((key(), key()), 1..20),
    ) {
        check_views(whole(), whole_node, &probes)?;
        check_views(segmented(), seg_node, &probes)?;
    }

    #[test]
    fn malformed_payloads_are_errors(
        whole_node in prop_oneof![leaf(1), internal(false)],
        seg_node in prop_oneof![leaf(16), internal(true)],
        cut in any::<u64>(),
        arbitrary in vec(any::<u8>(), 0..96),
        tag in 0u8..4,
    ) {
        let mut p = arbitrary;
        if let Some(first) = p.first_mut() {
            *first = tag;
        }
        check_framed(whole(), whole_node.clone(), None, cut)?;
        check_framed(whole(), whole_node, Some(p.clone()), cut)?;
        check_framed(segmented(), seg_node.clone(), None, cut)?;
        check_framed(segmented(), seg_node, Some(p), cut)?;
    }

    #[test]
    fn buffer_edit_equals_owned_edit(
        node in internal(false),
        msgs in vec((key(), any::<u16>(), op()), 1..12),
        slack in 0usize..160,
        max_fanout in 1usize..16,
    ) {
        // Messages that keep the node within its slot are spliced into the
        // image in place, one after another (repeated keys and seqs
        // included); the first that overflows (a flush or a split, on the
        // owned path) ends the run.
        let Node { pivots, body: Body::Internal(mut kids) } = node else { unreachable!() };
        let size = |kids: &[ChildDesc]| internal_size(&pivots, kids.iter().map(|k| k.msgs.as_slice()));
        let encode = |kids: &[ChildDesc], n| {
            encode_internal(&pivots, kids.iter().map(|k| (k.addr, k.msgs.as_slice())), n)
        };
        let node_bytes = size(&kids) + slack;
        let mut img = encode(&kids, node_bytes);
        let fanout_ok = kids.len() <= max_fanout;
        for (key, seq, op) in msgs {
            let msg = Message { seq: seq as u64, key, op };
            let edit = BufferEdit::new(&img, &msg).unwrap().unwrap();
            buffer_insert(&mut kids[route(&pivots, &msg.key)].msgs, msg);
            prop_assert_eq!(edit.serialized_size(), size(&kids));
            let fits = size(&kids) <= node_bytes;
            prop_assert_eq!(edit.fits(node_bytes, max_fanout), fits && fanout_ok);
            if !fits {
                break;
            }
            edit.apply(&mut img);
            prop_assert_eq!(&img, &encode(&kids, node_bytes));
        }
    }

    #[test]
    fn buffer_edit_checks_its_image(
        node in prop_oneof![leaf(1), internal(false)],
        cut in any::<u64>(),
        probe in key(),
    ) {
        // The splice entry point checks the image it edits in full, and
        // has nothing to edit in a leaf.
        let (mut pager, desc) = written(&whole(), &node);
        let img = whole().fetch(&mut pager, &desc).unwrap().to_vec();
        let msg = Message { seq: 1 << 20, key: probe, op: Operation::Delete };
        let payload = unframe(&img).unwrap();
        let truncated = dam_kv::codec::frame(&payload[..cut as usize % payload.len()]);
        prop_assert!(BufferEdit::new(&truncated, &msg).is_err());
        prop_assert!(BufferEdit::new(&img[..4], &msg).is_err());
        prop_assert_eq!(BufferEdit::new(&img, &msg).unwrap().is_none(), node.is_leaf());
    }
}
