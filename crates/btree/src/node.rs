//! B-tree node representation and on-disk format.
//!
//! A node serializes to at most the tree's configured `node_bytes`; images
//! are padded to exactly that size when written so each node IO moves
//! exactly `B` bytes — the quantity the affine model prices.

use dam_kv::codec::{
    frame_into_slot, frame_payload, pair_size, pairs_size, splice_in_place, unframe, CodecError,
    Pair, Reader, Record, Run, Splice, Writer, FRAME_OVERHEAD, NODE_HEADER_BYTES, TAG_INTERNAL,
    TAG_LEAF,
};

/// Location of a node on the device (a fixed-size slot offset).
pub type NodeId = u64;

/// Offset of the entry (or pivot) count in a node payload, after the tag.
const COUNT_AT: usize = 1;
/// Payload bytes in front of the first entry (or pivot): tag + count.
const PAYLOAD_HEADER: usize = COUNT_AT + 4;

/// A B-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Sorted key-value pairs.
    Leaf {
        /// Entries in strictly ascending key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Pivots and children: `children[i]` holds keys `< pivots[i]`,
    /// `children[last]` holds the rest. `children.len() == pivots.len() + 1`.
    Internal {
        /// Strictly ascending pivot keys.
        pivots: Vec<Vec<u8>>,
        /// Child node ids.
        children: Vec<NodeId>,
    },
}

impl Node {
    /// An empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
        }
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Serialized size in bytes (exact).
    pub fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries } => pairs_size(entries),
            Node::Internal { pivots, children } => {
                NODE_HEADER_BYTES
                    + pivots.iter().map(|p| 4 + p.len()).sum::<usize>()
                    + children.len() * 8
            }
        }
    }

    /// Serialize into a checksummed frame, padding with zeros to exactly
    /// `node_bytes`.
    ///
    /// Panics in debug builds if the node exceeds `node_bytes` — callers
    /// must split first.
    pub fn encode(&self, node_bytes: usize) -> Vec<u8> {
        debug_assert!(
            self.serialized_size() <= node_bytes,
            "node of {} bytes exceeds slot of {}",
            self.serialized_size(),
            node_bytes
        );
        let mut w = Writer::with_capacity(node_bytes - FRAME_OVERHEAD);
        match self {
            Node::Leaf { entries } => w.put_pairs(TAG_LEAF, entries),
            Node::Internal { pivots, children } => {
                w.put_u8(TAG_INTERNAL);
                w.put_u32(pivots.len() as u32);
                for p in pivots {
                    w.put_bytes(p);
                }
                for &c in children {
                    w.put_u64(c);
                }
            }
        }
        frame_into_slot(&w.into_bytes(), node_bytes)
    }

    /// Deserialize a node image, verifying its frame checksum first.
    pub fn decode(buf: &[u8]) -> Result<Node, CodecError> {
        unframe(buf)?;
        Ok(NodeView::parse(buf)?.to_node())
    }

    /// Index of the child an internal node routes `key` to.
    pub fn route(&self, key: &[u8]) -> usize {
        match self {
            Node::Internal { pivots, .. } => {
                // First pivot strictly greater than key determines the slot:
                // child i holds keys in [pivots[i-1], pivots[i]).
                pivots.partition_point(|p| p.as_slice() <= key)
            }
            Node::Leaf { .. } => panic!("route() on a leaf"),
        }
    }
}

/// A node image read in place: queries route and search inside the image
/// and copy out only their answer. Parsing checks the whole structure, so a
/// malformed payload is a [`CodecError`] up front, never a panic or a
/// partial answer. This is the format's only parser; [`Node::decode`] is
/// built on it.
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a> {
    /// Sorted key-value pairs.
    Leaf(Run<'a, Pair<'a>>),
    /// Pivots and the packed little-endian child ids.
    Internal {
        /// Strictly ascending pivot keys.
        pivots: Run<'a, &'a [u8]>,
        /// `pivots.len() + 1` child ids, 8 bytes each.
        children: &'a [u8],
    },
}

impl<'a> NodeView<'a> {
    /// View a node image. Checks the frame header and the payload
    /// structure but not the frame checksum: the caller checks that once,
    /// when the image arrives from the device (see
    /// `dam_cache::Pager::check_once`).
    pub fn parse(image: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(frame_payload(image)?);
        match r.get_u8()? {
            TAG_LEAF => Ok(NodeView::Leaf(Run::read(&mut r)?)),
            TAG_INTERNAL => {
                let n = r.get_u32()? as usize;
                let pivots = Run::read_n(&mut r, n)?;
                let children = r.get_raw((n + 1) * 8)?;
                Ok(NodeView::Internal { pivots, children })
            }
            _ => Err(CodecError::Invalid("unknown node tag")),
        }
    }

    /// Child `i` of an internal node's packed child ids.
    pub fn child(children: &[u8], i: usize) -> NodeId {
        let b = &children[i * 8..i * 8 + 8];
        NodeId::from_le_bytes(b.try_into().expect("slice of 8"))
    }

    /// An owned copy of the node.
    pub fn to_node(self) -> Node {
        match self {
            NodeView::Leaf(entries) => Node::Leaf {
                entries: entries.to_vec(),
            },
            NodeView::Internal { pivots, children } => Node::Internal {
                pivots: pivots.to_vec(),
                children: (0..=pivots.len())
                    .map(|i| Self::child(children, i))
                    .collect(),
            },
        }
    }
}

/// One key put into or removed from a leaf image, located in place.
///
/// The write path's common case: the one new, replaced or removed entry is
/// spliced into the node image itself ([`splice_in_place`]), with no
/// decode into owned entries. The edited image is the one [`Node::encode`]
/// writes for the same edit of the decoded leaf, and
/// [`LeafEdit::serialized_size`] is that leaf's [`Node::serialized_size`],
/// so callers take the same fit decisions.
#[derive(Debug)]
pub struct LeafEdit {
    splice: Splice,
    /// The new entry, encoded; empty for a removal.
    record: Vec<u8>,
    found: bool,
}

impl LeafEdit {
    /// Locate the edit of the leaf `image`, whose entries `entries` were
    /// parsed from it: set `key` to `value` when it is `Some`, remove `key`
    /// when it is `None`. Removing an absent key is an edit that changes
    /// nothing.
    pub fn new(
        image: &[u8],
        entries: Run<'_, Pair<'_>>,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Result<Self, CodecError> {
        let end = PAYLOAD_HEADER + entries.encoded_len();
        if frame_payload(image)?.len() < end {
            return Err(CodecError::Invalid("leaf entries overrun the payload"));
        }
        let (at, found) = entries.locate(key);
        let n = entries.len();
        let (count, record) = match value {
            Some(value) => {
                let mut w = Writer::with_capacity(pair_size(key, value));
                w.put_pair(key, value);
                (if found { n } else { n + 1 }, w.into_bytes())
            }
            None => (if found { n - 1 } else { n }, Vec::new()),
        };
        Ok(LeafEdit {
            splice: Splice {
                count_at: COUNT_AT,
                count: u32::try_from(count).map_err(|_| CodecError::Invalid("entry count"))?,
                lo: PAYLOAD_HEADER + at.start,
                hi: PAYLOAD_HEADER + at.end,
                end,
            },
            record,
            found,
        })
    }

    /// Whether the leaf held the key before the edit.
    pub fn found(&self) -> bool {
        self.found
    }

    /// [`Node::serialized_size`] of the edited leaf.
    pub fn serialized_size(&self) -> usize {
        FRAME_OVERHEAD + self.splice.edited_len(self.record.len())
    }

    /// Edit `image`, the leaf image the edit was located in (or a copy of
    /// it), in place. Panics if the edited leaf does not fit the image
    /// (check [`LeafEdit::serialized_size`] first).
    pub fn apply(&self, image: &mut [u8]) {
        splice_in_place(image, &self.splice, &self.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(n: usize) -> Node {
        Node::Leaf {
            entries: (0..n)
                .map(|i| (dam_kv::key_from_u64(i as u64).to_vec(), vec![i as u8; 10]))
                .collect(),
        }
    }

    #[test]
    fn leaf_roundtrip() {
        let node = leaf(10);
        let buf = node.encode(4096);
        assert_eq!(buf.len(), 4096);
        assert_eq!(Node::decode(&buf).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            pivots: vec![b"b".to_vec(), b"m".to_vec()],
            children: vec![100, 200, 300],
        };
        let buf = node.encode(512);
        assert_eq!(Node::decode(&buf).unwrap(), node);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node = Node::empty_leaf();
        let buf = node.encode(64);
        assert_eq!(Node::decode(&buf).unwrap(), node);
    }

    #[test]
    fn serialized_size_is_exact() {
        for n in [0, 1, 5, 50] {
            let node = leaf(n);
            // The unpadded frame is exactly the serialized size.
            assert_eq!(
                node.serialized_size(),
                FRAME_OVERHEAD + unframe(&node.encode(4096)).unwrap().len()
            );
        }
        let internal = Node::Internal {
            pivots: vec![vec![1; 16], vec![2; 16]],
            children: vec![1, 2, 3],
        };
        assert_eq!(
            internal.serialized_size(),
            NODE_HEADER_BYTES + 2 * (4 + 16) + 3 * 8
        );
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[99, 0, 0, 0, 0]).is_err());
        // A valid frame around a truncated payload: leaf claiming 1000
        // entries that are not there.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32(1000);
        let framed = dam_kv::codec::frame(&w.into_bytes());
        assert!(Node::decode(&framed).is_err());
    }

    #[test]
    fn decode_detects_bit_rot() {
        let node = leaf(5);
        let mut buf = node.encode(4096);
        buf[NODE_HEADER_BYTES + 2] ^= 0x10; // flip one payload bit
        assert!(matches!(
            Node::decode(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn decode_detects_torn_write() {
        let node = leaf(20);
        let full = node.encode(4096);
        // Persist only a prefix that ends mid-payload; the rest stays
        // zero — exactly what a torn sector write leaves behind.
        let mut torn = vec![0u8; 4096];
        torn[..40].copy_from_slice(&full[..40]);
        assert!(Node::decode(&torn).is_err());
    }

    #[test]
    fn route_respects_pivot_boundaries() {
        let node = Node::Internal {
            pivots: vec![b"d".to_vec(), b"p".to_vec()],
            children: vec![0, 1, 2],
        };
        assert_eq!(node.route(b"a"), 0);
        assert_eq!(node.route(b"c"), 0);
        assert_eq!(node.route(b"d"), 1); // keys >= pivot go right
        assert_eq!(node.route(b"o"), 1);
        assert_eq!(node.route(b"p"), 2);
        assert_eq!(node.route(b"z"), 2);
    }

    #[test]
    fn view_routes_and_searches_in_place() {
        let node = leaf(20);
        let buf = node.encode(4096);
        let NodeView::Leaf(entries) = NodeView::parse(&buf).unwrap() else {
            panic!("expected a leaf");
        };
        assert_eq!(entries.get(&dam_kv::key_from_u64(7)), Some(&[7u8; 10][..]));
        assert_eq!(entries.get(&dam_kv::key_from_u64(20)), None);
        let internal = Node::Internal {
            pivots: vec![b"d".to_vec(), b"p".to_vec()],
            children: vec![10, 11, 12],
        };
        let buf = internal.encode(256);
        let NodeView::Internal { pivots, children } = NodeView::parse(&buf).unwrap() else {
            panic!("expected an internal node");
        };
        for key in [&b"a"[..], b"d", b"o", b"p", b"z"] {
            let i = pivots.route(key);
            assert_eq!(i, internal.route(key));
            assert_eq!(NodeView::child(children, i), 10 + i as u64);
        }
    }

    #[test]
    fn leaf_edit_splices_at_every_position() {
        let key = |i: u64| dam_kv::key_from_u64(i).to_vec();
        let node = Node::Leaf {
            entries: [1, 3, 5, 7]
                .iter()
                .map(|&i| (key(i), vec![i as u8; 6]))
                .collect(),
        };
        let node_bytes = 512;
        // A new key at the front, in the middle and at the end; a longer
        // and a shorter overwrite; a delete of a present and of an absent
        // key.
        let edits: [(u64, Option<&[u8]>); 7] = [
            (0, Some(b"front")),
            (4, Some(b"middle")),
            (9, Some(b"end")),
            (3, Some(b"longer than before")),
            (7, Some(b"s")),
            (5, None),
            (6, None),
        ];
        let mut img = node.encode(node_bytes);
        let mut owned = node;
        for (k, value) in edits {
            let NodeView::Leaf(pairs) = NodeView::parse(&img).unwrap() else {
                panic!("expected a leaf");
            };
            let edit = LeafEdit::new(&img, pairs, &key(k), value).unwrap();
            let Node::Leaf { entries } = &mut owned else {
                unreachable!()
            };
            let at = entries.binary_search_by(|(e, _)| e.as_slice().cmp(&key(k)));
            assert_eq!(edit.found(), at.is_ok(), "key {k}");
            match (value, at) {
                (Some(v), Ok(i)) => entries[i].1 = v.to_vec(),
                (Some(v), Err(i)) => entries.insert(i, (key(k), v.to_vec())),
                (None, Ok(i)) => drop(entries.remove(i)),
                (None, Err(_)) => {}
            }
            assert_eq!(edit.serialized_size(), owned.serialized_size(), "key {k}");
            edit.apply(&mut img);
            assert_eq!(img, owned.encode(node_bytes), "key {k}");
        }
        // An image too short for the entries it was parsed with is refused.
        let NodeView::Leaf(pairs) = NodeView::parse(&img).unwrap() else {
            panic!("expected a leaf");
        };
        let short = dam_kv::codec::frame(&[TAG_LEAF, 1, 0, 0, 0]);
        assert!(LeafEdit::new(&short, pairs, &key(2), None).is_err());
    }

    #[test]
    fn zero_padding_is_ignored_by_decode() {
        let node = leaf(3);
        let small = node.encode(node.serialized_size());
        let big = node.encode(8192);
        assert_eq!(Node::decode(&small).unwrap(), Node::decode(&big).unwrap());
    }
}
