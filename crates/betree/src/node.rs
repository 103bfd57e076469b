//! Standard Bε-tree node representation and on-disk format.
//!
//! An internal node carries, for each child, a buffer of pending messages
//! sorted by `(key, seq)`; "the buffer is part of the node and is written to
//! disk with the rest of the node" (§3).

use dam_kv::codec::{
    frame_into_slot, frame_payload, splice_in_place, unframe, CodecError, PairsView, Reader,
    Splice, StrsView, Writer, FRAME_OVERHEAD,
};
use dam_kv::msg::{Message, MessageRef, MsgsView};

/// Node location on the device.
pub type NodeId = u64;

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;
/// Payload bytes in front of the first entry (or pivot): tag + count.
const PAYLOAD_HEADER: usize = 1 + 4;

/// Fixed serialization overhead per node: the checksummed frame header plus
/// tag + count.
pub const NODE_HEADER_BYTES: usize = FRAME_OVERHEAD + 1 + 4;
/// Per-leaf-entry overhead (two length prefixes).
pub const LEAF_ENTRY_OVERHEAD: usize = 8;

/// A standard Bε-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeNode {
    /// Sorted key-value pairs (like a B-tree leaf).
    Leaf {
        /// Entries in strictly ascending key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Pivots, children, and one message buffer per child.
    Internal {
        /// Strictly ascending pivots; `children.len() == pivots.len() + 1`.
        pivots: Vec<Vec<u8>>,
        /// Child node ids.
        children: Vec<NodeId>,
        /// `buffers[i]` holds messages destined for `children[i]`'s subtree,
        /// sorted by `(key, seq)`.
        buffers: Vec<Vec<Message>>,
    },
}

impl BeNode {
    /// An empty leaf.
    pub fn empty_leaf() -> BeNode {
        BeNode::Leaf {
            entries: Vec::new(),
        }
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, BeNode::Leaf { .. })
    }

    /// Accounting size in bytes: what split and flush decisions compare
    /// with `node_bytes`. It counts each buffered message at its
    /// [`Message::footprint`], which is four bytes more than a `Delete`
    /// encodes to, so it is at least the image length, and equal to it when
    /// no `Delete` is buffered.
    pub fn serialized_size(&self) -> usize {
        match self {
            BeNode::Leaf { entries } => {
                NODE_HEADER_BYTES
                    + entries
                        .iter()
                        .map(|(k, v)| LEAF_ENTRY_OVERHEAD + k.len() + v.len())
                        .sum::<usize>()
            }
            BeNode::Internal {
                pivots,
                children,
                buffers,
            } => {
                NODE_HEADER_BYTES
                    + pivots.iter().map(|p| 4 + p.len()).sum::<usize>()
                    + children.len() * 8
                    + buffers
                        .iter()
                        .map(|b| 4 + b.iter().map(Message::footprint).sum::<usize>())
                        .sum::<usize>()
            }
        }
    }

    /// Total bytes of buffered messages (internal nodes; 0 for leaves).
    pub fn buffer_bytes(&self) -> usize {
        match self {
            BeNode::Leaf { .. } => 0,
            BeNode::Internal { buffers, .. } => buffers
                .iter()
                .map(|b| b.iter().map(Message::footprint).sum::<usize>())
                .sum(),
        }
    }

    /// Index of the child routing `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        match self {
            BeNode::Internal { pivots, .. } => pivots.partition_point(|p| p.as_slice() <= key),
            BeNode::Leaf { .. } => panic!("route() on a leaf"),
        }
    }

    /// Serialize into a checksummed frame, padded with zeros to exactly
    /// `node_bytes`.
    pub fn encode(&self, node_bytes: usize) -> Vec<u8> {
        debug_assert!(
            self.serialized_size() <= node_bytes,
            "node of {} bytes exceeds slot of {}",
            self.serialized_size(),
            node_bytes
        );
        let mut w = Writer::with_capacity(node_bytes - FRAME_OVERHEAD);
        match self {
            BeNode::Leaf { entries } => {
                w.put_u8(TAG_LEAF);
                w.put_u32(entries.len() as u32);
                for (k, v) in entries {
                    w.put_bytes(k);
                    w.put_bytes(v);
                }
            }
            BeNode::Internal {
                pivots,
                children,
                buffers,
            } => {
                w.put_u8(TAG_INTERNAL);
                w.put_u32(pivots.len() as u32);
                for p in pivots {
                    w.put_bytes(p);
                }
                for &c in children {
                    w.put_u64(c);
                }
                debug_assert_eq!(buffers.len(), children.len());
                for buf in buffers {
                    w.put_u32(buf.len() as u32);
                    for m in buf {
                        m.encode(&mut w);
                    }
                }
            }
        }
        frame_into_slot(&w.into_bytes(), node_bytes)
    }

    /// Deserialize a node image, verifying its frame checksum first.
    pub fn decode(buf: &[u8]) -> Result<BeNode, CodecError> {
        unframe(buf)?;
        Ok(BeNodeView::parse(buf)?.to_node())
    }
}

/// A node image read in place: queries route, collect buffered messages
/// and search leaves inside the image, copying out only what they return.
/// Parsing checks the whole structure, so a malformed payload is a
/// [`CodecError`] up front, never a panic or a partial answer. This is the
/// format's only parser; [`BeNode::decode`] is built on it.
#[derive(Debug, Clone, Copy)]
pub enum BeNodeView<'a> {
    /// Sorted key-value pairs.
    Leaf(PairsView<'a>),
    /// Pivots, packed child ids, and one message buffer per child.
    Internal {
        /// Strictly ascending pivot keys.
        pivots: StrsView<'a>,
        /// `pivots.len() + 1` little-endian child ids, 8 bytes each.
        children: &'a [u8],
        /// `pivots.len() + 1` message buffers.
        buffers: BuffersView<'a>,
    },
}

impl<'a> BeNodeView<'a> {
    /// View a node image. Checks the frame header and the payload
    /// structure but not the frame checksum: the caller checks that once,
    /// when the image arrives from the device (see
    /// `dam_cache::Pager::check_once`).
    pub fn parse(image: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(frame_payload(image)?);
        match r.get_u8()? {
            TAG_LEAF => {
                let n = r.get_u32()? as usize;
                Ok(BeNodeView::Leaf(PairsView::read(&mut r, n)?))
            }
            TAG_INTERNAL => {
                let n = r.get_u32()? as usize;
                let pivots = StrsView::read(&mut r, n)?;
                let children = r.get_raw((n + 1) * 8)?;
                let buffers = BuffersView::read(&mut r, n + 1)?;
                Ok(BeNodeView::Internal {
                    pivots,
                    children,
                    buffers,
                })
            }
            _ => Err(CodecError::Invalid("unknown benode tag")),
        }
    }

    /// Child `i` of an internal node's packed child ids.
    pub fn child(children: &[u8], i: usize) -> NodeId {
        let b = &children[i * 8..i * 8 + 8];
        NodeId::from_le_bytes(b.try_into().expect("slice of 8"))
    }

    /// An owned copy of the node.
    pub fn to_node(self) -> BeNode {
        match self {
            BeNodeView::Leaf(entries) => BeNode::Leaf {
                entries: entries.to_vec(),
            },
            BeNodeView::Internal {
                pivots,
                children,
                buffers,
            } => BeNode::Internal {
                pivots: pivots.to_vec(),
                children: (0..=pivots.len())
                    .map(|i| Self::child(children, i))
                    .collect(),
                buffers: buffers.iter().map(|b| b.to_vec()).collect(),
            },
        }
    }
}

/// An internal node's per-child message buffers (each a `u32` count and
/// that many messages), checked once when read and then walked in place.
#[derive(Debug, Clone, Copy)]
pub struct BuffersView<'a> {
    n: usize,
    bytes: &'a [u8],
}

impl<'a> BuffersView<'a> {
    fn read(r: &mut Reader<'a>, n: usize) -> Result<Self, CodecError> {
        let mut probe = *r;
        let before = r.remaining();
        for _ in 0..n {
            let m = r.get_u32()? as usize;
            MsgsView::read(r, m)?;
        }
        let bytes = probe.get_raw(before - r.remaining())?;
        Ok(BuffersView { n, bytes })
    }

    /// The buffers in child order.
    pub fn iter(&self) -> impl Iterator<Item = MsgsView<'a>> {
        let mut r = Reader::new(self.bytes);
        // The view was checked when it was read, so no step can fail.
        (0..self.n).map_while(move |_| {
            let m = r.get_u32().ok()? as usize;
            MsgsView::read(&mut r, m).ok()
        })
    }

    /// Buffer `i`.
    pub fn get(&self, i: usize) -> Option<MsgsView<'a>> {
        self.iter().nth(i)
    }

    /// Where a message for `key` with sequence number `seq` goes in buffer
    /// `child`, in `(key, seq)` order, as offsets into the buffers' bytes;
    /// and the footprint of every buffered message.
    fn locate(&self, child: usize, key: &[u8], seq: u64) -> Result<BufferSpot, CodecError> {
        let mut r = Reader::new(self.bytes);
        let pos = |r: &Reader<'_>| self.bytes.len() - r.remaining();
        let mut spot = None;
        let mut footprints = 0;
        for i in 0..self.n {
            let count_at = pos(&r);
            let count = r.get_u32()?;
            let mut at = None;
            for _ in 0..count {
                let start = pos(&r);
                let m = MessageRef::read(&mut r)?;
                footprints += m.footprint();
                if i == child && at.is_none() && (m.key, m.seq) > (key, seq) {
                    at = Some(start);
                }
            }
            if i == child {
                spot = Some((count_at, count, at.unwrap_or(pos(&r))));
            }
        }
        let (count_at, count, at) = spot.ok_or(CodecError::Invalid("no buffer for the child"))?;
        Ok(BufferSpot {
            count_at,
            count,
            at,
            footprints,
        })
    }
}

/// Result of [`BuffersView::locate`].
struct BufferSpot {
    count_at: usize,
    count: u32,
    at: usize,
    footprints: usize,
}

/// One message added to an internal node image, located in place: the
/// standard Bε-tree's common write, a message that its root absorbs
/// without a flush or a split.
///
/// The encoded message is spliced into the node image itself
/// ([`splice_in_place`]), with no decode into owned buffers. The edited
/// image is the one [`BeNode::encode`] writes after `buffer_insert` of the
/// same message into the decoded node, and
/// [`BufferEdit::serialized_size`] is that node's
/// [`BeNode::serialized_size`], so callers take the same fit decisions.
#[derive(Debug)]
pub struct BufferEdit {
    splice: Splice,
    /// The message, encoded.
    record: Vec<u8>,
    serialized_size: usize,
    children: usize,
}

impl BufferEdit {
    /// Locate `msg`'s place in the internal node `image`, whose view `view`
    /// was parsed from it: in the buffer of the child that routes its key,
    /// in `(key, seq)` order.
    pub fn new(image: &[u8], view: BeNodeView<'_>, msg: &Message) -> Result<Self, CodecError> {
        let BeNodeView::Internal {
            pivots,
            children,
            buffers,
        } = view
        else {
            return Err(CodecError::Invalid("a leaf has no message buffers"));
        };
        let base = PAYLOAD_HEADER + pivots.encoded_len() + children.len();
        let end = base + buffers.bytes.len();
        if frame_payload(image)?.len() < end {
            return Err(CodecError::Invalid("message buffers overrun the payload"));
        }
        let spot = buffers.locate(pivots.route(&msg.key), &msg.key, msg.seq)?;
        let mut w = Writer::with_capacity(msg.footprint());
        msg.encode(&mut w);
        Ok(BufferEdit {
            splice: Splice {
                count_at: base + spot.count_at,
                count: spot
                    .count
                    .checked_add(1)
                    .ok_or(CodecError::Invalid("message count"))?,
                lo: base + spot.at,
                hi: base + spot.at,
                end,
            },
            record: w.into_bytes(),
            serialized_size: NODE_HEADER_BYTES
                + pivots.encoded_len()
                + children.len()
                + 4 * buffers.n
                + spot.footprints
                + msg.footprint(),
            children: buffers.n,
        })
    }

    /// [`BeNode::serialized_size`] of the edited node.
    pub fn serialized_size(&self) -> usize {
        self.serialized_size
    }

    /// Whether the edited node needs no flush or split: it is within
    /// `node_bytes` and has at most `max_fanout` children.
    pub fn fits(&self, node_bytes: usize, max_fanout: usize) -> bool {
        self.serialized_size <= node_bytes && self.children <= max_fanout
    }

    /// Edit `image`, the node image the edit was located in (or a copy of
    /// it), in place. Panics if the edited node does not fit the image
    /// (check [`BufferEdit::fits`] first).
    pub fn apply(&self, image: &mut [u8]) {
        splice_in_place(image, &self.splice, &self.record);
    }
}

/// Apply `(key, seq)`-sorted messages over sorted entries in one merge pass;
/// returns the change in live-key count. Shared by both tree variants'
/// leaf-application paths.
pub fn apply_msgs_to_entries(
    entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    msgs: &[Message],
    merge: &dyn dam_kv::msg::MergeOperator,
) -> i64 {
    use dam_kv::msg::replay;
    if msgs.is_empty() {
        return 0;
    }
    let old = std::mem::take(entries);
    let mut out = Vec::with_capacity(old.len() + msgs.len());
    let mut delta = 0i64;
    let mut ei = old.into_iter().peekable();
    let mut mi = 0usize;
    while mi < msgs.len() {
        let key = &msgs[mi].key;
        while ei.peek().is_some_and(|(k, _)| k < key) {
            out.push(ei.next().expect("peeked"));
        }
        let start = mi;
        while mi < msgs.len() && &msgs[mi].key == key {
            mi += 1;
        }
        let group = &msgs[start..mi];
        let base = if ei.peek().is_some_and(|(k, _)| k == key) {
            Some(ei.next().expect("peeked").1)
        } else {
            None
        };
        let had = base.is_some();
        match replay(base.as_deref(), group, merge) {
            Some(v) => {
                if !had {
                    delta += 1;
                }
                out.push((key.clone(), v));
            }
            None => {
                if had {
                    delta -= 1;
                }
            }
        }
    }
    out.extend(ei);
    *entries = out;
    delta
}

/// Insert a message into a `(key, seq)`-sorted buffer, keeping order.
pub fn buffer_insert(buf: &mut Vec<Message>, msg: Message) {
    let pos = buf.partition_point(|m| (m.key.as_slice(), m.seq) <= (msg.key.as_slice(), msg.seq));
    buf.insert(pos, msg);
}

/// Merge two `(key, seq)`-sorted message runs.
pub fn buffer_merge(a: Vec<Message>, b: Vec<Message>) -> Vec<Message> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                if (x.key.as_slice(), x.seq) <= (y.key.as_slice(), y.seq) {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::msg::Operation;

    fn m(seq: u64, key: &[u8]) -> Message {
        Message {
            seq,
            key: key.to_vec(),
            op: Operation::Put(vec![seq as u8; 4]),
        }
    }

    #[test]
    fn leaf_roundtrip() {
        let node = BeNode::Leaf {
            entries: vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec()),
            ],
        };
        let buf = node.encode(256);
        assert_eq!(BeNode::decode(&buf).unwrap(), node);
    }

    #[test]
    fn internal_with_buffers_roundtrip() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a"), m(3, b"c")], vec![m(2, b"x")]],
        };
        let buf = node.encode(1024);
        assert_eq!(BeNode::decode(&buf).unwrap(), node);
    }

    #[test]
    fn serialized_size_is_exact_for_internal() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a")], vec![]],
        };
        let unpadded = node.encode(node.serialized_size());
        assert_eq!(unpadded.len(), node.serialized_size());
        assert_eq!(BeNode::decode(&unpadded).unwrap(), node);
        // A buffered Delete encodes in four bytes less than its footprint,
        // so the accounting size is then above the image length.
        let with_delete = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![
                vec![m(1, b"a"), del(4, b"c")],
                vec![del(2, b"x"), del(3, b"y")],
            ],
        };
        let img = with_delete.encode(with_delete.serialized_size());
        let framed_len = FRAME_OVERHEAD + unframe(&img).unwrap().len();
        assert_eq!(framed_len + 3 * 4, with_delete.serialized_size());
        assert_eq!(BeNode::decode(&img).unwrap(), with_delete);
    }

    fn del(seq: u64, key: &[u8]) -> Message {
        Message {
            seq,
            key: key.to_vec(),
            op: Operation::Delete,
        }
    }

    #[test]
    fn buffer_edit_splices_in_key_seq_order() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"b"), m(5, b"b"), del(2, b"d")], vec![]],
        };
        let node_bytes = 512;
        let upsert = |seq, key: &[u8]| Message {
            seq,
            key: key.to_vec(),
            op: Operation::Upsert(vec![7; 3]),
        };
        // Front, between two seqs of a repeated key, after it, at the end
        // of a buffer, into an empty buffer, and a repeated (key, seq).
        let msgs = [
            m(9, b"a"),
            upsert(3, b"b"),
            del(6, b"b"),
            m(7, b"e"),
            upsert(8, b"z"),
            del(9, b"a"),
        ];
        let mut img = node.encode(node_bytes);
        let mut owned = node;
        for msg in msgs {
            let edit = BufferEdit::new(&img, BeNodeView::parse(&img).unwrap(), &msg).unwrap();
            let idx = owned.route(&msg.key);
            let BeNode::Internal { buffers, .. } = &mut owned else {
                unreachable!()
            };
            buffer_insert(&mut buffers[idx], msg);
            assert_eq!(edit.serialized_size(), owned.serialized_size());
            assert!(edit.fits(node_bytes, 2));
            assert!(!edit.fits(node_bytes, 1));
            assert!(!edit.fits(owned.serialized_size() - 1, 2));
            edit.apply(&mut img);
            assert_eq!(img, owned.encode(node_bytes));
        }
        let leaf = BeNode::empty_leaf().encode(node_bytes);
        let view = BeNodeView::parse(&leaf).unwrap();
        assert!(BufferEdit::new(&leaf, view, &m(1, b"a")).is_err());
    }

    #[test]
    fn buffer_bytes_counts_messages_only() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a")], vec![m(2, b"z"), m(3, b"z")]],
        };
        let expect: usize = [m(1, b"a"), m(2, b"z"), m(3, b"z")]
            .iter()
            .map(Message::footprint)
            .sum();
        assert_eq!(node.buffer_bytes(), expect);
        assert_eq!(BeNode::empty_leaf().buffer_bytes(), 0);
    }

    #[test]
    fn apply_messages_merge_pass() {
        use dam_kv::msg::LastWriteWins;
        let mut entries = vec![(b"b".to_vec(), b"old".to_vec())];
        let msgs = vec![
            Message {
                seq: 1,
                key: b"a".to_vec(),
                op: Operation::Put(b"x".to_vec()),
            },
            Message {
                seq: 2,
                key: b"b".to_vec(),
                op: Operation::Delete,
            },
            Message {
                seq: 3,
                key: b"c".to_vec(),
                op: Operation::Put(b"y".to_vec()),
            },
        ];
        let delta = apply_msgs_to_entries(&mut entries, &msgs, &LastWriteWins);
        assert_eq!(delta, 1); // +a, -b, +c
        assert_eq!(
            entries,
            vec![
                (b"a".to_vec(), b"x".to_vec()),
                (b"c".to_vec(), b"y".to_vec())
            ]
        );
    }

    #[test]
    fn buffer_insert_keeps_key_seq_order() {
        let mut buf = Vec::new();
        buffer_insert(&mut buf, m(5, b"b"));
        buffer_insert(&mut buf, m(1, b"b"));
        buffer_insert(&mut buf, m(3, b"a"));
        let order: Vec<(Vec<u8>, u64)> = buf.iter().map(|x| (x.key.clone(), x.seq)).collect();
        assert_eq!(
            order,
            vec![(b"a".to_vec(), 3), (b"b".to_vec(), 1), (b"b".to_vec(), 5)]
        );
    }

    #[test]
    fn buffer_merge_is_stable_sorted() {
        let a = vec![m(1, b"a"), m(4, b"c")];
        let b = vec![m(2, b"a"), m(3, b"b")];
        let out = buffer_merge(a, b);
        let order: Vec<(Vec<u8>, u64)> = out.iter().map(|x| (x.key.clone(), x.seq)).collect();
        assert_eq!(
            order,
            vec![
                (b"a".to_vec(), 1),
                (b"a".to_vec(), 2),
                (b"b".to_vec(), 3),
                (b"c".to_vec(), 4)
            ]
        );
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(BeNode::decode(&[7]).is_err());
        assert!(BeNode::decode(&[]).is_err());
    }

    #[test]
    fn decode_detects_corruption() {
        let node = BeNode::Internal {
            pivots: vec![b"m".to_vec()],
            children: vec![10, 20],
            buffers: vec![vec![m(1, b"a"), m(3, b"c")], vec![m(2, b"x")]],
        };
        let mut buf = node.encode(1024);
        buf[NODE_HEADER_BYTES + 1] ^= 0x02; // flip one payload bit
        assert!(matches!(
            BeNode::decode(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // A torn prefix of the image must not decode either.
        let full = node.encode(1024);
        let mut torn = vec![0u8; 1024];
        torn[..40].copy_from_slice(&full[..40]);
        assert!(BeNode::decode(&torn).is_err());
    }

    #[test]
    fn route_uses_pivots() {
        let node = BeNode::Internal {
            pivots: vec![b"h".to_vec()],
            children: vec![1, 2],
            buffers: vec![vec![], vec![]],
        };
        assert_eq!(node.route(b"a"), 0);
        assert_eq!(node.route(b"h"), 1);
        assert_eq!(node.route(b"z"), 1);
    }
}
