//! The whole-node layout's node image: the standard Bε-tree node.
//!
//! An internal node carries its pivots, its child ids and, for each child,
//! a buffer of pending messages sorted by `(key, seq)`; "the buffer is part
//! of the node and is written to disk with the rest of the node" (§3). A
//! leaf is one sorted run of key-value pairs.

use dam_kv::codec::{
    frame_into_slot, frame_payload, splice_in_place, CodecError, PairsView, Reader, Splice,
    StrsView, Writer, FRAME_OVERHEAD,
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

/// Accounting size of a leaf holding `entries`: exactly its image length
/// before padding.
pub fn leaf_size(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
    NODE_HEADER_BYTES
        + entries
            .iter()
            .map(|(k, v)| LEAF_ENTRY_OVERHEAD + k.len() + v.len())
            .sum::<usize>()
}

/// Accounting size of an internal node with `pivots` and one child per
/// buffer: what split and flush decisions compare with `node_bytes`. It
/// counts each buffered message at its [`Message::footprint`], which is
/// four bytes more than a `Delete` encodes to, so it is at least the image
/// length, and equal to it when no `Delete` is buffered.
pub fn internal_size<'a>(
    pivots: &[Vec<u8>],
    buffers: impl ExactSizeIterator<Item = &'a [Message]>,
) -> usize {
    NODE_HEADER_BYTES
        + pivots.iter().map(|p| 4 + p.len()).sum::<usize>()
        + buffers
            .map(|b| 8 + 4 + b.iter().map(Message::footprint).sum::<usize>())
            .sum::<usize>()
}

/// The checksummed image of a leaf holding `entries`, padded with zeros to
/// exactly `node_bytes`.
pub fn encode_leaf(entries: &[(Vec<u8>, Vec<u8>)], node_bytes: usize) -> Vec<u8> {
    debug_assert!(leaf_size(entries) <= node_bytes, "leaf exceeds its slot");
    let mut w = Writer::with_capacity(node_bytes - FRAME_OVERHEAD);
    w.put_u8(TAG_LEAF);
    w.put_u32(entries.len() as u32);
    for (k, v) in entries {
        w.put_bytes(k);
        w.put_bytes(v);
    }
    frame_into_slot(&w.into_bytes(), node_bytes)
}

/// The checksummed image of an internal node with `pivots` and
/// `(child id, buffer)` pairs in child order, padded with zeros to exactly
/// `node_bytes`.
pub fn encode_internal<'a>(
    pivots: &[Vec<u8>],
    children: impl Iterator<Item = (NodeId, &'a [Message])> + Clone,
    node_bytes: usize,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(node_bytes - FRAME_OVERHEAD);
    w.put_u8(TAG_INTERNAL);
    w.put_u32(pivots.len() as u32);
    for p in pivots {
        w.put_bytes(p);
    }
    for (c, _) in children.clone() {
        w.put_u64(c);
    }
    for (_, buf) in children {
        w.put_u32(buf.len() as u32);
        for m in buf {
            m.encode(&mut w);
        }
    }
    frame_into_slot(&w.into_bytes(), node_bytes)
}

/// A node image read in place: queries route, collect buffered messages
/// and search leaves inside the image, copying out only what they return.
/// Parsing checks the whole structure, so a malformed payload is a
/// [`CodecError`] up front, never a panic or a partial answer. This is the
/// format's only parser.
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
/// image is the one [`encode_internal`] writes after [`buffer_insert`] of
/// the same message into the decoded buffers, and
/// [`BufferEdit::serialized_size`] is then that node's [`internal_size`],
/// so callers take the same fit decisions.
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

    /// [`internal_size`] of the edited node.
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
/// returns the change in live-key count. Used by flushes into leaves and
/// by range queries over a leaf window.
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
    use dam_kv::codec::unframe;
    use dam_kv::msg::{LastWriteWins, Operation};

    fn m(seq: u64, key: &[u8]) -> Message {
        Message {
            seq,
            key: key.to_vec(),
            op: Operation::Put(vec![seq as u8; 4]),
        }
    }

    fn del(seq: u64, key: &[u8]) -> Message {
        Message {
            seq,
            key: key.to_vec(),
            op: Operation::Delete,
        }
    }

    fn internal(pivots: &[Vec<u8>], buffers: &[Vec<Message>], node_bytes: usize) -> Vec<u8> {
        let children = (0..)
            .map(|i| 10 * (i + 1))
            .zip(buffers.iter().map(Vec::as_slice));
        encode_internal(pivots, children, node_bytes)
    }

    #[test]
    fn sizes_are_exact_unless_a_delete_is_buffered() {
        let pivots = vec![b"m".to_vec()];
        let buffers = vec![vec![m(1, b"a")], vec![]];
        let size = internal_size(&pivots, buffers.iter().map(Vec::as_slice));
        assert_eq!(internal(&pivots, &buffers, size).len(), size);
        let entries = vec![(b"a".to_vec(), b"1".to_vec())];
        assert_eq!(
            encode_leaf(&entries, leaf_size(&entries)).len(),
            leaf_size(&entries)
        );
        // A buffered Delete encodes in four bytes less than its footprint,
        // so the accounting size is then above the image length.
        let buffers = vec![
            vec![m(1, b"a"), del(4, b"c")],
            vec![del(2, b"x"), del(3, b"y")],
        ];
        let size = internal_size(&pivots, buffers.iter().map(Vec::as_slice));
        let img = internal(&pivots, &buffers, size);
        assert_eq!(FRAME_OVERHEAD + unframe(&img).unwrap().len() + 3 * 4, size);
    }

    #[test]
    fn buffer_edit_splices_in_key_seq_order() {
        let pivots = vec![b"m".to_vec()];
        let mut buffers = vec![vec![m(1, b"b"), m(5, b"b"), del(2, b"d")], vec![]];
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
        let mut img = internal(&pivots, &buffers, node_bytes);
        for msg in msgs {
            let edit = BufferEdit::new(&img, BeNodeView::parse(&img).unwrap(), &msg).unwrap();
            buffer_insert(&mut buffers[usize::from(msg.key.as_slice() >= b"m")], msg);
            let size = internal_size(&pivots, buffers.iter().map(Vec::as_slice));
            assert_eq!(edit.serialized_size(), size);
            assert!(edit.fits(node_bytes, 2));
            assert!(!edit.fits(node_bytes, 1));
            assert!(!edit.fits(size - 1, 2));
            edit.apply(&mut img);
            assert_eq!(img, internal(&pivots, &buffers, node_bytes));
        }
        let leaf = encode_leaf(&[], node_bytes);
        let view = BeNodeView::parse(&leaf).unwrap();
        assert!(BufferEdit::new(&leaf, view, &m(1, b"a")).is_err());
    }

    #[test]
    fn apply_messages_merge_pass() {
        let mut entries = vec![(b"b".to_vec(), b"old".to_vec())];
        let msgs = vec![m(1, b"a"), del(2, b"b"), m(3, b"c")];
        let delta = apply_msgs_to_entries(&mut entries, &msgs, &LastWriteWins);
        assert_eq!(delta, 1); // +a, -b, +c
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"a", b"c"]);
    }

    #[test]
    fn buffer_insert_and_merge_keep_key_seq_order() {
        let mut buf = Vec::new();
        for msg in [m(5, b"b"), m(1, b"b"), m(3, b"a")] {
            buffer_insert(&mut buf, msg);
        }
        let order = |b: &[Message]| -> Vec<(Vec<u8>, u64)> {
            b.iter().map(|x| (x.key.clone(), x.seq)).collect()
        };
        assert_eq!(
            order(&buf),
            [(b"a".to_vec(), 3), (b"b".to_vec(), 1), (b"b".to_vec(), 5)]
        );
        let out = buffer_merge(vec![m(1, b"a"), m(4, b"c")], vec![m(2, b"a"), m(3, b"b")]);
        let want = [
            (b"a".to_vec(), 1),
            (b"a".to_vec(), 2),
            (b"b".to_vec(), 3),
            (b"c".to_vec(), 4),
        ];
        assert_eq!(order(&out), want);
    }

    #[test]
    fn corruption_and_garbage_are_errors() {
        assert!(unframe(&[7]).is_err() && BeNodeView::parse(&[]).is_err());
        let pivots = vec![b"m".to_vec()];
        let mut img = internal(&pivots, &[vec![m(1, b"a")], vec![m(2, b"x")]], 1024);
        let full = img.clone();
        img[NODE_HEADER_BYTES + 1] ^= 0x02; // flip one payload bit
        assert!(matches!(
            unframe(&img),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // A torn prefix of the image must not pass either.
        let mut torn = vec![0u8; 1024];
        torn[..40].copy_from_slice(&full[..40]);
        assert!(unframe(&torn).is_err());
    }
}
