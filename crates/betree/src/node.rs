//! The whole-node layout's node image: the standard Bε-tree node.
//!
//! An internal node carries its pivots, its child ids and, for each child,
//! a buffer of pending messages sorted by `(key, seq)`; "the buffer is part
//! of the node and is written to disk with the rest of the node" (§3). A
//! leaf is one sorted run of key-value pairs.

use dam_kv::codec::{
    frame_into_slot, frame_payload, splice_in_place, CodecError, Pair, Reader, Record, Run, Splice,
    Writer, FRAME_OVERHEAD, NODE_HEADER_BYTES, TAG_INTERNAL, TAG_LEAF,
};
use dam_kv::msg::{Message, MessageRef};

/// Node location on the device.
pub type NodeId = u64;

/// Payload bytes in front of the first entry (or pivot): tag + count.
const PAYLOAD_HEADER: usize = 1 + 4;

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
    let mut w = Writer::with_capacity(node_bytes - FRAME_OVERHEAD);
    w.put_pairs(TAG_LEAF, entries);
    frame_into_slot(&w, node_bytes)
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
    Leaf(Run<'a, Pair<'a>>),
    /// Pivots, packed child ids, and one message buffer per child.
    Internal {
        /// Strictly ascending pivot keys.
        pivots: Run<'a, &'a [u8]>,
        /// `pivots.len() + 1` little-endian child ids, 8 bytes each.
        children: &'a [u8],
        /// `pivots.len() + 1` message buffers, each a `u32` count and that
        /// many messages sorted by `(key, seq)`.
        buffers: Run<'a, Run<'a, MessageRef<'a>>>,
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
            TAG_LEAF => Ok(BeNodeView::Leaf(Run::read(&mut r)?)),
            TAG_INTERNAL => {
                let n = r.get_u32()? as usize;
                let pivots = Run::read_n(&mut r, n)?;
                let children = r.get_raw((n + 1) * 8)?;
                let buffers = Run::read_n(&mut r, n + 1)?;
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
        let end = base + buffers.encoded_len();
        if frame_payload(image)?.len() < end {
            return Err(CodecError::Invalid("message buffers overrun the payload"));
        }
        // The message goes into the buffer of the child that routes its
        // key, before the first message that sorts after it.
        let child = pivots.route(&msg.key);
        let key = (msg.key.as_slice(), msg.seq);
        let mut spot = None;
        let mut count_at = base;
        let mut footprints = 0;
        for (i, buf) in buffers.iter().enumerate() {
            footprints += buf.iter().map(|m| m.footprint()).sum::<usize>();
            if i == child {
                let (_, after) = buf.seek(|m| (m.key, m.seq) <= key);
                let at = count_at + 4 + buf.encoded_len() - after.encoded_len();
                spot = Some((count_at, buf.len(), at));
            }
            count_at += 4 + buf.encoded_len();
        }
        let (count_at, count, at) = spot.ok_or(CodecError::Invalid("no buffer for the child"))?;
        let mut w = Writer::with_capacity(msg.footprint());
        msg.encode(&mut w);
        Ok(BufferEdit {
            splice: Splice {
                count_at,
                count: u32::try_from(count + 1)
                    .map_err(|_| CodecError::Invalid("message count"))?,
                lo: at,
                hi: at,
                end,
            },
            record: w.into_bytes(),
            serialized_size: NODE_HEADER_BYTES
                + pivots.encoded_len()
                + children.len()
                + 4 * buffers.len()
                + footprints
                + msg.footprint(),
            children: buffers.len(),
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

/// Apply `(key, seq)`-sorted messages over sorted entries in one merge pass.
/// Used by flushes into leaves and by range queries over a leaf window.
pub fn apply_msgs_to_entries(entries: &mut Vec<(Vec<u8>, Vec<u8>)>, msgs: &[Message]) {
    use dam_kv::msg::replay;
    if msgs.is_empty() {
        return;
    }
    let old = std::mem::take(entries);
    let mut out = Vec::with_capacity(old.len() + msgs.len());
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
        if let Some(v) = replay(base.as_deref(), group) {
            out.push((key.clone(), v));
        }
    }
    out.extend(ei);
    *entries = out;
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
    use dam_kv::codec::{pairs_size, unframe};
    use dam_kv::msg::Operation;

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
            encode_leaf(&entries, pairs_size(&entries)).len(),
            pairs_size(&entries)
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
        let put = |seq, key: &[u8]| Message {
            seq,
            key: key.to_vec(),
            op: Operation::Put(vec![7; 3]),
        };
        // Front, between two seqs of a repeated key, after it, at the end
        // of a buffer, into an empty buffer, and a repeated (key, seq).
        let msgs = [
            m(9, b"a"),
            put(3, b"b"),
            del(6, b"b"),
            m(7, b"e"),
            put(8, b"z"),
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
        apply_msgs_to_entries(&mut entries, &msgs);
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
