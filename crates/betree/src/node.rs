//! The whole-node layout's node image: the standard Bε-tree node.
//!
//! An internal node carries its pivots, its child ids and, for each child,
//! a buffer of pending messages sorted by `(key, seq)`; "the buffer is part
//! of the node and is written to disk with the rest of the node" (§3). A
//! leaf is one sorted run of key-value pairs.

use dam_kv::codec::{
    frame_into_slot, frame_payload, splice_in_place, Check, CodecError, Op, Pair, Reader, Run,
    Splice, Writer, FRAME_OVERHEAD, NODE_HEADER_BYTES, TAG_INTERNAL, TAG_LEAF,
};
use dam_kv::msg::{Message, MessageRef, OpRef, Operation};

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
    w.put_run(pivots.iter(), |p| p.len(), |w, p| w.put_raw(p));
    for (c, _) in children.clone() {
        w.put_u64(c);
    }
    // Each buffer is a record of the run of buffers: a run of messages
    // with no count in front.
    w.put_run(
        children.map(|(_, buf)| buf),
        |buf| buf.iter().map(|m| 4 + m.encoded_len()).sum(),
        |w, buf| w.put_run(buf.iter(), |m| m.encoded_len(), |w, m| m.encode(w)),
    );
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
        /// `pivots.len() + 1` message buffers, each a run of messages
        /// sorted by `(key, seq)`.
        buffers: Run<'a, Run<'a, MessageRef<'a>>>,
    },
}

impl<'a> BeNodeView<'a> {
    /// View a node image. Checks the frame header and the payload
    /// structure but not the frame checksum: the caller checks that once,
    /// when the image arrives from the device (see
    /// `dam_cache::Pager::check_once`).
    pub fn parse(image: &'a [u8]) -> Result<Self, CodecError> {
        Ok(Self::read(image, Check::Full)?.0)
    }

    /// View a node image that [`BeNodeView::parse`] accepted before (a
    /// verified pager entry, whose check ran it), checking only its frame
    /// header and the extent of each run: O(1), with no pass over the
    /// records.
    pub fn reparse(image: &'a [u8]) -> Result<Self, CodecError> {
        Ok(Self::read(image, Check::Extent)?.0)
    }

    /// The view, and the buffered messages' summed [`Message::footprint`]
    /// that a [`Check::Full`] read adds up as it checks them (0 otherwise).
    fn read(image: &'a [u8], check: Check) -> Result<(Self, usize), CodecError> {
        let mut r = Reader::new(frame_payload(image)?);
        match r.get_u8()? {
            TAG_LEAF => Ok((BeNodeView::Leaf(Run::read_counted(&mut r, check)?), 0)),
            TAG_INTERNAL => {
                let pivots = Run::read_counted(&mut r, check)?;
                let children = r.get_raw((pivots.len() + 1) * 8)?;
                let (buffers, buffered) = Run::read_buffers(&mut r, pivots.len() + 1, check)?;
                let view = BeNodeView::Internal {
                    pivots,
                    children,
                    buffers,
                };
                Ok((view, buffered))
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
    /// Locate `msg`'s place in the node `image`: in the buffer of the child
    /// that routes its key, in `(key, seq)` order; `None` for a leaf, which
    /// has no buffers. The image is checked in full, in the one pass that
    /// also adds up the buffered footprint the fit test needs; the buffer
    /// is then reached through the directory of buffers and searched in
    /// place, and no other buffer is walked.
    pub fn new(image: &[u8], msg: &Message) -> Result<Option<Self>, CodecError> {
        let (view, buffered) = BeNodeView::read(image, Check::Full)?;
        let BeNodeView::Internal {
            pivots,
            children,
            buffers,
        } = view
        else {
            return Ok(None);
        };
        // The message goes into the buffer of the child that routes its
        // key, before the first message that sorts after it.
        let child = pivots.route(&msg.key);
        let buf = buffers
            .nth(child)
            .ok_or(CodecError::Invalid("no buffer for the child"))?;
        let key = (msg.key.as_slice(), msg.seq);
        let (at, _) = buf.seek(|m| (m.key, m.seq) <= key);
        let base = PAYLOAD_HEADER + pivots.encoded_len() + children.len();
        let mut w = Writer::with_capacity(msg.encoded_len());
        msg.encode(&mut w);
        Ok(Some(BufferEdit {
            splice: buf
                .splice(base + buffers.offset(child), at, Op::Insert)
                .inside(&buffers, base, child),
            record: w.into_bytes(),
            serialized_size: NODE_HEADER_BYTES
                + pivots.encoded_len()
                + children.len()
                + 4 * buffers.len()
                + buffered
                + msg.footprint(),
            children: buffers.len(),
        }))
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
/// Used by flushes into leaves.
pub fn apply_msgs_to_entries(entries: &mut Vec<(Vec<u8>, Vec<u8>)>, msgs: &[Message]) {
    if msgs.is_empty() {
        return;
    }
    let old = std::mem::take(entries);
    let mut out = Vec::with_capacity(old.len() + msgs.len());
    merge_msgs(
        old.into_iter(),
        |(k, _)| k,
        msgs,
        |m| {
            out.push(match m {
                Merged::Entry(e) => e,
                Merged::Put(k, v) => (k.to_vec(), v.to_vec()),
            })
        },
    );
    *entries = out;
}

/// One pair of [`merge_msgs`]'s output.
pub(crate) enum Merged<'m, E> {
    /// An entry no message touched.
    Entry(E),
    /// A key whose newest message puts this value.
    Put(&'m [u8], &'m [u8]),
}

/// A buffered message, owned or read in place from a node image.
pub(crate) trait Buffered {
    /// The message, borrowed.
    fn view(&self) -> MessageRef<'_>;
}

impl Buffered for Message {
    fn view(&self) -> MessageRef<'_> {
        MessageRef {
            seq: self.seq,
            key: &self.key,
            op: match &self.op {
                Operation::Put(v) => OpRef::Put(v),
                Operation::Delete => OpRef::Delete,
            },
        }
    }
}

impl Buffered for MessageRef<'_> {
    fn view(&self) -> MessageRef<'_> {
        *self
    }
}

/// Merge `(key, seq)`-sorted `msgs` over `entries`, sorted by `key`, in
/// one pass, handing `emit` what they leave in key order: each key's newest
/// message decides it. Range walks merge borrowed pairs and messages with
/// it, so they copy nothing; flushes, owned entries, so they move them.
pub(crate) fn merge_msgs<'m, E, M: Buffered>(
    entries: impl Iterator<Item = E>,
    key: impl Fn(&E) -> &[u8],
    msgs: &'m [M],
    mut emit: impl FnMut(Merged<'m, E>),
) {
    let mut entries = entries.peekable();
    for group in msgs.chunk_by(|a, b| a.view().key == b.view().key) {
        let k = group[0].view().key;
        while let Some(e) = entries.next_if(|e| key(e) < k) {
            emit(Merged::Entry(e));
        }
        // The entry the messages replace, if the key has one.
        entries.next_if(|e| key(e) == k);
        let newest = group.last().expect("a group holds a message").view();
        debug_assert!(group.windows(2).all(|w| w[0].view().seq <= w[1].view().seq));
        if let OpRef::Put(v) = newest.op {
            emit(Merged::Put(k, v));
        }
    }
    entries.for_each(|e| emit(Merged::Entry(e)));
}

/// `a` and `b`, both `(key, seq)`-sorted, merged into `out`.
pub(crate) fn merge_refs<'p>(
    a: &[MessageRef<'p>],
    b: impl Iterator<Item = MessageRef<'p>>,
    out: &mut Vec<MessageRef<'p>>,
) {
    let mut a = a.iter().copied().peekable();
    for m in b {
        while let Some(x) = a.next_if(|x| (x.key, x.seq) <= (m.key, m.seq)) {
            out.push(x);
        }
        out.push(m);
    }
    out.extend(a);
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
            let edit = BufferEdit::new(&img, &msg).unwrap().unwrap();
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
        assert!(BufferEdit::new(&leaf, &m(1, b"a")).unwrap().is_none());
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
