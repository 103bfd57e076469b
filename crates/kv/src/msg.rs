//! The Bε-tree message algebra (§3).
//!
//! Dictionary modifications are encoded as messages — an insertion or a
//! tombstone for a deletion — stamped with a global sequence number.
//! Messages buffered high in the tree are *newer* than state below them;
//! the newest message for a key decides its value.

#[cfg(doc)]
use crate::codec::Pair;
use crate::codec::{split_key, Check, CodecError, Reader, Record, Run, Writer};

/// The modification a message carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Set the value.
    Put(Vec<u8>),
    /// Delete the key (tombstone).
    Delete,
}

impl Operation {
    /// Payload size in bytes (for buffer accounting).
    pub fn payload_len(&self) -> usize {
        match self {
            Operation::Put(v) => v.len(),
            Operation::Delete => 0,
        }
    }
}

/// A sequenced message destined for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Global sequence number: larger = newer.
    pub seq: u64,
    /// Target key.
    pub key: Vec<u8>,
    /// The modification.
    pub op: Operation,
}

/// Fixed part of a message's [`Message::footprint`]: seq + tag + the key's
/// length + the message's directory entry in its buffer. A `Delete` encodes
/// no key length, so its footprint is four bytes more than its encoding and
/// directory entry.
const FOOTPRINT_OVERHEAD: usize = 8 + 1 + 4 + 4;

impl Message {
    /// Approximate in-buffer footprint: key + payload + fixed overhead
    /// (seq + tag + key length + directory entry).
    pub fn footprint(&self) -> usize {
        self.key.len() + self.op.payload_len() + FOOTPRINT_OVERHEAD
    }

    /// Serialize into a [`Writer`]: the sequence number, a tag (0 put, 1
    /// delete), then the key and payload laid out as a [`Pair`] for a put,
    /// or the key alone for a delete. [`Message::encoded_len`] bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        match &self.op {
            Operation::Put(v) => {
                w.put_u8(0);
                w.put_pair(&self.key, v);
            }
            Operation::Delete => {
                w.put_u8(1);
                w.put_raw(&self.key);
            }
        }
    }

    /// Bytes [`Message::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        8 + 1
            + self.key.len()
            + match &self.op {
                Operation::Put(v) => 4 + v.len(),
                Operation::Delete => 0,
            }
    }

    /// Deserialize the message that spans exactly `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Message, CodecError> {
        MessageRef::read(bytes).map(MessageRef::owned)
    }
}

/// The modification of a [`MessageRef`], borrowing its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRef<'a> {
    /// Set the value.
    Put(&'a [u8]),
    /// Delete the key.
    Delete,
}

/// A message read in place from an encoded buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRef<'a> {
    /// Global sequence number.
    pub seq: u64,
    /// Target key.
    pub key: &'a [u8],
    /// The modification.
    pub op: OpRef<'a>,
}

impl<'a> Record<'a> for MessageRef<'a> {
    type Owned = Message;

    /// Read one message written by [`Message::encode`].
    #[inline]
    fn read(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let short = CodecError::Invalid("record shorter than its header");
        let (seq, rest) = bytes.split_first_chunk().ok_or(short.clone())?;
        let seq = u64::from_le_bytes(*seq);
        let (key, op) = match rest.split_first().ok_or(short)? {
            (0, pair) => split_key(pair).map(|(k, v)| (k, OpRef::Put(v)))?,
            (1, key) => (key, OpRef::Delete),
            _ => return Err(CodecError::Invalid("unknown message tag")),
        };
        Ok(MessageRef { seq, key, op })
    }

    fn owned(self) -> Message {
        Message {
            seq: self.seq,
            key: self.key.to_vec(),
            op: match self.op {
                OpRef::Put(v) => Operation::Put(v.to_vec()),
                OpRef::Delete => Operation::Delete,
            },
        }
    }
}

impl MessageRef<'_> {
    /// [`Message::footprint`] of the message.
    pub fn footprint(&self) -> usize {
        let payload = match self.op {
            OpRef::Put(v) => v.len(),
            OpRef::Delete => 0,
        };
        self.key.len() + payload + FOOTPRINT_OVERHEAD
    }
}

/// A message buffer: messages sorted by `(key, seq)`.
impl<'a> Run<'a, MessageRef<'a>> {
    /// The messages for `key`, in ascending seq order.
    pub fn for_key<'k>(&self, key: &'k [u8]) -> impl Iterator<Item = MessageRef<'a>> + 'k
    where
        'a: 'k,
    {
        let (_, rest) = self.seek(|m| m.key < key);
        rest.iter().take_while(move |m| m.key == key)
    }
}

/// A node's message buffers, one per child: a run of buffers.
impl<'a> Run<'a, Run<'a, MessageRef<'a>>> {
    /// Take `n` buffers from `r`, checked as `check` says, and the summed
    /// [`MessageRef::footprint`] of their messages, which a
    /// [`Check::Full`] read adds up in its single check of every message
    /// (and [`Check::Extent`], which reads none, leaves at 0).
    pub fn read_buffers(
        r: &mut Reader<'a>,
        n: usize,
        check: Check,
    ) -> Result<(Self, usize), CodecError> {
        if check == Check::Extent {
            return Ok((Run::reread_n(r, n)?, 0));
        }
        let mut footprint = 0;
        let buffers = Run::read_n_by(r, n, |buffer| {
            Run::read_spanning(buffer, |m: MessageRef<'_>| footprint += m.footprint())
        })?;
        Ok((buffers, footprint))
    }
}

/// The value `messages` (ascending seq, all for the same key) leave over a
/// base value: the newest message decides it.
pub fn replay(base: Option<&[u8]>, messages: &[Message]) -> Option<Vec<u8>> {
    debug_assert!(
        messages.windows(2).all(|w| w[0].seq <= w[1].seq),
        "messages out of order"
    );
    match messages.last() {
        None => base.map(<[u8]>::to_vec),
        Some(m) => match &m.op {
            Operation::Put(v) => Some(v.clone()),
            Operation::Delete => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64, op: Operation) -> Message {
        Message {
            seq,
            key: b"k".to_vec(),
            op,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = vec![
            msg(1, Operation::Put(b"value".to_vec())),
            msg(2, Operation::Delete),
            msg(3, Operation::Put(vec![9; 100])),
        ];
        for m in cases {
            let mut w = Writer::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), m.encoded_len());
            assert_eq!(Message::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        // 0 (put) and 1 (delete) are the only tags.
        for tag in [2, 99] {
            let mut w = Writer::new();
            w.put_u64(1);
            w.put_u8(tag);
            w.put_pair(b"k", b"v");
            assert_eq!(
                Message::decode(&w.into_bytes()),
                Err(CodecError::Invalid("unknown message tag"))
            );
        }
    }

    #[test]
    fn replay_applies_in_order() {
        let ms = vec![
            msg(1, Operation::Put(b"a".to_vec())),
            msg(2, Operation::Put(b"b".to_vec())),
        ];
        assert_eq!(replay(None, &ms), Some(b"b".to_vec()));
    }

    #[test]
    fn replay_tombstone_hides_base() {
        let ms = vec![msg(5, Operation::Delete)];
        assert_eq!(replay(Some(b"old"), &ms), None);
    }

    #[test]
    fn replay_put_after_delete_resurrects() {
        let ms = vec![
            msg(1, Operation::Delete),
            msg(2, Operation::Put(b"new".to_vec())),
        ];
        assert_eq!(replay(Some(b"old"), &ms), Some(b"new".to_vec()));
    }

    #[test]
    fn footprint_counts_key_and_payload() {
        let m = msg(1, Operation::Put(vec![0; 10]));
        assert_eq!(m.footprint(), 1 + 10 + 17);
        assert_eq!(msg(1, Operation::Delete).footprint(), 1 + 17);
    }
}
