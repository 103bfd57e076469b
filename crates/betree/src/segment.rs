//! The segmented layout's segment image (Theorem 9).
//!
//! A node is a slot of `cap = 2F` fixed-size segments of `seg_bytes` each,
//! every segment its own checksummed frame. Segment `j` of an internal node
//! holds a [`ChildDesc`]: the address and routing keys of child `j` ("we
//! store the pivots of a node outside of that node — specifically in the
//! node's parent") plus the messages pending for child `j`'s subtree.
//! Segment `j` of a leaf holds a sorted run of key-value pairs, a *subleaf*
//! (TokuDB's "basement node").

use dam_kv::codec::{frame_payload, CodecError, Pair, Reader, Record, Run, Writer, FRAME_OVERHEAD};
use dam_kv::msg::{Message, MessageRef};

const TAG_EMPTY: u8 = 0;
/// Tag of a subleaf segment: a pair run, encoded by
/// [`Writer::put_pairs`] and sized by [`dam_kv::codec::pairs_size`].
pub(crate) const TAG_SUBLEAF: u8 = 1;
const TAG_DESC: u8 = 2;

/// What a parent holds for one child: where it lives, the messages pending
/// for its subtree and, in the segmented layout, how to route within it.
/// In the segmented layout this *is* the on-disk content of one internal
/// segment; the whole-node layout stores only `addr` and `msgs` (in the
/// parent's image) and keeps `boundaries` empty and `is_leaf` unset, since
/// a whole-node image carries its own pivots and kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildDesc {
    /// Base offset of the child's node slot.
    pub addr: u64,
    /// Whether the child is a leaf (its segments are subleaves).
    pub is_leaf: bool,
    /// The child's routing keys: segment `j` of the child covers keys in
    /// `[boundaries[j-1], boundaries[j])`. `used = boundaries.len() + 1`.
    pub boundaries: Vec<Vec<u8>>,
    /// Messages pending for the child's subtree, sorted by `(key, seq)`.
    pub msgs: Vec<Message>,
}

impl ChildDesc {
    /// A descriptor of the node at `addr` with nothing buffered for it.
    pub fn new(addr: u64, is_leaf: bool) -> Self {
        ChildDesc {
            addr,
            is_leaf,
            boundaries: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Number of segments the child uses.
    pub fn used(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Which of the child's segments routes `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }

    /// Conservative serialized size as a framed segment (message footprints
    /// are upper bounds).
    pub fn size(&self) -> usize {
        FRAME_OVERHEAD
            + 1
            + 8
            + 1
            + 4
            + self.boundaries.iter().map(|b| 4 + b.len()).sum::<usize>()
            + 4
            + self.msgs.iter().map(Message::footprint).sum::<usize>()
    }

    /// The descriptor's segment payload.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.put_u8(TAG_DESC);
        w.put_u64(self.addr);
        w.put_u8(self.is_leaf as u8);
        w.put_u32(self.boundaries.len() as u32);
        for b in &self.boundaries {
            w.put_bytes(b);
        }
        w.put_u32(self.msgs.len() as u32);
        for m in &self.msgs {
            m.encode(w);
        }
    }

    /// Read a descriptor segment payload, leaving `r` just past it.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match SegView::read(r)? {
            Some(SegView::Desc(d)) => Ok(d.to_desc()),
            _ => Err(CodecError::Invalid("expected a descriptor segment")),
        }
    }
}

/// A segment read in place: queries route and search inside the segment
/// image and copy out only what they return. Reading checks the whole
/// structure, so a malformed payload is a [`CodecError`] up front, never a
/// panic or a partial answer. This is the format's only parser.
#[derive(Debug, Clone, Copy)]
pub enum SegView<'a> {
    /// A subleaf's sorted pairs.
    Subleaf(Run<'a, Pair<'a>>),
    /// A child descriptor.
    Desc(DescView<'a>),
}

/// A [`ChildDesc`] read in place.
#[derive(Debug, Clone, Copy)]
pub struct DescView<'a> {
    /// Base offset of the child's node slot.
    pub addr: u64,
    /// Whether the child is a leaf.
    pub is_leaf: bool,
    /// The child's routing keys.
    pub boundaries: Run<'a, &'a [u8]>,
    /// Messages pending for the child's subtree.
    pub msgs: Run<'a, MessageRef<'a>>,
}

impl DescView<'_> {
    /// An owned copy.
    pub fn to_desc(self) -> ChildDesc {
        ChildDesc {
            addr: self.addr,
            is_leaf: self.is_leaf,
            boundaries: self.boundaries.to_vec(),
            msgs: self.msgs.to_vec(),
        }
    }
}

impl<'a> SegView<'a> {
    /// Read one segment (`None` for an empty one), leaving `r` just past
    /// it.
    pub fn read(r: &mut Reader<'a>) -> Result<Option<Self>, CodecError> {
        match r.get_u8()? {
            TAG_EMPTY => Ok(None),
            TAG_SUBLEAF => Ok(Some(SegView::Subleaf(Run::read(r)?))),
            TAG_DESC => {
                let addr = r.get_u64()?;
                let is_leaf = r.get_u8()? != 0;
                let boundaries = Run::read(r)?;
                let msgs = Run::read(r)?;
                Ok(Some(SegView::Desc(DescView {
                    addr,
                    is_leaf,
                    boundaries,
                    msgs,
                })))
            }
            _ => Err(CodecError::Invalid("unknown segment tag")),
        }
    }

    /// View a framed segment image whose checksum the caller has checked
    /// (see `dam_cache::Pager::check_once`).
    pub fn parse(image: &'a [u8]) -> Result<Option<Self>, CodecError> {
        Self::read(&mut Reader::new(frame_payload(image)?))
    }
}
