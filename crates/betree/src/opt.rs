//! The Theorem-9 optimized Bε-tree.
//!
//! Layout (see crate docs): every node is a device slot of `cap = 2F`
//! contiguous segments of `seg_bytes` each. Segment `j` of an internal node
//! holds the [`ChildDesc`] of child `j` — its address, its routing keys
//! ("we store the pivots of a node outside of that node — specifically in
//! the node's parent"), and the messages pending for its subtree, capped at
//! one segment. Segment `j` of a leaf holds a sorted subleaf of key-value
//! pairs.
//!
//! IO granularity is the whole point:
//!
//! * **queries** read exactly one segment per level
//!   ([`dam_cache::Pager::read_within`]) — an IO of `B/(2F)` bytes, affine
//!   cost `1 + αB/F`-ish per level (Theorem 9's query bound);
//! * **flushes and splits** read and write whole nodes — *one* IO of `B`
//!   bytes (the segments are contiguous on the device), affine cost
//!   `1 + αB`, amortized over the `Θ(B/F)` message bytes moved (Theorem 9's
//!   insert bound).
//!
//! Deviations from the paper, both documented in DESIGN.md: balance is
//! maintained by bottom-up splits rather than weight-balanced subtree
//! rebuilds (same asymptotics, different constants on the rebalance term),
//! and deletions leave sparse leaves rather than triggering merges.

use crate::node::{apply_msgs_to_entries, buffer_insert, buffer_merge};
use dam_cache::{Page, Pager, Superblock, SuperblockIo};
use dam_kv::codec::{
    frame_into_slot, frame_payload, unframe, CodecError, PairsView, Reader, StrsView, Writer,
    FRAME_OVERHEAD,
};
use dam_kv::msg::{replay, LastWriteWins, MergeOperator, Message, MsgsView, Operation};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedDict};
use dam_storage::SharedDevice;

const SUPERBLOCK: Superblock = Superblock {
    magic: 0x4441_4D4F, // "DAMO"
    version: 1,
    label: "optimized Be-tree superblock",
    io: SuperblockIo::Slot,
};

const TAG_EMPTY: u8 = 0;
const TAG_SUBLEAF: u8 = 1;
const TAG_DESC: u8 = 2;

/// Serialized size of an empty subleaf segment (frame + tag + count).
const SUBLEAF_HEADER_BYTES: usize = FRAME_OVERHEAD + 1 + 4;

/// Configuration of the optimized tree.
pub struct OptConfig {
    /// Target fanout `F`. Nodes hold up to `2F` segments.
    pub fanout: usize,
    /// Segment size in bytes (≈ `B / 2F`). Queries read one segment per
    /// level.
    pub seg_bytes: usize,
    /// Buffer-pool budget in bytes.
    pub cache_bytes: u64,
    /// Upsert merge semantics.
    pub merge: Box<dyn MergeOperator>,
    /// Fill fraction for bulk-loaded subleaves.
    pub bulk_fill: f64,
}

impl OptConfig {
    /// Explicit configuration with last-write-wins upserts.
    pub fn new(fanout: usize, seg_bytes: usize, cache_bytes: u64) -> Self {
        OptConfig {
            fanout,
            seg_bytes,
            cache_bytes,
            merge: Box::new(LastWriteWins),
            bulk_fill: 0.8,
        }
    }

    /// Bytes reserved at device offset 0 for the superblock: large enough
    /// for the root descriptor (one segment) plus allocator state.
    pub fn superblock_bytes(&self) -> u64 {
        (self.seg_bytes as u64 + 1024).max(4096)
    }

    /// The Corollary-12 shape for a target node size: `F ≈ √(B/entry)`,
    /// `seg = B / 2F` (with a floor so a descriptor holding `2F` routing
    /// keys still has message room).
    pub fn balanced(node_bytes: usize, approx_entry_bytes: usize, cache_bytes: u64) -> Self {
        let entries = (node_bytes / approx_entry_bytes.max(1)).max(4);
        let fanout = ((entries as f64).sqrt().ceil() as usize).max(2);
        let seg = (node_bytes / (2 * fanout)).max(256);
        Self::new(fanout, seg, cache_bytes)
    }

    /// Segments per node slot.
    pub fn cap(&self) -> usize {
        2 * self.fanout
    }

    /// Node slot size in bytes.
    pub fn node_bytes(&self) -> usize {
        self.cap() * self.seg_bytes
    }
}

/// What a parent knows about a child: where it lives, how to route within
/// it, and the messages pending for its subtree. This *is* the on-disk
/// content of one internal segment.
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
}

/// One decoded segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seg {
    Subleaf(Vec<(Vec<u8>, Vec<u8>)>),
    Desc(ChildDesc),
}

impl Seg {
    fn size(&self) -> usize {
        match self {
            Seg::Subleaf(entries) => {
                FRAME_OVERHEAD
                    + 1
                    + 4
                    + entries
                        .iter()
                        .map(|(k, v)| 8 + k.len() + v.len())
                        .sum::<usize>()
            }
            Seg::Desc(d) => d.size(),
        }
    }

    fn encode_into(&self, w: &mut Writer) {
        match self {
            Seg::Subleaf(entries) => {
                w.put_u8(TAG_SUBLEAF);
                w.put_u32(entries.len() as u32);
                for (k, v) in entries {
                    w.put_bytes(k);
                    w.put_bytes(v);
                }
            }
            Seg::Desc(d) => {
                w.put_u8(TAG_DESC);
                w.put_u64(d.addr);
                w.put_u8(d.is_leaf as u8);
                w.put_u32(d.boundaries.len() as u32);
                for b in &d.boundaries {
                    w.put_bytes(b);
                }
                w.put_u32(d.msgs.len() as u32);
                for m in &d.msgs {
                    m.encode(w);
                }
            }
        }
    }

    /// Decode one segment from an open reader, leaving the reader positioned
    /// just past it.
    fn decode_from(r: &mut Reader<'_>) -> Result<Option<Seg>, CodecError> {
        Ok(SegView::read(r)?.map(|v| v.to_seg()))
    }
}

/// A segment read in place: queries route and search inside the segment
/// image and copy out only what they return. Reading checks the whole
/// structure, so a malformed payload is a [`CodecError`] up front, never a
/// panic or a partial answer. This is the format's only parser; the owned
/// [`Seg`] decode is built on it.
#[derive(Debug, Clone, Copy)]
enum SegView<'a> {
    Subleaf(PairsView<'a>),
    Desc(DescView<'a>),
}

/// A [`ChildDesc`] read in place.
#[derive(Debug, Clone, Copy)]
struct DescView<'a> {
    addr: u64,
    is_leaf: bool,
    boundaries: StrsView<'a>,
    msgs: MsgsView<'a>,
}

impl<'a> SegView<'a> {
    /// Read one segment (`None` for an empty one), leaving `r` just past
    /// it.
    fn read(r: &mut Reader<'a>) -> Result<Option<Self>, CodecError> {
        match r.get_u8()? {
            TAG_EMPTY => Ok(None),
            TAG_SUBLEAF => {
                let n = r.get_u32()? as usize;
                Ok(Some(SegView::Subleaf(PairsView::read(r, n)?)))
            }
            TAG_DESC => {
                let addr = r.get_u64()?;
                let is_leaf = r.get_u8()? != 0;
                let nb = r.get_u32()? as usize;
                let boundaries = StrsView::read(r, nb)?;
                let nm = r.get_u32()? as usize;
                let msgs = MsgsView::read(r, nm)?;
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
    /// (see [`OptBeTree::read_seg_page`]).
    fn parse(image: &'a [u8]) -> Result<Option<Self>, CodecError> {
        Self::read(&mut Reader::new(frame_payload(image)?))
    }

    fn to_seg(self) -> Seg {
        match self {
            SegView::Subleaf(entries) => Seg::Subleaf(entries.to_vec()),
            SegView::Desc(d) => Seg::Desc(ChildDesc {
                addr: d.addr,
                is_leaf: d.is_leaf,
                boundaries: d.boundaries.to_vec(),
                msgs: d.msgs.to_vec(),
            }),
        }
    }
}

fn in_range(key: &[u8], start: &[u8], end: &[u8]) -> bool {
    key >= start && key < end
}

/// View segment `j` of node `addr`, read by [`OptBeTree::read_seg_page`].
fn parse_seg(addr: u64, j: usize, page: &Page) -> Result<SegView<'_>, KvError> {
    match SegView::parse(page) {
        Ok(Some(seg)) => Ok(seg),
        Ok(None) => Err(KvError::Corrupt(format!("node {addr}: segment {j} empty"))),
        Err(e) => Err(KvError::Corrupt(format!("node {addr} seg {j}: {e}"))),
    }
}

fn wrong_segment(expected_leaf: bool) -> KvError {
    KvError::Corrupt(if expected_leaf {
        "expected subleaf".into()
    } else {
        "expected descriptor segment".into()
    })
}

/// The optimized Bε-tree (see module docs).
pub struct OptBeTree {
    pager: Pager,
    fanout: usize,
    cap: usize,
    seg_bytes: usize,
    node_bytes: usize,
    merge: Box<dyn MergeOperator>,
    root: ChildDesc,
    height: u32,
    count: u64,
    next_seq: u64,
    obs: Option<Obs>,
}

impl OptBeTree {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: OptConfig) -> Result<Self, KvError> {
        if cfg.fanout < 2 {
            return Err(KvError::Config("fanout must be at least 2".into()));
        }
        if cfg.seg_bytes < 64 {
            return Err(KvError::Config(format!(
                "seg_bytes {} too small",
                cfg.seg_bytes
            )));
        }
        if !(0.5..=1.0).contains(&cfg.bulk_fill) {
            return Err(KvError::Config("bulk_fill must be in [0.5, 1.0]".into()));
        }
        let cap = cfg.cap();
        let node_bytes = cfg.node_bytes();
        let mut pager = Pager::new(device, cfg.cache_bytes, cfg.superblock_bytes());
        let addr = pager.alloc(node_bytes as u64)?;
        let mut tree = OptBeTree {
            pager,
            fanout: cfg.fanout,
            cap,
            seg_bytes: cfg.seg_bytes,
            node_bytes,
            merge: cfg.merge,
            root: ChildDesc {
                addr,
                is_leaf: true,
                boundaries: Vec::new(),
                msgs: Vec::new(),
            },
            height: 1,
            count: 0,
            next_seq: 1,
            obs: None,
        };
        tree.write_whole(addr, &[Seg::Subleaf(Vec::new())])?;
        Ok(tree)
    }

    /// Node slot size (`B`).
    pub fn node_bytes(&self) -> usize {
        self.node_bytes
    }

    /// Segment size (the query IO unit, `≈ B/2F`).
    pub fn seg_bytes(&self) -> usize {
        self.seg_bytes
    }

    /// Target fanout `F`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height in node levels (a lone leaf node = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pager (counters, flush, cache drops).
    pub fn pager(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Write all dirty nodes.
    pub fn flush(&mut self) -> Result<(), KvError> {
        self.pager.flush().map_err(KvError::from)
    }

    /// Checkpoint: flush dirty nodes, then durably write a superblock (the
    /// root descriptor — including any buffered root messages — plus tree
    /// metadata and allocator state) so [`OptBeTree::open`] can reconstruct
    /// the tree.
    pub fn persist(&mut self) -> Result<(), KvError> {
        self.flush()?;
        SUPERBLOCK.write(&mut self.pager, |w| {
            w.put_u32(self.fanout as u32);
            w.put_u64(self.seg_bytes as u64);
            w.put_u32(self.height);
            w.put_u64(self.count);
            w.put_u64(self.next_seq);
            // The root descriptor reuses the segment encoding.
            Seg::Desc(self.root.clone()).encode_into(w);
        })
    }

    /// Reopen a tree previously [`OptBeTree::persist`]ed on `device`. The
    /// config's fanout and segment size must match.
    pub fn open(device: SharedDevice, cfg: OptConfig) -> Result<Self, KvError> {
        let mut pager = Pager::new(device, cfg.cache_bytes, cfg.superblock_bytes());
        let (height, count, next_seq, root) = SUPERBLOCK.read(&mut pager, |r| {
            let fanout = r.get_u32()? as usize;
            let seg_bytes = r.get_u64()? as usize;
            if fanout != cfg.fanout || seg_bytes != cfg.seg_bytes {
                return Err(KvError::Config(format!(
                    "shape mismatch: device has F={fanout}/seg={seg_bytes}, config says F={}/seg={}",
                    cfg.fanout, cfg.seg_bytes
                )));
            }
            let fields = (r.get_u32()?, r.get_u64()?, r.get_u64()?);
            match Seg::decode_from(r)? {
                Some(Seg::Desc(root)) => Ok((fields.0, fields.1, fields.2, root)),
                _ => Err(KvError::Corrupt("missing root descriptor".into())),
            }
        })?;
        Ok(OptBeTree {
            pager,
            fanout: cfg.fanout,
            cap: cfg.cap(),
            seg_bytes: cfg.seg_bytes,
            node_bytes: cfg.node_bytes(),
            merge: cfg.merge,
            root,
            height,
            count,
            next_seq,
            obs: None,
        })
    }

    /// Attach an observability registry: query descents open per-level
    /// `optbetree.level` spans, flushes open `optbetree.drain` spans, and
    /// every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Flush and empty the cache.
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        self.pager.drop_cache().map_err(KvError::from)
    }

    // ------------------------------------------------------------------
    // Segment / node IO
    // ------------------------------------------------------------------

    fn write_whole(&mut self, addr: u64, segs: &[Seg]) -> Result<(), KvError> {
        if segs.len() > self.cap {
            return Err(KvError::Config(format!(
                "{} segments exceed node capacity {}",
                segs.len(),
                self.cap
            )));
        }
        let mut image = Vec::with_capacity(self.node_bytes);
        for seg in segs {
            if seg.size() > self.seg_bytes {
                return Err(KvError::Config(format!(
                    "segment of {} bytes exceeds seg_bytes {}",
                    seg.size(),
                    self.seg_bytes
                )));
            }
            let mut w = Writer::with_capacity(self.seg_bytes - FRAME_OVERHEAD);
            seg.encode_into(&mut w);
            // Each segment gets its own checksummed frame so partial-node
            // (single-segment) reads can still be validated.
            image.extend_from_slice(&frame_into_slot(&w.into_bytes(), self.seg_bytes));
        }
        image.resize(self.node_bytes, 0);
        self.pager.write(addr, image).map_err(KvError::from)
    }

    /// Read a whole node of `used` segments. Each segment's frame is
    /// checked unless the pager has verified the image; a node read from
    /// the device is not marked verified here, because the check covers
    /// only the `used` segments, not every slot of the image.
    fn read_whole(&mut self, addr: u64, used: usize) -> Result<Vec<Seg>, KvError> {
        if used > self.cap {
            return Err(KvError::Corrupt(format!(
                "node {addr}: {used} segments exceed capacity {}",
                self.cap
            )));
        }
        let image = self.pager.read(addr, self.node_bytes)?;
        let mut segs = Vec::with_capacity(used);
        for j in 0..used {
            let slice = &image[j * self.seg_bytes..(j + 1) * self.seg_bytes];
            let corrupt = |e: CodecError| KvError::Corrupt(format!("node {addr} seg {j}: {e}"));
            if !image.is_verified() {
                unframe(slice).map_err(corrupt)?;
            }
            match SegView::parse(slice).map_err(corrupt)? {
                Some(s) => segs.push(s.to_seg()),
                None => {
                    return Err(KvError::Corrupt(format!(
                        "node {addr}: expected {used} segments, found {j}"
                    )))
                }
            }
        }
        Ok(segs)
    }

    /// Segment `j` of node `addr` (one small IO, or a hit), its frame
    /// checksum checked once: when the bytes come off the device, not on
    /// every cache hit.
    fn read_seg_page(&mut self, addr: u64, j: usize) -> Result<Page, KvError> {
        let page =
            self.pager
                .read_within(addr, self.node_bytes, j * self.seg_bytes, self.seg_bytes)?;
        self.pager
            .check_once(&page, |b| unframe(b).map(drop))
            .map_err(|e| KvError::Corrupt(format!("node {addr} seg {j}: {e}")))?;
        Ok(page)
    }

    // ------------------------------------------------------------------
    // Message partitioning
    // ------------------------------------------------------------------

    /// Partition `(key, seq)`-sorted messages by boundaries into per-segment
    /// groups.
    fn partition(msgs: Vec<Message>, boundaries: &[Vec<u8>]) -> Vec<Vec<Message>> {
        let used = boundaries.len() + 1;
        let mut groups: Vec<Vec<Message>> = (0..used).map(|_| Vec::new()).collect();
        let mut j = 0usize;
        for m in msgs {
            while j < boundaries.len() && boundaries[j].as_slice() <= m.key.as_slice() {
                j += 1;
            }
            groups[j].push(m);
        }
        groups
    }

    // ------------------------------------------------------------------
    // Flush (the structural workhorse)
    // ------------------------------------------------------------------

    /// Drain `desc.msgs` into the node it describes. New right siblings
    /// `(separator, desc)` are pushed onto `out` for the caller to adopt.
    ///
    /// Error discipline (pinned by the `dam-check` fault modes): the
    /// buffered messages are the only copy of acknowledged updates, and
    /// `desc` must keep matching the node image in the cache. On error,
    /// either nothing beneath this descriptor changed (`committed` stays
    /// false; the descriptor and the live-key count are restored exactly)
    /// or the subtree was rewritten (`committed` set; `desc` and `out`
    /// reflect the committed state and the error is reported after the
    /// fact). Either way, a surfaced device fault never strips acked
    /// writes, and a redriven operation converges instead of silently
    /// diverging.
    fn flush_child(
        &mut self,
        desc: &mut ChildDesc,
        out: &mut Vec<(Vec<u8>, ChildDesc)>,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        if desc.msgs.is_empty() {
            return Ok(());
        }
        let backup = desc.clone();
        let count_before = self.count;
        let result = self.flush_child_inner(desc, out, committed);
        if result.is_err() && !*committed {
            *desc = backup;
            self.count = count_before;
        }
        result
    }

    fn flush_child_inner(
        &mut self,
        desc: &mut ChildDesc,
        out: &mut Vec<(Vec<u8>, ChildDesc)>,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        let _flush = self.obs.as_ref().map(|o| o.descend("optbetree.drain"));
        let msgs = std::mem::take(&mut desc.msgs);
        let mut segs = self.read_whole(desc.addr, desc.used())?;
        let groups = Self::partition(msgs, &desc.boundaries);

        if desc.is_leaf {
            for (j, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let Seg::Subleaf(entries) = &mut segs[j] else {
                    return Err(KvError::Corrupt(
                        "desc says leaf but segment is not a subleaf".into(),
                    ));
                };
                let delta = apply_msgs_to_entries(entries, &group, self.merge.as_ref());
                self.count = (self.count as i64 + delta) as u64;
            }
            self.persist_leaf(desc, segs, out, committed)
        } else {
            // Deliver group by group so a failed cascade can hand its
            // undelivered messages back to this buffer instead of losing
            // them; `shift` tracks index displacement from adoptions.
            let mut pending: Vec<Message> = Vec::new();
            let mut deferred: Option<KvError> = None;
            let mut shift = 0usize;
            for (j, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                if deferred.is_some() {
                    pending.extend(group);
                    continue;
                }
                let jj = j + shift;
                let Seg::Desc(d) = &mut segs[jj] else {
                    return Err(KvError::Corrupt(
                        "desc says internal but segment is not a desc".into(),
                    ));
                };
                let d_backup = d.clone();
                let existing = std::mem::take(&mut d.msgs);
                d.msgs = buffer_merge(existing, group.clone());
                if d.size() <= self.seg_bytes {
                    continue;
                }
                let mut child_out = Vec::new();
                let mut child_committed = false;
                match self.flush_child(d, &mut child_out, &mut child_committed) {
                    Ok(()) => {
                        *committed = true;
                        if let Seg::Desc(d) = &segs[jj] {
                            if d.size() > self.seg_bytes {
                                deferred = Some(KvError::Config(
                                    "drained descriptor still exceeds seg_bytes \
                                     (fanout/keys too large)"
                                        .into(),
                                ));
                            }
                        }
                    }
                    Err(e) => {
                        if !child_committed {
                            // The child subtree is untouched; revert the
                            // merge and carry the group back to our buffer.
                            let Seg::Desc(d) = &mut segs[jj] else {
                                unreachable!()
                            };
                            *d = d_backup;
                            pending.extend(group);
                            deferred = Some(e);
                            continue;
                        }
                        // The child rewrote itself: from here this node
                        // must be persisted to stay in sync with it.
                        *committed = true;
                        deferred = Some(e);
                    }
                }
                let k = child_out.len();
                for (off, (sep, nd)) in child_out.into_iter().enumerate() {
                    desc.boundaries.insert(jj + off, sep);
                    segs.insert(jj + 1 + off, Seg::Desc(nd));
                }
                shift += k;
            }
            // Undelivered messages return to this buffer (persisted by our
            // parent, or held in memory at the root).
            desc.msgs = pending;
            if let Some(e) = deferred {
                if !*committed {
                    // Nothing beneath us changed; the wrapper restores.
                    return Err(e);
                }
                let _ = self.persist_internal(desc, segs, out, committed);
                return Err(e);
            }
            self.persist_internal(desc, segs, out, committed)
        }
    }

    /// Persist a leaf's segments, repacking/splitting if any subleaf
    /// overflows. Updates `desc.boundaries`; pushes new sibling leaves
    /// onto `out`.
    ///
    /// Write ordering is load-bearing: fresh-address sibling nodes are
    /// written before this descriptor's own node, so a failure before the
    /// commit point leaves the original image (and `desc`) untouched —
    /// the allocated nodes are orphaned garbage, not lost data. Once
    /// `committed` is set, `desc`/`out` match what the cache holds (writes
    /// apply to the cache even when a device fault surfaces).
    fn persist_leaf(
        &mut self,
        desc: &mut ChildDesc,
        segs: Vec<Seg>,
        out: &mut Vec<(Vec<u8>, ChildDesc)>,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        let any_oversize = segs.iter().any(|s| s.size() > self.seg_bytes);
        if !any_oversize && segs.len() <= self.cap {
            *committed = true;
            return self.write_whole(desc.addr, &segs);
        }
        // Repack: concatenate (already key-ordered) and re-chunk.
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for seg in segs {
            let Seg::Subleaf(entries) = seg else {
                return Err(KvError::Corrupt("leaf repack found non-subleaf".into()));
            };
            all.extend(entries);
        }
        let target = (self.seg_bytes * 3) / 4;
        let mut chunks: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
        let mut cur: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut bytes = SUBLEAF_HEADER_BYTES;
        for (k, v) in all {
            let sz = 8 + k.len() + v.len();
            if SUBLEAF_HEADER_BYTES + sz > self.seg_bytes {
                return Err(KvError::Config("entry larger than a subleaf".into()));
            }
            if !cur.is_empty() && bytes + sz > target {
                chunks.push(std::mem::take(&mut cur));
                bytes = SUBLEAF_HEADER_BYTES;
            }
            bytes += sz;
            cur.push((k, v));
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        if chunks.is_empty() {
            chunks.push(Vec::new());
        }
        // Group chunks into leaf nodes of at most `fanout` subleaves.
        #[allow(clippy::type_complexity)]
        let node_groups: Vec<&[Vec<(Vec<u8>, Vec<u8>)>]> =
            chunks.chunks(self.fanout.max(1)).collect();
        // Allocate every new address up front, then write the sibling
        // nodes before rewriting our own.
        let mut addrs = vec![desc.addr];
        for _ in 1..node_groups.len() {
            addrs.push(self.alloc_node()?);
        }
        for (gi, group) in node_groups.iter().enumerate().skip(1) {
            let group_segs: Vec<Seg> = group.iter().map(|c| Seg::Subleaf(c.to_vec())).collect();
            self.write_whole(addrs[gi], &group_segs)?;
        }
        // Commit point: publish the siblings, retarget the descriptor,
        // then rewrite our own node last.
        for (gi, group) in node_groups.iter().enumerate().skip(1) {
            let boundaries: Vec<Vec<u8>> = group[1..].iter().map(|c| c[0].0.clone()).collect();
            out.push((
                group[0][0].0.clone(),
                ChildDesc {
                    addr: addrs[gi],
                    is_leaf: true,
                    boundaries,
                    msgs: Vec::new(),
                },
            ));
        }
        desc.boundaries = node_groups[0][1..].iter().map(|c| c[0].0.clone()).collect();
        *committed = true;
        let group_segs: Vec<Seg> = node_groups[0]
            .iter()
            .map(|c| Seg::Subleaf(c.to_vec()))
            .collect();
        self.write_whole(desc.addr, &group_segs)
    }

    /// Persist an internal node's segments, splitting the node when it
    /// exceeds capacity. Updates `desc.boundaries`; pushes new siblings
    /// onto `out`. Same write ordering as [`Self::persist_leaf`], but a
    /// split here always follows a child's committed split (only adopted
    /// siblings grow `segs`), so there is no clean abort left: a device
    /// fault on a sibling write is reported only after the split is
    /// committed, like the standard tree's `split_internal`. The images
    /// land in cache either way.
    fn persist_internal(
        &mut self,
        desc: &mut ChildDesc,
        segs: Vec<Seg>,
        out: &mut Vec<(Vec<u8>, ChildDesc)>,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        debug_assert_eq!(segs.len(), desc.boundaries.len() + 1);
        if segs.len() <= self.cap {
            *committed = true;
            return self.write_whole(desc.addr, &segs);
        }
        // Split into nodes of at most `fanout` segments.
        let group_size = self.fanout.max(2);
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        while start < segs.len() {
            let end = (start + group_size).min(segs.len());
            ranges.push((start, end));
            start = end;
        }
        let mut addrs = vec![desc.addr];
        for _ in 1..ranges.len() {
            addrs.push(self.alloc_node()?);
        }
        let mut deferred = None;
        for (gi, &(s, e)) in ranges.iter().enumerate().skip(1) {
            if let Err(e) = self.write_whole(addrs[gi], &segs[s..e]) {
                deferred.get_or_insert(e);
            }
        }
        // Commit point. Messages still buffered here (a failed cascade's
        // undelivered groups) follow their keys into the new parts.
        let boundaries = std::mem::take(&mut desc.boundaries);
        let mut msgs = std::mem::take(&mut desc.msgs);
        let mut part_msgs: Vec<Vec<Message>> = ranges[1..]
            .iter()
            .rev()
            .map(|&(s, _)| msgs.split_off(msgs.partition_point(|m| m.key < boundaries[s - 1])))
            .collect();
        desc.msgs = msgs;
        for (gi, &(s, e)) in ranges.iter().enumerate().skip(1) {
            out.push((
                boundaries[s - 1].clone(),
                ChildDesc {
                    addr: addrs[gi],
                    is_leaf: false,
                    boundaries: boundaries[s..e - 1].to_vec(),
                    msgs: part_msgs.pop().expect("one buffer per part"),
                },
            ));
        }
        let (s0, e0) = ranges[0];
        desc.boundaries = boundaries[s0..e0 - 1].to_vec();
        *committed = true;
        let own = self.write_whole(desc.addr, &segs[s0..e0]);
        deferred.map_or(own, Err)
    }

    fn alloc_node(&mut self) -> Result<u64, KvError> {
        self.pager
            .alloc(self.node_bytes as u64)
            .map_err(KvError::from)
    }

    /// Grow the root when it splits.
    fn grow_root(&mut self, siblings: Vec<(Vec<u8>, ChildDesc)>) -> Result<(), KvError> {
        if siblings.is_empty() {
            return Ok(());
        }
        let addr = self.alloc_node()?;
        let old = std::mem::replace(
            &mut self.root,
            ChildDesc {
                addr,
                is_leaf: false,
                boundaries: Vec::new(),
                msgs: Vec::new(),
            },
        );
        let mut segs = vec![Seg::Desc(old)];
        let mut boundaries = Vec::new();
        for (sep, d) in siblings {
            boundaries.push(sep);
            segs.push(Seg::Desc(d));
        }
        // Update the in-memory root before the write: the write lands in
        // the cache even when a device fault surfaces, so the descriptor
        // must already describe the new node.
        self.root.boundaries = boundaries;
        self.height += 1;
        self.write_whole(addr, &segs)
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    fn entry_fits(&self, key: &[u8], payload: usize) -> Result<(), KvError> {
        let entry = SUBLEAF_HEADER_BYTES + 8 + key.len() + payload;
        // Message footprint + framed-descriptor fixed overhead.
        let msg = 17 + key.len() + payload + 18 + FRAME_OVERHEAD;
        if entry.max(msg) > self.seg_bytes {
            return Err(KvError::Config(format!(
                "entry of key {} + payload {} bytes cannot fit in seg_bytes {}",
                key.len(),
                payload,
                self.seg_bytes
            )));
        }
        Ok(())
    }

    fn enqueue(&mut self, key: &[u8], op: Operation) -> Result<(), KvError> {
        self.entry_fits(key, op.payload_len())?;
        let msg = Message {
            seq: self.next_seq,
            key: key.to_vec(),
            op,
        };
        self.next_seq += 1;
        let mut root = std::mem::replace(
            &mut self.root,
            ChildDesc {
                addr: 0,
                is_leaf: true,
                boundaries: Vec::new(),
                msgs: Vec::new(),
            },
        );
        buffer_insert(&mut root.msgs, msg);
        let mut siblings = Vec::new();
        let mut committed = false;
        let result = if root.size() > self.seg_bytes {
            self.flush_child(&mut root, &mut siblings, &mut committed)
        } else {
            Ok(())
        };
        self.root = root;
        // Adopt committed splits even when the flush reported an error:
        // the sibling nodes are already written and the root descriptor
        // already routes around them.
        let grow = self.grow_root(siblings);
        result.and(grow)
    }

    /// Upsert: merge `delta` into the key's value via the configured
    /// [`MergeOperator`].
    pub fn upsert(&mut self, key: &[u8], delta: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.enqueue(key, Operation::Upsert(delta.to_vec())))
    }

    fn get_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let root = &self.root;
        let mut collected: Vec<Message> = root
            .msgs
            .iter()
            .skip_while(|m| m.key.as_slice() < key)
            .take_while(|m| m.key.as_slice() == key)
            .cloned()
            .collect();
        let (mut addr, mut is_leaf, mut j) = (root.addr, root.is_leaf, root.route(key));
        let mut depth = 0u32;
        loop {
            let _lvl = self
                .obs
                .as_ref()
                .map(|o| o.span_at("optbetree.level", depth));
            depth += 1;
            let page = self.read_seg_page(addr, j)?;
            match parse_seg(addr, j, &page)? {
                SegView::Subleaf(entries) if is_leaf => {
                    collected.sort_by_key(|m| m.seq);
                    return Ok(replay(entries.get(key), &collected, self.merge.as_ref()));
                }
                SegView::Desc(next) if !is_leaf => {
                    collected.extend(next.msgs.for_key(key).map(|m| m.to_message()));
                    (addr, is_leaf, j) = (next.addr, next.is_leaf, next.boundaries.route(key));
                }
                _ => return Err(wrong_segment(is_leaf)),
            }
        }
    }

    /// Range scan below a descriptor: `boundaries` route its segments and
    /// `own` holds its pending messages already restricted to the query.
    #[allow(clippy::too_many_arguments)]
    fn range_rec<'b>(
        &mut self,
        addr: u64,
        is_leaf: bool,
        boundaries: impl Iterator<Item = &'b [u8]>,
        own: Vec<Message>,
        start: &[u8],
        end: &[u8],
        inherited: Vec<Message>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("optbetree.level"));
        let mut pending = buffer_merge(inherited, own).into_iter().peekable();
        // Segment j covers keys in [boundaries[j-1], boundaries[j]).
        let mut seg_lo: Option<&[u8]> = None;
        let mut uppers = boundaries.map(Some).chain(std::iter::once(None));
        for j in 0.. {
            let Some(seg_hi) = uppers.next() else { break };
            // The (key, seq)-sorted pending messages routed to segment j.
            let mut group = Vec::new();
            while let Some(m) = pending.next_if(|m| seg_hi.is_none_or(|h| m.key.as_slice() < h)) {
                group.push(m);
            }
            let overlaps = seg_lo.is_none_or(|l| l < end) && seg_hi.is_none_or(|h| h > start);
            seg_lo = seg_hi;
            if !overlaps {
                debug_assert!(group.is_empty());
                continue;
            }
            let page = self.read_seg_page(addr, j)?;
            match parse_seg(addr, j, &page)? {
                SegView::Subleaf(entries) if is_leaf => {
                    // Every pending message lies in [start, end), so the
                    // window alone is a virtual view of the subleaf
                    // restricted to the query.
                    let mut window: Vec<(Vec<u8>, Vec<u8>)> = entries
                        .range(start, end)
                        .map(|(k, v)| (k.to_vec(), v.to_vec()))
                        .collect();
                    apply_msgs_to_entries(&mut window, &group, self.merge.as_ref());
                    out.extend(window);
                }
                SegView::Desc(child) if !is_leaf => {
                    let own = child
                        .msgs
                        .iter()
                        .filter(|m| in_range(m.key, start, end))
                        .map(|m| m.to_message())
                        .collect();
                    self.range_rec(
                        child.addr,
                        child.is_leaf,
                        child.boundaries.iter(),
                        own,
                        start,
                        end,
                        group,
                        out,
                    )?;
                }
                _ => return Err(wrong_segment(is_leaf)),
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Drain / bulk load / invariants
    // ------------------------------------------------------------------

    /// Push every pending message down to the subleaves.
    pub fn drain_all(&mut self) -> Result<(), KvError> {
        let mut root = std::mem::replace(
            &mut self.root,
            ChildDesc {
                addr: 0,
                is_leaf: true,
                boundaries: Vec::new(),
                msgs: Vec::new(),
            },
        );
        let mut siblings = Vec::new();
        let result = self.drain_desc(&mut root, &mut siblings);
        self.root = root;
        // As in `enqueue`, committed splits must be adopted even when the
        // drain surfaced an error partway down.
        let grow = self.grow_root(siblings);
        result.and(grow)
    }

    /// Drain `desc` and its whole subtree. Splits produced anywhere along
    /// the way are pushed onto `out` (drained themselves on the success
    /// path, possibly undrained when an error is propagated — either way
    /// they are committed nodes the caller must adopt).
    fn drain_desc(
        &mut self,
        desc: &mut ChildDesc,
        out: &mut Vec<(Vec<u8>, ChildDesc)>,
    ) -> Result<(), KvError> {
        let mut committed = false;
        let mut sibs = Vec::new();
        if let Err(e) = self.flush_child(desc, &mut sibs, &mut committed) {
            out.extend(sibs);
            return Err(e);
        }
        if !desc.is_leaf {
            let mut segs = match self.read_whole(desc.addr, desc.used()) {
                Ok(s) => s,
                Err(e) => {
                    out.extend(sibs);
                    return Err(e);
                }
            };
            let mut j = 0usize;
            while j < segs.len() {
                let Seg::Desc(d) = &mut segs[j] else {
                    out.extend(sibs);
                    return Err(KvError::Corrupt("expected descriptor segment".into()));
                };
                let mut child_sibs = Vec::new();
                let child = self.drain_desc(d, &mut child_sibs);
                let k = child_sibs.len();
                for (off, (sep, nd)) in child_sibs.into_iter().enumerate() {
                    desc.boundaries.insert(j + off, sep);
                    segs.insert(j + 1 + off, Seg::Desc(nd));
                }
                if let Err(e) = child {
                    // The child may have rewritten itself; persist this
                    // node so its stored descriptors stay in sync.
                    let mut c = false;
                    let _ = self.persist_internal(desc, segs, out, &mut c);
                    out.extend(sibs);
                    return Err(e);
                }
                j += 1 + k;
            }
            let mut c = false;
            if let Err(e) = self.persist_internal(desc, segs, out, &mut c) {
                out.extend(sibs);
                return Err(e);
            }
        }
        // Siblings from a node split contain already-drained descs, but a
        // leaf split can leave buffered messages on new siblings' parents;
        // drain them too so `out` only carries fully drained descs.
        self.drain_siblings(sibs, out)
    }

    fn drain_siblings(
        &mut self,
        siblings: Vec<(Vec<u8>, ChildDesc)>,
        out: &mut Vec<(Vec<u8>, ChildDesc)>,
    ) -> Result<(), KvError> {
        for (sep, mut sd) in siblings {
            let mut more = Vec::new();
            let r = self.drain_desc(&mut sd, &mut more);
            out.push((sep, sd));
            out.extend(more);
            r?;
        }
        Ok(())
    }

    /// Build a tree bottom-up from strictly ascending pairs.
    pub fn bulk_load(
        device: SharedDevice,
        cfg: OptConfig,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<Self, KvError> {
        let bulk_fill = cfg.bulk_fill;
        let mut tree = OptBeTree::create(device, cfg)?;
        let target = (tree.seg_bytes as f64 * bulk_fill) as usize;

        // Pack entries into subleaf chunks.
        let mut chunks: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
        let mut cur: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut bytes = SUBLEAF_HEADER_BYTES;
        let mut count = 0u64;
        let mut last: Option<Vec<u8>> = None;
        for (k, v) in pairs {
            if let Some(prev) = &last {
                if *prev >= k {
                    return Err(KvError::Config(
                        "bulk_load input not strictly ascending".into(),
                    ));
                }
            }
            last = Some(k.clone());
            tree.entry_fits(&k, v.len())?;
            let sz = 8 + k.len() + v.len();
            if !cur.is_empty() && bytes + sz > target {
                chunks.push(std::mem::take(&mut cur));
                bytes = SUBLEAF_HEADER_BYTES;
            }
            bytes += sz;
            cur.push((k, v));
            count += 1;
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        if chunks.is_empty() {
            return Ok(tree);
        }

        // Leaf level: `fanout` subleaves per leaf node.
        let mut level: Vec<(Vec<u8>, ChildDesc)> = Vec::new();
        for group in chunks.chunks(tree.fanout.max(1)) {
            let first = group[0][0].0.clone();
            let boundaries: Vec<Vec<u8>> = group[1..].iter().map(|c| c[0].0.clone()).collect();
            let addr = if level.is_empty() {
                tree.root.addr
            } else {
                tree.alloc_node()?
            };
            let segs: Vec<Seg> = group.iter().map(|c| Seg::Subleaf(c.to_vec())).collect();
            tree.write_whole(addr, &segs)?;
            level.push((
                first,
                ChildDesc {
                    addr,
                    is_leaf: true,
                    boundaries,
                    msgs: Vec::new(),
                },
            ));
        }

        // Internal levels: `fanout` descriptors per node.
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Vec<(Vec<u8>, ChildDesc)> = Vec::new();
            let mut it = level.into_iter().peekable();
            while it.peek().is_some() {
                let group: Vec<_> = it.by_ref().take(tree.fanout.max(2)).collect();
                let first = group[0].0.clone();
                let boundaries: Vec<Vec<u8>> = group[1..].iter().map(|(k, _)| k.clone()).collect();
                let addr = tree.alloc_node()?;
                let segs: Vec<Seg> = group.into_iter().map(|(_, d)| Seg::Desc(d)).collect();
                tree.write_whole(addr, &segs)?;
                next.push((
                    first,
                    ChildDesc {
                        addr,
                        is_leaf: false,
                        boundaries,
                        msgs: Vec::new(),
                    },
                ));
            }
            level = next;
            height += 1;
        }

        let (_, root_desc) = level.pop().expect("nonempty level");
        tree.root = root_desc;
        tree.height = height;
        tree.count = count;
        tree.flush()?;
        Ok(tree)
    }

    /// Verify structural invariants; returns live entries at subleaves.
    pub fn check_invariants(&mut self) -> Result<u64, KvError> {
        let root = self.root.clone();
        let height = self.height;
        let n = self.check_desc(&root, height, None, None, true)?;
        if n != self.count {
            return Err(KvError::Corrupt(format!(
                "count mismatch: walked {n}, tracked {}",
                self.count
            )));
        }
        Ok(n)
    }

    fn check_desc(
        &mut self,
        desc: &ChildDesc,
        level: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        is_root: bool,
    ) -> Result<u64, KvError> {
        if !is_root && desc.size() > self.seg_bytes {
            return Err(KvError::Corrupt(format!(
                "descriptor for {} oversize",
                desc.addr
            )));
        }
        for w in desc.boundaries.windows(2) {
            if w[0] >= w[1] {
                return Err(KvError::Corrupt(format!(
                    "node {} boundaries unsorted",
                    desc.addr
                )));
            }
        }
        for w in desc.msgs.windows(2) {
            if (w[0].key.as_slice(), w[0].seq) >= (w[1].key.as_slice(), w[1].seq) {
                return Err(KvError::Corrupt(format!(
                    "node {} messages unsorted",
                    desc.addr
                )));
            }
        }
        for m in &desc.msgs {
            if lo.is_some_and(|l| m.key.as_slice() < l) || hi.is_some_and(|h| m.key.as_slice() >= h)
            {
                return Err(KvError::Corrupt(format!(
                    "node {} message out of range",
                    desc.addr
                )));
            }
        }
        if desc.is_leaf && level != 1 {
            return Err(KvError::Corrupt(format!(
                "leaf {} at level {level}",
                desc.addr
            )));
        }
        if !desc.is_leaf && level < 2 {
            return Err(KvError::Corrupt(format!(
                "internal {} at leaf level",
                desc.addr
            )));
        }
        let segs = self.read_whole(desc.addr, desc.used())?;
        let mut total = 0u64;
        for (j, seg) in segs.iter().enumerate() {
            let slo = if j == 0 {
                lo
            } else {
                Some(desc.boundaries[j - 1].as_slice())
            };
            let shi = if j == desc.boundaries.len() {
                hi
            } else {
                Some(desc.boundaries[j].as_slice())
            };
            match seg {
                Seg::Subleaf(entries) => {
                    if !desc.is_leaf {
                        return Err(KvError::Corrupt("subleaf under internal desc".into()));
                    }
                    for w in entries.windows(2) {
                        if w[0].0 >= w[1].0 {
                            return Err(KvError::Corrupt(format!(
                                "subleaf {}[{j}] unsorted",
                                desc.addr
                            )));
                        }
                    }
                    for (k, _) in entries {
                        if slo.is_some_and(|l| k.as_slice() < l)
                            || shi.is_some_and(|h| k.as_slice() >= h)
                        {
                            return Err(KvError::Corrupt(format!(
                                "subleaf {}[{j}] key out of range",
                                desc.addr
                            )));
                        }
                    }
                    total += entries.len() as u64;
                }
                Seg::Desc(d) => {
                    if desc.is_leaf {
                        return Err(KvError::Corrupt("descriptor under leaf desc".into()));
                    }
                    total += self.check_desc(d, level - 1, slo, shi, false)?;
                }
            }
        }
        Ok(total)
    }
}

impl PagedDict for OptBeTree {
    fn pager_and_obs(&mut self) -> (&mut Pager, Option<&Obs>) {
        (&mut self.pager, self.obs.as_ref())
    }
}

impl Dictionary for OptBeTree {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.enqueue(key, Operation::Put(value.to_vec())))
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.enqueue(key, Operation::Delete))
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // Batched writes all enter through the root message buffer under
        // one cost window (see `BeTree::apply_batch`); with Theorem-9 fat
        // nodes the buffer is larger still, so the amortization is deeper.
        self.in_op(|t| {
            batch.iter().try_for_each(|op| match op {
                BatchOp::Put { key, value } => t.enqueue(key, Operation::Put(value.clone())),
                BatchOp::Del { key } => t.enqueue(key, Operation::Delete),
            })
        })
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.in_op(|t| t.get_inner(key))
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        self.in_op(|t| {
            let mut out = Vec::new();
            if start < end {
                let root = t.root.clone();
                let own = root
                    .msgs
                    .iter()
                    .filter(|m| in_range(&m.key, start, end))
                    .cloned()
                    .collect();
                let boundaries = root.boundaries.iter().map(Vec::as_slice);
                t.range_rec(
                    root.addr,
                    root.is_leaf,
                    boundaries,
                    own,
                    start,
                    end,
                    Vec::new(),
                    &mut out,
                )?;
            }
            Ok(out)
        })
    }

    fn last_op_cost(&self) -> OpCost {
        self.pager.last_op_cost()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        // Durability contract: a successful sync leaves a superblock from
        // which `open` recovers this exact state (including root-buffered
        // messages, which ride in the superblock's root descriptor).
        self.in_op(Self::persist)
    }

    /// Exact live-key count; drains all pending messages first.
    fn len(&mut self) -> Result<u64, KvError> {
        self.in_op(|t| {
            t.drain_all()?;
            Ok(t.count)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::key_from_u64;
    use dam_kv::msg::CounterMerge;
    use dam_storage::{FaultInjector, FaultMode, RamDisk, SimDuration};

    fn tree(fanout: usize, seg_bytes: usize) -> OptBeTree {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        OptBeTree::create(dev, OptConfig::new(fanout, seg_bytes, 1 << 20)).unwrap()
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            key_from_u64(i).to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }

    #[test]
    fn internal_split_after_a_child_split_survives_a_write_fault() {
        // Regression: an internal node split forced by a child's committed
        // split returned on the first failed sibling write, leaving the
        // parent descriptor naming more segments than a node holds (the
        // next flush through it panicked slicing the node), and a split
        // left the node's undelivered messages in its left part, away from
        // their keys. Every insert here lets two IOs through and is then
        // redriven on a healthy device; the final state must match.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut t = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 16)).unwrap();
        let mut shadow = std::collections::BTreeMap::new();
        let mut failed = 0;
        for i in 0..300u64 {
            let k = key_from_u64(i * 7_919 % 100_003).to_vec();
            let v = vec![(i % 251) as u8; 50];
            switch.set(FaultMode::AfterIos(1));
            if t.insert(&k, &v).is_err() {
                failed += 1;
                switch.set(FaultMode::None);
                t.insert(&k, &v).unwrap();
            }
            shadow.insert(k, v);
        }
        switch.set(FaultMode::None);
        assert!(failed > 0, "no insert failed");
        let want: Vec<(Vec<u8>, Vec<u8>)> = shadow.into_iter().collect();
        assert_eq!(t.range(&[], &[0xFF; 17]).unwrap(), want);
    }

    #[test]
    fn surfaced_faults_never_lose_acked_updates() {
        // Regression (found by dam-check): a device fault surfaced during
        // a buffer flush used to drop buffered messages or leave a
        // descriptor out of sync with its node image — keys vanished and
        // stale values reappeared. Every mutation is retried until it
        // reports Ok; the final state must then match a shadow map
        // exactly, faults or not.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(200)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut t = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 16)).unwrap();
        switch.set(FaultMode::Probabilistic {
            num: 1,
            denom: 48,
            seed: 7,
        });
        let mut shadow: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
            std::collections::BTreeMap::new();
        let mut rng = 0x1234_5678u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for i in 0..4000u64 {
            let k = key_from_u64(next() % 700).to_vec();
            if next() % 10 < 7 {
                let v = format!("v{i:06}").into_bytes();
                let mut tries = 0;
                while let Err(e) = t.insert(&k, &v) {
                    tries += 1;
                    assert!(tries < 200, "insert never converged: {e}");
                }
                shadow.insert(k, v);
            } else {
                let mut tries = 0;
                while let Err(e) = t.delete(&k) {
                    tries += 1;
                    assert!(tries < 200, "delete never converged: {e}");
                }
                shadow.remove(&k);
            }
        }
        switch.set(FaultMode::None);
        let dump = t.range(&[], &[0xFF; 17]).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            shadow.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(dump, want);
        assert_eq!(t.len().unwrap(), shadow.len() as u64);
        t.check_invariants().unwrap();
    }

    #[test]
    fn empty_tree() {
        let mut t = tree(4, 512);
        assert_eq!(t.get(b"x").unwrap(), None);
        assert_eq!(t.len().unwrap(), 0);
        assert!(t.range(b"a", b"z").unwrap().is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree(4, 512);
        for i in 0..50 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in 0..50 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.get(&key_from_u64(50)).unwrap(), None);
    }

    #[test]
    fn insert_get_through_growth() {
        let mut t = tree(4, 512);
        for i in 0..3000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        assert!(t.height() >= 2, "height {}", t.height());
        t.check_invariants().unwrap();
        for i in (0..3000).step_by(41) {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.len().unwrap(), 3000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_order_inserts() {
        let mut t = tree(4, 512);
        let keys: Vec<u64> = (0..1500).map(|i| (i * 1543) % 1500).collect();
        for &i in &keys {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.check_invariants().unwrap();
        for &i in &keys {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v));
        }
        assert_eq!(t.len().unwrap(), 1500);
    }

    #[test]
    fn overwrite_latest_wins() {
        let mut t = tree(4, 512);
        let (k, _) = kv(9);
        for round in 0..200u32 {
            t.insert(&k, &round.to_le_bytes()).unwrap();
        }
        assert_eq!(t.get(&k).unwrap(), Some(199u32.to_le_bytes().to_vec()));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn tombstones_delete() {
        let mut t = tree(4, 512);
        for i in 0..800 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in (0..800).step_by(3) {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        for i in 0..800 {
            let (k, v) = kv(i);
            let expect = if i % 3 == 0 { None } else { Some(v) };
            assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn upserts_merge() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let mut cfg = OptConfig::new(4, 512, 1 << 20);
        cfg.merge = Box::new(CounterMerge);
        let mut t = OptBeTree::create(dev, cfg).unwrap();
        let (k, _) = kv(5);
        for _ in 0..50 {
            t.upsert(&k, &3u64.to_le_bytes()).unwrap();
        }
        let got = t.get(&k).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 150);
    }

    #[test]
    fn range_spans_buffers_and_subleaves() {
        let mut t = tree(4, 512);
        for i in 0..1000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        let out = t.range(&key_from_u64(200), &key_from_u64(260)).unwrap();
        assert_eq!(out.len(), 60);
        for (j, (k, v)) in out.iter().enumerate() {
            let (ek, ev) = kv(200 + j as u64);
            assert_eq!((k, v), (&ek, &ev), "at {j}");
        }
    }

    #[test]
    fn range_sees_fresh_tombstones() {
        let mut t = tree(4, 512);
        for i in 0..500 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.drain_all().unwrap();
        for i in 200..210 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        let out = t.range(&key_from_u64(195), &key_from_u64(215)).unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|(k, _)| dam_kv::key_to_u64(k).unwrap())
            .collect();
        assert_eq!(keys, vec![195, 196, 197, 198, 199, 210, 211, 212, 213, 214]);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..3000).map(kv).collect();
        let mut t =
            OptBeTree::bulk_load(dev, OptConfig::new(4, 512, 1 << 20), pairs.clone()).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 3000);
        for (k, v) in pairs.iter().step_by(113) {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        for i in 0..200 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        assert_eq!(t.len().unwrap(), 2800);
        t.check_invariants().unwrap();
    }

    #[test]
    fn query_reads_one_segment_per_level() {
        // The Theorem 9 property this whole variant exists for.
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..20_000).map(kv).collect();
        let mut t = OptBeTree::bulk_load(dev, OptConfig::new(8, 1024, 1 << 22), pairs).unwrap();
        t.drop_cache().unwrap();
        let (k, _) = kv(12_345);
        t.get(&k).unwrap();
        let cost = t.last_op_cost();
        assert_eq!(
            cost.ios as u32,
            t.height(),
            "cold query must read exactly one segment per level"
        );
        assert_eq!(
            cost.bytes_read,
            t.height() as u64 * t.seg_bytes() as u64,
            "each query IO is one segment, not a whole node"
        );
    }

    #[test]
    fn structural_ops_use_whole_node_ios() {
        let mut t = tree(4, 512);
        for i in 0..2000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.flush().unwrap();
        let c = t.pager().counters();
        // All writes are whole nodes.
        assert_eq!(c.bytes_written % t.node_bytes() as u64, 0);
        assert!(c.bytes_written > 0);
    }

    #[test]
    fn insert_amortization_beats_node_per_insert() {
        let mut t = tree(8, 1024);
        let n = 5000u64;
        for i in 0..n {
            let (k, v) = kv((i * 2654435761) % (1 << 30));
            t.insert(&k, &v).unwrap();
        }
        t.flush().unwrap();
        let per_insert = t.pager().counters().bytes_written as f64 / n as f64;
        assert!(
            per_insert < t.node_bytes() as f64 / 2.0,
            "bytes/insert {per_insert} vs node {}",
            t.node_bytes()
        );
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        assert!(matches!(
            OptBeTree::bulk_load(dev, OptConfig::new(4, 512, 1 << 20), vec![kv(2), kv(1)]),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree(4, 256);
        assert!(matches!(
            t.insert(b"k", &vec![0u8; 400]),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn balanced_config_shapes() {
        let cfg = OptConfig::balanced(1 << 20, 116, 1 << 20);
        // ~9039 entries → F ≈ 96, seg ≈ 5461.
        assert!((90..=100).contains(&cfg.fanout), "fanout {}", cfg.fanout);
        assert!(cfg.node_bytes() >= (1 << 20) - cfg.seg_bytes * 2);
    }

    #[test]
    fn persist_and_open_roundtrip() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        {
            let mut t = OptBeTree::create(dev.clone(), OptConfig::new(4, 512, 1 << 20)).unwrap();
            for i in 0..1200 {
                let (k, v) = kv(i);
                t.insert(&k, &v).unwrap();
            }
            for i in 0..100 {
                let (k, _) = kv(i * 2);
                t.delete(&k).unwrap();
            }
            // Deliberately persist with messages still buffered at the root:
            // the superblock must carry them.
            t.persist().unwrap();
        }
        let mut reopened = OptBeTree::open(dev, OptConfig::new(4, 512, 1 << 20)).unwrap();
        reopened.check_invariants().unwrap();
        assert_eq!(reopened.len().unwrap(), 1100);
        for i in 0..1200 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 && i < 200 { None } else { Some(v) };
            assert_eq!(reopened.get(&k).unwrap(), expect, "key {i}");
        }
        let (k, _) = kv(600);
        reopened.insert(&k, b"fresh").unwrap();
        assert_eq!(reopened.get(&k).unwrap(), Some(b"fresh".to_vec()));
    }

    #[test]
    fn open_blank_or_mismatched_errors() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        assert!(matches!(
            OptBeTree::open(dev.clone(), OptConfig::new(4, 512, 1 << 16)),
            Err(KvError::Corrupt(_))
        ));
        let mut t = OptBeTree::create(dev.clone(), OptConfig::new(4, 512, 1 << 16)).unwrap();
        let (k, v) = kv(1);
        t.insert(&k, &v).unwrap();
        t.persist().unwrap();
        drop(t);
        assert!(matches!(
            OptBeTree::open(dev, OptConfig::new(8, 512, 1 << 16)),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn drain_then_count_consistent() {
        let mut t = tree(4, 512);
        for i in 0..700 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in 0..100 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        assert_eq!(t.len().unwrap(), 600);
        t.check_invariants().unwrap();
        // Idempotent.
        assert_eq!(t.len().unwrap(), 600);
    }

    /// Regression (dam-check): `len` drains pending messages, so its IO
    /// must be attributed to `last_op_cost` — and a failed operation must
    /// report zero cost rather than the previous operation's numbers.
    #[test]
    fn len_and_failed_ops_follow_cost_contract() {
        let mut t = tree(4, 1024);
        for i in 0..800 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        // Cold cache: the drain inside `len` must hit the device.
        t.drop_cache().unwrap();
        assert_eq!(t.len().unwrap(), 800);
        assert!(t.last_op_cost().ios > 0, "len's drain should be attributed");
        let err = t.insert(b"big", &vec![0u8; 4096]);
        assert!(matches!(err, Err(KvError::Config(_))));
        assert_eq!(t.last_op_cost(), OpCost::default(), "failed op is free");
    }

    mod seg_view {
        //! Property tests: a borrowed [`SegView`] answers exactly what the
        //! owned segment decode answers, and a well-framed segment around
        //! a malformed payload is a `CodecError`, never a panic or data.

        use super::super::*;
        use dam_kv::codec::frame;
        use dam_stats::prop::*;

        fn key() -> impl Gen<Value = Vec<u8>> {
            vec(0u8..4, 0..4)
        }

        fn subleaf() -> impl Gen<Value = Seg> {
            btree_map(key(), vec(any::<u8>(), 0..12), 0..30)
                .prop_map(|m| Seg::Subleaf(m.into_iter().collect()))
        }

        fn desc() -> impl Gen<Value = Seg> {
            let op = prop_oneof![
                vec(any::<u8>(), 0..8).prop_map(Operation::Put),
                Just(Operation::Delete),
                vec(any::<u8>(), 0..8).prop_map(Operation::Upsert),
            ];
            (
                any::<u64>(),
                any::<bool>(),
                btree_set(key(), 0..10),
                vec((key(), any::<u16>(), op), 0..16),
            )
                .prop_map(|(addr, is_leaf, boundaries, raw)| {
                    let mut msgs: Vec<Message> = raw
                        .into_iter()
                        .map(|(key, seq, op)| Message {
                            seq: seq as u64,
                            key,
                            op,
                        })
                        .collect();
                    msgs.sort_by(|a, b| (&a.key, a.seq).cmp(&(&b.key, b.seq)));
                    Seg::Desc(ChildDesc {
                        addr,
                        is_leaf,
                        boundaries: boundaries.into_iter().collect(),
                        msgs,
                    })
                })
        }

        fn payload(seg: &Seg) -> Vec<u8> {
            let mut w = Writer::new();
            seg.encode_into(&mut w);
            w.into_bytes()
        }

        props! {
            cases = 256;

            #[test]
            fn view_equals_owned_decode(
                seg in prop_oneof![subleaf(), desc()],
                probes in vec((key(), key()), 1..20),
            ) {
                let img = frame_into_slot(&payload(&seg), seg.size() + 3);
                let owned = Seg::decode_from(&mut Reader::new(unframe(&img).unwrap()))
                    .unwrap()
                    .unwrap();
                prop_assert_eq!(&owned, &seg);
                let view = SegView::parse(&img).unwrap().unwrap();
                prop_assert_eq!(view.to_seg(), owned.clone());
                for (a, b) in &probes {
                    match (&owned, view) {
                        (Seg::Subleaf(entries), SegView::Subleaf(pairs)) => {
                            let want = entries
                                .binary_search_by(|(k, _)| k.as_slice().cmp(a))
                                .ok()
                                .map(|i| entries[i].1.as_slice());
                            prop_assert_eq!(pairs.get(a), want);
                            let want: Vec<(&[u8], &[u8])> = entries
                                .iter()
                                .filter(|(k, _)| in_range(k, a, b))
                                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                                .collect();
                            let got: Vec<(&[u8], &[u8])> = pairs.range(a, b).collect();
                            prop_assert_eq!(got, want);
                        }
                        (Seg::Desc(d), SegView::Desc(v)) => {
                            prop_assert_eq!(v.boundaries.route(a), d.route(a));
                            let want: Vec<Message> =
                                d.msgs.iter().filter(|m| &m.key == a).cloned().collect();
                            let got: Vec<Message> =
                                v.msgs.for_key(a).map(|m| m.to_message()).collect();
                            prop_assert_eq!(got, want);
                        }
                        _ => prop_assert!(false, "view and owned decode disagree on the kind"),
                    }
                }
            }

            #[test]
            fn malformed_payload_in_a_valid_frame_is_an_error(
                seg in prop_oneof![subleaf(), desc()],
                cut in any::<u64>(),
            ) {
                let p = payload(&seg);
                let truncated = frame(&p[..cut as usize % p.len()]);
                prop_assert!(SegView::parse(&truncated).is_err());
            }

            #[test]
            fn arbitrary_payload_never_panics(
                payload in vec(any::<u8>(), 0..96),
                tag in 0u8..4,
            ) {
                let mut p = payload;
                if !p.is_empty() {
                    p[0] = tag;
                }
                let img = frame(&p);
                let owned = Seg::decode_from(&mut Reader::new(&p));
                match SegView::parse(&img) {
                    Ok(view) => prop_assert_eq!(view.map(|v| v.to_seg()), owned.unwrap()),
                    Err(_) => prop_assert!(owned.is_err()),
                }
            }
        }
    }
}
