//! The two node layouts of the Bε engine ([`crate::tree::Engine`]).
//!
//! Theorem 9 changes only where things live on the device, so a layout
//! decides four things and the engine does everything else:
//!
//! * **where a node's pivots live** — in the node ([`WholeNode`]) or in the
//!   parent's segment for it ([`Segmented`], [`Layout::PIVOTS_IN_PARENT`]);
//! * **how a child buffer's budget is counted**, and so which child a
//!   flush relieves ([`Layout::pick`]) — the whole-node layout's buffers
//!   share the node's `B` bytes and the fullest one is flushed; each
//!   segmented buffer gets its own `B/2F` segment and every child over it
//!   is flushed, in key order;
//! * **how many leaf chunks share a node** ([`Layout::chunks_per_node`]) —
//!   one, or up to `F` subleaves;
//! * **what one read fetches** ([`Layout::read_for_query`]) — the whole
//!   node, or one segment.

use crate::node::{encode_internal, encode_leaf, internal_size, BeNodeView, BufferEdit, NodeId};
use crate::segment::{ChildDesc, SegView, TAG_SUBLEAF};
use dam_cache::{Page, Pager, Superblock, SuperblockIo};
use dam_kv::codec::{
    frame_into_slot, pairs_size, unframe, CodecError, Pair, Reader, Run, Writer, FRAME_OVERHEAD,
    LEAF_ENTRY_OVERHEAD, NODE_HEADER_BYTES,
};
use dam_kv::msg::{Message, MessageRef};
use dam_kv::KvError;

/// Sorted key-value pairs.
pub(crate) type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// A node decoded for modification, in either layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Routing keys: part `j` (a leaf chunk or a child) covers keys in
    /// `[pivots[j-1], pivots[j])`.
    pub pivots: Vec<Vec<u8>>,
    /// The parts.
    pub body: Body,
}

/// What a node holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Sorted runs of pairs, one per chunk (subleaf).
    Leaf(Vec<Entries>),
    /// One descriptor per child, carrying the messages buffered for it.
    Internal(Vec<ChildDesc>),
}

impl Node {
    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self.body, Body::Leaf(_))
    }
}

/// One part of a node read in place by a query: a leaf chunk, or a child
/// with the messages buffered for it.
#[derive(Debug, Clone, Copy)]
pub enum PartView<'a> {
    /// A chunk's sorted pairs.
    Pairs(Run<'a, Pair<'a>>),
    /// A child: where it is and what is buffered for it. `pivots` are the
    /// child's routing keys when the layout keeps them in the parent.
    Kid {
        /// The child's node slot.
        addr: u64,
        /// Whether the child is a leaf (meaningful when `pivots` is set).
        is_leaf: bool,
        /// The child's routing keys, if the parent holds them.
        pivots: Option<Run<'a, &'a [u8]>>,
        /// Messages buffered for the child's subtree.
        msgs: Run<'a, MessageRef<'a>>,
    },
}

/// Tree metadata kept in the superblock.
pub struct Meta {
    /// The root's descriptor.
    pub root: ChildDesc,
    /// Height in node levels (a lone leaf = 1).
    pub height: u32,
    /// Live keys at the leaves.
    pub count: u64,
    /// Next message sequence number.
    pub next_seq: u64,
}

fn corrupt(addr: u64, e: CodecError) -> KvError {
    KvError::Corrupt(format!("node {addr}: {e}"))
}

/// A node layout: the policy half of the engine (see the module docs).
pub trait Layout: Sized {
    /// The user-facing configuration.
    type Config;
    /// The superblock codec (magic, version, label).
    const SUPERBLOCK: Superblock;
    /// Span opened per level a query visits.
    const LEVEL_SPAN: &'static str;
    /// Span opened per buffer flush (and, in the whole-node layout, per
    /// node a drain visits).
    const DRAIN_SPAN: &'static str;
    /// Whether a node's pivots and kind live in its parent's descriptor.
    /// Then the root's descriptor, which has no parent, lives in memory
    /// and in the superblock, and buffers messages there until it exceeds
    /// its budget; a drain descends from descriptors without reading a
    /// leaf. Otherwise every message goes straight into the root node, and
    /// a drain reads each node to see its children.
    const PIVOTS_IN_PARENT: bool;
    /// Whether `bulk_load` writes the first leaf into the empty root's
    /// slot, or into a fresh slot, freeing the empty root once the tree is
    /// built. Either way the tree is laid out in key order; the choice only
    /// shifts every address by one slot.
    const BULK_REUSES_ROOT: bool;
    /// Fill fraction of a bulk-loaded leaf chunk.
    const BULK_FILL: f64;

    /// Check `cfg` and split it into the layout's shape and the
    /// buffer-pool budget in bytes.
    fn from_config(cfg: Self::Config) -> Result<(Self, u64), KvError>;
    /// Node slot size in bytes.
    fn node_bytes(&self) -> usize;
    /// Bytes reserved at device offset 0 for the superblock.
    fn superblock_bytes(&self) -> u64;
    /// Target fanout `F`: the arity of split and bulk-loaded internal
    /// nodes.
    fn fanout(&self) -> usize;
    /// Byte budget of one leaf chunk.
    fn chunk_bytes(&self) -> usize;
    /// Leaf chunks per node when leaves are repacked or bulk loaded.
    fn chunks_per_node(&self) -> usize;
    /// Refuse an entry that could not fit a leaf chunk or a buffer.
    fn entry_fits(&self, key: &[u8], payload: usize) -> Result<(), KvError>;

    /// Read the node `desc` describes, for decoding (one whole-node IO).
    fn fetch(&self, pager: &mut Pager, desc: &ChildDesc) -> Result<Page, KvError>;
    /// Decode a node read by [`Layout::fetch`].
    fn decode(&self, page: &Page, desc: &ChildDesc) -> Result<Node, KvError>;
    /// The edit that adds `msg` to node `page` in place, if the layout can
    /// edit an image and the node then needs no flush or split. The edited
    /// image is the one [`Layout::write`] would write for the decoded node
    /// with the message delivered.
    fn absorb(
        &self,
        _page: &Page,
        _addr: u64,
        _msg: &Message,
    ) -> Result<Option<BufferEdit>, KvError> {
        Ok(None)
    }
    /// Write `node` to `desc.addr` (the image lands in the cache even when
    /// the write surfaces a device fault). A layout that keeps pivots in
    /// the parent stores `node`'s pivots in `desc`.
    fn write(&self, pager: &mut Pager, desc: &mut ChildDesc, node: &Node) -> Result<(), KvError>;

    /// Whether `node` can be written as it is.
    fn fits(&self, node: &Node) -> bool;
    /// Whether the buffer in `desc` must be flushed into its node.
    fn over_budget(&self, desc: &ChildDesc) -> bool;
    /// The next child of internal `node` to relieve, at or after `from`
    /// where the layout walks in key order; when `draining`, the next
    /// child the layout flushes before descending.
    fn pick(&self, node: &Node, from: usize, draining: bool) -> Option<usize>;
    /// The bytes child `i` of internal `node` takes in it, for grouping a
    /// split.
    fn kid_bytes(&self, node: &Node, i: usize) -> usize;
    /// Check what a parent's descriptor claims about its child.
    fn check_desc(&self, _desc: &ChildDesc, _is_root: bool) -> Result<(), KvError> {
        Ok(())
    }

    /// What one query read fetches at `addr`: the whole node, or segment
    /// `seg`.
    fn read_for_query(&self, pager: &mut Pager, addr: u64, seg: usize) -> Result<Page, KvError>;
    /// The part of a page read by [`Layout::read_for_query`] that routes
    /// `key` (a segment is one part).
    fn part_for_key<'p>(
        &self,
        page: &'p Page,
        addr: u64,
        seg: usize,
        expect_leaf: bool,
        key: &[u8],
    ) -> Result<PartView<'p>, KvError>;
    /// The pivots and parts of a page read by [`Layout::read_for_query`]
    /// (one part, and no pivots, for a segment).
    #[allow(clippy::type_complexity)]
    fn parts<'p>(
        &self,
        page: &'p Page,
        addr: u64,
        seg: usize,
        expect_leaf: bool,
    ) -> Result<
        (
            impl Iterator<Item = &'p [u8]> + use<'p, Self>,
            impl Iterator<Item = PartView<'p>> + use<'p, Self>,
        ),
        KvError,
    >;

    /// Encode tree metadata into the superblock.
    fn put_meta(&self, w: &mut Writer, root: &ChildDesc, height: u32, count: u64, next_seq: u64);
    /// Decode tree metadata, checking that the stored shape is this one.
    fn get_meta(&self, r: &mut Reader<'_>) -> Result<Meta, KvError>;
}

// ----------------------------------------------------------------------
// Whole-node layout
// ----------------------------------------------------------------------

/// Standard Bε-tree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeTreeConfig {
    /// Node (and IO) size in bytes — the `B` of §6.
    pub node_bytes: usize,
    /// Target fanout `F` (`= B^ε` entries). TokuDB targets ~16; the `F = √B`
    /// family is the paper's running example.
    pub fanout: usize,
    /// Buffer-pool budget in bytes.
    pub cache_bytes: u64,
}

impl BeTreeConfig {
    /// Config with explicit fanout.
    pub fn new(node_bytes: usize, fanout: usize, cache_bytes: u64) -> Self {
        BeTreeConfig {
            node_bytes,
            fanout,
            cache_bytes,
        }
    }

    /// The `ε = 1/2` configuration: `F = √(node_bytes / approx_entry_bytes)`.
    pub fn sqrt_fanout(node_bytes: usize, approx_entry_bytes: usize, cache_bytes: u64) -> Self {
        let entries = (node_bytes / approx_entry_bytes.max(1)).max(4);
        Self::new(
            node_bytes,
            (entries as f64).sqrt().ceil() as usize,
            cache_bytes,
        )
    }
}

/// The standard layout: a node is one image of `B` bytes holding its
/// pivots, its children and one message buffer per child, read and written
/// whole. This is the structure Figure 3's analysis (Lemma 8) prices: query
/// cost `(1 + αB)·log_F(N/M)`.
#[derive(Debug, Clone, Copy)]
pub struct WholeNode {
    node_bytes: usize,
    fanout: usize,
    max_fanout: usize,
}

impl WholeNode {
    fn size(node: &Node) -> usize {
        match &node.body {
            Body::Leaf(chunks) => chunks.iter().map(|c| pairs_size(c)).sum(),
            Body::Internal(kids) => {
                internal_size(&node.pivots, kids.iter().map(|k| k.msgs.as_slice()))
            }
        }
    }

    fn buffered(kid: &ChildDesc) -> usize {
        kid.msgs.iter().map(Message::footprint).sum()
    }
}

impl Layout for WholeNode {
    type Config = BeTreeConfig;
    const SUPERBLOCK: Superblock = Superblock {
        magic: 0x4441_4D45, // "DAME"
        version: 1,
        label: "Be-tree superblock",
        io: SuperblockIo::Slot,
    };
    const LEVEL_SPAN: &'static str = "betree.level";
    const DRAIN_SPAN: &'static str = "betree.drain";
    const PIVOTS_IN_PARENT: bool = false;
    const BULK_REUSES_ROOT: bool = false;
    const BULK_FILL: f64 = 0.85;

    fn from_config(cfg: BeTreeConfig) -> Result<(Self, u64), KvError> {
        if cfg.node_bytes < NODE_HEADER_BYTES + 128 {
            return Err(KvError::Config(format!(
                "node_bytes {} too small",
                cfg.node_bytes
            )));
        }
        if cfg.fanout < 2 {
            return Err(KvError::Config("fanout must be at least 2".into()));
        }
        let layout = WholeNode {
            node_bytes: cfg.node_bytes,
            fanout: cfg.fanout,
            max_fanout: (2 * cfg.fanout).max(4),
        };
        Ok((layout, cfg.cache_bytes))
    }

    fn node_bytes(&self) -> usize {
        self.node_bytes
    }

    fn superblock_bytes(&self) -> u64 {
        4096
    }

    fn fanout(&self) -> usize {
        self.fanout
    }

    fn chunk_bytes(&self) -> usize {
        self.node_bytes
    }

    fn chunks_per_node(&self) -> usize {
        1
    }

    fn entry_fits(&self, key: &[u8], payload: usize) -> Result<(), KvError> {
        let need = NODE_HEADER_BYTES + LEAF_ENTRY_OVERHEAD + key.len() + payload;
        let msg_need = NODE_HEADER_BYTES + 8 + 4 + key.len() + payload + 17;
        if need.max(msg_need) > self.node_bytes {
            return Err(KvError::Config(format!(
                "entry of key {} + payload {} bytes cannot fit in node_bytes {}",
                key.len(),
                payload,
                self.node_bytes
            )));
        }
        Ok(())
    }

    /// The node image, its frame checksum checked once: when the bytes come
    /// off the device, not on every cache hit.
    fn fetch(&self, pager: &mut Pager, desc: &ChildDesc) -> Result<Page, KvError> {
        self.read_for_query(pager, desc.addr, 0)
    }

    fn decode(&self, page: &Page, desc: &ChildDesc) -> Result<Node, KvError> {
        Ok(
            match BeNodeView::parse(page).map_err(|e| corrupt(desc.addr, e))? {
                BeNodeView::Leaf(entries) => Node {
                    pivots: Vec::new(),
                    body: Body::Leaf(vec![entries.to_vec()]),
                },
                BeNodeView::Internal {
                    pivots,
                    children,
                    buffers,
                } => Node {
                    pivots: pivots.to_vec(),
                    body: Body::Internal(
                        buffers
                            .iter()
                            .enumerate()
                            .map(|(i, b)| ChildDesc {
                                msgs: b.to_vec(),
                                ..ChildDesc::new(BeNodeView::child(children, i), false)
                            })
                            .collect(),
                    ),
                },
            },
        )
    }

    /// The common write: an internal node absorbs one message with no
    /// flush or split, so it is spliced into the cached image.
    fn absorb(&self, page: &Page, addr: u64, msg: &Message) -> Result<Option<BufferEdit>, KvError> {
        let view = BeNodeView::parse(page).map_err(|e| corrupt(addr, e))?;
        if let BeNodeView::Leaf(_) = view {
            return Ok(None);
        }
        let edit = BufferEdit::new(page, view, msg).map_err(|e| corrupt(addr, e))?;
        Ok(edit.fits(self.node_bytes, self.max_fanout).then_some(edit))
    }

    fn write(&self, pager: &mut Pager, desc: &mut ChildDesc, node: &Node) -> Result<(), KvError> {
        let size = Self::size(node);
        if size > self.node_bytes {
            return Err(KvError::Config(format!(
                "node image {size} exceeds node_bytes {}",
                self.node_bytes
            )));
        }
        let image = match &node.body {
            Body::Leaf(chunks) => encode_leaf(&chunks[0], self.node_bytes),
            Body::Internal(kids) => encode_internal(
                &node.pivots,
                kids.iter().map(|k| (k.addr as NodeId, k.msgs.as_slice())),
                self.node_bytes,
            ),
        };
        pager.write(desc.addr, image).map_err(KvError::from)
    }

    fn fits(&self, node: &Node) -> bool {
        Self::size(node) <= self.node_bytes
            && match &node.body {
                Body::Leaf(chunks) => chunks.len() == 1,
                Body::Internal(kids) => kids.len() <= self.max_fanout,
            }
    }

    fn over_budget(&self, desc: &ChildDesc) -> bool {
        !desc.msgs.is_empty()
    }

    /// While the node is over `B` with messages to move, the child with
    /// the most buffered bytes (§3: "typically v is chosen to be the child
    /// with the most pending messages"); when draining, every buffered
    /// child in key order.
    fn pick(&self, node: &Node, from: usize, draining: bool) -> Option<usize> {
        let Body::Internal(kids) = &node.body else {
            return None;
        };
        if draining {
            return (from..kids.len()).find(|&i| !kids[i].msgs.is_empty());
        }
        if self.fits(node) || kids.len() > self.max_fanout {
            return None;
        }
        let (i, fullest) = kids
            .iter()
            .enumerate()
            .max_by_key(|(_, k)| Self::buffered(k))?;
        (Self::buffered(fullest) > 0).then_some(i)
    }

    fn kid_bytes(&self, node: &Node, i: usize) -> usize {
        let Body::Internal(kids) = &node.body else {
            return 0;
        };
        8 + Self::buffered(&kids[i])
            + if i > 0 {
                4 + node.pivots[i - 1].len()
            } else {
                0
            }
    }

    fn read_for_query(&self, pager: &mut Pager, addr: u64, _seg: usize) -> Result<Page, KvError> {
        let page = pager.read(addr, self.node_bytes)?;
        pager
            .check_once(&page, |b| unframe(b).map(drop))
            .map_err(|e| corrupt(addr, e))?;
        Ok(page)
    }

    fn part_for_key<'p>(
        &self,
        page: &'p Page,
        addr: u64,
        _seg: usize,
        _expect_leaf: bool,
        key: &[u8],
    ) -> Result<PartView<'p>, KvError> {
        Ok(
            match BeNodeView::parse(page).map_err(|e| corrupt(addr, e))? {
                BeNodeView::Leaf(entries) => PartView::Pairs(entries),
                BeNodeView::Internal {
                    pivots,
                    children,
                    buffers,
                } => {
                    let i = pivots.route(key);
                    let msgs = buffers.iter().nth(i).ok_or_else(|| {
                        corrupt(addr, CodecError::Invalid("missing message buffer"))
                    })?;
                    PartView::Kid {
                        addr: BeNodeView::child(children, i),
                        is_leaf: false,
                        pivots: None,
                        msgs,
                    }
                }
            },
        )
    }

    #[allow(clippy::type_complexity)]
    fn parts<'p>(
        &self,
        page: &'p Page,
        addr: u64,
        _seg: usize,
        _expect_leaf: bool,
    ) -> Result<
        (
            impl Iterator<Item = &'p [u8]> + use<'p>,
            impl Iterator<Item = PartView<'p>> + use<'p>,
        ),
        KvError,
    > {
        let (leaf, pivots, kids) = match BeNodeView::parse(page).map_err(|e| corrupt(addr, e))? {
            BeNodeView::Leaf(entries) => (Some(PartView::Pairs(entries)), None, None),
            BeNodeView::Internal {
                pivots,
                children,
                buffers,
            } => {
                let kids = buffers
                    .iter()
                    .enumerate()
                    .map(move |(i, msgs)| PartView::Kid {
                        addr: BeNodeView::child(children, i),
                        is_leaf: false,
                        pivots: None,
                        msgs,
                    });
                (None, Some(pivots.iter()), Some(kids))
            }
        };
        Ok((
            pivots.into_iter().flatten(),
            leaf.into_iter().chain(kids.into_iter().flatten()),
        ))
    }

    fn put_meta(&self, w: &mut Writer, root: &ChildDesc, height: u32, count: u64, next_seq: u64) {
        w.put_u64(root.addr);
        w.put_u32(height);
        w.put_u64(count);
        w.put_u64(next_seq);
        w.put_u64(self.node_bytes as u64);
        w.put_u32(self.max_fanout as u32);
    }

    fn get_meta(&self, r: &mut Reader<'_>) -> Result<Meta, KvError> {
        let (root, height, count, next_seq) =
            (r.get_u64()?, r.get_u32()?, r.get_u64()?, r.get_u64()?);
        let node_bytes = r.get_u64()?;
        let stored_fanout = r.get_u32()? as usize;
        if node_bytes != self.node_bytes as u64 || stored_fanout != self.max_fanout {
            return Err(KvError::Config(format!(
                "shape mismatch: device has node_bytes={node_bytes}/max_fanout={stored_fanout}, \
                 config says node_bytes={}/max_fanout={}",
                self.node_bytes, self.max_fanout
            )));
        }
        Ok(Meta {
            root: ChildDesc::new(root, height == 1),
            height,
            count,
            next_seq,
        })
    }
}

// ----------------------------------------------------------------------
// Segmented layout (Theorem 9)
// ----------------------------------------------------------------------

/// Configuration of the Theorem-9 tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Target fanout `F`. Nodes hold up to `2F` segments.
    pub fanout: usize,
    /// Segment size in bytes (≈ `B / 2F`). Queries read one segment per
    /// level.
    pub seg_bytes: usize,
    /// Buffer-pool budget in bytes.
    pub cache_bytes: u64,
}

impl OptConfig {
    /// Explicit configuration.
    pub fn new(fanout: usize, seg_bytes: usize, cache_bytes: u64) -> Self {
        OptConfig {
            fanout,
            seg_bytes,
            cache_bytes,
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

/// The Theorem-9 layout: a node is a slot of `2F` contiguous segments of
/// `B/2F` bytes, each its own checksummed frame (see [`crate::segment`]).
/// Segment `j` of an internal node is child `j`'s descriptor — its address,
/// its pivots and the messages buffered for it — and segment `j` of a leaf
/// is a subleaf. A query reads one segment per level, an IO of `B/2F`
/// bytes; flushes and splits read and write whole nodes, one IO of `B`
/// bytes amortized over the `Θ(B/F)` message bytes moved.
#[derive(Debug, Clone, Copy)]
pub struct Segmented {
    fanout: usize,
    seg_bytes: usize,
    cap: usize,
    superblock_bytes: u64,
}

impl Segmented {
    /// Segment size (the query IO unit).
    pub fn seg_bytes(&self) -> usize {
        self.seg_bytes
    }

    fn seg_corrupt(addr: u64, j: usize, e: CodecError) -> KvError {
        KvError::Corrupt(format!("node {addr} seg {j}: {e}"))
    }
}

impl Layout for Segmented {
    type Config = OptConfig;
    const SUPERBLOCK: Superblock = Superblock {
        magic: 0x4441_4D4F, // "DAMO"
        version: 1,
        label: "optimized Be-tree superblock",
        io: SuperblockIo::Slot,
    };
    const LEVEL_SPAN: &'static str = "optbetree.level";
    const DRAIN_SPAN: &'static str = "optbetree.drain";
    const PIVOTS_IN_PARENT: bool = true;
    const BULK_REUSES_ROOT: bool = true;
    const BULK_FILL: f64 = 0.8;

    fn from_config(cfg: OptConfig) -> Result<(Self, u64), KvError> {
        if cfg.fanout < 2 {
            return Err(KvError::Config("fanout must be at least 2".into()));
        }
        if cfg.seg_bytes < 64 {
            return Err(KvError::Config(format!(
                "seg_bytes {} too small",
                cfg.seg_bytes
            )));
        }
        let layout = Segmented {
            fanout: cfg.fanout,
            seg_bytes: cfg.seg_bytes,
            cap: cfg.cap(),
            superblock_bytes: cfg.superblock_bytes(),
        };
        Ok((layout, cfg.cache_bytes))
    }

    fn node_bytes(&self) -> usize {
        self.cap * self.seg_bytes
    }

    fn superblock_bytes(&self) -> u64 {
        self.superblock_bytes
    }

    fn fanout(&self) -> usize {
        self.fanout
    }

    fn chunk_bytes(&self) -> usize {
        self.seg_bytes
    }

    fn chunks_per_node(&self) -> usize {
        self.fanout
    }

    fn entry_fits(&self, key: &[u8], payload: usize) -> Result<(), KvError> {
        let entry = NODE_HEADER_BYTES + LEAF_ENTRY_OVERHEAD + key.len() + payload;
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

    fn fetch(&self, pager: &mut Pager, desc: &ChildDesc) -> Result<Page, KvError> {
        Ok(pager.read(desc.addr, self.node_bytes())?)
    }

    /// Each of the `used` segments' frames is checked unless the pager has
    /// verified the image; a node read from the device is not marked
    /// verified here, because the check covers only the used segments, not
    /// every slot of the image.
    fn decode(&self, page: &Page, desc: &ChildDesc) -> Result<Node, KvError> {
        let (addr, used) = (desc.addr, desc.used());
        if used > self.cap {
            return Err(KvError::Corrupt(format!(
                "node {addr}: {used} segments exceed capacity {}",
                self.cap
            )));
        }
        let mut chunks = Vec::new();
        let mut kids = Vec::new();
        for j in 0..used {
            let slice = &page[j * self.seg_bytes..(j + 1) * self.seg_bytes];
            if !page.is_verified() {
                unframe(slice).map_err(|e| Self::seg_corrupt(addr, j, e))?;
            }
            match SegView::parse(slice).map_err(|e| Self::seg_corrupt(addr, j, e))? {
                Some(SegView::Subleaf(entries)) if desc.is_leaf => chunks.push(entries.to_vec()),
                Some(SegView::Desc(d)) if !desc.is_leaf => kids.push(d.to_desc()),
                Some(_) => {
                    return Err(KvError::Corrupt(format!(
                        "node {addr} seg {j}: segment kind disagrees with its descriptor"
                    )))
                }
                None => {
                    return Err(KvError::Corrupt(format!(
                        "node {addr}: expected {used} segments, found {j}"
                    )))
                }
            }
        }
        Ok(Node {
            pivots: desc.boundaries.clone(),
            body: if desc.is_leaf {
                Body::Leaf(chunks)
            } else {
                Body::Internal(kids)
            },
        })
    }

    fn write(&self, pager: &mut Pager, desc: &mut ChildDesc, node: &Node) -> Result<(), KvError> {
        let parts = match &node.body {
            Body::Leaf(chunks) => chunks.len(),
            Body::Internal(kids) => kids.len(),
        };
        if parts > self.cap {
            return Err(KvError::Config(format!(
                "{parts} segments exceed node capacity {}",
                self.cap
            )));
        }
        let mut image = Vec::with_capacity(self.node_bytes());
        for j in 0..parts {
            let mut w = Writer::with_capacity(self.seg_bytes - FRAME_OVERHEAD);
            let size = match &node.body {
                Body::Leaf(chunks) => {
                    w.put_pairs(TAG_SUBLEAF, &chunks[j]);
                    pairs_size(&chunks[j])
                }
                Body::Internal(kids) => {
                    kids[j].encode_into(&mut w);
                    kids[j].size()
                }
            };
            if size > self.seg_bytes {
                return Err(KvError::Config(format!(
                    "segment of {size} bytes exceeds seg_bytes {}",
                    self.seg_bytes
                )));
            }
            // Each segment gets its own checksummed frame so partial-node
            // (single-segment) reads can still be validated.
            image.extend_from_slice(&frame_into_slot(&w.into_bytes(), self.seg_bytes));
        }
        image.resize(self.node_bytes(), 0);
        desc.boundaries.clone_from(&node.pivots);
        pager.write(desc.addr, image).map_err(KvError::from)
    }

    fn fits(&self, node: &Node) -> bool {
        match &node.body {
            Body::Leaf(chunks) => {
                chunks.len() <= self.cap && chunks.iter().all(|c| pairs_size(c) <= self.seg_bytes)
            }
            Body::Internal(kids) => kids.len() <= self.cap,
        }
    }

    fn over_budget(&self, desc: &ChildDesc) -> bool {
        desc.size() > self.seg_bytes
    }

    /// The next child whose descriptor outgrew its segment; a segmented
    /// drain flushes nothing before descending.
    fn pick(&self, node: &Node, from: usize, draining: bool) -> Option<usize> {
        let Body::Internal(kids) = &node.body else {
            return None;
        };
        if draining {
            return None;
        }
        (from..kids.len()).find(|&i| self.over_budget(&kids[i]))
    }

    fn kid_bytes(&self, _node: &Node, _i: usize) -> usize {
        self.seg_bytes
    }

    fn check_desc(&self, desc: &ChildDesc, is_root: bool) -> Result<(), KvError> {
        if !is_root && self.over_budget(desc) {
            return Err(KvError::Corrupt(format!(
                "descriptor for {} oversize",
                desc.addr
            )));
        }
        Ok(())
    }

    /// Segment `seg` of the node (one small IO, or a hit), its frame
    /// checksum checked once.
    fn read_for_query(&self, pager: &mut Pager, addr: u64, seg: usize) -> Result<Page, KvError> {
        let page = pager.read_within(
            addr,
            self.node_bytes(),
            seg * self.seg_bytes,
            self.seg_bytes,
        )?;
        pager
            .check_once(&page, |b| unframe(b).map(drop))
            .map_err(|e| Self::seg_corrupt(addr, seg, e))?;
        Ok(page)
    }

    fn part_for_key<'p>(
        &self,
        page: &'p Page,
        addr: u64,
        seg: usize,
        expect_leaf: bool,
        _key: &[u8],
    ) -> Result<PartView<'p>, KvError> {
        Ok(match SegView::parse(page) {
            Ok(Some(SegView::Subleaf(entries))) if expect_leaf => PartView::Pairs(entries),
            Ok(Some(SegView::Desc(d))) if !expect_leaf => PartView::Kid {
                addr: d.addr,
                is_leaf: d.is_leaf,
                pivots: Some(d.boundaries),
                msgs: d.msgs,
            },
            Ok(Some(_)) => {
                return Err(KvError::Corrupt(if expect_leaf {
                    "expected subleaf".into()
                } else {
                    "expected descriptor segment".into()
                }))
            }
            Ok(None) => {
                return Err(KvError::Corrupt(format!(
                    "node {addr}: segment {seg} empty"
                )))
            }
            Err(e) => return Err(Self::seg_corrupt(addr, seg, e)),
        })
    }

    #[allow(clippy::type_complexity)]
    fn parts<'p>(
        &self,
        page: &'p Page,
        addr: u64,
        seg: usize,
        expect_leaf: bool,
    ) -> Result<
        (
            impl Iterator<Item = &'p [u8]> + use<'p>,
            impl Iterator<Item = PartView<'p>> + use<'p>,
        ),
        KvError,
    > {
        let part = self.part_for_key(page, addr, seg, expect_leaf, &[])?;
        Ok((std::iter::empty(), std::iter::once(part)))
    }

    fn put_meta(&self, w: &mut Writer, root: &ChildDesc, height: u32, count: u64, next_seq: u64) {
        w.put_u32(self.fanout as u32);
        w.put_u64(self.seg_bytes as u64);
        w.put_u32(height);
        w.put_u64(count);
        w.put_u64(next_seq);
        // The root descriptor reuses the segment encoding.
        root.encode_into(w);
    }

    fn get_meta(&self, r: &mut Reader<'_>) -> Result<Meta, KvError> {
        let fanout = r.get_u32()? as usize;
        let seg_bytes = r.get_u64()? as usize;
        if fanout != self.fanout || seg_bytes != self.seg_bytes {
            return Err(KvError::Config(format!(
                "shape mismatch: device has F={fanout}/seg={seg_bytes}, config says F={}/seg={}",
                self.fanout, self.seg_bytes
            )));
        }
        let (height, count, next_seq) = (r.get_u32()?, r.get_u64()?, r.get_u64()?);
        let root = ChildDesc::decode_from(r)
            .map_err(|_| KvError::Corrupt("missing root descriptor".into()))?;
        Ok(Meta {
            root,
            height,
            count,
            next_seq,
        })
    }
}
