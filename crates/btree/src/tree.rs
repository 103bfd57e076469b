//! The B-tree proper: descent, split, merge/borrow, range scans, bulk load,
//! and per-operation cost accounting.

use crate::node::{LeafEdit, Node, NodeId, NodeView};
use dam_cache::{Page, Pager, Superblock, SuperblockIo};
use dam_kv::codec::{pair_size, unframe, CodecError, Pair, Run, NODE_HEADER_BYTES};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedDict};
use dam_storage::SharedDevice;

/// Bytes reserved at device offset 0 for the superblock.
pub const SUPERBLOCK_BYTES: u64 = 4096;
/// Fill fraction of a bulk-loaded node.
const BULK_FILL: f64 = 0.9;
const SUPERBLOCK: Superblock = Superblock {
    magic: 0x4441_4D42, // "DAMB"
    version: 1,
    label: "B-tree superblock",
    io: SuperblockIo::Slot,
};

/// B-tree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Node (and IO) size in bytes — the `B` the paper tunes.
    pub node_bytes: usize,
    /// Buffer-pool budget in bytes — the `M` of the DAM hierarchy.
    pub cache_bytes: u64,
}

impl BTreeConfig {
    /// Config with the given node size and cache.
    pub fn new(node_bytes: usize, cache_bytes: u64) -> Self {
        BTreeConfig {
            node_bytes,
            cache_bytes,
        }
    }
}

fn corrupt_node(id: NodeId, e: CodecError) -> KvError {
    KvError::Corrupt(format!("node {id}: {e}"))
}

/// View a page read by [`BTree::read_page`].
fn parse_node(id: NodeId, page: &Page) -> Result<NodeView<'_>, KvError> {
    NodeView::parse(page).map_err(|e| corrupt_node(id, e))
}

/// An on-disk B-tree (see crate docs).
pub struct BTree {
    pager: Pager,
    cfg: BTreeConfig,
    root: NodeId,
    /// Levels including the leaf level; an empty tree has height 1.
    height: u32,
    count: u64,
    /// A write fault that surfaced mid-operation; the write itself landed
    /// in the cache, so the operation went on and reports it at the end.
    deferred: Option<KvError>,
    obs: Option<Obs>,
}

impl BTree {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: BTreeConfig) -> Result<Self, KvError> {
        if cfg.node_bytes < NODE_HEADER_BYTES + 64 {
            return Err(KvError::Config(format!(
                "node_bytes {} too small to hold any entry",
                cfg.node_bytes
            )));
        }
        let mut pager = Pager::try_new(device, cfg.cache_bytes, SUPERBLOCK_BYTES)?;
        let root = pager.alloc(cfg.node_bytes as u64)?;
        let mut tree = BTree {
            pager,
            cfg,
            root,
            height: 1,
            count: 0,
            deferred: None,
            obs: None,
        };
        tree.write_node(root, &Node::empty_leaf())?;
        Ok(tree)
    }

    /// Checkpoint the tree: flush all dirty nodes, then durably write a
    /// superblock (root pointer, height, count, allocator state) at device
    /// offset 0. After `persist`, [`BTree::open`] on the same device
    /// reconstructs the tree.
    pub fn persist(&mut self) -> Result<(), KvError> {
        self.flush()?;
        SUPERBLOCK.write(&mut self.pager, |w| {
            w.put_u64(self.root);
            w.put_u32(self.height);
            w.put_u64(self.count);
            w.put_u64(self.cfg.node_bytes as u64);
        })
    }

    /// Reopen a tree previously [`BTree::persist`]ed on `device`.
    pub fn open(device: SharedDevice, cfg: BTreeConfig) -> Result<Self, KvError> {
        let mut pager = Pager::try_new(device, cfg.cache_bytes, SUPERBLOCK_BYTES)?;
        let (root, height, count) = SUPERBLOCK.read(&mut pager, |r| {
            let fields = (r.get_u64()?, r.get_u32()?, r.get_u64()?);
            let node_bytes = r.get_u64()?;
            if node_bytes != cfg.node_bytes as u64 {
                return Err(KvError::Config(format!(
                    "node_bytes mismatch: device has {node_bytes}, config says {}",
                    cfg.node_bytes
                )));
            }
            Ok(fields)
        })?;
        Ok(BTree {
            pager,
            cfg,
            root,
            height,
            count,
            deferred: None,
            obs: None,
        })
    }

    /// Attach an observability registry: each node visit during descent
    /// opens a `btree.level` span (so per-level IO attribution works) and
    /// every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The node size in use.
    pub fn node_bytes(&self) -> usize {
        self.cfg.node_bytes
    }

    /// Tree height in levels (leaves = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pager (for counters, flush, cache drops).
    pub fn pager(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Write all dirty nodes to the device.
    pub fn flush(&mut self) -> Result<(), KvError> {
        self.pager.flush().map_err(KvError::from)
    }

    /// Flush and empty the cache (cold-cache experiment reset).
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        self.pager.drop_cache().map_err(KvError::from)
    }

    /// Node `id`'s image, its frame checksum checked once: when the bytes
    /// come off the device, not on every cache hit.
    fn read_page(&mut self, id: NodeId) -> Result<Page, KvError> {
        let page = self.pager.read(id, self.cfg.node_bytes)?;
        self.pager
            .check_once(&page, |b| unframe(b).map(drop))
            .map_err(|e| corrupt_node(id, e))?;
        Ok(page)
    }

    fn read_node(&mut self, id: NodeId) -> Result<Node, KvError> {
        let page = self.read_page(id)?;
        Ok(parse_node(id, &page)?.to_node())
    }

    fn write_node(&mut self, id: NodeId, node: &Node) -> Result<(), KvError> {
        if node.serialized_size() > self.cfg.node_bytes {
            return Err(KvError::Config(format!(
                "node image {} exceeds node_bytes {} (entry too large?)",
                node.serialized_size(),
                self.cfg.node_bytes
            )));
        }
        let buf = node.encode(self.cfg.node_bytes);
        self.pager.write(id, buf).map_err(KvError::from)
    }

    fn alloc_node(&mut self) -> Result<NodeId, KvError> {
        self.pager
            .alloc(self.cfg.node_bytes as u64)
            .map_err(KvError::from)
    }

    fn free_node(&mut self, id: NodeId) {
        self.pager.free(id, self.cfg.node_bytes as u64);
    }

    fn entry_fits(&self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let need = NODE_HEADER_BYTES + pair_size(key, value);
        if need > self.cfg.node_bytes {
            return Err(KvError::Config(format!(
                "entry of {} bytes cannot fit in node_bytes {}",
                need, self.cfg.node_bytes
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Split an overflowing leaf's entries at the byte-balanced midpoint;
    /// returns (promoted pivot, right entries).
    #[allow(clippy::type_complexity)]
    fn split_leaf_entries(
        entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> (Vec<u8>, Vec<(Vec<u8>, Vec<u8>)>) {
        debug_assert!(entries.len() >= 2, "cannot split a leaf with < 2 entries");
        let total: usize = entries.iter().map(|(k, v)| pair_size(k, v)).sum();
        let mut acc = 0usize;
        let mut split = entries.len() - 1;
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += pair_size(k, v);
            if acc * 2 >= total && i + 1 < entries.len() {
                split = i + 1;
                break;
            }
        }
        let right = entries.split_off(split);
        let pivot = right[0].0.clone();
        (pivot, right)
    }

    /// Recursive insert. Returns the `(pivot, new_right)` of a split, if any.
    ///
    /// Internal nodes route in place and are decoded only to absorb a child
    /// split.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &mut self,
        id: NodeId,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<(Vec<u8>, NodeId)>, KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let page = self.read_page(id)?;
        let (pivots, children) = match parse_node(id, &page)? {
            NodeView::Leaf(entries) => {
                // A leaf that still fits takes the entry spliced into its
                // cached image (into a copy while the image is shared); one
                // that overflows is decoded and split.
                let edit = LeafEdit::new(&page, entries, key, Some(value))
                    .map_err(|e| corrupt_node(id, e))?;
                // The key is counted once its leaf image landed, so a fault
                // further up leaves the count right.
                let new_key = u64::from(!edit.found());
                if edit.serialized_size() > self.cfg.node_bytes {
                    let split = self.split_leaf(id, entries, key, value)?;
                    self.count += new_key;
                    return Ok(Some(split));
                }
                let written = self
                    .pager
                    .edit(page, |image| edit.apply(image))
                    .map_err(KvError::from);
                self.landed(written)?;
                self.count += new_key;
                return Ok(None);
            }
            NodeView::Internal { pivots, children } => (pivots, children),
        };
        let idx = pivots.route(key);
        let Some((pivot, right_id)) =
            self.insert_rec(NodeView::child(children, idx), key, value)?
        else {
            return Ok(None);
        };
        let mut node = NodeView::Internal { pivots, children }.to_node();
        let Node::Internal { pivots, children } = &mut node else {
            unreachable!()
        };
        pivots.insert(idx, pivot);
        children.insert(idx + 1, right_id);
        if node.serialized_size() <= self.cfg.node_bytes {
            self.write_landed(id, &node)?;
            return Ok(None);
        }
        // Split the internal node: promote the byte-midpoint pivot.
        let Node::Internal { pivots, children } = &mut node else {
            unreachable!()
        };
        if pivots.len() < 3 {
            return Err(KvError::Config(format!(
                "internal node with {} pivots overflows node_bytes {}; keys too large",
                pivots.len(),
                self.cfg.node_bytes
            )));
        }
        let total: usize = pivots.iter().map(|p| 4 + p.len()).sum();
        let mut acc = 0usize;
        let mut mid = pivots.len() / 2;
        for (i, p) in pivots.iter().enumerate() {
            acc += 4 + p.len();
            if acc * 2 >= total && i + 1 < pivots.len() {
                mid = (i + 1).min(pivots.len() - 1).max(1);
                break;
            }
        }
        let right_pivots = pivots.split_off(mid + 1);
        let promoted = pivots.pop().expect("mid >= 1 leaves a pivot to promote");
        let right_children = children.split_off(mid + 1);
        let right_id = self.alloc_node()?;
        let right = Node::Internal {
            pivots: right_pivots,
            children: right_children,
        };
        self.write_landed(id, &node)?;
        self.write_landed(right_id, &right)?;
        Ok(Some((promoted, right_id)))
    }

    /// Put `key` into the leaf `id`, whose entries `entries` overflow the
    /// node with it, and split the leaf; returns the promoted pivot and the
    /// new right sibling.
    fn split_leaf(
        &mut self,
        id: NodeId,
        entries: Run<'_, Pair<'_>>,
        key: &[u8],
        value: &[u8],
    ) -> Result<(Vec<u8>, NodeId), KvError> {
        let mut entries = entries.to_vec();
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => entries[i].1 = value.to_vec(),
            Err(i) => entries.insert(i, (key.to_vec(), value.to_vec())),
        }
        let (pivot, right_entries) = Self::split_leaf_entries(&mut entries);
        let right_id = self.alloc_node()?;
        self.write_landed(id, &Node::Leaf { entries })?;
        self.write_landed(
            right_id,
            &Node::Leaf {
                entries: right_entries,
            },
        )?;
        Ok((pivot, right_id))
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    fn underfull(&self, serialized_size: usize) -> bool {
        serialized_size < self.cfg.node_bytes / 4
    }

    /// Recursive delete. Returns `(removed, child_now_underfull)`.
    ///
    /// The leaf takes the removal spliced out of its image; internal nodes
    /// route in place and are decoded only to rebalance an underfull child.
    fn delete_rec(&mut self, id: NodeId, key: &[u8]) -> Result<(bool, bool), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let page = self.read_page(id)?;
        let (pivots, children) = match parse_node(id, &page)? {
            NodeView::Leaf(entries) => {
                let edit =
                    LeafEdit::new(&page, entries, key, None).map_err(|e| corrupt_node(id, e))?;
                if !edit.found() {
                    return Ok((false, false));
                }
                let under = self.underfull(edit.serialized_size());
                let written = self
                    .pager
                    .edit(page, |image| edit.apply(image))
                    .map_err(KvError::from);
                self.landed(written)?;
                self.count -= 1;
                return Ok((true, under));
            }
            NodeView::Internal { pivots, children } => (pivots, children),
        };
        let idx = pivots.route(key);
        let (removed, child_under) = self.delete_rec(NodeView::child(children, idx), key)?;
        if !child_under {
            return Ok((removed, false));
        }
        let mut node = NodeView::Internal { pivots, children }.to_node();
        self.rebalance_child(id, &mut node, idx)?;
        let under = self.underfull(node.serialized_size());
        Ok((removed, under))
    }

    /// Fix up an underfull child of `node` (at child index `idx`) by merging
    /// with or borrowing from an adjacent sibling, then persist `node`.
    fn rebalance_child(&mut self, id: NodeId, node: &mut Node, idx: usize) -> Result<(), KvError> {
        let Node::Internal { pivots, children } = node else {
            unreachable!("rebalance_child on a leaf");
        };
        // Single child (possible transiently at the root): nothing to do.
        if children.len() == 1 {
            self.write_landed(id, node)?;
            return Ok(());
        }
        // Prefer the left sibling; fall back to the right when idx == 0.
        let (li, ri) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        let left_id = children[li];
        let right_id = children[ri];
        let mut left = self.read_node(left_id)?;
        let mut right = self.read_node(right_id)?;
        let separator = pivots[li].clone();

        let merged_size = left.serialized_size() + right.serialized_size() - NODE_HEADER_BYTES
            + match &left {
                Node::Internal { .. } => 4 + separator.len(),
                Node::Leaf { .. } => 0,
            };
        if merged_size <= self.cfg.node_bytes {
            // Merge right into left.
            match (&mut left, right) {
                (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                    le.extend(re);
                }
                (
                    Node::Internal {
                        pivots: lp,
                        children: lc,
                    },
                    Node::Internal {
                        pivots: rp,
                        children: rc,
                    },
                ) => {
                    lp.push(separator.clone());
                    lp.extend(rp);
                    lc.extend(rc);
                }
                _ => return Err(KvError::Corrupt("sibling level mismatch".into())),
            }
            self.write_landed(left_id, &left)?;
            self.free_node(right_id);
            pivots.remove(li);
            children.remove(ri);
            self.write_landed(id, node)?;
            return Ok(());
        }

        // Borrow: rebalance contents between the two siblings by bytes and
        // refresh the separator pivot.
        let new_separator = match (&mut left, &mut right) {
            (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
                let mut all: Vec<(Vec<u8>, Vec<u8>)> = std::mem::take(le);
                all.extend(std::mem::take(re));
                let total: usize = all.iter().map(|(k, v)| pair_size(k, v)).sum();
                let mut acc = 0usize;
                let mut split = all.len() / 2;
                for (i, (k, v)) in all.iter().enumerate() {
                    acc += pair_size(k, v);
                    if acc * 2 >= total && i + 1 < all.len() {
                        split = i + 1;
                        break;
                    }
                }
                let re_new = all.split_off(split);
                let sep = re_new[0].0.clone();
                *le = all;
                *re = re_new;
                sep
            }
            (
                Node::Internal {
                    pivots: lp,
                    children: lc,
                },
                Node::Internal {
                    pivots: rp,
                    children: rc,
                },
            ) => {
                let mut all_p: Vec<Vec<u8>> = std::mem::take(lp);
                all_p.push(separator.clone());
                all_p.extend(std::mem::take(rp));
                let mut all_c: Vec<NodeId> = std::mem::take(lc);
                all_c.extend(std::mem::take(rc));
                let mid = all_p.len() / 2;
                let rp_new = all_p.split_off(mid + 1);
                let sep = all_p.pop().expect("nonempty");
                let rc_new = all_c.split_off(mid + 1);
                *lp = all_p;
                *rp = rp_new;
                *lc = all_c;
                *rc = rc_new;
                sep
            }
            _ => return Err(KvError::Corrupt("sibling level mismatch".into())),
        };
        self.write_landed(left_id, &left)?;
        self.write_landed(right_id, &right)?;
        pivots[li] = new_separator;
        self.write_landed(id, node)?;
        Ok(())
    }

    /// Collapse single-child roots after deletions.
    fn collapse_root(&mut self) -> Result<(), KvError> {
        loop {
            let root = self.root;
            let page = self.read_page(root)?;
            match parse_node(root, &page)? {
                NodeView::Internal { pivots, children } if pivots.is_empty() => {
                    self.free_node(root);
                    self.root = NodeView::child(children, 0);
                    self.height -= 1;
                }
                _ => return Ok(()),
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn get_rec(&mut self, id: NodeId, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let page = self.read_page(id)?;
        match parse_node(id, &page)? {
            NodeView::Leaf(entries) => Ok(entries.get(key).map(<[u8]>::to_vec)),
            NodeView::Internal { pivots, children } => {
                self.get_rec(NodeView::child(children, pivots.route(key)), key)
            }
        }
    }

    fn range_rec(
        &mut self,
        id: NodeId,
        start: &[u8],
        end: &[u8],
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("btree.level"));
        let page = self.read_page(id)?;
        match parse_node(id, &page)? {
            NodeView::Leaf(entries) => {
                out.extend(
                    entries
                        .range(start, end)
                        .map(|(k, v)| (k.to_vec(), v.to_vec())),
                );
                Ok(())
            }
            NodeView::Internal { pivots, children } => {
                // Child i holds keys in [pivots[i-1], pivots[i]).
                let mut lower: Option<&[u8]> = None;
                let mut uppers = pivots.iter();
                for i in 0..=pivots.len() {
                    let upper = uppers.next();
                    let lower_ok = lower.is_none_or(|l| l < end);
                    let upper_ok = upper.is_none_or(|u| u > start);
                    if lower_ok && upper_ok {
                        self.range_rec(NodeView::child(children, i), start, end, out)?;
                    }
                    lower = upper;
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Build a tree bottom-up from strictly ascending `(key, value)` pairs.
    /// Far faster than repeated inserts for experiment preloads, and
    /// produces nodes filled to `BULK_FILL` (90%).
    pub fn bulk_load(
        device: SharedDevice,
        cfg: BTreeConfig,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<Self, KvError> {
        let mut tree = BTree::create(device, cfg)?;
        let target = (cfg.node_bytes as f64 * BULK_FILL) as usize;

        // Level 0: pack leaves.
        let mut leaf_refs: Vec<(Vec<u8>, NodeId)> = Vec::new(); // (first key, id)
        let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut current_bytes = NODE_HEADER_BYTES;
        let mut count = 0u64;
        let mut last_key: Option<Vec<u8>> = None;
        for (k, v) in pairs {
            if let Some(prev) = &last_key {
                if *prev >= k {
                    return Err(KvError::Config(
                        "bulk_load input not strictly ascending".into(),
                    ));
                }
            }
            last_key = Some(k.clone());
            tree.entry_fits(&k, &v)?;
            let sz = pair_size(&k, &v);
            if current_bytes + sz > target && !current.is_empty() {
                let id = tree.alloc_node()?;
                let first = current[0].0.clone();
                tree.write_node(
                    id,
                    &Node::Leaf {
                        entries: std::mem::take(&mut current),
                    },
                )?;
                leaf_refs.push((first, id));
                current_bytes = NODE_HEADER_BYTES;
            }
            current_bytes += sz;
            current.push((k, v));
            count += 1;
        }
        if !current.is_empty() {
            let id = tree.alloc_node()?;
            let first = current[0].0.clone();
            tree.write_node(id, &Node::Leaf { entries: current })?;
            leaf_refs.push((first, id));
        }

        if leaf_refs.is_empty() {
            tree.count = 0;
            return Ok(tree);
        }

        // Upper levels: pack (first_key, id) runs into internal nodes.
        let mut level: Vec<(Vec<u8>, NodeId)> = leaf_refs;
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Vec<(Vec<u8>, NodeId)> = Vec::new();
            let mut pivots: Vec<Vec<u8>> = Vec::new();
            let mut children: Vec<NodeId> = Vec::new();
            let mut bytes = NODE_HEADER_BYTES + 8;
            let mut first_key: Option<Vec<u8>> = None;
            for (k, id) in level {
                let extra = 4 + k.len() + 8;
                if !children.is_empty() && bytes + extra > target {
                    let nid = tree.alloc_node()?;
                    tree.write_node(
                        nid,
                        &Node::Internal {
                            pivots: std::mem::take(&mut pivots),
                            children: std::mem::take(&mut children),
                        },
                    )?;
                    next.push((first_key.take().expect("nonempty internal"), nid));
                    bytes = NODE_HEADER_BYTES + 8;
                }
                if children.is_empty() {
                    first_key = Some(k);
                } else {
                    pivots.push(k);
                    bytes += extra - 8;
                }
                children.push(id);
                bytes += 8;
            }
            let nid = tree.alloc_node()?;
            tree.write_node(nid, &Node::Internal { pivots, children })?;
            next.push((first_key.expect("nonempty internal"), nid));
            height += 1;
            level = next;
        }

        // Free the placeholder root and install the built one.
        let built_root = level[0].1;
        tree.free_node(tree.root);
        tree.root = built_root;
        tree.height = height;
        tree.count = count;
        tree.flush()?;
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // Aging simulation
    // ------------------------------------------------------------------

    /// Scatter leaf placement: permute which device slot each leaf lives in,
    /// patching parent pointers. Content is unchanged; only *locality* is
    /// destroyed — a cheap stand-in for the fragmentation a long
    /// insert/delete history produces (§5: "as B-trees age, their nodes get
    /// spread out across disk, and range-query performance degrades").
    pub fn scatter_leaves(&mut self, seed: u64) -> Result<(), KvError> {
        if self.height == 1 {
            return Ok(());
        }
        // Collect (parent id, child index, leaf id) for every leaf.
        let mut refs: Vec<(NodeId, usize, NodeId)> = Vec::new();
        let mut stack: Vec<(NodeId, u32)> = vec![(self.root, self.height)];
        while let Some((id, level)) = stack.pop() {
            let node = self.read_node(id)?;
            if let Node::Internal { children, .. } = node {
                for (i, &child) in children.iter().enumerate() {
                    if level - 1 == 1 {
                        refs.push((id, i, child));
                    } else {
                        stack.push((child, level - 1));
                    }
                }
            }
        }
        // Permute the leaf slots among themselves.
        let mut rng = dam_stats::rng::Rng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..refs.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        // Read every leaf, rewrite it at its permuted slot, patch parents.
        let contents: Vec<Node> = refs
            .iter()
            .map(|&(_, _, leaf)| self.read_node(leaf))
            .collect::<Result<_, _>>()?;
        for (i, &(parent, idx, _)) in refs.iter().enumerate() {
            let new_slot = refs[perm[i]].2;
            self.write_node(new_slot, &contents[i])?;
            let mut pnode = self.read_node(parent)?;
            let Node::Internal { children, .. } = &mut pnode else {
                unreachable!()
            };
            children[idx] = new_slot;
            self.write_node(parent, &pnode)?;
        }
        self.flush()
    }

    // ------------------------------------------------------------------
    // Invariant checking (test support)
    // ------------------------------------------------------------------

    /// Walk the whole tree verifying structural invariants; returns the
    /// number of live entries. Used by property tests.
    pub fn check_invariants(&mut self) -> Result<u64, KvError> {
        let root = self.root;
        let height = self.height;
        let n = self.check_rec(root, height, None, None)?;
        if n != self.count {
            return Err(KvError::Corrupt(format!(
                "count mismatch: walked {n}, tracked {}",
                self.count
            )));
        }
        Ok(n)
    }

    fn check_rec(
        &mut self,
        id: NodeId,
        level: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<u64, KvError> {
        let node = self.read_node(id)?;
        if node.serialized_size() > self.cfg.node_bytes {
            return Err(KvError::Corrupt(format!("node {id} oversize")));
        }
        match node {
            Node::Leaf { entries } => {
                if level != 1 {
                    return Err(KvError::Corrupt(format!("leaf {id} at level {level}")));
                }
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(KvError::Corrupt(format!("leaf {id} unsorted")));
                    }
                }
                for (k, _) in &entries {
                    if lo.is_some_and(|l| k.as_slice() < l) || hi.is_some_and(|h| k.as_slice() >= h)
                    {
                        return Err(KvError::Corrupt(format!("leaf {id} key out of bounds")));
                    }
                }
                Ok(entries.len() as u64)
            }
            Node::Internal { pivots, children } => {
                if level < 2 {
                    return Err(KvError::Corrupt(format!("internal {id} at leaf level")));
                }
                if children.len() != pivots.len() + 1 {
                    return Err(KvError::Corrupt(format!("internal {id} arity mismatch")));
                }
                for w in pivots.windows(2) {
                    if w[0] >= w[1] {
                        return Err(KvError::Corrupt(format!("internal {id} pivots unsorted")));
                    }
                }
                let mut total = 0u64;
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 {
                        lo
                    } else {
                        Some(pivots[i - 1].as_slice())
                    };
                    let chi = if i == pivots.len() {
                        hi
                    } else {
                        Some(pivots[i].as_slice())
                    };
                    total += self.check_rec(child, level - 1, clo, chi)?;
                }
                Ok(total)
            }
        }
    }
}

impl BTree {
    /// A write the pager applied even though a device fault surfaced
    /// (every write lands in the cache; the fault belongs to an eviction
    /// write-back): keep going, so a split is never left half-adopted, and
    /// report the fault when the operation ends ([`Self::finish_op`]).
    fn landed(&mut self, written: Result<(), KvError>) -> Result<(), KvError> {
        match written {
            Err(e @ KvError::Storage(_)) => {
                self.deferred.get_or_insert(e);
                Ok(())
            }
            other => other,
        }
    }

    /// [`Self::write_node`] inside a write operation (see [`Self::landed`]).
    fn write_landed(&mut self, id: NodeId, node: &Node) -> Result<(), KvError> {
        let written = self.write_node(id, node);
        self.landed(written)
    }

    /// The result of a write operation: its own, or else the first write
    /// fault it deferred.
    fn finish_op(&mut self, result: Result<(), KvError>) -> Result<(), KvError> {
        let deferred = self.deferred.take();
        result.and(deferred.map_or(Ok(()), Err))
    }

    fn insert_inner(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let result = self.insert_body(key, value);
        self.finish_op(result)
    }

    fn insert_body(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.entry_fits(key, value)?;
        let root = self.root;
        if let Some((pivot, right)) = self.insert_rec(root, key, value)? {
            let new_root = self.alloc_node()?;
            let node = Node::Internal {
                pivots: vec![pivot],
                children: vec![root, right],
            };
            self.write_landed(new_root, &node)?;
            self.root = new_root;
            self.height += 1;
        }
        Ok(())
    }

    fn delete_inner(&mut self, key: &[u8]) -> Result<(), KvError> {
        let result = self.delete_body(key);
        self.finish_op(result)
    }

    fn delete_body(&mut self, key: &[u8]) -> Result<(), KvError> {
        let root = self.root;
        let (removed, _) = self.delete_rec(root, key)?;
        if removed {
            self.collapse_root()?;
        }
        Ok(())
    }
}

impl PagedDict for BTree {
    fn pager_and_obs(&mut self) -> (&mut Pager, Option<&Obs>) {
        (&mut self.pager, self.obs.as_ref())
    }
}

impl Dictionary for BTree {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.insert_inner(key, value))
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.delete_inner(key))
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // One cost window for the whole batch: successive root-to-leaf
        // descents share the cache, so the batch cost is what the serving
        // engine's group commit actually pays.
        self.in_op(|t| {
            batch.iter().try_for_each(|op| match op {
                BatchOp::Put { key, value } => t.insert_inner(key, value),
                BatchOp::Del { key } => t.delete_inner(key),
            })
        })
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.in_op(|t| t.get_rec(t.root, key))
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        self.in_op(|t| {
            let mut out = Vec::new();
            if start < end {
                t.range_rec(t.root, start, end, &mut out)?;
            }
            Ok(out)
        })
    }

    fn last_op_cost(&self) -> OpCost {
        self.pager.last_op_cost()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        // Durability contract: after a successful sync, `open` on the same
        // device recovers this exact state — so write the superblock too,
        // not just the dirty nodes.
        self.in_op(Self::persist)
    }

    fn len(&mut self) -> Result<u64, KvError> {
        // No IO, but the accounting contract still applies: `last_op_cost`
        // must describe *this* op, so open a window rather than leaving
        // the previous op's numbers in place.
        self.in_op(|t| Ok(t.count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::key_from_u64;
    use dam_storage::{RamDisk, SimDuration};

    fn tree(node_bytes: usize) -> BTree {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        BTree::create(dev, BTreeConfig::new(node_bytes, 1 << 20)).unwrap()
    }

    #[test]
    fn device_smaller_than_superblock_is_a_config_error() {
        let dev = || SharedDevice::new(Box::new(RamDisk::new(2048, SimDuration(1000))));
        let cfg = || BTreeConfig::new(1024, 1 << 16);
        for r in [
            BTree::create(dev(), cfg()).map(drop),
            BTree::open(dev(), cfg()).map(drop),
        ] {
            match r {
                Err(KvError::Config(msg)) => assert!(msg.contains("2048"), "{msg}"),
                other => panic!("expected a config error, got {:?}", other.err()),
            }
        }
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            key_from_u64(i).to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }

    #[test]
    fn empty_tree_behaves() {
        let mut t = tree(512);
        assert_eq!(t.get(b"nope").unwrap(), None);
        assert_eq!(t.len().unwrap(), 0);
        assert!(t.is_empty().unwrap());
        assert_eq!(t.range(b"a", b"z").unwrap(), vec![]);
        t.delete(b"nope").unwrap(); // no-op
        assert_eq!(t.check_invariants().unwrap(), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = tree(512);
        for i in 0..100 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        assert_eq!(t.len().unwrap(), 100);
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.get(&key_from_u64(100)).unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut t = tree(512);
        let (k, v) = kv(1);
        t.insert(&k, &v).unwrap();
        t.insert(&k, b"new").unwrap();
        assert_eq!(t.get(&k).unwrap(), Some(b"new".to_vec()));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn splits_grow_height() {
        let mut t = tree(256);
        assert_eq!(t.height(), 1);
        for i in 0..500 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        assert!(t.height() >= 3, "height {}", t.height());
        t.check_invariants().unwrap();
        for i in 0..500 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v));
        }
    }

    #[test]
    fn reverse_insertion_order_works() {
        let mut t = tree(256);
        for i in (0..300).rev() {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.check_invariants().unwrap();
        for i in 0..300 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v));
        }
    }

    #[test]
    fn delete_shrinks_back_to_empty() {
        let mut t = tree(256);
        for i in 0..300 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in 0..300 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.len().unwrap(), 0);
        assert_eq!(t.height(), 1, "root should collapse back to a leaf");
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_interleaved_with_queries() {
        let mut t = tree(256);
        for i in 0..200 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        // Delete evens.
        for i in (0..200).step_by(2) {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        t.check_invariants().unwrap();
        for i in 0..200 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 { None } else { Some(v) };
            assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
        }
    }

    #[test]
    fn range_query_returns_sorted_window() {
        let mut t = tree(256);
        for i in 0..300 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        let out = t.range(&key_from_u64(50), &key_from_u64(60)).unwrap();
        assert_eq!(out.len(), 10);
        for (j, (k, v)) in out.iter().enumerate() {
            let (ek, ev) = kv(50 + j as u64);
            assert_eq!((k, v), (&ek, &ev));
        }
    }

    #[test]
    fn range_spanning_everything() {
        let mut t = tree(256);
        for i in 0..100 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        let out = t.range(&[], &[0xFF; 17]).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let mut t = tree(256);
        for i in 0..50 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        assert!(t
            .range(&key_from_u64(10), &key_from_u64(10))
            .unwrap()
            .is_empty());
        assert!(t
            .range(&key_from_u64(20), &key_from_u64(10))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..1000).map(kv).collect();
        let mut bulk =
            BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 20), pairs.clone()).unwrap();
        assert_eq!(bulk.len().unwrap(), 1000);
        bulk.check_invariants().unwrap();
        for (k, v) in &pairs {
            assert_eq!(bulk.get(k).unwrap().as_ref(), Some(v));
        }
        let out = bulk.range(&key_from_u64(0), &key_from_u64(1000)).unwrap();
        assert_eq!(out, pairs);
    }

    #[test]
    fn bulk_load_empty_input() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        let mut t = BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 20), vec![]).unwrap();
        assert_eq!(t.len().unwrap(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        let pairs = vec![kv(5), kv(3)];
        assert!(matches!(
            BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 20), pairs),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn bulk_load_then_mutate() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..500).map(|i| kv(i * 2)).collect();
        let mut t = BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 20), pairs).unwrap();
        // Insert odds between bulk-loaded evens, delete some evens.
        for i in 0..200 {
            let (k, v) = kv(i * 2 + 1);
            t.insert(&k, &v).unwrap();
        }
        for i in 0..100 {
            let (k, _) = kv(i * 4);
            t.delete(&k).unwrap();
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 500 + 200 - 100);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree(256);
        let big = vec![0u8; 500];
        assert!(matches!(t.insert(b"k", &big), Err(KvError::Config(_))));
    }

    #[test]
    fn op_cost_reported() {
        let mut t = tree(512);
        for i in 0..200 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.drop_cache().unwrap();
        let (k, _) = kv(100);
        t.get(&k).unwrap();
        let cost = t.last_op_cost();
        assert!(cost.ios >= 1, "cold get must do IO");
        assert!(cost.io_time_ns > 0);
        assert_eq!(cost.bytes_read, cost.ios * 512);
        // Warm repeat: free.
        t.get(&k).unwrap();
        assert_eq!(t.last_op_cost().ios, 0);
    }

    #[test]
    fn cold_query_reads_height_many_nodes() {
        let mut t = tree(512);
        for i in 0..2000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.drop_cache().unwrap();
        let (k, _) = kv(1234);
        t.get(&k).unwrap();
        assert_eq!(t.last_op_cost().ios as u32, t.height());
    }

    #[test]
    fn persist_and_open_roundtrip() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..1500).map(kv).collect();
        {
            let mut t =
                BTree::bulk_load(dev.clone(), BTreeConfig::new(512, 1 << 20), pairs.clone())
                    .unwrap();
            for i in 0..100 {
                let (k, _) = kv(i * 3);
                t.delete(&k).unwrap();
            }
            t.persist().unwrap();
        } // tree dropped; only the device survives
        let mut reopened = BTree::open(dev, BTreeConfig::new(512, 1 << 20)).unwrap();
        reopened.check_invariants().unwrap();
        assert_eq!(reopened.len().unwrap(), 1400);
        for (i, (k, v)) in pairs.iter().enumerate() {
            let expect = if i % 3 == 0 && i < 300 { None } else { Some(v) };
            assert_eq!(reopened.get(k).unwrap().as_ref(), expect, "key {i}");
        }
        // The reopened tree is fully writable; freed slots are reusable.
        let (k, v) = kv(9999);
        reopened.insert(&k, &v).unwrap();
        assert_eq!(reopened.get(&k).unwrap(), Some(v));
    }

    #[test]
    fn open_blank_device_errors() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 20, SimDuration(1000))));
        assert!(matches!(
            BTree::open(dev, BTreeConfig::new(512, 1 << 16)),
            Err(KvError::Corrupt(_))
        ));
    }

    #[test]
    fn open_with_wrong_node_size_errors() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        let mut t = BTree::create(dev.clone(), BTreeConfig::new(512, 1 << 16)).unwrap();
        let (k, v) = kv(1);
        t.insert(&k, &v).unwrap();
        t.persist().unwrap();
        drop(t);
        assert!(matches!(
            BTree::open(dev, BTreeConfig::new(1024, 1 << 16)),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn scatter_preserves_content_and_invariants() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..2000).map(kv).collect();
        let mut t = BTree::bulk_load(dev, BTreeConfig::new(512, 1 << 20), pairs.clone()).unwrap();
        t.scatter_leaves(99).unwrap();
        t.check_invariants().unwrap();
        for (k, v) in pairs.iter().step_by(53) {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        let out = t.range(&key_from_u64(0), &key_from_u64(2000)).unwrap();
        assert_eq!(out, pairs);
    }

    #[test]
    fn scatter_on_single_leaf_is_noop() {
        let mut t = tree(4096);
        let (k, v) = kv(1);
        t.insert(&k, &v).unwrap();
        t.scatter_leaves(1).unwrap();
        assert_eq!(t.get(&k).unwrap(), Some(v));
    }

    #[test]
    fn node_size_affects_tree_height() {
        let mut small = tree(256);
        let mut large = tree(4096);
        for i in 0..1000 {
            let (k, v) = kv(i);
            small.insert(&k, &v).unwrap();
            large.insert(&k, &v).unwrap();
        }
        assert!(large.height() < small.height());
    }

    /// Regression (dam-check): `last_op_cost` must describe the most recent
    /// operation, even when that operation is `len` (no IO) or an operation
    /// that fails before touching storage.
    #[test]
    fn last_op_cost_resets_per_op() {
        let mut t = tree(256);
        for i in 0..500 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.sync().unwrap();
        assert!(t.last_op_cost().ios > 0, "sync should cost IO");
        assert_eq!(t.len().unwrap(), 500);
        assert_eq!(t.last_op_cost(), OpCost::default(), "len costs nothing");
        t.sync().unwrap();
        let err = t.insert(b"big", &vec![0u8; 4096]);
        assert!(matches!(err, Err(KvError::Config(_))));
        assert_eq!(t.last_op_cost(), OpCost::default(), "failed op is free");
    }
}
