//! The standard Bε-tree: whole-node IOs, per-child buffers, flush-on-overflow.

use crate::node::{
    buffer_insert, buffer_merge, BeNode, BeNodeView, BufferEdit, NodeId, LEAF_ENTRY_OVERHEAD,
    NODE_HEADER_BYTES,
};
use dam_cache::{Page, Pager, Superblock, SuperblockIo};
use dam_kv::codec::{unframe, CodecError};
use dam_kv::msg::{replay, LastWriteWins, MergeOperator, Message, Operation};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedDict};
use dam_storage::SharedDevice;

/// Bytes reserved at device offset 0 for the superblock.
pub const SUPERBLOCK_BYTES: u64 = 4096;
const SUPERBLOCK: Superblock = Superblock {
    magic: 0x4441_4D45, // "DAME"
    version: 1,
    label: "Be-tree superblock",
    io: SuperblockIo::Slot,
};

/// Standard Bε-tree configuration.
pub struct BeTreeConfig {
    /// Node (and IO) size in bytes — the `B` of §6.
    pub node_bytes: usize,
    /// Target fanout `F` (`= B^ε` entries). TokuDB targets ~16; the `F = √B`
    /// family is the paper's running example.
    pub fanout: usize,
    /// Buffer-pool budget in bytes.
    pub cache_bytes: u64,
    /// Fill fraction for bulk-loaded nodes.
    pub bulk_fill: f64,
    /// Upsert merge semantics.
    pub merge: Box<dyn MergeOperator>,
}

impl BeTreeConfig {
    /// Config with explicit fanout and last-write-wins upserts.
    pub fn new(node_bytes: usize, fanout: usize, cache_bytes: u64) -> Self {
        BeTreeConfig {
            node_bytes,
            fanout,
            cache_bytes,
            bulk_fill: 0.85,
            merge: Box::new(LastWriteWins),
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

fn corrupt_node(id: NodeId, e: CodecError) -> KvError {
    KvError::Corrupt(format!("node {id}: {e}"))
}

/// View a page read by [`BeTree::read_page`].
fn parse_node(id: NodeId, page: &Page) -> Result<BeNodeView<'_>, KvError> {
    BeNodeView::parse(page).map_err(|e| corrupt_node(id, e))
}

/// `(pivot, id)` pairs for new right siblings produced by a split.
type Splits = Vec<(Vec<u8>, NodeId)>;

/// A split that committed to cache: the siblings to adopt, plus any
/// surfaced-but-absorbed write fault to report once consistent.
type SplitOutcome = Result<(Splits, Option<KvError>), KvError>;

/// A standard Bε-tree (see crate docs).
pub struct BeTree {
    pager: Pager,
    node_bytes: usize,
    max_fanout: usize,
    merge: Box<dyn MergeOperator>,
    root: NodeId,
    height: u32,
    /// Live keys at the leaves (pending messages not yet counted).
    count: u64,
    next_seq: u64,
    obs: Option<Obs>,
}

impl BeTree {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: BeTreeConfig) -> Result<Self, KvError> {
        if cfg.node_bytes < NODE_HEADER_BYTES + 128 {
            return Err(KvError::Config(format!(
                "node_bytes {} too small",
                cfg.node_bytes
            )));
        }
        if cfg.fanout < 2 {
            return Err(KvError::Config("fanout must be at least 2".into()));
        }
        if !(0.5..=1.0).contains(&cfg.bulk_fill) {
            return Err(KvError::Config("bulk_fill must be in [0.5, 1.0]".into()));
        }
        let mut pager = Pager::new(device, cfg.cache_bytes, SUPERBLOCK_BYTES);
        let root = pager.alloc(cfg.node_bytes as u64)?;
        let mut tree = BeTree {
            pager,
            node_bytes: cfg.node_bytes,
            max_fanout: (2 * cfg.fanout).max(4),
            merge: cfg.merge,
            root,
            height: 1,
            count: 0,
            next_seq: 1,
            obs: None,
        };
        tree.write_node(root, &BeNode::empty_leaf())?;
        Ok(tree)
    }

    /// Node size in use.
    pub fn node_bytes(&self) -> usize {
        self.node_bytes
    }

    /// Tree height in levels (leaves = 1).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pager (counters, flush, cache drops).
    pub fn pager(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Write all dirty nodes to the device.
    pub fn flush(&mut self) -> Result<(), KvError> {
        self.pager.flush().map_err(KvError::from)
    }

    /// Checkpoint: flush dirty nodes, then durably write a superblock so
    /// [`BeTree::open`] can reconstruct the tree on this device.
    pub fn persist(&mut self) -> Result<(), KvError> {
        self.flush()?;
        SUPERBLOCK.write(&mut self.pager, |w| {
            w.put_u64(self.root);
            w.put_u32(self.height);
            w.put_u64(self.count);
            w.put_u64(self.next_seq);
            w.put_u64(self.node_bytes as u64);
            w.put_u32(self.max_fanout as u32);
        })
    }

    /// Reopen a tree previously [`BeTree::persist`]ed on `device`. The
    /// config's node size and fanout must match the device's; the merge
    /// operator is taken from the config (it is code, not data).
    pub fn open(device: SharedDevice, cfg: BeTreeConfig) -> Result<Self, KvError> {
        let mut pager = Pager::new(device, cfg.cache_bytes, SUPERBLOCK_BYTES);
        let max_fanout = (2 * cfg.fanout).max(4);
        let (root, height, count, next_seq) = SUPERBLOCK.read(&mut pager, |r| {
            let fields = (r.get_u64()?, r.get_u32()?, r.get_u64()?, r.get_u64()?);
            let node_bytes = r.get_u64()?;
            let stored_fanout = r.get_u32()? as usize;
            if node_bytes != cfg.node_bytes as u64 || stored_fanout != max_fanout {
                return Err(KvError::Config(format!(
                    "shape mismatch: device has node_bytes={node_bytes}/max_fanout={stored_fanout}, \
                     config says node_bytes={}/max_fanout={max_fanout}",
                    cfg.node_bytes
                )));
            }
            Ok(fields)
        })?;
        Ok(BeTree {
            pager,
            node_bytes: cfg.node_bytes,
            max_fanout,
            merge: cfg.merge,
            root,
            height,
            count,
            next_seq,
            obs: None,
        })
    }

    /// Attach an observability registry: query descents open per-level
    /// `betree.level` spans, buffer flushes open `betree.drain` spans, and
    /// every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Flush and empty the cache.
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        self.pager.drop_cache().map_err(KvError::from)
    }

    /// Node `id`'s image, its frame checksum checked once: when the bytes
    /// come off the device, not on every cache hit.
    fn read_page(&mut self, id: NodeId) -> Result<Page, KvError> {
        let page = self.pager.read(id, self.node_bytes)?;
        self.pager
            .check_once(&page, |b| unframe(b).map(drop))
            .map_err(|e| corrupt_node(id, e))?;
        Ok(page)
    }

    fn read_node(&mut self, id: NodeId) -> Result<BeNode, KvError> {
        let page = self.read_page(id)?;
        Ok(parse_node(id, &page)?.to_node())
    }

    fn write_node(&mut self, id: NodeId, node: &BeNode) -> Result<(), KvError> {
        if node.serialized_size() > self.node_bytes {
            return Err(KvError::Config(format!(
                "node image {} exceeds node_bytes {}",
                node.serialized_size(),
                self.node_bytes
            )));
        }
        self.pager
            .write(id, node.encode(self.node_bytes))
            .map_err(KvError::from)
    }

    fn alloc_node(&mut self) -> Result<NodeId, KvError> {
        self.pager
            .alloc(self.node_bytes as u64)
            .map_err(KvError::from)
    }

    // ------------------------------------------------------------------
    // Leaf application
    // ------------------------------------------------------------------

    /// Apply `(key, seq)`-sorted messages over sorted entries; returns the
    /// change in live-key count.
    fn apply_to_entries(
        entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
        msgs: &[Message],
        merge: &dyn MergeOperator,
    ) -> i64 {
        crate::node::apply_msgs_to_entries(entries, msgs, merge)
    }

    // ------------------------------------------------------------------
    // Structural maintenance
    // ------------------------------------------------------------------

    /// Multi-way split of an oversize leaf; the node keeps the first chunk,
    /// the rest are written to fresh slots.
    ///
    /// On `Ok` the split is fully committed to cache: every sibling image
    /// is written (a surfaced device fault comes back in the deferred
    /// slot, the bytes still landed) and the `(pivot, id)` pairs must be
    /// adopted by the caller. On `Err` the node is restored untouched and
    /// nothing was written.
    fn split_leaf(&mut self, node: &mut BeNode) -> SplitOutcome {
        let BeNode::Leaf { entries } = node else {
            unreachable!()
        };
        let target = (self.node_bytes * 3) / 4;
        let all = std::mem::take(entries);
        let mut chunks: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
        let mut cur: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut bytes = NODE_HEADER_BYTES;
        for (k, v) in all {
            let sz = LEAF_ENTRY_OVERHEAD + k.len() + v.len();
            if !cur.is_empty() && bytes + sz > target {
                chunks.push(std::mem::take(&mut cur));
                bytes = NODE_HEADER_BYTES;
            }
            bytes += sz;
            cur.push((k, v));
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        if chunks.len() == 1 {
            // One entry too large to split further.
            *entries = chunks.pop().expect("one chunk");
            if node.serialized_size() > self.node_bytes {
                return Err(KvError::Config("single entry exceeds node_bytes".into()));
            }
            return Ok((vec![], None));
        }
        // Alloc every sibling slot up front so an allocator failure can
        // abort cleanly before anything is written.
        let mut ids = Vec::with_capacity(chunks.len() - 1);
        for _ in 1..chunks.len() {
            match self.alloc_node() {
                Ok(id) => ids.push(id),
                Err(e) => {
                    for id in ids {
                        self.pager.free(id, self.node_bytes as u64);
                    }
                    let BeNode::Leaf { entries } = node else {
                        unreachable!()
                    };
                    *entries = chunks.concat();
                    return Err(e);
                }
            }
        }
        let mut iter = chunks.into_iter();
        *entries = iter.next().expect("at least one chunk");
        let mut out = Vec::new();
        let mut deferred = None;
        for (chunk, id) in iter.zip(ids) {
            let pivot = chunk[0].0.clone();
            if let Err(e) = self.write_node(id, &BeNode::Leaf { entries: chunk }) {
                // The image still landed in cache; surface the fault once
                // the structure is consistent.
                deferred.get_or_insert(e);
            }
            out.push((pivot, id));
        }
        Ok((out, deferred))
    }

    /// Multi-way split of an internal node by per-child byte groups
    /// (structural + buffer); buffers travel with their children, so no
    /// draining is needed.
    ///
    /// Same commit contract as [`Self::split_leaf`]: `Ok` means fully
    /// committed to cache (deferred slot carries any surfaced sibling
    /// write fault), `Err` means the node was left untouched.
    fn split_internal(&mut self, node: &mut BeNode) -> SplitOutcome {
        let BeNode::Internal {
            pivots,
            children,
            buffers,
        } = node
        else {
            unreachable!()
        };
        let n = children.len();
        if n < 2 {
            return Err(KvError::Config(
                "cannot split a 1-child internal node".into(),
            ));
        }
        // Per-child cost: child ptr + buffer + (pivot preceding it).
        let child_cost: Vec<usize> = (0..n)
            .map(|i| {
                8 + buffers[i].iter().map(Message::footprint).sum::<usize>()
                    + if i > 0 { 4 + pivots[i - 1].len() } else { 0 }
            })
            .collect();
        let target = (self.node_bytes * 3) / 4;
        // Cap group arity at the target fanout so fanout-triggered splits
        // produce conforming parts even when every child is tiny.
        let arity_cap = (self.max_fanout / 2).max(2);
        let mut groups: Vec<usize> = Vec::new(); // split boundaries (start of each group)
        groups.push(0);
        let mut acc = NODE_HEADER_BYTES;
        for (i, &c) in child_cost.iter().enumerate() {
            let last = *groups.last().expect("nonempty");
            if i > last && (acc + c > target || i - last >= arity_cap) {
                groups.push(i);
                acc = NODE_HEADER_BYTES;
            }
            acc += c;
        }
        if groups.len() == 1 {
            return Err(KvError::Config(
                "internal node cannot be split into fitting parts (keys/buffers too large)".into(),
            ));
        }
        // Build and validate every part before touching the node, so any
        // failure below aborts with the node untouched.
        let mut parts: Vec<(Vec<u8>, BeNode)> = Vec::new();
        for (gi, &start) in groups.iter().enumerate() {
            let end = groups.get(gi + 1).copied().unwrap_or(n);
            let part = BeNode::Internal {
                pivots: pivots[start..end - 1].to_vec(),
                children: children[start..end].to_vec(),
                buffers: buffers[start..end].to_vec(),
            };
            if part.serialized_size() > self.node_bytes {
                return Err(KvError::Config("split part still oversize".into()));
            }
            if gi > 0 {
                parts.push((pivots[start - 1].clone(), part));
            }
        }
        let mut ids = Vec::with_capacity(parts.len());
        for _ in 0..parts.len() {
            match self.alloc_node() {
                Ok(id) => ids.push(id),
                Err(e) => {
                    for id in ids {
                        self.pager.free(id, self.node_bytes as u64);
                    }
                    return Err(e);
                }
            }
        }
        // Commit: truncate the node to group 0 and write the siblings
        // (their images land in cache even when the device surfaces a
        // fault).
        let first_end = groups.get(1).copied().unwrap_or(n);
        let BeNode::Internal {
            pivots,
            children,
            buffers,
        } = node
        else {
            unreachable!()
        };
        pivots.truncate(first_end - 1);
        children.truncate(first_end);
        buffers.truncate(first_end);
        let mut out = Vec::new();
        let mut deferred = None;
        for ((pivot, part), id) in parts.into_iter().zip(ids) {
            if let Err(e) = self.write_node(id, &part) {
                deferred.get_or_insert(e);
            }
            out.push((pivot, id));
        }
        Ok((out, deferred))
    }

    /// Route `(key, seq)`-sorted `msgs` into an internal node's per-child
    /// buffers.
    fn route_into_buffers(node: &mut BeNode, msgs: Vec<Message>) {
        let BeNode::Internal {
            pivots, buffers, ..
        } = node
        else {
            unreachable!()
        };
        let mut idx = 0usize;
        let mut pending: Vec<Vec<Message>> = vec![Vec::new(); buffers.len()];
        for m in msgs {
            while idx < pivots.len() && pivots[idx].as_slice() <= m.key.as_slice() {
                idx += 1;
            }
            // Messages are key-sorted, so idx only moves forward — but a
            // message for an earlier child can't appear. (Route fresh for
            // safety if order were violated.)
            debug_assert!(idx == pivots.partition_point(|p| p.as_slice() <= m.key.as_slice()));
            pending[idx].push(m);
        }
        for (i, p) in pending.into_iter().enumerate() {
            if !p.is_empty() {
                let existing = std::mem::take(&mut buffers[i]);
                buffers[i] = buffer_merge(existing, p);
            }
        }
    }

    /// Deliver messages into the subtree rooted at `id`; new right
    /// siblings for the caller to adopt are pushed onto `out`.
    ///
    /// Commit contract: on `Err` with `*committed == false`, neither the
    /// subtree's cache state nor `self.count` changed — the caller still
    /// owns `msgs` and must put them back. On `Err` with
    /// `*committed == true`, the delivery fully landed in cache
    /// (including any siblings pushed onto `out`, which the caller must
    /// still adopt) and the error reports an already-absorbed device
    /// fault.
    fn apply_msgs_to_child(
        &mut self,
        id: NodeId,
        msgs: Vec<Message>,
        out: &mut Vec<(Vec<u8>, NodeId)>,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        let _flush = self.obs.as_ref().map(|o| o.descend("betree.drain"));
        let mut node = self.read_node(id)?;
        let count_before = self.count;
        match &mut node {
            BeNode::Leaf { entries } => {
                let delta = Self::apply_to_entries(entries, &msgs, self.merge.as_ref());
                self.count = (self.count as i64 + delta) as u64;
            }
            BeNode::Internal { .. } => {
                Self::route_into_buffers(&mut node, msgs);
            }
        }
        let result = self.fix_and_write(id, &mut node, out, committed);
        if result.is_err() && !*committed {
            // Clean abort: the leaf delta (if any) was never persisted and
            // the messages will be redelivered — don't count them twice.
            self.count = count_before;
        }
        result
    }

    /// Restore invariants on `node` and persist it; any new right
    /// siblings produced by splits are pushed onto `out` for the caller
    /// to adopt.
    ///
    /// Same commit contract as [`Self::apply_msgs_to_child`]. Callers may
    /// pre-set `*committed = true` to force persistence of in-memory
    /// changes they have already made to `node`.
    fn fix_and_write(
        &mut self,
        id: NodeId,
        node: &mut BeNode,
        out: &mut Vec<(Vec<u8>, NodeId)>,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        let mut deferred: Option<KvError> = None;
        let mut force_split = false;
        let splits = loop {
            let size = node.serialized_size();
            let buffered = node.buffer_bytes();
            match node {
                BeNode::Leaf { .. } => {
                    if size <= self.node_bytes {
                        break Vec::new();
                    }
                    match self.split_leaf(node) {
                        Ok((s, d)) => {
                            deferred = deferred.or(d);
                            break s;
                        }
                        Err(e) => {
                            // split_leaf restored the node; if committed
                            // changes are pending, persist them best-effort
                            // before reporting.
                            if *committed {
                                let _ = self.write_node(id, node);
                            }
                            return Err(deferred.unwrap_or(e));
                        }
                    }
                }
                BeNode::Internal {
                    children, buffers, ..
                } => {
                    let fanout_ok = children.len() <= self.max_fanout;
                    if size <= self.node_bytes && fanout_ok {
                        break Vec::new();
                    }
                    if !fanout_ok || buffered == 0 || force_split {
                        match self.split_internal(node) {
                            Ok((s, d)) => {
                                deferred = deferred.or(d);
                                break s;
                            }
                            Err(e) => {
                                if *committed {
                                    let _ = self.write_node(id, node);
                                }
                                return Err(deferred.unwrap_or(e));
                            }
                        }
                    }
                    // Flush the child with the most buffered bytes (§3:
                    // "typically v is chosen to be the child with the most
                    // pending messages").
                    let idx = buffers
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, b)| b.iter().map(Message::footprint).sum::<usize>())
                        .map(|(i, _)| i)
                        .expect("internal node has children");
                    let child_id = children[idx];
                    let msgs = std::mem::take(&mut buffers[idx]);
                    let mut child_out = Vec::new();
                    let mut child_committed = false;
                    match self.apply_msgs_to_child(
                        child_id,
                        msgs.clone(),
                        &mut child_out,
                        &mut child_committed,
                    ) {
                        Ok(()) => {
                            // The child absorbed the batch; this node's
                            // emptied buffer must now be persisted.
                            *committed = true;
                        }
                        Err(e) if child_committed => {
                            // Delivery landed despite a surfaced fault;
                            // adopt the child's siblings below and keep
                            // fixing — report the fault once consistent.
                            *committed = true;
                            deferred.get_or_insert(e);
                        }
                        Err(e) => {
                            // Subtree untouched: the taken buffer is the
                            // only copy of acked updates — put it back.
                            let BeNode::Internal { buffers, .. } = node else {
                                unreachable!()
                            };
                            let existing = std::mem::take(&mut buffers[idx]);
                            buffers[idx] = buffer_merge(existing, msgs);
                            if !*committed {
                                // Nothing changed anywhere; clean abort.
                                return Err(e);
                            }
                            // Earlier cascades committed, so this node must
                            // be persisted — but cascading again would pick
                            // the same failing child. Split instead so the
                            // node fits, then write it out.
                            deferred.get_or_insert(e);
                            force_split = true;
                            continue;
                        }
                    }
                    let BeNode::Internal {
                        pivots,
                        children,
                        buffers,
                    } = node
                    else {
                        unreachable!()
                    };
                    for (off, (pivot, cid)) in child_out.into_iter().enumerate() {
                        pivots.insert(idx + off, pivot);
                        children.insert(idx + 1 + off, cid);
                        buffers.insert(idx + 1 + off, Vec::new());
                    }
                }
            }
        };
        // Commit point: any split siblings are already in cache; hand them
        // to the caller, then write this node (the image lands in cache
        // even when the device surfaces a fault).
        out.extend(splits);
        *committed = true;
        let write = self.write_node(id, node);
        match deferred {
            Some(e) => Err(e),
            None => write,
        }
    }

    /// Grow the root when it splits.
    fn grow_root(&mut self, splits: Vec<(Vec<u8>, NodeId)>) -> Result<(), KvError> {
        if splits.is_empty() {
            return Ok(());
        }
        let mut pivots = Vec::with_capacity(splits.len());
        let mut children = vec![self.root];
        for (p, id) in splits {
            pivots.push(p);
            children.push(id);
        }
        let buffers = vec![Vec::new(); children.len()];
        let new_root = self.alloc_node()?;
        // Commit the new root even when its write surfaces a fault (the
        // image lands in cache either way): the old root must not keep
        // masking the freshly written siblings.
        let write = self.write_node(
            new_root,
            &BeNode::Internal {
                pivots,
                children,
                buffers,
            },
        );
        self.root = new_root;
        self.height += 1;
        write
    }

    // ------------------------------------------------------------------
    // Message entry
    // ------------------------------------------------------------------

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

    fn enqueue(&mut self, key: &[u8], op: Operation) -> Result<(), KvError> {
        self.entry_fits(key, op.payload_len())?;
        let msg = Message {
            seq: self.next_seq,
            key: key.to_vec(),
            op,
        };
        self.next_seq += 1;
        let root = self.root;
        let page = self.read_page(root)?;
        let view = parse_node(root, &page)?;
        if let BeNodeView::Internal { .. } = view {
            // The common case: the root absorbs the message with no flush
            // or split, so splice it into a copy of the cached image.
            let edit = BufferEdit::new(&page, view, &msg).map_err(|e| corrupt_node(root, e))?;
            if edit.fits(self.node_bytes, self.max_fanout) {
                let mut image = page.to_vec();
                edit.apply(&mut image);
                return self.pager.write(root, image).map_err(KvError::from);
            }
        }
        let mut node = view.to_node();
        let count_before = self.count;
        match &mut node {
            BeNode::Leaf { entries } => {
                let delta = Self::apply_to_entries(
                    entries,
                    std::slice::from_ref(&msg),
                    self.merge.as_ref(),
                );
                self.count = (self.count as i64 + delta) as u64;
            }
            BeNode::Internal { .. } => {
                let idx = node.route(&msg.key);
                let BeNode::Internal { buffers, .. } = &mut node else {
                    unreachable!()
                };
                buffer_insert(&mut buffers[idx], msg);
            }
        }
        let mut splits = Vec::new();
        let mut root_committed = false;
        let result = self.fix_and_write(root, &mut node, &mut splits, &mut root_committed);
        if result.is_err() && !root_committed {
            // Clean abort: the cache root is unchanged and the op is not
            // acked — undo the in-memory count delta so a redrive doesn't
            // double-count it.
            self.count = count_before;
            return result;
        }
        // Even a fault-carrying Err is committed here: adopt root splits
        // before reporting it, or the new siblings become unreachable.
        let grow = self.grow_root(splits);
        result.and(grow)
    }

    /// Upsert: merge `delta` into the key's value via the configured
    /// [`MergeOperator`] — the blind-write fast path WODs exist for.
    pub fn upsert(&mut self, key: &[u8], delta: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.enqueue(key, Operation::Upsert(delta.to_vec())))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn get_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let mut collected: Vec<Message> = Vec::new();
        let mut id = self.root;
        let mut depth = 0u32;
        loop {
            let _lvl = self.obs.as_ref().map(|o| o.span_at("betree.level", depth));
            depth += 1;
            let page = self.read_page(id)?;
            match parse_node(id, &page)? {
                BeNodeView::Leaf(entries) => {
                    collected.sort_by_key(|m| m.seq);
                    return Ok(replay(entries.get(key), &collected, self.merge.as_ref()));
                }
                BeNodeView::Internal {
                    pivots,
                    children,
                    buffers,
                } => {
                    let idx = pivots.route(key);
                    let buf = buffers.get(idx).ok_or_else(|| {
                        corrupt_node(id, CodecError::Invalid("missing message buffer"))
                    })?;
                    collected.extend(buf.for_key(key).map(|m| m.to_message()));
                    id = BeNodeView::child(children, idx);
                }
            }
        }
    }

    fn range_rec(
        &mut self,
        id: NodeId,
        start: &[u8],
        end: &[u8],
        inherited: Vec<Message>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend("betree.level"));
        let page = self.read_page(id)?;
        match parse_node(id, &page)? {
            BeNodeView::Leaf(entries) => {
                // Every inherited message lies in [start, end), so applying
                // them to the window alone is a virtual view of the leaf
                // restricted to the query (the leaf itself is not persisted).
                let mut window: Vec<(Vec<u8>, Vec<u8>)> = entries
                    .range(start, end)
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect();
                Self::apply_to_entries(&mut window, &inherited, self.merge.as_ref());
                out.extend(window);
                Ok(())
            }
            BeNodeView::Internal {
                pivots,
                children,
                buffers,
            } => {
                // Child i holds keys in [pivots[i-1], pivots[i]).
                let mut child_lo: Option<&[u8]> = None;
                let mut uppers = pivots.iter();
                for (i, buffer) in buffers.iter().enumerate() {
                    let child_hi = uppers.next();
                    let lower_ok = child_lo.is_none_or(|l| l < end);
                    let upper_ok = child_hi.is_none_or(|h| h > start);
                    if lower_ok && upper_ok {
                        // Messages for this child: inherited ones in range
                        // plus the child's buffer slice in range.
                        let in_child = |k: &[u8]| {
                            k >= start
                                && k < end
                                && child_lo.is_none_or(|l| k >= l)
                                && child_hi.is_none_or(|h| k < h)
                        };
                        let inherited_in: Vec<Message> = inherited
                            .iter()
                            .filter(|m| in_child(&m.key))
                            .cloned()
                            .collect();
                        let buffered_in: Vec<Message> = buffer
                            .iter()
                            .filter(|m| in_child(m.key))
                            .map(|m| m.to_message())
                            .collect();
                        let child_msgs = buffer_merge(inherited_in, buffered_in);
                        self.range_rec(
                            BeNodeView::child(children, i),
                            start,
                            end,
                            child_msgs,
                            out,
                        )?;
                    }
                    child_lo = child_hi;
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Drain (exact counting / checkpointing)
    // ------------------------------------------------------------------

    /// Push every buffered message down to the leaves.
    pub fn drain_all(&mut self) -> Result<(), KvError> {
        let root = self.root;
        let mut splits = Vec::new();
        let result = self.drain_rec(root, &mut splits);
        // Siblings pushed onto `splits` are committed in cache even when
        // the drain errored partway — adopt them before reporting.
        let grow = self.grow_root(splits);
        result.and(grow)
    }

    /// Drain the subtree rooted at `id`; new right siblings are pushed
    /// onto `out`. Whatever is in `out` on return — `Ok` or `Err` — is
    /// committed in cache and must be adopted by the caller.
    fn drain_rec(&mut self, id: NodeId, out: &mut Vec<(Vec<u8>, NodeId)>) -> Result<(), KvError> {
        let _flush = self.obs.as_ref().map(|o| o.descend("betree.drain"));
        let mut node = self.read_node(id)?;
        if node.is_leaf() {
            return Ok(());
        }
        // Whether committed subtree changes (emptied buffers, adopted
        // splits) make persisting this node mandatory.
        let mut dirty = false;
        let adopt = |node: &mut BeNode, at: usize, sibs: Vec<(Vec<u8>, NodeId)>| {
            let BeNode::Internal {
                pivots,
                children,
                buffers,
            } = node
            else {
                unreachable!()
            };
            for (off, (pivot, cid)) in sibs.into_iter().enumerate() {
                pivots.insert(at + off, pivot);
                children.insert(at + 1 + off, cid);
                buffers.insert(at + 1 + off, Vec::new());
            }
        };
        // Flush every nonempty buffer, restarting whenever splits reshuffle
        // child indices.
        loop {
            let BeNode::Internal {
                children, buffers, ..
            } = &mut node
            else {
                unreachable!()
            };
            let Some(idx) = buffers.iter().position(|b| !b.is_empty()) else {
                break;
            };
            let child_id = children[idx];
            let msgs = std::mem::take(&mut buffers[idx]);
            let mut child_out = Vec::new();
            let mut child_committed = false;
            let result = self.apply_msgs_to_child(
                child_id,
                msgs.clone(),
                &mut child_out,
                &mut child_committed,
            );
            if let Err(e) = result {
                if child_committed {
                    dirty = true;
                    adopt(&mut node, idx, child_out);
                } else {
                    let BeNode::Internal { buffers, .. } = &mut node else {
                        unreachable!()
                    };
                    let existing = std::mem::take(&mut buffers[idx]);
                    buffers[idx] = buffer_merge(existing, msgs);
                }
                if dirty {
                    let mut committed = true;
                    let _ = self.fix_and_write(id, &mut node, out, &mut committed);
                }
                return Err(e);
            }
            dirty = true;
            adopt(&mut node, idx, child_out);
        }
        // Recurse into (now stable) children. Splits from child `i` shift
        // every later child right, so walk by live index, not a snapshot.
        let mut i = 0usize;
        loop {
            let cid = {
                let BeNode::Internal { children, .. } = &node else {
                    unreachable!()
                };
                match children.get(i) {
                    Some(&c) => c,
                    None => break,
                }
            };
            let mut child_out = Vec::new();
            let result = self.drain_rec(cid, &mut child_out);
            let adopted = child_out.len();
            if adopted > 0 {
                dirty = true;
            }
            adopt(&mut node, i, child_out);
            if let Err(e) = result {
                if dirty {
                    let mut committed = true;
                    let _ = self.fix_and_write(id, &mut node, out, &mut committed);
                }
                return Err(e);
            }
            // New siblings are already drained subtrees — skip past them.
            i += 1 + adopted;
        }
        let mut committed = dirty;
        self.fix_and_write(id, &mut node, out, &mut committed)
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Build a tree bottom-up from strictly ascending pairs.
    pub fn bulk_load(
        device: SharedDevice,
        cfg: BeTreeConfig,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<Self, KvError> {
        let fanout = cfg.fanout;
        let bulk_fill = cfg.bulk_fill;
        let mut tree = BeTree::create(device, cfg)?;
        let leaf_target = (tree.node_bytes as f64 * bulk_fill) as usize;

        let mut level: Vec<(Vec<u8>, NodeId)> = Vec::new();
        let mut cur: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut bytes = NODE_HEADER_BYTES;
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
            let sz = LEAF_ENTRY_OVERHEAD + k.len() + v.len();
            if !cur.is_empty() && bytes + sz > leaf_target {
                let id = tree.alloc_node()?;
                let first = cur[0].0.clone();
                tree.write_node(
                    id,
                    &BeNode::Leaf {
                        entries: std::mem::take(&mut cur),
                    },
                )?;
                level.push((first, id));
                bytes = NODE_HEADER_BYTES;
            }
            bytes += sz;
            cur.push((k, v));
            count += 1;
        }
        if !cur.is_empty() {
            let id = tree.alloc_node()?;
            let first = cur[0].0.clone();
            tree.write_node(id, &BeNode::Leaf { entries: cur })?;
            level.push((first, id));
        }
        if level.is_empty() {
            return Ok(tree);
        }

        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Vec<(Vec<u8>, NodeId)> = Vec::new();
            for group in level.chunks(fanout.max(2)) {
                let first = group[0].0.clone();
                let pivots: Vec<Vec<u8>> = group[1..].iter().map(|(k, _)| k.clone()).collect();
                let children: Vec<NodeId> = group.iter().map(|(_, id)| *id).collect();
                let buffers = vec![Vec::new(); children.len()];
                let id = tree.alloc_node()?;
                tree.write_node(
                    id,
                    &BeNode::Internal {
                        pivots,
                        children,
                        buffers,
                    },
                )?;
                next.push((first, id));
            }
            level = next;
            height += 1;
        }

        let built_root = level[0].1;
        tree.pager.free(tree.root, tree.node_bytes as u64);
        tree.root = built_root;
        tree.height = height;
        tree.count = count;
        tree.flush()?;
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // Invariants (test support)
    // ------------------------------------------------------------------

    /// Verify structural invariants; returns leaf-entry count.
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
        if node.serialized_size() > self.node_bytes {
            return Err(KvError::Corrupt(format!("node {id} oversize")));
        }
        let in_bounds =
            |k: &[u8]| -> bool { !(lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h)) };
        match node {
            BeNode::Leaf { entries } => {
                if level != 1 {
                    return Err(KvError::Corrupt(format!("leaf {id} at level {level}")));
                }
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(KvError::Corrupt(format!("leaf {id} unsorted")));
                    }
                }
                for (k, _) in &entries {
                    if !in_bounds(k) {
                        return Err(KvError::Corrupt(format!("leaf {id} key out of bounds")));
                    }
                }
                Ok(entries.len() as u64)
            }
            BeNode::Internal {
                pivots,
                children,
                buffers,
            } => {
                if level < 2 {
                    return Err(KvError::Corrupt(format!("internal {id} at leaf level")));
                }
                if children.len() != pivots.len() + 1 || buffers.len() != children.len() {
                    return Err(KvError::Corrupt(format!("internal {id} arity mismatch")));
                }
                for w in pivots.windows(2) {
                    if w[0] >= w[1] {
                        return Err(KvError::Corrupt(format!("internal {id} pivots unsorted")));
                    }
                }
                for (i, buf) in buffers.iter().enumerate() {
                    let blo = if i == 0 {
                        lo
                    } else {
                        Some(pivots[i - 1].as_slice())
                    };
                    let bhi = if i == pivots.len() {
                        hi
                    } else {
                        Some(pivots[i].as_slice())
                    };
                    for w in buf.windows(2) {
                        if (w[0].key.as_slice(), w[0].seq) >= (w[1].key.as_slice(), w[1].seq) {
                            return Err(KvError::Corrupt(format!("internal {id} buffer unsorted")));
                        }
                    }
                    for m in buf {
                        if blo.is_some_and(|l| m.key.as_slice() < l)
                            || bhi.is_some_and(|h| m.key.as_slice() >= h)
                        {
                            return Err(KvError::Corrupt(format!(
                                "internal {id} buffered message out of child range"
                            )));
                        }
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

impl PagedDict for BeTree {
    fn pager_and_obs(&mut self) -> (&mut Pager, Option<&Obs>) {
        (&mut self.pager, self.obs.as_ref())
    }
}

impl Dictionary for BeTree {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.enqueue(key, Operation::Put(value.to_vec())))
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.enqueue(key, Operation::Delete))
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // The whole batch rides the message path: every op lands in the
        // root buffer (triggering flush cascades only when it fills), and
        // one cost window covers the batch — this is the amortization the
        // serving engine's per-shard write batching exists to buy.
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
                t.range_rec(t.root, start, end, Vec::new(), &mut out)?;
            }
            Ok(out)
        })
    }

    fn last_op_cost(&self) -> OpCost {
        self.pager.last_op_cost()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        // Durability contract: a successful sync leaves a superblock from
        // which `open` recovers this exact state.
        self.in_op(Self::persist)
    }

    /// Exact live-key count; drains all buffered messages first (O(N) IO).
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

    fn tree(node_bytes: usize, fanout: usize) -> BeTree {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        BeTree::create(dev, BeTreeConfig::new(node_bytes, fanout, 1 << 20)).unwrap()
    }

    #[test]
    fn surfaced_faults_never_lose_acked_updates() {
        // Regression (found by dam-check): a fault during a buffer-flush
        // cascade used to drop the message batch taken from the parent's
        // buffer. Mutations are retried until Ok; the final state must
        // match a shadow map exactly.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(200)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut t = BeTree::create(dev, BeTreeConfig::new(2048, 4, 1 << 16)).unwrap();
        switch.set(FaultMode::Probabilistic {
            num: 1,
            denom: 48,
            seed: 11,
        });
        let mut shadow: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
            std::collections::BTreeMap::new();
        let mut rng = 0x9e37_79b9u64;
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
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            key_from_u64(i).to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }

    #[test]
    fn empty_tree() {
        let mut t = tree(1024, 4);
        assert_eq!(t.get(b"x").unwrap(), None);
        assert_eq!(t.len().unwrap(), 0);
        assert!(t.range(b"a", b"z").unwrap().is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree(1024, 4);
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
    fn insert_get_through_many_flushes() {
        let mut t = tree(1024, 4);
        for i in 0..2000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        assert!(t.height() >= 3, "height {}", t.height());
        t.check_invariants().unwrap();
        for i in (0..2000).step_by(37) {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.len().unwrap(), 2000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_insertion_order() {
        let mut t = tree(1024, 4);
        // Deterministic pseudo-random permutation of 0..1000.
        let mut keys: Vec<u64> = (0..1000).map(|i| (i * 739) % 1000).collect();
        keys.dedup();
        for &i in &keys {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.check_invariants().unwrap();
        for &i in &keys {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v));
        }
    }

    #[test]
    fn overwrite_latest_wins() {
        let mut t = tree(1024, 4);
        let (k, _) = kv(7);
        for round in 0..100u32 {
            t.insert(&k, &round.to_le_bytes()).unwrap();
        }
        assert_eq!(t.get(&k).unwrap(), Some(99u32.to_le_bytes().to_vec()));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn delete_via_tombstone() {
        let mut t = tree(1024, 4);
        for i in 0..500 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in (0..500).step_by(2) {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        for i in 0..500 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 { None } else { Some(v) };
            assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
        }
        assert_eq!(t.len().unwrap(), 250);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_everything() {
        let mut t = tree(1024, 4);
        for i in 0..300 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in 0..300 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        assert_eq!(t.len().unwrap(), 0);
        for i in 0..300 {
            let (k, _) = kv(i);
            assert_eq!(t.get(&k).unwrap(), None);
        }
    }

    #[test]
    fn delete_of_absent_key_is_noop() {
        let mut t = tree(1024, 4);
        let (k0, v0) = kv(1);
        t.insert(&k0, &v0).unwrap();
        t.delete(&key_from_u64(999)).unwrap();
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn upsert_counters_accumulate() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let mut cfg = BeTreeConfig::new(1024, 4, 1 << 20);
        cfg.merge = Box::new(CounterMerge);
        let mut t = BeTree::create(dev, cfg).unwrap();
        let (k, _) = kv(3);
        for _ in 0..10 {
            t.upsert(&k, &5u64.to_le_bytes()).unwrap();
        }
        let got = t.get(&k).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 50);
    }

    #[test]
    fn upserts_spanning_flushes() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let mut cfg = BeTreeConfig::new(1024, 4, 1 << 20);
        cfg.merge = Box::new(CounterMerge);
        let mut t = BeTree::create(dev, cfg).unwrap();
        // Interleave hot-key upserts with bulk traffic that forces flushes.
        let (hot, _) = kv(500);
        for i in 0..1000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
            if i % 3 == 0 {
                t.upsert(&hot, &1u64.to_le_bytes()).unwrap();
            }
        }
        let got = t.get(&hot).unwrap().unwrap();
        let n = u64::from_le_bytes(got[..8].try_into().unwrap());
        // The Put at i = 500 (seq order!) overwrites the 167 upserts queued
        // before it; the 167 upserts with i in (500, 999] merge over its
        // value bytes, which CounterMerge reads as a u64.
        let base = {
            let (_, v) = kv(500);
            let mut a = [0u8; 8];
            a.copy_from_slice(&v[..8]);
            u64::from_le_bytes(a)
        };
        assert_eq!(n, base.wrapping_add(167));
    }

    #[test]
    fn range_sees_through_buffers() {
        let mut t = tree(2048, 4);
        // Insert enough that some messages are still buffered high in the
        // tree, then range over everything.
        for i in 0..800 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        let out = t.range(&key_from_u64(100), &key_from_u64(120)).unwrap();
        assert_eq!(out.len(), 20);
        for (j, (k, v)) in out.iter().enumerate() {
            let (ek, ev) = kv(100 + j as u64);
            assert_eq!((k, v), (&ek, &ev));
        }
    }

    #[test]
    fn range_sees_buffered_deletes() {
        let mut t = tree(2048, 4);
        for i in 0..400 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.drain_all().unwrap();
        // Freshly buffered tombstones, not yet at leaves.
        for i in 100..110 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        let out = t.range(&key_from_u64(95), &key_from_u64(115)).unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|(k, _)| dam_kv::key_to_u64(k).unwrap())
            .collect();
        assert_eq!(keys, vec![95, 96, 97, 98, 99, 110, 111, 112, 113, 114]);
    }

    #[test]
    fn drain_moves_everything_to_leaves() {
        let mut t = tree(1024, 4);
        for i in 0..500 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.drain_all().unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.count, 500, "after drain, all keys live at leaves");
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let pairs: Vec<_> = (0..2000).map(kv).collect();
        let mut t =
            BeTree::bulk_load(dev, BeTreeConfig::new(1024, 4, 1 << 20), pairs.clone()).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 2000);
        for (k, v) in pairs.iter().step_by(97) {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        // Mutate after bulk load.
        for i in 0..100 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        assert_eq!(t.len().unwrap(), 1900);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        assert!(matches!(
            BeTree::bulk_load(dev, BeTreeConfig::new(1024, 4, 1 << 20), vec![kv(2), kv(1)]),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn insert_cost_amortizes_below_btree() {
        // The write-optimization claim: amortized insert IO (bytes written
        // per insert) is far below one node write per insert.
        let mut t = tree(4096, 8);
        let n = 5000u64;
        for i in 0..n {
            let (k, v) = kv((i * 2654435761) % (1 << 30));
            t.insert(&k, &v).unwrap();
        }
        t.flush().unwrap();
        let written = t.pager().counters().bytes_written;
        let per_insert = written as f64 / n as f64;
        // A B-tree would write >= 4096 bytes per insert (whole node) in the
        // worst case; the betree should amortize to a fraction of a node.
        assert!(
            per_insert < 4096.0,
            "bytes written per insert {per_insert} should be below one node"
        );
    }

    #[test]
    fn cost_accounting_reports_io() {
        let mut t = tree(1024, 4);
        for i in 0..1000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.drop_cache().unwrap();
        let (k, _) = kv(777);
        t.get(&k).unwrap();
        let c = t.last_op_cost();
        assert!(
            c.ios as u32 >= t.height() - 1,
            "cold query should read the path"
        );
        assert!(c.io_time_ns > 0);
    }

    #[test]
    fn persist_and_open_roundtrip() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        {
            let mut t = BeTree::create(dev.clone(), BeTreeConfig::new(1024, 4, 1 << 20)).unwrap();
            for i in 0..1200 {
                let (k, v) = kv(i);
                t.insert(&k, &v).unwrap();
            }
            for i in 0..100 {
                let (k, _) = kv(i * 2);
                t.delete(&k).unwrap();
            }
            t.persist().unwrap();
        }
        let mut reopened = BeTree::open(dev, BeTreeConfig::new(1024, 4, 1 << 20)).unwrap();
        reopened.check_invariants().unwrap();
        assert_eq!(reopened.len().unwrap(), 1100);
        for i in 0..1200 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 && i < 200 { None } else { Some(v) };
            assert_eq!(reopened.get(&k).unwrap(), expect, "key {i}");
        }
        // Sequence numbers keep advancing: a new overwrite beats old state.
        let (k, _) = kv(500);
        reopened.insert(&k, b"fresh").unwrap();
        assert_eq!(reopened.get(&k).unwrap(), Some(b"fresh".to_vec()));
    }

    #[test]
    fn open_blank_device_errors() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 20, SimDuration(1000))));
        assert!(matches!(
            BeTree::open(dev, BeTreeConfig::new(1024, 4, 1 << 16)),
            Err(KvError::Corrupt(_))
        ));
    }

    #[test]
    fn open_rejects_a_different_fanout() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 20, SimDuration(1000))));
        let mut t = BeTree::create(dev.clone(), BeTreeConfig::new(1024, 4, 1 << 16)).unwrap();
        t.insert(b"k", b"v").unwrap();
        t.persist().unwrap();
        drop(t);
        // Fanout 4 stores max_fanout 8; fanout 3 would route with 6.
        assert!(matches!(
            BeTree::open(dev.clone(), BeTreeConfig::new(1024, 3, 1 << 16)),
            Err(KvError::Config(_))
        ));
        let mut t = BeTree::open(dev, BeTreeConfig::new(1024, 4, 1 << 16)).unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn sqrt_fanout_config() {
        let cfg = BeTreeConfig::sqrt_fanout(1 << 20, 116, 1 << 20);
        // B_entries ≈ 9039, F ≈ 96.
        assert!((90..=100).contains(&cfg.fanout), "fanout {}", cfg.fanout);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree(512, 4);
        assert!(matches!(
            t.insert(b"k", &vec![0u8; 600]),
            Err(KvError::Config(_))
        ));
    }

    /// Regression (dam-check): `len` drains buffered messages, so its IO
    /// must be attributed to `last_op_cost` — and a failed operation must
    /// report zero cost rather than the previous operation's numbers.
    #[test]
    fn len_and_failed_ops_follow_cost_contract() {
        let mut t = tree(1024, 4);
        for i in 0..800 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        // Cold cache: the drain inside `len` must hit the device.
        t.drop_cache().unwrap();
        assert_eq!(t.len().unwrap(), 800);
        assert!(t.last_op_cost().ios > 0, "len's drain should be attributed");
        let err = t.insert(b"big", &vec![0u8; 2048]);
        assert!(matches!(err, Err(KvError::Config(_))));
        assert_eq!(t.last_op_cost(), OpCost::default(), "failed op is free");
    }
}
