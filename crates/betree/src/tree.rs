//! The Bε engine: one Bε-tree over either node layout.
//!
//! Inserts and deletes become sequenced messages. They enter the root's
//! buffer, and when a node's buffers outgrow what its layout allows, a
//! *flush* moves a child's messages one level down, cascading as needed;
//! a node that no longer fits its slot splits. Queries walk a root-to-leaf
//! path and replay the pending messages over the leaf value. Everything
//! here is shared; the [`Layout`] decides where pivots live, how buffer
//! budgets are counted, how many chunks a leaf holds and what one read
//! fetches.
//!
//! # Fault contract
//!
//! A flush either aborts cleanly, leaving the subtree, its descriptor and
//! the live-key count exactly as they were, or it *commits*: its writes
//! landed in the cache (a write lands even when the device surfaces a
//! fault) and any error is reported after the fact. Writes are ordered so
//! that this holds: a split allocates every new slot before it writes
//! anything, writes the new siblings, and rewrites its own node last.
//! After a committed failure nothing more is flushed; a buffer the node
//! can no longer hold moves up into the buffer above it, up to the root's
//! buffer in memory, so no acknowledged message is ever dropped. An
//! operation whose flush aborts cleanly is refused, and its message is
//! taken back out of the root's buffer.

use crate::layout::{Body, Entries, Layout, Node, PartView, Segmented, WholeNode};
use crate::node::{apply_msgs_to_entries, buffer_insert, buffer_merge};
use crate::segment::ChildDesc;
use dam_cache::{Pager, PagerError};
use dam_kv::codec::{pair_size, Record, NODE_HEADER_BYTES};
use dam_kv::msg::{replay, Message, Operation};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedDict};
use dam_storage::SharedDevice;

/// The standard Bε-tree: whole-node IOs (see [`WholeNode`]).
pub type BeTree = Engine<WholeNode>;

/// The Theorem-9 Bε-tree: segment-granular queries (see [`Segmented`]).
pub type OptBeTree = Engine<Segmented>;

/// New right siblings from splits, `(separator, descriptor)`, for the
/// caller to adopt.
type Siblings = Vec<(Vec<u8>, ChildDesc)>;

/// A Bε-tree whose nodes are laid out by `L` (see the module docs).
pub struct Engine<L: Layout> {
    pager: Pager,
    layout: L,
    /// The root's descriptor: its slot and, in a layout that keeps pivots
    /// in the parent, its pivots and the buffer above it (held in memory
    /// and written to the superblock).
    root: ChildDesc,
    height: u32,
    /// Live keys at the leaves (pending messages not yet counted).
    count: u64,
    next_seq: u64,
    obs: Option<Obs>,
}

/// Split `(key, seq)`-sorted messages into one group per part of a node
/// routed by `pivots`.
fn partition(msgs: Vec<Message>, pivots: &[Vec<u8>]) -> Vec<Vec<Message>> {
    let mut groups: Vec<Vec<Message>> = (0..=pivots.len()).map(|_| Vec::new()).collect();
    let mut j = 0usize;
    for m in msgs {
        while j < pivots.len() && pivots[j].as_slice() <= m.key.as_slice() {
            j += 1;
        }
        groups[j].push(m);
    }
    groups
}

/// Insert the siblings a child at `at` split off right after it.
fn adopt(node: &mut Node, at: usize, siblings: Siblings) {
    let Body::Internal(kids) = &mut node.body else {
        unreachable!("only internal nodes adopt")
    };
    for (off, (sep, desc)) in siblings.into_iter().enumerate() {
        node.pivots.insert(at + off, sep);
        kids.insert(at + 1 + off, desc);
    }
}

fn in_range(key: &[u8], start: &[u8], end: &[u8]) -> bool {
    key >= start && key < end
}

/// Cuts a sorted stream of pairs into leaf chunks of at most `target`
/// bytes (a chunk holds at least one pair).
struct Chunker {
    target: usize,
    cur: Entries,
    bytes: usize,
}

impl Chunker {
    fn new(target: usize) -> Self {
        Chunker {
            target,
            cur: Vec::new(),
            bytes: NODE_HEADER_BYTES,
        }
    }

    /// Add a pair; returns the chunk it closed, if any.
    fn push(&mut self, k: Vec<u8>, v: Vec<u8>) -> Option<Entries> {
        let sz = pair_size(&k, &v);
        let mut done = None;
        if !self.cur.is_empty() && self.bytes + sz > self.target {
            done = Some(std::mem::take(&mut self.cur));
            self.bytes = NODE_HEADER_BYTES;
        }
        self.bytes += sz;
        self.cur.push((k, v));
        done
    }

    fn finish(self) -> Option<Entries> {
        (!self.cur.is_empty()).then_some(self.cur)
    }
}

impl<L: Layout> Engine<L> {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: L::Config) -> Result<Self, KvError> {
        let (layout, cache_bytes) = L::from_config(cfg)?;
        Self::with_layout(device, layout, cache_bytes)
    }

    fn with_layout(device: SharedDevice, layout: L, cache_bytes: u64) -> Result<Self, KvError> {
        let mut pager = Pager::try_new(device, cache_bytes, layout.superblock_bytes())?;
        let addr = pager.alloc(layout.node_bytes() as u64)?;
        let mut tree = Engine {
            pager,
            layout,
            root: ChildDesc::new(addr, true),
            height: 1,
            count: 0,
            next_seq: 1,
            obs: None,
        };
        let empty = Node {
            pivots: Vec::new(),
            body: Body::Leaf(vec![Vec::new()]),
        };
        tree.layout.write(&mut tree.pager, &mut tree.root, &empty)?;
        Ok(tree)
    }

    /// Reopen a tree previously [`Engine::persist`]ed on `device`. The
    /// config's shape (node size and fanout) must match the device's.
    pub fn open(device: SharedDevice, cfg: L::Config) -> Result<Self, KvError> {
        let (layout, cache_bytes) = L::from_config(cfg)?;
        let mut pager = Pager::try_new(device, cache_bytes, layout.superblock_bytes())?;
        let meta = L::SUPERBLOCK.read(&mut pager, |r| layout.get_meta(r))?;
        Ok(Engine {
            pager,
            layout,
            root: meta.root,
            height: meta.height,
            count: meta.count,
            next_seq: meta.next_seq,
            obs: None,
        })
    }

    /// Node slot size (`B`).
    pub fn node_bytes(&self) -> usize {
        self.layout.node_bytes()
    }

    /// Tree height in node levels (a lone leaf node = 1).
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
    /// [`Engine::open`] can reconstruct the tree on this device. In the
    /// segmented layout the superblock carries the root's descriptor,
    /// buffered messages included.
    pub fn persist(&mut self) -> Result<(), KvError> {
        if self.layout.over_budget(&self.root) {
            // Only a failed flush leaves the root buffer over its budget,
            // and the superblock holds at most one segment of it (none in
            // the whole-node layout): push it down first.
            self.flush_root(&mut false)?;
        }
        self.flush()?;
        let (layout, root) = (&self.layout, &self.root);
        let (height, count, next_seq) = (self.height, self.count, self.next_seq);
        L::SUPERBLOCK.write(&mut self.pager, |w| {
            layout.put_meta(w, root, height, count, next_seq)
        })
    }

    /// Attach an observability registry: query descents open per-level
    /// `<layout>.level` spans, buffer flushes open `<layout>.drain` spans,
    /// and every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Flush and empty the cache.
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        self.pager.drop_cache().map_err(KvError::from)
    }

    // ------------------------------------------------------------------
    // Writes and the flush cascade
    // ------------------------------------------------------------------

    fn enqueue(&mut self, key: &[u8], op: Operation) -> Result<(), KvError> {
        self.layout.entry_fits(key, op.payload_len())?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = Message {
            seq,
            key: key.to_vec(),
            op,
        };
        buffer_insert(&mut self.root.msgs, msg);
        if !self.layout.over_budget(&self.root) {
            return Ok(());
        }
        let mut committed = false;
        let result = self.flush_root(&mut committed);
        if result.is_err() && !committed {
            // A clean abort: refuse the write and leave the tree exactly as
            // it was, so a persistent fault costs each later write one
            // bounded attempt, not a retry over an ever larger buffer.
            self.root.msgs.retain(|m| m.seq != seq);
            self.next_seq = seq;
        }
        result
    }

    /// Push the root's buffer into the root node, growing the tree when the
    /// root splits.
    fn flush_root(&mut self, committed: &mut bool) -> Result<(), KvError> {
        let mut root = self.take_root();
        let mut siblings = Vec::new();
        let result = if L::PIVOTS_IN_PARENT {
            self.flush_child(&mut root, &mut siblings, committed)
        } else {
            // The whole-node root has no buffer above it: a message goes
            // straight into the root node, the op's own write, not a flush.
            self.deliver(&mut root, &mut siblings, committed)
        };
        self.root = root;
        // Siblings are committed even when the flush reported an error:
        // adopt them before reporting it, or they become unreachable.
        let grow = self.grow_root(siblings);
        result.and(grow)
    }

    /// Move the root's descriptor out for a cascade, leaving its address
    /// behind so a split can tell the root from other nodes.
    fn take_root(&mut self) -> ChildDesc {
        let stand_in = ChildDesc::new(self.root.addr, true);
        std::mem::replace(&mut self.root, stand_in)
    }

    /// Slots kept free for the committed end of a cascade: a node whose
    /// children were already rewritten must be written, so its split, its
    /// ancestors' and the new root above them must find room. A split that
    /// can still abort cleanly leaves them untouched.
    fn reserve(&self) -> u64 {
        4 * (self.height as u64 + 1)
    }

    /// [`Self::deliver`] under a drain span.
    fn flush_child(
        &mut self,
        desc: &mut ChildDesc,
        out: &mut Siblings,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        if desc.msgs.is_empty() {
            return Ok(());
        }
        let _flush = self.obs.as_ref().map(|o| o.descend(L::DRAIN_SPAN));
        self.deliver(desc, out, committed)
    }

    /// Deliver `desc.msgs` into the node `desc` describes. New right
    /// siblings are pushed onto `out` for the caller to adopt.
    ///
    /// On an error with `*committed` still false, nothing beneath `desc`
    /// changed: `desc` and the live-key count are restored exactly. With
    /// `*committed` set, the subtree was rewritten: `desc` and `out`
    /// describe what the cache holds, `desc.msgs` holds whatever could not
    /// be delivered, and the error is reported after the fact.
    fn deliver(
        &mut self,
        desc: &mut ChildDesc,
        out: &mut Siblings,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        if desc.msgs.is_empty() {
            return Ok(());
        }
        let backup = desc.clone();
        let count_before = self.count;
        let result = self.deliver_inner(desc, out, committed);
        if result.is_err() && !*committed {
            *desc = backup;
            self.count = count_before;
        }
        result
    }

    fn deliver_inner(
        &mut self,
        desc: &mut ChildDesc,
        out: &mut Siblings,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        let page = self.layout.fetch(&mut self.pager, desc)?;
        if let [msg] = desc.msgs.as_slice() {
            if let Some(edit) = self.layout.absorb(&page, desc.addr, msg)? {
                desc.msgs.clear();
                *committed = true;
                return self
                    .pager
                    .edit(page, |image| edit.apply(image))
                    .map_err(KvError::from);
            }
        }
        let mut node = self.layout.decode(&page, desc)?;
        drop(page);
        let groups = partition(std::mem::take(&mut desc.msgs), &node.pivots);
        match &mut node.body {
            Body::Leaf(chunks) => {
                for (chunk, group) in chunks.iter_mut().zip(groups) {
                    if !group.is_empty() {
                        let delta = apply_msgs_to_entries(chunk, &group);
                        self.count = (self.count as i64 + delta) as u64;
                    }
                }
            }
            Body::Internal(kids) => {
                for (kid, group) in kids.iter_mut().zip(groups) {
                    if !group.is_empty() {
                        kid.msgs = buffer_merge(std::mem::take(&mut kid.msgs), group);
                    }
                }
            }
        }
        self.finish(desc, node, Vec::new(), out, committed)
    }

    /// Flush the children of `node` that its layout picks — over budget,
    /// or, when `draining`, the ones the layout flushes before descending —
    /// adopting their splits. After a committed failure the remaining
    /// picks are not flushed: their buffers move to `spilled`, for the
    /// buffer above this node. A clean failure before anything committed
    /// returns at once.
    fn relieve(
        &mut self,
        node: &mut Node,
        spilled: &mut Vec<Message>,
        committed: &mut bool,
        draining: bool,
    ) -> Result<(), KvError> {
        let mut deferred = None;
        let mut from = 0;
        while let Some(i) = self.layout.pick(node, from, draining && deferred.is_none()) {
            let Body::Internal(kids) = &mut node.body else {
                unreachable!("only internal nodes have children to pick")
            };
            if deferred.is_some() {
                *spilled = buffer_merge(std::mem::take(spilled), std::mem::take(&mut kids[i].msgs));
                from = i + 1;
                continue;
            }
            let mut kid_out = Vec::new();
            let mut kid_committed = false;
            let result = self.flush_child(&mut kids[i], &mut kid_out, &mut kid_committed);
            let k = kid_out.len();
            adopt(node, i, kid_out);
            match result {
                Ok(()) => {
                    *committed = true;
                    from = i + 1 + k;
                }
                Err(e) if kid_committed || *committed => {
                    // From here this node must be written to stay in step
                    // with its children; revisit the failed child, which
                    // may hold more than its budget now.
                    *committed = true;
                    deferred = Some(e);
                    from = i;
                }
                Err(e) => return Err(e),
            }
        }
        deferred.map_or(Ok(()), Err)
    }

    /// Relieve `node`'s over-budget children, then write it back to
    /// `desc`'s slot, splitting it when it does not fit. `spilled`
    /// messages, and any a failed flush below leaves behind, go back to
    /// `desc.msgs`.
    fn finish(
        &mut self,
        desc: &mut ChildDesc,
        mut node: Node,
        mut spilled: Vec<Message>,
        out: &mut Siblings,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        let relieved = self.relieve(&mut node, &mut spilled, committed, false);
        if relieved.is_err() && !*committed {
            return relieved;
        }
        if !spilled.is_empty() {
            desc.msgs = buffer_merge(std::mem::take(&mut desc.msgs), spilled);
        }
        // A failed write of this node is the graver error: its image no
        // longer describes the children beneath it.
        self.persist_node(desc, node, out, committed).and(relieved)
    }

    /// Write `node` to `desc`'s slot, splitting it first when it does not
    /// fit. The split allocates every new slot before writing anything
    /// (an allocation failure aborts cleanly), writes the new siblings,
    /// and rewrites this node last.
    fn persist_node(
        &mut self,
        desc: &mut ChildDesc,
        node: Node,
        out: &mut Siblings,
        committed: &mut bool,
    ) -> Result<(), KvError> {
        if self.layout.fits(&node) {
            *committed = true;
            return self.layout.write(&mut self.pager, desc, &node);
        }
        let is_leaf = node.is_leaf();
        let parts = self.split(node);
        if parts.iter().any(|(_, p)| !self.layout.fits(p)) {
            return Err(KvError::Config(
                "node cannot be split into fitting parts (entries, keys or buffers too large)"
                    .into(),
            ));
        }
        // A root split will also need the slot of the new root above it.
        let wanted = parts.len() - 1 + usize::from(desc.addr == self.root.addr);
        let node_bytes = self.layout.node_bytes() as u64;
        if !*committed && self.pager.available(node_bytes) < wanted as u64 + self.reserve() {
            return Err(PagerError::OutOfSpace.into());
        }
        let mut addrs = Vec::with_capacity(parts.len() - 1);
        for _ in 1..parts.len() {
            match self.pager.alloc(node_bytes) {
                Ok(addr) => addrs.push(addr),
                Err(e) => {
                    for addr in addrs {
                        self.pager.free(addr, node_bytes);
                    }
                    return Err(e.into());
                }
            }
        }
        let mut parts = parts.into_iter();
        let (_, own) = parts.next().expect("a split has a first part");
        let mut siblings = Vec::with_capacity(addrs.len());
        let mut deferred = None;
        for ((sep, part), addr) in parts.zip(addrs) {
            let mut sib = ChildDesc::new(addr, is_leaf);
            if let Err(e) = self.layout.write(&mut self.pager, &mut sib, &part) {
                deferred.get_or_insert(e);
            }
            siblings.push((sep, sib));
        }
        // Commit point. Messages still buffered above this node (a failed
        // cascade's undelivered ones) follow their keys into the parts.
        *committed = true;
        for (sep, sib) in siblings.iter_mut().rev() {
            let at = desc.msgs.partition_point(|m| m.key < *sep);
            sib.msgs = desc.msgs.split_off(at);
        }
        out.extend(siblings);
        let own = self.layout.write(&mut self.pager, desc, &own);
        deferred.map_or(own, Err)
    }

    /// Cut a node that does not fit into parts, each with the separator
    /// that precedes it (empty for the first).
    fn split(&self, node: Node) -> Vec<(Vec<u8>, Node)> {
        match node.body {
            Body::Leaf(chunks) => self.split_leaf(chunks),
            Body::Internal(_) => self.split_internal(node),
        }
    }

    /// Repack a leaf's pairs into chunks of three quarters of the layout's
    /// chunk budget, `chunks_per_node` chunks to a node.
    fn split_leaf(&self, chunks: Vec<Entries>) -> Vec<(Vec<u8>, Node)> {
        let mut chunker = Chunker::new(self.layout.chunk_bytes() * 3 / 4);
        let mut all: Vec<Entries> = chunks
            .into_iter()
            .flatten()
            .filter_map(|(k, v)| chunker.push(k, v))
            .collect();
        all.extend(chunker.finish());
        if all.is_empty() {
            all.push(Vec::new());
        }
        let mut parts = Vec::new();
        let mut all = all.into_iter().peekable();
        while all.peek().is_some() {
            let group: Vec<Entries> = all.by_ref().take(self.layout.chunks_per_node()).collect();
            let sep = group[0].first().map(|(k, _)| k.clone()).unwrap_or_default();
            let pivots = group[1..].iter().map(|c| c[0].0.clone()).collect();
            let body = Body::Leaf(group);
            parts.push((sep, Node { pivots, body }));
        }
        parts
    }

    /// Cut an internal node into groups of at most `F` children and of at
    /// most three quarters of a node's bytes; buffers travel with their
    /// children.
    fn split_internal(&self, node: Node) -> Vec<(Vec<u8>, Node)> {
        let target = self.layout.node_bytes() * 3 / 4;
        let mut starts = vec![0usize];
        let mut acc = NODE_HEADER_BYTES;
        for i in 0..=node.pivots.len() {
            let bytes = self.layout.kid_bytes(&node, i);
            let last = *starts.last().expect("nonempty");
            if i > last && (acc + bytes > target || i - last >= self.layout.fanout()) {
                starts.push(i);
                acc = NODE_HEADER_BYTES;
            }
            acc += bytes;
        }
        let Node { mut pivots, body } = node;
        let Body::Internal(mut kids) = body else {
            unreachable!("split_internal of a leaf")
        };
        let mut parts = Vec::with_capacity(starts.len());
        for &s in starts.iter().skip(1).rev() {
            let body = Body::Internal(kids.split_off(s));
            let mut rest = pivots.split_off(s - 1);
            let sep = rest.remove(0);
            parts.push((sep, Node { pivots: rest, body }));
        }
        let body = Body::Internal(kids);
        parts.push((Vec::new(), Node { pivots, body }));
        parts.reverse();
        parts
    }

    /// Grow the root when it splits.
    fn grow_root(&mut self, siblings: Siblings) -> Result<(), KvError> {
        if siblings.is_empty() {
            return Ok(());
        }
        let addr = self.pager.alloc(self.layout.node_bytes() as u64)?;
        let old = std::mem::replace(&mut self.root, ChildDesc::new(addr, false));
        let mut pivots = Vec::with_capacity(siblings.len());
        let mut kids = vec![old];
        for (sep, desc) in siblings {
            pivots.push(sep);
            kids.push(desc);
        }
        // Messages a failed cascade left above the old root stay above the
        // new one, where no segment budget applies.
        for kid in &mut kids {
            self.root.msgs.append(&mut kid.msgs);
        }
        self.height += 1;
        // The new root is committed even when its write surfaces a fault
        // (the image lands in cache either way): the old root must not keep
        // masking the freshly written siblings.
        let node = Node {
            pivots,
            body: Body::Internal(kids),
        };
        self.layout.write(&mut self.pager, &mut self.root, &node)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn get_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let root = &self.root;
        let mut collected: Vec<Message> = root
            .msgs
            .iter()
            .skip_while(|m| m.key.as_slice() < key)
            .take_while(|m| m.key.as_slice() == key)
            .cloned()
            .collect();
        let (mut addr, mut is_leaf, mut seg) = (root.addr, root.is_leaf, root.route(key));
        let mut depth = 0u32;
        loop {
            let _lvl = self.obs.as_ref().map(|o| o.span_at(L::LEVEL_SPAN, depth));
            depth += 1;
            let page = self.layout.read_for_query(&mut self.pager, addr, seg)?;
            match self.layout.part_for_key(&page, addr, seg, is_leaf, key)? {
                PartView::Pairs(entries) => {
                    collected.sort_by_key(|m| m.seq);
                    return Ok(replay(entries.get(key), &collected));
                }
                PartView::Kid {
                    addr: next,
                    is_leaf: leaf,
                    pivots,
                    msgs,
                } => {
                    collected.extend(msgs.for_key(key).map(|m| m.owned()));
                    (addr, is_leaf) = (next, leaf);
                    seg = pivots.map_or(0, |p| p.route(key));
                }
            }
        }
    }

    /// Range scan of the node at `addr`: `held` are its pivots when the
    /// layout keeps them in the parent, and `pending` the messages buffered
    /// above it, restricted to the query and `(key, seq)`-sorted. A
    /// whole-node layout reads the node once here; a segmented one reads
    /// each overlapping segment in [`Self::range_parts`].
    #[allow(clippy::too_many_arguments)]
    fn range_rec(
        &mut self,
        addr: u64,
        is_leaf: bool,
        held: &[&[u8]],
        pending: Vec<Message>,
        start: &[u8],
        end: &[u8],
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        let _lvl = self.obs.as_ref().map(|o| o.descend(L::LEVEL_SPAN));
        if L::PIVOTS_IN_PARENT {
            let no_parts = std::iter::empty();
            return self.range_parts(
                addr,
                is_leaf,
                held.iter().copied(),
                no_parts,
                pending,
                start,
                end,
                out,
            );
        }
        let page = self.layout.read_for_query(&mut self.pager, addr, 0)?;
        let (pivots, parts) = self.layout.parts(&page, addr, 0, is_leaf)?;
        self.range_parts(addr, is_leaf, pivots, parts, pending, start, end, out)
    }

    /// The parts of the node at `addr` that overlap `[start, end)`, routed
    /// by `pivots`: taken from `parts` in key order, or, when it runs dry,
    /// read one segment at a time.
    #[allow(clippy::too_many_arguments)]
    fn range_parts<'p>(
        &mut self,
        addr: u64,
        is_leaf: bool,
        pivots: impl Iterator<Item = &'p [u8]>,
        mut parts: impl Iterator<Item = PartView<'p>>,
        pending: Vec<Message>,
        start: &[u8],
        end: &[u8],
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        let mut pending = pending.into_iter().peekable();
        let mut lo: Option<&[u8]> = None;
        for (j, hi) in pivots.map(Some).chain(std::iter::once(None)).enumerate() {
            // The pending messages routed to part j.
            let mut group = Vec::new();
            while let Some(m) = pending.next_if(|m| hi.is_none_or(|h| m.key.as_slice() < h)) {
                group.push(m);
            }
            let overlaps = lo.is_none_or(|l| l < end) && hi.is_none_or(|h| h > start);
            lo = hi;
            let next = parts.next();
            if !overlaps {
                debug_assert!(group.is_empty());
                continue;
            }
            let seg_page;
            let part = match next {
                Some(part) => part,
                None => {
                    seg_page = self.layout.read_for_query(&mut self.pager, addr, j)?;
                    self.layout
                        .part_for_key(&seg_page, addr, j, is_leaf, start)?
                }
            };
            match part {
                PartView::Pairs(entries) => {
                    // Every pending message lies in [start, end), so the
                    // window alone is a virtual view of the chunk
                    // restricted to the query.
                    let mut window: Vec<(Vec<u8>, Vec<u8>)> = entries
                        .range(start, end)
                        .map(|(k, v)| (k.to_vec(), v.to_vec()))
                        .collect();
                    apply_msgs_to_entries(&mut window, &group);
                    out.extend(window);
                }
                PartView::Kid {
                    addr: kid,
                    is_leaf: leaf,
                    pivots: kid_pivots,
                    msgs,
                } => {
                    let own = msgs
                        .iter()
                        .filter(|m| in_range(m.key, start, end))
                        .map(|m| m.owned())
                        .collect();
                    let kid_pivots: Vec<&[u8]> =
                        kid_pivots.map(|p| p.iter().collect()).unwrap_or_default();
                    let msgs = buffer_merge(group, own);
                    self.range_rec(kid, leaf, &kid_pivots, msgs, start, end, out)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Drain (exact counting / checkpointing)
    // ------------------------------------------------------------------

    /// Push every buffered message down to the leaves.
    pub fn drain_all(&mut self) -> Result<(), KvError> {
        let mut root = self.take_root();
        let mut siblings = Vec::new();
        let result = self.drain(&mut root, &mut siblings);
        self.root = root;
        // As in a write, committed splits must be adopted even when the
        // drain surfaced an error partway down.
        let grow = self.grow_root(siblings);
        result.and(grow)
    }

    /// Drain `desc`'s buffer and its whole subtree. Splits produced along
    /// the way are pushed onto `out`; whether the drain succeeds or not,
    /// they are committed nodes the caller must adopt.
    fn drain(&mut self, desc: &mut ChildDesc, out: &mut Siblings) -> Result<(), KvError> {
        let mut siblings = Vec::new();
        if let Err(e) = self.flush_child(desc, &mut siblings, &mut false) {
            out.extend(siblings);
            return Err(e);
        }
        if !(L::PIVOTS_IN_PARENT && desc.is_leaf) {
            if let Err(e) = self.drain_node(desc, out) {
                out.extend(siblings);
                return Err(e);
            }
        }
        // Siblings the flush split off are drained too, so on success `out`
        // carries only drained subtrees. After a failure the rest are
        // handed up undrained: they are committed nodes all the same.
        let mut result = Ok(());
        for (sep, mut sib) in siblings {
            let mut more = Vec::new();
            if result.is_ok() {
                result = self.drain(&mut sib, &mut more);
            }
            out.push((sep, sib));
            out.extend(more);
        }
        result
    }

    /// Read `desc`'s node and drain every child's subtree, then write the
    /// node back. The whole-node layout first flushes every buffered child
    /// while it holds the node, as it cannot see a child's kind without
    /// reading it.
    fn drain_node(&mut self, desc: &mut ChildDesc, out: &mut Siblings) -> Result<(), KvError> {
        let _visit = if L::PIVOTS_IN_PARENT {
            None
        } else {
            self.obs.as_ref().map(|o| o.descend(L::DRAIN_SPAN))
        };
        let page = self.layout.fetch(&mut self.pager, desc)?;
        let mut node = self.layout.decode(&page, desc)?;
        drop(page);
        if node.is_leaf() {
            return Ok(());
        }
        let mut committed = false;
        let mut spilled = Vec::new();
        let mut result = self.relieve(&mut node, &mut spilled, &mut committed, true);
        if result.is_err() && !committed {
            return result;
        }
        if result.is_ok() {
            // Splits from child i shift every later child right, so walk by
            // live index.
            let mut i = 0usize;
            loop {
                let Body::Internal(kids) = &mut node.body else {
                    unreachable!()
                };
                let Some(kid) = kids.get_mut(i) else { break };
                let mut kid_out = Vec::new();
                let kid_result = self.drain(kid, &mut kid_out);
                let k = kid_out.len();
                adopt(&mut node, i, kid_out);
                if let Err(e) = kid_result {
                    // The child may have rewritten itself: write this node
                    // so the descriptors it stores stay in step.
                    result = Err(e);
                    break;
                }
                // New siblings are already drained subtrees.
                i += 1 + k;
            }
            committed = true;
        }
        self.finish(desc, node, spilled, out, &mut committed)
            .and(result)
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Build a tree bottom-up from strictly ascending pairs.
    pub fn bulk_load(
        device: SharedDevice,
        cfg: L::Config,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<Self, KvError> {
        let (layout, cache_bytes) = L::from_config(cfg)?;
        let mut tree = Self::with_layout(device, layout, cache_bytes)?;
        let per_node = tree.layout.chunks_per_node();
        let mut chunker = Chunker::new((tree.layout.chunk_bytes() as f64 * L::BULK_FILL) as usize);
        let mut group: Vec<Entries> = Vec::new();
        let mut level: Siblings = Vec::new();
        let mut count = 0u64;
        let mut last: Option<Vec<u8>> = None;
        for (k, v) in pairs {
            if last.as_ref().is_some_and(|prev| *prev >= k) {
                return Err(KvError::Config(
                    "bulk_load input not strictly ascending".into(),
                ));
            }
            last = Some(k.clone());
            tree.layout.entry_fits(&k, v.len())?;
            count += 1;
            if let Some(chunk) = chunker.push(k, v) {
                group.push(chunk);
                if group.len() == per_node {
                    tree.bulk_leaf(std::mem::take(&mut group), &mut level)?;
                }
            }
        }
        group.extend(chunker.finish());
        if !group.is_empty() {
            tree.bulk_leaf(group, &mut level)?;
        }
        if level.is_empty() {
            return Ok(tree);
        }
        let node_bytes = tree.layout.node_bytes() as u64;
        let arity = tree.layout.fanout().max(2);
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Siblings = Vec::new();
            let mut it = level.into_iter().peekable();
            while it.peek().is_some() {
                let mut pivots = Vec::with_capacity(arity);
                let mut kids = Vec::with_capacity(arity);
                for (sep, desc) in it.by_ref().take(arity) {
                    pivots.push(sep);
                    kids.push(desc);
                }
                let first = pivots.remove(0);
                let mut desc = ChildDesc::new(tree.pager.alloc(node_bytes)?, false);
                let node = Node {
                    pivots,
                    body: Body::Internal(kids),
                };
                tree.layout.write(&mut tree.pager, &mut desc, &node)?;
                next.push((first, desc));
            }
            level = next;
            height += 1;
        }
        let (_, root) = level.pop().expect("nonempty level");
        if !L::BULK_REUSES_ROOT {
            tree.pager.free(tree.root.addr, node_bytes);
        }
        tree.root = root;
        tree.height = height;
        tree.count = count;
        tree.flush()?;
        Ok(tree)
    }

    /// Write one bulk-loaded leaf of `chunks` and queue it for its parent.
    fn bulk_leaf(&mut self, chunks: Vec<Entries>, level: &mut Siblings) -> Result<(), KvError> {
        let first = chunks[0][0].0.clone();
        let pivots = chunks[1..].iter().map(|c| c[0].0.clone()).collect();
        let addr = if level.is_empty() && L::BULK_REUSES_ROOT {
            self.root.addr
        } else {
            self.pager.alloc(self.layout.node_bytes() as u64)?
        };
        let mut desc = ChildDesc::new(addr, true);
        let node = Node {
            pivots,
            body: Body::Leaf(chunks),
        };
        self.layout.write(&mut self.pager, &mut desc, &node)?;
        level.push((first, desc));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Invariants (test support)
    // ------------------------------------------------------------------

    /// Verify structural invariants; returns the leaf-entry count.
    pub fn check_invariants(&mut self) -> Result<u64, KvError> {
        let root = self.root.clone();
        let n = self.check(&root, self.height, None, None, true)?;
        if n != self.count {
            return Err(KvError::Corrupt(format!(
                "count mismatch: walked {n}, tracked {}",
                self.count
            )));
        }
        Ok(n)
    }

    fn check(
        &mut self,
        desc: &ChildDesc,
        level: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        is_root: bool,
    ) -> Result<u64, KvError> {
        let id = desc.addr;
        let bad = |what: &str| Err(KvError::Corrupt(format!("node {id}: {what}")));
        self.layout.check_desc(desc, is_root)?;
        let outside = |k: &[u8]| lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h);
        for w in desc.msgs.windows(2) {
            if (w[0].key.as_slice(), w[0].seq) >= (w[1].key.as_slice(), w[1].seq) {
                return bad("buffered messages unsorted");
            }
        }
        if desc.msgs.iter().any(|m| outside(&m.key)) {
            return bad("buffered message out of range");
        }
        let page = self.layout.fetch(&mut self.pager, desc)?;
        let node = self.layout.decode(&page, desc)?;
        drop(page);
        if !self.layout.fits(&node) {
            return bad("oversize");
        }
        if node.pivots.windows(2).any(|w| w[0] >= w[1]) {
            return bad("pivots unsorted");
        }
        let p = &node.pivots;
        let bounds = |j: usize| {
            (
                if j == 0 {
                    lo
                } else {
                    Some(p[j - 1].as_slice())
                },
                if j == p.len() {
                    hi
                } else {
                    Some(p[j].as_slice())
                },
            )
        };
        let mut total = 0u64;
        match &node.body {
            Body::Leaf(chunks) => {
                if level != 1 {
                    return bad("leaf above the leaf level");
                }
                for (j, chunk) in chunks.iter().enumerate() {
                    let (clo, chi) = bounds(j);
                    if chunk.windows(2).any(|w| w[0].0 >= w[1].0) {
                        return bad("leaf unsorted");
                    }
                    if chunk.iter().any(|(k, _)| {
                        clo.is_some_and(|l| k.as_slice() < l)
                            || chi.is_some_and(|h| k.as_slice() >= h)
                    }) {
                        return bad("leaf key out of range");
                    }
                    total += chunk.len() as u64;
                }
            }
            Body::Internal(kids) => {
                if level < 2 {
                    return bad("internal node at the leaf level");
                }
                if kids.len() != p.len() + 1 {
                    return bad("arity mismatch");
                }
                for (j, kid) in kids.iter().enumerate() {
                    let (clo, chi) = bounds(j);
                    total += self.check(kid, level - 1, clo, chi, false)?;
                }
            }
        }
        Ok(total)
    }
}

impl Engine<Segmented> {
    /// Segment size (the query IO unit, `≈ B/2F`).
    pub fn seg_bytes(&self) -> usize {
        self.layout.seg_bytes()
    }
}

impl<L: Layout> PagedDict for Engine<L> {
    fn pager_and_obs(&mut self) -> (&mut Pager, Option<&Obs>) {
        (&mut self.pager, self.obs.as_ref())
    }
}

impl<L: Layout> Dictionary for Engine<L> {
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
                let root = t.root.clone();
                let pending = root
                    .msgs
                    .into_iter()
                    .filter(|m| in_range(&m.key, start, end))
                    .collect();
                let pivots: Vec<&[u8]> = root.boundaries.iter().map(Vec::as_slice).collect();
                t.range_rec(
                    root.addr,
                    root.is_leaf,
                    &pivots,
                    pending,
                    start,
                    end,
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

    fn buffered_bytes(&self) -> usize {
        self.root.msgs.iter().map(Message::footprint).sum()
    }
}

#[cfg(test)]
mod tests {
    //! One suite, run once per layout (`whole_node::*` and `segmented::*`).

    use super::*;
    use crate::layout::{BeTreeConfig, OptConfig};
    use dam_kv::key_from_u64;
    use dam_storage::{FaultInjector, FaultMode, RamDisk, SimDuration};
    use std::collections::BTreeMap;

    /// The shapes each test builds, per layout.
    trait Case: Layout {
        /// The common shape: F = 4 with 1 KiB nodes, or with 512-byte
        /// segments (4 KiB nodes).
        fn cfg(cache: u64) -> Self::Config;
        /// The fault regressions' shape and seeds (fault schedule, keys).
        fn faulty() -> (Self::Config, u64, u64);
        /// The common shape with another fanout, which `open` refuses.
        fn other_fanout() -> Self::Config;
        /// A wider shape for the write-amplification bound, and the bound
        /// as a fraction of a node.
        fn wide() -> (Self::Config, usize);
        /// 4 KiB nodes with F = 4 and a 64 KiB cache: the device-full probe.
        fn probe() -> Self::Config;
        /// Height that 3,000 sequential inserts reach at least.
        const GROWN: u32;
        /// Bytes one query read fetches.
        fn query_bytes(t: &Engine<Self>) -> usize;
    }

    impl Case for WholeNode {
        fn cfg(cache: u64) -> BeTreeConfig {
            BeTreeConfig::new(1024, 4, cache)
        }
        fn faulty() -> (BeTreeConfig, u64, u64) {
            (BeTreeConfig::new(2048, 4, 1 << 16), 11, 0x9e37_79b9)
        }
        fn other_fanout() -> BeTreeConfig {
            // Fanout 4 stores max_fanout 8; fanout 3 would route with 6.
            BeTreeConfig::new(1024, 3, 1 << 16)
        }
        fn wide() -> (BeTreeConfig, usize) {
            (BeTreeConfig::new(4096, 8, 1 << 20), 1)
        }
        fn probe() -> BeTreeConfig {
            BeTreeConfig::new(4096, 4, 64 << 10)
        }
        const GROWN: u32 = 3;
        fn query_bytes(t: &Engine<Self>) -> usize {
            t.node_bytes()
        }
    }

    impl Case for Segmented {
        fn cfg(cache: u64) -> OptConfig {
            OptConfig::new(4, 512, cache)
        }
        fn faulty() -> (OptConfig, u64, u64) {
            (OptConfig::new(4, 1024, 1 << 16), 7, 0x1234_5678)
        }
        fn other_fanout() -> OptConfig {
            OptConfig::new(8, 512, 1 << 16)
        }
        fn wide() -> (OptConfig, usize) {
            (OptConfig::new(8, 1024, 1 << 20), 2)
        }
        fn probe() -> OptConfig {
            OptConfig::new(4, 512, 64 << 10)
        }
        const GROWN: u32 = 2;
        fn query_bytes(t: &Engine<Self>) -> usize {
            t.seg_bytes()
        }
    }

    macro_rules! per_layout {
        ($($name:ident),* $(,)?) => {
            mod whole_node {
                $(#[test] fn $name() { super::$name::<crate::WholeNode>() })*
            }
            mod segmented {
                $(#[test] fn $name() { super::$name::<crate::Segmented>() })*
            }
        };
    }

    per_layout!(
        surfaced_faults_never_lose_acked_updates,
        internal_split_after_a_child_split_survives_a_write_fault,
        committed_child_flush_failures_keep_every_acked_key,
        device_full_refuses_writes_and_loses_no_acked_key,
        empty_tree,
        insert_get_through_growth,
        random_order_inserts,
        overwrite_latest_wins,
        tombstones_delete,
        delete_everything,
        range_sees_through_buffers,
        range_sees_buffered_deletes,
        drain_then_count_consistent,
        bulk_load_matches_incremental,
        bulk_load_rejects_unsorted,
        query_reads_one_unit_per_level,
        structural_ops_use_whole_node_ios,
        insert_amortization_beats_node_per_insert,
        cold_query_reads_the_path,
        persist_and_open_roundtrip,
        open_refuses_blank_and_mismatched_devices,
        device_smaller_than_superblock_is_a_config_error,
        oversized_entry_rejected,
        len_and_failed_ops_follow_cost_contract,
    );

    fn ram() -> SharedDevice {
        SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))))
    }

    fn tree<L: Case>() -> Engine<L> {
        Engine::create(ram(), L::cfg(1 << 20)).unwrap()
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            key_from_u64(i).to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }

    fn insert_all<L: Layout>(t: &mut Engine<L>, keys: impl IntoIterator<Item = u64>) {
        for i in keys {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
    }

    fn surfaced_faults_never_lose_acked_updates<L: Case>() {
        // Regression (found by dam-check): a device fault surfaced during a
        // buffer flush used to drop the batch taken from a buffer or leave a
        // descriptor out of step with its node image — keys vanished and
        // stale values reappeared. Every mutation is retried until it
        // reports Ok; the final state must then match a shadow map exactly.
        let (cfg, fault_seed, mut rng) = L::faulty();
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(200)));
        let mut t = Engine::<L>::create(SharedDevice::new(Box::new(inj)), cfg).unwrap();
        switch.set(FaultMode::Probabilistic {
            num: 1,
            denom: 48,
            seed: fault_seed,
        });
        let mut shadow = BTreeMap::new();
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for i in 0..4000u64 {
            let k = key_from_u64(next() % 700).to_vec();
            let insert = next() % 10 < 7;
            let v = format!("v{i:06}").into_bytes();
            let mut tries = 0;
            while let Err(e) = if insert {
                t.insert(&k, &v)
            } else {
                t.delete(&k)
            } {
                tries += 1;
                assert!(tries < 200, "op never converged: {e}");
            }
            if insert {
                shadow.insert(k, v);
            } else {
                shadow.remove(&k);
            }
        }
        switch.set(FaultMode::None);
        let want: Vec<(Vec<u8>, Vec<u8>)> = shadow.into_iter().collect();
        assert_eq!(t.range(&[], &[0xFF; 17]).unwrap(), want);
        assert_eq!(t.len().unwrap(), want.len() as u64);
        t.check_invariants().unwrap();
    }

    /// Insert `n` keys, each armed with `AfterIos(after)` and redriven on a
    /// healthy device when it fails; the final state must match, before
    /// and after a sync and reopen.
    fn redriven_inserts<L: Case>(n: u64, after: u64) {
        let (cfg, _, _) = L::faulty();
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut t = Engine::<L>::create(dev.clone(), cfg).unwrap();
        let mut shadow = BTreeMap::new();
        let mut failed = 0;
        for i in 0..n {
            let k = key_from_u64(i * 7_919 % 100_003).to_vec();
            let v = vec![(i % 251) as u8; 50];
            switch.set(FaultMode::AfterIos(after));
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
        t.sync().unwrap();
        let mut t = Engine::<L>::open(dev, L::faulty().0).unwrap();
        assert_eq!(t.range(&[], &[0xFF; 17]).unwrap(), want);
        for (k, v) in &want {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
    }

    fn internal_split_after_a_child_split_survives_a_write_fault<L: Case>() {
        // Regression: an internal split forced by a child's committed split
        // returned on the first failed sibling write, leaving the parent
        // naming more children than a node holds, and left the node's
        // undelivered messages in its left part, away from their keys.
        redriven_inserts::<L>(2_000, 1);
    }

    fn committed_child_flush_failures_keep_every_acked_key<L: Case>() {
        // Regression: a child flush that committed and then failed could
        // leave more undelivered messages than its buffer holds; the
        // parent's rewrite was refused, that error dropped, and the
        // messages vanished.
        redriven_inserts::<L>(2_000, 3);
    }

    fn device_full_refuses_writes_and_loses_no_acked_key<L: Case>() {
        // A 1 MiB device fills partway through 12,000 distinct inserts and
        // keeps refusing allocations. A write whose flush then aborts
        // cleanly is refused and leaves no trace; one whose flush committed
        // before failing is readable. Either way no acknowledged key is
        // lost, and the root buffer stays within a node.
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 20, SimDuration(100))));
        let mut t = Engine::<L>::create(dev, L::probe()).unwrap();
        let mut kept = BTreeMap::new();
        let mut refused = Vec::new();
        for i in 0..12_000u64 {
            let k = key_from_u64(i * 7_919 % 100_003).to_vec();
            let v = vec![(i % 251) as u8; 50];
            let acked = t.insert(&k, &v).is_ok();
            if acked || t.get(&k).unwrap().as_ref() == Some(&v) {
                kept.insert(k, v);
            } else {
                refused.push(k);
            }
            assert!(
                t.buffered_bytes() <= t.node_bytes(),
                "insert {i}: {} bytes buffered in memory",
                t.buffered_bytes()
            );
        }
        assert!(refused.len() > 1_000, "the device never filled");
        for (k, v) in &kept {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        for k in &refused {
            assert_eq!(t.get(k).unwrap(), None);
        }
    }

    fn empty_tree<L: Case>() {
        let mut t = tree::<L>();
        assert_eq!(t.get(b"x").unwrap(), None);
        assert_eq!(t.len().unwrap(), 0);
        assert!(t.range(b"a", b"z").unwrap().is_empty());
        t.check_invariants().unwrap();
    }

    fn insert_get_through_growth<L: Case>() {
        let mut t = tree::<L>();
        // First while everything fits the root (and its buffer).
        insert_all(&mut t, 0..50);
        for i in 0..50 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.get(&key_from_u64(50)).unwrap(), None);
        insert_all(&mut t, 50..3000);
        assert!(t.height() >= L::GROWN, "height {}", t.height());
        t.check_invariants().unwrap();
        for i in (0..3000).step_by(41) {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.len().unwrap(), 3000);
        t.check_invariants().unwrap();
    }

    fn random_order_inserts<L: Case>() {
        let mut t = tree::<L>();
        let keys: Vec<u64> = (0..1500).map(|i| (i * 1543) % 1500).collect();
        insert_all(&mut t, keys.iter().copied());
        t.check_invariants().unwrap();
        for &i in &keys {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v));
        }
        assert_eq!(t.len().unwrap(), 1500);
    }

    fn overwrite_latest_wins<L: Case>() {
        let mut t = tree::<L>();
        let (k, _) = kv(9);
        for round in 0..200u32 {
            t.insert(&k, &round.to_le_bytes()).unwrap();
        }
        assert_eq!(t.get(&k).unwrap(), Some(199u32.to_le_bytes().to_vec()));
        assert_eq!(t.len().unwrap(), 1);
    }

    fn tombstones_delete<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..800);
        for i in (0..800).step_by(3) {
            t.delete(&kv(i).0).unwrap();
        }
        for i in 0..800 {
            let (k, v) = kv(i);
            let expect = if i % 3 == 0 { None } else { Some(v) };
            assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
        }
        assert_eq!(t.len().unwrap(), 533);
        t.check_invariants().unwrap();
    }

    fn delete_everything<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..300);
        // Deleting an absent key is a no-op.
        t.delete(&key_from_u64(999)).unwrap();
        assert_eq!(t.len().unwrap(), 300);
        for i in 0..300 {
            t.delete(&kv(i).0).unwrap();
        }
        assert_eq!(t.len().unwrap(), 0);
        for i in 0..300 {
            assert_eq!(t.get(&kv(i).0).unwrap(), None);
        }
    }

    fn range_sees_through_buffers<L: Case>() {
        let mut t = tree::<L>();
        // Enough that some messages are still buffered high in the tree.
        insert_all(&mut t, 0..1000);
        for (lo, hi) in [(100u64, 120u64), (200, 260)] {
            let out = t.range(&key_from_u64(lo), &key_from_u64(hi)).unwrap();
            let want: Vec<_> = (lo..hi).map(kv).collect();
            assert_eq!(out, want);
        }
    }

    fn range_sees_buffered_deletes<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..500);
        t.drain_all().unwrap();
        // Freshly buffered tombstones, not yet at the leaves.
        for i in 200..210 {
            t.delete(&kv(i).0).unwrap();
        }
        let out = t.range(&key_from_u64(195), &key_from_u64(215)).unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|(k, _)| dam_kv::key_to_u64(k).unwrap())
            .collect();
        assert_eq!(keys, vec![195, 196, 197, 198, 199, 210, 211, 212, 213, 214]);
    }

    fn drain_then_count_consistent<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..700);
        for i in 0..100 {
            t.delete(&kv(i).0).unwrap();
        }
        t.drain_all().unwrap();
        assert_eq!(t.count, 600, "after a drain every key lives at a leaf");
        t.check_invariants().unwrap();
        // Idempotent.
        assert_eq!(t.len().unwrap(), 600);
        assert_eq!(t.len().unwrap(), 600);
    }

    fn bulk_load_matches_incremental<L: Case>() {
        let pairs: Vec<_> = (0..3000).map(kv).collect();
        let mut t = Engine::<L>::bulk_load(ram(), L::cfg(1 << 20), pairs.clone()).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 3000);
        for (k, v) in pairs.iter().step_by(113) {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        for i in 0..200 {
            t.delete(&kv(i).0).unwrap();
        }
        assert_eq!(t.len().unwrap(), 2800);
        t.check_invariants().unwrap();
    }

    fn bulk_load_rejects_unsorted<L: Case>() {
        let cfg = L::cfg(1 << 20);
        assert!(matches!(
            Engine::<L>::bulk_load(ram(), cfg, vec![kv(2), kv(1)]),
            Err(KvError::Config(_))
        ));
    }

    fn query_reads_one_unit_per_level<L: Case>() {
        // A cold query reads one node (whole-node) or one segment
        // (Theorem 9) per level, and nothing else.
        let pairs: Vec<_> = (0..20_000).map(kv).collect();
        let mut t = Engine::<L>::bulk_load(ram(), L::cfg(1 << 22), pairs).unwrap();
        t.drop_cache().unwrap();
        t.get(&kv(12_345).0).unwrap();
        let cost = t.last_op_cost();
        assert_eq!(cost.ios as u32, t.height());
        assert_eq!(
            cost.bytes_read,
            (t.height() as usize * L::query_bytes(&t)) as u64
        );
    }

    fn structural_ops_use_whole_node_ios<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..2000);
        t.flush().unwrap();
        let c = t.pager().counters();
        assert!(c.bytes_written > 0);
        assert_eq!(c.bytes_written % t.node_bytes() as u64, 0);
    }

    fn insert_amortization_beats_node_per_insert<L: Case>() {
        // The write-optimization claim: bytes written per insert stay well
        // below the one node a B-tree writes.
        let (cfg, div) = L::wide();
        let mut t = Engine::<L>::create(ram(), cfg).unwrap();
        let n = 5000u64;
        insert_all(&mut t, (0..n).map(|i| (i * 2654435761) % (1 << 30)));
        t.flush().unwrap();
        let per_insert = t.pager().counters().bytes_written as f64 / n as f64;
        let bound = (t.node_bytes() / div) as f64;
        assert!(per_insert < bound, "bytes/insert {per_insert} vs {bound}");
    }

    fn cold_query_reads_the_path<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..1000);
        t.drop_cache().unwrap();
        t.get(&kv(777).0).unwrap();
        let c = t.last_op_cost();
        assert!(
            c.ios as u32 >= t.height() - 1,
            "cold query should read the path"
        );
        assert!(c.io_time_ns > 0);
    }

    fn persist_and_open_roundtrip<L: Case>() {
        let dev = ram();
        {
            let mut t = Engine::<L>::create(dev.clone(), L::cfg(1 << 20)).unwrap();
            insert_all(&mut t, 0..1200);
            for i in 0..100 {
                t.delete(&kv(i * 2).0).unwrap();
            }
            // Persist with messages still buffered: in the segmented layout
            // the superblock carries the root's.
            t.persist().unwrap();
        }
        let mut t = Engine::<L>::open(dev, L::cfg(1 << 20)).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 1100);
        for i in 0..1200 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 && i < 200 { None } else { Some(v) };
            assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
        }
        // Sequence numbers keep advancing: a new overwrite beats old state.
        let (k, _) = kv(600);
        t.insert(&k, b"fresh").unwrap();
        assert_eq!(t.get(&k).unwrap(), Some(b"fresh".to_vec()));
    }

    fn open_refuses_blank_and_mismatched_devices<L: Case>() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 24, SimDuration(1000))));
        assert!(matches!(
            Engine::<L>::open(dev.clone(), L::cfg(1 << 16)),
            Err(KvError::Corrupt(_))
        ));
        let mut t = Engine::<L>::create(dev.clone(), L::cfg(1 << 16)).unwrap();
        t.insert(b"k", b"v").unwrap();
        t.persist().unwrap();
        drop(t);
        assert!(matches!(
            Engine::<L>::open(dev.clone(), L::other_fanout()),
            Err(KvError::Config(_))
        ));
        let mut t = Engine::<L>::open(dev, L::cfg(1 << 16)).unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    fn device_smaller_than_superblock_is_a_config_error<L: Case>() {
        let dev = || SharedDevice::new(Box::new(RamDisk::new(2048, SimDuration(1000))));
        for r in [
            Engine::<L>::create(dev(), L::cfg(1 << 16)).map(drop),
            Engine::<L>::open(dev(), L::cfg(1 << 16)).map(drop),
        ] {
            match r {
                Err(KvError::Config(msg)) => assert!(msg.contains("2048"), "{msg}"),
                other => panic!("expected a config error, got {:?}", other.err()),
            }
        }
    }

    fn oversized_entry_rejected<L: Case>() {
        let mut t = tree::<L>();
        assert!(matches!(
            t.insert(b"k", &vec![0u8; 5000]),
            Err(KvError::Config(_))
        ));
    }

    /// Regression (dam-check): `len` drains buffered messages, so its IO
    /// must be attributed to `last_op_cost` — and a failed operation must
    /// report zero cost rather than the previous operation's numbers.
    fn len_and_failed_ops_follow_cost_contract<L: Case>() {
        let mut t = tree::<L>();
        insert_all(&mut t, 0..800);
        // Cold cache: the drain inside `len` must hit the device.
        t.drop_cache().unwrap();
        assert_eq!(t.len().unwrap(), 800);
        assert!(t.last_op_cost().ios > 0, "len's drain should be attributed");
        let err = t.insert(b"big", &vec![0u8; 5000]);
        assert!(matches!(err, Err(KvError::Config(_))));
        assert_eq!(t.last_op_cost(), OpCost::default(), "failed op is free");
    }

    #[test]
    fn sqrt_fanout_config() {
        let cfg = BeTreeConfig::sqrt_fanout(1 << 20, 116, 1 << 20);
        // B_entries ≈ 9039, F ≈ 96.
        assert!((90..=100).contains(&cfg.fanout), "fanout {}", cfg.fanout);
    }

    #[test]
    fn balanced_config_shapes() {
        let cfg = OptConfig::balanced(1 << 20, 116, 1 << 20);
        // ~9039 entries → F ≈ 96, seg ≈ 5461.
        assert!((90..=100).contains(&cfg.fanout), "fanout {}", cfg.fanout);
        assert!(cfg.node_bytes() >= (1 << 20) - cfg.seg_bytes * 2);
    }
}
