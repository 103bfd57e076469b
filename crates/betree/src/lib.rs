//! Bε-trees over the simulated storage stack — the write-optimized
//! dictionary of §3 and §6 — as one engine ([`Engine`]) with two node
//! layouts ([`Layout`]).
//!
//! Inserts and deletes enter the root buffer as sequenced messages; when a
//! node's buffers outgrow what its layout allows, the buffered messages for
//! a child are *flushed* one level down, cascading as needed. Queries read
//! a root-to-leaf path and replay pending messages over the leaf value.
//!
//! # Whole-node layout ([`BeTree`])
//!
//! The textbook structure (and what TokuDB implements): internal nodes hold
//! pivots, children, and a per-child message buffer; the whole node is one
//! IO of `node_bytes`. When a node's image overflows its slot, the fullest
//! child's buffer is flushed. This is the structure Figure 3 measures and
//! Lemma 8 analyzes: query cost `(1 + αB)·log_F(N/M)`.
//!
//! # Segmented layout ([`OptBeTree`], Theorem 9)
//!
//! The paper's improved design changes only the layout. Every node is a
//! slot of `2F` fixed-size *segments* of `B/2F` bytes:
//!
//! * segment `j` of an internal node holds a [`ChildDesc`]: the address and
//!   routing keys (pivots) of child `j` **plus** the messages pending for
//!   child `j`'s subtree — "we store the pivots of a node outside of that
//!   node — specifically in the node's parent";
//! * segment `j` of a leaf holds a sorted run of key-value pairs (a
//!   *subleaf* — TokuDB's "basement node").
//!
//! A query therefore reads exactly **one segment per level** — cost
//! `1 + α(B/F + F·key)` instead of `1 + αB` — while flushes still move
//! batches of messages at full node granularity: each buffer has one
//! segment of budget, and every child over it is flushed. This removes the
//! insert/query node-size trade-off (Corollaries 10–12).
//!
//! Deviations from the paper, both documented in DESIGN.md: balance is
//! maintained by bottom-up splits rather than weight-balanced subtree
//! rebuilds (same asymptotics, different constants on the rebalance term),
//! and deletions leave sparse leaves rather than triggering merges.

pub mod layout;
pub mod node;
pub mod segment;
pub mod tree;

pub use layout::{BeTreeConfig, Layout, OptConfig, Segmented, WholeNode};
pub use node::{BeNodeView, BufferEdit};
pub use segment::ChildDesc;
pub use tree::{BeTree, Engine, OptBeTree};
