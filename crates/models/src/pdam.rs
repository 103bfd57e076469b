//! The PDAM model (Definition 1): each time step the device serves up to `P`
//! IOs of size `B`; unused slots are wasted.
//!
//! Most predictive of SSDs/NVMe, whose channel/die parallelism is why deep
//! queues are required for full bandwidth (§2.2). Includes the §8 analysis:
//! the van-Emde-Boas-layout B-tree with size-`PB` nodes whose query
//! throughput is `Ω(k / log_{PB/k} N)` for any `k ≤ P` concurrent clients
//! (Lemma 13).

/// PDAM model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pdam {
    /// Device parallelism: IOs served per time step. Real devices fit
    /// fractional values (Table 1 reports 2.9–5.5), so this is an `f64`.
    pub p: f64,
    /// Block size in bytes served by one IO slot.
    pub block_bytes: f64,
}

impl Pdam {
    /// Build a PDAM.
    pub fn new(p: f64, block_bytes: f64) -> Self {
        assert!(p >= 1.0 && p.is_finite());
        assert!(block_bytes >= 1.0 && block_bytes.is_finite());
        Pdam { p, block_bytes }
    }

    /// Time steps for `threads` closed-loop clients to each complete
    /// `ios_per_thread` IOs, one outstanding IO per client.
    ///
    /// §4.1's prediction for Figure 1: constant for `threads ≤ P`, linear in
    /// `threads` beyond — `ios_per_thread · max(1, threads/P)`.
    pub fn closed_loop_steps(&self, threads: f64, ios_per_thread: f64) -> f64 {
        ios_per_thread * (threads / self.p).max(1.0)
    }

    /// Steps per query for a plain B-tree with nodes of `node_bytes` when a
    /// single client runs alone: one node (possibly several blocks, which the
    /// device can fetch in parallel up to `P`) per level.
    ///
    /// With nodes of `c·B` bytes (`c ≤ P`), each level costs
    /// `ceil(c / P)` = 1 step, and the height is `log_{node entries}(N)`.
    pub fn single_client_query_steps(
        &self,
        node_bytes: f64,
        n_items: f64,
        entry_bytes: f64,
    ) -> f64 {
        let blocks = (node_bytes / self.block_bytes).ceil().max(1.0);
        let steps_per_level = (blocks / self.p).ceil().max(1.0);
        let fanout = (node_bytes / entry_bytes).max(2.0);
        let height = (n_items.max(2.0).ln() / fanout.ln()).max(1.0);
        steps_per_level * height
    }

    /// Lemma 13: query throughput (queries per step) of a B-tree with
    /// size-`PB` nodes in a van Emde Boas layout, accessed by `k ≤ P`
    /// concurrent clients that each receive `P/k` IO slots per step.
    ///
    /// Each client traverses one vEB-laid-out node of `PB` bytes in
    /// `log_{PB/k}(PB)` steps, hence a root-to-leaf path of `log_{PB/k}(N)`
    /// steps; aggregate throughput is `k / log_{PB/k}(N)`.
    pub fn veb_tree_throughput(&self, k: f64, n_items: f64, entry_bytes: f64) -> f64 {
        let k = k.max(1.0).min(self.p);
        // Entries visible per step to one client: (P/k) blocks of entries.
        let entries_per_step = ((self.p / k) * self.block_bytes / entry_bytes).max(2.0);
        let steps_per_query = (n_items.max(2.0).ln() / entries_per_step.ln()).max(1.0);
        k / steps_per_query
    }

    /// Steps per query for a fixed-node-size B-tree under `k` concurrent
    /// clients, for comparison with the vEB design: each client gets
    /// `max(1, …)` but node loads beyond its slot share serialize.
    pub fn fixed_node_query_steps(
        &self,
        node_bytes: f64,
        k: f64,
        n_items: f64,
        entry_bytes: f64,
    ) -> f64 {
        let blocks = (node_bytes / self.block_bytes).ceil().max(1.0);
        let slots_per_client = (self.p / k.max(1.0)).max(f64::MIN_POSITIVE);
        let steps_per_level = (blocks / slots_per_client).ceil().max(1.0);
        let fanout = (node_bytes / entry_bytes).max(2.0);
        let height = (n_items.max(2.0).ln() / fanout.ln()).max(1.0);
        steps_per_level * height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_flat_then_linear() {
        let m = Pdam::new(4.0, 65536.0);
        let base = m.closed_loop_steps(1.0, 1000.0);
        assert_eq!(m.closed_loop_steps(2.0, 1000.0), base);
        assert_eq!(m.closed_loop_steps(4.0, 1000.0), base);
        assert_eq!(m.closed_loop_steps(8.0, 1000.0), 2.0 * base);
        assert_eq!(m.closed_loop_steps(64.0, 1000.0), 16.0 * base);
    }

    #[test]
    fn veb_throughput_increases_with_k() {
        let m = Pdam::new(16.0, 4096.0);
        let t1 = m.veb_tree_throughput(1.0, 1e9, 100.0);
        let t4 = m.veb_tree_throughput(4.0, 1e9, 100.0);
        let t16 = m.veb_tree_throughput(16.0, 1e9, 100.0);
        assert!(
            t1 < t4 && t4 < t16,
            "throughput should rise with k: {t1} {t4} {t16}"
        );
    }

    #[test]
    fn veb_k_clamped_to_p() {
        let m = Pdam::new(8.0, 4096.0);
        assert_eq!(
            m.veb_tree_throughput(64.0, 1e9, 100.0),
            m.veb_tree_throughput(8.0, 1e9, 100.0)
        );
    }

    #[test]
    fn veb_single_client_beats_small_fixed_nodes() {
        // With one client, a size-B node tree wastes P-1 slots per step;
        // the vEB PB-node tree uses them all.
        let m = Pdam::new(16.0, 4096.0);
        let veb = m.veb_tree_throughput(1.0, 1e9, 100.0);
        let fixed_small = 1.0 / m.fixed_node_query_steps(4096.0, 1.0, 1e9, 100.0);
        assert!(veb > fixed_small, "veb {veb} vs fixed-small {fixed_small}");
    }

    #[test]
    fn veb_many_clients_beats_big_fixed_nodes() {
        // With k = P clients, big PB nodes serialize; the vEB tree reads only
        // what it needs.
        let m = Pdam::new(16.0, 4096.0);
        let k = 16.0;
        let veb = m.veb_tree_throughput(k, 1e9, 100.0);
        let fixed_big = k / m.fixed_node_query_steps(16.0 * 4096.0, k, 1e9, 100.0);
        assert!(veb > fixed_big, "veb {veb} vs fixed-big {fixed_big}");
    }

    #[test]
    fn single_client_prefers_pb_nodes() {
        // §8: with one client, nodes of PB load in one step and halve the
        // height versus size-B nodes.
        let m = Pdam::new(16.0, 4096.0);
        let small = m.single_client_query_steps(4096.0, 1e9, 100.0);
        let big = m.single_client_query_steps(16.0 * 4096.0, 1e9, 100.0);
        assert!(
            big < small,
            "PB nodes should win for one client: {big} vs {small}"
        );
    }
}
