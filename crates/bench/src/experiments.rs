//! The per-table / per-figure experiment runners (see DESIGN.md §4 for the
//! index). Each returns structured rows; [`crate::registry`] renders them
//! in the paper's format.
//!
//! Grid-shaped experiments (node-size sweeps, per-device fits, client
//! sweeps, ablation arms) run on the deterministic parallel
//! [`crate::sweep::Sweep`] engine: every point gets an isolated
//! device/pager/dictionary stack and an RNG seed derived from
//! `(scale.seed, point index)`, results merge back in input order, and the
//! output is byte-identical at any `DAM_JOBS` worker count
//! (`tests/parallel_sweeps.rs`).

use crate::sweep::{derive_seed, Sweep};
use crate::Scale;
use dam_refinements_bench_reexports::*;
use refined_dam::stats::rng::Rng;

/// Internal re-export shim so the experiment code reads like user code.
mod dam_refinements_bench_reexports {
    pub use refined_dam::betree::{BeTree, BeTreeConfig, OptBeTree, OptConfig};
    pub use refined_dam::btree::{BTree, BTreeConfig};
    pub use refined_dam::kv::{Dictionary, WorkloadConfig, WorkloadGen};
    pub use refined_dam::lsm::{LsmConfig, LsmTree};
    pub use refined_dam::models::{
        betree_costs, btree_costs, conversions, sensitivity, Affine, DictShape,
    };
    pub use refined_dam::profiler::{
        fig1_thread_counts, profile_affine, profile_pdam, table2_io_sizes,
    };
    pub use refined_dam::storage::profiles;
    pub use refined_dam::storage::{HddDevice, SsdDevice};
    pub use refined_dam::tuner::tune_for_affine;
    pub use refined_dam::veb::sim::TreeDesign;
    pub use refined_dam::veb::{run_pdam_sim, PdamSimConfig};
}

/// The geometric grid `lo, lo·step, … ≤ hi` used by the node-size sweeps.
fn geometric_sizes(lo: usize, hi: usize, step: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = lo;
    while b <= hi {
        out.push(b);
        b *= step;
    }
    out
}

// ----------------------------------------------------------------------
// Figure 1 + Table 1
// ----------------------------------------------------------------------

/// One device's Figure 1 curve and Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdScalingRow {
    /// Device name.
    pub device: String,
    /// Flash units the simulator gives the device.
    pub units: usize,
    /// `(threads, seconds)` series — the Figure 1 curve.
    pub series: Vec<(usize, f64)>,
    /// Fitted parallelism `P` (Table 1).
    pub p: f64,
    /// Saturated throughput, MB/s (Table 1's `∝ PB`).
    pub saturation_mb_s: f64,
    /// Fit quality (Table 1).
    pub r2: f64,
}

/// Run the §4.1 thread-scaling sweep on all four Table 1 SSDs.
pub fn fig1_and_table1(scale: &Scale) -> Vec<SsdScalingRow> {
    Sweep::new(scale.seed, profiles::table1_ssds()).run(|ctx| {
        let profile = ctx.point;
        let report = profile_pdam(
            || Box::new(SsdDevice::new(profile.clone())),
            &fig1_thread_counts(),
            scale.fig1_ios_per_client,
            64 * 1024,
            ctx.seed,
        )
        .expect("pdam profiling cannot fail on a healthy simulator");
        SsdScalingRow {
            device: profile.name.clone(),
            units: profile.units,
            series: report.series.clone(),
            p: report.p,
            saturation_mb_s: report.saturation_bytes_s / 1e6,
            r2: report.r2,
        }
    })
}

// ----------------------------------------------------------------------
// Table 2
// ----------------------------------------------------------------------

/// One Table 2 row: fitted affine parameters for an HDD.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineFitRow {
    /// Disk name.
    pub disk: String,
    /// Model year.
    pub year: u32,
    /// Fitted setup cost `s`, seconds.
    pub s: f64,
    /// Fitted transfer cost `t`, seconds per 4 KiB.
    pub t_per_4k: f64,
    /// `α = t/s` (per 4 KiB).
    pub alpha: f64,
    /// Fit quality.
    pub r2: f64,
    /// The paper's reported `α` for the same disk, for comparison.
    pub paper_alpha: f64,
    /// The `(io bytes, mean seconds)` series behind the fit.
    pub series: Vec<(u64, f64)>,
}

/// Run the §4.2 IO-size sweep on all five Table 2 HDDs.
pub fn table2(scale: &Scale) -> Vec<AffineFitRow> {
    let paper_alphas = [0.0012, 0.0022, 0.0031, 0.0029, 0.0017];
    let points: Vec<_> = profiles::table2_hdds()
        .into_iter()
        .zip(paper_alphas)
        .collect();
    Sweep::new(scale.seed, points).run(|ctx| {
        let (profile, paper_alpha) = ctx.point;
        let report = profile_affine(
            || Box::new(HddDevice::new(profile.clone(), ctx.seed)),
            &table2_io_sizes(),
            scale.table2_reads,
            ctx.seed,
        )
        .expect("affine profiling cannot fail on a healthy simulator");
        AffineFitRow {
            disk: profile.name.clone(),
            year: profile.year,
            s: report.setup_s,
            t_per_4k: report.t_per_4k,
            alpha: report.alpha_per_4k,
            r2: report.r2,
            paper_alpha: *paper_alpha,
            series: report.series,
        }
    })
}

// ----------------------------------------------------------------------
// Table 3 (analytic sensitivity)
// ----------------------------------------------------------------------

/// The Table 3 regeneration: the analytic cost series plus the headline
/// sensitivity comparison, for a given `α`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// `α` per byte used.
    pub alpha_per_byte: f64,
    /// Cost-vs-node-size points.
    pub points: Vec<sensitivity::SensitivityPoint>,
    /// Growth factors when nodes are 64× the half-bandwidth point.
    pub summary: sensitivity::SensitivitySummary,
}

/// Evaluate the Table 3 expressions on the Fig 2/3 testbed disk.
pub fn table3() -> Table3Result {
    let profile = profiles::toshiba_dt01aca050();
    let affine = Affine::new(profile.alpha_per_byte());
    let shape = DictShape::new(2e9, 1e4, 116.0, 24.0);
    // 4 KiB to 64 MiB, doubling; one analytic evaluation per sweep point.
    let mut sizes = Vec::new();
    let (hi, step) = (64.0 * 1024.0 * 1024.0, 2.0);
    let mut b = 4096.0f64;
    while b <= hi * 1.0000001 {
        sizes.push(b);
        b *= step;
    }
    let points = Sweep::new(0, sizes).run(|ctx| sensitivity::evaluate(&affine, &shape, *ctx.point));
    let summary = sensitivity::summarize(&affine, &shape, 64.0);
    Table3Result {
        alpha_per_byte: affine.alpha,
        points,
        summary,
    }
}

// ----------------------------------------------------------------------
// Figures 2 and 3 (node-size sweeps on real trees)
// ----------------------------------------------------------------------

/// One point of a node-size sweep: measured and predicted per-op costs.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSizePoint {
    /// Node size in bytes.
    pub node_bytes: usize,
    /// Measured mean simulated milliseconds per point query.
    pub query_ms: f64,
    /// Measured mean simulated milliseconds per insert.
    pub insert_ms: f64,
    /// Affine-model prediction for the query cost, ms.
    pub predicted_query_ms: f64,
    /// Affine-model prediction for the insert cost, ms.
    pub predicted_insert_ms: f64,
}

fn preload_pairs(scale: &Scale) -> Vec<(Vec<u8>, Vec<u8>)> {
    // Preload even indices so the insert phase (odd indices) adds new keys.
    let mut gen = WorkloadGen::new(WorkloadConfig {
        n_keys: 2 * scale.n_keys,
        value_bytes: scale.value_bytes,
        distribution: refined_dam::kv::KeyDistribution::Uniform,
        seed: scale.seed,
    });
    (0..scale.n_keys)
        .map(|i| {
            let idx = 2 * i;
            (
                refined_dam::kv::key_from_u64(idx).to_vec(),
                gen.value_for(idx),
            )
        })
        .collect()
}

/// Run the §7 measurement phases against any dictionary: `ops` random
/// point queries over preloaded keys, then `ops` random inserts of new
/// keys. Returns `(query_ms, insert_ms)` means of simulated IO time.
///
/// Every call constructs its own workload generator from `scale.seed`, so
/// the op stream is identical at every sweep point (a paired comparison)
/// and independent of which points ran before — no generator state is ever
/// shared across points.
pub fn measure_phases(dict: &mut dyn Dictionary, scale: &Scale) -> (f64, f64) {
    if let Some(o) = crate::metrics::obs() {
        let mut wrapped = refined_dam::obs::ObservedDict::new(dict, "dict", o);
        return measure_phases_inner(&mut wrapped, scale);
    }
    measure_phases_inner(dict, scale)
}

fn measure_phases_inner(dict: &mut dyn Dictionary, scale: &Scale) -> (f64, f64) {
    let mut gen = WorkloadGen::new(WorkloadConfig::uniform(scale.n_keys, scale.seed ^ 0xF00D));
    let mut query_ms = 0.0;
    for _ in 0..scale.ops {
        let idx = 2 * gen.next_index(); // a preloaded (even) key
        let key = refined_dam::kv::key_from_u64(idx);
        dict.get(&key).expect("query failed");
        query_ms += dict.last_op_cost().io_time_ms();
    }
    let mut insert_ms = 0.0;
    for _ in 0..scale.ops {
        let idx = 2 * gen.next_index() + 1; // a fresh (odd) key
        let key = refined_dam::kv::key_from_u64(idx);
        let value = gen.value_for(idx);
        dict.insert(&key, &value).expect("insert failed");
        insert_ms += dict.last_op_cost().io_time_ms();
    }
    // Deferred writes (write-back caching, buffered messages) belong to the
    // insert phase; checkpoint and attribute the flush cost.
    dict.sync().expect("sync failed");
    insert_ms += dict.last_op_cost().io_time_ms();
    (query_ms / scale.ops as f64, insert_ms / scale.ops as f64)
}

/// Figure 2: BerkeleyDB-style B-tree, node sizes 4 KiB – 1 MiB, on the
/// testbed HDD.
pub fn fig2(scale: &Scale) -> Vec<NodeSizePoint> {
    let profile = profiles::toshiba_dt01aca050();
    let affine = Affine::new(profile.alpha_per_byte());
    let setup_s = profile.expected_setup_s();
    let shape = DictShape::new(
        scale.n_keys as f64,
        scale.cache_bytes as f64 / (scale.value_bytes as f64 + 24.0),
        scale.value_bytes as f64 + 24.0,
        24.0,
    );
    let pairs = preload_pairs(scale);
    Sweep::new(scale.seed, geometric_sizes(4096, 1 << 20, 2)).run(|ctx| {
        let node_bytes = *ctx.point;
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), ctx.seed)));
        let mut tree = BTree::bulk_load(
            device,
            BTreeConfig::new(node_bytes, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        if let Some(o) = crate::metrics::obs() {
            tree.set_obs(o);
        }
        let (query_ms, insert_ms) = measure_phases(&mut tree, scale);
        let pred = btree_costs::point_op_cost(&affine, &shape, node_bytes as f64) * setup_s * 1e3;
        NodeSizePoint {
            node_bytes,
            query_ms,
            insert_ms,
            predicted_query_ms: pred,
            predicted_insert_ms: pred,
        }
    })
}

/// Figure 3: TokuDB-style Bε-tree (`F = √B`), node sizes 64 KiB – 4 MiB,
/// on the testbed HDD.
///
/// The stand-in is the segment-reading [`OptBeTree`]: like TokuDB, whose
/// large nodes have independently-pageable basement nodes (§6: "the TokuDB
/// Bε-tree has a relatively large node size (~4MB), but also has sub-nodes
/// ('basement nodes'), which can be paged in and out independently on
/// searches").
pub fn fig3(scale: &Scale) -> Vec<NodeSizePoint> {
    let profile = profiles::toshiba_dt01aca050();
    let affine = Affine::new(profile.alpha_per_byte());
    let setup_s = profile.expected_setup_s();
    let shape = DictShape::new(
        scale.n_keys as f64,
        scale.cache_bytes as f64 / (scale.value_bytes as f64 + 24.0),
        scale.value_bytes as f64 + 24.0,
        24.0,
    );
    let pairs = preload_pairs(scale);
    let entry = scale.value_bytes + 24;
    Sweep::new(scale.seed, geometric_sizes(64 * 1024, 4 << 20, 2)).run(|ctx| {
        let node_bytes = *ctx.point;
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), ctx.seed)));
        let mut tree = OptBeTree::bulk_load(
            device,
            OptConfig::balanced(node_bytes, entry, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        if let Some(o) = crate::metrics::obs() {
            tree.set_obs(o);
        }
        let (query_ms, insert_ms) = measure_phases(&mut tree, scale);
        let cfg = betree_costs::BetreeConfig::sqrt_fanout(&shape, node_bytes as f64);
        let pred_q = betree_costs::query_cost_optimized(&affine, &shape, &cfg) * setup_s * 1e3;
        let pred_i = betree_costs::insert_cost(&affine, &shape, &cfg) * setup_s * 1e3;
        NodeSizePoint {
            node_bytes,
            query_ms,
            insert_ms,
            predicted_query_ms: pred_q,
            predicted_insert_ms: pred_i,
        }
    })
}

// ----------------------------------------------------------------------
// Lemma 1 (DAM vs affine factor-2 equivalence)
// ----------------------------------------------------------------------

/// One trace class costed under both models.
#[derive(Debug, Clone, PartialEq)]
pub struct Lemma1Row {
    /// Trace description.
    pub trace: String,
    /// Total affine cost (setup units).
    pub affine_cost: f64,
    /// Total DAM cost (block IOs at `B = 1/α`).
    pub dam_cost: f64,
    /// `dam / affine` — Lemma 1 bounds this within `[0.5, 2]`.
    pub error_factor: f64,
    /// Whether both directions of the bound held.
    pub holds: bool,
}

/// Cost representative IO traces under the affine model and its matching
/// DAM; verify the factor-2 bound.
pub fn lemma1(scale: &Scale) -> Vec<Lemma1Row> {
    let affine = Affine::new(profiles::toshiba_dt01aca050().alpha_per_byte());
    let b = affine.half_bandwidth_bytes();
    // The randomized trace draws from its own derived stream (index 3 in
    // the trace list), not a generator shared across traces, so adding or
    // reordering traces cannot change it.
    let mixed: Vec<f64> = {
        let mut rng = Rng::seed_from_u64(derive_seed(scale.seed, 3));
        (0..2000)
            .map(|_| 2f64.powf(rng.gen_range(9.0..24.0)))
            .collect()
    };
    let traces: Vec<(String, Vec<f64>)> = vec![
        ("4 KiB random IOs".into(), vec![4096.0; 2000]),
        ("half-bandwidth IOs".into(), vec![b; 2000]),
        ("16 MiB scans".into(), vec![16.0 * 1024.0 * 1024.0; 50]),
        ("log-uniform mixed".into(), mixed),
        (
            "B-tree query trace (64 KiB nodes)".into(),
            vec![65536.0; 4000],
        ),
    ];
    Sweep::new(scale.seed, traces).run(|ctx| {
        let (name, trace) = ctx.point;
        let report = conversions::lemma1_check(&affine, trace);
        Lemma1Row {
            trace: name.clone(),
            affine_cost: report.affine_cost,
            dam_cost: report.dam_cost,
            error_factor: report.dam_error_factor(),
            holds: report.holds(),
        }
    })
}

// ----------------------------------------------------------------------
// Theorem 9 ablation (standard vs optimized Bε-tree)
// ----------------------------------------------------------------------

/// One variant's measured costs at a fixed node size.
#[derive(Debug, Clone, PartialEq)]
pub struct Thm9Row {
    /// Variant label.
    pub variant: String,
    /// Node size in bytes.
    pub node_bytes: usize,
    /// Mean cold-query simulated ms.
    pub query_ms: f64,
    /// Mean insert simulated ms.
    pub insert_ms: f64,
    /// Mean bytes read per query.
    pub query_bytes: f64,
}

/// Compare the standard and optimized Bε-trees at the same (large) node
/// size on the testbed HDD — the Theorem 9 payoff.
///
/// Both arms run on a device seeded with `scale.seed` (not a per-arm
/// derived seed): the ablation is a paired comparison on identical device
/// randomness, and each arm builds its own device so neither depends on
/// the other having run.
pub fn thm9_ablation(scale: &Scale) -> Vec<Thm9Row> {
    let profile = profiles::toshiba_dt01aca050();
    let entry = scale.value_bytes + 24;
    let node_bytes = 1 << 20; // 1 MiB nodes: large enough that αB ≫ α B/F
    let pairs = preload_pairs(scale);

    Sweep::new(scale.seed, vec![false, true]).run(|ctx| {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        if !*ctx.point {
            // Standard variant.
            let mut tree = BeTree::bulk_load(
                device,
                BeTreeConfig::sqrt_fanout(node_bytes, entry, scale.cache_bytes),
                pairs.clone(),
            )
            .expect("bulk load failed");
            let before = tree.pager().counters();
            let (query_ms, insert_ms) = measure_phases(&mut tree, scale);
            let after = tree.pager().counters();
            Thm9Row {
                variant: "standard (whole-node IOs)".into(),
                node_bytes,
                query_ms,
                insert_ms,
                query_bytes: (after.bytes_read - before.bytes_read) as f64 / (2 * scale.ops) as f64,
            }
        } else {
            // Optimized variant (Theorem 9).
            let mut tree = OptBeTree::bulk_load(
                device,
                OptConfig::balanced(node_bytes, entry, scale.cache_bytes),
                pairs.clone(),
            )
            .expect("bulk load failed");
            let before = tree.pager().counters();
            let (query_ms, insert_ms) = measure_phases(&mut tree, scale);
            let after = tree.pager().counters();
            Thm9Row {
                variant: "optimized (Thm 9 segments)".into(),
                node_bytes: tree.node_bytes(),
                query_ms,
                insert_ms,
                query_bytes: (after.bytes_read - before.bytes_read) as f64 / (2 * scale.ops) as f64,
            }
        }
    })
}

// ----------------------------------------------------------------------
// Lemma 13 (§8 PDAM designs)
// ----------------------------------------------------------------------

/// Throughput of each §8 design at one client count.
#[derive(Debug, Clone, PartialEq)]
pub struct Lemma13Row {
    /// Concurrent clients `k`.
    pub clients: usize,
    /// Fat vEB-layout nodes (`PB`).
    pub fat_veb: f64,
    /// Fat sorted-pivot nodes (`PB`).
    pub fat_sorted: f64,
    /// Small (`B`) nodes.
    pub small_nodes: f64,
    /// Lemma 13's analytic prediction `k / log_{PB/k} N` (scaled to match
    /// units: queries per step).
    pub predicted_veb: f64,
}

/// Sweep client counts for the three §8 designs.
pub fn lemma13(scale: &Scale) -> Vec<Lemma13Row> {
    let p = 8usize;
    let block_pivots = 64u64;
    let node_blocks = 8u64;
    let n_items = 1u64 << 30;
    let pdam = refined_dam::models::Pdam::new(p as f64, block_pivots as f64);
    Sweep::new(scale.seed, vec![1usize, 2, 4, 8]).run(|ctx| {
        let k = *ctx.point;
        let mut cfg = PdamSimConfig {
            p,
            clients: k,
            block_pivots,
            node_blocks,
            n_items,
            design: TreeDesign::FatVeb,
            steps: scale.lemma13_steps,
            seed: ctx.seed,
        };
        let fat_veb = run_pdam_sim(&cfg).throughput;
        cfg.design = TreeDesign::FatSorted;
        let fat_sorted = run_pdam_sim(&cfg).throughput;
        cfg.design = TreeDesign::SmallNodes;
        let small_nodes = run_pdam_sim(&cfg).throughput;
        let predicted_veb = pdam.veb_tree_throughput(k as f64, n_items as f64, 1.0);
        Lemma13Row {
            clients: k,
            fat_veb,
            fat_sorted,
            small_nodes,
            predicted_veb,
        }
    })
}

// ----------------------------------------------------------------------
// Corollary optima (Cor 6, 7, 11, 12)
// ----------------------------------------------------------------------

/// Tuned parameters for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimaRow {
    /// Disk name.
    pub disk: String,
    /// Fitted `α` per 4 KiB.
    pub alpha_per_4k: f64,
    /// Corollary 6: half-bandwidth node size, bytes.
    pub half_bandwidth: f64,
    /// Corollary 7: B-tree point-op node size, bytes.
    pub btree_point: f64,
    /// Corollary 12: Bε fanout.
    pub betree_fanout: f64,
    /// Corollary 12: Bε node size, bytes.
    pub betree_node: f64,
    /// Predicted Bε insert speedup over the B-tree.
    pub insert_speedup: f64,
}

/// Tune every Table 2 disk and report the corollaries' parameter choices.
pub fn corollary_optima() -> Vec<OptimaRow> {
    let shape = DictShape::new(2e9, 1e4, 116.0, 24.0);
    profiles::table2_hdds()
        .into_iter()
        .map(|profile| {
            let affine = Affine::new(profile.alpha_per_byte());
            let tuning = tune_for_affine(&affine, &shape);
            OptimaRow {
                disk: profile.name.clone(),
                alpha_per_4k: affine.alpha * 4096.0,
                half_bandwidth: tuning.btree_all_ops_node_bytes,
                btree_point: tuning.btree_point_node_bytes,
                betree_fanout: tuning.betree_fanout,
                betree_node: tuning.betree_node_bytes,
                insert_speedup: tuning.insert_speedup,
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Write amplification (Definition 3, Lemma 3, Theorem 4(4))
// ----------------------------------------------------------------------

/// Measured write amplification for one structure.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteAmpRow {
    /// Structure label.
    pub structure: String,
    /// Node size, bytes.
    pub node_bytes: usize,
    /// Measured write amplification (physical bytes / logical bytes).
    pub measured: f64,
    /// The model's prediction.
    pub predicted: f64,
}

/// Insert `inserts` fresh random keys, flush, and report physical bytes
/// written per logical byte modified.
///
/// The insert stream is a pure function of the explicit `seed` — callers
/// pass the same seed to every arm for a paired comparison, and no
/// generator is ever carried across sweep points.
fn run_inserts<D, F>(
    tree: &mut D,
    scale: &Scale,
    inserts: u64,
    logical_per_op: u64,
    seed: u64,
    written_after_flush: F,
) -> f64
where
    D: Dictionary,
    F: Fn(&mut D) -> u64,
{
    let before = written_after_flush(tree);
    let mut gen = WorkloadGen::new(WorkloadConfig::uniform(scale.n_keys, seed));
    for _ in 0..inserts {
        let idx = 2 * gen.next_index() + 1;
        let key = refined_dam::kv::key_from_u64(idx);
        let value = gen.value_for(idx);
        tree.insert(&key, &value).expect("insert failed");
    }
    let written = written_after_flush(tree) - before;
    written as f64 / (inserts * logical_per_op) as f64
}

/// Measure write amplification of random inserts on the B-tree and both
/// Bε-trees.
pub fn write_amp(scale: &Scale) -> Vec<WriteAmpRow> {
    let profile = profiles::toshiba_dt01aca050();
    let entry = scale.value_bytes + 24;
    let node_bytes = 256 * 1024usize;
    let pairs = preload_pairs(scale);
    let shape = DictShape::new(
        scale.n_keys as f64,
        scale.cache_bytes as f64 / entry as f64,
        entry as f64,
        24.0,
    );
    let logical_per_op = (16 + scale.value_bytes) as u64;
    let inserts = scale.ops * 4;
    let insert_seed = scale.seed ^ 0xA11; // shared across arms: paired comparison

    Sweep::new(scale.seed, vec![false, true]).run(|ctx| {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        if !*ctx.point {
            let mut tree = BTree::bulk_load(
                device,
                BTreeConfig::new(node_bytes, scale.cache_bytes),
                pairs.clone(),
            )
            .expect("bulk load failed");
            let measured = run_inserts(
                &mut tree,
                scale,
                inserts,
                logical_per_op,
                insert_seed,
                |t| {
                    t.flush().unwrap();
                    t.pager().counters().bytes_written
                },
            );
            WriteAmpRow {
                structure: "B-tree".into(),
                node_bytes,
                measured,
                predicted: btree_costs::write_amp(&shape, node_bytes as f64),
            }
        } else {
            let mut tree = BeTree::bulk_load(
                device,
                BeTreeConfig::sqrt_fanout(node_bytes, entry, scale.cache_bytes),
                pairs.clone(),
            )
            .expect("bulk load failed");
            let measured = run_inserts(
                &mut tree,
                scale,
                inserts,
                logical_per_op,
                insert_seed,
                |t| {
                    t.flush().unwrap();
                    t.pager().counters().bytes_written
                },
            );
            let cfg = betree_costs::BetreeConfig::sqrt_fanout(&shape, node_bytes as f64);
            WriteAmpRow {
                structure: "Bε-tree (F = √B)".into(),
                node_bytes,
                measured,
                predicted: betree_costs::write_amp(&shape, &cfg),
            }
        }
    })
}

// ----------------------------------------------------------------------
// LSM SSTable-size sweep (the §1 LevelDB puzzle)
// ----------------------------------------------------------------------

/// One point of the SSTable-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LsmSizePoint {
    /// SSTable target size, bytes.
    pub sstable_bytes: usize,
    /// Mean simulated ms per point query.
    pub query_ms: f64,
    /// Mean simulated ms per insert (amortized over compaction).
    pub insert_ms: f64,
    /// Write amplification over the insert phase.
    pub write_amp: f64,
}

/// Sweep SSTable sizes for a leveled LSM on the testbed HDD — why does
/// LevelDB pick 2 MiB "for all workloads"? Because on the affine model the
/// sequential table writes amortize the setup cost once tables pass the
/// half-bandwidth point, while point queries (one block per level) barely
/// care.
pub fn lsm_sstable_size(scale: &Scale) -> Vec<LsmSizePoint> {
    let profile = profiles::toshiba_dt01aca050();
    let pairs = preload_pairs(scale);
    let entry_bytes = (16 + scale.value_bytes) as u64;
    Sweep::new(scale.seed, geometric_sizes(64 * 1024, 4 << 20, 2)).run(|ctx| {
        let sstable = *ctx.point;
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), ctx.seed)));
        let mut cfg = LsmConfig::new(sstable, scale.cache_bytes);
        cfg.block_bytes = 4096;
        let mut tree = LsmTree::create(device, cfg).expect("create failed");
        // Preload through the normal write path in *shuffled* order (the
        // LSM has no bulk load — its "bulk load" IS the write path, and
        // random order is what builds realistic overlapping levels).
        let n = pairs.len() as u64;
        let stride = 982_451_653u64; // prime ≫ n: a full-cycle permutation
        for j in 0..n {
            let (k, v) = &pairs[((j.wrapping_mul(stride)) % n) as usize];
            tree.insert(k, v).expect("preload insert failed");
        }
        tree.sync().expect("sync failed");

        // Query phase.
        let mut gen = WorkloadGen::new(WorkloadConfig::uniform(scale.n_keys, scale.seed ^ 0xF00D));
        let mut query_ms = 0.0;
        for _ in 0..scale.ops {
            let key = refined_dam::kv::key_from_u64(2 * gen.next_index());
            tree.get(&key).expect("query failed");
            query_ms += tree.last_op_cost().io_time_ms();
        }

        // Insert phase: several memtables' worth, so every point amortizes
        // multiple flushes and its share of compactions.
        let inserts = (4 * sstable as u64 / entry_bytes).max(scale.ops);
        let written_before = tree.pager().counters().bytes_written;
        let mut insert_ms = 0.0;
        for _ in 0..inserts {
            let idx = 2 * gen.next_index() + 1;
            let key = refined_dam::kv::key_from_u64(idx);
            let value = gen.value_for(idx);
            tree.insert(&key, &value).expect("insert failed");
            insert_ms += tree.last_op_cost().io_time_ms();
        }
        tree.sync().expect("sync failed");
        insert_ms += tree.last_op_cost().io_time_ms();
        let written = tree.pager().counters().bytes_written - written_before;
        LsmSizePoint {
            sstable_bytes: sstable,
            query_ms: query_ms / scale.ops as f64,
            insert_ms: insert_ms / inserts as f64,
            write_amp: written as f64 / (inserts * entry_bytes) as f64,
        }
    })
}

// ----------------------------------------------------------------------
// Write-optimized dictionary comparison (§3)
// ----------------------------------------------------------------------

/// One structure's measured costs on the shared workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WodRow {
    /// Structure label.
    pub structure: String,
    /// Mean simulated ms per point query.
    pub query_ms: f64,
    /// Mean simulated ms per insert.
    pub insert_ms: f64,
    /// Mean simulated ms per 100-element range query.
    pub range_ms: f64,
}

/// The §3 landscape measured: B-tree vs standard Bε-tree vs optimized
/// Bε-tree vs LSM-tree on the same device, preload, and op stream.
pub fn wod_comparison(scale: &Scale) -> Vec<WodRow> {
    let profile = profiles::toshiba_dt01aca050();
    let entry = scale.value_bytes + 24;
    let pairs = preload_pairs(scale);
    let node = 256 * 1024usize;

    let mut rows: Vec<WodRow> = Vec::new();
    let mut measure = |label: &str, dict: &mut dyn Dictionary| {
        let (query_ms, insert_ms) = measure_phases(dict, scale);
        // Range phase: 100-key windows at random starts.
        let mut gen = WorkloadGen::new(WorkloadConfig::uniform(scale.n_keys, scale.seed ^ 0xBEEF));
        let mut range_ms = 0.0;
        for _ in 0..scale.ops / 4 {
            let start = 2 * gen.next_index();
            let lo = refined_dam::kv::key_from_u64(start);
            let hi = refined_dam::kv::key_from_u64(start + 200);
            dict.range(&lo, &hi).expect("range failed");
            range_ms += dict.last_op_cost().io_time_ms();
        }
        rows.push(WodRow {
            structure: label.to_string(),
            query_ms,
            insert_ms,
            range_ms: range_ms / (scale.ops / 4).max(1) as f64,
        });
    };

    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut t = BTree::bulk_load(
            device,
            BTreeConfig::new(node, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        measure("B-tree (256 KiB nodes)", &mut t);
    }
    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut t = BeTree::bulk_load(
            device,
            BeTreeConfig::sqrt_fanout(node, entry, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        measure("Bε-tree standard (256 KiB)", &mut t);
    }
    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut t = OptBeTree::bulk_load(
            device,
            OptConfig::balanced(4 << 20, entry, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        measure("Bε-tree optimized (4 MiB)", &mut t);
    }
    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut t = LsmTree::create(device, LsmConfig::new(2 << 20, scale.cache_bytes))
            .expect("create failed");
        let n = pairs.len() as u64;
        let stride = 982_451_653u64;
        for j in 0..n {
            let (k, v) = &pairs[((j.wrapping_mul(stride)) % n) as usize];
            t.insert(k, v).expect("preload insert failed");
        }
        t.sync().expect("sync failed");
        measure("LSM-tree (2 MiB SSTables)", &mut t);
    }
    rows
}

// ----------------------------------------------------------------------
// Aging (§5: "as B-trees age, their nodes get spread out across disk, and
// range-query performance degrades")
// ----------------------------------------------------------------------

/// Range-scan bandwidth of one tree state.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingRow {
    /// Tree state label.
    pub state: String,
    /// Full-scan bandwidth in MB per simulated second.
    pub scan_mb_s: f64,
    /// Mean cold point-query ms (for reference: points barely age).
    pub point_ms: f64,
}

/// Compare a freshly bulk-loaded B-tree (leaves laid out in key order)
/// against one grown by random inserts (leaves scattered by split order).
pub fn aging(scale: &Scale) -> Vec<AgingRow> {
    let profile = profiles::toshiba_dt01aca050();
    let node_bytes = 64 * 1024usize;
    let pairs = preload_pairs(scale);
    let data_bytes: u64 = pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();

    let measure = |tree: &mut BTree| -> (f64, f64) {
        tree.sync().expect("sync failed");
        tree.drop_cache().expect("drop failed");
        let lo = refined_dam::kv::key_from_u64(0);
        let hi = [0xFFu8; 17];
        let snap_ms = {
            let out = tree.range(&lo, &hi).expect("scan failed");
            // Capture before len(): every Dictionary op resets the per-op
            // cost, including zero-IO ones.
            let ms = tree.last_op_cost().io_time_ms();
            assert_eq!(out.len() as u64, tree.len().unwrap());
            ms
        };
        let scan_mb_s = data_bytes as f64 / 1e6 / (snap_ms / 1e3);
        // Cold point queries.
        let mut gen = WorkloadGen::new(WorkloadConfig::uniform(scale.n_keys, scale.seed ^ 0xA9E));
        let mut point_ms = 0.0;
        let probes = 50;
        for _ in 0..probes {
            tree.drop_cache().expect("drop failed");
            let key = refined_dam::kv::key_from_u64(2 * gen.next_index());
            tree.get(&key).expect("get failed");
            point_ms += tree.last_op_cost().io_time_ms();
        }
        (scan_mb_s, point_ms / probes as f64)
    };

    let mut out = Vec::new();
    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut tree = BTree::bulk_load(
            device,
            BTreeConfig::new(node_bytes, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        let (scan_mb_s, point_ms) = measure(&mut tree);
        out.push(AgingRow {
            state: "fresh (bulk-loaded)".into(),
            scan_mb_s,
            point_ms,
        });
    }
    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut tree = BTree::create(device, BTreeConfig::new(node_bytes, scale.cache_bytes))
            .expect("create failed");
        // Random insertion order scatters leaves by split time, not key.
        let n = pairs.len() as u64;
        let stride = 982_451_653u64;
        for j in 0..n {
            let (k, v) = &pairs[((j.wrapping_mul(stride)) % n) as usize];
            tree.insert(k, v).expect("insert failed");
        }
        let (scan_mb_s, point_ms) = measure(&mut tree);
        out.push(AgingRow {
            state: "aged (random growth)".into(),
            scan_mb_s,
            point_ms,
        });
    }
    {
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut tree = BTree::bulk_load(
            device,
            BTreeConfig::new(node_bytes, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        tree.scatter_leaves(scale.seed).expect("scatter failed");
        let (scan_mb_s, point_ms) = measure(&mut tree);
        out.push(AgingRow {
            state: "aged (scattered leaves)".into(),
            scan_mb_s,
            point_ms,
        });
    }
    out
}

// ----------------------------------------------------------------------
// OLTP vs OLAP (§5: point-op optima are small; range scans want the
// half-bandwidth point — hence small-leaf OLTP systems and big-leaf OLAP
// systems)
// ----------------------------------------------------------------------

/// One node size's point and scan performance.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpOlapRow {
    /// Node size, bytes.
    pub node_bytes: usize,
    /// Mean cold point-query ms (the OLTP metric).
    pub point_ms: f64,
    /// Full-scan bandwidth, MB per simulated second (the OLAP metric).
    pub scan_mb_s: f64,
    /// The affine model's predicted scan bandwidth utilization
    /// `αB/(1+αB)`.
    pub predicted_utilization: f64,
}

/// Sweep B-tree node sizes measuring both metrics; the optima diverge by
/// more than an order of magnitude, exactly as §5 says of OLTP vs OLAP
/// deployments.
pub fn oltp_olap(scale: &Scale) -> Vec<OltpOlapRow> {
    let profile = profiles::toshiba_dt01aca050();
    let affine = Affine::new(profile.alpha_per_byte());
    let pairs = preload_pairs(scale);
    let data_bytes: u64 = pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
    Sweep::new(scale.seed, geometric_sizes(8 * 1024, 4 << 20, 4)).run(|ctx| {
        let node_bytes = *ctx.point;
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), ctx.seed)));
        // Age the tree by scattering leaf placement: every leaf read pays a
        // seek — the §5 regime in which node size governs scan bandwidth.
        let mut tree = BTree::bulk_load(
            device,
            BTreeConfig::new(node_bytes, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        tree.scatter_leaves(ctx.seed).expect("scatter failed");
        tree.drop_cache().expect("drop failed");
        let lo = refined_dam::kv::key_from_u64(0);
        let hi = [0xFFu8; 17];
        tree.range(&lo, &hi).expect("scan failed");
        let scan_ms = tree.last_op_cost().io_time_ms();
        let scan_mb_s = data_bytes as f64 / 1e6 / (scan_ms / 1e3);
        let mut gen = WorkloadGen::new(WorkloadConfig::uniform(scale.n_keys, scale.seed ^ 0x01A));
        let mut point_ms = 0.0;
        let probes = 40;
        for _ in 0..probes {
            tree.drop_cache().expect("drop failed");
            let key = refined_dam::kv::key_from_u64(2 * gen.next_index());
            tree.get(&key).expect("get failed");
            point_ms += tree.last_op_cost().io_time_ms();
        }
        OltpOlapRow {
            node_bytes,
            point_ms: point_ms / probes as f64,
            scan_mb_s,
            predicted_utilization: affine.bandwidth_utilization(node_bytes as f64),
        }
    })
}

// ----------------------------------------------------------------------
// Cache skew (the M of the DAM, measured)
// ----------------------------------------------------------------------

/// Query cost under one access skew.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewRow {
    /// Workload label.
    pub workload: String,
    /// Mean simulated ms per query.
    pub query_ms: f64,
    /// Buffer-pool hit rate over the query phase.
    pub hit_rate: f64,
}

/// Same B-tree, same device — queries drawn uniformly vs zipfian. The DAM's
/// `M` term in `log(N/M)` is exactly this effect: hot keys live in cache.
pub fn cache_skew(scale: &Scale) -> Vec<SkewRow> {
    use refined_dam::kv::KeyDistribution;
    let profile = profiles::toshiba_dt01aca050();
    let pairs = preload_pairs(scale);
    let points: Vec<(&str, KeyDistribution)> = vec![
        ("uniform", KeyDistribution::Uniform),
        ("zipfian(0.99)", KeyDistribution::Zipfian(0.99)),
        ("zipfian(1.2)", KeyDistribution::Zipfian(1.2)),
    ];
    Sweep::new(scale.seed, points).run(|ctx| {
        let (label, dist) = ctx.point;
        let device = crate::metrics::observe(Box::new(HddDevice::new(profile.clone(), scale.seed)));
        let mut tree = BTree::bulk_load(
            device,
            BTreeConfig::new(64 * 1024, scale.cache_bytes),
            pairs.clone(),
        )
        .expect("bulk load failed");
        tree.drop_cache().expect("drop failed");
        let mut gen = WorkloadGen::new(WorkloadConfig {
            n_keys: scale.n_keys,
            value_bytes: scale.value_bytes,
            distribution: *dist,
            seed: scale.seed ^ 0x55,
        });
        // Warm the cache with the same distribution, then measure.
        for _ in 0..scale.ops {
            let key = refined_dam::kv::key_from_u64(2 * gen.next_index());
            tree.get(&key).expect("warmup failed");
        }
        let before = tree.pager().counters();
        let mut query_ms = 0.0;
        for _ in 0..scale.ops {
            let key = refined_dam::kv::key_from_u64(2 * gen.next_index());
            tree.get(&key).expect("query failed");
            query_ms += tree.last_op_cost().io_time_ms();
        }
        let after = tree.pager().counters();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        SkewRow {
            workload: label.to_string(),
            query_ms: query_ms / scale.ops as f64,
            hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        }
    })
}

// ----------------------------------------------------------------------
// Closed-loop serving (Lemma 13 through real dictionaries)
// ----------------------------------------------------------------------

/// One `(structure, clients)` cell of the closed-loop serving sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSweepRow {
    /// Dictionary name.
    pub structure: String,
    /// Concurrent closed-loop clients `k`.
    pub clients: usize,
    /// Hash shards the keyspace is split over.
    pub shards: usize,
    /// Ops committed in the measured phase.
    pub ops: u64,
    /// PDAM steps the run took.
    pub steps: u64,
    /// `ops / steps` — the Lemma-13 quantity, through a real tree.
    pub throughput_ops_per_step: f64,
    /// Lemma 13's analytic prediction `k / log_{PB/k} N` for the same
    /// `P`, `B`, `N`, and entry size (shape comparison, not a fit).
    pub predicted_veb: f64,
    /// Fraction of `P x steps` slot capacity used.
    pub slot_utilization: f64,
    /// Fraction of served blocks that piggybacked on a coalesced read.
    pub coalesce_rate: f64,
    /// Median op latency in steps.
    pub p50_latency_steps: u64,
    /// 99th-percentile op latency in steps.
    pub p99_latency_steps: u64,
}

/// Slot budget `P` of the registry's serving sweep (and `damlab serve`'s
/// default).
pub const SERVE_P: usize = 8;
/// Hash shards of the registry's serving sweep (and `damlab serve`'s
/// default).
pub const SERVE_SHARDS: usize = 4;

/// One serving-sweep point: `(structure, k clients, ops per client)`.
pub type ServePoint = (dam_serve::ServeStructure, usize, usize);

/// Sweep client counts through the `dam-serve` engine for all four
/// dictionaries at `P =` [`SERVE_P`] and [`SERVE_SHARDS`] shards. Total op
/// count is held roughly constant across `k` so runtime stays flat and
/// `ops/steps` is comparable down a column.
pub fn serve_sweep(scale: &Scale) -> Vec<ServeSweepRow> {
    // IO-bound on purpose: the preload must dwarf the per-shard cache or
    // every op is a cache hit and the sweep degenerates to ops/step = k.
    let preload = (scale.n_keys / 100).clamp(2_000, 8_000);
    let total_ops = (scale.ops as usize * 8).max(160);
    let points = dam_serve::ServeStructure::ALL
        .iter()
        .flat_map(|&s| [1usize, 2, 4, 8, 16].map(|k| (s, k, (total_ops / k).max(20))))
        .collect();
    serve_sweep_with(points, SERVE_P, SERVE_SHARDS, preload, scale.seed).expect("serve run failed")
}

/// Run each point through the `dam-serve` engine: `k` closed-loop clients
/// over `shards` hash shards, one PDAM device with slot budget `p`,
/// read-heavy point ops after `preload` keys. Unlike [`lemma13`] (which
/// drives the §8 layout *simulator*), every op here executes against a
/// real tree; the scheduler re-times the captured block IOs. Rows come
/// back in point order, identical at any worker count.
pub fn serve_sweep_with(
    points: Vec<ServePoint>,
    p: usize,
    shards: usize,
    preload: u64,
    seed: u64,
) -> Result<Vec<ServeSweepRow>, refined_dam::kv::KvError> {
    use dam_serve::{run_with_obs, ServeConfig};
    Sweep::new(seed, points)
        .run(|ctx| {
            let (structure, k, ops_per_client) = *ctx.point;
            let cfg = ServeConfig {
                structure,
                clients: k,
                shards,
                p,
                seed: ctx.seed,
                preload_keys: preload,
                ops_per_client,
                cache_bytes: 1 << 14,
                value_bytes: 32,
                ..ServeConfig::default()
            };
            let obs = crate::metrics::obs();
            let r = run_with_obs(&cfg, obs.as_ref())?.report;
            let pdam = refined_dam::models::Pdam::new(p as f64, cfg.block_bytes as f64);
            let entry_bytes = (16 + cfg.value_bytes) as f64;
            Ok(ServeSweepRow {
                structure: structure.name().to_string(),
                clients: k,
                shards,
                ops: r.ops,
                steps: r.steps,
                throughput_ops_per_step: r.throughput_ops_per_step,
                predicted_veb: pdam.veb_tree_throughput(
                    k as f64,
                    preload.max(2) as f64,
                    entry_bytes,
                ),
                slot_utilization: r.slot_utilization,
                coalesce_rate: r.coalesce_rate,
                p50_latency_steps: r.p50_latency_steps,
                p99_latency_steps: r.p99_latency_steps,
            })
        })
        .into_iter()
        .collect()
}
