//! The experiment registry: one entry per paper table or figure, each
//! rendering the result as the text EXPERIMENTS.md reports. `damlab
//! experiment <name>` looks a name up here, prints the render and writes
//! the `DAM_METRICS` sidecar; `damlab experiment list` prints the names.
//!
//! A render function runs its regenerator from [`crate::experiments`] and
//! lays the rows out with [`crate::table`]; the regenerators and their row
//! types stay public for callers that want the numbers, not the text. The
//! layout is a public `<name>_text` function of the rows, so a caller that
//! already holds them (the golden gate in `tests/experiments_smoke.rs`)
//! renders the same text without running the regenerator again.

use crate::experiments::{
    aging, cache_skew, corollary_optima, fig1_and_table1, fig2, fig3, lemma1, lemma13,
    lsm_sstable_size, oltp_olap, serve_sweep, table2, table3, thm9_ablation, wod_comparison,
    write_amp, AffineFitRow, AgingRow, Lemma13Row, Lemma1Row, LsmSizePoint, NodeSizePoint,
    OltpOlapRow, OptimaRow, ServeSweepRow, SkewRow, SsdScalingRow, Table3Result, Thm9Row, WodRow,
    WriteAmpRow, SERVE_P, SERVE_SHARDS,
};
use crate::sweep::describe_jobs;
use crate::table::{self, fmt_bytes};
use crate::Scale;
use refined_dam::models::{sensitivity, Affine, AsymmetricAffine, DictShape};

/// One regenerable result.
pub struct Experiment {
    /// The name `damlab experiment` accepts; also names the metrics sidecar
    /// (`BENCH_<name>.metrics.json`).
    pub name: &'static str,
    /// Run the experiment at `scale` and render its tables and notes.
    pub render: fn(&Scale) -> String,
}

/// Every result, in `damlab experiment list` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        render: render_fig1,
    },
    Experiment {
        name: "table1",
        render: render_table1,
    },
    Experiment {
        name: "table2",
        render: render_table2,
    },
    Experiment {
        name: "table3",
        render: render_table3,
    },
    Experiment {
        name: "fig2",
        render: render_fig2,
    },
    Experiment {
        name: "fig3",
        render: render_fig3,
    },
    Experiment {
        name: "lemma1",
        render: render_lemma1,
    },
    Experiment {
        name: "thm9",
        render: render_thm9,
    },
    Experiment {
        name: "lemma13",
        render: render_lemma13,
    },
    Experiment {
        name: "optima",
        render: render_optima,
    },
    Experiment {
        name: "writeamp",
        render: render_writeamp,
    },
    Experiment {
        name: "lsm",
        render: render_lsm,
    },
    Experiment {
        name: "wod",
        render: render_wod,
    },
    Experiment {
        name: "aging",
        render: render_aging,
    },
    Experiment {
        name: "oltp-olap",
        render: render_oltp_olap,
    },
    Experiment {
        name: "asymmetry",
        render: render_asymmetry,
    },
    Experiment {
        name: "cache-skew",
        render: render_cache_skew,
    },
    Experiment {
        name: "serve-sweep",
        render: render_serve_sweep,
    },
];

/// Figure 1: time to read a fixed volume per thread on each simulated SSD,
/// for p = 1..64 closed-loop reader threads.
fn render_fig1(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    fig1_text(scale, &fig1_and_table1(scale))
}

/// The text of `render_fig1`, laid out from rows already computed.
pub fn fig1_text(scale: &Scale, rows: &[SsdScalingRow]) -> String {
    let mut out = format!(
        "Figure 1 — closed-loop random 64 KiB reads, {} IOs per thread\n\n",
        scale.fig1_ios_per_client
    );
    let threads: Vec<usize> = rows[0].series.iter().map(|&(p, _)| p).collect();
    let mut headers: Vec<String> = vec!["Device".to_string()];
    headers.extend(threads.iter().map(|p| format!("p={p}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.device.clone()];
            row.extend(r.series.iter().map(|&(_, t)| format!("{t:.2}s")));
            row
        })
        .collect();
    out.push_str(&table::render(&header_refs, &data));
    out.push_str(
        "\nPDAM prediction: flat for p <= P, then linear in p.\n\
         Paper shape: 'relatively constant until around p = 2 or 4 ... increases linearly thereafter.'\n",
    );
    out
}

/// Table 1: segmented linear regression over the Figure 1 series yields
/// each device's parallelism P, saturation throughput (∝ PB), and R².
fn render_table1(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    table1_text(&fig1_and_table1(scale))
}

/// The text of `render_table1`, laid out from rows already computed.
pub fn table1_text(rows: &[SsdScalingRow]) -> String {
    let mut out =
        "Table 1 — experimentally derived PDAM values (simulated devices)\n\n".to_string();
    let paper = [(3.3, 530.0), (5.5, 2500.0), (2.9, 260.0), (4.6, 520.0)];
    let data: Vec<Vec<String>> = rows
        .iter()
        .zip(paper)
        .map(|(r, (pp, ps))| {
            vec![
                r.device.clone(),
                format!("{}", r.units),
                format!("{:.1}", r.p),
                format!("{pp:.1}"),
                format!("{:.0}", r.saturation_mb_s),
                format!("{ps:.0}"),
                format!("{:.3}", r.r2),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Device",
            "sim units",
            "P (fit)",
            "P (paper)",
            "∝PB MB/s (fit)",
            "∝PB (paper)",
            "R²",
        ],
        &data,
    ));
    out.push_str("\nPaper: R² values all within 0.1% of 1; fitted P in 2.9–5.5.\n");
    out
}

/// Table 2: random block-aligned reads at IO sizes from one block to
/// 16 MiB; linear regression yields s, t, and alpha per HDD.
fn render_table2(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    table2_text(scale, &table2(scale))
}

/// The text of `render_table2`, laid out from rows already computed.
pub fn table2_text(scale: &Scale, rows: &[AffineFitRow]) -> String {
    let mut out = format!(
        "Table 2 — experimentally derived alpha values ({} reads per IO size, 4 KiB..16 MiB)\n\n",
        scale.table2_reads
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.disk.clone(),
                format!("{}", r.year),
                format!("{:.3}", r.s),
                format!("{:.6}", r.t_per_4k),
                format!("{:.4}", r.alpha),
                format!("{:.4}", r.paper_alpha),
                format!("{:.4}", r.r2),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Disk",
            "Year",
            "s (s)",
            "t (s/4K)",
            "α (fit)",
            "α (paper)",
            "R²",
        ],
        &data,
    ));
    out.push_str("\nPaper: R² values all within 0.1% of 1.\n");
    out
}

/// Table 3: node-size sensitivity analysis — analytic affine costs of
/// B-tree and Bε-tree operations as the node size grows.
fn render_table3(_scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    table3_text(&table3())
}

/// The text of `render_table3`, laid out from rows already computed.
pub fn table3_text(r: &Table3Result) -> String {
    let mut out = format!(
        "Table 3 — affine cost per operation vs node size (α = {:.2e}/byte, testbed disk)\n\n",
        r.alpha_per_byte
    );
    let data: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                fmt_bytes(p.node_bytes),
                format!("{:.3}", p.btree_op),
                format!("{:.4}", p.betree_sqrt_insert),
                format!("{:.3}", p.betree_sqrt_query),
                format!("{:.3}", p.betree_sqrt_query_naive),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Node size",
            "B-tree op",
            "Bε insert (F=√B)",
            "Bε query (opt)",
            "Bε query (naive)",
        ],
        &data,
    ));
    out.push_str(&format!(
        "\nGrowth from half-bandwidth point to 64x that size:\n  B-tree op: {:.1}x   Bε insert: {:.1}x   Bε query (opt): {:.1}x\n",
        r.summary.btree_growth, r.summary.betree_insert_growth, r.summary.betree_query_growth
    ));

    // The general-F row: sweep eps at a fixed 4 MiB node.
    let affine = Affine::new(r.alpha_per_byte);
    let shape = DictShape::new(2e9, 1e4, 116.0, 24.0);
    let eps = sensitivity::epsilon_sweep(&affine, &shape, 4.0 * 1024.0 * 1024.0, 9);
    out.push_str("\nGeneral-F row at B = 4 MiB (Theorem 4's trade-off, affine form):\n");
    let eps_rows: Vec<Vec<String>> = eps
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.epsilon),
                format!("{:.0}", p.fanout),
                format!("{:.4}", p.insert),
                format!("{:.3}", p.query),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["ε", "F", "Bε insert", "Bε query"],
        &eps_rows,
    ));
    out.push_str("Paper: 'The cost for inserts and queries increases more slowly in Bε-trees than in B-trees as the node size increases.'\n");
    out
}

/// Figure 2: per-operation latency of a B-tree (BerkeleyDB stand-in) as a
/// function of node size, on the simulated testbed HDD, with the affine
/// model's fitted prediction.
fn render_fig2(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    fig2_text(scale, &fig2(scale))
}

/// The text of `render_fig2`, laid out from rows already computed.
pub fn fig2_text(scale: &Scale, rows: &[NodeSizePoint]) -> String {
    let mut out = format!(
        "Figure 2 — B-tree ms/op vs node size ({} keys, {} cache, {} ops/phase)\n\n",
        scale.n_keys,
        fmt_bytes(scale.cache_bytes as f64),
        scale.ops
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            vec![
                fmt_bytes(p.node_bytes as f64),
                format!("{:.2}", p.query_ms),
                format!("{:.2}", p.insert_ms),
                format!("{:.2}", p.predicted_query_ms),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["Node size", "Query ms/op", "Insert ms/op", "Affine pred ms"],
        &data,
    ));
    // The paper fits an affine line to the measured points and reports its
    // alpha (slope/intercept) and RMS.
    let xs: Vec<f64> = rows.iter().map(|p| p.node_bytes as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|p| p.query_ms).collect();
    if let Ok(fit) = refined_dam::stats::fit_line(&xs, &ys) {
        out.push_str(&format!(
            "\nFitted affine line (query): alpha = {:.4e} per 4 KiB, RMS = {:.2} ms\n",
            fit.slope / fit.intercept * 4096.0,
            fit.rms
        ));
    }
    out.push_str(
        "Paper shape: costs grow once nodes exceed ~64 KiB, then roughly linearly with node size.\n",
    );
    out
}

/// Figure 3: per-operation latency of a Bε-tree (TokuDB stand-in, F = √B)
/// as a function of node size, on the simulated testbed HDD.
fn render_fig3(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    fig3_text(scale, &fig3(scale))
}

/// The text of `render_fig3`, laid out from rows already computed.
pub fn fig3_text(scale: &Scale, rows: &[NodeSizePoint]) -> String {
    let mut out = format!(
        "Figure 3 — Bε-tree (F=√B) ms/op vs node size ({} keys, {} cache, {} ops/phase)\n\n",
        scale.n_keys,
        fmt_bytes(scale.cache_bytes as f64),
        scale.ops
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            vec![
                fmt_bytes(p.node_bytes as f64),
                format!("{:.2}", p.query_ms),
                format!("{:.3}", p.insert_ms),
                format!("{:.2}", p.predicted_query_ms),
                format!("{:.3}", p.predicted_insert_ms),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Node size",
            "Query ms/op",
            "Insert ms/op",
            "Pred query ms",
            "Pred insert ms",
        ],
        &data,
    ));
    let xs: Vec<f64> = rows.iter().map(|p| p.node_bytes as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|p| p.query_ms).collect();
    if let Ok(fit) = refined_dam::stats::fit_line(&xs, &ys) {
        out.push_str(&format!(
            "\nFitted affine line (query): alpha = {:.4e} per 4 KiB, RMS = {:.3} ms\n",
            fit.slope / fit.intercept * 4096.0,
            fit.rms
        ));
    }
    out.push_str(
        "Paper shape: much flatter than the B-tree; larger node sizes cost 'only slightly' more.\n",
    );
    out
}

/// Lemma 1: the DAM with B = 1/α approximates affine cost within 2x in
/// both directions, on representative IO traces.
fn render_lemma1(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    lemma1_text(&lemma1(scale))
}

/// The text of `render_lemma1`, laid out from rows already computed.
pub fn lemma1_text(rows: &[Lemma1Row]) -> String {
    let mut out = "Lemma 1 — DAM (B = 1/α) vs affine cost on IO traces\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                format!("{:.1}", r.affine_cost),
                format!("{:.1}", r.dam_cost),
                format!("{:.3}", r.error_factor),
                if r.holds {
                    "yes".into()
                } else {
                    "VIOLATED".into()
                },
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Trace",
            "Affine cost",
            "DAM cost",
            "DAM/affine",
            "within 2x",
        ],
        &data,
    ));
    out.push_str(
        "\nPaper: 'the DAM approximates the IO cost on any hardware to within a factor of 2.'\n",
    );
    out
}

/// Theorem 9 ablation: standard (whole-node IO) vs optimized (per-child
/// segment) Bε-tree at the same large node size.
fn render_thm9(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    thm9_text(&thm9_ablation(scale))
}

/// The text of `render_thm9`, laid out from rows already computed.
pub fn thm9_text(rows: &[Thm9Row]) -> String {
    let mut out =
        "Theorem 9 — standard vs optimized Bε-tree (1 MiB nodes, testbed HDD)\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                fmt_bytes(r.node_bytes as f64),
                format!("{:.2}", r.query_ms),
                format!("{:.3}", r.insert_ms),
                fmt_bytes(r.query_bytes),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Variant",
            "Node size",
            "Query ms/op",
            "Insert ms/op",
            "Bytes read/op",
        ],
        &data,
    ));
    out.push_str("\nPaper: the optimized organization makes 'all operations simultaneously optimal, up to lower order terms.'\n");
    out
}

/// Lemma 13 / §8: query throughput of PDAM search-tree designs as the
/// number of concurrent clients varies.
fn render_lemma13(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    lemma13_text(scale, &lemma13(scale))
}

/// The text of `render_lemma13`, laid out from rows already computed.
pub fn lemma13_text(scale: &Scale, rows: &[Lemma13Row]) -> String {
    let mut out = format!(
        "Lemma 13 — queries per time step, P = 8, PB nodes vs B nodes ({} steps)\n\n",
        scale.lemma13_steps
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.clients),
                format!("{:.4}", r.fat_veb),
                format!("{:.4}", r.fat_sorted),
                format!("{:.4}", r.small_nodes),
                format!("{:.4}", r.predicted_veb),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "k clients",
            "PB vEB",
            "PB sorted",
            "B nodes",
            "Lemma 13 pred",
        ],
        &data,
    ));
    out.push_str(
        "\nPaper: the vEB design 'gracefully adapts when the number of clients varies over time.'\n",
    );
    out
}

/// Corollaries 6, 7, 11, 12: tuned node sizes and fanouts for every
/// Table 2 disk.
fn render_optima(_scale: &Scale) -> String {
    optima_text(&corollary_optima())
}

/// The text of `render_optima`, laid out from rows already computed.
pub fn optima_text(rows: &[OptimaRow]) -> String {
    let mut out =
        "Corollary optima — tuned parameters per disk (2e9 keys, 116 B entries)\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.disk.clone(),
                format!("{:.4}", r.alpha_per_4k),
                fmt_bytes(r.half_bandwidth),
                fmt_bytes(r.btree_point),
                format!("{:.0}", r.betree_fanout),
                fmt_bytes(r.betree_node),
                format!("{:.1}x", r.insert_speedup),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Disk",
            "α/4K",
            "Cor 6: 1/α",
            "Cor 7: B-tree B",
            "Cor 12: F",
            "Cor 12: Bε B",
            "insert speedup",
        ],
        &data,
    ));
    out.push_str("\nPaper: 'an optimized Bε-tree node size can be nearly the square of the optimal node size for a B-tree.'\n");
    out
}

/// Definition 3 / Lemma 3 / Theorem 4(4): measured vs predicted write
/// amplification of random inserts.
fn render_writeamp(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    writeamp_text(&write_amp(scale))
}

/// The text of `render_writeamp`, laid out from rows already computed.
pub fn writeamp_text(rows: &[WriteAmpRow]) -> String {
    let mut out =
        "Write amplification — random inserts, 256 KiB nodes, testbed HDD\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.clone(),
                fmt_bytes(r.node_bytes as f64),
                format!("{:.1}", r.measured),
                format!("{:.1}", r.predicted),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["Structure", "Node size", "WA (measured)", "WA (model)"],
        &data,
    ));
    out.push_str("\nLemma 3: B-tree WA is Θ(B); Theorem 4(4): Bε-tree WA is O(B^ε · log(N/M)).\n");
    out
}

/// The §1 LevelDB puzzle: "LevelDB's LSM-tree uses 2MiB SSTables for all
/// workloads" — why 2 MiB? Sweep SSTable sizes on the testbed HDD and
/// watch the affine model's answer appear.
fn render_lsm(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    lsm_text(scale, &lsm_sstable_size(scale))
}

/// The text of `render_lsm`, laid out from rows already computed.
pub fn lsm_text(scale: &Scale, rows: &[LsmSizePoint]) -> String {
    let mut out = format!(
        "LSM SSTable-size sweep — testbed HDD, {} keys, {} cache\n\n",
        scale.n_keys,
        fmt_bytes(scale.cache_bytes as f64)
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            vec![
                fmt_bytes(p.sstable_bytes as f64),
                format!("{:.2}", p.query_ms),
                format!("{:.3}", p.insert_ms),
                format!("{:.1}", p.write_amp),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["SSTable size", "Query ms/op", "Insert ms/op", "Write amp"],
        &data,
    ));
    out.push_str(
        "\nInsert cost falls as tables pass the half-bandwidth point (sequential writes\n\
         amortize the setup cost); queries read one block per level regardless — which is\n\
         why a single large SSTable size serves 'all workloads'.\n",
    );
    out
}

/// §3's landscape, measured: the B-tree against the write-optimized
/// dictionaries (standard/optimized Bε-tree, LSM-tree) on one device and
/// workload.
fn render_wod(scale: &Scale) -> String {
    wod_text(scale, &wod_comparison(scale))
}

/// The text of `render_wod`, laid out from rows already computed.
pub fn wod_text(scale: &Scale, rows: &[WodRow]) -> String {
    let mut out = format!(
        "Write-optimized dictionary comparison — testbed HDD, {} keys\n\n",
        scale.n_keys
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.clone(),
                format!("{:.2}", r.query_ms),
                format!("{:.3}", r.insert_ms),
                format!("{:.2}", r.range_ms),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["Structure", "Query ms/op", "Insert ms/op", "Range(200) ms"],
        &data,
    ));
    out.push_str(
        "\n§3: a write-optimized dictionary has 'substantially better insertion performance\n\
         than a B-tree and query performance at or near that of a B-tree.'\n",
    );
    out
}

/// §5's aging claim: "as B-trees age, their nodes get spread out across
/// disk, and range-query performance degrades. This is borne out in
/// practice." Fresh vs aged B-tree, same content, same device.
fn render_aging(scale: &Scale) -> String {
    aging_text(&aging(scale))
}

/// The text of `render_aging`, laid out from rows already computed.
pub fn aging_text(rows: &[AgingRow]) -> String {
    let mut out = "B-tree aging — full-scan bandwidth, 64 KiB nodes, testbed HDD\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.state.clone(),
                format!("{:.1}", r.scan_mb_s),
                format!("{:.2}", r.point_ms),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["Tree state", "Scan MB/s", "Point ms/op"],
        &data,
    ));
    if rows.len() == 2 {
        out.push_str(&format!(
            "\nAging slows scans by {:.1}x; point queries barely move — the leaves are\nscattered, not lost.\n",
            rows[0].scan_mb_s / rows[1].scan_mb_s
        ));
    }
    out
}

/// §5's OLTP/OLAP dichotomy: point-query and range-scan optima diverge by
/// over an order of magnitude in node size, which is why OLTP systems use
/// small leaves (16 KiB) and OLAP systems use large ones (~1 MB).
fn render_oltp_olap(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    oltp_olap_text(&oltp_olap(scale))
}

/// The text of `render_oltp_olap`, laid out from rows already computed.
pub fn oltp_olap_text(rows: &[OltpOlapRow]) -> String {
    let mut out = "OLTP vs OLAP — B-tree node-size sweep on the testbed HDD\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                fmt_bytes(r.node_bytes as f64),
                format!("{:.2}", r.point_ms),
                format!("{:.1}", r.scan_mb_s),
                format!("{:.0}%", 100.0 * r.predicted_utilization),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "Node size",
            "Point ms (OLTP)",
            "Scan MB/s (OLAP)",
            "Pred. bandwidth util",
        ],
        &data,
    ));
    out.push_str(
        "\nSmall nodes win points, big nodes win scans — no single size serves both,\n\
         which is the paper's explanation for the OLTP/OLAP leaf-size split (§5).\n",
    );
    out
}

/// §3's read/write asymmetry, carried through the models: as the write-cost
/// multiplier ω grows (NVMe, logging, flash GC), the optimal Bε-tree ε
/// falls and the break-even write fraction for write-optimization drops.
fn render_asymmetry(_scale: &Scale) -> String {
    let shape = DictShape::new(2e9, 1e4, 116.0, 24.0);
    let node = (4u64 << 20) as f64;
    let mut out =
        "Asymmetric affine model — optimal ε and break-even write fraction (4 MiB nodes)\n\n"
            .to_string();
    let mut rows = Vec::new();
    for omega in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let m = AsymmetricAffine::new(4.88e-7, omega);
        let eps_balanced = m.optimal_epsilon(&shape, node, 0.5);
        let eps_read_heavy = m.optimal_epsilon(&shape, node, 0.1);
        let breakeven = m.betree_breakeven_write_frac(&shape, node);
        rows.push(vec![
            format!("{omega:.0}"),
            format!("{eps_read_heavy:.2}"),
            format!("{eps_balanced:.2}"),
            format!("{breakeven:.3}"),
        ]);
    }
    out.push_str(&table::render(
        &[
            "ω (write/read)",
            "ε* (10% writes)",
            "ε* (50% writes)",
            "break-even write frac",
        ],
        &rows,
    ));
    out.push_str(
        "\n§3: 'writes are more expensive than reads, and this has algorithmic\n\
         consequences' — costlier writes push the design toward smaller ε (more\n\
         buffering) and make write-optimization pay off at lower write fractions.\n",
    );
    out
}

/// The DAM's `M`: skewed access distributions turn cache residency into
/// speed — the `log(N/M)` term in every dictionary bound, measured.
fn render_cache_skew(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    cache_skew_text(&cache_skew(scale))
}

/// The text of `render_cache_skew`, laid out from rows already computed.
pub fn cache_skew_text(rows: &[SkewRow]) -> String {
    let mut out =
        "Access skew vs cache effectiveness — B-tree, 64 KiB nodes, testbed HDD\n\n".to_string();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.2}", r.query_ms),
                format!("{:.0}%", 100.0 * r.hit_rate),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["Workload", "Query ms/op", "Cache hit rate"],
        &data,
    ));
    out.push_str(
        "\nHotter key distributions concentrate the working set inside M: hit rates\n\
         climb and the effective log(N/M) shrinks.\n",
    );
    out
}

/// Lemma 13 / §8 through real dictionaries: closed-loop multi-client
/// throughput as `k` varies, served by the `dam-serve` engine (hash
/// shards, IO batching, PDAM step scheduler) instead of the §8 layout
/// simulator. The `Lemma 13 pred` column is the analytic
/// `k / log_{PB/k} N` for the same parameters — compare shapes down a
/// column, not absolute values.
fn render_serve_sweep(scale: &Scale) -> String {
    eprintln!("{}", describe_jobs());
    serve_sweep_text(&serve_sweep(scale), SERVE_P, SERVE_SHARDS)
}

/// The text of `render_serve_sweep` (and of `damlab serve`), laid out from
/// rows already computed at slot budget `p` over `shards` shards.
pub fn serve_sweep_text(rows: &[ServeSweepRow], p: usize, shards: usize) -> String {
    let mut out = format!(
        "Lemma 13 through real trees — ops per PDAM step, P = {p}, S = {shards} shards\n\n"
    );
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.clone(),
                format!("{}", r.clients),
                format!("{}", r.ops),
                format!("{}", r.steps),
                format!("{:.4}", r.throughput_ops_per_step),
                format!("{:.4}", r.predicted_veb),
                format!("{:.2}", r.slot_utilization),
                format!("{:.2}", r.coalesce_rate),
                format!("{}", r.p50_latency_steps),
                format!("{}", r.p99_latency_steps),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "structure",
            "k",
            "ops",
            "steps",
            "ops/step",
            "Lemma 13 pred",
            "slot util",
            "coalesce",
            "p50",
            "p99",
        ],
        &data,
    ));
    out.push_str(
        "\nPaper: a PDAM-aware server keeps all P slots busy, so throughput grows with k \
         while per-client latency stays near the tree height.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_non_empty() {
        let mut seen = BTreeSet::new();
        for e in EXPERIMENTS {
            assert!(!e.name.is_empty(), "empty experiment name");
            assert!(seen.insert(e.name), "duplicate experiment name {}", e.name);
        }
        assert_eq!(seen.len(), EXPERIMENTS.len());
    }
}
