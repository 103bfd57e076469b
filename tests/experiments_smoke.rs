//! Experiment smoke tests: run every table/figure regenerator at a reduced
//! scale and assert the *shape* properties the paper reports — who wins, by
//! roughly what factor, where the knees and crossovers fall.
//!
//! They are also the behaviour gate. Each test lays its rows out as the
//! text `damlab experiment <name>` prints and compares that text with the
//! committed golden `tests/golden/<name>.txt`, so a change that moves any
//! simulated number fails with a row diff even when every shape still
//! holds. `DAM_BLESS=1 cargo test --test experiments_smoke` rewrites the
//! goldens; a re-blessed row needs its reason in EXPERIMENTS.md.

use dam_bench::registry::{self, EXPERIMENTS};
use dam_bench::{experiments, Scale};
use std::path::PathBuf;

fn scale() -> Scale {
    Scale::smoke()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compare `text`, the render of registry entry `name`, with its golden
/// file, or rewrite the file when `DAM_BLESS=1`.
fn golden(name: &str, text: &str) {
    assert!(
        EXPERIMENTS.iter().any(|e| e.name == name),
        "{name} is not a registry entry"
    );
    let path = golden_path(name);
    if std::env::var_os("DAM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (DAM_BLESS=1 writes it from this build)",
            path.display()
        )
    });
    if want != text {
        panic!(
            "{name} differs from {} (- golden, + this build):\n{}",
            path.display(),
            row_diff(&want, text)
        );
    }
}

/// The lines where `want` and `got` differ, numbered from 1.
fn row_diff(want: &str, got: &str) -> String {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..w.len().max(g.len()) {
        let (a, b) = (w.get(i), g.get(i));
        if a != b {
            out.push_str(&format!("line {}:\n", i + 1));
            if let Some(a) = a {
                out.push_str(&format!("- {a}\n"));
            }
            if let Some(b) = b {
                out.push_str(&format!("+ {b}\n"));
            }
        }
    }
    if out.is_empty() {
        out.push_str("(the texts differ only in line endings)\n");
    }
    out
}

#[test]
fn every_registry_entry_has_a_golden() {
    for e in EXPERIMENTS {
        assert!(
            golden_path(e.name).exists(),
            "no golden for {} (DAM_BLESS=1 writes it)",
            e.name
        );
    }
}

/// The two entries no shape test below computes rows for.
#[test]
fn remaining_renders_match_their_goldens() {
    let s = scale();
    for name in ["asymmetry", "serve-sweep"] {
        let e = EXPERIMENTS.iter().find(|e| e.name == name).expect(name);
        golden(name, &(e.render)(&s));
    }
}

#[test]
fn table1_fits_land_near_paper_values() {
    let rows = experiments::fig1_and_table1(&scale());
    golden("table1", &registry::table1_text(&rows));
    let paper = [(3.3, 530.0), (5.5, 2500.0), (2.9, 260.0), (4.6, 520.0)];
    for (row, (p, sat)) in rows.iter().zip(paper) {
        assert!(
            (row.p - p).abs() < 0.8,
            "{}: fitted P {} vs paper {p}",
            row.device,
            row.p
        );
        assert!(
            (row.saturation_mb_s - sat).abs() / sat < 0.15,
            "{}: saturation {} vs paper {sat}",
            row.device,
            row.saturation_mb_s
        );
        assert!(row.r2 > 0.99, "{}: R² {}", row.device, row.r2);
    }
}

#[test]
fn fig1_series_flat_then_linear() {
    let s = scale();
    let rows = experiments::fig1_and_table1(&s);
    golden("fig1", &registry::fig1_text(&s, &rows));
    for row in rows {
        let t = |p: usize| row.series.iter().find(|&&(x, _)| x == p).unwrap().1;
        // Flat start: doubling 1 → 2 threads costs < 25% more time.
        assert!(
            t(2) < 1.25 * t(1),
            "{}: t2/t1 = {}",
            row.device,
            t(2) / t(1)
        );
        // Linear tail: 64 threads ≈ 2× of 32 threads.
        let tail = t(64) / t(32);
        assert!(
            (1.7..2.3).contains(&tail),
            "{}: t64/t32 = {tail}",
            row.device
        );
    }
}

#[test]
fn table2_fits_match_paper_alphas() {
    let s = scale();
    let rows = experiments::table2(&s);
    golden("table2", &registry::table2_text(&s, &rows));
    for row in rows {
        assert!(
            (row.alpha - row.paper_alpha).abs() / row.paper_alpha < 0.25,
            "{}: alpha {} vs paper {}",
            row.disk,
            row.alpha,
            row.paper_alpha
        );
        assert!(row.r2 > 0.99, "{}: R² {}", row.disk, row.r2);
    }
}

#[test]
fn table3_btree_most_sensitive() {
    let r = experiments::table3();
    golden("table3", &registry::table3_text(&r));
    assert!(r.summary.btree_growth > 3.0 * r.summary.betree_insert_growth);
    assert!(r.summary.btree_growth > 3.0 * r.summary.betree_query_growth);
    // The optimized Bε query barely grows (or shrinks) with node size.
    assert!(r.summary.betree_query_growth < 2.0);
}

#[test]
fn fig2_and_fig3_sensitivity_contrast() {
    let s = scale();
    let fig2 = experiments::fig2(&s);
    let fig3 = experiments::fig3(&s);
    golden("fig2", &registry::fig2_text(&s, &fig2));
    golden("fig3", &registry::fig3_text(&s, &fig3));
    // B-tree: cost at the largest node size is several times the minimum.
    let b_min = fig2
        .iter()
        .map(|p| p.query_ms)
        .fold(f64::INFINITY, f64::min);
    let b_last = fig2.last().unwrap().query_ms;
    let btree_growth = b_last / b_min;
    // Bε-tree: flat by comparison.
    let e_min = fig3
        .iter()
        .map(|p| p.query_ms)
        .fold(f64::INFINITY, f64::min);
    let e_last = fig3.last().unwrap().query_ms;
    let betree_growth = e_last / e_min;
    assert!(
        btree_growth > 1.5 * betree_growth,
        "btree growth {btree_growth} vs betree growth {betree_growth}"
    );
    // Bε inserts are far cheaper than B-tree inserts at every node size.
    for (b, e) in fig2.iter().rev().zip(fig3.iter().rev()) {
        assert!(
            e.insert_ms < b.insert_ms / 5.0,
            "betree insert {} should be far below btree insert {} at {}B/{}B",
            e.insert_ms,
            b.insert_ms,
            e.node_bytes,
            b.node_bytes
        );
    }
}

#[test]
fn lemma1_bound_holds_everywhere() {
    let rows = experiments::lemma1(&scale());
    golden("lemma1", &registry::lemma1_text(&rows));
    for row in rows {
        assert!(row.holds, "{}: factor {}", row.trace, row.error_factor);
        assert!((0.5..=2.0).contains(&row.error_factor), "{}", row.trace);
    }
}

#[test]
fn thm9_optimized_wins_queries_without_losing_inserts() {
    let rows = experiments::thm9_ablation(&scale());
    golden("thm9", &registry::thm9_text(&rows));
    let std_row = &rows[0];
    let opt_row = &rows[1];
    assert!(
        opt_row.query_ms < std_row.query_ms,
        "optimized query {} should beat standard {}",
        opt_row.query_ms,
        std_row.query_ms
    );
    assert!(
        opt_row.query_bytes * 10.0 < std_row.query_bytes,
        "optimized reads {} bytes/op vs standard {}",
        opt_row.query_bytes,
        std_row.query_bytes
    );
    // Inserts stay within a small factor.
    assert!(opt_row.insert_ms < 10.0 * std_row.insert_ms.max(0.01));
}

#[test]
fn lemma13_veb_adapts_across_client_counts() {
    let s = scale();
    let rows = experiments::lemma13(&s);
    golden("lemma13", &registry::lemma13_text(&s, &rows));
    // Throughput rises with k for the vEB design.
    for w in rows.windows(2) {
        assert!(w[1].fat_veb > w[0].fat_veb);
    }
    let k1 = &rows[0];
    let kp = rows.last().unwrap();
    // k = 1: fat vEB beats small nodes (single client exploits read-ahead).
    assert!(
        k1.fat_veb > k1.small_nodes,
        "{} vs {}",
        k1.fat_veb,
        k1.small_nodes
    );
    // vEB beats the sorted layout at every k.
    for r in &rows {
        assert!(
            r.fat_veb > r.fat_sorted,
            "k={}: {} vs {}",
            r.clients,
            r.fat_veb,
            r.fat_sorted
        );
    }
    // k = P: within 2x of the small-node optimum.
    assert!(kp.fat_veb > kp.small_nodes / 2.0);
}

#[test]
fn corollary_optima_are_ordered() {
    let rows = experiments::corollary_optima();
    golden("optima", &registry::optima_text(&rows));
    for row in rows {
        assert!(row.btree_point < row.half_bandwidth, "{}", row.disk);
        assert!(row.betree_node > 10.0 * row.half_bandwidth, "{}", row.disk);
        assert!(row.insert_speedup > 3.0, "{}", row.disk);
    }
}

#[test]
fn write_amp_hierarchy() {
    let rows = experiments::write_amp(&scale());
    golden("writeamp", &registry::writeamp_text(&rows));
    let btree = &rows[0];
    let betree = &rows[1];
    assert!(
        btree.measured > 20.0 * betree.measured,
        "btree WA {} vs betree WA {}",
        btree.measured,
        betree.measured
    );
    // B-tree measurement within a factor of 3 of the Θ(B) model.
    assert!(btree.measured > btree.predicted / 3.0 && btree.measured < btree.predicted * 3.0);
}

#[test]
fn experiments_are_deterministic() {
    let s = scale();
    assert_eq!(experiments::table2(&s), experiments::table2(&s));
    assert_eq!(experiments::lemma13(&s), experiments::lemma13(&s));
    assert_eq!(experiments::fig2(&s), experiments::fig2(&s));
}

#[test]
fn lsm_sweep_shows_the_leveldb_story() {
    let s = scale();
    let rows = experiments::lsm_sstable_size(&s);
    golden("lsm", &registry::lsm_text(&s, &rows));
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    // Inserts get much cheaper with bigger SSTables...
    assert!(
        last.insert_ms * 5.0 < first.insert_ms,
        "insert {} -> {} should fall steeply",
        first.insert_ms,
        last.insert_ms
    );
    assert!(last.write_amp < first.write_amp, "WA should fall");
    // ...while queries barely move.
    let q_min = rows
        .iter()
        .map(|p| p.query_ms)
        .fold(f64::INFINITY, f64::min);
    let q_max = rows.iter().map(|p| p.query_ms).fold(0.0f64, f64::max);
    assert!(
        q_max < 2.0 * q_min,
        "query range [{q_min}, {q_max}] should be flat"
    );
}

#[test]
fn wod_comparison_hierarchy() {
    let s = scale();
    let rows = experiments::wod_comparison(&s);
    golden("wod", &registry::wod_text(&s, &rows));
    let btree = &rows[0];
    for wod in &rows[1..] {
        assert!(
            wod.insert_ms < btree.insert_ms / 2.0,
            "{}: insert {} should be well below the B-tree's {}",
            wod.structure,
            wod.insert_ms,
            btree.insert_ms
        );
        assert!(
            wod.query_ms < 2.5 * btree.query_ms,
            "{}: query {} should be near the B-tree's {}",
            wod.structure,
            wod.query_ms,
            btree.query_ms
        );
    }
}

#[test]
fn aging_degrades_scans_not_points() {
    let rows = experiments::aging(&scale());
    golden("aging", &registry::aging_text(&rows));
    let fresh = &rows[0];
    let aged = &rows[1];
    assert!(
        fresh.scan_mb_s > 3.0 * aged.scan_mb_s,
        "fresh scan {} MB/s should dwarf aged {} MB/s",
        fresh.scan_mb_s,
        aged.scan_mb_s
    );
    // Point queries barely change (random access was always seek-bound).
    let ratio = aged.point_ms / fresh.point_ms;
    assert!((0.5..2.0).contains(&ratio), "point ratio {ratio}");
}

#[test]
fn oltp_and_olap_optima_diverge() {
    let rows = experiments::oltp_olap(&scale());
    golden("oltp-olap", &registry::oltp_olap_text(&rows));
    // Best node size for points...
    let best_point = rows
        .iter()
        .min_by(|a, b| a.point_ms.total_cmp(&b.point_ms))
        .unwrap()
        .node_bytes;
    // ...and for scans.
    let best_scan = rows
        .iter()
        .max_by(|a, b| a.scan_mb_s.total_cmp(&b.scan_mb_s))
        .unwrap()
        .node_bytes;
    assert!(
        best_scan >= 16 * best_point,
        "scan optimum {best_scan} should be far above point optimum {best_point}"
    );
    // Scan bandwidth grows strongly with node size on an aged tree.
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(
        last.scan_mb_s > 4.0 * first.scan_mb_s,
        "scan bw should grow: {} -> {}",
        first.scan_mb_s,
        last.scan_mb_s
    );
}

#[test]
fn skewed_queries_exploit_the_cache() {
    let rows = experiments::cache_skew(&scale());
    golden("cache-skew", &registry::cache_skew_text(&rows));
    let uniform = &rows[0];
    let hot = rows.last().unwrap();
    assert!(
        hot.hit_rate > uniform.hit_rate,
        "{} vs {}",
        hot.hit_rate,
        uniform.hit_rate
    );
    assert!(
        hot.query_ms < uniform.query_ms,
        "hot {} ms should beat uniform {} ms",
        hot.query_ms,
        uniform.query_ms
    );
}
