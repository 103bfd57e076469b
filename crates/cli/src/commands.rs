//! Subcommand implementations. Each returns the text to print, so the test
//! suite can drive the whole CLI in-process.

use crate::args::{Args, CliError};
use dam_bench::registry::EXPERIMENTS;
use dam_bench::{experiments, Scale};
use refined_dam::prelude::*;
use refined_dam::profiler::{fig1_thread_counts, table2_io_sizes};
use refined_dam::storage::profiles;
use refined_dam::storage::{HddProfile, SsdProfile};
use std::fmt::Write as _;

/// A named device: either kind of profile.
enum Device {
    Hdd(HddProfile),
    Ssd(SsdProfile),
}

fn device_catalog() -> Vec<(&'static str, Device)> {
    vec![
        (
            "seagate-2tb-2002",
            Device::Hdd(profiles::seagate_2tb_2002()),
        ),
        (
            "seagate-250gb-2006",
            Device::Hdd(profiles::seagate_250gb_2006()),
        ),
        (
            "hitachi-1tb-2009",
            Device::Hdd(profiles::hitachi_1tb_2009()),
        ),
        (
            "wd-black-1tb-2011",
            Device::Hdd(profiles::wd_black_1tb_2011()),
        ),
        ("wd-red-6tb-2018", Device::Hdd(profiles::wd_red_6tb_2018())),
        (
            "toshiba-dt01aca050",
            Device::Hdd(profiles::toshiba_dt01aca050()),
        ),
        ("samsung-860-pro", Device::Ssd(profiles::samsung_860_pro())),
        ("samsung-970-pro", Device::Ssd(profiles::samsung_970_pro())),
        (
            "silicon-power-s55",
            Device::Ssd(profiles::silicon_power_s55()),
        ),
        (
            "sandisk-ultra-ii",
            Device::Ssd(profiles::sandisk_ultra_ii()),
        ),
        ("samsung-860-evo", Device::Ssd(profiles::samsung_860_evo())),
    ]
}

fn find_device(name: &str) -> Result<Device, CliError> {
    device_catalog()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| d)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown device '{name}'; run 'damlab devices' for the list"
            ))
        })
}

/// `damlab help`.
pub fn help() -> String {
    "damlab — the refined-DAM toolkit (SPAA '19 reproduction)\n\
     \n\
     commands:\n\
     \x20 devices                              list simulated device profiles\n\
     \x20 profile --device <name>              run the §4 microbenchmark + model fit\n\
     \x20 tune    --device <name> | --alpha-4k <a>   node-size/fanout recommendations\n\
     \x20 run     --structure <s> --device <d> [--node-kb N] [--keys N] [--ops N]\n\
     \x20                                      load a dictionary, measure per-op costs\n\
     \x20         structures: btree | betree | optbetree | lsm\n\
     \x20 experiment <name> [--seed S] [--jobs N]\n\
     \x20                                      regenerate a paper table/figure\n\
     \x20 experiment list                      list experiment names\n\
     \x20 stats   --structure <s> --device <d> [--node-kb N] [--keys N] [--ops N]\n\
     \x20         [--format json] [--fault-denom N]\n\
     \x20                                      instrumented run: per-level IO, spans,\n\
     \x20                                      latency percentiles, cache hit rate,\n\
     \x20                                      read/write amp, model residuals\n\
     \x20 serve   [--structure s|all] [--clients K] [--shards S] [--ops N]\n\
     \x20         [--p P] [--preload N] [--seed S] [--smoke] [--jobs N]\n\
     \x20                                      closed-loop multi-client serving:\n\
     \x20                                      k clients over S hash shards on one\n\
     \x20                                      PDAM device (slot budget P); without\n\
     \x20                                      --clients, sweeps k in {1,2,4,8,16}\n\
     \x20                                      and prints measured ops/step next to\n\
     \x20                                      Lemma 13's k / log_{PB/k} N\n\
     \x20 check   [--ops N] [--seed S] [--structure <s>] [--mode <m>]\n\
     \x20         [--crash-points N] [--crash-ops N] [--shrink-budget N]\n\
     \x20         [--clients K] [--shards S]\n\
     \x20                                      differential harness: lockstep replay\n\
     \x20                                      of an adversarial trace against all\n\
     \x20                                      four dictionaries + a BTreeMap oracle,\n\
     \x20                                      with fault and crash-recovery modes,\n\
     \x20                                      plus a concurrent mode replaying the\n\
     \x20                                      trace as K clients through the serving\n\
     \x20                                      engine; prints a repro on divergence\n\
     \x20         modes: all | plain | faults | crash | concurrent |\n\
     \x20         persistent (every op armed with a lasting fault, and a\n\
     \x20         device that fills; not part of all)\n\
     \x20 check-metrics --snapshot <f> --schema <f>   validate a metrics snapshot\n"
        .to_string()
}

/// `damlab devices`.
pub fn devices() -> String {
    let mut out = String::new();
    writeln!(out, "{:<22} {:<5} details", "name", "kind").unwrap();
    for (name, dev) in device_catalog() {
        match dev {
            Device::Hdd(p) => writeln!(
                out,
                "{:<22} {:<5} s={:.4}s t={:.6}s/4K alpha={:.4}/4K",
                name,
                "hdd",
                p.expected_setup_s(),
                p.expected_seconds_per_byte() * 4096.0,
                p.alpha_per_byte() * 4096.0
            )
            .unwrap(),
            Device::Ssd(p) => writeln!(
                out,
                "{:<22} {:<5} P={:.1} bus={:.0}MB/s",
                name,
                "ssd",
                p.effective_p(64 * 1024),
                p.saturated_read_rate() / 1e6
            )
            .unwrap(),
        }
    }
    out
}

/// `damlab profile --device <name>`.
pub fn profile(args: &Args) -> Result<String, CliError> {
    let name = args.require("device")?;
    let seed = args.get_u64("seed", 7)?;
    match find_device(name)? {
        Device::Hdd(p) => {
            let report = profile_affine(
                || Box::new(HddDevice::new(p.clone(), seed)),
                &table2_io_sizes(),
                args.get_u64("reads", 64)?,
                seed,
            )
            .map_err(|e| CliError::Runtime(e.to_string()))?;
            Ok(format!(
                "{name} (affine fit over {} IO sizes):\n  s = {:.4} s (se {:.2e})\n  t = {:.6} s/4KiB (se {:.2e})\n  alpha = {:.4} /4KiB\n  R^2 = {:.4}\n",
                report.series.len(),
                report.setup_s,
                report.fit.intercept_se,
                report.t_per_4k,
                report.fit.slope_se * 4096.0,
                report.alpha_per_4k,
                report.r2
            ))
        }
        Device::Ssd(p) => {
            let report = profile_pdam(
                || Box::new(SsdDevice::new(p.clone())),
                &fig1_thread_counts(),
                args.get_u64("ios", 300)?,
                64 * 1024,
                seed,
            )
            .map_err(|e| CliError::Runtime(e.to_string()))?;
            Ok(format!(
                "{name} (PDAM fit over threads 1..64):\n  P = {:.1}\n  saturation = {:.0} MB/s\n  R^2 = {:.4}\n",
                report.p,
                report.saturation_bytes_s / 1e6,
                report.r2
            ))
        }
    }
}

/// `damlab tune --device <name> | --alpha-4k <a>`.
pub fn tune(args: &Args) -> Result<String, CliError> {
    let alpha_per_byte =
        if let Some(a4k) = args.get_f64("alpha-4k")? {
            if a4k <= 0.0 {
                return Err(CliError::Usage("--alpha-4k must be positive".into()));
            }
            a4k / 4096.0
        } else {
            let name = args.require("device").map_err(|_| {
                CliError::Usage("tune needs --device <name> or --alpha-4k <a>".into())
            })?;
            match find_device(name)? {
                Device::Hdd(p) => p.alpha_per_byte(),
                Device::Ssd(_) => return Err(CliError::Usage(
                    "tune targets affine (HDD) devices; for SSDs see 'profile' and §8's PB sizing"
                        .into(),
                )),
            }
        };
    let n_keys = args.get_u64("keys", 2_000_000_000)? as f64;
    let cache_mb = args.get_u64("cache-mb", 4096)? as f64;
    let entry = args.get_u64("entry-bytes", 116)? as f64;
    let shape = DictShape::new(n_keys, cache_mb * 1e6 / entry, entry, 24.0);
    let affine = Affine::new(alpha_per_byte);
    let t = tune_for_affine(&affine, &shape);
    Ok(format!(
        "alpha = {:.3e}/byte ({:.4}/4KiB)\n\
         Cor 6  half-bandwidth point:      {:.0} KiB\n\
         Cor 7  B-tree point-op node size: {:.0} KiB\n\
         Cor 12 Be-tree fanout:            {:.0}\n\
         Cor 12 Be-tree node size:         {:.1} MiB\n\
         predicted insert speedup:         {:.1}x\n",
        affine.alpha,
        affine.alpha * 4096.0,
        t.btree_all_ops_node_bytes / 1024.0,
        t.btree_point_node_bytes / 1024.0,
        t.betree_fanout,
        t.betree_node_bytes / (1u64 << 20) as f64,
        t.insert_speedup
    ))
}

/// Load `keys` pairs (even keys, 100-byte values) into a fresh `structure`
/// on `device`: the B-tree and both Bε-trees bulk-load; the LSM takes the
/// pairs as inserts in a scattered order, then syncs. `obs`, when given,
/// is attached once loading is done.
fn bulk_load(
    structure: &str,
    device: SharedDevice,
    node_bytes: usize,
    cache: u64,
    keys: u64,
    obs: Option<&Obs>,
) -> Result<Box<dyn Dictionary>, CliError> {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..keys)
        .map(|i| {
            (
                refined_dam::kv::key_from_u64(2 * i).to_vec(),
                vec![(i % 251) as u8; 100],
            )
        })
        .collect();
    macro_rules! attach {
        ($tree:expr) => {{
            let mut t = $tree;
            if let Some(o) = obs {
                t.set_obs(o.clone());
            }
            Box::new(t)
        }};
    }
    let map_err = |e: KvError| CliError::Runtime(e.to_string());
    Ok(match structure {
        "btree" => attach!(
            BTree::bulk_load(device, BTreeConfig::new(node_bytes, cache), pairs)
                .map_err(map_err)?
        ),
        "betree" => attach!(BeTree::bulk_load(
            device,
            BeTreeConfig::sqrt_fanout(node_bytes, 124, cache),
            pairs,
        )
        .map_err(map_err)?),
        "optbetree" => attach!(OptBeTree::bulk_load(
            device,
            OptConfig::balanced(node_bytes, 124, cache),
            pairs
        )
        .map_err(map_err)?),
        "lsm" => {
            let mut t =
                LsmTree::create(device, LsmConfig::new(node_bytes, cache)).map_err(map_err)?;
            let n = pairs.len() as u64;
            let stride = 982_451_653u64;
            for j in 0..n {
                let (k, v) = &pairs[((j.wrapping_mul(stride)) % n) as usize];
                t.insert(k, v).map_err(map_err)?;
            }
            t.sync().map_err(map_err)?;
            attach!(t)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown structure '{other}' (btree | betree | optbetree | lsm)"
            )))
        }
    })
}

/// `damlab run --structure <s> --device <d> ...`.
pub fn run_workload(args: &Args) -> Result<String, CliError> {
    let structure = args.require("structure")?.to_string();
    let device_name = args.require("device")?;
    let node_kb = args.get_u64("node-kb", 256)?;
    let keys = args.get_u64("keys", 100_000)?;
    let ops = args.get_u64("ops", 200)?;
    let cache_mb = args.get_u64("cache-mb", 4)?;
    let seed = args.get_u64("seed", 0xDA4)?;

    let device = match find_device(device_name)? {
        Device::Hdd(p) => SharedDevice::new(Box::new(HddDevice::new(p, seed))),
        Device::Ssd(p) => SharedDevice::new(Box::new(SsdDevice::new(p))),
    };
    let node_bytes = (node_kb * 1024) as usize;
    let cache = cache_mb << 20;
    let mut dict = bulk_load(&structure, device, node_bytes, cache, keys, None)?;

    let scale = Scale {
        n_keys: keys,
        value_bytes: 100,
        cache_bytes: cache,
        ops,
        ..Scale::default()
    };
    let (query_ms, insert_ms) = experiments::measure_phases(dict.as_mut(), &scale);
    Ok(format!(
        "{structure} on {device_name}: {keys} keys, {node_kb} KiB nodes, {cache_mb} MiB cache\n\
         \x20 query:  {query_ms:.3} simulated ms/op\n\
         \x20 insert: {insert_ms:.3} simulated ms/op (amortized, incl. sync)\n"
    ))
}

/// Clears the process-wide sweep job override on drop, so an `--jobs`
/// flag never outlives its command (the tests drive commands in-process).
struct JobsGuard(bool);
impl Drop for JobsGuard {
    fn drop(&mut self) {
        if self.0 {
            dam_bench::sweep::set_global_jobs(None);
        }
    }
}

/// Install the `--jobs N` override, if the flag is present. Job count only
/// changes wall-clock time — sweep results are identical at any value.
fn jobs_override(args: &Args) -> Result<JobsGuard, CliError> {
    match args.get_u64("jobs", 0)? {
        0 => Ok(JobsGuard(false)),
        n => {
            dam_bench::sweep::set_global_jobs(Some(n as usize));
            Ok(JobsGuard(true))
        }
    }
}

/// `damlab experiment <name> [--seed S] [--jobs N]`: print the registry's
/// render of one result and, under `DAM_METRICS`, write its sidecar.
pub fn experiment(args: &Args) -> Result<String, CliError> {
    let name = args
        .positional
        .as_deref()
        .ok_or_else(|| CliError::Usage("experiment needs a name; try 'experiment list'".into()))?;
    if name == "list" {
        return Ok(EXPERIMENTS
            .iter()
            .map(|e| format!("{}\n", e.name))
            .collect());
    }
    let exp = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        CliError::Usage(format!(
            "unknown experiment '{name}'; known: {}",
            known.join(", ")
        ))
    })?;
    let mut scale = Scale::from_env().map_err(CliError::Usage)?;
    scale.seed = args.get_u64("seed", scale.seed)?;
    let _jobs = jobs_override(args)?;
    let out = (exp.render)(&scale);
    dam_bench::metrics::export(exp.name);
    Ok(out)
}

/// `damlab stats --structure <s> --device <d> [--format json] [--fault-denom N]`.
///
/// Runs a short instrumented workload through the full observability stack
/// (`ObservedDevice ▸ RetryingDevice ▸ FaultInjector ▸ device`, the tree's
/// per-level spans, an [`ObservedDict`] wrapper) and renders the metrics
/// snapshot: per-level IO, span aggregates, latency percentiles, cache hit
/// rate, read/write amplification, and DAM/affine/PDAM residual ratios.
pub fn stats(args: &Args) -> Result<String, CliError> {
    use refined_dam::obs::{ModelParams, Obs, ObservedDevice, ObservedDict};
    use refined_dam::storage::{FaultInjector, FaultMode, RetryPolicy, RetryingDevice};

    let structure = args.require("structure")?.to_string();
    let device_name = args.require("device")?;
    let node_kb = args.get_u64("node-kb", 256)?;
    let keys = args.get_u64("keys", 50_000)?;
    let ops = args.get_u64("ops", 200)?;
    let cache_mb = args.get_u64("cache-mb", 4)?;
    let seed = args.get_u64("seed", 0xDA4)?;
    let json = match args.get("format") {
        None | Some("table") => false,
        Some("json") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --format '{other}' (table | json)"
            )))
        }
    };

    // Model parameters and the raw device, from the same profile.
    let (params, raw): (ModelParams, Box<dyn BlockDevice>) = match find_device(device_name)? {
        Device::Hdd(p) => (ModelParams::from_hdd(&p), Box::new(HddDevice::new(p, seed))),
        Device::Ssd(p) => (ModelParams::from_ssd(&p), Box::new(SsdDevice::new(p))),
    };
    let obs = Obs::with_model(params);

    // Canonical stack: the observer outermost, so injector attempts =
    // observed successes + retries + surfaced errors.
    let (injector, switch) = FaultInjector::new(raw);
    if let Some(denom) = args.get_f64("fault-denom")? {
        if denom < 1.0 {
            return Err(CliError::Usage("--fault-denom must be >= 1".into()));
        }
        switch.set(FaultMode::Probabilistic {
            num: 1,
            denom: denom as u32,
            seed,
        });
    }
    let (retrying, retry_handle) = RetryingDevice::new(injector, RetryPolicy::default());
    let device = ObservedDevice::shared(Box::new(retrying), obs.clone());

    let node_bytes = (node_kb * 1024) as usize;
    let cache = cache_mb << 20;
    let mut dict = bulk_load(&structure, device, node_bytes, cache, keys, Some(&obs))?;
    let map_err = |e: KvError| CliError::Runtime(e.to_string());

    // Mixed measured phase: point queries over preloaded (even) keys,
    // inserts of fresh (odd) keys, a few short scans, one sync.
    {
        let mut od = ObservedDict::new(dict.as_mut(), &structure, obs.clone());
        let mut gen = WorkloadGen::new(WorkloadConfig::uniform(keys.max(1), seed ^ 0xF00D));
        for _ in 0..ops {
            let idx = 2 * gen.next_index();
            od.get(&refined_dam::kv::key_from_u64(idx))
                .map_err(map_err)?;
        }
        for _ in 0..ops {
            let idx = 2 * gen.next_index() + 1;
            od.insert(&refined_dam::kv::key_from_u64(idx), &gen.value_for(idx))
                .map_err(map_err)?;
        }
        for _ in 0..(ops / 20).max(1) {
            let lo = 2 * gen.next_index();
            od.range(
                &refined_dam::kv::key_from_u64(lo),
                &refined_dam::kv::key_from_u64(lo + 64),
            )
            .map_err(map_err)?;
        }
        od.sync().map_err(map_err)?;
    }

    // Fold in the stack's own counters, then snapshot.
    obs.record_fault_stats(&switch.stats());
    obs.record_retry_stats(&retry_handle.stats());
    let snap = obs.snapshot();
    let consistency = match snap.check_io_consistency() {
        Ok(()) => "IO accounting: consistent across the device stack".to_string(),
        Err(e) => format!("IO accounting: INCONSISTENT — {e}"),
    };
    if json {
        Ok(format!("{}\n", snap.to_json()))
    } else {
        Ok(format!(
            "{structure} on {device_name}: {keys} preloaded keys, {ops} ops/phase, \
             {node_kb} KiB nodes, {cache_mb} MiB cache\n\n{}\n{consistency}\n",
            snap.render_table()
        ))
    }
}

/// `damlab check-metrics --snapshot <file> --schema <file>`.
///
/// Validates an exported metrics snapshot (from `stats --format json` or a
/// `BENCH_*.metrics.json` sidecar) against a schema listing required keys.
/// CI runs this after a metrics-enabled `damlab experiment fig2`.
pub fn check_metrics(args: &Args) -> Result<String, CliError> {
    let snapshot_path = args.require("snapshot")?;
    let schema_path = args.require("schema")?;
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| CliError::Runtime(format!("cannot read {p}: {e}")))
    };
    let snapshot = read(snapshot_path)?;
    let schema = read(schema_path)?;
    refined_dam::obs::validate_snapshot_json(&snapshot, &schema).map_err(|missing| {
        CliError::Runtime(format!(
            "snapshot {snapshot_path} is missing required keys: {}",
            missing.join(", ")
        ))
    })?;
    Ok(format!(
        "snapshot {snapshot_path} OK: every key required by {schema_path} is present\n"
    ))
}

/// `damlab serve [--structure s|all] [--clients K] [--shards S] [--ops N]
/// [--p P] [--preload N] [--seed S] [--smoke] [--jobs N]`.
///
/// Closed-loop multi-client serving through the `dam-serve` engine: `k`
/// clients over `S` hash shards on one PDAM device with slot budget `P`,
/// read-heavy point ops against a real tree. Without `--clients` the
/// command sweeps k over {1, 2, 4, 8, 16} (Lemma 13's client axis); the
/// `Lemma13 pred` column is the analytic `k / log_{PB/k} N` at the same
/// parameters — compare shapes, not absolute values. The grid fans across
/// `--jobs` workers with byte-identical output.
pub fn serve(args: &Args) -> Result<String, CliError> {
    use dam_bench::sweep::Sweep;
    use dam_serve::{run, ServeConfig, ServeStructure};

    let _jobs = jobs_override(args)?;
    let smoke = args.get_bool("smoke");
    let structures: Vec<ServeStructure> = match args.get("structure").unwrap_or("all") {
        "all" => ServeStructure::ALL.to_vec(),
        s => vec![ServeStructure::parse(s).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown structure '{s}' (btree | betree | optbetree | lsm | all)"
            ))
        })?],
    };
    let ks: Vec<usize> = match args.get_u64("clients", 0)? {
        0 if smoke => vec![1, 4],
        0 => vec![1, 2, 4, 8, 16],
        k => vec![k as usize],
    };
    let p = args.get_u64("p", 8)? as usize;
    let shards = args.get_u64("shards", 4)? as usize;
    if p == 0 || shards == 0 {
        return Err(CliError::Usage("--p and --shards must be >= 1".into()));
    }
    let ops = args.get_u64("ops", if smoke { 40 } else { 200 })? as usize;
    let preload = args.get_u64("preload", if smoke { 2_000 } else { 4_000 })?;
    let seed = args.get_u64("seed", 0xDA4)?;

    let points: Vec<(ServeStructure, usize)> = structures
        .iter()
        .flat_map(|&s| ks.iter().map(move |&k| (s, k)))
        .collect();
    // The small cache is deliberate: the preload must not fit, or every op
    // is a hit and the sweep degenerates to ops/step = k.
    let outcomes = Sweep::new(seed, points).run(|ctx| {
        let (structure, k) = *ctx.point;
        let cfg = ServeConfig {
            structure,
            clients: k,
            shards,
            p,
            seed: ctx.seed,
            preload_keys: preload,
            ops_per_client: ops,
            cache_bytes: 1 << 14,
            value_bytes: 32,
            ..ServeConfig::default()
        };
        run(&cfg).map(|o| (cfg.block_bytes, cfg.value_bytes, o.report))
    });

    let mut out = String::new();
    writeln!(
        out,
        "closed-loop serving: P={p} S={shards} preload={preload} ops/client={ops} seed={seed}"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>3} {:>6} {:>7} {:>9} {:>13} {:>9} {:>8} {:>5} {:>5}",
        "structure",
        "k",
        "ops",
        "steps",
        "ops/step",
        "Lemma13 pred",
        "slot util",
        "coalesce",
        "p50",
        "p99"
    )
    .unwrap();
    for res in outcomes {
        let (block_bytes, value_bytes, r) = res.map_err(|e| CliError::Runtime(e.to_string()))?;
        let pdam = refined_dam::models::Pdam::new(p as f64, block_bytes as f64);
        let predicted = pdam.veb_tree_throughput(
            r.clients as f64,
            preload.max(2) as f64,
            (16 + value_bytes) as f64,
        );
        writeln!(
            out,
            "{:<10} {:>3} {:>6} {:>7} {:>9.4} {:>13.4} {:>9.2} {:>8.2} {:>5} {:>5}",
            r.structure,
            r.clients,
            r.ops,
            r.steps,
            r.throughput_ops_per_step,
            predicted,
            r.slot_utilization,
            r.coalesce_rate,
            r.p50_latency_steps,
            r.p99_latency_steps
        )
        .unwrap();
    }
    Ok(out)
}

/// `damlab check`: run the differential correctness harness.
pub fn check(args: &Args) -> Result<String, CliError> {
    let mut cfg = dam_check::CheckConfig {
        seed: args.get_u64("seed", 42)?,
        ops: args.get_u64("ops", 2_000)? as usize,
        ..dam_check::CheckConfig::default()
    };
    cfg.crash_trace_ops = args.get_u64("crash-ops", cfg.crash_trace_ops as u64)? as usize;
    cfg.crash_points = args.get_u64("crash-points", cfg.crash_points as u64)? as usize;
    cfg.shrink_budget = args.get_u64("shrink-budget", cfg.shrink_budget as u64)? as usize;
    cfg.concurrent_clients = args.get_u64("clients", cfg.concurrent_clients as u64)? as usize;
    cfg.concurrent_shards = args.get_u64("shards", cfg.concurrent_shards as u64)? as usize;
    if cfg.concurrent_clients > 0 && cfg.concurrent_shards == 0 {
        return Err(CliError::Usage("--shards must be >= 1".into()));
    }
    if let Some(s) = args.get("structure") {
        let st = dam_check::Structure::parse(s).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown structure '{s}'; expected btree|betree|optbetree|lsm"
            ))
        })?;
        cfg.structures = vec![st];
    }
    match args.get("mode").unwrap_or("all") {
        "all" => {}
        "plain" => {
            cfg.faults = false;
            cfg.crash = false;
            cfg.concurrent_clients = 0;
        }
        "faults" => {
            cfg.plain = false;
            cfg.crash = false;
            cfg.concurrent_clients = 0;
        }
        "crash" => {
            cfg.plain = false;
            cfg.faults = false;
            cfg.concurrent_clients = 0;
        }
        "persistent" => {
            cfg.plain = false;
            cfg.faults = false;
            cfg.crash = false;
            cfg.concurrent_clients = 0;
            cfg.persistent = true;
        }
        "concurrent" => {
            cfg.plain = false;
            cfg.faults = false;
            cfg.crash = false;
            if cfg.concurrent_clients == 0 {
                return Err(CliError::Usage(
                    "--mode concurrent needs --clients >= 1".into(),
                ));
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown mode '{other}'; expected all|plain|faults|crash|concurrent|persistent"
            )))
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "differential check: seed={} ops={} structures=[{}]",
        cfg.seed,
        cfg.ops,
        cfg.structures
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();
    match dam_check::check(&cfg) {
        Ok(report) => {
            for line in &report.lines {
                writeln!(out, "  {line}").unwrap();
            }
            writeln!(out, "check passed").unwrap();
            Ok(out)
        }
        Err(f) => Err(CliError::Runtime(format!("{out}{f}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn run(s: &str) -> Result<String, CliError> {
        crate::run(&argv(s))
    }

    #[test]
    fn help_and_devices() {
        assert!(run("help").unwrap().contains("damlab"));
        let d = run("devices").unwrap();
        assert!(d.contains("wd-black-1tb-2011"));
        assert!(d.contains("samsung-860-pro"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(run("frobnicate"), Err(CliError::Usage(_))));
    }

    #[test]
    fn profile_hdd_outputs_fit() {
        let out = run("profile --device wd-black-1tb-2011 --reads 16").unwrap();
        assert!(out.contains("alpha ="), "{out}");
        assert!(out.contains("R^2"), "{out}");
    }

    #[test]
    fn profile_ssd_outputs_p() {
        let out = run("profile --device samsung-860-pro --ios 100").unwrap();
        assert!(out.contains("P = "), "{out}");
    }

    #[test]
    fn profile_unknown_device_errors() {
        assert!(matches!(
            run("profile --device floppy"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn tune_from_device_and_alpha() {
        let a = run("tune --device wd-black-1tb-2011").unwrap();
        assert!(a.contains("Cor 12"), "{a}");
        let b = run("tune --alpha-4k 0.0029").unwrap();
        assert!(b.contains("half-bandwidth"), "{b}");
        assert!(matches!(run("tune"), Err(CliError::Usage(_))));
        assert!(matches!(
            run("tune --device samsung-860-pro"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn run_workload_all_structures() {
        for s in ["btree", "betree", "optbetree", "lsm"] {
            let out = run(&format!(
                "run --structure {s} --device toshiba-dt01aca050 --keys 5000 --ops 20 --node-kb 64"
            ))
            .unwrap();
            assert!(out.contains("query:"), "{s}: {out}");
            assert!(out.contains("insert:"), "{s}: {out}");
        }
    }

    #[test]
    fn run_workload_bad_structure_errors() {
        assert!(matches!(
            run("run --structure skiplist --device toshiba-dt01aca050"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn experiment_list_and_unknown() {
        let out = run("experiment list").unwrap();
        let names: Vec<&str> = out.lines().collect();
        let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names, registry);
        assert!(matches!(run("experiment nope"), Err(CliError::Usage(_))));
        assert!(matches!(run("experiment"), Err(CliError::Usage(_))));
    }

    #[test]
    fn experiment_table3_runs() {
        let out = run("experiment table3").unwrap();
        assert!(out.starts_with("Table 3 — "), "{out}");
        assert!(out.contains("Growth from half-bandwidth point"), "{out}");
    }

    #[test]
    fn experiment_seed_must_be_an_unsigned_integer() {
        for bad in ["-3", "1.5"] {
            assert!(
                matches!(
                    run(&format!("experiment table3 --seed {bad}")),
                    Err(CliError::Usage(_))
                ),
                "--seed {bad}"
            );
        }
    }

    #[test]
    fn experiment_jobs_flag_does_not_change_output() {
        let serial = run("experiment lemma13 --jobs 1").unwrap();
        let parallel = run("experiment lemma13 --jobs 3").unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.lines().any(|l| l.starts_with("8 ")), "{serial}");
    }

    #[test]
    fn stats_all_structures_render_every_section() {
        for s in ["btree", "betree", "optbetree", "lsm"] {
            let out = run(&format!(
                "stats --structure {s} --device toshiba-dt01aca050 --keys 20000 --ops 40 --node-kb 64 --cache-mb 1"
            ))
            .unwrap();
            for section in [
                "== device IO ==",
                "== per-level IO ==",
                "== spans ==",
                "== latency percentiles (ms) ==",
                "== cache & derived ==",
                "== model residuals (measured / predicted) ==",
            ] {
                assert!(out.contains(section), "{s} missing {section}: {out}");
            }
            assert!(out.contains("IO accounting: consistent"), "{s}: {out}");
        }
    }

    #[test]
    fn stats_json_is_schema_valid() {
        let out = run(
            "stats --structure btree --device samsung-860-pro --keys 20000 --ops 40 \
             --node-kb 64 --cache-mb 1 --format json",
        )
        .unwrap();
        assert!(out.contains("\"residual\":"), "{out}");
        let schema = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/metrics_schema.json"
        ))
        .unwrap();
        refined_dam::obs::validate_snapshot_json(&out, &schema)
            .unwrap_or_else(|missing| panic!("missing keys: {missing:?}"));
    }

    #[test]
    fn stats_with_faults_keeps_accounting_consistent() {
        let out = run(
            "stats --structure btree --device toshiba-dt01aca050 --keys 20000 --ops 40 \
             --node-kb 64 --cache-mb 1 --fault-denom 50",
        )
        .unwrap();
        assert!(out.contains("IO accounting: consistent"), "{out}");
        assert!(out.contains("retries"), "{out}");
    }

    #[test]
    fn stats_bad_flags_error() {
        assert!(matches!(
            run("stats --structure skiplist --device toshiba-dt01aca050"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run("stats --structure btree --device toshiba-dt01aca050 --format yaml"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_smoke_sweep_renders_rows() {
        let out = run("serve --smoke").unwrap();
        for s in ["btree", "betree", "optbetree", "lsm"] {
            assert!(out.contains(s), "missing {s}: {out}");
        }
        assert!(out.contains("Lemma13 pred"), "{out}");
        // Smoke sweeps k in {1, 4} for every structure.
        assert_eq!(out.matches("\nbtree").count(), 2, "{out}");
    }

    #[test]
    fn serve_is_deterministic_across_jobs() {
        let cmd = "serve --smoke --structure btree --ops 30 --preload 1000";
        let serial = run(&format!("{cmd} --jobs 1")).unwrap();
        let parallel = run(&format!("{cmd} --jobs 3")).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn serve_single_point_and_bad_flags() {
        let out =
            run("serve --structure lsm --clients 3 --ops 20 --preload 500 --shards 2").unwrap();
        assert_eq!(out.matches("\nlsm").count(), 1, "{out}");
        assert!(matches!(
            run("serve --structure skiplist"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run("serve --p 0"), Err(CliError::Usage(_))));
    }

    #[test]
    fn check_concurrent_mode_runs_and_validates_flags() {
        let out =
            run("check --ops 120 --mode concurrent --clients 3 --shards 2 --structure betree")
                .unwrap();
        assert!(out.contains("concurrent :"), "{out}");
        assert!(out.contains("check passed"), "{out}");
        assert!(matches!(
            run("check --mode concurrent --clients 0"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_metrics_happy_and_missing_key_paths() {
        let dir = std::env::temp_dir().join("damlab-check-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.json");
        let schema = dir.join("schema.json");
        std::fs::write(&snap, "{\"counters\":{},\"derived\":{}}").unwrap();
        std::fs::write(&schema, "{\"required_keys\": [\"counters\", \"derived\"]}").unwrap();
        let ok = run(&format!(
            "check-metrics --snapshot {} --schema {}",
            snap.display(),
            schema.display()
        ))
        .unwrap();
        assert!(ok.contains("OK"), "{ok}");

        std::fs::write(
            &schema,
            "{\"required_keys\": [\"counters\", \"no_such_key\"]}",
        )
        .unwrap();
        let err = run(&format!(
            "check-metrics --snapshot {} --schema {}",
            snap.display(),
            schema.display()
        ));
        match err {
            Err(CliError::Runtime(m)) => assert!(m.contains("no_such_key"), "{m}"),
            other => panic!("expected runtime error, got {other:?}"),
        }
        assert!(matches!(
            run("check-metrics --snapshot /no/such/file --schema /no/such/schema"),
            Err(CliError::Runtime(_))
        ));
    }
}
