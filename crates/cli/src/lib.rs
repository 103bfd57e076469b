//! `damlab` — the command-line front end to the refined-DAM toolkit.
//!
//! Subcommands:
//!
//! * `damlab devices` — list the simulated device profiles,
//! * `damlab profile --device <name>` — run the §4 microbenchmark for the
//!   device's class and print the fitted model parameters,
//! * `damlab tune --device <name> [--keys N] [--cache-mb M]` — turn a
//!   fitted `α` into node-size / fanout recommendations (Corollaries 6, 7,
//!   12),
//! * `damlab run --structure <s> --device <name> [--node-kb N] [--keys N]
//!   [--ops N]` — load a dictionary (any `dam_serve::ServeStructure` name)
//!   and measure per-op costs,
//! * `damlab experiment <name> [--jobs N]` — regenerate a paper
//!   table/figure (`table1`, `table2`, `fig2`, … — see `damlab experiment
//!   list`); grid experiments fan across `N` workers with identical output,
//! * `damlab stats --structure <s> --device <name> [--format json]` — run an
//!   instrumented workload and render the observability snapshot: per-level
//!   IO, span tallies, latency percentiles, cache hit rate, read/write
//!   amplification, and DAM/affine/PDAM model residuals,
//! * `damlab serve [--structure s|all] [--clients K] [--shards S] [--p P]
//!   [--smoke] [--jobs N]` — closed-loop multi-client serving through the
//!   `dam-serve` engine: `k` clients over hash shards on one PDAM device;
//!   without `--clients` it sweeps k over {1, 2, 4, 8, 16} and prints the
//!   `serve-sweep` table (measured ops/step next to Lemma 13's
//!   `k / log_{PB/k} N`) at those flags (under `DAM_METRICS`, also the
//!   `BENCH_serve.metrics.json` sidecar),
//! * `damlab check [--ops N] [--seed S] [--structure <s>] [--mode <m>]
//!   [--clients K]` — differential correctness harness: replay an
//!   adversarial op trace in lockstep against all four dictionaries and a
//!   `BTreeMap` oracle, with fault-injection, crash-recovery, and
//!   concurrent (serving-engine) modes; on divergence print a shrunk
//!   ready-to-paste reproducer,
//! * `damlab check-metrics --snapshot <file> --schema <file>` — validate an
//!   exported snapshot against `schemas/metrics_schema.json`.
//!
//! The argument parser is deliberately dependency-free; see [`args`].

pub mod args;
pub mod commands;

pub use args::{Args, CliError};

/// Entry point shared by the binary and the tests.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "devices" => Ok(commands::devices()),
        "profile" => commands::profile(&args),
        "tune" => commands::tune(&args),
        "run" => commands::run_workload(&args),
        "experiment" => commands::experiment(&args),
        "stats" => commands::stats(&args),
        "serve" => commands::serve(&args),
        "check" => commands::check(&args),
        "check-metrics" => commands::check_metrics(&args),
        "help" | "" => Ok(commands::help()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'; try 'damlab help'"
        ))),
    }
}
