//! Differential seed corpus: deterministic replays of the `dam-check`
//! harness that pin the cross-structure dictionary contract in CI.
//!
//! Two kinds of tests live here. The corpus tests run the full check
//! (plain + fault-injection + crash sweep) at a bounded size over fixed
//! seeds, so any semantic drift between the four dictionaries and the
//! `BTreeMap` oracle fails fast. The reproducer tests replay the exact
//! seed/mode pairs that exposed real bugs during development — they are
//! regression tests for fixes whose minimal trigger is a whole fault
//! schedule rather than a handful of ops.

use dam_check::{check, generate_trace, replay, CheckConfig, Mode, Op, Structure};

#[test]
fn seed_corpus_all_modes() {
    for seed in [1, 42, 1337] {
        let cfg = CheckConfig {
            seed,
            ops: 600,
            crash_trace_ops: 300,
            crash_points: 2,
            ..CheckConfig::default()
        };
        if let Err(f) = check(&cfg) {
            panic!("seed {seed}: {f}");
        }
    }
}

#[test]
fn optbetree_surfaced_fault_reproducer() {
    // Regression: with exactly this trace and fault schedule, a fault
    // surfaced mid-flush used to (a) drop a whole buffer of acknowledged
    // updates (len diverged at op 3268) and, once that was fixed, (b)
    // leave a descriptor out of sync with its committed node image, so a
    // later range() returned a stale key and missed a live one (op 3533).
    // Fixed by making pager writes always apply to the cache, reinstating
    // dirty eviction victims on writeback failure, and committing flush
    // splits atomically (siblings written before the parent, descriptor
    // restored only when nothing committed).
    let trace = generate_trace(42, 5000);
    let mode = Mode::FaultsSurfaced { seed: 42 ^ 0xFA17 };
    if let Err(f) = replay(mode, &[Structure::OptBeTree], &trace) {
        panic!("reproducer regressed: {f}");
    }
}

#[test]
fn betree_surfaced_fault_reproducer() {
    // Regression: in the standard Bε-tree, a fault surfaced while
    // cascading a buffer flush used to drop the child splits returned by
    // the failed call (they only travelled on the `Ok` path), leaving a
    // freshly written sibling unreachable and the in-memory key count
    // stale (len diverged by one at op 37248 of this trace). Fixed by
    // threading splits through an out-parameter with commit tracking, so
    // error paths adopt committed siblings before reporting the fault.
    let trace = generate_trace(42, 50000);
    let mode = Mode::FaultsSurfaced { seed: 42 ^ 0xFA17 };
    if let Err(f) = replay(mode, &[Structure::BeTree], &trace) {
        panic!("reproducer regressed: {f}");
    }
}

#[test]
fn final_audit_redrives_surfaced_faults() {
    // Regression: the end-of-run state audit used to treat a surfaced
    // (injected) storage error from its own range()/len() calls as a
    // failure instead of redriving it like any other idempotent op.
    // Seed 7's fault schedule lands a fault exactly there.
    let trace = generate_trace(7, 5000);
    let mode = Mode::FaultsSurfaced { seed: 7 ^ 0xFA17 };
    if let Err(f) = replay(mode, &[Structure::OptBeTree], &trace) {
        panic!("reproducer regressed: {f}");
    }
}

#[test]
fn concurrent_group_commit_reproducer() {
    // Regression guard for the serving engine's group commit: seed 42's
    // trace mixes writes and reads to the same keys densely enough that,
    // dealt over 3 clients, a read regularly admits in the same round as a
    // buffered write to its target shard. The engine must flush that
    // shard's write batch before executing the read (the batch is shared —
    // "group commit" — and the read's answer must reflect every write
    // admitted before it in client-id order), or the commit log diverges
    // from the serial oracle. Sharding (S=2) additionally exercises the
    // routing: a flush of the read's shard must not reorder ops bound for
    // the other shard.
    let trace = generate_trace(42, 900);
    let mode = Mode::Concurrent {
        clients: 3,
        shards: 2,
    };
    for s in Structure::ALL {
        if let Err(f) = replay(mode, &[s], &trace) {
            panic!("group-commit reproducer regressed: {f}");
        }
    }
}

#[test]
fn concurrent_barrier_ops_reproducer() {
    // Regression guard for the engine's barrier ops: seed 1337's trace is
    // dense in Range / Len / Sync, which fan out across every shard and
    // must observe all previously admitted writes on all shards — a
    // partial flush (only the "current" shard) used to be the natural bug
    // shape during development. k=5 > shards=3 also forces several clients
    // to share a shard within one admission round, so per-shard batches
    // carry ops from multiple clients and every contributor must commit
    // exactly once when the shared chain completes.
    let trace = generate_trace(1337, 900);
    let mode = Mode::Concurrent {
        clients: 5,
        shards: 3,
    };
    for s in Structure::ALL {
        if let Err(f) = replay(mode, &[s], &trace) {
            panic!("barrier reproducer regressed: {f}");
        }
    }
}

#[test]
fn degenerate_ranges_empty_across_structures() {
    // Satellite regression: range(start, end) with start >= end must be
    // empty-and-Ok for every structure, including around live keys.
    let mut trace = vec![
        Op::Put {
            key: b"k1".to_vec(),
            value: b"v1".to_vec(),
        },
        Op::Put {
            key: b"k3".to_vec(),
            value: b"v3".to_vec(),
        },
        Op::SyncAll,
    ];
    for (s, e) in [
        (&b"k1"[..], &b"k1"[..]),
        (b"k3", b"k1"),
        (b"z", b"a"),
        (b"", b""),
        (b"k2", b"k2"),
    ] {
        trace.push(Op::Range {
            start: s.to_vec(),
            end: e.to_vec(),
        });
    }
    trace.push(Op::Len);
    if let Err(f) = replay(Mode::Plain, &Structure::ALL, &trace) {
        panic!("degenerate ranges diverged: {f}");
    }
}

#[test]
fn persistent_faults_keep_buffers_bounded_and_acked_writes() {
    // Every op armed with AfterIos(1), then a device that fills: each
    // failed write landed whole or not at all, every acked write survives,
    // and no dictionary's in-memory buffer outgrows its cap. Before the
    // one fault contract, the optimized Bε-tree kept every refused write
    // in its root buffer and re-flushed it on every later write.
    let trace = generate_trace(42, 1_500);
    for full in [false, true] {
        if let Err(f) = replay(Mode::Persistent { full }, &Structure::ALL, &trace) {
            panic!("{f}");
        }
    }
}

#[test]
fn optbetree_full_device_drain_keeps_split_siblings() {
    // Regression (found by the persistent mode, seed 8): a drain whose
    // root flush split the root, and which then failed on a full device
    // while draining the first new sibling, dropped the siblings after it;
    // eight acknowledged keys vanished. The final audit also checks `len`
    // on the full device.
    let trace = generate_trace(8, 3_000);
    if let Err(f) = replay(
        Mode::Persistent { full: true },
        &[Structure::OptBeTree],
        &trace,
    ) {
        panic!("{f}");
    }
}
