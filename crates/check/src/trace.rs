//! Traces of the one op alphabet ([`Op`], dam-serve's `ServeOp`): the
//! adversarial generator and the reproducer renderer.

use crate::harness::{Mode, Structure};
use crate::Op;
use dam_stats::rng::SplitMix64;
use std::fmt::Write as _;

/// Shared prefixes that force long common key stems (worst case for pivot
/// separation and segment boundaries).
const PREFIXES: [&[u8]; 4] = [
    b"user/profile/settings/",
    b"user/",
    b"\x00\x00\x00\x00\x00\x00\x00\x00",
    b"\xff\xfe",
];

/// Draw an adversarial key. The distribution deliberately over-weights the
/// edge cases the four trees disagree on most easily: the empty key, keys
/// at or above the `[0xFF; 64]` sentinel, long shared prefixes with short
/// distinguishing suffixes, and a dense cluster of small fixed-width keys
/// that lands on node/segment boundaries as the trees split.
fn gen_key(rng: &mut SplitMix64, key_space: u64) -> Vec<u8> {
    match rng.below(100) {
        // The empty key: smallest possible, always a range boundary.
        0..=2 => Vec::new(),
        // The 0xFF family: at, below, and above the 64-byte sentinel that
        // bounded scans historically used as "infinity".
        3..=6 => {
            let n = [1usize, 16, 63, 64, 65, 80][rng.below(6) as usize];
            vec![0xFFu8; n]
        }
        // Shared prefix + short suffix.
        7..=44 => {
            let mut k = PREFIXES[rng.below(PREFIXES.len() as u64) as usize].to_vec();
            let suffix = rng.below(key_space);
            match rng.below(3) {
                // Fixed-width big-endian: sorts numerically.
                0 => k.extend_from_slice(&suffix.to_be_bytes()),
                // Decimal text: sorts lexicographically (1 < 10 < 2).
                1 => k.extend_from_slice(format!("{suffix}").as_bytes()),
                // Single raw byte: collides across the space.
                _ => k.push((suffix & 0xFF) as u8),
            }
            k
        }
        // Dense fixed-width cluster (boundary keys as the trees split).
        45..=84 => dam_kv::key_from_u64(rng.below(key_space)).to_vec(),
        // Short random bytes.
        _ => {
            let n = 1 + rng.below(24) as usize;
            (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
        }
    }
}

/// Draw a value: zero-length 1 time in 8, else 1–64 patterned bytes.
/// Sizes stay far below every structure's per-entry limit so a `Config`
/// rejection never masks a semantic divergence.
fn gen_value(rng: &mut SplitMix64) -> Vec<u8> {
    if rng.chance(1, 8) {
        return Vec::new();
    }
    let n = 1 + rng.below(64) as usize;
    let b = (rng.next_u64() & 0xFF) as u8;
    let mut v = vec![b; n];
    // A couple of positions vary so overwrites change bytes, not just
    // lengths.
    let tag = rng.next_u64();
    v[0] = (tag & 0xFF) as u8;
    if n > 1 {
        v[n - 1] = ((tag >> 8) & 0xFF) as u8;
    }
    v
}

/// Generate `n` operations from `seed`. Deterministic: same inputs, same
/// trace, on every platform.
pub fn generate_trace(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    // Smaller spaces at small n keep delete/get hit rates high.
    let key_space = (n as u64 / 4).clamp(16, 4096);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match rng.below(100) {
            // Inserts dominate so the trees actually grow and split.
            0..=39 => Op::Put {
                key: gen_key(&mut rng, key_space),
                value: gen_value(&mut rng),
            },
            40..=54 => Op::Del {
                key: gen_key(&mut rng, key_space),
            },
            55..=75 => Op::Get {
                key: gen_key(&mut rng, key_space),
            },
            76..=95 => {
                let a = gen_key(&mut rng, key_space);
                let b = gen_key(&mut rng, key_space);
                match rng.below(8) {
                    // Degenerate on purpose: start == end must be empty.
                    0 => Op::Range {
                        start: a.clone(),
                        end: a,
                    },
                    // Degenerate on purpose: start > end must be empty.
                    1 => {
                        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                        Op::Range { start: hi, end: lo }
                    }
                    // Everything, beyond any finite sentinel.
                    2 => Op::Range {
                        start: Vec::new(),
                        end: vec![0xFFu8; 81],
                    },
                    _ => {
                        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                        Op::Range { start: lo, end: hi }
                    }
                }
            }
            96..=97 => Op::SyncAll,
            _ => Op::Len,
        };
        ops.push(op);
    }
    ops
}

/// Render a shrunk trace as a ready-to-paste `#[test]` named `name` that
/// replays it under `mode` against `structure`.
pub fn render_test(name: &str, mode: Mode, structure: Structure, trace: &[Op]) -> String {
    let mut s = format!(
        "#[test]\nfn {name}() {{\n    use dam_check::{{replay, Mode, Op, Structure}};\n    let trace: Vec<Op> = vec![\n"
    );
    for op in trace {
        // Keys and values are byte vectors, the only `[` in an op's Debug.
        let op = format!("{op:?}").replace('[', "vec![");
        writeln!(s, "        Op::{op},").unwrap();
    }
    write!(
        s,
        "    ];\n    if let Err(f) = replay(Mode::{mode:?}, &[Structure::{structure:?}], &trace) {{\n        panic!(\"divergence: {{f}}\");\n    }}\n}}\n"
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_trace(7, 500), generate_trace(7, 500));
        assert_ne!(generate_trace(7, 500), generate_trace(8, 500));
    }

    #[test]
    fn traces_cover_the_adversarial_alphabet() {
        let t = generate_trace(42, 20_000);
        let mut empty_key = false;
        let mut above_sentinel = false;
        let mut degenerate_eq = false;
        let mut degenerate_gt = false;
        let mut empty_value = false;
        for op in &t {
            match op {
                Op::Put { key, value } => {
                    empty_key |= key.is_empty();
                    above_sentinel |= key.as_slice() >= [0xFFu8; 64].as_slice();
                    empty_value |= value.is_empty();
                }
                Op::Range { start, end } => {
                    degenerate_eq |= start == end;
                    degenerate_gt |= start > end;
                }
                _ => {}
            }
        }
        assert!(empty_key, "no empty key generated");
        assert!(above_sentinel, "no key at/above [0xFF;64] generated");
        assert!(degenerate_eq, "no start == end range generated");
        assert!(degenerate_gt, "no start > end range generated");
        assert!(empty_value, "no zero-length value generated");
    }

    #[test]
    fn rendered_test_contains_trace_and_harness_call() {
        let t = vec![
            Op::Put {
                key: vec![1, 2],
                value: vec![],
            },
            Op::Del { key: vec![] },
            Op::SyncAll,
        ];
        let s = render_test("repro_x", Mode::Plain, Structure::Lsm, &t);
        assert!(s.contains("fn repro_x()"));
        assert!(s.contains("        Op::Put { key: vec![1, 2], value: vec![] },\n"));
        assert!(s.contains("        Op::Del { key: vec![] },\n        Op::SyncAll,\n"));
        assert!(s.contains("replay(Mode::Plain, &[Structure::Lsm], &trace)"));
        let s = render_test("r", Mode::Crash { crash_after: 9 }, Structure::BTree, &t);
        assert!(s.contains("replay(Mode::Crash { crash_after: 9 }, &[Structure::BTree], &trace)"));
    }
}
