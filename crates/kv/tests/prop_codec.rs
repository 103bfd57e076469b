//! Property tests: the binary codec and message encoding never lose data
//! and never panic on corrupt input, and a run of records of any kind reads
//! exactly its records' bytes and searches like a linear reference.

use dam_kv::codec::{crc32, pair_size, Entry, Pair, Reader, Record, Run, Writer};
use dam_kv::msg::{Message, MessageRef, Operation};
use dam_stats::prop::*;
use std::fmt::Debug;

/// Table-free CRC-32 (IEEE): the reflected polynomial one bit at a time.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Read `n` records of kind `R` from arbitrary `bytes`, and walk and
/// search whatever parses.
fn parse_arbitrary<'a, R: Record<'a>>(bytes: &'a [u8], n: usize) -> CaseResult {
    let mut r = Reader::new(bytes);
    let Ok(run) = Run::<R>::read_n(&mut r, n) else {
        return Ok(());
    };
    prop_assert_eq!(run.encoded_len() + r.remaining(), bytes.len());
    prop_assert_eq!(run.iter().count(), n);
    prop_assert_eq!(run.to_vec().len(), n);
    let (all, rest) = run.seek(|_| true);
    prop_assert_eq!((all, rest.len(), rest.encoded_len()), (n, 0, 0));
    let (none, rest) = run.seek(|_| false);
    prop_assert_eq!(
        (none, rest.len(), rest.encoded_len()),
        (0, n, run.encoded_len())
    );
    Ok(())
}

/// The records `encoded` holds, `n` of them followed by `trailer` bytes:
/// reading them takes exactly the records' bytes, and every strict prefix
/// of the records is an error.
fn read_exactly<'a, R>(
    encoded: &'a [u8],
    n: usize,
    trailer: usize,
) -> Result<Vec<R::Owned>, TestCaseError>
where
    R: Record<'a>,
{
    let mut r = Reader::new(encoded);
    let run = Run::<R>::read_n(&mut r, n).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(r.remaining(), trailer);
    prop_assert_eq!(run.encoded_len(), encoded.len() - trailer);
    for cut in [
        0,
        run.encoded_len() / 2,
        run.encoded_len().saturating_sub(1),
    ] {
        if n > 0 {
            prop_assert!(Run::<R>::read_n(&mut Reader::new(&encoded[..cut]), n).is_err());
        }
    }
    Ok(run.to_vec())
}

/// Ascending keys from a small alphabet (so probes hit and miss), and their
/// values.
fn sorted_pairs() -> impl Gen<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    btree_map(vec(0u8..4, 0..4), vec(any::<u8>(), 0..6), 0..30)
        .prop_map(|m| m.into_iter().collect())
}

/// Probe keys: drawn from the same alphabet and one letter past it, plus
/// the empty key (before or at the first) and a key after the last.
fn probes() -> impl Gen<Value = Vec<Vec<u8>>> {
    vec(vec(0u8..5, 0..5), 0..12).prop_map(|mut ps| {
        ps.extend([Vec::new(), vec![0xFF]]);
        ps
    })
}

fn check_eq<T: PartialEq + Debug>(got: T, want: T, what: &str, key: &[u8]) -> CaseResult {
    prop_assert_eq!(got, want, "{what} of {key:?}");
    Ok(())
}

props! {
    #[test]
    fn arbitrary_bytes_never_panic_any_record_kind(
        data in prop_oneof![
            vec(any::<u8>(), 0..160),
            // Mostly zeros: short length prefixes and known tags, so runs of
            // several records parse.
            vec(select(vec![0u8, 0, 0, 0, 1, 2, 0xFF]), 0..160),
        ],
        n in 0usize..6,
        probe in vec(0u8..4, 0..4),
    ) {
        parse_arbitrary::<&[u8]>(&data, n)?;
        parse_arbitrary::<Pair>(&data, n)?;
        parse_arbitrary::<Entry>(&data, n)?;
        parse_arbitrary::<MessageRef>(&data, n)?;
        parse_arbitrary::<Run<MessageRef>>(&data, n)?;
        // The searches on an unsorted run stay inside it.
        if let Ok(run) = Run::<Pair>::read_n(&mut Reader::new(&data), n) {
            let (at, _) = run.locate(&probe);
            prop_assert!(at.end <= run.encoded_len());
            let _ = (run.get(&probe), run.range(&probe, &[0xFF]).count());
        }
        if let Ok(run) = Run::<&[u8]>::read_n(&mut Reader::new(&data), n) {
            prop_assert!(run.route(&probe) <= n);
        }
        if let Ok(run) = Run::<MessageRef>::read_n(&mut Reader::new(&data), n) {
            prop_assert!(run.for_key(&probe).count() <= n);
        }
    }

    #[test]
    fn runs_read_exactly_their_records(
        pairs in sorted_pairs(),
        tombstones in vec(any::<bool>(), 30..31),
        msgs in vec(
            (vec(any::<u8>(), 0..6), any::<u64>(), option(vec(any::<u8>(), 0..6))),
            0..20,
        ),
        trailer in vec(any::<u8>(), 0..8),
    ) {
        let with_trailer = |mut w: Writer| {
            w.put_raw(&trailer);
            w.into_bytes()
        };
        let keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
        let mut w = Writer::new();
        keys.iter().for_each(|k| w.put_bytes(k));
        let got = read_exactly::<&[u8]>(&with_trailer(w), keys.len(), trailer.len())?;
        prop_assert_eq!(got, keys);

        let mut w = Writer::new();
        pairs.iter().for_each(|(k, v)| w.put_pair(k, v));
        let encoded = with_trailer(w);
        prop_assert_eq!(
            encoded.len() - trailer.len(),
            pairs.iter().map(|(k, v)| pair_size(k, v)).sum::<usize>()
        );
        let got = read_exactly::<Pair>(&encoded, pairs.len(), trailer.len())?;
        prop_assert_eq!(got, pairs.clone());

        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = pairs
            .iter()
            .zip(&tombstones)
            .map(|((k, v), &dead)| (k.clone(), (!dead).then(|| v.clone())))
            .collect();
        let mut w = Writer::new();
        entries.iter().for_each(|(k, v)| w.put_entry(k, v.as_deref()));
        let got = read_exactly::<Entry>(&with_trailer(w), entries.len(), trailer.len())?;
        prop_assert_eq!(got, entries);

        let msgs: Vec<Message> = msgs
            .into_iter()
            .map(|(key, seq, v)| Message {
                seq,
                key,
                op: v.map_or(Operation::Delete, Operation::Put),
            })
            .collect();
        let mut w = Writer::new();
        msgs.iter().for_each(|m| m.encode(&mut w));
        let got = read_exactly::<MessageRef>(&with_trailer(w), msgs.len(), trailer.len())?;
        prop_assert_eq!(got, msgs.clone());

        // Counted runs nest: a run of message buffers.
        let halves = [&msgs[..msgs.len() / 2], &msgs[msgs.len() / 2..]];
        let mut w = Writer::new();
        for half in halves {
            w.put_u32(half.len() as u32);
            half.iter().for_each(|m| m.encode(&mut w));
        }
        let got = read_exactly::<Run<MessageRef>>(&with_trailer(w), 2, trailer.len())?;
        prop_assert_eq!(got, vec![halves[0].to_vec(), halves[1].to_vec()]);
    }

    #[test]
    fn ordered_search_agrees_with_a_linear_reference(
        pairs in sorted_pairs(),
        probes in probes(),
        msgs in vec((vec(0u8..4, 0..3), any::<u16>()), 0..30),
    ) {
        let mut w = Writer::new();
        pairs.iter().for_each(|(k, _)| w.put_bytes(k));
        let keys = w.into_bytes();
        let strs = Run::<&[u8]>::read_n(&mut Reader::new(&keys), pairs.len()).unwrap();
        let mut w = Writer::new();
        pairs.iter().for_each(|(k, v)| w.put_pair(k, v));
        let bytes = w.into_bytes();
        let run = Run::<Pair>::read_n(&mut Reader::new(&bytes), pairs.len()).unwrap();
        let mut w = Writer::new();
        for (i, (k, v)) in pairs.iter().enumerate() {
            w.put_entry(k, (i % 3 != 0).then_some(v));
        }
        let bytes = w.into_bytes();
        let entries = Run::<Entry>::read_n(&mut Reader::new(&bytes), pairs.len()).unwrap();
        // Each pair's byte range, from the run's start.
        let mut spans = Vec::new();
        let mut at = 0;
        for (k, v) in &pairs {
            spans.push(at..at + pair_size(k, v));
            at += pair_size(k, v);
        }
        for key in probes.iter().chain(pairs.iter().map(|(k, _)| k)) {
            let key = key.as_slice();
            let i = pairs.partition_point(|(k, _)| k.as_slice() < key);
            let found = pairs.get(i).is_some_and(|(k, _)| k == key);
            let want = pairs.partition_point(|(k, _)| k.as_slice() <= key);
            check_eq(strs.route(key), want, "route", key)?;
            check_eq(run.get(key), found.then(|| pairs[i].1.as_slice()), "get", key)?;
            let start = spans.get(i).map_or(at, |s| s.start);
            let want = if found { (spans[i].clone(), true) } else { (start..start, false) };
            check_eq(run.locate(key), want, "locate", key)?;
            let want = found.then(|| (i % 3 != 0).then_some(pairs[i].1.as_slice()));
            check_eq(entries.get(key), want, "entry get", key)?;
            for end in [key, &[0xFF][..]] {
                let want: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .filter(|(k, _)| k.as_slice() >= key && k.as_slice() < end)
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                check_eq(run.range(key, end).collect::<Vec<_>>(), want, "range", key)?;
            }
        }

        // A message buffer, ordered by (key, seq).
        let mut msgs: Vec<Message> = msgs
            .into_iter()
            .map(|(key, seq)| Message {
                seq: seq as u64,
                key,
                op: Operation::Delete,
            })
            .collect();
        msgs.sort_by(|a, b| (&a.key, a.seq).cmp(&(&b.key, b.seq)));
        let mut w = Writer::new();
        msgs.iter().for_each(|m| m.encode(&mut w));
        let bytes = w.into_bytes();
        let buf = Run::<MessageRef>::read_n(&mut Reader::new(&bytes), msgs.len()).unwrap();
        for key in probes.iter().chain(msgs.iter().map(|m| &m.key)) {
            let want: Vec<Message> = msgs.iter().filter(|m| &m.key == key).cloned().collect();
            let got: Vec<Message> = buf.for_key(key).map(MessageRef::owned).collect();
            check_eq(got, want, "for_key", key)?;
            for seq in [0, 1 << 15, u64::MAX] {
                let spot = (key.as_slice(), seq);
                let (i, rest) = buf.seek(|m| (m.key, m.seq) <= spot);
                let want = msgs.partition_point(|m| (m.key.as_slice(), m.seq) <= spot);
                check_eq(i, want, "seek", key)?;
                check_eq(rest.to_vec(), msgs[want..].to_vec(), "seek rest", key)?;
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference(data in vec(any::<u8>(), 0..5000)) {
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    #[test]
    fn bytes_roundtrip(chunks in vec(vec(any::<u8>(), 0..200), 0..20)) {
        let mut w = Writer::new();
        for c in &chunks {
            w.put_bytes(c);
        }
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        for c in &chunks {
            prop_assert_eq!(r.get_bytes().unwrap(), c.as_slice());
        }
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn scalars_roundtrip(vals in vec(any::<u64>(), 0..50)) {
        let mut w = Writer::new();
        for &v in &vals {
            w.put_u64(v);
            w.put_u32(v as u32);
            w.put_u8(v as u8);
        }
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        for &v in &vals {
            prop_assert_eq!(r.get_u64().unwrap(), v);
            prop_assert_eq!(r.get_u32().unwrap(), v as u32);
            prop_assert_eq!(r.get_u8().unwrap(), v as u8);
        }
    }

    #[test]
    fn truncated_input_never_panics(data in vec(any::<u8>(), 0..100)) {
        // Decoding arbitrary bytes as any primitive must fail cleanly, not
        // panic or read out of bounds.
        let mut r = Reader::new(&data);
        let _ = r.get_u64();
        let _ = r.get_bytes();
        let _ = r.get_u32();
        let _ = r.get_raw(1000);
    }

    #[test]
    fn message_roundtrip(
        seq in any::<u64>(),
        key in vec(any::<u8>(), 0..64),
        payload in vec(any::<u8>(), 0..200),
        put in any::<bool>(),
    ) {
        let op = if put { Operation::Put(payload) } else { Operation::Delete };
        let msg = Message { seq, key, op };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let buf = w.into_bytes();
        // The declared footprint is an upper bound on the encoding.
        prop_assert!(buf.len() <= msg.footprint());
        let mut r = Reader::new(&buf);
        prop_assert_eq!(Message::decode(&mut r).unwrap(), msg);
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn message_decode_of_garbage_never_panics(data in vec(any::<u8>(), 0..100)) {
        let mut r = Reader::new(&data);
        let _ = Message::decode(&mut r);
    }

    #[test]
    fn key_u64_roundtrip(i in any::<u64>()) {
        prop_assert_eq!(dam_kv::key_to_u64(&dam_kv::key_from_u64(i)), Some(i));
    }

    #[test]
    fn key_encoding_preserves_order(a in any::<u64>(), b in any::<u64>()) {
        let ka = dam_kv::key_from_u64(a);
        let kb = dam_kv::key_from_u64(b);
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }
}
