//! Property tests: the binary codec and message encoding never lose data
//! and never panic on corrupt input.

use dam_kv::codec::{crc32, Reader, Writer};
use dam_kv::msg::{Message, Operation};
use dam_stats::prop::*;

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

props! {
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
