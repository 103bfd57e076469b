//! Compact binary codec for on-disk node images.
//!
//! Little-endian fixed-width integers, with fully checked decoding: a
//! truncated or corrupt image produces a [`CodecError`], never a panic or
//! garbage data. Node images are sorted runs of records, read and searched
//! in place as a [`Run`]. The format is deliberately boring — the
//! interesting parts of the paper are in *when* bytes move, not how they
//! are arranged.
//!
//! A run of `n` records is a directory of `n` little-endian `u32` record
//! ends, then the records back to back. An end is measured from the first
//! record's start, and the directory lists them from the last record to
//! the first, so its first entry is the records' total length: a run knows
//! its length from its count, and its count from its length (the bytes
//! past the total are `4n`). A run in a node header carries its `u32`
//! count in front; a run that is itself a record of an outer run (a
//! Bε-tree message buffer) carries none, since the outer directory gives
//! its length.
//! Within a record, every variable-length field but the last carries a
//! `u32` length, and the last runs to the record's end, which its
//! directory entry gives: a record spends one `u32` per variable-length
//! field.
//!
//! Reading a run checks it in one pass over the directory and each
//! record's fixed header: ends that decrease, an end past the run, a count
//! too large for its directory, a key length past its record or an unknown
//! tag are errors. No record's position depends on the one before it, so
//! [`Run::seek`] is a binary search, and [`splice_in_place`] edits one
//! record by moving the bytes after it and patching the ends that follow.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the announced length.
    UnexpectedEof {
        /// Bytes needed.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A length prefix or tag was nonsensical.
    Invalid(&'static str),
    /// A frame's stored CRC32 disagrees with the payload — a torn write or
    /// bit rot reached the device.
    ChecksumMismatch {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected EOF: needed {needed} bytes, {remaining} remaining"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: frame says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Writer with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finish and take the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a byte string with a `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("byte string longer than u32::MAX"));
        self.put_raw(v);
    }

    /// Write `v` as it is, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a [`Pair`] record, [`pair_size`] bytes with its directory
    /// entry: the pair encoder.
    pub fn put_pair(&mut self, k: &[u8], v: &[u8]) {
        self.put_bytes(k);
        self.put_raw(v);
    }

    /// Write `tag`, the `u32` count of `pairs`, and their run: a leaf's or
    /// subleaf's payload, [`pairs_size`] bytes once framed.
    pub fn put_pairs(&mut self, tag: u8, pairs: &[(Vec<u8>, Vec<u8>)]) {
        self.put_u8(tag);
        self.put_u32(u32::try_from(pairs.len()).expect("more than u32::MAX pairs"));
        self.put_run(
            pairs.iter(),
            |(k, v)| pair_size(k, v) - END_BYTES,
            |w, (k, v)| w.put_pair(k, v),
        );
    }

    /// Write an [`Entry`] record: `None` is a tombstone.
    pub fn put_entry(&mut self, k: &[u8], v: Option<&[u8]>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_pair(k, v);
            }
            None => {
                self.put_u8(0);
                self.put_raw(k);
            }
        }
    }

    /// Write a run of `records`: its directory, from `len` (a record's
    /// encoded length), then each record by `put`. A count in front, if the
    /// run has one, is the caller's.
    ///
    /// Panics if the records take more than `u32::MAX` bytes.
    pub fn put_run<T>(
        &mut self,
        records: impl Iterator<Item = T> + Clone,
        len: impl Fn(&T) -> usize,
        mut put: impl FnMut(&mut Self, T),
    ) {
        let at = self.buf.len();
        let n = records.clone().count();
        self.buf.resize(at + END_BYTES * n, 0);
        let mut end = 0;
        for (i, record) in records.clone().enumerate() {
            end += len(&record);
            let slot = at + END_BYTES * (n - 1 - i);
            let end = u32::try_from(end).expect("run longer than u32::MAX bytes");
            self.buf[slot..slot + END_BYTES].copy_from_slice(&end.to_le_bytes());
        }
        for record in records {
            put(self, record);
        }
        debug_assert_eq!(
            self.buf.len(),
            at + END_BYTES * n + end,
            "records disagree with their lengths"
        );
    }

    /// Put the directory of a run in front of its records, which are the
    /// bytes from `at` on, given their `ends` in record order: for an
    /// encoder that streams records before it knows how many there are.
    pub fn insert_directory(&mut self, at: usize, ends: &[u32]) {
        debug_assert_eq!(
            ends.last().map_or(0, |&e| e as usize),
            self.buf.len() - at,
            "ends disagree with the records"
        );
        let len = self.buf.len();
        self.buf.resize(len + END_BYTES * ends.len(), 0);
        self.buf.copy_within(at..len, at + END_BYTES * ends.len());
        for (slot, end) in self.buf[at..]
            .chunks_exact_mut(END_BYTES)
            .zip(ends.iter().rev())
        {
            slot.copy_from_slice(&end.to_le_bytes());
        }
    }
}

/// The bytes written so far, for encoders that patch a header in place.
impl Deref for Writer {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for Writer {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

/// Checked decoder over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("slice of 4")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("slice of 8")))
    }

    /// Read a `u32`-length-prefixed byte string, borrowing from the input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------------
// Checksummed block frame
// ---------------------------------------------------------------------------

/// Bytes the frame header adds in front of a payload: CRC32 + payload length
/// + format version.
pub const FRAME_OVERHEAD: usize = 4 + 4 + 1;

/// Current frame format version: 2, record runs behind an end-offset
/// directory (see the module docs). A frame of any other version is
/// [`CodecError::Invalid`].
pub const FRAME_VERSION: u8 = 2;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    // CRC-32 (IEEE 802.3), reflected, polynomial 0xEDB88320.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `data`.
///
/// Three tiers compute the same CRC, so the choice never shows in a framed
/// image. Inputs of 256 bytes or more take the 512-bit carry-less-multiply
/// kernel when the CPU has `avx512f` and `vpclmulqdq`; inputs of 64 bytes
/// or more take the 128-bit one when it has `pclmulqdq`; everything else
/// takes the table loop.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && clmul::available() {
        if data.len() >= 256 && clmul::available512() {
            // SAFETY: `clmul::update512` is compiled for `avx512f`,
            // `vpclmulqdq`, `pclmulqdq` and `sse4.1`, and all four were
            // detected on this CPU just above.
            return !unsafe { clmul::update512(!0, data) };
        }
        // SAFETY: `clmul::update` is compiled for `pclmulqdq` and `sse4.1`,
        // and both were detected on this CPU just above.
        return !unsafe { clmul::update(!0, data) };
    }
    !table_update(!0, data)
}

/// Advance the CRC register (the inverted running CRC) over `data` a byte
/// at a time: the portable path, the tail of the kernel, and the reference
/// the kernel is tested against.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by folding with `PCLMULQDQ` (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), for
/// the reflected polynomial of [`CRC_TABLE`]. Four 128-bit lanes advance
/// 64 bytes per step; they are folded into one, a Barrett reduction takes
/// the remainder to 32 bits, and the table loop finishes the last bytes.
/// Where the CPU has `VPCLMULQDQ` and AVX-512F, four 512-bit lanes first
/// advance 256 bytes per step, the same folding sixteen 128-bit lanes at a
/// time, and then hand over to the four 128-bit lanes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Folding constants: x^n mod P(x) for the n named, bit-reflected and
    // shifted left by one, as in the reflected variant of the paper.
    const K1: i64 = 0x1_5444_2BD4; // n = 4·128 + 32
    const K2: i64 = 0x1_C6E4_1596; // n = 4·128 - 32
    const K3: i64 = 0x1_7519_97D0; // n = 128 + 32
    const K4: i64 = 0x0_CCAA_009E; // n = 128 - 32
    const K5: i64 = 0x1_63CD_6124; // n = 64
    const K6: i64 = 0x1_1542_778A; // n = 4·512 + 32
    const K7: i64 = 0x1_322D_1430; // n = 4·512 - 32
    /// P(x) itself, reflected, with its x^32 term.
    const P: i64 = 0x1_DB71_0641;
    /// The Barrett constant floor(x^64 / P(x)), reflected.
    const MU: i64 = 0x1_F701_1641;

    /// Whether the CPU can run [`update`].
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// Whether the CPU can run [`update512`], given [`available`].
    pub(super) fn available512() -> bool {
        std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("vpclmulqdq")
    }

    /// Advance the CRC register `crc` over `data`, which must hold at least
    /// 64 bytes. Only callable once `pclmulqdq` and `sse4.1` are detected.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (first, rest) = data
            .split_at_checked(64)
            .expect("the kernel takes at least 64 bytes");
        let mut x = [
            lane(&first[..16]),
            lane(&first[16..32]),
            lane(&first[32..48]),
            lane(&first[48..]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        finish(x, rest)
    }

    /// Advance the CRC register `crc` over `data`, which must hold at least
    /// 256 bytes: four 512-bit lanes fold 256 bytes per step, then fold
    /// into one, whose four 128-bit lanes [`finish`] the rest. Only
    /// callable once `avx512f`, `vpclmulqdq`, `pclmulqdq` and `sse4.1` are
    /// detected.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    pub(super) fn update512(crc: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(256);
        let first = blocks
            .next()
            .expect("the 512-bit kernel takes at least 256 bytes");
        let mut x = [
            wide(&first[..64]),
            wide(&first[64..128]),
            wide(&first[128..192]),
            wide(&first[192..]),
        ];
        x[0] = _mm512_xor_si512(x[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32)));
        let k6k7 = _mm512_broadcast_i32x4(_mm_set_epi64x(K7, K6));
        for block in blocks.by_ref() {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold512(*xi, wide(&block[64 * i..64 * i + 64]), k6k7);
            }
        }
        // Each 512-bit lane carried 64 bytes forward onto the next: the
        // 128-bit lanes' own step.
        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let acc = fold512(fold512(fold512(x[0], x[1], k1k2), x[2], k1k2), x[3], k1k2);
        let x = [
            _mm512_extracti32x4_epi32::<0>(acc),
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ];
        finish(x, blocks.remainder())
    }

    /// Fold `data` into the four 128-bit lanes `x`, which hold everything
    /// before it, and reduce: the CRC register after `data`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn finish(mut x: [__m128i; 4], data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(64);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks.by_ref() {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold(*xi, lane(&block[16 * i..16 * i + 16]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for l in lanes.by_ref() {
            acc = fold(acc, lane(l), k3k4);
        }
        super::table_update(reduce(acc, k3k4), lanes.remainder())
    }

    /// Sixteen 128-bit lanes at once: each lane of `a` carried forward (by
    /// the distance `k` encodes, in every lane) and added to `b`'s.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold512(a: __m512i, b: __m512i, k: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(a, k, 0x00);
        let hi = _mm512_clmulepi64_epi128(a, k, 0x11);
        // 0x96: the three-way exclusive or.
        _mm512_ternarylogic_epi64(b, lo, hi, 0x96)
    }

    /// A 64-byte slice as four little-endian 128-bit lanes.
    #[target_feature(enable = "avx512f")]
    fn wide(bytes: &[u8]) -> __m512i {
        let bytes: &[u8; 64] = bytes.try_into().expect("64 bytes");
        // SAFETY: `bytes` is 64 readable bytes, all the load reads, and an
        // unaligned load has no alignment requirement.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    /// `a` carried 128 bits forward (by the distance `k` encodes) and added
    /// to `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// Reduce the 128-bit remainder `x` to the 32-bit CRC register.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 -> 96 bits: the low half times K4, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 -> 64 bits: the low 32 bits times K5, plus the rest.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 -> 32 bits.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }

    /// A 16-byte slice as one little-endian 128-bit lane.
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8]) -> __m128i {
        let (lo, hi) = bytes.split_at(8);
        let word = |half: &[u8]| u64::from_le_bytes(half.try_into().expect("8 bytes")) as i64;
        _mm_set_epi64x(word(hi), word(lo))
    }
}

/// Wrap `payload` in a checksummed frame:
/// `[crc32: u32][payload_len: u32][version: u8][payload]`, with the CRC
/// computed over everything after it (length, version, and payload), so a
/// corrupted length or version field is also caught.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    put_frame(&mut buf, payload);
    buf
}

/// Frame `payload` and zero-pad the result to exactly `slot_bytes` (the
/// fixed-size node/segment images the DAM prices). Panics if the framed
/// payload exceeds the slot — callers size payloads first, and a truncated
/// image could never be read back.
///
/// The image is allocated at its final size: a cached image then holds no
/// spare capacity beyond the bytes the pager's budget counts.
pub fn frame_into_slot(payload: &[u8], slot_bytes: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(slot_bytes.max(FRAME_OVERHEAD + payload.len()));
    put_frame(&mut buf, payload);
    assert!(
        buf.len() <= slot_bytes,
        "framed payload of {} bytes exceeds slot of {slot_bytes}",
        buf.len()
    );
    buf.resize(slot_bytes, 0);
    buf
}

/// What a [`Splice`] does to its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A new record goes before record `index` (last, when `index` is the
    /// record count).
    Insert,
    /// Record `index` gives way to the new record.
    Replace,
    /// Record `index` goes.
    Remove,
}

/// One record's edit of a run inside an encoded payload, located by
/// [`Run::splice`]: the bytes of record `index` (none, for an insert) give
/// way to the new record, the run's directory gains or loses that record's
/// entry, and the ends of the records after it move by the change in
/// length. The run's count, when it has one in front ([`Splice::counted`]),
/// and the outer directory's ends, when the run is a record of an outer
/// run ([`Splice::inside`]), follow. Bytes after the payload's `end` are
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splice {
    /// Payload offset of the run's directory.
    at: usize,
    /// Records in the run before the edit.
    n: usize,
    /// The record edited, or the one a new record goes before.
    index: usize,
    op: Op,
    /// Payload offsets of the bytes the new record replaces.
    lo: usize,
    hi: usize,
    /// Payload offset of the run's `u32` count, if it has one.
    count_at: Option<usize>,
    /// The outer directory entries that end at or after this run: the
    /// payload offset of the first and how many.
    outer: Option<(usize, usize)>,
    /// End of the bytes the edit keeps.
    end: usize,
}

impl Splice {
    /// The run's `u32` record count sits at payload offset `count_at`,
    /// before its directory.
    pub fn counted(self, count_at: usize) -> Self {
        Splice {
            count_at: Some(count_at),
            ..self
        }
    }

    /// The run is record `index` of `outer`, a run read whole from payload
    /// offset `outer_at` that ends the kept bytes: the ends of that record
    /// and the ones after it move by the run's change in length.
    pub fn inside<'a, R: Record<'a>>(
        self,
        outer: &Run<'a, R>,
        outer_at: usize,
        index: usize,
    ) -> Self {
        Splice {
            outer: Some((outer_at, outer.len() - index)),
            end: outer_at + outer.encoded_len(),
            ..self
        }
    }

    /// Payload length after the edit, with a `record_len`-byte record.
    pub fn edited_len(&self, record_len: usize) -> usize {
        let (ins, rem) = self.entries();
        self.end + END_BYTES * ins + record_len - (self.hi - self.lo) - END_BYTES * rem
    }

    /// Directory entries the edit adds and removes: one or none each.
    fn entries(&self) -> (usize, usize) {
        (
            usize::from(self.op == Op::Insert),
            usize::from(self.op == Op::Remove),
        )
    }
}

/// Apply `edit`, with the new `record`, to the framed `image` in place:
/// move the bytes after the edited directory entry and after the edited
/// record, write the record (and, for an insert, its entry), patch the ends
/// and counts that follow, zero the bytes a shrinking edit vacates and
/// reseal the frame with one checksum pass. The image then holds the bytes
/// [`frame_into_slot`] writes for the edited payload at `image.len()`,
/// padding aside: bytes past both the old and the new frame are left as
/// they were (reads ignore padding).
///
/// Panics if the edit is out of order (the count and the outer directory
/// before the run's directory, the directory before the record, the record
/// before `end`, `end` within the frame), or the edited frame exceeds the
/// image, as [`frame_into_slot`] does: callers locate the edit in a parsed
/// payload and size the result first.
pub fn splice_in_place(image: &mut [u8], edit: &Splice, record: &[u8]) {
    let Splice {
        at,
        n,
        index,
        op,
        lo,
        hi,
        count_at,
        outer,
        end,
    } = *edit;
    let framed_len = image.get(4..8).map_or(0, |b| {
        u32::from_le_bytes(b.try_into().expect("slice of 4")) as usize
    });
    let (ins, rem) = edit.entries();
    assert!(
        count_at.is_none_or(|c| c + 4 <= at)
            && outer.is_none_or(|(o, k)| o + END_BYTES * k <= at)
            && index + usize::from(op != Op::Insert) <= n
            && at + END_BYTES * n <= lo
            && lo <= hi
            && hi <= end
            && end <= framed_len,
        "splice {edit:?} out of order for a frame of {framed_len} payload bytes"
    );
    assert!(
        FRAME_OVERHEAD + framed_len <= image.len(),
        "frame of {framed_len} payload bytes overruns an image of {}",
        image.len()
    );
    let len = edit.edited_len(record.len());
    assert!(
        FRAME_OVERHEAD + len <= image.len(),
        "framed payload of {} bytes exceeds slot of {}",
        FRAME_OVERHEAD + len,
        image.len()
    );
    let body = &mut image[FRAME_OVERHEAD..];
    // The entries of the records from the edited one on lead the directory
    // and stay put; the edited entry goes in or out at `entry`.
    let kept = n - index - rem;
    let entry = at + END_BYTES * kept;
    // The rest of the directory and the records before the edited one move
    // by the entry, everything after the edited record by the entry and
    // the record's change in length. Whichever moves right moves first.
    let before = entry + END_BYTES * rem..lo;
    let rec_at = lo + END_BYTES * ins - END_BYTES * rem;
    let after_to = rec_at + record.len();
    if after_to > hi {
        body.copy_within(hi..end, after_to);
        body.copy_within(before, entry + END_BYTES * ins);
    } else {
        body.copy_within(before, entry + END_BYTES * ins);
        body.copy_within(hi..end, after_to);
    }
    body[rec_at..after_to].copy_from_slice(record);
    let grown = record.len() as i64 - (hi - lo) as i64;
    if ins == 1 {
        let start = lo - (at + END_BYTES * n);
        put_end(body, entry, start + record.len());
    }
    add_to_ends(body, at, kept, grown);
    if let Some((o, k)) = outer {
        add_to_ends(body, o, k, after_to as i64 - hi as i64);
    }
    if let Some(c) = count_at {
        add_to_ends(body, c, 1, ins as i64 - rem as i64);
    }
    if len < framed_len {
        body[len..framed_len].fill(0);
    }
    seal_frame(&mut image[..FRAME_OVERHEAD + len]);
}

/// Write `end` as the little-endian `u32` at `at`.
fn put_end(body: &mut [u8], at: usize, end: usize) {
    let end = u32::try_from(end).expect("record end past u32::MAX");
    body[at..at + END_BYTES].copy_from_slice(&end.to_le_bytes());
}

/// Add `by` to the `k` little-endian `u32`s from `at`.
fn add_to_ends(body: &mut [u8], at: usize, k: usize, by: i64) {
    if by == 0 {
        return;
    }
    for slot in body[at..at + END_BYTES * k].chunks_exact_mut(END_BYTES) {
        let v = i64::from(u32::from_le_bytes((&*slot).try_into().expect("slice of 4")));
        let v = u32::try_from(v + by).expect("directory entry out of range");
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// Write the frame of `payload` into the empty `buf`.
fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    buf.extend_from_slice(payload);
    seal_frame(buf);
}

/// Frame, in place, the payload that follows `FRAME_OVERHEAD` reserved
/// bytes at the start of `framed`: fill in the header so `framed` holds the
/// bytes [`frame`] writes for `&framed[FRAME_OVERHEAD..]`, with one checksum
/// pass. For encoders that write a payload straight into its image.
///
/// Panics if `framed` is shorter than the header.
pub fn seal_frame(framed: &mut [u8]) {
    let len = framed.len() - FRAME_OVERHEAD;
    let len = u32::try_from(len).expect("frame payload longer than u32::MAX");
    framed[4..8].copy_from_slice(&len.to_le_bytes());
    framed[8] = FRAME_VERSION;
    let crc = crc32(&framed[4..]);
    framed[..4].copy_from_slice(&crc.to_le_bytes());
}

/// Validate and strip a frame written by [`frame`], returning the payload.
/// Trailing padding beyond the framed length is ignored. Any damage — a
/// truncated buffer, an unknown version (including all-zero blocks that were
/// never written), a lying length, or a checksum mismatch — comes back as a
/// [`CodecError`], never garbage bytes.
pub fn unframe(buf: &[u8]) -> Result<&[u8], CodecError> {
    let payload = frame_payload(buf)?;
    let stored = u32::from_le_bytes(buf[0..4].try_into().expect("slice of 4"));
    let computed = crc32(&buf[4..FRAME_OVERHEAD + payload.len()]);
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Strip a frame's header checks only — version and length — without
/// recomputing its CRC. For images whose checksum already passed once (a
/// pager entry that is verified; see `dam_cache::Pager::check_once`);
/// everything else goes through [`unframe`].
pub fn frame_payload(buf: &[u8]) -> Result<&[u8], CodecError> {
    if buf.len() < FRAME_OVERHEAD {
        return Err(CodecError::UnexpectedEof {
            needed: FRAME_OVERHEAD,
            remaining: buf.len(),
        });
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("slice of 4")) as usize;
    let version = buf[8];
    if version != FRAME_VERSION {
        return Err(CodecError::Invalid(
            "unknown frame version (unwritten or damaged block?)",
        ));
    }
    if len > buf.len() - FRAME_OVERHEAD {
        return Err(CodecError::UnexpectedEof {
            needed: len,
            remaining: buf.len() - FRAME_OVERHEAD,
        });
    }
    Ok(&buf[FRAME_OVERHEAD..FRAME_OVERHEAD + len])
}

// ---------------------------------------------------------------------------
// Record runs
// ---------------------------------------------------------------------------

/// Tag of a node image that holds a pair run: a B-tree or Bε-tree leaf.
pub const TAG_LEAF: u8 = 0;
/// Tag of a node image that holds pivots and children.
pub const TAG_INTERNAL: u8 = 1;
/// Bytes a framed, tagged run spends beyond its records: the frame header,
/// the tag and the `u32` record count. Every node image and subleaf segment
/// starts with them.
pub const NODE_HEADER_BYTES: usize = FRAME_OVERHEAD + 1 + 4;
/// Bytes a pair spends beyond its key and value: its directory entry and
/// its key's `u32` length.
pub const LEAF_ENTRY_OVERHEAD: usize = 8;
/// Bytes a record spends in its run's directory: its `u32` end.
const END_BYTES: usize = 4;

/// A key and its value: the key's `u32` length, the key, then the value,
/// which runs to the record's end. The records of leaves and subleaves.
pub type Pair<'a> = (&'a [u8], &'a [u8]);

/// A one-byte tag, then, for tag 1, a key and value laid out as a [`Pair`],
/// or, for tag 0 (a tombstone), the key alone: the records of an SSTable
/// block.
pub type Entry<'a> = (&'a [u8], Option<&'a [u8]>);

/// One kind of record, read in place from an encoded run.
pub trait Record<'a>: Copy {
    /// An owned copy of a record.
    type Owned;

    /// Read the record that spans exactly `bytes`, checking it: the kind's
    /// only parser.
    fn read(bytes: &'a [u8]) -> Result<Self, CodecError>;

    /// Read a record [`Record::read`] has accepted. Only a run of runs
    /// reads differently: it does not check the nested run again.
    fn reread(bytes: &'a [u8]) -> Self {
        Self::read(bytes).expect("a record is checked when its run is read")
    }

    /// An owned copy.
    fn owned(self) -> Self::Owned;
}

/// A byte string, the whole record: a pivot or routing key.
impl<'a> Record<'a> for &'a [u8] {
    type Owned = Vec<u8>;

    #[inline]
    fn read(bytes: &'a [u8]) -> Result<Self, CodecError> {
        Ok(bytes)
    }

    fn owned(self) -> Vec<u8> {
        self.to_vec()
    }
}

impl<'a> Record<'a> for Pair<'a> {
    type Owned = (Vec<u8>, Vec<u8>);

    #[inline]
    fn read(bytes: &'a [u8]) -> Result<Self, CodecError> {
        split_key(bytes)
    }

    fn owned(self) -> (Vec<u8>, Vec<u8>) {
        (self.0.to_vec(), self.1.to_vec())
    }
}

impl<'a> Record<'a> for Entry<'a> {
    type Owned = (Vec<u8>, Option<Vec<u8>>);

    #[inline]
    fn read(bytes: &'a [u8]) -> Result<Self, CodecError> {
        match bytes.split_first() {
            Some((0, key)) => Ok((key, None)),
            Some((1, pair)) => split_key(pair).map(|(k, v)| (k, Some(v))),
            Some(_) => Err(CodecError::Invalid("unknown entry tag")),
            None => Err(CodecError::Invalid("record shorter than its header")),
        }
    }

    fn owned(self) -> (Vec<u8>, Option<Vec<u8>>) {
        (self.0.to_vec(), self.1.map(<[u8]>::to_vec))
    }
}

/// A key behind its `u32` length, and the bytes after it: the front of a
/// [`Pair`] record, which the records with a key and a value share.
#[inline]
pub(crate) fn split_key(bytes: &[u8]) -> Result<(&[u8], &[u8]), CodecError> {
    let (len, rest) = bytes
        .split_first_chunk()
        .ok_or(CodecError::Invalid("record shorter than its header"))?;
    rest.split_at_checked(u32::from_le_bytes(*len) as usize)
        .ok_or(CodecError::Invalid("key length past its record"))
}

/// A run with no count in front, its length given by the outer run's
/// directory: one message buffer of a node.
impl<'a, R: Record<'a>> Record<'a> for Run<'a, R> {
    type Owned = Vec<R::Owned>;

    fn read(bytes: &'a [u8]) -> Result<Self, CodecError> {
        Run::read_spanning(bytes, |_| ())
    }

    fn reread(bytes: &'a [u8]) -> Self {
        let n = Self::count_of(bytes).expect("a record is checked when its run is read");
        let (dir, records) = bytes.split_at(END_BYTES * n);
        Run::new(dir, records, 0)
    }

    fn owned(self) -> Vec<R::Owned> {
        self.to_vec()
    }
}

/// What reading a run checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every record, in one pass over the directory and the records' fixed
    /// headers: for bytes from a device or of unknown origin.
    Full,
    /// The run's extent only, in O(1): for bytes a [`Check::Full`] read
    /// accepted before (a verified pager entry; see
    /// `dam_cache::Pager::check_once`). A record of bytes no check
    /// accepted may panic when it is read.
    Extent,
}

/// The little-endian `u32` at `at`.
#[inline]
fn end_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + END_BYTES].try_into().expect("slice of 4")) as usize
}

/// Consecutive records of one kind behind their directory, checked once
/// when read and then walked and searched in place. A run is sorted by its
/// records' keys, so [`Run::seek`], the one ordered search, finds where a
/// key goes.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a, R> {
    /// The directory entries of this run's records, last record first.
    dir: &'a [u8],
    /// The records of the run this one was read as; the ends index them.
    records: &'a [u8],
    /// Where this run's first record starts in `records`.
    start: usize,
    kind: PhantomData<R>,
}

impl<'a, R: Record<'a>> Run<'a, R> {
    fn new(dir: &'a [u8], records: &'a [u8], start: usize) -> Self {
        Run {
            dir,
            records,
            start,
            kind: PhantomData,
        }
    }

    /// The directory and the records of a run of `n` records at the front
    /// of `bytes`: the extent the first directory entry gives, checked to
    /// lie inside `bytes`.
    fn extent(bytes: &'a [u8], n: usize) -> Result<(&'a [u8], &'a [u8]), CodecError> {
        if n > bytes.len() / END_BYTES {
            return Err(CodecError::Invalid(
                "record count too large for its directory",
            ));
        }
        let (dir, rest) = bytes.split_at(END_BYTES * n);
        let total = if n == 0 { 0 } else { end_at(dir, 0) };
        let records = rest.get(..total).ok_or(CodecError::UnexpectedEof {
            needed: total,
            remaining: rest.len(),
        })?;
        Ok((dir, records))
    }

    /// Check a run of `n` records at the front of `bytes`, reading each
    /// with `read`: one pass over the directory and the records.
    fn check(
        bytes: &'a [u8],
        n: usize,
        mut read: impl FnMut(&'a [u8]) -> Result<R, CodecError>,
    ) -> Result<Self, CodecError> {
        let (dir, records) = Self::extent(bytes, n)?;
        let mut start = 0;
        for at in (0..n).rev() {
            let end = end_at(dir, END_BYTES * at);
            if end < start {
                return Err(CodecError::Invalid("record ends decrease"));
            }
            let record = records
                .get(start..end)
                .ok_or(CodecError::Invalid("record end past its run"))?;
            read(record)?;
            start = end;
        }
        Ok(Run::new(dir, records, 0))
    }

    /// Take `n` records from `r`, checking each, and leave `r` just past
    /// them.
    pub fn read_n(r: &mut Reader<'a>, n: usize) -> Result<Self, CodecError> {
        Self::read_n_by(r, n, R::read)
    }

    /// [`Run::read_n`], reading each record with `read`.
    pub(crate) fn read_n_by(
        r: &mut Reader<'a>,
        n: usize,
        read: impl FnMut(&'a [u8]) -> Result<R, CodecError>,
    ) -> Result<Self, CodecError> {
        let run = Self::check(&r.buf[r.pos..], n, read)?;
        r.pos += run.encoded_len();
        Ok(run)
    }

    /// Take a run with its `u32` count in front from `r`, checked as
    /// `check` says, and leave `r` just past it.
    pub fn read_counted(r: &mut Reader<'a>, check: Check) -> Result<Self, CodecError> {
        let n = r.get_u32()? as usize;
        match check {
            Check::Full => Self::read_n(r, n),
            Check::Extent => Self::reread_n(r, n),
        }
    }

    /// Take `n` records that [`Run::read_n`] accepted before from `r`,
    /// and leave `r` just past them, checking only the run's extent.
    pub(crate) fn reread_n(r: &mut Reader<'a>, n: usize) -> Result<Self, CodecError> {
        let (dir, records) = Self::extent(&r.buf[r.pos..], n)?;
        r.pos += dir.len() + records.len();
        Ok(Run::new(dir, records, 0))
    }

    /// Check the run that spans exactly `bytes`, whose count follows from
    /// its length, and hand each record to `each`.
    pub(crate) fn read_spanning(
        bytes: &'a [u8],
        mut each: impl FnMut(R),
    ) -> Result<Self, CodecError> {
        let n = Self::count_of(bytes)?;
        Self::check(bytes, n, |record| {
            let record = R::read(record)?;
            each(record);
            Ok(record)
        })
    }

    /// The record count of a run that spans exactly `bytes`: the bytes past
    /// the records' total, the first entry, are its directory.
    fn count_of(bytes: &[u8]) -> Result<usize, CodecError> {
        if bytes.is_empty() {
            return Ok(0);
        }
        let Some(total) = bytes.get(..END_BYTES).map(|_| end_at(bytes, 0)) else {
            return Err(CodecError::UnexpectedEof {
                needed: END_BYTES,
                remaining: bytes.len(),
            });
        };
        match bytes.len().checked_sub(total) {
            Some(dir) if dir >= END_BYTES && dir % END_BYTES == 0 => Ok(dir / END_BYTES),
            _ => Err(CodecError::Invalid(
                "run length disagrees with its directory",
            )),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.dir.len() / END_BYTES
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Where record `i` ends in `records`.
    fn end(&self, i: usize) -> usize {
        end_at(self.dir, END_BYTES * (self.len() - 1 - i))
    }

    /// Where record `i` starts in `records`; the records' end for `i ==
    /// len`.
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            self.start
        } else {
            self.end(i - 1)
        }
    }

    /// Record `i`, which the run holds.
    fn record(&self, i: usize) -> R {
        R::reread(&self.records[self.start(i)..self.end(i)])
    }

    /// Bytes the records and their directory entries take encoded.
    pub fn encoded_len(&self) -> usize {
        self.dir.len() + self.start(self.len()) - self.start
    }

    /// Record `i`, if there is one.
    pub fn nth(&self, i: usize) -> Option<R> {
        (i < self.len()).then(|| self.record(i))
    }

    /// Where record `i` starts, in bytes from the start of a run read
    /// whole; the run's length for `i == len`.
    pub fn offset(&self, i: usize) -> usize {
        self.dir.len() + self.start(i)
    }

    /// The records in order.
    pub fn iter(&self) -> impl Iterator<Item = R> + use<'a, R> {
        let run = *self;
        let mut start = run.start;
        (0..run.len()).map(move |i| {
            let end = run.end(i);
            let record = R::reread(&run.records[start..end]);
            start = end;
            record
        })
    }

    /// The ordered search: how many leading records `before` holds for,
    /// and the run from the first record it fails for. A binary search,
    /// which calls `before` at most ⌈log₂(n + 1)⌉ times: `before` must hold
    /// for a prefix of the records only (a bound on sorted keys), and on
    /// any other run the answer is some index of it.
    pub fn seek(&self, mut before: impl FnMut(&R) -> bool) -> (usize, Self) {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(&self.record(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let tail = Run::new(
            &self.dir[..END_BYTES * (self.len() - lo)],
            self.records,
            self.start(lo),
        );
        (lo, tail)
    }

    /// Owned copies of the records.
    pub fn to_vec(self) -> Vec<R::Owned> {
        self.iter().map(R::owned).collect()
    }

    /// The edit `op` of record `index` of this run, read whole from payload
    /// offset `at` and ending the kept bytes: see [`splice_in_place`].
    pub fn splice(&self, at: usize, index: usize, op: Op) -> Splice {
        let records = at + self.dir.len();
        let lo = records + self.start(index);
        let hi = match op {
            Op::Insert => lo,
            Op::Replace | Op::Remove => records + self.end(index),
        };
        Splice {
            at,
            n: self.len(),
            index,
            op,
            lo,
            hi,
            count_at: None,
            outer: None,
            end: at + self.encoded_len(),
        }
    }
}

impl<'a> Run<'a, &'a [u8]> {
    /// How many strings are `<= key`, for strings in ascending order: the
    /// index of the child (or segment) a pivot list routes `key` to.
    pub fn route(&self, key: &[u8]) -> usize {
        self.seek(|p| *p <= key).0
    }
}

/// Runs of key-first records in ascending key order: pairs and entries.
impl<'a, V: Copy> Run<'a, (&'a [u8], V)>
where
    (&'a [u8], V): Record<'a>,
{
    /// The value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let (_, rest) = self.seek(|(k, _)| *k < key);
        rest.nth(0).filter(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The records with `start <= key < end`.
    pub fn range<'k>(
        &self,
        start: &'k [u8],
        end: &'k [u8],
    ) -> impl Iterator<Item = (&'a [u8], V)> + 'k
    where
        'a: 'k,
        V: 'k,
    {
        let (_, rest) = self.seek(|(k, _)| *k < start);
        rest.iter().take_while(move |(k, _)| *k < end)
    }

    /// Where `key` sits among the records: the index of the record holding
    /// it and `true`, or the index a record holding it would take and
    /// `false`.
    pub fn locate(&self, key: &[u8]) -> (usize, bool) {
        let (i, rest) = self.seek(|(k, _)| *k < key);
        (i, rest.nth(0).is_some_and(|(k, _)| k == key))
    }
}

/// Encoded size of the pair `(k, v)`, its directory entry included.
pub fn pair_size(k: &[u8], v: &[u8]) -> usize {
    LEAF_ENTRY_OVERHEAD + k.len() + v.len()
}

/// Framed size of a run of `pairs` behind a tag ([`Writer::put_pairs`]):
/// exactly its image length before padding.
pub fn pairs_size(pairs: &[(Vec<u8>, Vec<u8>)]) -> usize {
    NODE_HEADER_BYTES + pairs.iter().map(|(k, v)| pair_size(k, v)).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Message, MessageRef, Operation};

    /// `[tag][count][run of strs]`: a counted run of byte strings.
    fn counted(strs: &[&[u8]]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(9);
        w.put_u32(strs.len() as u32);
        w.put_run(strs.iter(), |s| s.len(), |w, s| w.put_raw(s));
        w.into_bytes()
    }

    /// `[tag][run of runs of strs]`: buffers inside an outer run.
    fn nested(runs: &[Vec<&[u8]>]) -> Vec<u8> {
        let len = |run: &&Vec<&[u8]>| run.iter().map(|s| END_BYTES + s.len()).sum::<usize>();
        let mut w = Writer::new();
        w.put_u8(9);
        w.put_run(runs.iter(), len, |w, run| {
            w.put_run(run.iter(), |s| s.len(), |w, s| w.put_raw(s))
        });
        w.into_bytes()
    }

    /// An edit: the index, the op, the new record and the strings after it.
    type Edit = (usize, Op, &'static [u8], Vec<&'static [u8]>);

    /// Every edit of `strs` at every index: the insert before it, a
    /// replacement by a shorter, an equal and a longer string, and the
    /// removal; with the strings after the edit.
    fn edits(strs: &[&'static [u8]]) -> Vec<Edit> {
        let mut out = Vec::new();
        for i in 0..=strs.len() {
            let mut with = strs.to_vec();
            with.insert(i, b"new");
            out.push((i, Op::Insert, &b"new"[..], with));
            if i == strs.len() {
                continue;
            }
            for record in [&b""[..], b"=", b"longer record"] {
                let mut with = strs.to_vec();
                with[i] = record;
                out.push((i, Op::Replace, record, with));
            }
            let mut without = strs.to_vec();
            without.remove(i);
            out.push((i, Op::Remove, &b""[..], without));
        }
        out
    }

    #[test]
    fn splice_in_place_frames_the_edited_payload() {
        // A counted run of 0 to 3 strings, one of them empty.
        let all: [&'static [u8]; 3] = [b"ab", b"", b"cde"];
        for n in 0..=all.len() {
            let strs = &all[..n];
            let payload = counted(strs);
            let mut r = Reader::new(&payload[5..]);
            let run = Run::<&[u8]>::read_n(&mut r, n).unwrap();
            for (i, op, record, want) in edits(strs) {
                let edit = run.splice(5, i, op).counted(1);
                let edited = counted(&want);
                assert_eq!(edit.edited_len(record.len()), edited.len());
                let mut image = frame_into_slot(&payload, 96);
                splice_in_place(&mut image, &edit, record);
                assert_eq!(image, frame_into_slot(&edited, 96), "{edit:?}");
            }
        }
    }

    #[test]
    fn splice_in_place_moves_the_outer_ends() {
        // An edit of each of three nested runs, the empty one included.
        let runs: [Vec<&'static [u8]>; 3] = [vec![b"a", b"bc"], vec![], vec![b"d"]];
        let payload = nested(&runs);
        let mut r = Reader::new(&payload[1..]);
        let outer = Run::<Run<&[u8]>>::read_n(&mut r, runs.len()).unwrap();
        for (c, strs) in runs.iter().enumerate() {
            let run = outer.nth(c).unwrap();
            for (i, op, record, want) in edits(strs) {
                let edit = run.splice(1 + outer.offset(c), i, op).inside(&outer, 1, c);
                let mut edited = runs.clone();
                edited[c] = want;
                let edited = nested(&edited);
                assert_eq!(edit.edited_len(record.len()), edited.len());
                let mut image = frame_into_slot(&payload, 96);
                splice_in_place(&mut image, &edit, record);
                assert_eq!(image, frame_into_slot(&edited, 96), "{c}: {edit:?}");
            }
        }
    }

    #[test]
    fn splice_in_place_drops_bytes_past_the_records_and_keeps_padding() {
        // The frame holds two stray bytes after the run's end; the edit
        // drops them (zeroing what it vacates) and leaves the padding past
        // the old frame as it found it.
        let mut payload = counted(&[b"a"]);
        let end = payload.len();
        payload.extend([0xEE, 0xEE]);
        let run = Run::<&[u8]>::read_n(&mut Reader::new(&payload[5..]), 1).unwrap();
        let mut image = frame_into_slot(&payload, 32);
        image[30] = 0x77;
        let edit = run.splice(5, 0, Op::Replace).counted(1);
        assert_eq!(edit.edited_len(1), end);
        splice_in_place(&mut image, &edit, b"b");
        let mut want = frame_into_slot(&counted(&[b"b"]), 32);
        want[30] = 0x77;
        assert_eq!(image, want);
        assert_eq!(unframe(&image).unwrap(), counted(&[b"b"]));
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn splice_in_place_rejects_a_result_too_big_for_the_slot() {
        let payload = counted(&[]);
        let run = Run::<&[u8]>::read_n(&mut Reader::new(&payload[5..]), 0).unwrap();
        let edit = run.splice(5, 0, Op::Insert).counted(1);
        let mut image = frame_into_slot(&payload, FRAME_OVERHEAD + payload.len() + 5);
        splice_in_place(&mut image, &edit, b"xy");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn splice_in_place_rejects_a_count_inside_the_run() {
        let payload = counted(&[b"a"]);
        let run = Run::<&[u8]>::read_n(&mut Reader::new(&payload[5..]), 1).unwrap();
        let edit = run.splice(5, 0, Op::Insert).counted(3);
        let mut image = frame_into_slot(&payload, 64);
        splice_in_place(&mut image, &edit, b"xy");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn splice_in_place_rejects_an_end_past_the_frame() {
        let payload = counted(&[b"a"]);
        let run = Run::<&[u8]>::read_n(&mut Reader::new(&payload[5..]), 1).unwrap();
        // Located as if the run began two bytes later.
        let edit = run.splice(7, 0, Op::Insert).counted(1);
        let mut image = frame_into_slot(&payload, 64);
        splice_in_place(&mut image, &edit, b"xy");
    }

    /// Seek on a run of 4,096 records whose keys are their indices, for
    /// probes at both ends, the middle and around it: it lands on the
    /// probe and reads at most ⌈log₂(n + 1)⌉ + 1 records to get there.
    fn check_seek_cost<'a, R: Record<'a>>(bytes: &'a [u8], key: impl Fn(&R) -> u64) {
        let n = 4096;
        let run = Run::<R>::read_n(&mut Reader::new(bytes), n).unwrap();
        let bound = (usize::BITS - n.leading_zeros()) as usize + 1;
        for probe in [0, 1, 17, n / 2 - 1, n / 2, n / 2 + 1, n - 1, n] {
            let mut calls = 0;
            let (i, rest) = run.seek(|r| {
                calls += 1;
                key(r) < probe as u64
            });
            assert_eq!((i, rest.len()), (probe, n - probe));
            assert!(calls <= bound, "{calls} reads for probe {probe}");
        }
    }

    #[test]
    fn seek_reads_logarithmically_many_records_of_every_kind() {
        let n = 4096u64;
        let key = |i: u64| i.to_be_bytes();
        let word = |k: &[u8]| u64::from_be_bytes(k[..8].try_into().unwrap());
        let mut w = Writer::new();
        w.put_run(0..n, |_| 8, |w, i| w.put_raw(&key(i)));
        check_seek_cost::<&[u8]>(&w, |s| word(s));
        let mut w = Writer::new();
        w.put_run(0..n, |_| 4 + 8 + 3, |w, i| w.put_pair(&key(i), b"val"));
        check_seek_cost::<Pair>(&w, |(k, _)| word(k));
        let entry = |i: u64| (key(i), i.is_multiple_of(2).then_some(&b"val"[..]));
        let mut w = Writer::new();
        w.put_run(
            0..n,
            |&i| 1 + 8 + entry(i).1.map_or(0, |v| 4 + v.len()),
            |w, i| w.put_entry(&entry(i).0, entry(i).1),
        );
        check_seek_cost::<Entry>(&w, |(k, _)| word(k));
        let msg = |i: u64| Message {
            seq: i,
            key: key(i).to_vec(),
            op: if i.is_multiple_of(3) {
                Operation::Delete
            } else {
                Operation::Put(vec![7; 5])
            },
        };
        let mut w = Writer::new();
        w.put_run((0..n).map(msg), Message::encoded_len, |w, m| m.encode(w));
        check_seek_cost::<MessageRef>(&w, |m| word(m.key));
        // A run of 4,096 buffers, each holding its index's message.
        let mut w = Writer::new();
        w.put_run(
            (0..n).map(msg),
            |m| END_BYTES + m.encoded_len(),
            |w, m| w.put_run(std::iter::once(&m), |m| m.encoded_len(), |w, m| m.encode(w)),
        );
        check_seek_cost::<Run<MessageRef>>(&w, |b| word(b.nth(0).unwrap().key));
    }

    #[test]
    fn frames_of_the_old_version_are_invalid() {
        // A frame sealed at version 1, the length-prefixed record format:
        // its checksum holds, so only the version tells it apart.
        let mut old = frame(&counted(&[b"a"]));
        old[8] = 1;
        let crc = crc32(&old[4..]);
        old[..4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(unframe(&old), Err(CodecError::Invalid(_))));
        assert!(matches!(frame_payload(&old), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert!(r.is_exhausted());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut w = Writer::new();
        w.put_bytes(b"");
        w.put_bytes(b"hello");
        for b in [1, 2, 3] {
            w.put_u8(b);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_raw(3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn truncated_scalar_fails_cleanly() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.get_u32(),
            Err(CodecError::UnexpectedEof {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn lying_length_prefix_fails_cleanly() {
        let mut w = Writer::new();
        w.put_u32(1_000_000); // claims a megabyte follows
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_bytes(),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn reader_position_advances_exactly() {
        let mut w = Writer::new();
        w.put_bytes(b"abc");
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.remaining(), bytes.len());
        r.get_bytes().unwrap();
        assert_eq!(r.remaining(), 1);
        r.get_u8().unwrap();
        assert!(r.is_exhausted());
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::with_capacity(64);
        assert!(w.is_empty());
        w.put_u64(0);
        assert_eq!(w.len(), 8);
    }

    /// Table-free reference: the reflected polynomial applied one bit at a
    /// time.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        *crc32_bitwise_prefixes(data)
            .last()
            .expect("the empty prefix")
    }

    /// The bitwise reference's CRC of every prefix of `data`: entry `n` is
    /// the CRC of `data[..n]`.
    fn crc32_bitwise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut crc = !0u32;
        let mut prefixes = vec![!crc];
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
            prefixes.push(!crc);
        }
        prefixes
    }

    /// The portable table loop on its own.
    fn crc32_table(data: &[u8]) -> u32 {
        !table_update(!0, data)
    }

    /// `n` deterministic pseudo-random bytes (xorshift64*).
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values; the ones of 64 bytes and more
        // take the folding kernel where the CPU has it.
        let mut ascending = Vec::new();
        for _ in 0..4 {
            ascending.extend(0..=255u8);
        }
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xCBF4_3926),
            (&b"123456789".repeat(100), 0x09FD_0FD7),
            (&ascending, 0xB70B_4C26),
            (&[0xFF; 64], 0x0F61_87BA),
            (&[0; 64], 0x758D_6336),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32(data), want, "crc32, {} bytes", data.len());
            assert_eq!(crc32_table(data), want, "table, {} bytes", data.len());
            assert_eq!(crc32_bitwise(data), want, "bitwise, {} bytes", data.len());
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        // Every start offset mod 16 (unaligned lanes) and every length
        // through several 64-byte fold blocks, lane and byte tails; the
        // 128-bit kernel on its own too, whichever tier `crc32` picks.
        let buf = noise(1100 + 16, 1);
        for offset in 0..16 {
            let want = crc32_bitwise_prefixes(&buf[offset..offset + 1100]);
            for (len, &want) in want.iter().enumerate() {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), want, "crc32: len {len} offset {offset}");
                assert_eq!(crc32_table(data), want, "table: len {len} offset {offset}");
                #[cfg(target_arch = "x86_64")]
                if len >= 64 && clmul::available() {
                    // SAFETY: the features `update` is compiled for were
                    // detected just above.
                    let got = !unsafe { clmul::update(!0, data) };
                    assert_eq!(got, want, "128-bit kernel: len {len} offset {offset}");
                }
            }
        }
    }

    /// The 512-bit kernel's CRC of `data`, or `None` (with a note on the
    /// test's output) when the CPU cannot run it.
    #[cfg(target_arch = "x86_64")]
    fn crc32_512(data: &[u8]) -> Option<u32> {
        if !(clmul::available() && clmul::available512()) {
            println!("note: CPU lacks avx512f/vpclmulqdq; the 512-bit CRC kernel is not tested");
            return None;
        }
        // SAFETY: the features `update512` is compiled for were detected
        // just above.
        Some(!unsafe { clmul::update512(!0, data) })
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn update512_matches_bitwise_reference_at_every_length_and_offset() {
        // Every length from one 256-byte block through nine, each 64-byte
        // block, 16-byte lane and byte tail after them, at every start
        // offset mod 16.
        let buf = noise(2400 + 16, 3);
        if crc32_512(&buf[..256]).is_none() {
            return;
        }
        for offset in 0..16 {
            let want = crc32_bitwise_prefixes(&buf[offset..offset + 2400]);
            for (len, &want) in want.iter().enumerate().skip(256) {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32_512(data), Some(want), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn update512_matches_bitwise_reference_on_large_buffers() {
        for n in [64 << 10, 256 << 10] {
            let data = noise(n, n as u64 + 1);
            let Some(got) = crc32_512(&data) else {
                return;
            };
            assert_eq!(got, crc32_bitwise(&data), "{n} bytes");
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_on_large_buffers() {
        for n in [64 << 10, 256 << 10] {
            let data = noise(n, n as u64);
            let want = crc32_bitwise(&data);
            assert_eq!(crc32(&data), want, "crc32, {n} bytes");
            assert_eq!(crc32_table(&data), want, "table, {n} bytes");
        }
    }

    #[test]
    fn unframe_catches_a_flip_in_every_region_the_kernel_covers() {
        // The CRC covers the 4266 bytes from offset 4: sixteen 256-byte
        // blocks (the 512-bit lanes' steps), two 64-byte blocks, two
        // 16-byte lanes and a 10-byte tail. Where the CPU lacks the 512-bit
        // kernel, the 128-bit one covers the same bytes in 64-byte blocks.
        let framed = frame(&noise(4261, 7));
        assert_eq!(framed.len() - 4, 16 * 256 + 2 * 64 + 2 * 16 + 10);
        let regions = [
            4..4 + 256,               // first 256-byte block
            4 + 8 * 256..4 + 9 * 256, // a middle 256-byte block
            4 + 4096..4 + 4096 + 128, // the 64-byte blocks after them
            4 + 4224..4 + 4224 + 32,  // the 16-byte lanes
            4 + 4256..4 + 4266,       // byte tail
        ];
        for at in regions.into_iter().flatten() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[at] ^= 1 << bit;
                let got = unframe(&bad);
                if at < FRAME_OVERHEAD {
                    // Length and version: their own checks may fire first.
                    assert!(got.is_err(), "header byte {at} bit {bit}");
                } else {
                    assert!(
                        matches!(got, Err(CodecError::ChecksumMismatch { .. })),
                        "byte {at} bit {bit}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        for payload in [&b""[..], b"x", b"hello world", &[0u8; 1000]] {
            let framed = frame(payload);
            assert_eq!(framed.len(), FRAME_OVERHEAD + payload.len());
            assert_eq!(unframe(&framed).unwrap(), payload);
        }
    }

    #[test]
    fn frame_layout_is_crc_then_length_version_payload() {
        let framed = frame(b"abc");
        let covered = [3, 0, 0, 0, FRAME_VERSION, b'a', b'b', b'c'];
        assert_eq!(framed[..4], crc32(&covered).to_le_bytes());
        assert_eq!(framed[4..], covered);
    }

    #[test]
    fn seal_frame_writes_what_frame_writes() {
        for payload in [&b""[..], b"x", b"hello world", &[7u8; 1000]] {
            let mut framed = vec![0xAAu8; FRAME_OVERHEAD];
            framed.extend_from_slice(payload);
            seal_frame(&mut framed);
            assert_eq!(framed, frame(payload));
        }
    }

    #[test]
    fn frame_into_slot_pads_and_roundtrips() {
        let framed = frame_into_slot(b"abc", 64);
        assert_eq!(framed.len(), 64);
        assert_eq!(unframe(&framed).unwrap(), b"abc");
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn frame_into_slot_rejects_a_payload_too_big_for_the_slot() {
        frame_into_slot(&[7u8; 60], 64);
    }

    #[test]
    fn unframe_rejects_zeros_and_truncation() {
        // An unwritten (all-zero) block must not decode.
        assert!(matches!(unframe(&[0u8; 64]), Err(CodecError::Invalid(_))));
        // Too short for a header.
        assert!(matches!(
            unframe(&[1, 2, 3]),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // Length field promising more than the buffer holds.
        let mut framed = frame(b"hello");
        framed.truncate(FRAME_OVERHEAD + 2);
        assert!(matches!(
            unframe(&framed),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn unframe_detects_payload_corruption() {
        let mut framed = frame_into_slot(b"some node image", 64);
        framed[FRAME_OVERHEAD + 3] ^= 0x40; // single bit flip in the payload
        assert!(matches!(
            unframe(&framed),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unframe_detects_header_corruption() {
        let mut framed = frame(b"some node image");
        framed[5] ^= 0x01; // corrupt the length field
        assert!(unframe(&framed).is_err());
        let mut framed = frame(b"some node image");
        framed[8] = 99; // corrupt the version byte
        assert!(matches!(unframe(&framed), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn frame_payload_checks_the_header_but_not_the_crc() {
        let mut framed = frame_into_slot(b"payload", 64);
        framed[FRAME_OVERHEAD] ^= 0x01;
        assert_eq!(frame_payload(&framed).unwrap(), b"qayload");
        assert!(unframe(&framed).is_err());
        assert!(matches!(
            frame_payload(&[0u8; 64]),
            Err(CodecError::Invalid(_))
        ));
        framed[4] = 200; // a length past the buffer
        assert!(matches!(
            frame_payload(&framed),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn unframe_detects_torn_prefix() {
        // A torn write persists only a prefix of the frame; the tail keeps
        // whatever was there before (zeros on a fresh device).
        let framed = frame(&[7u8; 100]);
        let mut torn = vec![0u8; framed.len()];
        torn[..50].copy_from_slice(&framed[..50]);
        assert!(unframe(&torn).is_err());
    }
}
