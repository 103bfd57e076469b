//! Compact binary codec for on-disk node images.
//!
//! Little-endian fixed-width integers and length-prefixed byte strings, with
//! fully checked decoding: a truncated or corrupt image produces a
//! [`CodecError`], never a panic or garbage data. Node images are sorted
//! runs of records, read and searched in place as a [`Run`]. The format is
//! deliberately boring — the interesting parts of the paper are in *when*
//! bytes move, not how they are arranged.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};

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

    /// Write a [`Pair`]: the pair encoder.
    pub fn put_pair(&mut self, k: &[u8], v: &[u8]) {
        self.put_bytes(k);
        self.put_bytes(v);
    }

    /// Write `tag`, the `u32` count of `pairs`, and the pairs: a leaf's or
    /// subleaf's payload, [`pairs_size`] bytes once framed.
    pub fn put_pairs(&mut self, tag: u8, pairs: &[(Vec<u8>, Vec<u8>)]) {
        self.put_u8(tag);
        self.put_u32(u32::try_from(pairs.len()).expect("more than u32::MAX pairs"));
        for (k, v) in pairs {
            self.put_pair(k, v);
        }
    }

    /// Write an [`Entry`]: `None` is a tombstone.
    pub fn put_entry(&mut self, k: &[u8], v: Option<&[u8]>) {
        self.put_bytes(k);
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_bytes(v);
            }
            None => self.put_u8(0),
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

/// Current frame format version.
pub const FRAME_VERSION: u8 = 1;

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

/// One record's edit of an encoded payload whose records end at `end`:
/// bytes `lo..hi` give way to the new record, and the `u32` record count at
/// `count_at` becomes `count`. `lo == hi` inserts; an empty record removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splice {
    /// Offset of the little-endian `u32` count, before `lo`.
    pub count_at: usize,
    /// The count after the edit.
    pub count: u32,
    /// Start of the replaced bytes.
    pub lo: usize,
    /// End of the replaced bytes.
    pub hi: usize,
    /// End of the payload's records: the bytes the edit keeps run to here.
    pub end: usize,
}

impl Splice {
    /// Payload length after the edit, with a `record_len`-byte record.
    pub fn edited_len(&self, record_len: usize) -> usize {
        self.end - (self.hi - self.lo) + record_len
    }
}

/// Apply `edit`, with the new `record`, to the framed `image` in place:
/// move the payload's tail `hi..end` to just after the record, write the
/// record, zero the bytes a shrinking edit vacates, patch the count and
/// reseal the frame with one checksum pass. The image then holds the bytes
/// [`frame_into_slot`] writes for the edited payload at `image.len()`,
/// padding aside: bytes past both the old and the new frame are left as
/// they were (reads ignore padding).
///
/// Panics if the edit is out of order (`count_at + 4 <= lo <= hi <= end`
/// must hold), `end` lies past the image's framed payload, or the edited
/// frame exceeds the image, as [`frame_into_slot`] does: callers locate the
/// edit in a parsed payload and size the result first.
pub fn splice_in_place(image: &mut [u8], edit: &Splice, record: &[u8]) {
    let Splice {
        count_at,
        count,
        lo,
        hi,
        end,
    } = *edit;
    let framed_len = image.get(4..8).map_or(0, |b| {
        u32::from_le_bytes(b.try_into().expect("slice of 4")) as usize
    });
    assert!(
        count_at + 4 <= lo && lo <= hi && hi <= end && end <= framed_len,
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
    body.copy_within(hi..end, lo + record.len());
    body[lo..lo + record.len()].copy_from_slice(record);
    if len < framed_len {
        body[len..framed_len].fill(0);
    }
    body[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    seal_frame(&mut image[..FRAME_OVERHEAD + len]);
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
/// Bytes a pair spends beyond its key and value: two `u32` length prefixes.
pub const LEAF_ENTRY_OVERHEAD: usize = 8;

/// A key and its value, each a length-prefixed byte string: the records of
/// leaves and subleaves.
pub type Pair<'a> = (&'a [u8], &'a [u8]);

/// A key, then a one-byte tag and the value (tag 1) or nothing (tag 0, a
/// tombstone): the records of an SSTable block.
pub type Entry<'a> = (&'a [u8], Option<&'a [u8]>);

/// One kind of record, read in place from an encoded run.
pub trait Record<'a>: Copy {
    /// An owned copy of a record.
    type Owned;

    /// Read one record, checking it, and leave `r` just past it: the
    /// kind's only parser.
    fn read(r: &mut Reader<'a>) -> Result<Self, CodecError>;

    /// An owned copy.
    fn owned(self) -> Self::Owned;
}

/// A byte string: a pivot or routing key.
impl<'a> Record<'a> for &'a [u8] {
    type Owned = Vec<u8>;

    fn read(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        r.get_bytes()
    }

    fn owned(self) -> Vec<u8> {
        self.to_vec()
    }
}

impl<'a> Record<'a> for Pair<'a> {
    type Owned = (Vec<u8>, Vec<u8>);

    fn read(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        Ok((r.get_bytes()?, r.get_bytes()?))
    }

    fn owned(self) -> (Vec<u8>, Vec<u8>) {
        (self.0.to_vec(), self.1.to_vec())
    }
}

impl<'a> Record<'a> for Entry<'a> {
    type Owned = (Vec<u8>, Option<Vec<u8>>);

    fn read(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let k = r.get_bytes()?;
        let v = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_bytes()?),
            _ => return Err(CodecError::Invalid("unknown entry tag")),
        };
        Ok((k, v))
    }

    fn owned(self) -> (Vec<u8>, Option<Vec<u8>>) {
        (self.0.to_vec(), self.1.map(<[u8]>::to_vec))
    }
}

/// A run with its `u32` record count in front: one message buffer of a
/// node.
impl<'a, R: Record<'a>> Record<'a> for Run<'a, R> {
    type Owned = Vec<R::Owned>;

    fn read(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let n = r.get_u32()? as usize;
        Run::read_n(r, n)
    }

    fn owned(self) -> Vec<R::Owned> {
        self.to_vec()
    }
}

/// `n` consecutive records of one kind, checked once when read and then
/// walked and searched in place. A run is sorted by its records' keys, so
/// [`Run::seek`], the one ordered search, finds where a key goes.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a, R> {
    n: usize,
    bytes: &'a [u8],
    kind: PhantomData<R>,
}

impl<'a, R: Record<'a>> Run<'a, R> {
    /// Take `n` records from `r`, checking each, and leave `r` just past
    /// them.
    pub fn read_n(r: &mut Reader<'a>, n: usize) -> Result<Self, CodecError> {
        let start = r.pos;
        for _ in 0..n {
            R::read(r)?;
        }
        Ok(Run {
            n,
            bytes: &r.buf[start..r.pos],
            kind: PhantomData,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes the records take encoded.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The records in order.
    pub fn iter(&self) -> impl Iterator<Item = R> + use<'a, R> {
        let mut r = Reader::new(self.bytes);
        // The run was checked when it was read, so no step can fail.
        (0..self.n).map_while(move |_| R::read(&mut r).ok())
    }

    /// The first record and the run after it.
    fn split_first(&self) -> Option<(R, Self)> {
        if self.n == 0 {
            return None;
        }
        let mut r = Reader::new(self.bytes);
        // The run was checked when it was read, so this cannot fail.
        let first = R::read(&mut r).ok()?;
        Some((first, self.tail(r.pos, self.n - 1)))
    }

    /// The ordered search: how many leading records `before` holds for, and
    /// the run from the first record it fails for. A linear scan; on a run
    /// where `before` holds for a prefix only (a bound on sorted keys),
    /// that is the prefix's length.
    pub fn seek(&self, mut before: impl FnMut(&R) -> bool) -> (usize, Self) {
        let mut r = Reader::new(self.bytes);
        for i in 0..self.n {
            let at = r.pos;
            // The run was checked when it was read, so this cannot fail.
            let Ok(record) = R::read(&mut r) else { break };
            if !before(&record) {
                return (i, self.tail(at, self.n - i));
            }
        }
        (self.n, self.tail(self.bytes.len(), 0))
    }

    /// The `n` last records, which start at byte `at`.
    fn tail(&self, at: usize, n: usize) -> Self {
        Run {
            n,
            bytes: &self.bytes[at..],
            kind: PhantomData,
        }
    }

    /// Owned copies of the records.
    pub fn to_vec(self) -> Vec<R::Owned> {
        self.iter().map(R::owned).collect()
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
        rest.iter()
            .next()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
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

    /// Where `key` sits among the encoded records: the byte range (from the
    /// first record's start) of the record holding `key` and `true`, or the
    /// empty range where such a record would go and `false`.
    pub fn locate(&self, key: &[u8]) -> (Range<usize>, bool) {
        let (_, rest) = self.seek(|(k, _)| *k < key);
        let at = self.encoded_len() - rest.encoded_len();
        match rest.split_first() {
            Some(((k, _), tail)) if k == key => (at..self.encoded_len() - tail.encoded_len(), true),
            _ => (at..at, false),
        }
    }
}

/// Encoded size of the pair `(k, v)`.
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

    #[test]
    fn splice_in_place_frames_the_edited_payload() {
        // [tag][count = 3][a][b][c]: replace, grow, insert before, insert
        // after, remove the middle record and shrink one.
        let payload = [9, 3, 0, 0, 0, b'a', b'b', b'c'];
        let splice = |lo, hi, count| Splice {
            count_at: 1,
            count,
            lo,
            hi,
            end: payload.len(),
        };
        let cases: [(Splice, &[u8], &[u8]); 6] = [
            (splice(6, 7, 3), b"X", &[9, 3, 0, 0, 0, b'a', b'X', b'c']),
            (
                splice(6, 7, 3),
                b"XY",
                &[9, 3, 0, 0, 0, b'a', b'X', b'Y', b'c'],
            ),
            (
                splice(5, 5, 4),
                b"Z",
                &[9, 4, 0, 0, 0, b'Z', b'a', b'b', b'c'],
            ),
            (
                splice(8, 8, 4),
                b"Z",
                &[9, 4, 0, 0, 0, b'a', b'b', b'c', b'Z'],
            ),
            (splice(6, 7, 2), b"", &[9, 2, 0, 0, 0, b'a', b'c']),
            (splice(5, 7, 3), b"Q", &[9, 3, 0, 0, 0, b'Q', b'c']),
        ];
        for (edit, record, edited) in cases {
            assert_eq!(edit.edited_len(record.len()), edited.len());
            let mut image = frame_into_slot(&payload, 64);
            splice_in_place(&mut image, &edit, record);
            assert_eq!(image, frame_into_slot(edited, 64), "{edit:?}");
        }
    }

    #[test]
    fn splice_in_place_drops_bytes_past_the_records_and_keeps_padding() {
        // The frame holds two stray bytes after the records' end; the edit
        // drops them (zeroing what it vacates) and leaves the padding past
        // the old frame as it found it.
        let mut image = frame_into_slot(&[9, 1, 0, 0, 0, b'a', 0xEE, 0xEE], 32);
        image[30] = 0x77;
        let edit = Splice {
            count_at: 1,
            count: 1,
            lo: 5,
            hi: 6,
            end: 6,
        };
        splice_in_place(&mut image, &edit, b"b");
        let mut want = frame_into_slot(&[9, 1, 0, 0, 0, b'b'], 32);
        want[30] = 0x77;
        assert_eq!(image, want);
        assert_eq!(unframe(&image).unwrap(), &[9, 1, 0, 0, 0, b'b']);
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn splice_in_place_rejects_a_result_too_big_for_the_slot() {
        let edit = Splice {
            count_at: 0,
            count: 2,
            lo: 4,
            hi: 4,
            end: 4,
        };
        let mut image = frame_into_slot(&[1, 0, 0, 0], FRAME_OVERHEAD + 5);
        splice_in_place(&mut image, &edit, b"xy");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn splice_in_place_rejects_a_count_inside_the_replaced_bytes() {
        let edit = Splice {
            count_at: 2,
            count: 2,
            lo: 4,
            hi: 4,
            end: 6,
        };
        let mut image = frame_into_slot(&[1, 0, 0, 0, 0, 0], 64);
        splice_in_place(&mut image, &edit, b"xy");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn splice_in_place_rejects_an_end_past_the_frame() {
        let edit = Splice {
            count_at: 0,
            count: 2,
            lo: 4,
            hi: 4,
            end: 9,
        };
        let mut image = frame_into_slot(&[1, 0, 0, 0, 0, 0], 64);
        splice_in_place(&mut image, &edit, b"xy");
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
