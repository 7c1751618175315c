//! Shared little-endian byte codec for every hand-rolled binary format
//! in the workspace (checkpoint `.mfpa` files, compiled-model `.mfpac`
//! artifacts, the `mfpa-lint --cache` file).
//!
//! Before this crate existed, `core::checkpoint` and `ml::compile`
//! each carried a private copy of the same writer/reader/checksum trio.
//! Centralizing them does two jobs:
//!
//! * **one truncation-safe implementation** — every read is
//!   bounds-checked and reports the failing offset instead of
//!   panicking, so arbitrarily corrupted input degrades to a
//!   structured error ("refuse, don't corrupt");
//! * **a canonical vocabulary for static analysis** — `mfpa-lint`'s
//!   d11 codec-symmetry rule recognizes exactly the method names
//!   defined here (`u8`/`u32`/`u64`/`i64`/`f64`/`counter`/`flag` and
//!   the reader-side `len`) when it checks that an encoder's write
//!   sequence mirrors its decoder's read sequence.
//!
//! Checksum framing lives here too ([`seal`]/[`unseal`]): a 64-bit
//! footer is appended and verified *outside* the field sequence, so
//! encoders and decoders stay textually symmetric for d11.
//!
//! The footer is a word-wise checksum, not a byte-serial hash, so
//! sealing a multi-megabyte checkpoint runs at memory bandwidth rather
//! than at one multiply per byte. The payload is read as little-endian
//! 64-bit words (the last one zero-padded); word `i` feeds lane
//! `i mod 4`, so a 32-byte stripe advances four independent lanes at
//! once. Every lane update, the payload-length step and the final fold
//! are the same FNV-style step
//! `step(h, w) = ((h ^ w) * P).rotate_left(R)` with an odd `P`. For a
//! fixed `w` the step is a bijection of `h` (xor, multiplication by an
//! odd number mod 2^64 and rotation are each invertible), and for a
//! fixed `h` it is a bijection of `w`. So a change to any single word
//! changes its lane's state at that step, every later step of the lane
//! preserves the difference, and the fold — which feeds each lane in
//! as the word of a step — carries it into the footer: any single
//! changed word, and hence any single flipped bit, is refused. The
//! length step separates payloads that differ only by trailing zero
//! bytes.
//!
//! [`fnv1a64`] is the byte-serial FNV-1a-64 content hash; it is kept
//! for content keys (lint cache entries, score digests), not framing.
//!
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns (`f64::to_bits`) so round trips are exact.

/// FNV-1a 64-bit over `data`.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Rotation of the seal step: moves the well-mixed high half of the
/// product down so the next multiply spreads it upward again.
const SEAL_ROTATION: u32 = 31;
/// Bytes per stripe: one 64-bit word for each of the four lanes.
const STRIPE: usize = 32;

/// One seal step; a bijection of `h` for fixed `w` and of `w` for
/// fixed `h`.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(SEAL_ROTATION)
}

/// The [`seal`] footer over `payload` (see the crate docs).
fn seal_checksum(payload: &[u8]) -> u64 {
    let mut lanes = [0, 1, 2, 3].map(|i| step(FNV_OFFSET, i));
    let (stripes, tail) = payload.as_chunks::<STRIPE>();
    for stripe in stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, bytes) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut word = [0u8; 8];
        word.iter_mut().zip(bytes).for_each(|(w, &b)| *w = b);
        *lane = step(*lane, u64::from_le_bytes(word));
    }
    lanes
        .into_iter()
        .fold(step(FNV_OFFSET, payload.len() as u64), step)
}

/// Append the 64-bit checksum footer over `payload` and return the
/// sealed buffer. The inverse of [`unseal`]. Reserve 8 bytes of spare
/// capacity in `payload` to seal without a reallocation.
#[must_use]
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let checksum = seal_checksum(&payload);
    payload.extend_from_slice(&checksum.to_le_bytes());
    payload
}

/// Verify the trailing checksum footer of `data` and return the
/// payload with the footer stripped. Errors describe the failure
/// (too short / checksum mismatch) without panicking.
pub fn unseal(data: &[u8]) -> Result<&[u8], String> {
    if data.len() < 8 {
        return Err(format!(
            "{} bytes is too short to hold a checksum",
            data.len()
        ));
    }
    let (payload, footer) = data.split_at(data.len() - 8);
    let footer: [u8; 8] = footer
        .try_into()
        .map_err(|_| "checksum footer is not 8 bytes".to_string())?;
    let stored = u64::from_le_bytes(footer);
    let actual = seal_checksum(payload);
    if stored != actual {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        ));
    }
    Ok(payload)
}

/// Little-endian field writer. Each method appends one field; the
/// method set is the canonical write vocabulary d11 pairs against
/// [`ByteReader`]'s read vocabulary.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    #[inline]
    pub fn counter(&mut self, v: usize) {
        self.u64(v as u64);
    }
    #[inline]
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Bytes written so far.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish the payload without a checksum footer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Finish the payload and append the checksum footer ([`seal`]).
    #[must_use]
    pub fn into_sealed(self) -> Vec<u8> {
        seal(self.buf)
    }
}

/// Truncation-safe little-endian field reader: every read is
/// bounds-checked and reports the failing offset instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Current offset, for error reporting by callers.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| format!("truncated at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        let b = self.take(1)?;
        b.first()
            .copied()
            .ok_or_else(|| format!("truncated at offset {}", self.pos))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| format!("truncated at offset {}", self.pos))?;
        Ok(u32::from_le_bytes(b))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| format!("truncated at offset {}", self.pos))?;
        Ok(u64::from_le_bytes(b))
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(self.u64()? as i64)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    #[inline]
    pub fn counter(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("counter {v} overflows usize"))
    }

    #[inline]
    pub fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid flag byte {other}")),
        }
    }

    /// A length prefix for a collection about to be decoded; bounded by
    /// the bytes actually remaining so a corrupted length cannot drive
    /// a huge allocation.
    #[inline]
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.counter()?;
        let remaining = self.data.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(format!(
                "length {n} exceeds the {remaining} bytes remaining"
            ));
        }
        Ok(n)
    }

    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.counter(123_456);
        w.flag(true);
        w.flag(false);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 7));
        assert_eq!(r.i64(), Ok(-42));
        assert_eq!(
            r.f64().map(f64::to_bits),
            Ok(std::f64::consts::PI.to_bits())
        );
        assert_eq!(r.counter(), Ok(123_456));
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.flag(), Ok(false));
        assert!(r.done());
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let mut w = ByteWriter::new();
        w.u32(7);
        w.f64(1.5);
        w.counter(3);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut saw_err = false;
            for _ in 0..4 {
                if r.u32().is_err() || r.f64().is_err() || r.counter().is_err() {
                    saw_err = true;
                    break;
                }
            }
            assert!(saw_err, "truncation at {cut} went unnoticed");
        }
    }

    #[test]
    fn seal_unseal_roundtrip_and_reject() {
        let payload = b"field sequence".to_vec();
        let sealed = seal(payload.clone());
        assert_eq!(unseal(&sealed), Ok(payload.as_slice()));
        assert!(unseal(&sealed[..7]).is_err(), "short input must be refused");
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(unseal(&bad).is_err(), "bit flip {bit} went unnoticed");
        }
    }

    /// Five full stripes plus a 13-byte ragged tail, so both the
    /// stripe loop and the zero-padded tail words are exercised.
    fn striped_payload() -> Vec<u8> {
        (0..5 * STRIPE + 13).map(|i| (i * 37 + 11) as u8).collect()
    }

    /// The checksum restated word by word: word `i` of the zero-padded
    /// payload feeds lane `i mod 4`; the length step seeds the fold.
    fn reference_checksum(payload: &[u8]) -> u64 {
        let mut lanes = [0, 1, 2, 3].map(|i| step(FNV_OFFSET, i));
        for (i, bytes) in payload.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word.iter_mut().zip(bytes).for_each(|(w, &b)| *w = b);
            lanes[i % 4] = step(lanes[i % 4], u64::from_le_bytes(word));
        }
        let mut h = step(FNV_OFFSET, payload.len() as u64);
        for lane in lanes {
            h = step(h, lane);
        }
        h
    }

    #[test]
    fn checksum_matches_the_word_by_word_definition() {
        let payload = striped_payload();
        for len in 0..=payload.len() {
            assert_eq!(
                seal_checksum(&payload[..len]),
                reference_checksum(&payload[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn checksum_known_answers_are_pinned() {
        // Any change to these values changes the on-disk format of
        // every sealed file: bump the checkpoint and .mfpac versions.
        assert_eq!(seal_checksum(b""), 0x6558_cbf3_62d8_d28c);
        assert_eq!(seal_checksum(&striped_payload()), 0xc929_fbcf_65da_4354);
    }

    #[test]
    fn every_bit_flip_across_stripes_and_tail_is_refused() {
        let sealed = seal(striped_payload());
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(unseal(&bad).is_err(), "bit flip {bit} went unnoticed");
        }
    }

    #[test]
    fn every_truncation_of_a_striped_payload_is_refused() {
        let payload = striped_payload();
        let sealed = seal(payload.clone());
        assert_eq!(unseal(&sealed), Ok(payload.as_slice()));
        for cut in 0..sealed.len() {
            assert!(
                unseal(&sealed[..cut]).is_err(),
                "truncation to {cut} accepted"
            );
        }
    }

    #[test]
    fn swapping_two_words_is_refused() {
        let sealed = seal(striped_payload());
        let n_words = (sealed.len() - 8) / 8;
        for i in 0..n_words {
            for j in i + 1..n_words {
                let mut bad = sealed.clone();
                let (a, b) = bad.split_at_mut(j * 8);
                a[i * 8..i * 8 + 8].swap_with_slice(&mut b[..8]);
                if bad == sealed {
                    continue;
                }
                assert!(unseal(&bad).is_err(), "swap of words {i} and {j} accepted");
            }
        }
    }

    #[test]
    fn a_byte_serial_fnv_footer_is_refused() {
        let mut old = striped_payload();
        let footer = fnv1a64(&old);
        old.extend_from_slice(&footer.to_le_bytes());
        assert!(unseal(&old).is_err());
    }

    #[test]
    fn len_prefix_rejects_lengths_larger_than_remaining() {
        let mut w = ByteWriter::new();
        w.counter(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(8).is_err());
    }
}
