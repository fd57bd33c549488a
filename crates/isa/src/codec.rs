//! A tiny deterministic binary codec for simulator snapshots.
//!
//! The offline serde shim expands its derives to nothing, so checkpointing
//! cannot lean on `serde` for real byte-level serialization. This module
//! provides the hand-rolled alternative: an append-only [`Encoder`], a
//! bounds-checked [`Decoder`] whose every read returns a [`CodecError`]
//! instead of panicking on truncated input, and the FNV-1a-64 hash the
//! workspace already uses for image fingerprints, here reused as a snapshot
//! checksum.
//!
//! Layout rules (shared by every `encode_state`/`restore_state` pair in the
//! workspace):
//!
//! - all integers are little-endian fixed width; `usize` travels as `u64`;
//! - `f64` travels as its IEEE-754 bit pattern (`to_bits`/`from_bits`), so
//!   encode→decode is exactly identity, NaN payloads included;
//! - collections are prefixed by a `u64` length;
//! - `Option<T>` is a `bool` presence flag followed by the payload;
//! - map-like state (e.g. per-block thread counts) is emitted sorted by key
//!   so identical machine states always produce identical bytes.

use std::fmt;

/// Error produced when decoding malformed, truncated, or corrupt bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a fixed-width read could complete.
    UnexpectedEof {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag byte did not name any variant of the expected type.
    BadTag {
        /// Human-readable name of the type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A length prefix was implausibly large for the remaining input.
    BadLength {
        /// The decoded element count.
        len: u64,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A sparse run list held an empty run, a run starting before the
    /// end of its predecessor (unsorted or overlapping), or a run
    /// reaching past the container's capacity.
    BadRun {
        /// First element index of the offending run.
        start: u64,
        /// Element count of the offending run.
        len: u64,
        /// Capacity of the container being restored, in elements.
        capacity: usize,
    },
    /// A string section was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {remaining} remaining"
            ),
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::BadLength { len, remaining } => write!(
                f,
                "length prefix {len} exceeds remaining input ({remaining} bytes)"
            ),
            CodecError::BadRun {
                start,
                len,
                capacity,
            } => write!(
                f,
                "run of {len} elements at index {start} is empty, out of order, or past capacity {capacity}"
            ),
            CodecError::BadUtf8 => f.write_str("string section is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte-buffer writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte section.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed slice of `u32` words.
    pub fn put_u32_slice(&mut self, words: &[u32]) {
        self.put_usize(words.len());
        let start = self.buf.len();
        self.buf.resize(start + 4 * words.len(), 0);
        for (out, w) in self.buf[start..].chunks_exact_mut(4).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Appends a length-prefixed slice of `u64` values.
    pub fn put_u64_slice(&mut self, values: &[u64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u64(v);
        }
    }
}

/// Bounds-checked reader over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_finished(&self) -> bool {
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

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        Ok(self.take_u64()? as usize)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is a [`CodecError::BadTag`].
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag {
                what: "bool",
                tag: u64::from(t),
            }),
        }
    }

    /// Reads a length prefix, validating it against the remaining input
    /// assuming at least `min_elem_bytes` bytes per element.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.take_u64()?;
        let need = len.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.take_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed raw byte section.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.take_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed slice of `u32` words.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let len = self.take_len(4)?;
        (0..len).map(|_| self.take_u32()).collect()
    }

    /// Reads a length-prefixed slice of `u64` values.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.take_len(8)?;
        (0..len).map(|_| self.take_u64()).collect()
    }
}

/// FNV-1a 64-bit hash — the workspace's standard fingerprint function,
/// reused as the snapshot checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 3);
        e.put_usize(1234);
        e.put_f64(3.25);
        e.put_bool(true);
        e.put_str("warp");
        e.put_u32_slice(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.take_usize().unwrap(), 1234);
        assert_eq!(d.take_f64().unwrap(), 3.25);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_str().unwrap(), "warp");
        assert_eq!(d.take_u32_vec().unwrap(), vec![1, 2, 3]);
        assert!(d.is_finished());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut e = Encoder::new();
        e.put_u64(42);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..5]);
        assert!(matches!(
            d.take_u64(),
            Err(CodecError::UnexpectedEof { needed: 8, .. })
        ));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.take_u32_vec(),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.take_bool(), Err(CodecError::BadTag { .. })));
    }

    #[test]
    fn nan_bits_survive_roundtrip() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut e = Encoder::new();
        e.put_f64(weird);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    proptest! {
        #[test]
        fn u64_roundtrip(v: u64) {
            let mut e = Encoder::new();
            e.put_u64(v);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_u64().unwrap(), v);
        }

        #[test]
        fn words_roundtrip(words in proptest::collection::vec(any::<u32>(), 1..64)) {
            let mut e = Encoder::new();
            e.put_u32_slice(&words);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_u32_vec().unwrap(), words.clone());
            prop_assert!(d.is_finished());
        }
    }
}
