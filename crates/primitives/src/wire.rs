//! Length-prefixed binary wire format.
//!
//! Every ciphertext, proof, and protocol message in the workspace serializes
//! through this codec, so the byte counts reported by the benchmark harness
//! (recovery-ciphertext size, proof bandwidth, key-download size) reflect a
//! real, canonical encoding rather than in-memory layouts.
//!
//! The format is deliberately simple: big-endian fixed-width integers,
//! `u32`-prefixed variable-length byte strings, and `u32`-prefixed
//! sequences. Decoding is strict — every length is bounds-checked against
//! the remaining input and [`Decode::from_bytes`] rejects trailing bytes.

use crate::error::WireError;

/// Maximum length accepted for a single variable-length field (64 MiB).
///
/// This bounds allocation on attacker-supplied input; the largest honest
/// object in the system (a full Bloom-filter-encryption public key) is
/// comfortably below it.
pub const MAX_FIELD_LEN: usize = 64 << 20;

/// Incremental encoder over a growable byte buffer.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    pub fn put_fixed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= u32::MAX as usize);
        self.put_u32(bytes.len() as u32);
        self.put_fixed(bytes);
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u32`-prefixed sequence of encodable items.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        debug_assert!(items.len() <= u32::MAX as usize);
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }

    /// Appends an `Option`: 0x00 for `None`, 0x01 followed by the value.
    pub fn put_option<T: Encode>(&mut self, v: &Option<T>) {
        match v {
            None => self.put_u8(0),
            Some(inner) => {
                self.put_u8(1);
                inner.encode(self);
            }
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Returns true when the whole input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_fixed(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads exactly `N` raw bytes into an array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut arr = [0u8; N];
        arr.copy_from_slice(self.take(N)?);
        Ok(arr)
    }

    /// Reads a `u32`-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN || len > self.remaining() {
            return Err(WireError::LengthOutOfRange);
        }
        self.take(len)
    }

    /// Reads a boolean encoded as one byte; rejects values other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::InvalidTag(t)),
        }
    }

    /// Reads a `u32`-prefixed sequence of decodable items.
    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>, WireError> {
        let len = self.get_u32()? as usize;
        // Each item consumes at least one byte; this caps the count.
        if len > self.remaining() {
            return Err(WireError::LengthOutOfRange);
        }
        // The declared count is the peer's claim: reserve only as many
        // items as the bytes left in the input would fill in memory, so
        // the reservation is bounded by the input. Growth past that is
        // paid for by items that actually decode.
        let fits = self.remaining() / core::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Reads an `Option` encoded by [`Writer::put_option`].
    pub fn get_option<T: Decode>(&mut self) -> Result<Option<T>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Encodes `self` into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Length of the canonical encoding in bytes.
    fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }
}

/// Types decodable from the canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes a value that must occupy the entire input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.get_bytes()?.to_vec())
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_array::<N>()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers() {
        let mut w = Writer::new();
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0102_0304_0506_0708);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0102_0304_0506_0708);
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_bytes_and_seq() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        w.put_seq(&[vec![1u8, 2], vec![3u8]]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        let seq: Vec<Vec<u8>> = r.get_seq().unwrap();
        assert_eq!(seq, vec![vec![1u8, 2], vec![3u8]]);
    }

    #[test]
    fn eof_detected() {
        let mut r = Reader::new(&[0x00, 0x01]);
        assert_eq!(r.get_u32().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn length_prefix_bounded_by_input() {
        // Claims 1000 bytes but provides none.
        let mut w = Writer::new();
        w.put_u32(1000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap_err(), WireError::LengthOutOfRange);
    }

    #[test]
    fn seq_length_bounded_by_input() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.get_seq::<Vec<u8>>().unwrap_err(),
            WireError::LengthOutOfRange
        );
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut w = Writer::new();
        w.put_bytes(b"x");
        w.put_u8(0);
        let bytes = w.into_bytes();
        assert_eq!(
            <Vec<u8>>::from_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes
        );
    }

    #[test]
    fn bool_rejects_junk() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.get_bool().unwrap_err(), WireError::InvalidTag(2));
    }

    #[test]
    fn option_roundtrip() {
        let mut w = Writer::new();
        w.put_option(&Some(vec![9u8]));
        w.put_option::<Vec<u8>>(&None);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_option::<Vec<u8>>().unwrap(), Some(vec![9u8]));
        assert_eq!(r.get_option::<Vec<u8>>().unwrap(), None);
    }
}
