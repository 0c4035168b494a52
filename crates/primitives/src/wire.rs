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
//!
//! # One declaration per wire type
//!
//! A type whose encoding is its fields in order is declared once, with
//! [`wire!`](crate::wire!), which emits the type together with its
//! [`Encode`] and [`Decode`] impls: a field's order, width and length rule
//! are stated once for both directions. A struct encodes its fields in
//! declaration order. An enum encodes its variant's tag byte, written
//! explicitly as `Variant = tag`, then the variant's fields; decoding any
//! other tag is [`WireError::InvalidTag`]. A retired tag stays as a comment
//! among the variants, so it is never reused.
//!
//! A field's kind follows its type:
//!
//! | Declaration | Encoding |
//! | --- | --- |
//! | `name: T` | `T`'s own [`Encode`]/[`Decode`] |
//! | `name: Vec<T> as seq` | `u32` count, then each item |
//! | `name: Vec<T> as seq(MAX)` | the same; a count above `MAX` is refused |
//! | `name: Vec<Vec<T>> as seqs(MAX)` | `u32` count (at most `MAX`), then each inner `seq` |
//!
//! Plain fields cover big-endian `u16`/`u32`/`u64`, `i64` as two's-complement
//! `u64`, `bool` as one byte 0 or 1, fixed arrays, `u32`-prefixed `Vec<u8>`
//! and `String` (decoded lossily: every string on the wire is advisory
//! text), pairs, `Option<T>` (0x00, or 0x01 then the value) and every
//! declared type. Types whose encoding is not field by field keep
//! hand-written impls: packed curve points and signatures, proofs, and
//! the version-checked envelope.
//!
//! # Counted sequences
//!
//! Every counted sequence is read by [`Reader::get_seq_max`]; the other
//! sequence readers call it. Before reading an item it refuses, with
//! [`WireError::LengthOutOfRange`], a count above its cap or above the
//! bytes left (every item takes at least one byte), and it reserves no
//! more items than the rest of the input could fill: the count a peer
//! declares never sizes an allocation by itself.

use crate::error::WireError;

/// Maximum length accepted for a single variable-length field (64 MiB).
///
/// This bounds allocation on attacker-supplied input; the largest honest
/// object in the system (a full Bloom-filter-encryption public key) is
/// comfortably below it.
pub const MAX_FIELD_LEN: usize = 64 << 20;

/// Incremental encoder over a growable byte buffer.
///
/// [`Encode::encoded_len`] runs the same encoder through a length-only
/// writer, which counts the bytes it is handed and keeps none of them.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
    /// `Some(count)` for a length-only writer.
    counted: Option<usize>,
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
            counted: None,
        }
    }

    /// A writer that only counts: its `len` is what an ordinary writer
    /// would hold, and its bytes are always empty.
    fn length_only() -> Self {
        Self {
            buf: Vec::new(),
            counted: Some(0),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_fixed(&[v]);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_fixed(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_fixed(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_fixed(&v.to_be_bytes());
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    pub fn put_fixed(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            Some(count) => *count += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
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
        self.put_seq_with(items, |w, item| item.encode(w));
    }

    /// Appends a `u32` item count, then each item written by `item`.
    pub fn put_seq_with<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        debug_assert!(items.len() <= u32::MAX as usize);
        self.put_u32(items.len() as u32);
        for x in items {
            item(self, x);
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

    /// Reads a `u32`-prefixed sequence of decodable items, bounded only
    /// by the input.
    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>, WireError> {
        self.get_seq_max(usize::MAX, T::decode)
    }

    /// Reads a `u32`-counted sequence of at most `max` items, each read by
    /// `item`: the one counted-sequence reader (see the
    /// [module docs](self#counted-sequences)).
    pub fn get_seq_max<T>(
        &mut self,
        max: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.get_u32()? as usize;
        // Each item consumes at least one byte; this caps the count.
        if len > max || len > self.remaining() {
            return Err(WireError::LengthOutOfRange);
        }
        // The declared count is the peer's claim: reserve only as many
        // items as the bytes left in the input would fill in memory, so
        // the reservation is bounded by the input. Growth past that is
        // paid for by items that actually decode.
        let fits = self.remaining() / core::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
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

    /// Length of the canonical encoding in bytes, counted without
    /// building it.
    fn encoded_len(&self) -> usize {
        let mut w = Writer::length_only();
        self.encode(&mut w);
        w.len()
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

/// Declares a wire type once: emits the struct or enum as written, minus
/// its field kinds and tags, together with its [`Encode`] and [`Decode`]
/// impls. The [module docs](mod@crate::wire) list the field kinds.
///
/// ```
/// safetypin_primitives::wire! {
///     /// A request.
///     #[derive(Debug, PartialEq)]
///     pub enum Request {
///         /// Fetch one value.
///         Get { key: Vec<u8>, fresh: bool } = 1,
///         /// Fetch up to 16 values.
///         Many(Vec<u64> as seq(16)) = 2,
///         // 3 is retired: it must never be reused.
///         Ping = 4,
///     }
/// }
///
/// use safetypin_primitives::wire::{Decode, Encode};
/// let request = Request::Many(vec![7]);
/// assert_eq!(request.to_bytes(), [2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7]);
/// assert_eq!(Request::from_bytes(&request.to_bytes()), Ok(request));
/// assert!(Request::from_bytes(&[3]).is_err());
/// ```
#[macro_export]
macro_rules! wire {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $fty:ty $(as $kind:ident $(($max:expr))?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                $( $crate::__wire_put!(w, &self.$field $(, $kind)?); )*
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::error::WireError> {
                ::core::result::Result::Ok(Self {
                    $( $field: $crate::__wire_get!(r $(, $kind $(($max))?)?), )*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($fvis:vis $fty:ty);
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $fty);

        impl $crate::wire::Encode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                $crate::wire::Encode::encode(&self.0, w);
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::error::WireError> {
                ::core::result::Result::Ok(Self($crate::wire::Decode::decode(r)?))
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($tty:ty $(as $tkind:ident $(($tmax:expr))?)?))?
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $fty:ty $(as $kind:ident $(($max:expr))?)?
                    ),* $(,)?
                })?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($tty))? $({ $( $(#[$fmeta])* $field: $fty, )* })?,
            )*
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $(
                        Self::$variant
                        $(($crate::__wire_bind!(v, $tty)))?
                        $({ $($field),* })? => {
                            w.put_u8($tag);
                            $( $crate::__wire_put!(w, v $(, $tkind)?); )?
                            $( $( $crate::__wire_put!(w, $field $(, $kind)?); )* )?
                        }
                    )*
                }
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::error::WireError> {
                match r.get_u8()? {
                    $(
                        $tag => ::core::result::Result::Ok(Self::$variant
                            $(($crate::__wire_get!(r $(, $tkind $(($tmax))?)?)))?
                            $({ $( $field: $crate::__wire_get!(r $(, $kind $(($max))?)?), )* })?),
                    )*
                    t => ::core::result::Result::Err($crate::error::WireError::InvalidTag(t)),
                }
            }
        }
    };
}

/// The binding a tuple variant's field gets in [`wire!`]'s encoder; the
/// type only places the binding inside the variant's repetition.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_bind {
    ($v:ident, $ty:ty) => {
        $v
    };
}

/// Writes one [`wire!`] field of the given kind.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($w:ident, $v:expr) => {
        $crate::wire::Encode::encode($v, $w)
    };
    ($w:ident, $v:expr, seq) => {
        $w.put_seq($v)
    };
    ($w:ident, $v:expr, seqs) => {
        $w.put_seq_with($v, |w, inner| w.put_seq(inner))
    };
}

/// Reads one [`wire!`] field of the given kind.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get {
    ($r:ident) => {
        $crate::wire::Decode::decode($r)?
    };
    ($r:ident, seq) => {
        $r.get_seq()?
    };
    ($r:ident, seq($max:expr)) => {
        $r.get_seq_max($max, $crate::wire::Decode::decode)?
    };
    ($r:ident, seqs($max:expr)) => {
        $r.get_seq_max($max, $crate::wire::Reader::get_seq)?
    };
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

/// Advisory text: decoding repairs non-UTF-8 bytes lossily rather than
/// refusing them, so a mangled string never masks the fields around it.
impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(String::from_utf8_lossy(r.get_bytes()?).into_owned())
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

/// Two's-complement, as a `u64`.
impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.get_u64()? as i64)
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

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u16()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_bool()
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

/// 0x00 for `None`, 0x01 followed by the value.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(inner) => {
                w.put_u8(1);
                inner.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
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
        Some(vec![9u8]).encode(&mut w);
        None::<Vec<u8>>.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [1, 0, 0, 0, 1, 9, 0]);
        let mut r = Reader::new(&bytes);
        assert_eq!(Option::<Vec<u8>>::decode(&mut r).unwrap(), Some(vec![9u8]));
        assert_eq!(Option::<Vec<u8>>::decode(&mut r).unwrap(), None);
        assert_eq!(
            Option::<Vec<u8>>::decode(&mut Reader::new(&[2])).unwrap_err(),
            WireError::InvalidTag(2)
        );
    }

    #[test]
    fn seq_count_bounded_by_cap() {
        let mut w = Writer::new();
        w.put_seq(&[1u64, 2, 3]);
        let bytes = w.into_bytes();
        let read = |max| Reader::new(&bytes).get_seq_max(max, u64::decode);
        assert_eq!(read(2).unwrap_err(), WireError::LengthOutOfRange);
        assert_eq!(read(3).unwrap(), [1, 2, 3]);
    }

    #[test]
    fn scalars_keep_their_widths() {
        let mut w = Writer::new();
        0x1234u16.encode(&mut w);
        (-2i64).encode(&mut w);
        true.encode(&mut w);
        "h\u{e9}".to_string().encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2 + 8 + 1 + 4 + 3);
        let mut r = Reader::new(&bytes);
        assert_eq!(u16::decode(&mut r).unwrap(), 0x1234);
        assert_eq!(i64::decode(&mut r).unwrap(), -2);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(String::decode(&mut r).unwrap(), "h\u{e9}");
        // Text decodes lossily: a non-UTF-8 byte is replaced, not refused.
        let junk = [0, 0, 0, 2, b'a', 0xFF];
        assert_eq!(String::from_bytes(&junk).unwrap(), "a\u{fffd}");
    }
}
