//! Hand-rolled versioned binary codec for simulator snapshots.
//!
//! A snapshot image is small and explicit (no external dependencies; the
//! build is offline): the magic string, the format version, a body of
//! fixed-width little-endian values written through [`ByteWriter`], and
//! a checksum of every byte before it. [`ByteReader::open`] checks all
//! three before a single value is read, so a truncated, bit-flipped or
//! version-skewed image comes back as a [`CodecError`], never as a
//! misparse.
//!
//! The top-level `SNAPSHOT_MAGIC` / `SNAPSHOT_VERSION` pair gates
//! compatibility: readers reject images of any other version, older or
//! newer, with [`CodecError::UnsupportedVersion`].
//!
//! Above the primitives sits [`Codec`], a value with one image — `put`
//! appends it, `get` reads it back — implemented here for the primitives,
//! `String` and `Option`, and for every plain-data type by one
//! [`codec_struct!`](crate::codec_struct) or
//! [`codec_enum!`](crate::codec_enum) field list beside its definition,
//! so the two directions cannot disagree.
//!
//! Encodings: integers little-endian at their fixed width (`usize` as
//! `u64`), `bool` and enum tags as one byte, `Option` as a presence byte
//! plus the value, strings behind a checked `u32` length.

use core::error::Error;
use core::fmt;
use core::hash::Hasher as _;

use crate::hash::FxHasher;

/// Magic bytes opening every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"NIMSNAP\0";

/// The top-level snapshot format version: the only one read or written.
pub(crate) const SNAPSHOT_VERSION: u16 = 4;

/// Bytes of the trailing checksum.
const CHECKSUM_BYTES: usize = 8;

/// Error produced while decoding snapshot bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the expected bytes.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The file does not start with `SNAPSHOT_MAGIC`.
    BadMagic,
    /// The file was written in another format version.
    UnsupportedVersion {
        /// Version found in the input.
        found: u16,
        /// The version this reader supports.
        supported: u16,
    },
    /// The bytes are inconsistent (checksum mismatch, bad tag, trailing
    /// bytes, ...).
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} is not the supported version {supported}"
                )
            }
            CodecError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl Error for CodecError {}

/// The checksum an image carries: FxHash of the bytes before it. Each
/// step of the mix is a bijection of the running state, so any change
/// to one input word — every single-bit flip among them — changes it.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Append-only buffer of little-endian encoded values.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A writer that has already written the snapshot magic and format
    /// version: the start of an image [`ByteWriter::seal`] finishes.
    pub fn image() -> Self {
        let mut w = Self::new();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w
    }

    /// Consumes the writer, returning the encoded bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, returning its bytes followed by their
    /// checksum — what [`ByteReader::open`] verifies.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.u64(sum);
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64`.
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a UTF-8 string behind its `u32` length.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than `u32::MAX` bytes — no name the
    /// simulator records comes near it.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over encoded snapshot bytes.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Checks a sealed image's magic, version and checksum, and returns
    /// a reader over its body.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] if the magic does not match,
    /// [`CodecError::UnsupportedVersion`] if the image's version is not
    /// `SNAPSHOT_VERSION`, [`CodecError::UnexpectedEof`] if it is too
    /// short to hold a checksum, and [`CodecError::Corrupt`] if the
    /// checksum disagrees with the bytes.
    pub fn open(image: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Self::new(image);
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let Some(end) = image
            .len()
            .checked_sub(CHECKSUM_BYTES)
            .filter(|&e| e >= r.pos)
        else {
            return Err(CodecError::UnexpectedEof {
                needed: CHECKSUM_BYTES,
                remaining: r.remaining(),
            });
        };
        let (body, sum) = image.split_at(end);
        if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != checksum(body) {
            return Err(CodecError::Corrupt("checksum mismatch"));
        }
        Ok(Self {
            buf: body,
            pos: r.pos,
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is exhausted (as for
    /// all the primitive readers below).
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on a non-boolean byte.
    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("non-boolean byte")),
        }
    }

    /// Reads a `usize` (encoded as `u64`).
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if the value does not fit a `usize`.
    pub(crate) fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Corrupt("usize overflow"))
    }

    /// Reads a length-prefixed UTF-8 string. The length is checked
    /// against the bytes left before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the length runs past the end,
    /// [`CodecError::Corrupt`] on invalid UTF-8.
    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8"))
    }
}

/// A value with exactly one image: `put` appends it, `get` reads it
/// back. Implement it with [`codec_struct!`](crate::codec_struct) or
/// [`codec_enum!`](crate::codec_enum) beside the type's definition.
pub trait Codec: Sized {
    /// Appends this value's image to `w`.
    fn put(&self, w: &mut ByteWriter);

    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the bytes are truncated or corrupt.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// The primitives: `ByteWriter` / `ByteReader` name their methods after
/// the type they carry.
macro_rules! codec_primitive {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut ByteWriter) {
                w.$t(*self);
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$t()
            }
        }
    )*};
}
codec_primitive!(u8, u16, u32, u64, bool, usize);

impl Codec for String {
    fn put(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(CodecError::Corrupt("bad option tag")),
        }
    }
}

/// Checks the [`Codec`] laws on one value, for tests: its image decodes
/// — consuming every byte — to a value with the same image, and every
/// strict prefix of the image fails with [`CodecError::UnexpectedEof`].
/// Returns the decoded value for types that can also compare it.
///
/// # Panics
///
/// Panics, naming the law, when one is broken.
pub fn assert_laws<T: Codec>(x: &T) -> T {
    let image = |v: &T| {
        let mut w = ByteWriter::new();
        v.put(&mut w);
        w.into_bytes()
    };
    let bytes = image(x);
    let mut r = ByteReader::new(&bytes);
    let back = T::get(&mut r).expect("a value's own image decodes");
    assert_eq!(r.remaining(), 0, "get consumes exactly what put wrote");
    assert_eq!(image(&back), bytes, "get(put(x)) has the image of x");
    for cut in 0..bytes.len() {
        match T::get(&mut ByteReader::new(&bytes[..cut])) {
            Err(CodecError::UnexpectedEof { .. }) => {}
            Err(e) => panic!("prefix of {cut} bytes: {e}, not UnexpectedEof"),
            Ok(_) => panic!("prefix of {cut} bytes decoded"),
        }
    }
    back
}

/// Implements [`Codec`] for a struct from its field list, in image
/// order: `codec_struct!(Recipe { scheme, fabric, seed })`.
#[macro_export]
macro_rules! codec_struct {
    ($t:ty { $($f:tt),* $(,)? }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                $($crate::codec::Codec::put(&self.$f, w);)*
            }
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $($f: $crate::codec::Codec::get(r)?,)* })
            }
        }
    };
}

/// Implements [`Codec`] for an enum as a one-byte tag plus the
/// variant's fields in order; an unknown tag is
/// [`CodecError::Corrupt`] with the given message. Variants may be
/// units, tuples or structs:
/// `codec_enum!(T, "bad T tag" { 0 => A, 1 => B(x), 2 => C { y, z } })`.
#[macro_export]
macro_rules! codec_enum {
    ($t:ty, $what:literal {
        $($tag:literal => $v:ident $(($($p:ident),*))? $({ $($f:ident),* })?),* $(,)?
    }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                match self {$(
                    Self::$v $(($($p),*))? $({ $($f),* })? => {
                        w.u8($tag);
                        $($($crate::codec::Codec::put($p, w);)*)?
                        $($($crate::codec::Codec::put($f, w);)*)?
                    }
                )*}
            }
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                match r.u8()? {
                    $($tag => Ok(Self::$v
                        $(($({
                            let $p = $crate::codec::Codec::get(r)?;
                            $p
                        }),*))?
                        $({ $($f: $crate::codec::Codec::get(r)?),* })?),)*
                    _ => Err($crate::codec::CodecError::Corrupt($what)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.bool(true);
        w.bool(false);
        w.usize(99);
        Some(8u64).put(&mut w);
        None::<u64>.put(&mut w);
        w.str("hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), Some(8));
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    /// A sealed image holding one `u64`.
    fn sealed(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::image();
        w.u64(v);
        w.seal()
    }

    #[test]
    fn header_round_trips_and_rejects() {
        let bytes = sealed(42);
        let mut r = ByteReader::open(&bytes).unwrap();
        assert_eq!(
            (r.u64(), r.remaining()),
            (Ok(42), 0),
            "the checksum is not body"
        );

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(ByteReader::open(&bad).unwrap_err(), CodecError::BadMagic);

        // Any other version is refused, an older one included.
        for found in [2, 3, SNAPSHOT_VERSION + 1, 0xff] {
            let mut skewed = bytes.clone();
            skewed[8] = found as u8; // version low byte
            let supported = SNAPSHOT_VERSION;
            assert_eq!(
                ByteReader::open(&skewed).unwrap_err(),
                CodecError::UnsupportedVersion { found, supported }
            );
        }
    }

    #[test]
    fn every_bit_flip_of_the_body_or_checksum_is_caught() {
        let bytes = sealed(0x0123_4567_89ab_cdef);
        for at in 10..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert_eq!(
                    ByteReader::open(&flipped).unwrap_err(),
                    CodecError::Corrupt("checksum mismatch"),
                    "byte {at} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sealed(7);
        for cut in 0..bytes.len() {
            assert!(ByteReader::open(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut r = ByteReader::new(&bytes[..3]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn bad_bytes_do_not_panic() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.bool(), Err(CodecError::Corrupt("non-boolean byte")));
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert!(r.str().is_err(), "declared length past the end");
        let mut r = ByteReader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(r.str().is_err(), "absurd length must not allocate");
        let mut r = ByteReader::new(&[2, 0]);
        assert_eq!(
            Option::<u8>::get(&mut r),
            Err(CodecError::Corrupt("bad option tag"))
        );
    }
}
