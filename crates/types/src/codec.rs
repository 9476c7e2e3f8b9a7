//! Hand-rolled versioned binary codec for simulator snapshots.
//!
//! Every stateful crate serializes its live state through [`ByteWriter`]
//! and [`ByteReader`] — fixed-width little-endian primitives wrapped in
//! length-prefixed, individually versioned *sections*. The format is
//! deliberately tiny (no external dependencies; the build is offline)
//! and explicit: a snapshot is a magic string, a format version, and a
//! sequence of tagged sections, each of which can evolve independently
//! by bumping its section version.
//!
//! Versioning rules:
//!
//! * The top-level [`SNAPSHOT_MAGIC`] / [`SNAPSHOT_VERSION`] pair gates
//!   whole-file compatibility. Readers reject files of any other
//!   version, older or newer, with [`CodecError::UnsupportedVersion`]
//!   instead of misparsing them.
//! * Each section carries its own `u16` version. A reader that finds a
//!   section version above what it supports rejects the file the same
//!   way; older versions may be accepted by sections that know how to
//!   upgrade.
//! * Sections are length-prefixed so a reader can verify it consumed
//!   exactly the bytes the writer produced ([`SectionReader::finish`]) —
//!   a mismatch means a field was added on one side only and surfaces
//!   as [`CodecError::Corrupt`] rather than silent state skew.
//!
//! Above the primitives sit two traits. [`Codec`] is a value with one
//! image — `put` appends it, `get` reads it back — implemented here for
//! the primitives and the standard containers, and for every plain-data
//! type by one [`codec_struct!`](crate::codec_struct) or
//! [`codec_enum!`](crate::codec_enum) field list beside its definition,
//! so the two directions cannot disagree. [`Checkpoint`] is the seam for
//! components restored *in place* into a freshly built scaffold (every
//! `Codec` value is one); [`checkpoint_fields!`](crate::checkpoint_fields)
//! generates it from a field list, and the containers whose restore
//! checks shape against the rebuilt geometry write it by hand on top of
//! `put` / `get`.
//!
//! Encodings: integers little-endian at their fixed width (`usize` as
//! `u64`), `f64` as its bit pattern, `bool` and enum tags as one byte,
//! `Option` as a presence byte plus the value, strings and sequences
//! behind a checked `u32` length, arrays with no prefix, hash maps as a
//! key-sorted sequence of pairs.

use core::error::Error;
use core::fmt;
use core::hash::Hash;
use std::collections::VecDeque;

use crate::hash::FxHashMap;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NIMSNAP\0";

/// The top-level snapshot format version: the only one read or written.
pub const SNAPSHOT_VERSION: u16 = 2;

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
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file was written in another format version, or a section by
    /// a newer one.
    UnsupportedVersion {
        /// Version found in the input.
        found: u16,
        /// The version this reader supports (for a section, the highest).
        supported: u16,
    },
    /// The bytes are structurally inconsistent (bad tag, bad enum
    /// discriminant, section length mismatch, ...).
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

/// Append-only buffer of little-endian encoded state.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
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

    /// Writes the snapshot magic and top-level format version.
    pub fn header(&mut self) {
        self.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        self.u16(SNAPSHOT_VERSION);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends the `u32` length prefix of a string, sequence or map.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit a `u32` — no simulator structure
    /// comes near it.
    pub fn len_prefix(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("sequence too long for snapshot"));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Opens a tagged, versioned, length-prefixed section. Returns a
    /// handle that must be passed to [`ByteWriter::end_section`] once
    /// the section body is written.
    pub fn begin_section(&mut self, tag: &str, version: u16) -> SectionHandle {
        self.str(tag);
        self.u16(version);
        let len_at = self.buf.len();
        self.u32(0); // patched by end_section
        SectionHandle { len_at }
    }

    /// Closes a section opened by [`ByteWriter::begin_section`],
    /// patching its length prefix.
    ///
    /// # Panics
    ///
    /// Panics if sections are closed out of order (the handle's length
    /// slot is not behind the current position).
    pub fn end_section(&mut self, handle: SectionHandle) {
        let body = self.buf.len() - handle.len_at - 4;
        let len = u32::try_from(body).expect("section too long for snapshot");
        self.buf[handle.len_at..handle.len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Handle returned by [`ByteWriter::begin_section`].
#[derive(Debug)]
#[must_use = "sections must be closed with end_section"]
pub struct SectionHandle {
    len_at: usize,
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

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks the snapshot magic and top-level version.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] if the magic does not match,
    /// [`CodecError::UnsupportedVersion`] if the file's version is not
    /// [`SNAPSHOT_VERSION`].
    pub fn header(&mut self) -> Result<(), CodecError> {
        let magic = self.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = self.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(())
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
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
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
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Corrupt("usize overflow"))
    }

    /// Reads the `u32` length prefix of a string, sequence or map and
    /// bounds it by the bytes left: every element occupies at least one
    /// byte, so a larger count is a truncated or corrupt image, caught
    /// here before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the count exceeds
    /// [`ByteReader::remaining`].
    pub fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::UnexpectedEof {
                needed: len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a sequence that must hold exactly `len` elements — a table
    /// whose size the rebuilt geometry fixes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`]`(what)` on any other length.
    pub fn seq_of_len<T: Codec>(
        &mut self,
        len: usize,
        what: &'static str,
    ) -> Result<Vec<T>, CodecError> {
        let seq = Vec::<T>::get(self)?;
        if seq.len() != len {
            return Err(CodecError::Corrupt(what));
        }
        Ok(seq)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8"))
    }

    /// Opens the next section, checking its tag and version ceiling.
    /// Returns a bounded reader over the section body; the outer
    /// reader's cursor advances past the whole section.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if the tag mismatches,
    /// [`CodecError::UnsupportedVersion`] if the section version
    /// exceeds `max_version`.
    pub fn section(
        &mut self,
        tag: &str,
        max_version: u16,
    ) -> Result<SectionReader<'a>, CodecError> {
        let found = self.str()?;
        if found != tag {
            return Err(CodecError::Corrupt("section tag mismatch"));
        }
        let version = self.u16()?;
        if version > max_version {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: max_version,
            });
        }
        let len = self.u32()? as usize;
        let body = self.take(len)?;
        Ok(SectionReader {
            version,
            reader: ByteReader::new(body),
        })
    }
}

/// A bounded reader over one section's body.
#[derive(Debug)]
pub struct SectionReader<'a> {
    /// The section version the writer recorded.
    pub version: u16,
    /// Reader over exactly the section body.
    pub reader: ByteReader<'a>,
}

impl SectionReader<'_> {
    /// Asserts the section body was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if bytes remain — a writer/reader field
    /// mismatch.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.reader.remaining() != 0 {
            return Err(CodecError::Corrupt("section has trailing bytes"));
        }
        Ok(())
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
codec_primitive!(u8, u16, u32, u64, i64, f64, bool, usize);

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

/// Length-prefixed sequences.
macro_rules! codec_sequence {
    ($($seq:ident),*) => {$(
        impl<T: Codec> Codec for $seq<T> {
            fn put(&self, w: &mut ByteWriter) {
                w.len_prefix(self.len());
                for v in self {
                    v.put(w);
                }
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                (0..r.len_prefix()?).map(|_| T::get(r)).collect()
            }
        }
    )*};
}
codec_sequence!(Vec, VecDeque);

/// Arrays carry no prefix: their length is part of the type.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = T::get(r)?;
        }
        Ok(a)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Hash maps iterate in arbitrary order, so the image is the key-sorted
/// sequence of `(key, value)` pairs.
impl<K: Codec + Ord + Hash, V: Codec> Codec for FxHashMap<K, V> {
    fn put(&self, w: &mut ByteWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.len_prefix(entries.len());
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        (0..r.len_prefix()?)
            .map(|_| Ok((K::get(r)?, V::get(r)?)))
            .collect()
    }
}

/// The checkpoint seam every stateful component implements: `save`
/// appends the component's live state, `restore` rebuilds it in place
/// from the matching bytes on a freshly constructed component. Every
/// [`Codec`] value is a component whose restore replaces it whole.
pub trait Checkpoint {
    /// Serializes live state into `w`.
    fn save(&self, w: &mut ByteWriter);

    /// Restores live state from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the bytes are truncated, corrupt, or
    /// from an unsupported version.
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

impl<T: Codec> Checkpoint for T {
    fn save(&self, w: &mut ByteWriter) {
        self.put(w);
    }
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        *self = T::get(r)?;
        Ok(())
    }
}

/// Saves a fixed population of components (banks, clusters, cores)
/// behind its count.
pub fn save_each<T: Checkpoint>(items: &[T], w: &mut ByteWriter) {
    w.len_prefix(items.len());
    for item in items {
        item.save(w);
    }
}

/// Restores a population written by [`save_each`] into the components
/// the scaffold already built.
///
/// # Errors
///
/// [`CodecError::Corrupt`]`(what)` if the image holds a different
/// count, plus whatever a component's restore returns.
pub fn restore_each<T: Checkpoint>(
    items: &mut [T],
    r: &mut ByteReader<'_>,
    what: &'static str,
) -> Result<(), CodecError> {
    if r.u32()? as usize != items.len() {
        return Err(CodecError::Corrupt(what));
    }
    items.iter_mut().try_for_each(|item| item.restore(r))
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
/// order: `codec_struct!(Flit { pkt, kind, src })`. Tuple structs name
/// their fields by position: `codec_struct!(LineAddr { 0 })`.
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

/// Implements [`Checkpoint`] for a component from the list of its live
/// fields, in image order; each field is itself a [`Checkpoint`] (any
/// [`Codec`] value is) and is restored in place.
#[macro_export]
macro_rules! checkpoint_fields {
    ($t:ty { $($f:tt),* $(,)? }) => {
        impl $crate::codec::Checkpoint for $t {
            fn save(&self, w: &mut $crate::codec::ByteWriter) {
                $($crate::codec::Checkpoint::save(&self.$f, w);)*
            }
            fn restore(
                &mut self,
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<(), $crate::codec::CodecError> {
                $($crate::codec::Checkpoint::restore(&mut self.$f, r)?;)*
                Ok(())
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
        w.i64(-5);
        w.f64(1.25);
        w.bool(true);
        w.bool(false);
        w.usize(99);
        Some(8u64).put(&mut w);
        None::<u64>.put(&mut w);
        w.str("hello");
        vec![1u64, 2, 3].put(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), 1.25);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), Some(8));
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(Vec::<u64>::get(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn header_round_trips_and_rejects() {
        let mut w = ByteWriter::new();
        w.header();
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).header(), Ok(()));

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(ByteReader::new(&bad).header(), Err(CodecError::BadMagic));

        // Any other version is refused, an older one included.
        for found in [1, SNAPSHOT_VERSION + 1, 0xff] {
            let mut skewed = bytes.clone();
            skewed[8] = found as u8; // version low byte
            let supported = SNAPSHOT_VERSION;
            assert_eq!(
                ByteReader::new(&skewed).header(),
                Err(CodecError::UnsupportedVersion { found, supported })
            );
        }
    }

    #[test]
    fn sections_frame_their_bodies() {
        let mut w = ByteWriter::new();
        let s = w.begin_section("cores", 3);
        w.u64(42);
        w.end_section(s);
        let s = w.begin_section("l2", 1);
        w.str("after");
        w.end_section(s);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let mut sec = r.section("cores", 3).unwrap();
        assert_eq!(sec.version, 3);
        assert_eq!(sec.reader.u64().unwrap(), 42);
        sec.finish().unwrap();
        let mut sec = r.section("l2", 5).unwrap();
        assert_eq!(sec.reader.str().unwrap(), "after");
        sec.finish().unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sections_reject_mismatches() {
        let mut w = ByteWriter::new();
        let s = w.begin_section("cores", 2);
        w.u64(42);
        w.end_section(s);
        let bytes = w.into_bytes();

        assert_eq!(
            ByteReader::new(&bytes).section("caches", 2).unwrap_err(),
            CodecError::Corrupt("section tag mismatch")
        );
        assert!(matches!(
            ByteReader::new(&bytes).section("cores", 1).unwrap_err(),
            CodecError::UnsupportedVersion {
                found: 2,
                supported: 1
            }
        ));
        // Under-consumed section body.
        let sec = ByteReader::new(&bytes).section("cores", 2).unwrap();
        assert_eq!(
            sec.finish().unwrap_err(),
            CodecError::Corrupt("section has trailing bytes")
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = ByteWriter::new();
        let s = w.begin_section("cores", 1);
        vec![1u64, 2, 3, 4].put(&mut w);
        w.end_section(s);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            match r.section("cores", 1) {
                Err(_) => {}
                Ok(mut sec) => {
                    // The section parsed but the body must fail.
                    assert!(Vec::<u64>::get(&mut sec.reader).is_err() || cut == bytes.len());
                }
            }
        }
    }

    #[test]
    fn bad_bytes_do_not_panic() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.bool(), Err(CodecError::Corrupt("non-boolean byte")));
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert!(r.str().is_err(), "declared length past the end");
        let mut r = ByteReader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(
            Vec::<u64>::get(&mut r).is_err(),
            "absurd length must not allocate"
        );
    }
}
