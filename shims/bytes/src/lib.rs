//! Offline shim for the `bytes` crate.
//!
//! Implements the subset the wire codec relies on: [`BytesMut`] as a growable
//! front-consumable byte buffer, [`Bytes`] as an immutable view, [`Buf`]'s
//! front cursor and the big-endian writers of [`BufMut`] (the codec reads
//! fields through its own bounds-checked cursor over the dereferenced
//! slice). The representation is a plain `Vec<u8>` with a start cursor —
//! `advance` is O(1) until the buffer is next compacted on write.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Read-side cursor operations over a byte buffer.
pub trait Buf {
    /// Remaining readable bytes.
    fn remaining(&self) -> usize;
    /// Readable contents.
    fn chunk(&self) -> &[u8];
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);
}

/// Write-side operations over a byte buffer.
///
/// The writers are `#[inline]`, as in the published crate: the codec calls
/// one per frame field from another crate, and left out of line each costs
/// a call whose price moves with this crate's codegen-unit layout.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a `u8`.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `f64`.
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// A growable byte buffer that is cheaply consumable from the front.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    start: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            start: 0,
        }
    }

    /// Readable length.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether nothing is readable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many bytes the buffer holds, readable or not, before it must
    /// grow.
    pub fn capacity(&self) -> usize {
        self.data.capacity() - self.start
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }

    /// Appends bytes to the back.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        // Compact lazily on write so the cursor never grows unboundedly.
        if self.start > 4096 && self.start > self.len() {
            self.compact();
        }
        self.data.extend_from_slice(src);
    }

    /// Empties the buffer, keeping its allocation (the scratch-buffer
    /// reset: a hot loop can encode into the same backing storage without
    /// returning to the allocator).
    pub fn clear(&mut self) {
        self.data.clear();
        self.start = 0;
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        self.compact();
        Bytes(self.data)
    }

    /// Copies the readable bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunk().to_vec()
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        BytesMut {
            data: src.to_vec(),
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let start = self.start;
        &mut self.data[start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

/// An immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copies into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.0.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_big_endian() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u32(0xdead_beef);
        b.put_u64(42);
        b.put_f64(-1.5);
        let mut want = vec![7, 0xde, 0xad, 0xbe, 0xef];
        want.extend_from_slice(&42u64.to_be_bytes());
        want.extend_from_slice(&(-1.5f64).to_bits().to_be_bytes());
        assert_eq!(&b[..], &want[..]);
    }

    #[test]
    fn split_and_advance() {
        let mut b = BytesMut::from(&[1u8, 2, 3, 4, 5][..]);
        b.advance(3);
        assert_eq!(&b[..], &[4, 5]);
        assert_eq!(b.freeze().to_vec(), vec![4, 5]);
    }

    #[test]
    fn extend_after_advance_keeps_order() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&[1, 2, 3]);
        b.advance(2);
        b.extend_from_slice(&[4]);
        assert_eq!(&b[..], &[3, 4]);
    }
}
