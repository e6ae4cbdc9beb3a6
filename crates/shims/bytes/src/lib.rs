//! Offline stand-in for the `bytes` subset this workspace uses:
//! little-endian put/get cursors over growable ([`BytesMut`]) and frozen
//! ([`Bytes`]) byte buffers, with [`Buf`] implemented for `&[u8]` so
//! decoding can consume a plain slice.

use std::ops::Deref;

/// Read cursor over a byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);
    /// Copies `dst.len()` bytes out and advances.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;

    /// Reads a little-endian `f64`.
    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    /// Reads a little-endian `f32`.
    #[inline]
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "copy past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        u8::from_le_bytes(take_chunk(self))
    }

    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(take_chunk(self))
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(take_chunk(self))
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(take_chunk(self))
    }
}

/// Splits the first `N` bytes off `buf`: a fixed-width read, one
/// length check against a constant and a copy of known size, where
/// `copy_to_slice` takes a length known only at run time.
#[inline]
fn take_chunk<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let Some((head, tail)) = buf.split_first_chunk::<N>() else {
        panic!("copy past end of buffer");
    };
    *buf = tail;
    *head
}

/// Write cursor over a growable byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    /// Appends a little-endian `f32`.
    #[inline]
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

/// Growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Copies a slice into an owned buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes { data: src.to_vec() }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"MAGc");
        w.put_u8(7);
        w.put_u16_le(513);
        w.put_u64_le(0xDEAD_BEEF_0123_4567);
        w.put_f64_le(-12.25);
        let frozen = w.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.remaining(), 4 + 1 + 2 + 8 + 8);
        let mut magic = [0u8; 4];
        r.copy_to_slice(&mut magic);
        assert_eq!(&magic, b"MAGc");
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u64_le(), 0xDEAD_BEEF_0123_4567);
        assert_eq!(r.get_f64_le(), -12.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn advance_skips() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r: &[u8] = &data;
        r.advance(2);
        assert_eq!(r.get_u8(), 3);
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn overread_panics() {
        let data = [1u8];
        let mut r: &[u8] = &data;
        let _ = r.get_u16_le();
    }
}
