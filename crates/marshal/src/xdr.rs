//! XDR (RFC 1014) encoding for the Sun RPC back-end.
//!
//! The subset implemented is what `rpcgen`-era NFS needs: 32/64-bit integers,
//! booleans, enumerations, fixed and variable opaque data, strings, and
//! counted arrays. Everything is big-endian and padded to 4-byte multiples,
//! so a message produced here is byte-compatible with a 1995 `rpcgen` stub
//! for the same data.

use crate::buf::MsgBuf;
use crate::error::MarshalError;
use crate::{align_up, Result};

/// Default cap on variable-length items, to stop a hostile length prefix from
/// driving a huge allocation. Decoders can raise it per-field.
pub(crate) const DEFAULT_MAX_LEN: usize = 64 << 20;

/// Sequential XDR encoder writing into a [`MsgBuf`].
///
/// # Examples
///
/// ```
/// use flexrpc_marshal::xdr::XdrWriter;
///
/// let mut w = XdrWriter::new();
/// w.put_u32(0x11223344);
/// assert_eq!(w.into_bytes(), vec![0x11, 0x22, 0x33, 0x44]);
/// ```
#[derive(Debug, Default)]
pub struct XdrWriter {
    buf: MsgBuf,
}

impl XdrWriter {
    /// Creates an empty encoder.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with preallocated capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        XdrWriter { buf: MsgBuf::with_capacity(cap) }
    }

    /// Wraps an existing buffer so encoding can continue a partially built
    /// message (transports use this to prepend call headers).
    #[inline]
    pub fn over(buf: MsgBuf) -> Self {
        XdrWriter { buf }
    }

    /// Creates an encoder reusing `buf`'s allocation (cleared first).
    #[inline]
    pub fn over_vec(buf: Vec<u8>) -> Self {
        Self::behind(buf, 0)
    }

    /// Creates an encoder reusing `buf`'s allocation that continues behind
    /// its first `head` bytes instead of clearing them (see
    /// `MsgBuf::behind`): a transport's header room, patched once the
    /// message is sealed. XDR only appends whole words, so a head of whole
    /// words leaves the encoding as it is alone.
    #[inline]
    pub fn behind(buf: Vec<u8>, head: usize) -> Self {
        XdrWriter { buf: MsgBuf::behind(buf, head) }
    }

    /// Encodes an unsigned 32-bit integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_bytes(&v.to_be_bytes());
    }

    /// Encodes a signed 32-bit integer.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.buf.put_bytes(&v.to_be_bytes());
    }

    /// Encodes an unsigned 64-bit integer (XDR "unsigned hyper").
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_bytes(&v.to_be_bytes());
    }

    /// Encodes a signed 64-bit integer (XDR "hyper").
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_bytes(&v.to_be_bytes());
    }

    /// Encodes a boolean as 0/1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Encodes a double-precision float.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_bytes(&v.to_be_bytes());
    }

    /// Encodes fixed-length opaque data (padded to 4 bytes, no length word).
    #[inline]
    pub fn put_opaque_fixed(&mut self, bytes: &[u8]) {
        self.buf.put_bytes(bytes);
        self.buf.pad_to(4);
    }

    /// Encodes variable-length opaque data (length word + bytes + padding).
    #[inline]
    pub fn put_opaque(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.put_bytes(bytes);
        self.buf.pad_to(4);
    }

    /// Reserves a variable-length opaque region of exactly `len` bytes and
    /// returns the window so a `[special]` hook can fill it in place.
    ///
    /// The length word and padding are written now; only the payload bytes
    /// are deferred.
    #[inline]
    pub fn reserve_opaque(&mut self, len: usize) -> crate::buf::Window {
        self.put_u32(len as u32);
        let w = self.buf.reserve_window(len);
        self.buf.pad_to(4);
        w
    }

    /// Fills a window previously returned by [`XdrWriter::reserve_opaque`].
    #[inline]
    pub fn fill_window_with<F>(&mut self, w: crate::buf::Window, f: F) -> Result<()>
    where
        F: FnOnce(&mut [u8]) -> usize,
    {
        self.buf.fill_window_with(w, f)
    }

    /// Encodes a UTF-8 string (XDR string is counted bytes, no terminator).
    #[inline]
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Total payload bytes appended so far (see [`MsgBuf::bytes_written`]).
    #[inline]
    pub fn bytes_written(&self) -> u64 {
        self.buf.bytes_written()
    }

    /// Current write offset from the start of the message.
    #[inline]
    pub fn position(&self) -> usize {
        self.buf.position()
    }

    /// Ensures capacity for at least `additional` more bytes (presize).
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a zeroed block for a fused bulk write (see
    /// [`MsgBuf::append_block`]). XDR layouts are packed, so callers pass
    /// the position-independent block length.
    #[inline]
    pub fn append_block(&mut self, len: usize, payload_len: usize) -> &mut [u8] {
        self.buf.append_block(len, payload_len)
    }

    /// Finishes encoding, returning the message bytes.
    ///
    /// # Panics
    ///
    /// Panics if a reserved window was never filled.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into_sealed()
    }

    /// Finishes encoding into `dst`, where the caller keeps the message:
    /// `dst`'s old buffer becomes this writer's, and nothing is moved out
    /// (see `MsgBuf`'s finish step). A reserved window never filled fails
    /// with [`MarshalError::WindowMisuse`] and leaves `dst` empty.
    #[inline]
    pub fn seal_into(&mut self, dst: &mut Vec<u8>) -> Result<()> {
        self.buf.seal_into(dst)
    }
}

/// Sequential XDR decoder over a received byte slice.
///
/// All reads are bounds-checked; variable-length items are validated against
/// both the remaining message and a configurable maximum.
#[derive(Debug)]
pub struct XdrReader<'a> {
    /// What is left to read; `pos` bytes of the message went before it.
    rest: &'a [u8],
    pos: usize,
}

impl<'a> XdrReader<'a> {
    /// Creates a decoder over `data` with the default length cap.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        XdrReader { rest: data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Returns `true` when the whole message has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the message.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.rest.split_at_checked(n) {
            Some((s, rest)) => {
                self.rest = rest;
                self.pos += n;
                Ok(s)
            }
            None => Err(MarshalError::Truncated { needed: n, remaining: self.rest.len() }),
        }
    }

    /// Consumes `n` raw bytes — the single prefix bounds check of a fused
    /// block read (per-field checks are folded away at bind time).
    #[inline]
    pub fn take_block(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    #[inline]
    fn skip_pad(&mut self, payload: usize) -> Result<()> {
        let pad = align_up(payload, 4) - payload;
        self.take(pad).map(|_| ())
    }

    /// Decodes an unsigned 32-bit integer.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Decodes a signed 32-bit integer.
    #[inline]
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Decodes an unsigned 64-bit integer.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decodes a signed 64-bit integer.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decodes a boolean, rejecting values other than 0/1.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(MarshalError::BadBool(v)),
        }
    }

    /// Decodes a double-precision float.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decodes fixed-length opaque data, *borrowing* it from the message.
    #[inline]
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<&'a [u8]> {
        let s = self.take(len)?;
        self.skip_pad(len)?;
        Ok(s)
    }

    /// Decodes variable-length opaque data, *borrowing* it from the message.
    ///
    /// This is the zero-copy primitive behind `dealloc(never)`-style
    /// presentations: the caller gets a slice into the receive buffer and
    /// decides for itself whether a private copy is ever made.
    #[inline]
    pub fn get_opaque_borrowed(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        if len > DEFAULT_MAX_LEN || len > self.remaining() {
            return Err(MarshalError::LengthOutOfRange {
                claimed: len,
                max: DEFAULT_MAX_LEN.min(self.remaining()),
            });
        }
        self.get_opaque_fixed(len)
    }

    /// Decodes variable-length opaque data into an owned vector (the
    /// conventional, copying presentation).
    pub fn get_opaque(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_opaque_borrowed()?.to_vec())
    }

    /// Decodes a UTF-8 string.
    pub fn get_string(&mut self) -> Result<String> {
        let bytes = self.get_opaque_borrowed()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| MarshalError::BadString)
    }

    /// Asserts the message has been fully consumed.
    #[inline]
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(MarshalError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = XdrWriter::new();
        w.put_u32(42);
        w.put_i32(-7);
        w.put_u64(1 << 40);
        w.put_i64(-(1 << 40));
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(3.5);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 4 + 4 + 8 + 8 + 4 + 4 + 8);

        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.get_i32().unwrap(), -7);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -(1 << 40));
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), 3.5);
        r.finish().unwrap();
    }

    #[test]
    fn big_endian_layout() {
        let mut w = XdrWriter::new();
        w.put_u32(0x01020304);
        assert_eq!(w.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn opaque_padding() {
        let mut w = XdrWriter::new();
        w.put_opaque(&[9, 9, 9]);
        let bytes = w.into_bytes();
        // 4 (len) + 3 (data) + 1 (pad).
        assert_eq!(bytes.len(), 8);
        assert_eq!(bytes[7], 0);

        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_opaque().unwrap(), vec![9, 9, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn opaque_fixed_no_length_word() {
        let mut w = XdrWriter::new();
        w.put_opaque_fixed(&[1, 2, 3, 4, 5]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8);
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_opaque_fixed(5).unwrap(), &[1, 2, 3, 4, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn string_roundtrip() {
        let mut w = XdrWriter::new();
        w.put_string("hello, flexible presentation");
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_string().unwrap(), "hello, flexible presentation");
    }

    #[test]
    fn string_invalid_utf8_rejected() {
        let mut w = XdrWriter::new();
        w.put_opaque(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_string().unwrap_err(), MarshalError::BadString);
    }

    #[test]
    fn truncated_read_rejected() {
        let mut r = XdrReader::new(&[0, 0]);
        assert!(matches!(r.get_u32(), Err(MarshalError::Truncated { needed: 4, remaining: 2 })));
    }

    #[test]
    fn hostile_length_rejected() {
        // Claims 2^31 bytes of opaque data but carries none.
        let mut w = XdrWriter::new();
        w.put_u32(0x8000_0000);
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        assert!(matches!(r.get_opaque(), Err(MarshalError::LengthOutOfRange { .. })));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut w = XdrWriter::new();
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_bool().unwrap_err(), MarshalError::BadBool(2));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = XdrWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        r.get_u32().unwrap();
        assert_eq!(r.finish().unwrap_err(), MarshalError::TrailingBytes(4));
    }

    #[test]
    fn borrowed_opaque_points_into_message() {
        let mut w = XdrWriter::new();
        w.put_opaque(b"zero-copy");
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        let s = r.get_opaque_borrowed().unwrap();
        assert_eq!(s, b"zero-copy");
        // Borrowed straight out of `bytes`: same allocation region.
        let base = bytes.as_ptr() as usize;
        let p = s.as_ptr() as usize;
        assert!(p >= base && p < base + bytes.len());
    }

    #[test]
    fn reserve_opaque_window_fill() {
        let mut w = XdrWriter::new();
        w.put_u32(0xDEAD);
        let win = w.reserve_opaque(6);
        w.put_u32(0xBEEF);
        w.fill_window_with(win, |dst| {
            dst.copy_from_slice(b"direct");
            6
        })
        .unwrap();
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD);
        assert_eq!(r.get_opaque().unwrap(), b"direct".to_vec());
        assert_eq!(r.get_u32().unwrap(), 0xBEEF);
        r.finish().unwrap();
    }
}
