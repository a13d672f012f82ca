//! CORBA CDR-style encoding for the object-RPC back-ends.
//!
//! The encoding follows GIOP 1.0 CDR conventions for the subset the
//! reproduction needs: a one-byte byte-order flag at the start of every
//! message, natural alignment for primitives (relative to the message
//! start), strings carried as length-including-NUL + bytes + NUL, and
//! `sequence<octet>` as length + raw bytes.

use crate::buf::MsgBuf;
use crate::error::MarshalError;
use crate::Result;

/// Default cap on variable-length items (see [`crate::xdr::DEFAULT_MAX_LEN`]).
pub(crate) const DEFAULT_MAX_LEN: usize = 64 << 20;

/// Byte order of a CDR stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteOrder {
    /// Most significant byte first.
    Big,
    /// Least significant byte first (the flag value GIOP uses for x86).
    Little,
}

impl ByteOrder {
    /// The native order of the host, which senders use by default so that
    /// same-machine RPC never swaps bytes.
    #[inline]
    pub fn native() -> Self {
        if cfg!(target_endian = "little") {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        }
    }

    #[inline]
    fn flag(self) -> u8 {
        match self {
            ByteOrder::Big => 0,
            ByteOrder::Little => 1,
        }
    }

    #[inline]
    fn from_flag(b: u8) -> Result<Self> {
        match b {
            0 => Ok(ByteOrder::Big),
            1 => Ok(ByteOrder::Little),
            other => Err(MarshalError::BadByteOrder(other)),
        }
    }
}

/// Sequential CDR encoder.
///
/// The first byte of every message is the byte-order flag; alignment is
/// computed relative to the message start, as in GIOP.
///
/// # Examples
///
/// ```
/// use flexrpc_marshal::cdr::{CdrWriter, CdrReader, ByteOrder};
///
/// let mut w = CdrWriter::new(ByteOrder::Little);
/// w.put_u32(5);
/// w.put_string("ok");
/// let bytes = w.into_bytes();
/// let mut r = CdrReader::new(&bytes).unwrap();
/// assert_eq!(r.get_u32().unwrap(), 5);
/// assert_eq!(r.get_string().unwrap(), "ok");
/// ```
#[derive(Debug)]
pub struct CdrWriter {
    buf: MsgBuf,
    order: ByteOrder,
}

macro_rules! put_prim {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $put_aligned:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, v: $ty) {
            let bytes = match self.order {
                ByteOrder::Big => v.to_be_bytes(),
                ByteOrder::Little => v.to_le_bytes(),
            };
            self.buf.$put_aligned(bytes);
        }
    };
}

impl CdrWriter {
    /// Creates an encoder emitting in `order`, writing the order flag.
    #[inline]
    pub fn new(order: ByteOrder) -> Self {
        let mut buf = MsgBuf::new();
        buf.put_bytes(&[order.flag()]);
        CdrWriter { buf, order }
    }

    /// Creates a native-order encoder (the fast default for local IPC).
    #[inline]
    pub fn native() -> Self {
        Self::new(ByteOrder::native())
    }

    /// Creates a native-order encoder reusing `buf`'s allocation (cleared
    /// first) — lets steady-state stubs marshal without allocating.
    #[inline]
    pub fn native_over(buf: Vec<u8>) -> Self {
        Self::native_behind(buf, 0)
    }

    /// Creates a native-order encoder reusing `buf`'s allocation that
    /// continues behind its first `head` bytes instead of clearing them
    /// (see `MsgBuf::behind`): a transport's header room, patched once the
    /// message is sealed. The message — order flag first — starts at
    /// `head`, and alignment counts from there, so its bytes are the ones
    /// it has alone whatever the head's length.
    #[inline]
    pub fn native_behind(buf: Vec<u8>, head: usize) -> Self {
        let order = ByteOrder::native();
        let mut b = MsgBuf::behind(buf, head);
        b.put_bytes(&[order.flag()]);
        CdrWriter { buf: b, order }
    }

    /// Encodes a single octet (no alignment).
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_bytes(&[v]);
    }

    put_prim!(
        /// Encodes an unsigned 32-bit integer at 4-byte alignment.
        put_u32, u32, put_aligned_4
    );
    put_prim!(
        /// Encodes a signed 32-bit integer at 4-byte alignment.
        put_i32, i32, put_aligned_4
    );
    put_prim!(
        /// Encodes an unsigned 64-bit integer at 8-byte alignment.
        put_u64, u64, put_aligned_8
    );
    put_prim!(
        /// Encodes a signed 64-bit integer at 8-byte alignment.
        put_i64, i64, put_aligned_8
    );

    /// Appends raw octets with no length word and no alignment — the body
    /// of a fixed `octet[N]` field or of a string.
    #[inline]
    pub fn put_octets(&mut self, bytes: &[u8]) {
        self.buf.put_bytes(bytes);
    }

    /// Encodes a boolean as one octet.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Encodes a double-precision float at 8-byte alignment.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Encodes a `sequence<octet>`: u32 length + raw bytes.
    #[inline]
    pub fn put_sequence(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.put_bytes(bytes);
    }

    /// Reserves a `sequence<octet>` payload of exactly `len` bytes for later
    /// in-place filling by a `[special]` hook.
    #[inline]
    pub fn reserve_sequence(&mut self, len: usize) -> crate::buf::Window {
        self.put_u32(len as u32);
        self.buf.reserve_window(len)
    }

    /// Fills a window previously returned by [`CdrWriter::reserve_sequence`].
    #[inline]
    pub fn fill_window_with<F>(&mut self, w: crate::buf::Window, f: F) -> Result<()>
    where
        F: FnOnce(&mut [u8]) -> usize,
    {
        self.buf.fill_window_with(w, f)
    }

    /// Encodes a string: u32 length including NUL, bytes, NUL.
    #[inline]
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32 + 1);
        self.put_octets(s.as_bytes());
        self.put_u8(0);
    }

    /// Total payload bytes appended so far.
    #[inline]
    pub fn bytes_written(&self) -> u64 {
        self.buf.bytes_written()
    }

    /// The byte order this encoder emits.
    #[inline]
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Current write offset from the start of the message (includes the
    /// order flag, so fused blocks can select the matching phase layout).
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
    /// [`MsgBuf::append_block`]). Callers pass the layout matching the
    /// current [`CdrWriter::position`] phase — alignment padding is part of
    /// the precomputed block, so no `pad_to` happens here.
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

/// Sequential CDR decoder.
#[derive(Debug)]
pub struct CdrReader<'a> {
    /// What is left to read; `pos` bytes of the message went before it.
    rest: &'a [u8],
    pos: usize,
    order: ByteOrder,
}

macro_rules! get_prim {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $n:expr, $align:expr) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self) -> Result<$ty> {
            self.align($align)?;
            let raw: [u8; $n] = self.take($n)?.try_into().unwrap();
            Ok(match self.order {
                ByteOrder::Big => <$ty>::from_be_bytes(raw),
                ByteOrder::Little => <$ty>::from_le_bytes(raw),
            })
        }
    };
}

impl<'a> CdrReader<'a> {
    /// Creates a decoder, reading and validating the byte-order flag.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self> {
        let Some((&flag, rest)) = data.split_first() else {
            return Err(MarshalError::Truncated { needed: 1, remaining: 0 });
        };
        let order = ByteOrder::from_flag(flag)?;
        Ok(CdrReader { rest, pos: 1, order })
    }

    /// The byte order the sender used.
    #[inline]
    pub fn order(&self) -> ByteOrder {
        self.order
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

    /// Current read offset from the start of the message (includes the
    /// order flag; pairs with [`CdrWriter::position`] for phase selection).
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes `n` raw bytes — the single prefix bounds check of a fused
    /// block read.
    #[inline]
    pub fn take_block(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    #[inline]
    fn align(&mut self, align: usize) -> Result<()> {
        let target = crate::align_up(self.pos, align);
        let skip = target - self.pos;
        self.take(skip).map(|_| ())
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

    /// Decodes a single octet.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    get_prim!(
        /// Decodes an unsigned 32-bit integer.
        get_u32, u32, 4, 4
    );
    get_prim!(
        /// Decodes a signed 32-bit integer.
        get_i32, i32, 4, 4
    );
    get_prim!(
        /// Decodes an unsigned 64-bit integer.
        get_u64, u64, 8, 8
    );
    get_prim!(
        /// Decodes a signed 64-bit integer.
        get_i64, i64, 8, 8
    );

    /// Decodes a boolean octet, rejecting values other than 0/1.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(MarshalError::BadBool(v as u32)),
        }
    }

    /// Decodes a double-precision float.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Decodes a `sequence<octet>`, borrowing the payload from the message.
    #[inline]
    pub fn get_sequence_borrowed(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        if len > DEFAULT_MAX_LEN || len > self.remaining() {
            return Err(MarshalError::LengthOutOfRange {
                claimed: len,
                max: DEFAULT_MAX_LEN.min(self.remaining()),
            });
        }
        self.take(len)
    }

    /// Decodes a `sequence<octet>` into an owned vector.
    pub fn get_sequence(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_sequence_borrowed()?.to_vec())
    }

    /// Decodes a string (length includes the NUL terminator).
    pub fn get_string(&mut self) -> Result<String> {
        let len = self.get_u32()? as usize;
        if len == 0 || len > DEFAULT_MAX_LEN || len > self.remaining() {
            return Err(MarshalError::BadString);
        }
        let bytes = self.take(len)?;
        if bytes[len - 1] != 0 {
            return Err(MarshalError::BadString);
        }
        String::from_utf8(bytes[..len - 1].to_vec()).map_err(|_| MarshalError::BadString)
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

    fn roundtrip_order(order: ByteOrder) {
        let mut w = CdrWriter::new(order);
        w.put_u8(7);
        w.put_u32(0x03040506);
        w.put_u64(0x0708090A0B0C0D0E);
        w.put_i32(-5);
        w.put_i64(-6);
        w.put_bool(true);
        w.put_f64(2.25);
        w.put_string("cdr");
        w.put_sequence(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = CdrReader::new(&bytes).unwrap();
        assert_eq!(r.order(), order);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0x03040506);
        assert_eq!(r.get_u64().unwrap(), 0x0708090A0B0C0D0E);
        assert_eq!(r.get_i32().unwrap(), -5);
        assert_eq!(r.get_i64().unwrap(), -6);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), 2.25);
        assert_eq!(r.get_string().unwrap(), "cdr");
        assert_eq!(r.get_sequence().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn roundtrip_big_endian() {
        roundtrip_order(ByteOrder::Big);
    }

    #[test]
    fn roundtrip_little_endian() {
        roundtrip_order(ByteOrder::Little);
    }

    #[test]
    fn order_flag_is_first_byte() {
        let w = CdrWriter::new(ByteOrder::Little);
        assert_eq!(w.into_bytes(), vec![1]);
        let w = CdrWriter::new(ByteOrder::Big);
        assert_eq!(w.into_bytes(), vec![0]);
    }

    #[test]
    fn bad_order_flag_rejected() {
        assert_eq!(CdrReader::new(&[9]).unwrap_err(), MarshalError::BadByteOrder(9));
    }

    #[test]
    fn empty_message_rejected() {
        assert!(matches!(CdrReader::new(&[]), Err(MarshalError::Truncated { .. })));
    }

    #[test]
    fn alignment_relative_to_message_start() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.put_u8(1); // Offset 1 → next u32 pads to offset 4.
        w.put_u32(0xAABBCCDD);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(&bytes[4..], &[0xAA, 0xBB, 0xCC, 0xDD]);
    }

    #[test]
    fn string_missing_nul_rejected() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.put_u32(3);
        w.put_u8(b'a');
        w.put_u8(b'b');
        w.put_u8(b'c'); // No NUL.
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes).unwrap();
        assert_eq!(r.get_string().unwrap_err(), MarshalError::BadString);
    }

    #[test]
    fn empty_string_length_zero_rejected() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes).unwrap();
        assert_eq!(r.get_string().unwrap_err(), MarshalError::BadString);
    }

    #[test]
    fn empty_string_roundtrip() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.put_string("");
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes).unwrap();
        assert_eq!(r.get_string().unwrap(), "");
    }

    #[test]
    fn sequence_hostile_length_rejected() {
        let mut w = CdrWriter::new(ByteOrder::Big);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes).unwrap();
        assert!(matches!(r.get_sequence(), Err(MarshalError::LengthOutOfRange { .. })));
    }

    #[test]
    fn reserve_sequence_window() {
        let mut w = CdrWriter::native();
        let win = w.reserve_sequence(4);
        w.fill_window_with(win, |d| {
            d.copy_from_slice(&[9, 8, 7, 6]);
            4
        })
        .unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes).unwrap();
        assert_eq!(r.get_sequence().unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn cross_endian_decode() {
        // A little-endian sender read by the same decoder path.
        let mut w = CdrWriter::new(ByteOrder::Little);
        w.put_u32(0x01020304);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[4..], &[4, 3, 2, 1]);
        let mut r = CdrReader::new(&bytes).unwrap();
        assert_eq!(r.get_u32().unwrap(), 0x01020304);
    }

    /// Behind a head of any length the message is the one written alone —
    /// order flag, aligned fields, fused-block phase — and reads back from
    /// its own start.
    #[test]
    fn a_message_behind_a_head_is_the_message_alone() {
        let encode = |w: &mut CdrWriter| {
            w.put_u32(7);
            w.put_u64(0x0102_0304_0506_0708);
            w.put_u8(1);
            assert_eq!(w.position(), 17, "fused blocks pick their phase from here");
            w.put_f64(2.5);
            w.put_string("ok");
        };
        let mut alone = CdrWriter::native();
        encode(&mut alone);
        let alone = alone.into_bytes();
        for head in [0usize, 4, 28] {
            let mut w = CdrWriter::native_behind(vec![0xAB; 2], head);
            encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(&bytes[head..], &alone[..], "head {head}");
            let mut r = CdrReader::new(&bytes[head..]).unwrap();
            assert_eq!((r.get_u32().unwrap(), r.get_u64().unwrap()), (7, 0x0102_0304_0506_0708));
        }
    }
}
