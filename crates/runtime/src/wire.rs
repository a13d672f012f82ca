//! Format-erased wire writers and readers.
//!
//! Stub programs are wire-format-agnostic; the binding picks XDR (Sun
//! back-end) or CDR (CORBA back-end) and hands the interpreter one of these
//! enums. Enum dispatch keeps the zero-copy accessors' lifetimes intact
//! (trait objects cannot return borrowed slices tied to the message).
//!
//! The enums are the public face; underneath, each transfer syntax answers
//! the crate-private `WireWrite` / `WireRead` traits, and the
//! interpreter matches on the enum **once per program** and then runs a
//! loop monomorphised over the concrete `CdrWriter` / `XdrWriter`
//! (`CdrReader` / `XdrReader`) — see [`crate::interp`]. What differs
//! between the syntaxes (CDR's NUL-terminated strings and unpadded fixed
//! opaques, which block layout a fused scalar run takes, how wide a `bool`
//! is) is said once, in the trait impls here; the enums' own methods
//! forward to them, so a hand-driven `AnyWriter` and a program-driven one
//! cannot disagree.
//!
//! Every forwarder is `#[inline]`: the benchmark's profile has no LTO, so
//! without the attribute `AnyWriter::put_u32` → `CdrWriter::put_u32` →
//! `MsgBuf` is a chain of out-of-line cross-crate calls per primitive.

use flexrpc_core::fuse::{BlockLayout, ScalarBlock, SizeHint};
use flexrpc_marshal::buf::Window;
use flexrpc_marshal::cdr::{ByteOrder, CdrReader, CdrWriter};
use flexrpc_marshal::xdr::{XdrReader, XdrWriter};
use flexrpc_marshal::{MarshalError, WireFormat};

type MResult<T> = core::result::Result<T, MarshalError>;

/// One transfer syntax's writer as the interpreter drives it.
pub(crate) trait WireWrite {
    /// `bool` travels as a 4-byte 0/1 word (XDR) rather than one octet.
    const BOOL_WORD: bool;

    /// Finishes the message into `dst` in place (the writer is not moved);
    /// an unfilled window is a `WindowMisuse` and an empty `dst`.
    fn seal_into(&mut self, dst: &mut Vec<u8>) -> MResult<()>;

    fn put_u32(&mut self, v: u32);
    fn put_i32(&mut self, v: i32);
    fn put_u64(&mut self, v: u64);
    fn put_i64(&mut self, v: i64);
    fn put_bool(&mut self, v: bool);
    fn put_f64(&mut self, v: f64);
    fn put_str(&mut self, s: &str);
    fn put_str_bytes(&mut self, bytes: &[u8]);
    fn put_bytes(&mut self, bytes: &[u8]);
    fn put_bytes_fixed(&mut self, bytes: &[u8]);
    fn reserve(&mut self, additional: usize);
    fn reserve_payload(&mut self, len: usize) -> Window;
    fn fill_window_with<F>(&mut self, w: Window, f: F) -> MResult<()>
    where
        F: FnOnce(&mut [u8]) -> usize;

    /// The fixed bytes `hint` counts under this syntax's layout rules.
    fn fixed_bytes(hint: &SizeHint) -> usize;

    /// Appends the zeroed bytes of a fused block of two or more scalars,
    /// laid out as this syntax lays it out at the current position.
    /// Returns the layout, whether fields are big-endian, and the block.
    fn append_block<'b>(&mut self, blk: &'b ScalarBlock) -> (BlockLayout<'b>, bool, &mut [u8]);
}

/// One transfer syntax's reader as the interpreter drives it.
pub(crate) trait WireRead<'a> {
    /// `bool` travels as a 4-byte 0/1 word (XDR) rather than one octet.
    const BOOL_WORD: bool;

    fn get_u32(&mut self) -> MResult<u32>;
    fn get_i32(&mut self) -> MResult<i32>;
    fn get_u64(&mut self) -> MResult<u64>;
    fn get_i64(&mut self) -> MResult<i64>;
    fn get_bool(&mut self) -> MResult<bool>;
    fn get_f64(&mut self) -> MResult<f64>;
    fn get_str(&mut self) -> MResult<String>;
    fn get_str_bytes(&mut self) -> MResult<Vec<u8>>;
    fn get_bytes_borrowed(&mut self) -> MResult<&'a [u8]>;
    fn get_bytes_fixed_owned(&mut self, len: usize) -> MResult<Vec<u8>>;

    /// Consumes a fused block of two or more scalars with one bounds
    /// check. Returns the layout it has at the current position, whether
    /// fields are big-endian, and the block's bytes.
    fn take_block<'b>(
        &mut self,
        blk: &'b ScalarBlock,
    ) -> MResult<(BlockLayout<'b>, bool, &'a [u8])>;
}

/// The six scalar forwarders of a [`WireWrite`] / [`WireRead`] impl: each
/// is the concrete type's own primitive.
macro_rules! own_put {
    ($w:ty: $($name:ident($ty:ty)),*) => {
        $(
            #[inline]
            fn $name(&mut self, v: $ty) {
                <$w>::$name(self, v)
            }
        )*
    };
}

macro_rules! own_get {
    ($r:ty: $($name:ident -> $ty:ty),*) => {
        $(
            #[inline]
            fn $name(&mut self) -> MResult<$ty> {
                <$r>::$name(self)
            }
        )*
    };
}

impl WireWrite for XdrWriter {
    const BOOL_WORD: bool = true;

    #[inline]
    fn seal_into(&mut self, dst: &mut Vec<u8>) -> MResult<()> {
        XdrWriter::seal_into(self, dst)
    }

    own_put!(XdrWriter: put_u32(u32), put_i32(i32), put_u64(u64), put_i64(i64), put_bool(bool), put_f64(f64));

    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_string(s)
    }

    /// XDR strings are counted bytes, so the `length_is` form is free.
    #[inline]
    fn put_str_bytes(&mut self, bytes: &[u8]) {
        self.put_opaque(bytes)
    }

    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_opaque(bytes)
    }

    #[inline]
    fn put_bytes_fixed(&mut self, bytes: &[u8]) {
        self.put_opaque_fixed(bytes)
    }

    #[inline]
    fn reserve(&mut self, additional: usize) {
        XdrWriter::reserve(self, additional)
    }

    #[inline]
    fn reserve_payload(&mut self, len: usize) -> Window {
        self.reserve_opaque(len)
    }

    #[inline]
    fn fill_window_with<F>(&mut self, w: Window, f: F) -> MResult<()>
    where
        F: FnOnce(&mut [u8]) -> usize,
    {
        XdrWriter::fill_window_with(self, w, f)
    }

    #[inline]
    fn fixed_bytes(hint: &SizeHint) -> usize {
        hint.fixed_packed as usize
    }

    #[inline]
    fn append_block<'b>(&mut self, blk: &'b ScalarBlock) -> (BlockLayout<'b>, bool, &mut [u8]) {
        let layout = blk.packed();
        (layout, true, XdrWriter::append_block(self, layout.len as usize, layout.data_len as usize))
    }
}

impl WireWrite for CdrWriter {
    const BOOL_WORD: bool = false;

    #[inline]
    fn seal_into(&mut self, dst: &mut Vec<u8>) -> MResult<()> {
        CdrWriter::seal_into(self, dst)
    }

    own_put!(CdrWriter: put_u32(u32), put_i32(i32), put_u64(u64), put_i64(i64), put_bool(bool), put_f64(f64));

    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_string(s)
    }

    /// CDR strings count and carry a NUL terminator, appended here.
    #[inline]
    fn put_str_bytes(&mut self, bytes: &[u8]) {
        CdrWriter::put_u32(self, bytes.len() as u32 + 1);
        self.put_octets(bytes);
        self.put_u8(0);
    }

    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_sequence(bytes)
    }

    #[inline]
    fn put_bytes_fixed(&mut self, bytes: &[u8]) {
        self.put_octets(bytes)
    }

    #[inline]
    fn reserve(&mut self, additional: usize) {
        CdrWriter::reserve(self, additional)
    }

    #[inline]
    fn reserve_payload(&mut self, len: usize) -> Window {
        self.reserve_sequence(len)
    }

    #[inline]
    fn fill_window_with<F>(&mut self, w: Window, f: F) -> MResult<()>
    where
        F: FnOnce(&mut [u8]) -> usize,
    {
        CdrWriter::fill_window_with(self, w, f)
    }

    #[inline]
    fn fixed_bytes(hint: &SizeHint) -> usize {
        hint.fixed_aligned as usize
    }

    #[inline]
    fn append_block<'b>(&mut self, blk: &'b ScalarBlock) -> (BlockLayout<'b>, bool, &mut [u8]) {
        let layout = blk.aligned(self.position());
        let big = self.order() == ByteOrder::Big;
        (layout, big, CdrWriter::append_block(self, layout.len as usize, layout.data_len as usize))
    }
}

impl<'a> WireRead<'a> for XdrReader<'a> {
    const BOOL_WORD: bool = true;

    own_get!(XdrReader<'a>: get_u32 -> u32, get_i32 -> i32, get_u64 -> u64, get_i64 -> i64, get_bool -> bool, get_f64 -> f64);

    #[inline]
    fn get_str(&mut self) -> MResult<String> {
        self.get_string()
    }

    #[inline]
    fn get_str_bytes(&mut self) -> MResult<Vec<u8>> {
        Ok(self.get_opaque_borrowed()?.to_vec())
    }

    #[inline]
    fn get_bytes_borrowed(&mut self) -> MResult<&'a [u8]> {
        self.get_opaque_borrowed()
    }

    #[inline]
    fn get_bytes_fixed_owned(&mut self, len: usize) -> MResult<Vec<u8>> {
        Ok(self.get_opaque_fixed(len)?.to_vec())
    }

    #[inline]
    fn take_block<'b>(
        &mut self,
        blk: &'b ScalarBlock,
    ) -> MResult<(BlockLayout<'b>, bool, &'a [u8])> {
        let layout = blk.packed();
        Ok((layout, true, XdrReader::take_block(self, layout.len as usize)?))
    }
}

impl<'a> WireRead<'a> for CdrReader<'a> {
    const BOOL_WORD: bool = false;

    own_get!(CdrReader<'a>: get_u32 -> u32, get_i32 -> i32, get_u64 -> u64, get_i64 -> i64, get_bool -> bool, get_f64 -> f64);

    #[inline]
    fn get_str(&mut self) -> MResult<String> {
        self.get_string()
    }

    /// No UTF-8 validation; the NUL terminator is checked and stripped.
    #[inline]
    fn get_str_bytes(&mut self) -> MResult<Vec<u8>> {
        match self.get_sequence_borrowed()? {
            [body @ .., 0] => Ok(body.to_vec()),
            _ => Err(MarshalError::BadString),
        }
    }

    #[inline]
    fn get_bytes_borrowed(&mut self) -> MResult<&'a [u8]> {
        self.get_sequence_borrowed()
    }

    /// One bounds check for the whole field, before anything is
    /// allocated (CDR has no padding after a fixed octet array).
    #[inline]
    fn get_bytes_fixed_owned(&mut self, len: usize) -> MResult<Vec<u8>> {
        Ok(CdrReader::take_block(self, len)?.to_vec())
    }

    #[inline]
    fn take_block<'b>(
        &mut self,
        blk: &'b ScalarBlock,
    ) -> MResult<(BlockLayout<'b>, bool, &'a [u8])> {
        let layout = blk.aligned(self.position());
        let big = self.order() == ByteOrder::Big;
        Ok((layout, big, CdrReader::take_block(self, layout.len as usize)?))
    }
}

/// A wire-format-erased message writer.
#[derive(Debug)]
pub enum AnyWriter {
    /// Sun RPC XDR.
    Xdr(XdrWriter),
    /// CORBA-style CDR (native byte order).
    Cdr(CdrWriter),
}

/// Runs `$body` with `$w` bound to the concrete writer (or reader) inside
/// `$any` — the one place a format match is written.
macro_rules! on_wire {
    ($any:ident, $e:expr, $w:ident => $body:expr) => {
        match $e {
            $any::Xdr($w) => $body,
            $any::Cdr($w) => $body,
        }
    };
}
pub(crate) use on_wire;

macro_rules! fwd_put {
    ($($name:ident($ty:ty)),* $(,)?) => {
        $(
            /// Writes one primitive (dispatching on the wire format).
            #[inline]
            pub fn $name(&mut self, v: $ty) {
                on_wire!(AnyWriter, self, w => w.$name(v))
            }
        )*
    };
}

impl AnyWriter {
    /// Creates a writer for `format`.
    #[inline]
    pub fn new(format: WireFormat) -> AnyWriter {
        match format {
            WireFormat::Xdr => AnyWriter::Xdr(XdrWriter::new()),
            WireFormat::Cdr => AnyWriter::Cdr(CdrWriter::native()),
        }
    }

    /// Creates a writer reusing `buf`'s allocation (cleared first) — the
    /// steady-state stub path allocates nothing.
    #[inline]
    pub fn over(format: WireFormat, buf: Vec<u8>) -> AnyWriter {
        AnyWriter::behind(format, buf, 0)
    }

    /// Creates a writer reusing `buf`'s allocation that keeps its first
    /// `head` bytes and writes the message behind them, laid out as it is
    /// alone: a transport's header room, patched once the message is
    /// sealed.
    #[inline]
    pub(crate) fn behind(format: WireFormat, buf: Vec<u8>, head: usize) -> AnyWriter {
        match format {
            WireFormat::Xdr => AnyWriter::Xdr(XdrWriter::behind(buf, head)),
            WireFormat::Cdr => AnyWriter::Cdr(CdrWriter::native_behind(buf, head)),
        }
    }

    fwd_put! {
        put_u32(u32), put_i32(i32), put_u64(u64), put_i64(i64),
        put_bool(bool), put_f64(f64),
    }

    /// Writes a counted byte payload.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        on_wire!(AnyWriter, self, w => WireWrite::put_bytes(w, bytes))
    }

    /// Writes fixed-length opaque bytes (length checked by the caller).
    #[inline]
    pub fn put_bytes_fixed(&mut self, bytes: &[u8]) {
        on_wire!(AnyWriter, self, w => WireWrite::put_bytes_fixed(w, bytes))
    }

    /// Reserves a counted payload of exactly `len` bytes for in-place
    /// filling by a `[special]` hook.
    #[inline]
    pub(crate) fn reserve_payload(&mut self, len: usize) -> Window {
        on_wire!(AnyWriter, self, w => WireWrite::reserve_payload(w, len))
    }

    /// Fills a window reserved by [`AnyWriter::reserve_payload`].
    #[inline]
    pub(crate) fn fill_window_with<F>(&mut self, w: Window, f: F) -> MResult<()>
    where
        F: FnOnce(&mut [u8]) -> usize,
    {
        on_wire!(AnyWriter, self, wr => wr.fill_window_with(w, f))
    }

    /// Finishes the message.
    ///
    /// # Panics
    ///
    /// Panics on an unfilled reserve window (a stub-compiler bug, not user
    /// input).
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        on_wire!(AnyWriter, self, w => w.into_bytes())
    }

    /// Finishes the message into `dst`, where the caller keeps it, without
    /// moving the writer: the server's reply, which a work function may
    /// have left a window open in — `WindowMisuse` then, and an empty
    /// `dst`, never a panic.
    #[inline]
    pub(crate) fn seal_into(&mut self, dst: &mut Vec<u8>) -> MResult<()> {
        on_wire!(AnyWriter, self, w => WireWrite::seal_into(w, dst))
    }
}

/// A wire-format-erased message reader borrowing from the message.
#[derive(Debug)]
pub enum AnyReader<'a> {
    /// Sun RPC XDR.
    Xdr(XdrReader<'a>),
    /// CORBA-style CDR.
    Cdr(CdrReader<'a>),
}

macro_rules! fwd_get {
    ($($name:ident -> $ty:ty),* $(,)?) => {
        $(
            /// Reads one primitive (dispatching on the wire format).
            #[inline]
            pub fn $name(&mut self) -> MResult<$ty> {
                on_wire!(AnyReader, self, r => r.$name())
            }
        )*
    };
}

impl<'a> AnyReader<'a> {
    /// Creates a reader over `msg` for `format`.
    #[inline]
    pub fn new(format: WireFormat, msg: &'a [u8]) -> MResult<AnyReader<'a>> {
        Ok(match format {
            WireFormat::Xdr => AnyReader::Xdr(XdrReader::new(msg)),
            WireFormat::Cdr => AnyReader::Cdr(CdrReader::new(msg)?),
        })
    }

    fwd_get! {
        get_u32 -> u32, get_i32 -> i32, get_u64 -> u64, get_i64 -> i64,
        get_bool -> bool, get_f64 -> f64,
    }

    /// Reads a counted payload, borrowing from the message.
    #[inline]
    pub fn get_bytes_borrowed(&mut self) -> MResult<&'a [u8]> {
        on_wire!(AnyReader, self, r => WireRead::get_bytes_borrowed(r))
    }

    /// Reads fixed-length opaque bytes into an owned vector. Fixed opaque
    /// fields are small (file handles), so an owned copy is the right
    /// default on both formats. A message too short for the field fails
    /// with [`MarshalError::Truncated`] before anything is allocated.
    #[inline]
    pub fn get_bytes_fixed_owned(&mut self, len: usize) -> MResult<Vec<u8>> {
        on_wire!(AnyReader, self, r => WireRead::get_bytes_fixed_owned(r, len))
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        on_wire!(AnyReader, self, r => r.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The string forms reach the wire through the traits (the executor's
    // way in); these tests go the same way, format chosen at run time.
    impl AnyWriter {
        fn put_str(&mut self, s: &str) {
            on_wire!(AnyWriter, self, w => WireWrite::put_str(w, s))
        }
        fn put_str_bytes(&mut self, bytes: &[u8]) {
            on_wire!(AnyWriter, self, w => WireWrite::put_str_bytes(w, bytes))
        }
    }
    impl AnyReader<'_> {
        fn get_str(&mut self) -> MResult<String> {
            on_wire!(AnyReader, self, r => WireRead::get_str(r))
        }
        fn get_str_bytes(&mut self) -> MResult<Vec<u8>> {
            on_wire!(AnyReader, self, r => WireRead::get_str_bytes(r))
        }
    }

    fn roundtrip(format: WireFormat) {
        let mut w = AnyWriter::new(format);
        w.put_u32(1);
        w.put_i32(-2);
        w.put_u64(3);
        w.put_i64(-4);
        w.put_bool(true);
        w.put_f64(0.5);
        w.put_str("hi");
        w.put_str_bytes(b"raw");
        w.put_bytes(&[9, 8, 7]);
        w.put_bytes_fixed(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();

        let mut r = AnyReader::new(format, &bytes).unwrap();
        assert_eq!(r.get_u32().unwrap(), 1);
        assert_eq!(r.get_i32().unwrap(), -2);
        assert_eq!(r.get_u64().unwrap(), 3);
        assert_eq!(r.get_i64().unwrap(), -4);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), 0.5);
        assert_eq!(r.get_str().unwrap(), "hi");
        assert_eq!(r.get_str_bytes().unwrap(), b"raw");
        assert_eq!(r.get_bytes_borrowed().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.get_bytes_fixed_owned(4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn xdr_roundtrip() {
        roundtrip(WireFormat::Xdr);
    }

    #[test]
    fn cdr_roundtrip() {
        roundtrip(WireFormat::Cdr);
    }

    #[test]
    fn str_and_str_bytes_share_wire_form() {
        // The central interop property at the primitive level: a string
        // written as a checked string decodes as raw bytes and vice versa.
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w = AnyWriter::new(format);
            w.put_str("mixed");
            w.put_str_bytes(b"modes");
            let bytes = w.into_bytes();
            let mut r = AnyReader::new(format, &bytes).unwrap();
            assert_eq!(r.get_str_bytes().unwrap(), b"mixed");
            assert_eq!(r.get_str().unwrap(), "modes");
        }
    }

    #[test]
    fn reserve_and_fill() {
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w = AnyWriter::new(format);
            let win = w.reserve_payload(4);
            w.put_u32(0xCAFE);
            w.fill_window_with(win, |d| {
                d.copy_from_slice(&[1, 2, 3, 4]);
                4
            })
            .unwrap();
            let bytes = w.into_bytes();
            let mut r = AnyReader::new(format, &bytes).unwrap();
            assert_eq!(r.get_bytes_borrowed().unwrap(), vec![1, 2, 3, 4]);
            assert_eq!(r.get_u32().unwrap(), 0xCAFE);
        }
    }

    /// `length_is` strings and fixed opaques move in bulk; on CDR they used
    /// to move an octet at a time. That loop is kept here, written against
    /// the concrete writers' one-octet and one-word primitives, as the
    /// oracle: same wire bytes, same `bytes_written`, same values back. (It
    /// is an oracle, not a regression test — it held before the change too.)
    #[test]
    fn bulk_fields_match_the_octet_at_a_time_oracle() {
        fn written(w: &AnyWriter) -> u64 {
            match w {
                AnyWriter::Xdr(w) => w.bytes_written(),
                AnyWriter::Cdr(w) => w.bytes_written(),
            }
        }
        for len in [0usize, 1, 32, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();

            // A leading word, the string, the fixed field, a trailing word.
            let message = |format| {
                let mut w = AnyWriter::new(format);
                w.put_u32(0xAABB_CCDD);
                w.put_str_bytes(&data);
                w.put_bytes_fixed(&data);
                w.put_u32(7);
                let counted = written(&w);
                (w.into_bytes(), counted)
            };

            // CDR oracle: count + 1, each octet, the NUL; then each octet.
            let mut o = CdrWriter::native();
            o.put_u32(0xAABB_CCDD);
            o.put_u32(len as u32 + 1);
            for &b in &data {
                o.put_u8(b);
            }
            o.put_u8(0);
            for &b in &data {
                o.put_u8(b);
            }
            o.put_u32(7);
            let oracle = (o.bytes_written(), o.into_bytes());
            let (cdr, counted) = message(WireFormat::Cdr);
            assert_eq!((counted, &cdr), (oracle.0, &oracle.1), "cdr, {len} bytes");

            // XDR oracle, by hand: count, octets, zero pad to a word; then
            // octets and pad. Padding is not payload.
            let pad = vec![0u8; len.next_multiple_of(4) - len];
            let mut o = 0xAABB_CCDDu32.to_be_bytes().to_vec();
            o.extend_from_slice(&(len as u32).to_be_bytes());
            for _ in 0..2 {
                o.extend_from_slice(&data);
                o.extend_from_slice(&pad);
            }
            o.extend_from_slice(&7u32.to_be_bytes());
            let (xdr, counted) = message(WireFormat::Xdr);
            assert_eq!((counted, &xdr), ((4 + 4 + len + len + 4) as u64, &o), "xdr, {len} bytes");

            // Back out again; the fixed field against CDR's old octet loop.
            for (format, msg) in [(WireFormat::Cdr, &cdr), (WireFormat::Xdr, &xdr)] {
                let mut r = AnyReader::new(format, msg).unwrap();
                assert_eq!(r.get_u32().unwrap(), 0xAABB_CCDD);
                assert_eq!(r.get_str_bytes().unwrap(), data, "{format:?}, {len} bytes");
                if let AnyReader::Cdr(r) = &r {
                    let mut o = CdrReader::new(msg).unwrap();
                    for _ in 0..msg.len() - r.remaining() - 1 {
                        o.get_u8().unwrap();
                    }
                    let octets: Vec<u8> = (0..len).map(|_| o.get_u8().unwrap()).collect();
                    assert_eq!(octets, data);
                }
                assert_eq!(r.get_bytes_fixed_owned(len).unwrap(), data, "{format:?}, {len} bytes");
                assert_eq!(r.get_u32().unwrap(), 7);
                assert_eq!(r.remaining(), 0);
            }
        }
    }

    /// A message that ends inside a fixed opaque field is `Truncated`, and
    /// the error describes the field — how long it is, how much message
    /// was left for it — not its first missing octet.
    #[test]
    fn short_fixed_field_is_truncated_as_a_whole() {
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w = AnyWriter::new(format);
            w.put_bytes_fixed(&[9u8; 8]);
            let bytes = w.into_bytes();
            let mut r = AnyReader::new(format, &bytes).unwrap();
            let remaining = r.remaining();
            assert_eq!(
                r.get_bytes_fixed_owned(32).unwrap_err(),
                MarshalError::Truncated { needed: 32, remaining },
                "{format:?}"
            );
        }
    }

    #[test]
    fn borrowed_payload_offsets_resolve() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        w.put_bytes(b"window-me");
        let bytes = w.into_bytes();
        let mut r = AnyReader::new(WireFormat::Xdr, &bytes).unwrap();
        let s = r.get_bytes_borrowed().unwrap();
        let off = s.as_ptr() as usize - bytes.as_ptr() as usize;
        assert_eq!(&bytes[off..off + s.len()], b"window-me");
    }
}
