//! Growable message buffers with reserve-then-fill windows.
//!
//! A [`MsgBuf`] is the unit of data handed to a transport: the client stub
//! marshals arguments into one, the kernel (or network) moves its bytes into
//! the peer's address space, and the server stub unmarshals out of the copy.
//!
//! Two features exist specifically to support flexible presentation:
//!
//! * **Reserve/fill windows** (the writers' `reserve_payload`) let a `[special]`
//!   user marshal routine write payload bytes directly into their final
//!   position in the message, skipping the staging copy a conventional stub
//!   would do. This is the generated-stub equivalent of the hand-coded Linux
//!   NFS client calling `memcpy_fromfs` straight into the RPC buffer (§4.1).
//! * **Byte accounting** ([`MsgBuf::bytes_written`]) so tests can assert the
//!   *copy schedule* of an optimization (e.g. `dealloc(never)` removes
//!   exactly one payload-sized copy per read) independent of timing noise.
//!
//! Everything here is a leaf of the stub's per-call path, and every leaf is
//! `#[inline]`: the benchmark's profile has no LTO, so without the
//! attribute each append is an out-of-line call from another crate, three
//! deep under one `put_u32`. An aligned primitive (CDR's `put_u32` class)
//! is one capacity check, pad and store in a single append
//! (`put_aligned_4` / `put_aligned_8`), not `pad_to`'s `Vec::resize` — a
//! `memset` call for at most seven bytes — followed by a second
//! capacity-checked append; `bytes_written` is kept exactly as it was.

use crate::error::MarshalError;
use crate::Result;

/// A growable, sequentially-written message buffer.
///
/// Writes append at the tail. Alignment padding is explicit: the encoders in
/// [`crate::xdr`] and [`crate::cdr`] pad, so the padding policy stays a
/// property of the wire format, not of the buffer.
///
/// # Examples
///
/// ```
/// use flexrpc_marshal::MsgBuf;
///
/// let mut m = MsgBuf::new();
/// m.put_bytes(&[1, 2, 3]);
/// assert_eq!((m.as_slice(), m.bytes_written()), (&[1u8, 2, 3][..], 3));
/// ```
#[derive(Debug, Default, Clone)]
pub struct MsgBuf {
    data: Vec<u8>,
    /// Total payload bytes appended via `put_bytes`/window fills (excludes
    /// padding), for copy-schedule accounting.
    bytes_written: u64,
    /// Number of currently outstanding (unfilled) reserve windows.
    open_windows: usize,
    /// Where the message starts in `data`: the bytes before it are a head
    /// someone else writes (a transport's header room), and alignment is
    /// counted from here.
    origin: usize,
}

/// A reserved, not-yet-filled region inside a [`MsgBuf`].
///
/// Produced by a writer's `reserve_payload`; must be passed back to its
/// `fill_window_with` exactly once before the message is finished.
#[derive(Debug)]
#[must_use = "a reserved window must be filled before the message is sealed"]
pub struct Window {
    offset: usize,
    len: usize,
}

impl Window {
    /// Byte offset of the window inside the message.
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Length of the window in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a zero-length window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl MsgBuf {
    /// Creates an empty message buffer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with `cap` bytes preallocated.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        MsgBuf { data: Vec::with_capacity(cap), bytes_written: 0, open_windows: 0, origin: 0 }
    }

    /// Reuses `data`'s allocation for a message that starts behind its
    /// first `head` bytes: those are kept (zero-filled where `data` is
    /// shorter), everything else is cleared, and the message's alignment
    /// counts from `head`. A transport reserves its header room this way
    /// and patches it once the message is sealed; `head` 0 is a cleared
    /// buffer.
    #[inline]
    pub(crate) fn behind(mut data: Vec<u8>, head: usize) -> Self {
        data.resize(head, 0);
        MsgBuf { data, bytes_written: 0, open_windows: 0, origin: head }
    }

    /// Current length of the buffer in bytes (a head included).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Current write offset from the start of the message (behind any
    /// head): what alignment is counted from.
    #[inline]
    pub(crate) fn position(&self) -> usize {
        self.data.len() - self.origin
    }

    /// Zero bytes that bring the write offset to a multiple of `align`.
    #[inline]
    fn pad_for(&self, align: usize) -> usize {
        let at = self.position();
        crate::align_up(at, align) - at
    }

    /// Returns `true` if no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The encoded message so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Total payload bytes appended through this buffer (padding excluded).
    #[inline]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Appends raw bytes at the tail.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        self.bytes_written += bytes.len() as u64;
    }

    /// Pads with zeros so the write offset is a multiple of `align`.
    #[inline]
    pub(crate) fn pad_to(&mut self, align: usize) {
        let target = self.data.len() + self.pad_for(align);
        self.data.resize(target, 0);
    }

    /// Appends a 4-byte primitive at 4-byte alignment as one append: see
    /// [`MsgBuf::put_aligned_8`].
    #[inline]
    pub(crate) fn put_aligned_4(&mut self, bytes: [u8; 4]) {
        let (len, pad) = (self.data.len(), self.pad_for(4));
        if self.data.capacity() - len >= 8 {
            let word = u64::from(u32::from_le_bytes(bytes)) << (8 * pad);
            self.data.extend_from_slice(&word.to_le_bytes());
            self.data.truncate(len + pad + 4);
            self.bytes_written += 4;
        } else {
            self.put_padded(pad, bytes);
        }
    }

    /// Appends an 8-byte primitive at 8-byte alignment as one append. The
    /// pad (fewer than 8 zero bytes) and the value leave as the low bytes
    /// of one double-width little-endian word — `pad` zeros, then `bytes`
    /// in the order given — appended whole and cut back to what the field
    /// occupies: one capacity check and one store where `pad_to` +
    /// `put_bytes` made two checks and a `memset` call. The wide append is
    /// taken only where the buffer already has room for all of it; a
    /// buffer with less (a fresh one, an exactly presized one at its last
    /// field) takes the two-step form, so the buffer grows exactly when it
    /// always did. Padding is not payload: `bytes_written` grows by the
    /// field alone.
    #[inline]
    pub(crate) fn put_aligned_8(&mut self, bytes: [u8; 8]) {
        let (len, pad) = (self.data.len(), self.pad_for(8));
        if self.data.capacity() - len >= 16 {
            let word = u128::from(u64::from_le_bytes(bytes)) << (8 * pad);
            self.data.extend_from_slice(&word.to_le_bytes());
            self.data.truncate(len + pad + 8);
            self.bytes_written += 8;
        } else {
            self.put_padded(pad, bytes);
        }
    }

    /// `pad` zero bytes, then `bytes`: the aligned primitives on a buffer
    /// too full for their wide append. Still no `memset` call — the pad is
    /// fewer than 8 bytes, pushed one at a time — because one message
    /// lands here on every call: CDR's order flag and one `u32` fill a
    /// `Vec`'s smallest allocation exactly.
    #[inline]
    fn put_padded<const N: usize>(&mut self, pad: usize, bytes: [u8; N]) {
        for _ in 0..pad {
            self.data.push(0);
        }
        self.put_bytes(&bytes);
    }

    /// Ensures capacity for at least `additional` more bytes (exact-size
    /// presize: reserve once up front instead of growing mid-marshal).
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Bytes the buffer can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Appends a `len`-byte zeroed block at the tail and returns it mutably
    /// so a fused bulk op can write every field in place. `payload_len` is
    /// the portion counted as payload (field bytes; alignment padding
    /// excluded), matching what per-op writes would have accounted.
    #[inline]
    pub fn append_block(&mut self, len: usize, payload_len: usize) -> &mut [u8] {
        let offset = self.data.len();
        self.data.resize(offset + len, 0);
        self.bytes_written += payload_len as u64;
        &mut self.data[offset..]
    }

    /// Reserves a `len`-byte window at the tail for later direct filling.
    ///
    /// The window is zero-initialized so a message is never sent with
    /// uninitialized contents even if a fill is skipped (that skip still
    /// fails the assertion in `into_sealed`).
    #[inline]
    pub(crate) fn reserve_window(&mut self, len: usize) -> Window {
        let offset = self.data.len();
        self.data.resize(offset + len, 0);
        self.open_windows += 1;
        Window { offset, len }
    }

    /// Fills a previously reserved window through a user-supplied writer.
    ///
    /// This is the entry point used by `[special]` marshal hooks: the hook
    /// receives the window's bytes in place and writes the payload itself
    /// (for the NFS client this is the simulated `copyin` from user space).
    /// The hook reports how many bytes it produced; producing fewer than the
    /// window length is an error, matching the strictness of the kernel
    /// routines the paper wraps.
    #[inline]
    pub(crate) fn fill_window_with<F>(&mut self, w: Window, f: F) -> Result<()>
    where
        F: FnOnce(&mut [u8]) -> usize,
    {
        let wrote = f(&mut self.data[w.offset..w.offset + w.len]);
        if wrote != w.len {
            return Err(MarshalError::WindowMisuse("special hook filled wrong byte count"));
        }
        self.bytes_written += w.len as u64;
        self.open_windows -= 1;
        Ok(())
    }

    /// Finalizes the message for the writers' `into_bytes`, returning its
    /// bytes. An unfilled window is a bug. No `Result` is built on the way: through
    /// one, the vector's capacity word travels as the error type's pieces
    /// (tag byte, `u32`, …) and lands in the caller's `Vec` by four narrow
    /// stores, which the caller's next `capacity()` then reloads as one
    /// word — a store-forwarding stall on every reply.
    #[inline]
    pub(crate) fn into_sealed(self) -> Vec<u8> {
        assert!(self.open_windows == 0, "unfilled reserve window at end of encoding");
        self.data
    }

    /// Finalizes the message into `dst`, where the caller keeps it: the
    /// message's vector and `dst`'s trade places, and the writer stays
    /// where it is. Moving the writer out instead (`into_sealed`) copies it
    /// whole, and that copy's wide loads span the narrow stores the encoder
    /// just made to its length and counters — loads that cannot be
    /// forwarded from the store buffer and wait for it to drain.
    ///
    /// An unfilled window is not a panic here: this is how a message that
    /// someone else's code wrote into is finished (a work function that
    /// abandoned its window), and the message fails with
    /// [`MarshalError::WindowMisuse`], `dst` empty but its capacity kept.
    #[inline]
    pub(crate) fn seal_into(&mut self, dst: &mut Vec<u8>) -> Result<()> {
        std::mem::swap(&mut self.data, dst);
        if self.open_windows != 0 {
            dst.clear();
            return Err(MarshalError::WindowMisuse("unfilled reserve window at end of encoding"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_pad() {
        let mut m = MsgBuf::new();
        m.put_bytes(b"abcde");
        m.pad_to(4);
        assert_eq!(m.len(), 8);
        assert_eq!(&m.as_slice()[5..], &[0, 0, 0]);
        assert_eq!(m.bytes_written(), 5);
    }

    #[test]
    fn pad_when_already_aligned_is_noop() {
        let mut m = MsgBuf::new();
        m.put_bytes(&[0; 8]);
        m.pad_to(4);
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn window_fill_roundtrip() {
        let mut m = MsgBuf::new();
        m.put_bytes(&[0xAA]);
        m.pad_to(4);
        let w = m.reserve_window(4);
        m.put_bytes(&[0xBB]);
        m.fill_window_with(w, |dst| {
            dst.copy_from_slice(&[1, 2, 3, 4]);
            4
        })
        .unwrap();
        assert_eq!(m.into_sealed(), vec![0xAA, 0, 0, 0, 1, 2, 3, 4, 0xBB]);
    }

    #[test]
    #[should_panic(expected = "unfilled reserve window")]
    fn sealing_with_an_open_window_is_a_bug() {
        let mut m = MsgBuf::new();
        let _w = m.reserve_window(4);
        m.into_sealed();
    }

    #[test]
    fn sealing_into_trades_buffers_and_refuses_an_open_window() {
        let mut m = MsgBuf::behind(Vec::with_capacity(32), 0);
        m.put_bytes(b"abc");
        let mut dst = Vec::with_capacity(8);
        m.seal_into(&mut dst).unwrap();
        assert_eq!((&dst[..], dst.capacity()), (&b"abc"[..], 32), "the message's own vector");
        assert_eq!(m.capacity(), 8, "and the writer holds the one it was given");

        let mut m = MsgBuf::behind(Vec::with_capacity(32), 0);
        let _w = m.reserve_window(4);
        let err = m.seal_into(&mut dst).unwrap_err();
        assert!(matches!(err, MarshalError::WindowMisuse(_)));
        assert!(dst.is_empty() && dst.capacity() == 32, "emptied, capacity kept");
    }

    #[test]
    fn fill_window_with_hook() {
        let mut m = MsgBuf::new();
        let w = m.reserve_window(3);
        m.fill_window_with(w, |dst| {
            dst.copy_from_slice(b"xyz");
            3
        })
        .unwrap();
        assert_eq!(m.into_sealed(), b"xyz".to_vec());
    }

    #[test]
    fn fill_window_with_short_hook_rejected() {
        let mut m = MsgBuf::new();
        let w = m.reserve_window(3);
        let err = m.fill_window_with(w, |_| 2).unwrap_err();
        assert!(matches!(err, MarshalError::WindowMisuse(_)));
    }

    #[test]
    fn window_accessors() {
        let mut m = MsgBuf::new();
        m.put_bytes(&[9, 9]);
        let w = m.reserve_window(5);
        assert_eq!(w.offset(), 2);
        assert_eq!(w.len(), 5);
        assert!(!w.is_empty());
        m.fill_window_with(w, |_| 5).unwrap();
    }

    #[test]
    fn append_block_counts_payload_not_padding() {
        let mut m = MsgBuf::new();
        let block = m.append_block(16, 13);
        assert_eq!(block.len(), 16);
        block[0] = 0xAB;
        assert_eq!(m.len(), 16);
        assert_eq!(m.bytes_written(), 13);
        assert_eq!(m.as_slice()[0], 0xAB);
    }

    /// The one-append aligned primitives against what they replaced —
    /// `pad_to` then `put_bytes` — at every start phase, on a buffer with
    /// exactly the room the two-step form needs (too little for the wide
    /// append, which must not be taken) and on a roomy one.
    #[test]
    fn put_aligned_matches_pad_then_put() {
        let (four, eight) = ([0xA1, 0xB2, 0xC3, 0xD4], [1, 2, 3, 4, 5, 6, 7, 8]);
        for phase in 0..16usize {
            for roomy in [false, true] {
                let mut oracle = MsgBuf::new();
                oracle.put_bytes(&vec![0xEE; phase]);
                oracle.pad_to(4);
                oracle.put_bytes(&four);
                oracle.pad_to(8);
                oracle.put_bytes(&eight);
                oracle.pad_to(4);
                oracle.put_bytes(&four);

                let cap = if roomy { 64 } else { oracle.len() };
                let mut m = MsgBuf::with_capacity(cap);
                m.put_bytes(&vec![0xEE; phase]);
                m.put_aligned_4(four);
                m.put_aligned_8(eight);
                m.put_aligned_4(four);
                assert_eq!(m.as_slice(), oracle.as_slice(), "phase {phase}, roomy {roomy}");
                assert_eq!(m.bytes_written(), oracle.bytes_written(), "padding is not payload");
                assert_eq!(m.capacity(), cap, "grew only when the two-step form would");
            }
        }
    }

    /// A message behind a head is laid out as it is alone: the head is
    /// kept, padding counts from the message start whatever the head's
    /// length, and only the message's bytes count as written.
    #[test]
    fn a_message_behind_a_head_aligns_from_its_own_start() {
        let encode = |m: &mut MsgBuf| {
            m.put_bytes(&[0xEE]);
            m.put_aligned_4([1, 2, 3, 4]);
            m.put_aligned_8([5; 8]);
            m.pad_to(8);
        };
        let mut alone = MsgBuf::new();
        encode(&mut alone);
        for head in [0usize, 1, 4, 28, 29] {
            for cap in [0, 64] {
                let mut buf = Vec::with_capacity(cap);
                buf.extend_from_slice(&[0xAB; 3]);
                let mut m = MsgBuf::behind(buf, head);
                assert_eq!((m.len(), m.position()), (head, 0), "head {head}");
                encode(&mut m);
                let kept = head.min(3);
                assert_eq!(&m.as_slice()[..kept], &[0xAB; 3][..kept], "head {head}: kept");
                assert!(m.as_slice()[kept..head].iter().all(|&b| b == 0), "zero-filled");
                assert_eq!(&m.as_slice()[head..], alone.as_slice(), "head {head}, cap {cap}");
                assert_eq!(m.bytes_written(), alone.bytes_written());
            }
        }
    }

    #[test]
    fn reserve_preallocates() {
        let mut m = MsgBuf::new();
        m.reserve(1024);
        assert!(m.capacity() >= 1024);
        assert_eq!(m.len(), 0);
    }
}
