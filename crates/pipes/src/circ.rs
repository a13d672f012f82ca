//! The circular pipe buffer.
//!
//! A fixed-capacity ring with the access pattern the paper describes:
//! "incoming data written to the pipe gets stored into a
//! permanently-allocated, fixed-length circular buffer"; reads drain from
//! the head and "the buffer is likely to have more data than is requested
//! ... that data must be retained for future reads".
//!
//! `CircBuf::peek_front` exposes the readable bytes as (up to) two
//! contiguous slices *without consuming them*, which is exactly what the
//! `dealloc(never)` presentation needs: the reply stub marshals straight
//! out of these slices, and only then does the server [`CircBuf::consume`]
//! them.

/// A fixed-capacity circular byte buffer.
#[derive(Debug, Clone)]
pub struct CircBuf {
    data: Vec<u8>,
    head: usize,
    len: usize,
}

impl CircBuf {
    /// Creates a buffer holding up to `cap` bytes.
    pub fn new(cap: usize) -> CircBuf {
        CircBuf { data: vec![0; cap], head: 0, len: 0 }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of free space.
    pub(crate) fn space(&self) -> usize {
        self.capacity() - self.len
    }

    /// Appends as much of `src` as fits, returning the byte count written.
    pub fn write(&mut self, src: &[u8]) -> usize {
        let n = src.len().min(self.space());
        let cap = self.capacity();
        let tail = (self.head + self.len) % cap;
        let first = n.min(cap - tail);
        self.data[tail..tail + first].copy_from_slice(&src[..first]);
        let rest = n - first;
        self.data[..rest].copy_from_slice(&src[first..n]);
        self.len += n;
        n
    }

    /// The readable bytes as up to two contiguous slices (second is empty
    /// unless the data wraps). Does not consume.
    pub(crate) fn peek_front(&self, n: usize) -> (&[u8], &[u8]) {
        let n = n.min(self.len);
        let cap = self.capacity();
        let first = n.min(cap - self.head);
        let a = &self.data[self.head..self.head + first];
        let b = &self.data[..n - first];
        (a, b)
    }

    /// Drops `n` bytes from the front (they must have been peeked/copied).
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.len);
        self.head = (self.head + n) % self.capacity();
        self.len -= n;
    }

    /// Copies up to `n` front bytes into a fresh vector and consumes them —
    /// the *move-semantics* read (default CORBA presentation): one extra
    /// buffer-sized copy plus an allocation per read.
    pub(crate) fn read_move(&mut self, n: usize) -> Vec<u8> {
        let (a, b) = self.peek_front(n);
        let mut out = Vec::with_capacity(a.len() + b.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        self.consume(out.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_basic() {
        let mut c = CircBuf::new(8);
        assert_eq!(c.write(b"abcde"), 5);
        assert_eq!(c.read_move(3), b"abc");
        assert_eq!(c.read_move(10), b"de");
        assert!(c.is_empty());
    }

    #[test]
    fn write_respects_capacity() {
        let mut c = CircBuf::new(4);
        assert_eq!(c.write(b"abcdef"), 4);
        assert_eq!(c.space(), 0);
        assert_eq!(c.write(b"x"), 0);
        assert_eq!(c.read_move(4), b"abcd");
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut c = CircBuf::new(4);
        c.write(b"ab");
        assert_eq!(c.read_move(2), b"ab");
        // Head is now at 2; this write wraps.
        assert_eq!(c.write(b"wxyz"), 4);
        let (a, b) = c.peek_front(4);
        assert_eq!(a, b"wx");
        assert_eq!(b, b"yz");
        assert_eq!(c.read_move(4), b"wxyz");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut c = CircBuf::new(8);
        c.write(b"data");
        let (a, _) = c.peek_front(4);
        assert_eq!(a, b"data");
        assert_eq!(c.len(), 4);
        c.consume(2);
        let (a, _) = c.peek_front(4);
        assert_eq!(a, b"ta");
    }

    #[test]
    fn peek_contiguous_when_not_wrapped() {
        let mut c = CircBuf::new(8);
        c.write(b"abcdef");
        let (a, b) = c.peek_front(6);
        assert_eq!(a.len(), 6);
        assert!(b.is_empty());
    }

    #[test]
    fn interleaved_stream_integrity() {
        // Random-ish interleaving of writes and reads must preserve the
        // byte stream exactly.
        let mut c = CircBuf::new(16);
        let src: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut fed = 0usize;
        let mut got = Vec::new();
        let mut step = 0usize;
        while got.len() < src.len() {
            step += 1;
            if !step.is_multiple_of(3) && fed < src.len() {
                fed += c.write(&src[fed..(fed + 7).min(src.len())]);
            } else {
                got.extend_from_slice(&c.read_move(5));
            }
        }
        assert_eq!(got, src);
    }

    #[test]
    fn consume_clamps() {
        let mut c = CircBuf::new(4);
        c.write(b"ab");
        c.consume(10);
        assert!(c.is_empty());
    }
}
