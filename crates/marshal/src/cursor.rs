//! Format-agnostic borrowing reads over received messages.
//!
//! [`ReadCursor`] is a thin wrapper used by the stub interpreter when it does
//! not need full XDR/CDR semantics — e.g. walking a kernel IPC message whose
//! layout the bind-time combination signature already fixed. Its value is the
//! *borrowing* API: payload regions come back as slices into the receive
//! buffer, so whether a copy happens is decided by the presentation, not by
//! the decoder.

use crate::error::MarshalError;
use crate::Result;

/// A bounds-checked, borrowing read cursor over a received message.
///
/// # Examples
///
/// ```
/// use flexrpc_marshal::ReadCursor;
///
/// let msg = [0, 0, 0, 5, b'h', b'e', b'l', b'l', b'o'];
/// let mut c = ReadCursor::new(&msg);
/// assert_eq!(c.take(4).unwrap(), [0, 0, 0, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct ReadCursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ReadCursor<'a> {
    /// Creates a cursor at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        ReadCursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns `true` when fully consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the message.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Borrows the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MarshalError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Skips `n` bytes.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    /// The rest of the message as one borrowed slice (consumes it).
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.pos..];
        self.pos = self.data.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_and_skip() {
        let msg = [1, 2, 3, 4, 5];
        let mut c = ReadCursor::new(&msg);
        assert_eq!(c.take(2).unwrap(), &[1, 2]);
        c.skip(1).unwrap();
        assert_eq!(c.position(), 3);
        assert_eq!(c.rest(), &[4, 5]);
        assert!(c.is_empty());
    }

    #[test]
    fn take_past_end_rejected() {
        let msg = [1, 2];
        let mut c = ReadCursor::new(&msg);
        assert!(matches!(c.take(3), Err(MarshalError::Truncated { needed: 3, remaining: 2 })));
        // A failed take consumes nothing.
        assert_eq!(c.remaining(), 2);
    }
}
