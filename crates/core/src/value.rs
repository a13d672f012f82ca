//! Runtime values — the "stack frame" a stub program operates over.
//!
//! A call is represented as a flat slot array: the compiler assigns each
//! (flattened) parameter field a slot index, the client fills in-slots
//! before invoking, the interpreter fills out-slots from the reply. Flat
//! slots are the moral equivalent of the C activation record the paper's
//! generated stubs read and wrote.

use std::fmt;

/// A single slot value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Unset / no value.
    #[default]
    Null,
    /// 32-bit unsigned (also carries enum ordinals and booleans-as-words).
    U32(u32),
    /// 32-bit signed.
    I32(i32),
    /// 64-bit unsigned.
    U64(u64),
    /// 64-bit signed.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// IEEE double.
    F64(f64),
    /// Owned string.
    Str(String),
    /// Owned byte buffer.
    Bytes(Vec<u8>),
    /// A borrowed window into the *peer message* (offset, length): the
    /// zero-copy representation produced by borrowed-mode unmarshal ops.
    /// Resolved against the message via [`Value::window_of`].
    Window {
        /// Byte offset into the message.
        off: usize,
        /// Window length.
        len: usize,
    },
    /// A task-local port name (capability), transferred out-of-band.
    Port(u32),
    /// A reference-counted view of long-lived storage another endpoint
    /// owns — how a same-domain `dealloc(never)` server lends its buffer to
    /// the client with zero copies. Refcounting is the "fairly easy"
    /// solution to the synchronization issue the paper's footnote 5 waves
    /// at: the storage cannot be recycled while a lent view is live.
    Shared(std::sync::Arc<[u8]>),
}

impl Value {
    /// Extracts a `u32` (accepting `U32` only).
    #[inline]
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a `u64`.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts owned bytes by reference.
    #[inline]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Extracts a string slice.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Resolves this value to a byte slice, using `msg` for windows.
    ///
    /// Returns `None` for non-byte-like values or out-of-range windows.
    #[inline]
    pub fn window_of<'a>(&'a self, msg: &'a [u8]) -> Option<&'a [u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            Value::Str(s) => Some(s.as_bytes()),
            Value::Window { off, len } => msg.get(*off..*off + *len),
            Value::Shared(b) => Some(&b[..]),
            _ => None,
        }
    }

    /// Byte length of byte-like values (`Bytes`, `Str`, `Window`).
    #[inline]
    pub fn byte_len(&self) -> Option<usize> {
        match self {
            Value::Bytes(b) => Some(b.len()),
            Value::Str(s) => Some(s.len()),
            Value::Window { len, .. } => Some(*len),
            Value::Shared(b) => Some(b.len()),
            _ => None,
        }
    }

    /// One-word kind tag, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::U32(_) => "u32",
            Value::I32(_) => "i32",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::Bool(_) => "bool",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::Window { .. } => "window",
            Value::Port(_) => "port",
            Value::Shared(_) => "shared",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::U32(v) => write!(f, "{v}u32"),
            Value::I32(v) => write!(f, "{v}i32"),
            Value::U64(v) => write!(f, "{v}u64"),
            Value::I64(v) => write!(f, "{v}i64"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}f64"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Window { off, len } => write!(f, "window[{off}..+{len}]"),
            Value::Port(p) => write!(f, "port#{p}"),
            Value::Shared(b) => write!(f, "shared[{}]", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::U32(5).as_u32(), Some(5));
        assert_eq!(Value::U64(5).as_u32(), None);
        assert_eq!(Value::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn window_resolution() {
        let msg = [0u8, 1, 2, 3, 4];
        let w = Value::Window { off: 1, len: 3 };
        assert_eq!(w.window_of(&msg), Some(&[1u8, 2, 3][..]));
        let oob = Value::Window { off: 4, len: 3 };
        assert_eq!(oob.window_of(&msg), None);
        // Owned values resolve regardless of the message.
        assert_eq!(Value::Bytes(vec![9]).window_of(&[]), Some(&[9u8][..]));
    }

    #[test]
    fn byte_len_variants() {
        assert_eq!(Value::Bytes(vec![0; 4]).byte_len(), Some(4));
        assert_eq!(Value::Str("abc".into()).byte_len(), Some(3));
        assert_eq!(Value::Window { off: 0, len: 7 }.byte_len(), Some(7));
        assert_eq!(Value::U32(1).byte_len(), None);
    }

    #[test]
    fn shared_views() {
        let v = Value::Shared(std::sync::Arc::from(&b"stored"[..]));
        assert_eq!(v.window_of(&[]), Some(&b"stored"[..]));
        assert_eq!(v.byte_len(), Some(6));
        assert_eq!(v.kind(), "shared");
        assert_eq!(v.to_string(), "shared[6]");
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Bytes(vec![0; 10]).to_string(), "bytes[10]");
        assert_eq!(Value::Window { off: 2, len: 5 }.to_string(), "window[2..+5]");
        assert_eq!(Value::Port(3).to_string(), "port#3");
    }
}
