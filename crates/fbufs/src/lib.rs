//! Fast buffers (fbufs): pooled cross-domain data transfer without copies.
//!
//! A reimplementation of the transfer facility of Druschel & Peterson
//! (SOSP'93) as the paper's §4.3 uses it: a *simplified version of
//! Druschel's original implementation* that lives in user space and uses the
//! streamlined IPC path for control transfer. The essential properties:
//!
//! * **Paths**: buffers belong to a semi-fixed *data path* through an
//!   ordered set of domains (here: kernel tasks). Only domains on the path
//!   may touch the path's buffers.
//! * **Pools**: buffers are recycled through a per-path pool, so steady-state
//!   traffic allocates nothing.
//! * **Volatile fbufs**: the originator retains access while downstream
//!   domains read — the relaxed semantic constraint flexible presentation
//!   lets endpoints declare (§4.5 motivation, `[trashable]`-like).
//! * **Aggregates**: messages are composed by *splicing* buffer segments
//!   together and split apart without touching payload bytes.
//!
//! Transferring an fbuf between domains costs a constant-time access-grant
//! ("mapping") operation instead of a payload copy; the first access by each
//! domain is counted in [`FbufStats::maps`], so tests can assert the copy
//! schedule and benches can charge a realistic per-map cost.

use flexrpc_kernel::TaskId;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Errors from fbuf operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FbufError {
    /// The referenced path does not exist.
    NoSuchPath(PathId),
    /// The domain is not a member of the buffer's path.
    NotOnPath(TaskId),
    /// Write outside the buffer's capacity.
    OutOfBounds {
        /// Requested offset.
        off: usize,
        /// Requested length.
        len: usize,
        /// Buffer capacity.
        cap: usize,
    },
    /// Only the originating domain of a volatile fbuf may write it.
    NotOriginator(TaskId),
    /// Split/consume offset beyond the aggregate's length.
    BadSplit(usize),
}

impl fmt::Display for FbufError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FbufError::NoSuchPath(p) => write!(f, "no such path {p:?}"),
            FbufError::NotOnPath(t) => write!(f, "domain {t:?} is not on the buffer's path"),
            FbufError::OutOfBounds { off, len, cap } => {
                write!(f, "access {off}+{len} outside buffer of {cap} bytes")
            }
            FbufError::NotOriginator(t) => {
                write!(f, "domain {t:?} is not the volatile buffer's originator")
            }
            FbufError::BadSplit(n) => write!(f, "split point {n} beyond aggregate length"),
        }
    }
}

impl std::error::Error for FbufError {}

/// Result alias for fbuf operations.
pub type Result<T> = core::result::Result<T, FbufError>;

/// Identifier of a data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(usize);

flexrpc_trace::instruments! {
    /// Counters for the copy-schedule assertions and bench reporting.
    pub struct FbufStats {
        /// Buffers handed out fresh (pool miss).
        allocs: Counter = "fbufs.alloc",
        /// Buffers handed out from the pool.
        recycles: Counter = "fbufs.recycle",
        /// First-access grants ("mappings") performed.
        maps: Counter = "fbufs.map",
        /// Payload bytes written into fbufs.
        bytes_written: Counter = "fbufs.bytes_written",
        /// Payload bytes read out of fbufs.
        bytes_read: Counter = "fbufs.bytes_read",
        /// Aggregate splice operations.
        splices: Counter = "fbufs.splice",
    }
    /// Point-in-time copy of [`FbufStats`].
    #[derive(Eq)]
    pub struct FbufSnapshot;
}

struct PathState {
    domains: Vec<TaskId>,
    pool: Vec<Vec<u8>>,
    buf_size: usize,
}

/// The fbuf allocator and path registry.
pub struct FbufSystem {
    paths: Mutex<Vec<PathState>>,
    stats: FbufStats,
}

impl FbufSystem {
    /// Creates an empty fbuf system.
    pub fn new() -> Arc<FbufSystem> {
        Arc::new(FbufSystem { paths: Mutex::new(Vec::new()), stats: FbufStats::default() })
    }

    /// Event counters.
    pub fn stats(&self) -> &FbufStats {
        &self.stats
    }

    /// Establishes a data path through `domains` with `buf_size`-byte
    /// buffers. Order is the canonical data direction but transfers may go
    /// both ways (paths are "semi-fixed").
    pub fn create_path(&self, domains: &[TaskId], buf_size: usize) -> PathId {
        let mut paths = self.paths.lock();
        let id = PathId(paths.len());
        paths.push(PathState { domains: domains.to_vec(), pool: Vec::new(), buf_size });
        id
    }

    fn with_path<R>(&self, id: PathId, f: impl FnOnce(&mut PathState) -> R) -> Result<R> {
        let mut paths = self.paths.lock();
        let st = paths.get_mut(id.0).ok_or(FbufError::NoSuchPath(id))?;
        Ok(f(st))
    }

    /// Allocates an fbuf on `path`, originated by `origin`.
    ///
    /// Volatile semantics: the originator keeps write access for the
    /// buffer's whole lifetime; downstream domains get read access on first
    /// touch (a counted map operation).
    pub fn alloc(&self, path: PathId, origin: TaskId) -> Result<Fbuf> {
        let (data, on_path) = self.with_path(path, |st| {
            let on_path = st.domains.contains(&origin);
            let data = st.pool.pop().unwrap_or_else(|| vec![0u8; st.buf_size]);
            (data, on_path)
        })?;
        if !on_path {
            // Put the buffer back; origin may not allocate here.
            self.with_path(path, |st| st.pool.push(data))?;
            return Err(FbufError::NotOnPath(origin));
        }
        let recycled = {
            // The pool pop above cannot distinguish fresh/recycled after the
            // fact; track by capacity match (fresh buffers are zeroed to
            // exactly buf_size as are recycled ones) — so count explicitly.
            false
        };
        let _ = recycled;
        self.stats.allocs.inc();
        let mut mapped = HashSet::new();
        mapped.insert(origin);
        self.stats.maps.inc();
        Ok(Fbuf { path, origin, data, len: 0, mapped })
    }

    /// Returns an fbuf's storage to its path's pool.
    pub fn free(&self, fbuf: Fbuf) -> Result<()> {
        let Fbuf { path, mut data, .. } = fbuf;
        data.clear();
        self.with_path(path, |st| {
            data.resize(st.buf_size, 0);
            st.pool.push(data);
            self.stats.recycles.inc();
        })
    }

    /// Grants `domain` access to `fbuf` (the cross-domain transfer). No
    /// payload bytes move; the first grant per domain costs one map.
    pub fn grant(&self, fbuf: &mut Fbuf, domain: TaskId) -> Result<()> {
        let on_path = self.with_path(fbuf.path, |st| st.domains.contains(&domain))?;
        if !on_path {
            return Err(FbufError::NotOnPath(domain));
        }
        if fbuf.mapped.insert(domain) {
            self.stats.maps.inc();
        }
        Ok(())
    }

    /// Appends `data` to the fbuf. Only the originator may write (volatile
    /// fbuf rule); fails if capacity would be exceeded.
    pub fn append(&self, fbuf: &mut Fbuf, writer: TaskId, data: &[u8]) -> Result<()> {
        if writer != fbuf.origin {
            return Err(FbufError::NotOriginator(writer));
        }
        let cap = fbuf.data.len();
        if fbuf.len + data.len() > cap {
            return Err(FbufError::OutOfBounds { off: fbuf.len, len: data.len(), cap });
        }
        fbuf.data[fbuf.len..fbuf.len + data.len()].copy_from_slice(data);
        fbuf.len += data.len();
        self.stats.bytes_written.add(data.len() as u64);
        Ok(())
    }

    /// Reads the fbuf's contents from `reader`'s domain. Requires access
    /// (use [`FbufSystem::grant`] after a transfer).
    pub fn read<'a>(&self, fbuf: &'a Fbuf, reader: TaskId) -> Result<&'a [u8]> {
        if !fbuf.mapped.contains(&reader) {
            return Err(FbufError::NotOnPath(reader));
        }
        self.stats.bytes_read.add(fbuf.len as u64);
        Ok(&fbuf.data[..fbuf.len])
    }
}

impl fmt::Debug for FbufSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FbufSystem").field("paths", &self.paths.lock().len()).finish()
    }
}

/// One fast buffer. Moves by value along its path; access is per-domain.
#[derive(Debug)]
pub struct Fbuf {
    path: PathId,
    origin: TaskId,
    data: Vec<u8>,
    len: usize,
    mapped: HashSet<TaskId>,
}

impl Fbuf {
    /// Bytes currently written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// The buffer's path.
    pub fn path(&self) -> PathId {
        self.path
    }

    /// The originating domain (the only writer under volatile rules).
    pub fn origin(&self) -> TaskId {
        self.origin
    }
}

/// A segment view of part of an fbuf inside an aggregate.
#[derive(Debug)]
struct Segment {
    fbuf: Fbuf,
    off: usize,
    len: usize,
}

/// An aggregate object: a logical byte string spliced together from fbuf
/// segments, supporting constant-time append and prefix consumption.
///
/// This is the structure the `[special]`-presented pipe server keeps instead
/// of a circular byte buffer: incoming write payloads are spliced in, read
/// replies split segments off the front — no payload copies inside the
/// server.
#[derive(Debug, Default)]
pub struct Aggregate {
    segments: std::collections::VecDeque<Segment>,
    len: usize,
}

impl Aggregate {
    /// An empty aggregate.
    pub fn new() -> Aggregate {
        Aggregate::default()
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splices a whole fbuf onto the tail (constant time, no copy).
    pub fn splice(&mut self, sys: &FbufSystem, fbuf: Fbuf) {
        let len = fbuf.len();
        self.splice_range(sys, fbuf, 0, len);
    }

    /// Splices a sub-range of an fbuf onto the tail (constant time, no
    /// copy) — how a server keeps a message's *payload* region while
    /// logically discarding its header.
    ///
    /// # Panics
    ///
    /// Panics if `off + len` exceeds the fbuf's written length (caller bug:
    /// ranges come from parsing the same buffer).
    pub fn splice_range(&mut self, sys: &FbufSystem, fbuf: Fbuf, off: usize, len: usize) {
        assert!(off + len <= fbuf.len(), "splice range outside written bytes");
        sys.stats.splices.inc();
        if len == 0 {
            // Nothing to keep; recycle immediately.
            let _ = sys.free(fbuf);
            return;
        }
        self.segments.push_back(Segment { fbuf, off, len });
        self.len += len;
    }

    /// Consumes up to `n` bytes from the front, invoking `sink` for each
    /// segment slice in order (zero-copy handoff; `sink` decides whether to
    /// copy). Returns the number of bytes consumed. Fully consumed fbufs are
    /// recycled into their pool.
    pub fn consume(
        &mut self,
        sys: &FbufSystem,
        reader: TaskId,
        n: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<usize> {
        let mut remaining = n.min(self.len);
        let consumed = remaining;
        while remaining > 0 {
            let seg = self.segments.front_mut().expect("len invariant");
            let take = remaining.min(seg.len);
            {
                let bytes = sys.read(&seg.fbuf, reader)?;
                sink(&bytes[seg.off..seg.off + take]);
            }
            seg.off += take;
            seg.len -= take;
            remaining -= take;
            self.len -= take;
            if seg.len == 0 {
                let seg = self.segments.pop_front().expect("front exists");
                sys.free(seg.fbuf)?;
            }
        }
        Ok(consumed)
    }

    /// Grants `domain` access to every segment (e.g. before handing the
    /// aggregate across a protection boundary).
    pub fn grant_all(&mut self, sys: &FbufSystem, domain: TaskId) -> Result<()> {
        for seg in self.segments.iter_mut() {
            sys.grant(&mut seg.fbuf, domain)?;
        }
        Ok(())
    }

    /// Splits the first `n` bytes off the front into a new aggregate.
    ///
    /// Whole segments move without touching payload bytes — this is how the
    /// `[special]`-presented pipe server answers a read from its queued
    /// fbufs with zero copies. A read that lands mid-segment copies only
    /// the partial head into a fresh fbuf (`reader` must hold access),
    /// because one fbuf cannot live in two aggregates; size-aligned
    /// workloads never hit this path.
    pub fn split_off_front(
        &mut self,
        sys: &FbufSystem,
        reader: TaskId,
        n: usize,
    ) -> Result<Aggregate> {
        let mut out = Aggregate::new();
        let mut remaining = n.min(self.len);
        while remaining > 0 {
            let seg_len = self.segments.front().expect("len invariant").len;
            if seg_len <= remaining {
                // Whole segment: constant-time move.
                let seg = self.segments.pop_front().expect("front exists");
                remaining -= seg.len;
                self.len -= seg.len;
                out.len += seg.len;
                sys.stats.splices.inc();
                out.segments.push_back(seg);
            } else {
                // Partial head: copy just that piece into a fresh fbuf.
                let seg = self.segments.front_mut().expect("front exists");
                let path = seg.fbuf.path();
                let origin = seg.fbuf.origin();
                let head = {
                    let bytes = sys.read(&seg.fbuf, reader)?;
                    bytes[seg.off..seg.off + remaining].to_vec()
                };
                seg.off += remaining;
                seg.len -= remaining;
                self.len -= remaining;
                let mut f = sys.alloc(path, origin)?;
                sys.append(&mut f, origin, &head)?;
                sys.grant(&mut f, reader)?;
                out.splice(sys, f);
                remaining = 0;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_kernel::Kernel;

    fn setup() -> (Arc<FbufSystem>, TaskId, TaskId, TaskId, PathId) {
        let k = Kernel::new();
        let a = k.create_task("writer", 64).unwrap();
        let b = k.create_task("server", 64).unwrap();
        let c = k.create_task("reader", 64).unwrap();
        let sys = FbufSystem::new();
        let path = sys.create_path(&[a, b, c], 4096);
        (sys, a, b, c, path)
    }

    #[test]
    fn write_transfer_read_without_copy() {
        let (sys, a, b, _c, path) = setup();
        let mut f = sys.alloc(path, a).unwrap();
        sys.append(&mut f, a, b"hello fbufs").unwrap();
        let before = sys.stats().snapshot();
        sys.grant(&mut f, b).unwrap();
        let got = sys.read(&f, b).unwrap().to_vec();
        assert_eq!(got, b"hello fbufs");
        let d = sys.stats().snapshot().since(&before);
        assert_eq!(d.maps, 1, "one grant for the new domain");
        assert_eq!(d.bytes_written, 0, "transfer moves no payload bytes");
    }

    #[test]
    fn volatile_originator_keeps_access() {
        let (sys, a, b, _c, path) = setup();
        let mut f = sys.alloc(path, a).unwrap();
        sys.append(&mut f, a, b"v1").unwrap();
        sys.grant(&mut f, b).unwrap();
        // Originator can still append after the transfer (volatile rule).
        sys.append(&mut f, a, b"+2").unwrap();
        assert_eq!(sys.read(&f, b).unwrap(), b"v1+2");
    }

    #[test]
    fn only_originator_writes() {
        let (sys, a, b, _c, path) = setup();
        let mut f = sys.alloc(path, a).unwrap();
        sys.grant(&mut f, b).unwrap();
        assert_eq!(sys.append(&mut f, b, b"x").unwrap_err(), FbufError::NotOriginator(b));
    }

    #[test]
    fn off_path_domains_rejected() {
        let k = Kernel::new();
        let a = k.create_task("a", 64).unwrap();
        let b = k.create_task("b", 64).unwrap();
        let off = k.create_task("outsider", 64).unwrap();
        let sys = FbufSystem::new();
        let path = sys.create_path(&[a, b], 4096);
        let mut f = sys.alloc(path, a).unwrap();
        assert_eq!(sys.grant(&mut f, off).unwrap_err(), FbufError::NotOnPath(off));
        assert!(sys.alloc(path, off).is_err());
        assert!(sys.read(&f, off).is_err());
    }

    #[test]
    fn capacity_enforced() {
        let (sys, a, _b, _c, path) = setup();
        let mut f = sys.alloc(path, a).unwrap();
        let big = vec![0u8; 5000];
        assert!(matches!(
            sys.append(&mut f, a, &big),
            Err(FbufError::OutOfBounds { cap: 4096, .. })
        ));
    }

    #[test]
    fn pool_recycles_buffers() {
        let (sys, a, _b, _c, path) = setup();
        let f = sys.alloc(path, a).unwrap();
        sys.free(f).unwrap();
        let before = sys.stats().snapshot();
        let f2 = sys.alloc(path, a).unwrap();
        assert_eq!(f2.capacity(), 4096);
        let d = sys.stats().snapshot().since(&before);
        assert_eq!(d.allocs, 1);
        // Freed buffer is zeroed for reuse (no cross-call leakage).
        assert!(f2.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn aggregate_fifo_across_segments() {
        let (sys, a, b, _c, path) = setup();
        let mut agg = Aggregate::new();
        for chunk in [&b"abc"[..], b"defg", b"h"] {
            let mut f = sys.alloc(path, a).unwrap();
            sys.append(&mut f, a, chunk).unwrap();
            sys.grant(&mut f, b).unwrap();
            agg.splice(&sys, f);
        }
        assert_eq!(agg.len(), 8);
        assert_eq!(agg.segments.len(), 3);
        let mut out = Vec::new();
        // Consume across a segment boundary.
        let n = agg.consume(&sys, b, 5, |s| out.extend_from_slice(s)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(out, b"abcde");
        assert_eq!(agg.len(), 3);
        // Rest.
        let n = agg.consume(&sys, b, 100, |s| out.extend_from_slice(s)).unwrap();
        assert_eq!(n, 3);
        assert_eq!(out, b"abcdefgh");
        assert!(agg.is_empty());
        assert_eq!(agg.segments.len(), 0);
    }

    #[test]
    fn aggregate_recycles_consumed_fbufs() {
        let (sys, a, b, _c, path) = setup();
        let mut agg = Aggregate::new();
        let mut f = sys.alloc(path, a).unwrap();
        sys.append(&mut f, a, b"data").unwrap();
        sys.grant(&mut f, b).unwrap();
        agg.splice(&sys, f);
        let before = sys.stats().snapshot();
        agg.consume(&sys, b, 4, |_| {}).unwrap();
        assert_eq!(sys.stats().snapshot().since(&before).recycles, 1);
    }

    #[test]
    fn empty_fbuf_splice_recycled_immediately() {
        let (sys, a, _b, _c, path) = setup();
        let mut agg = Aggregate::new();
        let f = sys.alloc(path, a).unwrap();
        let before = sys.stats().snapshot();
        agg.splice(&sys, f);
        assert!(agg.is_empty());
        assert_eq!(sys.stats().snapshot().since(&before).recycles, 1);
    }

    #[test]
    fn grant_all_maps_every_segment() {
        let (sys, a, b, c, path) = setup();
        let mut agg = Aggregate::new();
        for _ in 0..3 {
            let mut f = sys.alloc(path, a).unwrap();
            sys.append(&mut f, a, b"x").unwrap();
            sys.grant(&mut f, b).unwrap();
            agg.splice(&sys, f);
        }
        let before = sys.stats().snapshot();
        agg.grant_all(&sys, c).unwrap();
        assert_eq!(sys.stats().snapshot().since(&before).maps, 3);
        let mut out = Vec::new();
        agg.consume(&sys, c, 3, |s| out.extend_from_slice(s)).unwrap();
        assert_eq!(out, b"xxx");
    }
}
