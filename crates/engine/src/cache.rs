//! The shared program cache: one compilation per *combination signature*.
//!
//! The paper's runtime compiles a stub program for each combination of
//! wire contract, the two endpoints' presentations, and the trust they
//! negotiate. A server facing many clients would recompile the same
//! combination once per connection; the engine instead keys compiled
//! [`CompiledInterface`]s by [`ProgramKey`] so every later connection with
//! the same combination reuses the `Arc`'d program. Hit/miss counters make
//! the reuse observable — the acceptance tests assert
//! `compilations < connections`.
//!
//! The cache is **sharded and read-mostly**: keys hash to one of
//! [`SHARD_COUNT`] shards, and each shard publishes its map as an
//! `Arc<HashMap>` snapshot behind an `RwLock` that is only ever held long
//! enough to clone or swap the `Arc`. A hit therefore costs one `try_read`
//! (uncontended in steady state — contention is counted per shard, not
//! suffered silently), one `Arc` clone, and a hash lookup with no lock
//! held; compilation serializes per shard on a separate publish mutex and
//! installs a clone-on-publish copy of the map, so readers never wait
//! behind a compile.

use flexrpc_core::present::Trust;
use flexrpc_core::program::CompiledInterface;
use flexrpc_marshal::WireFormat;
use flexrpc_trace::{Counter, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent shards. A small power of two: the key space is
/// tiny (one entry per live combination), so this bounds contention, not
/// capacity.
pub const SHARD_COUNT: usize = 8;

/// The combination a compiled program is valid for. Two connections map to
/// the same program exactly when every component matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// The wire contract (signature hash) both endpoints share.
    pub signature: u64,
    /// Fingerprint of the server-side presentation.
    pub server_presentation: u64,
    /// Fingerprint of the client-side presentation.
    pub client_presentation: u64,
    /// Trust the server declares in its clients.
    pub server_trust: Trust,
    /// Trust the client declares in the server.
    pub client_trust: Trust,
    /// Negotiated transfer syntax.
    pub format: WireFormat,
}

/// Per-shard counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups this shard satisfied from its snapshot.
    pub hits: u64,
    /// Compilations this shard performed.
    pub misses: u64,
    /// Times the lock-free `try_read` lost to a concurrent publish and had
    /// to fall back to a blocking read.
    pub contended: u64,
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Lookups satisfied by an existing compilation.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Programs currently cached (== misses while nothing is evicted).
    pub programs: usize,
    /// Per-shard breakdown of the totals above.
    pub shards: [ShardStats; SHARD_COUNT],
    /// Threaded-code ops across all cached stub programs, before fusion.
    pub source_ops: u64,
    /// Interpreter dispatches across the same programs after fusion
    /// (`== source_ops` when specialization is off).
    pub fused_ops: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache shard: a published map snapshot plus its counters.
#[derive(Default)]
struct Shard {
    /// The read-mostly map. Readers clone the `Arc` under a momentary
    /// `try_read`; publishers swap in a rebuilt map under a momentary
    /// `write`. Nobody holds this lock across a lookup or a compile.
    map: RwLock<Arc<HashMap<ProgramKey, Arc<CompiledInterface>>>>,
    /// Serializes compilations for this shard's keys so a racing first
    /// request still compiles exactly once.
    publish: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    /// Clones the current map snapshot; the lock is released before the
    /// caller looks anything up. `rollup` is the cache-wide contention
    /// counter, bumped in step with this shard's.
    fn snapshot(&self, rollup: &Counter) -> Arc<HashMap<ProgramKey, Arc<CompiledInterface>>> {
        match self.map.try_read() {
            Some(g) => Arc::clone(&g),
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                rollup.inc();
                Arc::clone(&self.map.read())
            }
        }
    }
}

/// A concurrent map from combination keys to shared compilations.
#[derive(Default)]
pub struct ProgramCache {
    shards: [Shard; SHARD_COUNT],
    /// Cumulative op counts over every program ever compiled here, for the
    /// specialization report (before/after fusion).
    source_ops: AtomicU64,
    fused_ops: AtomicU64,
    /// Registry-adoptable rollups of the per-shard counters, bumped in
    /// step with them (`cache.hit` / `cache.miss` / `cache.contended`).
    hits_total: Counter,
    misses_total: Counter,
    contended_total: Counter,
}

fn shard_index(key: &ProgramKey) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARD_COUNT
}

/// Sums threaded ops and post-fusion dispatches over all four programs of
/// every procedure in a compiled interface.
fn op_totals(ci: &CompiledInterface) -> (u64, u64) {
    let mut source = 0u64;
    let mut fused = 0u64;
    for op in &ci.ops {
        for p in
            [&op.request_marshal, &op.request_unmarshal, &op.reply_marshal, &op.reply_unmarshal]
        {
            source += p.ops.len() as u64;
            fused += p.dispatch_count() as u64;
        }
    }
    (source, fused)
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Returns the program for `key`, compiling through `compile` only on
    /// the first request for this combination. Concurrent first requests
    /// for the same shard serialize on its publish mutex so the
    /// combination still compiles exactly once; hits never touch a
    /// write-capable lock.
    pub fn get_or_compile<E>(
        &self,
        key: ProgramKey,
        compile: impl FnOnce() -> Result<CompiledInterface, E>,
    ) -> Result<Arc<CompiledInterface>, E> {
        self.lookup(key, compile).map(|(program, _compiled)| program)
    }

    /// [`ProgramCache::get_or_compile`], also telling the caller whether
    /// *this* lookup ran `compile` — what a bind records in its trace. (A
    /// before/after difference of [`ProgramCache::compilations`] would
    /// credit it with a concurrent bind's compile of another combination.)
    pub(crate) fn lookup<E>(
        &self,
        key: ProgramKey,
        compile: impl FnOnce() -> Result<CompiledInterface, E>,
    ) -> Result<(Arc<CompiledInterface>, bool), E> {
        let shard = &self.shards[shard_index(&key)];
        if let Some(found) = shard.snapshot(&self.contended_total).get(&key) {
            self.count_hit_on(shard);
            return Ok((Arc::clone(found), false));
        }
        let _publish = shard.publish.lock();
        // Double-check: another thread may have published while we waited.
        if let Some(found) = shard.snapshot(&self.contended_total).get(&key) {
            self.count_hit_on(shard);
            return Ok((Arc::clone(found), false));
        }
        let compiled = Arc::new(compile()?);
        let (source, fused) = op_totals(&compiled);
        self.source_ops.fetch_add(source, Ordering::Relaxed);
        self.fused_ops.fetch_add(fused, Ordering::Relaxed);
        // Clone-on-publish: rebuild outside the lock, swap under it.
        let mut next = HashMap::clone(&shard.snapshot(&self.contended_total));
        next.insert(key, Arc::clone(&compiled));
        *shard.map.write() = Arc::new(next);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        self.misses_total.inc();
        Ok((compiled, true))
    }

    /// Counts a hit for `key` without looking its program up: for a caller
    /// that already holds what the lookup would return (the engine's
    /// replica pool for the combination holds the program).
    pub(crate) fn count_hit(&self, key: &ProgramKey) {
        self.count_hit_on(&self.shards[shard_index(key)]);
    }

    fn count_hit_on(&self, shard: &Shard) {
        shard.hits.fetch_add(1, Ordering::Relaxed);
        self.hits_total.inc();
    }

    /// Looks up without compiling (and without counting hits or misses).
    pub fn get(&self, key: &ProgramKey) -> Option<Arc<CompiledInterface>> {
        let shard = &self.shards[shard_index(key)];
        shard.snapshot(&self.contended_total).get(key).map(Arc::clone)
    }

    /// Adopts the cache-wide rollup counters into `registry` as
    /// `cache.hit`, `cache.miss`, and `cache.contended`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("cache.hit", &self.hits_total);
        registry.adopt_counter("cache.miss", &self.misses_total);
        registry.adopt_counter("cache.contended", &self.contended_total);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            hits: 0,
            misses: 0,
            programs: 0,
            shards: [ShardStats::default(); SHARD_COUNT],
            source_ops: self.source_ops.load(Ordering::Relaxed),
            fused_ops: self.fused_ops.load(Ordering::Relaxed),
        };
        for (shard, out) in self.shards.iter().zip(s.shards.iter_mut()) {
            out.hits = shard.hits.load(Ordering::Relaxed);
            out.misses = shard.misses.load(Ordering::Relaxed);
            out.contended = shard.contended.load(Ordering::Relaxed);
            s.hits += out.hits;
            s.misses += out.misses;
            s.programs += shard.snapshot(&self.contended_total).len();
        }
        s
    }

    /// Total compilations performed (one per distinct combination).
    pub fn compilations(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(f, "ProgramCache({} programs, {} hits, {} misses)", s.programs, s.hits, s.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::ir::fileio_example;
    use flexrpc_core::present::InterfacePresentation;

    fn key(client_fp: u64, trust: Trust) -> ProgramKey {
        ProgramKey {
            signature: 0xABCD,
            server_presentation: 1,
            client_presentation: client_fp,
            server_trust: Trust::None,
            client_trust: trust,
            format: WireFormat::Cdr,
        }
    }

    fn compile_fileio() -> Result<CompiledInterface, flexrpc_core::CoreError> {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface)?;
        CompiledInterface::compile(&m, iface, &pres)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(key(7, Trust::None), compile_fileio).unwrap();
        let b = cache.get_or_compile(key(7, Trust::None), compile_fileio).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same combination shares one program");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.programs), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn distinct_combinations_compile_separately() {
        let cache = ProgramCache::new();
        cache.get_or_compile(key(7, Trust::None), compile_fileio).unwrap();
        cache.get_or_compile(key(8, Trust::None), compile_fileio).unwrap();
        cache.get_or_compile(key(7, Trust::Leaky), compile_fileio).unwrap();
        assert_eq!(cache.compilations(), 3);
    }

    #[test]
    fn compile_failure_not_cached() {
        let cache = ProgramCache::new();
        let r: Result<_, String> = cache.get_or_compile(key(1, Trust::None), || Err("nope".into()));
        assert!(r.is_err());
        assert_eq!(cache.stats().programs, 0);
        // A later successful compile for the same key still works.
        cache.get_or_compile(key(1, Trust::None), compile_fileio).unwrap();
        assert_eq!(cache.stats().programs, 1);
    }

    #[test]
    fn concurrent_first_requests_compile_once() {
        let cache = Arc::new(ProgramCache::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compile(key(42, Trust::None), compile_fileio).unwrap()
                })
            })
            .collect();
        let programs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.compilations(), 1, "racing threads share one compile");
        assert!(programs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn shard_totals_match_rollup() {
        let cache = ProgramCache::new();
        for fp in 0..16 {
            cache.get_or_compile(key(fp, Trust::None), compile_fileio).unwrap();
            cache.get_or_compile(key(fp, Trust::None), compile_fileio).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.programs), (16, 16, 16));
        assert_eq!(s.shards.iter().map(|p| p.hits).sum::<u64>(), s.hits);
        assert_eq!(s.shards.iter().map(|p| p.misses).sum::<u64>(), s.misses);
        assert!(
            s.shards.iter().filter(|p| p.misses > 0).count() > 1,
            "distinct keys spread across shards"
        );
    }

    #[test]
    fn op_counts_show_fusion() {
        let cache = ProgramCache::new();
        cache.get_or_compile(key(1, Trust::None), compile_fileio).unwrap();
        let s = cache.stats();
        assert!(s.source_ops > 0);
        assert!(
            s.fused_ops < s.source_ops,
            "cached programs are fused: {} dispatches from {} ops",
            s.fused_ops,
            s.source_ops
        );
    }

    #[test]
    fn hit_path_takes_no_write_lock() {
        // A reader holding the shard snapshot read lock must not block a
        // concurrent hit — hits only ever try_read/read, never write.
        let cache = Arc::new(ProgramCache::new());
        cache.get_or_compile(key(5, Trust::None), compile_fileio).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert!(cache.get(&key(5, Trust::None)).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1);
    }
}
