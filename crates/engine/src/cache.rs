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
//! The cache is **one table**: a `HashMap` behind an `RwLock`, and the two
//! counters the engine's registry adopts as `cache.hit` / `cache.miss`. It
//! holds a handful of entries (one per live combination) and sits off every
//! call path — the engine consults it only when a service has no replica
//! pool for a combination yet — so a hit is a read lock, a lookup and an
//! `Arc` clone, and a first request compiles under the write lock after a
//! second look: racing first requests still compile once, and a compile
//! that fails caches nothing.

use flexrpc_core::present::Trust;
use flexrpc_core::program::CompiledInterface;
use flexrpc_marshal::WireFormat;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

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

flexrpc_trace::instruments! {
    /// The cache's live counters, adopted under `cache.*` names.
    pub struct CacheCounters {
        /// Lookups that found their program compiled, and hits counted
        /// without a lookup by a caller already holding the program.
        hits: Counter = "cache.hit",
        /// Compilations performed, one per distinct combination.
        misses: Counter = "cache.miss",
    }
    /// Cache statistics snapshot.
    #[derive(Eq)]
    pub struct CacheStats {
        /// Programs currently cached (== misses while nothing is evicted).
        programs: usize,
    }
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when none yet).
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent map from combination keys to shared compilations.
#[derive(Default)]
pub struct ProgramCache {
    programs: RwLock<HashMap<ProgramKey, Arc<CompiledInterface>>>,
    pub(crate) counters: CacheCounters,
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Returns the program for `key`, compiling through `compile` only on
    /// the first request for this combination. Concurrent first requests
    /// serialize on the write lock and look again under it, so the
    /// combination still compiles exactly once; a hit takes the read lock
    /// only.
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
        if let Some(found) = self.get(&key) {
            self.count_hit();
            return Ok((found, false));
        }
        let mut programs = self.programs.write();
        // Look again: a racing first request may have compiled meanwhile.
        if let Some(found) = programs.get(&key) {
            self.count_hit();
            return Ok((Arc::clone(found), false));
        }
        let compiled = Arc::new(compile()?);
        programs.insert(key, Arc::clone(&compiled));
        self.counters.misses.inc();
        Ok((compiled, true))
    }

    /// Counts a hit without a lookup: for a caller that already holds what
    /// the lookup would return (the engine's replica pool for a combination
    /// holds its program).
    pub(crate) fn count_hit(&self) {
        self.counters.hits.inc();
    }

    /// Looks up without compiling (and without counting hits or misses).
    pub(crate) fn get(&self, key: &ProgramKey) -> Option<Arc<CompiledInterface>> {
        self.programs.read().get(key).map(Arc::clone)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot(self.programs.read().len())
    }

    /// Total compilations performed (one per distinct combination).
    pub fn compilations(&self) -> u64 {
        self.counters.misses.get()
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
    fn racing_first_requests_over_four_keys_compile_four_times() {
        const THREADS: u64 = 8;
        const KEYS: u64 = 4;
        const ROUNDS: u64 = 3;
        let cache = Arc::new(ProgramCache::new());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Every thread asks for every key, starting at its own.
                    for i in 0..KEYS * ROUNDS {
                        let k = key((t + i) % KEYS, Trust::None);
                        cache.get_or_compile(k, compile_fileio).unwrap();
                    }
                })
            })
            .collect();
        handles.into_iter().for_each(|h| h.join().unwrap());
        let s = cache.stats();
        assert_eq!((cache.compilations(), s.programs), (KEYS, KEYS as usize));
        assert_eq!(s.hits + s.misses, THREADS * KEYS * ROUNDS, "every lookup counted once");
        assert_eq!(s.misses, KEYS);
    }

    #[test]
    fn a_compile_failing_under_the_write_lock_leaves_the_key_to_the_next_request() {
        use std::sync::mpsc;
        let cache = Arc::new(ProgramCache::new());
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let failing = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compile(key(9, Trust::None), || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err::<CompiledInterface, _>("nope")
                })
            })
        };
        entered.recv().unwrap(); // The failing compile now holds the write lock.
        let (started_tx, started) = mpsc::channel();
        let racing = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                cache.get_or_compile(key(9, Trust::None), compile_fileio)
            })
        };
        started.recv().unwrap();
        release.send(()).unwrap();
        assert_eq!(failing.join().unwrap().unwrap_err(), "nope");
        let program = racing.join().unwrap().expect("the lock is not poisoned, the key not cached");
        assert!(Arc::ptr_eq(&program, &cache.get(&key(9, Trust::None)).unwrap()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.programs), (0, 1, 1), "the failure counted as nothing");
    }

    #[test]
    fn hit_path_takes_no_write_lock() {
        // Readers never exclude one another: a hit only ever takes the
        // read lock, never the write lock.
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
