//! Server-side at-most-once reply cache.
//!
//! Classic RPC duplicate suppression (Birrell & Nelson): the server keeps
//! the reply of each completed call keyed by the caller's
//! [`CallTag`] — (client binding id, sequence number) — and answers a
//! retransmitted or retried call from the cache instead of re-executing
//! the handler. This is what licenses retrying *non*-idempotent
//! operations: a resend is observationally one execution.
//!
//! Entries expire after a TTL measured on the deterministic [`SimClock`]
//! (a client that waits longer than the TTL between attempts is back to
//! at-least-once, as real reply caches are). Eviction happens on the
//! *record* path; the *replay* (cache-hit) path does a single map lookup
//! and a copy into the caller's reused buffers — zero heap allocations
//! once those buffers are warm, preserving the runtime's steady-state
//! allocation guarantee.
//!
//! # Eviction is O(expired), not O(live)
//!
//! Every entry has the same TTL on one monotone clock, so entries expire
//! in the order they were recorded. The cache keeps that order in a queue
//! of `(expires_ns, tag)` beside the map, and `record` pops the queue's
//! front while it has expired: work proportional to what actually
//! expired, amortised O(1) per record, independent of how many entries
//! the TTL keeps live. (A scan of the whole map per record measured
//! ≈ 1,000 ns of a ≈ 1,950 ns Sun RPC call at 620 live entries, and is
//! quadratic on a clock that never advances.) The clock is read under
//! the cache's lock, so queue order is expiry order even with several
//! engine workers recording at once. A queue node whose tag has since
//! been re-recorded, or evicted by `replay`, no longer matches the map
//! entry's `expires_ns` and is skipped — the entries left after any
//! `record` are exactly the ones a full scan for `now <= expires_ns`
//! would have kept.
//!
//! # One hash per executed call
//!
//! An executed tagged call touches the map three times — the `replay` that
//! misses, the `record` that inserts, and the lookup of each expired tag
//! the record sweeps — and would hash a tag on each. The map is keyed by
//! `HashedTag` instead, a tag together with its hash, behind a hasher
//! that passes that hash through: the server computes it once
//! (`ReplyCache::hashed`), carries it from the miss to the record, and
//! the expiry queue's nodes keep theirs. The hash itself stays the
//! standard library's *keyed* SipHash under a key drawn per cache
//! (`RandomState`), not something cheaper: tags arrive off the wire, and a
//! client that could predict bucket placement could pile its tags into one
//! chain of a map every tenant shares.
//!
//! # Reply bytes are kept the way they expire: in FIFO slabs
//!
//! The same order that lets the sweep stop at the first live node decides
//! where the bytes go. `record` appends each reply to the newest of a queue
//! of 64 KiB slabs (`SLAB_BYTES`, a constant), and the entry keeps (slab,
//! offset, length) instead of a vector of its own. Each expiry node carries
//! the slab its record wrote to; slabs are appended in record order, so
//! once the sweep has advanced the queue's front, every slab older than the
//! front node's is wholly expired and is released. One released slab is
//! kept as the spare the next slab is taken from; the others are freed. A
//! reply larger than a slab gets a slab of its own; an empty reply takes no
//! space.
//!
//! The bound: the bytes written into held slabs plus the spare are at most
//! the bytes recorded within one TTL of the last record, plus two slabs
//! (the front slab's older bytes and the spare; a slab is 64 KiB, or one
//! larger reply's own). Beyond that a slab's capacity is unwritten room —
//! the newest slab's, and in each filled slab less than the reply that did
//! not fit it.
//!
//! This is not the buffer recycling this cache once measured and rejected:
//! handing each evicted `Vec` to a new entry made every buffer creep to the
//! largest reply it ever held (times `Vec`'s growth factor), and with TTL
//! × call-rate of them live it moved `sunrpc_tagged`'s `peak_rss_mb`
//! 4.45 → 5.37 (+20.7 %) and still allocated on regrowth. A slab holds
//! replies at their exact lengths, back to back, so what the cache holds
//! follows the bytes one TTL recorded, not the largest reply. On
//! `sunrpc_tagged` (512..=1536 B replies, ≈ 620 live entries, ≈ 10 slabs)
//! the record path's allocation and free per executed call are gone — a
//! fresh call allocates only the work function's payload, 2 → 1
//! allocations and 2,057.5 → 1,024 B a call — for `peak_rss_mb` 4.48 →
//! 4.52 (+0.9 %); the traced record fell 158 → 94 ns.

use crate::policy::CallTag;
use flexrpc_clock::SimClock;
use flexrpc_trace::{CounterStripe, MetricsRegistry};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Capacity of one slab of recorded reply bytes.
const SLAB_BYTES: usize = 64 * 1024;

struct CachedReply {
    /// Id of the slab holding the reply's bytes (see [`Slabs`]).
    slab: u64,
    offset: usize,
    len: usize,
    rights: Box<[u32]>,
    /// Absolute sim-time at which this entry stops suppressing.
    expires_ns: u64,
}

flexrpc_trace::instruments! {
    /// The cache's live counters. The three tallies' totals are the
    /// stripes the cache's entries write, folded; `entries` is set under
    /// the cache's lock whenever the map changes.
    pub struct ReplyCacheCounters {
        /// Tagged calls whose handler actually ran (cache misses).
        executions: Counter = "replycache.execution",
        /// Tagged calls answered from the cache (handler *not* run).
        suppressions: Counter = "replycache.suppression",
        /// Entries removed because their TTL passed.
        evictions: Counter = "replycache.eviction",
        /// Entries currently held.
        entries: Counter = "replycache.entries",
    }
    /// Counters describing the cache's effect on execution semantics.
    #[derive(Eq)]
    pub struct ReplyCacheStats;
}

/// A [`CallTag`] with one cache's keyed hash of it ([`ReplyCache::hashed`]),
/// so the tag is hashed once however many times the map is asked about it.
/// Equality is the tag's: the hash only says where to look.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashedTag {
    hash: u64,
    tag: CallTag,
}

impl PartialEq for HashedTag {
    fn eq(&self, other: &HashedTag) -> bool {
        self.tag == other.tag
    }
}

impl Eq for HashedTag {}

impl Hash for HashedTag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The map's hasher: hands back the hash a [`HashedTag`] already carries.
#[derive(Default)]
struct CarriedHash(u64);

impl Hasher for CarriedHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a HashedTag writes exactly one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One `record`'s place in expiry order.
struct ExpiryNode {
    expires_ns: u64,
    tag: HashedTag,
    /// The slab the record wrote to: no entry recorded at or after this
    /// node refers to an older one.
    slab: u64,
}

/// Recorded reply bytes, in record order: a queue of slabs, each filled
/// front to back and never grown. Ids count every slab ever queued, so an
/// entry's id stays valid while older slabs are released in front of it.
#[derive(Default)]
struct Slabs {
    queue: VecDeque<Vec<u8>>,
    /// Id of `queue[0]`.
    first: u64,
    /// A released slab, emptied, for the next one to reuse.
    spare: Option<Vec<u8>>,
}

impl Slabs {
    /// Id of the newest slab — the one the next reply goes to if it fits.
    fn newest(&self) -> u64 {
        self.first + (self.queue.len() as u64).saturating_sub(1)
    }

    /// Copies `reply` to the end of the newest slab, starting a slab when
    /// it has no room; returns the slab's id and the reply's offset in it.
    fn append(&mut self, reply: &[u8]) -> (u64, usize) {
        if reply.is_empty() {
            return (self.newest(), 0);
        }
        let room = self.queue.back().map_or(0, |slab| slab.capacity() - slab.len());
        if room < reply.len() {
            let slab = match self.spare.take() {
                Some(spare) if reply.len() <= SLAB_BYTES => spare,
                spare => {
                    self.spare = spare;
                    Vec::with_capacity(reply.len().max(SLAB_BYTES))
                }
            };
            self.queue.push_back(slab);
        }
        let slab = self.queue.back_mut().expect("a slab with room was just queued");
        let offset = slab.len();
        slab.extend_from_slice(reply);
        (self.newest(), offset)
    }

    /// The bytes `reply` was recorded with.
    fn bytes(&self, reply: &CachedReply) -> &[u8] {
        if reply.len == 0 {
            return &[];
        }
        let slab = &self.queue[(reply.slab - self.first) as usize];
        &slab[reply.offset..reply.offset + reply.len]
    }

    /// Releases every slab older than `keep`, keeping one that is not
    /// oversized as the spare.
    fn release_before(&mut self, keep: u64) {
        while self.first < keep {
            let Some(mut slab) = self.queue.pop_front() else { break };
            self.first += 1;
            if self.spare.is_none() && slab.capacity() <= SLAB_BYTES {
                slab.clear();
                self.spare = Some(slab);
            }
        }
    }
}

/// Everything `record` and `replay` change, under the cache's one lock —
/// which makes the lock holder the only writer of the tallies' stripes.
struct Entries {
    map: HashMap<HashedTag, CachedReply, BuildHasherDefault<CarriedHash>>,
    /// One node per `record` (but see the same-instant rule in
    /// `record_hashed`), oldest first — which, with one TTL on a monotone
    /// clock, is expiry order. A node is *stale* (and skipped) once the
    /// map's entry for its tag carries a different `expires_ns` or is gone.
    expiry: VecDeque<ExpiryNode>,
    slabs: Slabs,
    executions: CounterStripe,
    suppressions: CounterStripe,
    evictions: CounterStripe,
}

/// A TTL-bounded map from [`CallTag`] to the completed reply bytes.
///
/// Shared (`Arc`) between the transport/server glue that consults it and
/// the test or supervisor that reads its counters. Per-binding isolation
/// is structural: the binding id is part of the key, so two clients can
/// never see each other's replies even with colliding sequence numbers.
pub struct ReplyCache {
    clock: Arc<SimClock>,
    ttl_ns: u64,
    /// This cache's SipHash key: the one hasher a tag ever meets.
    keys: RandomState,
    entries: Mutex<Entries>,
    counters: ReplyCacheCounters,
}

impl std::fmt::Debug for ReplyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyCache").field("ttl_ns", &self.ttl_ns).finish_non_exhaustive()
    }
}

impl ReplyCache {
    /// Creates a cache whose entries expire `ttl` after being recorded,
    /// measured on `clock`.
    pub fn new(clock: Arc<SimClock>, ttl: Duration) -> Arc<ReplyCache> {
        let counters = ReplyCacheCounters::default();
        let entries = Entries {
            map: HashMap::default(),
            expiry: VecDeque::new(),
            slabs: Slabs::default(),
            executions: counters.executions.stripe(),
            suppressions: counters.suppressions.stripe(),
            evictions: counters.evictions.stripe(),
        };
        Arc::new(ReplyCache {
            clock,
            ttl_ns: u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX),
            keys: RandomState::new(),
            entries: Mutex::new(entries),
            counters,
        })
    }

    /// Adopts the cache's counters into `registry` under their
    /// `replycache.*` names.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.counters.register_metrics(registry);
    }

    /// Hashes `tag` under this cache's key — once per call; the result
    /// serves the `replay` that misses and the `record` that follows.
    #[inline]
    pub(crate) fn hashed(&self, tag: CallTag) -> HashedTag {
        // `self.keys.hash_one(tag)`, spelled out (a test holds the two
        // equal): a tag's identity is its binding and sequence number,
        // written as `CallTag`'s own `Hash` writes them. Each word goes
        // through a function of its own because that is where the compiler
        // specializes SipHash's byte-slice `write` for eight bytes; called
        // through `hash_one` it stayed the general routine, ≈ 10 ns slower
        // a word.
        #[inline(never)]
        fn word(hasher: &mut std::hash::DefaultHasher, v: u64) {
            hasher.write_u64(v);
        }
        let mut hasher = self.keys.build_hasher();
        word(&mut hasher, tag.binding);
        word(&mut hasher, tag.seq);
        HashedTag { hash: hasher.finish(), tag }
    }

    /// Answers a duplicate: if `tag` has a live cached reply, copies it
    /// into `reply`/`rights_out` (cleared first) and returns `true` — the
    /// handler must not run. An expired entry is evicted and misses.
    pub fn replay(&self, tag: CallTag, reply: &mut Vec<u8>, rights_out: &mut Vec<u32>) -> bool {
        self.replay_hashed(self.hashed(tag), 0, reply, rights_out)
    }

    /// [`ReplyCache::replay`] for a tag already hashed, the cached reply
    /// written behind the first `head` bytes of `reply`, which a hit keeps
    /// (zero-filled where `reply` is shorter) for the transport's header:
    /// the bytes a dispatch behind the same head would have left.
    #[inline]
    pub(crate) fn replay_hashed(
        &self,
        tag: HashedTag,
        head: usize,
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> bool {
        let mut guard = self.entries.lock().expect("reply cache lock");
        let Entries { map, slabs, suppressions, evictions, .. } = &mut *guard;
        let Some(entry) = map.get(&tag) else { return false };
        if self.clock.expired(entry.expires_ns) {
            // Its queue node stays behind, stale; `record` skips it. So do
            // its bytes, until the sweep passes their slab.
            map.remove(&tag);
            evictions.add(1);
            self.counters.entries.set(map.len() as u64);
            return false;
        }
        reply.resize(head, 0);
        reply.extend_from_slice(slabs.bytes(entry));
        rights_out.clear();
        rights_out.extend_from_slice(&entry.rights);
        suppressions.add(1);
        true
    }

    /// Records the reply of a freshly executed call and counts the
    /// execution. Expired entries are evicted here, off the hit path, in
    /// expiry order: the cost is what expired, not what is live.
    pub fn record(&self, tag: CallTag, reply: &[u8], rights: &[u32]) {
        self.record_hashed(self.hashed(tag), reply, rights);
    }

    /// [`ReplyCache::record`] for a tag already hashed.
    pub(crate) fn record_hashed(&self, tag: HashedTag, reply: &[u8], rights: &[u32]) {
        let mut guard = self.entries.lock().expect("reply cache lock");
        let Entries { map, expiry, slabs, executions, evictions, .. } = &mut *guard;
        executions.add(1);
        // Read under the lock: concurrent recorders then queue in the
        // order of their `now`, which is what makes the front the oldest.
        let now = self.clock.now_ns();
        let expires_ns = now.saturating_add(self.ttl_ns);
        let mut swept = 0u64;
        while let Some(node) = expiry.front() {
            if now <= node.expires_ns {
                break;
            }
            if let Entry::Occupied(e) = map.entry(node.tag) {
                if e.get().expires_ns == node.expires_ns {
                    e.remove();
                    swept += 1;
                }
            }
            expiry.pop_front();
        }
        evictions.add(swept);
        slabs.release_before(expiry.front().map_or(slabs.newest(), |node| node.slab));
        let (slab, offset) = slabs.append(reply);
        let entry =
            CachedReply { slab, offset, len: reply.len(), rights: rights.into(), expires_ns };
        // A live tag re-recorded at the same instant already has its node,
        // whose slab is no newer than the one just written.
        if map.insert(tag, entry).is_none_or(|replaced| replaced.expires_ns != expires_ns) {
            expiry.push_back(ExpiryNode { expires_ns, tag, slab });
        }
        self.counters.entries.set(map.len() as u64);
    }

    /// Current counters — the same cells a [`MetricsRegistry`] snapshot
    /// reads after [`ReplyCache::register_metrics`].
    pub fn stats(&self) -> ReplyCacheStats {
        // Under the lock every stripe's writer and the gauge's setter
        // take: the four agree.
        let _entries = self.entries.lock().expect("reply cache lock");
        self.counters.snapshot()
    }

    /// The configured TTL in nanoseconds.
    pub fn ttl_ns(&self) -> u64 {
        self.ttl_ns
    }

    /// The clock entries expire against.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tag(binding: u64, seq: u64) -> CallTag {
        CallTag::new(binding, seq)
    }

    #[test]
    fn replay_hits_only_the_recording_binding() {
        let cache = ReplyCache::new(SimClock::new(), Duration::from_secs(1));
        cache.record(tag(1, 0), b"reply-a", &[7]);
        let (mut r, mut rr) = (Vec::new(), Vec::new());
        assert!(cache.replay(tag(1, 0), &mut r, &mut rr));
        assert_eq!(r, b"reply-a");
        assert_eq!(rr, vec![7]);
        // Same seq, different binding: structurally isolated.
        assert!(!cache.replay(tag(2, 0), &mut r, &mut rr));
        let s = cache.stats();
        assert_eq!((s.executions, s.suppressions), (1, 1));
    }

    /// Tenancy is outside a tag's identity, and must stay outside it
    /// through the hashed key: a failover that re-issues a call under
    /// different tenancy metadata is still answered from the cache, both
    /// through the public entries and through the hashed form the server
    /// carries from the miss to the record.
    #[test]
    fn tags_differing_only_in_tenant_replay_each_other() {
        use crate::policy::TenantId;
        let cache = ReplyCache::new(SimClock::new(), Duration::from_secs(1));
        let (plain, charged) = (tag(1, 0), CallTag::for_tenant(1, 0, TenantId(7)));
        assert_eq!(cache.hashed(plain).hash, cache.hashed(charged).hash);
        assert_eq!(cache.hashed(charged).hash, cache.keys.hash_one(charged), "the keyed SipHash");
        let (mut r, mut rr) = (Vec::new(), Vec::new());
        cache.record(plain, b"once", &[]);
        assert!(cache.replay(charged, &mut r, &mut rr));
        assert_eq!(r, b"once");
        cache.record_hashed(cache.hashed(charged), b"twice", &[]);
        assert!(cache.replay_hashed(cache.hashed(plain), 0, &mut r, &mut rr));
        assert_eq!(r, b"twice");
        assert_eq!(cache.stats().entries, 1, "one logical call, one entry");
    }

    /// A hit behind a head keeps the head's bytes (zero-filling a buffer
    /// shorter than the head) and writes the cached reply after them; a
    /// miss leaves the buffer as it was.
    #[test]
    fn a_replay_behind_a_head_keeps_the_head() {
        let cache = ReplyCache::new(SimClock::new(), Duration::from_secs(1));
        cache.record(tag(1, 0), b"body", &[3]);
        let hit = cache.hashed(tag(1, 0));
        let (mut r, mut rr) = (b"headstale".to_vec(), Vec::new());
        assert!(cache.replay_hashed(hit, 4, &mut r, &mut rr));
        assert_eq!((&r[..], &rr[..]), (&b"headbody"[..], &[3][..]));
        let mut short = b"he".to_vec();
        assert!(cache.replay_hashed(hit, 4, &mut short, &mut rr));
        assert_eq!(short, b"he\0\0body");
        let mut missed = b"kept".to_vec();
        assert!(!cache.replay_hashed(cache.hashed(tag(2, 0)), 4, &mut missed, &mut rr));
        assert_eq!(missed, b"kept");
    }

    /// A live tag re-recorded at the same instant keeps its one expiry
    /// node: the queue grows with distinct expiries, not with records.
    #[test]
    fn re_record_at_the_same_instant_pushes_no_second_expiry_node() {
        let clock = SimClock::new();
        let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_millis(1));
        let nodes = || cache.entries.lock().unwrap().expiry.len();
        cache.record(tag(1, 0), b"x", &[]);
        cache.record(tag(1, 0), b"y", &[]);
        assert_eq!(nodes(), 1);
        clock.advance_ns(10);
        cache.record(tag(1, 0), b"z", &[]);
        assert_eq!(nodes(), 2, "a new expiry is a new node; the old one is stale");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn ttl_eviction_forces_re_execution() {
        let clock = SimClock::new();
        let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_millis(1));
        cache.record(tag(1, 0), b"x", &[]);
        let (mut r, mut rr) = (Vec::new(), Vec::new());
        clock.advance_ns(1_000_001);
        assert!(!cache.replay(tag(1, 0), &mut r, &mut rr), "expired entry must miss");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn record_sweeps_expired_entries() {
        let clock = SimClock::new();
        let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_millis(1));
        cache.record(tag(1, 0), b"x", &[]);
        cache.record(tag(1, 1), b"y", &[]);
        clock.advance_ns(2_000_000);
        cache.record(tag(1, 2), b"z", &[]);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "only the fresh entry survives the sweep");
        assert_eq!(s.evictions, 2);
    }

    /// The TTL the property runs under, in sim nanoseconds.
    const TTL_NS: u64 = 1_000;

    /// A tag's reply, rights and expiry, as the model holds them.
    type Held = (Vec<u8>, Vec<u32>, u64);

    /// The cache the plain way: every live tag's bytes and rights with
    /// their expiry, and every record's time and length.
    #[derive(Default)]
    struct Model {
        map: HashMap<(u64, u64), Held>,
        stats: ReplyCacheStats,
        recorded: Vec<(u64, usize)>,
    }

    impl Model {
        fn record(&mut self, now: u64, key: (u64, u64), reply: &[u8], rights: &[u32]) {
            self.stats.executions += 1;
            let held = self.map.len();
            self.map.retain(|_, (.., expires_ns)| now <= *expires_ns);
            self.stats.evictions += (held - self.map.len()) as u64;
            self.map.insert(key, (reply.to_vec(), rights.to_vec(), now + TTL_NS));
            self.stats.entries = self.map.len() as u64;
            self.recorded.push((now, reply.len()));
        }

        fn replay(&mut self, now: u64, key: (u64, u64)) -> Option<(Vec<u8>, Vec<u32>)> {
            let (reply, rights, expires_ns) = self.map.get(&key)?.clone();
            if now > expires_ns {
                self.map.remove(&key);
                self.stats.evictions += 1;
                self.stats.entries = self.map.len() as u64;
                return None;
            }
            self.stats.suppressions += 1;
            Some((reply, rights))
        }

        /// Bytes recorded within one TTL of `now`.
        fn recorded_within_ttl(&self, now: u64) -> usize {
            self.recorded.iter().filter(|(at, _)| now <= at + TTL_NS).map(|(_, len)| len).sum()
        }
    }

    /// Bytes written into the slabs the cache holds, plus its spare.
    fn held(cache: &ReplyCache) -> usize {
        let entries = cache.entries.lock().unwrap();
        let Slabs { queue, spare, .. } = &entries.slabs;
        queue.iter().map(Vec::len).sum::<usize>() + spare.as_ref().map_or(0, Vec::capacity)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of record, replay and clock advance over a
        /// few tags — so live tags are re-recorded at one instant and
        /// later, and expired ones replayed — with empty replies, replies
        /// of a few KiB and replies larger than a slab: the cache answers
        /// as the plain map does, byte for byte and tally for tally, and
        /// holds no more than the bytes one TTL recorded plus two slabs.
        #[test]
        fn slab_cache_matches_a_plain_map(
            steps in prop::collection::vec(
                (0u8..10, 0u64..6, 0u8..8, 1usize..8_192, 0u64..400),
                1..300,
            ),
        ) {
            let clock = SimClock::new();
            let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_nanos(TTL_NS));
            let mut model = Model::default();
            let mut largest = SLAB_BYTES;
            for (kind, seq, class, len, ns) in steps {
                let now = clock.now_ns();
                match kind {
                    0..=3 => {
                        let len = match class {
                            0 => 0,
                            7 => SLAB_BYTES + len,
                            _ => len,
                        };
                        largest = largest.max(len);
                        let reply: Vec<u8> = (0..len).map(|i| (i as u64 ^ ns) as u8).collect();
                        let rights = vec![ns as u32; usize::from(class % 3)];
                        model.record(now, (1, seq), &reply, &rights);
                        cache.record(tag(1, seq), &reply, &rights);
                        let bound = model.recorded_within_ttl(now) + 2 * largest;
                        prop_assert!(held(&cache) <= bound, "held {} > {bound}", held(&cache));
                    }
                    4..=6 => {
                        let (mut reply, mut rights) = (Vec::new(), Vec::new());
                        let hit = cache.replay(tag(1, seq), &mut reply, &mut rights);
                        let expected = model.replay(now, (1, seq));
                        prop_assert_eq!(hit, expected.is_some());
                        if let Some(expected) = expected {
                            prop_assert_eq!((reply, rights), expected);
                        }
                    }
                    // Several steps at one instant, a fraction of the TTL,
                    // or past it.
                    7 => {}
                    8 => {
                        clock.advance_ns(ns);
                    }
                    _ => {
                        clock.advance_ns(ns * 10);
                    }
                }
                prop_assert_eq!(cache.stats(), model.stats);
            }
        }
    }
}
