//! At-most-once semantics through the full stack: a tagged retry after a
//! lost reply is answered from the server's reply cache — the handler runs
//! exactly once — while TTL expiry and per-binding isolation bound what
//! the cache may ever answer for.

use flexrpc_clock::Fault;
use flexrpc_core::ir::Module;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::replycache::ReplyCache;
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{CallOptions, ClientStub, ErrorKind, RetryPolicy, ServerInterface};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn counter_module() -> Module {
    flexrpc_idl::corba::parse(
        "counter",
        r#"
        interface Counter {
            unsigned long add(in unsigned long x);
        };
        "#,
    )
    .expect("IDL parses")
}

fn compiled(m: &Module) -> CompiledInterface {
    let iface = m.interface("Counter").expect("declared");
    let pres = InterfacePresentation::default_for(m, iface).expect("defaults");
    CompiledInterface::compile(m, iface, &pres).expect("compiles")
}

/// A deliberately *non*-idempotent server: `add` mutates a running total.
/// Re-executing a retried call would corrupt it — exactly what the reply
/// cache must prevent.
struct World {
    client: ClientStub,
    cache: Arc<ReplyCache>,
    executions: Arc<AtomicU64>,
    clock: Arc<flexrpc_clock::SimClock>,
    faults: Arc<flexrpc_clock::FaultInjector>,
    total: Arc<AtomicU64>,
}

fn world(ttl: Duration) -> World {
    let m = counter_module();
    let clock = flexrpc_clock::SimClock::new();
    let cache = ReplyCache::new(Arc::clone(&clock), ttl);
    let executions = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));

    let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
    srv.set_reply_cache(Arc::clone(&cache));
    let (ex, tot) = (Arc::clone(&executions), Arc::clone(&total));
    srv.on("add", move |call| {
        ex.fetch_add(1, Ordering::SeqCst);
        let x = call.u32("x").expect("x") as u64;
        let new = tot.fetch_add(x, Ordering::SeqCst) + x;
        call.set("return", Value::U32(new as u32)).expect("return");
        0
    })
    .expect("registers");

    let transport = Loopback::with_clock(Arc::new(Mutex::new(srv)), Arc::clone(&clock));
    let faults = Arc::clone(transport.faults());
    let mut client = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(transport));
    client.enable_at_most_once();
    World { client, cache, executions, clock, faults, total }
}

fn options() -> CallOptions {
    CallOptions::default().retry(RetryPolicy::new(3).backoff(Duration::from_millis(1)).seed(11))
}

fn add(w: &mut World, x: u32, opts: &CallOptions) -> Result<u32, flexrpc_runtime::RpcError> {
    let mut frame = w.client.new_frame("add").expect("frame");
    frame[0] = Value::U32(x);
    w.client.call_with("add", &mut frame, opts)?;
    Ok(frame[1].as_u32().expect("return slot"))
}

/// The headline at-most-once guarantee: the reply is lost after the server
/// executed, the tagged retry is answered from the cache, and the
/// (non-idempotent) handler ran exactly once.
#[test]
fn lost_reply_retry_is_suppressed_exactly_once() {
    let mut w = world(Duration::from_secs(1));
    w.faults.on_next_call(Fault::Close);
    let result = add(&mut w, 5, &options()).expect("retry recovered through the cache");
    assert_eq!(result, 5);
    assert_eq!(w.executions.load(Ordering::SeqCst), 1, "handler ran exactly once");
    assert_eq!(w.total.load(Ordering::SeqCst), 5, "state mutated exactly once");
    let s = w.cache.stats();
    assert_eq!(s.executions, 1);
    assert!(s.suppressions >= 1, "the resend was answered from the cache");
}

/// Duplicated delivery (the at-least-once failure mode) under at-most-once:
/// the duplicate dispatch is recognised by its tag and suppressed.
#[test]
fn duplicated_delivery_executes_once_under_at_most_once() {
    let mut w = world(Duration::from_secs(1));
    w.faults.on_next_call(Fault::Duplicate);
    let result = add(&mut w, 7, &options()).expect("call succeeds");
    assert_eq!(result, 7);
    assert_eq!(w.executions.load(Ordering::SeqCst), 1, "duplicate suppressed");
    assert_eq!(w.cache.stats().suppressions, 1);
}

/// A resend arriving after the TTL is *not* suppressed: the cache forgot,
/// the handler re-executes — at-most-once degrades to at-least-once, as
/// every real reply cache does, and the counters say so.
#[test]
fn ttl_eviction_forces_re_execution() {
    let mut w = world(Duration::from_millis(1));
    assert_eq!(add(&mut w, 3, &options()).expect("first call"), 3);
    assert_eq!(w.executions.load(Ordering::SeqCst), 1);

    // Replay the same logical call (same tag) after the TTL has passed.
    let (binding, next_seq) = w.client.at_most_once_state().expect("amo enabled");
    w.client.resume_at_most_once(binding, next_seq - 1);
    w.clock.advance_ns(2_000_000);
    assert_eq!(add(&mut w, 3, &options()).expect("re-executed"), 6, "total mutated twice");
    assert_eq!(w.executions.load(Ordering::SeqCst), 2, "expired entry no longer suppresses");
    assert!(w.cache.stats().evictions >= 1);
}

/// Binding ids partition the cache: a second client reusing the same
/// sequence numbers can never be answered with the first client's replies.
#[test]
fn bindings_are_isolated_in_the_cache() {
    let mut w = world(Duration::from_secs(1));
    assert_eq!(add(&mut w, 10, &options()).expect("first client"), 10);

    // A second stub against the same server state, fresh binding id,
    // sequence numbers starting at 0 just like the first client's.
    let m = counter_module();
    let mut srv = ServerInterface::new(compiled(&m), WireFormat::Cdr);
    srv.set_reply_cache(Arc::clone(&w.cache));
    let (ex, tot) = (Arc::clone(&w.executions), Arc::clone(&w.total));
    srv.on("add", move |call| {
        ex.fetch_add(1, Ordering::SeqCst);
        let x = call.u32("x").expect("x") as u64;
        let new = tot.fetch_add(x, Ordering::SeqCst) + x;
        call.set("return", Value::U32(new as u32)).expect("return");
        0
    })
    .expect("registers");
    let transport = Loopback::with_clock(Arc::new(Mutex::new(srv)), Arc::clone(&w.clock));
    let mut second = ClientStub::new(compiled(&m), WireFormat::Cdr, Box::new(transport));
    second.enable_at_most_once();

    let mut frame = second.new_frame("add").expect("frame");
    frame[0] = Value::U32(20);
    second.call_with("add", &mut frame, &options()).expect("second client");
    assert_eq!(frame[1].as_u32().expect("return"), 30, "executed, not answered from binding 1");
    assert_eq!(w.executions.load(Ordering::SeqCst), 2, "both calls executed");
    assert_eq!(w.cache.stats().suppressions, 0, "no cross-binding hit");
}

/// The per-call `at_least_once` opt-out drops the tag: the cache is never
/// consulted, and without the tag a disconnect is not retried — the
/// declared (non-idempotent) contract is back in force.
#[test]
fn at_least_once_opt_out_bypasses_the_cache() {
    let mut w = world(Duration::from_secs(1));
    w.faults.on_next_call(Fault::Close);
    let opts = CallOptions::default().at_least_once();
    let err = add(&mut w, 9, &opts).expect_err("lost reply surfaces without a tag");
    assert_eq!(err.kind(), ErrorKind::Disconnected);
    assert_eq!(w.executions.load(Ordering::SeqCst), 1, "the server did execute");
    let s = w.cache.stats();
    assert_eq!((s.executions, s.suppressions), (0, 0), "untagged calls never touch the cache");
}

/// At-most-once lifts the `[idempotent]`-only retry restriction: the op
/// here never declared `[idempotent]`, yet a retry policy binds to it —
/// while the same policy on the same op is refused once tagging is opted
/// out.
#[test]
fn tagging_licenses_retry_where_the_contract_alone_would_not() {
    let mut w = world(Duration::from_secs(1));
    // With the binding tagged, the policy is accepted and absorbs a drop.
    w.faults.on_next_call(Fault::Drop);
    assert_eq!(add(&mut w, 2, &options()).expect("retry under amo"), 2);

    // Same stub, per-call opt-out: the idempotency gate is back.
    let opts = options().at_least_once();
    let err = add(&mut w, 2, &opts).expect_err("refused before sending");
    assert_eq!(err.kind(), ErrorKind::ContractViolation);
}

/// The reference the cache is held to: a plain map swept in full on every
/// `record`, keeping exactly the entries with `now <= expires_ns`. It is
/// the specification of *which* entries survive; the cache under test may
/// find the expired ones any way it likes.
mod model {
    use flexrpc_runtime::replycache::ReplyCacheStats;
    use std::collections::HashMap;

    struct Entry {
        reply: Vec<u8>,
        rights: Vec<u32>,
        expires_ns: u64,
    }

    pub struct SweepingCache {
        ttl_ns: u64,
        map: HashMap<(u64, u64), Entry>,
        executions: u64,
        suppressions: u64,
        evictions: u64,
    }

    impl SweepingCache {
        pub fn new(ttl_ns: u64) -> SweepingCache {
            SweepingCache {
                ttl_ns,
                map: HashMap::new(),
                executions: 0,
                suppressions: 0,
                evictions: 0,
            }
        }

        /// Is `tag` held and unexpired at `now`?
        pub fn live(&self, now: u64, tag: (u64, u64)) -> bool {
            self.map.get(&tag).is_some_and(|e| now <= e.expires_ns)
        }

        /// How many entries a sweep at `now` would evict.
        pub fn expired(&self, now: u64) -> usize {
            self.map.values().filter(|e| now > e.expires_ns).count()
        }

        pub fn record(&mut self, now: u64, tag: (u64, u64), reply: &[u8], rights: &[u32]) {
            self.executions += 1;
            let before = self.map.len();
            self.map.retain(|_, e| now <= e.expires_ns);
            self.evictions += (before - self.map.len()) as u64;
            let expires_ns = now.saturating_add(self.ttl_ns);
            self.map
                .insert(tag, Entry { reply: reply.to_vec(), rights: rights.to_vec(), expires_ns });
        }

        /// `Some((reply, rights))` on a hit; a miss on an expired entry
        /// evicts it.
        pub fn replay(&mut self, now: u64, tag: (u64, u64)) -> Option<(Vec<u8>, Vec<u32>)> {
            let entry = self.map.get(&tag)?;
            if now > entry.expires_ns {
                self.map.remove(&tag);
                self.evictions += 1;
                return None;
            }
            self.suppressions += 1;
            Some((entry.reply.clone(), entry.rights.clone()))
        }

        pub fn stats(&self) -> ReplyCacheStats {
            ReplyCacheStats {
                executions: self.executions,
                suppressions: self.suppressions,
                evictions: self.evictions,
                entries: self.map.len() as u64,
            }
        }
    }
}

/// splitmix64: the test's own seeded stream, so every run explores the
/// same sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Which of the cases the equivalence property must reach a run reached.
#[derive(Default)]
struct Reached {
    rerecord_of_live_tag: u32,
    rerecord_after_replay_evicted: u32,
    several_expire_in_one_record: u32,
    zero_advance: u32,
    replay_hit: u32,
    replay_evicted: u32,
}

/// Drives the cache and the model through one seeded sequence over a small
/// tag space, comparing every observable after every step.
fn drive(seed: u64, ttl: Duration, steps: usize, reached: &mut Reached) {
    use flexrpc_runtime::policy::CallTag;
    use std::collections::HashSet;

    let clock = flexrpc_clock::SimClock::new();
    let cache = ReplyCache::new(Arc::clone(&clock), ttl);
    let ttl_ns = cache.ttl_ns();
    let mut model = model::SweepingCache::new(ttl_ns);
    let mut rng = Rng(seed);
    // Tags whose last event was an eviction by `replay`.
    let mut replay_evicted: HashSet<(u64, u64)> = HashSet::new();
    // Advances are sized against the TTL so entries live a few steps; with
    // a saturating TTL any advance is "small".
    let unit = if ttl_ns == u64::MAX { 1_000 } else { ttl_ns / 4 };

    for step in 0..steps {
        let key = (1 + rng.below(2), rng.below(4));
        let tag = CallTag::new(key.0, key.1);
        let ctx = format!("seed {seed} step {step}");
        match rng.below(10) {
            0..=3 => {
                let now = clock.now_ns();
                let reply: Vec<u8> = (0..rng.below(48)).map(|_| rng.next() as u8).collect();
                let rights: Vec<u32> = (0..rng.below(3)).map(|_| rng.next() as u32).collect();
                if model.live(now, key) {
                    reached.rerecord_of_live_tag += 1;
                }
                if replay_evicted.remove(&key) {
                    reached.rerecord_after_replay_evicted += 1;
                }
                if model.expired(now) >= 2 {
                    reached.several_expire_in_one_record += 1;
                }
                model.record(now, key, &reply, &rights);
                cache.record(tag, &reply, &rights);
            }
            4..=6 => {
                let now = clock.now_ns();
                // Junk in the caller's buffers: a hit must replace it, a
                // miss must leave it alone.
                let (mut reply, mut rights) = (vec![0xEE; 5], vec![0xEEEE_EEEE; 2]);
                let was_held = model.stats().entries;
                let expect = model.replay(now, key);
                let hit = cache.replay(tag, &mut reply, &mut rights);
                assert_eq!(hit, expect.is_some(), "{ctx}: replay outcome");
                match expect {
                    Some((r, rr)) => {
                        reached.replay_hit += 1;
                        assert_eq!((reply, rights), (r, rr), "{ctx}: replayed bytes and rights");
                    }
                    None => {
                        assert_eq!(
                            (reply, rights),
                            (vec![0xEE; 5], vec![0xEEEE_EEEE; 2]),
                            "{ctx}: a miss leaves the caller's buffers alone"
                        );
                        if model.stats().entries < was_held {
                            reached.replay_evicted += 1;
                            replay_evicted.insert(key);
                        }
                    }
                }
            }
            _ => {
                // Zero (several calls at one instant), a fraction of the
                // TTL, or a jump past it (everything held expires at once).
                let ns = match rng.below(4) {
                    0 => 0,
                    1 | 2 => 1 + rng.below(unit.max(1)),
                    _ => unit.saturating_mul(5),
                };
                if ns == 0 {
                    reached.zero_advance += 1;
                }
                clock.advance_ns(ns);
            }
        }
        assert_eq!(cache.stats(), model.stats(), "{ctx}: counters and live entries");
    }
}

/// Expiry-ordered eviction is observationally the full sweep: equal
/// `replay` results, reply bytes, rights and counters after every step of
/// every seeded sequence — including the sequences that leave stale nodes
/// in the expiry queue.
#[test]
fn expiry_queue_matches_the_sweeping_model_step_for_step() {
    let mut reached = Reached::default();
    for seed in 0..64 {
        drive(seed, Duration::from_micros(100), 400, &mut reached);
    }
    assert!(reached.rerecord_of_live_tag > 0, "re-record of a live tag");
    assert!(reached.rerecord_after_replay_evicted > 0, "re-record after replay evicted the tag");
    assert!(reached.several_expire_in_one_record > 0, "several entries expiring in one record");
    assert!(reached.zero_advance > 0, "runs of calls at one instant");
    assert!(reached.replay_hit > 0 && reached.replay_evicted > 0, "both replay outcomes");
}

/// The workload's shape at scale: 10 000 fresh tags on a clock that
/// advances between records, so the TTL holds a window of them live and
/// every record sweeps what fell out of it. The hashed key must keep
/// exactly the entries the sweeping model keeps.
#[test]
fn live_entries_match_the_model_after_ten_thousand_seeded_records() {
    use flexrpc_runtime::policy::CallTag;

    let clock = flexrpc_clock::SimClock::new();
    let cache = ReplyCache::new(Arc::clone(&clock), Duration::from_micros(500));
    let mut model = model::SweepingCache::new(cache.ttl_ns());
    let mut rng = Rng(0x5EED);
    for seq in 0..10_000u64 {
        clock.advance_ns(rng.below(4_000));
        let key = (1 + rng.below(3), seq);
        let reply = [seq as u8; 8];
        model.record(clock.now_ns(), key, &reply, &[]);
        cache.record(CallTag::new(key.0, key.1), &reply, &[]);
    }
    let stats = cache.stats();
    assert_eq!(stats, model.stats());
    assert!(stats.entries > 100 && stats.evictions > 9_000, "a live window was swept: {stats:?}");
}

/// `ttl = Duration::MAX` saturates every expiry at `u64::MAX`: nothing is
/// ever evicted, by either implementation, however far the clock runs.
#[test]
fn saturating_ttl_never_evicts() {
    let mut reached = Reached::default();
    for seed in 0..8 {
        drive(seed, Duration::MAX, 400, &mut reached);
    }
    assert!(reached.rerecord_of_live_tag > 0 && reached.replay_hit > 0);
    assert_eq!(reached.replay_evicted, 0);
    assert_eq!(reached.several_expire_in_one_record, 0);
}

/// Scaling, by construction: on a clock that never advances nothing
/// expires, so every record must cost O(1) whatever is live. A sweep per
/// record visits 5 × 10⁹ entries here; the expiry queue looks at one.
#[test]
fn a_hundred_thousand_records_at_one_instant() {
    use flexrpc_runtime::policy::CallTag;
    const RECORDS: u64 = 100_000;
    let cache = ReplyCache::new(flexrpc_clock::SimClock::new(), Duration::from_secs(1));
    for seq in 0..RECORDS {
        cache.record(CallTag::new(1, seq), &seq.to_be_bytes(), &[]);
    }
    let s = cache.stats();
    assert_eq!((s.executions, s.entries, s.evictions), (RECORDS, RECORDS, 0));
    let (mut reply, mut rights) = (Vec::new(), Vec::new());
    assert!(cache.replay(CallTag::new(1, 77), &mut reply, &mut rights));
    assert_eq!(reply, 77u64.to_be_bytes());
}
