//! A weighted-fair bounded MPMC queue (start-time fair queuing).
//!
//! Each tenant owns a FIFO *lane*; every admitted item receives a virtual
//! start tag `S = max(virtual_now, lane.last_finish)` and advances the
//! lane's finish to `S + QUANTUM / weight`. Consumers always dequeue the
//! item with the smallest start tag (ties broken by tenant id, so the
//! order is total and deterministic), and the queue's virtual clock jumps
//! to the tag of the item in service. This is Goyal's start-time fair
//! queuing: while several lanes stay backlogged, each drains in
//! proportion to its weight, within one quantum of the ideal fluid
//! schedule — a tenant at 10× offered load gets 10× *shed*, not 10×
//! service.
//!
//! Admission enforces three bounds, in order: a per-tenant `quota` (shed
//! immediately, charged to that tenant), an optional aggregate
//! `high_water` backstop (shed, charged to the aggregate), and the hard
//! `capacity` (blocking backpressure).

use flexrpc_runtime::TenantId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Scaled cost of one call at weight 1. Large enough that integer
/// division by any sane weight keeps plenty of resolution (weight 1000
/// still leaves ~1000 distinguishable steps per call).
pub(crate) const QUANTUM: u64 = 1 << 20;

/// One tenant's FIFO lane plus its fair-queuing state.
struct Lane<T> {
    /// Queued items with their start tags (FIFO within the lane, so tags
    /// are non-decreasing front to back).
    items: VecDeque<(u64, T)>,
    /// Virtual finish tag of the lane's last admitted item.
    last_finish: u64,
}

struct State<T> {
    lanes: BTreeMap<TenantId, Lane<T>>,
    /// The queue's virtual clock: the start tag of the item most recently
    /// dequeued. Only advances on dequeue, so items admitted while the
    /// consumer is busy all compete from the same baseline.
    virtual_now: u64,
    /// Items across all lanes.
    total: usize,
    /// Producers parked in `push` until space frees up. Both parked counts
    /// change only under this state's lock, which a parked thread releases
    /// inside its wait, so a notifier holding the lock reads them exactly:
    /// nobody counted means nobody to wake, and the notify's `futex_wake`
    /// is skipped.
    parked_producers: usize,
    /// Consumers parked on `not_empty` whose wake no push has claimed yet
    /// (never fewer than that; see [`WfqQueue::park`]).
    parked_consumers: usize,
}

impl<T> State<T> {
    /// Claims one parked consumer's unclaimed wake, if any: the caller owes
    /// it a `notify_one` once the lock is released.
    fn claim_consumer(&mut self) -> bool {
        let claimed = self.parked_consumers > 0;
        if claimed {
            self.parked_consumers -= 1;
        }
        claimed
    }
}

/// Why [`WfqQueue::try_push`] refused an item (the item rides back).
#[derive(Debug)]
pub enum WfqRefusal<T> {
    /// The submitting tenant is at its own quota — shed against that
    /// tenant, other lanes unaffected.
    Quota(T),
    /// The aggregate backstop (high water or capacity) is reached.
    Full(T),
    /// The queue has been closed.
    Closed(T),
}

/// A bounded weighted-fair queue shared between submitters (producers)
/// and a worker pool (consumers).
pub struct WfqQueue<T> {
    state: Mutex<State<T>>,
    /// Set once by [`WfqQueue::close`], under the state lock: pushes and
    /// pops read it under that lock, [`WfqQueue::is_closed`] without it.
    closed: AtomicBool,
    capacity: usize,
    /// `total`, published by a plain store under the state lock, so
    /// [`WfqQueue::len`] reads the backlog without taking that lock. The
    /// store is `Relaxed`: it publishes no other data. A non-zero read is
    /// only ever a reason to take the lock and look; a consumer about to
    /// park reads `total` under the lock instead, so no push is missed.
    backlog: AtomicUsize,
    /// Signalled when space frees up, if a producer is parked.
    not_full: Condvar,
    /// Signalled when an item arrives, if a consumer's wake is unclaimed,
    /// or the queue closes. An arrival wakes exactly **one** parked
    /// consumer — one item can only be served once, so waking the whole
    /// pool is a thundering herd.
    not_empty: Condvar,
}

impl<T> WfqQueue<T> {
    /// Creates a queue holding at most `capacity` items across all lanes
    /// (min 1).
    pub fn new(capacity: usize) -> WfqQueue<T> {
        WfqQueue {
            state: Mutex::new(State {
                lanes: BTreeMap::new(),
                virtual_now: 0,
                total: 0,
                parked_producers: 0,
                parked_consumers: 0,
            }),
            closed: AtomicBool::new(false),
            capacity: capacity.max(1),
            backlog: AtomicUsize::new(0),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Locks the state. The one caller code a holder runs is a
    /// `try_pop_if` predicate, before anything changes, so a panicked
    /// holder leaves nothing half-updated to distrust.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn admit(&self, state: &mut State<T>, tenant: TenantId, weight: u32, item: T) {
        let lane = state
            .lanes
            .entry(tenant)
            .or_insert_with(|| Lane { items: VecDeque::new(), last_finish: 0 });
        let start = state.virtual_now.max(lane.last_finish);
        lane.last_finish = start + QUANTUM / u64::from(weight.max(1));
        lane.items.push_back((start, item));
        state.total += 1;
        self.publish(state);
    }

    /// Stores the backlog `len` reads, under the state lock whose `total`
    /// it copies: its one writer, so a plain store.
    fn publish(&self, state: &State<T>) {
        self.backlog.store(state.total, Ordering::Relaxed);
    }

    /// Removes and returns the min-tag head under an already-held lock, if
    /// `pred` accepts it: the one place a head leaves a lane.
    fn take_head(&self, state: &mut State<T>, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        let (tag, tenant) = state
            .lanes
            .iter()
            .filter_map(|(t, lane)| lane.items.front().map(|(tag, _)| (*tag, *t)))
            .min()?;
        let lane = state.lanes.get_mut(&tenant).expect("lane with a head exists");
        if !pred(&lane.items.front().expect("head exists").1) {
            return None;
        }
        let (_, item) = lane.items.pop_front().expect("head exists");
        state.total -= 1;
        self.publish(state);
        state.virtual_now = state.virtual_now.max(tag);
        if state.parked_producers > 0 {
            self.not_full.notify_one();
        }
        Some(item)
    }

    /// Enqueues `item` on `tenant`'s lane at `weight`, blocking while the
    /// queue is at capacity (backpressure). A `quota` bound is checked
    /// *without* blocking: a tenant at its own limit is refused
    /// immediately — its storm must not slow other tenants' producers
    /// down. Returns the item on refusal.
    pub fn push(
        &self,
        item: T,
        tenant: TenantId,
        weight: u32,
        quota: Option<usize>,
    ) -> Result<(), WfqRefusal<T>> {
        let mut state = self.lock();
        loop {
            if self.is_closed() {
                return Err(WfqRefusal::Closed(item));
            }
            if let Some(q) = quota {
                let queued = state.lanes.get(&tenant).map_or(0, |l| l.items.len());
                if queued >= q.max(1) {
                    return Err(WfqRefusal::Quota(item));
                }
            }
            if state.total < self.capacity {
                self.admit(&mut state, tenant, weight, item);
                let wake = state.claim_consumer();
                drop(state);
                if wake {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            state.parked_producers += 1;
            state = self.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.parked_producers -= 1;
        }
    }

    /// Enqueues `item` only if `tenant` is under `quota` *and* the
    /// aggregate backlog is under both `high_water` and the capacity —
    /// admission control's fast path. Never blocks; the refusal says which
    /// bound was hit, so the shed is charged to the right party.
    pub fn try_push(
        &self,
        item: T,
        tenant: TenantId,
        weight: u32,
        quota: Option<usize>,
        high_water: usize,
    ) -> Result<(), WfqRefusal<T>> {
        let mut state = self.lock();
        if self.is_closed() {
            return Err(WfqRefusal::Closed(item));
        }
        if let Some(q) = quota {
            let queued = state.lanes.get(&tenant).map_or(0, |l| l.items.len());
            if queued >= q.max(1) {
                return Err(WfqRefusal::Quota(item));
            }
        }
        if state.total >= self.capacity.min(high_water) {
            return Err(WfqRefusal::Full(item));
        }
        self.admit(&mut state, tenant, weight, item);
        let wake = state.claim_consumer();
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Dequeues the item with the smallest start tag (ties: lowest tenant
    /// id), blocking while empty. Returns `None` once the queue is closed
    /// *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = self.take_head(&mut state, |_| true) {
                return Some(item);
            }
            if self.is_closed() {
                return None;
            }
            state = self.park(state);
        }
    }

    /// Blocks while the queue is empty and open, without taking anything:
    /// `true` once an item is queued, `false` once the queue is closed and
    /// empty. A non-zero published backlog returns at once, without the
    /// lock. For a consumer that must do something of its own between
    /// learning there is work and taking it.
    pub fn wait_ready(&self) -> bool {
        if !self.is_empty() {
            return true;
        }
        let mut state = self.lock();
        loop {
            if state.total > 0 {
                return true;
            }
            if self.is_closed() {
                return false;
            }
            state = self.park(state);
        }
    }

    /// The one consumer park, `pop`'s and `wait_ready`'s: one wait on
    /// `not_empty`, counted before it and never uncounted after. A push that
    /// finds the count non-zero claims a wake off it under the lock and
    /// notifies after releasing it (a woken consumer would only park again
    /// on a notifier still holding it), so M pushes onto N parked consumers
    /// cost min(N, M) `futex_wake`s; `close` zeroes it and wakes everyone.
    /// A wake that finds nothing — spurious, or a claimed notify this
    /// consumer intercepted from one parked earlier, which sleeps on
    /// uncounted — counts again, so the count errs only high: a
    /// `futex_wake` for nobody, never a parked consumer nobody wakes.
    fn park<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.parked_consumers += 1;
        self.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Dequeues the item with the smallest start tag without blocking:
    /// `None` when nothing is queued right now. Whichever consumer calls it
    /// takes the global min-tag head, so lane FIFO order and the
    /// weighted-fair drain order hold however many consumers share the
    /// queue.
    pub fn try_pop(&self) -> Option<T> {
        self.try_pop_if(|_| true)
    }

    /// [`WfqQueue::try_pop`], but the head leaves only if `pred` accepts
    /// it: a refused head stays where it is, tags and virtual clock
    /// untouched, so a consumer that wants one particular item can take it
    /// when — and only when — it is what fair order serves next.
    pub fn try_pop_if(&self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        self.take_head(&mut self.lock(), pred)
    }

    /// True once [`WfqQueue::close`] has been called (one atomic load).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Closes the queue and returns every item that had not yet been
    /// started, in dequeue (fair) order: future pushes fail, every parked
    /// consumer wakes (to `None` from `pop`, `false` from `wait_ready`) and
    /// no wake is left owed, and the caller decides the fate of the
    /// unstarted backlog.
    #[must_use = "unstarted items must be failed, not silently dropped"]
    pub fn close(&self) -> Vec<T> {
        let mut state = self.lock();
        self.closed.store(true, Ordering::SeqCst);
        let mut unstarted = Vec::with_capacity(state.total);
        while let Some(item) = self.take_head(&mut state, |_| true) {
            unstarted.push(item);
        }
        state.parked_consumers = 0;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        unstarted
    }

    /// Items currently queued across all lanes (a racy snapshot): the
    /// backlog last published under the lock, read without it, so a reader
    /// never contends with producers.
    pub fn len(&self) -> usize {
        self.backlog.load(Ordering::Relaxed)
    }

    /// `(producers, consumers)` parked right now. A count read under the
    /// lock is the rendezvous a test needs: each counted thread is inside
    /// its wait, with the lock released.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let state = self.lock();
        (state.parked_producers, state.parked_consumers)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for WfqQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WfqQueue(len={}, cap={})", self.len(), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::{Duration, Instant};

    /// How long a test waits for another thread before calling it stuck.
    const STUCK: Duration = Duration::from_secs(30);

    /// Yields until `q.parked()` reads `want`.
    fn await_parked<T>(q: &WfqQueue<T>, want: (usize, usize)) {
        let start = Instant::now();
        while q.parked() != want {
            assert!(start.elapsed() < STUCK, "parked {:?}, never {want:?}", q.parked());
            thread::yield_now();
        }
    }

    const T1: TenantId = TenantId(1);
    const T2: TenantId = TenantId(2);

    #[test]
    fn single_lane_is_fifo() {
        let q = WfqQueue::new(8);
        for i in 0..5 {
            q.push(i, T1, 1, None).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn equal_weights_interleave() {
        let q = WfqQueue::new(16);
        for i in 0..4 {
            q.push(("a", i), T1, 1, None).unwrap();
        }
        for i in 0..4 {
            q.push(("b", i), T2, 1, None).unwrap();
        }
        let order: Vec<_> = (0..8).map(|_| q.pop().unwrap()).collect();
        assert_eq!(
            order,
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2), ("a", 3), ("b", 3)],
            "equal backlogged lanes alternate even though one arrived entirely first"
        );
    }

    #[test]
    fn weights_bias_the_drain() {
        let q = WfqQueue::new(32);
        for i in 0..9 {
            q.push(("heavy", i), T1, 3, None).unwrap();
        }
        for i in 0..3 {
            q.push(("light", i), T2, 1, None).unwrap();
        }
        // In every window of 4 dequeues while both lanes are backlogged,
        // the weight-3 lane gets 3 and the weight-1 lane gets 1.
        let order: Vec<_> = (0..12).map(|_| q.pop().unwrap()).collect();
        for w in 0..3 {
            let window = &order[w * 4..w * 4 + 4];
            let heavy = window.iter().filter(|(t, _)| *t == "heavy").count();
            assert_eq!(heavy, 3, "window {w}: {window:?}");
        }
    }

    #[test]
    fn quota_sheds_only_the_offender() {
        let q = WfqQueue::new(32);
        for i in 0..4 {
            q.push(i, T1, 1, Some(4)).unwrap();
        }
        assert!(
            matches!(q.push(99, T1, 1, Some(4)), Err(WfqRefusal::Quota(99))),
            "fifth item busts the quota"
        );
        q.push(100, T2, 1, Some(4)).unwrap();
        assert_eq!(q.len(), 5, "the offender's four and the bystander's one");
    }

    #[test]
    fn high_water_backstop_sheds_everyone() {
        let q = WfqQueue::new(32);
        q.try_push(1, T1, 1, None, 2).unwrap();
        q.try_push(2, T2, 1, None, 2).unwrap();
        assert!(matches!(q.try_push(3, T1, 1, None, 2), Err(WfqRefusal::Full(3))));
        assert!(matches!(q.try_push(3, T2, 1, None, 2), Err(WfqRefusal::Full(3))));
    }

    #[test]
    fn push_blocks_at_capacity_until_space() {
        let q = Arc::new(WfqQueue::new(1));
        q.push(1, T1, 1, None).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(2, T1, 1, None).is_ok());
        await_parked(&q, (1, 0));
        assert_eq!(q.len(), 1, "second push must be blocked");
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.parked(), (0, 0));
    }

    /// At capacity 1 a producer and a consumer hand 10,000 items across,
    /// each parking on nearly every turn, so every notify meets a peer
    /// parked or on its way to park. A wake skipped on a stale count
    /// would leave one side parked for good, which the timeout reports.
    #[test]
    fn ten_thousand_handoffs_at_capacity_one_lose_no_wakeup() {
        const ROUNDS: u32 = 10_000;
        let q = Arc::new(WfqQueue::new(1));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || (0..ROUNDS).all(|i| q.push(i, T1, 1, None).is_ok()))
        };
        let (done_tx, done) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let got: Vec<u32> = (0..ROUNDS).map_while(|_| q.pop()).collect();
                done_tx.send(got).expect("test listens");
            })
        };
        let got = done.recv_timeout(STUCK).expect("a wakeup was missed");
        assert!(got.iter().copied().eq(0..ROUNDS), "every item, in order");
        assert!(producer.join().unwrap());
        consumer.join().unwrap();
        assert_eq!(q.parked(), (0, 0));
    }

    #[test]
    fn close_returns_unstarted_in_fair_order() {
        let q = WfqQueue::new(8);
        q.push("a0", T1, 1, None).unwrap();
        q.push("a1", T1, 1, None).unwrap();
        q.push("b0", T2, 1, None).unwrap();
        assert_eq!(q.close(), vec!["a0", "b0", "a1"]);
        assert!(matches!(q.push("x", T1, 1, None), Err(WfqRefusal::Closed("x"))));
        assert_eq!(q.pop(), None, "consumers see the end immediately");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(WfqQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        await_parked(&q, (0, 3));
        assert!(q.close().is_empty());
        assert_eq!(q.parked(), (0, 0), "close leaves no wake owed");
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    /// A burst onto one parked consumer claims its wake once: the first
    /// push takes the count 1 → 0 and the other 31 find nobody to wake.
    /// The woken consumer is held between `wait_ready` and its pops, so it
    /// cannot park again and the counts read exactly.
    #[test]
    fn a_burst_claims_the_one_parked_consumer_once_and_every_item_drains() {
        let q = Arc::new(WfqQueue::new(64));
        let (go, gate) = mpsc::channel();
        let (drained_tx, drained) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                assert!(q.wait_ready(), "woken to work, not to a close");
                gate.recv().expect("test opens the gate");
                while let Some(item) = q.pop() {
                    drained_tx.send(item).expect("test listens");
                }
            })
        };
        await_parked(&q, (0, 1));
        for i in 0..32u32 {
            q.push(i, T1, 1, None).unwrap();
            assert_eq!(q.parked(), (0, 0), "push {i} left a claim behind");
        }
        go.send(()).unwrap();
        let got: Vec<u32> = (0..32).map(|_| drained.recv_timeout(STUCK).expect("item")).collect();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        await_parked(&q, (0, 1));
        assert!(q.close().is_empty());
        consumer.join().unwrap();
    }

    #[test]
    fn two_pushes_wake_two_parked_consumers() {
        let q = Arc::new(WfqQueue::new(4));
        let (woke_tx, woke) = mpsc::channel();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, woke) = (Arc::clone(&q), woke_tx.clone());
                thread::spawn(move || woke.send(q.pop()).expect("test listens"))
            })
            .collect();
        await_parked(&q, (0, 2));
        q.push(1, T1, 1, None).unwrap();
        assert_eq!(q.parked(), (0, 1));
        q.push(2, T1, 1, None).unwrap();
        assert_eq!(q.parked(), (0, 0));
        let mut got: Vec<_> =
            (0..2).map(|_| woke.recv_timeout(STUCK).expect("each push woke its own")).collect();
        got.sort_unstable();
        assert_eq!(got, [Some(1), Some(2)]);
        consumers.into_iter().for_each(|c| c.join().unwrap());
    }

    #[test]
    fn try_pop_takes_the_fair_head_or_nothing() {
        let q = WfqQueue::new(8);
        assert_eq!(q.try_pop(), None::<u32>, "empty queue refuses without blocking");
        q.push(10, T1, 1, None).unwrap();
        q.push(20, T2, 1, None).unwrap();
        q.push(11, T1, 1, None).unwrap();
        // The thief gets exactly what the owner's pop would have served.
        assert_eq!(q.try_pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.try_pop(), Some(11));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn try_pop_if_takes_the_fair_head_only_when_accepted() {
        let q = WfqQueue::new(8);
        assert_eq!(q.try_pop_if(|_: &u32| true), None, "nothing queued, nothing asked");
        q.push(10, T1, 1, None).unwrap();
        q.push(20, T2, 1, None).unwrap();
        q.push(11, T1, 1, None).unwrap();
        // Only the head is ever offered; an item further back is not
        // reachable, and a refusal moves nothing.
        assert_eq!(q.try_pop_if(|head| *head == 20), None);
        assert_eq!(q.try_pop_if(|head| *head == 11), None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_pop_if(|head| *head == 10), Some(10));
        assert_eq!(q.len(), 2);
        // The order after a refusal is the order without one.
        assert_eq!(q.try_pop_if(|head| *head == 20), Some(20));
        assert_eq!(q.try_pop(), Some(11));
    }

    #[test]
    fn concurrent_consumers_preserve_the_fair_drain_order() {
        // Three consumers taking whole heads must leave the dequeue order
        // identical to a single consumer's drain: same weighted
        // interleave, same per-tenant FIFO. Drain a twin sequentially for
        // the expected order, then drain the real queue from three threads
        // (the log mutex serialises dequeue+record so the observed order
        // is exact).
        let fill = |q: &WfqQueue<(u64, u64)>| {
            for i in 0..30u64 {
                q.push((1, i), T1, 3, None).unwrap();
            }
            for i in 0..10u64 {
                q.push((2, i), T2, 1, None).unwrap();
            }
        };
        let twin = WfqQueue::new(64);
        fill(&twin);
        let expected: Vec<_> = (0..40).map(|_| twin.pop().unwrap()).collect();

        let q = Arc::new(WfqQueue::new(64));
        fill(&q);
        let log = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let (q, log) = (Arc::clone(&q), Arc::clone(&log));
                thread::spawn(move || loop {
                    let mut log = log.lock().unwrap();
                    match q.try_pop() {
                        Some(item) => log.push(item),
                        None => return,
                    }
                })
            })
            .collect();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(*log.lock().unwrap(), expected, "consumers must not reorder the fair drain");
    }

    #[test]
    fn try_push_sheds_at_the_smaller_of_capacity_and_high_water() {
        let q = WfqQueue::new(2);
        q.try_push(1, T1, 1, None, 5).unwrap();
        q.try_push(2, T2, 1, None, 5).unwrap();
        assert!(matches!(q.try_push(3, T1, 1, None, 5), Err(WfqRefusal::Full(3))));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3, T1, 1, None, 5).unwrap();
    }

    /// `len` reads what the lock holder last published — through pushes,
    /// pops, a refused push and `close`, which leaves it at zero.
    #[test]
    fn the_published_backlog_follows_every_push_pop_refusal_and_close() {
        let q = WfqQueue::new(8);
        for i in 0..3 {
            q.push(i, T1, 1, None).unwrap();
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 1);
        q.try_push(9, T2, 1, None, 2).unwrap();
        assert!(matches!(q.try_push(9, T2, 1, None, 2), Err(WfqRefusal::Full(9))));
        assert_eq!(q.len(), 2, "a refusal publishes nothing");
        assert_eq!(q.close().len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn single_wakeup_per_push_misses_no_consumer() {
        // Regression for the thundering-herd fix: `push` wakes exactly
        // one parked consumer. If a wakeup could be lost (notified before
        // parking, or one consumer absorbing another's signal), some pop
        // below would block forever and the join would hang.
        for _ in 0..50 {
            let q = Arc::new(WfqQueue::new(16));
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut got = 0u32;
                        while q.pop().is_some() {
                            got += 1;
                        }
                        got
                    })
                })
                .collect();
            for i in 0..8u32 {
                q.push(i, TenantId(u64::from(i % 3)), 1, None).unwrap();
                if i % 3 == 0 {
                    thread::yield_now(); // vary the parked-vs-racing mix
                }
            }
            let unstarted = q.close().len() as u32;
            let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total + unstarted, 8, "every item served exactly once");
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn randomized_mpmc_keeps_per_tenant_fifo() {
        // Property test over seeded random schedules: three producers push
        // at random tenants and weights while four consumers drain one
        // queue without blocking. Per-tenant FIFO must survive: every
        // dequeue takes the min-tag head, so any consumer's observed
        // subsequence per tenant is increasing.
        const CONSUMERS: usize = 4;
        const TENANTS: u64 = 6;
        for seed in [3u64, 17, 1999] {
            let q: Arc<WfqQueue<(u64, u64)>> = Arc::new(WfqQueue::new(64));
            let producers: Vec<_> = (0..3u64)
                .map(|p| {
                    let q = Arc::clone(&q);
                    let mut rng = seed ^ (p << 32);
                    thread::spawn(move || {
                        let mut seqs = [0u64; TENANTS as usize];
                        for _ in 0..200 {
                            let t = splitmix(&mut rng) % TENANTS;
                            // Producers share per-tenant sequence spaces
                            // p*1_000_000 apart so each producer's own
                            // stream is FIFO-checkable.
                            let seq = p * 1_000_000 + seqs[t as usize];
                            seqs[t as usize] += 1;
                            let weight = 1 + (splitmix(&mut rng) % 4) as u32;
                            q.push((t, seq), TenantId(t), weight, None).unwrap();
                        }
                    })
                })
                .collect();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let stop = Arc::clone(&stop);
                    thread::spawn(move || {
                        let mut got: Vec<(u64, u64)> = Vec::new();
                        loop {
                            let mut idle = true;
                            while let Some(item) = q.try_pop() {
                                got.push(item);
                                idle = false;
                            }
                            if idle && stop.load(Ordering::Acquire) {
                                return got;
                            }
                            if idle {
                                thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            let mut count = 0usize;
            for c in consumers {
                let got = c.join().unwrap();
                count += got.len();
                // Per consumer, per tenant, per producer stream: seqs
                // strictly increase.
                let mut last: BTreeMap<(u64, u64), u64> = BTreeMap::new();
                for (t, seq) in got {
                    let stream = (t, seq / 1_000_000);
                    if let Some(prev) = last.insert(stream, seq) {
                        assert!(prev < seq, "tenant {t} reordered: {prev} then {seq}");
                    }
                }
            }
            assert_eq!(count, 600, "seed {seed}: every item consumed exactly once");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = Arc::new(WfqQueue::new(4));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100u64 {
                        q.push(p * 1000 + i, TenantId(p), (p + 1) as u32, None).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let unstarted = q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.extend(unstarted);
        all.sort_unstable();
        let mut expect: Vec<u64> =
            (0..4u64).flat_map(|p| (0..100u64).map(move |i| p * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "every job consumed exactly once");
    }
}
