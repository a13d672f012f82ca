//! The serving engine: acceptor, worker pool, replica pools, connections.
//!
//! One engine serves many clients across many services with a fixed pool
//! of worker threads. Work arrives as jobs on a weighted-fair queue —
//! from same-domain clients through [`EngineConnection`] (a [`Transport`]
//! impl) or from the
//! simulated network through [`crate::acceptor`] — and every job dispatches
//! into a [`ServerInterface`] *replica* drawn from the pool for that
//! connection's program combination.
//!
//! There is one call path. Every submission is one borrowed `Call` value
//! that passes, in the statement order of the functions below, through the
//! breaker, the fault gate, tenant admission and then either the queue or —
//! for a blocking call that finds the engine idle — straight on; both ends
//! meet in the single dispatch body `Engine::serve`, which a dequeued job
//! enters through `Engine::run_job_on` and an inline caller enters with its
//! own buffers.
//!
//! Which thread carries a queued job is not part of that path. Every worker
//! drains the one queue under a *serve token* of its own and, with nothing
//! queued, parks on the queue itself ([`WfqQueue::wait_ready`]) until a push
//! claims its wake. A caller that reaches [`CallTicket::wait`] before its
//! reply finds a token free and its own job at the fair head of the queue
//! takes that token, pops that one job and runs it where it stands — the
//! same `run_job_on`, every check and tally included — instead of parking
//! until a worker has been scheduled to do exactly that. It never runs
//! another caller's job and never runs its own out of dequeue order.
//!
//! Replicas exist because dispatch needs `&mut self` (handlers are
//! `FnMut`): rather than serializing all clients on one server lock, each
//! combination keeps up to `workers` interchangeable server instances whose
//! handlers capture the same `Arc`'d application state (file store, pipe
//! ring), all sharing one compiled program from the [`ProgramCache`]. The
//! expensive part — compilation — happens once per combination; the cheap
//! part — a handler table — is replicated for parallelism.
//!
//! Operational policy is owned by a [`ControlPlane`]: every submission
//! carries a [`TenantId`], admission consults that tenant's live
//! [`Policy`] (weight, quota, dwell/deadline overrides), and the queue
//! drains lanes in weighted-fair order. A tenant's policy changes only
//! through its [`PolicyHandle`](flexrpc_control::PolicyHandle). The
//! engine's own [`Policy`] (high-water backstop, default dwell limit,
//! breaker) is fixed when it is built ([`EngineBuilder::policy`]); a
//! connection's program combination is swappable live via
//! [`EngineConnection::rebind`].

use crate::breaker::{BreakerStats, CircuitBreaker};
use crate::cache::ProgramCache;
use crate::error::EngineError;
use crate::slot::ReplySlot;
use crate::stats::{EngineCounters, EngineStatsSnapshot};
use flexrpc_clock::{Disconnect, FaultInjector, Lost, SimClock};
use flexrpc_control::{ControlPlane, Policy, TenantCells, TenantMetrics, WfqQueue, WfqRefusal};
use flexrpc_core::present::{CallShape, InterfacePresentation, Trust};
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_runtime::policy::{CallControl, CallOptions, CallTag, TenantId};
use flexrpc_runtime::replycache::ReplyCache;
use flexrpc_runtime::transport::Transport;
use flexrpc_runtime::{RpcError, ServerInterface};
use flexrpc_trace::{CounterStripe, HistogramStripe, MetricsRegistry, SharedCallTrace, Stage};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, Arc, Condvar, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// The bind path — service registration, [`ConnectBuilder`], pool
/// resolution, shape negotiation — in a file of its own (`bind.rs`, beside
/// the program cache it consults). Declared here, as a child, because it
/// reads this module's private state.
#[path = "bind.rs"]
mod bind;
use bind::{Binding, Service};
pub use bind::{ConnectBuilder, ReplicaFactory};

/// What a connecting client declares about itself; with the service's own
/// half it selects the program combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientInfo {
    /// Fingerprint of the client's presentation
    /// ([`InterfacePresentation::fingerprint`]).
    pub presentation: u64,
    /// Trust the client declares in the server.
    pub trust: Trust,
}

impl ClientInfo {
    /// Client info for a presentation value.
    pub fn of(pres: &InterfacePresentation) -> ClientInfo {
        ClientInfo { presentation: pres.fingerprint(), trust: pres.trust }
    }
}

/// A finished call: reply body plus translated port rights.
#[derive(Debug, Default)]
pub struct Reply {
    /// Marshalled reply bytes.
    pub body: Vec<u8>,
    /// Out-of-band port rights.
    pub rights: Vec<u32>,
}

/// The engine's one-shot completion slot: a
/// [`ReplySlot`](crate::slot::ReplySlot) carrying a call's result.
type Completion = ReplySlot<flexrpc_runtime::Result<Reply>>;

/// What a queued call shares between its submitter's [`CallTicket`] and the
/// worker's [`Job`]: the completion slot, the request the worker reads, and
/// every `Copy` fact admission fixed about the call. One allocation, and a
/// recycled one: a redeemed ticket hands its cell to the engine's
/// [`CellYard`] and a later submit refills it in place — facts included,
/// written while that submit still holds the cell alone, so they are
/// written once and the job that carries the cell need not.
///
/// No `Arc` lives here: a free cell would keep a dead pool or a dropped
/// tenant's cells alive. Those ride in the [`Job`].
#[derive(Default)]
struct JobCell {
    slot: Completion,
    request: Vec<u8>,
    rights: Vec<u32>,
    op_index: usize,
    /// Absolute sim-clock deadline: the tighter of the caller's deadline
    /// and the effective queue-dwell limit, fixed at admission.
    deadline_ns: Option<u64>,
    tag: Option<CallTag>,
    /// Induced `Close` fault: execute (and cache) normally, then lose the
    /// reply — the submitter sees a disconnect. Never set on a duplicated
    /// delivery's shadow, which has a cell of its own.
    close_after: bool,
    /// Sim time the call entered the queue (dwell accounting).
    enqueue_ns: u64,
}

/// A recycled cell keeps its buffers only up to this many bytes each, so
/// one oversized request cannot pin its allocation in the free list.
const CELL_RETAIN_BYTES: usize = 4096;

/// What a ticket still needs of its engine, behind the one `Arc` it clones
/// per submit: the sim clock its deadline waits poll, the free list its
/// cell goes back to, and the engine itself for a wait that finds no reply.
struct CellYard {
    clock: Arc<SimClock>,
    /// Weak, so an unredeemed ticket keeps no engine alive; upgraded only by
    /// a [`CallTicket::wait`] whose first look found the slot empty.
    engine: Weak<Engine>,
    /// Redeemed cells, oldest first. A worker drops its half of a cell
    /// moments after filling it, so the oldest is the likeliest to be free.
    free: Mutex<VecDeque<Arc<JobCell>>>,
    /// `queue_depth`: the most cells the queue can hold at once.
    capacity: usize,
}

impl CellYard {
    /// A cell holding `call`'s request and what `adm` decided about it, with
    /// an empty slot: the oldest free cell if nothing else still holds it, a
    /// new one otherwise. `real` is false for a duplicated delivery's
    /// shadow, which loses no reply.
    fn cell_for(&self, call: &Call<'_>, adm: &Admission<'_>, real: bool) -> Arc<JobCell> {
        let oldest = self.free.lock().pop_front();
        // Still shared with its job (the worker has yet to drop it, or the
        // ticket gave up at a deadline before the job ran): leave that cell
        // to the worker and start from a new one.
        let unshared = |mut c: Arc<JobCell>| Arc::get_mut(&mut c).is_some().then_some(c);
        let mut cell = oldest.and_then(unshared).unwrap_or_default();
        let c = Arc::get_mut(&mut cell).expect("sole owner: checked or new");
        c.slot.reset();
        c.request.clear();
        c.request.extend_from_slice(call.request);
        c.rights.clear();
        c.rights.extend_from_slice(call.rights);
        c.op_index = call.op_index;
        c.deadline_ns = adm.deadline_ns;
        c.tag = call.tag;
        c.close_after = real && adm.close_after;
        c.enqueue_ns = adm.now;
        cell
    }

    /// Takes back a redeemed ticket's cell, within the two retention
    /// bounds: at most `capacity` cells, none with an oversized buffer.
    fn recycle(&self, cell: Arc<JobCell>) {
        if cell.request.capacity() > CELL_RETAIN_BYTES
            || cell.rights.capacity() * size_of::<u32>() > CELL_RETAIN_BYTES
        {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.capacity {
            free.push_back(cell);
        }
    }
}

/// An in-flight call handle ([`EngineConnection::submit`]); redeem with
/// [`CallTicket::wait`] or [`CallTicket::wait_until`]. Dropping it abandons
/// the reply (the worker still runs the call).
#[must_use = "a submitted call completes, but its reply is lost unless waited on"]
pub struct CallTicket {
    cell: Arc<JobCell>,
    yard: Arc<CellYard>,
}

impl CallTicket {
    /// Blocks until the reply is ready. Asking whether it is here yet takes
    /// one atomic load and no lock; a published reply is then taken under
    /// the slot's lock. When it is not here yet, the caller first tries to
    /// run the call itself, where it stands, rather than park for a worker
    /// to be scheduled: it does so if the call is next in the queue's fair
    /// order and a serve token is free, and the call is then
    /// checked, counted and traced exactly as a worker's would be
    /// (`EngineStatsSnapshot::calls_helped` counts these).
    /// A reply the caller produced itself is returned as it stands: only a
    /// reply another thread produced goes through the slot.
    pub fn wait(self) -> flexrpc_runtime::Result<Reply> {
        let reply = self
            .cell
            .slot
            .try_take()
            .or_else(|| self.help())
            .unwrap_or_else(|| self.cell.slot.wait());
        self.yard.recycle(self.cell);
        reply
    }

    /// Serves this ticket's own job on the calling thread, if that is what
    /// a worker would do next and a worker's place is free: some serve token
    /// must be free (a worker mid-drain — busy, or stalled in a handler —
    /// keeps its own, and with every token kept nobody helps: the call stays
    /// queued for shutdown to cancel, for its dwell limit, for the calls
    /// ahead of it) and the queue's fair head must be this very call (so
    /// dequeue order is the workers', and a duplicated delivery's shadow,
    /// queued first in a cell of its own, is never jumped). Anything else
    /// returns `None` at once and the wait parks as it always did.
    fn help(&self) -> Option<flexrpc_runtime::Result<Reply>> {
        let engine = self.yard.engine.upgrade()?;
        // The token is taken after `engine` and so released before it: if
        // this is the last handle, the shutdown its drop runs joins workers
        // that may be waiting for this very token. `job` goes first of all,
        // so the cell is this ticket's alone again when `wait` recycles it.
        let (token, mut helped) =
            engine.serving.iter().enumerate().find_map(|(i, t)| Some((i, t.try_lock()?)))?;
        let own = |job: &Job| Arc::ptr_eq(&job.cell, &self.cell);
        let job = engine.queue.try_pop_if(own)?;
        helped.add(1);
        Some(engine.run_job_on(&job, token))
    }

    /// Blocks until the reply is ready or the engine's sim clock passes
    /// `deadline_ns` — the ticket-wait blocking point of deadline
    /// enforcement: even a call stuck *executing* in a stalled handler
    /// returns [`RpcError::DeadlineExceeded`] once the clock passes. Sim
    /// time advances on other threads, so the park is sliced and the
    /// virtual clock re-checked on each wake.
    ///
    /// A deadline wait never runs the call on this thread — the deadline
    /// must fire while the handler is stuck, the reason the inline path
    /// refuses deadline calls too. Without a deadline this is
    /// [`CallTicket::wait`].
    pub fn wait_until(self, deadline_ns: Option<u64>) -> flexrpc_runtime::Result<Reply> {
        let Some(d) = deadline_ns else { return self.wait() };
        let reply = self.cell.slot.wait_deadline(|| self.yard.clock.expired(d));
        // Also when the wait gave up and the job may yet fill the slot: the
        // cell is only reused once that job has let go of it.
        self.yard.recycle(self.cell);
        reply.unwrap_or(Err(RpcError::DeadlineExceeded))
    }
}

/// One offered call, borrowed from whoever submits it (a connection's
/// `submit*` / `call_with`, or the network acceptor): the single value every
/// submission path hands to [`Engine::submit`] or [`Engine::call_blocking`],
/// beside the replica pool it is to run on — which `submit` takes owned, for
/// the job to keep, and `call_blocking` borrowed.
pub(crate) struct Call<'a> {
    /// What the submitting binding resolved when it was established: its
    /// tenant's live policy handle and metric cells.
    pub(crate) bound: &'a TenantCells,
    /// `bound`'s policy terms, copied for this call out of the submitting
    /// connection's cached policy once its version checked current — so
    /// admission takes no policy lock. The acceptor brings none, and
    /// admission reads through the handle.
    pub(crate) policy: Option<TenantTerms>,
    /// The replica an inline dispatch tries first (a queued job starts at
    /// the replica of whoever runs it).
    pub(crate) home: usize,
    pub(crate) op_index: usize,
    pub(crate) request: &'a [u8],
    pub(crate) rights: &'a [u32],
    /// The caller's absolute sim-clock deadline, if any.
    pub(crate) deadline_ns: Option<u64>,
    /// At-most-once identity, consulted against the engine's reply cache.
    pub(crate) tag: Option<CallTag>,
    /// Span trace of the submitting connection, if it asked for one.
    pub(crate) trace: Option<&'a SharedCallTrace>,
}

/// What admission reads of a tenant's [`Policy`], copied out of it.
#[derive(Clone, Copy)]
pub(crate) struct TenantTerms {
    weight: u32,
    quota: Option<usize>,
    dwell_limit_ns: Option<u64>,
    deadline_ns: Option<u64>,
}

impl TenantTerms {
    fn of(p: &Policy) -> TenantTerms {
        TenantTerms {
            weight: p.weight_value(),
            quota: p.quota_value(),
            dwell_limit_ns: p.dwell_limit_ns(),
            deadline_ns: p.deadline_ns(),
        }
    }
}

/// A queued call: what [`Call`] and its [`Admission`] leave for a worker
/// beyond what its [`JobCell`] holds — the handles a recycled cell must not
/// keep. A job is moved at every hand-off (into its lane, out of it, to the
/// thread that runs it), and a value much past 64 bytes is moved by
/// `memcpy` calls, so everything `Copy` about the call rides in the cell.
struct Job {
    pool: Arc<ReplicaPool>,
    /// The request, the call's admission facts, and the slot the reply
    /// goes to.
    cell: Arc<JobCell>,
    /// Metric cells of the tenant this call was admitted under, so the
    /// worker never touches the control plane's maps.
    tenant_metrics: Arc<TenantMetrics>,
    /// For the real half of a duplicated delivery, its shadow's cell: the
    /// worker waits for that slot, so a worker that pops this job while
    /// another still runs the shadow replays what the shadow recorded.
    after: Option<Arc<JobCell>>,
    /// The submitter's trace and this logical call's id in it: the worker
    /// records the Enqueue (queue dwell) and Dispatch spans there.
    trace: Option<(SharedCallTrace, u64)>,
}

/// What the dispatch body [`Engine::serve`] needs of an admitted call,
/// borrowed from a dequeued [`Job`] by a worker or from the caller's own
/// arguments on the inline path.
struct Dispatch<'a> {
    pool: &'a ReplicaPool,
    op_index: usize,
    request: &'a [u8],
    rights: &'a [u32],
    tag: Option<CallTag>,
    tenant_metrics: &'a TenantMetrics,
    close_after: bool,
    /// Sim time the call entered the queue; `None` for a call that never
    /// did — an inline call, zero dwell by definition.
    queued_at: Option<u64>,
    trace: Option<(&'a SharedCallTrace, u64)>,
}

/// The outcome of the shared admission preamble ([`Engine::admit`]):
/// what the queue needs to place the call and what dispatch must honor.
struct Admission<'a> {
    tenant: TenantId,
    /// The cells the call is charged to: the binding's own, or a
    /// tag-borne foreign tenant's.
    tenant_metrics: &'a Arc<TenantMetrics>,
    weight: u32,
    quota: Option<usize>,
    /// The effective absolute deadline: caller's, tenant default, and
    /// dwell bound reconciled.
    deadline_ns: Option<u64>,
    close_after: bool,
    duplicate: bool,
    /// Sim time at admission (post any induced delay).
    now: u64,
}

/// Interchangeable `ServerInterface` instances for one program combination.
///
/// All replicas share one compiled program and capture the same `Arc`'d
/// application state; any worker may use any free replica.
pub(crate) struct ReplicaPool {
    compiled: Arc<CompiledInterface>,
    /// The server's own call shapes by operation ordinal: the table a
    /// client that declared no presentation binds with (it accepts the
    /// server's).
    server_shapes: Arc<[CallShape]>,
    /// The shapes negotiated against a *declared* client presentation, by
    /// operation ordinal, set by the first bind that declares one. One per
    /// pool is enough: the pool's combination includes the client
    /// presentation's fingerprint, and the client's shapes are inside it.
    declared_shapes: OnceLock<Arc<[CallShape]>>,
    /// One lock per replica: checkout is a `try_lock` and return is the
    /// guard's drop — a single uncontended lock round trip per dispatch,
    /// and the replica never moves.
    replicas: Vec<Mutex<Replica>>,
    /// Parks dispatchers that found every replica out.
    starved: sync::Mutex<()>,
    freed: Condvar,
    /// Dispatchers parked on `freed`, raised under `starved` before the
    /// rescan that precedes the park. A return reads it to skip the
    /// notify — a `futex_wake` — when nobody is starving, as nearly always.
    starving: AtomicUsize,
}

/// One dispatch replica and the engine tallies its dispatches write.
///
/// The tallies are stripes of the engine's own `calls_served` / `bytes_in`
/// / `bytes_out` / `dispatch_errors` / `inline_calls` counters and of
/// `engine.dwell_ns`. Whoever dispatches holds this replica's lock, which
/// makes it their single writer: counting a call costs no locked
/// instruction beyond the lock the dispatch takes anyway. Readers
/// ([`Engine::stats`], the registry) fold the stripes through the parent
/// counters and never take this lock, so a stalled handler stalls no read;
/// when the pool dies the stripes fold into their parents.
struct Replica {
    server: ServerInterface,
    served: CounterStripe,
    bytes_in: CounterStripe,
    bytes_out: CounterStripe,
    errors: CounterStripe,
    inline: CounterStripe,
    dwell_ns: HistogramStripe,
}

impl ReplicaPool {
    /// Takes a free replica for one dispatch, trying `home`'s first so
    /// each worker keeps to its own while there is no contention. Hand it
    /// back through [`ReplicaPool::give_back`].
    fn checkout(&self, home: usize) -> MutexGuard<'_, Replica> {
        let n = self.replicas.len();
        let scan = || (0..n).find_map(|k| self.replicas[(home + k) % n].try_lock());
        if let Some(replica) = scan() {
            return replica;
        }
        // Pools are sized to the worker count, but inline callers on top
        // of a busy worker set can outnumber the replicas. A replica comes
        // free outside `starved`, so its wake can slip between the scan and
        // the park: the park is sliced, which bounds that to a millisecond.
        let mut parked = self.starved.lock().unwrap_or_else(PoisonError::into_inner);
        self.starving.fetch_add(1, Ordering::SeqCst);
        let replica = loop {
            if let Some(replica) = scan() {
                break replica;
            }
            let slice = self.freed.wait_timeout(parked, Duration::from_millis(1));
            parked = slice.unwrap_or_else(PoisonError::into_inner).0;
        };
        self.starving.fetch_sub(1, Ordering::SeqCst);
        replica
    }

    fn give_back(&self, replica: MutexGuard<'_, Replica>) {
        drop(replica);
        if self.starving.load(Ordering::SeqCst) != 0 {
            self.freed.notify_one();
        }
    }

    /// The shared compilation (for building client stubs against it).
    pub(crate) fn compiled(&self) -> Arc<CompiledInterface> {
        Arc::clone(&self.compiled)
    }
}

/// Configures and starts an [`Engine`]: sizing knobs, the engine-level
/// [`Policy`] (aggregate high water, default dwell limit, breaker), and
/// the [`ControlPlane`] that owns per-tenant policy. Obtain via
/// [`Engine::builder`].
#[derive(Debug)]
pub struct EngineBuilder {
    workers: usize,
    queue_depth: usize,
    clock: Option<Arc<SimClock>>,
    amo_ttl: Option<Duration>,
    shared_cache: Option<Arc<ReplyCache>>,
    policy: Policy,
    control: Option<Arc<ControlPlane>>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            workers: 4,
            queue_depth: 64,
            clock: None,
            amo_ttl: None,
            shared_cache: None,
            policy: Policy::new(),
            control: None,
        }
    }
}

impl EngineBuilder {
    /// Worker threads draining the job queue (default 4, min 1).
    pub fn workers(mut self, n: usize) -> EngineBuilder {
        self.workers = n.max(1);
        self
    }

    /// Job-queue capacity (default 64, min 1); pushes beyond it block
    /// (backpressure) unless the engine policy's high-water mark or a
    /// tenant's quota sheds first.
    pub fn queue_depth(mut self, n: usize) -> EngineBuilder {
        self.queue_depth = n.max(1);
        self
    }

    /// The engine-level [`Policy`]: aggregate admission high water,
    /// default queue-dwell limit, breaker arming — one composable value,
    /// read once by [`EngineBuilder::build`] and fixed for the engine's
    /// life. Its tenant terms (weight, quota, deadline) are not read.
    pub fn policy(mut self, policy: Policy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Attaches a shared [`ControlPlane`]: every binding resolves its
    /// tenant's policy handle and metric cells through it, and the
    /// engine's registry adopts its `control.*` / `tenant.*` cells. A
    /// private plane is created when none is supplied.
    pub fn control(mut self, plane: Arc<ControlPlane>) -> EngineBuilder {
        self.control = Some(plane);
        self
    }

    /// Shares a sim clock with the engine (deadlines and dwell limits are
    /// measured on it). A fresh clock is created if none is supplied.
    pub fn clock(mut self, clock: Arc<SimClock>) -> EngineBuilder {
        self.clock = Some(clock);
        self
    }

    /// Enables at-most-once semantics: a reply cache with this TTL
    /// (measured on the engine clock) suppresses duplicate executions of
    /// tagged calls. Off by default.
    pub fn at_most_once(mut self, ttl: Duration) -> EngineBuilder {
        self.amo_ttl = Some(ttl);
        self
    }

    /// Enables at-most-once semantics backed by an *existing* reply cache
    /// — the engine-group membership primitive. Every replica engine
    /// built with the same cache suppresses duplicates any member of the
    /// group already executed, which closes the cross-server duplicate
    /// window per-server caches leave open: a reply lost after execution
    /// no longer re-executes when the supervisor fails the replay over to
    /// a different replica. Takes precedence over
    /// [`EngineBuilder::at_most_once`]; the cache's TTL clock should be
    /// the same sim clock the group's engines share.
    pub fn shared_reply_cache(mut self, cache: Arc<ReplyCache>) -> EngineBuilder {
        self.shared_cache = Some(cache);
        self
    }

    /// Starts the engine: spawns the workers, returns the shared handle.
    pub fn build(self) -> Arc<Engine> {
        let clock = self.clock.unwrap_or_default();
        let reply_cache = self
            .shared_cache
            .or_else(|| self.amo_ttl.map(|ttl| ReplyCache::new(Arc::clone(&clock), ttl)));
        let breaker = self.policy.breaker_config().map(|(t, c)| CircuitBreaker::new(t, c));
        let control = self.control.unwrap_or_else(ControlPlane::new);
        let counters = EngineCounters::default();
        let serving =
            (0..self.workers).map(|_| Mutex::new(counters.calls_helped.stripe())).collect();
        let engine = Arc::new_cyclic(|weak| Engine {
            workers_n: self.workers,
            high_water: self.policy.high_water_value(),
            dwell_limit_ns: self.policy.dwell_limit_ns(),
            control,
            yard: Arc::new(CellYard {
                clock: Arc::clone(&clock),
                engine: Weak::clone(weak),
                free: Mutex::new(VecDeque::new()),
                capacity: self.queue_depth,
            }),
            clock,
            queue: Arc::new(WfqQueue::new(self.queue_depth)),
            serving,
            workers: Mutex::new(Vec::new()),
            cache: ProgramCache::new(),
            services: RwLock::new(HashMap::new()),
            counters,
            faults: FaultInjector::new(),
            reply_cache,
            breaker,
            metrics: Arc::new(MetricsRegistry::new()),
        });
        // The registry adopts every live counter the engine owns — its
        // own, the program cache's, the breaker's, the reply cache's, and
        // the control plane's per-tenant cells — so
        // `engine.metrics().snapshot()` and `engine.stats()` read the
        // same cells.
        engine.counters.register_metrics(&engine.metrics);
        engine.cache.counters.register_metrics(&engine.metrics);
        if let Some(b) = &engine.breaker {
            b.counters.register_metrics(&engine.metrics);
        }
        if let Some(c) = &engine.reply_cache {
            c.register_metrics(&engine.metrics);
        }
        engine.control.attach_registry(&engine.metrics);
        let mut workers = engine.workers.lock();
        for own in 0..engine.workers_n {
            let queue = Arc::clone(&engine.queue);
            let eng = Arc::downgrade(&engine);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("flexrpc-worker-{own}"))
                    .spawn(move || {
                        // Parked on the queue's own consumer park until it
                        // holds work; the pops come in `drain`, under the
                        // serve token. The handle is weak, so this thread
                        // never keeps a dropped engine alive; it is
                        // upgraded once per drain, not per job. If it is
                        // the last handle, its drop runs `shutdown` here,
                        // after the drain.
                        while queue.wait_ready() {
                            let Some(engine) = eng.upgrade() else { return };
                            engine.drain(own);
                        }
                    })
                    .expect("worker thread spawns"),
            );
        }
        drop(workers);
        engine
    }
}

/// The concurrent serving engine. Create with [`Engine::builder`]; it owns
/// its worker threads until [`Engine::shutdown`] (or drop).
pub struct Engine {
    workers_n: usize,
    /// The build-time policy's aggregate admission backstop: with more
    /// than this many calls queued engine-wide, submissions are shed.
    high_water: Option<usize>,
    /// The build-time policy's queue-dwell limit, for tenants that set
    /// none of their own.
    dwell_limit_ns: Option<u64>,
    /// The control plane owning per-tenant policy and metrics.
    control: Arc<ControlPlane>,
    clock: Arc<SimClock>,
    /// The clock again and the job-cell free list, as tickets hold them.
    yard: Arc<CellYard>,
    /// The one weighted-fair queue every worker drains, shared with the
    /// worker threads, which park on it before they upgrade their handle.
    queue: Arc<WfqQueue<Job>>,
    /// One serve token per worker. Worker `i` holds token `i` from before
    /// the first pop of a drain until the queue reads empty (so an idle
    /// worker waits on the queue with `wait_ready`, which pops nothing); a
    /// [`CallTicket::wait`] that would run its own job `try_lock`s any of
    /// them and gives up if every one is taken. So at most `workers` queued
    /// jobs run at once, each started in dequeue order, and a one-worker
    /// engine runs them one at a time — what its stateful services rely on.
    ///
    /// What a token guards is its stripe of `calls_helped`, so a helped
    /// call pays no locked instruction to be counted.
    serving: Box<[Mutex<CounterStripe>]>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    cache: ProgramCache,
    services: RwLock<HashMap<String, Arc<Service>>>,
    counters: EngineCounters,
    /// Induced failures at admission (crash/close/drop/delay/duplicate).
    faults: FaultInjector,
    /// At-most-once reply cache, if [`EngineBuilder::at_most_once`] set.
    reply_cache: Option<Arc<ReplyCache>>,
    /// Admission health gate, armed from the build-time policy's
    /// [`Policy::breaker`] config.
    breaker: Option<CircuitBreaker>,
    /// The unified metrics plane: every engine counter, the program cache
    /// rollups, the breaker counters, the reply cache, the control
    /// plane's per-tenant cells, and the dwell histogram under stable
    /// dotted names.
    metrics: Arc<MetricsRegistry>,
}

impl Engine {
    /// A builder with default sizing (4 workers, queue depth 64, neutral
    /// policy, private control plane, fresh clock).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The sim clock deadlines and dwell limits are measured on.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The control plane owning per-tenant policy for this engine.
    pub fn control(&self) -> &Arc<ControlPlane> {
        &self.control
    }

    /// One drain of the queue by worker `own`, under its serve token from
    /// before the first pop until the queue reads empty, each reply
    /// published to its job's slot for the ticket that waits on it. A
    /// caller helping itself to its own job ([`CallTicket::wait`]) under
    /// this token holds it meanwhile: the worker waits here for that one
    /// job, then drains what is left.
    fn drain(&self, own: usize) {
        let _token = self.serving[own].lock();
        while let Some(job) = self.queue.try_pop() {
            job.cell.slot.fill(self.run_job_on(&job, own));
        }
    }

    /// What happens to a dequeued job, whichever thread dequeued it — a
    /// worker or the caller waiting for it, under serve token `own`: the
    /// dwell check, a duplicated delivery's shadow, then the dispatch body.
    /// The reply is returned, not published: the caller that ran its own
    /// job keeps it, and `drain` fills the slot for anyone else's.
    fn run_job_on(&self, job: &Job, own: usize) -> flexrpc_runtime::Result<Reply> {
        let cell = &*job.cell;
        // Dwell check: work whose deadline passed while queued is
        // failed, not started — the client has already given up on it.
        if cell.deadline_ns.is_some_and(|d| self.clock.expired(d)) {
            self.counters.job_expired();
            job.tenant_metrics.expired.inc();
            return Err(RpcError::DeadlineExceeded);
        }
        if let Some(shadow) = &job.after {
            let _ = shadow.slot.wait();
        }
        let dispatch = Dispatch {
            pool: &job.pool,
            op_index: cell.op_index,
            request: &cell.request,
            rights: &cell.rights,
            tag: cell.tag,
            tenant_metrics: &job.tenant_metrics,
            close_after: cell.close_after,
            queued_at: Some(cell.enqueue_ns),
            trace: job.trace.as_ref().map(|(t, call)| (t, *call)),
        };
        let mut reply = Reply::default();
        self.serve(&dispatch, own, &mut reply.body, &mut reply.rights).map(|()| reply)
    }

    /// The one dispatch body, entered with a dequeued job and a fresh
    /// [`Reply`] (`run_job_on`), and by an inline caller with its own
    /// buffers: tenant cells, Enqueue and Dispatch spans, replica checkout (starting at
    /// `home`), the dispatch itself, the engine's tallies, the breaker
    /// record, and an induced close. On any failure the buffers come back
    /// empty.
    ///
    /// Which tally is written where: the engine's `calls_served`,
    /// `bytes_in`, `bytes_out`, `dispatch_errors`, `inline_calls` and
    /// `engine.dwell_ns` are the replica's own stripes, written between
    /// `checkout` and `give_back` under the replica lock the dispatch
    /// holds anyway — plain stores, worker and inline alike. The tenant's
    /// `served` and dwell bucket are shared cells (the tenant spans
    /// connections and pools), and `in_flight` is one shared exact gauge,
    /// taken down once the replica is back.
    ///
    /// Forced inline: with two call sites it is otherwise an out-of-line
    /// call from the inline path, measured at +7 ns a call (≈2 %, losing
    /// ten of ten pairs) on the benchmark's `engine_inline` workload.
    #[inline(always)]
    fn serve(
        &self,
        d: &Dispatch<'_>,
        home: usize,
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> flexrpc_runtime::Result<()> {
        let started_ns = self.clock.now_ns();
        let queued_at = d.queued_at.unwrap_or(started_ns);
        let dwell = started_ns.saturating_sub(queued_at);
        d.tenant_metrics.served.inc();
        d.tenant_metrics.dwell_ns.record(dwell);
        if let Some((t, call)) = d.trace {
            t.record(call, Stage::Enqueue, queued_at, started_ns, 0);
        }
        let mut replica = d.pool.checkout(home);
        reply.clear();
        rights_out.clear();
        let mut result = replica
            .server
            .dispatch_tagged(d.op_index, d.request, d.rights, d.tag, 0, reply, rights_out);
        let ok = result.is_ok();
        replica.served.add(1);
        replica.bytes_in.add(d.request.len() as u64);
        if ok {
            replica.bytes_out.add(reply.len() as u64);
        } else {
            replica.errors.add(1);
        }
        if d.queued_at.is_none() {
            replica.inline.add(1);
        }
        replica.dwell_ns.record(dwell);
        d.pool.give_back(replica);
        self.counters.in_flight.sub(1);
        if let Some((t, call)) = d.trace {
            t.record(call, Stage::Dispatch, started_ns, self.clock.now_ns(), d.op_index as u64);
        }
        if let Some(b) = &self.breaker {
            b.record(ok, self.clock.now_ns());
        }
        // An induced Close: the call executed (and an at-most-once engine
        // cached its reply), but the reply is lost on the way back.
        if d.close_after {
            result = Err(RpcError::Disconnected(Disconnect::ClosedBeforeReply));
        }
        if result.is_err() {
            reply.clear();
            rights_out.clear();
        }
        result
    }

    /// Shared admission preamble for every submission path: the breaker
    /// gate, the effective tenant, the fault gate, and deadline /
    /// dwell-limit resolution. Exactly one fault event is consumed per
    /// offered call, whether it then runs inline or through a queue.
    ///
    /// `call.bound` is what the submitting binding resolved when it was
    /// established, so the warm path hashes no map and clones no `Arc`.
    /// The tenant's terms are the ones the call brings, copied from its
    /// connection's version-checked cache, when it is charged to the
    /// binding's tenant, and are read in place through the handle otherwise
    /// (the acceptor); either way a swap is visible to the very next call. The
    /// engine's own terms are plain fields, fixed at build. Only a tag
    /// naming *another* non-default tenant — the acceptor path, where
    /// tenancy rides the wire credential — goes to the plane's map; those
    /// cells are parked in `foreign` so the admission can borrow them, and
    /// its policy is the foreign tenant's, never the cached one.
    fn admit<'a>(
        &self,
        call: &Call<'a>,
        foreign: &'a mut Option<TenantCells>,
    ) -> Result<Admission<'a>, EngineError> {
        // Health gate first: an open breaker refuses before any work or
        // fault accounting happens, so clients fail over immediately.
        if let Some(b) = &self.breaker {
            if !b.allow(self.clock.now_ns()) {
                return Err(EngineError::Disconnected(Disconnect::BreakerOpen));
            }
        }
        let (cells, cached): (&TenantCells, _) = match call.tag.map(|t| t.tenant) {
            Some(t) if !t.is_default() && t != call.bound.handle.tenant() => {
                (foreign.insert(self.control.resolve(t)), None)
            }
            _ => (call.bound, call.policy),
        };
        // Induced faults are applied at admission — the point where both
        // the same-domain path and the network acceptor path converge. The
        // message has already arrived, so a cut link reads as a refused
        // connection.
        let verdict = self.faults.gate(&self.clock);
        match verdict.lost {
            Some(Lost::Dropped) => return Err(EngineError::Dropped),
            Some(Lost::PeerDown) => return Err(EngineError::Disconnected(Disconnect::PeerDown)),
            Some(Lost::LinkCut) => return Err(EngineError::Disconnected(Disconnect::LinkCut)),
            None => {}
        }
        let now = self.clock.now_ns();
        let terms = cached.unwrap_or_else(|| cells.handle.with(TenantTerms::of));
        // The tenant's dwell limit overrides the engine default; the
        // tenant's deadline default applies only when the caller set none.
        let dwell_deadline =
            terms.dwell_limit_ns.or(self.dwell_limit_ns).map(|d| now.saturating_add(d));
        let deadline_ns =
            call.deadline_ns.or_else(|| terms.deadline_ns.map(|d| now.saturating_add(d)));
        let deadline_ns = match (deadline_ns, dwell_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Ok(Admission {
            tenant: cells.handle.tenant(),
            tenant_metrics: &cells.metrics,
            weight: terms.weight,
            quota: terms.quota,
            deadline_ns,
            close_after: verdict.close_after,
            duplicate: verdict.duplicate,
            now,
        })
    }

    /// Submits one call to the queue through per-tenant admission control.
    ///
    /// The effective tenant is the tag's (when it carries a non-default
    /// one) or the binding's. Its live [`Policy`] decides the
    /// weighted-fair share, the quota (excess shed as
    /// [`EngineError::Overloaded`], charged to this tenant), and
    /// dwell/deadline overrides — the dwell limit applies even without a
    /// caller deadline; the engine policy's high water is the aggregate
    /// backstop. With a high water set the push never blocks; without one
    /// it blocks at queue capacity (backpressure), though a quota refusal
    /// still returns immediately.
    pub(crate) fn submit(
        &self,
        call: &Call<'_>,
        pool: Arc<ReplicaPool>,
    ) -> Result<CallTicket, EngineError> {
        let mut foreign = None;
        let adm = self.admit(call, &mut foreign)?;
        self.enqueue(call, pool, &adm)
    }

    /// The queue tail of admission: the call and its admission facts copied
    /// into a job cell, the pre-expired check, the job (and its shadow, for
    /// a duplicated delivery) and the weighted-fair push. `pool` is the
    /// caller's handle on the replica pool, handed on to the job.
    fn enqueue(
        &self,
        call: &Call<'_>,
        pool: Arc<ReplicaPool>,
        adm: &Admission<'_>,
    ) -> Result<CallTicket, EngineError> {
        let cell = self.yard.cell_for(call, adm, true);
        let ticket = CallTicket { cell: Arc::clone(&cell), yard: Arc::clone(&self.yard) };
        // A deadline already in the past never enters the queue; the
        // ticket comes back pre-failed so the caller's wait is uniform.
        if adm.deadline_ns.is_some_and(|d| self.clock.expired(d)) {
            self.counters.deadline_expired.inc();
            adm.tenant_metrics.expired.inc();
            cell.slot.fill(Err(RpcError::DeadlineExceeded));
            return Ok(ticket);
        }
        // `after` is the shadow's cell when this is the real half of a
        // duplicated delivery; the shadow itself is the job built with
        // `real` false: it loses no reply (its cell says so) and is
        // invisible to the submitter's trace.
        let job = |pool, cell, after: Option<Arc<JobCell>>, real: bool| Job {
            pool,
            cell,
            tenant_metrics: Arc::clone(adm.tenant_metrics),
            after,
            trace: call.trace.filter(|_| real).map(|t| (t.clone(), t.begin_call())),
        };
        let mut after = None;
        if adm.duplicate {
            // Duplicated delivery: a shadow copy of the job, in a cell of
            // its own, runs first and its reply is discarded. Under
            // at-most-once the shadow records into the reply cache and the
            // real job replays from it — one handler execution even though
            // the queue saw the call twice.
            let shadow = self.yard.cell_for(call, adm, false);
            self.push_job(job(Arc::clone(&pool), Arc::clone(&shadow), None, false), adm)?;
            after = Some(shadow);
        }
        self.push_job(job(pool, cell, after, true), adm)?;
        Ok(ticket)
    }

    /// Pushes one job onto its tenant's lane, honoring the tenant quota
    /// and the engine policy's aggregate high water. A shed is charged to
    /// the submitting tenant's own counter as well as the engine's. A
    /// successful push wakes a parked worker, unless earlier pushes already
    /// claimed every parked worker's wake.
    fn push_job(&self, job: Job, adm: &Admission<'_>) -> Result<(), EngineError> {
        self.counters.job_enqueued();
        let pushed = match self.high_water {
            Some(hw) => self.queue.try_push(job, adm.tenant, adm.weight, adm.quota, hw),
            None => self.queue.push(job, adm.tenant, adm.weight, adm.quota),
        };
        match pushed {
            Ok(()) => {
                adm.tenant_metrics.admitted.inc();
                Ok(())
            }
            Err(WfqRefusal::Quota(_)) | Err(WfqRefusal::Full(_)) => {
                self.counters.in_flight.sub(1);
                self.counters.job_shed();
                adm.tenant_metrics.shed.inc();
                Err(EngineError::Overloaded)
            }
            Err(WfqRefusal::Closed(_)) => {
                self.counters.in_flight.sub(1);
                Err(EngineError::Closed)
            }
        }
    }

    /// A blocking call that may bypass the queue entirely — LRPC-style
    /// direct dispatch on the caller's thread, straight into the caller's
    /// reply buffers: no `Job`, no intermediate `Reply`, no worker handoff.
    ///
    /// Eligibility is decided *after* the shared admission preamble (so
    /// the breaker and the fault gate see every call alike): the call must
    /// have no deadline to enforce mid-dispatch, the queue must be empty
    /// (with a backlog, jumping the weighted-fair queue would defeat QoS),
    /// and the engine must be open. Everything else takes the queue
    /// and waits on the ticket.
    pub(crate) fn call_blocking(
        &self,
        call: &Call<'_>,
        pool: &Arc<ReplicaPool>,
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> flexrpc_runtime::Result<()> {
        let mut foreign = None;
        let adm = self.admit(call, &mut foreign)?;
        // Duplicate deliveries must ride the queue: the shadow and the
        // real call share one FIFO lane there, so the shadow strictly
        // precedes the real execution and the at-most-once cache sees
        // exactly one handler run. Inline would race them.
        if adm.deadline_ns.is_none()
            && !adm.duplicate
            && self.queue.is_empty()
            && !self.queue.is_closed()
        {
            self.counters.job_enqueued();
            let dispatch = Dispatch {
                pool,
                op_index: call.op_index,
                request: call.request,
                rights: call.rights,
                tag: call.tag,
                tenant_metrics: adm.tenant_metrics,
                close_after: adm.close_after,
                queued_at: None,
                trace: call.trace.map(|t| (t, t.begin_call())),
            };
            return self.serve(&dispatch, call.home, reply, rights_out);
        }
        let ticket = self.enqueue(call, Arc::clone(pool), &adm)?;
        // Move, don't copy: the worker's reply body becomes the caller's
        // buffer (the caller's old allocation rides back into `r` and is
        // dropped).
        let mut r = ticket.wait_until(call.deadline_ns)?;
        std::mem::swap(reply, &mut r.body);
        rights_out.clear();
        rights_out.extend_from_slice(&r.rights);
        Ok(())
    }

    /// Live counters (crate-internal; external readers use [`Engine::stats`]).
    pub(crate) fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// The shared program cache (hit/miss counters for tests and reports).
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// The engine's fault injector: plan crashes, closes, drops, delays
    /// against admission (tests and the failover experiment).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The at-most-once reply cache, if enabled.
    pub fn reply_cache(&self) -> Option<&Arc<ReplyCache>> {
        self.reply_cache.as_ref()
    }

    /// The engine's unified metrics plane: counter and histogram handles
    /// under stable dotted names (`engine.*`, `cache.*`, `breaker.*`,
    /// `replycache.*`, `control.*`, `tenant.<id>.*`), for JSON export and
    /// for adopting further components (e.g. a supervisor) into one
    /// snapshot.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Point-in-time statistics, read from the cells the engine, its
    /// breaker and its reply cache hold — the same cells the registry
    /// adopted, so a [`MetricsRegistry`] snapshot can never disagree.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let now = self.clock.now_ns();
        self.counters.snapshot(
            self.queue.len(),
            self.workers_n,
            self.cache.stats(),
            self.reply_cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            // Open means refusing *now*: a cooled-down breaker reads closed.
            self.breaker
                .as_ref()
                .map(|b| BreakerStats { open: b.is_open(now), ..b.stats() })
                .unwrap_or_default(),
        )
    }

    /// Graceful drain: refuse new work, fail every queued-but-unstarted
    /// call with [`RpcError::Cancelled`] (its submitter learns immediately
    /// rather than waiting on work that will never run), let executing
    /// calls finish, join workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        for job in self.queue.close() {
            self.counters.job_cancelled();
            job.cell.slot.fill(Err(RpcError::Cancelled));
        }
        // A worker that upgraded its weak handle for a job can be the one
        // dropping the last `Arc<Engine>`, which lands here on that worker:
        // it cannot join itself (its handle is dropped instead; it exits as
        // soon as it sees the queue closed) but still joins its peers.
        let me = std::thread::current().id();
        let mut workers = self.workers.lock();
        for w in workers.drain(..).filter(|w| w.thread().id() != me) {
            let _ = w.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers_n)
            .field("services", &self.services.read().len())
            .field("cache", &self.cache)
            .field("control", &self.control)
            .finish()
    }
}

/// A same-domain client connection: submits jobs to the engine's queue and
/// blocks on completion. Supports multiple outstanding calls (pipelining)
/// through [`EngineConnection::submit`] / [`CallTicket::wait`]. The
/// connection's [`CallOptions`] deadline applies to every call on it; its
/// tenant decides whose weighted-fair lane the calls ride.
pub struct EngineConnection {
    engine: Arc<Engine>,
    /// The service bound to, resolved at establishment: a rebind swaps the
    /// combination, never the service.
    service: Arc<Service>,
    /// The tenant this connection submits as: its live policy handle and
    /// metric cells, resolved at establishment.
    tenant: TenantCells,
    /// The replica this connection's inline calls try first: a
    /// process-unique connection id modulo the worker count, fixed at
    /// establishment, so concurrent blocking callers start apart.
    home: usize,
    /// The combination currently bound — swapped live by
    /// [`EngineConnection::rebind`] without draining in-flight calls
    /// (each queued job holds its own `Arc` to the pool it was admitted
    /// against) — and the connection's cached copy of its tenant's policy,
    /// validated by version under the same lock every call takes anyway.
    bind: RwLock<Binding>,
    options: CallOptions,
    /// Server-side span trace for this connection's calls, present when
    /// the connection was established with [`CallOptions::traced`].
    trace: Option<SharedCallTrace>,
}

impl EngineConnection {
    /// Starts a call without waiting for it — the same-domain analogue of
    /// multiple outstanding XIDs. Submit several, then wait on the
    /// tickets. The connection's deadline (if any) is attached to the job.
    pub fn submit(
        &self,
        op_index: usize,
        request: &[u8],
        rights: &[u32],
    ) -> Result<CallTicket, EngineError> {
        self.submit_with(op_index, request, rights, self.connection_deadline())
    }

    /// [`EngineConnection::submit`] with an explicit absolute deadline on
    /// the engine clock (overriding the connection's).
    pub fn submit_with(
        &self,
        op_index: usize,
        request: &[u8],
        rights: &[u32],
        deadline_ns: Option<u64>,
    ) -> Result<CallTicket, EngineError> {
        self.submit_tagged(op_index, request, rights, deadline_ns, None)
    }

    /// [`EngineConnection::submit_with`] carrying an at-most-once tag for
    /// the engine's reply cache.
    pub fn submit_tagged(
        &self,
        op_index: usize,
        request: &[u8],
        rights: &[u32],
        deadline_ns: Option<u64>,
        tag: Option<CallTag>,
    ) -> Result<CallTicket, EngineError> {
        let (pool, terms) = self.admission_view();
        let call = Call {
            bound: &self.tenant,
            policy: Some(terms),
            home: self.home,
            op_index,
            request,
            rights,
            deadline_ns,
            tag,
            trace: self.trace.as_ref(),
        };
        self.engine.submit(&call, pool)
    }

    /// The pool a submit runs on and its tenant's current terms, both read
    /// under the binding's read guard: the pool cloned out, not borrowed
    /// (admission can block on backpressure, and a rebind must not wait
    /// behind it for the binding lock; the clone is the one the job keeps),
    /// and the terms copied from the binding's cached policy once one
    /// version load shows it current. Only after a swap is the policy
    /// re-read, under the write guard.
    fn admission_view(&self) -> (Arc<ReplicaPool>, TenantTerms) {
        let view = |bind: &Binding| (Arc::clone(&bind.pool), TenantTerms::of(bind.policy.policy()));
        let bind = self.bind.read();
        if self.tenant.handle.is_current(&bind.policy) {
            return view(&bind);
        }
        drop(bind);
        let mut bind = self.bind.write();
        self.tenant.handle.refresh(&mut bind.policy);
        view(&bind)
    }

    /// Re-runs bind-time negotiation **live**: resolves the combination
    /// for `pres` (compiling its program on first use, through the shared
    /// cache), re-negotiates every operation's call shape, and swaps the
    /// connection's binding in one store. In-flight calls are untouched —
    /// each queued job holds its own `Arc` to the pool it was admitted
    /// against and completes there; every submission after the swap runs
    /// the new combination. On any failure (compile error, shape
    /// mismatch, an operation the service does not have) the old binding
    /// stays in force.
    pub fn rebind(&self, pres: &InterfacePresentation) -> Result<(), EngineError> {
        let (pool, shapes) = self.engine.bind(
            &self.service,
            ClientInfo::of(pres),
            Some(pres),
            self.trace.as_ref(),
        )?;
        *self.bind.write() = Binding { pool, shapes, policy: self.tenant.handle.cached() };
        self.engine.counters.rebinds.inc();
        Ok(())
    }

    /// The connection's default deadline resolved against the engine
    /// clock, fresh for each call.
    fn connection_deadline(&self) -> Option<u64> {
        self.options.deadline_ns().map(|d| self.engine.clock.now_ns().saturating_add(d))
    }

    /// The per-connection call options.
    pub fn options(&self) -> &CallOptions {
        &self.options
    }

    /// The tenant this connection submits as.
    pub fn tenant(&self) -> TenantId {
        self.tenant.handle.tenant()
    }

    /// The program this connection's combination compiled to (shared with
    /// every other connection of the same combination). After a
    /// [`rebind`](EngineConnection::rebind), the new combination's.
    pub fn program(&self) -> Arc<CompiledInterface> {
        self.bind.read().pool.compiled()
    }

    /// The connection's server-side span trace (bind, queue dwell,
    /// dispatch), if established with [`CallOptions::traced`].
    pub fn trace(&self) -> Option<&SharedCallTrace> {
        self.trace.as_ref()
    }

    /// The call shape settled for `op` at bind time: both ends' shape
    /// declarations reconciled, stream windows at their negotiated minimum.
    /// Every operation of the service has one; `None` for a name the
    /// service's interface does not declare.
    pub fn negotiated_shape(&self, op: &str) -> Option<CallShape> {
        let bind = self.bind.read();
        let ordinal = bind.pool.compiled.op_index(op)?;
        Some(bind.shapes[ordinal])
    }
}

impl Transport for EngineConnection {
    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> flexrpc_runtime::Result<usize> {
        // The call-level deadline (already absolute) wins over the
        // connection-level one; either bounds the queue dwell, the
        // execution, and the ticket wait. With no deadline and an idle
        // queue the engine dispatches inline on this thread — no queue,
        // no worker handoff, the reply marshalled straight into `reply`.
        let deadline_ns = ctl.deadline_ns.or_else(|| self.connection_deadline());
        // `&mut self`: the binding's cached policy is this call's alone to
        // bring up to date (one version load while nothing was swapped),
        // and no rebind can run, so the binding is read in place — no lock,
        // no `Arc` clone.
        let bind = self.bind.get_mut();
        self.tenant.handle.refresh(&mut bind.policy);
        let call = Call {
            bound: &self.tenant,
            policy: Some(TenantTerms::of(bind.policy.policy())),
            home: self.home,
            op_index: op.index,
            request,
            rights,
            deadline_ns,
            tag: ctl.tag,
            trace: self.trace.as_ref(),
        };
        self.engine.call_blocking(&call, &bind.pool, reply, rights_out)?;
        Ok(0)
    }

    fn send_oneway(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) -> flexrpc_runtime::Result<()> {
        // Admission happens synchronously (the fault gate and shed policy
        // still apply), but nobody waits on the ticket: the job runs, its
        // reply evaporates — the same-domain form of a datagram.
        let deadline_ns = ctl.deadline_ns.or_else(|| self.connection_deadline());
        match self.submit_tagged(op.index, request, rights, deadline_ns, ctl.tag) {
            Ok(ticket) => drop(ticket),
            // No reply to miss: a message the fault gate lost is lost
            // silently, as on every other transport. An open breaker still
            // refuses.
            Err(EngineError::Dropped | EngineError::Disconnected(Disconnect::PeerDown))
            | Err(EngineError::Disconnected(Disconnect::LinkCut)) => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    fn clock(&self) -> Option<Arc<SimClock>> {
        Some(Arc::clone(&self.engine.clock))
    }
}

impl std::fmt::Debug for EngineConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineConnection({:?})", self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::ir::fileio_example;
    use flexrpc_marshal::WireFormat;
    use flexrpc_runtime::wire::AnyWriter;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Instant;

    /// How long a test waits for another thread before calling it stuck.
    const STUCK: Duration = Duration::from_secs(30);

    #[test]
    fn the_free_list_never_outgrows_the_queues() {
        let yard = CellYard {
            clock: Arc::default(),
            engine: Weak::new(),
            free: Mutex::new(VecDeque::new()),
            capacity: 3,
        };
        for _ in 0..5 {
            yard.recycle(Arc::default());
        }
        assert_eq!(yard.free.lock().len(), 3);
    }

    /// A job is moved at every hand-off: into its lane, out of it, to the
    /// thread that runs it. Much past 64 bytes those moves compile to
    /// `memcpy` calls, so whatever `Copy` fact a job could carry rides in
    /// its cell.
    #[test]
    fn a_job_is_no_bigger_than_a_cache_line() {
        assert!(size_of::<Job>() <= 64, "Job is {} bytes", size_of::<Job>());
    }

    /// A CDR `write(data)` request for the FileIO example interface.
    fn write_request(data: &[u8]) -> Vec<u8> {
        let mut w = AnyWriter::new(WireFormat::Cdr);
        w.put_bytes(data);
        w.into_bytes()
    }

    #[test]
    fn a_redeemed_megabyte_request_is_not_kept() {
        let engine = Engine::builder().workers(1).queue_depth(4).build();
        let module = fileio_example();
        let pres = InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap())
            .unwrap();
        engine
            .register_service("sink", module, "FileIO", pres, WireFormat::Cdr, |srv| {
                srv.on("write", |_| 0).unwrap();
            })
            .unwrap();
        let conn = engine.connect("sink").establish().unwrap();
        let write = conn.program().op("write").unwrap().index;
        for data in [vec![7u8; 1 << 20], vec![7u8; 16]] {
            conn.submit(write, &write_request(&data), &[]).unwrap().wait().unwrap();
        }
        let free = engine.yard.free.lock();
        assert_eq!(free.len(), 1, "only the small request's cell came back");
        assert!(free.iter().all(|c| c.request.capacity() <= CELL_RETAIN_BYTES));
    }

    /// The replica pool's park, end to end: while a handler holds the one
    /// replica, an inline call finds none free and parks, counted in
    /// `starving`; the replica's return is what serves it.
    #[test]
    fn an_inline_call_parks_on_a_held_replica_until_it_comes_back() {
        let engine = Engine::builder().workers(1).build();
        let module = fileio_example();
        let pres = InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap())
            .unwrap();
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let handler = Arc::new(Mutex::new((entered_tx, release_rx)));
        engine
            .register_service("held", module, "FileIO", pres, WireFormat::Cdr, move |srv| {
                let handler = Arc::clone(&handler);
                srv.on("write", move |_| {
                    let (entered, release) = &*handler.lock();
                    entered.send(()).expect("test listens");
                    release.recv().expect("test releases");
                    0
                })
                .unwrap();
            })
            .unwrap();
        let first = engine.connect("held").establish().unwrap();
        let pool = Arc::clone(&first.bind.read().pool);
        let write = first.program().op("write").unwrap().index;
        let held = first.submit(write, &write_request(b"held"), &[]).unwrap();
        entered.recv_timeout(STUCK).expect("the worker runs the first call");

        let mut second = engine.connect("held").establish().unwrap();
        let inline = thread::spawn(move || {
            let program = second.program();
            let op = program.op("write").expect("declared");
            let (mut reply, mut rights) = (Vec::new(), Vec::new());
            second.call(op, &write_request(b"parked"), &[], &mut reply, &mut rights)
        });
        let start = Instant::now();
        while pool.starving.load(Ordering::SeqCst) != 1 {
            assert!(start.elapsed() < STUCK, "the inline call never parked");
            thread::yield_now();
        }
        // One release for the held call, one for the parked call's own run.
        release.send(()).unwrap();
        release.send(()).unwrap();
        assert_eq!(inline.join().unwrap(), Ok(0), "the parked call was served");
        held.wait().unwrap();
        assert_eq!(pool.starving.load(Ordering::SeqCst), 0);
        assert_eq!(engine.stats().inline_calls, 1);
    }
}
