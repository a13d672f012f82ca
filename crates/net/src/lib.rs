//! A simulated network substrate with a deterministic wire clock.
//!
//! The paper's NFS experiment (Figure 2) ran over a 10 Mbit Ethernet between
//! a BSD file server and a Linux client, and its figure decomposes each bar
//! into a constant "network and server processing" part and a varying
//! "client processing" part. We cannot reproduce that hardware, so this
//! substrate splits the same way, by construction:
//!
//! * The **CPU side** is real work and nothing else: the request is really
//!   copied into the far side's receive buffer, the registered service
//!   handler really runs and frames its reply where the caller reads it, and
//!   the message's packets, bytes and wire time are tallied once — by a
//!   [`Link`] into cells of its own, which every read of the network's
//!   totals folds in. No wall clock is read here. `benchmark/` times this
//!   part (`sunrpc_tagged`); `report fig2` states it as paired ratios, and
//!   to report *client* processing it times the far side itself, by
//!   wrapping the handler it serves ([`SimNet::handler`]) — the far side's
//!   real time is the harness's to measure, not a cost every message of
//!   every network pays.
//! * The **wire side** is a deterministic clock ([`SimNet::wire_ns`]):
//!   each message charges per-packet latency plus bytes/bandwidth at the
//!   configured link speed. It is identical across presentation variants —
//!   exactly the constant left-hand bar segment of Figure 2 — and the bench
//!   harness reports it alongside measured CPU time.
//!
//! # A link is resolved where a binding is made
//!
//! What a message needs from the host table — that both endpoints exist,
//! the destination's fault plan, its handler — changes when a host is added
//! or a handler registered, not per message. A [`Link`] ([`SimNet::link`])
//! resolves it once and keeps it, with the far side's receive buffer, for
//! the `(from, to)` pair a binding talks over; a Sun RPC client transport,
//! a pipelining client and the hand-coded NFS client each hold one.
//!
//! **The version rule.** [`SimNet::add_host`] and
//! [`SimNet::register_handler`] bump the host table's version under the
//! host lock; a link remembers the version it resolved at and compares it
//! with one load per message, resolving again under the lock when they
//! differ. A registration that returned before a message began is therefore
//! seen by that message. One that races a message may miss it — the
//! interleaving [`SimNet::call`] has always allowed, since it too runs the
//! handler it found outside the lock.
//!
//! [`SimNet::call`] and [`SimNet::send`] are *resolve, then the same
//! message body* a link runs: there is one implementation of what a message
//! costs and what each fault does to it. Only where the tally goes differs:
//! an unlinked message adds it to the network's shared cells, a link to its
//! own stripes of them (see [`NetStats`]).
//!
//! [`sunrpc`] adds the Sun RPC call/reply message layer (XIDs, program/
//! version/procedure headers, record marking) used by the NFS experiment.

pub mod sunrpc;

use flexrpc_clock::{Disconnect, FaultInjector, Lost, SimClock, Verdict};
use flexrpc_trace::{Counter, CounterStripe};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from the simulated network: each a value, built without
/// allocating, so a hostile frame costs its refusal nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// Unknown host.
    NoSuchHost(HostId),
    /// The destination host has no registered service.
    NoService(HostId),
    /// The service's dispatch failed with no reply stat to answer it:
    /// deterministic, the same message fails the same way.
    ServiceFailure,
    /// A frame is not a Sun RPC message this layer accepts; the label says
    /// what is wrong with it. Deterministic: the same bytes are refused the
    /// same way.
    Malformed(&'static str),
    /// The Sun RPC server answered the call with a refusal (a program,
    /// version or procedure it does not serve, or arguments it cannot
    /// decode): deterministic, a resend is refused the same way.
    Refused(sunrpc::AcceptStat),
    /// The Sun RPC server denied the call (`MSG_DENIED`): it does not
    /// speak the call's RPC version, or refused its credential — as a server
    /// to which the at-most-once credential is unknown refuses a tagged
    /// call. Deterministic: a resend is denied the same way.
    Denied(sunrpc::Denial),
    /// The message was lost in transit (induced by fault injection).
    /// Transient by construction: a retry sends a fresh message.
    Dropped,
    /// The binding to the host is gone, for the cause given. Not transient
    /// — resending on the same stream cannot succeed; the client must
    /// rebind (possibly to a different endpoint).
    Disconnected(HostId, Disconnect),
    /// A pipelined flush got back `received` reply records for `sent` calls.
    ReplyCount { sent: usize, received: usize },
    /// A pipelined flush's reply stream held no reply for this XID.
    NoReply(u32),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoSuchHost(h) => write!(f, "no such host {h:?}"),
            NetError::NoService(h) => write!(f, "no service registered on {h:?}"),
            NetError::ServiceFailure => write!(f, "service failure: dispatch failed"),
            NetError::Malformed(why) => write!(f, "sunrpc protocol error: {why}"),
            NetError::Refused(stat) => write!(f, "call refused: {stat:?}"),
            NetError::Denied(why) => write!(f, "call denied: {why:?}"),
            NetError::Dropped => write!(f, "message dropped in transit"),
            NetError::Disconnected(h, cause) => write!(f, "{h:?} disconnected: {cause:?}"),
            NetError::ReplyCount { sent, received } => {
                write!(f, "{received} replies to {sent} calls")
            }
            NetError::NoReply(xid) => write!(f, "pipeline: no reply for xid {xid}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result alias for network operations.
pub type Result<T> = core::result::Result<T, NetError>;

/// Identifier of a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(usize);

impl HostId {
    /// The host's index as a raw endpoint id — the currency of pair-keyed
    /// faults ([`flexrpc_clock::Fault::Partition`], [`FaultInjector::partition`]).
    pub fn raw(self) -> u64 {
        self.0 as u64
    }
}

/// Link parameters for the wire clock.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Fixed cost per packet (media access + propagation + interrupt), ns.
    pub per_packet_ns: u64,
    /// Maximum payload bytes per packet.
    pub mtu: usize,
    /// Fixed per-message server-side processing charge, ns (disk/cache and
    /// protocol stack on the far side — constant across client variants).
    pub server_ns: u64,
}

impl Default for NetConfig {
    /// A 10 Mbit Ethernet with early-90s protocol stacks.
    fn default() -> Self {
        NetConfig {
            bandwidth_bps: 10_000_000 / 8,
            per_packet_ns: 100_000, // 100 µs per packet
            mtu: 1500,
            server_ns: 500_000, // 500 µs per request at the server
        }
    }
}

flexrpc_trace::instruments! {
    /// Wire-clock counters, adopted by a metrics plane under `net.*` names
    /// while the network keeps updating the same cells. Each is published
    /// once per message, when the message ends: to the shared cell by
    /// [`SimNet::call`] / [`SimNet::send`], and by a [`Link`] to a stripe of
    /// its own, written with no locked instruction. Every read
    /// ([`Counter::get`], a registry snapshot) folds the live stripes in,
    /// and a dropped link's counts stay counted.
    pub struct NetStats {
        /// Messages carried.
        messages: Counter = "net.message",
        /// Packets charged.
        packets: Counter = "net.packet",
        /// Payload bytes carried.
        bytes: Counter = "net.bytes",
    }
    /// A point-in-time copy of [`NetStats`].
    #[derive(Eq)]
    pub struct NetSnapshot;
}

/// A service handler: consumes a request and writes its reply into the
/// buffer it is handed — the buffer the caller of [`SimNet::call`] will
/// read, so a reply is framed once, where it is going, with no returned
/// vector and no re-copy.
///
/// The buffer arrives empty; on `Ok` whatever it holds is the reply, on
/// `Err` its contents are discarded (the network clears it), so a handler
/// may fail half-way through writing.
///
/// Shared (`Arc`) and re-entrant (`Fn + Sync`) so any number of clients can
/// be inside the same host's handler at once — the serving engine's
/// acceptor depends on this. Handlers needing mutable state bring their own
/// locks (and should hold them as briefly as possible).
pub type Service = Arc<dyn Fn(&[u8], &mut Vec<u8>) -> Result<()> + Send + Sync>;

/// Scratch sets kept for reuse per network: enough for the handful of
/// callers that are ever inside [`SimNet::call`] at once; beyond it a set
/// is simply freed.
const SCRATCH_FREE_MAX: usize = 8;

struct HostState {
    name: String,
    service: Option<Service>,
    /// Per-host fault plan, consulted (after the network-wide plan) for
    /// every message whose *destination* is this host. A crash here takes
    /// one host down — the fleet currency — where a crash on the global
    /// injector takes the whole network down.
    faults: Arc<FaultInjector>,
}

/// The simulated network: hosts, services, and the wire clock.
pub struct SimNet {
    cfg: NetConfig,
    hosts: Mutex<Vec<HostState>>,
    /// Counts the changes to `hosts` a resolved [`Route`] could be stale
    /// against. Bumped under the `hosts` lock, after the change; read under
    /// it when a route is resolved and with one load per message after
    /// that (see the module doc's version rule).
    hosts_version: AtomicU64,
    /// Accumulated wire and far-side time: a counter, so links can keep
    /// stripes of it as they do of [`NetStats`].
    wire_ns: Counter,
    clock: Arc<SimClock>,
    faults: FaultInjector,
    stats: NetStats,
    /// Idle scratch sets (at most [`SCRATCH_FREE_MAX`]) for messages sent
    /// through [`SimNet::call`] / [`SimNet::send`]; a [`Link`] owns its own.
    scratch_free: Mutex<Vec<Scratch>>,
}

/// What one message needs from the host table, resolved under one hold of
/// its lock: the destination's fault plan and its handler, if any.
struct Route {
    faults: Arc<FaultInjector>,
    service: Option<Service>,
}

/// The buffers one message needs beyond its caller's: the far side's copy
/// of the request lands in `rx` instead of a fresh allocation per message
/// (a protocol stack does not allocate per packet either), and a one-way
/// message's handler writes the reply nobody reads into `discard`.
#[derive(Default)]
struct Scratch {
    rx: Vec<u8>,
    discard: Vec<u8>,
}

/// What one message put on the wire so far, summed locally and published
/// once, when the message ends: to the network's shared cells
/// ([`SimNet::publish`]) or to a link's stripes ([`LinkTally::publish`]).
#[derive(Clone, Copy, Default)]
struct Tally {
    packets: u64,
    bytes: u64,
    /// Wire time, plus the far side's `server_ns` once it has executed.
    ns: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        // Wrapping, as the counters these are published to add: a
        // saturated slow-link factor must not turn into a panic here.
        self.ns = self.ns.wrapping_add(other.ns);
    }
}

impl SimNet {
    /// Creates a network with the default 10 Mbit configuration.
    pub fn new() -> Arc<SimNet> {
        Self::with_config(NetConfig::default())
    }

    /// Creates a network with explicit link parameters.
    pub fn with_config(cfg: NetConfig) -> Arc<SimNet> {
        Self::with_clock(cfg, SimClock::new())
    }

    /// Creates a network sharing a [`SimClock`] with other substrates, so
    /// deadlines measured elsewhere see time this network charges.
    pub fn with_clock(cfg: NetConfig, clock: Arc<SimClock>) -> Arc<SimNet> {
        Arc::new(SimNet {
            cfg,
            hosts: Mutex::new(Vec::new()),
            hosts_version: AtomicU64::new(0),
            wire_ns: Counter::detached(),
            clock,
            faults: FaultInjector::new(),
            stats: NetStats::default(),
            scratch_free: Mutex::new(Vec::new()),
        })
    }

    /// The link configuration.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// The simulated clock this network advances (wire charges, fault
    /// delays). Deadline enforcement on calls over this network measures
    /// against it.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The network-wide fault-injection plan, consulted once per message
    /// with the `(from, to)` host pair — so pair-keyed
    /// [`flexrpc_clock::Fault::Partition`]s and
    /// [`FaultInjector::set_slow_link`] windows apply here.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The per-host fault plan for `host`, consulted (after the network
    /// plan) for every message *to* that host. Crashing here takes one
    /// host down while the rest of the fleet keeps serving — the unit of
    /// failure a replicated engine group is built against.
    pub fn host_faults(&self, host: HostId) -> Result<Arc<FaultInjector>> {
        let hosts = self.hosts.lock();
        hosts.get(host.0).map(|h| Arc::clone(&h.faults)).ok_or(NetError::NoSuchHost(host))
    }

    /// Wire-clock counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Adds a host.
    pub fn add_host(&self, name: &str) -> HostId {
        let mut hosts = self.hosts.lock();
        let id = HostId(hosts.len());
        hosts.push(HostState {
            name: name.to_owned(),
            service: None,
            faults: Arc::new(FaultInjector::new()),
        });
        self.hosts_version.fetch_add(1, Ordering::SeqCst);
        id
    }

    /// The name `host` was added under: how a caller names the host a
    /// [`NetError`] carries.
    pub fn host_name(&self, host: HostId) -> Result<String> {
        let hosts = self.hosts.lock();
        hosts.get(host.0).map(|h| h.name.clone()).ok_or(NetError::NoSuchHost(host))
    }

    /// Registers the service handler for `host` (one service per host —
    /// port demultiplexing happens inside the Sun RPC layer). The handler
    /// writes its reply in place; see [`Service`] for the buffer contract.
    pub fn register_handler(
        &self,
        host: HostId,
        handler: impl Fn(&[u8], &mut Vec<u8>) -> Result<()> + Send + Sync + 'static,
    ) -> Result<()> {
        let mut hosts = self.hosts.lock();
        let h = hosts.get_mut(host.0).ok_or(NetError::NoSuchHost(host))?;
        h.service = Some(Arc::new(handler));
        self.hosts_version.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Registers a handler that *returns* its reply: [`SimNet::register_handler`]
    /// with the returned vector moved into the reply buffer. Convenient for
    /// small services and tests; a handler on a measured path should write
    /// in place and keep the caller's buffer.
    pub fn register_service(
        &self,
        host: HostId,
        service: impl Fn(&[u8]) -> Result<Vec<u8>> + Send + Sync + 'static,
    ) -> Result<()> {
        self.register_handler(host, move |request, out| {
            *out = service(request)?;
            Ok(())
        })
    }

    /// The handler registered on `host` — so a harness can register a
    /// wrapper around it (one that times the far side, say) in its place.
    pub fn handler(&self, host: HostId) -> Result<Service> {
        let hosts = self.hosts.lock();
        let h = hosts.get(host.0).ok_or(NetError::NoSuchHost(host))?;
        h.service.clone().ok_or(NetError::NoService(host))
    }

    /// Accumulated simulated wire + far-side time, in nanoseconds.
    ///
    /// Deterministic: a pure function of the messages sent so far.
    pub fn wire_ns(&self) -> u64 {
        self.wire_ns.get()
    }

    /// Resolves the `from → to` link once, for a binding to keep: see
    /// [`Link`]. Never fails — an endpoint that does not exist (yet) is
    /// reported by the link's messages, as [`SimNet::call`] would.
    pub fn link(self: &Arc<SimNet>, from: HostId, to: HostId) -> Link {
        let (version, route) = self.resolve(from, to);
        let tally = LinkTally {
            messages: self.stats.messages.stripe(),
            packets: self.stats.packets.stripe(),
            bytes: self.stats.bytes.stripe(),
            wire_ns: self.wire_ns.stripe(),
        };
        Link { net: Arc::clone(self), from, to, version, route, scratch: Scratch::default(), tally }
    }

    /// Adds one message's tally to the shared cells.
    fn publish(&self, tally: Tally) {
        self.stats.messages.inc();
        self.stats.packets.add(tally.packets);
        self.stats.bytes.add(tally.bytes);
        self.wire_ns.add(tally.ns);
    }

    /// What one crossing of the wire by `payload` bytes costs, at `scale`×
    /// the healthy link's time ([`flexrpc_clock::Fault::SlowLink`] and
    /// [`FaultInjector::set_slow_link`] windows): the same packets and
    /// bytes cross, they just take longer.
    #[inline]
    fn leg(&self, payload: usize, scale: u64) -> Tally {
        // An empty message is still a packet; one that fits a packet needs
        // no division to say so.
        let packets =
            if payload <= self.cfg.mtu { 1 } else { payload.div_ceil(self.cfg.mtu) as u64 };
        let ns = (packets * self.cfg.per_packet_ns
            + (payload as u64) * 1_000_000_000 / self.cfg.bandwidth_bps)
            .saturating_mul(scale);
        Tally { packets, bytes: payload as u64, ns }
    }

    /// Resolves a message's endpoints in one critical section: `from` must
    /// exist, `to` must exist, and the destination's fault plan and handler
    /// are cloned out so both run without the host lock held — concurrent
    /// callers can be inside the same service at once. Returns the host
    /// table's version the answer holds for.
    fn resolve(&self, from: HostId, to: HostId) -> (u64, Result<Route>) {
        let hosts = self.hosts.lock();
        let route = match (hosts.get(from.0), hosts.get(to.0)) {
            (None, _) => Err(NetError::NoSuchHost(from)),
            (_, None) => Err(NetError::NoSuchHost(to)),
            (Some(_), Some(h)) => {
                Ok(Route { faults: Arc::clone(&h.faults), service: h.service.clone() })
            }
        };
        (self.hosts_version.load(Ordering::SeqCst), route)
    }

    /// Passes one message `from → to` through the network-wide fault gate,
    /// then the destination host's: at most one fault applies per call (the
    /// network plan takes precedence — a message it touched never reaches
    /// the host's plan). Returns the verdict alongside the wire-time
    /// multiplier: both plans' slow-link windows times the verdict's own
    /// one-shot factor.
    #[inline]
    fn consult_faults(
        &self,
        from: HostId,
        to: HostId,
        host_faults: &FaultInjector,
    ) -> (Verdict, u64) {
        let now = self.clock.now_ns();
        let (a, b) = (from.raw(), to.raw());
        let mut verdict = self.faults.gate_between(&self.clock, a, b);
        if !verdict.fired {
            verdict = host_faults.gate_between(&self.clock, a, b);
        }
        let scale = self
            .faults
            .slow_factor(now)
            .saturating_mul(host_faults.slow_factor(now))
            .saturating_mul(verdict.slow);
        (verdict, scale)
    }

    /// A scratch set for one message sent without a [`Link`].
    fn take_scratch(&self) -> Scratch {
        self.scratch_free.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch set for the next such message to reuse.
    fn release(&self, scratch: Scratch) {
        let mut free = self.scratch_free.lock();
        if free.len() < SCRATCH_FREE_MAX {
            free.push(scratch);
        }
    }

    /// The error a call to `to` sees for a message the fault plan lost.
    #[cold]
    fn lost_error(lost: Lost, to: HostId) -> NetError {
        match lost {
            Lost::Dropped => NetError::Dropped,
            Lost::PeerDown => NetError::Disconnected(to, Disconnect::PeerDown),
            Lost::LinkCut => NetError::Disconnected(to, Disconnect::LinkCut),
        }
    }

    /// Sends `request` from `from` to `to` with no reply channel: the wire
    /// and far-side charges accrue, the service runs, and whatever it
    /// produces is discarded. One-way datagram semantics, deterministically:
    ///
    /// * `Drop`, `Crash` and `Partition` faults lose the message silently —
    ///   the sender has no reply to miss, so it sees `Ok`. `Duplicate` runs
    ///   the handler twice, as resent UDP would.
    /// * `Close` is a no-op for a one-way send: there is no reply to lose.
    /// * Only binding errors surface: an unknown endpoint (before anything
    ///   is counted or charged) and a destination that serves nothing
    ///   (after the datagram was sent, as for [`SimNet::call`]).
    ///
    /// Used by the `[oneway]` call shape: no XID allocated, no reply wait.
    pub fn send(&self, from: HostId, to: HostId, request: &[u8]) -> Result<()> {
        let route = self.resolve(from, to).1?;
        let mut scratch = self.take_scratch();
        let Scratch { rx, discard } = &mut scratch;
        let mut tally = Tally::default();
        let result = Hop { net: self, from, to, route: &route, rx }
            .carry(request, discard, true, &mut tally);
        self.publish(tally);
        self.release(scratch);
        result
    }

    /// Sends `request` from `from` to `to`, runs the service, and leaves the
    /// reply in `reply_into`.
    ///
    /// The CPU side (handler + the receive copy) is real; the wire side goes
    /// to the clock. `from` is currently only validated — the simulation has
    /// no routing — but keeps call sites honest about direction.
    ///
    /// The handler writes straight into `reply_into` (see [`Service`]), so
    /// the buffer contract is part of the call's meaning:
    ///
    /// * `Ok(())` — `reply_into` holds exactly one reply: the handler's,
    ///   or under a `Duplicate` fault the *second* execution's
    ///   (last-writer-wins, as UDP Sun RPC would), never both.
    /// * any `Err` — `reply_into` is empty, whatever it held on entry and
    ///   however far the handler got: a lost message, a crashed or
    ///   partitioned peer, a failed handler, and a stream closed after the
    ///   server executed all leave nothing to misread as a reply.
    ///
    /// An unknown `from` or `to` fails before anything is counted or
    /// charged; a known host with no service is discovered only after the
    /// message was sent, so it is counted in `messages` and charged.
    ///
    /// A caller that sends many messages between one pair should hold a
    /// [`Link`]: this entry resolves the pair under the host lock and
    /// borrows a receive buffer from the network's pool on every call.
    pub fn call(
        &self,
        from: HostId,
        to: HostId,
        request: &[u8],
        reply_into: &mut Vec<u8>,
    ) -> Result<()> {
        // Before resolving: an unknown endpoint leaves it empty too.
        reply_into.clear();
        let route = self.resolve(from, to).1?;
        let mut scratch = self.take_scratch();
        let mut hop = Hop { net: self, from, to, route: &route, rx: &mut scratch.rx };
        let mut tally = Tally::default();
        let result = hop.carry(request, reply_into, false, &mut tally);
        self.publish(tally);
        self.release(scratch);
        result
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("hosts", &self.hosts.lock().len())
            .field("wire_ns", &self.wire_ns())
            .finish()
    }
}

/// One `from → to` pair of a [`SimNet`], resolved where a binding is made
/// ([`SimNet::link`]) instead of once per message: it keeps the
/// destination's fault plan and handler, the host-table version they were
/// read at (the module doc's version rule says when they are read again),
/// the far side's receive buffer, and its own stripes of the network's
/// message, packet, byte and wire-time counters.
///
/// [`Link::call`] and [`Link::send`] mean exactly what [`SimNet::call`] and
/// [`SimNet::send`] mean for the pair — same faults, same charges, same
/// buffer contract, same errors for an endpoint that does not exist — and
/// run the same message body.
pub struct Link {
    net: Arc<SimNet>,
    from: HostId,
    to: HostId,
    /// The host-table version `route` holds for.
    version: u64,
    route: Result<Route>,
    scratch: Scratch,
    tally: LinkTally,
}

/// A [`Link`]'s cells of its network's counters, written by the link alone.
struct LinkTally {
    messages: CounterStripe,
    packets: CounterStripe,
    bytes: CounterStripe,
    wire_ns: CounterStripe,
}

impl LinkTally {
    /// Adds one message's tally: plain loads and stores.
    fn publish(&mut self, tally: Tally) {
        self.messages.add(1);
        self.packets.add(tally.packets);
        self.bytes.add(tally.bytes);
        self.wire_ns.add(tally.ns);
    }
}

impl Link {
    /// The network this link crosses.
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// The resolved hop one message of this link takes, and the buffer a
    /// one-way message's reply is discarded into. Resolves again first if
    /// the host table changed since `route` was read: one load when it did
    /// not.
    #[inline]
    fn hop(&mut self) -> Result<(Hop<'_>, &mut Vec<u8>)> {
        if self.net.hosts_version.load(Ordering::SeqCst) != self.version {
            (self.version, self.route) = self.net.resolve(self.from, self.to);
        }
        let route = self.route.as_ref().map_err(|e| *e)?;
        let Scratch { rx, discard } = &mut self.scratch;
        Ok((Hop { net: &self.net, from: self.from, to: self.to, route, rx }, discard))
    }

    /// [`SimNet::call`] over this link.
    pub fn call(&mut self, request: &[u8], reply_into: &mut Vec<u8>) -> Result<()> {
        // Before resolving: an unknown endpoint leaves it empty too.
        reply_into.clear();
        let mut tally = Tally::default();
        let result = self.hop()?.0.carry(request, reply_into, false, &mut tally);
        self.tally.publish(tally);
        result
    }

    /// [`SimNet::send`] over this link.
    pub fn send(&mut self, request: &[u8]) -> Result<()> {
        let (mut hop, discard) = self.hop()?;
        let mut tally = Tally::default();
        let result = hop.carry(request, discard, true, &mut tally);
        self.tally.publish(tally);
        result
    }
}

/// One message's resolved way across the network — what [`SimNet::call`] /
/// [`SimNet::send`] look up per message and a [`Link`] keeps — and the one
/// body all four entries run.
struct Hop<'a> {
    net: &'a SimNet,
    from: HostId,
    to: HostId,
    route: &'a Route,
    /// The far side's receive buffer.
    rx: &'a mut Vec<u8>,
}

impl Hop<'_> {
    /// Carries one message: `reply_into` (cleared first) is where the
    /// handler writes; a `one_way` message has no reply leg and swallows
    /// what a call would report about delivery. See [`SimNet::call`] and
    /// [`SimNet::send`] for what each way of ending means to the caller.
    /// What the message put on the wire, however it ended, is left in
    /// `tally` for the caller to publish once, apart from the outcome: a
    /// wide reload of a returned `(Result, Tally)` pair waited on the
    /// narrower stores that wrote it (see `flexrpc_runtime::interp`). A
    /// failure is returned as the value it is, so losing or failing a
    /// message allocates nothing. The sim clock advances here, at the two
    /// instants something can read it: for the request on the wire before
    /// the handler runs (TTLs and trace spans read it there), and for the
    /// far side's processing plus the reply leg in one step after it.
    fn carry(
        &mut self,
        request: &[u8],
        reply_into: &mut Vec<u8>,
        one_way: bool,
        tally: &mut Tally,
    ) -> Result<()> {
        reply_into.clear();
        let Hop { net, from, to, route, .. } = *self;
        // Consult the fault gates before the wire: a lost message is lost
        // after it is charged (it left the client); a stalled link or peer
        // has already advanced the sim clock. A crash killed the server
        // before it executed (and keeps it down until its scheduled
        // sim-time restart); a partition severs the (from, to) link until it
        // heals — both disconnect the binding, but a partitioned server is
        // alive and keeps serving unsevered pairs.
        let (verdict, scale) = net.consult_faults(from, to, &route.faults);
        // The request hits the wire whether or not it arrives, and under a
        // `Duplicate` fault the retransmitted copy traverses it too.
        *tally = net.leg(request.len(), scale);
        if verdict.duplicate {
            *tally += *tally;
        }
        net.clock.advance_ns(tally.ns);
        if let Some(lost) = verdict.lost {
            // A lost datagram is lost silently, however it was lost: the
            // sender has no reply channel to learn of it.
            return if one_way { Ok(()) } else { Err(SimNet::lost_error(lost, to)) };
        }
        // A message to a host that serves nothing was still sent: it is
        // counted and charged before the absence is discovered.
        let service = route.service.as_ref().ok_or(NetError::NoService(to))?;
        // The far side receives into its own buffer: a real copy, as the
        // receiving protocol stack would perform.
        self.rx.clear();
        self.rx.extend_from_slice(request);
        let mut result = service(self.rx, reply_into);
        if verdict.duplicate {
            // The retransmitted copy arrives too; the caller sees only the
            // second reply.
            reply_into.clear();
            result = service(self.rx, reply_into);
        }
        // A one-way message's product (reply or failure) evaporates: the
        // sender has no channel to learn of it, nor of a stream that closed
        // behind the datagram.
        if let (Err(e), false) = (result, one_way) {
            reply_into.clear();
            return Err(e);
        }
        // Server-side processing, charged whatever becomes of the reply.
        let mut after = Tally { ns: net.cfg.server_ns, ..Tally::default() };
        let outcome = if one_way {
            Ok(())
        } else if verdict.close_after {
            // The stream closed after the server executed: the work is done
            // (an at-most-once server has the reply cached) but this client
            // never sees it. The reply never reaches the wire.
            reply_into.clear();
            Err(NetError::Disconnected(to, Disconnect::ClosedBeforeReply))
        } else {
            after += net.leg(reply_into.len(), scale);
            Ok(())
        };
        net.clock.advance_ns(after.ns);
        *tally += after;
        outcome
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link").field("from", &self.from).field("to", &self.to).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_clock::Fault;

    #[test]
    fn echo_roundtrip() {
        let net = SimNet::new();
        let c = net.add_host("client");
        let s = net.add_host("server");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        let mut reply = Vec::new();
        net.call(c, s, b"ping", &mut reply).unwrap();
        assert_eq!(reply, b"ping");
    }

    #[test]
    fn wire_clock_is_deterministic() {
        let run = || {
            let net = SimNet::new();
            let c = net.add_host("c");
            let s = net.add_host("s");
            net.register_service(s, |req| Ok(req.to_vec())).unwrap();
            let mut reply = Vec::new();
            for _ in 0..5 {
                net.call(c, s, &[0u8; 4000], &mut reply).unwrap();
            }
            net.wire_ns()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wire_cost_scales_with_size_and_packets() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |_| Ok(vec![])).unwrap();
        let mut reply = Vec::new();

        net.call(c, s, &[0u8; 100], &mut reply).unwrap();
        let small = net.wire_ns();
        net.call(c, s, &[0u8; 8000], &mut reply).unwrap();
        let big = net.wire_ns() - small;
        assert!(big > small, "8000 bytes must cost more than 100");
        // 8000 bytes at MTU 1500 = 6 packets.
        assert_eq!(net.stats().packets.get(), 1 + 6 + 2);
    }

    #[test]
    fn missing_service_reported() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let mut reply = Vec::new();
        assert_eq!(net.call(c, s, b"x", &mut reply).unwrap_err(), NetError::NoService(s));
        // The message was sent before the absence was discovered.
        assert_eq!(net.stats().messages.get(), 1);
        assert!(net.wire_ns() > 0, "the request crossed the wire");
    }

    #[test]
    fn in_place_handler_writes_the_callers_buffer() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_handler(s, |req, out| {
            out.extend_from_slice(req);
            out.push(b'!');
            Ok(())
        })
        .unwrap();
        let mut reply = Vec::with_capacity(64);
        let kept = reply.as_ptr();
        net.call(c, s, b"ping", &mut reply).unwrap();
        assert_eq!(reply, b"ping!");
        assert_eq!(reply.as_ptr(), kept, "the reply was framed where the caller reads it");
    }

    /// The buffer contract of [`SimNet::call`], one row per way a call can
    /// end: every `Err` leaves `reply_into` empty — even though the handler
    /// may already have written into it — and a duplicated delivery leaves
    /// one reply, not two. And the link is the call: every row runs by
    /// endpoints in one world and over a [`Link`] in its twin, and the two
    /// end the same way, leave the same bytes, and have counted and charged
    /// the same.
    #[test]
    fn reply_buffer_contract_holds_for_every_verdict() {
        /// A client, a server whose handler writes before it decides
        /// whether to fail, and a host that serves nothing.
        fn world(fail: bool) -> (Arc<SimNet>, HostId, HostId, HostId) {
            let net = SimNet::new();
            let c = net.add_host("c");
            let s = net.add_host("s");
            let idle = net.add_host("idle");
            net.register_handler(s, move |req, out| {
                out.extend_from_slice(b"re:");
                out.extend_from_slice(req);
                if fail {
                    return Err(NetError::ServiceFailure);
                }
                Ok(())
            })
            .unwrap();
            (net, c, s, idle)
        }
        /// Everything a message leaves behind on its network.
        fn ledger(net: &SimNet) -> [u64; 5] {
            let stats = net.stats();
            [
                stats.messages.get(),
                stats.packets.get(),
                stats.bytes.get(),
                net.wire_ns(),
                net.clock().now_ns(),
            ]
        }
        #[derive(Clone, Copy)]
        enum To {
            Server,
            Idle,
            Ghost,
        }
        type Expect = fn(&Result<()>) -> bool;
        let rows: [(&str, bool, Option<Fault>, To, Expect); 8] = [
            ("Drop", false, Some(Fault::Drop), To::Server, |r| *r == Err(NetError::Dropped)),
            ("Crash", false, Some(Fault::Crash { restart_after_ns: None }), To::Server, |r| {
                *r == Err(NetError::Disconnected(HostId(1), Disconnect::PeerDown))
            }),
            (
                "Partition",
                false,
                Some(Fault::Partition { a: 0, b: 1, heal_after_ns: u64::MAX }),
                To::Server,
                |r| *r == Err(NetError::Disconnected(HostId(1), Disconnect::LinkCut)),
            ),
            ("Close", false, Some(Fault::Close), To::Server, |r| {
                *r == Err(NetError::Disconnected(HostId(1), Disconnect::ClosedBeforeReply))
            }),
            ("service Err", true, None, To::Server, |r| *r == Err(NetError::ServiceFailure)),
            ("Duplicate", false, Some(Fault::Duplicate), To::Server, |r| r.is_ok()),
            ("unknown host", false, None, To::Ghost, |r| {
                *r == Err(NetError::NoSuchHost(HostId(9)))
            }),
            ("no service", false, None, To::Idle, |r| matches!(r, Err(NetError::NoService(_)))),
        ];
        let stale = || b"stale bytes of an earlier reply".to_vec();
        for (row, fail, fault, to, expected) in rows {
            // Twin worlds: by endpoints in one, over a link in the other.
            let (by_call, by_link) = (world(fail), world(fail));
            let dest = |(_, _, s, idle): &(Arc<SimNet>, HostId, HostId, HostId)| match to {
                To::Server => *s,
                To::Idle => *idle,
                To::Ghost => HostId(9),
            };
            let mut link = by_link.0.link(by_link.1, dest(&by_link));
            for (net, ..) in [&by_call, &by_link] {
                if let Some(fault) = fault {
                    net.faults().on_next_call(fault);
                }
            }
            // The faulted message, then a clean one behind it (a crash or a
            // partition outlives the message that met it).
            for message in [b"x", b"y"] {
                let (mut reply, mut linked_reply) = (stale(), stale());
                let result = by_call.0.call(by_call.1, dest(&by_call), message, &mut reply);
                let linked = link.call(message, &mut linked_reply);
                if message == b"x" {
                    assert!(expected(&result), "{row}: {result:?}");
                    match &result {
                        Ok(()) => assert_eq!(reply, b"re:x", "{row}: one reply, the last writer's"),
                        Err(_) => assert!(reply.is_empty(), "{row}: an error leaves no bytes"),
                    }
                }
                assert_eq!(linked, result, "{row}: the link ends as the call does");
                assert_eq!(linked_reply, reply, "{row}: and leaves the same bytes");
                assert_eq!(
                    ledger(&by_link.0),
                    ledger(&by_call.0),
                    "{row}: messages, packets, bytes, wire time and clock"
                );
            }
        }
    }

    /// A link tallies into stripes of its own, and every read folds them:
    /// a network whose messages went by endpoints, over a live link and over
    /// a dropped one reads the totals of a twin that sent the same messages
    /// by endpoints alone, and a registry that adopted the counters reads
    /// the same.
    #[test]
    fn totals_fold_unlinked_calls_and_live_and_dropped_links() {
        fn world() -> (Arc<SimNet>, HostId, HostId) {
            let net = SimNet::new();
            let (c, s) = (net.add_host("c"), net.add_host("s"));
            net.register_service(s, |req| Ok(req.repeat(2))).unwrap();
            (net, c, s)
        }
        fn ledger(net: &SimNet) -> [u64; 4] {
            let stats = net.stats();
            [stats.messages.get(), stats.packets.get(), stats.bytes.get(), net.wire_ns()]
        }
        let (calls, live_calls, dropped_sends) = ([10, 3_000], [1_600], [5, 9_000]);
        let mut reply = Vec::new();

        let (twin, tc, ts) = world();
        for size in calls.into_iter().chain(live_calls) {
            twin.call(tc, ts, &vec![1; size], &mut reply).unwrap();
        }
        for size in dropped_sends {
            twin.send(tc, ts, &vec![1; size]).unwrap();
        }

        let (net, c, s) = world();
        let registry = flexrpc_trace::MetricsRegistry::new();
        net.stats().register_metrics(&registry);
        for size in calls {
            net.call(c, s, &vec![1; size], &mut reply).unwrap();
        }
        let mut live = net.link(c, s);
        for size in live_calls {
            live.call(&vec![1; size], &mut reply).unwrap();
        }
        let mut dropped = net.link(c, s);
        for size in dropped_sends {
            dropped.send(&vec![1; size]).unwrap();
        }
        drop(dropped);
        let expected = ledger(&twin);
        assert_eq!(ledger(&net), expected, "messages, packets, bytes and wire time");
        let snapshot = registry.snapshot();
        let named = net.stats().snapshot().named().map(|(name, _)| snapshot.counter(name));
        assert_eq!(named, expected[..3], "the registry reads the folded totals");
        drop(live);
        assert_eq!(ledger(&net), expected, "a dropped link's counts stay counted");
    }

    #[test]
    fn missing_host_reported() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let ghost = HostId(9);
        let mut reply = Vec::new();
        assert_eq!(net.call(c, ghost, b"x", &mut reply).unwrap_err(), NetError::NoSuchHost(ghost));
        assert_eq!(net.call(ghost, c, b"x", &mut reply).unwrap_err(), NetError::NoSuchHost(ghost));
    }

    #[test]
    fn service_failure_propagates() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |_| Err(NetError::ServiceFailure)).unwrap();
        let mut reply = Vec::new();
        assert_eq!(net.call(c, s, b"x", &mut reply).unwrap_err(), NetError::ServiceFailure);
    }

    #[test]
    fn reply_buffer_reused() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(vec![req[0]; 3])).unwrap();
        let mut reply = Vec::with_capacity(16);
        net.call(c, s, &[7], &mut reply).unwrap();
        assert_eq!(reply, vec![7, 7, 7]);
        net.call(c, s, &[9], &mut reply).unwrap();
        assert_eq!(reply, vec![9, 9, 9]);
    }

    #[test]
    fn concurrent_calls_to_one_host() {
        // The engine's acceptor multiplexes many clients onto one host;
        // the handler handle must be shareable, not taken out per call.
        let net = SimNet::new();
        let s = net.add_host("server");
        let clients: Vec<HostId> = (0..8).map(|i| net.add_host(&format!("c{i}"))).collect();
        let barrier = Arc::new(std::sync::Barrier::new(8));
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let net = Arc::clone(&net);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut reply = Vec::new();
                    for round in 0..50u8 {
                        let req = [i as u8, round];
                        net.call(c, s, &req, &mut reply).unwrap();
                        assert_eq!(reply, req);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.stats().messages.get(), 8 * 50);
    }

    /// The same, through eight links, while a ninth thread keeps
    /// re-registering the host's handler: every call is answered by one
    /// handler or the other, whole, and none is lost.
    #[test]
    fn concurrent_links_survive_handler_re_registration() {
        const ROUNDS: u8 = 200;
        let net = SimNet::new();
        let s = net.add_host("server");
        let clients: Vec<HostId> = (0..8).map(|i| net.add_host(&format!("c{i}"))).collect();
        let register = |net: &SimNet, mark: u8| {
            net.register_handler(s, move |req, out| {
                out.push(mark);
                out.extend_from_slice(req);
                Ok(())
            })
            .unwrap();
        };
        register(&net, b'A');
        let barrier = std::sync::Barrier::new(9);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let callers: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let (net, barrier) = (&net, &barrier);
                    scope.spawn(move || {
                        let mut link = net.link(c, s);
                        barrier.wait();
                        let mut reply = Vec::new();
                        for round in 0..ROUNDS {
                            link.call(&[i as u8, round], &mut reply).unwrap();
                            assert!(
                                reply == [b'A', i as u8, round] || reply == [b'B', i as u8, round],
                                "one handler's reply, whole: {reply:?}"
                            );
                        }
                        link
                    })
                })
                .collect();
            scope.spawn(|| {
                barrier.wait();
                while !done.load(Ordering::SeqCst) {
                    register(&net, b'B');
                    register(&net, b'A');
                }
            });
            let links: Vec<Link> = callers.into_iter().map(|h| h.join().unwrap()).collect();
            done.store(true, Ordering::SeqCst);
            links
        })
        .into_iter()
        .enumerate()
        .for_each(|(i, mut link)| {
            // The race is over; a registration that has returned is seen by
            // every link's next message.
            register(&net, b'C');
            let mut reply = Vec::new();
            link.call(&[i as u8], &mut reply).unwrap();
            assert_eq!(reply, [b'C', i as u8]);
        });
        assert_eq!(net.stats().messages.get(), 8 * u64::from(ROUNDS) + 8, "none lost");
    }

    /// The version rule: what a link resolved is read again once the host
    /// table has changed — a handler registered, or a host added, after the
    /// link was made is seen by its next message.
    #[test]
    fn link_sees_handlers_and_hosts_registered_after_it_was_made() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let mut reply = Vec::new();

        let mut link = net.link(c, s);
        assert_eq!(link.call(b"x", &mut reply).unwrap_err(), NetError::NoService(s));
        net.register_service(s, |_| Ok(b"first".to_vec())).unwrap();
        link.call(b"x", &mut reply).unwrap();
        assert_eq!(reply, b"first", "registered after the link was made");
        net.register_service(s, |_| Ok(b"second".to_vec())).unwrap();
        link.call(b"x", &mut reply).unwrap();
        assert_eq!(reply, b"second", "re-registered after the link carried a message");

        // A link to a host that does not exist yet reports it per message,
        // as `SimNet::call` does, until the host is added.
        let later = HostId(2);
        let mut early = net.link(c, later);
        assert_eq!(early.call(b"x", &mut reply).unwrap_err(), NetError::NoSuchHost(later));
        assert_eq!(early.send(b"x").unwrap_err(), NetError::NoSuchHost(later));
        let before = net.stats().messages.get();
        assert_eq!(net.add_host("later"), later);
        net.register_service(later, |req| Ok(req.to_vec())).unwrap();
        early.call(b"now", &mut reply).unwrap();
        assert_eq!(reply, b"now");
        assert_eq!(net.stats().messages.get(), before + 1, "the refused messages were never sent");
    }

    /// [`Link::send`] is [`SimNet::send`]: twin worlds, the one-way rows
    /// (clean, dropped, duplicated, closed behind), equal executions and
    /// equal ledgers after each.
    #[test]
    fn one_way_send_over_a_link_is_the_send() {
        let world = || {
            let net = SimNet::new();
            let c = net.add_host("c");
            let s = net.add_host("s");
            let hits = Arc::new(AtomicU64::new(0));
            let h = Arc::clone(&hits);
            net.register_service(s, move |req| {
                h.fetch_add(1, Ordering::SeqCst);
                Ok(req.to_vec())
            })
            .unwrap();
            (net, c, s, hits)
        };
        let ledger = |net: &SimNet, hits: &AtomicU64| {
            let stats = net.stats();
            [
                hits.load(Ordering::SeqCst),
                stats.messages.get(),
                stats.packets.get(),
                stats.bytes.get(),
                net.wire_ns(),
                net.clock().now_ns(),
            ]
        };
        let (net, c, s, hits) = world();
        let (twin, tc, ts, twin_hits) = world();
        let mut link = twin.link(tc, ts);
        for fault in [None, Some(Fault::Drop), Some(Fault::Duplicate), Some(Fault::Close)] {
            if let Some(fault) = fault {
                net.faults().on_next_call(fault);
                twin.faults().on_next_call(fault);
            }
            net.send(c, s, &[7u8; 2000]).unwrap();
            link.send(&[7u8; 2000]).unwrap();
            assert_eq!(ledger(&twin, &twin_hits), ledger(&net, &hits), "{fault:?}");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4, "clean 1, dropped 0, duplicated 2, closed 1");
    }

    #[test]
    fn wire_charges_advance_shared_clock() {
        let clock = SimClock::new();
        let net = SimNet::with_clock(NetConfig::default(), Arc::clone(&clock));
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        let mut reply = Vec::new();
        net.call(c, s, &[0u8; 100], &mut reply).unwrap();
        assert_eq!(clock.now_ns(), net.wire_ns(), "clock sees exactly the wire charges");
    }

    #[test]
    fn drop_fault_loses_one_message() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        net.faults().on_next_call(Fault::Drop);
        let mut reply = Vec::new();
        assert_eq!(net.call(c, s, b"x", &mut reply).unwrap_err(), NetError::Dropped);
        net.call(c, s, b"x", &mut reply).unwrap();
        assert_eq!(reply, b"x");
    }

    #[test]
    fn delay_fault_advances_clock_past_wire_charges() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        net.faults().on_next_call(Fault::Delay(5_000_000));
        let mut reply = Vec::new();
        net.call(c, s, b"x", &mut reply).unwrap();
        assert_eq!(net.clock().now_ns(), net.wire_ns() + 5_000_000);
    }

    #[test]
    fn duplicate_fault_runs_handler_twice() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.faults().on_next_call(Fault::Duplicate);
        let mut reply = Vec::new();
        net.call(c, s, b"x", &mut reply).unwrap();
        assert_eq!(reply, b"x");
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn duplicate_fault_charges_the_wire_for_both_copies() {
        let baseline = {
            let net = SimNet::new();
            let c = net.add_host("c");
            let s = net.add_host("s");
            net.register_service(s, |req| Ok(req.to_vec())).unwrap();
            let mut reply = Vec::new();
            net.call(c, s, &[0u8; 400], &mut reply).unwrap();
            net.wire_ns()
        };
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        net.faults().on_next_call(Fault::Duplicate);
        let mut reply = Vec::new();
        net.call(c, s, &[0u8; 400], &mut reply).unwrap();
        assert!(
            net.wire_ns() > baseline,
            "the retransmitted request must cost wire time on top of the clean call"
        );
    }

    #[test]
    fn crash_fault_kills_the_host_until_restart() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("server-b");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.faults().on_next_call(Fault::Crash { restart_after_ns: Some(50_000_000) });
        let mut reply = Vec::new();
        // The crashed call and every call before the restart disconnect;
        // the handler never runs.
        let e = net.call(c, s, b"x", &mut reply).unwrap_err();
        assert_eq!(e, NetError::Disconnected(s, Disconnect::PeerDown));
        assert_eq!(net.host_name(s).unwrap(), "server-b", "the error names the crashed host");
        assert!(matches!(net.call(c, s, b"x", &mut reply), Err(NetError::Disconnected(..))));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "a crashed server executes nothing");
        // Past the scheduled restart the host serves again.
        net.clock().advance_ns(60_000_000);
        net.call(c, s, b"x", &mut reply).unwrap();
        assert_eq!(reply, b"x");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn close_fault_executes_then_loses_the_reply() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.faults().on_next_call(Fault::Close);
        let mut reply = Vec::new();
        assert!(matches!(net.call(c, s, b"x", &mut reply), Err(NetError::Disconnected(..))));
        assert_eq!(hits.load(Ordering::SeqCst), 1, "the handler ran before the stream died");
        // One-shot: the next call completes.
        net.call(c, s, b"y", &mut reply).unwrap();
        assert_eq!(reply, b"y");
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn one_way_send_runs_handler_and_charges_wire() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.send(c, s, &[0u8; 100]).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // One wire traversal (request only) plus the server charge: strictly
        // cheaper than a call, which also puts the reply on the wire.
        let one_way = net.wire_ns();
        let mut reply = Vec::new();
        net.call(c, s, &[0u8; 100], &mut reply).unwrap();
        assert!(net.wire_ns() - one_way > one_way - net.cfg.server_ns);
        assert!(net.send(c, HostId(9), b"x").is_err(), "binding errors still surface");
    }

    #[test]
    fn one_way_send_swallows_delivery_faults() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.faults().on_next_call(Fault::Drop);
        net.send(c, s, b"x").unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "a dropped one-way message never executes");
        net.faults().on_next_call(Fault::Duplicate);
        net.send(c, s, b"x").unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2, "a duplicated one-way message executes twice");
    }

    #[test]
    fn partition_severs_one_pair_and_heals_on_sim_time() {
        let net = SimNet::new();
        let c1 = net.add_host("c1");
        let c2 = net.add_host("c2");
        let s = net.add_host("s");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.faults().on_next_call(Fault::Partition {
            a: c1.raw(),
            b: s.raw(),
            heal_after_ns: 40_000_000,
        });
        let mut reply = Vec::new();
        // The cut severs c1↔s: disconnect, nothing executed.
        let e = net.call(c1, s, b"x", &mut reply).unwrap_err();
        assert_eq!(e, NetError::Disconnected(s, Disconnect::LinkCut));
        assert!(matches!(net.call(c1, s, b"x", &mut reply), Err(NetError::Disconnected(..))));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        // c2 is on the other side of the cut: the server is alive.
        net.call(c2, s, b"y", &mut reply).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Past the heal time the pair carries again.
        net.clock().advance_ns(50_000_000);
        net.call(c1, s, b"x", &mut reply).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wildcard_partition_isolates_a_host_from_every_client() {
        let net = SimNet::new();
        let c1 = net.add_host("c1");
        let c2 = net.add_host("c2");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        net.faults().partition(FaultInjector::ANY, s.raw(), u64::MAX);
        let mut reply = Vec::new();
        assert!(matches!(net.call(c1, s, b"x", &mut reply), Err(NetError::Disconnected(..))));
        assert!(matches!(net.call(c2, s, b"x", &mut reply), Err(NetError::Disconnected(..))));
        net.faults().heal_all();
        net.call(c1, s, b"x", &mut reply).unwrap();
    }

    #[test]
    fn host_crash_takes_one_host_down_while_the_fleet_serves() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s1 = net.add_host("replica-1");
        let s2 = net.add_host("replica-2");
        net.register_service(s1, |req| Ok(req.to_vec())).unwrap();
        net.register_service(s2, |req| Ok(req.to_vec())).unwrap();
        net.host_faults(s1).unwrap().crash(Some(30_000_000));
        let mut reply = Vec::new();
        let e = net.call(c, s1, b"x", &mut reply).unwrap_err();
        assert_eq!(e, NetError::Disconnected(s1, Disconnect::PeerDown));
        // The other replica keeps serving.
        net.call(c, s2, b"x", &mut reply).unwrap();
        // Past the restart the crashed host is back.
        net.clock().advance_ns(60_000_000);
        net.call(c, s1, b"x", &mut reply).unwrap();
    }

    #[test]
    fn slow_link_fault_stretches_one_call_wire_time() {
        let wire_for = |fault: Option<Fault>| {
            let net = SimNet::new();
            let c = net.add_host("c");
            let s = net.add_host("s");
            net.register_service(s, |req| Ok(req.to_vec())).unwrap();
            if let Some(f) = fault {
                net.faults().on_next_call(f);
            }
            let mut reply = Vec::new();
            net.call(c, s, &[0u8; 1000], &mut reply).unwrap();
            net.wire_ns()
        };
        let healthy = wire_for(None);
        let slowed = wire_for(Some(Fault::SlowLink { factor: 4 }));
        let server = NetConfig::default().server_ns;
        assert_eq!(
            slowed - server,
            (healthy - server) * 4,
            "both wire legs charged exactly 4x; the server charge is unscaled"
        );
    }

    #[test]
    fn slow_link_window_scales_calls_until_expiry() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_service(s, |req| Ok(req.to_vec())).unwrap();
        let mut reply = Vec::new();
        net.call(c, s, &[0u8; 1000], &mut reply).unwrap();
        let healthy = net.wire_ns();
        net.faults().set_slow_link(3, net.clock().now_ns() + healthy * 10);
        net.call(c, s, &[0u8; 1000], &mut reply).unwrap();
        let server = NetConfig::default().server_ns;
        assert_eq!(net.wire_ns() - healthy - server, (healthy - server) * 3);
        // Push past the window: back to the healthy charge.
        net.clock().advance_ns(healthy * 20);
        let before = net.wire_ns();
        net.call(c, s, &[0u8; 1000], &mut reply).unwrap();
        assert_eq!(net.wire_ns() - before, healthy);
    }

    /// The no-window case of [`FaultInjector::slow_factor`] is one load per
    /// plan per message; a window set after a million such messages must
    /// still be seen by the very next one.
    #[test]
    fn slow_link_window_set_after_a_million_clear_calls_scales_the_next() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        net.register_handler(s, |req, out| {
            out.extend_from_slice(req);
            Ok(())
        })
        .unwrap();
        let mut link = net.link(c, s);
        let mut reply = Vec::new();
        link.call(b"x", &mut reply).unwrap();
        let healthy = net.wire_ns();
        for _ in 1..1_000_000 {
            link.call(b"x", &mut reply).unwrap();
        }
        assert_eq!(net.wire_ns(), healthy * 1_000_000);
        let server = NetConfig::default().server_ns;
        // On the network's plan, then on the destination host's.
        for (plan, factor) in [(None, 3), (Some(net.host_faults(s).unwrap()), 5)] {
            let plan = plan.as_deref().unwrap_or(net.faults());
            let before = net.wire_ns();
            plan.set_slow_link(factor, u64::MAX);
            link.call(b"x", &mut reply).unwrap();
            assert_eq!(net.wire_ns() - before - server, (healthy - server) * factor);
            plan.set_slow_link(1, 0); // An expired window: cleared by the next call.
            link.call(b"x", &mut reply).unwrap();
            assert_eq!(net.wire_ns() - before - server - (healthy - server) * factor, healthy);
        }
    }

    #[test]
    fn one_way_send_swallows_partitions() {
        let net = SimNet::new();
        let c = net.add_host("c");
        let s = net.add_host("s");
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        net.register_service(s, move |req| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(req.to_vec())
        })
        .unwrap();
        net.faults().partition(c.raw(), s.raw(), u64::MAX);
        net.send(c, s, b"x").unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "the datagram died on the severed link");
        net.faults().heal_all();
        net.send(c, s, b"x").unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn host_names() {
        let net = SimNet::new();
        let h = net.add_host("hp700-fileserver");
        assert_eq!(net.host_name(h).unwrap(), "hp700-fileserver");
        assert!(net.host_name(HostId(5)).is_err());
    }
}
