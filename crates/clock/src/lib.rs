//! Deterministic time and fault injection for the simulated substrates.
//!
//! Every blocking point in the stack (kernel IPC receive, simulated-net
//! reply wait, engine queue dwell, same-domain call tickets) measures
//! deadlines against a [`SimClock`]: a virtual nanosecond counter that
//! only moves when the simulation charges it. Tests advance it by hand,
//! the net substrate advances it per packet, and fault plans advance it
//! to model a stalled peer — so a "1 ms deadline against a dead server"
//! test is exact, not a race against the host scheduler.
//!
//! [`FaultInjector`] holds an ordered plan of per-call faults
//! (drop / delay / duplicate the nth call). Every transport and the engine
//! pass each message through its one [`FaultInjector::gate`], which says
//! what a [`Fault`] means for one call as a [`Verdict`] — so retry and
//! deadline policies are tested against induced failures deterministically,
//! and against the same failure semantics on every path.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A virtual clock counting simulated nanoseconds since start.
///
/// Shared (via `Arc`) by every substrate participating in one simulated
/// world. It never advances on its own: `advance` is called by the
/// simulation (wire charges, fault delays, retry backoff) or by tests.
#[derive(Debug, Default)]
pub struct SimClock {
    ns: AtomicU64,
}

impl SimClock {
    pub fn new() -> Arc<SimClock> {
        Arc::new(SimClock { ns: AtomicU64::new(0) })
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Advance the virtual clock by `ns` nanoseconds and return the new time.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.ns.fetch_add(ns, Ordering::SeqCst) + ns
    }

    /// Advance by a [`std::time::Duration`] (saturating at u64 ns).
    pub fn advance(&self, d: std::time::Duration) -> u64 {
        self.advance_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// True if an absolute deadline (in sim-ns) has passed.
    #[inline]
    pub fn expired(&self, deadline_ns: u64) -> bool {
        self.now_ns() > deadline_ns
    }
}

/// One induced failure, applied to a single call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The message is lost: the transport reports a retryable drop error.
    Drop,
    /// The peer stalls: the sim clock advances by this many nanoseconds
    /// before the call proceeds (deadlines may expire meanwhile).
    Delay(u64),
    /// The message is delivered twice (at-least-once delivery): the
    /// server handler runs twice; the caller sees the second reply.
    Duplicate,
    /// The server crashes *before* executing the call: the request is
    /// lost, the connection reports [`Disconnected`], and the injector
    /// enters a down state — every subsequent call fails the same way
    /// until the scheduled restart time passes on the [`SimClock`]
    /// (or [`FaultInjector::restore`] is called). `restart_after_ns`
    /// is relative to the crash instant; `None` means no restart.
    ///
    /// [`Disconnected`]: Fault::Crash
    Crash {
        /// Sim-time delay until the server comes back, if ever.
        restart_after_ns: Option<u64>,
    },
    /// The connection closes *after* the server executed the call but
    /// before the reply reaches the client: the handler ran (and an
    /// at-most-once server cached the reply), yet the caller sees a
    /// disconnect. A retry against a reply cache must be suppressed;
    /// without one it would re-execute. One-shot — the connection
    /// itself stays usable for the next call.
    Close,
    /// The network partitions between endpoints `a` and `b` (abstract
    /// endpoint ids — host indices on a simulated net, the conventional
    /// `(0, 1)` pair on point-to-point transports; [`FaultInjector::ANY`]
    /// is a wildcard matching every endpoint). The call that consumed the
    /// fault and every later call between the pair fail as disconnects
    /// until the sim clock passes `now + heal_after_ns` — the peers are
    /// alive, only the link between them is gone, so no restart is
    /// involved. `heal_after_ns == u64::MAX` partitions until
    /// [`FaultInjector::heal`].
    Partition {
        /// One side of the severed link.
        a: u64,
        /// The other side.
        b: u64,
        /// Sim-time until the link heals, relative to the cut.
        heal_after_ns: u64,
    },
    /// The link degrades: the transport charges `factor`× its normal
    /// wire/hop time for this call (one-shot; for a degradation *window*
    /// see [`FaultInjector::set_slow_link`]). The call still completes —
    /// a slow link loses time, not messages.
    SlowLink {
        /// Multiplier on the transport's per-call time charge.
        factor: u64,
    },
}

/// Nominal one-hop transfer time a one-shot [`Fault::SlowLink`] stretches on
/// point-to-point transports (loopback, kernel IPC, engine admission): they
/// have no wire model, so [`FaultInjector::gate`] charges `factor` of these
/// stand-in hops. The packet network scales its real wire charge instead.
pub(crate) const SLOW_HOP_NS: u64 = 1_000;

/// How a message was lost before the peer executed anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lost {
    /// [`Fault::Drop`]: this one message vanished; a resend may get through.
    Dropped,
    /// [`Fault::Crash`]: the peer is down until its restart.
    PeerDown,
    /// [`Fault::Partition`]: the peer is alive but the link to it is cut.
    LinkCut,
}

/// Why a binding is gone: the cause every transport's disconnect carries,
/// so a caller learns it from a value, whichever transport lost the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disconnect {
    /// The peer crashed before executing ([`Lost::PeerDown`]).
    PeerDown,
    /// The link to a live peer is cut ([`Lost::LinkCut`]).
    LinkCut,
    /// The peer executed, then the stream closed before its reply returned
    /// ([`Verdict::close_after`]).
    ClosedBeforeReply,
    /// The server's circuit breaker is open: it refuses admission so its
    /// clients fail over.
    BreakerOpen,
}

/// What the fault plan means for one call: the one place a [`Fault`] is
/// turned into behaviour. Each transport keeps only its own error type for
/// [`Verdict::lost`] and its own wire-charge model for [`Verdict::slow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The message never reaches the peer: nothing executes. A call
    /// surfaces it as the transport's error; a one-way send loses it
    /// silently (there is no reply to miss).
    pub lost: Option<Lost>,
    /// Deliver twice: the handler runs again and the caller sees the
    /// second reply.
    pub duplicate: bool,
    /// Execute (and cache) normally, then lose the reply: the caller sees
    /// a disconnect. A no-op for a one-way send.
    pub close_after: bool,
    /// A fault applied to this call, so a later plan in a chain (the
    /// network's, then the destination host's) is not consulted for it.
    /// Set even when nothing else is: a [`Fault::Delay`] is charged to the
    /// clock inside the gate and leaves no other mark.
    pub fired: bool,
    /// One-shot wire-time multiplier ([`Fault::SlowLink`]); 1 when healthy.
    pub slow: u64,
}

impl Verdict {
    /// Nothing planned: the call proceeds untouched.
    pub(crate) const CLEAR: Verdict =
        Verdict { lost: None, duplicate: false, close_after: false, fired: false, slow: 1 };
}

/// A deterministic per-call fault plan: "on the nth call, do X".
///
/// `on_nth_call(n, …)` plans for the nth call after it returns, and each
/// planned fault fires exactly once.
///
/// Every transport consults the injector on every call, almost always with
/// nothing planned, so the per-call entry points ([`FaultInjector::gate`]
/// and the raw `next_call*` readers under it) return after one load of
/// `armed` when it reads zero, and touch nothing else. Only a call that
/// reads it non-zero is numbered, in the order it takes the plan lock. A
/// plan entry keeps the injector armed until it fires, so every call
/// between arming and firing is numbered; a call no entry waits for needs
/// no number.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: Mutex<Plan>,
    /// Everything that can make a call fail: plan entries, plus one while
    /// the down state is set, plus partition entries not yet swept. Each
    /// term moves under the mutex that guards its state, so once an arming
    /// call has returned, every later call reads a non-zero count and takes
    /// the locked path; a lazily healed partition or a due restart keeps
    /// the count up until that path sweeps it.
    armed: AtomicUsize,
    /// Crash down-state: `Some(restart_at)` while the peer is down.
    /// `restart_at = Some(t)` schedules a restart once the sim clock
    /// passes `t`; `None` means down until [`FaultInjector::restore`].
    down: Mutex<Option<Option<u64>>>,
    /// Active partitions as `(a, b, heal_at)` — unordered endpoint pairs
    /// (either id may be [`FaultInjector::ANY`]) severed until the sim
    /// clock passes `heal_at`. Healed entries are dropped lazily on the
    /// next pair check.
    partitions: Mutex<Vec<(u64, u64, u64)>>,
    /// Link-degradation window: `(factor, until_ns)` — every call before
    /// `until_ns` charges `factor`× its normal wire time.
    slow: Mutex<Option<(u64, u64)>>,
    /// True while `slow` holds a window, expired or not. Written under the
    /// `slow` mutex, as `armed` is under its terms': once
    /// [`FaultInjector::set_slow_link`] has returned, every later
    /// [`FaultInjector::slow_factor`] reads `true` and takes the lock.
    slow_set: AtomicBool,
}

/// The planned faults and the numbering they are planned against.
#[derive(Debug, Default)]
struct Plan {
    /// `(call number, fault)`: each entry fires on the call of that number.
    due: Vec<(u64, Fault)>,
    /// The number the next armed call takes.
    next: u64,
}

impl FaultInjector {
    /// Wildcard endpoint id for [`Fault::Partition`]: matches any endpoint,
    /// so `(ANY, h)` isolates `h` from the whole network.
    pub const ANY: u64 = u64::MAX;

    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Schedule `fault` for the `nth` call (0-based) seen after now.
    pub fn on_nth_call(&self, nth: u64, fault: Fault) {
        let mut plan = self.plan.lock();
        let at = plan.next + nth;
        plan.due.push((at, fault));
        self.armed.fetch_add(1, Ordering::SeqCst);
    }

    /// Numbers one call that found the injector armed.
    fn number(&self) -> u64 {
        let mut plan = self.plan.lock();
        plan.next += 1;
        plan.next - 1
    }

    /// Removes and returns the plan entry for call `n`, if one is due.
    fn take_planned(&self, n: u64) -> Option<Fault> {
        let mut plan = self.plan.lock();
        let at = plan.due.iter().position(|(when, _)| *when == n)?;
        self.armed.fetch_sub(1, Ordering::SeqCst);
        Some(plan.due.swap_remove(at).1)
    }

    /// Writes the down state, keeping `armed` in step. Callers hold the
    /// `down` lock (`slot` is its guard's target).
    fn set_down(&self, slot: &mut Option<Option<u64>>, to: Option<Option<u64>>) {
        match (slot.is_some(), to.is_some()) {
            (false, true) => self.armed.fetch_add(1, Ordering::SeqCst),
            (true, false) => self.armed.fetch_sub(1, Ordering::SeqCst),
            _ => 0,
        };
        *slot = to;
    }

    /// Drops the partitions `keep` rejects, keeping `armed` in step.
    fn retain_partitions(
        &self,
        parts: &mut Vec<(u64, u64, u64)>,
        keep: impl FnMut(&(u64, u64, u64)) -> bool,
    ) {
        let before = parts.len();
        parts.retain(keep);
        self.armed.fetch_sub(before - parts.len(), Ordering::SeqCst);
    }

    /// Schedule `fault` for the next call.
    pub fn on_next_call(&self, fault: Fault) {
        self.on_nth_call(0, fault);
    }

    /// Record one call at sim time `now_ns` and return the fault planned
    /// for it, if any, with crash bookkeeping: while the injector is in
    /// the down state every call fails with [`Fault::Crash`] (restart
    /// pending), and a planned crash entering the down state schedules its
    /// restart at `now_ns + restart_after_ns`. A caller with no clock to
    /// read passes 0.
    pub fn next_call_at(&self, now_ns: u64) -> Option<Fault> {
        self.next_call_between(now_ns, 0, 1)
    }

    /// Like [`FaultInjector::next_call_at`], but for a call between the
    /// endpoint pair `(a, b)`: while an active partition covers the pair
    /// the call fails with that [`Fault::Partition`] (no plan entry is
    /// consumed — the message never reached the link), and a planned
    /// partition firing here enters the pair-keyed partition state with
    /// its heal scheduled at `now_ns + heal_after_ns`. Point-to-point
    /// transports use the conventional `(0, 1)` pair.
    pub fn next_call_between(&self, now_ns: u64, a: u64, b: u64) -> Option<Fault> {
        if self.armed.load(Ordering::SeqCst) == 0 {
            return None;
        }
        self.consult(now_ns, a, b)
    }

    /// The locked path behind the `armed` check: the call's number, then
    /// the down state, active partitions and the plan entry due for it. A
    /// call the down state or a partition fails still takes its number, so
    /// an entry planned for it is never fired on a later call.
    #[cold]
    fn consult(&self, now_ns: u64, a: u64, b: u64) -> Option<Fault> {
        let n = self.number();
        {
            let mut down = self.down.lock();
            match *down {
                Some(Some(restart_at)) if now_ns >= restart_at => self.set_down(&mut down, None),
                Some(_) => return Some(Fault::Crash { restart_after_ns: None }),
                None => {}
            }
        }
        if let Some((pa, pb, heal_at)) = self.active_partition(a, b, now_ns) {
            let heal_after_ns = if heal_at == u64::MAX { u64::MAX } else { heal_at - now_ns };
            return Some(Fault::Partition { a: pa, b: pb, heal_after_ns });
        }
        let fault = self.take_planned(n)?;
        match fault {
            Fault::Crash { restart_after_ns } => {
                self.crash(restart_after_ns.map(|d| now_ns + d));
            }
            Fault::Partition { a: pa, b: pb, heal_after_ns } => {
                let heal_at = now_ns.saturating_add(heal_after_ns);
                self.partition(pa, pb, heal_at);
                // The cut severs the link mid-call only if this call
                // crosses the partitioned pair; an unrelated call proceeds.
                if !pair_matches(pa, pb, a, b) {
                    return None;
                }
            }
            _ => {}
        }
        Some(fault)
    }

    /// The fault gate for a point-to-point transport (loopback, kernel IPC,
    /// engine admission): [`FaultInjector::gate_between`] over the
    /// conventional `(0, 1)` pair, with a one-shot [`Fault::SlowLink`]
    /// charged to `clock` here as `factor` × `SLOW_HOP_NS`, since these
    /// transports have no wire time of their own to scale. It checks `armed`
    /// itself, so the unarmed path returns the constant verdict in place:
    /// forwarded through `gate_between`, the clear and the armed verdicts
    /// met in a stack slot, and `null_loopback` read 1.9 % slower (2-vCPU
    /// x86-64 box).
    #[inline]
    pub fn gate(&self, clock: &SimClock) -> Verdict {
        if self.armed.load(Ordering::SeqCst) == 0 {
            return Verdict::CLEAR;
        }
        self.gate_hop(clock)
    }

    /// [`FaultInjector::gate`]'s armed path.
    #[cold]
    fn gate_hop(&self, clock: &SimClock) -> Verdict {
        let verdict = self.gate_armed(clock, 0, 1);
        if verdict.slow > 1 {
            clock.advance_ns(SLOW_HOP_NS.saturating_mul(verdict.slow));
        }
        verdict
    }

    /// The fault gate for one call between endpoints `(a, b)`: applies
    /// crash and partition state as [`FaultInjector::next_call_between`]
    /// does at `clock`'s current time, and returns what the call must do.
    /// A [`Fault::Delay`] is charged to `clock` before returning (the peer
    /// stalled; deadlines may expire meanwhile). The caller scales its own
    /// wire charge by [`Verdict::slow`]. Unarmed, it is one load.
    #[inline]
    pub fn gate_between(&self, clock: &SimClock, a: u64, b: u64) -> Verdict {
        if self.armed.load(Ordering::SeqCst) == 0 {
            return Verdict::CLEAR;
        }
        self.gate_armed(clock, a, b)
    }

    /// The armed path of both gates: numbers the call and applies what is
    /// planned for it.
    #[cold]
    fn gate_armed(&self, clock: &SimClock, a: u64, b: u64) -> Verdict {
        let Some(fault) = self.consult(clock.now_ns(), a, b) else {
            return Verdict::CLEAR;
        };
        let mut verdict = Verdict { fired: true, ..Verdict::CLEAR };
        match fault {
            Fault::Drop => verdict.lost = Some(Lost::Dropped),
            Fault::Crash { .. } => verdict.lost = Some(Lost::PeerDown),
            Fault::Partition { .. } => verdict.lost = Some(Lost::LinkCut),
            Fault::Delay(ns) => {
                clock.advance_ns(ns);
            }
            Fault::Duplicate => verdict.duplicate = true,
            Fault::Close => verdict.close_after = true,
            Fault::SlowLink { factor } => verdict.slow = factor.max(1),
        }
        verdict
    }

    /// Enters the partition state directly: the link between `a` and `b`
    /// (either may be [`FaultInjector::ANY`]) is severed until the sim
    /// clock passes `heal_at_ns` (absolute; `u64::MAX` = until
    /// [`FaultInjector::heal`]). Schedule compilers use this to apply
    /// partition events at absolute sim times without burning plan slots.
    pub fn partition(&self, a: u64, b: u64, heal_at_ns: u64) {
        let mut parts = self.partitions.lock();
        parts.push((a, b, heal_at_ns));
        self.armed.fetch_add(1, Ordering::SeqCst);
    }

    /// True while an active partition covers the pair `(a, b)` as of
    /// `now_ns`. Healed entries are dropped. Does not consume a call.
    pub fn is_partitioned(&self, a: u64, b: u64, now_ns: u64) -> bool {
        self.active_partition(a, b, now_ns).is_some()
    }

    fn active_partition(&self, a: u64, b: u64, now_ns: u64) -> Option<(u64, u64, u64)> {
        let mut parts = self.partitions.lock();
        self.retain_partitions(&mut parts, |&(_, _, heal_at)| now_ns < heal_at);
        parts.iter().copied().find(|&(pa, pb, _)| pair_matches(pa, pb, a, b))
    }

    /// Heals every partition touching the pair `(a, b)` immediately
    /// (wildcards match both ways).
    pub fn heal(&self, a: u64, b: u64) {
        let mut parts = self.partitions.lock();
        self.retain_partitions(&mut parts, |&(pa, pb, _)| !pair_matches(pa, pb, a, b));
    }

    /// Heals every partition immediately (an operator reconnecting the
    /// fabric, or a restart wave).
    pub fn heal_all(&self) {
        self.retain_partitions(&mut self.partitions.lock(), |_| false);
    }

    /// Degrades the link until the sim clock passes `until_ns`: every call
    /// in the window charges `factor`× its normal wire time (transports
    /// read the factor via [`FaultInjector::slow_factor`]). A later window
    /// replaces the current one.
    pub fn set_slow_link(&self, factor: u64, until_ns: u64) {
        let mut slow = self.slow.lock();
        *slow = Some((factor.max(1), until_ns));
        self.slow_set.store(true, Ordering::SeqCst);
    }

    /// The current wire-time multiplier (1 when the link is healthy).
    /// Expired windows are cleared. Does not consume a call. Transports ask
    /// on every message, almost always with no window set: that is one load.
    #[inline]
    pub fn slow_factor(&self, now_ns: u64) -> u64 {
        if !self.slow_set.load(Ordering::SeqCst) {
            return 1;
        }
        self.slow_window(now_ns)
    }

    /// The locked path behind the `slow_set` check.
    #[cold]
    fn slow_window(&self, now_ns: u64) -> u64 {
        let mut slow = self.slow.lock();
        match *slow {
            Some((factor, until_ns)) if now_ns < until_ns => factor,
            Some(_) => {
                *slow = None;
                self.slow_set.store(false, Ordering::SeqCst);
                1
            }
            None => 1,
        }
    }

    /// True while the injector's peer is crashed and has not restarted
    /// (as of `now_ns`). Does not consume a call.
    pub fn is_down(&self, now_ns: u64) -> bool {
        match *self.down.lock() {
            Some(Some(restart_at)) => now_ns < restart_at,
            Some(None) => true,
            None => false,
        }
    }

    /// Enters the crash down-state directly: the peer is down until the
    /// sim clock passes `restart_at_ns` (absolute; `None` = until
    /// [`FaultInjector::restore`]). Schedule compilers use this to apply
    /// crash events at absolute sim times without burning plan slots.
    pub fn crash(&self, restart_at_ns: Option<u64>) {
        self.set_down(&mut self.down.lock(), Some(restart_at_ns));
    }

    /// Clear the crash down-state immediately (an operator restart).
    pub fn restore(&self) {
        self.set_down(&mut self.down.lock(), None);
    }
}

/// True if the stored partition pair `(pa, pb)` covers the call pair
/// `(a, b)`: pairs are unordered and [`FaultInjector::ANY`] on either
/// stored side matches any endpoint.
fn pair_matches(pa: u64, pb: u64, a: u64, b: u64) -> bool {
    let end_matches = |p: u64, e: u64| p == FaultInjector::ANY || p == e;
    (end_matches(pa, a) && end_matches(pb, b)) || (end_matches(pa, b) && end_matches(pb, a))
}

/// SplitMix64: a tiny, high-quality deterministic bit mixer.
///
/// Used for retry jitter — the backoff sequence for a given
/// `(seed, attempt)` pair is a pure function, so tests can assert exact
/// schedules and two clients with different seeds still de-correlate.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance_ns(5), 5);
        assert_eq!(c.advance(std::time::Duration::from_micros(1)), 1005);
        assert!(c.expired(1004));
        assert!(!c.expired(1005), "deadline at exactly now has not passed");
    }

    #[test]
    fn fault_plan_fires_once_on_the_right_call() {
        let f = FaultInjector::new();
        f.on_nth_call(1, Fault::Drop);
        assert_eq!(f.next_call_at(0), None);
        assert_eq!(f.next_call_at(0), Some(Fault::Drop));
        assert_eq!(f.next_call_at(0), None);
        assert_eq!(f.armed.load(Ordering::SeqCst), 0, "a fired entry disarms the injector");
    }

    #[test]
    fn fault_plan_is_relative_to_calls_already_seen() {
        let f = FaultInjector::new();
        f.next_call_at(0);
        f.on_next_call(Fault::Duplicate);
        assert_eq!(f.next_call_at(0), Some(Fault::Duplicate));
        // Unarmed calls take no number; the nth call after arming still
        // gets the entry.
        for _ in 0..5 {
            assert_eq!(f.next_call_at(0), None);
        }
        f.on_nth_call(2, Fault::Close);
        assert_eq!(f.next_call_at(0), None);
        assert_eq!(f.next_call_at(0), None);
        assert_eq!(f.next_call_at(0), Some(Fault::Close));
    }

    #[test]
    fn crash_enters_down_state_until_scheduled_restart() {
        let f = FaultInjector::new();
        f.on_next_call(Fault::Crash { restart_after_ns: Some(1_000) });
        // Call 0 at t=100: crash fires, restart scheduled for t=1100.
        assert_eq!(f.next_call_at(100), Some(Fault::Crash { restart_after_ns: Some(1_000) }));
        assert!(f.is_down(500));
        // A plan made while down counts the calls the down state fails.
        f.on_nth_call(1, Fault::Drop);
        // Still down before the restart time: every call crashes.
        assert!(matches!(f.next_call_at(1_099), Some(Fault::Crash { .. })));
        // Past the restart: back up, and the plan's next call is dropped.
        assert!(!f.is_down(1_100));
        assert_eq!(f.next_call_at(1_100), Some(Fault::Drop));
        assert_eq!(f.next_call_at(1_100), None);
        assert_eq!(f.armed.load(Ordering::SeqCst), 0, "restarted, plan spent");
    }

    #[test]
    fn crash_without_restart_stays_down_until_restored() {
        let f = FaultInjector::new();
        f.on_next_call(Fault::Crash { restart_after_ns: None });
        assert!(matches!(f.next_call_at(0), Some(Fault::Crash { .. })));
        assert!(matches!(f.next_call_at(u64::MAX), Some(Fault::Crash { .. })));
        f.restore();
        assert_eq!(f.next_call_at(0), None);
    }

    #[test]
    fn close_is_one_shot_and_leaves_the_injector_up() {
        let f = FaultInjector::new();
        f.on_nth_call(1, Fault::Close);
        assert_eq!(f.next_call_at(0), None);
        assert_eq!(f.next_call_at(0), Some(Fault::Close));
        assert!(!f.is_down(0));
        assert_eq!(f.next_call_at(0), None);
    }

    #[test]
    fn splitmix64_is_a_pure_function() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn planned_partition_severs_the_pair_until_heal_time() {
        let f = FaultInjector::new();
        f.on_next_call(Fault::Partition { a: 0, b: 1, heal_after_ns: 1_000 });
        // The cut fires at t=100 and severs the consuming call's link.
        assert!(matches!(f.next_call_between(100, 0, 1), Some(Fault::Partition { .. })));
        // Every later call on the pair fails too, without burning plan
        // entries, until the heal time passes; order is irrelevant.
        assert!(matches!(f.next_call_between(500, 1, 0), Some(Fault::Partition { .. })));
        assert!(f.is_partitioned(0, 1, 1_099));
        // An unrelated pair is unaffected.
        assert_eq!(f.next_call_between(500, 2, 3), None);
        // Healed: the link carries calls again.
        assert!(!f.is_partitioned(0, 1, 1_100));
        assert_eq!(f.next_call_between(1_100, 0, 1), None);
    }

    #[test]
    fn planned_partition_for_another_pair_installs_state_without_failing_the_call() {
        let f = FaultInjector::new();
        f.on_next_call(Fault::Partition { a: 5, b: 6, heal_after_ns: 1_000 });
        // The consuming call crosses (0, 1): it proceeds, but (5, 6) is cut.
        assert_eq!(f.next_call_between(0, 0, 1), None);
        assert!(f.is_partitioned(5, 6, 500));
        assert!(matches!(f.next_call_between(500, 6, 5), Some(Fault::Partition { .. })));
    }

    #[test]
    fn wildcard_partition_isolates_one_endpoint_from_everyone() {
        let f = FaultInjector::new();
        f.partition(FaultInjector::ANY, 7, 2_000);
        assert!(f.is_partitioned(0, 7, 0));
        assert!(f.is_partitioned(7, 123, 0));
        assert!(!f.is_partitioned(0, 1, 0), "pairs not touching 7 still carry");
        f.heal(FaultInjector::ANY, 7);
        assert!(!f.is_partitioned(0, 7, 0));
    }

    #[test]
    fn direct_partition_uses_absolute_heal_time_and_heal_all_clears() {
        let f = FaultInjector::new();
        f.partition(1, 2, 5_000);
        f.partition(3, 4, u64::MAX);
        assert!(f.is_partitioned(1, 2, 4_999));
        assert!(!f.is_partitioned(1, 2, 5_000), "healed exactly at the heal time");
        assert!(f.is_partitioned(3, 4, u64::MAX - 1), "MAX heals only by hand");
        f.heal_all();
        assert!(!f.is_partitioned(3, 4, 0));
    }

    #[test]
    fn crash_dominates_partition() {
        let f = FaultInjector::new();
        f.crash(Some(1_000));
        f.partition(0, 1, u64::MAX);
        assert!(matches!(f.next_call_between(0, 0, 1), Some(Fault::Crash { .. })));
        // Restarted but still partitioned.
        assert!(matches!(f.next_call_between(1_000, 0, 1), Some(Fault::Partition { .. })));
    }

    /// One row of the gate's contract: arm a fresh injector, pass one call
    /// across `pair`, and pin the verdict, the sim time charged inside the
    /// gate (`delay_ns`; a wire-model caller scales its own charge, so
    /// `gate_between` charges nothing else), and — on the conventional
    /// pair — that point-to-point `gate` adds exactly the slow hops.
    fn gate_row(
        name: &str,
        arm: impl Fn(&FaultInjector),
        pair: (u64, u64),
        want: Verdict,
        delay_ns: u64,
    ) {
        let (f, clock) = (FaultInjector::new(), SimClock::new());
        arm(&f);
        assert_eq!(f.gate_between(&clock, pair.0, pair.1), want, "{name}");
        assert_eq!(clock.now_ns(), delay_ns, "{name}: charged inside gate_between");
        if pair == (0, 1) {
            let (f, clock) = (FaultInjector::new(), SimClock::new());
            arm(&f);
            assert_eq!(f.gate(&clock), want, "{name}: point-to-point");
            let hops = if want.slow > 1 { want.slow * SLOW_HOP_NS } else { 0 };
            assert_eq!(clock.now_ns(), delay_ns + hops, "{name}: point-to-point charge");
        }
    }

    /// The gate's whole contract: every `Fault` variant and every piece of
    /// injector state that can touch a call.
    #[test]
    fn gate_verdict_per_variant() {
        let fired = Verdict { fired: true, ..Verdict::CLEAR };
        let lost = |how| Verdict { lost: Some(how), ..fired };
        let cut = |a, b| Fault::Partition { a, b, heal_after_ns: 50 };
        gate_row("nothing planned", |_| {}, (0, 1), Verdict::CLEAR, 0);
        gate_row("drop", |f| f.on_next_call(Fault::Drop), (0, 1), lost(Lost::Dropped), 0);
        gate_row("delay", |f| f.on_next_call(Fault::Delay(700)), (0, 1), fired, 700);
        let dup = Verdict { duplicate: true, ..fired };
        gate_row("duplicate", |f| f.on_next_call(Fault::Duplicate), (0, 1), dup, 0);
        let crash = Fault::Crash { restart_after_ns: None };
        gate_row("crash", |f| f.on_next_call(crash), (0, 1), lost(Lost::PeerDown), 0);
        gate_row("down state", |f| f.crash(None), (0, 1), lost(Lost::PeerDown), 0);
        let close = Verdict { close_after: true, ..fired };
        gate_row("close", |f| f.on_next_call(Fault::Close), (0, 1), close, 0);
        gate_row("planned cut", |f| f.on_next_call(cut(0, 1)), (1, 0), lost(Lost::LinkCut), 0);
        let isolate = |f: &FaultInjector| f.partition(FaultInjector::ANY, 1, 50);
        gate_row("partition state", isolate, (0, 1), lost(Lost::LinkCut), 0);
        let both = |f: &FaultInjector| {
            f.partition(0, 1, u64::MAX);
            f.crash(None);
        };
        gate_row("crash dominates partition", both, (0, 1), lost(Lost::PeerDown), 0);
        let slow = Verdict { slow: 4, ..fired };
        gate_row("slow link", |f| f.on_next_call(Fault::SlowLink { factor: 4 }), (0, 1), slow, 0);
        gate_row(
            "slow window is the wire model's",
            |f| f.set_slow_link(8, 50),
            (0, 1),
            Verdict::CLEAR,
            0,
        );

        // A planned partition for another pair installs its state without
        // failing (or marking) the call that consumed it.
        gate_row(
            "cut planned for another pair",
            |f| f.on_next_call(cut(5, 6)),
            (0, 1),
            Verdict::CLEAR,
            0,
        );
        let (f, clock) = (FaultInjector::new(), SimClock::new());
        f.on_next_call(cut(5, 6));
        assert_eq!(f.gate_between(&clock, 0, 1), Verdict::CLEAR);
        assert_eq!(f.gate_between(&clock, 6, 5), lost(Lost::LinkCut));
    }

    #[test]
    fn the_gate_numbers_each_armed_call_once() {
        let (f, clock) = (FaultInjector::new(), SimClock::new());
        f.on_nth_call(2, Fault::Drop);
        f.on_nth_call(3, Fault::Delay(50));
        assert_eq!(f.gate(&clock), Verdict::CLEAR);
        assert_eq!(f.gate_between(&clock, 4, 2), Verdict::CLEAR);
        assert_eq!(f.gate(&clock).lost, Some(Lost::Dropped));
        assert!(f.gate_between(&clock, 0, 1).fired);
        assert_eq!(clock.now_ns(), 50);
        assert_eq!(f.gate(&clock), Verdict::CLEAR);
        assert_eq!(f.armed.load(Ordering::SeqCst), 0);
    }

    /// An arming that races a caller's gate loses no fault: the caller
    /// reads `armed` before it takes a number, so it either goes before the
    /// plan entirely or is numbered under the plan lock after it. (A caller
    /// that took its number first could take the planned one and leave on
    /// the unarmed path: that drop never fired, and the injector stayed
    /// armed for good.)
    #[test]
    fn an_arming_racing_the_gate_loses_no_fault() {
        use std::time::{Duration, Instant};
        const ARMINGS: u64 = 10_000;
        let f = Arc::new(FaultInjector::new());
        let drops = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let caller = {
            let (f, drops, stop) = (Arc::clone(&f), Arc::clone(&drops), Arc::clone(&stop));
            std::thread::spawn(move || {
                let clock = SimClock::new();
                while !stop.load(Ordering::SeqCst) {
                    if f.gate(&clock).lost == Some(Lost::Dropped) {
                        drops.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        };
        // Each drop is armed alone and waited for, so a lost one shows as
        // a wait that never ends, and a doubled one as a count too high.
        let mut broken = None;
        for i in 0..ARMINGS {
            f.on_next_call(Fault::Drop);
            let give_up = Instant::now() + Duration::from_secs(5);
            while drops.load(Ordering::SeqCst) == i && Instant::now() < give_up {
                std::hint::spin_loop();
            }
            let fired = drops.load(Ordering::SeqCst) - i;
            if fired != 1 {
                broken = Some(format!("arming {i}: the drop fired {fired} times"));
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        caller.join().expect("caller");
        assert_eq!(broken, None);
        assert_eq!(drops.load(Ordering::SeqCst), ARMINGS);
        assert_eq!(f.armed.load(Ordering::SeqCst), 0, "every entry fired and disarmed");
    }

    #[test]
    fn slow_link_window_multiplies_until_expiry() {
        let f = FaultInjector::new();
        assert_eq!(f.slow_factor(0), 1, "healthy link");
        f.set_slow_link(8, 1_000);
        assert_eq!(f.slow_factor(999), 8);
        assert_eq!(f.slow_factor(1_000), 1, "window expired");
        assert_eq!(f.slow_factor(0), 1, "expiry cleared the window");
    }

    #[test]
    fn planned_slow_link_is_one_shot() {
        let f = FaultInjector::new();
        f.on_next_call(Fault::SlowLink { factor: 4 });
        assert_eq!(f.next_call_at(0), Some(Fault::SlowLink { factor: 4 }));
        assert_eq!(f.next_call_at(0), None);
        assert_eq!(f.slow_factor(0), 1, "a one-shot fault opens no window");
    }
}
