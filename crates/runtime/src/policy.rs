//! Per-call policies: deadlines and retries.
//!
//! The paper's thesis is that per-endpoint decisions belong in declarations
//! compiled into the path, not hand-rolled at every call site. This module
//! extends that to *robustness* policy: a [`CallOptions`] value carries the
//! deadline and retry schedule for a call, the runtime enforces it at every
//! blocking point against the deterministic sim clock, and the license to
//! retry at all comes from the interface's PDL (`[idempotent]`) — the
//! policy layer refuses to resend an operation whose presentation does not
//! declare it safe to execute twice.

use crate::error::{RpcError, ShapeMisuse};
use flexrpc_clock::{splitmix64, SimClock};
use flexrpc_core::program::CompiledOp;
use std::time::Duration;

/// A retry schedule: bounded attempts, exponential backoff, deterministic
/// seeded jitter.
///
/// The backoff for attempt *n* (1-based; attempt 1 is the first *re*try) is
/// `min(base * 2^(n-1), cap)` plus a jitter in `[0, backoff/2)` computed by
/// hashing `(seed, n)` — a pure function, so a given seed always produces
/// the same schedule (testable) while different seeds de-correlate clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_ns: u64,
    seed: u64,
}

/// Where the exponential backoff stops growing: 100 ms.
const BACKOFF_CAP_NS: u64 = 100_000_000;

impl RetryPolicy {
    /// A policy allowing up to `max_attempts` total attempts (the first
    /// send plus retries), 1 ms base backoff capped at 100 ms, seed 0.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts: max_attempts.max(1), base_ns: 1_000_000, seed: 0 }
    }

    /// Sets the base backoff (doubles per retry).
    pub fn backoff(mut self, base: Duration) -> RetryPolicy {
        self.base_ns = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX);
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Total attempts allowed (first send included).
    pub(crate) fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The deterministic backoff before retry number `attempt` (1-based),
    /// in sim-clock nanoseconds.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let exp = self.base_ns.saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        let backoff = exp.min(BACKOFF_CAP_NS);
        let jitter_range = backoff / 2;
        if jitter_range == 0 {
            return backoff;
        }
        let h = splitmix64(self.seed ^ splitmix64(attempt as u64));
        backoff + h % jitter_range
    }

    /// Checks this policy against an operation's presentation: retrying is
    /// only legal for operations whose PDL declared `[idempotent]`, or on a
    /// binding that advertises at-most-once execution (`at_most_once =
    /// true`) — the server's reply cache suppresses re-execution, so a
    /// resend is observationally a single execution. A policy of one
    /// attempt never resends, so it passes for any op.
    pub(crate) fn check_op_with(&self, op: &CompiledOp, at_most_once: bool) -> crate::Result<()> {
        if self.max_attempts > 1 && !op.idempotent && !at_most_once {
            return Err(RpcError::ShapeMisuse(ShapeMisuse::NotIdempotent(op.index)));
        }
        Ok(())
    }
}

/// Options governing one call (or every call on a connection): an optional
/// deadline, measured on the sim clock from the moment the call starts and
/// spanning all retry attempts, and an optional retry policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallOptions {
    deadline: Option<Duration>,
    retry: Option<RetryPolicy>,
    at_least_once: bool,
    traced: bool,
}

impl CallOptions {
    /// Sets the deadline: the call fails with
    /// [`RpcError::DeadlineExceeded`] if the sim clock advances past
    /// `start + d` before a reply is accepted.
    pub fn deadline(mut self, d: Duration) -> CallOptions {
        self.deadline = Some(d);
        self
    }

    /// Attaches a retry policy. Whether the target operation permits
    /// retries is checked by the stub before the call's first send.
    pub fn retry(mut self, policy: RetryPolicy) -> CallOptions {
        self.retry = Some(policy);
        self
    }

    /// The configured deadline in nanoseconds, if any.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// The attached retry policy, if any.
    pub(crate) fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// Opts this call out of at-most-once duplicate suppression even on a
    /// binding that advertises it: the call carries no tag, the server
    /// caches nothing, and retry legality falls back to `[idempotent]`.
    /// The escape hatch for ops that *want* at-least-once execution
    /// semantics (e.g. increment-style counters measured by the caller).
    pub fn at_least_once(mut self) -> CallOptions {
        self.at_least_once = true;
        self
    }

    /// True if this call opted out of at-most-once suppression.
    pub(crate) fn is_at_least_once(&self) -> bool {
        self.at_least_once
    }

    /// Enables per-call span tracing: the binding records fixed-stage
    /// spans (marshal, transport, unmarshal, retry, …) into its
    /// pre-allocated trace ring, stamped on the deterministic sim clock
    /// where the transport has one. The recording path allocates nothing;
    /// connections that never ask pay only an untaken branch.
    pub fn traced(mut self) -> CallOptions {
        self.traced = true;
        self
    }

    /// True if calls under these options record trace spans.
    pub fn is_traced(&self) -> bool {
        self.traced
    }
}

/// The tenant a call is charged to. Tenants are the unit of operational
/// policy in the control plane: each one owns a weighted-fair queue lane,
/// an admission quota, and its own shed/served/dwell metrics, so one hot
/// tenant is shed against its own budget instead of starving the rest.
///
/// `TenantId::DEFAULT` (zero) is the anonymous tenant: connections that
/// never declared an identity all share its lane, which preserves the
/// pre-tenancy single-queue behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The anonymous tenant shared by all undeclared traffic.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The raw id (what rides the wire credential / kernel registers).
    pub(crate) fn as_u64(self) -> u64 {
        self.0
    }

    /// True for the anonymous tenant.
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The at-most-once identity of one logical call: which client binding
/// issued it and its sequence number on that binding. Retries of the same
/// logical call reuse the tag, so the server's reply cache can recognise
/// them; distinct logical calls never share one.
///
/// The tag also carries the call's [`TenantId`] so the engine can charge
/// queueing and quota decisions to the right lane even for calls that
/// arrive over a network acceptor. Tenancy is deliberately *excluded* from
/// equality and hashing: the reply cache must recognise a replayed tag as
/// the same logical call even if a failover re-issued it through a
/// connection with different tenancy metadata.
#[derive(Debug, Clone, Copy)]
pub struct CallTag {
    /// Process-unique id of the client binding (survives rebinds when a
    /// supervisor resumes the same logical session on a new endpoint).
    pub binding: u64,
    /// Sequence number of the logical call on that binding.
    pub seq: u64,
    /// The tenant this call is charged to.
    pub tenant: TenantId,
}

impl CallTag {
    /// A tag for the anonymous tenant.
    pub fn new(binding: u64, seq: u64) -> CallTag {
        CallTag { binding, seq, tenant: TenantId::DEFAULT }
    }

    /// A tag charged to `tenant`.
    pub fn for_tenant(binding: u64, seq: u64, tenant: TenantId) -> CallTag {
        CallTag { binding, seq, tenant }
    }
}

impl PartialEq for CallTag {
    fn eq(&self, other: &CallTag) -> bool {
        self.binding == other.binding && self.seq == other.seq
    }
}

impl Eq for CallTag {}

impl std::hash::Hash for CallTag {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.binding.hash(state);
        self.seq.hash(state);
    }
}

/// Deadline context resolved against a transport's clock, handed down to
/// [`crate::transport::Transport::call_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallControl {
    /// Absolute sim-clock deadline in nanoseconds, if the call has one.
    pub deadline_ns: Option<u64>,
    /// At-most-once identity, if the binding tags calls for the server's
    /// reply cache. Stable across retry attempts of one logical call.
    pub tag: Option<CallTag>,
}

impl CallControl {
    /// A control block with no deadline.
    pub fn none() -> CallControl {
        CallControl::default()
    }

    /// True if `clock` is past the deadline. A call with no deadline reads
    /// no clock.
    #[inline]
    pub(crate) fn expired(&self, clock: &SimClock) -> bool {
        self.deadline_ns.is_some_and(|d| clock.expired(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::new(10).backoff(Duration::from_millis(1)).seed(7);
        let b1 = p.backoff_ns(1);
        let b2 = p.backoff_ns(2);
        let b8 = p.backoff_ns(8);
        let b20 = p.backoff_ns(20);
        // Base value doubles; jitter adds at most half the base value.
        assert!((1_000_000..1_500_000).contains(&b1), "{b1}");
        assert!((2_000_000..3_000_000).contains(&b2), "{b2}");
        // 128 ms would be next: the 100 ms cap holds from here on.
        assert!((100_000_000..150_000_000).contains(&b8), "cap reached: {b8}");
        assert!((100_000_000..150_000_000).contains(&b20), "stays capped: {b20}");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::new(5).seed(42);
        let b = RetryPolicy::new(5).seed(42);
        let c = RetryPolicy::new(5).seed(43);
        let seq = |p: &RetryPolicy| (1..5).map(|n| p.backoff_ns(n)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c));
    }

    #[test]
    fn control_expiry() {
        let (c, clock) = (CallControl { deadline_ns: Some(100), tag: None }, SimClock::new());
        clock.advance_ns(100);
        assert!(!c.expired(&clock), "deadline instant itself has not passed");
        clock.advance_ns(1);
        assert!(c.expired(&clock));
        clock.advance_ns(u64::MAX - 101);
        assert!(!CallControl::none().expired(&clock));
    }
}
