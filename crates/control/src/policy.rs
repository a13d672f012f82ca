//! First-class operational policy.
//!
//! The paper hoists *presentation* decisions out of hand-written stubs
//! into annotated interface definitions resolved at bind time; this
//! module does the same for *operational* decisions. Every knob that used
//! to be a scattered builder flag — admission high-water, queue-dwell
//! limit, breaker thresholds, default deadlines — plus the tenancy knobs
//! (scheduling weight, per-tenant quota) composes into one [`Policy`]
//! value. Policies are plain data: they can be built, compared and
//! stored. An engine's is fixed when the engine is built; a tenant's is
//! swapped **live** through its [`PolicyHandle`] without touching
//! established connections.

use flexrpc_runtime::TenantId;
use flexrpc_trace::Counter;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One composable bundle of operational policy.
///
/// A `Policy` plays two roles depending on where it is installed:
///
/// * **Engine-level** (via `Engine::builder().policy(..)`, read once when
///   the engine is built): `high_water` is the *aggregate* backstop across
///   all tenants, `dwell_limit` / `breaker` govern the whole engine.
/// * **Tenant-level** (via a control plane's [`PolicyHandle`]): `weight`
///   sets the tenant's weighted-fair share, `quota` bounds how many of
///   its calls may be queued at once (excess is shed against *this*
///   tenant, not the engine), and `dwell_limit` / `deadline` override the
///   engine defaults for this tenant's calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    weight: u32,
    quota: Option<usize>,
    high_water: Option<usize>,
    dwell_limit_ns: Option<u64>,
    deadline_ns: Option<u64>,
    breaker: Option<(u32, u64)>,
}

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            weight: 1,
            quota: None,
            high_water: None,
            dwell_limit_ns: None,
            deadline_ns: None,
            breaker: None,
        }
    }
}

impl Policy {
    /// The neutral policy: weight 1, no quota, no backstop, no limits.
    pub fn new() -> Policy {
        Policy::default()
    }

    /// Sets the weighted-fair scheduling share (minimum 1). A tenant with
    /// weight 3 drains three calls for every one of a weight-1 tenant
    /// while both are backlogged.
    pub fn weight(mut self, w: u32) -> Policy {
        self.weight = w.max(1);
        self
    }

    /// Caps how many of this tenant's calls may be queued at once.
    /// Submissions past the quota are shed immediately (`Overloaded`),
    /// charged to this tenant's own shed counter — the mechanism that
    /// keeps one storming tenant from consuming the shared queue.
    pub fn quota(mut self, max_queued: usize) -> Policy {
        self.quota = Some(max_queued);
        self
    }

    /// Aggregate admission backstop: with more than `limit` calls queued
    /// engine-wide, further submissions are shed regardless of tenant.
    /// The engine-level successor of the old `high_water` builder knob.
    pub fn high_water(mut self, limit: usize) -> Policy {
        self.high_water = Some(limit);
        self
    }

    /// Bounds queue dwell: a call still queued `limit` after submission
    /// is expired instead of dispatched.
    pub fn dwell_limit(mut self, limit: Duration) -> Policy {
        self.dwell_limit_ns = Some(u64::try_from(limit.as_nanos()).unwrap_or(u64::MAX));
        self
    }

    /// Default per-call deadline for calls that did not set their own.
    pub fn deadline(mut self, d: Duration) -> Policy {
        self.deadline_ns = Some(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self
    }

    /// Arms the engine's circuit breaker: `threshold` consecutive
    /// dispatch failures trip it open for `cooldown` of sim time.
    pub fn breaker(mut self, threshold: u32, cooldown: Duration) -> Policy {
        self.breaker = Some((threshold, u64::try_from(cooldown.as_nanos()).unwrap_or(u64::MAX)));
        self
    }

    /// The weighted-fair share.
    pub fn weight_value(&self) -> u32 {
        self.weight
    }

    /// The per-tenant queued-call quota, if bounded.
    pub fn quota_value(&self) -> Option<usize> {
        self.quota
    }

    /// The aggregate high-water backstop, if bounded.
    pub fn high_water_value(&self) -> Option<usize> {
        self.high_water
    }

    /// The queue-dwell limit in nanoseconds, if bounded.
    pub fn dwell_limit_ns(&self) -> Option<u64> {
        self.dwell_limit_ns
    }

    /// The default deadline in nanoseconds, if set.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }

    /// The breaker arming `(threshold, cooldown_ns)`, if armed.
    pub fn breaker_config(&self) -> Option<(u32, u64)> {
        self.breaker
    }
}

/// A live, shared handle to one tenant's [`Policy`]: the one way that
/// policy changes.
///
/// The handle is the unit of *live swap*: the engine reads the current
/// policy through it at every admission, so [`PolicyHandle::swap`]
/// redirects all subsequent scheduling/quota/deadline decisions without
/// draining the engine or touching established connections. Clones share
/// the same cell. Swaps are cheap (one `Arc` store) and versioned: the
/// version is bumped *inside* the write lock that stores the policy, so a
/// version always names its policy and a reader holding a
/// [`CachedPolicy`] can tell with one load whether it is still current.
#[derive(Clone)]
pub struct PolicyHandle {
    tenant: TenantId,
    cell: Arc<PolicyCell>,
}

struct PolicyCell {
    policy: RwLock<Arc<Policy>>,
    /// Only advanced with `policy` write-locked, after the store.
    version: AtomicU64,
    swaps: Counter,
}

/// A reader's own copy of a handle's policy and the version it was read at
/// ([`PolicyHandle::cached`]); kept current with [`PolicyHandle::refresh`].
/// The pair is always a version and *its* policy: both are read under the
/// lock the swap holds while it writes both.
#[derive(Debug)]
pub struct CachedPolicy {
    version: u64,
    policy: Arc<Policy>,
}

impl CachedPolicy {
    /// The policy as of the last [`PolicyHandle::refresh`].
    pub fn policy(&self) -> &Policy {
        &self.policy
    }
}

impl PolicyHandle {
    /// A handle for `tenant` starting at `policy`, version 1.
    pub fn new(tenant: TenantId, policy: Policy) -> PolicyHandle {
        PolicyHandle {
            tenant,
            cell: Arc::new(PolicyCell {
                policy: RwLock::new(Arc::new(policy)),
                version: AtomicU64::new(1),
                swaps: Counter::detached(),
            }),
        }
    }

    /// The tenant this handle governs.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The current policy, shared (one atomic ref-count bump).
    pub fn load(&self) -> Arc<Policy> {
        Arc::clone(&self.cell.policy.read())
    }

    /// Reads the current policy in place, under the cell's read guard: the
    /// accessor of an admission that has no cached copy to validate — no
    /// `Arc` bump, and a swap is visible to the very next read. Keep `f`
    /// short; a swap waits for it.
    pub fn with<R>(&self, f: impl FnOnce(&Policy) -> R) -> R {
        f(&self.cell.policy.read())
    }

    /// The current policy and its version, for a reader to keep and
    /// [`refresh`](PolicyHandle::refresh) before each use.
    pub fn cached(&self) -> CachedPolicy {
        let policy = self.cell.policy.read();
        CachedPolicy { version: self.version(), policy: Arc::clone(&policy) }
    }

    /// Brings `cached` up to date: one `Acquire` load while nothing was
    /// swapped since it was read, a reload under the read lock otherwise.
    /// A swap that returned before this call began is always seen — its
    /// version bump happened before, so the load cannot match.
    #[inline]
    pub fn refresh(&self, cached: &mut CachedPolicy) {
        if !self.is_current(cached) {
            *cached = self.cached();
        }
    }

    /// True while nothing was swapped since `cached` was read: one
    /// `Acquire` load. A reader that holds its copy behind a lock of its
    /// own checks this under the shared guard and refreshes under the
    /// exclusive one only when it reads false; a swap that returned before
    /// the check began always makes it false.
    #[inline]
    pub fn is_current(&self, cached: &CachedPolicy) -> bool {
        self.version() == cached.version
    }

    /// Replaces the policy **live**: every admission after the store sees
    /// the new value; calls already queued keep the scheduling tags they
    /// were admitted under (they are never dropped by a swap). Returns
    /// the new version number.
    ///
    /// The version is bumped (`Release`) before the write lock is
    /// released, so whoever reads a version — under the read lock or
    /// against a cached copy — reads its policy.
    pub fn swap(&self, policy: Policy) -> u64 {
        let mut slot = self.cell.policy.write();
        *slot = Arc::new(policy);
        let version = self.cell.version.fetch_add(1, Ordering::Release) + 1;
        drop(slot);
        self.cell.swaps.inc();
        version
    }

    /// The monotonic policy version (1 = as constructed).
    pub fn version(&self) -> u64 {
        self.cell.version.load(Ordering::Acquire)
    }

    /// The swap counter cell (adopted by the control plane's registry).
    pub(crate) fn swap_counter(&self) -> &Counter {
        &self.cell.swaps
    }
}

impl std::fmt::Debug for PolicyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyHandle")
            .field("tenant", &self.tenant)
            .field("version", &self.version())
            .field("policy", &*self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_and_reads_back() {
        let p = Policy::new()
            .weight(4)
            .quota(16)
            .high_water(256)
            .dwell_limit(Duration::from_millis(5))
            .deadline(Duration::from_millis(50))
            .breaker(3, Duration::from_millis(10));
        assert_eq!(p.weight_value(), 4);
        assert_eq!(p.quota_value(), Some(16));
        assert_eq!(p.high_water_value(), Some(256));
        assert_eq!(p.dwell_limit_ns(), Some(5_000_000));
        assert_eq!(p.deadline_ns(), Some(50_000_000));
        assert_eq!(p.breaker_config(), Some((3, 10_000_000)));
    }

    #[test]
    fn weight_floor_is_one() {
        assert_eq!(Policy::new().weight(0).weight_value(), 1);
    }

    #[test]
    fn swap_is_visible_through_clones_and_versions() {
        let h = PolicyHandle::new(TenantId(7), Policy::new().weight(1));
        let h2 = h.clone();
        assert_eq!(h.version(), 1);
        let v = h.swap(Policy::new().weight(9));
        assert_eq!(v, 2);
        assert_eq!(h2.load().weight_value(), 9, "clones share the cell");
        assert_eq!(h2.version(), 2);
    }

    #[test]
    fn a_cached_copy_is_reloaded_only_after_a_swap() {
        let h = PolicyHandle::new(TenantId(7), Policy::new().weight(2));
        let mut cached = h.cached();
        let first = Arc::clone(&cached.policy);
        assert!(h.is_current(&cached));
        h.refresh(&mut cached);
        assert!(Arc::ptr_eq(&first, &cached.policy), "nothing swapped: the copy is kept");
        assert_eq!((cached.version, cached.policy().weight_value()), (1, 2));

        assert_eq!(h.swap(Policy::new().weight(5)), 2);
        assert!(!h.is_current(&cached), "a returned swap is seen by the next check");
        h.refresh(&mut cached);
        assert!(h.is_current(&cached));
        assert_eq!((cached.version, cached.policy().weight_value()), (2, 5));
    }
}
