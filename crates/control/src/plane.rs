//! The shared control-plane manager.
//!
//! A [`ControlPlane`] owns operational policy for every connection of the
//! engines attached to it: the map from [`TenantId`] to live
//! [`PolicyHandle`] (an unseen tenant starts from the neutral policy) and
//! the per-tenant metrics (admitted/served/shed/expired counters plus a
//! queue-dwell histogram) that make a noisy neighbor *visible* before it
//! becomes someone else's latency. One plane can serve several engines —
//! hoisting policy out of individual connections into a shared manager is
//! the mRPC move the tentpole is named for.

use crate::policy::{Policy, PolicyHandle};
use flexrpc_runtime::TenantId;
use flexrpc_trace::MetricsRegistry;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

flexrpc_trace::instruments! {
    /// Per-tenant observability: counter cells and the dwell histogram,
    /// adopted into every attached registry under `tenant.<id>.*` names.
    pub struct TenantMetrics {
        /// Calls admitted to the queue.
        admitted: Counter = "admitted",
        /// Calls shed against this tenant's own quota.
        shed: Counter = "shed",
        /// Calls dispatched to a worker.
        served: Counter = "served",
        /// Calls expired in the queue (dwell or deadline).
        expired: Counter = "expired",
        /// Policy swaps through the tenant's [`PolicyHandle`] (the handle's
        /// own cell, shared).
        policy_swaps: Counter = "policy_swaps",
        /// Queue dwell per served call, sim-time nanoseconds (log2 buckets).
        dwell_ns: Histogram = "dwell_ns",
    }
    /// A point-in-time copy of one tenant's counters.
    #[derive(Eq)]
    pub struct TenantSnapshot;
}

/// One tenant's live policy handle and metric cells, resolved together.
///
/// Both are stable for the tenant's lifetime — [`ControlPlane::register`]
/// swaps through the existing handle and cells are never removed — so an
/// engine resolves them once when a connection binds and every later call
/// reads policy through the handle: swaps stay visible to the very next
/// call with no map lookup on the call path.
#[derive(Clone)]
pub struct TenantCells {
    /// The tenant's live policy.
    pub handle: PolicyHandle,
    /// The tenant's counters and dwell histogram.
    pub metrics: Arc<TenantMetrics>,
}

/// The shared manager owning per-tenant policy and metrics.
///
/// Engines attach to a plane at build time (`Engine::builder().control(..)`)
/// and resolve a tenant through it when a connection binds; operators hold
/// [`PolicyHandle`]s and swap policies live through them. Unknown tenants
/// are materialised on first use under the neutral policy, so declaring a
/// tenant is optional — the anonymous default tenant preserves
/// single-queue behavior.
pub struct ControlPlane {
    tenants: RwLock<HashMap<TenantId, TenantCells>>,
    /// Registries of the engines attached to this plane; new tenants'
    /// metrics are adopted into each.
    registries: Mutex<Vec<Arc<MetricsRegistry>>>,
}

impl ControlPlane {
    /// A plane with no tenants yet.
    pub fn new() -> Arc<ControlPlane> {
        Arc::new(ControlPlane {
            tenants: RwLock::new(HashMap::new()),
            registries: Mutex::new(Vec::new()),
        })
    }

    /// Registers `tenant` under an explicit starting `policy`, returning
    /// its live handle. Re-registering an existing tenant swaps its
    /// policy through that handle rather than minting a second one.
    pub fn register(&self, tenant: TenantId, policy: Policy) -> PolicyHandle {
        let existing = self.tenants.read().get(&tenant).map(|c| c.handle.clone());
        match existing {
            Some(h) => {
                h.swap(policy);
                h
            }
            None => self.materialise(tenant, Some(policy)).handle,
        }
    }

    /// `tenant`'s handle and metric cells in one lookup, materialising the
    /// tenant on first sight — what an engine calls once per binding.
    pub fn resolve(&self, tenant: TenantId) -> TenantCells {
        self.with_cells(tenant, TenantCells::clone)
    }

    /// Applies `f` to `tenant`'s entry, materialising it on first sight.
    fn with_cells<R>(&self, tenant: TenantId, f: impl FnOnce(&TenantCells) -> R) -> R {
        if let Some(cells) = self.tenants.read().get(&tenant) {
            return f(cells);
        }
        f(&self.materialise(tenant, None))
    }

    /// The current policy for `tenant` (one map read + one `Arc` bump).
    pub fn policy_for(&self, tenant: TenantId) -> Arc<Policy> {
        self.with_cells(tenant, |c| c.handle.load())
    }

    /// The metrics cells for `tenant`, materialising on first sight.
    pub fn metrics_for(&self, tenant: TenantId) -> Arc<TenantMetrics> {
        self.with_cells(tenant, |c| Arc::clone(&c.metrics))
    }

    /// Attaches an engine's registry: every tenant's cells (current and
    /// future) are adopted into it.
    pub fn attach_registry(&self, registry: &Arc<MetricsRegistry>) {
        let tenants = self.tenants.read();
        for (t, cells) in tenants.iter() {
            cells.metrics.register_metrics_under(registry, &format!("tenant.{t}"));
        }
        drop(tenants);
        self.registries.lock().push(Arc::clone(registry));
    }

    /// Tenants materialised so far.
    pub fn tenant_count(&self) -> usize {
        self.tenants.read().len()
    }

    fn materialise(&self, tenant: TenantId, policy: Option<Policy>) -> TenantCells {
        let mut tenants = self.tenants.write();
        // Double-check under the write lock: another thread may have won.
        if let Some(cells) = tenants.get(&tenant) {
            return cells.clone();
        }
        let handle = PolicyHandle::new(tenant, policy.unwrap_or_default());
        let policy_swaps = handle.swap_counter().clone();
        let metrics = Arc::new(TenantMetrics { policy_swaps, ..TenantMetrics::default() });
        for registry in self.registries.lock().iter() {
            metrics.register_metrics_under(registry, &format!("tenant.{tenant}"));
        }
        let cells = TenantCells { handle, metrics };
        tenants.insert(tenant, cells.clone());
        cells
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane").field("tenants", &self.tenant_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unseen_tenants_start_from_the_neutral_policy() {
        let plane = ControlPlane::new();
        assert_eq!(*plane.policy_for(TenantId(3)), Policy::new());
        assert_eq!(plane.tenant_count(), 1);
    }

    #[test]
    fn register_then_swap_is_live_through_old_handles() {
        let plane = ControlPlane::new();
        let h = plane.register(TenantId(1), Policy::new().quota(8));
        assert_eq!(h.load().quota_value(), Some(8));
        plane.register(TenantId(1), Policy::new().quota(2));
        assert_eq!(h.load().quota_value(), Some(2), "old handle sees the swap");
        assert_eq!(h.version(), 2);
    }

    /// What a binding resolved once stays the tenant's live state:
    /// re-registering swaps through the same handle, and the cells are the
    /// ones `metrics_for` and the registry see.
    #[test]
    fn resolved_cells_stay_live_across_reregistration() {
        let plane = ControlPlane::new();
        let registry = Arc::new(MetricsRegistry::new());
        plane.attach_registry(&registry);
        let cells = plane.resolve(TenantId(6));
        assert_eq!(cells.handle.with(|p| p.quota_value()), None, "from the neutral policy");

        let registered = plane.register(TenantId(6), Policy::new().quota(3));
        assert_eq!(plane.tenant_count(), 1, "no second entry");
        assert_eq!(cells.handle.with(|p| p.quota_value()), Some(3));
        assert_eq!((cells.handle.version(), registered.version()), (2, 2));

        cells.metrics.served.inc();
        assert!(Arc::ptr_eq(&cells.metrics, &plane.metrics_for(TenantId(6))));
        assert_eq!(registry.snapshot().counter("tenant.6.served"), 1);
    }

    #[test]
    fn tenant_metrics_adopted_into_attached_registries() {
        let plane = ControlPlane::new();
        let registry = Arc::new(MetricsRegistry::new());
        plane.attach_registry(&registry);
        let m = plane.metrics_for(TenantId(9));
        m.admitted.add(3);
        m.shed.inc();
        m.dwell_ns.record(1_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tenant.9.admitted"), 3);
        assert_eq!(snap.counter("tenant.9.shed"), 1);
        assert_eq!(snap.histogram("tenant.9.dwell_ns").map(|h| h.count), Some(1));
    }

    #[test]
    fn tenants_created_before_attach_register_too() {
        let plane = ControlPlane::new();
        let m = plane.metrics_for(TenantId(4));
        m.served.add(2);
        let registry = Arc::new(MetricsRegistry::new());
        plane.attach_registry(&registry);
        assert_eq!(registry.snapshot().counter("tenant.4.served"), 2);
    }

    #[test]
    fn deadline_default_survives_swap_cycles() {
        let plane = ControlPlane::new();
        let h = plane.register(TenantId(2), Policy::new().deadline(Duration::from_millis(5)));
        for _ in 0..3 {
            let p = Policy::clone(&h.load());
            h.swap(p);
        }
        assert_eq!(h.load().deadline_ns(), Some(5_000_000));
        assert_eq!(h.version(), 4);
    }
}
