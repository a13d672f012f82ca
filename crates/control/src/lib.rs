//! # flexrpc-control — the multi-tenant control plane
//!
//! The paper's bind-time negotiation hoists *presentation* decisions out
//! of hand-written stubs into a shared runtime; *RPC as a Managed System
//! Service* (mRPC) extends the argument to *operational* decisions. This
//! crate is that manager for flexrpc engines:
//!
//! * [`Policy`] — one composable value holding every operational knob
//!   (weighted-fair share, per-tenant quota, aggregate high water, dwell
//!   limit, deadline default, breaker arming), replacing the scattered
//!   per-builder flags. An engine reads its own once, when it is built.
//! * [`PolicyHandle`] — a tenant's live, versioned handle, and the one
//!   way its policy changes; [`PolicyHandle::swap`] redirects all
//!   subsequent admissions without draining anything, and a reader that
//!   keeps a [`CachedPolicy`] validates it with one load.
//! * [`ControlPlane`] — the shared manager mapping [`TenantId`]s to
//!   handles and per-tenant metrics (`tenant.<id>.*` in the unified
//!   registry), attachable to any number of engines. A binding resolves
//!   its tenant's [`TenantCells`] once; calls then read policy through
//!   the handle and never touch the map.
//! * [`WfqQueue`] — the start-time fair queue that replaces the engine's
//!   single FIFO: per-tenant lanes, weight-proportional drain, quota
//!   sheds charged to the offender, aggregate high water as a backstop.
//!
//! The queue is generic and engine-agnostic; the engine crate plugs its
//! `Job` type in. Everything here is deterministic given a deterministic
//! submission order — scheduling tags are virtual time, not wall time.

pub mod plane;
pub mod policy;
pub mod wfq;

pub use flexrpc_runtime::TenantId;
pub use plane::{ControlPlane, TenantCells, TenantMetrics};
pub use policy::{CachedPolicy, Policy, PolicyHandle};
pub use wfq::{WfqQueue, WfqRefusal};
