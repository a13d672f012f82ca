//! The bind path: everything that happens before a connection's first call
//! and again at a rebind, and nothing a call itself touches.
//!
//! A service is registered ([`Engine::register_service`]); a client opens a
//! [`ConnectBuilder`] on it ([`Engine::connect`]) and establishes; the
//! bind resolves the combination's replica pool — compiling the program
//! through the [`ProgramCache`](crate::cache::ProgramCache) on the first
//! bind of a combination, and only then: a pool holds its program, so a
//! repeat bind is one map lookup — and settles the per-operation call
//! shapes. What comes out, with the tenant's policy added once the bind
//! has succeeded, is a `Binding`, which [`EngineConnection::rebind`] swaps
//! live.
//!
//! This is a child of [`crate::engine`] kept in its own file: it reads the
//! engine's private state, and the call path (`admit` → `enqueue` | inline
//! → `serve`) stays in the parent.

use super::{ClientInfo, Engine, EngineConnection, Replica, ReplicaPool};
use crate::cache::ProgramKey;
use crate::error::EngineError;
use flexrpc_control::CachedPolicy;
use flexrpc_core::compat::negotiate_call_shape;
use flexrpc_core::ir::Module;
use flexrpc_core::present::{CallShape, InterfacePresentation};
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::CoreError;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::policy::{CallOptions, TenantId};
use flexrpc_runtime::{ServerInterface, ShapeMisuse};
use flexrpc_trace::{SharedCallTrace, Stage};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{self, Arc, Condvar, OnceLock};

/// Builds one dispatch replica: register the service's work functions on a
/// server created over the shared compilation. Called once per replica, so
/// it must only capture `Arc`'d shared state.
pub type ReplicaFactory = Box<dyn Fn(&mut ServerInterface) + Send + Sync>;

/// A registered service: its contract, its server-side presentation, and
/// the factory that wires work functions onto replicas.
pub(crate) struct Service {
    module: Module,
    interface: String,
    presentation: InterfacePresentation,
    presentation_fingerprint: u64,
    signature: u64,
    format: WireFormat,
    factory: ReplicaFactory,
    /// Replica pools, one per program combination seen so far.
    pools: RwLock<HashMap<ProgramKey, Arc<ReplicaPool>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Service({})", self.interface)
    }
}

impl Engine {
    /// Registers a service. `presentation` is the server's half of every
    /// combination; `factory` wires work functions onto each replica and
    /// must capture only `Arc`'d shared state.
    pub fn register_service(
        &self,
        name: &str,
        module: Module,
        interface: &str,
        presentation: InterfacePresentation,
        format: WireFormat,
        factory: impl Fn(&mut ServerInterface) + Send + Sync + 'static,
    ) -> Result<(), EngineError> {
        let iface = module.interface(interface).ok_or_else(|| {
            EngineError::Compile(CoreError::Unresolved {
                kind: "interface",
                name: interface.into(),
            })
        })?;
        let signature = flexrpc_core::sig::WireSignature::of_interface(&module, iface)
            .map_err(EngineError::Compile)?
            .hash();
        let service = Arc::new(Service {
            module: module.clone(),
            interface: interface.to_owned(),
            presentation_fingerprint: presentation.fingerprint(),
            presentation,
            signature,
            format,
            factory: Box::new(factory),
            pools: RwLock::new(HashMap::new()),
        });
        let mut services = self.services.write();
        if services.contains_key(name) {
            return Err(EngineError::DuplicateService(name.to_owned()));
        }
        services.insert(name.to_owned(), service);
        Ok(())
    }

    pub(crate) fn service(&self, name: &str) -> Result<Arc<Service>, EngineError> {
        self.services
            .read()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| EngineError::UnknownService(name.to_owned()))
    }

    /// Resolves (or lazily builds) the replica pool for one combination,
    /// and reports whether *this* call compiled its program. The
    /// compilation goes through the shared
    /// [`ProgramCache`](crate::cache::ProgramCache): the first
    /// bind of a combination compiles, every later one reuses, and each
    /// call here counts exactly one cache hit or one miss — a repeat bind
    /// is one map lookup and the hit counted for it.
    pub(crate) fn pool_for(
        &self,
        service: &Service,
        client: ClientInfo,
    ) -> Result<(Arc<ReplicaPool>, bool), EngineError> {
        let key = ProgramKey {
            signature: service.signature,
            server_presentation: service.presentation_fingerprint,
            client_presentation: client.presentation,
            server_trust: service.presentation.trust,
            client_trust: client.trust,
            format: service.format,
        };
        if let Some(pool) = service.pools.read().get(&key) {
            // The pool holds the program the cache would have returned.
            self.cache.count_hit();
            return Ok((Arc::clone(pool), false));
        }
        let mut pools = service.pools.write();
        // Double-check: a racing first bind may have built it meanwhile.
        if let Some(pool) = pools.get(&key) {
            self.cache.count_hit();
            return Ok((Arc::clone(pool), false));
        }
        let (compiled, compiled_here) = self
            .cache
            .lookup(key, || {
                let iface = service
                    .module
                    .interface(&service.interface)
                    .expect("validated at registration");
                CompiledInterface::compile(&service.module, iface, &service.presentation)
            })
            .map_err(EngineError::Compile)?;
        let replicas: Vec<Mutex<Replica>> = (0..self.workers_n)
            .map(|_| {
                let mut server = ServerInterface::new_shared(Arc::clone(&compiled), service.format);
                (service.factory)(&mut server);
                // All replicas share the engine's one reply cache: a retry
                // may land on a different replica than the original.
                if let Some(cache) = &self.reply_cache {
                    server.set_reply_cache(Arc::clone(cache));
                }
                Mutex::new(Replica {
                    server,
                    served: self.counters.calls_served.stripe(),
                    bytes_in: self.counters.bytes_in.stripe(),
                    bytes_out: self.counters.bytes_out.stripe(),
                    errors: self.counters.dispatch_errors.stripe(),
                    inline: self.counters.inline_calls.stripe(),
                    dwell_ns: self.counters.dwell_ns.stripe(),
                })
            })
            .collect();
        let pool = Arc::new(ReplicaPool {
            server_shapes: compiled.ops.iter().map(|o| o.call_shape).collect(),
            declared_shapes: OnceLock::new(),
            compiled,
            replicas,
            starved: sync::Mutex::new(()),
            freed: Condvar::new(),
            starving: AtomicUsize::new(0),
        });
        pools.insert(key, Arc::clone(&pool));
        Ok((pool, compiled_here))
    }

    /// Begins opening a same-domain connection to a service; finish with
    /// [`ConnectBuilder::establish`]. The resulting connection implements
    /// [`Transport`](flexrpc_runtime::Transport), so a
    /// [`ClientStub`](flexrpc_runtime::ClientStub) plugs straight in.
    pub fn connect<'p>(self: &Arc<Self>, service_name: &str) -> ConnectBuilder<'p> {
        ConnectBuilder {
            service: self.service(service_name),
            engine: Arc::clone(self),
            client: None,
            declared: None,
            options: CallOptions::default(),
            tenant: TenantId::DEFAULT,
        }
    }

    /// One bind, as [`ConnectBuilder::establish`] and
    /// [`EngineConnection::rebind`] both run it: resolve the combination's
    /// pool (compiling on first use), settle the shape table, and — on a
    /// traced connection — record the [`Stage::Bind`] span, plus
    /// [`Stage::Specialize`] when this bind, not a concurrent one, compiled.
    /// The caller adds the tenant's policy once the bind has succeeded.
    pub(super) fn bind(
        &self,
        service: &Service,
        client: ClientInfo,
        declared: Option<&InterfacePresentation>,
        trace: Option<&SharedCallTrace>,
    ) -> Result<(Arc<ReplicaPool>, Arc<[CallShape]>), EngineError> {
        let bind_call = trace.map(|t| t.begin_call());
        let bind_start = self.clock.now_ns();
        let (pool, compiled) = self.pool_for(service, client)?;
        let shapes = pool.shapes_for(declared)?;
        if let (Some(t), Some(call)) = (trace, bind_call) {
            let now = self.clock.now_ns();
            t.record(call, Stage::Bind, bind_start, now, u64::from(compiled));
            if compiled {
                t.record(call, Stage::Specialize, bind_start, now, 1);
            }
        }
        Ok((pool, shapes))
    }
}

/// In-progress [`Engine::connect`]: optionally override the client half of
/// the combination, pick the tenant the connection submits as, and attach
/// per-connection [`CallOptions`], then
/// [`establish`](ConnectBuilder::establish).
#[derive(Debug)]
pub struct ConnectBuilder<'p> {
    engine: Arc<Engine>,
    /// The service, resolved once by [`Engine::connect`]; an unknown name
    /// surfaces from [`ConnectBuilder::establish`].
    service: Result<Arc<Service>, EngineError>,
    client: Option<ClientInfo>,
    /// The client's full presentation, when it declared one — the client
    /// half of bind-time shape negotiation. Always the presentation
    /// `client` was taken from.
    declared: Option<&'p InterfacePresentation>,
    options: CallOptions,
    tenant: TenantId,
}

impl<'p> ConnectBuilder<'p> {
    /// The client's half of the program combination, by fingerprint and
    /// trust alone: the client declares no call shapes and accepts the
    /// server's (replacing any presentation declared earlier on this
    /// builder). Defaults to the service's own presentation (a
    /// same-presentation binding).
    pub fn client(mut self, client: ClientInfo) -> ConnectBuilder<'p> {
        self.client = Some(client);
        self.declared = None;
        self
    }

    /// Declares the client's full presentation: sets the combination's
    /// client half *and* submits its per-operation call shapes (`[oneway]`,
    /// `[stream(N)]`) for bind-time negotiation. Establishment fails with
    /// [`EngineError::ShapeMismatch`] if the two ends disagree on any
    /// operation's shape or the client names an operation the service does
    /// not have; stream windows settle to the minimum of the two
    /// declarations ([`negotiate_call_shape`]).
    pub fn client_presentation(mut self, pres: &'p InterfacePresentation) -> ConnectBuilder<'p> {
        self.client = Some(ClientInfo::of(pres));
        self.declared = Some(pres);
        self
    }

    /// Per-connection call options: the deadline applies to every call
    /// made through the connection (a call-level deadline overrides it),
    /// and tracing records the connection's server-side spans. Retries are
    /// licensed and run by the stub above the transport
    /// ([`ClientStub::call_with`](flexrpc_runtime::ClientStub::call_with)).
    pub fn options(mut self, options: CallOptions) -> ConnectBuilder<'p> {
        self.options = options;
        self
    }

    /// The tenant this connection submits as: every call is scheduled on
    /// that tenant's weighted-fair lane under its quota. Defaults to the
    /// anonymous tenant (id 0), which preserves single-queue behavior.
    pub fn tenant(mut self, tenant: TenantId) -> ConnectBuilder<'p> {
        self.tenant = tenant;
        self
    }

    /// Resolves the combination (compiling its program on first use) and
    /// opens the connection. When the options asked for tracing
    /// ([`CallOptions::traced`]), the connection carries a
    /// [`SharedCallTrace`] on the engine clock: establishment records a
    /// [`Stage::Bind`] span (plus [`Stage::Specialize`] when this
    /// combination compiled rather than hit the program cache), and every
    /// later call records its queue-dwell and dispatch spans into it.
    ///
    /// The tenant's policy handle and metric cells are resolved here, once
    /// (materialising an unseen tenant under the neutral policy): both
    /// are stable for the tenant's lifetime, so calls on the connection
    /// never consult the plane's map, yet see every later policy swap.
    pub fn establish(self) -> Result<EngineConnection, EngineError> {
        let service = self.service?;
        let trace = self.options.is_traced().then(|| {
            SharedCallTrace::sim(
                flexrpc_runtime::DEFAULT_TRACE_CAPACITY,
                Arc::clone(&self.engine.clock),
            )
        });
        let client = self.client.unwrap_or(ClientInfo {
            presentation: service.presentation_fingerprint,
            trust: service.presentation.trust,
        });
        let (pool, shapes) = self.engine.bind(&service, client, self.declared, trace.as_ref())?;
        let tenant = self.engine.control.resolve(self.tenant);
        let binding = Binding { pool, shapes, policy: tenant.handle.cached() };
        self.engine.counters.connections.inc();
        static NEXT_CONN: AtomicU64 = AtomicU64::new(1);
        let id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
        Ok(EngineConnection {
            tenant,
            home: (id % self.engine.workers_n as u64) as usize,
            engine: self.engine,
            service,
            bind: RwLock::new(binding),
            options: self.options,
            trace,
        })
    }
}

/// Reconciles a declared client presentation's per-operation call shapes
/// with the server's compiled declarations, into a table indexed by
/// operation ordinal. Every server operation has an entry — one the client
/// did not list keeps the server's shape — and an operation the client
/// lists but the service lacks fails here: incompatible contracts fail at
/// bind, not at call.
fn negotiate_shapes(
    compiled: &CompiledInterface,
    client: &InterfacePresentation,
) -> Result<Arc<[CallShape]>, EngineError> {
    let mut table: Vec<CallShape> = compiled.ops.iter().map(|o| o.call_shape).collect();
    for (name, op) in &client.ops {
        let Some(op_index) = compiled.op_index(name) else {
            return Err(EngineError::ShapeMismatch(ShapeMisuse::Undeclared(name.clone())));
        };
        let (client, server) = (op.call_shape, table[op_index]);
        table[op_index] = negotiate_call_shape(client, server).ok_or(
            EngineError::ShapeMismatch(ShapeMisuse::Mismatch { op: op_index, client, server }),
        )?;
    }
    Ok(table.into())
}

impl ReplicaPool {
    /// The call shapes a bind to this pool settles on, by operation
    /// ordinal — shape negotiation is part of the bind, not of any call.
    /// With a declared client presentation the two ends' declarations are
    /// reconciled (once per combination, then shared); without one the
    /// client accepts the server's, the same-presentation binding the
    /// default client half already implies.
    fn shapes_for(
        &self,
        declared: Option<&InterfacePresentation>,
    ) -> Result<Arc<[CallShape]>, EngineError> {
        let Some(client) = declared else {
            return Ok(Arc::clone(&self.server_shapes));
        };
        if let Some(table) = self.declared_shapes.get() {
            return Ok(Arc::clone(table));
        }
        let table = negotiate_shapes(&self.compiled, client)?;
        Ok(Arc::clone(self.declared_shapes.get_or_init(|| table)))
    }
}

/// The live half of a connection that [`EngineConnection::rebind`] swaps:
/// the replica pool (combination), the shapes settled against it, and the
/// connection's copy of its tenant's policy.
pub(super) struct Binding {
    pub(super) pool: Arc<ReplicaPool>,
    /// Call shapes settled at bind (or rebind) time, indexed by operation
    /// ordinal in the pool's compiled interface and shared with every
    /// other connection bound the same way. Stream windows here are the
    /// *negotiated* minima, not either end's declaration.
    pub(super) shapes: Arc<[CallShape]>,
    /// The tenant's policy as of the last check: a submit validates it by
    /// version under the read guard it takes for `pool`, and refreshes it
    /// under the write guard only after a swap; `call_with(&mut self)`
    /// refreshes it in place. A rebind starts from the current policy.
    pub(super) policy: CachedPolicy,
}
