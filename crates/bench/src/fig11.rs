//! Figure 11 — same-domain RPC with one 1 KB `out` parameter: allocation
//! semantics (server-allocates / client-allocates / flexible).
//!
//! Bar groups are the endpoints' requirements: does the client want the
//! data at a particular address of its own, and does the server's data
//! already live in its own long-lived storage. Bars: the CORBA/COM fixed
//! system ("server allocates, client consumes"), the MIG-style fixed
//! system ("client allocates, server fills"), and flexible presentation.
//! Fixed systems pay hand-written glue where their one semantics mismatches
//! an endpoint; glue time is part of each bar, counted separately.

use flexrpc_core::annot::apply_pdl;
use flexrpc_core::annot::{Attr, OpAnnot, ParamAnnot, PdlFile};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::samedomain::{SameDomain, SdSnapshot};
use flexrpc_runtime::ServerInterface;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The parameter size the paper uses.
pub const PARAM_SIZE: usize = 1024;

/// The three compared systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// "Server allocates, client consumes" — CORBA/COM move semantics.
    FixedServerAlloc,
    /// "Client allocates, server fills" — MIG-style semantics.
    FixedClientAlloc,
    /// Flexible presentation: allocation matched at bind time.
    Flexible,
}

impl System {
    /// All systems, figure bar order.
    pub const ALL: [System; 3] =
        [System::FixedServerAlloc, System::FixedClientAlloc, System::Flexible];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            System::FixedServerAlloc => "fixed-server-alloc",
            System::FixedClientAlloc => "fixed-client-alloc",
            System::Flexible => "flexible",
        }
    }
}

/// One bar group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// The client wants the data in a buffer it already owns.
    pub client_wants_own: bool,
    /// The server's data already lives in its own storage.
    pub server_has_own: bool,
}

impl Group {
    /// The figure's four groups, left to right: no constraints, server
    /// provides, client provides, both insist.
    pub const ALL: [Group; 4] = [
        Group { client_wants_own: false, server_has_own: false },
        Group { client_wants_own: false, server_has_own: true },
        Group { client_wants_own: true, server_has_own: false },
        Group { client_wants_own: true, server_has_own: true },
    ];

    /// Report label.
    pub fn label(self) -> String {
        format!(
            "client-{}/server-{}",
            if self.client_wants_own { "own-buffer" } else { "any-buffer" },
            if self.server_has_own { "stored" } else { "generates" }
        )
    }
}

fn read_pdl(attrs: Vec<Attr>) -> PdlFile {
    PdlFile {
        interface: Some("FileIO".into()),
        iface_attrs: vec![],
        types: vec![],
        ops: vec![OpAnnot {
            op: "read".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "return".into(), attrs }],
        }],
    }
}

/// `read`'s operation index in FileIO.
const READ: usize = 0;

/// A ready-to-call scenario.
pub struct Runner {
    sd: SameDomain,
    frame: Vec<Value>,
    size: usize,
    system: System,
    group: Group,
    /// The buffer the client actually wants filled (its "own" buffer).
    client_buf: Vec<u8>,
    /// Glue copies performed by hand-written client adaptation code.
    pub client_glue_copies: Arc<AtomicU64>,
    /// Glue copies performed by hand-written server adaptation code.
    pub server_glue_copies: Arc<AtomicU64>,
}

impl Runner {
    /// Builds `(system, group)` with a `size`-byte out parameter.
    pub fn new(system: System, group: Group, size: usize) -> Runner {
        let m = fileio_module();
        let iface = m.interface("FileIO").expect("FileIO");
        let base = InterfacePresentation::default_for(&m, iface).expect("defaults");

        // Client presentation: under MIG semantics the client always
        // presents a buffer; under flexible it does so exactly when it has
        // one.
        let client = match system {
            System::FixedClientAlloc => {
                apply_pdl(&m, iface, &base, &read_pdl(vec![Attr::AllocCaller])).expect("applies")
            }
            System::Flexible if group.client_wants_own => {
                apply_pdl(&m, iface, &base, &read_pdl(vec![Attr::AllocCaller])).expect("applies")
            }
            _ => base.clone(),
        };
        // Server presentation: under flexible, a server whose data lives in
        // its own storage declares [dealloc(never)].
        let server = match system {
            System::Flexible if group.server_has_own => {
                apply_pdl(&m, iface, &base, &read_pdl(vec![Attr::DeallocNever])).expect("applies")
            }
            _ => base.clone(),
        };

        let server_glue_copies = Arc::new(AtomicU64::new(0));
        let sg = Arc::clone(&server_glue_copies);
        let storage: Arc<[u8]> = (0..size).map(|i| (i % 251) as u8).collect::<Vec<u8>>().into();
        let has_own = group.server_has_own;
        let flexible = system == System::Flexible;
        let register = move |srv: &mut ServerInterface| {
            let (sg, storage) = (Arc::clone(&sg), Arc::clone(&storage));
            srv.on("read", move |call| {
                match (has_own, flexible) {
                    (true, true) => {
                        // Flexible: lend (or let the stub copy if it must).
                        call.provide_out("return", &storage).expect("provide");
                    }
                    (true, false) => {
                        // Fixed semantics force the server to re-buffer its
                        // stored data by hand: one glue copy.
                        sg.fetch_add(1, Ordering::Relaxed);
                        call.out_fill("return", |b| b.extend_from_slice(&storage)).expect("fill");
                    }
                    (false, _) => {
                        // Data produced on demand, straight into whatever
                        // buffer the binding provides (a bulk fill, so the
                        // measured differences are copy/alloc semantics,
                        // not generator arithmetic).
                        call.out_fill("return", |b| b.resize(size, 0xAB)).expect("fill");
                    }
                }
                0
            })
            .expect("registers");
        };

        let sd = SameDomain::bind(&m, iface, &client, &server, register).expect("binds");
        let compiled = CompiledInterface::compile(&m, iface, &client).expect("compiles");
        let frame = compiled.ops[READ].slots.new_frame();
        Runner {
            sd,
            frame,
            size,
            system,
            group,
            client_buf: Vec::with_capacity(size),
            client_glue_copies: Arc::new(AtomicU64::new(0)),
            server_glue_copies,
        }
    }

    /// One RPC, including any client-side glue the fixed system forces.
    pub fn call(&mut self) {
        self.frame[0] = Value::U32(self.size as u32);
        // Under caller-allocates semantics the client presents a buffer.
        let caller_presents = match self.system {
            System::FixedClientAlloc => true,
            System::Flexible => self.group.client_wants_own,
            System::FixedServerAlloc => false,
        };
        // A client that genuinely wants the data at its own address has a
        // long-lived buffer to reuse; a client forced by MIG-style fixed
        // semantics to supply a buffer it never wanted allocates a fresh
        // one per call and frees it afterwards (the "cheap" allocation in
        // the cost model).
        let reusable = self.group.client_wants_own;
        if caller_presents {
            let buf = if reusable {
                std::mem::take(&mut self.client_buf)
            } else {
                Vec::with_capacity(self.size)
            };
            self.frame[1] = Value::Bytes(buf);
        } else {
            self.frame[1] = Value::Null;
        }
        let status = self.sd.call_index(READ, &mut self.frame).expect("call succeeds");
        debug_assert_eq!(status, 0);

        match std::mem::take(&mut self.frame[1]) {
            Value::Bytes(b) => {
                if caller_presents && reusable {
                    // The client's buffer came back filled.
                    self.client_buf = b;
                } else if caller_presents {
                    // Forced throwaway buffer: consume and free.
                    black_box(&b);
                } else if self.group.client_wants_own {
                    // CORBA semantics donated a buffer, but the client
                    // wanted the data in its own: hand-written glue copies
                    // and frees the donation.
                    self.client_glue_copies.fetch_add(1, Ordering::Relaxed);
                    self.client_buf.clear();
                    self.client_buf.extend_from_slice(&b);
                    drop(b);
                } else {
                    // Donated buffer is fine as-is; consume it.
                    black_box(&b);
                }
            }
            Value::Shared(s) => {
                // Flexible lent the server's storage.
                debug_assert!(!self.group.client_wants_own);
                black_box(&s[..]);
            }
            other => panic!("unexpected out value {other:?}"),
        }
        black_box(&self.client_buf);
    }

    /// Stub copy counters.
    pub fn stub_stats(&self) -> SdSnapshot {
        self.sd.stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cells_run_and_deliver_data() {
        for system in System::ALL {
            for group in Group::ALL {
                let mut r = Runner::new(system, group, 128);
                r.call();
                r.call();
                if group.client_wants_own {
                    assert_eq!(r.client_buf.len(), 128, "{system:?} {group:?}");
                    let expect = if group.server_has_own { 1 } else { 0xAB };
                    assert_eq!(r.client_buf[1], expect);
                }
            }
        }
    }

    #[test]
    fn glue_only_under_mismatched_fixed_semantics() {
        for group in Group::ALL {
            for system in System::ALL {
                let mut r = Runner::new(system, group, 128);
                r.call();
                let client_glue = r.client_glue_copies.load(Ordering::Relaxed);
                let server_glue = r.server_glue_copies.load(Ordering::Relaxed);
                if system == System::Flexible {
                    assert_eq!(
                        (client_glue, server_glue),
                        (0, 0),
                        "flexible never needs glue: {group:?}"
                    );
                }
                // Glue appears exactly where the cost model predicts.
                let expect = match system {
                    System::FixedServerAlloc => flexrpc_core::compat::out_fixed_costs(
                        flexrpc_core::compat::OutFixedSystem::ServerAllocates,
                        group.client_wants_own,
                        group.server_has_own,
                    ),
                    System::FixedClientAlloc => flexrpc_core::compat::out_fixed_costs(
                        flexrpc_core::compat::OutFixedSystem::ClientAllocates,
                        group.client_wants_own,
                        group.server_has_own,
                    ),
                    System::Flexible => flexrpc_core::compat::out_flexible_costs(
                        group.client_wants_own,
                        group.server_has_own,
                    ),
                };
                assert_eq!(
                    (client_glue as u32, server_glue as u32),
                    (expect.client_glue_copies, expect.server_glue_copies),
                    "{system:?} {group:?}"
                );
            }
        }
    }

    #[test]
    fn flexible_total_copies_never_exceed_fixed() {
        for group in Group::ALL {
            let mut totals = Vec::new();
            for system in System::ALL {
                let mut r = Runner::new(system, group, 256);
                r.call();
                let stub = r.stub_stats().stub_copies;
                let glue = r.client_glue_copies.load(Ordering::Relaxed)
                    + r.server_glue_copies.load(Ordering::Relaxed);
                totals.push(stub + glue);
            }
            let flexible = totals[2];
            assert!(
                flexible <= totals[0] && flexible <= totals[1],
                "{group:?}: flexible={flexible}, fixed={totals:?}"
            );
        }
    }
}
