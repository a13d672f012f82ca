//! Figure 10 — same-domain RPC with one 1 KB `in` parameter: copy vs
//! borrow vs flexible mutability semantics.
//!
//! Bar groups are the endpoints' *requirements*: does the client need its
//! buffer intact afterwards, and does the server modify what it receives.
//! Systems are the RPC semantics on offer: always-copy, always-borrow
//! (server copies by hand when it must modify — glue), and flexible
//! presentation (`[trashable]`/`[preserved]` negotiated at bind time).

use flexrpc_core::annot::apply_pdl;
use flexrpc_core::annot::{Attr, OpAnnot, ParamAnnot, PdlFile};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::samedomain::{SameDomain, SdSnapshot};
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{ClientStub, ServerInterface};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The parameter size the paper uses.
pub const PARAM_SIZE: usize = 1024;

/// The three compared RPC systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Fixed presentation, copy (pass-by-value) semantics.
    FixedCopy,
    /// Fixed presentation, borrow semantics (server glue copies to modify).
    FixedBorrow,
    /// Flexible presentation: semantics negotiated from both sides' PDLs.
    Flexible,
}

impl System {
    /// All systems, in the figure's left-to-right bar order.
    pub const ALL: [System; 3] = [System::FixedCopy, System::FixedBorrow, System::Flexible];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            System::FixedCopy => "fixed-copy",
            System::FixedBorrow => "fixed-borrow",
            System::Flexible => "flexible",
        }
    }
}

/// One bar group: the endpoints' actual requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// The client needs its buffer intact after the call.
    pub client_needs_buffer: bool,
    /// The server modifies the buffer in place while processing.
    pub server_modifies: bool,
}

impl Group {
    /// The figure's four groups.
    pub const ALL: [Group; 4] = [
        Group { client_needs_buffer: false, server_modifies: false },
        Group { client_needs_buffer: true, server_modifies: false },
        Group { client_needs_buffer: false, server_modifies: true },
        Group { client_needs_buffer: true, server_modifies: true },
    ];

    /// Report label.
    pub fn label(self) -> String {
        format!(
            "client-{}/server-{}",
            if self.client_needs_buffer { "keeps" } else { "discards" },
            if self.server_modifies { "modifies" } else { "reads" }
        )
    }
}

fn pdl_for(attrs: Vec<Attr>) -> PdlFile {
    PdlFile {
        interface: Some("FileIO".into()),
        iface_attrs: vec![],
        types: vec![],
        ops: vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "data".into(), attrs }],
        }],
    }
}

/// `write`'s operation index in FileIO.
const WRITE: usize = 1;

/// A ready-to-call scenario.
pub struct Runner {
    path: Path,
    frame: Vec<Value>,
    /// Buffer-sized copies hand-written server glue performed.
    pub glue_copies: Arc<AtomicU64>,
}

/// How a [`Runner`] reaches the one registered `write`.
enum Path {
    /// The negotiated same-domain call.
    Direct(SameDomain),
    /// The call the short circuit replaces: CDR over `Loopback`.
    Marshalled(ClientStub),
}

impl Runner {
    /// Builds `(system, group)` with `size`-byte parameters, called direct.
    pub fn new(system: System, group: Group, size: usize) -> Runner {
        Runner::build(system, group, size, false)
    }

    /// The same scenario, its `write` marshalled over `Loopback`.
    pub(crate) fn marshalled(system: System, group: Group, size: usize) -> Runner {
        Runner::build(system, group, size, true)
    }

    fn build(system: System, group: Group, size: usize, marshalled: bool) -> Runner {
        let m = fileio_module();
        let iface = m.interface("FileIO").expect("FileIO");
        let base = InterfacePresentation::default_for(&m, iface).expect("defaults");

        // Client-side PDL: under the flexible system the client declares
        // [trashable] when it does not need the buffer back; fixed systems
        // have nothing to declare.
        let client = match system {
            System::Flexible if !group.client_needs_buffer => {
                apply_pdl(&m, iface, &base, &pdl_for(vec![Attr::Trashable])).expect("applies")
            }
            _ => base.clone(),
        };
        // Server-side PDL: fixed-borrow systems *force* borrow semantics
        // (the server may never modify); the flexible server declares
        // [preserved] exactly when it will not modify.
        let server = match system {
            System::FixedBorrow => {
                apply_pdl(&m, iface, &base, &pdl_for(vec![Attr::Preserved])).expect("applies")
            }
            System::Flexible if !group.server_modifies => {
                apply_pdl(&m, iface, &base, &pdl_for(vec![Attr::Preserved])).expect("applies")
            }
            _ => base.clone(),
        };

        let glue_copies = Arc::new(AtomicU64::new(0));
        let glue = Arc::clone(&glue_copies);
        let modifies = group.server_modifies;
        let fixed_borrow = system == System::FixedBorrow;
        let register = move |srv: &mut ServerInterface| {
            let glue = Arc::clone(&glue);
            srv.on("write", move |call| {
                if modifies {
                    if fixed_borrow {
                        // Borrow semantics forbid in-place modification: the
                        // server glue makes its own copy, then works on it.
                        let mut own = call.bytes("data").expect("data").to_vec();
                        glue.fetch_add(1, Ordering::Relaxed);
                        process_mut(&mut own);
                    } else {
                        let buf = call
                            .bytes_mut("data")
                            .expect("copy or trashable semantics allow modification");
                        process_mut(buf);
                    }
                } else {
                    process_ro(call.bytes("data").expect("data"));
                }
                0
            })
            .expect("registers");
        };

        let compiled = CompiledInterface::compile(&m, iface, &client).expect("compiles");
        let mut frame = compiled.ops[WRITE].slots.new_frame();
        frame[0] = Value::Bytes(vec![0x5A; size]);
        let path = if marshalled {
            let mut srv = ServerInterface::new(
                CompiledInterface::compile(&m, iface, &server).expect("compiles"),
                WireFormat::Cdr,
            );
            register(&mut srv);
            let server = Arc::new(Mutex::new(srv));
            Path::Marshalled(ClientStub::new(
                compiled,
                WireFormat::Cdr,
                Box::new(Loopback::new(server)),
            ))
        } else {
            Path::Direct(SameDomain::bind(&m, iface, &client, &server, register).expect("binds"))
        };
        Runner { path, frame, glue_copies }
    }

    /// One RPC.
    pub fn call(&mut self) {
        let status = match &mut self.path {
            Path::Direct(sd) => sd.call_index(WRITE, &mut self.frame),
            Path::Marshalled(stub) => stub.call_index(WRITE, &mut self.frame),
        };
        debug_assert_eq!(status, Ok(0));
    }

    /// Stub copy counters of a direct call. A marshalled call negotiates
    /// nothing: its copies are the marshal's, which these do not count.
    pub fn stub_stats(&self) -> SdSnapshot {
        match &self.path {
            Path::Direct(sd) => sd.stats().snapshot(),
            Path::Marshalled(_) => SdSnapshot::default(),
        }
    }
}

/// The server's "processing" when it modifies in place (constant across
/// systems so only copy semantics differ).
#[inline(never)]
fn process_mut(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = b.wrapping_add(1);
    }
    black_box(buf);
}

/// The server's read-only "processing".
#[inline(never)]
fn process_ro(buf: &[u8]) {
    let mut acc = 0u64;
    for &b in buf {
        acc = acc.wrapping_add(b as u64);
    }
    black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cells_run_direct_and_marshalled() {
        for build in [Runner::new, Runner::marshalled] {
            for system in System::ALL {
                for group in Group::ALL {
                    let mut r = build(system, group, 256);
                    r.call();
                    r.call();
                }
            }
        }
    }

    #[test]
    fn copy_schedule_matches_the_model() {
        for group in Group::ALL {
            for system in System::ALL {
                let mut r = Runner::new(system, group, 256);
                r.call();
                let stub_copies = r.stub_stats().stub_copies;
                let glue = r.glue_copies.load(Ordering::Relaxed);
                let expect = match system {
                    System::FixedCopy => flexrpc_core::compat::in_fixed_costs(
                        flexrpc_core::compat::InFixedSystem::AlwaysCopy,
                        group.server_modifies,
                    ),
                    System::FixedBorrow => flexrpc_core::compat::in_fixed_costs(
                        flexrpc_core::compat::InFixedSystem::AlwaysBorrow,
                        group.server_modifies,
                    ),
                    System::Flexible => flexrpc_core::compat::in_flexible_costs(
                        group.client_needs_buffer,
                        group.server_modifies,
                    ),
                };
                assert_eq!(
                    (stub_copies as u32, glue as u32),
                    (expect.stub_copies, expect.server_glue_copies),
                    "{system:?} {group:?}"
                );
            }
        }
    }

    #[test]
    fn client_buffer_integrity_where_promised() {
        // In every system/group where the client keeps its buffer, the
        // buffer must be intact after a modifying server ran.
        for system in System::ALL {
            let group = Group { client_needs_buffer: true, server_modifies: true };
            let mut r = Runner::new(system, group, 64);
            r.call();
            assert_eq!(
                r.frame[0].as_bytes().expect("bytes"),
                &[0x5A; 64][..],
                "{system:?}: client buffer must survive"
            );
        }
    }
}
