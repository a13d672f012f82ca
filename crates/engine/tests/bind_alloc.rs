//! Allocation audit for the bind path: what `bind_churn` does per cycle —
//! parse, `default_for`, `apply_pdl`, compile, establish, drop — and what a
//! live `rebind` does.
//!
//! Bind is the recovery path (supervisor failover, `rebind`, every restart
//! wave of the cluster sim), so a *repeat* bind of a combination the engine
//! already knows must be a lookup, not a rebuild: the fingerprint hashes
//! the structure in place, the negotiated shape table is shared off the
//! combination's replica pool, the connection holds its resolved service.
//! The front half of a bind — text to compiled program — allocates what
//! the `Module`, the PDL AST and the `CompiledInterface` keep, and the
//! budgets below pin that count exactly, each beside the figure the same
//! audit read before the bind path stopped formatting, re-deriving and
//! re-allocating.
//!
//! Counted per thread (the runtime crate's `tests/counting_alloc`),
//! in debug and again in `--release` by `scripts/ci.sh`: the benchmark
//! counts `allocs_per_op` in the release profile.

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::counted;
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::sig::WireSignature;
use flexrpc_engine::{Engine, EngineConnection};
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::FILEIO_IDL;
use std::sync::Arc;

/// The benchmark's one-line client PDL (`bind_churn`'s first).
const ONE_LINE_PDL: &str = "[comm_status] sequence<octet> FileIO_read(unsigned long count);";

// Budgets, each beside what this same audit read at the parent commit
// (5038b28, debug and release alike).
/// `InterfacePresentation::fingerprint`. Parent: 7 — it rendered a `String`.
const FINGERPRINT: u64 = 0;
/// Warm `connect(..).client_presentation(..).establish()` and the drop of
/// the connection. Parent: 14.
const WARM_ESTABLISH_AND_DROP: u64 = 0;
/// Warm `rebind` to a combination the engine has seen. Parent: 13.
const WARM_REBIND: u64 = 0;
/// `corba::parse("fileio", FILEIO_IDL)`: the token vector and the twelve
/// pieces of the `Module` (`validate` scans its short lists and builds no
/// set). Parent: 48.
const CORBA_PARSE_FILEIO: u64 = 13;
/// `pdl::parse(ONE_LINE_PDL)`: the token vector and the three pieces of
/// the `PdlFile`. Parent: 19.
const PDL_PARSE_ONE_LINE: u64 = 4;
/// `CompiledInterface::compile` of FileIO under that PDL (it validates
/// again, and again builds no set): the `CompiledInterface`'s name and op
/// vector, and per operation its name, slot vector and slot-name buffer —
/// its eight programs, of one or two ops each, are values. Parent: 38
/// (77 before that).
const COMPILE_FILEIO: u64 = 8;
/// `CompiledInterface::compile` of the NFS interface under its default
/// presentation: eight operations whose programs run past two ops and
/// whose `fattr` / `sattr` structs make blocks of two or more scalars —
/// the heap path. Parent: 281.
const COMPILE_NFS: u64 = 152;
/// `WireSignature::of_interface`, on FileIO and on NFS: it hashes the
/// canonical form as it produces it. Parent: 1 — it built the `String`.
const SIGNATURE: u64 = 0;
/// `size_of::<EngineConnection>()`. Not an allocation *count* but the bytes
/// of one: a connection rides in the `Box<dyn Transport>` every bind
/// allocates, so each field added to it is `bind_churn`
/// `alloc_bytes_per_op`, whose bound is 1 % ≈ 97 B of the cycle's 9.1 KB.
/// The cached tenant policy (a version and an `Arc`) is 16 of these; a
/// cache of policy *fields* would be 144 more and fail the benchmark, so it
/// should fail here first. Parent: 176; 208 with a cached tenant and
/// engine policy; 200 since the retry policy inside its `CallOptions` lost
/// the backoff-cap word no caller ever set; 184 since the engine's policy
/// is fixed at build and the connection caches only its tenant's.
const CONNECTION_BYTES: usize = 184;

fn client_presentation(pdl_text: &str, trust: Trust) -> InterfacePresentation {
    let module = flexrpc_idl::corba::parse("fileio", FILEIO_IDL).unwrap();
    let iface = module.interface("FileIO").unwrap();
    let base = InterfacePresentation::default_for(&module, iface).unwrap();
    let pdl = flexrpc_idl::pdl::parse(pdl_text).unwrap();
    let mut pres = apply_pdl(&module, iface, &base, &pdl).unwrap();
    pres.trust = trust;
    pres
}

fn fileio_engine() -> Arc<Engine> {
    let module = flexrpc_idl::corba::parse("fileio", FILEIO_IDL).unwrap();
    let pres =
        InterfacePresentation::default_for(&module, module.interface("FileIO").unwrap()).unwrap();
    let engine = Engine::builder().workers(1).build();
    engine
        .register_service("fileio", module, "FileIO", pres, WireFormat::Cdr, |srv| {
            srv.on("read", |_| 0).unwrap();
            srv.on("write", |_| 0).unwrap();
        })
        .unwrap();
    engine
}

#[test]
fn a_fingerprint_allocates_nothing() {
    let pres = client_presentation(ONE_LINE_PDL, Trust::Leaky);
    let (allocs, fp) = counted(|| pres.fingerprint());
    assert_eq!(fp, pres.clone().fingerprint());
    assert_eq!(allocs, FINGERPRINT, "fingerprint() hashes in place");
}

#[test]
fn a_signature_allocates_nothing() {
    let fileio = flexrpc_idl::corba::parse("fileio", FILEIO_IDL).unwrap();
    let nfs = flexrpc_nfs::nfs_module();
    for (module, name) in [(&fileio, "FileIO"), (&nfs, "NFS_VERSION")] {
        let iface = module.interface(name).unwrap();
        let (allocs, sig) = counted(|| WireSignature::of_interface(module, iface).unwrap());
        assert_eq!(sig, WireSignature::of_interface(module, iface).unwrap());
        assert_eq!(allocs, SIGNATURE, "{name}: of_interface() hashes in place");
    }
}

#[test]
fn compiling_nfs_allocates_what_it_keeps() {
    let module = flexrpc_nfs::nfs_module();
    let iface = module.interface("NFS_VERSION").unwrap();
    let pres = InterfacePresentation::default_for(&module, iface).unwrap();
    let (allocs, compiled) = counted(|| CompiledInterface::compile(&module, iface, &pres).unwrap());
    assert_eq!(compiled.ops.len(), 8);
    assert_eq!(allocs, COMPILE_NFS, "compile(NFS) allocation count");
}

#[test]
fn a_connection_is_no_bigger_than_budgeted() {
    assert_eq!(size_of::<EngineConnection>(), CONNECTION_BYTES);
}

#[test]
fn a_warm_establish_is_a_lookup_and_a_connection_struct() {
    let engine = fileio_engine();
    let pres = client_presentation(ONE_LINE_PDL, Trust::Leaky);
    // First bind of the combination: compiles, builds the pool and the
    // negotiated shape table.
    drop(engine.connect("fileio").client_presentation(&pres).establish().unwrap());
    let (allocs, ()) = counted(|| {
        let conn = engine.connect("fileio").client_presentation(&pres).establish().unwrap();
        drop(conn);
    });
    assert_eq!(allocs, WARM_ESTABLISH_AND_DROP, "a repeat bind builds nothing");
    assert_eq!(engine.cache().compilations(), 1);
}

#[test]
fn a_warm_rebind_is_a_lookup_and_a_swap() {
    let engine = fileio_engine();
    let first = client_presentation(ONE_LINE_PDL, Trust::Leaky);
    let second = client_presentation(ONE_LINE_PDL, Trust::None);
    let conn = engine.connect("fileio").client_presentation(&first).establish().unwrap();
    conn.rebind(&second).unwrap();
    conn.rebind(&first).unwrap();
    let (allocs, ()) = counted(|| conn.rebind(&second).unwrap());
    assert_eq!(allocs, WARM_REBIND, "a repeat rebind builds nothing");
    assert_eq!(engine.cache().compilations(), 2);
}

#[test]
fn text_to_program_allocates_what_it_keeps() {
    let (parse_allocs, module) =
        counted(|| flexrpc_idl::corba::parse("fileio", FILEIO_IDL).unwrap());
    let (pdl_allocs, pdl) = counted(|| flexrpc_idl::pdl::parse(ONE_LINE_PDL).unwrap());
    let iface = module.interface("FileIO").unwrap();
    let base = InterfacePresentation::default_for(&module, iface).unwrap();
    let pres = apply_pdl(&module, iface, &base, &pdl).unwrap();
    let (compile_allocs, compiled) =
        counted(|| CompiledInterface::compile(&module, iface, &pres).unwrap());
    assert_eq!(compiled.ops.len(), 2);
    assert_eq!(
        (parse_allocs, pdl_allocs, compile_allocs),
        (CORBA_PARSE_FILEIO, PDL_PARSE_ONE_LINE, COMPILE_FILEIO),
        "(corba::parse, pdl::parse, compile) allocation counts"
    );
}
