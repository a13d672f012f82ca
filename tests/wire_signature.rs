//! The wire signature's value is a contract: it crosses the kernel IPC
//! check and byte-identical traces record it. `of_interface` hashes the
//! canonical form as it produces it; the oracle (`canonical`, the string it
//! used to build) says what those bytes are, and the golden values say the
//! hash never moves.

#[path = "../crates/core/tests/canonical/mod.rs"]
mod canonical;

use flexrpc_core::ir::{fileio_example, syslog_example, Module};
use flexrpc_core::sig::{fnv1a, WireSignature};

/// `(module, interface, hash)`, each read at the parent of the streamed
/// signature, where it was `fnv1a` of a built `String`.
fn pinned() -> [(Module, &'static str, u64); 3] {
    [
        (fileio_example(), "FileIO", 0x9300_d8ec_3ea5_9f40),
        (syslog_example(), "SysLog", 0xa830_2489_752f_0edb),
        (flexrpc_nfs::nfs_module(), "NFS_VERSION", 0x33eb_1d55_5694_72e6),
    ]
}

#[test]
fn the_streamed_signature_is_the_hash_of_its_canonical_form() {
    for (module, name, _) in pinned() {
        let iface = module.interface(name).expect("interface exists");
        let sig = WireSignature::of_interface(&module, iface).expect("signs");
        assert_eq!(sig.hash(), fnv1a(canonical::canonical(&module, iface).as_bytes()), "{name}");
    }
}

#[test]
fn pinned_signatures_do_not_move() {
    for (module, name, golden) in pinned() {
        let iface = module.interface(name).expect("interface exists");
        let sig = WireSignature::of_interface(&module, iface).expect("signs");
        assert_eq!(sig.hash(), golden, "{name}: {sig}");
    }
}
