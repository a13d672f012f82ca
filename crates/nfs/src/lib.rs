//! The Figure 2 system: an NFS read path over Sun RPC on the simulated
//! Ethernet, with the Linux-client presentation experiment.
//!
//! §4.1 of the paper: monolithic kernels hand-write their NFS client stubs
//! partly so read data can be marshalled *directly to the user's address
//! space* with the kernel's `copyin`/`copyout` routines, instead of landing
//! in a kernel staging buffer first. The `[special]` presentation attribute
//! lets a generated stub do the same thing: the programmer supplies the
//! marshal routine for one parameter, the stub compiler generates the rest.
//!
//! Four client variants reproduce the figure's four bars:
//!
//! | variant | stub | `data` unmarshal |
//! |---|---|---|
//! | conventional-generated | stub programs | kernel buffer, then `copyout` |
//! | conventional-hand | hand-written XDR | kernel buffer, then `copyout` |
//! | special-generated | stub programs + `[special]` hook | `copyout` straight from the wire |
//! | special-hand | hand-written XDR | `copyout` straight from the wire |
//!
//! The interface comes from an actual rpcgen-style `.x` file ([`NFS_X`]);
//! the special presentation from the paper's Figure 1 PDL ([`FIG1_PDL`]).

pub mod client;
pub mod server;

use flexrpc_core::ir::Module;

/// NFS protocol constants.
pub const NFS_PROGRAM: u32 = 100003;
/// NFS protocol version.
pub const NFS_VERSION: u32 = 2;
/// Procedure number of `NFSPROC_READ`.
pub const NFSPROC_READ: u32 = 6;
/// File-handle size.
pub const FHSIZE: usize = 32;
/// Maximum bytes per read (the v2 limit the paper's 8K chunks ride).
pub const MAXDATA: usize = 8192;

/// The protocol definition, in classic rpcgen `.x` style (with the
/// documented directional-parameter extension for the read results).
pub const NFS_X: &str = r#"
const FHSIZE = 32;
const MAXDATA = 8192;

enum nfsstat {
    NFS_OK = 0,
    NFSERR_PERM = 1,
    NFSERR_NOENT = 2,
    NFSERR_IO = 5,
    NFSERR_STALE = 70
};

typedef opaque nfs_fh[FHSIZE];

struct fattr {
    unsigned int ftype;
    unsigned int mode;
    unsigned int nlink;
    unsigned int uid;
    unsigned int gid;
    unsigned int size;
    unsigned int blocksize;
    unsigned int blocks;
    unsigned int mtime;
};

struct sattr {
    unsigned int mode;
    unsigned int uid;
    unsigned int gid;
    unsigned int size;
    unsigned int mtime;
};

program NFS_PROGRAM {
    version NFS_VERSION {
        void NFSPROC_NULL(void) = 0;
        void NFSPROC_GETATTR(nfs_fh file, out fattr attributes) = 1;
        void NFSPROC_SETATTR(nfs_fh file, sattr attributes,
                             out fattr new_attributes) = 2;
        void NFSPROC_LOOKUP(nfs_fh dir, string name<255>,
                            out nfs_fh file, out fattr attributes) = 4;
        void NFSPROC_READ(nfs_fh file, unsigned int offset, unsigned int count,
                          unsigned int totalcount,
                          out opaque data<>, out fattr attributes) = 6;
        void NFSPROC_WRITE(nfs_fh file, unsigned int beginoffset,
                           unsigned int offset, unsigned int totalcount,
                           opaque data<MAXDATA>, out fattr attributes) = 8;
        void NFSPROC_CREATE(nfs_fh dir, string name<255>, sattr attributes,
                            out nfs_fh file, out fattr new_attributes) = 9;
        void NFSPROC_REMOVE(nfs_fh dir, string name<255>) = 10;
    } = 2;
} = 100003;
"#;

/// The paper's Figure 1 PDL, verbatim: `[comm_status]` on the operation and
/// `[special]` on the data parameter. (The other re-declared parameters
/// carry no attributes — they exist "for convenience reasons, not
/// performance", and parse as prototype sugar.)
pub const FIG1_PDL: &str = r#"
[comm_status] int nfsproc_read(, nfs_fh *file,
    unsigned offset, unsigned count, unsigned totalcount,
    [special] user_data *data, fattr *attributes, nfsstat *status);
"#;

/// NFS status codes used by the reproduction.
pub const NFS_OK: u32 = 0;
/// Stale file handle.
pub const NFSERR_STALE: u32 = 70;
/// Generic I/O error.
pub const NFSERR_IO: u32 = 5;
/// No such file or directory.
pub const NFSERR_NOENT: u32 = 2;
/// File exists.
pub const NFSERR_EXIST: u32 = 17;

/// Parses [`NFS_X`] into a validated module.
pub fn nfs_module() -> Module {
    flexrpc_idl::sunrpc::parse("nfs", NFS_X).expect("NFS_X parses")
}

/// File attributes carried in every read reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fattr {
    /// File type (1 = regular).
    pub ftype: u32,
    /// Permission bits.
    pub mode: u32,
    /// Link count.
    pub nlink: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// File size in bytes.
    pub size: u32,
    /// Preferred I/O size.
    pub blocksize: u32,
    /// Allocated blocks.
    pub blocks: u32,
    /// Modification time (seconds).
    pub mtime: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_parses_with_expected_numbers() {
        let m = nfs_module();
        let iface = &m.interfaces[0];
        assert_eq!(iface.program, Some(NFS_PROGRAM));
        assert_eq!(iface.version, Some(NFS_VERSION));
        let read = iface.op("NFSPROC_READ").unwrap();
        assert_eq!(read.opnum, Some(NFSPROC_READ));
        assert_eq!(read.params.len(), 6);
        assert_eq!(iface.ops.len(), 8, "the v2 procedure subset");
        assert_eq!(iface.op("NFSPROC_LOOKUP").unwrap().opnum, Some(4));
        assert_eq!(iface.op("NFSPROC_WRITE").unwrap().opnum, Some(8));
    }

    #[test]
    fn fig1_pdl_parses_and_applies() {
        use flexrpc_core::annot::apply_pdl;
        use flexrpc_core::present::{AllocSemantics, InterfacePresentation};
        let m = nfs_module();
        let iface = &m.interfaces[0];
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let pdl = flexrpc_idl::pdl::parse(FIG1_PDL).unwrap();
        let pres = apply_pdl(&m, iface, &base, &pdl).unwrap();
        let read = pres.op("NFSPROC_READ").unwrap();
        assert!(read.comm_status);
        // `data` is params[4]; the special attribute landed there and
        // turned its client-side allocation into the hook path.
        assert!(read.params[4].special);
        assert_eq!(read.params[4].alloc, AllocSemantics::Special);
        // The unannotated re-declared params changed nothing.
        assert!(!read.params[0].special);
    }
}
