//! The pipe server: Unix pipe semantics provided over RPC (§4.2–4.3).
//!
//! The paper moves the pipe implementation out of the Unix server into a
//! separate task; readers and writers talk to it through `FileIO` RPCs.
//! It is "representative of a common model of communication: an
//! intermediate entity that performs a data transformation between two
//! parties", and it is where the `dealloc(never)` (Figure 6) and fbuf
//! `[special]` (Figure 7) presentations earn their keep.
//!
//! * [`circ`] — the circular pipe buffer with flow control.
//! * [`server`] — the pipe server as a [`flexrpc_runtime::ServerInterface`]
//!   over the `FileIO` interface, in default or `dealloc(never)` reply
//!   presentation (selected by an actual PDL file).
//! * [`ipc`] — the Figure 6 harness: reader/writer tasks moving data
//!   through the server over the streamlined kernel IPC path.
//! * [`fbuf`] — the Figure 7 path: the same server over fbufs, in standard
//!   (LRPC-like) or `[special]` (data stays in fbufs end-to-end)
//!   presentation.
//! * [`bsd`] — the monolithic baseline: an in-kernel single-domain pipe
//!   (one copyin + one copyout per byte), Figure 7's reference bar.

pub mod bsd;
pub mod circ;
pub mod fbuf;
pub mod ipc;
pub mod server;

/// Status code returned by `read`/`write` when the pipe cannot make
/// progress (buffer full on write, empty on read) — the RPC-level EAGAIN.
pub const WOULDBLOCK: u32 = 11;

/// The `FileIO` interface definition the pipe server implements, exactly as
/// the paper's Figure 3 writes it.
pub const FILEIO_IDL: &str = r#"
interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
};
"#;

/// The paper's Figure 5 PDL: the server keeps ownership of the buffer
/// returned by `read`, so the stub marshals straight out of the pipe buffer
/// and never deallocates.
pub const DEALLOC_NEVER_PDL: &str = r#"
typedef struct {
    unsigned long _maximum;
    unsigned long _length;
    [dealloc(never)] char *_buffer;
} CORBA_SEQUENCE_char;
"#;

/// Server-side PDL used by *all* server variants: the C mapping hands the
/// server `in`-sequences by reference into the request buffer, which is
/// what `[borrowed]` spells in our PDL.
pub(crate) const SERVER_WRITE_PDL: &str = "void FileIO_write(char *[borrowed] data);";

/// Parses [`FILEIO_IDL`] into a validated module.
pub fn fileio_module() -> flexrpc_core::ir::Module {
    flexrpc_idl::corba::parse("fileio", FILEIO_IDL).expect("FILEIO_IDL parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idl_matches_the_papers_figure() {
        let m = fileio_module();
        assert_eq!(m.interfaces, flexrpc_core::ir::fileio_example().interfaces);
    }

    #[test]
    fn pdl_texts_parse() {
        let pdl = flexrpc_idl::pdl::parse(DEALLOC_NEVER_PDL).unwrap();
        assert_eq!(pdl.types.len(), 1);
        let pdl = flexrpc_idl::pdl::parse(SERVER_WRITE_PDL).unwrap();
        assert_eq!(pdl.ops.len(), 1);
    }
}
