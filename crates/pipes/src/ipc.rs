//! The Figure 6 harness: pipe throughput over the streamlined kernel IPC.
//!
//! Reader and writer are separate tasks with real user buffers in their own
//! (simulated) address spaces; the pipe server is a third task. Writes and
//! reads are `FileIO` RPCs over the kernel's direct-copy message path. The
//! driver alternates writer and reader work under the pipe's flow control,
//! exactly as two Unix processes blocked on each other would interleave.

use crate::server::{build_pipe_server, PipeServerStats, ReadPresentation};
use crate::{fileio_module, WOULDBLOCK};
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_kernel::{Kernel, NameMode};
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::transport::{connect_kernel, serve_on_kernel_direct};
use flexrpc_runtime::{ClientStub, RpcError};
use std::sync::Arc;

/// A complete Figure 6 experiment setup: kernel, three tasks, two bound
/// clients, and the pipe server.
pub struct PipeIpcHarness {
    kernel: Arc<Kernel>,
    writer: ClientStub,
    reader: ClientStub,
    pipe_cap: usize,
    stats: Arc<PipeServerStats>,
    /// The writer's long-lived user buffer, lent to the stub per call (the
    /// C client passes a pointer; `Value::Shared` is the Rust spelling).
    chunk: Arc<[u8]>,
    write_frame: Vec<Value>,
    read_frame: Vec<Value>,
}

impl PipeIpcHarness {
    /// Builds the harness: a pipe of `pipe_cap` bytes served under `mode`.
    pub fn new(pipe_cap: usize, mode: ReadPresentation) -> PipeIpcHarness {
        Self::with_options(pipe_cap, mode, false)
    }

    /// Like [`PipeIpcHarness::new`], optionally enabling the §4.2.1
    /// write-path ablation (kernel direct receive: the write payload is
    /// read in place from the sender's message).
    pub fn with_options(
        pipe_cap: usize,
        mode: ReadPresentation,
        direct_receive: bool,
    ) -> PipeIpcHarness {
        let kernel = Kernel::new();
        let writer_task = kernel.create_task("writer", 64 * 1024).expect("task");
        let reader_task = kernel.create_task("reader", 64 * 1024).expect("task");
        let server_task = kernel.create_task("pipe-server", 64 * 1024).expect("task");

        let (server, stats) = build_pipe_server(pipe_cap, mode, WireFormat::Cdr);
        let port = serve_on_kernel_direct(
            &kernel,
            server_task,
            Arc::clone(&server),
            Trust::None,
            NameMode::Unique,
            direct_receive,
        )
        .expect("serve");

        let m = fileio_module();
        let iface = m.interface("FileIO").expect("FileIO");
        let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
        let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
        let sig = compiled.signature.hash();

        let mk_client = |task| {
            let send = kernel.extract_send_right(server_task, port, task).expect("right");
            let transport = connect_kernel(&kernel, task, send, sig, Trust::None, NameMode::Unique)
                .expect("bind");
            ClientStub::new(compiled.clone(), WireFormat::Cdr, Box::new(transport))
        };
        let writer = mk_client(writer_task);
        let reader = mk_client(reader_task);

        let write_frame = writer.new_frame("write").expect("frame");
        let read_frame = reader.new_frame("read").expect("frame");
        PipeIpcHarness {
            kernel,
            writer,
            reader,
            pipe_cap,
            stats,
            chunk: Arc::from(&[][..]),
            write_frame,
            read_frame,
        }
    }

    /// The kernel (for counter snapshots in tests/benches).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Server-side work-function counters.
    pub fn server_stats(&self) -> &Arc<PipeServerStats> {
        &self.stats
    }

    fn write_chunk(&mut self, len: usize) -> Result<u32, RpcError> {
        if self.chunk.len() != len {
            self.chunk = vec![0xA5; len].into();
        }
        self.write_frame[0] = Value::Shared(Arc::clone(&self.chunk));
        match self.writer.call_index(1, &mut self.write_frame) {
            Ok(s) => Ok(s),
            Err(RpcError::Remote(s)) => Ok(s),
            Err(e) => Err(e),
        }
    }

    fn read_chunk(&mut self, len: usize) -> Result<(u32, usize), RpcError> {
        self.read_frame[0] = Value::U32(len as u32);
        let status = match self.reader.call_index(0, &mut self.read_frame) {
            Ok(s) => s,
            Err(RpcError::Remote(s)) => s,
            Err(e) => return Err(e),
        };
        let n = self.read_frame[1].byte_len().unwrap_or(0);
        Ok((status, n))
    }

    /// Moves `total` bytes through the pipe in `io_size` operations,
    /// returning `(write_rpcs, read_rpcs)`.
    ///
    /// The driver tracks pipe occupancy so it never issues an RPC that flow
    /// control would refuse — modeling a blocking Unix writer, which sleeps
    /// in the kernel instead of re-marshalling and re-sending its buffer.
    /// (`write_chunk`/`read_chunk` still handle [`WOULDBLOCK`] for callers
    /// that race.)
    pub fn transfer(&mut self, total: usize, io_size: usize) -> Result<(u64, u64), RpcError> {
        let cap = self.pipe_cap;
        let mut written = 0usize;
        let mut read = 0usize;
        let mut occupancy = 0usize;
        let mut writes = 0u64;
        let mut reads = 0u64;
        while read < total {
            // Writer runs until the pipe would push back.
            while written < total {
                let n = io_size.min(total - written);
                if occupancy + n > cap {
                    break;
                }
                writes += 1;
                match self.write_chunk(n)? {
                    0 => {
                        written += n;
                        occupancy += n;
                    }
                    WOULDBLOCK => break,
                    other => return Err(RpcError::Remote(other)),
                }
            }
            // Reader drains what is there.
            while occupancy > 0 {
                reads += 1;
                let (status, n) = self.read_chunk(io_size.min(total - read))?;
                match status {
                    0 => {
                        read += n;
                        occupancy -= n;
                        if read >= total {
                            break;
                        }
                    }
                    WOULDBLOCK => break,
                    other => return Err(RpcError::Remote(other)),
                }
            }
        }
        Ok((writes, reads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_data_under_flow_control() {
        for mode in [ReadPresentation::Default, ReadPresentation::DeallocNever] {
            let mut h = PipeIpcHarness::new(4096, mode);
            let (writes, reads) = h.transfer(64 * 1024, 2048).unwrap();
            assert!(writes >= 32, "{mode:?}: at least total/io_size writes");
            assert!(reads >= 32);
        }
    }

    #[test]
    fn io_larger_than_buffer_flows_anyway() {
        // io_size larger than the pipe would deadlock a naive all-or-nothing
        // write; our driver clamps io to the total and the server refuses
        // oversized writes, so use io_size <= cap. Verify the guard: a
        // too-large write returns WOULDBLOCK forever rather than corrupting.
        let mut h = PipeIpcHarness::new(1024, ReadPresentation::Default);
        let status = h.write_chunk(2048).unwrap();
        assert_eq!(status, WOULDBLOCK);
    }

    #[test]
    fn dealloc_never_reduces_kernel_visible_copies_not_needed_but_server_copies() {
        // The optimization is server-internal: kernel copy counts stay the
        // same, server intermediate copies drop to zero.
        let total = 32 * 1024;

        let mut h = PipeIpcHarness::new(4096, ReadPresentation::Default);
        let before = h.kernel().stats().snapshot();
        h.transfer(total, 2048).unwrap();
        let default_kernel = h.kernel().stats().snapshot().since(&before);
        let default_server =
            h.server_stats().intermediate_copy_bytes.load(std::sync::atomic::Ordering::Relaxed);

        let mut h = PipeIpcHarness::new(4096, ReadPresentation::DeallocNever);
        let before = h.kernel().stats().snapshot();
        h.transfer(total, 2048).unwrap();
        let never_kernel = h.kernel().stats().snapshot().since(&before);
        let never_server =
            h.server_stats().intermediate_copy_bytes.load(std::sync::atomic::Ordering::Relaxed);

        assert_eq!(
            default_kernel.bytes_copied_user_to_user, never_kernel.bytes_copied_user_to_user,
            "wire contract unchanged: same kernel transfer volume"
        );
        assert!(default_server >= total as u64, "move semantics re-buffers everything");
        assert_eq!(never_server, 0, "dealloc(never) deletes the intermediate copy");
    }
}
