//! The Figure 7 path: the pipe server over fbufs.
//!
//! Control transfer rides the streamlined kernel IPC path (a null message
//! per RPC, identical in every variant); data rides fbufs along the
//! writer → server → reader path. Two presentations:
//!
//! * **Standard** — fbufs as a transparent pairwise transport: the writer
//!   marshals into an fbuf, the server unmarshals into its circular buffer,
//!   re-marshals replies into fresh fbufs (LRPC-like, the paper's top bars).
//! * **Special** — the server's read/write use the `[special]`
//!   presentation: incoming payload regions are *spliced* into an aggregate
//!   and replies are *split off* it, so "the pipe server keep\[s\] all data
//!   in fbufs along the entire path through the server". Only the endpoint
//!   copies remain (writer user-buffer → fbuf, fbuf → reader user-buffer).

use crate::circ::CircBuf;
use crate::WOULDBLOCK;
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_fbufs::{Aggregate, Fbuf, FbufSystem, PathId};
use flexrpc_kernel::ipc::{BindOptions, MsgOut, ServerOptions};
use flexrpc_kernel::regs::MSG_REGS;
use flexrpc_kernel::{Connection, Kernel, TaskId, UserAddr};
use std::sync::Arc;

/// Header bytes on every fbuf message: `[op: u32][arg: u32]`, native order.
pub(crate) const HDR: usize = 8;

const OP_WRITE: u32 = 1;
const OP_READ: u32 = 2;

/// The two Figure 7 presentations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbufMode {
    /// All components standard; fbufs are a transparent transport.
    Standard,
    /// Pipe server uses `[special]` for read and write payloads.
    Special,
}

impl FbufMode {
    /// Short label for reports and bench ids.
    pub fn label(self) -> &'static str {
        match self {
            FbufMode::Standard => "standard",
            FbufMode::Special => "special",
        }
    }
}

/// PDL giving the pipe server the `[special]` presentation for both the
/// incoming write payload and the read reply (as §4.3 describes: "as was
/// done in the Linux NFS client examples").
pub(crate) const FBUF_SPECIAL_PDL: &str = r#"
void FileIO_write(char *[special] data);
sequence<octet> [special] FileIO_read(unsigned long count);
"#;

/// Builds the server presentation for `mode` and sanity-checks it.
pub(crate) fn fbuf_server_presentation(mode: FbufMode) -> InterfacePresentation {
    let m = crate::fileio_module();
    let iface = m.interface("FileIO").expect("FileIO");
    let base = InterfacePresentation::default_for(&m, iface).expect("defaults");
    match mode {
        FbufMode::Standard => base,
        FbufMode::Special => {
            let pdl = flexrpc_idl::pdl::parse(FBUF_SPECIAL_PDL).expect("special PDL parses");
            apply_pdl(&m, iface, &base, &pdl).expect("special PDL applies")
        }
    }
}

/// The fbuf-native pipe server state.
pub struct FbufPipeServer {
    sys: Arc<FbufSystem>,
    path: PathId,
    task: TaskId,
    mode: FbufMode,
    cap: usize,
    /// Standard mode: the classic circular buffer.
    circ: CircBuf,
    /// Special mode: payload stays queued in fbufs.
    queue: Aggregate,
}

impl FbufPipeServer {
    fn new(
        sys: Arc<FbufSystem>,
        path: PathId,
        task: TaskId,
        mode: FbufMode,
        cap: usize,
    ) -> FbufPipeServer {
        FbufPipeServer {
            sys,
            path,
            task,
            mode,
            cap,
            circ: CircBuf::new(cap),
            queue: Aggregate::new(),
        }
    }

    fn buffered(&self) -> usize {
        match self.mode {
            FbufMode::Standard => self.circ.len(),
            FbufMode::Special => self.queue.len(),
        }
    }

    /// Handles a write request carried in `req` (header + payload).
    pub(crate) fn handle_write(&mut self, req: Fbuf) -> u32 {
        let payload_len = req.len() - HDR;
        if self.buffered() + payload_len > self.cap {
            let _ = self.sys.free(req);
            return WOULDBLOCK;
        }
        match self.mode {
            FbufMode::Standard => {
                // Transparent transport: unmarshal into the pipe buffer.
                let bytes = self.sys.read(&req, self.task).expect("server on path");
                self.circ.write(&bytes[HDR..]);
                let _ = self.sys.free(req);
            }
            FbufMode::Special => {
                // [special]: keep the payload region in the fbuf — the
                // header is logically discarded, the payload is spliced
                // into the queue with zero copies.
                self.queue.splice_range(&self.sys, req, HDR, payload_len);
            }
        }
        0
    }

    /// Handles a read request, producing `(status, reply_payload)`.
    pub(crate) fn handle_read(&mut self, count: usize) -> (u32, Aggregate) {
        if self.buffered() == 0 {
            return (WOULDBLOCK, Aggregate::new());
        }
        match self.mode {
            FbufMode::Standard => {
                // Re-marshal into a fresh reply fbuf (the LRPC-like copy).
                let data = self.circ.read_move(count);
                let mut f = self.sys.alloc(self.path, self.task).expect("alloc");
                self.sys.append(&mut f, self.task, &data).expect("append");
                let mut agg = Aggregate::new();
                agg.splice(&self.sys, f);
                (0, agg)
            }
            FbufMode::Special => {
                let agg = self
                    .queue
                    .split_off_front(&self.sys, self.task, count)
                    .expect("server reads its own queue");
                (0, agg)
            }
        }
    }
}

/// The Figure 7 harness: writer/reader tasks, fbuf path, control-transfer
/// IPC connections, and the server.
pub struct FbufPipeHarness {
    kernel: Arc<Kernel>,
    sys: Arc<FbufSystem>,
    path: PathId,
    writer: TaskId,
    reader: TaskId,
    server: FbufPipeServer,
    ctrl_writer: Connection,
    ctrl_reader: Connection,
    wbuf: UserAddr,
    rbuf: UserAddr,
    io_max: usize,
}

impl FbufPipeHarness {
    /// Builds the harness with a `pipe_cap`-byte pipe and fbufs sized for
    /// `io_max`-byte operations.
    pub fn new(pipe_cap: usize, io_max: usize, mode: FbufMode) -> FbufPipeHarness {
        // The presentation is derived from a PDL, as in every experiment.
        let pres = fbuf_server_presentation(mode);
        let special = pres.op("read").expect("read").result.special;
        assert_eq!(special, mode == FbufMode::Special, "PDL drives the mode");

        let kernel = Kernel::new();
        let writer = kernel.create_task("writer", 2 * io_max + 4096).expect("task");
        let reader = kernel.create_task("reader", 2 * io_max + 4096).expect("task");
        let server_task = kernel.create_task("pipe-server", 4096).expect("task");

        let sys = FbufSystem::new();
        let path = sys.create_path(&[writer, server_task, reader], io_max + HDR);

        // Control-transfer port: a null-message echo server.
        let port = kernel.port_allocate(server_task).expect("port");
        kernel
            .register_server(server_task, port, ServerOptions::default(), |_k, m| {
                Ok(MsgOut { regs: m.regs, body: Vec::new(), rights: vec![] })
            })
            .expect("register");
        let ctrl = |task| {
            let send = kernel.extract_send_right(server_task, port, task).expect("right");
            kernel.ipc_bind(task, send, BindOptions::default()).expect("bind")
        };
        let ctrl_writer = ctrl(writer);
        let ctrl_reader = ctrl(reader);

        let wbuf = kernel.user_alloc(writer, io_max).expect("alloc");
        let rbuf = kernel.user_alloc(reader, io_max).expect("alloc");
        // Fill the writer's user buffer with a recognizable pattern.
        kernel
            .with_user_slice_mut(writer, wbuf, io_max, |s| {
                for (i, b) in s.iter_mut().enumerate() {
                    *b = (i % 251) as u8;
                }
            })
            .expect("fill");

        let server = FbufPipeServer::new(Arc::clone(&sys), path, server_task, mode, pipe_cap);
        FbufPipeHarness {
            kernel,
            sys,
            path,
            writer,
            reader,
            server,
            ctrl_writer,
            ctrl_reader,
            wbuf,
            rbuf,
            io_max,
        }
    }

    /// The fbuf system (counter snapshots).
    pub fn fbufs(&self) -> &Arc<FbufSystem> {
        &self.sys
    }

    /// The kernel (counter snapshots).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// One write RPC of `n` bytes from the writer's user buffer.
    pub fn write(&mut self, n: usize) -> u32 {
        assert!(n <= self.io_max);
        // Marshal: user buffer → fbuf (the writer-side endpoint copy).
        let mut f = self.sys.alloc(self.path, self.writer).expect("alloc");
        let mut hdr = [0u8; HDR];
        hdr[..4].copy_from_slice(&OP_WRITE.to_ne_bytes());
        hdr[4..].copy_from_slice(&(n as u32).to_ne_bytes());
        self.sys.append(&mut f, self.writer, &hdr).expect("hdr");
        self.kernel
            .with_user_slice(self.writer, self.wbuf, n, |src| {
                self.sys.append(&mut f, self.writer, src).expect("payload");
            })
            .expect("user slice");
        // Control transfer (null message through the streamlined path).
        self.kernel
            .ipc_call_regs(&self.ctrl_writer, [OP_WRITE as u64; MSG_REGS], &[], &[])
            .expect("control");
        // Hand the fbuf to the server.
        self.sys.grant(&mut f, self.server.task).expect("grant");
        self.server.handle_write(f)
    }

    /// One read RPC of up to `n` bytes into the reader's user buffer.
    /// Returns `(status, bytes)`.
    pub fn read(&mut self, n: usize) -> (u32, usize) {
        assert!(n <= self.io_max);
        self.kernel
            .ipc_call_regs(&self.ctrl_reader, [OP_READ as u64; MSG_REGS], &[], &[])
            .expect("control");
        let (status, mut agg) = self.server.handle_read(n);
        if status != 0 {
            return (status, 0);
        }
        // Unmarshal: fbuf segments → reader's user buffer (endpoint copy).
        agg.grant_all(&self.sys, self.reader).expect("grant");
        let total = agg.len();
        let mut off = 0usize;
        let sys = Arc::clone(&self.sys);
        let reader = self.reader;
        self.kernel
            .with_user_slice_mut(self.reader, self.rbuf, total, |dst| {
                agg.consume(&sys, reader, total, |seg| {
                    dst[off..off + seg.len()].copy_from_slice(seg);
                    off += seg.len();
                })
                .expect("consume");
            })
            .expect("user slice");
        (0, total)
    }

    /// Moves `total` bytes through the pipe in `io_size` operations.
    ///
    /// Occupancy-aware, like a blocking Unix writer: no RPC is issued that
    /// flow control would refuse (a refused write would have marshalled its
    /// payload into an fbuf for nothing).
    pub fn transfer(&mut self, total: usize, io_size: usize) {
        let cap = self.server.cap;
        let mut written = 0usize;
        let mut read = 0usize;
        let mut occupancy = 0usize;
        while read < total {
            while written < total {
                let n = io_size.min(total - written);
                if occupancy + n > cap {
                    break;
                }
                match self.write(n) {
                    0 => {
                        written += n;
                        occupancy += n;
                    }
                    WOULDBLOCK => break,
                    other => panic!("write failed: {other}"),
                }
            }
            while occupancy > 0 {
                let (status, n) = self.read(io_size.min(total - read));
                match status {
                    0 => {
                        read += n;
                        occupancy -= n;
                        if read >= total {
                            break;
                        }
                    }
                    WOULDBLOCK => break,
                    other => panic!("read failed: {other}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_flows_both_modes() {
        for mode in [FbufMode::Standard, FbufMode::Special] {
            let mut h = FbufPipeHarness::new(4096, 2048, mode);
            h.transfer(32 * 1024, 2048);
            // Verify the reader's buffer holds the writer's pattern.
            let got = h.kernel.copyin_vec(h.reader, h.rbuf, 2048).unwrap();
            let want: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
            assert_eq!(got, want, "{mode:?}");
        }
    }

    #[test]
    fn special_mode_skips_server_copies() {
        let total = 32 * 1024;

        let mut h = FbufPipeHarness::new(4096, 2048, FbufMode::Standard);
        let before = h.fbufs().stats().snapshot();
        h.transfer(total, 2048);
        let std_stats = h.fbufs().stats().snapshot().since(&before);

        let mut h = FbufPipeHarness::new(4096, 2048, FbufMode::Special);
        let before = h.fbufs().stats().snapshot();
        h.transfer(total, 2048);
        let sp_stats = h.fbufs().stats().snapshot().since(&before);

        // Standard: writer marshal + server re-marshal write into fbufs;
        // special: only the writer's endpoint copy does.
        assert!(
            std_stats.bytes_written >= 2 * total as u64,
            "standard re-buffers inside the server: {std_stats:?}"
        );
        assert!(
            sp_stats.bytes_written < std_stats.bytes_written,
            "special must write fewer fbuf bytes"
        );
        // Aligned io: the special path writes each payload byte into an
        // fbuf once at the writer, plus the marshals of write attempts the
        // flow control refused (the driver re-marshals after each refusal,
        // as a blocked Unix writer would re-enter the kernel).
        assert!(
            sp_stats.bytes_written < 2 * total as u64,
            "special mode must stay near one fbuf write per byte: {sp_stats:?}"
        );
    }

    #[test]
    fn flow_control_in_both_modes() {
        for mode in [FbufMode::Standard, FbufMode::Special] {
            let mut h = FbufPipeHarness::new(2048, 2048, mode);
            assert_eq!(h.write(2048), 0, "{mode:?}");
            assert_eq!(h.write(2048), WOULDBLOCK, "{mode:?}");
            let (s, n) = h.read(2048);
            assert_eq!((s, n), (0, 2048), "{mode:?}");
            let (s, _) = h.read(2048);
            assert_eq!(s, WOULDBLOCK, "{mode:?}");
        }
    }

    #[test]
    fn unaligned_reads_work_in_special_mode() {
        let mut h = FbufPipeHarness::new(8192, 2048, FbufMode::Special);
        assert_eq!(h.write(1000), 0);
        assert_eq!(h.write(1000), 0);
        // Read across a segment boundary with a partial split.
        let (s, n) = h.read(1500);
        assert_eq!((s, n), (0, 1500));
        let (s, n) = h.read(500);
        assert_eq!((s, n), (0, 500));
        let got = h.kernel.copyin_vec(h.reader, h.rbuf, 500).unwrap();
        let want: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        assert_eq!(got, want[500..1000].to_vec());
    }
}
