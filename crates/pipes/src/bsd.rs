//! The monolithic baseline: 4.3BSD-style in-kernel pipes.
//!
//! Figure 7's reference bar. In a monolithic system the pipe buffer lives
//! in the kernel; a write is one `copyin` from the writer's address space
//! into the kernel buffer and a read is one `copyout` to the reader's —
//! two boundary copies per byte, no RPC machinery at all. (In that
//! implementation "pipe buffers are always 4K in size".)

use crate::circ::CircBuf;
use crate::WOULDBLOCK;
use flexrpc_kernel::regs::{run_ops, RegPath, RegisterFile};
use flexrpc_kernel::UserAddr;
use flexrpc_kernel::{Kernel, KernelError, TaskId, TrustLevel};
use std::sync::Arc;

/// An in-kernel pipe between two tasks.
pub struct BsdPipe {
    kernel: Arc<Kernel>,
    buf: CircBuf,
    /// Kernel-side staging for the two boundary copies.
    staging: Vec<u8>,
    /// Each pipe operation is a system call: the kernel saves/scrubs and
    /// restores user registers on entry and exit, like any trap. Without
    /// this, the monolithic baseline would be unrealistically free.
    trap_path: RegPath,
    regs: RegisterFile,
}

impl BsdPipe {
    /// Creates a pipe with the classic 4K buffer.
    pub fn new(kernel: Arc<Kernel>) -> BsdPipe {
        Self::with_capacity(kernel, 4096)
    }

    /// Creates a pipe with an explicit buffer size.
    pub fn with_capacity(kernel: Arc<Kernel>, cap: usize) -> BsdPipe {
        BsdPipe {
            kernel,
            buf: CircBuf::new(cap),
            staging: Vec::new(),
            trap_path: RegPath::compile(TrustLevel::None, TrustLevel::None),
            regs: RegisterFile::default(),
        }
    }

    /// The register work of one syscall entry/exit pair.
    fn trap(&mut self) {
        run_ops(&self.trap_path.pre, &mut self.regs);
        run_ops(&self.trap_path.post, &mut self.regs);
        self.kernel.stats().register_ops.add(self.trap_path.len() as u64);
    }

    /// Writes `len` bytes from `(task, addr)`: one `copyin`.
    ///
    /// Returns 0 on success, [`WOULDBLOCK`] when the buffer lacks space.
    pub fn write(&mut self, task: TaskId, addr: UserAddr, len: usize) -> Result<u32, KernelError> {
        self.trap();
        if self.buf.space() < len {
            return Ok(WOULDBLOCK);
        }
        self.staging.resize(len, 0);
        self.kernel.copyin(task, addr, &mut self.staging)?;
        self.buf.write(&self.staging);
        Ok(0)
    }

    /// Reads up to `len` bytes into `(task, addr)`: one `copyout`.
    ///
    /// Returns `(status, bytes_read)`.
    pub fn read(
        &mut self,
        task: TaskId,
        addr: UserAddr,
        len: usize,
    ) -> Result<(u32, usize), KernelError> {
        self.trap();
        if self.buf.is_empty() {
            return Ok((WOULDBLOCK, 0));
        }
        let (a, b) = self.buf.peek_front(len);
        let n = a.len() + b.len();
        self.kernel.copyout(task, addr, a)?;
        if !b.is_empty() {
            self.kernel.copyout(task, addr.offset(a.len()), b)?;
        }
        self.buf.consume(n);
        Ok((0, n))
    }

    /// Moves `total` bytes writer → reader in `io_size` chunks (the same
    /// workload shape as the RPC pipes, minus the RPCs).
    pub fn transfer(
        &mut self,
        writer: TaskId,
        waddr: UserAddr,
        reader: TaskId,
        raddr: UserAddr,
        total: usize,
        io_size: usize,
    ) -> Result<(), KernelError> {
        let mut written = 0usize;
        let mut read = 0usize;
        while read < total {
            while written < total {
                let n = io_size.min(total - written);
                match self.write(writer, waddr, n)? {
                    0 => written += n,
                    _ => break,
                }
            }
            loop {
                let (status, n) = self.read(reader, raddr, io_size.min(total - read))?;
                if status != 0 {
                    break;
                }
                read += n;
                if read >= total {
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Kernel>, TaskId, UserAddr, TaskId, UserAddr, BsdPipe) {
        let k = Kernel::new();
        let w = k.create_task("writer", 16 * 1024).unwrap();
        let r = k.create_task("reader", 16 * 1024).unwrap();
        let wa = k.user_alloc(w, 8192).unwrap();
        let ra = k.user_alloc(r, 8192).unwrap();
        let pipe = BsdPipe::new(Arc::clone(&k));
        (k, w, wa, r, ra, pipe)
    }

    #[test]
    fn bytes_flow_between_address_spaces() {
        let (k, w, wa, r, ra, mut pipe) = setup();
        k.copyout(w, wa, b"monolithic").unwrap();
        assert_eq!(pipe.write(w, wa, 10).unwrap(), 0);
        let (status, n) = pipe.read(r, ra, 10).unwrap();
        assert_eq!((status, n), (0, 10));
        let got = k.copyin_vec(r, ra, 10).unwrap();
        assert_eq!(got, b"monolithic");
    }

    #[test]
    fn two_copies_per_byte() {
        let (k, w, wa, r, ra, mut pipe) = setup();
        let before = k.stats().snapshot();
        pipe.transfer(w, wa, r, ra, 64 * 1024, 2048).unwrap();
        let d = k.stats().snapshot().since(&before);
        assert_eq!(d.bytes_copied_in, 64 * 1024, "one copyin per byte");
        assert_eq!(d.bytes_copied_out, 64 * 1024, "one copyout per byte");
        assert_eq!(d.messages, 0, "no IPC at all");
    }

    #[test]
    fn flow_control() {
        let (_k, w, wa, r, ra, mut pipe) = setup();
        assert_eq!(pipe.write(w, wa, 4096).unwrap(), 0);
        assert_eq!(pipe.write(w, wa, 1).unwrap(), WOULDBLOCK);
        let (s, n) = pipe.read(r, ra, 4096).unwrap();
        assert_eq!((s, n), (0, 4096));
        let (s, _) = pipe.read(r, ra, 1).unwrap();
        assert_eq!(s, WOULDBLOCK);
    }
}
