//! Tasks and simulated address spaces.
//!
//! A task's "address space" is a real, privately owned byte arena. Crossing
//! it costs a real `memcpy`, which is the entire point: the paper's
//! presentation optimizations are about *removing copies across protection
//! boundaries*, so the substrate must charge for them honestly.
//!
//! Addresses are arena offsets wrapped in [`UserAddr`] so they cannot be
//! confused with kernel-side slices, and every access is bounds-checked —
//! the moral equivalent of the MMU fault the real kernel would take.

use crate::error::KernelError;
use crate::{Kernel, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of a task (index into the kernel's task table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Raw index, for diagnostics.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An address inside some task's simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserAddr(pub usize);

impl UserAddr {
    /// Address arithmetic with overflow checking.
    pub fn offset(self, n: usize) -> UserAddr {
        UserAddr(self.0.checked_add(n).expect("user address overflow"))
    }
}

/// A simulated task: memory arena and allocation cursor.
pub(crate) struct Task {
    pub(crate) id: TaskId,
    /// The task's entire address space. `Mutex` rather than `RwLock`:
    /// accesses are short memcpys and writers dominate.
    pub(crate) mem: Mutex<Vec<u8>>,
    /// Bump-allocation cursor for [`Kernel::user_alloc`].
    pub(crate) brk: AtomicUsize,
}

impl Task {
    fn check(&self, mem: &[u8], addr: UserAddr, len: usize) -> Result<()> {
        if addr.0.checked_add(len).is_none_or(|end| end > mem.len()) {
            return Err(KernelError::BadAddress { task: self.id, addr, len });
        }
        Ok(())
    }
}

impl Kernel {
    /// Creates a task whose address space holds `mem_size` bytes. The name
    /// labels the task where it is created; the kernel keeps no copy.
    pub fn create_task(&self, _name: &str, mem_size: usize) -> Result<TaskId> {
        let mut tasks = self.tasks.write();
        let id = TaskId(tasks.len());
        tasks.push(Arc::new(Task {
            id,
            mem: Mutex::new(vec![0; mem_size]),
            brk: AtomicUsize::new(0),
        }));
        Ok(id)
    }

    /// Allocates `len` bytes in the task's address space (bump allocator —
    /// the substrate never needs to free user memory mid-experiment).
    pub fn user_alloc(&self, task: TaskId, len: usize) -> Result<UserAddr> {
        let t = self.task(task)?;
        let size = t.mem.lock().len();
        // Allocations are 16-byte aligned, like a conventional malloc.
        let mut cur = t.brk.load(Ordering::Relaxed);
        loop {
            let base = (cur + 15) & !15;
            let end = base.checked_add(len).ok_or(KernelError::NoSpace(task))?;
            if end > size {
                return Err(KernelError::NoSpace(task));
            }
            match t.brk.compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok(UserAddr(base)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Copies bytes from the task's space into a kernel-side buffer
    /// (Mach `copyin` / Linux `memcpy_fromfs`).
    pub fn copyin(&self, task: TaskId, addr: UserAddr, dst: &mut [u8]) -> Result<()> {
        let t = self.task(task)?;
        let mem = t.mem.lock();
        t.check(&mem, addr, dst.len())?;
        dst.copy_from_slice(&mem[addr.0..addr.0 + dst.len()]);
        self.stats().bytes_copied_in.add(dst.len() as u64);
        Ok(())
    }

    /// Copies bytes from the task's space into a fresh kernel vector.
    pub fn copyin_vec(&self, task: TaskId, addr: UserAddr, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0; len];
        self.copyin(task, addr, &mut v)?;
        Ok(v)
    }

    /// Copies kernel-side bytes into the task's space
    /// (Mach `copyout` / Linux `memcpy_tofs`).
    pub fn copyout(&self, task: TaskId, addr: UserAddr, src: &[u8]) -> Result<()> {
        let t = self.task(task)?;
        let mut mem = t.mem.lock();
        t.check(&mem, addr, src.len())?;
        mem[addr.0..addr.0 + src.len()].copy_from_slice(src);
        self.stats().bytes_copied_out.add(src.len() as u64);
        Ok(())
    }

    /// Copies directly between two tasks' address spaces — the streamlined
    /// IPC path's single-copy body transfer.
    pub fn copy_user_to_user(
        &self,
        from: TaskId,
        from_addr: UserAddr,
        to: TaskId,
        to_addr: UserAddr,
        len: usize,
    ) -> Result<()> {
        if from == to {
            // Same task: one arena, plain memmove within it.
            let t = self.task(from)?;
            let mut mem = t.mem.lock();
            t.check(&mem, from_addr, len)?;
            t.check(&mem, to_addr, len)?;
            mem.copy_within(from_addr.0..from_addr.0 + len, to_addr.0);
        } else {
            let src_t = self.task(from)?;
            let dst_t = self.task(to)?;
            // Lock in task-id order to avoid deadlock between concurrent
            // transfers in opposite directions.
            let (src_mem, mut dst_mem) = if from.0 < to.0 {
                let a = src_t.mem.lock();
                let b = dst_t.mem.lock();
                (a, b)
            } else {
                let b = dst_t.mem.lock();
                let a = src_t.mem.lock();
                (a, b)
            };
            src_t.check(&src_mem, from_addr, len)?;
            dst_t.check(&dst_mem, to_addr, len)?;
            dst_mem[to_addr.0..to_addr.0 + len]
                .copy_from_slice(&src_mem[from_addr.0..from_addr.0 + len]);
        }
        self.stats().bytes_copied_user_to_user.add(len as u64);
        Ok(())
    }

    /// Runs `f` over a read-only view of task memory (used by transports
    /// that marshal straight out of user buffers).
    pub fn with_user_slice<R>(
        &self,
        task: TaskId,
        addr: UserAddr,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let t = self.task(task)?;
        let mem = t.mem.lock();
        t.check(&mem, addr, len)?;
        Ok(f(&mem[addr.0..addr.0 + len]))
    }

    /// Runs `f` over a mutable view of task memory.
    pub fn with_user_slice_mut<R>(
        &self,
        task: TaskId,
        addr: UserAddr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let t = self.task(task)?;
        let mut mem = t.mem.lock();
        t.check(&mem, addr, len)?;
        Ok(f(&mut mem[addr.0..addr.0 + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copyin_copyout_roundtrip() {
        let k = Kernel::new();
        let t = k.create_task("t", 1024).unwrap();
        let a = k.user_alloc(t, 16).unwrap();
        k.copyout(t, a, b"hello kernel!!!!").unwrap();
        let mut buf = [0u8; 16];
        k.copyin(t, a, &mut buf).unwrap();
        assert_eq!(&buf, b"hello kernel!!!!");
    }

    #[test]
    fn copy_counters_accumulate() {
        let k = Kernel::new();
        let t = k.create_task("t", 1024).unwrap();
        let a = k.user_alloc(t, 64).unwrap();
        let before = k.stats().snapshot();
        k.copyout(t, a, &[1; 64]).unwrap();
        let mut b = [0u8; 32];
        k.copyin(t, a, &mut b).unwrap();
        let d = k.stats().snapshot().since(&before);
        assert_eq!(d.bytes_copied_out, 64);
        assert_eq!(d.bytes_copied_in, 32);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let k = Kernel::new();
        let t = k.create_task("t", 64).unwrap();
        let err = k.copyout(t, UserAddr(60), &[0; 8]).unwrap_err();
        assert!(matches!(err, KernelError::BadAddress { len: 8, .. }));
        let mut buf = [0u8; 4];
        assert!(k.copyin(t, UserAddr(usize::MAX), &mut buf).is_err());
    }

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let k = Kernel::new();
        let t = k.create_task("t", 100).unwrap();
        let a = k.user_alloc(t, 10).unwrap();
        let b = k.user_alloc(t, 10).unwrap();
        assert_eq!(a.0 % 16, 0);
        assert_eq!(b.0 % 16, 0);
        assert!(b.0 >= a.0 + 10);
        assert!(matches!(k.user_alloc(t, 100), Err(KernelError::NoSpace(_))));
    }

    #[test]
    fn user_to_user_copy_moves_bytes() {
        let k = Kernel::new();
        let src = k.create_task("src", 256).unwrap();
        let dst = k.create_task("dst", 256).unwrap();
        let sa = k.user_alloc(src, 32).unwrap();
        let da = k.user_alloc(dst, 32).unwrap();
        k.copyout(src, sa, &[7; 32]).unwrap();
        k.copy_user_to_user(src, sa, dst, da, 32).unwrap();
        let mut got = [0u8; 32];
        k.copyin(dst, da, &mut got).unwrap();
        assert_eq!(got, [7; 32]);
    }

    #[test]
    fn user_to_user_same_task_overlapping() {
        let k = Kernel::new();
        let t = k.create_task("t", 64).unwrap();
        k.copyout(t, UserAddr(0), &[1, 2, 3, 4]).unwrap();
        k.copy_user_to_user(t, UserAddr(0), t, UserAddr(2), 4).unwrap();
        let mut got = [0u8; 6];
        k.copyin(t, UserAddr(0), &mut got).unwrap();
        assert_eq!(got, [1, 2, 1, 2, 3, 4]);
    }

    #[test]
    fn user_to_user_reverse_id_order() {
        let k = Kernel::new();
        let a = k.create_task("a", 64).unwrap();
        let b = k.create_task("b", 64).unwrap();
        k.copyout(b, UserAddr(0), &[9; 8]).unwrap();
        // Copy from the higher-id task to the lower-id one.
        k.copy_user_to_user(b, UserAddr(0), a, UserAddr(8), 8).unwrap();
        let mut got = [0u8; 8];
        k.copyin(a, UserAddr(8), &mut got).unwrap();
        assert_eq!(got, [9; 8]);
    }

    #[test]
    fn missing_task_reported() {
        let k = Kernel::new();
        let ghost = TaskId(42);
        assert_eq!(
            k.copyin_vec(ghost, UserAddr(0), 1).unwrap_err(),
            KernelError::NoSuchTask(ghost)
        );
    }

    #[test]
    fn with_user_slice_views() {
        let k = Kernel::new();
        let t = k.create_task("t", 64).unwrap();
        k.with_user_slice_mut(t, UserAddr(4), 4, |s| s.copy_from_slice(&[1, 2, 3, 4])).unwrap();
        let sum =
            k.with_user_slice(t, UserAddr(4), 4, |s| s.iter().map(|&b| b as u32).sum::<u32>());
        assert_eq!(sum.unwrap(), 10);
        assert!(k.with_user_slice(t, UserAddr(63), 2, |_| ()).is_err());
    }
}
