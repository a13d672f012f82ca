//! Three properties of the machine a run pins down before it measures.
//!
//! * **One CPU.** The whole process — the client thread and the engine's
//!   worker thread, which inherits the mask — runs on the lowest CPU it is
//!   allowed on. A hand-off between two vCPUs of a virtual machine costs a
//!   wake-up IPI whose latency belongs to the hypervisor, not the program:
//!   unpinned, `engine_pipelined` flipped between ≈250 k and ≈480 k op/s
//!   from run to run; on one CPU it repeats within 1 %. The load model is
//!   therefore "one CPU, whatever `nproc` is".
//! * **Batch scheduling.** Under the default policy a thread that wakes may
//!   preempt the one that woke it; whether the engine's worker preempts
//!   the client after each of its 32 submits, or runs once the client
//!   waits, flips chaotically (batch latency 45 or 80 µs, throughput
//!   spread 6 %, 90th percentile 20 %). `SCHED_BATCH` switches wake-up
//!   preemption off — the client submits its batch, then waits, as the
//!   workload says — and the same numbers repeat within 2 %.
//! * **No address-space randomisation.** A process's layout decides which
//!   of two speeds `engine_inline` runs at for its whole life (≈550 or
//!   ≈620 ns a call, one process in eight the fast one). With
//!   randomisation off the layout, and so the speed, is the same in every
//!   run of one binary. The process re-executes itself once with
//!   `ADDR_NO_RANDOMIZE` set, a fixed environment and fixed-width
//!   arguments (the stack's start depends on their sizes).
//!
//! Both are best effort: where the kernel refuses, the run goes on without
//! and says so in its details line.

use std::ffi::{c_int, c_ulong};
use std::os::unix::process::CommandExt;

const ADDR_NO_RANDOMIZE: c_ulong = 0x004_0000;
/// `personality(QUERY)` returns the current persona without changing it.
const QUERY: c_ulong = 0xFFFF_FFFF;
/// Marks the re-executed process, so a kernel that ignores the persona
/// cannot make the run loop.
const REENTERED: &str = "FLEXRPC_BENCH_REENTERED";
/// A `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 16;
const SCHED_BATCH: c_int = 3;

/// `struct sched_param`: one int.
#[repr(C)]
struct SchedParam {
    priority: c_int,
}

extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn personality(persona: c_ulong) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Restricts this process (and every thread it later starts) to the lowest
/// CPU it may run on. Returns that CPU, or `None` if the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros();
    mask = [0; MASK_WORDS];
    mask[word] = 1 << bit;
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit as usize)
}

/// Puts the calling thread (and every thread it later starts) under
/// `SCHED_BATCH`. Needs no privilege. False if the kernel refused.
pub fn schedule_as_batch() -> bool {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a valid `sched_param` for the call's duration;
    // pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &param) == 0 }
}

/// True if this process runs with address-space randomisation off.
pub fn aslr_is_off() -> bool {
    // SAFETY: `personality` takes no pointers; QUERY changes nothing.
    let persona = unsafe { personality(QUERY) };
    persona >= 0 && (persona as c_ulong & ADDR_NO_RANDOMIZE) != 0
}

/// Re-executes this binary with randomisation off, `args` as its arguments
/// and only `keep`'s variables in its environment. Returns if randomisation
/// is off already, or cannot be switched off.
pub fn reenter_without_aslr(args: &[String], keep: &[&str]) {
    if aslr_is_off() || std::env::var_os(REENTERED).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else { return };
    // SAFETY: as above; the persona is inherited across `exec`.
    let persona = unsafe { personality(QUERY) };
    // SAFETY: as above.
    if persona < 0 || unsafe { personality(persona as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    let mut command = std::process::Command::new(exe);
    command.args(args).env_clear().env(REENTERED, "1");
    for name in keep {
        if let Some(value) = std::env::var_os(name) {
            command.env(name, value);
        }
    }
    // Only returns on failure; carry on in this process then.
    let _ = command.exec();
}
