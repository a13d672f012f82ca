//! `report sample -- <command…>`: which instructions a running program's
//! time goes to.
//!
//! A statistical profiler built from `ptrace` alone. The command is started,
//! every one of its threads is seized (`PTRACE_SEIZE`, new threads followed
//! through `PTRACE_O_TRACECLONE`, a re-`exec` through `PTRACE_O_TRACEEXEC`),
//! and every 150 µs (`INTERVAL`) each thread the kernel shows running is
//! stopped with `PTRACE_INTERRUPT`, its instruction pointer read and the
//! thread let go. A sleeping thread is not sampled: what is counted is where the
//! program *runs*. An address is kept as the object it lies in and the
//! address that object's own symbols give it, so `addr2line -a -f -i -C`
//! (when it is on `PATH`) turns the hottest ones into their inline chains —
//! the line of every function the optimiser folded into the instruction.
//!
//! Beside the hottest addresses, functions and lines, a report attributes
//! every sample to a file of the workspace (the directory `report` runs in):
//! the outermost frame of its chain that lies in one. Everything a function
//! inlines is charged to the function's own file, so the table says which
//! piece of the program a call's time went to before the lines say why.
//!
//! Files and lines come from the object's DWARF line tables, which a
//! release build leaves out by default: sampled as built, every sample of a
//! release binary is `(outside the workspace)` and no line is listed. Build
//! it with `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` in the
//! environment to get them — for `benchmark/`'s release binary, set on
//! every `benchmark/run.sh` into a target directory of its own, so no build
//! without the tables replaces it.
//!
//! Why a sampler beside instruction counts: an instruction that waits is
//! invisible to a count. A load that spans two narrower stores still in the
//! store buffer cannot be forwarded from them and waits for both to reach
//! the cache; the count says one `movups`, the sampler says a tenth of the
//! call. That is what the stub's in-place writes (`flexrpc_runtime::interp`)
//! were found by.
//!
//! Where `ptrace` is denied (a seccomp profile, `yama`) or the platform is
//! not x86-64 Linux the result is [`Sampled::Skipped`], never an empty
//! profile that reads as "nothing is hot".

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// How long a thread runs between two of its samples.
const INTERVAL: Duration = Duration::from_micros(150);

/// How many rows each table of a report lists unless asked for more.
pub const TOP: usize = 30;

/// The file-table row of samples no frame of which lies in the workspace.
pub const OUTSIDE: &str = "(outside the workspace)";

/// Where a sampled instruction lies: an object file and the address its own
/// symbols give the instruction, or a mapping with no file behind it
/// (`[vdso]`, anonymous memory) and the offset into it.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Site {
    object: String,
    addr: u64,
}

/// The samples of one run of a command.
#[derive(Debug, Default)]
pub struct Profile {
    /// Samples taken, each a running thread stopped once.
    pub total: u64,
    /// Samples per instruction.
    sites: HashMap<Site, u64>,
    /// How the command ended, as `waitpid` told it.
    pub exit: String,
}

/// What sampling a command produced.
#[derive(Debug)]
pub enum Sampled {
    /// The command ran under the sampler to its end.
    Profile(Profile),
    /// Nothing was sampled, and why (the command was not left running).
    Skipped(String),
}

/// One inlined level of an instruction: the function and its source line,
/// innermost first, as `addr2line -i` lists them.
struct Frame {
    function: String,
    line: String,
}

/// Runs `command` (program and arguments) to its end under the sampler.
pub fn sample(command: &[String]) -> Sampled {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    return tracer::run(command);
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    return Sampled::Skipped(format!("`{}`: the sampler needs x86-64 Linux", command.join(" ")));
}

impl Profile {
    /// Every site's inline chain, from one `addr2line` run per object;
    /// empty where it is not on `PATH` or the object has no symbols.
    fn frames(&self) -> HashMap<Site, Vec<Frame>> {
        let mut by_object: HashMap<&str, Vec<u64>> = HashMap::new();
        for site in self.sites.keys() {
            by_object.entry(&site.object).or_default().push(site.addr);
        }
        let mut frames = HashMap::new();
        for (object, addrs) in by_object {
            if object.starts_with('[') {
                continue;
            }
            for (addr, chain) in addr2line(object, &addrs) {
                frames.insert(Site { object: object.to_string(), addr }, chain);
            }
        }
        frames
    }

    /// Samples per function — the outermost frame of each site's chain,
    /// the function the instruction's symbol belongs to — most first.
    pub fn top_functions(&self) -> Vec<(String, u64)> {
        self.by_function(&self.frames())
    }

    /// Samples per workspace file, most first: each sample goes to the file
    /// of the outermost frame of its chain that lies under `root`, named
    /// relative to it; a sample with no such frame goes to [`OUTSIDE`].
    pub fn by_file(&self, root: &Path) -> Vec<(String, u64)> {
        self.files(&self.frames(), root)
    }

    fn files(&self, frames: &HashMap<Site, Vec<Frame>>, root: &Path) -> Vec<(String, u64)> {
        let mut by_file: HashMap<&str, u64> = HashMap::new();
        for (site, n) in &self.sites {
            let chain = frames.get(site).into_iter().flatten().rev();
            let file = chain
                .filter_map(|f| f.line.rsplit_once(':').map(|(file, _)| file))
                .find_map(|file| Path::new(file).strip_prefix(root).ok()?.to_str());
            *by_file.entry(file.unwrap_or(OUTSIDE)).or_default() += n;
        }
        most_first(by_file.into_iter().map(|(f, n)| (f.to_string(), n)))
    }

    fn by_function(&self, frames: &HashMap<Site, Vec<Frame>>) -> Vec<(String, u64)> {
        let mut by_fn: HashMap<String, u64> = HashMap::new();
        for (site, n) in &self.sites {
            let name = match frames.get(site).and_then(|chain| chain.last()) {
                Some(frame) => frame.function.clone(),
                None => short(&site.object).to_string(),
            };
            *by_fn.entry(name).or_default() += n;
        }
        most_first(by_fn)
    }

    /// The report, `top` rows a table: the hottest addresses with their
    /// inline chains (raw `object+offset` where `addr2line` cannot say
    /// more), the hottest functions, the hottest lines, and the samples by
    /// workspace file under `root` ([`Profile::by_file`]).
    pub fn render(&self, top: usize, root: &Path) -> String {
        let frames = self.frames();
        let pct = |n: u64| 100.0 * n as f64 / self.total.max(1) as f64;
        let mut out = format!(
            "{} samples, {} µs apart per running thread; the command {}\n\ntop addresses:\n",
            self.total,
            INTERVAL.as_micros(),
            self.exit
        );
        for (site, n) in most_first(self.sites.iter().map(|(s, n)| (s, *n))).into_iter().take(top) {
            let _ =
                writeln!(out, "{n:>8} {:>5.1}%  {}+{:#x}", pct(n), short(&site.object), site.addr);
            for frame in frames.get(site).into_iter().flatten() {
                let _ = writeln!(out, "{:>17}{}  {}", "", frame.function, frame.line);
            }
        }
        out.push_str("\ntop functions:\n");
        for (function, n) in self.by_function(&frames).into_iter().take(top) {
            let _ = writeln!(out, "{n:>8} {:>5.1}%  {function}", pct(n));
        }
        out.push_str("\ntop lines, inclusive (a sample counts for each line of its chain):\n");
        for (line, n) in by_line(&self.sites, &frames).into_iter().take(top) {
            let _ = writeln!(out, "{n:>8} {:>5.1}%  {line}", pct(n));
        }
        let _ = writeln!(
            out,
            "\nby file (each sample once, in its chain's outermost file under {}):",
            root.display()
        );
        for (file, n) in self.files(&frames, root).into_iter().take(top) {
            let _ = writeln!(out, "{n:>8} {:>5.1}%  {file}", pct(n));
        }
        out
    }
}

/// Samples per source line, a sample counted once for every distinct line
/// of its inline chain: a statement's own cost and that of everything the
/// optimiser folded into it. (Only inlining: a real call is a site of its own.)
fn by_line(sites: &HashMap<Site, u64>, frames: &HashMap<Site, Vec<Frame>>) -> Vec<(String, u64)> {
    let mut by_line: HashMap<&str, u64> = HashMap::new();
    for (site, n) in sites {
        let mut lines: Vec<&str> =
            frames.get(site).into_iter().flatten().map(|f| &*f.line).collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines.into_iter().filter(|l| !l.starts_with("??")) {
            *by_line.entry(line).or_default() += n;
        }
    }
    most_first(by_line.into_iter().map(|(l, n)| (l.to_string(), n)))
}

/// Counts by count, most first; ties in key order, so a report is stable.
fn most_first<K: Ord>(counts: impl IntoIterator<Item = (K, u64)>) -> Vec<(K, u64)> {
    let mut ranked: Vec<(K, u64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

/// An object's file name, without its directories.
fn short(object: &str) -> &str {
    object.rsplit('/').next().unwrap_or(object)
}

/// `addr2line -a -f -i -C` over `addrs` of `object`: each address and its
/// inline chain, innermost first. Nothing if the tool is missing or fails.
fn addr2line(object: &str, addrs: &[u64]) -> Vec<(u64, Vec<Frame>)> {
    let child = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e", object])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let Ok(mut child) = child else { return Vec::new() };
    let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
    // Written from a thread: a large batch fills both pipes at once.
    let stdin = child.stdin.take();
    let feeder = std::thread::spawn(move || {
        if let Some(mut stdin) = stdin {
            let _ = stdin.write_all(input.as_bytes());
        }
    });
    let output = child.wait_with_output();
    let _ = feeder.join();
    let Ok(output) = output else { return Vec::new() };
    let text = String::from_utf8_lossy(&output.stdout);
    // Each address is a `0x…` line followed by (function, file:line) pairs.
    let mut resolved: Vec<(u64, Vec<Frame>)> = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(hex) = line.strip_prefix("0x") else { continue };
        let Ok(addr) = u64::from_str_radix(hex, 16) else { continue };
        let mut chain = Vec::new();
        while lines.peek().is_some_and(|l| !l.starts_with("0x")) {
            let function = lines.next().unwrap_or_default().to_string();
            let line = lines.next().unwrap_or_default().to_string();
            if function != "??" {
                chain.push(Frame { function, line });
            }
        }
        resolved.push((addr, chain));
    }
    resolved
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tracer {
    //! The `ptrace` loop, reached through `extern "C"` as the benchmark
    //! reaches `sched_setaffinity`: no crate, and every call in one wrapper.

    use super::{Profile, Sampled, Site, INTERVAL};
    use std::collections::{HashMap, HashSet};
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::null_mut;

    const PTRACE_CONT: c_long = 7;
    const PTRACE_GETREGS: c_long = 12;
    const PTRACE_GETEVENTMSG: c_long = 0x4201;
    const PTRACE_SEIZE: c_long = 0x4206;
    const PTRACE_INTERRUPT: c_long = 0x4207;
    /// Follow new threads, follow an `exec`, and kill the command if the
    /// sampler dies first.
    const OPTIONS: c_long = 0x08 | 0x10 | 0x10_0000;
    const EVENT_CLONE: c_int = 3;
    const EVENT_EXEC: c_int = 4;
    const EVENT_STOP: c_int = 128;
    const WALL: c_int = 0x4000_0000;
    const WNOHANG: c_int = 1;
    /// `struct user_regs_struct`: 27 words, the instruction pointer the 17th.
    const REGS: usize = 27;
    const RIP: usize = 16;

    extern "C" {
        fn ptrace(request: c_long, ...) -> c_long;
        fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    }

    /// `ptrace(request, tid, 0, data)`; false if the kernel refused.
    fn request(request: c_long, tid: c_int, data: c_long) -> bool {
        // SAFETY: none of these requests reads or writes the caller's memory
        // (`data` is a number: options, a signal), and `tid` is a plain id.
        unsafe { ptrace(request, tid, null_mut::<c_void>(), data) != -1 }
    }

    /// A stopped thread's instruction pointer.
    fn rip(tid: c_int) -> Option<u64> {
        let mut regs = [0u64; REGS];
        // SAFETY: `regs` is a writable `user_regs_struct`-sized buffer that
        // outlives the call; the kernel writes exactly that much.
        let ok = unsafe { ptrace(PTRACE_GETREGS, tid, null_mut::<c_void>(), regs.as_mut_ptr()) };
        (ok != -1).then_some(regs[RIP])
    }

    /// The new thread's id a clone event carries.
    fn event_msg(tid: c_int) -> Option<c_int> {
        let mut msg: c_long = 0;
        // SAFETY: `msg` is a writable `unsigned long` that outlives the call.
        let ok = unsafe {
            ptrace(PTRACE_GETEVENTMSG, tid, null_mut::<c_void>(), &mut msg as *mut c_long)
        };
        (ok != -1).then_some(msg as c_int)
    }

    /// What `waitpid` said about the traced threads.
    enum Waited {
        /// A thread's state changed: its id and status.
        Report(c_int, c_int),
        /// Nothing has yet (`WNOHANG` only).
        NotYet,
        /// No traced thread is left.
        Gone,
    }

    /// The next state change of any traced thread.
    fn wait_any(options: c_int) -> Waited {
        let mut status: c_int = 0;
        // SAFETY: `status` is a writable int that outlives the call.
        match unsafe { waitpid(-1, &mut status, WALL | options) } {
            0 => Waited::NotYet,
            tid if tid > 0 => Waited::Report(tid, status),
            _ => Waited::Gone,
        }
    }

    /// True if the kernel shows thread `tid` of `pid` running.
    fn running(pid: c_int, tid: c_int) -> bool {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/stat"));
        // `tid (comm) S …`: the state follows the last parenthesis.
        stat.ok()
            .and_then(|s| s.rsplit_once(')').map(|(_, rest)| rest.trim_start().starts_with('R')))
            == Some(true)
    }

    /// One mapping of `/proc/<pid>/maps` that has a name.
    struct Mapping {
        start: u64,
        end: u64,
        offset: u64,
        name: String,
    }

    fn maps(pid: c_int) -> Vec<Mapping> {
        let text = std::fs::read_to_string(format!("/proc/{pid}/maps")).unwrap_or_default();
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        text.lines()
            .filter_map(|line| {
                let mut f = line.split_whitespace();
                let (range, _perms, offset) = (f.next()?, f.next()?, f.next()?);
                let name = f.nth(2)?.to_string();
                let (start, end) = range.split_once('-')?;
                Some(Mapping { start: hex(start)?, end: hex(end)?, offset: hex(offset)?, name })
            })
            .collect()
    }

    /// The file offset of `addr` becomes the address the object's symbols
    /// use through its `PT_LOAD` headers (they differ by a page or more in
    /// many a PIE); a mapping that is no ELF file keeps the offset.
    fn object_addr(loads: &mut HashMap<String, Vec<[u64; 3]>>, name: &str, off: u64) -> u64 {
        let loads = loads.entry(name.to_string()).or_insert_with(|| elf_loads(name));
        loads
            .iter()
            .find(|[file_off, _, size]| (*file_off..file_off + size).contains(&off))
            .map_or(off, |[file_off, vaddr, _]| off - file_off + vaddr)
    }

    /// `(p_offset, p_vaddr, p_filesz)` of every `PT_LOAD` of an ELF64 file.
    fn elf_loads(path: &str) -> Vec<[u64; 3]> {
        let Ok(elf) = std::fs::read(path) else { return Vec::new() };
        let word = |at: usize, n: usize| -> Option<u64> {
            let bytes = elf.get(at..at + n)?;
            Some(bytes.iter().rev().fold(0, |acc, b| acc << 8 | u64::from(*b)))
        };
        let header = (|| {
            (elf.get(..5)? == b"\x7fELF\x02").then_some(())?;
            Some((word(0x20, 8)? as usize, word(0x36, 2)? as usize, word(0x38, 2)? as usize))
        })();
        let Some((phoff, size, count)) = header else { return Vec::new() };
        (0..count)
            .filter_map(|i| {
                let ph = phoff + i * size;
                (word(ph, 4)? == 1).then_some([
                    word(ph + 8, 8)?,
                    word(ph + 16, 8)?,
                    word(ph + 32, 8)?,
                ])
            })
            .collect()
    }

    /// The sampler's view of the command: its threads, which of them owe a
    /// stop report, and where its objects are mapped.
    struct Tracee {
        pid: c_int,
        threads: HashSet<c_int>,
        pending: HashSet<c_int>,
        mappings: Vec<Mapping>,
        loads: HashMap<String, Vec<[u64; 3]>>,
        profile: Profile,
    }

    impl Tracee {
        /// Where instruction pointer `ip` lies.
        fn site(&mut self, ip: u64) -> Site {
            let within = |m: &&Mapping| (m.start..m.end).contains(&ip);
            if !self.mappings.iter().any(|m| within(&m)) {
                self.mappings = maps(self.pid);
            }
            match self.mappings.iter().find(within) {
                Some(m) if m.name.starts_with('/') => {
                    let addr = object_addr(&mut self.loads, &m.name, ip - m.start + m.offset);
                    Site { object: m.name.clone(), addr }
                }
                Some(m) => Site { object: m.name.clone(), addr: ip - m.start },
                None => Site { object: "[unmapped]".into(), addr: ip },
            }
        }

        /// Handles one `waitpid` report and lets the thread go on; true once
        /// the command has ended (its leader's report is the last).
        fn handle(&mut self, tid: c_int, status: c_int) -> bool {
            let (stopped, signal, event) =
                (status & 0xff == 0x7f, (status >> 8) & 0xff, status >> 16);
            if !stopped {
                self.threads.remove(&tid);
                self.pending.remove(&tid);
                if tid != self.pid {
                    return false;
                }
                self.profile.exit = match (status & 0x7f, (status >> 8) & 0xff) {
                    (0, code) => format!("exited with status {code}"),
                    (sig, _) => format!("was killed by signal {sig}"),
                };
                return true;
            }
            // An interrupted thread's first stop is its sample, whatever the
            // stop: an interrupt that lands beside a clone, an `exec` or a
            // signal may be reported as that stop alone, and waiting on for
            // a trap of its own would stall the sampler until the thread's
            // next event. (A trap that does come later finds the thread no
            // longer pending and only lets it go.)
            if self.pending.remove(&tid) {
                if let Some(ip) = rip(tid) {
                    let site = self.site(ip);
                    *self.profile.sites.entry(site).or_default() += 1;
                    self.profile.total += 1;
                }
            }
            let mut deliver = 0;
            match event {
                // An interrupt's trap, a new thread's first stop, or a
                // group stop: let it run.
                EVENT_STOP => {
                    self.threads.insert(tid);
                }
                EVENT_CLONE => self.threads.extend(event_msg(tid)),
                // A new image: its threads, mappings and objects.
                EVENT_EXEC => {
                    self.threads = HashSet::from([self.pid]);
                    self.pending.clear();
                    self.mappings = maps(self.pid);
                }
                // A signal on its way to the command: pass it on.
                0 => deliver = signal,
                _ => {}
            }
            request(PTRACE_CONT, tid, deliver as c_long);
            false
        }
    }

    pub(super) fn run(command: &[String]) -> Sampled {
        let Some((program, args)) = command.split_first() else {
            return Sampled::Skipped("no command to sample".into());
        };
        let mut child = match std::process::Command::new(program).args(args).spawn() {
            Ok(child) => child,
            Err(e) => return Sampled::Skipped(format!("`{program}` does not start: {e}")),
        };
        let pid = child.id() as c_int;
        if !request(PTRACE_SEIZE, pid, OPTIONS) {
            let why = std::io::Error::last_os_error();
            let _ = child.kill();
            let _ = child.wait();
            return Sampled::Skipped(format!("ptrace is denied here ({why})"));
        }
        let mut t = Tracee {
            pid,
            threads: HashSet::from([pid]),
            pending: HashSet::new(),
            mappings: maps(pid),
            loads: HashMap::new(),
            profile: Profile::default(),
        };
        // Threads the command started before the seize: each seized alone.
        for entry in std::fs::read_dir(format!("/proc/{pid}/task")).into_iter().flatten().flatten()
        {
            if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                if tid != pid && request(PTRACE_SEIZE, tid, OPTIONS) {
                    t.threads.insert(tid);
                }
            }
        }
        loop {
            std::thread::sleep(INTERVAL);
            // What happened since the last round (new threads wait stopped
            // until seen here), then this round's interrupts: every
            // interrupted thread reports its stop, or its end, before the
            // next round.
            let mut ended = false;
            loop {
                match wait_any(WNOHANG) {
                    Waited::Report(tid, status) => ended |= t.handle(tid, status),
                    Waited::NotYet => break,
                    Waited::Gone => ended = true,
                }
                if ended {
                    break;
                }
            }
            if !ended {
                for &tid in &t.threads {
                    if running(pid, tid) && request(PTRACE_INTERRUPT, tid, 0) {
                        t.pending.insert(tid);
                    }
                }
            }
            while !ended && !t.pending.is_empty() {
                match wait_any(0) {
                    Waited::Report(tid, status) => ended = t.handle(tid, status),
                    Waited::NotYet | Waited::Gone => ended = true,
                }
            }
            // The leader's report is the last one; the command is reaped.
            if ended {
                if t.profile.exit.is_empty() {
                    t.profile.exit = "ended unreported".into();
                }
                return Sampled::Profile(t.profile);
            }
        }
    }
}
