//! Process accounting read from `/proc/self`.

/// Kernel clock ticks per second as exported to user space (`USER_HZ`),
/// 100 on every Linux target this repo builds for.
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU time of the whole process (all threads), in
/// nanoseconds, at tick resolution. 0 if `/proc` is unreadable.
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0 };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0 };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = 0u64;
    for _ in 0..2 {
        ticks += fields.next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    }
    ticks * (1_000_000_000 / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) in KiB. 0 if `/proc` is unreadable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
