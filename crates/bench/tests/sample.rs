//! `report sample`'s sampler, end to end: started on a child that spends its
//! time in one function, it names that function first.

use flexrpc_bench::sample::{sample, Sampled};
use std::time::{Duration, Instant};

/// Burns the CPU for `d` with nothing but arithmetic in its own frame (no
/// call a debug build would leave out of line, bar one clock read per
/// round): the function the sampler must put at the top.
#[inline(never)]
fn spin_for_the_sampler(d: Duration) -> u64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    while start.elapsed() < d {
        let mut i = 0u32;
        while i < 100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            i += 1;
        }
        x = std::hint::black_box(x);
    }
    x
}

/// The child the sampler traces: this binary, re-run with this test alone.
#[test]
#[ignore = "the child process of `the_sampler_names_the_function_a_child_spins_in`"]
fn spinning_child() {
    spin_for_the_sampler(Duration::from_millis(600));
}

#[test]
fn the_sampler_names_the_function_a_child_spins_in() {
    let exe = std::env::current_exe().expect("test binary");
    let exe = exe.to_str().expect("utf-8 path").to_string();
    let args = ["spinning_child", "--exact", "--ignored", "--test-threads=1", "-q"];
    let command: Vec<String> = std::iter::once(exe.clone()).chain(args.map(String::from)).collect();
    let profile = match sample(&command) {
        Sampled::Profile(profile) => profile,
        // Where `ptrace` is denied this says so; it never passes silently.
        Sampled::Skipped(why) => return eprintln!("sample: skipped: {why}"),
    };
    assert!(profile.exit.contains("status 0"), "the child {}", profile.exit);
    assert!(profile.total >= 100, "{} samples of a 600 ms spin", profile.total);
    let top = profile.top_functions();
    let (function, n) = &top[0];
    assert!(2 * n > profile.total, "{function}: {n} of {} samples", profile.total);
    // Without `addr2line` a site is named by its object: the binary itself.
    let named = std::process::Command::new("addr2line").arg("--version").output().is_ok();
    let want = if named { "spin_for_the_sampler" } else { exe.rsplit('/').next().unwrap() };
    assert!(function.contains(want), "top function {function}, not {want}: {top:?}");
    assert!(profile.render().contains(want), "the report names it too");
}
