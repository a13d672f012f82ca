//! `report sample`'s sampler, end to end: started on a child that spends its
//! time in one function, it names that function first, puts that
//! function's file first among the workspace's, and lists as many rows a
//! table as it is asked for.

use flexrpc_bench::sample::{sample, Sampled, OUTSIDE};
use std::path::Path;
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

/// Whether the ELF object at `path` carries DWARF line tables — a
/// `.debug_line` section, what `addr2line` names a frame's file from.
fn has_line_tables(path: &str) -> bool {
    let Ok(elf) = std::fs::read(path) else { return false };
    let word = |at: usize, n: usize| -> Option<usize> {
        let bytes = elf.get(at..at.checked_add(n)?)?;
        Some(bytes.iter().rev().fold(0, |acc, b| acc << 8 | usize::from(*b)))
    };
    // Each section header's name, as an offset into the file.
    let names = (|| {
        let (shoff, size, count) = (word(0x28, 8)?, word(0x3A, 2)?, word(0x3C, 2)?);
        let strtab = word(shoff + word(0x3E, 2)? * size + 0x18, 8)?;
        (0..count).map(|i| Some(strtab + word(shoff + i * size, 4)?)).collect::<Option<Vec<_>>>()
    })();
    names
        .into_iter()
        .flatten()
        .any(|at| elf.get(at..).is_some_and(|n| n.starts_with(b".debug_line\0")))
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = profile.render(2, root);
    assert!(report.contains(want), "the report names it too");

    // By file: the spin is charged to this file, named from the root.
    // Without `addr2line` no frame is known, and without line tables (a
    // release build's default) no frame has a file: every sample is outside.
    let files = profile.by_file(root);
    let (file, n) = &files[0];
    let want = if named && has_line_tables(&exe) { "tests/sample.rs" } else { OUTSIDE };
    assert_eq!(file, want, "{files:?}");
    assert!(2 * n > profile.total, "{file}: {n} of {} samples", profile.total);
    assert_eq!(files.iter().map(|(_, n)| n).sum::<u64>(), profile.total, "each sample once");
    assert!(report.contains(&format!("  {want}\n")), "the report lists it:\n{report}");

    // `--top 2`: two rows a table, whatever more there is to list.
    let tables: Vec<&str> = report.split("\n\n").skip(1).collect();
    assert_eq!(tables.len(), 4, "addresses, functions, lines, files:\n{report}");
    for table in tables {
        let rows = table.lines().skip(1).filter(|l| !l.starts_with(&" ".repeat(17))).count();
        assert!(rows <= 2, "{rows} rows where two were asked for:\n{table}");
    }
}
