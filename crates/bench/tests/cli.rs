//! The `report` command line: a flag it cannot honour is an error, never
//! silently ignored.

use std::process::Command;

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("report runs")
}

#[test]
fn malformed_flags_exit_2_with_the_usage_line() {
    // `cluster` is named in every case: were a flag ignored, the 16-seed
    // matrix would run and exit 0, as it used to.
    let cases: [&[&str]; 5] = [
        &["cluster", "--seed", "abc"],
        &["cluster", "--seed"],
        &["cluster", "--json"],
        &["cluster", "--seed", "--check"],
        &["cluster", "nonesuch"],
    ];
    for args in cases {
        let out = report(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: report"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the usage error");
    }
}

#[test]
fn seed_restricts_cluster_to_that_one_schedule() {
    let out = report(&["cluster", "--seed", "3", "--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("seed3-ok") && !stdout.contains("seed1-ok"), "{stdout}");
}
