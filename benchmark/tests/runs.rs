//! Whole runs of the built binary: determinism of the inputs and of every
//! exact metric, and the smoke run over every workload and metric.

use flexrpc_benchmark::inputs::Inputs;
use flexrpc_benchmark::json::Json;
use flexrpc_benchmark::workloads::sunrpc_tagged::SunRpcTagged;
use flexrpc_benchmark::workloads::Workload;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_flexrpc-benchmark");

/// One contract-mode run; returns (details line, result line).
fn run(workload: &str, seed: u64, trace: u8, out: &str) -> (Json, Json) {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string()])
        .env("FLEXRPC_BENCH_DIR", format!("{}/{out}", env!("CARGO_TARGET_TMPDIR")))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(output.status.success(), "{workload} failed:\n{stdout}");
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("result line")).expect("result parses");
    let details = lines.next().and_then(|l| l.strip_prefix("details ")).expect("details line");
    (Json::parse(details).expect("details parse"), result)
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no `{name}` in the result"))
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let generate = |seed| Inputs::generate(SunRpcTagged::NAME, SunRpcTagged::SPEC, seed);
    let (a, b, c) = (generate(7), generate(7), generate(8));
    assert_eq!(a.sizes, b.sizes);
    assert_eq!(a.payload, b.payload);
    assert_eq!(a.picks, b.picks);
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.sizes, c.sizes);
    assert_ne!(a.payload, c.payload);
    assert_ne!(a.digest(), c.digest());
    // Stratified: another seed is another order of the same sizes.
    let sorted = |inputs: &Inputs| {
        let mut sizes = inputs.sizes.clone();
        sizes.sort_unstable();
        sizes
    };
    assert_eq!(sorted(&a), sorted(&c));
    assert_eq!(a.sizes[0], SunRpcTagged::SPEC.size_hi, "the largest size primes every buffer");
}

#[test]
fn exact_metrics_repeat_exactly() {
    // End to end: allocation counts, and the inputs digest in the stamp.
    for workload in ["sunrpc_tagged", "pipe_ipc_bulk", "engine_pipelined"] {
        let (details_a, a) = run(workload, 3, 0, "exact-a");
        let (details_b, b) = run(workload, 3, 0, "exact-b");
        for name in ["allocs_per_op", "alloc_bytes_per_op"] {
            assert_eq!(value(&a, name), value(&b, name), "{workload} {name}");
        }
        assert_eq!(details_a.get("inputs_digest"), details_b.get("inputs_digest"));
        assert_eq!(a.get("failed"), Some(&Json::Num(0.0)));
        let (details_c, _) = run(workload, 4, 0, "exact-c");
        assert_ne!(details_a.get("inputs_digest"), details_c.get("inputs_digest"));
    }
    // Traced: the simulated wire's and the kernel's exact counters.
    let (_, a) = run("sunrpc_tagged", 3, 1, "exact-a");
    let (_, b) = run("sunrpc_tagged", 3, 1, "exact-b");
    for name in ["net.sim_wire_ns_per_op", "net.packets_per_op", "net.bytes_per_op"] {
        assert_eq!(value(&a, name), value(&b, name), "{name}");
        assert!(value(&a, name) > 0.0, "{name}");
    }
    let (_, a) = run("pipe_ipc_bulk", 3, 1, "exact-a");
    let (_, b) = run("pipe_ipc_bulk", 3, 1, "exact-b");
    for name in ["kernel.copied_bytes_per_op", "kernel.messages_per_op"] {
        assert_eq!(value(&a, name), value(&b, name), "{name}");
        assert!(value(&a, name) > 0.0, "{name}");
    }
}

#[test]
fn smoke_runs_every_workload_and_finds_every_metric() {
    let output = Command::new(BIN)
        .arg("--smoke")
        .env("FLEXRPC_BENCH_DIR", format!("{}/smoke", env!("CARGO_TARGET_TMPDIR")))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "smoke failed:\n{stdout}");
    assert!(stdout.trim_end().ends_with("smoke: ok"), "{stdout}");
    // The traced run left a span file per workload, one JSON object a line.
    for workload in flexrpc_benchmark::workloads::NAMES {
        let path = format!("{}/smoke/out/{workload}.trace.jsonl", env!("CARGO_TARGET_TMPDIR"));
        let text = std::fs::read_to_string(&path).expect("trace file");
        let first = Json::parse(text.lines().next().expect("a span")).expect("span parses");
        for key in ["id", "name", "request", "requests", "start_ns", "end_ns", "parent"] {
            assert!(first.get(key).is_some(), "{path}: span lacks `{key}`");
        }
    }
}
