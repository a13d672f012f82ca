//! The command line behind `benchmark/run.sh`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, the driver's contract
//! run.sh [--seed N] [--workload W] [--seconds S]         every workload, end to end
//! run.sh --traced [...]                                  every workload, the traced run
//! run.sh --smoke                                         both, with very short rounds
//! run.sh compare A.json B.json                           apply BENCHMARK.json's bounds
//! run.sh repeat [...]                                    run twice and compare
//! ```
//!
//! A full run starts each workload in a process of its own (so
//! `peak_rss_mb` is that workload's and nobody inherits a warm heap),
//! collects the one-line results, prints every metric by name with its
//! unit, and writes a result file carrying the environment stamp.

use crate::json::Json;
use crate::machine;
use crate::measure::{self, Outcome, Plan};
use crate::workloads::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Measuring seconds of one run unless `--seconds` says otherwise; the
/// same number `BENCHMARK.json` gives the driver as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

/// The variables `run.sh` passes down; the only ones a run keeps.
const ENVIRONMENT: [&str; 3] = ["FLEXRPC_BENCH_DIR", "FLEXRPC_BENCH_RUSTC", "FLEXRPC_BENCH_COMMIT"];

#[derive(Debug)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: the single-run contract mode.
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        traced: false,
        smoke: false,
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; one of: {}",
                        workloads::NAMES.join(" ")
                    ));
                }
                o.workloads.push(name.clone());
            }
            "--seed" => o.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// The benchmark's own directory: where `out/` lives and whose parent
/// holds `BENCHMARK.json`. `run.sh` exports it; a bare binary falls back to
/// where it was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("FLEXRPC_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn main(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match options.positional.first().map(String::as_str) {
        Some("compare") => match &options.positional[1..] {
            [a, b] => crate::compare::run(
                Path::new(a),
                Path::new(b),
                &bench_dir().join("../BENCHMARK.json"),
            ),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("repeat") => repeat(&options),
        Some(other) => Err(format!("unknown command `{other}`")),
        None if options.smoke => smoke(&options),
        None => match options.trace {
            Some(trace) => single(&options, trace),
            None => full(&options, options.seconds, options.traced, None).map(|(ok, _)| ok),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(name: &str, plan: Plan, trace: bool) -> Outcome {
    fn go<W: Workload>(plan: Plan, trace: bool) -> Outcome {
        if trace {
            measure::traced::<W>(plan, &bench_dir().join("out"))
        } else {
            measure::end_to_end::<W>(plan)
        }
    }
    match name {
        "null_loopback" => go::<workloads::null_loopback::NullLoopback>(plan, trace),
        "engine_inline" => go::<workloads::engine_inline::EngineInline>(plan, trace),
        "engine_pipelined" => go::<workloads::engine_pipelined::EnginePipelined>(plan, trace),
        "sunrpc_tagged" => go::<workloads::sunrpc_tagged::SunRpcTagged>(plan, trace),
        "pipe_ipc_bulk" => go::<workloads::pipe_ipc_bulk::PipeIpcBulk>(plan, trace),
        "bind_churn" => go::<workloads::bind_churn::BindChurn>(plan, trace),
        other => unreachable!("`{other}` passed argument validation"),
    }
}

fn metrics_json(metrics: &[measure::Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]),
        )
    }))
}

/// The contract's single run: human-readable lines, then a details line,
/// then — last — the one-line result the driver reads.
fn single(options: &Options, trace: bool) -> Result<bool, String> {
    let [name] = options.workloads.as_slice() else {
        return Err("--trace runs exactly one --workload".into());
    };
    // Fixed-width arguments: the stack's start depends on their sizes.
    let args = [
        "--workload".into(),
        name.clone(),
        "--seed".into(),
        format!("{:020}", options.seed),
        "--seconds".into(),
        format!("{:010.4}", options.seconds),
        "--trace".into(),
        u8::from(trace).to_string(),
    ];
    machine::reenter_without_aslr(&args, &ENVIRONMENT);
    let cpu = machine::pin_to_one_cpu();
    let batch = machine::schedule_as_batch();
    let plan = Plan { seed: options.seed, seconds: options.seconds };
    let outcome = dispatch(name, plan, trace);
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("{:<18} {:<40} {:>18.4} {}", outcome.workload, m.name, m.value, m.unit);
    }
    for violation in &outcome.violations {
        println!("{:<18} VIOLATION {violation}", outcome.workload);
    }
    let details = Json::obj([
        ("extra", metrics_json(&outcome.extra)),
        ("warmup_units", Json::Num(outcome.warmup_units as f64)),
        ("inputs_digest", Json::Str(format!("{:016x}", outcome.inputs_digest))),
        ("violations", Json::Arr(outcome.violations.iter().cloned().map(Json::Str).collect())),
        ("pinned_cpu", cpu.map_or(Json::Null, |c| Json::Num(c as f64))),
        ("sched_batch", Json::Bool(batch)),
        ("aslr_off", Json::Bool(machine::aslr_is_off())),
    ]);
    println!("details {}", details.render());
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    println!("{}", result.render());
    Ok(outcome.correct())
}

/// Where and how this run was made; carried by every result file.
fn environment(options: &Options, seconds: f64, traced: bool) -> Json {
    let var = |name: &str| Json::Str(std::env::var(name).unwrap_or_else(|_| "unknown".into()));
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("rustc", var("FLEXRPC_BENCH_RUSTC")),
        ("commit", var("FLEXRPC_BENCH_COMMIT")),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("setups", Json::Num(measure::SETUPS as f64)),
        ("rounds", Json::Num(measure::ROUNDS as f64)),
        ("chunk_ms", Json::Num(measure::CHUNK.as_secs_f64() * 1e3)),
        ("quiet_share", Json::Num(measure::QUIET_SHARE)),
        ("reference_nominal_ns", Json::Num(crate::reference::NOMINAL_NS_PER_ITER)),
        ("min_trace_pairs", Json::Num(measure::MIN_TRACE_PAIRS as f64)),
        // Client thread + at most one engine worker, on one CPU, whatever
        // nproc is.
        ("threads", Json::Num(2.0)),
        ("cpus", Json::Num(1.0)),
    ])
}

/// Every selected workload, each in its own process; returns whether all
/// were correct and the path of the result file.
fn full(
    options: &Options,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
) -> Result<(bool, PathBuf), String> {
    let names: Vec<&str> = if options.workloads.is_empty() {
        workloads::NAMES.to_vec()
    } else {
        options.workloads.iter().map(String::as_str).collect()
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in names {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &options.seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().ok_or(format!("{name} printed nothing"))?;
        let details = lines
            .pop()
            .and_then(|l| l.strip_prefix("details "))
            .ok_or(format!("{name} printed no details line"))?;
        for line in lines {
            println!("{line}");
        }
        let mut result = Json::parse(result).map_err(|e| format!("{name}'s result: {e}"))?;
        let details = Json::parse(details).map_err(|e| format!("{name}'s details: {e}"))?;
        all_correct &= output.status.success() && result.get("correct") == Some(&Json::Bool(true));
        if let (Json::Obj(result), Json::Obj(details)) = (&mut result, details) {
            result.extend(details);
        }
        results.push((name, result));
    }
    let file = Json::obj([
        ("env", environment(options, seconds, traced)),
        ("results", Json::obj(results)),
    ]);
    let path = out.unwrap_or_else(|| {
        let kind = if traced { "traced" } else { "result" };
        bench_dir().join(format!("out/{kind}-seed{}.json", options.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} -> {}", if all_correct { "all correct" } else { "INCORRECT" }, path.display());
    Ok((all_correct, path))
}

/// Runs the whole benchmark twice and compares the two result files.
fn repeat(options: &Options) -> Result<bool, String> {
    let out = bench_dir().join("out");
    let file = |which: &str| Some(out.join(format!("repeat-{which}-seed{}.json", options.seed)));
    let (ok_a, a) = full(options, options.seconds, false, file("a"))?;
    let (ok_b, b) = full(options, options.seconds, false, file("b"))?;
    let within = crate::compare::run(&a, &b, &bench_dir().join("../BENCHMARK.json"))?;
    Ok(ok_a && ok_b && within)
}

/// Every workload, both runs, very short rounds: checks that every named
/// metric is present with a finite value and every run is correct.
fn smoke(options: &Options) -> Result<bool, String> {
    let out = bench_dir().join("out");
    let mut ok = true;
    for (traced, names) in [
        (false, measure::END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()),
        (true, crate::layers::PER_LAYER.iter().map(|(n, ..)| *n).collect()),
    ] {
        let kind = if traced { "traced" } else { "result" };
        let file = Some(out.join(format!("smoke-{kind}.json")));
        let (correct, path) = full(options, SMOKE_SECONDS, traced, file)?;
        ok &= correct;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let file = Json::parse(&text)?;
        let results = file.get("results").and_then(Json::as_obj).ok_or("no results")?;
        for (workload, result) in results {
            for name in &names {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if !value.is_some_and(f64::is_finite) {
                    println!("smoke: {workload} lacks a finite `{name}`");
                    ok = false;
                }
            }
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}
