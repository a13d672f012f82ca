//! Prints paper-style result rows for every measured figure.
//!
//! Usage: `report [figure...] [--json PATH] [--check] [--seed N]`
//! where figure is a name in [`EXPERIMENTS`] (fig2, fig6, fig7, fig10,
//! fig11, fig12, port, ablate, serve, shed, fuse, failover, trace, stream,
//! qos, scale, cluster); no names runs everything, an unknown name exits 2
//! listing the valid ones. `--seed N` restricts `cluster` to one seeded
//! schedule (the replay handle `scripts/chaos.sh` prints). `--json`
//! additionally writes the numbers as
//! JSON (schema 2; used to refresh EXPERIMENTS.md), together with a
//! snapshot of the metrics registry the experiments populated (counters
//! and log2 histograms). `--check` exits nonzero if a
//! figure's acceptance bar is missed (used by CI for `fuse` — the fused
//! path must not lose to the unfused one — for `failover`: exact duplicate
//! suppression and bounded, deterministic recovery — for `trace`:
//! byte-identical deterministic exports and a bounded tracing overhead —
//! for `stream`: deterministic credit stalls that hit their closed-form
//! prediction and zero lost or duplicated frames under injected `Close` —
//! and for `qos`: per-tenant isolation under a 10× noisy-neighbor storm
//! and exactly-once execution across a live policy swap + rebind —
//! and for `cluster`: zero lost and zero duplicated non-idempotent
//! executions across the seed matrix, p99 dwell under the recorded
//! bound, and a byte-identical deterministic replay).

use flexrpc_bench::{
    ablate, cluster, failover, fig10, fig11, fig12, fig2, fig6, fig7, fuse, measure_ns, port, qos,
    scale, serve, shed, stream, trace,
};
use flexrpc_core::fuse::SpecializeOptions;
use flexrpc_kernel::{NameMode, TrustLevel};
use flexrpc_marshal::WireFormat;
use flexrpc_nfs::client::ClientVariant;
use flexrpc_pipes::fbuf::FbufMode;
use flexrpc_pipes::server::ReadPresentation;
use flexrpc_trace::{MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;

#[derive(Default)]
struct Report {
    /// figure → row label → value (ns or MB/s as noted per figure).
    figures: BTreeMap<String, BTreeMap<String, f64>>,
    /// Snapshot of the metrics registry the experiments populated.
    metrics: Option<MetricsSnapshot>,
}

impl Report {
    fn put(&mut self, fig: &str, row: &str, value: f64) {
        self.figures.entry(fig.into()).or_default().insert(row.into(), value);
    }

    /// Serializes as pretty-printed JSON. Keys are plain ASCII figure/row
    /// labels and values finite f64s, so escaping only needs the basics.
    fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        // Schema 2: adds the top-level version marker and the `qos`
        // figure; metric counter names moved to the unified
        // `<component>.<event>` registry naming.
        let mut out = String::from("{\n  \"schema\": 2,\n  \"figures\": {");
        for (fi, (fig, rows)) in self.figures.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {{", esc(fig)));
            for (ri, (row, value)) in rows.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      \"{}\": {}", esc(row), value));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }");
        if let Some(snap) = &self.metrics {
            out.push_str(",\n  \"metrics\": {\n    \"counters\": {");
            for (i, (name, value)) in snap.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      \"{}\": {}", esc(name), value));
            }
            out.push_str("\n    },\n    \"histograms\": {");
            for (i, (name, h)) in snap.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let buckets: Vec<String> =
                    h.buckets.iter().map(|(lo, n)| format!("[{lo}, {n}]")).collect();
                out.push_str(&format!(
                    "\n      \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                    esc(name),
                    h.count,
                    h.sum,
                    buckets.join(", ")
                ));
            }
            out.push_str("\n    }\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// What every experiment runs against: where its rows go, the registry
/// its substrates populate, and the gate failures it has found so far.
struct Ctx {
    report: Report,
    metrics: MetricsRegistry,
    /// `--check`: a gated experiment with failures exits 1.
    check: bool,
    /// `--seed N`: restricts `cluster` to one seeded schedule.
    seed: Option<u64>,
    /// Acceptance bars the running experiment missed.
    failures: Vec<String>,
}

impl Ctx {
    /// The one gate epilogue, called last by every gated experiment: under
    /// `--check`, report its failures and exit 1, or say it passed.
    fn gate(&mut self) {
        if !self.check {
            self.failures.clear();
            return;
        }
        if self.failures.is_empty() {
            println!("  check: ok");
            return;
        }
        for f in &self.failures {
            eprintln!("  check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// The name the command line selects an experiment by, and what runs it.
type Experiment = (&'static str, fn(&mut Ctx));

/// Every experiment, in report order.
const EXPERIMENTS: &[Experiment] = &[
    ("fig2", run_fig2),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("fig10", run_fig10),
    ("fig11", run_fig11),
    ("fig12", run_fig12),
    ("port", run_port),
    ("ablate", run_ablate),
    ("serve", run_serve),
    ("shed", run_shed),
    ("fuse", run_fuse),
    ("failover", run_failover),
    ("trace", run_trace),
    ("stream", run_stream),
    ("qos", run_qos),
    ("scale", run_scale),
    ("cluster", run_cluster),
];

fn main() {
    let mut ctx = Ctx {
        report: Report::default(),
        metrics: MetricsRegistry::new(),
        check: false,
        seed: None,
        failures: Vec::new(),
    };
    let mut json_path = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => ctx.check = true,
            "--json" => json_path = args.next(),
            "--seed" => ctx.seed = args.next().and_then(|s| s.parse().ok()),
            _ => selected.push(arg),
        }
    }
    let known = |name: &String| EXPERIMENTS.iter().any(|(n, _)| n == name);
    if let Some(unknown) = selected.iter().find(|name| !known(name)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("report: unknown experiment `{unknown}`; valid names: {}", names.join(" "));
        std::process::exit(2);
    }

    for (name, run) in EXPERIMENTS {
        if selected.is_empty() || selected.iter().any(|s| s == name) {
            run(&mut ctx);
        }
    }

    let snap = ctx.metrics.snapshot();
    if !snap.counters.is_empty() || !snap.histograms.is_empty() {
        ctx.report.metrics = Some(snap);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, ctx.report.to_json()).expect("json written");
        println!("\nwrote {path}");
    }
}

fn run_fuse(ctx: &mut Ctx) {
    println!("\n== Specialization: op fusion + presize, fused vs unfused ==");
    let fused_ci = fuse::compile(SpecializeOptions::default());
    let plain_ci = fuse::compile(SpecializeOptions::none());
    println!("  dispatches per call (all four stub programs):");
    for op in &plain_ci.ops {
        let (ops, _) = fuse::dispatches_per_call(op);
        let (_, dispatches) =
            fuse::dispatches_per_call(fused_ci.op(&op.name).expect("same interface"));
        let reduction = (ops - dispatches) as f64 / ops as f64 * 100.0;
        println!(
            "    {:12} {ops:>3} ops → {dispatches:>3} dispatches  ({reduction:+.1}%)",
            op.name
        );
        ctx.report.put("fuse", &format!("{}-ops", op.name), ops as f64);
        ctx.report.put("fuse", &format!("{}-dispatches", op.name), dispatches as f64);
        if op.name == "read" && reduction < 30.0 {
            ctx.failures.push(format!("read dispatch reduction {reduction:.1}% < 30%"));
        }
    }

    println!("  calls/s, read({}B reply), CDR:", fuse::READ_SIZE);
    type Build = fn(SpecializeOptions, WireFormat) -> fuse::FuseRunner;
    let cells: [(&str, Build); 2] = [
        ("same-domain", fuse::FuseRunner::same_domain),
        ("kernel-ipc", fuse::FuseRunner::kernel_ipc),
    ];
    for (label, build) in cells {
        let mut fused = build(SpecializeOptions::default(), WireFormat::Cdr);
        let mut plain = build(SpecializeOptions::none(), WireFormat::Cdr);
        // Warm-up: fault buffers in and reach the steady-state (reused
        // frame and message buffers) that both variants are measured at.
        for _ in 0..200 {
            fused.call();
            plain.call();
        }
        let (mut ns_fused, mut ns_plain, mut speedup) =
            measure_paired_ratio(41, 2000, || fused.call(), || plain.call());
        if speedup < 1.0 {
            // The kernel-IPC win is a few percent; one noisy measurement
            // shouldn't fail the gate. Re-measure once with more rounds —
            // the longer median-of-ratios is what gets reported.
            (ns_fused, ns_plain, speedup) =
                measure_paired_ratio(81, 3000, || fused.call(), || plain.call());
        }
        let (cps_fused, cps_plain) = (1e9 / ns_fused, 1e9 / ns_plain);
        println!(
            "    {label:12} fused {cps_fused:>9.0}  unfused {cps_plain:>9.0}  ({speedup:.3}x)"
        );
        ctx.report.put("fuse", &format!("{label}-fused-calls-per-sec"), cps_fused);
        ctx.report.put("fuse", &format!("{label}-unfused-calls-per-sec"), cps_plain);
        if speedup < 1.0 {
            ctx.failures.push(format!("{label} fused path slower than unfused: {speedup:.3}x"));
        }
    }

    println!("  cache lookups/s (sharded read-mostly cache, 16 programs):");
    let cache = fuse::filled_cache(16);
    for threads in fuse::CACHE_THREADS {
        let r = fuse::scale_run(&cache, threads, 200_000);
        println!(
            "    {threads} thread(s)  {:>12.0} lookups/s   ({} contended reads)",
            r.lookups_per_sec, r.contended
        );
        ctx.report.put("fuse", &format!("cache-{threads}t-lookups-per-sec"), r.lookups_per_sec);
    }

    ctx.gate();
}

fn run_failover(ctx: &mut Ctx) {
    println!("\n== Failure model: reply-loss storm under at-most-once ==");
    let s = failover::storm(failover::STORM_CALLS, failover::CLOSE_EVERY);
    println!(
        "  {} calls, every {}rd reply lost: {} executions, {} suppressions (hit rate {:.3})",
        s.calls,
        failover::CLOSE_EVERY,
        s.executions,
        s.suppressions,
        s.hit_rate
    );
    ctx.report.put("failover", "storm-calls", s.calls as f64);
    ctx.report.put("failover", "storm-faults", s.faults as f64);
    ctx.report.put("failover", "storm-suppressions", s.suppressions as f64);
    ctx.report.put("failover", "storm-hit-rate", s.hit_rate);
    ctx.report.put("failover", "storm-duplicate-executions", s.executions as f64 - s.calls as f64);
    if s.executions != s.calls as u64 {
        ctx.failures.push(format!(
            "storm executed {} times for {} logical calls (duplicates slipped the cache)",
            s.executions, s.calls
        ));
    }
    if s.suppressions != s.faults as u64 {
        ctx.failures
            .push(format!("storm suppressed {} of {} lost replies", s.suppressions, s.faults));
    }

    println!("\n== Failure model: supervised failover, same-domain -> Sun RPC standby ==");
    println!("  {:>10} {:>14} {:>12}", "crash-at", "recovery(ns)", "dup-execs");
    for crash_at in failover::CRASH_POINTS {
        let r = failover::failover_once(crash_at);
        println!("  {:>10} {:>14} {:>12}", r.crash_at, r.recovery_ns, r.duplicate_executions);
        ctx.report.put(
            "failover",
            &format!("recovery-ns-crash-at-{crash_at}"),
            r.recovery_ns as f64,
        );
        if r.duplicate_executions != 0 {
            ctx.failures.push(format!(
                "crash at {} caused {} duplicate executions",
                crash_at, r.duplicate_executions
            ));
        }
        if r.recovery_ns == 0 || r.recovery_ns > failover::RECOVERY_BOUND_NS {
            ctx.failures.push(format!(
                "crash at {} recovered in {} ns (bound {} ns)",
                crash_at,
                r.recovery_ns,
                failover::RECOVERY_BOUND_NS
            ));
        }
    }
    println!("  (sim-time numbers: deterministic, so the bound is exact, not statistical)");

    ctx.gate();
}

fn run_trace(ctx: &mut Ctx) {
    use flexrpc_trace::Stage;
    println!("\n== Observability: per-stage breakdown, read({}B reply), CDR ==", trace::READ_SIZE);
    println!(
        "  {:12} {:>10} {:>10} {:>10} {:>14}",
        "transport", "marshal", "wire", "unmarshal", "marshal-share"
    );
    for path in [trace::Path::SameDomain, trace::Path::SunRpc] {
        let b = trace::wall_breakdown(path);
        let per_call = |stage: Stage| b.totals[stage as usize] as f64 / trace::CALLS as f64;
        println!(
            "  {:12} {:>8.0}ns {:>8.0}ns {:>8.0}ns {:>13.1}%",
            path.label(),
            per_call(Stage::Marshal),
            per_call(Stage::Transport),
            per_call(Stage::Unmarshal),
            b.marshal_share * 100.0
        );
        for stage in [Stage::Marshal, Stage::Transport, Stage::Unmarshal] {
            ctx.report.put(
                "trace",
                &format!("{}-{}-ns-per-call", path.label(), stage.name()),
                per_call(stage),
            );
        }
        ctx.report.put(
            "trace",
            &format!("{}-marshal-share-pct", path.label()),
            b.marshal_share * 100.0,
        );
    }
    println!("  (wall-clock spans; the wire column includes the far side's dispatch)");

    // Determinism: the same sim-clock workload, twice, must export the
    // exact same bytes — and its wire time is a number, not a measurement.
    let (stream_a, wire_ns) = trace::sim_run(64);
    let (stream_b, _) = trace::sim_run(64);
    let identical = stream_a == stream_b && !stream_a.is_empty();
    println!(
        "  sunrpc sim wire time {wire_ns:.0} ns/call (exact); runs byte-identical: {identical}"
    );
    ctx.report.put("trace", "sunrpc-sim-wire-ns-per-call", wire_ns);
    if !identical {
        ctx.failures.push("two identical sim runs exported different trace streams".to_string());
    }

    println!("\n== Observability: tracing overhead, same-domain read ==");
    let mut traced = trace::TraceRunner::new(trace::Path::SameDomain, true);
    let mut plain = trace::TraceRunner::new(trace::Path::SameDomain, false);
    for _ in 0..200 {
        traced.call();
        plain.call();
    }
    let (mut ns_plain, mut ns_traced, mut overhead) =
        measure_paired_ratio(41, 2000, || plain.call(), || traced.call());
    if overhead > trace::OVERHEAD_BOUND {
        // The true cost is a few nanoseconds per span; one noisy run
        // shouldn't fail the gate. Re-measure once with more rounds.
        (ns_plain, ns_traced, overhead) =
            measure_paired_ratio(81, 3000, || plain.call(), || traced.call());
    }
    println!(
        "  untraced {ns_plain:>8.0} ns/call   traced {ns_traced:>8.0} ns/call   overhead {:.3}x (bound {:.2}x)",
        overhead,
        trace::OVERHEAD_BOUND
    );
    ctx.report.put("trace", "samedomain-untraced-ns-per-call", ns_plain);
    ctx.report.put("trace", "samedomain-traced-ns-per-call", ns_traced);
    ctx.report.put("trace", "samedomain-overhead-ratio", overhead);
    if overhead > trace::OVERHEAD_BOUND {
        ctx.failures.push(format!(
            "tracing overhead {overhead:.3}x exceeds the {:.2}x bound",
            trace::OVERHEAD_BOUND
        ));
    }

    ctx.gate();
}

fn run_stream(ctx: &mut Ctx) {
    let cfg = stream::feed_config();
    println!("\n== Streams: broadcast edit feed — [stream] publisher, [oneway] fan-out ==");
    let t0 = std::time::Instant::now();
    let r = stream::edit_feed(Some(&ctx.metrics));
    let wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    println!(
        "  {} subscribers × {} edits (window {} = min({}, {}), reply lost every {}th frame)",
        r.subscribers, r.edits, r.window, cfg.client_window, cfg.server_window, cfg.close_every
    );
    println!(
        "  {} callbacks in {:.3} sim-ms: {:.0} callbacks/sim-s  ({:.0}/wall-s, {wall_ms:.1} ms)",
        r.callbacks_delivered,
        r.sim_ns as f64 / 1e6,
        r.callbacks_per_sec,
        r.callbacks_delivered as f64 / (wall_ms / 1e3)
    );
    println!(
        "  lost {}  duplicated {}  executions {}  credit stalls {} ({} sim-ns waited)",
        r.lost, r.duplicated, r.executions, r.credit_stalls, r.credits_waited_ns
    );
    ctx.report.put("stream", "editfeed-subscribers", r.subscribers as f64);
    ctx.report.put("stream", "editfeed-window", r.window as f64);
    ctx.report.put("stream", "editfeed-callbacks-delivered", r.callbacks_delivered as f64);
    ctx.report.put("stream", "editfeed-callbacks-per-sim-sec", r.callbacks_per_sec);
    ctx.report.put(
        "stream",
        "editfeed-callbacks-per-wall-sec",
        r.callbacks_delivered as f64 / (wall_ms / 1e3),
    );
    ctx.report.put("stream", "editfeed-lost", r.lost as f64);
    ctx.report.put("stream", "editfeed-duplicated", r.duplicated as f64);
    ctx.report.put("stream", "editfeed-credit-stalls", r.credit_stalls as f64);
    ctx.report.put("stream", "editfeed-credits-waited-ns", r.credits_waited_ns as f64);
    if r.lost != 0 || r.duplicated != 0 {
        ctx.failures
            .push(format!("edit feed lost {} / duplicated {} frames", r.lost, r.duplicated));
    }
    if r.executions != r.edits as u64 {
        ctx.failures
            .push(format!("edit feed executed {} times for {} edits", r.executions, r.edits));
    }
    if r.callbacks_delivered != (r.edits * r.subscribers) as u64 {
        ctx.failures.push(format!(
            "edit feed delivered {} callbacks, expected {}",
            r.callbacks_delivered,
            r.edits * r.subscribers
        ));
    }
    if r.window != cfg.client_window.min(cfg.server_window) {
        ctx.failures
            .push(format!("edit feed negotiated window {}, expected the minimum", r.window));
    }
    let rerun = stream::edit_feed(None);
    let deterministic = rerun == r;
    println!("  rerun identical: {deterministic}  (sim-time numbers, no noise)");
    if !deterministic {
        ctx.failures.push("two identical edit-feed runs disagreed".to_string());
    }

    println!("\n== Streams: remote file service — credit stalls and at-most-once writes ==");
    let e = stream::file_exact();
    println!(
        "  fault-free: {} frames, window {}, drain {} ns — stalled {} sim-ns (predicted {})",
        e.frames,
        e.window,
        stream::FILE_DRAIN_NS,
        e.credits_waited_ns,
        e.predicted_stall_ns
    );
    ctx.report.put("stream", "file-exact-waited-ns", e.credits_waited_ns as f64);
    ctx.report.put("stream", "file-exact-predicted-ns", e.predicted_stall_ns as f64);
    if e.credits_waited_ns != e.predicted_stall_ns {
        ctx.failures.push(format!(
            "fault-free stall {} ns missed the closed form {} ns",
            e.credits_waited_ns, e.predicted_stall_ns
        ));
    }
    if e.sim_ns != e.frames as u64 * stream::FILE_DRAIN_NS {
        ctx.failures.push(format!(
            "drained stream occupied {} sim-ns, expected frames*drain = {}",
            e.sim_ns,
            e.frames as u64 * stream::FILE_DRAIN_NS
        ));
    }
    let f = stream::file_faulted();
    println!(
        "  reply-loss: {} Close faults over {} frames — contents identical: {}, {} executions",
        f.faults, f.frames, f.contents_ok, f.executions
    );
    ctx.report.put("stream", "file-faulted-close-faults", f.faults as f64);
    ctx.report.put("stream", "file-faulted-executions", f.executions as f64);
    if !f.contents_ok || f.executions != f.frames as u64 {
        ctx.failures.push(format!(
            "faulted file stream: contents_ok={}, {} executions for {} frames",
            f.contents_ok, f.executions, f.frames
        ));
    }

    ctx.gate();
}

fn run_qos(ctx: &mut Ctx) {
    println!("\n== Multi-tenant QoS: noisy neighbor at 10x, weighted-fair drain ==");
    let r = qos::noisy_neighbor();
    println!(
        "  A offered {} against quota {}: admitted {}, shed {} (charged to A)",
        r.offered_a,
        qos::QUOTA_A,
        r.admitted_a,
        r.shed_a
    );
    println!(
        "  B offered {}: admitted {}, shed {}, served {}",
        qos::OFFERED_B,
        r.admitted_b,
        r.shed_b,
        r.served_b
    );
    println!(
        "  dwell (sim-ns): A mean {}  B mean {}  B p99 ceiling {} (bound {})",
        r.a_dwell_mean_ns,
        r.b_dwell_mean_ns,
        r.b_dwell_p99_ns,
        qos::DWELL_BOUND_NS
    );
    ctx.report.put("qos", "a-offered", r.offered_a as f64);
    ctx.report.put("qos", "a-admitted", r.admitted_a as f64);
    ctx.report.put("qos", "a-shed", r.shed_a as f64);
    ctx.report.put("qos", "b-admitted", r.admitted_b as f64);
    ctx.report.put("qos", "b-shed", r.shed_b as f64);
    ctx.report.put("qos", "b-served", r.served_b as f64);
    ctx.report.put("qos", "a-dwell-mean-ns", r.a_dwell_mean_ns as f64);
    ctx.report.put("qos", "b-dwell-mean-ns", r.b_dwell_mean_ns as f64);
    ctx.report.put("qos", "b-dwell-p99-ns", r.b_dwell_p99_ns as f64);
    ctx.report.put("qos", "b-dwell-bound-ns", qos::DWELL_BOUND_NS as f64);
    if r.b_dwell_p99_ns > qos::DWELL_BOUND_NS {
        ctx.failures.push(format!(
            "B's p99 dwell {} sim-ns exceeds the bound {}",
            r.b_dwell_p99_ns,
            qos::DWELL_BOUND_NS
        ));
    }
    if r.shed_b != 0 {
        ctx.failures.push(format!("A's storm shed {} of B's calls", r.shed_b));
    }
    if r.shed_a != (qos::OFFERED_A - qos::QUOTA_A) as u64 || r.engine_shed != r.shed_a {
        ctx.failures.push(format!(
            "A shed {} (engine {}), expected exactly its overflow {}",
            r.shed_a,
            r.engine_shed,
            qos::OFFERED_A - qos::QUOTA_A
        ));
    }
    if r.served_b != qos::OFFERED_B as u64 {
        ctx.failures.push(format!("B had {} of {} calls served", r.served_b, qos::OFFERED_B));
    }
    let rerun = qos::noisy_neighbor();
    let deterministic = rerun == r;
    println!("  rerun identical: {deterministic}  (sim-time numbers, no noise)");
    if !deterministic {
        ctx.failures.push("two identical noisy-neighbor runs disagreed".to_string());
    }

    println!("\n== Multi-tenant QoS: live policy swap + rebind under load ==");
    println!(
        "  {:>10} {:>12} {:>6} {:>11} {:>8}",
        "rebind-at", "executions", "lost", "duplicated", "rebinds"
    );
    for rebind_at in qos::REBIND_POINTS {
        let r = qos::rebind_under_load(rebind_at, qos::REBIND_CALLS);
        println!(
            "  {:>10} {:>12} {:>6} {:>11} {:>8}",
            r.rebind_at, r.executions, r.lost, r.duplicated, r.rebinds
        );
        ctx.report.put("qos", &format!("rebind-at-{rebind_at}-lost"), r.lost as f64);
        ctx.report.put("qos", &format!("rebind-at-{rebind_at}-duplicated"), r.duplicated as f64);
        if r.lost != 0 || r.duplicated != 0 || r.executions != qos::REBIND_CALLS as u64 {
            ctx.failures.push(format!(
                "rebind at {} executed {} of {} calls ({} lost, {} duplicated)",
                r.rebind_at,
                r.executions,
                qos::REBIND_CALLS,
                r.lost,
                r.duplicated
            ));
        }
        if r.rebinds != 1 {
            ctx.failures.push(format!("rebind at {} counted {} rebinds", r.rebind_at, r.rebinds));
        }
    }
    println!("  (a swapped tenant policy and a renegotiated combination, mid-backlog,");
    println!("   cost zero lost and zero duplicated non-idempotent executions)");

    ctx.gate();
}

fn run_fig2(ctx: &mut Ctx) {
    println!("== Figure 2: NFS 8MB read — client processing per variant ==");
    println!("(wire+server time is the deterministic clock, identical per variant)");
    let file_len = fig2::FILE_LEN;
    // Interleave rounds across variants so CPU-frequency drift and cache
    // state cannot systematically favor whichever variant runs last.
    const ROUNDS: usize = 9;
    let mut harnesses: Vec<fig2::Fig2> =
        ClientVariant::ALL.iter().map(|_| fig2::Fig2::new(file_len)).collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); ClientVariant::ALL.len()];
    // Warm-up pass.
    for (i, v) in ClientVariant::ALL.iter().enumerate() {
        harnesses[i].run(*v, file_len);
    }
    for _ in 0..ROUNDS {
        for (i, v) in ClientVariant::ALL.iter().enumerate() {
            // Client processing = measured total minus the far side's real
            // CPU time, matching the figure's bar decomposition.
            let service0 = harnesses[i].service_ns();
            let t0 = std::time::Instant::now();
            harnesses[i].run(*v, file_len);
            let total = t0.elapsed().as_nanos() as f64;
            let service = (harnesses[i].service_ns() - service0) as f64;
            samples[i].push(total - service);
        }
    }
    let mut base_ms = 0.0;
    for (i, variant) in ClientVariant::ALL.iter().enumerate() {
        samples[i].sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let cpu_ms = samples[i][ROUNDS / 2] / 1e6;
        if *variant == ClientVariant::ConventionalGenerated {
            base_ms = cpu_ms;
        }
        let delta = if base_ms > 0.0 { (base_ms - cpu_ms) / base_ms * 100.0 } else { 0.0 };
        println!(
            "  {:26} client-cpu {:9.3} ms   vs conventional-generated: {:+.1}%",
            variant.label(),
            cpu_ms,
            delta
        );
        ctx.report.put("fig2", &format!("{}-client-cpu-ms", variant.label()), cpu_ms);
    }
    // One clean run for the constant wire + server component.
    let mut f = fig2::Fig2::new(file_len);
    let w0 = f.wire_ns();
    f.run(ClientVariant::ConventionalGenerated, file_len);
    let wire_ms = (f.wire_ns() - w0) as f64 / 1e6;
    println!("  network+server (simulated)   {wire_ms:9.3} ms  (constant across variants)");
    ctx.report.put("fig2", "wire-ms", wire_ms);
}

/// Interleaved paired measurement: the per-iteration median nanoseconds of
/// each closure, and the median of *per-round* b/a ratios. Each round times
/// `a` and `b` back to back, so slow drift in CPU frequency or cache state
/// hits both sides of a ratio equally; the median ratio is far more stable
/// than the ratio of independent medians when the true difference is a few
/// percent.
fn measure_paired_ratio(
    rounds: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, f64) {
    let mut sa = Vec::with_capacity(rounds);
    let mut sb = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate which side runs first so ordering bias cancels too.
        let (na, nb) = if round % 2 == 0 {
            let na = time_ns(iters, &mut a);
            let nb = time_ns(iters, &mut b);
            (na, nb)
        } else {
            let nb = time_ns(iters, &mut b);
            let na = time_ns(iters, &mut a);
            (na, nb)
        };
        sa.push(na);
        sb.push(nb);
        ratios.push(nb / na);
    }
    sa.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    (sa[rounds / 2], sb[rounds / 2], ratios[rounds / 2])
}

fn time_ns(iters: usize, f: &mut impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn run_fig6(ctx: &mut Ctx) {
    println!("\n== Figure 6: pipe server over kernel IPC (throughput) ==");
    let total = 512 * 1024;
    for cap in fig6::PIPE_CAPS {
        let mut h_default = fig6::harness(cap, ReadPresentation::Default);
        let mut h_never = fig6::harness(cap, ReadPresentation::DeallocNever);
        fig6::run(&mut h_default, total); // Warm-up.
        fig6::run(&mut h_never, total);
        let (ns_default, ns_never, _) = measure_paired_ratio(
            15,
            4,
            || {
                fig6::run(&mut h_default, total);
            },
            || {
                fig6::run(&mut h_never, total);
            },
        );
        let per_mode =
            [total as f64 / (ns_default / 1e9) / 1e6, total as f64 / (ns_never / 1e9) / 1e6];
        for (mode, mbs) in
            [ReadPresentation::Default, ReadPresentation::DeallocNever].iter().zip(per_mode)
        {
            println!("  {}K pipe, {:24} {:8.1} MB/s", cap / 1024, mode.label(), mbs);
            ctx.report.put("fig6", &format!("{}k-{}-mbps", cap / 1024, mode.label()), mbs);
        }
        println!(
            "  {}K pipe: dealloc(never) improvement: {:+.1}%  (paper: +{}%)",
            cap / 1024,
            (per_mode[1] - per_mode[0]) / per_mode[0] * 100.0,
            if cap == 4096 { 21 } else { 24 }
        );
    }
}

fn run_fig7(ctx: &mut Ctx) {
    println!("\n== Figure 7: pipe server over fbufs (throughput) ==");
    let total = 512 * 1024;
    for cap in fig7::PIPE_CAPS {
        let mut h_std = fig7::harness(cap, FbufMode::Standard);
        let mut h_sp = fig7::harness(cap, FbufMode::Special);
        fig7::run(&mut h_std, total); // Warm-up.
        fig7::run(&mut h_sp, total);
        let (ns_std, ns_sp, _) = measure_paired_ratio(
            15,
            4,
            || fig7::run(&mut h_std, total),
            || fig7::run(&mut h_sp, total),
        );
        let per_mode = [total as f64 / (ns_std / 1e9) / 1e6, total as f64 / (ns_sp / 1e9) / 1e6];
        for (mode, mbs) in [FbufMode::Standard, FbufMode::Special].iter().zip(per_mode) {
            println!("  {}K pipe, {:24} {:8.1} MB/s", cap / 1024, mode.label(), mbs);
            ctx.report.put("fig7", &format!("{}k-{}-mbps", cap / 1024, mode.label()), mbs);
        }
        println!(
            "  {}K pipe: [special] improvement: {:+.1}%  (paper: +{}%)",
            cap / 1024,
            (per_mode[1] - per_mode[0]) / per_mode[0] * 100.0,
            if cap == 4096 { 92 } else { 160 }
        );
    }
    let mut bsd = fig7::BsdRef::new();
    bsd.run(total); // Warm-up.
    let ns = measure_ns(7, 2, || bsd.run(total));
    let mbs = total as f64 / (ns / 1e9) / 1e6;
    println!("  BSD monolithic pipe (4K)       {mbs:8.1} MB/s  (reference)");
    ctx.report.put("fig7", "bsd-monolithic-mbps", mbs);
}

fn run_fig10(ctx: &mut Ctx) {
    println!("\n== Figure 10: same-domain 1KB in-param — mutability semantics (ns/call) ==");
    println!("  {:32} {:>12} {:>12} {:>12}", "group", "fixed-copy", "fixed-borrow", "flexible");
    for g in fig10::Group::ALL {
        let mut row = Vec::new();
        for system in fig10::System::ALL {
            let mut r = fig10::Runner::new(system, g, fig10::PARAM_SIZE);
            let ns = measure_ns(5, 2000, || r.call());
            row.push(ns);
            ctx.report.put("fig10", &format!("{}-{}", g.label(), system.label()), ns);
        }
        println!("  {:32} {:>12.0} {:>12.0} {:>12.0}", g.label(), row[0], row[1], row[2]);
    }
}

fn run_fig11(ctx: &mut Ctx) {
    println!("\n== Figure 11: same-domain 1KB out-param — allocation semantics (ns/call) ==");
    println!("  {:32} {:>14} {:>14} {:>12}", "group", "server-alloc", "client-alloc", "flexible");
    for g in fig11::Group::ALL {
        let mut row = Vec::new();
        for system in fig11::System::ALL {
            let mut r = fig11::Runner::new(system, g, fig11::PARAM_SIZE);
            let ns = measure_ns(5, 2000, || r.call());
            row.push(ns);
            ctx.report.put("fig11", &format!("{}-{}", g.label(), system.label()), ns);
        }
        println!("  {:32} {:>14.0} {:>14.0} {:>12.0}", g.label(), row[0], row[1], row[2]);
    }
}

fn run_fig12(ctx: &mut Ctx) {
    println!("\n== Figure 12: null RPC × trust matrix (ns/call) ==");
    println!("  client-trust \\ server-trust    none      leaky  leaky+unprot");
    let mut corner = (0.0, 0.0);
    for client in TrustLevel::ALL {
        let mut row = Vec::new();
        for server in TrustLevel::ALL {
            let cell = fig12::Cell::new(client, server);
            let ns = measure_ns(5, 5000, || cell.null_rpc());
            row.push(ns);
            ctx.report.put(
                "fig12",
                &format!("client-{}-server-{}", client.label(), server.label()),
                ns,
            );
            if client == TrustLevel::None && server == TrustLevel::None {
                corner.0 = ns;
            }
            if client == TrustLevel::LeakyUnprotected && server == TrustLevel::LeakyUnprotected {
                corner.1 = ns;
            }
        }
        println!("  {:28} {:>8.0} {:>10.0} {:>13.0}", client.label(), row[0], row[1], row[2]);
    }
    println!(
        "  no-trust → full-trust improvement: {:+.1}%  (paper: ~30%)",
        (corner.0 - corner.1) / corner.0 * 100.0
    );
}

fn run_ablate(ctx: &mut Ctx) {
    println!("\n== Ablation: the pipe path, one presentation knob at a time ==");
    let total = 512 * 1024;
    let mut prev: Option<f64> = None;
    for step in ablate::PipeStep::ALL {
        let mut h = step.harness(4096);
        h.transfer(total, 2048).expect("warm-up");
        let ns = measure_ns(9, 2, || {
            h.transfer(total, 2048).expect("transfer");
        });
        let mbs = total as f64 / (ns / 1e9) / 1e6;
        let delta = prev.map(|p| format!("{:+.1}% vs previous", (mbs - p) / p * 100.0));
        println!("  {:18} {:8.1} MB/s   {}", step.label(), mbs, delta.unwrap_or_default());
        ctx.report.put("ablate", &format!("pipe-{}-mbps", step.label()), mbs);
        prev = Some(mbs);
    }

    println!("\n== Ablation: trust spread vs payload size (echo RPC, ns/call) ==");
    println!("  {:>8} {:>12} {:>12} {:>8}", "bytes", "no-trust", "full-trust", "spread");
    for size in [0usize, 256, 1024, 4096, 16384] {
        let mut hard = ablate::SweepCell::new(
            flexrpc_kernel::TrustLevel::None,
            flexrpc_kernel::TrustLevel::None,
            size,
        );
        let mut soft = ablate::SweepCell::new(
            flexrpc_kernel::TrustLevel::LeakyUnprotected,
            flexrpc_kernel::TrustLevel::LeakyUnprotected,
            size,
        );
        let a = measure_ns(5, 3000, || hard.call());
        let b = measure_ns(5, 3000, || soft.call());
        println!("  {:>8} {:>12.0} {:>12.0} {:>7.1}%", size, a, b, (a - b) / a * 100.0);
        ctx.report.put("ablate", &format!("trust-spread-{size}b-pct"), (a - b) / a * 100.0);
    }
    println!("  (the paper's closing claim: the faster/lighter the transfer, the more");
    println!("   presentation matters — the spread shrinks as payload grows)");
}

fn run_port(ctx: &mut Ctx) {
    println!("\n== §4.5: port-right transfer, unique vs [nonunique] (ns/transfer) ==");
    let mut vals = Vec::new();
    for (label, mode) in [("unique", NameMode::Unique), ("nonunique", NameMode::NonUnique)] {
        let t = port::PortTransfer::new(mode);
        t.transfer_once();
        let ns = measure_ns(5, 5000, || t.transfer_once());
        vals.push(ns);
        println!("  {label:12} {ns:>10.0} ns   ({} probes/transfer)", t.probes_per_transfer());
        ctx.report.put("port", label, ns);
    }
    println!(
        "  [nonunique] improvement: {:+.1}%  (paper: 32.4µs → 24.7µs, 24%)",
        (vals[0] - vals[1]) / vals[0] * 100.0
    );
}

fn run_serve(ctx: &mut Ctx) {
    println!("\n== Engine scaling: one engine, clients × workers (calls/s) ==");
    println!("  (seeded client interleave — rerun noise comes from the box, not the schedule)");
    println!(
        "  {:>8} {:>8} {:>12} {:>8} {:>10} {:>10}",
        "workers", "clients", "calls/s", "vs-w1", "hit-rate", "programs"
    );
    // w1 baselines per client count, filled on the first (workers=1) pass:
    // every cell is also reported as a speedup ratio against its client
    // count's one-worker cell, which is far more stable run-to-run than
    // the absolute calls/s on a shared box.
    let mut baseline: BTreeMap<usize, f64> = BTreeMap::new();
    for workers in serve::WORKERS {
        for clients in serve::CLIENTS {
            let r = serve::run(workers, clients, serve::CALLS_PER_CLIENT);
            let base = *baseline.entry(clients).or_insert(r.calls_per_sec);
            let speedup = r.calls_per_sec / base;
            println!(
                "  {:>8} {:>8} {:>12.0} {:>7.2}x {:>9.0}% {:>10}",
                workers,
                clients,
                r.calls_per_sec,
                speedup,
                r.cache_hit_rate * 100.0,
                r.compilations
            );
            let cell = format!("w{workers}-c{clients}");
            ctx.report.put("serve", &format!("{cell}-calls-per-sec"), r.calls_per_sec);
            ctx.report.put("serve", &format!("{cell}-speedup-vs-w1"), speedup);
            ctx.report.put("serve", &format!("{cell}-cache-hit-rate"), r.cache_hit_rate);
        }
    }
    println!("  (each combination compiles once per engine; hit rate counts reused connections)");
}

fn run_scale(ctx: &mut Ctx) {
    let sweep = scale::worker_sweep();
    println!("\n== Shard scaling: per-core shards, stealing, inline dispatch ==");
    println!(
        "  ({} clients; blocking {} calls/client inline-eligible, pipelined {}x{} tagged)",
        scale::CLIENTS,
        scale::CALLS_PER_CLIENT,
        scale::BATCHES,
        scale::BATCH
    );
    println!(
        "  {:>8} {:>14} {:>14} {:>8} {:>8}",
        "workers", "blocking c/s", "pipelined c/s", "inline", "steals"
    );
    let mut cells = Vec::new();
    for &w in &sweep {
        let r = scale::run(w, scale::CLIENTS, scale::CALLS_PER_CLIENT);
        println!(
            "  {:>8} {:>14.0} {:>14.0} {:>8} {:>8}",
            w, r.blocking_cps, r.pipelined_cps, r.inline_calls, r.steals
        );
        ctx.report.put("scale", &format!("w{w}-blocking-calls-per-sec"), r.blocking_cps);
        ctx.report.put("scale", &format!("w{w}-pipelined-calls-per-sec"), r.pipelined_cps);
        ctx.report.put("scale", &format!("w{w}-inline-calls"), r.inline_calls as f64);
        ctx.report.put("scale", &format!("w{w}-steals"), r.steals as f64);
        if r.inline_calls as usize != scale::CLIENTS * scale::CALLS_PER_CLIENT {
            ctx.failures.push(format!(
                "w{w}: {} of {} blocking calls dispatched inline",
                r.inline_calls,
                scale::CLIENTS * scale::CALLS_PER_CLIENT
            ));
        }
        cells.push(r);
    }
    // Gate 1: blocking throughput monotone non-decreasing (within the
    // noise tolerance) from one worker up to the core count.
    let mut best = 0.0f64;
    for r in &cells {
        if r.blocking_cps < best * scale::MONO_TOLERANCE {
            ctx.failures.push(format!(
                "w{} blocking throughput {:.0} regressed below {:.0}% of the best earlier cell {:.0}",
                r.workers,
                r.blocking_cps,
                scale::MONO_TOLERANCE * 100.0,
                best
            ));
        }
        best = best.max(r.blocking_cps);
    }
    // Gate 2: the fixed 8-worker cell (measured even on smaller boxes —
    // the inline path carries it) must clear the absolute floor.
    let gate =
        cells.iter().find(|r| r.workers == scale::GATE_WORKERS).copied().unwrap_or_else(|| {
            scale::run(scale::GATE_WORKERS, scale::CLIENTS, scale::CALLS_PER_CLIENT)
        });
    if !sweep.contains(&scale::GATE_WORKERS) {
        println!(
            "  {:>8} {:>14.0} {:>14.0} {:>8} {:>8}   (gate cell)",
            gate.workers, gate.blocking_cps, gate.pipelined_cps, gate.inline_calls, gate.steals
        );
        ctx.report.put(
            "scale",
            &format!("w{}-blocking-calls-per-sec", scale::GATE_WORKERS),
            gate.blocking_cps,
        );
        ctx.report.put(
            "scale",
            &format!("w{}-pipelined-calls-per-sec", scale::GATE_WORKERS),
            gate.pipelined_cps,
        );
        ctx.report.put("scale", &format!("w{}-steals", scale::GATE_WORKERS), gate.steals as f64);
    }
    ctx.report.put("scale", "floor-calls-per-sec", scale::FLOOR_CPS);
    println!(
        "  w{} blocking cell: {:.0} calls/s against the {:.0} floor",
        scale::GATE_WORKERS,
        gate.blocking_cps,
        scale::FLOOR_CPS
    );
    if gate.blocking_cps < scale::FLOOR_CPS {
        ctx.failures.push(format!(
            "w{} blocking throughput {:.0} calls/s under the {:.0} floor",
            scale::GATE_WORKERS,
            gate.blocking_cps,
            scale::FLOOR_CPS
        ));
    }

    ctx.gate();
}

fn run_shed(ctx: &mut Ctx) {
    println!("\n== Admission control: open-loop load vs a high-water mark ==");
    println!(
        "  ({} workers, {} µs/call; queue sheds at {} deep)",
        shed::WORKERS,
        shed::SERVICE_US,
        8 * shed::WORKERS
    );
    println!(
        "  {:>8} {:>9} {:>9} {:>10} {:>10}",
        "load", "offered", "admitted", "shed-rate", "p99(µs)"
    );
    for load in shed::LOADS {
        let r = shed::run(shed::WORKERS, shed::SERVICE_US, load, shed::OFFERED);
        println!(
            "  {:>7.1}x {:>9} {:>9} {:>9.1}% {:>10.0}",
            load,
            r.offered,
            r.admitted,
            r.shed_rate * 100.0,
            r.p99_us
        );
        let cell = format!("{load}x");
        ctx.report.put("shed", &format!("{cell}-shed-rate"), r.shed_rate);
        ctx.report.put("shed", &format!("{cell}-p99-us"), r.p99_us);
    }
    println!("  (p99 covers admitted calls only: the mark bounds the backlog, so the");
    println!("   tail stays queue-bound even past capacity instead of growing without limit)");
}

fn run_cluster(ctx: &mut Ctx) {
    let cfg = cluster::config();
    let seeds: Vec<u64> = ctx.seed.map_or_else(|| (1..=cluster::SEEDS).collect(), |s| vec![s]);
    println!("\n== Cluster sim: seeded fault schedules over a replicated group ==");
    println!(
        "  ({} client hosts, {} replicas sharing one reply cache, {} non-idempotent calls/seed)",
        cfg.clients, cfg.replicas, cfg.calls
    );
    println!(
        "  {:>6} {:>7} {:>6} {:>7} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9}",
        "seed", "events", "ok", "failed", "lost", "dup", "supp", "fover", "p50(ns)", "p99(ns)"
    );
    let mut runs = Vec::new();
    for &seed in &seeds {
        let run = cluster::run_seed(&cfg, seed);
        println!(
            "  {:>6} {:>7} {:>6} {:>7} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9}",
            seed,
            run.events,
            run.ok,
            run.failed,
            run.lost,
            run.duplicated,
            run.suppressions,
            run.failovers,
            run.p50_ns,
            run.p99_ns
        );
        ctx.report.put("cluster", &format!("seed{seed}-ok"), run.ok as f64);
        ctx.report.put("cluster", &format!("seed{seed}-failed"), run.failed as f64);
        ctx.report.put("cluster", &format!("seed{seed}-lost"), run.lost as f64);
        ctx.report.put("cluster", &format!("seed{seed}-duplicated"), run.duplicated as f64);
        ctx.report.put("cluster", &format!("seed{seed}-p50-ns"), run.p50_ns as f64);
        ctx.report.put("cluster", &format!("seed{seed}-p99-ns"), run.p99_ns as f64);
        ctx.failures.extend(run.invariant_failures());
        if run.p99_ns > cluster::P99_BOUND_NS {
            ctx.failures.push(format!(
                "seed {}: p99 {} ns over the recorded {} ns bound",
                seed,
                run.p99_ns,
                cluster::P99_BOUND_NS
            ));
        }
        runs.push(run);
    }
    let lost: u64 = runs.iter().map(|r| r.lost).sum();
    let duplicated: u64 = runs.iter().map(|r| r.duplicated).sum();
    let suppressions: u64 = runs.iter().map(|r| r.suppressions).sum();
    let failovers: u64 = runs.iter().map(|r| r.failovers).sum();
    println!(
        "  totals: lost {lost}, duplicated {duplicated} (exactly-once held), \
         {suppressions} replays suppressed by the group cache, {failovers} failovers"
    );
    ctx.report.put("cluster", "total-lost", lost as f64);
    ctx.report.put("cluster", "total-duplicated", duplicated as f64);
    ctx.report.put("cluster", "total-suppressions", suppressions as f64);
    ctx.report.put("cluster", "total-failovers", failovers as f64);
    ctx.report.put("cluster", "p99-bound-ns", cluster::P99_BOUND_NS as f64);

    // Replay verification: any failing seed replays from scratch so the
    // report shows whether the failure reproduces; a healthy matrix
    // replays its first seed to keep the determinism gate honest.
    let mut to_replay: Vec<&cluster::ClusterRun> =
        runs.iter().filter(|r| !r.invariant_failures().is_empty()).collect();
    if to_replay.is_empty() {
        to_replay.extend(runs.first());
    }
    for first in to_replay {
        let (metrics_equal, trace_identical) = cluster::replay(first);
        println!(
            "  replay seed {}: metrics {}, trace {}",
            first.seed,
            if metrics_equal { "identical" } else { "DIVERGED" },
            if trace_identical { "byte-identical" } else { "DIVERGED" }
        );
        if !metrics_equal || !trace_identical {
            ctx.failures.push(format!("seed {}: replay diverged — determinism broken", first.seed));
        }
        if !first.invariant_failures().is_empty() {
            println!("  reproduce with: {}", cluster::replay_command(first.seed));
        }
        ctx.report.put(
            "cluster",
            &format!("seed{}-replay-identical", first.seed),
            (metrics_equal && trace_identical) as u64 as f64,
        );
    }

    ctx.gate();
}
