//! States every experiment as rows: exact counts, paired shapes, and
//! printed-only wall-clock absolutes.
//!
//! Usage: `report [experiment...] [--check] [--json PATH] [--seed N]`
//! where experiment is a name in [`EXPERIMENTS`]; no names runs everything.
//! `report sample [--top N] -- <command…>` runs the command under
//! [`flexrpc_bench::sample`] instead and prints where its time went, `N`
//! rows a table (default 30), files named relative to the current directory.
//! An unknown name, a flag missing its value, or a seed that is not a
//! number exits 2 with the usage line. `--seed N` restricts `cluster` to
//! one seeded schedule (the replay handle `scripts/chaos.sh` prints).
//!
//! Each experiment is a function that returns [`Row`]s and does nothing
//! else with its values: [`run`] prints them, flattens them to their
//! stored form, and evaluates every declared gate with the one evaluator
//! in [`flexrpc_bench::rows`]. All selected experiments run, every failed
//! gate is collected, and the process exits once: `--check` makes a failed
//! gate exit 1. `--json PATH` writes the exact and shape rows with their
//! bounds beside them, plus the metrics registry the experiments populated
//! — and refuses to write (and exits 1) if any gate failed, so an artifact
//! that contradicts its own bounds cannot be produced. In the same step it
//! rewrites those sections' rendered blocks in the `EXPERIMENTS.md` beside
//! PATH, when there is one: a document's numbers change only where its
//! artifact does.

use flexrpc_bench::rows::{self, Rel, Row};
use flexrpc_bench::sample::{sample, Sampled};
use flexrpc_bench::{
    ablate, cluster, failover, fig10, fig11, fig12, fig2, fig6, fig7, fuse, measure_ns, median,
    paired_rounds, port, stream, time_ns, trace,
};
use flexrpc_kernel::{NameMode, TrustLevel};
use flexrpc_marshal::WireFormat;
use flexrpc_nfs::client::ClientVariant;
use flexrpc_pipes::fbuf::FbufMode;
use flexrpc_pipes::server::ReadPresentation;
use flexrpc_trace::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// What an experiment may read: the one seed `--seed` selected, and the
/// registry its substrates may adopt their instruments into.
struct Ctx {
    seed: Option<u64>,
    metrics: MetricsRegistry,
}

/// The name the command line selects an experiment by, the heading it is
/// printed under, and the function that produces its rows.
struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(&Ctx) -> Vec<Row>,
}

/// Every experiment, in report order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig2", title: "Figure 2: NFS 8 MB read, client processing", run: run_fig2 },
    Experiment { name: "fig6", title: "Figure 6: pipe over kernel IPC", run: run_fig6 },
    Experiment { name: "fig7", title: "Figure 7: pipe over fbufs", run: run_fig7 },
    Experiment { name: "fig10", title: "Figure 10: same-domain 1 KB in-param", run: run_fig10 },
    Experiment { name: "fig11", title: "Figure 11: same-domain 1 KB out-param", run: run_fig11 },
    Experiment { name: "fig12", title: "Figure 12: null RPC x trust matrix", run: run_fig12 },
    Experiment { name: "port", title: "S4.5: port-right transfer, [nonunique]", run: run_port },
    Experiment { name: "ablate", title: "Ablations: one knob at a time", run: run_ablate },
    Experiment { name: "fuse", title: "Specialization: dispatches per call", run: run_fuse },
    Experiment { name: "failover", title: "Reply-loss storm, failover", run: run_failover },
    Experiment { name: "trace", title: "Per-stage breakdown, sim replay", run: run_trace },
    Experiment { name: "stream", title: "Edit feed, credit-window file stream", run: run_stream },
    Experiment { name: "cluster", title: "Cluster sim: seeded fault schedules", run: run_cluster },
];

fn main() {
    std::process::exit(run(std::env::args().skip(1), EXPERIMENTS));
}

/// Parses `args`, runs the selected experiments of `table`, and returns
/// the process exit code.
fn run(args: impl Iterator<Item = String>, table: &[Experiment]) -> i32 {
    let usage = |problem: String| {
        let names: Vec<&str> = table.iter().map(|e| e.name).collect();
        eprintln!("report: {problem}");
        eprintln!("usage: report [experiment...] [--check] [--json PATH] [--seed N]");
        eprintln!("       report sample [--top N] -- <command...>");
        eprintln!("experiments: {}", names.join(" "));
        2
    };
    let mut args = args.peekable();
    if args.next_if(|a| a == "sample").is_some() {
        let mut top = flexrpc_bench::sample::TOP;
        if args.next_if(|a| a == "--top").is_some() {
            match args.next().map(|n| n.parse()) {
                Some(Ok(n)) if n > 0 => top = n,
                _ => return usage("--top needs a number N > 0".into()),
            }
        }
        if args.next().as_deref() != Some("--") {
            return usage("sample needs `--` before the command".into());
        }
        let command: Vec<String> = args.collect();
        if command.is_empty() {
            return usage("sample needs a command after `--`".into());
        }
        let root = std::env::current_dir().unwrap_or_default();
        match sample(&command) {
            Sampled::Profile(profile) => print!("{}", profile.render(top, &root)),
            Sampled::Skipped(why) => println!("sample: skipped: {why}"),
        }
        return 0;
    }
    let mut ctx = Ctx { seed: None, metrics: MetricsRegistry::new() };
    let mut check = false;
    let mut json_path = None;
    let mut selected: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => return usage("--json needs a PATH".into()),
            },
            "--seed" => match args.next().map(|s| s.parse()) {
                Some(Ok(seed)) => ctx.seed = Some(seed),
                Some(Err(_)) => return usage("--seed needs a number".into()),
                None => return usage("--seed needs a number N".into()),
            },
            name if table.iter().any(|e| e.name == name) => selected.push(arg),
            _ => return usage(format!("unknown experiment `{arg}`")),
        }
    }

    let mut sections = BTreeMap::new();
    let mut failed: Vec<String> = Vec::new();
    for e in table {
        if !selected.is_empty() && !selected.iter().any(|s| s == e.name) {
            continue;
        }
        println!("\n== {}: {} ==", e.name, e.title);
        let rows = (e.run)(&ctx);
        rows::print(&rows);
        let failures = match rows::entries(&rows) {
            Ok(stored) => {
                let failures = rows::check(&stored);
                sections.insert(e.name, stored);
                failures
            }
            Err(duplicate) => vec![duplicate],
        };
        if failures.is_empty() {
            println!("  check: ok");
        }
        for f in failures {
            eprintln!("  check FAILED: {f}");
            failed.push(format!("{}: {f}", e.name));
        }
    }

    if !failed.is_empty() {
        eprintln!("\n{} gate(s) failed:", failed.len());
        for f in &failed {
            eprintln!("  {f}");
        }
    }
    if let Some(path) = &json_path {
        if !failed.is_empty() {
            eprintln!("report: not writing {path}: it would contradict its own bounds");
            return 1;
        }
        if let Err(e) = std::fs::write(path, rows::to_json(&sections, &ctx.metrics.snapshot())) {
            eprintln!("report: cannot write {path}: {e}");
            return 1;
        }
        println!("\nwrote {path}");
        let doc = std::path::Path::new(path).with_file_name("EXPERIMENTS.md");
        if let Ok(text) = std::fs::read_to_string(&doc) {
            let blocks = sections.iter().map(|(name, stored)| (*name, stored));
            let written = rows::splice_blocks(&text, blocks)
                .and_then(|text| std::fs::write(&doc, text).map_err(|e| e.to_string()));
            if let Err(e) = written {
                eprintln!("report: {}: {e}", doc.display());
                return 1;
            }
            println!("rewrote {} blocks of {}", sections.len(), doc.display());
        }
    }
    (check && !failed.is_empty()) as i32
}

/// Throughput in MB/s of moving `bytes` in `ns`.
fn mbps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (ns / 1e9) / 1e6
}

/// The median over `rounds` of side `i`'s samples.
fn side(rounds: &[Vec<f64>], i: usize) -> f64 {
    median(rounds.iter().map(|r| r[i]))
}

/// The median over `rounds` of side `a`'s sample over side `b`'s, taken
/// within each round.
fn ratio(rounds: &[Vec<f64>], a: usize, b: usize) -> f64 {
    median(rounds.iter().map(|r| r[a] / r[b]))
}

/// The median over `rounds` of the percentage of side 0's time that side 1
/// saves, taken within each round.
fn win_pct(rounds: &[Vec<f64>]) -> f64 {
    median(rounds.iter().map(|r| (r[0] - r[1]) / r[0] * 100.0))
}

/// Bytes each Figure 6/7 and pipe-ladder sample moves through its pipe.
const PIPE_TOTAL: usize = 512 * 1024;

/// One Figure 6 sample: ns per [`PIPE_TOTAL`] transfer.
fn pipe_transfer_ns(h: &mut fig6::PipeIpcHarness) -> f64 {
    time_ns(4, || {
        fig6::run(h, PIPE_TOTAL);
    })
}

/// One Figure 2 sample: reads the whole file with the side's variant and
/// returns `(client processing, wire + server)` nanoseconds. Client
/// processing is the measured total minus the far side's real CPU time,
/// matching the figure's bar decomposition; wire + server is the sim clock.
fn nfs_read_ns((h, variant): &mut (fig2::Fig2, ClientVariant)) -> (f64, f64) {
    let (wire0, far0) = (h.wire_ns(), h.far_side_ns());
    let total = time_ns(1, || {
        h.run(*variant, fig2::FILE_LEN);
    });
    (total - (h.far_side_ns() - far0) as f64, (h.wire_ns() - wire0) as f64)
}

fn run_fig2(_: &Ctx) -> Vec<Row> {
    let mut sides: Vec<(fig2::Fig2, ClientVariant)> =
        ClientVariant::ALL.iter().map(|&v| (fig2::Fig2::new(fig2::FILE_LEN), v)).collect();
    // The warm-up read is also the copy schedule, and the gate: bytes the
    // client copies for the whole file. A conventional variant copies every
    // byte twice (kernel staging buffer, then `copyout`); the user-space
    // ([special]) presentation deletes exactly the staging copy.
    let copied: Vec<u64> = sides
        .iter_mut()
        .map(|side| {
            nfs_read_ns(side);
            side.0.client_bytes_copied()
        })
        .collect();
    let index = |v: ClientVariant| {
        ClientVariant::ALL.iter().position(|x| *x == v).expect("every variant is listed")
    };
    let pairs = [
        (ClientVariant::SpecialGenerated, ClientVariant::ConventionalGenerated),
        (ClientVariant::SpecialHand, ClientVariant::ConventionalHand),
    ];
    let mut rows = Vec::new();
    for (special, conventional) in pairs {
        let [s, c] = [special, conventional]
            .map(|v| (format!("{}-client-bytes-copied", v.label()), copied[index(v)]));
        rows.push(Row::count(c.0, c.1));
        rows.push(Row::count(s.0, s.1).gate_count(Rel::Eq, c.1 - fig2::FILE_LEN as u64));
    }
    let rounds = paired_rounds(41, &mut sides, |side| nfs_read_ns(side).0);
    for (i, v) in ClientVariant::ALL.iter().enumerate() {
        rows.push(Row::wall(format!("{}-client-cpu-ms", v.label()), side(&rounds, i) / 1e6));
    }
    // The figure's shape in time, recorded only: the ratio sits within a
    // few percent of 1 and crossed it about one run in eight.
    for (special, conventional) in pairs {
        rows.push(Row::shape(
            format!("{}-vs-{}", special.label(), conventional.label()),
            ratio(&rounds, index(special), index(conventional)),
        ));
    }
    // One clean run for the wire + server component: the sim clock, so the
    // same number for every variant and on every machine.
    let mut clean = (fig2::Fig2::new(fig2::FILE_LEN), ClientVariant::ConventionalGenerated);
    rows.push(Row::exact("wire-ns", nfs_read_ns(&mut clean).1));
    rows
}

fn run_fig6(_: &Ctx) -> Vec<Row> {
    let total = PIPE_TOTAL;
    let modes = [ReadPresentation::Default, ReadPresentation::DeallocNever];
    let mut rows = Vec::new();
    for cap in fig6::PIPE_CAPS {
        let k = cap / 1024;
        let mut sides = modes.map(|mode| fig6::harness(cap, mode));
        // The warm-up transfer is also the copy schedule: dealloc(never)
        // removes the server's re-buffering of every byte it returns — one
        // buffer-sized copy per read — and leaves the kernel's transfer
        // volume (the wire contract) untouched.
        let [default, never] = sides.each_mut().map(|h| {
            fig6::run(h, total);
            let kernel = h.kernel().stats().snapshot().total_bytes_copied();
            let rebuffered = h.server_stats().intermediate_copy_bytes.load(Ordering::Relaxed);
            (kernel, rebuffered as f64 / total as f64)
        });
        let [d, n] = modes.map(|mode| format!("{k}k-{}", mode.label()));
        rows.extend([
            Row::exact(format!("{d}-server-copies-per-byte"), default.1).gate(Rel::Eq, 1.0),
            Row::exact(format!("{n}-server-copies-per-byte"), never.1).gate(Rel::Eq, 0.0),
            Row::count(format!("{d}-kernel-bytes-copied"), default.0),
            Row::count(format!("{n}-kernel-bytes-copied"), never.0).gate_count(Rel::Eq, default.0),
        ]);
        let rounds = paired_rounds(101, &mut sides, pipe_transfer_ns);
        for (i, mode) in modes.iter().enumerate() {
            rows.push(Row::wall(
                format!("{k}k-{}-mbps", mode.label()),
                mbps(total, side(&rounds, i)),
            ));
        }
        // Gated at 4K only: over a hundred runs the 8K ratio came as low as
        // 1.005 (4K: 1.02), too close to hold a bound run after run.
        let speedup = Row::shape(format!("{k}k-dealloc-never-speedup"), ratio(&rounds, 0, 1));
        rows.push(if cap == 4096 { speedup.gate(Rel::Gt, 1.0) } else { speedup });
    }
    rows
}

fn run_fig7(_: &Ctx) -> Vec<Row> {
    let total = PIPE_TOTAL;
    let modes = [FbufMode::Standard, FbufMode::Special];
    let mut rows = Vec::new();
    for cap in fig7::PIPE_CAPS {
        let k = cap / 1024;
        let mut sides = modes.map(|mode| fig7::harness(cap, mode));
        // Warm-up, and the copy schedule: bytes copied into and out of
        // fbufs (payload plus per-operation headers). [special] keeps data
        // in fbufs through the server, which removes exactly the two
        // server-side copies of every payload byte.
        let [standard, special] = sides.each_mut().map(|h| {
            let before = h.fbufs().stats().snapshot();
            fig7::run(h, total);
            let d = h.fbufs().stats().snapshot().since(&before);
            d.bytes_written + d.bytes_read
        });
        rows.push(Row::count(format!("{k}k-standard-fbuf-bytes-copied"), standard));
        rows.push(
            Row::count(format!("{k}k-special-fbuf-bytes-copied"), special)
                .gate_count(Rel::Eq, standard - 2 * total as u64),
        );
        let rounds = paired_rounds(31, &mut sides, |h| time_ns(4, || fig7::run(h, total)));
        for (i, mode) in modes.iter().enumerate() {
            rows.push(Row::wall(
                format!("{k}k-{}-mbps", mode.label()),
                mbps(total, side(&rounds, i)),
            ));
        }
        rows.push(
            Row::shape(format!("{k}k-special-speedup"), ratio(&rounds, 0, 1)).gate(Rel::Gt, 1.0),
        );
    }
    let mut bsd = fig7::BsdRef::new();
    bsd.run(total); // Warm-up.
    rows.push(Row::wall("bsd-monolithic-mbps", mbps(total, measure_ns(7, 2, || bsd.run(total)))));
    rows
}

/// Rows for one Figure 10/11 bar group: each system's exact copy count
/// (flexible gated at or under the cheaper fixed system), each system's
/// printed ns/call, and flexible's time against the faster fixed system
/// round by round — gated under 1 in a group where flexible `wins`
/// outright. `sides` are in the figure's order: the two fixed systems,
/// then flexible.
fn bar_group<R>(
    group: &str,
    labels: [&str; 3],
    sides: &mut [R; 3],
    wins: bool,
    call: impl Fn(&mut R),
    copies: impl Fn(&R) -> u64,
) -> Vec<Row> {
    // Counters start at zero, so after one call they are the per-call
    // copy schedule.
    sides.iter_mut().for_each(&call);
    let counts = [copies(&sides[0]), copies(&sides[1]), copies(&sides[2])];
    let mut rows: Vec<Row> =
        (0..3).map(|i| Row::count(format!("{group}-{}-copies", labels[i]), counts[i])).collect();
    let flexible = rows.pop().expect("three systems");
    rows.push(flexible.gate_count(Rel::Le, counts[0].min(counts[1])));

    let rounds = paired_rounds(15, sides, |r| time_ns(2000, || call(r)));
    for (i, label) in labels.iter().enumerate() {
        rows.push(Row::wall(format!("{group}-{label}-ns"), side(&rounds, i)));
    }
    let ratio = Row::shape(
        format!("{group}-flexible-vs-best-fixed"),
        median(rounds.iter().map(|r| r[2] / r[0].min(r[1]))),
    );
    rows.push(if wins { ratio.gate(Rel::Lt, 1.0) } else { ratio });
    rows
}

fn run_fig10(_: &Ctx) -> Vec<Row> {
    let labels = fig10::System::ALL.map(|s| s.label());
    fig10::Group::ALL
        .into_iter()
        .flat_map(|g| {
            let mut sides = fig10::System::ALL.map(|s| fig10::Runner::new(s, g, fig10::PARAM_SIZE));
            // Only a trashable buffer handed to a modifying server beats
            // both fixed systems; elsewhere flexible ties the better one.
            let wins = !g.client_needs_buffer && g.server_modifies;
            bar_group(&g.label(), labels, &mut sides, wins, fig10::Runner::call, |r| {
                r.stub_stats().stub_copies + r.glue_copies.load(Ordering::Relaxed)
            })
        })
        .collect()
}

fn run_fig11(_: &Ctx) -> Vec<Row> {
    let labels = fig11::System::ALL.map(|s| s.label());
    fig11::Group::ALL
        .into_iter()
        .flat_map(|g| {
            let mut sides = fig11::System::ALL.map(|s| fig11::Runner::new(s, g, fig11::PARAM_SIZE));
            bar_group(&g.label(), labels, &mut sides, false, fig11::Runner::call, |r| {
                r.stub_stats().stub_copies
                    + r.client_glue_copies.load(Ordering::Relaxed)
                    + r.server_glue_copies.load(Ordering::Relaxed)
            })
        })
        .collect()
}

fn run_fig12(_: &Ctx) -> Vec<Row> {
    let pairs: Vec<(TrustLevel, TrustLevel)> =
        TrustLevel::ALL.iter().flat_map(|&c| TrustLevel::ALL.map(|s| (c, s))).collect();
    let name =
        |(c, s): (TrustLevel, TrustLevel)| format!("client-{}-server-{}", c.label(), s.label());
    let mut cells: Vec<fig12::Cell> = pairs.iter().map(|&(c, s)| fig12::Cell::new(c, s)).collect();
    let reg_ops =
        |c, s| cells[pairs.iter().position(|&p| p == (c, s)).expect("in matrix")].reg_ops() as u64;

    // The deterministic model behind the timing: register blocks the
    // bind-time combination signature compiled in. None under full mutual
    // trust, some under none, and a server's `unprotected` compiles the
    // same code as its `leaky` (the paper's footnote).
    let (none, full) = (TrustLevel::None, TrustLevel::LeakyUnprotected);
    let mut rows = Vec::new();
    for &(c, s) in &pairs {
        let mut row = Row::count(format!("{}-reg-ops", name((c, s))), reg_ops(c, s));
        if (c, s) == (none, none) {
            row = row.gate_count(Rel::Gt, 0);
        }
        if s == full {
            row = row.gate_count(Rel::Eq, reg_ops(c, TrustLevel::Leaky));
        }
        if (c, s) == (full, full) {
            row = row.gate_count(Rel::Le, 0);
        }
        rows.push(row);
    }

    for cell in &cells {
        cell.null_rpc(); // Warm-up.
    }
    let rounds = paired_rounds(15, &mut cells, |cell| time_ns(5000, || cell.null_rpc()));
    for (i, &pair) in pairs.iter().enumerate() {
        rows.push(Row::wall(format!("{}-ns", name(pair)), side(&rounds, i)));
    }
    let (first, last) = (0, pairs.len() - 1);
    rows.push(Row::shape("full-trust-vs-no-trust", ratio(&rounds, last, first)).gate(Rel::Lt, 1.0));
    rows
}

fn run_port(_: &Ctx) -> Vec<Row> {
    let labels = ["unique", "nonunique"];
    let mut sides = [NameMode::Unique, NameMode::NonUnique].map(port::PortTransfer::new);
    for t in &sides {
        t.transfer_once(); // Warm-up: the first unique transfer installs the name.
    }
    // The deterministic cost model, and the gate: name-table probes per
    // transfer. The relaxed path just mints a fresh name. The time ratio is
    // recorded only: one process in eighty read `[nonunique]` the slower
    // side for its whole run (the name tables are `HashMap`s seeded per
    // process — a likely cause, not verified).
    let mut rows = vec![
        Row::count("unique-probes", sides[0].probes_per_transfer()).gate_count(Rel::Gt, 1),
        Row::count("nonunique-probes", sides[1].probes_per_transfer()).gate_count(Rel::Eq, 1),
    ];
    let rounds = paired_rounds(41, &mut sides, |t| time_ns(5000, || t.transfer_once()));
    for (i, label) in labels.iter().enumerate() {
        rows.push(Row::wall(format!("{label}-ns"), side(&rounds, i)));
    }
    rows.push(Row::shape("nonunique-vs-unique", ratio(&rounds, 1, 0)));
    rows
}

fn run_ablate(_: &Ctx) -> Vec<Row> {
    [pipe_ladder(), trust_spread(), transport_ladder(), direct_vs_marshalled(), fusion_on_off()]
        .concat()
}

/// The pipe path, one presentation knob at a time: bytes the kernel and the
/// server copy per transfer never go up a rung (exact); time per transfer
/// against the previous rung (paired).
fn pipe_ladder() -> Vec<Row> {
    let total = PIPE_TOTAL;
    let mut rows = Vec::new();
    let mut ladder = ablate::PipeStep::ALL.map(|step| step.harness(4096));
    let mut previous = None;
    for (h, step) in ladder.iter_mut().zip(ablate::PipeStep::ALL) {
        h.transfer(total, 2048).expect("warm-up");
        let copied = h.kernel().stats().snapshot().total_bytes_copied()
            + h.server_stats().intermediate_copy_bytes.load(Ordering::Relaxed);
        let row = Row::count(format!("pipe-{}-bytes-copied", step.label()), copied);
        rows.push(match previous {
            Some(before) => row.gate_count(Rel::Le, before),
            None => row,
        });
        previous = Some(copied);
    }
    let rounds = paired_rounds(21, &mut ladder, |h| {
        time_ns(2, || {
            h.transfer(total, 2048).expect("transfer");
        })
    });
    for (i, step) in ablate::PipeStep::ALL.iter().enumerate() {
        rows.push(Row::wall(format!("pipe-{}-mbps", step.label()), mbps(total, side(&rounds, i))));
        if i > 0 {
            rows.push(Row::shape(
                format!("pipe-{}-speedup-vs-previous", step.label()),
                ratio(&rounds, i - 1, i),
            ));
        }
    }
    rows
}

/// Trust spread vs payload size: the share of an echo RPC that full mutual
/// trust removes, which shrinks as the payload grows. Recorded, not gated:
/// the saving is a fixed few dozen ns, and at 4-16 KB a cell's buffer
/// placement moves the call by more than that from run to run. What trust
/// is held to is Figure 12's register-block count.
fn trust_spread() -> Vec<Row> {
    [0usize, 256, 1024, 4096, 16384]
        .into_iter()
        .map(|size| {
            let mut sides = [TrustLevel::None, TrustLevel::LeakyUnprotected]
                .map(|trust| ablate::SweepCell::new(trust, trust, size));
            let rounds = paired_rounds(15, &mut sides, |c| time_ns(3000, || c.call()));
            Row::shape(format!("trust-spread-{size}b-pct"), win_pct(&rounds))
        })
        .collect()
}

/// The paper's headline — the faster the transport, the more presentation
/// matters: the share of a call that the flexible presentation removes, on
/// the negotiated same-domain path (Figure 10's trashable group), over
/// kernel IPC (Figure 6, 4 KB pipe) and over Sun RPC (Figure 2, whose call
/// time includes its simulated wire). Each win is taken within a round.
fn transport_ladder() -> Vec<Row> {
    let (fixed, flexible) = ablate::fig10_pair(fig10::PARAM_SIZE);
    let rounds = paired_rounds(15, &mut [fixed, flexible], |r| time_ns(2000, || r.call()));
    let same_domain = win_pct(&rounds);

    let mut pipes =
        [ReadPresentation::Default, ReadPresentation::DeallocNever].map(|m| fig6::harness(4096, m));
    let kernel_ipc = win_pct(&paired_rounds(101, &mut pipes, pipe_transfer_ns));

    let mut nfs = [ClientVariant::ConventionalGenerated, ClientVariant::SpecialGenerated]
        .map(|v| (fig2::Fig2::new(fig2::FILE_LEN), v));
    for side in &mut nfs {
        nfs_read_ns(side); // Warm-up.
    }
    let sunrpc = win_pct(&paired_rounds(15, &mut nfs, |side| {
        let (client, wire) = nfs_read_ns(side);
        client + wire
    }));

    vec![
        Row::shape("win-same-domain-pct", same_domain),
        Row::shape("win-kernel-ipc-pct", kernel_ipc).gate(Rel::Lt, same_domain),
        Row::shape("win-sunrpc-pct", sunrpc).gate(Rel::Lt, kernel_ipc),
    ]
}

/// §4.4's own comparison: one registered `write` at 1 KB, marshalled over
/// `Loopback` against called direct through the same-domain binding, timed
/// within each round. Ten `report ablate --check` runs read 3.00–3.52, so
/// it is gated there: the direct call is faster than the marshalled one.
fn direct_vs_marshalled() -> Vec<Row> {
    let mut sides = ablate::direct_pair(fig10::PARAM_SIZE);
    let rounds = paired_rounds(15, &mut sides, |r| time_ns(2000, || r.call()));
    vec![Row::shape("same-domain-direct-speedup", ratio(&rounds, 0, 1)).gate(Rel::Gt, 1.0)]
}

/// What specialization buys, measured where it acts: the four compiled
/// `read` programs (64 B reply, CDR, kept buffers) through the executor
/// against the same programs through the threaded oracle. The ratio read
/// 1.18–1.26 in 21 of 21 runs, nowhere near 1, so it is gated
/// there: the executor is faster than the loop it replaced. (How much faster
/// is this machine's; the dispatch count `fuse` gates is any machine's.)
fn fusion_on_off() -> Vec<Row> {
    let mut sides = [fuse::Via::Executor, fuse::Via::Oracle]
        .map(|via| fuse::ProgramRunner::new(via, WireFormat::Cdr));
    for r in &mut sides {
        (0..200).for_each(|_| r.call()); // Warm-up to reused buffers.
    }
    let rounds = paired_rounds(41, &mut sides, |r| time_ns(2000, || r.call()));
    vec![Row::shape("fusion-programs-speedup", ratio(&rounds, 1, 0)).gate(Rel::Gt, 1.0)]
}

fn run_fuse(_: &Ctx) -> Vec<Row> {
    let mut rows = Vec::new();
    for op in &fuse::compile().ops {
        let (ops, dispatches) = fuse::dispatches_per_call(op);
        rows.push(Row::count(format!("{}-ops", op.name), ops as u64));
        let fused = Row::count(format!("{}-dispatches", op.name), dispatches as u64);
        if op.name == "read" {
            // The Figure 6 signature must fuse, and by at least 30 %.
            rows.push(fused.gate_count(Rel::Lt, ops as u64));
            rows.push(
                Row::exact(
                    "read-dispatch-reduction-pct",
                    (ops - dispatches) as f64 / ops as f64 * 100.0,
                )
                .gate(Rel::Ge, 30.0),
            );
        } else {
            rows.push(fused.gate_count(Rel::Le, ops as u64));
        }
    }
    rows
}

fn run_failover(_: &Ctx) -> Vec<Row> {
    // Reply-loss storm: every retried call is answered from the reply
    // cache, so the handler runs exactly once per logical call.
    let s = failover::storm(failover::STORM_CALLS, failover::CLOSE_EVERY);
    let mut rows = vec![
        Row::count("storm-calls", s.calls as u64),
        Row::count("storm-faults", s.faults as u64),
        Row::count("storm-executions", s.executions).gate_count(Rel::Eq, s.calls as u64),
        Row::count("storm-suppressions", s.suppressions).gate_count(Rel::Eq, s.faults as u64),
        Row::exact("storm-hit-rate", s.hit_rate),
    ];
    // Supervised failover: sim-clock recovery, so the bound is exact.
    for crash_at in failover::CRASH_POINTS {
        let r = failover::failover_once(crash_at);
        rows.push(
            Row::count(format!("recovery-ns-crash-at-{crash_at}"), r.recovery_ns)
                .gate_count(Rel::Gt, 0)
                .gate_count(Rel::Le, failover::RECOVERY_BOUND_NS),
        );
        rows.push(
            Row::exact(
                format!("duplicate-executions-crash-at-{crash_at}"),
                r.duplicate_executions as f64,
            )
            .gate(Rel::Eq, 0.0),
        );
    }
    rows
}

fn run_trace(_: &Ctx) -> Vec<Row> {
    use flexrpc_trace::Stage;
    let mut rows = Vec::new();
    for path in [trace::Path::Loopback, trace::Path::SunRpc] {
        let b = trace::wall_breakdown(path);
        for stage in [Stage::Marshal, Stage::Transport, Stage::Unmarshal] {
            rows.push(Row::wall(
                format!("{}-{}-ns-per-call", path.label(), stage.name()),
                b.totals[stage as usize] as f64 / trace::CALLS as f64,
            ));
        }
        rows.push(Row::wall(
            format!("{}-marshal-share-pct", path.label()),
            b.marshal_share * 100.0,
        ));
    }
    // Determinism: the same sim-clock workload, twice, must export the
    // exact same bytes — and its wire time is a number, not a measurement.
    let (stream_a, wire_ns) = trace::sim_run(64);
    let (stream_b, _) = trace::sim_run(64);
    rows.push(Row::exact("sunrpc-sim-wire-ns", wire_ns));
    rows.push(
        Row::flag("sim-runs-byte-identical", stream_a == stream_b && !stream_a.is_empty())
            .gate_count(Rel::Eq, 1),
    );
    rows
}

fn run_stream(ctx: &Ctx) -> Vec<Row> {
    // Broadcast edit feed: one [stream] publisher, a thousand [oneway]
    // subscribers, a reply lost every few frames.
    let cfg = stream::feed_config();
    let t0 = std::time::Instant::now();
    let r = stream::edit_feed(Some(&ctx.metrics));
    let wall_s = t0.elapsed().as_secs_f64();
    let rerun = stream::edit_feed(None);
    let mut rows = vec![
        Row::count("editfeed-subscribers", r.subscribers as u64),
        Row::exact("editfeed-window", r.window)
            .gate(Rel::Eq, cfg.client_window.min(cfg.server_window)),
        Row::count("editfeed-executions", r.executions).gate_count(Rel::Eq, r.edits as u64),
        Row::count("editfeed-callbacks-delivered", r.callbacks_delivered)
            .gate_count(Rel::Eq, (r.edits * r.subscribers) as u64),
        Row::exact("editfeed-callbacks-per-sim-sec", r.callbacks_per_sec),
        Row::wall("editfeed-callbacks-per-wall-sec", r.callbacks_delivered as f64 / wall_s),
        Row::count("editfeed-lost", r.lost).gate_count(Rel::Eq, 0),
        Row::count("editfeed-duplicated", r.duplicated).gate_count(Rel::Eq, 0),
        Row::count("editfeed-credit-stalls", r.credit_stalls),
        Row::count("editfeed-credits-waited-ns", r.credits_waited_ns),
        Row::flag("editfeed-rerun-identical", rerun == r).gate_count(Rel::Eq, 1),
    ];

    // Remote file stream: fault-free, the total credit stall is the closed
    // form (frames - window) * drain; with replies lost, the contents come
    // out intact from one execution per frame.
    let e = stream::file_exact();
    rows.push(
        Row::count("file-exact-waited-ns", e.credits_waited_ns)
            .gate_count(Rel::Eq, e.predicted_stall_ns),
    );
    rows.push(
        Row::count("file-exact-sim-ns", e.sim_ns)
            .gate_count(Rel::Eq, e.frames as u64 * stream::FILE_DRAIN_NS),
    );
    let f = stream::file_faulted();
    rows.push(Row::count("file-faulted-close-faults", f.faults as u64));
    rows.push(
        Row::count("file-faulted-executions", f.executions).gate_count(Rel::Eq, f.frames as u64),
    );
    rows.push(Row::flag("file-faulted-contents-identical", f.contents_ok).gate_count(Rel::Eq, 1));
    rows
}

fn run_cluster(ctx: &Ctx) -> Vec<Row> {
    let cfg = cluster::config();
    let seeds: Vec<u64> = ctx.seed.map_or_else(|| (1..=cluster::SEEDS).collect(), |s| vec![s]);
    let runs: Vec<cluster::ClusterRun> =
        seeds.iter().map(|&seed| cluster::run_seed(&cfg, seed)).collect();
    let mut rows = Vec::new();
    for run in &runs {
        let seed = run.seed;
        rows.push(Row::count(format!("seed{seed}-events"), run.events as u64));
        rows.push(Row::count(format!("seed{seed}-ok"), run.ok).gate_count(Rel::Gt, 0));
        rows.push(Row::count(format!("seed{seed}-failed"), run.failed));
        rows.push(Row::count(format!("seed{seed}-lost"), run.lost).gate_count(Rel::Eq, 0));
        rows.push(
            Row::count(format!("seed{seed}-duplicated"), run.duplicated).gate_count(Rel::Eq, 0),
        );
        rows.push(Row::count(format!("seed{seed}-suppressions"), run.suppressions));
        rows.push(Row::count(format!("seed{seed}-failovers"), run.failovers));
        rows.push(Row::count(format!("seed{seed}-p50-ns"), run.p50_ns));
        rows.push(
            Row::count(format!("seed{seed}-p99-ns"), run.p99_ns)
                .gate_count(Rel::Le, cluster::P99_BOUND_NS),
        );
    }

    // Replay verification: any seed that broke exactly-once replays from
    // scratch so the report shows whether the failure reproduces; a healthy
    // matrix replays its first seed to keep the determinism gate honest.
    let mut to_replay: Vec<&cluster::ClusterRun> =
        runs.iter().filter(|r| !r.invariant_failures().is_empty()).collect();
    if to_replay.is_empty() {
        to_replay.extend(runs.first());
    }
    for first in to_replay {
        let (metrics_equal, trace_identical) = cluster::replay(first);
        rows.push(
            Row::flag(
                format!("seed{}-replay-identical", first.seed),
                metrics_equal && trace_identical,
            )
            .gate_count(Rel::Eq, 1),
        );
        if !first.invariant_failures().is_empty() {
            eprintln!("  reproduce with: {}", cluster::replay_command(first.seed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/report-test");
        std::fs::create_dir_all(dir).expect("scratch dir");
        let path = std::path::Path::new(dir).join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    const PASSING: Experiment = Experiment {
        name: "passing",
        title: "a gate that holds",
        run: |_| vec![Row::count("lost", 0).gate_count(Rel::Eq, 0)],
    };
    const FAILING: Experiment = Experiment {
        name: "failing",
        title: "a gate that does not",
        run: |_| vec![Row::count("lost", 3).gate_count(Rel::Eq, 0)],
    };
    const DUPLICATE: Experiment = Experiment {
        name: "duplicate",
        title: "one name twice",
        run: |_| vec![Row::count("lost", 0), Row::count("lost", 0)],
    };

    #[test]
    fn json_is_not_written_when_a_gate_fails() {
        let path = scratch("refused.json");
        let line = format!("--json {}", path.display());
        // Refused with and without --check, and the later experiment still ran.
        assert_eq!(run(args(&line), &[FAILING, PASSING]), 1);
        assert_eq!(run(args(&format!("{line} --check")), &[FAILING, PASSING]), 1);
        assert_eq!(run(args(&line), &[DUPLICATE]), 1);
        assert!(!path.exists(), "an artifact that fails its own gate must not exist");

        // The document beside the artifact is rewritten in the same step,
        // and only then: a refused artifact leaves its blocks alone.
        let doc = scratch("EXPERIMENTS.md");
        let block =
            |body: &str| format!("<!-- report:passing -->\n{body}<!-- /report:passing -->\n");
        std::fs::write(&doc, block("stale\n")).expect("scratch doc");
        assert_eq!(run(args(&line), &[FAILING, PASSING]), 1);
        assert_eq!(std::fs::read_to_string(&doc).expect("still there"), block("stale\n"));

        assert_eq!(run(args(&line), &[PASSING]), 0);
        let json = std::fs::read_to_string(&path).expect("written when every gate holds");
        assert!(json.contains("\"lost\": 0") && json.contains("\"lost.eq\": 0"), "{json}");
        let rendered = "| row | value | gate |\n|---|---|---|\n| `lost` | 0 | == 0 |\n";
        assert_eq!(std::fs::read_to_string(&doc).expect("rewritten"), block(rendered));
        let _ = std::fs::remove_file(&doc);
    }

    #[test]
    fn a_failed_gate_exits_nonzero_only_under_check() {
        assert_eq!(run(args(""), &[FAILING, PASSING]), 0);
        assert_eq!(run(args("--check"), &[FAILING, PASSING]), 1);
        assert_eq!(run(args("--check passing"), &[FAILING, PASSING]), 0, "only the selected ran");
    }

    /// The experiments `scripts/bench.sh` writes to `BENCH_exact.json`, read
    /// off the committed file's `figures` sections rather than copied here.
    fn exact() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exact.json");
        let text = std::fs::read_to_string(path).expect("the committed exact artifact");
        let figures = text.lines().skip_while(|l| *l != "  \"figures\": {").skip(1);
        let sections = figures.take_while(|l| !l.starts_with("  }"));
        sections
            .filter_map(|l| Some(l.strip_prefix("    \"")?.strip_suffix("\": {")?.into()))
            .collect()
    }

    #[test]
    fn the_exact_artifact_rendered_twice_is_byte_identical() {
        let exact = exact();
        assert!(!exact.is_empty(), "no section read from BENCH_exact.json");
        let render = || {
            // One cluster seed keeps the debug-profile test quick; the row
            // set per seed is the same.
            let ctx = Ctx { seed: Some(1), metrics: MetricsRegistry::new() };
            let sections: BTreeMap<&str, _> = EXPERIMENTS
                .iter()
                .filter(|e| exact.iter().any(|name| name == e.name))
                .map(|e| (e.name, rows::entries(&(e.run)(&ctx)).expect("distinct names")))
                .collect();
            assert_eq!(sections.len(), exact.len(), "every section names an experiment");
            for (name, stored) in &sections {
                assert_eq!(rows::check(stored), Vec::<String>::new(), "{name}");
            }
            rows::to_json(&sections, &ctx.metrics.snapshot())
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn sample_refuses_a_malformed_command_line_before_running_anything() {
        for line in [
            "sample",
            "sample true",
            "sample --",
            "sample --top -- true",
            "sample --top 0 -- true",
            "sample --top many -- true",
            "sample --top 3 true",
        ] {
            assert_eq!(run(args(line), &[PASSING]), 2, "`{line}`");
        }
    }

    #[test]
    fn experiment_names_are_distinct() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
