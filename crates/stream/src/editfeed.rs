//! The broadcast edit feed: one publisher streams document edits into an
//! engine service; the service fans each edit out to its subscribers over
//! server→client callbacks.
//!
//! Everything non-unary meets here:
//!
//! * the publisher's `publish` op is `[stream(window)]` — both ends
//!   declare a window, the engine bind negotiates the minimum, and the
//!   publisher stalls deterministically when it runs that far ahead;
//! * each subscriber registers a callback interface whose `edit` op is
//!   `[oneway]` — fan-out is pure notification, no reply slots;
//! * the publisher's binding is at-most-once, so an injected `Close`
//!   (connection dies after the engine executed, reply lost) is retried
//!   through the reply cache: the edit is applied exactly once and the
//!   fan-out is never repeated — zero lost frames, zero duplicates.

use crate::callback::CallbackCounters;
use crate::{CallbackChannel, StreamSender};
use flexrpc_clock::{Fault, SimClock};
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::ir::Module;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_engine::Engine;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::{CallOptions, ClientStub, RetryPolicy, ServerInterface};
use flexrpc_trace::MetricsRegistry;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A subscriber's received-edit log: `(seq, data)` in arrival order.
type EditLog = Arc<Mutex<Vec<(u32, String)>>>;

/// Scenario knobs. The defaults are the `report stream` configuration:
/// a thousand subscribers, a window asymmetry that forces negotiation to
/// the server's smaller declaration, and a reply lost every fifth frame.
#[derive(Debug, Clone, Copy)]
pub struct EditFeedConfig {
    /// Callback subscribers fed by every edit.
    pub subscribers: usize,
    /// Edits published.
    pub edits: usize,
    /// The publisher's declared `[stream(N)]` window.
    pub client_window: u32,
    /// The service's declared `[stream(N)]` window (negotiation takes the
    /// minimum of the two).
    pub server_window: u32,
    /// Inject a `Close` fault on every n-th frame (0 = none): the engine
    /// executes, the reply is lost, the tagged retry must be answered from
    /// the reply cache.
    pub close_every: usize,
    /// Receiver drain time per frame, sim ns (sets the credit cadence).
    pub drain_ns: u64,
}

impl Default for EditFeedConfig {
    fn default() -> EditFeedConfig {
        EditFeedConfig {
            subscribers: 1000,
            edits: 40,
            client_window: 32,
            server_window: 8,
            close_every: 5,
            drain_ns: 250_000,
        }
    }
}

/// What one run observed. A correct run has `lost == duplicated == 0`,
/// `executions == edits`, and `callbacks_delivered == edits * subscribers`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EditFeedRun {
    /// Subscribers fed.
    pub subscribers: usize,
    /// Edits published (all succeeded).
    pub edits: usize,
    /// The negotiated stream window (min of the two declarations).
    pub window: u32,
    /// `Close` faults injected.
    pub faults: usize,
    /// Frames missing from the server log or any subscriber feed.
    pub lost: u64,
    /// Frames applied or fanned out more than once.
    pub duplicated: u64,
    /// Publish-handler executions (must equal `edits`).
    pub executions: u64,
    /// Callback notifications delivered across all subscribers.
    pub callbacks_delivered: u64,
    /// Sends that found the window exhausted.
    pub credit_stalls: u64,
    /// Total sim time the publisher stalled on credits.
    pub credits_waited_ns: u64,
    /// Sim time of the whole run (stream drained).
    pub sim_ns: u64,
    /// Fan-out throughput: callbacks per sim second.
    pub callbacks_per_sec: f64,
}

fn feed_interface(window: u32) -> (Module, InterfacePresentation) {
    let src = format!(
        r#"
        interface Feed {{
            [stream({window})] void publish(in unsigned long seq, in string data);
        }};
        "#
    );
    let (module, pdl) = flexrpc_idl::corba::parse_annotated("feed", &src).expect("feed IDL parses");
    let iface = module.interface("Feed").expect("declared");
    let base = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let pres = apply_pdl(&module, iface, &base, &pdl).expect("annotations apply");
    (module, pres)
}

fn callback_interface() -> (Module, InterfacePresentation) {
    let src = r#"
        interface FeedCallback {
            oneway void edit(in unsigned long seq, in string data);
        };
    "#;
    let (module, pdl) =
        flexrpc_idl::corba::parse_annotated("feed_callback", src).expect("callback IDL parses");
    let iface = module.interface("FeedCallback").expect("declared");
    let base = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let pres = apply_pdl(&module, iface, &base, &pdl).expect("annotations apply");
    (module, pres)
}

/// Runs the scenario. When `metrics` is given, the stream and callback
/// counters are adopted into it (`stream.*`, `engine.callbacks_delivered`)
/// before any frame moves.
pub fn run(cfg: &EditFeedConfig, metrics: Option<&MetricsRegistry>) -> EditFeedRun {
    let clock = SimClock::new();
    let engine = Engine::builder()
        .workers(2)
        .clock(Arc::clone(&clock))
        .at_most_once(Duration::from_secs(120))
        .build();

    // Subscribers: each registers a callback interface; the service holds
    // the reverse-direction channels. One shared delivery counter cell.
    let (cb_module, cb_pres) = callback_interface();
    let cb_iface = cb_module.interface("FeedCallback").expect("declared");
    let cb_compiled = Arc::new(
        CompiledInterface::compile(&cb_module, cb_iface, &cb_pres).expect("callback compiles"),
    );
    let callbacks = CallbackCounters::default();
    let feeds: Vec<EditLog> =
        (0..cfg.subscribers).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let mut channels = Vec::with_capacity(cfg.subscribers);
    for feed in &feeds {
        let mut receiver = ServerInterface::new_shared(Arc::clone(&cb_compiled), WireFormat::Xdr);
        let sink = Arc::clone(feed);
        receiver
            .on("edit", move |call| {
                let seq = call.u32("seq").expect("seq");
                let data = call.str("data").expect("data").to_owned();
                sink.lock().push((seq, data));
                0
            })
            .expect("edit handler registers");
        let receiver = Arc::new(Mutex::new(receiver));
        channels
            .push(CallbackChannel::new(&receiver, Arc::clone(&clock)).with_counters(&callbacks));
    }
    let channels = Arc::new(Mutex::new(channels));

    // The service: append to the log, fan out to every subscriber.
    let log: Arc<Mutex<Vec<(u32, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let (module, server_pres) = feed_interface(cfg.server_window);
    {
        let (log, channels) = (Arc::clone(&log), Arc::clone(&channels));
        engine
            .register_service("feed", module, "Feed", server_pres, WireFormat::Xdr, move |srv| {
                let (log, channels) = (Arc::clone(&log), Arc::clone(&channels));
                srv.on("publish", move |call| {
                    let seq = call.u32("seq").expect("seq");
                    let data = call.str("data").expect("data").to_owned();
                    log.lock().push((seq, data.clone()));
                    for ch in channels.lock().iter_mut() {
                        let mut frame = ch.new_frame("edit").expect("frame");
                        frame[0] = Value::U32(seq);
                        frame[1] = Value::Str(data.clone());
                        ch.deliver("edit", &mut frame).expect("callback delivers");
                    }
                    0
                })
                .expect("publish handler registers");
            })
            .expect("service registers");
    }

    // The publisher declares its own window; the bind negotiates the
    // minimum and fails on shape disagreement.
    let (client_module, client_pres) = feed_interface(cfg.client_window);
    let conn =
        engine.connect("feed").client_presentation(&client_pres).establish().expect("bind agrees");
    let negotiated = conn.negotiated_shape("publish").expect("publish negotiated");
    let client_iface = client_module.interface("Feed").expect("declared");
    let compiled = CompiledInterface::compile(&client_module, client_iface, &client_pres)
        .expect("client compiles");
    let mut stub = ClientStub::new(compiled, WireFormat::Xdr, Box::new(conn));
    stub.enable_at_most_once();
    let options = CallOptions::default()
        .retry(RetryPolicy::new(4).backoff(Duration::from_micros(50)).seed(11));
    let mut sender = StreamSender::over(stub, "publish", negotiated, cfg.drain_ns)
        .expect("stream binds")
        .with_options(options);
    if let Some(reg) = metrics {
        sender.register_metrics(reg);
        callbacks.register_metrics(reg);
    }

    let mut faults = 0usize;
    for seq in 0..cfg.edits {
        if cfg.close_every > 0 && seq % cfg.close_every == cfg.close_every - 1 {
            engine.faults().on_next_call(Fault::Close);
            faults += 1;
        }
        let mut frame = sender.new_frame().expect("frame");
        frame[0] = Value::U32(seq as u32);
        frame[1] = Value::Str(format!("edit #{seq}"));
        sender.send(&mut frame).expect("publish survives reply loss");
    }
    sender.drain();
    engine.shutdown();

    // Account losses and duplicates across the server log and every
    // subscriber feed: each must hold exactly 0..edits, in order.
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut audit = |seen: &[(u32, String)]| {
        let mut counts = vec![0u32; cfg.edits];
        for (seq, _) in seen {
            counts[*seq as usize] += 1;
        }
        lost += counts.iter().filter(|&&c| c == 0).count() as u64;
        duplicated += counts.iter().filter(|&&c| c > 1).count() as u64;
        // FIFO: sequence numbers arrive in send order.
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "frames kept FIFO order");
    };
    let executions = log.lock().len() as u64;
    audit(log.lock().as_slice());
    for feed in &feeds {
        audit(feed.lock().as_slice());
    }

    let sim_ns = clock.now_ns();
    let delivered = callbacks.delivered.get();
    EditFeedRun {
        subscribers: cfg.subscribers,
        edits: cfg.edits,
        window: negotiated.window().expect("stream shape"),
        faults,
        lost,
        duplicated,
        executions,
        callbacks_delivered: delivered,
        credit_stalls: sender.credit().stalls(),
        credits_waited_ns: sender.credit().waited_ns(),
        sim_ns,
        callbacks_per_sec: if sim_ns == 0 { 0.0 } else { delivered as f64 * 1e9 / sim_ns as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EditFeedConfig {
        EditFeedConfig { subscribers: 25, edits: 20, ..EditFeedConfig::default() }
    }

    #[test]
    fn window_negotiates_to_the_minimum() {
        let r = run(&small(), None);
        assert_eq!(r.window, 8, "min(client 32, server 8)");
    }

    #[test]
    fn no_frame_lost_or_duplicated_under_reply_loss() {
        let r = run(&small(), None);
        assert!(r.faults > 0, "the scenario injected Close faults: {r:?}");
        assert_eq!((r.lost, r.duplicated), (0, 0), "{r:?}");
        assert_eq!(r.executions, r.edits as u64, "one execution per edit: {r:?}");
        assert_eq!(
            r.callbacks_delivered,
            (r.edits * r.subscribers) as u64,
            "every subscriber saw every edit exactly once: {r:?}"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(&small(), None);
        let b = run(&small(), None);
        assert_eq!(a, b, "sim time has no noise");
    }

    #[test]
    fn metrics_land_in_the_registry() {
        let reg = MetricsRegistry::new();
        let r = run(&small(), Some(&reg));
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("stream.frames"), Some(&(r.edits as u64)));
        assert_eq!(snap.counters.get("engine.callbacks_delivered"), Some(&r.callbacks_delivered));
        assert_eq!(snap.counters.get("stream.credit_stalls"), Some(&r.credit_stalls));
        let h = snap.histograms.get("stream.credits_waited_ns").expect("adopted");
        assert_eq!(h.sum, r.credits_waited_ns);
    }

    #[test]
    fn mismatched_shapes_fail_the_bind() {
        // A client that declares `publish` unary cannot bind to the
        // streaming service.
        let clock = SimClock::new();
        let engine = Engine::builder().clock(clock).build();
        let (module, server_pres) = feed_interface(4);
        engine
            .register_service("feed", module, "Feed", server_pres, WireFormat::Xdr, |_| {})
            .expect("registers");
        let plain = flexrpc_idl::corba::parse(
            "feed",
            "interface Feed { void publish(in unsigned long seq, in string data); };",
        )
        .expect("parses");
        let iface = plain.interface("Feed").expect("declared");
        let unary_pres = InterfacePresentation::default_for(&plain, iface).expect("defaults");
        let err = engine
            .connect("feed")
            .client_presentation(&unary_pres)
            .establish()
            .expect_err("shape mismatch fails the bind");
        assert!(err.to_string().contains("call-shape mismatch"), "{err}");
        engine.shutdown();
    }
}
