//! Streaming and duplex demo: a `[stream]` publisher feeds an engine
//! service that fans every edit out to `[oneway]` callback subscribers.
//!
//! The publisher and the service each declare a credit window in their
//! annotated IDL; the engine bind negotiates the minimum, and the
//! publisher stalls deterministically on the shared sim clock whenever it
//! runs that many frames ahead of the receiver. The binding is
//! at-most-once, so a connection that dies after the service executed
//! (injected `Fault::Close`) is retried through the reply cache — every
//! subscriber sees every edit exactly once.
//!
//! Run with `cargo run --example edit_feed`.

use flexrpc::clock::Fault;
use flexrpc::prelude::*;
use flexrpc::stream::callback::{CallbackChannel, CallbackCounters};
use std::time::Duration;

fn annotated(
    name: &str,
    src: &str,
    iface: &str,
) -> (flexrpc::core::ir::Module, InterfacePresentation) {
    let (module, pdl) = corba::parse_annotated(name, src).expect("IDL parses");
    let decl = module.interface(iface).expect("declared");
    let base = InterfacePresentation::default_for(&module, decl).expect("defaults");
    let pres = apply_pdl(&module, decl, &base, &pdl).expect("annotations apply");
    (module, pres)
}

fn main() {
    let clock = SimClock::new();
    let engine = Engine::builder()
        .workers(2)
        .clock(Arc::clone(&clock))
        .at_most_once(Duration::from_secs(60))
        .build();

    // Each subscriber registers a callback interface with a `[oneway]`
    // edit op; the service keeps the reverse-direction channels.
    let (cb_module, cb_pres) = annotated(
        "feed_callback",
        "interface FeedCallback { oneway void edit(in unsigned long seq, in string data); };",
        "FeedCallback",
    );
    let cb_iface = cb_module.interface("FeedCallback").expect("declared");
    let cb_compiled =
        Arc::new(CompiledInterface::compile(&cb_module, cb_iface, &cb_pres).expect("compiles"));
    let callbacks = CallbackCounters::default();
    let subscribers = 4usize;
    let feeds: Vec<Arc<Mutex<Vec<String>>>> =
        (0..subscribers).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let mut channels = Vec::new();
    for feed in &feeds {
        let mut receiver = ServerInterface::new_shared(Arc::clone(&cb_compiled), WireFormat::Xdr);
        let sink = Arc::clone(feed);
        receiver
            .on("edit", move |call| {
                let seq = call.u32("seq").expect("seq");
                let data = call.str("data").expect("data");
                sink.lock().push(format!("#{seq}: {data}"));
                0
            })
            .expect("edit handler registers");
        let receiver = Arc::new(Mutex::new(receiver));
        channels
            .push(CallbackChannel::new(&receiver, Arc::clone(&clock)).with_counters(&callbacks));
    }
    let channels = Arc::new(Mutex::new(channels));

    // The service: a `[stream(4)]` publish op that fans out to everyone.
    let (module, server_pres) = annotated(
        "feed",
        "interface Feed { [stream(4)] void publish(in unsigned long seq, in string data); };",
        "Feed",
    );
    engine
        .register_service("feed", module, "Feed", server_pres, WireFormat::Xdr, {
            let channels = Arc::clone(&channels);
            move |srv| {
                let channels = Arc::clone(&channels);
                srv.on("publish", move |call| {
                    let seq = call.u32("seq").expect("seq");
                    let data = call.str("data").expect("data").to_owned();
                    for ch in channels.lock().iter_mut() {
                        let mut frame = ch.new_frame("edit").expect("frame");
                        frame[0] = Value::U32(seq);
                        frame[1] = Value::Str(data.clone());
                        ch.deliver("edit", &mut frame).expect("callback delivers");
                    }
                    0
                })
                .expect("publish handler registers");
            }
        })
        .expect("service registers");

    // The publisher declares a bigger window (16); the bind takes the min.
    let (client_module, client_pres) = annotated(
        "feed",
        "interface Feed { [stream(16)] void publish(in unsigned long seq, in string data); };",
        "Feed",
    );
    let conn =
        engine.connect("feed").client_presentation(&client_pres).establish().expect("bind agrees");
    let negotiated = conn.negotiated_shape("publish").expect("negotiated");
    let client_iface = client_module.interface("Feed").expect("declared");
    let compiled = CompiledInterface::compile(&client_module, client_iface, &client_pres)
        .expect("client compiles");
    let mut stub = ClientStub::new(compiled, WireFormat::Xdr, Box::new(conn));
    stub.enable_at_most_once();
    let options = CallOptions::default()
        .retry(RetryPolicy::new(4).backoff(Duration::from_micros(50)).seed(7));
    let mut sender = StreamSender::over(stub, "publish", negotiated, 250_000)
        .expect("stream binds")
        .with_options(options);
    println!("negotiated window: {} (client 16, server 4)", sender.window());

    // Publish twelve edits; kill the connection after the fifth executed.
    for seq in 0..12u32 {
        if seq == 5 {
            engine.faults().on_next_call(Fault::Close);
        }
        let mut frame = sender.new_frame().expect("frame");
        frame[0] = Value::U32(seq);
        frame[1] = Value::Str(format!("edit {seq}"));
        sender.send(&mut frame).expect("publish survives reply loss");
    }
    sender.drain();
    engine.shutdown();

    println!(
        "published {} edits; {} callbacks delivered; stalled {} times for {} sim-ns",
        sender.frames_sent(),
        callbacks.delivered.get(),
        sender.credit().stalls(),
        sender.credit().waited_ns()
    );
    {
        let first = feeds[0].lock();
        println!("subscriber 0 saw {} edits, e.g. {:?} … {:?}", first.len(), first[0], first[11]);
    }
    assert!(feeds.iter().all(|f| f.lock().len() == 12), "every subscriber saw every edit once");
}
