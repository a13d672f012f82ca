//! A `Loopback` handed the only handle to its server keeps the server and
//! calls it without locking; one whose server someone else also holds locks
//! it on every call. They are one transport: the same registration answers
//! the same calls with the same replies, statuses and errors through both,
//! and every `Fault` means the same thing through both.

use flexrpc_clock::{Fault, FaultInjector, SimClock};
use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{ClientStub, ErrorKind, RpcError, ServerInterface};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn compiled() -> CompiledInterface {
    let m = fileio_example();
    let iface = m.interface("FileIO").expect("interface");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    CompiledInterface::compile(&m, iface, &pres).expect("compiles")
}

/// FileIO whose `read(count)` answers `count` bytes, each the number of
/// executions so far (so the reply says which execution produced it), and
/// fails `read(13)` with status 7.
fn server(executions: &Arc<AtomicU64>) -> ServerInterface {
    let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
    let ran = Arc::clone(executions);
    srv.on("read", move |call| {
        let nth = ran.fetch_add(1, Ordering::SeqCst) + 1;
        let count = call.u32("count").expect("count");
        call.set("return", Value::Bytes(vec![nth as u8; count as usize])).expect("return");
        if count == 13 {
            7
        } else {
            0
        }
    })
    .expect("registers");
    srv
}

/// One loopback binding and what a test watches through it.
struct Side {
    stub: ClientStub,
    faults: Arc<FaultInjector>,
    clock: Arc<SimClock>,
    executions: Arc<AtomicU64>,
    /// The handle a shared loopback's server is also held by.
    kept: Option<Arc<Mutex<ServerInterface>>>,
}

fn side(shared: bool) -> Side {
    let executions = Arc::new(AtomicU64::new(0));
    let server = Arc::new(Mutex::new(server(&executions)));
    let kept = shared.then(|| Arc::clone(&server));
    let clock = SimClock::new();
    let transport = Loopback::with_clock(server, Arc::clone(&clock));
    let faults = Arc::clone(transport.faults());
    let stub = ClientStub::new(compiled(), WireFormat::Cdr, Box::new(transport));
    Side { stub, faults, clock, executions, kept }
}

/// What one call did, as its caller and the world see it.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<u32, RpcError>,
    reply: Option<Vec<u8>>,
    executions: u64,
    now_ns: u64,
}

/// One step of a script run through both sides.
#[derive(Clone, Copy)]
enum Step {
    Arm(Fault),
    Call(u32),
    Advance(u64),
}

impl Side {
    fn run(&mut self, script: &[Step]) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        for step in script {
            match *step {
                Step::Arm(fault) => self.faults.on_next_call(fault),
                Step::Advance(ns) => {
                    self.clock.advance_ns(ns);
                }
                Step::Call(count) => {
                    let mut frame = self.stub.new_frame("read").expect("frame");
                    frame[0] = Value::U32(count);
                    let result = self.stub.call("read", &mut frame);
                    outcomes.push(Outcome {
                        result,
                        reply: frame[1].as_bytes().map(<[u8]>::to_vec),
                        executions: self.executions.load(Ordering::SeqCst),
                        now_ns: self.clock.now_ns(),
                    });
                }
            }
        }
        outcomes
    }
}

/// Runs `script` through an owned and a shared loopback, requires the same
/// outcomes from both, and returns them.
fn both(script: &[Step]) -> Vec<Outcome> {
    let (mut owned, mut shared) = (side(false), side(true));
    assert!(owned.kept.is_none() && shared.kept.is_some());
    let outcomes = owned.run(script);
    assert_eq!(outcomes, shared.run(script), "owned and shared loopbacks disagree");
    outcomes
}

fn kind(outcome: &Outcome) -> Option<ErrorKind> {
    outcome.result.as_ref().err().map(RpcError::kind)
}

#[test]
fn owned_and_shared_loopbacks_answer_alike() {
    let script: Vec<Step> = [0, 1, 13, 64, 96, 13].map(Step::Call).to_vec();
    let outcomes = both(&script);
    let statuses: Vec<_> = outcomes.iter().map(|o| o.result.clone()).collect();
    let seven = Err(RpcError::Remote(7));
    assert_eq!(statuses, [Ok(0), Ok(0), seven.clone(), Ok(0), Ok(0), seven]);
    assert_eq!(outcomes[3].reply, Some(vec![4; 64]), "the fourth execution's 64 bytes");
}

#[test]
fn every_fault_means_the_same_through_both_modes() {
    use Step::{Advance, Arm, Call};

    let drop = both(&[Arm(Fault::Drop), Call(8), Call(8)]);
    assert_eq!(kind(&drop[0]), Some(ErrorKind::Retryable));
    assert_eq!(drop[0].executions, 0, "a dropped message executes nothing");
    assert_eq!(drop[1].result, Ok(0));

    let delay = both(&[Arm(Fault::Delay(500)), Call(8)]);
    assert_eq!((delay[0].result.clone(), delay[0].now_ns), (Ok(0), 500));

    let duplicate = both(&[Arm(Fault::Duplicate), Call(8)]);
    assert_eq!(duplicate[0].executions, 2, "a duplicate runs twice");
    assert_eq!(duplicate[0].reply, Some(vec![2; 8]), "the caller sees the second reply");

    let close = both(&[Arm(Fault::Close), Call(8), Call(8)]);
    assert_eq!(kind(&close[0]), Some(ErrorKind::Disconnected));
    assert_eq!(close[0].executions, 1, "closed after the server executed");
    assert_eq!((close[1].result.clone(), close[1].executions), (Ok(0), 2));

    let crash = Fault::Crash { restart_after_ns: Some(1_000) };
    let crash = both(&[Arm(crash), Call(8), Advance(999), Call(8), Advance(1), Call(8)]);
    assert_eq!(kind(&crash[0]), Some(ErrorKind::Disconnected));
    assert_eq!(kind(&crash[1]), Some(ErrorKind::Disconnected), "still down before the restart");
    assert_eq!((crash[2].result.clone(), crash[2].executions), (Ok(0), 1), "restarted");
}

/// A shared loopback calls the very server the other handle reaches: a
/// work function registered through that handle afterwards answers the
/// loopback's next call.
#[test]
fn a_shared_loopback_calls_the_server_its_other_handle_reaches() {
    let mut shared = side(true);
    assert_eq!(shared.run(&[Step::Call(3)])[0].result, Ok(0));
    let kept = shared.kept.as_ref().expect("kept");
    kept.lock().on("read", |_| 42).expect("registers");
    assert_eq!(shared.run(&[Step::Call(3)])[0].result, Err(RpcError::Remote(42)));
}
