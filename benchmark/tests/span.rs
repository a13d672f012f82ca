//! Span trees: parent resolution, self-time subtraction, cost correction.

use flexrpc_benchmark::span::{accumulate, resolve_parents, self_times, Span, SpanCost, ROOT};
use std::collections::BTreeMap;

fn span(name: &'static str, request: u64, requests: u32, start_ns: u64, end_ns: u64) -> Span {
    Span { name, request, requests, start_ns, end_ns, parent: ROOT }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    // root [0,100) ⊃ a [10,40), b [30,60) (overlapping a), c [70,80);
    // a ⊃ leaf [15,25).
    let mut spans = vec![
        span("root", 0, 1, 0, 100),
        span("a", 0, 1, 10, 40),
        span("b", 0, 1, 30, 60),
        span("c", 0, 1, 70, 80),
        span("leaf", 0, 1, 15, 25),
    ];
    spans[1].parent = 0;
    spans[2].parent = 0;
    spans[3].parent = 0;
    spans[4].parent = 1;
    // Children cover [10,60) ∪ [70,80) = 60 of root's 100.
    assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 10]);
}

#[test]
fn a_child_reaching_past_its_parent_is_clipped() {
    let mut spans = vec![span("parent", 0, 1, 10, 20), span("child", 0, 1, 15, 30)];
    spans[1].parent = 0;
    assert_eq!(self_times(&spans), vec![5, 15]);
}

#[test]
fn client_spans_nest_and_handlers_join_by_request() {
    // Two calls on the client thread, each stub.call ⊃ transport.call, then
    // one handler span per call from the server log.
    let mut spans = vec![
        span("transport.call", 0, 1, 12, 40),
        span("stub.call", 0, 1, 10, 50),
        span("transport.call", 1, 1, 62, 90),
        span("stub.call", 1, 1, 60, 100),
        span("handler", 0, 1, 20, 30),
        span("handler", 1, 1, 70, 80),
    ];
    resolve_parents(&mut spans, 4);
    let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![1, ROOT, 3, ROOT, 0, 2]);
}

#[test]
fn a_queued_handler_hangs_under_the_batch_that_waited_for_it() {
    // A batch of two: both submits, then both waits. The worker runs
    // request 0 while the client is still submitting request 1, and
    // request 1 while the client waits for request 0 — neither handler is
    // inside a client span of its own request, so both join the batch.
    let mut spans = vec![
        span("submit", 0, 1, 1, 5),
        span("submit", 1, 1, 6, 10),
        span("wait", 0, 1, 11, 20),
        span("wait", 1, 1, 21, 22),
        span("batch", 0, 2, 0, 23),
        span("handler", 0, 1, 6, 9),
        span("handler", 1, 1, 12, 15),
    ];
    resolve_parents(&mut spans, 5);
    assert_eq!(spans[0].parent, 4);
    assert_eq!(spans[3].parent, 4);
    assert_eq!(spans[4].parent, ROOT);
    assert_eq!(spans[5].parent, 4, "request 0's handler ran outside submit(0) and wait(0)");
    assert_eq!(spans[6].parent, 4, "wait(0) covers the time but not the request");
    // A handler of another batch's request never joins this one.
    let mut stray = vec![span("batch", 0, 2, 0, 23), span("handler", 7, 1, 6, 9)];
    resolve_parents(&mut stray, 1);
    assert_eq!(stray[1].parent, ROOT);
}

#[test]
fn accumulate_scales_and_takes_the_recording_cost_out() {
    let mut spans = vec![span("outer", 0, 1, 0, 1_000), span("inner", 0, 1, 100, 400)];
    spans[1].parent = 0;
    let cost = SpanCost { total_ns: 70.0, inside_ns: 30.0 };
    let mut ledger = BTreeMap::new();
    accumulate(&mut ledger, &spans, 0.5, cost);
    // outer: 1000 × 0.5 − its own 30 − one descendant's 70.
    assert_eq!(ledger["outer"].mean_ns(), 400.0);
    // outer's self: 700 × 0.5 − 30 − (70 − 30) of the child's cost outside
    // the child's interval.
    assert_eq!(ledger["outer"].mean_self_ns(), 280.0);
    // inner: 300 × 0.5 − 30.
    assert_eq!(ledger["inner"].mean_ns(), 120.0);
    assert_eq!(ledger["inner"].mean_self_ns(), 120.0);
}
