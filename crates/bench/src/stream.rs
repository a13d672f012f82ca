//! The `stream` experiment: the non-unary call models end to end.
//!
//! Two scenarios from `flexrpc-stream`, sized for the report binary:
//!
//! * the broadcast **edit feed** — one `[stream]` publisher, a thousand
//!   `[oneway]` callback subscribers, a reply lost every fifth frame; the
//!   gate demands zero lost and zero duplicated frames and a
//!   deterministic rerun;
//! * the **remote file stream** — fault-free writes whose total credit
//!   stall must hit the closed form `(frames - window) * drain_ns`
//!   exactly, and a faulted run whose file contents must come out
//!   byte-identical with one execution per frame.

pub use flexrpc_stream::editfeed::{self, EditFeedConfig, EditFeedRun};
pub use flexrpc_stream::filestream::{self, FileStreamRun};

use flexrpc_marshal::WireFormat;
use flexrpc_trace::MetricsRegistry;

/// The report configuration: the thousand-subscriber default.
pub fn feed_config() -> EditFeedConfig {
    EditFeedConfig::default()
}

/// One edit-feed run (adopting the stream/callback metrics when given).
pub fn edit_feed(metrics: Option<&MetricsRegistry>) -> EditFeedRun {
    editfeed::run(&feed_config(), metrics)
}

/// File-stream shape used by the report: enough frames to stall the
/// window hard.
pub(crate) const FILE_FRAMES: usize = 64;
pub(crate) const FILE_WINDOW: u32 = 8;
pub const FILE_DRAIN_NS: u64 = 250_000;
pub(crate) const FILE_CLOSE_EVERY: usize = 5;

/// Fault-free run: the credit stall must equal its closed-form prediction.
pub fn file_exact() -> FileStreamRun {
    filestream::run(FILE_FRAMES, FILE_WINDOW, FILE_DRAIN_NS, 0, WireFormat::Xdr)
}

/// Reply-loss run: at-most-once writes, contents byte-identical.
pub fn file_faulted() -> FileStreamRun {
    filestream::run(FILE_FRAMES, FILE_WINDOW, FILE_DRAIN_NS, FILE_CLOSE_EVERY, WireFormat::Cdr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_exact_hits_the_closed_form() {
        let r = file_exact();
        assert_eq!(r.credits_waited_ns, r.predicted_stall_ns, "{r:?}");
        assert_eq!(r.sim_ns, FILE_FRAMES as u64 * FILE_DRAIN_NS, "{r:?}");
    }

    #[test]
    fn file_faulted_is_at_most_once() {
        let r = file_faulted();
        assert!(r.faults > 0);
        assert!(r.contents_ok, "{r:?}");
        assert_eq!(r.executions, r.frames as u64, "{r:?}");
    }
}
