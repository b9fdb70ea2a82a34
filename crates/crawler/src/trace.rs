//! Provenance for the crawler's download chain.
//!
//! When a hit is ingested with telemetry live, the crawler captures a
//! [`DlTrace`]: the trace id of the originating query, the span of the
//! `query_matched` event that advertised the file, and the download object
//! key. Every later lifecycle event of that download — each attempt, retry,
//! the terminal completion, the scan verdict and any infections — derives
//! its span from the same three values, so the whole chain reconstructs
//! from the journal without the crawler storing any per-event state.
//!
//! The chain shape (parent → child):
//!
//! ```text
//! query_issued ─ query_matched ─ download_start#0 ─┬─ download_complete
//!                                                  └─ download_retry#1 ─ download_start#1 ─ …
//! download_complete ─ scan_verdict ─ infection×N
//! ```
//!
//! All ids come from [`p2pmal_netsim::telemetry_span`]; deriving them is
//! pure hashing, so carrying a `DlTrace` never perturbs the trajectory.

use p2pmal_netsim::{telemetry_span as span, SpanCtx};

/// Causal identity of one in-flight download, copied through retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlTrace {
    /// Trace id of the query this download descends from.
    pub trace: u64,
    /// Span of the `query_matched` that returned this file.
    pub matched: u64,
    /// Download object key (filename, size, source host).
    pub obj: u64,
}

impl DlTrace {
    pub fn new(trace: u64, matched: u64, name: &str, size: u64, host: &str) -> Self {
        DlTrace {
            trace,
            matched,
            obj: span::download_obj(name, size, host),
        }
    }

    /// Span of `download_start` attempt `attempt`: child of the match for
    /// the first try, of the scheduling retry afterwards.
    pub fn start(&self, attempt: u8) -> SpanCtx {
        let parent = if attempt == 0 {
            self.matched
        } else {
            span::span_retry(self.trace, self.obj, attempt)
        };
        SpanCtx::child(
            self.trace,
            span::span_download(self.trace, self.obj, attempt),
            parent,
        )
    }

    /// Span of the `download_retry` scheduling attempt `attempt` (≥ 1),
    /// child of the attempt that just failed.
    pub fn retry(&self, attempt: u8) -> SpanCtx {
        SpanCtx::child(
            self.trace,
            span::span_retry(self.trace, self.obj, attempt),
            span::span_download(self.trace, self.obj, attempt.saturating_sub(1)),
        )
    }

    /// Span of the terminal `download_complete`, child of the last attempt.
    pub fn done(&self, last_attempt: u8) -> SpanCtx {
        SpanCtx::child(
            self.trace,
            span::span_done(self.trace, self.obj),
            span::span_download(self.trace, self.obj, last_attempt),
        )
    }

    /// Span of the `scan_verdict`, child of the completion.
    pub fn scan(&self) -> SpanCtx {
        SpanCtx::child(
            self.trace,
            span::span_scan(self.trace, self.obj),
            span::span_done(self.trace, self.obj),
        )
    }

    /// Span of the `idx`-th `infection` under the verdict.
    pub fn infection(&self, idx: u64) -> SpanCtx {
        SpanCtx::child(
            self.trace,
            span::span_infection(self.trace, self.obj, idx),
            span::span_scan(self.trace, self.obj),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_are_consistent() {
        let t = DlTrace::new(7, 99, "setup.exe", 4096, "10.0.0.1:6346");
        // First attempt hangs off the match; retries hang off the retry
        // event that scheduled them, which hangs off the failed attempt.
        assert_eq!(t.start(0).parent, Some(99));
        assert_eq!(t.retry(1).parent, Some(t.start(0).span));
        assert_eq!(t.start(1).parent, Some(t.retry(1).span));
        assert_eq!(t.done(1).parent, Some(t.start(1).span));
        assert_eq!(t.scan().parent, Some(t.done(1).span));
        assert_eq!(t.infection(0).parent, Some(t.scan().span));
        assert_ne!(t.infection(0).span, t.infection(1).span);
        // Everything shares the trace id.
        for ctx in [t.start(0), t.retry(1), t.done(1), t.scan(), t.infection(0)] {
            assert_eq!(ctx.trace, 7);
        }
    }
}
