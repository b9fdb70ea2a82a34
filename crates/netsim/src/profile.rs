//! Lightweight per-subsystem wall-time profiler.
//!
//! The simulator spends its life in a handful of places: popping the event
//! queue, running app callbacks, pumping bytes through simulated TCP, and —
//! inside app callbacks — scanning download bodies and matching queries
//! against share libraries. This module gives each a named bucket of
//! wall-clock nanoseconds so perf work on the full study can see where the
//! time actually goes instead of inferring it from microbenches.
//!
//! Wall-clock time is *diagnostics, not simulation state*: two runs of the
//! same seed produce identical event trajectories but different timings.
//! [`SubsystemProfile`] therefore compares equal to everything, so metric
//! snapshots stay usable in determinism assertions.

use std::time::Instant;

/// Number of profiled subsystems (buckets in a [`SubsystemProfile`]).
pub const SUBSYSTEM_COUNT: usize = 7;

/// The profiled buckets.
///
/// `Scheduler`, `App` and `TcpPump` partition the run loop: queue + conn
/// table + dispatch overhead, app callback bodies, and buffered-action
/// application (dominated by the byte pump). `Scan` and `QueryMatch` are
/// *nested* inside `App` — apps opt in via [`crate::Ctx::time`] around
/// their scan-pipeline and query-matching work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Event queue pop/push, connection table, dispatch overhead.
    Scheduler = 0,
    /// App callback bodies (`on_start`, `on_data`, `on_timer`, ...).
    App = 1,
    /// Applying buffered actions: the simulated-TCP byte pump.
    TcpPump = 2,
    /// Scan-pipeline work: hashing + signature engine (nested inside `App`).
    Scan = 3,
    /// Nothing records into this bucket, so it always reads 0. It stays
    /// only because the study benchmark still names it.
    ScanMerge = 4,
    /// Query matching against share libraries (nested inside `App`).
    QueryMatch = 5,
    /// Sharded runs only: cross-shard mailbox exchange, window sequencing
    /// and barrier synchronization (including worker idle time at the
    /// barriers, so per-shard sums can exceed the wall clock). Zero on
    /// serial runs.
    ShardExchange = 6,
}

impl Subsystem {
    /// Every bucket, in index order.
    pub const ALL: [Subsystem; SUBSYSTEM_COUNT] = [
        Subsystem::Scheduler,
        Subsystem::App,
        Subsystem::TcpPump,
        Subsystem::Scan,
        Subsystem::ScanMerge,
        Subsystem::QueryMatch,
        Subsystem::ShardExchange,
    ];

    /// Stable snake_case label (trace lines, JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Scheduler => "scheduler",
            Subsystem::App => "app",
            Subsystem::TcpPump => "tcp_pump",
            Subsystem::Scan => "scan",
            Subsystem::ScanMerge => "scan_merge",
            Subsystem::QueryMatch => "query_match",
            Subsystem::ShardExchange => "shard_exchange",
        }
    }
}

/// Accumulated wall-clock nanoseconds and call counts per subsystem.
#[derive(Debug, Default, Clone)]
pub struct SubsystemProfile {
    nanos: [u64; SUBSYSTEM_COUNT],
    calls: [u64; SUBSYSTEM_COUNT],
}

impl SubsystemProfile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one timed interval to a bucket.
    #[inline]
    pub fn record(&mut self, s: Subsystem, nanos: u64) {
        self.nanos[s as usize] += nanos;
        self.calls[s as usize] += 1;
    }

    /// Times `f` into bucket `s`.
    #[inline]
    pub fn time<R>(&mut self, s: Subsystem, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(s, start.elapsed().as_nanos() as u64);
        r
    }

    /// Accumulated nanoseconds in bucket `s`.
    pub fn nanos(&self, s: Subsystem) -> u64 {
        self.nanos[s as usize]
    }

    /// Number of intervals recorded into bucket `s`.
    pub fn calls(&self, s: Subsystem) -> u64 {
        self.calls[s as usize]
    }

    /// Nanoseconds across the disjoint run-loop buckets (excludes the
    /// nested `Scan`/`ScanMerge`/`QueryMatch`, which are already inside
    /// `App`).
    pub fn total_nanos(&self) -> u64 {
        self.nanos(Subsystem::Scheduler)
            + self.nanos(Subsystem::App)
            + self.nanos(Subsystem::TcpPump)
    }

    /// Folds another profile into this one (bucket-wise sums).
    pub fn merge(&mut self, other: &SubsystemProfile) {
        for i in 0..SUBSYSTEM_COUNT {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0)
    }

    /// Compact one-line rendering, e.g. for `P2PMAL_TRACE` day lines:
    /// `sched 1.2s app 3.4s pump 0.5s scan 0.2s merge 0.0s match 0.1s
    /// xchg 0.0s`.
    pub fn render_compact(&self) -> String {
        let secs = |s: Subsystem| self.nanos(s) as f64 / 1e9;
        format!(
            "sched {:.1}s app {:.1}s pump {:.1}s scan {:.1}s merge {:.1}s match {:.1}s xchg {:.1}s",
            secs(Subsystem::Scheduler),
            secs(Subsystem::App),
            secs(Subsystem::TcpPump),
            secs(Subsystem::Scan),
            secs(Subsystem::ScanMerge),
            secs(Subsystem::QueryMatch),
            secs(Subsystem::ShardExchange),
        )
    }
}

/// Wall-clock never participates in determinism checks: every profile is
/// "equal" to every other, so `SimMetrics` snapshots from identical-seed
/// runs still compare equal even though their timings differ.
impl PartialEq for SubsystemProfile {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for SubsystemProfile {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_bucket() {
        let mut p = SubsystemProfile::new();
        p.record(Subsystem::App, 100);
        p.record(Subsystem::App, 50);
        p.record(Subsystem::Scan, 7);
        assert_eq!(p.nanos(Subsystem::App), 150);
        assert_eq!(p.calls(Subsystem::App), 2);
        assert_eq!(p.nanos(Subsystem::Scan), 7);
        assert_eq!(p.nanos(Subsystem::Scheduler), 0);
        assert_eq!(p.total_nanos(), 150);
        assert!(!p.is_empty());
    }

    #[test]
    fn time_runs_closure_and_records() {
        let mut p = SubsystemProfile::new();
        let v = p.time(Subsystem::QueryMatch, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(p.calls(Subsystem::QueryMatch), 1);
    }

    #[test]
    fn merge_sums_buckets() {
        let mut a = SubsystemProfile::new();
        let mut b = SubsystemProfile::new();
        a.record(Subsystem::TcpPump, 10);
        b.record(Subsystem::TcpPump, 5);
        b.record(Subsystem::Scheduler, 1);
        a.merge(&b);
        assert_eq!(a.nanos(Subsystem::TcpPump), 15);
        assert_eq!(a.calls(Subsystem::TcpPump), 2);
        assert_eq!(a.nanos(Subsystem::Scheduler), 1);
    }

    #[test]
    fn profiles_compare_equal_regardless_of_content() {
        let mut a = SubsystemProfile::new();
        a.record(Subsystem::App, 999);
        assert_eq!(a, SubsystemProfile::new());
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Subsystem::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "scheduler",
                "app",
                "tcp_pump",
                "scan",
                "scan_merge",
                "query_match",
                "shard_exchange"
            ]
        );
    }
}
