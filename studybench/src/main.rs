//! One run of one study-benchmark workload, in a fresh process.
//!
//! ```text
//! p2pmal-studybench --workload <lw_steady|lw_churn|ft_month>
//!                   [--seed N] [--trace] [--spans-dir DIR] [--setup-only]
//! ```
//!
//! Drives `p2pmal-core`'s public scenario API from outside, times the
//! calls, checks the outputs and prints one JSON object on stdout. Peak RSS
//! is process-wide, so each workload run needs a process of its own;
//! `run.py` next to this package starts one per run and aggregates them.

mod checks;
mod trace;

use checks::Checks;
use p2pmal_analysis::Comparison;
use p2pmal_core::{fault_profile, LimewireScenario, NetworkRun, OpenFtScenario, StudyReport};
use p2pmal_corpus::InternStats;
use p2pmal_crawler::{CrawlLog, ScanStats};
use p2pmal_json::Value;
use p2pmal_netsim::telemetry::{Counter, TelemetryConfig};
use p2pmal_netsim::{SimMetrics, Subsystem};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The LimeWire bands hold from the second simulated day on.
const LW_DAYS: u64 = 2;
/// The paper's full OpenFT collection.
const FT_DAYS: u64 = 35;
/// The study's default seed.
const DEFAULT_SEED: u64 = 2006;
/// The presets' default cross-shard window, set explicitly.
const SHARD_WINDOW_US: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LwSteady,
    LwChurn,
    FtMonth,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::LwSteady, Workload::LwChurn, Workload::FtMonth];

    fn name(self) -> &'static str {
        match self {
            Workload::LwSteady => "lw_steady",
            Workload::LwChurn => "lw_churn",
            Workload::FtMonth => "ft_month",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn faults(self) -> &'static str {
        match self {
            Workload::LwChurn => "mild",
            _ => "none",
        }
    }

    /// No injected faults: every byte arrives unaltered, and the
    /// calibration the bands describe applies.
    fn fault_free(self) -> bool {
        self.faults() == "none"
    }

    fn days(self) -> u64 {
        match self {
            Workload::FtMonth => FT_DAYS,
            _ => LW_DAYS,
        }
    }

    /// Whether every expectation band was measured to hold at `seed` on
    /// this workload. Bands count as checks there; elsewhere a miss is
    /// reported but not counted, because the calibration does not hold at
    /// every seed: `ft_month` misses bands at seeds 1, 3, 4 and 10, and
    /// `lw_churn` at seeds 3, 4, 7, 9 and 10.
    fn bands_hold_at(self, seed: u64) -> bool {
        let seeds: &[u64] = match self {
            Workload::LwSteady => &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 2006],
            Workload::LwChurn => &[1, 2, 5, 6, 8, 2006],
            Workload::FtMonth => &[2, 5, 6, 7, 8, 9, 2006],
        };
        seeds.contains(&seed)
    }
}

/// The fully explicit configuration of one workload run. The presets read
/// `P2PMAL_*` variables at construction; `main` refuses to start when any
/// is set, and every field the benchmark depends on is then overwritten.
enum Scenario {
    Limewire(LimewireScenario),
    OpenFt(OpenFtScenario),
}

impl Scenario {
    fn new(w: Workload, seed: u64, days: u64) -> Self {
        let (faults, retry) = fault_profile(w.faults()).expect("known fault profile");
        match w {
            Workload::LwSteady | Workload::LwChurn => {
                let mut s = LimewireScenario::paper_scale(seed).with_faults(faults, retry);
                s.days = days;
                s.shards = 1;
                s.shard_window_us = SHARD_WINDOW_US;
                s.telemetry = TelemetryConfig::off();
                Scenario::Limewire(s)
            }
            Workload::FtMonth => {
                // The study derives its OpenFT seed this way (Study::paper_scale).
                let mut s = OpenFtScenario::paper_scale(seed ^ 0xF7).with_faults(faults, retry);
                s.days = days;
                s.shards = 1;
                s.shard_window_us = SHARD_WINDOW_US;
                s.telemetry = TelemetryConfig::off();
                Scenario::OpenFt(s)
            }
        }
    }

    fn run(&self, progress: impl FnMut(u64)) -> NetworkRun {
        match self {
            Scenario::Limewire(s) => s.run_with_progress(progress),
            Scenario::OpenFt(s) => s.run_with_progress(progress),
        }
    }
}

/// Host seconds of a zero-day collection: everything before the first
/// simulated event (world, catalog, signature DB, population), plus the
/// finish of a run with an empty log. The drop is not timed.
fn setup_probe(w: Workload, seed: u64) -> f64 {
    let scenario = Scenario::new(w, seed, 0);
    let t0 = Instant::now();
    let run = scenario.run(|_| {});
    let secs = t0.elapsed().as_secs_f64();
    drop(run);
    secs
}

/// Host instants observed around one scenario call.
struct Timed {
    start: Instant,
    days: Vec<Instant>,
    returned: Instant,
    /// The scenario's own simulation-loop wall (`NetworkRun::wall`).
    sim: Duration,
}

impl Timed {
    /// Loop time of days 2.. is the gap between their callbacks; day 1's is
    /// whatever of the loop wall remains.
    fn day_secs(&self) -> Vec<f64> {
        let gaps: Vec<f64> = self
            .days
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect();
        let first = (self.sim.as_secs_f64() - gaps.iter().sum::<f64>()).max(0.0);
        std::iter::once(first).chain(gaps).collect()
    }

    /// Time to the first callback minus day 1's loop time.
    fn setup_secs(&self) -> f64 {
        let first_cb = self.days[0].duration_since(self.start).as_secs_f64();
        first_cb - self.day_secs()[0]
    }

    fn setup_end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.setup_secs().max(0.0))
    }

    fn finish_secs(&self) -> f64 {
        let last = *self.days.last().expect("at least one day ran");
        self.returned.duration_since(last).as_secs_f64()
    }
}

/// Everything a finished workload hands to the metrics and checks.
struct Outcome {
    timed: Timed,
    filter_eval: (Instant, Instant),
    analysis: (Instant, Instant),
    metrics: SimMetrics,
    resolved_rows: usize,
    malicious: usize,
    comparison: Comparison,
    intern: InternStats,
    checks: Checks,
    log: LogCounts,
}

/// The crawl-log counters the metrics and the fingerprint read.
struct LogCounts {
    queries: u64,
    responses: u64,
    downloads_attempted: u64,
    downloads_failed: u64,
    retries: u64,
    scan: ScanStats,
}

impl LogCounts {
    fn of(log: &CrawlLog) -> Self {
        LogCounts {
            queries: log.queries_issued,
            responses: log.responses.len() as u64,
            downloads_attempted: log.downloads_attempted,
            downloads_failed: log.downloads_failed,
            retries: log.retries_scheduled,
            scan: log.scan,
        }
    }
}

fn run_workload(scenario: &Scenario, w: Workload, seed: u64) -> Outcome {
    let start = Instant::now();
    let mut days = Vec::new();
    let run = scenario.run(|_| days.push(Instant::now()));
    let timed = Timed {
        start,
        days,
        returned: Instant::now(),
        sim: run.wall,
    };
    let report = match scenario {
        Scenario::Limewire(_) => StudyReport {
            limewire: Some(run),
            openft: None,
        },
        Scenario::OpenFt(_) => StudyReport {
            limewire: None,
            openft: Some(run),
        },
    };
    let t = Instant::now();
    std::hint::black_box(report.filter_comparison());
    let filter_eval = (t, Instant::now());
    let t = Instant::now();
    let comparison = report.comparisons();
    std::hint::black_box(report.render_markdown());
    let analysis = (t, Instant::now());

    let run = report
        .limewire
        .as_ref()
        .or(report.openft.as_ref())
        .expect("one network ran");
    let mut checks = Checks::default();
    checks.bands(&comparison, w.bands_hold_at(seed));
    checks.verdicts(
        &run.resolved,
        &run.world.roster,
        &run.world.store,
        &run.world.catalog,
        w.fault_free(),
    );
    checks.crawl_log(&run.log);
    Outcome {
        timed,
        filter_eval,
        analysis,
        metrics: run.sim_metrics.clone(),
        resolved_rows: run.resolved.len(),
        malicious: run.resolved.iter().filter(|r| r.malware.is_some()).count(),
        comparison,
        intern: run.world.names.stats(),
        checks,
        log: LogCounts::of(&run.log),
    }
}

/// FNV-1a 64 over the canonical rendering of the deterministic outputs.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fingerprint(o: &Outcome) -> String {
    let mut s = format!(
        "events={};responses={};downloads={};downloads_failed={};malicious={}",
        o.metrics.events_processed,
        o.log.responses,
        o.log.downloads_attempted,
        o.log.downloads_failed,
        o.malicious
    );
    for e in &o.comparison.expectations {
        write!(s, ";{}={:016x}", e.id, e.measured.to_bits()).expect("write to String");
    }
    for c in Counter::ALL {
        write!(s, ";{}={}", c.label(), o.metrics.telemetry.counter(c)).expect("write to String");
    }
    s
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn per_event_ns(secs: f64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        secs * 1e9 / events as f64
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metrics `(name, value, unit)`, named `<crate>.<metric>`.
fn layers(w: Workload, o: &Outcome, scan_threads: usize) -> Vec<(&'static str, f64, &'static str)> {
    let m = &o.metrics;
    let t = &m.timing;
    let secs = |s: Subsystem| t.nanos(s) as f64 / 1e9;
    let events = m.events_processed;
    let sim_s = o.timed.sim.as_secs_f64();
    let app_self = secs(Subsystem::App)
        - secs(Subsystem::Scan)
        - secs(Subsystem::ScanMerge)
        - secs(Subsystem::QueryMatch);
    let (gnutella_self, openft_self) = match w {
        Workload::FtMonth => (0.0, app_self),
        _ => (app_self, 0.0),
    };
    let days = o.timed.day_secs();
    let faults = m.faults_chunks_dropped
        + m.faults_chunks_corrupted
        + m.faults_resets
        + m.faults_latency_spikes
        + m.faults_churn_downs;
    let scan_s = secs(Subsystem::Scan);
    let l = &o.log;
    let bytes_hashed = l.scan.bytes_hashed;
    let span_secs = |(a, b): (Instant, Instant)| b.duration_since(a).as_secs_f64();
    vec![
        ("netsim.events", events as f64, "count"),
        ("netsim.ns_per_event", per_event_ns(sim_s, events), "ns"),
        ("netsim.scheduler_s", secs(Subsystem::Scheduler), "s"),
        ("netsim.tcp_pump_s", secs(Subsystem::TcpPump), "s"),
        ("netsim.day_s.p50", median(&days), "s"),
        (
            "netsim.day_s.max",
            days.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        (
            "netsim.queue_high_water",
            m.queue_high_water as f64,
            "count",
        ),
        (
            "netsim.pool_hit_pct",
            pct(m.pool_hits, m.pool_hits + m.pool_misses),
            "%",
        ),
        (
            "netsim.conns_established",
            m.conns_established as f64,
            "count",
        ),
        ("netsim.conns_failed", m.conns_failed as f64, "count"),
        (
            "netsim.conn_success_pct",
            pct(m.conns_established, m.conns_established + m.conns_failed),
            "%",
        ),
        ("netsim.bytes_delivered", m.bytes_delivered as f64, "B"),
        ("netsim.faults_injected", faults as f64, "count"),
        (
            "netsim.app_bytes_per_node",
            m.memory.bytes_per_node() as f64,
            "B",
        ),
        ("gnutella.app_self_s", gnutella_self, "s"),
        (
            "gnutella.app_ns_per_event",
            per_event_ns(gnutella_self, events),
            "ns",
        ),
        ("openft.app_self_s", openft_self, "s"),
        ("corpus.query_match_s", secs(Subsystem::QueryMatch), "s"),
        (
            "corpus.query_match_calls",
            t.calls(Subsystem::QueryMatch) as f64,
            "count",
        ),
        ("corpus.intern_unique", o.intern.unique as f64, "count"),
        ("corpus.intern_hits", o.intern.hits as f64, "count"),
        ("scanner.scan_s", scan_s, "s"),
        ("scanner.bodies", l.scan.bodies as f64, "count"),
        ("scanner.bytes_hashed", bytes_hashed as f64, "B"),
        (
            "scanner.mb_per_s",
            if scan_s > 0.0 {
                bytes_hashed as f64 / scan_s / 1e6
            } else {
                0.0
            },
            "MB/s",
        ),
        (
            "scanner.cache_hit_pct",
            pct(l.scan.cache_hits, l.scan.cache_hits + l.scan.cache_misses),
            "%",
        ),
        ("scanner.threads", scan_threads as f64, "count"),
        ("crawler.queries", l.queries as f64, "count"),
        ("crawler.responses", l.responses as f64, "count"),
        (
            "crawler.downloads_attempted",
            l.downloads_attempted as f64,
            "count",
        ),
        (
            "crawler.downloads_failed",
            l.downloads_failed as f64,
            "count",
        ),
        ("crawler.retries", l.retries as f64, "count"),
        (
            "crawler.download_success_pct",
            pct(
                l.downloads_attempted - l.downloads_failed,
                l.downloads_attempted,
            ),
            "%",
        ),
        ("core.finish_s", o.timed.finish_secs(), "s"),
        ("filter.eval_s", span_secs(o.filter_eval), "s"),
        ("analysis.report_s", span_secs(o.analysis), "s"),
        ("analysis.rows", o.resolved_rows as f64, "count"),
    ]
}

/// Records the spans of one finished workload.
fn record_spans(tracer: &mut Tracer, o: &Outcome) {
    let t = &o.timed;
    let run = tracer.record("core.run", None, t.start, t.returned);
    let setup_end = t.setup_end();
    tracer.record("core.setup", Some(run), t.start, setup_end);
    let mut day_start = setup_end;
    for &end in &t.days {
        tracer.record("netsim.day", Some(run), day_start.min(end), end);
        day_start = end;
    }
    tracer.record("core.finish", Some(run), day_start, t.returned);
    tracer.record("filter.eval", None, o.filter_eval.0, o.filter_eval.1);
    tracer.record("analysis.report", None, o.analysis.0, o.analysis.1);
}

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    spans_dir: Option<std::path::PathBuf>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace, mut spans_dir, mut setup_only) =
        (None, None, false, None, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => trace = true,
            "--spans-dir" => spans_dir = Some(value()?.into()),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        trace,
        spans_dir,
        setup_only,
    })
}

fn main() -> ExitCode {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("P2PMAL_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: {} set; the benchmark configures every knob itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        // A process of its own per probe, so every set-up sample pays what
        // the measured run's set-up pays in a fresh process.
        let secs = setup_probe(args.workload, args.seed);
        println!("{{\"setup_probe_s\": {secs}}}");
        return ExitCode::SUCCESS;
    }
    let scenario = Scenario::new(args.workload, args.seed, args.workload.days());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The presets' scan-thread default (P2PMAL_SCAN_THREADS is refused
    // above), recorded rather than set.
    let scan_threads = nproc.min(8);

    let o = run_workload(&scenario, args.workload, args.seed);
    let wall_s = o.analysis.1.duration_since(o.timed.start).as_secs_f64();
    let peak_rss_kb = p2pmal_netsim::process_rss_kb().0;

    let run_id = format!(
        "{:016x}",
        fnv1a64(&format!(
            "{}/{:?}",
            std::process::id(),
            std::time::SystemTime::now()
        ))
    );
    let mut span_self = Vec::new();
    let trace_t0 = Instant::now();
    if args.trace {
        let mut tracer = Tracer::new(run_id.clone(), o.timed.start);
        record_spans(&mut tracer, &o);
        span_self = tracer.self_secs();
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("spans-{run_id}.jsonl"));
            if let Err(e) = tracer.write_jsonl(&path) {
                eprintln!("writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let trace_cost_s = if args.trace {
        trace_t0.elapsed().as_secs_f64()
    } else {
        0.0
    };

    let fp = fingerprint(&o);
    let strings = |items: &[String]| Value::Arr(items.iter().map(|s| s.as_str().into()).collect());
    let object = |fields: Vec<(&str, Value)>| {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let config = object(vec![
        ("nproc", (nproc as u64).into()),
        ("shards", 1u64.into()),
        ("shard_window_us", SHARD_WINDOW_US.into()),
        ("scan_threads", (scan_threads as u64).into()),
        ("seed", args.seed.into()),
        ("days", args.workload.days().into()),
        ("faults", args.workload.faults().into()),
        ("telemetry", "off".into()),
    ]);
    let layers = layers(args.workload, &o, scan_threads)
        .into_iter()
        .map(|(name, v, unit)| {
            (
                name,
                object(vec![("value", v.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    let result = object(vec![
        ("workload", args.workload.name().into()),
        ("run_id", run_id.into()),
        ("traced", args.trace.into()),
        ("config", config),
        ("wall_s", wall_s.into()),
        ("trace_cost_s", trace_cost_s.into()),
        ("setup_s", o.timed.setup_secs().into()),
        ("sim_s", o.timed.sim.as_secs_f64().into()),
        ("peak_rss_mib", (peak_rss_kb as f64 / 1024.0).into()),
        ("checks_run", o.checks.run.into()),
        ("checks_failed", (o.checks.failed.len() as u64).into()),
        ("failures", strings(&o.checks.failed)),
        ("bands", o.checks.bands.into()),
        (
            "bands_counted",
            args.workload.bands_hold_at(args.seed).into(),
        ),
        ("band_misses", strings(&o.checks.band_misses)),
        ("unverified", strings(&o.checks.unverified)),
        ("digest", format!("{:016x}", fnv1a64(&fp)).into()),
        ("fingerprint", fp.into()),
        ("layers", object(layers)),
        (
            "span_self_s",
            object(span_self.into_iter().map(|(n, v)| (n, v.into())).collect()),
        ),
    ]);
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}
