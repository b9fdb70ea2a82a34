//! Runs the full two-network study at paper scale and writes the complete
//! report plus machine-readable comparisons.
//!
//! ```sh
//! cargo run --release -p p2pmal-bench --bin run_study           # paper scale
//! P2PMAL_QUICK=1 cargo run --release -p p2pmal-bench --bin run_study
//! # Multi-seed sweep, one study per thread:
//! P2PMAL_QUICK=1 P2PMAL_SEEDS=1,2,3 cargo run --release -p p2pmal-bench --bin run_study
//! ```
//!
//! The `P2PMAL_*` variables are parsed strictly (see `p2pmal_core::config`):
//! an unknown name or a bad value exits with status 2 before anything runs.

use p2pmal_analysis::hist_summary_line;
use p2pmal_bench::{run_seeds, summary_to_json, write_bench_json, RunArtifact};
use p2pmal_core::{NetworkRun, RunConfig};
use p2pmal_crawler::ScanStats;
use p2pmal_json::Value;
use p2pmal_netsim::{Counter, Subsystem};

/// One line of scan-pipeline accounting: how many download bodies reached
/// the scanner and how much of that work the verdict cache absorbed.
fn scan_line(label: &str, s: &ScanStats) {
    println!(
        "  scan pipeline [{label}]: {} bodies ({} KiB hashed), {} scanned, \
         {} cache hits ({:.1}%), {} distinct payloads",
        s.bodies,
        s.bytes_hashed / 1024,
        s.bodies_scanned,
        s.cache_hits,
        s.hit_rate_pct(),
        s.distinct_payloads,
    );
}

/// Fault-injection and retry-pipeline accounting, printed only when a
/// non-default `P2PMAL_FAULTS` profile is active (the fault-free study's
/// stdout stays byte-identical to the pre-fault-layer build).
fn resilience_lines(label: &str, run: &NetworkRun, profile: &str) {
    let log = &run.log;
    let m = &run.sim_metrics;
    let causes: Vec<String> = log
        .failures
        .parts()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    let causes = if causes.is_empty() {
        "none".to_string()
    } else {
        causes.join(" / ")
    };
    println!(
        "  resilience [{label}] (profile {profile}): {} retries ({} recovered), {} terminal failures, {} failed attempts by cause: {causes}",
        log.retries_scheduled,
        log.retry_successes,
        log.downloads_failed,
        log.failures.total(),
    );
    println!(
        "  faults injected [{label}]: {} chunks dropped, {} corrupted, {} resets, {} latency spikes, {} churn downs / {} ups; {} push fallbacks, {} unscannable",
        m.faults_chunks_dropped,
        m.faults_chunks_corrupted,
        m.faults_resets,
        m.faults_latency_spikes,
        m.faults_churn_downs,
        m.faults_churn_ups,
        log.push_fallbacks,
        log.unscannable,
    );
}

/// Per-network profiler roll-up: the wall time of the simulation loop,
/// event throughput, and the per-subsystem wall-time buckets. Echoed to
/// stderr (stdout is the report and must stay byte-identical across
/// perf-only changes) and serialized into `BENCH_study.json`.
fn timing_entry(label: &str, run: &NetworkRun) -> Value {
    let t = &run.sim_metrics.timing;
    let wall = run.wall.as_secs_f64();
    let events = run.sim_metrics.events_processed;
    let events_per_sec = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    eprintln!(
        "[run_study] timing {label}: {wall:.1}s wall, {events} events ({events_per_sec:.0}/s); {}",
        t.render_compact(),
    );
    if run.shards > 1 {
        eprintln!(
            "[run_study] sharding {label}: {} shards, {} ms exchange window",
            run.shards,
            run.shard_window_us / 1000,
        );
    }
    let buckets = Value::Obj(
        Subsystem::ALL
            .iter()
            .map(|&s| {
                (
                    s.label().to_string(),
                    Value::Obj(vec![
                        ("secs".into(), (t.nanos(s) as f64 / 1e9).into()),
                        ("calls".into(), t.calls(s).into()),
                    ]),
                )
            })
            .collect(),
    );
    Value::Obj(vec![
        ("network".into(), label.into()),
        ("wall_secs".into(), wall.into()),
        ("events".into(), events.into()),
        ("events_per_sec".into(), events_per_sec.into()),
        ("shards".into(), (run.shards as u64).into()),
        ("window_ms".into(), (run.shard_window_us / 1000).into()),
        ("subsystems".into(), buckets),
        ("memory".into(), memory_entry(run)),
        ("telemetry".into(), telemetry_entry(run)),
    ])
}

/// Memory-accounting section of one network's `BENCH_study.json` entry,
/// echoed to stderr like the timing lines (RSS readings are wall-machine
/// facts and never reach stdout).
fn memory_entry(run: &NetworkRun) -> Value {
    let m = &run.sim_metrics.memory;
    eprintln!(
        "[run_study] memory {}: {} nodes, {} bytes/node app estimate ({} KiB total), RSS {} MiB (peak {} MiB)",
        match run.network {
            p2pmal_crawler::Network::Limewire => "LimeWire",
            p2pmal_crawler::Network::OpenFt => "OpenFT",
        },
        m.nodes,
        m.bytes_per_node(),
        m.app_bytes / 1024,
        m.current_rss_kb / 1024,
        m.peak_rss_kb / 1024,
    );
    Value::Obj(vec![
        ("nodes".into(), m.nodes.into()),
        ("app_bytes".into(), m.app_bytes.into()),
        ("bytes_per_node".into(), m.bytes_per_node().into()),
        ("peak_rss_kb".into(), m.peak_rss_kb.into()),
        ("current_rss_kb".into(), m.current_rss_kb.into()),
    ])
}

/// The telemetry section of one network's `BENCH_study.json` entry:
/// registry counters plus count/min/p50/p90/p99/max summaries of every
/// sim-time histogram. Only deterministic (sim-time-keyed) values go into
/// the JSON; wall-clock histograms are echoed to stderr by
/// [`telemetry_lines`] instead.
fn telemetry_entry(run: &NetworkRun) -> Value {
    let reg = &run.sim_metrics.telemetry;
    let counters = Value::Obj(
        Counter::ALL
            .iter()
            .map(|&c| (c.label().to_string(), reg.counter(c).into()))
            .collect(),
    );
    let hists = Value::Obj(
        reg.sim_summaries()
            .into_iter()
            .map(|(label, s)| (label.to_string(), summary_to_json(&s)))
            .collect(),
    );
    Value::Obj(vec![("counters".into(), counters), ("hists".into(), hists)])
}

/// Filename-interning accounting for one network's world, echoed to
/// stderr (stdout must stay byte-identical across perf-only changes).
fn intern_lines(label: &str, run: &NetworkRun) {
    let s = run.world.names.stats();
    eprintln!(
        "[run_study] interning {label}: {} unique names, {} dedup hits, {} KiB of string bytes saved",
        s.unique,
        s.hits,
        s.bytes_saved / 1024,
    );
    eprintln!(
        "[run_study] interning {label}: {} arena records, {} KiB of match metadata saved",
        s.records,
        s.meta_bytes_saved / 1024,
    );
}

/// Echoes the histogram summaries (sim-time and wall-clock) to stderr.
fn telemetry_lines(label: &str, run: &NetworkRun) {
    let reg = &run.sim_metrics.telemetry;
    for (name, s) in reg.sim_summaries() {
        if s.count == 0 {
            continue;
        }
        eprintln!(
            "[run_study] hist {label}: {}",
            hist_summary_line(name, s.count, s.min, s.p50, s.p90, s.p99, s.max)
        );
    }
    for (name, s) in reg.wall_summaries() {
        if s.count == 0 {
            continue;
        }
        eprintln!(
            "[run_study] hist {label} (wall): {}",
            hist_summary_line(name, s.count, s.min, s.p50, s.p90, s.p99, s.max)
        );
    }
}

/// Writes the machine-readable timing summary next to the human report so
/// the perf trajectory is tracked across commits.
fn write_study_json(report: &p2pmal_core::StudyReport, cfg: &RunConfig) {
    let mut networks = Vec::new();
    if let Some(run) = report.limewire.as_ref() {
        networks.push(timing_entry("LimeWire", run));
    }
    if let Some(run) = report.openft.as_ref() {
        networks.push(timing_entry("OpenFT", run));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), cfg.study_seed().into()),
        ("quick".into(), cfg.quick.into()),
        ("faults".into(), cfg.faults.as_str().into()),
        ("config".into(), cfg.to_json()),
        ("networks".into(), Value::Arr(networks)),
    ]);
    write_bench_json(cfg, "BENCH_study.json", &doc, "run_study");
}

fn artifact_line(a: &RunArtifact) {
    let downloadable = a.resolved.iter().filter(|r| r.record.downloadable).count();
    let scanned = a
        .resolved
        .iter()
        .filter(|r| r.record.downloadable && r.scanned)
        .count();
    let malicious = a
        .resolved
        .iter()
        .filter(|r| r.record.downloadable && r.malware.is_some())
        .count();
    let pct = if scanned > 0 {
        100.0 * malicious as f64 / scanned as f64
    } else {
        0.0
    };
    println!(
        "  {:8} seed={:<6} responses={:<6} downloadable={:<6} malicious={:<5} ({:.1}%)  sim_events={}",
        match a.network {
            p2pmal_crawler::Network::Limewire => "LimeWire",
            p2pmal_crawler::Network::OpenFt => "OpenFT",
        },
        a.seed,
        a.resolved.len(),
        downloadable,
        malicious,
        pct,
        a.sim_events,
    );
}

fn sweep(cfg: &RunConfig, seeds: &[u64]) {
    eprintln!("[run_study] multi-seed sweep over {seeds:?}, one study per thread");
    let started = std::time::Instant::now();
    let runs = run_seeds(cfg, seeds);
    eprintln!(
        "[run_study] sweep took {:.1}s wall",
        started.elapsed().as_secs_f64()
    );
    println!("# Multi-seed sweep");
    for run in &runs {
        println!("seed {}:", run.seed);
        artifact_line(&run.limewire);
        scan_line("LimeWire", &run.limewire.scan);
        artifact_line(&run.openft);
        scan_line("OpenFT", &run.openft.scan);
        if cfg.faults != "none" {
            for (label, a) in [("LimeWire", &run.limewire), ("OpenFT", &run.openft)] {
                let r = &a.resilience;
                println!(
                    "  resilience [{label}]: {} retries ({} recovered), {} failed,                      {} faults injected",
                    r.retries_scheduled,
                    r.retry_successes,
                    a.downloads_failed,
                    r.faults_chunks_dropped + r.faults_chunks_corrupted + r.faults_resets,
                );
            }
        }
    }
}

fn main() {
    let cfg = p2pmal_bench::config();
    if let Some(seeds) = &cfg.seeds {
        sweep(&cfg, seeds);
        return;
    }
    let report = cfg
        .study()
        .run_with_progress(|net, day| eprintln!("[run_study] {net}: day {day} done"));

    println!("{}", report.render_markdown());
    if let Some(run) = report.limewire.as_ref() {
        scan_line("LimeWire", &run.log.scan);
    }
    if let Some(run) = report.openft.as_ref() {
        scan_line("OpenFT", &run.log.scan);
    }
    if cfg.faults != "none" {
        if let Some(run) = report.limewire.as_ref() {
            resilience_lines("LimeWire", run, &cfg.faults);
        }
        if let Some(run) = report.openft.as_ref() {
            resilience_lines("OpenFT", run, &cfg.faults);
        }
    }
    if let Some(run) = report.limewire.as_ref() {
        telemetry_lines("LimeWire", run);
        intern_lines("LimeWire", run);
    }
    if let Some(run) = report.openft.as_ref() {
        telemetry_lines("OpenFT", run);
        intern_lines("OpenFT", run);
    }
    write_study_json(&report, &cfg);
    let comparisons = report.comparisons();
    eprintln!("{}", comparisons.to_json());
    if comparisons.all_hold() {
        eprintln!(
            "[run_study] all {} expectations hold",
            comparisons.expectations.len()
        );
    } else {
        eprintln!(
            "[run_study] {} expectation(s) out of band",
            comparisons.failures().len()
        );
        if !cfg.quick {
            std::process::exit(1);
        }
    }
}
