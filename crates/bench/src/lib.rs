//! Shared harness for the experiment benches.
//!
//! Every table/figure of the paper has its own bench target (see
//! `crates/bench/benches/`); they all consume the same two measurement
//! runs (LimeWire, OpenFT). Paper-scale runs simulate 35 days, so the
//! harness caches each run's resolved log on disk under
//! `target/p2pmal-runs/` — the first experiment pays for the simulation,
//! the rest reload it in seconds.
//!
//! Every run is configured by one [`RunConfig`], parsed from the
//! `P2PMAL_*` environment variables by [`config`]; the table of variables
//! is in `p2pmal_core::config`. A cached artifact records the settings
//! that move its trajectory (quick or paper scale, seed, days, fault
//! profile, retry budget, serial or sharded engine) together with a
//! fingerprint of the workspace sources it was built from, and the cache
//! file is named after a hash of those settings. A load whose record
//! differs, or is missing, is a miss: the run is simulated again and
//! overwrites the file. Every shard count N ≥ 2 runs one trajectory, so
//! they share artifacts.

use p2pmal_core::RunConfig;
use p2pmal_crawler::{
    FailureBreakdown, HostKey, Network, ResolvedResponse, ResponseRecord, ScanStats,
};
use p2pmal_json::Value;
use p2pmal_netsim::SimTime;
use p2pmal_netsim::{Counter, HistSummary};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// The cached form of one network run: everything the analyses consume.
pub struct RunArtifact {
    pub network: Network,
    pub seed: u64,
    pub days: u64,
    pub queries_issued: u64,
    pub downloads_attempted: u64,
    pub downloads_failed: u64,
    pub sim_events: u64,
    /// Scan-pipeline counters (bodies, cache hits, bytes hashed, ...).
    pub scan: ScanStats,
    /// Fault-injection and retry-pipeline counters. All-zero for the
    /// default `none` profile.
    pub resilience: ResilienceStats,
    /// Deterministic telemetry roll-up: named counters and log2-histogram
    /// summaries keyed on sim time (identical for identical seeds).
    pub telemetry: TelemetryStats,
    pub resolved: Vec<ResolvedResponse>,
}

/// Telemetry counters and histogram summaries carried by a
/// [`RunArtifact`]. Only sim-time-keyed values appear here — wall-clock
/// histograms are excluded so cached artifacts stay byte-stable.
#[derive(Debug, Default, Clone)]
pub struct TelemetryStats {
    /// `(label, value)` for every counter in the metrics registry.
    pub counters: Vec<(String, u64)>,
    /// `(label, summary)` for every sim-time histogram.
    pub hists: Vec<(String, HistSummary)>,
}

/// Fault/retry accounting carried by a [`RunArtifact`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ResilienceStats {
    pub retries_scheduled: u64,
    pub retry_successes: u64,
    pub push_fallbacks: u64,
    pub unscannable: u64,
    /// Failed download *attempts* by cause.
    pub failures: FailureBreakdown,
    pub faults_chunks_dropped: u64,
    pub faults_chunks_corrupted: u64,
    pub faults_resets: u64,
    pub faults_latency_spikes: u64,
    pub faults_churn_downs: u64,
    pub faults_churn_ups: u64,
}

/// The process environment's [`RunConfig`]. An invalid `P2PMAL_*`
/// variable ends the process with its message and exit status 2, before
/// anything is simulated.
pub fn config() -> RunConfig {
    RunConfig::from_env().unwrap_or_else(|e| {
        eprintln!("[p2pmal] invalid configuration: {e}");
        std::process::exit(2)
    })
}

/// Writes a BENCH summary to `P2PMAL_BENCH_JSON`, or to `default` when it
/// is unset, creating the file's directory if needed (CI points it at a
/// fresh artifacts directory). `tag` prefixes the stderr report.
pub fn write_bench_json(cfg: &RunConfig, default: &str, doc: &Value, tag: &str) {
    let path = cfg.bench_json.clone().unwrap_or_else(|| default.into());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[{tag}] could not create {}: {e}", dir.display());
        }
    }
    match std::fs::write(&path, doc.to_string_compact()) {
        Ok(()) => eprintln!("[{tag}] wrote summary to {}", path.display()),
        Err(e) => eprintln!("[{tag}] could not write {}: {e}", path.display()),
    }
}

/// Criterion sample count for the `perf_*` benches: 10, or 2 under
/// `P2PMAL_PERF_SMOKE=1` (the CI smoke run).
pub fn perf_samples() -> usize {
    if config().perf_smoke {
        2
    } else {
        10
    }
}

/// Fingerprint of the workspace's `crates/*/src` sources, computed by the
/// build script.
const BUILD_FINGERPRINT: &str = env!("SOURCE_FINGERPRINT");

/// The run cache's entry for `network` under `cfg`, built from sources
/// with fingerprint `build`: the artifact's file, named after a hash of
/// the settings that move the trajectory, and the record the artifact
/// carries, which adds the fingerprint. Every shard count N ≥ 2 runs one
/// trajectory, and the exchange window is a source constant the
/// fingerprint covers, so the engine is all the record says of sharding.
fn cache_entry(network: Network, cfg: &RunConfig, build: &str) -> (PathBuf, Value) {
    let engine = if cfg.shards >= 2 { "sharded" } else { "serial" };
    let mut record = vec![
        ("network".into(), network.label().into()),
        ("quick".into(), cfg.quick.into()),
        ("seed".into(), cfg.study_seed().into()),
        ("days".into(), cfg.days.into()),
        ("faults".into(), cfg.faults.as_str().into()),
        ("retries".into(), cfg.retries.into()),
        ("engine".into(), engine.into()),
    ];
    let mut key = DefaultHasher::new();
    Value::Obj(record.clone())
        .to_string_compact()
        .hash(&mut key);
    record.push(("build".into(), build.into()));
    let name = format!("{}-{:016x}.json", network.label(), key.finish());
    (cache_dir().join(name.to_lowercase()), Value::Obj(record))
}

fn cache_dir() -> PathBuf {
    // Anchor at the workspace target directory regardless of the CWD the
    // bench harness uses (benches run with CWD = crate dir).
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"),
            PathBuf::from,
        )
        .join("p2pmal-runs")
}

/// Loads the artifact at `path` if it carries `record`; a missing or
/// different record is a cache miss. Only a simulation writes a journal,
/// so a run under a `cfg` that asks for one never loads.
fn load(cfg: &RunConfig, path: &Path, record: &Value) -> Option<RunArtifact> {
    if cfg.telemetry.journal.is_some() {
        return None;
    }
    let text = std::fs::read_to_string(path).ok()?;
    let v = p2pmal_json::parse(&text).ok()?;
    if v.get("config")? != record {
        return None;
    }
    artifact_from_json(&v)
}

fn store(path: &Path, artifact: &RunArtifact, record: &Value) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let json = artifact_to_json(artifact, record);
    let _ = std::fs::write(path, json.to_string_compact());
}

fn host_to_json(h: &HostKey) -> Value {
    match h {
        HostKey::Guid(guid) => {
            Value::Obj(vec![("guid".into(), p2pmal_hashes::to_hex(guid).into())])
        }
        HostKey::Addr(ip, port) => Value::Obj(vec![
            ("ip".into(), ip.to_string().into()),
            ("port".into(), (*port as u64).into()),
        ]),
    }
}

fn host_from_json(v: &Value) -> Option<HostKey> {
    if let Some(hex) = v.get("guid").and_then(Value::as_str) {
        let bytes = p2pmal_hashes::from_hex(hex)?;
        return Some(HostKey::Guid(bytes.try_into().ok()?));
    }
    let ip: Ipv4Addr = v.get("ip")?.as_str()?.parse().ok()?;
    let port = v.get("port")?.as_u64()? as u16;
    Some(HostKey::Addr(ip, port))
}

fn resolved_to_json(r: &ResolvedResponse) -> Value {
    let rec = &r.record;
    Value::Obj(vec![
        ("at".into(), rec.at.as_micros().into()),
        ("day".into(), rec.day.into()),
        ("query".into(), rec.query.as_str().into()),
        ("filename".into(), rec.filename.as_str().into()),
        ("size".into(), rec.size.into()),
        ("source_ip".into(), rec.source_ip.to_string().into()),
        ("source_port".into(), (rec.source_port as u64).into()),
        ("needs_push".into(), rec.needs_push.into()),
        ("host".into(), host_to_json(&rec.host)),
        ("downloadable".into(), rec.downloadable.into()),
        ("malware".into(), r.malware.as_deref().into()),
        ("scanned".into(), r.scanned.into()),
        ("sha1".into(), r.sha1.map(|d| d.to_hex()).into()),
    ])
}

fn resolved_from_json(v: &Value) -> Option<ResolvedResponse> {
    let record = ResponseRecord {
        at: SimTime::from_micros(v.get("at")?.as_u64()?),
        day: v.get("day")?.as_u64()?,
        query: v.get("query")?.as_str()?.to_string(),
        filename: v.get("filename")?.as_str()?.to_string(),
        size: v.get("size")?.as_u64()?,
        source_ip: v.get("source_ip")?.as_str()?.parse().ok()?,
        source_port: v.get("source_port")?.as_u64()? as u16,
        needs_push: v.get("needs_push")?.as_bool()?,
        host: host_from_json(v.get("host")?)?,
        downloadable: v.get("downloadable")?.as_bool()?,
    };
    let sha1 = match v.get("sha1")? {
        Value::Null => None,
        s => Some(p2pmal_hashes::Sha1Digest(
            p2pmal_hashes::from_hex(s.as_str()?)?.try_into().ok()?,
        )),
    };
    Some(ResolvedResponse {
        record,
        malware: v.get("malware")?.as_str().map(str::to_string),
        scanned: v.get("scanned")?.as_bool()?,
        sha1,
    })
}

fn scan_to_json(s: &ScanStats) -> Value {
    Value::Obj(vec![
        ("bodies".into(), s.bodies.into()),
        ("bytes_hashed".into(), s.bytes_hashed.into()),
        ("bodies_scanned".into(), s.bodies_scanned.into()),
        ("bytes_scanned".into(), s.bytes_scanned.into()),
        ("cache_hits".into(), s.cache_hits.into()),
        ("cache_misses".into(), s.cache_misses.into()),
        ("cache_evictions".into(), s.cache_evictions.into()),
        ("distinct_payloads".into(), s.distinct_payloads.into()),
    ])
}

fn scan_from_json(v: &Value) -> Option<ScanStats> {
    Some(ScanStats {
        bodies: v.get("bodies")?.as_u64()?,
        bytes_hashed: v.get("bytes_hashed")?.as_u64()?,
        bodies_scanned: v.get("bodies_scanned")?.as_u64()?,
        bytes_scanned: v.get("bytes_scanned")?.as_u64()?,
        cache_hits: v.get("cache_hits")?.as_u64()?,
        cache_misses: v.get("cache_misses")?.as_u64()?,
        cache_evictions: v.get("cache_evictions")?.as_u64()?,
        distinct_payloads: v.get("distinct_payloads")?.as_u64()?,
    })
}

fn failures_to_json(f: &FailureBreakdown) -> Value {
    Value::Obj(
        f.parts()
            .iter()
            .map(|&(k, n)| (k.to_string(), n.into()))
            .collect(),
    )
}

fn failures_from_json(v: &Value) -> Option<FailureBreakdown> {
    let n = |k: &str| v.get(k).and_then(Value::as_u64);
    Some(FailureBreakdown {
        timeout: n("timeout")?,
        reset: n("reset")?,
        truncated: n("truncated")?,
        peer_gone: n("peer_gone")?,
        corrupt: n("corrupt")?,
        other: n("other")?,
    })
}

fn resilience_to_json(r: &ResilienceStats) -> Value {
    Value::Obj(vec![
        ("retries_scheduled".into(), r.retries_scheduled.into()),
        ("retry_successes".into(), r.retry_successes.into()),
        ("push_fallbacks".into(), r.push_fallbacks.into()),
        ("unscannable".into(), r.unscannable.into()),
        ("failures".into(), failures_to_json(&r.failures)),
        (
            "faults_chunks_dropped".into(),
            r.faults_chunks_dropped.into(),
        ),
        (
            "faults_chunks_corrupted".into(),
            r.faults_chunks_corrupted.into(),
        ),
        ("faults_resets".into(), r.faults_resets.into()),
        (
            "faults_latency_spikes".into(),
            r.faults_latency_spikes.into(),
        ),
        ("faults_churn_downs".into(), r.faults_churn_downs.into()),
        ("faults_churn_ups".into(), r.faults_churn_ups.into()),
    ])
}

fn resilience_from_json(v: &Value) -> Option<ResilienceStats> {
    let n = |k: &str| v.get(k).and_then(Value::as_u64);
    Some(ResilienceStats {
        retries_scheduled: n("retries_scheduled")?,
        retry_successes: n("retry_successes")?,
        push_fallbacks: n("push_fallbacks")?,
        unscannable: n("unscannable")?,
        failures: failures_from_json(v.get("failures")?)?,
        faults_chunks_dropped: n("faults_chunks_dropped")?,
        faults_chunks_corrupted: n("faults_chunks_corrupted")?,
        faults_resets: n("faults_resets")?,
        faults_latency_spikes: n("faults_latency_spikes")?,
        faults_churn_downs: n("faults_churn_downs")?,
        faults_churn_ups: n("faults_churn_ups")?,
    })
}

/// Serializes a [`HistSummary`] as the flat object every consumer of
/// `BENCH_study.json` and the run cache shares.
pub fn summary_to_json(s: &HistSummary) -> Value {
    Value::Obj(vec![
        ("count".into(), s.count.into()),
        ("min".into(), s.min.into()),
        ("p50".into(), s.p50.into()),
        ("p90".into(), s.p90.into()),
        ("p99".into(), s.p99.into()),
        ("max".into(), s.max.into()),
    ])
}

fn summary_from_json(v: &Value) -> Option<HistSummary> {
    Some(HistSummary {
        count: v.get("count")?.as_u64()?,
        min: v.get("min")?.as_u64()?,
        p50: v.get("p50")?.as_u64()?,
        p90: v.get("p90")?.as_u64()?,
        p99: v.get("p99")?.as_u64()?,
        max: v.get("max")?.as_u64()?,
    })
}

fn telemetry_to_json(t: &TelemetryStats) -> Value {
    Value::Obj(vec![
        (
            "counters".into(),
            Value::Obj(
                t.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ),
        (
            "hists".into(),
            Value::Obj(
                t.hists
                    .iter()
                    .map(|(k, s)| (k.clone(), summary_to_json(s)))
                    .collect(),
            ),
        ),
    ])
}

fn telemetry_from_json(v: &Value) -> Option<TelemetryStats> {
    let Value::Obj(counters) = v.get("counters")? else {
        return None;
    };
    let Value::Obj(hists) = v.get("hists")? else {
        return None;
    };
    Some(TelemetryStats {
        counters: counters
            .iter()
            .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
            .collect::<Option<_>>()?,
        hists: hists
            .iter()
            .map(|(k, s)| Some((k.clone(), summary_from_json(s)?)))
            .collect::<Option<_>>()?,
    })
}

fn artifact_to_json(a: &RunArtifact, record: &Value) -> Value {
    Value::Obj(vec![
        ("config".into(), record.clone()),
        ("network".into(), a.network.label().to_lowercase().into()),
        ("seed".into(), a.seed.into()),
        ("days".into(), a.days.into()),
        ("queries_issued".into(), a.queries_issued.into()),
        ("downloads_attempted".into(), a.downloads_attempted.into()),
        ("downloads_failed".into(), a.downloads_failed.into()),
        ("sim_events".into(), a.sim_events.into()),
        ("scan".into(), scan_to_json(&a.scan)),
        ("resilience".into(), resilience_to_json(&a.resilience)),
        ("telemetry".into(), telemetry_to_json(&a.telemetry)),
        (
            "resolved".into(),
            Value::Arr(a.resolved.iter().map(resolved_to_json).collect()),
        ),
    ])
}

fn artifact_from_json(v: &Value) -> Option<RunArtifact> {
    let network = match v.get("network")?.as_str()? {
        "limewire" => Network::Limewire,
        "openft" => Network::OpenFt,
        _ => return None,
    };
    let resolved = v
        .get("resolved")?
        .as_arr()?
        .iter()
        .map(resolved_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(RunArtifact {
        network,
        seed: v.get("seed")?.as_u64()?,
        days: v.get("days")?.as_u64()?,
        queries_issued: v.get("queries_issued")?.as_u64()?,
        downloads_attempted: v.get("downloads_attempted")?.as_u64()?,
        downloads_failed: v.get("downloads_failed")?.as_u64()?,
        sim_events: v.get("sim_events")?.as_u64()?,
        scan: scan_from_json(v.get("scan")?)?,
        resilience: resilience_from_json(v.get("resilience")?)?,
        telemetry: telemetry_from_json(v.get("telemetry")?)?,
        resolved,
    })
}

/// Collects the deterministic telemetry roll-up from a finished run.
fn telemetry_of(run: &p2pmal_core::NetworkRun) -> TelemetryStats {
    let reg = &run.sim_metrics.telemetry;
    TelemetryStats {
        counters: Counter::ALL
            .iter()
            .map(|&c| (c.label().to_string(), reg.counter(c)))
            .collect(),
        hists: reg
            .sim_summaries()
            .into_iter()
            .map(|(label, s)| (label.to_string(), s))
            .collect(),
    }
}

/// Collects the artifact's resilience counters from a finished run.
fn resilience_of(run: &p2pmal_core::NetworkRun) -> ResilienceStats {
    let m = &run.sim_metrics;
    ResilienceStats {
        retries_scheduled: run.log.retries_scheduled,
        retry_successes: run.log.retry_successes,
        push_fallbacks: run.log.push_fallbacks,
        unscannable: run.log.unscannable,
        failures: run.log.failures,
        faults_chunks_dropped: m.faults_chunks_dropped,
        faults_chunks_corrupted: m.faults_chunks_corrupted,
        faults_resets: m.faults_resets,
        faults_latency_spikes: m.faults_latency_spikes,
        faults_churn_downs: m.faults_churn_downs,
        faults_churn_ups: m.faults_churn_ups,
    }
}

/// Returns the (possibly cached) LimeWire measurement run.
pub fn limewire_run(cfg: &RunConfig) -> RunArtifact {
    network_run(Network::Limewire, cfg)
}

/// Returns the (possibly cached) OpenFT measurement run.
pub fn openft_run(cfg: &RunConfig) -> RunArtifact {
    network_run(Network::OpenFt, cfg)
}

fn network_run(network: Network, cfg: &RunConfig) -> RunArtifact {
    let label = network.label();
    let (path, record) = cache_entry(network, cfg, BUILD_FINGERPRINT);
    if let Some(a) = load(cfg, &path, &record) {
        eprintln!("[p2pmal] loaded cached {label} run from {}", path.display());
        return a;
    }
    eprintln!("[p2pmal] simulating {label}, faults={}...", cfg.faults);
    let progress = move |d| eprintln!("[p2pmal]   {label} day {d} done");
    let started = std::time::Instant::now();
    let (days, run) = match network {
        Network::Limewire => {
            let s = cfg.limewire();
            (s.days, s.run_with_progress(progress))
        }
        Network::OpenFt => {
            let s = cfg.openft();
            (s.days, s.run_with_progress(progress))
        }
    };
    let secs = started.elapsed().as_secs_f64();
    eprintln!("[p2pmal] {label} run of {days} days took {secs:.1}s");
    let artifact = RunArtifact {
        network,
        seed: cfg.study_seed(),
        days,
        queries_issued: run.log.queries_issued,
        downloads_attempted: run.log.downloads_attempted,
        downloads_failed: run.log.downloads_failed,
        sim_events: run.sim_metrics.events_processed,
        scan: run.log.scan,
        resilience: resilience_of(&run),
        telemetry: telemetry_of(&run),
        resolved: run.resolved,
    };
    store(&path, &artifact, &record);
    artifact
}

/// Runs (or loads) both network measurements, LimeWire and OpenFT each on
/// its own thread. The artifacts are bit-identical to sequential
/// [`limewire_run`] + [`openft_run`] calls: each simulation owns its
/// simulator, world and RNG streams, and the on-disk cache key is the same.
pub fn both_runs(cfg: &RunConfig) -> (RunArtifact, RunArtifact) {
    std::thread::scope(|scope| {
        let lw = scope.spawn(|| limewire_run(cfg));
        let ft = scope.spawn(|| openft_run(cfg));
        (
            lw.join().expect("LimeWire thread panicked"),
            ft.join().expect("OpenFT thread panicked"),
        )
    })
}

/// One seed's worth of a multi-seed sweep.
pub struct SeedRun {
    pub seed: u64,
    pub limewire: RunArtifact,
    pub openft: RunArtifact,
}

/// Multi-seed sweep: one full two-network study per seed, every study on
/// its own thread (and the two networks within a study on threads of their
/// own). Results come back in the order of `seeds`, and each entry matches
/// what a sequential single-seed run of that seed produces.
pub fn run_seeds(cfg: &RunConfig, seeds: &[u64]) -> Vec<SeedRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || {
                    let cfg = cfg.with_seed(seed);
                    let (limewire, openft) = both_runs(&cfg);
                    SeedRun {
                        seed,
                        limewire,
                        openft,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .collect()
    })
}

/// Banner printed by every experiment bench.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id} — {what}");
    println!("reproduction of Kalafut et al., 'A study of malware in P2P networks' (IMC 2006)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(pairs: &[(&str, &str)]) -> RunConfig {
        RunConfig::parse(pairs.iter().copied()).expect("valid test configuration")
    }

    fn artifact() -> RunArtifact {
        RunArtifact {
            network: Network::Limewire,
            seed: 2006,
            days: 1,
            queries_issued: 3,
            downloads_attempted: 2,
            downloads_failed: 1,
            sim_events: 100,
            scan: ScanStats::default(),
            resilience: ResilienceStats::default(),
            telemetry: TelemetryStats::default(),
            resolved: Vec::new(),
        }
    }

    /// A scratch file path unique to this test process and `name`.
    fn scratch_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "p2pmal-bench-cache-{}-{name}.json",
            std::process::id()
        ))
    }

    /// Stores an artifact under `cfg` and build `b1`, then returns whether
    /// it reloads under `other` and build `b2`.
    fn reloads(name: &str, cfg: &RunConfig, other: &RunConfig, b2: &str) -> bool {
        let path = scratch_path(name);
        let (_, record) = cache_entry(Network::Limewire, cfg, "b1");
        store(&path, &artifact(), &record);
        let (_, expected) = cache_entry(Network::Limewire, other, b2);
        let hit = load(other, &path, &expected);
        let _ = std::fs::remove_file(&path);
        hit.map(|a| assert_eq!(a.sim_events, 100)).is_some()
    }

    #[test]
    fn stored_artifact_reloads_under_the_same_config_and_build() {
        let cfg = config(&[("P2PMAL_QUICK", "1"), ("P2PMAL_FAULTS", "mild")]);
        assert!(reloads("same", &cfg, &cfg, "b1"));
        // Settings that leave the trajectory alone share the artifact.
        let traced = config(&[
            ("P2PMAL_QUICK", "1"),
            ("P2PMAL_FAULTS", "mild"),
            ("P2PMAL_TRACE", "1"),
        ]);
        assert!(reloads("traced", &cfg, &traced, "b1"));
        let (two, four) = (
            config(&[("P2PMAL_SHARDS", "2")]),
            config(&[("P2PMAL_SHARDS", "4")]),
        );
        assert_eq!(
            cache_entry(Network::Limewire, &two, "b1"),
            cache_entry(Network::Limewire, &four, "b1"),
            "every shard count >= 2 runs one trajectory"
        );
        assert!(reloads("shards", &two, &four, "b1"));
    }

    #[test]
    fn stored_artifact_misses_under_another_config_or_build() {
        let base = config(&[("P2PMAL_QUICK", "1")]);
        for (name, other) in [
            (
                "engine",
                config(&[("P2PMAL_QUICK", "1"), ("P2PMAL_SHARDS", "4")]),
            ),
            (
                "faults",
                config(&[("P2PMAL_QUICK", "1"), ("P2PMAL_FAULTS", "harsh")]),
            ),
            (
                "retries",
                config(&[("P2PMAL_QUICK", "1"), ("P2PMAL_RETRIES", "2")]),
            ),
        ] {
            assert!(!reloads(name, &base, &other, "b1"), "{name}");
            assert!(!reloads(name, &other, &base, "b1"), "{name}");
            assert_ne!(
                cache_entry(Network::Limewire, &base, "b1").0,
                cache_entry(Network::Limewire, &other, "b1").0,
                "{name} shares a cache file"
            );
        }
        assert!(!reloads("build", &base, &base, "b2"));
        assert_ne!(
            cache_entry(Network::Limewire, &base, "b1").0,
            cache_entry(Network::OpenFt, &base, "b1").0
        );
    }

    #[test]
    fn a_run_that_asks_for_a_journal_never_loads() {
        let cfg = config(&[("P2PMAL_QUICK", "1")]);
        let journaled = config(&[("P2PMAL_QUICK", "1"), ("P2PMAL_JOURNAL", "j.jsonl")]);
        let (_, record) = cache_entry(Network::Limewire, &cfg, "b1");
        let path = scratch_path("journal");
        store(&path, &artifact(), &record);
        assert!(load(&cfg, &path, &record).is_some());
        assert!(load(&journaled, &path, &record).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn artifact_without_a_config_record_misses() {
        let cfg = config(&[("P2PMAL_QUICK", "1")]);
        let (_, record) = cache_entry(Network::Limewire, &cfg, "b1");
        let path = scratch_path("legacy");
        let Value::Obj(fields) = artifact_to_json(&artifact(), &record) else {
            unreachable!("artifacts serialize to objects")
        };
        // The shape artifacts had before they carried a config record.
        let mut legacy: Vec<_> = fields.into_iter().filter(|(k, _)| k != "config").collect();
        legacy.push(("engine".into(), "serial".into()));
        legacy.push(("shard_window_us".into(), 0u64.into()));
        std::fs::write(&path, Value::Obj(legacy).to_string_compact()).unwrap();
        assert!(load(&cfg, &path, &record).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
