//! The instrumented LimeWire-side client: a Gnutella leaf that issues the
//! query workload, logs every query hit, downloads the deduplicated
//! archive/executable responses (direct or via PUSH) and scans them.
//!
//! This is the reproduction of the paper's instrumented LimeWire servent:
//! protocol behaviour comes from [`p2pmal_gnutella::Servent`], measurement
//! behaviour lives here.

use crate::log::{CrawlLog, HostKey, HostSizeKey, NameSizeKey, ResponseRecord, ScanOutcome};
use crate::retry::{classify_gnutella, FailCause, RetryPolicy};
use crate::scan::ScanPipeline;
use crate::trace::DlTrace;
use crate::workload::{Workload, WorkloadConfig};
use p2pmal_gnutella::servent::{
    DownloadError, DownloadMethod, DownloadRequest, Servent, ServentConfig, ServentEvent,
    SharedWorld,
};
use p2pmal_gnutella::{Guid, QueryHit};
use p2pmal_netsim::{
    telemetry_span as span, App, ConnId, Counter, Ctx, Direction, EventBody, EventCategory, Gauge,
    HostAddr, SimDuration, SimHist, Subsystem, WallHist,
};
use p2pmal_scanner::Scanner;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Crawler-owned timer tokens live far above the servent's namespace.
const CRAWLER_BASE: u64 = 1 << 48;
const TIMER_QUERY: u64 = CRAWLER_BASE | 1;
/// Retry timers: `TIMER_RETRY_BASE | seq`. Bit 40 separates them from the
/// crawler's other tokens.
const TIMER_RETRY_BASE: u64 = CRAWLER_BASE | (1 << 40);

/// Crawler tunables.
#[derive(Clone)]
pub struct GnutellaCrawlerConfig {
    pub workload: WorkloadConfig,
    /// Parallel download slots (the study ran a bounded fetch pool).
    pub max_concurrent_downloads: usize,
    /// Warm-up before the first query, letting the overlay converge.
    pub start_delay: SimDuration,
    /// Per-object retry budget and pacing. The default
    /// [`RetryPolicy::legacy()`] is the historical behavior: one immediate
    /// Direct→PUSH fallback, no backoff timers.
    pub retry: RetryPolicy,
    /// Verdict-cache capacity for the scan pipeline (0 disables caching).
    pub scan_cache_entries: usize,
}

impl Default for GnutellaCrawlerConfig {
    fn default() -> Self {
        GnutellaCrawlerConfig {
            workload: WorkloadConfig::default(),
            max_concurrent_downloads: 16,
            start_delay: SimDuration::from_secs(300),
            retry: RetryPolicy::legacy(),
            scan_cache_entries: crate::scan::DEFAULT_SCAN_CACHE_ENTRIES,
        }
    }
}

/// A downloadable object somewhere in its attempt lifecycle.
struct InFlight {
    record: ResponseRecord,
    request: DownloadRequest,
    /// 0 on the first try, incremented per retry.
    attempt: u8,
    /// Provenance of the chain this download descends from; captured at
    /// hit-ingest time only while telemetry is live (None otherwise).
    trace: Option<DlTrace>,
}

/// The instrumented Gnutella client.
pub struct GnutellaCrawler {
    servent: Servent,
    config: GnutellaCrawlerConfig,
    workload: Workload,
    pipeline: ScanPipeline,
    log: CrawlLog,
    /// Query GUID -> query text, for attributing hits.
    queries: HashMap<Guid, String>,
    query_order: VecDeque<Guid>,
    /// Downloadable responses waiting for a slot (retries re-queue at the
    /// front with their attempt count preserved).
    pending: VecDeque<InFlight>,
    in_flight: HashMap<u64, InFlight>,
    /// Objects parked on a backoff timer, by timer token.
    retry_wait: HashMap<u64, InFlight>,
    retry_seq: u64,
    /// Keys currently being fetched (suppress duplicate fetches).
    busy_name_size: HashSet<NameSizeKey>,
    busy_host_size: HashSet<HostSizeKey>,
    /// The most recent workload query and its response count so far; the
    /// fan-out histogram records it when the next query closes it out.
    last_query: Option<(Guid, u64)>,
}

impl GnutellaCrawler {
    /// `servent_config.collect_events` is forced on; `auto_query` is forced
    /// off (the crawler drives its own workload).
    pub fn new(
        mut servent_config: ServentConfig,
        world: SharedWorld,
        scanner: Scanner,
        config: GnutellaCrawlerConfig,
    ) -> Self {
        servent_config.collect_events = true;
        servent_config.auto_query = None;
        // The study downloads multi-megabyte benign executables over
        // 2006-grade upload links; give transfers time to finish.
        servent_config.download_timeout = SimDuration::from_secs(1800);
        GnutellaCrawler {
            servent: Servent::new(servent_config, world, Default::default()),
            workload: Workload::new(config.workload.clone()),
            pipeline: ScanPipeline::new(scanner, config.scan_cache_entries),
            config,
            log: CrawlLog::new(),
            queries: HashMap::new(),
            query_order: VecDeque::new(),
            pending: VecDeque::new(),
            in_flight: HashMap::new(),
            retry_wait: HashMap::new(),
            retry_seq: 0,
            busy_name_size: HashSet::new(),
            busy_host_size: HashSet::new(),
            last_query: None,
        }
    }

    /// Read access to the accumulated log.
    pub fn log(&self) -> &CrawlLog {
        &self.log
    }

    /// Takes the log out of the crawler (end of the run).
    pub fn take_log(&mut self) -> CrawlLog {
        std::mem::take(&mut self.log)
    }

    /// Connectivity diagnostic.
    pub fn peer_count(&self) -> usize {
        self.servent.peer_count()
    }

    fn remember_query(&mut self, guid: Guid, text: String) {
        self.queries.insert(guid, text);
        self.query_order.push_back(guid);
        if self.query_order.len() > 8192 {
            if let Some(old) = self.query_order.pop_front() {
                self.queries.remove(&old);
            }
        }
    }

    /// Turns one QUERYHIT into response records and download work.
    fn ingest_hit(&mut self, ctx: &mut Ctx<'_>, query_guid: Guid, hit: &QueryHit) {
        let Some(query) = self.queries.get(&query_guid).cloned() else {
            return; // late hit for an evicted query
        };
        let at = ctx.now();
        if let Some((guid, responses)) = &mut self.last_query {
            if *guid == query_guid {
                *responses += hit.results.len() as u64;
            }
        }
        let advertised_private = HostAddr::new(hit.ip, hit.port).is_private();
        // Provenance: the trace was rooted by `Servent::search` (query
        // GUID) and the responder's `query_matched` span is derivable from
        // its servent GUID — no coordination with the remote node needed.
        let chain =
            if ctx.telemetry_on(EventCategory::Download) || ctx.telemetry_on(EventCategory::Scan) {
                let trace = span::trace_from_guid(&query_guid.0);
                Some((trace, span::span_match_guid(trace, &hit.servent_guid.0)))
            } else {
                None
            };
        for res in &hit.results {
            let record = ResponseRecord {
                at,
                day: at.day(),
                query: query.clone(),
                filename: res.name.clone(),
                size: res.size as u64,
                source_ip: hit.ip,
                source_port: hit.port,
                needs_push: hit.flags.needs_push() || advertised_private,
                host: HostKey::Guid(hit.servent_guid.0),
                downloadable: crate::log::is_downloadable_name(&res.name),
            };
            let want_download = record.downloadable && self.log.outcome_of(&record).is_none() && {
                let (nk, hk) = CrawlLog::keys_of(&record);
                !self.busy_name_size.contains(&nk) && !self.busy_host_size.contains(&hk)
            };
            if want_download {
                let (nk, hk) = CrawlLog::keys_of(&record);
                self.busy_name_size.insert(nk);
                self.busy_host_size.insert(hk);
                let method = if record.needs_push {
                    DownloadMethod::Push
                } else {
                    DownloadMethod::Direct
                };
                let request = DownloadRequest {
                    addr: HostAddr::new(hit.ip, hit.port),
                    index: res.index,
                    name: res.name.clone(),
                    servent_guid: hit.servent_guid,
                    method,
                };
                self.pending.push_back(InFlight {
                    record: record.clone(),
                    request,
                    attempt: 0,
                    trace: chain.map(|(trace, matched)| {
                        DlTrace::new(
                            trace,
                            matched,
                            &record.filename,
                            record.size,
                            &HostAddr::new(hit.ip, hit.port).to_string(),
                        )
                    }),
                });
            }
            self.log.responses.push(record);
        }
        self.start_downloads(ctx);
    }

    fn start_downloads(&mut self, ctx: &mut Ctx<'_>) {
        while self.in_flight.len() < self.config.max_concurrent_downloads {
            let Some(fl) = self.pending.pop_front() else {
                break;
            };
            if fl.attempt == 0 {
                self.log.downloads_attempted += 1;
                ctx.registry().inc(Counter::DownloadsStarted);
            }
            if ctx.telemetry_on(EventCategory::Download) {
                let body = EventBody::DownloadStart {
                    name: fl.record.filename.clone(),
                    size: fl.record.size,
                    host: fl.request.addr.to_string(),
                    attempt: fl.attempt,
                };
                match &fl.trace {
                    Some(tr) => ctx.emit_spanned(body, tr.start(fl.attempt)),
                    None => ctx.emit(body),
                }
            }
            let id = self.servent.begin_download(ctx, fl.request.clone());
            self.in_flight.insert(id, fl);
        }
        ctx.registry()
            .set_gauge(Gauge::InFlightDownloads, self.in_flight.len() as u64);
    }

    fn finish(&mut self, record: &ResponseRecord, outcome: ScanOutcome) {
        let (nk, hk) = CrawlLog::keys_of(record);
        self.busy_name_size.remove(&nk);
        self.busy_host_size.remove(&hk);
        self.log.record_outcome(record, outcome);
    }

    fn on_download_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: u64,
        result: Result<Vec<u8>, DownloadError>,
    ) {
        let Some(fl) = self.in_flight.remove(&id) else {
            return;
        };
        match result {
            Ok(body) => {
                let scan_start = std::time::Instant::now();
                let (sha1, verdict) = ctx.time(Subsystem::Scan, || {
                    self.pipeline.scan(&fl.record.filename, &body)
                });
                ctx.registry().record_wall(
                    WallHist::ScanWallUs,
                    scan_start.elapsed().as_micros() as u64,
                );
                self.log.scan = self.pipeline.stats();
                if self.config.retry.uses_backoff() && verdict.unscannable() {
                    // The body arrived but its archive content is garbage
                    // (truncated/bit-flipped in transit). Retrying fetches a
                    // fresh copy; a clean verdict on undecodable bytes must
                    // never be recorded as benign.
                    let reason = verdict.decode_errors.first().cloned().unwrap_or_default();
                    self.fail_or_retry(
                        ctx,
                        fl,
                        FailCause::Corrupt,
                        ScanOutcome::Unscannable { reason },
                    );
                    return;
                }
                if fl.attempt > 0 {
                    self.log.retry_successes += 1;
                }
                let latency_us = (ctx.now() - fl.record.at).as_micros();
                ctx.registry()
                    .record(SimHist::DownloadLatencyUs, latency_us);
                ctx.registry()
                    .record(SimHist::DownloadAttempts, fl.attempt as u64 + 1);
                ctx.registry().inc(Counter::ScanVerdicts);
                if ctx.telemetry_on(EventCategory::Download) {
                    let ev = EventBody::DownloadComplete {
                        name: fl.record.filename.clone(),
                        ok: true,
                        latency_us,
                        attempts: fl.attempt + 1,
                    };
                    match &fl.trace {
                        Some(tr) => ctx.emit_spanned(ev, tr.done(fl.attempt)),
                        None => ctx.emit(ev),
                    }
                }
                if ctx.telemetry_on(EventCategory::Scan) {
                    let ev = EventBody::ScanVerdict {
                        name: fl.record.filename.clone(),
                        sha1: sha1.to_hex(),
                        len: body.len() as u64,
                        detections: verdict.detections.len() as u64,
                    };
                    match &fl.trace {
                        Some(tr) => ctx.emit_spanned(ev, tr.scan()),
                        None => ctx.emit(ev),
                    }
                    for (i, d) in verdict.detections.iter().enumerate() {
                        let ev = EventBody::Infection {
                            name: fl.record.filename.clone(),
                            family: d.name.clone(),
                            sha1: sha1.to_hex(),
                        };
                        match &fl.trace {
                            Some(tr) => ctx.emit_spanned(ev, tr.infection(i as u64)),
                            None => ctx.emit(ev),
                        }
                    }
                }
                let detections = verdict.detections.iter().map(|d| d.name.clone()).collect();
                self.finish(
                    &fl.record.clone(),
                    ScanOutcome::Scanned {
                        sha1,
                        len: body.len() as u64,
                        detections,
                    },
                );
                self.start_downloads(ctx);
            }
            Err(e) => {
                let cause = classify_gnutella(&e);
                self.fail_or_retry(ctx, fl, cause, ScanOutcome::Unreachable);
            }
        }
    }

    /// One attempt failed: retry within budget (immediately in legacy mode,
    /// via a backoff timer otherwise), or record the terminal outcome with
    /// its cause.
    fn fail_or_retry(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut fl: InFlight,
        cause: FailCause,
        terminal: ScanOutcome,
    ) {
        self.log.failures.record(cause);
        if fl.attempt < self.config.retry.max_retries {
            fl.attempt += 1;
            self.log.retries_scheduled += 1;
            ctx.registry().inc(Counter::DownloadRetries);
            if ctx.telemetry_on(EventCategory::Download) {
                let ev = EventBody::DownloadRetry {
                    name: fl.record.filename.clone(),
                    attempt: fl.attempt,
                    cause: cause.label().to_string(),
                };
                match &fl.trace {
                    Some(tr) => ctx.emit_spanned(ev, tr.retry(fl.attempt)),
                    None => ctx.emit(ev),
                }
            }
            if fl.request.method == DownloadMethod::Direct {
                // Direct dial failed (or transfer broke): fall back to PUSH
                // through the overlay, as LimeWire does.
                fl.request.method = DownloadMethod::Push;
                self.log.push_fallbacks += 1;
            }
            if self.config.retry.uses_backoff() {
                let token = TIMER_RETRY_BASE | self.retry_seq;
                self.retry_seq += 1;
                let delay = self.config.retry.delay_for(fl.attempt, ctx.rng());
                self.retry_wait.insert(token, fl);
                ctx.set_timer(delay, token);
                self.start_downloads(ctx);
            } else {
                // Legacy: immediate in-line re-attempt, no timer (the
                // pre-fault-layer code path, preserved bit-for-bit).
                let new_id = self.servent.begin_download(ctx, fl.request.clone());
                self.in_flight.insert(new_id, fl);
            }
            return;
        }
        self.log.downloads_failed += 1;
        if matches!(terminal, ScanOutcome::Unscannable { .. }) {
            self.log.unscannable += 1;
        }
        let latency_us = (ctx.now() - fl.record.at).as_micros();
        ctx.registry()
            .record(SimHist::DownloadLatencyUs, latency_us);
        ctx.registry()
            .record(SimHist::DownloadAttempts, fl.attempt as u64 + 1);
        if ctx.telemetry_on(EventCategory::Download) {
            let ev = EventBody::DownloadComplete {
                name: fl.record.filename.clone(),
                ok: false,
                latency_us,
                attempts: fl.attempt + 1,
            };
            match &fl.trace {
                Some(tr) => ctx.emit_spanned(ev, tr.done(fl.attempt)),
                None => ctx.emit(ev),
            }
        }
        self.finish(&fl.record.clone(), terminal);
        self.start_downloads(ctx);
    }

    /// A backoff timer fired: put the object back at the head of the queue.
    fn on_retry_fire(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(fl) = self.retry_wait.remove(&token) {
            self.pending.push_front(fl);
            self.start_downloads(ctx);
        }
    }

    /// Drains servent events into the log and the download pipeline.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.servent.drain_events() {
            match ev {
                ServentEvent::QueryHit {
                    query_guid, hit, ..
                } => {
                    self.ingest_hit(ctx, query_guid, &hit);
                }
                ServentEvent::DownloadDone(outcome) => {
                    self.on_download_done(ctx, outcome.id, outcome.result);
                }
                _ => {}
            }
        }
    }

    fn issue_query(&mut self, ctx: &mut Ctx<'_>) {
        let catalog = self.servent_world_catalog();
        let q = self.workload.sample_query(&catalog, ctx.rng());
        let guid = self.servent.search(ctx, &q);
        // Close out the previous query's fan-out count (the final in-flight
        // query is never recorded — deterministic either way).
        if let Some((_, responses)) = self.last_query.replace((guid, 0)) {
            ctx.registry().record(SimHist::ResponsesPerQuery, responses);
        }
        ctx.registry().inc(Counter::QueriesIssued);
        // `query_issued` is emitted (span-rooted) inside `Servent::search`,
        // so ambient auto-queries and crawler workload queries share one
        // emission point and every trace has a root.
        self.remember_query(guid, q);
        self.log.queries_issued += 1;
        let next = self.workload.next_interval_secs(ctx.now(), ctx.rng());
        ctx.set_timer(SimDuration::from_secs(next), TIMER_QUERY);
    }

    fn servent_world_catalog(&self) -> Arc<p2pmal_corpus::Catalog> {
        self.servent.world().catalog.clone()
    }
}

impl App for GnutellaCrawler {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn memory_estimate(&self) -> u64 {
        // Crawler-side queues are unbounded-but-small; the embedded servent
        // carries the protocol state worth accounting.
        self.servent.memory_estimate()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.servent.on_start(ctx);
        ctx.set_timer(self.config.start_delay, TIMER_QUERY);
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, peer: HostAddr) {
        self.servent.on_connected(ctx, conn, dir, peer);
        self.pump(ctx);
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.servent.on_connect_failed(ctx, conn);
        self.pump(ctx);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.servent.on_data(ctx, conn, data);
        self.pump(ctx);
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.servent.on_closed(ctx, conn);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_QUERY {
            self.issue_query(ctx);
        } else if token & TIMER_RETRY_BASE == TIMER_RETRY_BASE {
            self.on_retry_fire(ctx, token);
        } else if token & CRAWLER_BASE == 0 {
            self.servent.on_timer(ctx, token);
        }
        self.pump(ctx);
    }
}
