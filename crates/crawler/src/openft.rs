//! The instrumented giFT/OpenFT-side client: a USER node issuing the query
//! workload against every SEARCH node it discovers, logging results and
//! downloading the deduplicated archive/executable responses by MD5.

use crate::log::{CrawlLog, HostKey, HostSizeKey, NameSizeKey, ResponseRecord, ScanOutcome};
use crate::retry::{classify_openft, FailCause, RetryPolicy};
use crate::scan::ScanPipeline;
use crate::trace::DlTrace;
use crate::workload::{Workload, WorkloadConfig};
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_netsim::{
    telemetry_span as span, App, ConnId, Counter, Ctx, Direction, EventBody, EventCategory, Gauge,
    HostAddr, SimDuration, SimHist, Subsystem, WallHist,
};
use p2pmal_openft::node::{FtConfig, FtDownloadError, FtEvent, FtNode};
use p2pmal_openft::packet::SearchResult;
use p2pmal_scanner::Scanner;
use std::collections::{HashMap, HashSet, VecDeque};

const CRAWLER_BASE: u64 = 1 << 48;
const TIMER_QUERY: u64 = CRAWLER_BASE | 1;
/// Retry timers: `TIMER_RETRY_BASE | seq` (bit 40 marks the namespace).
const TIMER_RETRY_BASE: u64 = CRAWLER_BASE | (1 << 40);

/// OpenFT crawler tunables.
#[derive(Clone)]
pub struct FtCrawlerConfig {
    pub workload: WorkloadConfig,
    pub max_concurrent_downloads: usize,
    pub start_delay: SimDuration,
    /// Per-object retry budget and pacing. The default
    /// [`RetryPolicy::legacy()`] reproduces the historical behavior: one
    /// immediate re-attempt, no backoff timers.
    pub retry: RetryPolicy,
    /// Verdict-cache capacity for the scan pipeline (0 disables caching).
    pub scan_cache_entries: usize,
}

impl Default for FtCrawlerConfig {
    fn default() -> Self {
        FtCrawlerConfig {
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
    addr: HostAddr,
    md5: p2pmal_hashes::Md5Digest,
    /// 0 on the first try, incremented per retry.
    attempt: u8,
    /// Provenance of the chain this download descends from; captured at
    /// result-ingest time only while telemetry is live (None otherwise).
    trace: Option<DlTrace>,
}

/// The instrumented OpenFT client.
pub struct FtCrawler {
    node: FtNode,
    config: FtCrawlerConfig,
    workload: Workload,
    pipeline: ScanPipeline,
    log: CrawlLog,
    /// Search id -> query text.
    queries: HashMap<u32, String>,
    query_order: VecDeque<u32>,
    pending: VecDeque<InFlight>,
    in_flight: HashMap<u64, InFlight>,
    /// Objects parked on a backoff timer, by timer token.
    retry_wait: HashMap<u64, InFlight>,
    retry_seq: u64,
    busy_name_size: HashSet<NameSizeKey>,
    busy_host_size: HashSet<HostSizeKey>,
    /// The most recent workload query and its response count so far; the
    /// fan-out histogram records it when the next query closes it out.
    last_query: Option<(u32, u64)>,
}

impl FtCrawler {
    pub fn new(
        mut node_config: FtConfig,
        world: SharedWorld,
        scanner: Scanner,
        config: FtCrawlerConfig,
    ) -> Self {
        node_config.collect_events = true;
        node_config.auto_query = None;
        // Benign transfers are multi-megabyte on 2006 links; allow time.
        node_config.download_timeout = SimDuration::from_secs(1800);
        FtCrawler {
            node: FtNode::new(node_config, world, Default::default()),
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

    pub fn log(&self) -> &CrawlLog {
        &self.log
    }

    /// Takes the log out of the crawler (end of the run).
    pub fn take_log(&mut self) -> CrawlLog {
        std::mem::take(&mut self.log)
    }

    pub fn session_count(&self) -> usize {
        self.node.session_count()
    }

    fn remember_query(&mut self, id: u32, text: String) {
        self.queries.insert(id, text);
        self.query_order.push_back(id);
        if self.query_order.len() > 8192 {
            if let Some(old) = self.query_order.pop_front() {
                self.queries.remove(&old);
            }
        }
    }

    fn ingest_result(&mut self, ctx: &mut Ctx<'_>, from: HostAddr, result: &SearchResult) {
        let Some(query) = self.queries.get(&result.id).cloned() else {
            return;
        };
        let at = ctx.now();
        if let Some((id, responses)) = &mut self.last_query {
            if *id == result.id {
                *responses += 1;
            }
        }
        let record = ResponseRecord {
            at,
            day: at.day(),
            query,
            filename: result.filename.clone(),
            size: result.size as u64,
            source_ip: result.host,
            source_port: result.port,
            needs_push: false,
            host: HostKey::Addr(result.host, result.port),
            downloadable: crate::log::is_downloadable_name(&result.filename),
        };
        let want_download = record.downloadable && self.log.outcome_of(&record).is_none() && {
            let (nk, hk) = CrawlLog::keys_of(&record);
            !self.busy_name_size.contains(&nk) && !self.busy_host_size.contains(&hk)
        };
        if want_download {
            let (nk, hk) = CrawlLog::keys_of(&record);
            self.busy_name_size.insert(nk);
            self.busy_host_size.insert(hk);
            let addr = HostAddr::new(result.host, result.http_port);
            // Provenance: we rooted the trace in `FtNode::search` from our
            // own routable address + search id; the answering SEARCH node
            // (`from`, the session peer) derived the same pair, so its
            // `query_matched` span reconstructs here without coordination.
            let trace = if ctx.telemetry_on(EventCategory::Download)
                || ctx.telemetry_on(EventCategory::Scan)
            {
                let origin = ctx.external_addr();
                let t = span::trace_from_search(origin.ip, origin.port, result.id);
                Some(DlTrace::new(
                    t,
                    span::span_match_addr(t, from.ip, from.port),
                    &record.filename,
                    record.size,
                    &addr.to_string(),
                ))
            } else {
                None
            };
            self.pending.push_back(InFlight {
                record: record.clone(),
                addr,
                md5: result.md5,
                attempt: 0,
                trace,
            });
        }
        self.log.responses.push(record);
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
                    host: fl.addr.to_string(),
                    attempt: fl.attempt,
                };
                match &fl.trace {
                    Some(tr) => ctx.emit_spanned(body, tr.start(fl.attempt)),
                    None => ctx.emit(body),
                }
            }
            let id = self.node.begin_download(ctx, fl.addr, fl.md5);
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
        result: Result<Vec<u8>, FtDownloadError>,
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
                    // Undecodable archive bytes: retry for a fresh copy
                    // rather than recording corruption as a clean verdict.
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
                let cause = classify_openft(&e);
                self.fail_or_retry(ctx, fl, cause, ScanOutcome::Unreachable);
            }
        }
    }

    /// One attempt failed: retry within budget (immediately in legacy mode,
    /// via a backoff timer otherwise), or record the terminal outcome.
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
            if self.config.retry.uses_backoff() {
                let token = TIMER_RETRY_BASE | self.retry_seq;
                self.retry_seq += 1;
                let delay = self.config.retry.delay_for(fl.attempt, ctx.rng());
                self.retry_wait.insert(token, fl);
                ctx.set_timer(delay, token);
                self.start_downloads(ctx);
            } else {
                // Legacy: immediate in-line re-attempt (pre-fault-layer
                // path, preserved bit-for-bit).
                let new_id = self.node.begin_download(ctx, fl.addr, fl.md5);
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

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.node.drain_events() {
            match ev {
                FtEvent::SearchResult { from, result, .. } => {
                    self.ingest_result(ctx, from, &result)
                }
                FtEvent::DownloadDone { id, result, .. } => self.on_download_done(ctx, id, result),
                _ => {}
            }
        }
    }

    fn issue_query(&mut self, ctx: &mut Ctx<'_>) {
        let catalog = self.node.world().catalog.clone();
        let q = self.workload.sample_query(&catalog, ctx.rng());
        let id = self.node.search(ctx, &q);
        // Close out the previous query's fan-out count (the final in-flight
        // query is never recorded — deterministic either way).
        if let Some((_, responses)) = self.last_query.replace((id, 0)) {
            ctx.registry().record(SimHist::ResponsesPerQuery, responses);
        }
        ctx.registry().inc(Counter::QueriesIssued);
        // `query_issued` is emitted (span-rooted) inside `FtNode::search`,
        // so ambient auto-queries and crawler workload queries share one
        // emission point and every trace has a root.
        self.remember_query(id, q);
        self.log.queries_issued += 1;
        let next = self.workload.next_interval_secs(ctx.now(), ctx.rng());
        ctx.set_timer(SimDuration::from_secs(next), TIMER_QUERY);
    }
}

impl App for FtCrawler {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn memory_estimate(&self) -> u64 {
        // Crawler-side queues are unbounded-but-small; the embedded node
        // carries the protocol state worth accounting.
        self.node.memory_estimate()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.node.on_start(ctx);
        ctx.set_timer(self.config.start_delay, TIMER_QUERY);
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, dir: Direction, peer: HostAddr) {
        self.node.on_connected(ctx, conn, dir, peer);
        self.pump(ctx);
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.node.on_connect_failed(ctx, conn);
        self.pump(ctx);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.node.on_data(ctx, conn, data);
        self.pump(ctx);
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.node.on_closed(ctx, conn);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_QUERY {
            self.issue_query(ctx);
        } else if token & TIMER_RETRY_BASE == TIMER_RETRY_BASE {
            self.on_retry_fire(ctx, token);
        } else if token & CRAWLER_BASE == 0 {
            self.node.on_timer(ctx, token);
        }
        self.pump(ctx);
    }
}
