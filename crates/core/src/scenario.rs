//! Calibrated scenario presets: the populations whose measured behaviour
//! reproduces the paper's numbers.
//!
//! Calibration logic (per-number provenance lives in DESIGN.md §4):
//!
//! * **LimeWire 68% / top-3 = 99% / 28% private.** Malicious downloadable
//!   responses are dominated by query-echo worms, each infected host
//!   answering *every* crawler query. With per-query weighted echo volume
//!   `W = padobot_hosts + 2·alcra_hosts + bagle_hosts` (Alcra answers per
//!   extension), the family shares are `padobot/W`, `2·alcra/W`, `bagle/W`
//!   and the private-source share is the NATed fraction of `W`. The default
//!   spec (11 Padobot / 5 NAT, 3 Alcra, 1 Bagle) gives 61% / 33% / 5.6%
//!   shares, 27.8% private, top-3 ≈ 99% (the static tail barely responds).
//!   The 68% headline then fixes the benign side: clean leaves and their
//!   library sizes are set so benign archive/executable responses run at
//!   roughly half the echo volume.
//! * **OpenFT 3% / top-1 = 67% from one host.** No echo worms; the dominant
//!   family lives on a single always-on superspreader sharing it under many
//!   popular bait titles, with a handful of minor infected users supplying
//!   the remaining third of malicious responses.

use crate::config::RunConfig;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, HostLibrary, Roster};
use p2pmal_crawler::{
    CrawlLog, FtCrawler, FtCrawlerConfig, GnutellaCrawler, GnutellaCrawlerConfig, Network,
    ResolvedResponse, RetryPolicy, WorkloadConfig, DEFAULT_SCAN_CACHE_ENTRIES,
};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::{
    App, FaultPlan, HostAddr, NodeId, NodeSpec, SimConfig, SimDuration, SimMetrics, SimTime,
    Simulator, TelemetryConfig,
};
use p2pmal_openft::node::{FtConfig, FtNode};
use p2pmal_scanner::Scanner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// How many hosts carry one malware family, and how many of them sit
/// behind NAT (advertising RFC 1918 addresses).
#[derive(Debug, Clone, Copy)]
pub struct InfectionSpec {
    pub family: FamilyId,
    pub hosts: usize,
    pub nat_hosts: usize,
}

impl InfectionSpec {
    pub fn new(family: u16, hosts: usize, nat_hosts: usize) -> Self {
        assert!(nat_hosts <= hosts);
        InfectionSpec {
            family: FamilyId(family),
            hosts,
            nat_hosts,
        }
    }
}

/// Named fault/resilience profile: the netsim [`FaultPlan`] paired with the
/// crawler [`RetryPolicy`] calibrated for it, by the names
/// `P2PMAL_FAULTS` accepts (see [`crate::RunConfig`]).
pub fn fault_profile(name: &str) -> Option<(FaultPlan, RetryPolicy)> {
    match name {
        "none" => Some((FaultPlan::none(), RetryPolicy::legacy())),
        "mild" => Some((FaultPlan::mild(), RetryPolicy::backoff(3, 30))),
        "harsh" => Some((FaultPlan::harsh(), RetryPolicy::backoff(4, 15))),
        _ => None,
    }
}

/// The result of running one network scenario.
pub struct NetworkRun {
    pub network: Network,
    pub log: CrawlLog,
    pub resolved: Vec<ResolvedResponse>,
    pub world: SharedWorld,
    pub sim_metrics: SimMetrics,
    /// Wall-clock time the simulation loop took (sum over the per-day
    /// `run_until` calls; excludes population setup and log extraction).
    pub wall: std::time::Duration,
    /// Shards the simulator ran with (1 = the serial reference engine).
    pub shards: usize,
    /// Cross-shard exchange window (microseconds; meaningful when
    /// `shards > 1`).
    pub shard_window_us: u64,
}

/// Trace level ≥ 1: per-day progress line with scheduler and buffer-pool
/// health (queue depth + peak, pool hit rate, bytes recycled), plus the
/// crawler's scan-pipeline counters (bodies, cache hits/misses/evictions,
/// distinct payloads, bytes hashed).
fn trace_day(
    net: &str,
    day: u64,
    delta: u64,
    wall_secs: f64,
    pending: usize,
    m: &SimMetrics,
    log: &CrawlLog,
) {
    let s = &log.scan;
    let scan_part = format!(
        ", scan {} bodies / {} hits / {} misses / {} evict / {} distinct / {} KiB hashed",
        s.bodies,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.distinct_payloads,
        s.bytes_hashed / 1024,
    );
    let fault_events = m.faults_chunks_dropped
        + m.faults_chunks_corrupted
        + m.faults_resets
        + m.faults_latency_spikes
        + m.faults_churn_downs;
    let fault_part = if fault_events > 0 {
        format!(
            ", faults {} drop / {} corrupt / {} reset / {} spike / {} down / {} up",
            m.faults_chunks_dropped,
            m.faults_chunks_corrupted,
            m.faults_resets,
            m.faults_latency_spikes,
            m.faults_churn_downs,
            m.faults_churn_ups,
        )
    } else {
        String::new()
    };
    let failures = log.failures.total();
    let resilience_part = if log.retries_scheduled + failures > 0 {
        format!(
            ", retries {} scheduled / {} recovered / {failures} terminal failures",
            log.retries_scheduled, log.retry_successes,
        )
    } else {
        String::new()
    };
    let timing_part = if m.timing.is_empty() {
        String::new()
    } else {
        format!(", timing {}", m.timing.render_compact())
    };
    eprintln!(
        "[trace] {net} day {day}: {} events (+{delta}), {wall_secs:.1}s wall, \
         queue {pending} pending (peak {}), pool {} hits / {} misses / {} KiB recycled (free peak {}){scan_part}{fault_part}{resilience_part}{timing_part}",
        m.events_processed,
        m.queue_high_water,
        m.pool_hits,
        m.pool_misses,
        m.pool_recycled_bytes / 1024,
        m.pool_high_water,
    );
}

/// The instrumented client of a scenario, whichever network it crawls.
trait Crawler: 'static {
    fn log(&self) -> &CrawlLog;
    fn take_log(&mut self) -> CrawlLog;
}

impl Crawler for GnutellaCrawler {
    fn log(&self) -> &CrawlLog {
        GnutellaCrawler::log(self)
    }
    fn take_log(&mut self) -> CrawlLog {
        GnutellaCrawler::take_log(self)
    }
}

impl Crawler for FtCrawler {
    fn log(&self) -> &CrawlLog {
        FtCrawler::log(self)
    }
    fn take_log(&mut self) -> CrawlLog {
        FtCrawler::take_log(self)
    }
}

fn crawler_of<C: Crawler>(app: &mut dyn App) -> &mut C {
    app.as_any_mut()
        .expect("crawler downcasts")
        .downcast_mut::<C>()
        .expect("crawler node")
}

/// Runs a populated world's collection for `days` simulated days and
/// takes the crawler's log. Each day ends by sampling the queue depth,
/// printing the day's trace line at `trace` ≥ 1 and reporting the day to
/// `progress`.
fn collect<C: Crawler>(
    mut sim: Simulator,
    crawler: NodeId,
    network: Network,
    world: SharedWorld,
    days: u64,
    trace: u8,
    mut progress: impl FnMut(u64),
) -> NetworkRun {
    let net = match network {
        Network::Limewire => "LW",
        Network::OpenFt => "FT",
    };
    let mut last_events = 0u64;
    let mut wall = std::time::Duration::ZERO;
    for day in 1..=days {
        let t0 = std::time::Instant::now();
        sim.run_until(SimTime::from_days(day));
        let day_wall = t0.elapsed();
        wall += day_wall;
        // Unconditional: every run samples queue depth identically, so
        // the registry stays deterministic whatever the trace level.
        sim.sample_queue_depth();
        let ev = sim.metrics().events_processed;
        if trace >= 1 {
            let (pending, m) = (sim.pending_events(), sim.metrics().clone());
            sim.with_node(crawler, |app, _| {
                let log = crawler_of::<C>(app).log();
                trace_day(
                    net,
                    day,
                    ev - last_events,
                    day_wall.as_secs_f64(),
                    pending,
                    &m,
                    log,
                );
            });
        }
        last_events = ev;
        progress(day);
    }
    sim.flush_telemetry();
    sim.record_memory();
    let log = sim
        .with_node(crawler, |app, _| crawler_of::<C>(app).take_log())
        .expect("crawler alive");
    let resolved = log.resolved();
    NetworkRun {
        network,
        sim_metrics: sim.metrics().clone(),
        log,
        resolved,
        world,
        wall,
        shards: sim.shard_count(),
        shard_window_us: sim.shard_window_us(),
    }
}

fn make_world(seed: u64, catalog_cfg: &CatalogConfig, roster: Roster) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0CA7_A106);
    let catalog = Catalog::generate(catalog_cfg, &mut rng);
    SharedWorld::new(
        Arc::new(catalog),
        Arc::new(roster),
        Arc::new(ContentStore::new(seed)),
    )
}

fn make_scanner(world: &SharedWorld) -> Scanner {
    Scanner::new(
        world
            .roster
            .signature_db()
            .expect("roster db")
            .build()
            .expect("db compiles"),
    )
}

/// A clean host's library: `files` popularity-sampled titles, one random
/// variant each.
pub(crate) fn clean_library(world: &SharedWorld, files: usize, rng: &mut StdRng) -> HostLibrary {
    let mut lib = HostLibrary::new();
    let mut seen = HashSet::new();
    let mut attempts = 0;
    while lib.len() < files && attempts < files * 10 {
        attempts += 1;
        let item = world.catalog.sample(rng);
        if seen.insert(item.id) {
            let variant = rng.gen_range(0..item.variants.len());
            lib.add_benign(item, variant);
        }
    }
    lib
}

// ---------------------------------------------------------------------------
// LimeWire scenario
// ---------------------------------------------------------------------------

/// Population and workload for the Gnutella/LimeWire measurement.
#[derive(Debug, Clone)]
pub struct LimewireScenario {
    pub seed: u64,
    /// Simulated collection length in days ("over a month of data").
    pub days: u64,
    pub ultrapeers: usize,
    pub clean_leaves: usize,
    /// Fraction of clean leaves behind NAT.
    pub clean_nat_fraction: f64,
    /// Benign files shared per clean leaf.
    pub files_per_leaf: usize,
    /// Per-family infected host counts.
    pub infections: Vec<InfectionSpec>,
    /// Benign files an infected host also shares.
    pub infected_benign_files: usize,
    pub catalog: CatalogConfig,
    pub workload: WorkloadConfig,
    /// Ambient query interval for clean leaves (None = silent population).
    pub ambient_query: Option<SimDuration>,
    /// Verdict-cache capacity for the crawler's scan pipeline (0 disables;
    /// outcomes are identical either way, only wall time changes).
    pub scan_cache_entries: usize,
    /// Network fault injection ([`FaultPlan::none()`] by default, which is
    /// byte-identical to a fault-free simulator).
    pub faults: FaultPlan,
    /// Crawler download retry policy ([`RetryPolicy::legacy()`] by
    /// default: the historical one-immediate-fallback behavior).
    pub retry: RetryPolicy,
    /// Telemetry sinks and trace level. The presets take it from
    /// [`RunConfig::env`]; tests set this field programmatically. With
    /// everything off (the empty environment's setting) runs are
    /// byte-identical to a build without the telemetry layer.
    pub telemetry: TelemetryConfig,
    /// Simulation shards (see [`SimConfig::shards`]): 1 runs the serial
    /// reference engine; N ≥ 2 runs the parallel sharded engine, whose
    /// trajectory is deterministic and identical for every N ≥ 2 but
    /// distinct from the serial one. The presets take it from
    /// [`RunConfig::env`].
    pub shards: usize,
    /// Cross-shard exchange window in microseconds; the presets use
    /// [`SimConfig`]'s default of one second.
    pub shard_window_us: u64,
}

impl LimewireScenario {
    /// The paper-scale run behind EXPERIMENTS.md.
    pub fn paper_scale(seed: u64) -> Self {
        LimewireScenario {
            seed,
            days: 35,
            ultrapeers: 12,
            clean_leaves: 280,
            clean_nat_fraction: 0.3,
            files_per_leaf: 34,
            infections: Self::default_infections(),
            infected_benign_files: 5,
            catalog: CatalogConfig {
                titles: 2500,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 60,
                ..Default::default()
            },
            ambient_query: Some(SimDuration::from_hours(1)),
            scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
            faults: FaultPlan::none(),
            retry: RetryPolicy::legacy(),
            telemetry: RunConfig::env().telemetry.clone(),
            shards: RunConfig::env().shards,
            shard_window_us: SimConfig::default().shard_window_us,
        }
    }

    /// Applies a fault/resilience profile (see [`fault_profile`]).
    pub fn with_faults(mut self, faults: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = faults;
        self.retry = retry;
        self
    }

    /// A minutes-scale configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        LimewireScenario {
            days: 2,
            ultrapeers: 4,
            clean_leaves: 30,
            files_per_leaf: 10,
            catalog: CatalogConfig {
                titles: 400,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 120,
                ..Default::default()
            },
            ambient_query: None,
            infections: vec![
                InfectionSpec::new(0, 4, 2),
                InfectionSpec::new(1, 1, 0),
                InfectionSpec::new(2, 1, 0),
            ],
            ..Self::paper_scale(seed)
        }
    }

    /// The calibrated default infection population (see module docs).
    pub fn default_infections() -> Vec<InfectionSpec> {
        vec![
            InfectionSpec::new(0, 11, 5), // W32.Padobot.P2P — echo, exe
            InfectionSpec::new(1, 3, 0),  // W32.Alcra.B — echo, exe+zip
            InfectionSpec::new(2, 1, 0),  // W32.Bagle.DL — verbatim echo
            // Static-naming tail, one host each.
            InfectionSpec::new(3, 1, 0),
            InfectionSpec::new(4, 1, 1),
            InfectionSpec::new(5, 1, 0),
            InfectionSpec::new(6, 1, 0),
            InfectionSpec::new(7, 1, 1),
            InfectionSpec::new(8, 1, 0),
            InfectionSpec::new(9, 1, 0),
        ]
    }

    /// Builds the population, runs the collection, returns the measurement.
    pub fn run(&self) -> NetworkRun {
        self.run_with_progress(|_| {})
    }

    /// Like [`LimewireScenario::run`], reporting each finished simulated
    /// day to `progress`.
    pub fn run_with_progress(&self, progress: impl FnMut(u64)) -> NetworkRun {
        let world = make_world(self.seed, &self.catalog, Roster::limewire_2006());
        let scanner = make_scanner(&world);
        let mut sim = Simulator::new(
            SimConfig {
                faults: self.faults,
                shards: self.shards,
                shard_window_us: self.shard_window_us,
                ..SimConfig::default()
            },
            self.seed,
        );
        sim.set_telemetry(self.telemetry.build("limewire"));
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x11FE);

        // Ultrapeer backbone. Leaf slots must cover the population
        // (every leaf holds `target_degree` ultrapeer connections) or the
        // overflow would churn through rejection/retry forever.
        let leaves = self.clean_leaves + self.infections.iter().map(|i| i.hosts).sum::<usize>() + 1; // the crawler
                                                                                                     // Saturating: at mega populations `leaves * degree * 13` would
                                                                                                     // overflow 32-bit-ish intermediate products on exotic targets.
        let slots_needed = leaves.saturating_mul(ServentConfig::leaf().target_degree);
        let slots_per_up = (slots_needed.saturating_mul(13) / 10 / self.ultrapeers.max(1)).max(30);
        let mut up_addrs = Vec::new();
        for _ in 0..self.ultrapeers {
            let mut cfg = ServentConfig::ultrapeer().with_bootstrap(up_addrs.clone());
            cfg.max_leaf_slots = slots_per_up;
            let id = sim.spawn(
                NodeSpec::public().listen(6346),
                Box::new(Servent::new(cfg, world.clone(), HostLibrary::new())),
            );
            up_addrs.push(sim.node_addr(id));
        }
        // One shared ultrapeer list for every leaf (and the crawler): spawning
        // N leaves used to copy the full list N times, an O(UPs x leaves)
        // setup cost that dominated at mega populations.
        let up_boot: Arc<[HostAddr]> = up_addrs.into();

        let spawn_leaf =
            |sim: &mut Simulator, lib: HostLibrary, nat: bool, ambient: Option<SimDuration>| {
                let mut cfg = ServentConfig::leaf().with_bootstrap(up_boot.clone());
                cfg.auto_query = ambient;
                let spec = if nat {
                    NodeSpec::nat()
                } else {
                    NodeSpec::public().listen(6346)
                };
                sim.spawn(spec, Box::new(Servent::new(cfg, world.clone(), lib)))
            };

        // Clean population.
        for i in 0..self.clean_leaves {
            let lib = clean_library(&world, self.files_per_leaf, &mut rng);
            let nat = (i as f64 + 0.5) / self.clean_leaves as f64 <= self.clean_nat_fraction;
            spawn_leaf(&mut sim, lib, nat, self.ambient_query);
        }

        // Infected population.
        for spec in &self.infections {
            for h in 0..spec.hosts {
                let mut lib = clean_library(&world, self.infected_benign_files, &mut rng);
                lib.infect(world.roster.get(spec.family), &world.catalog, &mut rng);
                spawn_leaf(&mut sim, lib, h < spec.nat_hosts, None);
            }
        }

        // The instrumented client. Durable: the measurement host never
        // churns, only the network around it does.
        let crawler = sim.spawn(
            NodeSpec::public().listen(6346).durable(),
            Box::new(GnutellaCrawler::new(
                ServentConfig::leaf().with_bootstrap(up_boot.clone()),
                world.clone(),
                scanner,
                GnutellaCrawlerConfig {
                    workload: self.workload.clone(),
                    scan_cache_entries: self.scan_cache_entries,
                    retry: self.retry,
                    ..Default::default()
                },
            )),
        );

        collect::<GnutellaCrawler>(
            sim,
            crawler,
            Network::Limewire,
            world,
            self.days,
            self.telemetry.trace,
            progress,
        )
    }
}

// ---------------------------------------------------------------------------
// OpenFT scenario
// ---------------------------------------------------------------------------

/// Population and workload for the giFT/OpenFT measurement.
#[derive(Debug, Clone)]
pub struct OpenFtScenario {
    pub seed: u64,
    pub days: u64,
    pub search_nodes: usize,
    pub clean_users: usize,
    pub files_per_user: usize,
    /// Bait titles the superspreader shares (all one family), sampled
    /// uniformly over the catalog: its share of query mass is
    /// `baits / titles`.
    pub superspreader_baits: usize,
    /// Family served by the superspreader.
    pub superspreader_family: FamilyId,
    /// Minor infected users: (family, hosts, bait titles per host).
    pub minor_infections: Vec<(FamilyId, usize, usize)>,
    pub catalog: CatalogConfig,
    pub workload: WorkloadConfig,
    pub ambient_query: Option<SimDuration>,
    /// Verdict-cache capacity for the crawler's scan pipeline (0 disables;
    /// outcomes are identical either way, only wall time changes).
    pub scan_cache_entries: usize,
    /// Network fault injection ([`FaultPlan::none()`] by default).
    pub faults: FaultPlan,
    /// Crawler download retry policy ([`RetryPolicy::legacy()`] default).
    pub retry: RetryPolicy,
    /// Telemetry sinks and trace level (see
    /// [`LimewireScenario::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Simulation shards (see [`LimewireScenario::shards`]).
    pub shards: usize,
    /// Cross-shard exchange window in microseconds.
    pub shard_window_us: u64,
}

impl OpenFtScenario {
    pub fn paper_scale(seed: u64) -> Self {
        OpenFtScenario {
            seed,
            days: 35,
            search_nodes: 6,
            clean_users: 120,
            files_per_user: 16,
            // Calibration (DESIGN.md §4, T3/T5): spreader mass 90/2500 =
            // 3.6% of queries; minors 7 x 7/2500 = 0.28% each, so the top
            // family/host takes ~67% of malicious responses, top-3 ~76%,
            // and the overall malicious share lands near 3% against the
            // benign downloadable volume.
            superspreader_baits: 90,
            superspreader_family: FamilyId(0),
            minor_infections: vec![
                (FamilyId(1), 1, 7),
                (FamilyId(2), 1, 7),
                (FamilyId(3), 1, 7),
                (FamilyId(4), 1, 7),
                (FamilyId(5), 1, 7),
                (FamilyId(6), 1, 7),
                (FamilyId(7), 1, 7),
            ],
            catalog: CatalogConfig {
                titles: 2500,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 60,
                ..Default::default()
            },
            ambient_query: Some(SimDuration::from_hours(1)),
            scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
            faults: FaultPlan::none(),
            retry: RetryPolicy::legacy(),
            telemetry: RunConfig::env().telemetry.clone(),
            shards: RunConfig::env().shards,
            shard_window_us: SimConfig::default().shard_window_us,
        }
    }

    /// Applies a fault/resilience profile (see [`fault_profile`]).
    pub fn with_faults(mut self, faults: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = faults;
        self.retry = retry;
        self
    }

    pub fn quick(seed: u64) -> Self {
        OpenFtScenario {
            days: 2,
            search_nodes: 2,
            clean_users: 20,
            files_per_user: 10,
            superspreader_baits: 24,
            minor_infections: vec![
                (FamilyId(1), 1, 4),
                (FamilyId(2), 1, 4),
                (FamilyId(3), 1, 4),
            ],
            catalog: CatalogConfig {
                titles: 400,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 120,
                ..Default::default()
            },
            ambient_query: None,
            ..Self::paper_scale(seed)
        }
    }

    pub fn run(&self) -> NetworkRun {
        self.run_with_progress(|_| {})
    }

    pub fn run_with_progress(&self, progress: impl FnMut(u64)) -> NetworkRun {
        let world = make_world(self.seed, &self.catalog, Roster::openft_2006());
        let scanner = make_scanner(&world);
        let mut sim = Simulator::new(
            SimConfig {
                faults: self.faults,
                shards: self.shards,
                shard_window_us: self.shard_window_us,
                ..SimConfig::default()
            },
            self.seed,
        );
        sim.set_telemetry(self.telemetry.build("openft"));
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0F7);

        let mut search_addrs = Vec::new();
        for _ in 0..self.search_nodes {
            let cfg = FtConfig::search_node().with_bootstrap(search_addrs.clone());
            let id = sim.spawn(
                NodeSpec::public().listen(1215),
                Box::new(FtNode::new(cfg, world.clone(), HostLibrary::new())),
            );
            search_addrs.push(sim.node_addr(id));
        }
        // Shared across every USER node and the crawler, as on the LW side.
        let search_boot: Arc<[HostAddr]> = search_addrs.into();

        let spawn_user = |sim: &mut Simulator,
                          lib: HostLibrary,
                          ambient: Option<SimDuration>,
                          upload: Option<u64>,
                          durable: bool| {
            let mut cfg = FtConfig::user().with_bootstrap(search_boot.clone());
            cfg.auto_query = ambient;
            let mut spec = NodeSpec::public().listen(1215);
            if let Some(bps) = upload {
                spec = spec.upload(bps);
            }
            if durable {
                spec = spec.durable();
            }
            sim.spawn(spec, Box::new(FtNode::new(cfg, world.clone(), lib)))
        };

        for _ in 0..self.clean_users {
            let lib = clean_library(&world, self.files_per_user, &mut rng);
            spawn_user(&mut sim, lib, self.ambient_query, None, false);
        }

        // The superspreader: one always-on, well-provisioned host sharing
        // the top family under many popular titles. Durable: "always-on"
        // is its defining property, so churn never takes it down.
        let mut spreader_lib = clean_library(&world, self.files_per_user, &mut rng);
        spreader_lib.infect_superspreader(
            world.roster.get(self.superspreader_family),
            &world.catalog,
            self.superspreader_baits,
            &mut rng,
        );
        spawn_user(&mut sim, spreader_lib, None, Some(512_000), true);

        // Minor infected users: each baits a few uniformly-chosen titles.
        for (family, hosts, baits) in &self.minor_infections {
            for _ in 0..*hosts {
                let mut lib = clean_library(&world, self.files_per_user / 2, &mut rng);
                lib.infect_superspreader(
                    world.roster.get(*family),
                    &world.catalog,
                    *baits,
                    &mut rng,
                );
                spawn_user(&mut sim, lib, None, None, false);
            }
        }

        // The instrumented client sessions with every SEARCH node so its
        // searches cover all registration indexes, as the study's
        // instrumented giFT did.
        let crawler_cfg = FtConfig {
            target_sessions: self.search_nodes.max(3),
            ..FtConfig::user().with_bootstrap(search_boot.clone())
        };
        let crawler = sim.spawn(
            NodeSpec::public().listen(1215).durable(),
            Box::new(FtCrawler::new(
                crawler_cfg,
                world.clone(),
                scanner,
                FtCrawlerConfig {
                    workload: self.workload.clone(),
                    scan_cache_entries: self.scan_cache_entries,
                    retry: self.retry,
                    ..Default::default()
                },
            )),
        );

        collect::<FtCrawler>(
            sim,
            crawler,
            Network::OpenFt,
            world,
            self.days,
            self.telemetry.trace,
            progress,
        )
    }
}
