//! The mega-scale population tier: a single Gnutella world of 50k–1M
//! servents, built for memory/setup-throughput measurement rather than
//! paper-number calibration.
//!
//! Differences from [`crate::LimewireScenario`]:
//!
//! * the population is parameterized by a single `nodes` count
//!   (`P2PMAL_MEGA_NODES`, see [`crate::RunConfig::mega`]), with the ultrapeer backbone, leaf libraries and
//!   infection mix all derived proportionally;
//! * ultrapeers bootstrap off a bounded window of prior ultrapeers and
//!   leaves off shared bootstrap groups, so population setup is O(nodes),
//!   not O(ultrapeers × leaves);
//! * only a sampled fraction of leaves runs ambient hourly queries — at a
//!   million nodes an every-leaf workload would measure the query flood,
//!   not the per-node state this tier exists to size.
//!
//! The run still carries the full instrumented crawler (queries, downloads,
//! scan pipeline), so a "bounded study run" at 250k+ nodes exercises every
//! layer the paper-scale study does.

use crate::config::RunConfig;
use crate::scenario::clean_library;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, HostLibrary, Roster};
use p2pmal_crawler::{
    CrawlLog, GnutellaCrawler, GnutellaCrawlerConfig, RetryPolicy, WorkloadConfig,
    DEFAULT_SCAN_CACHE_ENTRIES,
};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::{
    MemoryStats, NodeSpec, SimConfig, SimDuration, SimMetrics, SimTime, Simulator, TelemetryConfig,
};
use p2pmal_scanner::Scanner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Configuration for one mega-tier world.
#[derive(Debug, Clone)]
pub struct MegaScenario {
    pub seed: u64,
    /// Total servents (ultrapeers + leaves + the crawler).
    pub nodes: usize,
    /// Simulated days (bounded: the tier measures state, not longitudes).
    pub days: u64,
    /// Leaves per ultrapeer (sets the backbone size).
    pub leaves_per_up: usize,
    /// Ultrapeer addresses per bootstrap list (backbone window size and
    /// leaf bootstrap-group size).
    pub bootstrap_fanout: usize,
    /// Benign files shared per leaf.
    pub files_per_leaf: usize,
    /// Query-echo infected hosts per 10k leaves (family 0).
    pub echo_hosts_per_10k: usize,
    /// Static-naming trojan hosts per 10k leaves (family 3).
    pub trojan_hosts_per_10k: usize,
    /// Every Nth leaf runs ambient hourly queries (0 = silent population).
    pub ambient_every: usize,
    pub catalog: CatalogConfig,
    pub workload: WorkloadConfig,
    pub telemetry: TelemetryConfig,
    pub shards: usize,
    pub shard_window_us: u64,
}

/// The result of one mega-tier run.
pub struct MegaRun {
    pub nodes: usize,
    pub ups: usize,
    pub leaves: usize,
    pub days: u64,
    /// Wall clock spent building the population (spawn + libraries).
    pub setup_wall: std::time::Duration,
    /// Wall clock spent in the simulation loop.
    pub wall: std::time::Duration,
    /// Memory snapshot right after setup, before any event ran.
    pub setup_memory: MemoryStats,
    /// Final metrics; `sim_metrics.memory` is the steady-state snapshot.
    pub sim_metrics: SimMetrics,
    pub log: CrawlLog,
    pub shards: usize,
    pub shard_window_us: u64,
}

impl MegaScenario {
    /// Defaults for a `nodes`-servent world; see field docs for the knobs.
    pub fn new(seed: u64, nodes: usize) -> Self {
        MegaScenario {
            seed,
            nodes,
            days: 2,
            leaves_per_up: 25,
            bootstrap_fanout: 8,
            files_per_leaf: 4,
            echo_hosts_per_10k: 20,
            trojan_hosts_per_10k: 5,
            ambient_every: 100,
            catalog: CatalogConfig {
                titles: 2500,
                ..Default::default()
            },
            workload: WorkloadConfig {
                base_interval_secs: 60,
                ..Default::default()
            },
            telemetry: RunConfig::env().telemetry.clone(),
            shards: RunConfig::env().shards,
            shard_window_us: SimConfig::default().shard_window_us,
        }
    }

    /// Builds the population, runs the bounded collection, returns the
    /// measurement. `progress(day)` fires after each simulated day.
    pub fn run_with_progress(&self, mut progress: impl FnMut(u64)) -> MegaRun {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x11FE);
        let world = {
            let mut wrng = StdRng::seed_from_u64(self.seed ^ 0x0CA7_A106);
            let catalog = Catalog::generate(&self.catalog, &mut wrng);
            SharedWorld::new(
                Arc::new(catalog),
                Arc::new(Roster::limewire_2006()),
                Arc::new(ContentStore::new(self.seed)),
            )
        };
        let scanner = Scanner::new(
            world
                .roster
                .signature_db()
                .expect("roster db")
                .build()
                .expect("db compiles"),
        );
        let mut sim = Simulator::new(
            SimConfig {
                shards: self.shards,
                shard_window_us: self.shard_window_us,
                ..SimConfig::default()
            },
            self.seed,
        );
        sim.set_telemetry(self.telemetry.build("mega"));

        let setup_t0 = std::time::Instant::now();
        let ups = (self.nodes / (self.leaves_per_up + 1)).max(1);
        let leaves = self.nodes.saturating_sub(ups + 1);
        let fanout = self.bootstrap_fanout.max(1);

        // Backbone. Overflow-safe slot arithmetic: at 10^6 leaves the naive
        // `leaves * degree * 13` product is fine on 64-bit but saturate
        // anyway so 32-bit hosts degrade to "plenty" instead of wrapping.
        let slots_needed = leaves.saturating_mul(ServentConfig::leaf().target_degree);
        let slots_per_up = (slots_needed.saturating_mul(13) / 10 / ups).max(30);
        let mut up_addrs: Vec<p2pmal_netsim::HostAddr> = Vec::with_capacity(ups);
        for i in 0..ups {
            // Bounded bootstrap window: the previous `fanout` ultrapeers.
            let window = up_addrs[i.saturating_sub(fanout)..i].to_vec();
            let mut cfg = ServentConfig::ultrapeer().with_bootstrap(window);
            cfg.max_leaf_slots = slots_per_up;
            let id = sim.spawn(
                NodeSpec::public().listen(6346),
                Box::new(Servent::new(cfg, world.clone(), HostLibrary::new())),
            );
            up_addrs.push(sim.node_addr(id));
        }

        // Leaf bootstrap groups: `fanout` consecutive ultrapeers per group,
        // shared by every leaf assigned to that group. The final group is
        // pulled back so it keeps full width when `ups % fanout != 0`.
        let num_groups = ups.div_ceil(fanout);
        let groups: Vec<Arc<[p2pmal_netsim::HostAddr]>> = (0..num_groups)
            .map(|g| {
                let start = (g * fanout).min(ups.saturating_sub(fanout));
                let end = (start + fanout).min(ups);
                up_addrs[start..end].to_vec().into()
            })
            .collect();

        let echo_total = leaves * self.echo_hosts_per_10k / 10_000;
        let trojan_total = leaves * self.trojan_hosts_per_10k / 10_000;
        let echo_stride = leaves.checked_div(echo_total).unwrap_or(0);
        let trojan_stride = leaves.checked_div(trojan_total).unwrap_or(0);

        for i in 0..leaves {
            let mut lib = clean_library(&world, self.files_per_leaf, &mut rng);
            if echo_stride > 0 && i % echo_stride == 0 {
                lib.infect(world.roster.get(FamilyId(0)), &world.catalog, &mut rng);
            } else if trojan_stride > 0 && i % trojan_stride == 1 {
                lib.infect(world.roster.get(FamilyId(3)), &world.catalog, &mut rng);
            }
            let mut cfg = ServentConfig::leaf().with_bootstrap(groups[i % num_groups].clone());
            if self.ambient_every > 0 && i % self.ambient_every == 0 {
                cfg.auto_query = Some(SimDuration::from_hours(1));
            }
            let spec = if i % 10 < 3 {
                NodeSpec::nat()
            } else {
                NodeSpec::public().listen(6346)
            };
            sim.spawn(spec, Box::new(Servent::new(cfg, world.clone(), lib)));
        }

        let crawler = sim.spawn(
            NodeSpec::public().listen(6346).durable(),
            Box::new(GnutellaCrawler::new(
                ServentConfig::leaf().with_bootstrap(groups[0].clone()),
                world.clone(),
                scanner,
                GnutellaCrawlerConfig {
                    workload: self.workload.clone(),
                    scan_cache_entries: DEFAULT_SCAN_CACHE_ENTRIES,
                    retry: RetryPolicy::legacy(),
                    ..Default::default()
                },
            )),
        );
        let setup_wall = setup_t0.elapsed();
        sim.record_memory();
        let setup_memory = sim.metrics().memory;

        let mut wall = std::time::Duration::ZERO;
        let mut last_events = 0u64;
        for day in 1..=self.days {
            let t0 = std::time::Instant::now();
            sim.run_until(SimTime::from_days(day));
            let day_wall = t0.elapsed();
            wall += day_wall;
            sim.sample_queue_depth();
            let ev = sim.metrics().events_processed;
            if self.telemetry.trace >= 1 {
                eprintln!(
                    "[trace] mega day {day}: {ev} events (+{}), {:.1}s wall, queue {} pending",
                    ev - last_events,
                    day_wall.as_secs_f64(),
                    sim.pending_events(),
                );
            }
            last_events = ev;
            progress(day);
        }
        sim.flush_telemetry();
        sim.record_memory();
        let log = sim
            .with_node(crawler, |app, _| {
                app.as_any_mut()
                    .expect("crawler downcasts")
                    .downcast_mut::<GnutellaCrawler>()
                    .expect("crawler node")
                    .take_log()
            })
            .expect("crawler alive");
        MegaRun {
            nodes: self.nodes,
            ups,
            leaves,
            days: self.days,
            setup_wall,
            wall,
            setup_memory,
            sim_metrics: sim.metrics().clone(),
            log,
            shards: sim.shard_count(),
            shard_window_us: sim.shard_window_us(),
        }
    }

    pub fn run(&self) -> MegaRun {
        self.run_with_progress(|_| {})
    }
}
