//! Perf: discrete-event simulator throughput.
//!
//! Three measurements:
//!
//! * **Scheduler** — the bucketed calendar queue on the classic *hold
//!   model* (pre-fill to a working depth, then pop one / push one at a
//!   jittered future time), the access pattern a running simulation
//!   produces. This isolates the scheduler itself; events/second goes to
//!   stdout.
//! * **Whole-simulation overlay** — a small Gnutella overlay under query
//!   load, so the end-to-end effect (scheduler + pooled payload buffers) is
//!   visible in events/second.
//! * **Shard scaling** — one quick LimeWire day on the serial engine and
//!   on four shards.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pmal_bench::perf_samples;
use p2pmal_core::LimewireScenario;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, HostLibrary, Roster};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::queue::{CalendarQueue, Scheduler};
use p2pmal_netsim::{NodeSpec, SimConfig, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn world(seed: u64) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 200,
            ..Default::default()
        },
        &mut rng,
    );
    SharedWorld::new(
        Arc::new(catalog),
        Arc::new(Roster::limewire_2006()),
        Arc::new(ContentStore::new(seed)),
    )
}

/// Hold model: `depth` events resident, `ops` pop+push rounds with
/// deliveries jittered up to ~2 simulated seconds ahead (plus rare
/// far-future timers that exercise the calendar's overflow heap).
fn hold_model<S: Scheduler<u64>>(q: &mut S, depth: usize, ops: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x401D);
    let mut now = 0u64;
    for i in 0..depth {
        q.push(
            SimTime::from_micros(rng.gen_range(0..2_000_000u64)),
            i as u64,
        );
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (t, id) = q.pop().expect("hold model never drains");
        now = now.max(t.as_micros());
        acc = acc.wrapping_add(id);
        let ahead = if rng.gen_bool(0.001) {
            rng.gen_range(150_000_000..600_000_000u64) // far-future timer
        } else {
            rng.gen_range(1..2_000_000u64)
        };
        q.push(SimTime::from_micros(now + ahead), i as u64);
    }
    acc
}

/// Builds a 3-ultrapeer, 12-leaf overlay with ambient query load and runs
/// it for `sim_secs` of virtual time; returns events processed.
fn run_overlay(seed: u64, sim_secs: u64) -> u64 {
    let w = world(seed);
    let mut sim = Simulator::new(SimConfig::default(), seed);
    let mut ups = Vec::new();
    for _ in 0..3 {
        let cfg = ServentConfig::ultrapeer().with_bootstrap(ups.clone());
        let id = sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        );
        ups.push(sim.node_addr(id));
    }
    for i in 0..12 {
        let mut lib = HostLibrary::new();
        let item = w.catalog.item((i * 7) % w.catalog.len() as u32);
        lib.add_benign(item, 0);
        let mut cfg = ServentConfig::leaf().with_bootstrap(ups.clone());
        cfg.auto_query = Some(p2pmal_netsim::SimDuration::from_secs(20));
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), lib)),
        );
    }
    sim.run_until(SimTime::from_secs(sim_secs));
    sim.metrics().events_processed
}

/// One simulated day of the quick LimeWire study under `shards` simulation
/// shards (1 = serial reference engine); returns events processed.
fn run_sharded_scenario(seed: u64, shards: usize) -> u64 {
    let mut sc = LimewireScenario::quick(seed);
    sc.days = 1;
    sc.shards = shards;
    sc.run().sim_metrics.events_processed
}

const HOLD_DEPTH: usize = 100_000;
const HOLD_OPS: usize = 200_000;

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(perf_samples());
    g.bench_function(&format!("calendar_hold_{HOLD_DEPTH}"), |b| {
        b.iter(|| {
            let mut q = CalendarQueue::default();
            black_box(hold_model(&mut q, HOLD_DEPTH, HOLD_OPS))
        });
    });
    g.finish();

    // Events/second for the logs (EXPERIMENTS.md records these).
    let t0 = std::time::Instant::now();
    let mut reps = 0u32;
    while reps < 3 || t0.elapsed().as_millis() < 300 {
        black_box(hold_model(
            &mut CalendarQueue::default(),
            HOLD_DEPTH,
            HOLD_OPS,
        ));
        reps += 1;
    }
    let rate = (reps as u64 * (HOLD_DEPTH + HOLD_OPS) as u64) as f64 / t0.elapsed().as_secs_f64();
    println!("scheduler hold({HOLD_DEPTH}): calendar {rate:.0} events/s");
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(perf_samples());
    g.bench_function("overlay_600s_calendar", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_overlay(seed, 600))
        });
    });
    g.finish();

    // Report the end-to-end event rate once for the logs.
    let t0 = std::time::Instant::now();
    let mut events = 0u64;
    for rep in 0..20 {
        events += run_overlay(99 + rep, 1200);
    }
    println!(
        "simulator: {events} events in {:.2}s wall = {:.0} events/s",
        t0.elapsed().as_secs_f64(),
        events as f64 / t0.elapsed().as_secs_f64()
    );
}

/// Shard scaling: the serial engine vs the parallel sharded engine on the
/// same quick scenario. The two trajectories are deliberately distinct
/// (see `p2pmal_netsim`'s sharding docs), so events/second — not event
/// counts — is the comparable number.
fn bench_shard_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_scaling");
    g.sample_size(perf_samples());
    for (label, shards) in [
        ("limewire_1day_shards1", 1usize),
        ("limewire_1day_shards4", 4),
    ] {
        g.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_sharded_scenario(seed, shards))
            });
        });
    }
    g.finish();

    for (label, shards) in [("shards=1", 1usize), ("shards=4", 4)] {
        let t0 = std::time::Instant::now();
        let mut events = 0u64;
        for rep in 0..4 {
            events += run_sharded_scenario(7 + rep, shards);
        }
        println!(
            "shard_scaling[{label}]: {events} events in {:.2}s wall = {:.0} events/s",
            t0.elapsed().as_secs_f64(),
            events as f64 / t0.elapsed().as_secs_f64()
        );
    }
}

criterion_group!(benches, bench_scheduler, bench_sim, bench_shard_scaling);
criterion_main!(benches);
