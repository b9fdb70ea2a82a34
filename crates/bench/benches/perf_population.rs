//! Perf: population setup throughput and steady-state memory.
//!
//! Mega-scale worlds live or die on two numbers this bench pins down:
//!
//! * **Setup throughput** — nodes spawned per second building an
//!   ultrapeer-backbone-plus-leaves world (shared `Arc` bootstrap lists,
//!   arena-backed libraries). This is where the old O(ultrapeers x leaves)
//!   bootstrap duplication used to bite.
//! * **Bytes per node** — the simulator's own deep-heap estimate right
//!   after setup and again after a bounded burst of simulated traffic
//!   (QRP tables exchanged, route tables warm).
//!
//! Numbers go to stdout; `P2PMAL_PERF_SMOKE=1` shrinks the population for
//! the CI smoke lane.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pmal_bench::perf_samples;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, HostLibrary, Roster};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::{HostAddr, NodeSpec, SimConfig, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn world(seed: u64) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 500,
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

/// Builds a `nodes`-host world (1 ultrapeer per 26 hosts, rest leaves with
/// small libraries) and returns the simulator, ready to run.
fn build_population(seed: u64, nodes: usize) -> Simulator {
    let w = world(seed);
    let mut sim = Simulator::new(SimConfig::default(), seed);
    let ups = (nodes / 26).max(1);
    let leaves = nodes.saturating_sub(ups);
    let slots =
        (leaves.saturating_mul(ServentConfig::leaf().target_degree) * 13 / 10 / ups).max(30);
    let mut up_addrs = Vec::with_capacity(ups);
    for _ in 0..ups {
        let mut cfg = ServentConfig::ultrapeer().with_bootstrap(up_addrs.clone());
        cfg.max_leaf_slots = slots;
        let id = sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        );
        up_addrs.push(sim.node_addr(id));
    }
    // One shared list for every leaf — the mega-population fast path.
    let boot: Arc<[HostAddr]> = up_addrs.into();
    for i in 0..leaves {
        let mut lib = HostLibrary::new();
        let item = w.catalog.item((i as u32 * 7) % w.catalog.len() as u32);
        lib.add_benign(item, 0);
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(
                ServentConfig::leaf().with_bootstrap(boot.clone()),
                w.clone(),
                lib,
            )),
        );
    }
    sim
}

fn population_size() -> usize {
    if p2pmal_bench::config().perf_smoke {
        2_000
    } else {
        20_000
    }
}

fn bench_setup(c: &mut Criterion) {
    let nodes = population_size();
    let mut g = c.benchmark_group("population");
    g.sample_size(perf_samples());
    let name = format!("setup_{nodes}");
    g.bench_function(&name, |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(build_population(seed, nodes).metrics().events_processed)
        });
    });
    g.finish();

    // Setup throughput and memory for the logs (EXPERIMENTS.md records
    // these).
    let t0 = std::time::Instant::now();
    let mut sim = build_population(42, nodes);
    let setup = t0.elapsed();
    sim.record_memory();
    let m0 = sim.metrics().memory;
    println!(
        "population setup: {nodes} nodes in {:.2}s = {:.0} nodes/s, {} bytes/node after setup",
        setup.as_secs_f64(),
        nodes as f64 / setup.as_secs_f64().max(1e-9),
        m0.bytes_per_node(),
    );

    // A bounded burst of simulated time: handshakes complete and leaves
    // upload their QRP tables, so per-connection route state is warm.
    let t1 = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(600));
    sim.record_memory();
    let m1 = sim.metrics().memory;
    println!(
        "population steady: {} events in {:.2}s wall = {:.0} events/s, {} bytes/node warm",
        sim.metrics().events_processed,
        t1.elapsed().as_secs_f64(),
        sim.metrics().events_processed as f64 / t1.elapsed().as_secs_f64().max(1e-9),
        m1.bytes_per_node(),
    );
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
