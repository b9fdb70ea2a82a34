//! Miniature end-to-end studies: a small population on each network, a few
//! simulated hours of crawling, and a check that the measurement pipeline
//! (respond → log → download → scan → resolve) produces ground truth.

use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, HostLibrary, Roster};
use p2pmal_crawler::{FtCrawler, FtCrawlerConfig, GnutellaCrawler, GnutellaCrawlerConfig};
use p2pmal_gnutella::servent::{Servent, ServentConfig, SharedWorld};
use p2pmal_netsim::{NodeSpec, SimConfig, SimDuration, SimTime, Simulator};
use p2pmal_openft::node::{FtConfig, FtNode};
use p2pmal_scanner::Scanner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn world(seed: u64, roster: Roster) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    // Small sizes keep the mini-study's transfers fast.
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 200,
            ..Default::default()
        },
        &mut rng,
    );
    SharedWorld::new(
        Arc::new(catalog),
        Arc::new(roster),
        Arc::new(ContentStore::new(seed)),
    )
}

fn scanner(world: &SharedWorld) -> Scanner {
    Scanner::new(world.roster.signature_db().unwrap().build().unwrap())
}

#[test]
fn gnutella_mini_study_measures_ground_truth() {
    let w = world(11, Roster::limewire_2006());
    let mut sim = Simulator::new(SimConfig::default(), 11);
    let mut rng = StdRng::seed_from_u64(12);

    // Two ultrapeers.
    let mut up_addrs = Vec::new();
    for _ in 0..2 {
        let cfg = ServentConfig::ultrapeer().with_bootstrap(up_addrs.clone());
        let id = sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        );
        up_addrs.push(sim.node_addr(id));
    }
    // Three clean leaves sharing small benign applications, two echo-worm
    // leaves (one NATed).
    let mut small_apps: Vec<u32> = w
        .catalog
        .items()
        .iter()
        .filter(|it| {
            it.media == p2pmal_corpus::MediaType::Application && it.variants[0].size < 500_000
        })
        .map(|it| it.id)
        .collect();
    small_apps.truncate(3);
    assert!(
        !small_apps.is_empty(),
        "catalog needs small apps for this test"
    );
    for &id in &small_apps {
        let mut lib = HostLibrary::new();
        lib.add_benign(w.catalog.item(id), 0);
        let cfg = ServentConfig::leaf().with_bootstrap(up_addrs.clone());
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), lib)),
        );
    }
    for nat in [false, true] {
        let mut lib = HostLibrary::new();
        lib.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);
        let cfg = ServentConfig::leaf().with_bootstrap(up_addrs.clone());
        let spec = if nat {
            NodeSpec::nat()
        } else {
            NodeSpec::public().listen(6346)
        };
        sim.spawn(spec, Box::new(Servent::new(cfg, w.clone(), lib)));
    }

    // The instrumented client.
    let crawler_cfg = GnutellaCrawlerConfig {
        start_delay: SimDuration::from_secs(120),
        ..Default::default()
    };
    let crawler = sim.spawn(
        NodeSpec::public().listen(6346),
        Box::new(GnutellaCrawler::new(
            ServentConfig::leaf().with_bootstrap(up_addrs.clone()),
            w.clone(),
            scanner(&w),
            crawler_cfg,
        )),
    );

    sim.run_until(SimTime::from_secs(6 * 3600)); // six simulated hours

    let log = sim
        .with_node(crawler, |app, _| {
            app.as_any_mut()
                .unwrap()
                .downcast_mut::<GnutellaCrawler>()
                .unwrap()
                .take_log()
        })
        .unwrap();

    assert!(log.queries_issued > 50, "queries {}", log.queries_issued);
    assert!(!log.responses.is_empty());
    let resolved = log.resolved();
    let downloadable: Vec<_> = resolved.iter().filter(|r| r.record.downloadable).collect();
    assert!(!downloadable.is_empty());
    let scanned = downloadable.iter().filter(|r| r.scanned).count();
    assert!(scanned > 0, "some downloadable responses were scanned");
    let malicious = downloadable.iter().filter(|r| r.malware.is_some()).count();
    assert!(
        malicious > 0,
        "echo worms must show up as malicious responses"
    );
    // Every malicious verdict names the planted family.
    for r in downloadable.iter().filter(|r| r.malware.is_some()) {
        assert_eq!(
            r.malware.as_deref(),
            Some(w.roster.get(FamilyId(0)).name.as_str())
        );
        assert_eq!(r.record.size, w.roster.get(FamilyId(0)).sizes[0]);
    }
    // The NATed worm produced private-source responses.
    assert!(
        resolved.iter().any(|r| {
            r.malware.is_some()
                && p2pmal_netsim::HostAddr::new(r.record.source_ip, r.record.source_port)
                    .is_private()
        }),
        "expected malicious responses advertising private addresses"
    );
    // Dedup kept downloads far below response volume.
    assert!(log.downloads_attempted < log.responses.len() as u64);
}

#[test]
fn openft_mini_study_measures_ground_truth() {
    let w = world(21, Roster::openft_2006());
    let mut sim = Simulator::new(SimConfig::default(), 21);
    let mut rng = StdRng::seed_from_u64(22);

    let mut search_addrs = Vec::new();
    for _ in 0..2 {
        let cfg = FtConfig::search_node().with_bootstrap(search_addrs.clone());
        let id = sim.spawn(
            NodeSpec::public().listen(1215),
            Box::new(FtNode::new(cfg, w.clone(), HostLibrary::new())),
        );
        search_addrs.push(sim.node_addr(id));
    }
    // Benign sharers.
    let mut added = 0;
    for it in w.catalog.items() {
        if added >= 4 {
            break;
        }
        if it.variants[0].size < 400_000 {
            let mut lib = HostLibrary::new();
            lib.add_benign(it, 0);
            let cfg = FtConfig::user().with_bootstrap(search_addrs.clone());
            sim.spawn(
                NodeSpec::public().listen(1215),
                Box::new(FtNode::new(cfg, w.clone(), lib)),
            );
            added += 1;
        }
    }
    // The superspreader.
    let mut lib = HostLibrary::new();
    lib.infect_superspreader(w.roster.get(FamilyId(0)), &w.catalog, 60, &mut rng);
    let cfg = FtConfig::user().with_bootstrap(search_addrs.clone());
    let spreader = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtNode::new(cfg, w.clone(), lib)),
    );
    let spreader_ip = sim.node_addr(spreader).ip;

    let crawler = sim.spawn(
        NodeSpec::public().listen(1215),
        Box::new(FtCrawler::new(
            FtConfig::user().with_bootstrap(search_addrs.clone()),
            w.clone(),
            scanner(&w),
            FtCrawlerConfig {
                start_delay: SimDuration::from_secs(120),
                ..Default::default()
            },
        )),
    );

    sim.run_until(SimTime::from_secs(6 * 3600));

    let log = sim
        .with_node(crawler, |app, _| {
            app.as_any_mut()
                .unwrap()
                .downcast_mut::<FtCrawler>()
                .unwrap()
                .take_log()
        })
        .unwrap();

    assert!(log.queries_issued > 50);
    assert!(!log.responses.is_empty());
    let resolved = log.resolved();
    let malicious: Vec<_> = resolved.iter().filter(|r| r.malware.is_some()).collect();
    assert!(!malicious.is_empty(), "superspreader baits must be caught");
    // All malicious responses trace back to the single spreader host.
    for r in &malicious {
        assert_eq!(r.record.source_ip, spreader_ip);
        assert_eq!(
            r.malware.as_deref(),
            Some(w.roster.get(FamilyId(0)).name.as_str())
        );
    }
}
