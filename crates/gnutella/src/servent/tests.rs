//! End-to-end servent tests: real wire bytes over the discrete-event
//! simulator.

use super::*;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::{ContentStore, FamilyId, HostLibrary, Roster};
use p2pmal_netsim::{NodeId, NodeSpec, SimConfig, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world(seed: u64) -> SharedWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(
        &CatalogConfig {
            titles: 150,
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

/// A small overlay: `ups` ultrapeers meshed via bootstrap, plus the given
/// leaf libraries hanging off them. Returns (sim, up ids, leaf ids).
struct TestNet {
    sim: Simulator,
    ups: Vec<NodeId>,
    leaves: Vec<NodeId>,
    world: SharedWorld,
}

fn build_net(seed: u64, ups: usize, leaf_libs: Vec<(HostLibrary, bool)>) -> TestNet {
    let world = world(seed);
    let mut sim = Simulator::new(SimConfig::default(), seed);
    let mut up_ids = Vec::new();
    let mut up_addrs = Vec::new();
    for _ in 0..ups {
        let cfg = ServentConfig::ultrapeer().with_bootstrap(up_addrs.clone());
        let servent = Servent::new(cfg, world.clone(), HostLibrary::new());
        let id = sim.spawn(NodeSpec::public().listen(6346), Box::new(servent));
        up_addrs.push(sim.node_addr(id));
        up_ids.push(id);
    }
    let mut leaf_ids = Vec::new();
    for (lib, nat) in leaf_libs {
        let cfg = ServentConfig::leaf().with_bootstrap(up_addrs.clone());
        let servent = Servent::new(cfg, world.clone(), lib);
        let spec = if nat {
            NodeSpec::nat()
        } else {
            NodeSpec::public().listen(6346)
        };
        let id = sim.spawn(spec, Box::new(servent));
        leaf_ids.push(id);
    }
    // Let the overlay converge.
    sim.run_until(SimTime::from_secs(60));
    TestNet {
        sim,
        ups: up_ids,
        leaves: leaf_ids,
        world,
    }
}

fn with_servent<R>(
    sim: &mut Simulator,
    node: NodeId,
    f: impl FnOnce(&mut Servent, &mut p2pmal_netsim::Ctx<'_>) -> R,
) -> R {
    sim.with_node(node, |app, ctx| {
        let s = app
            .as_any_mut()
            .expect("servent supports downcast")
            .downcast_mut::<Servent>()
            .expect("node is a Servent");
        f(s, ctx)
    })
    .expect("node alive")
}

/// A leaf that shares a benign title; a second (crawler-style) leaf
/// searches for it and gets a routed QUERYHIT back through the ultrapeer.
#[test]
fn query_flood_and_hit_routing() {
    let w = world(1);
    let mut lib = HostLibrary::new();
    lib.add_benign(w.catalog.item(0), 0);
    let kw = w.catalog.item(0).keywords.clone();
    let mut net = build_net(1, 2, vec![(lib, false)]);
    // Crawler leaf joins.
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        let servent = Servent::new(cfg, net.world.clone(), HostLibrary::new());
        net.sim
            .spawn(NodeSpec::public().listen(6346), Box::new(servent))
    };
    net.sim.run_until(SimTime::from_secs(120));

    assert!(
        with_servent(&mut net.sim, crawler, |s, _| s.peer_count()) > 0,
        "crawler connected"
    );
    let query = kw.join(" ");
    with_servent(&mut net.sim, crawler, |s, ctx| s.search(ctx, &query));
    net.sim.run_until(SimTime::from_secs(180));

    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let hits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ServentEvent::QueryHit { hit, .. } => Some(hit.clone()),
            _ => None,
        })
        .collect();
    assert!(
        !hits.is_empty(),
        "expected a query hit, got events: {}",
        events.len()
    );
    let names: Vec<&str> = hits
        .iter()
        .flat_map(|h| h.results.iter().map(|r| r.name.as_str()))
        .collect();
    assert!(
        names.iter().any(|n| n.contains(&kw[0])),
        "hit should name the shared file: {names:?}"
    );
    // The sharer is public, so no push flag.
    assert!(!hits[0].flags.needs_push());
}

/// An echo-worm leaf answers a query for an arbitrary string with
/// `<query>.exe`, and the payload downloads and convicts.
#[test]
fn echo_worm_answers_everything_and_download_scans_dirty() {
    let w = world(2);
    let mut lib = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(7);
    lib.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);

    let mut net = build_net(2, 1, vec![(lib, false)]);
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        net.sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, net.world.clone(), HostLibrary::new())),
        )
    };
    net.sim.run_until(SimTime::from_secs(120));

    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.search(ctx, "definitely nonexistent words")
    });
    net.sim.run_until(SimTime::from_secs(200));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let hit = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::QueryHit { hit, .. } => Some(hit.clone()),
            _ => None,
        })
        .expect("echo worm must answer");
    let res = &hit.results[0];
    assert_eq!(res.name, "definitely_nonexistent_words.exe");
    assert_eq!(res.size as u64, w.roster.get(FamilyId(0)).sizes[0]);
    assert!(res.index >= ECHO_INDEX_BASE);

    // Download it directly and scan.
    let addr = HostAddr::new(hit.ip, hit.port);
    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.begin_download(
            ctx,
            DownloadRequest {
                addr,
                index: res.index,
                name: res.name.clone(),
                servent_guid: hit.servent_guid,
                method: DownloadMethod::Direct,
            },
        )
    });
    net.sim.run_until(SimTime::from_secs(400));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let body = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::DownloadDone(d) => Some(d.result.clone().expect("download ok")),
            _ => None,
        })
        .expect("download completed");
    assert_eq!(body.len() as u64, w.roster.get(FamilyId(0)).sizes[0]);
    let scanner = p2pmal_scanner::Scanner::new(w.roster.signature_db().unwrap().build().unwrap());
    let verdict = scanner.scan(&res.name, &body);
    assert_eq!(
        verdict.primary(),
        Some(w.roster.get(FamilyId(0)).name.as_str())
    );
}

/// A NATed infected leaf advertises its private address; direct dialing
/// fails, but a routed PUSH + GIV completes the transfer.
#[test]
fn nat_leaf_requires_push_and_giv_transfer_works() {
    let w = world(3);
    let mut lib = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(8);
    lib.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);

    let mut net = build_net(3, 1, vec![(lib, true)]); // NATed sharer
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        net.sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, net.world.clone(), HostLibrary::new())),
        )
    };
    net.sim.run_until(SimTime::from_secs(120));

    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.search(ctx, "any random thing")
    });
    net.sim.run_until(SimTime::from_secs(200));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let hit = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::QueryHit { hit, .. } => Some(hit.clone()),
            _ => None,
        })
        .expect("worm answered");
    // The paper's artifact: the advertised address is RFC 1918.
    assert!(
        HostAddr::new(hit.ip, hit.port).is_private(),
        "advertised {}",
        hit.ip
    );
    assert!(hit.flags.needs_push());

    // Direct download fails (private address unroutable)...
    let res = hit.results[0].clone();
    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.begin_download(
            ctx,
            DownloadRequest {
                addr: HostAddr::new(hit.ip, hit.port),
                index: res.index,
                name: res.name.clone(),
                servent_guid: hit.servent_guid,
                method: DownloadMethod::Direct,
            },
        )
    });
    net.sim.run_until(SimTime::from_secs(400));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let direct = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::DownloadDone(d) => Some(d.result.clone()),
            _ => None,
        })
        .expect("direct attempt resolved");
    assert!(direct.is_err(), "dialing a private address must fail");

    // ...but PUSH succeeds.
    with_servent(&mut net.sim, crawler, |s, ctx| {
        s.begin_download(
            ctx,
            DownloadRequest {
                addr: HostAddr::new(hit.ip, hit.port),
                index: res.index,
                name: res.name.clone(),
                servent_guid: hit.servent_guid,
                method: DownloadMethod::Push,
            },
        )
    });
    net.sim.run_until(SimTime::from_secs(700));
    let events = with_servent(&mut net.sim, crawler, |s, _| s.drain_events());
    let pushed = events
        .iter()
        .find_map(|e| match e {
            ServentEvent::DownloadDone(d) => Some(d.result.clone()),
            _ => None,
        })
        .expect("push attempt resolved");
    let body = pushed.expect("push download succeeds");
    assert_eq!(body.len() as u64, w.roster.get(FamilyId(0)).sizes[0]);
}

/// QRP keeps non-matching queries away from clean leaves but echo worms
/// saturate their tables and receive everything.
#[test]
fn qrp_suppresses_clean_leaves_but_not_worms() {
    let w = world(4);
    let mut clean = HostLibrary::new();
    clean.add_benign(w.catalog.item(3), 0);
    let mut dirty = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(9);
    dirty.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);

    let mut net = build_net(4, 1, vec![(clean, false), (dirty, false)]);
    let crawler = {
        let cfg = ServentConfig {
            collect_events: true,
            ..ServentConfig::leaf().with_bootstrap(vec![net.sim.node_addr(net.ups[0])])
        };
        net.sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, net.world.clone(), HostLibrary::new())),
        )
    };
    net.sim.run_until(SimTime::from_secs(120));
    for i in 0..10 {
        with_servent(&mut net.sim, crawler, |s, ctx| {
            s.search(ctx, &format!("unmatchable terms {i}"))
        });
    }
    net.sim.run_until(SimTime::from_secs(400));

    let up_stats = with_servent(&mut net.sim, net.ups[0], |s, _| s.stats());
    assert!(
        up_stats.qrp_last_hop_suppressed > 0,
        "ultrapeer should suppress last-hop deliveries to the clean leaf"
    );
    // The clean leaf answered nothing; the worm answered every query.
    let clean_stats = with_servent(&mut net.sim, net.leaves[0], |s, _| s.stats());
    let dirty_stats = with_servent(&mut net.sim, net.leaves[1], |s, _| s.stats());
    assert_eq!(clean_stats.queries_answered, 0);
    assert!(
        dirty_stats.queries_answered >= 10,
        "worm answered {}",
        dirty_stats.queries_answered
    );
}

/// Ultrapeers hand out their host cache on leaf-slot exhaustion, and the
/// rejected leaf retries elsewhere.
#[test]
fn leaf_slot_rejection_redirects_to_other_ultrapeers() {
    let w = world(5);
    let mut sim = Simulator::new(SimConfig::default(), 5);
    // One full ultrapeer (0 slots) that knows a second, open ultrapeer.
    let open_up = {
        let cfg = ServentConfig::ultrapeer();
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        )
    };
    let open_addr = sim.node_addr(open_up);
    let full_up = {
        let mut cfg = ServentConfig::ultrapeer().with_bootstrap(vec![open_addr]);
        cfg.max_leaf_slots = 0;
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w.clone(), HostLibrary::new())),
        )
    };
    let full_addr = sim.node_addr(full_up);
    sim.run_until(SimTime::from_secs(60));

    let leaf = {
        let cfg = ServentConfig::leaf().with_bootstrap(vec![full_addr]);
        sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Servent::new(cfg, w, HostLibrary::new())),
        )
    };
    sim.run_until(SimTime::from_secs(300));
    let peers = sim
        .with_node(leaf, |app, _| {
            app.as_any_mut()
                .unwrap()
                .downcast_mut::<Servent>()
                .unwrap()
                .peer_count()
        })
        .unwrap();
    assert!(
        peers >= 1,
        "leaf found the open ultrapeer via X-Try-Ultrapeers"
    );
}

/// The ultrapeer's live leaf connection and the QRP filter received on it.
fn leaf_filter(up: &Servent) -> (ConnId, crate::qrp::QrpFilter) {
    let mut leaves = up.conns.iter().filter_map(|(&conn, k)| match k {
        ConnKind::Peer(p) if !p.ultrapeer => Some((conn, p.qrp.filter()?.clone())),
        _ => None,
    });
    let found = leaves.next().expect("a leaf with a received QRP table");
    assert!(leaves.next().is_none(), "one live leaf connection");
    found
}

/// A leaf reconnecting to its ultrapeer resends the table it encoded on
/// its first connection: after each of two successive connections the
/// ultrapeer's filter equals the leaf's table slot for slot, for a plain
/// library and for an echo worm's saturated one.
#[test]
fn qrp_table_is_resent_exactly_on_reconnect() {
    let w = world(6);
    let mut plain = HostLibrary::new();
    for i in 0..5 {
        plain.add_benign(w.catalog.item(i), 0);
    }
    let mut echo = HostLibrary::new();
    let mut rng = StdRng::seed_from_u64(10);
    echo.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);
    assert!(echo.has_echo());

    for lib in [plain, echo] {
        let mut net = build_net(6, 1, vec![(lib, false)]);
        let (up, leaf) = (net.ups[0], net.leaves[0]);
        let table = with_servent(&mut net.sim, leaf, |s, _| qrp_table(s.library()));
        let log2 = table.log2_size() as u64;
        let mut up_conns = Vec::new();
        for round in 0..2 {
            if round > 0 {
                // The leaf drops its only overlay connection; maintenance
                // redials the ultrapeer on its next tick.
                with_servent(&mut net.sim, leaf, |s, ctx| {
                    let (&conn, _) = s
                        .conns
                        .iter()
                        .find(|(_, k)| matches!(k, ConnKind::Peer(_)))
                        .expect("leaf connected");
                    s.drop_conn(ctx, conn);
                });
                let until = net.sim.now() + SimDuration::from_secs(120);
                net.sim.run_until(until);
            }
            let (conn, filter) = with_servent(&mut net.sim, up, |s, _| leaf_filter(s));
            assert_eq!(filter.len(), table.len());
            assert_eq!(filter.population(), table.population());
            for slot in 0..table.len() as u64 {
                let h = [slot << (64 - log2)];
                assert_eq!(
                    filter.might_match_hashes(&h),
                    table.might_match_hashes(&h),
                    "round {round}, slot {slot}"
                );
            }
            up_conns.push(conn);
        }
        assert_ne!(up_conns[0], up_conns[1], "second round is a new connection");
    }
}

/// The ultrapeer's live leaf connections, in id order.
fn leaf_conns(up: &Servent) -> Vec<ConnId> {
    up.conns
        .iter()
        .filter(|(_, k)| matches!(k, ConnKind::Peer(p) if !p.ultrapeer))
        .map(|(&c, _)| c)
        .collect()
}

fn header(guid: Guid, msg_type: MsgType, payload: &[u8]) -> Header {
    Header {
        guid,
        msg_type,
        ttl: 3,
        hops: 1,
        payload_len: payload.len() as u32,
    }
}

/// A QUERYHIT on a routed path is checked before it is forwarded or
/// teaches a push route: a malformed copy does neither, while the
/// well-formed copy of the same hit does both.
#[test]
fn malformed_queryhit_is_neither_forwarded_nor_learned() {
    let mut net = build_net(7, 1, vec![(HostLibrary::new(), false)]);
    let (up, leaf) = (net.ups[0], net.leaves[0]);
    let mut rng = StdRng::seed_from_u64(11);
    let (query_guid, responder) = (Guid::random(&mut rng), Guid::random(&mut rng));
    let good = QueryHit {
        port: 6346,
        ip: std::net::Ipv4Addr::new(10, 0, 0, 9),
        speed: 350,
        results: vec![HitResult {
            index: 1,
            size: 58_368,
            name: "free_music.exe".into(),
            sha1: None,
        }],
        vendor: *b"LIME",
        flags: QhdFlags::new(),
        ggep: Vec::new(),
        servent_guid: responder,
    }
    .encode();
    // QHD open-data size 1 is below the minimum of 2; the trailing
    // servent GUID is untouched.
    let mut bad = good.clone();
    let open_size_at = good.len() - 16 - 3;
    assert_eq!(bad[open_size_at], 2);
    bad[open_size_at] = 1;
    assert!(QueryHit::parse(&bad).is_err());

    for (payload, valid) in [(&bad, false), (&good, true)] {
        let before = with_servent(&mut net.sim, up, |s, ctx| {
            let conn = leaf_conns(s)[0];
            s.route_query_back(query_guid, Some(conn));
            let before = s.stats();
            s.handle_query_hit(
                ctx,
                conn,
                header(query_guid, MsgType::QueryHit, payload),
                payload,
            );
            before
        });
        let until = net.sim.now() + SimDuration::from_secs(10);
        net.sim.run_until(until);
        let (after, up_learned) = with_servent(&mut net.sim, up, |s, _| {
            (s.stats(), s.push_routes.get(&responder).is_some())
        });
        let leaf_learned = with_servent(&mut net.sim, leaf, |s, _| {
            s.push_routes.get(&responder).is_some()
        });
        assert_eq!(after.hits_routed - before.hits_routed, valid as u64);
        assert_eq!(after.bad_messages - before.bad_messages, !valid as u64);
        assert_eq!(up_learned, valid, "ultrapeer push route (valid={valid})");
        assert_eq!(leaf_learned, valid, "forwarded to the leaf (valid={valid})");
    }
}

/// A malformed QUERY does not mark its GUID seen: a later well-formed copy
/// with the same GUID is still routed, answered by an echo worm, and its
/// hit routed back.
#[test]
fn malformed_query_does_not_mark_its_guid_seen() {
    let w = world(8);
    let mut rng = StdRng::seed_from_u64(12);
    let mut echo = HostLibrary::new();
    echo.infect(w.roster.get(FamilyId(0)), &w.catalog, &mut rng);
    let mut net = build_net(8, 1, vec![(echo.clone(), false), (echo, false)]);
    let up = net.ups[0];
    let guid = Guid::random(&mut rng);
    let text = "any random thing";
    let good = Query::keyword(text).encode();
    // Min-speed plus the search text without its NUL terminator.
    let bad = &good[..2 + text.len()];
    assert_eq!(
        Query::parse(bad),
        Err(crate::payload::PayloadError::MissingNul)
    );

    let before = with_servent(&mut net.sim, up, |s, ctx| {
        let origin = leaf_conns(s)[0];
        let before = s.stats();
        s.handle_query(ctx, origin, header(guid, MsgType::Query, bad), bad);
        assert_eq!(s.stats().bad_messages, before.bad_messages + 1);
        assert!(
            !s.seen.contains(&guid),
            "a malformed QUERY marked its GUID seen"
        );
        assert!(s.query_routes.get(&guid).is_none());
        s.handle_query(ctx, origin, header(guid, MsgType::Query, &good), &good);
        assert!(s.seen.contains(&guid));
        assert_eq!(s.query_routes.get(&guid), Some(&Some(origin)));
        before
    });
    let until = net.sim.now() + SimDuration::from_secs(10);
    net.sim.run_until(until);
    let after = with_servent(&mut net.sim, up, |s, _| s.stats());
    assert_eq!(after.queries_routed, before.queries_routed + 1);
    assert!(
        after.hits_routed > before.hits_routed,
        "the echo worm's hit was routed back"
    );
}
