//! Perf: protocol codec throughput — Gnutella descriptor framing and
//! OpenFT packet framing, encode and parse sides — plus the two per-message
//! costs of Gnutella routing: the duplicate/route table lookups
//! (`route_tables`) and checking a routed QUERYHIT in place versus decoding
//! it into owned form (`queryhit_validate_vs_parse`).
//!
//! `P2PMAL_PERF_SMOKE=1` cuts sample counts for the CI smoke run; the
//! numbers it prints are not publication-grade.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use p2pmal_bench::perf_samples;
use p2pmal_gnutella::guid::Guid;
use p2pmal_gnutella::message::{encode_message, MessageReader, MsgType};
use p2pmal_gnutella::payload::{HitResult, QhdFlags, Query, QueryHit};
use p2pmal_netsim::FifoSet;
use p2pmal_openft::packet::{encode_packet, Command, PacketReader, Search, SearchResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn sample_query_wire() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut out = Vec::new();
    encode_message(
        Guid::random(&mut rng),
        MsgType::Query,
        3,
        0,
        &Query::keyword("crimson horizon remix").encode(),
        &mut out,
    );
    out
}

fn sample_hit_payload(results: u32) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(2);
    QueryHit {
        port: 6346,
        ip: Ipv4Addr::new(10, 1, 2, 3),
        speed: 350,
        results: (0..results)
            .map(|i| HitResult {
                index: i,
                size: 58_368 + i,
                name: format!("result_number_{i}_of_many.exe"),
                sha1: None,
            })
            .collect(),
        vendor: *b"LIME",
        flags: QhdFlags::new(),
        ggep: Vec::new(),
        servent_guid: Guid::random(&mut rng),
    }
    .encode()
}

fn sample_hit_wire() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(2);
    let mut out = Vec::new();
    encode_message(
        Guid::random(&mut rng),
        MsgType::QueryHit,
        4,
        0,
        &sample_hit_payload(32),
        &mut out,
    );
    out
}

fn bench_gnutella(c: &mut Criterion) {
    let query_wire = sample_query_wire();
    let hit_wire = sample_hit_wire();

    let mut g = c.benchmark_group("gnutella_codec");
    g.sample_size(perf_samples());
    g.throughput(Throughput::Bytes(query_wire.len() as u64));
    g.bench_function("encode_query", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let guid = Guid::random(&mut rng);
        let payload = Query::keyword("crimson horizon remix").encode();
        b.iter(|| {
            let mut out = Vec::with_capacity(64);
            encode_message(guid, MsgType::Query, 3, 0, black_box(&payload), &mut out);
            black_box(out)
        });
    });
    g.bench_function("parse_query_stream", |b| {
        b.iter_batched(
            MessageReader::new,
            |mut r| {
                r.push(black_box(&query_wire));
                black_box(r.next_message().unwrap().unwrap())
            },
            BatchSize::SmallInput,
        );
    });
    g.throughput(Throughput::Bytes(hit_wire.len() as u64));
    g.bench_function("parse_queryhit_32_results", |b| {
        b.iter_batched(
            MessageReader::new,
            |mut r| {
                r.push(black_box(&hit_wire));
                let (_, payload) = r.next_message().unwrap().unwrap();
                black_box(QueryHit::parse(&payload).unwrap())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_openft(c: &mut Criterion) {
    let result = Search::Result(SearchResult {
        id: 1,
        host: Ipv4Addr::new(4, 8, 15, 16),
        port: 1215,
        http_port: 1216,
        avail: 1,
        md5: p2pmal_hashes::md5(b"x"),
        size: 33_280,
        filename: "some_registered_share_name.exe".into(),
    });
    let mut wire = Vec::new();
    encode_packet(Command::Search, &result.encode(), &mut wire);

    let mut g = c.benchmark_group("openft_codec");
    g.sample_size(perf_samples());
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_search_result", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(96);
            encode_packet(Command::Search, black_box(&result.encode()), &mut out);
            black_box(out)
        });
    });
    g.bench_function("parse_search_result", |b| {
        b.iter_batched(
            PacketReader::new,
            |mut r| {
                r.push(black_box(&wire));
                let (_, payload) = r.next_packet().unwrap().unwrap();
                black_box(Search::parse(&payload).unwrap())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Operations per `route_tables` iteration.
const ROUTE_OPS: usize = 100_000;
/// The servent's `seen` bound.
const SEEN_BOUND: usize = 16_384;

/// The `handle_query` duplicate check at a full `seen` table: each
/// arriving GUID is looked up and, when fresh, inserted. About 70 % of
/// arrivals repeat a GUID still in the table, the `lw_steady` duplicate
/// share.
fn bench_route_tables(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut recent: Vec<Guid> = (0..SEEN_BOUND).map(|_| Guid::random(&mut rng)).collect();
    let mut set = FifoSet::bounded(SEEN_BOUND);
    for &g in &recent {
        set.insert(g);
    }
    let arrivals: Vec<Guid> = (0..ROUTE_OPS)
        .map(|_| {
            if rng.gen_bool(0.7) {
                // A duplicate from the newer half of the window.
                recent[recent.len() - 1 - rng.gen_range(0..SEEN_BOUND / 2)]
            } else {
                let g = Guid::random(&mut rng);
                recent.push(g);
                g
            }
        })
        .collect();
    let mut g = c.benchmark_group("route_tables");
    g.sample_size(perf_samples());
    g.throughput(Throughput::Elements(ROUTE_OPS as u64));
    g.bench_function("seen_check_insert_70pct_dup", |b| {
        b.iter(|| {
            let mut fresh = 0u32;
            for guid in &arrivals {
                if !set.contains(guid) {
                    fresh += set.insert(*guid) as u32;
                }
            }
            black_box(fresh)
        });
    });
    g.finish();
}

/// A routed QUERYHIT is checked in place; only hits answering a servent's
/// own query are decoded into owned results.
fn bench_queryhit_validate_vs_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("queryhit_validate_vs_parse");
    g.sample_size(perf_samples());
    for results in [1, 32] {
        let payload = sample_hit_payload(results);
        g.throughput(Throughput::Bytes(payload.len() as u64));
        g.bench_function(&format!("validate_{results}_results"), |b| {
            b.iter(|| black_box(QueryHit::validate(black_box(&payload)).unwrap()));
        });
        g.bench_function(&format!("parse_{results}_results"), |b| {
            b.iter(|| black_box(QueryHit::parse(black_box(&payload)).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gnutella,
    bench_openft,
    bench_route_tables,
    bench_queryhit_validate_vs_parse
);
criterion_main!(benches);
