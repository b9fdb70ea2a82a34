//! Perf: QRP hashing, table matching, and the two halves of a table
//! transfer. `qrp_table_encode` builds the RESET + DEFLATE-compressed PATCH
//! payloads, paid once per servent; `qrp_patch_apply` parses and applies
//! them into a receiver's filter, paid by the ultrapeer on every leaf
//! connection. Each runs on a populated table and an echo worm's saturated
//! one.
//!
//! `P2PMAL_PERF_SMOKE=1` cuts sample counts for the CI smoke run; the
//! numbers it prints are not publication-grade.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pmal_bench::perf_samples;
use p2pmal_gnutella::qrp::{
    qrp_hash, QrpReceiver, QrpTable, RouteMsg, DEFAULT_INFINITY, DEFAULT_LOG2_SIZE,
};
use std::hint::black_box;

fn populated_table() -> QrpTable {
    let mut t = QrpTable::default_table();
    for i in 0..200 {
        t.insert_name(&format!("some_shared_file_number_{i}_final.mp3"));
    }
    t
}

/// The wire payloads a servent sends for `table` (its chunking and
/// compression).
fn encode(table: &QrpTable) -> Vec<Vec<u8>> {
    table
        .to_messages(2048, true)
        .iter()
        .map(RouteMsg::encode)
        .collect()
}

fn bench_qrp(c: &mut Criterion) {
    let table = populated_table();
    let mut g = c.benchmark_group("qrp");
    g.sample_size(perf_samples());
    g.bench_function("qrp_hash_word", |b| {
        b.iter(|| black_box(qrp_hash(black_box("horizon"), 16)));
    });
    g.bench_function("qrp_might_match_3_terms", |b| {
        b.iter(|| black_box(table.might_match(black_box("some shared file"))));
    });

    let saturated = QrpTable::saturated(DEFAULT_LOG2_SIZE, DEFAULT_INFINITY);
    for (label, t) in [("populated", &table), ("saturated", &saturated)] {
        g.bench_function(&format!("qrp_table_encode_{label}"), |b| {
            b.iter(|| black_box(encode(black_box(t))));
        });
        let payloads = encode(t);
        g.bench_function(&format!("qrp_patch_apply_{label}"), |b| {
            b.iter(|| {
                let mut rx = QrpReceiver::new();
                for p in &payloads {
                    rx.apply(&RouteMsg::parse(black_box(p)).unwrap()).unwrap();
                }
                black_box(rx.filter().unwrap().population())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_qrp);
criterion_main!(benches);
