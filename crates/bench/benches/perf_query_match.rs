//! Perf: query matching — the tokenize-once + fingerprint fast-reject
//! pipeline vs the reference per-hop implementation it replaced
//! (re-tokenize the query, lowercase every filename, substring-scan every
//! term against every file).
//!
//! Two workloads:
//!
//! * **dense library** — one large share library against a query stream
//!   that mostly misses: the worst case the overlay hits when a query
//!   floods an ultrapeer's populated leaves, and the case the fingerprint
//!   reject is built for.
//! * **zipf catalog** — libraries and queries sampled from the same Zipf
//!   catalog the scenarios use, so hit rates and name shapes match the
//!   actual study workload.
//!
//! `P2PMAL_PERF_SMOKE=1` cuts sample counts for the CI smoke run; the
//! numbers it prints are not publication-grade.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use p2pmal_bench::perf_samples;
use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::library::{name_matches, query_terms};
use p2pmal_corpus::{CompiledQuery, HostLibrary, QueryCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The pre-overhaul match loop, kept verbatim as the comparison baseline:
/// tokenize the query at this hop, then lowercase-and-scan every file.
fn respond_reference(lib: &HostLibrary, query: &str, max: usize) -> usize {
    let terms = query_terms(query);
    if terms.is_empty() {
        return 0;
    }
    let mut hits = 0;
    for f in lib.files() {
        if name_matches(&f.name, &terms) {
            hits += 1;
            if hits >= max {
                break;
            }
        }
    }
    hits
}

fn catalog(titles: usize) -> Catalog {
    let mut rng = StdRng::seed_from_u64(42);
    Catalog::generate(
        &CatalogConfig {
            titles,
            ..Default::default()
        },
        &mut rng,
    )
}

fn library_from(catalog: &Catalog, files: usize, rng: &mut StdRng) -> HostLibrary {
    let mut lib = HostLibrary::new();
    let mut i = 0;
    while lib.len() < files && i < files * 10 {
        i += 1;
        let item = catalog.sample(rng);
        let variant = rng.gen_range(0..item.variants.len());
        lib.add_benign(item, variant);
    }
    lib
}

/// Dense worst case: one 1024-file library, 256 distinct queries that are
/// mostly misses (random keyword pairs drawn across the whole catalog).
fn bench_dense(c: &mut Criterion) {
    let cat = catalog(4000);
    let mut rng = StdRng::seed_from_u64(7);
    let lib = library_from(&cat, 1024, &mut rng);
    let queries: Vec<String> = (0..256)
        .map(|_| {
            let a = cat.sample_uniform(&mut rng).keywords[0].clone();
            let b = cat.sample_uniform(&mut rng).keywords[0].clone();
            format!("{a} {b}")
        })
        .collect();
    let work = (lib.len() * queries.len()) as u64;

    let mut g = c.benchmark_group("query_match_dense");
    g.sample_size(perf_samples());
    g.throughput(Throughput::Elements(work));
    g.bench_function("reference_retokenize", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                total += respond_reference(black_box(&lib), black_box(q), 64);
            }
            black_box(total)
        });
    });
    g.bench_function("compiled_fingerprint", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                let compiled = CompiledQuery::compile(black_box(q));
                total += lib.respond_compiled(&compiled, 64).len();
            }
            black_box(total)
        });
    });
    // The overlay shape: the same query text visits many libraries, so the
    // per-world cache amortizes even the one compile away.
    g.bench_function("cached_compiled_fingerprint", |b| {
        let cache = QueryCache::new();
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                let compiled = cache.compile(black_box(q));
                total += lib.respond_compiled(&compiled, 64).len();
            }
            black_box(total)
        });
    });
    g.finish();
}

/// Study-shaped workload: a population of scenario-sized libraries and a
/// Zipf query stream, i.e. the mix of hits and misses the simulator sees.
fn bench_zipf(c: &mut Criterion) {
    let cat = catalog(2500);
    let mut rng = StdRng::seed_from_u64(11);
    let libs: Vec<HostLibrary> = (0..64).map(|_| library_from(&cat, 34, &mut rng)).collect();
    let queries: Vec<String> = (0..512)
        .map(|_| {
            let item = cat.sample(&mut rng);
            item.keywords.join(" ")
        })
        .collect();
    let work = (libs.iter().map(HostLibrary::len).sum::<usize>() * queries.len()) as u64;

    let mut g = c.benchmark_group("query_match_zipf");
    g.sample_size(perf_samples());
    g.throughput(Throughput::Elements(work));
    g.bench_function("reference_retokenize", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                for lib in &libs {
                    total += respond_reference(black_box(lib), black_box(q), 64);
                }
            }
            black_box(total)
        });
    });
    g.bench_function("cached_compiled_fingerprint", |b| {
        let cache = QueryCache::new();
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                let compiled = cache.compile(black_box(q));
                for lib in &libs {
                    total += lib.respond_compiled(&compiled, 64).len();
                }
            }
            black_box(total)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_dense, bench_zipf);
criterion_main!(benches);
