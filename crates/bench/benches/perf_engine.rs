//! Criterion micro-benchmarks: the engine layer — ANALYZE modes,
//! selectivity estimation, and join estimation — plus the statistics
//! service's warm read path (`service_read`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use samplehist_data::DataSpec;
use samplehist_engine::{
    analyze, estimate_cardinality, estimate_equijoin, AnalyzeMode, AnalyzeOptions, Predicate, Table,
};
use samplehist_service::{ServiceConfig, StatsService};
use samplehist_storage::Layout;

fn demo_table(n: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(11);
    let values = DataSpec::Zipf { z: 1.0, domain: (n / 10) as usize }.generate(n, &mut rng);
    Table::builder("t")
        .column_with_blocking("c", values.values, 128, Layout::Random, &mut rng)
        .build()
}

fn bench_analyze(c: &mut Criterion) {
    let table = demo_table(1_000_000);
    let mut group = c.benchmark_group("analyze_1M");
    for (name, opts) in [
        ("full_scan_k200", AnalyzeOptions::full_scan(200)),
        (
            "block_sample_1pct_k200",
            AnalyzeOptions {
                buckets: 200,
                mode: AnalyzeMode::BlockSample { rate: 0.01 },
                compressed: false,
            },
        ),
        (
            "adaptive_f02_k200",
            AnalyzeOptions {
                buckets: 200,
                mode: AnalyzeMode::Adaptive { target_f: 0.2, gamma: 0.05 },
                compressed: false,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(13);
            b.iter(|| analyze(&table, "c", &opts, &mut rng).expect("column exists"))
        });
    }
    group.finish();
}

fn bench_selectivity(c: &mut Criterion) {
    let table = demo_table(1_000_000);
    let mut rng = StdRng::seed_from_u64(17);
    let stats =
        analyze(&table, "c", &AnalyzeOptions::full_scan(200), &mut rng).expect("column exists");
    let preds: Vec<Predicate> =
        (0..100).map(|i| Predicate::Between { low: i * 37, high: i * 37 + 5_000 }).collect();
    c.bench_function("selectivity_100_predicates", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in &preds {
                acc += estimate_cardinality(&stats, p).rows;
            }
            acc
        })
    });
    c.bench_function("equijoin_estimate", |b| b.iter(|| estimate_equijoin(&stats, &stats)));
}

/// A warm service read: registered table, installed snapshot, no
/// refresh pending — the lookup, access bump, staleness check and
/// estimate that a served request pays.
fn bench_service_read(c: &mut Criterion) {
    let svc = StatsService::new(ServiceConfig {
        analyze: AnalyzeOptions::full_scan(200),
        ..ServiceConfig::deterministic(19)
    });
    svc.register_table(demo_table(200_000), None);
    svc.refresh_now("t", "c").expect("column exists");
    let pred = Predicate::Between { low: 1_000, high: 6_000 };
    let mut group = c.benchmark_group("service_read");
    group.bench_function("estimate_cardinality", |b| {
        b.iter(|| svc.estimate_cardinality("t", "c", &pred).expect("warm"))
    });
    group.bench_function("estimate_equijoin", |b| {
        b.iter(|| svc.estimate_equijoin("t", "c", "t", "c").expect("warm"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_analyze, bench_selectivity, bench_service_read
}
criterion_main!(benches);
