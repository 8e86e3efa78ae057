//! Criterion micro-benchmarks: histogram construction and range-query
//! estimation throughput. These back the repo's performance claims; the
//! paper's own figures are regenerated by the `figures/` bench targets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use samplehist_core::histogram::{
    bucket_counts, BucketIndex, CompressedHistogram, EquiHeightHistogram,
};
use samplehist_data::DataSpec;

fn unsorted_zipf(n: u64) -> Vec<i64> {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(1);
    let mut values =
        DataSpec::Zipf { z: 1.0, domain: (n / 10).max(1000) as usize }.generate(n, &mut rng).values;
    // `materialize_exact` emits values grouped and ascending; shuffle so
    // the "unsorted" paths don't hand pdqsort a pre-sorted run.
    values.shuffle(&mut rng);
    values
}

fn sorted_zipf(n: u64) -> Vec<i64> {
    let mut v = unsorted_zipf(n);
    v.sort_unstable();
    v
}

/// `sort_unstable` then `from_sorted` against `from_unsorted`
/// (`sort_values` then `from_sorted`), the pair this repo's
/// `BENCH_pipeline.json` tracks. Every measured path starts from the
/// same unsorted clone so the comparison is apples-to-apples.
fn bench_construction_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction_path");
    group.sample_size(10);
    for n in [100_000u64, 1_000_000, 10_000_000] {
        let data = unsorted_zipf(n);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("clone_baseline", n), &data, |b, d| {
            b.iter(|| d.clone())
        });
        group.bench_with_input(BenchmarkId::new("sort_then_build_k600", n), &data, |b, d| {
            b.iter(|| {
                let mut v = d.clone();
                v.sort_unstable();
                EquiHeightHistogram::from_sorted(&v, 600)
            })
        });
        group.bench_with_input(BenchmarkId::new("from_unsorted_k600", n), &data, |b, d| {
            b.iter(|| EquiHeightHistogram::from_unsorted(d.clone(), 600))
        });
    }
    group.finish();
}

/// The frequency-profile tally over a sorted column.
fn bench_frequency_profile(c: &mut Criterion) {
    use samplehist_core::distinct::FrequencyProfile;

    let mut group = c.benchmark_group("frequency_profile");
    for n in [1_000_000u64, 10_000_000] {
        let data = sorted_zipf(n);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("tally", n), &data, |b, d| {
            b.iter(|| FrequencyProfile::from_sorted_sample(d))
        });
    }
    group.finish();
}

/// `sort_values` against `sort_unstable` on a fresh copy per call. A
/// shuffled permutation of `0..n` (every value distinct, span n: the
/// count pass is bound by cache misses on the byte array), a shuffled
/// permutation of multiples of 8 (span 8n, the widest that still counts)
/// and shuffled Zipf(1) take the counting sort; a 2^40-wide column falls
/// back to `sort_unstable`, so its row measures what the min/max pass
/// costs.
fn bench_sort_values(c: &mut Criterion) {
    use rand::seq::SliceRandom;
    use rand::Rng;
    use samplehist_core::histogram::sort_values;

    let mut group = c.benchmark_group("sort_values");
    group.sample_size(10);
    for n in [200_000u64, 2_000_000] {
        let mut rng = StdRng::seed_from_u64(9);
        let mut permutation: Vec<i64> = (0..n as i64).collect();
        permutation.shuffle(&mut rng);
        let spread: Vec<i64> = permutation.iter().map(|v| 8 * v).collect();
        let wide: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1i64 << 40)).collect();
        group.throughput(Throughput::Elements(n));
        let shapes = [
            ("permutation", permutation),
            ("spread", spread),
            ("zipf", unsorted_zipf(n)),
            ("wide", wide),
        ];
        for (shape, data) in shapes {
            group.bench_with_input(
                BenchmarkId::new(format!("{shape}/sort_values"), n),
                &data,
                |b, d| {
                    b.iter(|| {
                        let mut v = d.clone();
                        sort_values(&mut v);
                        v
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{shape}/sort_unstable"), n),
                &data,
                |b, d| {
                    b.iter(|| {
                        let mut v = d.clone();
                        v.sort_unstable();
                        v
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_construction");
    for n in [100_000u64, 1_000_000] {
        let data = sorted_zipf(n);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("perfect_k600", n), &data, |b, d| {
            b.iter(|| EquiHeightHistogram::from_sorted(d, 600))
        });
        group.bench_with_input(BenchmarkId::new("compressed_k600", n), &data, |b, d| {
            b.iter(|| CompressedHistogram::from_sorted(d, 600))
        });
        let sample = &data[..(n as usize / 100)];
        let mut sorted_sample = sample.to_vec();
        sorted_sample.sort_unstable();
        group.bench_with_input(
            BenchmarkId::new("from_1pct_sample_k600", n),
            &sorted_sample,
            |b, s| b.iter(|| EquiHeightHistogram::from_sorted_sample(s, 600, n)),
        );
    }
    group.finish();
}

fn bench_maintenance(c: &mut Criterion) {
    use samplehist_core::histogram::MaintainedHistogram;

    let data = sorted_zipf(1_000_000);
    let mut group = c.benchmark_group("maintenance");
    group.bench_function("maintained_insert_10k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut m = MaintainedHistogram::new(100, 5_000, 0.3, &data[..1_000], &mut rng);
            for &v in &data[1_000..11_000] {
                m.insert(v, &mut rng);
            }
            m.total()
        })
    });
    group.finish();
}

fn bench_recount_and_estimate(c: &mut Criterion) {
    let n = 1_000_000u64;
    let data = sorted_zipf(n);
    let hist = EquiHeightHistogram::from_sorted(&data, 600);

    let mut group = c.benchmark_group("histogram_use");
    group.bench_function("bucket_counts_1M_k600", |b| {
        b.iter(|| bucket_counts(&data, hist.separators()))
    });
    let estimator = BucketIndex::new(&hist);
    let queries: Vec<(i64, i64)> = (0..1000)
        .map(|i| {
            let x = (i * 977) % 100_000;
            (x, x + 5_000)
        })
        .collect();
    group.bench_function("range_estimate_1k_queries", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(x, y) in &queries {
                acc += estimator.estimate_range(x, y);
            }
            acc
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_construction, bench_construction_paths, bench_frequency_profile, bench_sort_values,
        bench_maintenance, bench_recount_and_estimate
}
criterion_main!(benches);
