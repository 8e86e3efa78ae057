//! Before/after wall-clock of the histogram construction pipeline across
//! data shapes, written to `BENCH_pipeline.json` at the repo root.
//!
//! ```text
//! cargo run --release -p samplehist-bench --bin pipeline_bench
//! SAMPLEHIST_N=1000000 cargo run --release -p samplehist-bench --bin pipeline_bench
//! cargo run --release -p samplehist-bench --bin pipeline_bench -- --check BENCH_pipeline.json
//! cargo run --release -p samplehist-bench --bin pipeline_bench -- --compare BENCH_baseline.json
//! ```
//!
//! "Before" is the seed pipeline: clone + full `sort_unstable` +
//! `from_sorted`. "After" is the pipeline ANALYZE runs: clone +
//! `from_unsorted_in_place`, which sorts with `histogram::sort_values`
//! (a counting sort when the span is at most `8n`) and then calls
//! `from_sorted` (the `sort_values` rows). Every timed call is asserted
//! byte-identical to the sort-path reference. A last section times the
//! frequency-profile tally of the sorted duplicate-heavy column (one
//! serial pass; it has no thread budget). Each repetition runs
//! enough calls to last [`MIN_REP`], so sub-millisecond rows are not
//! limited by the timer,
//! and the two routes alternate repetitions, so each
//! `speedup_vs_sort` ratio pairs neighbouring repetitions that saw the
//! same machine load.
//! `--check` validates an existing result file against the JSON schema
//! (the CI gate — same hand-rolled parser the trace validator uses);
//! `--compare` gates a fresh `BENCH_pipeline.json` against a blessed
//! baseline taken at the same `n`, `buckets` and `threads`, failing with
//! non-zero exit if any row's `speedup_vs_sort` regressed more than 25%.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use samplehist_core::distinct::FrequencyProfile;
use samplehist_core::histogram::EquiHeightHistogram;
use samplehist_data::DataSpec;
use samplehist_obs::json::{self, Json};
use samplehist_parallel as parallel;

/// Paper-scale default (Section 7 used N = 10,000,000).
const DEFAULT_N: usize = 10_000_000;
/// One 8 KB page of integer separators (Section 7.1).
const BUCKETS: usize = 600;
/// Timed repetitions per route: a row reports the fastest as `seconds`
/// and the median of the per-repetition sort/route ratios as
/// `speedup_vs_sort`.
const REPS: usize = 5;
/// Shortest repetition: calls faster than this are repeated within a
/// repetition until it lasts this long.
const MIN_REP: Duration = Duration::from_millis(10);
/// Output / `--check` default path.
const OUT_PATH: &str = "BENCH_pipeline.json";

/// Duplicate-heavy uniform: ~10 copies per distinct value on average, the
/// regime where both bucket counting and profiling do real work.
fn uniform_dup(n: usize, seed: u64) -> Vec<i64> {
    let domain = (n as i64 / 10).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// Shuffled Zipf(z = 1): a few heavy values over a long light tail.
/// `materialize_exact` emits values grouped and ascending; shuffle so the
/// unsorted paths don't hand pdqsort a pre-sorted run.
fn zipf_shuffled(n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut values =
        DataSpec::Zipf { z: 1.0, domain: (n / 10).max(1000) }.generate(n as u64, &mut rng).values;
    values.shuffle(&mut rng);
    values
}

/// Wall-clock seconds per call of each route, one entry per each of
/// [`REPS`] repetitions. A repetition runs as many calls as one untimed
/// warm-up call says fill [`MIN_REP`], and the routes take turns
/// repetition by repetition. Every result, warm-up included, goes to
/// `check` (with its route's index) outside the timed region.
fn time_routes<R>(
    routes: &mut [&mut dyn FnMut() -> R],
    mut check: impl FnMut(usize, R),
) -> Vec<Vec<f64>> {
    let calls: Vec<usize> = routes
        .iter_mut()
        .enumerate()
        .map(|(i, f)| {
            let t = Instant::now();
            let warm = f();
            let once = t.elapsed().as_secs_f64();
            check(i, warm);
            (MIN_REP.as_secs_f64() / once.max(1e-9)).ceil().max(1.0) as usize
        })
        .collect();
    let mut reps = vec![Vec::with_capacity(REPS); routes.len()];
    for _ in 0..REPS {
        for (i, f) in routes.iter_mut().enumerate() {
            let mut results = Vec::with_capacity(calls[i]);
            let t = Instant::now();
            for _ in 0..calls[i] {
                results.push(f());
            }
            reps[i].push(t.elapsed().as_secs_f64() / calls[i] as f64);
            results.into_iter().for_each(|r| check(i, r));
        }
    }
    reps
}

/// Smallest entry of `xs`.
fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of the element-wise ratios `a[i] / b[i]`.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let mut r: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    r.sort_by(f64::total_cmp);
    r[r.len() / 2]
}

/// One measurement row of the output file (every row is an
/// equi-height construction).
struct Row {
    distribution: &'static str,
    route: &'static str,
    seconds: f64,
    speedup_vs_sort: f64,
}

/// Equi-height sort vs sort_values rows for one data shape. Both routes
/// copy the column first, as a caller that keeps it must.
fn bench_distribution(name: &'static str, values: &[i64]) -> Vec<Row> {
    let mut sort = || {
        let mut v = values.to_vec();
        v.sort_unstable();
        EquiHeightHistogram::from_sorted(&v, BUCKETS)
    };
    let reference = sort();
    let mut sort_values = || {
        let mut v = values.to_vec();
        EquiHeightHistogram::from_unsorted_in_place(&mut v, BUCKETS)
    };
    let routes = ["sort", "sort_values"];
    let times = time_routes(&mut [&mut sort, &mut sort_values], |i, h| {
        assert_eq!(
            h, reference,
            "{name}: {} route must be byte-identical to the sort path",
            routes[i]
        )
    });
    let (sort_s, sort_values_s) = (min(&times[0]), min(&times[1]));
    let speedup = median_ratio(&times[0], &times[1]);
    println!(
        "{name}: equi_height sort_values {:.3} ms vs sort {:.3} ms  (median {:.2}x)",
        sort_values_s * 1e3,
        sort_s * 1e3,
        speedup
    );
    vec![
        Row { distribution: name, route: "sort", seconds: sort_s, speedup_vs_sort: 1.0 },
        Row {
            distribution: name,
            route: "sort_values",
            seconds: sort_values_s,
            speedup_vs_sort: speedup,
        },
    ]
}

// -- `--check`: schema validation of a result file ----------------------

fn require_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing/non-integer {key:?}"))
}

fn require_positive_f64(obj: &Json, key: &str) -> Result<f64, String> {
    match obj.get(key).and_then(Json::as_f64) {
        Some(v) if v > 0.0 => Ok(v),
        Some(v) => Err(format!("{key:?} must be > 0, got {v}")),
        None => Err(format!("missing/non-numeric {key:?}")),
    }
}

fn require_str_in(obj: &Json, key: &str, allowed: &[&str]) -> Result<(), String> {
    match obj.get(key).and_then(Json::as_str) {
        Some(s) if allowed.contains(&s) => Ok(()),
        Some(s) => Err(format!("{key:?} = {s:?} not in {allowed:?}")),
        None => Err(format!("missing {key:?}")),
    }
}

fn check_row(row: &Json) -> Result<(), String> {
    require_str_in(row, "distribution", &["uniform_dup", "zipf_shuffled"])?;
    require_str_in(row, "kind", &["equi_height"])?;
    require_str_in(row, "route", &["sort", "sort_values"])?;
    require_positive_f64(row, "seconds")?;
    require_positive_f64(row, "speedup_vs_sort")?;
    Ok(())
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let obj = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for key in ["n", "buckets", "detected_cores", "threads", "reps"] {
        if require_u64(&obj, key)? == 0 {
            return Err(format!("{key:?} must be >= 1"));
        }
    }
    match obj.get("clone_seconds").and_then(Json::as_f64) {
        Some(v) if v >= 0.0 => {}
        _ => return Err("missing/negative \"clone_seconds\"".into()),
    }
    let rows = match obj.get("rows") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows,
        Some(Json::Arr(_)) => return Err("\"rows\" is empty".into()),
        _ => return Err("missing \"rows\" array".into()),
    };
    for (i, row) in rows.iter().enumerate() {
        check_row(row).map_err(|e| format!("rows[{i}]: {e}"))?;
    }
    let prof = obj.get("frequency_profile").ok_or("missing \"frequency_profile\" section")?;
    require_positive_f64(prof, "seconds")?;
    println!("{path}: OK — {} rows", rows.len());
    Ok(())
}

// -- `--compare`: the CI regression gate --------------------------------

/// A row regresses when its `speedup_vs_sort` drops below the
/// baseline's divided by this factor (>25% slower than it was when the
/// baseline was blessed). Speedups, not raw seconds, so the gate is
/// portable across runner hardware: both numbers are ratios against the
/// same machine's own sort path.
const REGRESSION_FACTOR: f64 = 1.25;

/// Measurement identity within a bench file: (distribution, kind, route).
type RouteKey = (String, String, String);

/// Per-measurement speedups keyed by (distribution, kind, route).
fn speedup_index(obj: &Json) -> Result<Vec<(RouteKey, f64)>, String> {
    let rows = match obj.get("rows") {
        Some(Json::Arr(rows)) => rows,
        _ => return Err("missing \"rows\" array".into()),
    };
    rows.iter()
        .map(|row| {
            let field = |key: &str| {
                row.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("missing {key:?}"))
            };
            let key = (field("distribution")?, field("kind")?, field("route")?);
            let speedup = require_positive_f64(row, "speedup_vs_sort")?;
            Ok((key, speedup))
        })
        .collect()
}

fn compare_files(baseline_path: &str, current_path: &str) -> Result<(), String> {
    check_file(baseline_path).map_err(|e| format!("baseline: {e}"))?;
    check_file(current_path).map_err(|e| format!("current: {e}"))?;
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline_obj, current_obj) = (load(baseline_path)?, load(current_path)?);
    // Speedups move with input size, bucket count and thread budget, so
    // only runs that agree on all three are comparable.
    for key in ["n", "buckets", "threads"] {
        let (base, cur) = (require_u64(&baseline_obj, key)?, require_u64(&current_obj, key)?);
        if base != cur {
            return Err(format!(
                "{key:?} differs: baseline {base}, current {cur} — rerun the bench to match"
            ));
        }
    }
    let baseline = speedup_index(&baseline_obj)?;
    let current = speedup_index(&current_obj)?;

    let mut regressions = 0usize;
    for ((dist, kind, route), base) in &baseline {
        let key = format!("{dist}/{kind}/{route}");
        let Some((_, cur)) =
            current.iter().find(|((d, k, r), _)| (d, k, r) == (&dist.to_string(), kind, route))
        else {
            // A vanished measurement is a silent hole in coverage, not a
            // pass.
            eprintln!("REGRESSION {key}: present in baseline, missing from current run");
            regressions += 1;
            continue;
        };
        let floor = base / REGRESSION_FACTOR;
        if *cur < floor {
            eprintln!(
                "REGRESSION {key}: speedup_vs_sort {cur:.3} < {floor:.3} \
                 (baseline {base:.3} / {REGRESSION_FACTOR})"
            );
            regressions += 1;
        } else {
            println!("ok {key}: speedup_vs_sort {cur:.3} (baseline {base:.3})");
        }
    }
    if regressions > 0 {
        return Err(format!("{regressions} measurement(s) regressed >25% vs {baseline_path}"));
    }
    println!("compare: {} measurements within 25% of {baseline_path}", baseline.len());
    Ok(())
}

// -- argument parsing ---------------------------------------------------

struct Args {
    check: Option<String>,
    compare: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { check: None, compare: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {
                args.check = Some(it.next().unwrap_or_else(|| OUT_PATH.to_string()));
            }
            "--compare" => {
                args.compare = Some(it.next().ok_or("--compare needs a baseline path")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            eprintln!("usage: pipeline_bench [--check [PATH]] [--compare BASELINE]");
            return ExitCode::FAILURE;
        }
    };
    if let Some(baseline) = args.compare {
        // Gate the current result file (fresh from a bench run) against a
        // blessed baseline; non-zero exit on any >25% regression.
        return match compare_files(&baseline, OUT_PATH) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pipeline_bench --compare failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(path) = args.check {
        return match check_file(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pipeline_bench --check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let n: usize =
        std::env::var("SAMPLEHIST_N").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_N);
    let threads = parallel::num_threads();
    // Run metadata: numbers from this harness are only comparable across
    // machines with the hardware context attached.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "pipeline bench: n = {n}, k = {BUCKETS}, threads = {threads}/{cores} cores, reps = {REPS}"
    );

    let uniform = uniform_dup(n, 0x5A17);
    let zipf = zipf_shuffled(n);

    let mut rows = bench_distribution("uniform_dup", &uniform);
    rows.extend(bench_distribution("zipf_shuffled", &zipf));

    // The clone is shared overhead of every equi-height measurement
    // (each timed run copies the input first and drops the copy); report
    // it so the construction-only speedup can be separated out.
    let clone_s = min(&time_routes(
        &mut [&mut || {
            std::hint::black_box(uniform.clone());
        }],
        |_, ()| {},
    )[0]);

    // -- Frequency profile: the run tally of the sorted column.
    let mut sorted = uniform;
    sorted.sort_unstable();
    let reference = FrequencyProfile::from_sorted_sample(&sorted);
    let profile_s =
        min(&time_routes(&mut [&mut || FrequencyProfile::from_sorted_sample(&sorted)], |_, p| {
            assert_eq!(p, reference, "the profile must repeat exactly")
        })[0]);
    println!("frequency profile ({n} values): {:.3} ms", profile_s * 1e3);

    let mut row_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        row_json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"distribution\": \"{dist}\",\n",
                "      \"kind\": \"equi_height\",\n",
                "      \"route\": \"{route}\",\n",
                "      \"seconds\": {secs:.6},\n",
                "      \"speedup_vs_sort\": {speedup:.3}\n",
                "    }}{comma}\n",
            ),
            dist = r.distribution,
            route = r.route,
            secs = r.seconds,
            speedup = r.speedup_vs_sort,
            comma = if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"n\": {n},\n",
            "  \"buckets\": {k},\n",
            "  \"detected_cores\": {cores},\n",
            "  \"threads\": {threads},\n",
            "  \"reps\": {reps},\n",
            "  \"clone_seconds\": {clone:.6},\n",
            "  \"rows\": [\n",
            "{rows}",
            "  ],\n",
            "  \"frequency_profile\": {{\n",
            "    \"seconds\": {profile:.6}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        k = BUCKETS,
        cores = cores,
        threads = threads,
        reps = REPS,
        clone = clone_s,
        rows = row_json,
        profile = profile_s,
    );
    std::fs::write(OUT_PATH, &json).expect("write BENCH_pipeline.json");
    println!("wrote {OUT_PATH}");
    // Self-validate so a schema drift fails right here, not in CI.
    match check_file(OUT_PATH) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipeline_bench: self-check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
