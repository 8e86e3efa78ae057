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
//! `from_sorted`. "After" is the shape-routed `from_unsorted_in_place`
//! (the `auto` rows: radix with skew-aware slice refinement whenever
//! `selection_profitable`, otherwise sort) plus the sort-free
//! `CompressedHistogram::from_unsorted`. Every timed repetition asserts
//! the candidate is byte-identical to the sort-path reference. `--check`
//! validates an existing result file against the JSON schema (the CI
//! gate — same hand-rolled parser the trace validator uses); `--compare`
//! gates a fresh `BENCH_pipeline.json` against a blessed baseline,
//! failing with non-zero exit if any row's `speedup_vs_sort` regressed
//! more than 25%.

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use samplehist_core::distinct::FrequencyProfile;
use samplehist_core::histogram::{selection_profitable, CompressedHistogram, EquiHeightHistogram};
use samplehist_data::DataSpec;
use samplehist_obs::json::{self, Json};
use samplehist_parallel as parallel;

/// Paper-scale default (Section 7 used N = 10,000,000).
const DEFAULT_N: usize = 10_000_000;
/// One 8 KB page of integer separators (Section 7.1).
const BUCKETS: usize = 600;
/// Timed repetitions per measurement; the minimum is reported.
const REPS: usize = 3;
/// Output / `--check` default path.
const OUT_PATH: &str = "BENCH_pipeline.json";

/// Duplicate-heavy uniform: ~10 copies per distinct value on average, the
/// regime where both bucket counting and profiling do real work.
fn uniform_dup(n: usize, seed: u64) -> Vec<i64> {
    let domain = (n as i64 / 10).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// Shuffled Zipf(z = 1): the skewed shape the radix refinement targets.
/// `materialize_exact` emits values grouped and ascending; shuffle so the
/// unsorted paths don't hand pdqsort a pre-sorted run.
fn zipf_shuffled(n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut values =
        DataSpec::Zipf { z: 1.0, domain: (n / 10).max(1000) }.generate(n as u64, &mut rng).values;
    values.shuffle(&mut rng);
    values
}

/// Minimum wall-clock seconds of `f` over [`REPS`] runs.
fn time_min<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

/// One measurement row of the output file.
struct Row {
    distribution: &'static str,
    kind: &'static str,
    route: &'static str,
    seconds: f64,
    speedup_vs_sort: f64,
}

/// Equi-height sort vs auto rows plus the compressed sort vs sort-free
/// pair, for one data shape.
fn bench_distribution(name: &'static str, values: &[i64]) -> Vec<Row> {
    let mut rows = Vec::new();
    let (sort_s, reference) = time_min(|| {
        let mut v = values.to_vec();
        v.sort_unstable();
        EquiHeightHistogram::from_sorted(&v, BUCKETS)
    });
    rows.push(Row {
        distribution: name,
        kind: "equi_height",
        route: "sort",
        seconds: sort_s,
        speedup_vs_sort: 1.0,
    });
    // The sort path rearranges its input, so a caller keeping the column
    // pays a defensive copy — timed, like the baseline's. The radix path
    // only reads it: no copy to pay.
    let mutates = !selection_profitable(values.len(), BUCKETS);
    let mut keep = if mutates { Vec::new() } else { values.to_vec() };
    let (auto_s, candidate) = time_min(|| {
        if mutates {
            let mut v = values.to_vec();
            EquiHeightHistogram::from_unsorted_in_place(&mut v, BUCKETS)
        } else {
            EquiHeightHistogram::from_unsorted_in_place(&mut keep, BUCKETS)
        }
    });
    assert_eq!(candidate, reference, "{name}: auto route must be byte-identical to the sort path");
    rows.push(Row {
        distribution: name,
        kind: "equi_height",
        route: "auto",
        seconds: auto_s,
        speedup_vs_sort: sort_s / auto_s,
    });
    println!(
        "{name}: equi_height auto {auto_s:.3}s vs sort {sort_s:.3}s  ({:.2}x)",
        sort_s / auto_s
    );

    // Compressed: seed path (clone + sort + from_sorted) vs the sort-free
    // rank-probing path, which never needs a mutable copy at all.
    let (csort_s, creference) = time_min(|| {
        let mut v = values.to_vec();
        v.sort_unstable();
        CompressedHistogram::from_sorted(&v, BUCKETS)
    });
    let (cfree_s, ccandidate) = time_min(|| CompressedHistogram::from_unsorted(values, BUCKETS));
    assert_eq!(ccandidate, creference, "{name}: sort-free compressed must match the sort path");
    rows.push(Row {
        distribution: name,
        kind: "compressed",
        route: "sort",
        seconds: csort_s,
        speedup_vs_sort: 1.0,
    });
    rows.push(Row {
        distribution: name,
        kind: "compressed",
        route: "sortfree",
        seconds: cfree_s,
        speedup_vs_sort: csort_s / cfree_s,
    });
    println!(
        "{name}: compressed sortfree {cfree_s:.3}s vs sort {csort_s:.3}s  ({:.2}x)",
        csort_s / cfree_s
    );

    rows
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
    require_str_in(row, "kind", &["equi_height", "compressed"])?;
    require_str_in(row, "route", &["auto", "sort", "sortfree"])?;
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
    require_str_in(&obj, "auto_route", &["sort", "radix"])?;
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
    let sort = obj.get("sort").ok_or("missing \"sort\" section")?;
    require_positive_f64(sort, "serial_seconds")?;
    require_positive_f64(sort, "parallel_seconds")?;
    let prof = obj.get("frequency_profile").ok_or("missing \"frequency_profile\" section")?;
    require_positive_f64(prof, "serial_seconds")?;
    require_positive_f64(prof, "parallel_seconds")?;
    require_positive_f64(prof, "unsorted_hashed_seconds")?;
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
    let baseline = speedup_index(&load(baseline_path)?)?;
    let current = speedup_index(&load(current_path)?)?;

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
    // machines with the hardware context attached (a 1-core container
    // legitimately reports parallel == serial).
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let auto_route = if selection_profitable(n, BUCKETS) { "radix" } else { "sort" };
    println!(
        "pipeline bench: n = {n}, k = {BUCKETS}, threads = {threads}/{cores} cores, \
         auto route = {auto_route}, reps = {REPS}"
    );

    let uniform = uniform_dup(n, 0x5A17);
    let zipf = zipf_shuffled(n);

    let mut rows = bench_distribution("uniform_dup", &uniform);
    rows.extend(bench_distribution("zipf_shuffled", &zipf));

    // The clone is shared overhead of every equi-height measurement
    // (each timed run copies the input first); report it so the
    // construction-only speedup can be separated out.
    let (clone_s, _) = time_min(|| uniform.clone());

    // -- Sorting: serial vs parallel (equal by construction; identical on
    //    a single-core box).
    let (serial_sort_s, a) = time_min(|| {
        let mut v = uniform.clone();
        parallel::par_sort_unstable_threads(1, &mut v);
        v
    });
    let (par_sort_s, b) = time_min(|| {
        let mut v = uniform.clone();
        parallel::par_sort_unstable(&mut v);
        v
    });
    assert_eq!(a, b, "parallel sort must agree with serial sort");
    println!("sort: serial {serial_sort_s:.3}s vs {threads}-thread {par_sort_s:.3}s");

    // -- Frequency profile: serial vs parallel over the sorted column,
    //    plus the hashed profile that skips the sort entirely.
    let sorted = b;
    let (serial_prof_s, p1) = time_min(|| FrequencyProfile::from_sorted_sample_threads(1, &sorted));
    let (par_prof_s, p2) = time_min(|| FrequencyProfile::from_sorted_sample(&sorted));
    let (unsorted_prof_s, p3) = time_min(|| FrequencyProfile::from_unsorted_sample(&uniform));
    assert_eq!(p1, p2, "parallel profile must be bit-identical to serial");
    assert_eq!(p1, p3, "hashed unsorted profile must be bit-identical to sorted");
    println!(
        "frequency profile: serial {serial_prof_s:.3}s vs {threads}-thread {par_prof_s:.3}s \
         vs unsorted hashed {unsorted_prof_s:.3}s"
    );

    let mut row_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        row_json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"distribution\": \"{dist}\",\n",
                "      \"kind\": \"{kind}\",\n",
                "      \"route\": \"{route}\",\n",
                "      \"seconds\": {secs:.6},\n",
                "      \"speedup_vs_sort\": {speedup:.3}\n",
                "    }}{comma}\n",
            ),
            dist = r.distribution,
            kind = r.kind,
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
            "  \"auto_route\": \"{auto_route}\",\n",
            "  \"clone_seconds\": {clone:.6},\n",
            "  \"rows\": [\n",
            "{rows}",
            "  ],\n",
            "  \"sort\": {{\n",
            "    \"serial_seconds\": {ss:.6},\n",
            "    \"parallel_seconds\": {ps:.6}\n",
            "  }},\n",
            "  \"frequency_profile\": {{\n",
            "    \"serial_seconds\": {sp:.6},\n",
            "    \"parallel_seconds\": {pp:.6},\n",
            "    \"unsorted_hashed_seconds\": {up:.6}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        k = BUCKETS,
        cores = cores,
        threads = threads,
        reps = REPS,
        auto_route = auto_route,
        clone = clone_s,
        rows = row_json,
        ss = serial_sort_s,
        ps = par_sort_s,
        sp = serial_prof_s,
        pp = par_prof_s,
        up = unsorted_prof_s,
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
