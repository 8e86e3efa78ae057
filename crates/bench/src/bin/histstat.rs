//! `histstat` — run a traced `ANALYZE` over a synthetic Zipfian table,
//! dumping a JSONL event trace plus a human-readable summary; or, with
//! `--check`, validate an existing trace against the event schema (the
//! CI gate — no `jq`/python needed, the validator is the same parser
//! the `samplehist-obs` tests use).
//!
//! ```text
//! cargo run --release -p samplehist-bench --bin histstat -- --rows 200000 --mode adaptive
//! cargo run --release -p samplehist-bench --bin histstat -- --check trace.jsonl
//! ```

use std::io::{BufWriter, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_data::Zipf;
use samplehist_engine::{analyze_traced, AnalyzeMode, AnalyzeOptions, Table};
use samplehist_obs::json::{self, Json};
use samplehist_obs::{Event, JsonlSink, MemorySink, PromSink, Recorder, Value};
use samplehist_storage::Layout;

const USAGE: &str = "histstat — traced ANALYZE over a synthetic Zipfian table

USAGE:
    histstat [OPTIONS]
    histstat --check PATH

OPTIONS:
    --rows N        table size                       (default 200000)
    --buckets K     histogram buckets               (default 100)
    --z Z           Zipf skew parameter             (default 1.0)
    --mode MODE     full | row=RATE | block=RATE | adaptive[=F]
                                                    (default adaptive=0.1)
    --seed S        RNG seed                        (default 42)
    --out PATH      JSONL trace path                (default trace.jsonl)
    --prom PATH     also write Prometheus text exposition
    --check PATH    validate a JSONL trace and exit (CI mode)
    --help          this text
";

struct Args {
    rows: u64,
    buckets: usize,
    z: f64,
    mode: AnalyzeMode,
    seed: u64,
    out: String,
    prom: Option<String>,
    check: Option<String>,
}

fn parse_mode(s: &str) -> Result<AnalyzeMode, String> {
    let (kind, value) = match s.split_once('=') {
        Some((k, v)) => (k, Some(v)),
        None => (s, None),
    };
    let num = |v: Option<&str>, default: f64| -> Result<f64, String> {
        match v {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad number in --mode: {v:?}")),
        }
    };
    match kind {
        "full" => Ok(AnalyzeMode::FullScan),
        "row" => Ok(AnalyzeMode::RowSample { rate: num(value, 0.01)? }),
        "block" => Ok(AnalyzeMode::BlockSample { rate: num(value, 0.1)? }),
        "adaptive" => Ok(AnalyzeMode::Adaptive { target_f: num(value, 0.1)?, gamma: 0.01 }),
        other => Err(format!("unknown mode {other:?} (full|row=R|block=R|adaptive[=F])")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rows: 200_000,
        buckets: 100,
        z: 1.0,
        mode: AnalyzeMode::Adaptive { target_f: 0.1, gamma: 0.01 },
        seed: 42,
        out: "trace.jsonl".to_string(),
        prom: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--rows" => args.rows = value()?.parse().map_err(|e| format!("--rows: {e}"))?,
            "--buckets" => {
                args.buckets = value()?.parse().map_err(|e| format!("--buckets: {e}"))?
            }
            "--z" => args.z = value()?.parse().map_err(|e| format!("--z: {e}"))?,
            "--mode" => args.mode = parse_mode(&value()?)?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = value()?,
            "--prom" => args.prom = Some(value()?),
            "--check" => args.check = Some(value()?),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

// -- `--check`: schema validation of an existing trace ------------------

fn require_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing/non-integer {key:?}"))
}

fn require_str(obj: &Json, key: &str) -> Result<(), String> {
    obj.get(key).and_then(Json::as_str).map(|_| ()).ok_or_else(|| format!("missing {key:?}"))
}

/// Validate one parsed event line; `open` tracks span ids seen starting.
fn check_event(
    obj: &Json,
    open: &mut std::collections::HashSet<u64>,
) -> Result<&'static str, String> {
    let kind = obj.get("type").and_then(Json::as_str).ok_or("missing \"type\"")?;
    require_u64(obj, "t_us")?;
    match kind {
        "span_start" => {
            let id = require_u64(obj, "id")?;
            require_str(obj, "name")?;
            let parent = obj.get("parent").ok_or("missing \"parent\"")?;
            if !parent.is_null() && parent.as_u64().is_none() {
                return Err("\"parent\" must be an id or null".into());
            }
            if !open.insert(id) {
                return Err(format!("span id {id} started twice"));
            }
            Ok("span_start")
        }
        "span_end" => {
            let id = require_u64(obj, "id")?;
            require_str(obj, "name")?;
            require_u64(obj, "dur_ns")?;
            let Some(fields @ Json::Obj(_)) = obj.get("fields") else {
                return Err("\"fields\" must be an object".into());
            };
            // ANALYZE's sort and each CVB round's union sort say whether
            // they took the counting sort.
            if let Some(name @ ("analyze.sort" | "cvb.round")) =
                obj.get("name").and_then(Json::as_str)
            {
                if fields.get("counting").and_then(Json::as_bool).is_none() {
                    return Err(format!("{name} span without a boolean \"counting\" field"));
                }
            }
            if !open.remove(&id) {
                return Err(format!("span id {id} ended without starting"));
            }
            Ok("span_end")
        }
        "counter" => {
            require_str(obj, "name")?;
            require_u64(obj, "delta")?;
            Ok("counter")
        }
        "gauge" => {
            require_str(obj, "name")?;
            let v = obj.get("value").ok_or("missing \"value\"")?;
            if !v.is_null() && v.as_f64().is_none() {
                return Err("\"value\" must be a number or null".into());
            }
            Ok("gauge")
        }
        "timing" => {
            require_str(obj, "name")?;
            require_u64(obj, "nanos")?;
            Ok("timing")
        }
        "observation" => {
            require_str(obj, "name")?;
            require_str(obj, "label")?;
            let v = obj.get("value").ok_or("missing \"value\"")?;
            if !v.is_null() && v.as_f64().is_none() {
                return Err("\"value\" must be a number or null".into());
            }
            Ok("observation")
        }
        other => Err(format!("unknown event type {other:?}")),
    }
}

fn check_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut open = std::collections::HashSet::new();
    let mut counts = std::collections::BTreeMap::<&str, u64>::new();
    let mut total = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let kind =
            check_event(&obj, &mut open).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        *counts.entry(kind).or_insert(0) += 1;
        total += 1;
    }
    if total == 0 {
        return Err(format!("{path}: empty trace"));
    }
    if !open.is_empty() {
        return Err(format!("{path}: {} span(s) never ended", open.len()));
    }
    let breakdown: Vec<String> = counts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("{path}: OK — {total} events ({})", breakdown.join(", "));
    Ok(())
}

// -- traced run ---------------------------------------------------------

fn field<'a>(fields: &'a [(&'static str, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::I64(x) => x.to_string(),
        Value::U64(x) => x.to_string(),
        Value::F64(x) => format!("{x:.4}"),
        Value::Bool(x) => x.to_string(),
        Value::Str(s) => s.clone(),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mode_label = match args.mode {
        AnalyzeMode::FullScan => "full scan".to_string(),
        AnalyzeMode::RowSample { rate } => format!("row sample (rate={rate})"),
        AnalyzeMode::BlockSample { rate } => format!("block sample (rate={rate})"),
        AnalyzeMode::Adaptive { target_f, .. } => format!("adaptive CVB (f={target_f})"),
    };
    println!(
        "histstat: rows={} buckets={} z={} seed={} mode={mode_label}",
        args.rows, args.buckets, args.z, args.seed
    );

    // Synthesize the column and table. The RNG streams here run before
    // any recording starts, so the trace cannot perturb the data.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let domain = (args.rows as usize / 10).max(1);
    let values = Zipf::new(args.z, domain).materialize_sampled(args.rows, &mut rng);
    let table = Table::builder("zipf")
        .column_with_blocking("v", values, 100, Layout::Random, &mut rng)
        .build();

    let file = std::fs::File::create(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let jsonl = Arc::new(JsonlSink::new(BufWriter::new(file)));
    let prom = Arc::new(PromSink::new());
    let memory = Arc::new(MemorySink::new());
    let recorder = Recorder::with_sinks(vec![jsonl.clone(), prom.clone(), memory.clone()]);
    // Deep layers (radix routing, parallel primitives) report through the
    // process-global recorder; the pipeline entry point takes the handle
    // explicitly. Same recorder both ways — one coherent trace.
    samplehist_obs::set_global(recorder.clone());

    let options = AnalyzeOptions { buckets: args.buckets, mode: args.mode, compressed: false };
    let stats =
        analyze_traced(&table, "v", &options, &mut rng, &recorder).map_err(|e| e.to_string())?;
    recorder.flush();

    println!();
    println!("ANALYZE zipf(v): {}", stats.method);
    println!("  rows               {}", stats.num_rows);
    println!("  sample size        {}", stats.sample_size);
    println!("  sampling rate      {:.4}%", stats.sampling_rate() * 100.0);
    println!("  pages read         {}", stats.io.pages_read);
    println!("  tuples read        {}", stats.io.tuples_read);
    println!("  histogram buckets  {}", stats.histogram.num_buckets());
    println!("  distinct estimate  {:.0}", stats.distinct_estimate);
    println!("  density            {:.6}", stats.density);

    // Per-round CVB detail straight from the captured span events.
    let events = memory.events();
    let rounds: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnd { name: "cvb.round", fields, dur_ns, .. } => Some((fields, *dur_ns)),
            _ => None,
        })
        .collect();
    if !rounds.is_empty() {
        println!();
        println!("CVB rounds:");
        println!("  round   blocks(total)   r        counting  delta_hat   verdict     time");
        for (fields, dur_ns) in &rounds {
            let get = |k| field(fields, k).map(fmt_value).unwrap_or_else(|| "-".into());
            println!(
                "  {:<7} {:<15} {:<8} {:<9} {:<11} {:<11} {}",
                get("round"),
                get("total_blocks"),
                get("r"),
                get("counting"),
                get("delta_hat"),
                get("verdict"),
                fmt_ns(*dur_ns),
            );
        }
    }

    println!();
    println!("span durations (count, mean, max):");
    for (name, hist) in prom.span_durations() {
        println!(
            "  {name:<20} {:>5}  {:>9}  {:>9}",
            hist.count(),
            fmt_ns(hist.mean() as u64),
            fmt_ns(hist.max().unwrap_or(0)),
        );
    }
    let counters = prom.counters();
    if !counters.is_empty() {
        println!();
        println!("counters:");
        for (name, value) in counters {
            println!("  {name:<28} {value}");
        }
    }

    if let Some(path) = &args.prom {
        std::fs::write(path, prom.render()).map_err(|e| format!("{path}: {e}"))?;
        println!();
        println!("wrote {path}");
    }
    println!();
    println!("trace: {} ({} events)", args.out, events.len());
    // Belt and braces: the trace we just wrote must satisfy our own
    // schema check, so `histstat --check` in CI can never drift from it.
    let _ = std::io::stdout().flush();
    check_trace(&args.out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("histstat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match &args.check {
        Some(path) => check_trace(path),
        None => run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("histstat: {e}");
            ExitCode::FAILURE
        }
    }
}
