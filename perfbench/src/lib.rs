//! The repository benchmark: three workloads over the public APIs of
//! the storage, core, engine and service crates, each printing every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) as the last line of its output.
//!
//! A run measures its own workload for half of `--seconds` and each of
//! the other two for a quarter, in slices interleaved over the whole
//! run, so every run prints all end-to-end metrics and its own
//! workload's are the most precise. A traced run splits each slice into
//! an untraced and a traced half; the traced half times the benchmark's
//! calls into each layer on the workload's own inputs. Timed metrics
//! other than the wire latencies are reported at reference speed (see
//! [`calib`]). See `README.md` for the workloads and metrics.

pub mod analyze;
pub mod calib;
pub mod churn;
pub mod util;
pub mod wire;

use util::{peak_rss_mb, put, Deadline, Ledger, Metrics};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ANALYZE three 2M-row columns by CVB and by full scan.
    Analyze,
    /// Closed-loop estimates over the wire to a warm 4-tenant registry.
    WireServe,
    /// Reads beside drift reloads and the refresh ladder.
    Churn,
}

impl Workload {
    /// Every workload, in the order phases run after the primary one.
    pub const ALL: [Workload; 3] = [Workload::Analyze, Workload::WireServe, Workload::Churn];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Analyze => "analyze",
            Workload::WireServe => "wire-serve",
            Workload::Churn => "churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Data sizes and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of each analyzed column.
    pub analyze_rows: u64,
    /// Rows of each served column.
    pub wire_rows: u64,
    /// Rows of the churned tables.
    pub churn_rows: u64,
    /// CVB calls per column for the deterministic analyze metrics.
    pub accuracy_calls: u64,
    /// Drift rounds `served_qerror_p95` is measured over.
    pub qerror_rounds: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        analyze_rows: 2_000_000,
        wire_rows: 200_000,
        churn_rows: 500_000,
        accuracy_calls: 25,
        qerror_rounds: 32,
        setups: 3,
    };

    /// Small sizes for the smoke test.
    pub const SMOKE: Scale = Scale {
        analyze_rows: 20_000,
        wire_rows: 5_000,
        churn_rows: 20_000,
        accuracy_calls: 2,
        qerror_rounds: 2,
        setups: 1,
    };
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The primary workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds, split over the phases.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics.
    pub trace: bool,
    /// Data sizes.
    pub scale: Scale,
}

/// The end-to-end metrics with their units.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("analyze_cvb_rows_per_s", "rows/s"),
    ("analyze_scan_rows_per_s", "rows/s"),
    ("analyze_sample_fraction", "ratio"),
    ("analyze_max_error_f", "ratio"),
    ("wire_p50_us", "us"),
    ("wire_p90_us", "us"),
    ("read_p50_ns", "ns"),
    ("read_p90_ns", "ns"),
    ("refresh_ms_p50", "ms"),
    ("served_qerror_p95", "ratio"),
];

/// The end-to-end metrics whose traced-minus-untraced difference a
/// traced run reports as `overhead.<name>`. Set-up is never traced; the
/// deterministic metrics are identical by construction (a traced run
/// re-checks the analyze ones); and one process has one peak RSS, which
/// interleaved halves cannot split.
const OVERHEAD: [&str; 7] = [
    "analyze_cvb_rows_per_s",
    "analyze_scan_rows_per_s",
    "wire_p50_us",
    "wire_p90_us",
    "read_p50_ns",
    "read_p90_ns",
    "refresh_ms_p50",
];

/// The per-layer metrics with their units.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("storage.scan_ms", "ms"),
    ("storage.pages_read", "count"),
    ("storage.tuples_read", "count"),
    ("cvb.run_ms", "ms"),
    ("cvb.rounds", "count"),
    ("cvb.oversampling", "ratio"),
    ("histogram.build_ms", "ms"),
    ("histogram.compressed_build_ms", "ms"),
    ("histogram.sample_build_ms", "ms"),
    ("distinct.profile_ms", "ms"),
    ("distinct.sample_profile_ms", "ms"),
    ("distinct.gee_ms", "ms"),
    ("distinct.gee_ratio_error", "ratio"),
    ("analyze.cvb_residual_ms", "ms"),
    ("analyze.scan_residual_ms", "ms"),
    ("analyze.residual_ms", "ms"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("server.dispatch_ns", "ns"),
    ("server.coalesce_width", "count"),
    ("server.residual_us_p50", "us"),
    ("server.residual_us_p90", "us"),
    ("tenant.get_ns", "ns"),
    ("service.batch_ns_per_pred", "ns"),
    ("selectivity.batch_ns_per_pred", "ns"),
    ("index.ns_per_probe", "ns"),
    ("server.calls_per_s", "1/s"),
    ("wire_p99_us", "us"),
    ("wire_p999_us", "us"),
    ("read_p99_ns", "ns"),
    ("service.estimate_ns", "ns"),
    ("catalog.get_ns", "ns"),
    ("selectivity.ns", "ns"),
    ("read.residual_ns", "ns"),
    ("refresh.probe_ms", "ms"),
    ("refresh.probe_tuples", "count"),
    ("refresh.patch_ms", "ms"),
    ("refresh.full_ms", "ms"),
    ("catalog.install_us", "us"),
    ("refresh.wait_ms", "ms"),
    ("refresh.probes", "count"),
    ("refresh.probe_passes", "count"),
    ("refresh.patches", "count"),
    ("refresh.patch_rejects", "count"),
    ("refresh.full_reanalyzes", "count"),
    ("refresh.failed", "count"),
    ("refresh.rejected", "count"),
    ("refresh.patch_rate", "ratio"),
    ("service.stale_hit_rate", "ratio"),
    ("accuracy.breaches", "count"),
    ("overhead.analyze_cvb_rows_per_s", "rows/s"),
    ("overhead.analyze_scan_rows_per_s", "rows/s"),
    ("overhead.wire_p50_us", "us"),
    ("overhead.wire_p90_us", "us"),
    ("overhead.read_p50_ns", "ns"),
    ("overhead.read_p90_ns", "ns"),
    ("overhead.refresh_ms_p50", "ms"),
    ("machine.ref_rep_us", "us"),
    ("machine.handoff_us", "us"),
];

/// Correctness checks every run must exercise at least once.
pub const REQUIRED_CHECKS: [&str; 9] = [
    "histogram_total_equals_rows",
    "scan_histogram_exact",
    "scan_distinct_exact",
    "estimate_finite_nonnegative",
    "wire_response_width",
    "wire_identical_to_in_process",
    "drift_read_is_stale",
    "refresh_single_install",
    "deterministic_metrics_repeat",
];

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks and operation counts.
    pub ledger: Ledger,
    /// The metrics of the last line.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Every workload's data, built by one set-up.
struct Worlds {
    analyze: analyze::AnalyzeWorld,
    wire: wire::WireWorld,
    churn: churn::ChurnWorld,
}

impl Worlds {
    fn build(seed: u64, scale: &Scale) -> Self {
        Self {
            analyze: analyze::setup(seed, scale.analyze_rows),
            wire: wire::setup(seed, scale.wire_rows),
            churn: churn::setup(seed, scale.churn_rows),
        }
    }
}

/// Phase order and shares of the measured time: the primary workload
/// first with half, then the others with a quarter each.
fn phases(primary: Workload) -> Vec<(Workload, f64)> {
    let mut order = vec![(primary, 0.5)];
    order.extend(Workload::ALL.into_iter().filter(|w| *w != primary).map(|w| (w, 0.25)));
    order
}

/// Seconds of one pass over every phase. The measured time is cut into
/// passes so that each workload's samples spread over the whole run, and
/// a slow spell of the machine weighs on every metric alike.
const PASS_SECONDS: f64 = 4.0;

/// Passes in a run of `seconds`.
fn passes(seconds: f64) -> usize {
    (seconds / PASS_SECONDS).round().max(1.0) as usize
}

/// One kind of slice's measurements for every workload.
struct Runs {
    analyze: analyze::AnalyzeRun,
    wire: wire::WireRun,
    churn: churn::ChurnRun,
}

impl Runs {
    fn new(worlds: &Worlds, seed: u64, traced: bool) -> Self {
        Self {
            analyze: analyze::AnalyzeRun::new(&worlds.analyze, traced),
            wire: wire::WireRun::new(seed, traced),
            churn: churn::ChurnRun::new(traced),
        }
    }

    /// The end-to-end metrics these slices measured, at reference speed
    /// (`scaled`) or as measured.
    fn metrics(&self, metrics: &mut Metrics, scaled: bool) {
        put(metrics, "analyze_cvb_rows_per_s", self.analyze.cvb_rows_per_s(scaled), "rows/s");
        put(metrics, "analyze_scan_rows_per_s", self.analyze.scan_rows_per_s(scaled), "rows/s");
        put(metrics, "wire_p50_us", self.wire.p50_us(), "us");
        put(metrics, "wire_p90_us", self.wire.p90_us(), "us");
        put(metrics, "read_p50_ns", self.churn.read_p50_ns(scaled), "ns");
        put(metrics, "read_p90_ns", self.churn.read_p90_ns(scaled), "ns");
        put(metrics, "refresh_ms_p50", self.churn.refresh_ms_p50(scaled), "ms");
    }
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let scale = &opts.scale;
    let seed = opts.seed;
    out.lines.push(describe(opts));

    // Set up several times; the median is `setup_s`. Timed metrics are
    // brought to reference speed by measurements next to each timing.
    let mut speed = calib::Speed::new(util::nproc());
    let mut setup_s = Vec::new();
    let mut setup_raw = Vec::new();
    let mut worlds = None;
    for _ in 0..scale.setups.max(1) {
        drop(worlds.take());
        let (w, ns, time_scale) = speed.time_shared(|| Worlds::build(seed, scale));
        setup_s.push(ns * 1e-9 * time_scale);
        setup_raw.push(ns * 1e-9);
        worlds = Some(w);
    }
    let mut worlds = worlds.expect("at least one set-up");
    let mut untraced = Metrics::new();
    put(&mut untraced, "setup_s", util::median(&setup_s), "s");
    let ledger = &mut out.ledger;

    // The deterministic analyze metrics, on streams of their own.
    let (fraction, max_error) =
        analyze::accuracy(&worlds.analyze, seed, scale.accuracy_calls, ledger);
    put(&mut untraced, "analyze_sample_fraction", fraction, "ratio");
    put(&mut untraced, "analyze_max_error_f", max_error, "ratio");
    if opts.trace {
        let again = analyze::accuracy(&worlds.analyze, seed, scale.accuracy_calls, ledger);
        ledger.check("deterministic_metrics_repeat", again == (fraction, max_error), || {
            format!("analyze accuracy {again:?} then {:?}", (fraction, max_error))
        });
    }

    // Passes of slices; a traced run splits every slice into an
    // untraced and a traced half, so both see the same machine.
    let mut plain = Runs::new(&worlds, seed, false);
    let mut traced = Runs::new(&worlds, seed, true);
    let counters_before = worlds.churn.counters();
    let passes = passes(opts.seconds);
    for _ in 0..passes {
        for (phase, share) in phases(opts.workload) {
            let slice = opts.seconds * share / passes as f64;
            let halves: &mut [&mut Runs] =
                if opts.trace { &mut [&mut plain, &mut traced] } else { &mut [&mut plain] };
            let half = slice / halves.len() as f64;
            for runs in halves.iter_mut() {
                let deadline = Deadline::after(half);
                match phase {
                    Workload::Analyze => analyze::run(
                        &worlds.analyze,
                        seed,
                        deadline,
                        &mut speed,
                        ledger,
                        &mut runs.analyze,
                    ),
                    Workload::WireServe => {
                        wire::run(&mut worlds.wire, deadline, ledger, &mut runs.wire)
                    }
                    Workload::Churn => churn::run(
                        &mut worlds.churn,
                        deadline,
                        scale.qerror_rounds,
                        &mut speed,
                        ledger,
                        &mut runs.churn,
                    ),
                }
            }
        }
    }
    let counters_after = worlds.churn.counters();
    churn::count_refreshes(counters_before, counters_after, ledger);
    plain.metrics(&mut untraced, true);
    let mut unscaled = Metrics::new();
    plain.metrics(&mut unscaled, false);
    put(&mut unscaled, "setup_s", util::median(&setup_raw), "s");
    put(&mut untraced, "peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    put(&mut untraced, "served_qerror_p95", plain.churn.served_qerror_p95(), "ratio");
    if !opts.trace {
        // Only then do all deterministic rounds run in untraced slices.
        let rounds = plain.churn.qerror_rounds();
        ledger.check("served_qerror_rounds_complete", rounds as u64 == scale.qerror_rounds, || {
            format!("q-errors of {rounds} drift rounds, want {}", scale.qerror_rounds)
        });
    }
    if opts.trace {
        let mut with_trace = Metrics::new();
        traced.metrics(&mut with_trace, true);
        out.lines.extend(analyze::per_layer(&traced.analyze, &mut out.metrics));
        out.lines.extend(wire::per_layer(&plain.wire, &traced.wire, &mut out.metrics));
        out.lines.extend(churn::per_layer(
            &traced.churn,
            counters_before,
            counters_after,
            &mut out.metrics,
        ));
        for name in OVERHEAD {
            let diff = with_trace[name].value - untraced[name].value;
            put(&mut out.metrics, &format!("overhead.{name}"), diff, untraced[name].unit);
        }
        out.lines.push(overhead_line(&untraced, &with_trace));
        put(&mut out.metrics, "read_p99_ns", plain.churn.read_p99_ns(true), "ns");
        put(&mut out.metrics, "machine.ref_rep_us", speed.rep_us(), "us");
        put(&mut out.metrics, "machine.handoff_us", speed.handoff_us(), "us");
    } else {
        out.metrics = untraced;
    }
    out.lines.push(speed_line(&speed, &unscaled));
    out.lines.push(checks_line(&out.ledger));
    out
}

fn describe(opts: &Options) -> String {
    let s = &opts.scale;
    let budgets: Vec<String> = phases(opts.workload)
        .iter()
        .map(|(w, share)| format!("\"{}\": {}", w.name(), opts.seconds * share))
        .collect();
    format!(
        "config {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"phase_seconds\": {{{}}}, \"passes\": {}, \"nproc\": {}, \"generator_threads\": 1, \
         \"connections\": {}, \"server_workers\": {}, \"refresh_threads\": {}, \
         \"analyze\": {{\"rows\": {}, \"columns\": 3, \"cvb_buckets\": {}, \"scan_buckets\": {}}}, \
         \"wire\": {{\"tenants\": {}, \"rows\": {}, \"columns\": 2, \"buckets\": {}, \"group\": {}}}, \
         \"churn\": {{\"rows\": {}, \"buckets\": {}, \"qerror_budget\": {}, \"read_batch\": {}, \
         \"qerror_rounds\": {}}}, \"setups\": {}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        budgets.join(", "),
        passes(opts.seconds),
        util::nproc(),
        wire::CONNECTIONS,
        samplehist_service::ServerOptions::default().workers,
        churn::REFRESH_THREADS,
        s.analyze_rows,
        analyze::CVB_BUCKETS,
        analyze::SCAN_BUCKETS,
        wire::TENANTS,
        s.wire_rows,
        wire::WIRE_BUCKETS,
        wire::GROUP,
        s.churn_rows,
        churn::CHURN_BUCKETS,
        churn::QERROR_BUDGET,
        churn::READ_BATCH,
        s.qerror_rounds,
        s.setups,
    )
}

fn overhead_line(untraced: &Metrics, traced: &Metrics) -> String {
    let parts: Vec<String> = OVERHEAD
        .iter()
        .map(|name| {
            let (u, t) = (untraced[*name].value, traced[*name].value);
            format!("{name} {u:.4} -> {t:.4} ({:+.4})", t - u)
        })
        .collect();
    format!("overhead (untraced -> traced): {}", parts.join("; "))
}

fn speed_line(speed: &calib::Speed, unscaled: &Metrics) -> String {
    let q = |p| if speed.rep_ns.is_empty() { 0.0 } else { util::quantile(&speed.rep_ns, p) * 1e-3 };
    format!(
        "speed: {} reference measurements, rep min {:.2} / median {:.2} / p90 {:.2} / max {:.2} us \
         (nominal {:.2} us); {} hand-offs, median {:.1} us (nominal {:.1} us); wire latencies \
         are not scaled; as measured: {}",
        speed.rep_ns.len(),
        q(0.0),
        q(0.5),
        q(0.9),
        q(1.0),
        calib::NOMINAL_REP_NS * 1e-3,
        speed.handoff_ns.len(),
        speed.handoff_us(),
        calib::NOMINAL_HANDOFF_NS * 1e-3,
        unscaled
            .iter()
            .filter(|(name, _)| !name.starts_with("wire"))
            .map(|(name, m)| format!("{name} {:.4}", m.value))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn checks_line(ledger: &Ledger) -> String {
    let passed: Vec<String> = ledger.passed.iter().map(|(k, v)| format!("{k} {v}")).collect();
    let mut line = format!(
        "checks passed: {}; failed checks: {}; operations {} attempted, {} failed",
        passed.join(", "),
        ledger.failed_checks,
        ledger.attempted,
        ledger.failed_ops
    );
    for f in &ledger.failures {
        line.push_str(&format!("\nFAILED {f}"));
    }
    line
}

/// Whether `metrics` holds exactly the expected names, with the
/// expected units and finite values.
pub fn metrics_complete(metrics: &Metrics, trace: bool) -> Result<(), String> {
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in expected {
        match metrics.get(*name) {
            None => return Err(format!("metric {name} missing")),
            Some(m) if m.unit != *unit => {
                return Err(format!("metric {name} has unit {}, want {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => return Err(format!("metric {name} is {}", m.value)),
            Some(_) => {}
        }
    }
    if metrics.len() != expected.len() {
        return Err(format!("{} metrics, want {}", metrics.len(), expected.len()));
    }
    Ok(())
}

/// Run every workload, untraced and traced, at smoke size and check
/// that each prints its full metric set and exercises every check.
pub fn smoke(seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options { workload, seed, seconds: 0.4, trace, scale: Scale::SMOKE };
            let out = run(&opts);
            let what = format!("{} (trace {})", workload.name(), trace);
            metrics_complete(&out.metrics, trace).map_err(|e| format!("{what}: {e}"))?;
            if !out.ledger.correct() {
                return Err(format!("{what}: checks failed: {:?}", out.ledger.failures));
            }
            for check in REQUIRED_CHECKS {
                let ran = out.ledger.passed.contains_key(check);
                if !ran && (trace || check != "deterministic_metrics_repeat") {
                    return Err(format!("{what}: check {check} never ran"));
                }
            }
        }
    }
    Ok(())
}
