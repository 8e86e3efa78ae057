//! Shared plumbing: seeded streams, clocks, order statistics, the
//! metric report and the correctness ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A private, reproducible RNG stream for one purpose. Each metric that
/// must repeat exactly across runs of a seed draws from its own stream,
/// so a timing-dependent loop elsewhere can never shift it.
pub fn stream(seed: u64, label: &str, a: u64, b: u64) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in seed.to_le_bytes().iter().chain(label.as_bytes()) {
        h ^= *byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for word in [a, b] {
        h ^= word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    StdRng::seed_from_u64(h)
}

/// Nanoseconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as f64)
}

/// Linear-interpolated quantile of an unsorted sample (`q` in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Times of one kind, as measured and at reference speed (see
/// `calib`), in the same order.
#[derive(Debug, Default, Clone)]
pub struct Times {
    /// As measured.
    pub raw: Vec<f64>,
    /// Multiplied by each time's factor to reference speed.
    pub scaled: Vec<f64>,
}

impl Times {
    /// Record a measured time and its factor to reference speed.
    pub fn push(&mut self, raw: f64, scale: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * scale);
    }

    /// The times at reference speed, or as measured.
    pub fn get(&self, scaled: bool) -> &[f64] {
        if scaled {
            &self.scaled
        } else {
            &self.raw
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A wall-clock budget for one measured phase half.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `seconds` from now.
    pub fn after(seconds: f64) -> Self {
        Self(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    /// Whether the budget is spent.
    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Named correctness checks with pass counts, plus the first failures.
/// Operations that fail (wire errors, sheds, failed refreshes) are a
/// separate tally: they count against `attempted`, not against `correct`.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Passed checks per check name.
    pub passed: BTreeMap<&'static str, u64>,
    /// Failed checks (name and detail), capped to keep output short.
    pub failures: Vec<String>,
    /// Total failed checks, including ones past the cap.
    pub failed_checks: u64,
    /// Operations attempted against the program.
    pub attempted: u64,
    /// Operations that failed.
    pub failed_ops: u64,
}

impl Ledger {
    /// Record one check outcome; `detail` is only built on failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            *self.passed.entry(name).or_default() += 1;
        } else {
            self.failed_checks += 1;
            if self.failures.len() < 16 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
    }

    /// Check that an estimate is a usable cardinality.
    pub fn check_estimate(&mut self, rows: f64) {
        self.check("estimate_finite_nonnegative", rows.is_finite() && rows >= 0.0, || {
            format!("estimate {rows}")
        });
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed_ops += failed;
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }
}

/// One measured metric: value and unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics by name, printed in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Insert a metric.
pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), Metric { value, unit });
}

/// The benchmark's final line: `correct`, `attempted`, `failed` and the
/// metrics, as one JSON object.
pub fn result_json(ledger: &Ledger, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", json_num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted.max(1),
        ledger.failed_ops,
        body.join(", ")
    )
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null` and are caught by the metric-set check before printing.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
