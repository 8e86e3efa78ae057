//! Examples 1–2 and Theorems 1/3: why Δavg / Δvar are misleading and the
//! max error metric is not.
//!
//! Three tables:
//! 1. Example 2's literal numbers (Δavg = 16.8, Δvar ≈ 27.3, Δmax = 80 on
//!    the 10-bucket histogram).
//! 2. Example 1's analytic worst-case factors (13.5× / ~2.8× / 1.05× at
//!    k = 1000, f = 0.05, t = 10).
//! 3. An **empirical** adversarial demonstration: for each metric we build
//!    a dataset + stored histogram whose *reported* error is the same
//!    `f·n/k` under that metric, then search all bucket-aligned range
//!    queries for the worst estimation error. Δavg-bounded histograms
//!    hide ~`f·n/2` of misplaced tuples, Δvar-bounded `~f·n·√(t/2k)`,
//!    Δmax-bounded only `f·n/k` — the paper's whole argument, measured.

use samplehist_core::bounds::range::{
    avg_bounded_envelope, max_bounded_envelope, perfect_envelope, var_bounded_envelope,
    WorstCaseFactors,
};
use samplehist_core::error::summarize_counts;
use samplehist_core::estimate::evaluate_range_query;
use samplehist_core::histogram::{BucketIndex, EquiHeightHistogram};

use crate::output::ResultTable;
use crate::scale::Scale;

/// Experiment identifier.
pub const ID: &str = "ex1_error_metrics";

/// Run the experiment.
pub fn run(_scale: &Scale) -> Vec<ResultTable> {
    vec![example_2_table(), example_1_table(), adversarial_table()]
}

fn example_2_table() -> ResultTable {
    let counts = [88u64, 101, 87, 88, 89, 180, 90, 88, 103, 86];
    let s = summarize_counts(&counts, 1000);
    let mut t = ResultTable::new(
        "Example 2: error metrics on the paper's 10-bucket histogram (n=1000)",
        &["metric", "measured", "paper reports"],
    );
    t.row(vec!["Δavg".into(), format!("{:.2}", s.delta_avg), "16.8".into()]);
    t.row(vec!["Δvar".into(), format!("{:.2}", s.delta_var), "27.5".into()]);
    t.row(vec!["Δmax".into(), format!("{:.2}", s.delta_max), "80.0".into()]);
    t
}

fn example_1_table() -> ResultTable {
    let (n, k, f, tq) = (1_000_000u64, 1000usize, 0.05f64, 10.0f64);
    let factors = WorstCaseFactors::new(f, k, tq);
    let perfect = perfect_envelope(n, k, tq);
    let avg = avg_bounded_envelope(n, k, tq, f);
    let var = var_bounded_envelope(n, k, tq, f);
    let max = max_bounded_envelope(n, k, tq, f);

    let mut t = ResultTable::new(
        format!(
            "Example 1 / Theorems 1+3: worst-case range-query error envelopes \
             (k={k}, f={f}, t={tq}, n={n})"
        ),
        &["histogram guarantee", "abs error bound", "rel error bound", "factor vs perfect"],
    );
    let mut row = |name: &str, e: samplehist_core::bounds::RangeErrorEnvelope, factor: f64| {
        t.row(vec![
            name.into(),
            format!("{:.0}", e.absolute),
            format!("{:.3}", e.relative),
            format!("{:.2}x", factor),
        ]);
    };
    row("perfect", perfect, 1.0);
    row("Δavg ≤ f·n/k (Thm 1.2, lower bd)", avg, factors.avg);
    row("Δvar ≤ f·n/k (Thm 1.3, lower bd)", var, factors.var);
    row("Δmax ≤ f·n/k (Thm 3, guarantee)", max, factors.max);
    t
}

/// A dataset + a stored histogram claiming n/k everywhere, with the true
/// bucket contents dictated by `counts`.
struct Adversary {
    data: Vec<i64>,
    hist: EquiHeightHistogram,
    bucket_width: i64,
}

impl Adversary {
    /// `counts[j]` values placed in the domain interval `(j·w, (j+1)·w]`;
    /// the stored histogram claims `n/k` per bucket with separators at
    /// `j·w`.
    fn new(counts: &[u64], bucket_width: i64) -> Self {
        let k = counts.len();
        let n: u64 = counts.iter().sum();
        let w = bucket_width;
        let mut data = Vec::with_capacity(n as usize);
        for (j, &c) in counts.iter().enumerate() {
            let lower = j as i64 * w;
            for i in 0..c {
                // Evenly spread inside (lower, lower + w].
                let offset = 1 + (i as i64 * (w - 1)) / c.max(1) as i64;
                data.push(lower + offset.min(w));
            }
        }
        data.sort_unstable();
        let separators: Vec<i64> = (1..k as i64).map(|j| j * w).collect();
        let per_bucket = n / k as u64;
        let hist =
            EquiHeightHistogram::from_parts(separators, vec![per_bucket; k], 1, k as i64 * w);
        Self { data, hist, bucket_width }
    }

    /// Worst absolute estimation error over all bucket-aligned range
    /// queries (the dominant adversarial family; partial buckets add at
    /// most the interpolation slop of Theorem 1.1 on top).
    fn worst_aligned_error(&self) -> f64 {
        let k = self.hist.num_buckets();
        let w = self.bucket_width;
        let index = BucketIndex::new(&self.hist);
        let mut worst = 0.0f64;
        for i in 0..k {
            for j in (i + 1)..=k {
                let x = i as i64 * w + 1;
                let y = j as i64 * w;
                let err = evaluate_range_query(&index, &self.data, x, y);
                worst = worst.max(err.absolute);
            }
        }
        worst
    }
}

fn adversarial_table() -> ResultTable {
    // Small enough that the O(k²) query sweep is instant, large enough to
    // be convincing.
    let k = 100usize;
    let n = 100_000u64;
    let f = 0.05f64;
    let per = n / k as u64; // 1000
    let delta = (f * per as f64) as u64; // f·n/k = 50
    let w = 1000i64;
    let tq = 10.0f64;

    // Δmax-adversary: one bucket +δ, one −δ -> Δmax = f·n/k exactly.
    let mut counts_max = vec![per; k];
    counts_max[20] = per + delta;
    counts_max[70] = per - delta;

    // Δavg-adversary: all the allowed aggregate deviation (Σ|dev| = f·n)
    // concentrated in a few adjacent buckets: 3 buckets +f·n/6 each,
    // 3 buckets −f·n/6 each.
    let chunk = (f * n as f64 / 6.0) as u64; // 833
    let mut counts_avg = vec![per; k];
    for c in &mut counts_avg[20..23] {
        *c = per + chunk;
    }
    for c in &mut counts_avg[70..73] {
        *c = per - chunk;
    }

    // Δvar-adversary: Σdev² = k·(f·n/k)² spread as ±x over t = 10
    // consecutive buckets each, x = f·n/sqrt(2kt).
    let t_buckets = tq as usize;
    let x = (f * n as f64 / (2.0 * k as f64 * tq).sqrt()) as u64; // ~111
    let mut counts_var = vec![per; k];
    for c in &mut counts_var[20..20 + t_buckets] {
        *c = per + x;
    }
    for c in &mut counts_var[70..70 + t_buckets] {
        *c = per - x;
    }

    let mut table = ResultTable::new(
        format!(
            "Adversarial instances: same reported error f={f}, very different \
             worst range-query errors (k={k}, n={n})"
        ),
        &[
            "bounded metric",
            "reported error (its metric)",
            "worst aligned query abs error",
            "analytic envelope",
        ],
    );

    for (name, counts, envelope) in [
        ("Δavg", counts_avg, avg_bounded_envelope(n, k, tq, f).absolute),
        ("Δvar", counts_var, var_bounded_envelope(n, k, tq, f).absolute),
        ("Δmax", counts_max, max_bounded_envelope(n, k, tq, f).absolute),
    ] {
        let adv = Adversary::new(&counts, w);
        let summary = summarize_counts(&counts, n);
        let reported = match name {
            "Δavg" => summary.delta_avg,
            "Δvar" => summary.delta_var,
            _ => summary.delta_max,
        };
        table.row(vec![
            name.into(),
            format!("{reported:.1} (= {:.3}·n/k)", reported / per as f64),
            format!("{:.0}", adv.worst_aligned_error()),
            format!("{envelope:.0}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shape() {
        let tables = run(&Scale::tiny());
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 3);
        assert_eq!(tables[1].rows.len(), 4);
        assert_eq!(tables[2].rows.len(), 3);
    }

    /// The experiment's headline: the avg-bounded adversary's worst error
    /// dwarfs the max-bounded one's at identical reported f, with the
    /// var-bounded one in between — and nobody escapes their envelope.
    #[test]
    fn adversarial_ordering_holds() {
        let t = adversarial_table();
        let worst: Vec<f64> = t.rows.iter().map(|r| r[2].parse().expect("numeric")).collect();
        let envelopes: Vec<f64> = t.rows.iter().map(|r| r[3].parse().expect("numeric")).collect();
        let (avg, var, max) = (worst[0], worst[1], worst[2]);
        assert!(avg > 5.0 * var / 2.0 || avg > 2000.0, "avg = {avg}, var = {var}");
        assert!(var > 5.0 * max, "var = {var}, max = {max}");
        for (w, e) in worst.iter().zip(&envelopes) {
            assert!(w <= e, "worst {w} exceeds envelope {e}");
        }
    }

    /// The reported-error column really is ~f·n/k for each metric.
    #[test]
    fn adversaries_report_the_same_f() {
        let t = adversarial_table();
        for row in &t.rows {
            let normalized: f64 = row[1]
                .split("= ")
                .nth(1)
                .and_then(|s| s.split('·').next())
                .expect("formatted")
                .parse()
                .expect("numeric");
            assert!((normalized - 0.05).abs() < 0.01, "{}: reported {normalized}", row[0]);
        }
    }
}
