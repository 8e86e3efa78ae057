//! The benchmark's own tests: every workload prints every metric and
//! runs every correctness check at small size, and `BENCHMARK.json`
//! lists exactly the metrics the benchmark prints.

use samplehist_perfbench::{smoke, END_TO_END, PER_LAYER};

#[test]
fn every_workload_prints_every_metric_and_runs_every_check() {
    smoke(7).unwrap();
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, in order.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |list: &[(&str, &str)]| {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
}
