//! Golden-trace tests for the instrumented sampling pipeline, plus the
//! determinism guard: recording must never change what the pipeline
//! computes, at any thread count.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use samplehist_core::histogram::EquiHeightHistogram;
use samplehist_core::sampling::{
    cvb, CvbConfig, CvbResult, DegradationPolicy, Reliable, SliceBlocks,
};
use samplehist_obs::{Event, MemorySink, PromSink, Recorder, Value};

fn shuffled(n: i64, seed: u64) -> Vec<i64> {
    let mut data: Vec<i64> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    data.shuffle(&mut rng);
    data
}

/// A traced CVB run over a source whose reads never fail.
fn traced_cvb(
    source: &SliceBlocks,
    config: &CvbConfig,
    rng: &mut StdRng,
    recorder: &Recorder,
) -> CvbResult {
    let policy = DegradationPolicy::default();
    let (result, report) = cvb::try_run_traced(&Reliable(source), config, &policy, rng, recorder)
        .expect("a reliable source never fails a read");
    assert!(!report.degraded);
    result
}

fn field<'a>(fields: &'a [(&'static str, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::U64(x)) => *x,
        other => panic!("expected a u64 field, got {other:?}"),
    }
}

fn as_str(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        other => panic!("expected a string field, got {other:?}"),
    }
}

/// The golden shape of a CVB trace: exactly one `cvb.round` span per
/// round in the result log, with 1-based round numbers, strictly
/// growing block counts, a boolean `counting` per round (the last one
/// true exactly when the final sample spans at most twice its length),
/// and per-round verdicts that reconstruct the algorithm's control flow.
#[test]
fn cvb_trace_has_one_round_span_per_round() {
    let data = shuffled(50_000, 7);
    let source = SliceBlocks::new(&data, 100);
    let config = CvbConfig::theoretical(&source, 20, 0.2, 0.05);
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let result = traced_cvb(&source, &config, &mut rng, &recorder);

    let events = sink.events();
    let round_fields: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnd { name: "cvb.round", fields, .. } => Some(fields.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(round_fields.len(), result.rounds.len(), "one span end per round");
    assert_eq!(result.rounds_executed, result.rounds.len());

    let mut prev_total = 0;
    for (i, (fields, round)) in round_fields.iter().zip(&result.rounds).enumerate() {
        assert_eq!(as_u64(field(fields, "round")) as usize, i + 1);
        let total = as_u64(field(fields, "total_blocks"));
        assert_eq!(total as usize, round.total_blocks, "trace agrees with the result log");
        assert!(total > prev_total, "block counts must grow monotonically");
        prev_total = total;
        assert_eq!(as_u64(field(fields, "r")), round.total_tuples, "r is the accumulated sample");
        let Some(&Value::Bool(counting)) = field(fields, "counting") else {
            panic!("round {} has no boolean counting field", i + 1);
        };
        if i + 1 == round_fields.len() {
            let sample = &result.sample_sorted;
            let span = sample[sample.len() - 1] as i128 - sample[0] as i128 + 1;
            assert_eq!(counting, span <= 2 * sample.len() as i128, "the last union sort's route");
        }
        let verdict = as_str(field(fields, "verdict"));
        if i == 0 {
            assert_eq!(verdict, "bootstrap", "round 1 has no histogram to validate");
            assert!(field(fields, "delta_hat").is_none());
        } else {
            assert!(matches!(verdict, "accept" | "reject"), "verdict was {verdict:?}");
            assert!(field(fields, "delta_hat").is_some(), "validated rounds report Δ̂");
        }
        for key in ["failed", "replaced", "effective_f"] {
            assert!(field(fields, key).is_none(), "a round that lost nothing carries {key:?}");
        }
        // Only the last round may accept.
        let is_last = i + 1 == round_fields.len();
        assert_eq!(verdict == "accept", is_last && result.converged);
    }

    // And exactly one enclosing cvb.run span, closing with the summary.
    let run_fields: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnd { name: "cvb.run", fields, .. } => Some(fields.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(run_fields.len(), 1);
    let run = &run_fields[0];
    assert_eq!(as_u64(field(run, "rounds")) as usize, result.rounds_executed);
    assert_eq!(field(run, "converged"), Some(&Value::Bool(result.converged)));
    assert_eq!(field(run, "terminated_early"), Some(&Value::Bool(result.terminated_early)));
    assert_eq!(as_u64(field(run, "blocks_sampled")) as usize, result.blocks_sampled);
    for key in ["blocks_failed", "replacements_drawn", "degraded", "effective_f"] {
        assert!(field(run, key).is_none(), "a run that lost nothing carries {key:?}");
    }
}

/// Round spans nest under the run span (the trace is a tree).
#[test]
fn cvb_round_spans_are_children_of_the_run_span() {
    let data = shuffled(20_000, 17);
    let source = SliceBlocks::new(&data, 100);
    let config = CvbConfig::theoretical(&source, 10, 0.3, 0.05);
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let mut rng = StdRng::seed_from_u64(19);
    let _ = traced_cvb(&source, &config, &mut rng, &recorder);

    let events = sink.events();
    let run_id = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { id, name: "cvb.run", .. } => Some(*id),
            _ => None,
        })
        .expect("run span present");
    let mut rounds = 0;
    for e in &events {
        if let Event::SpanStart { parent, name: "cvb.round", .. } = e {
            assert_eq!(*parent, Some(run_id), "round spans hang off the run span");
            rounds += 1;
        }
    }
    assert!(rounds > 0, "at least one round recorded");
}

/// The determinism guard the instrumentation docs promise: with a
/// recorder installed — including the process-global one that the deep
/// layers (radix routing, parallel primitives) report through — every
/// pipeline output is byte-identical to the untraced run, whether the
/// work is done on 1 thread or 4.
#[test]
fn enabling_a_recorder_never_changes_results() {
    let data = shuffled(60_000, 3);
    let source = SliceBlocks::new(&data, 100);
    let config = CvbConfig::theoretical(&source, 20, 0.25, 0.05);

    // Baselines, recording disabled. The histogram column is long
    // enough that the 4-thread runs below fork.
    let column = shuffled(samplehist_parallel::RADIX_FORK_MIN_LEN as i64, 5);
    let hist_bare = EquiHeightHistogram::from_unsorted_threads(1, &mut column.clone(), 50);
    let mut rng = StdRng::seed_from_u64(21);
    let cvb_bare = traced_cvb(&source, &config, &mut rng, &Recorder::disabled());

    // Install the global recorder and redo everything, traced.
    let memory = Arc::new(MemorySink::new());
    let prom = Arc::new(PromSink::new());
    let recorder = Recorder::with_sinks(vec![memory.clone(), prom.clone()]);
    samplehist_obs::set_global(recorder.clone());

    for threads in [1, 4] {
        let hist_traced =
            EquiHeightHistogram::from_unsorted_threads(threads, &mut column.clone(), 50);
        assert_eq!(hist_traced, hist_bare, "traced {threads}-thread radix build must match");
    }

    let mut rng = StdRng::seed_from_u64(21);
    let cvb_traced = traced_cvb(&source, &config, &mut rng, &recorder);
    assert_eq!(cvb_traced.histogram, cvb_bare.histogram);
    assert_eq!(cvb_traced.sample_sorted, cvb_bare.sample_sorted);
    assert_eq!(cvb_traced.rounds_executed, cvb_bare.rounds_executed);
    assert_eq!(cvb_traced.terminated_early, cvb_bare.terminated_early);
    assert_eq!(cvb_traced.blocks_sampled, cvb_bare.blocks_sampled);

    // The guard is vacuous if nothing was actually recorded.
    assert!(!memory.is_empty(), "the traced runs must have produced events");
    assert!(
        prom.span_durations().iter().any(|(name, _)| name == "cvb.round"),
        "round spans must have reached the aggregating sink"
    );
}
