//! `perfbench --workload <analyze|wire-serve|churn> --seed <n> --seconds <s> --trace <0|1>`
//! runs one benchmark run and prints its result as the last line;
//! `perfbench --smoke` runs every workload at small size and checks the
//! output is complete.

use std::process::ExitCode;

use samplehist_perfbench::{metrics_complete, run, smoke, util, Options, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <analyze|wire-serve|churn> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --smoke [--seed <n>]";

fn parse(args: &[String]) -> Result<(Option<Options>, u64), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| format!("no workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if smoke {
        return Ok((None, seed));
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok((Some(Options { workload, seed, seconds, trace, scale: Scale::FULL }), seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, seed) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(opts) = opts else {
        return match smoke(seed) {
            Ok(()) => {
                println!("smoke: every workload printed every metric and ran every check");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let mut out = run(&opts);
    if let Err(e) = metrics_complete(&out.metrics, opts.trace) {
        out.ledger.check("metric_set_complete", false, || e);
    }
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", util::result_json(&out.ledger, &out.metrics));
    if out.ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
