//! The repo benchmark: four workloads through the real control-plane
//! drivers, end-to-end metrics with tracing off, per-layer metrics from a
//! separate traced run. See `README.md` in this directory and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! One process runs one workload, so `setup_s` and `peak_rss_mib` are that
//! workload's own. Every metric is printed by name with its unit; the last
//! line of standard output is one JSON object. Any failed output check
//! exits non-zero with the reason on standard error and no result line.

mod calib;
mod harness;
mod layers;
mod measure;
mod replay;
mod stats;
mod trace;
mod workloads;

use measure::Report;
use std::process::ExitCode;
use workloads::Workload;

const DEFAULT_SEED: u64 = 2024;
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: flexsched-benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace [0|1]]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got {v:?}"))?;
            }
            "--trace" => {
                // `--trace` alone switches tracing on; `--trace 0|1` is
                // the form the benchmark driver passes.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// A float as a JSON number with every digit it was measured with.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("metric value {v} is not a finite number"))
    }
}

fn print_report(report: &Report) -> Result<(), String> {
    for note in &report.notes {
        println!("{note}");
    }
    let mut fields = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        println!("{:<32} {:>18} {}", m.name, json_number(m.value)?, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value)?,
            m.unit
        ));
    }
    // Blocked and shed arrivals are the control plane's verdicts, reported
    // as `completed_frac`; an operation *fails* only by breaking an output
    // check, and then no result is printed at all.
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        report.attempted,
        fields.join(", ")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let report = if args.trace {
        measure::traced(args.workload, args.seed)?
    } else {
        measure::end_to_end(args.workload, args.seed, args.seconds)?
    };
    print_report(&report)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flexsched-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload metro_faults --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::MetroFaults);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        let a = args("--workload backbone_dag --trace 0 --seed 9").unwrap();
        assert_eq!((a.seed, a.trace), (9, false));
    }

    #[test]
    fn defaults_and_bare_trace_flag() {
        let a = args("--workload metro_steady").unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        assert!(args("--trace --workload metro_steady").unwrap().trace);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload metro_steady --seed -1").is_err());
        assert!(args("--workload metro_steady --seconds 0").is_err());
        assert!(args("--workload metro_steady --bogus").is_err());
    }

    #[test]
    fn json_numbers_keep_every_digit_and_reject_nan() {
        assert_eq!(json_number(1.2034).unwrap(), "1.2034");
        assert_eq!(json_number(12515.234567891).unwrap(), "12515.234567891");
        assert!(json_number(f64::NAN).is_err());
    }
}
