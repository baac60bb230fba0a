//! `bacbench` — one pipeline benchmark for the BAClassifier stack.
//!
//! ```text
//! bacbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! bacbench run   [--seed 42] [--seconds 24] [--workload <name>] [--smoke]
//! bacbench agree [--seed 42] [--runs 1] [--seconds 24] [--workload <name>] [--smoke]
//! ```
//!
//! The first form is the contract of `../BENCHMARK.json`: one run of one
//! workload, one JSON object on the last line of standard output. `run`
//! executes that for all six workloads, untraced then traced, each in a
//! fresh child process, and exits non-zero if any run was incorrect.
//! `agree` runs two sets of untraced runs of the four workloads
//! `BENCHMARK.json` lists and compares them under its bounds. See
//! `README.md`.

mod alloc;
mod cold;
mod follow;
mod host;
mod inputs;
mod metrics;
mod orchestrate;
mod run;
mod serve;
mod shared;

use inputs::Workload;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`; what `run` and `agree` pass on
/// unless told otherwise. `--smoke` cuts it to `SMOKE_SECONDS`.
const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 0.5;

struct Flags {
    workload: Option<Workload>,
    seed: u64,
    /// `None` = the default for the scale.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: u64,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                f.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
                f.seconds = Some(seconds);
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                f.runs = value.parse().map_err(|_| bad())?;
                if f.runs == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "agree")) => (c, &args[1..]),
        _ => ("single", &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bacbench: {e}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    let seconds = flags.seconds.unwrap_or(if flags.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let suite = orchestrate::SuiteArgs {
        seed: flags.seed,
        seconds,
        smoke: flags.smoke,
        workload: flags.workload,
        runs: flags.runs,
    };
    let ok = match command {
        "run" => orchestrate::run(&suite),
        "agree" => orchestrate::agree(&suite),
        _ => {
            let Some(workload) = flags.workload else {
                eprintln!("bacbench: --workload is required (or use `run` / `agree`)");
                return ExitCode::from(2);
            };
            // The result line carries `correct`; the exit code reports
            // only whether the run itself completed.
            run::run(&run::RunArgs {
                workload,
                seed: flags.seed,
                seconds,
                trace: flags.trace,
                smoke: flags.smoke,
            });
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_invocation_parses() {
        let f = flags(&[
            "--workload",
            "serve_wire",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(f.workload, Some(Workload::ServeWire));
        assert_eq!(
            (f.seed, f.seconds, f.trace, f.smoke),
            (7, Some(8.0), true, false)
        );
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(flags(&["--workload", "warm"]).is_err());
        assert!(flags(&["--trace", "yes"]).is_err());
        assert!(flags(&["--seconds"]).is_err());
        assert!(flags(&["--seconds", "-1"]).is_err());
        assert!(flags(&["--runs", "0"]).is_err());
        assert!(flags(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn default_seconds_is_the_contract_run_length() {
        assert_eq!(
            metrics::contract()
                .get("run_seconds")
                .and_then(shared::Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
