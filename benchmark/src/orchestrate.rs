//! `bacbench run` and `bacbench agree`: one workload after another, each
//! run in a fresh child process — first-touch page faults make a
//! process's first pass 1.3–2.7× slower than a warm one, so allocator
//! state must not leak from one workload into the next.

use crate::inputs::Workload;
use crate::shared::{median, spread, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// `None` runs all six (`run`) or the contract's four (`agree`).
    pub workload: Option<Workload>,
    /// `agree` only: runs per workload per set, seeds `seed..seed + runs`.
    pub runs: u64,
}

impl SuiteArgs {
    /// The one workload asked for, or `default`.
    fn workloads(&self, default: &[Workload]) -> Vec<Workload> {
        self.workload.map_or(default.to_vec(), |w| vec![w])
    }
}

/// What one child printed on its last line.
struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name → (value, unit), in printed order.
    metrics: Vec<(String, f64, String)>,
}

fn parse_outcome(line: &str) -> Result<Outcome, String> {
    let v = Json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("metric {name} lacks value or unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Outcome {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")?,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")?,
        metrics,
    })
}

/// Run one workload in a child of this executable; echo what it prints,
/// indented, and parse its last line.
fn child(args: &SuiteArgs, w: Workload, seed: u64, trace: bool, echo: bool) -> Outcome {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // The workloads pin their own thread counts; an inherited override
        // would silently unpin them.
        .env_remove("BAC_THREADS")
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    if echo {
        for line in &lines {
            println!("  | {line}");
        }
    }
    assert!(
        output.status.success(),
        "{} child exited with {}",
        w.name(),
        output.status
    );
    parse_outcome(last).unwrap_or_else(|e| panic!("{} child: {e}: {last:?}", w.name()))
}

/// `bacbench run`: an untraced and a traced run of each workload; every
/// metric by name with its unit. Returns whether every run was correct.
pub fn run(args: &SuiteArgs) -> bool {
    let mut all_correct = true;
    for w in args.workloads(&Workload::ALL) {
        for trace in [false, true] {
            println!(
                "== {} seed {} {}",
                w.name(),
                args.seed,
                if trace { "traced" } else { "untraced" }
            );
            let o = child(args, w, args.seed, trace, true);
            for (name, value, unit) in &o.metrics {
                println!("{:<16} {name:<36} {value:>16.4} {unit}", w.name());
            }
            println!(
                "{:<16} {:<36} {:>16.4} failed/attempted ({} / {}){}",
                w.name(),
                "failed_ratio",
                o.failed / o.attempted,
                o.failed,
                o.attempted,
                if o.correct { "" } else { "  <-- INCORRECT" }
            );
            all_correct &= o.correct;
        }
    }
    all_correct
}

/// Direction and bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (bool, f64)> {
    crate::metrics::contract()
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end array")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64).expect("metric bound");
            (name.to_string(), (higher, bound))
        })
        .collect()
}

/// `bacbench agree`: two sets of untraced runs of the same code, back to
/// back. For each (metric, workload): both medians, how much worse the
/// second is than the first, the spread of each set (interquartile
/// distance over median, when a set has enough runs to have quartiles),
/// and the bound. Fails when a second median is worse than the first by
/// more than the bound, when a spread (other than `setup_s`'s) exceeds
/// it, or when any run was incorrect.
pub fn agree(args: &SuiteArgs) -> bool {
    let bounds = bounds();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in args.workloads(&Workload::CONTRACT) {
        // sets[s][metric] = one value per run
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for (s, set) in sets.iter_mut().enumerate() {
            for seed in args.seed..args.seed + args.runs {
                let o = child(args, w, seed, false, false);
                println!(
                    "{} set {} seed {seed}: {}{}",
                    w.name(),
                    s + 1,
                    o.metrics
                        .iter()
                        .map(|(n, v, _)| format!("{n} {v:.4}"))
                        .collect::<Vec<_>>()
                        .join("  "),
                    if o.correct { "" } else { "  <-- INCORRECT" }
                );
                ok &= o.correct;
                for (name, value, _) in o.metrics {
                    set.entry(name).or_default().push(value);
                }
            }
        }
        for (name, first) in &sets[0] {
            let second = &sets[1][name];
            let (higher, bound) = bounds[name];
            let (m1, m2) = (median(first), median(second));
            let worse = if higher {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let spreads = (first.len() >= 4).then(|| (spread(first), spread(second)));
            let spread_ok =
                name == "setup_s" || spreads.is_none_or(|(a, b)| a <= bound && b <= bound);
            let verdict = worse <= bound && spread_ok;
            ok &= verdict;
            rows.push(format!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>+8.2}% {:>17} {:>6.1}%  {}",
                w.name(),
                name,
                m1,
                m2,
                100.0 * worse,
                spreads.map_or("-".to_string(), |(a, b)| format!(
                    "{:.2}% / {:.2}%",
                    100.0 * a,
                    100.0 * b
                )),
                100.0 * bound,
                if verdict { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!(
        "\n{:<16} {:<12} {:>14} {:>14} {:>9} {:>17} {:>7}",
        "workload", "metric", "set 1 median", "set 2 median", "worse by", "spread 1 / 2", "bound"
    );
    rows.iter().for_each(|r| println!("{r}"));
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"p50_us": {"value": 1.2034, "unit": "us"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let o = parse_outcome(line).unwrap();
        assert!(o.correct);
        assert_eq!((o.attempted, o.failed), (1000.0, 0.0));
        assert_eq!(
            o.metrics[1],
            ("setup_s".to_string(), 0.8127, "s".to_string())
        );
    }

    #[test]
    fn malformed_result_lines_are_errors_not_panics() {
        assert!(parse_outcome("").is_err());
        assert!(parse_outcome("{}").is_err());
        assert!(
            parse_outcome(r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#).is_err()
        );
        assert!(parse_outcome(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}"#
        )
        .is_err());
    }
}
