//! The one argv reader every binary parses its flags with ([`Args`]), and
//! the startup preamble the serving binaries run ([`ServingInputs`]). Flags
//! are `--name value` pairs plus bare `--name` booleans; no external crates.

use crate::{EngineHooks, Fallback};
use baclassifier::ModelArtifact;
use btcsim::AddressRecord;
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

/// Print `error: {msg}` and exit 2, the code of a bad invocation.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// A binary's arguments, read flag by flag. A read takes the first `--name`
/// (and its value); [`Args::finish`] refuses every token no read took — an
/// unknown or misspelled flag, a stray positional, a flag given twice — so
/// what a binary reads is exactly what it accepts. A binary reads every
/// flag its mode uses, then finishes, before it loads or runs anything.
pub struct Args(Vec<(String, bool)>);

impl Args {
    /// This process's arguments, program name dropped.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).map(|t| (t, false)).collect())
    }

    /// Whether bare `--name` is given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// `--name`'s value as a `T`; `None` when the flag is absent. A flag
    /// without its value (the last token, or followed by another `--flag`)
    /// or with one that does not parse exits 2 — never the default:
    /// `--worker` as the last token must not run worker 0.
    pub fn get<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.try_get(name).unwrap_or_else(|e| usage_error(e))
    }

    /// Exit 2, naming the first token no read took, if there is one.
    pub fn finish(self) {
        if let Err(e) = self.leftover() {
            usage_error(e)
        }
    }

    fn take(&mut self, name: &str) -> Option<usize> {
        let i = self.0.iter().position(|(t, _)| t == name)?;
        self.0[i].1 = true;
        Some(i)
    }

    fn try_get<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.take(name) else {
            return Ok(None);
        };
        // One dash is a value (a negative number), two are the next flag.
        let Some((v, taken)) = self.0.get_mut(i + 1).filter(|(v, _)| !v.starts_with("--")) else {
            return Err(format!("{name} needs a value"));
        };
        *taken = true;
        v.parse()
            .map(Some)
            .map_err(|_| format!("bad value {v:?} for {name}"))
    }

    fn leftover(&self) -> Result<(), String> {
        let Some(i) = self.0.iter().position(|(_, taken)| !taken) else {
            return Ok(());
        };
        let token = &self.0[i].0;
        let twice = self.0[..i].iter().any(|(t, taken)| *taken && t == token);
        Err(if twice {
            format!("{token} given twice")
        } else if token.starts_with("--") {
            format!("unexpected flag {token}")
        } else {
            format!("unexpected argument {token:?}")
        })
    }
}

/// The standard serving dataset: the simulated address universe rebuilt
/// from its seed, in dataset order — a server and a client built from the
/// same `seed`/`min_txs` agree on every record byte.
pub fn rebuild_records(seed: u64, min_txs: usize) -> Vec<AddressRecord> {
    let sim = btcsim::Simulator::run_to_completion(btcsim::SimConfig::tiny(seed));
    btcsim::Dataset::from_simulator(&sim, min_txs).records
}

/// What a serving binary loads before it can answer `classify <id>`: the
/// `--artifact` model and the dataset rebuilt from `--seed` / `--min-txs`.
pub struct ServingInputs {
    pub artifact: Arc<ModelArtifact>,
    pub records: Vec<AddressRecord>,
}

/// The first step of every daemon mode, once it has read its own flags:
/// take `--artifact`, refuse whatever no read took ([`Args::finish`]), then
/// load the model, logging as `[name] …`. Exits 2 (printing `usage`)
/// without `--artifact`, 1 when it does not load.
pub fn load_artifact(name: &str, usage: &str, mut args: Args) -> Arc<ModelArtifact> {
    let path: Option<String> = args.get("--artifact");
    args.finish();
    let Some(path) = path else {
        eprintln!("usage: {usage}");
        std::process::exit(2);
    };
    let artifact = match ModelArtifact::load(path.as_ref()) {
        Ok(a) => Arc::new(a),
        Err(e) => {
            eprintln!("error: could not load artifact {path}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[{name}] loaded {path} ({} weight tensors)",
        artifact.weights.len()
    );
    artifact
}

impl ServingInputs {
    /// [`load_artifact`], then the dataset rebuilt from `--seed` /
    /// `--min-txs`.
    pub fn load(name: &str, usage: &str, mut args: Args) -> ServingInputs {
        let seed = args.get("--seed").unwrap_or(42u64);
        let min_txs = args.get("--min-txs").unwrap_or(3usize);
        let artifact = load_artifact(name, usage, args);
        let records = rebuild_records(seed, min_txs);
        eprintln!(
            "[{name}] dataset rebuilt from seed {seed}: {} addresses",
            records.len()
        );
        ServingInputs { artifact, records }
    }

    /// Engine hooks carrying the degraded-mode fallback fitted on the
    /// rebuilt dataset; the defaults without `fallback` (`--no-fallback`)
    /// or when there is nothing to fit on.
    pub fn hooks(&self, name: &str, fallback: bool) -> EngineHooks {
        if !fallback || self.records.is_empty() {
            return EngineHooks::default();
        }
        let fallback = Fallback::fit(&self.records);
        eprintln!(
            "[{name}] degraded-mode fallback ready ({})",
            fallback.name()
        );
        EngineHooks {
            fallback: Some(Arc::new(fallback)),
            ..EngineHooks::default()
        }
    }

    /// The records indexed by address id, as the backends look them up.
    pub fn into_by_id(self) -> HashMap<u64, AddressRecord> {
        self.records.into_iter().map(|r| (r.address.0, r)).collect()
    }
}

/// The engine knobs shared by `basharded` and `baserve-loadgen`:
/// `--workers`, `--max-batch`, `--queue-depth`, `--cache` and
/// `--deadline-ms` (0 = none). The breaker and restart policy are the
/// engine's constants. `--workers 0` and `--queue-depth 0` are bad
/// invocations (exit 2): no worker would ever drain the queue, or every
/// request would be refused as `QueueFull` until the breaker trips.
pub fn engine_config_from_args(args: &mut Args) -> crate::EngineConfig {
    use std::time::Duration;
    let default = crate::EngineConfig::default();
    let workers = args.get("--workers").unwrap_or(default.workers);
    let queue_depth = args.get("--queue-depth").unwrap_or(default.queue_depth);
    for (name, v) in [("--workers", workers), ("--queue-depth", queue_depth)] {
        if v == 0 {
            usage_error(format_args!("{name}: must be at least 1"));
        }
    }
    let deadline_ms: u64 = args.get("--deadline-ms").unwrap_or(0);
    crate::EngineConfig {
        workers,
        max_batch: args.get("--max-batch").unwrap_or(default.max_batch),
        queue_depth,
        cache_capacity: args.get("--cache").unwrap_or(default.cache_capacity),
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args(
            s.split_whitespace()
                .map(|t| (t.to_string(), false))
                .collect(),
        )
    }

    #[test]
    fn values_and_defaults() {
        let mut args = argv("--seed 7 --check");
        assert_eq!(args.get::<String>("--seed").as_deref(), Some("7"));
        assert_eq!(args.get("--seed"), Some(7u64));
        assert_eq!(args.get::<usize>("--requests"), None);
        assert!(args.flag("--check"));
        assert!(!args.flag("--json"));
        assert_eq!(args.leftover(), Ok(()));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error_not_the_default() {
        let needs = |name: &str| Err(format!("{name} needs a value"));
        let mut last = argv("--shards 2 --worker");
        assert_eq!(last.try_get::<u32>("--worker"), needs("--worker"));
        let mut followed = argv("--seed --shards 2");
        assert_eq!(followed.try_get::<u32>("--seed"), needs("--seed"));
        assert_eq!(followed.try_get("--shards"), Ok(Some(2u32)));
        assert_eq!(followed.try_get::<String>("--listen"), Ok(None));
        // One dash is a value (a negative number), two are the next flag.
        assert_eq!(argv("--qps -0.5").try_get("--qps"), Ok(Some(-0.5f64)));
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error_not_the_default() {
        let mut args = argv("--requests x --scale smal");
        assert_eq!(
            args.try_get::<usize>("--requests"),
            Err("bad value \"x\" for --requests".into())
        );
        assert_eq!(
            args.try_get::<f64>("--scale"),
            Err("bad value \"smal\" for --scale".into())
        );
    }

    #[test]
    fn finish_names_the_first_token_no_read_took() {
        // A misspelled flag, and the value after it.
        let mut args = argv("--workers 3 --wokers 3");
        assert_eq!(args.get("--workers"), Some(3usize));
        assert_eq!(args.leftover(), Err("unexpected flag --wokers".into()));
        // A stray positional.
        let mut args = argv("--check oops");
        assert!(args.flag("--check"));
        assert_eq!(args.leftover(), Err("unexpected argument \"oops\"".into()));
        // A flag given twice: the read takes the first, never the second.
        let mut args = argv("--seed 7 --check --seed 8");
        assert_eq!(args.get("--seed"), Some(7u64));
        assert!(args.flag("--check"));
        assert_eq!(args.leftover(), Err("--seed given twice".into()));
        let mut args = argv("--check --check");
        assert!(args.flag("--check"));
        assert_eq!(args.leftover(), Err("--check given twice".into()));
        // A flag no read asked for at all.
        assert_eq!(
            argv("--no-such-flag").leftover(),
            Err("unexpected flag --no-such-flag".into())
        );
    }

    #[test]
    fn reading_a_flag_twice_takes_the_same_token() {
        let mut args = argv("--worker 1");
        assert!(args.flag("--worker"));
        assert_eq!(args.get("--worker"), Some(1u32));
        assert_eq!(args.leftover(), Ok(()));
    }

    #[test]
    fn resilience_knobs_parse() {
        let cfg = engine_config_from_args(&mut argv("--deadline-ms 25"));
        assert_eq!(
            cfg.default_deadline,
            Some(std::time::Duration::from_millis(25))
        );
        // Deadline 0 (and the default) mean "no deadline".
        let none = engine_config_from_args(&mut argv("--deadline-ms 0"));
        assert_eq!(none.default_deadline, None);
    }
}
