//! Minimal flag parsing shared by the serving binaries, and the startup
//! preamble they all run ([`ServingInputs`]). Flags are `--name value` pairs
//! plus bare `--name` booleans; no external crates.

use crate::{EngineHooks, Fallback};
use baclassifier::ModelArtifact;
use btcsim::AddressRecord;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

/// The value following `--name`: `Ok(None)` when the flag is absent, `Err`
/// (the message [`flag_value`] exits with) when it is the last token or the
/// next token is another `--flag`.
fn try_flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name} needs a value")),
    }
}

/// The value following `--name`, if the flag is present. A flag given
/// without its value is a hard error (exit 2), like an unparsable one in
/// [`flag_parsed`]: `--worker` as the last token must not run worker 0.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    match try_flag_value(args, name) {
        Ok(v) => v.map(String::from),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Parse the value following `--name`, falling back to `default` when the
/// flag is absent. A present-but-unparsable value is a hard error — silently
/// ignoring a typo'd knob is worse than exiting.
pub fn flag_parsed<T: FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: bad value {v:?} for {name}");
            std::process::exit(2);
        }),
    }
}

/// Whether bare `--name` appears.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
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

/// The first step of every daemon mode: load the `--artifact` model,
/// logging as `[name] …`. Exits 2 (printing `usage`) without `--artifact`,
/// 1 when it does not load.
pub fn load_artifact(name: &str, usage: &str, args: &[String]) -> Arc<ModelArtifact> {
    let Some(path) = flag_value(args, "--artifact") else {
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
    pub fn load(name: &str, usage: &str, args: &[String]) -> ServingInputs {
        let artifact = load_artifact(name, usage, args);
        let seed = flag_parsed(args, "--seed", 42u64);
        let records = rebuild_records(seed, flag_parsed(args, "--min-txs", 3usize));
        eprintln!(
            "[{name}] dataset rebuilt from seed {seed}: {} addresses",
            records.len()
        );
        ServingInputs { artifact, records }
    }

    /// Engine hooks carrying the degraded-mode fallback fitted on the
    /// rebuilt dataset; the defaults under `--no-fallback` or when there is
    /// nothing to fit on.
    pub fn hooks(&self, name: &str, args: &[String]) -> EngineHooks {
        if has_flag(args, "--no-fallback") || self.records.is_empty() {
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
/// engine's constants. `--workers 0` is a bad invocation (exit 2): no worker
/// would ever drain the queue, so every request would wait forever.
pub fn engine_config_from_args(args: &[String]) -> crate::EngineConfig {
    use std::time::Duration;
    let default = crate::EngineConfig::default();
    let workers = flag_parsed(args, "--workers", default.workers);
    if workers == 0 {
        eprintln!("error: --workers: must be at least 1");
        std::process::exit(2);
    }
    let deadline_ms = flag_parsed(
        args,
        "--deadline-ms",
        default.default_deadline.map_or(0, |d| d.as_millis() as u64),
    );
    crate::EngineConfig {
        workers,
        max_batch: flag_parsed(args, "--max-batch", default.max_batch),
        queue_depth: flag_parsed(args, "--queue-depth", default.queue_depth),
        cache_capacity: flag_parsed(args, "--cache", default.cache_capacity),
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn values_and_defaults() {
        let args = argv("prog --seed 7 --check");
        assert_eq!(flag_value(&args, "--seed").as_deref(), Some("7"));
        assert_eq!(flag_parsed(&args, "--seed", 42u64), 7);
        assert_eq!(flag_parsed(&args, "--requests", 1000usize), 1000);
        assert!(has_flag(&args, "--check"));
        assert!(!has_flag(&args, "--json"));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error_not_the_default() {
        let needs = |name: &str| Err(format!("{name} needs a value"));
        let last = argv("prog --shards 2 --worker");
        assert_eq!(try_flag_value(&last, "--worker"), needs("--worker"));
        let followed = argv("prog --seed --shards 2");
        assert_eq!(try_flag_value(&followed, "--seed"), needs("--seed"));
        assert_eq!(try_flag_value(&followed, "--shards"), Ok(Some("2")));
        assert_eq!(try_flag_value(&followed, "--listen"), Ok(None));
        // One dash is a value (a negative number), two are the next flag.
        assert_eq!(
            try_flag_value(&argv("prog --psi -0.5"), "--psi"),
            Ok(Some("-0.5"))
        );
    }

    #[test]
    fn resilience_knobs_parse() {
        let cfg = engine_config_from_args(&argv("prog --deadline-ms 25"));
        assert_eq!(
            cfg.default_deadline,
            Some(std::time::Duration::from_millis(25))
        );
        // Deadline 0 (and the default) mean "no deadline".
        let none = engine_config_from_args(&argv("prog --deadline-ms 0"));
        assert_eq!(none.default_deadline, None);
    }
}
