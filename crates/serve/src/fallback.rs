//! Degraded-mode fallback classification.
//!
//! A lane that cannot serve answers for itself through [`degrade`]: an
//! engine whose circuit breaker is open (or whose every worker has been
//! retired), or a remote lane with no connection, answers from a
//! [`Fallback`] instead: a cheap, deterministic, feature-based classifier
//! that trades accuracy for availability. Responses served this way carry
//! `degraded: true`, so callers can distinguish "the GNN said Exchange"
//! from "the centroid heuristic said Exchange while the model path heals".
//!
//! The fallback is z-scored [`baselines::flat_features`] into a
//! [`NearestCentroid`] — microseconds per query, no locks, no shared
//! state, so the degraded path cannot itself become a failure domain.

use crate::engine::{Response, ServeError, Ticket};
use crate::metrics::Metrics;
use baselines::{flat_dataset, flat_features, Classifier, NearestCentroid, Scaler};
use btcsim::{AddressRecord, Label};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// The degraded-mode classifier: a scaler and a nearest-centroid model over
/// flat features. Answers every record, cheaply, from any thread, without
/// panicking.
pub struct Fallback {
    clf: NearestCentroid,
    scaler: Scaler,
}

impl Fallback {
    /// Fit on labeled records (e.g. the dataset the daemon rebuilds at
    /// startup). Panics on empty input, same as every baseline `fit`.
    pub fn fit(records: &[AddressRecord]) -> Self {
        let (x, y) = flat_dataset(records);
        let scaler = Scaler::fit(&x);
        let mut clf = NearestCentroid::new();
        clf.fit(&scaler.transform(&x), &y);
        Fallback { clf, scaler }
    }

    pub fn classify(&self, record: &AddressRecord) -> Label {
        let row = self.scaler.transform_row(&flat_features(record));
        Label::from_index(self.clf.predict(&row)).unwrap_or(Label::Service)
    }

    pub fn name(&self) -> &'static str {
        self.clf.name()
    }
}

/// Answer `record` for a lane that cannot serve it: from `fallback` as a
/// settled `degraded` ticket, counted in `metrics.degraded` alone, or with
/// `err` when there is no fallback, counted as `failed` (`WorkerFailed`) or
/// `rejected` (anything else).
pub fn degrade(
    fallback: Option<&Fallback>,
    record: &AddressRecord,
    err: ServeError,
    metrics: &Metrics,
) -> Result<Ticket, ServeError> {
    let Some(fallback) = fallback else {
        match err {
            ServeError::WorkerFailed => metrics.failed.fetch_add(1, Relaxed),
            _ => metrics.rejected.fetch_add(1, Relaxed),
        };
        return Err(err);
    };
    let started = Instant::now();
    let label = fallback.classify(record);
    metrics.degraded.fetch_add(1, Relaxed);
    Ok(Ticket::settled(Ok(Response {
        label,
        cache_hit: false,
        degraded: true,
        latency: started.elapsed(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcsim::{Dataset, SimConfig, Simulator};

    fn records() -> Vec<AddressRecord> {
        let sim = Simulator::run_to_completion(SimConfig::tiny(11));
        Dataset::from_simulator(&sim, 3).records
    }

    #[test]
    fn fallback_answers_every_record_deterministically() {
        let records = records();
        let fb = Fallback::fit(&records);
        assert_eq!(fb.name(), "NearestCentroid");
        for r in &records {
            let a = fb.classify(r);
            let b = fb.classify(r);
            assert_eq!(a, b, "fallback must be deterministic");
        }
    }

    #[test]
    fn fallback_beats_chance_on_its_own_training_set() {
        let records = records();
        let fb = Fallback::fit(&records);
        let correct = records.iter().filter(|r| fb.classify(r) == r.label).count();
        // Not a accuracy claim — just "the wiring is not nonsense": a
        // centroid model must beat the 1-in-4 prior on its training data.
        assert!(
            correct * 4 > records.len(),
            "fallback worse than chance: {correct}/{}",
            records.len()
        );
    }
}
