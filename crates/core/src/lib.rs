//! # baclassifier — Bitcoin address behavior classification via GNNs
//!
//! A from-scratch Rust reproduction of **BAClassifier** (Huang et al.,
//! *Demystifying Bitcoin Address Behavior via Graph Neural Networks*,
//! ICDE 2023). The pipeline has the paper's three components (Fig. 2):
//!
//! 1. **Address graph construction** ([`construction`]): chronological
//!    100-transaction slicing, SFE-based single- and multi-transaction
//!    address compression, and centrality augmentation (§III-A).
//! 2. **Graph representation learning** ([`models`]): the Graph Feature
//!    Network with feature augmentation `[d, X, ÃX, …, ÃᵏX]` and SUM
//!    readout, plus the GCN and DiffPool comparators (§III-B).
//! 3. **Address classification** ([`classify`]): LSTM+MLP over the
//!    chronological slice-embedding list, plus the five comparator heads of
//!    Table III (§III-C).
//!
//! [`BaClassifier`] wires the three together behind a fit/predict/evaluate
//! API; [`metrics`] implements the paper's precision/recall/F1 reporting;
//! [`train`] exposes the instrumented training loops behind Figs. 5–6.
//!
//! ```no_run
//! use baclassifier::{BaClassifier, BacConfig};
//! use btcsim::{Dataset, SimConfig, Simulator};
//!
//! let sim = Simulator::run_to_completion(SimConfig::tiny(42));
//! let (train, test) = Dataset::from_simulator(&sim, 3).stratified_split(0.2, 7);
//! let mut clf = BaClassifier::new(BacConfig::fast());
//! clf.fit(&train);
//! println!("{}", clf.evaluate(&test).to_table(&["Exchange", "Mining", "Gambling", "Service"]));
//! ```

pub mod artifact;
pub mod classify;
pub mod config;
pub mod construction;
pub mod durable;
pub mod features;
pub mod metrics;
pub mod models;
pub mod parallel;
pub mod pipeline;
pub mod shard;
pub mod train;

pub use artifact::{ArtifactError, ModelArtifact};
pub use config::{BacConfig, ConstructionConfig, ModelConfig};
pub use durable::write_atomic;
pub use metrics::{ClassMetrics, ClassificationReport, ConfusionMatrix};
pub use pipeline::{BaClassifier, FitReport, PredictError};
pub use shard::{ShardAssignment, ShardMap, SHARD_HASH_VERSION};
