//! # baserve — batched, cached inference serving for trained BAClassifiers
//!
//! The training side of this repository ends with a fitted
//! [`baclassifier::BaClassifier`]; `baserve` is everything after that:
//! getting the model out of the training process and answering
//! classification queries with bounded memory and observable behavior.
//!
//! The subsystem's pieces:
//!
//! * **Model artifacts** (in `baclassifier::artifact`): a single-file
//!   `BART` record file — a versioned manifest, then one CRC frame per
//!   weight matrix — so a serving process rebuilds the exact trained model.
//! * **[`engine`]**: a micro-batching engine — a bounded request queue with
//!   explicit backpressure ([`ServeError::QueueFull`]) feeding a pool of
//!   worker threads that all read one shared model. A free worker takes
//!   whatever is queued at that moment, up to `max_batch`: batches grow
//!   with load and an idle engine never holds a request for a timer.
//! * **[`cache`]**: an O(1) LRU of answers, one label per `(address id,
//!   history length, generation)`; a hit runs no model at all, and a miss's
//!   label is byte-identical to the unstaged `predict` path.
//! * **[`metrics`]**: wait-free counters and latency/batch-size histograms,
//!   snapshotted into a [`MetricsSnapshot`] that renders as JSON.
//! * **[`breaker`], [`fallback`], [`fault`]**: the resilience layer. Worker
//!   batch loops run supervised (`catch_unwind` + bounded, jittered worker
//!   restarts); per-request deadlines resolve as `DeadlineExceeded`; a
//!   circuit breaker sheds traffic to a cheap feature-based [`Fallback`]
//!   (responses tagged `degraded`) and half-opens after a cooldown; and a
//!   deterministic [`FaultPlan`] hook lets the chaos harness inject panics,
//!   delays, and corruption through the production code paths.
//!
//! * **[`lane`], [`session`]**: the request surface. [`NetBackend`] is the
//!   one id-addressed service trait; [`run_line_session`] answers the
//!   [`protocol`] line protocol over it (`banet`'s TCP server is the other
//!   front), and `bashard`'s `basharded` is the one daemon that serves it.
//!
//! `baserve-fit` (this crate) produces a demo artifact; `basharded`
//! (`bashard`) serves one and `baserve-loadgen` (`banet`) replays
//! zipf-distributed query traffic against an engine or a running daemon.
//! A worked example lives in the repository README under *Serving*.
//!
//! ```no_run
//! use baserve::{Engine, EngineConfig};
//! use baclassifier::ModelArtifact;
//! use std::sync::Arc;
//!
//! let artifact = Arc::new(ModelArtifact::load("model.bart".as_ref())?);
//! let engine = Engine::new(Arc::clone(&artifact), EngineConfig::default())?;
//! # let record: btcsim::AddressRecord = unimplemented!();
//! let response = engine.classify(record)?;
//! println!("{} ({})", response.label.name(), engine.metrics().to_json());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod breaker;
pub mod cache;
pub mod cli;
pub mod engine;
pub mod fallback;
pub mod fault;
pub mod lane;
pub mod metrics;
pub mod protocol;
pub mod session;
pub mod shutdown;

pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use cache::LruCache;
pub use engine::{Engine, EngineConfig, EngineHooks, Response, ServeError, Ticket};
pub use fallback::Fallback;
pub use fault::{
    corrupt_bytes, garble_line, splitmix64, truncate_line, FaultAction, FaultPlan, FaultSpec,
    NoFaults, ScriptedFaultPlan,
};
pub use lane::{NetBackend, ShardLane, WireError};
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{
    format_error, format_response, parse_request, parse_request_bytes, ProtocolError, Request,
};
pub use session::run_line_session;
