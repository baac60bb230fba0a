//! # btcsim — a deterministic Bitcoin UTXO blockchain simulator
//!
//! Stands in for the paper's 2.1M-address crawled dataset (see DESIGN.md
//! substitution table): behavior-driven actors emit transactions whose
//! *observable structure* — fan-in/fan-out shape, value distributions,
//! temporal cadence, change-address behavior — matches each of the four
//! labeled behavior categories (Table I): exchange, mining, gambling,
//! service.
//!
//! Pipeline: build a [`sim::SimConfig`], run a [`sim::Simulator`], then
//! extract a labeled [`dataset::Dataset`] of per-address chronological
//! transaction histories.
//!
//! ```
//! use btcsim::sim::{SimConfig, Simulator};
//! use btcsim::dataset::Dataset;
//!
//! let sim = Simulator::run_to_completion(SimConfig::tiny(42));
//! let dataset = Dataset::from_simulator(&sim, 2);
//! assert!(dataset.class_counts().iter().all(|&c| c > 0));
//! ```

pub mod actors;
pub mod address;
pub mod amount;
pub mod block;
pub mod cursor;
pub mod dataset;
pub mod dist;
pub mod sim;
pub mod tx;
pub mod utxo;
pub mod wallet;

pub use address::{Address, Label};
pub use amount::Amount;
pub use block::{Block, Chain};
pub use cursor::BlockCursor;
pub use dataset::{AddressRecord, Dataset, TxView};
pub use sim::{SimConfig, Simulator};
pub use tx::{OutPoint, Transaction, TxIn, TxOut, Txid};
pub use utxo::{UndoLog, UtxoEntry, UtxoError, UtxoSet};
