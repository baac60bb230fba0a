//! # graphalgo — graph structures, centralities, and sparse propagation
//!
//! Substrate for BAClassifier's address-transaction graphs:
//!
//! * [`Topology`] — the flat CSR adjacency of an undirected multigraph that
//!   every algorithm here reads, built from an edge list in one counting
//!   pass; [`Graph`] is the edge-list builder that flattens to it;
//! * [`centrality`] — degree, closeness and betweenness (one fused Brandes
//!   sweep), PageRank: exactly the four measures of the paper's graph
//!   structure augmentation (§III-A3, Eq. 8–11);
//! * [`sparse`] — CSR matrices, the normalised adjacency
//!   Ã = D̃^{-1/2}(A+I)D̃^{-1/2} (Eq. 12) and the feature-propagation stack
//!   `[X, ÃX, …, ÃᵏX]` (Eq. 13) that feeds GFN.

// Index loops over several parallel arrays at once are the clearest
// form for this numeric code; the `enumerate` rewrites clippy suggests
// obscure which arrays advance together.
#![allow(clippy::needless_range_loop)]

pub mod centrality;
pub mod graph;
#[cfg(test)]
mod oracle;
pub mod sparse;
pub mod topology;

pub use centrality::{all_centralities, Centralities};
pub use graph::Graph;
pub use sparse::{normalized_adjacency, propagate_in_place, CsrMatrix};
pub use topology::Topology;
