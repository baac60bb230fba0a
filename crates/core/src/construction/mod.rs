//! Address graph construction (paper §III-A): original graph extraction,
//! graph node compression, and graph structure augmentation.

pub mod address_graph;
pub mod augment;
pub mod compress;
pub mod extract;
pub mod incremental;
pub mod pipeline;
pub mod sfe;

pub use address_graph::{AddressGraph, Edge, Node, NodeKind, Side};
pub use augment::augment_with_centralities;
pub use compress::{compress_multi_tx, compress_single_tx, MultiCompressParams};
pub use extract::extract_original_graphs;
pub use incremental::{graphs_identical, IncrementalGraphs};
pub use pipeline::construct_address_graphs;
pub use sfe::{sfe, SfeFeatures, SFE_DIM};
