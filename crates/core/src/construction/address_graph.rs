//! The address-transaction graph representation shared by all four
//! construction stages (paper §III-A).

use crate::construction::sfe::SfeFeatures;
use btcsim::Address;

/// Which side of a transaction an address-edge sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The address funds the transaction.
    Input,
    /// The address receives from the transaction.
    Output,
}

/// Node categories of the (progressively compressed) heterogeneous graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The address whose behavior is being classified.
    Focus,
    /// A transaction node.
    Transaction,
    /// An uncompressed counterparty address.
    Address,
    /// Merged single-transaction addresses (paper Fig. 3).
    SingleHyper,
    /// Merged multi-transaction addresses (paper Fig. 4).
    MultiHyper,
}

/// A node with its SFE and (later) centrality features. The transfer values
/// SFE summarises live on the edges and nowhere else.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    pub kind: NodeKind,
    /// Representative original address (`None` for transaction nodes).
    pub address: Option<Address>,
    /// How many original address nodes this node stands for.
    pub merged_count: usize,
    /// Statistical features of the transfer values of every adjacent
    /// original edge (seeded from the raw slice's edges; hyper nodes get the
    /// SFE of the edges they merge).
    pub sfe: SfeFeatures,
    /// `[degree, closeness, betweenness, pagerank]`, filled by Stage 4.
    pub centrality: [f64; 4],
}

impl Node {
    pub fn new(kind: NodeKind, address: Option<Address>) -> Self {
        Self {
            kind,
            address,
            merged_count: usize::from(kind != NodeKind::Transaction),
            sfe: SfeFeatures::default(),
            centrality: [0.0; 4],
        }
    }

    pub fn is_address_like(&self) -> bool {
        self.kind != NodeKind::Transaction
    }
}

/// An edge between an address-like node and a transaction node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Index of the address-like node.
    pub addr_node: usize,
    /// Index of the transaction node.
    pub tx_node: usize,
    /// Transferred amount in BTC.
    pub value: f64,
    pub side: Side,
}

/// One slice graph of an address (≤ `slice_size` transactions), at any stage
/// of the construction pipeline.
#[derive(Clone, Debug)]
pub struct AddressGraph {
    /// The address this graph describes.
    pub focus: Address,
    /// Which slice of the address history this is (0-based).
    pub slice_index: usize,
    /// Timestamp of the first transaction in the slice.
    pub start_timestamp: u64,
    /// Number of transactions in the slice.
    pub num_txs: usize,
    pub nodes: Vec<Node>,
    pub edges: Vec<Edge>,
}

impl AddressGraph {
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Count nodes of a given kind.
    pub fn count_kind(&self, kind: NodeKind) -> usize {
        self.nodes.iter().filter(|n| n.kind == kind).count()
    }

    /// The flat adjacency Stage 4 and tensor assembly run on. Neighbour
    /// lists follow edge order; transferred values play no part in it.
    pub fn topology(&self) -> graphalgo::Topology {
        let mut t = graphalgo::Topology::default();
        self.topology_into(&mut t);
        t
    }

    /// [`AddressGraph::topology`] into a reused buffer.
    pub fn topology_into(&self, t: &mut graphalgo::Topology) {
        let edges = self.edges.iter().map(|e| (e.addr_node, e.tx_node));
        t.refill(self.nodes.len(), edges);
    }

    /// The same topology as a `graphalgo` edge-list builder, for callers
    /// that hold on to the builder form.
    pub fn to_graph(&self) -> graphalgo::Graph {
        let mut g = graphalgo::Graph::new(self.nodes.len());
        for e in &self.edges {
            g.add_edge(e.addr_node, e.tx_node);
        }
        g
    }

    /// Structural invariants every stage must preserve. Used by tests and
    /// debug assertions:
    /// * node 0 is the focus;
    /// * edges connect address-like nodes to transaction nodes;
    /// * edge endpoints are in range;
    /// * every transaction node has at least one edge.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() || self.nodes[0].kind != NodeKind::Focus {
            return Err("node 0 must be the focus address".into());
        }
        let mut tx_touched = vec![false; self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            if e.addr_node >= self.nodes.len() || e.tx_node >= self.nodes.len() {
                return Err(format!("edge {i} endpoint out of range"));
            }
            if !self.nodes[e.addr_node].is_address_like() {
                return Err(format!("edge {i}: addr endpoint is not address-like"));
            }
            if self.nodes[e.tx_node].kind != NodeKind::Transaction {
                return Err(format!("edge {i}: tx endpoint is not a transaction"));
            }
            if !e.value.is_finite() || e.value < 0.0 {
                return Err(format!("edge {i}: bad value {}", e.value));
            }
            tx_touched[e.tx_node] = true;
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.kind == NodeKind::Transaction && !tx_touched[i] {
                return Err(format!("transaction node {i} has no edges"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> AddressGraph {
        let nodes = vec![
            Node::new(NodeKind::Focus, Some(Address(0))),
            Node::new(NodeKind::Transaction, None),
            Node::new(NodeKind::Address, Some(Address(1))),
        ];
        AddressGraph {
            focus: Address(0),
            slice_index: 0,
            start_timestamp: 0,
            num_txs: 1,
            nodes,
            edges: vec![
                Edge {
                    addr_node: 0,
                    tx_node: 1,
                    value: 1.0,
                    side: Side::Input,
                },
                Edge {
                    addr_node: 2,
                    tx_node: 1,
                    value: 1.0,
                    side: Side::Output,
                },
            ],
        }
    }

    #[test]
    fn invariants_hold_for_valid_graph() {
        assert_eq!(tiny_graph().check_invariants(), Ok(()));
    }

    #[test]
    fn invariants_catch_bad_focus() {
        let mut g = tiny_graph();
        g.nodes[0].kind = NodeKind::Address;
        assert!(g.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_orphan_tx() {
        let mut g = tiny_graph();
        g.nodes.push(Node::new(NodeKind::Transaction, None));
        assert!(g.check_invariants().unwrap_err().contains("no edges"));
    }

    #[test]
    fn invariants_catch_edge_between_addresses() {
        let mut g = tiny_graph();
        g.edges[0].tx_node = 2; // address, not tx
        assert!(g.check_invariants().is_err());
    }

    #[test]
    fn to_graph_preserves_shape() {
        let g = tiny_graph().to_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.topology().degree(1), 2);
        assert_eq!(tiny_graph().topology().neighbors(1), [0, 2]);
    }

    #[test]
    fn count_kind_counts() {
        let g = tiny_graph();
        assert_eq!(g.count_kind(NodeKind::Transaction), 1);
        assert_eq!(g.count_kind(NodeKind::Focus), 1);
        assert_eq!(g.count_kind(NodeKind::SingleHyper), 0);
    }
}
