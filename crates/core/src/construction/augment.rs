//! Stage 4 — graph structure augmentation (paper §III-A3): attach the four
//! network-centrality measures (degree, closeness, betweenness, PageRank;
//! Eq. 8–11) to every node of the compressed graph.

use crate::construction::address_graph::AddressGraph;

/// Compute and attach `[degree, closeness, betweenness, pagerank]` to every
/// node of the graph, in place.
pub fn augment_with_centralities(g: &mut AddressGraph) {
    let c = g.topology().centralities();
    for (i, node) in g.nodes.iter_mut().enumerate() {
        node.centrality = c.of_node(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::address_graph::{Edge, Node, NodeKind, Side};
    use btcsim::Address;

    fn star_graph(fanout: usize) -> AddressGraph {
        // focus -> tx -> fanout receivers
        let mut nodes = vec![
            Node::new(NodeKind::Focus, Some(Address(0))),
            Node::new(NodeKind::Transaction, None),
        ];
        let mut edges = vec![Edge {
            addr_node: 0,
            tx_node: 1,
            value: 1.0,
            side: Side::Input,
        }];
        for i in 0..fanout {
            nodes.push(Node::new(NodeKind::Address, Some(Address(10 + i as u64))));
            edges.push(Edge {
                addr_node: 2 + i,
                tx_node: 1,
                value: 0.1,
                side: Side::Output,
            });
        }
        AddressGraph {
            focus: Address(0),
            slice_index: 0,
            start_timestamp: 0,
            num_txs: 1,
            nodes,
            edges,
        }
    }

    #[test]
    fn centralities_are_attached_to_every_node() {
        let mut g = star_graph(5);
        augment_with_centralities(&mut g);
        for n in &g.nodes {
            assert!(n.centrality.iter().all(|v| v.is_finite()));
        }
        // The transaction node is the star centre: max degree & betweenness.
        let tx = &g.nodes[1];
        assert_eq!(tx.centrality[0], 6.0); // degree: focus + 5 receivers
        for (i, n) in g.nodes.iter().enumerate() {
            if i != 1 {
                assert!(tx.centrality[2] >= n.centrality[2], "betweenness of centre");
                assert!(tx.centrality[3] >= n.centrality[3], "pagerank of centre");
            }
        }
    }

    #[test]
    fn leaves_have_symmetric_centralities() {
        let mut g = star_graph(4);
        augment_with_centralities(&mut g);
        let first_leaf = g.nodes[2].centrality;
        for leaf in &g.nodes[3..] {
            for (got, want) in leaf.centrality.iter().zip(&first_leaf) {
                assert!((got - want).abs() < 1e-9);
            }
        }
    }
}
