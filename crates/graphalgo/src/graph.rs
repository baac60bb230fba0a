//! Edge-list builder for an undirected multigraph on dense node indices
//! `0..n`. Algorithms do not read it: they read the [`Topology`] it flattens
//! to.

use crate::topology::Topology;

/// An undirected multigraph under construction: a node count and the edges
/// in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Graph with `n` isolated nodes.
    ///
    /// # Panics
    /// Panics if `n` does not fit `u32`.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "node count does not fit u32");
        Self {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge. Parallel edges are allowed (multi-graph).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge endpoint out of range"
        );
        self.edges.push((u as u32, v as u32));
    }

    /// Flatten to the CSR adjacency the algorithms run on; neighbour lists
    /// are in edge insertion order and a self-loop lists its node once.
    pub fn topology(&self) -> Topology {
        let edges = self.edges.iter().map(|&(u, v)| (u as usize, v as usize));
        Topology::from_edges(self.num_nodes, edges)
    }
}

/// What the test oracle traverses; no algorithm reads these.
#[cfg(test)]
impl Graph {
    /// Nested adjacency lists, built the way `add_edge` used to keep them.
    pub(crate) fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.num_nodes];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v as usize);
            if u != v {
                adj[v as usize].push(u as usize);
            }
        }
        adj
    }

    /// Breadth-first distances (in hops) from `source`; `usize::MAX` marks
    /// unreachable nodes.
    pub(crate) fn bfs_distances(&self, source: usize) -> Vec<usize> {
        let adj = self.adjacency();
        let mut dist = vec![usize::MAX; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn construction_and_degree() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.topology().degree(1), 2);
    }

    #[test]
    fn self_loop_counted_once_in_adjacency() {
        let mut g = Graph::new(1);
        g.add_edge(0, 0);
        assert_eq!(g.topology().degree(0), 1);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], usize::MAX);
        assert_eq!(d[3], usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
