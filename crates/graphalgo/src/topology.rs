//! The one adjacency representation every algorithm in this crate reads: a
//! flat CSR topology over dense node indices `0..n`.

/// Undirected multigraph adjacency in compressed-sparse-row form, in one
/// allocation: `data[u]..data[u + 1]` is the range of `data` itself that
/// holds the neighbours of `u`, in edge insertion order. A parallel edge
/// repeats its neighbour; a self-loop lists its node once.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    num_nodes: usize,
    /// `num_nodes + 1` range bounds, one unused slot, then every neighbour
    /// list back to back.
    data: Vec<u32>,
}

impl Topology {
    /// Build from an undirected edge list by one counting pass and one
    /// filling pass over `edges`.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`, or if the node count plus twice the
    /// edge count (the most endpoints the lists can hold) does not fit `u32`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: ExactSizeIterator<Item = (usize, usize)> + Clone,
    {
        let mut t = Self::default();
        t.refill(n, edges);
        t
    }

    /// [`Topology::from_edges`] into this topology's buffer, which makes no
    /// allocator call once it has held a graph as large.
    pub fn refill<I>(&mut self, n: usize, edges: I)
    where
        I: ExactSizeIterator<Item = (usize, usize)> + Clone,
    {
        let len = (edges.len().checked_mul(2))
            .and_then(|endpoints| endpoints.checked_add(n)?.checked_add(2))
            .filter(|&len| u32::try_from(len).is_ok())
            .expect("node and edge endpoint counts do not fit u32");
        let first = n + 2;
        // Degrees are counted two slots up, so that after the prefix sum
        // `data[u + 1]` is where `u`'s range starts; filling advances it to
        // where the range ends, which is where `u + 1`'s starts.
        let data = &mut self.data;
        data.clear();
        data.resize(len, 0);
        for (u, v) in edges.clone() {
            assert!(u < n && v < n, "edge endpoint out of range");
            data[u + 2] += 1;
            if u != v {
                data[v + 2] += 1;
            }
        }
        data[0] = first as u32;
        data[1] = first as u32;
        for u in 2..first {
            data[u] += data[u - 1];
        }
        for (u, v) in edges {
            let slot = data[u + 1] as usize;
            data[slot] = v as u32;
            data[u + 1] += 1;
            if u != v {
                let slot = data[v + 1] as usize;
                data[slot] = u as u32;
                data[v + 1] += 1;
            }
        }
        // Self-loops fill one slot of the two reserved for them.
        let used = data[n] as usize;
        data.truncate(used);
        self.num_nodes = n;
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of incident edge endpoints (a self-loop counts once).
    pub fn degree(&self, u: usize) -> usize {
        assert!(u < self.num_nodes, "node out of range");
        (self.data[u + 1] - self.data[u]) as usize
    }

    /// Neighbours of `u` in edge insertion order.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        assert!(u < self.num_nodes, "node out of range");
        &self.data[self.data[u] as usize..self.data[u + 1] as usize]
    }

    /// Total length of all neighbour lists.
    pub fn num_endpoints(&self) -> usize {
        self.data.len() - (self.num_nodes + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbour_lists_keep_insertion_order() {
        let edges = [(0, 2), (1, 0), (0, 2), (3, 3), (2, 1)];
        let t = Topology::from_edges(5, edges.iter().copied());
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.neighbors(0), [2, 1, 2]);
        assert_eq!(t.neighbors(1), [0, 2]);
        assert_eq!(t.neighbors(2), [0, 0, 1]);
        assert_eq!(t.neighbors(3), [3], "a self-loop is listed once");
        assert_eq!(t.neighbors(4), [0u32; 0]);
        let degrees: Vec<usize> = (0..5).map(|u| t.degree(u)).collect();
        assert_eq!(degrees, [3, 2, 3, 1, 0]);
        assert_eq!(t.num_endpoints(), 9);
    }

    #[test]
    fn empty_graph_has_no_nodes() {
        let t = Topology::from_edges(0, [].into_iter());
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_endpoints(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn endpoint_past_the_node_count_is_refused() {
        Topology::from_edges(2, [(0, 2)].into_iter());
    }

    #[test]
    #[should_panic(expected = "do not fit u32")]
    fn node_count_past_u32_is_refused() {
        // Refused before anything is allocated.
        Topology::from_edges(u32::MAX as usize + 1, [].into_iter());
    }

    #[test]
    #[should_panic(expected = "do not fit u32")]
    fn endpoint_count_past_u32_is_refused() {
        // 2^31 edges are 2^32 endpoints; refused before the first is read.
        Topology::from_edges(2, std::iter::repeat_n((0, 1), 1 << 31));
    }
}
