//! Network-centrality measures used by graph structure augmentation
//! (paper §III-A3, Eq. 8–11): degree, closeness, betweenness, PageRank.

use crate::graph::Graph;
use crate::topology::Topology;

const UNSEEN: u32 = u32::MAX;

/// Per-node state of one source's sweep; every field of a reached node is
/// put back to `CLEAR` before the next source starts.
#[derive(Clone, Copy)]
struct Visit {
    /// Hops from the source, `UNSEEN` until reached.
    dist: u32,
    /// Number of shortest paths from the source.
    sigma: f64,
    /// Brandes' dependency of the source on this node.
    delta: f64,
}

const CLEAR: Visit = Visit {
    dist: UNSEEN,
    sigma: 0.0,
    delta: 0.0,
};

impl Topology {
    /// Closeness (Eq. 9) and betweenness (Eq. 10) of every node, written to
    /// the two `num_nodes`-long outputs, from one breadth-first sweep per
    /// source at most.
    ///
    /// Closeness is `(|V|-1) / Σ_t d(v,t)` over the nodes reachable from `v`
    /// (Wasserman–Faust corrected for disconnected graphs: scaled by the
    /// reachable fraction); isolated nodes get 0. Betweenness is Brandes'
    /// algorithm, unweighted, each pair counted once (the result is halved).
    /// The distances Brandes' forward pass computes are exactly closeness's
    /// input, so the two share it.
    ///
    /// A leaf (a node whose one neighbour is another node, its hub) replays
    /// its hub's sweep instead of running its own: seen from the leaf, the
    /// hub's BFS order has the leaf moved to the front, so every σ and every
    /// dependency but the hub's gets the same terms in the same order. One
    /// sweep at a time is kept for the turns that replay it.
    pub fn closeness_betweenness(&self, closeness: &mut [f64], betweenness: &mut [f64]) {
        let n = self.num_nodes();
        assert!(
            closeness.len() == n && betweenness.len() == n,
            "one output slot per node"
        );
        closeness.fill(0.0);
        betweenness.fill(0.0);
        // One workspace for all n sources, each buffer in two halves. In the
        // first, `queue` is the BFS queue on the way out and the stack on the
        // way back, and `state` is by node. The second keeps one sweep: the
        // node it reached i-th and its final state at i.
        let (mut order, mut visit) = (vec![0u32; 2 * n], vec![CLEAR; 2 * n]);
        let (queue, kept_order) = order.split_at_mut(n);
        let (state, kept_state) = visit.split_at_mut(n);
        // The kept sweep's source, its reached count and its distance sum.
        let mut kept: Option<(usize, usize, usize)> = None;
        // Whether `s`'s turn can replay the sweep from `h`: its own, or its
        // hub's (which adds the hub's dependency on the leaf too: 0, so the
        // leaf's betweenness keeps its bits).
        let replays = |h: usize, s: usize| h == s || self.hub_of(s) == Some(h);
        for s in 0..n {
            let (h, reached, total) = match kept {
                Some(k @ (h, reached, _)) if replays(h, s) => {
                    let sweep = kept_order[1..reached].iter().zip(&kept_state[1..]);
                    sweep.for_each(|(&w, v)| betweenness[w as usize] += v.delta);
                    k
                }
                _ => {
                    // The hub's sweep is run, and kept, only when the next
                    // turn replays it too; otherwise `s` sweeps for itself.
                    let hub = self.hub_of(s).unwrap_or(s);
                    let keep = s + 1 < n && replays(hub, s + 1);
                    let h = if keep { hub } else { s };
                    state[h].dist = 0;
                    state[h].sigma = 1.0;
                    queue[0] = h as u32;
                    let (mut head, mut reached, mut total) = (0, 1, 0usize);
                    while head < reached {
                        let v = queue[head] as usize;
                        head += 1;
                        let next_dist = state[v].dist + 1;
                        let sigma_v = state[v].sigma;
                        for &w in self.neighbors(v) {
                            let visit = &mut state[w as usize];
                            if visit.dist == UNSEEN {
                                visit.dist = next_dist;
                                total += next_dist as usize;
                                queue[reached] = w;
                                reached += 1;
                            }
                            if visit.dist == next_dist {
                                visit.sigma += sigma_v;
                            }
                        }
                    }
                    // Farthest first; `queue[0]` is the source, which has no
                    // predecessors and takes no share of its own paths. A
                    // node's predecessors are its neighbours one hop nearer
                    // the source: no list of them is kept, since each `delta`
                    // still receives its terms in the order the nodes behind
                    // it come off the stack.
                    for i in (1..reached).rev() {
                        let w = queue[i] as usize;
                        let Visit { dist, sigma, delta } = state[w];
                        for &v in self.neighbors(w) {
                            let v = &mut state[v as usize];
                            if v.dist == dist - 1 {
                                v.delta += v.sigma / sigma * (1.0 + delta);
                            }
                        }
                        betweenness[w] += delta;
                    }
                    // Kept by position, then cleared for the next source (a
                    // pass of its own: in the loop above it cost the sweeps
                    // no turn replays ~5 %).
                    if keep {
                        kept_order[..reached].copy_from_slice(&queue[..reached]);
                        for i in 1..reached {
                            kept_state[i] = state[queue[i] as usize];
                        }
                        kept = Some((h, reached, total));
                    }
                    for &w in &queue[..reached] {
                        state[w as usize] = CLEAR;
                    }
                    (h, reached, total)
                }
            };
            // A leaf's distances are its hub's plus one, its own dropped.
            let total = if h == s { total } else { total + reached - 2 };
            if total > 0 {
                // (reachable / (n-1)) * (reachable / total): the standard
                // correction so components of different sizes are comparable.
                let reachable = (reached - 1) as f64;
                closeness[s] = (reachable / (n - 1) as f64) * (reachable / total as f64);
            }
            if h != s {
                // The hub's dependency on the leaf's paths: the terms of its
                // level-1 nodes but the leaf's, in stack order, one per
                // parallel edge (a level-1 node's σ counts them).
                let level1 = kept_state[1..reached]
                    .iter()
                    .take_while(|v| v.dist == 1)
                    .count();
                let nodes = kept_order[1..=level1].iter().zip(&kept_state[1..=level1]);
                let terms = nodes
                    .rev()
                    .filter(|(&w, _)| w as usize != s)
                    .flat_map(|(_, v)| {
                        std::iter::repeat_n(1.0 / v.sigma * (1.0 + v.delta), v.sigma as usize)
                    });
                betweenness[h] += terms.fold(0.0, |delta_h, term| delta_h + term);
            }
        }
        // Undirected: every pair (s, t) was counted twice.
        betweenness.iter_mut().for_each(|x| *x /= 2.0);
    }

    /// The hub of a leaf: `Some(h)` when `v`'s neighbour list is `[h]`,
    /// `h != v`.
    fn hub_of(&self, v: usize) -> Option<usize> {
        match *self.neighbors(v) {
            [h] if h as usize != v => Some(h as usize),
            _ => None,
        }
    }

    /// PageRank (Eq. 11) of every node, written to the `num_nodes`-long
    /// `rank`, with damping factor `alpha`, run to `tol` convergence or
    /// `max_iter`. Dangling mass is redistributed uniformly.
    pub fn pagerank(&self, rank: &mut [f64], alpha: f64, tol: f64, max_iter: usize) {
        let n = self.num_nodes();
        assert_eq!(rank.len(), n, "one output slot per node");
        if n == 0 {
            return;
        }
        let uniform = 1.0 / n as f64;
        rank.fill(uniform);
        let mut next = vec![0.0f64; n];
        for _ in 0..max_iter {
            let mut dangling = 0.0;
            next.fill(0.0);
            for u in 0..n {
                let deg = self.degree(u);
                if deg == 0 {
                    dangling += rank[u];
                } else {
                    let share = rank[u] / deg as f64;
                    for &v in self.neighbors(u) {
                        next[v as usize] += share;
                    }
                }
            }
            let base = (1.0 - alpha) * uniform + alpha * dangling * uniform;
            let mut diff = 0.0;
            for v in 0..n {
                let r = base + alpha * next[v];
                diff += (r - rank[v]).abs();
                rank[v] = r;
            }
            if diff < tol {
                break;
            }
        }
    }

    /// The full centrality bundle the augmentation stage attaches to every
    /// node. PageRank's damping, tolerance and iteration cap are part of the
    /// trained model's input.
    pub fn centralities(&self) -> Centralities {
        let n = self.num_nodes();
        let mut values = vec![0.0f64; 4 * n];
        let (degree, rest) = values.split_at_mut(n);
        let (closeness, rest) = rest.split_at_mut(n);
        let (betweenness, pagerank) = rest.split_at_mut(n);
        // Eq. 8: C_D(v) = degree(v).
        for (v, d) in degree.iter_mut().enumerate() {
            *d = self.degree(v) as f64;
        }
        self.closeness_betweenness(closeness, betweenness);
        self.pagerank(pagerank, 0.85, 1e-9, 100);
        Centralities { values }
    }
}

/// All four centralities of every node, one measure after the other in one
/// buffer, each in node order.
#[derive(Clone, Debug)]
pub struct Centralities {
    values: Vec<f64>,
}

impl Centralities {
    fn measure(&self, k: usize) -> &[f64] {
        let n = self.values.len() / 4;
        &self.values[k * n..(k + 1) * n]
    }

    pub fn degree(&self) -> &[f64] {
        self.measure(0)
    }

    pub fn closeness(&self) -> &[f64] {
        self.measure(1)
    }

    pub fn betweenness(&self) -> &[f64] {
        self.measure(2)
    }

    pub fn pagerank(&self) -> &[f64] {
        self.measure(3)
    }

    /// `[degree, closeness, betweenness, pagerank]` of node `v`.
    pub fn of_node(&self, v: usize) -> [f64; 4] {
        [0, 1, 2, 3].map(|k| self.measure(k)[v])
    }
}

/// [`Topology::centralities`] of a graph still in builder form.
pub fn all_centralities(g: &Graph) -> Centralities {
    g.topology().centralities()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3-4 path.
    fn path5() -> Topology {
        Topology::from_edges(5, (0..4).map(|i| (i, i + 1)))
    }

    /// Star with center 0 and leaves 1..=4.
    fn star5() -> Topology {
        Topology::from_edges(5, (1..5).map(|i| (0, i)))
    }

    fn closeness_betweenness(t: &Topology) -> (Vec<f64>, Vec<f64>) {
        let c = t.centralities();
        (c.closeness().to_vec(), c.betweenness().to_vec())
    }

    fn pagerank(t: &Topology, tol: f64, max_iter: usize) -> Vec<f64> {
        let mut rank = vec![0.0; t.num_nodes()];
        t.pagerank(&mut rank, 0.85, tol, max_iter);
        rank
    }

    #[test]
    fn degree_of_star_center() {
        let c = star5().centralities();
        assert_eq!(c.degree(), [4.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(c.of_node(0)[0], 4.0);
    }

    #[test]
    fn closeness_star_center_is_max() {
        let (c, _) = closeness_betweenness(&star5());
        assert!(c[0] > c[1]);
        // center: distance 1 to all 4 others -> closeness 1.0
        assert!((c[0] - 1.0).abs() < 1e-12);
        // leaf: 1 + 2 + 2 + 2 = 7 -> 4/7
        assert!((c[1] - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_of_isolated_node_is_zero() {
        let (c, _) = closeness_betweenness(&Topology::from_edges(3, [].into_iter()));
        assert_eq!(c, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn betweenness_path_matches_formula() {
        // For a path of 5 nodes, middle node lies on all shortest paths
        // between {0,1} x {3,4} plus (1,3)... Known values: [0, 3, 4, 3, 0].
        let (_, b) = closeness_betweenness(&path5());
        let expect = [0.0, 3.0, 4.0, 3.0, 0.0];
        for (i, e) in expect.iter().enumerate() {
            assert!((b[i] - e).abs() < 1e-9, "node {i}: {} vs {e}", b[i]);
        }
    }

    #[test]
    fn betweenness_star_center() {
        // Star K_{1,4}: center on all C(4,2)=6 pairs.
        let (_, b) = closeness_betweenness(&star5());
        assert!((b[0] - 6.0).abs() < 1e-9);
        for leaf in 1..5 {
            assert!(b[leaf].abs() < 1e-12);
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_center_highest() {
        let pr = pagerank(&star5(), 1e-12, 200);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(pr[0] > pr[1]);
        // Symmetric leaves get identical rank.
        for leaf in 2..5 {
            assert!((pr[leaf] - pr[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_handles_all_isolated() {
        let pr = pagerank(&Topology::from_edges(4, [].into_iter()), 1e-12, 50);
        for r in pr {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn all_centralities_lengths() {
        let mut g = Graph::new(5);
        (0..4).for_each(|i| g.add_edge(i, i + 1));
        let c = all_centralities(&g);
        assert_eq!(c.degree().len(), 5);
        assert_eq!(c.closeness().len(), 5);
        assert_eq!(c.betweenness().len(), 5);
        assert_eq!(c.pagerank().len(), 5);
    }
}
