//! Test-only reference: the per-measure traversals over nested adjacency
//! lists and the `BTreeMap`-per-node Ã that the CSR kernels replaced, kept
//! as they were. The kernels must reproduce every bit of their output.

use crate::centrality::all_centralities;
use crate::graph::Graph;
use crate::sparse::{normalized_adjacency, CsrMatrix};
use proptest::prelude::*;

fn closeness_centrality(g: &Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut out = vec![0.0; n];
    if n <= 1 {
        return out;
    }
    for v in 0..n {
        let dist = g.bfs_distances(v);
        let mut total = 0usize;
        let mut reachable = 0usize;
        for (t, &d) in dist.iter().enumerate() {
            if t != v && d != usize::MAX {
                total += d;
                reachable += 1;
            }
        }
        if total > 0 {
            out[v] = (reachable as f64 / (n - 1) as f64) * (reachable as f64 / total as f64);
        }
    }
    out
}

fn betweenness_centrality(adj: &[Vec<usize>]) -> Vec<f64> {
    let n = adj.len();
    let mut bc = vec![0.0f64; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i64; n];
    let mut delta = vec![0.0f64; n];
    let mut queue = std::collections::VecDeque::new();

    for s in 0..n {
        stack.clear();
        for p in preds.iter_mut() {
            p.clear();
        }
        sigma.iter_mut().for_each(|x| *x = 0.0);
        dist.iter_mut().for_each(|x| *x = -1);
        delta.iter_mut().for_each(|x| *x = 0.0);
        sigma[s] = 1.0;
        dist[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in &adj[v] {
                if dist[w] < 0 {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v);
                }
            }
        }
        while let Some(w) = stack.pop() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
    }
    bc.iter_mut().for_each(|x| *x /= 2.0);
    bc
}

fn pagerank(adj: &[Vec<usize>], alpha: f64, tol: f64, max_iter: usize) -> Vec<f64> {
    let n = adj.len();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..max_iter {
        let mut dangling = 0.0;
        next.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n {
            let deg = adj[u].len();
            if deg == 0 {
                dangling += rank[u];
            } else {
                let share = rank[u] / deg as f64;
                for &v in &adj[u] {
                    next[v] += share;
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
    rank
}

/// `[degree, closeness, betweenness, pagerank]`, each in node order.
fn oracle_centralities(g: &Graph) -> [Vec<f64>; 4] {
    let adj = g.adjacency();
    [
        adj.iter().map(|nbrs| nbrs.len() as f64).collect(),
        closeness_centrality(g),
        betweenness_centrality(&adj),
        pagerank(&adj, 0.85, 1e-9, 100),
    ]
}

fn oracle_normalized_adjacency(g: &Graph) -> CsrMatrix {
    let adj = g.adjacency();
    let n = adj.len();
    let mut weights: Vec<std::collections::BTreeMap<usize, f32>> = vec![Default::default(); n];
    for u in 0..n {
        *weights[u].entry(u).or_insert(0.0) += 1.0; // self-loop
        for &v in &adj[u] {
            *weights[u].entry(v).or_insert(0.0) += 1.0;
        }
    }
    let deg: Vec<f32> = weights
        .iter()
        .map(|row| row.values().sum::<f32>())
        .collect();
    let inv_sqrt: Vec<f32> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut triplets = Vec::new();
    for (u, row) in weights.iter().enumerate() {
        for (&v, &w) in row {
            triplets.push((u, v, inv_sqrt[u] * w * inv_sqrt[v]));
        }
    }
    CsrMatrix::from_triplets(n, triplets)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn rows(m: &CsrMatrix) -> Vec<Vec<(usize, u32)>> {
    (0..m.n())
        .map(|r| m.row(r).map(|(c, v)| (c, v.to_bits())).collect())
        .collect()
}

/// All four measures and Ã through the `Graph` entry points, bit for bit
/// against the oracle.
fn assert_kernels_match_oracle(g: &Graph) -> Result<(), TestCaseError> {
    let (got, [degree, closeness, betweenness, pagerank]) =
        (all_centralities(g), oracle_centralities(g));
    prop_assert_eq!(bits(got.degree()), bits(&degree), "degree");
    prop_assert_eq!(bits(got.closeness()), bits(&closeness), "closeness");
    prop_assert_eq!(bits(got.betweenness()), bits(&betweenness), "betweenness");
    prop_assert_eq!(bits(got.pagerank()), bits(&pagerank), "pagerank");
    for v in 0..g.num_nodes() {
        let want = [degree[v], closeness[v], betweenness[v], pagerank[v]];
        prop_assert_eq!(bits(&got.of_node(v)), bits(&want), "node {}", v);
    }
    let (got, want) = (normalized_adjacency(g), oracle_normalized_adjacency(g));
    prop_assert_eq!(got.n(), want.n());
    prop_assert_eq!(rows(&got), rows(&want), "normalized adjacency");
    Ok(())
}

fn graph_of(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
    let mut g = Graph::new(n);
    for (u, v) in edges {
        g.add_edge(u, v);
    }
    g
}

/// Address–transaction shaped multigraphs: `addrs` nodes on one side, `txs`
/// on the other, `isolated` nodes with no edge at all; endpoints are drawn
/// from a sub-pool `spread` wide, so narrow pools give parallel edges and a
/// sparse edge list leaves several components.
fn bipartite_strategy() -> impl Strategy<Value = Graph> {
    (
        1usize..40,
        1usize..12,
        0usize..4,
        1usize..40,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
    )
        .prop_map(|(addrs, txs, isolated, spread, raw)| {
            let edges = raw.into_iter().map(|(a, t)| {
                let a = a as usize % addrs.min(spread);
                (a, addrs + t as usize % txs)
            });
            graph_of(addrs + txs + isolated, edges)
        })
}

/// Arbitrary multigraphs on a few nodes: odd cycles, self-loops, parallel
/// edges — shapes Stage 4 never sees but the `Graph` entry points accept.
fn general_strategy() -> impl Strategy<Value = Graph> {
    (
        1usize..24,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
    )
        .prop_map(|(n, raw)| {
            let edges = raw
                .into_iter()
                .map(|(u, v)| (u as usize % n, v as usize % n));
            graph_of(n, edges)
        })
}

/// Hubs with pendant leaves, the shape whose leaves replay their hub's
/// sweep. Each pendant draws a hub, so unshuffled its leaves alternate
/// between hubs; shuffled, leaves come before their hub too. Some pendants
/// are no leaf (a doubled edge), some make a two-node component with a
/// spare node, some put a self-loop on their hub.
fn leafy_strategy() -> impl Strategy<Value = Graph> {
    (
        1usize..5,
        proptest::collection::vec((any::<u32>(), 0u8..8), 0..24),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        proptest::collection::vec(any::<u32>(), 64),
    )
        .prop_map(|(hubs, pendants, core, keys)| {
            let n = hubs + 2 * pendants.len();
            let hub = |x: u32| x as usize % hubs;
            let mut edges: Vec<_> = core.iter().map(|&(u, v)| (hub(u), hub(v))).collect();
            for (i, &(h, kind)) in pendants.iter().enumerate() {
                let (leaf, h) = (hubs + 2 * i, hub(h));
                match kind {
                    0 => edges.push((leaf, leaf + 1)),
                    1 => edges.extend([(leaf, h), (h, leaf)]),
                    2 => edges.extend([(leaf, h), (h, h)]),
                    _ => edges.push((leaf, h)),
                }
            }
            let mut position: Vec<usize> = (0..n).collect();
            if keys[63] % 2 == 0 {
                position.sort_by_key(|&v| keys[v]);
            }
            graph_of(
                n,
                edges.into_iter().map(|(u, v)| (position[u], position[v])),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernels_match_oracle_on_hubs_with_leaves(g in leafy_strategy()) {
        assert_kernels_match_oracle(&g)?;
    }

    #[test]
    fn kernels_match_oracle_on_bipartite_multigraphs(g in bipartite_strategy()) {
        assert_kernels_match_oracle(&g)?;
    }

    #[test]
    fn kernels_match_oracle_on_general_graphs_with_self_loops(g in general_strategy()) {
        assert_kernels_match_oracle(&g)?;
    }
}

#[test]
fn kernels_match_oracle_on_one_and_two_node_graphs() {
    for g in [
        graph_of(0, []),
        graph_of(1, []),
        graph_of(1, [(0, 0)]),
        graph_of(2, []),
        graph_of(2, [(0, 1)]),
        graph_of(2, [(0, 1), (1, 0), (1, 1)]),
    ] {
        assert_kernels_match_oracle(&g).unwrap();
    }
}

#[test]
fn kernels_match_oracle_on_a_star_of_stars() {
    // One hub transaction paying 200 leaves, each tenth leaf funding a
    // transaction of its own with three more payees: the shape of a payout
    // slice, with degree-1 nodes the majority.
    let mut edges = Vec::new();
    let mut n = 1;
    for leaf in 0..200 {
        let addr = n;
        n += 1;
        edges.push((addr, 0));
        if leaf % 10 == 0 {
            let tx = n;
            n += 1;
            edges.push((addr, tx));
            for _ in 0..3 {
                edges.push((n, tx));
                n += 1;
            }
        }
    }
    assert_kernels_match_oracle(&graph_of(n, edges)).unwrap();
}
