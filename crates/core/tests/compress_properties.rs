//! Property-based tests of graph construction and compression on randomly
//! generated transaction histories: structural invariants, mass
//! conservation, and monotone shrinkage must hold for *any* input — and the
//! production Stage 2–3 kernels must be byte-identical to a deliberately
//! naive dense reference of Eq. 3–7 that lives only in this file, as Stage 4
//! and tensor assembly must be to a naive reference of Eq. 8–12.

use baclassifier::construction::{
    augment_with_centralities, compress_multi_tx, compress_single_tx, construct_address_graphs,
    extract_original_graphs, graphs_identical, sfe, AddressGraph, Edge, MultiCompressParams, Node,
    NodeKind, Side,
};
use baclassifier::features::graph_tensors;
use baclassifier::ConstructionConfig;
use btcsim::{Address, AddressRecord, Amount, Dataset, Label, SimConfig, Simulator, TxView, Txid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Strategy: a random transaction history for focus address 0.
/// Counterparties are drawn from a small id pool so that both single- and
/// multi-transaction addresses occur.
/// A quarter of the amounts are zero satoshis, so hyper edges that sum to
/// +0.0 are common rather than a one-in-a-million draw.
fn history_strategy() -> impl Strategy<Value = AddressRecord> {
    let sats = || (0u64..4, 0u64..1_000_000).prop_map(|(k, v)| if k == 0 { 0 } else { v });
    let tx = (
        proptest::collection::vec((1u64..40, sats()), 0..6), // other inputs
        proptest::collection::vec((1u64..40, sats()), 1..8), // outputs
        any::<bool>(),                                       // focus side
    );
    proptest::collection::vec(tx, 1..30).prop_map(|txs| {
        let views = txs
            .into_iter()
            .enumerate()
            .map(|(i, (mut ins, mut outs, focus_in))| {
                // The focus participates in every tx of its own history.
                if focus_in {
                    ins.push((0, 500_000));
                } else {
                    outs.push((0, 400_000));
                }
                TxView {
                    txid: Txid(i as u64),
                    timestamp: i as u64 * 600,
                    inputs: ins
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                    outputs: outs
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                }
            })
            .collect();
        AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs: views,
        }
    })
}

/// Plain counterparty nodes of a graph as `(address, node index)`.
fn plain_addresses(g: &AddressGraph) -> impl Iterator<Item = (Option<Address>, usize)> + '_ {
    let nodes = g.nodes.iter().enumerate();
    nodes
        .filter(|(_, n)| n.kind == NodeKind::Address)
        .map(|(i, n)| (n.address, i))
}

/// How many of `input`'s edges sit at a plain address the stage that
/// produced `output` merged away — what that stage's hyper nodes summarise.
fn merged_edges(input: &AddressGraph, output: &AddressGraph) -> usize {
    let kept: BTreeMap<_, _> = plain_addresses(output).collect();
    let merged: Vec<usize> = plain_addresses(input)
        .filter(|(address, _)| !kept.contains_key(address))
        .map(|(_, i)| i)
        .collect();
    let at_merged = |e: &&Edge| merged.contains(&e.addr_node);
    input.edges.iter().filter(at_merged).count()
}

/// Total SFE count over the hyper nodes of one kind.
fn summarised(g: &AddressGraph, kind: NodeKind) -> usize {
    let hypers = g.nodes.iter().filter(|n| n.kind == kind);
    hypers.map(|n| n.sfe.count() as usize).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_through_both_compressions(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            prop_assert_eq!(g.check_invariants(), Ok(()));
            let s2 = compress_single_tx(&g);
            prop_assert_eq!(s2.check_invariants(), Ok(()));
            let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
            prop_assert_eq!(s3.check_invariants(), Ok(()));
        }
    }

    #[test]
    fn compression_never_increases_node_count(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            let s2 = compress_single_tx(&g);
            prop_assert!(s2.num_nodes() <= g.num_nodes());
            let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
            prop_assert!(s3.num_nodes() <= s2.num_nodes());
            // Transaction nodes and the focus are never removed.
            prop_assert_eq!(
                s3.count_kind(NodeKind::Transaction),
                g.count_kind(NodeKind::Transaction)
            );
            prop_assert_eq!(s3.count_kind(NodeKind::Focus), 1);
        }
    }

    #[test]
    fn address_mass_and_value_are_conserved(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            let s3 = compress_multi_tx(
                &compress_single_tx(&g),
                MultiCompressParams::default(),
            );
            let mass_before =
                g.nodes.iter().filter(|n| n.is_address_like()).count();
            let mass_after: usize = s3
                .nodes
                .iter()
                .filter(|n| n.is_address_like())
                .map(|n| n.merged_count)
                .sum();
            prop_assert_eq!(mass_before, mass_after);
            let value_before: f64 = g.edges.iter().map(|e| e.value).sum();
            let value_after: f64 = s3.edges.iter().map(|e| e.value).sum();
            prop_assert!((value_before - value_after).abs() < 1e-9 * (1.0 + value_before));
        }
    }

    #[test]
    fn sfe_count_matches_merged_edge_count(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            let s2 = compress_single_tx(&g);
            let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
            prop_assert_eq!(summarised(&s2, NodeKind::SingleHyper), merged_edges(&g, &s2));
            prop_assert_eq!(summarised(&s3, NodeKind::MultiHyper), merged_edges(&s2, &s3));
            for n in &s3.nodes {
                if matches!(n.kind, NodeKind::SingleHyper | NodeKind::MultiHyper) {
                    prop_assert!(n.sfe.count() as usize >= n.merged_count, "an edge per member");
                    prop_assert!(n.merged_count >= 2, "hyper node of fewer than 2");
                }
            }
        }
    }

    #[test]
    fn slicing_partitions_the_history(record in history_strategy(), slice in 1usize..12) {
        let graphs = extract_original_graphs(&record, slice);
        let total: usize = graphs.iter().map(|g| g.num_txs).sum();
        prop_assert_eq!(total, record.txs.len());
        prop_assert_eq!(graphs.len(), record.txs.len().div_ceil(slice));
        for w in graphs.windows(2) {
            prop_assert!(w[0].start_timestamp <= w[1].start_timestamp);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle: a dense, allocation-happy reference of Stages 2–3 written straight
// from the paper's equations. It shares no code with `compress.rs`; the
// production kernels must reproduce it byte for byte.
// ---------------------------------------------------------------------------

/// Sorted distinct transaction nodes each node has an edge to.
fn oracle_tx_sets(g: &AddressGraph) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(); g.nodes.len()];
    for e in &g.edges {
        if !sets[e.addr_node].contains(&e.tx_node) {
            sets[e.addr_node].push(e.tx_node);
        }
    }
    sets.iter_mut().for_each(|s| s.sort_unstable());
    sets
}

/// Merge each group (ascending node indices) into one hyper node appended
/// after the kept nodes; parallel `(hyper, tx, side)` edges collapse to
/// their sum, emitted in key order with the output side first.
fn oracle_merge(g: &AddressGraph, groups: &[Vec<usize>], kind: NodeKind) -> AddressGraph {
    let group_of = |n: usize| groups.iter().position(|grp| grp.contains(&n));
    let mut new_index = vec![usize::MAX; g.nodes.len()];
    let mut nodes: Vec<Node> = Vec::new();
    for (i, n) in g.nodes.iter().enumerate() {
        if group_of(i).is_none() {
            new_index[i] = nodes.len();
            nodes.push(*n);
        }
    }
    let first_hyper = nodes.len();
    for group in groups {
        let mut hyper = Node::new(kind, g.nodes[group[0]].address);
        hyper.merged_count = group.iter().map(|&n| g.nodes[n].merged_count).sum();
        nodes.push(hyper);
    }
    let mut edges = Vec::new();
    let mut collapsed: BTreeMap<(usize, usize, bool), f64> = BTreeMap::new();
    let mut merged_values = vec![Vec::new(); groups.len()];
    for e in &g.edges {
        let tx = new_index[e.tx_node];
        match group_of(e.addr_node) {
            None => edges.push(Edge {
                addr_node: new_index[e.addr_node],
                tx_node: tx,
                ..*e
            }),
            Some(gi) => {
                *collapsed
                    .entry((first_hyper + gi, tx, e.side == Side::Input))
                    .or_insert(0.0) += e.value;
                merged_values[gi].push(e.value);
            }
        }
    }
    for ((addr_node, tx_node, is_input), value) in collapsed {
        edges.push(Edge {
            addr_node,
            tx_node,
            value,
            side: if is_input { Side::Input } else { Side::Output },
        });
    }
    for (hyper, values) in nodes[first_hyper..].iter_mut().zip(&merged_values) {
        hyper.sfe = sfe(values);
    }
    AddressGraph {
        nodes,
        edges,
        ..g.clone()
    }
}

/// Stage 2 (Fig. 3): per transaction and side, the plain counterparties seen
/// in that transaction only become one hyper node; a node's side is the side
/// of its first edge.
fn oracle_single(g: &AddressGraph) -> AddressGraph {
    let sets = oracle_tx_sets(g);
    let mut groups: BTreeMap<(usize, bool), Vec<usize>> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        if i != 0 && n.kind == NodeKind::Address && sets[i].len() == 1 {
            let first = g.edges.iter().find(|e| e.addr_node == i).expect("has a tx");
            groups
                .entry((sets[i][0], first.side == Side::Input))
                .or_default()
                .push(i);
        }
    }
    let groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    oracle_merge(g, &groups, NodeKind::SingleHyper)
}

/// Stage 3 (Fig. 4, Eq. 3–7) with dense matrices: A is candidates ×
/// transactions, S = AAᵀ, M = SD⁻¹ (m_ij = s_ij / s_jj), q_i = the
/// co-occurring j ≠ i with m_ij > Ψ; seeds in order of (|q_i| descending,
/// i ascending) with |q_i| > σ absorb their still-free neighbours.
fn oracle_multi(g: &AddressGraph, p: MultiCompressParams) -> AddressGraph {
    let sets = oracle_tx_sets(g);
    let multi: Vec<usize> = (1..g.nodes.len())
        .filter(|&i| g.nodes[i].kind == NodeKind::Address && sets[i].len() >= 2)
        .collect();
    let n = multi.len();
    let txs: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| g.nodes[i].kind == NodeKind::Transaction)
        .collect();
    let a: Vec<Vec<f64>> = multi
        .iter()
        .map(|&node| {
            txs.iter()
                .map(|tx| f64::from(u8::from(sets[node].contains(tx))))
                .collect()
        })
        .collect();
    let s: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| a[i].iter().zip(&a[j]).map(|(x, y)| x * y).sum())
                .collect()
        })
        .collect();
    let q: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && s[i][j] > 0.0 && s[i][j] / s[j][j] > p.psi)
                .collect()
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(q[i].len()), i));
    let mut taken = vec![false; n];
    let mut groups = Vec::new();
    for i in order {
        if taken[i] || q[i].len() <= p.sigma {
            continue;
        }
        taken[i] = true;
        let mut group = vec![multi[i]];
        for &j in &q[i] {
            if !taken[j] {
                taken[j] = true;
                group.push(multi[j]);
            }
        }
        if group.len() >= 2 {
            group.sort_unstable();
            groups.push(group);
        }
    }
    oracle_merge(g, &groups, NodeKind::MultiHyper)
}

const PSIS: [f64; 7] = [-0.5, 0.0, 0.3, 0.5, 0.9, 1.0, 1.5];

/// Stage 2, then Stage 3 at every listed (Ψ, σ), production vs oracle.
fn assert_matches_oracle(
    g: &AddressGraph,
    settings: impl IntoIterator<Item = (f64, usize)>,
) -> Result<(), TestCaseError> {
    let s2 = compress_single_tx(g);
    prop_assert_eq!(
        graphs_identical(std::slice::from_ref(&s2), &[oracle_single(g)]),
        Ok(())
    );
    for (psi, sigma) in settings {
        let p = MultiCompressParams { psi, sigma };
        // On the raw graph too: the same candidates under another node
        // numbering and edge order, with no hyper edges among them.
        for input in [g, &s2] {
            prop_assert_eq!(
                graphs_identical(&[compress_multi_tx(input, p)], &[oracle_multi(input, p)]),
                Ok(()),
                "psi {} sigma {}",
                psi,
                sigma
            );
        }
    }
    Ok(())
}

fn all_settings() -> impl Iterator<Item = (f64, usize)> {
    PSIS.into_iter()
        .flat_map(|psi| (0..=3).map(move |sigma| (psi, sigma)))
}

fn record_of(txs: Vec<TxView>) -> AddressRecord {
    AddressRecord {
        address: Address(0),
        label: Label::Mining,
        txs,
    }
}

/// Mining-pool payouts: every transaction pays `lo..=hi` payees drawn from a
/// pool of `pool` addresses, so co-membership is dense and overlapping.
fn payout_history(seed: u64, num_txs: usize, pool: u64, lo: usize, hi: usize) -> AddressRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let txs = (0..num_txs)
        .map(|t| {
            let payees = rng.gen_range(lo..=hi);
            let outputs = (0..payees)
                .map(|_| {
                    let payee = Address(rng.gen_range(1..=pool));
                    (payee, Amount::from_sats(rng.gen_range(1_000..5_000_000u64)))
                })
                .collect();
            TxView {
                txid: Txid(t as u64),
                timestamp: t as u64 * 600,
                inputs: vec![(Address(0), Amount::from_sats(900_000_000))],
                outputs,
            }
        })
        .collect();
    record_of(txs)
}

/// A slice of exactly `num_txs` transactions over a small pool, so tx-sets
/// straddle the 64-transaction word boundaries; one counterparty in five
/// sits on both sides of its transaction.
fn boundary_history(seed: u64, num_txs: usize) -> AddressRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let txs = (0..num_txs)
        .map(|t| {
            let mut inputs = vec![(Address(0), Amount::from_sats(700_000))];
            let mut outputs = Vec::new();
            for _ in 0..rng.gen_range(1..=5usize) {
                let entry = (
                    Address(rng.gen_range(1..=24u64)),
                    Amount::from_sats(rng.gen_range(1..900_000u64)),
                );
                match rng.gen_range(0..5u32) {
                    0 => {
                        inputs.push(entry);
                        outputs.push(entry);
                    }
                    1 | 2 => inputs.push(entry),
                    _ => outputs.push(entry),
                }
            }
            // A one-shot address per side keeps Stage 2 busy in every tx.
            outputs.push((Address(1_000 + t as u64), Amount::from_sats(5_000)));
            outputs.push((Address(2_000 + t as u64), Amount::from_sats(6_000)));
            TxView {
                txid: Txid(t as u64),
                timestamp: t as u64 * 600,
                inputs,
                outputs,
            }
        })
        .collect();
    record_of(txs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_match_oracle_on_thin_histories(record in history_strategy(), slice in 1usize..31) {
        for g in extract_original_graphs(&record, slice) {
            assert_matches_oracle(&g, all_settings())?;
        }
    }

    #[test]
    fn stage_4_matches_oracle_on_thin_histories(record in history_strategy(), slice in 1usize..31) {
        for g in extract_original_graphs(&record, slice) {
            assert_stage_4_matches_oracle(&g)?;
            let s2 = compress_single_tx(&g);
            assert_stage_4_matches_oracle(&compress_multi_tx(&s2, MultiCompressParams::default()))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn kernels_match_oracle_on_payout_cohorts(
        seed in any::<u64>(),
        num_txs in 2usize..=40,
        psi in 0usize..PSIS.len(),
        sigma in 0usize..=3,
    ) {
        let record = payout_history(seed, num_txs, 400, 50, 300);
        for g in extract_original_graphs(&record, 100) {
            assert_matches_oracle(&g, [(0.5, 1), (PSIS[psi], sigma)])?;
        }
    }

    #[test]
    fn stage_4_matches_oracle_on_payout_cohorts(seed in any::<u64>(), num_txs in 1usize..=6) {
        // Hundreds of payees per transaction: raw slices of ~400 nodes whose
        // majority has degree 1, and what Stages 2–3 leave of them.
        let record = payout_history(seed, num_txs, 400, 150, 300);
        for g in extract_original_graphs(&record, 100) {
            assert_stage_4_matches_oracle(&g)?;
            let s2 = compress_single_tx(&g);
            assert_stage_4_matches_oracle(&compress_multi_tx(&s2, MultiCompressParams::default()))?;
        }
    }

    #[test]
    fn kernels_match_oracle_across_word_boundaries(seed in any::<u64>()) {
        for num_txs in [63usize, 64, 65, 100, 128, 130] {
            let record = boundary_history(seed ^ num_txs as u64, num_txs);
            let graphs = extract_original_graphs(&record, num_txs);
            prop_assert_eq!(graphs.len(), 1);
            assert_matches_oracle(&graphs[0], all_settings())?;
        }
    }
}

#[test]
fn exact_tie_is_not_above_the_threshold() {
    // 1 and 2 share only tx 1 of their two txs each: m = 1/2, which is not
    // > Ψ = 0.5 but is > 0.49.
    let pay = |t: u64, to: &[u64]| TxView {
        txid: Txid(t),
        timestamp: t * 600,
        inputs: vec![(Address(0), Amount::from_sats(90_000))],
        outputs: to
            .iter()
            .map(|&a| (Address(a), Amount::from_sats(10_000)))
            .collect(),
    };
    let record = record_of(vec![pay(0, &[1]), pay(1, &[1, 2]), pay(2, &[2])]);
    let g = extract_original_graphs(&record, 100).remove(0);
    let at = |psi| compress_multi_tx(&g, MultiCompressParams { psi, sigma: 0 });
    assert_eq!(at(0.5).count_kind(NodeKind::MultiHyper), 0);
    assert_eq!(at(0.49).count_kind(NodeKind::MultiHyper), 1);
    assert_matches_oracle(&g, all_settings()).unwrap();
}

#[test]
fn node_on_both_sides_of_its_only_tx_joins_the_input_group() {
    // 7 funds and is paid by the one tx (first edge: input); 8 only funds.
    let record = record_of(vec![TxView {
        txid: Txid(0),
        timestamp: 0,
        inputs: [0, 7, 8]
            .map(|a| (Address(a), Amount::from_sats(50_000)))
            .to_vec(),
        outputs: [7, 9, 10]
            .map(|a| (Address(a), Amount::from_sats(40_000)))
            .to_vec(),
    }]);
    let g = extract_original_graphs(&record, 100).remove(0);
    let s2 = compress_single_tx(&g);
    let merged: Vec<usize> = s2
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::SingleHyper)
        .map(|n| n.merged_count)
        .collect();
    assert_eq!(
        merged,
        [2, 2],
        "{{9,10}} on the output side, then {{7,8}} on the input side"
    );
    assert_matches_oracle(&g, all_settings()).unwrap();
}

// ---------------------------------------------------------------------------
// Oracle of Stage 4 and tensor assembly: one traversal per measure over
// nested adjacency lists and a dense Ã, in the operation order of the code
// the CSR kernels replaced. It shares no code with `graphalgo`.
// ---------------------------------------------------------------------------

/// Neighbour lists in edge order, each edge listed at both endpoints.
fn oracle_adjacency(g: &AddressGraph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.nodes.len()];
    for e in &g.edges {
        adj[e.addr_node].push(e.tx_node);
        adj[e.tx_node].push(e.addr_node);
    }
    adj
}

/// Eq. 9 with the reachable-fraction correction, by one BFS per node.
fn oracle_closeness(adj: &[Vec<usize>]) -> Vec<f64> {
    let n = adj.len();
    (0..n)
        .map(|s| {
            let mut dist = vec![usize::MAX; n];
            let mut queue = VecDeque::from([s]);
            dist[s] = 0;
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let reached = dist.iter().filter(|&&d| d != usize::MAX && d > 0);
            let (reachable, total) = (reached.clone().count(), reached.sum::<usize>());
            if total == 0 {
                return 0.0;
            }
            (reachable as f64 / (n - 1) as f64) * (reachable as f64 / total as f64)
        })
        .collect()
}

/// Eq. 10 by Brandes' algorithm with explicit predecessor lists.
fn oracle_betweenness(adj: &[Vec<usize>]) -> Vec<f64> {
    let n = adj.len();
    let mut bc = vec![0.0f64; n];
    for s in 0..n {
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![usize::MAX; n];
        let mut delta = vec![0.0f64; n];
        let mut stack = Vec::new();
        let mut queue = VecDeque::from([s]);
        sigma[s] = 1.0;
        dist[s] = 0;
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in &adj[v] {
                if dist[w] == usize::MAX {
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
    bc.iter().map(|x| x / 2.0).collect()
}

/// Eq. 11: damping 0.85, L1 tolerance 1e-9, at most 100 iterations.
fn oracle_pagerank(adj: &[Vec<usize>]) -> Vec<f64> {
    let n = adj.len();
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    for _ in 0..100 {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0;
        for u in 0..n {
            if adj[u].is_empty() {
                dangling += rank[u];
            }
            for &v in &adj[u] {
                next[v] += rank[u] / adj[u].len() as f64;
            }
        }
        let base = (1.0 - 0.85) * uniform + 0.85 * dangling * uniform;
        let mut diff = 0.0;
        for v in 0..n {
            let r = base + 0.85 * next[v];
            diff += (r - rank[v]).abs();
            rank[v] = r;
        }
        if diff < 1e-9 {
            break;
        }
    }
    rank
}

/// Eq. 12 as a dense matrix: Ã = D̃^-1/2 (A + I) D̃^-1/2.
fn oracle_normalized_adjacency(adj: &[Vec<usize>]) -> Vec<Vec<f32>> {
    let n = adj.len();
    let mut a = vec![vec![0.0f32; n]; n];
    for u in 0..n {
        a[u][u] += 1.0;
        adj[u].iter().for_each(|&v| a[u][v] += 1.0);
    }
    let inv_sqrt: Vec<f32> = a
        .iter()
        .map(|row| 1.0 / row.iter().sum::<f32>().sqrt())
        .collect();
    (0..n)
        .map(|u| {
            (0..n)
                .map(|v| inv_sqrt[u] * a[u][v] * inv_sqrt[v])
                .collect()
        })
        .collect()
}

/// `augment_with_centralities` and `graph_tensors` against the oracle, bit
/// for bit: four measures per node, degrees, every entry of Ã.
fn assert_stage_4_matches_oracle(g: &AddressGraph) -> Result<(), TestCaseError> {
    let adj = oracle_adjacency(g);
    let want: [Vec<f64>; 4] = [
        adj.iter().map(|nbrs| nbrs.len() as f64).collect(),
        oracle_closeness(&adj),
        oracle_betweenness(&adj),
        oracle_pagerank(&adj),
    ];
    let mut augmented = g.clone();
    augment_with_centralities(&mut augmented);
    for (i, node) in augmented.nodes.iter().enumerate() {
        let measures = ["degree", "closeness", "betweenness", "pagerank"];
        for (k, measure) in measures.iter().enumerate() {
            prop_assert_eq!(
                node.centrality[k].to_bits(),
                want[k][i].to_bits(),
                "{} of node {} of {}",
                measure,
                i,
                g.nodes.len()
            );
        }
    }
    let t = graph_tensors(&augmented);
    let degrees: Vec<f32> = adj.iter().map(|nbrs| nbrs.len() as f32).collect();
    prop_assert_eq!(&t.degrees, &degrees);
    prop_assert_eq!(t.adj.n(), adj.len());
    for (r, dense_row) in oracle_normalized_adjacency(&adj).iter().enumerate() {
        let want: Vec<(usize, u32)> = dense_row
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(c, v)| (c, v.to_bits()))
            .collect();
        let got: Vec<(usize, u32)> = t.adj.row(r).map(|(c, v)| (c, v.to_bits())).collect();
        prop_assert_eq!(got, want, "row {} of Ã", r);
    }
    Ok(())
}

/// FNV-1a, the hash both golden digests below fold their bits into.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn graph(&mut self, g: &AddressGraph) {
        for v in [
            g.focus.0,
            g.slice_index as u64,
            g.start_timestamp,
            g.num_txs as u64,
        ] {
            self.u64(v);
        }
        self.u64(g.nodes.len() as u64);
        for n in &g.nodes {
            self.u64(n.kind as u64);
            self.u64(n.address.map_or(u64::MAX, |a| a.0));
            self.u64(n.merged_count as u64);
            let floats = n.sfe.0.iter().chain(&n.centrality);
            floats.for_each(|v| self.u64(v.to_bits()));
        }
        self.u64(g.edges.len() as u64);
        for e in &g.edges {
            for v in [e.addr_node as u64, e.tx_node as u64, e.value.to_bits()] {
                self.u64(v);
            }
            self.u64(u64::from(e.side == Side::Input));
        }
    }

    /// Stage 4 and tensor assembly of one graph: every node's centralities,
    /// then `x`, `degrees` and every `(col, value)` of every row of Ã.
    fn stage4_and_tensors(&mut self, g: &mut AddressGraph) {
        augment_with_centralities(g);
        for n in &g.nodes {
            n.centrality.iter().for_each(|c| self.u64(c.to_bits()));
        }
        let t = graph_tensors(g);
        let floats = t.x.as_slice().iter().chain(&t.degrees);
        floats.for_each(|v| self.u64(u64::from(v.to_bits())));
        self.u64(t.adj.n() as u64);
        for r in 0..t.adj.n() {
            self.u64(t.adj.row(r).count() as u64);
            for (c, v) in t.adj.row(r) {
                self.u64(c as u64);
                self.u64(u64::from(v.to_bits()));
            }
        }
    }
}

/// The address records of the fixed simulated chain the digests walk.
fn golden_chain() -> Vec<AddressRecord> {
    let sim = Simulator::run_to_completion(SimConfig::tiny(2023));
    Dataset::from_simulator(&sim, 2).records
}

/// Every Stage 1 slice graph of the golden chain, at slice sizes 16 and 100,
/// with the record count.
fn golden_chain_slices() -> (Vec<AddressGraph>, usize) {
    let records = golden_chain();
    let mut graphs = Vec::new();
    for record in &records {
        for slice_size in [16, 100] {
            graphs.extend(extract_original_graphs(record, slice_size));
        }
    }
    (graphs, records.len())
}

/// Digest of every field of every Stage 2 and Stage 3 graph. The constant
/// was recorded at the last commit whose nodes kept a second copy of their
/// edges' values, with that copy (never an input to anything) left out of
/// the hash; with it in, the digest was the one recorded before the
/// bit-matrix kernels replaced the hash-map implementation.
#[test]
fn golden_digest_of_stages_2_and_3_is_unchanged() {
    let (graphs, records) = golden_chain_slices();
    let mut fnv = Fnv::new();
    let mut merged = 0;
    for g in &graphs {
        let s2 = compress_single_tx(g);
        let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
        merged += s3.count_kind(NodeKind::SingleHyper) + s3.count_kind(NodeKind::MultiHyper);
        fnv.graph(&s2);
        fnv.graph(&s3);
    }
    assert!(
        merged > 100,
        "the chain must exercise both stages ({merged} hyper nodes)"
    );
    assert_eq!(fnv.0, 0xcbbd_97f0_05ce_3316, "{records} records");
}

/// Digest of Stage 4 and `graph_tensors` on every raw and every compressed
/// slice of the same chain. The constant was recorded at the commit before
/// the CSR topology and the fused Brandes sweep replaced the per-measure
/// traversals over nested adjacency lists.
#[test]
fn golden_digest_of_stage_4_and_tensors_is_unchanged() {
    let (graphs, records) = golden_chain_slices();
    let mut fnv = Fnv::new();
    let mut nodes = 0;
    for mut raw in graphs {
        let s2 = compress_single_tx(&raw);
        let mut s3 = compress_multi_tx(&s2, MultiCompressParams::default());
        nodes += raw.num_nodes() + s3.num_nodes();
        fnv.stage4_and_tensors(&mut raw);
        fnv.stage4_and_tensors(&mut s3);
    }
    assert!(
        nodes > 10_000,
        "the chain must be non-trivial ({nodes} nodes)"
    );
    assert_eq!(fnv.0, 0x4c9b_7970_340b_f801, "{records} records");
}

/// `txs` transactions, each funded by the focus and paying the same `payees`
/// addresses (the payout cohorts of `alloc_budget.rs`).
fn payout_record(txs: u64, payees: u64) -> AddressRecord {
    let payout = |t| TxView {
        txid: Txid(t),
        timestamp: t * 600,
        inputs: vec![(Address(0), Amount::from_sats(900_000_000))],
        outputs: (1..=payees)
            .map(|a| (Address(a), Amount::from_sats(1_000 + a + t)))
            .collect(),
    };
    record_of((0..txs).map(payout).collect())
}

/// The public stage chain, ablations included: what every derivation must
/// give.
fn public_chain(record: &AddressRecord, cfg: &ConstructionConfig) -> Vec<AddressGraph> {
    let params = MultiCompressParams {
        psi: cfg.psi,
        sigma: cfg.sigma,
    };
    let derive = |raw: AddressGraph| {
        let mut g = match cfg.compress {
            true => compress_multi_tx(&compress_single_tx(&raw), params),
            false => raw,
        };
        if cfg.augment {
            augment_with_centralities(&mut g);
        }
        g
    };
    let raw = extract_original_graphs(record, cfg.slice_size);
    raw.into_iter().map(derive).collect()
}

/// `construct_address_graphs` plans both compressions on the raw slice,
/// rebuilds it once and seeds only the nodes that survive; it must give the
/// public chain's bytes — and, with compression off, still seed every node.
#[test]
fn derivation_is_the_public_stage_chain() {
    let cohorts = [payout_record(1, 448), payout_record(8, 451)];
    let records: Vec<AddressRecord> = golden_chain().into_iter().chain(cohorts).collect();
    let mut slices = 0;
    for (compress, augment) in [(false, false), (false, true), (true, false), (true, true)] {
        for slice_size in [4, 16, 100] {
            let cfg = ConstructionConfig {
                slice_size,
                compress,
                augment,
                ..Default::default()
            };
            for record in &records {
                let derived = construct_address_graphs(record, &cfg);
                assert_eq!(
                    graphs_identical(&derived, &public_chain(record, &cfg)),
                    Ok(()),
                    "{:?}, slice size {slice_size}, compress {compress}, augment {augment}",
                    record.address
                );
                slices += derived.len();
            }
        }
    }
    assert!(slices > 10_000, "{slices} slices");
}
