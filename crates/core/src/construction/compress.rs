//! Stages 2 and 3 — graph node compression (paper §III-A2):
//! single-transaction address compression (Fig. 3) merges the one-shot
//! counterparties of each transaction into per-side hyper nodes;
//! multi-transaction address compression (Fig. 4) merges recurring
//! counterparties with similar connectivity via the similarity framework
//! S = AAᵀ, M = SD⁻¹, Q = ReLU(M − Ψ·I) (Eq. 3–7).

use crate::construction::address_graph::{AddressGraph, Edge, Node, NodeKind, Side};
use crate::construction::sfe::seed_sfe;

/// "No transaction" / "no group" / "not a candidate" in the `u32` index
/// vectors below; `tx_sets` asserts every real index is smaller.
const NONE: u32 = u32::MAX;

/// What one pass over the edges learns about a node's transactions.
#[derive(Clone, Copy)]
struct Incidence {
    /// Ordinal of the transaction of the node's first edge (`NONE`: no edges).
    first_tx: u32,
    /// Whether that first edge is on the input side.
    first_is_input: bool,
    /// Whether a later edge reaches a different transaction.
    multi_tx: bool,
}

struct TxSets {
    /// Transaction nodes numbered `0..num_txs` in node order, `NONE` for
    /// address-like nodes. Ordinals order transactions as node indices do.
    ordinal: Vec<u32>,
    num_txs: usize,
    incidence: Vec<Incidence>,
}

/// Number the transaction nodes and classify every node as touching no, one
/// or several distinct transactions.
fn tx_sets(g: &AddressGraph) -> TxSets {
    assert!(
        g.nodes.len() < NONE as usize,
        "slice graph too large for u32 node indices"
    );
    let (mut num_txs, mut ordinal) = (0, vec![NONE; g.nodes.len()]);
    for (ordinal, n) in ordinal.iter_mut().zip(&g.nodes) {
        if n.kind == NodeKind::Transaction {
            *ordinal = num_txs as u32;
            num_txs += 1;
        }
    }
    let mut incidence = vec![
        Incidence {
            first_tx: NONE,
            first_is_input: false,
            multi_tx: false,
        };
        g.nodes.len()
    ];
    for e in &g.edges {
        let tx = ordinal[e.tx_node];
        let inc = &mut incidence[e.addr_node];
        if inc.first_tx == NONE {
            inc.first_tx = tx;
            inc.first_is_input = e.side == Side::Input;
        } else if inc.first_tx != tx {
            inc.multi_tx = true;
        }
    }
    TxSets {
        ordinal,
        num_txs,
        incidence,
    }
}

/// Which hyper node each node of a slice joins. Stages 2 and 3 both plan on
/// the slice as it comes: Stage 2 groups only one-transaction `Address`
/// nodes, Stage 3 only multi-transaction ones, and Stage 2 leaves those
/// nodes' edges and transaction ordinals as they are. So one slice carries
/// both plans and is rebuilt once. Groups `0..single` are Stage 2's, the
/// rest up to `groups` Stage 3's.
pub(crate) struct Merges<'g> {
    g: &'g AddressGraph,
    sets: TxSets,
    /// The group a node joins, `NONE` for a node that is kept.
    group_of: Vec<u32>,
    single: usize,
    groups: usize,
}

impl<'g> Merges<'g> {
    /// No node merged yet.
    pub(crate) fn new(g: &'g AddressGraph) -> Self {
        Self {
            g,
            sets: tx_sets(g),
            group_of: vec![NONE; g.nodes.len()],
            single: 0,
            groups: 0,
        }
    }

    /// Stage 2's groups ([`compress_single_tx`]), numbered before Stage 3's.
    pub(crate) fn plan_single(&mut self) {
        debug_assert_eq!(self.groups, 0, "Stage 2 plans first");
        let (g, sets) = (self.g, &self.sets);
        // One slot per (transaction, side), in the order hyper nodes are
        // appended: by transaction, output side first. A node's side is the
        // side of its first edge (a node with edges on both sides of one tx
        // joins whichever came first — the input side, as extraction emits
        // inputs first).
        let slot_of = |i: usize| {
            let inc = sets.incidence[i];
            let single = i != 0
                && g.nodes[i].kind == NodeKind::Address
                && inc.first_tx != NONE
                && !inc.multi_tx;
            single.then(|| 2 * inc.first_tx as usize + usize::from(inc.first_is_input))
        };
        let mut slots = vec![0u32; 2 * sets.num_txs];
        for slot in (0..g.nodes.len()).filter_map(slot_of) {
            slots[slot] += 1;
        }
        // A slot of two or more members is a group; the count becomes its number.
        for members in &mut slots {
            *members = if *members >= 2 {
                self.groups += 1;
                self.groups as u32 - 1
            } else {
                NONE
            };
        }
        for (i, group) in self.group_of.iter_mut().enumerate() {
            if let Some(slot) = slot_of(i) {
                *group = slots[slot];
            }
        }
        self.single = self.groups;
    }

    /// The slice these merges make, and where each of its nodes went. Kept
    /// nodes keep their order and are followed by one hyper node per group,
    /// represented by its lowest-indexed member's address; kept edges keep
    /// theirs and are followed by each group's parallel edges summed into
    /// one per (transaction, side). Seeds nothing: kept nodes carry their
    /// features over and hyper nodes have none.
    pub(crate) fn rebuild(self) -> (AddressGraph, Vec<u32>) {
        let (g, mut to, groups, single) = (self.g, self.group_of, self.groups, self.single);
        let kept = to.iter().filter(|&&group| group == NONE).count();
        // Every node is written below: a kept one by its copy, a hyper node
        // (merged_count 0 until then) by its first member.
        let mut nodes = vec![Node::new(NodeKind::Transaction, None); kept + groups];
        let mut next = 0;
        for (i, (n, to)) in g.nodes.iter().zip(&mut to).enumerate() {
            let at = if *to == NONE {
                nodes[next] = *n;
                next += 1;
                next - 1
            } else {
                debug_assert!(n.is_address_like() && i != 0, "cannot merge focus/tx nodes");
                let gi = *to as usize;
                let hyper = &mut nodes[kept + gi];
                if hyper.merged_count == 0 {
                    let kind =
                        [NodeKind::MultiHyper, NodeKind::SingleHyper][usize::from(gi < single)];
                    *hyper = Node::new(kind, n.address);
                    hyper.merged_count = 0;
                }
                hyper.merged_count += n.merged_count;
                kept + gi
            };
            *to = at as u32;
        }

        // A merged edge adds its value, in edge order from +0.0, to the slot
        // of its (group, transaction, side): (its transaction node, `NONE`
        // until an edge reaches it; the sum). A Stage 2 group meets one
        // transaction and has two slots, output then input; a Stage 3 group
        // has that pair for every transaction ordinal. So the slots, read in
        // order, are the hyper edges by hyper node, then transaction, then
        // output before input — a zero sum included. The pass also counts
        // the kept edges and the slots it touches, so the edge list is
        // allocated once at its final length.
        let num_txs = self.sets.num_txs;
        let row = |gi: usize| 2 * gi.min(single) + 2 * num_txs * gi.saturating_sub(single);
        let mut slots = vec![(NONE, 0.0); row(groups)];
        let (mut kept_edges, mut hyper_edges) = (0, 0);
        for e in &g.edges {
            let (addr_node, tx_node) = (to[e.addr_node] as usize, to[e.tx_node]);
            debug_assert!((tx_node as usize) < kept, "tx nodes are never merged");
            if addr_node < kept {
                kept_edges += 1;
            } else {
                let gi = addr_node - kept;
                let tx = usize::from(gi >= single) * self.sets.ordinal[e.tx_node] as usize;
                let slot = &mut slots[row(gi) + 2 * tx + usize::from(e.side == Side::Input)];
                debug_assert!(slot.0 == NONE || slot.0 == tx_node);
                hyper_edges += usize::from(slot.0 == NONE);
                *slot = (tx_node, slot.1 + e.value);
            }
        }
        let mut edges: Vec<Edge> = Vec::with_capacity(kept_edges + hyper_edges);
        edges.extend(g.edges.iter().filter_map(|e| {
            let addr_node = to[e.addr_node] as usize;
            (addr_node < kept).then(|| Edge {
                addr_node,
                tx_node: to[e.tx_node] as usize,
                ..*e
            })
        }));
        for gi in 0..groups {
            for (k, &(tx_node, value)) in slots[row(gi)..row(gi + 1)].iter().enumerate() {
                if tx_node != NONE {
                    edges.push(Edge {
                        addr_node: kept + gi,
                        tx_node: tx_node as usize,
                        value,
                        side: [Side::Output, Side::Input][k % 2],
                    });
                }
            }
        }

        let out = AddressGraph {
            focus: g.focus,
            slice_index: g.slice_index,
            start_timestamp: g.start_timestamp,
            num_txs: g.num_txs,
            nodes,
            edges,
        };
        debug_assert_eq!(out.check_invariants(), Ok(()));
        (out, to)
    }

    /// One public stage's output: the rebuilt slice, each hyper node seeded
    /// with the SFE of the transfer values of the addresses merged into it
    /// (paper Eq. 2 / Eq. 7) — the values on the slice's edges at its
    /// members. Kept nodes keep the features they came with.
    fn stage_output(self) -> AddressGraph {
        let (g, groups) = (self.g, self.groups);
        if groups == 0 {
            return g.clone();
        }
        let (mut out, to) = self.rebuild();
        let first_hyper = out.nodes.len() - groups;
        let at = |e: &Edge| [(to[e.addr_node] as usize).checked_sub(first_hyper), None];
        seed_sfe(&mut out.nodes[first_hyper..], &g.edges, at);
        out
    }
}

/// Stage 2 — single-transaction address compression.
///
/// For every transaction, the counterparty addresses that appear in exactly
/// one transaction of the slice are merged into at most two hyper nodes: one
/// for the input side, one for the output side (paper Fig. 3). The focus
/// address is never merged. Groups of one are left unmerged (nothing to
/// compress).
pub fn compress_single_tx(g: &AddressGraph) -> AddressGraph {
    let mut merges = Merges::new(g);
    merges.plan_single();
    merges.stage_output()
}

/// Parameters of Stage 3 (paper Eq. 5–6).
#[derive(Clone, Copy, Debug)]
pub struct MultiCompressParams {
    /// Similarity threshold Ψ: addresses with normalised co-occurrence above
    /// this are merge candidates.
    pub psi: f64,
    /// Retention threshold σ: a node must have more than this many similar
    /// neighbours to seed a hyper node.
    pub sigma: usize,
}

impl Default for MultiCompressParams {
    fn default() -> Self {
        Self { psi: 0.5, sigma: 1 }
    }
}

/// The smallest co-occurrence count `s ≥ 1` with `s / d > psi`, evaluated in
/// the same f64 arithmetic as m_ij = s_ij / s_jj; `d + 1` (which no s_ij
/// reaches, s_ij ≤ s_jj) when there is none. Correctly rounded division is
/// monotone in `s`, so `s_ij ≥ threshold(s_jj, Ψ)` decides exactly what
/// `s_ij / s_jj > Ψ` does — ties, Ψ ≤ 0, Ψ ≥ 1 and NaN included.
fn threshold(d: u32, psi: f64) -> u32 {
    let (mut lo, mut hi) = (1, d + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if f64::from(mid) / f64::from(d) > psi {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Columns `from..` of row `i` of S = AAᵀ (Eq. 3): `out[j - from]` becomes
/// s_ij, the number of transactions candidates `i` and `j` share. `a` holds
/// the bit matrix A as ⌈T/64⌉ planes of `n` words — plane w is word w of
/// every candidate's bit row — so whatever T is, the inner loop streams one
/// plane at unit stride and vectorises.
#[inline(always)]
fn similarity_row(a: &[u64], n: usize, i: usize, from: usize, out: &mut [u32]) {
    out.fill(0);
    for plane in a.chunks_exact(n) {
        let row_i = plane[i];
        for (s_ij, &row_j) in out.iter_mut().zip(&plane[from..]) {
            *s_ij += (row_i & row_j).count_ones();
        }
    }
}

/// Which of Stage 3's two popcount passes [`similarity`] runs; `s_i` is the
/// row buffer of both.
enum Pass<'p> {
    /// The count pass: each s_ij of the upper triangle once, adding j ∈ q_i
    /// (s_ij ≥ `thr[j]`) to `q_len[i]` and i ∈ q_j to `q_len[j]`.
    Count {
        thr: &'p [u32],
        q_len: &'p mut [u32],
    },
    /// Row `i` of S, every column — a seed collecting its members.
    Seed(usize),
}

/// Stage 3's popcount work, one body compiled twice: for baseline x86-64,
/// which has no `popcnt` instruction, and under `avx2,popcnt`, picked at run
/// time (the `numnet::matrix` pattern). The arithmetic is integer, so both
/// give the same counts.
fn similarity(a: &[u64], n: usize, s_i: &mut [u32], pass: Pass<'_>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        // SAFETY: both features are checked at runtime above.
        return unsafe { similarity_avx2(a, n, s_i, pass) };
    }
    similarity_impl(a, n, s_i, pass)
}

/// # Safety
/// The CPU must support `avx2` and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn similarity_avx2(a: &[u64], n: usize, s_i: &mut [u32], pass: Pass<'_>) {
    similarity_impl(a, n, s_i, pass)
}

#[inline(always)]
fn similarity_impl(a: &[u64], n: usize, s_i: &mut [u32], pass: Pass<'_>) {
    let (thr, q_len) = match pass {
        Pass::Seed(i) => return similarity_row(a, n, i, 0, s_i),
        Pass::Count { thr, q_len } => (thr, q_len),
    };
    for i in 0..n {
        let above = i + 1;
        similarity_row(a, n, i, above, &mut s_i[above..]);
        let mut q_i = 0;
        for ((&s_ij, &thr_j), q_j) in s_i[above..]
            .iter()
            .zip(&thr[above..])
            .zip(&mut q_len[above..])
        {
            q_i += u32::from(s_ij >= thr_j);
            *q_j += u32::from(s_ij >= thr[i]);
        }
        q_len[i] += q_i;
    }
}

/// Stage 3 — multi-transaction address compression.
///
/// Over the counterparty addresses appearing in ≥ 2 transactions of the
/// slice, computes the co-occurrence matrix S = AAᵀ, column-normalises
/// M = SD⁻¹ (D = diag(S)), thresholds Q = ReLU(M − Ψ), and greedily merges
/// each high-similarity neighbourhood into a multi-transaction hyper node
/// (paper Fig. 4, Eq. 3–7).
///
/// A is a flat bit matrix: ⌈T/64⌉ words per candidate, bit t set when the
/// candidate has an edge to the slice's t-th transaction. Then
/// s_ij = popcount(row_i & row_j) in exact integers, s_jj = popcount(row_j),
/// and m_ij > Ψ is the integer test s_ij ≥ [`threshold`]`(s_jj, Ψ)`. S, M
/// and Q are never stored: one pass over the upper triangle counts |q_i|,
/// which fixes the seed order, and only the rows that seed a group are
/// computed again to collect their members. Time O(n²·⌈T/64⌉), memory
/// O(n·⌈T/64⌉) for n candidates.
pub fn compress_multi_tx(g: &AddressGraph, params: MultiCompressParams) -> AddressGraph {
    let mut merges = Merges::new(g);
    merges.plan_multi(params);
    merges.stage_output()
}

impl Merges<'_> {
    /// Stage 3's groups ([`compress_multi_tx`]).
    pub(crate) fn plan_multi(&mut self, params: MultiCompressParams) {
        let (g, sets) = (self.g, &self.sets);
        // Candidate nodes: plain multi-transaction counterparties.
        let multi: Vec<usize> = (1..g.nodes.len())
            .filter(|&i| g.nodes[i].kind == NodeKind::Address && sets.incidence[i].multi_tx)
            .collect();
        if multi.len() < 2 {
            return;
        }
        let n = multi.len();

        let mut position = vec![NONE; g.nodes.len()];
        for (p, &node) in multi.iter().enumerate() {
            position[node] = p as u32;
        }
        let mut a = vec![0u64; sets.num_txs.div_ceil(64) * n];
        for e in &g.edges {
            let p = position[e.addr_node];
            if p != NONE {
                let tx = sets.ordinal[e.tx_node] as usize;
                a[tx / 64 * n + p as usize] |= 1 << (tx % 64);
            }
        }

        // j ∈ q_i ⇔ s_ij ≥ thr[j]: M = S·D⁻¹ divides by the *other* node's
        // degree (m_ij = s_ij / s_jj), as the paper's worked example does.
        let mut s_jj = vec![0u32; n];
        for plane in a.chunks_exact(n) {
            for (d, row_j) in s_jj.iter_mut().zip(plane) {
                *d += row_j.count_ones();
            }
        }
        let thr: Vec<u32> = s_jj.iter().map(|&d| threshold(d, params.psi)).collect();
        let mut s_i = vec![0u32; n];
        let mut q_len = vec![0u32; n];
        let count = Pass::Count {
            thr: &thr,
            q_len: &mut q_len,
        };
        similarity(&a, n, &mut s_i, count);

        // Greedy merge: highest-degree-of-similarity seeds first (deterministic
        // tie-break on index). A seed absorbs the members of q_i no earlier seed
        // took; one whose neighbours were all taken keeps its identity but is
        // spent — it neither seeds again nor joins a later group.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(q_len[i]), i));
        let mut taken = vec![false; n];
        for i in order {
            if q_len[i] as usize <= params.sigma {
                break;
            }
            if taken[i] {
                continue;
            }
            taken[i] = true;
            similarity(&a, n, &mut s_i, Pass::Seed(i));
            let mut absorbed = false;
            for j in 0..n {
                if !taken[j] && s_i[j] >= thr[j] {
                    taken[j] = true;
                    self.group_of[multi[j]] = self.groups as u32;
                    absorbed = true;
                }
            }
            if absorbed {
                self.group_of[multi[i]] = self.groups as u32;
                self.groups += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::extract::extract_original_graphs;
    use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};
    use proptest::prelude::*;

    fn view(ts: u64, inputs: &[(u64, f64)], outputs: &[(u64, f64)]) -> TxView {
        TxView {
            txid: Txid(ts * 131 + outputs.len() as u64),
            timestamp: ts,
            inputs: inputs
                .iter()
                .map(|&(a, v)| (Address(a), Amount::from_btc(v)))
                .collect(),
            outputs: outputs
                .iter()
                .map(|&(a, v)| (Address(a), Amount::from_btc(v)))
                .collect(),
        }
    }

    fn graph_of(txs: Vec<TxView>) -> AddressGraph {
        let record = AddressRecord {
            address: Address(0),
            label: Label::Mining,
            txs,
        };
        extract_original_graphs(&record, 100).remove(0)
    }

    #[test]
    fn single_compression_merges_one_shot_outputs() {
        // Focus pays 5 distinct one-shot addresses in one tx.
        let g = graph_of(vec![view(
            0,
            &[(0, 5.0)],
            &[(10, 1.0), (11, 1.0), (12, 1.0), (13, 1.0), (14, 1.0)],
        )]);
        let c = compress_single_tx(&g);
        assert_eq!(c.check_invariants(), Ok(()));
        // focus + tx + 1 output-side hyper
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.count_kind(NodeKind::SingleHyper), 1);
        let hyper = c
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::SingleHyper)
            .unwrap();
        assert_eq!(hyper.merged_count, 5);
        assert_eq!(hyper.sfe.count(), 5.0);
        assert!((hyper.sfe.sum() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn single_compression_keeps_sides_separate() {
        // 3 one-shot funders and 3 one-shot receivers -> 2 hyper nodes.
        let g = graph_of(vec![view(
            0,
            &[(0, 1.0), (20, 1.0), (21, 1.0), (22, 1.0)],
            &[(30, 1.2), (31, 1.2), (32, 1.2)],
        )]);
        let c = compress_single_tx(&g);
        assert_eq!(c.count_kind(NodeKind::SingleHyper), 2);
        // A transaction links to at most two single-hyper nodes (paper).
        let tx = c
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Transaction)
            .unwrap();
        let hyper_links = c
            .edges
            .iter()
            .filter(|e| e.tx_node == tx && c.nodes[e.addr_node].kind == NodeKind::SingleHyper)
            .count();
        assert_eq!(hyper_links, 2);
    }

    #[test]
    fn focus_is_never_merged() {
        let g = graph_of(vec![view(0, &[(0, 1.0)], &[(10, 0.5), (11, 0.5)])]);
        let c = compress_single_tx(&g);
        assert_eq!(c.nodes[0].kind, NodeKind::Focus);
        assert_eq!(c.nodes[0].address, Some(Address(0)));
    }

    #[test]
    fn multi_tx_addresses_survive_single_compression() {
        // Address 9 appears in both txs: not single-tx, stays plain.
        let g = graph_of(vec![
            view(0, &[(0, 1.0)], &[(9, 0.5), (10, 0.5)]),
            view(1, &[(0, 1.0)], &[(9, 0.5), (11, 0.5)]),
        ]);
        let c = compress_single_tx(&g);
        assert!(c
            .nodes
            .iter()
            .any(|n| n.address == Some(Address(9)) && n.kind == NodeKind::Address));
        // 10 and 11 are lone single-tx addresses per (tx, side): groups of
        // one are not merged.
        assert_eq!(c.count_kind(NodeKind::SingleHyper), 0);
    }

    #[test]
    fn multi_compression_merges_cohort() {
        // Mining-pool pattern: addresses 50..55 all appear in all 3 payouts.
        let cohort: Vec<(u64, f64)> = (50..56).map(|a| (a, 0.3)).collect();
        let g = graph_of(vec![
            view(0, &[(0, 3.0)], &cohort),
            view(1, &[(0, 3.0)], &cohort),
            view(2, &[(0, 3.0)], &cohort),
        ]);
        let c = compress_multi_tx(&g, MultiCompressParams::default());
        assert_eq!(c.check_invariants(), Ok(()));
        assert_eq!(c.count_kind(NodeKind::MultiHyper), 1);
        let hyper = c
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::MultiHyper)
            .unwrap();
        assert_eq!(hyper.merged_count, 6);
        // 6 addresses x 3 txs = 18 original edges summarised.
        assert_eq!(hyper.sfe.count(), 18.0);
        // Hyper has one summed edge per transaction.
        let hyper_idx = c
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::MultiHyper)
            .unwrap();
        assert_eq!(
            c.edges.iter().filter(|e| e.addr_node == hyper_idx).count(),
            3
        );
    }

    #[test]
    fn dissimilar_multi_addresses_stay_separate() {
        // 60 appears in txs {0,1}; 61 in txs {2,3}: no co-occurrence.
        let g = graph_of(vec![
            view(0, &[(0, 1.0)], &[(60, 0.9)]),
            view(1, &[(0, 1.0)], &[(60, 0.9)]),
            view(2, &[(0, 1.0)], &[(61, 0.9)]),
            view(3, &[(0, 1.0)], &[(61, 0.9)]),
        ]);
        let c = compress_multi_tx(&g, MultiCompressParams::default());
        assert_eq!(c.count_kind(NodeKind::MultiHyper), 0);
        assert!(c.nodes.iter().any(|n| n.address == Some(Address(60))));
        assert!(c.nodes.iter().any(|n| n.address == Some(Address(61))));
    }

    #[test]
    fn sigma_gates_merging() {
        // Two addresses co-occur perfectly; with sigma=1 a seed needs >1
        // similar neighbours, so nothing merges; sigma=0 merges the pair.
        let pair: Vec<(u64, f64)> = vec![(70, 0.4), (71, 0.4)];
        let g = graph_of(vec![
            view(0, &[(0, 1.0)], &pair),
            view(1, &[(0, 1.0)], &pair),
        ]);
        let strict = compress_multi_tx(&g, MultiCompressParams { psi: 0.5, sigma: 1 });
        assert_eq!(strict.count_kind(NodeKind::MultiHyper), 0);
        let loose = compress_multi_tx(&g, MultiCompressParams { psi: 0.5, sigma: 0 });
        assert_eq!(loose.count_kind(NodeKind::MultiHyper), 1);
    }

    #[test]
    fn compression_pipeline_shrinks_fanout_graphs() {
        // 3 payouts to an 80-address cohort + per-tx one-shot change.
        let cohort: Vec<(u64, f64)> = (100..180).map(|a| (a, 0.1)).collect();
        let mut txs = Vec::new();
        for t in 0..3u64 {
            let mut outs = cohort.clone();
            outs.push((500 + t, 0.05)); // one-shot change address
            txs.push(view(t, &[(0, 9.0)], &outs));
        }
        let g = graph_of(txs);
        let before = g.num_nodes();
        let c2 = compress_single_tx(&g);
        let c3 = compress_multi_tx(&c2, MultiCompressParams::default());
        assert!(
            c3.num_nodes() * 10 <= before,
            "{} -> {}",
            before,
            c3.num_nodes()
        );
        // focus + 3 txs + 1 multi-hyper (cohort) + up to 3 singles kept
        assert_eq!(c3.count_kind(NodeKind::MultiHyper), 1);
    }

    /// A random bit matrix of `n` candidates over `t` transactions, `(n, a)`:
    /// one to three planes, no bit at or past `t`.
    fn bit_matrix() -> impl Strategy<Value = (usize, Vec<u64>)> {
        let words = proptest::collection::vec(any::<u64>(), 3 * 300);
        (1usize..=192, 2usize..=300, words).prop_map(|(t, n, mut a)| {
            a.truncate(t.div_ceil(64) * n);
            for (w, word) in a.iter_mut().enumerate() {
                let used = t - w / n * 64;
                if used < 64 {
                    *word &= (1 << used) - 1;
                }
            }
            (n, a)
        })
    }

    proptest! {
        // The runtime-dispatched body (AVX2 + popcnt where the CPU has them)
        // and the portable one give the same |q_i| and seed rows, for n on
        // and off the vector width.
        #[test]
        fn dispatched_similarity_is_portable_similarity(
            matrix in bit_matrix(),
            psi in 0.0f64..1.0,
        ) {
            let (n, a) = matrix;
            let thr: Vec<u32> = (0..n)
                .map(|j| threshold(a.iter().skip(j).step_by(n).map(|w| w.count_ones()).sum(), psi))
                .collect();
            let (mut got, mut want) = (vec![0; n], vec![0; n]);
            let mut s_i = vec![0; n];
            similarity(&a, n, &mut s_i, Pass::Count { thr: &thr, q_len: &mut got });
            similarity_impl(&a, n, &mut s_i, Pass::Count { thr: &thr, q_len: &mut want });
            prop_assert_eq!(got, want);
            let mut portable = vec![0; n];
            for i in 0..n {
                similarity(&a, n, &mut s_i, Pass::Seed(i));
                similarity_impl(&a, n, &mut portable, Pass::Seed(i));
                prop_assert_eq!(&s_i, &portable, "seed row {}", i);
            }
        }
    }

    #[test]
    fn compression_is_deterministic() {
        let cohort: Vec<(u64, f64)> = (100..140).map(|a| (a, 0.1)).collect();
        let txs: Vec<TxView> = (0..4).map(|t| view(t, &[(0, 5.0)], &cohort)).collect();
        let g = graph_of(txs);
        let a = compress_multi_tx(&compress_single_tx(&g), MultiCompressParams::default());
        let b = compress_multi_tx(&compress_single_tx(&g), MultiCompressParams::default());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.edges.len(), b.edges.len());
        for (x, y) in a.edges.iter().zip(&b.edges) {
            assert_eq!(x, y);
        }
    }
}
