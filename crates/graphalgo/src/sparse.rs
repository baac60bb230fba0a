//! Compressed sparse row matrices and the normalised-adjacency operator
//! Ã = D̃^{-1/2}(A+I)D̃^{-1/2} used by GFN/GCN feature propagation (Eq. 12).

use crate::graph::Graph;
use crate::topology::Topology;
use std::cmp::Ordering;

/// A square CSR matrix of `f32` (sufficient for propagation operators).
#[derive(Clone, Debug, Default)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets; duplicate entries are summed.
    pub fn from_triplets(n: usize, mut triplets: Vec<(usize, usize, f32)>) -> Self {
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            assert!(r < n && c < n, "triplet out of range");
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for (r, c, v) in merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        Self {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Adopt ready-made CSR arrays: row `r` is
    /// `col_idx[row_ptr[r]..row_ptr[r + 1]]` with the matching `values`.
    ///
    /// # Panics
    /// Panics unless `row_ptr` has `n + 1` monotone entries from 0 to the
    /// entry count, and every row's columns are `< n` and strictly ascending.
    pub fn from_sorted_rows(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n + 1, "row_ptr must have n + 1 entries");
        assert_eq!(col_idx.len(), values.len(), "one value per column index");
        assert!(
            row_ptr[0] == 0 && row_ptr[n] == col_idx.len(),
            "row_ptr must span every entry"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotone"
        );
        for r in 0..n {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "columns must ascend strictly within a row"
            );
            assert!(row.last().is_none_or(|&c| c < n), "column out of range");
        }
        Self {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Entries of one row: `(col, value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Dense `y = self * x` where `x` is a row-major `n x d` slice-of-rows.
    /// `x.len()` must be `n * d`; returns an `n * d` vector.
    ///
    /// On x86-64 hosts with AVX2 the kernel is re-dispatched to a copy
    /// compiled with 256-bit vectors. Vectorisation runs across the dense
    /// feature dimension `d`, never across the nnz accumulation, so each
    /// output element's addition order — and therefore every bit of the
    /// result — is the same on both paths (rustc performs no mul/add
    /// contraction).
    pub fn matmul_dense(&self, x: &[f32], d: usize) -> Vec<f32> {
        assert_eq!(x.len(), self.n * d, "matmul_dense: dim mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 requirement is checked at runtime above.
            return unsafe { self.matmul_dense_avx2(x, d) };
        }
        self.matmul_dense_impl(x, d)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_dense_avx2(&self, x: &[f32], d: usize) -> Vec<f32> {
        self.matmul_dense_impl(x, d)
    }

    #[inline(always)]
    fn matmul_dense_impl(&self, x: &[f32], d: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n * d];
        for r in 0..self.n {
            let out_row = &mut out[r * d..(r + 1) * d];
            for (c, v) in self.row(r) {
                let x_row = &x[c * d..(c + 1) * d];
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Dense `y = x * self` where `x` is a row-major `m x n` slice-of-rows;
    /// returns an `m x n` vector. For each output element `(i, j)` the
    /// k-terms arrive in ascending-k order (the k-th contribution comes
    /// from row `k` of `self`, visited in order), matching the dense
    /// i-k-j matmul schedule per element.
    pub fn rmatmul_dense(&self, x: &[f32], m: usize) -> Vec<f32> {
        assert_eq!(x.len(), m * self.n, "rmatmul_dense: dim mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 requirement is checked at runtime above.
            return unsafe { self.rmatmul_dense_avx2(x, m) };
        }
        self.rmatmul_dense_impl(x, m)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn rmatmul_dense_avx2(&self, x: &[f32], m: usize) -> Vec<f32> {
        self.rmatmul_dense_impl(x, m)
    }

    #[inline(always)]
    fn rmatmul_dense_impl(&self, x: &[f32], m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * self.n];
        for i in 0..m {
            let x_row = &x[i * self.n..(i + 1) * self.n];
            let out_row = &mut out[i * self.n..(i + 1) * self.n];
            for (k, &xv) in x_row.iter().enumerate() {
                for (j, v) in self.row(k) {
                    out_row[j] += xv * v;
                }
            }
        }
        out
    }

    /// Transpose. The counting-sort construction emits each output row's
    /// entries in ascending original-row order, so a product against the
    /// transpose accumulates k-terms in the same ascending order as a dense
    /// `Aᵀ·B` kernel — the property the autograd spmm backward relies on
    /// for bitwise reproducibility.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.n + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for r in 0..self.n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                let slot = next[c];
                col_idx[slot] = r;
                values[slot] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

impl Topology {
    /// Symmetric-normalised adjacency with self-loops:
    /// Ã = D̃^{-1/2}(A + I)D̃^{-1/2} where D̃ is the degree matrix of A + I
    /// (Eq. 12).
    ///
    /// Edge multiplicities contribute to A (a multigraph collapses to summed
    /// weights of 1 per parallel edge).
    pub fn normalized_adjacency(&self) -> CsrMatrix {
        let mut adj = CsrMatrix::default();
        self.normalized_adjacency_into(&mut adj);
        adj
    }

    /// [`Topology::normalized_adjacency`] into `adj`'s buffers, which make no
    /// allocator call once they have held an operator as large.
    pub fn normalized_adjacency_into(&self, adj: &mut CsrMatrix) {
        let n = self.num_nodes();
        // D̃ is degree + 1: an exact small integer in `f32`.
        let inv_sqrt = |u: usize| 1.0 / ((self.degree(u) + 1) as f32).sqrt();
        adj.n = n;
        let (row_ptr, col_idx, values) = (&mut adj.row_ptr, &mut adj.col_idx, &mut adj.values);
        row_ptr.clear();
        col_idx.clear();
        values.clear();
        row_ptr.reserve(n + 1);
        col_idx.reserve(self.num_endpoints() + n);
        values.reserve(self.num_endpoints() + n);
        row_ptr.push(0);
        for u in 0..n {
            // Row u of A + I: its neighbours and itself, sorted at the tail
            // of `col_idx`, then run-length counted back into the same tail.
            let inv_u = inv_sqrt(u);
            let start = col_idx.len();
            col_idx.extend(self.neighbors(u).iter().map(|&v| v as usize));
            col_idx.push(u);
            col_idx[start..].sort_unstable();
            let mut kept = start;
            let mut read = start;
            while read < col_idx.len() {
                let v = col_idx[read];
                let run = col_idx[read..].iter().take_while(|&&c| c == v).count();
                col_idx[kept] = v;
                values.push(inv_u * run as f32 * inv_sqrt(v));
                kept += 1;
                read += run;
            }
            col_idx.truncate(kept);
            row_ptr.push(kept);
        }
    }
}

/// [`Topology::normalized_adjacency`] of a graph still in builder form.
pub fn normalized_adjacency(g: &Graph) -> CsrMatrix {
    g.topology().normalized_adjacency()
}

/// The propagated feature stack `[X, ÃX, Ã²X, …, ÃᵏX]` (Eq. 13) in place:
/// `rows` holds `adj.n()` rows of `stride` floats ending in `k + 1` blocks of
/// `d` columns, X in the first. Each `ÃˢX` element sums its CSR row in order,
/// as [`CsrMatrix::matmul_dense`] does: the same bits, no buffer per power.
pub fn propagate_in_place(adj: &CsrMatrix, rows: &mut [f32], stride: usize, d: usize, k: usize) {
    assert!(
        adj.n * stride <= rows.len(),
        "propagate_in_place: short rows"
    );
    let first = stride - (k + 1) * d;
    for s in 1..=k {
        let (src, dst) = (first + (s - 1) * d, first + s * d);
        for r in 0..adj.n {
            // Row r's block is written while rows before it, after it and
            // its own lower blocks are read: split the buffer around it.
            let (before, rest) = rows.split_at_mut(r * stride);
            let (row, after) = rest.split_at_mut(stride);
            let (lower, upper) = row.split_at_mut(dst);
            let out = &mut upper[..d];
            out.fill(0.0);
            for (c, v) in adj.row(r) {
                let x = match c.cmp(&r) {
                    Ordering::Less => &before[c * stride + src..][..d],
                    Ordering::Equal => &lower[src..src + d],
                    Ordering::Greater => &after[(c - r - 1) * stride + src..][..d],
                };
                for (o, &xv) in out.iter_mut().zip(x) {
                    *o += v * xv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_triplets_roundtrip() {
        let m = CsrMatrix::from_triplets(3, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
        assert_eq!(m.nnz(), 3);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 2.0)]);
    }

    #[test]
    fn csr_merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, vec![(0, 1, 1.0), (0, 1, 2.0)]);
        assert_eq!(m.nnz(), 1);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 3.0)]);
    }

    #[test]
    fn csr_empty_rows_ok() {
        let m = CsrMatrix::from_triplets(4, vec![(3, 0, 1.0)]);
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(3).count(), 1);
    }

    #[test]
    fn from_sorted_rows_adopts_valid_arrays() {
        let m = CsrMatrix::from_sorted_rows(3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1., 2., 3.]);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(1, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "n + 1 entries")]
    fn from_sorted_rows_refuses_a_short_row_ptr() {
        CsrMatrix::from_sorted_rows(2, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn from_sorted_rows_refuses_mismatched_values() {
        CsrMatrix::from_sorted_rows(1, vec![0, 1], vec![0], vec![]);
    }

    #[test]
    #[should_panic(expected = "span every entry")]
    fn from_sorted_rows_refuses_a_row_ptr_that_stops_short() {
        CsrMatrix::from_sorted_rows(2, vec![0, 1, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_sorted_rows_refuses_a_decreasing_row_ptr() {
        CsrMatrix::from_sorted_rows(2, vec![0, 2, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn from_sorted_rows_refuses_a_repeated_column() {
        CsrMatrix::from_sorted_rows(2, vec![0, 2, 2], vec![1, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn from_sorted_rows_refuses_descending_columns() {
        CsrMatrix::from_sorted_rows(2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn from_sorted_rows_refuses_a_column_past_n() {
        CsrMatrix::from_sorted_rows(2, vec![0, 1, 1], vec![2], vec![1.0]);
    }

    #[test]
    fn matmul_dense_identity() {
        let eye = CsrMatrix::from_triplets(3, vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let x = vec![1., 2., 3., 4., 5., 6.];
        assert_eq!(eye.matmul_dense(&x, 2), x);
    }

    #[test]
    fn transpose_roundtrip_and_sorted_rows() {
        let m = CsrMatrix::from_triplets(
            4,
            vec![
                (0, 2, 1.0),
                (1, 0, 2.0),
                (1, 2, 3.0),
                (3, 1, 4.0),
                (3, 2, 5.0),
            ],
        );
        let t = m.transpose();
        assert_eq!(t.nnz(), m.nnz());
        // Tᵀ == M entry-for-entry.
        let tt = t.transpose();
        for r in 0..4 {
            let orig: Vec<_> = m.row(r).collect();
            let back: Vec<_> = tt.row(r).collect();
            assert_eq!(orig, back, "row {r}");
        }
        // Rows of the transpose are in ascending original-row order.
        let row2: Vec<_> = t.row(2).collect();
        assert_eq!(row2, vec![(0, 1.0), (1, 3.0), (3, 5.0)]);
    }

    #[test]
    fn rmatmul_dense_matches_transposed_left_product() {
        let m = CsrMatrix::from_triplets(3, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
        // x * M == (Mᵀ * xᵀ)ᵀ; for a single row x this is easy to check.
        let x = vec![1.0f32, 2.0, 3.0];
        let out = m.rmatmul_dense(&x, 1);
        // out[j] = sum_k x[k] * M[k, j]
        assert_eq!(out, vec![12.0, 2.0, 6.0]);
    }

    #[test]
    fn normalized_adjacency_rows_are_stochastic_on_regular_graph() {
        // On a d-regular graph every row of Ã sums to 1.
        let mut g = Graph::new(4); // 4-cycle: 2-regular
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        let a = normalized_adjacency(&g);
        for r in 0..4 {
            let sum: f32 = a.row(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn normalized_adjacency_is_symmetric() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let a = normalized_adjacency(&g);
        let mut dense = [0.0f32; 9];
        for r in 0..3 {
            for (c, v) in a.row(r) {
                dense[r * 3 + c] = v;
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                assert!((dense[r * 3 + c] - dense[c * 3 + r]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn isolated_node_keeps_self_loop() {
        let g = Graph::new(2);
        let a = normalized_adjacency(&g);
        let row0: Vec<_> = a.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0)]);
    }

    #[test]
    fn propagate_depth_counts() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let a = normalized_adjacency(&g);
        // Three rows of [pad, x (2 wide), ÃX, Ã²X, Ã³X].
        let x = [1.0f32, -0.5, 0.0, 2.0, 0.25, 0.0];
        let mut rows = vec![7.0f32; 3 * 9];
        for r in 0..3 {
            rows[r * 9 + 1..r * 9 + 3].copy_from_slice(&x[r * 2..r * 2 + 2]);
        }
        propagate_in_place(&a, &mut rows, 9, 2, 3);
        let mut power = x.to_vec();
        for s in 1..=3 {
            power = a.matmul_dense(&power, 2);
            for r in 0..3 {
                let got = &rows[r * 9 + 1 + s * 2..r * 9 + 3 + s * 2];
                let mut same = got.iter().zip(&power[r * 2..r * 2 + 2]);
                assert!(same.all(|(g, w)| g.to_bits() == w.to_bits()));
            }
        }
        // X and the column before the stack are untouched.
        assert_eq!(&rows[1..3], &x[..2]);
        assert!((0..3).all(|r| rows[r * 9] == 7.0));
    }

    #[test]
    fn propagation_preserves_constant_vector_on_regular_graph() {
        // Ã of a regular graph has row sums 1, so constant vectors are fixed.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        let a = normalized_adjacency(&g);
        let x = vec![5.0f32; 4];
        let out = a.matmul_dense(&x, 1);
        for v in out {
            assert!((v - 5.0).abs() < 1e-5);
        }
    }
}
