//! Dense row-major `f32` matrix with the kernels the autograd layer needs.
//!
//! The owned [`Matrix`] is deliberately minimal — row-major, no BLAS — but
//! its three products (`a·b`, `aᵀ·b`, `a·bᵀ`) run on borrowed stride-aware
//! views ([`MatrixView`]), so a row block or a column block of a larger
//! buffer multiplies without being copied out first. One cache-blocked loop
//! nest computes all three at every shape, written so the autovectorizer can
//! keep the inner loop branch-free, and it preserves the naive kernels'
//! ascending-k summation order *per output element*, so results are bitwise
//! identical to the textbook loops regardless of product, shape or stride
//! (see DESIGN.md §10 and §15 for the derivation).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Output-column tile width for the blocked product.
///
/// Each lhs row computes a `J_TILE`-wide strip of its output row with the
/// k-loop *innermost* and the partial sums held in a fixed-size stack array
/// the whole time: 32 floats fit in the SIMD register file once the compiler
/// unrolls the strip, so the accumulator is written to memory exactly once —
/// after the last k-term — instead of being loaded and stored on every pass.
/// The rhs tile a strip reads (`k × J_TILE` floats, 256 bytes per rhs row)
/// stays cache-resident across all lhs rows of the tile.
///
/// Per output element the k-terms are still added one at a time in ascending
/// k-order, as separate rounded additions; whether the running sum lives in a
/// register or in the output buffer does not change f32 rounding, so the
/// tiled product is bitwise identical to the naive i-k-j loops.
const J_TILE: usize = 64;

/// k-rows of rhs folded per tile pass: a `K_CHUNK x J_TILE` rhs tile is
/// 32 KiB of f32 — L1-resident — and every lhs row folds against the whole
/// tile before it is evicted. The register accumulator round-trips through
/// the output row once per chunk, and chunks are visited in ascending-k
/// order, so per-element summation order is unchanged.
const K_CHUNK: usize = 128;

/// Scratch for one packed `K_CHUNK x J_TILE` rhs tile.
type Tile = [f32; K_CHUNK * J_TILE];

/// Copy a `(ke - kb) x w` tile of `b` (column offset `jt`) into a contiguous
/// scratch buffer with row stride `w`, for `aᵀ·b`. Its output has many rows
/// (a weight gradient has one per input feature), each folding the whole
/// tile, so the copy is repaid: it defeats the L1 set-aliasing that
/// power-of-two row strides cause and streams the tile sequentially.
/// Copying values changes nothing about the arithmetic.
#[inline(always)]
fn pack_tile(bpack: &mut Tile, b: &MatrixView<'_>, jt: usize, w: usize, kb: usize, ke: usize) {
    for k in kb..ke {
        let kc = k - kb;
        bpack[kc * w..kc * w + w].copy_from_slice(&b.row(k)[jt..jt + w]);
    }
}

/// Fold one `a_chunk.len() x w` rhs tile into a `w`-wide output strip. Row
/// `kc` of the tile is `rhs[kc * stride..kc * stride + w]`: a packed tile
/// (stride `w`) or `b`'s own rows read in place (stride `b`'s row stride).
/// The strip is loaded into a stack accumulator once, receives its k-terms
/// one at a time in ascending-k order as separate rounded additions —
/// exactly the naive i-k-j schedule — and is stored back once.
#[inline(always)]
fn fold_chunk(out_row: &mut [f32], a_chunk: &[f32], rhs: &[f32], stride: usize, w: usize) {
    let mut acc = [0.0f32; J_TILE];
    acc[..w].copy_from_slice(out_row);
    if w == J_TILE {
        fold_fixed::<J_TILE>(&mut acc, a_chunk, rhs, stride);
    } else if w == J_TILE / 2 {
        fold_fixed::<{ J_TILE / 2 }>(&mut acc, a_chunk, rhs, stride);
    } else {
        for (kc, &av) in a_chunk.iter().enumerate() {
            let b = &rhs[kc * stride..kc * stride + w];
            for (a, &bv) in acc[..w].iter_mut().zip(b) {
                *a += av * bv;
            }
        }
    }
    out_row.copy_from_slice(&acc[..w]);
}

/// [`fold_chunk`]'s loop at a strip width known to the compiler, which then
/// keeps the accumulator in registers. Each tile row is indexed from the
/// one base slice with the stride: one bounds check per k.
#[inline(always)]
fn fold_fixed<const W: usize>(
    acc: &mut [f32; J_TILE],
    a_chunk: &[f32],
    rhs: &[f32],
    stride: usize,
) {
    for (kc, &av) in a_chunk.iter().enumerate() {
        let b: &[f32; W] = rhs[kc * stride..kc * stride + W].try_into().unwrap();
        for u in 0..W {
            acc[u] += av * b[u];
        }
    }
}

/// Fold two lhs k-runs into two output strips at once, 32 columns at a
/// time: each rhs row is loaded once for both lhs rows, which halves the
/// rhs traffic per term, and the two 32-float running sums still fit the
/// SIMD register file. Each sum receives its k-terms exactly as
/// [`fold_chunk`] gives them — one at a time, in ascending k.
#[inline(always)]
fn fold_pair(o0: &mut [f32], o1: &mut [f32], a0: &[f32], a1: &[f32], rhs: &[f32], stride: usize) {
    const W: usize = J_TILE / 2;
    let halves = o0.chunks_exact_mut(W).zip(o1.chunks_exact_mut(W));
    for (h, (o0, o1)) in halves.enumerate() {
        let mut c0: [f32; W] = (*o0).try_into().unwrap();
        let mut c1: [f32; W] = (*o1).try_into().unwrap();
        for (kc, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let at = kc * stride + h * W;
            let b: &[f32; W] = rhs[at..at + W].try_into().unwrap();
            for u in 0..W {
                c0[u] += x0 * b[u];
                c1[u] += x1 * b[u];
            }
        }
        o0.copy_from_slice(&c0);
        o1.copy_from_slice(&c1);
    }
}

/// A borrowed, stride-aware, read-only window into row-major `f32` storage.
///
/// Row `r` occupies `data[r * row_stride .. r * row_stride + cols]`; when
/// `row_stride > cols` the view is a column block of a wider buffer and the
/// rows are non-contiguous. The products ([`matmul_into`],
/// [`matmul_a_bt_views`]) take views, so a row or column block multiplies
/// without being copied out first. The blocked nest reads the rhs of `a·b`
/// and the lhs of `aᵀ·b` with the row stride and every other operand only
/// as whole rows through [`MatrixView::row`], so it is stride-oblivious:
/// results are bitwise identical to copying the view into a fresh `Matrix`
/// and multiplying that.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

impl<'a> MatrixView<'a> {
    /// Build a view over raw row-major storage.
    ///
    /// # Panics
    /// Panics if `cols > row_stride` (rows would overlap) or if `data` is too
    /// short to cover the last row.
    pub fn from_parts(data: &'a [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(
            cols <= row_stride || cols == 0,
            "MatrixView: cols {cols} exceeds row_stride {row_stride}"
        );
        let need = if rows == 0 || cols == 0 {
            0
        } else {
            (rows - 1) * row_stride + cols
        };
        assert!(
            data.len() >= need,
            "MatrixView: {} floats cannot back {rows} rows of {cols} at stride {row_stride}",
            data.len()
        );
        Self {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row index out of bounds");
        if self.cols == 0 {
            return &[];
        }
        let off = r * self.row_stride;
        &self.data[off..off + self.cols]
    }

    /// Copy the viewed window into an owned contiguous matrix.
    pub fn to_matrix(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl fmt::Debug for MatrixView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatrixView {}x{} (stride {})",
            self.rows, self.cols, self.row_stride
        )
    }
}

/// `a * b` over borrowed stride-aware views, written into `out`, which is
/// reshaped to the product and reuses its allocation — the forward
/// evaluator's matmul. Same bits as [`Matrix::matmul`] on copied-out
/// operands.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_into(a: &MatrixView<'_>, b: &MatrixView<'_>, out: &mut Matrix) {
    product_into(Product::Ab, a, b, out)
}

/// Which of the three dense products a kernel computes.
#[derive(Clone, Copy, PartialEq)]
enum Product {
    /// `a · b`.
    Ab,
    /// `aᵀ · b`, without materialising the transpose.
    AtB,
    /// `a · bᵀ`, without materialising the transpose.
    AbT,
}

impl Product {
    /// `(output rows, summed k-terms, output cols)` of the product.
    ///
    /// # Panics
    /// Panics when the operands' inner dimensions differ.
    fn dims(self, a: &MatrixView<'_>, b: &MatrixView<'_>) -> (usize, usize, usize) {
        let ((ar, ac), (br, bc)) = (a.shape(), b.shape());
        match self {
            Product::Ab => {
                assert_eq!(ac, br, "matmul: {ar}x{ac} * {br}x{bc}");
                (ar, ac, bc)
            }
            Product::AtB => {
                assert_eq!(ar, br, "matmul_at_b: {ar}x{ac} ᵀ* {br}x{bc}");
                (ac, ar, bc)
            }
            Product::AbT => {
                assert_eq!(ac, bc, "matmul_a_bt: {ar}x{ac} * {br}x{bc}ᵀ");
                (ar, ac, br)
            }
        }
    }
}

/// `p` of `a` and `b` into a new matrix (see [`product_into`]).
fn product(p: Product, a: &MatrixView<'_>, b: &MatrixView<'_>) -> Matrix {
    let mut out = Matrix::default();
    product_into(p, a, b, &mut out);
    out
}

/// The one product dispatch: reshape `out` to the product, then run the
/// body that [`product_body`] selects for the shape.
///
/// On x86-64 hosts with AVX2 that body runs in a copy compiled with 256-bit
/// vectors. Vector width only changes how many *output columns* are computed
/// per instruction — each element's ascending-k addition chain is untouched,
/// and rustc never contracts `mul` + `add` into a fused multiply-add — so the
/// wide path is bitwise identical to the portable one (tested in this
/// module).
///
/// # Panics
/// Panics when the operands' inner dimensions differ.
fn product_into(p: Product, a: &MatrixView<'_>, b: &MatrixView<'_>, out: &mut Matrix) {
    let (m, _, n) = p.dims(a, b);
    out.reset(m, n);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 requirement is checked at runtime above.
        return unsafe { product_avx2(p, a, b, &mut out.data) };
    }
    product_body(p, a, b, &mut out.data)
}

/// [`product_body`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn product_avx2(p: Product, a: &MatrixView<'_>, b: &MatrixView<'_>, out: &mut [f32]) {
    product_body(p, a, b, out)
}

/// Select the body for `p` at this shape and run it into zeroed `out`:
/// thin `a·bᵀ` (fewer than `ABT_TILED_MIN_ROWS` rows) keeps dot products,
/// and every other product runs the blocked nest. Every body sums each
/// output element's k-terms one at a time in ascending order, so the choice
/// changes no bit.
#[inline(always)]
fn product_body(p: Product, a: &MatrixView<'_>, b: &MatrixView<'_>, out: &mut [f32]) {
    match p {
        Product::AbT if a.rows < ABT_TILED_MIN_ROWS => thin_abt(a, b, out),
        _ => blocked(p, a, b, out),
    }
}

/// The blocked product into zeroed `out`: for each `J_TILE`-wide output
/// strip and each `K_CHUNK` of k, fold every lhs k-run against the rhs
/// tile. `a·b` reads the tile straight from `b`'s rows with `b`'s row
/// stride; `aᵀ·b` packs it once per chunk and `a·bᵀ` packs it transposed,
/// into a tile that only those two products initialise. Lhs rows are folded
/// in pairs ([`fold_pair`]) where the strip width allows, the last odd row
/// and ragged strips one at a time ([`fold_chunk`]). The lhs k-run is a row
/// slice of `a`, or for `aᵀ·b` column `i` of `a` gathered with the view's
/// row stride into a contiguous chunk; either way each output element
/// receives its k-terms in the naive loop's ascending order.
#[inline(always)]
fn blocked(p: Product, a: &MatrixView<'_>, b: &MatrixView<'_>, out: &mut [f32]) {
    let (m, kk, n) = p.dims(a, b);
    let mut bpack: Option<Tile> = None;
    let mut acol = [[0.0f32; K_CHUNK]; 2];
    for jt in (0..n).step_by(J_TILE) {
        let w = J_TILE.min(n - jt);
        for kb in (0..kk).step_by(K_CHUNK) {
            let ke = (kb + K_CHUNK).min(kk);
            let (rhs, stride): (&[f32], usize) = match p {
                Product::Ab => (&b.data[kb * b.row_stride + jt..], b.row_stride),
                _ => {
                    // Zeroed once per product, on first use: `a·b` never
                    // pays for the 32 KiB it does not read.
                    let tile = match &mut bpack {
                        Some(tile) => tile,
                        none => none.insert([0.0; K_CHUNK * J_TILE]),
                    };
                    if p == Product::AtB {
                        pack_tile(tile, b, jt, w, kb, ke);
                    } else {
                        pack_tile_t(tile, b, jt, w, kb, ke);
                    }
                    (tile, w)
                }
            };
            let [col0, col1] = &mut acol;
            let mut i = 0;
            while i < m {
                let r0 = lhs_run(p, a, i, kb, ke, col0);
                if i + 1 < m && w % (J_TILE / 2) == 0 {
                    let r1 = lhs_run(p, a, i + 1, kb, ke, col1);
                    let (o0, o1) = out[i * n + jt..(i + 1) * n + jt + w].split_at_mut(n);
                    fold_pair(&mut o0[..w], o1, r0, r1, rhs, stride);
                    i += 2;
                } else {
                    fold_chunk(&mut out[i * n + jt..i * n + jt + w], r0, rhs, stride, w);
                    i += 1;
                }
            }
        }
    }
}

/// Lhs row `i`'s k-run `kb..ke` for [`blocked`]: a slice of row `i` of
/// `a`, or for `aᵀ·b` column `i` of `a` gathered into `col`.
#[inline(always)]
fn lhs_run<'x>(
    p: Product,
    a: &'x MatrixView<'_>,
    i: usize,
    kb: usize,
    ke: usize,
    col: &'x mut [f32; K_CHUNK],
) -> &'x [f32] {
    if p == Product::AtB {
        for k in kb..ke {
            col[k - kb] = a.data[k * a.row_stride + i];
        }
        &col[..ke - kb]
    } else {
        &a.row(i)[kb..ke]
    }
}

/// Below this many lhs rows, `a · bᵀ` keeps the scalar dot-product kernel:
/// the tiled path's transposing pack touches every rhs element once, which
/// only amortises when several lhs rows reuse each packed tile.
const ABT_TILED_MIN_ROWS: usize = 4;

/// `a * bᵀ` over borrowed stride-aware views, without materialising the
/// transpose. Same bits as [`Matrix::matmul_a_bt`] on copied-out operands.
///
/// # Panics
/// Panics on column-count mismatch.
pub fn matmul_a_bt_views(a: &MatrixView<'_>, b: &MatrixView<'_>) -> Matrix {
    product(Product::AbT, a, b)
}

/// Pack one `(ke-kb) x w` tile of the *virtual* rhs `bᵀ` — element
/// `(k, jt+u)` of `bᵀ` is `b[jt+u][k]` — into contiguous scratch, exactly
/// the layout [`fold_chunk`] consumes. Reads are contiguous along each `b`
/// row; the scatter into the scratch is what pays for the transpose, once
/// per tile instead of once per lhs row.
#[inline(always)]
fn pack_tile_t(bpack: &mut Tile, b: &MatrixView<'_>, jt: usize, w: usize, kb: usize, ke: usize) {
    for u in 0..w {
        let b_row = &b.row(jt + u)[kb..ke];
        for (kc, &v) in b_row.iter().enumerate() {
            bpack[kc * w + u] = v;
        }
    }
}

/// Scalar `a · bᵀ` for thin lhs into `out`: four independent dot-product
/// accumulators per pass over the rhs rows. Each accumulator sums its
/// k-terms sequentially in ascending order, so every output is bitwise
/// identical to the plain dot product (and to the blocked nest).
#[inline(always)]
fn thin_abt(a: &MatrixView<'_>, b: &MatrixView<'_>, out: &mut [f32]) {
    let (c, p) = (a.cols, b.rows);
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = &mut out[i * p..(i + 1) * p];
        let mut j = 0;
        while j + 4 <= p {
            let b0 = b.row(j);
            let b1 = b.row(j + 1);
            let b2 = b.row(j + 2);
            let b3 = b.row(j + 3);
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for k in 0..c {
                let av = a_row[k];
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            out_row[j] = s0;
            out_row[j + 1] = s1;
            out_row[j + 2] = s2;
            out_row[j + 3] = s3;
            j += 4;
        }
        while j < p {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for k in 0..c {
                acc += a_row[k] * b_row[k];
            }
            out_row[j] = acc;
            j += 1;
        }
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Become a `rows × cols` matrix of zeros, keeping the allocation: no
    /// allocator call once the buffer has held as many elements.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// All-ones matrix of the given shape.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a per-element generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1xN row vector.
    pub fn row_vec(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            rows: 1,
            cols,
            data,
        }
    }

    /// An Nx1 column vector.
    pub fn col_vec(data: Vec<f32>) -> Self {
        let rows = data.len();
        Self {
            rows,
            cols: 1,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow the whole matrix as a contiguous view.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.cols,
        }
    }

    /// Zero-copy view of rows `[start, end)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn rows_view(&self, start: usize, end: usize) -> MatrixView<'_> {
        assert!(start <= end && end <= self.rows, "rows_view out of range");
        MatrixView {
            data: &self.data[start * self.cols..end * self.cols],
            rows: end - start,
            cols: self.cols,
            row_stride: self.cols,
        }
    }

    /// Zero-copy *strided* view of columns `[start, end)`: the view's rows
    /// keep the parent's row stride, so they are non-contiguous whenever the
    /// block is narrower than the matrix.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn cols_view(&self, start: usize, end: usize) -> MatrixView<'_> {
        assert!(start <= end && end <= self.cols, "cols_view out of range");
        if self.rows == 0 || start == end {
            return MatrixView {
                data: &[],
                rows: self.rows,
                cols: 0,
                row_stride: 0,
            };
        }
        MatrixView {
            data: &self.data[start..(self.rows - 1) * self.cols + end],
            rows: self.rows,
            cols: end - start,
            row_stride: self.cols,
        }
    }

    /// Matrix product `self * rhs`, bitwise the naive i-k-j loop at every
    /// shape.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        product(Product::Ab, &self.view(), &rhs.view())
    }

    /// `selfᵀ * rhs` without materialising the transpose.
    pub fn matmul_at_b(&self, rhs: &Matrix) -> Matrix {
        product(Product::AtB, &self.view(), &rhs.view())
    }

    /// `self * rhsᵀ` without materialising the transpose.
    pub fn matmul_a_bt(&self, rhs: &Matrix) -> Matrix {
        product(Product::AbT, &self.view(), &rhs.view())
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise binary combine. Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_with shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    pub fn mul_elem(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// In-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place element-wise combine: `self[i] = f(self[i], rhs[i])`.
    /// Panics on shape mismatch.
    pub fn zip_assign(&mut self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), rhs.shape(), "zip_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// In-place element-wise map.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// In-place add of `rhs` into the column block `[start, start + rhs.cols)`.
    /// Panics if the block is out of range or the row counts differ.
    pub fn add_assign_cols(&mut self, start: usize, rhs: &Matrix) {
        assert_eq!(self.rows, rhs.rows, "add_assign_cols row mismatch");
        assert!(
            start + rhs.cols <= self.cols,
            "add_assign_cols out of range"
        );
        for r in 0..self.rows {
            let dst = &mut self.row_mut(r)[start..start + rhs.cols];
            for (o, &b) in dst.iter_mut().zip(rhs.row(r).iter()) {
                *o += b;
            }
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Broadcast-add a 1xC row to every row of an RxC matrix.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_assign(row);
        out
    }

    /// In-place [`Matrix::add_row_broadcast`].
    pub fn add_row_assign(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(row.data.iter()) {
                *o += b;
            }
        }
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of every element (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum: RxC -> 1xC.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Column-wise mean: RxC -> 1xC (zeros for an empty matrix).
    pub fn mean_rows(&self) -> Matrix {
        if self.rows == 0 {
            return Matrix::zeros(1, self.cols);
        }
        self.sum_rows().scale(1.0 / self.rows as f32)
    }

    /// Column-wise max: RxC -> (1xC values, per-column argmax row indices).
    ///
    /// # Panics
    /// Panics on a matrix with zero rows.
    pub fn max_rows(&self) -> (Matrix, Vec<usize>) {
        assert!(self.rows > 0, "max_rows on empty matrix");
        let mut vals = self.row(0).to_vec();
        let mut args = vec![0usize; self.cols];
        for r in 1..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                if v > vals[c] {
                    vals[c] = v;
                    args[c] = r;
                }
            }
        }
        (Matrix::row_vec(vals), args)
    }

    /// Horizontal concatenation (same row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Vertical concatenation (same column count).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column count mismatch");
            data.extend_from_slice(&p.data);
        }
        let rows = data.len() / cols.max(1);
        Matrix { rows, cols, data }
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        Matrix::from_fn(self.rows, end - start, |r, c| self[(r, start + c)])
    }

    /// Index of the maximum element in a single row.
    pub fn row_argmax(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Row-wise softmax (each row sums to 1), numerically stabilised.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.matmul(&Matrix::eye(4)), a);
        assert_eq!(Matrix::eye(4).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r + 2 * c) as f32);
        assert!(approx_eq(
            &a.matmul_at_b(&b),
            &a.transpose().matmul(&b),
            1e-5
        ));
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f32 + c as f32) * 0.25);
        let b = Matrix::from_fn(5, 3, |r, c| (2 * r + c) as f32);
        assert!(approx_eq(
            &a.matmul_a_bt(&b),
            &a.matmul(&b.transpose()),
            1e-5
        ));
    }

    #[test]
    fn sum_rows_and_mean_rows() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_rows().as_slice(), &[5., 7., 9.]);
        assert_eq!(a.mean_rows().as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn max_rows_tracks_argmax() {
        let a = Matrix::from_vec(3, 2, vec![1., 9., 5., 2., 3., 4.]);
        let (vals, args) = a.max_rows();
        assert_eq!(vals.as_slice(), &[5., 9.]);
        assert_eq!(args, vec![1, 0]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 1, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.as_slice(), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn concat_rows_layout() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.as_slice(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn slice_rows_and_cols() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.slice_rows(1, 3).row(0), a.row(1));
        let sc = a.slice_cols(1, 3);
        assert_eq!(sc.shape(), (4, 2));
        assert_eq!(sc[(2, 0)], a[(2, 1)]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone: larger logit -> larger probability.
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::row_vec(vec![1000., 1001., 1002.]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        let b = Matrix::row_vec(vec![0., 1., 2.]).softmax_rows();
        assert!(approx_eq(&s, &b, 1e-5));
    }

    #[test]
    fn broadcast_add_row() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::row_vec(vec![1., 2.]);
        let c = a.add_row_broadcast(&b);
        for r in 0..3 {
            assert_eq!(c.row(r), &[1., 2.]);
        }
    }

    #[test]
    fn empty_mean_rows_is_zero() {
        let a = Matrix::zeros(0, 3);
        assert_eq!(a.mean_rows().as_slice(), &[0., 0., 0.]);
    }

    /// Naive i-k-j matmul, including the historical `a == 0.0` skip: the
    /// reference the blocked kernel must match bit-for-bit on finite data.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a[(i, k)];
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += av * b[(k, j)];
                }
            }
        }
        out
    }

    fn naive_matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for k in 0..a.rows() {
            for i in 0..a.cols() {
                let av = a[(k, i)];
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += av * b[(k, j)];
                }
            }
        }
        out
    }

    fn naive_matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Build an m×n matrix from a value pool, zeroing roughly one element
    /// in three so the zero-skip paths of the naive references are hit.
    fn pooled(m: usize, n: usize, pool: &[f32]) -> Matrix {
        Matrix::from_fn(m, n, |r, c| {
            let v = pool[(r * 31 + c * 7) % pool.len()];
            if (r * 13 + c * 5) % 3 == 0 {
                0.0
            } else {
                v
            }
        })
    }

    #[test]
    fn matmul_propagates_nan_from_rhs() {
        // The old zero-skip dropped `0 · NaN`, which must be NaN.
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 1.0]);
        assert!(a.matmul(&b)[(0, 0)].is_nan(), "0 * NaN must propagate NaN");
        let inf = Matrix::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        assert!(
            a.matmul(&inf)[(0, 0)].is_nan(),
            "0 * Inf must propagate NaN"
        );
        // matmul_at_b had the same skip on its lhs entries.
        let at = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        let bt = Matrix::from_vec(2, 1, vec![f32::NAN, 1.0]);
        assert!(at.matmul_at_b(&bt)[(0, 0)].is_nan());
    }

    #[test]
    fn blocked_kernels_cross_panel_boundaries_bitwise() {
        // Shapes straddling the J_TILE boundary, with ragged tails, k past
        // K_CHUNK, single lhs rows, 32-wide strips, and the products the
        // forward pass runs: the GFN node MLP (73→64→32) over a thin slice
        // and the head's fused 1×96·96×256 gate product.
        let pool: Vec<f32> = (0..97).map(|i| (i as f32 - 48.0) * 0.37).collect();
        for &(m, k, n) in &[
            (3, 130, 130),
            (2, 129, 127),
            (5, 5, 256),
            (1, 257, 3),
            (7, 4, 128),
            (40, 130, 130),
            (33, 260, 129),
            (40, 73, 96),
            (6, 73, 64),
            (6, 64, 32),
            (1, 96, 256),
            (1, 300, 32),
            (2, 140, 96),
            (9, 385, 85),
        ] {
            let a = pooled(m, k, &pool);
            let b = pooled(k, n, &pool);
            assert!(bitwise_eq(&a.matmul(&b), &naive_matmul(&a, &b)));
            let at = pooled(k, m, &pool);
            assert!(bitwise_eq(&at.matmul_at_b(&b), &naive_matmul_at_b(&at, &b)));
            let bt = pooled(n, k, &pool);
            assert!(bitwise_eq(&a.matmul_a_bt(&bt), &naive_matmul_a_bt(&a, &bt)));
        }
    }

    /// Columns `[3, 3 + cols)` of a parent five columns wider when
    /// `strided`, so the view's rows are non-contiguous; else the whole of
    /// a `rows x cols` parent.
    fn operand(rows: usize, cols: usize, strided: bool, pool: &[f32]) -> Matrix {
        pooled(rows, cols + 5 * strided as usize, pool)
    }

    fn view(p: &Matrix, cols: usize, strided: bool) -> MatrixView<'_> {
        if strided {
            p.cols_view(3, 3 + cols)
        } else {
            p.view()
        }
    }

    /// Every portable body, called directly whatever the shape selection
    /// would pick, equals the public dispatched product bit for bit — on an
    /// AVX2 host the dispatch runs only the AVX2 copies, so this is the test
    /// that runs the portable ones — and the `a·b` body equals the naive
    /// loop. Shapes straddle `J_TILE`, `K_CHUNK` and `ABT_TILED_MIN_ROWS`,
    /// with single lhs rows, 32-wide strips and ragged tails; each operand
    /// is also taken as a strided `cols_view` of a wider parent.
    #[test]
    fn portable_bodies_match_dispatched_product_bitwise() {
        type Body = fn(&MatrixView<'_>, &MatrixView<'_>, &mut [f32]);
        let pool: Vec<f32> = (0..61).map(|i| (i as f32 - 30.0) * 0.61).collect();
        let blocked_ab: Body = |a, b, out| blocked(Product::Ab, a, b, out);
        let blocked_atb: Body = |a, b, out| blocked(Product::AtB, a, b, out);
        let blocked_abt: Body = |a, b, out| blocked(Product::AbT, a, b, out);
        let shapes = [
            (1, 128, 256),
            (8, 128, 256),
            (3, 300, 70),
            (5, 5, 256),
            (4, 129, 65),
            (3, 127, 63),
            (16, 64, 64),
            (17, 64, 64),
            (2, 257, 32),
            (33, 130, 31),
            (1, 96, 256),
            (6, 73, 64),
            (6, 64, 32),
            (1, 200, 32),
            (1, 7, 9),
            (5, 140, 96),
        ];
        for &(m, k, n) in &shapes {
            for (strided_a, strided_b) in [(false, false), (true, false), (false, true)] {
                let (a, at, b, bt) = (
                    operand(m, k, strided_a, &pool),
                    operand(k, m, strided_a, &pool),
                    operand(k, n, strided_b, &pool),
                    operand(n, k, strided_b, &pool),
                );
                let (a, at, b, bt) = (
                    view(&a, k, strided_a),
                    view(&at, m, strided_a),
                    view(&b, n, strided_b),
                    view(&bt, k, strided_b),
                );
                let mut ab = Matrix::default();
                matmul_into(&a, &b, &mut ab);
                assert!(
                    bitwise_eq(&ab, &naive_matmul(&a.to_matrix(), &b.to_matrix())),
                    "dispatched a·b vs naive {m}x{k}x{n} strided ({strided_a}, {strided_b})"
                );
                let atb = at.to_matrix().matmul_at_b(&b.to_matrix());
                let abt = matmul_a_bt_views(&a, &bt);
                for (name, body, lhs, rhs, dispatched) in [
                    ("blocked a·b", blocked_ab, &a, &b, &ab),
                    ("blocked aᵀ·b", blocked_atb, &at, &b, &atb),
                    ("blocked a·bᵀ", blocked_abt, &a, &bt, &abt),
                    ("thin a·bᵀ", thin_abt as Body, &a, &bt, &abt),
                ] {
                    let mut out = Matrix::zeros(dispatched.rows(), dispatched.cols());
                    body(lhs, rhs, &mut out.data);
                    assert!(
                        bitwise_eq(&out, dispatched),
                        "{name} {m}x{k}x{n} strided ({strided_a}, {strided_b})"
                    );
                }
            }
        }
    }

    #[test]
    fn views_multiply_bitwise_like_copied_out_blocks() {
        let pool: Vec<f32> = (0..89).map(|i| (i as f32 - 44.0) * 0.23).collect();
        let parent = pooled(9, 150, &pool);
        let rv = parent.rows_view(2, 7); // 5x150 contiguous
        let cv = parent.cols_view(3, 131); // 9x128, row stride 150 (ragged)
        let b = pooled(150, 40, &pool);
        assert!(bitwise_eq(
            &product(Product::Ab, &rv, &b.view()),
            &rv.to_matrix().matmul(&b)
        ));
        let b2 = pooled(9, 33, &pool);
        assert!(bitwise_eq(
            &product(Product::AtB, &cv, &b2.view()),
            &cv.to_matrix().matmul_at_b(&b2)
        ));
        let a2 = pooled(4, 9, &pool);
        assert!(bitwise_eq(
            &product(Product::Ab, &a2.view(), &cv),
            &a2.matmul(&cv.to_matrix())
        ));
        let a3 = pooled(4, 128, &pool);
        assert!(bitwise_eq(
            &matmul_a_bt_views(&a3.view(), &cv),
            &a3.matmul_a_bt(&cv.to_matrix())
        ));
    }

    #[test]
    fn view_matmul_propagates_nan_through_strided_rhs() {
        let mut parent = Matrix::zeros(2, 3);
        parent[(0, 1)] = f32::NAN;
        let cv = parent.cols_view(1, 2); // 2x1 strided column holding the NaN
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        assert!(product(Product::Ab, &a.view(), &cv)[(0, 0)].is_nan());
        let at = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        assert!(product(Product::AtB, &at.view(), &cv)[(0, 0)].is_nan());
    }

    #[test]
    #[should_panic(expected = "MatrixView")]
    fn overlapping_view_rows_are_rejected() {
        let data = vec![0.0f32; 8];
        let _ = MatrixView::from_parts(&data, 2, 4, 3);
    }

    proptest! {
        #[test]
        fn prop_matmul_assoc(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
            c in proptest::collection::vec(-2.0f32..2.0, 4),
        ) {
            let a = Matrix::from_vec(2, 3, a);
            let b = Matrix::from_vec(3, 2, b);
            let c = Matrix::from_vec(2, 2, c);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!(approx_eq(&left, &right, 1e-3));
        }

        #[test]
        fn prop_transpose_of_product(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let a = Matrix::from_vec(2, 3, a);
            let b = Matrix::from_vec(3, 2, b);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
        }

        #[test]
        fn prop_add_commutes(
            a in proptest::collection::vec(-10.0f32..10.0, 12),
            b in proptest::collection::vec(-10.0f32..10.0, 12),
        ) {
            let a = Matrix::from_vec(3, 4, a);
            let b = Matrix::from_vec(3, 4, b);
            prop_assert!(approx_eq(&a.add(&b), &b.add(&a), 1e-6));
        }

        #[test]
        fn prop_sum_rows_matches_total(
            a in proptest::collection::vec(-10.0f32..10.0, 12),
        ) {
            let a = Matrix::from_vec(4, 3, a);
            let by_cols: f32 = a.sum_rows().as_slice().iter().sum();
            prop_assert!((by_cols - a.sum()).abs() < 1e-3);
        }

        // Blocked kernels vs naive references, bitwise, across random
        // shapes including empty (0-dim), 1×n, and ragged sizes that do
        // not divide the unroll factor.
        #[test]
        fn prop_blocked_matmul_bitwise_matches_naive(
            m in 0usize..7,
            k in 0usize..7,
            n in 0usize..7,
            pool in proptest::collection::vec(-3.0f32..3.0, 24),
        ) {
            let a = pooled(m, k, &pool);
            let b = pooled(k, n, &pool);
            prop_assert!(bitwise_eq(&a.matmul(&b), &naive_matmul(&a, &b)));
            let at = pooled(k, m, &pool);
            prop_assert!(bitwise_eq(&at.matmul_at_b(&b), &naive_matmul_at_b(&at, &b)));
            let bt = pooled(n, k, &pool);
            prop_assert!(bitwise_eq(&a.matmul_a_bt(&bt), &naive_matmul_a_bt(&a, &bt)));
        }

        // View matmuls vs copy-out-then-matmul references: random row and
        // column blocks (the latter ragged whenever the block is narrower
        // than the parent) must be bitwise identical to multiplying the
        // copied-out block.
        #[test]
        fn prop_view_matmuls_bitwise_match_copy_out(
            rows in 1usize..8,
            cols in 1usize..10,
            n in 0usize..6,
            r0 in 0usize..8,
            c0 in 0usize..10,
            pool in proptest::collection::vec(-3.0f32..3.0, 24),
        ) {
            let parent = pooled(rows, cols, &pool);
            let rv = parent.rows_view(r0.min(rows), rows);
            let cv = parent.cols_view(c0.min(cols), cols);
            let b = pooled(cols, n, &pool);
            prop_assert!(bitwise_eq(
                &product(Product::Ab, &rv, &b.view()),
                &rv.to_matrix().matmul(&b)
            ));
            let b2 = pooled(rows, n, &pool);
            prop_assert!(bitwise_eq(
                &product(Product::AtB, &cv, &b2.view()),
                &cv.to_matrix().matmul_at_b(&b2)
            ));
            let a2 = pooled(n, rows, &pool);
            prop_assert!(bitwise_eq(
                &product(Product::Ab, &a2.view(), &cv),
                &a2.matmul(&cv.to_matrix())
            ));
            let a3 = pooled(n, cv.cols(), &pool);
            prop_assert!(bitwise_eq(
                &matmul_a_bt_views(&a3.view(), &cv),
                &a3.matmul_a_bt(&cv.to_matrix())
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // `a·b` at random shapes over the whole range the nest tiles —
        // single rows, every strip width, k past K_CHUNK — with either
        // operand a strided view: the dispatched product and the portable
        // blocked body both equal the naive loop bit for bit.
        #[test]
        fn prop_ab_any_shape_bitwise_matches_naive(
            m in 1usize..41,
            k in 1usize..301,
            n in 1usize..301,
            strided_a in any::<bool>(),
            strided_b in any::<bool>(),
            pool in proptest::collection::vec(-3.0f32..3.0, 31),
        ) {
            let (pa, pb) = (operand(m, k, strided_a, &pool), operand(k, n, strided_b, &pool));
            let (a, b) = (view(&pa, k, strided_a), view(&pb, n, strided_b));
            let naive = naive_matmul(&a.to_matrix(), &b.to_matrix());
            let mut ab = Matrix::default();
            matmul_into(&a, &b, &mut ab);
            prop_assert!(bitwise_eq(&ab, &naive), "dispatched {}x{}x{}", m, k, n);
            let mut portable = Matrix::zeros(m, n);
            blocked(Product::Ab, &a, &b, &mut portable.data);
            prop_assert!(bitwise_eq(&portable, &naive), "portable {}x{}x{}", m, k, n);
        }
    }
}
