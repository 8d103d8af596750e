//! Cache-friendly GEMM kernels for the convolution and linear hot paths.
//!
//! All three entry points *accumulate* (`out += …`) over row-major flat
//! slices, mirroring BLAS semantics with `beta = 1`:
//!
//! * [`gemm_nn`] — `out += A·B` (`A: m×k`, `B: k×n`);
//! * [`gemm_nt`] — `out += A·Bᵀ` (`A: m×k`, `B: n×k`);
//! * [`gemm_tn`] — `out += Aᵀ·B` (`A: k×m`, `B: k×n`).
//!
//! Two compute kernels share the work:
//!
//! * the **row tile** holds a `2×16` block of `out` in a local array
//!   (which LLVM keeps in vector registers) for the whole ascending `k`
//!   loop, reading one 16-wide `B` row segment in place per step. `out`
//!   is loaded and stored once per tile instead of once per `k` step;
//! * the **axpy** kernel streams `out_row += a · b_row` per `k` step over
//!   `KC×NC` cache blocks of `B`. It wins on shapes below one tile, where
//!   the row tile would mostly compute padding or, with a single row,
//!   wait on one short chain of dependent adds.
//!
//! [`gemm_nn`] runs the row tile when `m ≥ 2` and `n ≥ 16`; columns
//! past the last full tile are copied into a zero-padded `k×16` panel (per-thread
//! buffer). [`gemm_nt`] — the convolution weight gradient — runs it when
//! `m ≥ 8` and `n ≥ 16` as `outᵀ += B·Aᵀ`: `B` is read in place as the
//! row operand, only the small `A` is transposed (into a zero-padded,
//! per-thread panel), and `out` is addressed transposed inside the tile.
//! [`gemm_tn`] (the convolution input gradient, `k` = output channels)
//! keeps the axpy kernel.
//!
//! Every kernel sums the `k` dimension in ascending order for each output
//! element, one rounded multiply and one rounded add per step (no FMA),
//! so all three produce **bit-identical** results to [`naive_matmul`] —
//! the kept-alive reference implementation used by the equivalence tests
//! and benchmarks.

use std::cell::RefCell;

/// `k`-dimension cache block of the axpy kernel (rows of a `B` tile).
const KC: usize = 256;
/// `n`-dimension cache block of the axpy kernel: one `KC×NC` `B` tile is
/// 1 MiB of `f32`.
const NC: usize = 1024;
/// Row-tile width: output columns held per accumulator row.
const TW: usize = 16;
/// Smallest `m` for which [`gemm_nt`] runs the row tile (`m` becomes the
/// tile's column count, so fewer would leave over half a tile padding).
const NT_MIN_M: usize = TW / 2;

thread_local! {
    /// Per-thread packing buffer: the transposed `A` of [`gemm_nt`]'s
    /// row-tile path, or the transposed `B` of its axpy path. Reused
    /// across calls so steady-state GEMM does no allocation (the batch
    /// executor runs one GEMM stream per worker thread).
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread zero-padded `k×16` panel for [`gemm_nn`]'s fringe
    /// columns.
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out += A·B` with `A: m×k`, `B: k×n`, all row-major.
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    if m < 2 || n < TW {
        gemm_driver(m, k, n, out, |i, p| a[i * k + p], b);
        return;
    }
    let full = n - n % TW;
    row_tiles::<false>(a, m, k, b, n, full, out, n);
    if full < n {
        // Fringe columns: copy them into a zero-padded k×16 panel so the
        // same tile runs on them; only the real columns are stored.
        PANEL.with(|panel| {
            let mut panel = panel.borrow_mut();
            panel.clear();
            panel.resize(k * TW, 0.0);
            for (dst, src) in panel.chunks_exact_mut(TW).zip(b.chunks_exact(n)) {
                dst[..n - full].copy_from_slice(&src[full..]);
            }
            row_tiles::<false>(a, m, k, &panel, TW, n - full, &mut out[full..], n);
        });
    }
}

/// `out += A·Bᵀ` with `A: m×k`, `B: n×k`, all row-major.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        if m < NT_MIN_M || n < TW {
            // Below one tile: re-lay Bᵀ out row-major (k×n) and stream the
            // rows of `out` through the axpy kernel.
            pack.resize(k * n, 0.0);
            for (j, b_row) in b.chunks_exact(k).enumerate() {
                for (p, &v) in b_row.iter().enumerate() {
                    pack[p * n + j] = v;
                }
            }
            gemm_driver(m, k, n, out, |i, p| a[i * k + p], &pack);
            return;
        }
        // outᵀ (n×m) += B (n×k) · Aᵀ (k×m). Aᵀ goes into a panel whose
        // rows are padded with zeros to whole tiles, so no fringe copy is
        // needed; the tile stores out[i][j] from outᵀ[j][i].
        let mp = m.div_ceil(TW) * TW;
        pack.clear();
        pack.resize(k * mp, 0.0);
        for (i, a_row) in a.chunks_exact(k).enumerate() {
            for (p, &v) in a_row.iter().enumerate() {
                pack[p * mp + i] = v;
            }
        }
        row_tiles::<true>(b, n, k, &pack, mp, m, out, n);
    });
}

/// `out += Aᵀ·B` with `A: k×m`, `B: k×n`, all row-major.
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm_driver(m, k, n, out, |i, p| a[p * m + i], b);
}

/// Row-tile driver: `r[i][c] += Σₚ a[i][p] · b[p][c]` for `i < m`,
/// `c < cols`, with `a` an `m×k` row-major operand and `b` a `k`-row
/// panel of row stride `ldb ≥ ⌈cols/16⌉·16` (columns past `cols` are
/// read but never stored). The result `r` lives in `out` with leading
/// dimension `ldo`: row-major (`out[i·ldo + c]`), or with `TRANS`
/// transposed (`out[c·ldo + i]`).
///
/// Row-major results come from [`gemm_nn`], whose `b` is the large
/// operand: column tiles run outermost, so one `k×16` strip of `b` stays
/// hot while every row pair of the small `a` streams over it. Transposed
/// results come from [`gemm_nt`], whose `a` is the large one: row pairs
/// run outermost, so each pair of `a` rows stays hot across the small
/// `b` panel.
#[allow(clippy::too_many_arguments)]
fn row_tiles<const TRANS: bool>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    ldb: usize,
    cols: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut tile = |i: usize, j0: usize| {
        let (b, width) = (&b[j0..], TW.min(cols - j0));
        if i + 2 <= m {
            let acc = tile_k::<2>(load::<2, TRANS>(out, ldo, i, j0, width), a, k, i, b, ldb);
            store::<2, TRANS>(acc, out, ldo, i, j0, width);
        } else {
            let acc = tile_k::<1>(load::<1, TRANS>(out, ldo, i, j0, width), a, k, i, b, ldb);
            store::<1, TRANS>(acc, out, ldo, i, j0, width);
        }
    };
    if TRANS {
        for i in (0..m).step_by(2) {
            for j0 in (0..cols).step_by(TW) {
                tile(i, j0);
            }
        }
    } else {
        for j0 in (0..cols).step_by(TW) {
            for i in (0..m).step_by(2) {
                tile(i, j0);
            }
        }
    }
}

/// Reads the `R×width` result block at row `i`, column `j0` into a
/// zero-padded `R×16` accumulator array. (A whole-tile row is copied at
/// the fixed width, which compiles to vector moves rather than a
/// `memcpy` call; [`store`] mirrors this.)
#[inline(always)]
fn load<const R: usize, const TRANS: bool>(
    out: &[f32],
    ldo: usize,
    i: usize,
    j0: usize,
    width: usize,
) -> [[f32; TW]; R] {
    let mut acc = [[0.0f32; TW]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        if TRANS {
            for (c, v) in row[..width].iter_mut().enumerate() {
                *v = out[(j0 + c) * ldo + i + r];
            }
        } else if width == TW {
            let o = (i + r) * ldo + j0;
            row.copy_from_slice(&out[o..o + TW]);
        } else {
            let o = (i + r) * ldo + j0;
            row[..width].copy_from_slice(&out[o..o + width]);
        }
    }
    acc
}

/// Writes the first `width` columns of an accumulator array back to the
/// result block it was [`load`]ed from.
#[inline(always)]
fn store<const R: usize, const TRANS: bool>(
    acc: [[f32; TW]; R],
    out: &mut [f32],
    ldo: usize,
    i: usize,
    j0: usize,
    width: usize,
) {
    for (r, row) in acc.iter().enumerate() {
        if TRANS {
            for (c, &v) in row[..width].iter().enumerate() {
                out[(j0 + c) * ldo + i + r] = v;
            }
        } else if width == TW {
            let o = (i + r) * ldo + j0;
            out[o..o + TW].copy_from_slice(row);
        } else {
            let o = (i + r) * ldo + j0;
            out[o..o + width].copy_from_slice(&row[..width]);
        }
    }
}

/// The register tile: adds rows `i..i+R` of `a` (`m×k`) times the 16-wide
/// strip `b` (row stride `ldb`) into `acc`, one rounded multiply and one
/// rounded add per ascending `p`. The accumulators arrive and leave by
/// value and are only indexed by constants inside, and the loop has no
/// panicking exit, so LLVM keeps all `R×16` lanes in vector registers
/// with no per-step load or store.
#[inline(always)]
fn tile_k<const R: usize>(
    mut acc: [[f32; TW]; R],
    a: &[f32],
    k: usize,
    i: usize,
    b: &[f32],
    ldb: usize,
) -> [[f32; TW]; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    for (p, b_row) in b.chunks(ldb).take(k).enumerate() {
        let Some(b_row) = b_row.first_chunk::<TW>() else {
            break;
        };
        for (acc_row, a_row) in acc.iter_mut().zip(&rows) {
            // `p < k == a_row.len()`; `get` keeps a panic edge out of
            // the loop.
            let av = a_row.get(p).copied().unwrap_or(0.0);
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Blocked axpy driver over a row-major `B`: walks `KC×NC` tiles of `B`
/// and, per tile, streams every output row through [`axpy`]. The `A`
/// accessor is inlined per entry point, so the transposed read in
/// [`gemm_tn`] compiles to a plain strided load.
fn gemm_driver(
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    a_at: impl Fn(usize, usize) -> f32,
    b: &[f32],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            for i in 0..m {
                let out_row = &mut out[i * n + j0..i * n + j0 + nc];
                for p in p0..p0 + kc {
                    axpy(a_at(i, p), &b[p * n + j0..p * n + j0 + nc], out_row);
                }
            }
        }
    }
}

/// `out_row += a · b_row`, the vector microkernel. Each lane accumulates
/// independently (no cross-lane reduction), so LLVM unrolls and
/// vectorizes this loop at any SIMD width the target offers.
#[inline(always)]
fn axpy(a: f32, b_row: &[f32], out_row: &mut [f32]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o += a * bv;
    }
}

/// Reference matrix multiply (`out += A·B`), kept alive as the oracle for
/// the blocked kernels. Deliberately the simple i-p-j loop nest.
pub fn naive_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integer-valued pseudo-random data in `{-4,…,4}`: every product and
    /// partial sum is exactly representable in `f32`, so the blocked and
    /// naive kernels must agree bit-for-bit regardless of summation order.
    fn int_data(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 9) as f32 - 4.0
            })
            .collect()
    }

    fn check_all_variants(m: usize, k: usize, n: usize, seed: u64) {
        let a = int_data(m * k, seed);
        let b = int_data(k * n, seed ^ 0xABCD);
        let mut want = vec![0.0f32; m * n];
        naive_matmul(&a, &b, &mut want, m, k, n);

        let mut got = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut got, m, k, n);
        assert_eq!(got, want, "gemm_nn {m}x{k}x{n}");

        // Bᵀ variant: feed B transposed (n×k layout).
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_nt(&a, &bt, &mut got, m, k, n);
        assert_eq!(got, want, "gemm_nt {m}x{k}x{n}");

        // Aᵀ variant: feed A transposed (k×m layout).
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_tn(&at, &b, &mut got, m, k, n);
        assert_eq!(got, want, "gemm_tn {m}x{k}x{n}");
    }

    #[test]
    fn matches_naive_on_small_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 19),
            (7, 1, 33),
        ] {
            check_all_variants(m, k, n, (m * 1000 + k * 10 + n) as u64);
        }
    }

    #[test]
    fn matches_naive_across_block_boundaries() {
        // Shapes straddling KC/NC edges exercise the fringe paths.
        for &(m, k, n) in &[
            (4, KC, 16),
            (5, KC + 3, 17),
            (3, KC - 1, NC - 3),
            (11, 2 * KC + 5, NC + 7),
            (10, 25, 4225), // conv layer 1 on a 65×65 input
        ] {
            check_all_variants(m, k, n, (m + k + n) as u64);
        }
    }

    #[test]
    fn accumulates_into_out() {
        let a = int_data(2 * 3, 1);
        let b = int_data(3 * 2, 2);
        let mut base = vec![1.0f32, -2.0, 3.0, -4.0];
        let mut want = base.clone();
        naive_matmul(&a, &b, &mut want, 2, 3, 2);
        gemm_nn(&a, &b, &mut base, 2, 3, 2);
        assert_eq!(base, want);
    }

    #[test]
    fn naive_does_not_skip_zero_a() {
        // 0·inf = NaN and −0 + 0·1 = +0: an oracle that skipped zero A
        // entries would disagree with every kernel on both.
        let (a, b) = ([0.0f32, 1.0], [f32::INFINITY, 2.0]);
        let mut naive = [0.0f32];
        naive_matmul(&a, &b, &mut naive, 1, 2, 1);
        assert!(naive[0].is_nan());
        let mut kernel = [0.0f32];
        gemm_nn(&a, &b, &mut kernel, 1, 2, 1);
        assert!(kernel[0].is_nan());

        let mut naive = [-0.0f32];
        naive_matmul(&[0.0], &[1.0], &mut naive, 1, 1, 1);
        assert_eq!(naive[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut empty: Vec<f32> = vec![];
        gemm_nn(&[], &[], &mut empty, 0, 0, 0);
        assert!(empty.is_empty());
        // k = 0: out has m·n elements but nothing is accumulated.
        let mut out = vec![5.0f32; 4];
        gemm_nn(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![5.0; 4]);
        let mut out = vec![5.0f32; 4];
        gemm_nt(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![5.0; 4]);
    }
}
