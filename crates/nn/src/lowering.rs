//! Convolution lowering: im2col / col2im.
//!
//! [`im2col`] unrolls one `(C, H, W)` sample into a `(C·K·K, OH·OW)`
//! column matrix so that convolution becomes a single GEMM against the
//! `(OC, C·K·K)` weight matrix; [`col2im_add`] is its exact adjoint,
//! scattering a column-matrix gradient back onto the input plane. Both
//! support arbitrary stride and symmetric zero padding — [`Conv2d`]
//! (stride 1) is the in-tree consumer, and the property tests sweep the
//! full parameter space.
//!
//! [`Conv2d`]: crate::layers::Conv2d

/// Geometry of one lowered convolution: input plane, kernel, stride and
/// symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Spatial stride (both axes).
    pub stride: usize,
    /// Symmetric zero padding (both axes).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height: `(H + 2·pad − K) / stride + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel or the
    /// stride is zero.
    pub fn out_h(&self) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        let padded = self.height + 2 * self.pad;
        assert!(padded >= self.kernel, "input too small for kernel");
        (padded - self.kernel) / self.stride + 1
    }

    /// Output width: `(W + 2·pad − K) / stride + 1`.
    pub fn out_w(&self) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        let padded = self.width + 2 * self.pad;
        assert!(padded >= self.kernel, "input too small for kernel");
        (padded - self.kernel) / self.stride + 1
    }

    /// Rows of the column matrix (`C·K·K`).
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Columns of the column matrix (`OH·OW`).
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements of one input sample (`C·H·W`).
    pub fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Lowers one `(C, H, W)` sample into the `(C·K·K, OH·OW)` column matrix.
///
/// Every element of `col` is written (out-of-bounds taps become zero), so
/// the buffer may be reused across calls without clearing.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
pub fn im2col(g: &ConvGeom, sample: &[f32], col: &mut [f32]) {
    assert_eq!(sample.len(), g.sample_len(), "im2col input length");
    assert_eq!(col.len(), g.col_rows() * g.col_cols(), "im2col col length");
    let (k, s) = (g.kernel, g.stride);
    let (h, w) = (g.height, g.width);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let pad = g.pad as isize;
    let ow_len = out_h * out_w;
    for ci in 0..g.channels {
        let plane = &sample[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (ci * k + ky) * k + kx;
                let dst = &mut col[row_idx * ow_len..(row_idx + 1) * ow_len];
                for oy in 0..out_h {
                    let iy = (oy * s) as isize + ky as isize - pad;
                    let dst_row = &mut dst[oy * out_w..(oy + 1) * out_w];
                    if iy < 0 || iy >= h as isize {
                        dst_row.fill(0.0);
                        continue;
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    if s == 1 {
                        // Stride 1: the in-bounds taps are one contiguous
                        // source run, flanked by padding zeros.
                        let (lo, hi, shift) = unit_stride_span(kx, g.pad, w, out_w);
                        dst_row[..lo].fill(0.0);
                        dst_row[lo..hi].copy_from_slice(&src_row[shift..shift + hi - lo]);
                        dst_row[hi..].fill(0.0);
                        continue;
                    }
                    // Explicit indices: ox maps to a *shifted, strided*
                    // source column, which iterator adapters would obscure.
                    #[allow(clippy::needless_range_loop)]
                    for ox in 0..out_w {
                        let ix = (ox * s) as isize + kx as isize - pad;
                        dst_row[ox] = if ix >= 0 && ix < w as isize {
                            src_row[ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// For stride 1, the output columns `lo..hi` whose tap `ox + kx − pad`
/// lands inside a `w`-wide row, and the source column `shift` of the
/// first one. A row with no in-bounds tap gives `(0, 0, 0)`.
fn unit_stride_span(kx: usize, pad: usize, w: usize, out_w: usize) -> (usize, usize, usize) {
    let lo = pad.saturating_sub(kx);
    let hi = (w + pad).saturating_sub(kx).min(out_w);
    if lo < hi {
        (lo, hi, lo + kx - pad)
    } else {
        (0, 0, 0)
    }
}

/// Scatters a `(C·K·K, OH·OW)` column-matrix gradient back onto a
/// `(C, H, W)` input gradient, accumulating overlapping taps — the exact
/// adjoint of [`im2col`].
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
pub fn col2im_add(g: &ConvGeom, col: &[f32], grad_sample: &mut [f32]) {
    assert_eq!(grad_sample.len(), g.sample_len(), "col2im output length");
    assert_eq!(col.len(), g.col_rows() * g.col_cols(), "col2im col length");
    let (k, s) = (g.kernel, g.stride);
    let (h, w) = (g.height, g.width);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let pad = g.pad as isize;
    let ow_len = out_h * out_w;
    for ci in 0..g.channels {
        let plane = &mut grad_sample[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (ci * k + ky) * k + kx;
                let src = &col[row_idx * ow_len..(row_idx + 1) * ow_len];
                for oy in 0..out_h {
                    let iy = (oy * s) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = &mut plane[iy as usize * w..(iy as usize + 1) * w];
                    let src_row = &src[oy * out_w..(oy + 1) * out_w];
                    if s == 1 {
                        let (lo, hi, shift) = unit_stride_span(kx, g.pad, w, out_w);
                        for (d, &v) in dst_row[shift..shift + hi - lo]
                            .iter_mut()
                            .zip(&src_row[lo..hi])
                        {
                            *d += v;
                        }
                        continue;
                    }
                    #[allow(clippy::needless_range_loop)]
                    for ox in 0..out_w {
                        let ix = (ox * s) as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            dst_row[ix as usize] += src_row[ox];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> ConvGeom {
        ConvGeom {
            channels: c,
            height: h,
            width: w,
            kernel: k,
            stride,
            pad,
        }
    }

    #[test]
    fn out_sizes() {
        assert_eq!(geom(1, 65, 65, 5, 1, 2).out_h(), 65);
        assert_eq!(geom(1, 65, 65, 5, 1, 0).out_h(), 61);
        assert_eq!(geom(1, 7, 9, 3, 2, 0).out_h(), 3);
        assert_eq!(geom(1, 7, 9, 3, 2, 0).out_w(), 4);
    }

    #[test]
    fn identity_kernel_is_copy() {
        // K=1, stride 1, no padding: the column matrix is the input.
        let g = geom(2, 3, 3, 1, 1, 0);
        let x: Vec<f32> = (0..g.sample_len()).map(|i| i as f32).collect();
        let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        assert_eq!(col, x);
    }

    #[test]
    fn overwrites_stale_buffer_contents() {
        // Padding taps must be written as zero even when the buffer holds
        // garbage from a previous call (the scratch-reuse contract).
        let g = geom(1, 2, 2, 3, 1, 1);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        assert!(col.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn adjoint_identity_exact() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for integer data (exact in f32).
        let g = geom(2, 6, 5, 3, 2, 1);
        let x: Vec<f32> = (0..g.sample_len()).map(|i| (i % 7) as f32 - 3.0).collect();
        let cols = g.col_rows() * g.col_cols();
        let y: Vec<f32> = (0..cols).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut cx = vec![0.0; cols];
        im2col(&g, &x, &mut cx);
        let mut cty = vec![0.0; g.sample_len()];
        col2im_add(&g, &y, &mut cty);
        let lhs: f32 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&cty).map(|(a, b)| a * b).sum();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn unit_stride_matches_strided_path_when_padding_exceeds_width() {
        // Padding wider than the input leaves whole kernel columns with no
        // in-bounds tap; the stride-1 row copy must zero them exactly as
        // the per-element path does (a 1×1 stride-1 output is also what
        // a stride-2 geometry with the same taps produces).
        let unit = geom(1, 1, 1, 5, 1, 2);
        let strided = geom(1, 1, 1, 5, 2, 2);
        assert_eq!(unit.col_cols(), 1);
        assert_eq!(strided.col_cols(), 1);
        let x = vec![7.0];
        let (mut a, mut b) = (vec![f32::NAN; 25], vec![f32::NAN; 25]);
        im2col(&unit, &x, &mut a);
        im2col(&strided, &x, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&v| v == 7.0).count(), 1);
        let (mut ga, mut gb) = (vec![0.0], vec![0.0]);
        let y: Vec<f32> = (0..25).map(|i| i as f32).collect();
        col2im_add(&unit, &y, &mut ga);
        col2im_add(&strided, &y, &mut gb);
        assert_eq!(ga, gb);
        assert_eq!(ga, vec![12.0]);
    }

    #[test]
    fn col2im_accumulates() {
        let g = geom(1, 3, 3, 3, 1, 1);
        let cols = g.col_rows() * g.col_cols();
        let mut grad = vec![1.0f32; g.sample_len()];
        col2im_add(&g, &vec![0.0; cols], &mut grad);
        assert_eq!(grad, vec![1.0; 9]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn kernel_larger_than_padded_input_panics() {
        geom(1, 2, 2, 5, 1, 0).out_h();
    }
}
