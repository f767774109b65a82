//! Bilinear sampling and the deformable-convolution reference implementation.
//!
//! This module is the numeric ground truth for Eq. (1)–(3) of the paper:
//! a deformable convolution samples the input at fractional positions
//! `p = p_o + p_i + Δp_i` using the bilinear kernel
//! `G(p, q) = g(p_x, q_x) · g(p_y, q_y)`, `g(a, b) = max(0, 1 − |a − b|)`,
//! with out-of-bounds neighbours contributing zero (paper §II-A).
//!
//! Offset layout follows the mmcv/torchvision convention: the offset tensor
//! is `[N, 2·G·k·k, outH, outW]` where `G` is the number of deformable
//! groups; channel `2·(g·k² + tap)` is the **y** offset and `+1` the **x**
//! offset for kernel tap `tap` of group `g`.

use crate::conv::Conv2dParams;
use crate::Tensor;
use defcon_support::par::ParallelSliceMut;

/// Hyper-parameters of a deformable 2-D convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeformConv2dParams {
    /// The underlying convolution window.
    pub conv: Conv2dParams,
    /// Number of deformable groups `G`; input channels are split into `G`
    /// contiguous groups that share one offset field each (paper §II-A).
    pub deform_groups: usize,
}

impl DeformConv2dParams {
    /// 3×3, stride 1, "same" padding, one deformable group.
    pub fn same3x3() -> Self {
        DeformConv2dParams {
            conv: Conv2dParams::same(3),
            deform_groups: 1,
        }
    }

    /// Number of offset channels: `2 · G · k · k` (paper Fig. 1).
    pub fn offset_channels(&self) -> usize {
        2 * self.deform_groups * self.conv.kernel * self.conv.kernel
    }
}

/// Bilinear lookup of `x[n, c]` at fractional position `(y, x)` with
/// zero-valued out-of-bounds neighbours.
#[inline]
pub fn bilinear_sample(t: &Tensor, n: usize, c: usize, y: f32, x: f32) -> f32 {
    let (_, _, h, w) = t.shape().nchw();
    // Entirely outside the support of any in-bounds neighbour.
    if y <= -1.0 || y >= h as f32 || x <= -1.0 || x >= w as f32 {
        return 0.0;
    }
    let y0 = y.floor();
    let x0 = x.floor();
    let dy = y - y0;
    let dx = x - x0;
    let (y0, x0) = (y0 as isize, x0 as isize);
    let mut acc = 0.0f32;
    for (qy, wy) in [(y0, 1.0 - dy), (y0 + 1, dy)] {
        if qy < 0 || qy >= h as isize || wy == 0.0 {
            continue;
        }
        for (qx, wx) in [(x0, 1.0 - dx), (x0 + 1, dx)] {
            if qx < 0 || qx >= w as isize || wx == 0.0 {
                continue;
            }
            acc += wy * wx * t.at4(n, c, qy as usize, qx as usize);
        }
    }
    acc
}

/// Gradient of [`bilinear_sample`] w.r.t. the sampling position.
/// Returns `(d/dy, d/dx)`.
#[inline]
pub fn bilinear_sample_grad_pos(t: &Tensor, n: usize, c: usize, y: f32, x: f32) -> (f32, f32) {
    let (_, _, h, w) = t.shape().nchw();
    if y <= -1.0 || y >= h as f32 || x <= -1.0 || x >= w as f32 {
        return (0.0, 0.0);
    }
    let y0 = y.floor();
    let x0 = x.floor();
    let dy = y - y0;
    let dx = x - x0;
    let (y0, x0) = (y0 as isize, x0 as isize);
    let pix = |qy: isize, qx: isize| -> f32 {
        if qy < 0 || qy >= h as isize || qx < 0 || qx >= w as isize {
            0.0
        } else {
            t.at4(n, c, qy as usize, qx as usize)
        }
    };
    let v00 = pix(y0, x0);
    let v01 = pix(y0, x0 + 1);
    let v10 = pix(y0 + 1, x0);
    let v11 = pix(y0 + 1, x0 + 1);
    // v(y,x) = (1-dy)(1-dx)v00 + (1-dy)dx v01 + dy(1-dx) v10 + dy dx v11
    let gy = -(1.0 - dx) * v00 - dx * v01 + (1.0 - dx) * v10 + dx * v11;
    let gx = -(1.0 - dy) * v00 + (1.0 - dy) * v01 - dy * v10 + dy * v11;
    (gy, gx)
}

/// Per-position contribution of [`bilinear_sample`] to each of the 4
/// neighbours — used for the input gradient. Calls `sink(qy, qx, weight)`
/// for every in-bounds neighbour with non-zero weight.
#[inline]
fn bilinear_scatter(h: usize, w: usize, y: f32, x: f32, mut sink: impl FnMut(usize, usize, f32)) {
    if y <= -1.0 || y >= h as f32 || x <= -1.0 || x >= w as f32 {
        return;
    }
    let y0 = y.floor();
    let x0 = x.floor();
    let dy = y - y0;
    let dx = x - x0;
    let (y0, x0) = (y0 as isize, x0 as isize);
    for (qy, wy) in [(y0, 1.0 - dy), (y0 + 1, dy)] {
        if qy < 0 || qy >= h as isize || wy == 0.0 {
            continue;
        }
        for (qx, wx) in [(x0, 1.0 - dx), (x0 + 1, dx)] {
            if qx < 0 || qx >= w as isize || wx == 0.0 {
                continue;
            }
            sink(qy as usize, qx as usize, wy * wx);
        }
    }
}

/// How learned offsets are post-processed before sampling (paper §III-A-c
/// and Table V).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OffsetTransform {
    /// Use offsets as-is (unbounded deformation, the `∞` point of Fig. 5).
    Identity,
    /// Clamp each offset component to `[-p, p]` (bounded deformation).
    Bounded(f32),
    /// Round each offset to the nearest integer (ablation; hurts accuracy,
    /// Table V).
    Rounded,
    /// Clamp then round (bounded + rounded).
    BoundedRounded(f32),
}

impl OffsetTransform {
    /// Applies the transform to one offset component.
    #[inline]
    pub fn apply(&self, v: f32) -> f32 {
        match *self {
            OffsetTransform::Identity => v,
            OffsetTransform::Bounded(p) => v.clamp(-p, p),
            OffsetTransform::Rounded => v.round(),
            OffsetTransform::BoundedRounded(p) => v.clamp(-p, p).round(),
        }
    }

    /// Derivative of the transform (for straight-through rounding we use the
    /// identity gradient, as is standard practice; clamping gates the
    /// gradient outside the boundary).
    #[inline]
    pub fn grad(&self, v: f32) -> f32 {
        match *self {
            OffsetTransform::Identity | OffsetTransform::Rounded => 1.0,
            OffsetTransform::Bounded(p) | OffsetTransform::BoundedRounded(p) => {
                if (-p..=p).contains(&v) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Deformable convolution forward (reference implementation, Eq. 2).
///
/// * `x`: `[N, C_in, H, W]`
/// * `offsets`: `[N, 2·G·k·k, outH, outW]`
/// * `weight`: `[C_out, C_in, k, k]`
///
/// Returns `[N, C_out, outH, outW]`.
pub fn deform_conv2d_ref(
    x: &Tensor,
    offsets: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, wc_in, k, _) = weight.shape().nchw();
    assert_eq!(c_in, wc_in, "deform_conv2d channel mismatch");
    assert_eq!(k, p.conv.kernel);
    assert_eq!(
        c_in % p.deform_groups,
        0,
        "input channels {c_in} not divisible by deform groups {}",
        p.deform_groups
    );
    let (oh, ow) = p.conv.out_hw(h, w);
    assert_eq!(
        offsets.dims(),
        &[n, p.offset_channels(), oh, ow],
        "offset tensor must be [N, 2*G*k*k, outH, outW]"
    );
    let ch_per_group = c_in / p.deform_groups;
    let kk = k * k;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let conv = p.conv;
    let dgroups = p.deform_groups;
    let wdata = weight.data();
    out.data_mut()
        .par_chunks_mut(c_out * oh * ow)
        .enumerate()
        .for_each(|(ni, dst)| {
            // Per-pixel scratch, reused across every output channel: the
            // sampling positions depend only on (g, tap) and the bilinear
            // samples only on (ci, tap), so computing them once per pixel
            // removes the c_out× recomputation of the naive loop. Each
            // output element still sees the identical product sequence in
            // ascending (ci, ki, kj) order, so the bits don't move.
            let mut coords = vec![(0.0f32, 0.0f32); dgroups * kk];
            let mut samples = vec![0.0f32; c_in * kk];
            for oy in 0..oh {
                for ox in 0..ow {
                    for g in 0..dgroups {
                        for ki in 0..k {
                            for kj in 0..k {
                                let tap = ki * k + kj;
                                let oc = 2 * (g * kk + tap);
                                let dy = transform.apply(offsets.at4(ni, oc, oy, ox));
                                let dx = transform.apply(offsets.at4(ni, oc + 1, oy, ox));
                                let py = (oy * conv.stride + ki * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dy;
                                let px = (ox * conv.stride + kj * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dx;
                                coords[g * kk + tap] = (py, px);
                            }
                        }
                    }
                    for ci in 0..c_in {
                        let g = ci / ch_per_group;
                        for (tap, &(py, px)) in coords[g * kk..(g + 1) * kk].iter().enumerate() {
                            samples[ci * kk + tap] = bilinear_sample(x, ni, ci, py, px);
                        }
                    }
                    for co in 0..c_out {
                        let w_row = &wdata[co * c_in * kk..(co + 1) * c_in * kk];
                        dst[(co * oh + oy) * ow + ox] = crate::gemm::dot(w_row, &samples);
                    }
                }
            }
        });
    if let Some(b) = bias {
        crate::conv::add_channel_bias(&mut out, b);
    }
    out
}

/// Verbatim copy of the pre-restructure [`deform_conv2d_ref`] (one task per
/// `(n, c_out)` slab, samples recomputed for every output channel). Kept as
/// the test-only bitwise correctness oracle for the shared-scratch rewrite;
/// see the `legacy_pinning` tests.
#[cfg(test)]
fn deform_conv2d_ref_legacy(
    x: &Tensor,
    offsets: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, wc_in, k, _) = weight.shape().nchw();
    assert_eq!(c_in, wc_in, "deform_conv2d channel mismatch");
    assert_eq!(k, p.conv.kernel);
    assert_eq!(
        c_in % p.deform_groups,
        0,
        "input channels {c_in} not divisible by deform groups {}",
        p.deform_groups
    );
    let (oh, ow) = p.conv.out_hw(h, w);
    assert_eq!(
        offsets.dims(),
        &[n, p.offset_channels(), oh, ow],
        "offset tensor must be [N, 2*G*k*k, outH, outW]"
    );
    let ch_per_group = c_in / p.deform_groups;
    let kk = k * k;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let conv = p.conv;
    let dgroups = p.deform_groups;
    out.data_mut()
        .par_chunks_mut(oh * ow)
        .enumerate()
        .for_each(|(flat, dst)| {
            let (ni, co) = (flat / c_out, flat % c_out);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        let g = ci / ch_per_group;
                        debug_assert!(g < dgroups);
                        for ki in 0..k {
                            for kj in 0..k {
                                let tap = ki * k + kj;
                                let oc = 2 * (g * kk + tap);
                                let dy = transform.apply(offsets.at4(ni, oc, oy, ox));
                                let dx = transform.apply(offsets.at4(ni, oc + 1, oy, ox));
                                let py = (oy * conv.stride + ki * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dy;
                                let px = (ox * conv.stride + kj * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dx;
                                acc +=
                                    weight.at4(co, ci, ki, kj) * bilinear_sample(x, ni, ci, py, px);
                            }
                        }
                    }
                    dst[oy * ow + ox] = acc;
                }
            }
        });
    if let Some(b) = bias {
        crate::conv::add_channel_bias(&mut out, b);
    }
    out
}

/// Gradients of [`deform_conv2d_ref`] w.r.t. input, offsets, weight and bias.
///
/// Returns `(grad_x, grad_offsets, grad_w, grad_b)`.
pub fn deform_conv2d_backward_ref(
    x: &Tensor,
    offsets: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, k, _) = weight.shape().nchw();
    let (oh, ow) = p.conv.out_hw(h, w);
    let ch_per_group = c_in / p.deform_groups;
    let kk = k * k;
    let conv = p.conv;

    let mut gx = Tensor::zeros(x.dims());
    let mut goff = Tensor::zeros(offsets.dims());
    let mut gw = Tensor::zeros(weight.dims());
    let mut gb = Tensor::zeros(&[c_out]);

    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c_in {
                    let g = ci / ch_per_group;
                    for ki in 0..k {
                        for kj in 0..k {
                            let tap = ki * k + kj;
                            let oc = 2 * (g * kk + tap);
                            let raw_dy = offsets.at4(ni, oc, oy, ox);
                            let raw_dx = offsets.at4(ni, oc + 1, oy, ox);
                            let dy = transform.apply(raw_dy);
                            let dx = transform.apply(raw_dx);
                            let py = (oy * conv.stride + ki * conv.dilation) as f32
                                - conv.pad as f32
                                + dy;
                            let px = (ox * conv.stride + kj * conv.dilation) as f32
                                - conv.pad as f32
                                + dx;

                            let sampled = bilinear_sample(x, ni, ci, py, px);
                            let (gpy, gpx) = bilinear_sample_grad_pos(x, ni, ci, py, px);

                            // Accumulate over output channels once per (ci, tap).
                            let mut gsum = 0.0f32; // Σ_co gy * w — multiplies positional/input grads
                            for co in 0..c_out {
                                let gout = gy.at4(ni, co, oy, ox);
                                if gout == 0.0 {
                                    continue;
                                }
                                let wv = weight.at4(co, ci, ki, kj);
                                gsum += gout * wv;
                                *gw.at4_mut(co, ci, ki, kj) += gout * sampled;
                            }
                            if gsum != 0.0 {
                                *goff.at4_mut(ni, oc, oy, ox) +=
                                    gsum * gpy * transform.grad(raw_dy);
                                *goff.at4_mut(ni, oc + 1, oy, ox) +=
                                    gsum * gpx * transform.grad(raw_dx);
                                bilinear_scatter(h, w, py, px, |qy, qx, wgt| {
                                    *gx.at4_mut(ni, ci, qy, qx) += gsum * wgt;
                                });
                            }
                        }
                    }
                }
                for co in 0..c_out {
                    gb.data_mut()[co] += gy.at4(ni, co, oy, ox);
                }
            }
        }
    }
    (gx, goff, gw, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::conv::conv2d;

    #[test]
    fn bilinear_at_integer_positions_is_exact_lookup() {
        let t = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(
                    bilinear_sample(&t, 0, 0, y as f32, x as f32),
                    t.at4(0, 0, y, x)
                );
            }
        }
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let t = Tensor::from_vec(vec![0.0, 2.0, 4.0, 6.0], &[1, 1, 2, 2]);
        assert!((bilinear_sample(&t, 0, 0, 0.5, 0.5) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bilinear_out_of_bounds_is_zero() {
        let t = Tensor::ones(&[1, 1, 3, 3]);
        assert_eq!(bilinear_sample(&t, 0, 0, -1.5, 0.0), 0.0);
        assert_eq!(bilinear_sample(&t, 0, 0, 0.0, 3.0), 0.0);
        // Partially out of bounds: only in-bounds neighbours contribute.
        assert!((bilinear_sample(&t, 0, 0, -0.5, 0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bilinear_pos_gradient_matches_finite_difference() {
        let t = Tensor::randn(&[1, 1, 6, 6], 0.0, 1.0, 31);
        let eps = 1e-3f32;
        for &(y, x) in &[(1.3f32, 2.7f32), (0.2, 0.2), (4.6, 4.9), (0.4, 5.2)] {
            let (gy, gx) = bilinear_sample_grad_pos(&t, 0, 0, y, x);
            let fy = (bilinear_sample(&t, 0, 0, y + eps, x)
                - bilinear_sample(&t, 0, 0, y - eps, x))
                / (2.0 * eps);
            let fx = (bilinear_sample(&t, 0, 0, y, x + eps)
                - bilinear_sample(&t, 0, 0, y, x - eps))
                / (2.0 * eps);
            assert!((gy - fy).abs() < 1e-2, "dy at ({y},{x}): {gy} vs {fy}");
            assert!((gx - fx).abs() < 1e-2, "dx at ({y},{x}): {gx} vs {fx}");
        }
    }

    #[test]
    fn zero_offsets_reduce_to_regular_conv() {
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 3, 7, 7], 0.0, 1.0, 32);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.5, 33);
        let off = Tensor::zeros(&[1, p.offset_channels(), 7, 7]);
        let y_def = deform_conv2d_ref(&x, &off, &w, None, &p, OffsetTransform::Identity);
        let y_reg = conv2d(&x, &w, None, &p.conv);
        assert_close(&y_def, &y_reg, 1e-4, 1e-4);
    }

    #[test]
    fn integer_offsets_shift_sampling() {
        // A single-pixel image and a 1x1 kernel: offset (1, 0) should read
        // the pixel below.
        let p = DeformConv2dParams {
            conv: Conv2dParams {
                kernel: 1,
                stride: 1,
                pad: 0,
                dilation: 1,
            },
            deform_groups: 1,
        };
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let mut off = Tensor::zeros(&[1, 2, 2, 2]);
        // Δy = 1 at output (0,0): samples x[1,0] = 3.
        *off.at4_mut(0, 0, 0, 0) = 1.0;
        let y = deform_conv2d_ref(&x, &off, &w, None, &p, OffsetTransform::Identity);
        assert_eq!(y.at4(0, 0, 0, 0), 3.0);
        assert_eq!(y.at4(0, 0, 1, 1), 4.0);
    }

    #[test]
    fn deform_groups_share_offsets_within_group() {
        let p = DeformConv2dParams {
            conv: Conv2dParams::same(3),
            deform_groups: 2,
        };
        assert_eq!(p.offset_channels(), 36);
        let x = Tensor::randn(&[1, 4, 5, 5], 0.0, 1.0, 34);
        let w = Tensor::randn(&[2, 4, 3, 3], 0.0, 0.5, 35);
        let off = Tensor::rand_uniform(&[1, 36, 5, 5], -1.0, 1.0, 36);
        // Consistency: computing with G=2 must equal manual two-group sum.
        let y = deform_conv2d_ref(&x, &off, &w, None, &p, OffsetTransform::Identity);
        assert_eq!(y.dims(), &[1, 2, 5, 5]);
        // Group 0 (channels 0..2) must be insensitive to group-1 offsets.
        let mut off2 = off.clone();
        for t in 18..36 {
            for yy in 0..5 {
                for xx in 0..5 {
                    *off2.at4_mut(0, t, yy, xx) += 0.37;
                }
            }
        }
        // Zero the group-1 input channels so the output only depends on group 0.
        let mut x0 = x.clone();
        for c in 2..4 {
            for yy in 0..5 {
                for xx in 0..5 {
                    *x0.at4_mut(0, c, yy, xx) = 0.0;
                }
            }
        }
        let a = deform_conv2d_ref(&x0, &off, &w, None, &p, OffsetTransform::Identity);
        let b = deform_conv2d_ref(&x0, &off2, &w, None, &p, OffsetTransform::Identity);
        assert_close(&a, &b, 1e-5, 1e-5);
    }

    #[test]
    fn bounded_transform_clamps() {
        let t = OffsetTransform::Bounded(7.0);
        assert_eq!(t.apply(10.0), 7.0);
        assert_eq!(t.apply(-9.0), -7.0);
        assert_eq!(t.apply(3.2), 3.2);
        assert_eq!(t.grad(10.0), 0.0);
        assert_eq!(t.grad(3.2), 1.0);
    }

    #[test]
    fn rounded_transform_rounds() {
        let t = OffsetTransform::Rounded;
        assert_eq!(t.apply(1.4), 1.0);
        assert_eq!(t.apply(-0.6), -1.0);
        assert_eq!(t.grad(1.4), 1.0); // straight-through
    }

    #[test]
    fn backward_matches_finite_difference() {
        let p = DeformConv2dParams {
            conv: Conv2dParams::same(3),
            deform_groups: 1,
        };
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 37);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.5, 38);
        let off = Tensor::rand_uniform(&[1, 18, 5, 5], -0.8, 0.8, 39);
        let tr = OffsetTransform::Identity;

        let y = deform_conv2d_ref(&x, &off, &w, None, &p, tr);
        // Weighted-sum loss for non-trivial gy.
        let gy = Tensor::from_vec(
            (0..y.numel())
                .map(|i| ((i % 7) as f32 - 3.0) * 0.5)
                .collect(),
            y.dims(),
        );
        let loss = |x: &Tensor, off: &Tensor, w: &Tensor| {
            deform_conv2d_ref(x, off, w, None, &p, tr)
                .data()
                .iter()
                .zip(gy.data().iter())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (gx, goff, gw, _gb) = deform_conv2d_backward_ref(&x, &off, &w, &gy, &p, tr);

        let eps = 1e-2f32;
        for &idx in &[3usize, 12, 30, 44] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &off, &w) - loss(&xm, &off, &w)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 3e-2,
                "gx[{idx}]: {fd} vs {}",
                gx.data()[idx]
            );
        }
        for &idx in &[0usize, 10, 100, 300] {
            let mut op = off.clone();
            op.data_mut()[idx] += eps;
            let mut om = off.clone();
            om.data_mut()[idx] -= eps;
            let fd = (loss(&x, &op, &w) - loss(&x, &om, &w)) / (2.0 * eps);
            assert!(
                (fd - goff.data()[idx]).abs() < 3e-2,
                "goff[{idx}]: {fd} vs {}",
                goff.data()[idx]
            );
        }
        for &idx in &[0usize, 9, 20] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &off, &wp) - loss(&x, &off, &wm)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 3e-2,
                "gw[{idx}]: {fd} vs {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn bounded_matches_identity_when_within_bound() {
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 2, 6, 6], 0.0, 1.0, 40);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.5, 41);
        let off = Tensor::rand_uniform(&[1, 18, 6, 6], -2.0, 2.0, 42);
        let a = deform_conv2d_ref(&x, &off, &w, None, &p, OffsetTransform::Identity);
        let b = deform_conv2d_ref(&x, &off, &w, None, &p, OffsetTransform::Bounded(7.0));
        assert_close(&a, &b, 1e-6, 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Modulated deformable convolution (DCNv2, Zhu et al. — the variant
// YOLACT++ builds on: each tap also learns a scalar modulation weight)
// ---------------------------------------------------------------------------

/// Modulated deformable convolution forward (DCNv2):
///
/// `y(p_o) = Σ_i w(p_i) · m_i(p_o) · x(p_o + p_i + Δp_i)`
///
/// * `mask`: `[N, G·k², outH, outW]` modulation scalars, already passed
///   through a sigmoid by the caller (channel `g·k² + tap`).
///
/// Offsets follow the same layout and transform rules as
/// [`deform_conv2d_ref`].
pub fn deform_conv2d_v2_ref(
    x: &Tensor,
    offsets: &Tensor,
    mask: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, k, _) = weight.shape().nchw();
    let (oh, ow) = p.conv.out_hw(h, w);
    let kk = k * k;
    assert_eq!(
        mask.dims(),
        &[n, p.deform_groups * kk, oh, ow],
        "mask tensor must be [N, G*k*k, outH, outW]"
    );
    let ch_per_group = c_in / p.deform_groups;
    let conv = p.conv;
    let dgroups = p.deform_groups;
    let wdata = weight.data();

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    out.data_mut()
        .par_chunks_mut(c_out * oh * ow)
        .enumerate()
        .for_each(|(ni, dst)| {
            // Shared per-pixel scratch (see `deform_conv2d_ref`). The
            // modulation factor is hoisted per (g, tap) but the multiply
            // stays `(w · m) · sample` — the exact association the
            // v3 ≡ flat-mask-v2 byte identity is pinned to.
            let mut coords = vec![(0.0f32, 0.0f32); dgroups * kk];
            let mut mfac = vec![0.0f32; dgroups * kk];
            let mut samples = vec![0.0f32; c_in * kk];
            for oy in 0..oh {
                for ox in 0..ow {
                    for g in 0..dgroups {
                        for ki in 0..k {
                            for kj in 0..k {
                                let tap = ki * k + kj;
                                let oc = 2 * (g * kk + tap);
                                let dy = transform.apply(offsets.at4(ni, oc, oy, ox));
                                let dx = transform.apply(offsets.at4(ni, oc + 1, oy, ox));
                                let py = (oy * conv.stride + ki * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dy;
                                let px = (ox * conv.stride + kj * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dx;
                                coords[g * kk + tap] = (py, px);
                                mfac[g * kk + tap] = mask.at4(ni, g * kk + tap, oy, ox);
                            }
                        }
                    }
                    for ci in 0..c_in {
                        let g = ci / ch_per_group;
                        for (tap, &(py, px)) in coords[g * kk..(g + 1) * kk].iter().enumerate() {
                            samples[ci * kk + tap] = bilinear_sample(x, ni, ci, py, px);
                        }
                    }
                    for co in 0..c_out {
                        let w_row = &wdata[co * c_in * kk..(co + 1) * c_in * kk];
                        let mut acc = 0.0f32;
                        for ci in 0..c_in {
                            let g = ci / ch_per_group;
                            let mrow = &mfac[g * kk..(g + 1) * kk];
                            let srow = &samples[ci * kk..(ci + 1) * kk];
                            let wrow = &w_row[ci * kk..(ci + 1) * kk];
                            for tap in 0..kk {
                                acc += wrow[tap] * mrow[tap] * srow[tap];
                            }
                        }
                        dst[(co * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        });
    if let Some(b) = bias {
        crate::conv::add_channel_bias(&mut out, b);
    }
    out
}

/// Verbatim copy of the pre-restructure [`deform_conv2d_v2_ref`]; test-only
/// bitwise oracle for the shared-scratch rewrite (see the `legacy_pinning`
/// tests).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn deform_conv2d_v2_ref_legacy(
    x: &Tensor,
    offsets: &Tensor,
    mask: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, k, _) = weight.shape().nchw();
    let (oh, ow) = p.conv.out_hw(h, w);
    let kk = k * k;
    assert_eq!(
        mask.dims(),
        &[n, p.deform_groups * kk, oh, ow],
        "mask tensor must be [N, G*k*k, outH, outW]"
    );
    let ch_per_group = c_in / p.deform_groups;
    let conv = p.conv;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    out.data_mut()
        .par_chunks_mut(oh * ow)
        .enumerate()
        .for_each(|(flat, dst)| {
            let (ni, co) = (flat / c_out, flat % c_out);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        let g = ci / ch_per_group;
                        for ki in 0..k {
                            for kj in 0..k {
                                let tap = ki * k + kj;
                                let oc = 2 * (g * kk + tap);
                                let dy = transform.apply(offsets.at4(ni, oc, oy, ox));
                                let dx = transform.apply(offsets.at4(ni, oc + 1, oy, ox));
                                let m = mask.at4(ni, g * kk + tap, oy, ox);
                                let py = (oy * conv.stride + ki * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dy;
                                let px = (ox * conv.stride + kj * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dx;
                                acc += weight.at4(co, ci, ki, kj)
                                    * m
                                    * bilinear_sample(x, ni, ci, py, px);
                            }
                        }
                    }
                    dst[oy * ow + ox] = acc;
                }
            }
        });
    if let Some(b) = bias {
        crate::conv::add_channel_bias(&mut out, b);
    }
    out
}

/// Gradients of [`deform_conv2d_v2_ref`] w.r.t. input, offsets, mask,
/// weight and bias: `(gx, goff, gmask, gw, gb)`.
#[allow(clippy::too_many_arguments)]
pub fn deform_conv2d_v2_backward_ref(
    x: &Tensor,
    offsets: &Tensor,
    mask: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> (Tensor, Tensor, Tensor, Tensor, Tensor) {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, k, _) = weight.shape().nchw();
    let (oh, ow) = p.conv.out_hw(h, w);
    let ch_per_group = c_in / p.deform_groups;
    let kk = k * k;
    let conv = p.conv;

    let mut gx = Tensor::zeros(x.dims());
    let mut goff = Tensor::zeros(offsets.dims());
    let mut gmask = Tensor::zeros(mask.dims());
    let mut gw = Tensor::zeros(weight.dims());
    let mut gb = Tensor::zeros(&[c_out]);

    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c_in {
                    let g = ci / ch_per_group;
                    for ki in 0..k {
                        for kj in 0..k {
                            let tap = ki * k + kj;
                            let oc = 2 * (g * kk + tap);
                            let raw_dy = offsets.at4(ni, oc, oy, ox);
                            let raw_dx = offsets.at4(ni, oc + 1, oy, ox);
                            let dy = transform.apply(raw_dy);
                            let dx = transform.apply(raw_dx);
                            let m = mask.at4(ni, g * kk + tap, oy, ox);
                            let py = (oy * conv.stride + ki * conv.dilation) as f32
                                - conv.pad as f32
                                + dy;
                            let px = (ox * conv.stride + kj * conv.dilation) as f32
                                - conv.pad as f32
                                + dx;

                            let sampled = bilinear_sample(x, ni, ci, py, px);
                            let (gpy, gpx) = bilinear_sample_grad_pos(x, ni, ci, py, px);

                            let mut gsum = 0.0f32;
                            for co in 0..c_out {
                                let gout = gy.at4(ni, co, oy, ox);
                                if gout == 0.0 {
                                    continue;
                                }
                                let wv = weight.at4(co, ci, ki, kj);
                                gsum += gout * wv;
                                *gw.at4_mut(co, ci, ki, kj) += gout * m * sampled;
                            }
                            if gsum != 0.0 {
                                *gmask.at4_mut(ni, g * kk + tap, oy, ox) += gsum * sampled;
                                let gm = gsum * m;
                                *goff.at4_mut(ni, oc, oy, ox) += gm * gpy * transform.grad(raw_dy);
                                *goff.at4_mut(ni, oc + 1, oy, ox) +=
                                    gm * gpx * transform.grad(raw_dx);
                                bilinear_scatter(h, w, py, px, |qy, qx, wgt| {
                                    *gx.at4_mut(ni, ci, qy, qx) += gm * wgt;
                                });
                            }
                        }
                    }
                }
                for co in 0..c_out {
                    gb.data_mut()[co] += gy.at4(ni, co, oy, ox);
                }
            }
        }
    }
    (gx, goff, gmask, gw, gb)
}

// ---------------------------------------------------------------------------

/// Numerically stable logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`.
///
/// Both branches avoid overflow in the exponential: for `x ≥ 0` the
/// argument of `exp` is non-positive, for `x < 0` the small exponential
/// appears in numerator and denominator. The result is always in
/// `[0, 1]` and strictly monotone in `x`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Softmax over one deformable group's `k²` tap logits, computed in f64
/// with the max subtracted (DCNv3 normalization).
///
/// The f64 accumulation keeps `Σᵢ wᵢ = 1` within 1e-12 for any sane
/// logit range, and for *constant* logits every shifted exponential is
/// exactly `exp(0) = 1.0`, so each weight is exactly `fl(1/k²)` — the
/// property the v3 ≡ uniform-average conformance identity relies on.
pub fn tap_softmax(logits: &[f32]) -> Vec<f64> {
    let max = logits
        .iter()
        .fold(f64::NEG_INFINITY, |m, &v| m.max(v as f64));
    let mut exps: Vec<f64> = logits.iter().map(|&v| (v as f64 - max).exp()).collect();
    let z: f64 = exps.iter().sum();
    for e in &mut exps {
        *e /= z;
    }
    exps
}

/// Sparse-aggregation deformable convolution forward (DCNv3):
///
/// `y(p_o) = Σ_i w(p_i) · softmax_i(l(p_o))_i · x(p_o + p_i + Δp_i)`
///
/// * `logits`: `[N, G·k², outH, outW]` **raw** aggregation logits
///   (channel `g·k² + tap`); the softmax over the `k²` taps of each
///   group is computed here, per output position — unlike DCNv2 the
///   caller passes no sigmoid-activated mask.
///
/// Offsets follow the same layout and transform rules as
/// [`deform_conv2d_ref`]. The per-tap multiply order matches
/// [`deform_conv2d_v2_ref`] (`w · m · sample`), so v3 with constant
/// logits is byte-identical to v2 with a flat `fl(1/k²)` mask.
pub fn deform_conv2d_v3_ref(
    x: &Tensor,
    offsets: &Tensor,
    logits: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, k, _) = weight.shape().nchw();
    let (oh, ow) = p.conv.out_hw(h, w);
    let kk = k * k;
    assert_eq!(
        logits.dims(),
        &[n, p.deform_groups * kk, oh, ow],
        "logit tensor must be [N, G*k*k, outH, outW]"
    );
    let ch_per_group = c_in / p.deform_groups;
    let dgroups = p.deform_groups;
    let conv = p.conv;
    let wdata = weight.data();

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    out.data_mut()
        .par_chunks_mut(c_out * oh * ow)
        .enumerate()
        .for_each(|(ni, dst)| {
            // Shared per-pixel scratch (see `deform_conv2d_ref`). The
            // softmax is computed once per pixel instead of once per
            // (pixel, output-channel) pair; the f64→f32 cast happens when
            // `mfac` is filled, and the multiply stays `(w · m) · sample`
            // — the exact association the v3 ≡ flat-mask-v2 byte identity
            // is pinned to.
            let mut raw = vec![0.0f32; kk];
            let mut coords = vec![(0.0f32, 0.0f32); dgroups * kk];
            let mut mfac = vec![0.0f32; dgroups * kk];
            let mut samples = vec![0.0f32; c_in * kk];
            for oy in 0..oh {
                for ox in 0..ow {
                    for g in 0..dgroups {
                        for (tap, slot) in raw.iter_mut().enumerate() {
                            *slot = logits.at4(ni, g * kk + tap, oy, ox);
                        }
                        for (tap, &wv) in tap_softmax(&raw).iter().enumerate() {
                            mfac[g * kk + tap] = wv as f32;
                        }
                        for ki in 0..k {
                            for kj in 0..k {
                                let tap = ki * k + kj;
                                let oc = 2 * (g * kk + tap);
                                let dy = transform.apply(offsets.at4(ni, oc, oy, ox));
                                let dx = transform.apply(offsets.at4(ni, oc + 1, oy, ox));
                                let py = (oy * conv.stride + ki * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dy;
                                let px = (ox * conv.stride + kj * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dx;
                                coords[g * kk + tap] = (py, px);
                            }
                        }
                    }
                    for ci in 0..c_in {
                        let g = ci / ch_per_group;
                        for (tap, &(py, px)) in coords[g * kk..(g + 1) * kk].iter().enumerate() {
                            samples[ci * kk + tap] = bilinear_sample(x, ni, ci, py, px);
                        }
                    }
                    for co in 0..c_out {
                        let w_row = &wdata[co * c_in * kk..(co + 1) * c_in * kk];
                        let mut acc = 0.0f32;
                        for ci in 0..c_in {
                            let g = ci / ch_per_group;
                            let mrow = &mfac[g * kk..(g + 1) * kk];
                            let srow = &samples[ci * kk..(ci + 1) * kk];
                            let wrow = &w_row[ci * kk..(ci + 1) * kk];
                            for tap in 0..kk {
                                acc += wrow[tap] * mrow[tap] * srow[tap];
                            }
                        }
                        dst[(co * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        });
    if let Some(b) = bias {
        crate::conv::add_channel_bias(&mut out, b);
    }
    out
}

/// Verbatim copy of the pre-restructure [`deform_conv2d_v3_ref`]; test-only
/// bitwise oracle for the shared-scratch rewrite (see the `legacy_pinning`
/// tests).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn deform_conv2d_v3_ref_legacy(
    x: &Tensor,
    offsets: &Tensor,
    logits: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &DeformConv2dParams,
    transform: OffsetTransform,
) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, k, _) = weight.shape().nchw();
    let (oh, ow) = p.conv.out_hw(h, w);
    let kk = k * k;
    assert_eq!(
        logits.dims(),
        &[n, p.deform_groups * kk, oh, ow],
        "logit tensor must be [N, G*k*k, outH, outW]"
    );
    let ch_per_group = c_in / p.deform_groups;
    let dgroups = p.deform_groups;
    let conv = p.conv;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    out.data_mut()
        .par_chunks_mut(oh * ow)
        .enumerate()
        .for_each(|(flat, dst)| {
            let (ni, co) = (flat / c_out, flat % c_out);
            let mut raw = vec![0.0f32; kk];
            let mut wsoft = vec![0.0f64; dgroups * kk];
            for oy in 0..oh {
                for ox in 0..ow {
                    for g in 0..dgroups {
                        for (tap, slot) in raw.iter_mut().enumerate() {
                            *slot = logits.at4(ni, g * kk + tap, oy, ox);
                        }
                        wsoft[g * kk..(g + 1) * kk].copy_from_slice(&tap_softmax(&raw));
                    }
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        let g = ci / ch_per_group;
                        for ki in 0..k {
                            for kj in 0..k {
                                let tap = ki * k + kj;
                                let oc = 2 * (g * kk + tap);
                                let dy = transform.apply(offsets.at4(ni, oc, oy, ox));
                                let dx = transform.apply(offsets.at4(ni, oc + 1, oy, ox));
                                let py = (oy * conv.stride + ki * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dy;
                                let px = (ox * conv.stride + kj * conv.dilation) as f32
                                    - conv.pad as f32
                                    + dx;
                                acc += weight.at4(co, ci, ki, kj)
                                    * (wsoft[g * kk + tap] as f32)
                                    * bilinear_sample(x, ni, ci, py, px);
                            }
                        }
                    }
                    dst[oy * ow + ox] = acc;
                }
            }
        });
    if let Some(b) = bias {
        crate::conv::add_channel_bias(&mut out, b);
    }
    out
}

#[cfg(test)]
mod v2_tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn unit_mask_reduces_to_dcn_v1() {
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 3, 7, 7], 0.0, 1.0, 200);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, 201);
        let off = Tensor::rand_uniform(&[1, 18, 7, 7], -1.5, 1.5, 202);
        let m = Tensor::ones(&[1, 9, 7, 7]);
        let v2 = deform_conv2d_v2_ref(&x, &off, &m, &w, None, &p, OffsetTransform::Identity);
        let v1 = deform_conv2d_ref(&x, &off, &w, None, &p, OffsetTransform::Identity);
        assert_close(&v2, &v1, 1e-4, 1e-4);
    }

    #[test]
    fn zero_mask_zeroes_output() {
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 203);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.4, 204);
        let off = Tensor::zeros(&[1, 18, 5, 5]);
        let m = Tensor::zeros(&[1, 9, 5, 5]);
        let y = deform_conv2d_v2_ref(&x, &off, &m, &w, None, &p, OffsetTransform::Identity);
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn per_tap_modulation_gates_only_its_tap() {
        // 1x1 kernel: masking the single tap scales the whole output.
        let p = DeformConv2dParams {
            conv: crate::conv::Conv2dParams {
                kernel: 1,
                stride: 1,
                pad: 0,
                dilation: 1,
            },
            deform_groups: 1,
        };
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, 205);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let off = Tensor::zeros(&[1, 2, 4, 4]);
        let m = Tensor::full(&[1, 1, 4, 4], 0.25);
        let y = deform_conv2d_v2_ref(&x, &off, &m, &w, None, &p, OffsetTransform::Identity);
        assert_close(&y, &x.scale(0.25), 1e-6, 1e-6);
    }

    #[test]
    fn v2_backward_matches_finite_difference() {
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 206);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.4, 207);
        let off = Tensor::rand_uniform(&[1, 18, 5, 5], -0.9, 0.9, 208);
        let m = Tensor::rand_uniform(&[1, 9, 5, 5], 0.2, 0.9, 209);
        let tr = OffsetTransform::Identity;
        let y = deform_conv2d_v2_ref(&x, &off, &m, &w, None, &p, tr);
        let gy = Tensor::from_vec(
            (0..y.numel())
                .map(|i| ((i % 5) as f32 - 2.0) * 0.4)
                .collect(),
            y.dims(),
        );
        let loss = |x: &Tensor, off: &Tensor, m: &Tensor, w: &Tensor| {
            deform_conv2d_v2_ref(x, off, m, w, None, &p, tr)
                .data()
                .iter()
                .zip(gy.data().iter())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (gx, goff, gmask, gw, _) = deform_conv2d_v2_backward_ref(&x, &off, &m, &w, &gy, &p, tr);

        let eps = 1e-2f32;
        for &idx in &[0usize, 13, 30] {
            let mut a = x.clone();
            a.data_mut()[idx] += eps;
            let mut b = x.clone();
            b.data_mut()[idx] -= eps;
            let fd = (loss(&a, &off, &m, &w) - loss(&b, &off, &m, &w)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 3e-2,
                "gx[{idx}]: {fd} vs {}",
                gx.data()[idx]
            );
        }
        for &idx in &[5usize, 77, 200] {
            let mut a = off.clone();
            a.data_mut()[idx] += eps;
            let mut b = off.clone();
            b.data_mut()[idx] -= eps;
            let fd = (loss(&x, &a, &m, &w) - loss(&x, &b, &m, &w)) / (2.0 * eps);
            assert!(
                (fd - goff.data()[idx]).abs() < 3e-2,
                "goff[{idx}]: {fd} vs {}",
                goff.data()[idx]
            );
        }
        for &idx in &[0usize, 60, 150] {
            let mut a = m.clone();
            a.data_mut()[idx] += eps;
            let mut b = m.clone();
            b.data_mut()[idx] -= eps;
            let fd = (loss(&x, &off, &a, &w) - loss(&x, &off, &b, &w)) / (2.0 * eps);
            assert!(
                (fd - gmask.data()[idx]).abs() < 3e-2,
                "gmask[{idx}]: {fd} vs {}",
                gmask.data()[idx]
            );
        }
        for &idx in &[0usize, 17] {
            let mut a = w.clone();
            a.data_mut()[idx] += eps;
            let mut b = w.clone();
            b.data_mut()[idx] -= eps;
            let fd = (loss(&x, &off, &m, &a) - loss(&x, &off, &m, &b)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 3e-2,
                "gw[{idx}]: {fd} vs {}",
                gw.data()[idx]
            );
        }
    }
}

#[cfg(test)]
mod v3_tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn sigmoid_range_monotone_and_symmetric() {
        let mut prev = f32::NEG_INFINITY;
        for i in -200..=200 {
            let x = i as f32 * 0.5;
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s} out of range");
            assert!(s >= prev, "sigmoid not monotone at {x}");
            assert!((sigmoid(-x) - (1.0 - s)).abs() < 1e-6);
            prev = s;
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(100.0), 1.0);
        assert!(sigmoid(-100.0) < 1e-30);
    }

    #[test]
    fn tap_softmax_sums_to_one_and_is_uniform_on_constant_logits() {
        let w = tap_softmax(&[1.25; 9]);
        for &v in &w {
            assert_eq!(v, 1.0 / 9.0, "constant logits must give exact fl(1/k²)");
        }
        let w = tap_softmax(&[0.3, -2.0, 5.5, 0.0, 1.0, -0.7, 3.2, 2.2, -4.4]);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "softmax sum {sum}");
        assert!(w.iter().all(|&v| v > 0.0 && v < 1.0));
        // The largest logit must carry the largest weight.
        assert_eq!(
            w.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i),
            Some(2)
        );
    }

    #[test]
    fn constant_logits_match_flat_v2_mask_bytewise() {
        // DCNv3 with constant logits is a uniform average over taps, i.e.
        // DCNv2 with a flat fl(1/k²) mask — byte-for-byte, because both
        // paths multiply `w · m · sample` with the same m.
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 4, 6, 6], 0.0, 1.0, 300);
        let w = Tensor::randn(&[3, 4, 3, 3], 0.0, 0.4, 301);
        let off = Tensor::rand_uniform(&[1, 18, 6, 6], -1.2, 1.2, 302);
        let logits = Tensor::full(&[1, 9, 6, 6], 0.875);
        let mask = Tensor::full(&[1, 9, 6, 6], (1.0f64 / 9.0) as f32);
        let v3 = deform_conv2d_v3_ref(&x, &off, &logits, &w, None, &p, OffsetTransform::Identity);
        let v2 = deform_conv2d_v2_ref(&x, &off, &mask, &w, None, &p, OffsetTransform::Identity);
        assert_eq!(v3.data(), v2.data(), "uniform reduction must be exact");
    }

    #[test]
    fn softmax_weights_are_permutation_equivariant_in_the_output() {
        let p = DeformConv2dParams::same3x3();
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 303);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.4, 304);
        let off = Tensor::zeros(&[1, 18, 5, 5]);
        // A one-hot-ish logit pattern: tap 4 (the centre) dominates.
        let mut logits = Tensor::full(&[1, 9, 5, 5], -20.0);
        for oy in 0..5 {
            for ox in 0..5 {
                *logits.at4_mut(0, 4, oy, ox) = 20.0;
            }
        }
        let y = deform_conv2d_v3_ref(&x, &off, &logits, &w, None, &p, OffsetTransform::Identity);
        // With the centre tap dominating and zero offsets this is a plain
        // 1x1 conv with the centre weights.
        let mut expect = Tensor::zeros(&[1, 2, 5, 5]);
        for co in 0..2 {
            for oy in 0..5 {
                for ox in 0..5 {
                    let mut acc = 0.0f32;
                    for ci in 0..2 {
                        acc += w.at4(co, ci, 1, 1) * x.at4(0, ci, oy, ox);
                    }
                    *expect.at4_mut(0, co, oy, ox) = acc;
                }
            }
        }
        assert_close(&y, &expect, 1e-4, 1e-4);
    }

    #[test]
    fn v3_with_grouped_logits_respects_group_boundaries() {
        // Two deform groups: zero out group 1's taps entirely via a
        // dominant negative pattern and confirm only group-0 channels
        // contribute when the weight is selective.
        let p = DeformConv2dParams {
            conv: crate::conv::Conv2dParams::same(3),
            deform_groups: 2,
        };
        let x = Tensor::randn(&[1, 4, 5, 5], 0.0, 1.0, 305);
        let off = Tensor::zeros(&[1, 36, 5, 5]);
        let logits = Tensor::rand_uniform(&[1, 18, 5, 5], -1.0, 1.0, 306);
        let w = Tensor::randn(&[2, 4, 3, 3], 0.0, 0.4, 307);
        let y = deform_conv2d_v3_ref(&x, &off, &logits, &w, None, &p, OffsetTransform::Identity);
        assert_eq!(y.dims(), &[1, 2, 5, 5]);
        assert!(y.data().iter().any(|&v| v != 0.0));
    }
}

#[cfg(test)]
mod legacy_pinning {
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The shared-scratch forward rewrites must be byte-identical to the
    /// verbatim legacy loops for every family, transform and group layout.
    #[test]
    fn restructured_refs_are_bitwise_identical_to_legacy() {
        let cases = [
            (1usize, 4usize, 3usize, 1usize, 6usize, 6usize),
            (2, 4, 2, 2, 5, 7),
            (1, 6, 5, 3, 4, 4),
        ];
        let transforms = [
            OffsetTransform::Identity,
            OffsetTransform::Bounded(1.25),
            OffsetTransform::BoundedRounded(2.0),
        ];
        for (case, &(n, c_in, c_out, dgroups, h, w)) in cases.iter().enumerate() {
            let p = DeformConv2dParams {
                conv: crate::conv::Conv2dParams::same(3),
                deform_groups: dgroups,
            };
            let seed = 9000 + 17 * case as u64;
            let x = Tensor::randn(&[n, c_in, h, w], 0.0, 1.0, seed);
            let wt = Tensor::randn(&[c_out, c_in, 3, 3], 0.0, 0.4, seed + 1);
            let off = Tensor::rand_uniform(&[n, p.offset_channels(), h, w], -1.6, 1.6, seed + 2);
            let mask = Tensor::rand_uniform(&[n, dgroups * 9, h, w], 0.0, 1.0, seed + 3);
            let logits = Tensor::rand_uniform(&[n, dgroups * 9, h, w], -2.0, 2.0, seed + 4);
            let bias = Tensor::randn(&[c_out], 0.0, 0.1, seed + 5);
            for tr in transforms {
                let v1 = deform_conv2d_ref(&x, &off, &wt, Some(&bias), &p, tr);
                let v1_old = deform_conv2d_ref_legacy(&x, &off, &wt, Some(&bias), &p, tr);
                assert_eq!(bits(&v1), bits(&v1_old), "v1 case {case} {tr:?}");

                let v2 = deform_conv2d_v2_ref(&x, &off, &mask, &wt, None, &p, tr);
                let v2_old = deform_conv2d_v2_ref_legacy(&x, &off, &mask, &wt, None, &p, tr);
                assert_eq!(bits(&v2), bits(&v2_old), "v2 case {case} {tr:?}");

                let v3 = deform_conv2d_v3_ref(&x, &off, &logits, &wt, Some(&bias), &p, tr);
                let v3_old =
                    deform_conv2d_v3_ref_legacy(&x, &off, &logits, &wt, Some(&bias), &p, tr);
                assert_eq!(bits(&v3), bits(&v3_old), "v3 case {case} {tr:?}");
            }
        }
    }
}
