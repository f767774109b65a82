//! The sampling (im2col) stage of deformable convolution.
//!
//! This is the kernel DEFCON rewrites: for every output position and kernel
//! tap it computes the deformed sampling coordinate and materializes the
//! bilinearly-interpolated value into the column matrix consumed by the
//! GEMM stage. The *software* variant (what PyTorch/mmcv ship) performs the
//! interpolation manually from global memory; the *texture* variants bind
//! the input feature map as a layered 2-D texture and let the texture unit
//! filter.

use crate::layer::{DeformLayerShape, TileConfig};
use crate::op::{check_modulation, OpFamily};
use defcon_gpusim::texture::{AddressMode, FilterMode, LayeredTexture2d};
use defcon_gpusim::trace::{BlockTrace, LaneBuf, TraceSink};
use defcon_support::error::DefconError;
use defcon_tensor::sample::{Modulation, OffsetTransform};
use defcon_tensor::Tensor;

/// Simulated address-space bases (one region per buffer, far apart so cache
/// sets are shared realistically but regions never alias).
pub mod address_map {
    /// Input feature map (NCHW, row-major).
    pub const INPUT: u64 = 0x1000_0000;
    /// Offset tensor.
    pub const OFFSETS: u64 = 0x2000_0000;
    /// Column buffer.
    pub const COLUMNS: u64 = 0x3000_0000;
    /// Filter weights.
    pub const WEIGHTS: u64 = 0x4000_0000;
    /// Output tensor.
    pub const OUTPUT: u64 = 0x5000_0000;
    /// Modulation tensor (DCNv2 mask / DCNv3 logits).
    pub const MODULATION: u64 = 0x6000_0000;
    /// Texture storage.
    pub const TEXTURE: u64 = 0x8000_0000;
}

/// How the sampling stage reads the input feature map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Software bilinear from global memory (PyTorch baseline).
    Software,
    /// Hardware-filtered fetches from a layered texture; `frac_bits`
    /// controls the filter precision (23 = `tex2D`, 8 = `tex2D++`).
    Texture {
        /// Interpolation-fraction bits.
        frac_bits: u32,
    },
}

/// The deformable im2col kernel: grid = `N × C_in × output tiles`, one
/// thread per output position in the tile, each thread materializing all
/// `k²` taps of its position for its channel.
pub struct Im2colDeformKernel<'a> {
    /// Layer shape.
    pub shape: DeformLayerShape,
    /// Thread-block tile over the output plane.
    pub tile: TileConfig,
    /// Input feature map `[N, C_in, H, W]`.
    pub x: &'a Tensor,
    /// Offsets `[N, 2·G·k², outH, outW]` (already transformed if bounding /
    /// rounding applies — see `offset_transform`).
    pub offsets: &'a Tensor,
    /// Transform applied to raw offsets when computing sample coordinates.
    pub offset_transform: OffsetTransform,
    /// Sampling implementation.
    pub sampling: Sampling,
    /// The layered texture holding `x` (required iff `sampling` is
    /// `Texture`).
    pub texture: Option<LayeredTexture2d>,
    /// Operator generation; gates the modulation loads and arithmetic
    /// (v1 traces are byte-identical to the pre-family kernel).
    pub family: OpFamily,
    /// Modulation tensor `[N, G·k², outH, outW]` — post-sigmoid mask for
    /// v2, raw logits for v3. `None` is the family's neutral element
    /// (all-ones mask / constant logits); the trace never reads the
    /// values, only the numeric path does.
    pub modulation: Option<&'a Tensor>,
}

/// Output tiles along `(y, x)` covering the output plane of `shape`.
pub(crate) fn tiles_xy(shape: &DeformLayerShape, tile: TileConfig) -> (usize, usize) {
    let (oh, ow) = shape.out_hw();
    (oh.div_ceil(tile.h), ow.div_ceil(tile.w))
}

/// Simulated address of offset channel `ch` at output `(oy, ox)` of batch
/// item `ni`.
#[inline]
pub(crate) fn offset_addr(
    shape: &DeformLayerShape,
    ni: usize,
    ch: usize,
    oy: usize,
    ox: usize,
) -> u64 {
    let (oh, ow) = shape.out_hw();
    let oc = shape.offset_channels();
    address_map::OFFSETS + 4 * (((ni * oc + ch) * oh + oy) * ow + ox) as u64
}

/// Simulated address of modulation channel `ch` (`g·k² + tap`) at output
/// `(oy, ox)` of batch item `ni`.
#[inline]
pub(crate) fn modulation_addr(
    shape: &DeformLayerShape,
    ni: usize,
    ch: usize,
    oy: usize,
    ox: usize,
) -> u64 {
    let (oh, ow) = shape.out_hw();
    let mc = shape.deform_groups * shape.kernel * shape.kernel;
    address_map::MODULATION + 4 * (((ni * mc + ch) * oh + oy) * ow + ox) as u64
}

/// Binds `x` as a layered texture with border addressing and the requested
/// filter precision — the texture setup every texture kernel shares.
/// Limit failures come back as typed `texture-limit` constraints.
pub(crate) fn bind_texture(
    x: &Tensor,
    frac_bits: u32,
    max_layers: usize,
    max_dim: usize,
) -> Result<LayeredTexture2d, DefconError> {
    let (n, c, h, w) = x.shape().nchw();
    let mut t = LayeredTexture2d::new(
        x.data().to_vec(),
        n * c,
        h,
        w,
        address_map::TEXTURE,
        max_layers,
        max_dim,
    )
    .map_err(|e| DefconError::Constraint {
        what: "texture-limit".into(),
        detail: e.message,
    })?;
    t.filter_mode = FilterMode::Linear { frac_bits };
    t.address_mode = AddressMode::Border;
    Ok(t)
}

impl<'a> Im2colDeformKernel<'a> {
    /// Builds the kernel for `family`, with an optional borrowed modulation
    /// tensor (mask / logits), constructing the layered texture when
    /// needed. `max_layers` / `max_dim` are the device texture limits.
    /// A modulation tensor of the wrong shape, or a texture over the
    /// limits, is a typed constraint error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shape: DeformLayerShape,
        tile: TileConfig,
        x: &'a Tensor,
        offsets: &'a Tensor,
        offset_transform: OffsetTransform,
        sampling: Sampling,
        max_layers: usize,
        max_dim: usize,
        family: OpFamily,
        modulation: Option<&'a Tensor>,
    ) -> Result<Self, DefconError> {
        check_modulation(&shape, family, modulation)?;
        let texture = match sampling {
            Sampling::Software => None,
            Sampling::Texture { frac_bits } => {
                Some(bind_texture(x, frac_bits, max_layers, max_dim)?)
            }
        };
        Ok(Im2colDeformKernel {
            shape,
            tile,
            x,
            offsets,
            offset_transform,
            sampling,
            texture,
            family,
            modulation,
        })
    }

    #[inline]
    fn input_addr(&self, ni: usize, ci: usize, y: usize, x: usize) -> u64 {
        let s = self.shape;
        address_map::INPUT + 4 * (((ni * s.c_in + ci) * s.h + y) * s.w + x) as u64
    }

    #[inline]
    fn col_addr(&self, ni: usize, row: usize, col: usize) -> u64 {
        let (oh, ow) = self.shape.out_hw();
        let rows = self.shape.c_in * self.shape.kernel * self.shape.kernel;
        address_map::COLUMNS + 4 * ((ni * rows + row) * oh * ow + col) as u64
    }

    /// Writes the numeric modulation factors of deformable group `g` at
    /// output `(oy, ox)` into `out` (one per tap) through the reference's
    /// [`Modulation::group_factors`]. The neutral elements: `1` for v1 and
    /// for v2 without a mask; `fl(1/k²)` for v3 without logits — exactly
    /// what [`tap_softmax`](defcon_tensor::sample::tap_softmax) yields for
    /// constant logits, so the None/constant reduction is byte-exact.
    fn group_factors(&self, ni: usize, g: usize, oy: usize, ox: usize, out: &mut [f32]) {
        let modulation = match (self.family, self.modulation) {
            (OpFamily::DcnV1, _) | (OpFamily::DcnV2, None) => Modulation::None,
            (OpFamily::DcnV2, Some(mask)) => Modulation::Mask(mask),
            (OpFamily::DcnV3, Some(logits)) => Modulation::Softmax(logits),
            (OpFamily::DcnV3, None) => return out.fill((1.0f64 / out.len() as f64) as f32),
        };
        modulation.group_factors(ni, g, oy, ox, out);
    }

    /// The numeric modulation factor of one tap: `1` for v1, the mask
    /// value for v2, the grouped softmax weight for v3 (see
    /// `group_factors` for the neutral elements).
    pub fn modulation_factor(&self, ni: usize, g: usize, tap: usize, oy: usize, ox: usize) -> f32 {
        let mut factors = vec![0.0f32; self.shape.kernel * self.shape.kernel];
        self.group_factors(ni, g, oy, ox, &mut factors);
        factors[tap]
    }

    /// The sampling coordinate of `tap` at output `(oy, ox)` for deformable
    /// group `g`: `p = p_o + p_i + Δp_i` with the offset transform applied.
    fn sample_coord(&self, ni: usize, g: usize, tap: usize, oy: usize, ox: usize) -> (f32, f32) {
        let s = self.shape;
        let kk = s.kernel * s.kernel;
        let (ki, kj) = (tap / s.kernel, tap % s.kernel);
        let ch = 2 * (g * kk + tap);
        let dy = self
            .offset_transform
            .apply(self.offsets.at4(ni, ch, oy, ox));
        let dx = self
            .offset_transform
            .apply(self.offsets.at4(ni, ch + 1, oy, ox));
        let py = (oy * s.stride + ki) as f32 - s.pad as f32 + dy;
        let px = (ox * s.stride + kj) as f32 - s.pad as f32 + dx;
        (py, px)
    }
}

impl BlockTrace for Im2colDeformKernel<'_> {
    fn grid_blocks(&self) -> usize {
        let (ty, tx) = tiles_xy(&self.shape, self.tile);
        self.shape.n * self.shape.c_in * ty * tx
    }

    fn block_threads(&self) -> usize {
        self.tile.threads()
    }

    fn label(&self) -> String {
        let base = match self.sampling {
            Sampling::Software => "deform_im2col_sw",
            Sampling::Texture { frac_bits } if frac_bits <= 10 => "deform_im2col_tex2dpp",
            Sampling::Texture { .. } => "deform_im2col_tex2d",
        };
        format!("{base}{}", self.family.label_suffix())
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let (ty_count, tx_count) = tiles_xy(&s, self.tile);
        let blocks_per_channel = ty_count * tx_count;
        let ci = (block / blocks_per_channel) % s.c_in;
        let ni = block / (s.c_in * blocks_per_channel);
        let t = block % blocks_per_channel;
        let (tile_y, tile_x) = (t / tx_count, t % tx_count);
        let g = ci / (s.c_in / s.deform_groups);
        let kk = s.kernel * s.kernel;

        // Threads cover the tile row-major; lanes of one warp are
        // consecutive threads (so consecutive output columns, wrapping at
        // tile width — the standard CUDA mapping). All warp-level event
        // staging goes through fixed-capacity `LaneBuf`s / sink iterators:
        // this loop performs no heap allocation (see `tests/zero_alloc.rs`).
        let threads = self.tile.threads();
        let mut lanes: LaneBuf<(usize, usize)> = LaneBuf::new();
        for warp_start in (0..threads).step_by(32) {
            // Gather the warp's valid output positions.
            lanes.fill_from(
                (warp_start..(warp_start + 32).min(threads)).filter_map(|tid| {
                    let oy = tile_y * self.tile.h + tid / self.tile.w;
                    let ox = tile_x * self.tile.w + tid % self.tile.w;
                    (oy < oh && ox < ow).then_some((oy, ox))
                }),
            );
            if lanes.is_empty() {
                continue;
            }
            let nl = lanes.len() as u64;

            for tap in 0..kk {
                let ch = 2 * (g * kk + tap);
                // Two warp loads for (Δy, Δx) — coalesced along ox.
                sink.global_load_into(
                    lanes
                        .iter()
                        .map(|&(oy, ox)| offset_addr(&s, ni, ch, oy, ox)),
                );
                sink.global_load_into(
                    lanes
                        .iter()
                        .map(|&(oy, ox)| offset_addr(&s, ni, ch + 1, oy, ox)),
                );
                // Address arithmetic for the sampling position.
                sink.alu(4 * nl);
                sink.flop(4 * nl); // p = p_o + p_i + Δp (fp adds, x and y)

                // Family-specific modulation traffic and arithmetic, gated
                // on the family (not on `modulation` being present) so a
                // served request without a tensor still traces honestly.
                self.family.trace_modulation(
                    sink,
                    nl,
                    lanes
                        .iter()
                        .map(|&(oy, ox)| modulation_addr(&s, ni, g * kk + tap, oy, ox)),
                );

                match self.sampling {
                    Sampling::Software => {
                        // 4 neighbour loads; out-of-bounds neighbours are
                        // branched around (no load, but branch ALU cost).
                        let mut neigh: [LaneBuf<u64>; 4] = [LaneBuf::new(); 4];
                        for &(oy, ox) in lanes.iter() {
                            let (py, px) = self.sample_coord(ni, g, tap, oy, ox);
                            let (y0, x0) = (py.floor() as isize, px.floor() as isize);
                            for (slot, (qy, qx)) in
                                [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]
                                    .iter()
                                    .enumerate()
                            {
                                if *qy >= 0 && *qy < s.h as isize && *qx >= 0 && *qx < s.w as isize
                                {
                                    neigh[slot].push(self.input_addr(
                                        ni,
                                        ci,
                                        *qy as usize,
                                        *qx as usize,
                                    ));
                                }
                            }
                        }
                        for addrs in &neigh {
                            sink.global_load(addrs);
                        }
                        // Software bilinear: weight computation (2 sub, 2
                        // one-minus) + 4 mul + 3 add ≈ 8 flops, plus the
                        // boundary branches (≈6 int ops).
                        sink.flop(8 * nl);
                        sink.alu(6 * nl);
                    }
                    Sampling::Texture { .. } => {
                        let tex = self
                            .texture
                            .as_ref()
                            .expect("texture sampling without texture");
                        let layer = ni * s.c_in + ci;
                        sink.tex_fetch_warp_into(
                            tex,
                            layer,
                            lanes
                                .iter()
                                .map(|&(oy, ox)| self.sample_coord(ni, g, tap, oy, ox)),
                        );
                    }
                }

                // One coalesced column store per tap.
                let row = ci * kk + tap;
                sink.global_store_into(
                    lanes
                        .iter()
                        .map(|&(oy, ox)| self.col_addr(ni, row, oy * ow + ox)),
                );
            }
        }
    }
}

/// Numeric companion of [`Im2colDeformKernel`]: materializes the columns
/// of the output window `[oy0, oy0+th) × [ox0, ox0+tw)` for batch item
/// `ni`, as a `[C_in·k², th·tw]` row-major matrix (window-local column
/// index `ty·tw + tx`), using exactly the same sampling semantics as the
/// trace (including texture filter precision). The full output plane is
/// the window `(0, 0, outH, outW)`.
///
/// Each column value is pre-multiplied by the tap's modulation factor
/// (`1`, mask, or grouped-softmax weight), so the GEMM epilogue is family
/// agnostic; `1.0 · v` is exact, so v1 and a v2 all-ones mask produce the
/// same bytes. Every element's value is independent of the window, so a
/// GEMM over a tile's columns produces byte-identical output values to
/// the corresponding columns of a full-plane GEMM (the blocked GEMM's
/// per-element reduction order is independent of which columns are
/// present; see `defcon_tensor::gemm`). This is also the accel backend's
/// tile kernel.
pub fn im2col_deform_numeric_tile(
    kernel: &Im2colDeformKernel<'_>,
    ni: usize,
    oy0: usize,
    ox0: usize,
    th: usize,
    tw: usize,
) -> Vec<f32> {
    let s = kernel.shape;
    let kk = s.kernel * s.kernel;
    let pixels = th * tw;
    // Factors per (group, window pixel, tap): shared by every channel of
    // the group, so filled once per group rather than once per channel.
    let mut factors = vec![0.0f32; s.deform_groups * pixels * kk];
    for (gp, out) in factors.chunks_exact_mut(kk).enumerate() {
        let (g, px) = (gp / pixels, gp % pixels);
        kernel.group_factors(ni, g, oy0 + px / tw, ox0 + px % tw, out);
    }
    let mut cols = vec![0.0f32; s.c_in * kk * pixels];
    for ci in 0..s.c_in {
        let g = ci / (s.c_in / s.deform_groups);
        for tap in 0..kk {
            let row = ci * kk + tap;
            for ty in 0..th {
                let oy = oy0 + ty;
                for tx in 0..tw {
                    let ox = ox0 + tx;
                    let (py, px) = kernel.sample_coord(ni, g, tap, oy, ox);
                    let v = match (&kernel.sampling, &kernel.texture) {
                        (Sampling::Software, _) => {
                            defcon_tensor::sample::bilinear_sample(kernel.x, ni, ci, py, px)
                        }
                        (Sampling::Texture { .. }, Some(tex)) => {
                            tex.fetch(ni * s.c_in + ci, py, px).value
                        }
                        _ => unreachable!("texture sampling without texture"),
                    };
                    let m = factors[(g * pixels + ty * tw + tx) * kk + tap];
                    cols[row * pixels + ty * tw + tx] = m * v;
                }
            }
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::{DeviceConfig, Gpu};

    /// A 4-channel 12×12 layer's input and offsets in `[-2, 2]`.
    fn small_inputs() -> (Tensor, Tensor) {
        let x = Tensor::randn(&[1, 4, 12, 12], 0.0, 1.0, 100);
        let offsets = Tensor::rand_uniform(&[1, 18, 12, 12], -2.0, 2.0, 101);
        (x, offsets)
    }

    /// A kernel over the small layer with 16×16 tiles.
    fn kernel<'a>(
        x: &'a Tensor,
        off: &'a Tensor,
        transform: OffsetTransform,
        sampling: Sampling,
        family: OpFamily,
        modulation: Option<&'a Tensor>,
    ) -> Im2colDeformKernel<'a> {
        let shape = DeformLayerShape::same3x3(4, 4, 12, 12);
        let tile = TileConfig::default16();
        Im2colDeformKernel::new(
            shape, tile, x, off, transform, sampling, 2048, 32768, family, modulation,
        )
        .unwrap()
    }

    /// The DCNv1 kernel with identity offsets.
    fn v1_kernel<'a>(x: &'a Tensor, off: &'a Tensor, sampling: Sampling) -> Im2colDeformKernel<'a> {
        kernel(
            x,
            off,
            OffsetTransform::Identity,
            sampling,
            OpFamily::DcnV1,
            None,
        )
    }

    /// The full output plane's columns for batch item 0.
    fn columns(k: &Im2colDeformKernel<'_>) -> Vec<f32> {
        let (oh, ow) = k.shape.out_hw();
        im2col_deform_numeric_tile(k, 0, 0, 0, oh, ow)
    }

    #[test]
    fn grid_covers_output() {
        let (x, off) = small_inputs();
        let k = Im2colDeformKernel {
            tile: TileConfig { h: 8, w: 8 },
            ..v1_kernel(&x, &off, Sampling::Software)
        };
        // 12x12 output with 8x8 tiles -> 2x2 tiles per channel, 4 channels.
        assert_eq!(k.grid_blocks(), 16);
        assert_eq!(k.block_threads(), 64);
    }

    #[test]
    fn numeric_software_matches_reference_columns() {
        let (x, off) = small_inputs();
        let k = v1_kernel(&x, &off, Sampling::Software);
        let cols = columns(&k);
        // Spot-check one element against the reference bilinear sampler.
        let (oh, ow) = k.shape.out_hw();
        let (ci, tap, oy, ox) = (2usize, 4usize, 5usize, 7usize);
        let (py, px) = k.sample_coord(0, 0, tap, oy, ox);
        let expect = defcon_tensor::sample::bilinear_sample(&x, 0, ci, py, px);
        assert_eq!(cols[(ci * 9 + tap) * oh * ow + oy * ow + ox], expect);
    }

    #[test]
    fn modulation_factor_keeps_the_neutral_elements() {
        let (x, off) = small_inputs();
        let mask = Tensor::rand_uniform(&[1, 9, 12, 12], 0.05, 0.95, 102);
        let logits = Tensor::full(&[1, 9, 12, 12], -0.625);
        let factor = |family, modulation| {
            let k = kernel(
                &x,
                &off,
                OffsetTransform::Identity,
                Sampling::Software,
                family,
                modulation,
            );
            k.modulation_factor(0, 0, 4, 3, 5)
        };
        let uniform = (1.0f64 / 9.0) as f32;
        assert_eq!(factor(OpFamily::DcnV1, Some(&mask)), 1.0);
        assert_eq!(factor(OpFamily::DcnV2, None), 1.0);
        assert_eq!(factor(OpFamily::DcnV2, Some(&mask)), mask.at4(0, 4, 3, 5));
        assert_eq!(factor(OpFamily::DcnV3, None), uniform);
        assert_eq!(factor(OpFamily::DcnV3, Some(&logits)), uniform);
    }

    #[test]
    fn texture_numeric_matches_software_at_full_precision() {
        let (x, off) = small_inputs();
        let a = columns(&v1_kernel(&x, &off, Sampling::Software));
        let b = columns(&v1_kernel(&x, &off, Sampling::Texture { frac_bits: 23 }));
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-5, "col[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn tex2dpp_numeric_error_is_small() {
        let (x, off) = small_inputs();
        let a = columns(&v1_kernel(&x, &off, Sampling::Software));
        let b = columns(&v1_kernel(&x, &off, Sampling::Texture { frac_bits: 8 }));
        let max_err = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "tex2D++ max error {max_err}");
        assert!(max_err > 0.0, "reduced precision should differ somewhere");
    }

    #[test]
    fn software_kernel_produces_global_loads_texture_kernel_does_not_sample_input_globally() {
        let (x, off) = small_inputs();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let sw_report = gpu.launch(&v1_kernel(&x, &off, Sampling::Software));
        let tx_report = gpu.launch(&v1_kernel(&x, &off, Sampling::Texture { frac_bits: 23 }));
        assert!(sw_report.counters.tex_requests == 0);
        assert!(tx_report.counters.tex_requests > 0);
        // Texture kernel still loads offsets from global memory, but far
        // fewer global loads than the software kernel's 4-per-tap.
        assert!(tx_report.counters.gld_requests < sw_report.counters.gld_requests);
        // FLOP reduction ≈ 4x on the sampling stage (paper Fig. 10).
        assert!(sw_report.counters.flops as f64 > 2.0 * tx_report.counters.flops as f64);
    }

    #[test]
    fn bounded_offsets_do_not_change_in_range_numerics() {
        let (x, off) = small_inputs();
        let mk = |tr| kernel(&x, &off, tr, Sampling::Software, OpFamily::DcnV1, None);
        // Offsets are within [-2, 2]; bounding at 7 is a no-op.
        let a = columns(&mk(OffsetTransform::Identity));
        let b = columns(&mk(OffsetTransform::Bounded(7.0)));
        assert_eq!(a, b);
    }
}
