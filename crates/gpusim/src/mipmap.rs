//! Mipmapped arrays — the *other* layered texture type (paper §III-B).
//!
//! CUDA offers two layered texture storages: layered textures and
//! mipmapped arrays. A mipmap is a pre-computed pyramid of progressively
//! half-resolution images, filtered trilinearly between adjacent levels.
//! The paper examines and **rejects** mipmaps for deformable convolution:
//! "due to the pyramidal structure of mipmaps, each layer must be loaded
//! and computed using the previous layer. Since this functionality is
//! inconsistent with our desired behavior, we use a layered texture."
//!
//! This module implements the mipmapped array anyway — pyramid
//! construction, LOD selection and trilinear filtering — both for
//! completeness of the texture-unit model and to *demonstrate* the paper's
//! argument in a test: sampling a feature map through any LOD > 0 is a
//! low-pass operation that destroys the exact-pixel semantics deformable
//! convolution needs (level 0 of a mipmap is just a layered texture with
//! extra memory).

use crate::texture::{AddressMode, FilterMode, LayeredTexture2d, TextureLimitError};

/// A mipmapped 2-D array: a pyramid of [`LayeredTexture2d`]s, level 0 at
/// full resolution, each subsequent level half the extent (floor, min 1),
/// built with a 2×2 box filter as GPU runtimes do.
pub struct MipmappedArray2d {
    levels: Vec<LayeredTexture2d>,
    /// Per-level coordinate scale reciprocals: `inv_scale[l] = 2^-l`.
    /// Powers of two are exact in fp32, so `coord · inv_scale[l]` is
    /// bit-identical to the legacy `coord / 2^l` division on every input —
    /// the trilinear walk pays one multiply instead of a shift + int→float
    /// convert + divide per level sample.
    inv_scale: Vec<f32>,
}

impl MipmappedArray2d {
    /// Builds the full pyramid from row-major layer data.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        data: Vec<f32>,
        layers: usize,
        height: usize,
        width: usize,
        base_addr: u64,
        max_layers: usize,
        max_dim: usize,
    ) -> Result<Self, TextureLimitError> {
        let mut levels = Vec::new();
        let mut cur = data;
        let (mut h, mut w) = (height, width);
        let mut addr = base_addr;
        loop {
            let tex = LayeredTexture2d::new(cur.clone(), layers, h, w, addr, max_layers, max_dim)?;
            addr += tex.size_bytes() as u64;
            levels.push(tex);
            if h == 1 && w == 1 {
                break;
            }
            // 2x2 box-filter downsample (clamping at odd edges).
            let (nh, nw) = ((h / 2).max(1), (w / 2).max(1));
            let mut next = vec![0.0f32; layers * nh * nw];
            for l in 0..layers {
                for y in 0..nh {
                    for x in 0..nw {
                        let mut acc = 0.0f32;
                        let mut cnt = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let (sy, sx) = (2 * y + dy, 2 * x + dx);
                                if sy < h && sx < w {
                                    acc += cur[(l * h + sy) * w + sx];
                                    cnt += 1;
                                }
                            }
                        }
                        next[(l * nh + y) * nw + x] = acc / cnt as f32;
                    }
                }
            }
            cur = next;
            h = nh;
            w = nw;
        }
        let inv_scale = (0..levels.len())
            .map(|l| 1.0 / (1u32 << l) as f32)
            .collect();
        Ok(MipmappedArray2d { levels, inv_scale })
    }

    /// Number of pyramid levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Immutable access to one level.
    pub fn level(&self, lod: usize) -> &LayeredTexture2d {
        &self.levels[lod]
    }

    /// Total memory footprint — strictly larger than a plain layered
    /// texture of the same base image (the pyramid costs ≈ 1/3 extra).
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.size_bytes()).sum()
    }

    /// Sets addressing/filtering on every level.
    pub fn configure(&mut self, address: AddressMode, filter: FilterMode) {
        for l in &mut self.levels {
            l.address_mode = address;
            l.filter_mode = filter;
        }
    }

    /// Trilinear fetch: bilinear samples at `floor(lod)` and `ceil(lod)`,
    /// linearly blended by the LOD fraction. Coordinates are given in
    /// level-0 texel space and scaled per level.
    ///
    /// Rewritten hot path: level scales come from the precomputed exact
    /// reciprocal table, and the integer-LOD / top-of-pyramid cases fold
    /// into a single `blends` predicate, so a degenerate trilinear fetch is
    /// exactly one bilinear fetch behind one branch (no closure, no
    /// per-sample shift/divide). Bit-identical to the pre-rewrite path in
    /// `crate::oracle`.
    pub fn fetch_trilinear(&self, layer: usize, y: f32, x: f32, lod: f32) -> f32 {
        let top = self.levels.len() - 1;
        let lod = lod.clamp(0.0, top as f32);
        let l0 = lod.floor() as usize;
        let l1 = (l0 + 1).min(top);
        let frac = lod - l0 as f32;
        let v0 = self.levels[l0]
            .fetch(layer, y * self.inv_scale[l0], x * self.inv_scale[l0])
            .value;
        let blends = frac != 0.0 && l0 != l1;
        if !blends {
            return v0;
        }
        let v1 = self.levels[l1]
            .fetch(layer, y * self.inv_scale[l1], x * self.inv_scale[l1])
            .value;
        (1.0 - frac) * v0 + frac * v1
    }

    /// Verbatim pre-rewrite trilinear path (per-sample scale
    /// reconstruction, closure-based branch tree), reached through
    /// `crate::oracle` — [`MipmappedArray2d::fetch_trilinear`] must match it
    /// bit for bit.
    pub(crate) fn fetch_trilinear_legacy(&self, layer: usize, y: f32, x: f32, lod: f32) -> f32 {
        let lod = lod.clamp(0.0, (self.levels.len() - 1) as f32);
        let l0 = lod.floor() as usize;
        let l1 = (l0 + 1).min(self.levels.len() - 1);
        let frac = lod - l0 as f32;
        let sample = |lvl: usize| {
            let scale = (1u32 << lvl) as f32;
            self.levels[lvl]
                .fetch_legacy(layer, y / scale, x / scale)
                .value
        };
        let v0 = sample(l0);
        if frac == 0.0 || l0 == l1 {
            v0
        } else {
            (1.0 - frac) * v0 + frac * sample(l1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(h: usize, w: usize) -> Vec<f32> {
        (0..h * w).map(|i| (i % w) as f32).collect()
    }

    #[test]
    fn pyramid_has_log2_levels() {
        let m = MipmappedArray2d::new(gradient_image(64, 64), 1, 64, 64, 0, 2048, 32768).unwrap();
        assert_eq!(m.num_levels(), 7); // 64,32,16,8,4,2,1
        assert_eq!(m.level(6).height(), 1);
    }

    #[test]
    fn level0_is_exact_and_higher_levels_are_filtered() {
        let m = MipmappedArray2d::new(gradient_image(8, 8), 1, 8, 8, 0, 2048, 32768).unwrap();
        // LOD 0 at texel centers = raw data (layered-texture semantics).
        assert_eq!(m.fetch_trilinear(0, 2.0, 3.0, 0.0), 3.0);
        // LOD 1 is a 2x2 box filter: texel (1,1) of level 1 = mean of
        // columns 2,3 = 2.5.
        assert!((m.level(1).texel(0, 1, 1) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn pyramid_costs_about_a_third_extra() {
        let m = MipmappedArray2d::new(vec![0.0; 64 * 64], 1, 64, 64, 0, 2048, 32768).unwrap();
        let base = m.level(0).size_bytes() as f64;
        let total = m.size_bytes() as f64;
        assert!(
            total / base > 1.25 && total / base < 1.6,
            "pyramid overhead {}",
            total / base
        );
    }

    #[test]
    fn trilinear_blends_between_levels() {
        // Constant-per-level check: build an image whose level-1 mean
        // differs from level-0 values at a probe point.
        let mut img = vec![0.0f32; 16];
        img[0] = 4.0; // level1 texel(0,0) = 1.0, level0 texel(0,0) = 4.0
        let m = MipmappedArray2d::new(img, 1, 4, 4, 0, 2048, 32768).unwrap();
        let v0 = m.fetch_trilinear(0, 0.0, 0.0, 0.0);
        let v1 = m.fetch_trilinear(0, 0.0, 0.0, 1.0);
        let vh = m.fetch_trilinear(0, 0.0, 0.0, 0.5);
        assert_eq!(v0, 4.0);
        assert!((v1 - 1.0).abs() < 1e-6);
        assert!((vh - 2.5).abs() < 1e-6, "halfway blend {vh}");
    }

    /// A reproducible random pyramid input for the property tests: the
    /// generated case is plain data (`Debug`-printable on failure); the
    /// property rebuilds the pyramid from it.
    #[derive(Debug)]
    struct MipCase {
        data: Vec<f32>,
        h: usize,
        w: usize,
        y: f32,
        x: f32,
    }

    impl MipCase {
        fn generate(rng: &mut defcon_support::rng::StdRng) -> MipCase {
            use defcon_support::rng::Rng;
            let h = rng.gen_range(2usize..24);
            let w = rng.gen_range(2usize..24);
            MipCase {
                data: (0..h * w).map(|_| rng.gen_range(-8.0f32..8.0)).collect(),
                h,
                w,
                y: rng.gen_range(0.0f32..(h - 1) as f32),
                x: rng.gen_range(0.0f32..(w - 1) as f32),
            }
        }

        fn build(&self) -> MipmappedArray2d {
            MipmappedArray2d::new(self.data.clone(), 1, self.h, self.w, 0, 2048, 32768).unwrap()
        }
    }

    #[test]
    fn prop_lod_clamps_at_extremes() {
        use defcon_support::prop::{self, Config};
        use defcon_support::rng::Rng;

        prop::check(
            "lod clamps below 0 and above the last level",
            &Config::cases(32),
            |rng| {
                let case = MipCase::generate(rng);
                let below = -rng.gen_range(0.1f32..100.0);
                let above_extra = rng.gen_range(0.0f32..100.0);
                (case, below, above_extra)
            },
            |(case, below, above_extra)| {
                let m = case.build();
                let top = (m.num_levels() - 1) as f32;
                let above = m.num_levels() as f32 + above_extra;
                defcon_support::prop_assert_eq!(
                    m.fetch_trilinear(0, case.y, case.x, *below),
                    m.fetch_trilinear(0, case.y, case.x, 0.0)
                );
                defcon_support::prop_assert_eq!(
                    m.fetch_trilinear(0, case.y, case.x, above),
                    m.fetch_trilinear(0, case.y, case.x, top)
                );
                Ok(())
            },
        );
    }

    #[test]
    fn prop_trilinear_is_monotone_between_adjacent_levels() {
        use defcon_support::prop::{self, Config};
        use defcon_support::rng::Rng;

        // Within one integer LOD cell the fetch is a linear blend of the two
        // adjacent level samples: it is bounded by them and moves
        // monotonically toward the upper level as the fraction grows.
        prop::check(
            "trilinear fetch is a monotone blend in lod",
            &Config::cases(32),
            |rng| {
                let case = MipCase::generate(rng);
                let cell_pick = rng.gen_range(0u32..64);
                let fa = rng.gen_range(0.0f32..1.0);
                let fb = rng.gen_range(0.0f32..1.0);
                (case, cell_pick, fa.min(fb), fa.max(fb))
            },
            |(case, cell_pick, fa, fb)| {
                let m = case.build();
                let cell = (*cell_pick as usize % m.num_levels()) as f32;
                let top = (m.num_levels() - 1) as f32;
                let v0 = m.fetch_trilinear(0, case.y, case.x, cell);
                let v1 = m.fetch_trilinear(0, case.y, case.x, (cell + 1.0).min(top));
                let va = m.fetch_trilinear(0, case.y, case.x, cell + *fa);
                let vb = m.fetch_trilinear(0, case.y, case.x, cell + *fb);
                let (lo, hi) = (v0.min(v1), v0.max(v1));
                let eps = 1e-4 * (1.0 + hi.abs());
                defcon_support::prop_assert!(
                    va >= lo - eps && va <= hi + eps,
                    "blend {va} escapes [{lo}, {hi}] at lod {}",
                    cell + fa
                );
                // fa <= fb: the blend moves from v0 toward v1, never back.
                if v0 <= v1 {
                    defcon_support::prop_assert!(vb >= va - eps, "not monotone up: {va} -> {vb}");
                } else {
                    defcon_support::prop_assert!(vb <= va + eps, "not monotone down: {va} -> {vb}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn prop_integer_lod_equals_that_levels_bilinear_fetch() {
        use defcon_support::prop::{self, Config};
        use defcon_support::rng::Rng;

        prop::check(
            "integer lod selects exactly one level",
            &Config::cases(32),
            |rng| {
                let case = MipCase::generate(rng);
                let lvl_pick = rng.gen_range(0u32..64);
                (case, lvl_pick)
            },
            |(case, lvl_pick)| {
                let m = case.build();
                let lvl = *lvl_pick as usize % m.num_levels();
                let scale = (1u32 << lvl) as f32;
                let direct = m.level(lvl).fetch(0, case.y / scale, case.x / scale).value;
                defcon_support::prop_assert_eq!(
                    m.fetch_trilinear(0, case.y, case.x, lvl as f32),
                    direct
                );
                Ok(())
            },
        );
    }

    /// The paper's §III-B argument, as a test: deformable convolution needs
    /// exact per-pixel values; any LOD > 0 low-passes the feature map and
    /// changes the sampled values, so a mipmap buys nothing over its level
    /// 0 (a plain layered texture) while costing extra memory and
    /// level-by-level construction.
    #[test]
    fn mipmaps_are_unsuitable_for_deformable_sampling() {
        let data: Vec<f32> = (0..256).map(|i| ((i * 37) % 19) as f32).collect();
        let m = MipmappedArray2d::new(data.clone(), 1, 16, 16, 0, 2048, 32768).unwrap();
        let flat = LayeredTexture2d::new(data, 1, 16, 16, 1 << 20, 2048, 32768).unwrap();
        let mut max_err_l0 = 0.0f32;
        let mut max_err_l1 = 0.0f32;
        for i in 0..50 {
            let y = (i as f32 * 0.29) % 14.0;
            let x = (i as f32 * 0.53) % 14.0;
            let exact = flat.fetch(0, y, x).value;
            max_err_l0 = max_err_l0.max((m.fetch_trilinear(0, y, x, 0.0) - exact).abs());
            max_err_l1 = max_err_l1.max((m.fetch_trilinear(0, y, x, 1.0) - exact).abs());
        }
        assert!(max_err_l0 < 1e-6, "level 0 must equal the layered texture");
        assert!(
            max_err_l1 > 0.5,
            "LOD 1 should visibly low-pass the features (err {max_err_l1})"
        );
    }
}
