//! 2-D layered textures: block-linear texel layout, addressing modes and
//! hardware (bi)linear filtering (paper §III-B).
//!
//! A *layered* texture is a stack of same-sized 2-D textures; DEFCON maps
//! one (batch, channel) feature-map slice to each layer and lets the texture
//! unit perform the bilinear interpolation that deformable convolution
//! otherwise does in software. Out-of-bounds handling (the boundary branches
//! of the software kernel) is absorbed by the addressing mode.

/// How out-of-range coordinates are resolved (paper §III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddressMode {
    /// Out-of-bounds texels read as zero — the default, and the semantics
    /// deformable convolution needs (paper: "the value of out-of-bounds
    /// neighbors is taken as zero").
    Border,
    /// Clamp to the edge texel.
    Clamp,
    /// `x → frac(x)` tiling (normalized-coordinate wrap).
    Wrap,
    /// Mirrored tiling.
    Mirror,
}

/// Texture filtering mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterMode {
    /// Nearest-texel lookup.
    Point,
    /// Hardware bilinear filtering with interpolation-weight fractions
    /// quantized to `frac_bits` binary places. `frac_bits = 23` models full
    /// fp32 filtering (`tex2D`); `frac_bits = 8` models the reduced 16-bit
    /// filter arithmetic of `tex2D++` (a half-precision weight keeps ~8
    /// fractional bits over the `[0,1)` range). The paper stresses this is
    /// *not* quantization of the feature map — texel values stay fp32.
    Linear {
        /// Binary places kept in the interpolation fraction.
        frac_bits: u32,
    },
}

/// Texel tile geometry of the block-linear layout: 8×4 texels × 4 bytes =
/// 128 bytes = exactly one cache line, so 2-D locality maps to line reuse.
const TILE_W: usize = 8;
/// Tile height in texels.
const TILE_H: usize = 4;
/// Bytes per texel (fp32).
const TEXEL_BYTES: usize = 4;
/// Bytes per tile.
const TILE_BYTES: usize = TILE_W * TILE_H * TEXEL_BYTES;

/// Error raised when a texture would exceed the device limits of §III-B.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextureLimitError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TextureLimitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TextureLimitError {}

/// A 2-D layered texture bound to fp32 data.
pub struct LayeredTexture2d {
    data: Vec<f32>,
    layers: usize,
    height: usize,
    width: usize,
    tiles_x: usize,
    tiles_y: usize,
    /// Block-linear bytes per layer (`tiles_x · tiles_y · TILE_BYTES`),
    /// precomputed so the per-fetch address math is three adds and a
    /// multiply instead of rebuilding the stride every texel.
    layer_bytes: u64,
    /// Row-major texels per layer (`height · width`), precomputed for the
    /// same reason on the value side.
    layer_texels: usize,
    /// Base byte address of the texture in the simulated address space.
    base_addr: u64,
    /// Addressing mode for both coordinates.
    pub address_mode: AddressMode,
    /// Filtering mode.
    pub filter_mode: FilterMode,
}

/// One texture fetch: the filtered value plus the byte addresses of every
/// texel the filter actually read (for the texture-cache model).
#[derive(Clone, Debug)]
pub struct Fetch {
    /// Filtered sample.
    pub value: f32,
    /// Texel byte addresses touched (0–4 entries).
    pub addresses: [u64; 4],
    /// Number of valid entries in `addresses`.
    pub len: u8,
}

/// The layer-independent half of a texture fetch: filter weights, in-layer
/// texel indices, and layer-relative block-linear byte offsets for every
/// texel the filter will read, in contribution order.
///
/// A plan is computed once per coordinate by [`LayeredTexture2d::plan_fetch`]
/// (floor/quantize/address-mode resolution — the expensive part) and then
/// replayed against any layer by [`LayeredTexture2d::eval_plan`], which is a
/// weighted sum plus a base-address add. The deformable kernels exploit this:
/// every channel of a deform group shares the same sampling coordinate, so
/// one plan serves `C_in / G` layers. `Copy + Default` so warp batches fit a
/// fixed-capacity `LaneBuf` scratch (no heap in the trace hot path).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FetchPlan {
    /// Per-texel filter weights (`wy · wx`), contribution order.
    pub weights: [f32; 4],
    /// Layer-relative block-linear byte offsets of the texels.
    pub rel_addrs: [u64; 4],
    /// In-layer row-major texel indices (`y · width + x`).
    pub indices: [u32; 4],
    /// Number of valid entries.
    pub len: u8,
}

impl std::fmt::Debug for LayeredTexture2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredTexture2d")
            .field("layers", &self.layers)
            .field("height", &self.height)
            .field("width", &self.width)
            .field("address_mode", &self.address_mode)
            .field("filter_mode", &self.filter_mode)
            .finish_non_exhaustive()
    }
}

impl LayeredTexture2d {
    /// Creates a layered texture from row-major layer data
    /// (`data.len() == layers * height * width`). `max_layers` / `max_dim`
    /// are the device limits (2048 and 32768 on Xavier).
    pub fn new(
        data: Vec<f32>,
        layers: usize,
        height: usize,
        width: usize,
        base_addr: u64,
        max_layers: usize,
        max_dim: usize,
    ) -> Result<Self, TextureLimitError> {
        // Fault point: a texture allocation the driver rejects even though
        // the request is nominally within limits (fragmentation, transient
        // driver state). Lets tests exercise the kernel fallback chain
        // without building >2048-layer inputs.
        if defcon_support::fault::fires("texture.limit") {
            return Err(TextureLimitError {
                message: format!(
                    "injected fault: texture.limit ({layers} layers, {height}×{width})"
                ),
            });
        }
        if layers > max_layers {
            return Err(TextureLimitError {
                message: format!(
                    "layered texture needs {layers} layers but the device supports {max_layers}; \
                     batch × channels must fit the layer limit (paper §III-B)"
                ),
            });
        }
        if height > max_dim || width > max_dim {
            return Err(TextureLimitError {
                message: format!("texture extent {height}×{width} exceeds device limit {max_dim}"),
            });
        }
        assert_eq!(
            data.len(),
            layers * height * width,
            "texture data length mismatch"
        );
        let tiles_x = width.div_ceil(TILE_W);
        let tiles_y = height.div_ceil(TILE_H);
        Ok(LayeredTexture2d {
            data,
            layers,
            height,
            width,
            tiles_x,
            tiles_y,
            layer_bytes: (tiles_x * tiles_y * TILE_BYTES) as u64,
            layer_texels: height * width,
            base_addr,
            address_mode: AddressMode::Border,
            filter_mode: FilterMode::Linear { frac_bits: 23 },
        })
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Layer height in texels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Layer width in texels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total footprint in bytes (block-linear, padded to whole tiles).
    pub fn size_bytes(&self) -> usize {
        self.layers * self.tiles_x * self.tiles_y * TILE_BYTES
    }

    /// Layer-relative block-linear byte offset of in-layer texel `(y, x)`.
    ///
    /// The full address decomposes exactly into
    /// `base + layer·layer_bytes + rel(y, x)`; splitting it this way lets
    /// [`FetchPlan`]s stay layer-independent and keeps the per-texel math to
    /// two divides/mods and two multiply-adds (all integer — bit-exact
    /// against the legacy single-expression form).
    #[inline]
    fn rel_addr(&self, y: usize, x: usize) -> u64 {
        let (ty, tx) = (y / TILE_H, x / TILE_W);
        let (iy, ix) = (y % TILE_H, x % TILE_W);
        ((ty * self.tiles_x + tx) * TILE_BYTES) as u64 + ((iy * TILE_W + ix) * TEXEL_BYTES) as u64
    }

    /// Block-linear byte address of texel `(layer, y, x)`.
    #[inline]
    pub fn texel_addr(&self, layer: usize, y: usize, x: usize) -> u64 {
        debug_assert!(layer < self.layers && y < self.height && x < self.width);
        self.base_addr + layer as u64 * self.layer_bytes + self.rel_addr(y, x)
    }

    /// Raw texel value (no filtering, in-bounds only).
    #[inline]
    pub fn texel(&self, layer: usize, y: usize, x: usize) -> f32 {
        self.data[layer * self.layer_texels + y * self.width + x]
    }

    /// Resolves one integer coordinate through the addressing mode.
    /// Returns `None` when the texel reads as zero (border mode).
    #[inline]
    fn resolve(&self, coord: isize, extent: usize) -> Option<usize> {
        let n = extent as isize;
        match self.address_mode {
            AddressMode::Border => {
                if coord < 0 || coord >= n {
                    None
                } else {
                    Some(coord as usize)
                }
            }
            AddressMode::Clamp => Some(coord.clamp(0, n - 1) as usize),
            AddressMode::Wrap => Some(coord.rem_euclid(n) as usize),
            AddressMode::Mirror => {
                let period = (2 * n) as usize;
                let m = coord.rem_euclid(period as isize) as usize;
                Some(if m < extent { m } else { period - 1 - m })
            }
        }
    }

    /// Computes the layer-independent [`FetchPlan`] for fractional
    /// coordinates `(y, x)` (texel centers at integer coordinates).
    ///
    /// This is the expensive half of a fetch — floor, fraction
    /// quantization, and address-mode resolution — restructured so the
    /// addressing mode is resolved once per *axis endpoint* (≤ 4 calls)
    /// instead of once per texel visit, and each surviving row's tile/index
    /// components are computed once and reused across its columns. Texel
    /// visit order, the zero-weight skips, and the weight products are
    /// exactly those of the legacy path, so the plan replays to
    /// bit-identical values and addresses.
    pub fn plan_fetch(&self, y: f32, x: f32) -> FetchPlan {
        let mut plan = FetchPlan::default();
        match self.filter_mode {
            FilterMode::Point => {
                let qy = self.resolve(y.round() as isize, self.height);
                let qx = self.resolve(x.round() as isize, self.width);
                if let (Some(ry), Some(rx)) = (qy, qx) {
                    plan.weights[0] = 1.0;
                    plan.rel_addrs[0] = self.rel_addr(ry, rx);
                    plan.indices[0] = (ry * self.width + rx) as u32;
                    plan.len = 1;
                }
            }
            FilterMode::Linear { frac_bits } => {
                let y0 = y.floor();
                let x0 = x.floor();
                let (dy, dx) = if frac_bits >= 23 {
                    (y - y0, x - x0)
                } else {
                    let scale = (1u32 << frac_bits) as f32;
                    let inv = 1.0 / scale; // 2^-k: exact, so `· inv ≡ / scale`
                    (
                        ((y - y0) * scale).round() * inv,
                        ((x - x0) * scale).round() * inv,
                    )
                };
                let (y0, x0) = (y0 as isize, x0 as isize);
                // Address-mode resolution hoisted out of the 2×2 texel loop:
                // each axis endpoint resolves once, rows precompute their
                // tile/index components once.
                let rows = [
                    (self.resolve(y0, self.height), 1.0 - dy),
                    (self.resolve(y0 + 1, self.height), dy),
                ];
                let cols = [
                    (self.resolve(x0, self.width), 1.0 - dx),
                    (self.resolve(x0 + 1, self.width), dx),
                ];
                for (ry, wy) in rows {
                    if wy == 0.0 {
                        continue;
                    }
                    let Some(ry) = ry else {
                        continue;
                    };
                    let (ty, iy) = (ry / TILE_H, ry % TILE_H);
                    let row_rel =
                        (ty * self.tiles_x * TILE_BYTES + iy * TILE_W * TEXEL_BYTES) as u64;
                    let row_idx = ry * self.width;
                    for (rx, wx) in cols {
                        if wx == 0.0 {
                            continue;
                        }
                        let Some(rx) = rx else {
                            continue;
                        };
                        let (tx, ix) = (rx / TILE_W, rx % TILE_W);
                        let n = plan.len as usize;
                        plan.weights[n] = wy * wx;
                        plan.rel_addrs[n] = row_rel + (tx * TILE_BYTES + ix * TEXEL_BYTES) as u64;
                        plan.indices[n] = (row_idx + rx) as u32;
                        plan.len += 1;
                    }
                }
            }
        }
        plan
    }

    /// Replays a [`FetchPlan`] against one layer: weighted sum of the
    /// planned texels plus the layer's base-address offset. Accumulation
    /// order and products match the legacy per-texel loop bit for bit.
    #[inline]
    pub fn eval_plan(&self, plan: &FetchPlan, layer: usize) -> Fetch {
        let layer_base = self.base_addr + layer as u64 * self.layer_bytes;
        let texels = &self.data[layer * self.layer_texels..(layer + 1) * self.layer_texels];
        let mut value = 0.0f32;
        let mut addresses = [0u64; 4];
        let len = plan.len as usize;
        for i in 0..len {
            value += plan.weights[i] * texels[plan.indices[i] as usize];
            addresses[i] = layer_base + plan.rel_addrs[i];
        }
        Fetch {
            value,
            addresses,
            len: plan.len,
        }
    }

    /// Fetches the texture at fractional coordinates `(y, x)` (texel centers
    /// at integer coordinates, matching the CPU reference sampler).
    pub fn fetch(&self, layer: usize, y: f32, x: f32) -> Fetch {
        self.eval_plan(&self.plan_fetch(y, x), layer)
    }

    /// Verbatim pre-rewrite fetch path (per-texel address-mode resolution,
    /// stride math rebuilt per texel, branchy 2×2 walk), reached through
    /// `crate::oracle` — [`LayeredTexture2d::fetch`] must match it bit for
    /// bit.
    pub(crate) fn fetch_legacy(&self, layer: usize, y: f32, x: f32) -> Fetch {
        match self.filter_mode {
            FilterMode::Point => {
                let qy = self.resolve(y.round() as isize, self.height);
                let qx = self.resolve(x.round() as isize, self.width);
                match (qy, qx) {
                    (Some(qy), Some(qx)) => Fetch {
                        value: self.texel(layer, qy, qx),
                        addresses: [self.texel_addr_legacy(layer, qy, qx), 0, 0, 0],
                        len: 1,
                    },
                    _ => Fetch {
                        value: 0.0,
                        addresses: [0; 4],
                        len: 0,
                    },
                }
            }
            FilterMode::Linear { frac_bits } => {
                let y0 = y.floor();
                let x0 = x.floor();
                let quant = |f: f32| -> f32 {
                    if frac_bits >= 23 {
                        f
                    } else {
                        let scale = (1u32 << frac_bits) as f32;
                        (f * scale).round() / scale
                    }
                };
                let dy = quant(y - y0);
                let dx = quant(x - x0);
                let (y0, x0) = (y0 as isize, x0 as isize);
                let mut value = 0.0f32;
                let mut addresses = [0u64; 4];
                let mut len = 0u8;
                for (qy, wy) in [(y0, 1.0 - dy), (y0 + 1, dy)] {
                    if wy == 0.0 {
                        continue;
                    }
                    let Some(ry) = self.resolve(qy, self.height) else {
                        continue;
                    };
                    for (qx, wx) in [(x0, 1.0 - dx), (x0 + 1, dx)] {
                        if wx == 0.0 {
                            continue;
                        }
                        let Some(rx) = self.resolve(qx, self.width) else {
                            continue;
                        };
                        value += wy * wx * self.texel(layer, ry, rx);
                        addresses[len as usize] = self.texel_addr_legacy(layer, ry, rx);
                        len += 1;
                    }
                }
                Fetch {
                    value,
                    addresses,
                    len,
                }
            }
        }
    }

    /// The pre-rewrite texel address computation (layer stride rebuilt on
    /// every call), kept for `LayeredTexture2d::fetch_legacy`.
    #[inline]
    fn texel_addr_legacy(&self, layer: usize, y: usize, x: usize) -> u64 {
        let (ty, tx) = (y / TILE_H, x / TILE_W);
        let (iy, ix) = (y % TILE_H, x % TILE_W);
        let layer_bytes = (self.tiles_x * self.tiles_y * TILE_BYTES) as u64;
        self.base_addr
            + layer as u64 * layer_bytes
            + ((ty * self.tiles_x + tx) * TILE_BYTES) as u64
            + ((iy * TILE_W + ix) * TEXEL_BYTES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex(h: usize, w: usize) -> LayeredTexture2d {
        let data: Vec<f32> = (0..h * w).map(|v| v as f32).collect();
        LayeredTexture2d::new(data, 1, h, w, 0, 2048, 32768).unwrap()
    }

    #[test]
    fn layer_limit_enforced() {
        let err = LayeredTexture2d::new(vec![0.0; 3000], 3000, 1, 1, 0, 2048, 32768).unwrap_err();
        assert!(err.message.contains("2048"));
    }

    #[test]
    fn dim_limit_enforced() {
        assert!(LayeredTexture2d::new(vec![0.0; 40000], 1, 1, 40000, 0, 2048, 32768).is_err());
    }

    #[test]
    fn fetch_at_texel_centers_is_exact() {
        let t = tex(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                let f = t.fetch(0, y as f32, x as f32);
                assert_eq!(f.value, (y * 6 + x) as f32);
                assert_eq!(f.len, 1, "integer coordinate should touch one texel");
            }
        }
    }

    #[test]
    fn fetch_midpoint_bilinear() {
        let t = tex(2, 2);
        let f = t.fetch(0, 0.5, 0.5);
        assert!((f.value - 1.5).abs() < 1e-6); // mean of 0,1,2,3
        assert_eq!(f.len, 4);
    }

    #[test]
    fn border_mode_zeroes_outside() {
        let t = tex(3, 3);
        assert_eq!(t.fetch(0, -2.0, 0.0).value, 0.0);
        assert_eq!(t.fetch(0, -2.0, 0.0).len, 0);
        // Half-in: two texels contribute, weight 0.5.
        let f = t.fetch(0, -0.5, 0.0);
        assert!((f.value - 0.0).abs() < 1e-6); // texel (0,0)=0 → 0·0.5
        let f = t.fetch(0, -0.5, 1.0);
        assert!((f.value - 0.5).abs() < 1e-6); // texel (0,1)=1 → 1·0.5
    }

    #[test]
    fn clamp_mode_repeats_edge() {
        let mut t = tex(3, 3);
        t.address_mode = AddressMode::Clamp;
        assert_eq!(t.fetch(0, -5.0, 0.0).value, t.texel(0, 0, 0));
        assert_eq!(t.fetch(0, 10.0, 2.0).value, t.texel(0, 2, 2));
    }

    #[test]
    fn wrap_mode_tiles() {
        let mut t = tex(4, 4);
        t.address_mode = AddressMode::Wrap;
        assert_eq!(t.fetch(0, 5.0, 1.0).value, t.texel(0, 1, 1));
        assert_eq!(t.fetch(0, -1.0, 0.0).value, t.texel(0, 3, 0));
    }

    #[test]
    fn mirror_mode_reflects() {
        let mut t = tex(4, 4);
        t.address_mode = AddressMode::Mirror;
        assert_eq!(t.fetch(0, 4.0, 0.0).value, t.texel(0, 3, 0)); // 4 reflects to 3
        assert_eq!(t.fetch(0, -1.0, 0.0).value, t.texel(0, 0, 0)); // -1 reflects to 0
    }

    #[test]
    fn reduced_precision_error_is_bounded() {
        // tex2D++ (8 fractional bits) must stay within one quantum of full
        // precision: |err| ≤ 2^-8 · (range of neighbours).
        let t_full = tex(16, 16);
        let mut t_red = tex(16, 16);
        t_red.filter_mode = FilterMode::Linear { frac_bits: 8 };
        for i in 0..200 {
            let y = (i as f32 * 0.073) % 14.0;
            let x = (i as f32 * 0.117) % 14.0;
            let a = t_full.fetch(0, y, x).value;
            let b = t_red.fetch(0, y, x).value;
            // Neighbour values differ by ≤ 17 here (one row apart).
            assert!(
                (a - b).abs() <= 17.0 / 256.0 + 1e-5,
                "at ({y},{x}): {a} vs {b}"
            );
        }
    }

    #[test]
    fn block_linear_keeps_2d_neighbourhood_in_one_line() {
        // Texels inside one 8×4 tile share one 128-byte line.
        let t = tex(32, 32);
        let a = t.texel_addr(0, 0, 0) / 128;
        for y in 0..4 {
            for x in 0..8 {
                assert_eq!(
                    t.texel_addr(0, y, x) / 128,
                    a,
                    "texel ({y},{x}) left the tile line"
                );
            }
        }
        // A row-major layout would spread those 4 rows over 4 lines.
        assert_ne!(t.texel_addr(0, 4, 0) / 128, a);
    }

    #[test]
    fn bilinear_footprint_spans_at_most_two_lines_in_tile_interior() {
        let t = tex(64, 64);
        let f = t.fetch(0, 9.5, 9.5); // interior of a tile
        let mut lines: Vec<u64> = f.addresses[..f.len as usize]
            .iter()
            .map(|a| a / 128)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(lines.len() <= 2, "footprint used {} lines", lines.len());
    }

    #[test]
    fn size_bytes_padded_to_tiles() {
        let t = tex(5, 9); // tiles: 2 (y) x 2 (x) = 4 tiles = 512B
        assert_eq!(t.size_bytes(), 512);
    }
}
