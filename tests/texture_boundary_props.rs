//! Property tests pinning the branch-free texture sampler and the
//! precomputed-reciprocal trilinear path to their verbatim legacy copies at
//! address-mode boundaries.
//!
//! The rewrite hoisted address-mode resolution out of the per-texel loop,
//! replaced the quantization divide with an exact reciprocal multiply, and
//! split the fetch into a layer-independent plan plus a per-layer replay.
//! None of that is allowed to move a single bit: for every address mode,
//! filter mode and a boundary-heavy coordinate grid (texel edges, the
//! half-texel filter seams, just-outside and far-outside positions),
//! `fetch` must agree with `fetch_legacy` on the filtered value, the texel
//! address list and its length — and `fetch_trilinear` with
//! `fetch_trilinear_legacy` on the blended value, across integer, fractional
//! and out-of-range LODs.

use defcon::gpusim::mipmap::MipmappedArray2d;
use defcon::gpusim::oracle;
use defcon::gpusim::texture::{AddressMode, FilterMode, LayeredTexture2d};
use defcon_support::prop::{self, Config};
use defcon_support::prop_assert_eq;
use defcon_support::rng::Rng;

const CASES: u32 = 24;

const MODES: [AddressMode; 4] = [
    AddressMode::Border,
    AddressMode::Clamp,
    AddressMode::Wrap,
    AddressMode::Mirror,
];

const FILTERS: [FilterMode; 3] = [
    FilterMode::Point,
    FilterMode::Linear { frac_bits: 23 },
    FilterMode::Linear { frac_bits: 8 },
];

/// Deterministic pseudo-random texel data in [-2, 2).
fn texels(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Coordinates that straddle every interesting seam of one axis of extent
/// `n`: texel centres and edges, the ±0.5 filter seam, epsilon inside and
/// outside both ends, and far out of range (where the early-outs and the
/// wrap/mirror folds all disagree in shape, if not in bits).
fn boundary_coords(extent: usize, extra: f32) -> Vec<f32> {
    let n = extent as f32;
    vec![
        -2.25,
        -1.0,
        -0.75,
        -0.5,
        -f32::EPSILON,
        0.0,
        0.25,
        0.5,
        1.0,
        (extent / 2) as f32 + 0.5,
        n - 1.0,
        n - 0.5,
        n - 0.25,
        n - n * f32::EPSILON,
        n,
        n + 0.5,
        n + 1.75,
        extra,
    ]
}

#[test]
fn fetch_matches_legacy_at_address_mode_boundaries() {
    prop::check(
        "fetch_matches_legacy_at_address_mode_boundaries",
        &Config::new(CASES, 0xDEFC_0810),
        |rng| {
            (
                rng.gen_range(1usize..4),
                rng.gen_range(2usize..13),
                rng.gen_range(2usize..13),
                rng.gen_range(0u64..10_000),
                rng.gen_range(-2.0f32..14.0),
                rng.gen_range(-2.0f32..14.0),
            )
        },
        |&(layers, h, w, seed, fy, fx)| {
            for mode in MODES {
                for filter in FILTERS {
                    let mut tex = LayeredTexture2d::new(
                        texels(layers * h * w, seed),
                        layers,
                        h,
                        w,
                        0x8000_0000,
                        2048,
                        32768,
                    )
                    .expect("within device limits");
                    tex.address_mode = mode;
                    tex.filter_mode = filter;
                    for layer in 0..layers {
                        for &y in &boundary_coords(h, fy) {
                            for &x in &boundary_coords(w, fx) {
                                let new = tex.fetch(layer, y, x);
                                let old = oracle::fetch_legacy(&tex, layer, y, x);
                                prop_assert_eq!(new.value.to_bits(), old.value.to_bits());
                                prop_assert_eq!(new.len, old.len);
                                prop_assert_eq!(
                                    &new.addresses[..new.len as usize],
                                    &old.addresses[..old.len as usize]
                                );
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn trilinear_matches_legacy_across_lods() {
    prop::check(
        "trilinear_matches_legacy_across_lods",
        &Config::new(CASES, 0xDEFC_0811),
        |rng| {
            (
                rng.gen_range(1usize..3),
                rng.gen_range(2usize..11),
                rng.gen_range(2usize..11),
                rng.gen_range(0u64..10_000),
                rng.gen_range(-1.0f32..8.0),
            )
        },
        |&(layers, h, w, seed, flod)| {
            for mode in MODES {
                for filter in FILTERS {
                    let mut mip = MipmappedArray2d::new(
                        texels(layers * h * w, seed),
                        layers,
                        h,
                        w,
                        0x8000_0000,
                        2048,
                        32768,
                    )
                    .expect("within device limits");
                    mip.configure(mode, filter);
                    let top = (mip.num_levels() - 1) as f32;
                    // Integer LODs (the folded degenerate case), fractions,
                    // both out-of-range ends, and a random fractional LOD.
                    let lods = [-0.5, 0.0, 0.5, 1.0, 1.5, top - 0.25, top, top + 0.75, flod];
                    for layer in 0..layers {
                        for lod in lods {
                            for &y in &boundary_coords(h, 0.75) {
                                for &x in &boundary_coords(w, 1.25) {
                                    prop_assert_eq!(
                                        mip.fetch_trilinear(layer, y, x, lod).to_bits(),
                                        oracle::fetch_trilinear_legacy(&mip, layer, y, x, lod)
                                            .to_bits()
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
