//! The synthetic *deformed shapes* dataset.
//!
//! Each image contains 1–3 objects from a small set of geometric classes,
//! rendered under a random geometric deformation: rotation, anisotropic
//! scale, shear and a sinusoidal bend. Rigid receptive fields struggle to
//! localize and segment heavily warped shapes precisely; flexible sampling
//! (deformable convolution) does not — which is the property Table I and
//! Fig. 5/6 of the paper measure on COCO, transplanted to a dataset we can
//! generate and train on in seconds.

use defcon_support::rng::{Rng, SeedableRng, StdRng};
use defcon_tensor::Tensor;

/// Object classes (the shape taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Filled ellipse.
    Ellipse,
    /// Filled rectangle.
    Rectangle,
    /// Filled triangle.
    Triangle,
}

impl ShapeClass {
    /// All classes, index order = class id.
    pub const ALL: [ShapeClass; 3] = [
        ShapeClass::Ellipse,
        ShapeClass::Rectangle,
        ShapeClass::Triangle,
    ];

    /// Class id (0-based).
    pub fn id(&self) -> usize {
        match self {
            ShapeClass::Ellipse => 0,
            ShapeClass::Rectangle => 1,
            ShapeClass::Triangle => 2,
        }
    }
}

/// One ground-truth object.
#[derive(Clone, Debug)]
pub struct GtObject {
    /// Class id.
    pub class: usize,
    /// Tight bounding box `(y0, x0, y1, x1)` in pixels (exclusive max).
    pub bbox: [f32; 4],
    /// Binary mask at image resolution (`h*w`, row-major).
    pub mask: Vec<bool>,
}

/// One image with its ground truth.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Image `[1, 1, H, W]` (grayscale, values in [0, 1]).
    pub image: Tensor,
    /// Objects in the image.
    pub objects: Vec<GtObject>,
}

/// Dataset generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct DeformedShapesConfig {
    /// Image side (square images).
    pub size: usize,
    /// Maximum objects per image (min 1).
    pub max_objects: usize,
    /// Deformation strength in `[0, 1]`: scales rotation range, shear,
    /// anisotropy and bending amplitude.
    pub deformation: f32,
    /// Additive background noise std.
    pub noise: f32,
}

impl Default for DeformedShapesConfig {
    fn default() -> Self {
        DeformedShapesConfig {
            size: 48,
            max_objects: 2,
            deformation: 0.8,
            noise: 0.05,
        }
    }
}

impl DeformedShapesConfig {
    /// Generates `n` samples deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Generates one sample.
    pub fn sample(&self, rng: &mut StdRng) -> Sample {
        let s = self.size;
        let mut img = vec![0.0f32; s * s];
        // Textured background.
        for v in img.iter_mut() {
            *v = 0.1 + self.noise * rng.gen_range(-1.0f32..1.0);
        }

        let n_obj = rng.gen_range(1..=self.max_objects.max(1));
        let mut objects = Vec::with_capacity(n_obj);
        for _ in 0..n_obj {
            let class = ShapeClass::ALL[rng.gen_range(0..ShapeClass::ALL.len())];
            let obj = self.render_object(class, rng, &mut img);
            // Reject degenerate (fully occluded / off-image) objects.
            if obj.mask.iter().filter(|&&m| m).count() >= 8 {
                objects.push(obj);
            }
        }
        // Pixel noise on top of everything.
        for v in img.iter_mut() {
            *v = (*v + self.noise * rng.gen_range(-1.0f32..1.0)).clamp(0.0, 1.0);
        }
        Sample {
            image: Tensor::from_vec(img, &[1, 1, s, s]),
            objects,
        }
    }

    /// Renders one warped shape into `img`, returning its ground truth.
    fn render_object(&self, class: ShapeClass, rng: &mut StdRng, img: &mut [f32]) -> GtObject {
        let s = self.size as f32;
        let d = self.deformation;
        // Object frame.
        let cy = rng.gen_range(0.25 * s..0.75 * s);
        let cx = rng.gen_range(0.25 * s..0.75 * s);
        let base_r = rng.gen_range(0.12 * s..0.22 * s);
        // Deformation parameters.
        let theta = rng.gen_range(-std::f32::consts::PI..std::f32::consts::PI) * d;
        let aniso = 1.0 + rng.gen_range(0.0f32..1.2) * d; // anisotropic scale
        let shear = rng.gen_range(-0.7f32..0.7) * d;
        let bend_amp = rng.gen_range(0.0f32..0.45) * d; // sinusoidal bend
        let bend_freq = rng.gen_range(1.0f32..3.0);
        let intensity = rng.gen_range(0.55f32..0.95);

        let (sin_t, cos_t) = theta.sin_cos();
        let mut mask = vec![false; self.size * self.size];
        let (mut y0, mut x0, mut y1, mut x1) = (f32::MAX, f32::MAX, f32::MIN, f32::MIN);

        for py in 0..self.size {
            for px in 0..self.size {
                // Map the pixel into the object's canonical frame by
                // inverting the deformation: translate, un-bend, un-rotate,
                // un-shear, un-scale.
                let mut y = py as f32 - cy;
                let x = px as f32 - cx;
                // Inverse sinusoidal bend (applied along x as a y-shift).
                y -= bend_amp * base_r * (bend_freq * x / base_r).sin();
                // Inverse rotation.
                let (ry, rx) = (cos_t * y + sin_t * x, -sin_t * y + cos_t * x);
                // Inverse shear (x += shear * y on the forward map).
                let (ry, rx) = (ry, rx - shear * ry);
                // Inverse anisotropic scale on x.
                let (uy, ux) = (ry / base_r, rx / (base_r * aniso));
                let inside = match class {
                    ShapeClass::Ellipse => uy * uy + ux * ux <= 1.0,
                    ShapeClass::Rectangle => uy.abs() <= 0.8 && ux.abs() <= 0.8,
                    ShapeClass::Triangle => {
                        // Upright triangle in canonical frame.
                        (-0.9..=0.9).contains(&uy) && ux.abs() <= (0.9 - uy) * 0.55
                    }
                };
                if inside {
                    let idx = py * self.size + px;
                    img[idx] = intensity;
                    mask[idx] = true;
                    y0 = y0.min(py as f32);
                    x0 = x0.min(px as f32);
                    y1 = y1.max(py as f32 + 1.0);
                    x1 = x1.max(px as f32 + 1.0);
                }
            }
        }
        if y0 > y1 {
            // Nothing rendered (warped fully off-image).
            (y0, x0, y1, x1) = (0.0, 0.0, 0.0, 0.0);
        }
        GtObject {
            class: class.id(),
            bbox: [y0, x0, y1, x1],
            mask,
        }
    }
}

/// Stacks `samples[range]` into one `[B, 1, H, W]` batch tensor.
pub fn batch_images(samples: &[Sample]) -> Tensor {
    assert!(!samples.is_empty());
    let dims = samples[0].image.dims().to_vec();
    let (h, w) = (dims[2], dims[3]);
    let mut out = Tensor::zeros(&[samples.len(), 1, h, w]);
    for (i, s) in samples.iter().enumerate() {
        let dst = i * h * w;
        out.data_mut()[dst..dst + h * w].copy_from_slice(s.image.data());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DeformedShapesConfig::default();
        let a = cfg.generate(3, 5);
        let b = cfg.generate(3, 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.image, y.image);
            assert_eq!(x.objects.len(), y.objects.len());
        }
    }

    #[test]
    fn every_sample_has_objects_with_valid_boxes() {
        let cfg = DeformedShapesConfig::default();
        for s in cfg.generate(20, 11) {
            assert!(!s.objects.is_empty(), "sample without objects");
            for o in &s.objects {
                let [y0, x0, y1, x1] = o.bbox;
                assert!(y1 > y0 && x1 > x0, "degenerate bbox {:?}", o.bbox);
                assert!(y1 <= cfg.size as f32 && x1 <= cfg.size as f32);
                let area = o.mask.iter().filter(|&&m| m).count();
                assert!(area >= 8, "mask area {area}");
            }
        }
    }

    #[test]
    fn mask_lies_within_bbox() {
        let cfg = DeformedShapesConfig::default();
        for s in cfg.generate(10, 13) {
            for o in &s.objects {
                let [y0, x0, y1, x1] = o.bbox;
                for py in 0..cfg.size {
                    for px in 0..cfg.size {
                        if o.mask[py * cfg.size + px] {
                            assert!(
                                py as f32 >= y0
                                    && (py as f32) < y1
                                    && px as f32 >= x0
                                    && (px as f32) < x1,
                                "mask pixel ({py},{px}) outside bbox {:?}",
                                o.bbox
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn class_distribution_covers_all_classes() {
        let cfg = DeformedShapesConfig::default();
        let samples = cfg.generate(60, 17);
        let mut seen = [false; 3];
        for s in &samples {
            for o in &s.objects {
                seen[o.class] = true;
            }
        }
        assert!(seen.iter().all(|&v| v), "classes seen: {seen:?}");
    }

    #[test]
    fn zero_deformation_keeps_shapes_rigid() {
        // With deformation 0, a rectangle's mask should fill its bbox almost
        // completely (it is axis-aligned).
        let cfg = DeformedShapesConfig {
            deformation: 0.0,
            max_objects: 1,
            noise: 0.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut img = vec![0.0f32; cfg.size * cfg.size];
            let o = cfg.render_object(ShapeClass::Rectangle, &mut rng, &mut img);
            let [y0, x0, y1, x1] = o.bbox;
            let box_area = (y1 - y0) * (x1 - x0);
            let mask_area = o.mask.iter().filter(|&&m| m).count() as f32;
            if box_area > 0.0 {
                assert!(
                    mask_area / box_area > 0.95,
                    "rigid rectangle fill {}",
                    mask_area / box_area
                );
            }
        }
    }

    #[test]
    fn batch_images_stacks() {
        let cfg = DeformedShapesConfig::default();
        let samples = cfg.generate(4, 1);
        let b = batch_images(&samples);
        assert_eq!(b.dims(), &[4, 1, cfg.size, cfg.size]);
        assert_eq!(&b.data()[0..10], &samples[0].image.data()[0..10]);
    }
}
