//! Training / evaluation drivers and the interval-search supernet adapter.

use crate::backbone::BackboneConfig;
use crate::dataset::{batch_images, DeformedShapesConfig, Sample};
use crate::detector::{
    assign_anchors, build_anchors, decode_detections, detection_loss, Anchor, Assignment,
    YolactLite, NUM_CLASSES,
};
use crate::map::{evaluate_map, MapResult};
use defcon_core::lut::LatencyKey;
use defcon_core::search::SearchModel;
use defcon_nn::graph::{ParamId, ParamStore, Tape, Var};
use defcon_nn::modules::LayerChoice;
use defcon_nn::optim::Sgd;
use defcon_nn::train::{Loop, RobustConfig};
use defcon_support::error::DefconError;
use defcon_support::json::Json;
use defcon_support::obs;

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (paper: 1e-2, step decay).
    pub lr: f32,
    /// Training images.
    pub train_size: usize,
    /// Validation images.
    pub val_size: usize,
    /// Dataset generator.
    pub dataset: DeformedShapesConfig,
    /// Seed for data generation.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.02,
            train_size: 64,
            val_size: 32,
            dataset: DeformedShapesConfig::default(),
            seed: 0x5EED,
        }
    }
}

/// A dataset split with precomputed anchor assignments.
pub struct PreparedData {
    /// The samples.
    pub samples: Vec<Sample>,
    /// Per-sample anchor assignments.
    pub assignments: Vec<Assignment>,
    /// The anchor grid.
    pub anchors: Vec<Anchor>,
}

/// Generates and assigns a split.
pub fn prepare(cfg: &DeformedShapesConfig, n: usize, seed: u64) -> PreparedData {
    let samples = cfg.generate(n, seed);
    let feat = cfg.size / crate::detector::STRIDE;
    let anchors = build_anchors(feat, feat);
    let assignments = samples
        .iter()
        .map(|s| assign_anchors(&anchors, s))
        .collect();
    PreparedData {
        samples,
        assignments,
        anchors,
    }
}

/// Trains `det` on freshly generated data; returns per-epoch mean losses.
///
/// `offset_reg > 0` adds an L2 penalty of that weight on every DCN layer's
/// predicted offsets — the *regularized training* alternative to hard
/// bounding (paper Table V).
pub fn train_detector(
    det: &mut YolactLite,
    store: &mut ParamStore,
    cfg: &TrainConfig,
    offset_reg: f32,
) -> Vec<f32> {
    train_detector_robust(det, store, cfg, offset_reg, &RobustConfig::default())
        .expect("detector training could not recover from non-finite steps")
}

/// [`train_detector`] on the guarded, checkpointed training [`Loop`]
/// (see [`defcon_nn::train`] for the rollback and resume contract).
///
/// Checkpoints carry the `ParamStore` (values + momentum) and the LR
/// schedule, which is everything the optimizer needs; BatchNorm running
/// statistics and Gumbel noise streams live outside the store, so a
/// mid-run resume continues training correctly but does not replay the
/// uninterrupted trajectory bit-for-bit. Restarting from scratch (the
/// corrupt-checkpoint path) with a freshly built detector *is*
/// bit-reproducible, since every source of randomness is seeded.
pub fn train_detector_robust(
    det: &mut YolactLite,
    store: &mut ParamStore,
    cfg: &TrainConfig,
    offset_reg: f32,
    robust: &RobustConfig,
) -> Result<Vec<f32>, DefconError> {
    let run_span = obs::span_with("trainer.run", || {
        vec![
            ("epochs", Json::from(cfg.epochs)),
            ("train_size", Json::from(cfg.train_size)),
            ("batch_size", Json::from(cfg.batch_size)),
            ("offset_reg", Json::from(offset_reg as f64)),
        ]
    });
    let data = prepare(&cfg.dataset, cfg.train_size, cfg.seed);
    // A zero batch size leaves no steps, which `Loop::new` rejects.
    let steps = match cfg.batch_size {
        0 => 0,
        b => cfg.train_size.div_ceil(b),
    };
    let opt = Sgd::paper_schedule(cfg.lr, cfg.epochs * steps);
    let mut run = Loop::new(robust, "trainer", "trainer.grad", steps, opt, store)?;
    det.set_training(true);
    run.epochs(
        store,
        0..cfg.epochs,
        true,
        |epoch| obs::span_with("trainer.epoch", || vec![("epoch", Json::from(epoch))]),
        |tape, store, _, i| {
            let start = i * cfg.batch_size;
            let end = (start + cfg.batch_size).min(cfg.train_size);
            let samples = &data.samples[start..end];
            let x = tape.input(batch_images(samples));
            let out = det.forward(tape, store, x);
            let assignments = &data.assignments[start..end];
            let mut loss = detection_loss(tape, &out, &data.anchors, assignments, samples);
            if offset_reg > 0.0 {
                for off in det.backbone.dcn_offsets() {
                    let pen = defcon_nn::loss::l2_penalty(tape, off, offset_reg);
                    loss = defcon_nn::ops::add(tape, loss, pen);
                }
            }
            (loss, tape.value(loss).data()[0], || ())
        },
    )?;
    run_span.record("epochs_done", Json::from(run.history.len()));
    Ok(run.history)
}

/// Runs inference on a validation split and computes box/mask mAP.
pub fn evaluate_detector(
    det: &mut YolactLite,
    store: &ParamStore,
    samples: &[Sample],
    score_threshold: f32,
) -> MapResult {
    det.set_training(false);
    let img_size = samples[0].image.dims()[3];
    let mut all_dets = Vec::with_capacity(samples.len());
    for s in samples {
        let mut tape = Tape::new();
        let x = tape.input(s.image.clone());
        let out = det.forward(&mut tape, store, x);
        let dets = decode_detections(
            tape.value(out.cls),
            tape.value(out.boxes),
            tape.value(out.coeffs),
            tape.value(out.protos),
            0,
            img_size,
            score_threshold,
            0.5,
        );
        all_dets.push(dets);
    }
    det.set_training(true);
    evaluate_map(samples, &all_dets, NUM_CLASSES)
}

/// Convenience: build → train → evaluate one backbone layout; returns the
/// trained detector and its validation mAP.
pub fn train_and_eval(
    backbone: BackboneConfig,
    cfg: &TrainConfig,
) -> (YolactLite, ParamStore, MapResult) {
    let mut store = ParamStore::new();
    let mut det = YolactLite::new(&mut store, backbone);
    train_detector(&mut det, &mut store, cfg, 0.0);
    let val = prepare(&cfg.dataset, cfg.val_size, cfg.seed ^ 0xFFFF_0000).samples;
    let map = evaluate_detector(&mut det, &store, &val, 0.05);
    (det, store, map)
}

/// The supernet adapter: plugs a `YolactLite` with searchable backbone
/// slots into `defcon-core`'s interval search.
pub struct DetectorSuperNet {
    /// The detector under search.
    pub detector: YolactLite,
    /// Training data for the search phase.
    pub data: PreparedData,
    /// Mini-batch size.
    pub batch_size: usize,
    searchable_blocks: Vec<usize>,
}

impl DetectorSuperNet {
    /// Builds the supernet (backbone slots should be `SlotKind::Searchable`).
    pub fn new(
        store: &mut ParamStore,
        backbone: BackboneConfig,
        data: PreparedData,
        batch_size: usize,
    ) -> Self {
        let detector = YolactLite::new(store, backbone);
        let searchable_blocks = detector.backbone.searchable_slots();
        DetectorSuperNet {
            detector,
            data,
            batch_size,
            searchable_blocks,
        }
    }
}

impl SearchModel for DetectorSuperNet {
    fn num_slots(&self) -> usize {
        self.searchable_blocks.len()
    }

    fn alpha(&self, i: usize) -> ParamId {
        self.detector.backbone.alpha_of(self.searchable_blocks[i])
    }

    fn latency_key(&self, i: usize) -> LatencyKey {
        self.detector
            .backbone
            .latency_key_of(self.searchable_blocks[i])
    }

    fn set_temperature(&mut self, tau: f32) {
        self.detector.backbone.set_temperature(tau);
    }

    fn forward_loss(&mut self, tape: &mut Tape, store: &ParamStore, batch: usize) -> Var {
        let n = self.data.samples.len();
        let start = (batch * self.batch_size) % n;
        let end = (start + self.batch_size).min(n);
        let samples = &self.data.samples[start..end];
        let assignments = &self.data.assignments[start..end];
        let x = tape.input(batch_images(samples));
        let out = self.detector.forward(tape, store, x);
        detection_loss(tape, &out, &self.data.anchors, assignments, samples)
    }

    fn freeze(&mut self, store: &ParamStore) -> Vec<LayerChoice> {
        self.detector.backbone.freeze(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::SlotKind;
    use defcon_core::lut::LatencyLut;
    use defcon_core::search::{IntervalSearch, SearchConfig};
    use defcon_gpusim::{DeviceConfig, Gpu};
    use defcon_kernels::op::{OffsetPredictorKind, SamplingMethod};
    use defcon_support::fault;
    use std::path::PathBuf;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 4,
            train_size: 16,
            val_size: 8,
            ..Default::default()
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("defcon-trainer-{}-{}", std::process::id(), name));
        p
    }

    /// FNV-1a over the loss history's f32 bits, then every parameter
    /// value's bytes: the byte-identity witness of one training run.
    fn run_digest(history: &[f32], store: &ParamStore) -> u64 {
        let mut bytes = Vec::new();
        for v in history {
            bytes.extend(v.to_bits().to_le_bytes());
        }
        for i in 0..store.len() {
            for v in store.value(store.param_id(i)).data() {
                bytes.extend(v.to_bits().to_le_bytes());
            }
        }
        defcon_core::serve::fnv1a64(&bytes)
    }

    /// A fresh detector with five regular slots, and its parameter store.
    fn regular_detector() -> (ParamStore, YolactLite) {
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let det = YolactLite::new(&mut store, backbone);
        (store, det)
    }

    /// [`train_detector_robust`] on `quick_cfg` from a fresh
    /// [`regular_detector`]; returns the outcome and the trained store.
    fn quick_run(robust: &RobustConfig) -> (Result<Vec<f32>, DefconError>, ParamStore) {
        let (mut store, mut det) = regular_detector();
        let out = train_detector_robust(&mut det, &mut store, &quick_cfg(), 0.0, robust);
        (out, store)
    }

    #[test]
    fn injected_nan_loss_rolls_back_and_training_recovers() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let _armed = fault::arm(FaultPlan::new(41).point("trainer.loss", Schedule::Nth(1)));
        let (history, store) = quick_run(&RobustConfig::default());
        let history = history.unwrap();
        assert_eq!(fault::log(), vec!["trainer.loss#1"]);
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|l| l.is_finite()), "{history:?}");
        assert!(store.values_finite());
        assert_eq!(run_digest(&history, &store), 0x216a_81d4_5f52_3d1f);
    }

    #[test]
    fn injected_nan_grad_rolls_back_and_training_recovers() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let _armed = fault::arm(FaultPlan::new(42).point("trainer.grad", Schedule::Nth(0)));
        let (history, store) = quick_run(&RobustConfig::default());
        let history = history.unwrap();
        assert_eq!(fault::log(), vec!["trainer.grad#0"]);
        assert!(history.iter().all(|l| l.is_finite()));
        assert!(store.values_finite() && store.grads_finite());
        assert_eq!(run_digest(&history, &store), 0x5613_7b3b_bdd1_bc98);
    }

    #[test]
    fn persistent_nan_loss_exhausts_retries() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let _armed = fault::arm(FaultPlan::new(43).point("trainer.loss", Schedule::Always));
        let (err, _) = quick_run(&RobustConfig::default());
        assert!(matches!(
            err,
            Err(DefconError::RetriesExhausted { attempts: 4, .. })
        ));
    }

    #[test]
    fn truncated_checkpoint_restarts_and_reproduces_the_uninterrupted_run() {
        let _quiet = fault::quiesce();
        // Uninterrupted reference run, no checkpointing.
        let (reference, store) = quick_run(&RobustConfig::default());
        let reference = reference.unwrap();
        assert_eq!(run_digest(&reference, &store), 0x554d_0cad_82da_6897);
        // A truncated checkpoint (CRC mismatch) must be discarded; the
        // restart from a fresh seeded model reproduces the reference
        // run's metrics exactly.
        let path = tmp_path("truncated");
        std::fs::write(&path, "0c0ffee0\n{\"epochs_done\":").unwrap();
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let (recovered, _) = quick_run(&robust);
        assert_eq!(Ok(reference), recovered, "restart must be bit-reproducible");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn completed_checkpoint_resumes_without_retraining() {
        let _quiet = fault::quiesce();
        let path = tmp_path("complete");
        let _ = std::fs::remove_file(&path);
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let (first, store) = quick_run(&robust);
        // Fresh model + completed checkpoint: every epoch is skipped and
        // the stored history and parameters are returned as-is.
        let (resumed, store2) = quick_run(&robust);
        assert_eq!(first.unwrap(), resumed.unwrap());
        for i in 0..store.len() {
            assert_eq!(
                store.value(store.param_id(i)).data(),
                store2.value(store2.param_id(i)).data(),
                "resumed parameters must match the checkpointed run"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn training_reduces_loss_and_eval_runs() {
        let _quiet = fault::quiesce();
        let cfg = quick_cfg();
        let (mut store, mut det) = regular_detector();
        let history = train_detector(&mut det, &mut store, &cfg, 0.0);
        assert_eq!(history.len(), 2);
        assert!(history[1] < history[0], "loss {history:?}");
        let val = prepare(&cfg.dataset, cfg.val_size, 99).samples;
        let map = evaluate_detector(&mut det, &store, &val, 0.05);
        assert!(map.box_map >= 0.0 && map.box_map <= 100.0);
    }

    #[test]
    fn supernet_search_end_to_end() {
        let _quiet = fault::quiesce();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Searchable));
        let mut store = ParamStore::new();
        let data = prepare(&DeformedShapesConfig::default(), 8, 42);
        let mut net = DetectorSuperNet::new(&mut store, backbone, data, 4);
        assert_eq!(net.num_slots(), 5);

        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let keys = net.detector.backbone.all_latency_keys();
        let lut = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::Tex2dPlusPlus,
            OffsetPredictorKind::Lightweight,
        );
        let cfg = SearchConfig {
            search_epochs: 2,
            finetune_epochs: 1,
            iters_per_epoch: 2,
            ..Default::default()
        };
        let out = IntervalSearch::new(cfg, lut).run(&mut net, &mut store);
        assert_eq!(out.choices.len(), 5);
        assert!(!net.detector.backbone.layout().contains('?'));
    }
}
