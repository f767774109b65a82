//! SGD with momentum and the paper's step-decay learning-rate schedule.

use crate::graph::ParamStore;

/// SGD configuration (paper §IV-A: momentum 0.9, initial LR 1e-2, decay by
/// 0.1 at milestones, saturating at 1e-6).
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay applied to decay-flagged parameters.
    pub weight_decay: f32,
    /// Iterations at which the LR is multiplied by `gamma`.
    pub milestones: Vec<usize>,
    /// Multiplicative decay at each milestone.
    pub gamma: f32,
    /// LR floor.
    pub min_lr: f32,
    step_count: usize,
    /// Multiplicative backoff applied on top of the schedule by recovery
    /// paths (1.0 = none). See [`Sgd::backoff`].
    lr_scale: f32,
}

impl Sgd {
    /// Builds an optimizer; milestones are absolute step indices.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            milestones: Vec::new(),
            gamma: 0.1,
            min_lr: 1e-6,
            step_count: 0,
            lr_scale: 1.0,
        }
    }

    /// The paper's training configuration scaled to a given run length:
    /// decay ×0.1 at 60 % and 85 % of `total_steps`.
    pub fn paper_schedule(lr: f32, total_steps: usize) -> Self {
        let mut s = Sgd::new(lr, 0.9, 5e-4);
        s.milestones = vec![(total_steps * 6) / 10, (total_steps * 17) / 20];
        s
    }

    /// Learning rate in effect at the current step.
    pub fn current_lr(&self) -> f32 {
        let decays = self
            .milestones
            .iter()
            .filter(|&&m| self.step_count >= m)
            .count();
        (self.lr * self.lr_scale * self.gamma.powi(decays as i32)).max(self.min_lr)
    }

    /// Multiplies the backoff scale by `factor` (0 < factor ≤ 1). Trainer
    /// recovery paths call this after rolling back a non-finite step:
    /// divergence from a too-hot LR re-runs at a gentler one. The scale
    /// composes with (does not replace) the milestone schedule.
    pub fn backoff(&mut self, factor: f32) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "backoff factor must be in (0, 1]"
        );
        self.lr_scale *= factor;
    }

    /// Current backoff scale (1.0 when no backoff has been applied).
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Restores schedule position and backoff scale (checkpoint resume).
    pub fn restore_schedule(&mut self, steps: usize, lr_scale: f32) {
        self.step_count = steps;
        self.lr_scale = lr_scale;
    }

    /// Applies one update from the accumulated gradients, then advances the
    /// schedule and zeroes the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        let lr = self.current_lr();
        store.sgd_step(lr, self.momentum, self.weight_decay);
        self.step_count += 1;
        store.zero_grads();
    }

    /// Number of completed steps.
    pub fn steps(&self) -> usize {
        self.step_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_tensor::Tensor;

    #[test]
    fn lr_decays_at_milestones() {
        let mut s = Sgd::new(0.1, 0.9, 0.0);
        s.milestones = vec![2, 4];
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]), true);
        assert!((s.current_lr() - 0.1).abs() < 1e-7);
        s.step(&mut store); // step 0 -> 1
        s.step(&mut store); // 1 -> 2
        assert!((s.current_lr() - 0.01).abs() < 1e-7);
        s.step(&mut store);
        s.step(&mut store);
        assert!((s.current_lr() - 0.001).abs() < 1e-7);
    }

    #[test]
    fn lr_floors_at_min() {
        let mut s = Sgd::new(1e-5, 0.9, 0.0);
        s.milestones = vec![0];
        s.step_count = 1;
        assert!((s.current_lr() - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn momentum_accelerates_descent() {
        // Minimize f(w) = w² from w=1; with momentum the parameter should
        // move farther after two identical-gradient steps than without.
        let run = |mom: f32| {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::from_vec(vec![1.0], &[1]), false);
            let mut opt = Sgd::new(0.1, mom, 0.0);
            for _ in 0..2 {
                let g = Tensor::from_vec(vec![2.0 * store.value(w).data()[0]], &[1]);
                store.accumulate_grad(w, &g);
                opt.step(&mut store);
            }
            store.value(w).data()[0]
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn backoff_scales_lr_and_composes_with_schedule() {
        let mut s = Sgd::new(0.1, 0.9, 0.0);
        s.milestones = vec![1];
        s.backoff(0.5);
        assert!((s.current_lr() - 0.05).abs() < 1e-7);
        s.step_count = 1; // past the milestone: gamma and backoff compose
        assert!((s.current_lr() - 0.005).abs() < 1e-7);
    }

    #[test]
    fn restore_schedule_reproduces_lr() {
        let mut a = Sgd::paper_schedule(0.01, 100);
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]), true);
        for _ in 0..70 {
            a.step(&mut store);
        }
        a.backoff(0.25);
        let mut b = Sgd::paper_schedule(0.01, 100);
        b.restore_schedule(a.steps(), a.lr_scale());
        assert_eq!(a.current_lr(), b.current_lr());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn paper_schedule_milestones_proportional() {
        let s = Sgd::paper_schedule(0.01, 100);
        assert_eq!(s.milestones, vec![60, 85]);
    }
}
