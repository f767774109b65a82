//! The autograd tape and parameter store.

use defcon_support::json::{Json, JsonError};
use defcon_tensor::Tensor;
use std::collections::HashMap;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Handle to a learnable parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// One-shot backward closure: given the node's output gradient, produce the
/// gradients of its parents (same order and length as `parents`).
type BackwardFn = Box<dyn FnOnce(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    grad: Option<Tensor>,
}

/// Central store for learnable parameters: values, gradient accumulators and
/// momentum buffers, plus per-parameter metadata (name, weight-decay flag).
///
/// Parameters live *outside* the tape so the tape can be rebuilt every step
/// (define-by-run) while optimizer state persists.
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    velocity: Vec<Tensor>,
    names: Vec<String>,
    decay: Vec<bool>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter; `decay` controls whether weight decay applies
    /// (convention: true for conv/linear weights, false for biases, BN
    /// affine parameters, offset predictors and architecture parameters).
    pub fn add(&mut self, name: &str, value: Tensor, decay: bool) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.dims()));
        self.velocity.push(Tensor::zeros(value.dims()));
        self.values.push(value);
        self.names.push(name.to_string());
        self.decay.push(decay);
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value access (used for manual re-initialization and testing).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Parameter name (diagnostics).
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The id of the `index`-th registered parameter (registration order).
    /// Panics when out of range.
    pub fn param_id(&self, index: usize) -> ParamId {
        assert!(index < self.values.len(), "parameter index out of range");
        ParamId(index)
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|t| t.numel()).sum()
    }

    /// Zeroes every gradient accumulator (call before each step).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }

    /// Adds `g` into the parameter's gradient accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        let acc = &mut self.grads[id.0];
        for (a, b) in acc.data_mut().iter_mut().zip(g.data().iter()) {
            *a += b;
        }
    }

    /// True when every parameter value is finite (no NaN/±∞ has leaked in).
    pub fn values_finite(&self) -> bool {
        self.values
            .iter()
            .all(|t| t.data().iter().all(|v| v.is_finite()))
    }

    /// True when every accumulated gradient is finite. Trainers check this
    /// before applying a step so one poisoned backward pass cannot corrupt
    /// the weights.
    pub fn grads_finite(&self) -> bool {
        self.grads
            .iter()
            .all(|t| t.data().iter().all(|v| v.is_finite()))
    }

    /// A point-in-time copy of the trainable state (values + momentum
    /// buffers) for step rollback. Gradients are transient and not captured.
    pub fn snapshot(&self) -> ParamSnapshot {
        ParamSnapshot {
            values: self.values.iter().map(|t| t.data().to_vec()).collect(),
            velocity: self.velocity.iter().map(|t| t.data().to_vec()).collect(),
        }
    }

    /// Restores a [`ParamStore::snapshot`], discarding whatever the
    /// rolled-back step accumulated (gradients are zeroed: they were
    /// computed from the poisoned state).
    pub fn restore(&mut self, snap: &ParamSnapshot) {
        assert_eq!(
            snap.values.len(),
            self.values.len(),
            "snapshot shape mismatch"
        );
        for (t, s) in self.values.iter_mut().zip(&snap.values) {
            t.data_mut().copy_from_slice(s);
        }
        for (t, s) in self.velocity.iter_mut().zip(&snap.velocity) {
            t.data_mut().copy_from_slice(s);
        }
        self.zero_grads();
    }

    /// Serializes the trainable state (names + values + momentum) for
    /// checkpointing. f32 values round-trip exactly through the f64 JSON
    /// numbers (shortest round-trip printing), so save → load is bitwise.
    pub fn state_to_json(&self) -> Json {
        let tensors = |ts: &[Tensor]| {
            Json::Arr(
                ts.iter()
                    .map(|t| Json::Arr(t.data().iter().map(|&v| Json::from(v as f64)).collect()))
                    .collect(),
            )
        };
        Json::obj(vec![
            (
                "names",
                Json::Arr(self.names.iter().map(Json::str).collect()),
            ),
            ("values", tensors(&self.values)),
            ("velocity", tensors(&self.velocity)),
        ])
    }

    /// Loads state saved by [`ParamStore::state_to_json`] into a store with
    /// the **same registered parameters** (checked by name and length) —
    /// build the model first, then restore into it.
    pub fn load_state_json(&mut self, j: &Json) -> Result<(), JsonError> {
        let arr = |v: &'_ Json| v.as_arr().map(<[Json]>::to_vec);
        let names =
            arr(j.field("names")?).ok_or_else(|| JsonError::msg("names must be an array"))?;
        if names.len() != self.names.len() {
            return Err(JsonError::msg(format!(
                "checkpoint has {} parameters, model has {}",
                names.len(),
                self.names.len()
            )));
        }
        for (i, n) in names.iter().enumerate() {
            let n = n
                .as_str()
                .ok_or_else(|| JsonError::msg("names must be strings"))?;
            if n != self.names[i] {
                return Err(JsonError::msg(format!(
                    "parameter {i} name mismatch: checkpoint {n:?}, model {:?}",
                    self.names[i]
                )));
            }
        }
        let load = |dst: &mut [Tensor], src: &Json| -> Result<(), JsonError> {
            let arrs = src
                .as_arr()
                .ok_or_else(|| JsonError::msg("expected tensor array"))?;
            if arrs.len() != dst.len() {
                return Err(JsonError::msg("tensor count mismatch"));
            }
            for (t, a) in dst.iter_mut().zip(arrs) {
                let vals = a
                    .as_arr()
                    .ok_or_else(|| JsonError::msg("expected value array"))?;
                if vals.len() != t.numel() {
                    return Err(JsonError::msg("tensor length mismatch"));
                }
                for (d, v) in t.data_mut().iter_mut().zip(vals) {
                    *d = v
                        .as_f64()
                        .ok_or_else(|| JsonError::msg("expected number"))?
                        as f32;
                }
            }
            Ok(())
        };
        load(&mut self.values, j.field("values")?)?;
        load(&mut self.velocity, j.field("velocity")?)?;
        self.zero_grads();
        Ok(())
    }

    /// One raw SGD-with-momentum update over every parameter (the
    /// [`crate::optim::Sgd`] optimizer wraps this with scheduling).
    pub fn sgd_step(&mut self, lr: f32, momentum: f32, weight_decay: f32) {
        for i in 0..self.values.len() {
            let wd = if self.decay[i] { weight_decay } else { 0.0 };
            let v = &mut self.velocity[i];
            let g = &self.grads[i];
            let p = &mut self.values[i];
            for ((vv, &gv), pv) in v
                .data_mut()
                .iter_mut()
                .zip(g.data().iter())
                .zip(p.data_mut().iter_mut())
            {
                let eff = gv + wd * *pv;
                *vv = momentum * *vv - lr * eff;
                *pv += *vv;
            }
        }
    }
}

/// A point-in-time copy of a [`ParamStore`]'s trainable state (values and
/// momentum buffers), for step rollback after a non-finite loss/gradient.
#[derive(Clone)]
pub struct ParamSnapshot {
    values: Vec<Vec<f32>>,
    velocity: Vec<Vec<f32>>,
}

/// A define-by-run autograd tape.
///
/// Build one per training step, record the forward computation through the
/// op constructors in [`crate::ops`], call [`Tape::backward`] on the scalar
/// loss, then [`Tape::write_param_grads`] to flush parameter gradients into
/// the [`ParamStore`].
pub struct Tape {
    nodes: Vec<Node>,
    param_vars: HashMap<usize, Var>,
    param_of_var: HashMap<usize, ParamId>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            param_vars: HashMap::new(),
            param_of_var: HashMap::new(),
        }
    }

    /// Records a leaf holding input data (no gradient tracking beyond the
    /// tape; useful for activations and labels).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None)
    }

    /// Registers parameter `id` from `store` as a leaf, reusing the existing
    /// leaf if the parameter was already used on this tape (so shared modules
    /// accumulate gradients across uses).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_vars.get(&id.0) {
            return v;
        }
        let v = self.push(store.value(id).clone(), vec![], None);
        self.param_vars.insert(id.0, v);
        self.param_of_var.insert(v.0, id);
        v
    }

    /// Pushes a node; `backward` maps the output gradient to parent
    /// gradients.
    pub fn push(&mut self, value: Tensor, parents: Vec<Var>, backward: Option<BackwardFn>) -> Var {
        let id = Var(self.nodes.len());
        self.nodes.push(Node {
            value,
            parents,
            backward,
            grad: None,
        });
        id
    }

    /// The value held by `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of `v` (after [`Tape::backward`]); `None` if
    /// no gradient flowed to it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Runs reverse-mode accumulation from `loss`, which must be scalar
    /// (numel == 1). Seeds `d loss / d loss = 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss"
        );
        self.nodes[loss.0].grad = Some(Tensor::ones(self.nodes[loss.0].value.dims()));
        for i in (0..=loss.0).rev() {
            let Some(gy) = self.nodes[i].grad.clone() else {
                continue;
            };
            let Some(back) = self.nodes[i].backward.take() else {
                continue;
            };
            let parents = self.nodes[i].parents.clone();
            let pgrads = back(&gy);
            assert_eq!(
                pgrads.len(),
                parents.len(),
                "backward arity mismatch at node {i}"
            );
            for (p, g) in parents.into_iter().zip(pgrads) {
                match &mut self.nodes[p.0].grad {
                    Some(acc) => {
                        for (a, b) in acc.data_mut().iter_mut().zip(g.data().iter()) {
                            *a += b;
                        }
                    }
                    slot @ None => *slot = Some(g),
                }
            }
        }
    }

    /// Flushes gradients of every parameter leaf used on this tape into the
    /// store's accumulators.
    pub fn write_param_grads(&self, store: &mut ParamStore) {
        for (&var_idx, &pid) in &self.param_of_var {
            if let Some(g) = &self.nodes[var_idx].grad {
                store.accumulate_grad(pid, g);
            }
        }
    }

    /// Number of recorded nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn simple_chain_gradient() {
        // loss = sum((x * 3)^2) with x = [1, 2] -> d/dx = 2*3x*3 = 18x
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = ops::scale(&mut t, x, 3.0);
        let z = ops::square(&mut t, y);
        let l = ops::sum_all(&mut t, z);
        t.backward(l);
        let gx = t.grad(x).unwrap();
        assert_eq!(gx.data(), &[18.0, 36.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x) + sum(2x): grad = 3 everywhere.
        let mut t = Tape::new();
        let x = t.input(Tensor::ones(&[4]));
        let a = ops::sum_all(&mut t, x);
        let x2 = ops::scale(&mut t, x, 2.0);
        let b = ops::sum_all(&mut t, x2);
        let l = ops::add(&mut t, a, b);
        t.backward(l);
        assert_eq!(t.grad(x).unwrap().data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn param_reuse_accumulates_across_uses() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Tensor::from_vec(vec![2.0], &[1]), true);
        let mut t = Tape::new();
        let w1 = t.param(&store, pid);
        let w2 = t.param(&store, pid);
        assert_eq!(w1, w2, "same param must map to same var");
        let y = ops::mul(&mut t, w1, w2); // w^2
        let l = ops::sum_all(&mut t, y);
        t.backward(l);
        t.write_param_grads(&mut store);
        // d(w^2)/dw = 2w = 4
        assert_eq!(store.grad(pid).data(), &[4.0]);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Tensor::from_vec(vec![1.0], &[1]), false);
        store.accumulate_grad(pid, &Tensor::from_vec(vec![0.5], &[1]));
        store.sgd_step(0.1, 0.0, 0.0);
        assert!((store.value(pid).data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_only_on_flagged_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0], &[1]), true);
        let b = store.add("b", Tensor::from_vec(vec![1.0], &[1]), false);
        store.sgd_step(0.1, 0.0, 1.0); // zero grads; only wd acts
        assert!((store.value(w).data()[0] - 0.9).abs() < 1e-6);
        assert!((store.value(b).data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn snapshot_restore_round_trips_values_and_velocity() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        // Build up momentum so the snapshot captures more than values.
        store.accumulate_grad(w, &Tensor::from_vec(vec![0.5, -0.5], &[2]));
        store.sgd_step(0.1, 0.9, 0.0);
        let snap = store.snapshot();
        let before = store.value(w).data().to_vec();
        // A later (poisoned) step…
        store.accumulate_grad(w, &Tensor::from_vec(vec![f32::NAN, 1.0], &[2]));
        assert!(!store.grads_finite());
        store.sgd_step(0.1, 0.9, 0.0);
        assert!(!store.values_finite());
        // …rolls back exactly.
        store.restore(&snap);
        assert!(store.values_finite());
        assert_eq!(store.value(w).data(), &before[..]);
        assert_eq!(store.grad(w).data(), &[0.0, 0.0], "restore zeroes grads");
        // The re-run step from the restored state matches a clean run.
        store.accumulate_grad(w, &Tensor::from_vec(vec![0.1, 0.1], &[2]));
        store.sgd_step(0.1, 0.9, 0.0);
        assert!(store.values_finite());
    }

    #[test]
    fn state_json_round_trip_is_bitwise() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![0.1, -3.25e-7, 1e30], &[3]), true);
        store.add("b", Tensor::from_vec(vec![42.0], &[1]), false);
        store.accumulate_grad(w, &Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        store.sgd_step(0.01, 0.9, 1e-4);
        let saved = store.state_to_json().to_string();

        let mut fresh = ParamStore::new();
        let w2 = fresh.add("w", Tensor::zeros(&[3]), true);
        fresh.add("b", Tensor::zeros(&[1]), false);
        let parsed = defcon_support::json::Json::parse(&saved).unwrap();
        fresh.load_state_json(&parsed).unwrap();
        assert_eq!(fresh.value(w2).data(), store.value(w).data());
        // Bitwise: re-serializing the restored store reproduces the bytes.
        assert_eq!(fresh.state_to_json().to_string(), saved);
    }

    #[test]
    fn load_state_rejects_mismatched_model() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[2]), true);
        let saved = store.state_to_json();
        let mut other = ParamStore::new();
        other.add("different", Tensor::zeros(&[2]), true);
        assert!(other.load_state_json(&saved).is_err());
        let mut fewer = ParamStore::new();
        fewer.add("w", Tensor::zeros(&[3]), true); // wrong shape
        assert!(fewer.load_state_json(&saved).is_err());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.input(Tensor::ones(&[2]));
        t.backward(x);
    }
}
