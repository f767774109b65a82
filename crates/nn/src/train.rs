//! The guarded SGD epoch loop shared by the detector trainer and both
//! phases of the interval search (paper Algorithm 1 trains the supernet,
//! then fine-tunes the frozen architecture, with the same loop).
//!
//! Every step is guarded: a non-finite loss or any non-finite parameter
//! gradient rolls the store back to its pre-step snapshot (values and
//! momentum), backs the learning rate off ([`Sgd::backoff`]) and retries
//! the same mini-batch, up to [`RobustConfig::max_step_retries`] extra
//! attempts before [`DefconError::RetriesExhausted`]. When no step ever
//! diverges the arithmetic is that of the plain unguarded loop.
//!
//! With a checkpoint path set, the optimization state is written
//! atomically (CRC-framed) after every epoch, and a run started against an
//! existing checkpoint resumes from it. Resume replays nothing: completed
//! epochs are skipped and training continues from the stored parameters,
//! momentum and LR schedule. For a model whose loss is a pure function of
//! the store and the step this makes a resumed run byte-identical to an
//! uninterrupted one; state outside the store (BatchNorm running
//! statistics, Gumbel noise streams) resumes correctly but does not replay
//! the uninterrupted trajectory. A corrupt, truncated or stale checkpoint
//! is discarded and the run starts fresh, which with seeded models
//! reproduces the uninterrupted run exactly.

use crate::graph::{ParamStore, Tape, Var};
use crate::optim::Sgd;
use defcon_support::error::DefconError;
use defcon_support::json::{Json, JsonError};
use defcon_support::obs::{self, Span};
use defcon_support::{ckpt, fault};
use std::ops::Range;
use std::path::PathBuf;

/// Robustness knobs of a guarded training [`Loop`].
#[derive(Clone, Debug)]
pub struct RobustConfig {
    /// Where to checkpoint after every epoch (atomic write + CRC). `None`
    /// disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Extra attempts per step after a non-finite loss or gradient, before
    /// [`DefconError::RetriesExhausted`].
    pub max_step_retries: usize,
    /// LR backoff factor in `(0, 1]`, applied via [`Sgd::backoff`] on every
    /// rollback.
    pub lr_backoff: f32,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            checkpoint: None,
            max_step_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// One guarded training run: the optimizer, the per-epoch loss history
/// and the last step's loss, checkpointed together after every epoch.
///
/// A caller's fault points and trace names hang off its `scope`: the loss
/// fault point `{scope}.loss` and the `{scope}.rollback` and
/// `{scope}.checkpoint` events.
pub struct Loop<'a> {
    robust: &'a RobustConfig,
    scope: &'static str,
    grad_fault: &'static str,
    steps_per_epoch: usize,
    opt: Sgd,
    /// Mean step loss of every completed epoch.
    pub history: Vec<f32>,
    /// Loss of the last step run with `records_final` (NaN until then).
    pub final_loss: f32,
}

impl<'a> Loop<'a> {
    /// Starts a run of `steps_per_epoch` steps per epoch under `scope`,
    /// with `grad_fault` as its gradient fault point, resuming from
    /// `robust.checkpoint` when one is present and intact.
    ///
    /// Rejects a zero `steps_per_epoch` and an `lr_backoff` outside
    /// `(0, 1]` with [`DefconError::Constraint`] before any step runs.
    pub fn new(
        robust: &'a RobustConfig,
        scope: &'static str,
        grad_fault: &'static str,
        steps_per_epoch: usize,
        opt: Sgd,
        store: &mut ParamStore,
    ) -> Result<Self, DefconError> {
        let invalid = |detail: String| DefconError::Constraint {
            what: "train-config".into(),
            detail,
        };
        if steps_per_epoch == 0 {
            return Err(invalid(format!(
                "{scope}: an epoch needs at least one step (no data or a zero batch size)"
            )));
        }
        if !(robust.lr_backoff > 0.0 && robust.lr_backoff <= 1.0) {
            return Err(invalid(format!(
                "{scope}: lr_backoff must be in (0, 1], got {}",
                robust.lr_backoff
            )));
        }
        let mut run = Loop {
            robust,
            scope,
            grad_fault,
            steps_per_epoch,
            opt,
            history: Vec::new(),
            final_loss: f32::NAN,
        };
        if let Some(path) = &robust.checkpoint {
            if let Some(payload) = ckpt::load_or_discard(path)? {
                let pre = store.snapshot();
                // A CRC-valid but stale checkpoint (another model, another
                // schema) degrades to a fresh start; the store must not
                // keep a partial load.
                if run.resume(&payload, store).is_err() {
                    store.restore(&pre);
                }
            }
        }
        Ok(run)
    }

    /// Runs the epochs of `epochs` that no checkpoint has completed. Each
    /// runs inside the span `epoch_span(epoch)` (which gets the epoch's
    /// mean loss recorded as `loss`), then the checkpoint is written.
    ///
    /// `step(tape, store, epoch, i)` records the forward pass of step `i`
    /// and returns the objective to differentiate, the loss value the
    /// guard checks and averages, and a hook that runs once the step
    /// commits. With `records_final`, every committed loss becomes
    /// [`Loop::final_loss`].
    pub fn epochs<S, C>(
        &mut self,
        store: &mut ParamStore,
        epochs: Range<usize>,
        records_final: bool,
        epoch_span: impl Fn(usize) -> Span,
        mut step: S,
    ) -> Result<(), DefconError>
    where
        S: FnMut(&mut Tape, &ParamStore, usize, usize) -> (Var, f32, C),
        C: FnOnce(),
    {
        for epoch in epochs {
            if self.history.len() > epoch {
                continue; // resumed past this epoch
            }
            let span = epoch_span(epoch);
            let mut epoch_loss = 0.0f32;
            for i in 0..self.steps_per_epoch {
                let loss = self.guarded_step(store, epoch, i, &mut step)?;
                if records_final {
                    self.final_loss = loss;
                }
                epoch_loss += loss;
            }
            let mean_loss = epoch_loss / self.steps_per_epoch as f32;
            span.record("loss", Json::from(mean_loss as f64));
            drop(span);
            self.history.push(mean_loss);
            self.save(store)?;
        }
        Ok(())
    }

    /// One guarded optimization step; returns the committed loss value.
    fn guarded_step<S, C>(
        &mut self,
        store: &mut ParamStore,
        epoch: usize,
        i: usize,
        step: &mut S,
    ) -> Result<f32, DefconError>
    where
        S: FnMut(&mut Tape, &ParamStore, usize, usize) -> (Var, f32, C),
        C: FnOnce(),
    {
        let robust = self.robust;
        let loss_fault = format!("{}.loss", self.scope);
        for attempt in 0..=robust.max_step_retries {
            let snap = store.snapshot();
            store.zero_grads();
            let mut tape = Tape::new();
            let (objective, mut loss, commit) = step(&mut tape, store, epoch, i);
            fault::nonfinite_f32(&loss_fault, &mut loss);
            if loss.is_finite() {
                tape.backward(objective);
                tape.write_param_grads(store);
                if fault::fires(self.grad_fault) && !store.is_empty() {
                    // Inject an exploded gradient for the guard to catch.
                    let id = store.param_id(0);
                    let poisoned = store.value(id).scale(f32::NAN);
                    store.accumulate_grad(id, &poisoned);
                }
                if store.grads_finite() {
                    self.opt.step(store);
                    commit();
                    return Ok(loss);
                }
            }
            // The step diverged: roll back parameters and momentum, gear
            // the LR down, retry the same mini-batch.
            store.restore(&snap);
            self.opt.backoff(robust.lr_backoff);
            obs::event_with(&format!("{}.rollback", self.scope), || {
                vec![
                    ("epoch", Json::from(epoch)),
                    ("step", Json::from(i)),
                    ("attempt", Json::from(attempt)),
                    ("lr_backoff", Json::from(robust.lr_backoff as f64)),
                ]
            });
        }
        Err(DefconError::RetriesExhausted {
            what: format!(
                "{} step {i} of epoch {epoch} (non-finite loss/gradient)",
                self.scope
            ),
            attempts: robust.max_step_retries + 1,
        })
    }

    /// Writes the post-epoch checkpoint when checkpointing is enabled.
    fn save(&self, store: &ParamStore) -> Result<(), DefconError> {
        let Some(path) = &self.robust.checkpoint else {
            return Ok(());
        };
        let doc = Json::obj(vec![
            ("epochs_done", Json::from(self.history.len())),
            (
                "final_loss",
                if self.final_loss.is_finite() {
                    Json::from(self.final_loss as f64)
                } else {
                    Json::Null
                },
            ),
            (
                "loss_history",
                Json::Arr(self.history.iter().map(|&v| Json::from(v as f64)).collect()),
            ),
            ("opt_steps", Json::from(self.opt.steps())),
            ("opt_lr_scale", Json::from(self.opt.lr_scale() as f64)),
            ("params", store.state_to_json()),
        ]);
        ckpt::save(path, &doc.to_string())?;
        obs::event_with(&format!("{}.checkpoint", self.scope), || {
            vec![("epochs_done", Json::from(self.history.len()))]
        });
        Ok(())
    }

    /// Adopts a CRC-valid checkpoint payload, loading its parameter state
    /// into `store` last. On error `self` is untouched, but the caller
    /// must restore `store` from a pre-parse snapshot (the load may have
    /// been partial).
    fn resume(&mut self, payload: &str, store: &mut ParamStore) -> Result<(), JsonError> {
        let doc = Json::parse(payload)?;
        let final_loss = match doc.field("final_loss")? {
            Json::Null => f32::NAN,
            _ => doc.num_field("final_loss")? as f32,
        };
        let history: Vec<f32> = doc
            .field("loss_history")?
            .as_arr()
            .and_then(|h| h.iter().map(|v| v.as_f64().map(|v| v as f32)).collect())
            .ok_or_else(|| JsonError::msg("loss_history must be an array of numbers"))?;
        if history.len() != doc.usize_field("epochs_done")? {
            return Err(JsonError::msg("epochs_done disagrees with loss_history"));
        }
        let opt_steps = doc.usize_field("opt_steps")?;
        let opt_lr_scale = doc.num_field("opt_lr_scale")? as f32;
        store.load_state_json(doc.field("params")?)?;
        self.history = history;
        self.final_loss = final_loss;
        self.opt.restore_schedule(opt_steps, opt_lr_scale);
        Ok(())
    }
}
