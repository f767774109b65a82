//! Batch normalization (2-D, per channel) with full training-mode gradients.

use crate::Tensor;

/// Saved forward statistics needed by [`batch_norm2d_backward`].
#[derive(Clone, Debug)]
pub struct BnCache {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel inverse standard deviation `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Normalized activations `x_hat` (same shape as the input).
    pub x_hat: Tensor,
}

/// Training-mode batch norm over `[N, C, H, W]`:
/// `y = gamma * (x - mean_c) / sqrt(var_c + eps) + beta`.
///
/// Returns the output and the cache for backward. `running_mean/var` are
/// updated in place with `momentum` (PyTorch convention:
/// `running = (1 - momentum) * running + momentum * batch`).
#[allow(clippy::too_many_arguments)]
pub fn batch_norm2d_train(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &mut [f32],
    running_var: &mut [f32],
    momentum: f32,
    eps: f32,
) -> (Tensor, BnCache) {
    let (n, c, h, w) = x.shape().nchw();
    assert_eq!(gamma.numel(), c);
    assert_eq!(beta.numel(), c);
    let m = (n * h * w) as f32;

    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for ni in 0..n {
        for (ci, mu) in mean.iter_mut().enumerate() {
            let base = x.shape().offset4(ni, ci, 0, 0);
            *mu += x.data()[base..base + h * w].iter().sum::<f32>();
        }
    }
    for mu in &mut mean {
        *mu /= m;
    }
    for ni in 0..n {
        for ci in 0..c {
            let base = x.shape().offset4(ni, ci, 0, 0);
            var[ci] += x.data()[base..base + h * w]
                .iter()
                .map(|v| (v - mean[ci]).powi(2))
                .sum::<f32>();
        }
    }
    for v in &mut var {
        *v /= m;
    }

    for ci in 0..c {
        running_mean[ci] = (1.0 - momentum) * running_mean[ci] + momentum * mean[ci];
        running_var[ci] = (1.0 - momentum) * running_var[ci] + momentum * var[ci];
    }

    let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let mut x_hat = Tensor::zeros(x.dims());
    let mut y = Tensor::zeros(x.dims());
    for ni in 0..n {
        for ci in 0..c {
            let base = x.shape().offset4(ni, ci, 0, 0);
            let (g, b, mu, is) = (gamma.data()[ci], beta.data()[ci], mean[ci], inv_std[ci]);
            for i in base..base + h * w {
                let xh = (x.data()[i] - mu) * is;
                x_hat.data_mut()[i] = xh;
                y.data_mut()[i] = g * xh + b;
            }
        }
    }
    (
        y,
        BnCache {
            mean,
            inv_std,
            x_hat,
        },
    )
}

/// Inference-mode batch norm using running statistics.
pub fn batch_norm2d_infer(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
    eps: f32,
) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let mut y = Tensor::zeros(x.dims());
    for ni in 0..n {
        for ci in 0..c {
            let base = x.shape().offset4(ni, ci, 0, 0);
            let is = 1.0 / (running_var[ci] + eps).sqrt();
            let (g, b, mu) = (gamma.data()[ci], beta.data()[ci], running_mean[ci]);
            for i in base..base + h * w {
                y.data_mut()[i] = g * (x.data()[i] - mu) * is + b;
            }
        }
    }
    y
}

/// Gradients of training-mode batch norm: `(grad_x, grad_gamma, grad_beta)`.
///
/// Uses the standard closed form:
/// `dx = (gamma * inv_std / m) * (m*dy - sum(dy) - x_hat * sum(dy * x_hat))`.
pub fn batch_norm2d_backward(
    gy: &Tensor,
    gamma: &Tensor,
    cache: &BnCache,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = gy.shape().nchw();
    let m = (n * h * w) as f32;
    let mut sum_dy = vec![0.0f32; c];
    let mut sum_dy_xhat = vec![0.0f32; c];
    for ni in 0..n {
        for ci in 0..c {
            let base = gy.shape().offset4(ni, ci, 0, 0);
            for i in base..base + h * w {
                sum_dy[ci] += gy.data()[i];
                sum_dy_xhat[ci] += gy.data()[i] * cache.x_hat.data()[i];
            }
        }
    }
    let mut gx = Tensor::zeros(gy.dims());
    for ni in 0..n {
        for ci in 0..c {
            let base = gy.shape().offset4(ni, ci, 0, 0);
            let coeff = gamma.data()[ci] * cache.inv_std[ci] / m;
            for i in base..base + h * w {
                gx.data_mut()[i] = coeff
                    * (m * gy.data()[i] - sum_dy[ci] - cache.x_hat.data()[i] * sum_dy_xhat[ci]);
            }
        }
    }
    let g_gamma = Tensor::from_vec(sum_dy_xhat, &[c]);
    let g_beta = Tensor::from_vec(sum_dy, &[c]);
    (gx, g_gamma, g_beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_normalizes_to_zero_mean_unit_var() {
        let x = Tensor::randn(&[4, 3, 5, 5], 3.0, 2.0, 21);
        let gamma = Tensor::ones(&[3]);
        let beta = Tensor::zeros(&[3]);
        let mut rm = vec![0.0; 3];
        let mut rv = vec![1.0; 3];
        let (y, _) = batch_norm2d_train(&x, &gamma, &beta, &mut rm, &mut rv, 0.1, 1e-5);
        // Per-channel mean ~0, var ~1.
        let (n, c, h, w) = y.shape().nchw();
        for ci in 0..c {
            let mut s = 0.0;
            let mut s2 = 0.0;
            for ni in 0..n {
                for yy in 0..h {
                    for xx in 0..w {
                        let v = y.at4(ni, ci, yy, xx);
                        s += v;
                        s2 += v * v;
                    }
                }
            }
            let m = (n * h * w) as f32;
            assert!((s / m).abs() < 1e-4);
            assert!((s2 / m - 1.0).abs() < 1e-3);
        }
        // Running stats moved toward batch stats.
        assert!((rm[0] - 0.1 * 3.0).abs() < 0.3);
    }

    #[test]
    fn infer_uses_running_stats() {
        let x = Tensor::full(&[1, 1, 2, 2], 10.0);
        let gamma = Tensor::full(&[1], 2.0);
        let beta = Tensor::full(&[1], 1.0);
        let y = batch_norm2d_infer(&x, &gamma, &beta, &[10.0], &[4.0], 0.0);
        // (10-10)/2 * 2 + 1 = 1
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let x = Tensor::randn(&[2, 2, 3, 3], 0.0, 1.0, 22);
        let gamma = Tensor::from_vec(vec![1.5, 0.7], &[2]);
        let beta = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        let loss = |x: &Tensor| {
            let mut rm = vec![0.0; 2];
            let mut rv = vec![1.0; 2];
            let (y, _) = batch_norm2d_train(x, &gamma, &beta, &mut rm, &mut rv, 0.1, 1e-5);
            // Weighted sum so gradient is non-trivial.
            y.data()
                .iter()
                .enumerate()
                .map(|(i, v)| v * ((i % 5) as f32 - 2.0))
                .sum::<f32>()
        };
        let mut rm = vec![0.0; 2];
        let mut rv = vec![1.0; 2];
        let (y, cache) = batch_norm2d_train(&x, &gamma, &beta, &mut rm, &mut rv, 0.1, 1e-5);
        let gy = Tensor::from_vec(
            (0..y.numel()).map(|i| (i % 5) as f32 - 2.0).collect(),
            y.dims(),
        );
        let (gx, g_gamma, g_beta) = batch_norm2d_backward(&gy, &gamma, &cache);
        assert_eq!(g_gamma.numel(), 2);
        assert_eq!(g_beta.numel(), 2);

        let eps = 1e-2;
        for &idx in &[0usize, 9, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 3e-2,
                "gx[{idx}]: fd {fd} vs analytic {}",
                gx.data()[idx]
            );
        }
    }
}
