//! Parametric ReLU (He et al. 2015), used after every convolution in the
//! paper's band-wise CNN.

use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;

/// Parametric ReLU: `y = x` for `x > 0`, `y = a·x` otherwise, with a
/// learnable slope `a`.
///
/// The slope is either shared (`PRelu::shared`) or per-channel
/// (`PRelu::channelwise`). For 4-D inputs `(N, C, H, W)` the channel axis is
/// axis 1; for 2-D inputs `(N, F)` the feature axis is axis 1.
#[derive(Debug)]
pub struct PRelu {
    alpha: Param,
    cache_input: Option<Tensor>,
}

impl PRelu {
    /// A single slope shared across all channels, initialised to 0.25
    /// (the value from He et al. 2015).
    pub fn shared() -> Self {
        PRelu {
            alpha: Param::new("alpha", Tensor::full(vec![1], 0.25)),
            cache_input: None,
        }
    }

    /// One slope per channel (axis 1), each initialised to 0.25.
    pub fn channelwise(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        PRelu {
            alpha: Param::new("alpha", Tensor::full(vec![channels], 0.25)),
            cache_input: None,
        }
    }

    /// Length of the contiguous run of elements that share one slope:
    /// the whole tensor for a shared slope, otherwise the product of the
    /// dims after the channel axis (1 for `(N, F)` input). Runs cycle
    /// through the slopes in channel order.
    fn run_len(&self, shape: &[usize]) -> usize {
        if self.alpha.value.len() == 1 {
            shape.iter().product::<usize>().max(1)
        } else {
            shape[2..].iter().product::<usize>().max(1)
        }
    }
}

impl Layer for PRelu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if self.alpha.value.len() > 1 {
            assert!(
                input.ndim() >= 2 && input.shape()[1] == self.alpha.value.len(),
                "channelwise PRelu with {} slopes got input shape {:?}",
                self.alpha.value.len(),
                input.shape()
            );
        }
        if mode == Mode::Train {
            self.cache_input = Some(input.clone());
        }
        let run = self.run_len(input.shape());
        let mut out = Tensor::zeros(input.shape().to_vec());
        let runs = out.data_mut().chunks_mut(run).zip(input.data().chunks(run));
        for ((ys, xs), &a) in runs.zip(self.alpha.value.data().iter().cycle()) {
            for (y, &x) in ys.iter_mut().zip(xs) {
                *y = if x > 0.0 { x } else { a * x };
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cache_input
            .take()
            .expect("PRelu::backward called without a training forward pass");
        let run = self.run_len(input.shape());
        let alpha = self.alpha.value.data();
        let mut grad_alpha = vec![0.0f32; alpha.len()];
        let mut grad_in = Tensor::zeros(input.shape().to_vec());
        let runs = grad_in
            .data_mut()
            .chunks_mut(run)
            .zip(input.data().chunks(run))
            .zip(grad_output.data().chunks(run));
        for (((gis, xs), gs), c) in runs.zip((0..alpha.len()).cycle()) {
            let a = alpha[c];
            for ((gi, &x), &g) in gis.iter_mut().zip(xs).zip(gs) {
                *gi = if x > 0.0 { g } else { g * a };
            }
            // Each slope's gradient sums its elements in ascending flat
            // order, run by run, as one element-order pass would. Adding
            // +0.0 for a positive input changes nothing: the sum starts at
            // +0.0, so it can never become −0.0.
            grad_alpha[c] = xs.iter().zip(gs).fold(grad_alpha[c], |ga, (&x, &g)| {
                ga + if x > 0.0 { 0.0 } else { g * x }
            });
        }
        self.alpha
            .grad
            .add_scaled(&Tensor::from_vec(vec![alpha.len()], grad_alpha), 1.0);
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.alpha]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.alpha]
    }

    fn name(&self) -> &'static str {
        "PRelu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shared_forward_known_values() {
        let mut p = PRelu::shared();
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        let y = p.forward(&x.reshape(vec![1, 3]), Mode::Eval);
        assert_eq!(y.data(), &[-0.5, 0.0, 3.0]);
    }

    #[test]
    fn channelwise_uses_one_slope_per_channel() {
        let mut p = PRelu::channelwise(2);
        p.params_mut()[0]
            .value
            .data_mut()
            .copy_from_slice(&[0.1, 0.5]);
        // (N=1, C=2, H=1, W=2)
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![-1.0, 1.0, -1.0, 1.0]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[-0.1, 1.0, -0.5, 1.0]);
    }

    #[test]
    fn shared_gradcheck() {
        let mut rng = StdRng::seed_from_u64(20);
        let x = init::randn_tensor(&mut rng, vec![3, 4], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(PRelu::shared()), &x, 1e-3, 2e-2);
    }

    #[test]
    fn shared_gradcheck_on_conv_input() {
        // The channel-shared slope must also accumulate correctly over
        // 4-D (N,C,H,W) activations, where one scalar sees every element.
        let mut rng = StdRng::seed_from_u64(22);
        let x = init::randn_tensor(&mut rng, vec![2, 3, 2, 2], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(PRelu::shared()), &x, 1e-3, 2e-2);
    }

    #[test]
    fn channelwise_gradcheck() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = init::randn_tensor(&mut rng, vec![2, 3, 2, 2], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(PRelu::channelwise(3)), &x, 1e-3, 2e-2);
    }

    #[test]
    #[should_panic(expected = "channelwise PRelu")]
    fn channel_mismatch_panics() {
        let mut p = PRelu::channelwise(3);
        p.forward(&Tensor::zeros(vec![1, 2, 4, 4]), Mode::Eval);
    }
}
