//! Bench-local copies of the model stacks, with a span around every layer.
//!
//! [`Mirror`] builds the same layers, in the same order and from the same
//! RNG draws, as `FluxCnn::new`, `LightCurveClassifier::new` and
//! `JointModel::from_scratch`, so a mirror built from a seed holds
//! bit-identical weights to the model built from that seed. Its forward
//! and backward passes call each layer's public `Layer::forward` /
//! `Layer::backward` directly, which is what lets the traced run time
//! every layer without touching the program.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snia_core::parallel::Replica;
use snia_nn::layers::{
    BatchNorm2d, Conv2d, Flatten, Highway, Linear, MaxPool2d, PRelu, Padding, Relu,
};
use snia_nn::loss::sigmoid_probs;
use snia_nn::{Layer, Mode, Param, Tensor};

use crate::trace::Tracer;

/// Conv kernel size and channel progression of the flux CNN.
pub const KERNEL: usize = 5;
/// Output channels of conv1..conv3 (input channels: 1, 10, 20).
pub const CHANNELS: [usize; 3] = [10, 20, 30];

/// Floating-point operations of conv block `i` (0-based) in one forward
/// pass of one `crop × crop` image: `2 · Cout · Cin · K² · H · W`, with
/// `H = W = crop / 2^i` (same padding; each block pools by 2). The
/// backward pass costs twice this (weight and input gradients).
pub fn conv_forward_flops(i: usize, crop: usize) -> f64 {
    let cin = if i == 0 { 1 } else { CHANNELS[i - 1] };
    let side = crop >> i;
    2.0 * (CHANNELS[i] * cin * KERNEL * KERNEL * side * side) as f64
}

/// Span names of one layer: training forward, training backward and
/// evaluation forward.
#[derive(Debug, Clone, Copy)]
struct Names {
    fwd: &'static str,
    bwd: &'static str,
    eval: &'static str,
}

const fn n(fwd: &'static str, bwd: &'static str, eval: &'static str) -> Names {
    Names { fwd, bwd, eval }
}

const HEAD: Names = n("nn.head.fwd", "nn.head.bwd", "nn.eval.head.fwd");
const FLUX_NAMES: [Names; 18] = [
    n("nn.conv1.fwd", "nn.conv1.bwd", "nn.eval.conv1.fwd"),
    n("nn.bn1.fwd", "nn.bn1.bwd", "nn.eval.bn1.fwd"),
    n("nn.prelu1.fwd", "nn.prelu1.bwd", "nn.eval.prelu1.fwd"),
    n("nn.pool1.fwd", "nn.pool1.bwd", "nn.eval.pool1.fwd"),
    n("nn.conv2.fwd", "nn.conv2.bwd", "nn.eval.conv2.fwd"),
    n("nn.bn2.fwd", "nn.bn2.bwd", "nn.eval.bn2.fwd"),
    n("nn.prelu2.fwd", "nn.prelu2.bwd", "nn.eval.prelu2.fwd"),
    n("nn.pool2.fwd", "nn.pool2.bwd", "nn.eval.pool2.fwd"),
    n("nn.conv3.fwd", "nn.conv3.bwd", "nn.eval.conv3.fwd"),
    n("nn.bn3.fwd", "nn.bn3.bwd", "nn.eval.bn3.fwd"),
    n("nn.prelu3.fwd", "nn.prelu3.bwd", "nn.eval.prelu3.fwd"),
    n("nn.pool3.fwd", "nn.pool3.bwd", "nn.eval.pool3.fwd"),
    HEAD,
    HEAD,
    HEAD,
    HEAD,
    HEAD,
    HEAD,
];
const CLF_NAMES: [Names; 5] = [
    n("nn.clf.in.fwd", "nn.clf.in.bwd", "nn.eval.clf.fwd"),
    n("nn.clf.relu.fwd", "nn.clf.relu.bwd", "nn.eval.clf.fwd"),
    n("nn.clf.hw1.fwd", "nn.clf.hw1.bwd", "nn.eval.clf.fwd"),
    n("nn.clf.hw2.fwd", "nn.clf.hw2.bwd", "nn.eval.clf.fwd"),
    n("nn.clf.out.fwd", "nn.clf.out.bwd", "nn.eval.clf.fwd"),
];

/// Which model a mirror copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// `FluxCnn::new(crop, PoolKind::Max, rng)`.
    Flux {
        /// Input crop.
        crop: usize,
    },
    /// `LightCurveClassifier::new(epochs, hidden, rng)`.
    Classifier {
        /// Observation epochs (input width `10 · epochs`).
        epochs: usize,
        /// Hidden width.
        hidden: usize,
    },
    /// `JointModel::from_scratch(crop, hidden, rng)`.
    Joint {
        /// Input crop.
        crop: usize,
        /// Classifier hidden width.
        hidden: usize,
    },
}

/// A layer stack with a span name per layer.
#[derive(Debug)]
pub struct Mirror {
    arch: Arch,
    layers: Vec<Box<dyn Layer>>,
    names: Vec<Names>,
    /// Layers `0..split` form the band CNN of a joint model.
    split: usize,
}

fn push_flux<R: Rng + ?Sized>(crop: usize, rng: &mut R, m: &mut Mirror) {
    let spatial = crop / 8;
    let mut in_ch = 1;
    for &out_ch in &CHANNELS {
        m.layers.push(Box::new(Conv2d::new(
            in_ch,
            out_ch,
            KERNEL,
            Padding::Same,
            rng,
        )));
        m.layers.push(Box::new(BatchNorm2d::new(out_ch)));
        m.layers.push(Box::new(PRelu::channelwise(out_ch)));
        m.layers.push(Box::new(MaxPool2d::new(2)));
        in_ch = out_ch;
    }
    m.layers.push(Box::new(Flatten::new()));
    m.layers.push(Box::new(Linear::new(
        CHANNELS[2] * spatial * spatial,
        64,
        rng,
    )));
    m.layers.push(Box::new(PRelu::shared()));
    m.layers.push(Box::new(Linear::new(64, 32, rng)));
    m.layers.push(Box::new(PRelu::shared()));
    m.layers.push(Box::new(Linear::new(32, 1, rng)));
    m.names.extend(FLUX_NAMES);
}

fn push_classifier<R: Rng + ?Sized>(epochs: usize, hidden: usize, rng: &mut R, m: &mut Mirror) {
    m.layers
        .push(Box::new(Linear::new(10 * epochs, hidden, rng)));
    m.layers.push(Box::new(Relu::new()));
    m.layers.push(Box::new(Highway::new(hidden, rng)));
    m.layers.push(Box::new(Highway::new(hidden, rng)));
    m.layers.push(Box::new(Linear::new(hidden, 1, rng)));
    m.names.extend(CLF_NAMES);
}

impl Mirror {
    /// Builds `arch` drawing initial weights from
    /// `StdRng::seed_from_u64(seed)`, exactly as the program's constructor
    /// does with that RNG.
    pub fn seeded(arch: Arch, seed: u64) -> Mirror {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut m = Mirror {
            arch,
            layers: Vec::new(),
            names: Vec::new(),
            split: 0,
        };
        match arch {
            Arch::Flux { crop } => push_flux(crop, rng, &mut m),
            Arch::Classifier { epochs, hidden } => push_classifier(epochs, hidden, rng, &mut m),
            Arch::Joint { crop, hidden } => {
                push_flux(crop, rng, &mut m);
                m.split = m.layers.len();
                push_classifier(1, hidden, rng, &mut m);
            }
        }
        m
    }

    fn forward_range(
        &mut self,
        range: std::ops::Range<usize>,
        x: &Tensor,
        mode: Mode,
        tracer: &Tracer,
        parent: u64,
        step: u64,
    ) -> Tensor {
        let mut x = x.clone();
        for i in range {
            let name = match mode {
                Mode::Train => self.names[i].fwd,
                Mode::Eval => self.names[i].eval,
            };
            let layer = &mut self.layers[i];
            x = tracer.span(name, parent, step, |_| layer.forward(&x, mode));
        }
        x
    }

    /// Forward pass of a flux-CNN or classifier mirror, one span per layer.
    ///
    /// # Panics
    ///
    /// Panics on a joint mirror (use [`Mirror::forward_joint`]).
    pub fn forward(
        &mut self,
        x: &Tensor,
        mode: Mode,
        tracer: &Tracer,
        parent: u64,
        step: u64,
    ) -> Tensor {
        assert!(
            !matches!(self.arch, Arch::Joint { .. }),
            "joint mirrors take images and dates"
        );
        self.forward_range(0..self.layers.len(), x, mode, tracer, parent, step)
    }

    /// Backward pass, one span per layer, in reverse order.
    pub fn backward(&mut self, grad: &Tensor, tracer: &Tracer, parent: u64, step: u64) -> Tensor {
        let mut g = grad.clone();
        for i in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[i];
            g = tracer.span(self.names[i].bwd, parent, step, |_| layer.backward(&g));
        }
        g
    }

    /// Evaluation-mode joint forward: `(5N, 1, S, S)` images and `(N, 5)`
    /// dates to `N` SNIa probabilities, as `ServedModel::score_batch`
    /// computes them.
    ///
    /// # Panics
    ///
    /// Panics unless this is a joint mirror.
    pub fn forward_joint(
        &mut self,
        images: &Tensor,
        dates: &Tensor,
        tracer: &Tracer,
        step: u64,
    ) -> Vec<f64> {
        assert!(
            matches!(self.arch, Arch::Joint { .. }),
            "not a joint mirror"
        );
        let n = dates.shape()[0];
        let mags = self.forward_range(0..self.split, images, Mode::Eval, tracer, 0, step);
        let features = Tensor::concat_cols(&[&mags.reshape(vec![n, 5]), dates]);
        let logits = self.forward_range(
            self.split..self.layers.len(),
            &features,
            Mode::Eval,
            tracer,
            0,
            step,
        );
        sigmoid_probs(&logits)
            .data()
            .iter()
            .map(|&p| f64::from(p))
            .collect()
    }

    /// All learnable parameters, in layer order (the order the program's
    /// `params` returns).
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

impl Replica for Mirror {
    fn replicate(&self) -> Self {
        Mirror::seeded(self.arch, 0)
    }
    fn params(&self) -> Vec<&Param> {
        Mirror::params(self)
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Mirror::params_mut(self)
    }
    fn zero_grad(&mut self) {
        for p in Mirror::params_mut(self) {
            p.zero_grad();
        }
    }
}

/// Bit patterns of every parameter value, for exact comparisons.
pub fn param_bits<'a>(params: impl IntoIterator<Item = &'a Param>) -> Vec<u32> {
    params
        .into_iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_core::classifier::LightCurveClassifier;
    use snia_core::flux_cnn::{FluxCnn, PoolKind};
    use snia_core::joint::JointModel;

    #[test]
    fn mirrors_hold_the_programs_initial_weights() {
        let seed = 5;
        let cnn = FluxCnn::new(36, PoolKind::Max, &mut StdRng::seed_from_u64(seed));
        let m = Mirror::seeded(Arch::Flux { crop: 36 }, seed);
        assert_eq!(param_bits(cnn.params()), param_bits(m.params()));

        let clf = LightCurveClassifier::new(1, 16, &mut StdRng::seed_from_u64(seed));
        let m = Mirror::seeded(
            Arch::Classifier {
                epochs: 1,
                hidden: 16,
            },
            seed,
        );
        assert_eq!(param_bits(clf.params()), param_bits(m.params()));

        let jm = JointModel::from_scratch(36, 16, &mut StdRng::seed_from_u64(seed));
        let m = Mirror::seeded(
            Arch::Joint {
                crop: 36,
                hidden: 16,
            },
            seed,
        );
        assert_eq!(param_bits(jm.params()), param_bits(m.params()));
    }

    #[test]
    fn conv_operation_counts() {
        assert_eq!(conv_forward_flops(0, 60), 1_800_000.0);
        assert_eq!(conv_forward_flops(1, 60), 9_000_000.0);
        assert_eq!(conv_forward_flops(2, 60), 6_750_000.0);
    }

    #[test]
    fn traced_forward_records_one_span_per_layer() {
        let mut m = Mirror::seeded(Arch::Flux { crop: 36 }, 1);
        let tracer = Tracer::new(true);
        let x = Tensor::zeros(vec![2, 1, 36, 36]);
        let y = m.forward(&x, Mode::Train, &tracer, 0, 0);
        m.backward(&Tensor::ones(y.shape().to_vec()), &tracer, 0, 0);
        let spans = tracer.take();
        assert_eq!(spans.len(), 36);
        assert_eq!(spans.iter().filter(|s| s.name == "nn.head.fwd").count(), 6);
    }
}
