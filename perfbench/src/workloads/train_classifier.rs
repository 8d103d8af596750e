//! `train_classifier`: the light-curve feature classifier
//! (Linear→ReLU→2×Highway→Linear, hidden 100, batch 64, `threads = 1`) on
//! about 4000 single-epoch feature rows.
//!
//! The same `nn` / `optim` / training-loop layers as `train_flux`, on tiny
//! dense shapes where per-call overhead, allocation and small GEMMs
//! dominate. Conv, render and the data-parallel executor do no work here.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use snia_core::classifier::LightCurveClassifier;
use snia_core::parallel::{BatchExecutor, ShardStats};
use snia_core::train::{feature_matrix, train_classifier, ClassifierTrainConfig};
use snia_dataset::{Dataset, DatasetConfig, EPOCHS_PER_BAND};
use snia_nn::loss::{bce_with_logits, sigmoid_probs};
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::{Mode, Tensor};

use crate::mirror::{param_bits, Arch, Mirror};
use crate::report::RunResult;
use crate::trace::Tracer;

use super::training::{
    check_mirror, layer_table, timed_reps, traced_epochs, Trained, VALIDATION_STEPS,
};
use super::{derive, repeated_setup, RunSpec};

/// Samples whose feature rows are trained on (four rows each).
pub const TRAIN_SAMPLES: usize = 1000;
/// Samples whose feature rows are validated on.
pub const VAL_SAMPLES: usize = 200;
/// Hidden width (Fig. 9: 100 units suffice).
pub const HIDDEN: usize = 100;
/// Minibatch size.
pub const BATCH: usize = 64;
/// Epochs per timed repetition.
pub const EPOCHS: usize = 2;

struct Setup {
    x: Tensor,
    t: Tensor,
    xv: Tensor,
    tv: Tensor,
    model_seed: u64,
    cfg: ClassifierTrainConfig,
}

fn setup(seed: u64) -> Setup {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: TRAIN_SAMPLES + VAL_SAMPLES,
        catalog_size: 1000,
        seed: derive(seed, 11),
    });
    let train_idx: Vec<usize> = (0..TRAIN_SAMPLES).collect();
    let val_idx: Vec<usize> = (TRAIN_SAMPLES..TRAIN_SAMPLES + VAL_SAMPLES).collect();
    let (x, t, _) = feature_matrix(&ds, &train_idx, 1);
    let (xv, tv, _) = feature_matrix(&ds, &val_idx, 1);
    let s = Setup {
        x,
        t,
        xv,
        tv,
        model_seed: derive(seed, 12),
        cfg: ClassifierTrainConfig {
            epochs: EPOCHS,
            batch_size: BATCH,
            lr: 3e-3,
            seed: derive(seed, 13),
            threads: 1,
        },
    };
    // Model init and warm-up: one epoch before timing starts.
    s.program_run(&ClassifierTrainConfig { epochs: 1, ..s.cfg });
    s
}

fn rows_of(x: &Tensor, idx: &[usize]) -> Tensor {
    let d = x.shape()[1];
    let mut data = Vec::with_capacity(idx.len() * d);
    for &i in idx {
        data.extend_from_slice(&x.data()[i * d..(i + 1) * d]);
    }
    Tensor::from_vec(vec![idx.len(), d], data)
}

impl Setup {
    fn rows(&self) -> usize {
        self.x.shape()[0]
    }

    /// `train_classifier`, returning `[train_loss, val_loss, train_acc,
    /// val_acc]` of every epoch, the final parameters and the wall time.
    fn program_run(&self, cfg: &ClassifierTrainConfig) -> Trained {
        let mut clf = self.model();
        let t0 = Instant::now();
        let history = train_classifier(&mut clf, (&self.x, &self.t), (&self.xv, &self.tv), cfg);
        let secs = t0.elapsed().as_secs_f64();
        let record = history
            .iter()
            .flat_map(|r| [r.train_loss, r.val_loss, r.train_acc, r.val_acc])
            .collect();
        (record, param_bits(clf.params()), secs)
    }

    fn model(&self) -> LightCurveClassifier {
        LightCurveClassifier::new(1, HIDDEN, &mut StdRng::seed_from_u64(self.model_seed))
    }

    fn mirror(&self) -> Mirror {
        Mirror::seeded(
            Arch::Classifier {
                epochs: 1,
                hidden: HIDDEN,
            },
            self.model_seed,
        )
    }

    /// [`mirror_epochs`] from a fresh mirror, timed.
    fn mirror_run(
        &self,
        cfg: &ClassifierTrainConfig,
        tracer: &Tracer,
        next_step: &mut u64,
    ) -> Trained {
        let mut m = self.mirror();
        let t0 = Instant::now();
        let record = mirror_epochs(self, &mut m, cfg, tracer, next_step);
        let secs = t0.elapsed().as_secs_f64();
        (record, param_bits(m.params()), secs)
    }
}

/// BCE loss and 0.5-threshold accuracy, as `classifier_loss_acc`.
fn loss_acc(m: &mut Mirror, x: &Tensor, t: &Tensor) -> (f64, f64) {
    let y = m.forward(x, Mode::Eval, &Tracer::new(false), 0, 0);
    let (loss, _) = bce_with_logits(&y, t);
    let correct = sigmoid_probs(&y)
        .data()
        .iter()
        .zip(t.data())
        .filter(|(&p, &tv)| (p >= 0.5) == (tv >= 0.5))
        .count();
    (f64::from(loss), correct as f64 / t.len() as f64)
}

/// The program's classifier training loop rebuilt from public pieces, one
/// span per call. Returns what [`Setup::program_run`] returns for the
/// history.
fn mirror_epochs(
    s: &Setup,
    m: &mut Mirror,
    cfg: &ClassifierTrainConfig,
    tracer: &Tracer,
    next_step: &mut u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut exec = BatchExecutor::new(&*m, cfg.threads);
    let mut record = Vec::new();
    for epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..s.rows()).collect();
        order.shuffle(&mut rng);
        let (mut loss_sum, mut batches) = (0.0f64, 0usize);
        for chunk in order.chunks(cfg.batch_size) {
            let step = *next_step;
            *next_step += 1;
            let stats = tracer.span("train.step", 0, step, |sid| {
                let stats = tracer.span("parallel.step", sid, step, |pid| {
                    exec.step(m, chunk.len(), |model, range, scale| {
                        tracer.span("parallel.shard", pid, step, |shid| {
                            let idx = &chunk[range];
                            let (xb, tb) = (rows_of(&s.x, idx), rows_of(&s.t, idx));
                            let y = model.forward(&xb, Mode::Train, tracer, shid, step);
                            let (loss, grad) = tracer.span("nn.loss", shid, step, |_| {
                                let (loss, mut grad) = bce_with_logits(&y, &tb);
                                if scale != 1.0 {
                                    grad = &grad * scale;
                                }
                                (loss, grad)
                            });
                            model.backward(&grad, tracer, shid, step);
                            ShardStats::regression(f64::from(loss), idx.len())
                        })
                    })
                });
                tracer.span("optim.adam", sid, step, |_| opt.step(&mut m.params_mut()));
                stats
            });
            loss_sum += stats.loss;
            batches += 1;
        }
        let ((val_loss, val_acc), (_, train_acc)) =
            tracer.span("train.val", 0, VALIDATION_STEPS + epoch as u64, |_| {
                (loss_acc(m, &s.xv, &s.tv), loss_acc(m, &s.x, &s.t))
            });
        record.extend([loss_sum / batches as f64, val_loss, train_acc, val_acc]);
    }
    record
}

/// Runs the workload.
pub fn run(spec: &RunSpec, result: &mut RunResult) {
    let (s, setup_times) = repeated_setup(spec, || setup(spec.seed));
    result.set_median("setup_s", &setup_times);
    assert_eq!(
        s.rows(),
        TRAIN_SAMPLES * EPOCHS_PER_BAND,
        "one row per sample epoch"
    );
    let steps_per_epoch = s.rows().div_ceil(BATCH);
    if spec.trace {
        traced(spec, &s, result);
    } else {
        timed_reps(
            spec,
            result,
            EPOCHS * s.rows(),
            EPOCHS * steps_per_epoch,
            || s.program_run(&s.cfg),
        );
    }
    // The workload already runs at threads 1: one traced mirror run must
    // reproduce the program's history and final parameters exactly.
    check_mirror(
        result,
        "train_classifier",
        param_bits(s.model().params()) == param_bits(s.mirror().params()),
        &s.program_run(&s.cfg),
        &s.mirror_run(&s.cfg, &Tracer::new(true), &mut 0),
    );
}

/// The traced run: untraced `train_classifier` epochs alternating with
/// traced mirror epochs.
fn traced(spec: &RunSpec, s: &Setup, result: &mut RunResult) {
    let cfg = ClassifierTrainConfig { epochs: 1, ..s.cfg };
    let spans = traced_epochs(
        spec,
        result,
        "train_classifier",
        || s.program_run(&cfg),
        |tracer, next_step| s.mirror_run(&cfg, tracer, next_step),
    );
    layer_table(result, &spans, None);
}
