//! `train_flux`: flux-CNN training, the step that limits Table 1 and
//! Fig. 8.
//!
//! `FluxCnn` at crop 60, batch 32, D4 augmentation, render cache off,
//! `threads = nproc`, over a fixed seeded pair set. Each timed repetition
//! trains a freshly initialised model through `train_flux_cnn` for
//! [`EPOCHS`] epochs (per-epoch validation included).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::input::{d4_transform, mag_to_target};
use snia_core::parallel::{BatchExecutor, ShardStats};
use snia_core::train::{flux_pair_refs, train_flux_cnn, FluxTrainConfig};
use snia_dataset::{cache, Dataset, DatasetConfig};
use snia_nn::loss::mse_loss;
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::{Mode, Tensor};

use crate::mirror::{conv_forward_flops, param_bits, Arch, Mirror};
use crate::report::RunResult;
use crate::trace::Tracer;

use super::training::{
    check_mirror, layer_table, timed_reps, traced_epochs, Trained, VALIDATION_STEPS,
};
use super::{derive, repeated_setup, RunSpec};

/// Input crop (the paper's best, Table 1).
pub const CROP: usize = 60;
/// Minibatch size.
pub const BATCH: usize = 32;
/// Samples whose pairs are trained on. Rendering cost differs between
/// samples, so one pair from each of many samples keeps the per-seed
/// average cost steady.
pub const TRAIN_SAMPLES: usize = 160;
/// Samples whose pairs are validated on.
pub const VAL_SAMPLES: usize = 32;
/// Observation pairs per sample.
pub const PAIRS_PER_SAMPLE: usize = 1;
/// Epochs per timed repetition.
pub const EPOCHS: usize = 2;
/// Training pairs in the threads-1 mirror check.
const CHECK_PAIRS: usize = 2 * BATCH;

struct Setup {
    ds: Dataset,
    train: Vec<(usize, usize)>,
    val: Vec<(usize, usize)>,
    model_seed: u64,
    cfg: FluxTrainConfig,
}

fn setup(seed: u64, threads: usize) -> Setup {
    cache::configure(None).expect("disabling the render cache touches no files");
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: TRAIN_SAMPLES + VAL_SAMPLES,
        catalog_size: 1000,
        seed: derive(seed, 1),
    });
    let train_idx: Vec<usize> = (0..TRAIN_SAMPLES).collect();
    let val_idx: Vec<usize> = (TRAIN_SAMPLES..TRAIN_SAMPLES + VAL_SAMPLES).collect();
    let train = flux_pair_refs(&ds, &train_idx, PAIRS_PER_SAMPLE, derive(seed, 2));
    let val = flux_pair_refs(&ds, &val_idx, PAIRS_PER_SAMPLE, derive(seed, 3));
    let s = Setup {
        ds,
        train,
        val,
        model_seed: derive(seed, 4),
        cfg: FluxTrainConfig {
            crop: CROP,
            epochs: EPOCHS,
            batch_size: BATCH,
            lr: 1e-3,
            pairs_per_sample: PAIRS_PER_SAMPLE,
            augment: true,
            seed: derive(seed, 5),
            threads,
        },
    };
    // Model init and warm-up: one step and one validation pass before
    // timing starts.
    s.program_run(&s.train[..BATCH], &FluxTrainConfig { epochs: 1, ..s.cfg });
    s
}

impl Setup {
    fn model(&self) -> FluxCnn {
        FluxCnn::new(
            CROP,
            PoolKind::Max,
            &mut StdRng::seed_from_u64(self.model_seed),
        )
    }

    fn mirror(&self) -> Mirror {
        Mirror::seeded(Arch::Flux { crop: CROP }, self.model_seed)
    }

    /// `train_flux_cnn` on `train` from a fresh model; the record is
    /// `[train_loss, val_loss]` of every epoch.
    fn program_run(&self, train: &[(usize, usize)], cfg: &FluxTrainConfig) -> Trained {
        let mut cnn = self.model();
        let t0 = Instant::now();
        let history = train_flux_cnn(&mut cnn, &self.ds, train, &self.val, cfg);
        let secs = t0.elapsed().as_secs_f64();
        let losses = history
            .iter()
            .flat_map(|r| [r.train_loss, r.val_loss])
            .collect();
        (losses, param_bits(cnn.params()), secs)
    }

    /// [`mirror_epochs`] on `train` from a fresh mirror, timed.
    fn mirror_run(
        &self,
        train: &[(usize, usize)],
        cfg: &FluxTrainConfig,
        tracer: &Tracer,
        next_step: &mut u64,
    ) -> Trained {
        let mut m = self.mirror();
        let t0 = Instant::now();
        let losses = mirror_epochs(self, &mut m, train, cfg, tracer, next_step);
        let secs = t0.elapsed().as_secs_f64();
        (losses, param_bits(m.params()), secs)
    }
}

/// Renders a shard's stamps (one span each) and targets, as the
/// program's batch renderer does.
fn render(
    ds: &Dataset,
    refs: &[(usize, usize)],
    tracer: &Tracer,
    parent: u64,
    step: u64,
) -> (Tensor, Tensor) {
    let mut x = Vec::with_capacity(refs.len() * CROP * CROP);
    let mut t = Vec::with_capacity(refs.len());
    for &(si, oi) in refs {
        let s = &ds.samples[si];
        x.extend(tracer.span("render.stamp", parent, step, |_| {
            cache::stamp_pixels(s, oi, CROP, true)
        }));
        let (band, mjd) = s.schedule.observations[oi];
        t.push(mag_to_target(s.true_mag(band, mjd)));
    }
    (
        Tensor::from_vec(vec![refs.len(), 1, CROP, CROP], x),
        Tensor::from_vec(vec![refs.len(), 1], t),
    )
}

/// The program's training loop rebuilt from public pieces, one span per
/// call: stamp rendering, D4 augmentation, every layer's forward and
/// backward, the loss, the data-parallel executor and the Adam step.
/// Returns `[train_loss, val_loss]` per epoch, as `train_flux_cnn`
/// records them.
fn mirror_epochs(
    s: &Setup,
    m: &mut Mirror,
    train: &[(usize, usize)],
    cfg: &FluxTrainConfig,
    tracer: &Tracer,
    next_step: &mut u64,
) -> Vec<f64> {
    let off = Tracer::new(false);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut exec = BatchExecutor::new(&*m, cfg.threads);
    let mut losses = Vec::new();
    for epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        let (mut loss_sum, mut batches) = (0.0f64, 0usize);
        for chunk in order.chunks(cfg.batch_size) {
            let step = *next_step;
            *next_step += 1;
            let stats = tracer.span("train.step", 0, step, |sid| {
                let refs: Vec<(usize, usize)> = chunk.iter().map(|&i| train[i]).collect();
                let codes: Vec<u8> = if cfg.augment {
                    (0..refs.len()).map(|_| rng.gen_range(0..8)).collect()
                } else {
                    Vec::new()
                };
                let stats = tracer.span("parallel.step", sid, step, |pid| {
                    exec.step(m, refs.len(), |model, range, scale| {
                        tracer.span("parallel.shard", pid, step, |shid| {
                            let (mut x, t) =
                                render(&s.ds, &refs[range.clone()], tracer, shid, step);
                            if cfg.augment {
                                tracer.span("input.d4", shid, step, |_| {
                                    let px = CROP * CROP;
                                    for (i, &code) in codes[range.clone()].iter().enumerate() {
                                        d4_transform(
                                            &mut x.data_mut()[i * px..(i + 1) * px],
                                            CROP,
                                            code,
                                        );
                                    }
                                });
                            }
                            let y = model.forward(&x, Mode::Train, tracer, shid, step);
                            let (loss, grad) = tracer.span("nn.loss", shid, step, |_| {
                                let (loss, mut grad) = mse_loss(&y, &t);
                                if scale != 1.0 {
                                    grad = &grad * scale;
                                }
                                (loss, grad)
                            });
                            model.backward(&grad, tracer, shid, step);
                            ShardStats::regression(f64::from(loss), range.len())
                        })
                    })
                });
                tracer.span("optim.adam", sid, step, |_| opt.step(&mut m.params_mut()));
                stats
            });
            loss_sum += stats.loss;
            batches += 1;
        }
        let val_loss = tracer.span("train.val", 0, VALIDATION_STEPS + epoch as u64, |_| {
            let (mut sum, mut n) = (0.0f64, 0usize);
            for chunk in s.val.chunks(cfg.batch_size) {
                let (x, t) = render(&s.ds, chunk, &off, 0, 0);
                let y = m.forward(&x, Mode::Eval, &off, 0, 0);
                sum += f64::from(mse_loss(&y, &t).0) * chunk.len() as f64;
                n += chunk.len();
            }
            sum / n as f64
        });
        losses.push(loss_sum / batches as f64);
        losses.push(val_loss);
    }
    losses
}

/// Runs the workload.
pub fn run(spec: &RunSpec, result: &mut RunResult) {
    let threads = crate::host::nproc();
    let (s, setup_times) = repeated_setup(spec, || setup(spec.seed, threads));
    result.set_median("setup_s", &setup_times);
    let steps_per_epoch = s.train.len().div_ceil(BATCH);
    if spec.trace {
        traced(spec, &s, result);
    } else {
        timed_reps(
            spec,
            result,
            EPOCHS * s.train.len(),
            EPOCHS * steps_per_epoch,
            || s.program_run(&s.train, &s.cfg),
        );
    }
    let cfg = FluxTrainConfig {
        epochs: 1,
        threads: 1,
        ..s.cfg
    };
    let train = &s.train[..CHECK_PAIRS];
    check_mirror(
        result,
        "train_flux_cnn",
        param_bits(s.model().params()) == param_bits(s.mirror().params()),
        &s.program_run(train, &cfg),
        &s.mirror_run(train, &cfg, &Tracer::new(true), &mut 0),
    );
}

/// The traced run: untraced `train_flux_cnn` epochs alternating with
/// traced mirror epochs at `threads = nproc`.
fn traced(spec: &RunSpec, s: &Setup, result: &mut RunResult) {
    let cfg = FluxTrainConfig { epochs: 1, ..s.cfg };
    let spans = traced_epochs(
        spec,
        result,
        "train_flux_cnn",
        || s.program_run(&s.train, &cfg),
        |tracer, next_step| s.mirror_run(&s.train, &cfg, tracer, next_step),
    );
    let flops = std::array::from_fn(|i| BATCH as f64 * conv_forward_flops(i, CROP));
    layer_table(result, &spans, Some(flops));
}
