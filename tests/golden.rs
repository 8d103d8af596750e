//! Golden end-to-end snapshot tests.
//!
//! Five pins:
//!
//! 1. A fixed-seed tiny pipeline (dataset → train → eval) must reproduce
//!    the metrics checked in at `tests/golden/pipeline.json` within
//!    tolerance. Regenerate after an intentional numeric change with
//!    `SNIA_GOLDEN_REGEN=1 cargo test --test golden`.
//! 2. The serve engine must score *bit-identically* to direct forward
//!    inference for every request in the golden set, at batch sizes
//!    {1, 7, 32} and across worker replicas — batching is a throughput
//!    optimisation and must never change an answer.
//! 3. Flux-CNN training through the render cache — cold fill, warm
//!    re-read, and after deliberate on-disk corruption — must match the
//!    cacheless run bit-for-bit: caching (like batching) must never
//!    change an answer.
//! 4. One crop-60 flux-CNN training step (forward, backward, Adam) on
//!    integer-LCG weights and inputs must hash to the exact value checked
//!    in as `flux_step_hash`. Unlike pins 2–3, which compare two runs of
//!    one build, this one holds across commits: a kernel rewrite that
//!    reorders a single floating-point reduction changes the hash.
//! 5. Each of the three models (flux CNN, classifier, joint) is trained
//!    for a tiny fixed-seed 2 epochs at `threads` 1 and 2; the FNV-1a
//!    hash of every `TrainRecord` field and every final parameter must
//!    equal the `train_hash_*` values checked in. Like pin 4 this holds
//!    across commits, so a change to the training driver that moves one
//!    RNG draw, reorders a batch or changes a loss reduction fails it. Unlike pin 4
//!    the runs call libm (stamp rendering, sigmoid), so the values are
//!    tied to the platform's libm as well as to the code.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use snia_repro::core::classifier::LightCurveClassifier;
use snia_repro::core::eval::auc;
use snia_repro::core::flux_cnn::{FluxCnn, PoolKind};
use snia_repro::core::joint::JointModel;
use snia_repro::core::train::{
    classifier_loss_acc, classifier_scores, feature_matrix, flux_pair_refs, flux_predictions,
    joint_batch, joint_examples, train_classifier, train_flux_cnn, train_joint,
    ClassifierTrainConfig, FluxTrainConfig, TrainRecord,
};
use snia_repro::dataset::cache;
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};
use snia_repro::nn::loss::{mse_loss, sigmoid_probs};
use snia_repro::nn::optim::{Adam, Optimizer};
use snia_repro::nn::{Mode, Param, Tensor};
use snia_repro::serve::{Engine, EngineConfig, ModelBundle, Request, RequestInput};

const SEED: u64 = 42;
const SAMPLES: usize = 80;
const EPOCHS: usize = 3;
const HIDDEN: usize = 16;

#[derive(Debug, Serialize, Deserialize)]
struct GoldenPipeline {
    final_train_loss: f64,
    final_val_loss: f64,
    final_val_acc: f64,
    test_loss: f64,
    test_acc: f64,
    test_auc: f64,
    /// FNV-1a hash of [`flux_step_bits`], as 16 hex digits.
    flux_step_hash: String,
    /// [`train_hash`] of each model's run at `threads` 1 and 2 (pin 5).
    train_hash_flux_t1: String,
    train_hash_flux_t2: String,
    train_hash_classifier_t1: String,
    train_hash_classifier_t2: String,
    train_hash_joint_t1: String,
    train_hash_joint_t2: String,
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The fixed-seed tiny pipeline every golden assertion runs against:
/// the trained classifier, the test features and the pipeline metrics
/// (the `flux_step_hash` and `train_hash_*` pins are left empty; only
/// the snapshot test computes them).
fn run_pipeline() -> (LightCurveClassifier, Tensor, GoldenPipeline) {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: SAMPLES,
        catalog_size: (SAMPLES * 4).max(200),
        seed: SEED,
    });
    let (tr, va, te) = split_indices(ds.len(), SEED);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, tte, labels) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xC1A551F7);
    let mut clf = LightCurveClassifier::new(1, HIDDEN, &mut rng);
    let history = train_classifier(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs: EPOCHS,
            batch_size: 64,
            lr: 3e-3,
            seed: SEED,
            threads: 1,
        },
    );
    let last = history.last().expect("trained at least one epoch");
    let (test_loss, test_acc) = classifier_loss_acc(&mut clf, &xe, &tte);
    let scores = classifier_scores(&mut clf, &xe);
    let metrics = GoldenPipeline {
        final_train_loss: last.train_loss,
        final_val_loss: last.val_loss,
        final_val_acc: last.val_acc,
        test_loss,
        test_acc,
        test_auc: auc(&scores, &labels),
        flux_step_hash: String::new(),
        train_hash_flux_t1: String::new(),
        train_hash_flux_t2: String::new(),
        train_hash_classifier_t1: String::new(),
        train_hash_classifier_t2: String::new(),
        train_hash_joint_t1: String::new(),
        train_hash_joint_t2: String::new(),
    };
    (clf, xe, metrics)
}

#[test]
fn pipeline_metrics_match_golden_snapshot() {
    let (_, _, mut got) = run_pipeline();
    got.flux_step_hash = flux_step_hash();
    got.train_hash_flux_t1 = train_hash_flux(1);
    got.train_hash_flux_t2 = train_hash_flux(2);
    got.train_hash_classifier_t1 = train_hash_classifier(1);
    got.train_hash_classifier_t2 = train_hash_classifier(2);
    got.train_hash_joint_t1 = train_hash_joint(1);
    got.train_hash_joint_t2 = train_hash_joint(2);
    let path = golden_path("pipeline.json");
    if std::env::var("SNIA_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&got).expect("serialize golden metrics");
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, format!("{json}\n")).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SNIA_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let want: GoldenPipeline = serde_json::from_str(&text).expect("parse golden file");
    // Losses drift with any legitimate numeric change at ~1e-3; these
    // tolerances catch real regressions (shuffled RNG streams, changed
    // initialisation, broken layers) without flaking on the last ulp.
    let close = |got: f64, want: f64, tol: f64, what: &str| {
        assert!(
            (got - want).abs() <= tol,
            "{what}: got {got}, golden {want} (tol {tol})"
        );
    };
    close(
        got.final_train_loss,
        want.final_train_loss,
        1e-2,
        "train loss",
    );
    close(got.final_val_loss, want.final_val_loss, 1e-2, "val loss");
    close(got.final_val_acc, want.final_val_acc, 2e-2, "val accuracy");
    close(got.test_loss, want.test_loss, 1e-2, "test loss");
    close(got.test_acc, want.test_acc, 2e-2, "test accuracy");
    close(got.test_auc, want.test_auc, 2e-2, "test AUC");
    assert_eq!(
        got.flux_step_hash, want.flux_step_hash,
        "crop-60 flux-CNN step bits changed: a kernel no longer reproduces \
         the checked-in forward/backward/Adam results exactly"
    );
    let pins = [
        ("flux t1", &got.train_hash_flux_t1, &want.train_hash_flux_t1),
        ("flux t2", &got.train_hash_flux_t2, &want.train_hash_flux_t2),
        (
            "classifier t1",
            &got.train_hash_classifier_t1,
            &want.train_hash_classifier_t1,
        ),
        (
            "classifier t2",
            &got.train_hash_classifier_t2,
            &want.train_hash_classifier_t2,
        ),
        (
            "joint t1",
            &got.train_hash_joint_t1,
            &want.train_hash_joint_t1,
        ),
        (
            "joint t2",
            &got.train_hash_joint_t2,
            &want.train_hash_joint_t2,
        ),
    ];
    for (what, got, want) in pins {
        assert_eq!(
            got, want,
            "{what} training run bits changed: the loop no longer reproduces \
             the checked-in history and final parameters exactly"
        );
    }
}

/// Deterministic `f32` stream in `[-scale, scale)` from a 64-bit LCG.
/// Every value is an exact integer multiple of `scale · 2⁻²³`, built
/// without any libm call, so the stream is identical on every host.
fn lcg_fill(state: &mut u64, out: &mut [f32], scale: f32) {
    for v in out {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let q = (*state >> 40) as i32 - (1 << 23);
        *v = q as f32 * (scale / (1 << 23) as f32);
    }
}

/// The raw bits of one crop-60 `FluxCnn` training step at batch 4: the
/// forward output, the loss, the input gradient, every parameter
/// gradient and every parameter after one `Adam` step. Weights, inputs
/// and targets all come from [`lcg_fill`] (the constructor's random
/// initialisation is overwritten), and the step uses only `+ − × ÷ √`,
/// which IEEE 754 fixes exactly.
fn flux_step_bits() -> Vec<u32> {
    const CROP: usize = 60;
    const BATCH: usize = 4;
    let mut state = 0x5EED_F1C5_u64;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut cnn = FluxCnn::new(CROP, PoolKind::Max, &mut rng);
    for p in cnn.params_mut() {
        // Conv/linear fan-ins span 25..1470; 0.25 keeps activations O(1)
        // through the BN-normalised blocks and the dense head.
        lcg_fill(&mut state, p.value.data_mut(), 0.25);
    }
    let mut x = Tensor::zeros(vec![BATCH, 1, CROP, CROP]);
    lcg_fill(&mut state, x.data_mut(), 1.0);
    let mut target = Tensor::zeros(vec![BATCH, 1]);
    lcg_fill(&mut state, target.data_mut(), 1.0);

    let y = cnn.forward(&x, Mode::Train);
    let (loss, grad) = mse_loss(&y, &target);
    assert!(loss.is_finite(), "golden flux step diverged: loss {loss}");
    cnn.zero_grad();
    let dx = cnn.backward(&grad);
    let mut bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
    bits.push(loss.to_bits());
    bits.extend(dx.data().iter().map(|v| v.to_bits()));
    for p in cnn.params() {
        bits.extend(p.grad.data().iter().map(|v| v.to_bits()));
    }
    Adam::new(1e-3).step(&mut cnn.params_mut());
    for p in cnn.params() {
        bits.extend(p.value.data().iter().map(|v| v.to_bits()));
    }
    bits
}

/// 64-bit FNV-1a over `bytes`, as 16 hex digits.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// FNV-1a over the little-endian bytes of [`flux_step_bits`].
fn flux_step_hash() -> String {
    fnv1a(flux_step_bits().iter().flat_map(|w| w.to_le_bytes()))
}

/// Crop of the pin-5 flux and joint runs (three pool stages leave 3×3).
const TRAIN_PIN_CROP: usize = 24;

/// The shared pin-5 dataset: 8 samples, 6 for training and 2 for
/// validation.
fn train_pin_dataset() -> Dataset {
    Dataset::generate(&DatasetConfig {
        n_samples: 8,
        catalog_size: 200,
        seed: SEED,
    })
}

/// FNV-1a over the bits of every field of every `TrainRecord` followed
/// by the bits of every final parameter value.
fn train_hash(history: &[TrainRecord], params: &[&Param]) -> String {
    assert_eq!(history.len(), 2, "pin runs train 2 epochs");
    let mut bytes = Vec::new();
    for r in history {
        bytes.extend((r.epoch as u64).to_le_bytes());
        for v in [r.train_loss, r.val_loss, r.train_acc, r.val_acc] {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    for p in params {
        bytes.extend(
            p.value
                .data()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes()),
        );
    }
    fnv1a(bytes)
}

fn train_hash_flux(threads: usize) -> String {
    let ds = train_pin_dataset();
    let train_refs = flux_pair_refs(&ds, &[0, 1, 2, 3, 4, 5], 2, SEED);
    let val_refs = flux_pair_refs(&ds, &[6, 7], 2, SEED + 1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5);
    let mut cnn = FluxCnn::new(TRAIN_PIN_CROP, PoolKind::Max, &mut rng);
    let history = train_flux_cnn(
        &mut cnn,
        &ds,
        &train_refs,
        &val_refs,
        &FluxTrainConfig {
            crop: TRAIN_PIN_CROP,
            epochs: 2,
            batch_size: 4,
            lr: 1e-3,
            pairs_per_sample: 2,
            augment: true,
            seed: SEED,
            threads,
        },
    );
    train_hash(&history, &cnn.params())
}

fn train_hash_classifier(threads: usize) -> String {
    let ds = train_pin_dataset();
    let (xt, tt, _) = feature_matrix(&ds, &[0, 1, 2, 3, 4, 5], 1);
    let (xv, tv, _) = feature_matrix(&ds, &[6, 7], 1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x6);
    let mut clf = LightCurveClassifier::new(1, 8, &mut rng);
    let history = train_classifier(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 3e-3,
            seed: SEED,
            threads,
        },
    );
    train_hash(&history, &clf.params())
}

fn train_hash_joint(threads: usize) -> String {
    let ds = train_pin_dataset();
    let train_ex = joint_examples(&[0, 1, 2, 3, 4, 5]);
    let val_ex = joint_examples(&[6, 7]);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x7);
    let mut jm = JointModel::from_scratch(TRAIN_PIN_CROP, 8, &mut rng);
    let history = train_joint(
        &mut jm,
        &ds,
        &train_ex,
        &val_ex,
        &ClassifierTrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 3e-3,
            seed: SEED,
            threads,
        },
    );
    train_hash(&history, &jm.params())
}

/// Serve scores must be bit-identical to a direct forward call whatever
/// the batch size — the acceptance criterion for the engine.
#[test]
fn serve_scores_are_bit_identical_to_direct_inference() {
    let (mut clf, xe, _) = run_pipeline();
    let direct = classifier_scores(&mut clf, &xe);
    let dim = xe.shape()[1];
    let requests: Vec<Request> = xe
        .data()
        .chunks(dim)
        .enumerate()
        .map(|(i, row)| Request {
            id: i as u64,
            input: RequestInput::Features(row.to_vec()),
        })
        .collect();
    let bundle = ModelBundle::from_classifier(&clf);
    for max_batch in [1, 7, 32] {
        let engine = Engine::from_bundle(
            &bundle,
            EngineConfig {
                max_batch,
                max_wait: Duration::from_millis(1),
                queue_cap: requests.len() + 1,
                workers: 2,
            },
        )
        .expect("bundle instantiates");
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("queue has room"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().expect("engine answers");
            assert_eq!(resp.id, i as u64);
            assert_eq!(
                resp.score.to_bits(),
                direct[i].to_bits(),
                "request {i} differs at max_batch {max_batch}: engine {} vs direct {}",
                resp.score,
                direct[i]
            );
        }
        engine.shutdown();
    }
}

/// Trains the flux CNN from a fixed seed and returns the per-epoch loss
/// bits plus the prediction bits on a held-out ref set — every f64
/// captured exactly, so comparisons are bit-for-bit.
fn flux_run_fingerprint(
    ds: &Dataset,
    train_refs: &[(usize, usize)],
    val_refs: &[(usize, usize)],
) -> Vec<u64> {
    const CROP: usize = 32;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF1C);
    let mut cnn = FluxCnn::new(CROP, PoolKind::Max, &mut rng);
    let history = train_flux_cnn(
        &mut cnn,
        ds,
        train_refs,
        val_refs,
        &FluxTrainConfig {
            crop: CROP,
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            pairs_per_sample: 2,
            augment: true,
            seed: SEED,
            threads: 1,
        },
    );
    let mut bits = Vec::new();
    for r in &history {
        bits.push(r.train_loss.to_bits());
        bits.push(r.val_loss.to_bits());
    }
    for (true_mag, est_mag) in flux_predictions(&mut cnn, ds, val_refs, CROP, 4) {
        bits.push(true_mag.to_bits());
        bits.push(est_mag.to_bits());
    }
    bits
}

/// The render-cache acceptance pin: a fixed-seed flux-CNN run with
/// `--render-cache` (cold fill, then warm re-reads, then after deliberate
/// on-disk corruption) matches the cacheless run bit-for-bit, and the
/// corrupted entry falls back to re-rendering instead of erroring.
#[test]
fn flux_training_with_render_cache_is_bit_identical() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 10,
        catalog_size: 200,
        seed: SEED,
    });
    let indices: Vec<usize> = (0..ds.len()).collect();
    let (tr, va) = indices.split_at(8);
    let train_refs = flux_pair_refs(&ds, tr, 2, SEED);
    let val_refs = flux_pair_refs(&ds, va, 2, SEED + 1);

    // Cacheless baseline.
    cache::configure(None).expect("disable cache");
    let baseline = flux_run_fingerprint(&ds, &train_refs, &val_refs);

    let dir = std::env::temp_dir().join(format!("snia-golden-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::configure(Some(&dir)).expect("create cache dir");

    // Cold: every stamp is rendered once and written to the store.
    let cold = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(cold, baseline, "cold cache fill changed training results");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "stamp"))
        .collect();
    assert!(!entries.is_empty(), "cold run wrote no cache entries");

    // Warm (memory): the in-process stamp cache serves every lookup.
    let warm = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(warm, baseline, "warm memory cache changed training results");

    // Warm (disk): a fresh process would hit only the on-disk store.
    cache::clear_memory();
    let disk = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(disk, baseline, "warm disk cache changed training results");

    // Corruption: flip a byte in an entry the next run provably reads
    // (the first training stamp); the CRC frame must reject it and the
    // run must silently re-render, still bit-identical. (Concurrent
    // golden tests may add entries of their own to the store, so the
    // victim is addressed by key, not by directory listing.)
    let (si, oi) = train_refs[0];
    let key = cache::stamp_key(&ds.samples[si], oi, 32, true);
    let victim = dir.join(format!("{key:016x}.stamp"));
    let mut bytes = std::fs::read(&victim).expect("read cache entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&victim, &bytes).expect("corrupt cache entry");
    cache::clear_memory();
    let corrupt_before = cache::stats().corrupt;
    let recovered = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(
        recovered, baseline,
        "corrupted cache entry changed training results"
    );
    assert!(
        cache::stats().corrupt > corrupt_before,
        "corruption was not detected by the CRC frame"
    );

    cache::configure(None).expect("disable cache");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same pin for the joint image model: serve scores equal direct
/// `core::joint` forward calls bit-for-bit.
#[test]
fn serve_joint_scores_match_direct_forward_calls() {
    const CROP: usize = 36;
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 6,
        catalog_size: 200,
        seed: SEED,
    });
    let idx: Vec<usize> = (0..ds.len()).collect();
    let examples = joint_examples(&idx);
    let examples = &examples[..12];
    let (images, dates, _, _) = joint_batch(&ds, examples, CROP);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut jm = JointModel::from_scratch(CROP, 8, &mut rng);
    let logits = jm.forward(&images, &dates, Mode::Eval);
    let direct: Vec<f64> = sigmoid_probs(&logits)
        .data()
        .iter()
        .map(|&p| f64::from(p))
        .collect();

    let ilen = 5 * CROP * CROP;
    let requests: Vec<Request> = (0..examples.len())
        .map(|i| Request {
            id: i as u64,
            input: RequestInput::Cutouts {
                images: images.data()[i * ilen..(i + 1) * ilen].to_vec(),
                dates: dates.data()[i * 5..(i + 1) * 5].to_vec(),
            },
        })
        .collect();
    let bundle = ModelBundle::from_joint(&jm);
    for max_batch in [1, 7, 32] {
        let engine = Engine::from_bundle(
            &bundle,
            EngineConfig {
                max_batch,
                max_wait: Duration::from_millis(1),
                queue_cap: requests.len() + 1,
                workers: 2,
            },
        )
        .expect("bundle instantiates");
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("queue has room"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().expect("engine answers");
            assert_eq!(
                resp.score.to_bits(),
                direct[i].to_bits(),
                "joint request {i} differs at max_batch {max_batch}"
            );
        }
        engine.shutdown();
    }
}
