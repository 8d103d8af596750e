//! Figure 10: classification performance vs. number of observation
//! epochs (1–4), with ground-truth light-curve features.
//!
//! Paper findings to match in shape: more epochs help substantially
//! (AUC 0.958 → 0.995 from 1 to 4 epochs), but single-epoch is already
//! strong.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::eval::{auc, roc_curve};
use snia_core::train::{
    classifier_scores, feature_matrix, train_classifier, ClassifierTrainConfig,
};
use snia_dataset::{split_indices, Dataset};

#[derive(Serialize)]
struct EpochResult {
    epochs: usize,
    auc: f64,
    roc: Vec<(f64, f64)>,
}

fn main() {
    let (run, _telemetry) = snia_bench::start("fig10");
    let cfg = run.experiment;
    progress!(
        "# Figure 10 — ROC vs. observation epochs (config: {:?})",
        cfg.dataset
    );
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);

    let mut table = Table::new(vec!["epochs", "test AUC"]);
    let mut results = Vec::new();
    for k in 1..=4usize {
        let (xt, tt, _) = feature_matrix(&ds, &tr, k);
        let (xv, tv, _) = feature_matrix(&ds, &va, k);
        let (xe, _, labels) = feature_matrix(&ds, &te, k);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (k as u64) << 8);
        let mut clf = LightCurveClassifier::new(k, 100, &mut rng);
        let tcfg = ClassifierTrainConfig {
            epochs: cfg.scaled(30),
            batch_size: 64,
            lr: 3e-3,
            seed: cfg.seed + k as u64,
            threads: cfg.threads,
        };
        train_classifier(&mut clf, (&xt, &tt), (&xv, &tv), &tcfg);
        let scores = classifier_scores(&mut clf, &xe);
        let a = auc(&scores, &labels);
        progress!("  {k} epoch(s): AUC {a:.3}");
        table.row(vec![format!("{k}"), format!("{a:.3}")]);
        let roc: Vec<(f64, f64)> = roc_curve(&scores, &labels)
            .iter()
            .step_by(8)
            .map(|p| (p.fpr, p.tpr))
            .collect();
        results.push(EpochResult {
            epochs: k,
            auc: a,
            roc,
        });
    }
    table.print("Figure 10 — AUC vs. number of epochs");
    progress!("\npaper: 1 epoch → 0.958, 4 epochs → 0.995 (monotone increase).");
    write_json("fig10", &results);
}
