//! Bogus rejection (extension): real/bogus candidate vetting, the
//! related-work task of Section 2.
//!
//! Reference points from the paper's related work:
//! * Brink et al. 2013 (random forests): TPR 92.3% at FPR 1%;
//! * Morii et al. 2016 (deep nets): FPR 0.85% at TPR 90%.
//!
//! We train both a hand-crafted-feature random forest (Bailey/Brink
//! lineage) and a small CNN (Morii lineage) on the synthetic vetting set
//! and report the same operating points. Expected *shape*: both methods
//! are strong; the CNN matches or beats the forest given enough data.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_baselines::random_forest::{ForestConfig, RandomForest};
use snia_bench::{progress, write_json, Table};
use snia_core::bogus::{bogus_cnn_scores, handcrafted_features, train_bogus_cnn, BogusCnn};
use snia_core::eval::{auc, fpr_at_tpr, tpr_at_fpr};
use snia_dataset::bogus::generate_bogus_set;

#[derive(Serialize)]
struct BogusResult {
    method: String,
    auc: f64,
    tpr_at_fpr_1pct: f64,
    fpr_at_tpr_90pct: f64,
    reference: String,
}

fn main() {
    let (run, _telemetry) = snia_bench::start("bogus");
    let cfg = run.experiment;
    let n_train = (cfg.dataset.n_samples * 2).max(400);
    let n_test = (n_train / 4).max(100);
    progress!("# Bogus rejection extension ({n_train} train / {n_test} test candidates)");

    let train = generate_bogus_set(n_train, cfg.seed + 900);
    let test = generate_bogus_set(n_test, cfg.seed + 901);
    let test_labels: Vec<bool> = test.iter().map(|e| e.is_real()).collect();

    // --- Random forest on hand-crafted features (Bailey 2007 / Brink 2013) ---
    progress!("\n[1/2] random forest on hand-crafted features...");
    let x_train: Vec<Vec<f64>> = train.iter().map(handcrafted_features).collect();
    let y_train: Vec<bool> = train.iter().map(|e| e.is_real()).collect();
    let rf = RandomForest::fit(
        &x_train,
        &y_train,
        &ForestConfig {
            n_trees: 100,
            ..Default::default()
        },
    );
    let rf_scores: Vec<f64> = test
        .iter()
        .map(|e| rf.predict_proba(&handcrafted_features(e)))
        .collect();
    let rf_auc = auc(&rf_scores, &test_labels);
    let rf_tpr = tpr_at_fpr(&rf_scores, &test_labels, 0.01);
    let rf_fpr = fpr_at_tpr(&rf_scores, &test_labels, 0.90);
    progress!("    AUC {rf_auc:.3}, TPR@FPR1% {rf_tpr:.3}, FPR@TPR90% {rf_fpr:.4}");

    // --- CNN on difference images (Morii 2016) ---
    progress!("[2/2] CNN on difference images...");
    let mut rng = StdRng::seed_from_u64(cfg.seed + 902);
    let mut cnn = BogusCnn::new(&mut rng);
    train_bogus_cnn(&mut cnn, &train, cfg.scaled(8), 16, 1e-3, cfg.seed + 903);
    let cnn_scores = bogus_cnn_scores(&mut cnn, &test);
    let cnn_auc = auc(&cnn_scores, &test_labels);
    let cnn_tpr = tpr_at_fpr(&cnn_scores, &test_labels, 0.01);
    let cnn_fpr = fpr_at_tpr(&cnn_scores, &test_labels, 0.90);
    progress!("    AUC {cnn_auc:.3}, TPR@FPR1% {cnn_tpr:.3}, FPR@TPR90% {cnn_fpr:.4}");

    let mut table = Table::new(vec![
        "method",
        "AUC",
        "TPR @ FPR 1%",
        "FPR @ TPR 90%",
        "literature reference",
    ]);
    table.row(vec![
        "random forest (hand-crafted)".into(),
        format!("{rf_auc:.3}"),
        format!("{rf_tpr:.3}"),
        format!("{rf_fpr:.4}"),
        "Brink2013: TPR 0.923 @ FPR 1%".into(),
    ]);
    table.row(vec![
        "CNN (difference image)".into(),
        format!("{cnn_auc:.3}"),
        format!("{cnn_tpr:.3}"),
        format!("{cnn_fpr:.4}"),
        "Morii2016: FPR 0.0085 @ TPR 90%".into(),
    ]);
    table.print("Bogus rejection");

    write_json(
        "bogus",
        &vec![
            BogusResult {
                method: "random_forest".into(),
                auc: rf_auc,
                tpr_at_fpr_1pct: rf_tpr,
                fpr_at_tpr_90pct: rf_fpr,
                reference: "Brink2013".into(),
            },
            BogusResult {
                method: "cnn".into(),
                auc: cnn_auc,
                tpr_at_fpr_1pct: cnn_tpr,
                fpr_at_tpr_90pct: cnn_fpr,
                reference: "Morii2016".into(),
            },
        ],
    );
}
