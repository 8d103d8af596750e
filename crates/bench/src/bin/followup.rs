//! Spectroscopic follow-up selection (extension).
//!
//! The paper's introduction: "at most only 100 of over 10⁷ candidates can
//! proceed to follow-up spectroscopic observations" — the classifier's
//! real job is to fill a tiny spectroscopy budget with true SNeIa. This
//! bench measures *purity at k*: of the top-k candidates ranked by each
//! method's single-epoch score, how many are really Type Ia?
//!
//! Expected shape: the proposed classifier fills the budget far better
//! than random selection and better than the no-redshift Bayesian
//! baseline — the paper's practical payoff restated as a procurement
//! metric.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_baselines::poznanski::{epoch_observations, PoznanskiClassifier, PoznanskiConfig};
use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::train::{
    classifier_scores, feature_matrix, train_classifier, ClassifierTrainConfig,
};
use snia_dataset::{split_indices, Dataset};

#[derive(Serialize)]
struct FollowupResult {
    method: String,
    budget: usize,
    true_ia_selected: usize,
    purity: f64,
}

fn purity_at(scores: &[f64], labels: &[bool], k: usize) -> (usize, f64) {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite"));
    let hits = order.iter().take(k).filter(|&&i| labels[i]).count();
    (hits, hits as f64 / k as f64)
}

fn main() {
    let (run, _telemetry) = snia_bench::start("followup");
    let cfg = run.experiment;
    progress!("# Follow-up selection (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);

    // Rank test samples by their *first* single-epoch observation only —
    // the earliest possible follow-up decision.
    let labels: Vec<bool> = te.iter().map(|&i| ds.samples[i].is_ia()).collect();
    let budget = (te.len() / 5).clamp(10, 100);
    let base_rate = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;

    // Proposed classifier on epoch-0 features.
    progress!("\n[1/2] proposed single-epoch classifier...");
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed + 41);
    let mut clf = LightCurveClassifier::new(1, 100, &mut rng);
    train_classifier(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs: cfg.scaled(30),
            batch_size: 64,
            lr: 3e-3,
            seed: cfg.seed + 42,
            threads: cfg.threads,
        },
    );
    let mut rows_feat: Vec<f32> = Vec::new();
    for &i in &te {
        rows_feat.extend_from_slice(&snia_dataset::epoch_features(&ds.samples[i], 0).to_input());
    }
    let xe = snia_nn::Tensor::from_vec(vec![te.len(), 10], rows_feat);
    let ours = classifier_scores(&mut clf, &xe);

    // Poznanski without redshift, same first epoch.
    progress!("[2/2] Poznanski (no redshift)...");
    let poz = PoznanskiClassifier::new(PoznanskiConfig::default());
    let poz_scores: Vec<f64> = te
        .iter()
        .map(|&i| poz.classify(&epoch_observations(&ds.samples[i], 0), None))
        .collect();

    let (our_hits, our_purity) = purity_at(&ours, &labels, budget);
    let (poz_hits, poz_purity) = purity_at(&poz_scores, &labels, budget);

    let mut table = Table::new(vec![
        "selection method",
        &format!("true Ia in top {budget}"),
        "purity",
    ]);
    table.row(vec![
        "proposed single-epoch".into(),
        format!("{our_hits}"),
        format!("{our_purity:.2}"),
    ]);
    table.row(vec![
        "Poznanski, no redshift".into(),
        format!("{poz_hits}"),
        format!("{poz_purity:.2}"),
    ]);
    table.row(vec![
        "random selection".into(),
        format!("{:.1}", base_rate * budget as f64),
        format!("{base_rate:.2}"),
    ]);
    table.print("Spectroscopy-budget purity (first epoch only)");
    progress!(
        "\nshape checks: ours > random: {}; ours >= Poznanski no-z: {}",
        if our_purity > base_rate + 0.05 {
            "yes"
        } else {
            "NO"
        },
        if our_purity >= poz_purity - 0.02 {
            "yes"
        } else {
            "NO"
        }
    );

    write_json(
        "followup",
        &vec![
            FollowupResult {
                method: "proposed".into(),
                budget,
                true_ia_selected: our_hits,
                purity: our_purity,
            },
            FollowupResult {
                method: "poznanski_no_z".into(),
                budget,
                true_ia_selected: poz_hits,
                purity: poz_purity,
            },
            FollowupResult {
                method: "random".into(),
                budget,
                true_ia_selected: (base_rate * budget as f64).round() as usize,
                purity: base_rate,
            },
        ],
    );
}
