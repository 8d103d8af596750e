//! Table 1: mean regression loss (×10⁻³ mag²) for input crop sizes
//! 36, 44, 52, 60, 65.
//!
//! The paper's finding to reproduce in *shape*: larger crops give better
//! flux estimation (background context helps), with the best losses at
//! crop 60–65.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::train::{flux_loss, flux_pair_refs, train_flux_cnn, FluxTrainConfig};
use snia_dataset::{split_indices, Dataset};

/// Normalised-target MSE → mag² (target = (mag − 24)/4 so mag² = 16×).
const TO_MAG2: f64 = 16.0;

#[derive(Serialize)]
struct SizeResult {
    crop: usize,
    train_loss_mean_e3: f64,
    train_loss_std_e3: f64,
    val_loss_mean_e3: f64,
    val_loss_std_e3: f64,
    test_loss_e3: f64,
}

fn mean_std(v: &[f64]) -> (f64, f64) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    (mean, var.sqrt())
}

fn main() {
    let (run, _telemetry) = snia_bench::start("table1");
    let cfg = run.experiment;
    progress!("# Table 1 — loss vs. crop size (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);

    let seeds: Vec<u64> = (0..cfg.scaled(2).min(5) as u64).collect();
    let pairs_per_sample = 2;
    let train_refs = flux_pair_refs(&ds, &tr, pairs_per_sample, cfg.seed + 100);
    let val_refs = flux_pair_refs(&ds, &va, pairs_per_sample, cfg.seed + 101);
    let test_refs = flux_pair_refs(&ds, &te, pairs_per_sample, cfg.seed + 102);
    progress!(
        "pairs: train {}, val {}, test {}; seeds {}",
        train_refs.len(),
        val_refs.len(),
        test_refs.len(),
        seeds.len()
    );

    let mut table = Table::new(vec![
        "Size",
        "Train loss (1e-3 mag^2)",
        "Val loss (1e-3 mag^2)",
        "Test loss (1e-3 mag^2)",
    ]);
    let mut results = Vec::new();
    for &crop in &[36usize, 44, 52, 60, 65] {
        let mut train_losses = Vec::new();
        let mut val_losses = Vec::new();
        let mut test_loss = 0.0;
        for &seed in &seeds {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (seed * 7919 + crop as u64));
            let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
            let tcfg = FluxTrainConfig {
                crop,
                epochs: cfg.scaled(3),
                batch_size: 16,
                lr: 2e-3,
                pairs_per_sample,
                augment: true,
                seed: cfg.seed + seed,
                threads: cfg.threads,
            };
            let hist = train_flux_cnn(&mut cnn, &ds, &train_refs, &val_refs, &tcfg);
            let last = hist.last().expect("non-empty history");
            // Evaluate the *final* train loss in eval mode for a fair
            // comparison with val/test.
            let train_eval = flux_loss(&mut cnn, &ds, &train_refs, crop, 32);
            train_losses.push(train_eval * TO_MAG2 * 1e3);
            val_losses.push(last.val_loss * TO_MAG2 * 1e3);
            test_loss = flux_loss(&mut cnn, &ds, &test_refs, crop, 32) * TO_MAG2 * 1e3;
        }
        let (tm, ts) = mean_std(&train_losses);
        let (vm, vs) = mean_std(&val_losses);
        table.row(vec![
            format!("{crop}x{crop}"),
            format!("{tm:.1} ± {ts:.1}"),
            format!("{vm:.1} ± {vs:.1}"),
            format!("{test_loss:.1}"),
        ]);
        progress!("  crop {crop}: val {vm:.1}e-3 mag^2");
        results.push(SizeResult {
            crop,
            train_loss_mean_e3: tm,
            train_loss_std_e3: ts,
            val_loss_mean_e3: vm,
            val_loss_std_e3: vs,
            test_loss_e3: test_loss,
        });
    }
    table.print("Table 1 — mean loss for image sizes (10^-3 mag^2)");
    progress!("\npaper (10^-3): 36→11.5, 44→8.1, 52→8.7, 60→7.5, 65→7.7 (test)");
    progress!("shape check: larger crops should trend better (60/65 best).");
    write_json("table1", &results);
}
