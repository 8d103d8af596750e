//! Figure 8: ground-truth vs. estimated magnitudes on the test set, for a
//! crop-60 flux CNN (the paper's best size).
//!
//! Prints a binned calibration table, the mean absolute error (paper:
//! 0.087 mag) and the bright/dark asymmetries the paper describes (higher
//! variance for faint objects; bright objects estimated slightly dark).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::train::{flux_pair_refs, flux_predictions, train_flux_cnn, FluxTrainConfig};
use snia_dataset::{split_indices, Dataset};

#[derive(Serialize)]
struct Fig8Result {
    mean_abs_error_mag: f64,
    rmse_mag: f64,
    bins: Vec<BinStat>,
    scatter_sample: Vec<(f64, f64)>,
}

#[derive(Serialize)]
struct BinStat {
    true_mag_center: f64,
    mean_estimated: f64,
    std_estimated: f64,
    count: usize,
}

fn main() {
    let (run, _telemetry) = snia_bench::start("fig8");
    let cfg = run.experiment;
    progress!(
        "# Figure 8 — true vs. estimated magnitudes (config: {:?})",
        cfg.dataset
    );
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);

    let crop = 60;
    let train_refs = flux_pair_refs(&ds, &tr, 3, cfg.seed + 200);
    let val_refs = flux_pair_refs(&ds, &va, 2, cfg.seed + 201);
    let test_refs = flux_pair_refs(&ds, &te, 4, cfg.seed + 202);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
    let tcfg = FluxTrainConfig {
        crop,
        epochs: cfg.scaled(4),
        batch_size: 16,
        lr: 2e-3,
        pairs_per_sample: 3,
        augment: true,
        seed: cfg.seed + 1,
        threads: cfg.threads,
    };
    let hist = train_flux_cnn(&mut cnn, &ds, &train_refs, &val_refs, &tcfg);
    for h in &hist {
        progress!(
            "epoch {}: train {:.4}, val {:.4} (normalised)",
            h.epoch,
            h.train_loss,
            h.val_loss
        );
    }

    let preds = flux_predictions(&mut cnn, &ds, &test_refs, crop, 32);
    // Only detectable points are meaningful for the scatter (the clamp at
    // mag 30 swamps the statistics otherwise) — the paper's Figure 8 also
    // spans only ~21-28 mag.
    let detectable: Vec<(f64, f64)> = preds.iter().copied().filter(|(t, _)| *t < 28.0).collect();
    let mae = detectable.iter().map(|(t, e)| (t - e).abs()).sum::<f64>() / detectable.len() as f64;
    let rmse = (detectable
        .iter()
        .map(|(t, e)| (t - e) * (t - e))
        .sum::<f64>()
        / detectable.len() as f64)
        .sqrt();

    // Calibration bins over the detectable range.
    let mut table = Table::new(vec!["true mag bin", "mean estimated", "std", "n"]);
    let mut bins = Vec::new();
    let mut mag = 20.0;
    while mag < 28.0 {
        let sel: Vec<f64> = detectable
            .iter()
            .filter(|(t, _)| *t >= mag && *t < mag + 1.0)
            .map(|(_, e)| *e)
            .collect();
        if sel.len() >= 3 {
            let mean = sel.iter().sum::<f64>() / sel.len() as f64;
            let std =
                (sel.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / sel.len() as f64).sqrt();
            table.row(vec![
                format!("{:.0}-{:.0}", mag, mag + 1.0),
                format!("{mean:.2}"),
                format!("{std:.2}"),
                format!("{}", sel.len()),
            ]);
            bins.push(BinStat {
                true_mag_center: mag + 0.5,
                mean_estimated: mean,
                std_estimated: std,
                count: sel.len(),
            });
        }
        mag += 1.0;
    }
    table.print("Figure 8 — calibration of estimated magnitudes (test set)");
    progress!("\nmean |error| = {mae:.3} mag (paper: 0.087 at full scale)");
    progress!("rmse        = {rmse:.3} mag");
    if let (Some(first), Some(last)) = (bins.first(), bins.last()) {
        progress!(
            "variance grows toward faint objects: {} ({:.2} -> {:.2})",
            if last.std_estimated > first.std_estimated {
                "yes"
            } else {
                "no"
            },
            first.std_estimated,
            last.std_estimated
        );
    }

    write_json(
        "fig8",
        &Fig8Result {
            mean_abs_error_mag: mae,
            rmse_mag: rmse,
            bins,
            scatter_sample: detectable.into_iter().take(500).collect(),
        },
    );
}
