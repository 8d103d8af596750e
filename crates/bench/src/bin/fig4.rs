//! Figure 4: spatial distribution of supernovae around their host
//! galaxies — raw pixel offsets (left) and offsets normalised by host size
//! (right).

use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_dataset::Dataset;

#[derive(Serialize)]
struct Fig4Result {
    raw_offset_px_histogram: Vec<f64>,
    normalised_offset_histogram: Vec<f64>,
    bin_edges_raw_px: Vec<f64>,
    bin_edges_normalised: Vec<f64>,
    median_raw_px: f64,
    median_normalised: f64,
}

fn histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<f64> {
    let mut h = vec![0usize; bins];
    for &v in values {
        let f = ((v - lo) / (hi - lo)).clamp(0.0, 1.0 - 1e-12);
        h[(f * bins as f64) as usize] += 1;
    }
    let total: usize = h.iter().sum();
    h.iter().map(|&c| c as f64 / total as f64).collect()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

fn main() {
    let (run, _telemetry) = snia_bench::start("fig4");
    let cfg = run.experiment;
    progress!(
        "# Figure 4 — SN offsets from hosts (config: {:?})",
        cfg.dataset
    );
    let ds = Dataset::generate(&cfg.dataset);

    let mut raw: Vec<f64> = Vec::with_capacity(ds.len());
    let mut norm: Vec<f64> = Vec::with_capacity(ds.len());
    for s in &ds.samples {
        let r = (s.sn_dx * s.sn_dx + s.sn_dy * s.sn_dy).sqrt();
        raw.push(r);
        norm.push(r / s.galaxy.r_eff_px().max(1e-6));
    }

    const BINS: usize = 10;
    let raw_hist = histogram(&raw, 0.0, 20.0, BINS);
    let norm_hist = histogram(&norm, 0.0, 3.0, BINS);

    let mut t = Table::new(vec![
        "bin",
        "raw offset (px) fraction",
        "offset / R_eff fraction",
    ]);
    for i in 0..BINS {
        t.row(vec![
            format!("{i}"),
            format!("{:.3}", raw_hist[i]),
            format!("{:.3}", norm_hist[i]),
        ]);
    }
    t.print("SN offset distributions (Figure 4)");

    let med_raw = median(&mut raw);
    let med_norm = median(&mut norm);
    progress!("\nmedian raw offset: {med_raw:.2} px");
    progress!("median offset / R_eff: {med_norm:.2}");
    progress!(
        "inside 1.5 half-light ellipse by construction: {}",
        if med_norm <= 1.5 {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );

    write_json(
        "fig4",
        &Fig4Result {
            raw_offset_px_histogram: raw_hist,
            normalised_offset_histogram: norm_hist,
            bin_edges_raw_px: (0..=BINS).map(|i| 20.0 * i as f64 / BINS as f64).collect(),
            bin_edges_normalised: (0..=BINS).map(|i| 3.0 * i as f64 / BINS as f64).collect(),
            median_raw_px: med_raw,
            median_normalised: med_norm,
        },
    );
}
