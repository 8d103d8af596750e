//! Figure 3: spatial distribution of host galaxies in the catalog vs. the
//! dataset (left), and their photo-z distributions (right).
//!
//! The paper's point: the sampled hosts cover the full COSMOS footprint
//! and trace the catalog's redshift distribution. We print both photo-z
//! histograms side by side and a coarse 2-D occupancy grid of the field.

use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_dataset::Dataset;
use snia_skysim::catalog::{FIELD_DEC_DEG, FIELD_RA_DEG, PHOTO_Z_RANGE};

#[derive(Serialize)]
struct Fig3Result {
    z_bins: Vec<f64>,
    catalog_z_hist: Vec<f64>,
    dataset_z_hist: Vec<f64>,
    catalog_grid_occupancy: f64,
    dataset_grid_occupancy: f64,
}

fn occupancy(points: &[(f64, f64)], grid: usize) -> f64 {
    let mut cells = vec![false; grid * grid];
    for &(ra, dec) in points {
        let fx = (ra - FIELD_RA_DEG.0) / (FIELD_RA_DEG.1 - FIELD_RA_DEG.0);
        let fy = (dec - FIELD_DEC_DEG.0) / (FIELD_DEC_DEG.1 - FIELD_DEC_DEG.0);
        let x = ((fx * grid as f64) as usize).min(grid - 1);
        let y = ((fy * grid as f64) as usize).min(grid - 1);
        cells[y * grid + x] = true;
    }
    cells.iter().filter(|&&c| c).count() as f64 / (grid * grid) as f64
}

fn main() {
    let (run, _telemetry) = snia_bench::start("fig3");
    let cfg = run.experiment;
    progress!(
        "# Figure 3 — host galaxy coverage (config: {:?})",
        cfg.dataset
    );
    let ds = Dataset::generate(&cfg.dataset);

    const BINS: usize = 10;
    let catalog_hist = ds.catalog.photo_z_histogram(BINS);
    let mut dataset_hist = vec![0usize; BINS];
    let (lo, hi) = PHOTO_Z_RANGE;
    for s in &ds.samples {
        let f = ((s.galaxy.photo_z - lo) / (hi - lo)).clamp(0.0, 1.0 - 1e-12);
        dataset_hist[(f * BINS as f64) as usize] += 1;
    }
    let norm = |h: &[usize]| {
        let total: usize = h.iter().sum();
        h.iter()
            .map(|&c| c as f64 / total as f64)
            .collect::<Vec<f64>>()
    };
    let cat_n = norm(&catalog_hist);
    let ds_n = norm(&dataset_hist);

    let mut t = Table::new(vec!["photo-z bin", "catalog fraction", "dataset fraction"]);
    let z_bins: Vec<f64> = (0..BINS)
        .map(|i| lo + (i as f64 + 0.5) * (hi - lo) / BINS as f64)
        .collect();
    for i in 0..BINS {
        t.row(vec![
            format!("{:.2}", z_bins[i]),
            format!("{:.3}", cat_n[i]),
            format!("{:.3}", ds_n[i]),
        ]);
    }
    t.print("Photo-z distributions (Figure 3 right)");

    let cat_pts: Vec<(f64, f64)> = ds
        .catalog
        .galaxies()
        .iter()
        .map(|g| (g.ra_deg, g.dec_deg))
        .collect();
    let ds_pts: Vec<(f64, f64)> = ds
        .samples
        .iter()
        .map(|s| (s.galaxy.ra_deg, s.galaxy.dec_deg))
        .collect();
    let cat_occ = occupancy(&cat_pts, 12);
    let ds_occ = occupancy(&ds_pts, 12);
    progress!("\nField coverage on a 12x12 grid (Figure 3 left):");
    progress!("  catalog occupancy: {:.1}%", 100.0 * cat_occ);
    progress!("  dataset occupancy: {:.1}%", 100.0 * ds_occ);

    // The paper's claim to check: "galaxies in both the catalog and the
    // dataset cover almost the entire COSMOS area of interest".
    let covered = ds_occ > 0.9;
    progress!(
        "  dataset covers the field: {}",
        if covered {
            "yes"
        } else {
            "NO (increase SNIA_SCALE)"
        }
    );

    write_json(
        "fig3",
        &Fig3Result {
            z_bins,
            catalog_z_hist: cat_n,
            dataset_z_hist: ds_n,
            catalog_grid_occupancy: cat_occ,
            dataset_grid_occupancy: ds_occ,
        },
    );
}
