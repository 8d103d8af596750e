//! Figure 5: example images — a reference (left), simulated observation
//! (middle) and their difference (right), for a low-z and a high-z sample.
//!
//! Writes PGM images under `results/fig5/` and prints ASCII previews.

use std::fs;

use snia_bench::progress;
use snia_dataset::Dataset;
use snia_lightcurve::Band;

fn dump_triplet(ds: &Dataset, sample_idx: usize, tag: &str, dir: &std::path::Path) {
    let s = &ds.samples[sample_idx];
    // Pick the observation where the SN is brightest in the i band.
    let (oi, _) = s
        .schedule
        .observations
        .iter()
        .enumerate()
        .filter(|(_, (b, _))| *b == Band::I)
        .min_by(|a, b| {
            let ma = s.true_mag(a.1 .0, a.1 .1);
            let mb = s.true_mag(b.1 .0, b.1 .1);
            ma.partial_cmp(&mb).unwrap()
        })
        .expect("i-band observation exists");
    let pair = s.flux_pair(oi);
    let diff = pair.observation.subtract(&pair.reference);

    let hi = pair.observation.max().max(1.0);
    fs::write(
        dir.join(format!("{tag}_reference.pgm")),
        pair.reference.to_pgm(-1.0, hi),
    )
    .unwrap();
    fs::write(
        dir.join(format!("{tag}_observation.pgm")),
        pair.observation.to_pgm(-1.0, hi),
    )
    .unwrap();
    fs::write(
        dir.join(format!("{tag}_difference.pgm")),
        diff.to_pgm(-hi / 4.0, hi / 4.0),
    )
    .unwrap();

    progress!(
        "\n### {tag}: sample {} ({}), z = {:.2}, true mag(i) = {:.2}",
        s.id,
        s.sn.sn_type,
        s.sn.redshift,
        pair.true_mag
    );
    progress!("reference:");
    print!("{}", pair.reference.to_ascii(32));
    progress!("observation:");
    print!("{}", pair.observation.to_ascii(32));
    progress!("difference:");
    print!("{}", diff.to_ascii(32));
}

fn main() {
    let (run, _telemetry) = snia_bench::start("fig5");
    let cfg = run.experiment;
    progress!("# Figure 5 — example stamps (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig5");
    fs::create_dir_all(&dir).expect("cannot create results/fig5");

    // A low-z and a high-z SNIa, as in the paper's figure.
    let low = ds
        .samples
        .iter()
        .position(|s| s.is_ia() && s.sn.redshift <= 1.0)
        .expect("a low-z Ia exists");
    let high = ds
        .samples
        .iter()
        .position(|s| s.is_ia() && s.sn.redshift > 1.0)
        .expect("a high-z Ia exists");
    dump_triplet(&ds, low, "low_z", &dir);
    dump_triplet(&ds, high, "high_z", &dir);

    progress!("\n[PGM images written to {}]", dir.display());
}
