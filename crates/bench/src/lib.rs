//! # snia-bench
//!
//! Experiment regenerators for every table and figure in the paper's
//! evaluation section, plus Criterion micro-benchmarks for the hot paths.
//!
//! One binary per artifact (run with `cargo run --release -p snia-bench
//! --bin <name>`):
//!
//! | binary    | regenerates |
//! |-----------|-------------|
//! | `table1`  | Table 1 — flux-regression loss vs. input crop size |
//! | `table2`  | Table 2 — AUC comparison against the baselines |
//! | `fig3`    | Figure 3 — host spatial / photo-z distributions |
//! | `fig4`    | Figure 4 — SN position distribution around hosts |
//! | `fig5`    | Figure 5 — example reference/observation/difference stamps |
//! | `fig8`    | Figure 8 — true vs. estimated magnitudes |
//! | `fig9`    | Figure 9 — ROC vs. classifier hidden width |
//! | `fig10`   | Figure 10 — ROC vs. number of epochs |
//! | `fig11`   | Figure 11 — joint-model ROC |
//! | `fig12`   | Figure 12 — fine-tuning vs. from-scratch curves |
//! | `ablate`  | DESIGN.md ablations (log stretch, pooling, highway, sharing) |
//! | `bench_render` | BENCH_render.json — parallel generation + render-cache epochs |
//! | `bogus`   | extension: real/bogus vetting (Brink 2013 / Morii 2016) |
//! | `photometry` | extension: classical photometry vs. the flux CNN |
//! | `followup`  | extension: spectroscopy-budget purity at k |
//! | `throughput`| extension: survey-scale inference rate |
//! | `figures` | renders `results/*.json` into SVG under `results/figures/` |
//!
//! Every binary reads its flags and environment through [`start`] (see
//! `snia_core::config`), prints a Markdown table to stdout and writes a
//! JSON result file under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod report;
pub mod telemetry_setup;

pub use plot::{Chart, Series};
pub use report::{results_dir, write_json, Table};
pub use telemetry_setup::TelemetryGuard;

use snia_core::RunConfig;
use snia_dataset::cache;

/// Parses the process's flags and environment into a [`RunConfig`], points
/// the results directory, the render cache and telemetry at it, and
/// returns it with the guard that flushes telemetry on drop. A malformed
/// or unknown flag or variable is printed and exits with code 2.
pub fn start(experiment: &str) -> (RunConfig, TelemetryGuard) {
    let run = RunConfig::parse(std::env::args().skip(1), |name| std::env::var(name).ok())
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
    if let Some(dir) = &run.results_dir {
        report::set_results_dir(dir.clone());
    }
    if let Some(mb) = run.render_cache_mem_mb {
        cache::set_memory_cap(mb.saturating_mul(1024 * 1024));
    }
    if let Some(dir) = &run.render_cache {
        // Caching is an optimisation, never a hard failure.
        match cache::configure(Some(dir)) {
            Ok(()) => println!("[render cache at {}]", dir.display()),
            Err(e) => eprintln!("warning: render cache disabled ({}: {e})", dir.display()),
        }
    }
    let telemetry = telemetry_setup::init(experiment, run.telemetry.as_ref());
    (run, telemetry)
}
