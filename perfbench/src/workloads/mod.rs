//! The three workloads and what they share: seeded input derivation,
//! repeated set-up, and the measuring loop.

use std::time::Instant;

use crate::report::RunResult;

pub mod serve_joint;
pub mod train_classifier;
pub mod train_flux;
mod training;

/// Workloads the command runs. `BENCHMARK.json` gates a subset of them.
pub const WORKLOADS: [&str; 3] = ["train_flux", "train_classifier", "serve_joint"];

/// Times set-up is repeated in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
    /// When the process started.
    pub process_start: Instant,
}

/// Derives an independent seed for input stream `tag` from the run seed
/// (splitmix64 finaliser).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last state with the
/// durations in seconds. The first repetition is timed from process
/// start, so it also covers start-up.
pub fn repeated_setup<S>(spec: &RunSpec, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous state down (engines join their workers)
        // outside the timed interval.
        drop(state.take());
        let start = if rep == 0 {
            spec.process_start
        } else {
            Instant::now()
        };
        let s = setup();
        times.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    (state.expect("at least one set-up"), times)
}

/// Calls `unit` until `seconds` have passed since `start` and at least
/// `min_units` calls were made.
pub fn for_duration(start: Instant, seconds: f64, min_units: usize, mut unit: impl FnMut()) {
    let mut done = 0;
    while done < min_units || start.elapsed().as_secs_f64() < seconds {
        unit();
        done += 1;
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(name: &str, spec: &RunSpec) -> Result<RunResult, String> {
    let mut result = RunResult::new(name, spec.seed, spec.seconds, spec.trace);
    match name {
        "train_flux" => train_flux::run(spec, &mut result),
        "train_classifier" => train_classifier::run(spec, &mut result),
        "serve_joint" => serve_joint::run(spec, &mut result),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    result.set("peak_rss_mb", crate::host::peak_rss_mb(), None);
    result.set_named("failed_frac", "ratio", result.checks.failed_frac(), None);
    result.fill_absent_layers();
    Ok(result)
}
