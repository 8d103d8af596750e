//! What the two training workloads share: the timed repetition loop over
//! a public training entry point, and the per-layer table of a traced
//! mirror run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::{RunResult, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::{self_times, Span, StepTotals, Tracer};

use super::{for_duration, RunSpec};

/// Step ids at and above this mark validation passes, which are not
/// training steps.
pub const VALIDATION_STEPS: u64 = 1 << 48;

/// Runs `rep` for the measuring time (at least three times), then reports
/// `throughput_per_s` (training examples per wall second, validation
/// included) and `latency_p50_ms` (wall ms per optimizer step), and checks
/// that every repetition finished with finite losses and the same
/// parameters as the first.
pub fn timed_reps(
    spec: &RunSpec,
    result: &mut RunResult,
    examples_per_rep: usize,
    steps_per_rep: usize,
    mut rep: impl FnMut() -> Trained,
) {
    let mut reps: Vec<Trained> = Vec::new();
    for_duration(Instant::now(), spec.seconds, 3, || reps.push(rep()));
    let rates: Vec<f64> = reps.iter().map(|r| examples_per_rep as f64 / r.2).collect();
    let step_ms: Vec<f64> = reps
        .iter()
        .map(|r| r.2 * 1e3 / steps_per_rep as f64)
        .collect();
    let rate = Summary::of(&rates);
    result.set("throughput_per_s", rate.median, Some(rate));
    result.set_named("train_samples_per_s", "1/s", rate.median, Some(rate));
    result.set_median("latency_p50_ms", &step_ms);
    for (i, r) in reps.iter().enumerate() {
        result.checks.check(r.0.iter().all(|v| v.is_finite()), || {
            format!("rep {i}: non-finite loss")
        });
        result.checks.check(r.1 == reps[0].1, || {
            format!("rep {i}: final parameters differ from rep 0 at the same seed")
        });
    }
}

/// A training run: its per-epoch loss (and accuracy) record, the bit
/// patterns of its final parameters, and its wall time in seconds.
pub type Trained = (Vec<f64>, Vec<u32>, f64);

/// Checks that two loss records agree bit for bit.
fn check_losses(result: &mut RunResult, what: &str, mirror: &[f64], program: &[f64]) {
    let same = mirror.len() == program.len()
        && mirror
            .iter()
            .zip(program)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    result.checks.check(same, || {
        format!("{what}: traced mirror losses {mirror:?} differ from the program's {program:?}")
    });
}

/// The threads-1 contract: the traced mirror starts from the weights of
/// the program's constructor and reproduces `program_fn`'s record and
/// final parameters exactly.
pub fn check_mirror(
    result: &mut RunResult,
    program_fn: &str,
    same_init: bool,
    program: &Trained,
    mirror: &Trained,
) {
    result.checks.check(same_init, || {
        format!("mirror initial weights differ from the model {program_fn} trains")
    });
    check_losses(
        result,
        &format!("threads-1 {program_fn}"),
        &mirror.0,
        &program.0,
    );
    result.checks.check(mirror.1 == program.1, || {
        format!("threads-1 mirror final parameters differ from {program_fn}")
    });
}

/// The traced run: alternates an untraced `program_fn` epoch with a
/// traced mirror epoch on the same inputs until the measuring time is up.
/// Every mirror record must match the program's bit for bit, and the
/// ratio of their median wall times is the tracing overhead. Returns the
/// recorded spans.
pub fn traced_epochs(
    spec: &RunSpec,
    result: &mut RunResult,
    program_fn: &str,
    mut program: impl FnMut() -> Trained,
    mut mirror: impl FnMut(&Tracer, &mut u64) -> Trained,
) -> Vec<Span> {
    let tracer = Tracer::new(true);
    let mut next_step = 0u64;
    let mut runs = Vec::new();
    for_duration(Instant::now(), spec.seconds, 2, || {
        runs.push((program(), mirror(&tracer, &mut next_step)));
    });
    for (p, m) in &runs {
        check_losses(result, "traced epoch", &m.0, &p.0);
    }
    let program_ms: Vec<f64> = runs.iter().map(|(p, _)| p.2 * 1e3).collect();
    let traced_ms: Vec<f64> = runs.iter().map(|(_, m)| m.2 * 1e3).collect();
    let (program_ms, traced_ms) = (median(&program_ms), median(&traced_ms));
    result.set("trace.overhead_frac", traced_ms / program_ms - 1.0, None);
    result.notes.push(format!(
        "trace.overhead_frac compares a traced mirror epoch ({traced_ms:.2} ms median) with an \
         untraced {program_fn} epoch ({program_ms:.2} ms median) on the same inputs"
    ));
    tracer.take()
}

/// Fills the training rows of the per-layer table from a traced mirror
/// run. Layer times are per training step: the summed duration of the
/// layer's spans across all shards of the step, median over steps.
/// `conv_flops[i]` is conv block `i + 1`'s forward operation count per
/// step (backward counts twice that).
pub fn layer_table(result: &mut RunResult, spans: &[Span], conv_flops: Option<[f64; 3]>) {
    let train_spans: Vec<Span> = spans
        .iter()
        .copied()
        .filter(|s| s.step < VALIDATION_STEPS)
        .collect();
    let totals = StepTotals::of(&train_spans);
    for (metric, unit) in PER_LAYER {
        if unit == "ms" && metric.starts_with("nn.") && !metric.starts_with("nn.eval.") {
            result.set_median(metric, &totals.series(metric.trim_end_matches("_ms")));
        }
    }

    let stamps: Vec<f64> = train_spans
        .iter()
        .filter(|s| s.name == "render.stamp")
        .map(|s| s.ms() * 1e3)
        .collect();
    result.set("render.stamps", stamps.len() as f64, None);
    result.set_median("render.busy_ms", &totals.series("render.stamp"));
    result.set_median("render.stamp_us", &stamps);

    if let Some(flops) = conv_flops {
        for (i, f) in flops.iter().enumerate() {
            let fwd = totals.series(&format!("nn.conv{}.fwd", i + 1));
            let bwd = totals.series(&format!("nn.conv{}.bwd", i + 1));
            let rates: Vec<f64> = fwd
                .iter()
                .zip(&bwd)
                .filter(|(a, b)| *a + *b > 0.0)
                .map(|(a, b)| 3.0 * f / ((a + b) * 1e6))
                .collect();
            result.set_median(&format!("nn.conv{}.gflops", i + 1), &rates);
        }
    }

    result.set("optim.steps", totals.count("optim.adam") as f64, None);
    result.set_median("optim.adam_ms", &totals.series("optim.adam"));

    let own = self_times(&train_spans);
    let self_of = |name: &str| -> Vec<f64> {
        train_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| own[&s.id])
            .collect()
    };
    result.set_median("train.overhead_ms", &self_of("train.step"));
    result.set_median("parallel.step_ms", &totals.series("parallel.step"));
    result.set_median("parallel.overhead_ms", &self_of("parallel.step"));

    let mut shards: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in train_spans.iter().filter(|s| s.name == "parallel.shard") {
        shards.entry(s.step).or_default().push(s.ms());
    }
    let shard_max: Vec<f64> = shards
        .values()
        .map(|v| v.iter().copied().fold(0.0, f64::max))
        .collect();
    let imbalance: Vec<f64> = shards
        .values()
        .map(|v| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let max = v.iter().copied().fold(0.0, f64::max);
            if mean > 0.0 {
                max / mean - 1.0
            } else {
                0.0
            }
        })
        .collect();
    result.set_median("parallel.shard_max_ms", &shard_max);
    result.set_median("parallel.imbalance", &imbalance);

    // Share of the step's busy time (all shards, the optimizer and the
    // loop itself) each layer group takes, for the printed table.
    let med = |name: &str| result.metrics.get(name).map_or(0.0, |m| m.value);
    let shard_busy = totals.series("parallel.shard");
    if !shard_busy.is_empty() {
        let busy = median(&shard_busy) + med("optim.adam_ms") + med("train.overhead_ms");
        let group = |prefixes: &[&str]| -> f64 {
            PER_LAYER
                .iter()
                .filter(|(m, u)| *u == "ms" && prefixes.iter().any(|p| m.starts_with(p)))
                .map(|(m, _)| med(m))
                .sum()
        };
        for (label, ms) in [
            ("conv", group(&["nn.conv"])),
            ("bn/prelu/pool", group(&["nn.bn", "nn.prelu", "nn.pool"])),
            ("head+classifier", group(&["nn.head", "nn.clf"])),
            ("render", group(&["render.busy"])),
            ("optimizer", group(&["optim.adam"])),
        ] {
            result.notes.push(format!(
                "share of step busy time ({busy:.2} ms summed over shards): {label} {:.1}%",
                100.0 * ms / busy
            ));
        }
    }
}
