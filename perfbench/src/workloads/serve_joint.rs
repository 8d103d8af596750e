//! `serve_joint`: joint-model alert scoring through the batching engine.
//!
//! Seeded Poisson open-loop arrivals of pre-rendered joint requests (five
//! 60×60 cutouts plus five dates) at the fixed [`OFFERED_RPS`], then a
//! saturating burst phase that queues [`BURST`] requests at once. The
//! engine runs `workers = nproc`, `max_batch` 16, `max_wait` 2 ms and a
//! queue large enough that nothing is shed. Evaluation-mode forward at
//! small batches plus queueing and batching; no backward pass, optimizer
//! or rendering in the measured path.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snia_core::joint::JointModel;
use snia_dataset::{cache, epoch_features, Dataset, DatasetConfig, SampleSpec, EPOCHS_PER_BAND};
use snia_nn::Tensor;
use snia_serve::{
    Engine, EngineConfig, ModelBundle, Request, RequestInput, Response, ServedModel, Ticket,
};

use crate::loadgen::{poisson_schedule, run_open_loop, Outcome, Service, HEAD_OF_LINE_NOTE};
use crate::mirror::{conv_forward_flops, Arch, Mirror};
use crate::report::{RunResult, PER_LAYER};
use crate::stats::{median, percentile, tail_is_reportable, Summary};
use crate::trace::{StepTotals, Tracer};

use super::{derive, for_duration, repeated_setup, RunSpec};

/// Cutout crop of the served model.
pub const CROP: usize = 60;
/// Hidden width of the joint model's classifier.
pub const HIDDEN: usize = 100;
/// Distinct pre-rendered requests; the load cycles through them.
pub const POOL: usize = 48;
/// Engine batch cap.
pub const MAX_BATCH: usize = 16;
/// Engine batching deadline.
pub const MAX_WAIT: Duration = Duration::from_millis(2);
/// The fixed open-loop offered rate, requests per second: about half of
/// the parent commit's `serve_peak_rps` on the reference host.
pub const OFFERED_RPS: f64 = 60.0;
/// Requests queued at once in one burst of the peak-rate phase.
pub const BURST: usize = 96;
/// Share of the measuring time spent in the open-loop phase (40 s gives
/// 1440 requests; a p99 needs 1000 to have 10 samples beyond it).
const OPEN_SHARE: f64 = 0.6;
/// Queue capacity: above any backlog either phase can build.
const QUEUE_CAP: usize = 1 << 16;

struct Setup {
    pool: Vec<RequestInput>,
    bundle: ModelBundle,
    model_seed: u64,
    engine: Engine,
}

fn request_input(s: &SampleSpec, k: usize) -> RequestInput {
    let images = s
        .epoch_obs_indices(k)
        .into_iter()
        .flat_map(|oi| cache::stamp_pixels(s, oi, CROP, true))
        .collect();
    RequestInput::Cutouts {
        images,
        dates: epoch_features(s, k).to_input()[5..].to_vec(),
    }
}

fn setup(seed: u64, workers: usize) -> Setup {
    cache::configure(None).expect("disabling the render cache touches no files");
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: POOL,
        catalog_size: 1000,
        seed: derive(seed, 21),
    });
    let model_seed = derive(seed, 22);
    let jm = JointModel::from_scratch(CROP, HIDDEN, &mut StdRng::seed_from_u64(model_seed));
    let bundle = ModelBundle::from_joint(&jm);
    let model = bundle
        .instantiate()
        .expect("a fresh bundle fits its own architecture");
    let pool = ds
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| request_input(s, i % EPOCHS_PER_BAND))
        .collect();
    let engine = Engine::start(
        model,
        EngineConfig {
            max_batch: MAX_BATCH,
            max_wait: MAX_WAIT,
            queue_cap: QUEUE_CAP,
            workers,
        },
    );
    let s = Setup {
        pool,
        bundle,
        model_seed,
        engine,
    };
    // Warm-up: every worker scores full batches before timing starts.
    let load = s.load();
    for ticket in (0..2 * MAX_BATCH * workers)
        .map(|i| load.submit(i))
        .collect::<Vec<_>>()
    {
        load.wait(ticket.expect("warm-up request accepted"))
            .expect("warm-up request answered");
    }
    s
}

/// A request's answer as the load generator collects it.
type Answer = Result<(usize, Response), String>;

/// The engine as the load generator sees it.
struct Load<'a> {
    engine: &'a Engine,
    pool: &'a [RequestInput],
}

impl Service for Load<'_> {
    type Pending = (usize, Ticket);
    type Answer = (usize, Response);
    fn submit(&self, i: usize) -> Result<(usize, Ticket), String> {
        let req = Request {
            id: i as u64,
            input: self.pool[i % self.pool.len()].clone(),
        };
        self.engine
            .submit(req)
            .map(|t| (i, t))
            .map_err(|e| e.to_string())
    }
    fn wait(&self, (i, ticket): (usize, Ticket)) -> Result<(usize, Response), String> {
        ticket.wait().map(|r| (i, r)).map_err(|e| e.to_string())
    }
}

impl Setup {
    fn load(&self) -> Load<'_> {
        Load {
            engine: &self.engine,
            pool: &self.pool,
        }
    }

    fn model(&self) -> ServedModel {
        self.bundle
            .instantiate()
            .expect("a fresh bundle fits its own architecture")
    }

    /// Each pool request scored alone by a directly called model.
    fn references(&self) -> Vec<u64> {
        let mut model = self.model();
        self.pool
            .iter()
            .map(|input| model.score_batch(&[input])[0].to_bits())
            .collect()
    }
}

/// Checks every answer against the request's reference score.
fn check_answers<'a>(
    result: &mut RunResult,
    refs: &[u64],
    answers: impl IntoIterator<Item = (usize, &'a Answer)>,
) {
    for (i, answer) in answers {
        let ok = match answer {
            Ok((j, r)) => *j == i && r.id == i as u64 && r.score.to_bits() == refs[i % refs.len()],
            Err(_) => false,
        };
        result.checks.check(ok, || match answer {
            Ok((_, r)) => format!(
                "request {i}: served score {} (id {}) differs from score_batch alone {}",
                r.score,
                r.id,
                f64::from_bits(refs[i % refs.len()])
            ),
            Err(e) => format!("request {i}: {e}"),
        });
    }
}

fn open_loop(spec: &RunSpec, s: &Setup, seconds: f64) -> Vec<Outcome<(usize, Response)>> {
    let n = (OFFERED_RPS * seconds).round().max(1.0) as usize;
    let schedule = poisson_schedule(
        OFFERED_RPS,
        n,
        &mut StdRng::seed_from_u64(derive(spec.seed, 23)),
    );
    run_open_loop(&s.load(), &schedule)
}

fn report_open_loop(result: &mut RunResult, outcomes: &[Outcome<(usize, Response)>]) {
    let latency: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
    let p50 = percentile(&latency, 0.5);
    let p99 = percentile(&latency, 0.99);
    let n = latency.len();
    result.set_named("serve_p50_ms", "ms", p50, None);
    result.set_named("serve_p99_ms", "ms", p99, None);
    result.set_named("serve_requests", "count", n as f64, None);
    result.set_named(
        "serve_generator_late_p99_ms",
        "ms",
        percentile(&late, 0.99),
        None,
    );
    if !tail_is_reportable(n, 0.99) {
        result.notes.push(format!(
            "serve_p99_ms has fewer than 10 of {n} samples beyond it; raise --seconds"
        ));
    }
    result.notes.push(format!(
        "open loop: {n} Poisson arrivals at {OFFERED_RPS} req/s, p50 and p99 by nearest rank, \
         failed or shed requests count as +inf"
    ));
    result.notes.push(HEAD_OF_LINE_NOTE.to_string());
}

/// Queues [`BURST`] requests at once, again and again until `seconds`
/// have passed since `start` (at least three times), and returns answered
/// requests per second of each burst with every request's answer.
fn bursts(s: &Setup, start: Instant, seconds: f64) -> (Vec<f64>, Vec<(usize, Answer)>) {
    let load = s.load();
    let mut rates = Vec::new();
    let mut answers = Vec::new();
    let mut next = 0usize;
    for_duration(start, seconds, 3, || {
        let t0 = Instant::now();
        let pending: Vec<_> = (next..next + BURST).map(|i| (i, load.submit(i))).collect();
        for (i, p) in pending {
            answers.push((i, p.and_then(|p| load.wait(p))));
        }
        rates.push(BURST as f64 / t0.elapsed().as_secs_f64());
        next += BURST;
    });
    (rates, answers)
}

/// Runs the workload.
pub fn run(spec: &RunSpec, result: &mut RunResult) {
    let workers = crate::host::nproc();
    let (s, setup_times) = repeated_setup(spec, || setup(spec.seed, workers));
    result.set_median("setup_s", &setup_times);
    if spec.trace {
        traced(spec, s, result);
        return;
    }
    let start = Instant::now();
    let outcomes = open_loop(spec, &s, spec.seconds * OPEN_SHARE);
    let (rates, burst_answers) = bursts(&s, start, spec.seconds);
    let refs = s.references();
    check_answers(
        result,
        &refs,
        outcomes.iter().enumerate().map(|(i, o)| (i, &o.answer)),
    );
    let open_failed = result.checks.failed;
    check_answers(result, &refs, burst_answers.iter().map(|(i, a)| (*i, a)));
    result.set_named("serve_open_failed", "count", open_failed as f64, None);
    result.set_named(
        "serve_burst_requests",
        "count",
        burst_answers.len() as f64,
        None,
    );
    result.set_named(
        "serve_burst_failed",
        "count",
        (result.checks.failed - open_failed) as f64,
        None,
    );

    report_open_loop(result, &outcomes);
    let p50 = result.named["serve_p50_ms"].value;
    result.set("latency_p50_ms", p50, None);
    let peak = Summary::of(&rates);
    result.set("throughput_per_s", peak.median, Some(peak));
    result.set_named("serve_peak_rps", "1/s", peak.median, Some(peak));
}

/// The traced run: the open loop with the engine's own `serve.*`
/// counters switched on, then `ServedModel::score_batch` timed directly
/// at batch 1 and 16 alternating with a traced joint mirror at batch 16.
fn traced(spec: &RunSpec, s: Setup, result: &mut RunResult) {
    let start = Instant::now();
    snia_telemetry::reset();
    snia_telemetry::set_enabled(true);
    let outcomes = open_loop(spec, &s, spec.seconds * OPEN_SHARE / 2.0);
    let snap = snia_telemetry::snapshot();
    snia_telemetry::reset();
    let refs = s.references();
    check_answers(
        result,
        &refs,
        outcomes.iter().enumerate().map(|(i, o)| (i, &o.answer)),
    );
    let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
    let mean = |name: &str| hist(name).map_or(0.0, |h| h.mean);
    result.set("serve.batch_size", mean("serve.batch_size"), None);
    result.set("serve.compute_ms", mean("serve.batch_ns") / 1e6, None);
    result.set(
        "serve.queue_wait_ms",
        ((mean("serve.latency_ns") - mean("serve.batch_ns")) / 1e6).max(0.0),
        None,
    );
    result.set(
        "serve.latency_p99_ms",
        hist("serve.latency_ns").map_or(0.0, |h| h.p99) / 1e6,
        None,
    );
    let shed = snap
        .counters
        .iter()
        .find(|(n, _)| n == "serve.shed_total")
        .map_or(0, |(_, v)| *v);
    result.set("serve.shed", shed as f64, None);
    let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
    result.set("serve.generator_late_ms", percentile(&late, 0.99), None);
    result.notes.push(
        "serve.queue_wait_ms is the engine's mean enqueue-to-answer latency minus its mean batch \
         compute time; serve.latency_p99_ms is the engine histogram's p99 (one log bucket, ~9%)"
            .to_string(),
    );
    let Setup {
        pool,
        bundle,
        model_seed,
        engine,
    } = s;
    engine.shutdown();

    let mut model = bundle
        .instantiate()
        .expect("a fresh bundle fits its own architecture");
    let mut mirror = Mirror::seeded(
        Arch::Joint {
            crop: CROP,
            hidden: HIDDEN,
        },
        model_seed,
    );
    let tracer = Tracer::new(true);
    let (mut b1, mut b16, mut traced16) = (Vec::new(), Vec::new(), Vec::new());
    let mut batch = 0u64;
    for_duration(start, spec.seconds, 3, || {
        let k = batch as usize;
        let one = &pool[k % POOL];
        let t0 = Instant::now();
        std::hint::black_box(model.score_batch(&[one]));
        b1.push(t0.elapsed().as_secs_f64() * 1e3);

        let inputs: Vec<&RequestInput> = (0..MAX_BATCH).map(|j| &pool[(k + j) % POOL]).collect();
        let t0 = Instant::now();
        let direct = model.score_batch(&inputs);
        b16.push(t0.elapsed().as_secs_f64() * 1e3);

        let (images, dates) = stack(&inputs);
        let t0 = Instant::now();
        let mirrored = mirror.forward_joint(&images, &dates, &tracer, batch);
        traced16.push(t0.elapsed().as_secs_f64() * 1e3);
        result.checks.check(
            direct
                .iter()
                .zip(&mirrored)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            || format!("batch {batch}: traced joint mirror scores differ from score_batch"),
        );
        batch += 1;
    });
    result.set_median("serve.score_batch_ms.b1", &b1);
    result.set_median("serve.score_batch_ms.b16", &b16);

    let totals = StepTotals::of(&tracer.take());
    for (metric, _) in PER_LAYER {
        if metric.starts_with("nn.eval.") {
            result.set_median(metric, &totals.series(metric.trim_end_matches("_ms")));
        }
    }
    for i in 0..3 {
        let ops = (5 * MAX_BATCH) as f64 * conv_forward_flops(i, CROP);
        let rates: Vec<f64> = totals
            .series(&format!("nn.eval.conv{}.fwd", i + 1))
            .iter()
            .map(|ms| ops / (ms * 1e6))
            .collect();
        result.set_median(&format!("nn.conv{}.gflops", i + 1), &rates);
    }
    result.set(
        "trace.overhead_frac",
        median(&traced16) / median(&b16) - 1.0,
        None,
    );
    result.notes.push(format!(
        "trace.overhead_frac compares a traced joint mirror forward ({:.2} ms median) with an \
         untraced score_batch ({:.2} ms median) on the same 16 requests; nn.conv*.gflops here \
         are evaluation-forward rates",
        median(&traced16),
        median(&b16)
    ));
}

/// Stacks joint requests into the `(5N, 1, S, S)` images and `(N, 5)`
/// dates `score_batch` builds.
fn stack(inputs: &[&RequestInput]) -> (Tensor, Tensor) {
    let mut images = Vec::new();
    let mut dates = Vec::new();
    for input in inputs {
        if let RequestInput::Cutouts {
            images: im,
            dates: d,
        } = input
        {
            images.extend_from_slice(im);
            dates.extend_from_slice(d);
        }
    }
    let n = inputs.len();
    (
        Tensor::from_vec(vec![5 * n, 1, CROP, CROP], images),
        Tensor::from_vec(vec![n, 5], dates),
    )
}
