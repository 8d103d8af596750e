//! Metric names, units, and the output of one run.
//!
//! Every run prints the host header, one line per metric (name, value,
//! unit, sample count, median and quartiles), the correctness failures,
//! and finally one JSON line holding `correct`, `attempted`, `failed` and
//! the metrics of the run's mode: the end-to-end set untraced, the
//! per-layer set traced. Each set is the same for every workload; a layer
//! a workload does not exercise reads 0.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::host::Host;
use crate::stats::Summary;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

const fn m(name: &'static str, unit: &'static str) -> (&'static str, &'static str) {
    (name, unit)
}

/// Per-layer metrics `(name, unit)`, from the traced run.
pub const PER_LAYER: [(&str, &str); 73] = [
    m("render.stamps", "count"),
    m("render.busy_ms", "ms"),
    m("render.stamp_us", "us"),
    m("nn.conv1.fwd_ms", "ms"),
    m("nn.conv1.bwd_ms", "ms"),
    m("nn.conv1.gflops", "GFLOP/s"),
    m("nn.conv2.fwd_ms", "ms"),
    m("nn.conv2.bwd_ms", "ms"),
    m("nn.conv2.gflops", "GFLOP/s"),
    m("nn.conv3.fwd_ms", "ms"),
    m("nn.conv3.bwd_ms", "ms"),
    m("nn.conv3.gflops", "GFLOP/s"),
    m("nn.bn1.fwd_ms", "ms"),
    m("nn.bn1.bwd_ms", "ms"),
    m("nn.bn2.fwd_ms", "ms"),
    m("nn.bn2.bwd_ms", "ms"),
    m("nn.bn3.fwd_ms", "ms"),
    m("nn.bn3.bwd_ms", "ms"),
    m("nn.prelu1.fwd_ms", "ms"),
    m("nn.prelu1.bwd_ms", "ms"),
    m("nn.prelu2.fwd_ms", "ms"),
    m("nn.prelu2.bwd_ms", "ms"),
    m("nn.prelu3.fwd_ms", "ms"),
    m("nn.prelu3.bwd_ms", "ms"),
    m("nn.pool1.fwd_ms", "ms"),
    m("nn.pool1.bwd_ms", "ms"),
    m("nn.pool2.fwd_ms", "ms"),
    m("nn.pool2.bwd_ms", "ms"),
    m("nn.pool3.fwd_ms", "ms"),
    m("nn.pool3.bwd_ms", "ms"),
    m("nn.eval.conv1.fwd_ms", "ms"),
    m("nn.eval.bn1.fwd_ms", "ms"),
    m("nn.eval.prelu1.fwd_ms", "ms"),
    m("nn.eval.pool1.fwd_ms", "ms"),
    m("nn.eval.conv2.fwd_ms", "ms"),
    m("nn.eval.bn2.fwd_ms", "ms"),
    m("nn.eval.prelu2.fwd_ms", "ms"),
    m("nn.eval.pool2.fwd_ms", "ms"),
    m("nn.eval.conv3.fwd_ms", "ms"),
    m("nn.eval.bn3.fwd_ms", "ms"),
    m("nn.eval.prelu3.fwd_ms", "ms"),
    m("nn.eval.pool3.fwd_ms", "ms"),
    m("nn.eval.head.fwd_ms", "ms"),
    m("nn.eval.clf.fwd_ms", "ms"),
    m("nn.head.fwd_ms", "ms"),
    m("nn.head.bwd_ms", "ms"),
    m("nn.clf.in.fwd_ms", "ms"),
    m("nn.clf.in.bwd_ms", "ms"),
    m("nn.clf.relu.fwd_ms", "ms"),
    m("nn.clf.relu.bwd_ms", "ms"),
    m("nn.clf.hw1.fwd_ms", "ms"),
    m("nn.clf.hw1.bwd_ms", "ms"),
    m("nn.clf.hw2.fwd_ms", "ms"),
    m("nn.clf.hw2.bwd_ms", "ms"),
    m("nn.clf.out.fwd_ms", "ms"),
    m("nn.clf.out.bwd_ms", "ms"),
    m("nn.loss_ms", "ms"),
    m("optim.adam_ms", "ms"),
    m("optim.steps", "count"),
    m("train.overhead_ms", "ms"),
    m("parallel.step_ms", "ms"),
    m("parallel.shard_max_ms", "ms"),
    m("parallel.overhead_ms", "ms"),
    m("parallel.imbalance", "ratio"),
    m("serve.batch_size", "requests"),
    m("serve.compute_ms", "ms"),
    m("serve.queue_wait_ms", "ms"),
    m("serve.shed", "count"),
    m("serve.latency_p99_ms", "ms"),
    m("serve.score_batch_ms.b1", "ms"),
    m("serve.score_batch_ms.b16", "ms"),
    m("serve.generator_late_ms", "ms"),
    m("trace.overhead_frac", "ratio"),
];

/// Unit of a declared metric.
///
/// # Panics
///
/// Panics if `name` is in neither set — every reported metric must be
/// declared.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// One reported figure with the samples it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Reported value (a median unless the name says otherwise).
    pub value: f64,
    /// Summary of the underlying samples, when there are several.
    pub summary: Option<Summary>,
}

/// Correctness bookkeeping: every check is one attempted operation.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed (shed, errored, wrong or non-deterministic).
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time asked for.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Where it ran.
    pub host: Host,
    /// Correctness checks.
    pub checks: Checks,
    /// Declared metrics, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Figures named by the workload's own vocabulary (for example
    /// `serve_p99_ms`), printed and kept in result files.
    pub named: BTreeMap<String, Metric>,
    /// Caveats printed with the figures.
    pub notes: Vec<String>,
}

impl RunResult {
    /// An empty result.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            host: Host::probe(),
            checks: Checks::default(),
            metrics: BTreeMap::new(),
            named: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Sets declared metric `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let unit = unit_of(name).to_string();
        self.metrics.insert(
            name.to_string(),
            Metric {
                name: name.to_string(),
                unit,
                value,
                summary,
            },
        );
    }

    /// Sets declared metric `name` to the median of `samples` (0 when
    /// there are none: the layer did no work in this workload).
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            self.set(name, 0.0, None);
        } else {
            let s = Summary::of(samples);
            self.set(name, s.median, Some(s));
        }
    }

    /// Records a figure under the workload's own name.
    pub fn set_named(&mut self, name: &str, unit: &str, value: f64, summary: Option<Summary>) {
        self.named.insert(
            name.to_string(),
            Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value,
                summary,
            },
        );
    }

    /// The declared set this run reports: end-to-end untraced, per-layer
    /// traced.
    pub fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Fills every declared metric the workload did not set with 0.
    pub fn fill_absent_layers(&mut self) {
        for (name, _) in self.declared() {
            if !self.metrics.contains_key(*name) {
                self.set(name, 0.0, None);
            }
        }
    }

    /// Human-readable lines: header, metrics, notes and failures.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![
            self.host.header(),
            format!(
                "# workload={} seed={} seconds={} trace={}",
                self.workload,
                self.seed,
                self.seconds,
                u8::from(self.trace)
            ),
        ];
        let fmt = |m: &Metric| match m.summary {
            Some(s) => format!(
                "{} = {} {} (n={} median={} q1={} q3={})",
                m.name, m.value, m.unit, s.n, s.median, s.q1, s.q3
            ),
            None => format!("{} = {} {}", m.name, m.value, m.unit),
        };
        for m in self.named.values() {
            out.push(format!("named {}", fmt(m)));
        }
        for (name, _) in self.declared() {
            if let Some(m) = self.metrics.get(*name) {
                out.push(format!("metric {}", fmt(m)));
            }
        }
        out.push(format!(
            "checks attempted={} failed={} failed_frac={}",
            self.checks.attempted,
            self.checks.failed,
            self.checks.failed_frac()
        ));
        for f in &self.checks.failures {
            out.push(format!("FAILED {f}"));
        }
        for n in &self.notes {
            out.push(format!("note: {n}"));
        }
        out
    }

    /// The last line of the run's output.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .declared()
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).map_or(f64::NAN, |m| m.value);
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.checks.failed == 0)),
            ("attempted".into(), Value::U64(self.checks.attempted.max(1))),
            ("failed".into(), Value::U64(self.checks.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&v).expect("result serialises")
    }

    /// The full record kept in result files (read by `compare`).
    pub fn record(&self) -> Value {
        let metric_json = |m: &Metric| {
            let mut fields = vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            if let Some(s) = m.summary {
                fields.push(("n".into(), Value::U64(s.n as u64)));
                fields.push(("median".into(), Value::F64(s.median)));
                fields.push(("q1".into(), Value::F64(s.q1)));
                fields.push(("q3".into(), Value::F64(s.q3)));
            }
            Value::Map(fields)
        };
        let map = |ms: &BTreeMap<String, Metric>| {
            Value::Map(
                ms.values()
                    .map(|m| (m.name.clone(), metric_json(m)))
                    .collect(),
            )
        };
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("seconds".into(), Value::F64(self.seconds)),
            ("trace".into(), Value::Bool(self.trace)),
            ("host".into(), self.host.to_json()),
            ("attempted".into(), Value::U64(self.checks.attempted)),
            ("failed".into(), Value::U64(self.checks.failed)),
            (
                "failures".into(),
                Value::Seq(
                    self.checks
                        .failures
                        .iter()
                        .cloned()
                        .map(Value::Str)
                        .collect(),
                ),
            ),
            ("metrics".into(), map(&self.metrics)),
            ("named".into(), map(&self.named)),
            (
                "notes".into(),
                Value::Seq(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn summary_line_carries_every_declared_metric() {
        let mut r = RunResult::new("w", 1, 1.0, false);
        r.checks.check(true, String::new);
        r.set("setup_s", 0.5, None);
        r.fill_absent_layers();
        let v: Value = serde_json::from_str(&r.summary_line()).expect("valid json");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = v.get("metrics").and_then(Value::as_map).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec: Value = serde_json::from_str(&text).expect("valid json");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        // Every gated workload is one the command runs.
        assert!(workloads
            .iter()
            .all(|w| crate::workloads::WORKLOADS.contains(w)));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "bad score".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failed_frac(), 0.5);
        assert_eq!(c.failures, vec!["bad score".to_string()]);
    }
}
