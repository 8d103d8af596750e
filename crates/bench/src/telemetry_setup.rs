//! Shared telemetry wiring for the experiment binaries.
//!
//! [`crate::start`] installs the sink its [`TelemetrySink`] names:
//! `--metrics-out <path>` streams JSONL events to that path, and
//! `SNIA_TELEMETRY=1` to `results/telemetry/<experiment>.jsonl`
//! (`SNIA_RESULTS_DIR` relocates `results/`).
//!
//! The returned guard flushes the sink and prints an end-of-run summary
//! table (p50/p90/p99 per histogram, plus counters and gauges) when it
//! drops. With neither toggle present, telemetry stays disabled and
//! instrumented code costs one atomic load per site.

use std::path::PathBuf;

use snia_core::config::TelemetrySink;
use snia_telemetry as telemetry;

use crate::report::{results_dir, Table};

/// Flushes telemetry and prints the summary table on drop.
#[must_use = "telemetry flushes when the guard drops; bind it with `let _telemetry = ...`"]
pub struct TelemetryGuard {
    jsonl_path: Option<PathBuf>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::emit_snapshot();
        print_summary(&telemetry::snapshot());
        telemetry::flush();
        if let Some(path) = &self.jsonl_path {
            println!("[telemetry events written to {}]", path.display());
        }
        telemetry::reset();
    }
}

/// Installs the JSONL sink `sink` names, if any, for `experiment` and returns the
/// guard that flushes and summarises on drop.
pub(crate) fn init(experiment: &str, sink: Option<&TelemetrySink>) -> TelemetryGuard {
    let path = match sink {
        None => return TelemetryGuard { jsonl_path: None },
        Some(TelemetrySink::File(path)) => path.clone(),
        Some(TelemetrySink::ResultsDir) => results_dir()
            .join("telemetry")
            .join(format!("{experiment}.jsonl")),
    };
    let jsonl_path = match telemetry::JsonlSink::create(&path) {
        Ok(sink) => {
            telemetry::install_sink(sink);
            telemetry::set_enabled(true);
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "warning: cannot open telemetry sink {}: {e}; telemetry stays off",
                path.display()
            );
            None
        }
    };
    TelemetryGuard { jsonl_path }
}

/// Renders the metrics snapshot as Markdown tables on stdout.
pub fn print_summary(snap: &telemetry::MetricsSnapshot) {
    if snap.histograms.is_empty() && snap.counters.is_empty() && snap.gauges.is_empty() {
        return;
    }
    if !snap.histograms.is_empty() {
        let mut t = Table::new(vec![
            "histogram",
            "count",
            "p50",
            "p90",
            "p99",
            "min",
            "max",
        ]);
        for h in &snap.histograms {
            let ns = h.name.ends_with("_ns");
            t.row(vec![
                h.name.clone(),
                h.count.to_string(),
                format_metric(h.p50, ns),
                format_metric(h.p90, ns),
                format_metric(h.p99, ns),
                format_metric(h.min, ns),
                format_metric(h.max, ns),
            ]);
        }
        t.print("telemetry: span & latency distributions");
    }
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        let mut t = Table::new(vec!["metric", "kind", "value"]);
        for (name, v) in &snap.counters {
            t.row(vec![name.clone(), "counter".into(), v.to_string()]);
        }
        for (name, v) in &snap.gauges {
            t.row(vec![name.clone(), "gauge".into(), format_metric(*v, false)]);
        }
        t.print("telemetry: counters & gauges");
    }
}

/// `1234.5 → "1.23 µs"` for nanosecond metrics, `"1234.5"` otherwise.
fn format_metric(v: f64, nanoseconds: bool) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    if !nanoseconds {
        return if v == v.trunc() && v.abs() < 1e15 {
            format!("{v}")
        } else {
            format!("{v:.4}")
        };
    }
    if v < 1_000.0 {
        format!("{v:.0} ns")
    } else if v < 1_000_000.0 {
        format!("{:.2} µs", v / 1_000.0)
    } else if v < 1_000_000_000.0 {
        format!("{:.2} ms", v / 1_000_000.0)
    } else {
        format!("{:.3} s", v / 1_000_000_000.0)
    }
}

/// Prints a progress line and mirrors it to the telemetry sink as a
/// `"progress"` record, so JSONL event streams interleave the narration
/// with spans and metrics.
pub fn emit_progress(msg: &str) {
    println!("{msg}");
    telemetry::record("progress", &msg.to_string());
}

/// `println!`-style progress reporting routed through telemetry (see
/// [`emit_progress`]).
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::telemetry_setup::emit_progress(&format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_metric_scales_ns() {
        assert_eq!(format_metric(420.0, true), "420 ns");
        assert_eq!(format_metric(4_200.0, true), "4.20 µs");
        assert_eq!(format_metric(4_200_000.0, true), "4.20 ms");
        assert_eq!(format_metric(4_200_000_000.0, true), "4.200 s");
        assert_eq!(format_metric(f64::NAN, true), "-");
        assert_eq!(format_metric(3.0, false), "3");
        assert_eq!(format_metric(0.97512, false), "0.9751");
    }

    #[test]
    fn summary_of_empty_snapshot_prints_nothing() {
        // Smoke test: must not panic on the all-empty snapshot.
        print_summary(&telemetry::MetricsSnapshot::default());
    }
}
