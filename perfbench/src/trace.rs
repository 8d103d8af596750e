//! Spans recorded around calls into the program's public functions.
//!
//! The traced run wraps each layer call in [`Tracer::span`]; a span holds
//! its name, start, end, parent span and the training step (or serving
//! batch) it belongs to. Spans stay in memory until the run ends and are
//! then folded into per-step totals by name. A disabled tracer calls the
//! closure directly and records nothing, which is how the same code runs
//! untraced to measure the tracer's overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.conv2.bwd`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Step the span belongs to.
    pub step: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder, shareable across the data-parallel shards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent` for `step`; `f`
    /// receives the new span's id for its children (0 when off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        step: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer lock").push(Span {
            name,
            id,
            parent,
            step,
            start_ns,
            end_ns,
        });
        out
    }

    /// Removes and returns every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Per-step totals: for each span name, the summed duration (ms) of its
/// spans in each step, plus how many spans were recorded.
#[derive(Debug, Default, Clone)]
pub struct StepTotals {
    per_step: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    counts: BTreeMap<&'static str, u64>,
    steps: Vec<u64>,
}

impl StepTotals {
    /// Folds spans into per-step sums by name.
    pub fn of(spans: &[Span]) -> StepTotals {
        let mut t = StepTotals::default();
        for s in spans {
            *t.per_step
                .entry(s.name)
                .or_default()
                .entry(s.step)
                .or_default() += s.ms();
            *t.counts.entry(s.name).or_default() += 1;
            t.steps.push(s.step);
        }
        t.steps.sort_unstable();
        t.steps.dedup();
        t
    }

    /// Summed ms of `name` in `step` (0 when absent).
    pub fn get(&self, name: &str, step: u64) -> f64 {
        self.per_step
            .get(name)
            .and_then(|m| m.get(&step))
            .copied()
            .unwrap_or(0.0)
    }

    /// Per-step sums of `name` over every recorded step (0 in a step
    /// without such a span); empty when `name` was never recorded.
    pub fn series(&self, name: &str) -> Vec<f64> {
        if self.count(name) == 0 {
            return Vec::new();
        }
        self.steps.iter().map(|&s| self.get(name, s)).collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Self time of each span: its duration minus the part of it its
/// children cover (children of one span may overlap when they ran on
/// different shards; their union is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e6)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_nest_and_sum_per_step() {
        let t = Tracer::new(true);
        for step in 0..2 {
            t.span("outer", 0, step, |id| {
                t.span("inner", id, step, |_| ());
                t.span("inner", id, step, |_| ());
            });
        }
        let spans = t.take();
        assert_eq!(spans.len(), 6);
        let outer: Vec<&Span> = spans.iter().filter(|s| s.name == "outer").collect();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| outer.iter().any(|o| o.id == s.parent)));
        let totals = StepTotals::of(&spans);
        assert_eq!(totals.series("outer").len(), 2);
        assert_eq!(totals.count("inner"), 4);
        assert!(totals.series("missing").is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, start_ns, end_ns| Span {
            name: "s",
            id,
            parent,
            step: 0,
            start_ns,
            end_ns,
        };
        // Parent 0..10 ms with overlapping children 1..4 and 3..6 ms
        // (union 5 ms) and a child 8..9 ms: self time 4 ms.
        let spans = vec![
            mk(1, 0, 0, 10_000_000),
            mk(2, 1, 1_000_000, 4_000_000),
            mk(3, 1, 3_000_000, 6_000_000),
            mk(4, 1, 8_000_000, 9_000_000),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 4.0).abs() < 1e-9);
        assert!((st[&2] - 3.0).abs() < 1e-9);
    }
}
