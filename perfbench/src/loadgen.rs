//! Open-loop load generation with due-time latency.
//!
//! A generator thread sends request `i` at its *due* time (a seeded
//! Poisson schedule), whether or not earlier requests were answered, and
//! hands the pending answer to a collector (the calling thread), which
//! waits for answers in submission order. Latency runs from the due time,
//! not the send time, so a stall that delays the generator or queues
//! later requests is counted in every request it delays; how late the
//! generator sent each request is reported separately.
//!
//! The serving API has no poll, so the collector blocks on answers in
//! submission order: a request answered before an earlier one is recorded
//! when the earlier one completes. Latencies can therefore be overstated
//! by that head-of-line gap (at most the spread of one batch's
//! completion), never understated. [`HEAD_OF_LINE_NOTE`] states this in
//! the benchmark's output.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::Rng;

/// The caveat printed with every open-loop latency figure.
pub const HEAD_OF_LINE_NOTE: &str = "latency is timed from each request's due time; the \
collector waits for answers in submission order (the Ticket API has no poll), so a \
request answered before an earlier one can be overstated by that head-of-line gap";

/// A service the generator drives: `submit` sends request `i` and returns
/// a pending handle, `wait` blocks for its answer.
pub trait Service: Sync {
    /// In-flight request handle.
    type Pending: Send;
    /// The answer of one request.
    type Answer;
    /// Sends request `i`. An error counts the request as failed.
    fn submit(&self, i: usize) -> Result<Self::Pending, String>;
    /// Blocks until the request is answered.
    fn wait(&self, pending: Self::Pending) -> Result<Self::Answer, String>;
}

/// What one open-loop request came to.
#[derive(Debug, Clone)]
pub struct Outcome<A> {
    /// Answer time minus due time; `+∞` when the request failed or was
    /// shed.
    pub latency_ms: f64,
    /// How late the generator sent the request (send time minus due
    /// time).
    pub late_ms: f64,
    /// The answer, or why there is none.
    pub answer: Result<A, String>,
}

/// Offsets from the start of the run at which requests are due: a
/// Poisson process of `rate` requests per second, drawn from `rng`.
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn poisson_schedule<R: Rng>(rate: f64, n: usize, rng: &mut R) -> Vec<Duration> {
    assert!(rate > 0.0, "offered rate must be positive");
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Runs `schedule` against `svc` open-loop from two threads (generator
/// and collector) and returns one [`Outcome`] per request, in order.
pub fn run_open_loop<S: Service>(svc: &S, schedule: &[Duration]) -> Vec<Outcome<S::Answer>> {
    let (tx, rx) = mpsc::channel::<(Instant, f64, Result<S::Pending, String>)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            for (i, &offset) in schedule.iter().enumerate() {
                let due = start + offset;
                sleep_until(due);
                let sent = Instant::now();
                let late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
                let pending = svc.submit(i);
                if tx.send((due, late_ms, pending)).is_err() {
                    return;
                }
            }
        });
        let outcomes = rx
            .iter()
            .map(|(due, late_ms, pending)| {
                let answer = pending.and_then(|p| svc.wait(p));
                let latency_ms = match &answer {
                    Ok(_) => Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                    Err(_) => f64::INFINITY,
                };
                Outcome {
                    latency_ms,
                    late_ms,
                    answer,
                }
            })
            .collect();
        generator.join().expect("load generator thread panicked");
        outcomes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Mutex;

    /// A single FIFO server simulated in time: each request completes
    /// `service(i)` after the later of its submission and the previous
    /// completion. `submit_cost(i)` blocks the submitting thread.
    struct FakeServer {
        busy_until: Mutex<Option<Instant>>,
        service: fn(usize) -> Duration,
        submit_cost: fn(usize) -> Duration,
    }

    impl Service for FakeServer {
        type Pending = Instant;
        type Answer = usize;
        fn submit(&self, i: usize) -> Result<Instant, String> {
            std::thread::sleep((self.submit_cost)(i));
            let now = Instant::now();
            let mut busy = self.busy_until.lock().expect("fake server lock");
            let begin = busy.map_or(now, |b| b.max(now));
            let done = begin + (self.service)(i);
            *busy = Some(done);
            Ok(done)
        }
        fn wait(&self, done: Instant) -> Result<usize, String> {
            sleep_until(done);
            Ok(0)
        }
    }

    fn even_schedule(n: usize, gap_ms: u64) -> Vec<Duration> {
        (0..n)
            .map(|i| Duration::from_millis(gap_ms * i as u64))
            .collect()
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_offered_rate() {
        let a = poisson_schedule(200.0, 4000, &mut StdRng::seed_from_u64(3));
        let b = poisson_schedule(200.0, 4000, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 4000.0 / a.last().expect("nonempty").as_secs_f64();
        assert!((rate - 200.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn a_server_stall_is_counted_in_the_requests_queued_behind_it() {
        // Request 2 takes 60 ms; requests 3.. arrive every 5 ms and queue
        // behind it, so their due-time latency includes the stall even
        // though the generator sent each of them on time.
        let svc = FakeServer {
            busy_until: Mutex::new(None),
            service: |i| Duration::from_millis(if i == 2 { 60 } else { 0 }),
            submit_cost: |_| Duration::ZERO,
        };
        let out = run_open_loop(&svc, &even_schedule(8, 5));
        assert_eq!(out.len(), 8);
        assert!(out[0].latency_ms < 20.0, "{}", out[0].latency_ms);
        assert!(out[3].latency_ms >= 40.0, "{}", out[3].latency_ms);
        assert!(out[5].latency_ms >= 30.0, "{}", out[5].latency_ms);
        assert!(out.iter().all(|o| o.answer.is_ok()));
    }

    #[test]
    fn a_generator_stall_is_reported_as_lateness_and_counted_in_latency() {
        // Submitting request 1 blocks the generator for 50 ms, so requests
        // 2.. are sent late. Their latency is timed from the due time and
        // therefore includes the lateness.
        let svc = FakeServer {
            busy_until: Mutex::new(None),
            service: |_| Duration::ZERO,
            submit_cost: |i| Duration::from_millis(if i == 1 { 50 } else { 0 }),
        };
        let out = run_open_loop(&svc, &even_schedule(6, 5));
        assert!(out[0].late_ms < 20.0);
        assert!(out[2].late_ms >= 35.0, "late {}", out[2].late_ms);
        assert!(out[2].latency_ms >= out[2].late_ms);
        assert!(out[3].late_ms >= 30.0, "late {}", out[3].late_ms);
    }

    #[test]
    fn failed_submissions_count_as_infinite_latency() {
        struct Shedding;
        impl Service for Shedding {
            type Pending = ();
            type Answer = ();
            fn submit(&self, i: usize) -> Result<(), String> {
                if i.is_multiple_of(2) {
                    Ok(())
                } else {
                    Err("shed".into())
                }
            }
            fn wait(&self, _: ()) -> Result<(), String> {
                Ok(())
            }
        }
        let out = run_open_loop(&Shedding, &even_schedule(4, 1));
        assert!(out[0].latency_ms.is_finite());
        assert_eq!(out[1].latency_ms, f64::INFINITY);
        assert!(out[1].answer.is_err());
    }
}
