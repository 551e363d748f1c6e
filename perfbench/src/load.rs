//! Load generation and failure accounting.

use std::time::{Duration, Instant};

use scpm_serve::Response;

/// How one operation ended. Everything but `Ok` counts as failed, and a
/// failed operation misses every latency limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The server refused the connection or answered 503.
    Refused,
    /// Any other 5xx.
    ServerError,
    /// The client's socket timeout expired.
    Timeout,
    /// A 4xx to a well-formed request, or a body that differs from the
    /// expected output.
    Wrong,
    /// Any other transport error.
    Transport,
}

/// Classifies one request's result; `correct` judges a 200 response.
pub fn classify(
    result: &Result<Response, String>,
    correct: impl FnOnce(&Response) -> bool,
) -> Outcome {
    match result {
        Err(e) => {
            let e = e.to_ascii_lowercase();
            if e.contains("timed out") || e.contains("would block") || e.contains("temporarily") {
                Outcome::Timeout
            } else if e.contains("refused") {
                Outcome::Refused
            } else {
                Outcome::Transport
            }
        }
        Ok(r) if r.status == 503 => Outcome::Refused,
        Ok(r) if r.status >= 500 => Outcome::ServerError,
        Ok(r) if r.status != 200 || !correct(r) => Outcome::Wrong,
        Ok(_) => Outcome::Ok,
    }
}

/// Attempted and failed operations of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
        if outcome == Outcome::Refused {
            self.refused += 1;
        }
    }

    /// Counts an operation whose output check did not hold.
    pub fn check(&mut self, ok: bool) {
        self.record(if ok { Outcome::Ok } else { Outcome::Wrong });
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Timing of one open-loop operation, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// From the moment the operation was due until it completed: includes
    /// any wait that an earlier, slow operation imposed on it.
    pub latency: f64,
    /// How late the generator sent it.
    pub lateness: f64,
}

/// Runs `op(i)` on a fixed schedule, the `i`-th due `i · interval` after
/// the start, until the next due time passes `run_for`. One sender, so a
/// slow operation delays the ones due behind it; their latency counts
/// that wait.
pub fn open_loop(interval: Duration, run_for: Duration, mut op: impl FnMut(usize)) -> Vec<Timed> {
    let start = Instant::now();
    let mut out = Vec::new();
    for i in 0.. {
        let due = interval * i as u32;
        if due >= run_for {
            break;
        }
        let due = start + due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        op(i);
        let done = Instant::now();
        out.push(Timed {
            latency: (done - due).as_secs_f64(),
            lateness: (sent - due).as_secs_f64(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16) -> Result<Response, String> {
        Ok(Response {
            status,
            body: "{}".into(),
        })
    }

    #[test]
    fn every_failure_kind_counts_as_failed() {
        let cases = [
            (response(200), true, Outcome::Ok),
            (response(200), false, Outcome::Wrong),
            (response(422), true, Outcome::Wrong),
            (response(503), true, Outcome::Refused),
            (response(500), true, Outcome::ServerError),
            (Err("connection refused".into()), true, Outcome::Refused),
            (
                Err("Resource temporarily unavailable (os error 11)".into()),
                true,
                Outcome::Timeout,
            ),
            (Err("operation timed out".into()), true, Outcome::Timeout),
            (Err("broken pipe".into()), true, Outcome::Transport),
        ];
        let mut tally = Tally::default();
        for (result, ok, want) in cases {
            let got = classify(&result, |_| ok);
            assert_eq!(got, want, "{result:?}");
            tally.record(got);
        }
        assert_eq!(tally.attempted, 9);
        assert_eq!(tally.failed, 8);
        assert_eq!(tally.refused, 2);
        tally.check(false);
        assert_eq!(tally.failed, 9);
        assert!((tally.failed_frac() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn open_loop_latency_counts_wait_behind_a_stall() {
        let interval = Duration::from_millis(20);
        let timed = open_loop(interval, Duration::from_millis(100), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(70));
            }
        });
        assert_eq!(timed.len(), 5);
        // Operation 1 was due at 20 ms but could only be sent once
        // operation 0 finished at ≥ 70 ms: ≥ 50 ms late, and its latency,
        // measured from the due time, includes that wait.
        assert!(timed[1].lateness >= 0.045, "{:?}", timed[1]);
        assert!(timed[1].latency >= timed[1].lateness);
        // Latency from the due time is never below the send lateness.
        assert!(timed.iter().all(|t| t.latency >= t.lateness));
        // Once the backlog drains, operations go out on time again.
        assert!(timed[4].lateness < timed[1].lateness);
    }
}
