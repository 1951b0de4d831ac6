//! A host-speed probe for the layered workload.
//!
//! On a shared host the same code runs at different speeds from one
//! minute to the next: neighbours contend for the caches and memory
//! bandwidth. On a 2-vCPU VM the layered workload's passes took 1.9 s in
//! one stretch and 3.6 s in another, and a pointer chase over 8 MB ran
//! four times faster at some moments than at others, while a register-only
//! loop stayed within 10%. A run of 30 seconds lands in whichever stretch
//! it lands in, so its raw times spread between runs by more than any
//! usable regression bound.
//!
//! The probe is a fixed piece of work shaped like the engine's (clone,
//! sort and hash-deduplicate 4,096 rows of two strings and two integers),
//! run by the harness between the workload's operations. Each operation's
//! time is scaled by `REFERENCE_MS` over the probe's time measured around
//! it, so the layered workload reports what the operation would take on a
//! host running the probe in `REFERENCE_MS`. The probe is the harness's own
//! code: a change to the program changes the scaled times exactly as much
//! as it changes the raw ones.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The probe time the scaled times refer to: about what the probe takes
/// on the 2-vCPU host the figures in the README come from, in its usual
/// contended state, so scaled times read close to raw ones there.
pub const REFERENCE_MS: f64 = 4.0;

const ROWS: usize = 4096;
const TIMED_ROUNDS: usize = 3;

type Row = (String, String, i64, i64);

/// The probe's fixed input. Its seed is a constant, not the run's seed:
/// every run probes the same work.
pub struct Probe {
    rows: Vec<Row>,
    /// Threads the probe runs on at once: as many as the workload keeps
    /// busy, so that a slow vCPU the workload uses shows in the probe.
    threads: usize,
}

impl Probe {
    pub fn new(threads: usize) -> Probe {
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        let rows = (0..ROWS)
            .map(|_| {
                let t1 = rng.gen_range(0..100i64);
                (
                    format!("emp{}", rng.gen_range(0..1500u32)),
                    format!("d{}", rng.gen_range(0..40u32)),
                    t1,
                    t1 + rng.gen_range(1..50i64),
                )
            })
            .collect();
        Probe {
            rows,
            threads: threads.max(1),
        }
    }

    /// One round of the probe's work; returns a value that depends on all
    /// of it.
    fn round(&self) -> usize {
        let mut rows = self.rows.clone();
        rows.sort();
        let distinct: HashSet<(&str, i64)> = rows.iter().map(|r| (r.0.as_str(), r.2)).collect();
        distinct.len() + rows[0].0.len()
    }

    /// The probe's time in ms: the mean over its threads of each thread's
    /// time for the same work.
    pub fn measure(&self) -> f64 {
        if self.threads == 1 {
            return self.measure_here();
        }
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| s.spawn(|| self.measure_here()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .sum()
        });
        total / self.threads as f64
    }

    /// One thread's probe time: one untimed round to bring its data back
    /// into the caches the workload's last operation evicted it from, then
    /// the fastest of three timed rounds (robust to an interrupt landing in
    /// one), times three.
    fn measure_here(&self) -> f64 {
        black_box(self.round());
        let fastest = (0..TIMED_ROUNDS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.round());
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        fastest * TIMED_ROUNDS as f64
    }
}

/// `raw_ms` at reference host speed, given the probe's times before and
/// after the measured work.
pub fn scale(raw_ms: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    raw_ms * REFERENCE_MS / ((probe_before_ms + probe_after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        let (a, b) = (Probe::new(1), Probe::new(2));
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.round(), b.round());
        assert!(a.measure() > 0.0);
        assert!(b.measure() > 0.0);
    }

    #[test]
    fn scaling_maps_the_reference_probe_to_raw_time() {
        assert_eq!(scale(10.0, REFERENCE_MS, REFERENCE_MS), 10.0);
        // A host half as fast doubles both the work and the probe.
        assert_eq!(scale(20.0, 2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 10.0);
        assert_eq!(scale(15.0, REFERENCE_MS, 2.0 * REFERENCE_MS), 10.0);
    }
}
