//! The untraced workload loops: closed-loop clients against the server,
//! and the in-process layered client.

use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use tqo_serve::Client;
use tqo_storage::Catalog;
use tqo_stratum::Stratum;

use crate::oracle::{Checker, Reference};
use crate::probe::{self, Probe};
use crate::workload::{table, Marker, Op, OpStream, Workload, WRITE_TABLE};

/// What a loop measured.
#[derive(Debug, Default)]
pub struct Tally {
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// Measured ops (reads and writes) completed in `elapsed`.
    pub ops: u64,
    /// Every op issued, warm-up included.
    pub attempted: u64,
    /// Errors, refusals and wrong answers.
    pub failed: u64,
    /// The measured time behind `ops_per_s`, at reference host speed when
    /// probed (probes excluded): served, the loop's wall time; layered, the
    /// ops' own time (answer checks excluded).
    pub elapsed: Duration,
    /// Every host-probe time taken during the measured run.
    pub probe_ms: Vec<f64>,
    /// `elapsed`, unscaled.
    pub raw_elapsed: Duration,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Count one measured op; `ms` excludes the answer check.
    fn record(&mut self, op: Op, ms: f64, ok: bool) {
        match op {
            Op::Read(_) => self.read_ms.push(ms),
            Op::Insert(_) | Op::Delete(_) => self.write_ms.push(ms),
        }
        self.ops += 1;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Run `f`, returning its result and wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Served runs pause for the host probe once per segment of this length.
const SEGMENT_SECS: f64 = 1.0;

/// Run `workload.clients` closed-loop clients against the server at
/// `addr` for `secs`: each connects, runs every query once unmeasured
/// (warm-up), waits for the others, then issues its seeded op sequence
/// back to back until the time is up, and finally deletes its marker row
/// if it still holds one.
///
/// With a probe, the run is cut into segments of about a second: at the
/// end of each, the clients finish the op in flight and wait while this
/// thread runs the probe, and every time in the segment (each op's
/// latency, and the segment's wall time behind `ops_per_s`) is scaled by
/// the probes on either side of it. Without one, the run is one unscaled
/// segment.
pub fn served(
    addr: SocketAddr,
    workload: &Workload,
    reads: &[String],
    seed: u64,
    secs: f64,
    refs: &[Reference],
    probe: Option<&Probe>,
) -> Tally {
    let segments = match probe {
        Some(_) => (secs / SEGMENT_SECS).ceil().max(1.0) as usize,
        None => 1,
    };
    let run = ServedRun {
        addr,
        workload,
        reads,
        seed,
        secs,
        refs,
        segments,
        barrier: Barrier::new(workload.clients + 1),
        factors: Mutex::new(Vec::with_capacity(segments)),
    };
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workload.clients)
            .map(|c| {
                let run = &run;
                s.spawn(move || run.client(c))
            })
            .collect();
        let mut before = probe.map(Probe::measure);
        // Warm-ups done.
        run.barrier.wait();
        for _ in 0..segments {
            let t = Instant::now();
            // Every client has ended the segment.
            run.barrier.wait();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let factor = match (probe, before) {
                (Some(p), Some(b)) => {
                    let after = p.measure();
                    total.probe_ms.push(after);
                    before = Some(after);
                    probe::scale(1.0, b, after)
                }
                _ => 1.0,
            };
            total.elapsed += Duration::from_secs_f64(wall_ms * factor / 1e3);
            total.raw_elapsed += Duration::from_secs_f64(wall_ms / 1e3);
            run.factors.lock().expect("no client panics").push(factor);
            // Resume the clients.
            run.barrier.wait();
        }
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total
}

/// What the clients of one served run share.
struct ServedRun<'a> {
    addr: SocketAddr,
    workload: &'a Workload,
    reads: &'a [String],
    seed: u64,
    secs: f64,
    refs: &'a [Reference],
    segments: usize,
    /// The clients and the coordinating thread.
    barrier: Barrier,
    /// Per finished segment, the factor its times are scaled by.
    factors: Mutex<Vec<f64>>,
}

impl ServedRun<'_> {
    fn client(&self, client: usize) -> Tally {
        let mut tally = Tally::default();
        let mut conn = match Client::connect(self.addr) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("perfbench: client {client}: {e}");
                tally.attempted += 1;
                tally.failed += 1;
                None
            }
        };
        let mut checker = Checker::new(self.refs.to_vec());
        if let Some(conn) = conn.as_mut() {
            for (q, sql) in self.reads.iter().enumerate() {
                let ok = conn.query(sql).is_ok_and(|r| checker.check(q, &r));
                tally.attempted += 1;
                tally.failed += u64::from(!ok);
            }
        }
        let mut ops = OpStream::new(self.workload, self.seed, client);
        let marker = ops.marker.clone();
        let reads = self.reads;
        let mut run = |conn: &mut Client, op: Op| {
            let (ms, ok) = match op {
                Op::Read(q) => {
                    let (r, ms) = timed(|| conn.query(&reads[q]));
                    (ms, r.is_ok_and(|r| checker.check(q, &r)))
                }
                Op::Insert(d) => {
                    let t = table(WRITE_TABLE, d);
                    let (r, ms) = timed(|| conn.insert(&t, marker.values(), Marker::period()));
                    (ms, r.is_ok())
                }
                Op::Delete(d) => {
                    let t = table(WRITE_TABLE, d);
                    let (r, ms) = timed(|| {
                        let name = marker.name.as_str().into();
                        conn.delete(&t, "EmpName", name, Marker::period())
                    });
                    (ms, r.is_ok())
                }
            };
            (op, ms, ok)
        };
        self.barrier.wait();
        let start = Instant::now();
        let mut segment = Vec::new();
        for k in 0..self.segments {
            let end =
                start + Duration::from_secs_f64(self.secs * (k + 1) as f64 / self.segments as f64);
            if let Some(conn) = conn.as_mut() {
                while Instant::now() < end {
                    let op = ops.next().expect("op streams are endless");
                    segment.push(run(conn, op));
                }
                if k + 1 == self.segments {
                    if let Some(op) = ops.closing() {
                        segment.push(run(conn, op));
                    }
                }
            }
            self.barrier.wait();
            self.barrier.wait();
            let factor = self.factors.lock().expect("no client panics")[k];
            for (op, ms, ok) in segment.drain(..) {
                tally.record(op, ms * factor, ok);
            }
        }
        tally
    }
}

/// One layered client: an unmeasured warm-up pass (the first pass of a
/// process pays the heap's first-touch page faults), then whole measured
/// passes over the mix through `Stratum::run_sql_optimized`, with the
/// writes after every query, until `secs` have passed (at least one pass).
/// Each pass writes an even number of times after every query, so it
/// leaves the table as it found it. The host probe runs after every op;
/// each op's time is scaled by the probes on either side of it (see
/// [`crate::probe`]).
#[allow(clippy::too_many_arguments)]
pub fn layered(
    stratum: &Stratum,
    catalog: &Catalog,
    workload: &Workload,
    reads: &[String],
    seed: u64,
    secs: f64,
    refs: &[Reference],
    probe: &Probe,
) -> Tally {
    let mut tally = Tally::default();
    let mut checker = Checker::new(refs.to_vec());
    let mut ops = OpStream::new(workload, seed, 0);
    let marker = ops.marker.clone();
    let mut before = probe.measure();
    let (mut busy_ms, mut raw_ms) = (0.0, 0.0);
    let mut start = Instant::now();
    let mut warm_up = true;
    loop {
        for _ in 0..ops.pass_len() {
            let op = ops.next().expect("op streams are endless");
            let (ms, ok) = match op {
                Op::Read(q) => {
                    let (r, ms) = timed(|| stratum.run_sql_optimized(&reads[q]));
                    (ms, r.is_ok_and(|(r, _, _)| checker.check(q, &r)))
                }
                Op::Insert(d) => {
                    let t = table(WRITE_TABLE, d);
                    let (r, ms) =
                        timed(|| catalog.insert_sequenced(&t, marker.values(), Marker::period()));
                    (ms, r.is_ok())
                }
                Op::Delete(d) => {
                    let t = table(WRITE_TABLE, d);
                    let (r, ms) = timed(|| {
                        catalog.delete_sequenced(&t, &marker.predicate(), Marker::period())
                    });
                    (ms, r.is_ok())
                }
            };
            let after = probe.measure();
            let scaled = probe::scale(ms, before, after);
            before = after;
            tally.probe_ms.push(after);
            busy_ms += scaled;
            raw_ms += ms;
            tally.record(op, scaled, ok);
        }
        if std::mem::take(&mut warm_up) {
            let attempted = tally.attempted;
            let failed = tally.failed;
            tally = Tally {
                attempted,
                failed,
                ..Tally::default()
            };
            (busy_ms, raw_ms) = (0.0, 0.0);
            start = Instant::now();
            continue;
        }
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    tally.elapsed = Duration::from_secs_f64(busy_ms / 1e3);
    tally.raw_elapsed = Duration::from_secs_f64(raw_ms / 1e3);
    tally
}
