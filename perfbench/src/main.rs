//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_small|serve_mixed_large|analytic_layered>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints every end-to-end
//! metric; `--trace 1` replays the same seeded op sequence in-process with
//! a span around every call into a layer and prints every per-layer
//! metric. Every answer is checked against the reference interpreter. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod oracle;
mod probe;
mod replay;
mod report;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use tqo_core::error::Result;
use tqo_core::relation::Relation;
use tqo_core::trace::counters;
use tqo_exec::{Scheduler, SchedulerConfig};
use tqo_serve::{serve, Server, ServerConfig};
use tqo_storage::{Catalog, WorkloadGenerator};
use tqo_stratum::Stratum;

use drive::Tally;
use oracle::{references, Checker, Reference};
use probe::Probe;
use replay::{replay, scanned_tables, Sums, Target};
use report::{describe, latency, median, result_line, Metric};
use spans::{Layer, Recorder};
use workload::{dataset_seed, table, Kind, Workload, WRITE_TABLE};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> std::result::Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::find(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The system under test, set up once.
struct Setup {
    catalog: Catalog,
    server: Option<Server>,
    stratum: Option<Stratum>,
}

/// Every dataset's EMPLOYEE/PROJECT pair in one catalog: dataset 0 as
/// generated, the others registered under their suffixed names.
fn generate(w: &Workload, seed: u64) -> Result<Catalog> {
    let catalog = WorkloadGenerator::new(seed).figure1_workload(w.scale)?;
    for d in 1..w.datasets {
        let more = WorkloadGenerator::new(dataset_seed(seed, d)).figure1_workload(w.scale)?;
        for base in ["EMPLOYEE", "PROJECT"] {
            catalog.register(table(base, d), more.get(base)?.relation().clone())?;
        }
    }
    Ok(catalog)
}

/// Data generation, table registration and server start (served) or
/// stratum construction (layered). The reference computation is not part
/// of it.
fn set_up(w: &Workload, seed: u64) -> Result<Setup> {
    let catalog = generate(w, seed)?;
    Ok(match w.kind {
        Kind::Served => Setup {
            server: Some(serve(catalog.clone(), ServerConfig::default())?),
            stratum: None,
            catalog,
        },
        Kind::Layered => Setup {
            stratum: Some(Stratum::new(catalog.clone())),
            server: None,
            catalog,
        },
    })
}

/// Set up `SETUP_REPEATS` times; keep the last, report the median time,
/// each scaled by the host probes on either side of it.
fn set_up_repeatedly(w: &Workload, seed: u64, probe: &Probe) -> Result<(Setup, Vec<f64>)> {
    let mut before = probe.measure();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Stop the previous server before timing the next start.
        drop(last.take());
        let t = Instant::now();
        let s = set_up(w, seed)?;
        let secs = t.elapsed().as_secs_f64();
        let after = probe.measure();
        times.push(probe::scale(secs, before, after));
        before = after;
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), times))
}

fn print_header(args: &Args, catalog: &Catalog) -> Result<()> {
    let w = args.workload;
    let rows = |base: &str| -> Result<usize> {
        (0..w.datasets)
            .map(|d| Ok(catalog.get(&table(base, d))?.len()))
            .sum()
    };
    println!(
        "workload {} seed {} scale {}: {} dataset(s), EMPLOYEE {} rows, PROJECT {} rows in dataset 0 \
         ({} and {} in all); {} queries per dataset; {} client(s); host parallelism {}",
        w.name,
        args.seed,
        w.scale,
        w.datasets,
        catalog.get("EMPLOYEE")?.len(),
        catalog.get("PROJECT")?.len(),
        rows("EMPLOYEE")?,
        rows("PROJECT")?,
        w.queries.len(),
        w.clients,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    Ok(())
}

/// Run the workload's own loop (untraced), times scaled by `probe`.
fn run_loop(
    setup: &Setup,
    args: &Args,
    reads: &[String],
    refs: &[Reference],
    probe: &Probe,
) -> Tally {
    let (w, seed, secs) = (args.workload, args.seed, args.seconds);
    match (&setup.server, &setup.stratum) {
        (Some(server), _) => drive::served(server.addr(), w, reads, seed, secs, refs, Some(probe)),
        (None, Some(stratum)) => {
            drive::layered(stratum, &setup.catalog, w, reads, seed, secs, refs, probe)
        }
        (None, None) => unreachable!("a set-up has a server or a stratum"),
    }
}

/// Every dataset's write table, to compare with after the run.
fn write_tables(w: &Workload, catalog: &Catalog) -> Result<Vec<Relation>> {
    (0..w.datasets)
        .map(|d| Ok(catalog.get(&table(WRITE_TABLE, d))?.relation().clone()))
        .collect()
}

/// True when every write table holds exactly its initial rows again.
fn tables_restored(w: &Workload, catalog: &Catalog, initial: &[Relation]) -> Result<bool> {
    Ok(write_tables(w, catalog)? == initial)
}

fn untraced(args: &Args) -> Result<String> {
    let w = args.workload;
    let probe = Probe::new(w.clients);
    let (mut setup, setup_times) = set_up_repeatedly(w, args.seed, &probe)?;
    print_header(args, &setup.catalog)?;
    let initial = write_tables(w, &setup.catalog)?;
    let reads = w.reads();
    let refs = references(&reads, &setup.catalog)?;
    rss::reset_peak();
    let mut tally = run_loop(&setup, args, &reads, &refs, &probe);
    let peak_rss_mb = rss::peak_mb();
    if let Some(mut server) = setup.server.take() {
        server.stop();
    }
    let restored = tables_restored(w, &setup.catalog, &initial)?;

    let metrics = end_to_end(&setup_times, &mut tally, peak_rss_mb);
    for m in &metrics {
        println!("{}", describe(m));
    }
    let failed = tally.failed + u64::from(!restored);
    let attempted = tally.attempted + 1;
    println!(
        "{}",
        describe(&Metric::new(
            "failed_frac",
            failed as f64 / attempted as f64,
            "ratio",
            attempted as usize
        ))
    );
    println!(
        "host probe: median {:.4} ms over {} probes (reference {} ms); times above are scaled to it; \
         unscaled ops_per_s {:.4}",
        median(&tally.probe_ms),
        tally.probe_ms.len(),
        probe::REFERENCE_MS,
        tally.ops as f64 / tally.raw_elapsed.as_secs_f64(),
    );
    println!(
        "check: {} wrong or failed of {} ops; every {WRITE_TABLE} table {} its initial contents",
        tally.failed,
        tally.attempted,
        if restored { "equals" } else { "DIFFERS FROM" }
    );
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
fn end_to_end(setup_times: &[f64], tally: &mut Tally, peak_rss_mb: f64) -> Vec<Metric> {
    tally.read_ms.sort_by(f64::total_cmp);
    tally.write_ms.sort_by(f64::total_cmp);
    vec![
        Metric::new("setup_s", median(setup_times), "s", setup_times.len()),
        Metric::new("ops_per_s", tally.ops_per_s(), "1/s", tally.ops as usize),
        latency("query_p50_ms", &tally.read_ms, 0.50),
        latency("query_p99_ms", &tally.read_ms, 0.99),
        latency("write_p50_ms", &tally.write_ms, 0.50),
        latency("write_p90_ms", &tally.write_ms, 0.90),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

const SMALL_P50: &str = "query_p50_ms on serve_small";
const LARGE_P50: &str = "query_p50_ms on serve_mixed_large";
const LARGE_P99: &str = "query_p99_ms on serve_mixed_large";
const SERVE_TAIL: &str = "query_p99_ms and failed on serve_small, serve_mixed_large";
const LAYERED_OPS: &str = "ops_per_s on analytic_layered";
const LARGE_W50: &str = "write_p50_ms on serve_mixed_large";
const SERVE_STORAGE: &str = "query_p50_ms and write_p50_ms on the serve workloads";

/// Per-layer metrics: name, unit, and the end-to-end metric each should
/// move (on which workload), in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.roundtrip_us", "us", SMALL_P50),
    ("serve.transport_us", "us", SMALL_P50),
    ("serve.encode_us", "us", LARGE_P50),
    ("serve.decode_us", "us", LARGE_P50),
    ("serve.response_bytes", "bytes", LARGE_P50),
    ("sql.parse_us", "us", SMALL_P50),
    ("sql.bind_us", "us", SMALL_P50),
    ("storage.env_us", "us", SMALL_P50),
    ("storage.stats_ms", "ms", LARGE_P99),
    ("storage.stats_hit_ratio", "ratio", LARGE_P99),
    ("storage.mutation_ms", "ms", LARGE_W50),
    ("exec.lower_us", "us", SMALL_P50),
    ("exec.columnar_us", "us", LARGE_P50),
    ("exec.sched_run_ms", "ms", LARGE_P50),
    ("exec.rows_out", "count", LARGE_P50),
    ("exec.sched_tasks", "count", SERVE_TAIL),
    ("exec.admission_rejected", "count", SERVE_TAIL),
    ("optimizer.optimize_ms", "ms", LAYERED_OPS),
    ("optimizer.plans", "count", LAYERED_OPS),
    ("optimizer.rules_fired", "count", LAYERED_OPS),
    ("optimizer.truncated_frac", "ratio", LAYERED_OPS),
    ("stratum.layer_us", "us", LAYERED_OPS),
    ("stratum.run_ms", "ms", LAYERED_OPS),
    ("stratum.dbms_ms", "ms", LAYERED_OPS),
    ("stratum.local_ms", "ms", LAYERED_OPS),
    ("stratum.wire_rows", "count", LAYERED_OPS),
    ("stratum.wire_bytes", "bytes", LAYERED_OPS),
    ("stratum.fragments", "count", LAYERED_OPS),
    ("self.bench_ms", "ms", "nothing: the harness's own time"),
    ("self.serve_ms", "ms", LARGE_P50),
    ("self.sql_ms", "ms", SMALL_P50),
    ("self.storage_ms", "ms", SERVE_STORAGE),
    ("self.exec_ms", "ms", LARGE_P50),
    ("self.optimizer_ms", "ms", LAYERED_OPS),
    ("self.stratum_ms", "ms", LAYERED_OPS),
    ("trace.untraced_ops_per_s", "1/s", "replay, no spans"),
    ("trace.ops_per_s", "1/s", "replay with spans"),
    ("trace.overhead_frac", "ratio", "tracing overhead"),
];

fn counter_deltas(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> BTreeMap<&'static str, u64> {
    before
        .iter()
        .zip(after)
        .map(|((name, b), (_, a))| (*name, a - b))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: for served workloads, a third of the time in the workload's
/// own loop (round trips, admission), then the in-process replay without
/// and with spans for a third each; for the layered workload, the replay
/// without and with spans for half each.
fn traced(args: &Args) -> Result<String> {
    let w = args.workload;
    let mut setup = set_up(w, args.seed)?;
    print_header(args, &setup.catalog)?;
    let initial = write_tables(w, &setup.catalog)?;
    let reads = w.reads();
    let refs = references(&reads, &setup.catalog)?;
    let tables = reads
        .iter()
        .map(|sql| Ok(scanned_tables(&tqo_sql::compile(sql, &setup.catalog)?)))
        .collect::<Result<Vec<_>>>()?;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let phase = match w.kind {
        Kind::Served => args.seconds / 3.0,
        Kind::Layered => args.seconds / 2.0,
    };
    if let Some(mut server) = setup.server.take() {
        let before = counters::snapshot();
        let served = drive::served(server.addr(), w, &reads, args.seed, phase, &refs, None);
        let deltas = counter_deltas(&before, &counters::snapshot());
        server.stop();
        let mean_ms = served.read_ms.iter().sum::<f64>() / served.read_ms.len().max(1) as f64;
        values.insert("serve.roundtrip_us", mean_ms * 1e3);
        values.insert("exec.admission_rejected", deltas["queries_rejected"] as f64);
        attempted += served.attempted;
        failed += served.failed;
    }

    let scheduler = (w.kind == Kind::Served).then(|| Scheduler::new(SchedulerConfig::default()));
    let target = Target {
        workload: w,
        reads: &reads,
        catalog: &setup.catalog,
        scheduler: scheduler.as_ref(),
        stratum: setup.stratum.as_ref(),
        tables,
    };
    let mut checker = Checker::new(refs);
    let plain = replay(
        &target,
        args.seed,
        phase,
        &mut checker,
        &mut Recorder::new(false),
        &mut Sums::default(),
    );
    let mut rec = Recorder::new(true);
    let mut sums = Sums::default();
    let before = counters::snapshot();
    let traced = replay(&target, args.seed, phase, &mut checker, &mut rec, &mut sums);
    let deltas = counter_deltas(&before, &counters::snapshot());
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    drop(scheduler);
    let restored = tables_restored(w, &setup.catalog, &initial)?;
    failed += u64::from(!restored);
    attempted += 1;

    // Per-span means.
    let by_name = rec.by_name();
    let mean = |name: &str, scale: f64| {
        by_name
            .get(name)
            .map_or(0.0, |(n, ns)| ratio(*ns as f64, *n as f64) * scale)
    };
    let total = |name: &str| by_name.get(name).map_or(0.0, |(_, ns)| *ns as f64);
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;
    let reads = sums.reads as f64;
    values.insert("serve.encode_us", mean("encode", US));
    values.insert("serve.decode_us", mean("decode", US));
    values.insert(
        "serve.response_bytes",
        ratio(sums.response_bytes as f64, reads),
    );
    if let Some(rt) = values.get("serve.roundtrip_us").copied() {
        values.insert("serve.transport_us", rt - mean("read", US));
    }
    values.insert("sql.parse_us", mean("parse", US));
    values.insert("sql.bind_us", mean("bind", US));
    values.insert("storage.env_us", mean("env", US));
    values.insert("storage.stats_ms", mean("stats.miss", MS));
    let hits = deltas["stats_cache_hits"] as f64;
    let misses = deltas["stats_cache_misses"] as f64;
    values.insert("storage.stats_hit_ratio", ratio(hits, hits + misses));
    values.insert("storage.mutation_ms", mean("mutate", MS));
    values.insert("exec.lower_us", mean("lower", US));
    values.insert("exec.columnar_us", ratio(total("columnar"), reads) * US);
    values.insert("exec.sched_run_ms", mean("sched_run", MS));
    values.insert("exec.rows_out", ratio(sums.rows_out as f64, reads));
    values.insert(
        "exec.sched_tasks",
        ratio(deltas["sched_tasks"] as f64, reads),
    );
    values.insert("optimizer.optimize_ms", mean("optimize", MS));
    values.insert("optimizer.plans", ratio(sums.plans as f64, reads));
    values.insert(
        "optimizer.rules_fired",
        ratio(deltas["rules_fired"] as f64, reads),
    );
    values.insert(
        "optimizer.truncated_frac",
        ratio(sums.truncated as f64, reads),
    );
    values.insert("stratum.layer_us", mean("layer", US));
    values.insert("stratum.run_ms", mean("run", MS));
    values.insert(
        "stratum.dbms_ms",
        ratio(sums.dbms.as_secs_f64() * 1e3, reads),
    );
    values.insert(
        "stratum.local_ms",
        ratio(sums.local.as_secs_f64() * 1e3, reads),
    );
    values.insert("stratum.wire_rows", ratio(sums.wire_rows as f64, reads));
    values.insert("stratum.wire_bytes", ratio(sums.wire_bytes as f64, reads));
    values.insert("stratum.fragments", ratio(sums.fragments as f64, reads));
    let self_ns = rec.self_ns();
    for layer in Layer::ALL {
        let ns = self_ns.get(&layer).copied().unwrap_or(0) as f64;
        values.insert(layer.self_metric(), ratio(ns, traced.ops as f64) * MS);
    }
    values.insert("trace.untraced_ops_per_s", plain.ops_per_s());
    values.insert("trace.ops_per_s", traced.ops_per_s());
    values.insert(
        "trace.overhead_frac",
        1.0 - ratio(traced.ops_per_s(), plain.ops_per_s()),
    );

    let samples = traced.ops as usize;
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, moves)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit, samples).note(format!("-> {moves}"))
        })
        .collect();
    for m in &metrics {
        println!("{}", describe(m));
    }
    let out = spans_path(w.name);
    rec.write_jsonl(&out)
        .and_then(|()| append_counters(&out, &deltas))
        .map_err(|e| tqo_core::error::Error::Storage {
            reason: format!("write {}: {e}", out.display()),
        })?;
    println!(
        "spans: {} written to {}; check: {failed} wrong or failed of {attempted} ops; {WRITE_TABLE} {}",
        rec.spans.len(),
        out.display(),
        if restored { "restored" } else { "NOT RESTORED" }
    );
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// Spans go to `out/` beside this package's manifest (inside the
/// checkout the benchmark was built in).
fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.jsonl"))
}

fn append_counters(path: &std::path::Path, deltas: &BTreeMap<&str, u64>) -> std::io::Result<()> {
    use std::io::Write;
    let body: Vec<String> = deltas
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    writeln!(f, "{{\"counter_deltas\": {{{}}}}}", body.join(", "))
}

/// Peak resident set size of this process, from `/proc/self`.
mod rss {
    /// Reset the peak to the current size so set-up and the reference
    /// computation do not count (Linux `clear_refs` value 5).
    pub fn reset_peak() {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// `VmHWM` in MB (0 where `/proc` is unavailable).
    pub fn peak_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in the repository's BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn traced_output_names_every_declared_per_layer_metric() {
        let emitted: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(declared("per_layer"), emitted);
        for (_, _, moves) in PER_LAYER {
            assert!(!moves.is_empty());
        }
    }

    #[test]
    fn untraced_output_names_every_declared_end_to_end_metric() {
        let mut tally = Tally {
            read_ms: vec![2.0, 1.0, 3.0],
            write_ms: vec![5.0],
            ops: 4,
            elapsed: std::time::Duration::from_secs(2),
            ..Tally::default()
        };
        let metrics = end_to_end(&[0.3, 0.1, 0.2], &mut tally, 10.0);
        let emitted: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(declared("end_to_end"), emitted);
        assert_eq!(metrics[0].value, 0.2, "setup_s is the median set-up");
        assert_eq!(metrics[1].value, 2.0, "ops per second");
        assert_eq!(metrics[2].value, 2.0, "median read");
        let line = result_line(true, 4, 0, &metrics);
        for name in emitted {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in Layer::ALL {
            assert!(PER_LAYER.iter().any(|m| m.0 == layer.self_metric()));
        }
    }

    #[test]
    fn declared_workloads_exist() {
        assert_eq!(
            declared("workloads"),
            workload::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
    }
}
