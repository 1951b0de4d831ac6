//! The traced replay: the same seeded op sequence, run in-process on one
//! thread, calling the public functions the server and the stratum call,
//! in the same order, with a span around each call.
//!
//! * read (served workloads): `parser::parse` → `Table::stats` per scanned
//!   table (made explicit so a statistics miss is timed on its own; `bind`
//!   then hits the cache) → `binder::bind` → `lower` → `Catalog::env` →
//!   `Env::columnar` per scanned table → `Scheduler::run` →
//!   `encode_response` → `decode_response`
//! * read (layered workload): `parser::parse` → `Table::stats` →
//!   `binder::bind` → `make_layered` → `optimize` → `Stratum::run`
//! * write: `Catalog::insert_sequenced` / `Catalog::delete_sequenced`

use std::time::{Duration, Instant};

use tqo_core::context::QueryContext;
use tqo_core::cost::CostModel;
use tqo_core::error::Result;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::{LogicalPlan, PlanNode};
use tqo_core::relation::Relation;
use tqo_core::rules::RuleSet;
use tqo_exec::{lower, ExecMode, PlannerConfig, Scheduler, SubmitOptions};
use tqo_serve::protocol::{decode_response, encode_response};
use tqo_serve::Response;
use tqo_sql::{binder, parser};
use tqo_storage::Catalog;
use tqo_stratum::{make_layered, Stratum};

use crate::drive::Tally;
use crate::oracle::Checker;
use crate::spans::{Layer, Recorder};
use crate::workload::{table, Kind, Marker, Op, OpStream, Workload, WRITE_TABLE};

/// Sums the replay keeps besides spans (per-op means are taken later).
#[derive(Debug, Default)]
pub struct Sums {
    pub reads: u64,
    pub rows_out: u64,
    pub response_bytes: u64,
    pub plans: u64,
    pub truncated: u64,
    pub dbms: Duration,
    pub local: Duration,
    pub wire_rows: u64,
    pub wire_bytes: u64,
    pub fragments: u64,
}

/// What the replay calls into.
pub struct Target<'a> {
    pub workload: &'a Workload,
    /// [`Workload::reads`].
    pub reads: &'a [String],
    pub catalog: &'a Catalog,
    /// Served workloads: the scheduler standing in for the server's.
    pub scheduler: Option<&'a Scheduler>,
    /// Layered workload: the stratum.
    pub stratum: Option<&'a Stratum>,
    /// Base tables each read scans.
    pub tables: Vec<Vec<String>>,
}

/// Base tables a plan scans, in plan order, without repeats.
pub fn scanned_tables(plan: &LogicalPlan) -> Vec<String> {
    fn walk(node: &PlanNode, out: &mut Vec<String>) {
        if let PlanNode::Scan { name, .. } = node {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
        for c in node.children() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(&plan.root, &mut out);
    out
}

/// The optimizer configuration `Stratum::new` installs: exhaustive search,
/// cost model calibrated to the default engine, faithful algorithms.
fn stratum_optimizer() -> OptimizerConfig {
    OptimizerConfig {
        cost_model: CostModel::calibrated(ExecMode::default().engine()).with_fast_algorithms(false),
        ..OptimizerConfig::default()
    }
}

/// Replay the clients' op sequences, interleaved round-robin, for `secs`
/// (whole passes for the layered workload). Each answer is checked;
/// failures count and the replay goes on. Checks run outside every span.
pub fn replay(
    target: &Target,
    seed: u64,
    secs: f64,
    checker: &mut Checker,
    rec: &mut Recorder,
    sums: &mut Sums,
) -> Tally {
    let w = target.workload;
    let mut streams: Vec<OpStream> = (0..w.clients).map(|c| OpStream::new(w, seed, c)).collect();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut n = 0u64;
    let mut step = |client: usize, op: Op, tally: &mut Tally, rec: &mut Recorder| {
        rec.set_op(n);
        n += 1;
        let marker = Marker::for_client(client);
        let t0 = Instant::now();
        let ok = match op {
            Op::Read(q) => {
                let open = rec.enter(Layer::Bench, "read");
                let rows = read(target, q, rec, sums);
                rec.exit(open);
                tally.read_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                rows.is_ok_and(|rows| checker.check(q, &rows))
            }
            Op::Insert(d) => {
                let t = table(WRITE_TABLE, d);
                let open = rec.enter(Layer::Storage, "mutate");
                let r = target
                    .catalog
                    .insert_sequenced(&t, marker.values(), Marker::period());
                rec.exit(open);
                tally.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r.is_ok()
            }
            Op::Delete(d) => {
                let t = table(WRITE_TABLE, d);
                let open = rec.enter(Layer::Storage, "mutate");
                let r = target
                    .catalog
                    .delete_sequenced(&t, &marker.predicate(), Marker::period());
                rec.exit(open);
                tally.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r.is_ok()
            }
        };
        tally.ops += 1;
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    };
    let pass = match w.kind {
        Kind::Layered => streams[0].pass_len(),
        Kind::Served => 1,
    };
    'run: loop {
        for _ in 0..pass {
            for (c, s) in streams.iter_mut().enumerate() {
                let op = s.next().expect("op streams are endless");
                step(c, op, &mut tally, rec);
            }
        }
        if start.elapsed().as_secs_f64() >= secs {
            break 'run;
        }
    }
    for (c, s) in streams.iter_mut().enumerate() {
        if let Some(op) = s.closing() {
            step(c, op, &mut tally, rec);
        }
    }
    tally.elapsed = start.elapsed();
    tally
}

/// One read, spanned layer by layer; returns the answer. Every span it
/// opens is closed on every path.
fn read(target: &Target, q: usize, rec: &mut Recorder, sums: &mut Sums) -> Result<Relation> {
    let sql = &target.reads[q];
    let catalog = target.catalog;
    let statement = rec.span(Layer::Sql, "parse", || parser::parse(sql))?;
    for t in &target.tables[q] {
        let table = catalog.get(t)?;
        let name = if table.stats_cached() {
            "stats.hit"
        } else {
            "stats.miss"
        };
        rec.span(Layer::Storage, name, || table.stats());
    }
    let plan = rec.span(Layer::Sql, "bind", || binder::bind(&statement, catalog))?;
    let rows = match (target.scheduler, target.stratum) {
        (Some(scheduler), _) => {
            let mode = ExecMode::Batch;
            let physical = rec.span(Layer::Exec, "lower", || {
                lower(
                    &plan,
                    PlannerConfig {
                        mode,
                        ..PlannerConfig::default()
                    },
                )
            })?;
            let env = rec.span(Layer::Storage, "env", || catalog.env());
            for t in &target.tables[q] {
                rec.span(Layer::Exec, "columnar", || env.columnar(t))?;
            }
            let (rows, _metrics) = rec.span(Layer::Exec, "sched_run", || {
                scheduler.run(
                    &physical,
                    &env,
                    SubmitOptions {
                        ctx: QueryContext::new(),
                        mode,
                        ..SubmitOptions::default()
                    },
                )
            })?;
            sums.rows_out += rows.len() as u64;
            let frame = rec.span(Layer::Serve, "encode", || {
                encode_response(&Response::Rows(rows))
            });
            sums.response_bytes += frame.len() as u64;
            match rec.span(Layer::Serve, "decode", || decode_response(frame))? {
                Response::Rows(rows) => rows,
                Response::Fail(e) => return Err(e),
                other => {
                    return Err(tqo_core::error::Error::Storage {
                        reason: format!("unexpected response {other:?}"),
                    })
                }
            }
        }
        (None, Some(stratum)) => {
            let layered = rec.span(Layer::Stratum, "layer", || make_layered(&plan))?;
            let optimized = rec.span(Layer::Optimizer, "optimize", || {
                optimize(&layered, &RuleSet::standard(), &stratum_optimizer())
            })?;
            sums.plans += optimized.enumeration.plans.len() as u64;
            sums.truncated += u64::from(optimized.truncated);
            let (rows, m) = rec.span(Layer::Stratum, "run", || stratum.run(&optimized.best))?;
            sums.rows_out += rows.len() as u64;
            sums.dbms += m.dbms_time;
            sums.local += m.stratum_time;
            sums.wire_rows += m.transferred_rows as u64;
            sums.wire_bytes += m.transfer_bytes as u64;
            sums.fragments += m.fragments as u64;
            rows
        }
        (None, None) => unreachable!("a replay target has a scheduler or a stratum"),
    };
    sums.reads += 1;
    Ok(rows)
}
