//! The named workloads and their seeded operation sequences.
//!
//! A workload fixes the data scale, the number of datasets, the read mix,
//! the write share and the number of clients. The seed fixes everything
//! else: the generated tables (`WorkloadGenerator::figure1_workload`, one
//! EMPLOYEE/PROJECT pair per dataset), the order in which each client walks
//! the read mix, and where its writes fall.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tqo_core::expr::Expr;
use tqo_core::time::Period;
use tqo_core::value::Value;

/// Every string value of a benchmark-owned row starts with this prefix;
/// no generated value does (`empN`, `dN`, `PN`), and it sorts after all
/// of them.
pub const MARKER_PREFIX: &str = "zzmark";

/// The table the write path mutates (in every dataset).
pub const WRITE_TABLE: &str = "EMPLOYEE";

/// The name of `base` (EMPLOYEE or PROJECT) in dataset `d`: dataset 0
/// keeps the plain names, the others carry a suffix.
pub fn table(base: &str, d: usize) -> String {
    if d == 0 {
        base.to_owned()
    } else {
        format!("{base}_{d}")
    }
}

/// The generator seed of dataset `d` (dataset 0 uses the run's seed).
/// Seeds of the other datasets are drawn from a generator, not offset
/// from the run's seed: the generator's state advances by a fixed step, so
/// offset seeds would replay the same stream a few draws apart.
pub fn dataset_seed(seed: u64, d: usize) -> u64 {
    if d == 0 {
        return seed;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    std::iter::repeat_with(|| rng.gen())
        .nth(d - 1)
        .expect("an endless stream")
}

/// How the workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop over TCP against an in-process `tqo_serve` server.
    Served,
    /// One in-process client through `Stratum::run_sql_optimized`.
    Layered,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `figure1_workload(scale)`: EMPLOYEE ≈ 42·scale rows.
    pub scale: usize,
    /// Independently generated EMPLOYEE/PROJECT pairs. Each read of the
    /// mix runs on every dataset in turn, so a run averages over several
    /// draws of the data instead of depending on one.
    pub datasets: usize,
    /// Client threads (served) or 1 (layered).
    pub clients: usize,
    /// Served: probability that an op is a write (an insert or a delete of
    /// the client's marker row). Layered: unused.
    pub write_prob: f64,
    /// Layered: writes (alternating insert/delete) after every query.
    pub writes_per_query: usize,
    pub queries: &'static [&'static str],
}

/// Short conventional and sequenced queries over a small catalog.
const SMALL_MIX: &[&str] = &[
    "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'd0'",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept HAVING n > 40",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE",
    "SELECT EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT",
    "SELECT EmpName, Dept FROM EMPLOYEE WHERE EmpName IN (SELECT EmpName FROM PROJECT WHERE Prj = 'P1')",
    "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept LIMIT 20",
    "VALIDTIME SELECT EmpName, Dept FROM EMPLOYEE WHERE T1 >= 20",
    "VALIDTIME SELECT Prj, COUNT(*) AS n FROM PROJECT GROUP BY Prj",
];

/// Scans, aggregations and wide results over a catalog well past L2. The
/// quadratic `VALIDTIME SELECT DISTINCT` and the IN-subquery are left out:
/// at this size one such request would take a large share of the run.
const LARGE_MIX: &[&str] = &[
    "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'd3'",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept HAVING n > 45",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'd7' COALESCE ORDER BY EmpName",
    "SELECT EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT",
    "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept LIMIT 20",
    "SELECT EmpName FROM EMPLOYEE",
    "VALIDTIME SELECT EmpName, Dept FROM EMPLOYEE WHERE T1 >= 20",
    "VALIDTIME SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
];

/// The paper's layered temporal queries, and a sequenced selection the
/// stratum pushes whole to the DBMS. The sequenced join and the `NOT IN`
/// query are left out: their exhaustive optimization reaches the
/// 4,096-plan cap and its time spreads too widely between runs for a
/// regression bound (see the README). An odd number of queries keeps the
/// median latency inside one query's cluster instead of on the edge
/// between two.
const LAYERED_MIX: &[&str] = &[
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT COALESCE ORDER BY EmpName",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE UNION VALIDTIME SELECT EmpName FROM PROJECT ORDER BY EmpName",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName",
    "VALIDTIME SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
    "VALIDTIME SELECT EmpName, Dept FROM EMPLOYEE WHERE T1 >= 20",
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_small",
        kind: Kind::Served,
        scale: 10,
        datasets: 8,
        clients: 2,
        write_prob: 0.01,
        writes_per_query: 0,
        queries: SMALL_MIX,
    },
    Workload {
        name: "serve_mixed_large",
        kind: Kind::Served,
        scale: 1000,
        datasets: 1,
        clients: 2,
        write_prob: 0.10,
        writes_per_query: 0,
        queries: LARGE_MIX,
    },
    Workload {
        name: "analytic_layered",
        kind: Kind::Layered,
        scale: 100,
        datasets: 4,
        clients: 1,
        write_prob: 0.0,
        writes_per_query: 2,
        queries: LAYERED_MIX,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The read mix over every dataset: entry `d · mix + q` is query `q`
    /// with its tables renamed to dataset `d`'s.
    pub fn reads(&self) -> Vec<String> {
        (0..self.datasets)
            .flat_map(|d| {
                self.queries.iter().map(move |sql| {
                    sql.replace("EMPLOYEE", &table("EMPLOYEE", d))
                        .replace("PROJECT", &table("PROJECT", d))
                })
            })
            .collect()
    }
}

/// One operation of a client's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run read `i` of [`Workload::reads`].
    Read(usize),
    /// Insert the client's marker row into dataset `d`'s EMPLOYEE.
    Insert(usize),
    /// Delete the client's marker row from dataset `d`'s EMPLOYEE.
    Delete(usize),
}

/// The client's marker row: `(EmpName, Dept)` values and validity. Its
/// name and department occur nowhere in the generated data, so it forms
/// its own group, joins nothing in PROJECT and sorts last; stripping it
/// leaves every other row of every query unchanged.
#[derive(Debug, Clone)]
pub struct Marker {
    pub name: String,
}

impl Marker {
    pub fn for_client(client: usize) -> Marker {
        Marker {
            name: format!("{MARKER_PREFIX}-c{client}"),
        }
    }

    pub fn values(&self) -> Vec<Value> {
        vec![Value::from(self.name.as_str()), Value::from(MARKER_PREFIX)]
    }

    pub fn period() -> Period {
        Period::of(1, 5)
    }

    /// The predicate `Catalog::delete_sequenced` removes the row with.
    pub fn predicate(&self) -> Expr {
        Expr::eq(
            Expr::col("EmpName"),
            Expr::lit(Value::from(self.name.as_str())),
        )
    }
}

/// A client's operation sequence, fixed by `(seed, client)`.
///
/// Served workloads walk a seed-permuted read order round-robin and turn
/// an op into a write with probability `write_prob`. The layered workload
/// runs passes over the reads in their listed order, with
/// `writes_per_query` writes after every read, on that read's dataset (its
/// seed fixes the data only). Writes alternate insert and delete of the
/// client's marker, so each pair leaves its table as it started;
/// [`OpStream::closing`] yields the delete still owed at the end.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
    mix_len: usize,
    datasets: usize,
    write_prob: f64,
    writes_per_query: usize,
    writes_due: usize,
    /// Dataset holding this client's marker row, if one is live.
    live: Option<usize>,
    /// Dataset the next insert goes to.
    next_pair: usize,
    pub marker: Marker,
}

impl OpStream {
    pub fn new(workload: &Workload, seed: u64, client: usize) -> OpStream {
        let mix_len = workload.queries.len();
        let mut order: Vec<usize> = (0..mix_len * workload.datasets).collect();
        if workload.kind == Kind::Served {
            shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
        }
        let rng = StdRng::seed_from_u64(dataset_seed(seed ^ 0x5EED_C11E, client + 1));
        // Clients walk the same order half a cycle apart, so they do not
        // run the same query in lockstep.
        let pos = client * order.len() / workload.clients.max(1);
        OpStream {
            rng,
            order,
            pos,
            mix_len,
            datasets: workload.datasets,
            write_prob: workload.write_prob,
            writes_per_query: workload.writes_per_query,
            writes_due: 0,
            live: None,
            next_pair: 0,
            marker: Marker::for_client(client),
        }
    }

    /// The op count of one pass over the read mix, writes included (the
    /// layered workload measures whole passes).
    pub fn pass_len(&self) -> usize {
        self.order.len() * (1 + self.writes_per_query)
    }

    fn write(&mut self) -> Op {
        match self.live.take() {
            Some(d) => Op::Delete(d),
            None => {
                let d = self.next_pair;
                self.next_pair = (d + 1) % self.datasets;
                self.live = Some(d);
                Op::Insert(d)
            }
        }
    }

    /// The delete that restores the table, if the last write was an
    /// insert.
    pub fn closing(&mut self) -> Option<Op> {
        self.live.take().map(Op::Delete)
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.writes_due > 0 {
            self.writes_due -= 1;
            return Some(self.write());
        }
        if self.write_prob > 0.0 && self.rng.gen::<f64>() < self.write_prob {
            return Some(self.write());
        }
        let read = self.order[self.pos];
        self.pos = (self.pos + 1) % self.order.len();
        if self.writes_per_query > 0 {
            self.writes_due = self.writes_per_query;
            self.next_pair = read / self.mix_len;
        }
        Some(Op::Read(read))
    }
}

fn shuffle(v: &mut [usize], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_is_fixed_by_seed_and_client() {
        let w = find("serve_mixed_large").unwrap();
        let a: Vec<Op> = OpStream::new(w, 7, 0).take(500).collect();
        let b: Vec<Op> = OpStream::new(w, 7, 0).take(500).collect();
        let c: Vec<Op> = OpStream::new(w, 8, 0).take(500).collect();
        let d: Vec<Op> = OpStream::new(w, 7, 1).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn writes_alternate_and_close() {
        let w = find("serve_small").unwrap();
        let mut s = OpStream::new(w, 3, 0);
        let writes: Vec<Op> = (&mut s)
            .take(20_000)
            .filter(|o| !matches!(o, Op::Read(_)))
            .collect();
        assert!(writes.len() > 100, "about a hundredth of ops are writes");
        for d in 0..w.datasets {
            assert!(
                writes.contains(&Op::Insert(d)),
                "pairs rotate over the datasets"
            );
        }
        for pair in writes.chunks(2) {
            match pair {
                [Op::Insert(a), Op::Delete(b)] => assert_eq!(a, b),
                [Op::Insert(_)] => {}
                other => panic!("writes pair up: {other:?}"),
            }
        }
        let closing = s.closing();
        assert_eq!(closing.is_some(), writes.len() % 2 == 1);
        assert_eq!(s.closing(), None);
    }

    #[test]
    fn layered_passes_run_the_mix_in_order_with_writes_between_queries() {
        let w = find("analytic_layered").unwrap();
        let mut s = OpStream::new(w, 11, 0);
        let n = s.pass_len();
        let pass: Vec<Op> = (&mut s).take(n).collect();
        let reads: Vec<usize> = pass
            .iter()
            .filter_map(|o| match o {
                Op::Read(q) => Some(*q),
                _ => None,
            })
            .collect();
        assert_eq!(reads, (0..w.reads().len()).collect::<Vec<_>>());
        // Each read is followed by its writes, on the read's dataset.
        for chunk in pass.chunks(1 + w.writes_per_query) {
            let Op::Read(r) = chunk[0] else {
                panic!("a read opens each chunk")
            };
            let d = r / w.queries.len();
            for pair in chunk[1..].chunks(2) {
                assert_eq!(pair, [Op::Insert(d), Op::Delete(d)]);
            }
        }
        assert_eq!(s.closing(), None, "an even number of writes per query");
    }

    #[test]
    fn dataset_seeds_are_distinct_and_fixed() {
        assert_eq!(dataset_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..8).map(|d| dataset_seed(7, d)).collect();
        assert_eq!(
            seeds,
            (0..8).map(|d| dataset_seed(7, d)).collect::<Vec<_>>()
        );
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                // Not a small offset of each other (one stream, shifted).
                assert!(a.abs_diff(*b) > 1 << 40);
            }
        }
    }

    #[test]
    fn reads_rename_tables_per_dataset() {
        let w = find("serve_small").unwrap();
        let reads = w.reads();
        assert_eq!(reads.len(), w.queries.len() * w.datasets);
        assert_eq!(reads[0], w.queries[0]);
        let q = w.queries.len();
        assert!(
            reads[q + 5].contains("FROM EMPLOYEE_1") && reads[q + 5].contains("FROM PROJECT_1")
        );
        assert!(!reads[q + 5].contains("EMPLOYEE "));
    }
}
