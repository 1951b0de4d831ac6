//! The correctness oracle: every answer is compared with the reference
//! interpreter's answer to the same query's *unoptimized* compiled plan on
//! the same data, under the query's `≡SQL` relation (`ResultType::admits`),
//! never by byte equality: `COALESCE ORDER BY EmpName` may legitimately
//! order ties differently from the interpreter.

use std::borrow::Cow;

use tqo_core::equivalence::ResultType;
use tqo_core::error::Result;
use tqo_core::interp;
use tqo_core::relation::Relation;
use tqo_core::tuple::Tuple;
use tqo_core::value::Value;
use tqo_storage::Catalog;

use crate::workload::MARKER_PREFIX;

/// The reference answer to one query.
#[derive(Debug, Clone)]
pub struct Reference {
    pub result_type: ResultType,
    pub rows: Relation,
}

/// Interpret each query's unoptimized plan over `catalog`'s current data.
pub fn references(queries: &[impl AsRef<str>], catalog: &Catalog) -> Result<Vec<Reference>> {
    let env = catalog.env();
    queries
        .iter()
        .map(|sql| {
            let plan = tqo_sql::compile(sql.as_ref(), catalog)?;
            Ok(Reference {
                rows: interp::eval(&plan.root, &env)?,
                result_type: plan.result_type,
            })
        })
        .collect()
}

fn is_marker(t: &Tuple) -> bool {
    t.values()
        .iter()
        .any(|v| matches!(v, Value::Str(s) if s.starts_with(MARKER_PREFIX)))
}

/// `r` without the rows derived from benchmark-owned marker rows, order
/// kept.
pub fn strip_markers(r: &Relation) -> Cow<'_, Relation> {
    if !r.tuples().iter().any(is_marker) {
        return Cow::Borrowed(r);
    }
    let kept = r
        .tuples()
        .iter()
        .filter(|t| !is_marker(t))
        .cloned()
        .collect();
    Cow::Owned(Relation::new_unchecked(r.schema().clone(), kept))
}

/// Checks one client's answers. An answer equal to the last answer that
/// passed for the same query passes without re-running `admits`.
#[derive(Debug, Clone)]
pub struct Checker {
    refs: Vec<Reference>,
    last_ok: Vec<Option<Relation>>,
}

impl Checker {
    pub fn new(refs: Vec<Reference>) -> Checker {
        let last_ok = vec![None; refs.len()];
        Checker { refs, last_ok }
    }

    /// True when `got`, markers stripped, is admitted by query `q`'s
    /// reference.
    pub fn check(&mut self, q: usize, got: &Relation) -> bool {
        let got = strip_markers(got);
        if self.last_ok[q].as_ref() == Some(&*got) {
            return true;
        }
        let r = &self.refs[q];
        let ok = r.result_type.admits(&r.rows, &got).unwrap_or(false);
        if ok {
            self.last_ok[q] = Some(got.into_owned());
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::Order;
    use tqo_core::tuple;
    use tqo_core::value::DataType;
    use tqo_storage::WorkloadGenerator;

    use crate::workload::Marker;

    fn rel(rows: Vec<Tuple>) -> Relation {
        Relation::new(
            Schema::of(&[("EmpName", DataType::Str), ("n", DataType::Int)]),
            rows,
        )
        .unwrap()
    }

    #[test]
    fn stripping_removes_only_marker_rows_and_keeps_order() {
        let r = rel(vec![
            tuple!["emp2", 1i64],
            tuple!["zzmark-c0", 1i64],
            tuple!["emp1", 2i64],
            tuple!["zzmark-c1", 3i64],
        ]);
        let s = strip_markers(&r);
        assert_eq!(*s, rel(vec![tuple!["emp2", 1i64], tuple!["emp1", 2i64]]));
        let clean = rel(vec![tuple!["emp1", 2i64]]);
        assert!(matches!(strip_markers(&clean), Cow::Borrowed(_)));
    }

    #[test]
    fn checker_uses_the_query_result_type() {
        let refs = vec![
            Reference {
                result_type: ResultType::Multiset,
                rows: rel(vec![tuple!["a", 1i64], tuple!["b", 2i64]]),
            },
            Reference {
                result_type: ResultType::List(Order::asc(&["EmpName"])),
                rows: rel(vec![tuple!["a", 1i64], tuple!["b", 2i64]]),
            },
        ];
        let mut c = Checker::new(refs);
        let swapped = rel(vec![tuple!["b", 2i64], tuple!["a", 1i64]]);
        assert!(c.check(0, &swapped), "a multiset admits any order");
        assert!(!c.check(1, &swapped), "a list fixes the EmpName order");
        let with_marker = rel(vec![
            tuple!["a", 1i64],
            tuple!["zzmark-c0", 9i64],
            tuple!["b", 2i64],
        ]);
        assert!(c.check(1, &with_marker));
        assert!(!c.check(0, &rel(vec![tuple!["a", 1i64]])));
    }

    /// With the markers of both clients present, every query of every
    /// workload still matches its marker-free reference once stripped.
    #[test]
    fn marker_rows_leave_every_other_row_unchanged() {
        for w in crate::workload::WORKLOADS {
            let catalog = WorkloadGenerator::new(5).figure1_workload(2).unwrap();
            let refs = references(w.queries, &catalog).unwrap();
            for client in 0..2 {
                let m = Marker::for_client(client);
                catalog
                    .insert_sequenced("EMPLOYEE", m.values(), Marker::period())
                    .unwrap();
            }
            let marked = references(w.queries, &catalog).unwrap();
            let mut checker = Checker::new(refs);
            for (q, r) in marked.iter().enumerate() {
                assert!(checker.check(q, &r.rows), "{}: {}", w.name, w.queries[q]);
            }
        }
    }
}
