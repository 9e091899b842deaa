//! The conventional-DBMS baseline (the paper's "MySQL" competitor).
//!
//! A textbook evaluator for SPC queries that models how MySQL 5.5/MyISAM
//! behaved in the paper's experiments:
//!
//! * **Constant-key index access**: when the constants of an atom cover the
//!   key columns of some declared index, matching rows are fetched through
//!   it — but as *full posting lists* (every duplicate, whole tuples), not
//!   bounded witness sets. This is the behaviour the paper found in MySQL's
//!   logs: "MySQL fetched entire tuples with irrelevant attributes, even
//!   with the index on X".
//! * **No index-nested-loop on join attributes** by default (MySQL 5.5 had
//!   no hash join and the paper's queries defeated its join buffering);
//!   atoms without a usable constant index are **fully scanned**. The
//!   [`BaselineMode::IndexJoin`] extension enables join-key probing for the
//!   ablation study.
//! * **Work budget**: the analogue of the paper's 2 500 s cap. All touched
//!   rows (scans, index fetches, intermediate join rows) count; exceeding
//!   the budget aborts with a "did not finish" outcome — the missing MySQL
//!   points in Figure 5.
//!
//! The data plane is the shared [`crate::pipeline`]: the baseline only
//! chooses *access paths* (table scan or full index postings, fetched
//! column-major); filtering, joining, projecting, and all metering are the
//! same interpreter `evalDQ` runs. [`baseline_interpreted`] swaps that tail
//! for the query-walking reference — same fetches, same charges — as the
//! differential oracle.

use crate::pipeline::{run_query_columnar, BudgetExhausted, ExecContext, Fetch, FetchSource};
use crate::reference;
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::ebcheck::xq_cols;
use bcq_core::error::Result;
use bcq_core::prelude::{ColumnBatch, QAttr, RowBuf, SpcQuery, Value};
use bcq_core::sigma::Sigma;
use bcq_storage::{Database, Meter};
use std::time::{Duration, Instant};

/// How much help the baseline gets from the declared indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaselineMode {
    /// Pure scans — no index use at all (lower bound on DBMS competence).
    FullScan,
    /// Indices used for constant-bound keys only (the paper's MySQL).
    #[default]
    ConstIndex,
    /// Additionally probe indices with join keys bound by earlier atoms
    /// (a more modern optimizer; ablation only).
    IndexJoin,
}

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct BaselineOptions {
    /// Index usage mode.
    pub mode: BaselineMode,
    /// Work budget in touched rows; `None` runs to completion.
    pub work_budget: Option<u64>,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            mode: BaselineMode::ConstIndex,
            work_budget: None,
        }
    }
}

/// Outcome of a baseline run.
#[derive(Debug, Clone)]
pub enum BaselineOutcome {
    /// Finished within budget.
    Completed {
        /// The exact answer.
        result: ResultSet,
        /// Work accounting.
        meter: Meter,
        /// Wall-clock time.
        elapsed: Duration,
    },
    /// Budget exhausted — the paper's "could not finish within 2 500 s".
    DidNotFinish {
        /// Work done before giving up.
        meter: Meter,
        /// Wall-clock time until the abort.
        elapsed: Duration,
    },
}

impl BaselineOutcome {
    /// The result if the run completed.
    pub fn result(&self) -> Option<&ResultSet> {
        match self {
            BaselineOutcome::Completed { result, .. } => Some(result),
            BaselineOutcome::DidNotFinish { .. } => None,
        }
    }

    /// Work accounting (either way).
    pub fn meter(&self) -> &Meter {
        match self {
            BaselineOutcome::Completed { meter, .. } => meter,
            BaselineOutcome::DidNotFinish { meter, .. } => meter,
        }
    }

    /// Wall-clock time (either way).
    pub fn elapsed(&self) -> Duration {
        match self {
            BaselineOutcome::Completed { elapsed, .. } => *elapsed,
            BaselineOutcome::DidNotFinish { elapsed, .. } => *elapsed,
        }
    }

    /// `true` if the run completed.
    pub fn finished(&self) -> bool {
        matches!(self, BaselineOutcome::Completed { .. })
    }
}

/// Evaluates `q` on `db` the conventional way.
///
/// `a` supplies the available indices (the paper gave MySQL "all the indices
/// specified in A"); build them with `db.build_indexes(&a)` first.
pub fn baseline(
    db: &Database,
    q: &SpcQuery,
    a: &AccessSchema,
    opts: BaselineOptions,
) -> Result<BaselineOutcome> {
    baseline_impl(db, q, a, opts, true)
}

/// [`baseline`] with the query-walking reference instead of a compiled
/// program — the differential-testing oracle. Semantically identical
/// (access-path choice and fetching are shared; only the
/// filter/semijoin/join/project tail differs in how it derives its shape).
pub fn baseline_interpreted(
    db: &Database,
    q: &SpcQuery,
    a: &AccessSchema,
    opts: BaselineOptions,
) -> Result<BaselineOutcome> {
    baseline_impl(db, q, a, opts, false)
}

fn baseline_impl(
    db: &Database,
    q: &SpcQuery,
    a: &AccessSchema,
    opts: BaselineOptions,
    compiled: bool,
) -> Result<BaselineOutcome> {
    q.require_ground()?;
    let start = Instant::now();
    let mut ctx = ExecContext::new(db, opts.work_budget);
    let sigma = Sigma::build(q);
    if !sigma.is_satisfiable() {
        return Ok(BaselineOutcome::Completed {
            result: ResultSet::empty(),
            meter: ctx.meter,
            elapsed: start.elapsed(),
        });
    }

    // Columns each atom needs downstream: its `X^i_Q` (joins, filters and
    // projection). Fetched rows are *charged* as whole tuples
    // (rows_scanned / tuples_fetched count full rows) but materialized
    // projected — the charge models MySQL, the projection keeps our
    // harness's memory sane. An atom without parameters is fetched
    // zero-width: a batch counts its rows without any column.
    let needed_cols: Vec<Vec<usize>> = (0..q.num_atoms())
        .map(|atom| xq_cols(q, &sigma, atom))
        .collect();

    let mut batches: Vec<ColumnBatch> = Vec::with_capacity(q.num_atoms());
    #[allow(clippy::needless_range_loop)]
    for atom in 0..q.num_atoms() {
        let rel = q.relation_of(atom);
        let table = db.table(rel);
        let cols = needed_cols[atom].as_slice();

        // Constant-bound columns of this atom. A constant the symbol table
        // has never seen stays as `None`: it matches nothing, but the scan
        // that discovers that is still charged.
        let const_cols: Vec<(usize, Value)> = (0..q.arity_of(atom))
            .filter_map(|col| {
                let cls = sigma.class_of_flat(q.flat_id(QAttr::new(atom, col)));
                sigma.class(cls).constant.clone().map(|v| (col, v))
            })
            .collect();

        // Pick an index whose key columns are all constant-bound (largest
        // key first — most selective).
        let index_choice = if opts.mode == BaselineMode::FullScan {
            None
        } else {
            a.for_relation(rel)
                .iter()
                .filter(|&&cid| {
                    let c = a.constraint(cid);
                    !c.x().is_empty()
                        && c.x()
                            .iter()
                            .all(|xc| const_cols.iter().any(|(cc, _)| cc == xc))
                        && db.index_for(c).is_some()
                })
                .max_by_key(|&&cid| a.constraint(cid).x().len())
                .copied()
        };

        let source = match index_choice {
            Some(cid) => {
                let c = a.constraint(cid);
                let key: Option<RowBuf> = c
                    .x()
                    .iter()
                    .map(|xc| {
                        let v = &const_cols
                            .iter()
                            .find(|(cc, _)| cc == xc)
                            .expect("key cols are constant-bound")
                            .1;
                        db.symbols().try_encode(v)
                    })
                    .collect();
                FetchSource::IndexPostings {
                    index: db.index_for(c).expect("checked above"),
                    table,
                    key,
                }
            }
            None => FetchSource::Scan {
                table,
                consts: const_cols
                    .iter()
                    .map(|(col, v)| (*col, db.symbols().try_encode(v)))
                    .collect(),
            },
        };
        match (Fetch { atom, cols, source }).run_columns(&mut ctx) {
            Ok(batch) => batches.push(batch),
            Err(BudgetExhausted) => {
                return Ok(BaselineOutcome::DidNotFinish {
                    meter: ctx.meter,
                    elapsed: start.elapsed(),
                });
            }
        }
    }

    // The baseline is the ad-hoc competitor, so its program is compiled
    // per call (for prepared queries the serving layer compiles once and
    // reuses). IndexJoin mode: re-fetching atoms lazily through join-key
    // indices is approximated by pre-restricting candidates with
    // semijoins; the join itself is the shared interpreter either way.
    let semijoin = opts.mode == BaselineMode::IndexJoin;
    let joined = if compiled {
        run_query_columnar(q, &sigma, &needed_cols, batches, semijoin, &mut ctx)
    } else {
        reference::join_project(q, &sigma, &batches, semijoin, &mut ctx)
    };
    match joined {
        Ok(result) => Ok(BaselineOutcome::Completed {
            result,
            meter: ctx.meter,
            elapsed: start.elapsed(),
        }),
        Err(BudgetExhausted) => Ok(BaselineOutcome::DidNotFinish {
            meter: ctx.meter,
            elapsed: start.elapsed(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::*;
    use std::sync::Arc;

    fn example1() -> (Database, AccessSchema, SpcQuery) {
        let catalog = Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap();
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
            .unwrap();
        let mut db = Database::new(Arc::clone(&catalog));
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u9", "u3")] {
            db.insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        for (p, tagger, taggee) in [
            ("p1", "u1", "u0"),
            ("p2", "u3", "u0"),
            ("p4", "u2", "u0"),
            ("p3", "u1", "u5"),
        ] {
            db.insert(
                "tagging",
                &[Value::str(p), Value::str(tagger), Value::str(taggee)],
            )
            .unwrap();
        }
        db.build_indexes(&a);
        let q0 = SpcQuery::builder(catalog, "Q0")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_const(("ia", "album_id"), "a0")
            .eq_const(("f", "user_id"), "u0")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq_const(("t", "taggee_id"), "u0")
            .project(("ia", "photo_id"))
            .build()
            .unwrap();
        (db, a, q0)
    }

    #[test]
    fn all_modes_agree_on_the_answer() {
        let (db, a, q0) = example1();
        for mode in [
            BaselineMode::FullScan,
            BaselineMode::ConstIndex,
            BaselineMode::IndexJoin,
        ] {
            let out = baseline(
                &db,
                &q0,
                &a,
                BaselineOptions {
                    mode,
                    work_budget: None,
                },
            )
            .unwrap();
            let result = out.result().expect("no budget, must finish");
            assert_eq!(result.len(), 1, "{mode:?}");
            assert!(result.contains(&[Value::str("p1")]), "{mode:?}");
        }
    }

    #[test]
    fn baseline_matches_eval_dq() {
        let (db, a, q0) = example1();
        let plan = bcq_core::qplan::qplan(&q0, &a).unwrap();
        let bounded = crate::eval_dq::eval_dq(&db, &plan, &a).unwrap();
        let out = baseline(&db, &q0, &a, BaselineOptions::default()).unwrap();
        assert_eq!(out.result().unwrap(), &bounded.result);
    }

    #[test]
    fn tagging_is_scanned_without_const_cover() {
        // tagging's only index keys (photo_id, taggee_id); only taggee_id is
        // constant, so the baseline must scan all of tagging.
        let (db, a, q0) = example1();
        let out = baseline(&db, &q0, &a, BaselineOptions::default()).unwrap();
        let meter = out.meter();
        assert_eq!(meter.rows_scanned, 4, "full scan of tagging");
        // in_album and friends go through constant indices: full postings.
        assert_eq!(meter.tuples_fetched, 3 + 2);
    }

    #[test]
    fn full_scan_mode_touches_every_table() {
        let (db, a, q0) = example1();
        let out = baseline(
            &db,
            &q0,
            &a,
            BaselineOptions {
                mode: BaselineMode::FullScan,
                work_budget: None,
            },
        )
        .unwrap();
        assert_eq!(out.meter().rows_scanned, 4 + 3 + 4);
        assert_eq!(out.meter().tuples_fetched, 0);
    }

    #[test]
    fn budget_abort_reports_dnf() {
        let (db, a, q0) = example1();
        let out = baseline(
            &db,
            &q0,
            &a,
            BaselineOptions {
                mode: BaselineMode::FullScan,
                work_budget: Some(3),
            },
        )
        .unwrap();
        assert!(!out.finished());
        assert!(out.meter().work() > 3);
        assert!(out.result().is_none());
    }

    #[test]
    fn unbound_placeholders_rejected() {
        let (db, a, _) = example1();
        let cat = db.catalog().clone();
        let q = SpcQuery::builder(cat, "tpl")
            .atom("friends", "f")
            .eq_param(("f", "user_id"), "u")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        assert!(baseline(&db, &q, &a, BaselineOptions::default()).is_err());
    }

    #[test]
    fn index_join_mode_prunes_candidates() {
        let (db, a, q0) = example1();
        let plain = baseline(&db, &q0, &a, BaselineOptions::default()).unwrap();
        let smart = baseline(
            &db,
            &q0,
            &a,
            BaselineOptions {
                mode: BaselineMode::IndexJoin,
                work_budget: None,
            },
        )
        .unwrap();
        assert_eq!(plain.result().unwrap(), smart.result().unwrap());
        // The semi-join pass cannot produce more intermediates than the
        // plain join saved.
        assert!(smart.meter().work() <= plain.meter().work() + 16);
    }

    #[test]
    fn index_join_prune_work_counts_against_the_budget() {
        // Disjoint join values: the two scans touch 20 rows, then the
        // semijoin passes drop all 10 + 10 candidates — 40 touched rows,
        // none of them charged by a join step.
        let cat = Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c", "d"])]).unwrap();
        let a = AccessSchema::new(Arc::clone(&cat));
        let mut db = Database::new(Arc::clone(&cat));
        for i in 0..10 {
            db.insert("r", &[Value::int(i), Value::int(i)]).unwrap();
            db.insert("s", &[Value::int(100 + i), Value::int(i)])
                .unwrap();
        }
        let q = SpcQuery::builder(cat, "disjoint")
            .atom("r", "r")
            .atom("s", "s")
            .eq(("r", "b"), ("s", "c"))
            .project(("r", "a"))
            .build()
            .unwrap();
        for run in [baseline, baseline_interpreted] {
            let at = |budget| {
                let opts = BaselineOptions {
                    mode: BaselineMode::IndexJoin,
                    work_budget: Some(budget),
                };
                run(&db, &q, &a, opts).unwrap()
            };
            let tight = at(25);
            assert!(!tight.finished(), "25 < 40 touched rows must not finish");
            assert!(tight.meter().work() > 25);
            let exact = at(40);
            assert!(exact.result().expect("40 rows fit in 40").is_empty());
            assert_eq!(exact.meter().work(), 40);
        }
    }

    #[test]
    fn uninterned_constant_still_charges_the_scan() {
        // Querying for an album name that never entered the database: the
        // conventional evaluator still reads the table to find out.
        let (db, a, _) = example1();
        let cat = db.catalog().clone();
        let q = SpcQuery::builder(cat, "ghost")
            .atom("tagging", "t")
            .eq_const(("t", "tagger_id"), "nobody-ever")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let out = baseline(
            &db,
            &q,
            &a,
            BaselineOptions {
                mode: BaselineMode::FullScan,
                work_budget: None,
            },
        )
        .unwrap();
        assert!(out.result().unwrap().is_empty());
        assert_eq!(out.meter().rows_scanned, 4, "scan happened anyway");
    }
}
