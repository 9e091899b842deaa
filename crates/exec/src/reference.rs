//! The differential reference: filter → semijoin → hash-join → project,
//! row at a time, walking the query on every call.
//!
//! This is **not** an engine, and it is compiled only into tests. It is
//! a second, independently written implementation of the tail both
//! executors share, so the differential suites can hold the columnar
//! interpreter ([`crate::pipeline`]) against it at workload scale:
//! [`eval_dq_with`] and [`baseline`] are the two executors with their
//! fetches unchanged and their tail replaced by [`join_project`]. The
//! naive enumeration oracle in `tests/oracle.rs` is exponential and stops
//! at a few dozen rows per table; the interpreter's hash-join branch, its
//! join-order choice and its intermediate-work accounting (the budget
//! verdicts) only show up on inputs far larger than that.
//!
//! It shares nothing with the engine but its inputs and its accounting:
//! the **same** `&[ColumnBatch]` the engine takes (transposed to rows
//! here), and the same [`ExecContext`] meter and budget. It never looks at
//! an [`bcq_core::program::OpProgram`]: filter checks, join order, key
//! layouts and the projection map are all re-derived from `SpcQuery` +
//! `Sigma` per call, which is what makes agreement with the compiled
//! program evidence rather than tautology.

use crate::baseline::{fetch_candidates, outcome, BaselineMode, BaselineOptions, BaselineOutcome};
use crate::eval_dq::{fetch_anchors, validate_bindings, EvalScratch, ExecOutcome};
use crate::pipeline::{BudgetExhausted, ExecContext, ParamEnv};
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::ebcheck::xq_cols;
use bcq_core::fx::{FxHashMap, FxHashSet};
use bcq_core::plan::QueryPlan;
use bcq_core::prelude::{
    Cell, ColumnBatch, Predicate, QAttr, RowBuf, SpcQuery, SymbolTable, Value,
};
use bcq_core::sigma::Sigma;
use bcq_storage::Database;
use bcq_telemetry::NoProbe;
use std::time::Instant;

/// [`crate::eval_dq_with`] with its tail run by [`join_project`]: the same
/// plan and the same fetches, the bounded executor's oracle.
pub(crate) fn eval_dq_with(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    params: &ParamEnv,
) -> bcq_core::error::Result<ExecOutcome> {
    let start = Instant::now();
    validate_bindings(plan, params)?;
    let mut ctx = ExecContext::with_params(db, None, params);
    let mut scratch = EvalScratch::default();
    let result = if fetch_anchors(db, plan, a, &mut ctx, &mut scratch, &mut NoProbe)? {
        let anchors = &scratch.anchors[..plan.query().num_atoms()];
        join_project(plan.query(), plan.sigma(), anchors, false, &mut ctx)
            .expect("bounded evaluation has no budget")
    } else {
        ResultSet::empty()
    };
    Ok(ExecOutcome {
        result,
        meter: ctx.meter,
        elapsed: start.elapsed(),
    })
}

/// [`crate::baseline()`] with its tail run by [`join_project`]: the same
/// access paths and the same charges, the baseline's oracle.
pub(crate) fn baseline(
    db: &Database,
    q: &SpcQuery,
    a: &AccessSchema,
    opts: BaselineOptions,
) -> bcq_core::error::Result<BaselineOutcome> {
    q.require_ground()?;
    let start = Instant::now();
    let mut ctx = ExecContext::new(db, opts.work_budget);
    let sigma = Sigma::build(q);
    if !sigma.is_satisfiable() {
        return Ok(outcome(Ok(ResultSet::empty()), ctx.meter, start));
    }
    let needed_cols: Vec<Vec<usize>> = (0..q.num_atoms())
        .map(|atom| xq_cols(q, &sigma, atom))
        .collect();
    let semijoin = opts.mode == BaselineMode::IndexJoin;
    let joined = fetch_candidates(q, a, opts.mode, &sigma, &needed_cols, &mut ctx)
        .and_then(|batches| join_project(q, &sigma, &batches, semijoin, &mut ctx));
    Ok(outcome(joined, ctx.meter, start))
}

/// The reference's tail: evaluates `q` over per-atom candidate
/// `batches` (indexed by atom, live rows only) and returns the projected
/// answer, charging every produced intermediate row to `ctx`.
///
/// With `semijoin` set it first reproduces the baseline's `IndexJoin`
/// prefilter: atom-local filters, then one semijoin reduction pass over
/// all ordered atom pairs, whose dropped rows are charged as intermediate
/// work (and checked against the budget after every pass).
pub(crate) fn join_project(
    q: &SpcQuery,
    sigma: &Sigma,
    batches: &[ColumnBatch],
    semijoin: bool,
    ctx: &mut ExecContext<'_>,
) -> Result<ResultSet, BudgetExhausted> {
    let mut batches: Vec<Batch> = batches
        .iter()
        .map(|b| Batch {
            atom: b.atom(),
            cols: b.cols().to_vec(),
            rows: b.to_rows(),
        })
        .collect();
    if semijoin {
        // Atom-local filters run first so rows that cannot survive anyway
        // do not feed the semijoin key sets and inflate its pruning
        // accounting (`run_join_pipeline` re-applies the filter afterwards,
        // which is free and idempotent).
        let filter = FilterAtom { query: q, sigma };
        for batch in &mut batches {
            filter.apply(ctx, batch);
        }
        SemiJoin { query: q, sigma }.apply(&mut batches, ctx)?;
    }
    run_join_pipeline(q, sigma, batches, ctx)
}

/// Candidate rows for one atom, projected onto `cols`.
#[derive(Debug, Clone)]
struct Batch {
    /// The atom these rows instantiate.
    atom: usize,
    /// Relation columns present in each row.
    cols: Vec<usize>,
    /// The rows, projected onto `cols`.
    rows: Vec<RowBuf>,
}

/// The atom-local filter operator: applies constant equalities and
/// same-class attribute equalities of `Σ_Q` over the columns present in a
/// batch.
///
/// Conditions referencing columns that are not present are skipped —
/// callers must ensure (as `QPlan` anchors and baseline candidate columns
/// do) that all conditions on the atom are checkable either here or
/// through class joins.
struct FilterAtom<'q> {
    /// The query whose conditions are applied.
    query: &'q SpcQuery,
    /// Its equivalence classes.
    sigma: &'q Sigma,
}

impl FilterAtom<'_> {
    /// Filters `batch` in place. Constant equalities, bound-parameter
    /// equalities (`S[A] = ?p` with `?p` in the context's
    /// [`crate::pipeline::ParamEnv`]), and intra-atom attribute equalities
    /// are applied; unbound parameters stay inert (template semantics).
    fn apply(&self, ctx: &ExecContext<'_>, batch: &mut Batch) {
        let symbols = ctx.symbols();
        let q = self.query;
        let col_pos = |cols: &[usize], col: usize| cols.iter().position(|&c| c == col);
        // `None` constant: the value was never interned, nothing matches.
        let mut checks: Vec<(usize, Option<Cell>)> = Vec::new();
        let mut eqs: Vec<(usize, usize)> = Vec::new();
        for p in q.predicates() {
            match p {
                Predicate::Const(a, v) if a.atom == batch.atom => {
                    if let Some(i) = col_pos(&batch.cols, a.col) {
                        checks.push((i, symbols.try_encode(v)));
                    }
                }
                Predicate::Param(a, name) if a.atom == batch.atom => {
                    if let (Some(i), Some(cell)) =
                        (col_pos(&batch.cols, a.col), ctx.params.get(name))
                    {
                        checks.push((i, cell));
                    }
                }
                Predicate::Eq(a, b) if a.atom == batch.atom && b.atom == batch.atom => {
                    if let (Some(i), Some(j)) =
                        (col_pos(&batch.cols, a.col), col_pos(&batch.cols, b.col))
                    {
                        eqs.push((i, j));
                    }
                }
                _ => {}
            }
        }
        // Same-class columns within the atom must agree even without an
        // explicit syntactic equality (e.g. equated transitively through
        // other atoms — checking early shrinks the join input; the class
        // merge would catch it anyway).
        let classes: Vec<_> = batch
            .cols
            .iter()
            .map(|&c| {
                self.sigma
                    .class_of_flat(q.flat_id(QAttr::new(batch.atom, c)))
            })
            .collect();
        for i in 0..classes.len() {
            for j in i + 1..classes.len() {
                if classes[i] == classes[j] && !eqs.contains(&(i, j)) {
                    eqs.push((i, j));
                }
            }
        }
        if checks.is_empty() && eqs.is_empty() {
            return;
        }
        batch.rows.retain(|row| {
            checks.iter().all(|(i, c)| Some(row[*i]) == *c)
                && eqs.iter().all(|(i, j)| row[*i] == row[*j])
        });
    }
}

/// The multiway hash-join operator: merges per-atom batches on their `Σ_Q`
/// equivalence classes. Produces partial assignments of one cell per class
/// (`None` = class not yet bound).
struct HashJoin<'q> {
    /// The query being joined.
    query: &'q SpcQuery,
    /// Its equivalence classes.
    sigma: &'q Sigma,
}

impl HashJoin<'_> {
    /// Joins the batches; every produced intermediate row is charged to the
    /// context's meter (and checked against the budget).
    ///
    /// Returns the surviving class assignments, or an empty vector if any
    /// batch empties out. Batches must already be filtered
    /// ([`FilterAtom`]); `run_join_pipeline` composes the two.
    fn run(
        &self,
        symbols: &SymbolTable,
        batches: Vec<Batch>,
        ctx: &mut ExecContext<'_>,
    ) -> Result<Vec<Box<[Option<Cell>]>>, BudgetExhausted> {
        let q = self.query;
        let sigma = self.sigma;
        debug_assert_eq!(batches.len(), q.num_atoms());
        if batches.iter().any(|b| b.rows.is_empty()) {
            return Ok(Vec::new());
        }

        let nclasses = sigma.num_classes();
        // Classes bound per atom.
        let atom_classes: Vec<Vec<usize>> = batches
            .iter()
            .map(|b| {
                b.cols
                    .iter()
                    .map(|&c| sigma.class_of_flat(q.flat_id(QAttr::new(b.atom, c))).0)
                    .collect()
            })
            .collect();

        // Greedy join order: start with the smallest candidate set;
        // repeatedly take the atom sharing the most classes with what is
        // already bound (ties: smaller candidate set), falling back to a
        // cross product.
        let mut order: Vec<usize> = Vec::with_capacity(batches.len());
        let mut used = vec![false; batches.len()];
        let mut bound = vec![false; nclasses];
        // Constants are always bound (checked in filters) — and so are
        // classes pinned by a bound parameter, which are constants at
        // execution time; counting them keeps prepared plans choosing the
        // same join orders as the equivalent ground query.
        for (i, cls) in sigma.classes().iter().enumerate() {
            if cls.constant.is_some()
                || cls
                    .placeholders
                    .iter()
                    .any(|name| matches!(ctx.params.get(name), Some(Some(_))))
            {
                bound[i] = true;
            }
        }
        let first = (0..batches.len())
            .min_by_key(|&i| batches[i].rows.len())
            .expect("at least one atom");
        order.push(first);
        used[first] = true;
        for &c in &atom_classes[first] {
            bound[c] = true;
        }
        while order.len() < batches.len() {
            let next = (0..batches.len())
                .filter(|&i| !used[i])
                .max_by_key(|&i| {
                    let shared = atom_classes[i].iter().filter(|&&c| bound[c]).count();
                    (shared, usize::MAX - batches[i].rows.len())
                })
                .expect("unused atom exists");
            order.push(next);
            used[next] = true;
            for &c in &atom_classes[next] {
                bound[c] = true;
            }
        }

        // Partial results: one cell slot per class, seeded with the
        // constants — and with bound parameters, which are constants at
        // execution time — so pinned join columns line up across atoms. A
        // value that was never interned cannot be matched by any row of
        // the (non-empty, already filtered) batches that carry its class —
        // but classes whose columns appear in *no* batch must still compare
        // equal, so bail out to the empty result explicitly. The same bail
        // applies when a class is pinned to two disagreeing values (a
        // binding conflicting with a constant or another binding).
        let mut seed: Box<[Option<Cell>]> = vec![None; nclasses].into_boxed_slice();
        for (i, cls) in sigma.classes().iter().enumerate() {
            let mut pinned: Option<Cell> = None;
            if let Some(v) = &cls.constant {
                match symbols.try_encode(v) {
                    Some(cell) => pinned = Some(cell),
                    None => return Ok(Vec::new()),
                }
            }
            for name in &cls.placeholders {
                match ctx.params.get(name) {
                    Some(Some(cell)) => match pinned {
                        None => pinned = Some(cell),
                        Some(prev) if prev == cell => {}
                        Some(_) => return Ok(Vec::new()),
                    },
                    Some(None) => return Ok(Vec::new()),
                    None => {} // unbound placeholder: inert (template semantics)
                }
            }
            seed[i] = pinned;
        }
        let mut partials: Vec<Box<[Option<Cell>]>> = vec![seed];

        for &ai in &order {
            let batch = &batches[ai];
            let classes = &atom_classes[ai];
            // Shared classes between current partials and this batch.
            let shared: Vec<usize> = {
                let p0 = &partials[0];
                let mut s: Vec<usize> = classes
                    .iter()
                    .copied()
                    .filter(|&c| p0[c].is_some())
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            // Positions of the shared classes within this batch's rows.
            let shared_pos: Vec<usize> = shared
                .iter()
                .map(|&c| classes.iter().position(|&k| k == c).expect("shared class"))
                .collect();

            // Hash the batch rows on the shared classes. Buckets are a
            // linked list threaded through one `next_row` array (newest
            // first) — one map + one vector, no per-key allocation.
            const NIL: u32 = u32::MAX;
            let mut bucket_head: FxHashMap<RowBuf, u32> = FxHashMap::default();
            let mut next_row: Vec<u32> = Vec::with_capacity(batch.rows.len());
            for (ri, row) in batch.rows.iter().enumerate() {
                let key: RowBuf = shared_pos.iter().map(|&p| row[p]).collect();
                let head = bucket_head.entry(key).or_insert(NIL);
                next_row.push(*head);
                *head = ri as u32;
            }

            let mut next: Vec<Box<[Option<Cell>]>> = Vec::new();
            for partial in &partials {
                let key: RowBuf = shared
                    .iter()
                    .map(|&c| partial[c].expect("shared class is bound"))
                    .collect();
                let Some(&head) = bucket_head.get(key.as_slice()) else {
                    continue;
                };
                let mut cursor = head;
                while cursor != NIL {
                    let ri = cursor as usize;
                    cursor = next_row[ri];
                    let row = &batch.rows[ri];
                    let mut merged = partial.clone();
                    let mut ok = true;
                    for (pos, &c) in classes.iter().enumerate() {
                        match merged[c] {
                            Some(v) if v != row[pos] => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => merged[c] = Some(row[pos]),
                        }
                    }
                    if !ok {
                        continue;
                    }
                    ctx.charge_intermediate_n(1)?;
                    next.push(merged);
                }
            }
            partials = next;
            if partials.is_empty() {
                return Ok(Vec::new());
            }
        }
        Ok(partials)
    }
}

/// The projection operator: reads `π_Z` from the joined class assignments
/// and decodes the result set (the empty projection yields the empty tuple
/// — Boolean queries).
struct Project<'q> {
    /// The query whose projection is read.
    query: &'q SpcQuery,
    /// Its equivalence classes.
    sigma: &'q Sigma,
}

impl Project<'_> {
    /// Decodes the final answer.
    fn apply(&self, symbols: &SymbolTable, partials: &[Box<[Option<Cell>]>]) -> ResultSet {
        let mut out = Vec::with_capacity(partials.len());
        for partial in partials {
            let row: Box<[Value]> = self
                .query
                .projection()
                .iter()
                .map(|z| {
                    let c = self.sigma.class_of_flat(self.query.flat_id(*z)).0;
                    symbols.decode(partial[c].expect("projection class is bound"))
                })
                .collect();
            out.push(row);
        }
        ResultSet::from_rows(out)
    }
}

/// The semi-join reducer used by the baseline's `IndexJoin` mode: for each
/// batch, drops candidate rows whose join-class values do not appear in any
/// other batch. Models an optimizer that uses indices on join keys to skip
/// non-matching rows. Dropped rows are charged as intermediate work.
struct SemiJoin<'q> {
    /// The query whose join classes drive the reduction.
    query: &'q SpcQuery,
    /// Its equivalence classes.
    sigma: &'q Sigma,
}

impl SemiJoin<'_> {
    /// One full reduction pass over all batch pairs; the budget is checked
    /// after each pair's drops are charged.
    fn apply(
        &self,
        batches: &mut [Batch],
        ctx: &mut ExecContext<'_>,
    ) -> Result<(), BudgetExhausted> {
        let q = self.query;
        let sigma = self.sigma;
        let n = batches.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Shared classes between atoms i and j.
                let class_of = |b: &Batch, pos: usize| {
                    sigma.class_of_flat(q.flat_id(QAttr::new(b.atom, b.cols[pos])))
                };
                let mut shared: Vec<(usize, usize)> = Vec::new(); // (pos_i, pos_j)
                for pi in 0..batches[i].cols.len() {
                    for pj in 0..batches[j].cols.len() {
                        if class_of(&batches[i], pi) == class_of(&batches[j], pj) {
                            shared.push((pi, pj));
                        }
                    }
                }
                if shared.is_empty() {
                    continue;
                }
                let keys: FxHashSet<RowBuf> = batches[j]
                    .rows
                    .iter()
                    .map(|row| shared.iter().map(|&(_, pj)| row[pj]).collect())
                    .collect();
                let before = batches[i].rows.len();
                batches[i].rows.retain(|row| {
                    let key: RowBuf = shared.iter().map(|&(pi, _)| row[pi]).collect();
                    keys.contains(key.as_slice())
                });
                ctx.charge_intermediate_n((before - batches[i].rows.len()) as u64)?;
            }
        }
        Ok(())
    }
}

/// Filter each batch, hash-join on `Σ_Q` classes, project `Z`.
fn run_join_pipeline(
    q: &SpcQuery,
    sigma: &Sigma,
    mut batches: Vec<Batch>,
    ctx: &mut ExecContext<'_>,
) -> Result<ResultSet, BudgetExhausted> {
    let filter = FilterAtom { query: q, sigma };
    for batch in &mut batches {
        filter.apply(ctx, batch);
        if batch.rows.is_empty() {
            return Ok(ResultSet::empty());
        }
    }
    let join = HashJoin { query: q, sigma };
    let partials = join.run(ctx.db.symbols(), batches, ctx)?;
    if partials.is_empty() {
        return Ok(ResultSet::empty());
    }
    let project = Project { query: q, sigma };
    Ok(project.apply(ctx.db.symbols(), &partials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{dummy_db, rows, two_rel_query};
    use bcq_core::prelude::Catalog;

    #[test]
    fn equi_join_on_classes() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: rows(&[&[1, 10], &[2, 20], &[3, 30]]),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[10, 100], &[20, 200], &[99, 999]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&[Value::int(1), Value::int(100)]));
        assert!(rs.contains(&[Value::int(2), Value::int(200)]));
        assert!(ctx.meter.intermediate_rows >= 2);
    }

    #[test]
    fn cross_product_when_no_shared_classes() {
        let cat = Catalog::from_names(&[("r", &["a"]), ("s", &["b"])]).unwrap();
        let q = SpcQuery::builder(cat, "x")
            .atom("r", "r")
            .atom("s", "s")
            .project(("r", "a"))
            .project(("s", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0],
                rows: rows(&[&[1], &[2]]),
            },
            Batch {
                atom: 1,
                cols: vec![0],
                rows: rows(&[&[7], &[8]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn budget_aborts() {
        let cat = Catalog::from_names(&[("r", &["a"]), ("s", &["b"])]).unwrap();
        let q = SpcQuery::builder(cat, "x")
            .atom("r", "r")
            .atom("s", "s")
            .project(("r", "a"))
            .project(("s", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let big: Vec<RowBuf> = (0..100)
            .map(|i| std::iter::once(Cell::from_small_int(i).unwrap()).collect())
            .collect();
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0],
                rows: big.clone(),
            },
            Batch {
                atom: 1,
                cols: vec![0],
                rows: big,
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, Some(50));
        let r = run_join_pipeline(&q, &sigma, batches, &mut ctx);
        assert_eq!(r, Err(BudgetExhausted));
    }

    #[test]
    fn filter_applies_constants_and_intra_atom_eqs() {
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .eq(("r", "b"), ("r", "c"))
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let mut batch = Batch {
            atom: 0,
            cols: vec![0, 1, 2],
            rows: rows(&[&[1, 5, 5], &[1, 5, 6], &[2, 7, 7]]),
        };
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        FilterAtom {
            query: &q,
            sigma: &sigma,
        }
        .apply(&ctx, &mut batch);
        assert_eq!(batch.rows, rows(&[&[1, 5, 5]]));
    }

    #[test]
    fn filter_with_uninterned_string_constant_empties_batch() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), "never-loaded")
            .project(("r", "a"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let mut batch = Batch {
            atom: 0,
            cols: vec![0],
            rows: rows(&[&[1], &[2]]),
        };
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        FilterAtom {
            query: &q,
            sigma: &sigma,
        }
        .apply(&ctx, &mut batch);
        assert!(batch.rows.is_empty());
    }

    #[test]
    fn boolean_query_yields_empty_tuple() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "b")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let batches = vec![Batch {
            atom: 0,
            cols: vec![0],
            rows: rows(&[&[1]]),
        }];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert!(!rs.is_empty());
        assert_eq!(rs.rows()[0].len(), 0);
    }

    #[test]
    fn empty_candidates_empty_result() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: Vec::new(),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[1, 2]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn semi_join_prunes_and_charges() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let mut batches = vec![
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: rows(&[&[1, 10], &[2, 99]]),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[10, 100]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        SemiJoin {
            query: &q,
            sigma: &sigma,
        }
        .apply(&mut batches, &mut ctx)
        .unwrap();
        assert_eq!(
            batches[0].rows,
            rows(&[&[1, 10]]),
            "non-matching row dropped"
        );
        assert_eq!(ctx.meter.intermediate_rows, 1);
    }
}
