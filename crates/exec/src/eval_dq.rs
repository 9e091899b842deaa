//! `evalDQ` (Section 6): executing bounded query plans.
//!
//! Follows the plan produced by [`bcq_core::qplan`]: each [`FetchStep`]
//! probes one access-constraint index with keys assembled from constants and
//! earlier steps' columns, materializing at most `bound` witness tuples.
//! `D_Q` is the union of the fetched sets; the final join/filter/project is
//! the shared interpreter in [`crate::pipeline`] and runs entirely on
//! `D_Q`. Total data accessed is independent of `|D|`.
//!
//! Constants are encoded against the database's symbol table *read-only*
//! ([`bcq_core::symbols::SymbolTable::try_encode`]): a constant whose
//! string was never loaded can match nothing, so its probe keys simply
//! never materialize.

use crate::pipeline::{
    project_program_flat, run_program_columnar_impl, ColumnarScratch, ExecContext, ParamEnv,
};
use crate::reference;
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::error::{CoreError, Result};
use bcq_core::fx::FxHashSet;
use bcq_core::plan::{FetchKind, FetchStep, KeySource, QueryPlan};
use bcq_core::prelude::{Cell, ColumnBatch, RowBuf, SymbolTable};
use bcq_storage::{Database, Meter};
use bcq_telemetry::{NoProbe, OpProfile, Probe, Profiler, StepKind};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Per-thread reusable buffers for bounded evaluation: the fetch output
/// batches (recycled via [`ColumnBatch::reset`]), the key/rid scratch of
/// the fetch loop, and the columnar interpreter's working set. Bounded
/// plans cap every buffer's size by the access schema's `N`s, so the pool
/// stays small; steady-state serving requests allocate almost nothing.
#[derive(Default)]
struct EvalScratch {
    /// One batch per plan step, indexed by step id (grown on demand).
    fetched: Vec<ColumnBatch>,
    /// One batch per query atom, indexed by atom (swapped out of
    /// `fetched` after the fetch loop; buffers circulate between the two
    /// across requests).
    anchors: Vec<ColumnBatch>,
    keys: Vec<RowBuf>,
    seen: FxHashSet<RowBuf>,
    rids: Vec<u32>,
    interp: ColumnarScratch,
}

thread_local! {
    /// Evaluation never re-enters itself, so one scratch per thread
    /// suffices; `eval_dq_with_impl` still falls back to a fresh scratch
    /// if the thread-local is somehow busy rather than panicking.
    static EVAL_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

/// Outcome of a bounded evaluation.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The exact answer `Q(D)`.
    pub result: ResultSet,
    /// Access accounting; `meter.tuples_fetched` is `|D_Q|` as the paper
    /// reports it (tuples retrieved through indices).
    pub meter: Meter,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl ExecOutcome {
    /// `|D_Q|`: tuples fetched through the plan.
    pub fn dq_tuples(&self) -> u64 {
        self.meter.tuples_fetched
    }
}

/// Executes a bounded plan against `db`.
///
/// `a` must be the access schema the plan was generated under (the plan
/// references its constraints by id); the required indices must have been
/// built (`db.build_indexes(&a)`). Parameterized plans (from
/// [`bcq_core::qplan::qplan_template`]) are rejected here — execute them
/// through [`eval_dq_with`] with a binding for every slot.
pub fn eval_dq(db: &Database, plan: &QueryPlan, a: &AccessSchema) -> Result<ExecOutcome> {
    eval_dq_with(db, plan, a, ParamEnv::empty_ref())
}

/// [`eval_dq`] with the join/filter/project tail run by the query-walking
/// reference instead of the compiled program — the ground-plan
/// differential oracle (see [`eval_dq_with_interpreted`]).
pub fn eval_dq_interpreted(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
) -> Result<ExecOutcome> {
    eval_dq_with_interpreted(db, plan, a, ParamEnv::empty_ref())
}

/// Executes a (possibly parameterized) bounded plan with the given
/// parameter bindings — the serving hot path.
///
/// The bindings in `params` are already **interned cells**: the `Value`
/// boundary is crossed once per request ([`ParamEnv::encode`]), after which
/// key enumeration, filtering and joining stay on fixed-width cells. Every
/// slot of the plan must be bound or the call fails with
/// [`CoreError::UnboundParameters`]; a slot bound to a never-interned value
/// yields the (exact) empty answer without touching the indices.
pub fn eval_dq_with(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    params: &ParamEnv,
) -> Result<ExecOutcome> {
    eval_dq_with_impl(db, plan, a, params, true)
}

/// [`eval_dq_with`] with the join/filter/project tail run by the
/// **query-walking reference** instead of the compiled program — the
/// differential-testing oracle. Same plan, same fetches, semantically
/// identical; the reference re-derives the filter checks, join order and
/// projection map from the query on every call, row at a time.
pub fn eval_dq_with_interpreted(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    params: &ParamEnv,
) -> Result<ExecOutcome> {
    eval_dq_with_impl(db, plan, a, params, false)
}

fn eval_dq_with_impl(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    params: &ParamEnv,
    compiled: bool,
) -> Result<ExecOutcome> {
    EVAL_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            eval_dq_scratch(db, plan, a, params, compiled, &mut scratch, &mut NoProbe)
        }
        Err(_) => eval_dq_scratch(
            db,
            plan,
            a,
            params,
            compiled,
            &mut EvalScratch::default(),
            &mut NoProbe,
        ),
    })
}

/// [`eval_dq_with`] in **profiled mode**: runs the compiled program with a
/// recording probe and returns the per-operator breakdown (fetch steps,
/// pin resolution, filter sweeps, join steps, projection — each with wall
/// time and row movement) alongside the outcome. A diagnostics path: the
/// probe allocates per step, so profiled runs are not the serving path.
pub fn eval_dq_profiled(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    params: &ParamEnv,
) -> Result<(ExecOutcome, OpProfile)> {
    let mut profiler = Profiler::new();
    let out = EVAL_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => eval_dq_scratch(db, plan, a, params, true, &mut scratch, &mut profiler),
        Err(_) => eval_dq_scratch(
            db,
            plan,
            a,
            params,
            true,
            &mut EvalScratch::default(),
            &mut profiler,
        ),
    })?;
    let total_ns = u64::try_from(out.elapsed.as_nanos()).unwrap_or(u64::MAX);
    Ok((out, profiler.finish(total_ns)))
}

fn eval_dq_scratch<P: Probe>(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    params: &ParamEnv,
    compiled: bool,
    scratch: &mut EvalScratch,
    probe: &mut P,
) -> Result<ExecOutcome> {
    let start = Instant::now();
    validate_bindings(plan, params)?;
    let mut ctx = ExecContext::with_params(db, None, params);
    let num_atoms = plan.query().num_atoms();
    let result = if !fetch_anchors(db, plan, a, &mut ctx, scratch, probe)? {
        ResultSet::empty()
    } else {
        let EvalScratch {
            anchors, interp, ..
        } = scratch;
        if compiled {
            // The serving hot path stays flat end to end: anchors are
            // gathered column-major straight off the tables
            // ([`fetch_anchors`]), the compiled program is interpreted
            // vectorized, and the surviving partials are projected
            // without ever being re-boxed per derivation.
            let flat = run_program_columnar_impl(
                plan.program(),
                &mut anchors[..num_atoms],
                &mut ctx,
                true,
                interp,
                probe,
            )
            .expect("bounded evaluation has no budget");
            if P::ENABLED {
                probe.begin();
            }
            let r = project_program_flat(plan.program(), db.symbols(), flat);
            if P::ENABLED {
                probe.step(
                    StepKind::Project,
                    &format!("project:cols={}", plan.program().proj_classes.len()),
                    (flat.len() / plan.program().num_classes.max(1)) as u64,
                    r.len() as u64,
                );
            }
            r
        } else {
            reference::join_project(
                plan.query(),
                plan.sigma(),
                &anchors[..num_atoms],
                false,
                &mut ctx,
            )
            .expect("bounded evaluation has no budget")
        }
    };
    Ok(ExecOutcome {
        result,
        meter: ctx.meter,
        elapsed: start.elapsed(),
    })
}

/// Allocation-free validation on the happy path: the plan's slot names
/// were collected once at plan time ([`QueryPlan::param_slots`]), and
/// names are only cloned if something is actually missing.
fn validate_bindings(plan: &QueryPlan, params: &ParamEnv) -> Result<()> {
    let mut missing: Vec<String> = Vec::new();
    for name in plan.param_slots() {
        if params.get(name).is_none() {
            missing.push(name.clone());
        }
    }
    if !missing.is_empty() {
        return Err(CoreError::UnboundParameters(missing));
    }
    Ok(())
}

/// Runs every fetch step of the plan straight into column-major batches —
/// matching row ids are collected per probe, then each projected column is
/// gathered off the table in one contiguous pass
/// ([`bcq_storage::Table::gather_column`]); no intermediate row is ever
/// materialized. All output batches and key/rid buffers live in `scratch`
/// and are recycled across requests. On `Ok(true)` the per-atom anchor
/// batches sit in `scratch.anchors[..num_atoms]`; `Ok(false)` means the
/// plan is unsatisfiable (nothing fetched, empty answer).
fn fetch_anchors<P: Probe>(
    db: &Database,
    plan: &QueryPlan,
    a: &AccessSchema,
    ctx: &mut ExecContext<'_>,
    scratch: &mut EvalScratch,
    probe: &mut P,
) -> Result<bool> {
    if plan.is_unsatisfiable() {
        return Ok(false);
    }
    let q = plan.query();
    let EvalScratch {
        fetched,
        anchors,
        keys,
        seen,
        rids,
        ..
    } = scratch;
    while fetched.len() < plan.steps().len() {
        fetched.push(ColumnBatch::new(0, Vec::new()));
    }
    for (sid, step) in plan.steps().iter().enumerate() {
        // Earlier steps source this step's probe keys; the current step's
        // batch is written behind them.
        let (prev, rest) = fetched.split_at_mut(sid);
        let b = &mut rest[0];
        if P::ENABLED {
            probe.begin();
        }
        match step.kind {
            FetchKind::Any => {
                // Emptiness witness: one zero-width row if the relation is
                // non-empty, charged like any fetched tuple.
                b.reset(step.atom, &[]);
                if !db.table(q.relation_of(step.atom)).is_empty() {
                    ctx.charge_fetched()
                        .expect("bounded evaluation has no budget");
                    b.push_row(&[]);
                }
            }
            FetchKind::IndexLookup => {
                let cid = step.constraint.expect("index step has a constraint");
                if cid.0 >= a.len() {
                    return Err(CoreError::Invalid(format!(
                        "plan references constraint #{} outside the given access schema",
                        cid.0
                    )));
                }
                let c = a.constraint(cid);
                let index = db.index_for(c).ok_or_else(|| {
                    CoreError::Invalid(format!(
                        "index for constraint `{}` not built",
                        c.display(a.catalog())
                    ))
                })?;
                let table = db.table(c.relation());
                enumerate_keys_into(step, prev, db.symbols(), ctx.params, keys, seen);
                // Contract note: when `D |= A`, each step fetches at most
                // `step.bound` rows (tested across the workloads). When the
                // data *violates* its declared constraints the fetch can
                // exceed the bound, but the answer stays exact — witnesses
                // are never truncated at N. See
                // `eval_dq::tests::violating_data_still_yields_exact_answers`.
                rids.clear();
                for key in keys.iter() {
                    ctx.meter.index_probes += 1;
                    for &rid in index.witnesses(key) {
                        ctx.charge_fetched()
                            .expect("bounded evaluation has no budget");
                        rids.push(rid);
                    }
                }
                b.reset(step.atom, &step.out_cols);
                b.extend_columns(rids.len(), |i, out| {
                    table.gather_column(step.out_cols[i], rids, out)
                });
            }
        }
        if P::ENABLED {
            let (label, nkeys) = match step.kind {
                FetchKind::Any => (format!("fetch:step{sid}:atom{} any", step.atom), 0),
                FetchKind::IndexLookup => (
                    format!(
                        "fetch:step{sid}:atom{} index keys={}",
                        step.atom,
                        keys.len()
                    ),
                    keys.len() as u64,
                ),
            };
            probe.step(StepKind::Fetch, &label, nkeys, b.total_rows() as u64);
        }
    }
    // Swap the anchors into atom order (non-anchor steps only ever source
    // keys); the displaced buffers circulate back on the next request.
    while anchors.len() < q.num_atoms() {
        anchors.push(ColumnBatch::new(0, Vec::new()));
    }
    for (atom, anchor) in anchors.iter_mut().enumerate().take(q.num_atoms()) {
        let sid = plan.anchor_of_atom(atom).id.0;
        std::mem::swap(anchor, &mut fetched[sid]);
    }
    Ok(true)
}

/// Enumerates the key tuples of a fetch step into `keys` (cleared first):
/// constants and bound parameters are fixed; columns sourced from the same
/// earlier step vary together (row-wise); distinct source steps combine by
/// Cartesian product — mirroring the bound arithmetic of plan generation.
/// `seen` is dedup scratch, reused across steps.
///
/// A constant (or parameter value) that was never interned yields no keys
/// at all (nothing can match it), which collapses the step — and therefore
/// every step feeding off it — to the empty fetch.
fn enumerate_keys_into(
    step: &FetchStep,
    fetched: &[ColumnBatch],
    symbols: &SymbolTable,
    params: &ParamEnv,
    keys: &mut Vec<RowBuf>,
    seen: &mut FxHashSet<RowBuf>,
) {
    keys.clear();
    if step.key.is_empty() {
        // Bounded-domain probe: the single empty key.
        keys.push(RowBuf::new());
        return;
    }

    // One pass decides the shape: fixed positions (constants and bound
    // parameters) fill a key template; column sources are only classified
    // (single vs multiple earlier steps) — nothing is allocated.
    let key_len = step.key.len();
    let mut template = RowBuf::with_capacity(key_len);
    let mut src: Option<usize> = None;
    let mut multi_src = false;
    for (_col, source) in &step.key {
        match source {
            KeySource::Const(v) => match symbols.try_encode(v) {
                Some(cell) => template.push(cell),
                None => return,
            },
            // Validated bound upstream (`eval_dq_with`); a never-interned
            // binding collapses the step like an uninterned constant.
            KeySource::Param(name) => match params.get(name) {
                Some(Some(cell)) => template.push(cell),
                _ => return,
            },
            KeySource::Column { step: sid, .. } => {
                template.push(Cell::NULL);
                match src {
                    None => src = Some(sid.0),
                    Some(s) if s == sid.0 => {}
                    Some(_) => multi_src = true,
                }
            }
        }
    }

    // Fast path 1: fully fixed key — the single template key.
    let Some(src) = src else {
        keys.push(template);
        return;
    };

    // Fast path 2: one source step (the overwhelmingly common plan shape):
    // fill the template per source row off the packed columns, dedup the
    // finished keys directly. Bounded fetches are small, so up to a few
    // dozen keys a linear probe of the output beats hashing every key.
    if !multi_src {
        let sb = &fetched[src];
        let linear = sb.total_rows() <= 48;
        if !linear {
            seen.clear();
        }
        for r in 0..sb.total_rows() {
            let mut key = RowBuf::with_capacity(key_len);
            for (pos, (_c, source)) in step.key.iter().enumerate() {
                match source {
                    KeySource::Column { col, .. } => key.push(sb.column(*col)[r]),
                    _ => key.push(template[pos]),
                }
            }
            if linear {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            } else if seen.insert(key.clone()) {
                keys.push(key);
            }
        }
        return;
    }

    // General case: distinct source steps combine by Cartesian product.
    enum Group {
        Const(Vec<(usize, Cell)>),
        Step {
            src: usize,
            positions: Vec<(usize, usize)>, // (key position, src col)
        },
    }
    let mut groups: Vec<Group> = Vec::new();
    let consts: Vec<(usize, Cell)> = step
        .key
        .iter()
        .enumerate()
        .filter(|(_, (_, source))| !matches!(source, KeySource::Column { .. }))
        .map(|(pos, _)| (pos, template[pos]))
        .collect();
    if !consts.is_empty() {
        groups.push(Group::Const(consts));
    }
    let mut per_step: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for (pos, (_col, source)) in step.key.iter().enumerate() {
        if let KeySource::Column { step: sid, col } = source {
            match per_step.iter_mut().find(|(s, _)| *s == sid.0) {
                Some((_, positions)) => positions.push((pos, *col)),
                None => per_step.push((sid.0, vec![(pos, *col)])),
            }
        }
    }
    for (src, positions) in per_step {
        groups.push(Group::Step { src, positions });
    }

    // Distinct value combinations per group.
    let mut group_values: Vec<Vec<Vec<(usize, Cell)>>> = Vec::with_capacity(groups.len());
    for g in &groups {
        match g {
            Group::Const(pairs) => group_values.push(vec![pairs.clone()]),
            Group::Step { src, positions } => {
                let sb = &fetched[*src];
                seen.clear();
                let mut combos = Vec::new();
                for r in 0..sb.total_rows() {
                    let proj: RowBuf = positions.iter().map(|&(_, c)| sb.column(c)[r]).collect();
                    if seen.insert(proj.clone()) {
                        combos.push(
                            positions
                                .iter()
                                .zip(proj.iter())
                                .map(|(&(pos, _), &v)| (pos, v))
                                .collect(),
                        );
                    }
                }
                group_values.push(combos);
            }
        }
    }

    // Cartesian product across groups.
    let mut cursor = vec![0usize; group_values.len()];
    if group_values.iter().any(|g| g.is_empty()) {
        return;
    }
    loop {
        let mut key = vec![Cell::NULL; key_len];
        for (gi, g) in group_values.iter().enumerate() {
            for &(pos, v) in &g[cursor[gi]] {
                key[pos] = v;
            }
        }
        keys.push(key.into_iter().collect());
        // Advance the mixed-radix cursor.
        let mut i = 0;
        loop {
            if i == cursor.len() {
                return;
            }
            cursor[i] += 1;
            if cursor[i] < group_values[i].len() {
                break;
            }
            cursor[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::*;
    use std::sync::Arc;

    /// Example 1's database, access schema and query Q0.
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
        // Album a0 has photos p1, p2, p3; album a1 has p4.
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        // u0's friends: u1, u2. u3 is not a friend.
        for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u9", "u3")] {
            db.insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        // Taggings: u0 tagged by u1 in p1 (match), by u3 in p2 (not a
        // friend), by u2 in p4 (wrong album); u5 tagged by u1 in p3.
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
    fn q0_returns_exactly_p1() {
        let (db, a, q0) = example1();
        let plan = bcq_core::qplan::qplan(&q0, &a).unwrap();
        let out = eval_dq(&db, &plan, &a).unwrap();
        assert_eq!(out.result.len(), 1);
        assert!(out.result.contains(&[Value::str("p1")]));
        // Bounded access: |D_Q| is tiny and ≤ the static bound.
        assert!(out.dq_tuples() > 0);
        assert!(u128::from(out.dq_tuples()) <= plan.cost_bound());
        // 3 photos in a0 + 2 friends + per-(photo,u0) tagging witnesses.
        assert_eq!(out.meter.tuples_fetched, 3 + 2 + 2);
    }

    #[test]
    fn growing_irrelevant_data_does_not_change_access() {
        let (mut db, a, q0) = example1();
        let plan = bcq_core::qplan::qplan(&q0, &a).unwrap();
        let before = eval_dq(&db, &plan, &a).unwrap();

        // Add 10k tuples that do not involve album a0 or user u0.
        for i in 0..10_000 {
            db.insert(
                "friends",
                &[Value::str(format!("x{i}")), Value::str(format!("y{i}"))],
            )
            .unwrap();
        }
        db.build_indexes(&a);
        let after = eval_dq(&db, &plan, &a).unwrap();
        assert_eq!(before.result, after.result);
        assert_eq!(before.meter.tuples_fetched, after.meter.tuples_fetched);
    }

    #[test]
    fn missing_index_is_reported() {
        let (_, a, q0) = example1();
        let plan = bcq_core::qplan::qplan(&q0, &a).unwrap();
        // Fresh database without indices.
        let db = Database::new(Arc::clone(q0.catalog()));
        let err = eval_dq(&db, &plan, &a).unwrap_err();
        assert!(err.to_string().contains("not built"), "{err}");
    }

    #[test]
    fn unsatisfiable_plan_runs_for_free() {
        let (db, a, _) = example1();
        let cat = db.catalog().clone();
        let q = SpcQuery::builder(cat, "bad")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), 1)
            .eq_const(("f", "user_id"), 2)
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
        let out = eval_dq(&db, &plan, &a).unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.meter.tuples_fetched, 0);
    }

    #[test]
    fn boolean_query_true_and_false() {
        let (db, a, _) = example1();
        let cat = db.catalog().clone();
        let q_true = SpcQuery::builder(cat.clone(), "bt")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q_true, &a).unwrap();
        assert!(eval_dq(&db, &plan, &a).unwrap().result.as_bool());

        let q_false = SpcQuery::builder(cat, "bf")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "nobody")
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q_false, &a).unwrap();
        assert!(!eval_dq(&db, &plan, &a).unwrap().result.as_bool());
    }

    #[test]
    fn violating_data_still_yields_exact_answers() {
        // Declare friends: user -> (friend, 1) but load two friends for u0:
        // D violates A, the static bound is wrong, yet the answer is exact
        // (witness sets are complete regardless of N).
        let catalog = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("friends", &["user_id"], &["friend_id"], 1).unwrap();
        let mut db = Database::new(Arc::clone(&catalog));
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        db.insert("friends", &[Value::str("u0"), Value::str("u2")])
            .unwrap();
        db.build_indexes(&a);
        assert!(!bcq_storage::validate(&mut db, &a).is_empty());

        let q = SpcQuery::builder(catalog, "friends_of_u0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
        assert_eq!(plan.cost_bound(), 1, "analysis believes the (false) N");
        let out = eval_dq(&db, &plan, &a).unwrap();
        assert_eq!(out.result.len(), 2, "answer is exact anyway");
        assert!(u128::from(out.dq_tuples()) > plan.cost_bound());
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let (_, a, q0) = example1();
        let mut db = Database::new(Arc::clone(q0.catalog()));
        db.build_indexes(&a);
        let plan = bcq_core::qplan::qplan(&q0, &a).unwrap();
        let out = eval_dq(&db, &plan, &a).unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.meter.tuples_fetched, 0);
    }

    /// The parameterized template over Example 1's schema: Q1 with
    /// `?aid` / `?uid` slots.
    fn template(cat: Arc<Catalog>) -> SpcQuery {
        SpcQuery::builder(cat, "Q1")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_param(("ia", "album_id"), "aid")
            .eq_param(("f", "user_id"), "uid")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq_param(("t", "taggee_id"), "uid")
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    #[test]
    fn prepared_plan_matches_ground_plan_per_binding() {
        let (db, a, _) = example1();
        let q1 = template(db.catalog().clone());
        let plan = bcq_core::qplan::qplan_template(&q1, &a).unwrap();

        for (aid, uid) in [("a0", "u0"), ("a1", "u0"), ("a0", "u9"), ("a0", "u5")] {
            let mut bind = std::collections::BTreeMap::new();
            bind.insert("aid".to_string(), Value::str(aid));
            bind.insert("uid".to_string(), Value::str(uid));
            let env = crate::pipeline::ParamEnv::encode(db.symbols(), &bind);
            let prepared = eval_dq_with(&db, &plan, &a, &env).unwrap();

            let ground = q1.instantiate(&bind);
            let ground_plan = bcq_core::qplan::qplan(&ground, &a).unwrap();
            let fresh = eval_dq(&db, &ground_plan, &a).unwrap();
            assert_eq!(prepared.result, fresh.result, "binding ({aid}, {uid})");
        }
    }

    #[test]
    fn prepared_plan_rejects_missing_bindings() {
        let (db, a, _) = example1();
        let q1 = template(db.catalog().clone());
        let plan = bcq_core::qplan::qplan_template(&q1, &a).unwrap();
        let err = eval_dq(&db, &plan, &a).unwrap_err();
        assert!(matches!(err, CoreError::UnboundParameters(_)), "{err}");

        let mut bind = std::collections::BTreeMap::new();
        bind.insert("aid".to_string(), Value::str("a0"));
        let env = crate::pipeline::ParamEnv::encode(db.symbols(), &bind);
        let err = eval_dq_with(&db, &plan, &a, &env).unwrap_err();
        assert_eq!(err, CoreError::UnboundParameters(vec!["uid".to_string()]));
    }

    #[test]
    fn prepared_plan_with_uninterned_binding_is_exactly_empty() {
        let (db, a, _) = example1();
        let q1 = template(db.catalog().clone());
        let plan = bcq_core::qplan::qplan_template(&q1, &a).unwrap();
        let mut bind = std::collections::BTreeMap::new();
        bind.insert("aid".to_string(), Value::str("a0"));
        bind.insert("uid".to_string(), Value::str("never-seen-user"));
        let env = crate::pipeline::ParamEnv::encode(db.symbols(), &bind);
        let out = eval_dq_with(&db, &plan, &a, &env).unwrap();
        assert!(out.result.is_empty());
        // The uninterned uid kills the friends/tagging probes; only the
        // album fetch (keyed by the interned "a0") can touch data.
        assert!(out.meter.tuples_fetched <= 3, "{:?}", out.meter);
    }

    #[test]
    fn uninterned_plan_constant_short_circuits_probes() {
        // The query constant "a-ghost" never entered the database, so key
        // enumeration produces no keys, no probes hit the index postings,
        // and the answer is empty — without string hashing anywhere.
        let (db, a, _) = example1();
        let cat = db.catalog().clone();
        let q = SpcQuery::builder(cat, "ghost")
            .atom("in_album", "ia")
            .eq_const(("ia", "album_id"), "a-ghost")
            .project(("ia", "photo_id"))
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
        let out = eval_dq(&db, &plan, &a).unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.meter.tuples_fetched, 0);
    }
}
