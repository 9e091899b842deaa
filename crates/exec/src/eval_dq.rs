//! `evalDQ` (Section 6): executing bounded query plans.
//!
//! Follows the plan produced by [`bcq_core::qplan`]: each [`FetchStep`]
//! probes one access-constraint index with keys assembled from constants and
//! earlier steps' columns, materializing at most `bound` witness tuples —
//! and of each only the columns later work reads (the step's `out_cols`).
//! A step's distinct keys are enumerated once into one flat cell buffer,
//! `|X|` cells a key and no per-key row, and each is probed once: the
//! index takes a key as a `&[Cell]` whatever width it stores it at.
//! `D_Q` is the union of the fetched sets; the final join/filter/project is
//! the shared interpreter in [`crate::pipeline`] and runs entirely on
//! `D_Q`. Total data accessed is independent of `|D|`.
//!
//! Constants are encoded against the database's symbol table *read-only*
//! ([`bcq_core::symbols::SymbolTable::try_encode`]): a constant whose
//! string was never loaded can match nothing, so its probe keys simply
//! never materialize.

use crate::pipeline::{run_program_columnar_impl, ColumnarScratch, ExecContext, ParamEnv};
use crate::reference;
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::error::{CoreError, Result};
use bcq_core::fx::FxHasher;
use bcq_core::plan::{FetchKind, FetchStep, KeySource, QueryPlan};
use bcq_core::prelude::{Cell, ColumnBatch, SymbolTable};
use bcq_storage::{Database, Meter};
use bcq_telemetry::{NoProbe, OpProfile, Probe, Profiler, StepKind};
use std::cell::RefCell;
use std::hash::Hasher;
use std::time::{Duration, Instant};

/// Per-thread reusable buffers for bounded evaluation: the fetch output
/// batches (recycled via [`ColumnBatch::reset`]), the fetch loop's flat
/// probe keys, key-dedup table and witness rids, and the columnar
/// interpreter's working set. Bounded plans cap every buffer's size by
/// the access schema's `N`s, so the pool stays small; steady-state
/// serving requests allocate almost nothing.
#[derive(Default)]
struct EvalScratch {
    /// One batch per plan step, indexed by step id (grown on demand).
    fetched: Vec<ColumnBatch>,
    /// One batch per query atom, indexed by atom (swapped out of
    /// `fetched` after the fetch loop; buffers circulate between the two
    /// across requests).
    anchors: Vec<ColumnBatch>,
    /// The current step's distinct probe keys, flat: one stride of
    /// `|X|` cells a key ([`enumerate_keys_into`]).
    keys: Vec<Cell>,
    key_scratch: KeyScratch,
    /// The witnesses of the current step's keys, in key order.
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
            // vectorized, and only each distinct answer is decoded.
            run_program_columnar_impl(
                plan.program(),
                &mut anchors[..num_atoms],
                &mut ctx,
                true,
                interp,
                probe,
            )
            .expect("bounded evaluation has no budget")
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
        key_scratch,
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
        let mut probed = 0;
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
                probed =
                    enumerate_keys_into(step, prev, db.symbols(), ctx.params, keys, key_scratch);
                // Contract note: when `D |= A`, each step fetches at most
                // `step.bound` rows (tested across the workloads). When the
                // data *violates* its declared constraints the fetch can
                // exceed the bound, but the answer stays exact — witnesses
                // are never truncated at N. See
                // `eval_dq::tests::violating_data_still_yields_exact_answers`.
                let w = step.key.len();
                rids.clear();
                for i in 0..probed {
                    let witnesses = index.witnesses(&keys[i * w..(i + 1) * w]);
                    ctx.meter.index_probes += 1;
                    ctx.meter.tuples_fetched += witnesses.len() as u64;
                    rids.extend_from_slice(witnesses);
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
                    format!("fetch:step{sid}:atom{} index keys={probed}", step.atom),
                    probed as u64,
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

/// Source rows up to which a new probe key is compared with every key kept
/// before it; a larger source deduplicates through a hash table of key
/// numbers ([`KeyScratch::slots`]). Bounded fetches are small, so a few
/// dozen linear compares beat hashing every key.
const LINEAR_DEDUP: usize = 48;

/// The scratch [`enumerate_keys_into`] keeps across steps and requests.
#[derive(Default)]
struct KeyScratch {
    /// The step's fixed cells (constants and bound parameters), `NULL` at
    /// the positions a source column fills.
    template: Vec<Cell>,
    /// Open-addressing table of key numbers plus one (0 is an empty slot)
    /// for [`keep_if_new`]; see [`dedup_slots`].
    slots: Vec<u32>,
}

/// Readies `slots` to deduplicate the keys of a source of `rows` rows:
/// empty up to [`LINEAR_DEDUP`] rows, else zeroed at a power of two at
/// least twice `rows`.
fn dedup_slots(slots: &mut Vec<u32>, rows: usize) {
    slots.clear();
    if rows > LINEAR_DEDUP {
        slots.resize((2 * rows).next_power_of_two(), 0);
    }
}

/// Keeps the key of width `w` just appended to the flat `keys` iff no
/// earlier key equals it; drops it otherwise. Compares with every earlier
/// key while `slots` is empty, looks the key up in `slots` else.
fn keep_if_new(keys: &mut Vec<Cell>, w: usize, slots: &mut [u32]) {
    let at = keys.len() - w;
    let (kept, key) = keys.split_at(at);
    let seen = if slots.is_empty() {
        kept.chunks_exact(w).any(|k| k == key)
    } else {
        let mut hasher = FxHasher::default();
        key.iter().for_each(|c| hasher.write_u64(c.raw()));
        // Fx mixes upward: the top bits are the well-spread ones.
        let shift = u64::BITS - slots.len().trailing_zeros();
        let mask = slots.len() - 1;
        let mut slot = (hasher.finish() >> shift) as usize;
        loop {
            match slots[slot] {
                0 => {
                    slots[slot] = (at / w + 1) as u32;
                    break false;
                }
                n => {
                    let n = n as usize - 1;
                    if kept[n * w..(n + 1) * w] == *key {
                        break true;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    };
    if seen {
        keys.truncate(at);
    }
}

/// Enumerates the distinct probe keys of a fetch step into `keys` (cleared
/// first), flat and in first-seen order: key `i` is
/// `keys[i * w..(i + 1) * w]` with `w = step.key.len()`. Returns how many
/// there are — 1 for the single empty key of a bounded-domain probe
/// (`w = 0`). Constants and bound parameters are fixed; columns sourced
/// from the same earlier step vary together (row-wise); distinct source
/// steps combine by Cartesian product — mirroring the bound arithmetic of
/// plan generation.
///
/// A constant (or parameter value) that was never interned yields no keys
/// at all (nothing can match it), which collapses the step — and therefore
/// every step feeding off it — to the empty fetch.
fn enumerate_keys_into(
    step: &FetchStep,
    fetched: &[ColumnBatch],
    symbols: &SymbolTable,
    params: &ParamEnv,
    keys: &mut Vec<Cell>,
    scratch: &mut KeyScratch,
) -> usize {
    keys.clear();
    let w = step.key.len();
    if w == 0 {
        return 1;
    }

    // One pass decides the shape: fixed positions (constants and bound
    // parameters) fill the key template; column sources are only
    // classified (single vs multiple earlier steps).
    let KeyScratch { template, slots } = scratch;
    template.clear();
    let mut src: Option<usize> = None;
    let mut multi_src = false;
    for (_col, source) in &step.key {
        match source {
            KeySource::Const(v) => match symbols.try_encode(v) {
                Some(cell) => template.push(cell),
                None => return 0,
            },
            // Validated bound upstream (`eval_dq_with`); a never-interned
            // binding collapses the step like an uninterned constant.
            KeySource::Param(name) => match params.get(name) {
                Some(Some(cell)) => template.push(cell),
                _ => return 0,
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

    // A fully fixed key: the template is the one key.
    let Some(src) = src else {
        keys.extend_from_slice(template);
        return 1;
    };

    // One source step (the overwhelmingly common plan shape): a key per
    // source row, deduplicated as it is written.
    if !multi_src {
        let sb = &fetched[src];
        dedup_slots(slots, sb.total_rows());
        if let [(_, KeySource::Column { col, .. })] = &step.key[..] {
            // The key is one column of the source: its distinct cells.
            let column = sb.column(*col);
            if slots.is_empty() {
                for &cell in column {
                    if !keys.contains(&cell) {
                        keys.push(cell);
                    }
                }
            } else {
                for &cell in column {
                    keys.push(cell);
                    keep_if_new(keys, 1, slots);
                }
            }
        } else {
            for r in 0..sb.total_rows() {
                let at = keys.len();
                keys.extend_from_slice(template);
                for (pos, (_c, source)) in step.key.iter().enumerate() {
                    if let KeySource::Column { col, .. } = source {
                        keys[at + pos] = sb.column(*col)[r];
                    }
                }
                keep_if_new(keys, w, slots);
            }
        }
        return keys.len() / w;
    }

    // Distinct source steps combine by Cartesian product: the distinct
    // projections of each step onto its key positions, then every
    // combination written over the template, the first step varying
    // fastest.
    let mut steps: Vec<(usize, Vec<(usize, usize)>)> = Vec::new(); // (src, [(pos, col)])
    for (pos, (_col, source)) in step.key.iter().enumerate() {
        if let KeySource::Column { step: sid, col } = source {
            match steps.iter_mut().find(|(s, _)| *s == sid.0) {
                Some((_, positions)) => positions.push((pos, *col)),
                None => steps.push((sid.0, vec![(pos, *col)])),
            }
        }
    }
    let mut groups: Vec<Vec<Cell>> = Vec::with_capacity(steps.len());
    for (src, positions) in &steps {
        let sb = &fetched[*src];
        dedup_slots(slots, sb.total_rows());
        let mut group = Vec::new();
        for r in 0..sb.total_rows() {
            group.extend(positions.iter().map(|&(_, c)| sb.column(c)[r]));
            keep_if_new(&mut group, positions.len(), slots);
        }
        if group.is_empty() {
            return 0;
        }
        groups.push(group);
    }
    let mut cursor = vec![0usize; steps.len()];
    loop {
        let at = keys.len();
        keys.extend_from_slice(template);
        for (((_, positions), group), &i) in steps.iter().zip(&groups).zip(&cursor) {
            let combo = &group[i * positions.len()..(i + 1) * positions.len()];
            for (&(pos, _), &cell) in positions.iter().zip(combo) {
                keys[at + pos] = cell;
            }
        }
        // Advance the mixed-radix cursor.
        let mut g = 0;
        loop {
            if g == cursor.len() {
                return keys.len() / w;
            }
            cursor[g] += 1;
            if cursor[g] * steps[g].1.len() < groups[g].len() {
                break;
            }
            cursor[g] = 0;
            g += 1;
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

    /// A Boolean query whose atoms have no parameter: every batch is
    /// zero-width and the program touches no `Σ_Q` class, yet partials
    /// must still be counted — the compiled program keeps one slot. The
    /// engine, the reference and the baseline (whose batches are
    /// zero-width too) must agree, on a true and on a false instance.
    #[test]
    fn boolean_query_with_no_live_class() {
        let (db, a, _) = example1();
        let q = SpcQuery::builder(db.catalog().clone(), "both_nonempty")
            .atom("friends", "f")
            .atom("in_album", "ia")
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
        assert!(plan.steps().iter().all(|s| s.out_cols.is_empty()));
        assert_eq!(plan.program().num_classes, 1);

        let mut only_friends = Database::new(db.catalog().clone());
        only_friends
            .insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        only_friends.build_indexes(&a);

        for (db, answer) in [(&db, true), (&only_friends, false)] {
            let bounded = eval_dq(db, &plan, &a).unwrap();
            assert_eq!(bounded.result.as_bool(), answer);
            assert_eq!(bounded.result.len(), usize::from(answer));
            let reference = eval_dq_interpreted(db, &plan, &a).unwrap();
            assert_eq!(reference.result, bounded.result);
            assert_eq!(reference.meter, bounded.meter);
            for run in [
                crate::baseline::baseline,
                crate::baseline::baseline_interpreted,
            ] {
                let out = run(db, &q, &a, Default::default()).unwrap();
                assert_eq!(out.result(), Some(&bounded.result));
            }
        }
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

    /// Relations whose fetches probe with every key shape
    /// [`enumerate_keys_into`] tells apart: `r` lists under `a = 1` `n`
    /// rows whose `b` (`i mod b_mod`) and `(b, c)` repeat, and under
    /// `a = 2` ten rows over five `c`s; `s` is keyed on one column, `t` on
    /// two. Constraints: 0 `r: a → (b, c, g)`, 1 `s: b → d`, 2
    /// `t: (b, c) → e`.
    fn key_shapes(n: i64, b_mod: i64) -> (Database, AccessSchema) {
        let catalog = Catalog::from_names(&[
            ("r", &["a", "b", "c", "g"]),
            ("s", &["b", "d"]),
            ("t", &["b", "c", "e"]),
        ])
        .unwrap();
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("r", &["a"], &["b", "c", "g"], 1_000).unwrap();
        a.add("s", &["b"], &["d"], 10).unwrap();
        a.add("t", &["b", "c"], &["e"], 10).unwrap();
        let mut db = Database::new(catalog);
        let int = Value::int;
        for i in 0..n {
            db.insert("r", &[int(1), int(i % b_mod), int(i % 4), int(i)])
                .unwrap();
        }
        for i in 0..10 {
            db.insert("r", &[int(2), int(i % 3), int(i % 5), int(1_000 + i)])
                .unwrap();
        }
        for b in 0..b_mod.max(5) {
            for d in 0..=b % 3 {
                db.insert("s", &[int(b), int(d)]).unwrap();
            }
            for c in 0..5 {
                for e in 0..=(b + c) % 2 {
                    db.insert("t", &[int(b), int(c), int(e)]).unwrap();
                }
            }
        }
        db.build_indexes(&a);
        (db, a)
    }

    /// Runs `q` bounded and against the baseline: the answers agree, and
    /// the fetch charged one probe per key of `keys` (constraint number,
    /// key values — each step's distinct keys) and exactly their
    /// witnesses.
    fn probes_each_distinct_key_once(
        db: &Database,
        a: &AccessSchema,
        q: &SpcQuery,
        keys: &[(usize, Vec<Vec<i64>>)],
    ) {
        let plan = bcq_core::qplan::qplan(q, a).unwrap();
        let out = eval_dq(db, &plan, a).unwrap();
        let baseline = crate::baseline::baseline(db, q, a, Default::default()).unwrap();
        assert_eq!(Some(&out.result), baseline.result(), "{}", q.name());
        let (mut probes, mut fetched) = (0, 0);
        for (cid, step_keys) in keys {
            let index = db.index_for(a.constraint(ConstraintId(*cid))).unwrap();
            for key in step_keys {
                let key: Vec<Value> = key.iter().map(|&v| Value::int(v)).collect();
                let key = db.symbols().try_encode_row(&key).unwrap();
                probes += 1;
                fetched += index.witnesses(&key).len() as u64;
            }
        }
        assert_eq!(out.meter.index_probes, probes, "{}", q.name());
        assert_eq!(out.meter.tuples_fetched, fetched, "{}", q.name());
    }

    /// The key sources of the plan step on constraint `cid`.
    fn key_of(plan: &QueryPlan, cid: usize) -> &[(usize, KeySource)] {
        let step = plan
            .steps()
            .iter()
            .find(|s| s.constraint == Some(ConstraintId(cid)));
        &step.expect("a step on the constraint").key
    }

    #[test]
    fn a_fixed_key_is_probed_once() {
        let (db, a) = key_shapes(10, 7);
        let q = SpcQuery::builder(db.catalog().clone(), "fixed")
            .atom("t", "t")
            .eq_const(("t", "b"), 1)
            .eq_const(("t", "c"), 2)
            .project(("t", "e"))
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
        assert!(key_of(&plan, 2)
            .iter()
            .all(|(_, s)| matches!(s, KeySource::Const(_))));
        probes_each_distinct_key_once(&db, &a, &q, &[(2, vec![vec![1, 2]])]);
    }

    #[test]
    fn a_one_column_key_probes_the_distinct_cells_of_its_source() {
        // 40 source rows compare keys linearly, 200 go through the hash
        // table; both repeat `b`.
        for (n, b_mod) in [(40, 7), (200, 60)] {
            let (db, a) = key_shapes(n, b_mod);
            let q = SpcQuery::builder(db.catalog().clone(), "one_column")
                .atom("r", "r")
                .atom("s", "s")
                .eq_const(("r", "a"), 1)
                .eq(("r", "b"), ("s", "b"))
                .project(("s", "d"))
                .build()
                .unwrap();
            let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
            assert!(matches!(key_of(&plan, 1), [(_, KeySource::Column { .. })]));
            let distinct_b = (0..b_mod.min(n)).map(|b| vec![b]).collect();
            probes_each_distinct_key_once(&db, &a, &q, &[(0, vec![vec![1]]), (1, distinct_b)]);
        }
    }

    #[test]
    fn a_two_column_key_of_one_step_probes_each_distinct_pair_once() {
        for (n, b_mod) in [(40, 7), (200, 60)] {
            let (db, a) = key_shapes(n, b_mod);
            let q = SpcQuery::builder(db.catalog().clone(), "two_columns")
                .atom("r", "r")
                .atom("t", "t")
                .eq_const(("r", "a"), 1)
                .eq(("r", "b"), ("t", "b"))
                .eq(("r", "c"), ("t", "c"))
                .project(("t", "e"))
                .build()
                .unwrap();
            let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
            let key = key_of(&plan, 2);
            assert!(matches!(
                key,
                [(_, KeySource::Column { step: s0, .. }), (_, KeySource::Column { step: s1, .. })]
                    if s0 == s1
            ));
            let mut pairs: Vec<Vec<i64>> = (0..n).map(|i| vec![i % b_mod, i % 4]).collect();
            pairs.sort();
            pairs.dedup();
            assert!(pairs.len() < n as usize, "the source repeats pairs");
            probes_each_distinct_key_once(&db, &a, &q, &[(0, vec![vec![1]]), (2, pairs)]);
        }
    }

    #[test]
    fn keys_from_two_steps_are_their_cartesian_product() {
        let (db, a) = key_shapes(40, 7);
        let q = SpcQuery::builder(db.catalog().clone(), "product")
            .atom("r", "r1")
            .atom("r", "r2")
            .atom("t", "t")
            .eq_const(("r1", "a"), 1)
            .eq_const(("r2", "a"), 2)
            .eq(("r1", "b"), ("t", "b"))
            .eq(("r2", "c"), ("t", "c"))
            .project(("t", "e"))
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &a).unwrap();
        assert!(matches!(
            key_of(&plan, 2),
            [(_, KeySource::Column { step: s0, .. }), (_, KeySource::Column { step: s1, .. })]
                if s0 != s1
        ));
        let product = (0..7)
            .flat_map(|b| (0..5).map(move |c| vec![b, c]))
            .collect();
        let r_keys = vec![vec![1], vec![2]];
        probes_each_distinct_key_once(&db, &a, &q, &[(0, r_keys), (2, product)]);
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
