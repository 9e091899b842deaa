//! The columnar program interpreter: the one engine behind every executor.
//!
//! The paper's `evalDQ` (§6) is one algorithm — run the plan `ξ` to fetch
//! `D_Q`, then evaluate `Q` on `D_Q` — and that second half (filter → join
//! → project over per-atom candidate batches) is the same job for the
//! bounded executor, the conventional baseline and RA evaluation. This
//! module implements it once:
//!
//! ```text
//!   fetch  →  filter sweeps  →  [semijoin prefilter]  →  join schedule  →  project
//! ```
//!
//! * Candidates arrive as [`ColumnBatch`]es, gathered column-major straight
//!   off the tables — by `eval_dq`'s plan-driven witness fetches, or by
//!   this module's `Fetch::run_columns` (table scan / full index postings:
//!   the baseline's access paths). Fetching is the only place fetch work
//!   is charged.
//! * Everything after the fetch is driven by a compiled
//!   [`bcq_core::program::OpProgram`]: filter checks, join schedule, key
//!   permutations, semijoin layouts and the projection map were all
//!   resolved to positions at prepare time, so a request only resolves the
//!   program's pins to interned cells and then sweeps, hashes and merges
//!   fixed-width [`Cell`] words. Filters shrink a batch's selection vector
//!   in place; a join step sweeps the packed key column once per partial
//!   while the step is small and hashes the batch once it is large;
//!   partial assignments live in one flat ping-pong buffer; only
//!   projection touches anything row-shaped.
//! * The [`ExecContext`] carries the [`Meter`] and the optional work
//!   budget, so *every* executor meters identically and aborts identically
//!   on budget exhaustion — the paper's 2 500 s cap, deterministically.
//!
//! ## One engine, one reference
//!
//! There is no second engine. The only other implementation of
//! filter/join/project in this crate is the private `reference` module: a
//! deliberately plain, query-walking, row-at-a-time evaluator over the
//! same batches and the same context. It serves no request; the
//! `*_interpreted` entry points select it so the differential suites can
//! check this interpreter — its hash-join branch, join order and budget
//! accounting — at workload scale, where the enumeration oracle of
//! `tests/oracle.rs` cannot go.

use crate::results::ResultSet;
use bcq_core::fx::FxHashMap;
use bcq_core::prelude::{Cell, ColumnBatch, OpProgram, RowBuf, SpcQuery, SymbolTable, Value};
use bcq_core::program::{ColAction, PinSource};
use bcq_core::sigma::Sigma;
use bcq_storage::{Database, HashIndex, Meter, Table};
use bcq_telemetry::{NoProbe, Probe, StepKind};
use std::collections::BTreeMap;

/// Raised when the work budget is exhausted mid-pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted;

/// Parameter bindings pre-encoded to interned cells — the serving layer's
/// per-request boundary crossing, paid **once** per request instead of once
/// per probe. A `None` cell means the bound value was never interned by the
/// database: nothing stored can match it, so the executor short-circuits to
/// the empty result without hashing a single string.
#[derive(Debug, Clone, Default)]
pub struct ParamEnv {
    /// Few entries per query: linear scan beats a map.
    entries: Vec<(String, Option<Cell>)>,
}

/// The shared empty environment: contexts without parameters borrow this
/// instead of allocating.
static EMPTY_PARAMS: ParamEnv = ParamEnv {
    entries: Vec::new(),
};

impl ParamEnv {
    /// An empty environment (ground plans).
    pub fn new() -> Self {
        ParamEnv::default()
    }

    /// A `'static` reference to the empty environment.
    pub fn empty_ref() -> &'static ParamEnv {
        &EMPTY_PARAMS
    }

    /// Encodes value bindings against `symbols` (read-only; unseen values
    /// become `None` cells that match nothing).
    pub fn encode(symbols: &SymbolTable, bindings: &BTreeMap<String, Value>) -> Self {
        let mut env = ParamEnv::default();
        env.rebind(symbols, bindings);
        env
    }

    /// [`ParamEnv::encode`] in place: re-encodes `bindings` into this
    /// environment, reusing the entry buffer — including the allocated
    /// name strings when the name set is unchanged, which is the steady
    /// state of a prepared query served repeatedly (the serving layer
    /// keeps one environment per thread and rebinds it per request).
    pub fn rebind(&mut self, symbols: &SymbolTable, bindings: &BTreeMap<String, Value>) {
        if self.entries.len() == bindings.len()
            && self
                .entries
                .iter()
                .zip(bindings)
                .all(|((n, _), (bn, _))| n == bn)
        {
            for ((_, c), (_, v)) in self.entries.iter_mut().zip(bindings) {
                *c = symbols.try_encode(v);
            }
        } else {
            self.entries.clear();
            self.entries.extend(
                bindings
                    .iter()
                    .map(|(name, v)| (name.clone(), symbols.try_encode(v))),
            );
        }
    }

    /// Binds one already-encoded cell, allocating only for a name not
    /// bound before.
    pub fn bind(&mut self, name: &str, cell: Option<Cell>) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c = cell,
            None => self.entries.push((name.to_owned(), cell)),
        }
    }

    /// The binding for `name`: `None` if unbound, `Some(None)` if bound to
    /// a never-interned value, `Some(Some(cell))` otherwise.
    pub fn get(&self, name: &str) -> Option<Option<Cell>> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
    }

    /// Bound names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shared execution state: the database (for its symbol table), the meter
/// every operator charges, the optional row budget, and the parameter
/// bindings of the request being served.
pub struct ExecContext<'a> {
    /// The database being queried (operators use its symbol table; fetch
    /// sources hold their own table/index references).
    pub db: &'a Database,
    /// Work accounting, charged exclusively by pipeline operators.
    pub meter: Meter,
    /// Touched-row budget; `None` runs to completion.
    pub budget: Option<u64>,
    /// Parameter bindings for plans with [`bcq_core::plan::KeySource::Param`]
    /// slots; empty for ground plans. Borrowed: the serving layer encodes
    /// once per request and lends the environment to the context.
    pub params: &'a ParamEnv,
}

impl<'a> ExecContext<'a> {
    /// A fresh context over `db` with an optional work budget.
    pub fn new(db: &'a Database, budget: Option<u64>) -> Self {
        ExecContext {
            db,
            meter: Meter::new(),
            budget,
            params: ParamEnv::empty_ref(),
        }
    }

    /// A context carrying parameter bindings (prepared-plan execution).
    pub fn with_params(db: &'a Database, budget: Option<u64>, params: &'a ParamEnv) -> Self {
        ExecContext {
            db,
            meter: Meter::new(),
            budget,
            params,
        }
    }

    /// The symbol table query constants are encoded against.
    pub fn symbols(&self) -> &SymbolTable {
        self.db.symbols()
    }

    #[inline]
    fn check_budget(&self) -> Result<(), BudgetExhausted> {
        match self.budget {
            Some(b) if self.meter.work() > b => Err(BudgetExhausted),
            _ => Ok(()),
        }
    }

    #[inline]
    pub(crate) fn charge_fetched(&mut self) -> Result<(), BudgetExhausted> {
        self.meter.tuples_fetched += 1;
        self.check_budget()
    }

    #[inline]
    fn charge_scanned(&mut self) -> Result<(), BudgetExhausted> {
        self.meter.rows_scanned += 1;
        self.check_budget()
    }

    /// Charges a whole batch of intermediate rows at once — the columnar
    /// join's per-bucket boundary, and a semijoin pass's dropped rows.
    /// Totals match the reference's row-by-row charging exactly; on budget
    /// exhaustion only the verdict is guaranteed to match (the meter may
    /// overshoot by at most one bucket, where the reference stops at the
    /// first offending row).
    #[inline]
    pub(crate) fn charge_intermediate_n(&mut self, n: u64) -> Result<(), BudgetExhausted> {
        self.meter.intermediate_rows += n;
        self.check_budget()
    }
}

/// Where a [`Fetch`] gets its rows.
pub(crate) enum FetchSource<'a> {
    /// Full table scan with inline constant filtering. A `None` constant
    /// is a value the symbol table has never seen: no row can match.
    Scan {
        /// The scanned table.
        table: &'a Table,
        /// `(column, required cell)` filters applied during the scan.
        consts: Vec<(usize, Option<Cell>)>,
    },
    /// Full-postings lookup: what a conventional DBMS reads through a
    /// secondary index — every duplicate, whole tuples. `None` means the
    /// key contained a never-interned constant (no match possible).
    IndexPostings {
        /// The probed index.
        index: &'a HashIndex,
        /// The table the index's row ids point into.
        table: &'a Table,
        /// The single constant-bound key.
        key: Option<RowBuf>,
    },
}

/// The baseline's fetch operator: materializes one batch of candidate
/// rows, charging the meter per touched row (scans charge `rows_scanned`,
/// index reads charge `tuples_fetched`, probes charge `index_probes`).
/// The bounded executor's witness fetches live in `eval_dq`.
pub(crate) struct Fetch<'a> {
    /// The atom the batch instantiates.
    pub atom: usize,
    /// Relation columns to project each fetched row onto (borrowed: plans
    /// and baseline column sets outlive the fetch).
    pub cols: &'a [usize],
    /// The access path.
    pub source: FetchSource<'a>,
}

impl Fetch<'_> {
    /// Runs the fetch straight into a column-major batch: matching row ids
    /// are collected first (charging the meter per touched row), then every
    /// projected column is gathered from the table in one contiguous pass
    /// ([`Table::gather_column`]) — no row materialization.
    pub fn run_columns(&self, ctx: &mut ExecContext<'_>) -> Result<ColumnBatch, BudgetExhausted> {
        let mut batch = ColumnBatch::new(self.atom, self.cols.to_vec());
        let gather = |table: &Table, rids: &[u32], batch: &mut ColumnBatch| {
            batch.extend_columns(rids.len(), |i, out| {
                table.gather_column(self.cols[i], rids, out);
            });
        };
        match &self.source {
            FetchSource::Scan { table, consts } => {
                let matchable = consts.iter().all(|(_, c)| c.is_some());
                let mut rids: Vec<u32> = Vec::new();
                for (rid, row) in table.rows().enumerate() {
                    ctx.charge_scanned()?;
                    if matchable && consts.iter().all(|(i, c)| Some(row[*i]) == *c) {
                        rids.push(rid as u32);
                    }
                }
                gather(table, &rids, &mut batch);
            }
            FetchSource::IndexPostings { index, table, key } => {
                ctx.meter.index_probes += 1;
                if let Some(key) = key {
                    let postings = index.all(key);
                    for _ in postings {
                        ctx.charge_fetched()?;
                    }
                    gather(table, postings, &mut batch);
                }
            }
        }
        Ok(batch)
    }
}

// ---------------------------------------------------------------------------
// The interpreter: vectorized batch execution over `ColumnBatch`.
// ---------------------------------------------------------------------------

/// Resolves every pin of a program to an interned cell, once per request.
/// `None` means the pin can match nothing: a never-interned constant or
/// binding — or an unbound slot, which the program contract forbids (see
/// [`bcq_core::program`]; public executors validate bindings upstream).
fn resolve_pins(prog: &OpProgram, ctx: &ExecContext<'_>) -> Vec<Option<Cell>> {
    let symbols = ctx.symbols();
    prog.pins
        .iter()
        .map(|p| match p {
            PinSource::Const(v) => symbols.try_encode(v),
            PinSource::Param(name) => ctx.params.get(name).flatten(),
        })
        .collect()
}

/// Applies the compiled per-atom filters to every batch — constant and
/// parameter checks and intra-atom equalities, all pre-resolved to column
/// positions, with the program's pins resolved **once** for the whole set
/// — as predicate sweeps over single columns that shrink each batch's
/// selection vector in place; no row is ever materialized or moved.
fn filter_program_columnar(prog: &OpProgram, ctx: &ExecContext<'_>, batches: &mut [ColumnBatch]) {
    let resolved = resolve_pins(prog, ctx);
    for batch in batches {
        filter_columnar_resolved(prog, &resolved, batch);
    }
}

fn filter_columnar_resolved(prog: &OpProgram, resolved: &[Option<Cell>], batch: &mut ColumnBatch) {
    let f = &prog.filters[batch.atom()];
    debug_assert_eq!(
        batch.cols(),
        &prog.atom_cols[batch.atom()][..],
        "batch layout"
    );
    for &(i, pin) in &f.checks {
        match resolved[pin] {
            Some(cell) => batch.retain_eq_const(i, cell),
            // A pin that resolves to nothing matches no stored row.
            None => {
                batch.clear_sel();
                return;
            }
        }
    }
    for &(i, j) in &f.eqs {
        batch.retain_cols_eq(i, j);
    }
}

/// Runs the compiled semijoin prefilter: each pass gathers the source
/// batch's live key cells into a set (on the shared-column position pairs
/// hoisted into the program at compile time) and sweeps the target's
/// selection vector against it. Dropped rows are charged as intermediate
/// work and the budget is checked after every pass, exactly like the
/// reference.
fn semijoin_program_columnar(
    prog: &OpProgram,
    batches: &mut [ColumnBatch],
    ctx: &mut ExecContext<'_>,
) -> Result<(), BudgetExhausted> {
    use bcq_core::fx::FxHashSet;
    for pass in prog.semijoins() {
        let dropped = if let [(pi, pj)] = pass.pairs[..] {
            // Single shared column: single-cell keys, no row assembly.
            let keys: FxHashSet<Cell> = {
                let s = &batches[pass.source];
                s.sel().iter().map(|&r| s.cell(r as usize, pj)).collect()
            };
            let t = &batches[pass.target];
            let keep: Vec<u32> = t
                .sel()
                .iter()
                .copied()
                .filter(|&r| keys.contains(&t.cell(r as usize, pi)))
                .collect();
            let dropped = t.len() - keep.len();
            batches[pass.target].set_sel(keep);
            dropped
        } else {
            let keys: FxHashSet<RowBuf> = {
                let s = &batches[pass.source];
                s.sel()
                    .iter()
                    .map(|&r| {
                        pass.pairs
                            .iter()
                            .map(|&(_, pj)| s.cell(r as usize, pj))
                            .collect()
                    })
                    .collect()
            };
            let t = &batches[pass.target];
            let keep: Vec<u32> = t
                .sel()
                .iter()
                .copied()
                .filter(|&r| {
                    let key: RowBuf = pass
                        .pairs
                        .iter()
                        .map(|&(pi, _)| t.cell(r as usize, pi))
                        .collect();
                    keys.contains(key.as_slice())
                })
                .collect();
            let dropped = t.len() - keep.len();
            batches[pass.target].set_sel(keep);
            dropped
        };
        ctx.charge_intermediate_n(dropped as u64)?;
    }
    Ok(())
}

/// Decodes the flat columnar partial buffer (stride = `num_classes`)
/// through the program's projection map.
pub(crate) fn project_program_flat(
    prog: &OpProgram,
    symbols: &SymbolTable,
    flat: &[Option<Cell>],
) -> ResultSet {
    if flat.is_empty() {
        return ResultSet::empty();
    }
    let stride = prog.num_classes;
    let mut out = Vec::with_capacity(flat.len() / stride);
    for partial in flat.chunks_exact(stride) {
        let row: Box<[Value]> = prog
            .proj_classes
            .iter()
            .map(|&c| symbols.decode(partial[c].expect("projection class is bound")))
            .collect();
        out.push(row);
    }
    ResultSet::from_rows(out)
}

/// Reusable buffers for the columnar interpreter. The serving layer keeps
/// one per thread (see `eval_dq`), so a steady-state request runs the whole
/// join schedule without allocating; the ad-hoc entry
/// ([`run_query_columnar`]) creates a fresh (empty) scratch per call
/// instead.
#[derive(Debug, Default)]
pub(crate) struct ColumnarScratch {
    resolved: Vec<Option<Cell>>,
    cur: Vec<Option<Cell>>,
    nxt: Vec<Option<Cell>>,
    keys: Vec<Cell>,
    binds: Vec<(usize, usize)>,
    chain: Vec<u32>,
}

/// The ad-hoc entry: compiles `q` for batches laid out as `layouts` and
/// runs it in one call — the per-call baseline's tail (prepared queries
/// compile once at prepare time and drive [`run_program_columnar_impl`]
/// themselves). With `semijoin` set, the `IndexJoin` prefilter runs
/// between the filters and the join.
///
/// Order fidelity: the reference picks its join order from the batch
/// sizes *after* atom-local filtering (and, with `semijoin`, after the
/// prune). To charge the same intermediate work — budget verdicts
/// included — filter and prune run first (neither charges the meter
/// except semijoin drops, identically on both sides), the join is
/// rescheduled from the surviving sizes, and the interpreter then runs
/// with its own filter pass off so the rows are not swept a second time.
pub(crate) fn run_query_columnar(
    q: &SpcQuery,
    sigma: &Sigma,
    layouts: &[Vec<usize>],
    mut batches: Vec<ColumnBatch>,
    semijoin: bool,
    ctx: &mut ExecContext<'_>,
) -> Result<ResultSet, BudgetExhausted> {
    let mut prog = OpProgram::compile(q, sigma, layouts, None);
    filter_program_columnar(&prog, ctx, &mut batches);
    if semijoin {
        semijoin_program_columnar(&prog, &mut batches, ctx)?;
    }
    let sizes: Vec<u128> = batches.iter().map(|b| b.len() as u128).collect();
    prog.reschedule_joins(&sizes);
    let mut scratch = ColumnarScratch::default();
    let flat =
        run_program_columnar_impl(&prog, &mut batches, ctx, false, &mut scratch, &mut NoProbe)?;
    Ok(project_program_flat(&prog, ctx.db.symbols(), flat))
}

/// Appends `partial` merged with the batch row `row` onto the flat output
/// buffer: copy the partial's class slots, then overwrite the step's
/// `Bind` slots from the row's columns.
#[inline]
fn emit_merged(
    nxt: &mut Vec<Option<Cell>>,
    partial: &[Option<Cell>],
    batch: &ColumnBatch,
    binds: &[(usize, usize)],
    row: usize,
) {
    nxt.extend_from_slice(partial);
    let base = nxt.len() - partial.len();
    for &(pos, c) in binds {
        nxt[base + c] = Some(batch.cell(row, pos));
    }
}

/// Above this many (partials × live rows) pairs, a join step hashes the
/// batch instead of sweeping it per partial. Bounded plans essentially
/// always stay below it (batch sizes are capped by the access schema's
/// `N`s), so the hot path is branch-free key sweeps over packed columns.
const LINEAR_SWEEP_LIMIT: usize = 2048;

/// The interpreter body, generic over the profiling [`Probe`]. The
/// steady-state instantiation is [`NoProbe`] (`ENABLED = false`): every
/// probe site — including the label `format!`s, which are guarded by
/// `P::ENABLED` — is compiled out, so the serving path is byte-for-byte
/// the unprofiled interpreter. A [`bcq_telemetry::Profiler`] instead
/// times each operator step with its row movement.
pub(crate) fn run_program_columnar_impl<'s, P: Probe>(
    prog: &OpProgram,
    batches: &mut [ColumnBatch],
    ctx: &mut ExecContext<'_>,
    apply_filters: bool,
    scratch: &'s mut ColumnarScratch,
    probe: &mut P,
) -> Result<&'s [Option<Cell>], BudgetExhausted> {
    debug_assert_eq!(batches.len(), prog.num_atoms);
    debug_assert!(batches.iter().enumerate().all(|(i, b)| b.atom() == i));
    // All working buffers live in `scratch` (cleared here, capacity kept):
    // the serving layer lends a per-thread scratch, so a steady-state
    // request runs the whole schedule without allocating.
    let ColumnarScratch {
        resolved,
        cur,
        nxt,
        keys,
        binds,
        chain,
    } = scratch;
    if P::ENABLED {
        probe.begin();
    }
    resolved.clear();
    {
        let symbols = ctx.symbols();
        resolved.extend(prog.pins.iter().map(|p| match p {
            PinSource::Const(v) => symbols.try_encode(v),
            PinSource::Param(name) => ctx.params.get(name).flatten(),
        }));
    }
    if P::ENABLED {
        probe.step(
            StepKind::Pin,
            &format!("pin:resolve x{}", prog.pins.len()),
            prog.pins.len() as u64,
            resolved.iter().flatten().count() as u64,
        );
    }

    for batch in batches.iter_mut() {
        if apply_filters {
            if P::ENABLED {
                probe.begin();
            }
            let before = if P::ENABLED { batch.len() as u64 } else { 0 };
            filter_columnar_resolved(prog, resolved, batch);
            if P::ENABLED {
                probe.step(
                    StepKind::Filter,
                    &format!("filter:atom{}", batch.atom()),
                    before,
                    batch.len() as u64,
                );
            }
        }
        if batch.is_empty() {
            return Ok(&[]);
        }
    }

    // Seed one partial assignment (one slot per class) from the compiled
    // pins; a pin resolved to nothing (or two disagreeing pins of one
    // class) empties the answer before any row is touched.
    if P::ENABLED {
        probe.begin();
    }
    cur.clear();
    cur.resize(prog.num_classes, None);
    for sp in &prog.seeds {
        let mut pinned: Option<Cell> = None;
        for &pid in &sp.pins {
            match resolved[pid] {
                Some(cell) => match pinned {
                    None => pinned = Some(cell),
                    Some(prev) if prev == cell => {}
                    Some(_) => return Ok(&[]),
                },
                None => return Ok(&[]),
            }
        }
        cur[sp.class] = pinned;
    }
    if P::ENABLED {
        probe.step(
            StepKind::Seed,
            &format!("seed:classes={}", prog.num_classes),
            prog.seeds.len() as u64,
            1,
        );
    }
    let stride = prog.num_classes;

    for step in &prog.join_steps {
        // Row-local duplicate-class sweep: exactly the rows the
        // row-at-a-time class-walk merge rejects (and never charges).
        if P::ENABLED {
            probe.begin();
        }
        let had_dups = step
            .col_actions
            .iter()
            .any(|a| matches!(a, ColAction::CheckDup(_)));
        let pre_dup = if P::ENABLED {
            batches[step.atom].len() as u64
        } else {
            0
        };
        for (pos, action) in step.col_actions.iter().enumerate() {
            if let ColAction::CheckDup(prev) = *action {
                batches[step.atom].retain_cols_eq(prev, pos);
            }
        }
        if P::ENABLED && had_dups {
            probe.step(
                StepKind::DupCheck,
                &format!("dup_check:atom{}", step.atom),
                pre_dup,
                batches[step.atom].len() as u64,
            );
            probe.begin();
        }
        let batch = &batches[step.atom];
        let live = batch.sel();
        binds.clear();
        binds.extend(
            step.col_actions
                .iter()
                .enumerate()
                .filter_map(|(pos, a)| match *a {
                    ColAction::Bind(c) => Some((pos, c)),
                    _ => None,
                }),
        );
        let nparts = cur.len() / stride;
        nxt.clear();

        if step.shared_pos.is_empty() {
            // No shared classes: cross product (after the dup sweep every
            // pair merges, so the whole bucket is charged at once).
            for pi in 0..nparts {
                let partial = &cur[pi * stride..(pi + 1) * stride];
                for &r in live {
                    emit_merged(nxt, partial, batch, binds, r as usize);
                }
                if !live.is_empty() {
                    ctx.charge_intermediate_n(live.len() as u64)?;
                }
            }
        } else if nparts * live.len() <= LINEAR_SWEEP_LIMIT {
            // Small step: sweep the packed key column(s) once per partial —
            // cheaper than building a hash table, and the single-key common
            // case is a branch-free equality scan over contiguous `u64`s.
            if let [p] = step.shared_pos[..] {
                keys.clear();
                batch.gather(p, keys);
                let cls = step.shared_classes[0];
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let want = partial[cls].expect("shared class is bound");
                    let mut made = 0u64;
                    for (li, &k) in keys.iter().enumerate() {
                        if k == want {
                            emit_merged(nxt, partial, batch, binds, live[li] as usize);
                            made += 1;
                        }
                    }
                    if made > 0 {
                        ctx.charge_intermediate_n(made)?;
                    }
                }
            } else {
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let mut made = 0u64;
                    'rows: for &r in live {
                        for (&c, &p) in step.shared_classes.iter().zip(&step.shared_pos) {
                            if partial[c] != Some(batch.cell(r as usize, p)) {
                                continue 'rows;
                            }
                        }
                        emit_merged(nxt, partial, batch, binds, r as usize);
                        made += 1;
                    }
                    if made > 0 {
                        ctx.charge_intermediate_n(made)?;
                    }
                }
            }
        } else {
            // Large step: hash the batch on the key columns (linked-list
            // buckets through one `chain` array, newest first).
            const NIL: u32 = u32::MAX;
            chain.clear();
            chain.reserve(live.len());
            if let [p] = step.shared_pos[..] {
                keys.clear();
                batch.gather(p, keys);
                let mut head: FxHashMap<Cell, u32> = FxHashMap::default();
                head.reserve(keys.len());
                for (li, &k) in keys.iter().enumerate() {
                    let h = head.entry(k).or_insert(NIL);
                    chain.push(*h);
                    *h = li as u32;
                }
                let cls = step.shared_classes[0];
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let want = partial[cls].expect("shared class is bound");
                    let Some(&h) = head.get(&want) else {
                        continue;
                    };
                    let mut cursor = h;
                    let mut made = 0u64;
                    while cursor != NIL {
                        let li = cursor as usize;
                        cursor = chain[li];
                        emit_merged(nxt, partial, batch, binds, live[li] as usize);
                        made += 1;
                    }
                    ctx.charge_intermediate_n(made)?;
                }
            } else {
                let mut head: FxHashMap<RowBuf, u32> = FxHashMap::default();
                head.reserve(live.len());
                for (li, &r) in live.iter().enumerate() {
                    let key: RowBuf = step
                        .shared_pos
                        .iter()
                        .map(|&p| batch.cell(r as usize, p))
                        .collect();
                    let h = head.entry(key).or_insert(NIL);
                    chain.push(*h);
                    *h = li as u32;
                }
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let key: RowBuf = step
                        .shared_classes
                        .iter()
                        .map(|&c| partial[c].expect("shared class is bound"))
                        .collect();
                    let Some(&h) = head.get(key.as_slice()) else {
                        continue;
                    };
                    let mut cursor = h;
                    let mut made = 0u64;
                    while cursor != NIL {
                        let li = cursor as usize;
                        cursor = chain[li];
                        emit_merged(nxt, partial, batch, binds, live[li] as usize);
                        made += 1;
                    }
                    ctx.charge_intermediate_n(made)?;
                }
            }
        }

        if P::ENABLED {
            let strategy = if step.shared_pos.is_empty() {
                "cross"
            } else if nparts * live.len() <= LINEAR_SWEEP_LIMIT {
                "sweep"
            } else {
                "hash"
            };
            probe.step(
                StepKind::Join,
                &format!(
                    "join:atom{} keys={} binds={} parts={} {}",
                    step.atom,
                    step.shared_pos.len(),
                    binds.len(),
                    nparts,
                    strategy
                ),
                live.len() as u64,
                (nxt.len() / stride) as u64,
            );
        }
        std::mem::swap(cur, nxt);
        if cur.is_empty() {
            return Ok(&[]);
        }
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::test_fixtures::{dummy_db, rows, two_rel_query};
    use bcq_core::access::AccessSchema;
    use bcq_core::prelude::{Catalog, RelId};
    use bcq_telemetry::Profiler;
    use std::sync::Arc;

    /// A column-major batch over the leading columns, from small-int rows.
    fn batch(atom: usize, data: &[&[i64]]) -> ColumnBatch {
        let width = data.first().map_or(0, |r| r.len());
        ColumnBatch::from_rows(
            atom,
            (0..width).collect(),
            rows(data).iter().map(|r| r.as_slice()),
        )
    }

    fn layouts(batches: &[ColumnBatch]) -> Vec<Vec<usize>> {
        batches.iter().map(|b| b.cols().to_vec()).collect()
    }

    /// One compiled program through the interpreter, projected — the
    /// serving path's shape, with the filter pass and the probe selectable.
    fn interpret<P: Probe>(
        prog: &OpProgram,
        mut batches: Vec<ColumnBatch>,
        ctx: &mut ExecContext<'_>,
        apply_filters: bool,
        probe: &mut P,
    ) -> Result<ResultSet, BudgetExhausted> {
        let mut scratch = ColumnarScratch::default();
        let flat =
            run_program_columnar_impl(prog, &mut batches, ctx, apply_filters, &mut scratch, probe)?;
        Ok(project_program_flat(prog, ctx.db.symbols(), flat))
    }

    /// The engine (ad-hoc entry: filter, reschedule on the surviving sizes,
    /// run — so its join order is the reference's) and the reference over
    /// the same batches, unbudgeted. Asserts equal answers and equal meters
    /// and returns them.
    fn engine_vs_reference(
        q: &SpcQuery,
        batches: &[ColumnBatch],
        semijoin: bool,
    ) -> (ResultSet, Meter) {
        let sigma = Sigma::build(q);
        let db = dummy_db();
        let mut ectx = ExecContext::new(&db, None);
        let engine = run_query_columnar(
            q,
            &sigma,
            &layouts(batches),
            batches.to_vec(),
            semijoin,
            &mut ectx,
        )
        .unwrap();
        let mut rctx = ExecContext::new(&db, None);
        let oracle = reference::join_project(q, &sigma, batches, semijoin, &mut rctx).unwrap();
        assert_eq!(engine, oracle, "{}: engine vs reference", q.name());
        assert_eq!(ectx.meter, rctx.meter, "{}: same work charged", q.name());
        (engine, ectx.meter)
    }

    #[test]
    fn columnar_program_matches_reference() {
        let q = two_rel_query();
        let batches = [
            batch(0, &[&[1, 10], &[2, 20], &[3, 30]]),
            batch(1, &[&[10, 100], &[20, 200], &[99, 999]]),
        ];
        let (rs, _) = engine_vs_reference(&q, &batches, false);
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&[Value::int(1), Value::int(100)]));
        assert!(rs.contains(&[Value::int(2), Value::int(200)]));
    }

    #[test]
    fn columnar_join_handles_duplicate_keys() {
        // Duplicate join-key values on both sides (including a fully
        // duplicated row): every pairing must be produced and charged
        // exactly as the reference does.
        let q = two_rel_query();
        let batches = [
            batch(0, &[&[1, 10], &[2, 10], &[2, 10], &[3, 20]]),
            batch(1, &[&[10, 100], &[10, 200], &[20, 300]]),
        ];
        let (_, meter) = engine_vs_reference(&q, &batches, false);
        // 3 rows key 10 × 2 matches + 1 row key 20 × 1 match, both steps.
        assert!(meter.intermediate_rows >= 7);
    }

    #[test]
    fn columnar_empty_batch_short_circuits() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1], vec![0, 1]], None);
        let batches = vec![ColumnBatch::new(0, vec![0, 1]), batch(1, &[&[10, 100]])];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = interpret(&prog, batches, &mut ctx, true, &mut NoProbe).unwrap();
        assert!(rs.is_empty());
        assert_eq!(ctx.meter.intermediate_rows, 0, "nothing joined");
    }

    #[test]
    fn columnar_all_filtered_batch_short_circuits() {
        // The filter sweep deselects every row of one batch: the program
        // must return empty without charging any join work, leaving the
        // batch's columns intact (only the selection vector drains).
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), 7)
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1]], None);
        let mut filtered = batch(0, &[&[1, 10], &[2, 20]]);
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        filter_program_columnar(&prog, &ctx, std::slice::from_mut(&mut filtered));
        assert!(filtered.is_empty());
        assert_eq!(filtered.total_rows(), 2, "columns untouched");
        let mut ctx = ExecContext::new(&db, None);
        let rs = interpret(&prog, vec![filtered], &mut ctx, true, &mut NoProbe).unwrap();
        assert!(rs.is_empty());
        assert_eq!(ctx.meter.intermediate_rows, 0);
    }

    #[test]
    fn columnar_filter_matches_reference() {
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .eq(("r", "b"), ("r", "c"))
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1, 2]], None);
        let candidates = batch(0, &[&[1, 5, 5], &[1, 5, 6], &[2, 7, 7], &[1, 9, 9]]);
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        let mut columnar = candidates.clone();
        filter_program_columnar(&prog, &ctx, std::slice::from_mut(&mut columnar));
        assert_eq!(columnar.to_rows(), rows(&[&[1, 5, 5], &[1, 9, 9]]));
        assert_eq!(columnar.sel(), &[0, 3], "selection keeps original indices");
        let (rs, _) = engine_vs_reference(&q, &[candidates], false);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn columnar_semijoin_matches_reference() {
        // The hoisted shared-column layout must reproduce the
        // query-walking prefilter exactly: same answer, same charge for
        // the rows it drops, same join work on what survives.
        let q = two_rel_query();
        let batches = [
            batch(0, &[&[1, 10], &[2, 99], &[3, 20], &[4, 20]]),
            batch(1, &[&[10, 100], &[20, 200], &[55, 500]]),
        ];
        let (rs, _) = engine_vs_reference(&q, &batches, true);
        assert_eq!(rs.len(), 3);
        // And the pass actually pruned something: one row from each side.
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &layouts(&batches), None);
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let mut pruned = batches.to_vec();
        semijoin_program_columnar(&prog, &mut pruned, &mut ctx).unwrap();
        assert_eq!((pruned[0].len(), pruned[1].len()), (3, 2));
        assert_eq!(ctx.meter.intermediate_rows, 2);
    }

    #[test]
    fn columnar_dup_class_sweep_matches_reference() {
        // An unfiltered batch with an intra-atom repeated class reaches the
        // join (filter pass off): the selection sweep must drop exactly the
        // rows the reference's filter and class-walk merge reject,
        // uncharged.
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let q = SpcQuery::builder(cat, "dup")
            .atom("r", "r")
            .eq(("r", "a"), ("r", "b"))
            .project(("r", "a"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1]], None);
        let batches = [batch(0, &[&[1, 1], &[1, 2], &[3, 3]])];
        let db = dummy_db();
        let mut ectx = ExecContext::new(&db, None);
        let engine = interpret(&prog, batches.to_vec(), &mut ectx, false, &mut NoProbe).unwrap();
        let mut rctx = ExecContext::new(&db, None);
        let oracle = reference::join_project(&q, &sigma, &batches, false, &mut rctx).unwrap();
        assert_eq!(engine, oracle);
        assert_eq!(engine.len(), 2);
        assert_eq!(ectx.meter, rctx.meter);
        assert_eq!(
            ectx.meter.intermediate_rows, 2,
            "conflict row never charged"
        );
    }

    #[test]
    fn columnar_program_respects_budget() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1], vec![0, 1]], None);
        let big: Vec<[i64; 2]> = (0..100).map(|i| [i, i]).collect();
        let big: Vec<&[i64]> = big.iter().map(|r| r.as_slice()).collect();
        let batches = vec![batch(0, &big), batch(1, &big)];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, Some(10));
        assert_eq!(
            interpret(&prog, batches, &mut ctx, true, &mut NoProbe),
            Err(BudgetExhausted)
        );
        assert!(ctx.meter.work() > 10);
    }

    #[test]
    fn uninterned_constant_empties_like_reference() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), "never-loaded")
            .project(("r", "a"))
            .build()
            .unwrap();
        let (rs, _) = engine_vs_reference(&q, &[batch(0, &[&[1], &[2]])], false);
        assert!(rs.is_empty());
    }

    /// The join step's strategy is a function of (partials × live rows)
    /// against [`LINEAR_SWEEP_LIMIT`]; no workload-sized input is needed
    /// to reach the hash branch, only one just past the limit. Runs a
    /// two-atom join at the largest `n × n` that still sweeps and at the
    /// next `n`, on a one-column and on a two-column key, duplicate keys
    /// on both sides, and holds both against the reference. The recorded
    /// step labels pin which branch ran, so moving the constant cannot
    /// silently take the hash branch out of coverage.
    #[test]
    fn join_strategy_switches_at_the_sweep_limit() {
        let sweeps = (1..)
            .take_while(|n| n * n <= LINEAR_SWEEP_LIMIT)
            .last()
            .unwrap();
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"]), ("s", &["d", "e", "f"])]).unwrap();
        for two_column_key in [false, true] {
            let mut b = SpcQuery::builder(Arc::clone(&cat), "limit")
                .atom("r", "r")
                .atom("s", "s")
                .eq(("r", "b"), ("s", "d"));
            if two_column_key {
                b = b.eq(("r", "c"), ("s", "e"));
            }
            let q = b.project(("r", "a")).project(("s", "f")).build().unwrap();
            let sigma = Sigma::build(&q);
            for (n, strategy) in [(sweeps, "sweep"), (sweeps + 1, "hash")] {
                let r: Vec<[i64; 3]> = (0..n as i64).map(|i| [i, i % 7, i % 3]).collect();
                let s: Vec<[i64; 3]> = (0..n as i64).map(|i| [i % 7, i % 3, i]).collect();
                let r: Vec<&[i64]> = r.iter().map(|x| x.as_slice()).collect();
                let s: Vec<&[i64]> = s.iter().map(|x| x.as_slice()).collect();
                let batches = [batch(0, &r), batch(1, &s)];
                let prog = OpProgram::compile(&q, &sigma, &layouts(&batches), None);
                let db = dummy_db();

                let mut profiler = Profiler::new();
                let mut ectx = ExecContext::new(&db, None);
                let engine =
                    interpret(&prog, batches.to_vec(), &mut ectx, true, &mut profiler).unwrap();
                let joins: Vec<String> = profiler
                    .finish(0)
                    .steps
                    .into_iter()
                    .filter(|s| s.kind == StepKind::Join)
                    .map(|s| s.label)
                    .collect();
                assert_eq!(joins.len(), 2, "{joins:?}");
                assert!(joins[0].ends_with(" cross"), "{joins:?}");
                assert!(
                    joins[1].ends_with(&format!("parts={n} {strategy}")),
                    "n={n}: {joins:?}"
                );

                let mut rctx = ExecContext::new(&db, None);
                let oracle =
                    reference::join_project(&q, &sigma, &batches, false, &mut rctx).unwrap();
                assert_eq!(engine, oracle, "n={n} {strategy}");
                assert!(engine.len() > n, "duplicate keys fan out");
                assert_eq!(ectx.meter.intermediate_rows, rctx.meter.intermediate_rows);
            }
        }
    }

    /// `r(a, b)` = (1,10), (2,20), (1,30) with an index on `a`.
    fn fetch_db() -> (Database, AccessSchema) {
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(Arc::clone(&cat));
        a.add("r", &["a"], &["b"], 8).unwrap();
        let mut db = Database::new(cat);
        for (x, y) in [(1, 10), (2, 20), (1, 30)] {
            db.insert("r", &[Value::int(x), Value::int(y)]).unwrap();
        }
        db.build_indexes(&a);
        (db, a)
    }

    #[test]
    fn fetch_scan_charges_all_rows_and_filters() {
        let (db, _) = fetch_db();
        let mut ctx = ExecContext::new(&db, None);
        let fetch = Fetch {
            atom: 0,
            cols: &[1, 0],
            source: FetchSource::Scan {
                table: db.table(RelId(0)),
                consts: vec![(0, db.symbols().try_encode(&Value::int(1)))],
            },
        };
        let fetched = fetch.run_columns(&mut ctx).unwrap();
        assert_eq!(fetched.to_rows(), rows(&[&[10, 1], &[30, 1]]));
        assert_eq!(fetched.cols(), &[1, 0][..], "projection permutes");
        assert_eq!(ctx.meter.rows_scanned, 3, "whole table charged");
        assert_eq!(ctx.meter.tuples_fetched, 0);
    }

    #[test]
    fn fetch_budget_aborts_mid_scan() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let mut db = Database::new(cat);
        for i in 0..10 {
            db.insert("r", &[Value::int(i)]).unwrap();
        }
        let mut ctx = ExecContext::new(&db, Some(4));
        let fetch = Fetch {
            atom: 0,
            cols: &[0],
            source: FetchSource::Scan {
                table: db.table(RelId(0)),
                consts: vec![],
            },
        };
        assert!(matches!(fetch.run_columns(&mut ctx), Err(BudgetExhausted)));
        assert!(ctx.meter.work() > 4);
    }

    #[test]
    fn fetch_index_postings_charges_matches_only() {
        let (db, a) = fetch_db();
        let index = db
            .index_for(a.constraint(a.for_relation(RelId(0))[0]))
            .unwrap();
        let key_of = |v: i64| -> Option<RowBuf> {
            Some(std::iter::once(db.symbols().try_encode(&Value::int(v))?).collect())
        };
        // (key, rows fetched): a hit with a duplicate key value, a key no
        // row carries, and a key holding a never-interned constant.
        for (key, want) in [
            (key_of(1), rows(&[&[1, 10], &[1, 30]])),
            (key_of(7), Vec::new()),
            (None, Vec::new()),
        ] {
            let mut ctx = ExecContext::new(&db, None);
            let fetch = Fetch {
                atom: 0,
                cols: &[0, 1],
                source: FetchSource::IndexPostings {
                    index,
                    table: db.table(RelId(0)),
                    key,
                },
            };
            let fetched = fetch.run_columns(&mut ctx).unwrap();
            assert_eq!(fetched.to_rows(), want);
            let charged = Meter {
                tuples_fetched: want.len() as u64,
                index_probes: 1,
                ..Meter::new()
            };
            assert_eq!(ctx.meter, charged, "one probe, postings only");
        }
    }
}
