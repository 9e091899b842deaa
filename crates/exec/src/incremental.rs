//! Incremental bounded maintenance — the paper's conclusion item (3a):
//! *"when a query is not effectively bounded, it may be effectively bounded
//! incrementally"* — and, for queries that already are, keeping `Q(D)` up
//! to date under insertions **and deletions** with work proportional to the
//! delta.
//!
//! ## Insertions
//!
//! The construction rides on the planner: when a tuple `t` lands in the
//! relation of atom `S_i`, every *new* answer uses `t` at `S_i`, so the
//! delta is the original query with `S_i`'s parameter columns pinned to
//! `t`'s values — a query with strictly more constants, hence effectively
//! bounded whenever `Q` is (and often with a far smaller `Σ M_i`). The new
//! answer is `Q(D+t) = Q(D) ∪ Δ` under set semantics.
//!
//! ## Deletions: support counting
//!
//! CQs are monotone, so a deletion can only *retract* answers — the
//! question is which. Each maintained answer carries its **support**: the
//! number of stored *derivations*, where a derivation is one surviving
//! `Σ_Q` class assignment of the bounded evaluation stopped before
//! projection ([`crate::eval_dq::eval_dq_partials`]), canonicalized to the
//! cells it pins at each atom's columns (`None` marks a column no fetched
//! batch constrained — a wildcard, distinct from a column bound to a
//! stored `Value::Null`). Inserts add support (the delta plans above, collected
//! pre-projection); deleting the **last copy** of a row value subtracts
//! the support of every derivation consistent with it, and an answer whose
//! support reaches zero is retracted. Insertion work is bounded like the
//! delta plans themselves; a deletion probes the derivation store through
//! its **inverted index** — per pattern position, bound cells and
//! wildcards map to derivation ids, and the probe walks the smallest
//! posting union among the deleted atom's columns — so retraction touches
//! O(consistent candidates), not O(|store|) (the pre-index full scan
//! survives as [`IncrementalAnswer::on_delete_by_scan`] for the ablation
//! bench and differential tests), plus one bounded rederivation probe per
//! zeroed answer.
//!
//! Wildcard columns make the subtraction conservative (a derivation that
//! *might* rest on the deleted tuple is dropped), so retraction-at-zero is
//! confirmed by a **rederivation probe** — the query with its projection
//! pinned to the candidate answer, again strictly more constants than `Q`
//! and therefore bounded (the DRed refinement of counting-based IVM).
//! Deleting a duplicate copy is a no-op: bag storage, set answers (see
//! [`bcq_storage::Table`]).
//!
//! The caller mutates the [`Database`] first ([`Database::insert`] /
//! [`Database::delete`] keep every index fresh; after a bulk load, rebuild
//! them) and then notifies, since plans only read through indices.

use crate::eval_dq::eval_dq_partials;
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::ebcheck::xq_cols;
use bcq_core::error::{CoreError, Result};
use bcq_core::fx::{FxHashMap, FxHashSet};
use bcq_core::prelude::{Cell, OpProgram, QAttr, RelId, SpcQuery, Value};
use bcq_core::qplan::qplan;
use bcq_core::sigma::Sigma;
use bcq_storage::Database;
use std::sync::Arc;

/// A canonical derivation pattern, shared (`Arc`) between the id map and
/// the slab so each pattern is stored once.
type Pattern = Arc<[Option<Cell>]>;

/// Work done by one delta application.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaStats {
    /// Tuples fetched across the delta / rederivation plans.
    pub tuples_fetched: u64,
    /// Answers added to the maintained result.
    pub added_rows: usize,
    /// Answers retracted from the maintained result.
    pub removed_rows: usize,
    /// Bounded plans executed (per-atom delta plans on insert,
    /// rederivation probes on delete).
    pub plans_run: usize,
    /// Derivations added to the support store.
    pub derivations_added: usize,
    /// Derivations retracted from the support store.
    pub derivations_removed: usize,
    /// Retraction candidates examined while matching the deleted tuple
    /// against the derivation store (posting-union size for the indexed
    /// probe, |store| × atoms for the full scan) — the ablation axis of
    /// the derivation index.
    pub derivations_probed: usize,
}

/// The derivation store: canonical patterns (`None` is the
/// unconstrained-column wildcard — distinct from `Some(Cell::NULL)`, a
/// column bound to a stored `Value::Null`), inverted-indexed by
/// `(position, cell)` so retraction probes only the derivations a deleted
/// tuple can actually be consistent with.
#[derive(Debug, Clone)]
struct DerivationStore {
    /// Pattern → derivation id (set semantics: one id per pattern).
    ids: FxHashMap<Pattern, u32>,
    /// id → pattern (slab; freed slots are `None` and recycled). The
    /// `Arc` is shared with the `ids` key — one allocation per pattern.
    patterns: Vec<Option<Pattern>>,
    free: Vec<u32>,
    /// Per pattern position: bound cell → ids of derivations pinning it.
    bound: Vec<FxHashMap<Cell, FxHashSet<u32>>>,
    /// Per pattern position: ids of derivations with a wildcard there.
    wild: Vec<FxHashSet<u32>>,
}

impl DerivationStore {
    fn new(width: usize) -> Self {
        DerivationStore {
            ids: FxHashMap::default(),
            patterns: Vec::new(),
            free: Vec::new(),
            bound: (0..width).map(|_| FxHashMap::default()).collect(),
            wild: (0..width).map(|_| FxHashSet::default()).collect(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Stores `pattern` if new; `false` if it was already present.
    fn insert(&mut self, pattern: Box<[Option<Cell>]>) -> bool {
        use std::collections::hash_map::Entry;
        let pattern: Pattern = Arc::from(pattern);
        let entry = match self.ids.entry(pattern) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(e) => e,
        };
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.patterns.push(None);
                (self.patterns.len() - 1) as u32
            }
        };
        let pattern = entry.key().clone();
        entry.insert(id);
        for (pos, slot) in pattern.iter().enumerate() {
            match slot {
                Some(c) => {
                    self.bound[pos].entry(*c).or_default().insert(id);
                }
                None => {
                    self.wild[pos].insert(id);
                }
            }
        }
        self.patterns[id as usize] = Some(pattern);
        true
    }

    /// Removes derivation `id`, unindexing it, and returns its pattern.
    fn remove(&mut self, id: u32) -> Pattern {
        let pattern = self.patterns[id as usize]
            .take()
            .expect("live derivation id");
        self.ids.remove(&pattern);
        self.free.push(id);
        for (pos, slot) in pattern.iter().enumerate() {
            match slot {
                Some(c) => {
                    if let Some(set) = self.bound[pos].get_mut(c) {
                        set.remove(&id);
                        if set.is_empty() {
                            self.bound[pos].remove(c);
                        }
                    }
                }
                None => {
                    self.wild[pos].remove(&id);
                }
            }
        }
        pattern
    }

    /// Collects into `out` the ids of derivations consistent with tuple
    /// `cells` at the atom whose columns occupy `off..off + cells.len()`:
    /// picks the probe column with the smallest posting union (bound cell
    /// postings + wildcards), then verifies candidates against every
    /// column. `probed` counts candidates examined.
    fn consistent_at(
        &self,
        off: usize,
        cells: &[Cell],
        out: &mut FxHashSet<u32>,
        probed: &mut usize,
    ) {
        let best = (0..cells.len()).min_by_key(|&c| {
            self.bound[off + c].get(&cells[c]).map_or(0, |s| s.len()) + self.wild[off + c].len()
        });
        let Some(best) = best else {
            return; // zero-arity atoms cannot occur (tables reject them)
        };
        let consistent = |&id: &u32| {
            let p = self.patterns[id as usize].as_deref().expect("indexed id");
            cells
                .iter()
                .enumerate()
                .all(|(c, &t)| p[off + c].is_none_or(|pc| pc == t))
        };
        let exact = self.bound[off + best].get(&cells[best]);
        let candidates = exact
            .into_iter()
            .flatten()
            .chain(self.wild[off + best].iter());
        for id in candidates {
            *probed += 1;
            if consistent(id) {
                out.insert(*id);
            }
        }
    }

    /// The full-scan equivalent of [`Self::consistent_at`] — the pre-index
    /// O(|store|) candidate generation, kept as the ablation baseline.
    fn consistent_at_by_scan(
        &self,
        off: usize,
        cells: &[Cell],
        out: &mut FxHashSet<u32>,
        probed: &mut usize,
    ) {
        for (pattern, &id) in self.ids.iter() {
            *probed += 1;
            let ok = cells
                .iter()
                .enumerate()
                .all(|(c, &t)| pattern[off + c].is_none_or(|pc| pc == t));
            if ok {
                out.insert(id);
            }
        }
    }
}

/// A continuously maintained bounded query answer with per-answer support
/// counts (see the module docs for the maintenance algebra).
#[derive(Debug, Clone)]
pub struct IncrementalAnswer {
    query: SpcQuery,
    access: AccessSchema,
    /// Relations the query's atoms read, sorted and deduplicated — the
    /// slice of the storage vector clock this answer's staleness keys on.
    read_rels: Vec<RelId>,
    /// Column offset of each atom inside a derivation pattern.
    offsets: Vec<usize>,
    /// Derivation pattern width: `Σ` atom arities.
    width: usize,
    /// Pattern positions of the projection attributes.
    proj_pos: Vec<usize>,
    /// The stored derivations, inverted-indexed for retraction.
    derivations: DerivationStore,
    /// Projected answer (cells) → support: how many stored derivations
    /// produce it.
    support: FxHashMap<Box<[Cell]>, u64>,
    /// Materialized answer, patched in place (O(changed answers) per
    /// delta, not a full rebuild).
    result: ResultSet,
}

/// What [`IncrementalAnswer::add_derivation`] did.
struct AddOutcome {
    /// The pattern was not stored before.
    new_derivation: bool,
    /// Storing it created the answer's first support entry — the
    /// projection key the materialized result must gain.
    new_answer: Option<Box<[Cell]>>,
}

impl IncrementalAnswer {
    /// Evaluates `q` once (boundedly) and starts maintaining it.
    /// Fails if `q` is not effectively bounded under `a`.
    pub fn initialize(db: &Database, q: &SpcQuery, a: &AccessSchema) -> Result<Self> {
        let mut offsets = Vec::with_capacity(q.num_atoms());
        let mut width = 0usize;
        for atom in 0..q.num_atoms() {
            offsets.push(width);
            width += q.arity_of(atom);
        }
        let proj_pos = q
            .projection()
            .iter()
            .map(|z| offsets[z.atom] + z.col)
            .collect();
        let mut this = IncrementalAnswer {
            query: q.clone(),
            access: a.clone(),
            read_rels: q.read_rels(),
            offsets,
            width,
            proj_pos,
            derivations: DerivationStore::new(width),
            support: FxHashMap::default(),
            result: ResultSet::empty(),
        };
        let plan = qplan(q, a)?;
        let out = eval_dq_partials(db, &plan, a)?;
        for pattern in this.patterns_of(q, plan.program(), &out.partials) {
            this.add_derivation(pattern);
        }
        // One-time materialization; deltas patch it in place afterwards.
        this.result = ResultSet::from_rows(
            this.support
                .keys()
                .map(|cells| cells.iter().map(|&c| db.symbols().decode(c)).collect())
                .collect(),
        );
        Ok(this)
    }

    /// The maintained answer.
    pub fn result(&self) -> &ResultSet {
        &self.result
    }

    /// The maintained query.
    pub fn query(&self) -> &SpcQuery {
        &self.query
    }

    /// The relations the query's atoms read (sorted, deduplicated) — the
    /// slice of the storage vector clock whose advancement can make this
    /// answer stale. Writes to any other relation cannot change it.
    pub fn read_rels(&self) -> &[RelId] {
        &self.read_rels
    }

    /// `true` if some atom of the maintained query reads `rel` — callers
    /// can skip delta application entirely for writes elsewhere.
    pub fn reads(&self, rel: RelId) -> bool {
        self.read_rels.binary_search(&rel).is_ok()
    }

    /// The support (derivation count) of one answer row; `0` if `row` is
    /// not an answer.
    pub fn support_of(&self, db: &Database, row: &[Value]) -> u64 {
        db.symbols()
            .try_encode_row(row)
            .and_then(|cells| self.support.get(cells.as_slice()).copied())
            .unwrap_or(0)
    }

    /// Number of stored derivations (diagnostics: `Σ` of all supports).
    pub fn num_derivations(&self) -> usize {
        self.derivations.len()
    }

    /// Inserts `row` into `db` ([`Database::insert`] maintains its indices
    /// in place) and applies the bounded delta — the one-call live-update
    /// path.
    pub fn insert_and_apply(
        &mut self,
        db: &mut Database,
        rel_name: &str,
        row: &[Value],
    ) -> Result<DeltaStats> {
        let rel = self.query.catalog().require_rel(rel_name)?;
        db.insert(rel_name, row)?;
        self.on_insert(db, rel, row)
    }

    /// Deletes one copy of `row` from `db` ([`Database::delete`], indices
    /// maintained) and applies the retraction delta.
    /// A row that was never stored is a no-op.
    pub fn delete_and_apply(
        &mut self,
        db: &mut Database,
        rel_name: &str,
        row: &[Value],
    ) -> Result<DeltaStats> {
        let rel = self.query.catalog().require_rel(rel_name)?;
        if db.delete(rel_name, row)?.is_none() {
            return Ok(DeltaStats::default());
        }
        self.on_delete(db, rel, row)
    }

    /// Applies an insertion: `row` was added to relation `rel` of `db`
    /// (indices already up to date — [`Database::insert`] keeps them so).
    /// Updates the answer with bounded work.
    pub fn on_insert(&mut self, db: &Database, rel: RelId, row: &[Value]) -> Result<DeltaStats> {
        if row.len() != self.query.catalog().relation(rel).arity() {
            return Err(CoreError::Invalid("arity mismatch in on_insert".into()));
        }
        let sigma = Sigma::build(&self.query);
        let mut stats = DeltaStats::default();
        for atom in 0..self.query.num_atoms() {
            if self.query.relation_of(atom) != rel {
                continue;
            }
            // Pin the atom's parameter columns to the inserted tuple.
            let consts: Vec<(QAttr, Value)> = xq_cols(&self.query, &sigma, atom)
                .into_iter()
                .map(|col| (QAttr::new(atom, col), row[col].clone()))
                .collect();
            let delta_q = self.query.with_constants(&consts);
            // More constants than Q ⇒ still effectively bounded; the plan
            // is typically much cheaper than Q's. Self-joins rediscover the
            // same derivations through several atoms — the store is a set,
            // so support is not double-counted.
            let plan = qplan(&delta_q, &self.access)?;
            let out = eval_dq_partials(db, &plan, &self.access)?;
            stats.tuples_fetched += out.meter.tuples_fetched;
            stats.plans_run += 1;
            for pattern in self.patterns_of(&delta_q, plan.program(), &out.partials) {
                let added = self.add_derivation(pattern);
                stats.derivations_added += usize::from(added.new_derivation);
                if let Some(key) = added.new_answer {
                    let row = key.iter().map(|&c| db.symbols().decode(c)).collect();
                    stats.added_rows += usize::from(self.result.insert_sorted(row));
                }
            }
        }
        Ok(stats)
    }

    /// Applies a deletion: one copy of `row` was removed from relation
    /// `rel` of `db` (indices already maintained, as [`Database::delete`]
    /// leaves them). Subtracts support from every
    /// derivation consistent with the deleted tuple — found through the
    /// store's inverted index, O(consistent candidates) — and retracts
    /// answers whose support reaches zero, confirming each retraction with
    /// a bounded rederivation probe.
    pub fn on_delete(&mut self, db: &Database, rel: RelId, row: &[Value]) -> Result<DeltaStats> {
        self.retract(db, rel, row, true)
    }

    /// [`Self::on_delete`] with the pre-index **full scan** of the
    /// derivation store (O(|store|) per delete) as candidate generation.
    /// Semantically identical; kept as the ablation baseline quantifying
    /// the inverted index and as a differential-testing oracle.
    pub fn on_delete_by_scan(
        &mut self,
        db: &Database,
        rel: RelId,
        row: &[Value],
    ) -> Result<DeltaStats> {
        self.retract(db, rel, row, false)
    }

    fn retract(
        &mut self,
        db: &Database,
        rel: RelId,
        row: &[Value],
        use_index: bool,
    ) -> Result<DeltaStats> {
        if row.len() != self.query.catalog().relation(rel).arity() {
            return Err(CoreError::Invalid("arity mismatch in on_delete".into()));
        }
        let mut stats = DeltaStats::default();
        // A never-interned value was never stored: nothing to retract.
        let Some(cells) = db.symbols().try_encode_row(row) else {
            return Ok(stats);
        };
        // Bag storage, set answers: while a duplicate copy of the same
        // value-row survives, every derivation is still supported.
        if db.contains_row(rel, row)? {
            return Ok(stats);
        }
        let atom_offsets: Vec<usize> = (0..self.query.num_atoms())
            .filter(|&atom| self.query.relation_of(atom) == rel)
            .map(|atom| self.offsets[atom])
            .collect();
        if atom_offsets.is_empty() {
            return Ok(stats);
        }

        // Phase 1 — subtract support: drop every derivation consistent
        // with the deleted tuple at some atom over `rel`. Wildcard columns
        // over-approximate — a dropped derivation may still hold through
        // another row — which phase 2 repairs.
        let mut hit: FxHashSet<u32> = FxHashSet::default();
        for &off in &atom_offsets {
            if use_index {
                self.derivations.consistent_at(
                    off,
                    &cells,
                    &mut hit,
                    &mut stats.derivations_probed,
                );
            } else {
                self.derivations.consistent_at_by_scan(
                    off,
                    &cells,
                    &mut hit,
                    &mut stats.derivations_probed,
                );
            }
        }
        let mut zeroed: Vec<Box<[Cell]>> = Vec::new();
        for id in hit {
            let pattern = self.derivations.remove(id);
            stats.derivations_removed += 1;
            let proj = self.project(&pattern);
            if let Some(s) = self.support.get_mut(&proj) {
                *s -= 1;
                if *s == 0 {
                    zeroed.push(proj);
                }
            }
        }

        // Phase 2 — rederive at zero: an answer that lost all support is
        // retracted unless the query with its projection pinned to the
        // answer (strictly more constants ⇒ still bounded) rederives it.
        for proj in zeroed {
            let consts: Vec<(QAttr, Value)> = self
                .query
                .projection()
                .iter()
                .zip(proj.iter())
                .map(|(z, &c)| (*z, db.symbols().decode(c)))
                .collect();
            let probe_q = self.query.with_constants(&consts);
            let plan = qplan(&probe_q, &self.access)?;
            let out = eval_dq_partials(db, &plan, &self.access)?;
            stats.tuples_fetched += out.meter.tuples_fetched;
            stats.plans_run += 1;
            for pattern in self.patterns_of(&probe_q, plan.program(), &out.partials) {
                // The zeroed entry still exists (at 0), so rederived
                // support lands on it — never a "new" answer.
                stats.derivations_added += usize::from(self.add_derivation(pattern).new_derivation);
            }
            if self.support.get(&proj).copied().unwrap_or(0) == 0 {
                // Retracted for real.
                self.support.remove(&proj);
                let row: Box<[Value]> = proj.iter().map(|&c| db.symbols().decode(c)).collect();
                stats.removed_rows += usize::from(self.result.remove_sorted(&row));
            }
        }
        Ok(stats)
    }

    /// Canonicalizes the class assignments of an evaluation of `q_like`
    /// (the query itself, a per-atom delta, or a rederivation probe — all
    /// share the original's atom layout, differing only in extra constant
    /// predicates) into derivation patterns: one cell per atom column,
    /// `None` where the class was not bound (distinct from a column bound
    /// to a stored `Value::Null`, which is `Some(Cell::NULL)`). The
    /// attribute→class map comes precompiled from the delta plan's
    /// [`OpProgram`] — the same program the partials were produced through.
    fn patterns_of(
        &self,
        q_like: &SpcQuery,
        prog: &OpProgram,
        partials: &[Box<[Option<Cell>]>],
    ) -> Vec<Box<[Option<Cell>]>> {
        debug_assert_eq!(q_like.num_atoms(), self.query.num_atoms());
        let mut out = Vec::with_capacity(partials.len());
        for partial in partials {
            let mut pattern = vec![None; self.width];
            for atom in 0..q_like.num_atoms() {
                for col in 0..q_like.arity_of(atom) {
                    let class = prog.class_of_flat(q_like.flat_id(QAttr::new(atom, col)));
                    pattern[self.offsets[atom] + col] = partial[class];
                }
            }
            out.push(pattern.into_boxed_slice());
        }
        out
    }

    /// The projected answer cells of a derivation pattern.
    fn project(&self, pattern: &[Option<Cell>]) -> Box<[Cell]> {
        self.proj_pos
            .iter()
            .map(|&p| pattern[p].expect("projection classes are always bound"))
            .collect()
    }

    /// Stores a derivation, bumping its answer's support if it was new.
    fn add_derivation(&mut self, pattern: Box<[Option<Cell>]>) -> AddOutcome {
        use std::collections::hash_map::Entry;
        let proj = self.project(&pattern);
        if !self.derivations.insert(pattern) {
            return AddOutcome {
                new_derivation: false,
                new_answer: None,
            };
        }
        match self.support.entry(proj) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += 1;
                AddOutcome {
                    new_derivation: true,
                    new_answer: None,
                }
            }
            Entry::Vacant(e) => {
                let key = e.key().clone();
                e.insert(1);
                AddOutcome {
                    new_derivation: true,
                    new_answer: Some(key),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_dq::eval_dq;
    use bcq_core::prelude::*;
    use std::sync::Arc;

    fn setup() -> (Database, AccessSchema, SpcQuery) {
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
        for (p, al) in [("p1", "a0"), ("p2", "a0")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        db.insert(
            "tagging",
            &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
        )
        .unwrap();
        db.build_indexes(&a);
        let q = SpcQuery::builder(catalog, "Q0")
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
        (db, a, q)
    }

    fn full_reference(db: &Database, q: &SpcQuery, a: &AccessSchema) -> ResultSet {
        let plan = qplan(q, a).unwrap();
        eval_dq(db, &plan, a).unwrap().result
    }

    #[test]
    fn insertions_are_reflected_incrementally() {
        let (mut db, a, q) = setup();
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 1); // p1

        // A new tagging row makes p2 an answer — one call, indices
        // maintained in place (no rebuild).
        let row = [Value::str("p2"), Value::str("u1"), Value::str("u0")];
        let indexes_before = db.num_indexes();
        let stats = inc.insert_and_apply(&mut db, "tagging", &row).unwrap();
        assert_eq!(db.num_indexes(), indexes_before, "no index invalidation");
        assert_eq!(stats.plans_run, 1);
        assert_eq!(stats.added_rows, 1);
        assert!(inc.result().contains(&[Value::str("p2")]));
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }

    #[test]
    fn irrelevant_insertions_add_nothing() {
        let (mut db, a, q) = setup();
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        // A friendship of another user cannot create answers.
        let row = [Value::str("u9"), Value::str("u3")];
        db.insert("friends", &row).unwrap();
        db.build_indexes(&a);
        let stats = inc
            .on_insert(&db, db.catalog().rel_id("friends").unwrap(), &row)
            .unwrap();
        assert_eq!(stats.added_rows, 0);
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
        // The delta work is tiny: keyed on the new tuple's values.
        assert!(stats.tuples_fetched <= 8, "{stats:?}");
    }

    #[test]
    fn friend_insertion_activates_existing_tag() {
        let (mut db, a, q) = setup();
        // Tag by u2 exists but u2 is not yet a friend.
        let tag = [Value::str("p2"), Value::str("u2"), Value::str("u0")];
        db.insert("tagging", &tag).unwrap();
        db.build_indexes(&a);
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 1);

        // u2 becomes a friend of u0: p2 should appear.
        let row = [Value::str("u0"), Value::str("u2")];
        db.insert("friends", &row).unwrap();
        db.build_indexes(&a);
        inc.on_insert(&db, db.catalog().rel_id("friends").unwrap(), &row)
            .unwrap();
        assert!(inc.result().contains(&[Value::str("p2")]));
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }

    #[test]
    fn self_join_queries_apply_deltas_per_atom() {
        let cat = Catalog::from_names(&[("e", &["src", "dst"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("e", &["src"], &["dst"], 16).unwrap();
        a.add("e", &["dst"], &["src"], 16).unwrap();
        // Two-hop neighbours of node 1.
        let q = SpcQuery::builder(cat.clone(), "two_hop")
            .atom("e", "e1")
            .atom("e", "e2")
            .eq_const(("e1", "src"), 1)
            .eq(("e2", "src"), ("e1", "dst"))
            .project(("e2", "dst"))
            .build()
            .unwrap();
        let mut db = Database::new(cat.clone());
        db.insert("e", &[Value::int(1), Value::int(2)]).unwrap();
        db.build_indexes(&a);
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 0);

        // (2, 3) completes a path through atom e2 — and as atom e1 it is
        // irrelevant. Both delta plans run.
        let row = [Value::int(2), Value::int(3)];
        db.insert("e", &row).unwrap();
        db.build_indexes(&a);
        let stats = inc.on_insert(&db, RelId(0), &row).unwrap();
        assert_eq!(stats.plans_run, 2);
        assert!(inc.result().contains(&[Value::int(3)]));
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));

        // Deleting the edge that formed the path retracts the answer;
        // deleting it again changes nothing.
        let stats = inc.delete_and_apply(&mut db, "e", &row).unwrap();
        assert_eq!(stats.removed_rows, 1);
        assert!(inc.result().is_empty());
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
        let stats = inc.delete_and_apply(&mut db, "e", &row).unwrap();
        assert_eq!(stats.removed_rows, 0);
        assert_eq!(stats.plans_run, 0);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (db, a, q) = setup();
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert!(inc
            .on_insert(&db, RelId(0), &[Value::str("only-one")])
            .is_err());
        assert!(inc
            .on_delete(&db, RelId(0), &[Value::str("only-one")])
            .is_err());
    }

    #[test]
    fn deletion_retracts_answers_and_matches_reference() {
        let (mut db, a, q) = setup();
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 1);

        let tag = [Value::str("p1"), Value::str("u1"), Value::str("u0")];
        let stats = inc.delete_and_apply(&mut db, "tagging", &tag).unwrap();
        assert_eq!(stats.removed_rows, 1);
        assert!(stats.derivations_removed >= 1);
        assert!(inc.result().is_empty());
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }

    #[test]
    fn support_survives_alternative_derivations() {
        // p1 is tagged by *two* friends of u0: deleting one tagging keeps
        // the answer (support drops but stays positive, or the rederivation
        // probe confirms it); deleting both retracts it.
        let (mut db, a, q) = setup();
        db.insert("friends", &[Value::str("u0"), Value::str("u2")])
            .unwrap();
        db.insert(
            "tagging",
            &[Value::str("p1"), Value::str("u2"), Value::str("u0")],
        )
        .unwrap();
        db.build_indexes(&a);
        // The access schema declares tagging: (photo, taggee) -> (tagger, 1)
        // but p1+u0 now has two taggers; the data violates the bound but
        // answers stay exact (witnesses are never truncated).
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 1);
        assert!(inc.support_of(&db, &[Value::str("p1")]) >= 2, "two taggers");

        let t1 = [Value::str("p1"), Value::str("u1"), Value::str("u0")];
        inc.delete_and_apply(&mut db, "tagging", &t1).unwrap();
        assert!(inc.result().contains(&[Value::str("p1")]), "u2 still tags");
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));

        let t2 = [Value::str("p1"), Value::str("u2"), Value::str("u0")];
        inc.delete_and_apply(&mut db, "tagging", &t2).unwrap();
        assert!(inc.result().is_empty());
        assert_eq!(inc.support_of(&db, &[Value::str("p1")]), 0);
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }

    #[test]
    fn duplicate_copies_follow_bag_semantics() {
        // Two copies of the same tagging row: deleting one keeps the
        // answer (set semantics over bag storage), deleting the last copy
        // retracts it.
        let (mut db, a, q) = setup();
        let tag = [Value::str("p1"), Value::str("u1"), Value::str("u0")];
        db.insert("tagging", &tag).unwrap();
        db.build_indexes(&a);
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 1);
        let support = inc.support_of(&db, &[Value::str("p1")]);

        let stats = inc.delete_and_apply(&mut db, "tagging", &tag).unwrap();
        assert_eq!(stats.removed_rows, 0, "a duplicate copy survives");
        assert_eq!(stats.derivations_removed, 0, "support untouched");
        assert_eq!(inc.support_of(&db, &[Value::str("p1")]), support);
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));

        let stats = inc.delete_and_apply(&mut db, "tagging", &tag).unwrap();
        assert_eq!(stats.removed_rows, 1, "last copy retracts");
        assert!(inc.result().is_empty());
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }

    #[test]
    fn stored_nulls_are_not_wildcards() {
        // Value::Null is a first-class storable value; a derivation column
        // *bound* to Null must not behave like the unconstrained-column
        // wildcard during retraction matching (and must project cleanly).
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 16).unwrap();
        let q = SpcQuery::builder(cat.clone(), "b_of_1")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "b"))
            .build()
            .unwrap();
        let mut db = Database::new(cat);
        db.insert("r", &[Value::int(1), Value::Null]).unwrap();
        db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
        db.build_indexes(&a);
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.result().len(), 2);
        assert!(inc.result().contains(&[Value::Null]));
        assert_eq!(inc.support_of(&db, &[Value::Null]), 1);

        // Deleting the non-null row must leave the Null answer standing…
        inc.delete_and_apply(&mut db, "r", &[Value::int(1), Value::int(2)])
            .unwrap();
        assert!(inc.result().contains(&[Value::Null]));
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));

        // …and deleting the Null row retracts exactly it.
        inc.delete_and_apply(&mut db, "r", &[Value::int(1), Value::Null])
            .unwrap();
        assert!(inc.result().is_empty());
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }

    #[test]
    fn read_rels_are_sorted_and_deduplicated() {
        let (db, a, q) = setup();
        let inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.read_rels(), &[RelId(0), RelId(1), RelId(2)]);
        for rel in [RelId(0), RelId(1), RelId(2)] {
            assert!(inc.reads(rel));
        }

        // A self-join dedups to one relation.
        let cat = Catalog::from_names(&[("e", &["src", "dst"]), ("x", &["a"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("e", &["src"], &["dst"], 16).unwrap();
        let q = SpcQuery::builder(cat.clone(), "two_hop")
            .atom("e", "e1")
            .atom("e", "e2")
            .eq_const(("e1", "src"), 1)
            .eq(("e2", "src"), ("e1", "dst"))
            .project(("e2", "dst"))
            .build()
            .unwrap();
        let mut db = Database::new(cat);
        db.build_indexes(&a);
        let inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(inc.read_rels(), &[RelId(0)]);
        assert!(!inc.reads(RelId(1)), "x is never read");
    }

    #[test]
    fn indexed_retraction_agrees_with_full_scan_and_probes_less() {
        // Build a store with many derivations (one per friend pair), then
        // delete rows through both candidate-generation paths: identical
        // retraction, far fewer candidates probed by the index.
        let cat = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 64).unwrap();
        let q = SpcQuery::builder(cat.clone(), "friends_of_0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), 0)
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let mut db = Database::new(cat);
        for u in 0..8i64 {
            for f in 0..8i64 {
                db.insert("friends", &[Value::int(u), Value::int(u * 8 + f)])
                    .unwrap();
            }
        }
        db.build_indexes(&a);
        let base = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        assert_eq!(base.result().len(), 8);
        let store_size = base.num_derivations();

        let victim = [Value::int(0), Value::int(3)];
        let mut deleted = db.clone();
        assert!(deleted.delete("friends", &victim).unwrap().is_some());

        let mut by_index = base.clone();
        let s1 = by_index.on_delete(&deleted, RelId(0), &victim).unwrap();
        let mut by_scan = base.clone();
        let s2 = by_scan
            .on_delete_by_scan(&deleted, RelId(0), &victim)
            .unwrap();

        assert_eq!(by_index.result(), by_scan.result(), "identical retraction");
        assert_eq!(s1.removed_rows, s2.removed_rows);
        assert_eq!(s1.derivations_removed, s2.derivations_removed);
        assert_eq!(s2.derivations_probed, store_size, "scan touches the store");
        assert!(
            s1.derivations_probed < store_size / 2,
            "index probed {} of {store_size}",
            s1.derivations_probed
        );
        assert_eq!(by_index.result(), &full_reference(&deleted, &q, &a));
    }

    #[test]
    fn interleaved_inserts_and_deletes_track_reference() {
        let (mut db, a, q) = setup();
        let mut inc = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
        let t = |p: &str, tagger: &str| [Value::str(p), Value::str(tagger), Value::str("u0")];
        let f = |u: &str, v: &str| [Value::str(u), Value::str(v)];

        inc.insert_and_apply(&mut db, "tagging", &t("p2", "u1"))
            .unwrap();
        inc.insert_and_apply(&mut db, "friends", &f("u0", "u2"))
            .unwrap();
        inc.delete_and_apply(&mut db, "tagging", &t("p1", "u1"))
            .unwrap();
        inc.insert_and_apply(&mut db, "tagging", &t("p1", "u2"))
            .unwrap();
        inc.delete_and_apply(&mut db, "friends", &f("u0", "u1"))
            .unwrap();
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
        // p2's only tagger u1 is no longer a friend; p1 is tagged by u2.
        assert!(inc.result().contains(&[Value::str("p1")]));
        assert!(!inc.result().contains(&[Value::str("p2")]));

        inc.delete_and_apply(&mut db, "in_album", &[Value::str("p1"), Value::str("a0")])
            .unwrap();
        assert!(inc.result().is_empty());
        assert_eq!(inc.result(), &full_reference(&db, &q, &a));
    }
}
