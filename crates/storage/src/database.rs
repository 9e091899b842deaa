//! Databases: a set of tables instantiating a catalog, plus the indices
//! declared by access schemas and the [`SymbolTable`] the tables' interned
//! cells are encoded against.
//!
//! The database is the **encode/decode boundary**: callers insert and read
//! [`Value`] rows; internally everything is fixed-width [`Cell`]s. Executors
//! encode query constants through [`Database::symbols`] (a read-only
//! `try_encode` — a constant whose string was never loaded simply matches
//! nothing) and decode only final answers.
//!
//! ## Sharding and the epoch vector clock
//!
//! Storage is sharded **by relation**: each relation's table, indices, and
//! epoch live in one [`RelationShard`] behind an `Arc`, and `Database`
//! itself is a cheap-to-clone vector of shard pointers plus a monotone
//! global **commit counter**. Mutations copy-on-write only the touched
//! shard ([`Arc::make_mut`]); untouched shards stay pointer-shared with
//! every clone and snapshot. Two staleness granularities fall out:
//!
//! * [`Database::epoch`] — the commit counter, advanced by every mutation:
//!   "did *anything* change?"
//! * [`Database::epoch_of`] — the vector clock, one component per relation,
//!   stamped with the commit number of the relation's last mutation: "did
//!   anything *this query reads* change?" — what the serving layer stamps
//!   a registered view's cached answer with. (Cached *plans* depend on no
//!   epoch: a plan is a function of the query and the access schema.)

use crate::bulk::{BulkLoader, IngestStats};
use crate::index::{build_many, host_workers, BuildJob, HashIndex};
use crate::shard::{RelationShard, RowOp};
use crate::table::Table;
use crate::wal::{check_logged_cells, check_stamp, refuse_logging, replay_intern, WalOp, WalSink};
use bcq_core::access::{AccessConstraint, AccessSchema};
use bcq_core::error::{CoreError, Result};
use bcq_core::prelude::{Catalog, Cell, RelId, RowBuf, SymbolTable, Value};
use bcq_core::symbols::Sym;
use std::sync::Arc;

/// An instance `D` of a relational schema, with registered indices, sharded
/// by relation (see the module docs for the copy-on-write contract).
///
/// Every mutation — row inserts, deletes, bulk loads, index builds —
/// advances the monotone global **commit counter** and stamps the touched
/// relation's shard with it, so `epoch()` answers "anything changed?" and
/// `epoch_of(rel)` answers "did `rel` change?" by comparing integers.
///
/// Aligned to a cache line: a server publishes its database behind an
/// `Arc` whose counts every reader's snapshot writes, and those must not
/// share a line with the fields every probe reads — which of them did
/// would otherwise depend on where the allocator put the instance.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct Database {
    catalog: Arc<Catalog>,
    symbols: Arc<SymbolTable>,
    shards: Vec<Arc<RelationShard>>,
    /// Global commit counter: max over the shard epochs, advanced first.
    commit: u64,
    /// Diagnostics: table cells copied by shard copy-on-write so far (index
    /// postings excluded). Carried along on clone; the write-amplification
    /// bench reads deltas of this.
    cow_cells: u64,
    /// Diagnostics: shard clones forced by outstanding references.
    cow_clones: u64,
    /// Diagnostics: what every bulk loader appended (see `ingest_stats`).
    ingest: IngestStats,
    /// Optional write-ahead-log sink: every effective mutation delivers a
    /// [`WalOp`] record here, 1:1 with commit bumps (see [`crate::wal`]).
    /// Shared (not cleared) by `Clone`, since snapshots are read-only.
    wal: Option<Arc<dyn WalSink>>,
}

impl Database {
    /// Creates an empty instance of `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let shards = catalog
            .relations()
            .iter()
            .enumerate()
            .map(|(i, r)| Arc::new(RelationShard::new(Table::new(RelId(i), r.arity()))))
            .collect();
        Database {
            catalog,
            symbols: Arc::new(SymbolTable::new()),
            shards,
            commit: 0,
            cow_cells: 0,
            cow_clones: 0,
            ingest: IngestStats::default(),
            wal: None,
        }
    }

    /// Attaches (or detaches) the write-ahead-log sink mutation records are
    /// delivered to. See [`crate::wal`] for the record contract.
    pub fn set_wal(&mut self, sink: Option<Arc<dyn WalSink>>) {
        self.wal = sink;
    }

    /// The attached WAL sink, if any.
    pub fn wal(&self) -> Option<&Arc<dyn WalSink>> {
        self.wal.as_ref()
    }

    /// Delivers one record to the attached sink, if any.
    #[inline]
    fn emit(&self, op: WalOp<'_>) {
        if let Some(sink) = &self.wal {
            sink.record(op);
        }
    }

    /// The current global epoch: the commit counter, advanced by every
    /// write and index (re)build anywhere in the database.
    pub fn epoch(&self) -> u64 {
        self.commit
    }

    /// The epoch of one relation — its component of the vector clock: the
    /// commit number of the last mutation that touched `rel` (0 if never
    /// written). Unchanged ⇒ nothing a reader of `rel` saw can have moved.
    pub fn epoch_of(&self, rel: RelId) -> u64 {
        self.shards[rel.0].epoch
    }

    /// The shard of `rel`. Untouched shards stay pointer-equal
    /// (`Arc::ptr_eq`) across writes to other relations — the invariant the
    /// snapshot layer's cheap-write guarantee rests on.
    pub fn shard(&self, rel: RelId) -> &Arc<RelationShard> {
        &self.shards[rel.0]
    }

    /// Number of relations (= shards).
    pub fn num_relations(&self) -> usize {
        self.shards.len()
    }

    /// The catalog this database instantiates.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The symbol table the stored cells are encoded against.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// A shared handle to the symbol table — the read-only view parallel
    /// ingest workers pre-encode chunks against (the table is append-only
    /// copy-on-write, so a handle stays a valid prefix of later states).
    pub fn shared_symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(&self.symbols)
    }

    /// The table for `rel`.
    pub fn table(&self, rel: RelId) -> &Table {
        &self.shards[rel.0].table
    }

    /// Table cells copied by shard copy-on-write over this instance's write
    /// history (diagnostics for the write-amplification bench; index
    /// postings are cloned too but not counted).
    pub fn cow_cells_cloned(&self) -> u64 {
        self.cow_cells
    }

    /// Number of shard clones forced by outstanding snapshots or database
    /// clones (diagnostics; in-place mutations don't count).
    pub fn cow_clones(&self) -> u64 {
        self.cow_clones
    }

    /// What every [`BulkLoader`] run on this instance's history appended,
    /// replayed brackets ([`Self::replay_bulk`]) included, so a recovered
    /// database counts the brackets of the log it replayed.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Bumps the commit counter and returns the touched shard for mutation,
    /// stamping its epoch — the single funnel every write path goes
    /// through. Clones the shard iff an outstanding clone/snapshot still
    /// references it (counted in the cow diagnostics).
    fn shard_mut(&mut self, rel: RelId) -> &mut RelationShard {
        self.commit += 1;
        cow_shard(
            &mut self.shards[rel.0],
            self.commit,
            &mut self.cow_cells,
            &mut self.cow_clones,
        )
    }

    /// Encodes a row for storage, interning unseen values. The symbol table
    /// is copy-on-write too: a row whose values are all already interned —
    /// the steady state of a serving workload — never clones it, even with
    /// snapshots outstanding (one `try_encode_row`, no records). Newly
    /// interned values are delivered to the WAL sink as intern records, in
    /// id order, before the op record that carries the encoded cells.
    fn encode_row_interning(&mut self, row: &[Value]) -> RowBuf {
        if let Some(cells) = self.symbols.try_encode_row(row) {
            return cells;
        }
        let (strings_before, wides_before) = (self.symbols.len(), self.symbols.num_wide_ints());
        let cells = Arc::make_mut(&mut self.symbols).encode_row(row);
        if let Some(sink) = self.wal.as_deref() {
            log_new_interns(&self.symbols, sink, strings_before, wides_before);
        }
        cells
    }

    /// The chunked bulk loader for `rel` — the only way to load more than
    /// one row per commit: one commit bump for the whole load, the
    /// relation's indices cleared, WAL bracket `BulkBegin … BulkEnd`. Rows
    /// arrive **chunk-at-a-time** (a single row is a one-row chunk): each
    /// chunk is symbol-encoded in batch passes, appended, and logged as one
    /// [`WalOp::BulkChunk`] record. Call [`Self::build_indexes`] when
    /// loading is done.
    pub fn bulk_loader(&mut self, rel: RelId) -> BulkLoader<'_> {
        // The loader also borrows the symbol table, so the funnel is the
        // free `cow_shard` over field-disjoint borrows.
        self.commit += 1;
        let commit = self.commit;
        let shard = cow_shard(
            &mut self.shards[rel.0],
            commit,
            &mut self.cow_cells,
            &mut self.cow_clones,
        );
        shard.indexes.clear();
        let wal = self.wal.as_deref();
        if let Some(sink) = wal {
            sink.record(WalOp::BulkBegin { commit, rel });
        }
        let totals = &mut self.ingest;
        BulkLoader::new(&mut shard.table, &mut self.symbols, totals, wal, rel)
    }

    /// Re-applies one logged intern, insert, delete or checkpoint — the
    /// inverse of its emission (see [`crate::wal`]'s replay contract): an
    /// intern must land on its logged id; an insert or delete applies the
    /// cells it logged, with no name lookup and no encode, held to its
    /// relation, width, cell ids and commit stamp, and a delete must find
    /// its row; a checkpoint sets the vector clock. Index records go to
    /// [`Self::replay_indexes`] and a bulk bracket to
    /// [`Self::replay_bulk`]; this refuses them. A refused op may have
    /// applied in part: discard the database.
    pub fn replay(&mut self, op: WalOp<'_>) -> Result<()> {
        refuse_logging(self.wal.is_some())?;
        let (row_op, commit, rel, cells) = match op {
            WalOp::InternStr { .. } | WalOp::InternWide { .. } => {
                return replay_intern(&mut self.symbols, op)
            }
            WalOp::Insert { commit, rel, cells } => (RowOp::Insert, commit, rel, cells),
            WalOp::Delete { commit, rel, cells } => (RowOp::Delete, commit, rel, cells),
            WalOp::Checkpoint { commit, epochs, .. } => return self.replay_clock(commit, epochs),
            _ => {
                return Err(CoreError::Invalid(format!(
                    "{op} is not an intern, insert, delete or checkpoint"
                )))
            }
        };
        let arity = self.logged_arity(rel)?;
        if cells.len() != arity {
            return Err(CoreError::Invalid(format!(
                "{} cells logged for a row of width {arity}",
                cells.len()
            )));
        }
        check_logged_cells(&self.symbols, cells)?;
        check_stamp(commit, self.commit + 1)?;
        let rid = self.shards[rel.0].slot_for(row_op, cells).ok_or_else(|| {
            CoreError::Invalid(format!(
                "logged delete from relation {} found no row",
                rel.0
            ))
        })?;
        self.shard_mut(rel).apply_row(row_op, rid, cells);
        Ok(())
    }

    /// Sets the vector clock a checkpoint record logged: the commit
    /// counter, which may not step back, and every relation's epoch, none
    /// beyond it.
    fn replay_clock(&mut self, commit: u64, epochs: &[u64]) -> Result<()> {
        let invalid = |msg: String| Err(CoreError::Invalid(format!("checkpoint: {msg}")));
        if epochs.len() != self.shards.len() {
            let n = self.shards.len();
            return invalid(format!("{} epochs for {n} relations", epochs.len()));
        }
        if commit < self.commit {
            return invalid(format!("commit {commit} behind replay at {}", self.commit));
        }
        if let Some(rel) = epochs.iter().position(|&epoch| epoch > commit) {
            let epoch = epochs[rel];
            return invalid(format!(
                "relation {rel} epoch {epoch} beyond commit {commit}"
            ));
        }
        for (shard, &epoch) in self.shards.iter_mut().zip(epochs) {
            if shard.epoch != epoch {
                Arc::make_mut(shard).epoch = epoch;
            }
        }
        self.commit = commit;
        Ok(())
    }

    /// Re-applies a run of logged index records, each `(commit stamp,
    /// spec)`, as one [`Self::ensure_indexes_cols`] batch whose builds
    /// share every core, holding each to its relation, columns and stamp.
    pub fn replay_indexes(&mut self, logged: &[(u64, IndexSpec<'_>)]) -> Result<()> {
        refuse_logging(self.wal.is_some())?;
        for &(_, (rel, x, y)) in logged {
            check_index_cols(x, y, self.logged_arity(rel)?)?;
        }
        let specs: Vec<IndexSpec<'_>> = logged.iter().map(|&(_, spec)| spec).collect();
        let arrived = self.ensure_indexes_cols(&specs);
        logged
            .iter()
            .zip(arrived)
            .try_for_each(|(&(commit, _), arrived)| check_stamp(commit, arrived))
    }

    /// Opens the replay of one complete logged bulk bracket — its
    /// `BulkBegin` stamped `commit` for `rel`, its chunks holding `cells`
    /// cells in all — as the loader a live load gets, with those cells'
    /// rows reserved up front (counting cells, not the rows the chunks
    /// claim, bounds the reservation by the log's bytes). Feed it the
    /// bracket's intern and chunk records in order ([`BulkLoader::replay`]).
    pub fn replay_bulk(&mut self, commit: u64, rel: RelId, cells: usize) -> Result<BulkLoader<'_>> {
        refuse_logging(self.wal.is_some())?;
        let arity = self.logged_arity(rel)?;
        check_stamp(commit, self.commit + 1)?;
        let mut loader = self.bulk_loader(rel);
        loader.reserve_rows(cells / arity);
        Ok(loader)
    }

    /// The width of a logged relation id, refusing one past the catalog.
    fn logged_arity(&self, rel: RelId) -> Result<usize> {
        let relations = self.catalog.relations();
        let r = relations.get(rel.0).ok_or_else(|| {
            CoreError::Invalid(format!(
                "relation {} logged, catalog has {}",
                rel.0,
                relations.len()
            ))
        })?;
        Ok(r.arity())
    }

    /// Decodes a row of cells from this database back to values.
    pub fn decode_row(&self, cells: &[Cell]) -> Vec<Value> {
        self.symbols.decode_row(cells)
    }

    /// Iterates over the rows of `rel`, decoded to values (convenience for
    /// tests and tooling; the hot paths stay on cells).
    pub fn value_rows(&self, rel: RelId) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.shards[rel.0]
            .table
            .rows()
            .map(|r| self.symbols.decode_row(r))
    }

    /// Inserts one row into the relation called `rel_name`, in place, and
    /// maintains every registered index of the relation (amortized
    /// O(columns) per index; with no index registered this is a plain
    /// append). Returns the new row's id. Other relations' shards —
    /// tables, indices, epochs — are untouched.
    pub fn insert(&mut self, rel_name: &str, row: &[Value]) -> Result<u32> {
        let rid = self.write_in_place(RowOp::Insert, rel_name, row)?;
        Ok(rid.expect("an insert always has a slot"))
    }

    /// Deletes **one copy** of `row` from the relation called `rel_name`,
    /// in place, maintaining every registered index (bag storage:
    /// duplicates are removed one at a time; see [`crate::table::Table`]
    /// for the semantics). Returns the removed copy's (pre-swap) row id,
    /// or `None` — leaving the database untouched, epochs included — if no
    /// copy is stored.
    pub fn delete(&mut self, rel_name: &str, row: &[Value]) -> Result<Option<u32>> {
        self.write_in_place(RowOp::Delete, rel_name, row)
    }

    /// The in-place body of [`Self::insert`] / [`Self::delete`]: the row id
    /// the op acted on, or `None` if it changed nothing (a delete that
    /// found no copy — a never-interned value cannot be stored either).
    fn write_in_place(&mut self, op: RowOp, rel_name: &str, row: &[Value]) -> Result<Option<u32>> {
        let rel = self.check_row(op, rel_name, row)?;
        let cells = match op {
            RowOp::Insert => self.encode_row_interning(row),
            RowOp::Delete => match self.symbols.try_encode_row(row) {
                Some(cells) => cells,
                None => return Ok(None),
            },
        };
        let Some(rid) = self.shards[rel.0].slot_for(op, &cells) else {
            return Ok(None);
        };
        self.shard_mut(rel).apply_row(op, rid, &cells);
        self.emit(op.wal_op(self.commit, rel, &cells));
        Ok(Some(rid))
    }

    /// Prepares a row write **off the commit lock**: all the expensive
    /// work — row encoding, the shard's copy-on-write clone, the table
    /// change and index maintenance — happens against `&self` (any
    /// snapshot of the relation's latest state), leaving only the
    /// pointer-swap [`Self::commit_prepared`] for the exclusive section.
    /// [`Prepare`] says what the caller does next.
    ///
    /// The caller must hold the relation's write latch from before calling
    /// this until after `commit_prepared`, so no other writer can move the
    /// shard's epoch — or, for [`Prepare::Absent`], its contents — in
    /// between (`commit_prepared` panics if one did).
    pub fn prepare(&self, op: RowOp, rel_name: &str, row: &[Value]) -> Result<Prepare> {
        let rel = self.check_row(op, rel_name, row)?;
        let Some(cells) = self.symbols.try_encode_row(row) else {
            return Ok(match op {
                RowOp::Insert => Prepare::NeedsIntern,
                RowOp::Delete => Prepare::Absent,
            });
        };
        let base = &self.shards[rel.0];
        let Some(rid) = base.slot_for(op, &cells) else {
            return Ok(Prepare::Absent);
        };
        let mut shard = (**base).clone();
        shard.apply_row(op, rid, &cells);
        Ok(Prepare::Ready(PreparedWrite {
            rel,
            base_epoch: base.epoch,
            shard,
            cloned_cells: base.clone_cells(),
            cells: cells.to_vec(),
            op,
            rid,
        }))
    }

    /// Installs a prepared write: the short exclusive **commit section** of
    /// the concurrent write protocol. Bumps the commit counter, stamps the
    /// prepared shard's epoch, swaps it in (one pointer store — untouched
    /// relations' shards stay `Arc::ptr_eq`), emits the WAL op, and returns
    /// the prepared row id. The clone the preparation paid is counted in
    /// the cow diagnostics, exactly as the in-place path counts clones
    /// forced by outstanding snapshots.
    ///
    /// Panics if the relation's epoch moved since preparation — that means
    /// two writers raced on one relation, i.e. the caller broke the
    /// per-relation latch contract.
    pub fn commit_prepared(&mut self, prepared: PreparedWrite) -> u32 {
        let PreparedWrite {
            rel,
            base_epoch,
            mut shard,
            cloned_cells,
            cells,
            op,
            rid,
        } = prepared;
        assert_eq!(
            self.shards[rel.0].epoch, base_epoch,
            "prepared write raced another writer on relation {}",
            rel.0
        );
        self.commit += 1;
        self.cow_cells += cloned_cells;
        self.cow_clones += 1;
        shard.epoch = self.commit;
        self.shards[rel.0] = Arc::new(shard);
        self.emit(op.wal_op(self.commit, rel, &cells));
        rid
    }

    /// `true` if at least one copy of `row` is stored in `rel` — the
    /// value-level presence test (after a delete: was that the *last*
    /// copy?). Served by a registered index when one exists, else a scan.
    pub fn contains_row(&self, rel: RelId, row: &[Value]) -> Result<bool> {
        if row.len() != self.catalog.relation(rel).arity() {
            return Err(CoreError::Invalid("arity mismatch in contains_row".into()));
        }
        let Some(cells) = self.symbols.try_encode_row(row) else {
            return Ok(false); // a never-interned value was never stored
        };
        Ok(self.shards[rel.0].find_copy(&cells).is_some())
    }

    /// Shared head of the row-write paths: resolves the relation and
    /// checks the arity.
    fn check_row(&self, op: RowOp, rel_name: &str, row: &[Value]) -> Result<RelId> {
        let rel = self.catalog.require_rel(rel_name)?;
        if row.len() != self.catalog.relation(rel).arity() {
            let doing = match op {
                RowOp::Insert => "inserting into",
                RowOp::Delete => "deleting from",
            };
            return Err(CoreError::Invalid(format!(
                "arity mismatch {doing} `{rel_name}`"
            )));
        }
        Ok(rel)
    }

    /// Total number of tuples across all tables — the paper's `|D|`.
    pub fn total_tuples(&self) -> usize {
        self.shards.iter().map(|s| s.table.len()).sum()
    }

    /// Builds every index declared by `a` (the paper's setup step: "for each
    /// X → (Y, N) extracted, we built an index").
    pub fn build_indexes(&mut self, a: &AccessSchema) {
        let specs: Vec<IndexSpec<'_>> = a
            .constraints()
            .iter()
            .map(|c| (c.relation(), c.x(), c.y()))
            .collect();
        self.ensure_indexes_cols(&specs);
    }

    /// Builds (or reuses) one index per spec: the index on key columns `x`
    /// exposing value columns `y` of relation `rel`. A one-element slice
    /// builds one index; log replay passes a run of [`WalOp::EnsureIndex`]
    /// records, and [`Self::build_indexes`] an access schema. The missing
    /// indices are built together on every core (`index::build_many`), then
    /// installed one by one in spec order, each with its own commit bump
    /// and `EnsureIndex` record, so epochs and log are those of the
    /// one-at-a-time loop. Returns the commit counter as it stood after
    /// each spec (unmoved by a spec already built or listed twice), for
    /// replay to hold against each record's stamp.
    pub fn ensure_indexes_cols(&mut self, specs: &[IndexSpec<'_>]) -> Vec<u64> {
        self.ensure_indexes_on(specs, host_workers())
    }

    /// [`Self::ensure_indexes_cols`] with the builder's worker count given,
    /// for tests that compare worker counts.
    pub(crate) fn ensure_indexes_on(
        &mut self,
        specs: &[IndexSpec<'_>],
        workers: usize,
    ) -> Vec<u64> {
        // Each missing index once, at its first mention.
        let missing: Vec<bool> = specs
            .iter()
            .enumerate()
            .map(|(i, &(rel, x, y))| {
                self.shards[rel.0].index(x, y).is_none() && !specs[..i].contains(&specs[i])
            })
            .collect();
        let jobs: Vec<BuildJob<'_>> = specs
            .iter()
            .zip(&missing)
            .filter(|(_, &missing)| missing)
            .map(|(&(rel, x, y), _)| (&self.shards[rel.0].table, x, y))
            .collect();
        let mut built = build_many(&jobs, workers).into_iter();
        specs
            .iter()
            .zip(missing)
            .map(|(&(rel, x, y), missing)| {
                if missing {
                    let idx = built.next().expect("one index per missing spec");
                    let shard = self.shard_mut(rel);
                    shard.indexes.push(idx);
                    let commit = self.commit;
                    self.emit(WalOp::EnsureIndex { commit, rel, x, y });
                }
                self.commit
            })
            .collect()
    }

    /// The index backing constraint `c`, if built.
    pub fn index_for(&self, c: &AccessConstraint) -> Option<&HashIndex> {
        self.shards[c.relation().0].index(c.x(), c.y())
    }

    /// Number of registered indices across all shards.
    pub fn num_indexes(&self) -> usize {
        self.shards.iter().map(|s| s.indexes.len()).sum()
    }

    /// Distinct keys and resident bytes ([`HashIndex::approx_bytes`]) summed
    /// over every registered index. O(indices).
    pub fn index_footprint(&self) -> (usize, usize) {
        self.shards
            .iter()
            .flat_map(|s| &s.indexes)
            .fold((0, 0), |(keys, bytes), idx| {
                (keys + idx.num_keys(), bytes + idx.approx_bytes())
            })
    }

    /// Resident bytes of every table's cell storage.
    pub fn table_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.table.approx_bytes()).sum()
    }
}

/// One index to ensure: the relation, key columns `x`, value columns `y`.
pub type IndexSpec<'a> = (RelId, &'a [usize], &'a [usize]);

/// What [`Database::prepare`] found.
#[derive(Debug)]
pub enum Prepare {
    /// The new shard is built; install it with
    /// [`Database::commit_prepared`].
    Ready(PreparedWrite),
    /// An insert whose row holds a value not interned yet: interning
    /// mutates the shared symbol table, so this (first-appearance) write
    /// must run in place under exclusion ([`Database::insert`]).
    NeedsIntern,
    /// A delete of a row with no stored copy: nothing to commit.
    Absent,
}

/// A single-row write prepared against a snapshot of one relation's latest
/// state, ready for its short exclusive commit; see [`Database::prepare`] /
/// [`Database::commit_prepared`].
#[derive(Debug)]
pub struct PreparedWrite {
    rel: RelId,
    /// Epoch of the shard the clone was taken from; `commit_prepared`
    /// checks it to catch latch-contract violations.
    base_epoch: u64,
    shard: RelationShard,
    cloned_cells: u64,
    cells: Vec<Cell>,
    op: RowOp,
    rid: u32,
}

/// The copy-on-write funnel shared by [`Database::shard_mut`] and
/// [`Database::bulk_loader`]: clones the shard iff something else still
/// references it (feeding the cow diagnostics the write-amplification
/// bench reads) and stamps it with the new commit number. A free function
/// over disjoint fields so the bulk loader can borrow the symbol table
/// alongside.
fn cow_shard<'a>(
    arc: &'a mut Arc<RelationShard>,
    commit: u64,
    cow_cells: &mut u64,
    cow_clones: &mut u64,
) -> &'a mut RelationShard {
    if Arc::strong_count(arc) > 1 {
        *cow_cells += arc.clone_cells();
        *cow_clones += 1;
    }
    let shard = Arc::make_mut(arc);
    shard.epoch = commit;
    shard
}

/// Emits intern records for every symbol added past the given watermarks,
/// in id order — shared by the per-row and bulk-chunk encode paths so the
/// "interns precede the op that references them" contract holds on both.
pub(crate) fn log_new_interns(
    symbols: &SymbolTable,
    sink: &dyn WalSink,
    strings_before: usize,
    wides_before: usize,
) {
    for id in strings_before..symbols.len() {
        sink.record(WalOp::InternStr {
            id: id as u32,
            text: symbols.resolve(Sym(id as u32)),
        });
    }
    for id in wides_before..symbols.num_wide_ints() {
        sink.record(WalOp::InternWide {
            id: id as u32,
            value: symbols.wide_ints()[id],
        });
    }
}

/// Refuses an index over a column past the relation's width `arity`.
fn check_index_cols(x: &[usize], y: &[usize], arity: usize) -> Result<()> {
    match x.iter().chain(y).find(|&&c| c >= arity) {
        Some(col) => Err(CoreError::Invalid(format!(
            "index on column {col} of a relation of width {arity}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photos() -> Arc<Catalog> {
        Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap()
    }

    #[test]
    fn epoch_advances_on_every_mutation() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        assert_eq!(db.epoch(), 0);

        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        let e1 = db.epoch();
        assert!(e1 > 0);

        db.build_indexes(&a);
        let e2 = db.epoch();
        assert!(e2 > e1, "index build advances the epoch");
        // Re-ensuring an existing index is a no-op: epoch stays put.
        db.build_indexes(&a);
        assert_eq!(db.epoch(), e2);

        db.insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        let e3 = db.epoch();
        assert!(e3 > e2);

        db.bulk_loader(RelId(1))
            .push_rows(&[Value::int(4), Value::int(5)]);
        assert!(db.epoch() > e3, "bulk load advances the epoch");
        // Reads never advance it.
        let frozen = db.epoch();
        let _ = db.total_tuples();
        let _ = db.value_rows(RelId(1)).count();
        assert_eq!(db.epoch(), frozen);
    }

    #[test]
    fn vector_clock_tracks_only_the_touched_relation() {
        let mut db = Database::new(photos());
        let (albums, friends) = (RelId(0), RelId(1));
        assert_eq!(db.epoch_of(albums), 0);
        assert_eq!(db.epoch_of(friends), 0);

        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        let ef = db.epoch_of(friends);
        assert_eq!(ef, db.epoch(), "shard stamped with the commit number");
        assert_eq!(db.epoch_of(albums), 0, "other shards untouched");

        db.insert("in_album", &[Value::int(7), Value::int(8)])
            .unwrap();
        assert_eq!(db.epoch_of(friends), ef, "friends' component frozen");
        assert_eq!(db.epoch_of(albums), db.epoch());
        assert!(db.epoch() > ef, "global epoch is the commit counter");
    }

    #[test]
    fn writes_leave_untouched_shards_pointer_equal() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.insert("in_album", &[Value::int(7), Value::int(8)])
            .unwrap();
        db.build_indexes(&a);

        // A clone plays the role of an outstanding snapshot.
        let snap = db.clone();
        assert_eq!(db.cow_clones(), 0, "no shard cloned yet");
        db.insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();

        let (albums, friends, tagging) = (RelId(0), RelId(1), RelId(2));
        assert!(
            Arc::ptr_eq(snap.shard(albums), db.shard(albums)),
            "untouched shard shared, not copied"
        );
        assert!(Arc::ptr_eq(snap.shard(tagging), db.shard(tagging)));
        assert!(
            !Arc::ptr_eq(snap.shard(friends), db.shard(friends)),
            "touched shard copied on write"
        );
        // The snapshot is frozen; the writer sees the new row.
        assert_eq!(snap.table(friends).len(), 1);
        assert_eq!(db.table(friends).len(), 2);
        // Exactly one shard clone, costing only the touched table's cells.
        assert_eq!(db.cow_clones(), 1);
        assert_eq!(db.cow_cells_cloned(), 2, "one 2-cell row before the write");

        // With the snapshot dropped, further writes mutate in place.
        drop(snap);
        let before = db.cow_clones();
        db.insert("friends", &[Value::int(2), Value::int(4)])
            .unwrap();
        assert_eq!(db.cow_clones(), before, "no reference, no copy");
    }

    /// Unwraps a [`Prepare::Ready`].
    fn ready(p: Prepare) -> PreparedWrite {
        match p {
            Prepare::Ready(w) => w,
            other => panic!("expected a prepared write, got {other:?}"),
        }
    }

    /// Everything a row write can change in one relation: table cells,
    /// epoch, and per index its max witness count plus every key's
    /// (sorted) posting and witness sets.
    type IndexImage = (usize, Vec<(Vec<Cell>, Vec<u32>, Vec<u32>)>);
    fn image(db: &Database, rel: RelId) -> (Vec<Cell>, u64, u64, Vec<IndexImage>) {
        let shard = db.shard(rel);
        let indexes = shard
            .index_specs()
            .map(|(x, y)| {
                let idx = shard.index(x, y).unwrap();
                let mut keys: Vec<_> = idx
                    .entries()
                    .map(|(k, p)| {
                        let (mut all, mut wit) = (p.all().to_vec(), p.witnesses().to_vec());
                        all.sort_unstable();
                        wit.sort_unstable();
                        (k.to_vec(), all, wit)
                    })
                    .collect();
                keys.sort();
                (idx.max_witnesses(), keys)
            })
            .collect();
        (
            shard.table().cells().to_vec(),
            shard.epoch(),
            db.epoch(),
            indexes,
        )
    }

    #[test]
    fn prepared_row_writes_match_in_place_row_writes() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        a.add("friends", &[], &["user_id"], 10).unwrap();
        let friends = RelId(1);
        let seed = [(1, 2), (1, 3), (2, 4), (1, 2)];

        for (op, row) in [
            (RowOp::Insert, [Value::int(1), Value::int(5)]),
            (RowOp::Insert, [Value::int(1), Value::int(3)]),
            (RowOp::Delete, [Value::int(1), Value::int(2)]),
            (RowOp::Delete, [Value::int(2), Value::int(4)]),
        ] {
            let build = || {
                let mut db = Database::new(cat.clone());
                db.build_indexes(&a);
                for (u, f) in seed {
                    db.insert("friends", &[Value::int(u), Value::int(f)])
                        .unwrap();
                }
                let rec = Arc::new(Recorder::default());
                db.set_wal(Some(rec.clone()));
                (db, rec)
            };

            let (mut in_place, rec_in_place) = build();
            let rid_in_place = in_place.write_in_place(op, "friends", &row).unwrap();

            let (mut prepared, rec_prepared) = build();
            let p = ready(prepared.prepare(op, "friends", &row).unwrap());
            let rid_prepared = prepared.commit_prepared(p);

            assert_eq!(Some(rid_prepared), rid_in_place, "{op:?} {row:?}: rid");
            assert_eq!(
                image(&prepared, friends),
                image(&in_place, friends),
                "{op:?} {row:?}: cells, epochs, indices"
            );
            assert_eq!(image(&in_place, friends).3.len(), 2, "both indices kept");
            let ops = rec_in_place.take_full();
            assert_eq!(ops.len(), 1, "one record per commit");
            assert_eq!(rec_prepared.take_full(), ops, "{op:?} {row:?}: WAL records");
            // The prepared path counts its (unconditional) shard clone.
            assert_eq!((in_place.cow_clones(), prepared.cow_clones()), (0, 1));
        }
    }

    #[test]
    fn prepare_says_why_there_is_nothing_to_commit() {
        let mut db = Database::new(photos());
        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        // Absent rows — never-interned values included — have no copy.
        for ghost in [
            [Value::int(9), Value::int(9)],
            [Value::str("ghost"), Value::int(1)],
        ] {
            let p = db.prepare(RowOp::Delete, "friends", &ghost).unwrap();
            assert!(matches!(p, Prepare::Absent), "{p:?}");
        }
        // Un-interned insert values defer to the in-place path.
        let p = db
            .prepare(
                RowOp::Insert,
                "friends",
                &[Value::str("new"), Value::int(1)],
            )
            .unwrap();
        assert!(matches!(p, Prepare::NeedsIntern), "{p:?}");
        for op in [RowOp::Insert, RowOp::Delete] {
            assert!(db.prepare(op, "friends", &[Value::int(1)]).is_err());
            assert!(db.prepare(op, "ghost", &[Value::int(1)]).is_err());
        }
        assert_eq!(db.cow_clones(), 0, "nothing was cloned");
    }

    #[test]
    fn row_writes_keep_every_index_and_build_indexes_is_a_noop() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        a.add("in_album", &["album_id"], &["photo_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.build_indexes(&a);
        let rec = Arc::new(Recorder::default());
        db.set_wal(Some(rec.clone()));

        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        assert!(db
            .delete("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .is_some());
        assert_eq!(db.num_indexes(), 2, "no row write dropped an index");
        assert_eq!(rec.take().len(), 3, "one record per row write");

        let e = db.epoch();
        db.build_indexes(&a);
        assert_eq!(db.epoch(), e, "nothing to rebuild: no commit");
        assert!(rec.take().is_empty(), "and nothing logged");
    }

    #[test]
    fn prepared_writes_leave_untouched_shards_pointer_equal() {
        let mut db = Database::new(photos());
        db.insert("in_album", &[Value::int(7), Value::int(8)])
            .unwrap();
        let snap = db.clone();
        let p = db
            .prepare(RowOp::Insert, "friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.commit_prepared(ready(p));
        assert!(Arc::ptr_eq(snap.shard(RelId(0)), db.shard(RelId(0))));
        assert!(Arc::ptr_eq(snap.shard(RelId(2)), db.shard(RelId(2))));
        assert!(!Arc::ptr_eq(snap.shard(RelId(1)), db.shard(RelId(1))));
        // The snapshot stays frozen at its vector clock.
        assert_eq!(snap.table(RelId(1)).len(), 0);
        assert_eq!(db.table(RelId(1)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "raced another writer")]
    fn commit_prepared_detects_latch_violations() {
        let mut db = Database::new(photos());
        let p = db
            .prepare(RowOp::Insert, "friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        // Another write to the same relation lands between prepare and
        // commit — exactly what the per-relation latch must prevent.
        db.insert("friends", &[Value::int(3), Value::int(4)])
            .unwrap();
        db.commit_prepared(ready(p));
    }

    #[test]
    fn interned_values_do_not_clone_the_symbol_table() {
        let mut db = Database::new(photos());
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        let snap = db.clone();
        // Re-inserting already-interned values must not copy the symbol
        // table even though the snapshot still references it.
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert!(
            std::ptr::eq(snap.symbols(), db.symbols()),
            "steady-state write shares the symbol table"
        );
        // A brand-new string forces the copy-on-write.
        db.insert("friends", &[Value::str("u0"), Value::str("brand-new")])
            .unwrap();
        assert!(!std::ptr::eq(snap.symbols(), db.symbols()));
        assert_eq!(
            db.value_rows(RelId(1)).last().unwrap(),
            vec![Value::str("u0"), Value::str("brand-new")]
        );
    }

    #[test]
    fn insert_and_count() {
        let mut db = Database::new(photos());
        db.insert("in_album", &[Value::str("p1"), Value::str("a0")])
            .unwrap();
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert_eq!(db.total_tuples(), 2);
        assert_eq!(db.table(RelId(0)).len(), 1);
        // Round-trip through the symbol table.
        assert_eq!(
            db.value_rows(RelId(0)).next().unwrap(),
            vec![Value::str("p1"), Value::str("a0")]
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = Database::new(photos());
        assert!(db.insert("in_album", &[Value::str("p1")]).is_err());
        assert!(db.insert("ghost", &[Value::str("p1")]).is_err());
    }

    #[test]
    fn indexes_built_per_constraint_and_shared() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        let mut db = Database::new(cat.clone());
        db.insert("in_album", &[Value::str("p1"), Value::str("a0")])
            .unwrap();
        db.build_indexes(&a);
        assert_eq!(db.num_indexes(), 2);

        // A prefix schema re-declares the same (X, Y): no new index.
        let prefix = a.prefix(1);
        db.build_indexes(&prefix);
        assert_eq!(db.num_indexes(), 2);

        let idx = db.index_for(a.constraint(bcq_core::access::ConstraintId(0)));
        assert!(idx.is_some());
        let key = db
            .symbols()
            .try_encode_row(&[Value::str("a0")])
            .expect("interned at insert");
        assert_eq!(idx.unwrap().witnesses(&key).len(), 1);
    }

    #[test]
    fn bulk_load_invalidates_only_the_relations_indexes() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.build_indexes(&a);
        assert_eq!(db.num_indexes(), 2);
        db.bulk_loader(RelId(1))
            .push_rows(&[Value::int(1), Value::int(3)]);
        // The bulk loader drops the touched relation's indices only:
        // relation-scoped invalidation.
        assert_eq!(db.num_indexes(), 1, "friends' index dropped");
        assert_eq!(db.shard(RelId(0)).num_indexes(), 1, "in_album's survives");
        assert_eq!(db.shard(RelId(1)).num_indexes(), 0);
    }

    #[test]
    fn insert_keeps_indexes_fresh() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.build_indexes(&a);

        let rid = db
            .insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        assert_eq!(rid, 1);
        assert_eq!(db.num_indexes(), 1, "index survived the insert");
        let key = db.symbols().try_encode_row(&[Value::int(1)]).unwrap();
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key), &[0, 1]);

        // Maintained result matches a from-scratch rebuild.
        let rebuilt = crate::index::HashIndex::build(
            db.table(RelId(1)),
            a.constraint(cid).x(),
            a.constraint(cid).y(),
        );
        assert_eq!(idx.witnesses(&key), rebuilt.witnesses(&key));
        assert_eq!(idx.max_witnesses(), rebuilt.max_witnesses());

        // Duplicate Y values extend `all` but not the witnesses.
        db.insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key).len(), 2);
        assert_eq!(idx.all(&key).len(), 3);
    }

    #[test]
    fn delete_keeps_indexes_fresh() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        for (u, f) in [(1, 2), (1, 3), (2, 4), (1, 2)] {
            db.insert("friends", &[Value::int(u), Value::int(f)])
                .unwrap();
        }
        db.build_indexes(&a);
        let e = db.epoch();

        // Deleting one copy of the duplicated (1, 2) keeps the value
        // present: witnesses still cover {2, 3}.
        assert!(db
            .delete("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .is_some());
        assert!(db.epoch() > e);
        assert_eq!(db.num_indexes(), 1, "index survived the delete");
        let key = db.symbols().try_encode_row(&[Value::int(1)]).unwrap();
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key).len(), 2);
        assert_eq!(idx.all(&key).len(), 2);
        assert!(db
            .contains_row(RelId(1), &[Value::int(1), Value::int(2)])
            .unwrap());

        // Deleting the last copy retracts the Y-value from the witnesses.
        assert!(db
            .delete("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .is_some());
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key).len(), 1);
        assert!(!db
            .contains_row(RelId(1), &[Value::int(1), Value::int(2)])
            .unwrap());

        // Maintained index is equivalent to a rebuild (as posting sets —
        // swap-remove permutes row ids).
        let rebuilt = crate::index::HashIndex::build(
            db.table(RelId(1)),
            a.constraint(cid).x(),
            a.constraint(cid).y(),
        );
        assert_eq!(idx.max_witnesses(), rebuilt.max_witnesses());
        assert_eq!(idx.num_keys(), rebuilt.num_keys());
        for probe in [1i64, 2] {
            let key = db.symbols().try_encode_row(&[Value::int(probe)]).unwrap();
            let mut a1: Vec<u32> = idx.all(&key).to_vec();
            let mut a2: Vec<u32> = rebuilt.all(&key).to_vec();
            a1.sort_unstable();
            a2.sort_unstable();
            assert_eq!(a1, a2, "postings agree for key {probe}");
            assert_eq!(
                idx.witnesses(&key).len(),
                rebuilt.witnesses(&key).len(),
                "witness counts agree for key {probe}"
            );
        }

        // A row that is not stored (or never interned) deletes nothing and
        // leaves the epoch alone.
        let e = db.epoch();
        assert!(db
            .delete("friends", &[Value::int(9), Value::int(9)])
            .unwrap()
            .is_none());
        assert!(db
            .delete("friends", &[Value::str("ghost"), Value::int(2)])
            .unwrap()
            .is_none());
        assert_eq!(db.epoch(), e);
        assert!(db.delete("ghost", &[Value::int(1)]).is_err());
        assert!(db.delete("friends", &[Value::int(1)]).is_err());
    }

    #[test]
    fn delete_repoints_moved_row_postings() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        for (u, f) in [(1, 2), (2, 4), (3, 6)] {
            db.insert("friends", &[Value::int(u), Value::int(f)])
                .unwrap();
        }
        db.build_indexes(&a);
        // Deleting row 0 swaps row 2 (user 3) into slot 0; its postings
        // must point at the new id.
        assert!(db
            .delete("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .is_some());
        let key = db.symbols().try_encode_row(&[Value::int(3)]).unwrap();
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key), &[0], "moved row re-pointed");
        assert_eq!(
            db.value_rows(RelId(1)).next().unwrap(),
            vec![Value::int(3), Value::int(6)]
        );
    }

    /// A recording sink: captures each record's kind and commit stamp (a
    /// value-free shape summary, so tests can assert emission order) plus
    /// its full `Debug` rendering, cells included.
    #[derive(Debug, Default)]
    struct Recorder(std::sync::Mutex<Vec<(String, Option<u64>, String)>>);

    impl crate::wal::WalSink for Recorder {
        fn record(&self, op: crate::wal::WalOp<'_>) {
            use crate::wal::WalOp as W;
            let kind = match op {
                W::InternStr { text, .. } => format!("intern:{text}"),
                W::InternWide { value, .. } => format!("wide:{value}"),
                W::Insert { rel, .. } => format!("insert:{}", rel.0),
                W::Delete { rel, .. } => format!("delete:{}", rel.0),
                W::BulkBegin { rel, .. } => format!("bulk:{}", rel.0),
                W::BulkChunk { rel, rows, .. } => format!("chunk:{}x{rows}", rel.0),
                W::BulkEnd { rel } => format!("bulk_end:{}", rel.0),
                W::EnsureIndex { rel, .. } => format!("index:{}", rel.0),
                W::Checkpoint { commit, .. } => format!("checkpoint:{commit}"),
            };
            let full = format!("{op:?}");
            self.0.lock().unwrap().push((kind, op.commit(), full));
        }
    }

    impl Recorder {
        fn take(&self) -> Vec<(String, Option<u64>)> {
            let taken = std::mem::take(&mut *self.0.lock().unwrap());
            taken.into_iter().map(|(k, c, _)| (k, c)).collect()
        }

        /// The records taken in full (every field, cells included).
        fn take_full(&self) -> Vec<String> {
            let taken = std::mem::take(&mut *self.0.lock().unwrap());
            taken.into_iter().map(|(_, _, full)| full).collect()
        }
    }

    #[test]
    fn wal_records_are_one_per_commit_with_interns_first() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        let rec = Arc::new(Recorder::default());
        db.set_wal(Some(rec.clone()));
        assert!(db.wal().is_some());

        // A fresh string row: interns precede the op record.
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert_eq!(
            rec.take(),
            vec![
                ("intern:u0".into(), None),
                ("intern:u1".into(), None),
                ("insert:1".into(), Some(1)),
            ]
        );

        // Steady state: already-interned values emit only the op record,
        // stamped with the commit the shard epoch got.
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert_eq!(rec.take(), vec![("insert:1".into(), Some(2))]);
        assert_eq!(db.epoch_of(RelId(1)), 2);

        // Index build logs once; re-ensuring is silent like the no-op it is.
        db.build_indexes(&a);
        assert_eq!(rec.take(), vec![("index:1".into(), Some(3))]);
        db.build_indexes(&a);
        assert!(rec.take().is_empty());

        // Effective deletes log; misses do not.
        assert!(db
            .delete("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap()
            .is_some());
        assert_eq!(rec.take(), vec![("delete:1".into(), Some(4))]);
        assert_eq!(db.num_indexes(), 1, "and the index is still there");
        assert!(db
            .delete("friends", &[Value::str("ghost"), Value::str("u1")])
            .unwrap()
            .is_none());
        assert!(rec.take().is_empty());

        // Bulk loads: one BulkBegin for the single commit bump, then a
        // chunk record per push, with a wide-int intern where needed.
        {
            let mut l = db.bulk_loader(RelId(0));
            l.push_rows(&[Value::int(1), Value::int(i64::MAX)]);
            l.push_rows(&[Value::int(2), Value::int(3), Value::int(4), Value::int(5)]);
        }
        assert_eq!(
            rec.take(),
            vec![
                ("bulk:0".into(), Some(5)),
                (format!("wide:{}", i64::MAX), None),
                ("chunk:0x1".into(), None),
                ("chunk:0x2".into(), None),
                ("bulk_end:0".into(), None),
            ]
        );
        assert_eq!(db.epoch(), 5);

        // Clones share the sink (snapshots are read-only; the writer
        // lineage keeps logging through its clone-swap).
        let mut clone = db.clone();
        clone
            .insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert_eq!(rec.take(), vec![("insert:1".into(), Some(6))]);
    }

    #[test]
    fn replay_refuses_a_wal_attached_database() {
        // Replayed records were logged once already; on a logging database
        // an intern would mint a symbol no record announces.
        let mut db = Database::new(photos());
        db.set_wal(Some(Arc::new(Recorder::default())));
        let intern = WalOp::InternStr { id: 0, text: "u0" };
        assert!(db.replay(intern).is_err());
        assert!(db.replay_bulk(1, RelId(0), 0).is_err());
        assert!(db.replay_indexes(&[(1, (RelId(1), &[0], &[1]))]).is_err());
        assert!(db.bulk_loader(RelId(0)).replay(intern).is_err());
        assert!(db.symbols().is_empty());
        db.set_wal(None);
        db.replay(intern).unwrap();
        assert_eq!(db.symbols().lookup("u0"), Some(Sym(0)));
    }

    #[test]
    fn a_checkpoint_record_sets_the_vector_clock() {
        // The state of a live history, replayed as a compacted log: one
        // bracket per non-empty relation and the index record, each at the
        // commit replay arrives at, then the clock the history reached.
        let cat = photos();
        let mut live = Database::new(cat.clone());
        let (albums, friends, tagging) = (RelId(0), RelId(1), RelId(2));
        for (u, f) in [(1, 2), (1, 3), (2, 4)] {
            live.insert("friends", &[Value::int(u), Value::int(f)])
                .unwrap();
        }
        live.insert("in_album", &[Value::int(7), Value::int(8)])
            .unwrap();
        live.ensure_indexes_cols(&[(friends, &[0], &[1])]);
        // Emptied by deletes: no bracket, but its epoch moved.
        live.insert("tagging", &[Value::int(1), Value::int(2), Value::int(3)])
            .unwrap();
        live.delete("tagging", &[Value::int(1), Value::int(2), Value::int(3)])
            .unwrap();
        let epochs: Vec<u64> = (0..3).map(|i| live.epoch_of(RelId(i))).collect();

        let mut db = Database::new(cat);
        for (commit, rel) in [(1, albums), (2, friends)] {
            let cells = live.table(rel).cells().to_vec();
            let mut loader = db.replay_bulk(commit, rel, cells.len()).unwrap();
            let rows = (cells.len() / live.table(rel).arity()) as u32;
            loader
                .replay(WalOp::BulkChunk {
                    rel,
                    rows,
                    cells: &cells,
                })
                .unwrap();
        }
        db.replay_indexes(&[(3, (friends, &[0], &[1]))]).unwrap();
        let clock = |commit, epochs| WalOp::Checkpoint {
            commit,
            last_seq: 9,
            epochs,
        };
        // Refused, changing nothing: a clock of the wrong width, one that
        // steps back, and an epoch beyond its commit.
        let mut wide = epochs.clone();
        wide.push(0);
        let mut ahead = epochs.clone();
        ahead[2] = live.epoch() + 1;
        for (case, op) in [
            ("wrong width", clock(live.epoch(), &wide)),
            ("steps back", clock(2, &[0, 1, 2])),
            ("epoch past commit", clock(live.epoch(), &ahead)),
        ] {
            let err = db.replay(op).unwrap_err().to_string();
            assert!(err.contains("checkpoint"), "{case}: {err}");
            assert_eq!(db.epoch(), 3, "{case}");
        }
        db.replay(clock(live.epoch(), &epochs)).unwrap();
        assert_eq!(db.epoch(), live.epoch());
        for rel in [albums, friends, tagging] {
            assert_eq!(db.epoch_of(rel), live.epoch_of(rel));
            assert_eq!(image(&db, rel), image(&live, rel));
        }
        assert_eq!(db.epoch_of(tagging), epochs[2], "the emptied relation");
        // Replay goes on from the clock.
        let next = live.epoch() + 1;
        let row = [Cell::from_small_int(5).unwrap(); 2];
        db.replay(WalOp::Insert {
            commit: next,
            rel: albums,
            cells: &row,
        })
        .unwrap();
        assert_eq!(db.epoch(), next);
    }

    #[test]
    fn parallel_build_keeps_log_and_epochs() {
        // Two relations past the sorted-build threshold (skewed keys,
        // repeated `Y`s), one small; the spec list names one index twice
        // and one that is already there.
        let cat = photos();
        let (albums, friends, tagging) = (RelId(0), RelId(1), RelId(2));
        let load = |db: &mut Database| {
            let mut state = 0xBC0u64;
            let mut next = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Value::int(((state >> 33) % n) as i64)
            };
            let mut rows = Vec::new();
            for _ in 0..(1 << 13) + 500 {
                rows.extend([next(40), next(6)]);
            }
            db.bulk_loader(friends).push_rows(&rows);
            rows.clear();
            for i in 0..3 << 13 {
                rows.extend([Value::int(i / 3), next(900), next(4)]);
            }
            db.bulk_loader(tagging).push_rows(&rows);
            db.bulk_loader(albums).push_rows(&[
                Value::int(1),
                Value::int(2),
                Value::int(3),
                Value::int(2),
            ]);
            db.ensure_indexes_cols(&[(tagging, &[1], &[2])]);
        };
        let specs: Vec<IndexSpec<'_>> = vec![
            (friends, &[0], &[1]),
            (tagging, &[0, 1], &[2]),
            (tagging, &[1], &[2]), // already built
            (albums, &[1], &[0]),
            (friends, &[], &[1]),
            (tagging, &[0], &[1, 2]),
            (friends, &[0], &[1]), // declared twice
            (tagging, &[], &[2]),
        ];
        let run = |workers: usize| {
            let mut db = Database::new(cat.clone());
            load(&mut db);
            let rec = Arc::new(Recorder::default());
            db.set_wal(Some(rec.clone()));
            let stamps = db.ensure_indexes_on(&specs, workers);
            (db, stamps, rec.take_full())
        };
        let (serial, serial_stamps, serial_log) = run(1);
        let e0 = serial_stamps[0] - 1;
        assert_eq!(
            serial_stamps,
            [1, 2, 2, 3, 4, 5, 5, 6].map(|bumps| e0 + bumps),
            "one bump per index built, none for the built and the repeated"
        );
        assert_eq!(serial_log.len(), 6);
        for workers in [2, 4] {
            let (parallel, stamps, log) = run(workers);
            assert_eq!(stamps, serial_stamps);
            assert_eq!(log, serial_log, "WAL records, every field");
            assert_eq!(parallel.epoch(), serial.epoch());
            for rel in [albums, friends, tagging] {
                assert_eq!(image(&parallel, rel), image(&serial, rel));
                let specs = |db: &Database| -> Vec<(Vec<usize>, Vec<usize>)> {
                    let specs = db.shard(rel).index_specs();
                    specs.map(|(x, y)| (x.to_vec(), y.to_vec())).collect()
                };
                assert_eq!(specs(&parallel), specs(&serial), "installed in spec order");
            }
        }
    }

    #[test]
    fn insert_interns_new_strings_into_the_index() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.build_indexes(&a);
        db.insert(
            "friends",
            &[Value::str("new-user"), Value::str("new-friend")],
        )
        .unwrap();
        let key = db
            .symbols()
            .try_encode_row(&[Value::str("new-user")])
            .expect("string interned by the insert");
        assert_eq!(
            db.index_for(a.constraint(cid))
                .unwrap()
                .witnesses(&key)
                .len(),
            1
        );
    }
}
