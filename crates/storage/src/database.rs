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
//!   anything *this plan reads* change?" — the relation-scoped invalidation
//!   the serving layer's plan cache and registered views key on.

use crate::index::HashIndex;
use crate::shard::RelationShard;
use crate::table::Table;
use crate::wal::{WalOp, WalSink};
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
#[derive(Debug, Clone)]
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
            wal: None,
        }
    }

    /// Rebuilds a database from durably stored parts — the snapshot-restore
    /// path. `shards` must cover every relation of `catalog` in order;
    /// each shard's epoch must not exceed `commit` (the restored global
    /// commit counter). Declared indices are rebuilt from the restored
    /// rows. No WAL sink is attached; the recovery layer attaches one
    /// after replay.
    pub fn restore(
        catalog: Arc<Catalog>,
        symbols: SymbolTable,
        shards: Vec<ShardState>,
        commit: u64,
    ) -> Result<Database> {
        if shards.len() != catalog.relations().len() {
            return Err(CoreError::Invalid(format!(
                "restore: {} shards for a {}-relation catalog",
                shards.len(),
                catalog.relations().len()
            )));
        }
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                let arity = catalog.relation(RelId(i)).arity();
                if state.cells.len() % arity != 0 {
                    return Err(CoreError::Invalid(format!(
                        "restore: relation {i} cell count {} not a multiple of arity {arity}",
                        state.cells.len()
                    )));
                }
                if state.epoch > commit {
                    return Err(CoreError::Invalid(format!(
                        "restore: relation {i} epoch {} beyond commit {commit}",
                        state.epoch
                    )));
                }
                let mut table = Table::new(RelId(i), arity);
                table.reserve_rows(state.cells.len() / arity);
                for row in state.cells.chunks_exact(arity) {
                    table.push(row);
                }
                let indexes = state
                    .indexes
                    .into_iter()
                    .map(|(x, y)| {
                        let idx = HashIndex::build(&table, &x, &y);
                        ((x, y), idx)
                    })
                    .collect();
                let mut shard = RelationShard::new(table);
                shard.indexes = indexes;
                shard.epoch = state.epoch;
                Ok(Arc::new(shard))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Database {
            catalog,
            symbols: Arc::new(symbols),
            shards,
            commit,
            cow_cells: 0,
            cow_clones: 0,
            wal: None,
        })
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

    /// Replay-side eager interning: folds one logged intern record into the
    /// database's own symbol table. Recovery applies these in logged (id)
    /// order **before** re-encoding the rows that referenced them, so the
    /// rebuilt cells reuse the original symbol ids no matter what encode
    /// order produced them — the bulk-ingest fast path interns
    /// column-at-a-time, while replay pushes whole rows.
    ///
    /// Recovery-only: calling this on a WAL-attached database would create
    /// an unlogged symbol.
    pub fn replay_intern_str(&mut self, text: &str) {
        debug_assert!(
            self.wal.is_none(),
            "replay-side interning on a WAL-attached database"
        );
        Arc::make_mut(&mut self.symbols).intern(text);
    }

    /// Replay-side eager interning of a wide integer; see
    /// [`Self::replay_intern_str`].
    pub fn replay_intern_wide(&mut self, value: i64) {
        debug_assert!(
            self.wal.is_none(),
            "replay-side interning on a WAL-attached database"
        );
        Arc::make_mut(&mut self.symbols).encode(&Value::Int(value));
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
    /// snapshots outstanding. Newly interned values are delivered to the
    /// WAL sink (before the op record that carries the encoded cells).
    fn encode_row_interning(&mut self, row: &[Value]) -> RowBuf {
        encode_interning_logged(&mut self.symbols, self.wal.as_deref(), row)
    }

    /// A value-level bulk loader for `rel`: encodes [`Value`] rows through
    /// this database's symbol table. Invalidates the relation's indices
    /// (bulk-load path): call [`Self::build_indexes`] when loading is done.
    pub fn loader(&mut self, rel: RelId) -> Loader<'_> {
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
        Loader {
            table: &mut shard.table,
            symbols: &mut self.symbols,
            wal,
            rel,
        }
    }

    /// The chunked bulk-ingest fast path for `rel`: like [`Self::loader`]
    /// (one commit bump for the whole load, indices invalidated, WAL
    /// bracket `BulkBegin … BulkEnd`) but rows arrive **chunk-at-a-time**:
    /// each chunk is symbol-encoded in batch passes, appended column at a
    /// time, and logged as a single [`WalOp::BulkChunk`] record instead of
    /// one record per row. Call [`Self::build_indexes`] when loading is
    /// done. Loads the final state identically to pushing the same rows
    /// through [`Self::loader`] one at a time.
    pub fn bulk_loader(&mut self, rel: RelId) -> crate::bulk::BulkLoader<'_> {
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
        crate::bulk::BulkLoader::new(&mut shard.table, &mut self.symbols, wal, rel)
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

    /// Inserts one row into the relation called `rel_name`.
    ///
    /// Drops the relation's registered indices (bulk-load path): call
    /// [`Self::build_indexes`] when loading is done, or use
    /// [`Self::insert_maintained`] for live updates. Other relations'
    /// shards — tables, indices, epochs — are untouched.
    pub fn insert(&mut self, rel_name: &str, row: &[Value]) -> Result<()> {
        let rel = self.catalog.require_rel(rel_name)?;
        if row.len() != self.catalog.relation(rel).arity() {
            return Err(CoreError::Invalid(format!(
                "arity mismatch inserting into `{rel_name}`"
            )));
        }
        let cells = self.encode_row_interning(row);
        let shard = self.shard_mut(rel);
        shard.indexes.clear();
        shard.table.push(&cells);
        self.emit(WalOp::Insert {
            commit: self.commit,
            rel,
            cells: &cells,
        });
        Ok(())
    }

    /// Inserts one row and **maintains** every registered index of the
    /// relation in place (amortized O(columns) per index) — the live-update
    /// path used by incremental maintenance. Returns the new row's id.
    pub fn insert_maintained(&mut self, rel_name: &str, row: &[Value]) -> Result<u32> {
        let rel = self.catalog.require_rel(rel_name)?;
        if row.len() != self.catalog.relation(rel).arity() {
            return Err(CoreError::Invalid(format!(
                "arity mismatch inserting into `{rel_name}`"
            )));
        }
        let cells = self.encode_row_interning(row);
        let shard = self.shard_mut(rel);
        let rid = shard.table.len() as u32;
        shard.table.push(&cells);
        for (_, idx) in shard.indexes.iter_mut() {
            idx.insert_row(rid, &cells);
        }
        self.emit(WalOp::InsertMaintained {
            commit: self.commit,
            rel,
            cells: &cells,
        });
        Ok(rid)
    }

    /// Deletes **one copy** of `row` from the relation called `rel_name`
    /// (bag storage: duplicates are removed one at a time; see
    /// [`crate::table::Table`] for the semantics). Returns `false` — and
    /// leaves the database untouched, epochs included — if no copy is
    /// stored.
    ///
    /// Drops the relation's registered indices (bulk-unload path): call
    /// [`Self::build_indexes`] when done, or use
    /// [`Self::delete_maintained`] for live updates.
    pub fn delete(&mut self, rel_name: &str, row: &[Value]) -> Result<bool> {
        let (rel, cells) = match self.locate(rel_name, row)? {
            Some(hit) => hit,
            None => return Ok(false),
        };
        let rid = match self.shards[rel.0].table.find_row(&cells) {
            Some(rid) => rid,
            None => return Ok(false),
        };
        let shard = self.shard_mut(rel);
        shard.indexes.clear();
        shard.table.swap_remove(rid);
        self.emit(WalOp::Delete {
            commit: self.commit,
            rel,
            cells: &cells,
        });
        Ok(true)
    }

    /// Deletes one copy of `row` and **maintains** every registered index of
    /// the relation in place — the live-update path used by incremental
    /// maintenance, mirror of [`Self::insert_maintained`]. The row is
    /// located through a registered index when one exists (O(postings)),
    /// falling back to a table scan. Tombstone-free: the table's last row is
    /// swapped into the hole and its postings re-pointed. Returns `false` —
    /// with no epoch bump — if no copy is stored.
    pub fn delete_maintained(&mut self, rel_name: &str, row: &[Value]) -> Result<bool> {
        let (rel, cells) = match self.locate(rel_name, row)? {
            Some(hit) => hit,
            None => return Ok(false),
        };
        let rid = match self.locate_rid(rel, &cells) {
            Some(rid) => rid,
            None => return Ok(false),
        };
        let RelationShard { table, indexes, .. } = self.shard_mut(rel);
        for (_, idx) in indexes.iter_mut() {
            idx.remove_row(rid as u32, &cells, table);
        }
        if let Some(moved_from) = table.swap_remove(rid) {
            let moved: Vec<Cell> = table.row(rid).to_vec();
            for (_, idx) in indexes.iter_mut() {
                idx.reindex_row(moved_from as u32, rid as u32, &moved);
            }
        }
        self.emit(WalOp::DeleteMaintained {
            commit: self.commit,
            rel,
            cells: &cells,
        });
        Ok(true)
    }

    /// Prepares an [`Self::insert_maintained`] **off the commit lock**: all
    /// the expensive work — row encoding, the shard's copy-on-write clone,
    /// the table append and index maintenance — happens against `&self`
    /// (any snapshot of the relation's latest state), leaving only the
    /// pointer-swap [`Self::commit_prepared`] for the exclusive section.
    ///
    /// Returns `Ok(None)` when the row contains a not-yet-interned value:
    /// interning mutates the shared symbol table, so the caller must fall
    /// back to the in-place path under exclusion. The caller must hold the
    /// relation's write latch from before calling this until after
    /// `commit_prepared`, so no other writer can move the shard's epoch in
    /// between (`commit_prepared` panics if one did).
    pub fn prepare_insert_maintained(
        &self,
        rel_name: &str,
        row: &[Value],
    ) -> Result<Option<PreparedWrite>> {
        let rel = self.catalog.require_rel(rel_name)?;
        if row.len() != self.catalog.relation(rel).arity() {
            return Err(CoreError::Invalid(format!(
                "arity mismatch inserting into `{rel_name}`"
            )));
        }
        let Some(cells) = self.symbols.try_encode_row(row) else {
            return Ok(None);
        };
        let base = &self.shards[rel.0];
        let cloned_cells = base.clone_cells();
        let mut shard = (**base).clone();
        let rid = shard.table.len() as u32;
        shard.table.push(&cells);
        for (_, idx) in shard.indexes.iter_mut() {
            idx.insert_row(rid, &cells);
        }
        Ok(Some(PreparedWrite {
            rel,
            base_epoch: base.epoch,
            shard,
            cloned_cells,
            cells: cells.to_vec(),
            kind: PreparedKind::Insert,
            rid,
        }))
    }

    /// Prepares a [`Self::delete_maintained`] off the commit lock; the
    /// mirror of [`Self::prepare_insert_maintained`] (same latch contract).
    ///
    /// Returns `Ok(None)` when no copy of the row is stored — including
    /// rows with never-interned values, which cannot be stored — in which
    /// case the delete is a no-op (`false`) and nothing needs committing:
    /// unlike the insert side there is no interning fallback, because the
    /// caller's latch keeps the relation's contents stable until commit.
    pub fn prepare_delete_maintained(
        &self,
        rel_name: &str,
        row: &[Value],
    ) -> Result<Option<PreparedWrite>> {
        let (rel, cells) = match self.locate(rel_name, row)? {
            Some(hit) => hit,
            None => return Ok(None),
        };
        let rid = match self.locate_rid(rel, &cells) {
            Some(rid) => rid,
            None => return Ok(None),
        };
        let base = &self.shards[rel.0];
        let cloned_cells = base.clone_cells();
        let mut shard = (**base).clone();
        let RelationShard { table, indexes, .. } = &mut shard;
        for (_, idx) in indexes.iter_mut() {
            idx.remove_row(rid as u32, &cells, table);
        }
        if let Some(moved_from) = table.swap_remove(rid) {
            let moved: Vec<Cell> = table.row(rid).to_vec();
            for (_, idx) in indexes.iter_mut() {
                idx.reindex_row(moved_from as u32, rid as u32, &moved);
            }
        }
        Ok(Some(PreparedWrite {
            rel,
            base_epoch: base.epoch,
            shard,
            cloned_cells,
            cells,
            kind: PreparedKind::Delete,
            rid: rid as u32,
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
            kind,
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
        match kind {
            PreparedKind::Insert => self.emit(WalOp::InsertMaintained {
                commit: self.commit,
                rel,
                cells: &cells,
            }),
            PreparedKind::Delete => self.emit(WalOp::DeleteMaintained {
                commit: self.commit,
                rel,
                cells: &cells,
            }),
        }
        rid
    }

    /// `true` if at least one copy of `row` is stored in `rel` — the
    /// value-level presence test incremental maintenance uses to decide
    /// whether a deletion removed the *last* copy. Served by a registered
    /// index when one exists, else a scan.
    pub fn contains_row(&self, rel: RelId, row: &[Value]) -> Result<bool> {
        if row.len() != self.catalog.relation(rel).arity() {
            return Err(CoreError::Invalid("arity mismatch in contains_row".into()));
        }
        let Some(cells) = self.symbols.try_encode_row(row) else {
            return Ok(false); // a never-interned value was never stored
        };
        Ok(self.locate_rid(rel, &cells).is_some())
    }

    /// Shared head of the delete paths: resolves the relation, checks the
    /// arity, and encodes the row read-only (a never-interned value proves
    /// no copy is stored).
    fn locate(&self, rel_name: &str, row: &[Value]) -> Result<Option<(RelId, Vec<Cell>)>> {
        let rel = self.catalog.require_rel(rel_name)?;
        if row.len() != self.catalog.relation(rel).arity() {
            return Err(CoreError::Invalid(format!(
                "arity mismatch deleting from `{rel_name}`"
            )));
        }
        match self.symbols.try_encode_row(row) {
            Some(cells) => Ok(Some((rel, cells.to_vec()))),
            None => Ok(None),
        }
    }

    /// The row id of one stored copy of `cells`: probes the posting list of
    /// a registered index on the relation when one exists (any index works —
    /// its key is a projection of the row being looked up), else scans.
    fn locate_rid(&self, rel: RelId, cells: &[Cell]) -> Option<usize> {
        let shard = &self.shards[rel.0];
        if let Some((_, idx)) = shard.indexes.first() {
            let key: RowBuf = idx.x().iter().map(|&c| cells[c]).collect();
            return idx
                .all(&key)
                .iter()
                .copied()
                .map(|rid| rid as usize)
                .find(|&rid| shard.table.row(rid) == cells);
        }
        shard.table.find_row(cells)
    }

    /// Total number of tuples across all tables — the paper's `|D|`.
    pub fn total_tuples(&self) -> usize {
        self.shards.iter().map(|s| s.table.len()).sum()
    }

    /// Builds (or reuses) the index for one access constraint.
    pub fn ensure_index(&mut self, c: &AccessConstraint) {
        self.ensure_index_cols(c.relation(), c.x(), c.y());
    }

    /// Builds (or reuses) the index on key columns `x` exposing value
    /// columns `y` of `rel` — the column-level form [`Self::ensure_index`]
    /// delegates to, also used by log replay to rebuild indices from
    /// [`WalOp::EnsureIndex`] records.
    pub fn ensure_index_cols(&mut self, rel: RelId, x: &[usize], y: &[usize]) {
        if self.shards[rel.0].index(x, y).is_some() {
            return;
        }
        let shard = self.shard_mut(rel);
        let idx = HashIndex::build(&shard.table, x, y);
        shard.indexes.push(((x.to_vec(), y.to_vec()), idx));
        self.emit(WalOp::EnsureIndex {
            commit: self.commit,
            rel,
            x,
            y,
        });
    }

    /// Builds every index declared by `a` (the paper's setup step: "for each
    /// X → (Y, N) extracted, we built an index").
    pub fn build_indexes(&mut self, a: &AccessSchema) {
        for c in a.constraints() {
            self.ensure_index(c);
        }
    }

    /// The index backing constraint `c`, if built.
    pub fn index_for(&self, c: &AccessConstraint) -> Option<&HashIndex> {
        self.shards[c.relation().0].index(c.x(), c.y())
    }

    /// Number of registered indices across all shards.
    pub fn num_indexes(&self) -> usize {
        self.shards.iter().map(|s| s.indexes.len()).sum()
    }

    /// Approximate resident size in tuples-of-values (tables only), for
    /// reporting dataset scale.
    pub fn total_values(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.len() * s.table.arity())
            .sum()
    }
}

/// A maintained single-row write prepared against a snapshot of one
/// relation's latest state, ready for its short exclusive commit; see
/// [`Database::prepare_insert_maintained`] / [`Database::commit_prepared`].
#[derive(Debug)]
pub struct PreparedWrite {
    rel: RelId,
    /// Epoch of the shard the clone was taken from; `commit_prepared`
    /// checks it to catch latch-contract violations.
    base_epoch: u64,
    shard: RelationShard,
    cloned_cells: u64,
    cells: Vec<Cell>,
    kind: PreparedKind,
    rid: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PreparedKind {
    Insert,
    Delete,
}

impl PreparedWrite {
    /// The relation this write touches.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The row id the commit will report: the appended row's id for an
    /// insert, the removed copy's (pre-swap) id for a delete.
    pub fn rid(&self) -> u32 {
        self.rid
    }
}

/// The copy-on-write funnel shared by [`Database::shard_mut`] and
/// [`Database::loader`]: clones the shard iff something else still
/// references it (feeding the cow diagnostics the write-amplification
/// bench reads) and stamps it with the new commit number. A free function
/// over disjoint fields so the loader can borrow the symbol table
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

/// Copy-on-write encoding against the shared symbol table: rows whose
/// values are all already interned never clone it.
fn encode_interning(symbols: &mut Arc<SymbolTable>, row: &[Value]) -> RowBuf {
    match symbols.try_encode_row(row) {
        Some(cells) => cells,
        None => Arc::make_mut(symbols).encode_row(row),
    }
}

/// [`encode_interning`] with WAL emission: any entries the encode added to
/// the symbol table are delivered as intern records, in id order, before
/// the caller emits the op record that carries the encoded cells. The
/// steady state (everything already interned) is one `try_encode_row` and
/// no records.
fn encode_interning_logged(
    symbols: &mut Arc<SymbolTable>,
    wal: Option<&dyn WalSink>,
    row: &[Value],
) -> RowBuf {
    let Some(sink) = wal else {
        return encode_interning(symbols, row);
    };
    let (strings_before, wides_before) = (symbols.len(), symbols.num_wide_ints());
    let cells = encode_interning(symbols, row);
    log_new_interns(symbols, sink, strings_before, wides_before);
    cells
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

/// One relation's durably stored state, as consumed by
/// [`Database::restore`]: the shard's vector-clock component, its rows
/// (flattened cells, arity taken from the catalog), and the `(x, y)`
/// column sets of the indices to rebuild over them.
#[derive(Debug, Clone, Default)]
pub struct ShardState {
    /// The shard's epoch at snapshot time.
    pub epoch: u64,
    /// Row cells, flattened in row-major order.
    pub cells: Vec<Cell>,
    /// `(key columns, value columns)` of each registered index.
    pub indexes: Vec<(Vec<usize>, Vec<usize>)>,
}

/// Value-level bulk loader returned by [`Database::loader`]: pairs a
/// mutable table with the database's symbol table so callers keep pushing
/// plain [`Value`] rows.
pub struct Loader<'a> {
    table: &'a mut Table,
    symbols: &'a mut Arc<SymbolTable>,
    wal: Option<&'a dyn WalSink>,
    rel: RelId,
}

impl Loader<'_> {
    /// Appends a row (must match the relation's arity). Values already
    /// interned never touch the shared symbol table.
    pub fn push(&mut self, row: &[Value]) {
        let cells = encode_interning_logged(self.symbols, self.wal, row);
        self.table.push(&cells);
        if let Some(sink) = self.wal {
            sink.record(WalOp::BulkRow {
                rel: self.rel,
                cells: &cells,
            });
        }
    }

    /// Reserves space for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.table.reserve_rows(additional);
    }

    /// Number of rows currently in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl Drop for Loader<'_> {
    fn drop(&mut self) {
        // Close the WAL bracket: recovery discards a bulk load whose end
        // record never made it to the log (torn mid-load).
        if let Some(sink) = self.wal {
            sink.record(WalOp::BulkEnd { rel: self.rel });
        }
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

        db.insert_maintained("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        let e3 = db.epoch();
        assert!(e3 > e2);

        {
            let mut l = db.loader(RelId(1));
            l.push(&[Value::int(4), Value::int(5)]);
        }
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
        db.insert_maintained("friends", &[Value::int(1), Value::int(3)])
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
        db.insert_maintained("friends", &[Value::int(2), Value::int(4)])
            .unwrap();
        assert_eq!(db.cow_clones(), before, "no reference, no copy");
    }

    #[test]
    fn prepared_writes_match_in_place_maintained_writes() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();

        // Oracle: the classic in-place maintained path.
        let mut oracle = Database::new(cat.clone());
        oracle.build_indexes(&a);
        oracle
            .insert_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        oracle
            .insert_maintained("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        assert!(oracle
            .delete_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap());

        // Same ops through prepare + commit.
        let mut db = Database::new(cat);
        db.build_indexes(&a);
        // First insert interns nothing new (ints are inline) so prepare
        // succeeds immediately.
        let p = db
            .prepare_insert_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .unwrap();
        assert_eq!((p.rel(), p.rid()), (RelId(1), 0));
        assert_eq!(db.commit_prepared(p), 0);
        let p = db
            .prepare_insert_maintained("friends", &[Value::int(1), Value::int(3)])
            .unwrap()
            .unwrap();
        db.commit_prepared(p);
        let p = db
            .prepare_delete_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .unwrap();
        db.commit_prepared(p);

        assert_eq!(db.epoch(), oracle.epoch());
        assert_eq!(db.epoch_of(RelId(1)), oracle.epoch_of(RelId(1)));
        let got: Vec<_> = db.value_rows(RelId(1)).collect();
        let want: Vec<_> = oracle.value_rows(RelId(1)).collect();
        assert_eq!(got, want);
        assert_eq!(db.num_indexes(), 1);

        // Absent rows and never-interned values prepare to None.
        assert!(db
            .prepare_delete_maintained("friends", &[Value::int(9), Value::int(9)])
            .unwrap()
            .is_none());
        assert!(db
            .prepare_delete_maintained("friends", &[Value::str("ghost"), Value::int(1)])
            .unwrap()
            .is_none());
        // Un-interned insert values defer to the in-place path.
        assert!(db
            .prepare_insert_maintained("friends", &[Value::str("new"), Value::int(1)])
            .unwrap()
            .is_none());
        // The prepared path counts its (unconditional) shard clones.
        assert_eq!(db.cow_clones(), 3);
    }

    #[test]
    fn prepared_writes_leave_untouched_shards_pointer_equal() {
        let mut db = Database::new(photos());
        db.insert_maintained("in_album", &[Value::int(7), Value::int(8)])
            .unwrap();
        let snap = db.clone();
        let p = db
            .prepare_insert_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .unwrap();
        db.commit_prepared(p);
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
            .prepare_insert_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap()
            .unwrap();
        // Another write to the same relation lands between prepare and
        // commit — exactly what the per-relation latch must prevent.
        db.insert_maintained("friends", &[Value::int(3), Value::int(4)])
            .unwrap();
        db.commit_prepared(p);
    }

    #[test]
    fn interned_values_do_not_clone_the_symbol_table() {
        let mut db = Database::new(photos());
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        let snap = db.clone();
        // Re-inserting already-interned values must not copy the symbol
        // table even though the snapshot still references it.
        db.insert_maintained("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert!(
            std::ptr::eq(snap.symbols(), db.symbols()),
            "steady-state write shares the symbol table"
        );
        // A brand-new string forces the copy-on-write.
        db.insert_maintained("friends", &[Value::str("u0"), Value::str("brand-new")])
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
        assert_eq!(db.total_values(), 4);
        // Round-trip through the symbol table.
        assert_eq!(
            db.value_rows(RelId(0)).next().unwrap(),
            vec![Value::str("p1"), Value::str("a0")]
        );
    }

    #[test]
    fn loader_encodes_values() {
        let mut db = Database::new(photos());
        {
            let mut l = db.loader(RelId(1));
            l.reserve_rows(2);
            l.push(&[Value::str("u0"), Value::str("u1")]);
            l.push(&[Value::int(7), Value::Null]);
            assert_eq!(l.len(), 2);
            assert!(!l.is_empty());
        }
        let rows: Vec<Vec<Value>> = db.value_rows(RelId(1)).collect();
        assert_eq!(rows[0], vec![Value::str("u0"), Value::str("u1")]);
        assert_eq!(rows[1], vec![Value::int(7), Value::Null]);
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
    fn mutation_invalidates_only_the_relations_indexes() {
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
        db.insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        // The bulk path drops the touched relation's indices only:
        // relation-scoped invalidation.
        assert_eq!(db.num_indexes(), 1, "friends' index dropped");
        assert_eq!(db.shard(RelId(0)).num_indexes(), 1, "in_album's survives");
        assert_eq!(db.shard(RelId(1)).num_indexes(), 0);
    }

    #[test]
    fn maintained_insert_keeps_indexes_fresh() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.build_indexes(&a);

        let rid = db
            .insert_maintained("friends", &[Value::int(1), Value::int(3)])
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
        db.insert_maintained("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key).len(), 2);
        assert_eq!(idx.all(&key).len(), 3);
    }

    #[test]
    fn delete_bulk_drops_indexes_and_rows() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.insert("friends", &[Value::int(1), Value::int(2)])
            .unwrap();
        db.insert("friends", &[Value::int(1), Value::int(3)])
            .unwrap();
        db.build_indexes(&a);
        let e = db.epoch();

        assert!(db
            .delete("friends", &[Value::int(1), Value::int(2)])
            .unwrap());
        assert!(db.epoch() > e, "delete bumps the epoch");
        assert_eq!(db.num_indexes(), 0, "bulk delete drops indices");
        assert_eq!(db.table(RelId(1)).len(), 1);

        // A row that is not stored (or never interned) deletes nothing and
        // leaves the epoch alone.
        let e = db.epoch();
        assert!(!db
            .delete("friends", &[Value::int(1), Value::int(2)])
            .unwrap());
        assert!(!db
            .delete("friends", &[Value::str("ghost"), Value::int(2)])
            .unwrap());
        assert_eq!(db.epoch(), e);
        assert!(db.delete("ghost", &[Value::int(1)]).is_err());
        assert!(db.delete("friends", &[Value::int(1)]).is_err());
    }

    #[test]
    fn maintained_delete_keeps_indexes_fresh() {
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
            .delete_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap());
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
            .delete_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap());
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

        // A miss deletes nothing and does not bump the epoch.
        let e = db.epoch();
        assert!(!db
            .delete_maintained("friends", &[Value::int(9), Value::int(9)])
            .unwrap());
        assert_eq!(db.epoch(), e);
    }

    #[test]
    fn maintained_delete_repoints_moved_row_postings() {
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
            .delete_maintained("friends", &[Value::int(1), Value::int(2)])
            .unwrap());
        let key = db.symbols().try_encode_row(&[Value::int(3)]).unwrap();
        let idx = db.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key), &[0], "moved row re-pointed");
        assert_eq!(
            db.value_rows(RelId(1)).next().unwrap(),
            vec![Value::int(3), Value::int(6)]
        );
    }

    /// A recording sink: captures each record's kind, commit stamp, and a
    /// value-free shape summary, so tests can assert emission order.
    #[derive(Debug, Default)]
    struct Recorder(std::sync::Mutex<Vec<(String, Option<u64>)>>);

    impl crate::wal::WalSink for Recorder {
        fn record(&self, op: crate::wal::WalOp<'_>) {
            use crate::wal::WalOp as W;
            let kind = match op {
                W::InternStr { text, .. } => format!("intern:{text}"),
                W::InternWide { value, .. } => format!("wide:{value}"),
                W::Insert { rel, .. } => format!("insert:{}", rel.0),
                W::InsertMaintained { rel, .. } => format!("insert_m:{}", rel.0),
                W::Delete { rel, .. } => format!("delete:{}", rel.0),
                W::DeleteMaintained { rel, .. } => format!("delete_m:{}", rel.0),
                W::BulkBegin { rel, .. } => format!("bulk:{}", rel.0),
                W::BulkRow { rel, .. } => format!("row:{}", rel.0),
                W::BulkChunk { rel, rows, .. } => format!("chunk:{}x{rows}", rel.0),
                W::BulkEnd { rel } => format!("bulk_end:{}", rel.0),
                W::EnsureIndex { rel, .. } => format!("index:{}", rel.0),
            };
            self.0.lock().unwrap().push((kind, op.commit()));
        }
    }

    impl Recorder {
        fn take(&self) -> Vec<(String, Option<u64>)> {
            std::mem::take(&mut self.0.lock().unwrap())
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
        db.insert_maintained("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert_eq!(rec.take(), vec![("insert_m:1".into(), Some(2))]);
        assert_eq!(db.epoch_of(RelId(1)), 2);

        // Index build logs once; re-ensuring is silent like the no-op it is.
        db.build_indexes(&a);
        assert_eq!(rec.take(), vec![("index:1".into(), Some(3))]);
        db.build_indexes(&a);
        assert!(rec.take().is_empty());

        // Effective deletes log; misses do not.
        assert!(db
            .delete_maintained("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap());
        assert_eq!(rec.take(), vec![("delete_m:1".into(), Some(4))]);
        assert!(!db
            .delete("friends", &[Value::str("ghost"), Value::str("u1")])
            .unwrap());
        assert!(rec.take().is_empty());

        // Bulk loads: one BulkBegin for the single commit bump, then a row
        // record per push, with a wide-int intern where needed.
        {
            let mut l = db.loader(RelId(0));
            l.push(&[Value::int(1), Value::int(i64::MAX)]);
            l.push(&[Value::int(2), Value::int(3)]);
        }
        assert_eq!(
            rec.take(),
            vec![
                ("bulk:0".into(), Some(5)),
                (format!("wide:{}", i64::MAX), None),
                ("row:0".into(), None),
                ("row:0".into(), None),
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
    fn restore_rebuilds_rows_epochs_and_indexes() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat.clone());
        for (u, f) in [(1, 2), (1, 3), (2, 4)] {
            db.insert("friends", &[Value::int(u), Value::int(f)])
                .unwrap();
        }
        db.insert("in_album", &[Value::str("p"), Value::str("al")])
            .unwrap();
        db.build_indexes(&a);

        // Dump by hand (the durability crate does this through its
        // snapshot codec) and restore.
        let states: Vec<ShardState> = (0..db.num_relations())
            .map(|i| {
                let shard = db.shard(RelId(i));
                ShardState {
                    epoch: shard.epoch(),
                    cells: shard.table().rows().flatten().copied().collect(),
                    indexes: if shard.num_indexes() > 0 {
                        vec![(vec![0], vec![1])]
                    } else {
                        vec![]
                    },
                }
            })
            .collect();
        let restored = Database::restore(cat, (*db.symbols()).clone(), states, db.epoch()).unwrap();

        assert_eq!(restored.epoch(), db.epoch());
        for i in 0..db.num_relations() {
            assert_eq!(restored.epoch_of(RelId(i)), db.epoch_of(RelId(i)));
            let (a_rows, b_rows): (Vec<_>, Vec<_>) = (
                db.value_rows(RelId(i)).collect(),
                restored.value_rows(RelId(i)).collect(),
            );
            assert_eq!(a_rows, b_rows, "relation {i} rows");
        }
        let key = restored.symbols().try_encode_row(&[Value::int(1)]).unwrap();
        let idx = restored.index_for(a.constraint(cid)).unwrap();
        assert_eq!(idx.witnesses(&key).len(), 2);
    }

    #[test]
    fn restore_rejects_malformed_parts() {
        let cat = photos();
        assert!(Database::restore(cat.clone(), SymbolTable::new(), vec![], 0).is_err());
        let mut states = vec![ShardState::default(); 3];
        states[0].cells = vec![Cell::NULL]; // in_album has arity 2
        assert!(Database::restore(cat.clone(), SymbolTable::new(), states, 0).is_err());
        let mut states = vec![ShardState::default(); 3];
        states[1].epoch = 5; // beyond the restored commit counter
        assert!(Database::restore(cat, SymbolTable::new(), states, 4).is_err());
    }

    #[test]
    fn maintained_insert_checks_arity() {
        let mut db = Database::new(photos());
        assert!(db.insert_maintained("friends", &[Value::int(1)]).is_err());
        assert!(db
            .insert_maintained("ghost", &[Value::int(1), Value::int(2)])
            .is_err());
    }

    #[test]
    fn maintained_insert_interns_new_strings() {
        let cat = photos();
        let mut a = AccessSchema::new(cat.clone());
        let cid = a.add("friends", &["user_id"], &["friend_id"], 10).unwrap();
        let mut db = Database::new(cat);
        db.build_indexes(&a);
        db.insert_maintained(
            "friends",
            &[Value::str("new-user"), Value::str("new-friend")],
        )
        .unwrap();
        let key = db
            .symbols()
            .try_encode_row(&[Value::str("new-user")])
            .expect("string interned by the maintained insert");
        assert_eq!(
            db.index_for(a.constraint(cid))
                .unwrap()
                .witnesses(&key)
                .len(),
            1
        );
    }
}
