//! Hash indices implementing the retrieval side of access constraints.
//!
//! The index mandated by `X → (Y, N)` must, given an `X`-value `ā`, return a
//! witness set `D' ⊆ D` with `|D'| ≤ N` covering all distinct `Y`-values
//! `D_Y(X = ā)`, at a cost measured in `N` (Section 2). [`HashIndex`] shows
//! two posting lists per key:
//!
//! * **witnesses** — one row id per distinct `Y`-projection: what the
//!   bounded executor (`evalDQ`) reads; its size is what access constraints
//!   bound;
//! * **all** — every matching row id: what a conventional DBMS reads through
//!   a secondary index (it fetches whole rows, duplicates included — the
//!   behaviour the paper observed in MySQL's logs), used by the baseline.
//!
//! Two lists are the *view*, not the storage. While every row of a key has
//! its own `Y`-projection the two lists are the same list, and a
//! [`Postings`] entry keeps it once — inline in the entry up to
//! `INLINE_RIDS` (7) row ids, so a key with one row allocates nothing. On the
//! TPCH instance 99.96% of the keys never leave that state. A separate
//! witness list, and the set of `Y`-projections that decides membership in
//! it, exist only for a key that has seen the same `Y`-projection twice (the
//! `X = ∅` bounded-domain indices, a few hundred `partsupp` keys) or whose
//! list has grown past `SCAN_LIMIT` (32 rows); below the limit "is this
//! `Y`-projection new?" is answered by comparing `Y` cells with the rows
//! already listed, read from the [`Table`].
//!
//! Keys are interned [`Cell`]s stored at their width: a one-column `X`
//! keys the hash table by a bare `Cell` (a 48-byte entry), a two-column `X`
//! by a `[Cell; 2]` (56 bytes), and only `X = ∅` and `|X| ≥ 3` by a
//! [`RowBuf`] (80 bytes). On TPCH every key-heavy index is one or two
//! columns wide. `Y`-projections are `RowBuf`s. Either way probing hashes a
//! handful of `u64` words — never string bytes — regardless of the value
//! types in the indexed columns, and the width is private to this module:
//! every probe and maintenance call takes the key as a `&[Cell]`.
//!
//! An index is built one way, [`HashIndex::build`]: every row's key
//! extracted and sorted, the hash table allocated at its final size, and
//! each key's rows emitted as one entry (`build_many` runs a batch of
//! these on the host's cores). From then on a write maintains it one row
//! at a time ([`HashIndex::insert_row`], [`HashIndex::remove_row`]), and
//! the two give the same postings in the same order.

use crate::table::Table;
use bcq_core::fx::{FxHashMap, FxHashSet};
use bcq_core::prelude::{Cell, RowBuf};
use std::hash::Hash;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Row ids a [`Postings`] entry holds without a heap block. Seven `u32`s, a
/// length byte and the variant tag fill the 32 bytes the `Vec<u32>` spill
/// variant (24 bytes, 8-aligned, plus the tag) occupies anyway, so the
/// inline form costs nothing extra; on TPCH it covers every key of the key
/// indices (one row) and every `l_orderkey` group (1–7 lineitems).
pub(crate) const INLINE_RIDS: usize = 7;

/// Longest row-id list for which a new row's `Y`-projection is checked
/// against the listed rows themselves rather than against a per-key hash
/// set of projections.
///
/// Measured with [`HashIndex::insert_row`] on 4,096 keys of `n` rows each,
/// interleaved through the table so that every listed row is a cache line
/// of its own (2 cores, this sandbox; ns per insert, scan / set). One `Y`
/// column — n = 4: 79 / 259, 10: 167 / 356, 20: 214 / 327, 40: 534 / 569,
/// 60: 782 / 707, 100: 1,344 / 884; eight `Y` columns, a heap `RowBuf`
/// per stored projection — 10: 293 / 408, 20: 456 / 467, 40: 798 / 835,
/// 60: 1,600 / 1,263. The scan wins up to about 40 rows whatever the
/// width, and below that the set costs ≈ 3 KB for a 32-row key against
/// 168 B for the bare list; 32 is the power of two under the crossing. The
/// benchmark's data sits on both sides: `orders`' `o_custkey` keys list
/// ≈ 10 rows and its key indices one, its `∅`-keyed domains list every
/// row of the relation.
pub(crate) const SCAN_LIMIT: usize = 32;

/// A row-id list: inline up to [`INLINE_RIDS`], a `Vec` beyond.
#[derive(Debug, Clone)]
enum Rids {
    Inline { len: u8, rids: [u32; INLINE_RIDS] },
    Heap(Vec<u32>),
}

impl Default for Rids {
    fn default() -> Rids {
        Rids::Inline {
            len: 0,
            rids: [0; INLINE_RIDS],
        }
    }
}

impl Rids {
    fn with_capacity(n: usize) -> Rids {
        if n <= INLINE_RIDS {
            Rids::default()
        } else {
            Rids::Heap(Vec::with_capacity(n))
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Rids::Inline { len, rids } => &rids[..usize::from(*len)],
            Rids::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            Rids::Inline { len, rids } => &mut rids[..usize::from(*len)],
            Rids::Heap(v) => v,
        }
    }

    fn push(&mut self, rid: u32) {
        match self {
            Rids::Inline { len, rids } => {
                if usize::from(*len) < INLINE_RIDS {
                    rids[usize::from(*len)] = rid;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_RIDS * 2);
                    v.extend_from_slice(&rids[..]);
                    v.push(rid);
                    *self = Rids::Heap(v);
                }
            }
            Rids::Heap(v) => v.push(rid),
        }
    }

    /// Removes the id at `pos`, keeping the order of the rest; a spilled
    /// list that fits inline again gives its heap block back.
    fn remove(&mut self, pos: usize) {
        match self {
            Rids::Inline { len, rids } => {
                rids.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
            }
            Rids::Heap(v) => {
                v.remove(pos);
                if v.len() <= INLINE_RIDS {
                    let mut rids = [0; INLINE_RIDS];
                    rids[..v.len()].copy_from_slice(v);
                    *self = Rids::Inline {
                        len: v.len() as u8,
                        rids,
                    };
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Rids::Inline { .. } => 0,
            Rids::Heap(v) => v.capacity() * size_of::<u32>(),
        }
    }
}

/// What a key keeps once its witness list is no longer its row-id list.
#[derive(Debug, Clone)]
struct Dups {
    /// One row per distinct `Y`-projection, in first-seen order.
    witnesses: Vec<u32>,
    /// The distinct `Y`-projections behind `witnesses`.
    y_seen: FxHashSet<RowBuf>,
}

/// Posting lists for one `X`-value.
#[derive(Debug, Clone, Default)]
pub struct Postings {
    /// Every row with this key, in insertion order — and, while `dups` is
    /// `None`, the witness list as well: every listed row has a
    /// `Y`-projection of its own.
    rids: Rids,
    /// Present once the key has seen a `Y`-projection twice or its list
    /// has grown past [`SCAN_LIMIT`]; stays until the key is dropped.
    dups: Option<Box<Dups>>,
}

impl Postings {
    fn with_capacity(n: usize) -> Postings {
        Postings {
            rids: Rids::with_capacity(n),
            dups: None,
        }
    }

    /// Every row with this key, in insertion order.
    #[inline]
    pub fn all(&self) -> &[u32] {
        self.rids.as_slice()
    }

    /// One row per distinct `Y`-projection, in first-seen order.
    #[inline]
    pub fn witnesses(&self) -> &[u32] {
        match &self.dups {
            None => self.rids.as_slice(),
            Some(d) => &d.witnesses,
        }
    }

    /// Lists `rid`, whose cells are `row`, and promotes it to witness iff
    /// its projection on `y` is new for this key — the one routine the
    /// build and the maintained insert go through. `table` must hold the
    /// rows already listed.
    fn add(&mut self, rid: u32, row: &[Cell], y: &[usize], table: &Table) {
        if self.dups.is_none() {
            let listed = self.rids.as_slice();
            if listed.len() < SCAN_LIMIT
                && !listed
                    .iter()
                    .any(|&r| same_projection(table.row(r as usize), row, y))
            {
                self.rids.push(rid);
                return;
            }
            self.dups = Some(Box::new(Dups {
                witnesses: listed.to_vec(),
                y_seen: listed
                    .iter()
                    .map(|&r| project(table.row(r as usize), y))
                    .collect(),
            }));
        }
        self.rids.push(rid);
        let dups = self.dups.as_mut().expect("set above");
        if dups.y_seen.insert(project(row, y)) {
            dups.witnesses.push(rid);
        }
    }

    /// Drops `rid`, whose cells are `row`, from the lists; `false` if it is
    /// not listed. If `rid` was the witness of its `Y`-projection another
    /// listed row with the same projection (looked up in `table`, which
    /// still holds `rid`) takes its place, and if none is left the
    /// projection leaves the witness set.
    fn remove(&mut self, rid: u32, row: &[Cell], y: &[usize], table: &Table) -> bool {
        let Some(pos) = self.all().iter().position(|&r| r == rid) else {
            return false;
        };
        self.rids.remove(pos);
        // With no `dups` the list just shortened *is* the witness list: the
        // row's `Y`-projection was its own and left with it.
        if let Some(dups) = &mut self.dups {
            if let Some(wpos) = dups.witnesses.iter().position(|&r| r == rid) {
                // Promote another copy of the same Y-projection, if one
                // survives.
                let replacement = self
                    .rids
                    .as_slice()
                    .iter()
                    .copied()
                    .find(|&r| same_projection(table.row(r as usize), row, y));
                match replacement {
                    Some(r) => dups.witnesses[wpos] = r,
                    None => {
                        dups.witnesses.remove(wpos);
                        dups.y_seen.remove(&project(row, y));
                    }
                }
            }
        }
        true
    }

    /// Renames row `old_rid` to `new_rid` in both lists.
    fn repoint(&mut self, old_rid: u32, new_rid: u32) {
        let witnesses = self.dups.iter_mut().flat_map(|d| d.witnesses.iter_mut());
        for r in self.rids.as_mut_slice().iter_mut().chain(witnesses) {
            if *r == old_rid {
                *r = new_rid;
            }
        }
    }

    /// What [`HashIndex::book`] keeps totals of: the size of the witness
    /// set and the heap bytes behind this entry, where one stored
    /// `Y`-projection owns `y_spill` of them.
    fn footprint(&self, y_spill: usize) -> (usize, usize) {
        let heap = self.rids.heap_bytes()
            + self.dups.as_ref().map_or(0, |d| {
                size_of::<Dups>()
                    + d.witnesses.capacity() * size_of::<u32>()
                    + hash_table_bytes(d.y_seen.capacity(), size_of::<RowBuf>())
                    + d.y_seen.len() * y_spill
            });
        (self.witnesses().len(), heap)
    }
}

fn project(row: &[Cell], cols: &[usize]) -> RowBuf {
    cols.iter().map(|&c| row[c]).collect()
}

fn same_projection(a: &[Cell], b: &[Cell], cols: &[usize]) -> bool {
    cols.iter().all(|&c| a[c] == b[c])
}

/// Bytes of a std hash table with room for `capacity` entries of `entry`
/// bytes: eight buckets per seven entries, one control byte per bucket.
fn hash_table_bytes(capacity: usize, entry: usize) -> usize {
    (capacity * 8).div_ceil(7) * (entry + 1)
}

/// An `X`-value as one [`KeyMap`] variant stores it.
trait Key: Hash + Eq + Sized {
    /// The key of `row` on columns `x` (as many as this type holds).
    fn project(row: &[Cell], x: &[usize]) -> Self;
    /// The key's cells, in `X` order.
    fn cells(&self) -> &[Cell];
    /// `map`'s entry for `key`; `None` as well for a key of another width.
    fn find<'m>(map: &'m FxHashMap<Self, Postings>, key: &[Cell]) -> Option<&'m Postings>;
}

impl Key for Cell {
    fn project(row: &[Cell], x: &[usize]) -> Cell {
        row[x[0]]
    }
    fn cells(&self) -> &[Cell] {
        std::slice::from_ref(self)
    }
    fn find<'m>(map: &'m FxHashMap<Cell, Postings>, key: &[Cell]) -> Option<&'m Postings> {
        match key {
            [cell] => map.get(cell),
            _ => None,
        }
    }
}

impl Key for [Cell; 2] {
    fn project(row: &[Cell], x: &[usize]) -> [Cell; 2] {
        [row[x[0]], row[x[1]]]
    }
    fn cells(&self) -> &[Cell] {
        self
    }
    fn find<'m>(map: &'m FxHashMap<[Cell; 2], Postings>, key: &[Cell]) -> Option<&'m Postings> {
        map.get(<&[Cell; 2]>::try_from(key).ok()?)
    }
}

impl Key for RowBuf {
    fn project(row: &[Cell], x: &[usize]) -> RowBuf {
        project(row, x)
    }
    fn cells(&self) -> &[Cell] {
        self
    }
    fn find<'m>(map: &'m FxHashMap<RowBuf, Postings>, key: &[Cell]) -> Option<&'m Postings> {
        map.get(key)
    }
}

/// An index's hash table, keyed at the width of its `X`.
#[derive(Debug, Clone)]
enum KeyMap {
    One(FxHashMap<Cell, Postings>),
    Two(FxHashMap<[Cell; 2], Postings>),
    /// `X = ∅` (one key at most) and `|X| ≥ 3`.
    Row(FxHashMap<RowBuf, Postings>),
}

/// Evaluates `$body` with `$m` bound to the hash table of `$map`, whatever
/// its key type ([`Key`] methods infer it from the table).
macro_rules! each_map {
    ($map:expr, $m:ident => $body:expr) => {
        match $map {
            KeyMap::One($m) => $body,
            KeyMap::Two($m) => $body,
            KeyMap::Row($m) => $body,
        }
    };
}

/// `row`'s key on columns `x`, of the type `map` is keyed by.
fn key_in<K: Key>(_map: &FxHashMap<K, Postings>, row: &[Cell], x: &[usize]) -> K {
    K::project(row, x)
}

/// Bytes of `map`'s table at its current capacity.
fn table_bytes<K>(map: &FxHashMap<K, Postings>) -> usize {
    hash_table_bytes(map.capacity(), size_of::<(K, Postings)>())
}

/// `map`'s entries with their keys as cells.
fn entries_of<K: Key>(
    map: Option<&FxHashMap<K, Postings>>,
) -> impl Iterator<Item = (&[Cell], &Postings)> {
    map.into_iter().flatten().map(|(k, p)| (k.cells(), p))
}

/// A hash index on key columns `x` exposing value columns `y`. Its hash
/// table stores a key at the width of `x` (see the module doc); callers
/// see every key as a `&[Cell]`.
#[derive(Debug, Clone)]
pub struct HashIndex {
    x: Vec<usize>,
    y: Vec<usize>,
    map: KeyMap,
    max_witnesses: usize,
    /// `witness_sizes[n]` counts the keys whose witness set holds `n` rows
    /// (`n ≥ 1`), so `max_witnesses` steps down without a walk over keys.
    witness_sizes: Vec<u32>,
    /// Heap bytes behind the entries (the sum of [`Postings::footprint`]'s
    /// second half), kept as they change so [`Self::approx_bytes`] needs no
    /// walk either.
    entry_heap_bytes: usize,
    /// Heap bytes one key / one `Y`-projection owns (0 for a key stored
    /// as cells and for a `RowBuf` that fits inline).
    key_spill: usize,
    y_spill: usize,
}

static EMPTY: &[u32] = &[];

impl HashIndex {
    fn empty(x: &[usize], y: &[usize]) -> HashIndex {
        let spill = |width| std::iter::repeat_n(Cell::NULL, width).collect::<RowBuf>();
        HashIndex {
            x: x.to_vec(),
            y: y.to_vec(),
            map: match x.len() {
                1 => KeyMap::One(FxHashMap::default()),
                2 => KeyMap::Two(FxHashMap::default()),
                _ => KeyMap::Row(FxHashMap::default()),
            },
            max_witnesses: 0,
            witness_sizes: Vec::new(),
            entry_heap_bytes: 0,
            key_spill: spill(x.len()).heap_bytes(),
            y_spill: spill(y.len()).heap_bytes(),
        }
    }

    /// Builds the index for key columns `x` and value columns `y` (both
    /// sorted column index lists, as stored in an
    /// [`bcq_core::access::AccessConstraint`]): keys extracted and sorted
    /// (`SortedKeys::extract`: one sequential table pass, one sort), one
    /// table allocation at its final size instead of a rehash per doubling,
    /// then each key group emitted in one shot. Groups come out in
    /// ascending-rid order, so the postings — `all`, witness promotion
    /// order, everything — are what [`Self::insert_row`] over the rows in
    /// rid order gives. The batch builder (`build_many`) runs the same three
    /// steps with the first and the last on a worker thread.
    pub fn build(table: &Table, x: &[usize], y: &[usize]) -> HashIndex {
        let sorted = SortedKeys::extract(table, x);
        let mut idx = HashIndex::with_keys(x, y, sorted.num_keys());
        idx.fill(table, &sorted);
        idx
    }

    /// An empty index whose hash table has room for `keys` entries.
    fn with_keys(x: &[usize], y: &[usize], keys: usize) -> HashIndex {
        let mut idx = HashIndex::empty(x, y);
        each_map!(&mut idx.map, m => m.reserve(keys));
        idx
    }

    /// Emits every key group of `sorted` (extracted from `table` on this
    /// index's key columns) into the map.
    fn fill(&mut self, table: &Table, sorted: &SortedKeys) {
        match sorted {
            SortedKeys::All(0) => {}
            SortedKeys::All(n) => self.emit_group(table, &(0..*n).collect::<Vec<u32>>()),
            SortedKeys::One(pairs) => self.emit_groups(table, pairs),
            SortedKeys::Two(pairs) => self.emit_groups(table, pairs),
            SortedKeys::Wide(pairs) => self.emit_groups(table, pairs),
        }
    }

    fn emit_groups<K: PartialEq>(&mut self, table: &Table, pairs: &[(K, u32)]) {
        let mut group: Vec<u32> = Vec::new();
        for pairs in key_groups(pairs) {
            group.clear();
            group.extend(pairs.iter().map(|&(_, rid)| rid));
            self.emit_group(table, &group);
        }
    }

    /// Emits one key group (`rids` ascending, all sharing a key) as a
    /// postings entry, promoting first-seen `Y`-projections to witnesses
    /// exactly as [`Self::insert_row`] does.
    fn emit_group(&mut self, table: &Table, rids: &[u32]) {
        let mut postings = Postings::with_capacity(rids.len());
        for &rid in rids {
            postings.add(rid, table.row(rid as usize), &self.y, table);
        }
        self.book((0, 0), postings.footprint(self.y_spill));
        let row = table.row(rids[0] as usize);
        each_map!(&mut self.map, m => m.insert(Key::project(row, &self.x), postings));
    }

    /// Key columns.
    pub fn x(&self) -> &[usize] {
        &self.x
    }

    /// Value columns.
    pub fn y(&self) -> &[usize] {
        &self.y
    }

    /// Witness rows for `key`: at most one per distinct `Y`-value.
    pub fn witnesses(&self, key: &[Cell]) -> &[u32] {
        self.postings(key).map_or(EMPTY, Postings::witnesses)
    }

    /// All rows matching `key` (what a conventional index scan returns).
    pub fn all(&self, key: &[Cell]) -> &[u32] {
        self.postings(key).map_or(EMPTY, Postings::all)
    }

    fn postings(&self, key: &[Cell]) -> Option<&Postings> {
        each_map!(&self.map, m => Key::find(m, key))
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        each_map!(&self.map, m => m.len())
    }

    /// The largest witness set across keys — the smallest `N` for which the
    /// indexed table satisfies `X → (Y, N)`. Used by constraint validation
    /// and by constraint *discovery* from data.
    pub fn max_witnesses(&self) -> usize {
        self.max_witnesses
    }

    /// Resident bytes of the index, to within the allocator's rounding: the
    /// hash table at its current capacity, with entries of the size its key
    /// width gives (48, 56 or 80 bytes), plus what keys and entries own on
    /// the heap. O(1) — nothing is walked.
    pub fn approx_bytes(&self) -> usize {
        each_map!(&self.map, m => table_bytes(m))
            + self.num_keys() * self.key_spill
            + self.entry_heap_bytes
            + self.witness_sizes.capacity() * size_of::<u32>()
    }

    /// Iterates over `(key, postings)` pairs (unspecified order).
    pub fn entries(&self) -> impl Iterator<Item = (&[Cell], &Postings)> + '_ {
        let (one, two, row) = match &self.map {
            KeyMap::One(m) => (Some(m), None, None),
            KeyMap::Two(m) => (None, Some(m), None),
            KeyMap::Row(m) => (None, None, Some(m)),
        };
        entries_of(one)
            .chain(entries_of(two))
            .chain(entries_of(row))
    }

    /// Books one entry's change of [`Postings::footprint`]; `(0, 0)` stands
    /// for a key that is not (or no longer) there.
    fn book(&mut self, before: (usize, usize), now: (usize, usize)) {
        self.entry_heap_bytes = self.entry_heap_bytes - before.1 + now.1;
        let (before, now) = (before.0, now.0);
        if now == before {
            return;
        }
        if before > 0 {
            self.witness_sizes[before] -= 1;
        }
        if now > 0 {
            if self.witness_sizes.len() <= now {
                self.witness_sizes.resize(now + 1, 0);
            }
            self.witness_sizes[now] += 1;
            self.max_witnesses = self.max_witnesses.max(now);
        }
        while self.max_witnesses > 0 && self.witness_sizes[self.max_witnesses] == 0 {
            self.max_witnesses -= 1;
        }
    }

    /// Maintains the index for a newly appended row: `rid` is its id in
    /// `table`, the table the index was built from, which already holds
    /// it. O(|X| + |Y|) amortized for a key past `SCAN_LIMIT` or with a
    /// repeated `Y`-projection, at most `SCAN_LIMIT · |Y|` cell compares
    /// otherwise.
    ///
    /// Witness semantics are preserved: the row becomes a witness only if
    /// its `Y`-projection is new for its key.
    pub fn insert_row(&mut self, rid: u32, row: &[Cell], table: &Table) {
        let (x, y, y_spill) = (&self.x, &self.y, self.y_spill);
        let (before, now) = each_map!(&mut self.map, m => {
            let entry = m.entry(Key::project(row, x)).or_default();
            let before = entry.footprint(y_spill);
            entry.add(rid, row, y, table);
            (before, entry.footprint(y_spill))
        });
        self.book(before, now);
    }

    /// Maintains the index for a row about to be removed: drops `rid` from
    /// its key's posting lists. If `rid` was the witness of its
    /// `Y`-projection, another row with the same `(X, Y)` (looked up in
    /// `table`, which must still contain all rows including `rid`) is
    /// promoted to witness; if none exists, the `Y`-value is gone and the
    /// witness set shrinks — witness coverage of all distinct remaining
    /// `Y`-values is preserved either way.
    ///
    /// Cost: O(|postings of the key|).
    pub fn remove_row(&mut self, rid: u32, row: &[Cell], table: &Table) {
        let (x, y, y_spill) = (&self.x, &self.y, self.y_spill);
        let (before, now) = each_map!(&mut self.map, m => {
            let key = key_in(m, row, x);
            let Some(entry) = m.get_mut(&key) else {
                return;
            };
            let before = entry.footprint(y_spill);
            if !entry.remove(rid, row, y, table) {
                return;
            }
            if entry.all().is_empty() {
                m.remove(&key);
                (before, (0, 0))
            } else {
                (before, entry.footprint(y_spill))
            }
        });
        self.book(before, now);
    }

    /// Re-points the posting entries of the row whose id changed from
    /// `old_rid` to `new_rid` (the table's [`Table::swap_remove`] moved it);
    /// `row` is its cell content. O(|postings of its key|).
    pub fn reindex_row(&mut self, old_rid: u32, new_rid: u32, row: &[Cell]) {
        let x = &self.x;
        each_map!(&mut self.map, m => {
            if let Some(entry) = m.get_mut(&key_in(m, row, x)) {
                entry.repoint(old_rid, new_rid);
            }
        });
    }
}

/// The first half of a build, the half that needs no hash table:
/// each row's key extracted **once** into a contiguous `(key, rid)` pair
/// vector with one sequential table pass, then sorted (every comparison
/// touches only the pair being moved — no random row fetches through the
/// rid indirection, which is what made the naive rid-sort fall off a cliff
/// once the table outgrew the cache). Ties sort by rid, so each key's rows
/// come out in ascending-rid order.
enum SortedKeys {
    /// `X = ∅` (bounded-domain constraints) needs no sort at all: all `n`
    /// rows are one group in rid order already.
    All(u32),
    /// `|X| = 1` and `|X| = 2`: the key as the index stores it, beside the
    /// rid — 16 and 24 bytes a pair against [`Self::Wide`]'s 48 (6.1 MB
    /// instead of 18.4 MB of transient for `lineitem`'s `l_orderkey` at
    /// SF 32). Cells and cell arrays sort as the `RowBuf`s of the same cells
    /// do, so the groups, and the order they are emitted in, are the same
    /// at every width.
    One(Vec<(Cell, u32)>),
    Two(Vec<([Cell; 2], u32)>),
    /// `|X| ≥ 3`.
    Wide(Vec<(RowBuf, u32)>),
}

impl SortedKeys {
    fn extract(table: &Table, x: &[usize]) -> SortedKeys {
        let n = u32::try_from(table.len()).expect("table too large");
        match *x {
            [] => SortedKeys::All(n),
            [_] => SortedKeys::One(sorted_pairs(table, |row| Key::project(row, x))),
            [_, _] => SortedKeys::Two(sorted_pairs(table, |row| Key::project(row, x))),
            _ => SortedKeys::Wide(sorted_pairs(table, |row| Key::project(row, x))),
        }
    }

    /// Distinct keys: what the index's hash table must have room for.
    fn num_keys(&self) -> usize {
        match self {
            SortedKeys::All(n) => usize::from(*n > 0),
            SortedKeys::One(pairs) => key_groups(pairs).count(),
            SortedKeys::Two(pairs) => key_groups(pairs).count(),
            SortedKeys::Wide(pairs) => key_groups(pairs).count(),
        }
    }
}

fn sorted_pairs<K: Ord>(table: &Table, key: impl Fn(&[Cell]) -> K) -> Vec<(K, u32)> {
    let mut pairs: Vec<(K, u32)> = table
        .rows()
        .enumerate()
        .map(|(rid, row)| (key(row), rid as u32))
        .collect();
    pairs.sort_unstable();
    pairs
}

fn key_groups<K: PartialEq>(pairs: &[(K, u32)]) -> impl Iterator<Item = &[(K, u32)]> {
    pairs.chunk_by(|(a, _), (b, _)| a == b)
}

/// One index to build: the table, key columns `x`, value columns `y`.
pub(crate) type BuildJob<'a> = (&'a Table, &'a [usize], &'a [usize]);

/// The worker count every caller of [`build_many`] outside a test passes:
/// this host's cores.
pub(crate) fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds one index per job and returns them in job order — the builder
/// behind `Database::build_indexes` and log replay.
/// Each index is exactly what [`HashIndex::build`] gives for its job. Runs
/// on at most `workers` threads, and is the serial loop when that or the
/// number of jobs is at most 1; the count is a parameter so tests can
/// compare worker counts, not a knob.
///
/// Builds are independent (each reads a `&Table` and yields one index) and
/// their time is memory latency, not work — a build is extract 12%, sort
/// 2%, hash-table fill 80%, ≈ 300–380 ns per key of random writes into a
/// 10–42 MB table — which is what a second core hides. Jobs go to the
/// workers largest table first, so the small ones fill in behind the
/// large.
///
/// **Every hash table is allocated by the calling thread; workers only
/// extract, sort, count keys and fill.** A worker that allocates the table
/// it fills strands that memory in its own allocator arena once the
/// database is dropped or the server restarted, and the next load cannot
/// reuse it. Measured on the benchmark (2 cores, this sandbox, alternating
/// parent/change pairs, `--seconds 10 --trace 0`; seconds and MB, lowest –
/// highest run; the two middle rows are prototypes that were not kept):
///
/// | design | `setup_s` `embedded-join` | `peak_rss_mb` `embedded-join` | `peak_rss_mb` `net-point` |
/// |---|---|---|---|
/// | serial loop (16 + 7 runs) | 1.30 – 1.55 and one 2.33, median 1.38 | 431 – 442, median 435 | 174 – 200, median 180 |
/// | workers build whole indices, `build_indexes` only | 0.90 – 1.00 | 508 – 524 (+16…19%) | — |
/// | the same plus snapshot restore (since removed) | 0.89 | 434 – 442 | 209 – 251 (+14…39%); 149 – 151 with the C library held to one arena |
/// | this thread allocates, workers fill (16 + 7 runs) | 0.78 – 0.94, median 0.89 | 434 – 442, median 440 (+1%) | 172 – 196, median 183 (+2%) |
///
/// So do not move the `with_keys` call into the worker to save the round
/// trip: that saves two channel messages per index and costs 15–40% of
/// resident memory.
///
/// One job is not split: `lineitem`'s `(l_orderkey, l_linenumber)` build is
/// 181 of the 697 ms the 61 TPCH builds take at SF 32, so largest-first
/// scheduling on two cores ends at 338 ms against an ideal 328, and no
/// number of cores takes the batch below that one build — a 3.8× cap.
/// Splitting it by key-hash range is what a wider host would need.
pub(crate) fn build_many(jobs: &[BuildJob<'_>], workers: usize) -> Vec<HashIndex> {
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs
            .iter()
            .map(|&(table, x, y)| HashIndex::build(table, x, y))
            .collect();
    }
    let mut queue: Vec<usize> = (0..jobs.len()).collect();
    queue.sort_by_key(|&j| std::cmp::Reverse(jobs[j].0.len()));
    // A ticket counter: it publishes nothing but which job is taken.
    let next = AtomicUsize::new(0);
    let (ask, asked) = mpsc::channel::<(usize, usize, mpsc::Sender<HashIndex>)>();
    let mut built: Vec<Option<HashIndex>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (ask, next, queue) = (ask.clone(), &next, &queue);
                scope.spawn(move || {
                    let mut filled = Vec::new();
                    while let Some(&job) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (table, x, _) = jobs[job];
                        let sorted = SortedKeys::extract(table, x);
                        let (give, given) = mpsc::channel();
                        ask.send((job, sorted.num_keys(), give))
                            .expect("the caller serves until every worker is done");
                        let mut idx: HashIndex = given.recv().expect("the caller answers");
                        idx.fill(table, &sorted);
                        filled.push((job, idx));
                    }
                    filled
                })
            })
            .collect();
        drop(ask);
        for (job, keys, give) in asked {
            let (_, x, y) = jobs[job];
            // A worker that died is reported by its `join` below.
            let _ = give.send(HashIndex::with_keys(x, y, keys));
        }
        for handle in handles {
            match handle.join() {
                Ok(filled) => filled
                    .into_iter()
                    .for_each(|(job, idx)| built[job] = Some(idx)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    built
        .into_iter()
        .map(|idx| idx.expect("every job was built"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::cells;
    use bcq_core::prelude::{RelId, SymbolTable, Value};

    fn table_and_symbols() -> (Table, SymbolTable) {
        // (user, friend): user 1 has friends a, a, b (duplicate row); user 2
        // has friend c.
        let mut symbols = SymbolTable::new();
        let mut t = Table::new(RelId(0), 2);
        for (u, f) in [(1, "a"), (1, "a"), (1, "b"), (2, "c")] {
            t.push(&symbols.encode_row(&[Value::int(u), Value::str(f)]));
        }
        (t, symbols)
    }

    fn key(symbols: &SymbolTable, vals: &[Value]) -> RowBuf {
        symbols.try_encode_row(vals).expect("probe values interned")
    }

    #[test]
    fn witnesses_dedup_by_y() {
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        let w = idx.witnesses(&key(&s, &[Value::int(1)]));
        assert_eq!(w, &[0, 2]); // rows 0 ("a") and 2 ("b"); row 1 is a dup
        let all = idx.all(&key(&s, &[Value::int(1)]));
        assert_eq!(all, &[0, 1, 2]);
    }

    #[test]
    fn witnesses_cover_all_distinct_y() {
        // Contract: the witness rows' Y-projections must equal the set of
        // distinct Y-projections across the full posting list.
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        for (k, postings) in idx.entries() {
            let witness_y: FxHashSet<RowBuf> = postings
                .witnesses()
                .iter()
                .map(|&rid| project(t.row(rid as usize), idx.y()))
                .collect();
            let all_y: FxHashSet<RowBuf> = postings
                .all()
                .iter()
                .map(|&rid| project(t.row(rid as usize), idx.y()))
                .collect();
            assert_eq!(witness_y, all_y, "key {:?}", s.decode_row(k));
            assert_eq!(postings.witnesses().len(), witness_y.len(), "no duplicates");
        }
    }

    #[test]
    fn missing_key_is_empty() {
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        assert!(idx.witnesses(&key(&s, &[Value::int(99)])).is_empty());
        assert!(idx.all(&key(&s, &[Value::int(99)])).is_empty());
        // A never-interned string cannot even produce a key.
        assert!(s.try_encode_row(&[Value::str("ghost")]).is_none());
    }

    #[test]
    fn max_witnesses_reports_tightest_n() {
        let (t, _) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        assert_eq!(idx.max_witnesses(), 2); // user 1 has two distinct friends
        assert_eq!(idx.num_keys(), 2);
    }

    #[test]
    fn empty_key_columns_group_everything() {
        // Bounded-domain style: X = ∅ puts all rows under one key.
        let (t, _) = table_and_symbols();
        let idx = HashIndex::build(&t, &[], &[1]);
        let w = idx.witnesses(&[]);
        assert_eq!(w.len(), 3); // distinct friends: a, b, c
        assert_eq!(idx.all(&[]).len(), 4);
        assert_eq!(idx.num_keys(), 1);
    }

    #[test]
    fn multi_column_keys() {
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0, 1], &[0]);
        // (1, "a") appears twice but y-projection (just col 0 here) dedups
        // to one witness.
        let k = key(&s, &[Value::int(1), Value::str("a")]);
        assert_eq!(idx.witnesses(&k).len(), 1);
        assert_eq!(idx.all(&k).len(), 2);
    }

    #[test]
    fn remove_row_promotes_duplicate_witness() {
        // user 1 has friends a, a, b. Removing the witness copy of "a"
        // (row 0) must promote the duplicate (row 1), not lose the Y-value.
        let (t, s) = table_and_symbols();
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        let k = key(&s, &[Value::int(1)]);
        assert_eq!(idx.witnesses(&k), &[0, 2]);

        idx.remove_row(0, t.row(0), &t);
        assert_eq!(idx.all(&k), &[1, 2]);
        assert_eq!(idx.witnesses(&k), &[1, 2], "duplicate promoted");
        assert_eq!(idx.max_witnesses(), 2);

        // Removing the last copy of "a" retracts the Y-value.
        idx.remove_row(1, t.row(1), &t);
        assert_eq!(idx.witnesses(&k), &[2]);
        assert_eq!(idx.all(&k), &[2]);
        assert_eq!(idx.max_witnesses(), 1, "max recomputed after shrink");

        // Removing the final row of the key drops the key entirely.
        idx.remove_row(2, t.row(2), &t);
        assert!(idx.witnesses(&k).is_empty());
        assert_eq!(idx.num_keys(), 1); // user 2 remains
        assert_eq!(idx.max_witnesses(), 1);
    }

    #[test]
    fn remove_then_reindex_tracks_swap() {
        let (mut t, s) = table_and_symbols();
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        // Delete row 1 (the duplicate (1, "a")): row 3 moves into slot 1.
        let row1 = t.row(1).to_vec();
        idx.remove_row(1, &row1, &t);
        let moved_from = t.swap_remove(1).unwrap();
        assert_eq!(moved_from, 3);
        idx.reindex_row(3, 1, t.row(1));
        let k2 = key(&s, &[Value::int(2)]);
        assert_eq!(idx.witnesses(&k2), &[1], "moved row re-pointed");
        assert_eq!(idx.all(&k2), &[1]);
        // The untouched key is unchanged.
        let k1 = key(&s, &[Value::int(1)]);
        assert_eq!(idx.witnesses(&k1), &[0, 2]);
        assert_eq!(idx.all(&k1), &[0, 2]);
    }

    #[test]
    fn remove_missing_row_is_a_noop() {
        let (t, s) = table_and_symbols();
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        let before_keys = idx.num_keys();
        // A rid not in the postings of its key.
        idx.remove_row(99, t.row(0), &t);
        assert_eq!(idx.num_keys(), before_keys);
        assert_eq!(idx.witnesses(&key(&s, &[Value::int(1)])), &[0, 2]);
    }

    #[test]
    fn empty_table_index() {
        let t = Table::new(RelId(0), 2);
        let idx = HashIndex::build(&t, &[0], &[1]);
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(idx.max_witnesses(), 0);
    }

    /// One [`dump`] entry: raw key words, rids, witnesses.
    type DumpEntry = (Vec<u64>, Vec<u32>, Vec<u32>);

    /// Canonical comparable form: entries sorted by raw key words.
    fn dump(idx: &HashIndex) -> Vec<DumpEntry> {
        let mut d: Vec<_> = idx
            .entries()
            .map(|(k, p)| {
                (
                    k.iter().map(|c| c.raw()).collect(),
                    p.all().to_vec(),
                    p.witnesses().to_vec(),
                )
            })
            .collect();
        d.sort();
        d
    }

    #[test]
    fn build_is_indistinguishable_from_per_row_maintenance() {
        // A skewed bag: few keys, many duplicate rows and repeated
        // Y-values, plus nulls, strings and one unique column — every
        // posting and witness slot must come out bit-identical from the
        // build and from what a served insert does to the index, row by
        // row. The sizes cross `INLINE_RIDS`, `SCAN_LIMIT` and 8,192 rows.
        let mut symbols = SymbolTable::new();
        let mut state = 0x9E37u64;
        for rows in [0, 1, 7, 8, 32, 33, 8_191, 8_192, 10_000] {
            let mut t = Table::new(RelId(0), 4);
            for i in 0..rows {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = (state >> 33) % 7;
                let row = [
                    Value::int(k as i64),
                    if k == 3 {
                        Value::Null
                    } else {
                        Value::str(["p", "q", "r"][i % 3])
                    },
                    Value::int((state % 5) as i64),
                    Value::int(i as i64),
                ];
                t.push(&symbols.encode_row(&row));
            }
            for (x, y) in [
                (vec![], vec![3]),
                (vec![], vec![0, 1]),
                (vec![0], vec![1, 2]),
                (vec![3], vec![0]),
                (vec![2], vec![0]),
                (vec![0, 1], vec![2]),
                (vec![0, 1, 2], vec![1]),
            ] {
                let mut per_row = HashIndex::empty(&x, &y);
                for (rid, row) in t.rows().enumerate() {
                    per_row.insert_row(rid as u32, row, &t);
                }
                let built = HashIndex::build(&t, &x, &y);
                let at = format!("rows={rows} x={x:?} y={y:?}");
                assert_eq!(dump(&per_row), dump(&built), "{at}");
                assert_eq!(per_row.max_witnesses(), built.max_witnesses(), "{at}");
                assert_eq!(per_row.num_keys(), built.num_keys(), "{at}");
            }
        }
    }

    #[test]
    fn parallel_build_is_indistinguishable_from_serial() {
        // Three columns: a skewed key (some keys past the inline capacity
        // and the scan limit), a small domain (repeated `Y`-projections),
        // a near-unique value.
        let skewed = |rows: u64, seed: u64| {
            let mut t = Table::new(RelId(0), 3);
            let mut state = seed;
            for i in 0..rows {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = (state >> 33) % 1_500;
                let k = if k < 1_000 { k % 20 } else { k };
                t.push(&cells(&[
                    k as i64,
                    ((state >> 20) % 5) as i64,
                    (i / 2) as i64,
                ]));
            }
            t
        };
        let big = skewed(9_192, 0xBC0);
        let bigger = skewed(24_576, 0x5EED);
        let small = skewed(700, 7);
        let empty = Table::new(RelId(0), 3);
        let jobs: Vec<BuildJob<'_>> = vec![
            (&big, &[0], &[1]),
            (&small, &[0], &[1, 2]),
            (&bigger, &[0, 2], &[1]),
            (&big, &[], &[1]),
            (&big, &[2], &[0]),
            (&empty, &[0], &[1]),
            (&bigger, &[1], &[0, 2]),
            (&big, &[0, 1], &[2]),
            (&bigger, &[], &[0, 1]),
        ];
        // Map order included: same capacity, same insertion order.
        let in_map_order = |idx: &HashIndex| -> Vec<DumpEntry> {
            idx.entries()
                .map(|(k, p)| {
                    let key = k.iter().map(|c| c.raw()).collect();
                    (key, p.all().to_vec(), p.witnesses().to_vec())
                })
                .collect()
        };
        let alone: Vec<HashIndex> = jobs
            .iter()
            .map(|&(table, x, y)| HashIndex::build(table, x, y))
            .collect();
        assert!(alone[0].max_witnesses() == 5 && alone[3].num_keys() == 1);
        for workers in [1, 2, 4] {
            let batch = build_many(&jobs, workers);
            assert_eq!(batch.len(), jobs.len());
            for (job, (a, b)) in alone.iter().zip(&batch).enumerate() {
                assert_eq!((b.x(), b.y()), (jobs[job].1, jobs[job].2));
                assert_eq!(in_map_order(a), in_map_order(b), "job {job}");
                assert_eq!(a.num_keys(), b.num_keys(), "job {job}");
                assert_eq!(a.max_witnesses(), b.max_witnesses(), "job {job}");
                assert_eq!(a.approx_bytes(), b.approx_bytes(), "job {job}");
            }
        }
    }

    #[test]
    fn an_entry_is_forty_bytes_and_a_dup_free_key_keeps_one_list() {
        assert!(size_of::<Rids>() <= 32);
        assert!(size_of::<Postings>() <= 40);
        // A one- and a two-column key are stored as their cells.
        assert_eq!(size_of::<(Cell, Postings)>(), 48);
        assert_eq!(size_of::<([Cell; 2], Postings)>(), 56);
        // One key, SCAN_LIMIT rows of distinct Y: one list serves as both.
        let mut t = Table::new(RelId(0), 2);
        for i in 0..SCAN_LIMIT as i64 {
            t.push(&cells(&[7, i]));
        }
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        let p = idx.entries().next().unwrap().1;
        assert!(p.dups.is_none());
        assert_eq!(p.all(), p.witnesses());
        assert_eq!(p.all().len(), SCAN_LIMIT);
        // One more row crosses the scan limit: the lists part, the views
        // stay what they were.
        t.push(&cells(&[7, -1]));
        idx.insert_row(SCAN_LIMIT as u32, t.row(SCAN_LIMIT), &t);
        let p = idx.entries().next().unwrap().1;
        assert!(p.dups.is_some());
        assert_eq!(p.all(), p.witnesses());
        assert_eq!(idx.max_witnesses(), SCAN_LIMIT + 1);
    }

    #[test]
    fn max_witnesses_tracks_the_largest_key_through_refills() {
        // Keys 0..4 with Y drawn from a small domain; key 0 is driven to be
        // the largest, emptied, and refilled, over and over.
        let mut t = Table::new(RelId(0), 2);
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        let mut state = 0xBC0u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let check = |idx: &HashIndex, step: &str| {
            let scratch = idx.entries().map(|(_, p)| p.witnesses().len()).max();
            assert_eq!(idx.max_witnesses(), scratch.unwrap_or(0), "{step}");
        };
        let insert = |t: &mut Table, idx: &mut HashIndex, row: &[Cell]| {
            t.push(row);
            idx.insert_row(t.len() as u32 - 1, row, t);
        };
        let delete = |t: &mut Table, idx: &mut HashIndex, rid: usize| {
            let row = t.row(rid).to_vec();
            idx.remove_row(rid as u32, &row, t);
            if let Some(from) = t.swap_remove(rid) {
                idx.reindex_row(from as u32, rid as u32, t.row(rid));
            }
        };
        for round in 0..6 {
            for _ in 0..40 {
                let row = cells(&[next(4) as i64 + 1, next(6) as i64]);
                insert(&mut t, &mut idx, &row);
                check(&idx, "background insert");
            }
            // Fill key 0 past every other key (and past the scan limit on
            // odd rounds).
            let fill = if round % 2 == 0 { 12 } else { SCAN_LIMIT + 5 };
            for y in 0..fill as i64 {
                insert(&mut t, &mut idx, &cells(&[0, y]));
                check(&idx, "fill");
            }
            assert_eq!(idx.max_witnesses(), fill);
            // Empty it again, one row at a time.
            let zero = Cell::from_small_int(0).unwrap();
            while let Some(&rid) = idx.all(&[zero]).first() {
                delete(&mut t, &mut idx, rid as usize);
                check(&idx, "drain");
            }
            for _ in 0..10 {
                if !t.is_empty() {
                    let rid = next(t.len() as u64) as usize;
                    delete(&mut t, &mut idx, rid);
                    check(&idx, "background delete");
                }
            }
        }
    }

    #[test]
    fn a_unique_key_costs_what_it_holds() {
        let mut t = Table::new(RelId(0), 3);
        for i in 0..100_000 {
            t.push(&cells(&[i, i % 13, i % 7]));
        }
        let idx = HashIndex::build(&t, &[0], &[1, 2]);
        assert_eq!(idx.num_keys(), 100_000);
        // No entry owns a heap block: every list is inline, no key has a
        // witness list or Y-set of its own.
        assert_eq!(idx.entry_heap_bytes, 0);
        // 131,072 buckets of a 48-byte entry and a control byte.
        let per_key = idx.approx_bytes() / idx.num_keys();
        assert!(per_key <= 72, "{per_key} B per key");
        // The maintained totals are the sums a walk gives: 13 keys of 385
        // rows, spilled and past the scan limit, then thinned to inline.
        let mut small = Table::new(RelId(0), 3);
        for rid in 0..5_000 {
            small.push(t.row(rid));
        }
        let mut idx = HashIndex::build(&small, &[1], &[0]);
        let walk = |idx: &HashIndex| -> usize {
            idx.entries().map(|(_, p)| p.footprint(idx.y_spill).1).sum()
        };
        assert!(idx.entry_heap_bytes > 0);
        assert_eq!(idx.entry_heap_bytes, walk(&idx));
        for rid in (50..5_000u32).rev() {
            idx.remove_row(rid, small.row(rid as usize), &small);
        }
        assert_eq!(idx.entry_heap_bytes, walk(&idx));
    }
}
