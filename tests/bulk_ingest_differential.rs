//! Differential proof of the chunked bulk-ingest fast path: the final
//! state a [`Database::bulk_loader`] load reaches — tables, index
//! postings (down to rids and witness lists), symbol table contents and
//! the epoch vector — must be indistinguishable from the slow ways of
//! loading the same rows:
//!
//! * vs. row-at-a-time [`Database::insert`] (the independent reference:
//!   it shares no code with the loader past the table append): same
//!   decoded rows in the same rid order, same decoded index postings and
//!   witness promotion, same interned values. (Epoch *magnitudes*
//!   legitimately differ — that is the point of the fast path: one commit
//!   per load instead of one per row — but the vector-clock shape must
//!   agree: untouched relations' components stay put in both.)
//! * vs. the same loader fed one row per `push_rows`: bit-for-bit
//!   identical epochs and decoded state — both are one-commit bulk
//!   brackets, so chunking may not be observable.
//! * across a WAL crash: replaying a large chunked load (big enough to
//!   dispatch the sort-based index build) reproduces the live database
//!   exactly — raw cells included, because replay re-applies the logged
//!   intern records in id order — and a cut inside the chunk stream
//!   discards the torn load, landing back on the pre-load boundary.
//!
//! * vs. the **parallel** ingest pool ([`bcq_workload::load_range_par`]):
//!   workers generate and pre-encode chunks concurrently, but the
//!   installer interns and appends strictly in chunk order — so rows,
//!   postings, witnesses, the **raw symbol-id assignment**, the epoch
//!   vector, and the emitted WAL byte stream must all be bit-for-bit
//!   what the serial [`bcq_workload::load_range`] pass produces.
//!
//! Random interleavings of chunked loads with every other mutation kind
//! (and random cut points) are covered by `recovery_differential_proptest`;
//! this file is the deterministic, state-complete comparison.

use bounded_cq::durability::{recover, LogStorage, MemLog, SyncPolicy, WalWriter};
use bounded_cq::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("r", &["a", "b", "c"]), ("untouched", &["x", "y"])]).unwrap()
}

fn access() -> AccessSchema {
    let mut a = AccessSchema::new(catalog());
    a.add("r", &["a"], &["b"], 64).unwrap();
    a.add("r", &["b"], &["a", "c"], 64).unwrap();
    a.add("untouched", &["x"], &["y"], 8).unwrap();
    a
}

/// Mixed-representation rows: small ints (inline cells), strings and wide
/// ints (both interned), and nulls — every encode path the loaders take.
fn row(i: i64) -> Vec<Value> {
    vec![
        Value::int(i % 7),
        Value::str(format!("s{}", i % 5)),
        match i % 11 {
            0 => Value::int(i64::MAX - i % 3),
            1 => Value::Null,
            _ => Value::int(i % 13),
        },
    ]
}

/// Splits `rows[..]` into column vectors for one chunk.
fn columns_of(chunk: &[Vec<Value>]) -> Vec<Vec<Value>> {
    (0..chunk[0].len())
        .map(|c| chunk.iter().map(|r| r[c].clone()).collect())
        .collect()
}

/// Everything observable about a relation, decoded so it is independent of
/// symbol-id assignment order (column-at-a-time interning hands out ids in
/// a different order than row-at-a-time; the *values* must agree).
#[derive(Debug, PartialEq)]
struct DecodedRel {
    rows: Vec<Vec<Value>>,
    /// Per index `(x, y)`: entries as (decoded key, rids, witness rids),
    /// sorted by the key's debug rendering for a canonical order.
    #[allow(clippy::type_complexity)]
    indexes: Vec<(
        Vec<usize>,
        Vec<usize>,
        Vec<(Vec<Value>, Vec<u32>, Vec<u32>)>,
    )>,
}

fn decoded(db: &Database, rel: RelId) -> DecodedRel {
    let shard = db.shard(rel);
    let indexes = shard
        .index_specs()
        .map(|(x, y)| {
            let idx = shard.index(x, y).expect("spec lists a built index");
            let mut entries: Vec<(Vec<Value>, Vec<u32>, Vec<u32>)> = idx
                .entries()
                .map(|(k, p)| (db.decode_row(k), p.all().to_vec(), p.witnesses().to_vec()))
                .collect();
            entries.sort_by_key(|(k, _, _)| format!("{k:?}"));
            (x.to_vec(), y.to_vec(), entries)
        })
        .collect();
    DecodedRel {
        rows: db.value_rows(rel).collect(),
        indexes,
    }
}

/// The symbol table's contents as order-independent sets.
fn symbol_contents(db: &Database) -> (Vec<String>, Vec<i64>) {
    let mut strings: Vec<String> = db.symbols().strings().map(str::to_owned).collect();
    strings.sort();
    let mut wides = db.symbols().wide_ints().to_vec();
    wides.sort_unstable();
    (strings, wides)
}

/// Per-relation piece of [`raw_dump`]: epoch, decoded rows, index count.
type RelDump = (u64, Vec<Vec<Value>>, usize);

/// Raw (cell-level) dump used for the crash-replay comparison, where
/// recovery must reproduce even the symbol-id assignment.
fn raw_dump(db: &Database) -> (u64, Vec<RelDump>) {
    let rels = (0..db.num_relations())
        .map(|i| {
            let rel = RelId(i);
            (
                db.epoch_of(rel),
                db.value_rows(rel).collect(),
                db.shard(rel).index_specs().count(),
            )
        })
        .collect();
    (db.epoch(), rels)
}

// 10_000 rows, indexed two ways: the bulk side's deferred build sorts
// the keys of the whole table at once, while the maintained side built
// its indices one insert at a time.
const N: i64 = 10_000;
const CHUNK: usize = 1_024;

#[test]
fn chunked_bulk_load_matches_row_at_a_time_insert() {
    let a = access();
    let rows: Vec<Vec<Value>> = (0..N).map(row).collect();

    // Slow path: indices first, then N row inserts (each one a commit,
    // each one maintaining every index in place).
    let mut slow = Database::new(catalog());
    slow.build_indexes(&a);
    let untouched_epoch = slow.epoch_of(RelId(1));
    for r in &rows {
        slow.insert("r", r).unwrap();
    }

    // Fast path: one chunked bulk bracket, then one deferred index build.
    let mut fast = Database::new(catalog());
    fast.build_indexes(&a);
    let stats = {
        let mut b = fast.bulk_loader(RelId(0));
        b.reserve_rows(rows.len());
        for chunk in rows.chunks(CHUNK) {
            b.push_chunk_columns(&columns_of(chunk));
        }
        b.stats()
    };
    fast.build_indexes(&a);

    assert_eq!(stats.rows, N as u64);
    assert_eq!(stats.chunks, (rows.len() as u64).div_ceil(CHUNK as u64));

    // Tables, postings (rids + witnesses) and interned values must be
    // indistinguishable.
    assert_eq!(decoded(&fast, RelId(0)), decoded(&slow, RelId(0)));
    assert_eq!(symbol_contents(&fast), symbol_contents(&slow));

    // Vector-clock shape: the load touched exactly one component — the
    // untouched relation's epoch sits at its index-build stamp on both
    // paths (its index survives the second `build_indexes`, which only
    // rebuilds what the bulk bracket dropped), and each path's global
    // epoch equals its touched component (nothing moved after).
    assert_eq!(fast.epoch_of(RelId(1)), untouched_epoch);
    assert_eq!(slow.epoch_of(RelId(1)), untouched_epoch);
    assert_eq!(fast.epoch(), fast.epoch_of(RelId(0)));
    assert_eq!(slow.epoch(), slow.epoch_of(RelId(0)));
    // And the fast path collapsed the load into O(1) commits — the whole
    // point — while the slow path paid one per row.
    assert!(fast.epoch() < slow.epoch());
}

#[test]
fn chunked_bulk_load_is_indistinguishable_from_the_per_row_loader() {
    let rows: Vec<Vec<Value>> = (0..N).map(row).collect();
    let a = access();

    let mut per_row = Database::new(catalog());
    {
        let mut l = per_row.bulk_loader(RelId(0));
        for r in &rows {
            l.push_rows(r);
        }
    }
    per_row.build_indexes(&a);

    let mut chunked = Database::new(catalog());
    {
        let mut b = chunked.bulk_loader(RelId(0));
        b.reserve_rows(rows.len());
        for chunk in rows.chunks(CHUNK) {
            b.push_chunk_columns(&columns_of(chunk));
        }
    }
    chunked.build_indexes(&a);

    // Both are one-commit bulk brackets: the epoch vector must be equal
    // component for component, not just shaped alike.
    assert_eq!(chunked.epoch(), per_row.epoch());
    for i in 0..chunked.num_relations() {
        assert_eq!(chunked.epoch_of(RelId(i)), per_row.epoch_of(RelId(i)));
    }
    assert_eq!(decoded(&chunked, RelId(0)), decoded(&per_row, RelId(0)));
    assert_eq!(symbol_contents(&chunked), symbol_contents(&per_row));
}

#[test]
fn crash_replay_of_a_large_chunked_load_reproduces_the_live_state() {
    let cat = catalog();
    let a = access();
    let rows: Vec<Vec<Value>> = (0..N).map(row).collect();

    let log = Arc::new(MemLog::new());
    let writer = Arc::new(WalWriter::new(
        Arc::clone(&log) as Arc<dyn LogStorage>,
        SyncPolicy::Manual,
        1,
    ));
    let mut db = Database::new(Arc::clone(&cat));
    db.set_wal(Some(writer));
    db.build_indexes(&a);
    let pre_load = raw_dump(&db);
    let pre_load_bytes = log.unsynced_bytes();

    {
        let mut b = db.bulk_loader(RelId(0));
        b.reserve_rows(rows.len());
        for chunk in rows.chunks(CHUNK) {
            b.push_chunk_columns(&columns_of(chunk));
        }
    }
    db.build_indexes(&a);

    // Full-log recovery: the replayed database must equal the live one
    // exactly — same rows, same epochs, same rebuilt index specs — and
    // the decoded index state must match too.
    let (replayed, report) = recover(&*log, Arc::clone(&cat)).unwrap();
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(raw_dump(&replayed), raw_dump(&db));
    assert_eq!(decoded(&replayed, RelId(0)), decoded(&db, RelId(0)));
    // Replay applies intern records in logged id order, so even the raw
    // symbol-id assignment survives the round trip.
    assert_eq!(
        db.symbols().strings().collect::<Vec<_>>(),
        replayed.symbols().strings().collect::<Vec<_>>()
    );
    assert_eq!(db.symbols().wide_ints(), replayed.symbols().wide_ints());

    // Cut mid-load: the torn bulk bracket (BulkBegin, some chunks, no
    // BulkEnd) is discarded whole — recovery lands on the pre-load state.
    let total = log.unsynced_bytes();
    log.crash(pre_load_bytes + (total - pre_load_bytes) / 2);
    let (truncated, _) = recover(&*log, cat).unwrap();
    assert_eq!(raw_dump(&truncated), pre_load);
}

/// The same mixed-representation rows as [`row`], with a slow stream of
/// fresh tail symbols so interning keeps happening deep into the load —
/// workers must keep hitting values their pre-encode handle has not seen.
fn par_row(i: i64) -> Vec<Value> {
    let mut r = row(i);
    if i % 11 == 2 {
        r[2] = Value::str(format!("tail{}", i / 97));
    }
    r
}

#[test]
fn parallel_ingest_is_bit_identical_to_the_serial_loader() {
    use bounded_cq::workload::source::rows as row_source;
    use bounded_cq::workload::{load_range_par, ParLoadOptions};

    let cat = catalog();
    let a = access();
    let src = row_source(RelId(0), 3, N as u64, |i, out| {
        out.extend(par_row(i as i64));
    });

    // The serial oracle: one WAL-attached store, one chunked streaming
    // pass, indices rebuilt after.
    let boot = || {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(
            Arc::clone(&log) as Arc<dyn LogStorage>,
            SyncPolicy::Manual,
            1,
        ));
        let mut db = Database::new(Arc::clone(&cat));
        db.set_wal(Some(writer));
        db.build_indexes(&a);
        (log, db)
    };
    let (serial_log, mut serial) = boot();
    let serial_stats =
        bounded_cq::workload::source::load_range(&mut serial, src.as_ref(), 0, N as u64, CHUNK);
    serial.build_indexes(&a);

    for threads in [1, 2, 3, 5] {
        let (par_log, mut par) = boot();
        let par_stats = load_range_par(
            &mut par,
            src.as_ref(),
            0,
            N as u64,
            ParLoadOptions {
                threads,
                chunk_rows: CHUNK,
            },
        );
        par.build_indexes(&a);

        assert_eq!(par_stats, serial_stats, "threads={threads}");
        // Epoch vector + decoded rows, index postings down to rids and
        // witnesses, and the raw symbol-id assignment (not just the
        // symbol *set*: in-order install must reproduce serial interning
        // exactly).
        assert_eq!(raw_dump(&par), raw_dump(&serial), "threads={threads}");
        assert_eq!(
            decoded(&par, RelId(0)),
            decoded(&serial, RelId(0)),
            "threads={threads}"
        );
        assert_eq!(
            par.symbols().strings().collect::<Vec<_>>(),
            serial.symbols().strings().collect::<Vec<_>>()
        );
        assert_eq!(par.symbols().wide_ints(), serial.symbols().wide_ints());
        // The WAL streams are byte-identical, so crash recovery of a
        // parallel load is *the same proof* as the serial one above.
        assert_eq!(par_log.unsynced_bytes(), serial_log.unsynced_bytes());
        let (from_par, _) = recover(&*par_log, Arc::clone(&cat)).unwrap();
        let (from_serial, _) = recover(&*serial_log, Arc::clone(&cat)).unwrap();
        assert_eq!(raw_dump(&from_par), raw_dump(&from_serial));
    }
}
