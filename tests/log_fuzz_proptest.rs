//! Fuzz of the log decoder and recovery. A valid log — a checkpoint's
//! compacted base, then a tail of records written after it — is damaged
//! by bit flips, truncations and splices, and recovery over the damaged
//! copy must return `Ok` or `Err`, never panic; when it recovers, a
//! second recovery gives the same state. Two cases are pinned:
//!
//! * a truncation inside the base is refused — except one that leaves
//!   none of the first record's sequence number, which cannot be told
//!   from a history whose first append tore and recovers nothing;
//! * a truncation inside the tail recovers the base plus the tail's
//!   records that made it whole.
//!
//! `cargo test` runs 64 cases of each; `PROPTEST_CASES` widens the sweep
//! (CI's nightly fuzz job runs 512).

use bounded_cq::durability::{
    checkpoint, recover, LogStorage, MemLog, RecoverError, SyncPolicy, WalWriter,
};
use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap()
}

/// Comparable state: global epoch, then per relation (epoch, rows).
type State = (u64, Vec<(u64, Vec<Vec<Value>>)>);

fn state(db: &Database) -> State {
    let rels = (0..db.num_relations()).map(RelId);
    let rels = rels.map(|rel| (db.epoch_of(rel), db.value_rows(rel).collect()));
    (db.epoch(), rels.collect())
}

/// The undamaged log: its bytes, the base's length, and the end offset of
/// the base and of each tail operation with the state there.
struct Fixture {
    bytes: Vec<u8>,
    base: usize,
    boundaries: Vec<(usize, State)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(
            Arc::clone(&log) as Arc<dyn LogStorage>,
            SyncPolicy::Manual,
            1,
        ));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        // Strings, a wide int, a load of `s` that takes two base chunks,
        // an index, and a delete.
        for i in 0..40 {
            db.insert("r", &[Value::str(format!("k{i}")), Value::int(i)])
                .unwrap();
        }
        db.insert("r", &[Value::str("wide"), Value::int(i64::MIN)])
            .unwrap();
        let rows: Vec<Value> = (0..9_000).map(Value::int).collect();
        db.bulk_loader(RelId(1)).push_rows(&rows);
        db.ensure_indexes_cols(&[(RelId(0), &[0], &[1])]);
        db.delete("r", &[Value::str("k0"), Value::int(0)]).unwrap();
        let base = checkpoint(&writer, &db).unwrap() as usize;
        let mut boundaries = vec![(base, state(&db))];
        let mut mark = |db: &Database| boundaries.push((log.bytes().len(), state(db)));
        db.insert("r", &[Value::str("tail"), Value::int(1)])
            .unwrap();
        mark(&db);
        db.bulk_loader(RelId(1))
            .push_rows(&[Value::int(-1), Value::int(-2)]);
        mark(&db);
        db.delete("s", &[Value::int(5)]).unwrap();
        mark(&db);
        db.ensure_indexes_cols(&[(RelId(1), &[], &[0])]);
        mark(&db);
        Fixture {
            bytes: log.bytes(),
            base,
            boundaries,
        }
    })
}

/// `bytes` as a synced log.
fn log_holding(bytes: &[u8]) -> MemLog {
    let log = MemLog::new();
    log.append(bytes).unwrap();
    log.sync().unwrap();
    log
}

/// One damage: a kind and three numbers it reads modulo the log's length.
type Damage = (u8, u32, u32, u32);

/// Applies `damage` to `bytes`: 0 flips a bit, 1 truncates, 2 copies a
/// run of up to 64 bytes to another place.
fn apply(bytes: &mut Vec<u8>, (kind, a, b, c): Damage) {
    let len = bytes.len();
    match kind {
        0 if len > 0 => bytes[a as usize % len] ^= 1 << (b % 8),
        1 => bytes.truncate(a as usize % (len + 1)),
        2 if len > 0 => {
            let from = a as usize % len;
            let run = bytes[from..len.min(from + 1 + b as usize % 64)].to_vec();
            let to = c as usize % (len + 1);
            bytes.splice(to..to, run);
        }
        _ => {}
    }
}

/// Cases per property: 64 in `cargo test`, `PROPTEST_CASES` to widen.
fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn damaged_logs_recover_or_are_refused_without_a_panic(
        damages in prop::collection::vec((0..3u8, any::<u32>(), any::<u32>(), any::<u32>()), 1..4),
    ) {
        let mut bytes = fixture().bytes.clone();
        for &damage in &damages {
            apply(&mut bytes, damage);
        }
        let log = log_holding(&bytes);
        if let Ok((db, _)) = recover(&log, catalog()) {
            let (again, report) = recover(&log, catalog())
                .unwrap_or_else(|e| panic!("{damages:?}: a second recovery failed: {e}"));
            prop_assert_eq!(state(&again), state(&db));
            prop_assert!(!report.truncated, "{:?}: recovery truncated twice", damages);
        }
    }

    #[test]
    fn a_cut_base_is_refused_and_a_cut_tail_keeps_a_prefix(cut in any::<u32>()) {
        let fx = fixture();
        let cut = cut as usize % (fx.bytes.len() + 1);
        let log = log_holding(&fx.bytes[..cut]);
        let recovered = recover(&log, catalog());
        if cut < fx.base {
            // Fewer bytes than a frame header and one byte of the first
            // record's number cannot be told from a torn first append.
            if cut <= 8 {
                let (db, _) = recovered.unwrap();
                prop_assert_eq!(db.epoch(), 0);
            } else {
                prop_assert!(
                    matches!(recovered, Err(RecoverError::IncompleteBase { .. })),
                    "cut {} of the {}-byte base: {:?}", cut, fx.base, recovered
                );
                prop_assert_eq!(log.bytes(), &fx.bytes[..cut]);
            }
        } else {
            let (db, report) = recovered.unwrap();
            let (end, want) = fx.boundaries.iter().rev().find(|(end, _)| *end <= cut).unwrap();
            prop_assert_eq!(&state(&db), want, "cut {}", cut);
            prop_assert_eq!(report.snapshot_bytes, fx.base as u64);
            // Past the last whole operation: interns kept, a torn bulk
            // load discarded, a torn record dropped.
            prop_assert!(report.log_bytes >= (end - fx.base) as u64);
            prop_assert!(report.log_bytes + report.torn_bytes <= (cut - fx.base) as u64);
            prop_assert_eq!(log.bytes().len() as u64, fx.base as u64 + report.log_bytes);
        }
    }
}
