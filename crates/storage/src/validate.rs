//! `D |= A` validation and access-constraint discovery from data.
//!
//! Validation checks the cardinality side of every constraint: for each
//! `X`-value there are at most `N` distinct `Y`-values. Discovery inverts
//! the check: given `(X, Y)` column sets, it reports the smallest `N` the
//! data satisfies — how the paper "manually extracted 84, 27 and 61 access
//! constraints … by examining the size of their active domains and
//! dependencies of their attributes".

use crate::database::Database;
use crate::index::HashIndex;
use bcq_core::access::{AccessSchema, ConstraintId};
use bcq_core::prelude::Value;
use std::fmt;

/// One cardinality violation: a key with more distinct `Y`-values than `N`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated constraint.
    pub constraint: ConstraintId,
    /// The offending `X`-value.
    pub key: Vec<Value>,
    /// Distinct `Y`-values observed for it.
    pub distinct_y: usize,
    /// The declared bound.
    pub n: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint #{} violated: key ({}) has {} distinct Y values (bound {})",
            self.constraint.0,
            self.key
                .iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.distinct_y,
            self.n
        )
    }
}

/// Checks `D |= A`. Builds any missing indices on the fly (they are needed
/// for evaluation anyway). Returns all violations, empty if satisfied.
pub fn validate(db: &mut Database, a: &AccessSchema) -> Vec<Violation> {
    let mut violations = Vec::new();
    db.build_indexes(a);
    for (i, c) in a.constraints().iter().enumerate() {
        let idx = db
            .index_for(c)
            .expect("index was just built for this constraint");
        if idx.max_witnesses() as u64 <= c.n() {
            continue;
        }
        for (key, postings) in idx.entries() {
            if postings.witnesses().len() as u64 > c.n() {
                violations.push(Violation {
                    constraint: ConstraintId(i),
                    key: db.symbols().decode_row(key),
                    distinct_y: postings.witnesses().len(),
                    n: c.n(),
                });
            }
        }
    }
    violations
}

/// Discovers the tightest bound `N` such that `D |= X → (Y, N)`, or `None`
/// for an empty table (any `N ≥ 1` works; there is no evidence).
///
/// This is the building block for deriving access schemas from data, e.g.
/// TFACC's `date → (aid, 610)` ("at most 610 accidents in a single day").
pub fn discover_bound(db: &Database, rel: &str, x: &[&str], y: &[&str]) -> Option<u64> {
    let rel_id = db.catalog().rel_id(rel)?;
    let schema = db.catalog().relation(rel_id);
    let xs: Vec<usize> = x
        .iter()
        .map(|a| schema.attr_index(a))
        .collect::<Option<_>>()?;
    let ys: Vec<usize> = y
        .iter()
        .map(|a| schema.attr_index(a))
        .collect::<Option<_>>()?;
    let idx = HashIndex::build(db.table(rel_id), &xs, &ys);
    if idx.num_keys() == 0 {
        return None;
    }
    Some(idx.max_witnesses() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::Catalog;

    fn db_with_friends(pairs: &[(i64, i64)]) -> (Database, AccessSchema) {
        let cat = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
        let mut db = Database::new(cat.clone());
        for (u, f) in pairs {
            db.insert("friends", &[Value::int(*u), Value::int(*f)])
                .unwrap();
        }
        (db, AccessSchema::new(cat))
    }

    #[test]
    fn satisfied_schema_validates() {
        let (mut db, mut a) = db_with_friends(&[(1, 2), (1, 3), (2, 4)]);
        a.add("friends", &["user_id"], &["friend_id"], 2).unwrap();
        assert!(validate(&mut db, &a).is_empty());
    }

    #[test]
    fn violation_reports_key_and_counts() {
        let (mut db, mut a) = db_with_friends(&[(1, 2), (1, 3), (1, 4), (2, 5)]);
        a.add("friends", &["user_id"], &["friend_id"], 2).unwrap();
        let v = validate(&mut db, &a);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].key, vec![Value::int(1)]);
        assert_eq!(v[0].distinct_y, 3);
        assert_eq!(v[0].n, 2);
        assert!(v[0].to_string().contains("3 distinct Y values"));
    }

    #[test]
    fn duplicates_do_not_count_toward_bounds() {
        // Same (user, friend) twice: one distinct Y value.
        let (mut db, mut a) = db_with_friends(&[(1, 2), (1, 2)]);
        a.add("friends", &["user_id"], &["friend_id"], 1).unwrap();
        assert!(validate(&mut db, &a).is_empty());
    }

    #[test]
    fn discovery_finds_tightest_bound() {
        let (db, _) = db_with_friends(&[(1, 2), (1, 3), (1, 4), (2, 5)]);
        assert_eq!(
            discover_bound(&db, "friends", &["user_id"], &["friend_id"]),
            Some(3)
        );
        // Bounded domain: X = ∅ over friend_id: 4 distinct values.
        assert_eq!(discover_bound(&db, "friends", &[], &["friend_id"]), Some(4));
        // Unknown names.
        assert_eq!(discover_bound(&db, "nope", &[], &["friend_id"]), None);
        assert_eq!(discover_bound(&db, "friends", &[], &["nope"]), None);
    }

    #[test]
    fn empty_table_has_no_evidence() {
        let (db, _) = db_with_friends(&[]);
        assert_eq!(discover_bound(&db, "friends", &[], &["friend_id"]), None);
    }
}
