//! Independent-oracle test: both executors (`evalDQ` and the baseline)
//! share the relational join core in `bcq-exec`, so agreeing with each
//! other does not rule out a bug in that shared code. This file implements
//! SPC semantics **from scratch** — literally `π_Z σ_C (S_1 × … × S_n)` by
//! enumeration — and checks both executors against it on the workload and
//! on randomized inputs.

use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Textbook SPC semantics by full enumeration of the Cartesian product.
/// Exponential; only usable on tiny databases — that is the point: no
/// optimizations, no shared code, nothing to get wrong.
fn naive_spc(db: &Database, q: &SpcQuery) -> Vec<Vec<Value>> {
    use bounded_cq::core::query::Predicate;
    let n = q.num_atoms();
    let tables: Vec<_> = (0..n).map(|i| db.table(q.relation_of(i))).collect();
    let mut results: Vec<Vec<Value>> = Vec::new();
    // Odometer over row indices.
    let mut idx = vec![0usize; n];
    if tables.iter().any(|t| t.is_empty()) {
        return results;
    }
    'outer: loop {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| db.decode_row(tables[i].row(idx[i])))
            .collect();
        let holds = q.predicates().iter().all(|p| match p {
            Predicate::Eq(a, b) => rows[a.atom][a.col] == rows[b.atom][b.col],
            Predicate::Const(a, v) => &rows[a.atom][a.col] == v,
            Predicate::Param(..) => panic!("oracle only handles ground queries"),
        });
        if holds {
            let tuple: Vec<Value> = q
                .projection()
                .iter()
                .map(|z| rows[z.atom][z.col].clone())
                .collect();
            if !results.contains(&tuple) {
                results.push(tuple);
            }
        }
        // Advance the odometer.
        for i in 0..n {
            idx[i] += 1;
            if idx[i] < tables[i].len() {
                continue 'outer;
            }
            idx[i] = 0;
            if i == n - 1 {
                break 'outer;
            }
        }
    }
    results.sort();
    results
}

fn as_sorted_rows(rs: &ResultSet) -> Vec<Vec<Value>> {
    rs.rows().iter().map(|r| r.to_vec()).collect()
}

/// The Example 1 scenario checked against the oracle.
#[test]
fn oracle_agrees_on_example_1() {
    let catalog = Catalog::from_names(&[
        ("in_album", &["photo_id", "album_id"]),
        ("friends", &["user_id", "friend_id"]),
        ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
    ])
    .unwrap();
    let mut a = AccessSchema::new(catalog.clone());
    a.add("in_album", &["album_id"], &["photo_id"], 1000)
        .unwrap();
    a.add("friends", &["user_id"], &["friend_id"], 5000)
        .unwrap();
    a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
        .unwrap();
    let q = SpcQuery::builder(catalog.clone(), "Q0")
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
    let mut db = Database::new(catalog);
    for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a1")] {
        db.insert("in_album", &[Value::str(p), Value::str(al)])
            .unwrap();
    }
    for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u2", "u0")] {
        db.insert("friends", &[Value::str(u), Value::str(f)])
            .unwrap();
    }
    for (p, tr, te) in [("p1", "u1", "u0"), ("p2", "u2", "u0"), ("p3", "u1", "u0")] {
        db.insert("tagging", &[Value::str(p), Value::str(tr), Value::str(te)])
            .unwrap();
    }
    db.build_indexes(&a);

    let expected = naive_spc(&db, &q);
    let plan = qplan(&q, &a).unwrap();
    let fast = eval_dq(&db, &plan, &a).unwrap();
    assert_eq!(as_sorted_rows(&fast.result), expected);
    let slow = baseline(&db, &q, &a, BaselineOptions::default()).unwrap();
    assert_eq!(as_sorted_rows(slow.result().unwrap()), expected);
}

/// The randomized cases below stay under 10 rows per table, where every
/// join step is a linear sweep. Two 64-row relations over a 4-value join
/// column put 64 partials against 64 live rows — past the interpreter's
/// sweep limit — so the from-scratch oracle also sees its hash-join
/// branch, through both executors.
#[test]
fn oracle_agrees_on_a_hash_sized_join() {
    let catalog = Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c", "d"])]).unwrap();
    let mut a = AccessSchema::new(catalog.clone());
    a.add("r", &[], &["a", "b"], 64).unwrap();
    a.add("s", &[], &["c", "d"], 64).unwrap();
    let q = SpcQuery::builder(catalog.clone(), "fanout")
        .atom("r", "r")
        .atom("s", "s")
        .eq(("r", "b"), ("s", "c"))
        .project(("r", "a"))
        .project(("s", "d"))
        .build()
        .unwrap();
    let mut db = Database::new(catalog);
    for i in 0..64 {
        db.insert("r", &[Value::int(i), Value::int(i % 4)]).unwrap();
        db.insert("s", &[Value::int(i % 4), Value::int(i)]).unwrap();
    }
    db.build_indexes(&a);

    let expected = naive_spc(&db, &q);
    assert_eq!(expected.len(), 64 * 16);
    let plan = qplan(&q, &a).unwrap();
    let (fast, profile) =
        bounded_cq::exec::eval_dq_profiled(&db, &plan, &a, ParamEnv::empty_ref()).unwrap();
    assert!(
        profile.steps.iter().any(|s| s.label.ends_with(" hash")),
        "the join must be hash-sized:\n{}",
        profile.render()
    );
    assert_eq!(as_sorted_rows(&fast.result), expected);
    let slow = baseline(&db, &q, &a, BaselineOptions::default()).unwrap();
    assert_eq!(as_sorted_rows(slow.result().unwrap()), expected);
}

// ---------------------------------------------------------------------
// Randomized oracle comparison (mirrors proptest_invariants' generators,
// but the assertion target is the from-scratch evaluator above).
// ---------------------------------------------------------------------

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("r1", &["a", "b", "c"]), ("r2", &["d", "e"])]).unwrap()
}

fn full_schema() -> AccessSchema {
    let mut s = AccessSchema::new(catalog());
    s.add("r1", &["a"], &["b", "c"], 16).unwrap();
    s.add("r1", &["b"], &["a", "c"], 16).unwrap();
    s.add("r1", &["c"], &["a", "b"], 16).unwrap();
    s.add("r1", &[], &["a"], 4).unwrap();
    s.add("r1", &[], &["b"], 4).unwrap();
    s.add("r1", &[], &["c"], 4).unwrap();
    s.add("r2", &["d"], &["e"], 4).unwrap();
    s.add("r2", &["e"], &["d"], 4).unwrap();
    s.add("r2", &[], &["d"], 4).unwrap();
    s.add("r2", &[], &["e"], 4).unwrap();
    s
}

const ARITIES: [usize; 2] = [3, 2];

#[derive(Debug, Clone)]
enum RandPred {
    Eq((usize, usize), (usize, usize)),
    Const((usize, usize), i64),
}

fn build_query(rels: &[usize], preds: &[RandPred], proj: &[(usize, usize)]) -> SpcQuery {
    let cat = catalog();
    let rel_names = ["r1", "r2"];
    let mut b = SpcQuery::builder(cat.clone(), "rand");
    for (i, &r) in rels.iter().enumerate() {
        b = b.atom(rel_names[r], &format!("t{i}"));
    }
    let name = |(ai, col): (usize, usize)| -> (String, String) {
        let rel = cat.relation(RelId(rels[ai]));
        (format!("t{ai}"), rel.attribute(col).to_string())
    };
    for p in preds {
        b = match p {
            RandPred::Eq(x, y) => {
                let (ax, nx) = name(*x);
                let (ay, ny) = name(*y);
                b.eq((ax.as_str(), nx.as_str()), (ay.as_str(), ny.as_str()))
            }
            RandPred::Const(x, v) => {
                let (ax, nx) = name(*x);
                b.eq_const((ax.as_str(), nx.as_str()), *v)
            }
        };
    }
    for z in proj {
        let (az, nz) = name(*z);
        b = b.project((az.as_str(), nz.as_str()));
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn executors_match_the_oracle(
        rels in prop::collection::vec(0..2usize, 1..=2),
        seed_preds in prop::collection::vec((0..64u32, 0..4i64), 0..5),
        seed_proj in prop::collection::vec(0..64u32, 0..3),
        rows1 in prop::collection::vec([0..4i64, 0..4i64, 0..4i64], 0..10),
        rows2 in prop::collection::vec([0..4i64, 0..4i64], 0..10),
    ) {
        // Derive predicates/projections deterministically from seeds so the
        // strategies stay simple.
        let attr = |s: u32| -> (usize, usize) {
            let ai = (s as usize) % rels.len();
            let col = ((s / 7) as usize) % ARITIES[rels[ai]];
            (ai, col)
        };
        let preds: Vec<RandPred> = seed_preds
            .iter()
            .map(|&(s, v)| {
                if s % 2 == 0 {
                    RandPred::Eq(attr(s), attr(s / 3 + 11))
                } else {
                    RandPred::Const(attr(s), v)
                }
            })
            .collect();
        let proj: Vec<(usize, usize)> = seed_proj.iter().map(|&s| attr(s)).collect();
        let q = build_query(&rels, &preds, &proj);

        let a = full_schema();
        let mut db = Database::new(catalog());
        for r in &rows1 {
            db.insert("r1", &[Value::int(r[0]), Value::int(r[1]), Value::int(r[2])]).unwrap();
        }
        for r in &rows2 {
            db.insert("r2", &[Value::int(r[0]), Value::int(r[1])]).unwrap();
        }
        db.build_indexes(&a);

        let expected = naive_spc(&db, &q);
        let plan = qplan(&q, &a).unwrap();
        let fast = eval_dq(&db, &plan, &a).unwrap();
        prop_assert_eq!(as_sorted_rows(&fast.result), expected.clone(), "evalDQ vs oracle on {}", q);
        let slow = baseline(&db, &q, &a, BaselineOptions::default()).unwrap();
        prop_assert_eq!(as_sorted_rows(slow.result().unwrap()), expected, "baseline vs oracle on {}", q);
    }
}
