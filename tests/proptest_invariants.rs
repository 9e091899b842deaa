//! Property-based tests of the core invariants, over randomly generated
//! SPC queries, access-schema subsets, and data.
//!
//! The generated universe: two relations `r1(a,b,c)`, `r2(d,e)`, values
//! drawn from `{0..3}`. The full access schema is chosen so that *any*
//! database over that domain satisfies it (all bounds ≥ 4^|Y|), which lets
//! us test execution equivalence on arbitrary random data.

use bounded_cq::core::mbounded::{min_dq_bound_exact, min_dq_bound_greedy};
use bounded_cq::core::normalize::normalize_catalog;
use bounded_cq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("r1", &["a", "b", "c"]), ("r2", &["d", "e"])]).unwrap()
}

/// Eleven constraints, all of which hold for any data over values {0..3}.
fn full_schema() -> AccessSchema {
    let mut s = AccessSchema::new(catalog());
    s.add("r1", &["a"], &["b", "c"], 16).unwrap();
    s.add("r1", &["b"], &["a", "c"], 16).unwrap();
    s.add("r1", &["c"], &["a", "b"], 16).unwrap();
    s.add("r1", &["a", "b"], &["c"], 4).unwrap();
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

#[derive(Debug, Clone)]
struct RandQuery {
    rels: Vec<usize>,
    preds: Vec<RandPred>,
    proj: Vec<(usize, usize)>,
}

impl RandQuery {
    fn build(&self) -> SpcQuery {
        let cat = catalog();
        let rel_names = ["r1", "r2"];
        let mut b = SpcQuery::builder(cat.clone(), "rand");
        for (i, &r) in self.rels.iter().enumerate() {
            b = b.atom(rel_names[r], &format!("t{i}"));
        }
        let attr_name = |(ai, col): (usize, usize)| -> (String, String) {
            let rel = cat.relation(RelId(self.rels[ai]));
            (format!("t{ai}"), rel.attribute(col).to_string())
        };
        for p in &self.preds {
            match p {
                RandPred::Eq(x, y) => {
                    let (ax, nx) = attr_name(*x);
                    let (ay, ny) = attr_name(*y);
                    b = b.eq((ax.as_str(), nx.as_str()), (ay.as_str(), ny.as_str()));
                }
                RandPred::Const(x, v) => {
                    let (ax, nx) = attr_name(*x);
                    b = b.eq_const((ax.as_str(), nx.as_str()), *v);
                }
            }
        }
        for z in &self.proj {
            let (az, nz) = attr_name(*z);
            b = b.project((az.as_str(), nz.as_str()));
        }
        b.build().unwrap()
    }
}

fn attr_strategy(rels: Vec<usize>) -> impl Strategy<Value = (usize, usize)> {
    let n = rels.len();
    (0..n).prop_flat_map(move |ai| {
        let arity = ARITIES[rels[ai]];
        (Just(ai), 0..arity)
    })
}

fn query_strategy() -> impl Strategy<Value = RandQuery> {
    prop::collection::vec(0..2usize, 1..=3).prop_flat_map(|rels| {
        let pred = prop_oneof![
            (attr_strategy(rels.clone()), attr_strategy(rels.clone()))
                .prop_map(|(x, y)| RandPred::Eq(x, y)),
            (attr_strategy(rels.clone()), 0..4i64).prop_map(|(x, v)| RandPred::Const(x, v)),
        ];
        (
            Just(rels.clone()),
            prop::collection::vec(pred, 0..6),
            prop::collection::vec(attr_strategy(rels), 0..3),
        )
            .prop_map(|(rels, preds, proj)| RandQuery { rels, preds, proj })
    })
}

fn db_strategy() -> impl Strategy<Value = (Vec<[i64; 3]>, Vec<[i64; 2]>)> {
    (
        prop::collection::vec([0..4i64, 0..4i64, 0..4i64], 0..30),
        prop::collection::vec([0..4i64, 0..4i64], 0..30),
    )
}

fn make_db(rows1: &[[i64; 3]], rows2: &[[i64; 2]], a: &AccessSchema) -> Database {
    let mut db = Database::new(catalog());
    for r in rows1 {
        db.insert(
            "r1",
            &[Value::int(r[0]), Value::int(r[1]), Value::int(r[2])],
        )
        .unwrap();
    }
    for r in rows2 {
        db.insert("r2", &[Value::int(r[0]), Value::int(r[1])])
            .unwrap();
    }
    db.build_indexes(a);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem-level invariant: effectively bounded ⇒ bounded (SPC_eb ⊆
    /// SPC_b), under arbitrary subsets of the access schema.
    #[test]
    fn eff_bounded_implies_bounded(rq in query_strategy(), mask in prop::collection::vec(any::<bool>(), 11)) {
        let q = rq.build();
        let full = full_schema();
        let sub = full.filtered(|id, _| mask[id.0]);
        let eb = ebcheck(&q, &sub).effectively_bounded;
        let b = bcheck(&q, &sub).bounded;
        prop_assert!(!eb || b, "effectively bounded but not bounded: {q}");
    }

    /// Plan generation succeeds exactly when EBCheck approves.
    #[test]
    fn qplan_iff_ebcheck(rq in query_strategy(), mask in prop::collection::vec(any::<bool>(), 11)) {
        let q = rq.build();
        let sub = full_schema().filtered(|id, _| mask[id.0]);
        let eb = ebcheck(&q, &sub).effectively_bounded;
        prop_assert_eq!(qplan(&q, &sub).is_ok(), eb);
    }

    /// End-to-end correctness: the bounded plan computes exactly Q(D) on
    /// random data, touching at most `Σ M_i` tuples.
    #[test]
    fn eval_dq_equals_full_scan(rq in query_strategy(), (rows1, rows2) in db_strategy()) {
        let q = rq.build();
        let a = full_schema();
        // The full schema makes every query effectively bounded (keys on
        // every single attribute + bounded domains).
        let plan = qplan(&q, &a).unwrap();
        let db = make_db(&rows1, &rows2, &a);
        let bounded = eval_dq(&db, &plan, &a).unwrap();
        prop_assert!(u128::from(bounded.dq_tuples()) <= plan.cost_bound());
        let full = baseline(&db, &q, &a, BaselineOptions {
            mode: BaselineMode::FullScan,
            work_budget: None,
        }).unwrap();
        prop_assert_eq!(full.result().unwrap(), &bounded.result, "{}", q);
    }

    /// Lemma 1: the single-relation rewriting preserves both verdicts and
    /// answers.
    #[test]
    fn normalize_preserves_everything(rq in query_strategy(), (rows1, rows2) in db_strategy()) {
        let q = rq.build();
        let a = full_schema();
        let n = normalize_catalog(&catalog()).unwrap();
        let nq = n.normalize_query(&q).unwrap();
        let na = n.normalize_access(&a).unwrap();
        prop_assert_eq!(
            bcheck(&q, &a).bounded,
            bcheck(&nq, &na).bounded
        );

        // Answers agree under full scans.
        let db = make_db(&rows1, &rows2, &a);
        let mut star = Database::new(n.catalog().clone());
        for (i, _) in n.source().relations().iter().enumerate() {
            for row in db.value_rows(RelId(i)) {
                star.insert("r_star", &n.encode_tuple(RelId(i), &row)).unwrap();
            }
        }
        let opts = BaselineOptions { mode: BaselineMode::FullScan, work_budget: None };
        let lhs = baseline(&db, &q, &a, opts).unwrap();
        let rhs = baseline(&star, &nq, &na, opts).unwrap();
        prop_assert_eq!(lhs.result().unwrap(), rhs.result().unwrap(), "{}", q);
    }

    /// SQL rendering round-trips arbitrary generated queries.
    #[test]
    fn sql_roundtrip(rq in query_strategy()) {
        use bounded_cq::core::parser::{parse_spc, render_sql};
        let q = rq.build();
        let sql = render_sql(&q).unwrap();
        let back = parse_spc(catalog(), q.name(), &sql).unwrap();
        prop_assert_eq!(back, q, "{}", sql);
    }

    /// The baseline modes agree with each other on arbitrary queries/data.
    #[test]
    fn baseline_modes_agree(rq in query_strategy(), (rows1, rows2) in db_strategy()) {
        let q = rq.build();
        let a = full_schema();
        let db = make_db(&rows1, &rows2, &a);
        let run = |mode| baseline(&db, &q, &a, BaselineOptions { mode, work_budget: None }).unwrap();
        let fs = run(BaselineMode::FullScan);
        let ci = run(BaselineMode::ConstIndex);
        let ij = run(BaselineMode::IndexJoin);
        prop_assert_eq!(fs.result().unwrap(), ci.result().unwrap());
        prop_assert_eq!(fs.result().unwrap(), ij.result().unwrap());
    }
}

/// Cases of [`exact_bound_le_greedy`]. Each runs an exact search over up
/// to 2²² subsets, so `cargo test` runs seven — under a second in a debug
/// build, where the eighth generated query alone takes about six — and
/// `PROPTEST_CASES` widens the sweep (CI's nightly fuzz job runs 512).
fn exact_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(exact_cases()))]

    /// The exact minimum `Σ M_i` never exceeds the greedy plan's bound.
    #[test]
    fn exact_bound_le_greedy(rq in query_strategy()) {
        let q = rq.build();
        let a = full_schema();
        if let (Some(greedy), Some(exact)) = (
            min_dq_bound_greedy(&q, &a),
            min_dq_bound_exact(&q, &a, 22),
        ) {
            prop_assert!(exact <= greedy, "exact {exact} > greedy {greedy} for {q}");
        }
    }
}
