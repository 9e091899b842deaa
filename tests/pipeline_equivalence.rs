//! Three-executor equivalence over the shared interpreter, and
//! compiled ≡ interpreted equivalence within each executor.
//!
//! `evalDQ`, the conventional baseline (all modes), and the RA evaluator
//! are different *access-path planners* over the same
//! `bcq_exec::pipeline` engine; on every effectively bounded workload
//! query they must produce identical `ResultSet`s. This is the guard rail
//! for the single-join-implementation invariant: a bug in the shared
//! filter/join/project shows up as three-way agreement on a wrong answer
//! (covered by the independent oracle in `tests/oracle.rs`), while a
//! divergence between executors can only come from the access-path layer.
//!
//! The engine is the **columnar interpreter of compiled programs**
//! (`OpProgram`), so every executor here is additionally checked against
//! the **query-walking reference** (`eval_dq_interpreted` /
//! `baseline_interpreted`): same column batches, the shape derived at
//! compile time vs re-derived per request, vectorized vs row at a time —
//! identical answers and identical accounting, across all three workloads
//! and a proptest over random queries, data and parameter bindings. The
//! baseline pair fetches identically and schedules its joins from the same
//! post-filter sizes, so its **whole** `Meter` must agree; `FullScan` mode
//! is the full-table-candidates case (every atom's whole relation enters
//! the filters).

use bounded_cq::core::ra::RaExpr;
use bounded_cq::exec::{
    baseline_interpreted, eval_dq_interpreted, eval_dq_with_interpreted, eval_ra,
};
use bounded_cq::prelude::*;

fn check_dataset(ds: &Dataset, scale: f64) {
    let db = ds.build(scale);
    let mut checked = 0usize;
    for wq in ds.effectively_bounded_queries() {
        let plan = qplan(&wq.query, &ds.access).unwrap();
        let bounded = eval_dq(&db, &plan, &ds.access).unwrap();

        // Compiled ≡ interpreted for the bounded executor: same plan, same
        // fetches; the join/filter/project tail derived once at compile
        // time vs re-derived per request.
        let oracle = eval_dq_interpreted(&db, &plan, &ds.access).unwrap();
        assert_eq!(
            oracle.result,
            bounded.result,
            "{}: compiled vs interpreted eval_dq",
            wq.query.name()
        );
        assert_eq!(
            oracle.dq_tuples(),
            bounded.dq_tuples(),
            "{}: compiled eval_dq fetches differently",
            wq.query.name()
        );

        // Baseline, every mode — compiled and interpreted.
        for mode in [
            BaselineMode::FullScan,
            BaselineMode::ConstIndex,
            BaselineMode::IndexJoin,
        ] {
            let opts = BaselineOptions {
                mode,
                work_budget: None,
            };
            let out = baseline(&db, &wq.query, &ds.access, opts).unwrap();
            assert_eq!(
                out.result().expect("no budget"),
                &bounded.result,
                "{} vs baseline {mode:?}",
                wq.query.name()
            );
            let oracle = baseline_interpreted(&db, &wq.query, &ds.access, opts).unwrap();
            assert_eq!(
                oracle.result().expect("no budget"),
                out.result().expect("no budget"),
                "{}: compiled vs interpreted baseline {mode:?}",
                wq.query.name()
            );
            // The whole meter: fetching is shared, and the compiled join
            // order is chosen from the same post-filter/post-prune sizes
            // the oracle uses, so intermediate work — and with it every
            // budget verdict — cannot diverge between the two baselines.
            assert_eq!(
                oracle.meter(),
                out.meter(),
                "{}: compiled baseline {mode:?} charges differently",
                wq.query.name()
            );
        }

        // RA evaluator over the single-block expression (routes through the
        // compiled eval_dq); the interpreted eval_dq is its oracle too.
        let ra = eval_ra(&db, &RaExpr::Spc(wq.query.clone()), &ds.access).unwrap();
        assert_eq!(ra.result, bounded.result, "{} vs eval_ra", wq.query.name());
        assert_eq!(
            ra.result,
            oracle.result,
            "{}: eval_ra vs interpreted oracle",
            wq.query.name()
        );
        assert_eq!(
            ra.meter,
            bounded.meter,
            "{}: eval_ra meters differently",
            wq.query.name()
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "{}: no effectively bounded queries ran",
        ds.name
    );
}

#[test]
fn tfacc_three_executors_agree() {
    check_dataset(&bounded_cq::workload::tfacc::dataset(), 0.05);
}

#[test]
fn mot_three_executors_agree() {
    check_dataset(&bounded_cq::workload::mot::dataset(), 0.05);
}

#[test]
fn tpch_three_executors_agree() {
    check_dataset(&bounded_cq::workload::tpch::dataset(), 0.25);
}

// --- Compiled ≡ interpreted on random queries, data and bindings ----------

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// SplitMix64: everything about one case (query shape, data, bindings) is
/// derived from the single proptest-supplied seed, so failures replay.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

fn random_catalog() -> Arc<Catalog> {
    Catalog::from_names(&[
        ("r", &["a", "b"]),
        ("s", &["c", "d"]),
        ("t", &["e", "f", "g"]),
    ])
    .unwrap()
}

/// Bounded-domain constraints over every relation (plus keyed ones for
/// plan-shape variety): every random query below is effectively bounded.
fn random_access(cat: &Arc<Catalog>) -> AccessSchema {
    let mut a = AccessSchema::new(Arc::clone(cat));
    a.add("r", &[], &["a", "b"], 64).unwrap();
    a.add("s", &[], &["c", "d"], 64).unwrap();
    a.add("t", &[], &["e", "f", "g"], 64).unwrap();
    a.add("r", &["a"], &["b"], 16).unwrap();
    a.add("s", &["c"], &["d"], 16).unwrap();
    a.add("t", &["e"], &["f", "g"], 16).unwrap();
    a
}

/// A random SPC query template: 1–3 atoms over random relations, random
/// join equalities, constant predicates (sometimes never-interned strings,
/// sometimes conflicting — unsatisfiable queries are part of the space),
/// parameter slots, and a random (possibly empty = Boolean) projection.
fn random_query(cat: &Arc<Catalog>, mix: &mut Mix) -> SpcQuery {
    let rels = ["r", "s", "t"];
    let arity = |rel: &str| match rel {
        "t" => 3usize,
        _ => 2usize,
    };
    let natoms = 1 + mix.below(3) as usize;
    let atoms: Vec<&str> = (0..natoms).map(|_| rels[mix.below(3) as usize]).collect();
    let aliases: Vec<String> = (0..natoms).map(|i| format!("x{i}")).collect();
    let mut b = SpcQuery::builder(Arc::clone(cat), "rand");
    for (i, rel) in atoms.iter().enumerate() {
        b = b.atom(rel, &aliases[i]);
    }
    let col_name = |rel: &str, col: usize| match (rel, col) {
        ("r", 0) => "a",
        ("r", _) => "b",
        ("s", 0) => "c",
        ("s", _) => "d",
        ("t", 0) => "e",
        ("t", 1) => "f",
        ("t", _) => "g",
        _ => unreachable!(),
    };
    // Join equalities between adjacent atoms (usually — keeps most queries
    // connected; missing ones exercise cross products).
    for i in 1..natoms {
        if mix.chance(80) {
            let (pa, pb) = (i - 1, i);
            let ca = mix.below(arity(atoms[pa]) as u64) as usize;
            let cb = mix.below(arity(atoms[pb]) as u64) as usize;
            b = b.eq(
                (&aliases[pa], col_name(atoms[pa], ca)),
                (&aliases[pb], col_name(atoms[pb], cb)),
            );
        }
    }
    // Constant and parameter predicates.
    for i in 0..natoms {
        if mix.chance(60) {
            let c = mix.below(arity(atoms[i]) as u64) as usize;
            if mix.chance(15) {
                b = b.eq_const((&aliases[i], col_name(atoms[i], c)), "never-interned");
            } else {
                b = b.eq_const((&aliases[i], col_name(atoms[i], c)), mix.below(5) as i64);
            }
        }
        if mix.chance(35) {
            let c = mix.below(arity(atoms[i]) as u64) as usize;
            let slot = if mix.chance(50) { "p0" } else { "p1" };
            b = b.eq_param((&aliases[i], col_name(atoms[i], c)), slot);
        }
    }
    // Projection: random subset of attributes (empty = Boolean query).
    for i in 0..natoms {
        for c in 0..arity(atoms[i]) {
            if mix.chance(35) {
                b = b.project((&aliases[i], col_name(atoms[i], c)));
            }
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// For random queries, data and bindings: the compiled program and the
    /// query-walking oracle agree — per executor, and with each other.
    #[test]
    fn compiled_matches_interpreted_on_random_queries(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let cat = random_catalog();
        let a = random_access(&cat);
        let q = random_query(&cat, &mut mix);

        // Random data (deliberately ignoring the declared bounds: answers
        // must stay exact on violating data too).
        let mut db = Database::new(Arc::clone(&cat));
        for rel in ["r", "s", "t"] {
            let arity = if rel == "t" { 3 } else { 2 };
            for _ in 0..mix.below(9) {
                let row: Vec<Value> =
                    (0..arity).map(|_| Value::int(mix.below(5) as i64)).collect();
                db.insert(rel, &row).unwrap();
            }
        }
        db.build_indexes(&a);

        // Bind every slot; sometimes to a never-interned value.
        let mut bindings = BTreeMap::new();
        for name in q.placeholder_names() {
            let v = if mix.chance(15) {
                Value::str("ghost-binding")
            } else {
                Value::int(mix.below(5) as i64)
            };
            bindings.insert(name, v);
        }

        // Prepared path: compiled vs interpreted on the same template plan.
        let plan = qplan_template(&q, &a).unwrap();
        let env = bounded_cq::exec::ParamEnv::encode(db.symbols(), &bindings);
        let compiled = eval_dq_with(&db, &plan, &a, &env).unwrap();
        let interpreted = eval_dq_with_interpreted(&db, &plan, &a, &env).unwrap();
        prop_assert_eq!(&compiled.result, &interpreted.result, "eval_dq compiled vs interpreted");
        prop_assert_eq!(compiled.dq_tuples(), interpreted.dq_tuples());

        // Ground path: baseline compiled vs interpreted, every mode, and
        // cross-agreement with the prepared bounded answer.
        let ground = q.instantiate(&bindings);
        for mode in [BaselineMode::FullScan, BaselineMode::ConstIndex, BaselineMode::IndexJoin] {
            let opts = BaselineOptions { mode, work_budget: None };
            let c = baseline(&db, &ground, &a, opts).unwrap();
            let i = baseline_interpreted(&db, &ground, &a, opts).unwrap();
            prop_assert_eq!(
                c.result().unwrap(),
                i.result().unwrap(),
                "baseline {:?} compiled vs interpreted", mode
            );
            prop_assert_eq!(c.meter(), i.meter(), "baseline {:?} meters diverge", mode);
            prop_assert_eq!(
                c.result().unwrap(),
                &compiled.result,
                "baseline {:?} vs prepared bounded answer", mode
            );
        }
    }
}

/// The executors also agree through the value/cell boundary: a database
/// rebuilt from decoded value rows (fresh symbol table, different intern
/// order) yields the same answers.
#[test]
fn answers_survive_reinterning() {
    let ds = bounded_cq::workload::tpch::dataset();
    let db = ds.build(0.25);

    // Rebuild by decoding every row to values and re-inserting — symbol ids
    // will differ (insertion order differs per relation), answers must not.
    let mut db2 = Database::new(ds.catalog.clone());
    for (i, _) in ds.catalog.relations().iter().enumerate().rev() {
        let rel = RelId(i);
        let flat: Vec<Value> = db.value_rows(rel).flatten().collect();
        db2.bulk_loader(rel).push_rows(&flat);
    }
    db2.build_indexes(&ds.access);

    for wq in ds.effectively_bounded_queries().take(6) {
        let plan = qplan(&wq.query, &ds.access).unwrap();
        let a = eval_dq(&db, &plan, &ds.access).unwrap();
        let b = eval_dq(&db2, &plan, &ds.access).unwrap();
        assert_eq!(a.result, b.result, "{}", wq.query.name());
        assert_eq!(a.dq_tuples(), b.dq_tuples(), "{}", wq.query.name());
    }
}
