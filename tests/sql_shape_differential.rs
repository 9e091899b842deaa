//! `Session::query_sql` compiles once per query **shape**: a text with
//! literals must answer exactly like the hand-written template with the
//! same values bound, and like the conventional baseline on the ground
//! query — on every workload shape, for seeded literals, and on the edge
//! cases where lifting a literal into a slot could plausibly go wrong.

use bounded_cq::core::parser::render_sql;
use bounded_cq::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `q` with every constant replaced by its own placeholder `k0, k1, …`,
/// and the constants it had.
fn lift_by_hand(q: &SpcQuery) -> (SpcQuery, Vec<(String, Value)>) {
    let catalog = Arc::clone(q.catalog());
    let mut b = SpcQuery::builder(Arc::clone(&catalog), q.name());
    for atom in q.atoms() {
        b = b.atom(catalog.relation(atom.relation).name(), &atom.alias);
    }
    let names: Vec<String> = (0..q.total_attrs())
        .map(|flat| q.attr_name(q.attr_of_flat(flat)))
        .collect();
    let split = |a: &QAttr| {
        let (alias, attr) = names[q.flat_id(*a)].split_once('.').unwrap();
        (alias, attr)
    };
    let mut consts = Vec::new();
    for p in q.predicates() {
        b = match p {
            Predicate::Eq(x, y) => b.eq(split(x), split(y)),
            Predicate::Param(x, name) => b.eq_param(split(x), name),
            Predicate::Const(x, v) => {
                let name = format!("k{}", consts.len());
                consts.push((name.clone(), v.clone()));
                b.eq_param(split(x), &name)
            }
        };
    }
    for z in q.projection() {
        b = b.project(split(z));
    }
    (b.build().unwrap(), consts)
}

/// SplitMix64, so the literals are a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every workload shape of `ds`, served as literal text, as the
/// hand-lifted template, and by the baseline: the three must agree for
/// the workload's own constants and for seeded neighbours of them.
fn check_dataset(ds: &Dataset, scale: f64, seed: u64) {
    const ROUNDS: usize = 6;
    let db = ds.build(scale);
    let config = ServerConfig {
        policy: AdmissionPolicy::Budgeted(u64::MAX),
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::new(db, ds.access.clone(), config));
    let mut by_text = server.session();
    let mut by_template = server.session();
    let snapshot = server.snapshot();
    let none = BTreeMap::new();
    let mut rng = seed;

    for wq in &ds.queries {
        let name = wq.query.name();
        let (template, consts) = lift_by_hand(&wq.query);
        let cost_bound = server.prepare(&template).unwrap().query.cost_bound();
        assert_eq!(
            cost_bound.is_some(),
            wq.expect_effectively_bounded,
            "{name}: the template is bounded iff the workload query is"
        );
        let misses_before = server.cache_stats().misses;
        for round in 0..ROUNDS {
            // Round 0 keeps the workload's constants (the literal `1`
            // among them); later rounds move each one a seeded step away,
            // below zero included.
            let bindings: BTreeMap<String, Value> = consts
                .iter()
                .map(|(k, v)| {
                    let step = match round {
                        0 => 0,
                        _ => (splitmix(&mut rng) % 7) as i64 - 3,
                    };
                    let v = v.as_int().expect("workload constants are integers") + step;
                    (k.clone(), Value::int(v))
                })
                .collect();
            let ground = template.instantiate(&bindings);
            let sql = render_sql(&ground).unwrap();

            let text = by_text
                .query_sql(name, &sql, &none)
                .unwrap_or_else(|e| panic!("{name}: {e}\n{sql}"));
            let templated = by_template.query(&template, &bindings).unwrap();
            let base = baseline(&snapshot, &ground, &ds.access, BaselineOptions::default())
                .unwrap_or_else(|e| panic!("{name}: baseline: {e}"));
            let rows = text.rows().expect("no effective budget");
            assert_eq!(
                rows,
                templated.rows().unwrap(),
                "{name}: text != template\n{sql}"
            );
            assert_eq!(
                rows,
                base.result().unwrap(),
                "{name}: text != baseline\n{sql}"
            );

            assert_eq!(text.stats.lane, templated.stats.lane, "{name}");
            assert_eq!(
                text.stats.cache_hit,
                round > 0,
                "{name}: one compile per shape"
            );
            match cost_bound {
                Some(bound) => {
                    assert_eq!(text.stats.lane, Lane::Bounded, "{name}");
                    assert!(
                        u128::from(text.stats.meter.tuples_fetched) <= bound,
                        "{name}: fetched {} > Σ Mᵢ = {bound}\n{sql}",
                        text.stats.meter.tuples_fetched
                    );
                }
                None => assert_eq!(text.stats.lane, Lane::Unbounded, "{name}"),
            }
        }
        assert_eq!(
            server.cache_stats().misses,
            misses_before + 1,
            "{name}: {ROUNDS} texts of one shape compile once"
        );
    }
    let m = server.metrics_snapshot();
    assert_eq!(m.sql.requests, (ds.queries.len() * ROUNDS) as u64);
}

#[test]
fn tfacc_shapes_text_template_baseline_agree() {
    check_dataset(&bounded_cq::workload::tfacc::dataset(), 0.05, 0x5EED_0001);
}

#[test]
fn mot_shapes_text_template_baseline_agree() {
    check_dataset(&bounded_cq::workload::mot::dataset(), 0.05, 0x5EED_0002);
}

#[test]
fn tpch_shapes_text_template_baseline_agree() {
    check_dataset(&bounded_cq::workload::tpch::dataset(), 0.5, 0x5EED_0003);
}

// ---------------------------------------------------------------------
// Edge cases, on Example 1's schema
// ---------------------------------------------------------------------

fn photos(policy: AdmissionPolicy) -> Arc<Server> {
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
    for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
        db.insert("in_album", &[Value::str(p), Value::str(al)])
            .unwrap();
    }
    let s = Value::str;
    for (u, f) in [
        (s("u0"), s("u1")),
        (s("u0"), s("u2")),
        (s("u9"), s("u3")),
        (s("u7"), s("u7")),
        (Value::int(-5), Value::int(1)),
        (Value::int(1), Value::int(-5)),
        (s("select 1 from"), s("and = 'where'")),
    ] {
        db.insert("friends", &[u, f]).unwrap();
    }
    for (p, tagger, taggee) in [
        ("p1", "u1", "u0"),
        ("p2", "u3", "u0"),
        ("p4", "u2", "u0"),
        ("p3", "u1", "u5"),
    ] {
        db.insert("tagging", &[s(p), s(tagger), s(taggee)]).unwrap();
    }
    let config = ServerConfig {
        policy,
        ..ServerConfig::default()
    };
    Arc::new(Server::new(db, a, config))
}

/// Serves `sql` and checks the answer against the baseline on the parsed
/// ground query (`bindings` instantiate its `?name` parameters).
fn served(
    session: &mut Session,
    sql: &str,
    bindings: &BTreeMap<String, Value>,
) -> (Vec<Vec<Value>>, Response) {
    let server = Arc::clone(session.server());
    let resp = session
        .query_sql("edge", sql, bindings)
        .unwrap_or_else(|e| panic!("{e}\n{sql}"));
    let ground = parse_spc(Arc::clone(server.access().catalog()), "edge", sql)
        .unwrap()
        .instantiate(bindings);
    let base = baseline(
        &server.snapshot(),
        &ground,
        server.access(),
        BaselineOptions::default(),
    )
    .unwrap();
    assert_eq!(resp.rows().unwrap(), base.result().unwrap(), "{sql}");
    let rows = resp.rows().unwrap().rows().iter().map(|r| r.to_vec());
    (rows.collect(), resp)
}

#[test]
fn same_literal_twice_on_two_classes() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    // One value in two slots of two classes: it merges them for this
    // request only.
    let sql = "SELECT f.user_id FROM friends f WHERE f.user_id = 'u7' AND f.friend_id = 'u7'";
    let (rows, _) = served(&mut s, sql, &none);
    assert_eq!(rows, vec![vec![Value::str("u7")]]);
    // The same shape with two values is the same entry, not a merged plan.
    let sql = "SELECT f.user_id FROM friends f WHERE f.user_id = 'u0' AND f.friend_id = 'u2'";
    let (rows, resp) = served(&mut s, sql, &none);
    assert_eq!(rows, vec![vec![Value::str("u0")]]);
    assert!(resp.stats.cache_hit);
    let sql = "SELECT f.user_id FROM friends f WHERE f.user_id = 'u0' AND f.friend_id = 'u0'";
    assert!(served(&mut s, sql, &none).0.is_empty());
    assert_eq!(server.cache_stats().misses, 1);
}

#[test]
fn two_literals_on_one_class() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    // Disagreeing: the empty answer, whichever value the fetch is keyed on.
    for (x, y) in [("u0", "u9"), ("u9", "u0"), ("u0", "never seen")] {
        let sql = format!(
            "SELECT f.friend_id FROM friends f WHERE f.user_id = '{x}' AND f.user_id = '{y}'"
        );
        assert!(served(&mut s, &sql, &none).0.is_empty(), "{sql}");
    }
    // Agreeing: the answer of the single predicate.
    let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 'u0' AND f.user_id = 'u0'";
    let (rows, resp) = served(&mut s, sql, &none);
    assert_eq!(rows.len(), 2);
    assert!(resp.stats.cache_hit);
    // Through a join as well: `t.taggee_id` and `f.user_id` in one class.
    let sql = "SELECT t.photo_id FROM friends f, tagging t \
               WHERE f.user_id = 'u0' AND t.taggee_id = f.user_id AND t.taggee_id = 'u5' \
               AND t.photo_id = 'p3'";
    assert!(served(&mut s, sql, &none).0.is_empty());
}

#[test]
fn never_interned_literals_answer_empty_without_fetching() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    for lit in ["'no such user'", "123456789", "-9223372036854775808"] {
        let sql = format!("SELECT f.friend_id FROM friends f WHERE f.user_id = {lit}");
        let (rows, resp) = served(&mut s, &sql, &none);
        assert!(rows.is_empty(), "{sql}");
        assert_eq!(resp.stats.meter.tuples_fetched, 0, "{sql}");
    }
}

#[test]
fn negative_integers_and_the_literal_one() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = -5";
    assert_eq!(served(&mut s, sql, &none).0, vec![vec![Value::int(1)]]);
    // `1` lexes as its own token (it is also `SELECT 1`'s head); as a
    // constant it is lifted like any other.
    let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 1";
    let (rows, resp) = served(&mut s, sql, &none);
    assert_eq!(rows, vec![vec![Value::int(-5)]]);
    assert!(resp.stats.cache_hit);
    // The integer 1 and the string '1' are different values of one shape.
    let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = '1'";
    let (rows, resp) = served(&mut s, sql, &none);
    assert!(rows.is_empty());
    assert!(resp.stats.cache_hit);
}

#[test]
fn quoted_strings_with_spaces_and_keywords() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 'select 1 from'";
    let (rows, _) = served(&mut s, sql, &none);
    assert_eq!(rows, vec![vec![Value::str("and = 'where'")]]);
    // Whitespace inside a literal is part of the value, not of the shape.
    let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 'select  1 from'";
    let (rows, resp) = served(&mut s, sql, &none);
    assert!(rows.is_empty());
    assert!(resp.stats.cache_hit);
}

#[test]
fn boolean_heads_are_not_lifted() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    for head in ["1", "EXISTS"] {
        let yes = format!("SELECT {head} FROM friends f WHERE f.user_id = 'u0'");
        assert_eq!(served(&mut s, &yes, &none).0, vec![Vec::<Value>::new()]);
        let no = format!("SELECT {head} FROM friends f WHERE f.user_id = 'u1'");
        assert!(served(&mut s, &no, &none).0.is_empty());
    }
    // Two heads, two shapes; one literal lifted per request.
    assert_eq!(server.cache_stats().misses, 2);
    let m = server.metrics_snapshot();
    assert_eq!((m.sql.requests, m.sql.literals_lifted), (4, 4));
}

#[test]
fn literals_mix_with_caller_bound_parameters() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let sql = |album: &str| {
        format!(
            "SELECT ia.photo_id FROM in_album ia, friends f, tagging t \
             WHERE ia.album_id = '{album}' AND f.user_id = ?uid \
             AND ia.photo_id = t.photo_id AND t.tagger_id = f.friend_id \
             AND t.taggee_id = ?uid"
        )
    };
    let uid = |u: &str| BTreeMap::from([("uid".to_string(), Value::str(u))]);
    assert_eq!(
        served(&mut s, &sql("a0"), &uid("u0")).0,
        vec![vec![Value::str("p1")]]
    );
    let (rows, resp) = served(&mut s, &sql("a1"), &uid("u0"));
    assert_eq!(rows, vec![vec![Value::str("p4")]]);
    assert!(resp.stats.cache_hit);
    assert!(served(&mut s, &sql("a0"), &uid("u9")).0.is_empty());

    // The text's own parameter left unbound is still an error …
    let err = s
        .query_sql("edge", &sql("a0"), &BTreeMap::new())
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::Core(CoreError::UnboundParameters(ref names)) if names == &["uid"]
        ),
        "{err}"
    );
    // … and a caller cannot address (or shadow) a lifted slot.
    let mut shadow = uid("u0");
    shadow.insert("$1".to_string(), Value::str("a1"));
    let err = s.query_sql("edge", &sql("a0"), &shadow).unwrap_err();
    assert!(err.to_string().contains("reserved"), "{err}");
    // The session is none the worse for either.
    assert_eq!(
        served(&mut s, &sql("a0"), &uid("u0")).0,
        vec![vec![Value::str("p1")]]
    );
}

#[test]
fn failed_compiles_cache_nothing() {
    let server = photos(AdmissionPolicy::Strict);
    let mut s = server.session();
    let none = BTreeMap::new();
    // All of `tagging` whose tagger is …: no index covers `tagger_id`
    // alone, so the shape is not effectively bounded.
    let unbounded =
        |who: &str| format!("SELECT t.photo_id FROM tagging t WHERE t.tagger_id = '{who}'");
    for (i, who) in ["u1", "u2", "u1"].into_iter().enumerate() {
        let err = s.query_sql("scan", &unbounded(who), &none).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected(_)), "{err}");
        assert_eq!(server.metrics_snapshot().admission.rejected, i as u64 + 1);
    }
    for bad in [
        "SELECT f.friend_id FROM friends f WHERE f.user_id < 3",
        "SELECT f.friend_id FROM friends f WHERE f.user_id = 'open",
        "SELECT f.friend_id FROM friends f WHERE f.nope = 3",
        "SELECT * FROM friends f WHERE f.user_id = 3",
        "SELECT f.friend_id FROM friends f WHERE f.user_id = 3 OR f.user_id = 4",
    ] {
        for _ in 0..2 {
            let err = s.query_sql("bad", bad, &none).unwrap_err();
            assert!(matches!(err, ServiceError::Core(_)), "{bad}: {err}");
        }
    }
    let cs = server.cache_stats();
    assert_eq!((cs.hits, cs.evictions), (0, 0));
    assert_eq!(server.metrics_snapshot().cache.entries, 0);
    assert_eq!(server.metrics_snapshot().requests(), 0);
}

#[test]
fn unbounded_shapes_ride_the_budgeted_lane() {
    let sql = |who: &str| format!("SELECT t.photo_id FROM tagging t WHERE t.tagger_id = '{who}'");
    let none = BTreeMap::new();

    let server = photos(AdmissionPolicy::Budgeted(1_000));
    let mut s = server.session();
    let (rows, resp) = served(&mut s, &sql("u1"), &none);
    assert_eq!(rows.len(), 2);
    assert_eq!(resp.stats.lane, Lane::Unbounded);
    assert_eq!(resp.stats.budget, BudgetVerdict::Completed { cap: 1_000 });
    let (rows, resp) = served(&mut s, &sql("u3"), &none);
    assert_eq!(rows, vec![vec![Value::str("p2")]]);
    assert!(
        resp.stats.cache_hit,
        "the unbounded verdict is cached per shape too"
    );

    // A cap too small to finish: no answer, an honest verdict.
    let server = photos(AdmissionPolicy::Budgeted(1));
    let mut s = server.session();
    let resp = s.query_sql("scan", &sql("u1"), &none).unwrap();
    assert!(!resp.finished());
    assert_eq!(resp.stats.budget, BudgetVerdict::Exhausted { cap: 1 });
}
