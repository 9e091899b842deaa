//! A reference for RA answers that shares nothing with `bcq_exec::ra` — no
//! certification, no plan, no probe: every SPC block runs through the
//! conventional baseline in `FullScan` mode and the set operators are
//! plain set algebra over the resulting rows. With it, the fixture the RA
//! suites share: a small photo-sharing instance and a matrix of
//! expressions covering every shape the evaluator distinguishes.
//!
//! Included by path (`#[path]`) from `bcq-exec`'s unit tests and from the
//! integration tests, so it names the workspace crates directly.
#![allow(dead_code)]

use bcq_core::access::AccessSchema;
use bcq_core::prelude::{Catalog, SpcQuery, Value};
use bcq_core::ra::RaExpr;
use bcq_exec::{baseline, BaselineMode, BaselineOptions, ResultSet};
use bcq_storage::Database;
use std::collections::BTreeMap;
use std::sync::Arc;

pub type Bindings = BTreeMap<String, Value>;

/// `expr`'s answer on `db` under `bindings`, by full scans and set algebra.
pub fn ra_oracle(db: &Database, expr: &RaExpr, a: &AccessSchema, bindings: &Bindings) -> ResultSet {
    let eval = |e: &RaExpr| ra_oracle(db, e, a, bindings);
    let filtered = |l: &RaExpr, r: &RaExpr, keep_members: bool| {
        let members = eval(r);
        let rows = eval(l).rows().to_vec();
        ResultSet::from_rows(
            rows.into_iter()
                .filter(|t| members.contains(t) == keep_members)
                .collect(),
        )
    };
    match expr {
        RaExpr::Spc(q) => full_scan(db, &q.instantiate(bindings), a),
        RaExpr::Union(l, r) => {
            let mut rows = eval(l).rows().to_vec();
            rows.extend_from_slice(eval(r).rows());
            ResultSet::from_rows(rows)
        }
        RaExpr::Intersect(l, r) => filtered(l, r, true),
        RaExpr::Difference(l, r) => filtered(l, r, false),
    }
}

/// `expr` with every block's placeholders bound from `bindings`.
pub fn instantiate(expr: &RaExpr, bindings: &Bindings) -> RaExpr {
    let sub = |e: &RaExpr| instantiate(e, bindings);
    match expr {
        RaExpr::Spc(q) => RaExpr::Spc(q.instantiate(bindings)),
        RaExpr::Union(l, r) => RaExpr::union(sub(l), sub(r)),
        RaExpr::Intersect(l, r) => RaExpr::intersect(sub(l), sub(r)),
        RaExpr::Difference(l, r) => RaExpr::difference(sub(l), sub(r)),
    }
}

/// One ground SPC block by full scans.
pub fn full_scan(db: &Database, q: &SpcQuery, a: &AccessSchema) -> ResultSet {
    let opts = BaselineOptions {
        mode: BaselineMode::FullScan,
        work_budget: None,
    };
    baseline(db, q, a, opts)
        .expect("full scan evaluates any ground block")
        .result()
        .expect("no budget")
        .clone()
}

/// Membership probes a bounded evaluation of `filters` must issue, derived
/// from oracle answers only: for every `(base, probe)` pair, one probe per
/// candidate in the base's answer per SPC block of the probe side that the
/// set operators reach (`∪` stops at the first member, `∩` and `\` at the
/// first non-member on the left).
pub fn expected_probes(
    db: &Database,
    filters: &[(RaExpr, RaExpr)],
    a: &AccessSchema,
    bindings: &Bindings,
) -> u64 {
    fn reached(answers: &dyn Fn(&RaExpr) -> ResultSet, e: &RaExpr, t: &[Value]) -> (bool, u64) {
        match e {
            RaExpr::Spc(_) => (answers(e).contains(t), 1),
            RaExpr::Union(l, r) | RaExpr::Intersect(l, r) | RaExpr::Difference(l, r) => {
                let (lm, ln) = reached(answers, l, t);
                if lm == matches!(e, RaExpr::Union(..)) {
                    return (lm, ln);
                }
                let (rm, rn) = reached(answers, r, t);
                (rm != matches!(e, RaExpr::Difference(..)), ln + rn)
            }
        }
    }
    let answers = |e: &RaExpr| ra_oracle(db, e, a, bindings);
    let mut probes = 0;
    for (base, probe) in filters {
        for t in ra_oracle(db, base, a, bindings).rows() {
            probes += reached(&answers, probe, t).1;
        }
    }
    probes
}

/// The photo-sharing schema of the paper's Example 1 under access schema
/// `A0`, loaded and indexed. `tagging`'s constraint has `N = 1`: at most
/// one tagger per (photo, taggee).
pub fn photos() -> (Database, AccessSchema) {
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
    let mut db = Database::new(catalog);
    let s = Value::str;
    for (p, al) in [
        ("p1", "a0"),
        ("p2", "a0"),
        ("p3", "a0"),
        ("p3", "a1"),
        ("p4", "a1"),
        ("p5", "a2"),
    ] {
        db.insert("in_album", &[s(p), s(al)]).unwrap();
    }
    for (p, tagger, taggee) in [
        ("p1", "u9", "u0"),
        ("p3", "u8", "u0"),
        ("p4", "u9", "u0"),
        ("p2", "u7", "u1"),
        ("p3", "u7", "u1"),
    ] {
        db.insert("tagging", &[s(p), s(tagger), s(taggee)]).unwrap();
    }
    for (u, f) in [
        ("u0", "u1"),
        ("u0", "u2"),
        ("u1", "u0"),
        ("u2", "u3"),
        ("u9", "u3"),
    ] {
        db.insert("friends", &[s(u), s(f)]).unwrap();
    }
    db.build_indexes(&a);
    (db, a)
}

/// A constant or a `?placeholder` in a fixture block.
#[derive(Clone, Copy)]
pub enum Pin {
    Const(&'static str),
    Param(&'static str),
}

/// `π_photo σ_{album = pin}(in_album)` — enumerable under `A0`.
pub fn album_photos(catalog: &Arc<Catalog>, album: Pin) -> SpcQuery {
    let b = SpcQuery::builder(Arc::clone(catalog), "album").atom("in_album", "ia");
    match album {
        Pin::Const(c) => b.eq_const(("ia", "album_id"), c),
        Pin::Param(p) => b.eq_param(("ia", "album_id"), p),
    }
    .project(("ia", "photo_id"))
    .build()
    .unwrap()
}

/// `π_photo σ_{taggee = pin}(tagging)` — not enumerable under `A0` (no
/// index keyed on the taggee alone), but membership-checkable: given a
/// photo, (photo, taggee) is the tagging index key.
pub fn tagged_photos(catalog: &Arc<Catalog>, taggee: Pin) -> SpcQuery {
    let b = SpcQuery::builder(Arc::clone(catalog), "tagged").atom("tagging", "t");
    match taggee {
        Pin::Const(c) => b.eq_const(("t", "taggee_id"), c),
        Pin::Param(p) => b.eq_param(("t", "taggee_id"), p),
    }
    .project(("t", "photo_id"))
    .build()
    .unwrap()
}

/// How a one-filter case combines its base with its probe side:
/// `base \ probe`, `base ∩ probe`, or `probe ∩ base`.
#[derive(Clone, Copy)]
enum Op {
    Minus,
    And,
    AndFlipped,
}

/// One expression of the matrix.
pub struct Case {
    pub name: &'static str,
    pub expr: RaExpr,
    /// The `(base, probe)` pairs a bounded evaluation filters through, for
    /// [`expected_probes`]; empty when nothing is probed.
    pub filters: Vec<(RaExpr, RaExpr)>,
    /// The bindings to serve it with (`[{}]` for a ground expression).
    pub bindings: Vec<Bindings>,
}

fn bind(pairs: &[(&str, &str)]) -> Bindings {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), Value::str(*v)))
        .collect()
}

/// The expression matrix over [`photos`]: ground and templated, every set
/// operator on the enumerated and on the probed side, and the probe's
/// corner cases.
pub fn cases(catalog: &Arc<Catalog>) -> Vec<Case> {
    use Op::{And, AndFlipped, Minus};
    use Pin::{Const, Param};
    let album = |pin| RaExpr::Spc(album_photos(catalog, pin));
    let tagged = |pin| RaExpr::Spc(tagged_photos(catalog, pin));
    let ground = vec![Bindings::new()];
    // One filter over one base, as one case.
    let filter = |name, base: RaExpr, probe: RaExpr, op: Op, bindings: &Vec<Bindings>| Case {
        name,
        expr: match op {
            Minus => RaExpr::difference(base.clone(), probe.clone()),
            And => RaExpr::intersect(base.clone(), probe.clone()),
            AndFlipped => RaExpr::intersect(probe.clone(), base.clone()),
        },
        filters: vec![(base, probe)],
        bindings: bindings.clone(),
    };

    // π_{photo, taggee}-style blocks for the arity-2 and corner cases.
    let tagged_where = |preds: &[(&str, &str)], proj: &[&str]| {
        let mut b = SpcQuery::builder(Arc::clone(catalog), "tagged*").atom("tagging", "t");
        for (attr, v) in preds {
            b = b.eq_const(("t", attr), *v);
        }
        for attr in proj {
            b = b.project(("t", attr));
        }
        RaExpr::Spc(b.build().unwrap())
    };
    let album_cols = |proj: &[&str]| {
        let mut b = SpcQuery::builder(Arc::clone(catalog), "album*")
            .atom("in_album", "ia")
            .eq_const(("ia", "album_id"), "a0");
        for attr in proj {
            b = b.project(("ia", attr));
        }
        RaExpr::Spc(b.build().unwrap())
    };
    // Edges out of ?who, and the reversed edge relation: mutual friends.
    let edges_of = |who| {
        let b = SpcQuery::builder(Arc::clone(catalog), "edges").atom("friends", "f");
        let b = match who {
            Const(c) => b.eq_const(("f", "user_id"), c),
            Param(p) => b.eq_param(("f", "user_id"), p),
        };
        RaExpr::Spc(
            b.project(("f", "user_id"))
                .project(("f", "friend_id"))
                .build()
                .unwrap(),
        )
    };
    let reversed_edges = RaExpr::Spc(
        SpcQuery::builder(Arc::clone(catalog), "reversed")
            .atom("friends", "g")
            .project(("g", "friend_id"))
            .project(("g", "user_id"))
            .build()
            .unwrap(),
    );

    let album_user = vec![
        bind(&[("album", "a0"), ("user", "u0")]),
        bind(&[("album", "a1"), ("user", "u0")]),
        bind(&[("album", "a0"), ("user", "u1")]),
        bind(&[("album", "a0"), ("user", "never-loaded")]),
        bind(&[("album", "never-loaded"), ("user", "u0")]),
    ];
    let users = vec![bind(&[("user", "u0")]), bind(&[("user", "u1")])];

    vec![
        Case {
            name: "union",
            expr: RaExpr::union(album(Const("a0")), album(Const("a1"))),
            filters: Vec::new(),
            bindings: ground.clone(),
        },
        filter(
            "difference",
            album(Const("a0")),
            tagged(Const("u0")),
            Minus,
            &ground,
        ),
        filter(
            "intersection, base left",
            album(Const("a0")),
            tagged(Const("u0")),
            And,
            &ground,
        ),
        filter(
            "intersection, base right",
            album(Const("a0")),
            tagged(Const("u0")),
            AndFlipped,
            &ground,
        ),
        filter(
            "union on the enumerated side",
            RaExpr::union(album(Const("a0")), album(Const("a1"))),
            tagged(Const("u0")),
            Minus,
            &ground,
        ),
        filter(
            "difference on the probe side",
            album(Const("a0")),
            RaExpr::difference(tagged(Const("u0")), tagged(Const("u1"))),
            Minus,
            &ground,
        ),
        filter(
            "union on the probe side",
            album(Const("a0")),
            RaExpr::union(tagged(Const("u0")), tagged(Const("u1"))),
            And,
            &ground,
        ),
        filter(
            "intersection on the probe side",
            album(Const("a0")),
            RaExpr::intersect(tagged(Const("u0")), tagged(Const("u1"))),
            Minus,
            &ground,
        ),
        Case {
            name: "difference of a difference",
            expr: RaExpr::difference(
                RaExpr::difference(album(Const("a0")), tagged(Const("u1"))),
                tagged(Const("u0")),
            ),
            filters: vec![
                (album(Const("a0")), tagged(Const("u1"))),
                (
                    RaExpr::difference(album(Const("a0")), tagged(Const("u1"))),
                    tagged(Const("u0")),
                ),
            ],
            bindings: ground.clone(),
        },
        filter(
            "template on both sides",
            album(Param("album")),
            tagged(Param("user")),
            Minus,
            &album_user,
        ),
        filter(
            "template, intersection",
            album(Param("album")),
            tagged(Param("user")),
            AndFlipped,
            &album_user,
        ),
        filter(
            "placeholder on the probe side only",
            album(Const("a0")),
            tagged(Param("user")),
            Minus,
            &users,
        ),
        filter(
            "probe pins its projection to a constant",
            album(Const("a0")),
            tagged_where(&[("photo_id", "p1"), ("taggee_id", "u0")], &["photo_id"]),
            Minus,
            &ground,
        ),
        filter(
            "probe pins its projection, intersection",
            album(Const("a0")),
            tagged_where(&[("photo_id", "p3"), ("taggee_id", "u0")], &["photo_id"]),
            And,
            &ground,
        ),
        filter(
            "probe constant never interned",
            album(Const("a0")),
            tagged(Const("never-loaded")),
            Minus,
            &ground,
        ),
        filter(
            "probe constant never interned, intersection",
            album(Const("a0")),
            tagged(Const("never-loaded")),
            And,
            &ground,
        ),
        filter(
            "same attribute projected twice, agreeing",
            album_cols(&["photo_id", "photo_id"]),
            tagged_where(&[("taggee_id", "u0")], &["photo_id", "photo_id"]),
            And,
            &ground,
        ),
        filter(
            "same attribute projected twice, disagreeing",
            album_cols(&["photo_id", "album_id"]),
            tagged_where(&[("taggee_id", "u0")], &["photo_id", "photo_id"]),
            Minus,
            &ground,
        ),
        filter(
            "arity 2",
            album_cols(&["photo_id", "album_id"]),
            tagged_where(&[("taggee_id", "u0")], &["photo_id", "taggee_id"]),
            Minus,
            &ground,
        ),
        filter(
            "arity 2, mutual friends",
            edges_of(Const("u0")),
            reversed_edges.clone(),
            And,
            &ground,
        ),
        filter(
            "arity 2, template",
            edges_of(Param("user")),
            reversed_edges,
            Minus,
            &users,
        ),
    ]
}
