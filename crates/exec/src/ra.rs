//! Bounded evaluation of certified RA expressions (see [`bcq_core::ra`]).
//!
//! One evaluator, and it plans nothing. [`PreparedRa::prepare`] — one walk
//! in `bcq_core::ra` — certifies an expression and compiles it to a
//! skeleton in which **every** SPC block is a bounded plan, operator
//! program included: an *enumerated* block's own, and a *probed* block's
//! with each projection attribute pinned to a reserved slot,
//! `z_i = ?⟨probe-i⟩`.
//!
//! [`eval_ra_prepared`] walks the skeleton: enumerated blocks run through
//! [`eval_dq_with`], set operations combine rows, and a **membership
//! probe** binds the candidate row's cells to the probe slots of the
//! request's [`ParamEnv`], runs the probed block's plan and tests the
//! answer for emptiness. A class pinned by a constant (or a second
//! projection of the same attribute) as well as by a probe slot must agree
//! with it or the probe answers "not a member" — the template semantics
//! every plan has. [`eval_ra`] is the same path for a ground expression.

use crate::eval_dq::eval_dq_with;
use crate::pipeline::ParamEnv;
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::error::{CoreError, Result};
use bcq_core::plan::QueryPlan;
pub use bcq_core::ra::PreparedRa;
use bcq_core::ra::{RaExpr, RaPlan};
use bcq_storage::{Database, Meter};

/// Result of a bounded RA evaluation.
#[derive(Debug, Clone)]
pub struct RaOutcome {
    /// The exact answer.
    pub result: ResultSet,
    /// Access accounting summed over every plan run — enumerated blocks
    /// and membership probes alike.
    pub meter: Meter,
    /// Membership probes issued (one per candidate per probe block
    /// reached).
    pub probes: u64,
}

/// Evaluates a ground certified RA expression boundedly:
/// [`PreparedRa::prepare`], then one [`eval_ra_prepared`] with nothing
/// bound. Fails with [`CoreError::NotEffectivelyBounded`] if the
/// sufficient condition does not certify `expr`, and with
/// [`CoreError::UnboundParameters`] if a block still has placeholders.
pub fn eval_ra(db: &Database, expr: &RaExpr, a: &AccessSchema) -> Result<RaOutcome> {
    let prepared = PreparedRa::prepare(expr, a)?;
    eval_ra_prepared(db, &prepared, a, &mut ParamEnv::new())
}

/// Executes a prepared RA expression with the request's bindings.
///
/// `params` carries the bindings interned against `db`'s symbol table, as
/// for [`eval_dq_with`]; every slot of [`PreparedRa::param_slots`] must be
/// bound or the call fails with [`CoreError::UnboundParameters`]. The
/// environment is mutable because membership probes bind their reserved
/// slots in it, once per candidate row.
pub fn eval_ra_prepared(
    db: &Database,
    prepared: &PreparedRa,
    a: &AccessSchema,
    params: &mut ParamEnv,
) -> Result<RaOutcome> {
    let missing: Vec<String> = prepared
        .param_slots()
        .iter()
        .filter(|name| params.get(name).is_none())
        .cloned()
        .collect();
    if !missing.is_empty() {
        return Err(CoreError::UnboundParameters(missing));
    }
    let mut walk = Walk {
        db,
        a,
        probe_slots: prepared.probe_slots(),
        meter: Meter::new(),
        probes: 0,
    };
    let result = walk.enumerate(prepared.root(), params)?;
    Ok(RaOutcome {
        result,
        meter: walk.meter,
        probes: walk.probes,
    })
}

/// One request's walk of the skeleton: what every plan run needs, and the
/// accounting every plan run adds to.
struct Walk<'a> {
    db: &'a Database,
    a: &'a AccessSchema,
    probe_slots: &'a [String],
    meter: Meter,
    probes: u64,
}

impl Walk<'_> {
    fn run(&mut self, plan: &QueryPlan, params: &ParamEnv) -> Result<ResultSet> {
        let out = eval_dq_with(self.db, plan, self.a, params)?;
        self.meter.merge(&out.meter);
        Ok(out.result)
    }

    /// The answer of an enumerated node.
    fn enumerate(&mut self, node: &RaPlan, params: &mut ParamEnv) -> Result<ResultSet> {
        match node {
            RaPlan::Spc(plan) => self.run(plan, params),
            RaPlan::Union(l, r) => {
                let mut rows = self.enumerate(l, params)?.rows().to_vec();
                rows.extend_from_slice(self.enumerate(r, params)?.rows());
                Ok(ResultSet::from_rows(rows))
            }
            RaPlan::Filter {
                base,
                probe,
                keep_members,
            } => {
                let candidates = self.enumerate(base, params)?;
                let mut kept = Vec::new();
                for row in candidates.rows() {
                    for (slot, v) in self.probe_slots.iter().zip(row.iter()) {
                        params.bind(slot, self.db.symbols().try_encode(v));
                    }
                    if self.is_member(probe, params)? == *keep_members {
                        kept.push(row.clone());
                    }
                }
                Ok(ResultSet::from_rows(kept))
            }
        }
    }

    /// Does the candidate bound to the probe slots belong to the answer of
    /// the probed node? Bounded per certification.
    fn is_member(&mut self, node: &RaPlan, params: &ParamEnv) -> Result<bool> {
        Ok(match node {
            RaPlan::Spc(plan) => {
                self.probes += 1;
                !self.run(plan, params)?.is_empty()
            }
            RaPlan::Union(l, r) => self.is_member(l, params)? || self.is_member(r, params)?,
            RaPlan::Filter {
                base,
                probe,
                keep_members,
            } => self.is_member(base, params)? && self.is_member(probe, params)? == *keep_members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_dq::eval_dq;
    use crate::ra_oracle::{
        self as fixture, cases, expected_probes, full_scan, photos, ra_oracle, Bindings,
    };
    use bcq_core::prelude::*;
    use std::sync::Arc;

    fn setup() -> (Database, AccessSchema) {
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
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (p, tr, te) in [("p1", "u9", "u0"), ("p4", "u9", "u0")] {
            db.insert("tagging", &[Value::str(p), Value::str(tr), Value::str(te)])
                .unwrap();
        }
        db.build_indexes(&a);
        (db, a)
    }

    fn album_photos(name: &str, album: &str, db: &Database) -> SpcQuery {
        SpcQuery::builder(db.catalog().clone(), name)
            .atom("in_album", "ia")
            .eq_const(("ia", "album_id"), album)
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    fn tagged_photos(name: &str, user: &str, db: &Database) -> SpcQuery {
        SpcQuery::builder(db.catalog().clone(), name)
            .atom("tagging", "t")
            .eq_const(("t", "taggee_id"), user)
            .project(("t", "photo_id"))
            .build()
            .unwrap()
    }

    #[test]
    fn union_of_albums() {
        let (db, a) = setup();
        let e = RaExpr::union(
            RaExpr::Spc(album_photos("a", "a0", &db)),
            RaExpr::Spc(album_photos("b", "a1", &db)),
        );
        let out = eval_ra(&db, &e, &a).unwrap();
        assert_eq!(out.result.len(), 4);
        assert_eq!(out.probes, 0);
    }

    #[test]
    fn difference_probes_memberships() {
        let (db, a) = setup();
        // Photos of a0 in which u0 is NOT tagged: p2, p3 (u0 tagged in p1).
        let e = RaExpr::difference(
            RaExpr::Spc(album_photos("a", "a0", &db)),
            RaExpr::Spc(tagged_photos("t", "u0", &db)),
        );
        let out = eval_ra(&db, &e, &a).unwrap();
        assert_eq!(out.result.len(), 2);
        assert!(out.result.contains(&[Value::str("p2")]));
        assert!(out.result.contains(&[Value::str("p3")]));
        assert_eq!(out.probes, 3, "one probe per a0 photo");
    }

    #[test]
    fn intersection_swaps_orientation_when_needed() {
        let (db, a) = setup();
        // tagged(u0) ∩ album(a0): the left side is not enumerable but the
        // expression is certified and evaluates by enumerating the album.
        let e = RaExpr::intersect(
            RaExpr::Spc(tagged_photos("t", "u0", &db)),
            RaExpr::Spc(album_photos("a", "a0", &db)),
        );
        let out = eval_ra(&db, &e, &a).unwrap();
        assert_eq!(out.result.len(), 1);
        assert!(out.result.contains(&[Value::str("p1")]));
        assert!(out.probes > 0);
    }

    /// Ground expressions, one-shot and prepared, against the full-scan
    /// oracle: answers, and the probe count the oracle's answers imply.
    #[test]
    fn prepared_expression_matches_eval_ra() {
        let (db, a) = photos();
        let cases = cases(db.catalog());
        let none = Bindings::new();
        let mut ground = 0;
        for case in cases.iter().filter(|c| c.bindings == [Bindings::new()]) {
            ground += 1;
            let want = ra_oracle(&db, &case.expr, &a, &none);
            let probes = expected_probes(&db, &case.filters, &a, &none);
            let fresh = eval_ra(&db, &case.expr, &a).unwrap();
            let prepared = PreparedRa::prepare(&case.expr, &a).unwrap();
            assert!(prepared.param_slots().is_empty(), "{}", case.name);
            let served = eval_ra_prepared(&db, &prepared, &a, &mut ParamEnv::new()).unwrap();
            for out in [&fresh, &served] {
                assert_eq!(out.result, want, "{}", case.name);
                assert_eq!(out.probes, probes, "{}", case.name);
            }
        }
        assert!(ground >= 15, "{ground} ground cases");

        // The four basic shapes also fix the fetch count: an album block
        // fetches one tuple per photo, a `tagged` probe (N = 1) one per
        // member.
        for case in &cases[..4] {
            let enumerated = match case.filters.first() {
                Some((base, _)) => base.blocks(),
                None => case.expr.blocks(),
            };
            let mut fetched: usize = enumerated.iter().map(|q| full_scan(&db, q, &a).len()).sum();
            for (base, probe) in &case.filters {
                let both = RaExpr::intersect(base.clone(), probe.clone());
                fetched += ra_oracle(&db, &both, &a, &none).len();
            }
            let out = eval_ra(&db, &case.expr, &a).unwrap();
            assert_eq!(out.meter.tuples_fetched, fetched as u64, "{}", case.name);
        }
    }

    /// Templates: one prepared skeleton, one environment rebound in place
    /// per binding (probe slots of the previous request still in it).
    #[test]
    fn prepared_template_serves_bindings() {
        let (db, a) = photos();
        let mut env = ParamEnv::new();
        let mut templated = 0;
        for case in cases(db.catalog()) {
            if case.bindings == [Bindings::new()] {
                continue;
            }
            templated += 1;
            let prepared = PreparedRa::prepare(&case.expr, &a).unwrap();
            let mut sizes = Vec::new();
            for b in &case.bindings {
                assert!(prepared.param_slots().iter().all(|s| b.contains_key(s)));
                env.rebind(db.symbols(), b);
                let served = eval_ra_prepared(&db, &prepared, &a, &mut env).unwrap();
                assert_eq!(
                    served.result,
                    ra_oracle(&db, &case.expr, &a, b),
                    "{} {b:?}",
                    case.name
                );
                assert_eq!(
                    served.probes,
                    expected_probes(&db, &case.filters, &a, b),
                    "{} {b:?}",
                    case.name
                );
                sizes.push(served.result.len());
            }
            // Photos of ?album in which ?user is NOT tagged: (a0, u0),
            // (a1, u0), (a0, u1), a never-loaded user, a never-loaded album.
            if case.name == "template on both sides" {
                assert_eq!(sizes, [1, 0, 1, 3, 0]);
            }
        }
        assert!(templated >= 4, "{templated} templated cases");
    }

    /// A template is certified once, with its placeholders as closure
    /// seeds, and that certificate must cover every binding. A binding can
    /// only add equalities — one value in two slots merges their `Σ_Q`
    /// classes, a slot bound to the constant already on its class changes
    /// nothing, a different constant empties the answer — and none of that
    /// can take a certificate away. So for every templated case, under its
    /// own bindings and under ones that repeat a value across slots or
    /// repeat a class's constant: the instantiation is certified too, and
    /// the template served with the binding answers what the oracle does.
    #[test]
    fn a_certified_template_certifies_every_instantiation() {
        let (db, a) = photos();
        let cat = db.catalog();
        let block = |rel: &str, alias: &str, pins: &[(&str, &str)], proj: &str| {
            let mut b = SpcQuery::builder(Arc::clone(cat), alias).atom(rel, alias);
            for (attr, v) in pins {
                b = match v.strip_prefix('?') {
                    Some(slot) => b.eq_param((alias, *attr), slot),
                    None => b.eq_const((alias, *attr), *v),
                };
            }
            RaExpr::Spc(b.project((alias, proj)).build().unwrap())
        };
        let album = |pins: &[(&str, &str)]| block("in_album", "ia", pins, "photo_id");
        let tagged = |pins: &[(&str, &str)]| block("tagging", "t", pins, "photo_id");
        let bindings = |rows: &[&[(&str, &str)]]| -> Vec<Bindings> {
            rows.iter()
                .map(|row| {
                    row.iter()
                        .map(|(k, v)| (k.to_string(), Value::str(*v)))
                        .collect()
                })
                .collect()
        };

        let mut templates: Vec<(String, RaExpr, Vec<Bindings>)> = Vec::new();
        for case in cases(cat) {
            if case.bindings == [Bindings::new()] {
                continue;
            }
            // The case's own bindings, then every slot bound to one value.
            let slots = PreparedRa::prepare(&case.expr, &a)
                .unwrap()
                .param_slots()
                .to_vec();
            let mut bs = case.bindings.clone();
            for v in ["a0", "u0", "p1"] {
                bs.push(slots.iter().map(|s| (s.clone(), Value::str(v))).collect());
            }
            templates.push((case.name.to_string(), case.expr, bs));
        }
        templates.push((
            "slot on the class of a constant, enumerated".into(),
            RaExpr::difference(
                album(&[("album_id", "a0"), ("album_id", "?album")]),
                tagged(&[("taggee_id", "?user")]),
            ),
            bindings(&[
                &[("album", "a0"), ("user", "u0")],
                &[("album", "a1"), ("user", "u0")],
                &[("album", "a0"), ("user", "a0")],
            ]),
        ));
        templates.push((
            "slot on the class of a constant, probed".into(),
            RaExpr::intersect(
                album(&[("album_id", "?album")]),
                tagged(&[("taggee_id", "u0"), ("taggee_id", "?user")]),
            ),
            bindings(&[
                &[("album", "a0"), ("user", "u0")],
                &[("album", "a0"), ("user", "u1")],
                &[("album", "u0"), ("user", "u0")],
            ]),
        ));
        templates.push((
            "two probe slots, one value".into(),
            RaExpr::difference(
                album(&[("album_id", "?album")]),
                RaExpr::difference(
                    tagged(&[("taggee_id", "?user")]),
                    tagged(&[("taggee_id", "?other")]),
                ),
            ),
            bindings(&[
                &[("album", "a0"), ("user", "u0"), ("other", "u0")],
                &[("album", "a0"), ("user", "u0"), ("other", "u1")],
                &[("album", "a0"), ("user", "u1"), ("other", "u0")],
            ]),
        ));

        let mut checked = 0;
        for (name, expr, bs) in &templates {
            let report = ra_effectively_bounded(expr, &a);
            assert!(report.effectively_bounded, "{name}: {:?}", report.failure);
            let prepared = PreparedRa::prepare(expr, &a).unwrap();
            for b in bs {
                let ground = fixture::instantiate(expr, b);
                let report = ra_effectively_bounded(&ground, &a);
                assert!(
                    report.effectively_bounded,
                    "{name} {b:?}: {:?}",
                    report.failure
                );
                let want = ra_oracle(&db, expr, &a, b);
                let mut env = ParamEnv::encode(db.symbols(), b);
                let served = eval_ra_prepared(&db, &prepared, &a, &mut env).unwrap();
                assert_eq!(served.result, want, "{name} {b:?}");
                assert_eq!(eval_ra(&db, &ground, &a).unwrap().result, want);
                checked += 1;
            }
        }
        assert!(checked >= 35, "{checked} bindings checked");
    }

    /// Every compiled probe plan, on every row any block of its expression
    /// produces: it answers membership as a full scan of the pinned block
    /// does, and fetches within its own `cost_bound()` (the fixture
    /// satisfies its access schema).
    #[test]
    fn probe_plans_answer_membership_within_their_cost_bound() {
        fn probe_plans<'p>(node: &'p RaPlan, probed: bool, out: &mut Vec<&'p QueryPlan>) {
            match node {
                RaPlan::Spc(plan) if probed => out.push(plan),
                RaPlan::Spc(_) => {}
                RaPlan::Union(l, r) => {
                    probe_plans(l, probed, out);
                    probe_plans(r, probed, out);
                }
                RaPlan::Filter { base, probe, .. } => {
                    probe_plans(base, probed, out);
                    probe_plans(probe, true, out);
                }
            }
        }

        let (db, a) = photos();
        let mut checked = 0;
        for case in cases(db.catalog()) {
            let prepared = PreparedRa::prepare(&case.expr, &a).unwrap();
            let mut plans = Vec::new();
            probe_plans(prepared.root(), false, &mut plans);
            for b in &case.bindings {
                let candidates: Vec<Box<[Value]>> = case
                    .expr
                    .blocks()
                    .iter()
                    .flat_map(|q| full_scan(&db, &q.instantiate(b), &a).rows().to_vec())
                    .collect();
                for (plan, t) in plans
                    .iter()
                    .flat_map(|p| candidates.iter().map(move |t| (p, t)))
                {
                    let mut env = ParamEnv::encode(db.symbols(), b);
                    let mut pinned = b.clone();
                    for (slot, v) in prepared.probe_slots().iter().zip(t.iter()) {
                        env.bind(slot, db.symbols().try_encode(v));
                        pinned.insert(slot.clone(), v.clone());
                    }
                    let out = eval_dq_with(&db, plan, &a, &env).unwrap();
                    assert!(
                        u128::from(out.meter.tuples_fetched) <= plan.cost_bound(),
                        "{} {t:?}: fetched {} > {}",
                        case.name,
                        out.meter.tuples_fetched,
                        plan.cost_bound()
                    );
                    let member = !full_scan(&db, &plan.query().instantiate(&pinned), &a).is_empty();
                    assert_eq!(!out.result.is_empty(), member, "{} {t:?}", case.name);
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "{checked} probes checked");
    }

    /// The outcome's meter is the sum over every plan the walk ran — here
    /// one base fetch through one key and two candidates probing once each
    /// — and `probes` counts the membership probes, not the index's.
    #[test]
    fn outcome_meters_every_plan_it_ran() {
        let (db, a) = photos();
        let friends_of = |user: &str| {
            SpcQuery::builder(db.catalog().clone(), "friends")
                .atom("friends", "f")
                .eq_const(("f", "user_id"), user)
                .project(("f", "friend_id"))
                .build()
                .unwrap()
        };
        let (base, probe) = (friends_of("u0"), friends_of("u9"));
        let run = |q: &SpcQuery| eval_dq(&db, &qplan(q, &a).unwrap(), &a).unwrap();
        let enumerated = run(&base);
        assert_eq!(enumerated.result.len(), 2, "u1 and u2");
        let mut want = enumerated.meter;
        for t in enumerated.result.rows() {
            let pinned = probe.with_constants(&[(probe.projection()[0], t[0].clone())]);
            want.merge(&run(&pinned).meter);
        }
        assert_eq!(want.index_probes, 3);

        let e = RaExpr::difference(RaExpr::Spc(base), RaExpr::Spc(probe));
        let out = eval_ra(&db, &e, &a).unwrap();
        assert_eq!(out.probes, 2);
        assert_eq!(out.meter, want);
    }

    #[test]
    fn missing_and_reserved_slots_are_refused() {
        let (db, a) = photos();
        let cat = db.catalog();
        let e = RaExpr::difference(
            RaExpr::Spc(fixture::album_photos(cat, fixture::Pin::Param("album"))),
            RaExpr::Spc(fixture::tagged_photos(cat, fixture::Pin::Param("user"))),
        );
        // The one-shot entry serves ground expressions only.
        let err = eval_ra(&db, &e, &a).unwrap_err();
        assert_eq!(
            err,
            CoreError::UnboundParameters(vec!["album".into(), "user".into()])
        );
        // A probe-side slot is missed up front, not when a candidate
        // happens to reach its plan (album a2 holds no tagged photo).
        let prepared = PreparedRa::prepare(&e, &a).unwrap();
        let mut env = ParamEnv::new();
        env.bind(
            "album",
            db.symbols().try_encode(&Value::str("never-loaded")),
        );
        let err = eval_ra_prepared(&db, &prepared, &a, &mut env).unwrap_err();
        assert_eq!(err, CoreError::UnboundParameters(vec!["user".into()]));

        let reserved = RaExpr::Spc(fixture::album_photos(cat, fixture::Pin::Param("⟨probe-0⟩")));
        let err = PreparedRa::prepare(&reserved, &a).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)), "{err}");
    }

    #[test]
    fn prepare_rejects_uncertified_expressions() {
        let (db, a) = setup();
        let e = RaExpr::Spc(tagged_photos("t", "u0", &db));
        let err = PreparedRa::prepare(&e, &a).unwrap_err();
        assert!(matches!(err, CoreError::NotEffectivelyBounded(_)));
    }

    #[test]
    fn uncertified_expression_is_rejected() {
        let (db, a) = setup();
        let e = RaExpr::Spc(tagged_photos("t", "u0", &db));
        let err = eval_ra(&db, &e, &a).unwrap_err();
        assert!(matches!(err, CoreError::NotEffectivelyBounded(_)));
    }

    #[test]
    fn nested_difference_matches_manual_set_algebra() {
        let (db, a) = setup();
        // (a0 ∪ a1) \ tagged(u0) = {p2, p3}.
        let e = RaExpr::difference(
            RaExpr::union(
                RaExpr::Spc(album_photos("a", "a0", &db)),
                RaExpr::Spc(album_photos("b", "a1", &db)),
            ),
            RaExpr::Spc(tagged_photos("t", "u0", &db)),
        );
        let out = eval_ra(&db, &e, &a).unwrap();
        assert_eq!(out.result.len(), 2);
        assert!(!out.result.contains(&[Value::str("p1")]));
        assert!(!out.result.contains(&[Value::str("p4")]));
        // Work stays bounded: photos of two albums + one probe each.
        assert!(
            out.meter.tuples_fetched <= 16,
            "{}",
            out.meter.tuples_fetched
        );
    }
}
