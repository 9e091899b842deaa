//! Bounded evaluation of certified RA expressions (see [`bcq_core::ra`]).
//!
//! One evaluator, and it plans nothing per request.
//! [`PreparedRa::prepare`] certifies the expression and compiles it to a
//! skeleton in which **every** SPC block is a bounded plan, operator
//! program included:
//!
//! * an *enumerable* block compiles to its (parameterized) plan as is;
//! * a block on the *probe* side of a difference or intersection compiles
//!   to the plan of the block with each projection attribute pinned to a
//!   reserved slot, `z_i = ?⟨probe-i⟩`. Whether `Q(Z = t)` is effectively
//!   bounded depends on which attributes are pinned, never on `t`
//!   (Section 4.3), so that one plan answers membership for every
//!   candidate — and it exists exactly when the certification's
//!   [`membership_checkable`] holds, both seeding the closure with the
//!   projection classes.
//!
//! [`eval_ra_prepared`] walks the skeleton: enumerable blocks run through
//! [`eval_dq_with`], set operations combine rows, and a **membership
//! probe** binds the candidate row's cells to the probe slots of the
//! request's [`ParamEnv`], runs the probe block's plan and tests the answer
//! for emptiness. A class pinned by a constant (or a second projection of
//! the same attribute) as well as by a probe slot must agree with it or the
//! probe answers "not a member" — the template semantics every plan has.
//! [`eval_ra`] is the same path for a ground expression.

use crate::eval_dq::eval_dq_with;
use crate::pipeline::ParamEnv;
use crate::results::ResultSet;
use bcq_core::access::AccessSchema;
use bcq_core::error::{CoreError, Result};
use bcq_core::plan::QueryPlan;
use bcq_core::prelude::{SpcQuery, Value};
use bcq_core::qplan::qplan_template;
use bcq_core::ra::{membership_checkable, ra_effectively_bounded, RaExpr};
use bcq_storage::{Database, Meter};
use std::collections::BTreeMap;

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

/// Prefix of the reserved slot names membership probes bind candidate rows
/// under; no placeholder of a prepared expression may start with it.
const PROBE_SLOT_PREFIX: &str = "⟨probe-";

/// A certified RA expression compiled for repeated execution: the
/// evaluation skeleton with the intersection orientation resolved and a
/// parameterized bounded plan for every SPC block, enumerated or probed.
/// Execution ([`eval_ra_prepared`]) walks it with zero certification or
/// planning work.
#[derive(Debug, Clone)]
pub struct PreparedRa {
    root: Node,
    /// The placeholders of every block, in first-use order.
    slots: Vec<String>,
    /// The reserved slots a probe binds the candidate row under, one per
    /// output column.
    probe_slots: Vec<String>,
}

/// The enumerated part of the skeleton. Plans are boxed: a `QueryPlan`
/// (with its compiled program) dwarfs the other variants.
#[derive(Debug, Clone)]
enum Node {
    /// An enumerable block.
    Enum(Box<QueryPlan>),
    /// Union of two enumerated sides.
    Union(Box<Node>, Box<Node>),
    /// Enumerate `base`; keep rows whose membership in `probe` matches
    /// `keep_members` (intersection with the orientation already chosen,
    /// or difference).
    Filter {
        base: Box<Node>,
        probe: Probe,
        keep_members: bool,
    },
}

/// The probed part: membership of one candidate row, combined per the set
/// operators.
#[derive(Debug, Clone)]
enum Probe {
    /// A block with its projection pinned to the probe slots: the
    /// candidate is a member iff the plan's answer is non-empty.
    Spc(Box<QueryPlan>),
    Union(Box<Probe>, Box<Probe>),
    Intersect(Box<Probe>, Box<Probe>),
    Difference(Box<Probe>, Box<Probe>),
}

impl PreparedRa {
    /// Certifies and compiles `expr` under `a`. Fails with
    /// [`CoreError::NotEffectivelyBounded`] if the sufficient condition of
    /// [`ra_effectively_bounded`] does not certify the (instantiated)
    /// expression.
    pub fn prepare(expr: &RaExpr, a: &AccessSchema) -> Result<Self> {
        expr.validate()?;
        let mut slots: Vec<String> = Vec::new();
        for name in expr.blocks().iter().flat_map(|q| q.placeholder_names()) {
            if !slots.contains(&name) {
                slots.push(name);
            }
        }
        if let Some(reserved) = slots.iter().find(|n| n.starts_with(PROBE_SLOT_PREFIX)) {
            return Err(CoreError::Invalid(format!(
                "parameter name `{reserved}` is reserved for membership probes"
            )));
        }
        // Analysis (certification + orientation) runs on a ground shape:
        // the expression itself when it has no slots, else a sentinel
        // instantiation with a distinct value per slot. Certification
        // depends only on *which* attributes are pinned, never on the
        // values, and a binding that repeats a value across slots only
        // merges `Σ_Q` classes, which can never un-certify — so that
        // certificate covers every future binding.
        let sentinel_ground = (!slots.is_empty()).then(|| {
            let sentinels: BTreeMap<String, Value> = slots
                .iter()
                .enumerate()
                .map(|(i, name)| (name.clone(), Value::str(format!("\u{1}slot-{i}"))))
                .collect();
            instantiate(expr, &sentinels)
        });
        let analyzed = sentinel_ground.as_ref().unwrap_or(expr);
        let report = ra_effectively_bounded(analyzed, a);
        if !report.effectively_bounded {
            return Err(CoreError::NotEffectivelyBounded(
                report.failure.unwrap_or_default(),
            ));
        }
        let probe_slots: Vec<String> = (0..expr.arity())
            .map(|i| format!("{PROBE_SLOT_PREFIX}{i}⟩"))
            .collect();
        Ok(PreparedRa {
            root: prepare_node(expr, analyzed, a, &probe_slots)?,
            slots,
            probe_slots,
        })
    }

    /// Parameter slots a request must bind: the placeholders of every
    /// block (a template can spread them over both sides of a set
    /// operation), in first-use order.
    pub fn param_slots(&self) -> &[String] {
        &self.slots
    }
}

/// The bounded plan of one block, operator program compiled.
fn compile(q: &SpcQuery, a: &AccessSchema) -> Result<Box<QueryPlan>> {
    let plan = qplan_template(q, a)?;
    plan.program();
    Ok(Box::new(plan))
}

/// Builds the enumerated skeleton, walking the template and its analyzed
/// (ground) shape in lockstep: plans are compiled from the template
/// (placeholders become plan slots), orientation decisions are made on the
/// ground shape.
fn prepare_node(
    expr: &RaExpr,
    ground: &RaExpr,
    a: &AccessSchema,
    probe_slots: &[String],
) -> Result<Node> {
    match (expr, ground) {
        (RaExpr::Spc(q), RaExpr::Spc(_)) => Ok(Node::Enum(compile(q, a)?)),
        (RaExpr::Union(l, r), RaExpr::Union(gl, gr)) => Ok(Node::Union(
            Box::new(prepare_node(l, gl, a, probe_slots)?),
            Box::new(prepare_node(r, gr, a, probe_slots)?),
        )),
        (RaExpr::Intersect(l, r), RaExpr::Intersect(gl, gr)) => {
            // Enumerate whichever side is enumerable with every block of
            // the other probeable (mirror of the checker's orientation
            // logic).
            let probeable = |q: &&SpcQuery| membership_checkable(q, a).effectively_bounded;
            let l_ok = ra_effectively_bounded(gl, a).effectively_bounded
                && gr.blocks().iter().all(probeable);
            let (base, gbase, probe) = if l_ok { (l, gl, r) } else { (r, gr, l) };
            Ok(Node::Filter {
                base: Box::new(prepare_node(base, gbase, a, probe_slots)?),
                probe: prepare_probe(probe, a, probe_slots)?,
                keep_members: true,
            })
        }
        (RaExpr::Difference(l, r), RaExpr::Difference(gl, _gr)) => Ok(Node::Filter {
            base: Box::new(prepare_node(l, gl, a, probe_slots)?),
            probe: prepare_probe(r, a, probe_slots)?,
            keep_members: false,
        }),
        _ => unreachable!("template and its instantiation share one shape"),
    }
}

/// Compiles a probe side: every block planned with its `i`-th projection
/// attribute pinned to the `i`-th probe slot.
fn prepare_probe(expr: &RaExpr, a: &AccessSchema, probe_slots: &[String]) -> Result<Probe> {
    let sub = |e: &RaExpr| prepare_probe(e, a, probe_slots).map(Box::new);
    Ok(match expr {
        RaExpr::Spc(q) => {
            let pins: Vec<_> = q
                .projection()
                .iter()
                .copied()
                .zip(probe_slots.iter().map(String::as_str))
                .collect();
            Probe::Spc(compile(&q.with_params(&pins), a)?)
        }
        RaExpr::Union(l, r) => Probe::Union(sub(l)?, sub(r)?),
        RaExpr::Intersect(l, r) => Probe::Intersect(sub(l)?, sub(r)?),
        RaExpr::Difference(l, r) => Probe::Difference(sub(l)?, sub(r)?),
    })
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
        .slots
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
        probe_slots: &prepared.probe_slots,
        meter: Meter::new(),
        probes: 0,
    };
    let result = walk.enumerate(&prepared.root, params)?;
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

    fn enumerate(&mut self, node: &Node, params: &mut ParamEnv) -> Result<ResultSet> {
        match node {
            Node::Enum(plan) => self.run(plan, params),
            Node::Union(l, r) => {
                let mut rows = self.enumerate(l, params)?.rows().to_vec();
                rows.extend_from_slice(self.enumerate(r, params)?.rows());
                Ok(ResultSet::from_rows(rows))
            }
            Node::Filter {
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

    /// Does the candidate bound to the probe slots belong to `probe`'s
    /// answer? Bounded per certification.
    fn is_member(&mut self, probe: &Probe, params: &ParamEnv) -> Result<bool> {
        Ok(match probe {
            Probe::Spc(plan) => {
                self.probes += 1;
                !self.run(plan, params)?.is_empty()
            }
            Probe::Union(l, r) => self.is_member(l, params)? || self.is_member(r, params)?,
            Probe::Intersect(l, r) => self.is_member(l, params)? && self.is_member(r, params)?,
            Probe::Difference(l, r) => self.is_member(l, params)? && !self.is_member(r, params)?,
        })
    }
}

/// Instantiates every block's placeholders from `bindings`.
fn instantiate(expr: &RaExpr, bindings: &BTreeMap<String, Value>) -> RaExpr {
    match expr {
        RaExpr::Spc(q) => RaExpr::Spc(q.instantiate(bindings)),
        RaExpr::Union(l, r) => RaExpr::union(instantiate(l, bindings), instantiate(r, bindings)),
        RaExpr::Intersect(l, r) => {
            RaExpr::intersect(instantiate(l, bindings), instantiate(r, bindings))
        }
        RaExpr::Difference(l, r) => {
            RaExpr::difference(instantiate(l, bindings), instantiate(r, bindings))
        }
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

    /// Every compiled probe plan, on every row any block of its expression
    /// produces: it answers membership as a full scan of the pinned block
    /// does, and fetches within its own `cost_bound()` (the fixture
    /// satisfies its access schema).
    #[test]
    fn probe_plans_answer_membership_within_their_cost_bound() {
        fn probe_plans<'p>(node: &'p Node, out: &mut Vec<&'p QueryPlan>) {
            fn leaves<'p>(probe: &'p Probe, out: &mut Vec<&'p QueryPlan>) {
                match probe {
                    Probe::Spc(plan) => out.push(plan),
                    Probe::Union(l, r) | Probe::Intersect(l, r) | Probe::Difference(l, r) => {
                        leaves(l, out);
                        leaves(r, out);
                    }
                }
            }
            match node {
                Node::Enum(_) => {}
                Node::Union(l, r) => {
                    probe_plans(l, out);
                    probe_plans(r, out);
                }
                Node::Filter { base, probe, .. } => {
                    probe_plans(base, out);
                    leaves(probe, out);
                }
            }
        }

        let (db, a) = photos();
        let mut checked = 0;
        for case in cases(db.catalog()) {
            let prepared = PreparedRa::prepare(&case.expr, &a).unwrap();
            let mut plans = Vec::new();
            probe_plans(&prepared.root, &mut plans);
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
                    for (slot, v) in prepared.probe_slots.iter().zip(t.iter()) {
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
