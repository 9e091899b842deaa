//! Algorithm `QPlan` (Section 5.1): generating bounded query plans.
//!
//! For an effectively bounded query, Theorem 4 guarantees a proof
//! `X_C ↦_IE (X^i_Q, M_i)` for every atom `S_i`. `QPlan` materializes those
//! proofs as a DAG of index fetches:
//!
//! 1. Compute the access closure of `X_C` with minimal bounds and provenance
//!    ([`crate::deduce`]).
//! 2. For each atom, choose an **anchor** constraint — a witness that
//!    `X^i_Q` is indexed — minimizing the estimated fetch bound (the greedy
//!    stand-in for the NP-complete minimum-`D_Q` problem of Section 5.2).
//! 3. Replay the provenance of every class the anchors' keys depend on into
//!    [`FetchStep`]s, sharing steps between atoms (the paper's `X_C^{min+}`
//!    object set collapses equivalent proofs the same way).
//!
//! The result fetches at most `Σ M_i` tuples on any `D |= A` — compare
//! Example 10, where `Q0`'s plan fetches `T1`(≤1000) + `T2`(≤5000) +
//! `T3`(≤1000) = 7000 tuples.
//!
//! Complexity: dominated by the closure computation plus one pass over
//! constraints per atom — comfortably within the paper's `O(|Q|^2 |A|^3)`.

use crate::access::{AccessSchema, ConstraintId};
use crate::deduce::{Closure, GammaEntry, Provenance};
use crate::ebcheck::analyze;
use crate::error::{CoreError, Result};
use crate::plan::{FetchKind, FetchStep, KeySource, QueryPlan, StepId};
use crate::query::{QAttr, SpcQuery};
use crate::sigma::{ClassId, Sigma};
use std::collections::{BTreeSet, HashMap};

/// Generates a bounded query plan for `q` under `a`.
///
/// Fails with [`CoreError::NotEffectivelyBounded`] (with a per-atom
/// diagnosis) if no plan exists, and with [`CoreError::UnboundParameters`]
/// if the query template still has placeholders. Use [`qplan_template`] to
/// compile a template with placeholders into a parameterized plan.
pub fn qplan(q: &SpcQuery, a: &AccessSchema) -> Result<QueryPlan> {
    q.require_ground()?;
    plan_inner(q, a)
}

/// Generates a **parameterized** bounded plan for a query template.
///
/// Placeholders (`S[A] = ?name`) are treated as constants whose values
/// arrive at execution time: their classes seed the access closure exactly
/// like `X_C` (effective boundedness of the instantiated query depends only
/// on *which* attributes are instantiated, not on the values — the same
/// property the dominating-parameter search exploits), and key columns
/// pinned by a placeholder become [`KeySource::Param`] slots in the plan.
/// Planning with each placeholder as its *own* class is conservative: a
/// binding that happens to repeat a value across placeholders only adds
/// equalities, never removes answers the plan would miss.
///
/// On a ground query this is identical to [`qplan`]. The resulting plan
/// must be executed with a binding for every slot (`eval_dq_with` in
/// `bcq-exec`); `eval_dq` rejects parameterized plans it is given without
/// bindings.
pub fn qplan_template(q: &SpcQuery, a: &AccessSchema) -> Result<QueryPlan> {
    plan_inner(q, a)
}

fn plan_inner(q: &SpcQuery, a: &AccessSchema) -> Result<QueryPlan> {
    let sigma = Sigma::build(q);
    if !sigma.is_satisfiable() {
        return Ok(QueryPlan::new(
            q.clone(),
            sigma,
            Vec::new(),
            Vec::new(),
            true,
        ));
    }

    // Classes pinned by a placeholder but not by a constant: bound at
    // execution time, so they seed the closure like constants do.
    let param_classes: Vec<ClassId> = (0..sigma.num_classes())
        .map(ClassId)
        .filter(|id| {
            let c = sigma.class(*id);
            !c.placeholders.is_empty() && c.constant.is_none()
        })
        .collect();

    // EBCheck's proof — `Γ`, the closure of `X_C` and the placeholder
    // classes, each atom's `X^i_Q` — is the object the plan materializes.
    let (report, gamma, closure) = analyze(q, &sigma, a, &param_classes);
    if !report.effectively_bounded {
        let why = report
            .first_failure(q)
            .unwrap_or_else(|| "effective boundedness check failed".to_string());
        return Err(CoreError::NotEffectivelyBounded(why));
    }

    let mut b = PlanBuilder {
        q,
        a,
        sigma: &sigma,
        closure: &closure,
        gamma: &gamma,
        steps: Vec::new(),
        memo: HashMap::new(),
    };

    let mut anchors = Vec::with_capacity(q.num_atoms());
    for (atom, diagnosis) in report.per_atom.iter().enumerate() {
        let xq = &diagnosis.xq;
        let sid = if xq.is_empty() {
            b.any_step(atom)
        } else {
            let rel = q.relation_of(atom);
            let mut best: Option<(u128, ConstraintId)> = None;
            for cid in a.covering_constraints(rel, xq) {
                let est = b.estimate(atom, cid);
                if best.is_none_or(|(e, _)| est < e) {
                    best = Some((est, cid));
                }
            }
            let (_, cid) = best.expect("EBCheck certified an index witness");
            b.step_for(atom, cid)
        };
        b.steps[sid.0].is_anchor = true;
        anchors.push(sid);
    }

    let steps = std::mem::take(&mut b.steps);
    drop(b);
    Ok(QueryPlan::new(q.clone(), sigma, steps, anchors, false))
}

struct PlanBuilder<'a> {
    q: &'a SpcQuery,
    a: &'a AccessSchema,
    sigma: &'a Sigma,
    closure: &'a Closure,
    gamma: &'a [GammaEntry],
    steps: Vec<FetchStep>,
    memo: HashMap<(usize, ConstraintId), StepId>,
}

impl PlanBuilder<'_> {
    fn class_of(&self, atom: usize, col: usize) -> ClassId {
        self.sigma
            .class_of_flat(self.q.flat_id(QAttr::new(atom, col)))
    }

    /// Greedy cost estimate of anchoring `atom` on `cid`:
    /// `N · Π (minimal class bound of each distinct premise class)`.
    fn estimate(&self, atom: usize, cid: ConstraintId) -> u128 {
        let c = self.a.constraint(cid);
        let mut classes: Vec<ClassId> = c.x().iter().map(|&col| self.class_of(atom, col)).collect();
        classes.sort_unstable();
        classes.dedup();
        let mut est = u128::from(c.n());
        for cls in classes {
            let b = self
                .closure
                .bound_of(cls)
                .expect("anchor premises are in the closure");
            est = est.saturating_mul(b);
        }
        est
    }

    /// The key source for a class: a constant if instantiated, a parameter
    /// slot if placeholder-pinned, otherwise a column of the (memoized)
    /// step replaying its provenance entry.
    fn source_for_class(&mut self, class: ClassId) -> KeySource {
        let info = self.sigma.class(class);
        if let Some(v) = &info.constant {
            return KeySource::Const(v.clone());
        }
        if let Some(name) = info.placeholders.first() {
            return KeySource::Param(name.clone());
        }
        match self
            .closure
            .provenance_of(class)
            .expect("key class must be in the closure")
        {
            Provenance::Seed => unreachable!("non-constant seeds do not occur in qplan"),
            Provenance::Entry(ei) => {
                let e = &self.gamma[ei];
                let (atom, cid) = (e.atom, e.constraint);
                let sid = self.step_for(atom, cid);
                let col = self.steps[sid.0]
                    .col_of_class(class)
                    .expect("provenance step materializes its output classes");
                KeySource::Column { step: sid, col }
            }
        }
    }

    /// Creates (or reuses) the fetch step probing `cid`'s index on `atom`.
    fn step_for(&mut self, atom: usize, cid: ConstraintId) -> StepId {
        if let Some(&sid) = self.memo.get(&(atom, cid)) {
            return sid;
        }
        let c = self.a.constraint(cid).clone();
        let mut key = Vec::with_capacity(c.x().len());
        let mut src_steps: BTreeSet<StepId> = BTreeSet::new();
        for &col in c.x() {
            let class = self.class_of(atom, col);
            let src = self.source_for_class(class);
            if let KeySource::Column { step, .. } = &src {
                src_steps.insert(*step);
            }
            key.push((col, src));
        }
        // Keys from the same source step arrive as row-wise combinations
        // (bounded by that step's bound); across steps and constants they
        // multiply — the Transitivity/Combination arithmetic of I_E.
        let mut bound = u128::from(c.n());
        for s in &src_steps {
            bound = bound.saturating_mul(self.steps[s.0].bound);
        }
        let out_cols = c.covered();
        let out_classes = out_cols
            .iter()
            .map(|&col| self.class_of(atom, col))
            .collect();
        let sid = StepId(self.steps.len());
        self.steps.push(FetchStep {
            id: sid,
            atom,
            constraint: Some(cid),
            kind: FetchKind::IndexLookup,
            key,
            out_cols,
            out_classes,
            bound,
            is_anchor: false,
        });
        self.memo.insert((atom, cid), sid);
        sid
    }

    /// A 1-tuple emptiness witness for an atom with no parameters.
    fn any_step(&mut self, atom: usize) -> StepId {
        let sid = StepId(self.steps.len());
        self.steps.push(FetchStep {
            id: sid,
            atom,
            constraint: None,
            kind: FetchKind::Any,
            key: Vec::new(),
            out_cols: Vec::new(),
            out_classes: Vec::new(),
            bound: 1,
            is_anchor: false,
        });
        sid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KeySource;
    use crate::query::fixtures::{a0, photos_catalog, q0, q1};
    use crate::schema::Catalog;
    use crate::value::Value;

    #[test]
    fn q0_plan_matches_example_10() {
        let plan = qplan(&q0(), &a0()).unwrap();
        // Three steps: in_album by constant, friends by constant, tagging
        // keyed by (photo_id in T_album, taggee_id = "u0").
        assert_eq!(plan.steps().len(), 3);
        let tagging = plan.anchor_of_atom(2);
        assert_eq!(tagging.key.len(), 2);
        let mut has_const = false;
        let mut has_column = false;
        for (_, src) in &tagging.key {
            match src {
                KeySource::Const(v) => {
                    has_const = true;
                    assert_eq!(v, &Value::str("u0"));
                }
                KeySource::Column { step, .. } => {
                    has_column = true;
                    // Values come from the in_album step.
                    assert_eq!(plan.steps()[step.0].atom, 0);
                }
                KeySource::Param(name) => panic!("ground plan has no param slot ?{name}"),
            }
        }
        assert!(has_const && has_column);
        assert_eq!(tagging.bound, 1000);
    }

    #[test]
    fn template_plan_has_param_slots() {
        // Q1 (the ?aid/?uid template) is not plannable ground, but compiles
        // to a parameterized plan whose key sources carry the slots.
        let plan = qplan_template(&q1(), &a0()).unwrap();
        assert!(plan.is_parameterized());
        assert_eq!(plan.param_slots(), vec!["aid", "uid"]);
        assert_eq!(plan.steps().len(), 3);
        let mut params = Vec::new();
        for step in plan.steps() {
            for (_, src) in &step.key {
                if let KeySource::Param(name) = src {
                    params.push(name.clone());
                }
            }
        }
        params.sort();
        params.dedup();
        assert_eq!(params, vec!["aid", "uid"]);
        // The bound matches the ground plan's: instantiation adds nothing.
        let mut b = std::collections::BTreeMap::new();
        b.insert("aid".to_string(), Value::str("a0"));
        b.insert("uid".to_string(), Value::str("u0"));
        let ground_plan = qplan(&q1().instantiate(&b), &a0()).unwrap();
        assert_eq!(plan.cost_bound(), ground_plan.cost_bound());
    }

    #[test]
    fn template_plan_on_ground_query_matches_qplan() {
        let a = qplan(&q0(), &a0()).unwrap();
        let b = qplan_template(&q0(), &a0()).unwrap();
        assert_eq!(a.cost_bound(), b.cost_bound());
        assert_eq!(a.steps().len(), b.steps().len());
        assert!(!b.is_parameterized());
        assert!(b.param_slots().is_empty());
    }

    #[test]
    fn template_not_effectively_bounded_still_errors() {
        // Without the friends index, even the instantiated template cannot
        // be fetched boundedly.
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "t")
            .atom("friends", "f")
            .eq_param(("f", "user_id"), "u")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let err = qplan_template(&q, &AccessSchema::new(cat)).unwrap_err();
        assert!(matches!(err, CoreError::NotEffectivelyBounded(_)));
    }

    #[test]
    fn not_effectively_bounded_is_an_error() {
        let err = qplan(&q1(), &a0()).unwrap_err();
        // Q1 has unbound placeholders.
        assert!(matches!(err, CoreError::UnboundParameters(_)));

        // A ground but non-effectively-bounded query errors with a
        // diagnosis.
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "scan")
            .atom("friends", "f")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let err = qplan(&q, &AccessSchema::new(cat)).unwrap_err();
        assert!(matches!(err, CoreError::NotEffectivelyBounded(_)));
    }

    #[test]
    fn unsatisfiable_query_gets_empty_plan() {
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "bad")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), 1)
            .eq_const(("f", "user_id"), 2)
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let plan = qplan(&q, &AccessSchema::new(cat)).unwrap();
        assert!(plan.is_unsatisfiable());
        assert_eq!(plan.cost_bound(), 0);
        assert!(plan.steps().is_empty());
    }

    #[test]
    fn steps_are_shared_between_atoms() {
        // Two atoms both keyed by values of the same intermediate step: the
        // provider is created once.
        let cat = Catalog::from_names(&[
            ("src", &["k", "v"]),
            ("t1", &["a", "b"]),
            ("t2", &["c", "d"]),
        ])
        .unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("src", &["k"], &["v"], 10).unwrap();
        a.add("t1", &["a"], &["b"], 3).unwrap();
        a.add("t2", &["c"], &["d"], 4).unwrap();
        let q = SpcQuery::builder(cat, "shared")
            .atom("src", "s")
            .atom("t1", "t1")
            .atom("t2", "t2")
            .eq_const(("s", "k"), 1)
            .eq(("s", "v"), ("t1", "a"))
            .eq(("s", "v"), ("t2", "c"))
            .project(("t1", "b"))
            .project(("t2", "d"))
            .build()
            .unwrap();
        let plan = qplan(&q, &a).unwrap();
        // src fetched once (10), t1 once (10*3), t2 once (10*4).
        assert_eq!(plan.steps().len(), 3);
        assert_eq!(plan.cost_bound(), 10 + 30 + 40);
    }

    #[test]
    fn atom_without_parameters_gets_fetch_any() {
        let cat = Catalog::from_names(&[("s1", &["a", "b"]), ("s2", &["c", "d"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("s1", &["a"], &["b"], 3).unwrap();
        let q = SpcQuery::builder(cat, "e")
            .atom("s1", "s1")
            .atom("s2", "s2")
            .eq_const(("s1", "a"), 1)
            .project(("s1", "b"))
            .build()
            .unwrap();
        let plan = qplan(&q, &a).unwrap();
        let any = plan.anchor_of_atom(1);
        assert_eq!(any.kind, FetchKind::Any);
        assert_eq!(any.bound, 1);
        assert_eq!(plan.cost_bound(), 3 + 1);
    }

    #[test]
    fn greedy_prefers_cheaper_anchor() {
        // Two covering constraints for the same atom; the plan must choose
        // the cheaper one.
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 500).unwrap();
        a.add("r", &["a"], &["b"], 50).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "b"))
            .build()
            .unwrap();
        let plan = qplan(&q, &a).unwrap();
        assert_eq!(plan.cost_bound(), 50);
    }

    #[test]
    fn bounded_domain_chain_plans_without_constants() {
        // ∅ → (a, 12), a → (b, 2): a query with no constants still plans:
        // fetch the ≤12 a-values, then probe b per a.
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &[], &["a"], 12).unwrap();
        a.add("r", &["a"], &["b"], 2).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .project(("r", "a"))
            .project(("r", "b"))
            .build()
            .unwrap();
        let plan = qplan(&q, &a).unwrap();
        assert_eq!(plan.steps().len(), 2);
        // 12 (domain fetch) + 12*2 (b probes).
        assert_eq!(plan.cost_bound(), 12 + 24);
    }

    #[test]
    fn deep_transitive_chain() {
        // a=const -> b -> c -> d across three atoms.
        let cat = Catalog::from_names(&[
            ("r1", &["a", "b"]),
            ("r2", &["b2", "c"]),
            ("r3", &["c2", "d"]),
        ])
        .unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r1", &["a"], &["b"], 2).unwrap();
        a.add("r2", &["b2"], &["c"], 3).unwrap();
        a.add("r3", &["c2"], &["d"], 5).unwrap();
        let q = SpcQuery::builder(cat, "chain")
            .atom("r1", "r1")
            .atom("r2", "r2")
            .atom("r3", "r3")
            .eq_const(("r1", "a"), 1)
            .eq(("r1", "b"), ("r2", "b2"))
            .eq(("r2", "c"), ("r3", "c2"))
            .project(("r3", "d"))
            .build()
            .unwrap();
        let plan = qplan(&q, &a).unwrap();
        assert_eq!(plan.steps().len(), 3);
        // r1: 2; r2: 2*3 = 6; r3: 6*5 = 30.
        assert_eq!(plan.cost_bound(), 2 + 6 + 30);
        // Execution order respects dependencies: each Column source refers
        // to an earlier step.
        for (i, s) in plan.steps().iter().enumerate() {
            for (_, src) in &s.key {
                if let KeySource::Column { step, .. } = src {
                    assert!(step.0 < i, "step {i} depends on later step {}", step.0);
                }
            }
        }
    }
}
