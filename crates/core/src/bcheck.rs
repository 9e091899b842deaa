//! Algorithm `BCheck` (Section 4.1, Figure 3): deciding boundedness.
//!
//! By Theorem 3, `Q(Z)` is bounded under `A` iff for each parameter
//! `y ∈ X_B ∪ Z`, `X_B ∪ X_C ↦_IB (y, N_y)` for some positive integer `N_y`.
//! `BCheck` computes the access closure `(X_B ∪ X_C)*` with the fixpoint
//! engine of [`crate::deduce`] and checks containment of `X_B ∪ Z`.
//!
//! Complexity: `O(|Q| (|A| + |Q|))` (Theorem 5) — actualization touches each
//! constraint once per atom, each `Γ` entry fires at most once, and the
//! containment check is linear in the class count.

use crate::access::AccessSchema;
use crate::deduce::{actualize, Closure};
use crate::query::{QAttr, SpcQuery};
use crate::sigma::{ClassId, Sigma};

/// Outcome of [`bcheck`].
#[derive(Debug, Clone)]
pub struct BoundednessReport {
    /// `true` iff `Q` is bounded under `A` (Theorem 3).
    pub bounded: bool,
    /// `false` if `Σ_Q` binds one attribute to two distinct constants, in
    /// which case `Q(D) = ∅` for every `D` and `Q` is trivially bounded
    /// with `D_Q = ∅`.
    pub satisfiable: bool,
    /// One representative attribute per parameter class that the closure
    /// failed to cover (empty iff `bounded`).
    pub missing: Vec<QAttr>,
    /// For each covered class of `X_B ∪ Z`, a representative attribute and
    /// its deduced bound `N_y` (minimal over derivations).
    pub witness_bounds: Vec<(QAttr, u128)>,
}

impl BoundednessReport {
    fn trivially_bounded() -> Self {
        BoundednessReport {
            bounded: true,
            satisfiable: false,
            missing: Vec::new(),
            witness_bounds: Vec::new(),
        }
    }
}

/// Decides whether `q` is **bounded** under `a` (Theorem 3 via the closure
/// characterization). Runs in `O(|Q|(|A| + |Q|))`.
pub fn bcheck(q: &SpcQuery, a: &AccessSchema) -> BoundednessReport {
    let sigma = Sigma::build(q);
    if !sigma.is_satisfiable() {
        return BoundednessReport::trivially_bounded();
    }

    // Seeds: X_B ∪ X_C.
    let mut seeds: Vec<ClassId> = sigma.xb_classes();
    seeds.extend(sigma.xc_classes());
    seeds.sort_unstable();
    seeds.dedup();

    let gamma = actualize(q, &sigma, a);
    let closure = Closure::compute(sigma.num_classes(), &seeds, &gamma);

    // Targets: X_B ∪ Z.
    let mut targets: Vec<ClassId> = sigma.xb_classes();
    targets.extend(sigma.z_classes());
    targets.sort_unstable();
    targets.dedup();

    let mut missing = Vec::new();
    let mut witness_bounds = Vec::new();
    for cls in targets {
        let rep = sigma.class(cls).members[0];
        match closure.bound_of(cls) {
            Some(b) => witness_bounds.push((rep, b)),
            None => missing.push(rep),
        }
    }

    BoundednessReport {
        bounded: missing.is_empty(),
        satisfiable: true,
        missing,
        witness_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::fixtures::{a0, photos_catalog, q0, q1};
    use crate::schema::Catalog;

    #[test]
    fn q0_is_bounded_under_a0() {
        // Example 4 / Example 6 of the paper.
        let report = bcheck(&q0(), &a0());
        assert!(report.bounded);
        assert!(report.satisfiable);
        assert!(report.missing.is_empty());
        // pid class bound deduced as 1000.
        let pid_bound = report
            .witness_bounds
            .iter()
            .find(|(a, _)| a.atom == 0 && a.col == 0)
            .map(|(_, b)| *b);
        assert_eq!(pid_bound, Some(1000));
    }

    #[test]
    fn q1_template_is_not_bounded_under_a0() {
        // "Query Q1 is not bounded even under A0" (Example 1): the
        // uninstantiated placeholders contribute nothing to X_B ∪ X_C.
        let report = bcheck(&q1(), &a0());
        assert!(!report.bounded);

        // Instantiating the dominating parameters recovers Q0's verdict.
        let mut bind = std::collections::BTreeMap::new();
        bind.insert("aid".to_string(), crate::value::Value::str("a0"));
        bind.insert("uid".to_string(), crate::value::Value::str("u0"));
        let ground = q1().instantiate(&bind);
        assert!(bcheck(&ground, &a0()).bounded);
    }

    #[test]
    fn q0_not_bounded_without_constraints() {
        // Under the empty access schema Q0 cannot bound its projected pid.
        let cat = photos_catalog();
        let empty = AccessSchema::new(cat);
        let report = bcheck(&q0(), &empty);
        assert!(!report.bounded);
        assert_eq!(report.missing.len(), 1);
        // The missing class is the projected photo_id class.
        assert_eq!(report.missing[0].col, 0);
    }

    #[test]
    fn boolean_queries_always_bounded() {
        // Example 1(3) / Example 4: any Boolean SPC query is bounded even
        // under the empty access schema.
        let cat = photos_catalog();
        let empty = AccessSchema::new(cat.clone());
        let q = SpcQuery::builder(cat, "bool")
            .atom("friends", "f1")
            .atom("friends", "f2")
            .eq(("f1", "friend_id"), ("f2", "user_id"))
            .eq_const(("f1", "user_id"), "u0")
            .build()
            .unwrap();
        assert!(q.is_boolean());
        let report = bcheck(&q, &empty);
        assert!(report.bounded);
    }

    #[test]
    fn unsatisfiable_queries_trivially_bounded() {
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "bad")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), 1)
            .eq_const(("f", "user_id"), 2)
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let report = bcheck(&q, &AccessSchema::new(cat));
        assert!(report.bounded);
        assert!(!report.satisfiable);
    }

    #[test]
    fn projection_without_selection_is_unbounded() {
        // Q(b) = π_b(r): unbounded without constraints on r.
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let q = SpcQuery::builder(cat.clone(), "all")
            .atom("r", "r")
            .project(("r", "b"))
            .build()
            .unwrap();
        assert!(!bcheck(&q, &AccessSchema::new(cat.clone())).bounded);

        // A bounded domain on b makes it bounded.
        let mut a = AccessSchema::new(cat);
        a.add_bounded_domain("r", "b", 42).unwrap();
        let report = bcheck(&q, &a);
        assert!(report.bounded);
        assert_eq!(report.witness_bounds[0].1, 42);
    }

    #[test]
    fn transitivity_across_atoms() {
        // S1(a,b) x S2(c,d) with b = c: a -> b in A lets a constant on a
        // bound d via c -> d.
        let cat = Catalog::from_names(&[("s1", &["a", "b"]), ("s2", &["c", "d"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("s1", &["a"], &["b"], 10).unwrap();
        a.add("s2", &["c"], &["d"], 20).unwrap();
        let q = SpcQuery::builder(cat, "chain")
            .atom("s1", "s1")
            .atom("s2", "s2")
            .eq_const(("s1", "a"), 0)
            .eq(("s1", "b"), ("s2", "c"))
            .project(("s2", "d"))
            .build()
            .unwrap();
        let report = bcheck(&q, &a);
        assert!(report.bounded);
        // b ~ c is in X_B, hence a *seed* for I_B: d's witness bound is 20
        // (one application of c -> (d, 20)), not 10 * 20 — boundedness only
        // needs a witness for the Boolean part.
        let d_bound = report
            .witness_bounds
            .iter()
            .find(|(at, _)| at.atom == 1 && at.col == 1)
            .map(|(_, b)| *b);
        assert_eq!(d_bound, Some(20));
    }

    #[test]
    fn missing_link_breaks_boundedness() {
        // Same as above but without the s2 constraint: d unreachable.
        let cat = Catalog::from_names(&[("s1", &["a", "b"]), ("s2", &["c", "d"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("s1", &["a"], &["b"], 10).unwrap();
        let q = SpcQuery::builder(cat, "chain")
            .atom("s1", "s1")
            .atom("s2", "s2")
            .eq_const(("s1", "a"), 0)
            .eq(("s1", "b"), ("s2", "c"))
            .project(("s2", "d"))
            .build()
            .unwrap();
        assert!(!bcheck(&q, &a).bounded);
    }
}
