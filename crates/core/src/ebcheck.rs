//! Algorithm `EBCheck` (Section 4.2): deciding effective boundedness.
//!
//! By Theorem 4 (via the connection between `I_E` and access closures used
//! in the paper's own algorithm), `Q` is effectively bounded under `A` iff
//!
//! 1. every parameter class of every atom (`⋃ X^i_Q`) lies in the access
//!    closure `X_C*` computed from the instantiated attributes only, and
//! 2. each `X^i_Q` is **indexed in `A`**: some constraint `X → (W, N)` on
//!    the atom's relation has `X ⊆ X^i_Q` and `X^i_Q ⊆ X ∪ W`, so membership
//!    of fetched candidate values in `D` can be verified through an index.
//!
//! Step 1 reuses the closure engine of [`crate::deduce`] (seeded with `X_C`
//! instead of `X_B ∪ X_C` — the only difference from `BCheck`); step 2 is a
//! per-atom scan of the constraints. Total cost `O(|Q|(|A| + |Q|))`
//! (Theorem 6).

use crate::access::{AccessSchema, ConstraintId};
use crate::deduce::{actualize, Closure, GammaEntry};
use crate::query::{QAttr, SpcQuery};
use crate::sigma::{ClassId, Sigma};

/// The columns of atom `i` that are parameters of `Q`: attributes occurring
/// literally in `C` or `Z` (the paper's `X^i_Q`). Sorted.
pub fn xq_cols(q: &SpcQuery, sigma: &Sigma, atom: usize) -> Vec<usize> {
    (0..q.arity_of(atom))
        .filter(|&col| {
            let flat = q.flat_id(QAttr::new(atom, col));
            sigma.occurs_in_condition(flat) || sigma.occurs_in_projection(flat)
        })
        .collect()
}

/// Why one atom passes or fails the effective-boundedness conditions.
#[derive(Debug, Clone)]
pub struct AtomDiagnosis {
    /// Atom index in the query.
    pub atom: usize,
    /// `X^i_Q` — parameter columns of this atom.
    pub xq: Vec<usize>,
    /// Parameter attributes whose class is missing from `X_C*`
    /// (condition 1 failures).
    pub uncovered: Vec<QAttr>,
    /// Witness constraint showing `X^i_Q` is indexed, if any. `None` with
    /// `xq` empty means the atom is trivially indexed (only an emptiness
    /// witness is needed).
    pub index_witness: Option<ConstraintId>,
    /// `true` iff the atom satisfies both conditions.
    pub ok: bool,
}

/// Outcome of [`ebcheck`].
#[derive(Debug, Clone)]
pub struct EffectiveBoundednessReport {
    /// `true` iff `Q` is effectively bounded under `A` (Theorem 4).
    pub effectively_bounded: bool,
    /// `false` if the query is unsatisfiable (then trivially effectively
    /// bounded with `D_Q = ∅`).
    pub satisfiable: bool,
    /// Per-atom diagnosis (empty for unsatisfiable queries).
    pub per_atom: Vec<AtomDiagnosis>,
}

impl EffectiveBoundednessReport {
    /// Human-readable summary of the first failure, for error messages.
    pub fn first_failure(&self, q: &SpcQuery) -> Option<String> {
        self.per_atom.iter().find(|d| !d.ok).map(|d| {
            let alias = &q.atoms()[d.atom].alias;
            if !d.uncovered.is_empty() {
                let names: Vec<String> = d.uncovered.iter().map(|a| q.attr_name(*a)).collect();
                format!(
                    "atom `{alias}`: parameters not derivable from constants via I_E: {}",
                    names.join(", ")
                )
            } else {
                format!("atom `{alias}`: parameter set is not indexed in the access schema")
            }
        })
    }
}

/// Decides whether `q` is **effectively bounded** under `a` (Theorem 4).
/// Runs in `O(|Q|(|A| + |Q|))`.
pub fn ebcheck(q: &SpcQuery, a: &AccessSchema) -> EffectiveBoundednessReport {
    let sigma = Sigma::build(q);
    ebcheck_with_seeds(q, &sigma, a, &[])
}

/// [`ebcheck`] with additional classes treated as instantiated — used by the
/// dominating-parameter search to test `Q(X_P = ā)` without materializing
/// values (effective boundedness of the instantiated query depends only on
/// *which* attributes are instantiated, not on the values).
pub fn ebcheck_with_seeds(
    q: &SpcQuery,
    sigma: &Sigma,
    a: &AccessSchema,
    extra_seeds: &[ClassId],
) -> EffectiveBoundednessReport {
    if !sigma.is_satisfiable() {
        return EffectiveBoundednessReport {
            effectively_bounded: true,
            satisfiable: false,
            per_atom: Vec::new(),
        };
    }
    analyze(q, sigma, a, extra_seeds).0
}

/// The analysis behind [`ebcheck_with_seeds`] for a satisfiable `sigma`:
/// the verdict together with the proof it was read off — the actualized
/// constraints `Γ` and the access closure of `X_C ∪ extra_seeds`. `QPlan`
/// materializes exactly this proof, so it takes all three from here.
pub(crate) fn analyze(
    q: &SpcQuery,
    sigma: &Sigma,
    a: &AccessSchema,
    extra_seeds: &[ClassId],
) -> (EffectiveBoundednessReport, Vec<GammaEntry>, Closure) {
    debug_assert!(sigma.is_satisfiable());
    let mut seeds = sigma.xc_classes();
    seeds.extend_from_slice(extra_seeds);
    seeds.sort_unstable();
    seeds.dedup();

    let gamma = actualize(q, sigma, a);
    let closure = Closure::compute(sigma.num_classes(), &seeds, &gamma);

    // When extra seeds simulate instantiation, the simulated constants also
    // count as parameters of the instantiated query (they occur in its
    // condition `X_P = ā`).
    let extra_is_param = |flat: usize| extra_seeds.contains(&sigma.class_of_flat(flat));

    let mut per_atom = Vec::with_capacity(q.num_atoms());
    let mut all_ok = true;
    for atom in 0..q.num_atoms() {
        let mut xq = xq_cols(q, sigma, atom);
        for col in 0..q.arity_of(atom) {
            let flat = q.flat_id(QAttr::new(atom, col));
            if extra_is_param(flat) && !xq.contains(&col) {
                xq.push(col);
            }
        }
        xq.sort_unstable();

        let mut uncovered = Vec::new();
        for &col in &xq {
            let cls = sigma.class_of_flat(q.flat_id(QAttr::new(atom, col)));
            if !closure.contains(cls) {
                uncovered.push(QAttr::new(atom, col));
            }
        }
        let index_witness = if xq.is_empty() {
            None
        } else {
            a.covering_constraint(q.relation_of(atom), &xq)
        };
        let ok = uncovered.is_empty() && (xq.is_empty() || index_witness.is_some());
        all_ok &= ok;
        per_atom.push(AtomDiagnosis {
            atom,
            xq,
            uncovered,
            index_witness,
            ok,
        });
    }

    let report = EffectiveBoundednessReport {
        effectively_bounded: all_ok,
        satisfiable: true,
        per_atom,
    };
    (report, gamma, closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::fixtures::{a0, photos_catalog, q0, q1};
    use crate::schema::Catalog;

    #[test]
    fn q0_effectively_bounded_under_a0() {
        // Example 5 / Example 7 of the paper.
        let report = ebcheck(&q0(), &a0());
        assert!(report.effectively_bounded);
        assert!(report.per_atom.iter().all(|d| d.ok));
        assert!(report.first_failure(&q0()).is_none());
    }

    #[test]
    fn q1_not_effectively_bounded_under_a0() {
        let q = q1();
        let report = ebcheck(&q, &a0());
        assert!(!report.effectively_bounded);
        assert!(report.first_failure(&q).is_some());
    }

    #[test]
    fn q0_not_effectively_bounded_under_a1() {
        // Example 8: dropping the tagging constraint removes the only index
        // on tagging, so Q0 is no longer effectively bounded.
        let q = q0();
        let a1 = a0().filtered(|_, c| {
            // keep all but the tagging constraint
            c.n() != 1
        });
        assert_eq!(a1.len(), 2);
        let report = ebcheck(&q, &a1);
        assert!(!report.effectively_bounded);
        // The tagging atom (index 2) is the failing one.
        let diag = &report.per_atom[2];
        assert!(!diag.ok);
        assert!(diag.index_witness.is_none());
    }

    #[test]
    fn boolean_query_needs_indices_for_effectiveness() {
        // A Boolean query is always *bounded*, but effectiveness requires
        // the witness to be retrievable via indices.
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "bool")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .build()
            .unwrap();
        // No constraints: the constant cannot be probed.
        let empty = AccessSchema::new(cat.clone());
        assert!(!ebcheck(&q, &empty).effectively_bounded);
        // With the friends index it becomes effectively bounded.
        let mut a = AccessSchema::new(cat);
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        assert!(ebcheck(&q, &a).effectively_bounded);
    }

    #[test]
    fn atom_without_parameters_is_trivially_ok() {
        // S2 contributes only an emptiness test; no parameters, no index
        // needed.
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
        let report = ebcheck(&q, &a);
        assert!(report.effectively_bounded);
        assert!(report.per_atom[1].xq.is_empty());
        assert!(report.per_atom[1].ok);
    }

    #[test]
    fn covered_but_not_indexed_fails() {
        // b is derivable (bounded domain) but {a, b} has no covering index
        // with X ⊆ {a, b}: the only constraint keys on `a` and exposes `b`,
        // but the query also uses `c` which no constraint covers.
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 5).unwrap();
        a.add("r", &[], &["c"], 9).unwrap(); // c has a bounded domain
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "b"))
            .project(("r", "c"))
            .build()
            .unwrap();
        let report = ebcheck(&q, &a);
        // All classes covered …
        assert!(report.per_atom[0].uncovered.is_empty());
        // … but {a,b,c} is not indexed: no constraint covers all three.
        assert!(report.per_atom[0].index_witness.is_none());
        assert!(!report.effectively_bounded);
    }

    #[test]
    fn unsatisfiable_is_trivially_effective() {
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "bad")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), 1)
            .eq_const(("f", "user_id"), 2)
            .build()
            .unwrap();
        let report = ebcheck(&q, &AccessSchema::new(cat));
        assert!(report.effectively_bounded);
        assert!(!report.satisfiable);
    }

    #[test]
    fn virtual_seeds_simulate_instantiation() {
        // Seeding Q1's aid and uid classes makes it effectively bounded —
        // the core of the dominating-parameter search.
        let q = q1();
        let sigma = Sigma::build(&q);
        let a = a0();
        let aid_cls = sigma.class_of_flat(q.flat_id(QAttr::new(0, 1)));
        let uid_cls = sigma.class_of_flat(q.flat_id(QAttr::new(1, 0)));
        let report = ebcheck_with_seeds(&q, &sigma, &a, &[aid_cls, uid_cls]);
        assert!(report.effectively_bounded);

        // Seeding only aid is not enough (friends fetch needs uid).
        let report = ebcheck_with_seeds(&q, &sigma, &a, &[aid_cls]);
        assert!(!report.effectively_bounded);
    }

    #[test]
    fn index_witness_prefers_smaller_bound() {
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 100).unwrap();
        a.add("r", &["a"], &["b"], 10).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "b"))
            .build()
            .unwrap();
        let report = ebcheck(&q, &a);
        assert!(report.effectively_bounded);
        let witness = report.per_atom[0].index_witness.unwrap();
        assert_eq!(a.constraint(witness).n(), 10);
    }
}
