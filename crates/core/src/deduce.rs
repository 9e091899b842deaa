//! The deduction engine shared by `I_B` and `I_E` (Section 3).
//!
//! Both rule systems reduce to a fixpoint computation over the `Σ_Q`
//! equivalence classes of a query:
//!
//! * **Actualization** instantiates each access constraint `X → (Y, N)` of
//!   `A` on each renaming `S_i` of its relation, producing the set `Γ` of
//!   [`GammaEntry`] hyperedges `premises ⇒ outputs` with multiplier `N`.
//! * **Reflexivity / Augmentation / Transitivity / Combination** collapse to
//!   reachability over those hyperedges starting from a seed set of classes
//!   (`X_B ∪ X_C` for boundedness, `X_C` for effective boundedness), because
//!   `X ↦ (Y, N)` holds for some `N` iff `Y ⊆ X*` (access-closure lemma in
//!   the proof of Theorem 3) — with `I_E` additionally requiring `Y` to be
//!   indexed in `A`, which the callers check separately per Theorem 4.
//!
//! Beyond membership, the engine computes for every reachable class the
//! **minimum derivable bound** `N_y` (the product of constraint bounds along
//! the best derivation) using a Dijkstra-style search over hyperedges: an
//! entry fires once all its premises are finalized, and the candidate bound
//! `N · Π premise-bounds` is never smaller than any premise bound (all
//! factors are ≥ 1), so classes finalize in non-decreasing bound order.
//! The minimizing derivation is recorded as a provenance DAG, which
//! [`crate::qplan`] replays into a fetch plan.

use crate::access::{AccessSchema, ConstraintId};
use crate::query::{QAttr, SpcQuery};
use crate::sigma::{ClassId, Sigma};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One actualized constraint: `S_i[X] ↦ (S_i[Y], N)` expressed over `Σ_Q`
/// equivalence classes.
#[derive(Debug, Clone)]
pub struct GammaEntry {
    /// Atom (renaming) the constraint was actualized on.
    pub atom: usize,
    /// The access constraint in `A`.
    pub constraint: ConstraintId,
    /// Classes of `S_i[X]`, deduplicated, sorted.
    pub premises: Vec<ClassId>,
    /// Classes of `S_i[Y]`, deduplicated, sorted, disjoint from premises.
    pub outputs: Vec<ClassId>,
    /// The cardinality bound `N`.
    pub n: u64,
}

/// Actualizes every constraint of `a` on every compatible atom of `q`
/// (the `Actualize(A, Q)` initialization step of Figures 3 and 4).
pub fn actualize(q: &SpcQuery, sigma: &Sigma, a: &AccessSchema) -> Vec<GammaEntry> {
    let mut gamma = Vec::new();
    for atom in 0..q.num_atoms() {
        let rel = q.relation_of(atom);
        for &cid in a.for_relation(rel) {
            let c = a.constraint(cid);
            let mut premises: Vec<ClassId> = c
                .x()
                .iter()
                .map(|&col| sigma.class_of_flat(q.flat_id(QAttr::new(atom, col))))
                .collect();
            premises.sort_unstable();
            premises.dedup();
            let mut outputs: Vec<ClassId> = c
                .y()
                .iter()
                .map(|&col| sigma.class_of_flat(q.flat_id(QAttr::new(atom, col))))
                .collect();
            outputs.sort_unstable();
            outputs.dedup();
            // A class that is both premise and output is already available
            // when the entry fires; keep outputs minimal.
            outputs.retain(|c| !premises.contains(c));
            if outputs.is_empty() {
                continue;
            }
            gamma.push(GammaEntry {
                atom,
                constraint: cid,
                premises,
                outputs,
                n: c.n(),
            });
        }
    }
    gamma
}

/// How a class entered the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The class was a seed (constant / `X_B` member).
    Seed,
    /// The class was produced by firing the `Γ` entry with this index.
    Entry(usize),
}

/// Result of the closure computation.
#[derive(Debug, Clone)]
pub struct Closure {
    in_closure: Vec<bool>,
    bound: Vec<u128>,
    provenance: Vec<Option<Provenance>>,
}

impl Closure {
    /// Computes the access closure of `seeds` under `gamma`, together with
    /// minimal bounds and provenance.
    pub fn compute(num_classes: usize, seeds: &[ClassId], gamma: &[GammaEntry]) -> Closure {
        let mut in_closure = vec![false; num_classes];
        let mut bound = vec![u128::MAX; num_classes];
        let mut provenance: Vec<Option<Provenance>> = vec![None; num_classes];

        // watch[class] = entries having `class` among their premises.
        let mut watch: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
        let mut remaining: Vec<usize> = Vec::with_capacity(gamma.len());
        for (ei, e) in gamma.iter().enumerate() {
            remaining.push(e.premises.len());
            for p in &e.premises {
                watch[p.0].push(ei);
            }
        }

        // (bound, class, provenance) min-heap; lazy deletion.
        let mut heap: BinaryHeap<Reverse<(u128, usize, ProvKey)>> = BinaryHeap::new();
        for s in seeds {
            heap.push(Reverse((1, s.0, ProvKey::Seed)));
        }
        // Premise-free entries fire immediately.
        let mut entry_fired = vec![false; gamma.len()];
        for (ei, e) in gamma.iter().enumerate() {
            if e.premises.is_empty() {
                entry_fired[ei] = true;
                for o in &e.outputs {
                    heap.push(Reverse((u128::from(e.n), o.0, ProvKey::Entry(ei))));
                }
            }
        }

        while let Some(Reverse((b, class, prov))) = heap.pop() {
            if in_closure[class] {
                continue;
            }
            in_closure[class] = true;
            bound[class] = b;
            provenance[class] = Some(match prov {
                ProvKey::Seed => Provenance::Seed,
                ProvKey::Entry(ei) => Provenance::Entry(ei),
            });
            for &ei in &watch[class] {
                remaining[ei] -= 1;
                if remaining[ei] == 0 && !entry_fired[ei] {
                    entry_fired[ei] = true;
                    let e = &gamma[ei];
                    let mut cand = u128::from(e.n);
                    for p in &e.premises {
                        cand = cand.saturating_mul(bound[p.0]);
                    }
                    for o in &e.outputs {
                        if !in_closure[o.0] {
                            heap.push(Reverse((cand, o.0, ProvKey::Entry(ei))));
                        }
                    }
                }
            }
        }

        Closure {
            in_closure,
            bound,
            provenance,
        }
    }

    /// `true` if the class is in the closure.
    pub fn contains(&self, class: ClassId) -> bool {
        self.in_closure[class.0]
    }

    /// Minimal derivable bound `N_y` for a class in the closure
    /// (`1` for seeds). `None` if the class is not in the closure.
    pub fn bound_of(&self, class: ClassId) -> Option<u128> {
        self.in_closure[class.0].then(|| self.bound[class.0])
    }

    /// Provenance of a class in the closure.
    pub fn provenance_of(&self, class: ClassId) -> Option<Provenance> {
        self.provenance[class.0]
    }

    /// Classes in the closure.
    pub fn members(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.in_closure
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(ClassId(i)))
    }
}

/// Heap payload; ordered only to satisfy `BinaryHeap` (never compared for
/// priority beyond tie-breaking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ProvKey {
    Seed,
    Entry(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::fixtures::{a0, q0, q1};

    fn setup(q: &SpcQuery, a: &AccessSchema) -> (Sigma, Vec<GammaEntry>) {
        let sigma = Sigma::build(q);
        let gamma = actualize(q, &sigma, a);
        (sigma, gamma)
    }

    #[test]
    fn actualization_of_a0_on_q0() {
        let q = q0();
        let a = a0();
        let (_, gamma) = setup(&q, &a);
        // One constraint per relation, one atom per relation => 3 entries.
        assert_eq!(gamma.len(), 3);
        let albums = &gamma[0];
        assert_eq!(albums.atom, 0);
        assert_eq!(albums.n, 1000);
        assert_eq!(albums.premises.len(), 1);
        assert_eq!(albums.outputs.len(), 1);
    }

    #[test]
    fn closure_from_xc_reaches_all_parameters_of_q0() {
        let q = q0();
        let a = a0();
        let (sigma, gamma) = setup(&q, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        for cls in sigma.parameter_classes() {
            assert!(closure.contains(cls), "class {cls:?} not reached");
        }
    }

    #[test]
    fn q0_bounds_match_example_1() {
        let q = q0();
        let a = a0();
        let (sigma, gamma) = setup(&q, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        // pid class is reachable with bound 1000 (via the album index).
        let pid = sigma.class_of_flat(q.flat_id(QAttr::new(0, 0)));
        assert_eq!(closure.bound_of(pid), Some(1000));
        // fid ~ tid1: the cheapest derivation is Example 5's step (13) —
        // through the tagging index keyed by (pid2, tid2), giving
        // 1000 * 1 = 1000, cheaper than the friends index's 5000.
        let fid = sigma.class_of_flat(q.flat_id(QAttr::new(1, 1)));
        assert_eq!(closure.bound_of(fid), Some(1000));
        // Seeds have bound 1.
        let aid = sigma.class_of_flat(q.flat_id(QAttr::new(0, 1)));
        assert_eq!(closure.bound_of(aid), Some(1));
    }

    #[test]
    fn q1_without_constants_reaches_nothing_new() {
        let q = q1();
        let a = a0();
        let (sigma, gamma) = setup(&q, &a);
        // X_C is empty for the template.
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        assert_eq!(closure.members().count(), 0);
    }

    #[test]
    fn q1_xb_closure_misses_pid() {
        // Q1's X_B = {tid1~fid, tid2~uid}: without a value for aid, the
        // projected pid class is unreachable — "Q1 is not bounded even
        // under A0" (Example 1).
        let q = q1();
        let a = a0();
        let (sigma, gamma) = setup(&q, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xb_classes(), &gamma);
        let pid = sigma.class_of_flat(q.flat_id(QAttr::new(0, 0)));
        assert!(!closure.contains(pid));
    }

    #[test]
    fn provenance_points_at_firing_entry() {
        let q = q0();
        let a = a0();
        let (sigma, gamma) = setup(&q, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        let pid = sigma.class_of_flat(q.flat_id(QAttr::new(0, 0)));
        match closure.provenance_of(pid) {
            Some(Provenance::Entry(ei)) => {
                assert!(gamma[ei].outputs.contains(&pid));
                assert_eq!(gamma[ei].n, 1000);
            }
            other => panic!("unexpected provenance {other:?}"),
        }
    }

    #[test]
    fn dijkstra_picks_cheaper_alternative() {
        // Two constraints derive the same target; the closure must pick the
        // cheaper one.
        use crate::schema::Catalog;
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 100).unwrap();
        a.add("r", &["a"], &["b"], 7).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let gamma = actualize(&q, &sigma, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        let b = sigma.class_of_flat(q.flat_id(QAttr::new(0, 1)));
        assert_eq!(closure.bound_of(b), Some(7));
    }

    #[test]
    fn chained_bounds_multiply() {
        // a -> b (3), b -> c (5): bound(c) = 15.
        use crate::schema::Catalog;
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], 3).unwrap();
        a.add("r", &["b"], &["c"], 5).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "c"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let gamma = actualize(&q, &sigma, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        let c = sigma.class_of_flat(q.flat_id(QAttr::new(0, 2)));
        assert_eq!(closure.bound_of(c), Some(15));
    }

    #[test]
    fn bounded_domain_constraint_fires_without_seeds() {
        use crate::schema::Catalog;
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &[], &["a"], 12).unwrap(); // domain of a bounded by 12
        a.add("r", &["a"], &["b"], 2).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .project(("r", "b"))
            .project(("r", "a"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let gamma = actualize(&q, &sigma, &a);
        let closure = Closure::compute(sigma.num_classes(), &[], &gamma);
        let a_cls = sigma.class_of_flat(q.flat_id(QAttr::new(0, 0)));
        let b_cls = sigma.class_of_flat(q.flat_id(QAttr::new(0, 1)));
        assert_eq!(closure.bound_of(a_cls), Some(12));
        assert_eq!(closure.bound_of(b_cls), Some(24));
    }

    #[test]
    fn huge_bounds_saturate_instead_of_overflowing() {
        // A chain of constraints each with N = u64::MAX: the product
        // overflows u128 after ~2 steps and must saturate, not wrap.
        use crate::schema::Catalog;
        let cat = Catalog::from_names(&[("r", &["a", "b", "c", "d"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a"], &["b"], u64::MAX).unwrap();
        a.add("r", &["b"], &["c"], u64::MAX).unwrap();
        a.add("r", &["c"], &["d"], u64::MAX).unwrap();
        let q = SpcQuery::builder(cat, "big")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "d"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let gamma = actualize(&q, &sigma, &a);
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        let d = sigma.class_of_flat(q.flat_id(QAttr::new(0, 3)));
        let bound = closure.bound_of(d).unwrap();
        // Monotone: at least the two-step product, at most saturated.
        assert!(bound >= u128::from(u64::MAX) * u128::from(u64::MAX));
        assert_eq!(
            closure.bound_of(sigma.class_of_flat(q.flat_id(QAttr::new(0, 1)))),
            Some(u128::from(u64::MAX))
        );
    }

    #[test]
    fn multi_premise_entry_waits_for_all_premises() {
        use crate::schema::Catalog;
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let mut a = AccessSchema::new(cat.clone());
        a.add("r", &["a", "b"], &["c"], 4).unwrap();
        let q = SpcQuery::builder(cat.clone(), "q")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .project(("r", "c"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let gamma = actualize(&q, &sigma, &a);
        // Only `a` is seeded; `b` is missing, so `c` is unreachable.
        let closure = Closure::compute(sigma.num_classes(), &sigma.xc_classes(), &gamma);
        let c_cls = sigma.class_of_flat(q.flat_id(QAttr::new(0, 2)));
        assert!(!closure.contains(c_cls));

        // With both a and b constant, c is reached with bound 4.
        let q2 = SpcQuery::builder(cat, "q2")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .eq_const(("r", "b"), 2)
            .project(("r", "c"))
            .build()
            .unwrap();
        let sigma2 = Sigma::build(&q2);
        let gamma2 = actualize(&q2, &sigma2, &a);
        let closure2 = Closure::compute(sigma2.num_classes(), &sigma2.xc_classes(), &gamma2);
        let c_cls2 = sigma2.class_of_flat(q2.flat_id(QAttr::new(0, 2)));
        assert_eq!(closure2.bound_of(c_cls2), Some(4));
    }
}
