//! Prepared queries: compile once, classify, execute many times.
//!
//! A [`PreparedQuery`] is the unit the [`crate::PlanCache`] stores: an
//! execution [`Lane`] together with what that lane executes — for the
//! bounded lane the parameterized plan compiled by
//! [`bcq_core::qplan::qplan_template`], which carries the plan's compiled
//! [`OpProgram`] (filter checks, join schedule, key permutations and
//! projection map resolved to positions); for the bounded-RA lane the
//! [`PreparedRa`] skeleton, a plan per SPC block. Preparation is the
//! expensive step (`Σ_Q` closure, `ebcheck`, plan generation, program
//! compile); execution interprets the compiled artifact against
//! per-request bindings with zero planning-shaped work.
//!
//! Fingerprints are the cache keys: a canonical, name-independent rendering
//! of the query (two templates that differ only in their display name or in
//! predicate order collide on purpose). The access schema is not part of
//! the key: a server plans under one immutable schema for its lifetime.

use bcq_core::plan::QueryPlan;
use bcq_core::prelude::{OpProgram, Predicate, RaExpr, SpcQuery};
use bcq_exec::PreparedRa;
use std::fmt::Write as _;

/// How a prepared query executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Effectively bounded: compiled plan, `eval_dq` data plane. Per-request
    /// cost independent of `|D|`.
    Bounded,
    /// A certified RA expression: evaluated boundedly through the
    /// compiled [`PreparedRa`] skeleton. Preparation caches the
    /// certification, the resolved set-operation orientation and a
    /// parameterized plan (operator program included) for **every** block:
    /// an enumerable block's own, and a probed block's with its projection
    /// pinned to the probe slots. A request binds and interprets; a
    /// membership probe is one more run of a compiled plan.
    BoundedRa,
    /// Not effectively bounded: admitted onto the conventional baseline
    /// under a hard work budget (never under a strict admission policy).
    Unbounded,
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Bounded => write!(f, "bounded"),
            Lane::BoundedRa => write!(f, "bounded-ra"),
            Lane::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A query compiled and classified at prepare time.
///
/// Aligned to a cache line so that, inside the plan cache's `Arc`, the
/// reference counts every request writes sit on a line of their own and
/// the fields every request reads on the next, wherever the allocator
/// put the entry.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct PreparedQuery {
    pub(crate) compiled: Compiled,
}

/// A lane with what it executes. The plan stays inline: one of these
/// exists per cache entry, and every bounded request reads it.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Compiled {
    Bounded(QueryPlan),
    BoundedRa(PreparedRa),
    /// The template the baseline instantiates per request, with its
    /// placeholder names.
    Unbounded(SpcQuery, Vec<String>),
}

impl PreparedQuery {
    pub(crate) fn bounded(plan: QueryPlan) -> Self {
        // Force the lazy operator-program compile here, at prepare time, so
        // the first request served from this entry pays execution only.
        plan.program();
        PreparedQuery {
            compiled: Compiled::Bounded(plan),
        }
    }

    pub(crate) fn bounded_ra(compiled: PreparedRa) -> Self {
        PreparedQuery {
            compiled: Compiled::BoundedRa(compiled),
        }
    }

    pub(crate) fn unbounded(template: SpcQuery) -> Self {
        let slots = template.placeholder_names();
        PreparedQuery {
            compiled: Compiled::Unbounded(template, slots),
        }
    }

    /// The lane this query executes on.
    pub fn lane(&self) -> Lane {
        match self.compiled {
            Compiled::Bounded(_) => Lane::Bounded,
            Compiled::BoundedRa(_) => Lane::BoundedRa,
            Compiled::Unbounded(..) => Lane::Unbounded,
        }
    }

    /// The compiled parameterized plan ([`Lane::Bounded`] only).
    pub fn plan(&self) -> Option<&QueryPlan> {
        match &self.compiled {
            Compiled::Bounded(plan) => Some(plan),
            _ => None,
        }
    }

    /// The compiled operator program the bounded lane interprets per
    /// request ([`Lane::Bounded`] only) — stored with the plan at prepare
    /// time and never recompiled.
    pub fn program(&self) -> Option<&OpProgram> {
        self.plan().map(QueryPlan::program)
    }

    /// Parameter slots a request must bind, in first-use order.
    pub fn param_slots(&self) -> &[String] {
        match &self.compiled {
            Compiled::Bounded(plan) => plan.param_slots(),
            Compiled::BoundedRa(ra) => ra.param_slots(),
            Compiled::Unbounded(_, slots) => slots,
        }
    }

    /// The static `Σ M_i` bound on tuples fetched per execution
    /// ([`Lane::Bounded`] only) — the paper's `|D_Q|` guarantee.
    pub fn cost_bound(&self) -> Option<u128> {
        self.plan().map(QueryPlan::cost_bound)
    }
}

/// Canonical, name-independent fingerprint of a query: atoms in order (the
/// product is ordered), predicates sorted and deduplicated (conjunction is
/// not), projection in order. Two queries with equal fingerprints have
/// identical answers on every database — the normalization the plan cache
/// keys on.
pub fn query_fingerprint(q: &SpcQuery) -> String {
    let mut s = String::with_capacity(64);
    s.push_str("atoms:");
    for atom in q.atoms() {
        let _ = write!(s, "{},", atom.relation.0);
    }
    let mut preds: Vec<String> = q
        .predicates()
        .iter()
        .map(|p| match p {
            Predicate::Eq(a, b) => {
                // Equality is symmetric: order the endpoints.
                let (x, y) = (q.flat_id(*a), q.flat_id(*b));
                let (x, y) = if x <= y { (x, y) } else { (y, x) };
                format!("e{x}={y}")
            }
            Predicate::Const(a, v) => format!("c{}={v:?}", q.flat_id(*a)),
            Predicate::Param(a, name) => format!("p{}=?{name}", q.flat_id(*a)),
        })
        .collect();
    preds.sort_unstable();
    preds.dedup();
    s.push_str("|sel:");
    for p in preds {
        s.push_str(&p);
        s.push(';');
    }
    s.push_str("|proj:");
    for z in q.projection() {
        let _ = write!(s, "{},", q.flat_id(*z));
    }
    s
}

/// Fingerprint of an RA expression (structure + block fingerprints).
pub fn ra_fingerprint(expr: &RaExpr) -> String {
    match expr {
        RaExpr::Spc(q) => format!("S({})", query_fingerprint(q)),
        RaExpr::Union(l, r) => format!("U({},{})", ra_fingerprint(l), ra_fingerprint(r)),
        RaExpr::Intersect(l, r) => format!("I({},{})", ra_fingerprint(l), ra_fingerprint(r)),
        RaExpr::Difference(l, r) => format!("D({},{})", ra_fingerprint(l), ra_fingerprint(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::{Catalog, Value};
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c", "d"])]).unwrap()
    }

    #[test]
    fn fingerprint_ignores_name_and_predicate_order() {
        let cat = catalog();
        let q1 = SpcQuery::builder(cat.clone(), "first")
            .atom("r", "x")
            .atom("s", "y")
            .eq(("x", "b"), ("y", "c"))
            .eq_const(("x", "a"), 7)
            .project(("y", "d"))
            .build()
            .unwrap();
        let q2 = SpcQuery::builder(cat, "second")
            .atom("r", "other")
            .atom("s", "alias")
            .eq_const(("other", "a"), 7)
            .eq(("alias", "c"), ("other", "b")) // flipped + reordered
            .project(("alias", "d"))
            .build()
            .unwrap();
        assert_eq!(query_fingerprint(&q1), query_fingerprint(&q2));
    }

    #[test]
    fn fingerprint_distinguishes_values_types_and_shape() {
        let cat = catalog();
        let base = |v: Value| {
            SpcQuery::builder(catalog(), "q")
                .atom("r", "x")
                .eq_const(("x", "a"), v)
                .project(("x", "b"))
                .build()
                .unwrap()
        };
        assert_ne!(
            query_fingerprint(&base(Value::int(1))),
            query_fingerprint(&base(Value::str("1"))),
            "int 1 and string \"1\" must not collide"
        );
        let proj_a = SpcQuery::builder(cat.clone(), "q")
            .atom("r", "x")
            .project(("x", "a"))
            .build()
            .unwrap();
        let proj_b = SpcQuery::builder(cat, "q")
            .atom("r", "x")
            .project(("x", "b"))
            .build()
            .unwrap();
        assert_ne!(query_fingerprint(&proj_a), query_fingerprint(&proj_b));
    }
}
