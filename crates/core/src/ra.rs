//! A heuristic effective-boundedness checker for **relational algebra** —
//! the paper's conclusion item (1) — that compiles what it certifies.
//!
//! Deciding (effective) boundedness is undecidable for RA queries
//! (Fan–Geerts–Libkin, cited as \[20\]), so no characterization like
//! Theorems 3/4 exists. What the conclusion proposes — and this module
//! implements — is an efficient *sufficient* condition over the RA
//! operators layered on SPC. Every SPC block is either **enumerated** (its
//! answer is fetched) or **probed** (a candidate tuple `t` is tested for
//! membership), and in either role the one question is whether an SPC
//! template has a bounded plan ([`qplan_template`]: `EBCheck`, exact by
//! Thm 4):
//!
//! * an enumerated block's template is the block itself;
//! * a probed block's is the block with its projection pinned to reserved
//!   probe slots, `Q(Z = ?⟨probe-i⟩)`. Whether `Q(Z = t)` is effectively
//!   bounded depends on which attributes are pinned, never on `t` (Section
//!   4.3), so that one plan answers membership for every candidate.
//!
//! A template's own placeholders seed the closure the same way, so a
//! template is certified as it stands, for every binding. The set
//! operators:
//!
//! * `Union(l, r)` — both sides in the union's role (the `Σ M_i` add);
//! * `Difference(l, r)` — `l` in the difference's role, `r` probed;
//! * `Intersect(l, r)` — enumerated: enumerate `l` and probe `r`, else
//!   enumerate `r` and probe `l`; probed: both sides probed.
//!
//! [`PreparedRa::prepare`] is that walk: it certifies the expression and
//! builds the plans of its skeleton in one pass, analysing each block at
//! most once per role it tries. [`ra_effectively_bounded`] is the same
//! walk with the plans dropped. When the check fails the query may still
//! be bounded — that is the undecidability tax; the report says which
//! subexpression failed and why. Evaluation of a [`PreparedRa`] lives in
//! `bcq-exec`'s `ra` module.

use crate::access::AccessSchema;
use crate::error::{CoreError, Result};
use crate::plan::QueryPlan;
use crate::qplan::qplan_template;
use crate::query::SpcQuery;
use std::collections::HashMap;
use std::sync::Arc;

/// A relational-algebra expression over SPC blocks.
///
/// All set operations require union-compatible sides (same projection
/// arity); attribute names need not match (positional semantics).
#[derive(Debug, Clone)]
pub enum RaExpr {
    /// An SPC block.
    Spc(SpcQuery),
    /// Set union.
    Union(Box<RaExpr>, Box<RaExpr>),
    /// Set intersection.
    Intersect(Box<RaExpr>, Box<RaExpr>),
    /// Set difference (left minus right).
    Difference(Box<RaExpr>, Box<RaExpr>),
}

impl RaExpr {
    /// Builds a union.
    pub fn union(l: RaExpr, r: RaExpr) -> RaExpr {
        RaExpr::Union(Box::new(l), Box::new(r))
    }

    /// Builds an intersection.
    pub fn intersect(l: RaExpr, r: RaExpr) -> RaExpr {
        RaExpr::Intersect(Box::new(l), Box::new(r))
    }

    /// Builds a difference (`l \ r`).
    pub fn difference(l: RaExpr, r: RaExpr) -> RaExpr {
        RaExpr::Difference(Box::new(l), Box::new(r))
    }

    /// Output arity of the expression.
    fn arity(&self) -> usize {
        match self {
            RaExpr::Spc(q) => q.projection().len(),
            RaExpr::Union(l, _) | RaExpr::Intersect(l, _) | RaExpr::Difference(l, _) => l.arity(),
        }
    }

    /// Validates union-compatibility (equal arities through the tree).
    fn validate(&self) -> Result<()> {
        match self {
            RaExpr::Spc(_) => Ok(()),
            RaExpr::Union(l, r) | RaExpr::Intersect(l, r) | RaExpr::Difference(l, r) => {
                l.validate()?;
                r.validate()?;
                if l.arity() != r.arity() {
                    return Err(CoreError::Invalid(format!(
                        "set operation over arities {} and {}",
                        l.arity(),
                        r.arity()
                    )));
                }
                Ok(())
            }
        }
    }

    /// All SPC blocks, left to right (diagnostics / planning).
    pub fn blocks(&self) -> Vec<&SpcQuery> {
        match self {
            RaExpr::Spc(q) => vec![q],
            RaExpr::Union(l, r) | RaExpr::Intersect(l, r) | RaExpr::Difference(l, r) => {
                let mut out = l.blocks();
                out.extend(r.blocks());
                out
            }
        }
    }
}

/// Outcome of [`ra_effectively_bounded`].
#[derive(Debug, Clone)]
pub struct RaReport {
    /// `true` if the sufficient condition certifies the expression.
    pub effectively_bounded: bool,
    /// Human-readable reason for the first failure, if any.
    pub failure: Option<String>,
}

/// The sufficient condition: certifies that `expr` can be evaluated by
/// accessing a bounded amount of data under `a` — [`PreparedRa::prepare`]
/// with the plans dropped, so a template is certified for every binding of
/// its placeholders. A `false` verdict means "not certified", not
/// "unbounded" (undecidable in general for RA).
pub fn ra_effectively_bounded(expr: &RaExpr, a: &AccessSchema) -> RaReport {
    let failure = match PreparedRa::prepare(expr, a) {
        Ok(_) => None,
        Err(CoreError::NotEffectivelyBounded(why)) => Some(why),
        Err(e) => Some(e.to_string()),
    };
    RaReport {
        effectively_bounded: failure.is_none(),
        failure,
    }
}

/// Prefix of the reserved slot names membership probes bind candidate rows
/// under; no placeholder of a prepared expression may start with it.
const PROBE_SLOT_PREFIX: &str = "⟨probe-";

/// A certified RA expression compiled for repeated execution: the
/// evaluation skeleton with every intersection's orientation chosen and a
/// parameterized bounded plan, operator program compiled, for every SPC
/// block, enumerated or probed. Executing it certifies and plans nothing.
#[derive(Debug, Clone)]
pub struct PreparedRa {
    root: RaPlan,
    /// The placeholders of every block, in first-use order.
    slots: Vec<String>,
    /// The reserved slots a probe binds the candidate row under, one per
    /// output column.
    probe_slots: Vec<String>,
}

/// A node of a [`PreparedRa`] skeleton. A node is *enumerated* (it yields
/// its answer) or *probed* (it says whether the candidate row bound to the
/// probe slots is in its answer): the root is enumerated, the `probe` side
/// of a [`RaPlan::Filter`] is probed, and every other child takes its
/// parent's role.
#[derive(Debug, Clone)]
pub enum RaPlan {
    /// An SPC block's plan. Enumerated, it yields the block's answer;
    /// probed, it is the plan of the block with its projection pinned to
    /// the probe slots, and the candidate is a member iff the plan's answer
    /// is non-empty.
    Spc(Arc<QueryPlan>),
    /// Union of the two sides.
    Union(Box<RaPlan>, Box<RaPlan>),
    /// The rows of `base` whose membership in `probe` equals
    /// `keep_members`: an intersection or a difference.
    Filter {
        /// The side in the node's own role.
        base: Box<RaPlan>,
        /// The side that is always probed.
        probe: Box<RaPlan>,
        /// `true` keeps the members of `probe` (intersection), `false`
        /// drops them (difference).
        keep_members: bool,
    },
}

impl PreparedRa {
    /// Certifies `expr` under `a` and compiles it, in one walk. Fails with
    /// [`CoreError::Invalid`] if the arities of a set operation's sides
    /// differ or a placeholder takes a probe slot's reserved name, and with
    /// [`CoreError::NotEffectivelyBounded`] if the sufficient condition
    /// does not certify `expr`.
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
        let probe_slots: Vec<String> = (0..expr.arity())
            .map(|i| format!("{PROBE_SLOT_PREFIX}{i}⟩"))
            .collect();
        let mut compiler = Compiler {
            a,
            probe_slots: &probe_slots,
            plans: HashMap::new(),
        };
        let root = compiler
            .enumerate(expr)
            .map_err(CoreError::NotEffectivelyBounded)?;
        Ok(PreparedRa {
            root,
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

    /// The root of the skeleton (enumerated).
    pub fn root(&self) -> &RaPlan {
        &self.root
    }

    /// The reserved slots a membership probe binds the candidate row under,
    /// one per output column.
    pub fn probe_slots(&self) -> &[String] {
        &self.probe_slots
    }
}

/// A step of the walk: what it built, or the failure text of [`RaReport`].
type Step<T> = std::result::Result<T, String>;

/// The certification walk. A block's plan is built the first time the walk
/// asks for it in a role and kept, verdict included, so trying both
/// orientations of nested intersections analyses no block twice in one
/// role.
struct Compiler<'a> {
    a: &'a AccessSchema,
    probe_slots: &'a [String],
    plans: HashMap<(*const SpcQuery, bool), Step<Arc<QueryPlan>>>,
}

impl Compiler<'_> {
    /// `expr` compiled to be enumerated.
    fn enumerate(&mut self, expr: &RaExpr) -> Step<RaPlan> {
        Ok(match expr {
            RaExpr::Spc(q) => RaPlan::Spc(
                self.block(q, false)
                    .map_err(|why| format!("`{}` is not effectively bounded: {why}", q.name()))?,
            ),
            RaExpr::Union(l, r) => {
                RaPlan::Union(Box::new(self.enumerate(l)?), Box::new(self.enumerate(r)?))
            }
            // The orientation rule: enumerate the left side and probe the
            // right, else the other way round.
            RaExpr::Intersect(l, r) => match self.filter(l, r, true) {
                Ok(node) => node,
                Err(_) => self.filter(r, l, true).map_err(|_| {
                    "neither side of the intersection is enumerable with the other probe-checkable"
                        .to_string()
                })?,
            },
            RaExpr::Difference(l, r) => self.filter(l, r, false)?,
        })
    }

    /// `base` enumerated and filtered by membership in `probe`.
    fn filter(&mut self, base: &RaExpr, probe: &RaExpr, keep_members: bool) -> Step<RaPlan> {
        Ok(RaPlan::Filter {
            base: Box::new(self.enumerate(base)?),
            probe: Box::new(self.probe(probe)?),
            keep_members,
        })
    }

    /// `expr` compiled to test the candidate bound to the probe slots for
    /// membership.
    fn probe(&mut self, expr: &RaExpr) -> Step<RaPlan> {
        Ok(match expr {
            RaExpr::Spc(q) => RaPlan::Spc(self.block(q, true).map_err(|why| {
                format!(
                    "membership in `{}` is not boundedly checkable: {why}",
                    q.name()
                )
            })?),
            RaExpr::Union(l, r) => {
                RaPlan::Union(Box::new(self.probe(l)?), Box::new(self.probe(r)?))
            }
            RaExpr::Intersect(l, r) | RaExpr::Difference(l, r) => RaPlan::Filter {
                base: Box::new(self.probe(l)?),
                probe: Box::new(self.probe(r)?),
                keep_members: matches!(expr, RaExpr::Intersect(..)),
            },
        })
    }

    /// The plan of block `q` — of `q` with its `i`-th projection attribute
    /// pinned to the `i`-th probe slot if `probed` — or why there is none.
    fn block(&mut self, q: &SpcQuery, probed: bool) -> Step<Arc<QueryPlan>> {
        let (a, probe_slots) = (self.a, self.probe_slots);
        self.plans
            .entry((q as *const SpcQuery, probed))
            .or_insert_with(|| {
                let pinned;
                let template = if probed {
                    let pins: Vec<_> = q
                        .projection()
                        .iter()
                        .copied()
                        .zip(probe_slots.iter().map(String::as_str))
                        .collect();
                    pinned = q.with_params(&pins);
                    &pinned
                } else {
                    q
                };
                match qplan_template(template, a) {
                    Ok(plan) => {
                        plan.program();
                        Ok(Arc::new(plan))
                    }
                    Err(CoreError::NotEffectivelyBounded(why)) => Err(why),
                    Err(e) => Err(e.to_string()),
                }
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::fixtures::{a0, photos_catalog, q0};

    /// π_{photo} σ_{album = x}(in_album) — effectively bounded under A0.
    fn album_photos(name: &str, album: &str) -> SpcQuery {
        SpcQuery::builder(photos_catalog(), name)
            .atom("in_album", "ia")
            .eq_const(("ia", "album_id"), album)
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    /// π_{photo} σ_{taggee = u}(tagging) — NOT effectively bounded under A0
    /// (no index keyed within {photo, taggee}… actually (photo,taggee) is
    /// the index key, but taggee alone cannot enumerate photos).
    fn tagged_photos(name: &str, user: &str) -> SpcQuery {
        SpcQuery::builder(photos_catalog(), name)
            .atom("tagging", "t")
            .eq_const(("t", "taggee_id"), user)
            .project(("t", "photo_id"))
            .build()
            .unwrap()
    }

    #[test]
    fn spc_leaf_defers_to_ebcheck() {
        let a = a0();
        let e = RaExpr::Spc(q0());
        assert!(ra_effectively_bounded(&e, &a).effectively_bounded);
        let bad = RaExpr::Spc(tagged_photos("t", "u0"));
        let r = ra_effectively_bounded(&bad, &a);
        assert!(!r.effectively_bounded);
        assert!(r.failure.unwrap().contains("not effectively bounded"));
    }

    #[test]
    fn union_needs_both_sides() {
        let a = a0();
        let good = RaExpr::union(
            RaExpr::Spc(album_photos("a", "a0")),
            RaExpr::Spc(album_photos("b", "a1")),
        );
        assert!(ra_effectively_bounded(&good, &a).effectively_bounded);

        let half = RaExpr::union(
            RaExpr::Spc(album_photos("a", "a0")),
            RaExpr::Spc(tagged_photos("t", "u0")),
        );
        assert!(!ra_effectively_bounded(&half, &a).effectively_bounded);
    }

    #[test]
    fn difference_probes_the_right_side() {
        let a = a0();
        // photos in a0 that are NOT photos in which u0 is tagged:
        // the right side is not enumerable, but membership IS checkable —
        // given a photo, (photo, taggee) is the tagging index key.
        let e = RaExpr::difference(
            RaExpr::Spc(album_photos("a", "a0")),
            RaExpr::Spc(tagged_photos("t", "u0")),
        );
        let r = ra_effectively_bounded(&e, &a);
        assert!(r.effectively_bounded, "{:?}", r.failure);

        // Swapped, the left side must be enumerable — and is not.
        let swapped = RaExpr::difference(
            RaExpr::Spc(tagged_photos("t", "u0")),
            RaExpr::Spc(album_photos("a", "a0")),
        );
        assert!(!ra_effectively_bounded(&swapped, &a).effectively_bounded);
    }

    #[test]
    fn intersection_tries_both_orientations() {
        let a = a0();
        // enumerable ∩ probe-checkable: certified either way around.
        for (l, r) in [
            (album_photos("a", "a0"), tagged_photos("t", "u0")),
            (tagged_photos("t", "u0"), album_photos("a", "a0")),
        ] {
            let e = RaExpr::intersect(RaExpr::Spc(l), RaExpr::Spc(r));
            let rep = ra_effectively_bounded(&e, &a);
            assert!(rep.effectively_bounded, "{:?}", rep.failure);
        }
    }

    #[test]
    fn the_skeleton_keeps_the_orientation_the_walk_chose() {
        let a = a0();
        // tagged(u0) cannot be enumerated: the album is, and the tagged
        // block is planned with its photo pinned to the probe slot.
        let e = RaExpr::intersect(
            RaExpr::Spc(tagged_photos("t", "u0")),
            RaExpr::Spc(album_photos("a", "a0")),
        );
        let prepared = PreparedRa::prepare(&e, &a).unwrap();
        let RaPlan::Filter {
            base,
            probe,
            keep_members: true,
        } = prepared.root()
        else {
            panic!("{:?}", prepared.root());
        };
        let (RaPlan::Spc(base), RaPlan::Spc(probe)) = (&**base, &**probe) else {
            panic!("two blocks");
        };
        assert_eq!(base.query().name(), "a");
        assert_eq!(probe.query().name(), "t");
        assert_eq!(probe.param_slots(), prepared.probe_slots());
        assert_eq!(prepared.probe_slots(), ["⟨probe-0⟩"]);
    }

    #[test]
    fn templates_are_certified_as_they_stand() {
        let a = a0();
        let with_slot = |rel: &str, alias: &str, attr: &str, slot: &str, proj: &str| {
            RaExpr::Spc(
                SpcQuery::builder(photos_catalog(), alias)
                    .atom(rel, alias)
                    .eq_param((alias, attr), slot)
                    .project((alias, proj))
                    .build()
                    .unwrap(),
            )
        };
        let album = with_slot("in_album", "ia", "album_id", "album", "photo_id");
        let tagged = with_slot("tagging", "t", "taggee_id", "user", "photo_id");
        // Placeholders seed the closure as constants do …
        let e = RaExpr::difference(album.clone(), tagged.clone());
        let r = ra_effectively_bounded(&e, &a);
        assert!(r.effectively_bounded, "{:?}", r.failure);
        let prepared = PreparedRa::prepare(&e, &a).unwrap();
        assert_eq!(prepared.param_slots(), ["album", "user"]);
        // … and no further: a taggee alone still enumerates nothing.
        let r = ra_effectively_bounded(&tagged, &a);
        assert!(!r.effectively_bounded);
        assert!(r
            .failure
            .unwrap()
            .contains("`t` is not effectively bounded"));
        // A placeholder named like a probe slot is refused.
        let reserved = with_slot("in_album", "ia", "album_id", "⟨probe-0⟩", "photo_id");
        let r = ra_effectively_bounded(&reserved, &a);
        assert!(r
            .failure
            .unwrap()
            .contains("reserved for membership probes"));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let a = a0();
        let two_cols = SpcQuery::builder(photos_catalog(), "two")
            .atom("in_album", "ia")
            .eq_const(("ia", "album_id"), "a0")
            .project(("ia", "photo_id"))
            .project(("ia", "album_id"))
            .build()
            .unwrap();
        let e = RaExpr::union(RaExpr::Spc(album_photos("a", "a0")), RaExpr::Spc(two_cols));
        let r = ra_effectively_bounded(&e, &a);
        assert!(!r.effectively_bounded);
        assert!(r.failure.unwrap().contains("arities"));
    }

    #[test]
    fn nested_expressions() {
        let a = a0();
        // (a0 ∪ a1) \ tagged(u0): certified.
        let e = RaExpr::difference(
            RaExpr::union(
                RaExpr::Spc(album_photos("a", "a0")),
                RaExpr::Spc(album_photos("b", "a1")),
            ),
            RaExpr::Spc(tagged_photos("t", "u0")),
        );
        assert!(ra_effectively_bounded(&e, &a).effectively_bounded);
        assert_eq!(e.blocks().len(), 3);
        assert_eq!(e.arity(), 1);
    }

    #[test]
    fn membership_probe_through_difference() {
        let a = a0();
        // l \ (r1 \ r2) — the inner difference is itself only probed.
        let e = RaExpr::difference(
            RaExpr::Spc(album_photos("a", "a0")),
            RaExpr::difference(
                RaExpr::Spc(tagged_photos("t", "u0")),
                RaExpr::Spc(tagged_photos("t2", "u1")),
            ),
        );
        let r = ra_effectively_bounded(&e, &a);
        assert!(r.effectively_bounded, "{:?}", r.failure);
    }
}
