//! Access schemas: access constraints `X → (Y, N)` (Section 2 of the paper).
//!
//! An access constraint over a relation schema `R` is a pairing of a
//! cardinality constraint and an index: for every `X`-value there are at most
//! `N` distinct corresponding `Y`-values, and an index on `X` retrieves a
//! witness set of at most `N` tuples covering them, at a cost measured in `N`
//! (independent of `|D|`).
//!
//! Functional dependencies are the special case `X → (Y, 1)`, keys are
//! `X → (R, 1)`, and a bounded attribute domain of size `N` yields
//! `∅ → (B, N)`.

use crate::error::{CoreError, Result};
use crate::schema::{Catalog, RelId};
use std::fmt;
use std::sync::Arc;

/// Identifier of a constraint inside an [`AccessSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintId(pub usize);

/// An access constraint `X → (Y, N)` over one relation of the catalog.
///
/// `x` may be empty (bounded-domain constraints). Column indices are kept
/// sorted and deduplicated; `y` never overlaps `x` (overlapping columns are
/// dropped from `y` — they carry no information since `X ⊆ X ∪ Y` always
/// holds for retrieval purposes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessConstraint {
    relation: RelId,
    x: Vec<usize>,
    y: Vec<usize>,
    n: u64,
}

impl AccessConstraint {
    /// Creates a constraint from column indices; validates against `catalog`.
    pub fn new(
        catalog: &Catalog,
        relation: RelId,
        x: impl IntoIterator<Item = usize>,
        y: impl IntoIterator<Item = usize>,
        n: u64,
    ) -> Result<Self> {
        if relation.0 >= catalog.len() {
            return Err(CoreError::Invalid(format!(
                "relation id {relation} out of range"
            )));
        }
        if n == 0 {
            return Err(CoreError::Invalid(
                "access constraint bound N must be >= 1".into(),
            ));
        }
        let arity = catalog.relation(relation).arity();
        let mut x: Vec<usize> = x.into_iter().collect();
        x.sort_unstable();
        x.dedup();
        let mut y: Vec<usize> = y.into_iter().collect();
        y.sort_unstable();
        y.dedup();
        y.retain(|c| !x.contains(c));
        for &c in x.iter().chain(y.iter()) {
            if c >= arity {
                return Err(CoreError::Invalid(format!(
                    "column {c} out of range for relation `{}`",
                    catalog.relation(relation).name()
                )));
            }
        }
        if y.is_empty() {
            return Err(CoreError::Invalid(
                "access constraint must expose at least one Y column not in X".into(),
            ));
        }
        Ok(AccessConstraint { relation, x, y, n })
    }

    /// Relation the constraint is defined over.
    pub fn relation(&self) -> RelId {
        self.relation
    }

    /// The `X` (lookup key) columns, sorted.
    pub fn x(&self) -> &[usize] {
        &self.x
    }

    /// The `Y` (retrieved) columns, sorted, disjoint from `X`.
    pub fn y(&self) -> &[usize] {
        &self.y
    }

    /// The cardinality bound `N`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Columns covered by the constraint: `X ∪ Y` (sorted).
    pub fn covered(&self) -> Vec<usize> {
        let mut all = self.x.clone();
        all.extend_from_slice(&self.y);
        all.sort_unstable();
        all
    }

    /// `true` if this is an FD-style constraint (`N = 1`).
    pub fn is_functional(&self) -> bool {
        self.n == 1
    }

    /// Renders the constraint using catalog attribute names, e.g.
    /// `in_album: (album_id) -> (photo_id, 1000)`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> impl fmt::Display + 'a {
        struct D<'a>(&'a AccessConstraint, &'a Catalog);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let rel = self.1.relation(self.0.relation);
                let names = |cols: &[usize]| {
                    cols.iter()
                        .map(|&c| rel.attribute(c).to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                write!(
                    f,
                    "{}: ({}) -> ({}, {})",
                    rel.name(),
                    names(&self.0.x),
                    names(&self.0.y),
                    self.0.n
                )
            }
        }
        D(self, catalog)
    }
}

/// An access schema `A`: a set of access constraints over a catalog.
#[derive(Debug, Clone)]
pub struct AccessSchema {
    catalog: Arc<Catalog>,
    constraints: Vec<AccessConstraint>,
    by_relation: Vec<Vec<ConstraintId>>,
}

impl AccessSchema {
    /// Creates an empty access schema over `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let by_relation = vec![Vec::new(); catalog.len()];
        AccessSchema {
            catalog,
            constraints: Vec::new(),
            by_relation,
        }
    }

    /// The catalog this schema is defined over.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Adds a constraint given by attribute *names*; the common construction
    /// path. `x` may be empty for bounded-domain constraints.
    ///
    /// Returns the id of the new constraint.
    pub fn add(&mut self, relation: &str, x: &[&str], y: &[&str], n: u64) -> Result<ConstraintId> {
        let rel_id = self.catalog.require_rel(relation)?;
        let rel = self.catalog.relation(rel_id);
        let xs = x
            .iter()
            .map(|a| rel.require_attr(a))
            .collect::<Result<Vec<_>>>()?;
        let ys = y
            .iter()
            .map(|a| rel.require_attr(a))
            .collect::<Result<Vec<_>>>()?;
        let c = AccessConstraint::new(&self.catalog, rel_id, xs, ys, n)?;
        Ok(self.push(c))
    }

    /// Adds a key on `relation`: `X → (R, 1)` where `R` is all attributes.
    pub fn add_key(&mut self, relation: &str, x: &[&str]) -> Result<ConstraintId> {
        let rel_id = self.catalog.require_rel(relation)?;
        let all: Vec<String> = self
            .catalog
            .relation(rel_id)
            .attributes()
            .iter()
            .filter(|a| !x.contains(&a.as_str()))
            .cloned()
            .collect();
        let all_refs: Vec<&str> = all.iter().map(String::as_str).collect();
        self.add(relation, x, &all_refs, 1)
    }

    /// Adds a bounded-domain constraint: attribute `attr` takes at most `n`
    /// distinct values, expressed as `∅ → (attr, n)`.
    pub fn add_bounded_domain(
        &mut self,
        relation: &str,
        attr: &str,
        n: u64,
    ) -> Result<ConstraintId> {
        self.add(relation, &[], &[attr], n)
    }

    /// Adds an already-validated constraint.
    pub fn push(&mut self, c: AccessConstraint) -> ConstraintId {
        let id = ConstraintId(self.constraints.len());
        self.by_relation[c.relation().0].push(id);
        self.constraints.push(c);
        id
    }

    /// Number of constraints (the paper's `‖A‖`).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` if the schema has no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// All constraints (indexable by [`ConstraintId`]).
    pub fn constraints(&self) -> &[AccessConstraint] {
        &self.constraints
    }

    /// The constraint with the given id.
    pub fn constraint(&self, id: ConstraintId) -> &AccessConstraint {
        &self.constraints[id.0]
    }

    /// Ids of the constraints defined over `relation`.
    pub fn for_relation(&self, relation: RelId) -> &[ConstraintId] {
        &self.by_relation[relation.0]
    }

    /// A new schema containing only the first `k` constraints — used by the
    /// `‖A‖` sweeps of Figure 5(b)/(f)/(j).
    pub fn prefix(&self, k: usize) -> AccessSchema {
        let mut out = AccessSchema::new(Arc::clone(&self.catalog));
        for c in self.constraints.iter().take(k) {
            out.push(c.clone());
        }
        out
    }

    /// A new schema containing only the selected constraints.
    pub fn subset(&self, ids: impl IntoIterator<Item = ConstraintId>) -> AccessSchema {
        let mut out = AccessSchema::new(Arc::clone(&self.catalog));
        for id in ids {
            out.push(self.constraint(id).clone());
        }
        out
    }

    /// Finds a constraint witnessing that `cols` (sorted column indices of
    /// `relation`) is **indexed in `A`** in the sense of Section 3.2: a
    /// constraint `X → (W, N)` with `X ⊆ cols` and `cols ⊆ X ∪ W`.
    ///
    /// Returns the witness with the smallest bound `N`. The empty set is
    /// trivially indexed but this method requires a witness constraint;
    /// callers treat `cols = ∅` separately.
    pub fn covering_constraint(&self, relation: RelId, cols: &[usize]) -> Option<ConstraintId> {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        let mut best: Option<(u64, ConstraintId)> = None;
        for &cid in self.for_relation(relation) {
            let c = self.constraint(cid);
            let x_sub = c.x().iter().all(|col| cols.binary_search(col).is_ok());
            if !x_sub {
                continue;
            }
            let covered = c.covered();
            let cols_sub = cols.iter().all(|col| covered.binary_search(col).is_ok());
            if !cols_sub {
                continue;
            }
            if best.is_none_or(|(n, _)| c.n() < n) {
                best = Some((c.n(), cid));
            }
        }
        best.map(|(_, cid)| cid)
    }

    /// All constraints witnessing that `cols` is indexed (see
    /// [`Self::covering_constraint`]), unordered.
    pub fn covering_constraints(&self, relation: RelId, cols: &[usize]) -> Vec<ConstraintId> {
        self.for_relation(relation)
            .iter()
            .copied()
            .filter(|&cid| {
                let c = self.constraint(cid);
                let covered = c.covered();
                c.x().iter().all(|col| cols.binary_search(col).is_ok())
                    && cols.iter().all(|col| covered.binary_search(col).is_ok())
            })
            .collect()
    }

    /// A new schema with the constraints for which `keep` returns true.
    pub fn filtered(
        &self,
        mut keep: impl FnMut(ConstraintId, &AccessConstraint) -> bool,
    ) -> AccessSchema {
        let mut out = AccessSchema::new(Arc::clone(&self.catalog));
        for (i, c) in self.constraints.iter().enumerate() {
            if keep(ConstraintId(i), c) {
                out.push(c.clone());
            }
        }
        out
    }
}

impl fmt::Display for AccessSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            writeln!(f, "  [{}] {}", i, c.display(&self.catalog))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photos() -> Arc<Catalog> {
        Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap()
    }

    /// The access schema A0 of Example 2.
    pub(crate) fn a0() -> AccessSchema {
        let mut a = AccessSchema::new(photos());
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
            .unwrap();
        a
    }

    #[test]
    fn example2_constraints() {
        let a = a0();
        assert_eq!(a.len(), 3);
        let c = a.constraint(ConstraintId(2));
        assert_eq!(c.x(), &[0, 2]);
        assert_eq!(c.y(), &[1]);
        assert_eq!(c.n(), 1);
        assert!(c.is_functional());
        assert_eq!(c.covered(), vec![0, 1, 2]);
        assert_eq!(
            c.display(a.catalog()).to_string(),
            "tagging: (photo_id, taggee_id) -> (tagger_id, 1)"
        );
    }

    #[test]
    fn by_relation_index() {
        let a = a0();
        let cat = Arc::clone(a.catalog());
        assert_eq!(a.for_relation(cat.rel_id("friends").unwrap()).len(), 1);
        assert_eq!(a.for_relation(cat.rel_id("tagging").unwrap()).len(), 1);
    }

    #[test]
    fn key_expands_to_all_attributes() {
        let mut a = AccessSchema::new(photos());
        let id = a.add_key("tagging", &["photo_id", "taggee_id"]).unwrap();
        let c = a.constraint(id);
        assert_eq!(c.x(), &[0, 2]);
        assert_eq!(c.y(), &[1]);
        assert_eq!(c.n(), 1);
    }

    #[test]
    fn bounded_domain_has_empty_x() {
        let mut a = AccessSchema::new(photos());
        let id = a.add_bounded_domain("in_album", "album_id", 365).unwrap();
        let c = a.constraint(id);
        assert!(c.x().is_empty());
        assert_eq!(c.y(), &[1]);
    }

    #[test]
    fn zero_bound_rejected() {
        let mut a = AccessSchema::new(photos());
        assert!(a.add("friends", &["user_id"], &["friend_id"], 0).is_err());
    }

    #[test]
    fn y_overlapping_x_is_normalized_away() {
        let cat = photos();
        let c = AccessConstraint::new(&cat, RelId(1), [0], [0, 1], 10).unwrap();
        assert_eq!(c.x(), &[0]);
        assert_eq!(c.y(), &[1]);
        // Entirely-overlapping Y is rejected.
        assert!(AccessConstraint::new(&cat, RelId(1), [0], [0], 10).is_err());
    }

    #[test]
    fn unknown_names_rejected() {
        let mut a = AccessSchema::new(photos());
        assert!(a.add("ghost", &[], &["x"], 1).is_err());
        assert!(a.add("friends", &["nope"], &["friend_id"], 1).is_err());
    }

    #[test]
    fn prefix_and_subset() {
        let a = a0();
        assert_eq!(a.prefix(2).len(), 2);
        assert_eq!(a.subset([ConstraintId(0), ConstraintId(2)]).len(), 2);
        let filtered = a.filtered(|_, c| c.is_functional());
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn out_of_range_column_rejected() {
        let cat = photos();
        assert!(AccessConstraint::new(&cat, RelId(0), [5], [1], 10).is_err());
        assert!(AccessConstraint::new(&cat, RelId(0), [0], [9], 10).is_err());
    }
}
