//! SPC (conjunctive) queries: `Q(Z) = π_Z σ_C (S_1 × … × S_n)`.
//!
//! Each `S_i` is a *renaming* (alias) of a relation in the catalog; the same
//! relation may appear several times. The selection condition `C` is a
//! conjunction of equality atoms `S[A] = S'[A']` and `S[A] = c`. In addition
//! to the paper, we support *parameter placeholders* `S[A] = ?name`, modelling
//! the parameterized queries of Example 1(2) (Web-form templates): a
//! placeholder marks an attribute as a parameter of the query without binding
//! it to a constant. [`SpcQuery::instantiate`] turns placeholders into
//! constants.

use crate::error::{CoreError, Result};
use crate::schema::{Catalog, RelId};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A query attribute `S_i[A]`: column `col` of the `atom`-th renaming in the
/// Cartesian product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QAttr {
    /// Index of the atom (renaming) in the product, `0..n`.
    pub atom: usize,
    /// Column within the atom's relation schema.
    pub col: usize,
}

impl QAttr {
    /// Shorthand constructor.
    pub fn new(atom: usize, col: usize) -> Self {
        QAttr { atom, col }
    }
}

/// One renaming `S_i` of a catalog relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relation being renamed.
    pub relation: RelId,
    /// Alias unique within the query (e.g. `t1`).
    pub alias: String,
}

/// An equality atom of the selection condition `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `S[A] = S'[A']` (possibly within the same atom).
    Eq(QAttr, QAttr),
    /// `S[A] = c`.
    Const(QAttr, Value),
    /// `S[A] = ?name` — an unbound parameter placeholder.
    Param(QAttr, String),
}

/// An SPC query over a [`Catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpcQuery {
    name: String,
    catalog: Arc<Catalog>,
    atoms: Vec<Atom>,
    predicates: Vec<Predicate>,
    projection: Vec<QAttr>,
    /// Flat-id offsets: attribute `QAttr{atom, col}` has flat id
    /// `offsets[atom] + col`; `offsets[n]` is the total attribute count.
    offsets: Vec<usize>,
}

impl SpcQuery {
    /// Starts building a query called `name` over `catalog`.
    pub fn builder(catalog: Arc<Catalog>, name: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            name: name.into(),
            catalog,
            atoms: Vec::new(),
            alias_index: HashMap::new(),
            predicates: Vec::new(),
            projection: Vec::new(),
            error: None,
        }
    }

    /// Query name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The catalog the query is defined over.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The renamings `S_1 … S_n`.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms `n`.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The selection condition `C` as a list of equality atoms.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The projection list `Z` (empty for Boolean queries).
    pub fn projection(&self) -> &[QAttr] {
        &self.projection
    }

    /// `true` if `Z = ∅`, i.e. the query is Boolean.
    pub fn is_boolean(&self) -> bool {
        self.projection.is_empty()
    }

    /// The paper's `#-sel`: number of equality atoms in `σ_C`.
    pub fn num_sel(&self) -> usize {
        self.predicates.len()
    }

    /// The paper's `#-prod`: number of Cartesian products, i.e. `n - 1`.
    pub fn num_prod(&self) -> usize {
        self.atoms.len().saturating_sub(1)
    }

    /// `|Q|`: a size measure counting atoms, predicates and projections.
    pub fn size(&self) -> usize {
        self.atoms.len() + self.predicates.len() + self.projection.len()
    }

    /// Total number of attributes across all atoms (flat id space).
    pub fn total_attrs(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Flat id of a query attribute (dense `0..total_attrs()`).
    pub fn flat_id(&self, a: QAttr) -> usize {
        debug_assert!(a.atom < self.atoms.len());
        debug_assert!(a.col < self.arity_of(a.atom));
        self.offsets[a.atom] + a.col
    }

    /// Inverse of [`Self::flat_id`].
    pub fn attr_of_flat(&self, flat: usize) -> QAttr {
        debug_assert!(flat < self.total_attrs());
        // offsets is sorted; find the atom whose range contains `flat`.
        let atom = match self.offsets.binary_search(&flat) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        QAttr::new(atom, flat - self.offsets[atom])
    }

    /// Arity of the `atom`-th renaming.
    pub fn arity_of(&self, atom: usize) -> usize {
        self.catalog.relation(self.atoms[atom].relation).arity()
    }

    /// The relation id of the `atom`-th renaming.
    pub fn relation_of(&self, atom: usize) -> RelId {
        self.atoms[atom].relation
    }

    /// The relations this query's atoms read, sorted and deduplicated —
    /// the only slice of a database's state that can influence the answer.
    /// Relation-scoped cache and view invalidation key on this set.
    pub fn read_rels(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self.atoms.iter().map(|a| a.relation).collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    /// Human-readable name `alias.attr` of a query attribute.
    pub fn attr_name(&self, a: QAttr) -> String {
        let rel = self.catalog.relation(self.atoms[a.atom].relation);
        format!("{}.{}", self.atoms[a.atom].alias, rel.attribute(a.col))
    }

    /// The *parameters* of `Q`: attributes that appear in `Z` or in `C`
    /// (literally, before `Σ_Q` closure), deduplicated, in a stable order.
    pub fn parameters(&self) -> Vec<QAttr> {
        let mut seen = vec![false; self.total_attrs()];
        let mut out = Vec::new();
        let push = |q: &SpcQuery, seen: &mut Vec<bool>, out: &mut Vec<QAttr>, a: QAttr| {
            let id = q.flat_id(a);
            if !seen[id] {
                seen[id] = true;
                out.push(a);
            }
        };
        for p in &self.predicates {
            match p {
                Predicate::Eq(a, b) => {
                    push(self, &mut seen, &mut out, *a);
                    push(self, &mut seen, &mut out, *b);
                }
                Predicate::Const(a, _) | Predicate::Param(a, _) => {
                    push(self, &mut seen, &mut out, *a)
                }
            }
        }
        for &a in &self.projection {
            push(self, &mut seen, &mut out, a);
        }
        out
    }

    /// Names of unbound `?placeholders`, deduplicated, in first-use order.
    pub fn placeholder_names(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.predicates {
            if let Predicate::Param(_, name) = p {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    /// `true` if the query template still has unbound placeholders.
    pub fn has_placeholders(&self) -> bool {
        self.predicates
            .iter()
            .any(|p| matches!(p, Predicate::Param(..)))
    }

    /// Binds placeholders to constants, producing an executable query
    /// (`Q(X_P = ā)` in the paper's notation when the placeholders are the
    /// dominating parameters). Placeholders missing from `bindings` stay
    /// unbound; use [`Self::require_ground`] to insist on full binding.
    pub fn instantiate(&self, bindings: &BTreeMap<String, Value>) -> SpcQuery {
        let mut q = self.clone();
        for p in &mut q.predicates {
            if let Predicate::Param(a, name) = p {
                if let Some(v) = bindings.get(name.as_str()) {
                    *p = Predicate::Const(*a, v.clone());
                }
            }
        }
        q
    }

    /// Adds `attr = value` conditions for each pair — the `Q(X_P = ā)`
    /// construction used once dominating parameters have been picked.
    pub fn with_constants(&self, consts: &[(QAttr, Value)]) -> SpcQuery {
        let mut q = self.clone();
        for (a, v) in consts {
            q.predicates.push(Predicate::Const(*a, v.clone()));
        }
        q
    }

    /// [`Self::with_constants`] with the values left open: adds
    /// `attr = ?name` for each pair, so one template stands for
    /// `Q(X_P = ā)` at every `ā`.
    pub fn with_params(&self, params: &[(QAttr, &str)]) -> SpcQuery {
        let mut q = self.clone();
        for (a, name) in params {
            q.predicates.push(Predicate::Param(*a, name.to_string()));
        }
        q
    }

    /// Errors if any placeholder is unbound.
    pub fn require_ground(&self) -> Result<()> {
        let names = self.placeholder_names();
        if names.is_empty() {
            Ok(())
        } else {
            Err(CoreError::UnboundParameters(names))
        }
    }
}

impl fmt::Display for SpcQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, z) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.attr_name(*z))?;
        }
        write!(f, ") = pi sigma[")?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            match p {
                Predicate::Eq(a, b) => {
                    write!(f, "{} = {}", self.attr_name(*a), self.attr_name(*b))?
                }
                Predicate::Const(a, v) => write!(f, "{} = {}", self.attr_name(*a), v)?,
                Predicate::Param(a, n) => write!(f, "{} = ?{}", self.attr_name(*a), n)?,
            }
        }
        write!(f, "](")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(
                f,
                "{} {}",
                self.catalog.relation(atom.relation).name(),
                atom.alias
            )?;
        }
        write!(f, ")")
    }
}

/// Fluent builder for [`SpcQuery`]. Errors are deferred to [`Self::build`] so
/// construction chains stay readable.
pub struct QueryBuilder {
    name: String,
    catalog: Arc<Catalog>,
    atoms: Vec<Atom>,
    alias_index: HashMap<String, usize>,
    predicates: Vec<Predicate>,
    projection: Vec<QAttr>,
    error: Option<CoreError>,
}

impl QueryBuilder {
    /// Adds a renaming of `relation` with an explicit `alias`.
    pub fn atom(mut self, relation: &str, alias: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.catalog.require_rel(relation) {
            Ok(rel) => {
                if self.alias_index.contains_key(alias) {
                    self.error = Some(CoreError::Duplicate(format!("alias `{alias}`")));
                } else {
                    self.alias_index.insert(alias.to_string(), self.atoms.len());
                    self.atoms.push(Atom {
                        relation: rel,
                        alias: alias.to_string(),
                    });
                }
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    fn resolve(&mut self, alias: &str, attr: &str) -> Option<QAttr> {
        if self.error.is_some() {
            return None;
        }
        let Some(&atom) = self.alias_index.get(alias) else {
            self.error = Some(CoreError::UnknownAlias(alias.to_string()));
            return None;
        };
        let rel = self.catalog.relation(self.atoms[atom].relation);
        match rel.require_attr(attr) {
            Ok(col) => Some(QAttr::new(atom, col)),
            Err(_) => {
                self.error = Some(CoreError::UnknownAttribute {
                    relation: format!("{} (alias {alias})", rel.name()),
                    attribute: attr.to_string(),
                });
                None
            }
        }
    }

    /// Adds `alias.attr = alias'.attr'` to the selection condition.
    pub fn eq(mut self, a: (&str, &str), b: (&str, &str)) -> Self {
        let (Some(qa), Some(qb)) = (self.resolve(a.0, a.1), self.resolve(b.0, b.1)) else {
            return self;
        };
        self.predicates.push(Predicate::Eq(qa, qb));
        self
    }

    /// Adds `alias.attr = c` to the selection condition.
    pub fn eq_const(mut self, a: (&str, &str), value: impl Into<Value>) -> Self {
        let Some(qa) = self.resolve(a.0, a.1) else {
            return self;
        };
        self.predicates.push(Predicate::Const(qa, value.into()));
        self
    }

    /// Adds `alias.attr = ?name` (an unbound parameter placeholder).
    pub fn eq_param(mut self, a: (&str, &str), name: &str) -> Self {
        let Some(qa) = self.resolve(a.0, a.1) else {
            return self;
        };
        self.predicates.push(Predicate::Param(qa, name.to_string()));
        self
    }

    /// Appends `alias.attr` to the projection list `Z`.
    pub fn project(mut self, a: (&str, &str)) -> Self {
        let Some(qa) = self.resolve(a.0, a.1) else {
            return self;
        };
        self.projection.push(qa);
        self
    }

    /// Finalizes the query.
    pub fn build(self) -> Result<SpcQuery> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.atoms.is_empty() {
            return Err(CoreError::Invalid(
                "query must have at least one atom".into(),
            ));
        }
        let mut offsets = Vec::with_capacity(self.atoms.len() + 1);
        let mut total = 0usize;
        for atom in &self.atoms {
            offsets.push(total);
            total += self.catalog.relation(atom.relation).arity();
        }
        offsets.push(total);
        Ok(SpcQuery {
            name: self.name,
            catalog: self.catalog,
            atoms: self.atoms,
            predicates: self.predicates,
            projection: self.projection,
            offsets,
        })
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use crate::access::AccessSchema;

    /// Catalog of Example 1: in_album, friends, tagging.
    pub fn photos_catalog() -> Arc<Catalog> {
        Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap()
    }

    /// Access schema A0 of Example 2.
    pub fn a0() -> AccessSchema {
        let mut a = AccessSchema::new(photos_catalog());
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
            .unwrap();
        a
    }

    /// Query Q0 of Example 1: photos in album a0 where u0 is tagged by a friend.
    pub fn q0() -> SpcQuery {
        SpcQuery::builder(photos_catalog(), "Q0")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_const(("ia", "album_id"), "a0")
            .eq_const(("f", "user_id"), "u0")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq_const(("t", "taggee_id"), "u0")
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    /// Query Q1 of Example 1: the parameterized template (aid/uid unbound).
    pub fn q1() -> SpcQuery {
        SpcQuery::builder(photos_catalog(), "Q1")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_param(("ia", "album_id"), "aid")
            .eq_param(("f", "user_id"), "uid")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq(("t", "taggee_id"), ("f", "user_id"))
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn q0_shape() {
        let q = q0();
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.num_prod(), 2);
        assert_eq!(q.num_sel(), 5);
        assert!(!q.is_boolean());
        assert_eq!(q.total_attrs(), 7);
        assert_eq!(q.projection(), &[QAttr::new(0, 0)]);
        assert_eq!(q.attr_name(QAttr::new(2, 2)), "t.taggee_id");
    }

    #[test]
    fn flat_ids_roundtrip() {
        let q = q0();
        for atom in 0..q.num_atoms() {
            for col in 0..q.arity_of(atom) {
                let a = QAttr::new(atom, col);
                assert_eq!(q.attr_of_flat(q.flat_id(a)), a);
            }
        }
        assert_eq!(q.flat_id(QAttr::new(0, 0)), 0);
        assert_eq!(q.flat_id(QAttr::new(1, 0)), 2);
        assert_eq!(q.flat_id(QAttr::new(2, 0)), 4);
    }

    #[test]
    fn parameters_of_q0() {
        let q = q0();
        let params = q.parameters();
        // All 7 attributes of Q0 appear in C or Z.
        assert_eq!(params.len(), 7);
    }

    #[test]
    fn placeholders_and_instantiation() {
        let q1 = q1();
        assert!(q1.has_placeholders());
        assert_eq!(q1.placeholder_names(), vec!["aid", "uid"]);
        assert!(q1.require_ground().is_err());

        let mut b = BTreeMap::new();
        b.insert("aid".to_string(), Value::str("a0"));
        b.insert("uid".to_string(), Value::str("u0"));
        let ground = q1.instantiate(&b);
        assert!(!ground.has_placeholders());
        assert!(ground.require_ground().is_ok());
        // Instantiation preserves shape.
        assert_eq!(ground.num_sel(), q1.num_sel());
    }

    #[test]
    fn partial_instantiation_keeps_missing_placeholders() {
        let q1 = q1();
        let mut b = BTreeMap::new();
        b.insert("aid".to_string(), Value::str("a0"));
        let partial = q1.instantiate(&b);
        assert_eq!(partial.placeholder_names(), vec!["uid"]);
    }

    #[test]
    fn with_constants_appends_conditions() {
        let q1 = q1();
        let q = q1.with_constants(&[(QAttr::new(0, 1), Value::str("a9"))]);
        assert_eq!(q.num_sel(), q1.num_sel() + 1);
    }

    #[test]
    fn with_params_appends_placeholders() {
        let q = q0().with_params(&[(QAttr::new(0, 0), "z0")]);
        assert_eq!(q.num_sel(), q0().num_sel() + 1);
        assert_eq!(q.placeholder_names(), vec!["z0"]);
    }

    #[test]
    fn duplicate_alias_rejected() {
        let r = SpcQuery::builder(photos_catalog(), "bad")
            .atom("friends", "f")
            .atom("friends", "f")
            .build();
        assert!(matches!(r, Err(CoreError::Duplicate(_))));
    }

    #[test]
    fn unknown_alias_and_attr_rejected() {
        let r = SpcQuery::builder(photos_catalog(), "bad")
            .atom("friends", "f")
            .eq(("g", "user_id"), ("f", "user_id"))
            .build();
        assert!(matches!(r, Err(CoreError::UnknownAlias(_))));

        let r = SpcQuery::builder(photos_catalog(), "bad")
            .atom("friends", "f")
            .project(("f", "nope"))
            .build();
        assert!(matches!(r, Err(CoreError::UnknownAttribute { .. })));
    }

    #[test]
    fn empty_query_rejected() {
        assert!(SpcQuery::builder(photos_catalog(), "empty")
            .build()
            .is_err());
    }

    #[test]
    fn self_join_allowed() {
        let q = SpcQuery::builder(photos_catalog(), "pairs")
            .atom("friends", "f1")
            .atom("friends", "f2")
            .eq(("f1", "friend_id"), ("f2", "user_id"))
            .project(("f1", "user_id"))
            .project(("f2", "friend_id"))
            .build()
            .unwrap();
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.total_attrs(), 4);
        assert_eq!(q.attr_name(QAttr::new(1, 0)), "f2.user_id");
    }

    #[test]
    fn display_is_readable() {
        let s = q0().to_string();
        assert!(s.contains("Q0(ia.photo_id)"));
        assert!(s.contains("in_album ia"));
        assert!(s.contains("t.tagger_id = f.friend_id"));
    }
}
