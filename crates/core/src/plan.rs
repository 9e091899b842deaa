//! Bounded query plans (Section 5): proofs of `X_C ↦_IE (X^i_Q, M_i)`
//! replayed as dataflow.
//!
//! A [`QueryPlan`] is a topologically-ordered list of [`FetchStep`]s. Each
//! step probes the index of one access constraint on one atom, with key
//! values drawn from constants of the query and/or columns of earlier steps
//! (the `T_j ⊆ D` sets of Section 5.1). The union of all fetched tuples is
//! `D_Q`; the final join/filter/project over the per-atom *anchor* steps
//! computes `Q(D_Q) = Q(D)`.
//!
//! The static cost [`QueryPlan::cost_bound`] is the paper's `Σ M_i` bound on
//! `|D_Q|` — e.g. 7 000 for query `Q0` under access schema `A0` of
//! Example 1.

use crate::access::ConstraintId;
use crate::program::OpProgram;
use crate::query::SpcQuery;
use crate::sigma::{ClassId, Sigma};
use crate::value::Value;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a step within its plan (also its position in
/// [`QueryPlan::steps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepId(pub usize);

/// Where one key column of an index probe gets its values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// A constant from `X_C` (one fixed value).
    Const(Value),
    /// A parameter slot: the value of placeholder `?name`, supplied at
    /// execution time. Produced only by [`crate::qplan::qplan_template`] —
    /// the compiled-once/executed-many plans of the serving layer (the
    /// paper's parameterized queries `Q(x̄)` of Example 1(2)).
    Param(String),
    /// The distinct values of column `col` (an index into the source step's
    /// `out_cols`) of an earlier step's fetched tuples.
    Column {
        /// The earlier step providing the values.
        step: StepId,
        /// Position within that step's `out_cols`.
        col: usize,
    },
}

/// How a step fetches tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Probe the index of `constraint` with the enumerated keys; retrieve
    /// the (≤ N per key) witness tuples.
    IndexLookup,
    /// Fetch one arbitrary tuple — emptiness witness for an atom with no
    /// parameters (`X^i_Q = ∅`).
    Any,
}

/// One bounded fetch `T_j` of the plan.
#[derive(Debug, Clone)]
pub struct FetchStep {
    /// This step's id (= index in the plan).
    pub id: StepId,
    /// The atom (renaming) whose relation is probed.
    pub atom: usize,
    /// The access constraint whose index is used (`None` for [`FetchKind::Any`]).
    pub constraint: Option<ConstraintId>,
    /// Fetch mode.
    pub kind: FetchKind,
    /// Key columns of the probed relation paired with their value sources;
    /// aligned with the constraint's `X` columns (empty for `Any` or for
    /// bounded-domain constraints with `X = ∅`).
    pub key: Vec<(usize, KeySource)>,
    /// Relation columns materialized by the step, sorted: the columns of
    /// the constraint's `X ∪ Y` whose `Σ_Q` class later work reads — a
    /// parameter of the query (in some atom's `X^i_Q`) or a probe key of
    /// a later step. Empty for [`FetchKind::Any`].
    pub out_cols: Vec<usize>,
    /// `Σ_Q` class of each materialized column (aligned with `out_cols`).
    pub out_classes: Vec<ClassId>,
    /// Static bound on the number of tuples this step can fetch.
    pub bound: u128,
    /// `true` if this step supplies the atom's tuples to the final join.
    pub is_anchor: bool,
}

impl FetchStep {
    /// Position of the materialized column carrying `class`, if any.
    pub fn col_of_class(&self, class: ClassId) -> Option<usize> {
        self.out_classes.iter().position(|&c| c == class)
    }
}

/// A complete bounded evaluation plan for an effectively bounded query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    query: SpcQuery,
    sigma: Sigma,
    steps: Vec<FetchStep>,
    anchor_of_atom: Vec<StepId>,
    cost_bound: u128,
    /// `true` if `Σ_Q` is inconsistent: the plan fetches nothing and the
    /// answer is empty.
    unsatisfiable: bool,
    /// The template's distinct placeholder names, computed once at plan
    /// time so per-request binding validation never re-walks predicates.
    slots: Vec<String>,
    /// The compiled operator program over the anchors' batch layouts —
    /// compiled **lazily** on first [`QueryPlan::program`] access, so
    /// analysis-only callers (the min-`D_Q` search plans hundreds of
    /// candidate subsets just to read `cost_bound`) never pay for it.
    /// Executors and the serving layer's prepare force it exactly once.
    program: OnceLock<OpProgram>,
}

impl QueryPlan {
    /// Assembles a plan; used by [`crate::qplan`].
    pub(crate) fn new(
        query: SpcQuery,
        sigma: Sigma,
        steps: Vec<FetchStep>,
        anchor_of_atom: Vec<StepId>,
        unsatisfiable: bool,
    ) -> Self {
        debug_assert!(unsatisfiable || anchor_of_atom.len() == query.num_atoms());
        let cost_bound = steps
            .iter()
            .map(|s| s.bound)
            .fold(0u128, u128::saturating_add);
        let slots = query.placeholder_names();
        QueryPlan {
            query,
            sigma,
            steps,
            anchor_of_atom,
            cost_bound,
            unsatisfiable,
            slots,
            program: OnceLock::new(),
        }
    }

    /// The planned query.
    pub fn query(&self) -> &SpcQuery {
        &self.query
    }

    /// The query's equality closure (shared with executors for join specs).
    pub fn sigma(&self) -> &Sigma {
        &self.sigma
    }

    /// Fetch steps in dependency (execution) order.
    pub fn steps(&self) -> &[FetchStep] {
        &self.steps
    }

    /// The anchor step of each atom (the step whose tuples feed the join).
    pub fn anchor_of_atom(&self, atom: usize) -> &FetchStep {
        &self.steps[self.anchor_of_atom[atom].0]
    }

    /// The compiled operator program: the plan's physical shape — filter
    /// checks, join schedule, key permutations, projection map — resolved
    /// to positions once. Executors interpret this instead of re-deriving
    /// the shape from the query per request. Compiled on first access
    /// (subsequent calls are an atomic load); the serving layer calls this
    /// at prepare time so requests never compile.
    pub fn program(&self) -> &OpProgram {
        self.program.get_or_init(|| {
            // The anchors' batch layouts, with the static fetch bounds
            // steering the join order. For an unsatisfiable plan there are
            // no anchors (and no execution): an all-empty layout keeps the
            // attribute→class map available.
            let (atom_cols, size_hints): (Vec<Vec<usize>>, Option<Vec<u128>>) =
                if self.unsatisfiable {
                    (vec![Vec::new(); self.query.num_atoms()], None)
                } else {
                    let cols = self
                        .anchor_of_atom
                        .iter()
                        .map(|sid| self.steps[sid.0].out_cols.clone())
                        .collect();
                    let hints = self
                        .anchor_of_atom
                        .iter()
                        .map(|sid| self.steps[sid.0].bound)
                        .collect();
                    (cols, Some(hints))
                };
            OpProgram::compile(&self.query, &self.sigma, &atom_cols, size_hints.as_deref())
        })
    }

    /// The paper's `Σ M_i`: a bound on `|D_Q|`, the number of tuples any
    /// execution of this plan can fetch — independent of `|D|`.
    pub fn cost_bound(&self) -> u128 {
        self.cost_bound
    }

    /// `true` if the query was statically unsatisfiable (`Q(D) = ∅`).
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsatisfiable
    }

    /// Names of the plan's parameter slots — the template's placeholders —
    /// deduplicated, in first-use order. Empty for ground plans. Execution
    /// must supply a value for each (see `eval_dq_with` in `bcq-exec`).
    pub fn param_slots(&self) -> &[String] {
        &self.slots
    }

    /// `true` if the plan has parameter slots (compiled from a template).
    pub fn is_parameterized(&self) -> bool {
        self.query.has_placeholders()
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unsatisfiable {
            return writeln!(f, "-- unsatisfiable: answer is empty, no data accessed");
        }
        let cat = self.query.catalog();
        for s in &self.steps {
            let atom = &self.query.atoms()[s.atom];
            let rel = cat.relation(atom.relation);
            write!(f, "T{} := ", s.id.0)?;
            match s.kind {
                FetchKind::Any => {
                    write!(f, "fetch-any {} {}", rel.name(), atom.alias)?;
                }
                FetchKind::IndexLookup => {
                    write!(f, "fetch {} {} via index", rel.name(), atom.alias)?;
                    if !s.key.is_empty() {
                        write!(f, " where ")?;
                        for (i, (col, src)) in s.key.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{}", rel.attribute(*col))?;
                            match src {
                                KeySource::Const(v) => write!(f, " = {v}")?,
                                KeySource::Param(name) => write!(f, " = ?{name}")?,
                                KeySource::Column { step, col } => {
                                    let src_step = &self.steps[step.0];
                                    let src_atom = &self.query.atoms()[src_step.atom];
                                    let src_rel = cat.relation(src_atom.relation);
                                    write!(
                                        f,
                                        " in T{}.{}",
                                        step.0,
                                        src_rel.attribute(src_step.out_cols[*col])
                                    )?;
                                }
                            }
                        }
                    }
                }
            }
            write!(f, "   (<= {} tuples)", s.bound)?;
            if s.is_anchor {
                write!(f, " [anchor]")?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "answer := project/join over anchors   (|DQ| <= {})",
            self.cost_bound
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::qplan::qplan;
    use crate::query::fixtures::{a0, q0};

    #[test]
    fn q0_plan_costs_7000() {
        // Example 1/10: |DQ| <= 7000 tuples under A0.
        let plan = qplan(&q0(), &a0()).unwrap();
        assert_eq!(plan.cost_bound(), 7000);
        assert_eq!(plan.steps().len(), 3);
        assert!(!plan.is_unsatisfiable());
        // Each atom has an anchor covering its parameter columns.
        for atom in 0..3 {
            let anchor = plan.anchor_of_atom(atom);
            assert!(anchor.is_anchor);
            assert_eq!(anchor.atom, atom);
        }
    }

    #[test]
    fn q0_plan_display_mentions_all_tables() {
        let plan = qplan(&q0(), &a0()).unwrap();
        let text = plan.to_string();
        assert!(text.contains("in_album"), "{text}");
        assert!(text.contains("friends"), "{text}");
        assert!(text.contains("tagging"), "{text}");
        assert!(text.contains("7000"), "{text}");
    }

    #[test]
    fn col_of_class_finds_columns() {
        let plan = qplan(&q0(), &a0()).unwrap();
        for step in plan.steps() {
            for (i, cls) in step.out_classes.iter().enumerate() {
                assert_eq!(step.col_of_class(*cls), Some(i));
            }
        }
    }
}
