//! Compiled physical operator programs: the per-query plan shape, resolved
//! to positions **once** at prepare time.
//!
//! The boundedness guarantee means a prepared query's entire physical shape
//! is fixed before the first request: which columns each batch carries,
//! which `Σ_Q` class each column belongs to, which filter checks apply to
//! which positions, in what order the batches join and on which key
//! permutations, and where the projection reads its output. A
//! query-walking evaluator (`bcq-exec` keeps one as its differential
//! reference) re-derives all of that per request (`class_of` lookups,
//! `O(cols²)` shared-column scans, join-order search); an [`OpProgram`]
//! derives it exactly once, from
//! `SpcQuery + Sigma +` the per-atom batch column layouts (which the access
//! schema determines through the plan's anchor steps).
//!
//! ## Instruction set
//!
//! A program is a small set of flat, position-resolved tables — there is no
//! bytecode, just vectors the columnar interpreter (`bcq-exec`'s `pipeline`)
//! walks without ever consulting the query again:
//!
//! * **Pins** ([`PinSource`]): every constant and parameter slot the query
//!   mentions, deduplicated. The interpreter resolves each pin to an
//!   interned [`crate::row::Cell`] once per request (`try_encode` for
//!   constants, the `ParamEnv` for slots); a pin that resolves to nothing
//!   (never-interned value, or an unbound slot — see below) can match no
//!   stored row.
//! * **Per-atom filters** ([`AtomFilter`]): `(position, pin)` equality
//!   checks plus `(position, position)` intra-atom equalities — the
//!   explicit predicates *and* the same-class pairs `Σ_Q` implies, both
//!   already resolved to row positions.
//! * **Seed pins** ([`SeedPin`]): which `Σ_Q` classes are pinned before any
//!   batch joins, and by which pins. Disagreeing or unresolvable pins make
//!   the answer empty without touching a row.
//! * **Join schedule** ([`JoinStep`]): the batch order (chosen greedily on
//!   shared classes, seeded by the plan's static fetch bounds) and, for
//!   each step, the shared-class key layout — which classes the step joins
//!   on and at which row positions they sit.
//! * **Semijoin passes** ([`SemiJoinPass`]): for every ordered atom pair,
//!   the shared-column position pairs the semijoin prefilter reduces on —
//!   hoisting the `O(cols²)` per-pair rediscovery out of the request path.
//! * **Projection map**: the `Σ_Q` class of each output column.
//!
//! A partial assignment holds one cell per class the program touches — a
//! class some batch column, pin or projection column belongs to —
//! renumbered densely, never all of `Σ_Q`: classes of columns no batch
//! carries would only be copied along with every partial.
//!
//! ## Contract
//!
//! The interpreter must be fed batches whose column layouts match the
//! `atom_cols` the program was compiled for, and a binding for **every**
//! parameter slot ([`OpProgram::slots`]). Unlike the query-walking
//! reference — whose filter leaves an unbound placeholder *inert* (template
//! semantics) — a compiled program treats an unbound slot like a
//! never-interned value and returns the empty answer; every public executor
//! validates bindings before running, so the difference is unobservable
//! outside `bcq-exec`'s own unit tests.

use crate::query::{Predicate, QAttr, SpcQuery};
use crate::sigma::Sigma;
use crate::value::Value;
use std::sync::OnceLock;

/// The greedy join schedule: start with the smallest hinted size,
/// repeatedly take the atom sharing the most already-bound classes (ties:
/// smaller hint) — the compile-time analogue of the query-walking join's
/// runtime order, including its tie-breaking.
fn join_schedule(
    col_classes: &[Vec<usize>],
    seeds: &[SeedPin],
    num_classes: usize,
    size_hints: Option<&[u128]>,
) -> Vec<JoinStep> {
    let n = col_classes.len();
    let hints: Vec<u128> = match size_hints {
        Some(h) => h.to_vec(),
        None => vec![1; n],
    };
    let mut bound = vec![false; num_classes];
    for s in seeds {
        bound[s.class] = true;
    }
    let mut join_steps: Vec<JoinStep> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    for k in 0..n {
        let atom = if k == 0 {
            (0..n)
                .min_by_key(|&i| (hints[i], i))
                .expect("at least one atom")
        } else {
            (0..n)
                .filter(|&i| !used[i])
                .max_by_key(|&i| {
                    let shared = col_classes[i].iter().filter(|&&c| bound[c]).count();
                    (shared, u128::MAX - hints[i])
                })
                .expect("unused atom exists")
        };
        used[atom] = true;
        let mut shared_classes: Vec<usize> = col_classes[atom]
            .iter()
            .copied()
            .filter(|&c| bound[c])
            .collect();
        shared_classes.sort_unstable();
        shared_classes.dedup();
        let shared_pos: Vec<usize> = shared_classes
            .iter()
            .map(|&c| {
                col_classes[atom]
                    .iter()
                    .position(|&k| k == c)
                    .expect("shared class has a column")
            })
            .collect();
        // Per-column merge actions for the columnar interpreter: what the
        // row-at-a-time class-walk merge does at each position, decided
        // here (against the same `bound` state) so `reschedule_joins`
        // recomputes them consistently with the schedule.
        let col_actions: Vec<ColAction> = col_classes[atom]
            .iter()
            .enumerate()
            .map(|(pos, &c)| {
                if let Some(prev) = col_classes[atom][..pos].iter().position(|&k| k == c) {
                    // A repeated class within the batch: the first
                    // occurrence already keyed or bound it, so equality
                    // against that position is the remaining check.
                    ColAction::CheckDup(prev)
                } else if bound[c] {
                    // Bound before this step ⇒ the class is in
                    // `shared_classes`, so the hash probe already
                    // guarantees equality with the partial.
                    ColAction::Key
                } else {
                    ColAction::Bind(c)
                }
            })
            .collect();
        for &c in &col_classes[atom] {
            bound[c] = true;
        }
        join_steps.push(JoinStep {
            atom,
            shared_classes,
            shared_pos,
            col_actions,
        });
    }
    join_steps
}

/// Where a pinned cell's value comes from at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum PinSource {
    /// A query constant, interned read-only against the snapshot's symbol
    /// table when the program runs.
    Const(Value),
    /// A parameter slot, read from the request's `ParamEnv`.
    Param(String),
}

/// One atom's compiled filter: every check is already resolved to row
/// positions within the atom's batch layout.
#[derive(Debug, Clone, Default)]
pub struct AtomFilter {
    /// `(position, pin)`: the cell at `position` must equal the resolved
    /// pin (constant or bound parameter).
    pub checks: Vec<(usize, usize)>,
    /// `(i, j)` position pairs that must agree: explicit intra-atom
    /// equalities plus the same-class pairs `Σ_Q` implies transitively.
    pub eqs: Vec<(usize, usize)>,
}

impl AtomFilter {
    /// `true` if this atom has nothing to check.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty() && self.eqs.is_empty()
    }
}

/// A `Σ_Q` class pinned before the join starts, and the pins that must
/// agree on its value.
#[derive(Debug, Clone)]
pub struct SeedPin {
    /// The pinned class.
    pub class: usize,
    /// Pin ids (indices into [`OpProgram::pins`]); all resolved values must
    /// agree or the answer is empty.
    pub pins: Vec<usize>,
}

/// What the join merge does with one batch column — the columnar
/// interpreter's per-column instruction, precomputed per [`JoinStep`]
/// against the classes bound when the step runs. Together the actions
/// reproduce the row-at-a-time class-walk merge exactly: `Key` positions
/// are equality-checked by the hash probe, `Bind` positions write through,
/// and `CheckDup` positions carry the only row-local comparisons left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColAction {
    /// First occurrence of a class already bound before this step: the
    /// position participates in the step's key (`shared_pos`), so the
    /// probe guarantees it equals the partial — nothing to do at merge.
    Key,
    /// First occurrence of a class unbound before this step: write the
    /// cell into the partial's slot for the given class.
    Bind(usize),
    /// A repeated class within the batch: the cell must equal the cell at
    /// the given earlier position of the same row.
    CheckDup(usize),
}

/// One step of the compiled join schedule.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// The atom whose batch joins at this step.
    pub atom: usize,
    /// The `Σ_Q` classes this step joins on — classes of the batch already
    /// bound by the seed or by earlier steps (sorted, deduplicated).
    pub shared_classes: Vec<usize>,
    /// Position of each shared class within the batch's rows (aligned with
    /// `shared_classes`): the key-extraction permutation.
    pub shared_pos: Vec<usize>,
    /// Per-column merge action, aligned with the batch's column layout.
    pub col_actions: Vec<ColAction>,
}

/// One pass of the semijoin prefilter: reduce `target`'s candidate rows to
/// those whose shared-column values appear in `source`.
#[derive(Debug, Clone)]
pub struct SemiJoinPass {
    /// The batch being reduced.
    pub target: usize,
    /// The batch supplying the key set.
    pub source: usize,
    /// `(target position, source position)` pairs of shared-class columns.
    pub pairs: Vec<(usize, usize)>,
}

/// A compiled physical operator program — see the module docs for the
/// instruction set. Compiled once per prepared query
/// ([`OpProgram::compile`]); interpreted per request with zero
/// planning-shaped work.
#[derive(Debug, Clone)]
pub struct OpProgram {
    /// Number of atoms (= batches the interpreter expects).
    pub num_atoms: usize,
    /// Width of a partial assignment: the `Σ_Q` classes the program
    /// touches (a batch column's, a pin's or the projection's), numbered
    /// densely in class order; at least one. Every class index below —
    /// `col_classes`, seeds, join keys, binds, `proj_classes` — is in
    /// this numbering.
    pub num_classes: usize,
    /// Expected batch column layout per atom (relation column ids).
    pub atom_cols: Vec<Vec<usize>>,
    /// `Σ_Q` class of each batch column, aligned with `atom_cols`.
    pub col_classes: Vec<Vec<usize>>,
    /// Deduplicated pins (constants and parameter slots).
    pub pins: Vec<PinSource>,
    /// Compiled filter per atom.
    pub filters: Vec<AtomFilter>,
    /// Classes pinned before the join, with their pins.
    pub seeds: Vec<SeedPin>,
    /// The join schedule, in execution order (covers every atom once).
    pub join_steps: Vec<JoinStep>,
    /// `Σ_Q` class of each projection column, in output order.
    pub proj_classes: Vec<usize>,
    /// Semijoin prefilter passes — built lazily on first
    /// [`OpProgram::semijoins`] access, since only the baseline's
    /// `IndexJoin` mode ever reads them and the `O(atoms² · cols²)` layout
    /// scan would otherwise tax every prepare for nothing.
    semijoins: OnceLock<Vec<SemiJoinPass>>,
    /// Parameter slots the program requires bound, in first-use order.
    pub slots: Vec<String>,
}

impl OpProgram {
    /// Compiles the program for `q` under `sigma`, given the per-atom batch
    /// column layouts the interpreter will be fed (for bounded plans these
    /// are the anchor steps' `out_cols`; the baseline derives them from the
    /// query's needed columns). `size_hints` — static per-atom fetch bounds
    /// when available — steer the join order the way runtime batch sizes
    /// steer the query-walking join.
    pub fn compile(
        q: &SpcQuery,
        sigma: &Sigma,
        atom_cols: &[Vec<usize>],
        size_hints: Option<&[u128]>,
    ) -> OpProgram {
        let n = q.num_atoms();
        debug_assert_eq!(atom_cols.len(), n);

        // A partial carries one cell per `Σ_Q` class the program touches —
        // a batch column's, a pin's or the projection's — renumbered
        // densely in class order. Any other class would only be copied
        // along with every partial, never read.
        let sigma_class =
            |atom: usize, col: usize| sigma.class_of_flat(q.flat_id(QAttr::new(atom, col))).0;
        let mut touched = vec![false; sigma.num_classes()];
        for (atom, cols) in atom_cols.iter().enumerate() {
            for &col in cols {
                touched[sigma_class(atom, col)] = true;
            }
        }
        for (ci, cls) in sigma.classes().iter().enumerate() {
            if cls.constant.is_some() || !cls.placeholders.is_empty() {
                touched[ci] = true;
            }
        }
        for z in q.projection() {
            touched[sigma_class(z.atom, z.col)] = true;
        }
        let mut dense = vec![usize::MAX; touched.len()];
        let mut num_classes = 0;
        for (ci, _) in touched.iter().enumerate().filter(|(_, t)| **t) {
            dense[ci] = num_classes;
            num_classes += 1;
        }
        // A Boolean query over zero-width batches touches no class but
        // still counts its partials: keep one slot nothing writes.
        let num_classes = num_classes.max(1);
        let class_of = |atom: usize, col: usize| dense[sigma_class(atom, col)];

        let col_classes: Vec<Vec<usize>> = (0..n)
            .map(|atom| {
                atom_cols[atom]
                    .iter()
                    .map(|&col| class_of(atom, col))
                    .collect()
            })
            .collect();

        let mut pins: Vec<PinSource> = Vec::new();
        let pin_id = |pins: &mut Vec<PinSource>, p: PinSource| -> usize {
            match pins.iter().position(|x| *x == p) {
                Some(i) => i,
                None => {
                    pins.push(p);
                    pins.len() - 1
                }
            }
        };

        // Per-atom filters: the explicit predicates resolved to positions,
        // plus the same-class pairs Σ_Q implies (mirrors the reference's
        // atom filter).
        let mut filters: Vec<AtomFilter> = vec![AtomFilter::default(); n];
        for (atom, filter) in filters.iter_mut().enumerate() {
            let cols = &atom_cols[atom];
            let col_pos = |col: usize| cols.iter().position(|&c| c == col);
            for p in q.predicates() {
                match p {
                    Predicate::Const(a, v) if a.atom == atom => {
                        if let Some(i) = col_pos(a.col) {
                            let pid = pin_id(&mut pins, PinSource::Const(v.clone()));
                            filter.checks.push((i, pid));
                        }
                    }
                    Predicate::Param(a, name) if a.atom == atom => {
                        if let Some(i) = col_pos(a.col) {
                            let pid = pin_id(&mut pins, PinSource::Param(name.clone()));
                            filter.checks.push((i, pid));
                        }
                    }
                    Predicate::Eq(a, b) if a.atom == atom && b.atom == atom => {
                        if let (Some(i), Some(j)) = (col_pos(a.col), col_pos(b.col)) {
                            filter.eqs.push((i, j));
                        }
                    }
                    _ => {}
                }
            }
            let classes = &col_classes[atom];
            for i in 0..classes.len() {
                for j in i + 1..classes.len() {
                    if classes[i] == classes[j] && !filter.eqs.contains(&(i, j)) {
                        filter.eqs.push((i, j));
                    }
                }
            }
        }

        // Seed pins: classes bound by a constant or a parameter slot before
        // any batch joins.
        let mut seeds: Vec<SeedPin> = Vec::new();
        for (ci, cls) in sigma.classes().iter().enumerate() {
            let mut ids = Vec::new();
            if let Some(v) = &cls.constant {
                ids.push(pin_id(&mut pins, PinSource::Const(v.clone())));
            }
            for name in &cls.placeholders {
                ids.push(pin_id(&mut pins, PinSource::Param(name.clone())));
            }
            if !ids.is_empty() {
                seeds.push(SeedPin {
                    class: dense[ci],
                    pins: ids,
                });
            }
        }

        let join_steps = join_schedule(&col_classes, &seeds, num_classes, size_hints);

        let proj_classes: Vec<usize> = q
            .projection()
            .iter()
            .map(|z| class_of(z.atom, z.col))
            .collect();

        OpProgram {
            num_atoms: n,
            num_classes,
            atom_cols: atom_cols.to_vec(),
            col_classes,
            pins,
            filters,
            seeds,
            join_steps,
            proj_classes,
            semijoins: OnceLock::new(),
            slots: q.placeholder_names(),
        }
    }

    /// Recomputes the join schedule from fresh size hints, leaving every
    /// other instruction table untouched. The per-call baseline uses this
    /// after filtering/pruning its batches, so its join order tracks the
    /// *post-prune* sizes (matching the query-walking join) without paying
    /// a second full compile.
    pub fn reschedule_joins(&mut self, size_hints: &[u128]) {
        self.join_steps = join_schedule(
            &self.col_classes,
            &self.seeds,
            self.num_classes,
            Some(size_hints),
        );
    }

    /// The semijoin prefilter passes, built on first access (only the
    /// baseline's `IndexJoin` mode reads them).
    pub fn semijoins(&self) -> &[SemiJoinPass] {
        self.semijoins.get_or_init(|| {
            // In the oracle's (target, source) iteration order.
            let n = self.num_atoms;
            let mut semijoins: Vec<SemiJoinPass> = Vec::new();
            for target in 0..n {
                for source in 0..n {
                    if target == source {
                        continue;
                    }
                    let mut pairs: Vec<(usize, usize)> = Vec::new();
                    for (pi, &ci) in self.col_classes[target].iter().enumerate() {
                        for (pj, &cj) in self.col_classes[source].iter().enumerate() {
                            if ci == cj {
                                pairs.push((pi, pj));
                            }
                        }
                    }
                    if !pairs.is_empty() {
                        semijoins.push(SemiJoinPass {
                            target,
                            source,
                            pairs,
                        });
                    }
                }
            }
            semijoins
        })
    }

    /// Parameter slots the interpreter requires bound, in first-use order.
    pub fn slots(&self) -> &[String] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qplan::{qplan, qplan_template};
    use crate::query::fixtures::{a0, q0, q1};

    #[test]
    fn q0_program_shape() {
        let plan = qplan(&q0(), &a0()).unwrap();
        let prog = plan.program();
        assert_eq!(prog.num_atoms, 3);
        // One filter eq or check somewhere; every atom has a layout.
        assert_eq!(prog.atom_cols.len(), 3);
        assert_eq!(prog.col_classes.len(), 3);
        for (cols, classes) in prog.atom_cols.iter().zip(&prog.col_classes) {
            assert_eq!(cols.len(), classes.len());
        }
        // Q0 pins three classes: {aid}="a0", {uid,tid2}="u0" — two distinct
        // constants, deduplicated into two pins.
        assert_eq!(prog.pins.len(), 2);
        assert_eq!(prog.seeds.len(), 2);
        // The schedule covers every atom exactly once.
        let mut atoms: Vec<usize> = prog.join_steps.iter().map(|s| s.atom).collect();
        atoms.sort_unstable();
        assert_eq!(atoms, vec![0, 1, 2]);
        // After the first step, every later step shares at least one class
        // (Q0 is connected).
        for step in &prog.join_steps[1..] {
            assert!(
                !step.shared_classes.is_empty(),
                "connected query must never cross-product"
            );
        }
        // Projection: one output column, class of ia.photo_id.
        assert_eq!(prog.proj_classes.len(), 1);
        assert!(prog.slots().is_empty());
    }

    #[test]
    fn template_program_has_param_pins_and_slots() {
        let plan = qplan_template(&q1(), &a0()).unwrap();
        let prog = plan.program();
        assert_eq!(prog.slots(), ["aid", "uid"]);
        let params: Vec<&str> = prog
            .pins
            .iter()
            .filter_map(|p| match p {
                PinSource::Param(name) => Some(name.as_str()),
                PinSource::Const(_) => None,
            })
            .collect();
        assert_eq!(params, ["aid", "uid"], "deduplicated in first-use order");
        // ?uid pins one merged class (f.user_id ~ t.taggee_id): exactly one
        // seed carries the uid pin.
        let uid_pin = prog
            .pins
            .iter()
            .position(|p| *p == PinSource::Param("uid".into()))
            .unwrap();
        let carriers = prog
            .seeds
            .iter()
            .filter(|s| s.pins.contains(&uid_pin))
            .count();
        assert_eq!(carriers, 1);
    }

    #[test]
    fn shared_pos_is_a_valid_key_permutation() {
        let plan = qplan(&q0(), &a0()).unwrap();
        let prog = plan.program();
        for step in &prog.join_steps {
            assert_eq!(step.shared_classes.len(), step.shared_pos.len());
            for (&c, &p) in step.shared_classes.iter().zip(&step.shared_pos) {
                assert_eq!(prog.col_classes[step.atom][p], c);
            }
        }
    }

    #[test]
    fn col_actions_mirror_the_class_walk_merge() {
        // Replaying the schedule's bound-class state must reproduce every
        // step's column actions: first-occurrence bound ⇒ Key (and the
        // position is in the key permutation), first-occurrence unbound ⇒
        // Bind of that class, repeats ⇒ CheckDup of the first position.
        for plan in [
            qplan(&q0(), &a0()).unwrap(),
            qplan_template(&q1(), &a0()).unwrap(),
        ] {
            let prog = plan.program();
            let mut bound = vec![false; prog.num_classes];
            for s in &prog.seeds {
                bound[s.class] = true;
            }
            for step in &prog.join_steps {
                let classes = &prog.col_classes[step.atom];
                assert_eq!(step.col_actions.len(), classes.len());
                for (pos, (&c, action)) in classes.iter().zip(&step.col_actions).enumerate() {
                    let first = classes[..pos].iter().position(|&k| k == c);
                    match (*action, first) {
                        (ColAction::CheckDup(prev), Some(expect)) => assert_eq!(prev, expect),
                        (ColAction::Key, None) => {
                            assert!(bound[c]);
                            assert!(step.shared_pos.contains(&pos));
                        }
                        (ColAction::Bind(cls), None) => {
                            assert_eq!(cls, c);
                            assert!(!bound[c]);
                        }
                        other => panic!("action mismatch at {pos}: {other:?}"),
                    }
                }
                for &c in classes {
                    bound[c] = true;
                }
            }
        }
    }

    #[test]
    fn semijoin_pairs_cover_shared_classes_both_ways() {
        let plan = qplan(&q0(), &a0()).unwrap();
        let prog = plan.program();
        // For every pass (i, j) there is a mirror pass (j, i) with the
        // transposed pairs.
        for pass in prog.semijoins() {
            let mirror = prog
                .semijoins()
                .iter()
                .find(|p| p.target == pass.source && p.source == pass.target)
                .expect("mirror pass exists");
            let mut transposed: Vec<(usize, usize)> =
                pass.pairs.iter().map(|&(a, b)| (b, a)).collect();
            transposed.sort_unstable();
            let mut mirrored = mirror.pairs.clone();
            mirrored.sort_unstable();
            assert_eq!(transposed, mirrored);
        }
    }
}
