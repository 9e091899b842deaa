//! The read path: prepare (plan-cache lookup; on a miss, classification
//! into a [`Lane`] and the compile) and execute.

use super::{dur_ns, AdmissionPolicy, Server, ServiceError};
use crate::prepared::{query_fingerprint, ra_fingerprint, Compiled, PreparedQuery};
use crate::shared::lock_recovered;
use bcq_core::error::CoreError;
use bcq_core::prelude::{RaExpr, SpcQuery, Value};
use bcq_core::qplan::qplan_template;
use bcq_exec::{
    baseline, eval_dq_profiled, eval_dq_with, eval_ra_prepared, BaselineMode, BaselineOptions,
    BaselineOutcome, ParamEnv, PreparedRa, ResultSet,
};
use bcq_storage::{Database, Meter};
use bcq_telemetry::{Lane, OpProfile, Phase};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// The bounded lanes' per-request parameter environment, rebound in
    /// place per request (see [`ParamEnv::rebind`]).
    static REQUEST_ENV: RefCell<ParamEnv> = RefCell::new(ParamEnv::new());
}

/// Budget verdict of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// Bounded lanes: no budget applies (the plan itself is the bound).
    Unlimited,
    /// Budgeted baseline finished within the cap.
    Completed {
        /// The touched-row cap that was in force.
        cap: u64,
    },
    /// Budgeted baseline exhausted the cap — no answer.
    Exhausted {
        /// The touched-row cap that was in force.
        cap: u64,
    },
}

/// Result payload of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The exact answer.
    Answer(ResultSet),
    /// The budgeted baseline hit its work cap before finishing.
    DidNotFinish,
}

/// Per-request accounting.
#[derive(Debug, Clone, Copy)]
pub struct RequestStats {
    /// Lane the request executed on.
    pub lane: Lane,
    /// `true` if the prepared query came out of the plan cache.
    pub cache_hit: bool,
    /// Database epoch the request was served at.
    pub epoch: u64,
    /// Access accounting (`meter.tuples_fetched` is `|D_Q|` for bounded
    /// requests).
    pub meter: Meter,
    /// Budget verdict.
    pub budget: BudgetVerdict,
    /// Wall-clock time spent compiling this request's prepared query —
    /// classification, plan generation and the operator-program compile.
    /// Zero on a cache hit (the stored program is reused whatever was
    /// written since), so compile vs execute cost is directly comparable
    /// per request.
    pub compile_elapsed: Duration,
    /// Wall-clock time spent executing: binding encode plus the lane
    /// executor (excludes prepare/compile).
    pub exec_elapsed: Duration,
    /// End-to-end wall-clock of the request: snapshot, binding encode and
    /// execution, plus — when served through a [`Session`](super::Session)
    /// — the prepare (cache lookup / compile). Always ≥ `compile_elapsed +
    /// exec_elapsed`.
    pub total_elapsed: Duration,
}

/// One served request: outcome + stats.
#[derive(Debug, Clone)]
pub struct Response {
    /// Answer or did-not-finish.
    pub outcome: Outcome,
    /// Per-request accounting.
    pub stats: RequestStats,
}

impl Response {
    /// The answer, if the request finished.
    pub fn rows(&self) -> Option<&ResultSet> {
        match &self.outcome {
            Outcome::Answer(rs) => Some(rs),
            Outcome::DidNotFinish => None,
        }
    }

    /// `true` if the request produced an answer.
    pub fn finished(&self) -> bool {
        matches!(self.outcome, Outcome::Answer(_))
    }
}

/// A prepare result: the compiled query plus whether the cache served it.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The compiled, classified query.
    pub query: Arc<PreparedQuery>,
    /// `true` if this came out of the plan cache.
    pub cache_hit: bool,
    /// Time spent compiling (classification + planning + operator-program
    /// compile); [`Duration::ZERO`] on a cache hit.
    pub compile_elapsed: Duration,
}

/// What a lane's executor hands back to the execute frame.
type LaneResult = crate::Result<(Outcome, Meter, BudgetVerdict)>;

/// A bounded lane's answer: no budget applies, the plan is the bound.
fn bounded(result: ResultSet, meter: Meter) -> LaneResult {
    Ok((Outcome::Answer(result), meter, BudgetVerdict::Unlimited))
}

impl Server {
    /// Prepares (or fetches from cache) a query template: classification
    /// into a lane, and for the bounded lane the compiled parameterized
    /// plan. A cached entry is returned as stored, whatever was written
    /// since it was compiled.
    pub fn prepare(&self, q: &SpcQuery) -> crate::Result<Prepared> {
        self.prepare_keyed(&query_fingerprint(q), || self.classify_spc(q))
    }

    /// Prepares an RA expression. A bare SPC block is [`Server::prepare`]d
    /// (one cache entry, whichever call compiled it first); certified set
    /// expressions ride the [`Lane::BoundedRa`] lane; uncertified ones are
    /// rejected (the baseline evaluates SPC only).
    pub fn prepare_ra(&self, expr: &RaExpr) -> crate::Result<Prepared> {
        match expr {
            RaExpr::Spc(q) => self.prepare(q),
            _ => self.prepare_keyed(&ra_fingerprint(expr), || self.classify_ra(expr)),
        }
    }

    /// The plan-cache lookup every prepare goes through; a miss runs
    /// `build` outside the cache lock.
    pub(super) fn prepare_keyed(
        &self,
        key: &str,
        build: impl FnOnce() -> crate::Result<PreparedQuery>,
    ) -> crate::Result<Prepared> {
        {
            let _lookup = self.metrics.span(Phase::CacheLookup);
            if let Some(query) = lock_recovered(self.cache.shard(key)).get(key) {
                return Ok(Prepared {
                    query,
                    cache_hit: true,
                    compile_elapsed: Duration::ZERO,
                });
            }
        }
        let compile_span = self.metrics.span(Phase::Compile);
        let compile_start = Instant::now();
        let prepared = Arc::new(build()?);
        let compile_elapsed = compile_start.elapsed();
        drop(compile_span);
        lock_recovered(self.cache.shard(key)).insert(key.to_owned(), Arc::clone(&prepared));
        Ok(Prepared {
            query: prepared,
            cache_hit: false,
            compile_elapsed,
        })
    }

    /// Classifies `q` into its lane.
    pub(super) fn classify_spc(&self, q: &SpcQuery) -> crate::Result<PreparedQuery> {
        let _admit = self.metrics.span(Phase::Admit);
        match qplan_template(q, &self.access) {
            Ok(plan) => Ok(PreparedQuery::bounded(plan)),
            Err(CoreError::NotEffectivelyBounded(why)) => match self.config.policy {
                AdmissionPolicy::Strict => {
                    self.metrics.record_rejected();
                    Err(ServiceError::Rejected(format!(
                        "query is not effectively bounded and the policy is strict: {why}"
                    )))
                }
                AdmissionPolicy::Budgeted(_) => Ok(PreparedQuery::unbounded(q.clone())),
            },
            Err(e) => Err(e.into()),
        }
    }

    fn classify_ra(&self, expr: &RaExpr) -> crate::Result<PreparedQuery> {
        let _admit = self.metrics.span(Phase::Admit);
        // Certification is compilation, done here once: one walk of
        // [`PreparedRa::prepare`] asks of every block whether its template
        // has a bounded plan — the block itself if enumerated, the block
        // with its projection pinned to the probe slots if probed, the
        // template's own placeholders seeding the closure either way — and
        // keeps the plans it built, intersection orientations chosen on the
        // way. The cache stores the whole skeleton; requests only bind and
        // interpret.
        match PreparedRa::prepare(expr, &self.access) {
            Ok(compiled) => Ok(PreparedQuery::bounded_ra(compiled)),
            Err(CoreError::NotEffectivelyBounded(why)) => {
                self.metrics.record_rejected();
                Err(ServiceError::Rejected(format!(
                    "RA expression is not certified effectively bounded: {why}"
                )))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Runs `exec` on this thread's request environment rebound to
    /// `bindings`: the Value boundary is crossed exactly once per request,
    /// in place (steady state: same parameter names every request, zero
    /// allocations).
    fn with_request_env<T>(
        &self,
        snap: &Database,
        bindings: &BTreeMap<String, Value>,
        exec: impl FnOnce(&mut ParamEnv) -> T,
    ) -> T {
        REQUEST_ENV.with(|cell| {
            let mut env = cell.borrow_mut();
            {
                let _bind = self.metrics.span(Phase::Bind);
                env.rebind(snap.symbols(), bindings);
            }
            let _exec = self.metrics.span(Phase::Execute);
            exec(&mut env)
        })
    }

    /// The frame every execution runs in: one snapshot, one clock around
    /// `run` (binding encode plus the lane's executor) and the response.
    fn execute_frame(
        &self,
        lane: Lane,
        run: impl FnOnce(&Database) -> LaneResult,
    ) -> crate::Result<Response> {
        let snap = self.shared.snapshot();
        let start = Instant::now();
        let (outcome, meter, budget) = run(&snap)?;
        let exec_elapsed = start.elapsed();
        let stats = RequestStats {
            lane,
            cache_hit: false,
            epoch: snap.epoch(),
            meter,
            budget,
            compile_elapsed: Duration::ZERO,
            exec_elapsed,
            total_elapsed: start.elapsed(),
        };
        Ok(Response { outcome, stats })
    }

    /// Executes a prepared query against the current snapshot with the
    /// given parameter bindings. (`stats.cache_hit` is filled by
    /// [`Session::query`](super::Session::query); direct callers get
    /// `false`.)
    pub fn execute(
        &self,
        p: &PreparedQuery,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let resp = self.execute_frame(p.lane(), |snap| match &p.compiled {
            Compiled::Bounded(plan) => {
                let out = self.with_request_env(snap, bindings, |env| {
                    eval_dq_with(snap, plan, &self.access, env)
                })?;
                bounded(out.result, out.meter)
            }
            Compiled::BoundedRa(compiled) => {
                let out = self.with_request_env(snap, bindings, |env| {
                    eval_ra_prepared(snap, compiled, &self.access, env)
                })?;
                bounded(out.result, out.meter)
            }
            Compiled::Unbounded(template, _) => {
                let cap = match self.config.policy {
                    AdmissionPolicy::Budgeted(cap) => cap,
                    AdmissionPolicy::Strict => {
                        self.metrics.record_rejected();
                        return Err(ServiceError::Rejected(
                            "unbounded query under a strict policy".into(),
                        ));
                    }
                };
                let ground = {
                    let _bind = self.metrics.span(Phase::Bind);
                    template.instantiate(bindings)
                };
                ground.require_ground()?;
                let options = BaselineOptions {
                    mode: BaselineMode::ConstIndex,
                    work_budget: Some(cap),
                };
                let out = {
                    let _exec = self.metrics.span(Phase::Execute);
                    baseline(snap, &ground, &self.access, options)?
                };
                Ok(match out {
                    BaselineOutcome::Completed { result, meter, .. } => (
                        Outcome::Answer(result),
                        meter,
                        BudgetVerdict::Completed { cap },
                    ),
                    BaselineOutcome::DidNotFinish { meter, .. } => (
                        Outcome::DidNotFinish,
                        meter,
                        BudgetVerdict::Exhausted { cap },
                    ),
                })
            }
        })?;
        // The latency recorded is the total already measured above: the
        // metrics path adds no clock read of its own — one enabled check,
        // one histogram `fetch_add`, one sharded-counter `fetch_add`.
        if self.metrics.is_enabled() {
            let ns = dur_ns(resp.stats.total_elapsed);
            self.metrics
                .record_request(resp.stats.lane, ns, resp.stats.meter.tuples_fetched);
            match resp.stats.budget {
                BudgetVerdict::Unlimited => {}
                BudgetVerdict::Completed { .. } => self.metrics.record_budget_verdict(true),
                BudgetVerdict::Exhausted { .. } => self.metrics.record_budget_verdict(false),
            }
        }
        Ok(resp)
    }

    /// [`Server::execute`] in **profiled mode**: the bounded lane runs the
    /// compiled program with a recording probe and returns the
    /// per-operator breakdown — each fetch step, pin resolution, filter
    /// sweep, join step and the projection, with wall time and row counts
    /// — alongside the response ([`OpProfile::render`] formats it).
    /// Non-bounded lanes execute normally and yield an empty profile (only
    /// the compiled interpreter has operator steps to attribute). A
    /// diagnostics path: the probe allocates per step, so it is never the
    /// serving path.
    pub fn execute_profiled(
        &self,
        p: &PreparedQuery,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<(Response, OpProfile)> {
        let Compiled::Bounded(plan) = &p.compiled else {
            let resp = self.execute(p, bindings)?;
            let profile = OpProfile {
                steps: Vec::new(),
                total_ns: dur_ns(resp.stats.total_elapsed),
            };
            return Ok((resp, profile));
        };
        let mut profile = OpProfile::default();
        let resp = self.execute_frame(Lane::Bounded, |snap| {
            let env = ParamEnv::encode(snap.symbols(), bindings);
            let (out, steps) = eval_dq_profiled(snap, plan, &self.access, &env)?;
            profile = steps;
            bounded(out.result, out.meter)
        })?;
        Ok((resp, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fixtures::{bind, setup, template};
    use crate::server::AdmissionPolicy;

    #[test]
    fn bounded_lane_serves_template_bindings_with_cache_hits() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let r1 = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r1.stats.lane, Lane::Bounded);
        assert!(!r1.stats.cache_hit, "first request compiles");
        assert_eq!(r1.rows().unwrap().len(), 1);
        assert!(r1.rows().unwrap().contains(&[Value::str("p1")]));

        let r2 = s.query(&q1, &bind("a1", "u0")).unwrap();
        assert!(r2.stats.cache_hit, "same template, new binding: cached");
        // p4 is in a1, tagged by u2 (a friend of u0), taggee u0.
        assert_eq!(r2.rows().unwrap().len(), 1);
        assert!(r2.rows().unwrap().contains(&[Value::str("p4")]));

        let r3 = s.query(&q1, &bind("a0", "u9")).unwrap();
        assert!(r3.stats.cache_hit);
        assert!(r3.rows().unwrap().is_empty());

        let m = server.metrics_snapshot();
        assert_eq!(m.requests(), 3);
        assert_eq!(m.lane(Lane::Bounded).latency.count(), 3);
        let cs = server.cache_stats();
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.hits, 2);
    }

    #[test]
    fn strict_policy_rejects_unbounded_queries() {
        let server = setup(AdmissionPolicy::Strict);
        // All of tagging: no constants, not effectively bounded.
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let mut s = server.session();
        let err = s.query(&q, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected(_)), "{err}");
        assert_eq!(server.metrics_snapshot().admission.rejected, 1);
    }

    #[test]
    fn budgeted_policy_admits_with_verdicts() {
        let server = setup(AdmissionPolicy::Budgeted(1_000));
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let mut s = server.session();
        let r = s.query(&q, &BTreeMap::new()).unwrap();
        assert_eq!(r.stats.lane, Lane::Unbounded);
        assert!(matches!(
            r.stats.budget,
            BudgetVerdict::Completed { cap: 1_000 }
        ));
        assert_eq!(r.rows().unwrap().len(), 4);

        // A tiny budget turns the same query into a did-not-finish.
        let server = setup(AdmissionPolicy::Budgeted(2));
        let mut s = server.session();
        let r = s.query(&q, &BTreeMap::new()).unwrap();
        assert!(!r.finished());
        assert!(matches!(
            r.stats.budget,
            BudgetVerdict::Exhausted { cap: 2 }
        ));
        assert_eq!(server.metrics_snapshot().admission.budget_exhausted, 1);
    }

    #[test]
    fn bounded_ra_lane_serves_set_expressions() {
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        let friends_of = |name: &str, user: &str| {
            SpcQuery::builder(Arc::clone(&cat), name)
                .atom("friends", "f")
                .eq_const(("f", "user_id"), user)
                .project(("f", "friend_id"))
                .build()
                .unwrap()
        };
        let expr = RaExpr::union(
            RaExpr::Spc(friends_of("f0", "u0")),
            RaExpr::Spc(friends_of("f9", "u9")),
        );
        let mut s = server.session();
        let r = s.query_ra(&expr, &BTreeMap::new()).unwrap();
        assert_eq!(r.stats.lane, Lane::BoundedRa);
        assert_eq!(r.rows().unwrap().len(), 3); // u1, u2, u3
        let r2 = s.query_ra(&expr, &BTreeMap::new()).unwrap();
        assert!(r2.stats.cache_hit);
        assert_eq!(r2.rows().unwrap(), r.rows().unwrap());
    }

    #[test]
    fn a_bare_block_is_one_cache_entry_whichever_way_it_is_prepared() {
        for ra_first in [false, true] {
            let server = setup(AdmissionPolicy::Strict);
            let q1 = template(&server);
            let bare = RaExpr::Spc(q1.clone());
            let (first, second) = if ra_first {
                (server.prepare_ra(&bare), server.prepare(&q1))
            } else {
                (server.prepare(&q1), server.prepare_ra(&bare))
            };
            let (first, second) = (first.unwrap(), second.unwrap());
            assert!(!first.cache_hit && second.cache_hit, "ra first: {ra_first}");
            assert!(Arc::ptr_eq(&first.query, &second.query));
            assert_eq!(second.query.lane(), Lane::Bounded);
            assert_eq!(server.cache.len(), 1);
            assert_eq!(server.cache_stats().misses, 1);
        }
    }

    #[test]
    fn parameterized_ra_templates_serve_bindings() {
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        let friends_tpl = |name: &str, slot: &str| {
            SpcQuery::builder(Arc::clone(&cat), name)
                .atom("friends", "f")
                .eq_param(("f", "user_id"), slot)
                .project(("f", "friend_id"))
                .build()
                .unwrap()
        };
        // Friends of ?a that are not friends of ?b.
        let expr = RaExpr::difference(
            RaExpr::Spc(friends_tpl("l", "a")),
            RaExpr::Spc(friends_tpl("r", "b")),
        );
        let prepared = server.prepare_ra(&expr).unwrap();
        assert_eq!(prepared.query.lane(), Lane::BoundedRa);
        assert_eq!(prepared.query.param_slots(), ["a", "b"]);

        let mut s = server.session();
        let mut b = BTreeMap::new();
        b.insert("a".to_string(), Value::str("u0"));
        b.insert("b".to_string(), Value::str("u9"));
        let resp = s.query_ra(&expr, &b).unwrap();
        // u0's friends {u1, u2} minus u9's friends {u3}.
        assert_eq!(resp.rows().unwrap().len(), 2);
        // The meter is the sum over the plans the request ran, as on the
        // other lanes: the base fetch through one key plus one index probe
        // per candidate — each block served on its own says how much that
        // is. (It used to hold the number of membership probes, 2.)
        let mut want = s.query(&friends_tpl("l", "a"), &b).unwrap().stats.meter;
        let probed =
            friends_tpl("r", "b").with_params(&[(bcq_core::prelude::QAttr::new(0, 1), "x")]);
        for candidate in ["u1", "u2"] {
            let mut pinned = b.clone();
            pinned.insert("x".to_string(), Value::str(candidate));
            want.merge(&s.query(&probed, &pinned).unwrap().stats.meter);
        }
        assert_eq!(want.index_probes, 3);
        assert_eq!(resp.stats.meter, want);

        // Same slot value on both sides: classes merge, answer is empty.
        b.insert("b".to_string(), Value::str("u0"));
        let resp = s.query_ra(&expr, &b).unwrap();
        assert!(resp.rows().unwrap().is_empty());
        assert!(resp.stats.cache_hit, "one certification served both");

        // Missing binding: typed error, not a planner panic.
        b.remove("b");
        let err = s.query_ra(&expr, &b).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(CoreError::UnboundParameters(_))
        ));
    }

    #[test]
    fn uncertifiable_ra_template_is_rejected_at_prepare() {
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        // Even instantiated, the left block scans tagging (no covering
        // index on tagger_id alone): certification must fail up front.
        let scan = SpcQuery::builder(Arc::clone(&cat), "scan")
            .atom("tagging", "t")
            .eq_param(("t", "tagger_id"), "who")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let bounded = SpcQuery::builder(cat, "ok")
            .atom("in_album", "ia")
            .eq_param(("ia", "album_id"), "aid")
            .project(("ia", "photo_id"))
            .build()
            .unwrap();
        let expr = RaExpr::union(RaExpr::Spc(scan), RaExpr::Spc(bounded));
        let err = server.prepare_ra(&expr).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected(_)), "{err}");
    }

    #[test]
    fn request_stats_report_compile_vs_execute_time() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let miss = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert!(!miss.stats.cache_hit);
        assert!(
            miss.stats.compile_elapsed > Duration::ZERO,
            "first request pays classification + planning + program compile"
        );
        assert!(
            miss.stats.compile_elapsed + miss.stats.exec_elapsed <= miss.stats.total_elapsed,
            "compile {:?} + exec {:?} must fit within total {:?}",
            miss.stats.compile_elapsed,
            miss.stats.exec_elapsed,
            miss.stats.total_elapsed
        );

        let hit = s.query(&q1, &bind("a1", "u0")).unwrap();
        assert!(hit.stats.cache_hit);
        assert_eq!(
            hit.stats.compile_elapsed,
            Duration::ZERO,
            "cached requests pay execution only"
        );
        assert!(hit.stats.exec_elapsed > Duration::ZERO);
        assert!(
            hit.stats.compile_elapsed + hit.stats.exec_elapsed <= hit.stats.total_elapsed,
            "compile {:?} + exec {:?} must fit within total {:?}",
            hit.stats.compile_elapsed,
            hit.stats.exec_elapsed,
            hit.stats.total_elapsed
        );
    }

    #[test]
    fn execute_profiled_breaks_down_operator_time() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let prepared = server.prepare(&q1).unwrap();
        let (resp, profile) = server
            .execute_profiled(&prepared.query, &bind("a0", "u0"))
            .unwrap();
        assert_eq!(resp.rows().unwrap().len(), 1);
        assert!(!profile.steps.is_empty());
        use bcq_telemetry::StepKind;
        let kinds: Vec<StepKind> = profile.steps.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&StepKind::Fetch));
        assert!(kinds.contains(&StepKind::Join));
        assert!(kinds.contains(&StepKind::Project));
        assert!(profile.total_ns > 0);
        assert!(
            profile.step_sum_ns() <= profile.total_ns,
            "steps are disjoint slices of the run"
        );
        assert!(profile.render().contains("join:"), "{}", profile.render());
    }

    #[test]
    fn unbound_slot_is_an_error_uninterned_binding_is_empty() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        let err = s.query(&q1, &BTreeMap::new()).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(CoreError::UnboundParameters(_))
        ));
        let r = s.query(&q1, &bind("a0", "nobody-ever")).unwrap();
        assert!(r.rows().unwrap().is_empty());
    }
}
