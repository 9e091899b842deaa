//! Registered views: a ground, effectively bounded query planned once and
//! its last answer, stamped with the epochs of the relations it read. The
//! view list's lock sits outside the write path's lock order (see the
//! [module docs](super)).

use super::{Server, ServiceError};
use crate::shared::{lock_recovered, read_recovered, write_recovered};
use bcq_core::error::CoreError;
use bcq_core::plan::QueryPlan;
use bcq_core::prelude::{RelId, SpcQuery};
use bcq_core::qplan::qplan;
use bcq_exec::{eval_dq_with, ParamEnv, ResultSet};
use std::sync::Mutex;

/// Identifier of a registered view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewId(pub usize);

/// One registered view: the bounded plan prepared for its query and the
/// last answer that plan produced. Evaluating the plan costs at most its
/// `Σ Mᵢ` whatever `|D|` is, so nothing is maintained under writes: a
/// read that finds the answer behind re-runs the plan.
pub(super) struct View {
    plan: QueryPlan,
    /// The relations the query's atoms read.
    read_rels: Vec<RelId>,
    cached: Mutex<CachedAnswer>,
}

struct CachedAnswer {
    answer: ResultSet,
    /// The slice of the vector clock `answer` was computed at: one stamp
    /// per relation the view's atoms read (`None` until the first read).
    /// Writes to any other relation leave the answer current.
    stamps: Option<Vec<(RelId, u64)>>,
}

impl Server {
    /// Registers `q` as a view: a ground query that must be effectively
    /// bounded under the server's access schema. Its bounded plan is
    /// generated here, once; the answer is computed by the first
    /// [`Server::view_result`].
    pub fn register_view(&self, q: &SpcQuery) -> crate::Result<ViewId> {
        let view = View {
            plan: qplan(q, &self.access)?,
            read_rels: q.read_rels(),
            cached: Mutex::new(CachedAnswer {
                answer: ResultSet::empty(),
                stamps: None,
            }),
        };
        let mut views = write_recovered(&self.views);
        views.push(view);
        Ok(ViewId(views.len() - 1))
    }

    /// The answer of a registered view. Re-runs the view's bounded plan
    /// first if a relation one of its atoms reads advanced past the
    /// cached answer's stamps (writes to *other* relations never do);
    /// otherwise returns the cached answer.
    pub fn view_result(&self, id: ViewId) -> crate::Result<ResultSet> {
        let views = read_recovered(&self.views);
        let view = views
            .get(id.0)
            .ok_or_else(|| ServiceError::Core(CoreError::Invalid("unknown view id".into())))?;
        // Answer lock first, snapshot second: a snapshot taken before the
        // lock could predate the state a concurrent read of this view
        // just cached, and would replace it with an older answer.
        let mut cached = lock_recovered(&view.cached);
        let snap = self.shared.snapshot();
        let current = cached
            .stamps
            .as_ref()
            .is_some_and(|s| s.iter().all(|&(rel, e)| snap.epoch_of(rel) == e));
        if !current {
            let out = eval_dq_with(&snap, &view.plan, &self.access, ParamEnv::empty_ref())?;
            cached.answer = out.result;
            let stamps = view.read_rels.iter().map(|&rel| (rel, snap.epoch_of(rel)));
            cached.stamps = Some(stamps.collect());
            if self.metrics.is_enabled() {
                self.metrics.view_recomputes.inc();
            }
        }
        Ok(cached.answer.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fixtures::setup;
    use crate::server::AdmissionPolicy;
    use bcq_core::prelude::Value;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn registered_views_maintain_and_recompute() {
        let server = setup(AdmissionPolicy::Strict);
        let q0 = SpcQuery::builder(Arc::clone(server.access().catalog()), "Q0")
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
            .unwrap();
        let view = server.register_view(&q0).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 1);

        // A row write to a read relation: the next read re-evaluates.
        server
            .insert(
                "tagging",
                &[Value::str("p2"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // So does an out-of-band write.
        server.bulk_update(|db| {
            db.insert(
                "tagging",
                &[Value::str("p3"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        });
        assert_eq!(server.view_result(view).unwrap().len(), 3);
    }

    #[test]
    fn registered_views_maintain_under_deletes() {
        let server = setup(AdmissionPolicy::Strict);
        let q0 = SpcQuery::builder(Arc::clone(server.access().catalog()), "Q0")
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
            .unwrap();
        let view = server.register_view(&q0).unwrap();
        server
            .insert(
                "tagging",
                &[Value::str("p2"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // A delete retracts the answer it supported.
        server
            .delete(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        let rs = server.view_result(view).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.contains(&[Value::str("p2")]));

        // Deleting the friendship kills the remaining answer.
        server
            .delete("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert!(server.view_result(view).unwrap().is_empty());

        // Out-of-band bulk delete: the view re-evaluates.
        server.bulk_update(|db| {
            db.delete("in_album", &[Value::str("p2"), Value::str("a0")])
                .unwrap();
        });
        assert!(server.view_result(view).unwrap().is_empty());
    }

    #[test]
    fn row_writes_touch_no_view_and_a_stale_read_recomputes_once() {
        let server = setup(AdmissionPolicy::Strict);
        let catalog = Arc::clone(server.access().catalog());
        let views: Vec<ViewId> = (0..8)
            .map(|k| {
                let q = SpcQuery::builder(Arc::clone(&catalog), format!("friends_of_u{k}"))
                    .atom("friends", "f")
                    .eq_const(("f", "user_id"), format!("u{k}").as_str())
                    .project(("f", "friend_id"))
                    .build()
                    .unwrap();
                server.register_view(&q).unwrap()
            })
            .collect();
        let scan = SpcQuery::builder(catalog, "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        assert!(server.register_view(&scan).is_err(), "not bounded: refused");
        let recomputes = || server.metrics_snapshot().writes.view_recomputes;

        // Writers run while this thread holds a view's answer lock: one
        // that still locked the views it writes under would never return.
        {
            let views = server.views.read().unwrap();
            let _held = views[0].cached.lock().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..16 {
                        server
                            .insert("friends", &[Value::str("u0"), Value::int(i)])
                            .unwrap();
                    }
                    for i in 0..8 {
                        assert!(server
                            .delete("friends", &[Value::str("u0"), Value::int(i)])
                            .unwrap());
                    }
                });
            });
        }
        assert_eq!(recomputes(), 0, "no write evaluated a view");

        for (k, &view) in views.iter().enumerate() {
            let rs = server.view_result(view).unwrap();
            assert_eq!(recomputes(), k as u64 + 1, "first read evaluates");
            assert_eq!(server.view_result(view).unwrap(), rs);
            assert_eq!(recomputes(), k as u64 + 1, "second read is cached");
        }
        assert_eq!(server.view_result(views[0]).unwrap().len(), 2 + 8);

        // Writes to relations no view reads leave every answer current.
        server
            .insert("in_album", &[Value::str("p9"), Value::str("a9")])
            .unwrap();
        server.bulk_update(|db| {
            db.delete("in_album", &[Value::str("p9"), Value::str("a9")])
                .unwrap();
        });
        for &view in &views {
            server.view_result(view).unwrap();
        }
        assert_eq!(recomputes(), 8);
    }

    #[test]
    fn views_ignore_writes_to_unread_relations() {
        let server = setup(AdmissionPolicy::Strict);
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "friends_of_u0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let view = server.register_view(&q).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // An out-of-band bulk write to a relation the view does not read:
        // the vector clock keeps the cached answer current as-is.
        server.bulk_update(|db| {
            db.insert(
                "tagging",
                &[Value::str("p9"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        });
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // A bulk write to the read relation re-evaluates on read.
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u6")])
                .unwrap();
        });
        assert_eq!(server.view_result(view).unwrap().len(), 3);
    }

    #[test]
    fn maintained_write_does_not_mask_prior_out_of_band_staleness() {
        // A view stale from a bulk write to one read relation must stay
        // stale across a row write to *another* read relation.
        let server = setup(AdmissionPolicy::Strict);
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "Q0")
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
            .unwrap();
        let view = server.register_view(&q).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 1); // p1

        // Out-of-band: u3 becomes a friend — t(p2, u3, u0) now matches,
        // but the view has not read since, so it is stale w.r.t. friends.
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u3")])
                .unwrap();
        });
        // Row write to another of the view's read relations.
        server
            .insert(
                "tagging",
                &[Value::str("p3"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        // The next read re-evaluates and sees both new answers.
        let rs = server.view_result(view).unwrap();
        assert_eq!(rs.len(), 3, "{rs:?}");
        assert!(rs.contains(&[Value::str("p2")]), "bulk-written row seen");
        assert!(rs.contains(&[Value::str("p3")]), "row-written row seen");
    }

    #[test]
    fn views_answer_while_a_bulk_update_holds_the_gate() {
        let server = setup(AdmissionPolicy::Strict);
        let friends_of = |u: &str| {
            SpcQuery::builder(
                Arc::clone(server.access().catalog()),
                format!("friends_of_{u}"),
            )
            .atom("friends", "f")
            .eq_const(("f", "user_id"), u)
            .project(("f", "friend_id"))
            .build()
            .unwrap()
        };
        let view = server.register_view(&friends_of("u0")).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // One thread holds a bulk write open (exclusive on the gate, a row
        // of `friends` applied) until released; another reads the view and
        // registers one meanwhile. Whatever happens, the writer is
        // released and every thread joined before anything is asserted.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let wait = Duration::from_secs(5);
        let (server, friends_of) = (&*server, &friends_of);
        let (read, registered) = std::thread::scope(|s| {
            s.spawn(move || {
                server.bulk_update(|db| {
                    db.insert("friends", &[Value::str("u0"), Value::str("u5")])
                        .unwrap();
                    entered_tx.send(()).unwrap();
                    // Returns on release, or once the test side hung up.
                    let _ = release_rx.recv();
                })
            });
            let entered = entered_rx.recv_timeout(wait);
            s.spawn(move || {
                let _ = done_tx.send(server.view_result(view).map(|rs| rs.len()));
                let _ = done_tx.send(server.register_view(&friends_of("u9")).map(|v| v.0));
            });
            let read = done_rx.recv_timeout(wait);
            let registered = done_rx.recv_timeout(wait);
            drop(release_tx);
            entered.unwrap();
            (read, registered)
        });
        assert_eq!(
            read.expect("a view read waited out the bulk write"),
            Ok(2),
            "the state before the bulk write"
        );
        assert_eq!(
            registered.expect("a registration waited out the bulk write"),
            Ok(1)
        );
        assert_eq!(server.view_result(view).unwrap().len(), 3, "and after it");
        assert_eq!(server.view_result(ViewId(1)).unwrap().len(), 1);
    }
}
