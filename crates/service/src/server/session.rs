//! Sessions — the per-client handle over the read and write paths — and
//! the query-text path they serve, where a text is looked up in the plan
//! cache by its **shape**.

use super::{Prepared, Response, Server};
use bcq_core::error::CoreError;
use bcq_core::parser::{lifted_slot_name, SqlShape, LIFTED_SLOT_PREFIX};
use bcq_core::prelude::{RaExpr, SpcQuery, Value};
use bcq_telemetry::Phase;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Prefix of the plan-cache keys of query texts, which keeps them apart
/// from the fingerprint keys of [`Server::prepare`].
const SQL_KEY_PREFIX: &str = "sql:";

/// A session's reusable buffers for the text path ([`Server::prepare_sql`]):
/// the shape key and lifted values of the text being served, and the
/// binding map the request executes with. In the steady state — texts of
/// one shape with the same `?name` parameters — a request updates the
/// map's values in place and allocates no name.
#[derive(Debug, Default)]
struct SqlScratch {
    key: String,
    values: Vec<Value>,
    /// `slot_names[i]` is the name of lifted slot `i + 1`; grown on demand.
    slot_names: Vec<String>,
    bindings: BTreeMap<String, Value>,
}

impl SqlScratch {
    /// Moves the lifted values into `bindings` under their slot names and
    /// copies the caller's bindings beside them. The map keeps its entries
    /// (and their allocated names) whenever its key set is already the
    /// one wanted, which also keeps [`ParamEnv::rebind`](bcq_exec::ParamEnv::rebind)
    /// on its same-name-set fast path.
    fn bind(&mut self, caller: &BTreeMap<String, Value>) {
        let n = self.values.len();
        while self.slot_names.len() < n {
            self.slot_names
                .push(lifted_slot_name(self.slot_names.len() + 1));
        }
        let slots = &self.slot_names[..n];
        // Caller names never start with the slot prefix, so the names
        // wanted are `n + caller.len()` distinct ones.
        let same_names = self.bindings.len() == n + caller.len()
            && slots.iter().all(|s| self.bindings.contains_key(s))
            && caller.keys().all(|k| self.bindings.contains_key(k));
        if !same_names {
            self.bindings.clear();
        }
        let lifted = slots.iter().zip(self.values.drain(..));
        let callers = caller.iter().map(|(k, v)| (k, v.clone()));
        for (name, value) in lifted.chain(callers) {
            match self.bindings.get_mut(name) {
                Some(slot) => *slot = value,
                None => {
                    self.bindings.insert(name.clone(), value);
                }
            }
        }
    }
}

impl Server {
    /// Opens a session (per client/thread; sessions share the server's
    /// cache and database).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            server: Arc::clone(self),
            sql: SqlScratch::default(),
        }
    }

    /// Prepares (or fetches from cache) a query **text** by its shape.
    ///
    /// One scan of `sql` ([`SqlShape::scan`]) lifts every literal to the
    /// right of an `=` into a slot and yields the shape key the plan cache
    /// is looked up under — one cache, one eviction order, shared with
    /// [`Server::prepare`]. On a hit nothing is parsed, fingerprinted or
    /// planned. On a miss the scanned tokens are
    /// parsed into the shape's template (one placeholder per lifted
    /// literal) and classified like any other template; a text that does
    /// not parse, or that the admission policy refuses, caches nothing.
    ///
    /// Either way `scratch.bindings` then holds the bindings to execute
    /// with: the lifted values under their slot names, merged with the
    /// caller's own `bindings` for the `?name` parameters of the text.
    fn prepare_sql(
        &self,
        name: &str,
        sql: &str,
        bindings: &BTreeMap<String, Value>,
        scratch: &mut SqlScratch,
    ) -> crate::Result<Prepared> {
        if let Some(reserved) = bindings.keys().find(|k| k.starts_with(LIFTED_SLOT_PREFIX)) {
            return Err(CoreError::Invalid(format!(
                "parameter name `{reserved}` is reserved for lifted literals"
            ))
            .into());
        }
        scratch.key.clear();
        scratch.key.push_str(SQL_KEY_PREFIX);
        scratch.values.clear();
        let shape = SqlShape::scan(sql, &mut scratch.key, &mut scratch.values)?;
        self.metrics.record_sql(scratch.values.len() as u64);
        let prepared = self.prepare_keyed(&scratch.key, || {
            let template = shape.template(Arc::clone(self.access.catalog()), name)?;
            self.classify_spc(&template)
        })?;
        scratch.bind(bindings);
        Ok(prepared)
    }
}

/// A per-client handle: thin wrapper over an `Arc<Server>` that funnels
/// prepare+execute and keeps the query-text path's buffers. What it
/// serves is counted once, server-wide ([`Server::metrics_snapshot`]),
/// and per request ([`Response::stats`]).
pub struct Session {
    server: Arc<Server>,
    sql: SqlScratch,
}

impl Session {
    /// The server this session talks to.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Prepares (cached) and executes `q` with `bindings`.
    pub fn query(
        &mut self,
        q: &SpcQuery,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let prepared = self.server.prepare(q)?;
        self.run(&prepared, bindings)
    }

    /// Prepares (cached) and executes an RA expression.
    pub fn query_ra(
        &mut self,
        expr: &RaExpr,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let prepared = self.server.prepare_ra(expr)?;
        self.run(&prepared, bindings)
    }

    /// Serves an SQL-ish query text, compiled once per **shape**: one scan
    /// of `sql` ([`SqlShape::scan`]) lifts every literal to the right of an
    /// `=` into a slot, and the plan cache is keyed on what is left, so
    /// only the first text of a shape is parsed, analysed and planned. The
    /// request executes with the text's own literals plus `bindings` for
    /// its `?name` parameters (whose names may not start with
    /// [`LIFTED_SLOT_PREFIX`]). A text that does not parse, or that the
    /// admission policy refuses, caches nothing.
    pub fn query_sql(
        &mut self,
        name: &str,
        sql: &str,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let mut scratch = std::mem::take(&mut self.sql);
        let prepared = self.server.prepare_sql(name, sql, bindings, &mut scratch);
        let result = prepared.and_then(|p| self.run(&p, &scratch.bindings));
        self.sql = scratch;
        result
    }

    /// Inserts one row through the server's write path
    /// ([`Server::insert`]).
    pub fn insert(&mut self, rel_name: &str, row: &[Value]) -> crate::Result<u32> {
        self.server.insert(rel_name, row)
    }

    /// Deletes one copy of a row through the server's write path
    /// ([`Server::delete`]). Returns `false` if no copy was stored.
    pub fn delete(&mut self, rel_name: &str, row: &[Value]) -> crate::Result<bool> {
        self.server.delete(rel_name, row)
    }

    fn run(
        &self,
        prepared: &Prepared,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let mut resp = self.server.execute(&prepared.query, bindings)?;
        let _respond = self.server.metrics.span(Phase::Respond);
        resp.stats.cache_hit = prepared.cache_hit;
        resp.stats.compile_elapsed = prepared.compile_elapsed;
        // Prepare happened before execute's clock started: fold the
        // compile time back in so `total_elapsed` is end-to-end and the
        // `compile + exec ≤ total` invariant holds per request.
        resp.stats.total_elapsed += prepared.compile_elapsed;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fixtures::{bind, setup, template};
    use crate::server::AdmissionPolicy;
    use bcq_telemetry::Lane;
    use std::time::Duration;

    #[test]
    fn sql_texts_of_one_shape_share_one_cache_entry() {
        // Capacity 8, 50 distinct literals: keyed on the text they would
        // have evicted each other; keyed on the shape they are one entry.
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        const N: u64 = 50;
        for i in 0..N {
            let sql = format!("SELECT f.friend_id FROM friends f WHERE f.user_id = 'u{i}'");
            let r = s.query_sql("adhoc", &sql, &BTreeMap::new()).unwrap();
            assert_eq!(r.stats.lane, Lane::Bounded);
            assert_eq!(r.stats.cache_hit, i > 0, "literal {i}");
            let expect = match i {
                0 => 2,
                9 => 1,
                _ => 0,
            };
            assert_eq!(r.rows().unwrap().len(), expect, "friends of u{i}");
        }
        assert_eq!(server.cache.len(), 1);
        let cs = server.cache_stats();
        assert_eq!(
            (cs.misses, cs.hits, cs.evictions),
            (1, N - 1, 0),
            "one compile per shape"
        );
        let m = server.metrics_snapshot();
        assert_eq!((m.sql.requests, m.sql.literals_lifted), (N, N));
        assert_eq!(m.requests(), N);
    }

    #[test]
    fn shape_entries_obey_the_cache_staleness_rules() {
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        let none = BTreeMap::new();
        let friends_of =
            |u: &str| format!("SELECT f.friend_id FROM friends f WHERE f.user_id = '{u}'");
        let photos_in =
            |a: &str| format!("SELECT ia.photo_id FROM in_album ia WHERE ia.album_id = '{a}'");
        let row = |u: &str, f: &str| [Value::str(u), Value::str(f)];
        let rows_of = |s: &mut Session, sql: &str| {
            let r = s.query_sql("q", sql, &none).unwrap();
            (r.stats.cache_hit, r.rows().unwrap().len())
        };
        assert_eq!(rows_of(&mut s, &friends_of("u0")), (false, 2));
        assert_eq!(rows_of(&mut s, &photos_in("a0")), (false, 3));
        let friends_template = SpcQuery::builder(Arc::clone(server.access().catalog()), "fr")
            .atom("friends", "f")
            .eq_param(("f", "user_id"), "uid")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let before = server.prepare(&friends_template).unwrap().query;
        let misses = server.cache_stats().misses;
        assert_eq!(misses, 3);

        // Row writes, to a relation the shape reads or not: hits, and the
        // answers follow the data.
        server.insert("in_album", &row("p9", "a9")).unwrap();
        assert_eq!(rows_of(&mut s, &friends_of("u9")), (true, 1));
        server.insert("friends", &row("u9", "u4")).unwrap();
        assert_eq!(rows_of(&mut s, &friends_of("u9")), (true, 2));
        assert!(server.delete("friends", &row("u9", "u4")).unwrap());
        assert_eq!(rows_of(&mut s, &friends_of("u9")), (true, 1));

        // The one reachable way to publish a snapshot without an index: a
        // `bulk_update` closure that opens a bulk loader (which clears the
        // relation's indices) and panics before the rebuild. Reads of that
        // relation fail on the executor's own check — no wrong answer, no
        // panic — and every other relation keeps answering.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.bulk_update(|db| {
                let friends = db.catalog().require_rel("friends").unwrap();
                db.bulk_loader(friends).push_rows(&row("u9", "u5"));
                panic!("closure dies before the index rebuild");
            })
        }));
        assert!(panicked.is_err());
        let err = s.query_sql("q", &friends_of("u9"), &none).unwrap_err();
        assert!(err.to_string().contains("not built"), "{err}");
        assert_eq!(rows_of(&mut s, &photos_in("a0")), (true, 3));

        // The next bulk write heals it; the entries compiled before the
        // panic were never dropped.
        server.bulk_update(|_| ());
        assert_eq!(
            rows_of(&mut s, &friends_of("u9")),
            (true, 2),
            "u3 and the panicked closure's u5"
        );
        let after = server.prepare(&friends_template).unwrap();
        assert!(after.cache_hit);
        assert!(Arc::ptr_eq(&before, &after.query));
        assert_eq!(server.cache_stats().misses, misses);
        assert_eq!(server.cache.len(), 3);
    }

    #[test]
    fn sql_scratch_rebinds_in_place_across_shapes_and_caller_names() {
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        let mut caller = BTreeMap::new();
        caller.insert("uid".to_string(), Value::str("u0"));
        // Literal + caller-bound parameter.
        let q1 = "SELECT ia.photo_id FROM in_album ia, friends f, tagging t \
                  WHERE ia.album_id = 'a0' AND f.user_id = ?uid \
                  AND ia.photo_id = t.photo_id AND t.tagger_id = f.friend_id \
                  AND t.taggee_id = ?uid";
        let r = s.query_sql("q1", q1, &caller).unwrap();
        assert!(r.rows().unwrap().contains(&[Value::str("p1")]));
        assert_eq!(s.sql.bindings.keys().collect::<Vec<_>>(), vec!["$1", "uid"]);
        // Another shape with more slots and no caller names: stale names
        // are dropped, not left behind to shadow anything.
        let q2 = "SELECT t.tagger_id FROM tagging t \
                  WHERE t.photo_id = 'p1' AND t.taggee_id = 'u0'";
        let r = s.query_sql("q2", q2, &BTreeMap::new()).unwrap();
        assert!(r.rows().unwrap().contains(&[Value::str("u1")]));
        assert_eq!(s.sql.bindings.keys().collect::<Vec<_>>(), vec!["$1", "$2"]);
        // Back to the first shape: same answer as before.
        let r = s.query_sql("q1", q1, &caller).unwrap();
        assert!(r.stats.cache_hit);
        assert_eq!(r.rows().unwrap().len(), 1);
        // A caller name spelled like a lifted slot is refused up front.
        let mut bad = BTreeMap::new();
        bad.insert("$1".to_string(), Value::str("a0"));
        let err = s.query_sql("q1", q1, &bad).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn no_write_ever_costs_a_cached_plan() {
        // One entry per kind of key — template, SQL shape, RA expression —
        // all reading only `friends`. Whatever is written, and wherever,
        // each prepare hands back the entry compiled first, by pointer.
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
        let template = friends_tpl("t", "uid");
        let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 'u0'";
        // friends(u0) − friends(u9); u9's only friend is u3, never u0's.
        let expr = RaExpr::difference(
            RaExpr::Spc(friends_tpl("l", "uid")),
            RaExpr::Spc(friends_tpl("r", "other")),
        );
        let mut b = BTreeMap::new();
        b.insert("uid".to_string(), Value::str("u0"));
        b.insert("other".to_string(), Value::str("u9"));
        let none = BTreeMap::new();
        let mut scratch = SqlScratch::default();
        let prepare_all = |scratch: &mut SqlScratch| {
            [
                server.prepare(&template).unwrap(),
                server.prepare_sql("q", sql, &none, scratch).unwrap(),
                server.prepare_ra(&expr).unwrap(),
            ]
        };

        let first = prepare_all(&mut scratch);
        assert!(first
            .iter()
            .all(|p| !p.cache_hit && p.compile_elapsed > Duration::ZERO));
        assert_eq!(first[0].query.program().unwrap().slots(), ["uid"]);
        assert_eq!(first[1].query.lane(), Lane::Bounded);
        assert_eq!(first[2].query.lane(), Lane::BoundedRa);
        assert_eq!(first[2].query.param_slots(), ["uid", "other"]);

        let row = |a: &str, b: &str| [Value::str(a), Value::str(b)];
        // Each write, and how many friends u0 has after it.
        let writes: [(&str, &dyn Fn(), usize); 8] = [
            (
                "insert, read",
                &|| drop(server.insert("friends", &row("u0", "u7"))),
                3,
            ),
            (
                "delete, read",
                &|| drop(server.delete("friends", &row("u0", "u7"))),
                2,
            ),
            (
                "bulk_update, read",
                &|| server.bulk_update(|db| drop(db.insert("friends", &row("u0", "u8")))),
                3,
            ),
            (
                "bulk_load, read",
                &|| {
                    server.bulk_update(|db| {
                        let friends = db.catalog().require_rel("friends").unwrap();
                        db.bulk_loader(friends).push_rows(&row("u0", "u6"))
                    })
                },
                4,
            ),
            (
                "insert, unread",
                &|| drop(server.insert("in_album", &row("p9", "a9"))),
                4,
            ),
            (
                "delete, unread",
                &|| drop(server.delete("in_album", &row("p9", "a9"))),
                4,
            ),
            (
                "bulk_update, unread",
                &|| server.bulk_update(|db| drop(db.insert("in_album", &row("p8", "a8")))),
                4,
            ),
            (
                "bulk_load, unread",
                &|| {
                    server.bulk_update(|db| {
                        let in_album = db.catalog().require_rel("in_album").unwrap();
                        db.bulk_loader(in_album).push_rows(&row("p7", "a7"))
                    })
                },
                4,
            ),
        ];
        for (what, write, friends_of_u0) in writes {
            let epoch = server.epoch();
            write();
            assert!(server.epoch() > epoch, "{what}: the write landed");
            let again = prepare_all(&mut scratch);
            for (p, q) in first.iter().zip(&again) {
                assert!(q.cache_hit, "{what}");
                assert_eq!(q.compile_elapsed, Duration::ZERO, "{what}");
                assert!(
                    Arc::ptr_eq(&p.query, &q.query),
                    "{what}: stored entry reused"
                );
            }
            assert_eq!(
                server.cache_stats().misses,
                3,
                "{what}: one compile per shape"
            );
            for (p, bindings) in [
                (&again[0], &b),
                (&again[1], &scratch.bindings),
                (&again[2], &b),
            ] {
                let r = server.execute(&p.query, bindings).unwrap();
                assert_eq!(r.rows().unwrap().len(), friends_of_u0, "{what}");
            }
        }
    }

    #[test]
    fn session_delete_tracks_stats() {
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        s.insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        assert!(s
            .delete("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap());
        assert!(!s
            .delete("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap());
        let writes = server.metrics_snapshot().writes;
        assert_eq!(writes.inserts, 1);
        assert_eq!(writes.deletes, 1, "only the delete that found a row");
    }

    #[test]
    fn concurrent_sessions_share_the_cache_and_agree() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        // Warm the cache once so every thread hits.
        server.session().query(&q1, &bind("a0", "u0")).unwrap();
        let warm = server.metrics_snapshot().requests();

        let mut handles = Vec::new();
        for _ in 0..4 {
            let server = Arc::clone(&server);
            let q1 = q1.clone();
            handles.push(std::thread::spawn(move || {
                let mut s = server.session();
                for _ in 0..25 {
                    let r = s.query(&q1, &bind("a0", "u0")).unwrap();
                    assert_eq!(r.rows().unwrap().len(), 1);
                    assert!(r.stats.cache_hit);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.metrics_snapshot().requests() - warm, 100);
        assert_eq!(server.cache_stats().misses, 1, "one compile served all");
    }
}
