//! The serving front door: [`Server`] owns the shared database, the plan
//! cache and the registered views; [`Session`] is a per-client handle over
//! both. Each request is counted once: server-wide in the metrics registry
//! and the plan cache ([`Server::metrics_snapshot`]), and on its own
//! [`Response`] ([`RequestStats`]).
//!
//! Each job is one module with one entry point per operation: `read`
//! (prepare, execute), `session` (sessions, the query-text path), `write`
//! (row and bulk writes), `durability` (open, WAL sync, checkpoint) and
//! `views` (registered views).
//!
//! ## Request lifecycle
//!
//! `Session::query` → [`Server::prepare`] (plan-cache lookup; on a miss the
//! template is compiled and classified into its [`Lane`](crate::Lane)) →
//! [`Server::execute`] (snapshot the database, encode the bindings to cells
//! once, run the lane's executor). Every response carries
//! [`RequestStats`]: lane taken, cache hit, epoch served, the full access
//! [`Meter`](bcq_storage::Meter), and the budget verdict.
//! [`Session::query_sql`] takes the same road from a query text, cached by
//! the text's *shape* (its `WHERE` constants lifted into slots).
//!
//! ## Admission control
//!
//! Queries that are not effectively bounded are the serving tier's tail
//! risk: their cost grows with `|D|`. [`AdmissionPolicy::Budgeted`] admits
//! them onto the conventional baseline under a hard touched-row cap (the
//! paper's 2 500 s wall, deterministically); [`AdmissionPolicy::Strict`]
//! rejects them at prepare time, so a production deployment can guarantee
//! every admitted request runs in bounded work.
//!
//! ## Write concurrency
//!
//! Row writers on **disjoint relations never share a latch**; they meet
//! only in the commit section. The lock order, invariant everywhere in
//! this module, is:
//!
//! 1. the bulk gate ([`Server`]'s `gate` `RwLock<()>`) — shared for row
//!    writers, exclusive for bulk writes and checkpoints;
//! 2. the written relation's write latch ([`SharedDb::lock_rel`]);
//! 3. the commit lock ([`SharedDb::write`]) — held for the pointer swap
//!    that installs a prepared shard, or for an in-place row write when no
//!    snapshot is outstanding; never across an fsync.
//!
//! [`Server::insert`] and [`Server::delete`] are one body (`write_row`)
//! that takes those locks in that order. When snapshots are outstanding
//! the writer prepares the new shard *off* the commit lock
//! ([`Database::prepare`]); otherwise it mutates in place inside the
//! commit section (uniquely owned shard — cheapest path, but disjoint
//! writers serialize on it). Either way every index of the relation is
//! maintained and the WAL record is appended inside the commit section,
//! so log order equals commit order; the **fsync happens after every lock
//! is released**, shared between concurrently committing writers (group
//! commit — see `WalWriter::ack`).
//!
//! A bulk write holds the gate alone while its closure runs: it works on
//! a copy of the state (`SharedDb::write_aside`) and takes the commit
//! lock only to publish it. A checkpoint compacts the log under the gate
//! alone. Reads keep serving the state before either meanwhile.
//!
//! The registered views' locks — the view list, then one view's answer —
//! sit outside that order: [`Server::register_view`] and
//! [`Server::view_result`] take no gate and no latch, and no path that
//! holds one takes a view lock. Under its view locks a read takes only a
//! snapshot, so it never waits out a bulk write or a checkpoint.
//!
//! The plan cache is sharded by key hash, so concurrent prepares on
//! different templates never serialize on one mutex. No write touches
//! it: a plan depends on the query and the access schema, never on the
//! data (see the invariant on [`Server`]).

mod durability;
mod read;
mod session;
mod views;
mod write;

pub use durability::DurabilityConfig;
pub use read::{BudgetVerdict, Outcome, Prepared, RequestStats, Response};
pub use session::Session;
pub use views::ViewId;

use crate::cache::{CacheShards, CacheStats};
use crate::shared::SharedDb;
use bcq_core::access::AccessSchema;
use bcq_core::error::CoreError;
use bcq_core::prelude::RelId;
use bcq_storage::Database;
use bcq_telemetry::{MetricsRegistry, MetricsSnapshot};
use durability::DurabilityState;
use std::sync::{Arc, RwLock};
use std::time::Duration;
use views::View;

/// `Duration` → nanoseconds in pure u64 arithmetic (`as_nanos` goes
/// through u128 — measurable on the request hot path). Saturates beyond
/// ~584 years.
#[inline]
fn dur_ns(d: Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// An underlying analysis / planning / execution error.
    Core(CoreError),
    /// The query was refused by the admission policy.
    Rejected(String),
    /// A durability operation (WAL sync, checkpoint, recovery) failed.
    Durability(String),
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::Rejected(why) => write!(f, "admission rejected: {why}"),
            ServiceError::Durability(why) => write!(f, "durability: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What the server does with queries that are not effectively bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject at prepare time: every admitted request runs bounded work.
    Strict,
    /// Admit onto the budgeted baseline with this touched-row cap.
    Budgeted(u64),
}

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Plan-cache capacity (prepared queries).
    pub plan_cache_capacity: usize,
    /// Admission policy for unbounded queries.
    pub policy: AdmissionPolicy,
    /// Whether the always-on metrics registry records (on by default; the
    /// off switch exists for overhead measurement, not production).
    pub metrics_enabled: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            plan_cache_capacity: 256,
            policy: AdmissionPolicy::Budgeted(1_000_000),
            metrics_enabled: true,
        }
    }
}

/// The query-serving server: shared database, plan cache, admission
/// control, registered views. `Server` is `Sync` — share it behind an
/// `Arc` and open one [`Session`] per client/thread.
///
/// **Invariant:** every snapshot this server publishes has every index
/// `access` declares; a cached plan is therefore valid for the server's
/// lifetime. [`Server::new`] builds them before the first request, a row
/// write maintains every index of its relation, and
/// [`Server::bulk_update`] rebuilds them before it publishes its rows.
/// (The one way out is a `bulk_update` closure that panics after dropping
/// an index: reads of that relation then fail with the executor's
/// "index … not built" error until the next bulk write rebuilds it.)
pub struct Server {
    shared: SharedDb,
    access: AccessSchema,
    config: ServerConfig,
    cache: CacheShards,
    /// The bulk gate: shared for row writers, exclusive for bulk writes
    /// and checkpoints (see the module docs for the full lock order).
    gate: RwLock<()>,
    /// The registered views, outside the write path's lock order.
    views: RwLock<Vec<View>>,
    metrics: MetricsRegistry,
    /// Present iff the server was built by [`Server::open`]: the WAL the
    /// database writes through, and checkpoint state.
    durability: Option<DurabilityState>,
}

impl Server {
    /// Builds a server over `db`, ensuring every index declared by
    /// `access` exists before the first request.
    pub fn new(mut db: Database, access: AccessSchema, config: ServerConfig) -> Self {
        db.build_indexes(&access);
        let metrics = MetricsRegistry::new();
        metrics.set_enabled(config.metrics_enabled);
        Server {
            shared: SharedDb::new(db),
            access,
            config,
            cache: CacheShards::new(config.plan_cache_capacity),
            gate: RwLock::new(()),
            views: RwLock::new(Vec::new()),
            metrics,
            durability: None,
        }
    }

    /// The access schema requests are planned under.
    pub fn access(&self) -> &AccessSchema {
        &self.access
    }

    /// An immutable snapshot of the current database state.
    pub fn snapshot(&self) -> Arc<Database> {
        self.shared.snapshot()
    }

    /// The current global database epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.snapshot().epoch()
    }

    /// The current epoch of one relation — its component of the vector
    /// clock.
    pub fn epoch_of(&self, rel: RelId) -> u64 {
        self.shared.snapshot().epoch_of(rel)
    }

    /// Plan-cache movement counters (summed across cache shards).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The server's metrics registry — always-on counters and latency
    /// histograms the serving paths record into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Enables or disables request tracing server-wide: while on, every
    /// request records its phase timings (admit → cache-lookup → compile →
    /// bind → execute → respond) into the registry's phase histograms.
    /// Off (the default) costs one relaxed load per phase.
    pub fn set_tracing(&self, on: bool) {
        self.metrics.set_tracing(on);
    }

    /// A point-in-time snapshot of every metric the server keeps: the
    /// registry's counters and histograms, plus what the plan cache, the
    /// WAL writer and the database count themselves (copy-on-write
    /// amplification, bulk ingest — replayed loads included — and storage
    /// gauges), each counted once at its source.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cs = self.cache.stats();
        snap.cache.hits = cs.hits;
        snap.cache.misses = cs.misses;
        snap.cache.evictions = cs.evictions;
        snap.cache.entries = self.cache.len() as u64;
        if let Some(d) = &self.durability {
            d.export(&mut snap.wal);
        }
        let db = self.shared.snapshot();
        snap.writes.cow_shard_clones = db.cow_clones();
        snap.writes.cow_cells_cloned = db.cow_cells_cloned();
        let ingest = db.ingest_stats();
        snap.ingest.rows = ingest.rows;
        snap.ingest.chunks = ingest.chunks;
        snap.ingest.bytes = ingest.cell_bytes;
        snap.ingest.intern_batch_hits = ingest.intern_batch_hits;
        snap.gauges.relations = db.num_relations() as u64;
        snap.gauges.total_tuples = db.total_tuples() as u64;
        snap.gauges.interner_symbols = db.symbols().len() as u64;
        let (index_keys, index_bytes) = db.index_footprint();
        snap.gauges.index_keys = index_keys as u64;
        snap.gauges.index_bytes = index_bytes as u64;
        snap.gauges.table_bytes = db.table_bytes() as u64;
        snap.gauges.epoch = db.epoch();
        snap
    }
}

#[cfg(test)]
mod fixtures {
    use super::*;
    use bcq_core::prelude::{Catalog, SpcQuery, Value};
    use std::collections::BTreeMap;

    /// Example 1's catalog + access schema.
    pub(super) fn schema() -> AccessSchema {
        let catalog = Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap();
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
            .unwrap();
        a
    }

    /// Example 1's schema/access/data, served.
    pub(super) fn setup(policy: AdmissionPolicy) -> Arc<Server> {
        let a = schema();
        let catalog = Arc::clone(a.catalog());
        let mut db = Database::new(Arc::clone(&catalog));
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u9", "u3")] {
            db.insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        for (p, tagger, taggee) in [
            ("p1", "u1", "u0"),
            ("p2", "u3", "u0"),
            ("p4", "u2", "u0"),
            ("p3", "u1", "u5"),
        ] {
            db.insert(
                "tagging",
                &[Value::str(p), Value::str(tagger), Value::str(taggee)],
            )
            .unwrap();
        }
        Arc::new(Server::new(
            db,
            a,
            ServerConfig {
                plan_cache_capacity: 8,
                policy,
                ..ServerConfig::default()
            },
        ))
    }

    /// Q1 as a template with `?aid` / `?uid` slots.
    pub(super) fn template(server: &Server) -> SpcQuery {
        SpcQuery::builder(Arc::clone(server.access().catalog()), "Q1")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_param(("ia", "album_id"), "aid")
            .eq_param(("f", "user_id"), "uid")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq_param(("t", "taggee_id"), "uid")
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    pub(super) fn bind(aid: &str, uid: &str) -> BTreeMap<String, Value> {
        let mut b = BTreeMap::new();
        b.insert("aid".to_string(), Value::str(aid));
        b.insert("uid".to_string(), Value::str(uid));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{bind, setup, template};
    use super::*;
    use crate::server::views::ViewId;
    use bcq_core::prelude::{SpcQuery, Value};
    use bcq_telemetry::Lane;
    use std::collections::BTreeMap;

    #[test]
    fn metrics_snapshot_covers_lanes_cache_writes_and_gauges() {
        let server = setup(AdmissionPolicy::Budgeted(1_000));
        let q1 = template(&server);
        let mut s = server.session();
        s.query(&q1, &bind("a0", "u0")).unwrap();
        s.query(&q1, &bind("a1", "u0")).unwrap();

        // A budgeted request and a write under a registered view.
        let scan = SpcQuery::builder(Arc::clone(server.access().catalog()), "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        s.query(&scan, &BTreeMap::new()).unwrap();
        let friends_view = SpcQuery::builder(Arc::clone(server.access().catalog()), "fv")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        server.register_view(&friends_view).unwrap();
        // Pin a snapshot across the insert so the write must copy-on-write
        // the touched shard (otherwise the uniquely-owned shard mutates in
        // place and the COW counters stay at zero).
        let pinned = server.snapshot();
        server
            .insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        drop(pinned);
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u8")])
                .unwrap();
        });
        server.view_result(ViewId(0)).unwrap();

        let snap = server.metrics_snapshot();
        assert_eq!(snap.lane(Lane::Bounded).latency.count(), 2);
        assert_eq!(snap.lane(Lane::Unbounded).latency.count(), 1);
        assert!(snap.lane(Lane::Bounded).tuples_fetched > 0);
        assert_eq!(snap.admission.budget_completed, 1);
        assert_eq!(snap.cache.misses, 2, "Q1 + scan each compiled once");
        assert_eq!(snap.cache.hits, 1);
        assert_eq!(snap.writes.inserts, 1);
        assert_eq!(snap.writes.bulk_updates, 1);
        assert_eq!(snap.writes.view_recomputes, 1, "bulk update forced one");
        assert!(snap.writes.cow_shard_clones > 0);
        assert_eq!(snap.gauges.relations, 3);
        assert!(snap.gauges.total_tuples > 0);
        assert!(snap.gauges.interner_symbols > 0);
        assert!(snap.gauges.index_keys > 0);
        assert!(snap.gauges.index_bytes > 0);
        assert!(snap.gauges.table_bytes > 0);
        assert!(snap.gauges.epoch > 0);
        let json = snap.to_json();
        assert!(json.contains("\"plan_cache\""), "{json}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("bcq_requests_total"), "{prom}");
    }

    #[test]
    fn disabled_metrics_record_nothing_but_serving_works() {
        let catalog = Arc::clone(setup(AdmissionPolicy::Strict).access().catalog());
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        let mut db = Database::new(Arc::clone(&catalog));
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        let server = Arc::new(Server::new(
            db,
            a,
            ServerConfig {
                metrics_enabled: false,
                ..ServerConfig::default()
            },
        ));
        let q = SpcQuery::builder(catalog, "f0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let mut s = server.session();
        assert_eq!(
            s.query(&q, &BTreeMap::new()).unwrap().rows().unwrap().len(),
            1
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.requests(), 0, "registry off: nothing recorded");
        // Gauges are pulled from storage at snapshot time, not recorded.
        assert!(snap.gauges.total_tuples > 0);
    }

    #[test]
    fn tracing_records_phase_timings_only_while_enabled() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        s.query(&q1, &bind("a0", "u0")).unwrap();
        use bcq_telemetry::Phase;
        let snap = server.metrics_snapshot();
        assert!(
            snap.phases.iter().all(|p| p.timings.count() == 0),
            "tracing off: no phase ever recorded"
        );

        server.set_tracing(true);
        s.query(&q1, &bind("a0", "u0")).unwrap(); // hit: no compile
        s.query(&template(&server), &bind("a1", "u0")).unwrap();
        server.set_tracing(false);
        let m = server.metrics();
        assert_eq!(m.phase_hist(Phase::CacheLookup).snapshot().count(), 2);
        assert_eq!(m.phase_hist(Phase::Bind).snapshot().count(), 2);
        assert_eq!(m.phase_hist(Phase::Execute).snapshot().count(), 2);
        assert_eq!(m.phase_hist(Phase::Respond).snapshot().count(), 2);
        assert_eq!(
            m.phase_hist(Phase::Compile).snapshot().count(),
            0,
            "both traced requests were cache hits"
        );

        s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(
            m.phase_hist(Phase::Execute).snapshot().count(),
            2,
            "tracing off again: no further phase records"
        );
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_server() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        server.session().query(&q1, &bind("a0", "u0")).unwrap();

        // Poison every cache shard, the bulk gate and the views lock by
        // panicking while holding them all.
        {
            let server = Arc::clone(&server);
            let _ = std::thread::spawn(move || {
                let _shards: Vec<_> = server
                    .cache
                    .shard_locks()
                    .map(|s| s.lock().unwrap())
                    .collect();
                let _gate = server.gate.write().unwrap();
                let _views = server.views.write().unwrap();
                panic!("poison every serving lock");
            })
            .join();
        }
        assert!(server.cache.shard_locks().all(|s| s.is_poisoned()));
        assert!(server.gate.is_poisoned());
        assert!(server.views.is_poisoned());

        // Serving still works end to end: cached prepare, execute, writes,
        // views, and the metrics snapshot (which reads the cache lock).
        let r = server.session().query(&q1, &bind("a0", "u0")).unwrap();
        assert!(r.stats.cache_hit, "cache survived the poison");
        assert_eq!(r.rows().unwrap().len(), 1);
        server
            .insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        let view = server
            .register_view(
                &SpcQuery::builder(Arc::clone(server.access().catalog()), "fv")
                    .atom("friends", "f")
                    .eq_const(("f", "user_id"), "u0")
                    .project(("f", "friend_id"))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 3);
        let snap = server.metrics_snapshot();
        assert!(snap.requests() >= 2);
    }
}
