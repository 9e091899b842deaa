//! Throughput bench for the `bcq-service` serving layer, on the
//! probe_join social workload.
//!
//! Three questions, answered into `BENCH_serving.json`:
//!
//! * **What does preparation buy?** `serving/prepared` executes a cached
//!   parameterized plan per request (the serving hot path);
//!   `serving/prepare_from_scratch` is what every request cost before the
//!   service layer existed: parse → `Σ_Q`/`ebcheck` → `qplan` → execute.
//!   The ratio lands in `derived.speedup_prepared_vs_replan`.
//! * **What does un-prepared text cost?** `serving/query_sql_literal`
//!   sends the same requests as SQL text with the constants written as
//!   literals, no text ever repeating: the plan cache keys text by its
//!   shape, so it should cost a cached request plus one scan of the text.
//!   `derived.sql_literal_over_cached` is the ratio to `Session::query`
//!   on the same request sequence, measured in interleaved windows that
//!   do not collapse under `BENCH_SMOKE` — CI gates the smoke run's
//!   ratio at ≤ 3.0 (text keyed with its constants sat at ~6).
//! * **Does anything plan per request on the RA lane?**
//!   `serving/ra_difference` serves `album(?aid) \ tagged(?uid)` — ten
//!   candidates per request, each a membership probe — interleaved with
//!   windows of the base block alone and of the probe block served as its
//!   own cached template. `derived.ra_probe_over_cached` = (RA request −
//!   base-block request) ÷ candidates ÷ that template's request: what one
//!   probe costs in units of a cached request. A probe is one run of a
//!   plan compiled at prepare and skips the session's cache lookup, so it
//!   sits below 1 (0.39); planning per candidate tuple sat at 3.2 (4.9 at
//!   smoke size). CI gates the smoke run's ratio at ≤ 3.0.
//! * **What does a cold RA compile cost?** `serving/ra_prepare/*` time
//!   `PreparedRa::prepare` from scratch: of `serving/ra_difference`'s
//!   template, and of an intersection whose left side is an intersection
//!   that can only be enumerated the other way round.
//! * **Do concurrent readers scale?** `serving/threads/N` hammers one
//!   shared server from N sessions on N threads; `ops_per_sec` is the
//!   aggregate QPS — read it against the `cores` field: snapshot reads
//!   are lock-free, so it grows with threads only up to the core count.
//! * **Does the cache serve everyone?** asserted at the end: one compile,
//!   everything else hits.
//! * **Is observability free?** `serving/prepared_metrics_off` re-measures
//!   the prepared lane with the metrics registry switched off;
//!   `derived.metrics_overhead_ratio` (on/off) is CI's ≤ 1.05 gate. The
//!   registry's own log-linear histogram supplies the tail:
//!   `derived.serving_bounded_p50/p99/p999_ns`.
//! * **What does a write cost under snapshots?** (`bench_write_path`)
//!   single-row inserts with a reader snapshot held, with the rows/bytes
//!   cloned per write measured from the storage layer's cow counters — and
//!   the same measurement on a catalog padded with ballast relations,
//!   proving the sharded clone cost is independent of the number of other
//!   relations (`derived.write_sharded_ballast_ratio` ≈ 1.0).
//! * **What does durability cost?** the same steady-state maintained
//!   insert against a WAL-attached server (group commit every 64 ops, on
//!   an in-memory log device so the number isolates record encoding +
//!   append, not disk latency) vs the identical WAL-free server. The
//!   on/off sample windows interleave so drift cancels;
//!   `derived.wal_overhead_ratio` is CI's ≤ 2.0 regression gate, with
//!   `wal_bytes_per_write` / `wal_fsyncs_per_write` recording what the
//!   log actually absorbed.
//! * **Does mixed traffic scale?** `serving/mixed/threads/N`: N sessions
//!   issuing 63 reads per maintained write; read against `cores` like the
//!   read-only lanes.
//! * **Does the real request path scale?** `serving/net/threads/N`: the
//!   same prepared reads through the TCP front end — framed protocol,
//!   one connection (and server thread) per client — so the QPS numbers
//!   exercise parsing, sessions and the network stack, not just the
//!   in-process fast path.
//! * **Do disjoint writers commit in parallel?** `serving/write/disjoint/
//!   threads/N`: N writers each owning a private relation; the
//!   per-relation latches must record **zero** conflicts. A contended
//!   companion lane (all writers on one relation) records the conflict
//!   count and latch-wait tail as evidence the telemetry sees real
//!   contention.
//! * **Does the writer lock hold exclude the fsync?**
//!   `serving/write/durable_fsync_always`: maintained inserts against a
//!   real on-disk [`DirLog`] with `SyncPolicy::Always` — the slowest
//!   possible ack. `derived.durable_commit_hold_p50_ns` (time inside the
//!   exclusive commit section) vs `derived.durable_write_p50_ns` (full
//!   ack including the fsync) shows the disk wait is paid **off** the
//!   write lock; concurrent writers on the same log then share flushes
//!   (`derived.durable_group_batch_mean_commits` > 1 when they pile up).
//!
//! Every datapoint in `BENCH_serving.json` carries the machine's `cores`
//! (top-level and as `derived.cores`): read the `threads/N` lanes against
//! it. No thread-scaling ratio is derived — none this host can bind.
//!
//! `BENCH_SMOKE=1` shrinks the dataset and runs every lane once (CI).

mod common;

use bcq_core::prelude::*;
use bcq_exec::{eval_dq, PreparedRa};
use bcq_service::{
    DirLog, DurabilityConfig, LaneKind, LogStorage, MemLog, NetClient, NetServer, Server,
    ServerConfig, SyncPolicy,
};
use bcq_storage::Database;
use common::summarize;
use criterion::{
    criterion_group, criterion_main, measure_median_ns, record_derived, record_metric_sampled,
    smoke_mode,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const USERS: i64 = 20_000;
const SMOKE_USERS: i64 = 500;

fn social_catalog() -> Arc<Catalog> {
    Catalog::from_names(&[
        ("in_album", &["photo_id", "album_id"]),
        ("friends", &["user_id", "friend_id"]),
        ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
    ])
    .unwrap()
}

fn social_access(cat: &Arc<Catalog>) -> AccessSchema {
    let mut a = AccessSchema::new(Arc::clone(cat));
    a.add("in_album", &["album_id"], &["photo_id"], 64).unwrap();
    a.add("friends", &["user_id"], &["friend_id"], 64).unwrap();
    a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 8)
        .unwrap();
    a
}

/// Same data generator as the probe_join bench: string ids, sized so
/// per-request probes dominate.
fn social_db(cat: &Arc<Catalog>, a: &AccessSchema, users: i64) -> Database {
    let mut db = Database::new(Arc::clone(cat));
    for u in 0..users {
        for k in 0..8 {
            let f = (u * 31 + k * 7 + 1) % users;
            db.insert(
                "friends",
                &[Value::str(format!("u{u}")), Value::str(format!("f{f}"))],
            )
            .unwrap();
        }
    }
    for p in 0..users / 2 {
        db.insert(
            "in_album",
            &[
                Value::str(format!("p{p}")),
                Value::str(format!("a{}", p % (users / 20))),
            ],
        )
        .unwrap();
        db.insert(
            "tagging",
            &[
                Value::str(format!("p{p}")),
                Value::str(format!("f{}", (p * 31 + 1) % users)),
                Value::str(format!("u{}", p % users)),
            ],
        )
        .unwrap();
    }
    db.build_indexes(a);
    db
}

/// The parameterized three-atom template (the probe_join join shape with
/// its constants lifted into `?aid` / `?uid` slots).
fn template(cat: &Arc<Catalog>) -> SpcQuery {
    SpcQuery::builder(Arc::clone(cat), "social")
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

fn bindings(users: i64, n: usize) -> Vec<BTreeMap<String, Value>> {
    (0..n)
        .map(|i| {
            let i = i as i64;
            let mut b = BTreeMap::new();
            // Albums wrap at the `users / 20` that `social_db` loads.
            let album = (i * 7 + 1) % (users / 20);
            b.insert("aid".to_string(), Value::str(format!("a{album}")));
            b.insert(
                "uid".to_string(),
                Value::str(format!("u{}", (i * 13 + 5) % users)),
            );
            b
        })
        .collect()
}

fn bench_serving(_c: &mut criterion::Criterion) {
    let users = if smoke_mode() { SMOKE_USERS } else { USERS };
    let cat = social_catalog();
    let access = social_access(&cat);
    let db = social_db(&cat, &access, users);
    let server = Arc::new(Server::new(db, access.clone(), ServerConfig::default()));
    let tpl = template(&cat);
    let binds = bindings(users, 32);

    eprintln!("\n== serving (users={users}) ==");

    // --- Lane 1a: executing a prepared handle (plan compiled once; each
    // request only encodes its bindings and runs the plan), measured
    // against the identical loop with the metrics registry switched off.
    // The on/off sample windows interleave so ambient machine drift hits
    // both sides equally; the committed `derived.metrics_overhead_ratio`
    // is CI's ≤ 1.05 regression gate — always-on metrics must stay within
    // 5% of the bare path. ---
    let handle = server.prepare(&tpl).unwrap();
    let mut sink = 0usize;
    let (ab_samples, ab_iters) = if smoke_mode() { (1, 1) } else { (31, 2000) };
    let run_window = |sink: &mut usize| {
        let start = Instant::now();
        for i in 0..ab_iters {
            let resp = server
                .execute(&handle.query, &binds[i % binds.len()])
                .unwrap();
            *sink += resp.rows().map_or(0, |r| r.len());
        }
        start.elapsed().as_nanos() as f64 / ab_iters as f64
    };
    run_window(&mut sink); // warm-up
    let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
    for _ in 0..ab_samples {
        server.metrics().set_enabled(true);
        on_ns.push(run_window(&mut sink));
        server.metrics().set_enabled(false);
        off_ns.push(run_window(&mut sink));
    }
    server.metrics().set_enabled(true);
    let prepared = summarize(on_ns, ab_iters);
    let prepared_off = summarize(off_ns, ab_iters);
    prepared.record("serving/prepared");
    prepared_off.record("serving/prepared_metrics_off");
    record_derived("metrics_overhead_ratio", prepared.ns / prepared_off.ns);

    // --- Lane 1b: the full session path (fingerprint + plan-cache lookup
    // per request, then the same execution). ---
    let mut session = server.session();
    session.query(&tpl, &binds[0]).unwrap();
    let cached = measure_median_ns(15, 2000, |i| {
        let resp = session.query(&tpl, &binds[i % binds.len()]).unwrap();
        sink += resp.rows().map_or(0, |r| r.len());
    });
    cached.record("serving/query_cached");

    // --- Lane 1c: the same session path fed literal SQL text, one shape,
    // never the same text twice (the (album, user) pair first repeats
    // after `users` requests). Interleaved with `Session::query` windows
    // over the same request sequence, so the ratio compares like with
    // like; the windows keep a real size under BENCH_SMOKE because CI
    // gates this ratio on its smoke run. ---
    let (sql_samples, sql_iters) = if smoke_mode() { (3, 150) } else { (10, 2000) };
    let requests: Vec<(BTreeMap<String, Value>, String)> = bindings(users, sql_samples * sql_iters)
        .into_iter()
        .map(|b| {
            let sql = bcq_core::parser::render_sql(&tpl.instantiate(&b)).unwrap();
            (b, sql)
        })
        .collect();
    let no_bindings = BTreeMap::new();
    session
        .query_sql("adhoc", &requests[0].1, &no_bindings)
        .unwrap(); // compiles the shape
    let (mut text_ns, mut templated_ns) = (Vec::new(), Vec::new());
    for window in requests.chunks(sql_iters) {
        let start = Instant::now();
        for (bind, _) in window {
            let resp = session.query(&tpl, bind).unwrap();
            sink += resp.rows().map_or(0, |r| r.len());
        }
        templated_ns.push(start.elapsed().as_nanos() as f64 / sql_iters as f64);
        let start = Instant::now();
        for (_, sql) in window {
            let resp = session.query_sql("adhoc", sql, &no_bindings).unwrap();
            sink += resp.rows().map_or(0, |r| r.len());
        }
        text_ns.push(start.elapsed().as_nanos() as f64 / sql_iters as f64);
    }
    let text = summarize(text_ns, sql_iters);
    text.record("serving/query_sql_literal");
    record_derived(
        "sql_literal_over_cached",
        text.ns / summarize(templated_ns, sql_iters).ns,
    );

    // --- Lane 2: what every request cost pre-service: parse → analyze →
    // plan → execute, per request. ---
    let sqls: Vec<String> = binds
        .iter()
        .map(|b| bcq_core::parser::render_sql(&tpl.instantiate(b)).unwrap())
        .collect();
    let snapshot = server.snapshot();
    let replan = measure_median_ns(15, 300, |i| {
        let sql = &sqls[i % sqls.len()];
        let q = parse_spc(Arc::clone(&cat), "adhoc", sql).unwrap();
        let plan = qplan(&q, &access).unwrap();
        let out = eval_dq(&snapshot, &plan, &access).unwrap();
        sink += out.result.len();
    });
    replan.record("serving/prepare_from_scratch");
    record_derived("speedup_prepared_vs_replan", replan.ns / prepared.ns);

    // --- Multi-threaded read throughput: one shared server, N sessions on
    // N threads, fixed total request count. ---
    let total_requests: usize = if smoke_mode() { 8 } else { 40_000 };
    for threads in [1usize, 2, 4, 8] {
        let per_thread = total_requests / threads;
        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = Arc::clone(&server);
                let tpl = tpl.clone();
                let binds = binds.clone();
                std::thread::spawn(move || {
                    let mut s = server.session();
                    let mut rows = 0usize;
                    for i in 0..per_thread {
                        let resp = s.query(&tpl, &binds[(t * 7 + i) % binds.len()]).unwrap();
                        rows += resp.rows().map_or(0, |r| r.len());
                        assert!(resp.stats.cache_hit, "all threads ride the cache");
                    }
                    rows
                })
            })
            .collect();
        for h in handles {
            sink += h.join().unwrap();
        }
        let wall = start.elapsed();
        let served = per_thread * threads;
        let ns_per_req = wall.as_nanos() as f64 / served as f64;
        record_metric_sampled(
            format!("serving/threads/{threads}"),
            ns_per_req,
            1,
            served as u64,
        );
    }

    // --- The same reads through the TCP front end: framed protocol, one
    // connection per client thread, one server thread per connection.
    // This is the genuine request path — socket round trip, request
    // parsing, session dispatch — so absolute QPS sits well below the
    // in-process lanes; what matters is how it scales with threads. ---
    let net = NetServer::bind(
        Arc::clone(&server),
        std::slice::from_ref(&tpl),
        "127.0.0.1:0",
    )
    .unwrap();
    let net_addr = net.addr();
    let net_binds: Vec<(Value, Value)> = binds
        .iter()
        .map(|b| (b["aid"].clone(), b["uid"].clone()))
        .collect();
    let net_total: usize = if smoke_mode() { 8 } else { 8_000 };
    for threads in [1usize, 2, 4, 8] {
        let per_thread = net_total / threads;
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let net_binds = &net_binds;
                    scope.spawn(move || {
                        let mut client = NetClient::connect(net_addr).unwrap();
                        let mut rows = 0usize;
                        for i in 0..per_thread {
                            let (aid, uid) = &net_binds[(t * 7 + i) % net_binds.len()];
                            rows += client
                                .exec("social", &[("aid", aid.clone()), ("uid", uid.clone())])
                                .unwrap()
                                .len();
                        }
                        rows
                    })
                })
                .collect();
            let mut rows = 0usize;
            for h in handles {
                rows += h.join().unwrap();
            }
            std::hint::black_box(rows);
        });
        let served = per_thread * threads;
        let ns_per_req = start.elapsed().as_nanos() as f64 / served as f64;
        record_metric_sampled(
            format!("serving/net/threads/{threads}"),
            ns_per_req,
            1,
            served as u64,
        );
    }
    net.shutdown();

    // The whole bench compiled exactly twice — the template, and the one
    // shape of all the literal texts (the network sessions all hit the
    // shared sharded plan cache).
    let cs = server.cache_stats();
    assert_eq!(cs.misses, 2, "two compiles, {} hits", cs.hits);

    // --- Per-lane latency distribution over everything this bench served,
    // from the always-on registry (log-linear histogram, ≤ 3.1% relative
    // error): the tail percentiles the medians above hide. ---
    let snap = server.metrics_snapshot();
    let lat = &snap.lane(LaneKind::Bounded).latency;
    record_derived("serving_bounded_requests", lat.count() as f64);
    record_derived("serving_bounded_p50_ns", lat.quantile(0.50) as f64);
    record_derived("serving_bounded_p99_ns", lat.quantile(0.99) as f64);
    record_derived("serving_bounded_p999_ns", lat.quantile(0.999) as f64);
    // Scaling ratios are only meaningful with real parallelism: read them
    // against this value (also recorded at the top level).
    record_derived(
        "cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    sink += bench_ra_difference(&server, &cat, users);
    sink += bench_ra_prepare(server.access(), &cat);
    std::hint::black_box(sink);
}

/// What a cold compile costs on the bounded-RA lane: `PreparedRa::prepare`
/// of `serving/ra_difference`'s template, and of an intersection whose
/// left side is an intersection too — one whose own left side cannot be
/// enumerated, so both of its orientations are tried. Nothing is cached
/// between calls.
fn bench_ra_prepare(access: &AccessSchema, cat: &Arc<Catalog>) -> usize {
    let block = |rel: &str, alias: &str, attr: &str, slot: &str| {
        RaExpr::Spc(
            SpcQuery::builder(Arc::clone(cat), alias)
                .atom(rel, alias)
                .eq_param((alias, attr), slot)
                .project((alias, "photo_id"))
                .build()
                .unwrap(),
        )
    };
    let album = block("in_album", "ia", "album_id", "aid");
    let tagged = |slot: &str| block("tagging", "t", "taggee_id", slot);
    let lanes = [
        (
            "serving/ra_prepare/difference",
            RaExpr::difference(album.clone(), tagged("uid")),
        ),
        (
            "serving/ra_prepare/nested_intersection",
            RaExpr::intersect(RaExpr::intersect(tagged("uid"), album), tagged("vid")),
        ),
    ];
    let mut sink = 0;
    for (lane, expr) in &lanes {
        measure_median_ns(21, 400, |_| {
            sink += PreparedRa::prepare(expr, access)
                .unwrap()
                .param_slots()
                .len();
        })
        .record(*lane);
    }
    sink
}

/// The bounded-RA lane against its own parts. Runs after the bounded
/// lane's histogram has been read, so the one-atom requests issued here
/// stay out of `derived.serving_bounded_*`.
fn bench_ra_difference(server: &Arc<Server>, cat: &Arc<Catalog>, users: i64) -> usize {
    // Photos of ?aid in which ?uid is not tagged. `social_db` files ten
    // photos per album and tags user `u<p>` in photo `p<p>`.
    let base = SpcQuery::builder(Arc::clone(cat), "album")
        .atom("in_album", "ia")
        .eq_param(("ia", "album_id"), "aid")
        .project(("ia", "photo_id"))
        .build()
        .unwrap();
    let probed = SpcQuery::builder(Arc::clone(cat), "tagged")
        .atom("tagging", "t")
        .eq_param(("t", "taggee_id"), "uid")
        .project(("t", "photo_id"))
        .build()
        .unwrap();
    // What a probe runs, as a template anyone could prepare.
    let probe_tpl = probed.with_params(&[(probed.projection()[0], "photo")]);
    let expr = RaExpr::difference(RaExpr::Spc(base.clone()), RaExpr::Spc(probed));

    let (samples, iters) = if smoke_mode() { (3, 150) } else { (15, 2000) };
    let albums = users / 20;
    let bind = |pairs: [(&str, String); 2]| -> BTreeMap<String, Value> {
        pairs
            .into_iter()
            .map(|(slot, v)| (slot.to_string(), Value::str(v)))
            .collect()
    };
    // Per request: the RA bindings (the user tagged in the album's first
    // photo, so one candidate in ten is a member), and one of the ten
    // probes that request issues.
    let requests: Vec<[BTreeMap<String, Value>; 2]> = (0..(samples * iters) as i64)
        .map(|i| {
            let album = (i * 7 + 1) % albums;
            let photo = album + (i % 10) * albums;
            [
                bind([("aid", format!("a{album}")), ("uid", format!("u{album}"))]),
                bind([("photo", format!("p{photo}")), ("uid", format!("u{album}"))]),
            ]
        })
        .collect();

    let mut session = server.session();
    let misses = server.cache_stats().misses;
    let [ra_bind, probe_bind] = &requests[0];
    let answer = session.query_ra(&expr, ra_bind).unwrap();
    assert_eq!(answer.rows().unwrap().len(), 9, "ten photos, one tagged");
    session.query(&base, ra_bind).unwrap();
    session.query(&probe_tpl, probe_bind).unwrap();

    let mut sink = 0usize;
    let (mut ra_ns, mut base_ns, mut probe_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut candidates = 0usize;
    for window in requests.chunks(iters) {
        let start = Instant::now();
        for [ra_bind, _] in window {
            let resp = session.query_ra(&expr, ra_bind).unwrap();
            sink += resp.rows().map_or(0, |r| r.len());
        }
        ra_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        let start = Instant::now();
        for [ra_bind, _] in window {
            let resp = session.query(&base, ra_bind).unwrap();
            candidates += resp.rows().map_or(0, |r| r.len());
        }
        base_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        let start = Instant::now();
        for [_, probe_bind] in window {
            let resp = session.query(&probe_tpl, probe_bind).unwrap();
            sink += resp.rows().map_or(0, |r| r.len());
        }
        probe_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    // One compile each for the expression and the two templates: no
    // request, and no candidate tuple, reached the planner.
    assert_eq!(server.cache_stats().misses, misses + 3);

    let ra = summarize(ra_ns, iters);
    ra.record("serving/ra_difference");
    let per_request = candidates as f64 / requests.len() as f64;
    record_derived("ra_candidates_per_request", per_request);
    record_derived(
        "ra_probe_over_cached",
        (ra.ns - summarize(base_ns, iters).ns) / per_request / summarize(probe_ns, iters).ns,
    );
    sink + candidates
}

/// A social catalog padded with `ballast` extra relations (never queried,
/// never written) — the axis along which a whole-database copy-on-write
/// would amplify and the sharded store must not.
fn ballast_catalog(ballast: usize) -> Arc<Catalog> {
    let mut rels = vec![
        RelationSchema::new("in_album", ["photo_id", "album_id"]).unwrap(),
        RelationSchema::new("friends", ["user_id", "friend_id"]).unwrap(),
        RelationSchema::new("tagging", ["photo_id", "tagger_id", "taggee_id"]).unwrap(),
    ];
    for b in 0..ballast {
        rels.push(RelationSchema::new(format!("ballast{b}"), ["k", "v"]).unwrap());
    }
    Arc::new(Catalog::new(rels).unwrap())
}

/// A server over the social data, with `ballast` extra relations each
/// carrying `users` rows of dead weight.
fn write_server(users: i64, ballast: usize) -> Arc<Server> {
    let cat = ballast_catalog(ballast);
    let access = social_access(&cat);
    let mut db = social_db(&cat, &access, users);
    for b in 0..ballast {
        for k in 0..users {
            db.insert(
                &format!("ballast{b}"),
                &[Value::int(k), Value::int(k * 17 + b as i64)],
            )
            .unwrap();
        }
    }
    db.build_indexes(&access);
    Arc::new(Server::new(db, access, ServerConfig::default()))
}

/// The social server again, but opened durable over an in-memory log
/// device: every write is WAL-logged, group-fsynced every 64 ops. The
/// data rides one bulk load so the steady state matches [`write_server`].
fn durable_write_server(users: i64) -> Arc<Server> {
    let cat = ballast_catalog(0);
    let access = social_access(&cat);
    let log: Arc<dyn LogStorage> = Arc::new(MemLog::new());
    let durability = DurabilityConfig {
        policy: SyncPolicy::EveryOps(64),
    };
    let (server, _report, _views) =
        Server::open(log, access, ServerConfig::default(), durability, &[]).unwrap();
    server.bulk_update(|db| {
        for u in 0..users {
            for k in 0..8 {
                let f = (u * 31 + k * 7 + 1) % users;
                db.insert(
                    "friends",
                    &[Value::str(format!("u{u}")), Value::str(format!("f{f}"))],
                )
                .unwrap();
            }
        }
        for p in 0..users / 2 {
            db.insert(
                "in_album",
                &[
                    Value::str(format!("p{p}")),
                    Value::str(format!("a{}", p % (users / 20))),
                ],
            )
            .unwrap();
            db.insert(
                "tagging",
                &[
                    Value::str(format!("p{p}")),
                    Value::str(format!("f{}", (p * 31 + 1) % users)),
                    Value::str(format!("u{}", p % users)),
                ],
            )
            .unwrap();
        }
    });
    Arc::new(server)
}

/// Sharded write cost with a snapshot held across every write (so each
/// write must copy-on-write its shard): median ns/write plus the cells
/// actually cloned, read from the storage layer's cow counters.
fn measure_sharded_writes(server: &Arc<Server>, writes: usize) -> (f64, f64) {
    // Values already interned: the steady-state write path (no symbol-table
    // copy; `friends` is bag storage, duplicates are fine).
    let row = [Value::str("u1"), Value::str("f1")];
    let cells_before = server.snapshot().cow_cells_cloned();
    let start = Instant::now();
    for _ in 0..writes {
        let hold = server.snapshot();
        server.insert("friends", &row).unwrap();
        drop(hold);
    }
    let ns = start.elapsed().as_nanos() as f64 / writes as f64;
    let cells = (server.snapshot().cow_cells_cloned() - cells_before) as f64 / writes as f64;
    (ns, cells)
}

fn bench_write_path(_c: &mut criterion::Criterion) {
    let users = if smoke_mode() { SMOKE_USERS } else { 4_000 };
    let writes = if smoke_mode() { 4 } else { 256 };
    const BALLAST: usize = 8;

    eprintln!("\n== serving write path (users={users}, ballast={BALLAST} relations) ==");

    // --- Sharded copy-on-write: clone cost is the touched relation. ---
    let server = write_server(users, 0);
    let (sharded_ns, sharded_cells) = measure_sharded_writes(&server, writes);
    record_metric_sampled("serving/write/sharded_cow", sharded_ns, 1, writes as u64);
    record_derived("write_rows_cloned_per_write_sharded", sharded_cells / 2.0);
    record_derived("write_bytes_cloned_per_write_sharded", sharded_cells * 8.0);

    // --- The same writes with ballast relations: the sharded clone cost
    // must not move. ---
    let ballasted = write_server(users, BALLAST);
    let (ballast_ns, ballast_cells) = measure_sharded_writes(&ballasted, writes);
    record_metric_sampled(
        "serving/write/sharded_cow_ballast",
        ballast_ns,
        1,
        writes as u64,
    );
    record_derived(
        "write_rows_cloned_per_write_sharded_ballast",
        ballast_cells / 2.0,
    );
    record_derived("write_sharded_ballast_ratio", ballast_cells / sharded_cells);
    if !smoke_mode() {
        assert!(
            (ballast_cells / sharded_cells - 1.0).abs() < 0.01,
            "sharded rows-cloned-per-write must be independent of other \
             relations: {sharded_cells} vs {ballast_cells} cells"
        );
    }

    // --- WAL on vs off: the identical steady-state maintained insert
    // (values already interned, no snapshot held) against a durable
    // server and a WAL-free one. The log device is in-memory, so the
    // ratio isolates what the write path itself pays — record encoding +
    // framed append + the 1-in-64 group fsync — not disk latency. The
    // committed `derived.wal_overhead_ratio` is CI's ≤ 2.0 gate. ---
    let durable = durable_write_server(users);
    let plain = write_server(users, 0);
    let row = [Value::str("u1"), Value::str("f1")];
    let mut sink = 0usize;
    let (w_samples, w_iters) = if smoke_mode() { (1, 1) } else { (31, 256) };
    let write_window = |server: &Arc<Server>, sink: &mut usize| {
        let start = Instant::now();
        for _ in 0..w_iters {
            *sink += server.insert("friends", &row).unwrap() as usize & 1;
        }
        start.elapsed().as_nanos() as f64 / w_iters as f64
    };
    write_window(&durable, &mut sink); // warm-up
    write_window(&plain, &mut sink);
    let wal_before = durable.wal_stats().unwrap();
    let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
    for _ in 0..w_samples {
        on_ns.push(write_window(&durable, &mut sink));
        off_ns.push(write_window(&plain, &mut sink));
    }
    let wal_after = durable.wal_stats().unwrap();
    let wal_on = summarize(on_ns, w_iters);
    let wal_off = summarize(off_ns, w_iters);
    wal_on.record("serving/write/wal_group_commit");
    wal_off.record("serving/write/wal_off");
    record_derived("wal_overhead_ratio", wal_on.ns / wal_off.ns);
    let measured_writes = (w_samples * w_iters) as f64;
    record_derived(
        "wal_bytes_per_write",
        (wal_after.bytes - wal_before.bytes) as f64 / measured_writes,
    );
    record_derived(
        "wal_fsyncs_per_write",
        (wal_after.fsyncs - wal_before.fsyncs) as f64 / measured_writes,
    );
    std::hint::black_box(sink);

    // --- Disjoint-relation write concurrency: N writers each owning a
    // private ballast relation. The per-relation latches must never
    // collide — the conflict counter stays at zero — and on a multi-core
    // host the aggregate write rate scales. ---
    let disjoint = write_server(users, 8);
    let wtotal: usize = if smoke_mode() { 8 } else { 4_096 };
    for threads in [1usize, 2, 4, 8] {
        let per_thread = wtotal / threads;
        let conflicts_before = disjoint.metrics_snapshot().writes.conflicts;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let server = Arc::clone(&disjoint);
                scope.spawn(move || {
                    let rel = format!("ballast{t}");
                    for i in 0..per_thread {
                        server
                            .insert(&rel, &[Value::int(i as i64), Value::int(i as i64)])
                            .unwrap();
                    }
                });
            }
        });
        let served = per_thread * threads;
        let ns_per_write = start.elapsed().as_nanos() as f64 / served as f64;
        record_metric_sampled(
            format!("serving/write/disjoint/threads/{threads}"),
            ns_per_write,
            1,
            served as u64,
        );
        assert_eq!(
            disjoint.metrics_snapshot().writes.conflicts,
            conflicts_before,
            "disjoint-relation writers must never contend a latch"
        );
    }

    // --- The contended companion: every writer on ONE relation. The
    // latch serializes them; the conflict counter and wait histogram are
    // the telemetry evidence that real contention is visible. (How much
    // shows up is scheduler-dependent — recorded, not gated.) ---
    {
        let before = disjoint.metrics_snapshot();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = Arc::clone(&disjoint);
                scope.spawn(move || {
                    for i in 0..wtotal / 4 {
                        server
                            .insert("ballast0", &[Value::int(i as i64), Value::int(-1)])
                            .unwrap();
                    }
                });
            }
        });
        let after = disjoint.metrics_snapshot();
        record_derived(
            "contended_write_conflicts",
            (after.writes.conflicts - before.writes.conflicts) as f64,
        );
        record_derived(
            "contended_lock_wait_p99_ns",
            after.writes.lock_wait.quantile(0.99) as f64,
        );
    }

    // --- Does the writer lock hold exclude the fsync? Maintained inserts
    // against a real on-disk DirLog with SyncPolicy::Always — every ack
    // waits for a disk flush, the slowest configuration there is. The
    // commit-section hold time (shard swap + epoch publication) must not
    // absorb that wait: hold_p50 ≪ write_p50 is the proof that group
    // commit moved the fsync off the write lock. ---
    {
        let wal_dir = std::env::temp_dir().join(format!("bcq_bench_wal_{}", std::process::id()));
        let log: Arc<dyn LogStorage> = Arc::new(DirLog::open(&wal_dir).unwrap());
        let cat = ballast_catalog(0);
        let access = social_access(&cat);
        let (fsync_server, _, _) = Server::open(
            log,
            access,
            ServerConfig::default(),
            DurabilityConfig {
                policy: SyncPolicy::Always,
            },
            &[],
        )
        .unwrap();
        let fsync_server = Arc::new(fsync_server);
        let row = [Value::str("u1"), Value::str("f1")];
        let fsync_writes = if smoke_mode() { 2 } else { 128 };
        fsync_server.insert("friends", &row).unwrap(); // warm (interns)
        let before = fsync_server.metrics_snapshot();
        let start = Instant::now();
        for _ in 0..fsync_writes {
            fsync_server.insert("friends", &row).unwrap();
        }
        let ns_per_write = start.elapsed().as_nanos() as f64 / fsync_writes as f64;
        record_metric_sampled(
            "serving/write/durable_fsync_always",
            ns_per_write,
            1,
            fsync_writes as u64,
        );
        let after = fsync_server.metrics_snapshot();
        let hold_p50 = after.writes.commit_hold.quantile(0.50) as f64;
        let write_p50 = after.writes.latency.quantile(0.50) as f64;
        record_derived("durable_commit_hold_p50_ns", hold_p50);
        record_derived("durable_write_p50_ns", write_p50);
        record_derived("durable_commit_hold_share", hold_p50 / write_p50);
        if !smoke_mode() {
            assert!(
                hold_p50 * 2.0 < write_p50,
                "commit-section hold ({hold_p50} ns) should be well under the \
                 fsync-inclusive write latency ({write_p50} ns): the disk wait \
                 must be paid off the write lock"
            );
        }

        // Concurrent writers on the same Always-fsync log share flushes:
        // the group-commit batch mean is the collapse factor.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let server = Arc::clone(&fsync_server);
                scope.spawn(move || {
                    for i in 0..fsync_writes / 2 {
                        server
                            .insert(
                                "friends",
                                &[Value::str("u1"), Value::str(format!("g{t}_{i}"))],
                            )
                            .unwrap();
                    }
                });
            }
        });
        let group = fsync_server.wal_stats().unwrap();
        record_derived(
            "durable_group_batch_mean_commits",
            (group.group_records - before.wal.group_records) as f64
                / (group.group_batches - before.wal.group_batches).max(1) as f64,
        );
        drop(fsync_server);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    // --- Mixed read/write throughput: N sessions, each issuing one
    // maintained write per 63 cached reads, one shared server. ---
    let cat = ballast_catalog(0);
    let access = social_access(&cat);
    let db = social_db(&cat, &access, users);
    let server = Arc::new(Server::new(db, access, ServerConfig::default()));
    let tpl = template(&cat);
    let binds = bindings(users, 32);
    server.session().query(&tpl, &binds[0]).unwrap();

    let total_requests: usize = if smoke_mode() { 16 } else { 40_000 };
    let cadence: usize = if smoke_mode() { 2 } else { 64 };
    for threads in [1usize, 2, 4, 8] {
        let per_thread = total_requests / threads;
        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = Arc::clone(&server);
                let tpl = tpl.clone();
                let binds = binds.clone();
                std::thread::spawn(move || {
                    let mut s = server.session();
                    let mut rows = 0usize;
                    for i in 0..per_thread {
                        if i % cadence == cadence - 1 {
                            // An interned duplicate row: the bag grows, the
                            // witness sets (what bounded reads probe) don't.
                            server
                                .insert("in_album", &[Value::str("p1"), Value::str("a1")])
                                .unwrap();
                        } else {
                            let resp = s.query(&tpl, &binds[(t * 7 + i) % binds.len()]).unwrap();
                            rows += resp.rows().map_or(0, |r| r.len());
                        }
                    }
                    rows
                })
            })
            .collect();
        let mut sink = 0usize;
        for h in handles {
            sink += h.join().unwrap();
        }
        std::hint::black_box(sink);
        let served = per_thread * threads;
        let ns_per_req = start.elapsed().as_nanos() as f64 / served as f64;
        record_metric_sampled(
            format!("serving/mixed/threads/{threads}"),
            ns_per_req,
            1,
            served as u64,
        );
    }
    assert_eq!(
        server.cache_stats().misses,
        1,
        "mixed writes never cost the cached plan"
    );
}

criterion_group!(benches, bench_serving, bench_write_path);
criterion_main!(benches);
