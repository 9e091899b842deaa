//! Observability end to end: drive a mixed read/write workload through a
//! [`Server`], then dump what the always-on metrics registry saw — the
//! per-lane latency histograms (p50/p99/p999), plan-cache movement,
//! the text path's request and lifted-literal counts, admission verdicts,
//! write-path, bulk-ingest and copy-on-write amplification counters, and the write-concurrency series (per-relation
//! latch waits and conflicts, commit-section hold times, group-commit
//! batch sizes) — as both JSON and Prometheus text. Then the two opt-in
//! diagnostics: request tracing (phase timings for admit → cache-lookup →
//! compile → bind → execute → respond) and per-operator profiling of an
//! 8-atom chain query, whose step times must sum to within 10% of the
//! measured end-to-end execute time.
//!
//! Run with: `cargo run --release --example metrics_dump`

use bounded_cq::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The social-search server of the other examples, behind a budgeted
/// admission policy so unbounded scans land on the metered baseline
/// instead of being rejected.
fn social_server() -> core::result::Result<(Arc<Server>, Arc<Catalog>), Box<dyn std::error::Error>>
{
    let catalog = Catalog::from_names(&[
        ("in_album", &["photo_id", "album_id"]),
        ("friends", &["user_id", "friend_id"]),
        ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
    ])?;
    let mut access = AccessSchema::new(catalog.clone());
    access.add("in_album", &["album_id"], &["photo_id"], 1000)?;
    access.add("friends", &["user_id"], &["friend_id"], 5000)?;
    access.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 8)?;

    let users = 1_000i64;
    let mut db = Database::new(catalog.clone());
    for u in 0..users {
        for k in 0..8 {
            let f = (u * 31 + k * 7 + 1) % users;
            db.insert(
                "friends",
                &[Value::str(format!("u{u}")), Value::str(format!("u{f}"))],
            )?;
        }
    }
    for p in 0..users {
        db.insert(
            "in_album",
            &[
                Value::str(format!("p{p}")),
                Value::str(format!("a{}", p % 50)),
            ],
        )?;
        db.insert(
            "tagging",
            &[
                Value::str(format!("p{p}")),
                Value::str(format!("u{}", (p * 31 + 1) % users)),
                Value::str(format!("u{}", p % users)),
            ],
        )?;
    }
    let config = ServerConfig {
        policy: AdmissionPolicy::Budgeted(1_000_000),
        ..ServerConfig::default()
    };
    Ok((Arc::new(Server::new(db, access, config)), catalog))
}

/// An 8-atom chain: hops `h1 → h2 → … → h8` through `hop(src, dst)`,
/// anchored on a parameterized start node. Effectively bounded — each
/// hop's `src` is determined by the previous hop's `dst`, so the plan
/// fetches at most `3^k` witnesses per level.
fn chain_server() -> core::result::Result<(Arc<Server>, SpcQuery), Box<dyn std::error::Error>> {
    let catalog = Catalog::from_names(&[("hop", &["src", "dst"])])?;
    let mut access = AccessSchema::new(catalog.clone());
    access.add("hop", &["src"], &["dst"], 3)?;

    let nodes = 2_000i64;
    let mut db = Database::new(catalog.clone());
    for n in 0..nodes {
        for k in 0..3 {
            let d = (n * 3 + k * 7 + 1) % nodes;
            db.insert(
                "hop",
                &[Value::str(format!("n{n}")), Value::str(format!("n{d}"))],
            )?;
        }
    }

    let names: Vec<String> = (1..=8).map(|i| format!("h{i}")).collect();
    let mut b = SpcQuery::builder(catalog, "chain8");
    for name in &names {
        b = b.atom("hop", name);
    }
    b = b.eq_param(("h1", "src"), "start");
    for w in names.windows(2) {
        b = b.eq((w[0].as_str(), "dst"), (w[1].as_str(), "src"));
    }
    let q = b.project(("h8", "dst")).build()?;
    Ok((
        Arc::new(Server::new(db, access, ServerConfig::default())),
        q,
    ))
}

fn main() -> core::result::Result<(), Box<dyn std::error::Error>> {
    let (server, catalog) = social_server()?;

    // --- Mixed traffic: bounded template hits, budgeted scans, a
    // registered view, row writes and deletes. ---
    let q1 = SpcQuery::builder(catalog.clone(), "Q1")
        .atom("in_album", "ia")
        .atom("friends", "f")
        .atom("tagging", "t")
        .eq_param(("ia", "album_id"), "aid")
        .eq_param(("f", "user_id"), "uid")
        .eq(("ia", "photo_id"), ("t", "photo_id"))
        .eq(("t", "tagger_id"), ("f", "friend_id"))
        .eq_param(("t", "taggee_id"), "uid")
        .project(("ia", "photo_id"))
        .build()?;
    let scan = SpcQuery::builder(catalog.clone(), "all_taggers")
        .atom("tagging", "t")
        .project(("t", "tagger_id"))
        .build()?;
    let friends_view = SpcQuery::builder(catalog, "friends_of_u0")
        .atom("friends", "f")
        .eq_const(("f", "user_id"), "u0")
        .project(("f", "friend_id"))
        .build()?;
    let view = server.register_view(&friends_view)?;
    let friends = server.view_result(view)?.len(); // the first read evaluates

    let mut session = server.session();
    for i in 0..2_000i64 {
        let mut bind = BTreeMap::new();
        bind.insert("aid".to_string(), Value::str(format!("a{}", i % 50)));
        bind.insert("uid".to_string(), Value::str(format!("u{}", i % 1_000)));
        session.query(&q1, &bind)?;
    }
    for _ in 0..3 {
        session.query(&scan, &BTreeMap::new())?;
    }
    // Ad-hoc text whose constants vary: the plan cache keys it by shape,
    // so 200 texts are one compile (sql.* and plan_cache.* show it).
    for i in 0..200 {
        session.query_sql(
            "friends_of",
            &format!("SELECT f.friend_id FROM friends f WHERE f.user_id = 'u{i}'"),
            &BTreeMap::new(),
        )?;
    }
    // Writes racing a held snapshot: the store must copy-on-write the
    // touched shard, which is what the cow_* counters then expose.
    let pinned = server.snapshot();
    for k in 0..16 {
        server.insert("friends", &[Value::str("u0"), Value::str(format!("w{k}"))])?;
    }
    // A stale read: one re-evaluation for the 16 inserts before it.
    assert_eq!(server.view_result(view)?.len(), friends + 16);
    for k in 0..4 {
        server.delete("friends", &[Value::str("u0"), Value::str(format!("w{k}"))])?;
    }
    drop(pinned);
    server.bulk_update(|db| {
        db.insert("friends", &[Value::str("u0"), Value::str("bulk")])
            .unwrap();
    });
    // The chunked bulk-load fast path: one columnar chunk straight into
    // the store, which the ingest_* counters then expose.
    let (_, ingest) = server.bulk_load("in_album", |loader| {
        let n = 256usize;
        loader.reserve_rows(n);
        let photos: Vec<Value> = (0..n).map(|p| Value::str(format!("bp{p}"))).collect();
        let albums: Vec<Value> = (0..n).map(|p| Value::str(format!("a{}", p % 50))).collect();
        loader.push_chunk_columns(&[photos, albums]);
    })?;
    assert_eq!(ingest.rows, 256);
    // Stale again (four deletes and the bulk update): one more. Then a
    // read with nothing new in `friends` returns the cached answer.
    assert_eq!(server.view_result(view)?.len(), friends + 12 + 1);
    server.view_result(view)?;

    // --- Request tracing: opt-in, per-server; phases show up only for
    // the traced requests. ---
    server.set_tracing(true);
    let mut bind = BTreeMap::new();
    bind.insert("aid".to_string(), Value::str("a1"));
    bind.insert("uid".to_string(), Value::str("u1"));
    session.query(&q1, &bind)?;
    server.set_tracing(false);

    // --- The dump. ---
    let snap = server.metrics_snapshot();
    println!("=== JSON ===\n{}\n", snap.to_json());
    println!("=== Prometheus ===\n{}", snap.to_prometheus());

    assert_eq!(snap.lane(LaneKind::Bounded).latency.count(), 2_201);
    assert_eq!(snap.lane(LaneKind::Budgeted).latency.count(), 3);
    assert!(snap.lane(LaneKind::Bounded).latency.quantile(0.999) > 0);
    assert_eq!(snap.admission.budget_completed, 3);
    assert_eq!(
        snap.cache.misses, 3,
        "Q1, the scan and the text's shape compiled once each"
    );
    assert!(snap.cache.hits >= 2_199);
    assert_eq!((snap.sql.requests, snap.sql.literals_lifted), (200, 200));
    println!(
        "text path: {} requests, {} literals lifted, {} plan-cache misses in all\n",
        snap.sql.requests, snap.sql.literals_lifted, snap.cache.misses,
    );
    assert_eq!(snap.writes.inserts, 16);
    assert_eq!(snap.writes.deletes, 4);
    assert_eq!(snap.writes.bulk_updates, 2, "bulk_update + bulk_load");
    assert_eq!(snap.ingest.rows, 256);
    assert_eq!(snap.ingest.chunks, 1);
    assert!(snap.ingest.bytes > 0, "cell payload bytes were accounted");
    assert_eq!(
        snap.writes.view_recomputes, 3,
        "the first read, then one per stale read, however many writes came in between"
    );
    assert!(
        snap.writes.cow_shard_clones > 0,
        "writes raced the pinned snapshot"
    );
    assert!(snap.writes.cow_cells_cloned > 0);
    println!(
        "write amplification: {} cells cloned across {} shard clones for {} writes\n",
        snap.writes.cow_cells_cloned,
        snap.writes.cow_shard_clones,
        snap.writes.inserts + snap.writes.deletes,
    );
    // What the store holds, readable without a bench harness: the indices
    // next to the tables they index.
    let g = snap.gauges;
    assert!(g.index_keys > 0 && g.index_bytes > 0 && g.table_bytes > 0);
    println!(
        "resident: {} index keys in {} B ({} B per key) beside {} B of table cells\n",
        g.index_keys,
        g.index_bytes,
        g.index_bytes / g.index_keys,
        g.table_bytes,
    );
    // Every maintained write passes through the exclusive commit section,
    // and its hold time is measured (latch waits show up only when two
    // writers actually collide on a relation, so that series may be empty
    // on a quiet run — but the conflict counter is always exported).
    assert_eq!(
        snap.writes.commit_hold.count(),
        snap.writes.inserts + snap.writes.deletes,
        "one commit-section hold per committed write"
    );
    println!(
        "commit hold p99: {} ns over {} commits ({} latch conflicts, wait p99 {} ns)",
        snap.writes.commit_hold.quantile(0.99),
        snap.writes.commit_hold.count(),
        snap.writes.conflicts,
        snap.writes.lock_wait.quantile(0.99),
    );

    // --- Group commit: a durable server acknowledges concurrent writers
    // with shared fsyncs; the batch-size series shows the collapse. ---
    let durable_catalog = Catalog::from_names(&[("left", &["k", "v"]), ("right", &["k", "v"])])?;
    let mut durable_access = AccessSchema::new(durable_catalog.clone());
    durable_access.add("left", &["k"], &["v"], 64)?;
    durable_access.add("right", &["k"], &["v"], 64)?;
    let (durable, _report, _views) = Server::open(
        Arc::new(MemLog::new()),
        durable_access,
        ServerConfig::default(),
        DurabilityConfig {
            policy: SyncPolicy::Always,
        },
        &[],
    )?;
    let durable = Arc::new(durable);
    std::thread::scope(|scope| {
        for (t, rel) in ["left", "right"].into_iter().enumerate() {
            let durable = Arc::clone(&durable);
            scope.spawn(move || {
                for i in 0..32i64 {
                    durable
                        .insert(rel, &[Value::int(t as i64 * 1000 + i), Value::int(i)])
                        .unwrap();
                }
            });
        }
    });
    let dsnap = durable.metrics_snapshot();
    assert_eq!(dsnap.writes.inserts, 64);
    assert!(dsnap.wal.group_batches >= 1, "deferred fsyncs were batched");
    assert_eq!(
        dsnap.wal.group_records, 64,
        "every acknowledged write was covered by a group flush"
    );
    assert_eq!(
        dsnap.wal.group_batch_sizes.count(),
        dsnap.wal.group_batches,
        "one batch-size observation per group flush"
    );
    assert!(
        dsnap.wal.fsyncs <= dsnap.wal.records,
        "group commit never fsyncs more than once per record"
    );
    println!(
        "group commit: {} commits over {} batches (max batch {}), {} fsyncs for {} records\n",
        dsnap.wal.group_records,
        dsnap.wal.group_batches,
        dsnap.wal.group_batch_sizes.max(),
        dsnap.wal.fsyncs,
        dsnap.wal.records,
    );

    // --- Disk footprint: a checkpoint cuts the log, so right after it the
    // store is the snapshot alone; the next write starts a new tail. ---
    assert!(dsnap.wal.retained_bytes > 0, "the writes are in the log");
    durable.checkpoint()?;
    let cut = durable.metrics_snapshot();
    assert_eq!(cut.wal.retained_bytes, 0, "the checkpoint cut the log");
    assert!(cut.wal.snapshot_bytes > 0);
    durable.insert("left", &[Value::int(-1), Value::int(-1)])?;
    let tail = durable.metrics_snapshot();
    assert!(
        tail.wal.retained_bytes > 0,
        "a write past the cut is retained"
    );
    println!(
        "disk: snapshot {} B + log tail {} B after one write past the checkpoint\n",
        tail.wal.snapshot_bytes, tail.wal.retained_bytes,
    );

    // --- Per-operator profiling: the 8-atom chain. ---
    let (chain, q) = chain_server()?;
    let prepared = chain.prepare(&q)?;
    let mut bind = BTreeMap::new();
    bind.insert("start".to_string(), Value::str("n0"));
    let (resp, profile) = chain.execute_profiled(&prepared.query, &bind)?;
    println!(
        "=== chain8 profile ({} answers, |DQ|={}) ===\n{}",
        resp.rows().map_or(0, |r| r.len()),
        resp.stats.meter.tuples_fetched,
        profile.render()
    );
    let sum = profile.step_sum_ns();
    assert!(sum <= profile.total_ns, "steps nest inside the execution");
    assert!(
        sum * 10 >= profile.total_ns * 9,
        "operator steps must cover ≥ 90% of the measured execute time \
         (steps {sum} ns vs total {} ns)",
        profile.total_ns
    );
    println!(
        "step sum {} ns / total {} ns = {:.1}% attributed",
        sum,
        profile.total_ns,
        100.0 * sum as f64 / profile.total_ns as f64
    );
    assert_eq!(
        chain.explain_last().map(|p| p.steps.len()),
        Some(profile.steps.len())
    );

    Ok(())
}
