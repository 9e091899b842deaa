//! Ad-hoc breakdown of the serving/prepared hot path (not a recorded
//! bench): run with `cargo run --release -p bcq-bench --example
//! profile_serving`.
//!
//! Doubles as the allocation gate: the counting global allocator proves
//! the steady-state prepared path performs **zero** heap allocations per
//! request — with the metrics registry enabled (its record path is two
//! relaxed `fetch_add`s, no clocks, no boxes), and again on a server
//! opened with durability (the WAL writer rides the write path only;
//! prepared reads must not touch it). CI runs this in release mode; the
//! asserts at the bottom fail the build on any regression.

use bcq_core::access::AccessSchema;
use bcq_core::prelude::*;
use bcq_exec::{eval_dq_with, ParamEnv};
use bcq_service::{DurabilityConfig, LogStorage, MemLog, Server, ServerConfig, SyncPolicy};
use bcq_storage::Database;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates to the system allocator.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(p, l) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn count_allocs(label: &str, iters: u32, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..64 {
        f(i);
    }
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    for i in 0..iters {
        f(i as usize);
    }
    let a = ALLOCS.load(Ordering::Relaxed) - a0;
    let b = BYTES.load(Ordering::Relaxed) - b0;
    let per_op = a as f64 / iters as f64;
    println!(
        "{label:40} {per_op:8.1} allocs/op {:8.0} bytes/op",
        b as f64 / iters as f64
    );
    per_op
}

fn social_catalog() -> Arc<Catalog> {
    Catalog::from_names(&[
        ("in_album", &["photo_id", "album_id"][..]),
        ("friends", &["user_id", "friend_id"]),
        ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
    ])
    .unwrap()
}

fn social_access(cat: &Arc<Catalog>) -> AccessSchema {
    let mut a = AccessSchema::new(Arc::clone(cat));
    a.add("in_album", &["album_id"], &["photo_id"], 16).unwrap();
    a.add("friends", &["user_id"], &["friend_id"], 8).unwrap();
    a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 8)
        .unwrap();
    a
}

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

fn time(label: &str, iters: u32, mut f: impl FnMut(usize)) -> f64 {
    // warmup
    for i in 0..iters / 4 {
        f(i as usize);
    }
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t = Instant::now();
        for i in 0..iters {
            f(i as usize);
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    println!("{label:40} {best:10.1} ns/op");
    best
}

fn main() {
    let users = 4000i64;
    let cat = social_catalog();
    let access = social_access(&cat);
    let db = social_db(&cat, &access, users);
    let server = Arc::new(Server::new(db, access.clone(), ServerConfig::default()));
    let tpl = template(&cat);
    let binds: Vec<BTreeMap<String, Value>> = (0..32)
        .map(|i| {
            let i = i as i64;
            let mut b = BTreeMap::new();
            b.insert("aid".to_string(), Value::str(format!("a{}", i * 7 + 1)));
            b.insert(
                "uid".to_string(),
                Value::str(format!("u{}", (i * 13 + 5) % users)),
            );
            b
        })
        .collect();

    let handle = server.prepare(&tpl).unwrap();
    let mut sink = 0usize;

    time("server.execute (full request)", 20000, |i| {
        let resp = server.execute(&handle.query, &binds[i % 32]).unwrap();
        sink += resp.rows().map_or(0, |r| r.len());
    });

    time("snapshot() only", 20000, |_| {
        sink += Arc::as_ptr(&server.snapshot()) as usize & 1;
    });

    let snap = server.snapshot();
    time("ParamEnv::encode only", 20000, |i| {
        let env = ParamEnv::encode(snap.symbols(), &binds[i % 32]);
        sink += env.get("aid").is_some() as usize;
    });

    let plan = handle.query.plan().unwrap();
    time("eval_dq_with (snapshot held, +encode)", 20000, |i| {
        let env = ParamEnv::encode(snap.symbols(), &binds[i % 32]);
        sink += eval_dq_with(&snap, plan, &access, &env)
            .unwrap()
            .result
            .len();
    });

    let envs: Vec<ParamEnv> = (0..32)
        .map(|i| ParamEnv::encode(snap.symbols(), &binds[i]))
        .collect();
    time("eval_dq_with (pre-encoded env)", 20000, |i| {
        sink += eval_dq_with(&snap, plan, &access, &envs[i % 32])
            .unwrap()
            .result
            .len();
    });

    assert!(
        server.metrics().is_enabled(),
        "the alloc gate must measure the metrics-on path"
    );
    let execute_allocs = count_allocs("allocs: server.execute (metrics on)", 4096, |i| {
        let resp = server.execute(&handle.query, &binds[i % 32]).unwrap();
        sink += resp.rows().map_or(0, |r| r.len());
    });
    let eval_allocs = count_allocs("allocs: eval_dq_with (pre-encoded)", 4096, |i| {
        sink += eval_dq_with(&snap, plan, &access, &envs[i % 32])
            .unwrap()
            .result
            .len();
    });
    assert_eq!(
        execute_allocs, 0.0,
        "prepared serving must stay allocation-free with always-on metrics"
    );
    assert_eq!(eval_allocs, 0.0, "scratch-reusing executor regressed");

    // The same gate against a durable server: the WAL writer hangs off
    // the write path only, so attaching one must not cost prepared reads
    // a single allocation. (Smaller dataset — the gate is shape-, not
    // size-, sensitive; every loaded row below is WAL-logged.)
    let dusers = 1000i64;
    let log: Arc<dyn LogStorage> = Arc::new(MemLog::new());
    let (durable, _report, _views) = Server::open(
        log,
        social_access(&cat),
        ServerConfig::default(),
        DurabilityConfig {
            policy: SyncPolicy::EveryOps(64),
        },
        &[],
    )
    .unwrap();
    durable.bulk_update(|db| {
        for u in 0..dusers {
            for k in 0..8 {
                let f = (u * 31 + k * 7 + 1) % dusers;
                db.insert(
                    "friends",
                    &[Value::str(format!("u{u}")), Value::str(format!("f{f}"))],
                )
                .unwrap();
            }
        }
        for p in 0..dusers / 2 {
            db.insert(
                "in_album",
                &[
                    Value::str(format!("p{p}")),
                    Value::str(format!("a{}", p % (dusers / 20))),
                ],
            )
            .unwrap();
            db.insert(
                "tagging",
                &[
                    Value::str(format!("p{p}")),
                    Value::str(format!("f{}", (p * 31 + 1) % dusers)),
                    Value::str(format!("u{}", p % dusers)),
                ],
            )
            .unwrap();
        }
    });
    assert!(durable.wal_stats().unwrap().records > 0, "bulk load logged");
    let dhandle = durable.prepare(&tpl).unwrap();
    let dbinds: Vec<BTreeMap<String, Value>> = (0..32)
        .map(|i| {
            let i = i as i64;
            let mut b = BTreeMap::new();
            b.insert("aid".to_string(), Value::str(format!("a{}", i * 7 + 1)));
            b.insert(
                "uid".to_string(),
                Value::str(format!("u{}", (i * 13 + 5) % dusers)),
            );
            b
        })
        .collect();
    let durable_allocs = count_allocs("allocs: server.execute (WAL attached)", 4096, |i| {
        let resp = durable.execute(&dhandle.query, &dbinds[i % 32]).unwrap();
        sink += resp.rows().map_or(0, |r| r.len());
    });
    assert_eq!(
        durable_allocs, 0.0,
        "prepared serving must stay allocation-free with the WAL attached"
    );

    std::hint::black_box(sink);
}
