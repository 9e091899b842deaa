//! Prepared-query serving: the social-search workload behind a [`Server`].
//!
//! The Web-form story of Example 1(2), productionized: the parameterized
//! template `Q1(?aid, ?uid)` is prepared **once** — parse, `Σ_Q`,
//! `ebcheck`, `qplan` — and the compiled plan (with its parameter slots)
//! then serves a burst of form submissions from several threads
//! concurrently, each execution touching at most the plan's `Σ M_i`
//! tuples. Along the way: the plan cache takes the hits, an unbounded
//! report query is admitted onto the budgeted baseline, and a live insert
//! advances the epoch without disturbing the cached plan.
//!
//! Run with: `cargo run --release --example prepared_serving`

use bounded_cq::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn main() -> core::result::Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::from_names(&[
        ("in_album", &["photo_id", "album_id"]),
        ("friends", &["user_id", "friend_id"]),
        ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
    ])?;
    let mut access = AccessSchema::new(catalog.clone());
    access.add("in_album", &["album_id"], &["photo_id"], 1000)?;
    access.add("friends", &["user_id"], &["friend_id"], 5000)?;
    access.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 8)?;

    // A social database: 2k users, 8 friends each, photos + taggings.
    let users = 2_000i64;
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
                Value::str(format!("a{}", p % 100)),
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

    let server = Arc::new(Server::new(db, access, ServerConfig::default()));
    println!(
        "server up: {} tuples, epoch {}\n",
        server.snapshot().total_tuples(),
        server.epoch()
    );

    // The social-search template: album and user arrive per request.
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

    // Prepare once: the expensive step.
    let prepared = server.prepare(&q1)?;
    println!(
        "prepared `{}`: lane={}, slots={:?}, |DQ| <= {}",
        q1.name(),
        prepared.query.lane(),
        prepared.query.param_slots(),
        prepared.query.cost_bound().unwrap()
    );

    // A burst of form submissions from 4 threads, all riding the one plan.
    let threads = 4;
    let requests_per_thread = 5_000;
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let server = Arc::clone(&server);
            let q1 = q1.clone();
            std::thread::spawn(move || {
                let mut session = server.session();
                let (mut answers, mut tuples) = (0usize, 0u64);
                for i in 0..requests_per_thread {
                    let r = (t * 7919 + i * 13) as i64;
                    let mut bind = BTreeMap::new();
                    bind.insert("aid".to_string(), Value::str(format!("a{}", r % 100)));
                    bind.insert("uid".to_string(), Value::str(format!("u{}", r % 2_000)));
                    let resp = session.query(&q1, &bind).expect("bounded lane");
                    answers += resp.rows().map_or(0, |rows| rows.len());
                    tuples += resp.stats.meter.tuples_fetched;
                }
                (answers, tuples)
            })
        })
        .collect();
    let mut answers = 0usize;
    let mut tuples = 0u64;
    for h in handles {
        let (a, t) = h.join().unwrap();
        answers += a;
        tuples += t;
    }
    let elapsed = start.elapsed();
    let total = threads * requests_per_thread;
    println!(
        "\nburst: {total} requests on {threads} threads in {elapsed:?} \
         ({:.0} req/s), {answers} answers, {tuples} tuples fetched",
        total as f64 / elapsed.as_secs_f64()
    );

    // One compile, everything else cache hits.
    let cs = server.cache_stats();
    println!(
        "plan cache: {} hit(s), {} miss(es), {} eviction(s)",
        cs.hits, cs.misses, cs.evictions
    );

    // A live insert: the epoch advances, the cached plan keeps serving.
    let epoch_before = server.epoch();
    server.insert(
        "tagging",
        &[Value::str("p1"), Value::str("u32"), Value::str("u1")],
    )?;
    let mut session = server.session();
    let mut bind = BTreeMap::new();
    bind.insert("aid".to_string(), Value::str("a1"));
    bind.insert("uid".to_string(), Value::str("u1"));
    let resp = session.query(&q1, &bind)?;
    println!(
        "\nafter live insert: epoch {} -> {}, cache_hit={}, {} answer(s), |DQ|={}",
        epoch_before,
        resp.stats.epoch,
        resp.stats.cache_hit,
        resp.rows().unwrap().len(),
        resp.stats.meter.tuples_fetched
    );

    // An unbounded report query rides the budgeted baseline instead.
    let report = SpcQuery::builder(catalog, "all_taggers")
        .atom("tagging", "t")
        .project(("t", "tagger_id"))
        .build()?;
    let resp = session.query(&report, &BTreeMap::new())?;
    println!(
        "report query: lane={}, budget={:?}, {} answer(s), work={}",
        resp.stats.lane,
        resp.stats.budget,
        resp.rows().map_or(0, |r| r.len()),
        resp.stats.meter.work()
    );

    Ok(())
}
