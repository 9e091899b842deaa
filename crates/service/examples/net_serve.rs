//! End-to-end demo of the TCP front end: boot a social-graph server,
//! bind the framed protocol on an ephemeral port, drive it with several
//! concurrent clients mixing reads and writes, and print what the
//! always-on metrics saw.
//!
//! Run with: `cargo run --release -p bcq-service --example net_serve`

use bcq_core::prelude::*;
use bcq_service::{NetClient, NetServer, Server, ServerConfig};
use bcq_storage::Database;
use std::sync::Arc;

fn main() -> core::result::Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::from_names(&[("friends", &["user_id", "friend_id"])])?;
    let mut access = AccessSchema::new(catalog.clone());
    access.add("friends", &["user_id"], &["friend_id"], 5000)?;

    let users = 200i64;
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
    let server = Arc::new(Server::new(db, access, ServerConfig::default()));

    let template = SpcQuery::builder(catalog, "friends_of")
        .atom("friends", "f")
        .eq_param(("f", "user_id"), "uid")
        .project(("f", "friend_id"))
        .build()?;

    let net = NetServer::bind(Arc::clone(&server), &[template], "127.0.0.1:0")?;
    println!("serving on {} (frames: [u32 LE len][payload])", net.addr());

    const CLIENTS: usize = 4;
    const OPS: usize = 500;
    let addr = net.addr();
    std::thread::scope(
        |scope| -> core::result::Result<(), Box<dyn std::error::Error>> {
            let mut handles = Vec::new();
            for c in 0..CLIENTS {
                handles.push(scope.spawn(move || -> core::result::Result<usize, String> {
                    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
                    client.ping().map_err(|e| e.to_string())?;
                    let mut rows = 0usize;
                    for i in 0..OPS {
                        if i % 50 == 7 {
                            client
                                .insert(
                                    "friends",
                                    &[
                                        Value::str(format!("u{}", c as i64)),
                                        Value::str(format!("extra{c}_{i}")),
                                    ],
                                )
                                .map_err(|e| e.to_string())?;
                        } else {
                            let uid = Value::str(format!("u{}", (c * 31 + i) as i64 % 200));
                            rows += client
                                .exec("friends_of", &[("uid", uid)])
                                .map_err(|e| e.to_string())?
                                .len();
                        }
                    }
                    Ok(rows)
                }));
            }
            let mut total_rows = 0usize;
            for h in handles {
                total_rows += h.join().expect("client thread panicked")?;
            }
            println!("{CLIENTS} clients x {OPS} requests: {total_rows} answer rows");
            Ok(())
        },
    )?;

    let frames = net.frames_served();
    net.shutdown();

    let snap = server.metrics_snapshot();
    println!(
        "frames served: {frames}; cache: {} miss / {} hits; writes: {}; \
         latch conflicts: {}; bounded p50 {} ns p99 {} ns",
        snap.cache.misses,
        snap.cache.hits,
        snap.writes.inserts,
        snap.writes.conflicts,
        snap.lane(bcq_service::Lane::Bounded).latency.quantile(0.50),
        snap.lane(bcq_service::Lane::Bounded).latency.quantile(0.99),
    );
    assert_eq!(frames as usize, CLIENTS * (OPS + 1));
    assert_eq!(snap.cache.misses, 1, "one compile serves every connection");
    Ok(())
}
