//! Per-step cost of the benchmark's join templates (not a recorded bench):
//!
//! ```text
//! cargo run --release -p bcq-bench --example profile_joins -- [SF] [REQUESTS]
//! ```
//!
//! (defaults: SF 2, 2,000 requests per template). Loads TPCH through
//! `Server::bulk_update` at the given scale factor and prepares the three
//! join templates of the `embedded-join` workload — `j2_cust_orders`,
//! `j3_cust_parts`, `j4_cust_suppliers`. For each it prints the mean
//! latency of a templated `Session::query`, its heap allocations per
//! request, and the mean time and row movement of every operator step of
//! `eval_dq_profiled` (each plan step's fetch, pins, filters, joins,
//! projection), averaged over the same requests. The `?k` bindings are
//! 65,536 customer keys drawn uniformly from the fixed seed, as the
//! benchmark's readers draw theirs, so probes reach cold index entries
//! rather than a working set that stays in cache.
//!
//! Doubles as an allocation gate, run in CI at SF 2: a counting global
//! allocator asserts that j3 and j4 allocate at most 20 times per request,
//! and j2 no more than the 15 it did while plan steps gathered every
//! column of their constraint.

use bcq_core::prelude::*;
use bcq_exec::{eval_dq_profiled, ParamEnv};
use bcq_service::{Server, ServerConfig};
use bcq_storage::Database;
use bcq_workload::{gen::row_rng, source::load, tpch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates to the system allocator.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(p, l) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// The `embedded-join` templates, as the benchmark writes them.
const TEMPLATES: [(&str, &str); 3] = [
    (
        "j2_cust_orders",
        "SELECT c.c_nationkey, o.o_orderkey FROM customer c, orders o \
         WHERE c.c_custkey = ?k AND o.o_custkey = c.c_custkey",
    ),
    (
        "j3_cust_parts",
        "SELECT p.p_brand FROM orders o, lineitem l, part p \
         WHERE o.o_custkey = ?k AND l.l_orderkey = o.o_orderkey AND p.p_partkey = l.l_partkey",
    ),
    (
        "j4_cust_suppliers",
        "SELECT s.s_nationkey FROM customer c, orders o, lineitem l, supplier s \
         WHERE c.c_custkey = ?k AND o.o_custkey = c.c_custkey \
         AND l.l_orderkey = o.o_orderkey AND s.s_suppkey = l.l_suppkey",
    ),
];

/// Allocation ceilings per request, in template order.
const MAX_ALLOCS: [f64; 3] = [15.0, 20.0, 20.0];

const SEED: u64 = 7;

/// Bindings the requests cycle through.
const BINDINGS: usize = 1 << 16;

/// Mean cost of one operator step, keyed by its label up to the first
/// space (`fetch:step1:atom1`, `join:atom2`, …): the rest of a label
/// carries per-request counts.
struct StepTotal {
    label: String,
    ns: u64,
    rows_in: u64,
    rows_out: u64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args
        .next()
        .map_or(2.0, |s| s.parse().expect("SF is a number"));
    let requests: u64 = args
        .next()
        .map_or(2_000, |s| s.parse().expect("REQUESTS is a count"));

    let server = Arc::new(Server::new(
        Database::new(tpch::catalog()),
        tpch::access_schema(),
        ServerConfig::default(),
    ));
    let sources = tpch::sources(sf, SEED);
    let customers = sources[5].total_rows();
    let start = Instant::now();
    let rows: u64 =
        server.bulk_update(|db| sources.iter().map(|src| load(db, src.as_ref()).rows).sum());
    println!(
        "TPCH SF {sf}: {rows} rows loaded in {:.2} s; {requests} requests per template; {} cores",
        start.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Keys drawn uniformly over every customer; the bindings are built up
    // front so the counted loop allocates only what a request does.
    let mut rng = row_rng(SEED, 0, 0);
    let binds: Vec<BTreeMap<String, Value>> = (0..BINDINGS)
        .map(|_| BTreeMap::from([("k".to_string(), Value::Int(rng.cat(customers)))]))
        .collect();
    let bind = |i: u64| &binds[i as usize % BINDINGS];

    let mut session = server.session();
    let mut allocs = Vec::new();
    for (name, sql) in TEMPLATES {
        let q =
            parse_spc(Arc::clone(server.access().catalog()), name, sql).expect("template parses");
        let prepared = server.prepare(&q).expect("template prepares");
        let plan = prepared.query.plan().expect("template has a bounded plan");

        let mut answers = 0usize;
        for i in 0..64 {
            answers += session
                .query(&q, bind(i))
                .expect("request")
                .rows()
                .map_or(0, |r| r.len());
        }
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for i in 0..requests {
            let resp = session.query(&q, bind(i)).expect("request");
            answers += resp.rows().map_or(0, |r| r.len());
        }
        let query_us = t0.elapsed().as_secs_f64() * 1e6 / requests as f64;
        let per_request = (ALLOCS.load(Ordering::Relaxed) - a0) as f64 / requests as f64;
        allocs.push(per_request);

        let snap = server.snapshot();
        let mut env = ParamEnv::new();
        let mut steps: Vec<StepTotal> = Vec::new();
        let mut eval_ns = 0u64;
        for i in 0..requests {
            env.rebind(snap.symbols(), bind(i));
            let (_, profile) =
                eval_dq_profiled(&snap, plan, server.access(), &env).expect("request");
            eval_ns += profile.total_ns;
            for s in profile.steps {
                let key = s.label.split(' ').next().unwrap_or_default();
                let at = match steps.iter().position(|t| t.label == key) {
                    Some(at) => at,
                    None => {
                        steps.push(StepTotal {
                            label: key.to_string(),
                            ns: 0,
                            rows_in: 0,
                            rows_out: 0,
                        });
                        steps.len() - 1
                    }
                };
                let t = &mut steps[at];
                t.ns += s.ns;
                t.rows_in += s.rows_in;
                t.rows_out += s.rows_out;
            }
        }
        let mean = |x: u64| x as f64 / requests as f64;
        println!(
            "\n{name}: Session::query {query_us:.2} µs, {per_request:.1} allocs/request; \
             eval_dq_profiled {:.2} µs; {:.1} answers/request",
            mean(eval_ns) / 1e3,
            answers as f64 / (requests + 64) as f64,
        );
        println!(
            "  {:<24} {:>8} {:>10} {:>10}",
            "step", "µs", "rows in", "rows out"
        );
        for t in &steps {
            println!(
                "  {:<24} {:>8.2} {:>10.1} {:>10.1}",
                t.label,
                mean(t.ns) / 1e3,
                mean(t.rows_in),
                mean(t.rows_out)
            );
        }
    }

    for ((name, _), (&got, &ceiling)) in TEMPLATES.iter().zip(allocs.iter().zip(&MAX_ALLOCS)) {
        assert!(
            got <= ceiling,
            "{name}: {got:.1} allocations per request (ceiling {ceiling}) — a plan step \
             gathers columns nothing reads, or projection decodes duplicate answers"
        );
    }
}
