//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * `heuristic_vs_exact_dp` — `findDPh` vs the exponential exact
//!   dominating-parameter search (Theorem 7's hardness in practice).
//! * `greedy_vs_exact_bound` — `QPlan`'s greedy `Σ M_i` vs the exact
//!   minimum (Theorem 8 / Section 5.2).
//! * `baseline_modes` — FullScan vs ConstIndex vs IndexJoin on one query,
//!   quantifying how much of the gap comes from index use vs boundedness.
//! * `complexity_scaling` — `BCheck`/`EBCheck` runtime on synthetically
//!   grown `|Q|` and `|A|` (the quadratic-time claim of Theorems 5/6).
//! * `views` — a registered view's read, fresh and stale, and a served
//!   insert with 0, 1 and 8 views registered over the written relation.

mod common;

use bcq_core::bcheck::bcheck;
use bcq_core::dominating::{find_dp, find_dp_exact, DominatingConfig};
use bcq_core::ebcheck::ebcheck;
use bcq_core::mbounded::{min_dq_bound_exact, min_dq_bound_greedy};
use bcq_core::prelude::*;
use bcq_exec::{baseline, BaselineMode, BaselineOptions};
use bcq_service::{Server, ServerConfig};
use bcq_workload::{mot, tfacc};
use common::summarize;
use criterion::{criterion_group, criterion_main, smoke_mode, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dp_ablation(c: &mut Criterion) {
    let ds = tfacc::dataset();
    // Use the non-effectively-bounded queries: the DP search is their
    // remedy.
    let targets: Vec<_> = ds
        .queries
        .iter()
        .filter(|w| !w.expect_effectively_bounded)
        .collect();
    let mut group = c.benchmark_group("ablation/dominating_params");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("findDPh", |b| {
        b.iter(|| {
            for wq in &targets {
                std::hint::black_box(
                    find_dp(&wq.query, &ds.access, DominatingConfig::default()).is_some(),
                );
            }
        })
    });
    group.bench_function("exact", |b| {
        b.iter(|| {
            for wq in &targets {
                std::hint::black_box(
                    find_dp_exact(&wq.query, &ds.access, DominatingConfig::default(), 14).is_some(),
                );
            }
        })
    });
    group.finish();
}

fn bound_ablation(c: &mut Criterion) {
    let ds = mot::dataset();
    let targets: Vec<_> = ds
        .queries
        .iter()
        .filter(|w| w.expect_effectively_bounded && w.query.num_prod() <= 1)
        .collect();
    let mut group = c.benchmark_group("ablation/min_dq_bound");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("greedy", |b| {
        b.iter(|| {
            for wq in &targets {
                std::hint::black_box(min_dq_bound_greedy(&wq.query, &ds.access));
            }
        })
    });
    group.bench_function("exact", |b| {
        b.iter(|| {
            for wq in &targets {
                std::hint::black_box(min_dq_bound_exact(&wq.query, &ds.access, 18));
            }
        })
    });
    group.finish();
}

fn baseline_modes(c: &mut Criterion) {
    let ds = tfacc::dataset();
    let db = ds.build(0.125);
    let wq = ds
        .queries
        .iter()
        .find(|w| w.query.name() == "tfacc_day_vehicles")
        .expect("workload query exists");
    let mut group = c.benchmark_group("ablation/baseline_modes");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    for mode in [
        BaselineMode::FullScan,
        BaselineMode::ConstIndex,
        BaselineMode::IndexJoin,
    ] {
        group.bench_function(format!("{mode:?}"), |b| {
            b.iter(|| {
                let out = baseline(
                    &db,
                    &wq.query,
                    &ds.access,
                    BaselineOptions {
                        mode,
                        work_budget: None,
                    },
                )
                .unwrap();
                std::hint::black_box(out.meter().work());
            })
        });
    }
    group.finish();
}

/// Builds a chain query with `n` atoms over a catalog of `n` relations and
/// an access schema with `m` constraints per relation — inputs for the
/// complexity scaling check.
fn chain(n: usize, m: usize) -> (SpcQuery, AccessSchema) {
    let defs: Vec<(String, [String; 2])> = (0..n)
        .map(|i| (format!("r{i}"), [format!("a{i}"), format!("b{i}")]))
        .collect();
    let defs_ref: Vec<(&str, Vec<&str>)> = defs
        .iter()
        .map(|(name, cols)| (name.as_str(), cols.iter().map(String::as_str).collect()))
        .collect();
    let rels: Vec<RelationSchema> = defs_ref
        .iter()
        .map(|(name, cols)| RelationSchema::new(*name, cols.iter().copied()).unwrap())
        .collect();
    let cat = Arc::new(Catalog::new(rels).unwrap());
    let mut a = AccessSchema::new(cat.clone());
    for i in 0..n {
        let rel = format!("r{i}");
        let x = format!("a{i}");
        let y = format!("b{i}");
        for k in 0..m {
            a.add(&rel, &[x.as_str()], &[y.as_str()], 2 + k as u64)
                .unwrap();
        }
    }
    let mut b = SpcQuery::builder(cat, format!("chain{n}"));
    for i in 0..n {
        b = b.atom(&format!("r{i}"), &format!("t{i}"));
    }
    b = b.eq_const(("t0", "a0"), 1);
    for i in 1..n {
        let prev = format!("t{}", i - 1);
        let prev_b = format!("b{}", i - 1);
        let cur = format!("t{i}");
        let cur_a = format!("a{i}");
        b = b.eq(
            (cur.as_str(), cur_a.as_str()),
            (prev.as_str(), prev_b.as_str()),
        );
    }
    let q = b
        .project((
            format!("t{}", n - 1).as_str(),
            format!("b{}", n - 1).as_str(),
        ))
        .build()
        .unwrap();
    (q, a)
}

fn complexity_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/complexity");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for (n, m) in [(4, 2), (8, 4), (16, 8), (32, 16)] {
        let (q, a) = chain(n, m);
        group.bench_function(format!("BCheck/q{n}_a{}", n * m), |b| {
            b.iter(|| std::hint::black_box(bcheck(&q, &a).bounded))
        });
        group.bench_function(format!("EBCheck/q{n}_a{}", n * m), |b| {
            b.iter(|| std::hint::black_box(ebcheck(&q, &a).effectively_bounded))
        });
    }
    group.finish();
}

/// What a registered view costs, now that it is a prepared bounded plan
/// and a cached answer. `view_result/fresh` is a read that finds its
/// stamps current; `view_result/stale` is the first read after a row write
/// to a relation the view reads (the write itself untimed), i.e. one run
/// of the plan. The `insert` lanes time a served `Server::insert` into a
/// relation that 0, 1 and 8 registered views read — a write looks at no
/// view, so `insert_8_views_over_0` should sit at 1.0.
fn views(_c: &mut Criterion) {
    let (samples, iters) = if smoke_mode() { (1, 1) } else { (31, 500) };
    let tpch = bcq_workload::tpch::dataset();
    let tfacc = tfacc::dataset();
    let tpch_db = tpch.build(if smoke_mode() { 0.25 } else { 4.0 });
    let tfacc_db = tfacc.build(0.125);
    let query = |ds: &bcq_workload::Dataset, name: &str| {
        let wq = ds.queries.iter().find(|w| w.query.name() == name);
        wq.expect("workload query exists").query.clone()
    };
    // A stored row of the first relation `q` reads, to delete and re-insert.
    let toggle_row = |server: &Server, q: &SpcQuery| {
        let rel = q.read_rels()[0];
        let snap = server.snapshot();
        let row = snap.value_rows(rel).next().expect("relation is loaded");
        (snap.catalog().relation(rel).name().to_string(), row)
    };

    for (ds, db, name) in [
        (&tpch, &tpch_db, "tpch_cust_parts"),
        (&tpch, &tpch_db, "tpch_five_way"),
        (&tfacc, &tfacc_db, "tfacc_five_way"),
    ] {
        let q = query(ds, name);
        let server = Server::new(db.clone(), ds.access.clone(), ServerConfig::default());
        let view = server.register_view(&q).unwrap();
        server.view_result(view).unwrap(); // the first read computes the answer
        let (rel, row) = toggle_row(&server, &q);
        for stale in [false, true] {
            let per_sample = (0..samples)
                .map(|_| {
                    let mut timed = Duration::ZERO;
                    for _ in 0..iters {
                        if stale {
                            assert!(server.delete(&rel, &row).unwrap());
                            server.insert(&rel, &row).unwrap();
                        }
                        let start = Instant::now();
                        std::hint::black_box(server.view_result(view).unwrap().len());
                        timed += start.elapsed();
                    }
                    timed.as_nanos() as f64 / iters as f64
                })
                .collect();
            let lane = if stale { "stale" } else { "fresh" };
            summarize(per_sample, iters)
                .record(format!("ablation/views/view_result/{lane}/{name}"));
        }
        let recomputes = server.metrics_snapshot().writes.view_recomputes;
        assert_eq!(
            recomputes,
            1 + (samples * iters) as u64,
            "every stale read ran the plan once"
        );
    }

    let q = query(&tpch, "tpch_cust_parts");
    let counts = [0usize, 1, 8];
    let servers: Vec<Server> = counts
        .iter()
        .map(|&n| {
            let server = Server::new(
                tpch_db.clone(),
                tpch.access.clone(),
                ServerConfig::default(),
            );
            for _ in 0..n {
                let view = server.register_view(&q).unwrap();
                server.view_result(view).unwrap();
            }
            server
        })
        .collect();
    let (rel, row) = toggle_row(&servers[0], &q);
    // Sample windows interleave across the three servers so ambient drift
    // hits every lane equally.
    let mut per_sample = vec![Vec::new(); counts.len()];
    for _ in 0..samples {
        for (server, out) in servers.iter().zip(&mut per_sample) {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                assert!(server.delete(&rel, &row).unwrap());
                let start = Instant::now();
                server.insert(&rel, &row).unwrap();
                timed += start.elapsed();
            }
            out.push(timed.as_nanos() as f64 / iters as f64);
        }
    }
    let medians: Vec<f64> = counts
        .iter()
        .zip(per_sample)
        .map(|(n, ns)| {
            let m = summarize(ns, iters);
            m.record(format!("ablation/views/insert/{n}_views"));
            m.ns
        })
        .collect();
    criterion::record_derived("insert_8_views_over_0", medians[2] / medians[0]);
    for (server, n) in servers.iter().zip(counts) {
        let recomputes = server.metrics_snapshot().writes.view_recomputes;
        assert_eq!(recomputes, n as u64, "no write evaluated a view");
    }
}

criterion_group!(
    benches,
    dp_ablation,
    bound_ablation,
    baseline_modes,
    complexity_scaling,
    views
);
criterion_main!(benches);
