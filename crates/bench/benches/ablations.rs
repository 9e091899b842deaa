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

use bcq_core::bcheck::bcheck;
use bcq_core::dominating::{find_dp, find_dp_exact, DominatingConfig};
use bcq_core::ebcheck::ebcheck;
use bcq_core::mbounded::{min_dq_bound_exact, min_dq_bound_greedy};
use bcq_core::prelude::*;
use bcq_exec::{baseline, BaselineMode, BaselineOptions};
use bcq_workload::{mot, tfacc};
use criterion::{criterion_group, criterion_main, smoke_mode, Criterion};
use std::sync::Arc;
use std::time::Duration;

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

fn incremental_vs_full(c: &mut Criterion) {
    use bcq_exec::{eval_dq, IncrementalAnswer};
    let ds = bcq_workload::tpch::dataset();
    let wq = ds
        .queries
        .iter()
        .find(|w| w.query.name() == "tpch_cust_parts")
        .expect("workload query exists");
    let mut db = ds.build(4.0);

    // Pre-insert the delta tuple so both paths see the same database.
    let orderkey = {
        let rel = ds.catalog.rel_id("orders").unwrap();
        db.value_rows(rel)
            .find(|r| r[1] == Value::int(42) && r[2] == Value::int(1))
            .map(|r| r[0].clone())
            .expect("customer 42 has an open order")
    };
    let row: Vec<Value> = vec![
        orderkey,
        Value::int(13),
        Value::int(2),
        Value::int(6),
        Value::int(1),
        Value::int(10),
        Value::int(0),
        Value::int(0),
        Value::int(0),
        Value::int(0),
        Value::int(100),
        Value::int(114),
        Value::int(121),
        Value::int(0),
        Value::int(3),
        Value::int(0),
    ];
    db.insert("lineitem", &row).unwrap();
    db.build_indexes(&ds.access);
    let rel = ds.catalog.rel_id("lineitem").unwrap();
    let base_answer = IncrementalAnswer::initialize(&db, &wq.query, &ds.access).unwrap();
    let full_plan = bcq_core::qplan::qplan(&wq.query, &ds.access).unwrap();

    let mut group = c.benchmark_group("ablation/incremental");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("delta_apply", |b| {
        b.iter(|| {
            let mut inc = base_answer.clone();
            let stats = inc.on_insert(&db, rel, &row).unwrap();
            std::hint::black_box(stats.tuples_fetched);
        })
    });
    group.bench_function("full_reeval", |b| {
        b.iter(|| {
            let out = eval_dq(&db, &full_plan, &ds.access).unwrap();
            std::hint::black_box(out.dq_tuples());
        })
    });
    // Delete path: remove the tuple once through the maintained path; each
    // iteration replays the support-counted retraction delta on a clone of
    // the pre-delete answer. Two candidate-generation ablations:
    // `delta_delete_indexed` probes the derivation store's inverted index
    // (O(consistent candidates)); `delta_delete_scan` is the pre-index
    // full scan (O(|store|) per deleted atom) — identical retractions,
    // counted and asserted below.
    let mut deleted_db = db.clone();
    assert!(deleted_db.delete("lineitem", &row).unwrap().is_some());
    group.bench_function("delta_delete_indexed", |b| {
        b.iter(|| {
            let mut inc = base_answer.clone();
            let stats = inc.on_delete(&deleted_db, rel, &row).unwrap();
            std::hint::black_box(stats.derivations_removed);
        })
    });
    group.bench_function("delta_delete_scan", |b| {
        b.iter(|| {
            let mut inc = base_answer.clone();
            let stats = inc.on_delete_by_scan(&deleted_db, rel, &row).unwrap();
            std::hint::black_box(stats.derivations_removed);
        })
    });
    // Semantic check: both candidate-generation paths retract the same
    // derivations (the probe-count axis is measured on a large store in
    // `retraction_index_scaling`, where it matters).
    let mut by_index = base_answer.clone();
    let s1 = by_index.on_delete(&deleted_db, rel, &row).unwrap();
    let mut by_scan = base_answer.clone();
    let s2 = by_scan.on_delete_by_scan(&deleted_db, rel, &row).unwrap();
    assert_eq!(s1.derivations_removed, s2.derivations_removed);
    assert_eq!(by_index.result(), by_scan.result());
    group.finish();
}

/// The retraction-index ablation on a store large enough to show the
/// asymptotics: a maintained answer with one derivation per matching row
/// (thousands), then a **batch** of deletions per timed iteration (the
/// one-time answer clone is amortized across the batch, so the timing
/// isolates retraction itself). The pre-index full scan examines every
/// stored derivation per delete; the inverted index walks the smallest
/// posting union — here a single candidate — so the probe count drops by
/// ~|store| and the wall clock follows.
fn retraction_index_scaling(c: &mut Criterion) {
    use bcq_exec::IncrementalAnswer;
    let n: i64 = if smoke_mode() { 64 } else { 8192 };
    let batch: i64 = if smoke_mode() { 4 } else { 256 };
    let cat = Arc::new(Catalog::new([RelationSchema::new("r", ["a", "b"]).unwrap()]).unwrap());
    let mut a = AccessSchema::new(cat.clone());
    a.add("r", &["a"], &["b"], n as u64 + 1).unwrap();
    let q = SpcQuery::builder(cat.clone(), "b_of_0")
        .atom("r", "r")
        .eq_const(("r", "a"), 0)
        .project(("r", "b"))
        .build()
        .unwrap();
    let mut db = bcq_storage::Database::new(cat);
    for k in 0..n {
        db.insert("r", &[Value::int(0), Value::int(k)]).unwrap();
    }
    db.build_indexes(&a);
    let base = IncrementalAnswer::initialize(&db, &q, &a).unwrap();
    assert_eq!(base.num_derivations() as i64, n);

    // Victims spread across the store, all removed from the post-state
    // database (retraction deltas for distinct rows are independent).
    let rel = RelId(0);
    let victims: Vec<[Value; 2]> = (0..batch)
        .map(|j| [Value::int(0), Value::int(j * (n / batch))])
        .collect();
    let mut deleted_db = db.clone();
    for v in &victims {
        assert!(deleted_db.delete("r", v).unwrap().is_some());
    }

    let mut group = c.benchmark_group("ablation/retraction_index");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    group.bench_function(format!("indexed/{n}x{batch}"), |b| {
        b.iter(|| {
            let mut inc = base.clone();
            let mut removed = 0;
            for v in &victims {
                removed += inc.on_delete(&deleted_db, rel, v).unwrap().removed_rows;
            }
            std::hint::black_box(removed);
        })
    });
    group.bench_function(format!("scan/{n}x{batch}"), |b| {
        b.iter(|| {
            let mut inc = base.clone();
            let mut removed = 0;
            for v in &victims {
                removed += inc
                    .on_delete_by_scan(&deleted_db, rel, v)
                    .unwrap()
                    .removed_rows;
            }
            std::hint::black_box(removed);
        })
    });
    group.finish();

    // Per-delete probe counts behind the timings, plus the semantic check
    // that both candidate-generation paths retract identically.
    let mut by_index = base.clone();
    let s1 = by_index.on_delete(&deleted_db, rel, &victims[0]).unwrap();
    let mut by_scan = base.clone();
    let s2 = by_scan
        .on_delete_by_scan(&deleted_db, rel, &victims[0])
        .unwrap();
    assert_eq!(s1.removed_rows, 1);
    assert_eq!(s1.derivations_removed, s2.derivations_removed);
    assert_eq!(by_index.result(), by_scan.result());
    criterion::record_derived(
        "delta_delete_candidates_probed_indexed",
        s1.derivations_probed as f64,
    );
    criterion::record_derived(
        "delta_delete_candidates_probed_scan",
        s2.derivations_probed as f64,
    );
    criterion::record_derived(
        "delta_delete_probe_reduction_scan_over_indexed",
        s2.derivations_probed as f64 / (s1.derivations_probed as f64).max(1.0),
    );
}

criterion_group!(
    benches,
    dp_ablation,
    bound_ablation,
    baseline_modes,
    complexity_scaling,
    incremental_vs_full,
    retraction_index_scaling
);
criterion_main!(benches);
