//! The plan-identity gate: every bounded plan and every certified RA
//! skeleton compiled from a fixed set of inputs, rendered to text and
//! compared byte for byte with `tests/data/plan_identity.txt`.
//!
//! The inputs:
//!
//! * every workload query of TFACC, MOT and TPCH that `qplan` accepts —
//!   its `Display`, `cost_bound()` and steps;
//! * the RA expressions of the RA suites (`tests/common/ra_oracle.rs`,
//!   `tests/extensions.rs`, the `bcq_core::ra` unit tests) and a few more
//!   shapes (nested intersections, failing probes, reserved and repeated
//!   slots) — the verdict, the failure text and, when certified, the
//!   skeleton with every plan's `Display` and `cost_bound()` in walk order.
//!
//! A change to the analysis, the planner or the RA walk that is not meant
//! to move a plan leaves the file untouched; one that is regenerates it on
//! purpose and says why.

use bounded_cq::core::ra::{ra_effectively_bounded, PreparedRa, RaExpr, RaPlan};
use bounded_cq::prelude::*;
use std::sync::Arc;

#[path = "common/ra_oracle.rs"]
mod ra_oracle;

const EXPECTED: &str = include_str!("data/plan_identity.txt");

#[test]
fn plans_and_ra_skeletons_are_byte_identical() {
    let got = dump();
    if got != EXPECTED {
        let (got_lines, want_lines): (Vec<_>, Vec<_>) =
            (got.lines().collect(), EXPECTED.lines().collect());
        let at = (0..got_lines.len().max(want_lines.len()))
            .find(|&i| got_lines.get(i) != want_lines.get(i))
            .unwrap_or(0);
        panic!(
            "the dump differs from tests/data/plan_identity.txt at line {}:\n  got:  {:?}\n  want: {:?}",
            at + 1,
            got_lines.get(at),
            want_lines.get(at)
        );
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(text);
    out.push('\n');
}

/// A skeleton node and its children in walk order: its role and set
/// operation on one line, then each block's plan and `cost_bound()`.
fn skeleton(out: &mut String, depth: usize, node: &RaPlan, probed: bool) {
    match node {
        RaPlan::Spc(plan) => {
            line(out, depth, if probed { "probe block" } else { "enumerate" });
            for text in plan.to_string().lines() {
                line(out, depth + 1, text);
            }
            line(
                out,
                depth + 1,
                &format!("cost_bound = {}", plan.cost_bound()),
            );
        }
        RaPlan::Union(l, r) => {
            line(out, depth, if probed { "probe union" } else { "union" });
            skeleton(out, depth + 1, l, probed);
            skeleton(out, depth + 1, r, probed);
        }
        RaPlan::Filter {
            base,
            probe,
            keep_members,
        } => {
            let label = match (probed, keep_members) {
                (false, true) => "filter keep",
                (false, false) => "filter drop",
                (true, true) => "probe intersect",
                (true, false) => "probe difference",
            };
            line(out, depth, label);
            skeleton(out, depth + 1, base, probed);
            skeleton(out, depth + 1, probe, true);
        }
    }
}

fn dump() -> String {
    let mut out = String::new();
    let mut bounded = 0;
    for ds in all_datasets() {
        for wq in &ds.queries {
            let Ok(plan) = qplan(&wq.query, &ds.access) else {
                continue;
            };
            bounded += 1;
            line(
                &mut out,
                0,
                &format!("== spc {} {}", ds.name, wq.query.name()),
            );
            for text in plan.to_string().lines() {
                line(&mut out, 1, text);
            }
            line(&mut out, 1, &format!("cost_bound = {}", plan.cost_bound()));
            for step in plan.steps() {
                line(&mut out, 1, &format!("{step:?}"));
            }
        }
    }
    assert_eq!(bounded, 35, "the effectively bounded workload queries");

    for (label, expr, a) in ra_expressions() {
        line(&mut out, 0, &format!("== ra {label}"));
        if expr.blocks().iter().all(|q| !q.has_placeholders()) {
            let report = ra_effectively_bounded(&expr, &a);
            line(
                &mut out,
                1,
                &format!(
                    "ra_effectively_bounded: {} {:?}",
                    report.effectively_bounded, report.failure
                ),
            );
        }
        match PreparedRa::prepare(&expr, &a) {
            Err(e) => line(&mut out, 1, &format!("prepare: refused: {e}")),
            Ok(prepared) => {
                line(
                    &mut out,
                    1,
                    &format!("prepare: certified, slots {:?}", prepared.param_slots()),
                );
                skeleton(&mut out, 1, prepared.root(), false);
            }
        }
    }
    out
}

/// `π_proj σ_pins(rel)` over one atom aliased `alias`; a pinned value
/// written `?name` is a placeholder.
fn block(
    cat: &Arc<Catalog>,
    name: &str,
    (rel, alias): (&str, &str),
    pins: &[(&str, &str)],
    proj: &[&str],
) -> RaExpr {
    let mut b = SpcQuery::builder(Arc::clone(cat), name).atom(rel, alias);
    for (attr, v) in pins {
        b = match v.strip_prefix('?') {
            Some(slot) => b.eq_param((alias, *attr), slot),
            None => b.eq_const((alias, *attr), *v),
        };
    }
    for attr in proj {
        b = b.project((alias, *attr));
    }
    RaExpr::Spc(b.build().unwrap())
}

/// Every RA expression the gate renders, labelled, with its access schema.
fn ra_expressions() -> Vec<(String, RaExpr, AccessSchema)> {
    use RaExpr as E;
    let mut out = Vec::new();

    // The RA oracle's matrix (ground and templated).
    let (db, photos) = ra_oracle::photos();
    let cat = Arc::clone(db.catalog());
    for case in ra_oracle::cases(&cat) {
        out.push((
            format!("ra_oracle/{}", case.name),
            case.expr,
            photos.clone(),
        ));
    }

    // The `bcq_core::ra` unit tests, block names included (they appear in
    // failure texts).
    let album = |name: &str, v: &str| {
        block(
            &cat,
            name,
            ("in_album", "ia"),
            &[("album_id", v)],
            &["photo_id"],
        )
    };
    let tagged = |name: &str, v: &str| {
        block(
            &cat,
            name,
            ("tagging", "t"),
            &[("taggee_id", v)],
            &["photo_id"],
        )
    };
    let q0 = SpcQuery::builder(Arc::clone(&cat), "Q0")
        .atom("in_album", "ia")
        .atom("friends", "f")
        .atom("tagging", "t")
        .eq_const(("ia", "album_id"), "a0")
        .eq_const(("f", "user_id"), "u0")
        .eq(("ia", "photo_id"), ("t", "photo_id"))
        .eq(("t", "tagger_id"), ("f", "friend_id"))
        .eq_const(("t", "taggee_id"), "u0")
        .project(("ia", "photo_id"))
        .build()
        .unwrap();
    let two_cols = block(
        &cat,
        "two",
        ("in_album", "ia"),
        &[("album_id", "a0")],
        &["photo_id", "album_id"],
    );
    let core = [
        ("spc leaf", E::Spc(q0)),
        ("spc leaf, unbounded", tagged("t", "u0")),
        ("union", E::union(album("a", "a0"), album("b", "a1"))),
        ("union, half", E::union(album("a", "a0"), tagged("t", "u0"))),
        (
            "difference",
            E::difference(album("a", "a0"), tagged("t", "u0")),
        ),
        (
            "difference, swapped",
            E::difference(tagged("t", "u0"), album("a", "a0")),
        ),
        (
            "intersection, left",
            E::intersect(album("a", "a0"), tagged("t", "u0")),
        ),
        (
            "intersection, right",
            E::intersect(tagged("t", "u0"), album("a", "a0")),
        ),
        ("arity mismatch", E::union(album("a", "a0"), two_cols)),
        (
            "nested",
            E::difference(
                E::union(album("a", "a0"), album("b", "a1")),
                tagged("t", "u0"),
            ),
        ),
        (
            "membership probe through difference",
            E::difference(
                album("a", "a0"),
                E::difference(tagged("t", "u0"), tagged("t2", "u1")),
            ),
        ),
    ];
    for (name, expr) in core {
        out.push((format!("core/{name}"), expr, photos.clone()));
    }

    // More shapes: nested intersections, probes that fail, slots that
    // repeat, share a class with a constant, or take a reserved name.
    let tagger_of = |v: &str| {
        block(
            &cat,
            "tagger_of",
            ("tagging", "t"),
            &[("taggee_id", v)],
            &["tagger_id"],
        )
    };
    let more = [
        (
            "intersection, both sides enumerable",
            E::intersect(album("a", "a0"), album("b", "a1")),
        ),
        (
            "intersection of an intersection, left",
            E::intersect(
                E::intersect(tagged("t", "u0"), album("a", "a0")),
                album("b", "a1"),
            ),
        ),
        (
            "intersection of an intersection, right",
            E::intersect(
                album("a", "a0"),
                E::intersect(tagged("t", "u0"), tagged("t2", "u1")),
            ),
        ),
        (
            "intersection, neither side enumerable",
            E::intersect(tagged("t", "u0"), tagged("t2", "u1")),
        ),
        (
            "intersection, enumerable side not probeable",
            E::intersect(album("a", "a0"), tagger_of("u0")),
        ),
        (
            "difference, probe not checkable",
            E::difference(album("a", "a0"), tagger_of("u0")),
        ),
        (
            "difference, probed union fails on the right",
            E::difference(
                album("a", "a0"),
                E::union(tagged("t", "u0"), tagger_of("u1")),
            ),
        ),
        (
            "intersection, probed difference",
            E::intersect(
                album("a", "a0"),
                E::difference(tagged("t", "u0"), album("b", "a1")),
            ),
        ),
        (
            "template, intersection of an intersection",
            E::intersect(
                E::intersect(tagged("t", "?user"), album("a", "?album")),
                tagged("t2", "?other"),
            ),
        ),
        (
            "template, one slot on both sides",
            E::difference(album("a", "?x"), tagged("t", "?x")),
        ),
        (
            "template, slot on a constant's class",
            E::difference(
                block(
                    &cat,
                    "pinned",
                    ("in_album", "ia"),
                    &[("album_id", "a0"), ("album_id", "?album")],
                    &["photo_id"],
                ),
                tagged("t", "?user"),
            ),
        ),
        (
            "template, two slots on one attribute",
            E::difference(
                block(
                    &cat,
                    "twice",
                    ("in_album", "ia"),
                    &[("album_id", "?a"), ("album_id", "?b")],
                    &["photo_id"],
                ),
                tagged("t", "?user"),
            ),
        ),
        (
            "template, unbounded block",
            E::union(album("a", "?album"), tagged("t", "?user")),
        ),
        ("template, reserved slot", album("a", "?⟨probe-0⟩")),
    ];
    for (name, expr) in more {
        out.push((format!("more/{name}"), expr, photos.clone()));
    }

    // `tests/extensions.rs`.
    let tpch = bounded_cq::workload::tpch::dataset();
    let shipped = |name: &str, extra: Option<(&str, i64)>| {
        let mut b = SpcQuery::builder(tpch.catalog.clone(), name)
            .atom("orders", "o")
            .atom("lineitem", "l")
            .eq_const(("o", "o_custkey"), 42)
            .eq(("l", "l_orderkey"), ("o", "o_orderkey"))
            .eq_const(("l", "l_shipmode"), 3);
        if let Some((attr, v)) = extra {
            b = b.eq_const(("l", attr), v);
        }
        E::Spc(b.project(("l", "l_partkey")).build().unwrap())
    };
    out.push((
        "extensions/ra_difference_on_tpch".to_string(),
        E::difference(
            shipped("all", None),
            shipped("returned", Some(("l_returnflag", 1))),
        ),
        tpch.access.clone(),
    ));
    let mot = bounded_cq::workload::mot::dataset();
    let blocks: Vec<&SpcQuery> = mot
        .queries
        .iter()
        .filter(|w| w.expect_effectively_bounded && w.query.projection().len() == 1)
        .map(|w| &w.query)
        .take(2)
        .collect();
    out.push((
        "extensions/ra_union_of_bounded_blocks".to_string(),
        E::union(E::Spc(blocks[0].clone()), E::Spc(blocks[1].clone())),
        mot.access.clone(),
    ));
    out
}
