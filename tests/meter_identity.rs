//! The meter-identity gate: every workload query of TFACC, MOT and TPCH
//! that `qplan` accepts, run through `eval_dq` on a small generated
//! instance, rendered as its sorted answer plus the meter's
//! `tuples_fetched`, `index_probes` and `intermediate_rows`, and compared
//! byte for byte with `tests/data/meter_identity.txt`.
//!
//! What a plan step materializes and how a partial assignment is laid out
//! are physical choices: a change to either must move no answer and no
//! count. The file was generated before plan steps were narrowed to the
//! columns later work reads, and is not meant to be regenerated by a
//! change of that kind.

use bounded_cq::prelude::*;
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("data/meter_identity.txt");

#[test]
fn answers_and_meters_are_byte_identical() {
    let got = dump();
    if got != EXPECTED {
        let (got_lines, want_lines): (Vec<_>, Vec<_>) =
            (got.lines().collect(), EXPECTED.lines().collect());
        let at = (0..got_lines.len().max(want_lines.len()))
            .find(|&i| got_lines.get(i) != want_lines.get(i))
            .unwrap_or(0);
        panic!(
            "the dump differs from tests/data/meter_identity.txt at line {}:\n  got:  {:?}\n  want: {:?}",
            at + 1,
            got_lines.get(at),
            want_lines.get(at)
        );
    }
}

fn dump() -> String {
    let mut out = String::new();
    let mut bounded = 0;
    for ds in all_datasets() {
        // The scales of `tests/pipeline_equivalence.rs`.
        let db = ds.build(if ds.name == "TPCH" { 0.25 } else { 0.05 });
        for wq in &ds.queries {
            let Ok(plan) = qplan(&wq.query, &ds.access) else {
                continue;
            };
            bounded += 1;
            let run = eval_dq(&db, &plan, &ds.access).unwrap();
            let m = run.meter;
            writeln!(out, "== {} {}", ds.name, wq.query.name()).unwrap();
            writeln!(
                out,
                "  tuples_fetched = {}, index_probes = {}, intermediate_rows = {}",
                m.tuples_fetched, m.index_probes, m.intermediate_rows
            )
            .unwrap();
            writeln!(out, "  {} answers", run.result.len()).unwrap();
            for row in run.result.rows() {
                let values: Vec<String> = row.iter().map(Value::to_string).collect();
                writeln!(out, "  ({})", values.join(", ")).unwrap();
            }
        }
    }
    assert_eq!(bounded, 35, "the effectively bounded workload queries");
    out
}
