//! Materialization of views (the offline half of bounded query answering
//! using views; see [`bcq_core::views`]).

use crate::baseline::{baseline, BaselineMode, BaselineOptions};
use bcq_core::error::{CoreError, Result};
use bcq_core::prelude::Value;
use bcq_core::views::ViewExpansion;
use bcq_storage::Database;

/// Computes every view of `exp` over the base tables of `db` (which must
/// be a database over `exp.catalog()`) and loads the results into the view
/// relations. Views are evaluated with full scans — materialization is the
/// offline precomputation step, not the bounded online path.
///
/// Returns the number of rows materialized per view.
pub fn materialize_views(db: &mut Database, exp: &ViewExpansion) -> Result<Vec<usize>> {
    if db.catalog().as_ref() != exp.catalog().as_ref() {
        return Err(CoreError::Invalid(
            "database is not over the view-expanded catalog".into(),
        ));
    }
    let mut sizes = Vec::with_capacity(exp.views().len());
    for (vi, v) in exp.views().iter().enumerate() {
        let lifted = exp.lift_query(&v.query)?;
        let out = baseline(
            db,
            &lifted,
            &bcq_core::access::AccessSchema::new(exp.catalog().clone()),
            BaselineOptions {
                mode: BaselineMode::FullScan,
                work_budget: None,
            },
        )?;
        let rows = out
            .result()
            .expect("materialization runs without a budget")
            .rows()
            .to_vec();
        sizes.push(rows.len());
        let flat: Vec<Value> = rows.into_iter().flatten().collect();
        db.bulk_loader(exp.view_rel(vi)).push_rows(&flat);
    }
    Ok(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::*;
    use bcq_core::views::{expand_with_views, ViewDef};
    use bcq_storage::validate;
    use std::sync::Arc;

    fn setup() -> (ViewExpansion, Database, AccessSchema) {
        let base = Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap();
        let mut a0 = AccessSchema::new(Arc::clone(&base));
        a0.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a0.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        a0.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
            .unwrap();
        let view = ViewDef {
            name: "v_tagged".into(),
            query: SpcQuery::builder(Arc::clone(&base), "v_def")
                .atom("in_album", "ia")
                .atom("tagging", "t")
                .eq_const(("ia", "album_id"), "a0")
                .eq(("ia", "photo_id"), ("t", "photo_id"))
                .eq_const(("t", "taggee_id"), "u0")
                .project(("ia", "photo_id"))
                .project(("t", "tagger_id"))
                .build()
                .unwrap(),
        };
        let exp = expand_with_views(base, vec![view]).unwrap();
        let mut db = Database::new(exp.catalog().clone());
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a1")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (u, f) in [("u0", "u1"), ("u0", "u2")] {
            db.insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        for (p, tr, te) in [("p1", "u1", "u0"), ("p2", "u9", "u0"), ("p3", "u1", "u0")] {
            db.insert("tagging", &[Value::str(p), Value::str(tr), Value::str(te)])
                .unwrap();
        }
        (exp, db, a0)
    }

    #[test]
    fn materialization_fills_the_view() {
        let (exp, mut db, _) = setup();
        let sizes = materialize_views(&mut db, &exp).unwrap();
        assert_eq!(sizes, vec![2]); // p1/u1 and p2/u9 (p3 is in album a1)
        let v = db.table(exp.view_rel(0));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn derived_constraints_hold_on_materialized_data() {
        let (exp, mut db, a0) = setup();
        materialize_views(&mut db, &exp).unwrap();
        let derived = exp.derive_view_constraints(&a0).unwrap();
        let violations = validate(&mut db, &derived);
        assert!(violations.is_empty(), "first: {}", violations[0]);
    }

    #[test]
    fn bounded_query_over_the_view_runs() {
        let (exp, mut db, a0) = setup();
        materialize_views(&mut db, &exp).unwrap();
        let derived = exp.derive_view_constraints(&a0).unwrap();
        db.build_indexes(&derived);
        let q = SpcQuery::builder(exp.catalog().clone(), "taggers_of_p1")
            .atom("v_tagged", "v")
            .eq_const(("v", "ia_photo_id"), "p1")
            .project(("v", "t_tagger_id"))
            .build()
            .unwrap();
        let plan = bcq_core::qplan::qplan(&q, &derived).unwrap();
        let out = crate::eval_dq(&db, &plan, &derived).unwrap();
        assert_eq!(out.result.len(), 1);
        assert!(out.result.contains(&[Value::str("u1")]));
    }

    #[test]
    fn wrong_catalog_rejected() {
        let (exp, _, _) = setup();
        let mut other = Database::new(exp.base().clone());
        assert!(materialize_views(&mut other, &exp).is_err());
    }
}
