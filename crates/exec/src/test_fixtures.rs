//! Shared inputs for the engine's and the reference's unit tests.

use bcq_core::prelude::{Catalog, Cell, RowBuf, SpcQuery};
use bcq_storage::Database;

/// A database whose symbol table has the ints 0..1000 available (small
/// ints always encode, so an empty database suffices for int-only tests).
pub(crate) fn dummy_db() -> Database {
    Database::new(Catalog::from_names(&[("unused", &["x"])]).unwrap())
}

/// `π_{r.a, s.d} (r ⋈_{r.b = s.c} s)` over `r(a, b)`, `s(c, d)`.
pub(crate) fn two_rel_query() -> SpcQuery {
    let cat = Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c", "d"])]).unwrap();
    SpcQuery::builder(cat, "j")
        .atom("r", "r")
        .atom("s", "s")
        .eq(("r", "b"), ("s", "c"))
        .project(("r", "a"))
        .project(("s", "d"))
        .build()
        .unwrap()
}

/// Small-int rows as interned cell rows.
pub(crate) fn rows(data: &[&[i64]]) -> Vec<RowBuf> {
    data.iter()
        .map(|r| {
            r.iter()
                .map(|&v| Cell::from_small_int(v).unwrap())
                .collect()
        })
        .collect()
}
