//! Query results with set semantics.

use bcq_core::prelude::Value;
use std::fmt;

/// The answer `Q(D)`: a set of projection tuples, stored sorted and
/// deduplicated so executors can be compared with `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    rows: Vec<Box<[Value]>>,
}

impl ResultSet {
    /// Builds a result set from raw rows (sorts and deduplicates).
    pub fn from_rows(mut rows: Vec<Box<[Value]>>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        ResultSet { rows }
    }

    /// The empty result.
    pub fn empty() -> Self {
        ResultSet { rows: Vec::new() }
    }

    /// Number of answer tuples. For a Boolean query this is `1` (true) or
    /// `0` (false) — the single answer is the empty tuple.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no answers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The answers, sorted.
    pub fn rows(&self) -> &[Box<[Value]>] {
        &self.rows
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.rows.binary_search_by(|r| r.as_ref().cmp(row)).is_ok()
    }

    /// Boolean-query reading: `true` iff the result is non-empty.
    pub fn as_bool(&self) -> bool {
        !self.rows.is_empty()
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} row(s)", self.rows.len())?;
        for r in self.rows.iter().take(20) {
            let vals: Vec<String> = r.iter().map(Value::to_string).collect();
            writeln!(f, "  ({})", vals.join(", "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … {} more", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_dedups() {
        let rows = vec![
            vec![Value::int(2)].into_boxed_slice(),
            vec![Value::int(1)].into_boxed_slice(),
            vec![Value::int(2)].into_boxed_slice(),
        ];
        let rs = ResultSet::from_rows(rows);
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&[Value::int(1)]));
        assert!(rs.contains(&[Value::int(2)]));
        assert!(!rs.contains(&[Value::int(3)]));
    }

    #[test]
    fn boolean_semantics() {
        let t = ResultSet::from_rows(vec![Vec::new().into_boxed_slice()]);
        assert!(t.as_bool());
        assert_eq!(t.len(), 1);
        assert!(!ResultSet::empty().as_bool());
    }

    #[test]
    fn display_truncates() {
        let rows = (0..30)
            .map(|i| vec![Value::int(i)].into_boxed_slice())
            .collect();
        let rs = ResultSet::from_rows(rows);
        let text = rs.to_string();
        assert!(text.contains("30 row(s)"));
        assert!(text.contains("… 10 more"));
    }
}
