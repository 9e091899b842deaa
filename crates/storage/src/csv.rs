//! CSV import/export for tables and databases.
//!
//! The synthetic workloads stand in for the paper's datasets, but the real
//! ones are public (UK Road Safety Data, NaPTAN, anonymised MOT results):
//! this module lets a user load the actual CSVs and run the same analyses
//! and experiments. Hand-rolled RFC-4180-subset parser — quoted fields,
//! embedded commas/quotes/newlines — to stay within the approved
//! dependency set.
//!
//! Typing: a field parses as [`Value::Int`] when it is a valid `i64`
//! (the workloads are integer-coded), as [`Value::Null`] when empty, and
//! as [`Value::Str`] otherwise.

use crate::database::Database;
use bcq_core::error::{CoreError, Result};
use bcq_core::prelude::{RelId, Value};
use std::io::{BufRead, Write};

/// Parses one CSV record from `line_iter` (may consume multiple physical
/// lines when quoted fields embed newlines). Returns `None` at EOF.
fn read_record(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<Option<Vec<String>>> {
    let Some(first) = lines.next() else {
        return Ok(None);
    };
    let mut buf = first.map_err(|e| CoreError::Invalid(format!("io error: {e}")))?;
    loop {
        match split_record(&buf) {
            Some(fields) => return Ok(Some(fields)),
            None => {
                // Unbalanced quotes: the record continues on the next line.
                let Some(next) = lines.next() else {
                    return Err(CoreError::Invalid("unterminated quoted field".into()));
                };
                buf.push('\n');
                buf.push_str(&next.map_err(|e| CoreError::Invalid(format!("io error: {e}")))?);
            }
        }
    }
}

/// Splits a complete record into fields; `None` if quotes are unbalanced.
fn split_record(record: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut field)),
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return None;
    }
    fields.push(field);
    Some(fields)
}

fn parse_value(field: &str) -> Value {
    if field.is_empty() {
        Value::Null
    } else if let Ok(i) = field.parse::<i64>() {
        Value::Int(i)
    } else {
        Value::str(field)
    }
}

/// Loads CSV rows into `relation` of `db`.
///
/// With `has_header = true` the first record must name the relation's
/// attributes (any order); columns are mapped by name and extra columns
/// are ignored. Without a header, records must match the relation's arity
/// positionally. Returns the number of rows loaded. Each record is one
/// [`Database::insert`]: one commit (and one WAL insert record when a sink
/// is attached) per row, and every registered index maintained, so a
/// database indexed before the load answers bounded queries after it with
/// no rebuild. For a large file, a [`Database::bulk_loader`] load followed
/// by [`Database::build_indexes`] is one commit for the whole load.
pub fn load_csv(
    db: &mut Database,
    relation: &str,
    reader: impl BufRead,
    has_header: bool,
) -> Result<usize> {
    let rel = db.catalog().require_rel(relation)?;
    let schema = db.catalog().relation(rel).clone();
    let mut lines = reader.lines();

    // Column mapping: position in the CSV -> column in the relation.
    let mapping: Option<Vec<Option<usize>>> = if has_header {
        let Some(header) = read_record(&mut lines)? else {
            return Ok(0);
        };
        let map: Vec<Option<usize>> = header
            .iter()
            .map(|name| schema.attr_index(name.trim()))
            .collect();
        for (col, attr) in schema.attributes().iter().enumerate() {
            if !map.contains(&Some(col)) {
                return Err(CoreError::Invalid(format!(
                    "CSV header is missing attribute `{attr}` of `{relation}`"
                )));
            }
        }
        Some(map)
    } else {
        None
    };

    let mut count = 0usize;
    let mut row = vec![Value::Null; schema.arity()];
    while let Some(fields) = read_record(&mut lines)? {
        if fields.len() == 1 && fields[0].is_empty() {
            continue; // blank line
        }
        match &mapping {
            Some(map) => {
                if fields.len() != map.len() {
                    return Err(CoreError::Invalid(format!(
                        "record {} has {} fields, header has {}",
                        count + 1,
                        fields.len(),
                        map.len()
                    )));
                }
                row.fill(Value::Null);
                for (f, m) in fields.iter().zip(map) {
                    if let Some(col) = m {
                        row[*col] = parse_value(f);
                    }
                }
            }
            None => {
                if fields.len() != schema.arity() {
                    return Err(CoreError::Invalid(format!(
                        "record {} has {} fields, relation `{relation}` has arity {}",
                        count + 1,
                        fields.len(),
                        schema.arity()
                    )));
                }
                for (col, f) in fields.iter().enumerate() {
                    row[col] = parse_value(f);
                }
            }
        }
        db.insert(relation, &row)?;
        count += 1;
    }
    Ok(count)
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => escape(s),
    }
}

/// Writes `relation` of `db` as CSV (with a header row).
pub fn dump_csv(db: &Database, relation: &str, mut writer: impl Write) -> Result<usize> {
    let rel: RelId = db.catalog().require_rel(relation)?;
    let schema = db.catalog().relation(rel);
    let io_err = |e: std::io::Error| CoreError::Invalid(format!("io error: {e}"));
    writeln!(writer, "{}", schema.attributes().join(",")).map_err(io_err)?;
    let mut count = 0usize;
    for row in db.value_rows(rel) {
        let line: Vec<String> = row.iter().map(render_value).collect();
        writeln!(writer, "{}", line.join(",")).map_err(io_err)?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::Catalog;

    fn db() -> Database {
        Database::new(Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap())
    }

    #[test]
    fn positional_load() {
        let mut d = db();
        let csv = "1,2\n1,3\n7,hello\n";
        let n = load_csv(&mut d, "friends", csv.as_bytes(), false).unwrap();
        assert_eq!(n, 3);
        let rows: Vec<_> = d.value_rows(RelId(0)).collect();
        assert_eq!(rows[0], vec![Value::int(1), Value::int(2)]);
        assert_eq!(rows[2], vec![Value::int(7), Value::str("hello")]);
    }

    #[test]
    fn header_load_reorders_and_ignores_extras() {
        let mut d = db();
        let csv = "friend_id,notes,user_id\n2,whatever,1\n";
        let n = load_csv(&mut d, "friends", csv.as_bytes(), true).unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            d.value_rows(RelId(0)).next().unwrap(),
            vec![Value::int(1), Value::int(2)]
        );
    }

    #[test]
    fn missing_header_column_rejected() {
        let mut d = db();
        let csv = "friend_id\n2\n";
        assert!(load_csv(&mut d, "friends", csv.as_bytes(), true).is_err());
    }

    #[test]
    fn quoted_fields_and_embedded_structures() {
        let mut d = db();
        let csv = "\"a,b\",\"say \"\"hi\"\"\"\n\"line1\nline2\",9\n";
        let n = load_csv(&mut d, "friends", csv.as_bytes(), false).unwrap();
        assert_eq!(n, 2);
        let rows: Vec<_> = d.value_rows(RelId(0)).collect();
        assert_eq!(rows[0], vec![Value::str("a,b"), Value::str("say \"hi\"")]);
        assert_eq!(rows[1], vec![Value::str("line1\nline2"), Value::int(9)]);
    }

    #[test]
    fn empty_fields_become_null() {
        let mut d = db();
        let n = load_csv(&mut d, "friends", ",5\n".as_bytes(), false).unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            d.value_rows(RelId(0)).next().unwrap(),
            vec![Value::Null, Value::int(5)]
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut d = db();
        assert!(load_csv(&mut d, "friends", "1,2,3\n".as_bytes(), false).is_err());
        assert!(load_csv(&mut d, "friends", "1\n".as_bytes(), false).is_err());
        assert!(load_csv(&mut d, "ghost", "1,2\n".as_bytes(), false).is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        let mut d = db();
        assert!(load_csv(&mut d, "friends", "\"oops,2\n".as_bytes(), false).is_err());
    }

    #[test]
    fn dump_roundtrips() {
        let mut d = db();
        d.insert("friends", &[Value::int(1), Value::str("a,b")])
            .unwrap();
        d.insert("friends", &[Value::Null, Value::str("q\"q")])
            .unwrap();
        let mut out = Vec::new();
        let n = dump_csv(&d, "friends", &mut out).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("user_id,friend_id\n"));

        let mut d2 = db();
        let m = load_csv(&mut d2, "friends", text.as_bytes(), true).unwrap();
        assert_eq!(m, 2);
        let lhs: Vec<_> = d.value_rows(RelId(0)).collect();
        let rhs: Vec<_> = d2.value_rows(RelId(0)).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn blank_lines_skipped() {
        let mut d = db();
        let n = load_csv(&mut d, "friends", "1,2\n\n3,4\n".as_bytes(), false).unwrap();
        assert_eq!(n, 2);
    }
}
