//! A small SQL-style surface syntax for SPC queries.
//!
//! SPC is exactly the `SELECT DISTINCT`–`FROM`–`WHERE(=, AND)` fragment of
//! SQL, so a familiar syntax costs little and helps adoption:
//!
//! ```text
//! SELECT ia.photo_id
//! FROM in_album ia, friends f, tagging t
//! WHERE ia.album_id = 'a0'
//!   AND f.user_id = ?uid
//!   AND ia.photo_id = t.photo_id
//!   AND t.tagger_id = f.friend_id
//!   AND t.taggee_id = ?uid
//! ```
//!
//! * `SELECT *` is not supported (SPC projections are explicit); Boolean
//!   queries use `SELECT 1` or an empty select list via `EXISTS` syntax:
//!   `SELECT EXISTS FROM … WHERE …`.
//! * Constants: single-quoted strings or integer literals.
//! * Parameters: `?name` placeholders (Example 1(2)-style templates).
//! * Only equality predicates combined with `AND` — anything else is
//!   outside SPC and rejected with a position-carrying error.
//!
//! ## Query shapes
//!
//! Effective boundedness, the plan and its bound `Σ Mᵢ` depend on *which*
//! attributes a query instantiates, never on the values, so the unit of
//! compilation is the **shape** of a text: the text with its constants
//! taken out. [`SqlShape::scan`] makes one pass over the text with the
//! lexer [`parse_spc`] uses and yields
//!
//! * the **shape key** — the token stream rendered back to text, with a
//!   slot marker in place of every literal that stands directly to the
//!   right of an `=` (in a text that parses, those are exactly the `WHERE`
//!   constants) and whitespace collapsed;
//! * the **lifted values**, one per literal *occurrence*, in order. No
//!   value-equality analysis is done: two slots that receive the same
//!   value only merge `Σ_Q` classes at execution, which can never
//!   un-certify the plan compiled for the shape, and two slots of one
//!   class that receive different values empty the answer.
//!
//! and [`SqlShape::template`] parses that same token stream into the
//! shape's template, whose placeholders are named `$1`, `$2`, … — a
//! spelling the lexer rejects, so they cannot collide with a `?name`
//! written in the text. Not lifted: the `1` of `SELECT 1`, `?name`
//! parameters, and anything in a text that does not parse.

use crate::error::{CoreError, Result};
use crate::query::{QueryBuilder, SpcQuery};
use crate::schema::Catalog;
use crate::value::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parses the SQL-style SPC fragment into an [`SpcQuery`] named `name`.
pub fn parse_spc(catalog: Arc<Catalog>, name: &str, sql: &str) -> Result<SpcQuery> {
    Parser {
        tokens: Lexer::new(sql).collect::<Result<_>>()?,
        pos: 0,
        catalog,
    }
    .parse(name)
}

/// Renders a query back to the surface syntax, such that
/// `parse_spc(cat, name, &render_sql(q)?) == q`.
///
/// Fails for queries whose constants cannot be written as literals
/// (`NULL`, or strings containing a quote).
pub fn render_sql(q: &SpcQuery) -> Result<String> {
    use crate::query::Predicate;
    let cat = q.catalog();
    let fmt_value = |v: &Value| -> Result<String> {
        match v {
            Value::Int(i) => Ok(i.to_string()),
            Value::Str(s) if !s.contains('\'') => Ok(format!("'{s}'")),
            Value::Str(_) => Err(CoreError::Invalid(
                "cannot render a string containing a quote".into(),
            )),
            Value::Null => Err(CoreError::Invalid("cannot render NULL".into())),
        }
    };
    let mut out = String::from("SELECT ");
    if q.is_boolean() {
        out.push_str("EXISTS");
    } else {
        let cols: Vec<String> = q.projection().iter().map(|z| q.attr_name(*z)).collect();
        out.push_str(&cols.join(", "));
    }
    out.push_str(" FROM ");
    let atoms: Vec<String> = q
        .atoms()
        .iter()
        .map(|a| format!("{} {}", cat.relation(a.relation).name(), a.alias))
        .collect();
    out.push_str(&atoms.join(", "));
    if !q.predicates().is_empty() {
        out.push_str(" WHERE ");
        let preds: Vec<String> = q
            .predicates()
            .iter()
            .map(|p| -> Result<String> {
                Ok(match p {
                    Predicate::Eq(a, b) => format!("{} = {}", q.attr_name(*a), q.attr_name(*b)),
                    Predicate::Const(a, v) => {
                        format!("{} = {}", q.attr_name(*a), fmt_value(v)?)
                    }
                    Predicate::Param(a, name) => format!("{} = ?{name}", q.attr_name(*a)),
                })
            })
            .collect::<Result<_>>()?;
        out.push_str(&preds.join(" AND "));
    }
    Ok(out)
}

/// One lexed token. Identifier, string and parameter payloads borrow from
/// the query text, so lexing allocates nothing per token.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Str(&'a str),
    Param(&'a str),
    /// A literal that [`SqlShape::scan`] lifted out of the text: its
    /// 1-based slot. The lexer never produces this.
    Slot(usize),
    Dot,
    Comma,
    Eq,
    Star,
    One,
}

impl Tok<'_> {
    /// The constant a literal token denotes.
    fn literal(self) -> Option<Value> {
        match self {
            Tok::Int(v) => Some(Value::Int(v)),
            Tok::One => Some(Value::Int(1)),
            Tok::Str(s) => Some(Value::str(s)),
            _ => None,
        }
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The lexer: an iterator of tokens over the text, stopping at the first
/// lexical error.
struct Lexer<'a> {
    sql: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(sql: &'a str) -> Self {
        Lexer { sql, pos: 0 }
    }

    /// Consumes the longest prefix of the remaining text whose characters
    /// all satisfy `keep`.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let rest = &self.sql[self.pos..];
        let taken = &rest[..rest.find(|c| !keep(c)).unwrap_or(rest.len())];
        self.pos += taken.len();
        taken
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Tok<'a>>;

    fn next(&mut self) -> Option<Result<Tok<'a>>> {
        self.take_while(char::is_whitespace);
        let i = self.pos;
        let c = self.sql[i..].chars().next()?;
        Some(match c {
            '.' | ',' | '=' | '*' => {
                self.pos += 1;
                Ok(match c {
                    '.' => Tok::Dot,
                    ',' => Tok::Comma,
                    '=' => Tok::Eq,
                    _ => Tok::Star,
                })
            }
            '\'' => {
                self.pos += 1;
                let s = self.take_while(|ch| ch != '\'');
                if self.pos == self.sql.len() {
                    Err(CoreError::Invalid(format!(
                        "unterminated string starting at byte {i}"
                    )))
                } else {
                    self.pos += 1;
                    Ok(Tok::Str(s))
                }
            }
            '?' => {
                self.pos += 1;
                let s = self.take_while(is_word);
                if s.is_empty() {
                    Err(CoreError::Invalid(format!(
                        "`?` at byte {i} must be followed by a parameter name"
                    )))
                } else {
                    Ok(Tok::Param(s))
                }
            }
            c if c.is_ascii_digit() || c == '-' => {
                self.pos += 1;
                self.take_while(|ch| ch.is_ascii_digit());
                let s = &self.sql[i..self.pos];
                match s.parse::<i64>() {
                    Ok(1) => Ok(Tok::One),
                    Ok(v) => Ok(Tok::Int(v)),
                    Err(_) => Err(CoreError::Invalid(format!("bad integer `{s}` at byte {i}"))),
                }
            }
            c if is_word(c) => Ok(Tok::Ident(self.take_while(is_word))),
            other => Err(CoreError::Invalid(format!(
                "unexpected character `{other}` at byte {i} (SPC supports only =, AND)"
            ))),
        })
    }
}

/// Prefix of the parameter names [`SqlShape::scan`] gives lifted literals.
/// The lexer rejects `$`, so no `?name` written in a query text can spell
/// one of them.
pub const LIFTED_SLOT_PREFIX: char = '$';

/// The parameter name of the `slot`-th (1-based) lifted literal.
pub fn lifted_slot_name(slot: usize) -> String {
    format!("{LIFTED_SLOT_PREFIX}{slot}")
}

/// A query text split into its **shape** and its literals by one lexing
/// pass — see the module docs. Holds the pass's token stream, with every
/// lifted literal replaced by its slot, for [`SqlShape::template`].
#[derive(Debug)]
pub struct SqlShape<'a> {
    tokens: Vec<Tok<'a>>,
}

impl<'a> SqlShape<'a> {
    /// Lexes `sql` once. Every literal directly to the right of an `=`
    /// is lifted: its value is pushed onto `values` (slot `i` is
    /// `values[i - 1]`) and a slot marker takes its place in the shape key,
    /// which is appended to `key`. Both buffers are the caller's, so a
    /// serving loop reuses them across requests.
    ///
    /// The key is the token stream rendered back to text with one space
    /// between adjacent words and none around punctuation: two texts get
    /// the same key iff their token streams agree everywhere but in the
    /// values of lifted literals. Only lexical errors are reported here;
    /// a text that lexes but does not parse fails in
    /// [`SqlShape::template`].
    pub fn scan(sql: &'a str, key: &mut String, values: &mut Vec<Value>) -> Result<SqlShape<'a>> {
        // A token is at least one byte and most are followed by a space.
        let mut tokens = Vec::with_capacity(sql.len() / 2);
        let mut after_eq = false;
        let mut after_word = false;
        for tok in Lexer::new(sql) {
            let mut tok = tok?;
            if after_eq {
                if let Some(v) = tok.literal() {
                    values.push(v);
                    tok = Tok::Slot(values.len());
                }
            }
            after_eq = tok == Tok::Eq;
            let word = !matches!(tok, Tok::Dot | Tok::Comma | Tok::Eq | Tok::Star);
            if word && after_word {
                key.push(' ');
            }
            after_word = word;
            match tok {
                Tok::Ident(s) => key.push_str(s),
                Tok::Int(v) => {
                    let _ = write!(key, "{v}");
                }
                Tok::Str(s) => {
                    key.push('\'');
                    key.push_str(s);
                    key.push('\'');
                }
                Tok::Param(p) => {
                    key.push('?');
                    key.push_str(p);
                }
                Tok::Slot(_) => key.push(LIFTED_SLOT_PREFIX),
                Tok::Dot => key.push('.'),
                Tok::Comma => key.push(','),
                Tok::Eq => key.push('='),
                Tok::Star => key.push('*'),
                Tok::One => key.push('1'),
            }
            tokens.push(tok);
        }
        Ok(SqlShape { tokens })
    }

    /// Parses the scanned token stream into the shape's **template**: the
    /// query of the text with every lifted literal replaced by the
    /// placeholder [`lifted_slot_name`]`(slot)`. Instantiating it with the
    /// scanned values gives back [`parse_spc`] of the text.
    pub fn template(self, catalog: Arc<Catalog>, name: &str) -> Result<SpcQuery> {
        Parser {
            tokens: self.tokens,
            pos: 0,
            catalog,
        }
        .parse(name)
    }
}

/// What stands to the right of `=` in a predicate.
#[derive(Debug)]
enum Rhs<'a> {
    Attr(&'a str, &'a str),
    Const(Value),
    Param(&'a str),
    Slot(usize),
}

struct Parser<'a> {
    tokens: Vec<Tok<'a>>,
    pos: usize,
    catalog: Arc<Catalog>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(CoreError::Invalid(format!(
                "expected `{kw}`, found {other:?}"
            ))),
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(CoreError::Invalid(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// `alias.attr`
    fn qualified(&mut self) -> Result<(&'a str, &'a str)> {
        let alias = self.ident()?;
        match self.next() {
            Some(Tok::Dot) => {}
            other => {
                return Err(CoreError::Invalid(format!(
                    "expected `.` after alias `{alias}`, found {other:?} \
                     (all attribute references must be alias-qualified)"
                )))
            }
        }
        let attr = self.ident()?;
        Ok((alias, attr))
    }

    /// `qualified (, qualified)*`
    fn select_list(&mut self) -> Result<Vec<(&'a str, &'a str)>> {
        let mut cols = vec![self.qualified()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.next();
            cols.push(self.qualified()?);
        }
        Ok(cols)
    }

    fn parse(mut self, name: &str) -> Result<SpcQuery> {
        self.expect_kw("select")?;

        // Select list: EXISTS | 1 | [DISTINCT] qualified (, qualified)*;
        // `None` is a Boolean query.
        let sel = match self.peek() {
            Some(Tok::One) => {
                self.next();
                None
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("exists") => {
                self.next();
                None
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("distinct") => {
                // SPC results are sets anyway; accept and ignore.
                self.next();
                Some(self.select_list()?)
            }
            Some(Tok::Star) => {
                return Err(CoreError::Invalid(
                    "SELECT * is not supported: SPC projections are explicit".into(),
                ))
            }
            _ => Some(self.select_list()?),
        };

        self.expect_kw("from")?;
        let mut atoms: Vec<(&str, &str)> = Vec::new(); // (relation, alias)
        loop {
            let rel = self.ident()?;
            // Optional alias (defaults to the relation name).
            let alias = match self.peek() {
                Some(Tok::Ident(s))
                    if !s.eq_ignore_ascii_case("where") && !s.eq_ignore_ascii_case("and") =>
                {
                    self.ident()?
                }
                _ => rel,
            };
            atoms.push((rel, alias));
            match self.peek() {
                Some(Tok::Comma) => {
                    self.next();
                }
                _ => break,
            }
        }

        // WHERE clause (optional).
        let mut predicates: Vec<((&str, &str), Rhs)> = Vec::new();
        if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("where")) {
            self.next();
            loop {
                let lhs = self.qualified()?;
                match self.next() {
                    Some(Tok::Eq) => {}
                    other => {
                        return Err(CoreError::Invalid(format!(
                            "expected `=` (SPC supports only equality), found {other:?}"
                        )))
                    }
                }
                let rhs = match self.next() {
                    Some(Tok::Ident(alias)) => {
                        match self.next() {
                            Some(Tok::Dot) => {}
                            other => {
                                return Err(CoreError::Invalid(format!(
                                    "expected `.` after `{alias}`, found {other:?}"
                                )))
                            }
                        }
                        Rhs::Attr(alias, self.ident()?)
                    }
                    Some(Tok::Param(p)) => Rhs::Param(p),
                    Some(Tok::Slot(slot)) => Rhs::Slot(slot),
                    other => match other.and_then(Tok::literal) {
                        Some(v) => Rhs::Const(v),
                        None => {
                            return Err(CoreError::Invalid(format!(
                                "expected attribute, constant or ?param, found {other:?}"
                            )))
                        }
                    },
                };
                predicates.push((lhs, rhs));
                match self.peek() {
                    Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("and") => {
                        self.next();
                    }
                    None => break,
                    other => {
                        return Err(CoreError::Invalid(format!(
                            "expected `AND` or end of query, found {other:?}"
                        )))
                    }
                }
            }
        } else if self.peek().is_some() {
            return Err(CoreError::Invalid(format!(
                "expected `WHERE` or end of query, found {:?}",
                self.peek()
            )));
        }

        // Assemble through the builder (which does all name resolution).
        let mut b: QueryBuilder = SpcQuery::builder(self.catalog, name);
        for (rel, alias) in atoms {
            b = b.atom(rel, alias);
        }
        for (lhs, rhs) in predicates {
            b = match rhs {
                Rhs::Attr(alias, attr) => b.eq(lhs, (alias, attr)),
                Rhs::Const(v) => b.eq_const(lhs, v),
                Rhs::Param(p) => b.eq_param(lhs, p),
                Rhs::Slot(slot) => b.eq_param(lhs, &lifted_slot_name(slot)),
            };
        }
        for col in sel.into_iter().flatten() {
            b = b.project(col);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebcheck::ebcheck;
    use crate::query::fixtures::{a0, photos_catalog, q0};

    #[test]
    fn parses_q0_equivalently() {
        let sql = "
            SELECT ia.photo_id
            FROM in_album ia, friends f, tagging t
            WHERE ia.album_id = 'a0'
              AND f.user_id = 'u0'
              AND ia.photo_id = t.photo_id
              AND t.tagger_id = f.friend_id
              AND t.taggee_id = 'u0'";
        let q = parse_spc(photos_catalog(), "Q0", sql).unwrap();
        assert_eq!(q, q0());
        assert!(ebcheck(&q, &a0()).effectively_bounded);
    }

    #[test]
    fn parses_parameters() {
        let sql = "SELECT ia.photo_id FROM in_album ia WHERE ia.album_id = ?aid";
        let q = parse_spc(photos_catalog(), "tpl", sql).unwrap();
        assert_eq!(q.placeholder_names(), vec!["aid"]);
    }

    #[test]
    fn parses_boolean_queries() {
        for sel in ["SELECT 1", "SELECT EXISTS"] {
            let sql = format!("{sel} FROM friends f WHERE f.user_id = 'u0'");
            let q = parse_spc(photos_catalog(), "b", &sql).unwrap();
            assert!(q.is_boolean());
            assert_eq!(q.num_sel(), 1);
        }
    }

    #[test]
    fn default_alias_is_relation_name() {
        let sql = "SELECT friends.friend_id FROM friends WHERE friends.user_id = 7";
        let q = parse_spc(photos_catalog(), "d", sql).unwrap();
        assert_eq!(q.atoms()[0].alias, "friends");
        assert_eq!(q.num_sel(), 1);
    }

    #[test]
    fn distinct_is_accepted_and_ignored() {
        let sql = "SELECT DISTINCT f.friend_id FROM friends f";
        let q = parse_spc(photos_catalog(), "d", sql).unwrap();
        assert_eq!(q.projection().len(), 1);
    }

    #[test]
    fn self_joins_via_aliases() {
        let sql = "SELECT f1.user_id, f2.friend_id
                   FROM friends f1, friends f2
                   WHERE f1.friend_id = f2.user_id";
        let q = parse_spc(photos_catalog(), "sj", sql).unwrap();
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.num_prod(), 1);
    }

    #[test]
    fn integer_and_negative_constants() {
        let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = -42";
        let q = parse_spc(photos_catalog(), "neg", sql).unwrap();
        assert_eq!(q.num_sel(), 1);
        // The literal 1 also works as a constant on the right-hand side.
        let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 1";
        let q = parse_spc(photos_catalog(), "one", sql).unwrap();
        assert_eq!(q.num_sel(), 1);
    }

    #[test]
    fn rejects_non_spc_syntax() {
        let cat = photos_catalog();
        for (sql, why) in [
            ("SELECT * FROM friends f", "star"),
            (
                "SELECT f.friend_id FROM friends f WHERE f.user_id < 3",
                "non-equality",
            ),
            (
                "SELECT f.friend_id FROM friends f WHERE f.user_id = 'x' OR f.user_id = 'y'",
                "OR",
            ),
            ("SELECT friend_id FROM friends f", "unqualified attribute"),
            ("FROM friends f", "missing select"),
            (
                "SELECT f.friend_id FROM friends f WHERE f.user_id = 'unterminated",
                "string",
            ),
        ] {
            assert!(parse_spc(cat.clone(), "bad", sql).is_err(), "{why}: {sql}");
        }
    }

    #[test]
    fn rejects_unknown_names_via_builder() {
        let cat = photos_catalog();
        assert!(parse_spc(cat.clone(), "bad", "SELECT g.x FROM ghosts g").is_err());
        assert!(parse_spc(cat, "bad", "SELECT f.nope FROM friends f").is_err());
    }

    #[test]
    fn whitespace_and_case_insensitive_keywords() {
        let sql = "select\n\tf.friend_id\nfrom friends f\nwhere f.user_id='u0'";
        let q = parse_spc(photos_catalog(), "ws", sql).unwrap();
        assert_eq!(q.num_sel(), 1);
    }

    #[test]
    fn render_roundtrips_q0() {
        let q = q0();
        let sql = render_sql(&q).unwrap();
        let back = parse_spc(photos_catalog(), q.name(), &sql).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn render_roundtrips_booleans_and_params() {
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "b")
            .atom("friends", "f")
            .eq_param(("f", "user_id"), "u")
            .eq_const(("f", "friend_id"), 7)
            .build()
            .unwrap();
        let sql = render_sql(&q).unwrap();
        assert!(sql.contains("SELECT EXISTS"), "{sql}");
        assert!(sql.contains("?u"), "{sql}");
        let back = parse_spc(cat, "b", &sql).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn render_rejects_unprintable_constants() {
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "bad")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "it's")
            .build()
            .unwrap();
        assert!(render_sql(&q).is_err());
        let q = SpcQuery::builder(cat, "null")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), Value::Null)
            .build()
            .unwrap();
        assert!(render_sql(&q).is_err());
    }

    #[test]
    fn render_roundtrips_the_whole_workload_shape() {
        // Structural check on a self-join with multiple projections.
        let cat = photos_catalog();
        let q = SpcQuery::builder(cat.clone(), "sj")
            .atom("friends", "f1")
            .atom("friends", "f2")
            .eq(("f1", "friend_id"), ("f2", "user_id"))
            .eq_const(("f1", "user_id"), 3)
            .project(("f1", "user_id"))
            .project(("f2", "friend_id"))
            .build()
            .unwrap();
        let back = parse_spc(cat, "sj", &render_sql(&q).unwrap()).unwrap();
        assert_eq!(back, q);
    }

    fn scan(sql: &str) -> (String, Vec<Value>) {
        let (mut key, mut values) = (String::new(), Vec::new());
        SqlShape::scan(sql, &mut key, &mut values).unwrap();
        (key, values)
    }

    fn lifted_bindings(values: &[Value]) -> std::collections::BTreeMap<String, Value> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (lifted_slot_name(i + 1), v.clone()))
            .collect()
    }

    #[test]
    fn scan_lifts_where_literals_and_collapses_whitespace() {
        let (key, values) = scan(
            "SELECT  f.friend_id\n FROM friends f\tWHERE f.user_id = 'two words' \
             AND f.friend_id=-7 AND f.user_id = ?me AND f.friend_id = 1",
        );
        assert_eq!(
            key,
            "SELECT f.friend_id FROM friends f WHERE f.user_id=$ AND f.friend_id=$ \
             AND f.user_id=?me AND f.friend_id=$"
        );
        assert_eq!(
            values,
            vec![Value::str("two words"), Value::int(-7), Value::int(1)]
        );
        // Same shape, other constants (and another type): same key.
        let (other, _) = scan(
            "SELECT f.friend_id FROM friends f WHERE f.user_id = 9 AND f.friend_id = 'x' \
             AND f.user_id = ?me AND f.friend_id = 'and'",
        );
        assert_eq!(other, key);
    }

    #[test]
    fn scan_leaves_boolean_heads_and_parameters_alone() {
        let (key, values) = scan("SELECT 1 FROM friends f WHERE f.user_id = ?u");
        assert_eq!(key, "SELECT 1 FROM friends f WHERE f.user_id=?u");
        assert!(values.is_empty());
        let (key, values) = scan("SELECT EXISTS FROM friends f WHERE f.user_id = 1");
        assert_eq!(key, "SELECT EXISTS FROM friends f WHERE f.user_id=$");
        assert_eq!(values, vec![Value::int(1)]);
    }

    #[test]
    fn template_names_slots_by_occurrence_and_instantiates_back() {
        let sql = "SELECT ia.photo_id FROM in_album ia, tagging t \
                   WHERE ia.album_id = 'a0' AND t.photo_id = ia.photo_id \
                   AND t.taggee_id = 'a0' AND t.tagger_id = ?who";
        let (mut key, mut values) = (String::new(), Vec::new());
        let shape = SqlShape::scan(sql, &mut key, &mut values).unwrap();
        let tpl = shape.template(photos_catalog(), "t").unwrap();
        // One slot per occurrence, even for a repeated value.
        assert_eq!(tpl.placeholder_names(), vec!["$1", "$2", "who"]);
        assert_eq!(
            tpl.instantiate(&lifted_bindings(&values)),
            parse_spc(photos_catalog(), "t", sql).unwrap()
        );
    }

    #[test]
    fn lifted_slot_names_cannot_be_written_in_a_text() {
        let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = ?$1";
        assert!(parse_spc(photos_catalog(), "bad", sql).is_err());
        let (mut key, mut values) = (String::new(), Vec::new());
        assert!(SqlShape::scan(sql, &mut key, &mut values).is_err());
    }

    #[test]
    fn scan_reports_lexical_errors_and_template_reports_parse_errors() {
        let (mut key, mut values) = (String::new(), Vec::new());
        assert!(SqlShape::scan("SELECT f.x FROM f WHERE f.x < 3", &mut key, &mut values).is_err());
        key.clear();
        let shape = SqlShape::scan("SELECT f.friend_id friends f", &mut key, &mut values).unwrap();
        assert!(shape.template(photos_catalog(), "bad").is_err());
    }

    /// The proptests' model of a token, independent of the lexer.
    #[derive(Debug, Clone, PartialEq)]
    enum Model {
        Word(&'static str),
        Int(i64),
        Str(&'static str),
        Param(&'static str),
        Punct(char),
        Slot,
    }

    // Small alphabets that overlap across token kinds, so that a key
    // rendering which confused a string with a word, a parameter with a
    // word, two words with one, or a written `$` with a slot would be
    // caught by two short random streams colliding.
    const WORDS: [&str; 7] = ["select", "where", "and", "a", "b", "ab", "k"];
    const INTS: [i64; 4] = [-3, 0, 1, 7];
    const STRS: [&str; 6] = ["a", "a b", "7", "$", "a=7", ""];
    const PARAMS: [&str; 2] = ["k", "a"];
    const PUNCT: [char; 4] = ['.', ',', '=', '*'];
    const GAPS: [&str; 3] = [" ", "  ", "\n\t"];

    fn model_token(pick: usize) -> Model {
        // `=` and literals are over-represented so lifted positions are common.
        match pick % 10 {
            0..=2 => Model::Word(WORDS[pick / 10 % WORDS.len()]),
            3 | 4 => Model::Int(INTS[pick / 10 % INTS.len()]),
            5 => Model::Str(STRS[pick / 10 % STRS.len()]),
            6 => Model::Param(PARAMS[pick / 10 % PARAMS.len()]),
            7 | 8 => Model::Punct('='),
            _ => Model::Punct(PUNCT[pick / 10 % PUNCT.len()]),
        }
    }

    /// Renders model tokens to text; `gaps` picks the whitespace (always
    /// some between two non-punctuation tokens, possibly none elsewhere).
    fn render_model(tokens: &[Model], gaps: usize) -> String {
        let mut out = String::new();
        let mut after_word = false;
        for (i, t) in tokens.iter().enumerate() {
            let word = !matches!(t, Model::Punct(_));
            let gap = (gaps >> (i % 16)) % 4;
            if word && after_word {
                out.push_str(GAPS[gap % GAPS.len()]);
            } else if gap > 0 {
                out.push_str(GAPS[gap - 1]);
            }
            after_word = word;
            match t {
                Model::Word(w) => out.push_str(w),
                Model::Int(v) => out.push_str(&v.to_string()),
                Model::Str(v) => out.push_str(&format!("'{v}'")),
                Model::Param(name) => out.push_str(&format!("?{name}")),
                Model::Punct(c) => out.push(*c),
                Model::Slot => unreachable!("slots are not written"),
            }
        }
        out
    }

    /// The model's shape: literals directly after `=` become slots. Returns
    /// the lifted values beside it.
    fn model_shape(tokens: &[Model]) -> (Vec<Model>, Vec<Value>) {
        let mut values = Vec::new();
        let mut after_eq = false;
        let shape = tokens
            .iter()
            .map(|t| {
                let lifted = match t {
                    Model::Int(v) if after_eq => Some(Value::int(*v)),
                    Model::Str(v) if after_eq => Some(Value::str(v)),
                    _ => None,
                };
                after_eq = *t == Model::Punct('=');
                match lifted {
                    Some(v) => {
                        values.push(v);
                        Model::Slot
                    }
                    None => t.clone(),
                }
            })
            .collect();
        (shape, values)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Two texts get the same shape key iff their token streams agree
        /// modulo lifted literals, and the lifted values are those
        /// literals in order.
        #[test]
        fn shape_keys_agree_iff_tokens_agree_modulo_lifted_literals(
            picks in prop::collection::vec(0..1000usize, 0..6),
            other_picks in prop::collection::vec(0..1000usize, 0..6),
            mutation in 0..5usize,
            at in 0..6usize,
            gaps in (any::<usize>(), any::<usize>()),
        ) {
            let a: Vec<Model> = picks.iter().map(|&p| model_token(p)).collect();
            let b: Vec<Model> = match mutation {
                // The same tokens, laid out differently.
                0 => a.clone(),
                // Every literal takes another value (of either type).
                1 => a
                    .iter()
                    .enumerate()
                    .map(|(i, t)| match t {
                        Model::Int(_) | Model::Str(_) if (at + i) % 2 == 0 => {
                            Model::Int(INTS[(at + i) % INTS.len()])
                        }
                        Model::Int(_) | Model::Str(_) => Model::Str(STRS[(at + i) % STRS.len()]),
                        other => other.clone(),
                    })
                    .collect(),
                // One token replaced.
                2 if !a.is_empty() => {
                    let mut b = a.clone();
                    b[at % a.len()] = model_token(other_picks.first().copied().unwrap_or(7));
                    b
                }
                // One word split in two.
                3 if a.contains(&Model::Word("ab")) => a
                    .iter()
                    .flat_map(|t| match t {
                        Model::Word("ab") => vec![Model::Word("a"), Model::Word("b")],
                        other => vec![other.clone()],
                    })
                    .collect(),
                _ => other_picks.iter().map(|&p| model_token(p)).collect(),
            };
            let (key_a, values_a) = scan(&render_model(&a, gaps.0));
            let (key_b, _) = scan(&render_model(&b, gaps.1));
            let (shape_a, model_values) = model_shape(&a);
            let (shape_b, _) = model_shape(&b);
            prop_assert_eq!(key_a == key_b, shape_a == shape_b, "{:?} vs {:?}", a, b);
            prop_assert_eq!(values_a, model_values);
        }

        /// The template parsed from the scanned tokens, instantiated with
        /// the lifted values, is `parse_spc` of the original text.
        #[test]
        fn template_instantiated_with_lifted_values_is_the_parsed_text(
            atoms in prop::collection::vec(0..3usize, 1..4),
            preds in prop::collection::vec((0..9usize, 0..9usize, 0..5usize, 0..20usize), 0..7),
            proj in prop::collection::vec(0..9usize, 0..3),
            head in 0..3usize,
        ) {
            const RELS: [(&str, &[&str]); 3] = [
                ("in_album", &["photo_id", "album_id"]),
                ("friends", &["user_id", "friend_id"]),
                ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
            ];
            // `pick`-th attribute of the query, as `alias.attr`.
            let attr = |pick: usize| {
                let atom = pick % atoms.len();
                let cols = RELS[atoms[atom]].1;
                format!("t{atom}.{}", cols[pick / atoms.len() % cols.len()])
            };
            let select = match (head, proj.is_empty()) {
                (0, _) | (_, true) => ["1", "EXISTS"][head % 2].to_string(),
                _ => proj.iter().map(|&p| attr(p)).collect::<Vec<_>>().join(", "),
            };
            let from: Vec<String> = atoms
                .iter()
                .enumerate()
                .map(|(i, &r)| format!("{} t{i}", RELS[r].0))
                .collect();
            let conds: Vec<String> = preds
                .iter()
                .map(|&(l, r, kind, v)| {
                    let rhs = match kind {
                        0 => attr(r),
                        1 => format!("?p{}", v % 2),
                        // -1, 0 and 1 among them: `Tok::One` and negatives.
                        2 | 3 => (v as i64 - 1).to_string(),
                        _ => format!("'{}'", ["a0", "two words", "and", "select 1"][v % 4]),
                    };
                    format!("{} = {rhs}", attr(l))
                })
                .collect();
            let mut sql = format!("SELECT {select} FROM {}", from.join(", "));
            if !conds.is_empty() {
                sql.push_str(" WHERE ");
                sql.push_str(&conds.join(" AND "));
            }

            let parsed = parse_spc(photos_catalog(), "q", &sql).unwrap();
            let (mut key, mut values) = (String::new(), Vec::new());
            let shape = SqlShape::scan(&sql, &mut key, &mut values).unwrap();
            let template = shape.template(photos_catalog(), "q").unwrap();
            let literals = preds.iter().filter(|p| p.2 >= 2).count();
            prop_assert_eq!(values.len(), literals, "{}", sql);
            prop_assert_eq!(template.instantiate(&lifted_bindings(&values)), parsed, "{}", sql);
        }
    }
}
