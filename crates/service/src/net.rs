//! A concurrent TCP front end for [`Server`] — length-prefixed frames
//! over plain threads, no async runtime.
//!
//! The serving tier's concurrency claims (per-relation write latches,
//! group commit, lock-free snapshot reads) only mean something if real
//! concurrent clients exercise them through a real request path. This
//! module provides that path:
//!
//! * **Wire format** — every message (both directions) is one frame:
//!   a little-endian `u32` payload length followed by that many bytes of
//!   UTF-8 text. Small, inspectable, and trivially correct to parse.
//! * **Threading model** — [`NetServer::bind`] spawns one accept thread;
//!   each accepted connection gets its own thread owning a [`Session`],
//!   so per-connection state (the session's query-text buffers, the
//!   per-thread parameter environment) works exactly as it does for
//!   embedded callers; what a connection serves is counted server-wide,
//!   in [`Server::metrics_snapshot`]. No executor, no reactors: the
//!   kernel's scheduler is the only scheduler.
//! * **Commands** — a deliberately tiny text grammar (one line per
//!   request): `PING`, `EXEC <template> [param=value …]`,
//!   `SQL <query text>`, `INSERT <rel> <value …>`,
//!   `DELETE <rel> <value …>`. Values are typed tokens: `i:42`
//!   (integer), `s:alice` (string), `n:` (null). Templates are compiled
//!   [`SpcQuery`]s registered at bind time and served through the plan
//!   cache, so a network `EXEC` takes the same prepared fast path an
//!   embedded [`Session::query`] does. `SQL` carries ad-hoc text —
//!   everything after the verb, constants written as SQL literals — to
//!   [`Session::query_sql`], which serves it from the plan cache by the
//!   text's shape; its reply has the grammar of `EXEC`'s.
//!
//! The value tokens are whitespace-delimited, so string values must be
//! single tokens (no spaces/tabs/newlines) — which every workload
//! identifier is. [`NetClient`] enforces this on send.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] flips a flag, unblocks `accept` with a
//! self-connection, then joins the accept thread and every connection
//! thread. Connection threads exit when their peer disconnects, so
//! callers drop their [`NetClient`]s first.

use crate::server::{Response, Server, Session};
use bcq_core::prelude::{SpcQuery, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Upper bound on a single frame's payload (defense against a corrupt or
/// hostile length prefix, not a practical limit — a million-row answer of
/// short tokens fits comfortably).
const MAX_FRAME: u32 = 64 << 20;

/// Errors surfaced by [`NetClient`] calls.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (socket closed, frame malformed, …).
    Io(io::Error),
    /// The server answered `ERR …` — the request reached it and failed.
    Remote(String),
    /// The reply (or an argument) did not match the protocol grammar.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Remote(m) => write!(f, "server error: {m}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one `[u32 LE len][payload]` frame.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    // One write per frame: splitting the length prefix and payload into
    // separate writes lets Nagle hold the payload behind the unacked
    // prefix segment, and the peer's delayed ACK turns every round trip
    // into a ~40 ms stall.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed cleanly **between**
/// frames; a close mid-frame is an error.
fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len[..1])? {
        0 => return Ok(None), // clean EOF
        _ => r.read_exact(&mut len[1..])?,
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds limit"),
        ));
    }
    let mut buf = vec![0u8; n as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

// ---------------------------------------------------------------------
// Typed value tokens
// ---------------------------------------------------------------------

/// Renders a value as a wire token. Fails on strings that are not single
/// whitespace-free tokens (the grammar could not round-trip them).
fn fmt_value(v: &Value) -> Result<String, NetError> {
    match v {
        Value::Null => Ok("n:".to_string()),
        Value::Int(i) => Ok(format!("i:{i}")),
        Value::Str(s) => {
            if s.is_empty() || s.chars().any(char::is_whitespace) {
                return Err(NetError::Protocol(format!(
                    "string {s:?} is not a single non-empty token"
                )));
            }
            Ok(format!("s:{s}"))
        }
    }
}

/// Parses a wire token back into a value.
fn parse_value(tok: &str) -> Result<Value, String> {
    if let Some(i) = tok.strip_prefix("i:") {
        return i
            .parse::<i64>()
            .map(Value::int)
            .map_err(|_| format!("bad integer token {tok:?}"));
    }
    if let Some(s) = tok.strip_prefix("s:") {
        if s.is_empty() {
            return Err("empty string token".to_string());
        }
        return Ok(Value::str(s));
    }
    if tok == "n:" {
        return Ok(Value::Null);
    }
    Err(format!("unknown value token {tok:?} (want i:/s:/n:)"))
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

struct NetInner {
    server: Arc<Server>,
    /// Templates registered at bind time, keyed by query name. Immutable
    /// afterwards, so connection threads read it lock-free.
    templates: BTreeMap<String, SpcQuery>,
    stop: AtomicBool,
    /// Frames answered across all connections (including errors).
    served: AtomicU64,
    /// Connection-thread handles, joined on shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A listening front end over a [`Server`]. Dropping it without calling
/// [`NetServer::shutdown`] leaks the accept thread until process exit.
pub struct NetServer {
    inner: Arc<NetInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port), registers the
    /// query `templates` by name, and starts accepting connections.
    pub fn bind(
        server: Arc<Server>,
        templates: &[SpcQuery],
        addr: impl ToSocketAddrs,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(NetInner {
            server,
            templates: templates
                .iter()
                .map(|q| (q.name().to_string(), q.clone()))
                .collect(),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_inner));
        Ok(NetServer {
            inner,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total frames answered so far across all connections.
    pub fn frames_served(&self) -> u64 {
        self.inner.served.load(Ordering::Relaxed)
    }

    /// Stops accepting, then joins the accept thread and every
    /// connection thread. Callers must drop their clients first —
    /// connection threads run until their peer hangs up.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns =
            std::mem::take(&mut *self.inner.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for h in conns {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<NetInner>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return; // the shutdown self-connection (or a late client)
        }
        let conn_inner = Arc::clone(&inner);
        let handle = std::thread::spawn(move || serve_conn(stream, conn_inner));
        inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
}

/// One connection: a dedicated thread owning a [`Session`], answering
/// frames until the peer disconnects.
fn serve_conn(mut stream: TcpStream, inner: Arc<NetInner>) {
    // Request/reply framing: every reply must hit the wire immediately,
    // not sit in the kernel waiting for more data to coalesce.
    let _ = stream.set_nodelay(true);
    let mut session = inner.server.session();
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let reply = match std::str::from_utf8(&payload) {
            Ok(line) => handle_request(line, &mut session, &inner.templates),
            Err(_) => "ERR request is not UTF-8".to_string(),
        };
        inner.served.fetch_add(1, Ordering::Relaxed);
        if write_frame(&mut stream, reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Executes one request line; always returns a reply payload (`OK …` or
/// `ERR …`, with `EXEC` answers appending one line per row).
fn handle_request(
    line: &str,
    session: &mut Session,
    templates: &BTreeMap<String, SpcQuery>,
) -> String {
    match dispatch(line, session, templates) {
        Ok(reply) => reply,
        // Keep errors single-line so the reply grammar stays trivial.
        Err(msg) => format!("ERR {}", msg.replace(['\n', '\r'], " ")),
    }
}

fn dispatch(
    line: &str,
    session: &mut Session,
    templates: &BTreeMap<String, SpcQuery>,
) -> Result<String, String> {
    let line = line.trim_start();
    let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let mut toks = rest.split_whitespace();
    match cmd {
        "" => Err("empty request".to_string()),
        "PING" => Ok("OK pong".to_string()),
        "EXEC" => {
            let name = toks.next().ok_or("EXEC needs a template name")?;
            let tpl = templates
                .get(name)
                .ok_or_else(|| format!("unknown template {name:?}"))?;
            let mut bind = BTreeMap::new();
            for tok in toks {
                let (param, val) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("binding {tok:?} is not param=value"))?;
                bind.insert(param.to_string(), parse_value(val)?);
            }
            answer(session.query(tpl, &bind))
        }
        "SQL" => answer(session.query_sql("sql", rest, &BTreeMap::new())),
        "INSERT" => {
            let rel = toks.next().ok_or("INSERT needs a relation name")?;
            let row = toks.map(parse_value).collect::<Result<Vec<_>, _>>()?;
            let rid = session.insert(rel, &row).map_err(|e| e.to_string())?;
            Ok(format!("OK {rid}"))
        }
        "DELETE" => {
            let rel = toks.next().ok_or("DELETE needs a relation name")?;
            let row = toks.map(parse_value).collect::<Result<Vec<_>, _>>()?;
            let deleted = session.delete(rel, &row).map_err(|e| e.to_string())?;
            Ok(format!("OK {deleted}"))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Renders a query's reply — `EXEC`'s and `SQL`'s alike: `OK <count>`,
/// then one line of tab-separated value tokens per row.
fn answer(resp: crate::Result<Response>) -> Result<String, String> {
    let resp = resp.map_err(|e| e.to_string())?;
    let rows = resp
        .rows()
        .ok_or("query did not finish within its budget")?;
    let mut out = format!("OK {}", rows.len());
    for row in rows.rows() {
        out.push('\n');
        let mut first = true;
        for v in row.iter() {
            if !first {
                out.push('\t');
            }
            first = false;
            out.push_str(&fmt_value(v).map_err(|e| e.to_string())?);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// A blocking client for the framed protocol: one request in flight at a
/// time per connection (spawn one client per thread for concurrency).
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply round trips; Nagle only adds latency here.
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// Sends one request line, returns the reply payload with the
    /// leading `OK ` stripped (a remote `ERR` becomes [`NetError::Remote`]).
    fn round_trip(&mut self, line: &str) -> Result<String, NetError> {
        write_frame(&mut self.stream, line.as_bytes())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| NetError::Protocol("server closed the connection".to_string()))?;
        let text = String::from_utf8(payload)
            .map_err(|_| NetError::Protocol("reply is not UTF-8".to_string()))?;
        if let Some(rest) = text.strip_prefix("OK") {
            Ok(rest.strip_prefix(' ').unwrap_or(rest).to_string())
        } else if let Some(msg) = text.strip_prefix("ERR ") {
            Err(NetError::Remote(msg.to_string()))
        } else {
            Err(NetError::Protocol(format!("malformed reply {text:?}")))
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let r = self.round_trip("PING")?;
        if r == "pong" {
            Ok(())
        } else {
            Err(NetError::Protocol(format!("unexpected pong {r:?}")))
        }
    }

    /// Executes a registered template with the given bindings; returns
    /// the answer rows (sorted and deduplicated, like the embedded API).
    pub fn exec(
        &mut self,
        template: &str,
        bindings: &[(&str, Value)],
    ) -> Result<Vec<Vec<Value>>, NetError> {
        let mut line = format!("EXEC {template}");
        for (param, v) in bindings {
            line.push(' ');
            line.push_str(param);
            line.push('=');
            line.push_str(&fmt_value(v)?);
        }
        let reply = self.round_trip(&line)?;
        parse_rows(&reply)
    }

    /// Executes an ad-hoc query text (constants written as SQL literals);
    /// the server serves it from its plan cache by the text's shape.
    /// Returns the answer rows like [`NetClient::exec`].
    pub fn sql(&mut self, text: &str) -> Result<Vec<Vec<Value>>, NetError> {
        let reply = self.round_trip(&format!("SQL {text}"))?;
        parse_rows(&reply)
    }

    /// Inserts one row through the server's maintained write path;
    /// returns the row id.
    pub fn insert(&mut self, rel: &str, row: &[Value]) -> Result<u32, NetError> {
        let mut line = format!("INSERT {rel}");
        for v in row {
            line.push(' ');
            line.push_str(&fmt_value(v)?);
        }
        let reply = self.round_trip(&line)?;
        reply
            .parse()
            .map_err(|_| NetError::Protocol(format!("bad row id {reply:?}")))
    }

    /// Deletes one copy of a row; `false` if no copy was stored.
    pub fn delete(&mut self, rel: &str, row: &[Value]) -> Result<bool, NetError> {
        let mut line = format!("DELETE {rel}");
        for v in row {
            line.push(' ');
            line.push_str(&fmt_value(v)?);
        }
        let reply = self.round_trip(&line)?;
        reply
            .parse()
            .map_err(|_| NetError::Protocol(format!("bad delete reply {reply:?}")))
    }
}

/// Parses a query reply (`OK ` already stripped): the row count, then one
/// line of tab-separated value tokens per row.
fn parse_rows(reply: &str) -> Result<Vec<Vec<Value>>, NetError> {
    let mut lines = reply.split('\n');
    let count: usize = lines
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| NetError::Protocol("missing row count".to_string()))?;
    let mut rows = Vec::with_capacity(count);
    for line in lines {
        let row = if line.is_empty() {
            Vec::new() // the empty projection tuple of a Boolean query
        } else {
            line.split('\t')
                .map(|t| parse_value(t).map_err(NetError::Protocol))
                .collect::<Result<Vec<_>, _>>()?
        };
        rows.push(row);
    }
    if rows.len() != count {
        return Err(NetError::Protocol(format!(
            "row count mismatch: header {count}, body {}",
            rows.len()
        )));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use bcq_core::prelude::{AccessSchema, Catalog};
    use bcq_storage::Database;

    fn boot() -> (Arc<Server>, SpcQuery) {
        let catalog = Catalog::from_names(&[("friends", &["user_id", "friend_id"])]).unwrap();
        let mut access = AccessSchema::new(catalog.clone());
        access
            .add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        let mut db = Database::new(catalog.clone());
        for i in 0..8 {
            db.insert("friends", &[Value::str("u0"), Value::str(format!("f{i}"))])
                .unwrap();
        }
        let server = Arc::new(Server::new(db, access, ServerConfig::default()));
        let tpl = SpcQuery::builder(catalog, "friends_of")
            .atom("friends", "f")
            .eq_param(("f", "user_id"), "uid")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        (server, tpl)
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());

        let mut bad = Vec::from((MAX_FRAME + 1).to_le_bytes());
        bad.extend_from_slice(b"x");
        assert!(read_frame(&mut &bad[..]).is_err());
    }

    #[test]
    fn value_tokens_round_trip() {
        for v in [Value::int(-7), Value::str("alice"), Value::Null] {
            let tok = fmt_value(&v).unwrap();
            assert_eq!(parse_value(&tok).unwrap(), v);
        }
        assert!(fmt_value(&Value::str("two words")).is_err());
        assert!(fmt_value(&Value::str("")).is_err());
        assert!(parse_value("i:notanint").is_err());
        assert!(parse_value("x:?").is_err());
    }

    #[test]
    fn network_answers_match_embedded_session() {
        let (server, tpl) = boot();
        let net = NetServer::bind(
            Arc::clone(&server),
            std::slice::from_ref(&tpl),
            "127.0.0.1:0",
        )
        .unwrap();

        let mut client = NetClient::connect(net.addr()).unwrap();
        client.ping().unwrap();

        let rows = client
            .exec("friends_of", &[("uid", Value::str("u0"))])
            .unwrap();
        let mut session = server.session();
        let mut bind = BTreeMap::new();
        bind.insert("uid".to_string(), Value::str("u0"));
        let embedded = session.query(&tpl, &bind).unwrap();
        let expect: Vec<Vec<Value>> = embedded
            .rows()
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(rows, expect);
        assert_eq!(rows.len(), 8);

        // Writes through the wire are real maintained writes.
        client
            .insert("friends", &[Value::str("u0"), Value::str("f_new")])
            .unwrap();
        assert_eq!(
            client
                .exec("friends_of", &[("uid", Value::str("u0"))])
                .unwrap()
                .len(),
            9
        );
        assert!(client
            .delete("friends", &[Value::str("u0"), Value::str("f_new")])
            .unwrap());
        assert!(!client
            .delete("friends", &[Value::str("u0"), Value::str("f_new")])
            .unwrap());

        // Errors come back as Remote, and the connection stays usable.
        match client.exec("no_such_template", &[]) {
            Err(NetError::Remote(m)) => assert!(m.contains("unknown template")),
            other => panic!("expected remote error, got {other:?}"),
        }
        match client.insert("no_such_rel", &[Value::int(1)]) {
            Err(NetError::Remote(_)) => {}
            other => panic!("expected remote error, got {other:?}"),
        }
        client.ping().unwrap();

        assert!(net.frames_served() >= 8);
        drop(client);
        net.shutdown();
    }

    #[test]
    fn sql_verb_round_trips_ad_hoc_text() {
        let (server, tpl) = boot();
        let net = NetServer::bind(Arc::clone(&server), &[tpl], "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(net.addr()).unwrap();

        let via_exec = client
            .exec("friends_of", &[("uid", Value::str("u0"))])
            .unwrap();
        let via_sql = client
            .sql("SELECT f.friend_id\n  FROM friends f\n  WHERE f.user_id = 'u0'")
            .unwrap();
        assert_eq!(via_sql, via_exec);
        assert_eq!(via_sql.len(), 8);
        // Another literal, same shape: served from the plan cache.
        let misses = server.cache_stats().misses;
        assert!(client
            .sql("SELECT f.friend_id FROM friends f WHERE f.user_id = 'nobody'")
            .unwrap()
            .is_empty());
        assert_eq!(server.cache_stats().misses, misses);
        // A Boolean head answers with the empty tuple.
        assert_eq!(
            client
                .sql("SELECT 1 FROM friends f WHERE f.user_id = 'u0'")
                .unwrap(),
            vec![Vec::<Value>::new()]
        );

        // A parse error is one `ERR` line, and the connection lives on.
        match client.sql("SELECT f.friend_id\nFROM friends f\nWHERE f.user_id <\n3") {
            Err(NetError::Remote(m)) => {
                assert!(m.contains("unexpected character"), "{m}");
                assert!(!m.contains('\n'), "{m:?}");
            }
            other => panic!("expected remote error, got {other:?}"),
        }
        match client.sql("") {
            Err(NetError::Remote(m)) => assert!(m.contains("expected `select`"), "{m}"),
            other => panic!("expected remote error, got {other:?}"),
        }
        client.ping().unwrap();
        drop(client);
        net.shutdown();
    }

    #[test]
    fn garbage_after_the_sql_verb_does_not_kill_the_connection() {
        let (server, tpl) = boot();
        let net = NetServer::bind(Arc::clone(&server), &[tpl], "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(net.addr()).unwrap();
        let mut ask = |payload: &[u8]| {
            write_frame(&mut stream, payload).unwrap();
            String::from_utf8(read_frame(&mut stream).unwrap().unwrap()).unwrap()
        };
        // Not UTF-8, control bytes, an unterminated string, a lone verb,
        // and a multi-byte character cut by nothing but the lexer.
        for payload in [
            &b"SQL \xff\xfe\x00"[..],
            b"SQL \x00\x01\x02 = = =",
            b"SQL SELECT f.friend_id FROM friends f WHERE f.user_id = 'open",
            b"SQL",
            b"SQL   ",
            "SQL SELECT \u{1F980} FROM \u{00e9}".as_bytes(),
            b"SQL ?",
            b"SQL -",
            b"SQL 99999999999999999999999",
        ] {
            let reply = ask(payload);
            assert!(reply.starts_with("ERR "), "{payload:?} -> {reply:?}");
            assert!(!reply.contains('\n'), "{reply:?}");
        }
        assert_eq!(ask(b"PING"), "OK pong");
        assert!(ask(b"SQL SELECT 1 FROM friends f WHERE f.user_id = 'u0'").starts_with("OK 1"));
        drop(stream);
        net.shutdown();
    }

    #[test]
    fn concurrent_clients_interleave_reads_and_disjoint_writes() {
        let (server, tpl) = boot();
        let net = NetServer::bind(Arc::clone(&server), &[tpl], "127.0.0.1:0").unwrap();
        let addr = net.addr();

        const CLIENTS: usize = 4;
        const OPS: usize = 25;
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    for i in 0..OPS {
                        let me = format!("writer{c}");
                        let friend = format!("f{c}_{i}");
                        client
                            .insert("friends", &[Value::str(&me), Value::str(&friend)])
                            .unwrap();
                        let rows = client
                            .exec("friends_of", &[("uid", Value::str(&me))])
                            .unwrap();
                        assert_eq!(rows.len(), i + 1, "client {c} sees its own writes");
                    }
                });
            }
        });

        // Every client's rows landed; the base data is untouched.
        let mut check = NetClient::connect(addr).unwrap();
        for c in 0..CLIENTS {
            let rows = check
                .exec("friends_of", &[("uid", Value::str(format!("writer{c}")))])
                .unwrap();
            assert_eq!(rows.len(), OPS);
        }
        assert_eq!(
            check
                .exec("friends_of", &[("uid", Value::str("u0"))])
                .unwrap()
                .len(),
            8
        );
        drop(check);
        net.shutdown();
        assert_eq!(
            server.metrics_snapshot().writes.inserts,
            (CLIENTS * OPS) as u64
        );
    }
}
