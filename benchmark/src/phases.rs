//! The building blocks every workload is composed from: closed-loop
//! readers and writers over either an in-process `Session` or a loopback
//! `NetClient`, the answer check against the oracle, and the
//! checkpoint → reopen cycle.
//!
//! A closed loop sends a client's next request only when the previous one
//! has returned: a database's callers wait for their reply.

use crate::layers::Tracer;
use crate::rig::{
    binding, dir_bytes, open_server, Block, ReadOp, ReadStream, Rng, Store, Templates,
};
use crate::stats::{percentile_ns, Samples, QUIET};
use bcq_core::prelude::Value;
use bcq_exec::{baseline, BaselineOptions};
use bcq_service::{NetClient, RecoveryReport, Server, Session};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Replies recorded per client for the oracle comparison, at most.
const MAX_RECORDED: usize = 2_048;

/// How long a phase warms up (samples dropped) and then measures.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup: Duration,
    pub measure: Duration,
}

impl Window {
    pub fn secs(warmup: f64, measure: f64) -> Self {
        Window {
            warmup: Duration::from_secs_f64(warmup),
            measure: Duration::from_secs_f64(measure),
        }
    }
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// What a read returned, reduced to what the harness checks.
pub struct Reply {
    pub rows_out: u64,
    /// `RequestStats.meter.tuples_fetched`; the wire does not carry it.
    pub tuples_fetched: Option<u64>,
    /// The answer rows, when the caller asked to keep them.
    pub rows: Option<Vec<Vec<Value>>>,
}

/// One closed-loop client, in process or over the wire.
pub trait Client {
    fn read(&mut self, tpl: usize, key: i64, keep: bool) -> Result<Reply, String>;
    fn adhoc(&mut self, sql: &str, keep: bool) -> Result<Reply, String>;
    fn ping(&mut self) -> Result<(), String>;
    fn insert(&mut self, rel: &str, row: &[Value]) -> Result<(), String>;
    fn delete(&mut self, rel: &str, row: &[Value]) -> Result<bool, String>;
}

/// An embedded caller: `Session::{query, query_sql, insert, delete}`.
pub struct SessionClient {
    session: Session,
    tpls: Arc<Templates>,
    bind: BTreeMap<String, Value>,
}

impl SessionClient {
    pub fn new(server: &Arc<Server>, tpls: &Arc<Templates>) -> Self {
        SessionClient {
            session: server.session(),
            tpls: Arc::clone(tpls),
            bind: binding(0),
        }
    }

    fn reply(resp: bcq_service::Response, keep: bool) -> Result<Reply, String> {
        let rows = resp
            .rows()
            .ok_or("query did not finish within its budget")?;
        Ok(Reply {
            rows_out: rows.len() as u64,
            tuples_fetched: Some(resp.stats.meter.tuples_fetched),
            rows: keep.then(|| rows.rows().iter().map(|r| r.to_vec()).collect()),
        })
    }
}

impl Client for SessionClient {
    #[inline]
    fn read(&mut self, tpl: usize, key: i64, keep: bool) -> Result<Reply, String> {
        *self.bind.get_mut("k").expect("binding has k") = Value::Int(key);
        let resp = self
            .session
            .query(&self.tpls.queries[tpl], &self.bind)
            .map_err(|e| e.to_string())?;
        Self::reply(resp, keep)
    }

    fn adhoc(&mut self, sql: &str, keep: bool) -> Result<Reply, String> {
        let resp = self
            .session
            .query_sql("adhoc", sql, &BTreeMap::new())
            .map_err(|e| e.to_string())?;
        Self::reply(resp, keep)
    }

    fn ping(&mut self) -> Result<(), String> {
        Err("an embedded session has no PING".to_string())
    }

    fn insert(&mut self, rel: &str, row: &[Value]) -> Result<(), String> {
        self.session
            .insert(rel, row)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn delete(&mut self, rel: &str, row: &[Value]) -> Result<bool, String> {
        self.session.delete(rel, row).map_err(|e| e.to_string())
    }
}

/// A remote caller: one `NetClient` connection over loopback.
pub struct WireClient {
    client: NetClient,
    names: Vec<String>,
}

impl WireClient {
    pub fn connect(addr: std::net::SocketAddr, tpls: &Templates) -> Self {
        WireClient {
            client: NetClient::connect(addr).expect("connect to the loopback server"),
            names: tpls.queries.iter().map(|q| q.name().to_string()).collect(),
        }
    }
}

impl Client for WireClient {
    #[inline]
    fn read(&mut self, tpl: usize, key: i64, keep: bool) -> Result<Reply, String> {
        let rows = self
            .client
            .exec(&self.names[tpl], &[("k", Value::Int(key))])
            .map_err(|e| e.to_string())?;
        Ok(Reply {
            rows_out: rows.len() as u64,
            tuples_fetched: None,
            rows: keep.then_some(rows),
        })
    }

    fn adhoc(&mut self, _sql: &str, _keep: bool) -> Result<Reply, String> {
        Err("the wire protocol has no ad-hoc query command".to_string())
    }

    fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map_err(|e| e.to_string())
    }

    fn insert(&mut self, rel: &str, row: &[Value]) -> Result<(), String> {
        self.client
            .insert(rel, row)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn delete(&mut self, rel: &str, row: &[Value]) -> Result<bool, String> {
        self.client.delete(rel, row).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

/// A reply kept for the oracle comparison.
pub struct Recorded {
    pub op: ReadOp,
    pub rows: Vec<Vec<Value>>,
}

#[derive(Default)]
pub struct ReadStats {
    pub templated: Samples,
    pub adhoc: Samples,
    pub ping: Samples,
    /// Every request sent, warm-up included, and those that failed: an
    /// error reply, or a bounded plan that fetched more than `Σ Mᵢ`.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Requests that carried `RequestStats` (in-process ones), with their
    /// totals: per-request counters are these divided by `metered`.
    pub metered: u64,
    pub tuples_fetched: u64,
    pub cost_bound_sum: u64,
    pub utilisation_max: f64,
    pub rows_out: u64,
    pub recorded: Vec<Recorded>,
    /// Requests one client completed in each whole slice of its
    /// measured window; one list per client merged in.
    pub client_slices: Vec<Vec<u32>>,
}

/// The measured window is cut into slices of this length, for the quiet
/// medians and rates of [`crate::stats`].
const SLICE_MS: u32 = 100;

/// Which slice of a window a moment `since` its start falls in (64-bit
/// arithmetic: this runs once per request).
#[inline]
fn slice_of(since: Duration) -> usize {
    let per_second = u64::from(1_000 / SLICE_MS);
    (since.as_secs() * per_second + u64::from(since.subsec_millis() / SLICE_MS)) as usize
}

impl ReadStats {
    pub fn merge(&mut self, o: ReadStats) {
        self.client_slices.extend(o.client_slices);
        self.templated.merge(&o.templated);
        self.adhoc.merge(&o.adhoc);
        self.ping.merge(&o.ping);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.first_error = self.first_error.take().or(o.first_error);
        self.metered += o.metered;
        self.tuples_fetched += o.tuples_fetched;
        self.cost_bound_sum += o.cost_bound_sum;
        self.utilisation_max = self.utilisation_max.max(o.utilisation_max);
        self.rows_out += o.rows_out;
        self.recorded.extend(o.recorded);
    }

    /// Requests per second summed over the clients of one pass, each at
    /// the rate of its ninth-decile slice: the counterpart of the quiet
    /// median (see [`crate::stats`]).
    pub fn ops_per_s(&self) -> f64 {
        self.client_slices
            .iter()
            .map(|counts| f64::from(percentile_ns(&mut counts.clone(), 1.0 - QUIET)))
            .sum::<f64>()
            * f64::from(1_000 / SLICE_MS)
    }
}

/// Runs one client's read loop over `stream` for the window. `ping_every`
/// adds one `PING` per that many requests (0 = none). The replies of the
/// stream's sampled requests are recorded for the oracle; in a traced run,
/// `tracer` also replays each of them layer by layer.
pub fn run_reader<C: Client>(
    client: &mut C,
    stream: &mut ReadStream,
    tpls: &Templates,
    window: Window,
    ping_every: u64,
    mut tracer: Option<&mut Tracer>,
) -> ReadStats {
    let mut st = ReadStats::default();
    let mut slices: Vec<u32> = Vec::new();
    let warm_end = Instant::now() + window.warmup;
    let end = warm_end + window.measure;
    let mut n = 0u64;
    loop {
        let op = stream.next_op();
        n += 1;
        let keep = op.sampled;
        let sql = op.adhoc.then(|| tpls.mix.adhoc_sql(op.tpl, op.key));
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let result = match &sql {
            Some(sql) => client.adhoc(sql, keep),
            None => client.read(op.tpl, op.key, keep),
        };
        let t1 = Instant::now();
        st.attempted += 1;
        match result {
            Ok(reply) => {
                st.rows_out += reply.rows_out;
                if let Some(fetched) = reply.tuples_fetched {
                    let bound = tpls.cost_bounds[op.tpl];
                    st.metered += 1;
                    st.tuples_fetched += fetched;
                    st.cost_bound_sum += bound;
                    st.utilisation_max = st.utilisation_max.max(fetched as f64 / bound as f64);
                    if fetched > bound {
                        st.failed += 1;
                        st.first_error
                            .get_or_insert_with(|| format!("{op:?} fetched {fetched} > {bound}"));
                    }
                }
                if let Some(rows) = reply.rows {
                    if st.recorded.len() < MAX_RECORDED {
                        st.recorded.push(Recorded { op, rows });
                    }
                }
            }
            Err(e) => {
                st.failed += 1;
                st.first_error.get_or_insert(e);
            }
        }
        if t0 >= warm_end {
            let slice = slice_of(t1 - warm_end);
            if slice >= slices.len() {
                st.templated.cut();
                st.adhoc.cut();
                slices.resize(slice + 1, 0);
            }
            slices[slice] += 1;
            let class = if op.adhoc {
                &mut st.adhoc
            } else {
                &mut st.templated
            };
            class.push(t1 - t0);
        }
        if ping_every != 0 && n.is_multiple_of(ping_every) {
            let p0 = Instant::now();
            st.attempted += 1;
            if let Err(e) = client.ping() {
                st.failed += 1;
                st.first_error.get_or_insert(e);
            }
            st.ping.push(p0.elapsed());
        }
        if keep {
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.replay_read(n, op);
            }
        }
    }
    // The last slice is cut short by the end of the window.
    slices.pop();
    st.client_slices.push(slices);
    st
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct WriteStats {
    /// Latencies of the acknowledged inserts and deletes, kept apart: the
    /// two cost differently, and the median of an even mixture of two
    /// different distributions would jump between them from run to run.
    pub inserts: Samples,
    pub deletes: Samples,
    /// Writes measured (inserts and deletes, warm-up excluded).
    pub measured: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Cell bytes of every acknowledged write, warm-up included.
    pub cell_bytes: u64,
    pub window_s: f64,
}

impl WriteStats {
    pub fn merge(&mut self, o: WriteStats) {
        self.inserts.merge(&o.inserts);
        self.deletes.merge(&o.deletes);
        self.measured += o.measured;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.first_error = self.first_error.take().or(o.first_error);
        self.cell_bytes += o.cell_bytes;
        self.window_s = self.window_s.max(o.window_s);
    }

    /// Measured writes per second, summed over the merged writers.
    pub fn ops_per_s(&self) -> f64 {
        self.measured as f64 / self.window_s
    }
}

/// When a writer stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Window(Window),
    /// Exactly this many writes, all measured.
    Ops(usize),
}

/// Where a writer is in its cycle over a block of `len` rows: positions
/// `0 .. len` insert row `pos`, positions `len .. 2·len` delete row
/// `pos − len`, then the cycle starts over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor(pub usize);

impl Cursor {
    /// The block rows stored when the cursor is here.
    pub fn present(self, len: usize) -> std::ops::Range<usize> {
        if self.0 <= len {
            0..self.0
        } else {
            self.0 - len..len
        }
    }
}

/// Runs one writer: cycle the block — insert all, delete all, repeat —
/// timing each call from issue to acknowledged return.
pub fn run_writer<C: Client>(
    client: &mut C,
    block: &Block,
    cursor: &mut Cursor,
    until: Until,
) -> WriteStats {
    let mut st = WriteStats::default();
    let len = block.rows.len();
    let (warm_end, end, max_ops) = match until {
        Until::Window(w) => {
            let warm_end = Instant::now() + w.warmup;
            (warm_end, Some(warm_end + w.measure), u64::MAX)
        }
        Until::Ops(n) => (Instant::now(), None, n as u64),
    };
    let mut last = warm_end;
    while st.attempted < max_ops {
        let pos = cursor.0;
        let (insert, row) = if pos < len {
            (true, &block.rows[pos])
        } else {
            (false, &block.rows[pos - len])
        };
        let t0 = Instant::now();
        if end.is_some_and(|end| t0 >= end) {
            break;
        }
        let result = if insert {
            client.insert(block.rel, row)
        } else {
            match client.delete(block.rel, row) {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("delete found no copy of {} row {pos}", block.rel)),
                Err(e) => Err(e),
            }
        };
        let t1 = Instant::now();
        st.attempted += 1;
        // A failed row is skipped: retrying it forever would turn one
        // failure into a hung run.
        cursor.0 = (pos + 1) % (2 * len);
        match result {
            Ok(()) => st.cell_bytes += block.cell_bytes_per_row(),
            Err(e) => {
                st.failed += 1;
                st.first_error.get_or_insert(e);
            }
        }
        if t0 >= warm_end {
            let class = if insert {
                &mut st.inserts
            } else {
                &mut st.deletes
            };
            class.push(t1 - t0);
            // A writer's slices are its passes over the block: a pass of
            // inserts lasts well under a millisecond, so the host is in
            // one state for the whole of it.
            if cursor.0.is_multiple_of(len) {
                class.cut();
            }
            st.measured += 1;
            last = t1;
        }
    }
    st.window_s = (last - warm_end).as_secs_f64();
    st
}

// ---------------------------------------------------------------------
// Running clients side by side
// ---------------------------------------------------------------------

/// Runs `f(i, barrier)` on `n` threads and collects the results in client
/// order. Each client waits on the barrier once it is set up, so all
/// windows start together.
pub fn side_by_side<T: Send>(n: usize, f: impl Fn(usize, &Barrier) -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (f, barrier) = (&f, &barrier);
                scope.spawn(move || f(i, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Compares recorded replies, row for row, with `bcq_exec::baseline`
/// evaluating the same ground query on the server's current snapshot.
/// Reads never touch rows a writer touches, so the snapshot's age does not
/// matter. The oracle scans every relation a join reaches (milliseconds
/// per reply on the large instance), so the replies are taken in a seeded
/// order until `budget` is spent. Returns `(compared, wrong)`.
pub fn check_against_oracle(
    server: &Server,
    tpls: &Templates,
    recorded: &[Recorded],
    seed: u64,
    budget: Duration,
) -> (u64, u64) {
    let snap = server.snapshot();
    let mut order: Vec<usize> = (0..recorded.len()).collect();
    let mut rng = Rng::new(seed, 0x0AC1E);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let deadline = Instant::now() + budget;
    let (mut compared, mut wrong) = (0, 0);
    for r in order.into_iter().map(|i| &recorded[i]) {
        if Instant::now() >= deadline {
            break;
        }
        let ground = tpls.queries[r.op.tpl].instantiate(&binding(r.op.key));
        let same = baseline(&snap, &ground, server.access(), BaselineOptions::default())
            .ok()
            .and_then(|out| {
                let rows = out.result()?.rows();
                let same_rows = rows.iter().zip(&r.rows).all(|(a, b)| **a == **b);
                Some(rows.len() == r.rows.len() && same_rows)
            })
            .unwrap_or(false);
        compared += 1;
        wrong += u64::from(!same);
    }
    (compared, wrong)
}

/// Checks that exactly the block rows in `present` are stored, by looking
/// every block key up through the server: a stored order key returns one
/// row, any other none. Returns `(keys checked, wrong)`.
pub fn check_block_presence(
    server: &Arc<Server>,
    tpls: &Templates,
    block: &Block,
    present: std::ops::Range<usize>,
) -> (u64, u64) {
    let mut session = server.session();
    let wrong = block
        .rows
        .iter()
        .enumerate()
        .filter(|(i, row)| {
            let key = row[0].as_int().expect("block keys are integers");
            let got = session
                .query(&tpls.order_by_key, &binding(key))
                .ok()
                .and_then(|resp| resp.rows().map(|rows| rows.len()));
            got != Some(usize::from(present.contains(i)))
        })
        .count();
    (block.rows.len() as u64, wrong as u64)
}

// ---------------------------------------------------------------------
// Restart
// ---------------------------------------------------------------------

/// One `Server::checkpoint()` and what the log directory holds after it.
pub struct Checkpoint {
    pub seconds: f64,
    pub snapshot_bytes: u64,
    pub wal_bytes: u64,
}

pub fn checkpoint(server: &Server, dir: &Path) -> Checkpoint {
    let t = Instant::now();
    server.checkpoint().expect("checkpoint");
    let seconds = t.elapsed().as_secs_f64();
    let snapshot_bytes = dir_bytes(dir, "snap-");
    Checkpoint {
        seconds,
        snapshot_bytes,
        wal_bytes: dir_bytes(dir, "") - snapshot_bytes,
    }
}

/// Flushes and closes `server`, which no client may hold any more, and
/// opens it again from the same store. Returns the new server, the
/// seconds `Server::open` took, and its recovery report.
pub fn reopen(server: Arc<Server>, store: &Store) -> (Arc<Server>, f64, RecoveryReport) {
    // Group-commit policies may hold the last few acknowledged writes in
    // memory; a clean shutdown flushes them.
    server.wal_sync().expect("flush the WAL tail");
    drop(
        Arc::try_unwrap(server)
            .unwrap_or_else(|_| panic!("a client still holds the server at restart")),
    );
    let t = Instant::now();
    let (server, report) = open_server(store);
    (Arc::new(server), t.elapsed().as_secs_f64(), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::rig::{load_tpch, orders_block, Dims, Mix, BLOCK_ROWS, SF_TINY};

    /// A tiny in-memory server with the join templates prepared.
    fn tiny(seed: u64) -> (Arc<Server>, Arc<Templates>, Dims) {
        let server = Arc::new(open_server(&Store::None).0);
        load_tpch(&server, SF_TINY, seed, 1);
        let tpls = Arc::new(Templates::prepare(Mix::Join, &server));
        (server, tpls, Dims::of(SF_TINY, seed))
    }

    #[test]
    fn per_operation_counters_repeat_exactly_for_one_seed() {
        let tally = |seed: u64| {
            let (server, tpls, dims) = tiny(seed);
            let mut client = SessionClient::new(&server, &tpls);
            let mut stream = ReadStream::new(seed, 0, 1, Mix::Join, dims, 8);
            let (mut fetched, mut rows_out) = (0, 0);
            for _ in 0..2_000 {
                let op = stream.next_op();
                let reply = if op.adhoc {
                    client.adhoc(&Mix::Join.adhoc_sql(op.tpl, op.key), false)
                } else {
                    client.read(op.tpl, op.key, false)
                }
                .expect("read succeeds");
                fetched += reply
                    .tuples_fetched
                    .expect("in-process replies are metered");
                rows_out += reply.rows_out;
            }
            (fetched, rows_out, server.metrics_snapshot().requests())
        };
        let first = tally(3);
        assert_eq!(first, tally(3));
        assert_ne!(first, tally(4));
        assert_eq!(first.2, 2_000);
        assert!(first.0 > 0 && first.1 > 0);
    }

    #[test]
    fn the_checks_tell_right_from_wrong() {
        let (server, tpls, dims) = tiny(5);
        let block = orders_block(dims, 5);
        let mut client = SessionClient::new(&server, &tpls);
        let mut cursor = Cursor::default();
        // A whole insert pass and a quarter of the delete pass.
        let ops = BLOCK_ROWS + BLOCK_ROWS / 4;
        let st = run_writer(&mut client, &block, &mut cursor, Until::Ops(ops));
        assert_eq!((st.attempted, st.failed), (ops as u64, 0));
        assert_eq!(
            (st.inserts.len(), st.deletes.len()),
            (BLOCK_ROWS, BLOCK_ROWS / 4)
        );
        assert_eq!(cursor.present(BLOCK_ROWS), BLOCK_ROWS / 4..BLOCK_ROWS);
        let keys = BLOCK_ROWS as u64;
        assert_eq!(
            check_block_presence(&server, &tpls, &block, cursor.present(BLOCK_ROWS)),
            (keys, 0)
        );
        // Claiming the deleted quarter is still stored is caught, row by row.
        assert_eq!(
            check_block_presence(&server, &tpls, &block, 0..BLOCK_ROWS),
            (keys, keys / 4)
        );
        // Deleting what is not stored is a failed write.
        let mut rewound = Cursor(BLOCK_ROWS);
        let st = run_writer(&mut client, &block, &mut rewound, Until::Ops(1));
        assert_eq!((st.failed, st.first_error.is_some()), (1, true));

        let mut recorded = Vec::new();
        for (tpl, key) in [(0, 5), (1, 7), (2, 11)] {
            let op = ReadOp {
                tpl,
                key,
                adhoc: false,
                sampled: true,
            };
            let rows = client.read(tpl, key, true).unwrap().rows.unwrap();
            assert!(!rows.is_empty(), "template {tpl} answers nothing for {key}");
            recorded.push(Recorded { op, rows });
        }
        let budget = Duration::from_secs(30);
        assert_eq!(
            check_against_oracle(&server, &tpls, &recorded, 1, budget),
            (3, 0)
        );
        recorded[1].rows.pop();
        recorded[2].rows[0][0] = Value::Int(-1);
        assert_eq!(
            check_against_oracle(&server, &tpls, &recorded, 1, budget),
            (3, 2)
        );
        // An exhausted budget compares nothing rather than overrunning.
        assert_eq!(
            check_against_oracle(&server, &tpls, &recorded, 1, Duration::ZERO),
            (0, 0)
        );
    }

    #[test]
    fn cursor_knows_which_block_rows_are_stored() {
        assert_eq!(Cursor(0).present(4), 0..0);
        assert_eq!(Cursor(3).present(4), 0..3);
        assert_eq!(Cursor(4).present(4), 0..4);
        assert_eq!(Cursor(5).present(4), 1..4);
        assert_eq!(Cursor(7).present(4), 3..4);
    }
}
