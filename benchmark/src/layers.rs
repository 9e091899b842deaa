//! The traced run's layer measurements, all taken **from outside**: each
//! call into a crate's public function is wrapped in a span by the
//! benchmark; nothing inside the engine is instrumented here.
//!
//! One request in [`crate::rig::SAMPLE_EVERY`] is followed by a *replay*
//! that walks the same kind of request down the stack one public call at a
//! time — `Session::query`, then `Server::prepare`, `Server::execute`,
//! `Server::snapshot`, `ParamEnv::rebind`, `eval_dq_with` — each under its
//! own span, all children of one `replay` span and sharing the request's
//! id. Every timed call of a replay draws a fresh key for the same
//! template, so each touches data as cold as an ordinary request's. A
//! layer's cost is then a difference of two nested calls (what
//! `Session::query` adds over `prepare` + `execute`, what `execute` adds
//! over `snapshot` + bind + `eval_dq_with`), and the differences sum back
//! to the outermost call.

use crate::rig::{binding, open_server, Block, Dims, KeyDomain, ReadOp, Rng, Store, Templates};
use crate::spans::SpanLog;
use bcq_core::prelude::*;
use bcq_exec::{eval_dq_with, ParamEnv};
use bcq_service::{Server, Session, SyncPolicy};
use bcq_workload::tpch;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One client thread's replayer and span log.
pub struct Tracer {
    pub log: SpanLog,
    ctx: Replayer,
}

/// Everything a replay needs besides the log it records into.
struct Replayer {
    requests: u64,
    server: Arc<Server>,
    session: Session,
    tpls: Arc<Templates>,
    dims: Dims,
    rng: Rng,
    bind: BTreeMap<String, Value>,
    env: ParamEnv,
}

impl Replayer {
    /// A fresh key in the domain `op.key` came from.
    fn fresh_key(&mut self, op: ReadOp) -> i64 {
        let r = self.rng.next();
        (match self.tpls.mix.domain(op.tpl) {
            KeyDomain::Customer => r % self.dims.reader_customers(),
            KeyDomain::Order => r % self.dims.orders,
        }) as i64
    }

    fn rebind(&mut self, op: ReadOp) {
        let key = self.fresh_key(op);
        *self.bind.get_mut("k").expect("binding has k") = Value::Int(key);
    }
}

impl Tracer {
    /// `seed` draws the replays' keys; give each client its own.
    pub fn new(
        epoch: Instant,
        seed: u64,
        server: &Arc<Server>,
        tpls: &Arc<Templates>,
        dims: Dims,
    ) -> Self {
        Tracer {
            log: SpanLog::new(epoch),
            ctx: Replayer {
                requests: 0,
                server: Arc::clone(server),
                session: server.session(),
                tpls: Arc::clone(tpls),
                dims,
                rng: Rng::new(seed, 0x7ACE),
                bind: binding(0),
                env: ParamEnv::default(),
            },
        }
    }

    /// Requests the replays sent to the server under test (its request
    /// counter must account for them too).
    pub fn requests(&self) -> u64 {
        self.ctx.requests
    }

    /// Replays a read down the stack. A templated request walks the
    /// serving path; an ad-hoc one walks the compile path it pays instead
    /// of the cache hit (`parse_spc`, `ebcheck`, `qplan`).
    pub fn replay_read(&mut self, request: u64, op: ReadOp) {
        let Tracer { log, ctx } = self;
        let tpls = Arc::clone(&ctx.tpls);
        let server = Arc::clone(&ctx.server);
        let access = server.access();
        let template = &tpls.queries[op.tpl];
        log.span("replay", None, request, |log, root| {
            let root = Some(root);
            if op.adhoc {
                let sql = tpls.mix.adhoc_sql(op.tpl, ctx.fresh_key(op));
                let catalog = Arc::clone(access.catalog());
                let q = log.span("core.parse", root, request, |_, _| {
                    parse_spc(catalog, "adhoc", &sql).expect("ad-hoc text parses")
                });
                log.span("core.ebcheck", root, request, |_, _| {
                    black_box(ebcheck(&q, access));
                });
                log.span("core.qplan", root, request, |_, _| {
                    black_box(qplan(&q, access).expect("ad-hoc query is bounded"));
                });
                return;
            }
            ctx.rebind(op);
            log.span("service.session.query", root, request, |_, _| {
                black_box(
                    ctx.session
                        .query(template, &ctx.bind)
                        .expect("replayed query"),
                );
            });
            let prepared = log.span("service.cache.prepare", root, request, |_, _| {
                server.prepare(template).expect("replayed prepare")
            });
            ctx.rebind(op);
            log.span("service.server.execute", root, request, |_, _| {
                black_box(
                    server
                        .execute(&prepared.query, &ctx.bind)
                        .expect("replayed execute"),
                );
            });
            ctx.requests += 2;
            // What `execute` does inside, one public call at a time.
            let snap = log.span("service.shared.snapshot", root, request, |_, _| {
                server.snapshot()
            });
            ctx.rebind(op);
            log.span("exec.bind", root, request, |_, _| {
                ctx.env.rebind(snap.symbols(), &ctx.bind);
            });
            let plan = prepared
                .query
                .plan()
                .expect("templates ride the bounded lane");
            log.span("exec.eval_dq", root, request, |_, _| {
                black_box(eval_dq_with(&snap, plan, access, &ctx.env).expect("replayed eval_dq"));
            });
        });
    }
}

/// What an insert costs with nothing else in the way: on servers with the
/// same schema and indices but no rows, in place without a WAL
/// (`Server::new`), then through the WAL path without a device
/// (`Server::open` over a `MemLog`). Every row is deleted again, untimed.
/// The two floors come out as the spans `storage.insert_inplace` and
/// `durability.memlog_insert`.
pub fn probe_write_floor(log: &mut SpanLog, policy: SyncPolicy, block: &Block) {
    let inplace = open_server(&Store::None).0;
    let memlog = open_server(&Store::Mem(policy)).0;
    let floor = |log: &mut SpanLog, name: &'static str, server: &Server| {
        for (i, row) in block.rows.iter().enumerate() {
            log.span(name, None, i as u64, |_, _| {
                server.insert(block.rel, row).expect("scratch insert");
            });
            server.delete(block.rel, row).expect("scratch delete");
        }
    };
    // Twice each, interleaved, so neither floor is the one measured cold.
    for _ in 0..2 {
        floor(log, "storage.insert_inplace", &inplace);
        floor(log, "durability.memlog_insert", &memlog);
    }
}

/// What an empty span costs (two clock reads and the bookkeeping), in
/// microseconds: subtracted from every span-derived layer timing.
pub fn span_overhead_us() -> f64 {
    let mut log = SpanLog::new(Instant::now());
    for i in 0..20_000u64 {
        log.span("calibrate", None, i, |_, _| black_box(i));
    }
    log.durations("calibrate").iqm_us()
}

/// Nanoseconds `RowSource::fill_chunk` takes per generated lineitem row.
pub fn generate_ns_per_row(sf: f64, seed: u64) -> f64 {
    let lineitem = tpch::sources(sf, seed).pop().expect("lineitem source");
    let chunk = bcq_workload::source::DEFAULT_CHUNK_ROWS;
    let chunks = (lineitem.total_rows() as usize / chunk).clamp(1, 8);
    let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(chunk); lineitem.arity()];
    let t = Instant::now();
    for c in 0..chunks {
        cols.iter_mut().for_each(Vec::clear);
        lineitem.fill_chunk((c * chunk) as u64, chunk, &mut cols);
        black_box(&cols);
    }
    t.elapsed().as_nanos() as f64 / (chunks * chunk) as f64
}
