//! The serving front door: [`Server`] owns the shared database, the plan
//! cache and the registered views; [`Session`] is a per-client handle that
//! aggregates request statistics.
//!
//! ## Request lifecycle
//!
//! `Session::query` → [`Server::prepare`] (plan-cache lookup; on a miss the
//! template is compiled and classified into its [`Lane`]) →
//! [`Server::execute`] (snapshot the database, encode the bindings to cells
//! once, run the lane's executor). Every response carries
//! [`RequestStats`]: lane taken, cache hit, epoch served, the full access
//! [`Meter`], and the budget verdict.
//!
//! [`Session::query_sql`] takes the same road from a query **text**, keyed
//! by the text's *shape*: the constants of its `WHERE` clause are lifted
//! into parameter slots by one scan of the text, so every text of one
//! shape is served by one cache entry and only the first of them is
//! parsed, analysed and planned.
//!
//! ## Admission control
//!
//! Queries that are not effectively bounded are the serving tier's tail
//! risk: their cost grows with `|D|`. [`AdmissionPolicy::Budgeted`] admits
//! them onto the conventional baseline under a hard touched-row cap (the
//! paper's 2 500 s wall, deterministically); [`AdmissionPolicy::Strict`]
//! rejects them at prepare time, so a production deployment can guarantee
//! every admitted request runs in bounded work.
//!
//! ## Write concurrency
//!
//! Row writers on **disjoint relations never share a latch**; they meet
//! only in the commit section. The lock order, invariant everywhere in
//! this module, is:
//!
//! 1. the bulk gate ([`Server`]'s `gate` `RwLock`) — shared for row
//!    writers, exclusive for bulk writes / checkpoints / view
//!    registration;
//! 2. the written relation's write latch ([`SharedDb::lock_rel`]);
//! 3. the commit lock ([`SharedDb::write`]) — held for the pointer swap
//!    that installs a prepared shard, or for an in-place row write when no
//!    snapshot is outstanding; never across an fsync.
//!
//! [`Server::insert`] and [`Server::delete`] are one body (`write_row`)
//! that takes those locks in that order. When snapshots are outstanding
//! the writer prepares the new shard *off* the commit lock
//! ([`Database::prepare`]); otherwise it mutates in place inside the
//! commit section (uniquely owned shard — cheapest path, but disjoint
//! writers serialize on it). Either way every index of the relation is
//! maintained and the WAL record is appended inside the commit section,
//! so log order equals commit order; the **fsync happens after every lock
//! is released**, shared between concurrently committing writers (group
//! commit — see `WalWriter::ack`).
//!
//! The plan cache is sharded by key hash, so concurrent prepares on
//! different templates never serialize on one mutex. No write touches
//! it: a plan depends on the query and the access schema, never on the
//! data (see the invariant on [`Server`]).

use crate::cache::{CacheStats, PlanCache};
use crate::prepared::{query_fingerprint, ra_fingerprint, Compiled, Lane, PreparedQuery};
use crate::shared::SharedDb;
use bcq_core::access::AccessSchema;
use bcq_core::error::CoreError;
use bcq_core::parser::{lifted_slot_name, SqlShape, LIFTED_SLOT_PREFIX};
use bcq_core::plan::QueryPlan;
use bcq_core::prelude::{RaExpr, RelId, SpcQuery, Value};
use bcq_core::qplan::{qplan, qplan_template};
use bcq_durability::{recover, LogStorage, RecoveryReport, SyncPolicy, WalStats, WalWriter};
use bcq_exec::{
    baseline, eval_dq_profiled, eval_dq_with, eval_ra_prepared, BaselineMode, BaselineOptions,
    BaselineOutcome, ParamEnv, PreparedRa, ResultSet,
};
use bcq_storage::{BulkLoader, Database, IngestStats, Meter, Prepare, RowOp, WalSink};
use bcq_telemetry::{LaneKind, MetricsRegistry, MetricsSnapshot, OpProfile, Phase};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poison: the serving tier's shared
/// structures (plan cache, view list, profile slot) are only ever mutated
/// through small, self-consistent updates, so a thread that panicked while
/// holding the lock cannot leave them half-written in a way later readers
/// would mis-read. Recovering keeps one panicking request from bricking
/// every subsequent prepare / write / snapshot on the server.
fn lock_recovered<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-locks an `RwLock`, recovering from poison (same rationale as
/// [`lock_recovered`]).
fn read_recovered<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks an `RwLock`, recovering from poison.
fn write_recovered<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// `Duration` → nanoseconds in pure u64 arithmetic (`as_nanos` goes
/// through u128 — measurable on the request hot path). Saturates beyond
/// ~584 years.
#[inline]
fn dur_ns(d: Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

thread_local! {
    /// The bounded lanes' per-request parameter environment, rebound in
    /// place per request (see [`ParamEnv::rebind`]).
    static REQUEST_ENV: RefCell<ParamEnv> = RefCell::new(ParamEnv::new());
}

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// An underlying analysis / planning / execution error.
    Core(CoreError),
    /// The query was refused by the admission policy.
    Rejected(String),
    /// A durability operation (WAL sync, checkpoint, recovery) failed.
    Durability(String),
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::Rejected(why) => write!(f, "admission rejected: {why}"),
            ServiceError::Durability(why) => write!(f, "durability: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What the server does with queries that are not effectively bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject at prepare time: every admitted request runs bounded work.
    Strict,
    /// Admit onto the budgeted baseline with this touched-row cap.
    Budgeted(u64),
}

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Plan-cache capacity (prepared queries).
    pub plan_cache_capacity: usize,
    /// Admission policy for unbounded queries.
    pub policy: AdmissionPolicy,
    /// Whether the always-on metrics registry records (on by default; the
    /// off switch exists for overhead measurement, not production).
    pub metrics_enabled: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            plan_cache_capacity: 256,
            policy: AdmissionPolicy::Budgeted(1_000_000),
            metrics_enabled: true,
        }
    }
}

/// Durability knobs for [`Server::open`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// When the WAL writer fsyncs ([`SyncPolicy::Always`] = no acknowledged
    /// write is ever lost; `EveryOps(n)` = group commit, at most the last
    /// `n` writes lost on a crash).
    pub policy: SyncPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            policy: SyncPolicy::EveryOps(64),
        }
    }
}

/// The durable half of an opened server: the attached WAL writer (and
/// through it the log storage), and recovery/checkpoint bookkeeping.
struct DurabilityState {
    writer: Arc<WalWriter>,
    /// Records replayed by the recovery that opened this server.
    replayed: u64,
    checkpoints: AtomicU64,
    /// Log bytes since the last cut are the writer's byte counter plus
    /// this: the tail recovery kept at open, then minus the counter's
    /// value at each checkpoint's cut. The record path never touches it.
    retained_offset: AtomicI64,
    /// Bytes of the last snapshot written or restored.
    snapshot_bytes: AtomicU64,
}

/// Budget verdict of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// Bounded lanes: no budget applies (the plan itself is the bound).
    Unlimited,
    /// Budgeted baseline finished within the cap.
    Completed {
        /// The touched-row cap that was in force.
        cap: u64,
    },
    /// Budgeted baseline exhausted the cap — no answer.
    Exhausted {
        /// The touched-row cap that was in force.
        cap: u64,
    },
}

/// Result payload of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The exact answer.
    Answer(ResultSet),
    /// The budgeted baseline hit its work cap before finishing.
    DidNotFinish,
}

/// Per-request accounting.
#[derive(Debug, Clone, Copy)]
pub struct RequestStats {
    /// Lane the request executed on.
    pub lane: Lane,
    /// `true` if the prepared query came out of the plan cache.
    pub cache_hit: bool,
    /// Database epoch the request was served at.
    pub epoch: u64,
    /// Access accounting (`meter.tuples_fetched` is `|D_Q|` for bounded
    /// requests).
    pub meter: Meter,
    /// Budget verdict.
    pub budget: BudgetVerdict,
    /// Wall-clock time spent compiling this request's prepared query —
    /// classification, plan generation and the operator-program compile.
    /// Zero on a cache hit (the stored program is reused whatever was
    /// written since), so compile vs execute cost is directly comparable
    /// per request.
    pub compile_elapsed: Duration,
    /// Wall-clock time spent executing: binding encode plus the lane
    /// executor (excludes prepare/compile).
    pub exec_elapsed: Duration,
    /// End-to-end wall-clock of the request: snapshot, binding encode and
    /// execution, plus — when served through a [`Session`] — the prepare
    /// (cache lookup / compile). Always ≥ `compile_elapsed + exec_elapsed`.
    pub total_elapsed: Duration,
}

/// One served request: outcome + stats.
#[derive(Debug, Clone)]
pub struct Response {
    /// Answer or did-not-finish.
    pub outcome: Outcome,
    /// Per-request accounting.
    pub stats: RequestStats,
}

impl Response {
    /// A response as [`Server::execute`] builds it: the cache and compile
    /// fields are [`Session`]'s to fill, `total_elapsed` the caller's once
    /// it stops its clock.
    fn served(
        lane: Lane,
        epoch: u64,
        outcome: Outcome,
        meter: Meter,
        budget: BudgetVerdict,
        exec_elapsed: Duration,
    ) -> Self {
        Response {
            outcome,
            stats: RequestStats {
                lane,
                cache_hit: false,
                epoch,
                meter,
                budget,
                compile_elapsed: Duration::ZERO,
                exec_elapsed,
                total_elapsed: Duration::ZERO,
            },
        }
    }

    /// The answer, if the request finished.
    pub fn rows(&self) -> Option<&ResultSet> {
        match &self.outcome {
            Outcome::Answer(rs) => Some(rs),
            Outcome::DidNotFinish => None,
        }
    }

    /// `true` if the request produced an answer.
    pub fn finished(&self) -> bool {
        matches!(self.outcome, Outcome::Answer(_))
    }
}

/// A prepare result: the compiled query plus whether the cache served it.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The compiled, classified query.
    pub query: Arc<PreparedQuery>,
    /// `true` if this came out of the plan cache.
    pub cache_hit: bool,
    /// Time spent compiling (classification + planning + operator-program
    /// compile); [`Duration::ZERO`] on a cache hit.
    pub compile_elapsed: Duration,
}

/// Number of plan-cache shards (a small power of two: enough that
/// concurrent prepares on distinct templates rarely collide, few enough
/// that summing stats stays trivial).
const CACHE_SHARDS: usize = 8;

/// The plan cache split into independently locked shards by key hash, so
/// concurrent prepares on different templates never serialize on a single
/// mutex. Every shard keeps the **full** configured capacity: capacity
/// bounds the per-template working set, not a global memory budget, so
/// dividing it across shards would evict hot templates that merely hash
/// together.
struct CacheShards {
    shards: Vec<Shard>,
}

/// One shard on cache lines of its own: every hit writes its lock word,
/// tick and counters, so two shards must not share a line, and what a
/// hit costs must not depend on where the allocator put the `Vec`.
#[repr(align(64))]
struct Shard(Mutex<PlanCache>);

impl CacheShards {
    fn new(capacity: usize) -> Self {
        CacheShards {
            shards: (0..CACHE_SHARDS)
                .map(|_| Shard(Mutex::new(PlanCache::new(capacity))))
                .collect(),
        }
    }

    /// The shard owning `key`.
    fn shard(&self, key: &str) -> &Mutex<PlanCache> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS].0
    }

    /// Movement counters summed across shards.
    fn stats(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for s in &self.shards {
            let cs = lock_recovered(&s.0).stats();
            sum.hits += cs.hits;
            sum.misses += cs.misses;
            sum.evictions += cs.evictions;
        }
        sum
    }

    /// Live entries summed across shards.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recovered(&s.0).len()).sum()
    }
}

/// Prefix of the plan-cache keys of query texts, which keeps them apart
/// from the fingerprint keys of [`Server::prepare`].
const SQL_KEY_PREFIX: &str = "sql:";

/// A session's reusable buffers for the text path ([`Server::prepare_sql`]):
/// the shape key and lifted values of the text being served, and the
/// binding map the request executes with. In the steady state — texts of
/// one shape with the same `?name` parameters — a request updates the
/// map's values in place and allocates no name.
#[derive(Debug, Default)]
struct SqlScratch {
    key: String,
    values: Vec<Value>,
    /// `slot_names[i]` is the name of lifted slot `i + 1`; grown on demand.
    slot_names: Vec<String>,
    bindings: BTreeMap<String, Value>,
}

impl SqlScratch {
    /// Moves the lifted values into `bindings` under their slot names and
    /// copies the caller's bindings beside them. The map keeps its entries
    /// (and their allocated names) whenever its key set is already the
    /// one wanted, which also keeps [`ParamEnv::rebind`] on its
    /// same-name-set fast path.
    fn bind(&mut self, caller: &BTreeMap<String, Value>) {
        let n = self.values.len();
        while self.slot_names.len() < n {
            self.slot_names
                .push(lifted_slot_name(self.slot_names.len() + 1));
        }
        let slots = &self.slot_names[..n];
        // Caller names never start with the slot prefix, so the names
        // wanted are `n + caller.len()` distinct ones.
        let same_names = self.bindings.len() == n + caller.len()
            && slots.iter().all(|s| self.bindings.contains_key(s))
            && caller.keys().all(|k| self.bindings.contains_key(k));
        if !same_names {
            self.bindings.clear();
        }
        let lifted = slots.iter().zip(self.values.drain(..));
        let callers = caller.iter().map(|(k, v)| (k, v.clone()));
        for (name, value) in lifted.chain(callers) {
            match self.bindings.get_mut(name) {
                Some(slot) => *slot = value,
                None => {
                    self.bindings.insert(name.clone(), value);
                }
            }
        }
    }
}

/// Identifier of a registered view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewId(pub usize);

/// One registered view: the bounded plan prepared for its query and the
/// last answer that plan produced. Evaluating the plan costs at most its
/// `Σ Mᵢ` whatever `|D|` is, so nothing is maintained under writes: a
/// read that finds the answer behind re-runs the plan.
struct View {
    plan: QueryPlan,
    /// The relations the query's atoms read.
    read_rels: Vec<RelId>,
    cached: Mutex<CachedAnswer>,
}

struct CachedAnswer {
    answer: ResultSet,
    /// The slice of the vector clock `answer` was computed at: one stamp
    /// per relation the view's atoms read (`None` until the first read).
    /// Writes to any other relation leave the answer current.
    stamps: Option<Vec<(RelId, u64)>>,
}

/// The query-serving server: shared database, plan cache, admission
/// control, registered views. `Server` is `Sync` — share it behind an
/// `Arc` and open one [`Session`] per client/thread.
///
/// **Invariant:** every snapshot this server publishes has every index
/// `access` declares; a cached plan is therefore valid for the server's
/// lifetime. [`Server::new`] builds them before the first request, a row
/// write maintains every index of its relation, and
/// [`Server::bulk_update`] / [`Server::bulk_load`] rebuild inside the
/// commit section that publishes their rows. (The one way out is a
/// `bulk_update` closure that panics after dropping an index: reads of
/// that relation then fail with the executor's "index … not built" error
/// until the next bulk write rebuilds it.)
pub struct Server {
    shared: SharedDb,
    access: AccessSchema,
    config: ServerConfig,
    cache: CacheShards,
    /// The bulk gate, which also guards the list of registered views. Row
    /// writers and view reads hold it **shared**; bulk writes, checkpoints
    /// and view registration hold it **exclusively** — it keeps
    /// out-of-band mutations from racing latched prepared commits. See
    /// the module docs for the full lock order.
    gate: RwLock<Vec<View>>,
    metrics: MetricsRegistry,
    /// Present iff the server was built by [`Server::open`]: the WAL the
    /// database writes through, and checkpoint state.
    durability: Option<DurabilityState>,
}

impl Server {
    /// Builds a server over `db`, ensuring every index declared by
    /// `access` exists before the first request.
    pub fn new(mut db: Database, access: AccessSchema, config: ServerConfig) -> Self {
        db.build_indexes(&access);
        let metrics = MetricsRegistry::new();
        metrics.set_enabled(config.metrics_enabled);
        Server {
            shared: SharedDb::new(db),
            access,
            config,
            cache: CacheShards::new(config.plan_cache_capacity),
            gate: RwLock::new(Vec::new()),
            metrics,
            durability: None,
        }
    }

    /// Opens a **durable** server over `storage`: recovers the database
    /// from the latest consistent snapshot plus WAL replay, attaches a WAL
    /// writer so every subsequent write — single-row writes, bulk
    /// updates, index builds — is logged before it is acknowledged, and
    /// re-registers `views` (each evaluates against the recovered state on
    /// its first read).
    ///
    /// Returns the server, the [`RecoveryReport`] (what was restored,
    /// replayed and discarded), and the ids of the re-registered views in
    /// `views` order.
    ///
    /// On first boot (empty storage) recovery yields the empty database and
    /// the index builds declared by `access` are themselves logged, so the
    /// next `open` replays them. With group commit
    /// ([`SyncPolicy::EveryOps`]) the tail of unsynced writes is flushed by
    /// [`Server::wal_sync`] or [`Server::checkpoint`]. A failed WAL append
    /// poisons the log: the write that hit it, every later write, and
    /// `wal_sync` / `checkpoint` then return [`ServiceError::Durability`],
    /// though each write's in-memory commit stays applied.
    pub fn open(
        storage: Arc<dyn LogStorage>,
        access: AccessSchema,
        config: ServerConfig,
        durability: DurabilityConfig,
        views: &[SpcQuery],
    ) -> crate::Result<(Server, RecoveryReport, Vec<ViewId>)> {
        let catalog = Arc::clone(access.catalog());
        let (mut db, report) =
            recover(&*storage, catalog).map_err(|e| ServiceError::Durability(e.to_string()))?;

        // Attach the writer before `Server::new`: its `build_indexes` runs
        // through the WAL-emitting funnel, so an index built fresh here is
        // itself durable (and a replayed one is a silent no-op).
        let writer = Arc::new(WalWriter::new(
            Arc::clone(&storage),
            durability.policy,
            report.last_seq + 1,
        ));
        db.set_wal(Some(Arc::clone(&writer) as Arc<dyn WalSink>));
        let mut server = Server::new(db, access, config);
        server.durability = Some(DurabilityState {
            writer,
            replayed: report.replayed,
            checkpoints: AtomicU64::new(0),
            retained_offset: AtomicI64::new(report.log_bytes as i64),
            snapshot_bytes: AtomicU64::new(report.snapshot_bytes),
        });

        let ids = views
            .iter()
            .map(|q| server.register_view(q))
            .collect::<crate::Result<Vec<_>>>()?;
        // Barrier: recovery realignment and this boot's index builds are
        // durable before the first request is served.
        server.wal_sync()?;
        Ok((server, report, ids))
    }

    /// Flushes the WAL's group-commit tail; fails once a failed append
    /// has poisoned the log. A no-op on a server without durability. Call
    /// before acknowledging a batch under [`SyncPolicy::EveryOps`] /
    /// [`SyncPolicy::Manual`].
    pub fn wal_sync(&self) -> crate::Result<()> {
        match &self.durability {
            Some(d) => d
                .writer
                .sync()
                .map_err(|e| ServiceError::Durability(e.to_string())),
            None => Ok(()),
        }
    }

    /// The WAL writer's monotonic counters (records, bytes, fsyncs), if
    /// this server was opened with durability.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.writer.stats())
    }

    /// Takes a snapshot checkpoint: flushes the WAL, writes the full
    /// database state (rows, epoch vector, symbols, index specs) as one
    /// atomic blob, and once it is durable cuts the log to 0 and deletes
    /// the older snapshots ([`bcq_durability::checkpoint`]), so the
    /// storage holds exactly one copy of the data and recovery after this
    /// point reads the snapshot plus the records written since. Returns
    /// the blob name.
    pub fn checkpoint(&self) -> crate::Result<String> {
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| ServiceError::Durability("server opened without durability".into()))?;
        // The cut to 0 needs the log to hold no record past the snapshot.
        // Every record is appended inside the commit section, which this
        // holds; exclusive on the bulk gate, every row writer (holding it
        // shared) has drained too, so the snapshot and its WAL position
        // are exactly consistent.
        let _gate = write_recovered(&self.gate);
        let (name, written) = self
            .shared
            .write(|db| bcq_durability::checkpoint(&d.writer, db))
            .map_err(|e| ServiceError::Durability(e.to_string()))?;
        d.retained_offset
            .store(-(d.writer.stats().bytes as i64), Ordering::Relaxed);
        if written > 0 {
            d.snapshot_bytes.store(written, Ordering::Relaxed);
        }
        d.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(name)
    }

    /// The access schema requests are planned under.
    pub fn access(&self) -> &AccessSchema {
        &self.access
    }

    /// An immutable snapshot of the current database state.
    pub fn snapshot(&self) -> Arc<Database> {
        self.shared.snapshot()
    }

    /// The current global database epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.snapshot().epoch()
    }

    /// The current epoch of one relation — its component of the vector
    /// clock.
    pub fn epoch_of(&self, rel: RelId) -> u64 {
        self.shared.snapshot().epoch_of(rel)
    }

    /// Plan-cache movement counters (summed across cache shards).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Waits until every WAL record appended so far is durable per the
    /// sync policy, sharing the fsync with concurrently committing
    /// writers (group commit). Called with **no serving locks held** —
    /// this is what keeps fsync time out of the commit section. Records
    /// the batch size when this thread ends up leading a flush. A no-op
    /// without durability or under [`SyncPolicy::Manual`].
    fn wal_ack(&self) -> crate::Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        match d.writer.ack() {
            Ok(Some(batch)) => {
                self.metrics.record_group_commit(batch);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(ServiceError::Durability(e.to_string())),
        }
    }

    /// The server's metrics registry — always-on counters and latency
    /// histograms the serving paths record into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Enables or disables request tracing server-wide: while on, every
    /// request records its phase timings (admit → cache-lookup → compile →
    /// bind → execute → respond) into the registry's phase histograms.
    /// Off (the default) costs one relaxed load per phase.
    pub fn set_tracing(&self, on: bool) {
        self.metrics.set_tracing(on);
    }

    /// A point-in-time snapshot of every metric the server keeps: the
    /// registry's counters and histograms, plus the plan-cache movement
    /// counters and storage gauges (tuple counts, COW write amplification,
    /// interner size, epoch) pulled from their owning structures — they
    /// are counted once at their source, never double-counted per request.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        {
            let cs = self.cache.stats();
            snap.cache.hits = cs.hits;
            snap.cache.misses = cs.misses;
            snap.cache.evictions = cs.evictions;
            snap.cache.entries = self.cache.len() as u64;
        }
        if let Some(d) = &self.durability {
            let ws = d.writer.stats();
            snap.wal.records = ws.records;
            snap.wal.bytes = ws.bytes;
            snap.wal.fsyncs = ws.fsyncs;
            snap.wal.group_batches = ws.group_batches;
            snap.wal.group_records = ws.group_records;
            snap.wal.replayed = d.replayed;
            snap.wal.checkpoints = d.checkpoints.load(Ordering::Relaxed);
            snap.wal.last_seq = d.writer.last_seq();
            let retained = ws.bytes as i64 + d.retained_offset.load(Ordering::Relaxed);
            snap.wal.retained_bytes = retained.max(0) as u64;
            snap.wal.snapshot_bytes = d.snapshot_bytes.load(Ordering::Relaxed);
        }
        let db = self.shared.snapshot();
        snap.writes.cow_shard_clones = db.cow_clones();
        snap.writes.cow_cells_cloned = db.cow_cells_cloned();
        snap.gauges.relations = db.num_relations() as u64;
        snap.gauges.total_tuples = db.total_tuples() as u64;
        snap.gauges.interner_symbols = db.symbols().len() as u64;
        let (index_keys, index_bytes) = db.index_footprint();
        snap.gauges.index_keys = index_keys as u64;
        snap.gauges.index_bytes = index_bytes as u64;
        snap.gauges.table_bytes = db.table_bytes() as u64;
        snap.gauges.epoch = db.epoch();
        snap
    }

    /// Opens a session (per client/thread; sessions share the server's
    /// cache and database).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            server: Arc::clone(self),
            stats: SessionStats::default(),
            sql: SqlScratch::default(),
        }
    }

    /// Prepares (or fetches from cache) a query template: classification
    /// into a lane, and for the bounded lane the compiled parameterized
    /// plan. A cached entry is returned as stored, whatever was written
    /// since it was compiled.
    pub fn prepare(&self, q: &SpcQuery) -> crate::Result<Prepared> {
        self.prepare_keyed(&query_fingerprint(q), || self.classify_spc(q))
    }

    /// Prepares (or fetches from cache) a query **text** by its shape.
    ///
    /// One scan of `sql` ([`SqlShape::scan`]) lifts every literal to the
    /// right of an `=` into a slot and yields the shape key the plan cache
    /// is looked up under — one cache, one eviction order, shared with
    /// [`Server::prepare`]. On a hit nothing is parsed, fingerprinted or
    /// planned. On a miss the scanned tokens are
    /// parsed into the shape's template (one placeholder per lifted
    /// literal) and classified like any other template; a text that does
    /// not parse, or that the admission policy refuses, caches nothing.
    ///
    /// Either way `scratch.bindings` then holds the bindings to execute
    /// with: the lifted values under their slot names, merged with the
    /// caller's own `bindings` for the `?name` parameters of the text.
    fn prepare_sql(
        &self,
        name: &str,
        sql: &str,
        bindings: &BTreeMap<String, Value>,
        scratch: &mut SqlScratch,
    ) -> crate::Result<Prepared> {
        if let Some(reserved) = bindings.keys().find(|k| k.starts_with(LIFTED_SLOT_PREFIX)) {
            return Err(CoreError::Invalid(format!(
                "parameter name `{reserved}` is reserved for lifted literals"
            ))
            .into());
        }
        scratch.key.clear();
        scratch.key.push_str(SQL_KEY_PREFIX);
        scratch.values.clear();
        let shape = SqlShape::scan(sql, &mut scratch.key, &mut scratch.values)?;
        self.metrics.record_sql(scratch.values.len() as u64);
        let prepared = self.prepare_keyed(&scratch.key, || {
            let template = shape.template(Arc::clone(self.access.catalog()), name)?;
            self.classify_spc(&template)
        })?;
        scratch.bind(bindings);
        Ok(prepared)
    }

    /// Prepares an RA expression. A bare SPC block is [`Server::prepare`]d
    /// (one cache entry, whichever call compiled it first); certified set
    /// expressions ride the [`Lane::BoundedRa`] lane; uncertified ones are
    /// rejected (the baseline evaluates SPC only).
    pub fn prepare_ra(&self, expr: &RaExpr) -> crate::Result<Prepared> {
        match expr {
            RaExpr::Spc(q) => self.prepare(q),
            _ => self.prepare_keyed(&ra_fingerprint(expr), || self.classify_ra(expr)),
        }
    }

    fn prepare_keyed(
        &self,
        key: &str,
        build: impl FnOnce() -> crate::Result<PreparedQuery>,
    ) -> crate::Result<Prepared> {
        {
            let _lookup = self.metrics.span(Phase::CacheLookup);
            if let Some(query) = lock_recovered(self.cache.shard(key)).get(key) {
                return Ok(Prepared {
                    query,
                    cache_hit: true,
                    compile_elapsed: Duration::ZERO,
                });
            }
        }
        // Miss: compile outside the cache lock.
        let compile_span = self.metrics.span(Phase::Compile);
        let compile_start = Instant::now();
        let prepared = Arc::new(build()?);
        let compile_elapsed = compile_start.elapsed();
        drop(compile_span);
        lock_recovered(self.cache.shard(key)).insert(key.to_owned(), Arc::clone(&prepared));
        Ok(Prepared {
            query: prepared,
            cache_hit: false,
            compile_elapsed,
        })
    }

    /// Classifies `q` into its lane.
    fn classify_spc(&self, q: &SpcQuery) -> crate::Result<PreparedQuery> {
        let _admit = self.metrics.span(Phase::Admit);
        match qplan_template(q, &self.access) {
            Ok(plan) => Ok(PreparedQuery::bounded(plan)),
            Err(CoreError::NotEffectivelyBounded(why)) => match self.config.policy {
                AdmissionPolicy::Strict => {
                    self.metrics.record_rejected();
                    Err(ServiceError::Rejected(format!(
                        "query is not effectively bounded and the policy is strict: {why}"
                    )))
                }
                AdmissionPolicy::Budgeted(_) => Ok(PreparedQuery::unbounded(q.clone())),
            },
            Err(e) => Err(e.into()),
        }
    }

    fn classify_ra(&self, expr: &RaExpr) -> crate::Result<PreparedQuery> {
        let _admit = self.metrics.span(Phase::Admit);
        // Certification is compilation, done here once: one walk of
        // [`PreparedRa::prepare`] asks of every block whether its template
        // has a bounded plan — the block itself if enumerated, the block
        // with its projection pinned to the probe slots if probed, the
        // template's own placeholders seeding the closure either way — and
        // keeps the plans it built, intersection orientations chosen on the
        // way. The cache stores the whole skeleton; requests only bind and
        // interpret.
        match PreparedRa::prepare(expr, &self.access) {
            Ok(compiled) => Ok(PreparedQuery::bounded_ra(compiled)),
            Err(CoreError::NotEffectivelyBounded(why)) => {
                self.metrics.record_rejected();
                Err(ServiceError::Rejected(format!(
                    "RA expression is not certified effectively bounded: {why}"
                )))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Runs `exec` on this thread's request environment rebound to
    /// `bindings`: the Value boundary is crossed exactly once per request,
    /// in place (steady state: same parameter names every request, zero
    /// allocations).
    fn with_request_env<T>(
        &self,
        snap: &Database,
        bindings: &BTreeMap<String, Value>,
        exec: impl FnOnce(&mut ParamEnv) -> T,
    ) -> T {
        REQUEST_ENV.with(|cell| {
            let mut env = cell.borrow_mut();
            {
                let _bind = self.metrics.span(Phase::Bind);
                env.rebind(snap.symbols(), bindings);
            }
            let _exec = self.metrics.span(Phase::Execute);
            exec(&mut env)
        })
    }

    /// Executes a prepared query against the current snapshot with the
    /// given parameter bindings. (`stats.cache_hit` is filled by
    /// [`Session::query`]; direct callers get `false`.)
    pub fn execute(
        &self,
        p: &PreparedQuery,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let snap = self.shared.snapshot();
        let epoch = snap.epoch();
        let start = Instant::now();
        let (outcome, meter, budget) = match &p.compiled {
            Compiled::Bounded(plan) => {
                let out = self.with_request_env(&snap, bindings, |env| {
                    eval_dq_with(&snap, plan, &self.access, env)
                })?;
                (
                    Outcome::Answer(out.result),
                    out.meter,
                    BudgetVerdict::Unlimited,
                )
            }
            Compiled::BoundedRa(compiled) => {
                let out = self.with_request_env(&snap, bindings, |env| {
                    eval_ra_prepared(&snap, compiled, &self.access, env)
                })?;
                (
                    Outcome::Answer(out.result),
                    out.meter,
                    BudgetVerdict::Unlimited,
                )
            }
            Compiled::Unbounded(template, _) => {
                let cap = match self.config.policy {
                    AdmissionPolicy::Budgeted(cap) => cap,
                    AdmissionPolicy::Strict => {
                        self.metrics.record_rejected();
                        return Err(ServiceError::Rejected(
                            "unbounded query under a strict policy".into(),
                        ));
                    }
                };
                let ground = {
                    let _bind = self.metrics.span(Phase::Bind);
                    template.instantiate(bindings)
                };
                ground.require_ground()?;
                let exec_span = self.metrics.span(Phase::Execute);
                let out = baseline(
                    &snap,
                    &ground,
                    &self.access,
                    BaselineOptions {
                        mode: BaselineMode::ConstIndex,
                        work_budget: Some(cap),
                    },
                )?;
                drop(exec_span);
                match out {
                    BaselineOutcome::Completed { result, meter, .. } => (
                        Outcome::Answer(result),
                        meter,
                        BudgetVerdict::Completed { cap },
                    ),
                    BaselineOutcome::DidNotFinish { meter, .. } => (
                        Outcome::DidNotFinish,
                        meter,
                        BudgetVerdict::Exhausted { cap },
                    ),
                }
            }
        };
        let mut resp = Response::served(p.lane(), epoch, outcome, meter, budget, start.elapsed());
        resp.stats.total_elapsed = start.elapsed();
        // The latency recorded is the total already measured above: the
        // metrics path adds no clock read of its own — one enabled check,
        // one histogram `fetch_add`, one sharded-counter `fetch_add`.
        if self.metrics.is_enabled() {
            let lane = match resp.stats.lane {
                Lane::Bounded => LaneKind::Bounded,
                Lane::BoundedRa => LaneKind::BoundedRa,
                Lane::Unbounded => LaneKind::Budgeted,
            };
            let ns = dur_ns(resp.stats.total_elapsed);
            self.metrics
                .record_request(lane, ns, resp.stats.meter.tuples_fetched);
            match resp.stats.budget {
                BudgetVerdict::Unlimited => {}
                BudgetVerdict::Completed { .. } => self.metrics.record_budget_verdict(true),
                BudgetVerdict::Exhausted { .. } => self.metrics.record_budget_verdict(false),
            }
        }
        Ok(resp)
    }

    /// [`Server::execute`] in **profiled mode**: the bounded lane runs the
    /// compiled program with a recording probe and returns the
    /// per-operator breakdown — each fetch step, pin resolution, filter
    /// sweep, join step and the projection, with wall time and row counts
    /// — alongside the response ([`OpProfile::render`] formats it).
    /// Non-bounded lanes execute normally and yield an empty profile (only
    /// the compiled interpreter has operator steps to attribute). A
    /// diagnostics path: the probe allocates per step, so it is never the
    /// serving path.
    pub fn execute_profiled(
        &self,
        p: &PreparedQuery,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<(Response, OpProfile)> {
        let Compiled::Bounded(plan) = &p.compiled else {
            let resp = self.execute(p, bindings)?;
            let profile = OpProfile {
                steps: Vec::new(),
                total_ns: dur_ns(resp.stats.total_elapsed),
            };
            return Ok((resp, profile));
        };
        let snap = self.shared.snapshot();
        let epoch = snap.epoch();
        let start = Instant::now();
        let env = ParamEnv::encode(snap.symbols(), bindings);
        let (out, profile) = eval_dq_profiled(&snap, plan, &self.access, &env)?;
        let mut resp = Response::served(
            Lane::Bounded,
            epoch,
            Outcome::Answer(out.result),
            out.meter,
            BudgetVerdict::Unlimited,
            out.elapsed,
        );
        resp.stats.total_elapsed = start.elapsed();
        Ok((resp, profile))
    }

    /// Inserts one row and returns its id. Every index of the relation is
    /// maintained, so cached plans stay valid; a view reading the
    /// relation re-evaluates on its next read. See `write_row` for the
    /// locks taken and when the write is durable.
    pub fn insert(&self, rel_name: &str, row: &[Value]) -> crate::Result<u32> {
        let rid = self.write_row(RowOp::Insert, rel_name, row)?;
        Ok(rid.expect("an insert always lands"))
    }

    /// Deletes one copy of `row` (tombstone-free swap-remove + posting
    /// fix-up, indices maintained): the epoch advances and a new snapshot
    /// is published — readers holding snapshots taken before the delete
    /// still see the old rows. Returns `false` — with no epoch bump and no
    /// WAL traffic — if no copy of `row` is stored.
    pub fn delete(&self, rel_name: &str, row: &[Value]) -> crate::Result<bool> {
        Ok(self.write_row(RowOp::Delete, rel_name, row)?.is_some())
    }

    /// The one served row write (see the module docs' lock order): gate →
    /// latch → commit → `wal_ack` → metrics. Returns the row id the
    /// storage layer reported (the appended row's for an insert, the
    /// removed copy's pre-swap id for a delete), or `None` when nothing
    /// changed (a delete that found no copy), in which case nothing was
    /// logged or recorded.
    ///
    /// The writer latches only `rel_name`'s relation, so writers on
    /// disjoint relations never wait on each other's latch. When snapshots
    /// are outstanding the new shard — indices maintained — is prepared
    /// *off* the commit lock ([`Database::prepare`]) and the commit section
    /// is one pointer swap; otherwise the uniquely owned shard is mutated
    /// in place inside the commit section — the cheapest path for one
    /// writer, and where disjoint writers serialize. The
    /// latch and the shared bulk gate together exclude every other
    /// writer that could touch this shard in between. The WAL fsync (group
    /// commit, shared with concurrent writers) is waited on only after
    /// every lock is released.
    fn write_row(&self, op: RowOp, rel_name: &str, row: &[Value]) -> crate::Result<Option<u32>> {
        let write_start = Instant::now();
        let rel = self.access.catalog().require_rel(rel_name)?;
        // Shared on the bulk gate: excludes bulk writes/checkpoints, not
        // other row writers.
        let gate = read_recovered(&self.gate);
        let latch = self.shared.lock_rel(rel);
        self.metrics
            .record_lock_wait(latch.wait_ns, latch.contended);
        // `None`: no snapshot is outstanding, the shard is uniquely owned.
        let prepared = if self.shared.has_snapshots() {
            Some(self.shared.snapshot().prepare(op, rel_name, row)?)
        } else {
            None
        };
        let rid = if matches!(prepared, Some(Prepare::Absent)) {
            // The latch is still held, so a concurrent same-relation
            // writer cannot invalidate this verdict.
            None
        } else {
            let hold = Instant::now();
            let rid = self.shared.write(|db| match (prepared, op) {
                (Some(Prepare::Ready(p)), _) => Ok(Some(db.commit_prepared(p))),
                // Nothing to copy, or a row value missed the interner
                // (encoding needs `&mut SymbolTable`): in place under the
                // commit lock.
                (_, RowOp::Insert) => db.insert(rel_name, row).map(Some),
                (_, RowOp::Delete) => db.delete(rel_name, row),
            })?;
            self.metrics.record_commit_hold(dur_ns(hold.elapsed()));
            rid
        };
        drop(latch);
        drop(gate);
        if rid.is_some() {
            // The WAL record was appended inside the commit section (log
            // order = commit order); the fsync that makes it durable is
            // shared with concurrent writers and waited on lock-free.
            self.wal_ack()?;
            self.metrics
                .record_write(op == RowOp::Insert, dur_ns(write_start.elapsed()));
        }
        Ok(rid)
    }

    /// Builds every declared index a bulk write left missing; returns the
    /// nanoseconds that took, for `index_build_ns`.
    fn rebuild_indexes(&self, db: &mut Database) -> u64 {
        let start = Instant::now();
        db.build_indexes(&self.access);
        dur_ns(start.elapsed())
    }

    /// Runs an arbitrary batch mutation (bulk load, manual index work) and
    /// then rebuilds all declared indices, so readers and cached plans are
    /// consistent again afterwards. Registered views whose relations it
    /// wrote re-evaluate on the next [`Server::view_result`].
    pub fn bulk_update<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        // Exclusive on the bulk gate: every row writer holds it shared,
        // so none can have a prepared-but-uncommitted shard in flight
        // while this arbitrary mutation rewrites state.
        let _gate = write_recovered(&self.gate);
        let mut build_ns = 0u64;
        let r = self.shared.write(|db| {
            let r = f(db);
            build_ns = self.rebuild_indexes(db);
            r
        });
        if self.metrics.is_enabled() {
            self.metrics.bulk_updates.inc();
            self.metrics.index_build_ns.add(build_ns);
        }
        // Best-effort group-commit wait (the signature has no error
        // slot): a failed fsync is retried by the next `wal_ack` /
        // [`Server::wal_sync`] caller, and a failed append poisoned the
        // log, so every later write, `wal_sync` and checkpoint reports it.
        let _ = self.wal_ack();
        r
    }

    /// Bulk-loads rows into `rel_name` through the storage layer's chunked
    /// fast path: `f` drives a [`BulkLoader`] (batch symbol interning, one
    /// WAL record per chunk), then all declared indices are rebuilt in the
    /// same write — readers never observe the loaded rows without their
    /// indices. Like [`Server::bulk_update`], registered views re-evaluate
    /// on their next read. Returns `f`'s result and the load's
    /// [`IngestStats`]; ingest counters and the index-rebuild time land in
    /// the metrics registry.
    pub fn bulk_load<R>(
        &self,
        rel_name: &str,
        f: impl FnOnce(&mut BulkLoader<'_>) -> R,
    ) -> crate::Result<(R, IngestStats)> {
        let rel = self.access.catalog().require_rel(rel_name)?;
        let _gate = write_recovered(&self.gate);
        let mut build_ns = 0u64;
        let (r, stats) = self.shared.write(|db| {
            let mut loader = db.bulk_loader(rel);
            let r = f(&mut loader);
            let stats = loader.stats();
            drop(loader); // closes the WAL bulk bracket before the index build
            build_ns = self.rebuild_indexes(db);
            (r, stats)
        });
        if self.metrics.is_enabled() {
            self.metrics.bulk_updates.inc();
            self.metrics.record_ingest(
                stats.rows,
                stats.chunks,
                stats.cell_bytes,
                stats.intern_batch_hits,
                build_ns,
            );
        }
        self.wal_ack()?;
        Ok((r, stats))
    }

    /// Registers `q` as a view: a ground query that must be effectively
    /// bounded under the server's access schema. Its bounded plan is
    /// generated here, once; the answer is computed by the first
    /// [`Server::view_result`].
    pub fn register_view(&self, q: &SpcQuery) -> crate::Result<ViewId> {
        let view = View {
            plan: qplan(q, &self.access)?,
            read_rels: q.read_rels(),
            cached: Mutex::new(CachedAnswer {
                answer: ResultSet::empty(),
                stamps: None,
            }),
        };
        let mut views = write_recovered(&self.gate);
        views.push(view);
        Ok(ViewId(views.len() - 1))
    }

    /// The answer of a registered view. Re-runs the view's bounded plan
    /// first if a relation one of its atoms reads advanced past the
    /// cached answer's stamps (writes to *other* relations never do);
    /// otherwise returns the cached answer.
    pub fn view_result(&self, id: ViewId) -> crate::Result<ResultSet> {
        let views = read_recovered(&self.gate);
        let view = views
            .get(id.0)
            .ok_or_else(|| ServiceError::Core(CoreError::Invalid("unknown view id".into())))?;
        // Answer lock first, snapshot second: a snapshot taken before the
        // lock could predate the state a concurrent read of this view
        // just cached, and would replace it with an older answer.
        let mut cached = lock_recovered(&view.cached);
        let snap = self.shared.snapshot();
        let current = cached
            .stamps
            .as_ref()
            .is_some_and(|s| s.iter().all(|&(rel, e)| snap.epoch_of(rel) == e));
        if !current {
            let out = eval_dq_with(&snap, &view.plan, &self.access, ParamEnv::empty_ref())?;
            cached.answer = out.result;
            let stamps = view.read_rels.iter().map(|&rel| (rel, snap.epoch_of(rel)));
            cached.stamps = Some(stamps.collect());
            if self.metrics.is_enabled() {
                self.metrics.view_recomputes.inc();
            }
        }
        Ok(cached.answer.clone())
    }
}

/// Aggregate statistics of one session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Requests served (successful executes).
    pub requests: u64,
    /// Requests whose prepare was a cache hit.
    pub cache_hits: u64,
    /// Requests on the bounded lane.
    pub bounded: u64,
    /// Requests on the bounded-RA lane.
    pub bounded_ra: u64,
    /// Requests on the budgeted baseline lane.
    pub unbounded: u64,
    /// Budgeted requests that hit the work cap.
    pub did_not_finish: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Total tuples fetched across requests.
    pub tuples_fetched: u64,
    /// Rows inserted through this session.
    pub inserts: u64,
    /// Rows deleted through this session (only deletes that found a row).
    pub deletes: u64,
}

/// A per-client handle: thin wrapper over an `Arc<Server>` that funnels
/// prepare+execute and aggregates [`SessionStats`].
pub struct Session {
    server: Arc<Server>,
    stats: SessionStats,
    sql: SqlScratch,
}

impl Session {
    /// The server this session talks to.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Prepares (cached) and executes `q` with `bindings`.
    pub fn query(
        &mut self,
        q: &SpcQuery,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let prepared = self.record_prepare(self.server.prepare(q))?;
        self.run(&prepared, bindings)
    }

    /// Prepares (cached) and executes an RA expression.
    pub fn query_ra(
        &mut self,
        expr: &RaExpr,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let prepared = self.record_prepare(self.server.prepare_ra(expr))?;
        self.run(&prepared, bindings)
    }

    /// Serves an SQL-ish query text, compiled once per **shape**: one scan
    /// of `sql` ([`SqlShape::scan`]) lifts every literal to the right of an
    /// `=` into a slot, and the plan cache is keyed on what is left, so
    /// only the first text of a shape is parsed, analysed and planned. The
    /// request executes with the text's own literals plus `bindings` for
    /// its `?name` parameters (whose names may not start with
    /// [`LIFTED_SLOT_PREFIX`]). A text that does not parse, or that the
    /// admission policy refuses, caches nothing.
    pub fn query_sql(
        &mut self,
        name: &str,
        sql: &str,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let mut scratch = std::mem::take(&mut self.sql);
        let prepared = self.server.prepare_sql(name, sql, bindings, &mut scratch);
        let result = self
            .record_prepare(prepared)
            .and_then(|p| self.run(&p, &scratch.bindings));
        self.sql = scratch;
        result
    }

    /// Inserts one row through the server's write path
    /// ([`Server::insert`]).
    pub fn insert(&mut self, rel_name: &str, row: &[Value]) -> crate::Result<u32> {
        let rid = self.server.insert(rel_name, row)?;
        self.stats.inserts += 1;
        Ok(rid)
    }

    /// Deletes one copy of a row through the server's write path
    /// ([`Server::delete`]). Returns `false` if no copy was stored.
    pub fn delete(&mut self, rel_name: &str, row: &[Value]) -> crate::Result<bool> {
        let deleted = self.server.delete(rel_name, row)?;
        self.stats.deletes += u64::from(deleted);
        Ok(deleted)
    }

    fn record_prepare(&mut self, r: crate::Result<Prepared>) -> crate::Result<Prepared> {
        if matches!(r, Err(ServiceError::Rejected(_))) {
            self.stats.rejected += 1;
        }
        r
    }

    fn run(
        &mut self,
        prepared: &Prepared,
        bindings: &BTreeMap<String, Value>,
    ) -> crate::Result<Response> {
        let mut resp = self.server.execute(&prepared.query, bindings)?;
        let _respond = self.server.metrics.span(Phase::Respond);
        resp.stats.cache_hit = prepared.cache_hit;
        resp.stats.compile_elapsed = prepared.compile_elapsed;
        // Prepare happened before execute's clock started: fold the
        // compile time back in so `total_elapsed` is end-to-end and the
        // `compile + exec ≤ total` invariant holds per request.
        resp.stats.total_elapsed += prepared.compile_elapsed;
        self.stats.requests += 1;
        self.stats.cache_hits += u64::from(prepared.cache_hit);
        match resp.stats.lane {
            Lane::Bounded => self.stats.bounded += 1,
            Lane::BoundedRa => self.stats.bounded_ra += 1,
            Lane::Unbounded => self.stats.unbounded += 1,
        }
        self.stats.did_not_finish += u64::from(!resp.finished());
        self.stats.tuples_fetched += resp.stats.meter.tuples_fetched;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::Catalog;

    /// Example 1's catalog + access schema.
    fn schema() -> AccessSchema {
        let catalog = Catalog::from_names(&[
            ("in_album", &["photo_id", "album_id"]),
            ("friends", &["user_id", "friend_id"]),
            ("tagging", &["photo_id", "tagger_id", "taggee_id"]),
        ])
        .unwrap();
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("in_album", &["album_id"], &["photo_id"], 1000)
            .unwrap();
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        a.add("tagging", &["photo_id", "taggee_id"], &["tagger_id"], 1)
            .unwrap();
        a
    }

    /// Example 1's schema/access/data, served.
    fn setup(policy: AdmissionPolicy) -> Arc<Server> {
        let a = schema();
        let catalog = Arc::clone(a.catalog());
        let mut db = Database::new(Arc::clone(&catalog));
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            db.insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u9", "u3")] {
            db.insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        for (p, tagger, taggee) in [
            ("p1", "u1", "u0"),
            ("p2", "u3", "u0"),
            ("p4", "u2", "u0"),
            ("p3", "u1", "u5"),
        ] {
            db.insert(
                "tagging",
                &[Value::str(p), Value::str(tagger), Value::str(taggee)],
            )
            .unwrap();
        }
        Arc::new(Server::new(
            db,
            a,
            ServerConfig {
                plan_cache_capacity: 8,
                policy,
                ..ServerConfig::default()
            },
        ))
    }

    /// Q1 as a template with `?aid` / `?uid` slots.
    fn template(server: &Server) -> SpcQuery {
        SpcQuery::builder(Arc::clone(server.access().catalog()), "Q1")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_param(("ia", "album_id"), "aid")
            .eq_param(("f", "user_id"), "uid")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq_param(("t", "taggee_id"), "uid")
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    fn bind(aid: &str, uid: &str) -> BTreeMap<String, Value> {
        let mut b = BTreeMap::new();
        b.insert("aid".to_string(), Value::str(aid));
        b.insert("uid".to_string(), Value::str(uid));
        b
    }

    #[test]
    fn bounded_lane_serves_template_bindings_with_cache_hits() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let r1 = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r1.stats.lane, Lane::Bounded);
        assert!(!r1.stats.cache_hit, "first request compiles");
        assert_eq!(r1.rows().unwrap().len(), 1);
        assert!(r1.rows().unwrap().contains(&[Value::str("p1")]));

        let r2 = s.query(&q1, &bind("a1", "u0")).unwrap();
        assert!(r2.stats.cache_hit, "same template, new binding: cached");
        // p4 is in a1, tagged by u2 (a friend of u0), taggee u0.
        assert_eq!(r2.rows().unwrap().len(), 1);
        assert!(r2.rows().unwrap().contains(&[Value::str("p4")]));

        let r3 = s.query(&q1, &bind("a0", "u9")).unwrap();
        assert!(r3.stats.cache_hit);
        assert!(r3.rows().unwrap().is_empty());

        let stats = s.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.bounded, 3);
        let cs = server.cache_stats();
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.hits, 2);
    }

    #[test]
    fn sql_texts_of_one_shape_share_one_cache_entry() {
        // Capacity 8, 50 distinct literals: keyed on the text they would
        // have evicted each other; keyed on the shape they are one entry.
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        const N: u64 = 50;
        for i in 0..N {
            let sql = format!("SELECT f.friend_id FROM friends f WHERE f.user_id = 'u{i}'");
            let r = s.query_sql("adhoc", &sql, &BTreeMap::new()).unwrap();
            assert_eq!(r.stats.lane, Lane::Bounded);
            assert_eq!(r.stats.cache_hit, i > 0, "literal {i}");
            let expect = match i {
                0 => 2,
                9 => 1,
                _ => 0,
            };
            assert_eq!(r.rows().unwrap().len(), expect, "friends of u{i}");
        }
        assert_eq!(server.cache.len(), 1);
        let cs = server.cache_stats();
        assert_eq!(
            (cs.misses, cs.hits, cs.evictions),
            (1, N - 1, 0),
            "one compile per shape"
        );
        let m = server.metrics_snapshot();
        assert_eq!((m.sql.requests, m.sql.literals_lifted), (N, N));
        assert_eq!(m.requests(), N);
    }

    #[test]
    fn shape_entries_obey_the_cache_staleness_rules() {
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        let none = BTreeMap::new();
        let friends_of =
            |u: &str| format!("SELECT f.friend_id FROM friends f WHERE f.user_id = '{u}'");
        let photos_in =
            |a: &str| format!("SELECT ia.photo_id FROM in_album ia WHERE ia.album_id = '{a}'");
        let row = |u: &str, f: &str| [Value::str(u), Value::str(f)];
        let rows_of = |s: &mut Session, sql: &str| {
            let r = s.query_sql("q", sql, &none).unwrap();
            (r.stats.cache_hit, r.rows().unwrap().len())
        };
        assert_eq!(rows_of(&mut s, &friends_of("u0")), (false, 2));
        assert_eq!(rows_of(&mut s, &photos_in("a0")), (false, 3));
        let friends_template = SpcQuery::builder(Arc::clone(server.access().catalog()), "fr")
            .atom("friends", "f")
            .eq_param(("f", "user_id"), "uid")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let before = server.prepare(&friends_template).unwrap().query;
        let misses = server.cache_stats().misses;
        assert_eq!(misses, 3);

        // Row writes, to a relation the shape reads or not: hits, and the
        // answers follow the data.
        server.insert("in_album", &row("p9", "a9")).unwrap();
        assert_eq!(rows_of(&mut s, &friends_of("u9")), (true, 1));
        server.insert("friends", &row("u9", "u4")).unwrap();
        assert_eq!(rows_of(&mut s, &friends_of("u9")), (true, 2));
        assert!(server.delete("friends", &row("u9", "u4")).unwrap());
        assert_eq!(rows_of(&mut s, &friends_of("u9")), (true, 1));

        // The one reachable way to publish a snapshot without an index: a
        // `bulk_update` closure that opens a bulk loader (which clears the
        // relation's indices) and panics before the rebuild. Reads of that
        // relation fail on the executor's own check — no wrong answer, no
        // panic — and every other relation keeps answering.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.bulk_update(|db| {
                let friends = db.catalog().require_rel("friends").unwrap();
                db.bulk_loader(friends).push_rows(&row("u9", "u5"));
                panic!("closure dies before the index rebuild");
            })
        }));
        assert!(panicked.is_err());
        let err = s.query_sql("q", &friends_of("u9"), &none).unwrap_err();
        assert!(err.to_string().contains("not built"), "{err}");
        assert_eq!(rows_of(&mut s, &photos_in("a0")), (true, 3));

        // The next bulk write heals it; the entries compiled before the
        // panic were never dropped.
        server.bulk_update(|_| ());
        assert_eq!(
            rows_of(&mut s, &friends_of("u9")),
            (true, 2),
            "u3 and the panicked closure's u5"
        );
        let after = server.prepare(&friends_template).unwrap();
        assert!(after.cache_hit);
        assert!(Arc::ptr_eq(&before, &after.query));
        assert_eq!(server.cache_stats().misses, misses);
        assert_eq!(server.cache.len(), 3);
    }

    #[test]
    fn sql_scratch_rebinds_in_place_across_shapes_and_caller_names() {
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        let mut caller = BTreeMap::new();
        caller.insert("uid".to_string(), Value::str("u0"));
        // Literal + caller-bound parameter.
        let q1 = "SELECT ia.photo_id FROM in_album ia, friends f, tagging t \
                  WHERE ia.album_id = 'a0' AND f.user_id = ?uid \
                  AND ia.photo_id = t.photo_id AND t.tagger_id = f.friend_id \
                  AND t.taggee_id = ?uid";
        let r = s.query_sql("q1", q1, &caller).unwrap();
        assert!(r.rows().unwrap().contains(&[Value::str("p1")]));
        assert_eq!(s.sql.bindings.keys().collect::<Vec<_>>(), vec!["$1", "uid"]);
        // Another shape with more slots and no caller names: stale names
        // are dropped, not left behind to shadow anything.
        let q2 = "SELECT t.tagger_id FROM tagging t \
                  WHERE t.photo_id = 'p1' AND t.taggee_id = 'u0'";
        let r = s.query_sql("q2", q2, &BTreeMap::new()).unwrap();
        assert!(r.rows().unwrap().contains(&[Value::str("u1")]));
        assert_eq!(s.sql.bindings.keys().collect::<Vec<_>>(), vec!["$1", "$2"]);
        // Back to the first shape: same answer as before.
        let r = s.query_sql("q1", q1, &caller).unwrap();
        assert!(r.stats.cache_hit);
        assert_eq!(r.rows().unwrap().len(), 1);
        // A caller name spelled like a lifted slot is refused up front.
        let mut bad = BTreeMap::new();
        bad.insert("$1".to_string(), Value::str("a0"));
        let err = s.query_sql("q1", q1, &bad).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn strict_policy_rejects_unbounded_queries() {
        let server = setup(AdmissionPolicy::Strict);
        // All of tagging: no constants, not effectively bounded.
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let mut s = server.session();
        let err = s.query(&q, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected(_)), "{err}");
        assert_eq!(s.stats().rejected, 1);
    }

    #[test]
    fn budgeted_policy_admits_with_verdicts() {
        let server = setup(AdmissionPolicy::Budgeted(1_000));
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let mut s = server.session();
        let r = s.query(&q, &BTreeMap::new()).unwrap();
        assert_eq!(r.stats.lane, Lane::Unbounded);
        assert!(matches!(
            r.stats.budget,
            BudgetVerdict::Completed { cap: 1_000 }
        ));
        assert_eq!(r.rows().unwrap().len(), 4);

        // A tiny budget turns the same query into a did-not-finish.
        let server = setup(AdmissionPolicy::Budgeted(2));
        let mut s = server.session();
        let r = s.query(&q, &BTreeMap::new()).unwrap();
        assert!(!r.finished());
        assert!(matches!(
            r.stats.budget,
            BudgetVerdict::Exhausted { cap: 2 }
        ));
        assert_eq!(s.stats().did_not_finish, 1);
    }

    #[test]
    fn bounded_ra_lane_serves_set_expressions() {
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        let friends_of = |name: &str, user: &str| {
            SpcQuery::builder(Arc::clone(&cat), name)
                .atom("friends", "f")
                .eq_const(("f", "user_id"), user)
                .project(("f", "friend_id"))
                .build()
                .unwrap()
        };
        let expr = RaExpr::union(
            RaExpr::Spc(friends_of("f0", "u0")),
            RaExpr::Spc(friends_of("f9", "u9")),
        );
        let mut s = server.session();
        let r = s.query_ra(&expr, &BTreeMap::new()).unwrap();
        assert_eq!(r.stats.lane, Lane::BoundedRa);
        assert_eq!(r.rows().unwrap().len(), 3); // u1, u2, u3
        let r2 = s.query_ra(&expr, &BTreeMap::new()).unwrap();
        assert!(r2.stats.cache_hit);
        assert_eq!(r2.rows().unwrap(), r.rows().unwrap());
    }

    #[test]
    fn a_bare_block_is_one_cache_entry_whichever_way_it_is_prepared() {
        for ra_first in [false, true] {
            let server = setup(AdmissionPolicy::Strict);
            let q1 = template(&server);
            let bare = RaExpr::Spc(q1.clone());
            let (first, second) = if ra_first {
                (server.prepare_ra(&bare), server.prepare(&q1))
            } else {
                (server.prepare(&q1), server.prepare_ra(&bare))
            };
            let (first, second) = (first.unwrap(), second.unwrap());
            assert!(!first.cache_hit && second.cache_hit, "ra first: {ra_first}");
            assert!(Arc::ptr_eq(&first.query, &second.query));
            assert_eq!(second.query.lane(), Lane::Bounded);
            assert_eq!(server.cache.len(), 1);
            assert_eq!(server.cache_stats().misses, 1);
        }
    }

    #[test]
    fn parameterized_ra_templates_serve_bindings() {
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        let friends_tpl = |name: &str, slot: &str| {
            SpcQuery::builder(Arc::clone(&cat), name)
                .atom("friends", "f")
                .eq_param(("f", "user_id"), slot)
                .project(("f", "friend_id"))
                .build()
                .unwrap()
        };
        // Friends of ?a that are not friends of ?b.
        let expr = RaExpr::difference(
            RaExpr::Spc(friends_tpl("l", "a")),
            RaExpr::Spc(friends_tpl("r", "b")),
        );
        let prepared = server.prepare_ra(&expr).unwrap();
        assert_eq!(prepared.query.lane(), Lane::BoundedRa);
        assert_eq!(prepared.query.param_slots(), ["a", "b"]);

        let mut s = server.session();
        let mut b = BTreeMap::new();
        b.insert("a".to_string(), Value::str("u0"));
        b.insert("b".to_string(), Value::str("u9"));
        let resp = s.query_ra(&expr, &b).unwrap();
        // u0's friends {u1, u2} minus u9's friends {u3}.
        assert_eq!(resp.rows().unwrap().len(), 2);
        // The meter is the sum over the plans the request ran, as on the
        // other lanes: the base fetch through one key plus one index probe
        // per candidate — each block served on its own says how much that
        // is. (It used to hold the number of membership probes, 2.)
        let mut want = s.query(&friends_tpl("l", "a"), &b).unwrap().stats.meter;
        let probed =
            friends_tpl("r", "b").with_params(&[(bcq_core::prelude::QAttr::new(0, 1), "x")]);
        for candidate in ["u1", "u2"] {
            let mut pinned = b.clone();
            pinned.insert("x".to_string(), Value::str(candidate));
            want.merge(&s.query(&probed, &pinned).unwrap().stats.meter);
        }
        assert_eq!(want.index_probes, 3);
        assert_eq!(resp.stats.meter, want);

        // Same slot value on both sides: classes merge, answer is empty.
        b.insert("b".to_string(), Value::str("u0"));
        let resp = s.query_ra(&expr, &b).unwrap();
        assert!(resp.rows().unwrap().is_empty());
        assert!(resp.stats.cache_hit, "one certification served both");

        // Missing binding: typed error, not a planner panic.
        b.remove("b");
        let err = s.query_ra(&expr, &b).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(CoreError::UnboundParameters(_))
        ));
    }

    #[test]
    fn uncertifiable_ra_template_is_rejected_at_prepare() {
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        // Even instantiated, the left block scans tagging (no covering
        // index on tagger_id alone): certification must fail up front.
        let scan = SpcQuery::builder(Arc::clone(&cat), "scan")
            .atom("tagging", "t")
            .eq_param(("t", "tagger_id"), "who")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        let bounded = SpcQuery::builder(cat, "ok")
            .atom("in_album", "ia")
            .eq_param(("ia", "album_id"), "aid")
            .project(("ia", "photo_id"))
            .build()
            .unwrap();
        let expr = RaExpr::union(RaExpr::Spc(scan), RaExpr::Spc(bounded));
        let err = server.prepare_ra(&expr).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected(_)), "{err}");
    }

    #[test]
    fn inserts_are_visible_to_cached_plans_and_bump_the_epoch() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let before = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(before.rows().unwrap().len(), 1);
        let e0 = before.stats.epoch;

        // u3's tagging of u0 on p2 exists; u3 just needs to become a friend.
        server
            .insert("friends", &[Value::str("u0"), Value::str("u3")])
            .unwrap();
        let after = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert!(after.stats.epoch > e0);
        assert!(after.stats.cache_hit, "plan survived the maintained insert");
        assert_eq!(after.rows().unwrap().len(), 2);
        assert!(after.rows().unwrap().contains(&[Value::str("p2")]));
    }

    #[test]
    fn bulk_updates_keep_cached_plans_correct() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        s.query(&q1, &bind("a0", "u0")).unwrap();

        // A bulk write goes around `Server::insert`; the indices are
        // rebuilt inside the write and the cached plan keeps serving.
        server.bulk_update(|db| {
            db.insert(
                "tagging",
                &[Value::str("p3"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        });
        let r = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2, "p1 and now p3");
        assert!(r.stats.cache_hit);
        assert_eq!(server.cache_stats().misses, 1);

        // A bulk loader drops the relation's indices; the rebuild that
        // follows the closure is the build `index_build_ns` is named after.
        let built_before = server.metrics_snapshot().ingest.index_build_ns;
        server.bulk_update(|db| {
            let tagging = db.catalog().require_rel("tagging").unwrap();
            db.bulk_loader(tagging).push_rows(&[
                Value::str("p2"),
                Value::str("u1"),
                Value::str("u0"),
            ]);
        });
        assert!(server.metrics_snapshot().ingest.index_build_ns > built_before);
        let r = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(
            r.rows().unwrap().len(),
            3,
            "and p2, through rebuilt indices"
        );
    }

    #[test]
    fn bulk_load_streams_chunks_and_keeps_queries_correct() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        let before = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(before.rows().unwrap().len(), 1);

        // One columnar chunk through the fast path: a matching row plus an
        // unrelated one. Indices rebuild inside the same write.
        let cols: Vec<Vec<Value>> = vec![
            vec![Value::str("p3"), Value::str("p9")],
            vec![Value::str("u1"), Value::str("u1")],
            vec![Value::str("u0"), Value::str("u7")],
        ];
        let ((), stats) = server
            .bulk_load("tagging", |loader| loader.push_chunk_columns(&cols))
            .unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.chunks, 1);

        let r = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2, "p1 and now p3");

        let snap = server.metrics_snapshot();
        assert_eq!(snap.ingest.rows, 2);
        assert_eq!(snap.ingest.chunks, 1);
        assert!(snap.ingest.bytes > 0, "cell bytes counted");
        assert!(snap.writes.bulk_updates >= 1);

        // An unknown relation is a typed error, not a panic.
        assert!(server.bulk_load("nope", |_| ()).is_err());
    }

    #[test]
    fn registered_views_maintain_and_recompute() {
        let server = setup(AdmissionPolicy::Strict);
        let q0 = SpcQuery::builder(Arc::clone(server.access().catalog()), "Q0")
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
        let view = server.register_view(&q0).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 1);

        // A row write to a read relation: the next read re-evaluates.
        server
            .insert(
                "tagging",
                &[Value::str("p2"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // So does an out-of-band write.
        server.bulk_update(|db| {
            db.insert(
                "tagging",
                &[Value::str("p3"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        });
        assert_eq!(server.view_result(view).unwrap().len(), 3);
    }

    #[test]
    fn deletes_retract_answers_and_respect_snapshots() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let before = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(before.rows().unwrap().len(), 1); // p1
        let e0 = before.stats.epoch;
        let old_snap = server.snapshot();

        // Deleting the tagging that supports p1 retracts it.
        assert!(server
            .delete(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap());
        let after = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert!(after.stats.epoch > e0, "delete bumps the epoch");
        assert!(after.stats.cache_hit, "plan survived the maintained delete");
        assert!(after.rows().unwrap().is_empty());

        // A snapshot taken before the delete still sees the old row.
        assert_eq!(old_snap.epoch(), e0);
        assert!(old_snap
            .contains_row(
                old_snap.catalog().require_rel("tagging").unwrap(),
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap());

        // Deleting a row that is not stored reports false, bumps nothing.
        let e1 = server.epoch();
        assert!(!server
            .delete(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap());
        assert_eq!(server.epoch(), e1);
    }

    #[test]
    fn session_delete_tracks_stats() {
        let server = setup(AdmissionPolicy::Strict);
        let mut s = server.session();
        s.insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        assert!(s
            .delete("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap());
        assert!(!s
            .delete("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap());
        assert_eq!(s.stats().inserts, 1);
        assert_eq!(s.stats().deletes, 1, "only the delete that found a row");
    }

    #[test]
    fn registered_views_maintain_under_deletes() {
        let server = setup(AdmissionPolicy::Strict);
        let q0 = SpcQuery::builder(Arc::clone(server.access().catalog()), "Q0")
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
        let view = server.register_view(&q0).unwrap();
        server
            .insert(
                "tagging",
                &[Value::str("p2"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // A delete retracts the answer it supported.
        server
            .delete(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        let rs = server.view_result(view).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.contains(&[Value::str("p2")]));

        // Deleting the friendship kills the remaining answer.
        server
            .delete("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        assert!(server.view_result(view).unwrap().is_empty());

        // Out-of-band bulk delete: the view re-evaluates.
        server.bulk_update(|db| {
            db.delete("in_album", &[Value::str("p2"), Value::str("a0")])
                .unwrap();
        });
        assert!(server.view_result(view).unwrap().is_empty());
    }

    #[test]
    fn single_row_writes_leave_untouched_shards_pointer_equal() {
        let server = setup(AdmissionPolicy::Strict);
        let (albums, friends, tagging) = (RelId(0), RelId(1), RelId(2));

        let before = server.snapshot();
        server
            .insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        let after = server.snapshot();
        assert!(
            Arc::ptr_eq(before.shard(albums), after.shard(albums)),
            "insert copied only the friends shard"
        );
        assert!(Arc::ptr_eq(before.shard(tagging), after.shard(tagging)));
        assert!(!Arc::ptr_eq(before.shard(friends), after.shard(friends)));

        let before = after;
        assert!(server
            .delete("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap());
        let after = server.snapshot();
        assert!(
            Arc::ptr_eq(before.shard(albums), after.shard(albums)),
            "delete copied only the friends shard"
        );
        assert!(Arc::ptr_eq(before.shard(tagging), after.shard(tagging)));
        assert!(!Arc::ptr_eq(before.shard(friends), after.shard(friends)));
        // The held snapshot is frozen; the new state lost the row.
        assert_eq!(before.table(friends).len(), 4);
        assert_eq!(after.table(friends).len(), 3);
    }

    #[test]
    fn row_writes_touch_no_view_and_a_stale_read_recomputes_once() {
        let server = setup(AdmissionPolicy::Strict);
        let catalog = Arc::clone(server.access().catalog());
        let views: Vec<ViewId> = (0..8)
            .map(|k| {
                let q = SpcQuery::builder(Arc::clone(&catalog), format!("friends_of_u{k}"))
                    .atom("friends", "f")
                    .eq_const(("f", "user_id"), format!("u{k}").as_str())
                    .project(("f", "friend_id"))
                    .build()
                    .unwrap();
                server.register_view(&q).unwrap()
            })
            .collect();
        let scan = SpcQuery::builder(catalog, "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        assert!(server.register_view(&scan).is_err(), "not bounded: refused");
        let recomputes = || server.metrics_snapshot().writes.view_recomputes;

        // Writers run while this thread holds a view's answer lock: one
        // that still locked the views it writes under would never return.
        {
            let gate = server.gate.read().unwrap();
            let _held = gate[0].cached.lock().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..16 {
                        server
                            .insert("friends", &[Value::str("u0"), Value::int(i)])
                            .unwrap();
                    }
                    for i in 0..8 {
                        assert!(server
                            .delete("friends", &[Value::str("u0"), Value::int(i)])
                            .unwrap());
                    }
                });
            });
        }
        assert_eq!(recomputes(), 0, "no write evaluated a view");

        for (k, &view) in views.iter().enumerate() {
            let rs = server.view_result(view).unwrap();
            assert_eq!(recomputes(), k as u64 + 1, "first read evaluates");
            assert_eq!(server.view_result(view).unwrap(), rs);
            assert_eq!(recomputes(), k as u64 + 1, "second read is cached");
        }
        assert_eq!(server.view_result(views[0]).unwrap().len(), 2 + 8);

        // Writes to relations no view reads leave every answer current.
        server
            .insert("in_album", &[Value::str("p9"), Value::str("a9")])
            .unwrap();
        server.bulk_update(|db| {
            db.delete("in_album", &[Value::str("p9"), Value::str("a9")])
                .unwrap();
        });
        for &view in &views {
            server.view_result(view).unwrap();
        }
        assert_eq!(recomputes(), 8);
    }

    #[test]
    fn views_ignore_writes_to_unread_relations() {
        let server = setup(AdmissionPolicy::Strict);
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "friends_of_u0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let view = server.register_view(&q).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // An out-of-band bulk write to a relation the view does not read:
        // the vector clock keeps the cached answer current as-is.
        server.bulk_update(|db| {
            db.insert(
                "tagging",
                &[Value::str("p9"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        });
        assert_eq!(server.view_result(view).unwrap().len(), 2);

        // A bulk write to the read relation re-evaluates on read.
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u6")])
                .unwrap();
        });
        assert_eq!(server.view_result(view).unwrap().len(), 3);
    }

    #[test]
    fn maintained_write_does_not_mask_prior_out_of_band_staleness() {
        // A view stale from a bulk write to one read relation must stay
        // stale across a row write to *another* read relation.
        let server = setup(AdmissionPolicy::Strict);
        let q = SpcQuery::builder(Arc::clone(server.access().catalog()), "Q0")
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
        let view = server.register_view(&q).unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 1); // p1

        // Out-of-band: u3 becomes a friend — t(p2, u3, u0) now matches,
        // but the view has not read since, so it is stale w.r.t. friends.
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u3")])
                .unwrap();
        });
        // Row write to another of the view's read relations.
        server
            .insert(
                "tagging",
                &[Value::str("p3"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        // The next read re-evaluates and sees both new answers.
        let rs = server.view_result(view).unwrap();
        assert_eq!(rs.len(), 3, "{rs:?}");
        assert!(rs.contains(&[Value::str("p2")]), "bulk-written row seen");
        assert!(rs.contains(&[Value::str("p3")]), "row-written row seen");
    }

    #[test]
    fn no_write_ever_costs_a_cached_plan() {
        // One entry per kind of key — template, SQL shape, RA expression —
        // all reading only `friends`. Whatever is written, and wherever,
        // each prepare hands back the entry compiled first, by pointer.
        let server = setup(AdmissionPolicy::Strict);
        let cat = Arc::clone(server.access().catalog());
        let friends_tpl = |name: &str, slot: &str| {
            SpcQuery::builder(Arc::clone(&cat), name)
                .atom("friends", "f")
                .eq_param(("f", "user_id"), slot)
                .project(("f", "friend_id"))
                .build()
                .unwrap()
        };
        let template = friends_tpl("t", "uid");
        let sql = "SELECT f.friend_id FROM friends f WHERE f.user_id = 'u0'";
        // friends(u0) − friends(u9); u9's only friend is u3, never u0's.
        let expr = RaExpr::difference(
            RaExpr::Spc(friends_tpl("l", "uid")),
            RaExpr::Spc(friends_tpl("r", "other")),
        );
        let mut b = BTreeMap::new();
        b.insert("uid".to_string(), Value::str("u0"));
        b.insert("other".to_string(), Value::str("u9"));
        let none = BTreeMap::new();
        let mut scratch = SqlScratch::default();
        let prepare_all = |scratch: &mut SqlScratch| {
            [
                server.prepare(&template).unwrap(),
                server.prepare_sql("q", sql, &none, scratch).unwrap(),
                server.prepare_ra(&expr).unwrap(),
            ]
        };

        let first = prepare_all(&mut scratch);
        assert!(first
            .iter()
            .all(|p| !p.cache_hit && p.compile_elapsed > Duration::ZERO));
        assert_eq!(first[0].query.program().unwrap().slots(), ["uid"]);
        assert_eq!(first[1].query.lane(), Lane::Bounded);
        assert_eq!(first[2].query.lane(), Lane::BoundedRa);
        assert_eq!(first[2].query.param_slots(), ["uid", "other"]);

        let row = |a: &str, b: &str| [Value::str(a), Value::str(b)];
        // Each write, and how many friends u0 has after it.
        let writes: [(&str, &dyn Fn(), usize); 8] = [
            (
                "insert, read",
                &|| drop(server.insert("friends", &row("u0", "u7"))),
                3,
            ),
            (
                "delete, read",
                &|| drop(server.delete("friends", &row("u0", "u7"))),
                2,
            ),
            (
                "bulk_update, read",
                &|| server.bulk_update(|db| drop(db.insert("friends", &row("u0", "u8")))),
                3,
            ),
            (
                "bulk_load, read",
                &|| drop(server.bulk_load("friends", |l| l.push_rows(&row("u0", "u6")))),
                4,
            ),
            (
                "insert, unread",
                &|| drop(server.insert("in_album", &row("p9", "a9"))),
                4,
            ),
            (
                "delete, unread",
                &|| drop(server.delete("in_album", &row("p9", "a9"))),
                4,
            ),
            (
                "bulk_update, unread",
                &|| server.bulk_update(|db| drop(db.insert("in_album", &row("p8", "a8")))),
                4,
            ),
            (
                "bulk_load, unread",
                &|| drop(server.bulk_load("in_album", |l| l.push_rows(&row("p7", "a7")))),
                4,
            ),
        ];
        for (what, write, friends_of_u0) in writes {
            let epoch = server.epoch();
            write();
            assert!(server.epoch() > epoch, "{what}: the write landed");
            let again = prepare_all(&mut scratch);
            for (p, q) in first.iter().zip(&again) {
                assert!(q.cache_hit, "{what}");
                assert_eq!(q.compile_elapsed, Duration::ZERO, "{what}");
                assert!(
                    Arc::ptr_eq(&p.query, &q.query),
                    "{what}: stored entry reused"
                );
            }
            assert_eq!(
                server.cache_stats().misses,
                3,
                "{what}: one compile per shape"
            );
            for (p, bindings) in [
                (&again[0], &b),
                (&again[1], &scratch.bindings),
                (&again[2], &b),
            ] {
                let r = server.execute(&p.query, bindings).unwrap();
                assert_eq!(r.rows().unwrap().len(), friends_of_u0, "{what}");
            }
        }
    }

    #[test]
    fn request_stats_report_compile_vs_execute_time() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let miss = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert!(!miss.stats.cache_hit);
        assert!(
            miss.stats.compile_elapsed > Duration::ZERO,
            "first request pays classification + planning + program compile"
        );
        assert!(
            miss.stats.compile_elapsed + miss.stats.exec_elapsed <= miss.stats.total_elapsed,
            "compile {:?} + exec {:?} must fit within total {:?}",
            miss.stats.compile_elapsed,
            miss.stats.exec_elapsed,
            miss.stats.total_elapsed
        );

        let hit = s.query(&q1, &bind("a1", "u0")).unwrap();
        assert!(hit.stats.cache_hit);
        assert_eq!(
            hit.stats.compile_elapsed,
            Duration::ZERO,
            "cached requests pay execution only"
        );
        assert!(hit.stats.exec_elapsed > Duration::ZERO);
        assert!(
            hit.stats.compile_elapsed + hit.stats.exec_elapsed <= hit.stats.total_elapsed,
            "compile {:?} + exec {:?} must fit within total {:?}",
            hit.stats.compile_elapsed,
            hit.stats.exec_elapsed,
            hit.stats.total_elapsed
        );
    }

    #[test]
    fn metrics_snapshot_covers_lanes_cache_writes_and_gauges() {
        let server = setup(AdmissionPolicy::Budgeted(1_000));
        let q1 = template(&server);
        let mut s = server.session();
        s.query(&q1, &bind("a0", "u0")).unwrap();
        s.query(&q1, &bind("a1", "u0")).unwrap();

        // A budgeted request and a write under a registered view.
        let scan = SpcQuery::builder(Arc::clone(server.access().catalog()), "scan")
            .atom("tagging", "t")
            .project(("t", "photo_id"))
            .build()
            .unwrap();
        s.query(&scan, &BTreeMap::new()).unwrap();
        let friends_view = SpcQuery::builder(Arc::clone(server.access().catalog()), "fv")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        server.register_view(&friends_view).unwrap();
        // Pin a snapshot across the insert so the write must copy-on-write
        // the touched shard (otherwise the uniquely-owned shard mutates in
        // place and the COW counters stay at zero).
        let pinned = server.snapshot();
        server
            .insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        drop(pinned);
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u8")])
                .unwrap();
        });
        server.view_result(ViewId(0)).unwrap();

        let snap = server.metrics_snapshot();
        use bcq_telemetry::LaneKind;
        assert_eq!(snap.lane(LaneKind::Bounded).latency.count(), 2);
        assert_eq!(snap.lane(LaneKind::Budgeted).latency.count(), 1);
        assert!(snap.lane(LaneKind::Bounded).tuples_fetched > 0);
        assert_eq!(snap.admission.budget_completed, 1);
        assert_eq!(snap.cache.misses, 2, "Q1 + scan each compiled once");
        assert_eq!(snap.cache.hits, 1);
        assert_eq!(snap.writes.inserts, 1);
        assert_eq!(snap.writes.bulk_updates, 1);
        assert_eq!(snap.writes.view_recomputes, 1, "bulk update forced one");
        assert!(snap.writes.cow_shard_clones > 0);
        assert_eq!(snap.gauges.relations, 3);
        assert!(snap.gauges.total_tuples > 0);
        assert!(snap.gauges.interner_symbols > 0);
        assert!(snap.gauges.index_keys > 0);
        assert!(snap.gauges.index_bytes > 0);
        assert!(snap.gauges.table_bytes > 0);
        assert!(snap.gauges.epoch > 0);
        let json = snap.to_json();
        assert!(json.contains("\"plan_cache\""), "{json}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("bcq_requests_total"), "{prom}");
    }

    #[test]
    fn disabled_metrics_record_nothing_but_serving_works() {
        let catalog = Arc::clone(setup(AdmissionPolicy::Strict).access().catalog());
        let mut a = AccessSchema::new(Arc::clone(&catalog));
        a.add("friends", &["user_id"], &["friend_id"], 5000)
            .unwrap();
        let mut db = Database::new(Arc::clone(&catalog));
        db.insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        let server = Arc::new(Server::new(
            db,
            a,
            ServerConfig {
                metrics_enabled: false,
                ..ServerConfig::default()
            },
        ));
        let q = SpcQuery::builder(catalog, "f0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let mut s = server.session();
        assert_eq!(
            s.query(&q, &BTreeMap::new()).unwrap().rows().unwrap().len(),
            1
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.requests(), 0, "registry off: nothing recorded");
        // Gauges are pulled from storage at snapshot time, not recorded.
        assert!(snap.gauges.total_tuples > 0);
    }

    #[test]
    fn tracing_records_phase_timings_only_while_enabled() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        s.query(&q1, &bind("a0", "u0")).unwrap();
        use bcq_telemetry::Phase;
        let snap = server.metrics_snapshot();
        assert!(
            snap.phases.iter().all(|p| p.timings.count() == 0),
            "tracing off: no phase ever recorded"
        );

        server.set_tracing(true);
        s.query(&q1, &bind("a0", "u0")).unwrap(); // hit: no compile
        s.query(&template(&server), &bind("a1", "u0")).unwrap();
        server.set_tracing(false);
        let m = server.metrics();
        assert_eq!(m.phase_hist(Phase::CacheLookup).snapshot().count(), 2);
        assert_eq!(m.phase_hist(Phase::Bind).snapshot().count(), 2);
        assert_eq!(m.phase_hist(Phase::Execute).snapshot().count(), 2);
        assert_eq!(m.phase_hist(Phase::Respond).snapshot().count(), 2);
        assert_eq!(
            m.phase_hist(Phase::Compile).snapshot().count(),
            0,
            "both traced requests were cache hits"
        );

        s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(
            m.phase_hist(Phase::Execute).snapshot().count(),
            2,
            "tracing off again: no further phase records"
        );
    }

    #[test]
    fn execute_profiled_breaks_down_operator_time() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let prepared = server.prepare(&q1).unwrap();
        let (resp, profile) = server
            .execute_profiled(&prepared.query, &bind("a0", "u0"))
            .unwrap();
        assert_eq!(resp.rows().unwrap().len(), 1);
        assert!(!profile.steps.is_empty());
        use bcq_telemetry::StepKind;
        let kinds: Vec<StepKind> = profile.steps.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&StepKind::Fetch));
        assert!(kinds.contains(&StepKind::Join));
        assert!(kinds.contains(&StepKind::Project));
        assert!(profile.total_ns > 0);
        assert!(
            profile.step_sum_ns() <= profile.total_ns,
            "steps are disjoint slices of the run"
        );
        assert!(profile.render().contains("join:"), "{}", profile.render());
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_server() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        server.session().query(&q1, &bind("a0", "u0")).unwrap();

        // Poison every cache shard and the bulk gate by panicking
        // while holding them all.
        {
            let server = Arc::clone(&server);
            let _ = std::thread::spawn(move || {
                let _shards: Vec<_> = server
                    .cache
                    .shards
                    .iter()
                    .map(|s| s.0.lock().unwrap())
                    .collect();
                let _gate = server.gate.write().unwrap();
                panic!("poison every serving lock");
            })
            .join();
        }
        assert!(server.cache.shards.iter().all(|s| s.0.is_poisoned()));
        assert!(server.gate.is_poisoned());

        // Serving still works end to end: cached prepare, execute, writes,
        // views, and the metrics snapshot (which reads the cache lock).
        let r = server.session().query(&q1, &bind("a0", "u0")).unwrap();
        assert!(r.stats.cache_hit, "cache survived the poison");
        assert_eq!(r.rows().unwrap().len(), 1);
        server
            .insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        let view = server
            .register_view(
                &SpcQuery::builder(Arc::clone(server.access().catalog()), "fv")
                    .atom("friends", "f")
                    .eq_const(("f", "user_id"), "u0")
                    .project(("f", "friend_id"))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 3);
        let snap = server.metrics_snapshot();
        assert!(snap.requests() >= 2);
    }

    #[test]
    fn concurrent_sessions_share_the_cache_and_agree() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        // Warm the cache once so every thread hits.
        server.session().query(&q1, &bind("a0", "u0")).unwrap();

        let mut handles = Vec::new();
        for _ in 0..4 {
            let server = Arc::clone(&server);
            let q1 = q1.clone();
            handles.push(std::thread::spawn(move || {
                let mut s = server.session();
                for _ in 0..25 {
                    let r = s.query(&q1, &bind("a0", "u0")).unwrap();
                    assert_eq!(r.rows().unwrap().len(), 1);
                    assert!(r.stats.cache_hit);
                }
                s.stats()
            }));
        }
        let mut total = 0;
        for h in handles {
            total += h.join().unwrap().requests;
        }
        assert_eq!(total, 100);
        assert_eq!(server.cache_stats().misses, 1, "one compile served all");
    }

    #[test]
    fn unbound_slot_is_an_error_uninterned_binding_is_empty() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        let err = s.query(&q1, &BTreeMap::new()).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(CoreError::UnboundParameters(_))
        ));
        let r = s.query(&q1, &bind("a0", "nobody-ever")).unwrap();
        assert!(r.rows().unwrap().is_empty());
    }

    /// Example 1's Q0 (ground: album a0, user u0) — the view the durable
    /// tests register.
    fn view_query(a: &AccessSchema) -> SpcQuery {
        SpcQuery::builder(Arc::clone(a.catalog()), "Q0")
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
            .unwrap()
    }

    fn open_durable(
        log: &Arc<bcq_durability::MemLog>,
        policy: SyncPolicy,
    ) -> (Arc<Server>, RecoveryReport, ViewId) {
        let (server, report, ids) = Server::open(
            Arc::clone(log) as Arc<dyn LogStorage>,
            schema(),
            ServerConfig {
                policy: AdmissionPolicy::Strict,
                ..ServerConfig::default()
            },
            DurabilityConfig { policy },
            &[view_query(&schema())],
        )
        .unwrap();
        (Arc::new(server), report, ids[0])
    }

    #[test]
    fn durable_server_recovers_rows_views_and_serving_across_restart() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, report, view) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(report.replayed, 0, "first boot: empty storage");
        assert_eq!(report.snapshot, None);

        // Example 1's data, written *through* the server so it is logged.
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            server
                .insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u9", "u3")] {
            server
                .insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        server
            .insert(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 1);
        let name = server.checkpoint().unwrap();
        // One copy: the snapshot alone, the log cut to 0.
        assert_eq!(log.list_blobs().unwrap(), vec![name.clone()]);
        assert!(log.read().unwrap().is_empty(), "the log was cut");
        let m = server.metrics_snapshot();
        assert_eq!(m.wal.retained_bytes, 0);
        assert_eq!(
            m.wal.snapshot_bytes,
            log.read_blob(&name).unwrap().unwrap().1
        );

        // One more write past the checkpoint, then "crash".
        server
            .insert(
                "tagging",
                &[Value::str("p2"), Value::str("u2"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);
        let epoch = server.epoch();
        let rows: Vec<Vec<Value>> = {
            let snap = server.snapshot();
            let rel = snap.catalog().require_rel("tagging").unwrap();
            snap.value_rows(rel).collect()
        };
        drop(server);

        let (server2, report2, view2) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(report2.snapshot.as_deref(), Some(name.as_str()));
        assert!(report2.replayed > 0, "the post-checkpoint insert replays");
        assert_eq!(server2.epoch(), epoch, "vector clock reproduced");
        {
            let snap = server2.snapshot();
            let rel = snap.catalog().require_rel("tagging").unwrap();
            let recovered: Vec<Vec<Value>> = snap.value_rows(rel).collect();
            assert_eq!(recovered, rows);
        }
        // The re-registered view evaluates against the recovered state.
        assert_eq!(server2.view_result(view2).unwrap().len(), 2);
        let m = server2.metrics_snapshot();
        assert!(m.wal.replayed > 0);
        assert_eq!(m.wal.last_seq, report2.last_seq);
        // The reopened log holds the one post-checkpoint write and the
        // gauges say so.
        assert!(report2.log_bytes > 0);
        assert_eq!(m.wal.retained_bytes, report2.log_bytes);
        assert_eq!(m.wal.snapshot_bytes, report2.snapshot_bytes);

        // And the recovered server serves queries normally.
        let q1 = template(&server2);
        let r = server2.session().query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2);
    }

    /// A disk that fills up under blob writes: no blob grows past `cap`
    /// bytes. Everything else is the wrapped `MemLog`'s.
    #[derive(Debug)]
    struct FullDisk {
        log: Arc<bcq_durability::MemLog>,
        cap: AtomicU64,
    }

    /// A blob sink on a [`FullDisk`]: a write past `cap` fails.
    struct Capped<'a> {
        sink: &'a mut dyn bcq_durability::BlobSink,
        cap: u64,
    }

    impl std::io::Write for Capped<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let room = self.cap.saturating_sub(self.sink.stream_position()?);
            if room == 0 && !buf.is_empty() {
                return Err(std::io::ErrorKind::StorageFull.into());
            }
            self.sink.write(&buf[..buf.len().min(room as usize)])
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.sink.flush()
        }
    }

    impl std::io::Seek for Capped<'_> {
        fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
            self.sink.seek(pos)
        }
    }

    impl LogStorage for FullDisk {
        fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
            self.log.append(bytes)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.log.sync()
        }
        fn read(&self) -> std::io::Result<Vec<u8>> {
            self.log.read()
        }
        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.log.truncate(len)
        }
        fn write_blob(
            &self,
            name: &str,
            fill: &mut dyn FnMut(&mut dyn bcq_durability::BlobSink) -> std::io::Result<()>,
        ) -> std::io::Result<()> {
            let cap = self.cap.load(Ordering::Relaxed);
            self.log
                .write_blob(name, &mut |sink| fill(&mut Capped { sink, cap }))
        }
        fn read_blob(&self, name: &str) -> std::io::Result<Option<bcq_durability::BlobReader<'_>>> {
            self.log.read_blob(name)
        }
        fn list_blobs(&self) -> std::io::Result<Vec<String>> {
            self.log.list_blobs()
        }
        fn delete_blob(&self, name: &str) -> std::io::Result<()> {
            self.log.delete_blob(name)
        }
    }

    #[test]
    fn a_disk_full_mid_snapshot_fails_the_checkpoint_and_cuts_nothing() {
        type State = (u64, Vec<Vec<Vec<Value>>>);
        let state = |server: &Server| -> State {
            let snap = server.snapshot();
            let rels = (0..snap.num_relations()).map(|i| snap.value_rows(RelId(i)).collect());
            (snap.epoch(), rels.collect())
        };
        let open = |disk: &Arc<FullDisk>| {
            let storage = Arc::clone(disk) as Arc<dyn LogStorage>;
            let policy = SyncPolicy::Always;
            let config = ServerConfig {
                policy: AdmissionPolicy::Strict,
                ..ServerConfig::default()
            };
            Server::open(storage, schema(), config, DurabilityConfig { policy }, &[])
                .unwrap()
                .0
        };
        // An older snapshot, then writes the log alone holds.
        let scenario = || {
            let log = Arc::new(bcq_durability::MemLog::new());
            let disk = Arc::new(FullDisk {
                log,
                cap: AtomicU64::new(u64::MAX),
            });
            let server = open(&disk);
            server
                .insert("friends", &[Value::str("u0"), Value::str("u1")])
                .unwrap();
            let older = server.checkpoint().unwrap();
            for i in 0..50 {
                server
                    .insert(
                        "tagging",
                        &[Value::int(i), Value::str("u1"), Value::str("u0")],
                    )
                    .unwrap();
            }
            (disk, server, older)
        };
        let blob_len = {
            let (_, server, _) = scenario();
            let mut sink = std::io::Cursor::new(Vec::new());
            bcq_durability::write_snapshot(&mut sink, &server.snapshot(), 0).unwrap()
        };
        // Nothing written, inside the frame header, mid-payload, and all
        // but the last byte.
        for cap in [0, 12, blob_len / 2, blob_len - 1] {
            let (disk, server, older) = scenario();
            let before = state(&server);
            let log_before = disk.log.read().unwrap();
            disk.cap.store(cap, Ordering::Relaxed);
            assert!(
                matches!(server.checkpoint(), Err(ServiceError::Durability(_))),
                "cap {cap}"
            );
            assert_eq!(
                disk.log.list_blobs().unwrap(),
                vec![older.clone()],
                "cap {cap}"
            );
            assert_eq!(
                disk.log.read().unwrap(),
                log_before,
                "cap {cap}: the log is not cut"
            );
            drop(server);

            disk.cap.store(u64::MAX, Ordering::Relaxed);
            let reopened = open(&disk);
            assert_eq!(state(&reopened), before, "cap {cap}");
            // With room again, the checkpoint goes through.
            let newer = reopened.checkpoint().unwrap();
            assert_eq!(disk.log.list_blobs().unwrap(), vec![newer]);
        }
    }

    #[test]
    fn group_commit_loses_at_most_the_unsynced_tail() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, _) = open_durable(&log, SyncPolicy::EveryOps(1000));
        for i in 0..3 {
            server
                .insert("friends", &[Value::str("u0"), Value::int(i)])
                .unwrap();
        }
        server.wal_sync().unwrap();
        server
            .insert("friends", &[Value::str("u0"), Value::int(99)])
            .unwrap();
        let stats = server.wal_stats().unwrap();
        assert!(stats.records > 0);
        log.crash(0); // power cut: the unsynced tail is gone
        drop(server);

        let (server2, _, _) = open_durable(&log, SyncPolicy::EveryOps(1000));
        let snap = server2.snapshot();
        let rel = snap.catalog().require_rel("friends").unwrap();
        let rows: Vec<Vec<Value>> = snap.value_rows(rel).collect();
        assert_eq!(rows.len(), 3, "synced writes survive, the tail is lost");
        assert!(!rows.contains(&vec![Value::str("u0"), Value::int(99)]));
    }

    #[test]
    fn a_failed_wal_append_fails_every_later_write_and_sync() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, _) = open_durable(&log, SyncPolicy::Always);
        let row = |i: i64| [Value::str("u0"), Value::int(i)];
        server.insert("friends", &row(0)).unwrap();
        let before = server.snapshot();
        log.fail_after(0);
        for i in 1..=2 {
            assert!(
                matches!(
                    server.insert("friends", &row(i)),
                    Err(ServiceError::Durability(_))
                ),
                "insert {i} after the failed append"
            );
        }
        assert!(matches!(
            server.wal_sync(),
            Err(ServiceError::Durability(_))
        ));
        // The failed commits stay applied in memory.
        assert_eq!(server.epoch(), before.epoch() + 2);
        drop(server);

        log.crash(0);
        let (server2, _, _) = open_durable(&log, SyncPolicy::Always);
        let after = server2.snapshot();
        assert_eq!(after.epoch(), before.epoch());
        for rel in 0..after.num_relations() {
            let rel = RelId(rel);
            assert_eq!(after.epoch_of(rel), before.epoch_of(rel));
            assert_eq!(
                after.value_rows(rel).collect::<Vec<_>>(),
                before.value_rows(rel).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn bulk_updates_replay_and_force_view_recompute() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, view) = open_durable(&log, SyncPolicy::Always);
        server
            .insert("in_album", &[Value::str("p1"), Value::str("a0")])
            .unwrap();
        server
            .insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        // Out-of-band bulk load of tagging: logged as a bracketed bulk.
        server.bulk_update(|db| {
            let rel = db.catalog().require_rel("tagging").unwrap();
            let mut l = db.bulk_loader(rel);
            l.push_rows(&[Value::str("p1"), Value::str("u1"), Value::str("u0")]);
            l.push_rows(&[Value::str("p9"), Value::str("u1"), Value::str("u5")]);
        });
        assert_eq!(server.view_result(view).unwrap().len(), 1);
        let epoch = server.epoch();
        drop(server);

        let (server2, report, view2) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(server2.epoch(), epoch);
        assert!(report.replayed > 0);
        // The view evaluates against the final recovered state.
        assert_eq!(server2.view_result(view2).unwrap().len(), 1);
        assert!(server2.metrics_snapshot().writes.view_recomputes >= 1);
    }

    #[test]
    fn checkpoint_without_durability_is_a_loud_error() {
        let server = setup(AdmissionPolicy::Strict);
        assert!(matches!(
            server.checkpoint(),
            Err(ServiceError::Durability(_))
        ));
        assert!(server.wal_stats().is_none());
        server.wal_sync().unwrap(); // no-op, not an error
    }

    #[test]
    fn disjoint_relation_writers_commit_in_parallel_and_agree() {
        let server = setup(AdmissionPolicy::Strict);
        // Pin a snapshot for the whole run so every write must take the
        // prepared (off-the-commit-lock) path rather than mutating the
        // uniquely owned shard in place.
        let pinned = server.snapshot();
        let base: Vec<usize> = (0..3).map(|i| pinned.table(RelId(i)).len()).collect();

        const PER_THREAD: i64 = 50;
        let mut handles = Vec::new();
        for (t, rel_name) in ["in_album", "friends", "tagging"].iter().enumerate() {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tag = Value::str(format!("w{t}"));
                    let row: Vec<Value> = match *rel_name {
                        "tagging" => vec![Value::int(i), tag.clone(), tag],
                        _ => vec![Value::int(i), tag],
                    };
                    server.insert(rel_name, &row).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // The pinned snapshot never moved; the committed state holds
        // every thread's rows and a consistent vector clock.
        let after = server.snapshot();
        for (i, b) in base.iter().enumerate() {
            assert_eq!(pinned.table(RelId(i)).len(), *b, "snapshot frozen");
            assert_eq!(after.table(RelId(i)).len(), b + PER_THREAD as usize);
            assert!(after.epoch_of(RelId(i)) > 0);
            assert!(after.epoch_of(RelId(i)) <= after.epoch());
        }
        assert_eq!(after.epoch(), pinned.epoch() + 3 * PER_THREAD as u64);
        // Contention telemetry exists even if this 1-core run never
        // actually collided: the histograms are present, not negative.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.writes.inserts, 3 * PER_THREAD as u64);
    }

    #[test]
    fn concurrent_durable_writers_share_group_commits_and_lose_nothing() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, _) = open_durable(&log, SyncPolicy::Always);
        const PER_THREAD: i64 = 25;
        let mut handles = Vec::new();
        for (t, rel_name) in ["in_album", "friends", "tagging"].iter().enumerate() {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tag = Value::str(format!("d{t}"));
                    let row: Vec<Value> = match *rel_name {
                        "tagging" => vec![Value::int(i), tag.clone(), tag],
                        _ => vec![Value::int(i), tag],
                    };
                    server.insert(rel_name, &row).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.wal_stats().unwrap();
        assert!(stats.fsyncs >= 1);
        assert!(
            stats.group_records >= 3 * PER_THREAD as u64,
            "every acked commit was covered by some flush: {stats:?}"
        );
        let epoch = server.epoch();
        drop(server);

        // Power cut discarding everything unsynced: `Always` acked each
        // insert only after a covering fsync, so nothing is lost.
        log.crash(0);
        let (server2, _, _) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(server2.epoch(), epoch);
        let snap = server2.snapshot();
        for rel_name in ["in_album", "friends", "tagging"] {
            let rel = snap.catalog().require_rel(rel_name).unwrap();
            assert!(snap.table(rel).len() >= PER_THREAD as usize);
        }
    }
}
