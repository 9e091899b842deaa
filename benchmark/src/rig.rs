//! What a workload runs against: TPCH servers at two scales, the query
//! templates, the seeded operation streams and the held-back write blocks.
//!
//! Everything here is a pure function of `(scale factor, seed)`: the same
//! seed gives the same data, the same operation sequence and the same
//! write rows, and the engine only ever sees these generated inputs.

use bcq_core::prelude::*;
use bcq_service::{
    DirLog, DurabilityConfig, LogStorage, MemLog, RecoveryReport, Server, ServerConfig, SyncPolicy,
};
use bcq_storage::Database;
use bcq_workload::par::{load_range_par, ParLoadOptions};
use bcq_workload::source::DEFAULT_CHUNK_ROWS;
use bcq_workload::tpch;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Scale factors (rows: SF 1 ≈ 16K, SF 2 ≈ 33K, SF 10 ≈ 164K, SF 32 ≈ 525K).
pub const SF_TINY: f64 = 1.0;
pub const SF_SMOKE: f64 = 2.0;
pub const SF_SMALL: f64 = 10.0;
pub const SF_LARGE: f64 = 32.0;

/// Rows in a held-back write block. A writer's cycle is twice this many
/// writes. It is short on purpose: a maintained delete on the large
/// instance takes tens of milliseconds, and a window must hold many whole
/// cycles for inserts and deletes to stay evenly mixed.
pub const BLOCK_ROWS: usize = 32;

/// One reply in this many is recorded for the oracle comparison, and in a
/// traced run replayed layer by layer.
pub const SAMPLE_EVERY: u64 = 64;

// ---------------------------------------------------------------------
// Seeded randomness
// ---------------------------------------------------------------------

/// SplitMix64: small, fast, and frozen here so the operation sequence of a
/// seed never changes with a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// Data dimensions
// ---------------------------------------------------------------------

/// Row counts of the generated instance the key ranges derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    pub customers: u64,
    pub orders: u64,
    pub parts: u64,
    pub suppliers: u64,
    pub rows: u64,
}

impl Dims {
    pub fn of(sf: f64, seed: u64) -> Dims {
        let src = tpch::sources(sf, seed);
        let total = |i: usize| src[i].total_rows();
        Dims {
            suppliers: total(2),
            parts: total(3),
            customers: total(5),
            orders: total(6),
            rows: src.iter().map(|s| s.total_rows()).sum(),
        }
    }

    /// Customers whose orders the writers touch; readers never ask for
    /// them, so every read has one correct answer whatever the writers do.
    pub fn reserved_customers(&self) -> u64 {
        self.customers / 4
    }

    /// Customer keys readers draw from: `0 .. reader_customers()`.
    pub fn reader_customers(&self) -> u64 {
        self.customers - self.reserved_customers()
    }
}

// ---------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------

/// Which templates a read stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The two one-atom lookups of `net-point`.
    Point,
    /// The 2–4-atom joins customer → orders → lineitem → part / supplier.
    Join,
}

/// `(name, SQL with a ?k placeholder, key domain)`.
const POINT_SQL: [(&str, &str, KeyDomain); 2] = [
    (
        "pt_orders",
        "SELECT o.o_orderkey FROM orders o WHERE o.o_custkey = ?k",
        KeyDomain::Customer,
    ),
    (
        "pt_lines",
        "SELECT l.l_partkey FROM lineitem l WHERE l.l_orderkey = ?k",
        KeyDomain::Order,
    ),
];

const JOIN_SQL: [(&str, &str, KeyDomain); 3] = [
    (
        "j2_cust_orders",
        "SELECT c.c_nationkey, o.o_orderkey FROM customer c, orders o \
         WHERE c.c_custkey = ?k AND o.o_custkey = c.c_custkey",
        KeyDomain::Customer,
    ),
    (
        "j3_cust_parts",
        "SELECT p.p_brand FROM orders o, lineitem l, part p \
         WHERE o.o_custkey = ?k AND l.l_orderkey = o.o_orderkey AND p.p_partkey = l.l_partkey",
        KeyDomain::Customer,
    ),
    (
        "j4_cust_suppliers",
        "SELECT s.s_nationkey FROM customer c, orders o, lineitem l, supplier s \
         WHERE c.c_custkey = ?k AND o.o_custkey = c.c_custkey \
         AND l.l_orderkey = o.o_orderkey AND s.s_suppkey = l.l_suppkey",
        KeyDomain::Customer,
    ),
];

/// Used only to check which block rows are stored: one row per stored
/// order key.
const ORDER_BY_KEY_SQL: &str = "SELECT o.o_custkey FROM orders o WHERE o.o_orderkey = ?k";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDomain {
    Customer,
    Order,
}

impl Mix {
    fn sql(self) -> &'static [(&'static str, &'static str, KeyDomain)] {
        match self {
            Mix::Point => &POINT_SQL,
            Mix::Join => &JOIN_SQL,
        }
    }

    pub fn templates(self) -> usize {
        self.sql().len()
    }

    /// The ad-hoc form of template `tpl`: the same shape with the key
    /// written as a literal, so every distinct key is a distinct query
    /// text and a distinct plan-cache entry.
    pub fn adhoc_sql(self, tpl: usize, key: i64) -> String {
        self.sql()[tpl].1.replace("?k", &key.to_string())
    }

    pub fn domain(self, tpl: usize) -> KeyDomain {
        self.sql()[tpl].2
    }
}

/// The compiled templates of one mix, with the static cost bound `Σ Mᵢ`
/// of each (the same for the ad-hoc form: the bound depends on the shape).
pub struct Templates {
    pub mix: Mix,
    pub queries: Vec<SpcQuery>,
    pub cost_bounds: Vec<u64>,
    /// Tells whether a block row is stored (see [`orders_block`]).
    pub order_by_key: SpcQuery,
}

impl Templates {
    /// Parses the mix's templates and prepares them on `server`, which
    /// also warms its plan cache.
    pub fn prepare(mix: Mix, server: &Server) -> Templates {
        let catalog = Arc::clone(server.access().catalog());
        let mut queries = Vec::new();
        let mut cost_bounds = Vec::new();
        for (name, sql, _) in mix.sql() {
            let q = parse_spc(Arc::clone(&catalog), name, sql).expect("template parses");
            let p = server.prepare(&q).expect("template prepares");
            let bound = p
                .query
                .cost_bound()
                .expect("template is effectively bounded");
            cost_bounds.push(u64::try_from(bound).expect("cost bound fits u64"));
            queries.push(q);
        }
        Templates {
            mix,
            queries,
            cost_bounds,
            order_by_key: parse_spc(catalog, "order_by_key", ORDER_BY_KEY_SQL)
                .expect("template parses"),
        }
    }
}

/// The one-parameter binding every template takes.
pub fn binding(key: i64) -> BTreeMap<String, Value> {
    BTreeMap::from([("k".to_string(), Value::Int(key))])
}

// ---------------------------------------------------------------------
// Read operation streams
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    pub tpl: usize,
    pub key: i64,
    /// Send the literal form through `Session::query_sql`.
    pub adhoc: bool,
    /// One of the seeded 1-in-[`SAMPLE_EVERY`] sample: its reply is kept
    /// for the oracle and, in a traced run, it is replayed layer by layer.
    pub sampled: bool,
}

/// One client's read sequence. Template choice and key fractions depend on
/// `(seed, client)` only; keys are scaled into `dims`, so the same stream
/// replayed on a smaller instance asks the same questions of it.
#[derive(Debug, Clone)]
pub struct ReadStream {
    rng: Rng,
    mix: Mix,
    dims: Dims,
    /// One op in this many is ad-hoc; 0 = none, 1 = all.
    adhoc_every: u64,
    n: u64,
    adhoc_n: u64,
    adhoc_lo: u64,
    adhoc_span: u64,
    adhoc_start: u64,
}

impl ReadStream {
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        mix: Mix,
        dims: Dims,
        adhoc_every: u64,
    ) -> Self {
        let mut rng = Rng::new(seed, 0x0A11 + client as u64);
        // Ad-hoc keys walk this client's own slice of the reader customers
        // in order: a cyclic scan over more distinct texts than the plan
        // cache holds never hits under LRU.
        let span = (dims.reader_customers() / clients as u64).max(1);
        let adhoc_start = rng.below(span);
        ReadStream {
            rng,
            mix,
            dims,
            adhoc_every,
            n: 0,
            adhoc_n: 0,
            adhoc_lo: span * client as u64,
            adhoc_span: span,
            adhoc_start,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> ReadOp {
        let r = self.rng.next();
        let pick = self.rng.next();
        // Drawn, not counted: a fixed stride would always land on the same
        // class whenever it shares a factor with `adhoc_every`.
        let sampled = self.rng.below(SAMPLE_EVERY) == 0;
        self.n += 1;
        let adhoc = self.adhoc_every != 0 && self.n.is_multiple_of(self.adhoc_every);
        let tpl = (pick % self.mix.templates() as u64) as usize;
        let key = if adhoc {
            self.adhoc_n += 1;
            let k = self.adhoc_lo + (self.adhoc_start + self.adhoc_n) % self.adhoc_span;
            match self.mix.domain(tpl) {
                KeyDomain::Customer => k,
                // Any order of that customer: order o belongs to o % customers.
                KeyDomain::Order => k + (r % 8) * self.dims.customers,
            }
        } else {
            match self.mix.domain(tpl) {
                KeyDomain::Customer => r % self.dims.reader_customers(),
                KeyDomain::Order => r % self.dims.orders,
            }
        };
        ReadOp {
            tpl,
            key: key as i64,
            adhoc,
            sampled,
        }
    }
}

// ---------------------------------------------------------------------
// Write blocks
// ---------------------------------------------------------------------

/// A held-back block of `orders` rows the writer cycles: insert all,
/// delete all, repeat. The rows are new (keys past the generated range)
/// and respect every access constraint of the TPCH schema.
pub struct Block {
    pub rel: &'static str,
    pub rows: Vec<Vec<Value>>,
}

impl Block {
    pub fn cell_bytes_per_row(&self) -> u64 {
        (self.rows[0].len() * std::mem::size_of::<Cell>()) as u64
    }
}

/// Days in the generator's order-date domain.
const DATES: u64 = 2_406;

/// New orders of the reserved customers, with keys `orders ..`.
pub fn orders_block(dims: Dims, seed: u64) -> Block {
    let mut g = Rng::new(seed, 0x0B10);
    let reserved = dims.reserved_customers().max(1);
    let lo = dims.reader_customers();
    let iv = |v: u64| Value::Int(v as i64);
    let rows = (0..BLOCK_ROWS as u64)
        .map(|i| {
            let key = dims.orders + i;
            vec![
                iv(key),
                iv(lo + i % reserved),
                iv(g.below(3)),
                iv(g.below(1000)),
                // Distinct per (customer, date) and disjoint from the
                // generator's dates `(o / customers) * 211 % DATES`.
                iv((100 + i / reserved) * 211 % DATES),
                iv(g.below(5)),
                iv(key % 1000),
                iv(0),
                iv(g.below(100)),
            ]
        })
        .collect();
    Block {
        rel: "orders",
        rows,
    }
}

// ---------------------------------------------------------------------
// Servers
// ---------------------------------------------------------------------

/// Where a server keeps its log.
#[derive(Debug, Clone)]
pub enum Store {
    /// `Server::new`: no WAL at all.
    None,
    /// `Server::open` over an in-memory log: the WAL path without a device.
    Mem(SyncPolicy),
    /// `Server::open` over files with real fsync.
    Dir(PathBuf, SyncPolicy),
}

/// Opens (or re-opens) a server on `store`. Recovery runs inside.
pub fn open_server(store: &Store) -> (Server, RecoveryReport) {
    let access = tpch::access_schema();
    let config = ServerConfig::default();
    let (log, policy): (Arc<dyn LogStorage>, SyncPolicy) = match store {
        Store::None => {
            let db = Database::new(tpch::catalog());
            return (Server::new(db, access, config), RecoveryReport::default());
        }
        Store::Mem(policy) => (Arc::new(MemLog::new()), *policy),
        Store::Dir(dir, policy) => {
            std::fs::create_dir_all(dir).expect("create log directory");
            (
                Arc::new(DirLog::open(dir).expect("open log directory")),
                *policy,
            )
        }
    };
    let durability = DurabilityConfig {
        policy,
        ..DurabilityConfig::default()
    };
    let (server, report, _) =
        Server::open(log, access, config, durability, &[]).expect("open server");
    (server, report)
}

/// What one bulk load did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    pub rows: u64,
    pub cell_bytes: u64,
    /// Wall clock of the whole load: generation, append, WAL, index build.
    pub wall_s: f64,
    /// The part before the index build (generation + append + WAL).
    pub append_s: f64,
}

/// Loads the whole TPCH instance through `Server::bulk_update` and the
/// parallel range loader, `workers` generator threads beside the installer.
pub fn load_tpch(server: &Server, sf: f64, seed: u64, workers: usize) -> LoadStats {
    let sources = tpch::sources(sf, seed);
    let opts = ParLoadOptions {
        threads: workers.max(1),
        chunk_rows: DEFAULT_CHUNK_ROWS,
    };
    let start = Instant::now();
    let (rows, cell_bytes, append_s) = server.bulk_update(|db| {
        let mut rows = 0;
        let mut cell_bytes = 0;
        for src in &sources {
            let s = load_range_par(db, src.as_ref(), 0, src.total_rows(), opts);
            rows += s.rows;
            cell_bytes += s.cell_bytes;
        }
        (rows, cell_bytes, start.elapsed().as_secs_f64())
    });
    LoadStats {
        rows,
        cell_bytes,
        wall_s: start.elapsed().as_secs_f64(),
        append_s,
    }
}

/// Bytes of every file in `dir` whose name starts with `prefix`.
pub fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: Dims = Dims {
        customers: 3_000,
        orders: 30_000,
        parts: 2_000,
        suppliers: 1_000,
        rows: 164_025,
    };

    fn take(mut s: ReadStream, n: usize) -> Vec<ReadOp> {
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_operation_sequence() {
        for mix in [Mix::Point, Mix::Join] {
            let a = take(ReadStream::new(7, 0, 2, mix, DIMS, 10), 5_000);
            let b = take(ReadStream::new(7, 0, 2, mix, DIMS, 10), 5_000);
            assert_eq!(a, b);
            let other_seed = take(ReadStream::new(8, 0, 2, mix, DIMS, 10), 5_000);
            let other_client = take(ReadStream::new(7, 1, 2, mix, DIMS, 10), 5_000);
            assert_ne!(a, other_seed);
            assert_ne!(a, other_client);
        }
    }

    #[test]
    fn replay_on_a_smaller_instance_keeps_the_template_sequence() {
        let small = Dims {
            customers: 300,
            orders: 3_000,
            ..DIMS
        };
        let a = take(ReadStream::new(3, 1, 2, Mix::Join, DIMS, 0), 1_000);
        let b = take(ReadStream::new(3, 1, 2, Mix::Join, small, 0), 1_000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.tpl == y.tpl));
        assert!(b
            .iter()
            .all(|op| (op.key as u64) < small.reader_customers()));
    }

    #[test]
    fn reads_avoid_reserved_customers_and_adhoc_keys_cycle_without_repeats() {
        let ops = take(ReadStream::new(11, 1, 2, Mix::Join, DIMS, 4), 4_000);
        assert!(ops
            .iter()
            .all(|op| (op.key as u64) < DIMS.reader_customers()));
        let adhoc: Vec<i64> = ops.iter().filter(|o| o.adhoc).map(|o| o.key).collect();
        assert_eq!(adhoc.len(), 1_000);
        // Client 1 of 2 walks its own half, in order, wrapping once.
        let span = DIMS.reader_customers() / 2;
        assert!(adhoc
            .iter()
            .all(|&k| (span..2 * span).contains(&(k as u64))));
        let distinct: std::collections::BTreeSet<i64> = adhoc.iter().copied().collect();
        assert_eq!(distinct.len(), 1_000);
        // Point mix: the order-keyed template still lands on a reader's order.
        let ops = take(ReadStream::new(11, 0, 2, Mix::Point, DIMS, 1), 2_000);
        assert!(ops.iter().all(|op| op.adhoc));
        assert!(ops.iter().all(|op| match Mix::Point.domain(op.tpl) {
            KeyDomain::Customer => (op.key as u64) < DIMS.reader_customers(),
            KeyDomain::Order =>
                (op.key as u64) < DIMS.orders
                    && (op.key as u64 % DIMS.customers) < DIMS.reader_customers(),
        }));
    }

    #[test]
    fn the_block_is_seeded_new_and_within_the_access_constraints() {
        let a = orders_block(DIMS, 5);
        let b = orders_block(DIMS, 5);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows, orders_block(DIMS, 6).rows);
        assert_eq!(a.rows.len(), BLOCK_ROWS);
        let int = |v: &Value| v.as_int().unwrap() as u64;
        let mut per_customer = BTreeMap::new();
        let mut dates = std::collections::BTreeSet::new();
        for row in &a.rows {
            assert!(int(&row[0]) >= DIMS.orders);
            assert!(int(&row[1]) >= DIMS.reader_customers() && int(&row[1]) < DIMS.customers);
            *per_customer.entry(int(&row[1])).or_insert(0u64) += 1;
            assert!(dates.insert((int(&row[1]), int(&row[4]))), "date repeats");
        }
        // o_custkey → o_orderkey is bounded by 64; ~10 orders exist already.
        assert!(per_customer.values().all(|&n| n + 10 <= 64));
        // Even the smoke instance (60 customers at SF 2 / 10) stays bounded.
        let tiny = Dims {
            customers: 60,
            orders: 600,
            ..DIMS
        };
        let mut per_customer = BTreeMap::new();
        for row in &orders_block(tiny, 5).rows {
            *per_customer.entry(int(&row[1])).or_insert(0u64) += 1;
        }
        assert!(per_customer.values().all(|&n| n + 10 <= 64));
    }
}
