//! The four workloads. Each is a different traffic mix over the same
//! lifecycle — load, serve reads, serve writes, checkpoint, restart,
//! verify — so every metric is measured on every workload and a change
//! that helps one mix at another's cost shows in the same table.
//!
//! | workload | path | data | log | what fills the window |
//! |---|---|---|---|---|
//! | `net-point` | loopback TCP | small | group commit | two one-atom lookups per connection |
//! | `embedded-join` | in process | large | group commit | 2–4-atom joins, one request in ten ad hoc |
//! | `mixed-snapshot` | in process | small | group commit | one join reader beside one writer on `orders`, then the writer alone |
//! | `durable-lifecycle` | in process | large | fsync every 4th write | one writer, then restart, then reads |

use crate::layers::{generate_ns_per_row, probe_write_floor, span_overhead_us, Tracer};
use crate::phases::{
    check_against_oracle, check_block_presence, checkpoint, reopen, run_reader, run_writer,
    side_by_side, Checkpoint, Cursor, ReadStats, SessionClient, Until, Window, WireClient,
    WriteStats,
};
use crate::report::{peak_rss_mb, Context, Outcome};
use crate::rig::{
    load_tpch, open_server, orders_block, Block, Dims, LoadStats, Mix, ReadStream, Rng, Store,
    Templates, BLOCK_ROWS, SF_LARGE, SF_SMALL, SF_SMOKE, SF_TINY,
};
use crate::spans::{self_times, to_json, SpanLog};
use crate::stats::{median, Samples};
use crate::Opts;
use bcq_service::{MetricsSnapshot, NetServer, Phase, RecoveryReport, Server, SyncPolicy};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "net-point",
    "embedded-join",
    "mixed-snapshot",
    "durable-lifecycle",
];

/// Writes recovery must replay past the checkpoint: a fixed count, so the
/// log tail is the same size on every run, and a whole number of block
/// cycles plus half an insert pass, so the restart finds part of the block
/// stored.
const TAIL_WRITES: usize = 8 * BLOCK_ROWS + BLOCK_ROWS / 2;

/// A wire client sends one `PING` per this many requests.
const PING_EVERY: u64 = 64;

/// Warm-up before each measured window, in seconds (samples dropped).
const WARMUP_S: f64 = 0.3;

/// Seconds each comparison against the oracle may take (there are two per
/// run: the reference instance's replies, then the main instance's).
const ORACLE_S: f64 = 0.75;

/// What distinguishes one workload from another.
struct Spec {
    name: &'static str,
    main_sf: f64,
    ref_sf: f64,
    policy: SyncPolicy,
    mix: Mix,
    /// Requests travel over loopback TCP instead of in-process calls.
    wire: bool,
    /// One read in this many is ad hoc, inside the read loop. The wire has
    /// no command for ad-hoc text, so a wire workload runs them as a phase
    /// of embedded callers instead.
    adhoc_every: u64,
    /// Whole-rig set-ups per run; `setup_s` is their median.
    setup_repeats: usize,
    /// The phases, with the share of `--seconds` each one measures for.
    schedule: fn(&mut Run),
}

fn spec(name: &str, smoke: bool) -> Spec {
    let group_commit = SyncPolicy::EveryOps(64); // `DurabilityConfig::default()`
    let mut spec = match name {
        "net-point" => Spec {
            name: "net-point",
            main_sf: SF_SMALL,
            ref_sf: SF_TINY,
            policy: group_commit,
            mix: Mix::Point,
            wire: true,
            adhoc_every: 0,
            setup_repeats: 3,
            schedule: |run| {
                run.reads(0.45);
                run.writes(0.20);
                run.adhoc(0.15);
                run.flatness(0.20);
                run.restart();
            },
        },
        "embedded-join" => Spec {
            name: "embedded-join",
            main_sf: SF_LARGE,
            ref_sf: SF_SMALL,
            policy: group_commit,
            mix: Mix::Join,
            wire: false,
            adhoc_every: 10,
            setup_repeats: 1,
            schedule: |run| {
                run.reads(0.60);
                run.writes(0.20);
                run.flatness(0.20);
                run.restart();
            },
        },
        "mixed-snapshot" => Spec {
            name: "mixed-snapshot",
            main_sf: SF_SMALL,
            ref_sf: SF_TINY,
            policy: group_commit,
            mix: Mix::Join,
            wire: false,
            adhoc_every: 16,
            setup_repeats: 3,
            schedule: |run| {
                // The bounded write latency is a lone writer's, the traced
                // run reports the pair's: see `Run::beside`.
                if run.opts.trace {
                    run.reads_beside_writer(0.80);
                } else {
                    run.reads_beside_writer(0.55);
                    run.writes(0.25);
                }
                run.flatness(0.20);
                run.restart();
            },
        },
        "durable-lifecycle" => Spec {
            name: "durable-lifecycle",
            main_sf: SF_LARGE,
            ref_sf: SF_SMALL,
            // The tightest policy whose median write does not wait for the
            // device: this sandbox's fsync takes anything from 0.25 to
            // 10 ms from one minute to the next, and a bounded metric
            // cannot rest on it. Three writes in four return after the
            // commit and the log append; the fourth pays the flush, which
            // shows in the write percentiles and rate of the traced run.
            policy: SyncPolicy::EveryOps(4),
            mix: Mix::Join,
            wire: false,
            adhoc_every: 10,
            setup_repeats: 1,
            schedule: |run| {
                run.writes(0.55);
                run.restart();
                run.reads(0.25);
                run.flatness(0.20);
            },
        },
        other => unreachable!("workload {other:?} passed the command-line check"),
    };
    if smoke {
        spec.main_sf = SF_SMOKE;
        spec.ref_sf = SF_TINY;
        spec.setup_repeats = 1;
    }
    spec
}

// ---------------------------------------------------------------------
// The rig: servers, templates, front end
// ---------------------------------------------------------------------

struct Rig {
    /// `None` only while a restart has the server closed.
    main: Option<Arc<Server>>,
    main_dims: Dims,
    store: Store,
    reference: Arc<Server>,
    ref_dims: Dims,
    tpls: Arc<Templates>,
    load: LoadStats,
    net: Option<NetServer>,
}

impl Rig {
    /// Everything before the first timed operation: open, generate, load,
    /// build indices, compile the templates, bind the front end.
    fn build(spec: &Spec, seed: u64, dir: &Path, workers: usize) -> Rig {
        let _ = std::fs::remove_dir_all(dir);
        let store = Store::Dir(dir.to_path_buf(), spec.policy);
        let main = Arc::new(open_server(&store).0);
        let load = load_tpch(&main, spec.main_sf, seed, workers);
        let reference = Arc::new(open_server(&Store::None).0);
        load_tpch(&reference, spec.ref_sf, seed, workers);
        let tpls = Arc::new(Templates::prepare(spec.mix, &main));
        for q in &tpls.queries {
            reference.prepare(q).expect("template prepares");
        }
        let net = spec.wire.then(|| bind(&main, &tpls));
        Rig {
            main_dims: Dims::of(spec.main_sf, seed),
            ref_dims: Dims::of(spec.ref_sf, seed),
            main: Some(main),
            store,
            reference,
            tpls,
            load,
            net,
        }
    }

    fn main(&self) -> &Arc<Server> {
        self.main.as_ref().expect("the main server is open")
    }

    /// Stops the front end (its connection threads hold the server).
    fn stop_net(&mut self) {
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

fn bind(server: &Arc<Server>, tpls: &Templates) -> NetServer {
    NetServer::bind(Arc::clone(server), &tpls.queries, "127.0.0.1:0").expect("bind a loopback port")
}

// ---------------------------------------------------------------------
// Server counters read from outside
// ---------------------------------------------------------------------

/// The exported counters a phase moves, read before and after it.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_revalidations: u64,
    writes: u64,
    write_conflicts: u64,
    cow_clones: u64,
    cow_cells: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    group_batches: u64,
    group_records: u64,
}

impl Counters {
    fn of(server: &Server) -> Counters {
        let m = server.metrics_snapshot();
        let cache = server.cache_stats();
        let wal = server.wal_stats().unwrap_or_default();
        Counters {
            requests: m.requests(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_revalidations: cache.revalidations,
            writes: m.writes.inserts + m.writes.deletes,
            write_conflicts: m.writes.conflicts,
            cow_clones: m.writes.cow_shard_clones,
            cow_cells: m.writes.cow_cells_cloned,
            wal_bytes: wal.bytes,
            wal_fsyncs: wal.fsyncs,
            group_batches: wal.group_batches,
            group_records: wal.group_records,
        }
    }

    /// `self += after − before`.
    fn add_delta(&mut self, before: Counters, after: Counters) {
        macro_rules! acc {
            ($($f:ident),*) => { $( self.$f += after.$f - before.$f; )* };
        }
        acc!(
            requests,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_revalidations,
            writes,
            write_conflicts,
            cow_clones,
            cow_cells,
            wal_bytes,
            wal_fsyncs,
            group_batches,
            group_records
        );
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

struct Run<'a> {
    spec: &'a Spec,
    opts: &'a Opts,
    clients: usize,
    rig: Rig,
    /// The held-back rows the writer cycles, and where it is in its cycle.
    block: Block,
    cursor: Cursor,
    base_tuples: usize,
    /// Seeds the read sequence of the current pass; starts as `--seed`.
    stream_seed: u64,
    epoch: Instant,
    spans: SpanLog,
    /// The first phase of a traced run also runs untraced, for the
    /// tracing overhead: `(untraced p50, traced p50)`.
    overhead: Option<(f64, f64)>,
    /// Everything read from the main server; `templated` holds only the
    /// samples of the workload's own read phase.
    reads: ReadStats,
    read_ops_per_s: f64,
    /// The writes of a writer that ran alone.
    writes: WriteStats,
    /// The writes of a writer that ran beside a reader. They are reported
    /// by the traced run only, without a bound: such an insert is a lock
    /// hand-off between two cores, and for minutes at a time this shared
    /// host takes 30–55% longer over one (15 → 19.5 µs in the writer's
    /// slow passes, 5.5 → 8.5 µs in its fast ones) while the reader's
    /// requests move by a tenth and a lone writer's insert repeats.
    beside: WriteStats,
    flat_main: Samples,
    flat_ref: Samples,
    moved: Counters,
    /// Requests the harness sent that the server's counter must show.
    sent_requests: u64,
    restarted: Option<Restarted>,
    net_probe: Option<NetProbe>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

struct Restarted {
    checkpoint: Checkpoint,
    recover_s: f64,
    report: RecoveryReport,
    /// The closed server's metrics (phase histograms die with it).
    metrics_before: MetricsSnapshot,
}

struct NetProbe {
    exec_p50_us: f64,
    query_p50_us: f64,
    ping_us: f64,
    frames_per_s: f64,
}

impl Run<'_> {
    /// Progress on standard error: which step starts, and when.
    fn step(&self, what: &str) {
        eprintln!("[{:7.2}s] {what}", self.epoch.elapsed().as_secs_f64());
    }

    fn window(&self, share: f64) -> Window {
        Window::secs(
            if self.opts.smoke { 0.05 } else { WARMUP_S },
            self.opts.seconds * share,
        )
    }

    /// A replayer for client `thread` of a traced pass.
    fn tracer(&self, traced: bool, thread: usize) -> Option<Tracer> {
        traced.then(|| {
            Tracer::new(
                self.epoch,
                self.opts.seed ^ thread as u64,
                self.rig.main(),
                &self.rig.tpls,
                self.rig.main_dims,
            )
        })
    }

    fn absorb(&mut self, tracers: impl IntoIterator<Item = Option<Tracer>>) {
        for t in tracers.into_iter().flatten() {
            self.sent_requests += t.requests();
            self.spans.merge(t.log);
        }
    }

    /// Accounts for a read pass on the main server.
    fn note_reads(&mut self, st: &ReadStats, before: Counters) {
        let after = Counters::of(self.rig.main());
        self.moved.add_delta(before, after);
        self.attempted += st.attempted;
        self.failed += st.failed;
        if let Some(e) = &st.first_error {
            self.problems.push(format!("read failed: {e}"));
        }
        self.sent_requests += st.attempted - st.ping.len() as u64;
    }

    fn note_writes(&mut self, st: &WriteStats, before: Counters) {
        let after = Counters::of(self.rig.main());
        self.moved.add_delta(before, after);
        self.attempted += st.attempted;
        self.failed += st.failed;
        if let Some(e) = &st.first_error {
            self.problems.push(format!("write failed: {e}"));
        }
    }

    /// Runs the workload's own read phase and notes its request rate. In a
    /// traced run the first such phase goes twice: a short untraced pass,
    /// whose median is the reference for the tracing overhead and whose
    /// rate is the one reported (replays sit inside the traced loop), then
    /// the traced pass whose samples are reported.
    fn own_read_phase<S>(
        &mut self,
        share: f64,
        pass: impl Fn(&mut Self, f64, bool) -> S,
        reads: impl Fn(&S) -> &ReadStats,
    ) -> S {
        let p50 = |s: &S| reads(s).templated.percentile_us(0.5);
        if !self.opts.trace || self.overhead.is_some() {
            let only = pass(self, share, self.opts.trace);
            self.read_ops_per_s = reads(&only).ops_per_s();
            return only;
        }
        let reference = pass(self, share * 0.3, false);
        let traced = pass(self, share * 0.7, true);
        self.overhead = Some((p50(&reference), p50(&traced)));
        self.read_ops_per_s = reads(&reference).ops_per_s();
        traced
    }

    // --- reads ---------------------------------------------------------

    /// One closed-loop reader per client on the main server, over the
    /// workload's path and template mix.
    fn reads(&mut self, share: f64) {
        self.step("reads");
        let (adhoc_every, wire) = (self.spec.adhoc_every, self.spec.wire);
        let st = self.own_read_phase(
            share,
            |run, share, traced| run.read_pass(run.window(share), adhoc_every, wire, traced),
            |st| st,
        );
        self.reads.merge(st);
    }

    /// The ad-hoc requests of a wire workload, sent by embedded callers.
    fn adhoc(&mut self, share: f64) {
        self.step("ad-hoc reads");
        let st = self.read_pass(self.window(share), 1, false, self.opts.trace);
        self.reads.merge(st);
    }

    fn read_pass(
        &mut self,
        window: Window,
        adhoc_every: u64,
        wire: bool,
        traced: bool,
    ) -> ReadStats {
        let rig = &self.rig;
        let (server, dims, clients) = (rig.main(), rig.main_dims, self.clients);
        let before = Counters::of(server);
        server.set_tracing(traced);
        // Every pass reads a sequence of its own, derived from the run's seed.
        self.stream_seed = Rng::new(self.stream_seed, 1).next();
        let seed = self.stream_seed;
        let results = side_by_side(clients, |i, barrier| {
            let mut stream = ReadStream::new(seed, i, clients, rig.tpls.mix, dims, adhoc_every);
            let mut tracer = self.tracer(traced, i);
            let st = if wire {
                let addr = rig
                    .net
                    .as_ref()
                    .expect("a wire workload has a front end")
                    .addr();
                let mut client = WireClient::connect(addr, &rig.tpls);
                barrier.wait();
                run_reader(
                    &mut client,
                    &mut stream,
                    &rig.tpls,
                    window,
                    PING_EVERY,
                    tracer.as_mut(),
                )
            } else {
                let mut client = SessionClient::new(server, &rig.tpls);
                barrier.wait();
                run_reader(
                    &mut client,
                    &mut stream,
                    &rig.tpls,
                    window,
                    0,
                    tracer.as_mut(),
                )
            };
            (st, tracer)
        });
        server.set_tracing(false);
        let mut total = ReadStats::default();
        let mut tracers = Vec::new();
        for (st, tracer) in results {
            total.merge(st);
            tracers.push(tracer);
        }
        self.note_reads(&total, before);
        self.absorb(tracers);
        total
    }

    /// The same templated sequence on the main instance and on the
    /// smaller reference instance, in process: the ratio of the medians is
    /// the paper's promise, 1.0 = cost independent of `|D|`.
    fn flatness(&mut self, share: f64) {
        self.step("flatness: the main instance and the reference, in turns");
        // Short turns, so a drift of the shared host's speed falls on both
        // sides of the ratio alike.
        const TURNS: usize = 4;
        let window = Window {
            warmup: self.window(share).warmup / TURNS as u32,
            measure: self.window(share).measure / (2 * TURNS) as u32,
        };
        let mut on_ref = ReadStats::default();
        for _ in 0..TURNS {
            let mut on_main = self.read_pass(window, 0, false, false);
            self.flat_main.merge(&on_main.templated);
            on_main.templated.clear();
            self.reads.merge(on_main);

            // The sequence the main instance was just asked, scaled down.
            let rig = &self.rig;
            let (seed, clients) = (self.stream_seed, self.clients);
            side_by_side(clients, |i, barrier| {
                let mut stream = ReadStream::new(seed, i, clients, rig.tpls.mix, rig.ref_dims, 0);
                let mut client = SessionClient::new(&rig.reference, &rig.tpls);
                barrier.wait();
                run_reader(&mut client, &mut stream, &rig.tpls, window, 0, None)
            })
            .into_iter()
            .for_each(|st| on_ref.merge(st));
        }
        self.attempted += on_ref.attempted;
        self.failed += on_ref.failed;
        let reference = Arc::clone(&self.rig.reference);
        self.check_oracle(&reference, &on_ref);
        self.flat_ref = on_ref.templated;
    }

    // --- writes --------------------------------------------------------

    /// One closed-loop writer on `orders`, no reader beside it.
    fn writes(&mut self, share: f64) {
        self.step("writes");
        let st = self.write_pass(Until::Window(self.window(share)));
        self.writes.merge(st);
    }

    fn write_pass(&mut self, until: Until) -> WriteStats {
        let rig = &self.rig;
        let before = Counters::of(rig.main());
        // After the restart stopped the front end, writes go in process.
        let st = if let Some(net) = &rig.net {
            let mut client = WireClient::connect(net.addr(), &rig.tpls);
            run_writer(&mut client, &self.block, &mut self.cursor, until)
        } else {
            let mut client = SessionClient::new(rig.main(), &rig.tpls);
            run_writer(&mut client, &self.block, &mut self.cursor, until)
        };
        self.note_writes(&st, before);
        st
    }

    /// One reader and one writer on `orders` side by side, meeting at the
    /// snapshot lock on every request and every commit.
    fn reads_beside_writer(&mut self, share: f64) {
        self.step("one reader beside one writer");
        let (reads, writes) = self.own_read_phase(
            share,
            |run, share, traced| run.mixed_pass(run.window(share), traced),
            |(reads, _)| reads,
        );
        self.reads.merge(reads);
        self.beside.merge(writes);
    }

    fn mixed_pass(&mut self, window: Window, traced: bool) -> (ReadStats, WriteStats) {
        let rig = &self.rig;
        let (server, dims) = (rig.main(), rig.main_dims);
        let before = Counters::of(server);
        server.set_tracing(traced);
        self.stream_seed = Rng::new(self.stream_seed, 1).next();
        let (seed, adhoc_every) = (self.stream_seed, self.spec.adhoc_every);
        let (block, mut cursor) = (&self.block, self.cursor);
        let mut tracer = self.tracer(traced, 0);
        // The workload is the pair, so it runs two threads on any host.
        let start = Barrier::new(2);
        let (reads, writes) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut client = SessionClient::new(server, &rig.tpls);
                start.wait();
                run_writer(&mut client, block, &mut cursor, Until::Window(window))
            });
            let mut client = SessionClient::new(server, &rig.tpls);
            let mut stream = ReadStream::new(seed, 0, 1, rig.tpls.mix, dims, adhoc_every);
            start.wait();
            let reads = run_reader(
                &mut client,
                &mut stream,
                &rig.tpls,
                window,
                0,
                tracer.as_mut(),
            );
            (reads, writer.join().expect("writer thread panicked"))
        });
        server.set_tracing(false);
        self.cursor = cursor;
        self.note_reads(&reads, before);
        // The counters moved once; the writes only add their own tallies.
        self.note_writes(&writes, Counters::of(self.rig.main()));
        self.absorb([tracer]);
        (reads, writes)
    }

    // --- restart -------------------------------------------------------

    /// Checkpoint, a fixed tail of writes, flush, drop, reopen; then check
    /// that exactly the acknowledged writes are stored.
    fn restart(&mut self) {
        self.step("restart: check the state, checkpoint, write the tail, reopen");
        let main = Arc::clone(self.rig.main());
        self.check_state(&main, "before the restart");
        let Store::Dir(dir, _) = &self.rig.store else {
            unreachable!("the main server is directory-backed");
        };
        let checkpoint = checkpoint(&main, dir);
        // The front end's connection threads hold the server; the tail is
        // written in process.
        self.rig.stop_net();
        self.write_pass(Until::Ops(TAIL_WRITES));
        let metrics_before = main.metrics_snapshot();
        drop(main);
        let closing = self.rig.main.take().expect("the main server is open");
        let (server, recover_s, report) = reopen(closing, &self.rig.store);
        self.rig.main = Some(Arc::clone(&server));
        if self.spec.wire {
            self.rig.net = Some(bind(&server, &self.rig.tpls));
        }
        // The plan cache died with the old server.
        for q in &self.rig.tpls.queries {
            server.prepare(q).expect("template prepares");
        }
        self.check_state(&server, "after the restart");
        if report.replayed == 0 {
            self.problems
                .push("recovery replayed no record past the checkpoint".to_string());
        }
        self.restarted = Some(Restarted {
            checkpoint,
            recover_s,
            report,
            metrics_before,
        });
    }

    // --- checks --------------------------------------------------------

    fn check_oracle(&mut self, server: &Arc<Server>, st: &ReadStats) {
        self.step("compare recorded replies with the oracle");
        let budget = Duration::from_secs_f64(if self.opts.smoke { 0.2 } else { ORACLE_S });
        let (compared, wrong) =
            check_against_oracle(server, &self.rig.tpls, &st.recorded, self.opts.seed, budget);
        self.step(&format!("{compared} of {} compared", st.recorded.len()));
        self.attempted += compared;
        self.failed += wrong;
        if wrong > 0 {
            self.problems.push(format!(
                "{wrong} of {compared} recorded replies differ from the oracle"
            ));
        }
    }

    /// The stored state must be the base plus exactly the block rows the
    /// cursor says are present: every acknowledged write and nothing else.
    fn check_state(&mut self, server: &Arc<Server>, when: &str) {
        let present = self.cursor.present(self.block.rows.len());
        let expected = self.base_tuples + present.len();
        let (keys, wrong) = check_block_presence(server, &self.rig.tpls, &self.block, present);
        self.attempted += keys + 1;
        self.failed += wrong;
        if wrong > 0 {
            self.problems
                .push(format!("{wrong} of {keys} block keys are wrong {when}"));
        }
        let tuples = server.snapshot().total_tuples();
        if tuples != expected {
            self.failed += 1;
            self.problems.push(format!(
                "{tuples} tuples stored {when}, expected {expected}"
            ));
        }
    }

    // --- layer probe (traced run) ----------------------------------------

    /// `NetClient::exec` against `Session::query` on the same sequence,
    /// plus `PING`: what the wire adds, on this workload's data.
    fn probe_net(&mut self) {
        self.step("probe the wire");
        if self.rig.net.is_none() {
            self.rig.net = Some(bind(self.rig.main(), &self.rig.tpls));
        }
        let frames = |run: &Self| run.rig.net.as_ref().expect("front end").frames_served();
        let window = self.window(0.05);
        let frames_before = frames(self);
        let seed = self.stream_seed;
        let t = Instant::now();
        let wire = self.read_pass(window, 0, true, false);
        let frames_per_s = (frames(self) - frames_before) as f64 / t.elapsed().as_secs_f64();
        // The same sequence again, without the wire.
        self.stream_seed = seed;
        let embedded = self.read_pass(window, 0, false, false);
        self.net_probe = Some(NetProbe {
            exec_p50_us: wire.templated.percentile_us(0.5),
            query_p50_us: embedded.templated.percentile_us(0.5),
            ping_us: wire.ping.iqm_us(),
            frames_per_s,
        });
        // Their replies are checked like any other; their samples belong
        // to the probe, not to the workload's read phase.
        for mut st in [wire, embedded] {
            st.templated.clear();
            self.reads.merge(st);
        }
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs one workload and returns what it measured.
pub fn run(opts: &Opts, out_dir: &Path) -> Outcome {
    let spec = spec(&opts.workload, opts.smoke);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never more client threads or connections than cores, and the bulk
    // loader gets the cores the installer thread leaves.
    let clients = nproc.min(2);
    let workers = nproc.saturating_sub(1).max(1);
    let dir = out_dir.join(format!("{}-{}", spec.name, std::process::id()));

    // Set-up, several times where it is cheap; the last rig is used.
    let mut setup_s = Vec::new();
    let mut load_rates = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..spec.setup_repeats {
        if let Some(mut old) = rig.take() {
            old.stop_net();
        }
        let t = Instant::now();
        let built = Rig::build(&spec, opts.seed, &dir, workers);
        setup_s.push(t.elapsed().as_secs_f64());
        load_rates.push(built.load.rows as f64 / built.load.wall_s);
        rig = Some(built);
    }
    let rig = rig.expect("at least one set-up");

    let main_dims = rig.main_dims;
    let mut run = Run {
        spec: &spec,
        opts,
        clients,
        block: orders_block(main_dims, opts.seed),
        cursor: Cursor::default(),
        base_tuples: rig.main().snapshot().total_tuples(),
        stream_seed: opts.seed,
        epoch: Instant::now(),
        spans: SpanLog::new(Instant::now()),
        overhead: None,
        reads: ReadStats::default(),
        read_ops_per_s: 0.0,
        writes: WriteStats::default(),
        beside: WriteStats::default(),
        flat_main: Samples::default(),
        flat_ref: Samples::default(),
        moved: Counters::default(),
        sent_requests: 0,
        restarted: None,
        net_probe: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        rig,
    };
    if main_dims.rows as usize != run.base_tuples {
        run.problems.push(format!(
            "loaded {} tuples, the generator promised {}",
            run.base_tuples, main_dims.rows
        ));
    }
    (spec.schedule)(&mut run);
    if opts.trace {
        run.probe_net();
        run.step("probe the write floors");
        probe_write_floor(&mut run.spans, spec.policy, &run.block);
    }
    // Every reply recorded on the main server, against its final state.
    let main = Arc::clone(run.rig.main());
    let reads = std::mem::take(&mut run.reads);
    run.check_oracle(&main, &reads);
    run.reads = reads;
    drop(main);
    run.rig.stop_net();

    let outcome = finish(run, &setup_s, &load_rates, nproc, out_dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn finish(
    mut run: Run,
    setup_s: &[f64],
    load_rates: &[f64],
    nproc: usize,
    out_dir: &Path,
) -> Outcome {
    let (spec, opts) = (run.spec, run.opts);
    let restarted = run.restarted.take().expect("every workload restarts once");
    let load = run.rig.load;
    // The write traffic this run reports on (see `Run::beside`).
    let writes = if opts.trace && !run.beside.inserts.is_empty() {
        &run.beside
    } else {
        &run.writes
    };
    let classes = [
        ("read", &run.reads.templated),
        ("adhoc", &run.reads.adhoc),
        ("write", &writes.inserts),
        ("delete", &writes.deletes),
        ("flat_main", &run.flat_main),
        ("flat_reference", &run.flat_ref),
    ];
    for (class, samples) in classes {
        if samples.is_empty() {
            run.problems.push(format!("no {class} sample was measured"));
        }
    }
    let context = Context {
        workload: spec.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        smoke: opts.smoke,
        nproc,
        clients: run.clients,
        main_sf: spec.main_sf,
        ref_sf: spec.ref_sf,
        main_rows: run.rig.main_dims.rows,
        ref_rows: run.rig.ref_dims.rows,
        sync_policy: format!("{:?}", spec.policy),
        setup_repeats: spec.setup_repeats,
        samples: classes
            .map(|(class, s)| (class, s.len(), s.beyond(0.99)))
            .to_vec(),
    };

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let disk_bytes = restarted.checkpoint.snapshot_bytes + restarted.checkpoint.wal_bytes;
    let user_bytes = load.cell_bytes + run.writes.cell_bytes + run.beside.cell_bytes;
    if !opts.trace {
        // The bounded latencies are quiet medians (see `crate::stats`).
        v.insert("setup_s", median(&mut setup_s.to_vec()));
        v.insert("read_p50_us", run.reads.templated.quiet_p50_us());
        v.insert("adhoc_p50_us", run.reads.adhoc.quiet_p50_us());
        v.insert(
            "scale_flatness",
            run.flat_main.quiet_p50_us() / run.flat_ref.quiet_p50_us(),
        );
        v.insert("write_p50_us", writes.inserts.quiet_p50_us());
        v.insert("peak_rss_mb", peak_rss_mb());
        v.insert(
            "disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes as f64,
        );
    } else {
        // The traced stacks compare like with like: the layers are means
        // over every replay of the window, so the requests they are set
        // against are plain medians over every request of the window.
        let read_p50 = run.reads.templated.percentile_us(0.5);
        let adhoc_p50 = run.reads.adhoc.percentile_us(0.5);
        let write_p50 = writes.inserts.percentile_us(0.5);
        v.insert("read_p99_us", run.reads.templated.percentile_us(0.99));
        v.insert("read_ops_per_s", run.read_ops_per_s);
        v.insert("write_p99_us", writes.inserts.percentile_us(0.99));
        v.insert("write_ops_per_s", writes.ops_per_s());
        v.insert("load_rows_per_s", median(&mut load_rates.to_vec()));
        v.insert("recover_s", restarted.recover_s);
        let overhead = span_overhead_us();
        let spans = &mut run.spans;
        let mut layer = |name: &str| spans.durations(name).iqm_us() - overhead;
        let parse = layer("core.parse");
        let ebcheck = layer("core.ebcheck");
        let qplan = layer("core.qplan");
        let query = layer("service.session.query");
        let prepare = layer("service.cache.prepare");
        let execute = layer("service.server.execute");
        let snapshot = layer("service.shared.snapshot");
        let bind = layer("exec.bind");
        let eval = layer("exec.eval_dq");
        let inplace = layer("storage.insert_inplace");
        let memlog = layer("durability.memlog_insert");
        // What the server exports about its writes and traced phases, on
        // whichever instance served them (the restart replaced one). The
        // phase histograms fill only while `set_tracing(true)`.
        let mut metrics = restarted.metrics_before.clone();
        metrics.merge(&run.rig.main().metrics_snapshot());
        let commit_hold = metrics.writes.commit_hold.mean() / 1e3;
        let served_write = metrics.writes.latency.mean() / 1e3;
        let lock_wait = metrics.writes.lock_wait.mean() / 1e3;
        let probe = run.net_probe.take().expect("a traced run probes the wire");
        let net_self = probe.exec_p50_us - probe.query_p50_us;
        let m = run.moved;
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let reads = &run.reads;
        let rows = run.rig.main_dims.rows + run.rig.ref_dims.rows;
        let tuples_after = run.rig.main().snapshot().total_tuples();

        v.insert("core.parse_us", parse);
        v.insert("core.ebcheck_us", ebcheck);
        v.insert("core.qplan_us", qplan);
        v.insert(
            "core.cost_bound_mean",
            per(reads.cost_bound_sum, reads.metered),
        );
        v.insert("exec.eval_dq_us", eval);
        v.insert(
            "exec.tuples_fetched_per_req",
            per(reads.tuples_fetched, reads.metered),
        );
        v.insert(
            "exec.rows_out_per_req",
            per(reads.rows_out, reads.attempted - reads.ping.len() as u64),
        );
        v.insert("exec.bound_utilisation_max", reads.utilisation_max);
        v.insert("storage.insert_inplace_us", inplace);
        v.insert("storage.delete_p50_us", writes.deletes.percentile_us(0.5));
        v.insert("storage.cow_clones_per_write", per(m.cow_clones, m.writes));
        v.insert("storage.cow_cells_per_write", per(m.cow_cells, m.writes));
        v.insert(
            "storage.bulk_append_ns_per_row",
            load.append_s * 1e9 / load.rows as f64,
        );
        v.insert(
            "storage.index_build_ns_per_row",
            (load.wall_s - load.append_s) * 1e9 / load.rows as f64,
        );
        v.insert(
            "storage.rss_bytes_per_row",
            peak_rss_mb() * 1024.0 * 1024.0 / rows as f64,
        );
        v.insert("durability.wal_bytes_per_write", per(m.wal_bytes, m.writes));
        v.insert("durability.fsyncs_per_write", per(m.wal_fsyncs, m.writes));
        v.insert(
            "durability.group_batch_mean",
            per(m.group_records, m.group_batches),
        );
        v.insert("durability.wal_append_us", memlog - inplace);
        // A served write is the commit section (storage and the WAL
        // append), the wait for the relation latch, and the wait for the
        // group's fsync: the last is what remains of the exported means.
        let fsync_wait = served_write - commit_hold - lock_wait;
        v.insert("durability.fsync_wait_us", fsync_wait);
        v.insert("durability.checkpoint_s", restarted.checkpoint.seconds);
        v.insert(
            "durability.snapshot_bytes",
            restarted.checkpoint.snapshot_bytes as f64,
        );
        v.insert(
            "durability.wal_bytes_total",
            restarted.checkpoint.wal_bytes as f64,
        );
        v.insert(
            "durability.replayed_records",
            restarted.report.replayed as f64,
        );
        v.insert(
            "durability.replay_rows_per_s",
            tuples_after as f64 / restarted.recover_s,
        );
        v.insert(
            "service.cache.hit_share",
            per(m.cache_hits, m.cache_hits + m.cache_misses),
        );
        v.insert(
            "service.cache.evictions_per_req",
            per(m.cache_evictions, m.requests),
        );
        v.insert(
            "service.cache.revalidations_per_req",
            per(m.cache_revalidations, m.requests),
        );
        v.insert("service.cache.prepare_hit_us", prepare);
        v.insert("service.server.execute_us", execute);
        v.insert(
            "service.server.execute_self_us",
            execute - snapshot - bind - eval,
        );
        v.insert(
            "service.server.session_overhead_us",
            query - prepare - execute,
        );
        v.insert("exec.bind_us", bind);
        let phase_us = |p: Phase| {
            let series = metrics.phases.iter().find(|s| s.phase == p);
            series.expect("every phase has a series").timings.mean() / 1e3
        };
        v.insert(
            "service.server.phase_cache_lookup_us",
            phase_us(Phase::CacheLookup),
        );
        v.insert("service.server.phase_compile_us", phase_us(Phase::Compile));
        v.insert("service.server.phase_bind_us", phase_us(Phase::Bind));
        v.insert("service.server.phase_execute_us", phase_us(Phase::Execute));
        v.insert("service.server.phase_respond_us", phase_us(Phase::Respond));
        v.insert("service.server.commit_hold_us", commit_hold);
        v.insert(
            "service.server.write_conflicts_per_write",
            per(m.write_conflicts, m.writes),
        );
        v.insert("service.shared.snapshot_us", snapshot);
        v.insert("service.net.ping_rtt_us", probe.ping_us);
        v.insert("service.net.self_us", net_self);
        v.insert("service.net.frames_per_s", probe.frames_per_s);
        let (untraced, traced) = run.overhead.expect("the first phase ran both ways");
        v.insert("telemetry.trace_overhead_ratio", traced / untraced);
        v.insert(
            "telemetry.requests_delta_mismatch",
            m.requests.abs_diff(run.sent_requests) as f64,
        );
        v.insert("telemetry.span_overhead_us", overhead);
        v.insert(
            "workload.generate_ns_per_row",
            generate_ns_per_row(spec.main_sf, opts.seed),
        );
        v.insert("failed_share", per(run.failed, run.attempted));

        // The read stack: differences of nested calls, which sum to the
        // outermost one. What the measured median has beyond their sum is
        // unattributed.
        let mut bars = vec![
            (
                "service.server.session_overhead_us",
                query - prepare - execute,
            ),
            ("service.cache.prepare_hit_us", prepare),
            (
                "service.server.execute_self_us",
                execute - snapshot - bind - eval,
            ),
            ("service.shared.snapshot_us", snapshot),
            ("exec.bind_us", bind),
            ("exec.eval_dq_us", eval),
        ];
        if spec.wire {
            bars.insert(0, ("service.net.self_us", net_self));
        }
        let attributed: f64 = bars.iter().map(|b| b.1).sum();
        v.insert("telemetry.unattributed_us", read_p50 - attributed);
        let bar = |name: &str, us: f64, of: f64| {
            format!("  {name:<44} {us:>12.3} us {:>6.1}%", 100.0 * us / of)
        };
        notes.push(format!(
            "read stack: read_p50_us {read_p50:.3} = {attributed:.3} attributed ({:.1}%) + {:.3} unattributed",
            100.0 * attributed / read_p50,
            read_p50 - attributed,
        ));
        notes.extend(bars.iter().map(|(name, us)| bar(name, *us, read_p50)));
        notes.push(format!("ad-hoc stack: adhoc_p50_us {adhoc_p50:.3}"));
        for (name, us) in [
            ("core.parse_us", parse),
            ("core.ebcheck_us", ebcheck),
            ("core.qplan_us", qplan),
        ] {
            notes.push(bar(name, us, adhoc_p50));
        }
        notes.push(format!(
            "write stack: a served write takes {served_write:.3} us on average \
             (inserts: write_p50_us {write_p50:.3}; deletes: p50 {:.3})",
            writes.deletes.percentile_us(0.5)
        ));
        for (name, us) in [
            ("service.server.commit_hold_us", commit_hold),
            ("service.server.lock_wait_us", lock_wait),
            ("durability.fsync_wait_us", fsync_wait),
        ] {
            notes.push(bar(name, us, served_write));
        }
        notes.push("  of the commit section, on an empty relation:".to_string());
        notes.push(bar("  storage.insert_inplace_us", inplace, served_write));
        notes.push(bar(
            "  durability.wal_append_us",
            memlog - inplace,
            served_write,
        ));
        notes.push(format!(
            "replay glue (self time of the replay spans, part of no request): {:.3} us",
            self_times(run.spans.spans(), "replay").iqm_us()
        ));
        let path = out_dir.join(format!("{}.trace.json", spec.name));
        match std::fs::write(&path, to_json(&context.to_json(), run.spans.spans())) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                run.spans.spans().len(),
                path.display()
            )),
            Err(e) => run.problems.push(format!("cannot write the trace: {e}")),
        }
    }
    Outcome {
        context,
        attempted: run.attempted,
        failed: run.failed,
        problems: run.problems,
        values: v,
        notes,
    }
}
