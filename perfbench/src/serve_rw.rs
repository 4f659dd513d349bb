//! `serve_rw`: one closed-loop client drives `whale::serve::Server`
//! in-process, with no threads, against Algorithm 5. The server
//! warm-starts from an io v2 dump cache that an untimed step writes.
//!
//! The client is a streaming reader handed to one
//! `Server::serve_connection` call: it gives out request k+1 only after
//! response k has been written, so every request is timed from the moment
//! the server reads it to the moment its response is flushed. (One call
//! per request would persist the cache after every call.)
//!
//! Traffic: writes alternate with blocks of reads.
//! - Reads: seeded `select` of one variable's `vPC` tuples, and `count`.
//! - Writes, edits and appends interleaved 3:1. An edit retracts one
//!   `assign0` edge, re-adds one retracted earlier, then solves (the
//!   invalidation tier); an append re-adds a retracted edge and solves
//!   (the resume tier). Set-up retracts a seeded pool of edges first, so
//!   appends always have one to add and the program stays near its
//!   generated shape.
//!
//! Checks: every response is `"ok":true`, and the final resident `vPC`
//! equals a from-scratch solve over the final facts. In a traced run the
//! from-scratch solve of each counted program also answers a few
//! demand-driven queries (see [`crate::demand`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use whale::serve::{parse_json, Json, Server};
use whale_bdd::io::BddSnapshot;
use whale_datalog::{Engine, SolveStats};
use whale_testkit::rng::Rng;

use whale_ir::synth::SynthConfig;

use crate::demand;
use crate::trace::{SpanId, Tracer};
use crate::{
    count_inputs, count_manager, count_solve, describe, layer_values, load, load_engine, mean,
    median, peak_rss_mb, per_layer, program_stream, reset_peak_rss, secs, Loaded, Ops, Outcome,
    Plan, RunConfig, Tally, COUNTED_PROGRAMS, OUT_DIR,
};

/// `freetts` programs at 1/16 scale with a five-layer call graph.
pub fn plan() -> Plan {
    Plan {
        den: 16,
        layers: Some(5),
    }
}

/// `assign0` edges retracted at set-up: the pool writes re-add from.
const POOL: usize = 16;
/// Writes per program, each followed by a block of reads.
const WRITES_PER_PROGRAM: usize = 8;
/// Reads between two writes; every [`COUNT_EVERY`]th one is a `count`.
const READ_BLOCK: usize = 120;
/// Spacing of `count` requests within a read block.
const COUNT_EVERY: usize = 3;
/// `select` is drawn among variables with at most this many tuples.
const MAX_SELECT: f64 = 2_000.0;

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let configs = program_stream(cfg.seed, &cfg.plan);
    let mut stream = configs.iter().enumerate();
    let mut tr = Tracer::new(cfg.trace);
    let mut ops = Ops::default();
    let mut notes = Vec::new();
    let cache_root = cache_root(cfg.seed);
    let mut s = Session {
        seed: cfg.seed,
        cache_root: &cache_root,
        tally: Tally::default(),
        stats: ClientStats::default(),
    };
    let (traced, untraced) = if cfg.trace {
        s.run(
            &mut stream,
            cfg.seconds / 2.0,
            &mut tr,
            &mut ops,
            &mut notes,
        );
        let traced = std::mem::take(&mut s.tally);
        let stats = std::mem::take(&mut s.stats);
        s.run(
            &mut stream,
            cfg.seconds / 2.0,
            &mut Tracer::new(false),
            &mut ops,
            &mut Vec::new(),
        );
        s.stats = stats;
        (traced, std::mem::take(&mut s.tally))
    } else {
        s.run(
            &mut stream,
            cfg.seconds,
            &mut Tracer::new(false),
            &mut ops,
            &mut notes,
        );
        (s.tally.clone(), std::mem::take(&mut s.tally))
    };
    let _ = std::fs::remove_dir_all(&cache_root);
    notes.push(untraced.note("serve_rw (untraced)"));

    let metrics = if cfg.trace {
        let stats = &s.stats;
        notes.push(traced.note("serve_rw (traced)"));
        let programs = COUNTED_PROGRAMS.min(traced.setup_s.len());
        let mut v = layer_values(&tr, programs, &traced, &untraced);
        v.insert("bdd.warm_start_ms", median(&tr.durations("bdd.warm_start")));
        v.insert("core.alg5_ms", median(&tr.durations("core.alg5")));
        v.insert("datalog.solve_ms", median(&tr.durations("datalog.solve")));
        v.insert(
            "datalog.stratum_max_ms",
            median(&tr.durations("datalog.stratum_max")),
        );
        v.extend(demand::layer_values(&tr));
        v.insert(
            "bdd.dump_bytes",
            tr.counter("bdd.dump_bytes") / programs.max(1) as f64,
        );
        v.insert("serve.count_ms", mean(&stats.count_ms));
        v.insert("serve.select_ms", mean(&stats.select_ms));
        v.insert("serve.select_tuples", mean(&stats.select_tuples));
        v.insert("serve.response_bytes", mean(&stats.read_bytes));
        v.insert("serve.edit_ms", median(&stats.edit_ms));
        v.insert("serve.append_ms", median(&stats.append_ms));
        let n = stats.counted_writes.max(1) as f64;
        v.insert("datalog.incr_rule_apps", stats.incr_rule_apps / n);
        v.insert("datalog.strata_resolved", stats.strata_resolved / n);
        v.insert("datalog.strata_skipped", stats.strata_skipped / n);
        v.insert("datalog.full_fallbacks", stats.full_fallbacks);
        notes.push(format!(
            "serve_rw (traced): {} reads ({} count), {} edits, {} appends; incremental counters \
             over the {} writes of the first {programs} programs",
            stats.count_ms.len() + stats.select_ms.len(),
            stats.count_ms.len(),
            stats.edit_ms.len(),
            stats.append_ms.len(),
            stats.counted_writes,
        ));
        per_layer(&v)
    } else {
        untraced.end_to_end()
    };
    Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        notes,
        tracer: tr,
    }
}

/// One session's state: programs are taken from the run's stream until
/// the session's time is spent.
struct Session<'a> {
    seed: u64,
    cache_root: &'a Path,
    tally: Tally,
    /// Client measurements (of a traced session, for the per-layer
    /// figures).
    stats: ClientStats,
}

impl Session<'_> {
    /// Takes programs until `budget` seconds have elapsed (at least one).
    /// Each gets its cache written, a timed warm-start set-up, one
    /// connection of [`WRITES_PER_PROGRAM`] writes with their read blocks,
    /// and the final check. Counters come from the first
    /// [`COUNTED_PROGRAMS`] programs of a traced session.
    fn run<'c>(
        &mut self,
        stream: &mut impl Iterator<Item = (usize, &'c SynthConfig)>,
        budget: f64,
        tr: &mut Tracer,
        ops: &mut Ops,
        notes: &mut Vec<String>,
    ) {
        let t0 = Instant::now();
        while secs(t0) < budget || self.tally.setup_s.is_empty() {
            let Some((j, config)) = stream.next() else {
                break;
            };
            let counted = self.tally.setup_s.len() < COUNTED_PROGRAMS && tr.on();
            reset_peak_rss();
            let seed = self.seed.wrapping_mul(31).wrapping_add(j as u64);
            let dir = self.cache_root.join(format!("program-{j}"));
            // Untimed: the cache a previous daemon run would have left.
            let l = load(config, &mut Tracer::new(false));
            let pool = retraction_pool(&l, seed);
            write_cache(&l, &pool, &dir, ops);
            if notes.len() < 3 {
                notes.push(describe(config, &l));
            }
            if counted {
                tr.add("bdd.dump_bytes", dump_bytes(&dir));
                count_inputs(&l, tr);
            }

            let t = Instant::now();
            let l = load(config, tr);
            let engine = prepared_engine(&l, &pool, tr);
            let span = tr.begin("bdd.warm_start");
            let mut server = Server::new(engine, Some(dir.clone()));
            tr.end(span);
            self.tally.setup_s.push(secs(t));
            ops.check(server.engine().is_solved());

            let present = l
                .facts
                .assign
                .iter()
                .filter(|e| !pool.contains(e))
                .copied()
                .collect();
            let tracer = std::mem::replace(tr, Tracer::new(false));
            let client = Client::new(
                seed,
                (present, pool),
                demand::bounded_vars(server.engine(), MAX_SELECT),
                tracer,
                counted,
            );
            let (c, served) = drive(&mut server, client);
            *tr = c.tracer;
            ops.check(served);
            ops.attempted += c.ops.attempted;
            ops.failed += c.ops.failed;
            let span = tr.begin("core.alg5");
            let fresh = fresh_solve(&l, &c.removed);
            tr.end(span);
            ops.check(
                fresh
                    .as_ref()
                    .is_some_and(|(e, _)| same_vpc(server.engine(), e)),
            );
            if let (true, Some((mut engine, stats))) = (counted, fresh) {
                count_solve(tr, &stats);
                count_manager(tr, &engine);
                tr.record("datalog.solve", stats.solve_time.as_secs_f64() * 1e3);
                let stratum_max = stats
                    .stratum_times
                    .iter()
                    .max()
                    .copied()
                    .unwrap_or_default();
                tr.record("datalog.stratum_max", stratum_max.as_secs_f64() * 1e3);
                demand::sample(&mut engine, stats.rule_applications, seed, tr, ops);
            }
            self.tally.latency_ms.extend(c.stats.write_ms());
            self.tally.units += c.stats.requests as f64;
            self.tally.busy_s += c.elapsed_s;
            if tr.on() {
                self.stats.merge(c.stats);
            }
            self.tally.rss_mb.push(peak_rss_mb());
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A fresh directory for this run's dump caches, inside the benchmark's
/// output directory.
fn cache_root(seed: u64) -> PathBuf {
    let dir = Path::new(OUT_DIR).join(format!("cache-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Total size of the cache files in `dir`.
fn dump_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// The seeded `assign0` edges retracted before the server starts.
fn retraction_pool(l: &Loaded, seed: u64) -> Vec<[u64; 2]> {
    let mut edges = l.facts.assign.clone();
    edges.sort_unstable();
    edges.dedup();
    let mut rng = Rng::seed_from_u64(seed ^ 0x9001);
    rng.shuffle(&mut edges);
    edges.truncate(POOL.min(edges.len() / 4));
    edges
}

/// An Algorithm 5 engine over the program minus the retraction pool,
/// unsolved.
fn prepared_engine(l: &Loaded, pool: &[[u64; 2]], tr: &mut Tracer) -> Engine {
    let mut engine = load_engine(l, tr);
    engine
        .retract_facts("assign0", pool)
        .expect("assign0 is an input relation");
    engine
}

/// Solves the set-up engine cold behind a server that persists its cache
/// when the connection ends.
fn write_cache(l: &Loaded, pool: &[[u64; 2]], dir: &Path, ops: &mut Ops) {
    let _ = std::fs::remove_dir_all(dir);
    let mut server = Server::new(
        prepared_engine(l, pool, &mut Tracer::new(false)),
        Some(dir.to_path_buf()),
    );
    let mut out = Vec::new();
    let served = server.serve_connection(&b"{\"op\":\"solve\"}\n"[..], &mut out);
    ops.check(served.is_ok() && out.starts_with(b"{\"ok\":true"));
}

/// A from-scratch Algorithm 5 solve over the program minus the edges
/// still retracted.
fn fresh_solve(l: &Loaded, removed: &[[u64; 2]]) -> Option<(Engine, SolveStats)> {
    let mut fresh = prepared_engine(l, removed, &mut Tracer::new(false));
    let stats = fresh.solve().ok()?;
    Some((fresh, stats))
}

/// Whether two engines over one program hold the same `vPC`.
fn same_vpc(resident: &Engine, fresh: &Engine) -> bool {
    let (Ok(mine), Ok(theirs)) = (resident.relation_bdd("vPC"), fresh.relation_bdd("vPC")) else {
        return false;
    };
    BddSnapshot::of(&theirs)
        .restore(resident.manager())
        .is_ok_and(|b| b == mine)
}

/// Runs one connection to its end and hands the client back, with
/// whether the transport held up.
fn drive(server: &mut Server, client: Client) -> (Client, bool) {
    let shared = Rc::new(RefCell::new(client));
    let feed = Feed {
        client: Rc::clone(&shared),
        buf: Vec::new(),
        pos: 0,
    };
    let sink = Sink {
        client: Rc::clone(&shared),
        line: Vec::new(),
    };
    let served = server.serve_connection(feed, sink).is_ok();
    let client = Rc::try_unwrap(shared)
        .ok()
        .expect("the connection released the client")
        .into_inner();
    (client, served)
}

/// The request side of the connection: asks the client for the next
/// request whenever the server has consumed the previous one.
struct Feed {
    client: Rc<RefCell<Client>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for Feed {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if let Some(line) = self.client.borrow_mut().next_request() {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The response side: hands each complete response line to the client.
struct Sink {
    client: Rc<RefCell<Client>>,
    line: Vec<u8>,
}

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                self.client.borrow_mut().on_response(&self.line);
                self.line.clear();
            } else {
                self.line.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Req {
    Count,
    Select,
    Retract,
    Add,
    Solve,
}

impl Req {
    fn span(self) -> &'static str {
        match self {
            Req::Count => "serve.count",
            Req::Select => "serve.select",
            Req::Retract => "serve.retract_facts",
            Req::Add => "serve.add_facts",
            Req::Solve => "serve.solve",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Edit,
    Append,
}

impl OpKind {
    fn span(self) -> &'static str {
        match self {
            OpKind::Read => "serve.read",
            OpKind::Edit => "serve.edit",
            OpKind::Append => "serve.append",
        }
    }
}

/// The operation in flight: its kind, start, and the request awaiting a
/// response.
struct InFlight {
    kind: OpKind,
    start: Instant,
    req: Req,
    req_start: Instant,
    span: SpanId,
    op_span: SpanId,
}

/// Measurements of one or more sessions.
#[derive(Default)]
struct ClientStats {
    requests: u64,
    count_ms: Vec<f64>,
    select_ms: Vec<f64>,
    select_tuples: Vec<f64>,
    read_bytes: Vec<f64>,
    edit_ms: Vec<f64>,
    append_ms: Vec<f64>,
    counted_writes: usize,
    incr_rule_apps: f64,
    strata_resolved: f64,
    strata_skipped: f64,
    full_fallbacks: f64,
}

impl ClientStats {
    fn write_ms(&self) -> Vec<f64> {
        self.edit_ms
            .iter()
            .chain(&self.append_ms)
            .copied()
            .collect()
    }

    fn merge(&mut self, o: ClientStats) {
        self.requests += o.requests;
        self.count_ms.extend(o.count_ms);
        self.select_ms.extend(o.select_ms);
        self.select_tuples.extend(o.select_tuples);
        self.read_bytes.extend(o.read_bytes);
        self.edit_ms.extend(o.edit_ms);
        self.append_ms.extend(o.append_ms);
        self.counted_writes += o.counted_writes;
        self.incr_rule_apps += o.incr_rule_apps;
        self.strata_resolved += o.strata_resolved;
        self.strata_skipped += o.strata_skipped;
        self.full_fallbacks += o.full_fallbacks;
    }
}

/// The closed-loop client: [`WRITES_PER_PROGRAM`] writes, each followed
/// by a block of reads.
struct Client {
    rng: Rng,
    /// `assign0` edges in the server's facts.
    present: Vec<[u64; 2]>,
    /// Retracted edges, which edits and appends re-add.
    removed: Vec<[u64; 2]>,
    selectable: Vec<u64>,
    /// Requests of the current operation not yet sent.
    queue: VecDeque<(Req, String)>,
    op: Option<InFlight>,
    writes: usize,
    reads_left: usize,
    /// Whether the solve counters of this connection are recorded.
    counted: bool,
    t0: Instant,
    elapsed_s: f64,
    tracer: Tracer,
    stats: ClientStats,
    ops: Ops,
    next_id: u64,
    ops_planned: u64,
}

impl Client {
    fn new(
        seed: u64,
        (present, removed): (Vec<[u64; 2]>, Vec<[u64; 2]>),
        selectable: Vec<u64>,
        tracer: Tracer,
        counted: bool,
    ) -> Client {
        Client {
            rng: Rng::seed_from_u64(seed ^ 0x5e7e_0000),
            present,
            removed,
            selectable,
            queue: VecDeque::new(),
            op: None,
            writes: 0,
            reads_left: 0,
            counted,
            t0: Instant::now(),
            elapsed_s: 0.0,
            tracer,
            stats: ClientStats::default(),
            ops: Ops::default(),
            next_id: 0,
            ops_planned: 0,
        }
    }

    /// The next request line, or `None` to end the connection.
    fn next_request(&mut self) -> Option<String> {
        if self.queue.is_empty() {
            if self.writes == WRITES_PER_PROGRAM && self.reads_left == 0 {
                self.elapsed_s = secs(self.t0);
                return None;
            }
            self.plan_op();
        }
        let (req, line) = self.queue.pop_front()?;
        let now = Instant::now();
        let span = self.tracer.begin(req.span());
        let id = self.next_id;
        self.next_id += 1;
        match &mut self.op {
            Some(op) => {
                op.req = req;
                op.req_start = now;
                op.span = span;
            }
            None => unreachable!("an operation is planned before its requests"),
        }
        Some(line.replace("\"id\":0", &format!("\"id\":{id}")))
    }

    /// Queues the requests of the next operation: a write when the read
    /// block is used up, a read otherwise.
    fn plan_op(&mut self) {
        let kind = if self.reads_left == 0 {
            self.reads_left = READ_BLOCK;
            self.writes += 1;
            if self.writes.is_multiple_of(4) && !self.removed.is_empty() {
                OpKind::Append
            } else {
                OpKind::Edit
            }
        } else {
            self.reads_left -= 1;
            OpKind::Read
        };
        match kind {
            OpKind::Read
                if self.reads_left.is_multiple_of(COUNT_EVERY) || self.selectable.is_empty() =>
            {
                self.queue.push_back((
                    Req::Count,
                    "{\"op\":\"count\",\"id\":0,\"relation\":\"vPC\"}".into(),
                ));
            }
            OpKind::Read => {
                let v = *self.rng.choose(&self.selectable);
                self.queue.push_back((
                    Req::Select,
                    format!(
                        "{{\"op\":\"select\",\"id\":0,\"relation\":\"vPC\",\"fixed\":[[1,{v}]]}}"
                    ),
                ));
            }
            OpKind::Edit => {
                let i = self.rng.below(self.present.len() as u64) as usize;
                let out = self.present.swap_remove(i);
                self.queue
                    .push_back((Req::Retract, facts_request("retract_facts", out)));
                if !self.removed.is_empty() {
                    let back = self.take_removed();
                    self.queue
                        .push_back((Req::Add, facts_request("add_facts", back)));
                }
                self.removed.push(out);
                self.queue
                    .push_back((Req::Solve, "{\"op\":\"solve\",\"id\":0}".into()));
            }
            OpKind::Append => {
                let back = self.take_removed();
                self.queue
                    .push_back((Req::Add, facts_request("add_facts", back)));
                self.queue
                    .push_back((Req::Solve, "{\"op\":\"solve\",\"id\":0}".into()));
            }
        }
        // One span per client operation, tagged with its number; the
        // protocol requests it sends nest inside.
        self.tracer.set_request(Some(self.ops_planned));
        self.ops_planned += 1;
        let op_span = self.tracer.begin(kind.span());
        let now = Instant::now();
        self.op = Some(InFlight {
            kind,
            start: now,
            req: Req::Count,
            req_start: now,
            span: op_span,
            op_span,
        });
    }

    /// Moves a seeded retracted edge back into the facts.
    fn take_removed(&mut self) -> [u64; 2] {
        let i = self.rng.below(self.removed.len() as u64) as usize;
        let e = self.removed.swap_remove(i);
        self.present.push(e);
        e
    }

    /// Records one response.
    fn on_response(&mut self, line: &[u8]) {
        let Some(op) = &self.op else {
            self.ops.check(false);
            return;
        };
        let now = Instant::now();
        let req_ms = now.duration_since(op.req_start).as_secs_f64() * 1e3;
        let (kind, req, start, span, op_span) = (op.kind, op.req, op.start, op.span, op.op_span);
        self.tracer.end(span);
        self.stats.requests += 1;
        self.ops.check(line.starts_with(b"{\"ok\":true"));
        let tracing = self.tracer.on();
        match req {
            Req::Count => {
                self.stats.count_ms.push(req_ms);
                self.stats.read_bytes.push(line.len() as f64);
            }
            Req::Select => {
                self.stats.select_ms.push(req_ms);
                self.stats.read_bytes.push(line.len() as f64);
                if tracing {
                    let tuples = parsed(line)
                        .and_then(|j| j.get("tuples").and_then(Json::as_arr).map(<[Json]>::len));
                    self.stats.select_tuples.push(tuples.unwrap_or(0) as f64);
                }
            }
            Req::Solve if self.counted => {
                if let Some(s) = parsed(line).and_then(|j| j.get("stats").cloned()) {
                    let num = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
                    self.stats.counted_writes += 1;
                    self.stats.incr_rule_apps += num("rule_applications");
                    self.stats.strata_resolved += num("strata_resolved");
                    self.stats.strata_skipped += num("strata_skipped");
                    if s.get("full_fallback") == Some(&Json::Bool(true)) {
                        self.stats.full_fallbacks += 1.0;
                    }
                }
            }
            _ => {}
        }
        if self.queue.is_empty() {
            self.tracer.end(op_span);
            self.tracer.set_request(None);
            let op_ms = now.duration_since(start).as_secs_f64() * 1e3;
            match kind {
                OpKind::Edit => self.stats.edit_ms.push(op_ms),
                OpKind::Append => self.stats.append_ms.push(op_ms),
                OpKind::Read => {}
            }
        }
    }
}

fn facts_request(op: &str, edge: [u64; 2]) -> String {
    format!(
        "{{\"op\":\"{op}\",\"id\":0,\"relation\":\"assign0\",\"tuples\":[[{},{}]]}}",
        edge[0], edge[1]
    )
}

fn parsed(line: &[u8]) -> Option<Json> {
    parse_json(std::str::from_utf8(line).ok()?).ok()
}
