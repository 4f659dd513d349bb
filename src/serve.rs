//! `whale serve` — the long-lived analysis daemon.
//!
//! The paper's economics ("analyze once, query forever") only pay off when
//! the solved BDDs stay resident. This module keeps an [`Engine`] alive
//! behind a newline-delimited JSON protocol (stdio or a Unix socket),
//! answers batched queries against the resident fixpoint, folds fact
//! deltas in through [`Engine::solve_incremental`], and warm-starts from
//! an io v2 dump cache keyed by [`Engine::fact_stream_hash`].
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out, in order. Every request
//! takes an `op` and an optional `id` (echoed verbatim in the response).
//! Responses always carry `"ok": true|false`; errors report
//! `"error": "..."` and never terminate the connection — only `shutdown`
//! or EOF does.
//!
//! | op               | fields                         | answer                    |
//! |------------------|--------------------------------|---------------------------|
//! | `ping`           | —                              | `{"ok":true}`             |
//! | `relations`      | —                              | declared relations        |
//! | `count`          | `relation`                     | exact tuple count         |
//! | `select`         | `relation`, `fixed: [[ix,v]]`  | matching tuples           |
//! | `query`          | `atom: "vP(3, h)"`             | matching tuples           |
//! | `add_facts`      | `relation`, `tuples: [[..]]`   | pending-delta ack         |
//! | `retract_facts`  | `relation`, `tuples: [[..]]`   | pending-delta ack         |
//! | `solve`          | —                              | incremental solve stats   |
//! | `stats`          | —                              | last solve stats          |
//! | `shutdown`       | —                              | ack, then the loop ends   |
//!
//! `count`/`select`/`query` auto-solve first when fact deltas are pending,
//! so a client never reads stale answers; `solve` forces the fold
//! explicitly to observe the stats. Malformed requests (bad JSON, unknown
//! `op`, missing fields) produce an error response and the daemon keeps
//! serving — a wedged IDE plugin must not take the analysis down with it.
//!
//! # Warm start
//!
//! With a cache directory configured, startup probes
//! `<dir>/<fact_stream_hash>.whalecache` — a concatenation of io v2 BDD
//! dumps, one per relation, written on clean shutdown. A hit restores
//! every relation through the hardened [`whale_bdd::io::read_bdd`] and
//! skips the cold solve entirely; any decode error, or a relation whose
//! digest (its name plus its dump bytes) does not match, logs to stderr
//! and falls back to solving from the loaded facts. The key covers the
//! program, the variable order, and the canonical node structure of every
//! relation's base facts, so a stale dump can only be reached by a hash
//! collision, not by a changed input.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use whale_datalog::{json_string, Engine, SolveStats};
pub use whale_datalog::{parse_json, Json};

/// Cap on a single request line; longer lines are rejected without
/// parsing so a runaway client cannot balloon the daemon's memory.
const MAX_REQUEST_BYTES: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------
// The resident server
// ---------------------------------------------------------------------

/// The daemon's resident state: one engine plus the warm-start cache
/// location. Construct with [`Server::new`], then drive with
/// [`Server::serve_connection`] (in-process or over a transport).
pub struct Server {
    engine: Engine,
    cache_dir: Option<PathBuf>,
    /// Set once a `shutdown` request has been answered.
    shutdown: bool,
}

impl Server {
    /// Wraps a prepared engine. If `cache_dir` is set, tries a warm start
    /// immediately: a valid cache entry installs the solved relations, a
    /// missing or corrupt one leaves the engine cold (corruption is
    /// logged to stderr; the first request then pays the cold solve).
    #[must_use]
    pub fn new(engine: Engine, cache_dir: Option<PathBuf>) -> Server {
        let mut server = Server {
            engine,
            cache_dir,
            shutdown: false,
        };
        if let Some(dir) = server.cache_dir.clone() {
            match try_warm_start(&mut server.engine, &dir) {
                Ok(true) => eprintln!("whale serve: warm start from cache"),
                Ok(false) => {}
                Err(e) => eprintln!("whale serve: warm-start cache unusable ({e}); cold solve"),
            }
        }
        server
    }

    /// Read access to the resident engine (tests inspect relation state
    /// between requests).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Answers requests from `reader` line by line until `shutdown` or
    /// EOF, writing one response line each. Returns `true` if the
    /// connection ended with an explicit `shutdown` (the socket accept
    /// loop uses this to stop listening). On either ending the cache is
    /// persisted when a solution is resident.
    ///
    /// # Errors
    ///
    /// Only transport-level write failures; request-level problems are
    /// answered in-band.
    pub fn serve_connection<R: BufRead, W: Write>(
        &mut self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<bool> {
        let mut reader = reader;
        let mut line = Vec::new();
        // EOF (client hung up) ends the loop as a clean stop.
        while let Some(oversized) = read_request_line(&mut reader, &mut line)? {
            let text = String::from_utf8_lossy(&line);
            if !oversized && text.trim().is_empty() {
                continue;
            }
            let response = if oversized {
                error_response(None, "request exceeds size limit")
            } else {
                self.handle_line(&text)
            };
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if self.shutdown {
                break;
            }
        }
        self.persist_cache();
        Ok(self.shutdown)
    }

    /// Parses and dispatches one request line; never panics, never errors
    /// out of the connection.
    fn handle_line(&mut self, line: &str) -> String {
        let req = match parse_json(line.trim()) {
            Ok(v) => v,
            Err(e) => return error_response(None, &format!("bad request: {e}")),
        };
        let id = req.get("id").cloned();
        let Some(op) = req.get("op").and_then(Json::as_str).map(str::to_string) else {
            return error_response(id.as_ref(), "missing `op`");
        };
        match self.dispatch(&op, &req) {
            Ok(body) => {
                let mut out = format!("{{\"ok\":true,\"op\":{}", json_string(&op));
                if let Some(id) = &id {
                    out.push_str(",\"id\":");
                    write!(out, "{id}").expect("writing to a String cannot fail");
                }
                if !body.is_empty() {
                    out.push(',');
                    out.push_str(&body);
                }
                out.push('}');
                out
            }
            Err(e) => error_response(id.as_ref(), &e),
        }
    }

    /// Executes one operation, returning the response body fields
    /// (without the surrounding braces / ok / id).
    fn dispatch(&mut self, op: &str, req: &Json) -> Result<String, String> {
        match op {
            "ping" => Ok(String::new()),
            "shutdown" => {
                self.shutdown = true;
                Ok(String::new())
            }
            "relations" => {
                let rows: Vec<String> = self
                    .engine
                    .program()
                    .relations()
                    .iter()
                    .map(|r| {
                        let attrs: Vec<String> = r
                            .attrs
                            .iter()
                            .map(|(a, d)| format!("[{},{}]", json_string(a), json_string(d)))
                            .collect();
                        format!(
                            "{{\"name\":{},\"kind\":{},\"attrs\":[{}]}}",
                            json_string(&r.name),
                            json_string(&format!("{:?}", r.kind).to_lowercase()),
                            attrs.join(",")
                        )
                    })
                    .collect();
                Ok(format!("\"relations\":[{}]", rows.join(",")))
            }
            "count" => {
                let rel = str_field(req, "relation")?;
                self.engine.ensure_solved().map_err(stringify)?;
                let n = self.engine.relation_count_exact(rel).map_err(stringify)?;
                Ok(format!("\"relation\":{},\"count\":{n}", json_string(rel)))
            }
            "select" => {
                let rel = str_field(req, "relation")?;
                let fixed = fixed_field(req)?;
                self.engine.ensure_solved().map_err(stringify)?;
                let tuples = self
                    .engine
                    .relation_select(rel, &fixed)
                    .map_err(stringify)?;
                Ok(format!(
                    "\"relation\":{},\"tuples\":{}",
                    json_string(rel),
                    encode_tuples(&tuples)
                ))
            }
            "query" => {
                let q = self
                    .engine
                    .solve_query(str_field(req, "atom")?)
                    .map_err(stringify)?;
                Ok(format!(
                    "\"relation\":{},\"tuples\":{}",
                    json_string(&q.relation),
                    encode_tuples(&q.tuples)
                ))
            }
            "add_facts" => {
                let rel = str_field(req, "relation")?;
                let tuples = tuples_field(req)?;
                self.engine.add_facts(rel, &tuples).map_err(stringify)?;
                Ok(format!(
                    "\"relation\":{},\"added\":{},\"pending\":{}",
                    json_string(rel),
                    tuples.len(),
                    self.engine.has_pending_deltas()
                ))
            }
            "retract_facts" => {
                let rel = str_field(req, "relation")?;
                let tuples = tuples_field(req)?;
                self.engine.retract_facts(rel, &tuples).map_err(stringify)?;
                Ok(format!(
                    "\"relation\":{},\"retracted\":{},\"pending\":{}",
                    json_string(rel),
                    tuples.len(),
                    self.engine.has_pending_deltas()
                ))
            }
            "solve" => {
                let stats = self.engine.solve_incremental().map_err(stringify)?;
                Ok(encode_stats(&stats))
            }
            "stats" => Ok(encode_stats(&self.engine.stats())),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Writes the warm-start cache entry for the current base facts.
    /// Best-effort: a failure is logged, never fatal — the next start
    /// simply solves cold.
    fn persist_cache(&mut self) {
        let Some(dir) = self.cache_dir.clone() else {
            return;
        };
        if !self.engine.is_solved() {
            return;
        }
        // Deltas newer than the resident solution would persist a stale
        // fixpoint under the new facts' key; fold them in first.
        if let Err(e) = self.engine.ensure_solved() {
            eprintln!("whale serve: cache persist skipped ({e})");
            return;
        }
        if let Err(e) = write_cache(&self.engine, &dir) {
            eprintln!("whale serve: cache persist failed ({e})");
        }
    }
}

/// Reads one request line (trailing newline stripped) into `out` with
/// bounded memory: an oversized line is drained chunk by chunk instead of
/// buffered, and reported as `Some(true)`. `None` means EOF before any
/// byte of a new line.
///
/// # Errors
///
/// Transport-level read failures.
fn read_request_line<R: BufRead>(
    reader: &mut R,
    out: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    out.clear();
    let mut any = false;
    let mut oversized = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if any { Some(oversized) } else { None });
        }
        any = true;
        let (chunk_end, consumed, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(p) => (p, p + 1, true),
            None => (buf.len(), buf.len(), false),
        };
        if !oversized {
            if out.len() + chunk_end > MAX_REQUEST_BYTES {
                oversized = true;
                out.clear();
            } else {
                out.extend_from_slice(&buf[..chunk_end]);
            }
        }
        reader.consume(consumed);
        if done {
            return Ok(Some(oversized));
        }
    }
}

/// The cache entry path for an engine's current facts.
fn cache_path(engine: &Engine, dir: &Path) -> PathBuf {
    dir.join(format!("{:016x}.whalecache", engine.fact_stream_hash()))
}

/// FNV-1a over a relation's name and its io v2 dump bytes: the check on
/// each `relation` line of a cache file. It ties a dump to the name it is
/// filed under, so a dump moved to another relation of the same
/// signature is refused rather than answered from.
fn relation_digest(name: &str, dump: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes().iter().chain(&[0xff]).chain(dump) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes every relation of a solved engine as concatenated io v2
/// dumps. The format is line-oriented all the way down, so the whole
/// file stays greppable:
///
/// ```text
/// whalecache 2 <relation-count>
/// relation <name> <digest>    (16 hex digits, see `relation_digest`)
/// bdd 2 ...                   (io v2 dump of that relation)
/// ...
/// ```
fn write_cache(engine: &Engine, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = cache_path(engine, dir);
    let tmp = path.with_extension("tmp");
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let names: Vec<String> = engine
            .program()
            .relations()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        writeln!(out, "whalecache 2 {}", names.len())?;
        let mut dump = Vec::new();
        for name in &names {
            let bdd = engine
                .relation_bdd(name)
                .expect("declared relation resolves");
            dump.clear();
            whale_bdd::io::write_bdd(&bdd, &mut dump)?;
            writeln!(out, "relation {name} {:016x}", relation_digest(name, &dump))?;
            out.write_all(&dump)?;
        }
    }
    // Atomic publish: a crash mid-write leaves only a .tmp, which the
    // reader never looks at.
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Probes the cache for the engine's fact-stream key and restores on a
/// hit. `Ok(true)` — warm; `Ok(false)` — no entry; `Err` — entry exists
/// but is corrupt or a relation's digest does not match its name and
/// dump (the caller logs and cold-solves; the engine is left unsolved
/// and unpoisoned because restored values only land via
/// [`Engine::warm_start`] after the whole file decoded).
fn try_warm_start(engine: &mut Engine, dir: &Path) -> Result<bool, String> {
    let path = cache_path(engine, dir);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut reader: &[u8] = &bytes;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() != 3 || parts[0] != "whalecache" || parts[1] != "2" {
        return Err(format!("{}: bad cache header", path.display()));
    }
    let count: usize = parts[2]
        .parse()
        .map_err(|_| format!("{}: bad relation count", path.display()))?;
    let declared: std::collections::HashSet<&str> = engine
        .program()
        .relations()
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    if count > declared.len() {
        return Err(format!(
            "{}: relation count exceeds program",
            path.display()
        ));
    }
    let mut restored: Vec<(String, whale_bdd::Bdd)> = Vec::with_capacity(count);
    for _ in 0..count {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let marker: Vec<&str> = line.split_whitespace().collect();
        let ["relation", name, digest] = marker[..] else {
            return Err(format!("{}: missing relation marker", path.display()));
        };
        if !declared.contains(name) {
            return Err(format!("{}: unknown relation `{name}`", path.display()));
        }
        let rest = reader;
        let bdd = whale_bdd::io::read_bdd(engine.manager(), &mut reader)
            .map_err(|e| format!("{}: relation `{name}`: {e}", path.display()))?;
        let dump = &rest[..rest.len() - reader.len()];
        if u64::from_str_radix(digest, 16) != Ok(relation_digest(name, dump)) {
            return Err(format!(
                "{}: relation `{name}`: digest mismatch",
                path.display()
            ));
        }
        restored.push((name.to_string(), bdd));
    }
    engine.warm_start(restored).map_err(stringify)?;
    Ok(true)
}

// ---------------------------------------------------------------------
// Request field extraction and response encoding
// ---------------------------------------------------------------------

fn stringify<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn str_field<'a>(req: &'a Json, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// `tuples: [[u64, ...], ...]`.
fn tuples_field(req: &Json) -> Result<Vec<Vec<u64>>, String> {
    let arr = req
        .get("tuples")
        .and_then(Json::as_arr)
        .ok_or("missing array field `tuples`")?;
    arr.iter()
        .map(|t| {
            t.as_arr()
                .ok_or("tuple must be an array")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| "tuple values must be non-negative integers".to_string())
                })
                .collect()
        })
        .collect()
}

/// `fixed: [[attr, value], ...]` — optional, defaults to empty.
fn fixed_field(req: &Json) -> Result<Vec<(usize, u64)>, String> {
    let Some(arr) = req.get("fixed") else {
        return Ok(Vec::new());
    };
    let arr = arr.as_arr().ok_or("`fixed` must be an array")?;
    arr.iter()
        .map(|pair| {
            let p = pair
                .as_arr()
                .ok_or("`fixed` entries must be [attr, value]")?;
            if p.len() != 2 {
                return Err("`fixed` entries must be [attr, value]".to_string());
            }
            let attr = p[0].as_u64().ok_or("bad attribute index")?;
            let v = p[1].as_u64().ok_or("bad attribute value")?;
            usize::try_from(attr)
                .map(|a| (a, v))
                .map_err(|_| "bad attribute index".to_string())
        })
        .collect()
}

fn error_response(id: Option<&Json>, msg: &str) -> String {
    let mut out = format!("{{\"ok\":false,\"error\":{}", json_string(msg));
    if let Some(id) = id {
        out.push_str(",\"id\":");
        write!(out, "{id}").expect("writing to a String cannot fail");
    }
    out.push('}');
    out
}

fn encode_tuples(tuples: &[Vec<u64>]) -> String {
    let mut out = String::from("[");
    for (i, t) in tuples.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        for (j, v) in t.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{v}").expect("writing to a String cannot fail");
        }
        out.push(']');
    }
    out.push(']');
    out
}

fn encode_stats(s: &SolveStats) -> String {
    format!(
        "\"stats\":{{\"rounds\":{},\"rule_applications\":{},\"strata\":{},\
         \"incremental\":{},\"strata_resolved\":{},\"strata_skipped\":{},\
         \"full_fallback\":{},\"solve_time_us\":{}}}",
        s.rounds,
        s.rule_applications,
        s.strata,
        s.incremental,
        s.strata_resolved,
        s.strata_skipped,
        s.full_fallback,
        s.solve_time.as_micros()
    )
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// Serves a single session on stdin/stdout (the `whale serve` default —
/// the shape an IDE plugin child process uses).
///
/// # Errors
///
/// Transport-level I/O failures.
pub fn run_stdio(server: &mut Server) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    server.serve_connection(stdin.lock(), stdout.lock())?;
    Ok(())
}

/// Binds a Unix socket and serves connections sequentially until one of
/// them issues `shutdown`. Sequential is deliberate: the engine is one
/// mutable resident, and queries are answered from BDDs in microseconds —
/// connection concurrency would buy contention, not throughput.
///
/// # Errors
///
/// Bind/accept/transport-level I/O failures.
#[cfg(unix)]
pub fn run_socket(server: &mut Server, path: &Path) -> std::io::Result<()> {
    // A stale socket file from a crashed daemon blocks bind; remove it.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    eprintln!("whale serve: listening on {}", path.display());
    loop {
        let (stream, _) = listener.accept()?;
        let reader = BufReader::new(stream.try_clone()?);
        let done = server.serve_connection(reader, stream)?;
        if done {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_flat_request() {
        let v = parse_json(r#"{"op":"select","relation":"vP","fixed":[[0,3]],"id":7}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("select"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        let fixed = v.get("fixed").unwrap().as_arr().unwrap();
        assert_eq!(fixed[0].as_arr().unwrap()[1].as_u64(), Some(3));
    }

    #[test]
    fn tuple_encoding_matches_the_joined_rows() {
        let joined = |tuples: &[Vec<u64>]| {
            let rows: Vec<String> = tuples
                .iter()
                .map(|t| {
                    let vals: Vec<String> = t.iter().map(u64::to_string).collect();
                    format!("[{}]", vals.join(","))
                })
                .collect();
            format!("[{}]", rows.join(","))
        };
        let mut rng = whale_testkit::Rng::seed_from_u64(7);
        for _ in 0..200 {
            let arity = rng.below(4) as usize;
            let tuples: Vec<Vec<u64>> = (0..rng.below(6))
                .map(|_| {
                    (0..arity)
                        .map(|_| rng.next_u64() >> rng.below(64))
                        .collect()
                })
                .collect();
            assert_eq!(encode_tuples(&tuples), joined(&tuples));
        }
        assert_eq!(encode_tuples(&[]), "[]");
    }

    #[test]
    fn parser_rejects_depth_bomb() {
        let bomb = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
        assert!(parse_json(&bomb).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "nulll",
            "\"unterminated",
            "{\"a\":1}x",
            "1e999",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse_json(r#""a\n\tAß""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\tAß"));
    }
}
