//! In-process tests of the `whale serve` protocol: batched requests over
//! an in-memory transport, fact deltas against the resident engine,
//! malformed-input survival, and the warm-start cache round trip.

use std::io::Cursor;
use whale::datalog::{Engine, Program};
use whale::serve::{parse_json, Json, Server};

const TC: &str = "\
DOMAINS
V 32
RELATIONS
input edge (s : V, d : V)
output path (s : V, d : V)
RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
";

fn engine_with_chain() -> Engine {
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_fact("edge", &[0, 1]).unwrap();
    e.add_fact("edge", &[1, 2]).unwrap();
    e
}

/// Runs a batch of request lines through one connection and returns the
/// response lines plus the shutdown flag `serve_connection` reported.
fn run_session(server: &mut Server, requests: &[&str]) -> (Vec<String>, bool) {
    let input = requests.join("\n") + "\n";
    let mut output = Vec::new();
    let shutdown = server
        .serve_connection(Cursor::new(input.into_bytes()), &mut output)
        .unwrap();
    let lines = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (lines, shutdown)
}

#[test]
fn batched_requests_roundtrip_with_deltas() {
    let mut server = Server::new(engine_with_chain(), None);
    let (lines, shutdown) = run_session(
        &mut server,
        &[
            r#"{"op":"ping","id":1}"#,
            r#"{"op":"relations","id":2}"#,
            r#"{"op":"count","relation":"path","id":3}"#,
            r#"{"op":"select","relation":"path","fixed":[[0,0]],"id":4}"#,
            r#"{"op":"add_facts","relation":"edge","tuples":[[2,3]],"id":5}"#,
            r#"{"op":"solve","id":6}"#,
            r#"{"op":"count","relation":"path","id":7}"#,
            r#"{"op":"retract_facts","relation":"edge","tuples":[[2,3]],"id":8}"#,
            r#"{"op":"count","relation":"path","id":9}"#,
            r#"{"op":"query","atom":"path(0, y)","id":10}"#,
            r#"{"op":"shutdown","id":11}"#,
        ],
    );
    assert!(shutdown);
    assert_eq!(lines.len(), 11);
    for (ix, line) in lines.iter().enumerate() {
        assert!(line.contains("\"ok\":true"), "line {ix}: {line}");
        assert!(
            line.contains(&format!("\"id\":{}", ix + 1)),
            "line {ix}: {line}"
        );
    }
    assert!(lines[1].contains("\"name\":\"path\""), "{}", lines[1]);
    assert!(lines[2].contains("\"count\":3"), "{}", lines[2]);
    // select pinned column 0 to value 0: exactly the two paths from 0.
    assert!(
        lines[3].contains("[0,1]") && lines[3].contains("[0,2]"),
        "{}",
        lines[3]
    );
    assert!(!lines[3].contains("[1,2]"), "{}", lines[3]);
    // The fact delta flows through an incremental solve into new counts.
    assert!(lines[4].contains("\"pending\":true"), "{}", lines[4]);
    assert!(lines[5].contains("\"incremental\":true"), "{}", lines[5]);
    assert!(lines[6].contains("\"count\":6"), "{}", lines[6]);
    // Retraction is picked up implicitly by the next read.
    assert!(lines[8].contains("\"count\":3"), "{}", lines[8]);
    assert!(lines[9].contains("\"relation\":\"path\""), "{}", lines[9]);
    assert!(
        lines[9].contains("[0,1]") && lines[9].contains("[0,2]"),
        "{}",
        lines[9]
    );
}

#[test]
fn malformed_requests_never_kill_the_connection() {
    let mut server = Server::new(engine_with_chain(), None);
    let deep = format!("{}1{}", "[".repeat(80), "]".repeat(80));
    let requests = [
        "this is not json",
        r#"{"op":}"#,
        r#"{"no_op_here":true}"#,
        r#"{"op":"frobnicate","id":3}"#,
        r#"{"op":"count","id":4}"#,
        r#"{"op":"count","relation":"nonexistent","id":5}"#,
        r#"{"op":"add_facts","relation":"edge","tuples":[["a","b"]],"id":6}"#,
        r#"{"op":"select","relation":"path","fixed":[[99,0]],"id":7}"#,
        deep.as_str(),
        r#"{"op":"ping","id":8}"#,
    ];
    let (lines, shutdown) = run_session(&mut server, &requests);
    assert!(!shutdown, "EOF is a clean stop, not a shutdown");
    assert_eq!(lines.len(), requests.len());
    for (ix, line) in lines.iter().take(requests.len() - 1).enumerate() {
        assert!(line.contains("\"ok\":false"), "line {ix}: {line}");
        assert!(line.contains("\"error\":"), "line {ix}: {line}");
    }
    // The id is echoed even on errors, so clients can correlate.
    assert!(lines[3].contains("\"id\":3"), "{}", lines[3]);
    // And the connection still answers real requests afterwards.
    let last = lines.last().unwrap();
    assert!(
        last.contains("\"ok\":true") && last.contains("\"id\":8"),
        "{last}"
    );
}

#[test]
fn per_request_state_is_isolated_across_solves() {
    // The same resident engine answers repeated solves identically: the
    // daemon equivalent of the engine-level reset test.
    let mut server = Server::new(engine_with_chain(), None);
    let mut counts = Vec::new();
    for _ in 0..3 {
        let (lines, _) = run_session(
            &mut server,
            &[
                r#"{"op":"solve","id":1}"#,
                r#"{"op":"count","relation":"path","id":2}"#,
            ],
        );
        counts.push(lines[1].clone());
    }
    assert!(counts[0].contains("\"count\":3"), "{}", counts[0]);
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn warm_start_cache_roundtrip_and_corruption_fallback() {
    let dir = std::env::temp_dir().join(format!("whale_serve_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // First server: solve, shut down cleanly, persist the cache.
    let mut server = Server::new(engine_with_chain(), Some(dir.clone()));
    let (lines, _) = run_session(
        &mut server,
        &[
            r#"{"op":"count","relation":"path","id":1}"#,
            r#"{"op":"shutdown","id":2}"#,
        ],
    );
    assert!(lines[0].contains("\"count\":3"), "{}", lines[0]);
    let hash = server.engine().fact_stream_hash();
    let cache_file = dir.join(format!("{hash:016x}.whalecache"));
    assert!(cache_file.exists(), "clean shutdown persists the cache");

    // Second server over the same facts: warm start, no cold solve needed.
    let warm = Server::new(engine_with_chain(), Some(dir.clone()));
    assert!(warm.engine().is_solved(), "cache entry should warm-start");
    let mut warm = warm;
    let (lines, _) = run_session(&mut warm, &[r#"{"op":"count","relation":"path","id":1}"#]);
    assert!(lines[0].contains("\"count\":3"), "{}", lines[0]);

    // Different facts -> different key -> cold start, not a wrong reuse.
    let mut other = engine_with_chain();
    other.add_fact("edge", &[5, 6]).unwrap();
    assert_ne!(other.fact_stream_hash(), hash);
    let cold = Server::new(other, Some(dir.clone()));
    assert!(!cold.engine().is_solved(), "no entry for these facts");

    // Corrupt the entry: the server logs, falls back to a cold solve,
    // and still answers correctly.
    for garbage in [
        "",
        "whalecache 2 1\nrelation path 0\nbdd 2 garbage",
        "\0\0\0\0",
    ] {
        std::fs::write(&cache_file, garbage).unwrap();
        let mut server = Server::new(engine_with_chain(), Some(dir.clone()));
        assert!(
            !server.engine().is_solved(),
            "corrupt cache must not warm-start"
        );
        let (lines, _) = run_session(&mut server, &[r#"{"op":"count","relation":"path","id":1}"#]);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"count\":3"), "{}", lines[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_request_is_rejected_in_band() {
    let mut server = Server::new(engine_with_chain(), None);
    // One line just over the 64 MiB cap, then a live request: the big one
    // is drained and refused without buffering it all, the next works.
    let mut input = vec![b'x'; 64 * 1024 * 1024 + 16];
    input.push(b'\n');
    input.extend_from_slice(br#"{"op":"ping","id":1}"#);
    input.push(b'\n');
    let mut output = Vec::new();
    server
        .serve_connection(Cursor::new(input), &mut output)
        .unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
    assert!(lines[0].contains("size limit"), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
}

/// The sorted `tuples` of an `"ok":true` response line.
fn response_tuples(line: &str) -> Vec<Vec<u64>> {
    let resp = parse_json(line).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}");
    let mut tuples: Vec<Vec<u64>> = resp
        .get("tuples")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|t| {
            t.as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap())
                .collect()
        })
        .collect();
    tuples.sort_unstable();
    tuples
}

#[test]
fn query_reads_the_solved_relations() {
    // A cycle 0 → 1 → 2 → 0 plus a tail 2 → 3: `path(x, x)` is the cycle.
    let mut e = Engine::new(Program::parse(TC).unwrap()).unwrap();
    e.add_facts("edge", [[0, 1], [1, 2], [2, 0], [2, 3]])
        .unwrap();
    let mut server = Server::new(e, None);
    let (lines, _) = run_session(
        &mut server,
        &[
            r#"{"op":"query","atom":"path(x, x)","id":1}"#,
            r#"{"op":"select","relation":"path","id":2}"#,
            r#"{"op":"query","atom":"path(x, 3)","id":3}"#,
            r#"{"op":"select","relation":"path","fixed":[[1,3]],"id":4}"#,
            r#"{"op":"add_facts","relation":"edge","tuples":[[3,4]],"id":5}"#,
            r#"{"op":"query","atom":"path(1, y)","id":6}"#,
            r#"{"op":"select","relation":"path","fixed":[[0,1]],"id":7}"#,
        ],
    );
    assert_eq!(lines.len(), 7);
    // A repeated variable keeps the diagonal of the solved relation.
    let diagonal: Vec<Vec<u64>> = response_tuples(&lines[1])
        .into_iter()
        .filter(|t| t[0] == t[1])
        .collect();
    assert_eq!(response_tuples(&lines[0]), diagonal);
    assert_eq!(diagonal, [[0, 0], [1, 1], [2, 2]]);
    // A bound second column.
    assert_eq!(response_tuples(&lines[2]), response_tuples(&lines[3]));
    assert_eq!(response_tuples(&lines[2]), [[0, 3], [1, 3], [2, 3]]);
    // A query sent while a delta is pending reads the folded solution.
    assert!(lines[4].contains("\"pending\":true"), "{}", lines[4]);
    assert_eq!(response_tuples(&lines[5]), response_tuples(&lines[6]));
    assert!(
        response_tuples(&lines[5]).contains(&vec![1, 4]),
        "{}",
        lines[5]
    );
    // The response is the relation and its tuples, nothing about a solve.
    for line in [&lines[0], &lines[2], &lines[5]] {
        assert!(line.contains("\"relation\":\"path\""), "{line}");
        assert!(!line.contains("rule_applications"), "{line}");
    }
}

#[test]
fn bad_query_atoms_are_rejected_in_band() {
    let mut server = Server::new(engine_with_chain(), None);
    let requests = [
        r#"{"op":"query","atom":"nope(x)","id":1}"#,
        r#"{"op":"query","atom":"path(x)","id":2}"#,
        r#"{"op":"query","atom":"path(99, y)","id":3}"#,
        r#"{"op":"query","atom":"path(x, y) :- edge(x, y).","id":4}"#,
        r#"{"op":"query","atom":"path(0, y)","id":5}"#,
    ];
    let (lines, shutdown) = run_session(&mut server, &requests);
    assert!(!shutdown);
    assert_eq!(lines.len(), requests.len());
    for (ix, line) in lines.iter().take(4).enumerate() {
        assert!(line.contains("\"ok\":false"), "line {ix}: {line}");
        assert!(line.contains(&format!("\"id\":{}", ix + 1)), "{line}");
    }
    assert!(lines[0].contains("nope"), "{}", lines[0]);
    assert!(lines[1].contains("2 attributes"), "{}", lines[1]);
    assert!(lines[2].contains("99"), "{}", lines[2]);
    // The connection keeps serving.
    assert_eq!(response_tuples(&lines[4]), [[0, 1], [0, 2]]);
}

/// Swaps the whole `relation <name> <digest>` lines of relations `a` and
/// `b` in a cache file, leaving the dumps where they are.
fn swap_relation_headers(cache_file: &std::path::Path, a: &str, b: &str) {
    let text = std::fs::read_to_string(cache_file).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let find = |name: &str| {
        let prefix = format!("relation {name} ");
        lines.iter().position(|l| l.starts_with(&prefix)).unwrap()
    };
    let (ia, ib) = (find(a), find(b));
    lines.swap(ia, ib);
    std::fs::write(cache_file, lines.join("\n") + "\n").unwrap();
}

/// A cache entry whose dumps are swapped between relations of different
/// signatures (the two-column `path` dump filed under the one-column
/// `reach`) is refused as a whole: the server logs it, stays cold, and
/// its first `select` equals a cold solve's answer.
#[test]
fn swapped_cache_dumps_are_refused_and_solved_cold() {
    const REACH: &str = "\
DOMAINS
V 32
RELATIONS
input edge (s : V, d : V)
output path (s : V, d : V)
output reach (d : V)
RULES
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
reach(y) :- path(0,y).
";
    let engine = || {
        let mut e = Engine::new(Program::parse(REACH).unwrap()).unwrap();
        for (s, d) in [(0, 1), (1, 2), (2, 7)] {
            e.add_fact("edge", &[s, d]).unwrap();
        }
        e
    };
    let dir = std::env::temp_dir().join(format!("whale_serve_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut first = Server::new(engine(), Some(dir.clone()));
    run_session(
        &mut first,
        &[r#"{"op":"solve","id":1}"#, r#"{"op":"shutdown","id":2}"#],
    );
    let cache_file = dir.join(format!(
        "{:016x}.whalecache",
        first.engine().fact_stream_hash()
    ));
    swap_relation_headers(&cache_file, "path", "reach");

    let select = r#"{"op":"select","relation":"reach","id":1}"#;
    let mut refused = Server::new(engine(), Some(dir.clone()));
    assert!(
        !refused.engine().is_solved(),
        "swapped dumps must not warm-start"
    );
    let (lines, _) = run_session(&mut refused, &[select]);
    let (cold, _) = run_session(&mut Server::new(engine(), None), &[select]);
    assert_eq!(response_tuples(&lines[0]), [[1], [2], [7]]);
    assert_eq!(lines, cold);
    std::fs::remove_dir_all(&dir).ok();
}

/// A real `whale serve --ci` cache whose `vP` and `vPfilter` headers are
/// swapped: both relations have the signature `(V, H)`, so only the
/// per-relation digest tells the dumps apart. The server refuses the
/// cache and its `select vP` equals a cold server's.
#[test]
fn swapped_same_signature_headers_are_refused() {
    use whale::core::{prepare_context_insensitive, CallGraphMode};
    use whale::ir::{parse_program, Facts};
    const APP: &str = "\
class A extends Object {
  entry static method main() {
    var a: A;
    a = new A;
  }
}
";
    let engine = || {
        let facts = Facts::extract(&parse_program(APP).unwrap());
        prepare_context_insensitive(&facts, true, CallGraphMode::Cha, None).unwrap()
    };
    let dir = std::env::temp_dir().join(format!("whale_serve_vp_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut first = Server::new(engine(), Some(dir.clone()));
    run_session(
        &mut first,
        &[r#"{"op":"solve","id":1}"#, r#"{"op":"shutdown","id":2}"#],
    );
    let cache_file = dir.join(format!(
        "{:016x}.whalecache",
        first.engine().fact_stream_hash()
    ));
    swap_relation_headers(&cache_file, "vP", "vPfilter");

    let select = r#"{"op":"select","relation":"vP","id":1}"#;
    let mut refused = Server::new(engine(), Some(dir.clone()));
    assert!(
        !refused.engine().is_solved(),
        "swapped same-signature dumps must not warm-start"
    );
    let (lines, _) = run_session(&mut refused, &[select]);
    let (cold, _) = run_session(&mut Server::new(engine(), None), &[select]);
    assert_eq!(response_tuples(&lines[0]).len(), 1, "{}", lines[0]);
    assert_eq!(lines, cold);
    std::fs::remove_dir_all(&dir).ok();
}
