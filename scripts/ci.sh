#!/usr/bin/env bash
# Tier-1 verify, hermetically: build + full workspace test suite with the
# network off. Run from anywhere; operates on the repo this script lives in.
#
# The workspace has zero external dependencies (see DESIGN.md, "Hermetic
# builds & determinism"), so --offline must always succeed; if it does not,
# a crate dependency has leaked in and this script is the tripwire.
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --workspace --offline
# The benchmark is its own workspace with path dependencies on the repo
# crates, so the workspace build above does not cover it: build it here so
# a kernel API change that breaks it fails the verify.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# Its self-check: two traced runs of each workload on one seed must report
# the same deterministic counters (every datalog count, every kernel cache
# lookup count), the identity a kernel change that claims "no counter
# moved" rests on.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --workspace --offline

# Lint gate: warnings are errors across every target.
cargo clippy --workspace --all-targets --offline -- -D warnings

# Formatting gate: enforced when rustfmt is installed, skipped otherwise so
# minimal toolchains can still run the tier-1 verify.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "ci.sh: rustfmt not installed, skipping cargo fmt --check" >&2
fi

# Doc gate: rustdoc must be warnings-clean (broken intra-doc links, bad
# code fences) across the workspace.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Smoke-bench: a short bdd_ops run (JSON lines, including the per-cache
# hit/miss/eviction counters) appended nowhere — it overwrites
# results/bench_smoke.jsonl so the perf trajectory has a per-commit
# baseline. 3 iterations keep it fast; real measurements use the default
# counts.
mkdir -p results
TESTKIT_BENCH_ITERS=3 TESTKIT_BENCH_WARMUP=1 \
    ./target/release/bdd_ops > results/bench_smoke.jsonl
# One race-detector record (tiny config) appended to the same file.
./target/release/race_probe >> results/bench_smoke.jsonl
# One taint-engine record (tiny config) appended likewise.
./target/release/taint_probe >> results/bench_smoke.jsonl
# Two reordering records (kernel sift rescue + engine-level reorder on the
# tiny config) appended likewise.
./target/release/reorder_probe >> results/bench_smoke.jsonl
# Two op-cache records (relation memo on vs off at layers 9, same fixed
# kernel-cache sizing) appended likewise. --check-floor is the regression
# gate: the appex hit rate of the memo configuration must not fall below
# the committed floor (measured 0.091 at layers 9; see EXPERIMENTS.md).
./target/release/cache_probe 9 --check-floor 0.085 >> results/bench_smoke.jsonl
# One query record (tiny config) appended likewise: `solve_query` on the
# single-variable points-to shape, asked of a cold engine and then of the
# solved one. The probe asserts the cold answer equals a full solve's
# select, and that the repeat on the solved engine applies no rule,
# answers byte-identically and leaves the engine's `vPC` unchanged — a
# query correctness and determinism gate.
./target/release/query_probe >> results/bench_smoke.jsonl
# One resident-engine record (tiny config) appended likewise: cold solve
# vs io-v2 warm start vs incremental delta re-solve. The probe asserts
# the warm-started engine answers identically without solving and that
# the incremental path applies strictly fewer rules than the cold solve
# while matching a from-scratch solve byte for byte — the `whale serve`
# performance contract.
./target/release/serve_probe >> results/bench_smoke.jsonl
# Evaluation gate: Figures 3-6 on two rows at scale 1/64, wall times
# stripped, must match the committed counters byte for byte. A change
# that moves a count on purpose regenerates the file with the same
# pipeline and says why.
./target/release/figures --fig 3,4,5,6 --scale 1/64 --only freetts,pmd --json \
    | sed -E 's/,?"time_s":[0-9.]+//g' | diff results/figures_smoke.jsonl -
# A smoke solve through the bddbddb CLI: tuple files in, tuple files
# out, and the `--stats` stratum summary and table sizes on stderr. A
# `--naive` run of the same program must write the same `path.tuples`
# (the stratum driver's naive rounds, in release).
tc_dir=$(mktemp -d)
printf 'DOMAINS\nV 64\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n' > "$tc_dir/tc.datalog"
printf '0 1\n1 2\n2 3\n3 0\n' > "$tc_dir/edge.tuples"
./target/release/bddbddb "$tc_dir/tc.datalog" --facts "$tc_dir" --out "$tc_dir" --stats 2> "$tc_dir/stats.txt"
grep -q '^0 1$' "$tc_dir/path.tuples"
grep -q '^strata: ' "$tc_dir/stats.txt"
grep -q ', unique table: ' "$tc_dir/stats.txt"
mkdir "$tc_dir/naive"
./target/release/bddbddb "$tc_dir/tc.datalog" --facts "$tc_dir" --out "$tc_dir/naive" --naive > /dev/null 2>&1
cmp "$tc_dir/path.tuples" "$tc_dir/naive/path.tuples"
# A `.bdd` cache file over the wrong attribute domains (a two-column
# `path` dump filed as the one-column `a`, same variable count) must end
# in a typed bad-fact error (exit 1), not a decode panic (exit 101).
printf 'DOMAINS\nV 64\nRELATIONS\ninput a (x : V)\noutput b (x : V)\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\nb(x) :- a(x).\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n' > "$tc_dir/a.datalog"
mkdir "$tc_dir/bad"
./target/release/bddbddb "$tc_dir/a.datalog" --facts "$tc_dir" --out "$tc_dir/bad" --bdd-cache "$tc_dir/bad" > /dev/null 2>&1
cp "$tc_dir/bad/path.bdd" "$tc_dir/bad/a.bdd"
bad_status=0
./target/release/bddbddb "$tc_dir/a.datalog" --facts "$tc_dir" --out "$tc_dir/bad" --bdd-cache "$tc_dir/bad" > /dev/null 2> "$tc_dir/bad.txt" || bad_status=$?
[ "$bad_status" -eq 1 ]
grep -q 'bad fact' "$tc_dir/bad.txt"
rm -rf "$tc_dir"
echo "ci.sh: smoke bench written to results/bench_smoke.jsonl"

# A stdio daemon smoke through the whale CLI: a query batch, one
# malformed request (must be answered in-band, not kill the daemon), a
# fact delta, a re-query and a clean shutdown — then a second start that
# must warm-start from the cache the first run persisted.
serve_dir=$(mktemp -d)
printf 'class A extends Object {\n  entry static method main() {\n    var a: A;\n    a = new A;\n  }\n}\n' > "$serve_dir/app.whale"
printf '%s\n' \
  '{"op":"ping","id":1}' \
  '{"op":"relations","id":2}' \
  '{"op":"count","relation":"vP","id":3}' \
  '{"op":"not json' \
  '{"op":"shutdown","id":4}' \
  | ./target/release/whale serve "$serve_dir/app.whale" --ci --cache-dir "$serve_dir/cache" > "$serve_dir/out.jsonl"
[ "$(grep -c '"ok":true' "$serve_dir/out.jsonl")" -eq 4 ]
grep -q '"ok":false' "$serve_dir/out.jsonl"
grep -q '"id":4' "$serve_dir/out.jsonl"
ls "$serve_dir/cache"/*.whalecache > /dev/null
# Second session warm-starts from that cache (same facts, same key),
# then absorbs a fact delta, answers the re-query incrementally and reads
# the solved relation through `query`.
printf '%s\n' \
  '{"op":"count","relation":"vP","id":1}' \
  '{"op":"add_facts","relation":"assign0","tuples":[[0,0]],"id":2}' \
  '{"op":"count","relation":"vP","id":3}' \
  '{"op":"query","atom":"vP(v, h)","id":4}' \
  '{"op":"shutdown","id":5}' \
  | ./target/release/whale serve "$serve_dir/app.whale" --ci --cache-dir "$serve_dir/cache" \
    > "$serve_dir/out2.jsonl" 2> "$serve_dir/err.txt"
grep -q 'warm start from cache' "$serve_dir/err.txt"
[ "$(grep -c '"ok":true' "$serve_dir/out2.jsonl")" -eq 5 ]
grep -q '"op":"query".*"tuples":\[\[' "$serve_dir/out2.jsonl"
grep -q '"pending":true' "$serve_dir/out2.jsonl"
rm -rf "$serve_dir"
echo "ci.sh: serve daemon smoke OK"

# Analyzer gate over the committed fixtures: clean programs must stay
# warning-free even under --deny-warnings; every lint fixture must fail
# under --deny-warnings yet remain a valid (warnings-only) program
# without it.
for f in fixtures/datalog/clean/*.dl; do
    ./target/release/bddbddb --check --deny-warnings "$f" > /dev/null
done
for f in fixtures/datalog/lints/*.dl; do
    if ./target/release/bddbddb --check --deny-warnings "$f" > /dev/null; then
        echo "ci.sh: lint fixture $f unexpectedly passed --deny-warnings" >&2
        exit 1
    fi
    ./target/release/bddbddb --check "$f" > /dev/null
done
echo "ci.sh: analyzer fixture gate OK"

# Sanitizer pass: the kernel and engine suites again, with the BDD
# invariant sanitizer compiled in and armed (unique-table canonicity,
# level ordering, free-list/cache audits at every GC and reorder — see
# DESIGN.md §5j).
cargo test -q -p whale-bdd -p whale-datalog --features sanitize --offline
echo "ci.sh: sanitize test pass OK"

echo "ci.sh: OK"
