#!/usr/bin/env bash
# Minimal CI gate: build, test, lint — fully offline (no registry access).
# Mirrors the tier-1 acceptance criteria in ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test -q =="
cargo test -q --workspace --offline

echo "== perfbench harness: build + pure tests =="
# The harness is a workspace of its own that links the public APIs of
# m3d-core, m3d-serve and m3d-obs; this is the step that compiles it.
CARGO_TARGET_DIR=target/perfbench-harness cargo test -q --offline \
  --manifest-path perfbench/harness/Cargo.toml

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo fmt --check (workspace formatting) =="
cargo fmt --all -- --check

echo "== repro --quick all (artifact smoke test) =="
rm -rf target/repro-ci
./target/release/repro --quick all --out-dir target/repro-ci
test -f target/repro-ci/manifest.json || {
  echo "ci.sh: manifest.json missing" >&2
  exit 1
}
grep -q '"errors": 0' target/repro-ci/manifest.json || {
  echo "ci.sh: manifest reports experiment errors" >&2
  exit 1
}
grep -q '"metrics"' target/repro-ci/manifest.json || {
  echo "ci.sh: manifest lacks the aggregated metrics block" >&2
  exit 1
}
# fig8 runs after fig6_fig7 and reads the same single-core simulations
# from the memo cache: every one of its batch points is a hit, and it
# simulates no cycle.
fig8_counter() {
  sed -n "s/.*\"uarch\.batch\.$1\": \([0-9]*\).*/\1/p" target/repro-ci/fig8.json
}
FIG8_POINTS=$(fig8_counter points)
[ -n "$FIG8_POINTS" ] && [ "$(fig8_counter cycles)" = 0 ] &&
  [ "$(fig8_counter cache_hits)" = "$FIG8_POINTS" ] || {
  echo "ci.sh: fig8 re-simulated points fig6_fig7 had already simulated" >&2
  grep '"uarch\.batch\.' target/repro-ci/fig8.json >&2 || true
  exit 1
}

echo "== serve smoke test (ephemeral port, loadgen, graceful shutdown) =="
# Start the query daemon on an ephemeral port, let loadgen drive one
# planner + sim + stats round trip, then check SIGTERM drains and exits 0.
SERVE_PORT_FILE=target/serve-ci.port
rm -f "$SERVE_PORT_FILE"
./target/release/serve --quick --port-file "$SERVE_PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SERVE_PORT_FILE" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "ci.sh: serve died before listening" >&2
    exit 1
  }
  sleep 0.1
done
SERVE_ADDR=$(cat "$SERVE_PORT_FILE")
[ -n "$SERVE_ADDR" ] || {
  echo "ci.sh: serve never wrote its port file" >&2
  exit 1
}
./target/release/loadgen --addr "$SERVE_ADDR" --smoke || {
  echo "ci.sh: serve smoke queries failed" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  exit 1
}
# One streamed `plan` against the same warm daemon: partial frontier lines
# must arrive before a final ok:true line with a non-empty frontier.
./target/release/loadgen --addr "$SERVE_ADDR" --plan-smoke || {
  echo "ci.sh: plan streaming smoke failed" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  exit 1
}
# A small telemetry-reporting load run against the same warm daemon: the
# summary must carry the server-side percentiles pulled from the daemon's
# `telemetry` method (rolling 60 s window), proving the windowed
# histograms are live under real traffic.
LOADGEN_OUT=$(./target/release/loadgen --addr "$SERVE_ADDR" --conns 2 --requests 10 --telemetry) || {
  echo "ci.sh: telemetry load run failed" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  exit 1
}
echo "$LOADGEN_OUT"
echo "$LOADGEN_OUT" | grep -q '"server_p99_us"' || {
  echo "ci.sh: loadgen --telemetry summary lacks server-side p99" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  exit 1
}
# High-connection smoke: 64 concurrent connections against the daemon's
# default 2 workers — connections ≫ workers, the regime the epoll event
# loop exists for. Every connection must still get every answer.
./target/release/loadgen --addr "$SERVE_ADDR" --conns 64 --requests 4 || {
  echo "ci.sh: high-connection load smoke (64 conns, 2 workers) failed" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  exit 1
}
# A request written in two pieces 0.2 s apart: the event loop stops reading
# at a short read, so the first piece is read alone and the rest is left
# to the next readiness event. Exactly one reply must come back.
SPLIT_OUT=$(
  exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
  printf '{"id":1,"method":"stats"' >&3
  sleep 0.2
  printf '}\n' >&3
  timeout 1 cat <&3 || true
)
[ "$(printf '%s\n' "$SPLIT_OUT" | grep -c '"id":1,')" = 1 ] &&
  printf '%s\n' "$SPLIT_OUT" | grep -q '^{"id":1,"ok":true,' || {
  echo "ci.sh: a request split across two writes was not answered exactly once" >&2
  printf '%s\n' "$SPLIT_OUT" | head -c 500 >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  exit 1
}
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
[ "$SERVE_RC" -eq 0 ] || {
  echo "ci.sh: serve did not shut down gracefully (exit $SERVE_RC)" >&2
  exit 1
}
rm -f "$SERVE_PORT_FILE"
# The stats method must expose every documented serve.* counter even when
# it never fired — serve.plan_aborted in particular, so dashboards can
# tell "no plans aborted" from "counter missing".
printf '{"id":1,"method":"stats"}\n' | ./target/release/serve --oneshot --quick \
  | grep -q '"serve.plan_aborted"' || {
  echo "ci.sh: stats answer lacks the serve.plan_aborted counter" >&2
  exit 1
}

echo "== deep-nesting smoke (one 240 KB line of '[' to serve --oneshot) =="
# The line fits under the 256 KiB line cap, so it reaches the JSON parser,
# whose nesting-depth cap must turn it into one structured `parse` error
# instead of a stack overflow that kills the process.
DEEP_OUT=$({ head -c 245760 /dev/zero | tr '\0' '['; echo; } \
  | ./target/release/serve --oneshot --quick) || {
  echo "ci.sh: serve --oneshot did not survive a deeply nested line" >&2
  exit 1
}
[ "$(printf '%s\n' "$DEEP_OUT" | wc -l)" -eq 1 ] || {
  echo "ci.sh: deeply nested line did not get exactly one reply line" >&2
  exit 1
}
echo "$DEEP_OUT" | grep -q '"ok":false,"error":{"kind":"parse"' || {
  echo "ci.sh: deeply nested line was not answered with a parse error: $DEEP_OUT" >&2
  exit 1
}

echo "== long-string smoke (8 lines with a 200 KB string each to serve --oneshot) =="
# The JSON parser must scan a string in time linear in its length. A
# quadratic scan spends about a second of event-loop time on each of these
# lines; a linear one answers all eight well inside the timeout. The app
# name is unknown and the point has no window, so each is `bad_request`.
LONG_APP=$(head -c 204800 /dev/zero | tr '\0' 'x')
LONG_OUT=$(for i in $(seq 1 8); do
  printf '{"id":%d,"method":"sim","params":{"app":"%s"}}\n' "$i" "$LONG_APP"
done | timeout 5 ./target/release/serve --oneshot --quick) || {
  echo "ci.sh: serve --oneshot did not answer 8 long-string lines within 5 s" >&2
  exit 1
}
[ "$(printf '%s\n' "$LONG_OUT" | wc -l)" -eq 8 ] || {
  echo "ci.sh: 8 long-string lines did not get exactly 8 reply lines" >&2
  exit 1
}
[ "$(printf '%s\n' "$LONG_OUT" | grep -c '"ok":false,"error":{"kind":"bad_request"')" -eq 8 ] || {
  echo "ci.sh: long-string lines were not all answered bad_request: $LONG_OUT" >&2
  exit 1
}

echo "== raw-byte smoke (300 KiB line, 0xFF byte, stats to serve --oneshot) =="
# --oneshot frames stdin exactly as the daemon frames a connection: a line
# over the 256 KiB cap is answered `oversized` and skipped, a byte that is
# not UTF-8 is decoded lossily instead of ending the input, and the line
# after both is still answered.
RAW_OUT=$({
  head -c 307200 /dev/zero | tr '\0' 'x'
  echo
  printf '{"id":2,"method":"sim\377"}\n'
  printf '{"id":3,"method":"stats"}\n'
} | ./target/release/serve --oneshot --quick) || {
  echo "ci.sh: serve --oneshot failed on the raw-byte stream" >&2
  exit 1
}
[ "$(printf '%s\n' "$RAW_OUT" | wc -l)" -eq 3 ] || {
  echo "ci.sh: raw-byte stream did not get exactly 3 reply lines: $RAW_OUT" >&2
  exit 1
}
printf '%s\n' "$RAW_OUT" | head -n 1 | grep -q '"kind":"oversized"' || {
  echo "ci.sh: the 300 KiB line was not answered oversized" >&2
  exit 1
}
printf '%s\n' "$RAW_OUT" | tail -n 1 | grep -q '"ok":true' || {
  echo "ci.sh: the stats line after the raw bytes was not answered ok" >&2
  exit 1
}

echo "== sharded serve smoke test (router, 2 shards, whole-tree shutdown) =="
# The router fronts two spawned shard daemons; clients see the same wire
# protocol on one ephemeral port. SIGTERM must drain the whole process
# tree: the router exits 0 and both spawned shard pids are gone.
ROUTER_PORT_FILE=target/router-ci.port
ROUTER_LOG=target/router-ci.log
rm -f "$ROUTER_PORT_FILE" "$ROUTER_LOG"
./target/release/router --quick --shards 2 --port-file "$ROUTER_PORT_FILE" 2>"$ROUTER_LOG" &
ROUTER_PID=$!
for _ in $(seq 1 100); do
  [ -s "$ROUTER_PORT_FILE" ] && break
  kill -0 "$ROUTER_PID" 2>/dev/null || {
    echo "ci.sh: router died before listening" >&2
    cat "$ROUTER_LOG" >&2
    exit 1
  }
  sleep 0.1
done
ROUTER_ADDR=$(cat "$ROUTER_PORT_FILE")
[ -n "$ROUTER_ADDR" ] || {
  echo "ci.sh: router never wrote its port file" >&2
  exit 1
}
SHARD_PIDS=$(sed -n 's/.*spawned shard [0-9]* pid \([0-9]*\) on .*/\1/p' "$ROUTER_LOG")
[ "$(echo "$SHARD_PIDS" | wc -w)" -eq 2 ] || {
  echo "ci.sh: router did not report 2 spawned shard pids" >&2
  cat "$ROUTER_LOG" >&2
  kill -9 "$ROUTER_PID" 2>/dev/null || true
  exit 1
}
./target/release/loadgen --addr "$ROUTER_ADDR" --smoke || {
  echo "ci.sh: sharded smoke queries failed" >&2
  kill -9 "$ROUTER_PID" 2>/dev/null || true
  exit 1
}
./target/release/loadgen --addr "$ROUTER_ADDR" --conns 8 --requests 6 || {
  echo "ci.sh: sharded load smoke failed" >&2
  kill -9 "$ROUTER_PID" 2>/dev/null || true
  exit 1
}
# The router's own stats must show the fan-out counters and the live
# shard topology.
ROUTER_STATS=$(exec 3<>"/dev/tcp/${ROUTER_ADDR%:*}/${ROUTER_ADDR##*:}" \
  && printf '{"id":1,"method":"stats"}\n' >&3 && IFS= read -r L <&3 && echo "$L")
echo "$ROUTER_STATS" | grep -q '"serve.shard_subrequests"' || {
  echo "ci.sh: router stats lack the serve.shard_* counters" >&2
  kill -9 "$ROUTER_PID" 2>/dev/null || true
  exit 1
}
echo "$ROUTER_STATS" | grep -q '"topology"' || {
  echo "ci.sh: router stats lack the shard topology block" >&2
  kill -9 "$ROUTER_PID" 2>/dev/null || true
  exit 1
}
# Failure paths. A router that fails must exit non-zero within 10 s and
# leave no shard daemon behind (its shards' port files carry its pid):
# once when a second router asks for the address the first still holds,
# and once per binary (`router`, and `serve --shards`) when a router
# cannot write its port file after it has bound.
expect_router_failure() {
  local bin=$1 what=$2 pid rc=0
  shift 2
  "./target/release/$bin" "$@" 2>/dev/null &
  pid=$!
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "ci.sh: $bin $what still running after 10 s" >&2
    kill -9 "$pid" 2>/dev/null || true
    pkill -9 -f "m3d-shard-$pid-" || true
    return 1
  fi
  wait "$pid" || rc=$?
  [ "$rc" -ne 0 ] || {
    echo "ci.sh: $bin $what exited 0" >&2
    return 1
  }
  if pgrep -f "m3d-shard-$pid-" >/dev/null; then
    echo "ci.sh: $bin $what left shard daemons running:" >&2
    pgrep -af "m3d-shard-$pid-" >&2
    pkill -9 -f "m3d-shard-$pid-" || true
    return 1
  fi
}
expect_router_failure router "on a busy address" --quick --shards 2 --addr "$ROUTER_ADDR" &&
  expect_router_failure router "with an unwritable port file" --quick --shards 2 \
    --port-file target/no-such-dir/router.port &&
  expect_router_failure serve "with an unwritable port file" --quick --shards 2 \
    --port-file target/no-such-dir/serve.port || {
  kill -9 "$ROUTER_PID" 2>/dev/null || true
  exit 1
}
kill -TERM "$ROUTER_PID"
ROUTER_RC=0
wait "$ROUTER_PID" || ROUTER_RC=$?
[ "$ROUTER_RC" -eq 0 ] || {
  echo "ci.sh: router did not shut down gracefully (exit $ROUTER_RC)" >&2
  exit 1
}
for pid in $SHARD_PIDS; do
  if kill -0 "$pid" 2>/dev/null; then
    echo "ci.sh: shard pid $pid survived router shutdown" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
  fi
done
rm -f "$ROUTER_PORT_FILE" "$ROUTER_LOG"

echo "== perf_baseline --check (counter-drift gate) =="
# Deterministic integers must match the committed baseline exactly: the
# per-experiment counters (solver sweeps, warm-start hits, search
# candidates, µops, batch-engine points/hits/reuses/cycles), the cycle
# probe's cycle count and the search probe's four integers. The cycle
# probe's throughput must stay above a generous fraction of the committed
# value, and the obs-overhead probe (median of 200 paired off/on thermal
# solves) must read under OBS_OVERHEAD_BUDGET_PCT (2%). Wall times per
# layer are perfbench's job; the informational serve_probe block is
# recorded by --write only. Refresh intentional changes with:
#   ./target/release/perf_baseline --write BENCH_repro.json
./target/release/perf_baseline --check BENCH_repro.json
grep -q '"uarch.batch.points"' BENCH_repro.json || {
  echo "ci.sh: BENCH_repro.json lacks the batch-engine gate counters" >&2
  exit 1
}
# --check above already fails on a cycles/sec regression beyond the budget
# (CYCLE_THROUGHPUT_BUDGET in m3d-bench); this guards the block's presence.
grep -q '"cycle_probe"' BENCH_repro.json || {
  echo "ci.sh: BENCH_repro.json lacks the cycle-loop throughput probe" >&2
  exit 1
}
grep -q '"serve_probe"' BENCH_repro.json || {
  echo "ci.sh: BENCH_repro.json lacks the serve throughput probe" >&2
  exit 1
}
# The connections-≫-workers load tier: 128 closed-loop connections on a
# 2-worker daemon, with throughput and tail latency recorded.
grep -q '"conns": 128' BENCH_repro.json || {
  echo "ci.sh: BENCH_repro.json lacks the serve_probe load tier (128 conns)" >&2
  exit 1
}
grep -q '"p99_us"' BENCH_repro.json || {
  echo "ci.sh: BENCH_repro.json load tier lacks the p99 latency" >&2
  exit 1
}
grep -q '"search_probe"' BENCH_repro.json || {
  echo "ci.sh: BENCH_repro.json lacks the design-space search probe" >&2
  exit 1
}

echo "== cargo doc --no-deps (rustdoc gate: no broken links, no missing docs) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "== ci.sh: all checks passed =="
