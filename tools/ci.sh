#!/usr/bin/env bash
# CI gate, runnable locally or stage-by-stage from .github/workflows/ci.yml:
#
#   tools/ci.sh [stage] [jobs]        (default stage: all, jobs: nproc)
#
# Stages:
#   build  regular RelWithDebInfo build + the full ctest suite
#   tsan   -DSSUM_SANITIZE=thread build; every `parallel`-labelled test runs
#          under TSAN to catch data races the deterministic outputs mask
#   asan   -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON build; the
#          `ingestion`- and `store`-labelled tests re-run under ASan/UBSan,
#          then every fuzz harness replays its seed corpus plus a smoke
#          budget of generated inputs
#   fuzz   longer fuzz run: with clang the harnesses are real libFuzzer
#          binaries (coverage-guided, -max_total_time=$FUZZ_TOTAL_TIME,
#          crash artifacts minimized into fuzz/corpus/ for regression
#          replay); with gcc the deterministic fallback driver runs
#          $FUZZ_ITERATIONS generated inputs per target
#   cache  warm-start cache round-trip via the CLI on the asan build:
#          populate, assert the re-run recomputes nothing, corrupt a
#          container, assert a graceful miss-and-recompute
#   faults crash-consistency sweep on the asan build: the
#          `robustness`-labelled fault-injection/deadline tests plus the
#          store crash sweeps re-run under ASan/UBSan
#   serve  serving-daemon end-to-end on the asan build: start `ssum serve`
#          on an ephemeral port, round-trip `ssum query` (warm response
#          byte-identical to cold), overload -> exit 6, expired
#          --deadline-ms -> exit 5 with the daemon still healthy, clean
#          shutdown via the wire verb
#   scenarios  scenario-matrix gate on the regular build tree: every
#          quick-tier case in bench/scenarios/ runs the full annotate ->
#          matrices -> summarize pipeline under its gates (sharded
#          annotation bit-identical to serial, summaries identical across
#          threads/reruns, budget respected, coverage monotone in k), then
#          one scenario config replays end-to-end under ASan/UBSan via
#          `ssum gen`. SCENARIO_TIER overrides the tier (the nightly
#          comprehensive matrix sets SCENARIO_TIER=full)
#   all    every stage above, in that order
#
# Performance is measured by the benchmark (perfbench/README.md), not by a
# CI stage.
#
# The toolchain comes from $CC/$CXX (default gcc). Non-default toolchains
# get their own build trees (build-clang++, build-clang++-tsan, ...) so a
# gcc and a clang run never share object files. ccache is picked up
# automatically when installed.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
STAGE="${1:-all}"
JOBS="${2:-$(nproc)}"
FUZZ_ITERATIONS="${FUZZ_ITERATIONS:-20000}"
FUZZ_SEED="${FUZZ_SEED:-7}"
FUZZ_TOTAL_TIME="${FUZZ_TOTAL_TIME:-30}"   # seconds per libFuzzer target
FUZZ_TARGETS=(fuzz_xml fuzz_ddl fuzz_csv fuzz_summary fuzz_store
              fuzz_serve_frame)

# Per-toolchain build trees. Plain gcc keeps the historical names (build,
# build-tsan, build-asan) so local incremental builds stay warm.
TOOLCHAIN="$(basename "${CXX:-g++}")"
if [ "$TOOLCHAIN" = "g++" ]; then
  BUILD="$ROOT/build"
  BUILD_TSAN="$ROOT/build-tsan"
  BUILD_ASAN="$ROOT/build-asan"
else
  BUILD="$ROOT/build-$TOOLCHAIN"
  BUILD_TSAN="$ROOT/build-$TOOLCHAIN-tsan"
  BUILD_ASAN="$ROOT/build-$TOOLCHAIN-asan"
fi

CMAKE_FLAGS=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_FLAGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

configure() {  # configure <build-dir> [extra cmake args...]
  local dir="$1"; shift
  cmake -B "$dir" -S "$ROOT" "${CMAKE_FLAGS[@]}" "$@" >/dev/null
}

# Build exactly the test binaries ctest would run for a label expression,
# then run them. Labels live in tests/CMakeLists.txt; stages never hard-code
# test names.
build_and_run_label() {  # build_and_run_label <build-dir> <label-regex>
  local dir="$1" label="$2"
  local tests
  mapfile -t tests < <(ctest --test-dir "$dir" -N -L "$label" 2>/dev/null |
                       sed -n 's/^ *Test *#[0-9]*: //p')
  if [ "${#tests[@]}" -eq 0 ]; then
    echo "FAIL: no tests match label '$label'"; exit 1
  fi
  cmake --build "$dir" --target "${tests[@]}" -j "$JOBS"
  ctest --test-dir "$dir" -L "$label" --output-on-failure
}

uses_libfuzzer() {  # uses_libfuzzer <build-dir>
  grep -q "CMAKE_CXX_COMPILER:.*clang" "$1/CMakeCache.txt" 2>/dev/null
}

stage_build() {
  echo "== [$TOOLCHAIN] build + full test suite =="
  configure "$BUILD"
  cmake --build "$BUILD" -j "$JOBS"
  ctest --test-dir "$BUILD" --output-on-failure
}

stage_tsan() {
  echo "== [$TOOLCHAIN] ThreadSanitizer pass (label: parallel) =="
  configure "$BUILD_TSAN" -DSSUM_SANITIZE=thread
  build_and_run_label "$BUILD_TSAN" parallel
}

stage_asan() {
  echo "== [$TOOLCHAIN] ASan/UBSan pass (labels: ingestion|store) + fuzz smoke =="
  configure "$BUILD_ASAN" -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON
  build_and_run_label "$BUILD_ASAN" 'ingestion|store'
  cmake --build "$BUILD_ASAN" --target "${FUZZ_TARGETS[@]}" -j "$JOBS"
  run_fuzz_targets smoke
}

stage_fuzz() {
  echo "== [$TOOLCHAIN] fuzz stage =="
  configure "$BUILD_ASAN" -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON
  cmake --build "$BUILD_ASAN" --target "${FUZZ_TARGETS[@]}" -j "$JOBS"
  run_fuzz_targets full
}

run_fuzz_targets() {  # run_fuzz_targets smoke|full
  local mode="$1" failed=0
  local artifacts="$ROOT/fuzz-artifacts"
  mkdir -p "$artifacts"
  for f in "${FUZZ_TARGETS[@]}"; do
    local bin="$BUILD_ASAN/fuzz/$f"
    local corpus="$ROOT/fuzz/corpus/${f#fuzz_}"
    [ "$f" = fuzz_serve_frame ] && corpus="$ROOT/fuzz/corpus/serve"
    if uses_libfuzzer "$BUILD_ASAN"; then
      # Real libFuzzer: coverage-guided from the seed corpus, fixed time
      # budget, fixed seed. Crashes land in fuzz-artifacts/ (uploaded by
      # CI); a minimized copy is checked back into the seed corpus so the
      # deterministic regression replay (test_fuzz_regression) covers it.
      local budget="$FUZZ_TOTAL_TIME"
      [ "$mode" = smoke ] && budget=$(( FUZZ_TOTAL_TIME < 10 ? FUZZ_TOTAL_TIME : 10 ))
      echo "-- $f (libFuzzer, ${budget}s, seed $FUZZ_SEED)"
      if ! "$bin" "$corpus" -max_total_time="$budget" -seed="$FUZZ_SEED" \
           -artifact_prefix="$artifacts/$f-" -print_final_stats=0; then
        failed=1
        for crash in "$artifacts/$f-"*; do
          [ -e "$crash" ] || continue
          local min="$artifacts/$f-minimized-$(basename "$crash" | tail -c 17)"
          "$bin" -minimize_crash=1 -exact_artifact_path="$min" \
                 -max_total_time=60 "$crash" >/dev/null 2>&1 || true
          if [ -s "$min" ]; then
            cp "$min" "$corpus/crash-$(basename "$min" | tail -c 17)"
            echo "   minimized crash checked into $corpus/"
          fi
        done
      fi
    else
      # gcc fallback: the deterministic generated-input driver — same seed,
      # same inputs, so any failure reproduces anywhere.
      local iters="$FUZZ_ITERATIONS"
      [ "$mode" = smoke ] && iters=$(( FUZZ_ITERATIONS < 20000 ? FUZZ_ITERATIONS : 20000 ))
      echo "-- $f (fallback driver, $iters iterations, seed $FUZZ_SEED)"
      "$bin" "$corpus" --iterations "$iters" --seed "$FUZZ_SEED" || failed=1
    fi
  done
  [ "$failed" -eq 0 ] || { echo "FAIL: fuzzing found crashes (see $artifacts)"; exit 1; }
}

stage_cache() {
  echo "== [$TOOLCHAIN] warm-start cache round-trip + corruption stage (ASan/UBSan) =="
  configure "$BUILD_ASAN" -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON
  cmake --build "$BUILD_ASAN" --target ssum-cli -j "$JOBS"
  # Populate the cache, prove the second identical invocation recomputes
  # nothing (installs frozen, hits up), then corrupt a container and prove
  # the failure is a graceful miss-and-recompute, never an error.
  local CLI="$BUILD_ASAN/ssum"
  local CACHE_WORK
  CACHE_WORK="$(mktemp -d)"
  trap 'rm -rf "$CACHE_WORK"' RETURN
  cat > "$CACHE_WORK/in.xml" <<'XML'
<db>
  <persons><person id="p1"/><person id="p2"/><person id="p3"/></persons>
  <auctions>
    <auction><bidder ref="p1"/><bidder ref="p2"/></auction>
    <auction><bidder ref="p3"/></auction>
  </auctions>
</db>
XML
  local CACHE="$CACHE_WORK/cache"
  stat_counter() { "$CLI" --cache-dir "$CACHE" cache stat | awk -v k="$1" '$1==k{print $2}'; }
  "$CLI" infer "$CACHE_WORK/in.xml" -o "$CACHE_WORK/schema.ssg" 2>/dev/null
  "$CLI" --cache-dir "$CACHE" annotate "$CACHE_WORK/schema.ssg" \
    "$CACHE_WORK/in.xml" -o "$CACHE_WORK/ann.txt" 2>/dev/null
  "$CLI" --cache-dir "$CACHE" summarize "$CACHE_WORK/schema.ssg" -k 3 \
    -a "$CACHE_WORK/ann.txt" -o "$CACHE_WORK/sum1.txt" 2>/dev/null
  local installs1 hits1 installs2 hits2
  installs1="$(stat_counter installs)"
  hits1="$(stat_counter hits)"
  "$CLI" --cache-dir "$CACHE" annotate "$CACHE_WORK/schema.ssg" \
    "$CACHE_WORK/in.xml" -o "$CACHE_WORK/ann2.txt" 2>/dev/null
  "$CLI" --cache-dir "$CACHE" summarize "$CACHE_WORK/schema.ssg" -k 3 \
    -a "$CACHE_WORK/ann.txt" -o "$CACHE_WORK/sum2.txt" 2>/dev/null
  installs2="$(stat_counter installs)"
  hits2="$(stat_counter hits)"
  cmp "$CACHE_WORK/ann.txt" "$CACHE_WORK/ann2.txt"
  cmp "$CACHE_WORK/sum1.txt" "$CACHE_WORK/sum2.txt"
  [ "$installs2" -eq "$installs1" ] || {
    echo "FAIL: warm re-run installed artifacts ($installs1 -> $installs2)"; exit 1; }
  [ "$hits2" -gt "$hits1" ] || {
    echo "FAIL: warm re-run did not hit the cache ($hits1 -> $hits2)"; exit 1; }
  echo "-- warm re-run recomputed nothing (installs $installs2, hits $hits2)"

  # Corrupt the summary container's magic and require: verify exits
  # non-zero, the next summarize silently recomputes (exit 0, identical
  # output, healed container), and verify is clean again.
  local summary_file
  summary_file="$(ls "$CACHE"/summary-*.ssb)"
  printf '\xff' | dd of="$summary_file" bs=1 seek=3 conv=notrunc 2>/dev/null
  if "$CLI" --cache-dir "$CACHE" cache verify >/dev/null 2>&1; then
    echo "FAIL: cache verify missed the corrupted container"; exit 1
  fi
  "$CLI" --cache-dir "$CACHE" summarize "$CACHE_WORK/schema.ssg" -k 3 \
    -a "$CACHE_WORK/ann.txt" -o "$CACHE_WORK/sum3.txt" 2>/dev/null
  cmp "$CACHE_WORK/sum1.txt" "$CACHE_WORK/sum3.txt"
  "$CLI" --cache-dir "$CACHE" cache verify >/dev/null
  echo "-- corruption classified, recomputed, and healed"
}

stage_faults() {
  echo "== [$TOOLCHAIN] fault-injection crash sweep (labels: robustness|store, ASan/UBSan) =="
  configure "$BUILD_ASAN" -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON
  build_and_run_label "$BUILD_ASAN" 'robustness|store'
}

stage_serve() {
  echo "== [$TOOLCHAIN] serving-daemon end-to-end (ASan/UBSan) =="
  configure "$BUILD_ASAN" -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON
  cmake --build "$BUILD_ASAN" --target ssum-cli -j "$JOBS"
  local CLI="$BUILD_ASAN/ssum"
  local WORK
  WORK="$(mktemp -d)"
  local SERVER_PID=""
  # shellcheck disable=SC2317  # invoked via trap
  serve_cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
    [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
  }
  trap serve_cleanup RETURN

  # Tight capacity (1 worker, empty queue) so one stalled request provably
  # trips admission control.
  "$CLI" --cache-dir "$WORK/cache" serve --listen 127.0.0.1:0 \
    --workers 1 --queue 0 --port-file "$WORK/port" \
    2>"$WORK/server.log" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "FAIL: server died during startup"; cat "$WORK/server.log"; exit 1; }
    sleep 0.1
  done
  [ -s "$WORK/port" ] || { echo "FAIL: server never wrote its port"; exit 1; }
  local ADDR="127.0.0.1:$(cat "$WORK/port")"

  # Round trip: a cold summarize and a warm re-request must answer with
  # byte-identical payloads.
  "$CLI" query --connect "$ADDR" health >/dev/null
  "$CLI" query --connect "$ADDR" summarize xmark -k 3 > "$WORK/cold.txt"
  "$CLI" query --connect "$ADDR" summarize xmark -k 3 > "$WORK/warm.txt"
  cmp "$WORK/cold.txt" "$WORK/warm.txt"
  [ -s "$WORK/cold.txt" ] || { echo "FAIL: empty summarize payload"; exit 1; }
  echo "-- warm response byte-identical to cold"

  # Overload: while a staller holds the only worker, a probe must be shed
  # with kUnavailable (exit 6) — not hang, not a dropped connection.
  "$CLI" query --connect "$ADDR" health --stall-ms 3000 >/dev/null &
  local STALLER=$!
  sleep 0.5
  local rc=0
  "$CLI" query --connect "$ADDR" health >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 6 ] || { echo "FAIL: overload probe exited $rc, want 6"; exit 1; }
  wait "$STALLER" || { echo "FAIL: stalled request did not complete"; exit 1; }
  echo "-- overload shed with exit 6, staller still served"

  # Deadline: an already-expired budget is a wire-level deadline error
  # (exit 5), and the daemon keeps serving afterwards.
  rc=0
  "$CLI" query --connect "$ADDR" summarize tpch -k 3 --deadline-ms 0 \
    >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 5 ] || { echo "FAIL: expired deadline exited $rc, want 5"; exit 1; }
  "$CLI" query --connect "$ADDR" health >/dev/null
  echo "-- expired deadline is exit 5, server still healthy"

  # Clean shutdown through the wire verb.
  "$CLI" query --connect "$ADDR" shutdown >/dev/null
  wait "$SERVER_PID" || { echo "FAIL: server exited non-zero"; exit 1; }
  SERVER_PID=""
  echo "-- wire shutdown joined the daemon cleanly"
}

stage_scenarios() {
  # Gate half: the optimized regular tree (the determinism gates are
  # identical in every build type). Replay half: one config end-to-end
  # under ASan/UBSan so the generator itself — not just its outputs — runs
  # sanitized in every PR.
  local tier="${SCENARIO_TIER:-quick}"
  echo "== [$TOOLCHAIN] scenario-matrix gates (tier $tier) + ASan replay =="
  configure "$BUILD"
  cmake --build "$BUILD" --target scenario_matrix -j "$JOBS"
  "$BUILD/bench/scenario_matrix" --tier "$tier"

  configure "$BUILD_ASAN" -DSSUM_SANITIZE=address,undefined -DSSUM_FUZZ=ON
  cmake --build "$BUILD_ASAN" --target ssum-cli -j "$JOBS"
  local WORK
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' RETURN
  "$BUILD_ASAN/ssum" gen --config "$ROOT/bench/scenarios/quick.scn" \
    --out-dir "$WORK/out" --xml "$WORK/quick.xml"
  for artifact in schema.ssg annotations.txt workload.txt spec.scn; do
    [ -s "$WORK/out/$artifact" ] || {
      echo "FAIL: ssum gen did not write $artifact"; exit 1; }
  done
  [ -s "$WORK/quick.xml" ] || { echo "FAIL: ssum gen wrote no XML"; exit 1; }
  echo "-- scenario replay under ASan produced all artifacts"
}

case "$STAGE" in
  build) stage_build ;;
  tsan)  stage_tsan ;;
  asan)  stage_asan ;;
  fuzz)  stage_fuzz ;;
  cache) stage_cache ;;
  faults) stage_faults ;;
  serve) stage_serve ;;
  scenarios) stage_scenarios ;;
  all)
    stage_build
    echo
    stage_tsan
    echo
    stage_asan
    echo
    stage_cache
    echo
    stage_faults
    echo
    stage_serve
    echo
    stage_scenarios
    ;;
  *)
    echo "usage: tools/ci.sh [build|tsan|asan|fuzz|cache|faults|serve|scenarios|all] [jobs]" >&2
    exit 2
    ;;
esac

echo
echo "CI OK ($STAGE)"
