#!/usr/bin/env bash
# One-command verification gate — what a PR must keep green. Stages:
#
#   tier1   configure + build (-Werror=unused-result; on Clang also
#           -Werror=thread-safety) + full ctest
#   lint    prefdb_lint fixtures + clean-tree gate  (ctest -L lint)
#   tidy    clang-tidy profile (.clang-tidy); skips when not installed
#   asan    AddressSanitizer+UBSan build of the full suite  (build-asan)
#   tsan    ThreadSanitizer pass over the parallel-labeled tests
#           (scripts/run_tsan.sh, build-tsan)
#   bench   perfbench/smoke_test.py: every answer right and the exact
#           counts stable, at a tiny scale, on all three workloads
#   telemetry  boots tools/telemetry_smoke (real HTTP server on an ephemeral
#           port), curls /healthz and /metrics, checks the Prometheus
#           exposition carries the pref_* metric families, and validates the
#           operator-level Chrome trace it wrote with tools/trace_check
#   faults  resilience gate: the governor/fault-injection/cancellation tests
#           (governor_test, fault_injection_test, thread_pool_test,
#           cache_test) under BOTH the ASan+UBSan and TSan builds — unwind
#           paths must release temps and never race
#
# Every stage is on by default and individually skippable:
#
#   scripts/run_checks.sh [--no-tier1] [--no-lint] [--no-tidy]
#                         [--no-asan] [--no-tsan] [--no-bench]
#                         [--no-telemetry] [--no-faults]
#
# (--no-tsan alone reproduces the historical fast-iteration mode.)
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_TIER1=1 RUN_LINT=1 RUN_TIDY=1 RUN_ASAN=1 RUN_TSAN=1 RUN_BENCH=1
RUN_TELEMETRY=1 RUN_FAULTS=1
for arg in "$@"; do
  case "$arg" in
    --no-tier1) RUN_TIER1=0 ;;
    --no-lint)  RUN_LINT=0 ;;
    --no-tidy)  RUN_TIDY=0 ;;
    --no-asan)  RUN_ASAN=0 ;;
    --no-tsan)  RUN_TSAN=0 ;;
    --no-bench) RUN_BENCH=0 ;;
    --no-telemetry) RUN_TELEMETRY=0 ;;
    --no-faults) RUN_FAULTS=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

if [ "$RUN_TIER1" -eq 1 ]; then
  echo "== tier-1: configure + build =="
  cmake -B build -S .
  cmake --build build -j

  echo "== tier-1: ctest =="
  ctest --test-dir build --output-on-failure -j"$(nproc)"
fi

if [ "$RUN_LINT" -eq 1 ]; then
  echo "== lint: prefdb_lint gate =="
  # The lint stage needs only its own two targets; build them directly so
  # --no-tier1 runs stay cheap.
  cmake -B build -S . >/dev/null
  cmake --build build -j --target prefdb_lint lint_test
  ctest --test-dir build -L lint --output-on-failure
fi

if [ "$RUN_TIDY" -eq 1 ]; then
  echo "== tidy: clang-tidy profile =="
  scripts/run_tidy.sh build
fi

if [ "$RUN_ASAN" -eq 1 ]; then
  echo "== asan: address+undefined build + full ctest =="
  cmake -B build-asan -S . -DPREFDB_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j
  # detect_leaks also covers the temp-table and cache eviction paths.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
fi

if [ "$RUN_TSAN" -eq 1 ]; then
  echo "== tsan: parallel-labeled tests =="
  scripts/run_tsan.sh
fi

if [ "$RUN_BENCH" -eq 1 ]; then
  echo "== bench: perfbench smoke test (answers and exact counts) =="
  python3 perfbench/smoke_test.py
fi

if [ "$RUN_FAULTS" -eq 1 ]; then
  echo "== faults: governor + fault-injection tests under ASan and TSan =="
  # The resilience suite: every governor trip and injected fault must unwind
  # without leaks (ASan: temp tables, cache entries, partial p-relations)
  # and without races (TSan: Cancel() from another thread vs. checkpoints).
  FAULT_TESTS='^(governor_test|fault_injection_test|thread_pool_test|cache_test)$'
  # Configure unconditionally: a cached re-configure is cheap and a stale
  # tree would otherwise not know newly added test targets.
  cmake -B build-asan -S . -DPREFDB_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-asan -j --target \
    governor_test fault_injection_test thread_pool_test cache_test
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
    ctest --test-dir build-asan -R "$FAULT_TESTS" --output-on-failure

  cmake -B build-tsan -S . -DPREFDB_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j --target \
    governor_test fault_injection_test thread_pool_test cache_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
    ctest --test-dir build-tsan -R "$FAULT_TESTS" --output-on-failure
fi

if [ "$RUN_TELEMETRY" -eq 1 ]; then
  echo "== telemetry: live /metrics scrape + Chrome-trace gate =="
  if ! command -v curl >/dev/null 2>&1; then
    echo "curl not installed; skipping telemetry stage"
  else
    cmake -B build -S . >/dev/null
    cmake --build build -j --target telemetry_smoke trace_check
    TELEMETRY_TMP="$(mktemp -d)"
    cleanup_telemetry() {
      [ -n "${HOLD_PID:-}" ] && kill "$HOLD_PID" 2>/dev/null
      [ -n "${SMOKE_PID:-}" ] && wait "$SMOKE_PID" 2>/dev/null
      rm -rf "$TELEMETRY_TMP"
    }
    trap cleanup_telemetry EXIT
    # telemetry_smoke serves until stdin reaches EOF: the fifo writer keeps
    # the pipe open while we scrape, and killing it shuts the server down.
    mkfifo "$TELEMETRY_TMP/hold"
    sleep 120 > "$TELEMETRY_TMP/hold" &
    HOLD_PID=$!
    build/tools/telemetry_smoke/telemetry_smoke \
      --trace-out="$TELEMETRY_TMP/trace.json" \
      < "$TELEMETRY_TMP/hold" > "$TELEMETRY_TMP/smoke.out" &
    SMOKE_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
      PORT="$(sed -n 's/^PORT=//p' "$TELEMETRY_TMP/smoke.out" | head -n1)"
      [ -n "$PORT" ] && break
      if ! kill -0 "$SMOKE_PID" 2>/dev/null; then
        echo "telemetry gate: smoke tool died before publishing its port" >&2
        cat "$TELEMETRY_TMP/smoke.out" >&2
        exit 1
      fi
      sleep 0.1
    done
    if [ -z "$PORT" ]; then
      echo "telemetry gate: no PORT= line from telemetry_smoke" >&2
      exit 1
    fi

    curl -fsS "http://127.0.0.1:$PORT/healthz" | grep -qx "ok" || {
      echo "telemetry gate: /healthz did not answer ok" >&2; exit 1; }
    curl -fsS "http://127.0.0.1:$PORT/metrics" > "$TELEMETRY_TMP/metrics"
    # The exposition must carry the counter families the smoke workload
    # touches plus the scrape-time gauges (src/obs/metric_names.h).
    for needle in '# TYPE pref_cache_hits counter' \
                  '# TYPE pref_native_scan_rows counter' \
                  '# TYPE pref_pool_queue_depth gauge' \
                  '# TYPE pref_querylog_size gauge'; do
      if ! grep -qF -- "$needle" "$TELEMETRY_TMP/metrics"; then
        echo "telemetry gate: '$needle' missing from /metrics" >&2
        exit 1
      fi
    done
    curl -fsS "http://127.0.0.1:$PORT/queries" | grep -qF '"records"' || {
      echo "telemetry gate: /queries missing records array" >&2; exit 1; }

    # The EXPLAIN ANALYZE trace the smoke wrote must be a valid
    # Chrome trace-event document (independent JSON parser, no prefdb code).
    build/tools/trace_check/trace_check "$TELEMETRY_TMP/trace.json"

    kill "$HOLD_PID" 2>/dev/null || true
    wait "$SMOKE_PID" 2>/dev/null || true
    HOLD_PID="" SMOKE_PID=""
    trap - EXIT
    rm -rf "$TELEMETRY_TMP"
  fi
fi

echo "All checks passed."
