#!/usr/bin/env bash
# One-command ThreadSanitizer pass over the parallel subsystem.
#
# Configures a dedicated build tree with -DPREFDB_SANITIZE=thread, builds
# the `parallel`-labeled test targets, and runs `ctest -L parallel`. A data
# race anywhere in the thread pool, the plug-ins' concurrent delegated
# queries, the result cache, or the catalog shows up as a TSan report and a
# failing test.
#
# Usage:  scripts/run_tsan.sh [build-dir]     (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
if [ "$#" -ge 1 ]; then shift; fi

# Configure unconditionally: a cached re-configure is cheap, and a tree
# configured before a test target was added would otherwise fail the
# explicit --target build below with "No rule to make target".
cmake -B "$BUILD_DIR" -S . -DPREFDB_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j --target \
  thread_pool_test parallel_equivalence_test obs_test cache_test \
  telemetry_test governor_test fault_injection_test

# halt_on_error: fail fast on the first report instead of drowning it in
# follow-on races; second_deadlock_stack: full stacks for lock inversions.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "$BUILD_DIR" -L parallel --output-on-failure "$@"
