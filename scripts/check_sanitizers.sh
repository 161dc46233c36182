#!/usr/bin/env bash
# Sanitizer gate, two build trees:
#  - AddressSanitizer + UndefinedBehaviorSanitizer
#    (-DESHARP_SANITIZE=address,undefined) over the full test suite. Both
#    halt on their first report, so an out-of-bounds read, a use-after-free
#    or undefined behaviour (a null pointer handed to memcpy, a signed
#    overflow) fails the test that reached it instead of scrolling past in
#    the log.
#  - ThreadSanitizer (-DESHARP_SANITIZE=thread) over the `serving` and `sql`
#    labels: the engine, router, ingest and debug-endpoint suites whose
#    threads share request records, caches and snapshots, and the SQL
#    engine suites whose partition workers share pre-bound expressions and
#    one join index. ctest injects tsan.supp, and a TSan report exits the
#    test non-zero. Only those suites' binaries are built in this tree.
#
# Usage: scripts/check_sanitizers.sh [asan_build_dir] [tsan_build_dir]
#        (defaults: build-asan, build-tsan)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"
TSAN_DIR="${2:-$REPO_ROOT/build-tsan}"

echo "== configure (-DESHARP_SANITIZE=address,undefined) -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DESHARP_SANITIZE=address,undefined

echo "== build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest (full suite, ASan + UBSan, halt on first report)"
export ASAN_OPTIONS=halt_on_error=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "== configure (-DESHARP_SANITIZE=thread) -> $TSAN_DIR"
cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DESHARP_SANITIZE=thread
# ctest names each test after its binary target.
TSAN_LABELS='serving|sql'
TSAN_TESTS="$(cd "$TSAN_DIR" && ctest -L "$TSAN_LABELS" -N |
  sed -n 's/^ *Test *#[0-9]*: *//p')"

echo "== build ($TSAN_LABELS-labelled tests)"
# shellcheck disable=SC2086  # one target per word
cmake --build "$TSAN_DIR" -j "$(nproc)" --target $TSAN_TESTS

echo "== ctest -L '$TSAN_LABELS' (TSan)"
(cd "$TSAN_DIR" && ctest -L "$TSAN_LABELS" --output-on-failure -j "$(nproc)")

echo "check_sanitizers: ASan + UBSan and TSan builds are clean"
