#!/usr/bin/env bash
# Memory-safety gate: configures a separate build tree with AddressSanitizer
# and UndefinedBehaviorSanitizer (-DESHARP_SANITIZE=address,undefined) and
# runs the full test suite against it. Both sanitizers halt on their first
# report, so an out-of-bounds read, a use-after-free or undefined behaviour
# (a null pointer handed to memcpy, a signed overflow) fails the test that
# reached it instead of scrolling past in the log.
#
# Usage: scripts/check_sanitizers.sh [build_dir]   (default: build-asan)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"

echo "== configure (-DESHARP_SANITIZE=address,undefined) -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DESHARP_SANITIZE=address,undefined

echo "== build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest (full suite, ASan + UBSan, halt on first report)"
export ASAN_OPTIONS=halt_on_error=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"

echo "check_sanitizers: ASan + UBSan build is clean"
