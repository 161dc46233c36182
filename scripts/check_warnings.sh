#!/usr/bin/env bash
# No-warnings gate: configures a build tree with the default options (the
# repo's -Wall -Wextra, RelWithDebInfo, SIMD and observability on, no
# sanitizer), rebuilds every target from clean, and fails on any compiler
# or linker `warning:` line. The default build prints none; this keeps it
# that way. Sanitizer trees are out of scope: under ASan+UBSan gcc 12
# prints -Wmaybe-uninitialized from inside std::variant (see CHANGES.md).
#
# Usage: scripts/check_warnings.sh [build_dir]   (default: build-warnings)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-warnings}"

echo "== configure (default options) -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESHARP_SANITIZE= -DESHARP_SIMD=ON -DESHARP_OBS_OFF=OFF

# --clean-first: an incremental build would skip up-to-date objects and
# never print their warnings.
echo "== build (every target, from clean)"
LOG="$BUILD_DIR/check_warnings.log"
set +e
cmake --build "$BUILD_DIR" --clean-first -j "$(nproc)" 2>&1 | tee "$LOG"
status=${PIPESTATUS[0]}
set -e
if [ "$status" -ne 0 ]; then
  echo "check_warnings: build failed" >&2
  exit "$status"
fi

count=$(grep -c "warning:" "$LOG" || true)
if [ "$count" -ne 0 ]; then
  echo "check_warnings: $count warning line(s):" >&2
  grep "warning:" "$LOG" >&2
  exit 1
fi
echo "check_warnings: the default build prints no warnings"
