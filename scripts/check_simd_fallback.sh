#!/usr/bin/env bash
# Portable-path gate: configures a separate build tree with the SIMD
# kernels compiled out (-DESHARP_SIMD=OFF — scalar twins only, no
# target-attribute variants, no runtime dispatch) and runs the full test
# suite against it. Every bit-identity, snapshot and serving test must
# pass on the pure scalar path, so a machine without AVX2 — or a
# future port — can never silently rot.
#
# Usage: scripts/check_simd_fallback.sh [build_dir]   (default: build-nosimd)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-nosimd}"

echo "== configure (-DESHARP_SIMD=OFF) -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DESHARP_SIMD=OFF

echo "== build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest (full suite, scalar kernels only)"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"

echo "check_simd_fallback: scalar fallback build is clean"
