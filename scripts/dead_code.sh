#!/usr/bin/env bash
# Lists the library functions that no shipped binary links.
#
# Usage:
#   scripts/dead_code.sh [build_dir]   # default: <repo>/build-deadcode
#
# Recipe: build every bench_* and example_* (root CMake project) and
# perfbench (its own project) at -O0 with -ffunction-sections
# -fdata-sections, link with --gc-sections, then diff the out-of-line
# functions of the library archive (`nm` type T) against the symbols
# left in those binaries. -O0 keeps the compiler from inlining a caller
# away, so a function missing from every binary has no caller in any of
# them.
#
# The count is a lower bound: virtuals (kept alive by their vtables),
# inline functions and template instantiations (weak symbols) are not
# counted. Prints one demangled name per line, then the count.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-deadcode}"
JOBS="$(nproc)"

FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
if [ -z "${AWMOE_NO_CCACHE:-}" ] && command -v ccache >/dev/null 2>&1; then
  FLAGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DAWMOE_BUILD_TESTS=OFF \
  "${FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" >/dev/null
cmake -B "$BUILD_DIR/perfbench" -S "$REPO_ROOT/perfbench" \
  "${FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" >/dev/null

BINARIES=("$BUILD_DIR"/bench_* "$BUILD_DIR"/example_*
          "$BUILD_DIR/perfbench/perfbench")
for bin in "${BINARIES[@]}"; do
  [ -x "$bin" ] || { echo "dead_code.sh: missing binary $bin" >&2; exit 1; }
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

nm --defined-only "$BUILD_DIR/libawmoe_lib.a" 2>/dev/null \
  | awk '$2 == "T" { print $3 }' | sort -u > "$TMP/library"
for bin in "${BINARIES[@]}"; do
  nm --defined-only "$bin" | awk '{ print $3 }'
done | sort -u > "$TMP/linked"

comm -23 "$TMP/library" "$TMP/linked" | c++filt | sort
echo "unlinked: $(comm -23 "$TMP/library" "$TMP/linked" | wc -l) of" \
     "$(wc -l < "$TMP/library") library functions" \
     "(${#BINARIES[@]} binaries)"
