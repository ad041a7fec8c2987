#!/usr/bin/env bash
# Reproduce the full study: build, test, and run every figure bench.
# Usage: scripts/reproduce_all.sh [outdir]   (REPRO_FAST=1 for quick runs)
#
# Reuses build/ as configured (any generator); a fresh build/ gets Ninja
# when it is installed. Every bench runs with outdir as its working
# directory, so the BENCH_*.json files the micro benches write land there
# and never overwrite the committed baselines at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-results}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"

if [ ! -f build/CMakeCache.txt ] && command -v ninja >/dev/null; then
  cmake -B build -S . -G Ninja
else
  cmake -B build -S .
fi
cmake --build build -j "$(nproc)"
ctest --test-dir build 2>&1 | tee "$OUT/test_output.txt"

for b in "$PWD"/build/bench/*; do
  # Only the bench executables: skip CMakeFiles/ and generated files.
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "=== $name ==="
  case "$name" in
    micro_*)
      # Micro benches write their own BENCH_*.json into the working dir.
      (cd "$OUT" && "$b") | tee "$OUT/$name.txt"
      ;;
    *)
      (cd "$OUT" && "$b" --report="$OUT/REPORT_$name.json") | tee "$OUT/$name.txt"
      ;;
  esac
done
python3 scripts/check_report.py "$OUT"/REPORT_*.json
echo "All outputs in $OUT/"
