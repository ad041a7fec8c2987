#!/usr/bin/env bash
# Reproduce the full study: build, test, and run every bench.
# Usage: scripts/reproduce_all.sh [outdir]   (REPRO_FAST=1 for quick runs)
#
# Reuses build/ as configured (any generator); a fresh build/ gets Ninja
# when it is installed. Every bench runs with outdir as its working
# directory and writes outdir/REPORT_<bench>.json, and every REPORT is
# validated at the end. The wall time and peak RSS (ru_maxrss) of every
# bench and the wall time of the whole bench loop go to
# outdir/BENCH_e2e.json, with the machine's nproc and the git revision.
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

# Runs argv[2:] and writes its peak RSS in MB to argv[1]; exits with its
# status. wait4 reports the child's own ru_maxrss (KiB on Linux).
run_bench='
import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as f:
    f.write(f"{usage.ru_maxrss / 1024:.1f}\n")
sys.exit(os.waitstatus_to_exitcode(status))
'
runs=()  # "name start end rss_mb" per bench, times in seconds since the epoch
for b in "$PWD"/build/bench/*; do
  # Only the bench executables: skip CMakeFiles/ and generated files.
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "=== $name ==="
  start="$(date +%s.%N)"
  (cd "$OUT" && python3 -c "$run_bench" "$OUT/.rss_$name" \
      "$b" --report="$OUT/REPORT_$name.json") | tee "$OUT/$name.txt"
  runs+=("$name $start $(date +%s.%N) $(cat "$OUT/.rss_$name")")
  rm -f "$OUT/.rss_$name"
done
python3 - "$OUT/BENCH_e2e.json" "$(git rev-parse HEAD 2>/dev/null || echo none)" \
    "$(nproc)" "${runs[@]}" <<'PY'
import json, os, sys
path, rev, nproc, args = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
runs = [(name, float(start), float(end), float(rss))
        for name, start, end, rss in (a.split() for a in args)]
doc = {
    "git_rev": rev,
    "nproc": nproc,
    "repro_fast": os.environ.get("REPRO_FAST") == "1",
    "repro_jobs": os.environ.get("REPRO_JOBS"),
    "bench_wall_s": {name: round(end - start, 3) for name, start, end, _ in runs},
    "bench_peak_rss_mb": {name: rss for name, _, _, rss in runs},
    "total_wall_s": round(runs[-1][2] - runs[0][1], 3) if runs else 0.0,
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
python3 scripts/check_report.py "$OUT"/REPORT_*.json
echo "All outputs in $OUT/"
