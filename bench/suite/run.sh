#!/usr/bin/env bash
# Builds the suite (Release, into build-suite/ at the repository root)
# and runs workloads, each in its own process.
#
#   bench/suite/run.sh [--workload=<name>|all] [--seed=N] [--seconds=S]
#                      [--trace=DIR|0|1] [--out=PATH]
#
# Every option also takes its value as the next argument (--seed 3).
# --trace=DIR writes DIR/spans.<workload>.json and prints the per-layer
# metrics; --trace 1 means DIR=build-suite/spans, --trace 0 no tracing.
# --out is the result file of a single workload, or the directory of
# result files for --workload=all; the default is build-suite/results.
# The last line of each run's output is its JSON result; build output
# goes to stderr. Exits non-zero if the build fails or any run does.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-suite"
workload=all
seed=1
seconds=20
trace=0
out=""

while [ $# -gt 0 ]; do
  case "$1" in
    --*=*) key="${1%%=*}" value="${1#*=}"; shift ;;
    --*)
      [ $# -ge 2 ] || { echo "run.sh: missing value for $1" >&2; exit 2; }
      key="$1" value="$2"; shift 2 ;;
    *) echo "run.sh: unexpected argument: $1" >&2; exit 2 ;;
  esac
  case "$key" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --out) out="$value" ;;
    *) echo "run.sh: unknown option: $key" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -le 4 ] || jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/bench/suite" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2
suite="$build/hmxp_suite"

# Reproducible set-up: the kernel blocking comes from a cache inside the
# build tree, filled once by an untimed --prepare, never from a search
# during a timed run or from the user's own cache; no calibration cache
# and no inherited pins.
unset HMXP_TUNE HMXP_FORCE_KERNEL HMXP_THREADS
export HMXP_TUNE_CACHE="$build/tuning-cache" HMXP_CALIB_CACHE=off
"$suite" --prepare

case "$trace" in
  0) trace_dir="" ;;
  1) trace_dir="$build/spans" ;;
  *) trace_dir="$trace" ;;
esac

if [ "$workload" = all ]; then
  names="$("$suite" --list)"
  out_dir="${out:-$build/results}"
else
  names="$workload"
  out_dir="$build/results"
fi

status=0
for name in $names; do
  mode=run
  [ -z "$trace_dir" ] || mode=trace
  file="$out_dir/$name-seed$seed-$mode-$(date +%s%N).json"
  [ "$workload" = all ] || [ -z "$out" ] || file="$out"
  args=(--workload "$name" --seed "$seed" --seconds "$seconds" --out "$file")
  [ -z "$trace_dir" ] || args+=(--trace-dir "$trace_dir")
  "$suite" "${args[@]}" || status=1
done
exit "$status"
