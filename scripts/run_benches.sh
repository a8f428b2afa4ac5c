#!/usr/bin/env bash
# Run every benchmark binary and leave a machine-readable BENCH_<name>.json
# per bench in $VUV_BENCH_DIR (default: the working directory). Each JSON
# gets a top-level "wall_seconds" field recording the bench's wall time,
# and the per-bench wall times are aggregated into one
# BENCH_wall_summary.json so the host-perf trajectory is a single artifact.
# The summary also carries each bench's summed per-cause stall cycles
# (raw / fu_conflict / mem_latency, from the stalls.* metrics the Sweep
# layer records) and the path of its METRICS_<name>.json host-metrics
# snapshot (written by BenchJson from the shared Runner's registry).
# Exits non-zero if any bench binary fails or fails to produce its JSON.
#
# Usage: run_benches.sh [bench_target...]
#   With no arguments, runs every bench_* executable found in the working
#   directory. Normally invoked via `cmake --build build --target bench`,
#   which passes the configured target list and sets VUV_BENCH_DIR.
set -euo pipefail

out_dir="${VUV_BENCH_DIR:-$PWD}"
benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
  for b in bench_*; do
    [ -f "$b" ] && [ -x "$b" ] && benches+=("$b")
  done
fi
if [ ${#benches[@]} -eq 0 ]; then
  echo "run_benches.sh: no bench_* executables found in $PWD" >&2
  exit 1
fi

# Nanosecond timestamp; BSD date has no %N (it echoes a literal 'N'), so
# fall back to whole seconds there.
now_ns() {
  local t
  t=$(date +%s%N)
  case "$t" in
    *[!0-9]*) echo "$(date +%s)000000000" ;;
    *) echo "$t" ;;
  esac
}

# Append a top-level "wall_seconds" field to a BENCH_*.json. All our JSON
# writers (BenchJson and google-benchmark) end the file with a bare "}"
# line; skip silently if the shape ever changes rather than corrupt it.
add_wall_seconds() {
  local json="$1" wall="$2" tmp
  [ -s "$json" ] || return 0
  [ "$(tail -n 1 "$json")" = "}" ] || return 0
  tmp="$json.tmp"
  sed '$d' "$json" > "$tmp"
  printf '  ,"wall_seconds": %s\n}\n' "$wall" >> "$tmp"
  mv "$tmp" "$json"
}

# Sum every "stalls.<cause>.<cell>" metric value in a BENCH json.
sum_stalls() {
  local json="$1" cause="$2"
  awk -v pat="\"stalls\\\\.$cause\\\\." '
    $0 ~ pat { v = $NF; gsub(/,/, "", v); s += v }
    END { printf "%d", s }
  ' "$json"
}

status=0
summary_names=()
summary_walls=()
stall_names=()
stall_raw=()
stall_fu=()
stall_mem=()
metrics_names=()
metrics_paths=()
for b in "${benches[@]}"; do
  exe="./$b"
  if [ ! -x "$exe" ]; then
    exe="$(command -v "$b" || true)"
    if [ -z "$exe" ]; then
      echo "run_benches.sh: bench binary not found: $b" >&2
      status=1
      continue
    fi
  fi
  name="${b#bench_}"
  echo "==== $b ===="
  # Drop any JSON from a previous run so a crashing bench can't pass off
  # stale metrics as fresh output.
  rm -f "$out_dir/BENCH_$name.json"
  bench_ok=1
  start_ns=$(now_ns)
  if [ "$name" = "micro_components" ]; then
    # google-benchmark emits its own JSON natively.
    "$exe" --benchmark_out="$out_dir/BENCH_$name.json" \
           --benchmark_out_format=json || bench_ok=0
  else
    VUV_BENCH_DIR="$out_dir" "$exe" || bench_ok=0
  fi
  end_ns=$(now_ns)
  wall=$(awk -v s="$start_ns" -v e="$end_ns" 'BEGIN { printf "%.3f", (e - s) / 1e9 }')
  echo "---- $b: ${wall}s"
  if [ "$bench_ok" -eq 0 ]; then
    echo "run_benches.sh: $b FAILED" >&2
    status=1
  elif [ ! -s "$out_dir/BENCH_$name.json" ]; then
    echo "run_benches.sh: $b did not produce BENCH_$name.json" >&2
    status=1
  else
    add_wall_seconds "$out_dir/BENCH_$name.json" "$wall"
    summary_names+=("$name")
    summary_walls+=("$wall")
    if grep -q '"stalls\.' "$out_dir/BENCH_$name.json"; then
      stall_names+=("$name")
      stall_raw+=("$(sum_stalls "$out_dir/BENCH_$name.json" raw)")
      stall_fu+=("$(sum_stalls "$out_dir/BENCH_$name.json" fu)")
      stall_mem+=("$(sum_stalls "$out_dir/BENCH_$name.json" mem)")
    fi
    if [ -s "$out_dir/METRICS_$name.json" ]; then
      metrics_names+=("$name")
      metrics_paths+=("METRICS_$name.json")
    fi
  fi
done

# One aggregate artifact for the whole suite: per-bench wall seconds, the
# total, each bench's summed per-cause stall cycles, and the host-metrics
# snapshot paths — all in the BENCH json shape.
{
  printf '{\n  "bench": "wall_summary",\n  "wall_seconds": {'
  total=0
  for i in "${!summary_names[@]}"; do
    [ "$i" -gt 0 ] && printf ','
    printf '\n    "%s": %s' "${summary_names[$i]}" "${summary_walls[$i]}"
    total=$(awk -v t="$total" -v w="${summary_walls[$i]}" 'BEGIN { printf "%.3f", t + w }')
  done
  printf '\n  },\n  "total_wall_seconds": %s' "$total"
  printf ',\n  "stalls": {'
  for i in "${!stall_names[@]}"; do
    [ "$i" -gt 0 ] && printf ','
    printf '\n    "%s": {"raw": %s, "fu_conflict": %s, "mem_latency": %s}' \
      "${stall_names[$i]}" "${stall_raw[$i]}" "${stall_fu[$i]}" "${stall_mem[$i]}"
  done
  printf '\n  },\n  "metrics_snapshots": {'
  for i in "${!metrics_names[@]}"; do
    [ "$i" -gt 0 ] && printf ','
    printf '\n    "%s": "%s"' "${metrics_names[$i]}" "${metrics_paths[$i]}"
  done
  printf '\n  }\n}\n'
} > "$out_dir/BENCH_wall_summary.json"

echo "Bench JSON files in $out_dir:"
ls -l "$out_dir"/BENCH_*.json 2>/dev/null || true
exit $status
