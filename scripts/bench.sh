#!/usr/bin/env bash
# Build and run the headline benchmarks, collecting machine-readable
# results as BENCH_<name>.json in the repo root (via each binary's
# --json flag). Every JSON result is validated after the run: a bench
# that exits zero but leaves a missing or unparseable JSON file fails
# the script loudly, by name — results must never be silently dropped.
#
#   scripts/bench.sh             run the default set
#   scripts/bench.sh serve       run a single bench by short name
#
# A name with its own source, bench/bench_<name>.cpp, is a paper table or
# figure binary; any other name is a layer gate, run as `bench_gates <name>`.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
benches=(table1_detection parallel_sweep obs_overhead resilience_overhead serve serve_concurrency load)
if [[ $# -gt 0 ]]; then benches=("$@"); fi

is_gate() { [[ ! -f "bench/bench_$1.cpp" ]]; }

targets=()
for b in "${benches[@]}"; do
  if is_gate "$b"; then targets+=(bench_gates); else targets+=("bench_${b}"); fi
done

cmake -B build -S .
cmake --build build -j "$jobs" --target "${targets[@]}"

# Result file for a bench. obs_overhead records into BENCH_obs.json — the
# committed trajectory artifact for the <3% observability gate — so the
# overhead numbers accrue history instead of vanishing with the build dir.
json_file() {
  case "$1" in
    obs_overhead) echo "BENCH_obs.json" ;;
    *) echo "BENCH_${1}.json" ;;
  esac
}

# Validate one BENCH_<name>.json: parseable JSON when python3 is around,
# else at least a non-empty object-shaped file.
check_json() {
  local bench="$1" file="$2"
  if [[ ! -s "$file" ]]; then
    echo "bench_${bench}: JSON result ${file} is missing or empty" >&2
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$file" \
        2>/dev/null; then
      echo "bench_${bench}: JSON result ${file} does not parse" >&2
      return 1
    fi
  elif [[ "$(head -c1 "$file")" != "{" ]]; then
    echo "bench_${bench}: JSON result ${file} does not look like JSON" >&2
    return 1
  fi
  return 0
}

status=0
for b in "${benches[@]}"; do
  out="$(json_file "$b")"
  echo "== bench_${b} =="
  cmd=("build/bench/bench_${b}")
  if is_gate "$b"; then cmd=(build/bench/bench_gates "$b"); fi
  if ! "${cmd[@]}" --json "$out"; then
    echo "bench_${b}: FAILED" >&2
    status=1
  fi
  if ! check_json "$b" "$out"; then
    status=1
    continue
  fi
  echo "wrote ${out}"
done
exit "$status"
