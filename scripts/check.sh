#!/usr/bin/env bash
# Tier-1 verification wrapper (the ROADMAP's verify line), plus opt-in
# sanitizer passes and the contract checks that must hold release to
# release: report byte-identity under observability, and the resilience
# ladder (budgets, fault injection, degraded-mode reporting).
#
#   scripts/check.sh              configure + build + full ctest + obs
#                                 identity + resilience ladder
#   scripts/check.sh --tsan       TSan build (the tsan presets) of the
#                                 thread-pool / parallel-driver / serve /
#                                 runtime-checker / load-engine tests only
#   scripts/check.sh --san        ASan+UBSan build (the asan presets): parser
#                                 fuzz, resilience, PM-substrate (pool,
#                                 event log, enumerator, fault sweep),
#                                 interpreter (arena, instrumenter, dynamic
#                                 checker), static-checker (trace walk,
#                                 rule scanner, multi-path golden) and
#                                 serve cache/wire (log records, payload
#                                 decoding) tests, then the deepmc binary
#                                 over the hostile parser corpus and the
#                                 example programs
#   scripts/check.sh --obs        observability identity pass only: every
#                                 corpus module's report must be byte-identical
#                                 with --stats/--metrics-out/--trace-out on vs
#                                 off, at --jobs 1 and --jobs 8, and the stable
#                                 metrics section identical across jobs
#   scripts/check.sh --resilience resilience pass only: budget exhaustion must
#                                 degrade (exit 66) with a valid v3 report,
#                                 every registered fault point must fail its
#                                 unit (exit 65), and unaffected units must be
#                                 byte-identical (modulo elapsed_ms) at any
#                                 --jobs
#   scripts/check.sh --all        all of the above
#
# Regenerating golden files after an intentional output change:
#   UPDATE_GOLDEN=1 ctest --test-dir build -R Golden
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

run_tier1() {
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

run_tsan() {
  # The tsan presets hold the pass's build targets (the pool, the parallel
  # driver with and without crash-state enumeration, serve, the runtime
  # checker directly and under the multi-threaded load engine, and the
  # binary the golden/CLI tests drive) and its test filter.
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan -j "$jobs"
}

run_san() {
  # The asan presets hold the pass's build targets and test filter.
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan -j "$jobs"

  # The binary itself over hostile and healthy inputs. Sanitizer aborts
  # exit with 99 so they can't be mistaken for deepmc's own exit codes
  # (0..63 warnings, 64 usage, 65 failed unit, 66 degraded).
  local bin=build-asan/src/tools/deepmc rc f
  export ASAN_OPTIONS="exitcode=99${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
  export UBSAN_OPTIONS="halt_on_error=1:exitcode=99${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"
  echo "== san: deepmc over the parser fuzz corpus =="
  for f in tests/fuzz/*.mir; do
    rc=0
    "$bin" --keep-going "$f" >/dev/null 2>&1 || rc=$?
    if [[ "$rc" -ge 67 ]]; then
      echo "san: deepmc died under sanitizers ($rc) on $f" >&2
      return 1
    fi
  done
  echo "== san: deepmc over the example programs =="
  for f in examples/mir/*.mir; do
    rc=0
    "$bin" --dynamic --crashsim "$f" >/dev/null 2>&1 || rc=$?
    if [[ "$rc" -ge 64 ]]; then
      echo "san: deepmc failed ($rc) on $f" >&2
      return 1
    fi
  done
  echo "san: OK"
}

run_obs_identity() {
  cmake -B build -S .
  cmake --build build -j "$jobs" --target deepmc deepmc-corpus
  local bin=build/src/tools/deepmc
  local genbin=build/src/tools/deepmc-corpus
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN

  # deepmc exits with the warning count (0..63); 66 means degraded-but-
  # reported, which still produces a complete report. Only 64/65 (usage,
  # failed unit) or anything above 66 is a hard failure here.
  run_deepmc() {
    local out="$1"; shift
    "$bin" "$@" > "$out" 2>/dev/null || {
      local rc=$?
      if [[ "$rc" -ge 64 && "$rc" -ne 66 ]]; then
        echo "obs-identity: deepmc failed ($rc): $*" >&2
        return 1
      fi
    }
    return 0
  }

  echo "== observability identity: full corpus, obs on vs off =="
  local module n
  while IFS= read -r module; do
    for n in 1 8; do
      local id="${module//\//_}_j${n}"
      run_deepmc "$tmp/plain_$id" --crashsim --corpus "$module" --jobs "$n"
      run_deepmc "$tmp/obs_$id" --crashsim --corpus "$module" --jobs "$n" \
        --stats --metrics-out "$tmp/m_$id.json" --trace-out "$tmp/t_$id.json"
      if ! cmp -s "$tmp/plain_$id" "$tmp/obs_$id"; then
        echo "obs-identity: report for $module differs with observability" \
             "on at --jobs $n" >&2
        return 1
      fi
      # Stable metrics section: everything before the volatile marker.
      awk '/^  "volatile": \{$/{exit} {print}' "$tmp/m_$id.json" \
        > "$tmp/stable_$id"
    done
    if ! cmp -s "$tmp/stable_${module//\//_}_j1" \
                "$tmp/stable_${module//\//_}_j8"; then
      echo "obs-identity: stable metrics for $module differ between" \
           "--jobs 1 and --jobs 8" >&2
      return 1
    fi
  done < <("$bin" --list-corpus)

  echo "== observability identity: generated corpus, stable metrics across jobs =="
  # The hand-written goldens above pin a handful of shapes; generated
  # programs (src/gen/) sweep the grammar. The deepmc-metrics-v1 stable
  # section must be byte-identical across --jobs for them too.
  local seed
  for seed in 0 7 23 101 997; do
    "$genbin" gen --seed "$seed" > "$tmp/gen_$seed.mir" || {
      echo "obs-identity: deepmc-corpus gen --seed $seed failed" >&2
      return 1
    }
    for n in 1 8; do
      run_deepmc "$tmp/gen_${seed}_j$n" --jobs "$n" \
        --metrics-out "$tmp/gm_${seed}_j$n.json" "$tmp/gen_$seed.mir"
      awk '/^  "volatile": \{$/{exit} {print}' "$tmp/gm_${seed}_j$n.json" \
        > "$tmp/gstable_${seed}_j$n"
    done
    if ! cmp -s "$tmp/gen_${seed}_j1" "$tmp/gen_${seed}_j8"; then
      echo "obs-identity: report for generated seed $seed differs between" \
           "--jobs 1 and --jobs 8" >&2
      return 1
    fi
    if ! cmp -s "$tmp/gstable_${seed}_j1" "$tmp/gstable_${seed}_j8"; then
      echo "obs-identity: stable metrics for generated seed $seed differ" \
           "between --jobs 1 and --jobs 8" >&2
      return 1
    fi
  done
  echo "obs-identity: OK"
}

run_resilience() {
  cmake -B build -S .
  cmake --build build -j "$jobs" --target deepmc
  local bin=build/src/tools/deepmc
  local tmp rc
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN

  echo "== resilience: budget exhaustion degrades instead of hanging =="
  rc=0
  "$bin" --corpus pmdk/btree_map --budget-trace-steps 5 --format json \
    > "$tmp/degraded.json" 2>/dev/null || rc=$?
  if [[ "$rc" -ne 66 ]]; then
    echo "resilience: expected exit 66 for a trace-budget trip, got $rc" >&2
    return 1
  fi
  if ! grep -q '"deepmc-report-v3"' "$tmp/degraded.json" ||
     ! grep -q '"status": "degraded"' "$tmp/degraded.json"; then
    echo "resilience: degraded run did not produce a v3 degraded report" >&2
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "$tmp/degraded.json" || {
      echo "resilience: degraded report is not valid JSON" >&2
      return 1
    }
  fi

  echo "== resilience: every registered fault point fails its unit =="
  # Driver-stage points fire inside a one-shot deepmc run. Serve-layer
  # points (serve.*, cache.*) only fire inside `deepmc serve` and are
  # covered by serve_test; load-engine points (load.*) fire inside
  # deepmc-load workers and are driven below.
  cmake --build build -j "$jobs" --target deepmc-load
  local loadbin=build/src/tools/deepmc-load
  local point
  while IFS= read -r point; do
    case "$point" in
      serve.*|cache.*) continue ;;
      load.crash)
        rc=0
        "$loadbin" --framework pmdk_mini --threads 1 --ops 500 --checker off \
          --crash-at 50 --inject-fault "$point:1" \
          > "$tmp/fault_$point.out" 2>/dev/null || rc=$?
        if [[ "$rc" -ne 65 ]]; then
          echo "resilience: deepmc-load --inject-fault $point:1 exited $rc," \
               "want 65" >&2
          return 1
        fi
        continue ;;
      load.*)
        rc=0
        "$loadbin" --framework pmdk_mini --threads 1 --ops 500 --checker off \
          --inject-fault "$point:1" > "$tmp/fault_$point.out" 2>/dev/null \
          || rc=$?
        if [[ "$rc" -ne 65 ]]; then
          echo "resilience: deepmc-load --inject-fault $point:1 exited $rc," \
               "want 65" >&2
          return 1
        fi
        continue ;;
    esac
    rc=0
    "$bin" --dynamic --crashsim --format json --inject-fault "$point:1" \
      examples/mir/crash_enum.mir > "$tmp/fault_$point.out" 2>/dev/null || rc=$?
    if [[ "$rc" -ne 65 ]]; then
      echo "resilience: --inject-fault $point:1 exited $rc, want 65" >&2
      return 1
    fi
    if ! grep -q "fault-injected:$point" "$tmp/fault_$point.out"; then
      echo "resilience: report for $point does not name the tripped point" >&2
      return 1
    fi
  done < <("$bin" --list-fault-points)

  echo "== resilience: unaffected units byte-identical under injection =="
  # parser.read only fires for file units; the corpus unit in the same
  # run must come out byte-identical (modulo the documented elapsed_ms
  # timing fields) at every --jobs level.
  local n
  for n in 1 4; do
    run_pair() {
      local out="$1"; shift
      rc=0
      "$bin" --keep-going --format json --jobs "$n" "$@" \
        --corpus pmdk/btree_map examples/mir/unflushed_write.mir \
        > "$tmp/raw" 2>/dev/null || rc=$?
      grep -v '"elapsed_ms"' "$tmp/raw" > "$out"
    }
    run_pair "$tmp/clean_j$n"
    if [[ "$rc" -ge 64 ]]; then
      echo "resilience: clean identity run failed ($rc)" >&2
      return 1
    fi
    run_pair "$tmp/faulted_j$n" --inject-fault parser.read:1
    if [[ "$rc" -ne 65 ]]; then
      echo "resilience: faulted identity run exited $rc, want 65" >&2
      return 1
    fi
    # The corpus unit's block must be unchanged: compare from its entry
    # (the corpus unit comes first in input order) up to the file unit's.
    awk '/"pmdk\/btree_map"/{p=1} /unflushed_write/{exit} p' \
      "$tmp/clean_j$n" > "$tmp/c_$n"
    awk '/"pmdk\/btree_map"/{p=1} /unflushed_write/{exit} p' \
      "$tmp/faulted_j$n" > "$tmp/f_$n"
    if [[ ! -s "$tmp/c_$n" ]]; then
      echo "resilience: could not locate the corpus unit's report block" >&2
      return 1
    fi
    if ! cmp -s "$tmp/c_$n" "$tmp/f_$n"; then
      echo "resilience: unaffected unit changed under injection at" \
           "--jobs $n" >&2
      diff "$tmp/c_$n" "$tmp/f_$n" >&2 || true
      return 1
    fi
  done
  echo "resilience: OK"
}

case "${1:-}" in
  --tsan) run_tsan ;;
  --san)  run_san ;;
  --obs)  run_obs_identity ;;
  --resilience) run_resilience ;;
  --all)  run_tier1; run_tsan; run_san; run_obs_identity; run_resilience ;;
  "")     run_tier1; run_obs_identity; run_resilience ;;
  *) echo "usage: scripts/check.sh [--tsan|--san|--obs|--resilience|--all]" >&2
     exit 64 ;;
esac
