#!/usr/bin/env bash
# Single entry point for every machine-checked gate in the repo:
#
#   1. build + unit/differential tests   (primary tree, RelWithDebInfo)
#   2. static analysis                   (tools/run_static_analysis.sh:
#                                         spcube_lint, spcube-analyzer,
#                                         clang-tidy)
#   3. bench JSON smoke                  (--emit-json output validates
#                                         against tools/validate_bench_json.py;
#                                         includes a --threads=2 figure-bench
#                                         run)
#   4. chaos                             (OOM-injection / drift / recovery
#                                         grid under the asan-ubsan preset
#                                         with lifetime checks forced on)
#   5. tsan-threaded-grid                (the whole ctest suite under the
#                                         tsan preset: pool contracts,
#                                         threaded differential grid,
#                                         serial/threaded determinism probe)
#   6. sanitizers                        (tools/run_sanitizers.sh)
#
# Runs all stages even after a failure and finishes with a summary table,
# so one broken gate doesn't hide the state of the others. Exits nonzero
# if any stage failed. Pass --fast to skip the sanitizer stage (it
# rebuilds the tree twice and dominates wall time); --fast also pins the
# analyzer to its dependency-free internal backend.
set -uo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "${arg}" in
    --fast) fast=1 ;;
    *) echo "usage: tools/check_all.sh [--fast]" >&2; exit 2 ;;
  esac
done

declare -a stage_names=()
declare -a stage_results=()

run_stage() {
  local name="$1"; shift
  echo
  echo "########## ${name} ##########"
  if "$@"; then
    stage_results+=("PASS")
  else
    stage_results+=("FAIL")
  fi
  stage_names+=("${name}")
}

build_and_test() {
  cmake -B build -S . && cmake --build build -j "$(nproc)" &&
    ctest --test-dir build --output-on-failure -j "$(nproc)"
}

# Per-rule finding counts for the determinism & model-purity family
# (docs/INTERNALS.md §14), echoed in every summary — fast runs included —
# so a dirty tree is visible even when only the quick gate ran. Uses the
# dependency-free internal backend; counts come from the --summary table
# on stderr.
determinism_line=""
determinism_rule_counts() {
  determinism_line="determinism rules (§14): $(python3 \
    tools/analyzer/spcube_analyzer.py --fast --summary \
    --rules=unordered-iteration-escape,pointer-order-dependence,unseeded-hash-in-model,float-accumulation-order \
    2>&1 >/dev/null |
    awk '/^  /{printf "%s%s=%s", sep, $1, $2; sep=" "}')"
}

bench_json_smoke() {
  local out="build/bench_smoke.json"
  local faults_out="build/bench_faults_smoke.json"
  local fig_out="build/bench_fig7_threads_smoke.json"
  ./build/bench/bench_shuffle --scale=0.05 --emit-json="${out}" \
    >/dev/null &&
    python3 tools/validate_bench_json.py "${out}" &&
    ./build/bench/bench_faults --scale=0.1 --emit-json="${faults_out}" \
      >/dev/null &&
    python3 tools/validate_bench_json.py "${faults_out}" &&
    ./build/bench/bench_paper --figure=7 --scale=0.05 --threads=2 \
      --emit-json="${fig_out}" >/dev/null &&
    python3 tools/validate_bench_json.py "${fig_out}" &&
    python3 tools/validate_bench_json.py BENCH_*.json
}

# The adaptive-recovery grid (tests/recovery_test.cc) under address+UB
# sanitizers: the split/merge path churns arenas, spill runs and views, so
# it runs with SPCUBE_LIFETIME_CHECKS poisoning on top of asan.
chaos_grid() {
  cmake --preset asan-ubsan >/dev/null &&
    cmake --build build-asan -j "$(nproc)" --target recovery_test &&
    ctest --test-dir build-asan -R 'Recovery|Backoff|OomInjection|Drift' \
      --output-on-failure -j "$(nproc)"
}

# The concurrency-contracts gate (docs/INTERNALS.md §12): the whole test
# suite under ThreadSanitizer — the work-stealing pool's own contracts
# (tests/task_pool_test.cc), the threaded differential grid and the
# serial/threaded determinism probe (tests/threading_test.cc), and every
# other test whose config runs the engine on more than one host thread
# (host_threads defaults to the host's cores). Any data race in the pool's
# deques, the engine's per-partition result slots, a test's shared
# factories or collectors, or the DFS fails here; under --fast only this
# dynamic half is skipped — the analyzer's concurrency rules still run in
# the static-analysis stage.
tsan_threaded_grid() {
  cmake --preset tsan >/dev/null &&
    cmake --build build-tsan -j "$(nproc)" &&
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
}

run_stage "build+test" build_and_test
if [[ ${fast} -eq 1 ]]; then
  run_stage "static-analysis" tools/run_static_analysis.sh --fast
else
  run_stage "static-analysis" tools/run_static_analysis.sh
fi
run_stage "bench-json-smoke" bench_json_smoke
if [[ ${fast} -eq 0 ]]; then
  run_stage "chaos" chaos_grid
  run_stage "tsan-threaded-grid" tsan_threaded_grid
  run_stage "sanitizers" tools/run_sanitizers.sh
else
  stage_names+=("chaos"); stage_results+=("SKIP (--fast)")
  stage_names+=("tsan-threaded-grid"); stage_results+=("SKIP (--fast)")
  stage_names+=("sanitizers"); stage_results+=("SKIP (--fast)")
fi

determinism_rule_counts

echo
echo "=============================="
printf '%-18s %s\n' "stage" "result"
printf '%-18s %s\n' "-----" "------"
failed=0
for i in "${!stage_names[@]}"; do
  printf '%-18s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
  [[ "${stage_results[$i]}" == "FAIL" ]] && failed=1
done
if [[ -n "${determinism_line}" ]]; then
  echo "${determinism_line}"
fi
echo "=============================="
exit "${failed}"
