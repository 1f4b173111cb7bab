#!/usr/bin/env bash
# Static-analysis gate: spcube_lint (the repo's conventions as code),
# spcube-analyzer (lifetime & borrow contracts of the zero-copy core,
# docs/INTERNALS.md §10), plus clang-tidy over the compile database.
# Exits nonzero on any finding.
#
# clang-tidy is optional equipment: on machines without it (the minimal CI
# image, for instance) that half is skipped with a visible notice so the
# gate still runs the convention linter and ctest stays green. Set
# SPCUBE_REQUIRE_CLANG_TIDY=1 to turn the skip into a failure. The
# analyzer has no such escape hatch — its internal backend is
# self-contained — but with --fast it pins that backend instead of probing
# for libclang, keeping the quick gate dependency-free and deterministic.
set -uo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "${arg}" in
    --fast) fast=1 ;;
    *) echo "usage: tools/run_static_analysis.sh [--fast]" >&2; exit 2 ;;
  esac
done

failures=0

echo "=== spcube_lint (src/ tools/ bench/) ==="
if python3 tools/lint/spcube_lint.py --summary; then
  echo "spcube_lint: clean"
else
  failures=$((failures + 1))
fi

echo
echo "=== spcube-analyzer (lifetime & borrow contracts, src/ + tests/) ==="
analyzer_args=()
if [[ ${fast} -eq 1 ]]; then
  analyzer_args+=(--fast)
fi
# The per-rule summary lands on stderr; keep a copy so the determinism
# family (docs/INTERNALS.md §14) gets its own echoed count line below.
analyzer_log="$(mktemp)"
trap 'rm -f "${analyzer_log}"' EXIT
if python3 tools/analyzer/spcube_analyzer.py --summary "${analyzer_args[@]}" \
    2> >(tee "${analyzer_log}" >&2); then
  echo "spcube-analyzer: clean"
else
  failures=$((failures + 1))
fi
wait  # let the tee process substitution flush before reading the log
determinism_counts="$(grep -E \
  '^\s+(unordered-iteration-escape|pointer-order-dependence|unseeded-hash-in-model|float-accumulation-order)\s' \
  "${analyzer_log}" | awk '{printf "%s%s=%s", sep, $1, $2; sep=" "}')"
echo "determinism & model-purity rules (§14): ${determinism_counts:-summary unavailable}"

echo
echo "=== clang-tidy (.clang-tidy check set) ==="
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${CLANG_TIDY}" >/dev/null 2>&1; then
  if [[ "${SPCUBE_REQUIRE_CLANG_TIDY:-0}" == "1" ]]; then
    echo "clang-tidy: NOT FOUND and SPCUBE_REQUIRE_CLANG_TIDY=1" >&2
    failures=$((failures + 1))
  else
    echo "clang-tidy: not installed — SKIPPED (install clang-tidy or set"
    echo "CLANG_TIDY=/path/to/clang-tidy to enable this half of the gate)"
  fi
else
  # The compile database comes from the primary build tree; configure it
  # if missing (CMAKE_EXPORT_COMPILE_COMMANDS is on by default in
  # CMakeLists.txt, and the static-analysis preset pins it too).
  if [[ ! -f build/compile_commands.json ]]; then
    echo "configuring build/ to produce compile_commands.json ..."
    cmake -B build -S . >/dev/null
  fi
  mapfile -t sources < <(find src bench tools -name '*.cc' | sort)
  # Clang's thread-safety analysis rides along with the tidy pass: the
  # SPCUBE_GUARDED_BY / REQUIRES / EXCLUDES contracts
  # (src/common/thread_annotations.h) are checked as errors here even when
  # the compile database was produced by GCC.
  if "${CLANG_TIDY}" -p build --quiet \
      --extra-arg=-Wthread-safety --extra-arg=-Werror=thread-safety \
      "${sources[@]}"; then
    echo "clang-tidy: clean (${#sources[@]} files)"
  else
    failures=$((failures + 1))
  fi
fi

echo
if [[ ${failures} -gt 0 ]]; then
  echo "static analysis: FAILED (${failures} stage(s) with findings)" >&2
  exit 1
fi
echo "static analysis: all stages clean"
