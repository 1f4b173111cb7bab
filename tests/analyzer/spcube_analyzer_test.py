#!/usr/bin/env python3
"""Golden tests for tools/analyzer/spcube_analyzer.py.

Each lifetime rule has a violating fixture and a clean fixture under
tests/analyzer/fixtures/src/; the test asserts the exact (line, rule-id)
set per fixture, so an analyzer that fires the right rule on the wrong
line — or a neighboring rule — fails here. The fixtures run against every
backend available on this machine (the internal backend always; libclang
when clang.cindex and a libclang shared library are importable), pinning
the two backends to identical findings.

The acceptance gates beyond the fixtures:
  * the real src/ and tests/ trees (minus fixtures/) produce zero findings
    (the per-PR gate), and
  * the seeded dangling-view bug (dangling_segment_view.cc) is reported by
    the static analyzer — its dynamic twin lives in tests/lifetime_test.cc,
    which replays the same sequence under SPCUBE_LIFETIME_CHECKS.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
ANALYZER = os.path.join(REPO, "tools", "analyzer", "spcube_analyzer.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture file (relative to fixtures/) -> expected [(line, rule-id)].
EXPECTATIONS = {
    "src/view_escape_violation.cc": [
        (18, "view-escape"),
        (24, "view-escape"),
        (34, "view-escape"),
    ],
    "src/view_escape_clean.cc": [],
    "src/arena_escape_violation.cc": [
        (18, "arena-escape"),
        (25, "arena-escape"),
        (26, "arena-escape"),
    ],
    "src/arena_escape_clean.cc": [],
    "src/emit_borrow_violation.cc": [
        (27, "emit-borrow"),
        (34, "emit-borrow"),
    ],
    "src/emit_borrow_clean.cc": [],
    "src/status_flow_violation.cc": [
        (20, "status-flow"),
        (25, "status-flow"),
    ],
    "src/status_flow_clean.cc": [],
    # The seeded dangling-view bug of the acceptance criteria; its dynamic
    # twin is lifetime_test.cc's PoisonCatchesTheSeededDanglingViewFixture.
    "src/dangling_segment_view.cc": [
        (21, "arena-escape"),
    ],
    "src/pragma_without_reason.cc": [
        (9, "allow-without-reason"),
    ],
    # Concurrency-contract rules (docs/INTERNALS.md §12).
    "src/thread_capture_escape_violation.cc": [
        (15, "thread-capture-escape"),
        (24, "thread-capture-escape"),
    ],
    "src/thread_capture_escape_clean.cc": [],
    "src/lock_discipline_violation.cc": [
        (30, "lock-discipline"),
        (34, "lock-discipline"),
    ],
    "src/lock_discipline_clean.cc": [],
    "src/rng_thread_share_violation.cc": [
        (26, "rng-thread-share"),
        (39, "thread-capture-escape"),
        (40, "rng-thread-share"),
    ],
    "src/rng_thread_share_clean.cc": [],
    # Determinism & model-purity rules (docs/INTERNALS.md §14).
    "src/unordered_iteration_escape_violation.cc": [
        (32, "unordered-iteration-escape"),
        (40, "unordered-iteration-escape"),
        (51, "unordered-iteration-escape"),
    ],
    "src/unordered_iteration_escape_clean.cc": [],
    "src/unordered_iteration_param_violation.cc": [
        (17, "unordered-iteration-escape"),
    ],
    "src/pointer_order_violation.cc": [
        (22, "pointer-order-dependence"),
        (26, "pointer-order-dependence"),
        (32, "pointer-order-dependence"),
        (37, "pointer-order-dependence"),
    ],
    "src/pointer_order_clean.cc": [],
    "src/unseeded_hash_violation.cc": [
        (23, "unseeded-hash-in-model"),
        (31, "unseeded-hash-in-model"),
    ],
    "src/unseeded_hash_clean.cc": [],
    "src/float_accumulation_violation.cc": [
        (19, "float-accumulation-order"),
        (28, "float-accumulation-order"),
    ],
    "src/float_accumulation_clean.cc": [],
    "src/determinism_pragma_allowed.cc": [],
}


def available_backends():
    backends = ["internal"]
    probe = subprocess.run(
        [sys.executable, ANALYZER, "--backend=libclang", "--root", FIXTURES,
         os.path.join(FIXTURES, "src", "view_escape_clean.cc")],
        capture_output=True, text=True)
    # Exit 2 + stderr notice = backend unavailable on this machine; any
    # other outcome means libclang loaded and must then agree on goldens.
    if probe.returncode != 2:
        backends.append("libclang")
    return backends


def run_analyzer(paths, root, backend):
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--root", root,
         "--backend=%s" % backend] + paths,
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        # path:line: [rule] message
        parts = line.split(":", 2)
        if len(parts) < 3 or "[" not in parts[2]:
            continue
        rule = parts[2].split("[", 1)[1].split("]", 1)[0]
        findings.append((parts[0], int(parts[1]), rule))
    return proc, findings


def main():
    failures = []
    backends = available_backends()

    for backend in backends:
        for rel, expected in sorted(EXPECTATIONS.items()):
            path = os.path.join(FIXTURES, rel)
            proc, findings = run_analyzer([path], FIXTURES, backend)
            got = [(line, rule) for (_, line, rule) in findings]
            want = sorted(expected)
            if sorted(got) != want:
                failures.append(
                    "[%s] %s:\n  expected %s\n  got      %s\n  stdout: %s"
                    "\n  stderr: %s"
                    % (backend, rel, want, sorted(got), proc.stdout.strip(),
                       proc.stderr.strip()))
                continue
            want_exit = 1 if expected else 0
            if proc.returncode != want_exit:
                failures.append("[%s] %s: exit code %d, expected %d"
                                % (backend, rel, proc.returncode, want_exit))

    # Reported paths must be relative to --root so goldens are stable
    # across checkouts.
    proc, findings = run_analyzer(
        [os.path.join(FIXTURES, "src", "dangling_segment_view.cc")],
        FIXTURES, "internal")
    if findings and findings[0][0] != os.path.join(
            "src", "dangling_segment_view.cc"):
        failures.append("paths not reported relative to --root: %s"
                        % findings[0][0])

    proc = subprocess.run(
        [sys.executable, ANALYZER, "--list-rules"],
        capture_output=True, text=True)
    rules = proc.stdout.split()
    for rule in ("view-escape", "arena-escape", "emit-borrow",
                 "status-flow", "thread-capture-escape", "lock-discipline",
                 "rng-thread-share", "unordered-iteration-escape",
                 "pointer-order-dependence", "unseeded-hash-in-model",
                 "float-accumulation-order"):
        if rule not in rules:
            failures.append("--list-rules missing %s" % rule)

    # --rules filters reporting to the named family (the CI determinism
    # leg runs just the §14 rules this way): the pointer fixture's
    # findings survive, everything else is dropped, and unknown names are
    # a usage error (exit 2).
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--root", FIXTURES, "--backend=internal",
         "--rules=unseeded-hash-in-model",
         os.path.join(FIXTURES, "src", "pointer_order_violation.cc")],
        capture_output=True, text=True)
    if proc.returncode != 0 or proc.stdout.strip():
        failures.append("--rules did not filter out other rules: %s"
                        % proc.stdout)
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--rules=no-such-rule"],
        capture_output=True, text=True)
    if proc.returncode != 2:
        failures.append("--rules with an unknown rule should exit 2, got %d"
                        % proc.returncode)

    # --emit-sarif writes a SARIF 2.1.0 run whose results mirror the
    # plain-text findings, rule IDs included.
    import json
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        sarif_path = os.path.join(tmp, "out.sarif")
        proc = subprocess.run(
            [sys.executable, ANALYZER, "--root", FIXTURES,
             "--backend=internal", "--emit-sarif=%s" % sarif_path,
             os.path.join(FIXTURES, "src", "pointer_order_violation.cc")],
            capture_output=True, text=True)
        with open(sarif_path, "r", encoding="utf-8") as f:
            sarif = json.load(f)
        results = sarif["runs"][0]["results"]
        got = sorted((r["locations"][0]["physicalLocation"]["region"]
                      ["startLine"], r["ruleId"]) for r in results)
        if sarif["version"] != "2.1.0" or got != sorted(
                EXPECTATIONS["src/pointer_order_violation.cc"]):
            failures.append("SARIF results do not mirror findings: %s"
                            % got)

    # Exit-2 paths (backend unavailable / bad path) still render the
    # --summary table so callers that parse it always see one.
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--summary", "--root", FIXTURES,
         os.path.join(FIXTURES, "no", "such", "file.cc")],
        capture_output=True, text=True)
    if proc.returncode != 2 or "per-rule summary" not in proc.stderr:
        failures.append("exit-2 path skipped the --summary table: rc=%d "
                        "stderr=%s" % (proc.returncode, proc.stderr))

    # --fast must behave like the internal backend (clean-tree-only mode
    # for check_all.sh --fast): same findings, no TU parsing.
    proc, findings = run_analyzer(
        ["--fast", os.path.join(FIXTURES, "src", "arena_escape_clean.cc")],
        FIXTURES, "auto")
    if proc.returncode != 0 or findings:
        failures.append("--fast not clean on a clean fixture: %s %s"
                        % (proc.returncode, findings))

    # The real src/ and tests/ trees must be clean: the acceptance gate for
    # every PR.
    for backend in backends:
        proc, findings = run_analyzer([], REPO, backend)
        if proc.returncode != 0:
            failures.append("[%s] repo-wide analyzer run not clean:\n%s"
                            % (backend, proc.stdout))

    if failures:
        print("spcube_analyzer_test: %d failure(s)" % len(failures))
        for failure in failures:
            print("---\n" + failure)
        return 1
    print("spcube_analyzer_test: all %d fixtures behaved under backend(s): "
          "%s" % (len(EXPECTATIONS), ", ".join(backends)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
