#!/usr/bin/env python3
"""spcube_analyzer: AST-level lifetime & borrow checking for the zero-copy
core.

The regex linter (tools/lint/spcube_lint.py) checks file-scope conventions;
it cannot see scopes, statement order, or call structure. This analyzer
enforces the repo's zero-copy *lifetime contracts* (docs/INTERNALS.md §10)
as named, fixture-tested rules over a per-function statement stream:

  view-escape   A borrowed view (RelationView, std::string_view, std::span,
                ShuffleRecordRef) must not outlive the owner it borrows
                from. Flags: (a) view-typed data members — long-lived
                storage of a borrow — unless the enclosing class documents
                co-ownership with an allow pragma; (b) returning a view
                rooted at a function-local owner (the classic dangling
                string_view); (c) a by-reference lambda capture stored into
                a deferred callback slot (factory/callback/handler/hook).
  arena-escape  A pointer derived from an Arena (Append/AppendPair/
                Allocate) must not be used after that arena's Reset() in
                the same function: Reset invalidates every address the
                arena handed out (and poisons the bytes under
                SPCUBE_LIFETIME_CHECKS).
  emit-borrow   A mapper/reducer Emit/EmitToPartition/Output argument must
                not be a view bound to a buffer that was mutated (cleared,
                reused, appended to) after the view was bound: the emit
                would read reused bytes. Encode-then-emit with the view
                taken inline at the call site is the sanctioned shape.
  status-flow   A Result<T> local must not be unwrapped (.value(), *r,
                r->) before an ok()/status() check on the same variable —
                deeper than the [[nodiscard]] sweep, which only sees
                discarded returns.

Concurrency contracts (docs/INTERNALS.md §12) ride on the same machinery:

  thread-capture-escape
                A lambda handed to std::thread / std::async (or
                emplace_back'd into a declared thread container) must not
                use a blanket by-reference capture ([&] / [&, x]): every
                object crossing the thread boundary must be named with an
                explicit init-capture, so reviewers and the analyzer can
                check it is mutex-guarded, atomic, or indexed disjointly
                per worker.
  lock-discipline
                A field annotated SPCUBE_GUARDED_BY(mu) /
                SPCUBE_PT_GUARDED_BY(mu) is touched in a method of its
                class with no prior MutexLock/lock_guard-style acquisition
                of `mu` in scope and no SPCUBE_REQUIRES(mu) on the
                function. The annotations are read textually from the
                declaration line, so both backends agree; guarded fields
                of classes seen earlier in the same scan are visible to
                out-of-line method definitions in sibling .cc files.
  rng-thread-share
                A seeded spcube::Rng local declared outside a worker
                lambda is referenced inside one: shared RNG state makes
                draws depend on thread interleaving, breaking the repo's
                determinism contract. Construct a per-worker Rng inside
                the lambda from stable coordinates instead.

Determinism & model-purity contracts (docs/INTERNALS.md §14) ride on a
lightweight source->sink taint layer over the same statement stream.
Sources are the entropy a C++ process observes but the simulated cluster
must not: hash-table iteration order, pointer identity, the unseeded
std::hash, thread-completion order. Sinks are everything the paper's
figures are built from: records handed to Emit/EmitToPartition/Output/
Collect, bytes reaching ByteWriter wire encodings (spill runs, DFS blobs,
the broadcast sketch), and modeled-metric fields (JobMetrics /
ShuffleCounters, anything feeding sim_total_seconds). Integer counter
bumps are deliberately not sinks — integer += is commutative, so order
cannot leak through it.

  unordered-iteration-escape
                A range-for over a std::unordered_{map,set} (or
                flat/node_hash_*) whose body reaches a model sink: the
                emitted/encoded sequence then follows the hash function
                and insertion history. Sort into a vector first (GroupKey
                has operator<) and iterate that.
  pointer-order-dependence
                Pointer-keyed associative containers, std::hash/less over
                a pointer type, or a sort comparator ordering by raw
                pointer value: addresses differ across runs (ASLR, arena
                placement), so any order derived from them is
                irreproducible.
  unseeded-hash-in-model
                A std::hash value (implementation-defined, unseeded per
                process on some platforms) persisted into wire bytes or
                modeled metrics. Route hashing through common/hash.h
                (HashBytes/Mix64), which is seeded and stable; std::hash
                is fine for transient in-memory routing that never
                escapes.
  float-accumulation-order
                A floating-point += reduction inside an unordered
                range-for or a worker-lambda region targeting a double
                local or a modeled *_seconds field: FP addition is not
                associative, so the total depends on iteration or
                completion order. Accumulate in index order, or stage
                per-partition slots and merge after the join
                (docs/INTERNALS.md §12's sanctioned shape).

Two backends produce the same findings:

  * libclang (python clang.cindex), when importable and a libclang shared
    library is found: parses real translation units against the exported
    compile database (build/compile_commands.json), so function extents,
    class fields, and local variable types (including `auto`) come from
    the AST.
  * internal, always available: a self-contained C++ scanner (comment/
    string stripping, balanced-brace function and class extraction). It
    resolves no types beyond spelled-out ones, which is why the rules are
    written to be precision-first.

Both backends lower code into one micro-IR (functions as ordered statement
events) and run the same rule engine, so golden fixtures pin identical
(line, rule-id) findings for either.

Suppression mirrors spcube_lint and requires a reason:

  member_;  // spcube-analyzer: allow(view-escape): reason
  // spcube-analyzer: allow(rule-id): reason      <- covers the next line
  // spcube-analyzer: allow-file(rule-id): reason <- covers the whole file

Usage:
  tools/analyzer/spcube_analyzer.py [--root DIR] [--backend auto|internal|
      libclang] [--compile-commands PATH] [--fast] [paths...]

With no paths, scans src/ and tests/ under --root, skipping the golden
fixture directories (bench and tool mains own their buffers). Prints findings as
`path:line: [rule-id] message` and exits 1 if there were any.
"""

import argparse
import json
import os
import re
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.normpath(os.path.join(_HERE, "..", "lint")))
# The comment/string/raw-literal stripper is shared with the linter so both
# tools agree on what counts as code; the SARIF writer is shared the same
# way.
from sarif import write_sarif  # noqa: E402
from spcube_lint import _strip_comments_and_strings  # noqa: E402

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")
DEFAULT_SCAN_DIRS = ("src", "tests")
# Directories the default scan skips: golden fixtures hold deliberate
# violations and are checked by their own expectations.
DEFAULT_SKIP_DIRS = ("fixtures",)

RULES = [
    "view-escape",
    "arena-escape",
    "emit-borrow",
    "status-flow",
    "thread-capture-escape",
    "lock-discipline",
    "rng-thread-share",
    "unordered-iteration-escape",
    "pointer-order-dependence",
    "unseeded-hash-in-model",
    "float-accumulation-order",
]

ALLOW_LINE_RE = re.compile(
    r"//\s*spcube-analyzer:\s*allow\(([a-z-]+)\)(:\s*(\S.*))?")
ALLOW_FILE_RE = re.compile(
    r"//\s*spcube-analyzer:\s*allow-file\(([a-z-]+)\)(:\s*(\S.*))?")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# ---------------------------------------------------------------------------
# Micro-IR: a file is classes (with fields) + functions (with an ordered
# statement stream). Both backends produce this shape.
# ---------------------------------------------------------------------------

class Stmt:
    """One flattened statement: its stripped text, 1-based start line, and
    brace depth relative to the function body."""

    def __init__(self, text, line, depth):
        self.text = text
        self.line = line
        self.depth = depth


class Function:
    def __init__(self, name, return_type, params, stmts, line,
                 class_name=None, prelude=""):
        self.name = name
        self.return_type = return_type
        self.params = params  # list of (type, name)
        self.stmts = stmts
        self.line = line
        # Enclosing class for inline methods (None for free functions;
        # out-of-line methods carry the class in their qualified name).
        self.class_name = class_name
        # Text between the parameter list and the body '{': cv-qualifiers
        # and thread-safety annotations (SPCUBE_REQUIRES etc.) live here.
        self.prelude = prelude


class Field:
    def __init__(self, class_name, type_text, name, line):
        self.class_name = class_name
        self.type_text = type_text
        self.name = name
        self.line = line
        # Mutex named by SPCUBE_[PT_]GUARDED_BY on the declaration line.
        self.guarded_by = None


class FileIR:
    def __init__(self, relpath):
        self.relpath = relpath
        self.fields = []
        self.functions = []
        # (class_name, body_start_offset, body_end_offset) of every class
        # in this file — used to assign inline methods to their class.
        self.class_extents = []


class PragmaIndex:
    """allow pragmas of one file, same line/next-line/file scoping rules as
    spcube_lint."""

    def __init__(self, raw_lines, relpath):
        self.allowed_lines = {}
        self.allowed_file_rules = set()
        self.pragma_findings = []
        for i, line in enumerate(raw_lines, start=1):
            m = ALLOW_FILE_RE.search(line)
            if m:
                if not m.group(3):
                    self.pragma_findings.append(Finding(
                        relpath, i, "allow-without-reason",
                        "allow-file(%s) pragma needs a ': reason'"
                        % m.group(1)))
                self.allowed_file_rules.add(m.group(1))
                continue
            m = ALLOW_LINE_RE.search(line)
            if m:
                if not m.group(3):
                    self.pragma_findings.append(Finding(
                        relpath, i, "allow-without-reason",
                        "allow(%s) pragma needs a ': reason'" % m.group(1)))
                covered = self.allowed_lines.setdefault(m.group(1), set())
                covered.add(i)
                if line.strip().startswith("//"):
                    covered.add(i + 1)

    def allows(self, rule, line):
        if rule in self.allowed_file_rules:
            return True
        return line in self.allowed_lines.get(rule, set())


# ---------------------------------------------------------------------------
# Internal backend: extract classes and functions from stripped source.
# ---------------------------------------------------------------------------

def _line_of(text, index, base_line=1):
    return base_line + text.count("\n", 0, index)


def _match_balanced(text, start, open_ch, close_ch):
    """Index one past the delimiter closing `text[start]`; -1 if unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_statements(body, base_line):
    """Flattens a function body into ordered statements. Statements are
    separated by ';', '{' and '}'; nesting is recorded as a depth, giving the
    rules a linear, textually-dominated event stream."""
    stmts = []
    depth = 0
    seg_start = 0
    for i, c in enumerate(body):
        if c in ";{}":
            seg = body[seg_start:i].strip()
            if seg:
                stmts.append(Stmt(seg, _line_of(body, seg_start +
                                                _leading_ws(body, seg_start),
                                                base_line), depth))
            if c == "{":
                depth += 1
            elif c == "}":
                depth = max(0, depth - 1)
            seg_start = i + 1
    seg = body[seg_start:].strip()
    if seg:
        stmts.append(Stmt(seg, _line_of(body, seg_start +
                                        _leading_ws(body, seg_start),
                                        base_line), depth))
    return stmts


def _leading_ws(text, start):
    i = start
    while i < len(text) and text[i] in " \t\n":
        i += 1
    return i - start


CLASS_RE = re.compile(r"\b(class|struct)\s+(?:\[\[\w+\]\]\s+)?(\w+)"
                      r"[^;{(]*\{")
FIELD_RE = re.compile(
    r"^(?:mutable\s+)?(?:static\s+)?(const\s+)?"
    r"((?:[A-Za-z_][\w:]*)(?:\s*<[^;{}]*>)?(?:\s*(?:\*|&))?)\s+"
    r"([A-Za-z_]\w*)\s*(=.*)?$")
FIELD_SKIP_RE = re.compile(
    r"\b(using|typedef|friend|return|public|private|protected|operator|"
    r"template|explicit|virtual|enum|namespace)\b|[({]")

# Thread-safety annotation macros (common/thread_annotations.h). They are
# stripped before field matching — a trailing SPCUBE_GUARDED_BY(mu_) must
# not make the declaration unparseable — and recorded separately from the
# raw declaration line by annotate_guarded_fields().
ANNOTATION_MACRO_RE = re.compile(r"\bSPCUBE_[A-Z_]+\s*(?:\([^()]*\))?")
GUARDED_BY_SRC_RE = re.compile(
    r"\bSPCUBE_(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z_]\w*)\s*\)")

FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:<[^<>]*>)?\s*::\s*)*~?[A-Za-z_]\w*|"
    r"operator\s*(?:\(\)|\[\]|[^\s(]+))\s*$")
KEYWORD_HEADS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "new", "delete", "sizeof", "alignof", "case", "default", "static_assert",
    "decltype", "noexcept", "throw", "and", "or", "not", "assert",
}


def extract_classes(code, relpath, ir):
    for m in CLASS_RE.finditer(code):
        body_start = m.end() - 1
        body_end = _match_balanced(code, body_start, "{", "}")
        if body_end < 0:
            continue
        class_name = m.group(2)
        ir.class_extents.append((class_name, body_start, body_end))
        body = code[body_start + 1:body_end - 1]
        # Only depth-0 segments of the class body are this class's own
        # members; nested classes re-match CLASS_RE themselves.
        for stmt in split_statements(body, _line_of(code, body_start + 1)):
            if stmt.depth != 0:
                continue
            # Access-specifier labels end in ':' and so glom onto the next
            # statement; peel them (and adjust the line) before matching.
            text = stmt.text
            label = re.match(r"(?:(?:public|private|protected)\s*:\s*)+",
                             text)
            if label:
                stmt.line += text.count("\n", 0, label.end())
                text = text[label.end():]
            # Annotation macros would otherwise trip FIELD_SKIP_RE's
            # parenthesis guard; the guarded_by info is re-read from the
            # raw declaration line by annotate_guarded_fields().
            text = ANNOTATION_MACRO_RE.sub("", text).strip()
            if not text or FIELD_SKIP_RE.search(text):
                continue
            fm = FIELD_RE.match(text)
            if fm:
                ir.fields.append(Field(class_name, fm.group(2), fm.group(3),
                                       stmt.line))


def _skip_function_prelude(code, i):
    """From one past a parameter list's ')', steps over cv-qualifiers,
    noexcept/override/final, a trailing return type, and a constructor
    member-init list; returns the index of the body's '{', or -1 if this is
    not a function definition."""
    n = len(code)
    while True:
        while i < n and code[i] in " \t\n":
            i += 1
        if i >= n:
            return -1
        if code[i] == "{":
            return i
        tail = code[i:]
        # Thread-safety annotation macros (SPCUBE_REQUIRES(mu_), ...)
        # qualify function definitions; step over them like cv-qualifiers.
        am = re.match(r"SPCUBE_[A-Z_]+\b", tail)
        if am:
            i += am.end()
            while i < n and code[i] in " \t\n":
                i += 1
            if i < n and code[i] == "(":
                close = _match_balanced(code, i, "(", ")")
                if close < 0:
                    return -1
                i = close
            continue
        m = re.match(r"(const|noexcept|override|final|mutable)\b|&&|&", tail)
        if m and m.group(0):
            i += m.end()
            if code[i - 1] == "(" or (i < n and code[i] == "("):
                # noexcept(expr)
                close = _match_balanced(code, code.index("(", i - 1), "(",
                                        ")")
                if close < 0:
                    return -1
                i = close
            continue
        if tail.startswith("->"):  # trailing return type
            j = i + 2
            while j < n and code[j] not in "{;":
                j += 1
            i = j
            continue
        if code[i] == ":":  # constructor member-init list
            i += 1
            while True:
                while i < n and code[i] in " \t\n,":
                    i += 1
                m = re.match(r"[A-Za-z_][\w:]*(\s*<[^<>{}]*>)?", code[i:])
                if not m:
                    return -1
                i += m.end()
                while i < n and code[i] in " \t\n":
                    i += 1
                if i >= n or code[i] not in "({":
                    return -1
                close = _match_balanced(code, i, code[i],
                                        ")" if code[i] == "(" else "}")
                if close < 0:
                    return -1
                i = close
                while i < n and code[i] in " \t\n":
                    i += 1
                if i < n and code[i] == ",":
                    continue
                if i < n and code[i] == "{":
                    return i
                return -1
        return -1


PARAM_RE = re.compile(
    r"^(const\s+)?((?:[A-Za-z_][\w:]*)(?:\s*<.*>)?(?:\s*(?:\*|&|&&))?)\s*"
    r"([A-Za-z_]\w*)?\s*(=.*)?$")


def _parse_params(param_text):
    params = []
    depth = 0
    part = []
    parts = []
    for c in param_text:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(part))
            part = []
        else:
            part.append(c)
    if part:
        parts.append("".join(part))
    for p in parts:
        p = " ".join(p.split())
        if not p or p == "void":
            continue
        m = PARAM_RE.match(p)
        if m and m.group(3):
            params.append((m.group(2).strip(), m.group(3)))
    return params


def extract_functions(code, relpath, ir):
    """Finds function definitions by locating parameter lists followed by a
    body (skipping qualifiers and member-init lists). Precision-first: a
    candidate the prelude parser cannot follow is skipped, not guessed at."""
    i = 0
    n = len(code)
    while i < n:
        open_paren = code.find("(", i)
        if open_paren < 0:
            break
        head = code[max(0, open_paren - 200):open_paren]
        name_match = FUNC_NAME_RE.search(head)
        if not name_match:
            i = open_paren + 1
            continue
        name = name_match.group(1)
        bare = name.split("::")[-1].strip()
        if bare in KEYWORD_HEADS:
            i = open_paren + 1
            continue
        close_paren = _match_balanced(code, open_paren, "(", ")")
        if close_paren < 0:
            i = open_paren + 1
            continue
        body_open = _skip_function_prelude(code, close_paren)
        if body_open < 0:
            i = open_paren + 1
            continue
        body_close = _match_balanced(code, body_open, "{", "}")
        if body_close < 0:
            i = open_paren + 1
            continue
        # Return type: the head text before the name, last declaration-ish
        # run (after any ';', '{', '}').
        before_name = head[:name_match.start(1)]
        ret = re.split(r"[;{}]", before_name)[-1].strip()
        ret = re.sub(r"\b(static|inline|constexpr|virtual|explicit|friend|"
                     r"\[\[nodiscard\]\])\b", "", ret).strip()
        params = _parse_params(code[open_paren + 1:close_paren - 1])
        body = code[body_open + 1:body_close - 1]
        stmts = split_statements(body, _line_of(code, body_open + 1))
        # Innermost class whose body extent contains this definition: that
        # is the class of an inline (unqualified) method.
        class_name = None
        for cname, cstart, cend in ir.class_extents:
            if cstart < open_paren < cend:
                class_name = cname
        ir.functions.append(Function(name, ret, params, stmts,
                                     _line_of(code, open_paren),
                                     class_name=class_name,
                                     prelude=code[close_paren:body_open]))
        i = body_close
    return ir


def build_ir_internal(code, relpath):
    ir = FileIR(relpath)
    extract_classes(code, relpath, ir)
    extract_functions(code, relpath, ir)
    annotate_guarded_fields(ir, code)
    return ir


def annotate_guarded_fields(ir, code):
    """Reads SPCUBE_[PT_]GUARDED_BY(mu) off each field's declaration line.
    Textual on purpose: macro expansion differs between the backends (Clang
    sees attributes, GCC sees nothing), but the source line is the same, so
    both backends derive identical guarded-field sets."""
    lines = code.split("\n")
    for field in ir.fields:
        if 1 <= field.line <= len(lines):
            m = GUARDED_BY_SRC_RE.search(lines[field.line - 1])
            if m:
                field.guarded_by = m.group(1)


def guarded_field_map(irs):
    """(class, field) -> mutex across every file of the scan, so methods
    defined out-of-line in a .cc see annotations from the class's header."""
    guarded = {}
    for ir in irs:
        for field in ir.fields:
            if field.guarded_by:
                guarded[(field.class_name, field.name)] = field.guarded_by
    return guarded


# ---------------------------------------------------------------------------
# Rule engine (shared by both backends).
# ---------------------------------------------------------------------------

VIEW_TYPE_RE = re.compile(
    r"\b(RelationView|ShuffleRecordRef|(?:std\s*::\s*)?string_view\b|"
    r"(?:std\s*::\s*)?span\s*<)")
OWNER_TYPE_RE = re.compile(
    r"^(?:const\s+)?(?:std\s*::\s*)?"
    r"(string|vector|ostringstream|ByteWriter|Relation|Arena|Record)\b"
    r"[^*&]*$")
# The *returned object itself* is a view (anchored match): returning a
# container of views by value moves the container, which is fine.
RETURN_VIEW_TYPE_RE = re.compile(
    r"^(?:const\s+)?(?:std\s*::\s*)?"
    r"(string_view\b|span\s*<|RelationView\b|ShuffleRecordRef\b)")

CALL_RE = re.compile(
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"([A-Za-z_]\w*)\s*\(")
ARENA_DERIVE_METHODS = {"Append", "AppendPair", "Allocate"}
BUFFER_MUTATORS_RE = re.compile(
    r"^(clear|Clear|Reset|assign|resize|append|push_back|emplace_back|"
    r"pop_back|erase|insert|shrink_to_fit|Put\w*)$")
EMIT_METHODS = {"Emit", "EmitToPartition", "Output"}
CALLBACK_SLOT_RE = re.compile(
    r"[\w.\->\[\]]*\b\w*(factory|callback|handler|hook)\w*\s*=\s*"
    r"\[\s*&\s*[\],]")
RETURN_VIEW_ROOT_RE = re.compile(
    r"^return\b\s*(?:(?:std\s*::\s*)?string_view\s*[({]|"
    r"(?:std\s*::\s*)?span\s*<[^>]*>\s*[({]|\{)?\s*&?\s*"
    r"([A-Za-z_]\w*)")
# A declaration (`string_view v = buf.data()`) or a plain reassignment
# (`v = buf.data()`) both (re-)bind the view to the buffer's bytes.
VIEW_BIND_RE = re.compile(
    r"^(?:(?:const\s+)?(?:(?:std\s*::\s*)?string_view|auto)\s*&?\s*)?"
    r"([A-Za-z_]\w*)\s*[=({]+\s*([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*?)"
    r"\s*(?:\.|->)\s*(data|view|str)\s*\(\s*\)")
RESULT_DECL_RE = re.compile(
    r"^(?:const\s+)?(?:spcube\s*::\s*)?Result\s*<[^;]*>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*[=({]")

# --- concurrency-contract rules (docs/INTERNALS.md §12) --------------------
# A declared local whose type spawns or holds threads.
THREAD_TYPE_RE = re.compile(r"\b(?:std\s*::\s*)?j?thread\b")
# Direct thread/async construction handed a lambda in the same statement.
THREAD_CTOR_LAMBDA_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:thread|jthread|async)\b[^;=]*?\(\s*\[")
# Lambda appended to a container (checked against declared thread locals).
CONTAINER_SPAWN_RE = re.compile(
    r"^(?:[\w.]+\s*=\s*)?([A-Za-z_]\w*)\s*\.\s*"
    r"(?:emplace_back|push_back)\s*\(\s*\[")
# Blanket by-reference default capture: `[&]` or `[&, ...]`.
BLANKET_CAPTURE_RE = re.compile(r"\[\s*&\s*[,\]]")
# Seeded RNG local (common/random.h).
RNG_TYPE_RE = re.compile(r"^(?:spcube\s*::\s*)?Rng\b")
# Scoped lock acquisitions the lock-discipline rule recognizes.
LOCK_ACQ_RE = re.compile(
    r"\b(?:MutexLock|lock_guard|scoped_lock|unique_lock|shared_lock)\b")
REQUIRES_RE = re.compile(r"\bSPCUBE_REQUIRES\s*\(([^)]*)\)")
NO_TSA_RE = re.compile(r"\bSPCUBE_NO_THREAD_SAFETY_ANALYSIS\b")


# --- determinism & model-purity rules (docs/INTERNALS.md §14) --------------
# Entropy source: containers whose iteration order follows the hash
# function and insertion history rather than the key order.
UNORDERED_TYPE_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\b|"
    r"\b(?:flat|node)_hash_(?:map|set)\b")
# Model sinks. Records handed to the engine:
MODEL_EMIT_METHODS = EMIT_METHODS | {"Collect"}
# ... bytes that reach a wire encoding (ByteWriter spill/DFS/sketch
# framing; Put[A-Z]* matches PutVarint, PutU64, PutBytes, ...):
WIRE_METHOD_RE = re.compile(r"^(EncodeTo|Put[A-Z]\w*)$")
# ... and modeled-metric fields (src/mapreduce/metrics.h; \w+_seconds
# covers every double that feeds sim_total_seconds). A member-access
# prefix is required so same-named locals stay out of scope. Only plain
# assignment (last-write-wins) is a sink here: integer += / ++ are
# commutative, so iteration order cannot leak through them, and FP += is
# float-accumulation-order's job.
METRIC_FIELD_NAMES = (
    r"map_input_records|map_output_records|map_output_bytes|"
    r"shuffle_records|shuffle_bytes|combine_input_records|"
    r"combine_output_records|spill_bytes|"
    r"reducer_input_records|reducer_input_bytes|reducer_wire_bytes|"
    r"reducer_output_records|output_records|task_retries|"
    r"tasks_reexecuted_after_crash|workers_crashed|"
    r"tasks_speculatively_reexecuted|shuffle_checksum_mismatches|"
    r"reduce_partitions_split|recovery_rounds|recovery_bytes_reshuffled|"
    r"custom_counters|per_worker_seconds|"
    r"\w+_seconds")
METRIC_SINK_RE = re.compile(
    r"(?:\.|->)\s*(?:%s)\s*(?:\[[^\]]*\])?\s*"
    r"(?<![-+*/|&^<>=!])=(?!=)" % METRIC_FIELD_NAMES)
# Pointer-order sources: a container keyed by T*, an ordering/hash functor
# over T*, and a sort comparator whose parameters are raw pointers.
PTR_KEYED_CONTAINER_RE = re.compile(
    r"\b(?:unordered_(?:multi)?(?:map|set)|(?:multi)?(?:map|set)|"
    r"(?:flat|node)_hash_(?:map|set))\s*"
    r"<\s*(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*")
PTR_FUNCTOR_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:hash|less|greater)\s*<[^<>]*\*\s*>")
SORT_PTR_CMP_RE = re.compile(
    r"\bsort\s*\([^;]*\[[^\]]*\]\s*\(\s*(?:const\s+)?[A-Za-z_][\w:]*\s*"
    r"\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*,\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*\s*\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*\)")
# The unseeded process-local hash. The *instantiation* is the source
# signal (not the call parens: `std::hash<T>{}(x)`'s braces are statement
# separators to split_statements, so the call shape never survives into
# one flattened statement).
STD_HASH_CALL_RE = re.compile(r"\bstd\s*::\s*hash\s*<")
FP_LOCAL_TYPE_RE = re.compile(r"^(?:long\s+)?(?:double|float)\b")
FP_ACCUM_RE = re.compile(
    r"(?:^|[^\w.])((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*\+=")
FP_METRIC_ACCUM_RE = re.compile(
    r"(?:\.|->)\s*\w+_seconds\s*(?:\[[^\]]*\])?\s*\+=")
# Deferred-task containers (work-stealing pool batches): lambdas pushed
# into one run on pool workers, so FP accumulation inside them follows
# completion order exactly like a std::thread body.
TASK_CONTAINER_TYPE_RE = re.compile(
    r"\bvector\s*<\s*(?:std\s*::\s*)?(?:function|packaged_task)\b")


def _model_sink_of(text):
    """(kind, spelling) of the first model sink in this statement text, or
    None. The kind string is used verbatim in finding messages."""
    for m in CALL_RE.finditer(text):
        method = m.group(2)
        if method in MODEL_EMIT_METHODS:
            return ("emitted record", method)
        if WIRE_METHOD_RE.match(method):
            return ("wire encoding", method)
    m = METRIC_SINK_RE.search(text)
    if m:
        return ("modeled-metric mutation", m.group(0).strip())
    return None


def _range_for_parts(text):
    """(container_expr, inline_body) when the statement is a range-for
    head, else None. A brace-less `for (x : c) sink();` keeps its body in
    the same flattened statement; it is returned as inline_body."""
    m = re.match(r"^for\s*\(", text)
    if not m:
        return None
    depth = 0
    colon = -1
    close = len(text)
    for j in range(m.end() - 1, len(text)):
        c = text[j]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                close = j
                break
        elif c == ":" and depth == 1 and colon < 0:
            if text[j - 1] != ":" and text[j + 1:j + 2] != ":":
                colon = j
    if colon < 0:
        return None
    return (text[colon + 1:close].strip(), text[close + 1:].strip())


def _container_base(expr):
    """Last path component of a plain variable/field expression
    (`sketch_->skew_index_` -> `skew_index_`); None for anything computed
    (calls, indexing), which the rules skip precision-first."""
    expr = expr.replace("->", ".").strip()
    m = re.match(r"^[&*]*\s*(?:[A-Za-z_]\w*\s*\.\s*)*([A-Za-z_]\w*)\s*$",
                 expr)
    return m.group(1) if m else None


def _class_of(fn):
    """Enclosing class: inline methods carry it on the Function; out-of-
    line definitions spell it in the qualified name."""
    if "::" in fn.name:
        return fn.name.split("::")[-2].strip()
    return fn.class_name


def unordered_field_set(irs):
    """(class, field) of every unordered-container data member across the
    scan, so a .cc method sees the container type its header declares."""
    fields = set()
    for ir in irs:
        for field in ir.fields:
            if UNORDERED_TYPE_RE.search(field.type_text):
                fields.add((field.class_name, field.name))
    return fields


def _unordered_loop_regions(fn, unordered_fields):
    """[(start_idx, end_idx, inline_body)) of range-fors over unordered
    containers: fields of the function's class, unordered-typed params,
    and unordered-typed locals declared earlier in the function."""
    cls = _class_of(fn)
    names = {fname for (fcls, fname) in unordered_fields if fcls == cls}
    names.update(pname for (ptype, pname) in fn.params
                 if UNORDERED_TYPE_RE.search(ptype))
    regions = []
    for idx, stmt in enumerate(fn.stmts):
        decl = _decl_of(stmt.text)
        if decl and UNORDERED_TYPE_RE.search(decl[0]):
            names.add(decl[1])
        parts = _range_for_parts(stmt.text)
        if not parts:
            continue
        base = _container_base(parts[0])
        if base is None or base not in names:
            continue
        end = idx + 1
        while end < len(fn.stmts) and fn.stmts[end].depth > stmt.depth:
            end += 1
        regions.append((idx, end, parts[1]))
    return regions


def check_unordered_iteration_escape(ir, pragmas, findings,
                                     unordered_fields):
    for fn in ir.functions:
        for start, end, inline_body in _unordered_loop_regions(
                fn, unordered_fields):
            head = fn.stmts[start]
            sink = _model_sink_of(inline_body) if inline_body else None
            for j in range(start + 1, end):
                if sink:
                    break
                sink = _model_sink_of(fn.stmts[j].text)
            if sink and not pragmas.allows("unordered-iteration-escape",
                                           head.line):
                container = _container_base(
                    _range_for_parts(head.text)[0])
                findings.append(Finding(
                    ir.relpath, head.line, "unordered-iteration-escape",
                    "iterates unordered container '%s' and the loop body "
                    "reaches a model sink (%s '%s'); the %s then follows "
                    "hash-table iteration order — sort keys into a vector "
                    "first and iterate that" % (container, sink[0],
                                                sink[1], sink[0])))


def check_pointer_order_dependence(ir, pragmas, findings):
    for field in ir.fields:
        if PTR_KEYED_CONTAINER_RE.search(field.type_text) or \
                PTR_FUNCTOR_RE.search(field.type_text):
            if not pragmas.allows("pointer-order-dependence", field.line):
                findings.append(Finding(
                    ir.relpath, field.line, "pointer-order-dependence",
                    "data member '%s::%s' keys or orders by raw pointer "
                    "value (%s); addresses differ across runs, so any "
                    "order derived from them is irreproducible — key by "
                    "value (GroupKey, index) instead"
                    % (field.class_name, field.name, field.type_text)))
    for fn in ir.functions:
        for idx, stmt in enumerate(fn.stmts):
            text = stmt.text
            decl = _decl_of(text)
            hit = None
            if decl and (PTR_KEYED_CONTAINER_RE.search(decl[0]) or
                         PTR_FUNCTOR_RE.search(decl[0])):
                hit = ("declares '%s' keyed or ordered by raw pointer "
                       "value (%s)" % (decl[1], decl[0]))
            elif PTR_FUNCTOR_RE.search(text):
                hit = ("instantiates a pointer-keyed ordering/hash "
                       "functor (%s)" % PTR_FUNCTOR_RE.search(text)
                       .group(0))
            if hit and not pragmas.allows("pointer-order-dependence",
                                          stmt.line):
                findings.append(Finding(
                    ir.relpath, stmt.line, "pointer-order-dependence",
                    hit + "; addresses differ across runs — key by value "
                    "instead"))
            # Sort comparator ordering by raw pointer value: the lambda
            # head sits in this statement, its `return a < b` in the
            # nested region.
            cm = SORT_PTR_CMP_RE.search(text)
            if not cm:
                continue
            a, b = cm.group(1), cm.group(2)
            cmp_re = re.compile(
                r"(?<![\w.>])(?:%s\s*[<>]\s*%s|%s\s*[<>]\s*%s)(?![\w(])"
                % (re.escape(a), re.escape(b), re.escape(b),
                   re.escape(a)))
            j = idx + 1
            while j < len(fn.stmts) and fn.stmts[j].depth > stmt.depth:
                if cmp_re.search(fn.stmts[j].text):
                    if not pragmas.allows("pointer-order-dependence",
                                          fn.stmts[j].line):
                        findings.append(Finding(
                            ir.relpath, fn.stmts[j].line,
                            "pointer-order-dependence",
                            "sort comparator orders '%s'/'%s' by raw "
                            "pointer value; addresses differ across runs "
                            "— compare the pointees (*%s < *%s) or a "
                            "stable key instead" % (a, b, a, b)))
                    break
                j += 1


def check_unseeded_hash_in_model(ir, pragmas, findings):
    # The assignment target left of the first (compound) assignment; the
    # declared type may be multi-word (`unsigned long long h = ...`), so
    # this is keyed on the name adjacent to `=`, not on _decl_of.
    assign_re = re.compile(r"([A-Za-z_]\w*)\s*(?:[-+|&^]=|=(?!=))")
    for fn in ir.functions:
        tainted = set()
        for stmt in fn.stmts:
            text = stmt.text
            sink = _model_sink_of(text)
            direct = STD_HASH_CALL_RE.search(text) is not None
            carried = [v for v in sorted(tainted)
                       if _word_re(v).search(text)]
            if sink and (direct or carried):
                if not pragmas.allows("unseeded-hash-in-model",
                                      stmt.line):
                    source = "a std::hash value reaches" if direct else \
                        "'%s' carries a std::hash value into" % carried[0]
                    findings.append(Finding(
                        ir.relpath, stmt.line, "unseeded-hash-in-model",
                        "%s a model sink (%s '%s'); std::hash is "
                        "unseeded and implementation-defined — hash "
                        "through common/hash.h (HashBytes/Mix64) for "
                        "anything that escapes the process"
                        % (source, sink[0], sink[1])))
                continue
            am = assign_re.search(text)
            if am and (direct or any(_word_re(v).search(text[am.end():])
                                     for v in tainted)):
                tainted.add(am.group(1))  # seed or one-hop: x = h ^ salt


def _task_container_regions(fn):
    """Worker regions the float rule adds on top of _spawn_regions:
    lambdas pushed into a declared std::function/packaged_task container
    (a pool batch) run on pool workers in completion order."""
    task_vars = set()
    regions = []
    for idx, stmt in enumerate(fn.stmts):
        decl = _decl_of(stmt.text)
        if decl and TASK_CONTAINER_TYPE_RE.search(decl[0]):
            task_vars.add(decl[1])
        m = CONTAINER_SPAWN_RE.match(stmt.text)
        if m and m.group(1) in task_vars:
            end = idx + 1
            while end < len(fn.stmts) and fn.stmts[end].depth > stmt.depth:
                end += 1
            regions.append((idx, end))
    return regions


def check_float_accumulation_order(ir, pragmas, findings,
                                   unordered_fields):
    for fn in ir.functions:
        fp_locals = set()
        for stmt in fn.stmts:
            decl = _decl_of(stmt.text)
            if decl and FP_LOCAL_TYPE_RE.match(decl[0]):
                fp_locals.add(decl[1])
        regions = [(s, e, "hash-table iteration order", b)
                   for s, e, b in _unordered_loop_regions(
                       fn, unordered_fields)]
        regions += [(s, e, "thread-completion order", "")
                    for s, e in _spawn_regions(fn)]
        regions += [(s, e, "thread-completion order", "")
                    for s, e in _task_container_regions(fn)]
        reported = set()
        for start, end, order, inline_body in regions:
            texts = [(fn.stmts[start].line, inline_body)] if inline_body \
                else []
            texts += [(fn.stmts[j].line, fn.stmts[j].text)
                      for j in range(start + 1, end)]
            for line, text in texts:
                if line in reported:
                    continue
                target = None
                if FP_METRIC_ACCUM_RE.search(text):
                    target = "a modeled *_seconds metric"
                else:
                    am = FP_ACCUM_RE.search(text)
                    if am:
                        base = am.group(1).replace("->", ".") \
                            .split(".")[-1]
                        if base in fp_locals:
                            target = "floating-point local '%s'" % base
                if target and not pragmas.allows(
                        "float-accumulation-order", line):
                    reported.add(line)
                    findings.append(Finding(
                        ir.relpath, line, "float-accumulation-order",
                        "+= onto %s inside a region that runs in %s; FP "
                        "addition is not associative, so the total "
                        "depends on that order — accumulate in index "
                        "order or stage per-partition slots and merge "
                        "after the join (docs/INTERNALS.md §14)"
                        % (target, order)))


def _is_thread_spawn(text, thread_vars):
    """True when this statement constructs a thread (or enqueues onto a
    declared thread container) with an inline lambda."""
    if THREAD_CTOR_LAMBDA_RE.search(text):
        return True
    m = CONTAINER_SPAWN_RE.match(text)
    return bool(m and m.group(1) in thread_vars)


def _spawn_regions(fn):
    """[(start_idx, end_idx)) statement ranges of worker-lambda bodies: the
    spawn statement itself (whose text holds the capture list) plus every
    following statement nested deeper than the spawn."""
    thread_vars = set()
    regions = []
    for idx, stmt in enumerate(fn.stmts):
        decl = _decl_of(stmt.text)
        if decl and THREAD_TYPE_RE.search(decl[0]):
            thread_vars.add(decl[1])
        if _is_thread_spawn(stmt.text, thread_vars):
            end = idx + 1
            while end < len(fn.stmts) and fn.stmts[end].depth > stmt.depth:
                end += 1
            regions.append((idx, end))
    return regions


def _word_re(name):
    return re.compile(r"(?<![\w.])%s\b" % re.escape(name))


def _decl_of(stmt_text):
    """(type, name, init) if the statement is a simple declaration. The
    type/name separator (whitespace or * & &&) is mandatory so that a plain
    assignment like `key = ...` cannot backtrack into type `ke`, name `y`."""
    m = re.match(
        r"^(?:const\s+)?(?:constexpr\s+)?"
        r"((?:auto|[A-Za-z_][\w:]*)(?:\s*<[^;]*?>)?)"
        r"(\s+|\s*(?:\*|&&|&)\s*)"
        r"([A-Za-z_]\w*)\s*(?:(=|\{|\()\s*(.*))?$", stmt_text, re.S)
    if not m:
        return None
    type_text = (m.group(1) + m.group(2)).strip()
    head = m.group(1).split("<")[0].split("::")[-1].strip()
    if head in KEYWORD_HEADS or head in ("using", "namespace", "template",
                                         "typedef", "goto", "break",
                                         "continue", "public", "private",
                                         "protected", "else"):
        return None
    return (type_text, m.group(3), m.group(5) or "")


def check_view_escape(ir, pragmas, findings):
    # (a) view-typed data members.
    for field in ir.fields:
        if VIEW_TYPE_RE.search(field.type_text) and \
                not field.type_text.rstrip().endswith("&"):
            if pragmas.allows("view-escape", field.line):
                continue
            findings.append(Finding(
                ir.relpath, field.line, "view-escape",
                "data member '%s::%s' stores a borrowed view (%s); views "
                "are function-parameter and stack objects — either own the "
                "bytes alongside the view or document the co-ownership "
                "with an allow pragma" % (field.class_name, field.name,
                                          field.type_text)))
    for fn in ir.functions:
        locals_owner = {}
        for stmt in fn.stmts:
            decl = _decl_of(stmt.text)
            if decl and OWNER_TYPE_RE.match(decl[0]):
                locals_owner[decl[1]] = decl[0]
            # (c) by-reference capture stored into a deferred callback slot.
            m = CALLBACK_SLOT_RE.search(stmt.text)
            if m and not pragmas.allows("view-escape", stmt.line):
                findings.append(Finding(
                    ir.relpath, stmt.line, "view-escape",
                    "by-reference lambda capture stored into deferred "
                    "callback slot; capture what the callback needs "
                    "explicitly (by value) so it cannot dangle"))
            # (b) returning a view rooted at a function-local owner.
            if RETURN_VIEW_TYPE_RE.match(fn.return_type) and \
                    stmt.text.startswith("return"):
                rm = RETURN_VIEW_ROOT_RE.match(stmt.text)
                if rm and rm.group(1) in locals_owner and \
                        not pragmas.allows("view-escape", stmt.line):
                    findings.append(Finding(
                        ir.relpath, stmt.line, "view-escape",
                        "returns a view into function-local owner '%s' "
                        "(%s), which is destroyed when the function "
                        "returns" % (rm.group(1),
                                     locals_owner[rm.group(1)])))


def check_arena_escape(ir, pragmas, findings):
    for fn in ir.functions:
        derived = {}   # var -> (arena_path, stmt_index)
        dead = {}      # arena_path -> stmt index of Reset()
        for idx, stmt in enumerate(fn.stmts):
            text = stmt.text
            # A swap or move transfers the chunks between arenas; stop
            # tracking both sides rather than guessing the alias flow.
            if re.search(r"\bswap\s*\(", text) or "std::move" in text:
                involved = set(re.findall(r"[A-Za-z_]\w*(?:(?:\.|->)"
                                          r"[A-Za-z_]\w*)*", text))
                involved = {p.replace("->", ".") for p in involved}
                dead = {a: i for a, i in dead.items() if a not in involved}
                derived = {v: (a, i) for v, (a, i) in derived.items()
                           if a not in involved}
            for m in CALL_RE.finditer(text):
                recv = m.group(1).replace("->", ".")
                method = m.group(2)
                if method == "Reset":
                    dead[recv] = idx
                if method in ARENA_DERIVE_METHODS:
                    decl = _decl_of(text)
                    assigned = None
                    if decl and decl[2]:
                        assigned = decl[1]
                    else:
                        am = re.match(r"^([A-Za-z_]\w*)\s*=", text)
                        if am:
                            assigned = am.group(1)
                    if assigned:
                        derived[assigned] = (recv, idx)
            # Uses of derived pointers after their arena died.
            for var, (arena, bind_idx) in list(derived.items()):
                died = dead.get(arena)
                if died is None or bind_idx > died:
                    continue
                if idx > died and _word_re(var).search(text):
                    if not pragmas.allows("arena-escape", stmt.line):
                        findings.append(Finding(
                            ir.relpath, stmt.line, "arena-escape",
                            "'%s' was derived from arena '%s' before its "
                            "Reset(); every address the arena handed out "
                            "is invalidated (and poisoned under "
                            "SPCUBE_LIFETIME_CHECKS) by Reset"
                            % (var, arena)))
                    del derived[var]


def check_emit_borrow(ir, pragmas, findings):
    for fn in ir.functions:
        bindings = {}   # view var -> (buffer path, stmt index)
        last_mut = {}   # buffer path -> stmt index
        for idx, stmt in enumerate(fn.stmts):
            text = stmt.text
            bm = VIEW_BIND_RE.match(text)
            if bm:
                bindings[bm.group(1)] = (bm.group(2).replace("->", "."),
                                         idx)
            for m in CALL_RE.finditer(text):
                recv = m.group(1).replace("->", ".")
                method = m.group(2)
                if BUFFER_MUTATORS_RE.match(method):
                    last_mut[recv] = idx
                if method in EMIT_METHODS:
                    args_start = text.index("(", m.end(2))
                    args_end = _match_balanced(text, args_start, "(", ")")
                    args = text[args_start + 1:
                                args_end - 1 if args_end > 0 else len(text)]
                    for var, (buf, bind_idx) in bindings.items():
                        mut_idx = last_mut.get(buf)
                        if mut_idx is None or not (bind_idx < mut_idx <=
                                                   idx):
                            continue
                        if _word_re(var).search(args) and \
                                not pragmas.allows("emit-borrow", stmt.line):
                            findings.append(Finding(
                                ir.relpath, stmt.line, "emit-borrow",
                                "'%s' views buffer '%s', which was "
                                "mutated after the view was bound; the "
                                "emit reads reused bytes — re-take the "
                                "view at the call site or copy before "
                                "mutating" % (var, buf)))


def check_status_flow(ir, pragmas, findings):
    for fn in ir.functions:
        for_result = {}  # var -> decl stmt index
        guarded = set()
        reported = set()
        for idx, stmt in enumerate(fn.stmts):
            text = stmt.text
            rm = RESULT_DECL_RE.match(text)
            is_decl_stmt = rm is not None
            if rm:
                for_result[rm.group(1)] = idx
            for var in list(for_result):
                if var in reported:
                    continue
                if re.search(r"\b%s\s*\.\s*(ok|status)\s*\(" %
                             re.escape(var), text):
                    guarded.add(var)
                    continue
                if is_decl_stmt and rm.group(1) == var:
                    continue
                unwrap = re.search(
                    r"\b%s\s*\.\s*value\s*\(|\b%s\s*->|"
                    r"\*\s*%s\b|move\s*\(\s*%s\s*\)\s*\.\s*value" %
                    ((re.escape(var),) * 4), text)
                if unwrap and var not in guarded:
                    reported.add(var)
                    if not pragmas.allows("status-flow", stmt.line):
                        findings.append(Finding(
                            ir.relpath, stmt.line, "status-flow",
                            "Result '%s' is unwrapped before any ok() "
                            "check on it; an error here aborts the "
                            "process — check ok() first or use "
                            "SPCUBE_ASSIGN_OR_RETURN" % var))


def check_thread_capture_escape(ir, pragmas, findings):
    for fn in ir.functions:
        thread_vars = set()
        for stmt in fn.stmts:
            decl = _decl_of(stmt.text)
            if decl and THREAD_TYPE_RE.search(decl[0]):
                thread_vars.add(decl[1])
            if not _is_thread_spawn(stmt.text, thread_vars):
                continue
            if BLANKET_CAPTURE_RE.search(stmt.text) and \
                    not pragmas.allows("thread-capture-escape", stmt.line):
                findings.append(Finding(
                    ir.relpath, stmt.line, "thread-capture-escape",
                    "blanket by-reference capture into a worker thread; "
                    "name everything crossing the thread boundary with "
                    "explicit init-captures so each shared object is "
                    "visibly mutex-guarded, atomic, or indexed disjointly "
                    "per worker (docs/INTERNALS.md §12)"))


def check_lock_discipline(ir, pragmas, findings, guarded):
    by_class = {}
    for (cls, fname), mu in guarded.items():
        by_class.setdefault(cls, {})[fname] = mu
    for fn in ir.functions:
        cls = fn.class_name
        if "::" in fn.name:
            cls = fn.name.split("::")[-2].strip()
        if cls not in by_class:
            continue
        bare = fn.name.split("::")[-1].strip()
        if bare == cls or bare.startswith("~"):
            # Constructors/destructors run before/after any sharing.
            continue
        if NO_TSA_RE.search(fn.prelude):
            # Deliberate, annotated opt-out (e.g. a read-after-join
            # accessor); Clang skips these functions too.
            continue
        fields = by_class[cls]
        held = set()
        req = REQUIRES_RE.search(fn.prelude)
        if req:
            held.update(re.findall(r"[A-Za-z_]\w*", req.group(1)))
        reported = set()
        for stmt in fn.stmts:
            if LOCK_ACQ_RE.search(stmt.text):
                # Precision-first: any scoped acquisition naming the mutex
                # counts from here on (scope exits are not tracked).
                for mu in set(fields.values()):
                    if _word_re(mu).search(stmt.text):
                        held.add(mu)
                continue
            for fname, mu in fields.items():
                if mu in held or fname in reported:
                    continue
                if _word_re(fname).search(stmt.text):
                    reported.add(fname)
                    if not pragmas.allows("lock-discipline", stmt.line):
                        findings.append(Finding(
                            ir.relpath, stmt.line, "lock-discipline",
                            "'%s::%s' is SPCUBE_GUARDED_BY(%s) but is "
                            "touched with no %s acquisition in scope; "
                            "take a MutexLock first or annotate the "
                            "function SPCUBE_REQUIRES(%s)"
                            % (cls, fname, mu, mu, mu)))


def check_rng_thread_share(ir, pragmas, findings):
    for fn in ir.functions:
        rng_decl_idx = {}
        for idx, stmt in enumerate(fn.stmts):
            decl = _decl_of(stmt.text)
            if decl and RNG_TYPE_RE.match(decl[0]):
                rng_decl_idx[decl[1]] = idx
        if not rng_decl_idx:
            continue
        reported = set()
        for start, end in _spawn_regions(fn):
            for rng, decl_idx in rng_decl_idx.items():
                if start <= decl_idx < end or rng in reported:
                    # Declared inside the worker lambda: per-worker state,
                    # the sanctioned shape.
                    continue
                for j in range(start, end):
                    if j == decl_idx:
                        continue
                    stmt = fn.stmts[j]
                    if _word_re(rng).search(stmt.text):
                        reported.add(rng)
                        if not pragmas.allows("rng-thread-share",
                                              stmt.line):
                            findings.append(Finding(
                                ir.relpath, stmt.line, "rng-thread-share",
                                "seeded Rng '%s' is declared outside this "
                                "worker lambda but used inside it; shared "
                                "RNG draws depend on thread interleaving "
                                "and break determinism — construct a "
                                "per-worker Rng inside the lambda from "
                                "stable coordinates" % rng))
                        break


def run_rules(ir, pragmas, findings, guarded=None, unordered_fields=None):
    if guarded is None:
        guarded = guarded_field_map([ir])
    if unordered_fields is None:
        unordered_fields = unordered_field_set([ir])
    check_view_escape(ir, pragmas, findings)
    check_arena_escape(ir, pragmas, findings)
    check_emit_borrow(ir, pragmas, findings)
    check_status_flow(ir, pragmas, findings)
    check_thread_capture_escape(ir, pragmas, findings)
    check_lock_discipline(ir, pragmas, findings, guarded)
    check_rng_thread_share(ir, pragmas, findings)
    check_unordered_iteration_escape(ir, pragmas, findings,
                                     unordered_fields)
    check_pointer_order_dependence(ir, pragmas, findings)
    check_unseeded_hash_in_model(ir, pragmas, findings)
    check_float_accumulation_order(ir, pragmas, findings,
                                   unordered_fields)


# ---------------------------------------------------------------------------
# Backends.
# ---------------------------------------------------------------------------

class InternalBackend:
    name = "internal"

    def build(self, abspath, relpath):
        """(FileIR, PragmaIndex) of one file; rules run later so that
        cross-file guarded-field annotations are visible to every file."""
        with open(abspath, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
        code = _strip_comments_and_strings(raw)
        pragmas = PragmaIndex(raw.split("\n"), relpath)
        ir = build_ir_internal(code, relpath)
        return ir, pragmas


class LibclangBackend:
    """AST-accurate extents and types from clang.cindex; statement-level
    events still flow through the shared micro-IR, so findings line up with
    the internal backend."""

    name = "libclang"

    def __init__(self, compile_commands_path):
        import clang.cindex as cindex  # noqa: F401 (availability probe)
        self._cindex = cindex
        self._ensure_library()
        self._index = cindex.Index.create()
        self._args_by_file = {}
        if compile_commands_path and os.path.isfile(compile_commands_path):
            with open(compile_commands_path, "r", encoding="utf-8") as f:
                for entry in json.load(f):
                    args = entry.get("arguments")
                    if not args and "command" in entry:
                        args = entry["command"].split()
                    filtered = self._filter_args(args or [])
                    path = os.path.normpath(os.path.join(
                        entry.get("directory", "."), entry["file"]))
                    self._args_by_file[path] = (filtered,
                                                entry.get("directory", "."))

    def _ensure_library(self):
        cindex = self._cindex
        try:
            cindex.conf.lib  # probes that a libclang shared object loads
            return
        except Exception:
            pass
        import ctypes.util
        for candidate in (os.environ.get("SPCUBE_LIBCLANG"),
                          ctypes.util.find_library("clang"),
                          "libclang.so", "libclang.so.1"):
            if not candidate:
                continue
            try:
                cindex.Config.set_library_file(candidate)
                cindex.conf.lib
                return
            except Exception:
                cindex.Config.loaded = False
                continue
        raise RuntimeError("no loadable libclang shared library")

    @staticmethod
    def _filter_args(args):
        out = []
        skip_next = False
        for a in args[1:]:  # drop the compiler executable
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", "-o"):
                skip_next = a == "-o"
                continue
            if a.endswith((".cc", ".cpp", ".cxx", ".o")):
                continue
            out.append(a)
        return out

    def build(self, abspath, relpath):
        cindex = self._cindex
        args, workdir = self._args_by_file.get(
            os.path.normpath(abspath), (["-std=c++20", "-xc++"], None))
        if workdir:
            args = list(args) + ["-working-directory=" + workdir]
        tu = self._index.parse(
            abspath, args=args,
            options=cindex.TranslationUnit.PARSE_INCOMPLETE |
            cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
        with open(abspath, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
        code = _strip_comments_and_strings(raw)
        pragmas = PragmaIndex(raw.split("\n"), relpath)
        ir = FileIR(relpath)
        self._walk(tu.cursor, abspath, code, ir)
        annotate_guarded_fields(ir, code)
        return ir, pragmas

    def _walk(self, cursor, abspath, code, ir, class_name=None):
        cindex = self._cindex
        K = cindex.CursorKind
        for child in cursor.get_children():
            loc = child.location
            if loc.file is not None and \
                    os.path.normpath(loc.file.name) != \
                    os.path.normpath(abspath):
                continue
            kind = child.kind
            if kind in (K.NAMESPACE, K.UNEXPOSED_DECL, K.LINKAGE_SPEC):
                self._walk(child, abspath, code, ir, class_name)
            elif kind in (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                for member in child.get_children():
                    if member.kind == K.FIELD_DECL:
                        ir.fields.append(Field(
                            child.spelling, member.type.spelling,
                            member.spelling, member.location.line))
                self._walk(child, abspath, code, ir, child.spelling)
            elif kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                          K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                if not child.is_definition():
                    continue
                body = None
                for sub in child.get_children():
                    if sub.kind == K.COMPOUND_STMT:
                        body = sub
                if body is None:
                    continue
                start = body.extent.start.offset
                end = body.extent.end.offset
                text = code[start + 1:max(start + 1, end - 1)]
                stmts = split_statements(text, body.extent.start.line)
                params = [(a.type.spelling, a.spelling)
                          for a in child.get_arguments()]
                # Prelude: source text between the function's start and its
                # body — holds cv-qualifiers and the (unexpanded, textual)
                # SPCUBE_ thread-safety annotations, same as the internal
                # backend sees.
                fn_start = child.extent.start.offset
                prelude = code[fn_start:start]
                # Out-of-line method definitions (`void Tally::Bump(...)`)
                # sit under the namespace in the AST; the semantic parent
                # recovers the class, matching the internal backend's
                # qualified-name parse.
                fn_class = class_name
                sem = child.semantic_parent
                if sem is not None and sem.kind in (
                        K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                    fn_class = sem.spelling
                ir.functions.append(Function(
                    child.spelling, child.result_type.spelling, params,
                    stmts, child.location.line, class_name=fn_class,
                    prelude=prelude))


def make_backend(requested, compile_commands):
    if requested in ("auto", "libclang"):
        try:
            return LibclangBackend(compile_commands)
        except Exception as e:  # ImportError or missing shared library
            if requested == "libclang":
                print("spcube_analyzer: libclang backend unavailable: %s"
                      % e, file=sys.stderr)
                return None
            print("spcube_analyzer: libclang unavailable (%s); "
                  "using the internal backend" % e, file=sys.stderr)
    return InternalBackend()


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def collect_paths(args_paths, root):
    paths = []
    skip_dirs = ("build", ".git")
    if not args_paths:
        args_paths = [os.path.join(root, d) for d in DEFAULT_SCAN_DIRS]
        skip_dirs += DEFAULT_SKIP_DIRS
    for p in args_paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = [d for d in dirnames if d not in skip_dirs]
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        paths.append(os.path.join(dirpath, name))
        elif os.path.isfile(p):
            paths.append(p)
        else:
            print("spcube_analyzer: no such path: %s" % p, file=sys.stderr)
            return None
    return paths


def print_summary(findings, backend_name, selected=None, note=""):
    """Per-rule finding-count table on stderr. Rendered even when the scan
    aborted (backend unavailable, bad path) so callers that parse the table
    — run_static_analysis.sh, check_all.sh — always see one."""
    rules = selected if selected is not None else RULES
    counts = {rule: 0 for rule in rules}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    header = "spcube_analyzer[%s] per-rule summary:" % backend_name
    if note:
        header += " " + note
    print(header, file=sys.stderr)
    for rule in sorted(counts):
        print("  %-24s %d" % (rule, counts[rule]), file=sys.stderr)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Lifetime & borrow checking for the zero-copy core.")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "internal", "libclang"],
                        help="AST backend (auto: libclang when available)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile database for the libclang backend "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--fast", action="store_true",
                        help="clean-tree-only mode: force the internal "
                             "backend (no translation-unit parsing)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule IDs and exit")
    parser.add_argument("--summary", action="store_true",
                        help="print a per-rule finding-count table to stderr")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule IDs to report (default: "
                             "all; the CI determinism leg uses this to run "
                             "just the §14 family)")
    parser.add_argument("--emit-sarif", default=None, metavar="PATH",
                        help="also write the findings as SARIF 2.1.0 (for "
                             "PR annotation)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/ and "
                             "tests/ under --root, minus fixtures/)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    selected = None
    if args.rules is not None:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in RULES]
        if unknown:
            print("spcube_analyzer: unknown rule(s): %s (see --list-rules)"
                  % ", ".join(unknown), file=sys.stderr)
            return 2

    root = args.root or os.path.normpath(os.path.join(_HERE, "..", ".."))
    compile_commands = args.compile_commands or os.path.join(
        root, "build", "compile_commands.json")
    backend = make_backend("internal" if args.fast else args.backend,
                           compile_commands)
    if backend is None:
        if args.summary:
            print_summary([], "unavailable", selected,
                          note="(scan aborted: backend unavailable)")
        return 2
    paths = collect_paths(args.paths, root)
    if paths is None:
        if args.summary:
            print_summary([], backend.name, selected,
                          note="(scan aborted: path error)")
        return 2

    # Two phases so cross-file contracts work: first lower every file to the
    # micro-IR (collecting SPCUBE_GUARDED_BY annotations from headers), then
    # run the rules per file against the scan-wide guarded-field map — a .cc
    # method sees the mutex contract its header declares.
    built = []
    findings = []
    for p in sorted(paths):
        rel = os.path.relpath(p, root)
        ir, pragmas = backend.build(p, rel)
        findings.extend(pragmas.pragma_findings)
        built.append((ir, pragmas))
    guarded = guarded_field_map([ir for ir, _ in built])
    unordered_fields = unordered_field_set([ir for ir, _ in built])
    for ir, pragmas in built:
        run_rules(ir, pragmas, findings, guarded, unordered_fields)
    if selected is not None:
        findings = [f for f in findings if f.rule in selected]
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    for finding in findings:
        print(finding)
    if args.summary:
        print_summary(findings, backend.name, selected)
    if args.emit_sarif:
        write_sarif(args.emit_sarif, "spcube-analyzer",
                    selected if selected is not None else RULES, findings)
    if findings:
        print("spcube_analyzer[%s]: %d finding(s) in %d file(s) scanned"
              % (backend.name, len(findings), len(paths)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
