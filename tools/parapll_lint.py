#!/usr/bin/env python3
"""parapll project linter: conventions a compiler cannot check.

Rules
-----
naked-new
    `new` / `delete` outside the allowlisted files. The project owns
    memory with containers and smart pointers; the only exceptions are
    the deliberately-leaked process-lifetime singletons in src/obs/.

memory-order-justification
    Every `std::memory_order_*` argument must carry a justification
    comment — on the same line or within the three lines above it.
    Relaxed atomics are correct only for a reason; the reason belongs in
    the source, next to the ordering it justifies.

raw-sync-primitive
    `std::mutex` / `std::lock_guard` / `std::condition_variable` and
    friends outside src/util/mutex.hpp. Project code must use the
    annotated util::Mutex / util::MutexLock / util::CondVar wrappers so
    Clang's -Wthread-safety analysis sees every lock. Allowlisted
    exception: ConcurrentLabelStore, whose data-dependent row locks are
    deliberately raw behind a logical capability (see its file comment).

include-hygiene
    Headers listed as private to a library may only be included from
    inside that library's directory.

hot-path-banned-call
    Files on the hot-path list (the query inner loop, Pruned Dijkstra,
    the concurrent label store, the root loop) must not call stdio /
    iostream / allocation-by-hand routines.

signal-context-banned-call
    Code between `// parapll-lint: begin-signal-context` and
    `// parapll-lint: end-signal-context` markers runs inside a signal
    handler and may only use async-signal-safe constructs: no
    allocation (`new` / `malloc`), no locks, no stdio, no std::string,
    no exceptions, no `backtrace_symbols` (it allocates — symbolize on
    drain instead). Unbalanced markers are themselves findings.

untrusted-decode-alloc
    Inside a `// parapll-lint: begin-untrusted-decode` /
    `end-untrusted-decode` region (code that parses attacker-supplied
    bytes), every `reserve` / `resize` / `new[]` must carry a
    bounds-justification comment — on the same line or within the three
    lines above it — saying why the size cannot be driven by a hostile
    declared count (capped, held to bytes actually present, etc.).

untrusted-decode-entry
    A decoder-shaped function definition (`Deserialize` / `Decode*` /
    `Read*` / `Parse*` / `Validate*` taking a stream, string_view, raw
    byte pointer, or wire Payload) in src/ outside any
    untrusted-decode region. New decoders must opt into the discipline
    by marking the region. Allowlisted exception: src/obs/profiler.cpp
    (parses its own process's backtrace output, not foreign bytes).

untrusted-decode-markers
    Unbalanced begin/end-untrusted-decode markers (nested begin,
    dangling end, begin never closed).

cross-library-definition
    A .cpp under src/<dir>/ opening a namespace other than its own
    library's: parapll::<dir>, except src/parapll/ -> parapll::parallel
    and src/core/ -> parapll itself. Namespaces nested inside the own one
    and anonymous namespaces are fine, as is opening bare `parapll` to
    nest the own namespace in it. A definition in another library's
    namespace sits above the library that declares it in link order and
    hides an inverted dependency. Headers may still forward-declare
    (obs/trace.hpp names util::JsonWriter).

Usage
-----
    tools/parapll_lint.py [--root DIR] [--json] [files...]
    tools/parapll_lint.py --self-test

With no files, scans src/ tests/ bench/ examples/ tools/ under --root
(default: the repository root containing this script), skipping the
lint_fixtures tree. Exit codes: 0 clean, 1 findings (or self-test
failure), 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

# --- configuration ---------------------------------------------------------

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h")

# Deliberately-leaked process-lifetime singletons.
NAKED_NEW_ALLOWLIST = {
    "src/obs/metrics.cpp",
    "src/obs/trace.cpp",
    "src/obs/telemetry.cpp",
    "src/obs/expose.cpp",
    "src/obs/profiler.cpp",
}

# The annotated wrappers themselves, plus the one documented exception
# (data-dependent row locks behind a logical capability).
RAW_SYNC_ALLOWLIST = {
    "src/util/mutex.hpp",
    "src/parapll/concurrent_label_store.hpp",
    "src/parapll/concurrent_label_store.cpp",
}

# Private header -> directory prefixes that may include it.
PRIVATE_HEADERS = {
    "build/root_loop.hpp": ("src/build/",),
}

# src/<dir>/ -> the namespace under `parapll` its .cpp files define into,
# where it is not <dir> itself ("" = parapll, the umbrella).
LIBRARY_NAMESPACES = {
    "parapll": "parallel",
    "core": "",
}

# Files forming the latency-critical paths.
HOT_FILES = {
    "src/pll/pruned_dijkstra.hpp",
    "src/pll/index.cpp",
    "src/query/query_engine.cpp",
    "src/parapll/concurrent_label_store.hpp",
    "src/parapll/concurrent_label_store.cpp",
    "src/build/root_loop.hpp",
}

RAW_SYNC_TOKENS = (
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::condition_variable",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
)

HOT_BANNED_TOKENS = (
    "std::cout",
    "std::cerr",
    "std::endl",
    "printf",
    "fprintf",
    "sprintf",
    "malloc(",
    "calloc(",
    "free(",
    "getenv(",
    "system(",
)

SIGNAL_BEGIN_MARKER = "parapll-lint: begin-signal-context"
SIGNAL_END_MARKER = "parapll-lint: end-signal-context"

UNTRUSTED_BEGIN_MARKER = "parapll-lint: begin-untrusted-decode"
UNTRUSTED_END_MARKER = "parapll-lint: end-untrusted-decode"

# Decoders that parse bytes the process produced itself rather than
# foreign input (profiler: backtrace_symbols output on drain).
UNTRUSTED_ENTRY_ALLOWLIST = {
    "src/obs/profiler.cpp",
}

# An allocation whose size could come from a decoded count.
UNTRUSTED_ALLOC_RE = re.compile(
    r"\.\s*(reserve|resize)\s*\(|\bnew\b\s*(?:\([^)]*\))?\s*[\w:<>, ]*\["
)

# A bounds justification: the comment must say why the size is safe.
BOUNDS_COMMENT_RE = re.compile(
    r"(?i)bound|cap|limit|check|valid|proportional|exact|fit|held"
)

# A decoder-shaped name: the conventional entry-point spellings for code
# that turns untrusted bytes into structures.
UNTRUSTED_ENTRY_NAME_RE = re.compile(
    r"\b(?:[A-Za-z_]\w*::)?"
    r"(Deserialize|Decode[A-Z]\w*|Read[A-Z]\w*|Parse[A-Z]\w*|Validate[A-Z]\w*)"
    r"\s*\("
)

# Parameter types that mark the input as raw bytes from outside.
UNTRUSTED_PARAM_RE = re.compile(
    r"std::istream\s*&|std::string_view|const\s+char\s*\*"
    r"|const\s+std::uint8_t\s*\*|Payload\s*&"
)
# Constructs that are not async-signal-safe. `new` / `delete` are caught
# separately via NAKED_NEW_RE because signal-context files are usually on
# the naked-new allowlist (leaked singletons elsewhere in the file).
SIGNAL_BANNED_RE = re.compile(
    r"\b(malloc|calloc|realloc|free|printf|puts|fopen|fwrite|fputs"
    r"|throw|backtrace_symbols)\b"
    r"|std::(cout|cerr|string|mutex|lock_guard|unique_lock|scoped_lock"
    r"|condition_variable)"
    r"|util::Mutex|MutexLock|CondVar"
)

# A namespace opening (group 1 is its possibly qualified name, empty for
# an anonymous namespace) or any other brace, so nesting can be tracked.
NAMESPACE_BRACE_RE = re.compile(r"\bnamespace\s+([A-Za-z_][\w:]*)?\s*\{|[{}]")

MEMORY_ORDER_RE = re.compile(r"\bstd::memory_order_\w+")
# `new Foo` / `delete p` / `delete[] p` — but not deleted special member
# functions (`= delete`) or identifiers containing the words.
NAKED_NEW_RE = re.compile(r"(?<![=\w.])\s*\b(new|delete)\b(?!\s*[;,)])")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
COMMENT_JUSTIFICATION_WINDOW = 3


@dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str

    def text(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


# --- source model ----------------------------------------------------------


@dataclass
class SourceLine:
    raw: str   # the line as written
    code: str  # comments and string/char literals blanked out
    has_comment: bool
    comment: str  # text of any comment(s) on this line


def strip_line_states(text: str) -> list[SourceLine]:
    """Blank comments and literals, tracking which lines carry comments.

    A character-level scan handling //, /* */, "...", '...'. Raw string
    literals are treated as plain strings, which is fine for the tokens
    this linter looks for.
    """
    lines: list[SourceLine] = []
    code_chars: list[str] = []
    comment_chars: list[str] = []
    comment_here = False
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    while i <= len(text):
        ch = text[i] if i < len(text) else "\n"  # flush a final unterminated line
        nxt = text[i + 1] if i + 1 < len(text) else ""
        if ch == "\n":
            raw_start = sum(len(l.raw) + 1 for l in lines)
            raw = text[raw_start : i if i < len(text) else len(text)]
            lines.append(
                SourceLine(
                    "".join([raw]),
                    "".join(code_chars),
                    comment_here,
                    "".join(comment_chars),
                )
            )
            code_chars = []
            comment_chars = []
            # A // comment dies with its line; only a /* */ comment makes
            # the next line start inside a comment.
            comment_here = state == "block_comment"
            if state == "line_comment":
                state = "code"
            if i >= len(text):
                break
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                comment_here = True
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                comment_here = True
                i += 2
                continue
            if ch == '"':
                state = "string"
                code_chars.append('"')
                i += 1
                continue
            if ch == "'":
                prev = code_chars[-1] if code_chars else ""
                if prev.isalnum() or prev == "_":
                    # C++14 digit separator (10'000), not a char literal;
                    # treating it as one would swallow the rest of the
                    # line — including justification comments.
                    code_chars.append("'")
                    i += 1
                    continue
                state = "char"
                code_chars.append("'")
                i += 1
                continue
            code_chars.append(ch)
        elif state == "line_comment":
            comment_chars.append(ch)
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            comment_chars.append(ch)
        elif state == "string":
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                state = "code"
                code_chars.append('"')
        elif state == "char":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                state = "code"
                code_chars.append("'")
        i += 1
    # Drop the synthetic trailing empty line the flush can add.
    if lines and lines[-1].raw == "" and not text.endswith("\n"):
        pass
    return lines


# --- rules -----------------------------------------------------------------


def check_naked_new(rel: str, lines: list[SourceLine]) -> list[Finding]:
    if rel in NAKED_NEW_ALLOWLIST:
        return []
    out = []
    for idx, line in enumerate(lines, start=1):
        m = NAKED_NEW_RE.search(line.code)
        if m:
            out.append(
                Finding(
                    rel,
                    idx,
                    "naked-new",
                    f"naked `{m.group(1)}`: own memory with containers or "
                    "smart pointers (allowlisted leaked singletons live in "
                    "src/obs/)",
                )
            )
    return out


def check_memory_order(rel: str, lines: list[SourceLine]) -> list[Finding]:
    out = []
    for idx, line in enumerate(lines, start=1):
        m = MEMORY_ORDER_RE.search(line.code)
        if not m:
            continue
        justified = line.has_comment
        lo = max(0, idx - 1 - COMMENT_JUSTIFICATION_WINDOW)
        for prev in lines[lo : idx - 1]:
            if prev.has_comment:
                justified = True
                break
        if not justified:
            out.append(
                Finding(
                    rel,
                    idx,
                    "memory-order-justification",
                    f"`{m.group(0)}` without a justification comment on the "
                    f"same line or within {COMMENT_JUSTIFICATION_WINDOW} "
                    "lines above",
                )
            )
    return out


def check_raw_sync(rel: str, lines: list[SourceLine]) -> list[Finding]:
    if rel in RAW_SYNC_ALLOWLIST:
        return []
    out = []
    for idx, line in enumerate(lines, start=1):
        for token in RAW_SYNC_TOKENS:
            if token in line.code:
                out.append(
                    Finding(
                        rel,
                        idx,
                        "raw-sync-primitive",
                        f"`{token}`: use the annotated util::Mutex / "
                        "util::MutexLock / util::CondVar wrappers "
                        "(src/util/mutex.hpp) so -Wthread-safety sees the "
                        "lock",
                    )
                )
                break
    return out


def check_include_hygiene(rel: str, lines: list[SourceLine]) -> list[Finding]:
    out = []
    for idx, line in enumerate(lines, start=1):
        # Match against the raw line: the code view blanks string
        # contents, which is exactly where the include path lives. Guard
        # on the code view so commented-out includes don't count.
        if not line.code.lstrip().startswith("#"):
            continue
        m = INCLUDE_RE.match(line.raw)
        if not m:
            continue
        included = m.group(1)
        allowed = PRIVATE_HEADERS.get(included)
        if allowed is None:
            continue
        if not rel.startswith(allowed) and rel not in {
            "src/" + included
        }:
            out.append(
                Finding(
                    rel,
                    idx,
                    "include-hygiene",
                    f'"{included}" is private to {allowed[0]}; include it '
                    "only from there",
                )
            )
    return out


def check_hot_path(rel: str, lines: list[SourceLine]) -> list[Finding]:
    if rel not in HOT_FILES:
        return []
    out = []
    for idx, line in enumerate(lines, start=1):
        for token in HOT_BANNED_TOKENS:
            if token in line.code:
                out.append(
                    Finding(
                        rel,
                        idx,
                        "hot-path-banned-call",
                        f"`{token.rstrip('(')}` on a hot-path file: route "
                        "diagnostics through obs/ metrics or the caller",
                    )
                )
                break
    return out


def check_signal_context(rel: str, lines: list[SourceLine]) -> list[Finding]:
    out = []
    inside = False
    begin_line = 0
    for idx, line in enumerate(lines, start=1):
        if SIGNAL_BEGIN_MARKER in line.raw:
            if inside:
                out.append(
                    Finding(
                        rel,
                        idx,
                        "signal-context-banned-call",
                        "nested begin-signal-context marker (previous "
                        f"region opened on line {begin_line})",
                    )
                )
            inside = True
            begin_line = idx
            continue
        if SIGNAL_END_MARKER in line.raw:
            if not inside:
                out.append(
                    Finding(
                        rel,
                        idx,
                        "signal-context-banned-call",
                        "end-signal-context marker without a matching begin",
                    )
                )
            inside = False
            continue
        if not inside:
            continue
        m = SIGNAL_BANNED_RE.search(line.code)
        if m is None:
            naked = NAKED_NEW_RE.search(line.code)
            if naked is None:
                continue
            token = naked.group(1)
        else:
            token = m.group(0)
        out.append(
            Finding(
                rel,
                idx,
                "signal-context-banned-call",
                f"`{token}` inside a signal-handler region: only "
                "async-signal-safe constructs are allowed (no allocation, "
                "locks, stdio, std::string, exceptions, or "
                "backtrace_symbols)",
            )
        )
    if inside:
        out.append(
            Finding(
                rel,
                begin_line,
                "signal-context-banned-call",
                "begin-signal-context marker never closed",
            )
        )
    return out


def _untrusted_regions(
    rel: str, lines: list[SourceLine]
) -> tuple[list[tuple[int, int]], list[Finding]]:
    """Marker regions as (begin, end) line ranges, plus balance findings.

    An unclosed begin extends to end-of-file so code after it is still
    checked rather than silently skipped.
    """
    regions: list[tuple[int, int]] = []
    findings: list[Finding] = []
    begin_line = 0
    for idx, line in enumerate(lines, start=1):
        if UNTRUSTED_BEGIN_MARKER in line.raw:
            if begin_line:
                findings.append(
                    Finding(
                        rel,
                        idx,
                        "untrusted-decode-markers",
                        "nested begin-untrusted-decode marker (previous "
                        f"region opened on line {begin_line})",
                    )
                )
            else:
                begin_line = idx
            continue
        if UNTRUSTED_END_MARKER in line.raw:
            if not begin_line:
                findings.append(
                    Finding(
                        rel,
                        idx,
                        "untrusted-decode-markers",
                        "end-untrusted-decode marker without a matching "
                        "begin",
                    )
                )
            else:
                regions.append((begin_line, idx))
                begin_line = 0
    if begin_line:
        findings.append(
            Finding(
                rel,
                begin_line,
                "untrusted-decode-markers",
                "begin-untrusted-decode marker never closed",
            )
        )
        regions.append((begin_line, len(lines)))
    return regions, findings


def check_untrusted_decode(rel: str, lines: list[SourceLine]) -> list[Finding]:
    regions, out = _untrusted_regions(rel, lines)

    def in_region(idx: int) -> bool:
        return any(lo <= idx <= hi for lo, hi in regions)

    # Allocations inside a decode region need a bounds justification on
    # the same line or within the comment window above — same shape as
    # memory-order-justification.
    for idx, line in enumerate(lines, start=1):
        if not in_region(idx):
            continue
        m = UNTRUSTED_ALLOC_RE.search(line.code)
        if not m:
            continue
        justified = bool(BOUNDS_COMMENT_RE.search(line.comment))
        lo = max(0, idx - 1 - COMMENT_JUSTIFICATION_WINDOW)
        for prev in lines[lo : idx - 1]:
            if BOUNDS_COMMENT_RE.search(prev.comment):
                justified = True
                break
        if not justified:
            out.append(
                Finding(
                    rel,
                    idx,
                    "untrusted-decode-alloc",
                    "allocation in an untrusted-decode region without a "
                    "bounds-check comment on the same line or within "
                    f"{COMMENT_JUSTIFICATION_WINDOW} lines above: say why "
                    "the size cannot be driven by a hostile declared count",
                )
            )

    # Decoder-shaped definitions outside any region must opt in. Only
    # src/ is held to this; tests and tools parse trusted fixtures.
    if not rel.startswith("src/") or rel in UNTRUSTED_ENTRY_ALLOWLIST:
        return out
    for idx, line in enumerate(lines, start=1):
        if in_region(idx):
            continue
        m = UNTRUSTED_ENTRY_NAME_RE.search(line.code)
        if m is None:
            continue
        # Distinguish a definition from a declaration or a call: scan
        # forward from the match for whichever of `{` / `;` comes first.
        tail = line.code[m.start():]
        terminator = ""
        for look in range(idx, min(idx + 10, len(lines) + 1)):
            text = tail if look == idx else lines[look - 1].code
            tail_brace = text.find("{")
            tail_semi = text.find(";")
            if tail_brace >= 0 and (tail_semi < 0 or tail_brace < tail_semi):
                terminator = "{"
            elif tail_semi >= 0:
                terminator = ";"
            if terminator:
                break
        if terminator != "{":
            continue
        # Only flag decoders of raw outside bytes: the signature (same
        # forward window) must take a stream / view / byte pointer.
        signature = " ".join(
            (tail if look == idx else lines[look - 1].code)
            for look in range(idx, min(idx + 10, len(lines) + 1))
        )
        if not UNTRUSTED_PARAM_RE.search(signature.split("{")[0]):
            continue
        out.append(
            Finding(
                rel,
                idx,
                "untrusted-decode-entry",
                f"decoder-shaped definition `{m.group(1)}` outside an "
                "untrusted-decode region: wrap it in "
                "`// parapll-lint: begin-untrusted-decode` / "
                "`end-untrusted-decode` markers (or allowlist it if its "
                "input is process-internal)",
            )
        )
    return out


def check_cross_library(rel: str, lines: list[SourceLine]) -> list[Finding]:
    parts = rel.split("/")
    if len(parts) != 3 or parts[0] != "src" or not rel.endswith(".cpp"):
        return []
    own = LIBRARY_NAMESPACES.get(parts[1], parts[1])
    allowed = ["parapll"] + ([own] if own else [])
    code = "\n".join(line.code for line in lines)
    # One frame per open brace: the namespace components it added.
    frames: list[list[str]] = []
    out = []
    for m in NAMESPACE_BRACE_RE.finditer(code):
        token = m.group(0)
        if token == "}":
            if frames:
                frames.pop()
            continue
        added = [] if token == "{" else [p for p in (m.group(1) or "").split("::") if p]
        path = [p for frame in frames for p in frame] + added
        frames.append(added)
        if not added:
            continue
        inside_own = own != "" and path[: len(allowed)] == allowed
        enclosing_own = path == allowed[: len(path)]
        if inside_own or enclosing_own:
            continue
        out.append(
            Finding(
                rel,
                code.count("\n", 0, m.start()) + 1,
                "cross-library-definition",
                f"`namespace {'::'.join(path)}` opened in src/{parts[1]}/: "
                f"a source file defines only {'::'.join(allowed)} symbols; "
                "move the definition into the library that declares it",
            )
        )
    return out


RULES = (
    check_naked_new,
    check_memory_order,
    check_raw_sync,
    check_include_hygiene,
    check_hot_path,
    check_signal_context,
    check_untrusted_decode,
    check_cross_library,
)


def lint_file(root: str, rel: str) -> list[Finding]:
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(rel, 0, "io-error", str(e))]
    lines = strip_line_states(text)
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule(rel, lines))
    return findings


def discover(root: str) -> list[str]:
    rels: list[str] = []
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            # Skip the fixtures and any CMake build tree, but not by name:
            # src/build/ is a library.
            dirnames[:] = [
                d
                for d in dirnames
                if d != "lint_fixtures"
                and not os.path.exists(os.path.join(dirpath, d, "CMakeCache.txt"))
            ]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    rels.append(rel.replace(os.sep, "/"))
    return sorted(rels)


# --- self-test over the fixture tree ---------------------------------------


def self_test(fixtures_root: str) -> int:
    failures = 0
    checked = 0
    for kind in ("bad", "good"):
        kind_root = os.path.join(fixtures_root, kind)
        if not os.path.isdir(kind_root):
            print(f"self-test: missing fixture dir {kind_root}", file=sys.stderr)
            return 2
        # A tree scan must reach every fixture, src/build/ included.
        scanned = set(discover(kind_root))
        for dirpath, _, filenames in os.walk(kind_root):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), kind_root)
                rel = rel.replace(os.sep, "/")
                if rel not in scanned:
                    print(
                        f"self-test FAIL {kind}/{rel}: skipped by the tree scan",
                        file=sys.stderr,
                    )
                    failures += 1
                found = {f.rule for f in lint_file(kind_root, rel)}
                expect_path = os.path.join(kind_root, rel + ".expect")
                expected: set[str] = set()
                if os.path.exists(expect_path):
                    with open(expect_path, encoding="utf-8") as f:
                        expected = {
                            line.strip()
                            for line in f
                            if line.strip() and not line.startswith("#")
                        }
                if kind == "good" and expected:
                    print(
                        f"self-test: good fixture {rel} has an .expect file",
                        file=sys.stderr,
                    )
                    failures += 1
                checked += 1
                if found != expected:
                    print(
                        f"self-test FAIL {kind}/{rel}: expected "
                        f"{sorted(expected) or '[]'}, got {sorted(found) or '[]'}",
                        file=sys.stderr,
                    )
                    failures += 1
    if checked == 0:
        print("self-test: no fixtures found", file=sys.stderr)
        return 2
    if failures:
        print(f"self-test: {failures} failure(s) over {checked} fixture(s)")
        return 1
    print(f"self-test: OK ({checked} fixtures)")
    return 0


# --- entry point -----------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root to scan (default: parent of tools/)",
    )
    parser.add_argument("--json", action="store_true", help="JSON findings")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the linter against tools/lint_fixtures and verify verdicts",
    )
    parser.add_argument("files", nargs="*", help="restrict to these files")
    args = parser.parse_args(argv)

    if args.self_test:
        fixtures = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "lint_fixtures"
        )
        return self_test(fixtures)

    root = os.path.abspath(args.root)
    if args.files:
        rels = []
        for f in args.files:
            rel = os.path.relpath(os.path.abspath(f), root)
            rels.append(rel.replace(os.sep, "/"))
    else:
        rels = discover(root)
    if not rels:
        print("error: nothing to lint", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for rel in rels:
        findings.extend(lint_file(root, rel))

    if args.json:
        print(
            json.dumps(
                {
                    "checked_files": len(rels),
                    "findings": [f.as_json() for f in findings],
                },
                indent=2,
            )
        )
    else:
        for f in findings:
            print(f.text())
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"parapll_lint: {len(rels)} files, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
