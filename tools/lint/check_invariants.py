#!/usr/bin/env python3
"""Repo-invariant linter: mechanical checks the compiler cannot express.

Run from anywhere; lints the repository tree it lives in:

    python3 tools/lint/check_invariants.py            # whole tree
    python3 tools/lint/check_invariants.py FILE...    # just these files

Rules (each waivable per line with `// lint: <rule>(reason)` where the
rule name is shown in the violation message):

  unguarded    Every core::Mutex member must guard something: the file
               must annotate at least one peer GUARDED_BY/REQUIRES/
               ACQUIRE on that mutex. Every core::CondVar needs a
               GUARDED_BY-annotated peer in the file too (a wait with no
               guarded predicate state is a lost-wakeup bug template).
               Raw std::mutex / std::condition_variable members are
               banned outright outside core/sync.h — the annotated
               wrappers exist so the Clang thread-safety build actually
               verifies the locking.
  rng          rand()/srand()/std::random_device only inside core/rng.h.
               Everything else must draw from the seeded deterministic
               RNG so runs reproduce.
  raw-parse    strtod/strtol/atoi & friends only inside core/parse.h.
               The wrappers reject trailing garbage and report errors;
               the raw calls silently parse prefixes.
  std-function std::function in src/graph/ hot paths. Graph visitors are
               template parameters precisely so per-edge calls inline.
  bench-metric Every BENCH_METRIC printf format must be one line of
               valid JSON once its format specifiers are substituted —
               the bench harness machine-reads these.
  snapshot-const The snapshot magic/version constants live ONLY in
               graph/snapshot.{h,cc}; a second definition is how two
               readers drift apart.
  hll-home     The HyperLogLog estimate arithmetic (AlphaM and its
               0.7213 / 1.079 constants) lives ONLY in
               sketch/hyperloglog.{h,cc}. The dense and sparse estimators
               share it there, which is what keeps them bit-identical; a
               copy elsewhere is how approx_count_distinct results drift.
  csr-home     CompactGraph::Arrays and FromOwned (the owned CSR
               backing and its adoption) appear ONLY in
               graph/compact_graph.{h,cc}, graph/csr_assembler.{h,cc} and
               graph/snapshot.cc (the copying loader). AssembleCsr is the
               one in-process assembly path; a second one is how layouts
               drift (row order, in-degrees, attribute alignment).
  socket-io    Raw ::recv/::send/::read/::write (and the *msg/*from
               variants) only inside src/server/transport.cc, frame.cc,
               and line_client.h. Everything else goes through
               LineTransport / LineClient, so framing, deadlines, and
               shutdown stay in one place. Waivable for non-socket fds
               (eventfd wakes, /proc reads).

Exit status: 0 clean, 1 violations (listed file:line: rule: message).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
LINT_DIRS = ("src", "examples", "bench", "tests", "tools")
CPP_SUFFIXES = {".h", ".cc", ".cpp"}

# Files that implement the primitives the rules funnel everyone toward.
SYNC_EXEMPT = {"src/core/sync.h", "src/core/thread_annotations.h"}
RNG_EXEMPT = {"src/core/rng.h"}
PARSE_EXEMPT = {"src/core/parse.h"}
SNAPSHOT_CONST_HOME = {"src/graph/snapshot.h", "src/graph/snapshot.cc"}
HLL_HOME = {"src/sketch/hyperloglog.h", "src/sketch/hyperloglog.cc"}
CSR_HOME = {"src/graph/compact_graph.h", "src/graph/compact_graph.cc",
            "src/graph/csr_assembler.h", "src/graph/csr_assembler.cc",
            "src/graph/snapshot.cc"}
SOCKET_IO_HOME = {"src/server/transport.cc", "src/server/frame.cc",
                  "src/server/line_client.h"}

WAIVER_RE = re.compile(r"//\s*lint:\s*([\w-]+)\(")

FORMAT_SPEC_RE = re.compile(
    r"%[-+ #0']*\d*(?:\.\d+)?(?:hh|h|ll|l|z|j|t|L)?([diuoxXfFeEgGaAcspn%])")


def strip_code(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    (every non-newline character inside them becomes a space), so token
    rules never fire on prose or quoted text."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def report(self, path: Path, line_no: int, rule: str, message: str,
               raw_lines: list[str]) -> None:
        # A `// lint: <rule>(reason)` on the offending line — or the line
        # directly above it, for sites too long to share a line — waives.
        for no in (line_no, line_no - 1):
            if 1 <= no <= len(raw_lines):
                m = WAIVER_RE.search(raw_lines[no - 1])
                if m is not None and m.group(1) == rule:
                    return
        rel = path.relative_to(REPO_ROOT)
        self.violations.append(f"{rel}:{line_no}: {rule}: {message}")

    # ---------------------------------------------------------------- rules

    def check_sync(self, path: Path, rel: str, code: str,
                   raw_lines: list[str]) -> None:
        if rel in SYNC_EXEMPT:
            return
        for m in re.finditer(r"\bstd::(mutex|condition_variable(?:_any)?|"
                             r"recursive_mutex|shared_mutex)\b", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "unguarded",
                f"std::{m.group(1)} bypasses thread-safety analysis; use "
                "the annotated core::Mutex / core::CondVar (core/sync.h)",
                raw_lines)
        for m in re.finditer(r"\b(?:core::)?Mutex\s+(\w+)\s*;", code):
            name = m.group(1)
            line_no = code.count("\n", 0, m.start()) + 1
            guarded = re.search(
                r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE)"
                r"\(\s*" + re.escape(name) + r"\s*\)", code)
            if guarded is None:
                self.report(
                    path, line_no, "unguarded",
                    f"mutex '{name}' has no GUARDED_BY/REQUIRES peer in "
                    "this file — annotate what it protects",
                    raw_lines)
        for m in re.finditer(r"\b(?:core::)?CondVar\s+(\w+)\s*;", code):
            line_no = code.count("\n", 0, m.start()) + 1
            if "GUARDED_BY(" not in code:
                self.report(
                    path, line_no, "unguarded",
                    f"condition variable '{m.group(1)}' has no GUARDED_BY-"
                    "annotated predicate state in this file",
                    raw_lines)

    def check_rng(self, path: Path, rel: str, code: str,
                  raw_lines: list[str]) -> None:
        if rel in RNG_EXEMPT:
            return
        for m in re.finditer(
                r"\b(?:s?rand)\s*\(|\b(?:std::)?random_device\b", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "rng",
                "nondeterministic randomness outside core/rng.h breaks "
                "run reproducibility; use the seeded core RNG",
                raw_lines)

    def check_raw_parse(self, path: Path, rel: str, code: str,
                        raw_lines: list[str]) -> None:
        if rel in PARSE_EXEMPT:
            return
        for m in re.finditer(
                r"\b(strtod|strtof|strtold|strtol|strtoll|strtoul|"
                r"strtoull|atoi|atof|atol|atoll)\s*\(", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "raw-parse",
                f"{m.group(1)} outside core/parse.h silently accepts "
                "trailing garbage; use core::ParseDouble / core::ParseInt",
                raw_lines)

    def check_graph_function(self, path: Path, rel: str, code: str,
                             raw_lines: list[str]) -> None:
        if not rel.startswith("src/graph/"):
            return
        for m in re.finditer(r"\bstd::function\b", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "std-function",
                "std::function in a graph hot path defeats visitor "
                "inlining; take the callable as a template parameter",
                raw_lines)

    def check_snapshot_constants(self, path: Path, rel: str, code: str,
                                 raw_lines: list[str]) -> None:
        if rel in SNAPSHOT_CONST_HOME:
            return
        for m in re.finditer(
                r"0x4E534248|0x4e534248|"
                r"\bkSnapshot(?:Magic|Version)\s*=", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "snapshot-const",
                "snapshot magic/version constants are defined only in "
                "graph/snapshot.{h,cc}; reference graph::kSnapshot* "
                "instead of redefining",
                raw_lines)

    def check_hll_home(self, path: Path, rel: str, code: str,
                       raw_lines: list[str]) -> None:
        if rel in HLL_HOME:
            return
        for m in re.finditer(r"\bAlphaM\b|\b0\.7213\b|\b1\.079\b", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "hll-home",
                "HyperLogLog estimate arithmetic lives only in "
                "sketch/hyperloglog.{h,cc}; call HyperLogLog::Estimate / "
                "EstimateSparse instead of re-deriving it",
                raw_lines)

    def check_csr_home(self, path: Path, rel: str, code: str,
                       raw_lines: list[str]) -> None:
        if rel in CSR_HOME:
            return
        for m in re.finditer(r"\bCompactGraph\s*::\s*Arrays\b|\bFromOwned\b",
                             code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "csr-home",
                "CSR arrays are filled only by graph::AssembleCsr "
                "(graph/csr_assembler.h) and the snapshot loader; build "
                "sorted nodes and edges and call AssembleCsr instead",
                raw_lines)

    def check_socket_io(self, path: Path, rel: str, code: str,
                        raw_lines: list[str]) -> None:
        if rel in SOCKET_IO_HOME:
            return
        for m in re.finditer(
                r"::\s*(recv|send|recvfrom|sendto|recvmsg|sendmsg|read|"
                r"write)\s*\(", code):
            line_no = code.count("\n", 0, m.start()) + 1
            self.report(
                path, line_no, "socket-io",
                f"raw ::{m.group(1)} outside src/server/{{transport.cc,"
                "frame.cc,line_client.h} bypasses framing, deadlines, and "
                "shutdown; go through LineTransport / LineClient (waive "
                "for non-socket fds)",
                raw_lines)

    def check_bench_metric(self, path: Path, text: str,
                           raw_lines: list[str]) -> None:
        for m in re.finditer(r'"BENCH_METRIC', text):
            line_no = text.count("\n", 0, m.start()) + 1
            literal = self._concat_string_literals(text, m.start())
            if literal is None:
                self.report(path, line_no, "bench-metric",
                            "could not parse the BENCH_METRIC string "
                            "literal", raw_lines)
                continue
            payload = literal[len("BENCH_METRIC"):].strip("\n")
            if "\n" in payload:
                self.report(path, line_no, "bench-metric",
                            "BENCH_METRIC emission spans multiple output "
                            "lines; it must be one line of JSON",
                            raw_lines)
                continue
            rendered = FORMAT_SPEC_RE.sub(self._substitute_spec, payload)
            try:
                json.loads(rendered.strip())
            except json.JSONDecodeError as error:
                self.report(
                    path, line_no, "bench-metric",
                    f"format string is not valid JSON once specifiers are "
                    f"substituted ({error.msg} at col {error.colno}): "
                    f"{rendered.strip()}", raw_lines)

    @staticmethod
    def _substitute_spec(m: re.Match) -> str:
        conv = m.group(1)
        if conv == "%":
            return "%"
        if conv in "cs":
            return "x"
        return "1"

    @staticmethod
    def _concat_string_literals(text: str, start: int) -> str | None:
        """Reads the C string-literal sequence beginning at text[start]
        (a '"'), following adjacent-literal concatenation across
        whitespace, and returns the unescaped contents."""
        out: list[str] = []
        i, n = start, len(text)
        escapes = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r",
                   "0": "\0"}
        while i < n and text[i] == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    out.append(escapes.get(text[i + 1], text[i + 1]))
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i >= n:
                return None
            i += 1  # closing quote
            j = i
            while j < n and text[j] in " \t\r\n":
                j += 1
            if j < n and text[j] == '"':
                i = j
            else:
                break
        return "".join(out)

    # ----------------------------------------------------------------- run

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(REPO_ROOT).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        code = strip_code(text)
        self.check_sync(path, rel, code, raw_lines)
        self.check_rng(path, rel, code, raw_lines)
        self.check_raw_parse(path, rel, code, raw_lines)
        self.check_graph_function(path, rel, code, raw_lines)
        self.check_snapshot_constants(path, rel, code, raw_lines)
        self.check_hll_home(path, rel, code, raw_lines)
        self.check_csr_home(path, rel, code, raw_lines)
        self.check_socket_io(path, rel, code, raw_lines)
        self.check_bench_metric(path, text, raw_lines)


def collect_files(args: list[str]) -> list[Path]:
    if args:
        files = []
        for arg in args:
            p = Path(arg).resolve()
            if p.suffix in CPP_SUFFIXES and p.is_file():
                files.append(p)
        return files
    files = []
    for top in LINT_DIRS:
        root = REPO_ROOT / top
        if not root.is_dir():
            continue
        files.extend(p for p in sorted(root.rglob("*"))
                     if p.suffix in CPP_SUFFIXES and p.is_file())
    return files


def main(argv: list[str]) -> int:
    linter = Linter()
    files = collect_files(argv[1:])
    for path in files:
        linter.lint_file(path)
    for violation in linter.violations:
        print(violation)
    if linter.violations:
        n = len(linter.violations)
        print(f"\n{n} invariant violation{'s' if n != 1 else ''}")
        return 1
    print(f"checked {len(files)} files: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
