#!/usr/bin/env python3
"""Project-invariant linter: rules a generic static analyzer cannot express.

The repo's two load-bearing promises are (a) every artifact regenerates
byte-identically from a fixed seed and (b) the event core is allocation-free
on its hot path. Both are trivially easy to break with one innocuous line —
a wall-clock read in the simulator, an unordered-map iteration in a CSV
emitter, a std::function capture in the scheduler — and none of those is a
compile error or a clang-tidy diagnostic. This linter makes them build
failures. It runs as a ctest (`lint_invariants`) and as a CI gate.

Rules
-----
  determinism-clock   src/sim and src/net must not read wall clocks or
                      nondeterministic entropy (rand/srand/random_device,
                      system_clock/steady_clock/high_resolution_clock,
                      time()/clock()/gettimeofday/clock_gettime,
                      filesystem timestamps). sim::Rng + sim::Time are the
                      only sanctioned sources of randomness and time.
  golden-unordered    Golden-emitting code (src/artifacts, src/metrics,
                      src/web100/csv_export.*) must not mention unordered
                      containers at all, and nothing under src/web100 may
                      *iterate* one (keyed lookup is fine): iteration order
                      is hash-seed- and libstdc++-version-dependent, which
                      is exactly how a golden goes flaky.
  hotpath-alloc       The scheduler hot path (scheduler.{hpp,cpp},
                      event_entry.hpp, inline_callback.hpp, timer.hpp),
                      the partitioned window loop (partition.{hpp,cpp},
                      cross_link.{hpp,cpp}) and the packet path's FIFOs
                      (ring.hpp, link/queue/codel.{hpp,cpp}) must not use
                      std::function, smart pointers, or non-placement new.
                      PR 3 made the schedule/cancel/reschedule loop
                      allocation-free; tests/alloc_guard_test.cpp checks
                      the runtime half of that claim, this rule the static
                      half.
  header-hygiene      Every public header under src/ must start with
                      `#pragma once`, must not climb directories in quoted
                      includes (paths are rooted at src/), and must be
                      self-contained for a project-tuned token->header map
                      (use std::vector => include <vector>, ...).

Usage: lint_invariants.py [--root REPO_ROOT] [--list-rules]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# C++ source stripping: comments, string/char literals (incl. raw strings)
# are blanked so token rules can't false-positive on prose or log text.
# Line structure is preserved for diagnostics.
# --------------------------------------------------------------------------


def strip_cpp(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":  # block comment
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == "R" and nxt == '"':  # raw string literal
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, i + m.end())
            j = n - len(closer) if j == -1 else j
            seg = text[i : j + len(closer)]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + len(closer)
        elif (
            c == "'"
            and i > 0
            and text[i - 1] in "0123456789abcdefABCDEF'"
            and (nxt.isalnum() or nxt == "_")
        ):
            # C++14 digit separator (1'000'000, 0xFF'FF), not a char literal:
            # treating it as an opener would blank real code up to the next
            # apostrophe and corrupt line numbers.
            out.append(c)
            i += 1
        elif c in "\"'":  # string / char literal
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            seg = text[i + 1 : j]
            out.append(quote + "".join(ch if ch == "\n" else " " for ch in seg) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def scan_lines(stripped: str, pattern: re.Pattern, skip_includes: bool = True):
    """Yield (line_number, match) for every match outside #include lines."""
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if skip_includes and line.lstrip().startswith("#"):
            continue
        for m in pattern.finditer(line):
            yield lineno, m


# --------------------------------------------------------------------------
# Rule: determinism-clock
# --------------------------------------------------------------------------

CLOCK_BANNED = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"), "wall/monotonic clock"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("), "POSIX clock read"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\blast_write_time\b|\bfile_time_type\b"), "filesystem timestamp"),
]


def rule_determinism_clock(root: Path):
    findings = []
    for directory in ("src/sim", "src/net"):
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            stripped = strip_cpp(path.read_text())
            for pattern, what in CLOCK_BANNED:
                for lineno, _ in scan_lines(stripped, pattern):
                    findings.append(
                        Finding(
                            path.relative_to(root), lineno, "determinism-clock",
                            f"{what} in deterministic core; use sim::Rng / sim::Time "
                            "(simulated clock) instead",
                        )
                    )
    return findings


# --------------------------------------------------------------------------
# Rule: golden-unordered
# --------------------------------------------------------------------------

GOLDEN_STRICT_DIRS = ("src/artifacts", "src/metrics")
GOLDEN_STRICT_FILES = ("src/web100/csv_export.hpp", "src/web100/csv_export.cpp")
UNORDERED_DECL = re.compile(r"std::unordered_(?:multi)?(?:map|set)\s*<[^;{=]*>\s+(\w+)")


def rule_golden_unordered(root: Path):
    findings = []
    strict_paths = []
    for directory in GOLDEN_STRICT_DIRS:
        strict_paths.extend(
            p for p in sorted((root / directory).rglob("*")) if p.suffix in (".hpp", ".cpp")
        )
    strict_paths.extend(root / f for f in GOLDEN_STRICT_FILES if (root / f).exists())

    token = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
    for path in strict_paths:
        stripped = strip_cpp(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if token.search(line):
                findings.append(
                    Finding(
                        path.relative_to(root), lineno, "golden-unordered",
                        "unordered container in golden-emitting code; use std::map, "
                        "a sorted vector, or a side vector of keys in insertion order",
                    )
                )

    # src/web100 may *hold* unordered maps (PollingAgent's keyed series) but
    # must never iterate them: collect the declared names, then flag
    # range-fors and begin()/end() over them anywhere in the directory.
    web100 = [p for p in sorted((root / "src/web100").rglob("*")) if p.suffix in (".hpp", ".cpp")]
    unordered_names = set()
    stripped_by_path = {}
    for path in web100:
        stripped = strip_cpp(path.read_text())
        stripped_by_path[path] = stripped
        unordered_names.update(UNORDERED_DECL.findall(stripped))
    if unordered_names:
        names = "|".join(re.escape(n) for n in sorted(unordered_names))
        # begin() (in any spelling) is what starts an iteration; a bare
        # `find(k) == end()` membership probe is order-independent and fine.
        iteration = re.compile(
            rf"for\s*\([^;()]*:\s*(?:this->)?({names})\s*\)|"
            rf"\b({names})\s*\.\s*c?r?begin\s*\("
        )
        for path, stripped in stripped_by_path.items():
            for lineno, m in scan_lines(stripped, iteration):
                name = m.group(1) or m.group(2)
                findings.append(
                    Finding(
                        path.relative_to(root), lineno, "golden-unordered",
                        f"iteration over unordered container '{name}': order is "
                        "hash-seed-dependent and will flake goldens; iterate an "
                        "insertion-ordered key vector instead",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Rule: hotpath-alloc
# --------------------------------------------------------------------------

HOTPATH_FILES = (
    "src/sim/scheduler.hpp",
    "src/sim/scheduler.cpp",
    "src/sim/event_entry.hpp",
    "src/sim/inline_callback.hpp",
    # TCP re-arms its retransmission and delayed-ACK timers per packet.
    "src/sim/timer.hpp",
    # The partitioned window loop (stage -> publish -> drain -> deliver) is
    # part of the steady-state hot path: alloc_guard_test asserts a warm
    # window round performs zero allocations, so the same constructs are
    # banned here.
    "src/sim/partition.hpp",
    "src/sim/partition.cpp",
    "src/net/cross_link.hpp",
    "src/net/cross_link.cpp",
    # Every packet crosses a link wire (transmit -> ring -> head delivery);
    # alloc_guard_test asserts a warm wire delivers with zero allocations.
    "src/net/link.hpp",
    "src/net/link.cpp",
    # The one FIFO type of the packet path, and the queues built on it:
    # alloc_guard_test asserts a warm TCP flow over a drop-tail or RED NIC,
    # and a warm CoDel queue, allocate nothing.
    "src/sim/ring.hpp",
    "src/net/queue.cpp",
    "src/net/codel.hpp",
    "src/net/codel.cpp",
    # The fluid integrator ticks once per stride for the whole run; its
    # sources/couplings/driver (net/fluid.*) and the queue coupling surface
    # it drives (net/queue.hpp) are steady-state hot path too.
    "src/net/fluid.hpp",
    "src/net/fluid.cpp",
    "src/net/queue.hpp",
)
HOTPATH_BANNED = [
    (re.compile(r"std::function\b"), "std::function (type-erased heap closure)"),
    (re.compile(r"std::(?:make_shared|make_unique)\b"), "heap-allocating factory"),
    (re.compile(r"std::(?:shared|unique|weak)_ptr\b"), "smart pointer"),
    # `::new (addr)` placement-new into InlineCallback storage is the one
    # sanctioned spelling; anything else — including a qualified `::new T`
    # without a placement-address argument — is a heap allocation.
    (re.compile(r"(?<!:)\bnew\b(?!\s*\()"), "non-placement operator new"),
    (re.compile(r"(?<!:)\bnew\s*\("), "unqualified new; spell placement new as ::new(addr)"),
    (re.compile(r"::\s*new\b(?!\s*\()"), "::new without a placement address (heap allocation)"),
]


def rule_hotpath_alloc(root: Path):
    findings = []
    for rel in HOTPATH_FILES:
        path = root / rel
        if not path.exists():
            continue
        stripped = strip_cpp(path.read_text())
        for pattern, what in HOTPATH_BANNED:
            for lineno, _ in scan_lines(stripped, pattern):
                findings.append(
                    Finding(
                        path.relative_to(root), lineno, "hotpath-alloc",
                        f"{what} in the scheduler hot path; the event core is "
                        "allocation-free (InlineCallback + slot arena) and "
                        "tests/alloc_guard_test.cpp enforces 0 allocs at runtime",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Rule: header-hygiene
# --------------------------------------------------------------------------

# token pattern -> acceptable providing headers (any one satisfies).
SELF_CONTAINMENT = [
    (re.compile(r"std::vector\b"), ("vector",)),
    (re.compile(r"std::string\b"), ("string",)),
    (re.compile(r"std::string_view\b"), ("string_view",)),
    (re.compile(r"std::u?int(?:8|16|32|64)_t\b|std::u?int_fast|std::u?intptr_t"), ("cstdint",)),
    (re.compile(r"std::size_t\b|std::byte\b|std::ptrdiff_t\b|std::nullptr_t\b"), ("cstddef",)),
    (re.compile(r"std::optional\b|std::nullopt\b"), ("optional",)),
    (re.compile(r"std::function\b"), ("functional",)),
    (re.compile(r"std::atomic\b"), ("atomic",)),
    (re.compile(r"std::(?:jthread|thread)\b"), ("thread",)),
    (re.compile(r"std::mutex\b|std::lock_guard\b|std::scoped_lock\b"), ("mutex",)),
    (re.compile(r"std::(?:unique|shared|weak)_ptr\b|std::make_(?:unique|shared)\b"), ("memory",)),
    (re.compile(r"std::span\b"), ("span",)),
    (re.compile(r"std::array\b"), ("array",)),
    (re.compile(r"std::pair\b|std::move\b|std::forward\b|std::exchange\b|std::swap\b"),
     ("utility",)),
    (re.compile(r"std::numeric_limits\b"), ("limits",)),
    (re.compile(r"std::(?:priority_queue|queue|deque)\b"), ("queue", "deque")),
    (re.compile(r"std::map\b|std::multimap\b"), ("map",)),
    (re.compile(r"std::unordered_(?:multi)?map\b"), ("unordered_map",)),
    (re.compile(r"std::unordered_(?:multi)?set\b"), ("unordered_set",)),
    (re.compile(r"std::variant\b|std::monostate\b|std::visit\b"), ("variant",)),
    (re.compile(r"(?<![\w:])assert\s*\("), ("cassert",)),
    (re.compile(r"std::ostream\b|std::istream\b"), ("iosfwd", "ostream", "istream", "iostream")),
    (re.compile(r"std::ostringstream\b|std::istringstream\b|std::stringstream\b"), ("sstream",)),
    (re.compile(r"std::(?:runtime_error|invalid_argument|logic_error|out_of_range)\b"),
     ("stdexcept",)),
    (re.compile(r"std::exception_ptr\b|std::current_exception\b|std::rethrow_exception\b"),
     ("exception",)),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.MULTILINE)
UPWARD_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"\.\./', re.MULTILINE)


def rule_header_hygiene(root: Path):
    findings = []
    for path in sorted((root / "src").rglob("*.hpp")):
        raw = path.read_text()
        rel = path.relative_to(root)
        stripped = strip_cpp(raw)

        # Comments are stripped first so a leading license/doc block of any
        # length never hides (or stands in for) the guard: the first line of
        # actual code must be `#pragma once`.
        first_code = next((ln.strip() for ln in stripped.splitlines() if ln.strip()), "")
        if first_code != "#pragma once":
            findings.append(
                Finding(rel, 1, "header-hygiene", "public header must open with #pragma once")
            )

        for m in UPWARD_INCLUDE_RE.finditer(raw):
            lineno = raw.count("\n", 0, m.start()) + 1
            findings.append(
                Finding(
                    rel, lineno, "header-hygiene",
                    'upward-relative #include "../..." — quoted includes are rooted at src/ '
                    '(e.g. #include "sim/time.hpp")',
                )
            )

        includes = set(INCLUDE_RE.findall(raw))
        for pattern, providers in SELF_CONTAINMENT:
            if any(p in includes for p in providers):
                continue
            hits = list(scan_lines(stripped, pattern))
            if hits:
                lineno = hits[0][0]
                want = " or ".join(f"<{p}>" for p in providers)
                findings.append(
                    Finding(
                        rel, lineno, "header-hygiene",
                        f"uses '{hits[0][1].group(0).strip()}' but does not include {want} "
                        "(headers must be self-contained)",
                    )
                )
    return findings


RULES = {
    "determinism-clock": rule_determinism_clock,
    "golden-unordered": rule_golden_unordered,
    "hotpath-alloc": rule_hotpath_alloc,
    "header-hygiene": rule_header_hygiene,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout containing this script)")
    parser.add_argument("--list-rules", action="store_true", help="print rule ids and exit")
    args = parser.parse_args()

    if args.list_rules:
        for name in RULES:
            print(name)
        return 0

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"lint_invariants: no src/ under {root}", file=sys.stderr)
        return 2

    findings = []
    for rule in RULES.values():
        findings.extend(rule(root))
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_invariants: {len(findings)} finding(s) across {len(RULES)} rules",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
