#!/usr/bin/env python3
"""Project lint: the determinism and memory-safety invariants generic
tools cannot know.

The repo's headline guarantee is byte-identical output across thread
counts, cache states, warm restarts, and shard merges. Several of the
rules that guarantee rests on live in ARCHITECTURE.md prose — hash-map
iteration order must never reach a payload, floats print through the
pinned %.17g helper, reductions fold through util::sum/util::summarize
(Kahan) in expansion order, wire decoding goes through checked
BinaryReader primitives, locks are RAII-held. This linter turns each of
those rules into a machine check, the same way check_docs.py enforces
doc drift.

Usage:
    tools/easyc_lint.py                 # lint the repo, exit 1 on findings
    tools/easyc_lint.py --root DIR      # lint a different tree (tests)
    tools/easyc_lint.py --list-rules    # print the rule table
    tools/easyc_lint.py --self-test     # prove every rule fires

Escape hatch: a violation that is genuinely fine carries
    // easyc-lint: allow(<rule>) <reason>
on the same line or in the comment block directly above it. The reason
is mandatory; allowed findings are counted and listed in the summary,
and an allow comment that suppresses nothing is itself an error (stale
allows rot).

Standard library only; modeled on tools/check_docs.py.
"""
import argparse
import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# ----------------------------------------------------------------------
# Scopes. Paths are repo-relative POSIX strings.
#
# LIBRARY: everything linked into downstream binaries — determinism
# rules apply unconditionally (a "debug" rand() in a model file is one
# refactor away from a payload).
# PAYLOAD: code that renders or serializes bytes the acceptance legs
# diff (reports, CSV/EZCELLS exports, protocol frames, snapshots).
# REDUCTION: code that folds per-cell doubles into aggregates; ordinary
# left-fold accumulation there reorders under batching and breaks the
# bit-identity oracle.
# CODEC: code that decodes untrusted wire/snapshot bytes; every read
# must bounds-check through util::BinaryReader, never raw pointer
# reinterpretation.
# ----------------------------------------------------------------------
LIBRARY_PREFIXES = ("src/",)
PAYLOAD_PREFIXES = ("src/analysis/", "src/report/", "src/service/",
                    "src/easyc/codec", "src/util/ascii", "src/util/csv",
                    "src/util/stats", "src/util/serialize")
REDUCTION_PREFIXES = ("src/analysis/", "src/util/stats")
CODEC_PREFIXES = ("src/easyc/codec", "src/analysis/sweep_shard",
                  "src/util/stats", "src/parallel/sharded_cache")
# The one place the exact-precision format string may live: the pinned
# helper every float-aggregate print routes through.
PINNED_HELPER = "src/util/strings.cpp"
# The checked-reader primitive layer itself (the only file allowed to
# touch raw bytes / bit_cast).
CODEC_PRIMITIVES = "src/util/serialize.hpp"

ALLOW_RE = re.compile(r"easyc-lint:\s*allow\(([\w,\s-]+)\)\s*(.*)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|\*|/\*)")


def starts_with_any(relpath, prefixes):
    return any(relpath.startswith(p) for p in prefixes)


def mask_text(text, keep_strings):
    """Blank out comments (and optionally string/char literals) with
    spaces, preserving newlines so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STR
                if not keep_strings:
                    out[i] = " "
                i += 1
                continue
            if c == "'":
                state = CHR
                if not keep_strings:
                    out[i] = " "
                i += 1
                continue
            i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        else:  # STR or CHR
            quote = '"' if state == STR else "'"
            if c == "\\" and nxt:
                if not keep_strings:
                    out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = NORMAL
                if not keep_strings:
                    out[i] = " "
                i += 1
                continue
            if c != "\n" and not keep_strings:
                out[i] = " "
            i += 1
    return "".join(out)


def collect_unordered_names(code):
    """Names declared (variables, members, parameters) with an
    unordered_map/unordered_set type in comment-stripped code."""
    names = set()
    for m in re.finditer(r"\bunordered_(?:map|set)\s*<", code):
        i = m.end() - 1
        depth = 0
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = code[i + 1:i + 200]
        dm = re.match(r"\s*[&*]?\s*(\w+)\s*[;{=,)(]", tail)
        if dm:
            names.add(dm.group(1))
    return names


class FileCtx:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.text = text
        self.raw_lines = text.splitlines()
        # Comments stripped, strings blanked: for identifier matching.
        self.code_lines = mask_text(text, keep_strings=False).splitlines()
        # Comments stripped, strings kept: for format-string rules.
        self.fmt_lines = mask_text(text, keep_strings=True).splitlines()
        self.unordered_names = set()  # filled by the scanner (pairs .hpp/.cpp)


Finding = None  # (relpath, line_no 1-based, rule, message) tuples


def _grep_rule(ctx, pattern, message, lines=None):
    for idx, line in enumerate(lines if lines is not None else ctx.code_lines):
        if pattern.search(line):
            yield idx + 1, message


# --- rule implementations ---------------------------------------------

UNORDERED_ITER_FMT = ("iteration over unordered container '%s' — hash order "
                      "leaks into the output bytes; use an ordered container "
                      "or collect-and-sort first")


def rule_unordered_iteration(ctx):
    for name in sorted(ctx.unordered_names):
        esc = re.escape(name)
        # Range-for over the container, or an explicit begin() walk.
        # A bare .end() is NOT flagged: `it != map.end()` is the
        # find-compare idiom, and no iteration starts from end().
        pat = re.compile(
            r"(?:for\s*\([^;()]*:\s*(?:[\w>.\-]+\.)?" + esc + r"\s*\))"
            r"|(?:\b" + esc + r"\s*\.\s*c?r?begin\s*\(\s*\))")
        for idx, line in enumerate(ctx.code_lines):
            if pat.search(line):
                yield idx + 1, UNORDERED_ITER_FMT % name


RAW_RANDOM_PAT = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|random_device|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|gettimeofday|\bclock\s*\(\s*\)|system_clock|high_resolution_clock")


def rule_raw_random(ctx):
    yield from _grep_rule(
        ctx, RAW_RANDOM_PAT,
        "nondeterministic source (rand/time/random_device/wall clock) in "
        "library code — derive randomness from util::rng seeds and never "
        "let wall-clock values near a payload")


LOCALE_PAT = re.compile(
    r"setlocale|std::locale|\bstrftime\s*\(|\blocaltime|\bgmtime|\basctime"
    r"|\bctime\s*\(|put_time|\bimbue\s*\(")


def rule_locale(ctx):
    yield from _grep_rule(
        ctx, LOCALE_PAT,
        "locale-dependent formatting — output bytes would vary with the "
        "host locale; use the fixed-format util::strings helpers")


BARE_LOCK_PAT = re.compile(r"(\w+)\s*(?:\.|->)\s*((?:try_)?(?:un)?lock)\s*\(\s*\)")
RAII_RECEIVER_RE = re.compile(r"^(lock|lk|guard)$|(_lock|_lk|_guard)$")


def rule_bare_lock(ctx):
    for idx, line in enumerate(ctx.code_lines):
        for m in BARE_LOCK_PAT.finditer(line):
            if not RAII_RECEIVER_RE.search(m.group(1)):
                yield idx + 1, (
                    "bare %s.%s() — mutexes are RAII-held only "
                    "(lock_guard/unique_lock/scoped_lock), so an exception "
                    "or early return cannot leak a held lock"
                    % (m.group(1), m.group(2)))


PRECISION_PAT = re.compile(r"setprecision|std::fixed\b|std::scientific\b")
G17_PAT = re.compile(r"%\.17g")


def rule_pinned_float(ctx):
    if ctx.relpath != PINNED_HELPER:
        yield from _grep_rule(
            ctx, G17_PAT,
            "inline %.17g format — route exact-precision prints through "
            "util::format_exact so one helper pins the byte contract",
            lines=ctx.fmt_lines)
    if starts_with_any(ctx.relpath, PAYLOAD_PREFIXES):
        yield from _grep_rule(
            ctx, PRECISION_PAT,
            "stream-state float formatting in a payload path — "
            "setprecision/fixed/scientific leak sticky stream state; use "
            "util::format_exact / util::format_double")


ACCUMULATE_PAT = re.compile(r"\baccumulate\s*\(|\breduce\s*\(")


def rule_accumulate(ctx):
    yield from _grep_rule(
        ctx, ACCUMULATE_PAT,
        "std::accumulate/reduce in a reduction path — per-cell doubles "
        "fold through util::sum/util::summarize (Kahan) in expansion order "
        "so batching cannot reorder the sum; a bare left fold breaks merge "
        "identities")


CODEC_RAW_PAT = re.compile(r"reinterpret_cast\s*<|\bmemcpy\s*\(|\bbit_cast\s*<")


def rule_codec_read(ctx):
    yield from _grep_rule(
        ctx, CODEC_RAW_PAT,
        "raw byte access in a codec path — decode only through the "
        "checked util::BinaryReader primitives (bounds-checked, "
        "endian-stable); raw reinterpretation trusts the wire")


PRAGMA_PAT = re.compile(r"#\s*pragma\s+(?:GCC|clang)\s+diagnostic\s+ignored")


def rule_pragma(ctx):
    yield from _grep_rule(
        ctx, PRAGMA_PAT,
        "warning suppressed by pragma — every suppression needs an "
        "allow(pragma-suppression) comment stating why the warning is a "
        "false positive here")


RULES = [
    # (name, applies-to predicate, implementation, one-line rationale)
    ("unordered-iteration",
     lambda p: starts_with_any(p, LIBRARY_PREFIXES),
     rule_unordered_iteration,
     "hash-map iteration order must never reach rendered/serialized bytes"),
    ("raw-random",
     lambda p: starts_with_any(p, LIBRARY_PREFIXES),
     rule_raw_random,
     "library code draws randomness from seeded util::rng only"),
    ("locale-dependent",
     lambda p: starts_with_any(p, LIBRARY_PREFIXES) or p.startswith("tools/"),
     rule_locale,
     "output bytes must not vary with the host locale"),
    ("bare-lock",
     lambda p: starts_with_any(p, LIBRARY_PREFIXES),
     rule_bare_lock,
     "locks are RAII-held; manual lock()/unlock() leaks on exceptions"),
    ("pinned-float-format",
     lambda p: starts_with_any(p, LIBRARY_PREFIXES) or p.startswith("tools/"),
     rule_pinned_float,
     "exact-precision float prints route through util::format_exact"),
    ("accumulate-reduction",
     lambda p: starts_with_any(p, REDUCTION_PREFIXES),
     rule_accumulate,
     "reductions fold through util::sum/summarize (Kahan) in expansion "
     "order"),
    ("unchecked-codec-read",
     lambda p: starts_with_any(p, CODEC_PREFIXES) and p != CODEC_PRIMITIVES,
     rule_codec_read,
     "wire decoding goes through checked BinaryReader primitives"),
    ("pragma-suppression",
     lambda p: True,
     rule_pragma,
     "diagnostic pragmas carry a written false-positive rationale"),
]

SCAN_GLOBS = ["src/**/*.cpp", "src/**/*.hpp", "tools/*.cpp",
              "tests/*.cpp", "bench/*.cpp", "bench/*.hpp",
              "examples/*.cpp"]


def allows_for_line(ctx, line_no):
    """Allow tags reachable from a finding at line_no (1-based): the
    line itself, then the contiguous comment block directly above."""
    tags = []  # (rule, reason, line_no of the allow comment)
    idx = line_no - 1
    m = ALLOW_RE.search(ctx.raw_lines[idx])
    if m:
        tags.append((m, line_no))
    j = idx - 1
    while j >= 0 and COMMENT_ONLY_RE.match(ctx.raw_lines[j]):
        m = ALLOW_RE.search(ctx.raw_lines[j])
        if m:
            tags.append((m, j + 1))
        j -= 1
    out = []
    for m, at in tags:
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        out.append((rules, m.group(2).strip(), at))
    return out


def scan_tree(root):
    """Returns (findings, allowed, problems). findings/allowed are
    (relpath, line, rule, message) lists; problems are strings (bad or
    stale allow comments)."""
    root = Path(root)
    files = {}
    for pattern in SCAN_GLOBS:
        for path in sorted(root.glob(pattern)):
            rel = path.relative_to(root).as_posix()
            if rel not in files:
                files[rel] = FileCtx(rel, path.read_text(errors="replace"))

    # Pair .cpp with its .hpp (and vice versa) so members declared in
    # the header are known when the source file iterates them.
    for rel, ctx in files.items():
        code = mask_text(ctx.text, keep_strings=False)
        names = collect_unordered_names(code)
        stem = rel.rsplit(".", 1)[0]
        for other_ext in (".hpp", ".cpp"):
            other = files.get(stem + other_ext)
            if other is not None and other is not ctx:
                names |= collect_unordered_names(
                    mask_text(other.text, keep_strings=False))
        ctx.unordered_names = names

    findings, allowed, problems = [], [], []
    used_allows = set()  # (relpath, allow line_no)
    for rel in sorted(files):
        ctx = files[rel]
        for rule_name, applies, impl, _ in RULES:
            if not applies(rel):
                continue
            for line_no, message in impl(ctx):
                hit = None
                for rules, reason, at in allows_for_line(ctx, line_no):
                    if rule_name in rules:
                        if not reason:
                            problems.append(
                                f"{rel}:{at}: allow({rule_name}) has no "
                                "reason — say why this is a false positive")
                        hit = (at, reason)
                        break
                if hit:
                    used_allows.add((rel, hit[0]))
                    allowed.append((rel, line_no, rule_name, hit[1]))
                else:
                    findings.append((rel, line_no, rule_name, message))
        # Stale allows: an allow comment that suppressed nothing.
        for idx, line in enumerate(ctx.raw_lines):
            m = ALLOW_RE.search(line)
            if m and (rel, idx + 1) not in used_allows:
                # The tag may sit above the violation; count it as used
                # if any allowed finding within the next few lines
                # consumed it (allows_for_line walks up, so a used tag
                # is always registered under its own line number).
                problems.append(
                    f"{rel}:{idx + 1}: stale easyc-lint allow({m.group(1)}) "
                    "— it suppresses nothing; delete it")
    return findings, allowed, problems, len(files)


# --- self test --------------------------------------------------------

SELF_TEST_FILES = {
    # path -> (content, {rule: expected_line})
    "src/analysis/planted_render.cpp": (
        "#include <unordered_map>\n"
        "#include <numeric>\n"
        "#include <iomanip>\n"
        "std::unordered_map<int, double> totals_by_rank;\n"
        "double render() {\n"
        "  double t = 0;\n"
        "  for (const auto& kv : totals_by_rank) t += kv.second;\n"
        "  std::vector<double> xs;\n"
        "  t += std::accumulate(xs.begin(), xs.end(), 0.0);\n"
        "  std::cout << std::setprecision(17) << t;\n"
        '  std::printf("%.17g", t);\n'
        "  return t;\n"
        "}\n",
        {"unordered-iteration": 7, "accumulate-reduction": 9,
         "pinned-float-format": (10, 11)}),
    "src/grid/planted_model.cpp": (
        "#include <cstdlib>\n"
        "int jitter() {\n"
        "  return rand();\n"  # raw-random
        "}\n"
        "#include <locale>\n"
        "std::locale loc;\n",  # locale-dependent
        {"raw-random": 3, "locale-dependent": 6}),
    "src/parallel/planted_lock.cpp": (
        "#include <mutex>\n"
        "std::mutex mu_;\n"
        "void f() {\n"
        "  mu_.lock();\n"  # bare-lock
        "  mu_.unlock();\n"
        "}\n",
        {"bare-lock": (4, 5)}),
    "src/easyc/codec_planted.cpp": (
        "#include <cstring>\n"
        "double f(const char* p) {\n"
        "  return *reinterpret_cast<const double*>(p);\n"  # codec read
        "}\n",
        {"unchecked-codec-read": 3}),
    "tests/planted_pragma.cpp": (
        '#pragma GCC diagnostic ignored "-Wshadow"\n',
        {"pragma-suppression": 1}),
    # An allowlisted violation: must land in `allowed`, not findings.
    "src/hw/planted_allowed.cpp": (
        "#include <mutex>\n"
        "std::mutex init_mu;\n"
        "void g() {\n"
        "  // easyc-lint: allow(bare-lock) handed to a C callback that\n"
        "  // unlocks on its own thread; RAII cannot span the callback.\n"
        "  init_mu.lock();\n"
        "}\n",
        {}),
    # A stale allow: must be reported as a problem.
    "src/top500/planted_stale.cpp": (
        "// easyc-lint: allow(raw-random) left over from a removed call\n"
        "int clean() { return 4; }\n",
        {}),
    # A clean file: must produce nothing.
    "src/report/planted_clean.cpp": (
        "#include <map>\n"
        "std::map<int, double> totals;\n"
        "double sum() {\n"
        "  double t = 0;\n"
        "  for (const auto& kv : totals) t += kv.second;\n"
        "  return t;\n"
        "}\n",
        {}),
}


def self_test():
    with tempfile.TemporaryDirectory(prefix="easyc_lint_selftest") as tmp:
        root = Path(tmp)
        expected = set()
        for rel, (content, rules) in SELF_TEST_FILES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            for rule, lines in rules.items():
                for line in (lines if isinstance(lines, tuple) else (lines,)):
                    expected.add((rel, line, rule))
        findings, allowed, problems, _ = scan_tree(root)

        got = {(f[0], f[1], f[2]) for f in findings}
        ok = True
        for want in sorted(expected):
            if want not in got:
                print(f"self-test FAILED: expected finding {want[2]} at "
                      f"{want[0]}:{want[1]} did not fire", file=sys.stderr)
                ok = False
        for extra in sorted(got - expected):
            print(f"self-test FAILED: unexpected finding {extra[2]} at "
                  f"{extra[0]}:{extra[1]}", file=sys.stderr)
            ok = False
        if not any(f[0] == "src/hw/planted_allowed.cpp" and f[2] == "bare-lock"
                   for f in allowed):
            print("self-test FAILED: the allowlisted bare-lock was not "
                  "counted as an allowed suppression", file=sys.stderr)
            ok = False
        if not any("planted_stale" in p and "stale" in p for p in problems):
            print("self-test FAILED: the stale allow comment was not "
                  "reported", file=sys.stderr)
            ok = False
        fired = {f[2] for f in findings} | {a[2] for a in allowed}
        for rule_name, _, _, _ in RULES:
            if rule_name not in fired:
                print(f"self-test FAILED: rule {rule_name} never fired on "
                      "its planted violation", file=sys.stderr)
                ok = False
        if not ok:
            return 1
        print(f"self-test ok: all {len(RULES)} rules fired on planted "
              f"violations ({len(findings)} findings, {len(allowed)} allowed, "
              f"{len(problems)} allow problems as expected)")
        return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(REPO),
                        help="tree to lint (default: the repo)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="prove every rule fires on a planted violation")
    args = parser.parse_args()

    if args.list_rules:
        width = max(len(r[0]) for r in RULES)
        for name, _, _, rationale in RULES:
            print(f"{name.ljust(width)}  {rationale}")
        return 0
    if args.self_test:
        return self_test()

    findings, allowed, problems, nfiles = scan_tree(args.root)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: {rule}: {message}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    if allowed:
        print(f"{len(allowed)} finding(s) suppressed by allow comments:")
        for rel, line, rule, reason in allowed:
            print(f"  {rel}:{line}: {rule} — {reason}")
    if findings or problems:
        print(f"easyc_lint: {len(findings)} finding(s), "
              f"{len(problems)} allow problem(s) across {nfiles} files",
              file=sys.stderr)
        return 1
    print(f"easyc_lint: OK — {nfiles} files clean, "
          f"{len(allowed)} allowed suppression(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
