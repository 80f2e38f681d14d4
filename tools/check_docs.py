#!/usr/bin/env python3
"""Doc-drift linter: every user-facing surface must be documented.

Checks that
  * every flag `easyc_cli --help` and `easyc_serve --help` advertise,
  * the `easyc_cells_decode` usage surface (tool name + any flags), and
  * every protocol verb declared in src/service/protocol.hpp
appears somewhere in README.md or docs/ARCHITECTURE.md. A flag you can
type but cannot read about is drift; this runs in CI so drift fails the
build instead of accumulating.

Usage:
    tools/check_docs.py --cli build/easyc_cli --serve build/easyc_serve \
        --decode build/easyc_cells_decode
    tools/check_docs.py --self-test --cli ... --serve ...

--self-test plants a fake undocumented flag into the scanned flag set
and exits non-zero unless the checker reports it — proof the linter can
actually fail.
"""
import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"]
PROTOCOL_HPP = REPO / "src" / "service" / "protocol.hpp"

FLAG_RE = re.compile(r"^\s*(--[a-z][a-z0-9-]*)", re.MULTILINE)
VERB_RE = re.compile(r"enum\s+class\s+Verb\s*\{([^}]*)\}", re.DOTALL)


def help_flags(binary: str) -> set:
    out = subprocess.run([binary, "--help"], capture_output=True, text=True,
                         check=True).stdout
    flags = set(FLAG_RE.findall(out))
    if not flags:
        raise SystemExit(f"error: no flags parsed from `{binary} --help` — "
                         "did the usage format change?")
    return flags


def decode_surface(binary: str) -> set:
    """The easyc_cells_decode surface: the tool is positional-only
    (usage on stderr, no long options today), so the documented surface
    is its name plus whatever `--flags` its usage ever grows."""
    proc = subprocess.run([binary, "--help"], capture_output=True, text=True,
                          check=True)
    return {Path(binary).name} | set(FLAG_RE.findall(proc.stdout + proc.stderr))


def protocol_verbs() -> set:
    text = PROTOCOL_HPP.read_text()
    m = VERB_RE.search(text)
    if not m:
        raise SystemExit(f"error: no `enum class Verb` in {PROTOCOL_HPP}")
    verbs = set()
    for token in m.group(1).split(","):
        token = token.strip()
        if token.startswith("k"):
            # kPing -> ping (the wire spelling, which is what docs show).
            verbs.add(token[1:].lower())
    if not verbs:
        raise SystemExit("error: Verb enum parsed to zero verbs")
    return verbs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", default=str(REPO / "build" / "easyc_cli"),
                        help="path to the easyc_cli binary")
    parser.add_argument("--serve", default=str(REPO / "build" / "easyc_serve"),
                        help="path to the easyc_serve binary")
    parser.add_argument("--decode",
                        default=str(REPO / "build" / "easyc_cells_decode"),
                        help="path to the easyc_cells_decode binary")
    parser.add_argument("--self-test", action="store_true",
                        help="plant a fake undocumented flag; succeed only "
                             "if the checker flags it")
    args = parser.parse_args()

    doc_text = ""
    for doc in DOCS:
        if not doc.exists():
            print(f"error: missing documentation file {doc}", file=sys.stderr)
            return 1
        doc_text += doc.read_text()

    surfaces = {}  # name -> origin
    for flag in help_flags(args.cli):
        surfaces[flag] = "easyc_cli --help"
    for flag in help_flags(args.serve):
        surfaces.setdefault(flag, "easyc_serve --help")
    for name in decode_surface(args.decode):
        surfaces.setdefault(name, "easyc_cells_decode usage")
    for verb in protocol_verbs():
        surfaces[f"verb `{verb}`"] = "service/protocol.hpp"

    if args.self_test:
        surfaces["--planted-undocumented-flag"] = "self-test"

    missing = []
    for name, origin in sorted(surfaces.items()):
        needle = name.split("`")[1] if "`" in name else name
        if needle not in doc_text:
            missing.append((name, origin))

    if args.self_test:
        planted = [m for m in missing if m[0] == "--planted-undocumented-flag"]
        real = [m for m in missing if m[0] != "--planted-undocumented-flag"]
        if not planted:
            print("self-test FAILED: the planted undocumented flag was not "
                  "detected", file=sys.stderr)
            return 1
        if real:
            for name, origin in real:
                print(f"undocumented: {name} (from {origin})", file=sys.stderr)
            print("self-test ok, but real drift found above", file=sys.stderr)
            return 1
        print("self-test ok: planted flag detected, no real drift")
        return 0

    if missing:
        for name, origin in missing:
            print(f"undocumented: {name} (from {origin}) — add it to "
                  "README.md or docs/ARCHITECTURE.md", file=sys.stderr)
        return 1
    print(f"check_docs: {len(surfaces)} flags/verbs all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
