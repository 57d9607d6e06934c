#!/usr/bin/env python
"""Documentation reference linter.

Verifies that every ``repro.*`` dotted path and every ``--long-flag``
named in ``docs/*.md`` and ``README.md`` resolves to something real:

* dotted paths must import as a module or resolve as an attribute chain
  on an importable module (``repro.obs.registry.METRIC_REGISTRY`` is a
  module plus an attribute — both forms are accepted);
* long flags must exist on the ``python -m repro`` CLI (discovered by
  walking :func:`repro.cli.build_parser` and every subparser), on a
  script under ``benchmarks/`` or ``tools/`` (discovered by scanning
  for ``add_argument`` calls), or on the small external-tool allowlist
  (pytest plugins invoked verbatim in the README);
* CLI *invocations* (``repro sweep --refiner batch ...`` in prose or a
  code block) are checked per subcommand: every flag in the snippet
  must be accepted by **that** subcommand's parser (or the top-level
  one), not merely exist somewhere on the CLI — so a doc showing a
  ``psim``-only flag on ``repro partition`` fails even though the flag
  is real;
* metric and phase names (``part.ml.levels``, ``tw.rollbacks``,
  ``partition.coarsen``, …) must exist in
  :mod:`repro.obs.registry` — including the derived ``.max`` /
  ``.calls`` suffixes and ``family.*`` wildcards.  Only tokens whose
  two-segment family matches a registered name are checked, so
  attribute chains and file names (``part.to_simulation()``,
  ``part.json``) never false-positive.

The registries rot the same way from the other side, so one audit runs
over the code instead of the docs: every key of ``METRIC_REGISTRY``,
``PHASE_REGISTRY`` and ``HOST_VALUE_REGISTRY`` must occur in a string
literal of some ``*.py`` file under ``src/``, ``benchmarks/`` or
``tools/`` other than ``obs/registry.py`` itself — exactly, as the head
of a longer literal (``"obs.span.depth.max"``), or under an f-string
family head (``f"part.core.{name}"``).  A name nothing records is a
stale registry row.

Docs rot silently — a renamed module or dropped flag leaves stale prose
behind with no test to catch it.  This linter is that test: it runs in
CI via ``tests/test_docs_refs.py`` and standalone as
``python tools/check_docs.py`` (exit 1 lists every dangling reference).
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: documentation files the linter covers
DOC_FILES = ("README.md", "docs")

#: flags that belong to external tools invoked verbatim in the docs
EXTERNAL_FLAGS = {
    "--benchmark-only",  # pytest-benchmark
}

_MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: a CLI invocation: ``repro <subcommand> <rest-of-snippet>`` (with or
#: without the ``python -m`` prefix); the rest ends at a backtick or
#: newline so inline code spans stay self-contained
_INVOCATION_RE = re.compile(
    r"(?:python -m )?\brepro\s+([a-z][a-z0-9-]*)\b([^`\n]*)"
)
_ADD_ARGUMENT_RE = re.compile(r"add_argument\(\s*['\"](--[a-z][a-z0-9-]*)['\"]")
_METRIC_RE = re.compile(
    r"(?<![\w.])(?:part|tw|seq|sim|bench|partition|obs|refine|presim|circ)"
    r"\.(?:[a-z0-9_]+\.)*(?:[a-z0-9_]+|\*)"
)


#: the start of a quoted metric-like literal, up to the closing quote or
#: the ``{`` of an f-string field
_LITERAL_RE = re.compile(
    r"""["']((?:part|tw|seq|sim|bench|partition|obs|refine|presim|circ)"""
    r"""\.[A-Za-z0-9_.]*)"""
)


def orphaned_registry_names(root: Path = REPO_ROOT) -> list[str]:
    """Registered metric / phase / host-value names no code records.

    A name is in use when some string literal under ``src/``,
    ``benchmarks/`` or ``tools/`` (``obs/registry.py`` excluded) equals
    it, continues it with a dotted suffix (``.max``, ``.calls``), or is
    an f-string head ending in ``.`` that the name extends.
    """
    names, _ = _registry_names()
    registry = root / "src" / "repro" / "obs" / "registry.py"
    literals: set[str] = set()
    for directory in ("src", "benchmarks", "tools"):
        for script in sorted((root / directory).rglob("*.py")):
            if script != registry:
                literals.update(_LITERAL_RE.findall(script.read_text()))
    heads = {lit for lit in literals if lit.endswith(".")}
    return sorted(
        name for name in names
        if name not in literals
        and not any(lit.startswith(name + ".") for lit in literals)
        and not any(name.startswith(head) for head in heads)
    )


def doc_paths(root: Path) -> list[Path]:
    out = [root / "README.md"]
    out.extend(sorted((root / "docs").glob("*.md")))
    return [p for p in out if p.exists()]


def referenced_tokens(text: str) -> tuple[set[str], set[str], set[str]]:
    """(dotted repro paths, long flags, metric-like tokens) named
    anywhere in a document."""
    return (set(_MODULE_RE.findall(text)), set(_FLAG_RE.findall(text)),
            set(_METRIC_RE.findall(text)))


def _registry_names() -> tuple[set[str], set[str]]:
    """(all registered metric + phase + host-value names, their
    two-segment families)."""
    from repro.obs.registry import (
        HOST_VALUE_REGISTRY,
        METRIC_REGISTRY,
        PHASE_REGISTRY,
    )

    names = (set(METRIC_REGISTRY) | set(PHASE_REGISTRY)
             | set(HOST_VALUE_REGISTRY))
    families = {".".join(n.split(".")[:2]) for n in names}
    return names, families


def metric_complaint(token: str, names: set[str],
                     families: set[str]) -> str | None:
    """Why ``token`` is a stale metric/phase reference, or None.

    Tokens outside every registered two-segment family are presumed to
    be Python attributes or file names and are skipped; ``family.*``
    wildcards pass when any registered name lives under the prefix.
    """
    from repro.obs.registry import PHASE_REGISTRY, is_registered

    if token.endswith(".*"):
        prefix = token[:-2]
        if any(n == prefix or n.startswith(prefix + ".") for n in names):
            return None
        return f"wildcard `{token}` matches no registered metric or phase"
    if ".".join(token.split(".")[:2]) not in families:
        return None  # attribute chain / file name, not a metric
    if is_registered(token) or token in PHASE_REGISTRY or token in names:
        return None
    return f"unregistered metric, phase or host value `{token}`"


def resolves(dotted: str) -> bool:
    """True when ``dotted`` imports as a module or reaches an attribute
    on the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def cli_flags() -> set[str]:
    """Every long option of ``python -m repro``, all subcommands included."""
    from repro.cli import build_parser

    flags: set[str] = set()
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        for action in parser._actions:
            flags.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return flags


def cli_command_flags() -> dict[str, set[str]]:
    """Long options per ``python -m repro`` subcommand, plus a ``""``
    entry for the top-level parser.  Nested subcommands (e.g. ``repro
    obs timeline``) are flattened into their parent's set."""
    from repro.cli import build_parser

    def collect(parser: argparse.ArgumentParser) -> set[str]:
        flags: set[str] = set()
        stack = [parser]
        while stack:
            p = stack.pop()
            for action in p._actions:
                flags.update(
                    o for o in action.option_strings if o.startswith("--")
                )
                if isinstance(action, argparse._SubParsersAction):
                    stack.extend(action.choices.values())
        return flags

    table: dict[str, set[str]] = {"": set()}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table[name] = collect(sub)
        else:
            table[""].update(
                o for o in action.option_strings if o.startswith("--")
            )
    return table


def invocation_complaints(text: str,
                          table: dict[str, set[str]]) -> list[str]:
    """Flags used in ``repro <cmd> ...`` snippets that ``<cmd>`` does
    not accept.  Backslash-continued command lines are joined first;
    words that happen to follow ``repro`` in prose are skipped unless
    they name a real subcommand."""
    out: list[str] = []
    for match in _INVOCATION_RE.finditer(text.replace("\\\n", " ")):
        cmd, rest = match.group(1), match.group(2)
        if cmd not in table:
            continue
        allowed = table[cmd] | table[""] | EXTERNAL_FLAGS
        out.extend(
            f"`{flag}` is not accepted by `repro {cmd}`"
            for flag in _FLAG_RE.findall(rest) if flag not in allowed
        )
    return out


def script_flags(root: Path) -> set[str]:
    """Long options declared by scripts under benchmarks/ (including
    benchmarks/pipeline/) and tools/."""
    flags: set[str] = set()
    for directory in ("benchmarks", "tools"):
        for script in sorted((root / directory).rglob("*.py")):
            flags.update(_ADD_ARGUMENT_RE.findall(script.read_text()))
    return flags


def check_docs(root: Path = REPO_ROOT) -> list[str]:
    """Return a list of dangling-reference complaints (empty = clean)."""
    known_flags = cli_flags() | script_flags(root) | EXTERNAL_FLAGS
    names, families = _registry_names()
    command_table = cli_command_flags()
    complaints: list[str] = []
    for path in doc_paths(root):
        text = path.read_text()
        modules, flags, metrics = referenced_tokens(text)
        rel = path.relative_to(root)
        for dotted in sorted(modules):
            if not resolves(dotted):
                complaints.append(f"{rel}: unresolvable path `{dotted}`")
        for flag in sorted(flags):
            if flag not in known_flags:
                complaints.append(f"{rel}: unknown CLI flag `{flag}`")
        for why in sorted(set(invocation_complaints(text, command_table))):
            complaints.append(f"{rel}: {why}")
        for token in sorted(metrics):
            why = metric_complaint(token, names, families)
            if why is not None:
                complaints.append(f"{rel}: {why}")
    return complaints


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root (default: the checkout "
                             "containing this script)")
    args = parser.parse_args(argv)
    complaints = check_docs(args.root)
    complaints.extend(
        f"src/repro/obs/registry.py: `{name}` is registered but no code "
        f"under src/, benchmarks/ or tools/ records it"
        for name in orphaned_registry_names(args.root)
    )
    for complaint in complaints:
        print(complaint)
    if complaints:
        print(f"{len(complaints)} dangling documentation reference(s)")
        return 1
    print("docs clean: every repro.* path, CLI flag and metric name "
          "resolves; every registered name is recorded somewhere")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
