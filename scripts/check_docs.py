"""Docs consistency gate: the documentation must match the registries.

Documentation drifts silently: an env var gets renamed, an engine option
gains a field, a doc file moves.  This script cross-checks the `docs/`
tree (and the README) against the single sources of truth in the code
and fails CI on any mismatch:

1. **Environment variables** — every ``REPRO_*`` variable the source
   actually consults must be documented in ``docs/operations.md``, and
   every variable documented there must still exist in the source (no
   stale rows).
2. **Engine options** — every field of ``repro.api.spec.EngineOptions``
   must appear as ``engine.<name>`` (or a table row) in
   ``docs/job-spec.md``, and no documented option may be missing from
   the dataclass.
3. **Spec blocks** — every field of every spec block dataclass must be
   mentioned in ``docs/job-spec.md``, and every default a block's
   ``Type / default`` table documents (a backticked JSON value such as
   ``2e-9``, ``"rbf"`` or ``null``) must equal the dataclass default.
4. **Service routes** — every route in ``repro.service.ROUTES`` must be
   documented in ``docs/service.md``.
5. **Links** — every relative markdown link in ``docs/*.md`` and
   ``README.md`` must point at an existing file.

Usage::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO, "src"))

ERRORS: list[str] = []


def fail(message: str) -> None:
    ERRORS.append(message)


def read(relpath: str) -> str:
    with open(os.path.join(REPO, relpath), "r", encoding="utf-8") as handle:
        return handle.read()


def doc_files() -> list[str]:
    docs = sorted(
        os.path.join("docs", name)
        for name in os.listdir(os.path.join(REPO, "docs"))
        if name.endswith(".md")
    )
    return ["README.md"] + docs


# -- 1. environment variables ------------------------------------------------

def source_env_vars() -> set[str]:
    """Every REPRO_* variable the source consults via os.environ."""
    pattern = re.compile(r"environ(?:\.get)?\(\s*['\"](REPRO_[A-Z_]+)['\"]")
    found: set[str] = set()
    for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, "src")):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name), "r", encoding="utf-8") as handle:
                found.update(pattern.findall(handle.read()))
    return found


def documented_env_vars() -> set[str]:
    """Variables with a table row (`| `REPRO_X` |`) in docs/operations.md."""
    pattern = re.compile(r"^\|\s*`(REPRO_[A-Z_]+)`\s*\|", re.MULTILINE)
    return set(pattern.findall(read("docs/operations.md")))


def check_env_vars() -> None:
    in_source = source_env_vars()
    in_docs = documented_env_vars()
    for var in sorted(in_source - in_docs):
        fail(f"docs/operations.md: env var {var} is read by the source but undocumented")
    for var in sorted(in_docs - in_source):
        fail(f"docs/operations.md: env var {var} is documented but no source reads it")


# -- 2 & 3. spec blocks and engine options -----------------------------------

def check_spec_docs() -> None:
    from repro.api import spec as spec_mod

    text = read("docs/job-spec.md")
    blocks = {
        "engine": spec_mod.EngineOptions,
        "stimulus": spec_mod.StimulusSpec,
        "devices": spec_mod.DeviceSpec,
        "link": spec_mod.LinkSpec,
        "structure": spec_mod.StructureSpec,
        "scenario": spec_mod.ScenarioSpec,
        "stats": spec_mod.StatsSpec,
        "distribution": spec_mod.DistributionSpec,
        "spec": spec_mod.SimulationSpec,
    }
    for block, cls in blocks.items():
        for field in dataclasses.fields(cls):
            token = f"`{field.name}`"
            if token not in text:
                fail(f"docs/job-spec.md: {block} field {field.name!r} is undocumented")
    # No stale engine options: every `engine.`-table row must be a real field
    engine_fields = {f.name for f in dataclasses.fields(spec_mod.EngineOptions)}
    documented = set(
        re.findall(r"`engine\.([a-z_]+)`", text + read("docs/operations.md"))
    )
    for name in sorted(documented - engine_fields):
        fail(f"docs: engine option `engine.{name}` is documented but not a spec field")
    check_spec_defaults(text, blocks)


#: the heading of each block's ``Type / default`` table in docs/job-spec.md
_SECTIONS = {
    "Top level": "spec",
    "`stimulus`": "stimulus",
    "`devices`": "devices",
    "`link`": "link",
    "`structure`": "structure",
    "`scenarios[]`": "scenario",
    "`stats`": "stats",
    "`engine`": "engine",
}


def check_spec_defaults(text: str, blocks: dict) -> None:
    """Each documented default equals its field's default, in JSON form."""
    section = None
    in_table = False
    for line in text.splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
            section = next(
                (block for title, block in _SECTIONS.items() if heading.startswith(title)),
                None,
            )
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_table = False
        elif cells[:2] == ["Key", "Type / default"]:
            in_table = section is not None
        elif in_table and not set(cells[0]) <= {"-", " "}:
            check_default_row(blocks[section], section, cells)


def check_default_row(cls, block: str, cells: list) -> None:
    names = re.findall(r"`([a-z][a-z0-9_]*)`", cells[0])
    values = re.findall(r"`([^`]+)`", cells[1])
    if not values:
        return  # the row documents no default
    if len(values) != len(names):
        fail(f"docs/job-spec.md: {block} row {cells[0]} pairs {len(names)} keys "
             f"with {len(values)} defaults")
        return
    fields = {field.name: field for field in dataclasses.fields(cls)}
    for name, value in zip(names, values):
        field = fields.get(name)
        if field is None:
            fail(f"docs/job-spec.md: {block} default for {name!r}, which is not a field")
            continue
        if field.default is not dataclasses.MISSING:
            default = field.default
        elif field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        else:
            fail(f"docs/job-spec.md: {block}.{name} is required but documents a default")
            continue
        try:
            documented = json.loads(value)
        except ValueError:
            fail(f"docs/job-spec.md: {block}.{name} default `{value}` is not a JSON value")
            continue
        # compare JSON texts, so 0 vs 0.0 or false vs 0 counts as a mismatch
        if json.dumps(documented) != json.dumps(default):
            fail(f"docs/job-spec.md: {block}.{name} documents default `{value}`, "
                 f"the code has {json.dumps(default)}")


# -- 4. service routes -------------------------------------------------------

def check_service_docs() -> None:
    from repro.service import ROUTES

    text = read("docs/service.md")
    for method, path in ROUTES:
        token = f"`{method} {path}`"
        if token not in text:
            fail(f"docs/service.md: route {method} {path} is undocumented "
                 f"(expected a heading containing {token})")


# -- 5. relative links -------------------------------------------------------

_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def check_links() -> None:
    for relpath in doc_files():
        base = os.path.dirname(os.path.join(REPO, relpath))
        for target in _LINK.findall(read(relpath)):
            if re.match(r"^[a-z]+:", target):  # http:, https:, mailto:
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                fail(f"{relpath}: dead relative link -> {target}")


def main() -> int:
    check_env_vars()
    check_spec_docs()
    check_service_docs()
    check_links()
    if ERRORS:
        print(f"check_docs: {len(ERRORS)} problem(s):", file=sys.stderr)
        for error in ERRORS:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(f"check_docs: ok ({len(doc_files())} documents checked: "
          f"{len(source_env_vars())} env vars, spec blocks, "
          f"service routes, links)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
