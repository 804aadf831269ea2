"""Documentation health checks, run in tier-1 and by the CI docs job.

* every relative (intra-repo) markdown link in ``docs/`` and
  ``README.md`` must resolve to an existing file or directory;
* the modules the state/recovery subsystem documents —
  ``repro.spl.state``, ``repro.elastic.controller``, and everything in
  ``repro.checkpoint`` — must carry module, public-class, and
  public-method docstrings (the D1 "undocumented" family; CI also runs
  the equivalent ruff rule set on the same files).
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: markdown inline links: [text](target), skipping images handled the same
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: modules the docstring satellite covers (repo-relative)
DOCSTYLE_FILES = [
    "src/repro/spl/state.py",
    # the whole package: controller (protocol), migration (mover), reroute, policy
    *sorted(
        str(path.relative_to(REPO_ROOT))
        for path in (REPO_ROOT / "src/repro/elastic").glob("*.py")
    ),
    "src/repro/checkpoint/__init__.py",
    "src/repro/checkpoint/store.py",
    "src/repro/checkpoint/service.py",
    "src/repro/chaos/__init__.py",
    "src/repro/chaos/perturbations.py",
    "src/repro/chaos/scenario.py",
    "src/repro/chaos/engine.py",
    "src/repro/chaos/scorecard.py",
    "src/repro/chaos/fuzz/__init__.py",
    "src/repro/chaos/fuzz/oracles.py",
    "src/repro/chaos/fuzz/harness.py",
    "src/repro/chaos/fuzz/search.py",
    "src/repro/chaos/fuzz/shrink.py",
    "src/repro/orca/contexts.py",
    "src/repro/orca/events.py",
    "src/repro/orca/orchestrator.py",
    "src/repro/obs/__init__.py",
    "src/repro/obs/naming.py",
    "src/repro/obs/metrics.py",
    "src/repro/obs/trace.py",
    "src/repro/obs/flight.py",
    "src/repro/obs/hub.py",
    "src/repro/obs/health.py",
    "src/repro/obs/slo.py",
    "src/repro/obs/detect.py",
    "src/repro/runtime/delivery.py",
    "src/repro/runtime/events.py",
    "src/repro/runtime/hc.py",
    "src/repro/runtime/srm.py",
    "src/repro/runtime/transport.py",
    "src/repro/spl/metrics.py",
    "src/repro/tools/timeline.py",
    "src/repro/tools/healthwatch.py",
]


def iter_markdown_files():
    files = [REPO_ROOT / "README.md"]
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("**/*.md")))
    return files


def iter_relative_links(md_path: pathlib.Path):
    for match in _LINK_RE.finditer(md_path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "md_path", iter_markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_relative_links_resolve(self, md_path):
        broken = []
        for target in iter_relative_links(md_path):
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md_path.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{md_path.name}: broken intra-repo links: {broken}"

    def test_docs_directory_exists_and_is_linked(self):
        docs = REPO_ROOT / "docs"
        assert docs.is_dir() and list(docs.glob("*.md"))
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/" in readme  # the README points readers at the docs set


def _missing_docstrings(path: pathlib.Path):
    """D1-family check: undocumented public module/class/function/method."""
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path.name}: module docstring (D100)")

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    if ast.get_docstring(child) is None:
                        missing.append(f"{prefix}{child.name} (D101)")
                    visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if name.startswith("_"):
                    continue  # private helpers and dunders are exempt
                if ast.get_docstring(child) is None:
                    missing.append(f"{prefix}{name} (D102/D103)")

    visit(tree, f"{path.name}: ")
    return missing


class TestDocstringLint:
    @pytest.mark.parametrize("rel_path", DOCSTYLE_FILES)
    def test_public_api_is_documented(self, rel_path):
        missing = _missing_docstrings(REPO_ROOT / rel_path)
        assert not missing, "undocumented public API:\n  " + "\n  ".join(missing)


class TestConfigurationTables:
    """``docs/architecture.md``'s Configuration section lists what the code has."""

    @staticmethod
    def _rows():
        """``(name, value, third column)`` of every row of the section's two tables."""
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        return [
            (name, ast.literal_eval(value), third.strip("` "))
            for name, value, third in re.findall(
                r"^\| `(\w+)` \| `([^`]+)` \| ([^|]+) \|", section, re.MULTILINE
            )
        ]

    def test_one_row_per_field_in_order_with_its_default(self):
        from repro import SystemConfig

        fields = [(f.name, repr(f.default)) for f in dataclasses.fields(SystemConfig)]
        rows = [(name, repr(value)) for name, value, _ in self._rows() if name.islower()]
        assert rows == fields

    def test_every_listed_constant_has_the_listed_value(self):
        constants = [row for row in self._rows() if row[0].isupper()]
        assert len(constants) == 8
        for name, value, module in constants:
            assert getattr(importlib.import_module(module), name) == value, name


class TestPerturbationTable:
    """``docs/chaos.md``'s perturbation table lists every fault kind."""

    def test_one_row_per_kind_in_order(self):
        from repro.chaos import PERTURBATION_KINDS

        text = (REPO_ROOT / "docs" / "chaos.md").read_text()
        section = text.split("\n## The perturbation library\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)\(.*?\)` \| `(\w+)` \|", section, re.MULTILINE)
        assert rows == [(cls.__name__, kind) for kind, cls in PERTURBATION_KINDS.items()]


class TestRuntimeEventsTable:
    """``docs/architecture.md``'s Runtime events section lists the bus's topics."""

    NUMBERS = ("zero", "one", "two", "three", "four", "five", "six", "seven",
               "eight", "nine", "ten", "eleven", "twelve")

    @staticmethod
    def _section():
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        return text.split("\n## Runtime events\n", 1)[1].split("\n## ", 1)[0]

    def test_one_row_per_topic_in_order(self):
        from repro.runtime.events import TOPICS

        rows = re.findall(r"^\| `(\w+)` \|", self._section(), re.MULTILINE)
        assert tuple(rows) == TOPICS

    def test_the_prose_counts_the_topics(self):
        from repro.runtime.events import TOPICS

        counts = re.findall(r"(\w+) topics\)", self._section())
        assert counts == [self.NUMBERS[len(TOPICS)]]
