"""Documentation-sync tests: every ```python block in README.md and
docs/tutorial.md executes, no other markdown file fences a block as python,
and EXPERIMENTS.md's sections are the blocks of the experiments golden.

The blocks of one file share one namespace in order (the general-graph
snippet reuses the quickstart's ``graph``), exactly as a reader would type
them into one session.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

#: The markdown files whose ```python blocks run below -- and therefore the
#: only ones the export census (tests/test_export_census.py) takes as readers.
EXECUTED_DOCS = ("README.md", "docs/tutorial.md")


def python_blocks(path=README):
    return re.findall(r"```python\n(.*?)```", path.read_text(), flags=re.DOTALL)


def execute_blocks(path):
    namespace = {}
    for i, block in enumerate(python_blocks(path)):
        try:
            exec(compile(block, f"{path.name}-block-{i}", "exec"), namespace)
        except Exception as err:  # pragma: no cover - failure reporting
            pytest.fail(f"{path.name} python block {i} failed: {err}\n{block}")
    return namespace


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


def test_readme_blocks_execute():
    namespace = execute_blocks(README)
    # The quickstart promises exactness; hold it to that.
    result = namespace["result"]
    assert result.path[0] == namespace["src"]
    assert result.path[-1] == namespace["dst"]


def test_tutorial_blocks_execute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # section 5 writes scheme.json
    namespace = execute_blocks(ROOT / "docs" / "tutorial.md")
    # Section 1's recorder is what section 2 prints: it names the phase
    # of the memory peak, the paper's headline column.
    assert "memory peak" in namespace["rec"].summary()


def test_only_executed_docs_fence_python():
    """A snippet fenced as python is a promise that it runs: a fragment that
    cannot (undefined names, elided bodies) is fenced as ``text``."""
    fenced = {str(path.relative_to(ROOT))
              for path in [*ROOT.glob("*.md"), *ROOT.glob("docs/*.md")]
              if python_blocks(path)}
    assert fenced == set(EXECUTED_DOCS)


def test_readme_mentions_all_packages():
    text = README.read_text()
    for package in (
        "repro.congest", "repro.graphs", "repro.tz", "repro.hopsets",
        "repro.treerouting", "repro.core", "repro.routing",
        "repro.baselines", "repro.analysis",
    ):
        assert package in text


def test_experiments_sections_and_golden_keys_are_one_to_one():
    """EXPERIMENTS.md and the experiments golden describe the same set:
    every ``## T1 —`` / ``F3`` / ``A2`` / ``S16`` section names exactly one
    ``python -m repro`` command, that command (``fig <name>`` -> ``<name>``)
    is a block of ``tests/goldens/experiments.json``, and every block is
    named by a section."""
    golden = json.loads(
        (ROOT / "tests" / "goldens" / "experiments.json").read_text(encoding="utf-8"))
    sections = re.split(r"^## ", (ROOT / "EXPERIMENTS.md").read_text(), flags=re.MULTILINE)
    named = {}
    for section in sections:
        heading = re.match(r"([TFAS]\d+) — ", section)
        if heading:
            keys = set(re.findall(r"python -m repro (?:fig )?([a-z0-9-]+)", section))
            assert len(keys) == 1, (heading.group(1), keys)
            named[heading.group(1)] = keys.pop()
    assert sorted(named.values()) == sorted(golden), named
