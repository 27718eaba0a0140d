"""Documentation-sync tests: every ```python block in README.md executes,
and EXPERIMENTS.md's sections are the blocks of the experiments golden.

The README blocks share one namespace in order (the general-graph snippet
reuses the quickstart's ``graph``), exactly as a reader would type them into
one session.
"""

import json
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


def test_readme_blocks_execute():
    namespace = {}
    for i, block in enumerate(python_blocks()):
        try:
            exec(compile(block, f"README-block-{i}", "exec"), namespace)
        except Exception as err:  # pragma: no cover - failure reporting
            pytest.fail(f"README python block {i} failed: {err}\n{block}")
    # The quickstart promises exactness; hold it to that.
    result = namespace["result"]
    assert result.path[0] == namespace["src"]
    assert result.path[-1] == namespace["dst"]


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
    root = README.parent
    golden = json.loads(
        (root / "tests" / "goldens" / "experiments.json").read_text(encoding="utf-8"))
    sections = re.split(r"^## ", (root / "EXPERIMENTS.md").read_text(), flags=re.MULTILINE)
    named = {}
    for section in sections:
        heading = re.match(r"([TFAS]\d+) — ", section)
        if heading:
            keys = set(re.findall(r"python -m repro (?:fig )?([a-z0-9-]+)", section))
            assert len(keys) == 1, (heading.group(1), keys)
            named[heading.group(1)] = keys.pop()
    assert sorted(named.values()) == sorted(golden), named
