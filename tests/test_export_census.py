"""Every export has a reader (ROADMAP item 5(c), made a rule).

A name a subpackage lists in ``__all__`` must be *read*: referenced by
identifier from a reader file -- the CLI, ``examples/``, ``benchmarks/``, the
CI workflow, or a python block of a markdown file tier-1 executes -- directly
or through the body of another top-level definition of ``src/repro`` that is
itself read (a return type lives through its function; a helper called only
by dead code is dead).  Imports, ``__all__`` entries, comments and docstrings
are not references, and ``tests/`` is not a reader.  Bare identifiers are
matched, which over-approximates liveness on purpose: the census can keep
code, never condemn it.  What nobody reads is deleted or explained below.
"""

import ast
import pathlib
import re

from .test_readme_snippets import EXECUTED_DOCS, python_blocks

ROOT = pathlib.Path(__file__).resolve().parent.parent

CLAIM = "claim of the paper checked only in tests"
ORACLE = "oracle or predicate that tests hold shipped code to"
KERNEL = "kernel of the engine differential matrix"

#: Exported, read by nothing outside ``tests/``, and kept -- for one of the
#: three reasons above ("a test imports it" is not one).
ALLOWED = {
    "verify_claim7": CLAIM,
    "claim6_bound": CLAIM,
    "max_cluster_membership": CLAIM,  # the measuring half of claim6_bound
    "quantization_stretch_bound": CLAIM,
    "degeneracy_orientation": CLAIM,  # footnote 5: arboricity of the hopset
    "forest_decomposition": CLAIM,
    "nash_williams_lower_bound": CLAIM,
    "verify_forest": CLAIM,
    "assert_laminar_intervals": ORACLE,
    "enabled": ORACLE,  # telemetry.enabled: the zero-overhead-when-detached tests
    "convergecast_aggregate": KERNEL,  # its charge is ROADMAP item 1's to replace
}


def identifiers(tree):
    """Every name and attribute the code mentions (imports are not mentions)."""
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def census(package, readers):
    """The names ``package``'s ``__init__`` files export that are not
    reachable from the identifier set ``readers``."""
    exports, bodies, frontier = set(), {}, set(readers)
    for path in package.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                if names == {"__all__"}:
                    if path.name == "__init__.py":
                        exports.update(ast.literal_eval(node.value))
                    continue
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:  # module-level code runs on import: it reads what it mentions
                frontier |= identifiers(node)
                continue
            for name in names:
                bodies.setdefault(name, set()).update(identifiers(node))
    live = set()
    while frontier:
        name = frontier.pop()
        live.add(name)
        frontier |= bodies.get(name, set()) - live
    return exports - live


def check(package, readers, allowed):
    """``(unread exports the allowlist does not explain, stale allowlist entries)``."""
    unread = census(package, readers)
    return sorted(unread - set(allowed)), sorted(set(allowed) - unread)


def reader_identifiers(root):
    sources = [root / "src" / "repro" / "__main__.py",
               *(root / "examples").rglob("*.py"), *(root / "benchmarks").rglob("*.py")]
    found = set()
    for text in [path.read_text() for path in sources] + [
            block for doc in EXECUTED_DOCS for block in python_blocks(root / doc)]:
        found |= identifiers(ast.parse(text))
    for workflow in (root / ".github" / "workflows").glob("*.yml"):  # shell + inline python
        found.update(re.findall(r"[A-Za-z_]\w*", workflow.read_text()))
    return found


def test_every_export_is_read_or_allowlisted():
    unexplained, stale = check(ROOT / "src" / "repro", reader_identifiers(ROOT), ALLOWED)
    assert not unexplained, (
        f"exported but read by no CLI command, example, benchmark, workflow or executed "
        f"doc block: {unexplained} -- delete them (with the tests that only exercised "
        f"them) or give them a reader")
    assert not stale, f"ALLOWED entries that are read, or no longer exported: {stale}"
    assert len(ALLOWED) <= 20 and set(ALLOWED.values()) <= {CLAIM, ORACLE, KERNEL}


def test_census_on_a_synthetic_package(tmp_path):
    """It reports an unread export, accepts it once allowlisted, and rejects
    that allowlist entry once a reader appears."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .a import Result, orphan, used\n"
        "__all__ = ['Result', 'orphan', 'used']\n")
    (pkg / "a.py").write_text(
        "from .b import helper, orphans_helper\n"
        "class Result: pass\n"
        "def used() -> Result:\n"
        "    return helper()\n"
        "def orphan():\n"
        "    '''used() mentions me only here.'''\n"
        "    return orphans_helper()  # used()\n")
    (pkg / "b.py").write_text(
        "def helper(): return 1\n"
        "def orphans_helper(): return Result\n")
    reader = identifiers(ast.parse("from pkg import orphan, used\nused()\n"))
    assert census(pkg, reader) == {"orphan"}  # Result lives through used()
    assert check(pkg, reader, {}) == (["orphan"], [])
    assert check(pkg, reader, {"orphan": ORACLE}) == ([], [])
    assert check(pkg, reader | {"orphan"}, {"orphan": ORACLE}) == ([], ["orphan"])
