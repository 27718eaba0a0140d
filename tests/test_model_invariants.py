"""The CONGEST-model invariants the measured bounds rest on, as AST checks.

Two plain functions (REP002, REP005) take ``{relpath: ast.Module}`` and
return findings as ``"path:line: REPnnn ..."`` strings.  ``src/repro``,
``benchmarks`` and ``examples`` pass every check with no exemptions; every
``FIRES`` fixture fails its check and every ``SILENT`` fixture passes
both.  docs/static-analysis.md gives the paper statement behind each check.
"""

import ast
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WALKED = ("src/repro", "benchmarks", "examples")


def at(path, node, text):
    return f"{path}:{node.lineno}: {text}"


def dotted(node):
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def assigned(node):
    """The targets of an assignment statement, else ``[]``."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []


#: Constructors that take a seed; called without one they seed from the OS.
SEEDABLE = {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
            "numpy.random.Generator", "numpy.random.SeedSequence"}


def imported_names(tree):
    """Local name -> the dotted path an absolute import binds it to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                bound[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def unseeded_randomness(modules):
    """REP002: no draw from a module-global stream (``random.*``, legacy
    ``np.random.*``), no ``SystemRandom`` (it ignores its seed), and no seedable
    constructor called without a seed, however it was imported."""
    out = []
    for path, tree in modules.items():
        bound = imported_names(tree)
        for node in ast.walk(tree):
            name = dotted(node.func) if isinstance(node, ast.Call) else None
            head, _, rest = (name or "").partition(".")
            if head not in bound:
                continue
            qualified = f"{bound[head]}.{rest}" if rest else bound[head]
            module, _, fn = qualified.rpartition(".")
            if module not in ("random", "numpy.random"):
                continue
            if fn == "SystemRandom":
                why = "draws OS entropy whatever its seed"
            elif qualified in SEEDABLE:
                if node.args or node.keywords:
                    continue
                why = "without a seed seeds from the OS"
            else:
                why = "draws from the shared module-global stream"
            out.append(at(path, node, f"REP002 {name}() {why}"))
    return out


HOT = ("congest", "serve")
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def loop_calls(node, in_loop=False):
    """``(name, line)`` of every capitalised call inside a loop or comprehension."""
    in_loop = in_loop or isinstance(node, LOOPS)
    if in_loop and isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id[:1].isupper():
        yield node.func.id, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from loop_calls(child, in_loop)


def hot_path_slots(modules):
    """REP005: a class of ``repro.congest`` or ``repro.serve`` that a module of
    the same package instantiates in a loop has ``__slots__``."""
    defined, looped = {}, {}  # (package, class name) -> finding / loop site
    for path, tree in modules.items():
        package = next((p for p in HOT if p in path.split("/")), None)
        if package is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                slotted = any(getattr(t, "id", None) == "__slots__"
                              for stmt in node.body for t in assigned(stmt))
                defined[package, node.name] = None if slotted else at(
                    path, node, f"REP005 class {node.name!r} has no __slots__")
        for name, line in loop_calls(tree):
            looped.setdefault((package, name), f"{path}:{line}")
    return [f"{site} but is instantiated in a loop at {looped[key]}"
            for key, site in sorted(defined.items()) if site and key in looped]


CHECKS = {"REP002": unseeded_randomness, "REP005": hot_path_slots}


@pytest.fixture(scope="module")
def repo():
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for top in WALKED for path in sorted((ROOT / top).rglob("*.py"))}


@pytest.mark.parametrize("rule", CHECKS)
def test_repository_keeps_the_invariant(repo, rule):
    assert CHECKS[rule](repo) == []


def test_every_root_is_walked(repo):
    assert {top for top in WALKED for path in repo if path.startswith(top + "/")} == set(WALKED)


def parse(files):
    """``{relpath: ast}`` of dedented sources; a string is one ``congest`` module."""
    if isinstance(files, str):
        files = {"src/repro/congest/snippet.py": files}
    return {path: ast.parse(textwrap.dedent(text)) for path, text in files.items()}


FIRES = [
    ("REP002", "module-global-draw", "import random\nrandom.sample(xs, 2)"),
    ("REP002", "unseeded-constructor", "import random\nrng = random.Random()"),
    ("REP002", "snippet2-shared-default", """
        import random

        class RouteStore:
            # SNIPPETS.md snippet 2: one OS-seeded stream, built at def time,
            # behind every instance
            def __init__(self, node_id, rnd: random.Random = random.Random()):
                self.rnd = rnd
    """),
    ("REP002", "from-import-draw", "from random import shuffle\nshuffle(xs)"),
    ("REP002", "numpy-legacy-global", "import numpy as np\nnp.random.rand(3)"),
    ("REP002", "system-random-seeded", "import random\nrandom.SystemRandom(7)"),
    ("REP002", "from-import-system-random", "from random import SystemRandom\nSystemRandom(7)"),
    ("REP002", "numpy-default-rng-unseeded", "import numpy as np\nnp.random.default_rng()"),
    ("REP002", "numpy-random-state-unseeded", "import numpy\nnumpy.random.RandomState()"),
    ("REP002", "numpy-seed-sequence-unseeded", "from numpy import random\nrandom.SeedSequence()"),
    ("REP002", "from-import-default-rng-unseeded",
     "from numpy.random import default_rng\ndefault_rng()"),
    ("REP002", "from-import-random-unseeded", "from random import Random\nRandom()"),
    ("REP005", "slotless-loop-class", {
        "src/repro/congest/snippet.py": "class Packet:\n    pass",
        "src/repro/congest/pump.py": "def pump(n):\n    return [Packet(i) for i in range(n)]",
    }),
]

SILENT = [
    ("REP002", "seeded-and-injected", """
        import random
        import numpy as np
        from random import Random

        def pick(xs, rng=None):
            rng = rng if rng is not None else random.Random(42)
            gen = np.random.default_rng(7)
            other = Random("salt/0")
            return rng.sample(xs, 2), gen, other.random()
    """),
    ("REP002", "local-name-random", "def random(x):\n    return random(x)"),
    ("REP005", "slotted-class",
     "class Packet:\n    __slots__ = ()\n\nPACKETS = [Packet() for _ in range(3)]"),
    ("REP005", "cold-instantiation", "class Config:\n    pass\n\ndef load():\n    return Config()"),
    ("REP005", "non-hot-package",
     {"src/repro/analysis/snippet.py": "class Row:\n    pass\n\nrows = [Row() for _ in range(3)]"}),
]


@pytest.mark.parametrize("rule,files", [pytest.param(rule, files, id=f"{rule}-{name}")
                                        for rule, name, files in FIRES])
def test_fixture_fires(rule, files):
    assert CHECKS[rule](parse(files))


@pytest.mark.parametrize("files", [pytest.param(files, id=f"{rule}-{name}")
                                   for rule, name, files in SILENT])
def test_fixture_is_silent(files):
    modules = parse(files)
    assert [f for check in CHECKS.values() for f in check(modules)] == []
