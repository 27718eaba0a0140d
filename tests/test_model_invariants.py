"""The CONGEST-model invariants the measured bounds rest on, as AST checks.

Five plain functions (REP001-REP005) take ``{relpath: ast.Module}`` and
return findings as ``"path:line: REPnnn ..."`` strings.  ``src/repro``,
``benchmarks`` and ``examples`` pass every check with no exemptions; every
``FIRES`` fixture fails its check and every ``SILENT`` fixture passes all
five.  docs/static-analysis.md gives the paper statement behind each check.
"""

import ast
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WALKED = ("src/repro", "benchmarks", "examples")


def at(path, node, text):
    return f"{path}:{node.lineno}: {text}"


def is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def dotted(node):
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def root_of(node):
    """The leftmost value of an attribute/subscript/call chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node


def called(call):
    """``f`` of ``f(...)`` and of ``x.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def calls(node, name):
    """True when ``node`` contains a call to ``name``."""
    return any(isinstance(sub, ast.Call) and called(sub) == name for sub in ast.walk(node))


def assigned(node):
    """The targets of an assignment statement, else ``[]``."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []


def node_programs(tree):
    """Classes extending ``NodeProgram``, transitively within the module."""
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    names, found = {"NodeProgram"}, []
    while True:
        new = [cls for cls in classes if cls not in found
               and names & {getattr(b, "id", None) or getattr(b, "attr", None) for b in cls.bases}]
        if not new:
            return found
        found += new
        names |= {cls.name for cls in new}


def methods(cls):
    return [s for s in cls.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]


def congest_locality(modules):
    """REP001: inside a ``NodeProgram``, no private member of anything but
    ``self``, no ``net``/``network``, no ``Network(...)``, no ``global``."""
    out = []
    for path, tree in modules.items():
        for cls in node_programs(tree):
            for method in methods(cls):
                where = f"REP001 {cls.name}.{method.name}"
                for node in ast.walk(method):
                    if isinstance(node, ast.Attribute):
                        attr = node.attr
                        dunder = attr.startswith("__") and attr.endswith("__")
                        if attr.startswith("_") and not dunder and not is_self(node.value):
                            out.append(at(path, node, f"{where} reads private {attr!r}"))
                        if isinstance(node.value, ast.Name) and node.value.id in ("net", "network"):
                            out.append(at(path, node, f"{where} holds the Network"))
                    elif isinstance(node, ast.Call) and called(node) == "Network":
                        out.append(at(path, node, f"{where} builds a Network"))
                    elif isinstance(node, ast.Global):
                        out.append(at(path, node, f"{where}: global {', '.join(node.names)}"))
    return out


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


def unaccounted_sends(modules):
    """REP003: a width passed to ``Message`` comes from ``words_of`` (in the
    expression or the enclosing function) or a message's ``.words``, and no
    ``.words`` but ``self``'s is assigned."""
    out = []

    def visit(path, node, sized):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sized = calls(node, "words_of")
        elif isinstance(node, ast.Call) and called(node) == "Message":
            for width in node.args[4:5] + [kw.value for kw in node.keywords if kw.arg == "words"]:
                if not (sized or calls(width, "words_of")
                        or isinstance(width, ast.Attribute) and width.attr == "words"):
                    out.append(at(path, node, "REP003 Message width never passed through words_of"))
        for target in assigned(node):
            if getattr(target, "attr", None) == "words" and not is_self(target.value):
                out.append(at(path, target, "REP003 a message's .words rewritten"))
        for child in ast.iter_child_nodes(node):
            visit(path, child, sized)

    for path, tree in modules.items():
        visit(path, tree, False)
    return out


GROWTH = {"append", "add", "extend", "update", "insert", "setdefault", "appendleft"}
CHARGES = {"store", "add", "free", "free_prefix"}
CONTAINERS = (ast.List, ast.Tuple, ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp)


def grows_self(node):
    """``self.x.add(...)``, ``self.x[k] = v`` or ``self.x += [...]``; a scalar
    counter (``self.n += 1``) keeps a constant footprint and is not growth."""
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr in GROWTH
                and isinstance(func.value, (ast.Attribute, ast.Subscript))
                and is_self(root_of(func.value)))
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Subscript) and is_self(root_of(t.value)) for t in node.targets)
    return (isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)
            and is_self(node.target.value) and isinstance(node.value, CONTAINERS))


def charges_meter(node):
    """``api.memory.store(...)``, ``meter.add(...)``, ``net.mem(v).free(...)``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in CHARGES):
        return False
    labels = [getattr(sub, "attr", None) or getattr(sub, "id", "")
              for sub in ast.walk(node.func.value)]
    return any("mem" in label or "meter" in label for label in labels)


def meter_bypass(modules):
    """REP004: a ``NodeProgram`` method that grows a container on ``self`` (the
    vertex's retained state) charges its ``MemoryMeter`` somewhere."""
    out = []
    for path, tree in modules.items():
        for cls in node_programs(tree):
            for method in methods(cls):
                nodes = list(ast.walk(method))
                if not any(charges_meter(node) for node in nodes):
                    out += [at(path, node, f"REP004 {cls.name}.{method.name} grows vertex "
                                           "state with no MemoryMeter charge")
                            for node in nodes if grows_self(node)]
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


CHECKS = {"REP001": congest_locality, "REP002": unseeded_randomness,
          "REP003": unaccounted_sends, "REP004": meter_bypass, "REP005": hot_path_slots}


@pytest.fixture(scope="module")
def repo():
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for top in WALKED for path in sorted((ROOT / top).rglob("*.py"))}


@pytest.mark.parametrize("rule", CHECKS)
def test_repository_keeps_the_invariant(repo, rule):
    assert CHECKS[rule](repo) == []


def test_every_root_is_walked(repo):
    assert {top for top in WALKED for path in repo if path.startswith(top + "/")} == set(WALKED)


def test_program_checks_see_the_reference_programs(repo):
    """REP001/REP004 pass vacuously if no ``NodeProgram`` is found."""
    seen = {(path, cls.name) for path, tree in repo.items() for cls in node_programs(tree)}
    assert {("src/repro/congest/protocol.py", "FloodMax"),
            ("src/repro/congest/protocol.py", "BfsProgram"),
            ("examples/custom_protocol.py", "SeedSketch")} <= seen


def program(*lines):
    """A ``NodeProgram`` whose ``on_round`` runs ``lines``."""
    return "\n        ".join(["class P(NodeProgram):\n    def on_round(self, api, inbox):",
                               *lines])


def parse(files):
    """``{relpath: ast}`` of dedented sources; a string is one ``congest`` module."""
    if isinstance(files, str):
        files = {"src/repro/congest/snippet.py": files}
    return {path: ast.parse(textwrap.dedent(text)) for path, text in files.items()}


FIRES = [
    ("REP001", "private-api-net", program("return self._api._net.nodes()")),
    ("REP001", "net-name", program("return net.arcs")),
    ("REP001", "network-construction", program("self.world = Network(graph)")),
    ("REP001", "global", program("global SEEN")),
    ("REP001", "transitive-subclass",
     "class Base(NodeProgram):\n    pass\n\n" + program("api._net").replace("NodeProgram", "Base")),
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
    ("REP003", "fabricated-width", 'Message(src, dst, "k", payload, 1)'),
    ("REP003", "fabricated-keyword-width", 'Message(src, dst, "k", payload, words=3)'),
    ("REP003", "rewritten-width", "def shrink(msg):\n    msg.words = 1"),
    ("REP004", "unmetered-add", program("for msg in inbox:", "    self.seen.add(msg.src)")),
    ("REP004", "unmetered-subscript",
     program("for msg in inbox:", "    self.table[msg.src] = msg.payload")),
    ("REP004", "container-augassign", program("self.buf += [m.payload for m in inbox]")),
    ("REP005", "slotless-loop-class", {
        "src/repro/congest/snippet.py": "class Packet:\n    pass",
        "src/repro/congest/pump.py": "def pump(n):\n    return [Packet(i) for i in range(n)]",
    }),
]

SILENT = [
    ("REP001", "well-behaved-program", """
        class Good(NodeProgram):
            def init(self, api):
                self._value = api.id
                api.broadcast("hello", self._value)

            def on_round(self, api, inbox):
                for msg in inbox:
                    if msg.payload > self._value:
                        self._value = msg.payload
                api.halt()
    """),
    ("REP001", "private-outside-programs", "def helper(net):\n    return net._graph"),
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
    ("REP003", "words-of-width", 'Message(src, dst, "k", payload, words_of(payload))'),
    ("REP003", "enclosing-words-of", """
        def broadcast(src, ports, payload):
            words = words_of(payload)
            return [Message(src, p, "k", payload, words) for p in ports]
    """),
    ("REP003", "copied-width", "Message(msg.dst, nxt, msg.kind, msg.payload, msg.words)"),
    ("REP003", "self-words",
     "class Message:\n    def __init__(self, payload):\n        self.words = words_of(payload)"),
    ("REP004", "charged-growth", program("for msg in inbox:", "    self.seen.add(msg.src)",
                                         "    api.memory.store(('seen', msg.src), msg.src)")),
    ("REP004", "scalar-counters",
     program("self.rounds += 1", "self.best = max(self.best, len(inbox))")),
    ("REP004", "outside-programs",
     "class Builder:\n    def collect(self, items):\n        self.bag.extend(items)"),
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
