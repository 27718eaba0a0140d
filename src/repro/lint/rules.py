"""The domain-specific checkers REP001-REP005 and the pragma audit REP012.

Each rule guards one invariant the paper's measured guarantees rest on; the
rule catalogue (docs/static-analysis.md) states the invariant, what the
checker flags, and the escape hatch (the pragma).  The checkers are
deliberately *scoped* rather than maximal: each flags the pattern it can
judge without flow analysis, and documents what it does not see, so a
clean run is a meaningful certificate and not noise-hiding.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from .core import (
    ModuleInfo,
    PragmaRecord,
    Rule,
    ScopedVisitor,
    attr_root,
    class_has_slots,
    contains_call_to,
    dotted,
    is_name,
    node_program_classes,
)
from .findings import Finding


# ---------------------------------------------------------------------------
# REP001 — CONGEST locality
# ---------------------------------------------------------------------------

class CongestLocality(Rule):
    """Code inside ``NodeProgram`` subclasses may touch the world only via
    its ``NodeApi``.

    Flags, inside methods of (transitive) ``NodeProgram`` subclasses:

    * access to any non-dunder private attribute on anything other than
      ``self`` -- ``api._net``, ``self._api._net``, ``msg._x`` all escape
      the public NodeApi surface (``self._state`` is the program's own);
    * attribute access or calls on names ``net`` / ``network`` and direct
      ``Network(...)`` construction -- a vertex program holding the whole
      network is exactly the global-state read the model forbids;
    * ``global`` statements -- module globals mutated across rounds are
      shared memory between vertices, which CONGEST does not have.
    """

    id = "REP001"
    title = "CONGEST locality: programs must go through NodeApi"
    invariant = ("Theorems 2-3 measure per-vertex memory and rounds; both "
                 "are meaningless if a vertex program can read global "
                 "state instead of receiving it over edges.")

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for cls in node_program_classes(mod.tree):
            visitor = _LocalityVisitor(self, mod, cls.name)
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visitor.visit(stmt)
            findings.extend(visitor.findings)
        return findings


class _LocalityVisitor(ScopedVisitor):
    def __init__(self, rule: Rule, mod: ModuleInfo, class_name: str) -> None:
        super().__init__(rule, mod)
        self._scope = [class_name]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        private = attr.startswith("_") and not (
            attr.startswith("__") and attr.endswith("__")
        )
        if private and not is_name(node.value, "self"):
            self.emit(node, f"private member {attr!r} accessed outside "
                            "'self': vertex programs may only use the "
                            "public NodeApi surface")
        if isinstance(node.value, ast.Name) and node.value.id in (
                "net", "network"):
            self.emit(node, f"attribute access on {node.value.id!r}: a "
                            "vertex program must not hold the Network")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if is_name(node.func, "Network"):
            self.emit(node, "Network(...) constructed inside a vertex "
                            "program: simulator state is not vertex state")
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        names = ", ".join(node.names)
        self.emit(node, f"'global {names}': module globals mutated across "
                        "rounds are shared memory between vertices")


# ---------------------------------------------------------------------------
# REP002 — unseeded randomness
# ---------------------------------------------------------------------------

#: ``random.Random``/``SystemRandom`` *with* arguments are the seeded
#: constructions the library standardizes on; everything else on the module
#: consumes or reseeds the shared global stream.
_SEEDED_FACTORIES = {"Random", "SystemRandom"}
_NUMPY_FACTORIES = {"default_rng", "RandomState", "Generator", "SeedSequence"}


class UnseededRandomness(Rule):
    """Bare ``random.*`` calls (the module-global stream) are flagged.

    Determinism is what makes the differential harness and the experiments
    golden reproducible: every draw must come from an injected or
    seed-constructed ``random.Random`` (``rng = random.Random(seed)``), as
    in the ``sample_pairs`` pattern.  Flags calls to the ``random`` module's
    functions (``random.random()``, ``random.sample()``, ``random.seed()``,
    ...), zero-argument ``random.Random()`` (which seeds from the OS), names
    imported *from* the module (``from random import sample``), and
    ``numpy.random.*`` legacy module-level draws.
    """

    id = "REP002"
    title = "unseeded randomness: inject an rng or construct Random(seed)"
    invariant = ("Reproducibility: differential tests and the experiments "
                 "golden compare runs across commits, which only "
                 "works when every random draw is seed-determined.")

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        random_aliases: Set[str] = set()
        numpy_aliases: Set[str] = set()
        from_imports: Set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name in ("numpy", "numpy.random"):
                        numpy_aliases.add((alias.asname or alias.name)
                                          .split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_FACTORIES:
                            from_imports.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_aliases.add(alias.asname or "random")
        if not (random_aliases or numpy_aliases or from_imports):
            return []
        visitor = _RandomVisitor(self, mod, random_aliases,
                                 numpy_aliases, from_imports)
        visitor.visit(mod.tree)
        return visitor.findings


class _RandomVisitor(ScopedVisitor):
    def __init__(self, rule: Rule, mod: ModuleInfo,
                 random_aliases: Set[str], numpy_aliases: Set[str],
                 from_imports: Set[str]) -> None:
        super().__init__(rule, mod)
        self.random_aliases = random_aliases
        self.numpy_aliases = numpy_aliases
        self.from_imports = from_imports

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            chain = dotted(func)
            if chain is not None:
                head, _, rest = chain.partition(".")
                if head in self.random_aliases and "." not in rest:
                    if rest not in _SEEDED_FACTORIES:
                        self.emit(node, f"{chain}() draws from the shared "
                                        "module-global stream; thread an "
                                        "injected rng / Random(seed) "
                                        "through instead")
                    elif not node.args and not node.keywords:
                        self.emit(node, f"{chain}() without a seed argument "
                                        "seeds from the OS; pass an "
                                        "explicit seed")
                elif (head in self.numpy_aliases
                        and rest.startswith("random.")):
                    fn = rest.split(".", 1)[1]
                    if fn not in _NUMPY_FACTORIES:
                        self.emit(node, f"{chain}() uses numpy's legacy "
                                        "global RNG; use a seeded "
                                        "Generator (default_rng(seed))")
        elif isinstance(func, ast.Name) and func.id in self.from_imports:
            self.emit(node, f"{func.id}() was imported from 'random' and "
                            "draws from the shared module-global stream")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP003 — unaccounted sends
# ---------------------------------------------------------------------------

class UnaccountedSends(Rule):
    """Message widths must come from ``words_of``.

    ``Message(...)`` computes its own width, and ``Network.send*`` size
    their payloads -- *unless* the caller passes a precomputed ``words``
    (the fast-path batching pattern).  A precomputed width is only sound
    when it was derived from ``words_of`` (or copied from an existing
    sized message), so the rule flags:

    * ``Message(..., words)`` / ``Message(..., words=...)`` in a function
      that never calls ``words_of`` and whose width expression is not an
      existing message's ``.words``;
    * assignment to the ``.words`` attribute of anything but ``self``
      (messages are immutable by convention; rewriting a width severs it
      from the payload it was computed for).
    """

    id = "REP003"
    title = "unaccounted send: payload width must come from words_of"
    invariant = ("The O(1)-words-per-message CONGEST restriction "
                 "(Section 2) is enforced by charging ceil(words/limit) "
                 "rounds; a fabricated width silently undercharges.")

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _SendsVisitor(self, mod)
        visitor.visit(mod.tree)
        return visitor.findings


class _SendsVisitor(ScopedVisitor):
    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        super().__init__(rule, mod)
        #: has-words_of flags for the enclosing function stack.
        self._fn_sized: List[bool] = []

    def _visit_function(self, node) -> None:
        self._fn_sized.append(contains_call_to(node, "words_of"))
        try:
            self._visit_scoped(node, node.name)
        finally:
            self._fn_sized.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "Message":
            width: Optional[ast.AST] = None
            if len(node.args) >= 5:
                width = node.args[4]
            for kw in node.keywords:
                if kw.arg == "words":
                    width = kw.value
            if width is not None and not self._width_accounted(width):
                self.emit(node, "Message(..., words=...) with a width that "
                                "never passed through words_of")
        self.generic_visit(node)

    def _width_accounted(self, width: ast.AST) -> bool:
        if self._fn_sized and self._fn_sized[-1]:
            return True  # the enclosing function derives widths via words_of
        if contains_call_to(width, "words_of"):
            return True
        # Copying an already-sized message's width (forward/reply paths).
        if isinstance(width, ast.Attribute) and width.attr == "words":
            return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_words_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_words_store(node.target)
        self.generic_visit(node)

    def _check_words_store(self, target: ast.AST) -> None:
        if (isinstance(target, ast.Attribute) and target.attr == "words"
                and not is_name(target.value, "self")):
            self.emit(target, "assignment to '.words' of a message after "
                              "construction: widths are derived from the "
                              "payload, never rewritten")


# ---------------------------------------------------------------------------
# REP004 — memory-meter bypass
# ---------------------------------------------------------------------------

#: Mutating calls that grow a container in place.
_GROWTH_METHODS = {"append", "add", "extend", "update", "insert",
                   "setdefault", "appendleft"}
#: A call is a meter charge when its receiver chain mentions one of these
#: (``api.memory.store``, ``net.mem(v).add``, ``meter.store``, ...).
_METER_HINTS = ("memory", "meter", "mem")
_CHARGE_METHODS = {"store", "add", "free", "free_prefix"}


class MemoryMeterBypass(Rule):
    """Per-vertex state retained across rounds must be metered.

    Scope: methods of ``NodeProgram`` subclasses -- there, ``self.*`` *is*
    the vertex's retained state (Tables 1-2's "memory per vertex").  A
    method that grows a container on ``self`` (``self.sketch[k] = v``,
    ``self.seen.add(...)``, ``self.buf += [...]``) without any
    ``MemoryMeter`` charge (``api.memory.store/add``) in the same method
    is accumulating unaccounted words.  Procedural phases charge through
    ``net.mem(v)`` and are covered dynamically by the meters themselves;
    this rule guards the protocol-API surface where downstream code lives.
    """

    id = "REP004"
    title = "memory-meter bypass: vertex state grown without a charge"
    invariant = ("The headline O(log n) memory-per-vertex result "
                 "(Theorem 2) is *measured* via MemoryMeter high-water "
                 "marks; state grown outside the meter is invisible to "
                 "the measurement.")

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for cls in node_program_classes(mod.tree):
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                growths = _growth_sites(stmt)
                if growths and not _has_charge(stmt):
                    context = f"{cls.name}.{stmt.name}"
                    for node, what in growths:
                        findings.append(Finding(
                            rule=self.id, path=mod.relpath,
                            line=node.lineno, col=node.col_offset,
                            context=context,
                            message=(f"{what} grows vertex state with no "
                                     "MemoryMeter charge anywhere in "
                                     f"{stmt.name}()"),
                        ))
        return findings


def _growth_sites(fn: ast.AST) -> List[Tuple[ast.AST, str]]:
    out: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _GROWTH_METHODS
                    and isinstance(func.value, (ast.Attribute,
                                                ast.Subscript))
                    and is_name(attr_root(func.value), "self")):
                out.append((node, f"self.{_describe(func.value)}."
                                  f"{func.attr}(...)"))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and is_name(attr_root(target.value), "self")):
                    out.append((node,
                                f"self.{_describe(target.value)}[...] ="))
        elif isinstance(node, ast.AugAssign):
            # Only container growth: `self.x += [..]` / `|= {...}`; scalar
            # counters (`self.patience -= 1`) keep a constant footprint.
            if (isinstance(node.target, ast.Attribute)
                    and is_name(node.target.value, "self")
                    and isinstance(node.value, (ast.List, ast.Tuple,
                                                ast.Set, ast.Dict,
                                                ast.ListComp, ast.SetComp,
                                                ast.DictComp))):
                out.append((node, f"self.{node.target.attr} +="))
    return out


def _describe(node: ast.AST) -> str:
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return "<state>"


def _has_charge(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CHARGE_METHODS):
            continue
        chain = node.func.value
        for sub in ast.walk(chain):
            label = None
            if isinstance(sub, ast.Attribute):
                label = sub.attr
            elif isinstance(sub, ast.Name):
                label = sub.id
            if label is not None and any(
                    h == label or h in label for h in _METER_HINTS):
                return True
    return False


# ---------------------------------------------------------------------------
# REP005 — hot-path hygiene
# ---------------------------------------------------------------------------

#: Packages whose inner loops are the measured hot paths (the PR-3 round
#: engine and the PR-4 query engine).
_HOT_SEGMENTS = ("congest", "serve")


class HotPathHygiene(Rule):
    """Classes instantiated per-message / per-arc need ``__slots__``.

    Scope: the ``repro.congest`` and ``repro.serve`` packages.  A class
    defined there without ``__slots__`` that is instantiated inside a
    lexical loop or comprehension *anywhere in the same package* is
    flagged at its definition: one dict per message/arc/vertex is the
    allocation pattern PR 3's fast path removed, and a slotless class on
    that path quietly reintroduces it.  Cross-module by design -- the
    class and its hot instantiation usually live in different files.
    """

    id = "REP005"
    title = "hot-path hygiene: loop-instantiated class without __slots__"
    invariant = ("The round engine's and the serve loop's measured speed "
                 "(benchmarks/sim_micro.py, benchmarks/perf) assumes "
                 "per-message objects stay dict-free; __slots__ is what "
                 "keeps the constructor cheap.")

    def __init__(self) -> None:
        #: package segment -> {class name -> (has_slots, def finding site)}
        self._classes: Dict[str, Dict[str, Tuple[bool, Finding]]] = {}
        #: package segment -> {class name -> first loop-instantiation site}
        self._loop_calls: Dict[str, Dict[str, str]] = {}

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        segment = _hot_segment(mod.relpath)
        if segment is None:
            return []
        classes = self._classes.setdefault(segment, {})
        loop_calls = self._loop_calls.setdefault(segment, {})
        visitor = _HotPathVisitor(self, mod)
        visitor.visit(mod.tree)
        for name, (has_slots, site) in visitor.classes.items():
            classes[name] = (has_slots, site)
        for name, where in visitor.loop_calls.items():
            loop_calls.setdefault(name, where)
        return []

    def finish(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        findings: List[Finding] = []
        for segment, classes in self._classes.items():
            loop_calls = self._loop_calls.get(segment, {})
            for name, (has_slots, site) in sorted(classes.items()):
                if has_slots or name not in loop_calls:
                    continue
                where = loop_calls[name]
                findings.append(Finding(
                    rule=self.id, path=site.path, line=site.line,
                    col=site.col, context=site.context,
                    message=(f"class {name!r} has no __slots__ but is "
                             f"instantiated in a loop at {where}: one "
                             "__dict__ per instance on a hot path"),
                ))
        return findings


def _hot_segment(relpath: str) -> Optional[str]:
    parts = relpath.split("/")
    for seg in _HOT_SEGMENTS:
        if seg in parts:
            return seg
    return None


class _HotPathVisitor(ScopedVisitor):
    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        super().__init__(rule, mod)
        self.classes: Dict[str, Tuple[bool, Finding]] = {}
        self.loop_calls: Dict[str, str] = {}
        self._loop_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        site = Finding(rule=self.rule.id, path=self.mod.relpath,
                       line=node.lineno, col=node.col_offset,
                       context=self.context, message=node.name)
        self.classes[node.name] = (class_has_slots(node), site)
        self._visit_scoped(node, node.name)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop
    visit_ListComp = _visit_loop
    visit_SetComp = _visit_loop
    visit_DictComp = _visit_loop
    visit_GeneratorExp = _visit_loop

    def visit_Call(self, node: ast.Call) -> None:
        if (self._loop_depth > 0 and isinstance(node.func, ast.Name)
                and node.func.id[:1].isupper()):
            self.loop_calls.setdefault(
                node.func.id, f"{self.mod.relpath}:{node.lineno}"
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP012 — pragma hygiene
# ---------------------------------------------------------------------------

class PragmaHygiene(Rule):
    """Every ``# lint: ignore`` pragma must be justified, valid and live.

    The pragma is the inline escape hatch for by-design violations; its
    ``-- reason`` tail is what makes a suppressed finding auditable
    instead of invisible.  Flags (at *warning* severity -- reported,
    never gating ``--strict``):

    * a pragma with an empty or missing reason;
    * a bare ``# lint: ignore`` with no rule list (it suppresses every
      rule on the line, which is never the documented intent);
    * a pragma naming a rule id that is not in the catalogue (a typo, or a
      rule that was since deleted);
    * a pragma that suppressed no finding in the run that evaluated it
      (:meth:`unused`, which the runner calls once suppression is settled;
      only pragmas naming at least one rule of that run are judged, and a
      run over part of the tree can miss the other half of a cross-module
      REP005 finding).

    REP012 findings can only be suppressed by naming the rule explicitly
    (``# lint: ignore[REP012] -- ...``); a bare pragma does not
    self-suppress its own hygiene warning.  The "suppressed nothing"
    warning cannot be suppressed at all: deleting the pragma is the fix.
    """

    id = "REP012"
    title = "pragma hygiene: every suppression is justified and live"
    invariant = ("A clean lint run is a certificate only if every "
                 "suppression is self-documenting and still excuses "
                 "something; a bare or dead pragma is an invisible hole "
                 "in the certificate.")

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for pragma in mod.pragmas:
            problems: List[str] = []
            if not pragma.reason:
                problems.append("has no '-- reason' tail")
            if pragma.rules is None:
                problems.append("names no rules (suppresses everything "
                                "on the line)")
            elif not pragma.rules:
                problems.append("has an empty rule list")
            else:
                unknown = sorted(pragma.rules - RULES_BY_ID.keys())
                if unknown:
                    problems.append("names " + ", ".join(unknown)
                                    + ", not in the rule catalogue")
            if problems:
                findings.append(self._warn(
                    mod, pragma,
                    " and ".join(problems)
                    + "; write '# lint: ignore[REP00X] -- why'"))
        return findings

    def unused(self, modules: Sequence[ModuleInfo],
               used: Set[Tuple[str, int]],
               active: Set[str]) -> List[Finding]:
        """Warn about every pragma outside ``used`` -- the ``(relpath,
        line)`` of the pragmas that suppressed a finding -- that covers a
        rule of this run (``active``) and so could have."""
        return [
            self._warn(mod, pragma,
                       "suppressed no finding in this run; remove it")
            for mod in modules for pragma in mod.pragmas
            if (mod.relpath, pragma.line) not in used
            and any(pragma.covers(rule) for rule in active)
        ]

    def _warn(self, mod: ModuleInfo, pragma: PragmaRecord,
              problem: str) -> Finding:
        return Finding(
            rule=self.id, path=mod.relpath, line=pragma.line, col=0,
            context="<module>", severity="warning",
            message=f"# lint: ignore pragma {problem}",
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_RULES: Tuple[Type[Rule], ...] = (
    CongestLocality,
    UnseededRandomness,
    UnaccountedSends,
    MemoryMeterBypass,
    HotPathHygiene,
    PragmaHygiene,
)

RULES_BY_ID: Dict[str, Type[Rule]] = {r.id: r for r in ALL_RULES}
