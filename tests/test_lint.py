"""Tests for ``repro.lint`` — the CONGEST-invariant static analyzer (S17).

Each rule gets crafted positive *and* negative snippets (the positive must
fire, the negative must stay silent), the shipped reference programs must
lint clean, and the whole repository (package, benchmarks, examples) must
be clean with no warnings.
"""

import json
import textwrap

import pytest

from repro.__main__ import build_parser, main
from repro.errors import InputError
from repro.lint import (
    ALL_RULES,
    iter_python_files,
    parse_module,
    resolve_rules,
    run_lint,
)


def lint_snippet(tmp_path, source, *, rules=None,
                 relpath="src/repro/congest/snippet.py", extra=None):
    """Lint dedented ``source`` written at ``relpath`` under a tmp repo."""
    files = {relpath: source, **(extra or {})}
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return run_lint(["src"], rules=rules, root=tmp_path)


def rule_ids(report):
    return sorted({f.rule for f in report.findings})


# ---------------------------------------------------------------------------
# REP001 — CONGEST locality
# ---------------------------------------------------------------------------

class TestCongestLocality:
    def test_cheating_via_private_api_net_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Cheat(NodeProgram):
                def on_round(self, api, inbox):
                    return self._api._net.nodes()
        """, rules="REP001")
        assert rule_ids(report) == ["REP001"]
        assert any("_net" in f.message for f in report.findings)
        assert report.findings[0].context == "Cheat.on_round"

    def test_network_name_access_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Peek(NodeProgram):
                def on_round(self, api, inbox):
                    return net.arcs
        """, rules="REP001")
        assert any("must not hold the Network" in f.message
                   for f in report.findings)

    def test_network_construction_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Build(NodeProgram):
                def init(self, api):
                    self.world = Network(graph)
        """, rules="REP001")
        assert any("Network(...)" in f.message for f in report.findings)

    def test_global_statement_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            SEEN = set()

            class Shared(NodeProgram):
                def on_round(self, api, inbox):
                    global SEEN
        """, rules="REP001")
        assert any("global SEEN" in f.message for f in report.findings)

    def test_transitive_subclass_is_scoped(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Base(NodeProgram):
                pass

            class Derived(Base):
                def on_round(self, api, inbox):
                    api._net
        """, rules="REP001")
        assert report.findings and report.findings[0].context.startswith(
            "Derived")

    def test_well_behaved_program_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Good(NodeProgram):
                def init(self, api):
                    self._value = api.id
                    api.broadcast("hello", self._value)

                def on_round(self, api, inbox):
                    for msg in inbox:
                        if msg.payload > self._value:
                            self._value = msg.payload
                    api.halt()
        """, rules="REP001")
        assert report.clean

    def test_private_access_outside_programs_is_out_of_scope(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def helper(net):
                return net._graph
        """, rules="REP001")
        assert report.clean


# ---------------------------------------------------------------------------
# REP002 — unseeded randomness
# ---------------------------------------------------------------------------

class TestUnseededRandomness:
    def test_module_global_draw_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            def pick(xs):
                return random.sample(xs, 2)
        """, rules="REP002")
        assert rule_ids(report) == ["REP002"]

    def test_unseeded_random_constructor_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            rng = random.Random()

            class RouteStore:
                # the shared default of SNIPPETS.md snippet 2: one OS-seeded
                # stream, built at def time, behind every instance
                def __init__(self, node_id, rnd: random.Random = random.Random()):
                    self.rnd = rnd
        """, rules="REP002")
        assert [(f.context, "seeds from the OS" in f.message)
                for f in report.findings] \
            == [("<module>", True), ("RouteStore.__init__", True)]

    def test_from_import_draw_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            from random import shuffle

            def mix(xs):
                shuffle(xs)
        """, rules="REP002")
        assert any("imported from 'random'" in f.message
                   for f in report.findings)

    def test_numpy_legacy_global_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """, rules="REP002")
        assert any("legacy" in f.message for f in report.findings)

    def test_seeded_and_injected_streams_are_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random
            import numpy as np
            from random import Random

            def pick(xs, rng=None):
                rng = rng if rng is not None else random.Random(42)
                gen = np.random.default_rng(7)
                other = Random("salt/0")
                return rng.sample(xs, 2), gen, other.random()
        """, rules="REP002")
        assert report.clean

    def test_no_random_import_means_no_work(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def random(x):
                return x  # a local name, not the module
        """, rules="REP002")
        assert report.clean


# ---------------------------------------------------------------------------
# REP003 — unaccounted sends
# ---------------------------------------------------------------------------

class TestUnaccountedSends:
    def test_fabricated_width_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def forge(src, dst, payload):
                return Message(src, dst, "k", payload, 1)
        """, rules="REP003")
        assert rule_ids(report) == ["REP003"]

    def test_fabricated_keyword_width_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def forge(src, dst, payload):
                return Message(src, dst, "k", payload, words=3)
        """, rules="REP003")
        assert rule_ids(report) == ["REP003"]

    def test_rewriting_a_message_width_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def shrink(msg):
                msg.words = 1
        """, rules="REP003")
        assert any("assignment to '.words'" in f.message
                   for f in report.findings)

    def test_words_of_derived_width_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def sized(src, dst, payload):
                return Message(src, dst, "k", payload, words_of(payload))
        """, rules="REP003")
        assert report.clean

    def test_enclosing_words_of_call_is_silent(self, tmp_path):
        # The fast-path batching pattern: size once, reuse for the batch.
        report = lint_snippet(tmp_path, """
            def broadcast(src, ports, payload):
                words = words_of(payload)
                return [Message(src, p, "k", payload, words) for p in ports]
        """, rules="REP003")
        assert report.clean

    def test_copying_an_existing_width_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def forward(msg, nxt):
                return Message(msg.dst, nxt, msg.kind, msg.payload, msg.words)
        """, rules="REP003")
        assert report.clean

    def test_self_words_in_constructor_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Message:
                def __init__(self, payload):
                    self.words = words_of(payload)
        """, rules="REP003")
        assert report.clean


# ---------------------------------------------------------------------------
# REP004 — memory-meter bypass
# ---------------------------------------------------------------------------

class TestMemoryMeterBypass:
    def test_unmetered_growth_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Hoarder(NodeProgram):
                def on_round(self, api, inbox):
                    for msg in inbox:
                        self.seen.add(msg.src)
        """, rules="REP004")
        assert rule_ids(report) == ["REP004"]
        assert "self.seen.add" in report.findings[0].message

    def test_unmetered_subscript_store_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Tabler(NodeProgram):
                def on_round(self, api, inbox):
                    for msg in inbox:
                        self.table[msg.src] = msg.payload
        """, rules="REP004")
        assert rule_ids(report) == ["REP004"]

    def test_container_augassign_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Grower(NodeProgram):
                def on_round(self, api, inbox):
                    self.buf += [m.payload for m in inbox]
        """, rules="REP004")
        assert rule_ids(report) == ["REP004"]

    def test_charged_growth_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Metered(NodeProgram):
                def on_round(self, api, inbox):
                    for msg in inbox:
                        self.seen.add(msg.src)
                        api.memory.store(("seen", msg.src), msg.src)
        """, rules="REP004")
        assert report.clean

    def test_scalar_counters_are_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Counter(NodeProgram):
                def on_round(self, api, inbox):
                    self.rounds += 1
                    self.best = max(self.best, len(inbox))
        """, rules="REP004")
        assert report.clean

    def test_growth_outside_programs_is_out_of_scope(self, tmp_path):
        # Procedural phases charge through net.mem(v); covered dynamically.
        report = lint_snippet(tmp_path, """
            class Builder:
                def collect(self, items):
                    self.bag.extend(items)
        """, rules="REP004")
        assert report.clean


# ---------------------------------------------------------------------------
# REP005 — hot-path hygiene
# ---------------------------------------------------------------------------

class TestHotPathHygiene:
    def test_slotless_loop_instantiated_class_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Packet:
                def __init__(self, i):
                    self.i = i
        """, rules="REP005", extra={
            "src/repro/congest/pump.py": """
                from .snippet import Packet

                def pump(n):
                    return [Packet(i) for i in range(n)]
            """,
        })
        assert rule_ids(report) == ["REP005"]
        f = report.findings[0]
        assert f.path.endswith("congest/snippet.py")  # flagged at the def
        assert "pump.py" in f.message  # ...pointing at the loop site

    def test_slotted_class_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Packet:
                __slots__ = ("i",)

                def __init__(self, i):
                    self.i = i

            def pump(n):
                return [Packet(i) for i in range(n)]
        """, rules="REP005")
        assert report.clean

    def test_cold_instantiation_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Config:
                def __init__(self):
                    self.x = 1

            def load():
                return Config()
        """, rules="REP005")
        assert report.clean

    def test_non_hot_packages_are_out_of_scope(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Row:
                def __init__(self, v):
                    self.v = v

            def rows(n):
                return [Row(i) for i in range(n)]
        """, rules="REP005", relpath="src/repro/analysis/snippet.py")
        assert report.clean


# ---------------------------------------------------------------------------
# Pragmas, runner
# ---------------------------------------------------------------------------

class TestPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            x = random.random()  # lint: ignore[REP002] -- demo stream
        """, rules="REP002")
        assert report.clean
        assert len(report.suppressed) == 1

    def test_line_above_pragma_suppresses(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            # lint: ignore[REP002] -- demo stream
            x = random.random()
        """, rules="REP002")
        assert report.clean and len(report.suppressed) == 1

    def test_bare_pragma_suppresses_every_rule(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            x = random.random()  # lint: ignore
        """, rules="REP002")
        assert report.clean

    def test_pragma_for_another_rule_does_not_suppress(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            x = random.random()  # lint: ignore[REP001]
        """, rules="REP002")
        assert rule_ids(report) == ["REP002"]


class TestPragmaParsingEdgeCases:
    def _parse(self, tmp_path, source):
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(source))
        return parse_module(path, tmp_path)

    def test_multi_rule_list_suppresses_each(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            x = random.random()  # lint: ignore[REP002, REP001] -- demo
        """, rules="REP001,REP002")
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_multi_rule_record_parses_both_and_reason(self, tmp_path):
        mod = self._parse(tmp_path, """
            x = 1  # lint: ignore[REP003,REP007] -- prebuilt, freed later
        """)
        (record,) = mod.pragmas
        assert record.rules == frozenset({"REP003", "REP007"})
        assert record.reason == "prebuilt, freed later"

    def test_reason_keeps_trailing_prose(self, tmp_path):
        mod = self._parse(tmp_path, """
            x = 1  # lint: ignore[REP004] -- scratch (freed; see docs #12)
        """)
        assert mod.pragmas[0].reason == "scratch (freed; see docs #12)"

    def test_pragma_above_decorator_covers_the_def(self, tmp_path):
        mod = self._parse(tmp_path, """
            import functools

            # lint: ignore[REP001] -- fixture helper
            @functools.lru_cache()
            def helper():
                return 1
        """)
        # The pragma sits two lines above the ``def`` (decorator stack in
        # between) yet must suppress findings anchored at the def line.
        def_line = next(l for l, t in enumerate(mod.lines, 1)
                        if t.startswith("def helper"))
        assert mod.suppressed("REP001", def_line)
        assert not mod.suppressed("REP002", def_line)

    def test_docstring_mention_does_not_register(self, tmp_path):
        mod = self._parse(tmp_path, '''
            def f():
                """Write ``# lint: ignore[REP001] -- why`` to opt out."""
                return 1
        ''')
        assert mod.pragmas == []
        assert mod.suppressions == {}

    def test_doc_comment_mention_does_not_register(self, tmp_path):
        mod = self._parse(tmp_path, """
            #: prose about the # lint: ignore[REP001] syntax
            x = 1
        """)
        assert mod.pragmas == []


class TestPragmaHygiene:
    def test_missing_reason_fires_warning(self, tmp_path):
        report = lint_snippet(tmp_path, """
            x = 1  # lint: ignore[REP002]
        """, rules="REP012")
        assert rule_ids(report) == ["REP012"]
        f = report.findings[0]
        assert f.severity == "warning"
        assert "-- reason" in f.message

    def test_bare_pragma_fires_and_is_not_self_suppressed(self, tmp_path):
        # The bare pragma suppresses "every rule" -- except the audit of
        # itself, which only an explicit [REP012] listing may silence.
        report = lint_snippet(tmp_path, """
            x = 1  # lint: ignore -- reason present but scope unbounded
        """, rules="REP012")
        assert rule_ids(report) == ["REP012"]
        assert "names no rules" in report.findings[0].message

    def test_explicit_listing_suppresses_the_audit(self, tmp_path):
        report = lint_snippet(tmp_path, """
            x = 1  # lint: ignore[REP002, REP012]
        """, rules="REP012")
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_justified_scoped_pragma_is_silent(self, tmp_path):
        report = lint_snippet(tmp_path, """
            x = 1  # lint: ignore[REP002] -- demo stream, seed irrelevant
        """, rules="REP012")
        assert report.findings == []

    def test_warnings_do_not_gate_strict(self, tmp_path):
        report = lint_snippet(tmp_path, """
            x = 1  # lint: ignore[REP002]
        """, rules="REP012")
        assert report.findings and report.clean
        assert report.errors == []
        assert [f.rule for f in report.warnings] == ["REP012"]
        assert "(warning)" in report.findings[0].render()

    def test_unknown_rule_id_fires(self, tmp_path):
        # REP008 left the catalogue; a pragma still naming it excuses
        # nothing and says so.
        report = lint_snippet(tmp_path, """
            x = 1  # lint: ignore[REP008] -- fork-inherited, never pickled
        """)
        assert [(f.rule, f.severity) for f in report.findings] \
            == [("REP012", "warning")]
        assert "REP008, not in the rule catalogue" \
            in report.findings[0].message

    def test_pragma_that_suppressed_nothing_fires(self, tmp_path):
        # Line 4's pragma excuses a real REP002 finding; line 5's names a
        # rule of this run and suppresses nothing.
        report = lint_snippet(tmp_path, """
            import random

            x = random.random()  # lint: ignore[REP002] -- demo stream
            y = 1  # lint: ignore[REP002] -- left behind by a refactor
        """)
        assert len(report.suppressed) == 1
        (f,) = report.findings
        assert (f.rule, f.severity, f.line) == ("REP012", "warning", 5)
        assert "suppressed no finding" in f.message
        assert report.clean  # a warning: never gates --strict


class TestRunner:
    def test_resolve_rules_default_is_all(self):
        assert [r.id for r in resolve_rules(None)] \
            == [cls.id for cls in ALL_RULES]

    def test_resolve_rules_parses_csv_case_insensitively(self):
        assert [r.id for r in resolve_rules("rep001, rep004")] \
            == ["REP001", "REP004"]

    def test_resolve_rules_rejects_unknown(self):
        with pytest.raises(InputError):
            resolve_rules("REP999")

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        assert [p.name for p in iter_python_files([tmp_path])] == ["real.py"]

    def test_iter_python_files_rejects_missing(self, tmp_path):
        with pytest.raises(InputError):
            iter_python_files([tmp_path / "nope"])

    def test_syntax_error_becomes_rep000(self, tmp_path):
        report = lint_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(report) == ["REP000"]

    def test_run_record_kind_and_verdict(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random

            x = random.random()
        """, rules="REP002")
        record = report.to_run_record()
        assert record.kind == "lint"
        verdict = record.verdicts[0]
        assert verdict.name == "lint/clean"
        assert verdict.measured == 1.0 and not verdict.passed

    def test_clean_report_verdict_passes(self, tmp_path):
        record = lint_snippet(tmp_path, "x = 1\n").to_run_record()
        assert record.verdicts[0].passed


# ---------------------------------------------------------------------------
# The repository itself
# ---------------------------------------------------------------------------

class TestSelfClean:
    def test_reference_programs_lint_clean(self):
        report = run_lint(["src/repro/congest/protocol.py"])
        assert report.findings == []

    def test_whole_repository_is_clean(self):
        # Package, benchmarks and examples: no errors and no warnings.
        report = run_lint(["src/repro", "benchmarks", "examples"])
        assert report.findings == [], "\n" + report.render()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_parser_accepts_lint_flags(self):
        args = build_parser().parse_args(
            ["lint", "src/repro", "--rules", "REP001,REP002",
             "--strict", "--json"])
        assert args.command == "lint"
        assert args.paths == ["src/repro"]
        assert args.rules == "REP001,REP002"

    def test_explain_lists_the_catalogue(self, capsys):
        assert main(["lint", "--explain"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.id in out

    def test_strict_fails_on_violation(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(dirty), "--strict"]) == 1
        assert "REP002" in capsys.readouterr().out
        # Without --strict the findings are reported but do not fail.
        assert main(["lint", str(dirty)]) == 0

    def test_json_emits_lint_run_record(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "lint"
        assert record["verdicts"][0]["name"] == "lint/clean"
        assert record["verdicts"][0]["passed"] is True

    @pytest.mark.parametrize("flag", ["--flow", "--callgraph=json",
                                      "--write-baseline"])
    def test_flow_and_baseline_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["lint", flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_repository_strict_passes(self, capsys):
        assert main(["lint", "--strict", "--quiet"]) == 0
