"""Command-line entry point: ``python -m repro <command>``.

Regenerates the paper's tables and the figure / ablation sweeps::

    python -m repro table2                 # Table 2, default workload
    python -m repro table1 --n 200 --k 3   # Table 1
    python -m repro fig tree-memory        # one of the F1-F9 sweeps
    python -m repro fig ablation-q         # one of the A1-A3 ablations
    python -m repro demo                   # tiny end-to-end demo

Telemetry surfaces (docs/observability.md):

    python -m repro table2 --json          # RunRecord manifest + verdicts
    python -m repro table1 --json --strict # exit 1 on any bound violation
    python -m repro trace tree-rounds --jsonl   # manifest + per-row JSONL
    python -m repro fig stretch --profile  # span tree with round breakdown
    python -m repro report --fast --json   # both tables' RunRecords + figures
    python -m repro serve --trace-out traces.jsonl  # sampled query traces
    python -m repro serve --workers 4      # sharded shared-memory serving
    python -m repro explain --worst 3      # per-level stretch attribution

Every subcommand takes ``--quiet`` (suppress stdout) and ``--out <path>``
(write the output to a file) so telemetry can be redirected without shell
plumbing.  Every run is recorded (:func:`repro.telemetry.record_run`).

This is a shell over :mod:`repro.analysis`: ``fig <name>`` runs a sweep at
its defaults, which are the workloads of EXPERIMENTS.md, and
``tests/test_experiments_golden.py`` pins those rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import (
    ReportSpec,
    ablation_aspect_ratio,
    ablation_epsilon,
    ablation_q,
    fig_graph_rounds,
    fig_hopset,
    fig_multitree,
    fig_sizes_vs_k,
    fig_stretch,
    fig_tree_memory,
    fig_tree_rounds,
    fig_tree_sizes,
    fig_tree_styles,
    format_records,
    generate_report,
    generate_report_json,
    run_table1,
    run_table2,
)
from .errors import InputError
from .serve.workloads import WORKLOADS
from .telemetry import (
    RunRecord,
    make_run_record,
    record_run,
    render_profile,
    verdict_from_dict,
)
from .telemetry import flight as _flight

FIGURES = {
    "tree-rounds": (fig_tree_rounds, "F1: tree-routing rounds vs n"),
    "tree-memory": (fig_tree_memory, "F2: memory per vertex vs n"),
    "tree-sizes": (fig_tree_sizes, "F3: tree artifact sizes vs n"),
    "stretch": (fig_stretch, "F4: stretch vs 4k-3 bound"),
    "sizes-vs-k": (fig_sizes_vs_k, "F5: table/label words vs k"),
    "hopset": (fig_hopset, "F6: hopset tradeoff vs kappa"),
    "graph-rounds": (fig_graph_rounds, "F7: general-scheme cost vs n"),
    "multitree": (fig_multitree, "F8: multi-tree parallel construction"),
    "tree-styles": (fig_tree_styles, "F9: tree-shape insensitivity"),
}

#: Numbered figure names accepted as aliases (``fig1_tree_rounds`` is
#: ``tree-rounds``).
FIGURE_ALIASES = {
    f"fig{i}_{name.replace('-', '_')}": name
    for i, name in enumerate(FIGURES, start=1)
}

#: Everything ``fig`` / ``trace`` run: the nine figures and the three ablations.
_SWEEPS = {
    **FIGURES,
    "ablation-aspect-ratio": (ablation_aspect_ratio, "A1: aspect-ratio independence (n=500)"),
    "ablation-q": (ablation_q, "A2: sampling rate q (tree routing, n=1000)"),
    "ablation-epsilon": (ablation_epsilon, "A3: approximation slack epsilon (n=400, k=3)"),
}


# -- arguments ---------------------------------------------------------------
# A flag that more than one command takes is declared once, in a parent
# parser; ``add_arguments(new, shared)`` creates the command's subparser
# with ``new(parents=[...], help=...)`` and adds the command's own flags.

def _shared_parsers() -> SimpleNamespace:
    def parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    output = parent()
    output.add_argument("--quiet", action="store_true", help="suppress stdout (useful with --out)")
    output.add_argument("--out", metavar="PATH", help="also write the output to PATH")
    profiled = parent(output)
    profiled.add_argument(
        "--profile", action="store_true",
        help="append the telemetry span tree (wall-clock + round breakdown); on stderr when "
             "the output is JSON")
    as_json = parent()
    as_json.add_argument(
        "--json", action="store_true",
        help="emit JSON: the run's RunRecord manifest (fig: the sweep records; report: both "
             "tables' RunRecords + figure records)")
    verdicts = parent(as_json)
    verdicts.add_argument(
        "--strict", action="store_true",
        help="exit 1 if a verdict of the run fails (paper bound, stretch SLO, "
             "attribution exactness)")
    return SimpleNamespace(output=output, profiled=profiled, as_json=as_json,
                           verdicts=verdicts)


def _checked(number: Callable[[str], Any], ok: Callable[[Any], bool],
             want: str, kind: str) -> Callable[[str], Any]:
    """argparse type: an ``int`` or ``float`` argument ``ok`` accepts."""
    def parse(text: str) -> Any:
        value = number(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value
    parse.__name__ = f"{kind} {number.__name__}"
    return parse


def _positive(number: Callable[[str], Any]) -> Callable[[str], Any]:
    """argparse type: an ``int`` or ``float`` argument that must be > 0."""
    return _checked(number, lambda v: v > 0, "> 0", "positive")


def _args_table1(new, shared) -> None:
    add = new(parents=[shared.profiled, shared.verdicts],
              help="compact routing comparison (Table 1)").add_argument
    add("--n", type=int, default=200)
    add("--k", type=int, default=3)
    add("--seed", type=int, default=0)
    add("--pairs", type=_positive(int), default=100)


def _args_table2(new, shared) -> None:
    add = new(parents=[shared.profiled, shared.verdicts],
              help="tree routing comparison (Table 2)").add_argument
    add("--n", type=int, default=1000)
    add("--seed", type=int, default=0)


_FIG_NAMES = sorted(_SWEEPS) + sorted(FIGURE_ALIASES)


def _args_fig(new, shared) -> None:
    fig = new(parents=[shared.profiled, shared.as_json],
              help="run one figure or ablation sweep at its EXPERIMENTS.md workload")
    fig.add_argument("name", choices=_FIG_NAMES)


def _args_trace(new, shared) -> None:
    trace = new(parents=[shared.profiled],
                help="run one sweep under telemetry, emit structured records")
    # No --json flag: trace output is always JSON, which `_finish` must know.
    trace.set_defaults(json=True)
    add = trace.add_argument
    add("name", choices=_FIG_NAMES)
    add("--jsonl", action="store_true",
        help="one JSON object per line: RunRecord manifest first, then each sweep row")
    add("--flight", action="store_true",
        help="give every network that runs a flight recorder (round-resolved "
             "memory/congestion)")
    add("--stride", type=_positive(int), default=16,
        help="flight-recorder sampling stride in rounds (with --flight; default 16)")


def _args_serve(new, shared) -> None:
    add = new(parents=[shared.profiled, shared.verdicts],
              help="serve a seeded query workload against a built scheme (S16)").add_argument
    add("--workload", choices=list(WORKLOADS), default="uniform",
        help="traffic model (default: uniform)")
    add("--queries", type=_positive(int), default=1000)
    add("--n", type=int, default=200, help="graph size (random connected family)")
    add("--k", type=int, default=3, help="hierarchy parameter of the built scheme")
    add("--seed", type=int, default=0)
    add("--builder", choices=("centralized", "distributed"), default="centralized",
        help="scheme construction (default: centralized)")
    add("--cache", default=4096, metavar="SIZE",
        type=_checked(int, lambda v: v >= 0, ">= 0", "non-negative"),
        help="LRU decision-cache entries (0 disables)")
    add("--zipf-alpha", type=float, default=1.1)
    add("--metrics-out", metavar="PATH",
        help="write a Prometheus text-format snapshot of the serving metrics (S18, "
             "docs/observability.md); with --workers, of the merged report")
    add("--workers", type=_positive(int), default=1, metavar="N",
        help="shard the stream over N worker processes (S20, docs/sharding.md); per-shard "
             "reports merge exactly into one")
    add("--cache-file", metavar="PATH",
        help="warm-cache persistence: preload the decision cache from PATH when it exists "
             "and save the (merged) cache back after the run; a file written against other "
             "tables (another graph, k or seed) is an error, not a warm start")
    add("--slo-target", default=0.99,
        type=_checked(float, lambda v: 0 < v <= 1, "in (0, 1]", "fraction"),
        help="required fraction of queries within the stretch bound (default 0.99)")
    add("--trace-out", metavar="PATH",
        help="serve under the sampled query tracer and write the traces as JSONL (S19; "
             "replay with repro explain)")
    add("--trace-rate", default=0.01,
        type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]", "fraction"),
        help="head-sampling rate for query tracing (default 0.01; tail worst-stretch traces "
             "are always kept)")
    add("--trace-tail", default=16,
        type=_checked(int, lambda v: v >= 0, ">= 0", "non-negative"),
        help="tail buffer size: worst-stretch/failed queries always traced (default 16)")


def _args_explain(new, shared) -> None:
    add = new(parents=[shared.output, shared.verdicts],
              help="replay sampled query traces into a per-level stretch attribution table "
                   "(S19)").add_argument
    add("--traces", default="traces.jsonl", metavar="PATH",
        help="JSONL trace file written by repro serve --trace-out (default: traces.jsonl)")
    add("--trace-id", help="explain one trace by id (as printed in exemplars)")
    add("--worst", type=_positive(int), metavar="N",
        help="drill into the N worst traces (failures first, then stretch excess)")


def _args_demo(new, shared) -> None:
    new(parents=[shared.profiled], help="tiny end-to-end demonstration")


def _args_report(new, shared) -> None:
    rep = new(parents=[shared.profiled, shared.verdicts],
              help="full markdown reproduction report")
    rep.add_argument("--fast", action="store_true", help="sub-minute workload sizes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduce tables/figures of Elkin-Neiman PODC 2018.")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_parsers()
    for name, (add_arguments, _) in COMMANDS.items():
        add_arguments(partial(sub.add_parser, name), shared)
    return parser


# -- output: the one place --json/--profile/--out/--quiet/--strict act ---------

def _deliver(text: str, args: argparse.Namespace) -> None:
    """Route output according to the common --quiet/--out flags."""
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + ("" if text.endswith("\n") else "\n"))
    if not args.quiet:
        print(text)


def _finish(args: argparse.Namespace, text: str, record: RunRecord,
            failure: Optional[str] = None, document: Optional[str] = None) -> int:
    """Deliver one recorded run and return the exit code.

    ``text`` is the plain rendering, ``failure`` what ``--strict`` prints
    when a verdict of ``record`` failed, ``document`` the JSON a command
    prints in place of its RunRecord (fig: the sweep rows; trace --jsonl;
    report: the combined document).
    """
    as_json = getattr(args, "json", False)
    if as_json:
        text = document if document is not None else record.to_json()
    if getattr(args, "profile", False):
        profile = render_profile(record.spans, record.counters, record.gauges)
        if as_json:
            # stdout and --out stay one JSON document (the span tree is
            # already in its "spans"); the ASCII view goes to stderr.
            print(profile, file=sys.stderr)
        else:
            text += "\n\n" + profile
    _deliver(text, args)
    if getattr(args, "strict", False) and not record.passed:
        print(failure, file=sys.stderr)
        return 1
    return 0


def _failed(what: str, record: RunRecord) -> str:
    return f"{what}: " + ", ".join(v.name for v in record.failed_verdicts())


@dataclass
class _Plain:
    """A run with no result class of its own (figure sweeps, the demo, the
    report): says what its RunRecord holds so ``record_run`` can wrap it."""

    kind: str
    body: Any = None  #: what the command prints: text or a JSON-able document
    workload: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    flight: List[Dict[str, Any]] = field(default_factory=list)

    def to_run_record(self) -> RunRecord:
        return make_run_record(self.kind, workload=self.workload,
                               columns=self.rows, flight=self.flight)


# -- handlers ------------------------------------------------------------------
# A handler runs its command under ``record_run`` and returns
# ``(text, record, strict_failure_message[, document])`` for `_finish`, or an
# exit code when it has already reported (usage errors, no-record modes).

def _cmd_table1(args):
    result, record = record_run(run_table1, args.n, args.k, seed=args.seed, pairs=args.pairs)
    return result.render(), record, _failed("bound-checker violations", record)


def _cmd_table2(args):
    result, record = record_run(run_table2, args.n, seed=args.seed)
    return result.render(), record, _failed("bound-checker violations", record)


def _sweep(args) -> Tuple[_Plain, RunRecord]:
    """One figure sweep as a ``fig/<name>`` record (``fig`` and ``trace``)."""
    name = FIGURE_ALIASES.get(args.name, args.name)
    fn, title = _SWEEPS[name]

    def run() -> _Plain:
        sweep = _Plain(f"fig/{name}", workload={"figure": name, "title": title})
        if getattr(args, "flight", False):
            with _flight.auto(stride=args.stride) as session:
                sweep.rows = fn()
            sweep.flight = session.to_dicts()
        else:
            sweep.rows = fn()
        return sweep

    return record_run(run)


def _cmd_fig(args):
    sweep, record = _sweep(args)
    return (format_records(sweep.rows, title=sweep.workload["title"]), record, None,
            json.dumps(sweep.rows, indent=2, default=repr))


def _cmd_trace(args):
    sweep, record = _sweep(args)
    jsonl = None
    if args.jsonl:
        jsonl = "\n".join([record.to_json(indent=None)]
                          + [json.dumps(r, default=repr) for r in sweep.rows])
    return "", record, None, jsonl


def _built_scheme(args):
    """What the workload arguments of ``serve`` describe: the graph, the
    scheme built on it and the stream keywords of the runners."""
    from .graphs import random_connected_graph

    graph = random_connected_graph(args.n, seed=args.seed)
    if args.builder == "centralized":
        from .tz import build_centralized_scheme
        scheme = build_centralized_scheme(graph, args.k, seed=args.seed)
    else:
        from .core import build_distributed_scheme
        scheme = build_distributed_scheme(graph, args.k, seed=args.seed).scheme
    stream = dict(workload=args.workload, queries=args.queries, seed=args.seed,
                  cache_size=args.cache, zipf_alpha=args.zipf_alpha)
    return graph, scheme, stream


def _cmd_serve(args):
    if args.workers > 1 and args.trace_out:
        print("serve: --workers > 1 is incompatible with --trace-out "
              "(per-worker tracers do not merge into one trace file; "
              "run tracing single-process)", file=sys.stderr)
        return 2
    from .metrics import ServeMetrics, write_prometheus

    metrics = ServeMetrics() if args.metrics_out else None
    serve = _serve_sharded if args.workers > 1 else _serve_single
    report, record, notes = serve(args, metrics, *_built_scheme(args))
    if metrics is not None:
        write_prometheus(metrics, args.metrics_out)
        notes.insert(0, f"metrics snapshot written to {args.metrics_out}")
    failure = "; ".join(
        f"stretch-SLO violation: {v.name} measured={v.measured} < target={v.limit}"
        for v in record.failed_verdicts())
    return "\n\n".join([report.render(), *notes]), record, failure


def _serve_single(args, metrics, graph, scheme, stream):
    from .serve import DecisionCache, ServeEngine, compile_scheme, run_serving
    from .tracing import Tracer, write_traces_jsonl

    tracer = engine = computed_on = None
    if args.trace_out:
        tracer = Tracer(rate=args.trace_rate, seed=args.seed, tail_limit=args.trace_tail,
                        prefix=f"{args.workload}-{args.seed}")
    if args.cache_file:
        # Warm-cache persistence: serve with a preloaded engine, save
        # the (possibly warmer) cache back after the run.
        compiled = compile_scheme(scheme, graph)
        computed_on = _cache_fingerprint(compiled)
        cache = (DecisionCache.load(args.cache_file, maxsize=args.cache,
                                    fingerprint=computed_on)
                 if Path(args.cache_file).exists() else DecisionCache(args.cache))
        engine = ServeEngine(compiled, cache=cache)
    report, record = record_run(lambda: run_serving(
        scheme, graph, slo_target=args.slo_target, engine=engine, metrics=metrics,
        tracer=tracer, **stream)[0])
    if engine is not None:
        engine.cache.save(args.cache_file, fingerprint=computed_on)

    notes = []
    if args.trace_out:
        write_traces_jsonl(args.trace_out, record.traces)
        notes.append(f"{len(record.traces)} traces written to {args.trace_out} "
                     f"({tracer.head_dropped} head-sampled queries dropped at the "
                     f"{tracer.head_limit}-trace head limit)")
    return report, record, notes


def _cache_fingerprint(compiled) -> str:
    """What a ``--cache-file``'s entries are answers about: these tables
    (computed only when a cache file is in play)."""
    from .shard import lower_compiled

    return lower_compiled(compiled).fingerprint()


def _serve_sharded(args, metrics, graph, scheme, stream):
    """The ``repro serve --workers N`` path (S20, docs/sharding.md): the
    merged pool report is folded into ``metrics`` like a single run's."""
    from .serve import DecisionCache, compile_scheme
    from .shard import run_sharded

    cache_entries = computed_on = None
    if args.cache_file:
        computed_on = _cache_fingerprint(compile_scheme(scheme, graph))
        if Path(args.cache_file).exists():
            cache_entries = DecisionCache.load(
                args.cache_file, maxsize=args.cache, fingerprint=computed_on).entries()
    cache_out: Optional[list] = [] if args.cache_file else None

    def run():
        report = run_sharded(
            scheme, graph, workers=args.workers, slo_target=args.slo_target,
            cache_entries=cache_entries, cache_out=cache_out, **stream)[0]
        if metrics is not None:
            metrics.add(report)
            report.metrics = metrics.snapshot()
        return report

    report, record = record_run(run)
    if cache_out is not None:
        merged_cache = DecisionCache(args.cache)
        merged_cache.preload(cache_out)
        merged_cache.save(args.cache_file, fingerprint=computed_on)
    return report, record, []


def _cmd_explain(args):
    from .tracing import read_traces_jsonl, run_explain

    text, record = run_explain(read_traces_jsonl(args.traces), trace_id=args.trace_id,
                               worst=args.worst, source=args.traces)
    return text, record, _failed("attribution violations", record)


def _demo() -> str:
    from .congest import Network
    from .graphs import random_connected_graph, spanning_tree_of
    from .routing import route_in_tree
    from .treerouting import build_distributed_tree_scheme

    graph = random_connected_graph(200, seed=1)
    tree = spanning_tree_of(graph, style="dfs")
    net = Network(graph)
    build = build_distributed_tree_scheme(net, tree, seed=1)
    nodes = sorted(tree)
    result = route_in_tree(build.scheme, nodes[0], nodes[-1],
                           weight_of=lambda u, v: graph[u][v]["weight"])
    return (f"n=200 tree routing: {build.rounds} rounds, "
            f"{build.max_memory_words} words/vertex peak, "
            f"route {nodes[0]}->{nodes[-1]}: {result.hops} hops, "
            f"length {result.length:.2f} (exact)")


def _cmd_demo(args):
    demo, record = record_run(lambda: _Plain("demo", _demo()))
    return demo.body, record


def _cmd_report(args):
    spec = ReportSpec.fast() if args.fast else ReportSpec()
    generate = generate_report_json if args.json else generate_report
    report, record = record_run(lambda: _Plain("report", generate(spec)))
    if not args.json:
        return report.body, record
    # The report's verdicts are those of its two table records.
    record.verdicts = [verdict_from_dict(v) for table in ("table2", "table1")
                       for v in report.body[table]["verdicts"]]
    return ("", record, "bound-checker violations in report",
            json.dumps(report.body, indent=2, default=repr))


#: command -> (add_arguments, handler)
COMMANDS: Dict[str, Tuple[Callable[..., None], Callable[[argparse.Namespace], Any]]] = {
    "table1": (_args_table1, _cmd_table1),
    "table2": (_args_table2, _cmd_table2),
    "fig": (_args_fig, _cmd_fig),
    "trace": (_args_trace, _cmd_trace),
    "serve": (_args_serve, _cmd_serve),
    "explain": (_args_explain, _cmd_explain),
    "demo": (_args_demo, _cmd_demo),
    "report": (_args_report, _cmd_report),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outcome = COMMANDS[args.command][1](args)
        return outcome if isinstance(outcome, int) else _finish(args, *outcome)
    except InputError as exc:  # bad input that reached the library: one line, no traceback
        print(f"repro {args.command}: {exc}", file=sys.stderr)
    except OSError as exc:  # a path argument that cannot be read or written: likewise
        if exc.filename is None:
            raise
        print(f"repro {args.command}: {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
