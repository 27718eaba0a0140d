#!/usr/bin/env python3
"""The repo's perf benchmark: one command, every metric by name.

Two ways to call it, both from the root of a checkout.

**One measurement** (what the benchmark driver runs)::

    python3 benchmarks/perf/run.py --workload serve_hot --seed 7 --seconds 8 --trace 0

runs that workload in this interpreter, checks its outputs, and prints as
the last line of stdout one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json`` with nothing attached; ``--trace 1`` runs again with
span-recording twins installed on each layer's public functions, prints
the per-layer metrics, and writes ``results/trace_<workload>.json``.

**A run set** (what people run)::

    python3 benchmarks/perf/run.py [--workload NAME] [--runs 10] [--out FILE]

starts one fresh interpreter per measurement: ``--runs`` untraced runs of
each workload on seeds ``seed, seed+1, ...`` and one traced run, then
prints every metric with its unit, median and quartiles, and writes the
whole set to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    MIN_REGION_S,
    SpanRecorder,
    peak_rss_mb,
    ratio_or_null,
    reap_children,
    summarize,
    timed,
    timed_adjusted,
)

DETAIL_PREFIX = "detail "


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def import_workloads() -> Any:
    """The program is measured from this checkout's source, never from an
    installed copy: without ``src/repro`` there is nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perf benchmark: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# One measurement, in this interpreter
# ---------------------------------------------------------------------------

class Passes:
    """Timed operations and what judging them counted.  With ``adjust``
    each operation is also stated at reference host speed."""

    def __init__(self, adjust: bool = False) -> None:
        self.adjust = adjust
        self.walls: List[float] = []
        self.adjusted: List[float] = []
        self.ops: List[int] = []
        self.attempted = self.failed = 0
        self.raised: List[str] = []

    def run(self, wl: Any, traced: bool = False) -> None:
        """One operation: starts after a full collection, is judged after
        its clock stops.  ``traced`` puts it inside a root span."""
        from repro.errors import ReproError

        try:
            if traced:
                gc.collect()
                root = len(wl.rec.spans)
                with wl.rec.span(wl.pass_layer, "op"):
                    out = wl.run_pass()
                wall = wl.rec.spans[root][3] - wl.rec.spans[root][2]
            elif self.adjust:
                out, wall, adjusted = timed_adjusted(wl.run_pass)
            else:
                out, wall = timed(wl.run_pass)
        except ReproError as exc:
            # An operation that raises is a failed operation, not a crash.
            self.attempted += 1
            self.failed += 1
            self.raised.append(f"{wl.name}: pass raised {type(exc).__name__}: {exc}")
            return
        ops, bad = wl.judge(out)
        self.attempted += ops
        self.failed += bad
        self.walls.append(wall)
        self.ops.append(ops)
        if self.adjust:
            self.adjusted.append(adjusted)

    def __iadd__(self, other: "Passes") -> "Passes":
        self.walls += other.walls
        self.ops += other.ops
        self.attempted += other.attempted
        self.failed += other.failed
        self.raised += other.raised
        return self


#: ``(metric values, detail, passes)``; no values when nothing completed
Measured = Tuple[Dict[str, float], Dict[str, Any], Passes]


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(contract line, detail)``."""
    spec = load_spec()
    mod = import_workloads()
    sizes = mod.SMOKE if smoke else mod.FULL
    # The untraced run states its times at reference host speed; the
    # traced run compares raw times taken moments apart.
    rec = SpanRecorder(adjust=not trace)
    wl = mod.WORKLOADS[name](seed, sizes, rec)
    started = time.perf_counter()
    try:
        if trace:
            values, detail, passes = _traced(wl, smoke)
        else:
            values, detail, passes = _untraced(wl, seconds, smoke)
    finally:
        rec.restore()
        try:
            wl.release()
        finally:
            reap_children()
    failures = wl.check_failures + passes.raised
    for line in failures:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    if not values:
        sys.exit(f"perf benchmark: no {name} operation completed")
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        sys.exit(f"perf benchmark: metrics not in BENCHMARK.json: {unknown}")
    # A layer that did no work in this workload spent 0 s and counted 0.
    metrics = {metric: {"value": values.get(metric, 0), "unit": unit}
               for metric, unit in units.items()}
    line = {
        "correct": not failures,
        "attempted": passes.attempted + wl.checks,
        "failed": passes.failed + len(wl.check_failures),
        "metrics": metrics,
    }
    detail.update({
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "checks": wl.checks, "check_failures": failures,
        "skipped": wl.skipped, "pass_wall_s": passes.walls,
        "elapsed_s": time.perf_counter() - started,
    })
    return line, detail


def _untraced(wl: Any, seconds: float, smoke: bool) -> Measured:
    reps = 2 if smoke else wl.setup_reps
    setups = []
    for rep in range(reps):
        wl.release()
        gc.collect()
        setups.append(wl.prepare(check=rep == reps - 1))
    # At least ``min_passes`` operations, and until ``seconds`` have gone by.
    count, seconds = (2, 0.0) if smoke else (wl.min_passes, seconds)
    passes = Passes(adjust=True)
    deadline = time.perf_counter() + seconds
    while (len(passes.walls) + len(passes.raised) < count
           or time.perf_counter() < deadline):
        passes.run(wl)
    wl.release()  # reaps pool workers, so their peak RSS is counted
    if not passes.walls:
        return {}, {}, passes
    values = {
        "setup_s": statistics.median(setups),
        # All operations over all their time, each pass's time stated at
        # reference host speed first (``harness.HostSpeed``): the host's
        # slow spells last longer than a run, so neither more passes nor
        # the fastest pass gets rid of them.  The detail line has every
        # pass, raw and adjusted.
        "ops_per_s": sum(passes.ops) / sum(passes.adjusted),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "setup_s_samples": setups,
        "ops_per_s_passes": [ops / s for ops, s in zip(passes.ops, passes.adjusted)],
        "raw_ops_per_s": sum(passes.ops) / sum(passes.walls),
        # how much slower than the reference the host ran the passes
        "host_slowdown": sum(passes.walls) / sum(passes.adjusted),
    }
    return values, detail, passes


def _traced(wl: Any, smoke: bool) -> Measured:
    from workloads import TracedRun

    rec = wl.rec
    wl.prepare(check=True)
    setup_stop = len(rec.spans)
    # One throwaway operation: the two arms below are compared with each
    # other, so neither may be the one that pays for cold caches.
    Passes().run(wl)
    # The arms alternate, and swap which goes first, so that a slow spell
    # of the host taxes both alike.
    plain, traced = Passes(), Passes()
    for i in range(1 if smoke else wl.traced_passes):
        for with_spans in ((False, True), (True, False))[i % 2]:
            if with_spans:
                wl.install()
                traced.run(wl, traced=True)
                rec.restore()
            else:
                plain.run(wl)
    passes = Passes()
    passes += plain
    passes += traced
    if not (plain.walls and traced.walls):
        return {}, {}, passes

    values: Dict[str, float] = {}
    setup_s, _ = rec.self_times(0, setup_stop)
    for layer, seconds in setup_s.items():
        values[f"{layer}_s"] = seconds
    ops = len(traced.walls)
    layer_s, calls = rec.self_times(setup_stop)
    layer_s = {layer: seconds / ops for layer, seconds in layer_s.items()}
    for layer, seconds in layer_s.items():
        values[f"{layer}_s"] = seconds
    if "congest.mem_bulk" in calls:
        values["congest.mem_bulk_calls"] = calls["congest.mem_bulk"] // ops

    run = TracedRun(traced_op_s=statistics.median(traced.walls),
                    untraced_op_s=statistics.median(plain.walls),
                    layer_s=layer_s,
                    region_s=min(sum(plain.walls), sum(traced.walls)))
    extras, derived = wl.layer_extras(run)
    values.update(extras)
    values.update({
        "bench.traced_op_s": run.traced_op_s,
        "bench.untraced_op_s": run.untraced_op_s,
        "bench.min_region_s": run.region_s,
        "bench.cpus": os.cpu_count() or 1,
    })
    derived.append(ratio_or_null(
        "bench.trace_overhead_share",
        lambda: run.traced_op_s / run.untraced_op_s - 1.0,
        "ratio", run.region_s))

    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace_{wl.name}.json"
    rec.write(str(trace_file), workload=wl.name, seed=wl.seed, smoke=smoke)
    detail = {"derived": derived, "spans": len(rec.spans),
              "trace_file": str(trace_file.relative_to(ROOT))}
    return values, detail, passes


# ---------------------------------------------------------------------------
# A run set, one fresh interpreter per measurement
# ---------------------------------------------------------------------------

#: How each workload's ``ops_per_s`` reads in the units people quote.
READS_AS = {
    "tree_build": ("build_s", "s", lambda rate: 1.0 / rate),
    "graph_build": ("build_s", "s", lambda rate: 1.0 / rate),
    "serve_hot": ("serve_qps", "1/s", lambda rate: rate),
    "serve_cold": ("serve_qps", "1/s", lambda rate: rate),
    "pool_hot": ("pool_qps_w2", "1/s", lambda rate: rate),
    "pool_hot_w1": ("pool_qps_w1", "1/s", lambda rate: rate),
}


def spawn(name: str, seed: int, seconds: int, trace: int,
          smoke: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit(f"perf benchmark: {' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        sys.exit(f"perf benchmark: unexpected output from {' '.join(cmd)}")
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL_PREFIX):])


def run_set(names: List[str], seed: int, seconds: int, runs: int,
            smoke: bool) -> Dict[str, Any]:
    spec = load_spec()
    doc: Dict[str, Any] = {
        "schema": 1, "seed": seed, "runs": runs, "seconds": seconds,
        "smoke": smoke, "cpus": os.cpu_count() or 1,
        "min_region_s": MIN_REGION_S, "workloads": {},
    }
    for name in names:
        attempted = failed = 0
        correct = True
        samples: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        skipped: List[Dict[str, str]] = []
        raw_rates: List[float] = []
        slowdowns: List[float] = []
        elapsed: List[float] = []
        first: Optional[Dict[str, Any]] = None
        for i in range(runs):
            print(f"[{name}] untraced run {i + 1}/{runs} (seed {seed + i})",
                  file=sys.stderr)
            line, detail = spawn(name, seed + i, seconds, 0, smoke)
            first = first or detail
            skipped = detail["skipped"]
            raw_rates.append(detail["raw_ops_per_s"])
            slowdowns.append(detail["host_slowdown"])
            elapsed.append(detail["elapsed_s"])
            attempted += line["attempted"]
            failed += line["failed"]
            correct &= line["correct"]
            for metric, cell in line["metrics"].items():
                samples[metric].append(cell["value"])
        print(f"[{name}] traced run (seed {seed})", file=sys.stderr)
        line, traced_detail = spawn(name, seed, seconds, 1, smoke)
        correct &= line["correct"]
        not_meaningful = {row["name"] for row in skipped}
        end_to_end = {}
        for m in spec["end_to_end"]:
            cell = dict(m, values=samples[m["name"]], **summarize(samples[m["name"]]))
            if m["name"] in not_meaningful:
                cell["median"] = None
            end_to_end[m["name"]] = cell
        alias, unit, convert = READS_AS[name]
        rate = end_to_end["ops_per_s"]["median"]
        doc["workloads"][name] = {
            "end_to_end": end_to_end,
            "reads_as": {
                alias: {"value": None if rate is None else convert(rate), "unit": unit},
                "failed_share": {"value": failed / attempted, "unit": "ratio"},
            },
            # spread inside the first run: passes for the rate, set-ups for setup_s
            "within_run": {
                "ops_per_s": summarize(first["ops_per_s_passes"]),
                "setup_s": summarize(first["setup_s_samples"]),
            },
            # what the adjustment took out: the rate per wall second, and
            # how much slower than the reference the host ran the passes
            "host": {
                "raw_ops_per_s": summarize(raw_rates),
                "slowdown": summarize(slowdowns),
            },
            # wall seconds of a whole untraced run / of the traced run:
            # what the driver's time limit is spent on
            "run_elapsed_s": dict(summarize(elapsed), max=max(elapsed),
                                  traced=traced_detail["elapsed_s"]),
            "per_layer": line["metrics"],
            "derived": traced_detail["derived"],
            "skipped": skipped,
            "trace_file": traced_detail["trace_file"],
            "attempted": attempted, "failed": failed, "correct": correct,
        }
    return doc


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def render(doc: Dict[str, Any]) -> str:
    out: List[str] = []
    for name, row in doc["workloads"].items():
        out.append(f"== {name}  (correct={row['correct']}, "
                   f"attempted={row['attempted']}, failed={row['failed']})")
        out.append("  end to end (median [q1, q3] over runs; spread = (q3 - q1) / median)")
        for metric, cell in row["end_to_end"].items():
            spread = (cell["q3"] - cell["q1"]) / statistics.median(cell["values"])
            out.append(f"    {metric:<30} {_fmt(cell['median']):>12} {cell['unit']:<6}"
                       f" [{_fmt(cell['q1'])}, {_fmt(cell['q3'])}] n={cell['n']}"
                       f"  spread {spread:.1%} of bound {cell['bound']:.0%}")
        for metric, cell in row["reads_as"].items():
            out.append(f"    {metric:<30} {_fmt(cell['value']):>12} {cell['unit']}")
        raw, slow = row["host"]["raw_ops_per_s"], row["host"]["slowdown"]
        out.append(f"    host ran {_fmt(slow['median'])}x slower than the reference "
                   f"[{_fmt(slow['q1'])}, {_fmt(slow['q3'])}]: per wall second "
                   f"ops_per_s was {_fmt(raw['median'])} "
                   f"[{_fmt(raw['q1'])}, {_fmt(raw['q3'])}]")
        took = row["run_elapsed_s"]
        out.append(f"    a run took {_fmt(took['median'])} s (longest {_fmt(took['max'])} s), "
                   f"the traced run {_fmt(took['traced'])} s")
        out.append("  per layer (traced run; 0 = the layer did no work here)")
        for metric, cell in row["per_layer"].items():
            if cell["value"]:
                out.append(f"    {metric:<30} {_fmt(cell['value']):>12} {cell['unit']}")
        out.append("  derived")
        for cell in row["derived"]:
            reason = f"  ({cell['reason']})" if cell["value"] is None else ""
            out.append(f"    {cell['name']:<30} {_fmt(cell['value']):>12} "
                       f"{cell['unit']}{reason}")
        for cell in row["skipped"]:
            out.append(f"  skipped {cell['name']}: {cell['reason']}")
    return "\n".join(out)


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="how long one untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure once in this interpreter: 0 end-to-end "
                             "metrics, 1 per-layer metrics (needs --workload)")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in a run set")
    parser.add_argument("--out", help="write the run set here (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, two passes: exercises every path "
                             "in seconds, measures nothing")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        # A terminated run unwinds like any other, so it too stops and
        # waits for the processes it started.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        line, detail = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
        print(DETAIL_PREFIX + json.dumps(detail))
        print(json.dumps(line))
        return 0

    doc = run_set([args.workload] if args.workload else names,
                  args.seed, args.seconds, args.runs, args.smoke)
    print(render(doc))
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(doc, fp, indent=1)
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
