import json

import compare


def cell(values, better="higher", bound=0.10, skipped=False):
    import harness

    out = {"unit": "1/s", "better": better, "bound": bound, "values": values}
    out.update(harness.summarize(values))
    if skipped:
        out["median"] = None
    return out


def doc(cells, per_layer=None, seed=7):
    return {"seed": seed, "smoke": False, "workloads": {
        "serve_hot": {"end_to_end": cells, "per_layer": per_layer or {}}}}


TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_within_bound_is_ok():
    assert compare.verdict(cell(TIGHT), cell([v * 0.95 for v in TIGHT]))[0] == "ok"


def test_worse_than_bound_is_regressed_in_either_direction():
    label, worse = compare.verdict(cell(TIGHT), cell([v * 0.8 for v in TIGHT]))
    assert label == "regressed" and 0.19 < worse < 0.21
    slower = compare.verdict(cell(TIGHT, better="lower"),
                             cell([v * 1.3 for v in TIGHT], better="lower"))
    assert slower[0] == "regressed" and slower[1] > 0


def test_better_than_bound_is_improved():
    label, worse = compare.verdict(cell(TIGHT), cell([v * 1.5 for v in TIGHT]))
    assert label == "improved" and worse < 0


def test_wide_overlapping_runs_are_unresolved_not_ok():
    noisy_a = [60.0, 100.0, 140.0, 90.0, 120.0]
    noisy_b = [50.0, 95.0, 130.0, 70.0, 110.0]
    assert compare.verdict(cell(noisy_a), cell(noisy_b))[0] == "unresolved"


def test_wide_runs_that_do_not_overlap_still_resolve():
    noisy_a = [60.0, 100.0, 140.0, 90.0, 120.0]
    clear_b = [v * 4 for v in noisy_a]
    assert compare.verdict(cell(noisy_a), cell(clear_b))[0] == "improved"


def test_metric_marked_not_meaningful_is_skipped():
    assert compare.verdict(cell(TIGHT), cell(TIGHT, skipped=True)) == ("skipped", None)


def test_exit_code_and_one_row_per_workload_metric(tmp_path, capsys):
    a = doc({"ops_per_s": cell(TIGHT), "setup_s": cell(TIGHT, "lower", 0.25)},
            {"serve.cache_hits": {"value": 10, "unit": "count"},
             "serve.compile_s": {"value": 0.31, "unit": "s"}})
    same = doc({"ops_per_s": cell(TIGHT), "setup_s": cell(TIGHT, "lower", 0.25)},
               {"serve.cache_hits": {"value": 10, "unit": "count"},
                "serve.compile_s": {"value": 0.29, "unit": "s"}})
    bad = doc({"ops_per_s": cell([v / 2 for v in TIGHT]),
               "setup_s": cell(TIGHT, "lower", 0.25)},
              {"serve.cache_hits": {"value": 11, "unit": "count"},
               "serve.compile_s": {"value": 0.29, "unit": "s"}})
    paths = {}
    for name, body in (("a", a), ("same", same), ("bad", bad)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(body))

    assert compare.main([str(paths["a"]), str(paths["same"])]) == 0
    out = capsys.readouterr().out
    assert out.count("serve_hot") == 2 and "regressed" not in out
    assert "every count-type per-layer metric is identical" in out  # timings may differ

    assert compare.main([str(paths["a"]), str(paths["bad"])]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "serve.cache_hits" in out and "10 -> 11" in out


def test_counts_are_not_compared_across_seeds():
    rows, regressed = compare.compare(
        doc({"ops_per_s": cell(TIGHT)}, {"x": {"value": 1, "unit": "count"}}, seed=1),
        doc({"ops_per_s": cell(TIGHT)}, {"x": {"value": 2, "unit": "count"}}, seed=2))
    assert regressed == 0 and "different inputs" in rows[-1]
