"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mbfcount import counting, layers, orbits  # noqa: E402
from mbfcount.counting import LambdaResult  # noqa: E402

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(name, parent, start, end, **counts):
    return {"name": name, "parent": parent, "start": start, "end": end,
            "cpu_self": 0.0, "cpu_children": 0.0, **counts}


def test_self_time_subtracts_direct_children_once():
    s = [
        _span("counting.lambda_plus4_direct", None, 0.0, 10.0),
        _span("intervals.build_full_table", 0, 1.0, 3.0),
        _span("layers.generate_layer", 1, 1.5, 2.5),  # grandchild: already covered
        _span("vecbits.dual_array", 0, 2.0, 4.0),  # overlaps the first child
        _span("parallel.run_tasks", 0, 5.0, 6.0),
    ]
    assert spans.self_time(s, 0) == 10.0 - 3.0 - 1.0
    assert spans.self_time(s, 1) == 2.0 - 1.0
    assert spans.self_time(s, 4) == 1.0


def test_select_takes_outermost_spans_by_phase():
    s = [
        _span(spans.ONE_WORKER_PHASE, None, 0.0, 4.0),
        _span("layers.generate_layer", 0, 0.0, 2.0),
        _span("layers.generate_layer", 1, 0.5, 1.0),  # recursion, nested
        _span("layers.generate_layer", None, 5.0, 6.0),
    ]
    assert spans.select(s, "layers.generate_layer") == [1, 3]
    assert spans.select(s, "layers.generate_layer", inside=spans.ONE_WORKER_PHASE) == [1]
    assert spans.select(s, "layers.generate_layer", outside=spans.ONE_WORKER_PHASE) == [3]


def test_lambda9_estimate_scales_with_terms():
    assert rep.lambda9_cpu_h_est(36.0, 1000, 10) == 1.0
    assert rep.lambda9_cpu_h_est(36.0, 1000, 20) == 0.5  # same time over twice the terms
    assert rep.lambda9_cpu_h_est(36.0, 500, 10) == 0.5  # half the terms to do


def test_wrong_value_drives_fail_ratio_above_zero():
    checks = rep.Checks()
    good = LambdaResult(8, "plus2", counting.LAMBDA_KNOWN[8], 6, 1.0)
    checks.verified("right", good)
    checks.verified("wrong", LambdaResult(8, "plus2", counting.LAMBDA_KNOWN[8] + 1, 6, 1.0))
    checks.expect("agree", 2, 1)
    assert run.tally([{"checks": checks.items}]) == (3, 2)
    assert run.tally([{"checks": checks.items[:1]}, None]) == (2, 1)


def test_sample_choice_is_seeded_and_equal_work():
    pool = [[{"rep": "a", "terms": 5}, {"rep": "b", "terms": 5}],
            [{"rep": "c", "terms": 7}, {"rep": "d", "terms": 7}]]
    assert rep.choose_sample(pool, 3) == rep.choose_sample(pool, 3)
    assert {sum(c["terms"] for c in rep.choose_sample(pool, s)) for s in range(20)} == {12}
    assert len({tuple(c["rep"] for c in rep.choose_sample(pool, s)) for s in range(20)}) > 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert "p50" in run.summarize([float(x) for x in range(20)])


def test_traced_classify_reports_layer_metrics_and_uninstalls():
    original = orbits.classify
    tr = spans.install()
    try:
        layer = layers.generate_layer(3)
        with tr.span(spans.ONE_WORKER_PHASE):
            orbits.classify(layer, 1)
        classes = orbits.classify(layer, 1)
        layer0 = layers.generate_layer(0)
        classes0 = orbits.classify(layer0)
        counting.lambda_plus4_classes(layer0, classes0)
    finally:
        tr.uninstall()
    assert orbits.classify is original
    m = spans.layer_metrics(tr.spans)
    assert set(m) | {"counting.lambda9_cpu_h_est", "parallel.children_peak_rss_mb",
                     "trace.overhead_s"} == set(run.LAYER_METRICS)
    assert m["orbits.classes"] == len(classes) + len(classes0)
    assert m["vecbits.digit_transpose_1w_calls"] == 5  # 3! - 1 swaps
    assert m["orbits.elem_perms_per_s_1w"] > 0
    assert m["counting.plus4c_self_s"] > 0
