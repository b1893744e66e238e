"""Fast tests of the benchmark itself: seeded inputs and correctness gates.

    python3 -m pytest -q perfbench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from rrseries import catalog, dsl  # noqa: E402
from rrseries.series import Series  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402


def setup_function():
    dsl.clear_cache()
    catalog.clear_cache()


def test_same_seed_same_requests_and_other_seed_other_requests():
    first = workloads.session_requests(5)
    assert first == workloads.session_requests(5)
    assert first != workloads.session_requests(6)
    assert len(first) == workloads.SESSION_REQUESTS


def test_request_mix_is_dealt_not_drawn():
    for seed in (1, 2):
        requests = workloads.session_requests(seed)
        ops = [op for op, _, _, _ in requests]
        assert ops.count("expand") == 600 and ops.count("period") == 225
        assert sorted({order for _, _, order, _ in requests}) == list(workloads.SESSION_ORDERS)


def test_session_subset_passes_against_the_reference():
    requests = workloads.session_requests(1)[:25]
    result = workloads.run_session(1, requests=requests)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 25


def test_tampered_coefficient_makes_fail_ratio_positive(monkeypatch):
    requests = [r for r in workloads.session_requests(1) if r[0] == "expand"][:10]
    victim = requests[3][1]
    evaluate = dsl.evaluate

    def tampered(node, order):
        series = evaluate(node, order)
        if dsl.unparse(node) == dsl.unparse(dsl.parse(victim)):
            coeffs = list(series.coeffs)
            coeffs[order // 2] += 1
            return Series(coeffs)
        return series

    monkeypatch.setattr(dsl, "evaluate", tampered)
    result = workloads.run_session(1, requests=requests)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_suite_gate_catches_status_and_order_changes():
    reference = workloads.load_reference("suite")
    items = [dict(item, elapsed_ms=1.0) for item in reference["items"]]
    assert len(items) == 168
    assert workloads.check_suite(items, reference) == {}
    items[5] = dict(items[5], status="fail")
    items[7] = dict(items[7], certified_order=items[7]["certified_order"] - 1)
    items[9] = dict(items[9], certified_order=items[9]["certified_order"] + 100)
    assert set(workloads.check_suite(items, reference)) == {items[5]["name"], items[7]["name"]}


def test_unpaired_poch_detection():
    assert workloads.has_unpaired_poch("poch(1,5)*f1")
    assert not workloads.has_unpaired_poch("poch(1,5)*poch(4,5)/f2")
    assert not workloads.has_unpaired_poch("poch(3,6)*poch(3,6)")
    assert workloads.has_unpaired_poch("poch(3,6)")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert child.tail_percentile(1500) == 99
    assert child.tail_percentile(168) == 94
    assert child.tail_percentile(50) == 80
