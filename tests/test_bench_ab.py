"""tools/bench_ab.py's summary arithmetic on fixed numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def _result(items_per_s: float, setup_s: float, failed: int = 0) -> dict:
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


# parent and change items_per_s and setup_s for five seeds
PARENT = [(100.0, 2.0), (110.0, 1.0), (90.0, 3.0), (120.0, 2.5), (80.0, 1.5)]
CHANGE = [(150.0, 2.0), (100.0, 0.5), (140.0, 3.5), (130.0, 2.0), (160.0, 1.0)]


def test_summary_of_fixed_pairs():
    pairs = [{"parent": _result(*p), "change": _result(*c)}
             for p, c in zip(PARENT, CHANGE)]
    summary = bench_ab.summarize(pairs, {"items_per_s": "higher",
                                         "setup_s": "lower"})
    assert summary["pairs"] == 5
    assert summary["all_correct_no_failures"] is True
    items = summary["items_per_s"]
    # parent sorted 80 90 100 110 120; change 100 130 140 150 160
    assert items["parent_median"] == 100.0
    assert items["parent_quartiles"] == [90.0, 110.0]
    assert items["change_median"] == 140.0
    assert items["change_quartiles"] == [130.0, 150.0]
    assert items["change_wins"] == 4  # all but the seed 110 -> 100
    assert items["median_change_pct"] == pytest.approx(40.0)
    assert items["parent_iqr_pct_of_median"] == pytest.approx(20.0)
    setup = summary["setup_s"]
    # lower is better: 0.5 < 1.0 and 1.0 < 1.5 and 2.0 < 2.5 win, ties lose
    assert setup["change_wins"] == 3
    assert setup["parent_median"] == 2.0
    assert setup["parent_quartiles"] == [1.5, 2.5]
    assert setup["median_change_pct"] == pytest.approx(0.0)
    assert setup["parent_iqr_pct_of_median"] == pytest.approx(50.0)


def test_a_failed_operation_is_flagged():
    pairs = [{"parent": _result(1.0, 1.0), "change": _result(2.0, 1.0, 1)}]
    summary = bench_ab.summarize(pairs, {"items_per_s": "higher"})
    assert summary["all_correct_no_failures"] is False
    assert summary["items_per_s"]["parent_quartiles"] == [1.0, 1.0]


def test_seed_ranges():
    assert bench_ab._seeds("151-153") == [151, 152, 153]
    assert bench_ab._seeds("7") == [7]


@pytest.mark.parametrize("better,parent,change,worse,unresolved", [
    # parent median 100 with quartiles 90 and 110: a 20% spread
    ("higher", [80, 90, 100, 110, 120], [70, 72, 74, 80, 90], True, False),
    ("higher", [80, 90, 100, 110, 120], [70, 75, 76, 80, 90], False, False),
    ("lower", [80, 90, 100, 110, 120], [120, 124, 126, 130, 140], True,
     False),
    ("lower", [80, 90, 100, 110, 120], [120, 124, 125, 130, 140], False,
     False),
    # quartiles 70 and 130: a 60% spread, wider than the bound
    ("higher", [40, 70, 100, 130, 160], [100, 100, 100, 100, 100], False,
     True),
    ("higher", [40, 70, 100, 130, 160], [10, 20, 30, 40, 50], True, True),
], ids=["higher-worse", "higher-at-bound", "lower-worse", "lower-at-bound",
        "wide-parent", "wide-parent-worse"])
def test_bound_flags_of_fixed_pairs(better, parent, change, worse,
                                    unresolved):
    pairs = [{"parent": _result(p, 1.0), "change": _result(c, 1.0)}
             for p, c in zip(parent, change)]
    summary = bench_ab.summarize(pairs, {"items_per_s": better},
                                 {"items_per_s": 0.25})
    assert summary["items_per_s"]["worse_beyond_bound"] is worse
    assert summary["items_per_s"]["unresolved"] is unresolved


def test_a_metric_without_a_bound_has_no_flags():
    pairs = [{"parent": _result(1.0, 1.0), "change": _result(2.0, 1.0)}]
    summary = bench_ab.summarize(pairs, {"items_per_s": "higher",
                                         "setup_s": "lower"},
                                 {"items_per_s": 0.25})
    assert "unresolved" in summary["items_per_s"]
    assert "unresolved" not in summary["setup_s"]
