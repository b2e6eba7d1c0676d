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


# ten pairs of items_per_s around a parent median of 100 with quartiles
# 95.5 and 104.5: an interquartile distance of 9
TEN_PARENTS = [91, 93, 95, 97, 99, 101, 103, 105, 107, 109]


@pytest.mark.parametrize("better,change,met", [
    # 9 wins of 10 and a median 20 better
    ("higher", [p + 20 for p in TEN_PARENTS[:9]] + [80], True),
    # 8 wins, 2 ties: ties count for neither side
    ("higher", [p + 20 for p in TEN_PARENTS[:8]] + TEN_PARENTS[8:], False),
    # 9 wins and 1 tie
    ("higher", [p + 20 for p in TEN_PARENTS[:9]] + TEN_PARENTS[9:], True),
    # 10 wins, but the medians differ by 5, less than the parent's 9
    ("higher", [p + 5 for p in TEN_PARENTS], False),
    # 10 wins by 9.5: the medians differ by more than 9
    ("higher", [p + 9.5 for p in TEN_PARENTS], True),
    # lower is better: 10 wins by 20 downwards, and the same rise
    ("lower", [p - 20 for p in TEN_PARENTS], True),
    ("lower", [p + 20 for p in TEN_PARENTS], False),
], ids=["9-wins", "8-wins-2-ties", "9-wins-1-tie", "within-spread",
        "beyond-spread", "lower-better", "lower-worse"])
def test_gain_met_of_fixed_pairs(better, change, met):
    pairs = [{"parent": _result(p, 1.0), "change": _result(c, 1.0)}
             for p, c in zip(TEN_PARENTS, change)]
    summary = bench_ab.summarize(pairs, {"items_per_s": better},
                                 {"items_per_s": 0.25})
    assert summary["items_per_s"]["parent_quartiles"] == [95.5, 104.5]
    assert summary["items_per_s"]["gain_met"] is met


def test_fewer_than_ten_pairs_meet_no_gain():
    pairs = [{"parent": _result(p, 1.0), "change": _result(p + 50, 1.0)}
             for p in TEN_PARENTS[:9]]
    summary = bench_ab.summarize(pairs, {"items_per_s": "higher"})
    assert summary["items_per_s"]["change_wins"] == 9
    assert summary["items_per_s"]["gain_met"] is False


@pytest.mark.parametrize("better,change,unresolved", [
    # quartiles 70 and 130: a 60% spread, wider than the bound
    ("higher", [161, 170, 180, 190, 200], False),
    ("higher", [160, 170, 180, 190, 200], True),  # a tie with the best
    ("lower", [10, 20, 30, 35, 39], False),
    ("lower", [10, 20, 30, 35, 41], True),  # worse than the best parent
], ids=["higher-above-all", "higher-tie", "lower-below-all",
        "lower-overlap"])
def test_a_change_better_than_every_parent_run_is_resolved(better, change,
                                                           unresolved):
    pairs = [{"parent": _result(p, 1.0), "change": _result(c, 1.0)}
             for p, c in zip([40, 70, 100, 130, 160], change)]
    summary = bench_ab.summarize(pairs, {"items_per_s": better},
                                 {"items_per_s": 0.25})
    assert summary["items_per_s"]["parent_iqr_pct_of_median"] > 25
    assert summary["items_per_s"]["unresolved"] is unresolved
