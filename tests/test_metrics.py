from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qeharness.errors import DegenerateVariance, TooFewPairs, ZeroVariance
from qeharness.extraction import REASON_NO_NUMERIC_MATCH, ExtractionResult
from qeharness.gateway import PromptRef
from qeharness.metrics import (CorrelationReport, PairedSample, Significance,
                               average_ranks, evaluate, kendall, paired_t_test,
                               pearson, regularized_incomplete_beta,
                               significance_of, spearman,
                               student_t_two_tailed_p)

from oracles import (kendall_oracle, pearson_oracle, ranks_oracle,
                     spearman_oracle, t_two_tailed_p_quadrature)


# -- PairedSample construction -------------------------------------------------

def test_sample_rejects_length_mismatch():
    with pytest.raises(ValueError):
        PairedSample([1, 2, 3], [1, 2])


def test_sample_rejects_too_short():
    with pytest.raises(ValueError):
        PairedSample([1], [1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_sample_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        PairedSample([1.0, bad], [1.0, 2.0])


# -- pearson --------------------------------------------------------------------

def test_pearson_identity():
    assert pearson(PairedSample([1, 2, 3], [1, 2, 3])) == 1.0


def test_pearson_reversal():
    assert pearson(PairedSample([1, 2, 3], [3, 2, 1])) == -1.0


def test_pearson_frozen_oracle_value():
    # 0.9164578621646275 from the exactly-rounded fsum evaluation of the
    # product-moment formula; see oracles.pearson_oracle
    value = pearson(PairedSample([10, 20, 30, 40], [12, 18, 35, 33]))
    assert value == pytest.approx(0.9164578621646275, abs=1e-12)


def test_pearson_degenerate():
    with pytest.raises(DegenerateVariance):
        pearson(PairedSample([5, 5, 5], [1, 2, 3]))


def test_pearson_survives_tiny_variances():
    # both sums of squares are ~1e-207; their product would underflow to 0
    tiny = [0.0, 0.0, 5.77e-104]
    assert pearson(PairedSample(tiny, tiny)) == pytest.approx(1.0, abs=1e-12)


def test_pearson_underflowed_variance_is_degenerate():
    # distinct values whose squared deviations all round to zero behave as
    # numerically constant
    with pytest.raises(DegenerateVariance):
        pearson(PairedSample([0.0, 0.0, 1e-200], [1.0, 2.0, 3.0]))


def test_pearson_never_exceeds_unit_interval():
    sample = PairedSample([1.0, 2.0, 3.0, 4.0, 5.0],
                          [2.0, 4.0, 6.0, 8.0, 10.0])
    assert -1.0 <= pearson(sample) <= 1.0
    assert pearson(sample) == 1.0


# -- spearman --------------------------------------------------------------------

def test_average_ranks_with_ties():
    assert average_ranks([1, 2, 2, 4]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([1, 3, 3, 2]) == [1.0, 3.5, 3.5, 2.0]


def test_spearman_monotone_is_one():
    gold = [1.0, 2.0, 5.0, 9.0, 12.0]
    pred = [0.1, 0.5, 0.6, 2.0, 50.0]
    assert spearman(PairedSample(gold, pred)) == pytest.approx(1.0, abs=1e-15)


def test_spearman_frozen_oracle_value():
    # ranks [1, 2.5, 2.5, 4] vs [1, 3.5, 3.5, 2] -> pearson = 1/3
    value = spearman(PairedSample([1, 2, 2, 4], [1, 3, 3, 2]))
    assert value == pytest.approx(0.3333333333333333, abs=1e-12)


def test_spearman_all_tied_degenerate():
    with pytest.raises(DegenerateVariance):
        spearman(PairedSample([5, 5, 5], [1, 2, 3]))


# -- kendall ---------------------------------------------------------------------

def test_kendall_strictly_increasing():
    values = list(range(10))
    assert kendall(PairedSample(values, values)) == 1.0


def test_kendall_frozen_no_ties():
    # 6 pairs total: 4 concordant, 2 discordant -> (4 - 2) / 6
    value = kendall(PairedSample([1, 2, 3, 4], [2, 1, 4, 3]))
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_kendall_frozen_with_gold_tie():
    # pair enumeration: C=2, D=0, one gold tie -> 2 / sqrt(2 * 3)
    value = kendall(PairedSample([1, 1, 2], [1, 2, 3]))
    assert value == pytest.approx(2.0 / math.sqrt(6.0), abs=1e-12)


def test_kendall_all_tied_degenerate():
    with pytest.raises(DegenerateVariance):
        kendall(PairedSample([7, 7, 7], [1, 2, 3]))


def _random_sample(rng: random.Random, n: int, with_ties: bool):
    if with_ties:
        # draw from a small grid so ties are common in both vectors
        gold = [rng.randrange(0, 12) / 2.0 for _ in range(n)]
        pred = [rng.randrange(0, 12) / 2.0 for _ in range(n)]
    else:
        gold = [rng.uniform(0, 100) for _ in range(n)]
        pred = [rng.uniform(0, 100) for _ in range(n)]
    return gold, pred


def _usable(gold, pred) -> bool:
    return len(set(gold)) > 1 and len(set(pred)) > 1


def test_pearson_compensated_summation_holds_at_large_n():
    # n = 1e5 against the exactly-rounded fsum oracle
    rng = random.Random(5)
    gold = [rng.uniform(0, 100) for _ in range(100_000)]
    pred = [g + rng.uniform(-5, 5) for g in gold]
    ours = pearson(PairedSample(gold, pred))
    assert ours == pytest.approx(pearson_oracle(gold, pred), abs=1e-12)


def test_kendall_and_spearman_match_oracles_random():
    rng = random.Random(20240917)
    checked = 0
    while checked < 120:
        n = rng.randint(2, 60)
        gold, pred = _random_sample(rng, n, with_ties=rng.random() < 0.5)
        if not _usable(gold, pred):
            continue
        sample = PairedSample(gold, pred)
        assert kendall(sample) == pytest.approx(kendall_oracle(gold, pred),
                                                abs=1e-12)
        assert spearman(sample) == pytest.approx(spearman_oracle(gold, pred),
                                                 abs=1e-12)
        assert average_ranks(gold) == ranks_oracle(gold)
        checked += 1


# -- t test -----------------------------------------------------------------------

def test_t_test_zero_mean_differences():
    t, p = paired_t_test(PairedSample([0, 0, 0, 0], [1, -1, 1, -1]))
    assert t == 0.0
    assert p == 1.0


def test_t_test_constant_nonzero_differences():
    with pytest.raises(ZeroVariance):
        paired_t_test(PairedSample([0, 0, 0, 0], [2, 2, 2, 2]))


def test_t_test_all_zero_differences():
    t, p = paired_t_test(PairedSample([3, 4, 5], [3, 4, 5]))
    assert (t, p) == (0.0, 1.0)


def test_t_test_frozen_n10_against_quadrature():
    # diffs [1,2,1,3,2,1,2,3,1,2]: t = 1.8 / (sd / sqrt(10))
    gold = [0.0] * 10
    pred = [1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0]
    t, p = paired_t_test(PairedSample(gold, pred))
    assert t == pytest.approx(7.216053531635458, abs=1e-12)
    assert p == pytest.approx(t_two_tailed_p_quadrature(t, 9), abs=1e-8)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("df", [3, 9, 29, 99])
def test_t_cdf_against_quadrature(t, df):
    assert student_t_two_tailed_p(t, df) == pytest.approx(
        t_two_tailed_p_quadrature(t, df), abs=1e-8)


def test_incomplete_beta_endpoints_and_symmetry():
    assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
    assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    for x, a, b in [(0.3, 1.5, 4.0), (0.72, 5.0, 0.5), (0.5, 0.5, 0.5)]:
        assert regularized_incomplete_beta(x, a, b) == pytest.approx(
            1.0 - regularized_incomplete_beta(1.0 - x, b, a), abs=1e-12)


@pytest.mark.parametrize("x", [-0.1, 1.5])
def test_incomplete_beta_rejects_x_outside_the_unit_interval(x):
    with pytest.raises(ValueError):
        regularized_incomplete_beta(x, 2.0, 3.0)


@pytest.mark.parametrize("df", [0, -3])
def test_t_p_value_rejects_degrees_of_freedom_below_one(df):
    with pytest.raises(ValueError):
        student_t_two_tailed_p(1.0, df)


# -- properties ---------------------------------------------------------------------

# grid-spaced values: wide range, frequent ties, and no chance of the
# squared deviations underflowing (that edge gets its own tests below)
finite_floats = st.integers(min_value=-10**8, max_value=10**8).map(
    lambda v: v / 100.0)


@st.composite
def paired_vectors(draw, min_size=3, max_size=40):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    gold = draw(st.lists(finite_floats, min_size=n, max_size=n))
    pred = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return gold, pred


def _nondegenerate(gold, pred):
    return len(set(gold)) > 1 and len(set(pred)) > 1


@given(paired_vectors())
def test_symmetry_of_all_coefficients(pair):
    gold, pred = pair
    if not _nondegenerate(gold, pred):
        return
    forward = PairedSample(gold, pred)
    backward = PairedSample(pred, gold)
    assert pearson(forward) == pytest.approx(pearson(backward), abs=1e-10)
    assert spearman(forward) == pytest.approx(spearman(backward), abs=1e-10)
    assert kendall(forward) == pytest.approx(kendall(backward), abs=1e-10)


@given(paired_vectors(), st.randoms(use_true_random=False))
def test_permutation_equivariance(pair, rng):
    gold, pred = pair
    if not _nondegenerate(gold, pred):
        return
    order = list(range(len(gold)))
    rng.shuffle(order)
    sample = PairedSample(gold, pred)
    shuffled = PairedSample([gold[i] for i in order], [pred[i] for i in order])
    assert pearson(shuffled) == pytest.approx(pearson(sample), abs=1e-10)
    assert spearman(shuffled) == pytest.approx(spearman(sample), abs=1e-10)
    assert kendall(shuffled) == pytest.approx(kendall(sample), abs=1e-10)


def _distinctness_preserved(before, after) -> bool:
    # float rounding can collapse nearby values, breaking strict monotony
    return len(set(after)) == len(set(before))


@given(paired_vectors(max_size=25))
@settings(max_examples=60)
def test_rank_statistics_invariant_under_monotone_transform(pair):
    gold, pred = pair
    if not _nondegenerate(gold, pred):
        return
    sample = PairedSample(gold, pred)
    cubed_gold = [g ** 3 for g in gold]
    if _distinctness_preserved(gold, cubed_gold):
        cubed = PairedSample(cubed_gold, pred)
        assert spearman(cubed) == pytest.approx(spearman(sample), abs=1e-10)
        assert kendall(cubed) == pytest.approx(kendall(sample), abs=1e-10)
    scaled = [g / 1e6 for g in gold]  # keep exp() in range
    exp_gold = [math.exp(g) for g in scaled]
    if (_distinctness_preserved(scaled, exp_gold)
            and len(set(scaled)) > 1):
        expd = PairedSample(exp_gold, pred)
        base = PairedSample(scaled, pred)
        assert spearman(expd) == pytest.approx(spearman(base), abs=1e-10)
        assert kendall(expd) == pytest.approx(kendall(base), abs=1e-10)


@given(paired_vectors(max_size=25))
@settings(max_examples=60)
def test_pearson_invariant_under_positive_affine(pair):
    gold, pred = pair
    if not _nondegenerate(gold, pred):
        return
    sample = PairedSample(gold, pred)
    affine = PairedSample([2.5 * g + 7.0 for g in gold], pred)
    assert pearson(affine) == pytest.approx(pearson(sample), abs=1e-9)


@given(paired_vectors())
@settings(max_examples=60)
def test_t_sign_flips_with_differences(pair):
    gold, pred = pair
    diffs = [p - g for g, p in zip(gold, pred)]
    if len(set(diffs)) < 2:
        return
    t_fwd, p_fwd = paired_t_test(PairedSample(gold, pred))
    t_rev, p_rev = paired_t_test(PairedSample(pred, gold))
    assert t_rev == pytest.approx(-t_fwd, abs=1e-9)
    assert p_rev == pytest.approx(p_fwd, abs=1e-9)


# -- significance and evaluate -------------------------------------------------------

def test_significance_thresholds():
    assert significance_of(0.2) is Significance.NS
    assert significance_of(0.051) is Significance.NS
    assert significance_of(0.05) is Significance.P05
    assert significance_of(0.011) is Significance.P05
    assert significance_of(0.01) is Significance.P01
    assert significance_of(0.0011) is Significance.P01
    assert significance_of(0.001) is Significance.P001
    assert significance_of(0.0) is Significance.P001


def _result(seg_id, score=None, reason=None):
    ref = PromptRef(pair="en-gu", segment_id=seg_id, template="ag", seed=0)
    return ExtractionResult(ref, score, reason)


def test_evaluate_identity_predictions():
    gold = {i: float(10 * i) for i in range(1, 11)}
    results = [_result(i, score=float(10 * i)) for i in range(1, 11)]
    report = evaluate(gold, results, pair="en-gu", template="ag", model="m")
    assert report.pearson_r == 1.0
    assert report.spearman_rho == 1.0
    assert report.kendall_tau == 1.0
    assert report.n_excluded == 0
    assert report.t_stat == 0.0
    assert report.p_value == 1.0
    assert report.significance is Significance.NS
    assert report.tau_variant == "b"


def test_evaluate_constant_offset_is_significant():
    gold = {i: float(i) for i in range(1, 101)}
    results = [_result(i, score=float(i) + 5.0) for i in range(1, 101)]
    report = evaluate(gold, results, pair="en-gu", template="ag", model="m")
    assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
    assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)
    assert report.kendall_tau == pytest.approx(1.0, abs=1e-12)
    assert report.t_stat is None  # exact constant offset: infinite t
    assert report.p_value == 0.0
    assert report.p_value < 0.05
    assert report.significance is Significance.P001


def test_evaluate_drops_excluded_pairwise():
    gold = {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}
    results = [
        _result(1, score=11.0),
        _result(2, reason=REASON_NO_NUMERIC_MATCH),
        _result(3, score=29.0),
        _result(4, score=41.0),
    ]
    report = evaluate(gold, results, pair="en-gu", template="ag", model="m")
    assert report.n_used == 3
    assert report.n_excluded == 1
    assert report.exclusion_reasons == {REASON_NO_NUMERIC_MATCH: 1}


def test_evaluate_too_few_pairs():
    gold = {1: 10.0, 2: 20.0}
    results = [_result(1, reason=REASON_NO_NUMERIC_MATCH),
               _result(2, reason=REASON_NO_NUMERIC_MATCH)]
    with pytest.raises(TooFewPairs):
        evaluate(gold, results, pair="en-gu", template="ag", model="m")


def test_report_round_trips_through_dict():
    gold = {i: float(i) for i in range(1, 8)}
    results = [_result(i, score=float(i % 5) + 1.0) for i in range(1, 8)]
    report = evaluate(gold, results, pair="en-gu", template="ag", model="m")
    assert CorrelationReport.from_dict(report.to_dict()) == report
