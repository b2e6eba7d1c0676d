"""Correlation statistics and the paired significance test.

Pearson, Spearman (average ranks), and Kendall tau-b are implemented here
directly rather than delegated to a statistics library: the tie handling and
the t CDF are part of the harness contract and are verified against
independent oracles in the test suite. All moment accumulations use
compensated (Kahan) summation so results hold to 1e-12 on samples up to 1e5.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

from .corpus import Field, json_fields
from .errors import DegenerateVariance, TooFewPairs, ZeroVariance
from .extraction import exclusion_reasons

__all__ = [
    "PairedSample", "pearson", "spearman", "kendall", "paired_t_test",
    "average_ranks", "student_t_two_tailed_p", "regularized_incomplete_beta",
    "Significance", "significance_of", "CorrelationReport", "evaluate",
]


@dataclass(frozen=True)
class PairedSample:
    """Gold/prediction vectors paired by segment.

    Construction rejects length mismatches, samples shorter than 2, and any
    non-finite value; downstream code never sees a NaN.
    """

    gold: tuple[float, ...]
    pred: tuple[float, ...]

    def __init__(self, gold, pred):
        gold = tuple(float(v) for v in gold)
        pred = tuple(float(v) for v in pred)
        if len(gold) != len(pred):
            raise ValueError(f"length mismatch: {len(gold)} vs {len(pred)}")
        if len(gold) < 2:
            raise ValueError("paired sample needs at least 2 pairs")
        for v in gold + pred:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value in sample: {v!r}")
        object.__setattr__(self, "gold", gold)
        object.__setattr__(self, "pred", pred)

    @property
    def n(self) -> int:
        return len(self.gold)


def _ksum(values) -> float:
    """Kahan-compensated sum."""
    total = 0.0
    c = 0.0
    for v in values:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def _mean(values) -> float:
    return _ksum(values) / len(values)


def pearson(sample: PairedSample) -> float:
    """Product-moment correlation of the paired vectors."""
    x, y = sample.gold, sample.pred
    mx, my = _mean(x), _mean(y)
    sxy = _ksum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = _ksum((a - mx) ** 2 for a in x)
    syy = _ksum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        # constant vector, or spread so small its squared deviations underflow
        raise DegenerateVariance("constant vector has no defined correlation")
    denom_sq = sxx * syy
    if denom_sq > 0.0 and math.isfinite(denom_sq):
        denom = math.sqrt(denom_sq)  # exact for identical vectors
    else:
        # the product under- or overflowed; take the roots separately
        denom = math.sqrt(sxx) * math.sqrt(syy)
    return _clamp_unit(sxy / denom)


def _clamp_unit(value: float) -> float:
    return 1.0 if value > 1.0 else -1.0 if value < -1.0 else value


def average_ranks(values) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(sample: PairedSample) -> float:
    """Rank correlation: Pearson over average ranks."""
    return pearson(PairedSample(average_ranks(sample.gold),
                                average_ranks(sample.pred)))


def kendall(sample: PairedSample) -> float:
    """Kendall tau-b, corrected for ties in both margins.

    O(n log n): sort by (gold, pred), count discordant pairs as merge-sort
    inversions of the pred sequence, and derive concordant pairs from the
    tie-group counts. The quadratic pair enumerator lives in the test suite
    as the oracle for this implementation.
    """
    n = sample.n
    pairs = sorted(zip(sample.gold, sample.pred))
    n0 = n * (n - 1) // 2

    # tie counts: gold ties (n1), joint ties (n3) from the sorted pass;
    # pred ties (n2) from a sort of pred alone
    n1 = _tied_pair_count(p[0] for p in pairs)
    n3 = _tied_pair_count(pairs)
    n2 = _tied_pair_count(sorted(p[1] for p in pairs))

    discordant = _count_inversions([p[1] for p in pairs])
    # pairs tied in gold are adjacent and pre-sorted by pred, so they add
    # no inversions; C + D = n0 - n1 - n2 + n3
    c_minus_d = n0 - n1 - n2 + n3 - 2 * discordant

    denom_x = n0 - n1
    denom_y = n0 - n2
    if denom_x == 0 or denom_y == 0:
        raise DegenerateVariance("all-tied vector has no defined tau")
    return _clamp_unit(c_minus_d / math.sqrt(denom_x * denom_y))


def _tied_pair_count(sorted_values) -> int:
    total = 0
    run = 0
    prev = object()
    for v in sorted_values:
        if v == prev:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
            prev = v
    total += run * (run - 1) // 2
    return total


def _count_inversions(seq: list) -> int:
    """Merge-sort inversion count; equal elements are not inversions."""
    if len(seq) < 2:
        return 0
    buf = list(seq)
    tmp = [None] * len(seq)

    def sort(lo: int, hi: int) -> int:
        if hi - lo < 2:
            return 0
        mid = (lo + hi) // 2
        inv = sort(lo, mid) + sort(mid, hi)
        i, j, k = lo, mid, lo
        while i < mid and j < hi:
            if buf[j] < buf[i]:
                inv += mid - i
                tmp[k] = buf[j]
                j += 1
            else:
                tmp[k] = buf[i]
                i += 1
            k += 1
        tmp[k:hi] = buf[i:mid] if i < mid else buf[j:hi]
        buf[lo:hi] = tmp[lo:hi]
        return inv

    return sort(0, len(buf))


# -- Student t -------------------------------------------------------------

def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) by the continued-fraction expansion (modified Lentz).

    Relative error is held below 1e-12 for the (a, b) ranges the t test
    uses; the quadrature oracle in the tests checks 1e-8 end to end.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    tiny = 1e-300
    eps = 1e-15
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        numer = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numer = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def student_t_two_tailed_p(t: float, df: int) -> float:
    """Two-tailed p-value P(|T_df| >= |t|) via the incomplete beta."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(x, df / 2.0, 0.5)


def paired_t_test(sample: PairedSample) -> tuple[float, float]:
    """Two-tailed paired t test on differences pred - gold.

    Returns (t, p). All-zero differences give (0.0, 1.0); constant nonzero
    differences have an infinite t and raise ZeroVariance.
    """
    diffs = [p - g for g, p in zip(sample.gold, sample.pred)]
    n = len(diffs)
    d_mean = _mean(diffs)
    ss = _ksum((d - d_mean) ** 2 for d in diffs)
    if ss == 0.0:
        if d_mean == 0.0:
            return 0.0, 1.0
        raise ZeroVariance("differences are a nonzero constant; t is infinite")
    sd = math.sqrt(ss / (n - 1))
    t = d_mean / (sd / math.sqrt(n))
    return t, student_t_two_tailed_p(t, n - 1)


# -- run-level evaluation ----------------------------------------------------

class Significance(Enum):
    NS = "ns"        # p > 0.05
    P05 = "p<0.05"
    P01 = "p<0.01"
    P001 = "p<0.001"


def significance_of(p: float) -> Significance:
    if p <= 0.001:
        return Significance.P001
    if p <= 0.01:
        return Significance.P01
    if p <= 0.05:
        return Significance.P05
    return Significance.NS


@dataclass(frozen=True)
class CorrelationReport:
    """Per (language pair x template x model) evaluation summary.

    t_stat is None when the paired differences are a nonzero constant; the
    p-value is then the limit 0.0 and the result is maximally significant.
    """

    pair: str
    template: str
    model: str
    n_used: int
    n_excluded: int
    pearson_r: float
    spearman_rho: float
    kendall_tau: float
    t_stat: float | None
    p_value: float
    significance: Significance
    tau_variant: str = "b"
    exclusion_reasons: dict = field(default_factory=dict)

    JSON_FIELDS = {
        **{k: Field((str,)) for k in ("pair", "template", "model")},
        **{k: Field((int,), lo=0) for k in ("n_used", "n_excluded")},
        **{k: Field((int, float), -1, 1) for k in ("pearson_r", "spearman_rho",
                                                   "kendall_tau")},
        "t_stat": Field((int, float, None)), "p_value": Field((int, float), 0, 1),
        "tau_variant": Field((str,), optional=True),
        "exclusion_reasons": Field((dict,), items=int, optional=True)}

    def to_dict(self) -> dict:
        return {**asdict(self), "significance": self.significance.value}

    @classmethod
    def from_dict(cls, d: dict) -> "CorrelationReport":
        """The report to_dict encoded, its significance recomputed from
        p_value; a missing or mistyped field raises ValueError (see
        json_fields)."""
        f = json_fields(d, cls.JSON_FIELDS)
        return cls(**f, significance=significance_of(f["p_value"]))


def evaluate(gold_by_id: dict, results, *, pair: str, template: str,
             model: str) -> CorrelationReport:
    """Build a CorrelationReport from extraction results.

    Excluded rows are dropped from both vectors before any statistic is
    computed, preserving the pairing; `gold_by_id` maps segment id to the
    human DA mean.
    """
    gold, pred = [], []
    for res in results:
        if res.score is None:
            continue
        seg_id = res.prompt_ref.segment_id
        if seg_id not in gold_by_id:
            raise KeyError(f"extraction references unknown segment {seg_id}")
        gold.append(gold_by_id[seg_id])
        pred.append(res.score)

    if len(gold) < 2:
        raise TooFewPairs(f"only {len(gold)} scored pairs after exclusions")

    reasons = exclusion_reasons(results)
    sample = PairedSample(gold, pred)
    try:
        t_stat, p_value = paired_t_test(sample)
    except ZeroVariance:
        t_stat, p_value = None, 0.0  # constant nonzero offset: limit p -> 0

    return CorrelationReport(
        pair=pair, template=template, model=model,
        n_used=len(gold), n_excluded=sum(reasons.values()),
        pearson_r=pearson(sample),
        spearman_rho=spearman(sample),
        kendall_tau=kendall(sample),
        t_stat=t_stat, p_value=p_value,
        significance=significance_of(p_value),
        exclusion_reasons=reasons,
    )
