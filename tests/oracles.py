"""Independent brute-force oracles used only by the tests.

These deliberately share no code with the implementations they check:
exactly-rounded fsum for moments, quadratic pair enumeration for tau, a
from-scratch ranking for Spearman, Simpson quadrature of the Student t
density for p-values, a per-pick re-hashing copy of the ICL exemplar
selection, a csv.DictReader reading of corpus TSVs, and prompt substitution
by replacing each placeholder in turn.
"""

from __future__ import annotations

import csv
import hashlib
import math


def pearson_oracle(x, y) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def ranks_oracle(values) -> list[float]:
    """Average ranks computed by position counting, not by sorting indices:
    rank(v) = (#strictly smaller) + (#equal + 1) / 2."""
    ranks = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def spearman_oracle(x, y) -> float:
    return pearson_oracle(ranks_oracle(x), ranks_oracle(y))


def kendall_oracle(x, y) -> float:
    """tau-b from explicit enumeration of every pair."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        xi, yi = x[i], y[i]
        for j in range(i + 1, n):
            dx = xi - x[j]
            dy = yi - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def t_density(x: float, df: int) -> float:
    norm = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0))
    return norm / math.sqrt(df * math.pi) * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def t_two_tailed_p_quadrature(t: float, df: int, points: int = 10001) -> float:
    """two-tailed p = 1 - 2 * integral_0^|t| f(x) dx, composite Simpson."""
    if t == 0.0:
        return 1.0
    if points % 2 == 0:
        points += 1
    a, b = 0.0, abs(t)
    h = (b - a) / (points - 1)
    acc = t_density(a, df) + t_density(b, df)
    for k in range(1, points - 1):
        acc += t_density(a + k * h, df) * (4 if k % 2 else 2)
    return 1.0 - 2.0 * (acc * h / 3.0)


# -- ICL exemplar selection --------------------------------------------------

_ORACLE_BINS = (("0-30", 30.0), ("31-50", 50.0), ("51-70", 70.0),
                ("71-90", 90.0), ("91-100", 100.0))


class OracleEmptyBin(Exception):
    def __init__(self, label: str):
        super().__init__(label)
        self.label = label


def icl_selection_oracle(train, pair: str, count: int, seed: int,
                         fallback: bool = True):
    """Reference ICL selection: every pick takes the minimum SHA-256 rank
    over the unused members of its bin, hashing them afresh.

    train is a list of (segment id, DA mean). Returns the picks as
    (segment id, bin label) in prompt order, plus (target label, substitute
    label) for every fallback substitution; raises OracleEmptyBin when a
    bin cannot be filled.
    """
    labels = [label for label, _ in _ORACLE_BINS]

    def bin_index(score: float) -> int:
        return next(i for i, (_, upper) in enumerate(_ORACLE_BINS)
                    if score <= upper)

    def rank(label: str, seg_id: int) -> int:
        payload = "\0".join(str(p) for p in (seed, pair, label, seg_id))
        return int.from_bytes(hashlib.sha256(payload.encode()).digest(), "big")

    by_bin = [[] for _ in labels]
    for seg_id, score in train:
        by_bin[bin_index(score)].append((seg_id, score))
    used: set[int] = set()
    substitutions = []

    def pick(target: int):
        candidates = [s for s in by_bin[target] if s[0] not in used]
        actual = target
        if not candidates:
            if not fallback:
                raise OracleEmptyBin(labels[target])
            open_bins = [b for b in range(len(labels))
                         if any(s[0] not in used for s in by_bin[b])]
            if not open_bins:
                raise OracleEmptyBin(labels[target])
            actual = min(open_bins, key=lambda b: (abs(b - target), b))
            candidates = [s for s in by_bin[actual] if s[0] not in used]
            substitutions.append((labels[target], labels[actual]))
        chosen = min(candidates, key=lambda s: rank(labels[target], s[0]))
        used.add(chosen[0])
        return actual, chosen

    picks = [pick(b) for b in ((0, 3, 4) if count == 3 else range(5))]
    if count == 7:
        populated = [b for b in range(5) if by_bin[b]]
        picks.append(pick(populated[0]))
        picks.append(pick(populated[-1]))
    picks.sort(key=lambda p: (p[0], p[1][1], p[1][0]))
    return [(seg_id, labels[b]) for b, (seg_id, _) in picks], substitutions


def load_corpus_oracle(path, columns=("original", "translation", "mean")):
    """A corpus TSV read through csv.DictReader, with the row rules of the
    loader: ([(segment id, source, translation, score)], [(row, reason)]),
    or ("MissingColumn", name) when the header lacks a column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, dialect="excel-tab")
        header = reader.fieldnames or []
        for col in columns:
            if col not in header:
                return ("MissingColumn", col)
        segments, diagnostics = [], []
        for row_idx, row in enumerate(reader, start=1):
            source, translation, raw_score = (
                (row.get(col) or "").strip() for col in columns)
            reason = None
            if not source:
                reason = "EmptySource"
            elif not translation:
                reason = "EmptyTranslation"
            else:
                try:
                    score = float(raw_score)
                except ValueError:
                    reason = "BadNumber"
                else:
                    if not (0.0 <= score <= 100.0):
                        reason = "OutOfRange"
            if reason is None:
                segments.append((row_idx, source, translation, score))
            else:
                diagnostics.append((row_idx, reason))
    return segments, diagnostics


# -- prompt substitution -------------------------------------------------------

def substitute_oracle(body: str, source_lang: str, target_lang: str,
                      source: str, translation: str,
                      examples: str | None = None):
    """Reference prompt text: the first occurrence of each placeholder
    replaced in turn (source_lang, target_lang, examples for an ICL body,
    source_text, translation_text). Returns the text, or
    ("PlaceholderUnresolved", name) for the first placeholder in that order
    that survived."""
    fills = [("source_lang", source_lang), ("target_lang", target_lang),
             ("examples", examples), ("source_text", source),
             ("translation_text", translation)]
    if examples is None:
        del fills[2]
    text = body
    for name, value in fills:
        text = text.replace("{%s}" % name, value, 1)
    for name, _ in fills:
        if "{%s}" % name in text:
            return ("PlaceholderUnresolved", name)
    return text


def exemplar_block_oracle(exemplars) -> str:
    """The exemplar block of (source, translation, score) triples, in the
    order given."""
    return "\n\n".join(f'Source text: "{source}"\nTranslation: '
                       f'"{translation}"\nScore: {score:.1f}'
                       for source, translation, score in exemplars)
