"""Pull a DA score out of free-form model output, or classify the failure.

The numeral grammar and the candidate-selection rules below are the concrete
extraction contract for the whole harness; the SFT export renders its targets
to match this grammar exactly, and the test suite pins the behavior with a
golden table. Changing anything here is a replication-affecting decision.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, NamedTuple

from .corpus import Field, json_fields
from .gateway import ModelOutput, PromptRef, TRANSPORT_OK, prompt_ref_encoder

__all__ = [
    "REASON_NO_NUMERIC_MATCH", "REASON_OUT_OF_RANGE", "REASON_TRANSPORT_FAILED",
    "REASON_AMBIGUOUS", "EXCLUSION_REASONS", "Outcome", "ExtractionResult",
    "extraction_lines", "ExclusionLedger", "extract_score", "extract_batch",
    "exclusion_reasons", "UNTRUSTWORTHY_EXCLUSION_SHARE", "untrustworthy",
]

REASON_NO_NUMERIC_MATCH = "NoNumericMatch"
REASON_OUT_OF_RANGE = "OutOfRange"
REASON_TRANSPORT_FAILED = "TransportFailed"
REASON_AMBIGUOUS = "Ambiguous"
EXCLUSION_REASONS = (REASON_NO_NUMERIC_MATCH, REASON_OUT_OF_RANGE,
                     REASON_TRANSPORT_FAILED, REASON_AMBIGUOUS)

# A numeral is 1-3 integer digits with an optional 1-2 digit fraction,
# bounded by non-digit context. The extra lookarounds keep fragments of
# malformed decimals (12.345) from surfacing as numerals of their own.
_NUMERAL = re.compile(r"(?<!\d)(?<!\d\.)\d{1,3}(?:\.\d{1,2})?(?!\d)(?!\.\d)")

# Labels that bind the nearest following numeral when they occur within
# 12 characters before it.
_LABEL = re.compile(r"\b(?:score|rating|quality|da)\b", re.IGNORECASE)
_LABEL_WINDOW = 12

# Scale idioms. A numeral directly followed by "to 100" is the low bound of
# a range mention ("from 0 to 100"); the 100 directly after "out of", "to",
# or "/" is the scale constant itself. A numeral *preceding* "out of 100"
# or "/100" is the answer ("72.5 out of 100" scores 72.5).
_RANGE_BOUND_AFTER = re.compile(r"\s*to\s+100\b", re.IGNORECASE)
_SCALE_CONST_BEFORE = re.compile(r"(?:\bout\s+of|\bto|/)\s*$", re.IGNORECASE)


class _Candidate(NamedTuple):
    value: float
    start: int          # char offset of the numeral (minus sign excluded)
    end: int
    negative: bool
    labeled: bool
    scale_mention: bool


def _candidates(text: str) -> list[_Candidate]:
    found = []
    for m in _NUMERAL.finditer(text):
        start, end = m.span()
        value = float(m.group())
        # a minus directly before the numeral negates it unless it is an
        # infix dash between digits ("0-100")
        negative = (start > 0 and text[start - 1] == "-"
                    and (start < 2 or not text[start - 2].isdigit()))
        window = text[max(0, start - _LABEL_WINDOW):start]
        labeled = bool(_LABEL.search(window))
        scale_mention = bool(
            (value == 100.0 and _SCALE_CONST_BEFORE.search(text[:start]))
            or _RANGE_BOUND_AFTER.match(text, end)
        )
        found.append(_Candidate(value, start, end, negative, labeled,
                                scale_mention))
    return found


@dataclass(frozen=True)
class Outcome:
    """Either a score in [0, 100] or an exclusion reason, never both.

    span is the (byte offset, byte length) of the numeral that produced a
    score, for audit; exclusions carry no span.
    """

    score: float | None
    reason: str | None = None
    span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.score is None) == (self.reason is None):
            raise ValueError("exactly one of score/reason must be set")
        if self.score is not None and not (0.0 <= self.score <= 100.0):
            raise ValueError(f"score {self.score} outside [0, 100]")


def _byte_span(text: str, start: int, end: int) -> tuple[int, int]:
    return (len(text[:start].encode("utf-8")),
            len(text[start:end].encode("utf-8")))


def extract_score(raw_text: str) -> Outcome:
    """Total function from any string to an Outcome.

    Selection order: (a) the first numeral carrying a nearby label wins,
    in or out of range; (b) otherwise the first non-negative in-range
    numeral that is not a scale mention; (c) if the only in-range numerals
    are scale mentions the output is ambiguous; numerals that are all out
    of range (or negative) are out-of-range; no numerals at all is a
    no-match.
    """
    cands = _candidates(raw_text)
    if not cands:
        return Outcome(None, REASON_NO_NUMERIC_MATCH)

    for c in cands:
        if c.labeled and not c.scale_mention:
            if c.negative or c.value > 100.0:
                return Outcome(None, REASON_OUT_OF_RANGE)
            return Outcome(c.value, span=_byte_span(raw_text, c.start, c.end))

    in_range = [c for c in cands if not c.negative and c.value <= 100.0]
    for c in in_range:
        if not c.scale_mention:
            return Outcome(c.value, span=_byte_span(raw_text, c.start, c.end))
    if in_range:
        return Outcome(None, REASON_AMBIGUOUS)
    return Outcome(None, REASON_OUT_OF_RANGE)


@dataclass(frozen=True)
class ExtractionResult:
    prompt_ref: PromptRef
    score: float | None
    reason: str | None = None
    span: tuple[int, int] | None = None

    JSON_FIELDS = {"prompt_ref": Field((dict,)),
                   "score": Field((int, float, None)),
                   "reason": Field((str, None)),
                   "span": Field((list, None), 2, 2, int, optional=True)}

    def to_dict(self) -> dict:
        return {
            "prompt_ref": self.prompt_ref.to_dict(),
            "score": self.score,
            "reason": self.reason,
            "span": list(self.span) if self.span else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExtractionResult":
        """The result to_dict encoded; span may be absent. A missing or
        mistyped field (see json_fields), or a score and reason that no
        Outcome holds, raises ValueError."""
        f = json_fields(d, cls.JSON_FIELDS)
        outcome = Outcome(f["score"], f["reason"],
                          tuple(f["span"]) if f.get("span") else None)
        return cls(PromptRef.from_dict(f["prompt_ref"]), outcome.score,
                   outcome.reason, outcome.span)


def extraction_lines(results: Iterable[ExtractionResult]) -> Iterator[str]:
    """Each result's line, json.dumps(r.to_dict(), sort_keys=True) + "\\n",
    for the field types ExtractionResult declares; each combo's prompt_ref
    parts are escaped once (prompt_ref_encoder)."""
    ref_json = prompt_ref_encoder()
    escape = json.encoder.encode_basestring_ascii  # json.dumps' own
    for r in results:
        reason = "null" if r.reason is None else escape(r.reason)
        score = "null" if r.score is None else repr(r.score)
        span = f"[{r.span[0]!r}, {r.span[1]!r}]" if r.span else "null"
        yield (f'{{"prompt_ref": {ref_json(r.prompt_ref)}, "reason": '
               f'{reason}, "score": {score}, "span": {span}}}\n')


# A run whose exclusions exceed this share of all inferences is flagged as
# untrustworthy in reports and tables.
UNTRUSTWORTHY_EXCLUSION_SHARE = 0.10


def untrustworthy(excluded: int, total: int) -> bool:
    return excluded > UNTRUSTWORTHY_EXCLUSION_SHARE * total


@dataclass(frozen=True)
class ExclusionLedger:
    """Exclusion accounting for one (pair, template, model) run."""

    pair: str
    template: str
    model: str
    total: int
    excluded_count: int
    reasons: dict

    JSON_FIELDS = {**{k: Field((str,)) for k in ("pair", "template", "model")},
                   **{k: Field((int,), lo=0) for k in ("total",
                                                       "excluded_count")},
                   "reasons": Field((dict,), items=int)}

    @property
    def flagged_untrustworthy(self) -> bool:
        return untrustworthy(self.excluded_count, self.total)

    def to_dict(self) -> dict:
        return {**asdict(self),
                "flagged_untrustworthy": self.flagged_untrustworthy}

    @classmethod
    def from_dict(cls, d: dict) -> "ExclusionLedger":
        """The ledger to_dict encoded, its derived flag recomputed; a
        missing or mistyped field raises ValueError (see json_fields)."""
        return cls(**json_fields(d, cls.JSON_FIELDS))


def exclusion_reasons(results: list[ExtractionResult]) -> dict[str, int]:
    """How many results without a score carry each exclusion reason."""
    return dict(Counter(r.reason for r in results if r.score is None))


def extract_batch(outputs: list[ModelOutput], *, model: str = "",
                  ) -> tuple[list[ExtractionResult], ExclusionLedger]:
    """One result per output, plus the run's exclusion ledger.

    Transport failures become TransportFailed exclusions without touching
    the (empty) generated text, and each distinct reply is extracted once.
    """
    results = []
    # extract_score is pure and an Outcome frozen, so outcomes can be shared;
    # a failed output's key is None
    outcomes = {None: Outcome(None, REASON_TRANSPORT_FAILED)}
    for out in outputs:
        text = out.raw_text if out.transport_status == TRANSPORT_OK else None
        outcome = outcomes.get(text)
        if outcome is None:
            outcome = outcomes[text] = extract_score(text)
        results.append(ExtractionResult(out.prompt_ref, outcome.score,
                                        outcome.reason, outcome.span))

    first = outputs[0].prompt_ref if outputs else None
    reasons = exclusion_reasons(results)
    ledger = ExclusionLedger(
        pair=first.pair if first else "",
        template=first.template if first else "",
        model=model,
        total=len(outputs),
        excluded_count=sum(reasons.values()),
        reasons=reasons,
    )
    return results, ledger
