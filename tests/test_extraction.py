from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from qeharness.extraction import (REASON_AMBIGUOUS, REASON_NO_NUMERIC_MATCH,
                                  REASON_OUT_OF_RANGE, REASON_TRANSPORT_FAILED,
                                  ExtractionResult, Outcome, exclusion_reasons,
                                  extract_batch, extract_score)
from qeharness.gateway import (FAIL_SERVER_ERROR, ModelOutput, PromptRef,
                               TRANSPORT_OK)

# The golden extraction table: 40 cases covering labeled scores, decimals,
# scale idioms, refusals, negatives, and >100 values. Expected is either a
# float score or an exclusion reason string. This table is the extraction
# contract; do not edit casually.
GOLDEN_CASES = [
    # labeled scores
    ("Score: 85", 85.0),
    ("score: 85", 85.0),
    ("Rating: 42.5", 42.5),
    ("Quality: 77", 77.0),
    ("DA: 66", 66.0),
    ("The DA score is 58.", 58.0),
    ("Score: 100", 100.0),
    ("Score: 0", 0.0),
    ("Score:85", 85.0),
    ("Score: 55. Quality: 90.", 55.0),
    ("The rating: 91.0 (very good)", 91.0),
    ("Translation quality 83", 83.0),
    ("Score: 73\nExplanation: the translation is fine.", 73.0),
    # unlabeled in-range picks
    ("85", 85.0),
    ("I would rate this translation 72.5 out of 100.", 72.5),
    ("85/100", 85.0),
    ("The translation deserves 90 out of 100", 90.0),
    ("I give it 67.25 points", 67.25),
    ("On a scale from 0 to 100, I give this 75.", 75.0),
    ("The first sentence deserves 80, the second 60.", 80.0),
    ("Score is approximately 88.5 in my assessment", 88.5),
    ("I'd say 0.5 for this translation", 0.5),
    ("100 out of 100", 100.0),
    ("informal answer: maybe 49.9?", 49.9),
    ("データ: 59", 59.0),
    # refusals and scoreless text
    ("I cannot evaluate this translation.", REASON_NO_NUMERIC_MATCH),
    ("No score can be provided.", REASON_NO_NUMERIC_MATCH),
    ("", REASON_NO_NUMERIC_MATCH),
    ("Score: ninety", REASON_NO_NUMERIC_MATCH),
    # malformed numerals never yield fragments
    ("12.345", REASON_NO_NUMERIC_MATCH),
    ("3.5.7", REASON_NO_NUMERIC_MATCH),
    ("1234", REASON_NO_NUMERIC_MATCH),
    # negatives and out-of-range values
    ("Quality: 150", REASON_OUT_OF_RANGE),
    ("Score: -5", REASON_OUT_OF_RANGE),
    ("-12.5", REASON_OUT_OF_RANGE),
    ("101", REASON_OUT_OF_RANGE),
    ("The score is 105 out of 100", REASON_OUT_OF_RANGE),
    # only scale mentions in range
    ("on a scale of 0 to 100.", REASON_AMBIGUOUS),
    ("out of 100", REASON_AMBIGUOUS),
    ("Score range: 0 to 100", REASON_AMBIGUOUS),
]


def test_golden_table_is_forty_cases():
    assert len(GOLDEN_CASES) == 40


@pytest.mark.parametrize("text,expected", GOLDEN_CASES)
def test_golden_extraction(text, expected):
    outcome = extract_score(text)
    if isinstance(expected, float):
        assert outcome.score == expected, f"on {text!r}"
        assert outcome.reason is None
        assert outcome.span is not None
    else:
        assert outcome.score is None, f"on {text!r}"
        assert outcome.reason == expected


def test_span_is_byte_offsets():
    outcome = extract_score("é 85")  # two-byte prefix char
    assert outcome.score == 85.0
    assert outcome.span == (3, 2)


def test_span_covers_decimal():
    outcome = extract_score("Score: 72.5 out of 100")
    start, length = outcome.span
    assert "Score: 72.5"[start:start + length] == "72.5"


def test_thousands_separators_not_recognized():
    # documented contract: "1,234" is a 1 and a 234, and the 1 wins
    assert extract_score("1,234").score == 1.0


def test_range_dash_is_not_a_minus():
    outcome = extract_score("somewhere in 0-100")
    assert outcome.score == 0.0  # the dash does not negate the 100


@given(st.text(max_size=200))
def test_extract_total_on_any_text(text):
    outcome = extract_score(text)
    if outcome.score is not None:
        assert 0.0 <= outcome.score <= 100.0
        assert outcome.reason is None
    else:
        assert outcome.reason in (REASON_NO_NUMERIC_MATCH,
                                  REASON_OUT_OF_RANGE, REASON_AMBIGUOUS)


# -- batch + ledger -------------------------------------------------------------

def _output(seg_id, text, status=TRANSPORT_OK):
    ref = PromptRef(pair="en-ta", segment_id=seg_id, template="ag", seed=0)
    return ModelOutput(ref, text, 0.0, 1, status)


def test_extract_batch_individual_outcomes():
    outputs = [
        _output(1, "Score: 50"),
        _output(2, "no idea"),
        _output(3, "", FAIL_SERVER_ERROR),
        _output(4, "Score: 200"),
    ]
    results, ledger = extract_batch(outputs, model="m")
    assert [r.score for r in results] == [50.0, None, None, None]
    assert [r.reason for r in results] == [
        None, REASON_NO_NUMERIC_MATCH, REASON_TRANSPORT_FAILED,
        REASON_OUT_OF_RANGE]
    assert ledger.total == 4
    assert ledger.excluded_count == 3
    assert ledger.reasons == {REASON_NO_NUMERIC_MATCH: 1,
                              REASON_TRANSPORT_FAILED: 1,
                              REASON_OUT_OF_RANGE: 1}
    assert ledger.pair == "en-ta"
    assert ledger.template == "ag"
    assert ledger.model == "m"


def test_ledger_arithmetic_invariant():
    outputs = [_output(i, "Score: 50" if i % 3 else "nope")
               for i in range(1, 301)]
    results, ledger = extract_batch(outputs)
    scored = sum(1 for r in results if r.score is not None)
    assert scored + ledger.excluded_count == ledger.total == 300


def test_ledger_untrustworthy_threshold():
    def ledger_with(excluded, total):
        outputs = [_output(i, "nope" if i <= excluded else "Score: 50")
                   for i in range(1, total + 1)]
        return extract_batch(outputs)[1]

    assert ledger_with(17, 1000).flagged_untrustworthy is False
    assert ledger_with(143, 1000).flagged_untrustworthy is True
    assert ledger_with(100, 1000).flagged_untrustworthy is False  # exactly 10%
    assert ledger_with(101, 1000).flagged_untrustworthy is True


def test_extract_batch_empty():
    results, ledger = extract_batch([])
    assert results == []
    assert ledger.total == 0
    assert ledger.excluded_count == 0
    assert ledger.flagged_untrustworthy is False


def test_extraction_result_round_trips():
    results, _ = extract_batch([_output(1, "Score: 62.5")])
    from qeharness.extraction import ExtractionResult
    restored = ExtractionResult.from_dict(results[0].to_dict())
    assert restored == results[0]


@settings(max_examples=200, deadline=None)
@given(replies=st.lists(st.one_of(st.text(max_size=30),
                                  st.sampled_from(["Score: 50", "Score: 200",
                                                   "no idea", "0 to 100"])),
                        min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                      max_size=40))
def test_extract_batch_over_repeated_replies_matches_extract_score(replies,
                                                                   picks):
    # each reply repeats across outputs; a failed output carries it too
    outputs = [_output(i, replies[at % len(replies)],
                       TRANSPORT_OK if ok else FAIL_SERVER_ERROR)
               for i, (at, ok) in enumerate(picks)]
    results, ledger = extract_batch(outputs)
    expected = []
    for out in outputs:
        outcome = (extract_score(out.raw_text)
                   if out.transport_status == TRANSPORT_OK
                   else Outcome(None, REASON_TRANSPORT_FAILED))
        expected.append(ExtractionResult(out.prompt_ref, outcome.score,
                                         outcome.reason, outcome.span))
    assert results == expected
    assert ledger.total == len(outputs)
    assert ledger.reasons == exclusion_reasons(expected)
