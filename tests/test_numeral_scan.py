"""The digit-first numeral pattern finds exactly the spans of the pattern it
replaced, whose two leading lookbehinds made a scan try every character."""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from qeharness.extraction import _NUMERAL

ORACLE = re.compile(r"(?<!\d)(?<!\d\.)\d{1,3}(?:\.\d{1,2})?(?!\d)(?!\.\d)")

# digits, the characters the lookarounds turn on, letters, and a digit
# that is not ASCII (ARABIC-INDIC DIGIT THREE), which \d also matches
texts = st.text(alphabet="0123456789012345.-/ aZ\n٣", max_size=60)


def _spans(pattern: re.Pattern, text: str) -> list[tuple[int, int]]:
    return [m.span() for m in pattern.finditer(text)]


@settings(max_examples=2000)
@given(texts)
def test_numeral_spans_equal_the_old_patterns(text):
    assert _spans(_NUMERAL, text) == _spans(ORACLE, text)


def test_numeral_spans_on_malformed_decimals_and_runs():
    for text in ("12.345", "1.2.3", "1234", "9.99.9", "0-100", "7/10",
                 "a1.5b", "100.", ".5", "3٣"):
        assert _spans(_NUMERAL, text) == _spans(ORACLE, text), text
