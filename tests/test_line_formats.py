"""The outputs, extractions and SFT line formatters against their oracle,
json.dumps(record.to_dict(), sort_keys=True) + "\\n", and the shared parts
each escapes once."""

from __future__ import annotations

import json
from collections import Counter

from hypothesis import given, settings, strategies as st

from qeharness.extraction import (ExtractionResult, extract_batch,
                                  extraction_lines)
from qeharness.gateway import (FAIL_TIMEOUT, ModelOutput, PromptRef,
                               TRANSPORT_OK, output_lines)
from qeharness.sft_export import SftRecord, sft_lines

from test_prompts import _JSON_TEXT

_BIG_INT = st.integers(-2**70, 2**70)
# up to two pairs, seeds and templates; each record's ref picks one of each
# by index, so a stream holds runs of one combo and combos that differ in
# one field only, interleaved
_COMBOS = st.tuples(*(st.lists(values, min_size=1, max_size=2)
                      for values in (_JSON_TEXT, _BIG_INT, _JSON_TEXT)))
_PICK = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))


def _oracle(records) -> list[str]:
    return [json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records]


def _ref(combos, pick, segment_id: int) -> PromptRef:
    pair, seed, template = (values[at % len(values)]
                            for values, at in zip(combos, pick))
    return PromptRef(pair, segment_id, template, seed)


@settings(max_examples=100, deadline=None)
@given(combos=_COMBOS, replies=st.lists(_JSON_TEXT, min_size=1, max_size=3),
       rows=st.lists(st.tuples(
           _PICK, _BIG_INT, st.integers(0, 3),
           # finite, and finite in ms too, as a measured latency is
           st.floats(-1e300, 1e300), _BIG_INT,
           st.one_of(st.sampled_from([TRANSPORT_OK, FAIL_TIMEOUT]),
                     _JSON_TEXT)), max_size=8))
def test_output_lines_equal_sorted_key_json(combos, replies, rows):
    # a reply index past the pool gives a failed output's empty text
    outputs = [ModelOutput(_ref(combos, pick, segment_id),
                           (replies + [""])[reply_at % (len(replies) + 1)],
                           latency, attempts, status)
               for pick, segment_id, reply_at, latency, attempts, status
               in rows]
    assert list(output_lines(outputs)) == _oracle(outputs)


@settings(max_examples=100, deadline=None)
@given(combos=_COMBOS, rows=st.lists(st.tuples(
    _PICK, _BIG_INT,
    st.one_of(st.none(), st.sampled_from([0, 0.0, -0.0, 100.0]),
              st.floats(allow_nan=False, allow_infinity=False), _BIG_INT),
    st.one_of(st.none(), _JSON_TEXT),
    st.one_of(st.none(), st.tuples(_BIG_INT, _BIG_INT))), max_size=8))
def test_extraction_lines_equal_sorted_key_json(combos, rows):
    results = [ExtractionResult(_ref(combos, pick, segment_id), score,
                                reason, span)
               for pick, segment_id, score, reason, span in rows]
    assert list(extraction_lines(results)) == _oracle(results)


@settings(max_examples=100, deadline=None)
@given(heads=st.lists(_JSON_TEXT, min_size=1, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 3), _JSON_TEXT, _JSON_TEXT,
                               _JSON_TEXT, _BIG_INT, _JSON_TEXT),
                     max_size=8))
def test_sft_lines_equal_sorted_key_json(heads, rows):
    # records of several heads interleaved, as the pooled shuffle leaves
    # them, and records whose head is empty
    heads.append("")
    records = [SftRecord(heads[at % len(heads)] + tail, output,
                         {"pair": pair, "segment_id": segment_id,
                          "template_version": version},
                         head=heads[at % len(heads)])
               for at, tail, output, pair, segment_id, version in rows]
    assert list(sft_lines(records)) == _oracle(records)


def test_each_shared_part_is_escaped_once(monkeypatch):
    escape = json.encoder.encode_basestring_ascii
    escaped = Counter()

    def counting(text):
        escaped[text] += 1
        return escape(text)

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", counting)
    # two combos of one pair, alternating, with one reply between them
    outputs = [ModelOutput(PromptRef("en-gu", i, ("te", "ag")[i % 2], 7),
                           "Score: 5", 0.0, 1, TRANSPORT_OK)
               for i in range(6)]
    list(output_lines(outputs))
    assert (escaped["en-gu"], escaped["te"], escaped["ag"],
            escaped["Score: 5"]) == (2, 1, 1, 1)

    escaped.clear()
    list(extraction_lines(extract_batch(outputs)[0]))
    assert (escaped["en-gu"], escaped["te"], escaped["ag"]) == (2, 1, 1)

    escaped.clear()
    records = [SftRecord(f"{head} {i}", "Score: 5.0",
                         {"pair": "en-gu", "segment_id": i,
                          "template_version": "1"}, head=head)
               for i, head in enumerate(["first head", "second head"] * 3)]
    list(sft_lines(records))
    assert (escaped["first head"], escaped["second head"]) == (1, 1)
