"""load_corpus reads every TSV the way csv.DictReader did: blank lines are
not rows, short rows read their missing fields as empty, extra fields are
ignored, and the diagnostics keep their rows and reasons."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qeharness.corpus import (ColumnMap, LangPair, LoadDiagnostic, Split,
                              load_corpus)
from qeharness.errors import FileUnreadable, MissingColumn, RowParseError

from oracles import load_corpus_oracle

FIELDS = st.one_of(
    st.sampled_from(["", " ", "hello", "  two words ", "50", "50.5", " 70 ",
                     "100", "101", "-1", "-0.0", "nan", "inf", "1e2", "1_0",
                     "abc", '"quoted\ttab"', '"two\nlines"', '"a""b"',
                     'x"y', '"open', "ગુ", " "]),
    st.text(alphabet=" ab\t\"\n\r09.-", max_size=6),
)
ROWS = st.lists(st.one_of(st.none(), st.lists(FIELDS, max_size=5)),
                max_size=12)
HEADERS = st.one_of(
    st.permutations(["original", "translation", "mean", "z"]),
    st.sampled_from([["original", "translation", "mean", "mean"],
                     ["original", "mean"], []]),
)


def _tsv(header, rows, newline) -> str:
    lines = ["\t".join(header)]
    lines += ["" if row is None else "\t".join(row) for row in rows]
    return newline.join(lines)


def _load(path, **kwargs):
    diagnostics: list[LoadDiagnostic] = []
    try:
        segments = load_corpus(path, LangPair.parse("en-gu"), Split.TEST,
                               diagnostics=diagnostics, **kwargs)
    except MissingColumn as exc:
        return ("MissingColumn", exc.name)
    return ([(s.id, s.source, s.translation, s.da_mean) for s in segments],
            [(d.row, d.reason) for d in diagnostics])


@settings(max_examples=300, deadline=None)
@given(header=HEADERS, rows=ROWS, newline=st.sampled_from(["\n", "\r\n"]),
       final_newline=st.booleans())
def test_load_corpus_matches_dictreader(tmp_path_factory, header, rows,
                                        newline, final_newline):
    text = _tsv(header, rows, newline) + (newline if final_newline else "")
    path = tmp_path_factory.mktemp("tsv") / "x.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = load_corpus_oracle(path)
    hasher = hashlib.sha256()
    assert _load(path, hasher=hasher) == expected
    assert hasher.hexdigest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    if expected[0] == "MissingColumn" or not expected[1]:
        return
    with pytest.raises(RowParseError) as err:
        load_corpus(path, LangPair.parse("en-gu"), Split.TEST, strict=True)
    assert (err.value.row, err.value.reason) == expected[1][0]


def test_custom_column_map_matches_dictreader(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("score\tmt\tsrc\textra\n\n80\thallo\thello\n"
                    "x\tb\ta\tz\tmore\n\n7\tc\n", encoding="utf-8")
    cmap = ColumnMap(source="src", translation="mt", score="score")
    segments = load_corpus(path, LangPair.parse("en-de"), Split.TEST, cmap,
                           diagnostics=(diagnostics := []))
    expected = load_corpus_oracle(path, ("src", "mt", "score"))
    assert ([(s.id, s.source, s.translation, s.da_mean) for s in segments],
            [(d.row, d.reason) for d in diagnostics]) == expected
    assert expected == ([(1, "hello", "hallo", 80.0)],
                        [(2, "BadNumber"), (3, "EmptySource")])


@pytest.mark.parametrize("data", [b"\xffriginal\ttranslation\tmean\n",
                                  b"original\ttranslation\tmean\na\t\xff\t5\n"],
                         ids=["header", "row"])
def test_file_that_is_not_utf8_is_unreadable(tmp_path, data):
    path = tmp_path / "x.tsv"
    path.write_bytes(data)
    with pytest.raises(FileUnreadable):
        load_corpus(path, LangPair.parse("en-gu"), Split.TEST)
