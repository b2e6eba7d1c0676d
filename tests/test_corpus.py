from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from qeharness.corpus import (ColumnMap, LangPair, LoadDiagnostic, ScoreBin,
                              SCORE_BINS, Segment, Split, bin_of, histogram,
                              load_corpora, load_corpus, split_size_warnings,
                              write_corpus_tsv)
from qeharness.corpus import read_jsonl, write_jsonl, write_lines
from qeharness.errors import (FileUnreadable, MissingColumn, RowParseError,
                              ScoreOutOfRange)

from conftest import synthetic_corpus, synthetic_segments, write_corpus_manifest, write_tsv


# -- types -------------------------------------------------------------------

def test_lang_pair_display_and_parse():
    pair = LangPair("en", "gu")
    assert str(pair) == "en-gu"
    assert LangPair.parse("En-GU") == pair


@pytest.mark.parametrize("bad", ["e", "ENG!", "x", "abcd"])
def test_lang_pair_rejects_bad_codes(bad):
    with pytest.raises(ValueError):
        LangPair(bad, "en")


def test_segment_rejects_out_of_range_score():
    with pytest.raises(ValueError):
        Segment(1, "a", "b", 101.0, LangPair("en", "gu"), Split.TRAIN)


def test_segment_rejects_blank_text():
    with pytest.raises(ValueError):
        Segment(1, "  ", "b", 50.0, LangPair("en", "gu"), Split.TRAIN)


# -- bin_of -------------------------------------------------------------------

@pytest.mark.parametrize("score,expected", [
    (0.0, ScoreBin.B0_30),
    (30.0, ScoreBin.B0_30),
    (30.5, ScoreBin.B31_50),
    (50.0, ScoreBin.B31_50),
    (50.1, ScoreBin.B51_70),
    (70.0, ScoreBin.B51_70),
    (89.9, ScoreBin.B71_90),
    (90.0, ScoreBin.B71_90),
    (90.01, ScoreBin.B91_100),
    (100.0, ScoreBin.B91_100),
])
def test_bin_boundaries(score, expected):
    assert bin_of(score) is expected


def test_bin_of_rejects_out_of_range():
    with pytest.raises(ScoreOutOfRange):
        bin_of(100.5)
    with pytest.raises(ScoreOutOfRange):
        bin_of(-0.1)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_bin_of_total_on_range(score):
    assert bin_of(score) in SCORE_BINS


@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_bin_of_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert bin_of(lo).index <= bin_of(hi).index


def test_bins_partition_0_100():
    assert [(b.lo, b.hi) for b in SCORE_BINS] == [
        (0.0, 30.0), (30.0, 50.0), (50.0, 70.0), (70.0, 90.0), (90.0, 100.0)]


# -- histogram ----------------------------------------------------------------

def test_histogram_empty():
    counts = histogram([])
    assert counts == {b: 0 for b in SCORE_BINS}


def test_histogram_known_scores():
    pair = LangPair("en", "gu")
    segs = [Segment(i + 1, "s", "t", v, pair, Split.TRAIN)
            for i, v in enumerate([10.0, 40.0, 95.0])]
    counts = histogram(segs)
    assert counts[ScoreBin.B0_30] == 1
    assert counts[ScoreBin.B31_50] == 1
    assert counts[ScoreBin.B91_100] == 1
    assert counts[ScoreBin.B51_70] == 0
    assert counts[ScoreBin.B71_90] == 0


def test_histogram_full_split_sums_to_size():
    segs = synthetic_segments("en-gu", n=7000, split=Split.TRAIN)
    counts = histogram(segs)
    assert sum(counts.values()) == 7000
    assert all(counts[b] > 0 for b in SCORE_BINS)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=60))
def test_histogram_counts_sum_to_length(scores):
    pair = LangPair("en", "ta")
    segs = [Segment(i + 1, "s", "t", v, pair, Split.TEST)
            for i, v in enumerate(scores)]
    assert sum(histogram(segs).values()) == len(segs)


# -- loading -------------------------------------------------------------------

def test_load_corpus_happy_path(tmp_path):
    segs = synthetic_segments("en-mr", n=50, split=Split.TRAIN)
    path = write_tsv(tmp_path / "train.tsv", segs)
    loaded = load_corpus(path, LangPair.parse("en-mr"), Split.TRAIN)
    assert loaded == segs


def test_load_corpus_round_trip(tmp_path):
    segs = synthetic_segments("si-en", n=40, split=Split.TEST)
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    write_tsv(first, segs)
    loaded = load_corpus(first, LangPair.parse("si-en"), Split.TEST)
    write_corpus_tsv(loaded, second)
    reloaded = load_corpus(second, LangPair.parse("si-en"), Split.TEST)
    assert reloaded == loaded


def test_load_corpus_reports_bad_rows_lenient(tmp_path):
    path = tmp_path / "x.tsv"
    rows = ["original\ttranslation\tmean"]
    for i in range(1, 10):
        rows.append(f"src {i}\ttgt {i}\t50.0")
    rows[7] = "src 7\ttgt 7\t101"  # data row 7 out of range
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    diagnostics: list[LoadDiagnostic] = []
    segs = load_corpus(path, LangPair.parse("en-gu"), Split.TRAIN,
                       diagnostics=diagnostics)
    assert diagnostics == [LoadDiagnostic(7, "OutOfRange")]
    assert len(segs) == 8
    assert [s.id for s in segs] == [1, 2, 3, 4, 5, 6, 8, 9]


def test_load_corpus_strict_mode_raises(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("original\ttranslation\tmean\n"
                    "src\ttgt\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(RowParseError) as err:
        load_corpus(path, LangPair.parse("en-gu"), Split.TRAIN, strict=True)
    assert err.value.row == 1
    assert err.value.reason == "BadNumber"


def test_load_corpus_header_only_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("original\ttranslation\tmean\n", encoding="utf-8")
    diagnostics: list[LoadDiagnostic] = []
    segs = load_corpus(path, LangPair.parse("en-gu"), Split.TEST,
                       diagnostics=diagnostics)
    assert segs == []
    assert diagnostics == []


def test_load_corpus_missing_column(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("original\ttgt\tmean\nsrc\ttgt\t50\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_corpus(path, LangPair.parse("en-gu"), Split.TRAIN)


def test_load_corpus_custom_column_map(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("src\tmt\tscore\nhello\thallo\t75.5\n", encoding="utf-8")
    cmap = ColumnMap(source="src", translation="mt", score="score")
    segs = load_corpus(path, LangPair.parse("en-de"), Split.TEST, cmap)
    assert len(segs) == 1
    assert segs[0].da_mean == 75.5


def test_load_corpus_unreadable():
    with pytest.raises(FileUnreadable):
        load_corpus("/nonexistent/nowhere.tsv", LangPair.parse("en-gu"),
                    Split.TRAIN)


def test_empty_translation_row_is_diagnosed(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("original\ttranslation\tmean\nsrc\t\t50\n",
                    encoding="utf-8")
    diagnostics: list[LoadDiagnostic] = []
    load_corpus(path, LangPair.parse("en-gu"), Split.TRAIN,
                diagnostics=diagnostics)
    assert diagnostics == [LoadDiagnostic(1, "EmptyTranslation")]


# -- manifest ------------------------------------------------------------------

def test_manifest_load_corpora(tmp_path):
    corpora = [synthetic_corpus("en-gu", 60, 30), synthetic_corpus("si-en", 40, 20)]
    manifest = write_corpus_manifest(tmp_path, corpora)
    loaded = load_corpora(manifest)
    assert [str(c.pair) for c in loaded] == ["en-gu", "si-en"]
    assert len(loaded[0].train) == 60
    assert len(loaded[1].test) == 20


def test_split_size_warnings_advisory():
    small = synthetic_corpus("en-mr", n_train=10, n_test=5)
    warnings = split_size_warnings(small)
    assert len(warnings) == 2
    assert "expected 26000" in warnings[0]
    unknown = synthetic_corpus("fr-de", n_train=3, n_test=3)
    assert split_size_warnings(unknown) == []


# -- JSONL -----------------------------------------------------------------------

def test_jsonl_round_trip_lands_without_temp_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"b": 1, "a": "x"}, {"a": [1, 2]}]
    write_jsonl(path, iter(rows))
    assert path.read_text(encoding="utf-8") == (
        '{"a": "x", "b": 1}\n{"a": [1, 2]}\n')
    assert list(read_jsonl(path)) == rows
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


@pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
def test_write_that_raises_leaves_no_temp_file(tmp_path, fault):
    path = tmp_path / "rows.jsonl"
    path.write_text("before\n", encoding="utf-8")

    def lines():
        for i in range(200):  # past the first 64-line chunk
            yield f"line {i}\n"
        raise fault("stop")

    with pytest.raises(fault):
        write_lines(path, lines())
    assert path.read_text(encoding="utf-8") == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}', encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]


@pytest.mark.parametrize("text,row", [('{"a": 1}\n{"a": ', 2),
                                      ('{"a": 1}\n\n[1, 2]\n', 3)])
def test_read_jsonl_bad_line_is_typed(tmp_path, text, row):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RowParseError) as err:
        list(read_jsonl(path))
    assert err.value.row == row


def test_read_jsonl_line_that_is_not_utf8_is_typed(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(RowParseError) as err:
        list(read_jsonl(path))
    assert err.value.row == 2


def test_read_jsonl_missing_file_is_typed(tmp_path):
    with pytest.raises(FileUnreadable):
        list(read_jsonl(tmp_path / "absent.jsonl"))
