from __future__ import annotations

import json

import pytest

from qeharness.corpus import LangPair, Segment, Split
from qeharness.errors import (FileUnreadable, SampleTooLarge,
                              TokenizerDefinitionError)
from qeharness.fertility import (FertilityRecord, TokenizerHandle,
                                 load_tokenizer, measure, sample_sentences,
                                 summarize, word_count, write_plot_data_tsv,
                                 write_records_jsonl, write_summary_tsv)

from conftest import synthetic_corpus
from subword import english_segments, write_english_bpe_definition


def _definition(tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture
def word_level(tmp_path):
    return load_tokenizer("words", _definition(tmp_path, "wl",
                                               {"kind": "word_level"}))


# -- word counting ---------------------------------------------------------------

def test_word_count_joint_whitespace():
    assert word_count("hello world", "hallo welt") == 4
    assert word_count("a  b\twith,punct!", "x") == 4  # punctuation retained
    assert word_count("हि ते", "two words") == 4


# -- engines ------------------------------------------------------------------------

def test_word_level_tokenizer(word_level):
    assert word_level.token_count("hello world again") == 3
    assert word_level.kind == "word_level"


def test_bpe_greedy_merges(tmp_path):
    spec = {"kind": "bpe", "merges": [["h", "e"], ["l", "l"],
                                      ["he", "ll"], ["hell", "o"]]}
    tok = load_tokenizer("toy-bpe", _definition(tmp_path, "bpe", spec))
    assert tok.engine.tokenize("hello") == ["hello"]
    assert tok.engine.tokenize("held") == ["he", "l", "d"]
    assert tok.engine.tokenize("hello hello") == ["hello", "hello"]
    assert tok.token_count("hello held") == 4


def test_bpe_merge_rank_priority(tmp_path):
    # "ab" outranks "bc": "abc" must become [ab, c], never [a, bc]
    spec = {"kind": "bpe", "merges": [["a", "b"], ["b", "c"]]}
    tok = load_tokenizer("rank", _definition(tmp_path, "bpe2", spec))
    assert tok.engine.tokenize("abc") == ["ab", "c"]


def test_unigram_viterbi_prefers_whole_piece(tmp_path):
    spec = {"kind": "unigram", "pieces": [
        ["▁hello", -1.0], ["▁he", -2.0], ["llo", -2.5],
        ["▁", -4.0], ["h", -6.0], ["e", -6.0], ["l", -6.0], ["o", -6.0],
    ]}
    tok = load_tokenizer("uni", _definition(tmp_path, "uni", spec))
    assert tok.engine.tokenize("hello") == ["▁hello"]


def test_unigram_splits_when_cheaper(tmp_path):
    spec = {"kind": "unigram", "pieces": [
        ["▁hello", -9.0], ["▁he", -1.0], ["llo", -1.5],
        ["▁", -4.0],
    ]}
    tok = load_tokenizer("uni", _definition(tmp_path, "uni2", spec))
    assert tok.engine.tokenize("hello") == ["▁he", "llo"]


def test_unigram_unknown_chars_fall_back_per_char(tmp_path):
    spec = {"kind": "unigram", "pieces": [["▁ab", -1.0]]}
    tok = load_tokenizer("uni", _definition(tmp_path, "uni3", spec))
    assert tok.token_count("xyz") == 4  # boundary mark + three unknown chars


def test_special_tokens_never_counted(tmp_path):
    spec = {"kind": "bpe", "merges": [["h", "e"]],
            "special_tokens": ["<s>", "</s>"]}
    tok = load_tokenizer("sp", _definition(tmp_path, "sp", spec))
    tokens = tok.engine.tokenize("hello")
    assert "<s>" not in tokens and "</s>" not in tokens
    assert tok.token_count("he") == 1


# -- definition loading ----------------------------------------------------------------

def test_load_rejects_unknown_kind(tmp_path):
    with pytest.raises(TokenizerDefinitionError):
        load_tokenizer("x", _definition(tmp_path, "bad", {"kind": "wat"}))


def test_load_rejects_empty_bpe(tmp_path):
    with pytest.raises(TokenizerDefinitionError):
        load_tokenizer("x", _definition(tmp_path, "bad2",
                                        {"kind": "bpe", "merges": []}))


def test_load_rejects_empty_unigram(tmp_path):
    with pytest.raises(TokenizerDefinitionError):
        load_tokenizer("x", _definition(tmp_path, "bad3",
                                        {"kind": "unigram", "pieces": []}))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(TokenizerDefinitionError):
        load_tokenizer("x", path)


@pytest.mark.parametrize("spec", [
    [],
    {},
    {"kind": 5},
    {"kind": "bpe", "merges": 5},
    {"kind": "bpe", "merges": [["a"]]},
    {"kind": "bpe", "merges": [[1, 2]]},
    {"kind": "bpe", "merges": [["a", "b", "c"]]},
    {"kind": "bpe", "merges": ["ab"]},
    {"kind": "unigram", "pieces": {"a": -1.0}},
    {"kind": "unigram", "pieces": [["a", "x"]]},
    {"kind": "unigram", "pieces": [["a"]]},
    {"kind": "unigram", "pieces": [[1, 2.0]]},
    {"kind": "unigram", "pieces": [["a", True]]},
    {"kind": "unigram", "pieces": [["a", -1.0, 0]]},
    {"kind": "unigram", "pieces": [["a", -10 ** 400]]},
    {"kind": "bpe", "merges": []},
    {"kind": "unigram", "pieces": []},
])
def test_load_rejects_mistyped_definition(tmp_path, spec):
    path = _definition(tmp_path, "bad", spec)
    with pytest.raises(TokenizerDefinitionError) as err:
        load_tokenizer("x", path)
    assert str(path) in str(err.value)


def test_load_rejects_definition_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "word_level", "note": "\u00e9"}'.encode(
        "latin-1"))
    with pytest.raises(TokenizerDefinitionError):
        load_tokenizer("x", path)


def test_load_accepts_integer_logprobs(tmp_path):
    spec = {"kind": "unigram", "pieces": [["▁he", -1], ["llo", -2]]}
    tok = load_tokenizer("uni", _definition(tmp_path, "ints", spec))
    assert tok.engine.tokenize("hello") == ["▁he", "llo"]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        load_tokenizer("x", tmp_path / "missing.json")


# -- sampling -----------------------------------------------------------------------

def test_sample_is_deterministic_and_distinct():
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=500)
    first = sample_sentences(corpus, k=100, seed=7)
    second = sample_sentences(corpus, k=100, seed=7)
    assert [s.id for s in first] == [s.id for s in second]
    assert len({s.id for s in first}) == 100


def test_sample_different_seeds_differ():
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=500)
    a = [s.id for s in sample_sentences(corpus, k=100, seed=1)]
    b = [s.id for s in sample_sentences(corpus, k=100, seed=2)]
    assert a != b


def test_sample_whole_split_is_a_shuffle():
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=50)
    sampled = sample_sentences(corpus, k=50, seed=3)
    assert sorted(s.id for s in sampled) == [s.id for s in corpus.test]
    assert [s.id for s in sampled] != [s.id for s in corpus.test]


def test_sample_too_large():
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=50)
    with pytest.raises(SampleTooLarge):
        sample_sentences(corpus, k=51, seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_sample_size_below_one_is_refused(k):
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=50)
    with pytest.raises(ValueError):
        sample_sentences(corpus, k=k, seed=0)


# -- measurement -------------------------------------------------------------------

def test_measure_word_level_fertility_is_one(word_level):
    segments = english_segments(20)
    records, failures = measure(segments, [word_level])
    assert failures == []
    assert len(records) == 20
    for rec in records:
        assert rec.fertility["words"] == 1.0
        assert rec.token_counts["words"] == rec.word_count


def test_measure_spec_example(word_level):
    seg = Segment(1, "hello world", "hallo welt", 50.0,
                  LangPair("en", "de"), Split.TEST)
    records, _ = measure([seg], [word_level])
    assert records[0].word_count == 4
    assert records[0].token_counts["words"] == 4
    assert records[0].fertility["words"] == 1.0


def test_word_count_is_tokenizer_independent(tmp_path, word_level):
    bpe = load_tokenizer("bpe", write_english_bpe_definition(
        tmp_path / "bpe.json", num_merges=50))
    records, _ = measure(english_segments(10), [word_level, bpe])
    for rec in records:
        assert set(rec.token_counts) == {"words", "bpe"}
        assert rec.word_count == rec.token_counts["words"]


class _Boom:
    kind = "word_level"

    def tokenize(self, text):
        raise RuntimeError("engine exploded")


def test_measure_isolates_tokenizer_failures(word_level, tmp_path):
    broken = TokenizerHandle("broken", tmp_path / "none.json", "word_level",
                             _Boom())
    records, failures = measure(english_segments(3), [broken, word_level])
    assert len(records) == 3
    assert len(failures) == 3
    assert all(f.tokenizer == "broken" for f in failures)
    for rec in records:
        assert "broken" not in rec.token_counts
        assert rec.fertility["words"] == 1.0


# -- summaries and exports -------------------------------------------------------------

def _record(pair, sid, words, tokens):
    return FertilityRecord(pair=pair, sentence_id=sid, word_count=words,
                           token_counts={"t": tokens},
                           fertility={"t": tokens / words})


def test_summarize_single_record():
    summary = summarize([_record("en-gu", 1, 5, 10)])[0]
    assert summary.mean_fertility == 2.0
    assert summary.median_fertility == 2.0
    assert summary.mean_words == 5.0
    assert summary.mean_tokens == 10.0


def test_summarize_mean_and_median():
    records = [_record("en-gu", 1, 4, 4), _record("en-gu", 2, 4, 12)]
    summary = summarize(records)[0]
    assert summary.mean_fertility == 2.0   # (1.0 + 3.0) / 2
    assert summary.median_fertility == 2.0
    assert summary.n_sentences == 2


def test_summarize_ordering_by_pair_then_tokenizer():
    records = [
        FertilityRecord("si-en", 1, 2, {"b": 2, "a": 4},
                        {"b": 1.0, "a": 2.0}),
        FertilityRecord("en-gu", 1, 2, {"b": 2}, {"b": 1.0}),
    ]
    summaries = summarize(records)
    assert [(s.pair, s.tokenizer) for s in summaries] == [
        ("en-gu", "b"), ("si-en", "a"), ("si-en", "b")]


def test_exports_write_files(tmp_path, word_level):
    records, _ = measure(english_segments(5), [word_level])
    summaries = summarize(records)
    write_summary_tsv(summaries, tmp_path / "summary.tsv")
    write_records_jsonl(records, tmp_path / "records.jsonl")
    write_plot_data_tsv(summaries, tmp_path / "plot.tsv")

    summary_text = (tmp_path / "summary.tsv").read_text()
    assert "whitespace-split" in summary_text  # convention is stamped
    assert "et-en\twords\t5" in summary_text
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == 5
    plot = (tmp_path / "plot.tsv").read_text().splitlines()
    assert plot[0] == "pair\tseries\tmean_count"
    assert any(line.startswith("et-en\twords\t") for line in plot)


def test_english_bpe_fertility_band(tmp_path, word_level):
    # a genuinely trained subword model on Latin-script English stays close
    # to the word count without collapsing to one token per word
    bpe = load_tokenizer("english-bpe", write_english_bpe_definition(
        tmp_path / "eng.json", num_merges=150))
    segments = english_segments(100)
    records, failures = measure(segments, [word_level, bpe])
    assert failures == []
    summaries = {s.tokenizer: s for s in summarize(records)}
    assert summaries["words"].mean_fertility == 1.0
    assert 1.0 < summaries["english-bpe"].mean_fertility <= 2.0
