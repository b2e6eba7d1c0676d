from __future__ import annotations

import json
import shutil
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qeharness
from qeharness import prompts
from qeharness.corpus import Corpus, LangPair, Segment, load_corpora
from qeharness.errors import (EmptyTrainSplit, ManifestError,
                              PlaceholderUnresolved)
from qeharness.extraction import extract_score
from qeharness.prompts import TemplateId, load_templates
from qeharness.sft_export import (HYPERPARAMETER_MEMO, SftConfig, SftMode,
                                  build_records, export)
from qeharness.seeding import seeded_order

from conftest import synthetic_corpus, synthetic_segments, write_corpus_manifest
from qeharness.corpus import Split
from test_prompts import _JSON_TEXT


@pytest.fixture
def ag_template(templates):
    return templates[TemplateId.AG]


@pytest.fixture(scope="module")
def braced_ag(tmp_path_factory):
    """The AG template of a template dir whose AG body holds a "{" beside
    its placeholders, so the body splits into no pieces."""
    directory = tmp_path_factory.mktemp("templates")
    shutil.copytree(Path(qeharness.__file__).parent / "templates", directory,
                    dirs_exist_ok=True)
    body = directory / "ag.txt"
    body.write_text(body.read_text(encoding="utf-8")
                    + 'Reply as {"score": n}.\n', encoding="utf-8")
    return load_templates(directory)[TemplateId.AG]


def _corpora(sizes: dict[str, int], seed=3):
    return [synthetic_corpus(pair, n_train=n, n_test=5, seed=seed)
            for pair, n in sizes.items()]


# -- record construction -----------------------------------------------------------

def test_records_carry_prompt_and_gold(ag_template):
    corpus = synthetic_corpus("en-gu", n_train=20, n_test=5)
    records = build_records(corpus, ag_template)
    assert len(records) == 20
    for rec, seg in zip(records, corpus.train):
        assert seg.source in rec.instruction
        assert seg.translation in rec.instruction
        assert rec.output == f"Score: {seg.da_mean:.1f}"
        assert rec.meta["pair"] == "en-gu"
        assert rec.meta["segment_id"] == seg.id
        assert rec.meta["template_version"] == ag_template.version


def test_records_round_trip_through_extraction(ag_template):
    corpus = synthetic_corpus("si-en", n_train=50, n_test=5)
    for rec, seg in zip(build_records(corpus, ag_template), corpus.train):
        outcome = extract_score(rec.output)
        assert outcome.score == seg.da_mean


def test_records_require_guideline_template(templates):
    corpus = synthetic_corpus("en-gu", n_train=5, n_test=5)
    with pytest.raises(ValueError):
        build_records(corpus, templates[TemplateId.GEMBA])


def test_records_reject_empty_train(ag_template):
    empty = Corpus(LangPair.parse("en-gu"), train=(),
                   test=tuple(synthetic_segments("en-gu", 3)))
    with pytest.raises(EmptyTrainSplit):
        build_records(empty, ag_template)


# -- export -------------------------------------------------------------------------

def test_umt_pools_all_pairs(tmp_path, ag_template):
    corpora = _corpora({"en-gu": 30, "en-hi": 20, "si-en": 10})
    manifest = export(corpora, SftConfig(SftMode.UMT, shuffle_seed=1),
                      tmp_path, ag_template)
    assert manifest["counts"] == {"en-gu": 30, "en-hi": 20, "si-en": 10}
    assert manifest["total_records"] == 60
    assert manifest["hyperparameter_memo"] == HYPERPARAMETER_MEMO
    lines = (tmp_path / "sft_umt.jsonl").read_text().splitlines()
    assert len(lines) == 60
    saved = json.loads((tmp_path / "sft_manifest.json").read_text())
    assert saved == manifest


def test_ilt_writes_one_file_per_pair(tmp_path, ag_template):
    corpora = _corpora({"en-gu": 12, "si-en": 8})
    manifest = export(corpora, SftConfig(SftMode.ILT, shuffle_seed=1),
                      tmp_path, ag_template)
    assert set(manifest["files"]) == {"en-gu", "si-en"}
    for pair, count in (("en-gu", 12), ("si-en", 8)):
        lines = (tmp_path / f"sft_ilt_{pair}.jsonl").read_text().splitlines()
        assert len(lines) == count
        assert all(json.loads(x)["meta"]["pair"] == pair for x in lines)


def test_ilt_single_pair_restriction(tmp_path, ag_template):
    corpora_path = write_corpus_manifest(tmp_path / "data",
                                         _corpora({"en-gu": 12, "si-en": 8}))
    manifest = export(load_corpora(corpora_path, pairs=["si-en"]),
                      SftConfig(SftMode.ILT), tmp_path / "out", ag_template)
    assert manifest["counts"] == {"si-en": 8}
    assert not (tmp_path / "out" / "sft_ilt_en-gu.jsonl").exists()


def test_ilt_unknown_pair(tmp_path):
    # an unknown pair is refused by the corpus manifest, not read as a pair
    # with no train segments
    corpora_path = write_corpus_manifest(tmp_path / "data",
                                         _corpora({"en-gu": 5}))
    with pytest.raises(ManifestError, match="xx-yy"):
        load_corpora(corpora_path, pairs=["xx-yy"])


def test_umt_zero_corpora(tmp_path, ag_template):
    with pytest.raises(EmptyTrainSplit):
        export([], SftConfig(SftMode.UMT), tmp_path, ag_template)


def test_umt_equals_disjoint_union_of_ilt(tmp_path, ag_template):
    corpora = _corpora({"en-gu": 25, "en-hi": 15, "ne-en": 10})
    export(corpora, SftConfig(SftMode.UMT, shuffle_seed=5),
           tmp_path / "umt", ag_template)
    export(corpora, SftConfig(SftMode.ILT, shuffle_seed=11),
           tmp_path / "ilt", ag_template)

    def multiset(paths):
        items = Counter()
        for path in paths:
            for line in path.read_text().splitlines():
                items[line and json.dumps(json.loads(line), sort_keys=True)] += 1
        return items

    umt = multiset([tmp_path / "umt" / "sft_umt.jsonl"])
    ilt = multiset(sorted((tmp_path / "ilt").glob("sft_ilt_*.jsonl")))
    assert umt == ilt


def test_export_is_byte_deterministic(tmp_path, ag_template):
    corpora = _corpora({"en-gu": 30, "si-en": 10})
    export(corpora, SftConfig(SftMode.UMT, shuffle_seed=2),
           tmp_path / "a", ag_template)
    export(corpora, SftConfig(SftMode.UMT, shuffle_seed=2),
           tmp_path / "b", ag_template)
    assert ((tmp_path / "a" / "sft_umt.jsonl").read_bytes()
            == (tmp_path / "b" / "sft_umt.jsonl").read_bytes())


def test_export_shuffle_depends_on_seed(tmp_path, ag_template):
    corpora = _corpora({"en-gu": 40})
    export(corpora, SftConfig(SftMode.UMT, shuffle_seed=1),
           tmp_path / "a", ag_template)
    export(corpora, SftConfig(SftMode.UMT, shuffle_seed=2),
           tmp_path / "b", ag_template)
    a = (tmp_path / "a" / "sft_umt.jsonl").read_text().splitlines()
    b = (tmp_path / "b" / "sft_umt.jsonl").read_text().splitlines()
    assert sorted(a) == sorted(b)
    assert a != b


def test_no_temp_files_left_behind(tmp_path, ag_template):
    export(_corpora({"en-gu": 5}), SftConfig(SftMode.UMT), tmp_path,
           ag_template)
    assert not list(tmp_path.glob("*.tmp"))


# -- streamed export ----------------------------------------------------------------

def _oracle_lines(corpora, template, seed) -> str:
    """The export's bytes as the in-memory export made them: every record
    built, the pool put in seeded order, each dumped with sorted keys."""
    records = [r for c in corpora for r in build_records(c, template)]
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                   for r in seeded_order(records, seed, "sft-shuffle",
                                         key=lambda r: (r.meta["pair"],
                                                        r.meta["segment_id"])))


@pytest.mark.parametrize("mode", list(SftMode))
def test_streamed_export_matches_in_memory_oracle(tmp_path, ag_template,
                                                  mode):
    corpora = _corpora({"en-gu": 7, "en-hi": 8, "ne-en": 9, "si-en": 29})
    export(corpora, SftConfig(mode, shuffle_seed=4), tmp_path, ag_template)
    if mode is SftMode.UMT:
        expected = {"sft_umt.jsonl": _oracle_lines(corpora, ag_template, 4)}
    else:
        expected = {f"sft_ilt_{c.pair}.jsonl": _oracle_lines([c], ag_template, 4)
                    for c in corpora}
    for name, text in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text


@pytest.mark.parametrize("mode", list(SftMode))
def test_raising_export_replaces_no_file(tmp_path, ag_template, mode):
    # an older export of both pairs, then one whose last si-en source holds
    # a placeholder name: render raises once en-gu's records are written
    corpora = _corpora({"en-gu": 10, "si-en": 10})
    for m in SftMode:
        export(corpora, SftConfig(m, shuffle_seed=1), tmp_path, ag_template)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    si_en = corpora[1]
    bad = replace(si_en.train[-1],
                  source=si_en.train[-1].source + " {translation_text}")
    corpora[1] = replace(si_en, train=si_en.train[:-1] + (bad,))
    with pytest.raises(PlaceholderUnresolved):
        export(corpora, SftConfig(mode, shuffle_seed=2), tmp_path, ag_template)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not list(tmp_path.glob("*.tmp"))


def test_export_memory_is_bounded_by_its_chunk(tmp_path, ag_template):
    # an export that holds every record before writing peaks about 5 times
    # higher over 8 times the records; a streamed one about 1.1 times

    def peak(n: int) -> int:
        corpora = _corpora({"en-gu": n, "si-en": n})
        tracemalloc.start()
        try:
            export(corpora, SftConfig(SftMode.UMT), tmp_path / str(n),
                   ag_template)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * 128) < 2 * peak(128)


# -- lines written from segments ---------------------------------------------------

# xx and qqq have no LANGUAGE_NAMES entry: the body names them by code
_CODES = ("en", "gu", "si", "xx", "qqq")
# texts JSON escapes, ones holding a "{", and ones whose placeholder name
# survives substitution, so render raises
_TEXT = st.one_of(_JSON_TEXT.filter(str.strip),
                  st.just("a {translation_text}"))
# 0.0 == -0.0, but their outputs differ
_SCORE = st.one_of(st.sampled_from([0.0, -0.0, 100.0]),
                   st.floats(0.0, 100.0))
_TRAINS = st.dictionaries(
    st.tuples(st.sampled_from(_CODES), st.sampled_from(_CODES)).map("-".join),
    st.lists(st.tuples(_TEXT, _TEXT, _SCORE), min_size=1, max_size=6),
    min_size=1, max_size=3)


def _train_corpora(trains) -> list[Corpus]:
    corpora = []
    for name, rows in trains.items():
        pair = LangPair.parse(name)
        corpora.append(Corpus(pair, train=tuple(
            Segment(i, source, translation, score, pair, Split.TRAIN)
            for i, (source, translation, score) in enumerate(rows)),
            test=()))
    return corpora


@pytest.mark.parametrize("mode", list(SftMode))
@settings(max_examples=60, deadline=None)
@given(trains=_TRAINS, braced=st.booleans(), seed=st.integers(0, 3))
@example(trains={"en-gu": [("a", "b", 0.0), ("c", "d", -0.0)],
                 "xx-en": [("e", "f", -0.0)]}, braced=False, seed=0)
def test_written_lines_equal_the_record_oracle(templates, braced_ag, mode,
                                               trains, braced, seed):
    template = braced_ag if braced else templates[TemplateId.AG]
    corpora = _train_corpora(trains)
    try:
        if mode is SftMode.UMT:
            expected = {"sft_umt.jsonl": _oracle_lines(corpora, template,
                                                       seed)}
        else:
            expected = {f"sft_ilt_{c.pair}.jsonl":
                        _oracle_lines([c], template, seed) for c in corpora}
    except PlaceholderUnresolved:
        expected = None
    with tempfile.TemporaryDirectory() as out:
        if expected is None:
            with pytest.raises(PlaceholderUnresolved):
                export(corpora, SftConfig(mode, seed), out, template)
            assert not list(Path(out).iterdir())
            return
        export(corpora, SftConfig(mode, seed), out, template)
        for name, text in expected.items():
            assert (Path(out) / name).read_bytes() == text.encode("ascii")


def test_only_segments_that_need_it_are_rendered(tmp_path, ag_template,
                                                 braced_ag, monkeypatch):
    rendered = []
    render = prompts._render

    def recording(template, segments, *args):
        segments = list(segments)
        rendered.extend(seg.id for seg in segments)
        return render(template, segments, *args)

    monkeypatch.setattr(prompts, "_render", recording)
    corpus = synthetic_corpus("en-gu", n_train=10, n_test=1)
    train = tuple(replace(seg, translation=seg.translation + " {x}")
                  if seg.id in (3, 7) else seg for seg in corpus.train)
    corpora = [replace(corpus, train=train)]
    for template, expected in ((ag_template, [3, 7]),
                               (braced_ag, list(range(1, 11)))):
        rendered.clear()
        export(corpora, SftConfig(SftMode.UMT), tmp_path, template)
        assert sorted(rendered) == expected
        assert ((tmp_path / "sft_umt.jsonl").read_text(encoding="utf-8")
                == _oracle_lines(corpora, template, 0))
