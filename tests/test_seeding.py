"""stable_hash keys every seeded choice, so its bytes are pinned: the
payload is each part's str, UTF-8 encoded, joined by NUL bytes. A Prefix
and seeded_order hash the same payloads, and every seeded ranking keeps the
order that hashing each item's whole payload gives."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from qeharness import prompts
from qeharness.corpus import Corpus, LangPair, Segment, Split
from qeharness.fertility import sample_sentences
from qeharness.prompts import TemplateId
from qeharness.seeding import Prefix, seeded_order, stable_hash
from qeharness.sft_export import (SftConfig, SftMode, build_records, export,
                                  sft_lines)

from conftest import synthetic_corpus, synthetic_segments


def _per_part(*parts: object) -> int:
    """stable_hash as first written: each part encoded on its own."""
    payload = b"\x00".join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


_TEXT = st.text(alphabet=st.sampled_from("a\x00é€ग👍\t "), max_size=12) | st.text()
_PART = _TEXT | st.integers() | st.tuples(_TEXT, st.integers())


@given(st.lists(_PART, max_size=6))
def test_stable_hash_matches_the_per_part_encoding(parts):
    assert stable_hash(*parts) == _per_part(*parts)


def _per_part_order(items, seed, *context, key=lambda item: item):
    """seeded_order as first written: each item's whole payload hashed."""
    return sorted(items, key=lambda it: _per_part(seed, *context, key(it)))


@given(st.lists(_PART, max_size=4), st.lists(_PART, max_size=4))
def test_a_prefix_stands_for_its_parts(head, tail):
    assert stable_hash(Prefix(*head), *tail) == _per_part(*head, *tail)


@given(st.lists(_PART, max_size=12), _PART, st.lists(_TEXT, max_size=3))
def test_seeded_order_ranks_by_the_per_part_payload(keys, seed, context):
    # every key twice: items of equal keys keep their input order
    items = list(enumerate(keys + keys))
    assert seeded_order(items, seed, *context, key=lambda it: it[1]) == \
        _per_part_order(items, seed, *context, key=lambda it: it[1])
    assert seeded_order(keys, seed, *context) == \
        _per_part_order(keys, seed, *context)


@pytest.mark.parametrize("parts", [("\ud800",), (3, "en-gu", "a\udfffb"),
                                   (3, "a\udfffb", "en-gu")])
def test_lone_surrogate_is_refused_by_both_encodings(parts):
    """Also through a Prefix and seeded_order: the surrogate is in the item
    in the first two cases and in a prefix part in the last."""
    *head, item = parts
    with pytest.raises(UnicodeEncodeError):
        stable_hash(*parts)
    with pytest.raises(UnicodeEncodeError):
        _per_part(*parts)
    with pytest.raises(UnicodeEncodeError):
        stable_hash(Prefix(*head), item)
    with pytest.raises(UnicodeEncodeError):
        seeded_order(["fine", item], 0, *head)


# -- the rankings built on seeded_order keep their old order ----------------------

def _export_corpora() -> list[Corpus]:
    """Four train splits. si-en segments 1-4 are in two of them, so their
    keys tie in the pooled file. ne-en's split also holds si-en segments,
    and en-hi's holds en-gu segments whose LangPairs are equal but each its
    own object: every record still ranks and reads by its own pair."""
    mixed = (synthetic_segments("ne-en", 6, Split.TRAIN, seed=5)
             + synthetic_segments("si-en", 4, Split.TRAIN, seed=9))
    fresh = [Segment(seg.id + 100, seg.source, seg.translation, seg.da_mean,
                     LangPair.parse(str(seg.pair)), seg.split)
             for seg in synthetic_segments("en-gu", 5, Split.TRAIN, seed=2)]
    return [synthetic_corpus("en-gu", n_train=9, n_test=5, seed=3),
            Corpus(LangPair.parse("ne-en"), tuple(mixed),
                   tuple(synthetic_segments("ne-en", 5, Split.TEST))),
            synthetic_corpus("si-en", n_train=7, n_test=5, seed=4),
            Corpus(LangPair.parse("en-hi"), tuple(fresh),
                   tuple(synthetic_segments("en-hi", 5, Split.TEST)))]


@pytest.mark.parametrize("mode", list(SftMode))
@pytest.mark.parametrize("seed", [0, 11])
def test_sft_exports_keep_the_per_part_order(tmp_path, templates, mode,
                                             seed):
    template = templates[TemplateId.AG]
    corpora = _export_corpora()
    export(corpora, SftConfig(mode, shuffle_seed=seed), tmp_path, template)

    def lines(group):
        records = [r for c in group for r in build_records(c, template)]
        return "".join(sft_lines(_per_part_order(
            records, seed, "sft-shuffle",
            key=lambda r: (r.meta["pair"], r.meta["segment_id"]))))

    if mode is SftMode.UMT:
        expected = {"sft_umt.jsonl": lines(corpora)}
    else:
        expected = {f"sft_ilt_{c.pair}.jsonl": lines([c]) for c in corpora}
    assert sorted(p.name for p in tmp_path.glob("sft_*.jsonl")) == \
        sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text


@pytest.mark.parametrize("seed", [0, 7])
def test_sample_sentences_keeps_the_per_part_order(seed):
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=300)
    assert sample_sentences(corpus, k=40, seed=seed) == _per_part_order(
        corpus.test, seed, str(corpus.pair), "fertility-sample",
        key=lambda s: s.id)[:40]


def test_icl_bin_ranks_keep_the_per_part_order():
    ids = tuple(range(3, 400, 7))
    prompts._ranked_ids.cache_clear()
    assert prompts._ranked_ids(5, "en-gu", "31-50", ids) == tuple(
        _per_part_order(ids, 5, "en-gu", "31-50"))
