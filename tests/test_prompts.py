from __future__ import annotations

import json
import logging

import pytest
from hypothesis import example, given, settings, strategies as st

from qeharness import prompts, seeding
from qeharness.corpus import LangPair, ScoreBin, SCORE_BINS, Segment, Split
from qeharness.errors import (EmptyBin, ExemplarCountMismatch, ExemplarLeakage,
                              PlaceholderUnresolved, TemplateInvalid,
                              TemplateMissing)
from qeharness.pipeline import render_prompts
from qeharness.prompts import (ICL_TEMPLATES, IclConfig, IclExemplar,
                               PromptTemplate, RenderedPrompt, TemplateId,
                               ZERO_SHOT_TEMPLATES, language_name,
                               load_templates, prompt_lines, render_icl,
                               render_zero_shot, select_icl_exemplars)

from conftest import synthetic_corpus, synthetic_segments
from oracles import (OracleEmptyBin, exemplar_block_oracle,
                     icl_selection_oracle, substitute_oracle)


PAIR = LangPair("en", "gu")


def _seg(seg_id, score, split=Split.TRAIN, source=None, translation=None):
    return Segment(seg_id, source or f"src {seg_id}",
                   translation or f"tgt {seg_id}", score, PAIR, split)


# -- template loading and invariants ---------------------------------------------

def test_default_templates_load_and_validate(templates):
    assert set(templates) == set(TemplateId)
    for template in templates.values():
        template.validate()


def test_ag_templates_carry_all_five_range_clauses(templates):
    for tid in (TemplateId.AG, TemplateId.AG_ICL3, TemplateId.AG_ICL5,
                TemplateId.AG_ICL7):
        body = templates[tid].body
        for b in SCORE_BINS:
            assert b.label in body


def test_template_with_duplicate_placeholder_rejected():
    bad = PromptTemplate(TemplateId.GEMBA,
                         "{source_lang} {source_lang} {target_lang} "
                         "{source_text} {translation_text}", "0.0.1")
    with pytest.raises(PlaceholderUnresolved):
        bad.validate()


def test_ag_template_without_clauses_rejected():
    bad = PromptTemplate(TemplateId.AG,
                         "{source_lang} {target_lang} {source_text} "
                         "{translation_text}", "0.0.1")
    with pytest.raises(TemplateInvalid):
        bad.validate()


def test_load_templates_missing_directory(tmp_path):
    with pytest.raises(TemplateMissing):
        load_templates(tmp_path / "nowhere")


def test_load_templates_missing_file(tmp_path):
    manifest = {t.value: {"file": "gone.txt", "version": "1"}
                for t in TemplateId}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TemplateMissing):
        load_templates(tmp_path)


def test_language_names():
    assert language_name("en") == "English"
    assert language_name("gu") == "Gujarati"
    assert language_name("si") == "Sinhala"
    assert language_name("de") == "German"
    assert language_name("xx") == "xx"  # unknown codes pass through


# -- zero-shot rendering ------------------------------------------------------------

def test_zero_shot_contains_segment_verbatim(templates):
    seg = _seg(1, 55.0, Split.TEST, source="Hello", translation="Namaste")
    prompt = render_zero_shot(templates[TemplateId.GEMBA], [seg])[0]
    assert prompt.text.count("Hello") == 1
    assert "Namaste" in prompt.text
    assert "English" in prompt.text
    assert "Gujarati" in prompt.text
    assert prompt.exemplars == ()
    assert prompt.pair == "en-gu"
    assert prompt.target_segment_id == 1


def test_zero_shot_ag_contains_guidelines(templates):
    seg = _seg(2, 55.0, Split.TEST)
    prompt = render_zero_shot(templates[TemplateId.AG], [seg])[0]
    for b in SCORE_BINS:
        assert b.label in prompt.text
    assert seg.source in prompt.text


def test_zero_shot_is_deterministic(templates):
    seg = _seg(3, 41.5, Split.TEST)
    first = render_zero_shot(templates[TemplateId.AG], [seg], seed=9)[0]
    second = render_zero_shot(templates[TemplateId.AG], [seg], seed=9)[0]
    assert first.text == second.text
    assert first == second


def test_zero_shot_rejects_icl_template(templates):
    with pytest.raises(ValueError):
        render_zero_shot(templates[TemplateId.AG_ICL5], [_seg(4, 10.0)])


def test_unresolved_placeholder_raises():
    # a placeholder the renderer does not know about survives substitution
    broken = PromptTemplate(TemplateId.TE,
                            "{source_lang}{target_lang}{source_text}"
                            "{translation_text} then {source_text}",
                            "0.0.1")
    with pytest.raises(PlaceholderUnresolved):
        render_zero_shot(broken, [_seg(5, 50.0, Split.TEST)])


def test_load_templates_manifest_without_an_entry(tmp_path):
    manifest = {t.value: {"file": "t.txt", "version": "1"}
                for t in TemplateId if t is not TemplateId.GEMBA}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TemplateMissing, match="no entry for gemba"):
        load_templates(tmp_path)


# -- exemplar selection ---------------------------------------------------------------

def _toy_train():
    return [
        _seg(1, 10.0),                 # B0_30 (single member)
        _seg(2, 40.0),                 # B31_50
        _seg(3, 60.0),                 # B51_70
        _seg(4, 80.0),                 # B71_90
        _seg(5, 95.0), _seg(6, 97.0), _seg(7, 99.0),  # B91_100
    ]


def test_icl5_one_exemplar_per_bin():
    chosen = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    assert len(chosen) == 5
    assert [e.bin for e in chosen] == list(SCORE_BINS)


def test_icl3_skips_middle_bins():
    chosen = select_icl_exemplars(_toy_train(), IclConfig.ICL3, seed=1)
    assert len(chosen) == 3
    assert [e.bin for e in chosen] == [ScoreBin.B0_30, ScoreBin.B71_90,
                                       ScoreBin.B91_100]


def test_icl7_adds_low_and_high_extras():
    train = _toy_train() + [_seg(8, 5.0)]  # second B0_30 member
    chosen = select_icl_exemplars(train, IclConfig.ICL7, seed=1)
    assert len(chosen) == 7
    bins = [e.bin for e in chosen]
    assert bins.count(ScoreBin.B0_30) == 2
    assert bins.count(ScoreBin.B91_100) == 2
    assert len({e.segment.id for e in chosen}) == 7  # all distinct
    assert bins == sorted(bins, key=lambda b: b.index)


def test_icl7_single_low_member_raises_without_fallback():
    # 6-segment corpus: the second distinct low exemplar cannot exist
    train = _toy_train()[:6]
    with pytest.raises(EmptyBin) as err:
        select_icl_exemplars(train, IclConfig.ICL7, seed=1, fallback=False)
    assert err.value.bin_label == "0-30"


def test_icl7_single_low_member_falls_back_with_warning(caplog):
    train = _toy_train()  # 7 segments; only B91_100 has spares
    with caplog.at_level("WARNING"):
        chosen = select_icl_exemplars(train, IclConfig.ICL7, seed=1)
    assert len(chosen) == 7
    assert len({e.segment.id for e in chosen}) == 7
    assert any("substituting" in rec.message for rec in caplog.records)


def test_icl5_empty_bin_without_fallback():
    train = [s for s in _toy_train() if s.da_mean != 60.0]
    with pytest.raises(EmptyBin) as err:
        select_icl_exemplars(train, IclConfig.ICL5, seed=1, fallback=False)
    assert err.value.bin_label == "51-70"


def test_selection_from_an_empty_train_split():
    with pytest.raises(EmptyBin):
        select_icl_exemplars([], IclConfig.ICL5, seed=1)


def test_selection_rejects_test_split():
    train = _toy_train()
    train[2] = _seg(3, 60.0, Split.TEST)
    with pytest.raises(ExemplarLeakage):
        select_icl_exemplars(train, IclConfig.ICL5, seed=1)


def test_exemplar_type_rejects_test_split():
    with pytest.raises(ExemplarLeakage):
        IclExemplar(_seg(1, 10.0, Split.TEST), ScoreBin.B0_30)


def test_selection_deterministic_and_order_insensitive():
    train = synthetic_segments("en-gu", n=300, split=Split.TRAIN, seed=4)
    first = select_icl_exemplars(train, IclConfig.ICL5, seed=11)
    second = select_icl_exemplars(list(reversed(train)), IclConfig.ICL5,
                                  seed=11)
    assert [e.segment.id for e in first] == [e.segment.id for e in second]


def test_selection_varies_with_seed():
    train = synthetic_segments("en-gu", n=300, split=Split.TRAIN, seed=4)
    picks = {tuple(e.segment.id for e in
                   select_icl_exemplars(train, IclConfig.ICL5, seed=s))
             for s in range(12)}
    assert len(picks) > 1


def test_selection_uniform_within_bin():
    # every member of a bin is picked for some seed
    train = _toy_train()
    high_picks = set()
    for seed in range(60):
        chosen = select_icl_exemplars(train, IclConfig.ICL5, seed=seed)
        high_picks.add(chosen[-1].segment.id)
    assert high_picks == {5, 6, 7}


# scores on and around every bin boundary
_GRID_SCORES = (0.0, 12.5, 30.0, 30.5, 42.0, 50.0, 50.5, 66.0, 70.0, 70.5,
                85.0, 90.0, 90.5, 97.5, 100.0)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from(_GRID_SCORES), min_size=1,
                       max_size=14),
       config=st.sampled_from(list(IclConfig)), seed=st.integers(0, 3),
       fallback=st.booleans(), reverse=st.booleans())
@example(scores=[95.0], config=IclConfig.ICL7, seed=0, fallback=True,
         reverse=False)
@example(scores=[10.0, 40.0, 60.0, 80.0, 95.0], config=IclConfig.ICL7,
         seed=1, fallback=True, reverse=False)
@example(scores=[10.0, 40.0, 80.0, 95.0], config=IclConfig.ICL5, seed=2,
         fallback=False, reverse=True)
def test_selection_matches_per_pick_reference(scores, config, seed, fallback,
                                              reverse):
    train = [_seg(3 * i + 1, score) for i, score in enumerate(scores)]
    if reverse:
        train.reverse()
    try:
        expected, substitutions = icl_selection_oracle(
            [(s.id, s.da_mean) for s in train], str(PAIR), config.value,
            seed, fallback)
    except OracleEmptyBin as exc:
        with pytest.raises(EmptyBin) as err:
            select_icl_exemplars(train, config, seed, fallback=fallback)
        assert err.value.bin_label == exc.label
        return

    records = _Records()
    logger = logging.getLogger("qeharness.prompts")
    logger.addHandler(records)
    try:
        chosen = select_icl_exemplars(train, config, seed, fallback=fallback)
    finally:
        logger.removeHandler(records)
    assert [(e.segment.id, e.bin.label) for e in chosen] == expected
    assert records.messages == [
        f"bin {target} has no unused exemplar for {PAIR}; substituting from "
        f"{actual}" for target, actual in substitutions]


def test_icl_templates_hash_each_train_segment_once(monkeypatch, templates):
    corpus = synthetic_corpus("en-gu", n_train=300, n_test=5)
    hashed = []
    real = seeding.stable_hash

    def counted(*parts):
        hashed.append(parts)
        return real(*parts)

    # seeded_order looks stable_hash up in the seeding module at call time
    monkeypatch.setattr(seeding, "stable_hash", counted)
    prompts._ranked_ids.cache_clear()
    for tid in ICL_TEMPLATES:
        render_prompts(corpus, templates[tid], seed=5)
    assert sorted(parts[-1] for parts in hashed) == \
        sorted(s.id for s in corpus.train)


# -- ICL rendering -----------------------------------------------------------------

def test_render_icl_block_follows_the_exemplars(templates):
    template = templates[TemplateId.AG_ICL5]
    target = _seg(99, 50.0, Split.TEST)
    first = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    other_train = [_seg(i + 20, s.da_mean, source=f"other {i}")
                   for i, s in enumerate(_toy_train())]
    other = select_icl_exemplars(other_train, IclConfig.ICL5, seed=1)

    text = render_icl(template, first, [target])[0].text
    other_text = render_icl(template, other, [target])[0].text
    assert render_icl(template, first, [target])[0].text == text != other_text
    assert all(e.segment.source in other_text for e in other)

    # a list changed in place renders its new member
    first[0] = IclExemplar(_seg(50, 5.0, source="swapped in"),
                           ScoreBin.B0_30)
    swapped = render_icl(template, first, [target])[0]
    assert "swapped in" in swapped.text
    assert swapped.exemplars[0].segment.id == 50


def test_render_icl_scores_ascend_and_target_last(templates):
    exemplars = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    target = _seg(99, 50.0, Split.TEST, source="TARGET SOURCE",
                  translation="TARGET TRANSLATION")
    prompt = render_icl(templates[TemplateId.AG_ICL5], exemplars, [target])[0]

    scores = [e.segment.da_mean for e in prompt.exemplars]
    assert scores == sorted(scores)
    rendered_positions = [prompt.text.index(f"Score: {s:.1f}") for s in scores]
    assert rendered_positions == sorted(rendered_positions)
    assert prompt.text.index("TARGET SOURCE") > max(rendered_positions)
    for e in exemplars:
        assert e.segment.source in prompt.text
        assert e.segment.translation in prompt.text


def test_render_icl_count_mismatch(templates):
    exemplars = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    with pytest.raises(ExemplarCountMismatch):
        render_icl(templates[TemplateId.AG_ICL3], exemplars,
                   [_seg(99, 50.0, Split.TEST)])


@pytest.mark.parametrize("segments", [[], [_seg(99, 50.0, Split.TEST)]],
                         ids=["no-segments", "one-segment"])
def test_render_icl_checks_the_count_once_per_call(templates, segments,
                                                   monkeypatch):
    exemplars = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    raised = []
    real = prompts.ExemplarCountMismatch

    def counted(*args):
        raised.append(args)
        return real(*args)

    monkeypatch.setattr(prompts, "ExemplarCountMismatch", counted)
    with pytest.raises(ExemplarCountMismatch):
        render_icl(templates[TemplateId.AG_ICL3], exemplars, segments)
    assert len(raised) == 1


def test_one_call_over_two_pairs_equals_a_call_per_pair(templates):
    gu = synthetic_segments("en-gu", n=6, split=Split.TEST)
    si = synthetic_segments("si-en", n=6, split=Split.TEST)
    mixed = [seg for two in zip(gu, si) for seg in two]
    # each pair's language beside English, and the other pair's
    names = {"en-gu": ("Gujarati", "Sinhala"), "si-en": ("Sinhala", "Gujarati")}
    exemplars = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    for tid in (*ZERO_SHOT_TEMPLATES, TemplateId.AG_ICL5):
        template = templates[tid]

        def render(segments):
            if tid in ZERO_SHOT_TEMPLATES:
                return render_zero_shot(template, segments, seed=2)
            return render_icl(template, exemplars, segments, seed=2)

        together = render(mixed)
        assert [(p.pair, p.target_segment_id) for p in together] == \
            [(str(seg.pair), seg.id) for seg in mixed]
        for p in together:
            own, other = names[p.pair]
            assert "English" in p.text and own in p.text
            assert other not in p.text
        apart = {(p.pair, p.target_segment_id): p
                 for p in render(gu) + render(si)}
        assert together == [apart[p.pair, p.target_segment_id]
                            for p in together]


def test_render_icl_rejects_zero_shot_template(templates):
    exemplars = select_icl_exemplars(_toy_train(), IclConfig.ICL5, seed=1)
    with pytest.raises(ValueError):
        render_icl(templates[TemplateId.AG], exemplars,
                   [_seg(99, 50.0, Split.TEST)])


def test_render_icl_deterministic(templates):
    exemplars = select_icl_exemplars(_toy_train(), IclConfig.ICL7, seed=3)
    target = _seg(99, 50.0, Split.TEST)
    one = render_icl(templates[TemplateId.AG_ICL7], exemplars, [target],
                     seed=3)[0]
    two = render_icl(templates[TemplateId.AG_ICL7], exemplars, [target],
                     seed=3)[0]
    assert one.text == two.text


def test_rendered_prompt_dump_fields(templates):
    seg = _seg(12, 33.5, Split.TEST)
    prompt = render_zero_shot(templates[TemplateId.TE], [seg], seed=5)[0]
    dumped = prompt.to_dict()
    assert dumped == {"pair": "en-gu", "segment_id": 12, "template": "te",
                      "seed": 5, "text": prompt.text}


def test_icl_config_for_template():
    assert IclConfig.for_template(TemplateId.AG_ICL3) is IclConfig.ICL3
    assert IclConfig.for_template(TemplateId.AG_ICL7) is IclConfig.ICL7


# -- spliced rendering and prompt lines ---------------------------------------------

# text pieces that include placeholder names, whole and in part, and braces
_TEXT_PIECES = st.one_of(
    st.sampled_from(["{source_text}", "{translation_text}", "{source_lang}",
                     "{target_lang}", "{examples}", "{", "}", "{source_",
                     "text}", "lang}", '"', "\\", "\n", "\u0a97", " "]),
    st.text(max_size=4))
_SEGMENT_TEXT = st.lists(_TEXT_PIECES, min_size=1, max_size=6).map(
    "".join).filter(str.strip)

# a body with the translation before the source, and one with braces of its
# own, beside the shipped templates
_ZERO_SHOT_BODIES = [load_templates()[t].body for t in ZERO_SHOT_TEMPLATES] + [
    'T: "{translation_text}" S: "{source_text}" {source_lang}>{target_lang}',
    '{"format": 1} {source_lang} {target_lang}: {source_text} | '
    '{translation_text}']
_ICL_BODIES = [load_templates()[TemplateId.AG_ICL5].body,
               "{source_lang}-{target_lang}\n{examples}\n"
               "T: {translation_text} S: {source_text}"]
# one train segment per bin, in prompt order
_EXEMPLAR_SCORES = (10.0, 40.0, 60.0, 80.0, 95.0)


def _oracle_outcome(render):
    try:
        return render()
    except PlaceholderUnresolved as exc:
        return ("PlaceholderUnresolved", str(exc))


@settings(max_examples=200, deadline=None)
@given(icl=st.booleans(), body_at=st.integers(0, len(_ZERO_SHOT_BODIES) - 1),
       source=_SEGMENT_TEXT, translation=_SEGMENT_TEXT,
       exemplar_texts=st.lists(st.tuples(_SEGMENT_TEXT, _SEGMENT_TEXT),
                               min_size=5, max_size=5))
def test_spliced_render_matches_replace_oracle(icl, body_at, source,
                                               translation, exemplar_texts):
    target = Segment(1, source, translation, 50.0, PAIR, Split.TEST)
    names = (language_name("en"), language_name("gu"))
    if icl:
        body = _ICL_BODIES[body_at % len(_ICL_BODIES)]
        exemplars = [IclExemplar(_seg(i + 10, score, source=src,
                                      translation=tgt), b)
                     for i, ((src, tgt), score, b) in enumerate(
                         zip(exemplar_texts, _EXEMPLAR_SCORES, SCORE_BINS))]
        block = exemplar_block_oracle(
            (src, tgt, score)
            for (src, tgt), score in zip(exemplar_texts, _EXEMPLAR_SCORES))
        template = PromptTemplate(TemplateId.AG_ICL5, body, "0")
        expected = substitute_oracle(body, *names, source, translation, block)
        got = _oracle_outcome(
            lambda: render_icl(template, exemplars, [target])[0].text)
    else:
        body = _ZERO_SHOT_BODIES[body_at % len(_ZERO_SHOT_BODIES)]
        template = PromptTemplate(TemplateId.TE, body, "0")
        expected = substitute_oracle(body, *names, source, translation)
        got = _oracle_outcome(
            lambda: render_zero_shot(template, [target])[0].text)
    if isinstance(expected, tuple):
        expected = (expected[0],
                    f"placeholder {{{expected[1]}}} survived substitution")
    assert got == expected


# code points JSON escapes: quotes, backslashes, control characters, lone
# surrogates and non-BMP characters, beside any other
_JSON_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                     "\U0001f600", "{", "}"]),
    st.integers(0xD800, 0xDFFF).map(chr))
_JSON_TEXT = st.text(alphabet=_JSON_CHARS, max_size=40)


@settings(max_examples=150, deadline=None)
@given(heads=st.lists(_JSON_TEXT, min_size=1, max_size=3),
       tails=st.lists(st.tuples(st.integers(0, 2), _JSON_TEXT), max_size=8),
       pair=_JSON_TEXT, seed=st.integers(-2**70, 2**70),
       segment_id=st.integers(0, 2**40),
       template=st.sampled_from(ZERO_SHOT_TEMPLATES))
def test_prompt_lines_equal_sorted_key_json(heads, tails, pair, seed,
                                            segment_id, template):
    # runs of prompts that share a head object, as a combo's do, and
    # prompts whose head is empty
    heads.append("")
    prompts = [RenderedPrompt(template, heads[at % len(heads)] + tail, (),
                              segment_id + i, pair, seed,
                              head=heads[at % len(heads)])
               for i, (at, tail) in enumerate(sorted(tails))]
    assert list(prompt_lines(prompts)) == [
        json.dumps(p.to_dict(), sort_keys=True) + "\n" for p in prompts]


def test_rendered_prompts_share_their_combo_head(templates):
    corpus = synthetic_corpus("en-gu", n_train=60, n_test=5)
    for tid in (TemplateId.AG, TemplateId.AG_ICL3):
        prompts = render_prompts(corpus, templates[tid], seed=1)
        head = prompts[0].head
        assert head.endswith('Source text: "')
        assert all(p.head is head and p.text.startswith(head)
                   for p in prompts)
