"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Headline correlation numbers from the original study are not
reproduction targets (they need the original checkpoints and GPUs); the
protocol, formats, and statistical machinery are.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

from qeharness.corpus import Corpus, LangPair, ScoreBin, SCORE_BINS, Split
from qeharness.extraction import extract_batch, extract_score
from qeharness.fertility import load_tokenizer, measure, sample_sentences, summarize
from qeharness.gateway import (EchoScore, Fail, Garbage, InferenceConfig,
                               complete_batch, gold_map, MockBackend)
from qeharness.metrics import PairedSample, evaluate, kendall, spearman
from qeharness.pipeline import RunManifest, render_table, run
from qeharness.prompts import (IclConfig, TemplateId, load_templates,
                               render_zero_shot, select_icl_exemplars)
from qeharness.sft_export import SftConfig, SftMode, export

from conftest import synthetic_corpus, synthetic_segments, write_corpus_manifest
from oracles import kendall_oracle, spearman_oracle, t_two_tailed_p_quadrature
from subword import english_segments, write_english_bpe_definition
from test_extraction import GOLDEN_CASES
from test_pipeline import GOLDEN_PLAIN_TABLE, SYNTH_REPORTS

TEMPLATES = load_templates()


def _passed(name: str) -> None:
    print(f"\n[acceptance] {name}: PASS")


# -- 1. statistics oracle suite ------------------------------------------------

class _Counted(float):
    """A float that counts how often it is compared or subtracted: the
    steps by which an implementation can order two values."""

    steps = 0
    __hash__ = float.__hash__


def _counting(name):
    method = getattr(float, name)

    def counted(self, other):
        _Counted.steps += 1
        return method(self, other)
    return counted


for _name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__",
              "__sub__", "__rsub__"):
    setattr(_Counted, _name, _counting(_name))


def _kendall_steps(sample: PairedSample) -> tuple[float, int]:
    """kendall of sample, and the steps it took on the sample's values."""
    counted = object.__new__(PairedSample)
    for side in ("gold", "pred"):
        object.__setattr__(counted, side,
                           tuple(map(_Counted, getattr(sample, side))))
    _Counted.steps = 0
    return kendall(counted), _Counted.steps


def test_criterion_01_statistics_oracle_suite():
    # Kendall's cost is bounded by the steps it takes, not by wall-clock
    # time, so the bound holds on a host of any speed: at most
    # 8 n ceil(log2 n) comparisons and differences of the values. The
    # merge-sort count takes up to 4.5 of that (at n = 2); enumerating the
    # pairs takes n (n - 1) or more, past the bound from n = 50 on.
    rng = random.Random(20240917)
    with_ties = 0
    checked = 0
    worst = 0.0  # the largest steps / (n ceil(log2 n)) seen
    while checked < 1000:
        n = rng.randint(2, 200)
        if rng.random() < 0.4:   # tie-heavy draw from a coarse grid
            gold = [rng.randrange(0, 30) / 2.0 for _ in range(n)]
            pred = [rng.randrange(0, 30) / 2.0 for _ in range(n)]
        else:
            gold = [rng.uniform(0, 100) for _ in range(n)]
            pred = [rng.uniform(0, 100) for _ in range(n)]
        if len(set(gold)) < 2 or len(set(pred)) < 2:
            continue
        has_ties = len(set(gold)) < n or len(set(pred)) < n
        with_ties += has_ties
        sample = PairedSample(gold, pred)
        tau, steps = _kendall_steps(sample)
        assert tau == kendall(sample)
        assert abs(tau - kendall_oracle(gold, pred)) <= 1e-12
        assert abs(spearman(sample) - spearman_oracle(gold, pred)) <= 1e-12
        n_log_n = n * math.ceil(math.log2(n))
        assert steps <= 8 * n_log_n, f"kendall took {steps} steps for n={n}"
        worst = max(worst, steps / n_log_n)
        checked += 1
    assert with_ties >= 300, "tie injection fell below 30% of samples"
    _passed(f"statistics oracle suite (1000 samples, {with_ties} tied, "
            f"kendall steps <= {worst:.2f} n ceil(log2 n))")


# -- 2. t-distribution CDF -------------------------------------------------------

def test_criterion_02_t_cdf_vs_quadrature():
    from qeharness.metrics import student_t_two_tailed_p
    for t in (0.5, 1.0, 2.0, 5.0):
        for df in (3, 9, 29, 99):
            ours = student_t_two_tailed_p(t, df)
            oracle = t_two_tailed_p_quadrature(t, df, points=10001)
            assert abs(ours - oracle) <= 1e-8, (t, df, ours, oracle)
    _passed("t CDF matches 1e4-point quadrature at 1e-8 over 16 (t, df) points")


# -- 3. end-to-end identity ------------------------------------------------------

def _run_mock(policy, corpus, template_id=TemplateId.AG, seed=0):
    prompts = render_zero_shot(TEMPLATES[template_id], corpus.test, seed)
    backend = MockBackend(policy, gold=gold_map(corpus.test), seed=seed)
    cfg = InferenceConfig(model_name="mock", max_context_tokens=10**6,
                          retry_backoff_base=0.0)
    outputs = complete_batch(cfg, prompts, backend)
    results, ledger = extract_batch(outputs, model="mock")
    return results, ledger


def test_criterion_03_end_to_end_identity_and_garbage():
    corpus = synthetic_corpus("en-gu", n_train=10, n_test=1000, seed=5)
    gold_by_id = {s.id: s.da_mean for s in corpus.test}

    results, ledger = _run_mock(EchoScore(), corpus)
    report = evaluate(gold_by_id, results, pair="en-gu", template="ag",
                      model="mock")
    assert ledger.excluded_count == 0
    assert abs(report.pearson_r - 1.0) <= 1e-12
    assert abs(report.spearman_rho - 1.0) <= 1e-12
    assert abs(report.kendall_tau - 1.0) <= 1e-12

    results, ledger = _run_mock(Garbage(0.1), corpus, seed=11)
    # binomial n=1000, p=0.1: 99% interval is 100 +/- 2.5758 * sqrt(90)
    half_width = 2.5758 * math.sqrt(1000 * 0.1 * 0.9)
    assert 100 - half_width <= ledger.excluded_count <= 100 + half_width
    report = evaluate(gold_by_id, results, pair="en-gu", template="ag",
                      model="mock")
    assert abs(report.spearman_rho - 1.0) <= 1e-12
    _passed(f"end-to-end identity (E=0, all coefficients 1.0) and garbage(0.1) "
            f"(E={ledger.excluded_count} in 99% interval, rho still 1.0)")


# -- 4. untrustworthy flag --------------------------------------------------------

def test_criterion_04_untrustworthy_flag():
    corpus = synthetic_corpus("en-ta", n_train=10, n_test=1000, seed=6)

    def ledger_for(n_failed):
        failing = frozenset(seg.id for seg in corpus.test[:n_failed])
        _, ledger = _run_mock(Fail(segment_ids=failing), corpus)
        assert ledger.excluded_count == n_failed
        return ledger

    assert ledger_for(120).flagged_untrustworthy is True    # 12%
    assert ledger_for(90).flagged_untrustworthy is False    # 9%
    _passed("untrustworthy flag set at 12% exclusions, clear at 9%")


# -- 5. ICL selection contract ----------------------------------------------------

def test_criterion_05_icl_selection_contract():
    train = synthetic_segments("si-en", n=400, split=Split.TRAIN, seed=2)
    expected_icl7 = Counter({ScoreBin.B0_30: 2, ScoreBin.B31_50: 1,
                             ScoreBin.B51_70: 1, ScoreBin.B71_90: 1,
                             ScoreBin.B91_100: 2})
    for seed in range(500):
        for config, count in ((IclConfig.ICL3, 3), (IclConfig.ICL5, 5),
                              (IclConfig.ICL7, 7)):
            chosen = select_icl_exemplars(train, config, seed,
                                          fallback=False)
            assert len(chosen) == count
            assert all(e.segment.split is Split.TRAIN for e in chosen)
            bins = Counter(e.bin for e in chosen)
            if config is IclConfig.ICL3:
                assert bins == Counter({ScoreBin.B0_30: 1, ScoreBin.B71_90: 1,
                                        ScoreBin.B91_100: 1})
            elif config is IclConfig.ICL5:
                assert bins == Counter({b: 1 for b in SCORE_BINS})
            else:
                assert bins == expected_icl7
                assert len({e.segment.id for e in chosen}) == 7
    _passed("ICL selection contract over 500 seeds (counts, bins, no "
            "test-split leakage)")


# -- 6. extraction grammar ---------------------------------------------------------

def test_criterion_06_extraction_grammar_and_fuzz():
    assert len(GOLDEN_CASES) == 40
    for text, expected in GOLDEN_CASES:
        outcome = extract_score(text)
        if isinstance(expected, float):
            assert outcome.score == expected, text
        else:
            assert outcome.reason == expected, text

    rng = random.Random(77)
    for _ in range(100_000):
        length = rng.randrange(0, 40)
        chars = []
        for _ in range(length):
            cp = rng.randrange(0, 0x2FFF) if rng.random() < 0.7 \
                else rng.randrange(0, 0x10FFFF)
            if 0xD800 <= cp <= 0xDFFF:  # no surrogates in valid UTF-8
                cp = 0xFFFD
            chars.append(chr(cp))
        outcome = extract_score("".join(chars))
        if outcome.score is not None:
            assert 0.0 <= outcome.score <= 100.0
    _passed("extraction grammar: 40-case golden table + 1e5-string fuzz")


# -- 7. SFT export ------------------------------------------------------------------

PUBLISHED_SPLIT_SIZES = {"en-gu": 7000, "en-hi": 7000, "en-mr": 26000,
                  "en-ta": 7000, "en-te": 7000, "et-en": 7000,
                  "ne-en": 7000, "si-en": 7000}


def test_criterion_07_sft_export(tmp_path):
    corpora = [synthetic_corpus(pair, n_train=n, n_test=5, seed=8)
               for pair, n in PUBLISHED_SPLIT_SIZES.items()]
    template = TEMPLATES[TemplateId.AG]

    umt = export(corpora, SftConfig(SftMode.UMT, shuffle_seed=3),
                 tmp_path / "umt", template)
    assert umt["total_records"] == 75_000

    gold = {(str(c.pair), seg.id): seg.da_mean
            for c in corpora for seg in c.train}
    umt_lines = (tmp_path / "umt" / "sft_umt.jsonl").read_text().splitlines()
    assert len(umt_lines) == 75_000
    for line in umt_lines:
        rec = json.loads(line)
        outcome = extract_score(rec["output"])
        assert outcome.score == gold[(rec["meta"]["pair"],
                                      rec["meta"]["segment_id"])]

    export(corpora, SftConfig(SftMode.ILT, shuffle_seed=9),
           tmp_path / "ilt", template)
    ilt_lines = []
    for path in sorted((tmp_path / "ilt").glob("sft_ilt_*.jsonl")):
        ilt_lines.extend(path.read_text().splitlines())
    canon = lambda lines: Counter(json.dumps(json.loads(x), sort_keys=True)
                                  for x in lines)
    assert canon(umt_lines) == canon(ilt_lines)
    _passed("SFT export: 75000 pooled records, full extraction round-trip, "
            "pooled = disjoint union of per-pair")


# -- 8. fertility sanity ---------------------------------------------------------------

def test_criterion_08_fertility_sanity(tmp_path):
    word_level_path = tmp_path / "wl.json"
    word_level_path.write_text(json.dumps({"kind": "word_level"}))
    word_level = load_tokenizer("words", word_level_path)

    corpus = synthetic_corpus("en-hi", n_train=5, n_test=300, seed=3)
    sampled = sample_sentences(corpus, k=100, seed=4)
    records, failures = measure(sampled, [word_level])
    assert failures == []
    summary = summarize(records)[0]
    assert summary.mean_fertility == 1.0
    assert summary.median_fertility == 1.0

    bpe = load_tokenizer("english-bpe", write_english_bpe_definition(
        tmp_path / "eng.json", num_merges=150))
    english = Corpus(LangPair.parse("et-en"), train=(),
                     test=tuple(english_segments(300)))
    eng_sample = sample_sentences(english, k=100, seed=4)
    records, failures = measure(eng_sample, [bpe])
    assert failures == []
    summary = summarize(records)[0]
    assert 1.0 <= summary.mean_fertility <= 2.0
    _passed(f"fertility sanity (word-level 1.0 exactly; English subword "
            f"{summary.mean_fertility:.3f} in [1, 2])")


# -- 9. table rendering ------------------------------------------------------------------

def test_criterion_09_table_rendering_golden():
    assert render_table(SYNTH_REPORTS, metric="rho",
                        fmt="plain") == GOLDEN_PLAIN_TABLE
    _passed("table rendering matches the golden marker placement")


# -- 10. determinism -----------------------------------------------------------------------

def test_criterion_10_run_determinism(tmp_path):
    corpora = [synthetic_corpus("en-gu", 60, 40, seed=10),
               synthetic_corpus("ne-en", 60, 40, seed=11)]
    data = write_corpus_manifest(tmp_path / "data", corpora)
    base = {
        "corpora_manifest": str(data),
        "templates": ["gemba", "ag", "ag_icl5"],
        "seed": 13,
        "inference": {"model_name": "mock-model", "retry_backoff_base": 0.0},
        "mock": {"policy": "garbage", "p": 0.05},
    }
    run(RunManifest.from_dict({**base, "out_dir": str(tmp_path / "one")}))
    run(RunManifest.from_dict({**base, "out_dir": str(tmp_path / "two")}))

    compared = 0
    for sub in ("prompts", "outputs", "extractions", "reports"):
        one = sorted((tmp_path / "one" / sub).iterdir())
        two = sorted((tmp_path / "two" / sub).iterdir())
        assert [p.name for p in one] == [p.name for p in two]
        for pa, pb in zip(one, two):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
            compared += 1
    assert compared >= 18  # 2 pairs x 3 templates x 3 artifact kinds
    _passed(f"determinism: {compared} artifact files byte-identical across "
            f"two runs")
