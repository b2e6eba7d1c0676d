"""Seeded generator of QE corpora at the published split sizes.

Each pair gets its train and test TSVs in the scripts of its two languages,
plus the line-oriented corpus manifest qeharness reads. Text is made of
pseudo-words with Zipf-distributed frequencies per language, so word lengths
and byte widths resemble real text; sentence lengths are log-normal
(long-tailed). DA means sit on the 0.5 grid, skewed toward 60-90, and every
score bin is populated.

The shape parameters are calibrated, not taken from published statistics of
the QE splits: the sentence-length median was raised until a fresh mock run
of all 8 pairs x 6 templates wrote about 150-160 MB and a pooled SFT export
about 122 MB, the sizes measured on script-realistic corpora when the
benchmark was specified (159 MB and 125 MB). The length cap is far above
what any prompt needs to stay inside the client-side context window (the
longest prompts estimate about 640 of 1024 tokens zero-shot and 1,450 of
4,096 with seven exemplars), so no workload takes the context-overflow path.

The same seed always writes byte-identical files. The module imports
nothing from qeharness, so generating inputs never runs the code under test.
"""

from __future__ import annotations

import json
import math
import random
import unicodedata
from pathlib import Path

# pair -> (train size, test size, source language, target language)
PAIRS = {
    "en-gu": (7000, 1000, "en", "gu"),
    "en-hi": (7000, 1000, "en", "hi"),
    "en-mr": (26000, 699, "en", "mr"),
    "en-ta": (7000, 1000, "en", "ta"),
    "en-te": (7000, 1000, "en", "te"),
    "et-en": (7000, 1000, "et", "en"),
    "ne-en": (7000, 1000, "ne", "en"),
    "si-en": (7000, 1000, "si", "en"),
}

VOCAB_SIZE = 3000
ZIPF_EXPONENT = 1.05
# a shuffled frequency table of this many tokens is the per-language word
# stream that sentences are cut from
STREAM_SIZE = 1 << 16
# log-normal word count: median 19 words, about 0.5% of sentences at the cap
LENGTH_MU = math.log(19.0)
LENGTH_SIGMA = 0.6
MAX_WORDS = 90
MIN_WORDS = 2


def _assigned(first: int, last: int) -> list[str]:
    return [chr(c) for c in range(first, last + 1) if unicodedata.name(chr(c), "")]


def _indic(base: int) -> tuple[list[str], list[str], list[str]]:
    """Consonants, vowel signs and independent vowels of a Brahmic block
    laid out like Devanagari."""
    return (_assigned(base + 0x15, base + 0x39),
            _assigned(base + 0x3E, base + 0x4C),
            _assigned(base + 0x05, base + 0x14))


_SCRIPTS = {
    "deva": _indic(0x0900),
    "gujr": _indic(0x0A80),
    "taml": _indic(0x0B80),
    "telu": _indic(0x0C00),
    "sinh": (_assigned(0x0D9A, 0x0DC6), _assigned(0x0DCF, 0x0DDF),
             _assigned(0x0D85, 0x0D96)),
}

# language -> (script, sentence terminator)
_LANGUAGES = {
    "en": ("latn", "."),
    "et": ("latn-et", "."),
    "gu": ("gujr", "."),
    "hi": ("deva", "।"),
    "mr": ("deva", "."),
    "ne": ("deva", "।"),
    "ta": ("taml", "."),
    "te": ("telu", "."),
    "si": ("sinh", "."),
}

_LATIN_ONSETS = list("bcdfghjklmnprstvwy") + ["th", "sh", "ch", "st", "tr", "pl"]
_LATIN_VOWELS = list("aeiou") + ["ea", "ou", "ai"]
_ESTONIAN_ONSETS = list("dghjklmnprstv") + ["š", "ž"]
_ESTONIAN_VOWELS = list("aeiou") + ["õ", "ä", "ö", "ü", "aa", "ee", "ii"]


def _pick(rng: random.Random, items: list[str]) -> str:
    return items[int(rng.random() * len(items))]


def _word(rng: random.Random, script: str) -> str:
    syllables = 1 + min(int(rng.expovariate(0.7)), 4)
    if script in ("latn", "latn-et"):
        onsets, vowels = ((_LATIN_ONSETS, _LATIN_VOWELS) if script == "latn"
                          else (_ESTONIAN_ONSETS, _ESTONIAN_VOWELS))
        return "".join(_pick(rng, onsets) + _pick(rng, vowels)
                       for _ in range(syllables))
    consonants, signs, vowels = _SCRIPTS[script]
    parts = [_pick(rng, vowels)] if rng.random() < 0.2 else []
    for _ in range(syllables):
        parts.append(_pick(rng, consonants))
        if rng.random() < 0.75:
            parts.append(_pick(rng, signs))
    return "".join(parts)


class _Language:
    """A Zipf-distributed pseudo-word stream for one language.

    Each word occurs in the stream in proportion to 1/rank^s. The stream is
    shuffled once; a sentence is a window of it at a seeded offset, which
    keeps generation cheap enough to repeat in set-up. The vocabulary and
    stream do not depend on the workload seed: with a seeded vocabulary the
    few most frequent words would set the corpus size, and with it every
    size and speed the benchmark reports.
    """

    def __init__(self, lang: str):
        script, self.terminator = _LANGUAGES[lang]
        rng = random.Random(f"perfbench-vocab:{lang}")
        words: dict[str, None] = {}
        while len(words) < VOCAB_SIZE:
            words.setdefault(_word(rng, script))
        weights = [1.0 / (rank ** ZIPF_EXPONENT)
                   for rank in range(1, VOCAB_SIZE + 1)]
        scale = STREAM_SIZE / sum(weights)
        stream = []
        for word, weight in zip(words, weights):
            stream.extend([word] * max(1, round(weight * scale)))
        stream.sort(key=lambda _: rng.random())
        self.stream = stream

    def sentence(self, rng: random.Random, n_words: int) -> str:
        start = int(rng.random() * (len(self.stream) - n_words))
        return " ".join(self.stream[start:start + n_words]) + self.terminator


def _length(rng: random.Random) -> int:
    n = int(round(rng.lognormvariate(LENGTH_MU, LENGTH_SIGMA)))
    return max(MIN_WORDS, min(MAX_WORDS, n))


def _da_mean(rng: random.Random) -> float:
    """A 0-100 DA mean on the 0.5 grid, mostly 60-90 with a thin low tail."""
    if rng.random() < 0.1:
        raw = rng.uniform(0.0, 100.0)
    else:
        raw = rng.triangular(20.0, 100.0, 82.0)
    return min(100.0, max(0.0, round(raw * 2.0) / 2.0))


def _rows(rng: random.Random, source: _Language, target: _Language, n: int,
          seen: set[str]) -> list[tuple[str, str, float]]:
    rows = []
    while len(rows) < n:
        n_src = _length(rng)
        n_tgt = max(MIN_WORDS,
                    min(MAX_WORDS, int(round(n_src * rng.uniform(0.8, 1.25)))))
        translation = target.sentence(rng, n_tgt)
        if translation in seen:
            continue  # translations identify test segments on the loopback server
        seen.add(translation)
        rows.append((source.sentence(rng, n_src), translation, _da_mean(rng)))
    return rows


def _write_tsv(path: Path, rows) -> None:
    lines = ["original\ttranslation\tmean"]
    lines.extend(f"{src}\t{mt}\t{score!r}" for src, mt, score in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(out_dir: Path, seed: int) -> Path:
    """Write every pair's train/test TSVs and the corpus manifest into
    out_dir; return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    languages = {lang: _Language(lang) for lang in _LANGUAGES}
    records = []
    for pair, (n_train, n_test, src, tgt) in PAIRS.items():
        rng = random.Random(f"perfbench-corpus:{seed}:{pair}")
        seen: set[str] = set()
        for split, n in (("train", n_train), ("test", n_test)):
            rows = _rows(rng, languages[src], languages[tgt], n, seen)
            _write_tsv(out_dir / f"{pair}.{split}.tsv", rows)
        records.append(json.dumps({"pair": pair, "train": f"{pair}.train.tsv",
                                   "test": f"{pair}.test.tsv"}))
    manifest = out_dir / "corpora.jsonl"
    manifest.write_text("\n".join(records) + "\n", encoding="utf-8")
    return manifest


def read_tsv(path: Path) -> list[tuple[str, str, float]]:
    """The (source, translation, mean) rows of a generated TSV."""
    rows = []
    with path.open(encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            src, mt, score = line.rstrip("\n").split("\t")
            rows.append((src, mt, float(score)))
    return rows
