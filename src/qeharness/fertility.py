"""Tokenizer fertility analysis: subword token counts vs whitespace words.

Word counts split the concatenated source and translation on Unicode
whitespace with no punctuation stripping, the only language-neutral choice;
that convention is stamped into every export. Tokenizers are consumed as
local serialized definition files through a small embedded engine (word
level, greedy BPE merges, or unigram Viterbi), so measurement never touches
the network and is deterministic per definition. BOS/EOS and other special
tokens never enter the counts.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import Corpus, Field, Segment, json_fields, write_lines
from .errors import FileUnreadable, SampleTooLarge, TokenizerDefinitionError
from .seeding import seeded_order

__all__ = [
    "WORD_COUNT_CONVENTION", "KIND_WORD_LEVEL", "KIND_BPE", "KIND_UNIGRAM",
    "TokenizerHandle", "load_tokenizer", "FertilityRecord", "MeasureFailure",
    "FertilitySummary", "sample_sentences", "measure", "summarize",
    "write_summary_tsv", "write_records_jsonl", "write_plot_data_tsv",
    "word_count",
]

WORD_COUNT_CONVENTION = "whitespace-split source+translation, no punctuation stripping"

KIND_WORD_LEVEL = "word_level"
KIND_BPE = "bpe"
KIND_UNIGRAM = "unigram"

_WORD_BOUNDARY_MARK = "▁"  # prefix marking word starts in unigram pieces


def word_count(source: str, translation: str) -> int:
    """Maximal non-whitespace runs in the joined text."""
    return len(f"{source} {translation}".split())


class _WordLevel:
    def tokenize(self, text: str) -> list[str]:
        return text.split()


class _PerWord:
    """An engine that tokenizes each whitespace word of a text on its own."""

    def tokenize(self, text: str) -> list[str]:
        return [token for word in text.split() for token in self._word(word)]


class _Bpe(_PerWord):
    """Greedy byte-pair merging over whitespace words.

    Each word starts as its character sequence; the lowest-ranked applicable
    merge is applied repeatedly until none remains.
    """

    def __init__(self, merges: list[tuple[str, str]]):
        if not merges:
            raise ValueError("bpe definition has no merges")
        self._rank = {tuple(m): i for i, m in enumerate(merges)}

    def _word(self, word: str) -> list[str]:
        symbols = list(word)
        while len(symbols) > 1:
            best = None
            best_rank = None
            for i in range(len(symbols) - 1):
                rank = self._rank.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best, best_rank = i, rank
            if best is None:
                break
            symbols[best:best + 2] = [symbols[best] + symbols[best + 1]]
        return symbols


class _Unigram(_PerWord):
    """Viterbi segmentation under a unigram piece model.

    Words are prefixed with the conventional word-boundary mark before
    lookup; characters no piece covers fall back to single-character tokens
    at a fixed penalty below the worst piece score.
    """

    def __init__(self, pieces: dict[str, float]):
        if not pieces:
            raise ValueError("unigram definition has no pieces")
        self._pieces = pieces
        self._max_len = max(len(p) for p in pieces)
        self._unk_logprob = min(pieces.values()) - 10.0

    def _word(self, word: str) -> list[str]:
        text = _WORD_BOUNDARY_MARK + word
        n = len(text)
        best = [-math.inf] * (n + 1)
        back = [0] * (n + 1)
        best[0] = 0.0
        for end in range(1, n + 1):
            for start in range(max(0, end - self._max_len), end):
                piece = text[start:end]
                logprob = self._pieces.get(piece)
                if logprob is None:
                    if end - start > 1:
                        continue
                    logprob = self._unk_logprob
                score = best[start] + logprob
                if score > best[end]:
                    best[end] = score
                    back[end] = start
        tokens = []
        pos = n
        while pos > 0:
            tokens.append(text[back[pos]:pos])
            pos = back[pos]
        tokens.reverse()
        return tokens


@dataclass(frozen=True)
class TokenizerHandle:
    """A loaded, validated tokenizer ready for concurrent measurement."""

    name: str
    definition_path: Path
    kind: str
    engine: object

    def token_count(self, text: str) -> int:
        return len(self.engine.tokenize(text))


# a definition file's fields, and the parts of one of its merges or pieces
_DEFINITION_FIELDS = {"kind": Field((str,)),
                      "merges": Field((list,), items=list, optional=True),
                      "pieces": Field((list,), items=list, optional=True)}
_MERGE = {"left": Field((str,)), "right": Field((str,))}
_PIECE = {"piece": Field((str,)), "logprob": Field((int, float))}


def _parts(entry: list, declared: dict) -> tuple:
    """A merge or piece list as the tuple of its declared parts; a list of
    another length, or a mistyped part, raises ValueError naming it."""
    if len(entry) != len(declared):
        raise ValueError(f"{entry!r} is not a list of {', '.join(declared)}")
    return tuple(json_fields(dict(zip(declared, entry)), declared).values())


def load_tokenizer(name: str, definition_path: str | Path) -> TokenizerHandle:
    """Load a serialized definition.

    Definition files are JSON with a "kind" field and, depending on kind,
    "merges" (pairs, rank order) or "pieces" ([piece, logprob] entries).
    A "special_tokens" list, if present, is ignored: specials never count.
    An unreadable file raises FileUnreadable; one that is not JSON, whose
    fields are missing or mistyped, whose kind is unknown or whose merges
    or pieces are empty, TokenizerDefinitionError naming the file.
    """
    definition_path = Path(definition_path)
    try:
        data = definition_path.read_bytes()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {definition_path}: {exc}") from exc
    # bad UTF-8, JSON or field, a logprob beyond a float's range, an
    # unknown kind, or a bpe or unigram engine with no merges or pieces
    try:
        spec = json_fields(json.loads(data.decode("utf-8")),
                           _DEFINITION_FIELDS)
        merges = [_parts(m, _MERGE) for m in spec.get("merges", [])]
        pieces = {p: float(lp) for p, lp in
                  (_parts(e, _PIECE) for e in spec.get("pieces", []))}
        kind = spec["kind"]
        if kind == KIND_WORD_LEVEL:
            engine = _WordLevel()
        elif kind == KIND_BPE:
            engine = _Bpe(merges)
        elif kind == KIND_UNIGRAM:
            engine = _Unigram(pieces)
        else:
            raise ValueError(f"unknown tokenizer kind {kind!r}")
    except (ValueError, OverflowError) as exc:
        raise TokenizerDefinitionError(f"{definition_path}: {exc}") from exc
    return TokenizerHandle(name=name, definition_path=definition_path,
                           kind=kind, engine=engine)


@dataclass(frozen=True)
class FertilityRecord:
    pair: str
    sentence_id: int
    word_count: int
    token_counts: dict  # tokenizer name -> int
    fertility: dict     # tokenizer name -> tokens / words

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MeasureFailure:
    tokenizer: str
    segment_id: int
    error: str


def sample_sentences(corpus: Corpus, k: int = 100, seed: int = 0) -> list[Segment]:
    """Seeded uniform sample without replacement from the test split."""
    test = corpus.test
    if k < 1:
        raise ValueError(f"sample size {k} is below 1")
    if k > len(test):
        raise SampleTooLarge(f"asked for {k} of {len(test)} test segments")
    return seeded_order(test, seed, str(corpus.pair), "fertility-sample",
                        key=lambda s: s.id)[:k]


def measure(segments: list[Segment], tokenizers: list[TokenizerHandle],
            ) -> tuple[list[FertilityRecord], list[MeasureFailure]]:
    """One record per segment over the joined source+translation text.

    A tokenizer crash costs only its own cell: the failure is recorded and
    the remaining tokenizers still contribute.
    """
    records = []
    failures = []
    for seg in segments:
        text = f"{seg.source} {seg.translation}"
        words = word_count(seg.source, seg.translation)
        counts: dict[str, int] = {}
        ratios: dict[str, float] = {}
        for tok in tokenizers:
            try:
                n_tokens = tok.token_count(text)
            except Exception as exc:  # per-cell isolation
                failures.append(MeasureFailure(tok.name, seg.id, str(exc)))
                continue
            counts[tok.name] = n_tokens
            ratios[tok.name] = n_tokens / words
        records.append(FertilityRecord(pair=str(seg.pair), sentence_id=seg.id,
                                       word_count=words, token_counts=counts,
                                       fertility=ratios))
    return records, failures


@dataclass(frozen=True)
class FertilitySummary:
    pair: str
    tokenizer: str
    n_sentences: int
    mean_words: float
    mean_tokens: float
    mean_fertility: float
    median_fertility: float


def summarize(records: list[FertilityRecord]) -> list[FertilitySummary]:
    """Per (pair, tokenizer) means and medians, ordered by pair then name."""
    groups: dict[tuple[str, str], list[FertilityRecord]] = {}
    for rec in records:
        for name in rec.token_counts:
            groups.setdefault((rec.pair, name), []).append(rec)

    summaries = []
    for (pair, name) in sorted(groups):
        rows = groups[(pair, name)]
        fertilities = [r.fertility[name] for r in rows]
        summaries.append(FertilitySummary(
            pair=pair, tokenizer=name, n_sentences=len(rows),
            mean_words=sum(r.word_count for r in rows) / len(rows),
            mean_tokens=sum(r.token_counts[name] for r in rows) / len(rows),
            mean_fertility=sum(fertilities) / len(fertilities),
            median_fertility=statistics.median(fertilities),
        ))
    return summaries


def write_summary_tsv(summaries: list[FertilitySummary], path: str | Path) -> None:
    lines = ["# word counting: " + WORD_COUNT_CONVENTION,
             "pair\ttokenizer\tn\tmean_words\tmean_tokens\tmean_fertility\tmedian_fertility"]
    for s in summaries:
        lines.append(f"{s.pair}\t{s.tokenizer}\t{s.n_sentences}"
                     f"\t{s.mean_words:.3f}\t{s.mean_tokens:.3f}"
                     f"\t{s.mean_fertility:.4f}\t{s.median_fertility:.4f}")
    write_lines(path, (line + "\n" for line in lines))


def write_records_jsonl(records: list[FertilityRecord], path: str | Path) -> None:
    write_lines(path, (json.dumps(rec.to_dict(), sort_keys=True) + "\n"
                       for rec in records))


def write_plot_data_tsv(summaries: list[FertilitySummary], path: str | Path) -> None:
    """Per-pair series of mean counts: the word baseline plus one bar per
    tokenizer, matching a model-name x token-count bar layout."""
    lines = ["pair\tseries\tmean_count"]
    seen_pairs = []
    for s in summaries:
        if s.pair not in seen_pairs:
            seen_pairs.append(s.pair)
            lines.append(f"{s.pair}\twords\t{s.mean_words:.3f}")
        lines.append(f"{s.pair}\t{s.tokenizer}\t{s.mean_tokens:.3f}")
    write_lines(path, (line + "\n" for line in lines))
