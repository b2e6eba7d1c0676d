"""DA-annotated QE corpora: loading, validation, score bins, histograms.

The canonical on-disk form is tab-separated UTF-8 with a header row. Column
names vary between dataset releases, so every load goes through a ColumnMap
(defaults: original / translation / mean). Scores are the raw 0-100 DA means;
z-normalized columns, when present, are ignored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (FileUnreadable, ManifestError, MissingColumn,
                     RowParseError, ScoreOutOfRange)

log = logging.getLogger(__name__)

__all__ = [
    "LangPair", "Split", "Segment", "Corpus", "ScoreBin", "SCORE_BINS",
    "ColumnMap", "LoadDiagnostic", "load_corpus", "bin_of", "histogram",
    "write_corpus_tsv", "CorpusEntry", "load_corpus_manifest", "load_corpora",
    "EXPECTED_SPLIT_SIZES", "split_size_warnings", "write_jsonl",
    "write_lines", "write_json", "read_jsonl", "read_records", "read_json",
    "Field", "json_fields",
]


@dataclass(frozen=True, order=True)
class LangPair:
    """A translation direction, e.g. en-gu."""

    source_lang: str
    target_lang: str

    def __post_init__(self) -> None:
        for code in (self.source_lang, self.target_lang):
            if not (2 <= len(code) <= 3 and code.isascii() and code.isalpha()
                    and code == code.lower()):
                raise ValueError(f"bad language code: {code!r}")

    def __str__(self) -> str:
        return f"{self.source_lang}-{self.target_lang}"

    @classmethod
    def parse(cls, text: str) -> "LangPair":
        src, sep, tgt = text.strip().lower().partition("-")
        if not sep:
            raise ValueError(f"expected 'src-tgt', got {text!r}")
        return cls(src, tgt)


class Split(Enum):
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True)
class Segment:
    """One QE instance: a source sentence, its machine translation, and the
    mean direct-assessment score assigned by human annotators."""

    id: int
    source: str
    translation: str
    da_mean: float
    pair: LangPair
    split: Split

    def __post_init__(self) -> None:
        if not (0.0 <= self.da_mean <= 100.0):
            raise ValueError(f"da_mean {self.da_mean} outside [0, 100]")
        if not self.source.strip() or not self.translation.strip():
            raise ValueError("source and translation must be non-empty")


@dataclass(frozen=True)
class Corpus:
    """A pair's splits. digest is the SHA-256 of the column map and the
    train and test TSV bytes they were loaded from; empty for a corpus
    built in memory."""

    pair: LangPair
    train: tuple[Segment, ...]
    test: tuple[Segment, ...]
    digest: str = ""


class ScoreBin(Enum):
    """The five DA score ranges used both for in-context example selection
    and for the guideline clauses of the range-annotated prompt."""

    B0_30 = ("0-30", 0.0, 30.0)
    B31_50 = ("31-50", 30.0, 50.0)
    B51_70 = ("51-70", 50.0, 70.0)
    B71_90 = ("71-90", 70.0, 90.0)
    B91_100 = ("91-100", 90.0, 100.0)

    def __init__(self, label: str, lo: float, hi: float):
        self.label = label
        self.lo = lo
        self.hi = hi
        self.index = -1  # position in SCORE_BINS, set below


SCORE_BINS: tuple[ScoreBin, ...] = tuple(ScoreBin)
for _position, _bin in enumerate(SCORE_BINS):
    _bin.index = _position
del _position, _bin


def bin_of(score: float) -> ScoreBin:
    """Map a score in [0, 100] to its bin.

    Boundaries are closed on the upper end -- [0,30], (30,50], (50,70],
    (70,90], (90,100] -- so 30.0 lands in the bin labeled 0-30 while 30.5
    lands in 31-50.
    """
    if not (0.0 <= score <= 100.0):
        raise ScoreOutOfRange(f"score {score} outside [0, 100]")
    for b in SCORE_BINS:
        if score <= b.hi:
            return b
    return ScoreBin.B91_100  # unreachable for valid input


def histogram(segments: list[Segment] | tuple[Segment, ...]) -> dict[ScoreBin, int]:
    """Count of segments per score bin; bins absent from the data map to 0."""
    counts = {b: 0 for b in SCORE_BINS}
    for seg in segments:
        counts[bin_of(seg.da_mean)] += 1
    return counts


# -- loading ----------------------------------------------------------------

@dataclass(frozen=True)
class ColumnMap:
    """Names of the source / translation / mean-score columns in a TSV file."""

    source: str = "original"
    translation: str = "translation"
    score: str = "mean"

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnMap":
        return cls(**{k: v for k, v in d.items()
                      if k in ("source", "translation", "score")})


@dataclass(frozen=True)
class LoadDiagnostic:
    """A row that failed to yield a Segment, with its 1-based data-row index
    (the header row is not counted)."""

    row: int
    reason: str


def load_corpus(path: str | Path, pair: LangPair, split: Split,
                column_map: ColumnMap | None = None, *,
                strict: bool = False,
                diagnostics: list[LoadDiagnostic] | None = None,
                hasher=None) -> list[Segment]:
    """Load segments from a TSV file in file order.

    Every row either yields a Segment or is reported: in lenient mode (the
    default) failures are appended to `diagnostics` and skipped; in strict
    mode the first failure raises RowParseError. Segment ids are the 1-based
    data-row indices, so they stay stable when other rows fail to parse.
    Blank lines are not data rows; a short row reads its missing fields as
    empty, and fields past the header are ignored. With `hasher` given (a
    hashlib object), the file's bytes are fed to it as they are read.
    """
    column_map = column_map or ColumnMap()
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    if hasher is not None:
        hasher.update(data)
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                       newline=""), dialect="excel-tab")
    try:
        return _segments(rows, pair, split, column_map, strict, diagnostics)
    except UnicodeDecodeError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def _segments(rows: Iterator[list[str]], pair: LangPair, split: Split,
              column_map: ColumnMap, strict: bool,
              diagnostics: list[LoadDiagnostic] | None) -> list[Segment]:
    """load_corpus's reading of csv rows, the first of them the header."""
    # of two columns with one name, the later one is read
    index = {name: i for i, name in enumerate(next(rows, []))}
    for col in (column_map.source, column_map.translation, column_map.score):
        if col not in index:
            raise MissingColumn(col)
    src_at, mt_at, score_at = (index[column_map.source],
                               index[column_map.translation],
                               index[column_map.score])
    width = max(src_at, mt_at, score_at) + 1

    segments: list[Segment] = []
    row_idx = 0
    for row in rows:
        if not row:
            continue
        row_idx += 1
        if len(row) < width:
            row += [""] * (width - len(row))
        source = row[src_at].strip()
        translation = row[mt_at].strip()
        if not source:
            reason = "EmptySource"
        elif not translation:
            reason = "EmptyTranslation"
        else:
            try:
                score = float(row[score_at].strip())
            except ValueError:
                reason = "BadNumber"
            else:
                if 0.0 <= score <= 100.0:
                    segments.append(Segment(row_idx, source, translation,
                                            score, pair, split))
                    continue
                reason = "OutOfRange"
        if strict:
            raise RowParseError(row_idx, reason)
        if diagnostics is not None:
            diagnostics.append(LoadDiagnostic(row_idx, reason))
    return segments


def write_corpus_tsv(segments: list[Segment] | tuple[Segment, ...],
                     path: str | Path,
                     column_map: ColumnMap | None = None) -> None:
    """Serialize segments back to the canonical TSV form.

    Scores are written with repr() so a reload reproduces the exact float.
    """
    column_map = column_map or ColumnMap()
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, dialect="excel-tab")
        writer.writerow([column_map.source, column_map.translation, column_map.score])
        for seg in segments:
            writer.writerow([seg.source, seg.translation, repr(seg.da_mean)])


# -- JSON I/O ----------------------------------------------------------------

# the encoder json.dumps(d, sort_keys=True) builds on every call
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> str:
    """write_lines with each of dicts as one line of sorted-key JSON."""
    encode = _LINE_ENCODER.encode
    return write_lines(path, (encode(d) + "\n" for d in dicts))


def write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """Stream lines, each ending in a newline, to path, atomically (see
    _write_atomic). Returns the SHA-256 hex digest of the bytes written."""
    lines = iter(lines)
    # 64 lines a chunk: chunks of 512 long ICL prompt lines raised a full
    # run's peak RSS by about 14 MB. Only the end of lines gives an empty one.
    return _write_atomic(path, iter(lambda: "".join(islice(lines, 64)), ""))


def write_json(path: str | Path, doc) -> str:
    """Write doc as indented sorted-key JSON, atomically. Returns the
    SHA-256 hex digest of the bytes written."""
    return _write_atomic(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def _write_atomic(path: str | Path, chunks: Iterable[str]) -> str:
    """Write the UTF-8 encoding of chunks to a temp file and move it into
    place, so the file at path is never seen half written; a write that
    raises removes the temp file and leaves path as it was. Returns the
    SHA-256 hex digest of the bytes written, taken on the way out."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:  # an interrupt too: leave no temp file behind
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield the JSON object on each non-blank line of path. An unreadable
    file raises FileUnreadable, a torn or non-object line RowParseError."""
    for _, rec in _numbered_jsonl(path):
        yield rec


def read_records(path: str | Path, from_dict: Callable[[dict], object],
                 ) -> Iterator:
    """from_dict of each object read_jsonl yields; a row from_dict rejects
    with ValueError raises RowParseError naming its line."""
    for lineno, rec in _numbered_jsonl(path):
        try:
            record = from_dict(rec)
        except ValueError as exc:
            raise RowParseError(lineno, f"bad record in {path}: {exc}") from exc
        yield record


def read_json(path: str | Path, from_dict: Callable, error: type):
    """from_dict of the JSON document at path. An unreadable file, bad
    JSON, or a document from_dict rejects with ValueError raises error (a
    HarnessError type) naming path."""
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


class Field(NamedTuple):
    """A declared field of a JSON record: the JSON types its value may have
    (None for null), matched exactly, so a bool is no int and a float must
    be finite; the bounds of a number or of a list's length (lo itself
    excluded if lo_open); the exact type of a list's items or an object's
    values; and whether the field may be absent."""

    types: tuple
    lo: float | None = None
    hi: float | None = None
    items: type | None = None
    optional: bool = False
    lo_open: bool = False

    def admits(self, value) -> bool:
        kind = None if value is None else type(value)
        if kind not in self.types or kind is float and not math.isfinite(value):
            return False
        if kind is list or kind is dict:
            items = value.values() if kind is dict else value
            if self.items and any(type(v) is not self.items for v in items):
                return False
            value = len(value)
        elif kind is not int and kind is not float:
            return True  # a string, boolean or null has no bounds
        return ((self.lo is None or value > self.lo
                 or value == self.lo and not self.lo_open)
                and (self.hi is None or value <= self.hi))

    def __str__(self) -> str:
        """What the field admits, as an error names it."""
        text = " or ".join("null" if t is None else "finite float"
                           if t is float else t.__name__ for t in self.types)
        if self.items is not None:
            text += f" of {self.items.__name__}"
        if self.lo is not None:
            text += (f" in {'(' if self.lo_open else '['}{self.lo}, "
                     f"{'inf' if self.hi is None else self.hi}]")
        return text


def json_fields(d, declared: dict[str, Field]) -> dict:
    """The fields of the JSON object d that declared names, each checked
    against its Field; an optional field that is absent is left out. The
    harness reads its JSON inputs through this, so that no value of an
    undeclared type reaches a line formatter, a statistic or a setting. A d
    that is not an object, or a missing or mistyped field, raises ValueError
    naming it."""
    if type(d) is not dict:
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    got = {}
    for name, spec in declared.items():
        if name in d:
            value = got[name] = d[name]
            if not spec.admits(value):
                raise ValueError(f"{name} must be {spec}, got {value!r}")
        elif not spec.optional:
            raise ValueError(f"missing field {name!r}")
    return got


def _numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """read_jsonl's objects, each with its 1-based line number. Lines are
    read as bytes, so json.loads decodes each one and a line that is not
    UTF-8 is a bad line like any other."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
                raise RowParseError(lineno,
                                    f"bad JSON in {path}: {exc}") from exc
            if not isinstance(rec, dict):
                raise RowParseError(lineno, f"not a JSON object in {path}")
            yield lineno, rec


# -- corpus manifest ---------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One record of the corpus manifest: where a pair's splits live."""

    pair: LangPair
    train_path: Path
    test_path: Path
    column_map: ColumnMap = field(default_factory=ColumnMap)

    # a manifest record's fields
    JSON_FIELDS = {"pair": Field((str,)), "train": Field((str,)),
                   "test": Field((str,)),
                   "columns": Field((dict,), items=str, optional=True)}


def load_corpus_manifest(path: str | Path) -> list[CorpusEntry]:
    """Parse a line-oriented manifest: one JSON record per line with fields
    pair / train / test and an optional columns map. Relative paths resolve
    against the manifest's directory. A record whose fields do not parse,
    or that lists a pair again, raises ManifestError naming its line."""
    path = Path(path)
    entries = []
    seen: dict[LangPair, int] = {}  # pair -> the line that listed it
    for lineno, rec in _numbered_jsonl(path):
        try:
            rec = json_fields(rec, CorpusEntry.JSON_FIELDS)
            pair = LangPair.parse(rec["pair"])
        except ValueError as exc:
            raise ManifestError(f"{path} line {lineno}: {exc}") from exc
        if pair in seen:
            raise ManifestError(f"{path} line {lineno}: pair {pair} is "
                                f"already listed on line {seen[pair]}")
        seen[pair] = lineno
        entries.append(CorpusEntry(
            pair=pair,
            train_path=(path.parent / rec["train"]).resolve(),
            test_path=(path.parent / rec["test"]).resolve(),
            column_map=ColumnMap.from_dict(rec.get("columns", {})),
        ))
    return entries


def load_corpora(manifest_path: str | Path, *, strict: bool = False,
                 diagnostics: list[LoadDiagnostic] | None = None,
                 pairs: Iterable[str] | None = None) -> list[Corpus]:
    """Load every manifest entry's splits, in manifest order. With pairs
    given, only the listed pairs' entries are read; the other TSVs are
    never opened."""
    wanted = set(pairs) if pairs else None
    corpora = []
    for entry in load_corpus_manifest(manifest_path):
        if wanted is not None and str(entry.pair) not in wanted:
            continue
        train_hash, test_hash = hashlib.sha256(), hashlib.sha256()
        train = load_corpus(entry.train_path, entry.pair, Split.TRAIN,
                            entry.column_map, strict=strict,
                            diagnostics=diagnostics, hasher=train_hash)
        test = load_corpus(entry.test_path, entry.pair, Split.TEST,
                           entry.column_map, strict=strict,
                           diagnostics=diagnostics, hasher=test_hash)
        digest = hashlib.sha256(json.dumps(
            [asdict(entry.column_map), train_hash.hexdigest(),
             test_hash.hexdigest()]).encode()).hexdigest()
        corpus = Corpus(entry.pair, tuple(train), tuple(test), digest)
        for warning in split_size_warnings(corpus):
            log.info("%s", warning)  # advisory only; ingest prints them
        corpora.append(corpus)
    return corpora


# Published split sizes for the eight pairs; mismatches are advisory only,
# since later dataset revisions may legitimately differ.
EXPECTED_SPLIT_SIZES: dict[str, tuple[int, int]] = {
    "en-gu": (7000, 1000),
    "en-hi": (7000, 1000),
    "en-mr": (26000, 699),
    "en-ta": (7000, 1000),
    "en-te": (7000, 1000),
    "et-en": (7000, 1000),
    "ne-en": (7000, 1000),
    "si-en": (7000, 1000),
}


def split_size_warnings(corpus: Corpus) -> list[str]:
    expected = EXPECTED_SPLIT_SIZES.get(str(corpus.pair))
    if expected is None:
        return []
    warnings = []
    for name, got, want in (("train", len(corpus.train), expected[0]),
                            ("test", len(corpus.test), expected[1])):
        if got != want:
            warnings.append(f"{corpus.pair} {name} split has {got} segments, "
                            f"expected {want}")
    return warnings
