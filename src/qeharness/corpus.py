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
import math
import os
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (FileUnreadable, FileUnwritable, ManifestError,
                     MissingColumn, RowParseError, ScoreOutOfRange)

__all__ = [
    "LangPair", "Split", "Segment", "Corpus", "ScoreBin", "SCORE_BINS",
    "ColumnMap", "LoadDiagnostic", "load_corpus", "bin_of", "histogram",
    "CorpusEntry", "load_corpus_manifest", "load_corpora", "corpus_digest",
    "EXPECTED_SPLIT_SIZES", "split_size_warnings",
    "write_lines", "write_json", "staged_writes", "writing", "read_jsonl",
    "read_records", "read_json",
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
    built in memory. train_skipped and test_skipped are the rows of each
    split that a lenient load skipped as malformed."""

    pair: LangPair
    train: tuple[Segment, ...]
    test: tuple[Segment, ...]
    digest: str = ""
    train_skipped: tuple[LoadDiagnostic, ...] = ()
    test_skipped: tuple[LoadDiagnostic, ...] = ()


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
_BIN_UPPERS = tuple(b.hi for b in SCORE_BINS)


def bin_of(score: float) -> ScoreBin:
    """Map a score in [0, 100] to its bin.

    Boundaries are closed on the upper end -- [0,30], (30,50], (50,70],
    (70,90], (90,100] -- so 30.0 lands in the bin labeled 0-30 while 30.5
    lands in 31-50.
    """
    if not (0.0 <= score <= 100.0):
        raise ScoreOutOfRange(f"score {score} outside [0, 100]")
    return SCORE_BINS[bisect_left(_BIN_UPPERS, score)]


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
    hashlib object), the file's bytes are fed to it as they are read. A
    file that cannot be read, is not UTF-8 or holds a field longer than
    csv.field_size_limit() raises FileUnreadable naming it, and a header
    without a mapped column MissingColumn naming it.
    """
    with _reading(path), open(path, "rb", buffering=0) as fh:
        return _segments(_rows(_Slices(fh, hasher)), pair, split,
                         column_map or ColumnMap(), strict, diagnostics, path)


@contextmanager
def _reading(path: str | Path):
    """Turn a failure to read, decode or split the file at path into
    FileUnreadable naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


_SLICE = 1 << 20  # bytes a TSV is read in, so no pass holds a whole file


class _Slices(io.RawIOBase):
    """The binary file fh, read _SLICE bytes at a time, each slice fed as
    it is read to hasher (a hashlib object, or None)."""

    def __init__(self, fh, hasher):
        self._fh, self._hasher = fh, hasher
        self._slice = memoryview(bytearray(_SLICE))
        self._rest = self._slice[:0]  # the bytes of the slice not yet read

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self._rest:
            self.next_slice()
        size = min(len(buffer), len(self._rest))
        buffer[:size], self._rest = self._rest[:size], self._rest[size:]
        return size

    def next_slice(self) -> int:
        """Read the next slice, dropping what the text layer above has not
        read of this one; its size, 0 at the end of the file."""
        self._rest = self._slice[:self._fh.readinto(self._slice)]
        if self._hasher is not None:
            self._hasher.update(self._rest)
        return len(self._rest)


def _rows(raw: _Slices) -> Iterator[list[str]]:
    """The csv rows of the TSV bytes raw reads, decoded as UTF-8."""
    return csv.reader(io.TextIOWrapper(raw, encoding="utf-8", newline=""),
                      dialect="excel-tab")


def _column_indices(header: list[str], column_map: ColumnMap,
                    path: str | Path) -> tuple[int, int, int]:
    """Where the header of the TSV at path puts the source, translation and
    score columns; a column it lacks raises MissingColumn naming the file.
    Of two columns with one name, the later one is read."""
    index = {name: i for i, name in enumerate(header)}
    for col in (column_map.source, column_map.translation, column_map.score):
        if col not in index:
            raise MissingColumn(col, path)
    return (index[column_map.source], index[column_map.translation],
            index[column_map.score])


def _segments(rows: Iterator[list[str]], pair: LangPair, split: Split,
              column_map: ColumnMap, strict: bool,
              diagnostics: list[LoadDiagnostic] | None,
              path: str | Path) -> list[Segment]:
    """load_corpus's reading of the csv rows of path, header first."""
    src_at, mt_at, score_at = _column_indices(next(rows, []), column_map,
                                              path)
    width = max(src_at, mt_at, score_at) + 1

    segments: list[Segment] = []
    new, put = object.__new__, object.__setattr__
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
                    # the row passed Segment.__post_init__'s checks above,
                    # so its fields are set as Segment.__init__ sets them,
                    # without running those checks again
                    segment = new(Segment)
                    put(segment, "id", row_idx)
                    put(segment, "source", source)
                    put(segment, "translation", translation)
                    put(segment, "da_mean", score)
                    put(segment, "pair", pair)
                    put(segment, "split", split)
                    segments.append(segment)
                    continue
                reason = "OutOfRange"
        if strict:
            raise RowParseError(row_idx, reason)
        if diagnostics is not None:
            diagnostics.append(LoadDiagnostic(row_idx, reason))
    return segments


# -- JSON I/O ----------------------------------------------------------------

def write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """Stream lines, each ending in a newline, to path, atomically (see
    staged_writes). Returns the SHA-256 hex digest of the bytes written."""
    digest = hashlib.sha256()
    with staged_writes() as write:
        write(path, lines, digest)
    return digest.hexdigest()


def write_json(path: str | Path, doc) -> str:
    """Write doc as indented sorted-key JSON, atomically. Returns the
    SHA-256 hex digest of the bytes written."""
    return write_lines(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


@contextmanager
def staged_writes():
    """The package's one file writer. In the block, write(path, lines,
    hasher=None) streams the UTF-8 encoding of lines, each ending in a
    newline, to a temp file beside path, feeding the bytes to hasher (a
    hashlib object) when given. Leaving the block moves every file written
    into place, so no file is seen half written; leaving it by an
    exception, an interrupt too, removes every temp file and leaves each
    path as it was. A failure to write or move a file raises FileUnwritable
    naming its path, after the same clean-up."""
    staged: list[tuple[Path, Path]] = []  # (temp, final) of each write

    def write(path: str | Path, lines: Iterable[str], hasher=None) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        staged.append((tmp, path))
        lines = iter(lines)
        # 64 lines a chunk: chunks of 512 long ICL prompt lines raised a
        # full run's peak RSS by about 14 MB. Only the end gives "".
        with writing(path), tmp.open("wb") as fh:
            for chunk in iter(lambda: "".join(islice(lines, 64)), ""):
                data = chunk.encode("utf-8")
                if hasher is not None:
                    hasher.update(data)
                fh.write(data)

    try:
        yield write
        for tmp, path in staged:
            with writing(path):
                os.replace(tmp, path)
    except BaseException:  # an interrupt too: leave no temp file behind
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def writing(path: Path):
    """Turn a failure to write or make the file or directory at path into
    FileUnwritable naming it."""
    try:
        yield
    except OSError as exc:
        raise FileUnwritable(f"cannot write {path}: {exc}") from exc


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


def load_corpus_manifest(path: str | Path,
                         pairs: Iterable[str] | None = None
                         ) -> list[CorpusEntry]:
    """Parse a line-oriented manifest: one JSON record per line with fields
    pair / train / test and an optional columns map. Relative paths resolve
    against the manifest's directory. A record whose fields do not parse,
    or that lists a pair again, raises ManifestError naming its line.
    With pairs given (not empty), only their entries are returned, in
    manifest order, and a listed pair the manifest lacks raises
    ManifestError naming it. No TSV is opened here."""
    path = Path(path)
    entries = []
    seen: dict[LangPair, int] = {}  # pair -> the line that listed it
    for lineno, rec in _numbered_jsonl(path):
        try:
            rec = json_fields(rec, CorpusEntry.JSON_FIELDS)
            pair = LangPair.parse(rec["pair"])
            # an unknown columns key is a TypeError naming it
            column_map = ColumnMap(**rec.get("columns", {}))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{path} line {lineno}: {exc}") from exc
        if pair in seen:
            raise ManifestError(f"{path} line {lineno}: pair {pair} is "
                                f"already listed on line {seen[pair]}")
        seen[pair] = lineno
        entries.append(CorpusEntry(
            pair=pair,
            train_path=(path.parent / rec["train"]).resolve(),
            test_path=(path.parent / rec["test"]).resolve(),
            column_map=column_map,
        ))
    wanted = set(pairs or ())
    unknown = wanted - {str(pair) for pair in seen}
    if unknown:
        raise ManifestError(f"{path}: no entry for {sorted(unknown)}")
    return [e for e in entries if not wanted or str(e.pair) in wanted]


def load_corpora(manifest_path: str | Path, *, strict: bool = False,
                 pairs: Iterable[str] | None = None) -> list[Corpus]:
    """Load the splits of every entry load_corpus_manifest(manifest_path,
    pairs) returns, in manifest order, each with the rows it skipped (see
    load_corpus). So with pairs given, only the listed pairs' TSVs are
    opened, and a listed pair the manifest lacks raises ManifestError
    before any TSV is."""
    corpora = []
    for entry in load_corpus_manifest(manifest_path, pairs):
        train_hash, test_hash = hashlib.sha256(), hashlib.sha256()
        train_skipped, test_skipped = [], []
        train = load_corpus(entry.train_path, entry.pair, Split.TRAIN,
                            entry.column_map, strict=strict,
                            diagnostics=train_skipped, hasher=train_hash)
        test = load_corpus(entry.test_path, entry.pair, Split.TEST,
                           entry.column_map, strict=strict,
                           diagnostics=test_skipped, hasher=test_hash)
        corpora.append(Corpus(entry.pair, tuple(train), tuple(test),
                              _digest(entry.column_map, train_hash, test_hash),
                              tuple(train_skipped), tuple(test_skipped)))
    return corpora


def corpus_digest(entry: CorpusEntry) -> str:
    """The Corpus.digest load_corpora gives entry's corpus, from one pass
    over each TSV that decodes only the text its header row needs (see
    _scan). A file fails as loading it would when it cannot be read or
    that text is not UTF-8 (FileUnreadable), or its header lacks a mapped
    column (MissingColumn); bytes past that text are hashed, not decoded."""
    hashes = [hashlib.sha256(), hashlib.sha256()]
    for path, hasher in zip((entry.train_path, entry.test_path), hashes):
        _column_indices(_scan(path, hasher), entry.column_map, path)
    return _digest(entry.column_map, *hashes)


def _scan(path: Path, hasher) -> list[str]:
    """Read the TSV at path through load_corpus's stack, feeding its bytes
    to hasher (a hashlib object). Returns its header row, the first row
    that stack gives, whose text layer decodes a first chunk of 8 KiB, or
    more for a longer header row; the rest of the file is read past it."""
    with _reading(path), open(path, "rb", buffering=0) as fh:
        raw = _Slices(fh, hasher)
        header = next(_rows(raw), [])
        while raw.next_slice():
            pass
    return header


def _digest(column_map: ColumnMap, train_hash, test_hash) -> str:
    """Corpus.digest: the SHA-256 of the column map and of the hashlib
    objects fed the train and test TSV bytes."""
    return hashlib.sha256(json.dumps(
        [asdict(column_map), train_hash.hexdigest(),
         test_hash.hexdigest()]).encode()).hexdigest()


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
    """One line per split of corpus whose size differs from the published
    one, and one per split that skipped malformed rows, naming each row."""
    expected = EXPECTED_SPLIT_SIZES.get(str(corpus.pair))
    warnings = []
    for i, (name, segments, skipped) in enumerate((
            ("train", corpus.train, corpus.train_skipped),
            ("test", corpus.test, corpus.test_skipped))):
        if expected and len(segments) != expected[i]:
            warnings.append(f"{corpus.pair} {name} split has {len(segments)} "
                            f"segments, expected {expected[i]}")
        if skipped:
            warnings.append(
                f"{corpus.pair} {name} split skipped {len(skipped)} malformed "
                "rows: " + ", ".join(f"row {d.row} {d.reason}"
                                     for d in skipped))
    return warnings
