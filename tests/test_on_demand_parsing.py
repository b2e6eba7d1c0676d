"""A run hashes every listed pair's TSVs before it writes anything, and
parses a pair only just before its first combo that is not skipped: once
per pair on a fresh run, never on a resume with nothing to do. Problems the
bytes and header show still fail before the run directory is written."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qeharness.corpus as corpus
import qeharness.pipeline as pipeline
from qeharness.cli import main
from qeharness.corpus import corpus_digest, load_corpora, load_corpus_manifest
from qeharness.errors import FileUnreadable, ManifestError, MissingColumn
from qeharness.pipeline import RunManifest, run

from conftest import synthetic_corpus, write_corpus_manifest

PAIRS = {"en-gu": 12, "si-en": 8}  # pair -> test segments
TEMPLATES = ["ag", "ag_icl3"]
TSVS = [f"{pair}.{split}.tsv" for pair in PAIRS for split in ("train", "test")]


def _data(tmp_path) -> Path:
    return write_corpus_manifest(tmp_path / "data", [
        synthetic_corpus(pair, n_train=40, n_test=n_test)
        for pair, n_test in PAIRS.items()])


def _manifest_doc(tmp_path) -> dict:
    return {"corpora_manifest": str(_data(tmp_path)), "templates": TEMPLATES,
            "out_dir": str(tmp_path / "run"), "seed": 5,
            "inference": {"model_name": "mock-model",
                          "retry_backoff_base": 0.0},
            "mock": {"policy": "echo-score"}}


@pytest.fixture
def parsed(monkeypatch):
    """The pairs each pipeline.load_corpora call parsed, and the number of
    gold entries the pipeline built for its mock."""
    seen = {"pairs": [], "gold": 0}
    load, gold_map = pipeline.load_corpora, pipeline.gold_map

    def counting_load(*args, **kwargs):
        corpora = load(*args, **kwargs)
        seen["pairs"].append([str(c.pair) for c in corpora])
        return corpora

    def counting_gold(segments):
        gold = gold_map(segments)
        seen["gold"] += len(gold)
        return gold

    monkeypatch.setattr(pipeline, "load_corpora", counting_load)
    monkeypatch.setattr(pipeline, "gold_map", counting_gold)
    return seen


@pytest.fixture
def scanned(monkeypatch):
    """Each pass over a TSV the digest pass and utf8_check make, in order:
    the file's name and whether the pass checked it as UTF-8."""
    passes = []
    scan = corpus._scan

    def recording(path, hasher, check_utf8):
        passes.append((Path(path).name, check_utf8))
        return scan(path, hasher, check_utf8)

    monkeypatch.setattr(corpus, "_scan", recording)
    return passes


def _tree(out: Path) -> dict:
    """Every file under out with its bytes and modification time."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(out.rglob("*")) if p.is_file()}


# -- how often a run parses ---------------------------------------------------

def test_fresh_run_parses_each_pair_once(tmp_path, parsed):
    manifest = RunManifest.from_dict(_manifest_doc(tmp_path))
    result = run(manifest)
    assert result.inference_calls == sum(PAIRS.values()) * len(TEMPLATES)
    assert parsed == {"pairs": [["en-gu"], ["si-en"]],
                      "gold": sum(PAIRS.values())}


def test_noop_resume_parses_nothing(tmp_path, parsed):
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "resume": True})
    first = run(manifest)
    parsed.update(pairs=[], gold=0)
    log = Path(manifest.out_dir) / "log.txt"
    logged = log.read_text(encoding="utf-8")

    again = run(manifest)
    assert again.inference_calls == 0
    assert parsed == {"pairs": [], "gold": 0}
    assert again.reports == first.reports
    # a pair never parsed has no split-size note
    resumed = log.read_text(encoding="utf-8")[len(logged):]
    assert "en-gu train split has 40 segments" in logged
    assert "split has" not in resumed
    assert resumed.count(": skipped,") == len(PAIRS) * len(TEMPLATES)


def test_resume_after_one_tsv_changes_parses_only_its_pair(tmp_path, parsed):
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "resume": True})
    run(manifest)
    test_tsv = tmp_path / "data" / "si-en.test.tsv"
    test_tsv.write_text(test_tsv.read_text(encoding="utf-8").replace(
        "number 3 ", "number three ", 1), encoding="utf-8")
    parsed.update(pairs=[], gold=0)

    again = run(manifest)
    assert again.inference_calls == PAIRS["si-en"] * len(TEMPLATES)
    assert parsed == {"pairs": [["si-en"]], "gold": PAIRS["si-en"]}


def _append_a_row(data: Path) -> None:
    with (data / "en-gu.train.tsv").open("a", encoding="utf-8") as fh:
        fh.write("late\trow\t50\n")


def _unlist_en_gu(data: Path) -> None:
    manifest = data / "corpora.jsonl"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(lines[1:]), encoding="utf-8")


# A pair the corpus manifest stops listing gets the ManifestError that run
# gives for that input before it starts.
@pytest.mark.parametrize("edit,error,match", [
    (_append_a_row, FileUnreadable, "changed since the run started"),
    (_unlist_en_gu, ManifestError, r"no entry for \['en-gu'\]"),
], ids=["tsv", "manifest"])
def test_corpus_changed_during_the_run_is_unreadable(tmp_path, monkeypatch,
                                                     edit, error, match):
    manifest = RunManifest.from_dict(_manifest_doc(tmp_path))
    load = pipeline.load_corpora

    def edit_then_load(*args, **kwargs):
        edit(tmp_path / "data")
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_corpora", edit_then_load)
    with pytest.raises(error, match=match):
        run(manifest)


# -- the digest pass ----------------------------------------------------------

@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_fresh_run_reads_each_tsv_once_up_front(tmp_path, scanned, resume):
    # a resume into a new directory finds no marker: nothing vouches
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "resume": resume})
    run(manifest)
    assert scanned == [(name, True) for name in TSVS]


def test_noop_resume_checks_no_tsv_as_utf8(tmp_path, scanned):
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "resume": True})
    run(manifest)
    scanned.clear()
    assert run(manifest).inference_calls == 0
    assert scanned == [(name, False) for name in TSVS]


def test_resume_with_one_deleted_marker_checks_only_its_pair(tmp_path,
                                                             scanned):
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "resume": True})
    run(manifest)
    next((tmp_path / "run" / "fingerprints").glob("si-en__ag__*")).unlink()
    scanned.clear()
    assert run(manifest).inference_calls == PAIRS["si-en"]
    assert scanned == [(name, name.startswith("si-en")) for name in TSVS]


def test_resume_under_another_setting_checks_in_a_second_pass(tmp_path,
                                                              scanned):
    doc = {**_manifest_doc(tmp_path), "resume": True}
    run(RunManifest.from_dict(doc))
    scanned.clear()
    doc["inference"] = {**doc["inference"], "temperature": 0.85}
    again = run(RunManifest.from_dict(doc))
    assert again.inference_calls == sum(PAIRS.values()) * len(TEMPLATES)
    # only the digest shows that the markers name other fingerprints
    assert scanned == [(name, check) for pair in PAIRS for check in (False, True)
                       for name in TSVS if name.startswith(pair)]


def test_vouched_pair_with_a_changed_artifact_is_parsed(tmp_path, scanned,
                                                        parsed):
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "resume": True})
    run(manifest)
    next((tmp_path / "run" / "prompts").glob("en-gu__ag__*")).unlink()
    scanned.clear()
    parsed.update(pairs=[], gold=0)
    assert run(manifest).inference_calls == 0
    assert scanned == [(name, False) for name in TSVS]
    # _load_pair decodes what the marker vouched for
    assert parsed["pairs"] == [["en-gu"]]


def test_noop_resume_holds_no_whole_tsv(tmp_path):
    manifest = RunManifest.from_dict({**_manifest_doc(tmp_path),
                                      "templates": ["ag"], "resume": True})
    train = tmp_path / "data" / "en-gu.train.tsv"
    train.write_text("original\ttranslation\tmean\n" + "".join(
        f"{'a long source sentence ' * 40}{i}\tits translation {i}\t50\n"
        for i in range(5000)), encoding="utf-8")
    size = train.stat().st_size
    assert size >= 4_000_000
    run(manifest)

    tracemalloc.start()
    try:
        assert run(manifest).inference_calls == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size


_TSV_TEXT = st.text(st.sampled_from(["a", "é", "ગ", "😀", "\t", "\n", "\r",
                                     '"', " "]), max_size=60)


@settings(max_examples=150, deadline=None)
@given(before=_TSV_TEXT, after=_TSV_TEXT, body=_TSV_TEXT,
       tail=st.binary(max_size=3), slice_size=st.integers(1, 16))
@example(before='"a\nb"\t', after="", body="x\ty\t1\n", tail=b"",
         slice_size=2)  # the mapped columns after a quoted newline
def test_sliced_digest_agrees_with_the_whole_file(tmp_path_factory, before,
                                                  after, body, tail,
                                                  slice_size):
    # any slice size, any header around the mapped columns, quoted newlines
    # too, and any bytes at the end
    base = tmp_path_factory.mktemp("data")
    manifest = _data(base)
    entry = load_corpus_manifest(manifest)[0]
    entry.train_path.write_bytes(
        (before + "original\ttranslation\tmean" + after + "\n"
         + body).encode() + tail)
    data = entry.train_path.read_bytes()

    def outcome(fn):
        try:
            return fn()
        except (FileUnreadable, MissingColumn) as exc:
            return type(exc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_SLICE", slice_size)
        checked = outcome(lambda: corpus_digest(entry))
        unchecked = outcome(lambda: corpus_digest(entry, check_utf8=False))
        utf8 = outcome(lambda: corpus.utf8_check(entry))
    digest = corpus._digest(entry.column_map, hashlib.sha256(data),
                            hashlib.sha256(entry.test_path.read_bytes()))
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert checked is utf8 is FileUnreadable
        # unchecked, only the header is decoded
        assert unchecked in (FileUnreadable, MissingColumn, digest)
        return
    assert utf8 is None
    # the whole-file reading the slices replace
    header = outcome(lambda: next(csv.reader(io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", newline=""),
        dialect="excel-tab"), []))
    expected = outcome(lambda: corpus._column_indices(header,
                                                      entry.column_map))
    if expected is MissingColumn:
        assert checked is unchecked is MissingColumn
        return
    assert checked == unchecked == digest == load_corpora(manifest)[0].digest

def test_corpus_digest_is_the_loaded_digest(tmp_path):
    manifest = _data(tmp_path)
    entries = load_corpus_manifest(manifest)
    assert ([corpus_digest(e) for e in entries]
            == [c.digest for c in load_corpora(manifest)])


@pytest.mark.parametrize("data,error", [
    (b"original\ttranslation\tmean\na\t\xff\t5\n", FileUnreadable),
    (b"original\tmean\na\t5\n", MissingColumn),
    (b"", MissingColumn),
], ids=["not-utf8", "missing-column", "empty"])
def test_corpus_digest_refuses_what_loading_refuses(tmp_path, data, error):
    manifest = _data(tmp_path)
    (tmp_path / "data" / "si-en.train.tsv").write_bytes(data)
    entry = load_corpus_manifest(manifest)[1]
    with pytest.raises(error):
        corpus_digest(entry)
    with pytest.raises(error):
        load_corpora(manifest)


def test_checked_pass_refuses_a_sequence_cut_at_the_end(tmp_path):
    # the text layer decodes only the chunk the header needs; the rest of a
    # longer file is checked by one decoder over the slices, which must
    # still refuse a multi-byte sequence that the end of the file cuts
    manifest = _data(tmp_path)
    rows = "".join(f"source {i}\ttranslation {i}\t50\n" for i in range(900))
    (tmp_path / "data" / "si-en.train.tsv").write_bytes(
        f"original\ttranslation\tmean\n{rows}".encode() + b"a\t\xe0\xaa")
    entry = load_corpus_manifest(manifest)[1]
    for check in (lambda: corpus_digest(entry),
                  lambda: corpus.utf8_check(entry),
                  lambda: load_corpora(manifest)):
        with pytest.raises(FileUnreadable, match="si-en.train.tsv"):
            check()
    # unchecked, the pass decodes no more than the header's chunk
    corpus_digest(entry, check_utf8=False)


# -- corpus errors fail fast --------------------------------------------------

def _break_not_utf8(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"a\t\xff\t50\n")


def _break_drop_mean(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("original\ttranslation\tscore\n" + "".join(lines[1:]),
                    encoding="utf-8")


@pytest.mark.parametrize("break_tsv,error", [
    (_break_not_utf8, "FileUnreadable"),
    (_break_drop_mean, "MissingColumn"),
], ids=["not-utf8", "missing-column"])
@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_bad_last_pair_fails_before_anything_is_written(tmp_path, capsys,
                                                        parsed, break_tsv,
                                                        error, resume):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_manifest_doc(tmp_path)), encoding="utf-8")
    out = tmp_path / "run"
    if resume:
        assert main(["run", "--manifest", str(path)]) == 0
        before = _tree(out)
    parsed.update(pairs=[], gold=0)
    capsys.readouterr()
    break_tsv(tmp_path / "data" / "si-en.test.tsv")

    argv = ["run", "--manifest", str(path)] + (["--resume"] if resume else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error[{error}]" in err
    assert parsed["pairs"] == []
    if resume:
        assert _tree(out) == before
    else:
        assert not out.exists()


# -- an over-long field -------------------------------------------------------

def _lengthen_a_field(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    source, rest = lines[2].split("\t", 1)
    lines[2] = source + "x" * (csv.field_size_limit() + 1) + "\t" + rest
    path.write_text("".join(lines), encoding="utf-8")


def test_ingest_over_long_field_is_unreadable(tmp_path, capsys):
    manifest = _data(tmp_path)
    tsv = tmp_path / "data" / "si-en.train.tsv"
    _lengthen_a_field(tsv)
    assert main(["ingest", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert f"error[FileUnreadable]: cannot read {tsv}: field larger" in err


def test_run_over_long_field_is_unreadable_and_earlier_pairs_resume(
        tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_manifest_doc(tmp_path)), encoding="utf-8")
    tsv = tmp_path / "data" / "si-en.train.tsv"
    original = tsv.read_bytes()
    _lengthen_a_field(tsv)
    assert main(["run", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error[FileUnreadable]: cannot read {tsv}: field larger" in err

    # en-gu's combos finished before si-en was parsed, and stay finished
    tsv.write_bytes(original)
    assert main(["run", "--manifest", str(path), "--resume"]) == 0
    printed = capsys.readouterr().out
    assert f"inference calls: {PAIRS['si-en'] * len(TEMPLATES)}" in printed
    log = (tmp_path / "run" / "log.txt").read_text(encoding="utf-8")
    resumed = log.split("run start")[-1]
    assert all(f"en-gu/{tid}: skipped" in resumed for tid in TEMPLATES)
