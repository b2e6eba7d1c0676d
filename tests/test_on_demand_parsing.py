"""A run hashes every listed pair's TSVs before it writes anything, and
parses a pair only just before its first combo that is not skipped: once
per pair on a fresh run, never on a resume with nothing to do. Problems the
bytes and header show still fail before the run directory is written."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import qeharness.pipeline as pipeline
from qeharness.cli import main
from qeharness.corpus import corpus_digest, load_corpora, load_corpus_manifest
from qeharness.errors import FileUnreadable, ManifestError, MissingColumn
from qeharness.pipeline import RunManifest, run

from conftest import synthetic_corpus, write_corpus_manifest

PAIRS = {"en-gu": 12, "si-en": 8}  # pair -> test segments
TEMPLATES = ["ag", "ag_icl3"]


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
