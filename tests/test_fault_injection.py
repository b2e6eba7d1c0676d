"""Fault injection through cli.main. Every JSON input is given a declared
field holding a value its declaration does not admit, or is cut at a random
byte, and the run manifest and mock spec a key they do not declare; each
run must end in exit 0, or in exit 1 with a typed error[...] line, never in
a traceback. The wrong values come from the records' field declarations
(JSON_FIELDS and the mock policies' fields)."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qeharness.cli import main
from qeharness.corpus import CorpusEntry
from qeharness.extraction import ExtractionResult
from qeharness.gateway import InferenceConfig, ModelOutput, PromptRef
from qeharness.metrics import CorrelationReport
from qeharness.pipeline import RunManifest, _MOCK_POLICIES

from conftest import synthetic_corpus, write_corpus_manifest

# one JSON value of each type, with edge cases; a field is given those its
# declaration does not admit
_VALUES = (None, True, False, 0, -1, 7, 2 ** 70, 0.5, -2.5, 1e300,
           float("nan"), float("inf"), "", "x", [], [1], [1.5], ["x"], [None],
           {}, {"a": 1}, {"a": "x"})


def _mistyped(declared: dict):
    """A (field name, value) of declared, the value one it does not admit."""
    return st.sampled_from(sorted(declared)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(
            [v for v in _VALUES if not declared[name].admits(v)])))


def _cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0 or (code == 1 and "error[" in err.getvalue()), \
        err.getvalue()
    return code, err.getvalue()


def _cut(path: Path, data) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1),
                                   label="cut at")])


def _manifest(base: Path, corpora: Path, **fields) -> Path:
    doc = {"corpora_manifest": str(corpora), "templates": ["ag"],
           "out_dir": str(base / "run"), "seed": 3,
           "inference": {"model_name": "m"},
           "mock": {"policy": "garbage", "p": 0.3}, **fields}
    path = base / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def finished(tmp_path_factory) -> Path:
    """A finished one-combo garbage-mock run: some rows scored, some
    excluded."""
    base = tmp_path_factory.mktemp("finished")
    corpora = write_corpus_manifest(
        base / "data", [synthetic_corpus("en-gu", n_train=60, n_test=12)])
    assert _cli("run", "--manifest", _manifest(base, corpora))[0] == 0
    return base


def _copy_of_run(finished: Path) -> Path:
    """A copy of the finished run, its manifest pointing at the copy."""
    base = Path(tempfile.mkdtemp(dir=finished))
    shutil.copytree(finished / "run", base / "run")
    _manifest(base, finished / "data" / "corpora.jsonl")
    return base


def _combo_files(run: Path) -> dict:
    """The bytes of a run's artifacts and markers, by relative path."""
    return {p.relative_to(run): p.read_bytes()
            for sub in ("prompts", "outputs", "extractions", "reports",
                        "fingerprints") for p in (run / sub).iterdir()}


def _mistype_row(path: Path, data, declared: dict, nested: bool) -> tuple:
    """Give one row of path a mistyped field (of its prompt_ref if nested);
    returns (row number, field name)."""
    rows = [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines()]
    index = data.draw(st.integers(0, len(rows) - 1), label="row")
    name, value = data.draw(_mistyped(declared), label="field")
    (rows[index]["prompt_ref"] if nested else rows[index])[name] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    return index + 1, name


def _undeclared(declared) -> st.SearchStrategy:
    """A (key, value) whose key declared does not name."""
    return st.tuples(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                             max_size=12).filter(lambda k: k not in declared),
                     st.sampled_from(_VALUES))


_MANIFEST_FAULTS = st.one_of(
    _mistyped(RunManifest.JSON_FIELDS).map(lambda f: ({f[0]: f[1]}, f[0])),
    _undeclared(RunManifest.JSON_FIELDS).map(lambda f: ({f[0]: f[1]}, f[0])),
    _mistyped(InferenceConfig.JSON_FIELDS).map(
        lambda f: ({"inference": {"model_name": "m", f[0]: f[1]}}, f[0])),
    st.sampled_from(sorted(_MOCK_POLICIES)).flatmap(lambda kind: _mistyped(
        {_MOCK_POLICIES[kind][0]: _MOCK_POLICIES[kind][1]}).map(
        lambda f: ({"mock": {"policy": kind, f[0]: f[1]}}, f[0]))),
    st.sampled_from(sorted(_MOCK_POLICIES)).flatmap(lambda kind: _undeclared(
        {"policy", _MOCK_POLICIES[kind][0]}).map(
        lambda f: ({"mock": {"policy": kind, f[0]: f[1]}}, f[0]))),
    st.sampled_from(_VALUES).map(
        lambda v: ({"mock": {"policy": v}}, "mock policy")))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fault=_MANIFEST_FAULTS)
def test_mistyped_run_manifest_writes_no_run_dir(finished, fault):
    fields, named = fault
    with tempfile.TemporaryDirectory(dir=finished) as tmp:
        base = Path(tmp)
        path = _manifest(base, finished / "data" / "corpora.jsonl", **fields)
        code, err = _cli("run", "--manifest", path)
        assert code == 1 and "error[ManifestError]" in err and named in err
        assert not (base / "run").exists()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fault=_mistyped(CorpusEntry.JSON_FIELDS))
def test_mistyped_corpus_manifest_writes_no_run_dir(finished, fault):
    name, value = fault
    with tempfile.TemporaryDirectory(dir=finished) as tmp:
        base = Path(tmp)
        corpora = base / "corpora.jsonl"
        record = json.loads((finished / "data" / "corpora.jsonl").read_text())
        record = {**record, "train": str(finished / "data" / record["train"]),
                  "test": str(finished / "data" / record["test"]), name: value}
        corpora.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, err = _cli("run", "--manifest", _manifest(base, corpora))
        assert code == 1 and "error[ManifestError]" in err and name in err
        assert not (base / "run").exists()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from([*_MOCK_POLICIES, "", "wat"]),
       value=st.none() | st.text(max_size=8) | st.text("0123456789.,-+einfa",
                                                      max_size=8))
def test_generated_mock_arg(finished, kind, value):
    arg = kind if value is None else f"{kind}:{value}"
    with tempfile.TemporaryDirectory(dir=finished) as tmp:
        base = Path(tmp)
        path = _manifest(base, finished / "data" / "corpora.jsonl")
        code, err = _cli("run", "--manifest", path, f"--mock={arg}")
        assert (base / "run").exists() == (code == 0)
        assert code == 0 or "error[ManifestError]" in err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), cut=st.booleans(),
       args=st.sampled_from([[], ["--detailed"], ["--metric", "r"],
                             ["--metric", "tau"], ["--style", "markdown"]]))
def test_faulty_summary_table(finished, data, cut, args):
    with tempfile.TemporaryDirectory(dir=finished) as tmp:
        path = Path(tmp) / "summary.json"
        shutil.copy(finished / "run" / "summary.json", path)
        if cut:
            _cut(path, data)
        else:
            summary = json.loads(path.read_text(encoding="utf-8"))
            name, value = data.draw(_mistyped(CorrelationReport.JSON_FIELDS),
                                    label="field")
            summary["reports"][0][name] = value
            path.write_text(json.dumps(summary), encoding="utf-8")
        code, err = _cli("table", "--run-dir", tmp, *args)
        if not cut:
            assert code == 1 and "error[ManifestError]" in err and name in err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), fault=st.sampled_from(["cut", "result", "ref"]))
def test_faulty_extractions_score(finished, data, fault):
    base = _copy_of_run(finished)
    path, = (base / "run" / "extractions").iterdir()
    if fault == "cut":
        _cut(path, data)
    else:
        row, name = _mistype_row(
            path, data, ExtractionResult.JSON_FIELDS if fault == "result"
            else PromptRef.JSON_FIELDS, nested=fault == "ref")
    code, err = _cli("score", "--manifest", finished / "data" / "corpora.jsonl",
                     "--extractions", path, "--pair", "en-gu", "--template",
                     "ag", "--out", base / "score")
    if fault != "cut":
        assert code == 1 and f"error[RowParseError]: row {row}:" in err
        assert name in err
    shutil.rmtree(base)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), fault=st.sampled_from(["cut", "output", "ref"]),
       command=st.sampled_from(["extract", "resume"]))
def test_faulty_outputs_extract_and_resume(finished, data, fault, command):
    base = _copy_of_run(finished)
    path, = (base / "run" / "outputs").iterdir()
    if fault == "cut":
        _cut(path, data)
    else:
        row, name = _mistype_row(
            path, data, ModelOutput.JSON_FIELDS if fault == "output"
            else PromptRef.JSON_FIELDS, nested=fault == "ref")
    if command == "resume":
        # not the outputs file the marker recorded: dispatched again
        assert _cli("run", "--manifest", base / "run.json", "--resume") == (
            0, "")
        summary = json.loads((base / "run" / "summary.json").read_text())
        assert summary["inference_calls"] == 12
        assert _combo_files(base / "run") == _combo_files(finished / "run")
    else:
        code, err = _cli("extract", "--outputs", path)
        if fault != "cut":
            assert code == 1 and f"error[RowParseError]: row {row}:" in err
            assert name in err
    shutil.rmtree(base)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_cut_run_file_resume(finished, data):
    base = _copy_of_run(finished)
    files = sorted(p for p in (base / "run").rglob("*")
                   if p.is_file() and p.stat().st_size and p.name != "log.txt")
    _cut(data.draw(st.sampled_from(files), label="file"), data)
    _cli("run", "--manifest", base / "run.json", "--resume")
    shutil.rmtree(base)
