"""Malformed mock values, proxy settings and manifest fields exit through
cli.main as typed errors, before any run directory is written."""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

import qeharness
from qeharness.cli import main

from conftest import synthetic_corpus, write_corpus_manifest


def _run_manifest_file(tmp_path, **extra):
    corpora = write_corpus_manifest(
        tmp_path / "data", [synthetic_corpus("en-gu", n_train=60, n_test=10)])
    doc = {"corpora_manifest": str(corpora), "templates": ["ag"],
           "out_dir": str(tmp_path / "run"), "seed": 3,
           "inference": {"model_name": "mock-model"}, **extra}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("mock", ["garbage:x", "echo-score:five", "fail:1,a",
                                  "garbage:7", "garbage:-0.5", "echo-score:nan",
                                  "echo-score:inf"])
def test_unparsable_mock_arg_is_manifest_error(tmp_path, capsys, mock):
    manifest = _run_manifest_file(tmp_path)
    assert main(["run", "--manifest", str(manifest), "--mock", mock]) == 1
    assert "error[ManifestError]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mock", [
    {"policy": "garbage", "p": "x"},
    {"policy": "echo-score", "offset": "five"},
    {"policy": "fail", "segment_ids": ["a"]},
    {"policy": "fail", "segment_ids": 3},
    {"policy": "fixed", "text": 5},
    {"policy": "garbage", "p": 7},
    {"policy": "garbage", "p": "nan"},
    {"policy": "garbage", "p": float("nan")},
    {"policy": "garbage", "p": True},
    {"policy": "fail", "segment_ids": [1.5]},
    {"policy": "echo-score", "offset": float("inf")},
    {"policy": ["echo-score"]},
])
def test_unparsable_manifest_mock_is_manifest_error(tmp_path, capsys, mock):
    manifest = _run_manifest_file(tmp_path, mock=mock)
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "error[ManifestError]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_malformed_proxy_variable_is_manifest_error(tmp_path, capsys,
                                                    monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy",
                 "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://proxyhost:abc")
    manifest = _run_manifest_file(tmp_path, inference={
        "model_name": "m", "endpoint_url": "http://qe.invalid/v1/chat"})
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert "HTTP_PROXY" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", [
    {"mock": "echo-score"},
    {"seed": "one"},
    {"seed": True},
    {"seed": 1.5},
    {"icl_seed": "two"},
    {"icl_seed": False},
    {"pairs": "en-gu"},
    {"pairs": ["en-gu", 3]},
    {"resume": "yes"},
    {"resume": 1},
    {"out_dir": 5},
    {"corpora_manifest": None},
    {"template_dir": ["templates"]},
], ids=lambda field: "{}={!r}".format(*next(iter(field.items()))))
def test_mistyped_run_manifest_field_is_manifest_error(tmp_path, capsys,
                                                       field):
    manifest = _run_manifest_file(
        tmp_path, **{"mock": {"policy": "echo-score"}, **field})
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert next(iter(field)) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("change", [
    {"pair": "english-gu"},
    {"pair": "engu"},
    {"pair": 7},
    {"columns": ["x"]},
    {"columns": {"source": 1}},
    {"train": 1},
    {"test": None},
], ids=["pair-code", "pair-no-dash", "pair-int", "columns-list", "columns-value-int",
        "train-int", "test-null"])
def test_bad_corpus_manifest_record_is_manifest_error(tmp_path, capsys,
                                                      change):
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"})
    corpora = tmp_path / "data" / "corpora.jsonl"
    record = {**json.loads(corpora.read_text(encoding="utf-8")), **change}
    # a blank first line: the error names the line, not the record
    corpora.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert f"{corpora} line 2:" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit", [
    list,
    lambda doc: {**doc, "ag": "ag.txt"},
    lambda doc: {**doc, "ag": {"file": "ag.txt"}},
    lambda doc: {**doc, "ag": {"file": 3, "version": "1.0.0"}},
    lambda doc: {**doc, "ag": {"file": "ag.txt", "version": None}},
], ids=["list", "string-entry", "no-version", "file-not-string",
        "version-null"])
def test_bad_template_manifest_is_template_invalid(tmp_path, capsys, edit):
    template_dir = tmp_path / "templates"
    shutil.copytree(Path(qeharness.__file__).parent / "templates",
                    template_dir)
    path = template_dir / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))),
                    encoding="utf-8")
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"},
                                  template_dir=str(template_dir))
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "error[TemplateInvalid]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field,named", [
    ({"pairs": ["xx-yy"]}, "xx-yy"),
    ({"pairs": ["en-gu", "en-gx"]}, "en-gx"),
    ({"templates": []}, "templates"),
], ids=["unknown-pair", "one-unknown-pair", "no-templates"])
def test_run_with_nothing_to_do_is_manifest_error(tmp_path, capsys, field,
                                                  named):
    manifest = _run_manifest_file(
        tmp_path, **{"mock": {"policy": "echo-score"}, **field})
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert named in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", [
    {"request_timeout": "x"},
    {"request_timeout": 0},
    {"request_timeout": -1.5},
    {"request_timeout": float("inf")},
    {"retry_backoff_base": "x"},
    {"retry_backoff_base": -0.5},
    {"retry_backoff_base": float("nan")},
], ids=lambda setting: "{}={!r}".format(*next(iter(setting.items()))))
def test_bad_timing_setting_is_manifest_error(tmp_path, capsys, setting):
    # a refusing endpoint: the setting is rejected before any request
    manifest = _run_manifest_file(tmp_path, inference={
        "model_name": "m", "endpoint_url": "http://127.0.0.1:9/v1/chat",
        "max_retries": 1, **setting})
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert next(iter(setting)) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,named", [
    (["render", "--template", "ag", "--pairs", "xx-yy"], "xx-yy"),
    (["render", "--template", "ag", "--pairs", "en-gu", "en-gx"], "en-gx"),
    (["score", "--template", "ag", "--pair", "xx-yy", "--extractions",
      "none.jsonl"], "xx-yy"),
    (["run"], "xx-yy"),  # a run manifest listing en-gu and xx-yy
    (["export-sft", "--mode", "umt", "--pair", "xx-yy"], "xx-yy"),
    (["export-sft", "--mode", "ilt", "--pair", "xx-yy"], "xx-yy"),
], ids=["render-unknown-pair", "render-one-unknown-pair", "score", "run",
        "export-sft-umt", "export-sft-ilt"])
def test_unknown_pair_is_manifest_error(tmp_path, capsys, command, named):
    corpora = write_corpus_manifest(
        tmp_path / "data", [synthetic_corpus("en-gu", n_train=20, n_test=5)])
    # the pair is refused before any TSV is opened
    for tsv in (tmp_path / "data").glob("*.tsv"):
        tsv.unlink()
    manifest = corpora
    if command == ["run"]:
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "corpora_manifest": str(corpora), "templates": ["ag"],
            "out_dir": str(tmp_path / "out"), "pairs": ["en-gu", "xx-yy"],
            "mock": {"policy": "echo-score"}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*command, "--manifest", str(manifest), "--out",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"model_name": 5},
    {"model_name": None},
    {"endpoint_url": 5},
    {"max_context_tokens": 1.5},
    {"max_context_tokens": True},
    {"max_new_tokens": "256"},
    {"max_retries": 1.5},
    {"max_retries": False},
    {"max_in_flight": 2.5},
    {"max_in_flight": True},
    {"token_estimator": 5},
], ids=lambda setting: "{}={!r}".format(*next(iter(setting.items()))))
def test_mistyped_inference_setting_is_manifest_error(tmp_path, capsys,
                                                      setting):
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"},
                                  inference={"model_name": "m", **setting})
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert next(iter(setting)) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fields,columns,key", [
    ({"icl_sed": 3}, None, "icl_sed"),
    ({"resum": True}, None, "resum"),
    ({"mock": {"policy": "garbage", "pp": 1.0}}, None, "pp"),
    ({}, {"sorce": "original"}, "sorce"),
], ids=["run-icl_sed", "run-resum", "mock-pp", "columns-sorce"])
def test_undeclared_key_is_manifest_error(tmp_path, capsys, fields, columns,
                                          key):
    manifest = _run_manifest_file(
        tmp_path, **{"mock": {"policy": "garbage"}, **fields})
    if columns:
        corpora = tmp_path / "data" / "corpora.jsonl"
        record = json.loads(corpora.read_text(encoding="utf-8"))
        corpora.write_text(json.dumps({**record, "columns": columns}) + "\n",
                           encoding="utf-8")
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert key in err
    assert not (tmp_path / "run").exists()


def test_corpus_manifest_listing_a_pair_twice_is_manifest_error(tmp_path,
                                                                capsys):
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"})
    corpora = tmp_path / "data" / "corpora.jsonl"
    record = corpora.read_text(encoding="utf-8").strip()
    corpora.write_text(f"{record}\n{record}\n", encoding="utf-8")
    assert main(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert f"{corpora} line 2: pair en-gu is already listed on line 1" in err
    assert not (tmp_path / "run").exists()


def _finished_run(tmp_path) -> tuple[Path, Path]:
    """The run manifest of a finished one-combo mock run, and its outputs
    file."""
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"})
    assert main(["run", "--manifest", str(manifest)]) == 0
    outputs, = (tmp_path / "run" / "outputs").iterdir()
    return manifest, outputs


def _mistype_second_row(path: Path, name: str, value) -> None:
    rows = [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines()]
    row = rows[1] if name in rows[1] else rows[1]["prompt_ref"]
    row[name] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")


@pytest.mark.parametrize("name,value", [
    ("raw_text", 5),
    ("latency_ms", "x"),
    ("latency_ms", float("nan")),
    ("segment_id", True),
    ("attempts", 1.0),
    ("pair", None),
])
@pytest.mark.parametrize("command", ["extract", "resume"])
def test_mistyped_outputs_row_is_row_parse_error(tmp_path, capsys, command,
                                                 name, value):
    manifest, outputs = _finished_run(tmp_path)
    run_dir = tmp_path / "run"
    clean = {p: p.read_bytes() for sub in ("prompts", "outputs", "extractions",
                                           "reports", "fingerprints")
             for p in (run_dir / sub).iterdir()}
    _mistype_second_row(outputs, name, value)
    capsys.readouterr()
    if command == "resume":
        # not the outputs file the marker recorded: dispatched again
        assert main(["run", "--manifest", str(manifest), "--resume"]) == 0
        summary = json.loads((run_dir / "summary.json").read_text("utf-8"))
        assert summary["inference_calls"] == 10
        assert {p: p.read_bytes() for p in clean} == clean
        return
    assert main(["extract", "--outputs", str(outputs)]) == 1
    err = capsys.readouterr().err
    assert "error[RowParseError]: row 2:" in err
    assert name in err


@pytest.mark.parametrize("name,value", [
    ("segment_id", True),
    ("span", [1]),
    ("span", [1, 2.0]),
    ("score", "x"),
    ("score", float("inf")),
    ("reason", 5),
    ("score", 5000.0),
    ("score", -0.5),
    ("reason", "NoNumericMatch"),
])
def test_mistyped_extractions_row_is_row_parse_error(tmp_path, capsys, name,
                                                     value):
    _finished_run(tmp_path)
    extractions, = (tmp_path / "run" / "extractions").iterdir()
    _mistype_second_row(extractions, name, value)
    capsys.readouterr()
    assert main(["score", "--manifest",
                 str(tmp_path / "data" / "corpora.jsonl"), "--extractions",
                 str(extractions), "--pair", "en-gu", "--template", "ag",
                 "--out", str(tmp_path / "score")]) == 1
    err = capsys.readouterr().err
    assert "error[RowParseError]: row 2:" in err
    assert name in err


@pytest.mark.parametrize("name,value,args", [
    ("spearman_rho", "x", []),
    ("n_excluded", "3", ["--detailed"]),
    ("pair", 5, ["--detailed"]),
    ("pearson_r", None, ["--metric", "r"]),
    ("kendall_tau", 1.5, ["--metric", "tau"]),
    ("p_value", 1.5, []),
    ("exclusion_reasons", {"Ambiguous": "2"}, []),
])
def test_mistyped_summary_report_is_manifest_error(tmp_path, capsys, name,
                                                    value, args):
    _finished_run(tmp_path)
    path = tmp_path / "run" / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["reports"][0][name] = value
    path.write_text(json.dumps(summary), encoding="utf-8")
    capsys.readouterr()
    assert main(["table", "--run-dir", str(tmp_path / "run"), *args]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert name in err


def test_summary_report_of_an_unknown_template_is_manifest_error(tmp_path,
                                                                 capsys):
    _finished_run(tmp_path)
    path = tmp_path / "run" / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["reports"][0]["template"] = "foo"
    path.write_text(json.dumps(summary), encoding="utf-8")
    capsys.readouterr()
    assert main(["table", "--run-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert "'foo'" in err


@pytest.mark.parametrize("part,name,value", [
    ("report", "spearman_rho", "x"),
    ("report", "n_used", None),
    ("ledger", "total", "10"),
    ("ledger", "reasons", []),
])
def test_report_file_failing_its_reader_on_resume_is_typed_error(
        tmp_path, capsys, part, name, value):
    # the marker is made to vouch for the edited report, so the combo is
    # skipped and its report file read back
    manifest, _ = _finished_run(tmp_path)
    report_path, = (tmp_path / "run" / "reports").iterdir()
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    doc[part][name] = value
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    marker_path = tmp_path / "run" / "fingerprints" / report_path.name
    marker = json.loads(marker_path.read_text(encoding="utf-8"))
    marker["artifacts"]["report"] = hashlib.sha256(
        report_path.read_bytes()).hexdigest()
    marker_path.write_text(json.dumps(marker), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--manifest", str(manifest), "--resume"]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert str(report_path) in err and name in err


@pytest.mark.parametrize("row,named", [
    ({"definition": "wl.json"}, "name"),
    ({"name": 5, "definition": 3}, "name"),
    ({"name": "words", "definition": ["wl.json"]}, "definition"),
])
def test_mistyped_tokenizer_row_is_row_parse_error(tmp_path, capsys, row,
                                                   named):
    corpora = write_corpus_manifest(
        tmp_path / "data", [synthetic_corpus("en-gu", n_train=20, n_test=10)])
    (tmp_path / "wl.json").write_text(json.dumps({"kind": "word_level"}),
                                      encoding="utf-8")
    tokenizers = tmp_path / "tokenizers.jsonl"
    tokenizers.write_text(
        json.dumps({"name": "words", "definition": "wl.json"}) + "\n"
        + json.dumps(row) + "\n", encoding="utf-8")
    assert main(["fertility", "--manifest", str(corpora), "--tokenizers",
                 str(tokenizers), "-k", "5"]) == 1
    err = capsys.readouterr().err
    assert "error[RowParseError]: row 2:" in err
    assert named in err


@pytest.mark.parametrize("edit,named", [
    (lambda rows: rows[1]["prompt_ref"].update(segment_id=999),
     "segment 999 of en-gu"),
    (lambda rows: [row["prompt_ref"].update(pair="si-en") for row in rows],
     "segment 1 of si-en"),
], ids=["unknown-segment", "other-pair"])
def test_score_over_another_splits_rows_is_manifest_error(tmp_path, capsys,
                                                          edit, named):
    # a row naming a segment the en-gu test split lacks, and ten si-en rows
    # scored against en-gu's gold scores
    _finished_run(tmp_path)
    extractions, = (tmp_path / "run" / "extractions").iterdir()
    rows = [json.loads(line) for line in
            extractions.read_text(encoding="utf-8").splitlines()]
    edit(rows)
    extractions.write_text("".join(json.dumps(r) + "\n" for r in rows),
                           encoding="utf-8")
    capsys.readouterr()
    assert main(["score", "--manifest",
                 str(tmp_path / "data" / "corpora.jsonl"), "--extractions",
                 str(extractions), "--pair", "en-gu", "--template", "ag",
                 "--out", str(tmp_path / "score")]) == 1
    err = capsys.readouterr().err
    assert "error[ManifestError]" in err
    assert named in err and "en-gu test split" in err
    assert not (tmp_path / "score").exists()


def _fertility_error(tmp_path, capsys, spec: dict) -> tuple[Path, str]:
    """The definition's path and the stderr of a fertility command whose
    one tokenizer is defined by spec, which must fail."""
    corpora = write_corpus_manifest(
        tmp_path / "data", [synthetic_corpus("en-gu", n_train=20, n_test=10)])
    definition = tmp_path / "tok.json"
    definition.write_text(json.dumps(spec), encoding="utf-8")
    tokenizers = tmp_path / "tokenizers.jsonl"
    tokenizers.write_text(json.dumps({"name": "tok", "definition": "tok.json"})
                          + "\n", encoding="utf-8")
    assert main(["fertility", "--manifest", str(corpora), "--tokenizers",
                 str(tokenizers), "-k", "5"]) == 1
    return definition, capsys.readouterr().err


def test_malformed_tokenizer_definition_is_typed_error(tmp_path, capsys):
    definition, err = _fertility_error(tmp_path, capsys,
                                       {"kind": "bpe", "merges": 5})
    assert "error[TokenizerDefinitionError]" in err
    assert str(definition) in err and "merges" in err


@pytest.mark.parametrize("spec,named", [
    ({"kind": "bpe", "merges": []}, "no merges"),
    ({"kind": "unigram", "pieces": []}, "no pieces"),
])
def test_empty_tokenizer_definition_names_its_file(tmp_path, capsys, spec,
                                                   named):
    definition, err = _fertility_error(tmp_path, capsys, spec)
    assert f"error[TokenizerDefinitionError]: {definition}: " in err
    assert named in err


# -- a file the run cannot write ----------------------------------------------

_STEM = "en-gu__ag__mock-model__seed3"


@pytest.mark.parametrize("blocked,resume", [
    (f"reports/{_STEM}.json", True),
    (f"fingerprints/{_STEM}.json", False),
    ("summary.json", False),
    ("log.txt", False),
    ("outputs", False),
], ids=["report", "marker", "summary", "log", "outputs-dir"])
def test_unwritable_path_is_typed_error(tmp_path, capsys, blocked, resume):
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"})
    out = tmp_path / "run"
    path = out / blocked
    if resume:  # a finished run whose report is then blocked
        assert main(["run", "--manifest", str(manifest)]) == 0
        path.unlink()
    path.parent.mkdir(parents=True, exist_ok=True)
    if blocked == "outputs":
        path.write_text("a file where a directory goes\n", encoding="utf-8")
    else:
        path.mkdir()
    capsys.readouterr()

    argv = ["run", "--manifest", str(manifest)] + (["--resume"] if resume
                                                   else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error[FileUnwritable]: cannot write {path}: " in err
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["extract", "score", "fertility",
                                     "export-sft"])
def test_out_dir_blocked_by_a_file_is_typed_error(tmp_path, capsys, command):
    manifest = _run_manifest_file(tmp_path, mock={"policy": "echo-score"})
    assert main(["run", "--manifest", str(manifest)]) == 0
    corpora = str(tmp_path / "data" / "corpora.jsonl")
    (tmp_path / "words.json").write_text(json.dumps({"kind": "word_level"}),
                                         encoding="utf-8")
    tokenizers = tmp_path / "tokenizers.jsonl"
    tokenizers.write_text(json.dumps({"name": "words",
                                      "definition": "words.json"}) + "\n",
                          encoding="utf-8")
    argv = {
        "extract": ["--outputs", tmp_path / "run" / "outputs"
                    / f"{_STEM}.jsonl"],
        "score": ["--manifest", corpora, "--extractions",
                  tmp_path / "run" / "extractions" / f"{_STEM}.jsonl",
                  "--pair", "en-gu", "--template", "ag"],
        "fertility": ["--manifest", corpora, "--tokenizers", tokenizers,
                      "-k", "5"],
        "export-sft": ["--manifest", corpora, "--mode", "umt"],
    }[command]
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory goes\n", encoding="utf-8")
    capsys.readouterr()

    assert main([command, *map(str, argv), "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert f"error[FileUnwritable]: cannot write {blocker}: " in err
    assert blocker.read_text(encoding="utf-8") == \
        "a file where a directory goes\n"
