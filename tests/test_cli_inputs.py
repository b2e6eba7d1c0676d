"""Malformed mock values and proxy settings exit through cli.main as typed
errors, before any run directory is written."""

from __future__ import annotations

import json

import pytest

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


@pytest.mark.parametrize("mock", ["garbage:x", "echo-score:five", "fail:1,a"])
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
