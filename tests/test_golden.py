"""Golden digests: a seeded mock run, the CLI render and export-sft outputs,
and every table render must stay byte-identical across refactors.

The digests were computed once and are pinned here; a change to any of them
is a change of on-disk behaviour and needs to be deliberate. log.txt and
manifest.json are left out of the run digest because they hold wall-clock
timestamps and absolute paths.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from qeharness.cli import main
from qeharness.pipeline import (RunManifest, render_detailed_table,
                                render_table, run)
from qeharness.prompts import TemplateId

from conftest import synthetic_corpus, write_corpus_manifest
from test_pipeline import SYNTH_REPORTS

PAIRS = ("en-gu", "si-en")

# run kwargs per golden run; the model name exercises file-name sanitizing
# and the fail run sets an ICL seed of its own
RUNS = {
    "echo-score": {"mock": {"policy": "echo-score"}},
    "garbage": {"mock": {"policy": "garbage", "p": 0.3}},
    "fail": {"mock": {"policy": "fail", "segment_ids": [2, 5, 11]},
             "icl_seed": 11},
}

RUN_DIGESTS = {
    "echo-score": "b7e7acb9af452b7f8d52e9b6eba22c763e4890d97ae18ffa9b027ab75395d04f",
    "garbage": "b5a80381ef18237031292b5dc97624e9dc664c7d270df4e2937a955e4c602661",
    "fail": "4c3b4c4e08488f6a4dc90d3bbdd733e3e89d03328b0a9032f7f98b0e9444f4bd",
}

RENDER_DIGEST = (
    "37988a091364f0ee99e57e8da0299baea27c62df0fe33962cfcd71721cedab02")
EXPORT_SFT_DIGEST = (
    "235323dee0603d8f9e8bd3578e8a71fe992031c54da2c44c750627d68e281471")
# a pooled export of more records than one chunk of sft_export's streaming
# writer (4,096), with one pair on each side of a chunk's size
POOLED_SFT_TRAIN = {"en-gu": 4095, "en-hi": 4097, "si-en": 1200}
EXPORT_SFT_POOLED_DIGEST = (
    "41fef527f2c2effa45de0546a99214f7b5e0d5b8c60f6928d72434ea9dba867d")

TABLE_DIGESTS = {
    ("table", "plain"):
        "9f33df812731c079db0d3ce71de9a9d8631b537d3eff22a369bf2eb43bc1181d",
    ("table", "tsv"):
        "bfaee31d98424fdb4ec49a1e95f8f24d28fc24a4d5b64df35c5095e330c88bf6",
    ("table", "markdown"):
        "58035b430b5d3c29728b54774c2ba3561ebf4098bda21659831fa672a892433b",
    ("detailed", "plain"):
        "f46eab6a1ddda194f4921f84d90c1c4e531a4b60812cac8de9ce81f212227bdd",
    ("detailed", "tsv"):
        "92aa603667d199ddf29d2cb815eb0b6054d96fa1215b7c1203f65e4d114b3ecd",
    ("detailed", "markdown"):
        "15878ea57c7bf03a048bb29ef1a9f5e0634a9e6efff28f90b302d8662e8a164d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(root: Path, names) -> str:
    """Digest of the relative paths and contents of every file under the
    given top-level names of root, in sorted order."""
    h = hashlib.sha256()
    for name in names:
        top = root / name
        for path in sorted(top.rglob("*")) if top.is_dir() else [top]:
            if path.is_file():
                h.update(path.relative_to(root).as_posix().encode() + b"\0")
                h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpora_manifest(tmp_path_factory) -> Path:
    corpora = [synthetic_corpus(pair, n_train=120, n_test=30, seed=3 + i)
               for i, pair in enumerate(PAIRS)]
    return write_corpus_manifest(tmp_path_factory.mktemp("golden"), corpora)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_mock_run_artifacts_are_golden(name, corpora_manifest, tmp_path):
    manifest = RunManifest.from_dict({
        "corpora_manifest": str(corpora_manifest),
        "templates": [t.value for t in TemplateId],
        "out_dir": str(tmp_path / "run"),
        "seed": 5,
        "inference": {"model_name": "org/m", "max_in_flight": 2,
                      "retry_backoff_base": 0.0},
        **RUNS[name],
    })
    run(manifest)
    digest = _tree_digest(tmp_path / "run", ("prompts", "outputs",
                                             "extractions", "reports",
                                             "summary.json"))
    assert digest == RUN_DIGESTS[name]


def test_cli_render_is_golden(corpora_manifest, tmp_path, capsys):
    out_file = tmp_path / "prompts.jsonl"
    args = ["render", "--manifest", str(corpora_manifest),
            "--template", "ag_icl5", "--seed", "4"]
    assert main(args + ["--out", str(out_file)]) == 0
    assert _sha(out_file.read_bytes()) == RENDER_DIGEST
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out_file.read_bytes()


def test_cli_export_sft_is_golden(corpora_manifest, tmp_path):
    out_dir = tmp_path / "sft"
    assert main(["export-sft", "--manifest", str(corpora_manifest),
                 "--mode", "ilt", "--seed", "2", "--out", str(out_dir)]) == 0
    assert _tree_digest(tmp_path, ["sft"]) == EXPORT_SFT_DIGEST


def test_cli_export_sft_pooled_over_several_chunks_is_golden(tmp_path):
    corpora = [synthetic_corpus(pair, n_train=n, n_test=5, seed=7 + i)
               for i, (pair, n) in enumerate(POOLED_SFT_TRAIN.items())]
    manifest = write_corpus_manifest(tmp_path / "data", corpora)
    assert main(["export-sft", "--manifest", str(manifest), "--mode", "umt",
                 "--seed", "3", "--out", str(tmp_path / "sft")]) == 0
    assert _tree_digest(tmp_path, ["sft"]) == EXPORT_SFT_POOLED_DIGEST


@pytest.mark.parametrize("kind,fmt", sorted(TABLE_DIGESTS))
def test_table_renders_are_golden(kind, fmt):
    if kind == "table":
        text = render_table(SYNTH_REPORTS, metric="rho", fmt=fmt)
    else:
        text = render_detailed_table(SYNTH_REPORTS, fmt=fmt)
    assert _sha(text.encode("utf-8")) == TABLE_DIGESTS[(kind, fmt)]
