from __future__ import annotations

import csv
import json
import logging
import os
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path

import pytest

import qeharness.pipeline as pipeline
from qeharness.corpus import Corpus, LangPair, Segment, Split
from qeharness.errors import EndpointMissing, ManifestError, TemplateMissing
from qeharness.extraction import ExtractionResult
from qeharness.gateway import (EchoScore, Fixed, Garbage, Fail, MockBackend,
                               PromptRef, gold_map)
from qeharness.metrics import CorrelationReport, Significance, significance_of
from qeharness.pipeline import (ERROR_TAXONOMY, RunManifest, build_mock_policy,
                                build_result_table, render_detailed_table,
                                render_table, run, worst_deviations,
                                write_worst_tsv)

from conftest import synthetic_corpus, write_corpus_manifest


def _run_manifest(tmp_path, pairs_sizes=None, *, templates=("ag",),
                  mock={"policy": "echo-score"}, out_name="run",
                  **extra) -> RunManifest:
    pairs_sizes = pairs_sizes or {"en-gu": (40, 25)}
    corpora = [synthetic_corpus(p, n_train=tr, n_test=te)
               for p, (tr, te) in pairs_sizes.items()]
    manifest_path = write_corpus_manifest(tmp_path / "data", corpora)
    doc = {
        "corpora_manifest": str(manifest_path),
        "templates": list(templates),
        "out_dir": str(tmp_path / out_name),
        "seed": 7,
        "inference": {"model_name": "mock-model", "max_in_flight": 4,
                      "retry_backoff_base": 0.0},
        "mock": mock,
    }
    doc.update(extra)
    return RunManifest.from_dict(doc)


# -- manifest ---------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    manifest = _run_manifest(tmp_path)
    assert RunManifest.from_dict(manifest.to_dict()) == manifest


def test_manifest_from_json(tmp_path):
    manifest = _run_manifest(tmp_path)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest.to_dict()), encoding="utf-8")
    assert RunManifest.from_json(path) == manifest


def test_manifest_rejects_unknown_template(tmp_path):
    with pytest.raises(ManifestError):
        RunManifest.from_dict({"corpora_manifest": "x", "out_dir": "y",
                               "templates": ["nope"]})


def test_manifest_file_missing():
    with pytest.raises(ManifestError):
        RunManifest.from_json("/nonexistent/run.json")


def test_mock_policy_parsing():
    assert isinstance(build_mock_policy({"policy": "echo-score"}), EchoScore)
    offset = build_mock_policy({"policy": "echo-score", "offset": 5.0})
    assert offset == EchoScore(5.0)
    assert build_mock_policy({"policy": "fixed", "text": "hi"}) == Fixed("hi")
    assert build_mock_policy({"policy": "garbage", "p": 0.25}) == Garbage(0.25)
    fail = build_mock_policy({"policy": "fail", "segment_ids": [3, 5]})
    assert isinstance(fail, Fail)
    assert fail.segment_ids == frozenset({3, 5})
    with pytest.raises(ManifestError):
        build_mock_policy({"policy": "wat"})


def test_mock_arg_and_manifest_give_equal_policies():
    from qeharness.pipeline import parse_mock_arg
    assert (build_mock_policy(parse_mock_arg("echo-score:5"))
            == build_mock_policy({"policy": "echo-score", "offset": 5.0}))


def test_mock_arg_and_manifest_share_defaults():
    from qeharness.pipeline import parse_mock_arg
    for kind in ("echo-score", "fixed", "garbage", "fail"):
        assert (build_mock_policy(parse_mock_arg(kind))
                == build_mock_policy({"policy": kind}))
    assert build_mock_policy({"policy": "garbage"}) == Garbage(0.1)
    assert parse_mock_arg("fail:3,5") == {"policy": "fail",
                                          "segment_ids": [3, 5]}
    with pytest.raises(ManifestError):
        parse_mock_arg("wat:1")


# -- run ---------------------------------------------------------------------------

def test_run_identity_mock_end_to_end(tmp_path):
    manifest = _run_manifest(tmp_path)
    result = run(manifest)

    assert result.errors == {}
    assert result.inference_calls == 25
    assert len(result.reports) == 1
    report = result.reports[0]
    assert report.pearson_r == 1.0
    assert report.spearman_rho == 1.0
    assert report.kendall_tau == 1.0
    assert report.n_excluded == 0

    out = Path(manifest.out_dir)
    assert (out / "manifest.json").is_file()
    assert (out / "summary.json").is_file()
    prompts = list((out / "prompts").glob("*.jsonl"))
    outputs = list((out / "outputs").glob("*.jsonl"))
    assert len(prompts) == 1 and len(outputs) == 1
    assert len(outputs[0].read_text().splitlines()) == 25


def test_run_resume_skips_persisted_outputs(tmp_path):
    manifest = _run_manifest(tmp_path)
    first = run(manifest)
    assert first.inference_calls == 25

    resumed = RunManifest.from_dict({**manifest.to_dict(), "resume": True})
    second = run(resumed)
    assert second.inference_calls == 0
    assert second.reports[0] == first.reports[0]


def test_run_without_resume_redispatches(tmp_path):
    manifest = _run_manifest(tmp_path)
    run(manifest)
    again = run(manifest)
    assert again.inference_calls == 25


def test_run_byte_identical_across_runs(tmp_path):
    manifest_a = _run_manifest(tmp_path, out_name="a",
                               templates=("ag", "ag_icl5"))
    manifest_b = RunManifest.from_dict({**manifest_a.to_dict(),
                                        "out_dir": str(tmp_path / "b")})
    run(manifest_a)
    run(manifest_b)

    files_a = sorted(p for p in Path(manifest_a.out_dir).rglob("*")
                     if p.is_file() and p.name != "log.txt"
                     and p.name != "manifest.json")
    files_b = sorted(p for p in Path(manifest_b.out_dir).rglob("*")
                     if p.is_file() and p.name != "log.txt"
                     and p.name != "manifest.json")
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_run_pairs_filter(tmp_path):
    manifest = _run_manifest(tmp_path, {"en-gu": (40, 10), "si-en": (40, 10)},
                             pairs=["si-en"])
    result = run(manifest)
    assert [r.pair for r in result.reports] == ["si-en"]
    assert result.inference_calls == 10


def test_run_reads_only_selected_pairs(tmp_path):
    manifest = _run_manifest(tmp_path, {"en-gu": (40, 10), "si-en": (40, 10)},
                             pairs=["si-en"])
    for split in ("train", "test"):
        (tmp_path / "data" / f"en-gu.{split}.tsv").unlink()
    result = run(manifest)
    assert [r.pair for r in result.reports] == ["si-en"]
    assert result.inference_calls == 10


def test_context_overflow_is_not_counted_as_dispatched(tmp_path):
    manifest = _run_manifest(tmp_path, {"en-gu": (40, 10)}, inference={
        "model_name": "mock-model", "max_context_tokens": 10})
    test = synthetic_corpus("en-gu", n_train=40, n_test=10).test
    backend = MockBackend(EchoScore(), gold=gold_map(test))
    result = run(manifest, backend=backend)
    assert backend.calls == 0
    assert result.inference_calls == 0
    out = Path(manifest.out_dir)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["inference_calls"] == 0
    log = (out / "log.txt").read_text()
    assert "en-gu/ag: 0 dispatched, 0 resumed" in log
    assert "run end: 0 prompts dispatched" in log


def test_run_icl_template_uses_train_exemplars(tmp_path):
    manifest = _run_manifest(tmp_path, {"en-gu": (100, 10)},
                             templates=("ag_icl5",))
    result = run(manifest)
    assert result.reports[0].spearman_rho == 1.0
    prompts_file = next((Path(manifest.out_dir) / "prompts").glob("*.jsonl"))
    first_prompt = json.loads(prompts_file.read_text().splitlines()[0])
    # five exemplar scores precede the unscored target
    assert first_prompt["text"].count("Score:") == 6


def test_run_garbage_mock_fills_ledger(tmp_path):
    manifest = _run_manifest(tmp_path, {"en-gu": (40, 200)},
                             mock={"policy": "garbage", "p": 0.2})
    result = run(manifest)
    report = result.reports[0]
    assert report.n_excluded > 0
    assert report.n_used + report.n_excluded == 200
    assert report.spearman_rho == pytest.approx(1.0, abs=1e-12)
    ledger = result.ledgers[0]
    assert ledger.excluded_count == report.n_excluded
    assert report.exclusion_reasons == ledger.reasons


def test_resume_over_torn_outputs_line_dispatches_again(tmp_path):
    manifest = _run_manifest(tmp_path)
    run(manifest)
    out = Path(manifest.out_dir)
    clean = {p: p.read_bytes() for sub in ("prompts", "outputs", "extractions",
                                           "reports", "fingerprints")
             for p in (out / sub).iterdir()}
    outputs = next((out / "outputs").glob("*.jsonl"))
    with outputs.open("a", encoding="utf-8") as fh:
        fh.write('{"prompt_ref": {"pair": "en-gu", "segm')
    resumed = RunManifest.from_dict({**manifest.to_dict(), "resume": True})
    # the torn file is not the one its marker recorded, so it is rebuilt
    assert run(resumed).inference_calls == 25
    assert {p: p.read_bytes() for p in clean} == clean


def test_run_fail_fast_on_missing_templates(tmp_path):
    manifest = _run_manifest(tmp_path,
                             template_dir=str(tmp_path / "no-templates"))
    with pytest.raises(TemplateMissing):
        run(manifest)


def test_run_requires_endpoint_or_mock(tmp_path):
    manifest = _run_manifest(tmp_path, mock=None)
    with pytest.raises(EndpointMissing):
        run(manifest)


def test_run_all_garbage_records_error_not_crash(tmp_path):
    manifest = _run_manifest(tmp_path, {"en-gu": (40, 20)},
                             mock={"policy": "fixed", "text": "no score"})
    result = run(manifest)
    assert result.reports == []
    assert ("en-gu", "ag") in result.errors
    assert "TooFewPairs" in result.errors[("en-gu", "ag")]
    summary = json.loads((Path(manifest.out_dir) / "summary.json").read_text())
    assert summary["errors"]


# -- run log ------------------------------------------------------------------------

def _sparse_manifest(tmp_path, **extra) -> RunManifest:
    """An ag_icl5 mock run over en-gu with 5 train segments, none in the
    71-90 bin, and 6 test segments: both splits are short of the published
    sizes, and the empty bin falls back to its neighbour."""
    pair = LangPair.parse("en-gu")
    train = tuple(Segment(i, f"train source {i}", f"train mt {i}", score,
                          pair, Split.TRAIN)
                  for i, score in enumerate((10.0, 20.0, 40.0, 60.0, 95.0),
                                            start=1))
    test = synthetic_corpus("en-gu", n_train=0, n_test=6).test
    corpora = write_corpus_manifest(tmp_path / "data",
                                    [Corpus(pair, train, test)])
    doc = {"corpora_manifest": str(corpora), "templates": ["ag_icl5"],
           "out_dir": str(tmp_path / "run"), "seed": 7,
           "inference": {"model_name": "mock-model"},
           "mock": {"policy": "echo-score"}, **extra}
    return RunManifest.from_dict(doc)


_FALLBACK = "bin 71-90 has no unused exemplar for en-gu; substituting from"


def test_run_log_holds_the_package_records(tmp_path):
    manifest = _sparse_manifest(tmp_path)
    test = synthetic_corpus("en-gu", n_train=0, n_test=6).test
    gold = gold_map(test)
    del gold[("en-gu", 4)]  # the mock raises KeyError on segment 4
    # a backend that waits is called from a pool thread
    backend = MockBackend(EchoScore(), gold=gold, latency=0.001)
    result = run(manifest, backend=backend)
    assert result.inference_calls == 6
    lines = (tmp_path / "run" / "log.txt").read_text(
        encoding="utf-8").splitlines()
    stamped = [line for line in lines if line[:4].isdigit()]
    assert all(line[4] + line[7] + line[10] + line[13] + line[16] + line[19]
               == "--T:: " for line in stamped)
    messages = [line[20:] for line in stamped]
    assert messages[0] == "run start: 1 pairs, 1 templates"
    assert "en-gu train split has 5 segments, expected 7000" in messages
    assert "en-gu test split has 6 segments, expected 1000" in messages
    assert any(m.startswith(_FALLBACK) for m in messages)
    assert any(m.startswith("backend raised on PromptRef(pair='en-gu', "
                            "segment_id=4") for m in messages)
    assert "KeyError: \"mock backend has no gold score for ('en-gu', 4)\"" \
        in lines
    assert "en-gu/ag_icl5: 6 dispatched, 0 resumed" in messages
    assert messages[-1] == "run end: 6 prompts dispatched"


@pytest.mark.parametrize("raised", [None, ManifestError("refused"),
                                    KeyboardInterrupt()])
@pytest.mark.parametrize("preset", [False, True])
def test_run_restores_the_package_logger(tmp_path, monkeypatch, raised,
                                         preset):
    logger = logging.getLogger("qeharness")
    saved_level = logger.level
    own = logging.NullHandler()
    if preset:  # an application's own handler and level
        logger.addHandler(own)
        logger.setLevel(logging.ERROR)
    before = (list(logger.handlers), logger.level)
    opened = []
    real = logging.FileHandler

    def file_handler(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    def complete_batch(*args):
        raise raised

    monkeypatch.setattr(logging, "FileHandler", file_handler)
    if raised is not None:
        monkeypatch.setattr(pipeline, "complete_batch", complete_batch)
    try:
        with pytest.raises(type(raised)) if raised else nullcontext():
            run(_run_manifest(tmp_path))
        after = (list(logger.handlers), logger.level)
    finally:
        logger.removeHandler(own)
        logger.setLevel(saved_level)
    assert after == before
    assert len(opened) == 1 and opened[0].stream is None  # closed
    logged = (tmp_path / "run" / "log.txt").read_text()
    assert "run start" in logged
    if isinstance(raised, KeyboardInterrupt):  # the pair's lines are kept
        assert "en-gu train split has 40 segments, expected 7000" in logged


def test_overlapping_runs_take_turns_on_the_package_logger(tmp_path):
    logger = logging.getLogger("qeharness")
    before = (list(logger.handlers), logger.level)
    sizes = {"en-gu": 300, "si-en": 200, "et-en": 100}  # more runs than cores
    manifests = {pair: _run_manifest(tmp_path / pair, {pair: (40, n)},
                                     templates=("ag", "te"))
                 for pair, n in sizes.items()}
    barrier = threading.Barrier(len(manifests))

    def start(manifest):
        barrier.wait()
        run(manifest)

    threads = [threading.Thread(target=start, args=(m,))
               for m in manifests.values()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for pair, manifest in manifests.items():
        text = (Path(manifest.out_dir) / "log.txt").read_text(encoding="utf-8")
        messages = [line[20:] for line in text.splitlines()]
        assert [m for m in messages if m.startswith("run start")] == \
            ["run start: 1 pairs, 2 templates"]
        assert f"{pair}/te: {sizes[pair]} dispatched, 0 resumed" in messages
        assert messages[-1] == f"run end: {2 * sizes[pair]} prompts dispatched"
        assert not any(other in text for other in sizes if other != pair)
    assert (list(logger.handlers), logger.level) == before


def test_run_warnings_reach_stderr_without_logging_configured(tmp_path):
    manifest = _sparse_manifest(tmp_path)
    manifest_path = tmp_path / "run.json"
    manifest_path.write_text(json.dumps(manifest.to_dict()), encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "qeharness.cli", "run", "--manifest",
         str(manifest_path)], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert _FALLBACK in done.stderr
    # INFO lines go to log.txt only, as before
    assert "run start" not in done.stderr
    assert "split has" not in done.stderr
    log = (tmp_path / "run" / "log.txt").read_text(encoding="utf-8")
    assert _FALLBACK in log and "split has 5 segments" in log


# -- result tables ------------------------------------------------------------------

def _report(pair, template, model, rho, p, r=None, tau=None, n_excluded=0):
    return CorrelationReport(
        pair=pair, template=template, model=model,
        n_used=100 - n_excluded, n_excluded=n_excluded,
        pearson_r=r if r is not None else rho,
        spearman_rho=rho,
        kendall_tau=tau if tau is not None else rho,
        t_stat=1.0, p_value=p, significance=significance_of(p))


SYNTH_REPORTS = [
    _report("en-gu", "gemba", "alpha", 0.100, 0.001),
    _report("en-gu", "gemba", "beta", 0.240, 0.02),
    _report("en-gu", "ag", "alpha", 0.150, 0.20),
    _report("en-gu", "ag", "beta", 0.200, 0.01),
    _report("en-gu", "ag_icl5", "alpha", 0.260, 0.004),
    _report("en-gu", "ag_icl5", "beta", 0.180, 0.03),
    _report("et-en", "gemba", "alpha", 0.300, 0.0001),
    _report("et-en", "gemba", "beta", 0.550, 0.0001),
    _report("et-en", "ag", "alpha", 0.610, 0.0001),
    _report("et-en", "ag", "beta", 0.420, 0.0001),
    _report("et-en", "ag_icl5", "alpha", 0.580, 0.0001),
    _report("et-en", "ag_icl5", "beta", 0.560, 0.06),
]

GOLDEN_PLAIN_TABLE = """\
metric: rho    markers: * best zero-shot | ^ best ICL | # best overall | † p > 0.05
pair   template  alpha    beta
en-gu  gemba     0.100    0.240*
en-gu  ag        0.150†   0.200
en-gu  ag_icl5   0.260^#  0.180
et-en  gemba     0.300    0.550
et-en  ag        0.610*#  0.420
et-en  ag_icl5   0.580^   0.560†
"""


def test_render_table_matches_golden():
    assert render_table(SYNTH_REPORTS, metric="rho",
                        fmt="plain") == GOLDEN_PLAIN_TABLE


def test_table_marker_soundness():
    table = build_result_table(SYNTH_REPORTS, metric="rho")
    for pair in table.pairs:
        cells = [table.cells[k] for k in table.cells if k[0] == pair]
        assert sum(c.overall_best for c in cells) == 1
        assert sum(c.zero_shot_best for c in cells) == 1
        assert sum(c.icl_best for c in cells) == 1
    for key, cell in table.cells.items():
        report = next(r for r in SYNTH_REPORTS
                      if (r.pair, r.template, r.model) == key)
        assert cell.insignificant == (report.significance is Significance.NS)
        assert cell.insignificant == (report.p_value > 0.05)


def test_table_tie_breaks_to_single_marker():
    reports = [
        _report("en-gu", "gemba", "alpha", 0.5, 0.001),
        _report("en-gu", "gemba", "beta", 0.5, 0.001),
        _report("en-gu", "te", "alpha", 0.5, 0.001),
    ]
    table = build_result_table(reports, metric="rho")
    cells = list(table.cells.values())
    assert sum(c.overall_best for c in cells) == 1
    assert sum(c.zero_shot_best for c in cells) == 1
    # the first cell in template-then-model order wins
    assert table.cells[("en-gu", "gemba", "alpha")].overall_best


def test_table_dagger_iff_not_significant():
    report = _report("en-gu", "ag", "alpha", 0.3, 0.20)
    text = render_table([report], metric="rho", fmt="plain")
    assert "0.300*#†" in text


def test_table_missing_cells_render_dash():
    reports = [_report("en-gu", "gemba", "alpha", 0.1, 0.01),
               _report("en-gu", "ag", "beta", 0.2, 0.01)]
    text = render_table(reports, metric="rho", fmt="plain")
    assert "—" in text


def test_table_tsv_and_markdown_formats():
    tsv = render_table(SYNTH_REPORTS, metric="rho", fmt="tsv")
    lines = tsv.splitlines()
    assert lines[0] == "pair\ttemplate\talpha\tbeta"
    assert lines[5] == "et-en\tag\t0.610*#\t0.420"

    markdown = render_table(SYNTH_REPORTS, metric="rho", fmt="markdown")
    assert "| en-gu | ag_icl5 | <u>**0.260**</u> | 0.180 |" in markdown
    assert "**0.610**\\*" in markdown
    assert "0.560†" in markdown


def test_pairs_outside_the_studied_set_sort_after_it():
    reports = [_report(pair, "ag", "alpha", 0.2, 0.01)
               for pair in ("fr-de", "si-en", "aa-bb", "en-gu")]
    table = build_result_table(reports, metric="rho")
    assert table.pairs == ["en-gu", "si-en", "aa-bb", "fr-de"]


def test_table_metric_selection():
    reports = [_report("en-gu", "ag", "alpha", rho=0.2, p=0.01, r=0.9,
                       tau=0.1)]
    assert "0.900" in render_table(reports, metric="r", fmt="plain")
    assert "0.100" in render_table(reports, metric="tau", fmt="plain")
    with pytest.raises(ValueError):
        render_table(reports, metric="sigma")


def test_detailed_table_has_all_coefficients_and_exclusions():
    reports = [
        _report("en-ta", "gemba", "alpha", 0.22, 0.001, r=0.35, tau=0.18,
                n_excluded=6),
        _report("en-ta", "te", "alpha", 0.02, 0.3, r=0.01, tau=0.01,
                n_excluded=14),
    ]
    text = render_detailed_table(reports, fmt="tsv")
    lines = text.splitlines()
    assert lines[0] == "pair\ttemplate\talpha:r\talpha:rho\talpha:tau\talpha:E"
    assert lines[1] == "en-ta\tgemba\t0.350\t0.220\t0.180\t6"
    # 14 excluded of 100 total is over the tolerated drop share
    assert lines[2] == "en-ta\tte\t0.010\t0.020\t0.010\t14*"


def _rows(tsv: str) -> list[tuple[str, str]]:
    return [tuple(line.split("\t")[:2]) for line in tsv.splitlines()[1:]]


@pytest.mark.parametrize("reports,rows", [
    (SYNTH_REPORTS, [(pair, template) for pair in ("en-gu", "et-en")
                     for template in ("gemba", "ag", "ag_icl5")]),
    ([_report("et-en", "ag_icl5", "beta", 0.3, 0.01),
      _report("en-gu", "ag", "alpha", 0.2, 0.01),
      _report("en-gu", "gemba", "beta", 0.1, 0.2)],
     [("en-gu", "gemba"), ("en-gu", "ag"), ("et-en", "ag_icl5")]),
])
def test_both_tables_list_the_same_rows(reports, rows):
    assert _rows(render_table(reports, fmt="tsv")) == rows
    assert _rows(render_detailed_table(reports, fmt="tsv")) == rows


def test_detailed_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_detailed_table(SYNTH_REPORTS, fmt="bogus")


# -- worst deviations ---------------------------------------------------------------

def _extraction(pair, seg_id, score):
    return ExtractionResult(PromptRef(pair, seg_id, "ag", 0), score)


def test_worst_deviation_rows_sorted_and_schema(tmp_path):
    corpus = synthetic_corpus("en-ta", n_train=5, n_test=10)
    results = []
    for i, seg in enumerate(corpus.test):
        pred = min(100.0, seg.da_mean + (10.0 if i % 2 else 1.0))
        results.append(_extraction("en-ta", seg.id, pred))
    rows = worst_deviations(corpus, results, k=3)
    assert len(rows) == 3
    assert rows[0]["abs_dev"] >= rows[1]["abs_dev"] >= rows[2]["abs_dev"]

    out = tmp_path / "worst.tsv"
    write_worst_tsv(rows, out)
    text = out.read_text()
    for label in ERROR_TAXONOMY:
        assert label in text  # vocabulary shipped in the header
    header = text.splitlines()[1]
    assert header.split("\t") == ["pair", "segment_id", "source",
                                  "translation", "gold", "pred", "abs_dev",
                                  "error_label"]


def test_worst_tsv_reads_back_field_for_field(tmp_path):
    # texts the corpus reader accepts from quoted TSV fields
    texts = [("a\tb", "x\ny"), ('say "hi"', "cr\rhere"), ("plain", "text")]
    rows = [{"pair": "en-ta", "segment_id": i, "source": source,
             "translation": translation, "gold": 50.0, "pred": 10.0 * i,
             "abs_dev": abs(50.0 - 10.0 * i)}
            for i, (source, translation) in enumerate(texts, start=1)]
    out = tmp_path / "worst.tsv"
    write_worst_tsv(rows, out)
    with out.open(encoding="utf-8", newline="") as fh:
        read = list(csv.reader(fh, dialect="excel-tab"))
    assert read[2:] == [[r["pair"], str(r["segment_id"]), r["source"],
                         r["translation"], str(r["gold"]), str(r["pred"]),
                         f"{r['abs_dev']:.2f}", ""] for r in rows]
    # a row without a tab, CR, LF or quote is written as it always was
    assert out.read_bytes().endswith(b"en-ta\t3\tplain\ttext\t50.0\t30.0"
                                     b"\t20.00\t\n")


def test_worst_deviations_skip_segments_the_corpus_lacks():
    corpus = synthetic_corpus("en-ta", n_train=5, n_test=4)
    results = [_extraction("en-ta", seg.id, 100.0 - seg.da_mean)
               for seg in corpus.test]
    results.append(_extraction("en-ta", 999, 0.0))  # not in the test split
    rows = worst_deviations(corpus, results, k=10)
    assert sorted(r["segment_id"] for r in rows) == \
        sorted(seg.id for seg in corpus.test)


@pytest.mark.parametrize("k", [0, -2])
def test_worst_deviations_refuse_a_count_below_one(k):
    corpus = synthetic_corpus("en-ta", n_train=5, n_test=4)
    results = [_extraction("en-ta", seg.id, 50.0) for seg in corpus.test]
    with pytest.raises(ValueError):
        worst_deviations(corpus, results, k=k)


def test_error_taxonomy_is_fixed():
    assert ERROR_TAXONOMY == (
        "Incorrect term", "Use of Entity", "Syntactic error", "Long-text",
        "Missing information", "Incomplete sentence", "Use of abbreviation",
        "Transliteration")
