"""Resume over a run directory: finished combos whose fingerprint and
artifacts match are skipped without a write, outputs are reused whole only
when they are the bytes their marker recorded under the combo's
fingerprint, and a combo finished under other settings is dispatched again
instead of reusing its outputs."""

from __future__ import annotations

import json
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import qeharness
import qeharness.pipeline as pipeline
from qeharness.errors import FileUnreadable
from qeharness.pipeline import RunManifest, run

from conftest import synthetic_corpus, write_corpus_manifest

N_TEST = 20
TEMPLATES = ("ag", "ag_icl3")
ARTIFACT_DIRS = ("prompts", "outputs", "extractions", "reports")


def _manifest(tmp_path, **changes) -> RunManifest:
    data = tmp_path / "data"
    if not data.exists():
        write_corpus_manifest(data, [synthetic_corpus("en-gu", n_train=60,
                                                      n_test=N_TEST)])
    doc = {
        "corpora_manifest": str(data / "corpora.jsonl"),
        "templates": list(TEMPLATES),
        "out_dir": str(tmp_path / "run"),
        "seed": 7,
        "inference": {"model_name": "mock-model", "max_in_flight": 4,
                      "retry_backoff_base": 0.0},
        "mock": {"policy": "echo-score"},
        "resume": True,
    }
    inference = changes.pop("inference", {})
    doc.update(changes)
    doc["inference"] = {**doc["inference"], **inference}
    return RunManifest.from_dict(doc)


def _artifact_stats(out: Path) -> dict:
    return {p: (p.stat().st_mtime_ns, p.stat().st_ino)
            for sub in ARTIFACT_DIRS + ("fingerprints",)
            for p in sorted((out / sub).iterdir())}


@pytest.fixture
def counted(monkeypatch):
    """Counts of the pipeline's renders and JSONL writes: write_lines
    writes the prompt, outputs and extractions files."""
    counts = {"render": 0, "write_jsonl": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "render_prompts",
                        counting("render", pipeline.render_prompts))
    monkeypatch.setattr(pipeline, "write_lines",
                        counting("write_jsonl", pipeline.write_lines))
    return counts


def _flip_last_digit(path: Path) -> None:
    """Change the file's last ASCII digit, keeping it valid JSON."""
    data = bytearray(path.read_bytes())
    at = max(i for i, b in enumerate(data) if 0x30 <= b <= 0x39)
    data[at] = 0x30 + (data[at] - 0x30 + 1) % 10
    path.write_bytes(bytes(data))


# -- the skip ------------------------------------------------------------------

def test_noop_resume_writes_no_artifact(tmp_path, counted):
    manifest = _manifest(tmp_path)
    first = run(manifest)
    assert first.inference_calls == N_TEST * len(TEMPLATES)
    out = Path(manifest.out_dir)
    before = _artifact_stats(out)
    counted.update(render=0, write_jsonl=0)

    again = run(manifest)
    assert again.inference_calls == 0
    assert counted == {"render": 0, "write_jsonl": 0}
    assert _artifact_stats(out) == before
    assert again.reports == first.reports
    assert again.ledgers == first.ledgers
    assert "en-gu/ag: skipped" in (out / "log.txt").read_text()


def test_noop_resume_reproduces_summary(tmp_path):
    manifest = _manifest(tmp_path, mock={"policy": "garbage", "p": 0.3})
    run(manifest)
    summary = Path(manifest.out_dir) / "summary.json"
    before = summary.read_text(encoding="utf-8")
    assert run(manifest).inference_calls == 0
    after = summary.read_text(encoding="utf-8")
    calls = f'"inference_calls": {N_TEST * len(TEMPLATES)}'
    assert calls in before
    assert after == before.replace(calls, '"inference_calls": 0')


def test_noop_resume_of_a_failed_evaluation_keeps_its_error(tmp_path):
    manifest = _manifest(tmp_path, templates=["ag"],
                         mock={"policy": "fixed", "text": "no score"})
    first = run(manifest)
    assert first.errors
    again = run(manifest)
    assert again.inference_calls == 0
    assert again.errors == first.errors
    assert again.reports == []
    assert again.ledgers == first.ledgers


def test_changed_max_in_flight_still_skips(tmp_path, counted):
    run(_manifest(tmp_path))
    counted.update(render=0, write_jsonl=0)
    again = run(_manifest(tmp_path, inference={"max_in_flight": 1,
                                               "request_timeout": 5.0}))
    assert again.inference_calls == 0
    assert counted == {"render": 0, "write_jsonl": 0}


@pytest.mark.parametrize("kind", ARTIFACT_DIRS)
def test_changed_artifact_takes_the_full_path(tmp_path, counted, kind):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    out = Path(manifest.out_dir)
    path = next((out / kind).iterdir())
    original = path.read_bytes()
    _flip_last_digit(path)
    counted.update(render=0, write_jsonl=0)

    result = run(manifest)
    # outputs that are not the recorded bytes are dispatched again; any
    # other file is rebuilt from the outputs its marker vouches for
    assert result.inference_calls == (N_TEST if kind == "outputs" else 0)
    assert counted == {"render": 1, "write_jsonl": 3}
    assert path.read_bytes() == original
    named = (f"en-gu/ag: {path} is not the outputs file its marker "
             f"recorded; every prompt is dispatched again")
    assert (named in (out / "log.txt").read_text()) == (kind == "outputs")
    # the rewritten artifacts are recorded, so the next resume skips
    counted.update(render=0, write_jsonl=0)
    run(manifest)
    assert counted == {"render": 0, "write_jsonl": 0}


@pytest.mark.parametrize("kind", ARTIFACT_DIRS)
def test_deleted_artifact_takes_the_full_path(tmp_path, counted, kind):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    path = next((Path(manifest.out_dir) / kind).iterdir())
    original = path.read_bytes()
    path.unlink()
    counted.update(render=0, write_jsonl=0)

    result = run(manifest)
    # deleted outputs are dispatched again; any other file is rebuilt
    assert result.inference_calls == (N_TEST if kind == "outputs" else 0)
    assert counted == {"render": 1, "write_jsonl": 3}
    assert path.read_bytes() == original


def test_null_digest_does_not_vouch_for_a_missing_file(tmp_path, counted):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    out = Path(manifest.out_dir)
    marker = next((out / "fingerprints").iterdir())
    doc = json.loads(marker.read_text(encoding="utf-8"))
    doc["artifacts"]["prompts"] = None
    marker.write_text(json.dumps(doc), encoding="utf-8")
    prompts = next((out / "prompts").iterdir())
    original = prompts.read_bytes()
    prompts.unlink()
    counted.update(render=0, write_jsonl=0)

    # the outputs stay vouched for by the fingerprint, so none is dispatched
    assert run(manifest).inference_calls == 0
    assert counted == {"render": 1, "write_jsonl": 3}
    assert prompts.read_bytes() == original


def test_deleted_marker_takes_the_full_path(tmp_path, counted):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    marker = next((Path(manifest.out_dir) / "fingerprints").iterdir())
    recorded = marker.read_bytes()
    marker.unlink()
    # without a marker nothing vouches for the persisted outputs
    assert run(manifest).inference_calls == N_TEST
    assert marker.read_bytes() == recorded
    counted.update(render=0, write_jsonl=0)
    assert run(manifest).inference_calls == 0
    assert counted == {"render": 0, "write_jsonl": 0}


# -- inputs the fingerprint covers ----------------------------------------------

def _copied_templates(tmp_path) -> Path:
    template_dir = tmp_path / "templates"
    if not template_dir.exists():
        shutil.copytree(Path(qeharness.__file__).parent / "templates",
                        template_dir)
    return template_dir


def _edit_template_body(tmp_path):
    path = _copied_templates(tmp_path) / "ag.txt"
    path.write_text(path.read_text(encoding="utf-8") + "\nBe brief.\n",
                    encoding="utf-8")


def _bump_template_version(tmp_path):
    path = _copied_templates(tmp_path) / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["ag"]["version"] = "1.0.1"
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_tsv_row(split):
    def edit(tmp_path):
        path = tmp_path / "data" / f"en-gu.{split}.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3].replace("sentence", "phrase", 1)
        path.write_text("".join(lines), encoding="utf-8")
    return edit


@pytest.mark.parametrize("edit,changes", [
    (_edit_template_body, {}),
    (_bump_template_version, {}),
    (_edit_tsv_row("test"), {}),
    (_edit_tsv_row("train"), {}),
    (None, {"inference": {"max_new_tokens": 64}}),
    (None, {"inference": {"temperature": 0.85}}),
    (None, {"inference": {"max_context_tokens": 3000}}),
    (None, {"mock": {"policy": "echo-score", "offset": 5}}),
    (None, {"seed": 8}),
], ids=["template-body", "template-version", "test-tsv", "train-tsv",
        "max-new-tokens", "temperature", "max-context-tokens", "mock-offset",
        "seed"])
def test_changed_input_dispatches_every_prompt(tmp_path, edit, changes):
    template_dir = str(_copied_templates(tmp_path))
    run(_manifest(tmp_path, templates=["ag"], template_dir=template_dir))
    if edit is not None:
        edit(tmp_path)
    again = run(_manifest(tmp_path, templates=["ag"],
                          template_dir=template_dir, **changes))
    assert again.inference_calls == N_TEST


def test_changed_icl_seed_dispatches_only_icl_prompts(tmp_path, counted):
    run(_manifest(tmp_path))
    counted.update(render=0, write_jsonl=0)
    again = run(_manifest(tmp_path, icl_seed=3))
    assert again.inference_calls == N_TEST
    assert counted == {"render": 1, "write_jsonl": 3}
    log = (Path(_manifest(tmp_path).out_dir) / "log.txt").read_text()
    resumed = log.split("run start")[-1]
    assert "en-gu/ag: skipped" in resumed
    assert f"en-gu/ag_icl3: {N_TEST} dispatched" in resumed


# -- stale and colliding resume ---------------------------------------------------

def test_resume_under_another_temperature_dispatches_again(tmp_path):
    run(_manifest(tmp_path))
    again = run(_manifest(tmp_path, inference={"temperature": 0.85}))
    assert again.inference_calls == N_TEST * len(TEMPLATES)


def test_resume_under_another_mock_offset_dispatches_again(tmp_path):
    run(_manifest(tmp_path))
    again = run(_manifest(tmp_path,
                          mock={"policy": "echo-score", "offset": 5}))
    assert again.inference_calls == N_TEST * len(TEMPLATES)
    out = Path(_manifest(tmp_path).out_dir)
    rows = [json.loads(line) for line in
            next((out / "outputs").glob("*__ag__*")).read_text().splitlines()]
    gold = {seg.id: seg.da_mean for seg in
            synthetic_corpus("en-gu", n_train=60, n_test=N_TEST).test}
    assert all(row["raw_text"] == f"Score: {round(gold[seg] + 5, 1)}"
               for row in rows
               for seg in [row["prompt_ref"]["segment_id"]])


def test_resume_over_a_colliding_model_name_dispatches_again(tmp_path):
    run(_manifest(tmp_path, inference={"model_name": "org/m"}))
    again = run(_manifest(tmp_path, inference={"model_name": "org_m"}))
    assert again.inference_calls == N_TEST * len(TEMPLATES)
    assert {r.model for r in again.reports} == {"org_m"}


def test_outputs_left_by_a_crashed_run_are_not_reused(tmp_path, monkeypatch):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)

    def crash(*args, **kwargs):
        raise RuntimeError("killed after the outputs were written")

    # a run under another temperature dies between its outputs and its
    # marker; its outputs must not pass for the first run's
    monkeypatch.setattr(pipeline, "extract_batch", crash)
    with pytest.raises(RuntimeError):
        run(_manifest(tmp_path, templates=["ag"],
                      inference={"temperature": 0.85}))
    monkeypatch.undo()
    assert run(manifest).inference_calls == N_TEST


@pytest.mark.parametrize("edit,changes", [
    (None, {"inference": {"temperature": 0.85}}),
    (_edit_template_body, {}),
], ids=["temperature", "template-body"])
def test_a_run_under_other_settings_killed_in_dispatch_keeps_the_outputs(
        tmp_path, monkeypatch, counted, edit, changes):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    out = Path(manifest.out_dir)
    clean = _artifacts(out)
    template_dir = str(_copied_templates(tmp_path))
    if edit is not None:
        edit(tmp_path)

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    # a run under other settings rewrites the prompts file and is killed
    # during its dispatch; the marker still vouches for the first outputs
    with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
        patch.setattr(pipeline, "complete_batch", killed)
        run(_manifest(tmp_path, templates=["ag"], template_dir=template_dir,
                      **changes))
    counted.update(render=0, write_jsonl=0)
    assert run(manifest).inference_calls == 0
    # other prompt bytes are rebuilt around the outputs read back
    assert counted["render"] == (edit is not None)
    assert _artifacts(out) == clean


def test_outputs_with_rows_deleted_are_rebuilt_whole(tmp_path, counted):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    out = Path(manifest.out_dir)
    clean = _artifacts(out)
    path = next((out / "outputs").iterdir())
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[::2]))
    counted.update(render=0, write_jsonl=0)

    assert run(manifest).inference_calls == N_TEST
    assert counted == {"render": 1, "write_jsonl": 3}
    assert _artifacts(out) == clean


def test_a_run_killed_after_its_outputs_resumes_without_dispatching(
        tmp_path, monkeypatch):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    out = Path(manifest.out_dir)
    clean = _artifacts(out)
    shutil.rmtree(out)

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    # the marker written after the outputs vouches for them
    monkeypatch.setattr(pipeline, "extract_batch", killed)
    with pytest.raises(KeyboardInterrupt):
        run(manifest)
    monkeypatch.undo()
    assert run(manifest).inference_calls == 0
    assert _artifacts(out) == clean


def test_unreadable_marker_reuses_nothing(tmp_path):
    manifest = _manifest(tmp_path, templates=["ag"])
    run(manifest)
    marker = next((Path(manifest.out_dir) / "fingerprints").iterdir())
    marker.write_text('{"fingerprint": ', encoding="utf-8")
    assert run(manifest).inference_calls == N_TEST
    assert run(manifest).inference_calls == 0


# -- the artifacts are hashed on a thread pool ---------------------------------

@pytest.fixture
def hashed(monkeypatch):
    """The paths pipeline._sha256_of hashed, in call order. delay["s"], when
    set, is how long each call sleeps first, so that a run still hashes
    when it fails."""
    paths, delay = [], {"s": 0.0}
    real = pipeline._sha256_of

    def counting(path):
        time.sleep(delay["s"])
        paths.append(path)  # one append at a time under the GIL
        return real(path)

    monkeypatch.setattr(pipeline, "_sha256_of", counting)
    return paths, delay


def _tree(out: Path) -> dict:
    """Every file under out with its bytes and modification time."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(out.rglob("*")) if p.is_file()}


def _artifacts(out: Path) -> dict:
    return {p: p.read_bytes() for sub in ARTIFACT_DIRS + ("fingerprints",)
            for p in sorted((out / sub).iterdir())}


def test_noop_resume_hashes_each_artifact_once(tmp_path, hashed):
    manifest = _manifest(tmp_path)
    run(manifest)
    paths, _ = hashed
    assert paths == []  # the writes took the digests
    threads = set(threading.enumerate())

    assert run(manifest).inference_calls == 0
    out = Path(manifest.out_dir)
    assert sorted(paths) == sorted(p for sub in ARTIFACT_DIRS
                                   for p in (out / sub).iterdir())
    assert set(threading.enumerate()) == threads


def test_resume_under_another_temperature_hashes_no_artifact(tmp_path,
                                                            hashed):
    run(_manifest(tmp_path))
    # no marker names the new fingerprint, so no combo can be skipped
    again = run(_manifest(tmp_path, inference={"temperature": 0.85}))
    assert again.inference_calls == N_TEST * len(TEMPLATES)
    assert hashed[0] == []


def test_template_listed_twice_is_dispatched_once(tmp_path, counted):
    # the second combo finds the marker the first wrote during the run, and
    # hashes the files the first left, not what was there when it started
    manifest = _manifest(tmp_path, templates=["ag", "ag"])
    assert run(manifest).inference_calls == N_TEST
    assert run(manifest).inference_calls == 0
    next((Path(manifest.out_dir) / "outputs").iterdir()).unlink()
    counted.update(render=0, write_jsonl=0)
    assert run(manifest).inference_calls == N_TEST
    assert counted == {"render": 1, "write_jsonl": 3}


def test_fresh_run_hashes_nothing_and_leaves_no_thread(tmp_path, hashed):
    threads = set(threading.enumerate())
    # the last run has markers to read, but resume is off
    for resume, out_dir in ((False, "run"), (True, "new"), (False, "run")):
        result = run(_manifest(tmp_path, resume=resume,
                               out_dir=str(tmp_path / out_dir)))
        assert result.inference_calls == N_TEST * len(TEMPLATES)
        assert set(threading.enumerate()) == threads
    assert hashed[0] == []


def test_failing_resume_cancels_and_joins_its_hashing(tmp_path, hashed,
                                                     monkeypatch):
    # one worker, so the second combo's hashing is still queued at the error
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor",
                        lambda workers: ThreadPoolExecutor(1))
    manifest = _manifest(tmp_path)
    run(manifest)
    out = Path(manifest.out_dir)
    before = _tree(out)
    tsv = tmp_path / "data" / "en-gu.test.tsv"
    tsv.write_bytes(tsv.read_bytes() + b"a\t\xff\t50\n")
    paths, delay = hashed
    delay["s"] = 0.05
    threads = set(threading.enumerate())

    with pytest.raises(FileUnreadable):
        run(manifest)
    done = len(paths)
    assert done <= 4  # at most the first combo's four artifacts
    time.sleep(0.2)
    assert len(paths) == done  # no hash runs after run() raised
    assert set(threading.enumerate()) == threads
    assert _tree(out) == before


class _Interrupted:
    """A backend interrupted, as by Ctrl-C, on its first call."""

    waits = False
    deterministic = True

    def generate_once(self, prompt):
        raise KeyboardInterrupt


def test_interrupted_resume_leaves_no_thread_and_resumes(tmp_path):
    manifest = _manifest(tmp_path)
    run(manifest)
    out = Path(manifest.out_dir)
    uninterrupted = _artifacts(out)
    next((out / "outputs").glob("*__ag_icl3__*")).unlink()
    threads = set(threading.enumerate())

    # ag is skipped; ag_icl3 must dispatch again, and is interrupted
    with pytest.raises(KeyboardInterrupt):
        run(manifest, backend=_Interrupted())
    assert set(threading.enumerate()) == threads

    assert run(manifest).inference_calls == N_TEST
    assert _artifacts(out) == uninterrupted
