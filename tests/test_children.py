"""Pairs run side by side in this process and in child processes: the files,
log lines and RunResult of one process, typed errors across the process boundary, and no
child or temp file left behind by any way a run ends."""

from __future__ import annotations

import dataclasses
import inspect
import json
import logging
import os
import pickle
import re
import shutil
import socket
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import SimpleQueue

import pytest

import qeharness
import qeharness.errors as errors
import qeharness.pipeline as pipeline
from qeharness import gateway
from qeharness.errors import ChildFailed, FileUnreadable, HarnessError
from qeharness.gateway import Fixed, MockBackend
from qeharness.pipeline import RunManifest, run

from conftest import synthetic_corpus, write_corpus_manifest

# In manifest order; largest first by TSV bytes: si-en, et-en, en-gu.
# en-gu's 12 train rows leave ag_icl7 short of exemplars in some bins, so
# the run logs warnings.
PAIRS = (("en-gu", 12, 24), ("si-en", 90, 30), ("et-en", 60, 20))
TEMPLATES = ("gemba", "ag_icl7")
TIMESTAMP = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d ", re.M)


@pytest.fixture
def data(tmp_path) -> Path:
    return write_corpus_manifest(tmp_path / "data", [
        synthetic_corpus(pair, n_train=n_train, n_test=n_test)
        for pair, n_train, n_test in PAIRS])


def _manifest(data: Path, out: Path, **changes) -> RunManifest:
    return RunManifest.from_dict({
        "corpora_manifest": str(data), "templates": list(TEMPLATES),
        "out_dir": str(out), "seed": 5, "mock": {"policy": "echo-score"},
        "resume": True, **changes})


@pytest.fixture
def started(monkeypatch) -> list:
    """Every child process a run starts. The test process may use two CPUs
    whatever the machine has, and children run on any TSV size unless a
    test puts the threshold back (_one_process)."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(pipeline.subprocess, "Popen", Recorded)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_CHILD_BREAK_EVEN", 0)
    return procs


def _refuse_children(monkeypatch) -> None:
    """Children would run on any TSV size with two CPUs, but none may
    start."""
    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(pipeline, "_CHILD_BREAK_EVEN", 0)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    monkeypatch.setattr(pipeline.subprocess, "Popen", refuse)


@pytest.fixture
def no_child(monkeypatch):
    _refuse_children(monkeypatch)


def _one_process(monkeypatch) -> None:
    monkeypatch.setattr(pipeline, "_CHILD_BREAK_EVEN", float("inf"))


def _files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _log_lines(out: Path) -> list[str]:
    return TIMESTAMP.sub("", (out / "log.txt").read_text("utf-8")).splitlines()


def _comparable(out: Path) -> dict:
    """out's files but log.txt, with out's own path and the summary's
    count of this run's calls left out."""
    files = _files(out)
    files.pop("log.txt", None)
    files["manifest.json"] = files["manifest.json"].replace(
        json.dumps(str(out)).encode(), b"")
    summary = json.loads(files["summary.json"])
    del summary["inference_calls"]
    files["summary.json"] = summary
    return files


def _assert_same_run(one: Path, result_one, many: Path, result_many) -> None:
    assert _comparable(many) == _comparable(one)
    assert (json.loads((many / "summary.json").read_bytes())["inference_calls"]
            == result_many.inference_calls == result_one.inference_calls)
    assert _log_lines(many) == _log_lines(one)
    assert dataclasses.replace(result_many, run_dir=one) == result_one


def _assert_nothing_left(out: Path, procs: list) -> None:
    assert procs and all(proc.returncode is not None for proc in procs)
    assert list(out.rglob("*.tmp")) == []


@pytest.fixture
def child_code(tmp_path, monkeypatch):
    """install(source): writes source as the module child_inject, which
    every child imports and calls install() of before it serves; returns
    the module as the test process imports it from the same file."""
    def install(source: str):
        folder = tmp_path / "inject"
        folder.mkdir()
        (folder / "child_inject.py").write_text(textwrap.dedent(source),
                                                encoding="utf-8")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(folder), os.environ.get("PYTHONPATH")])))
        monkeypatch.setattr(pipeline, "_CHILD_CODE", pipeline._CHILD_CODE.replace(
            "; _serve()", "; import child_inject; child_inject.install(); "
            "_serve()"))
        monkeypatch.syspath_prepend(str(folder))
        monkeypatch.delitem(sys.modules, "child_inject", raising=False)
        import child_inject
        return child_inject
    return install


def _clean(data: Path, tmp_path: Path, monkeypatch) -> Path:
    """A finished run in one process, for a resume to be compared with."""
    with monkeypatch.context() as patch:
        _one_process(patch)
        run(_manifest(data, tmp_path / "clean"))
    return tmp_path / "clean"


# -- the same run on both paths ---------------------------------------------

def _drop_markers(*pairs):
    def damage(out: Path) -> None:
        for pair in pairs:
            for marker in (out / "fingerprints").glob(f"{pair}__*"):
                marker.unlink()
    return damage


# case -> (manifest changes, damage done to a finished run before its
# resume, or None for a fresh run, and the children the resume starts beside
# the parent by the CPUs it may use: min(CPUs, pairs to run) - 1)
CASES = {
    "fresh": ({}, None, {2: 1, 3: 2}),
    "partial-resume": ({}, _drop_markers("en-gu", "si-en"), {2: 1, 3: 1}),
    "noop-resume": ({}, _drop_markers(), {2: 0, 3: 0}),
    "garbage": ({"mock": {"policy": "garbage", "p": 0.4}}, None,
                {2: 1, 3: 2}),
    "fixed": ({"mock": {"policy": "fixed", "text": "Score: 50"}}, None,
              {2: 1, 3: 2}),
}


@pytest.mark.parametrize("case, cpus", [
    pytest.param(case, cpus, id=case if cpus == 2 else f"{case}-{cpus}-cpus")
    for cpus in (2, 3) for case in CASES])
def test_children_make_the_files_of_one_process(tmp_path, data, monkeypatch,
                                                started, case, cpus):
    changes, damage, children = CASES[case]
    monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
    one, many = tmp_path / "one", tmp_path / "many"
    if damage is not None:
        with monkeypatch.context() as patch:
            _one_process(patch)
            run(_manifest(data, one, **changes))
        damage(one)
        (one / "log.txt").unlink()
        shutil.copytree(one, many)
    with monkeypatch.context() as patch:
        _one_process(patch)
        result_one = run(_manifest(data, one, **changes))
    assert started == []
    ran = []  # the pairs the parent ran itself
    run_pair = pipeline._run_pair

    def spied(*job):
        ran.append(job[1].pair)
        return run_pair(*job)

    monkeypatch.setattr(pipeline, "_run_pair", spied)
    result_many = run(_manifest(data, many, **changes))
    assert len(started) == children[cpus]
    assert ran
    assert all(proc.returncode == 0 for proc in started)
    _assert_same_run(one, result_one, many, result_many)
    if damage is None:
        assert any("substituting" in line for line in _log_lines(many))
        assert list(many.rglob("*.tmp")) == []


def test_a_childs_warning_keeps_its_traceback(tmp_path, data, monkeypatch,
                                              started, child_code):
    inject = child_code("""
        from qeharness import gateway

        original = gateway.MockBackend._apply

        def _apply(self, policy, prompt):
            if prompt.pair == "si-en" and prompt.target_segment_id == 3:
                raise RuntimeError("injected backend fault")
            return original(self, policy, prompt)

        def install():
            gateway.MockBackend._apply = _apply
    """)
    monkeypatch.setattr(gateway.MockBackend, "_apply", inject._apply)
    one, many = tmp_path / "one", tmp_path / "many"
    with monkeypatch.context() as patch:
        _one_process(patch)
        result_one = run(_manifest(data, one))
    result_many = run(_manifest(data, many))
    assert len(started) == 1
    _assert_same_run(one, result_one, many, result_many)
    lines = _log_lines(many)
    warned = [i for i, line in enumerate(lines)
              if line.startswith("backend raised on")]
    assert len(warned) == len(TEMPLATES)
    assert lines[warned[0] + 1] == "Traceback (most recent call last):"
    assert "RuntimeError: injected backend fault" in lines


# -- typed errors cross the process boundary ---------------------------------

def _harness_errors() -> list[type]:
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, HarnessError)]


def _instance(cls: type) -> HarnessError:
    """cls built with a value for each parameter of its __init__, or with a
    message."""
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    if params == ["args", "kwargs"]:
        return cls("a message")
    values = {"row": 3, "reason": "BadNumber", "name": "mean",
              "path": "data/en-gu.train.tsv", "bin_label": "91-100",
              "pair": "en-gu"}
    return cls(*(values[p] for p in params))


@pytest.mark.parametrize("cls", _harness_errors(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_every_harness_error_pickles_whole(cls, protocol):
    exc = _instance(cls)
    copy = pickle.loads(pickle.dumps(exc, protocol))
    assert type(copy) is cls
    assert str(copy) == str(exc) and copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_the_error_list_covers_the_typed_initialisers():
    named = {cls.__name__ for cls in _harness_errors()
             if "__init__" in vars(cls)}
    assert named == {"MissingColumn", "RowParseError", "EmptyBin",
                     "EmptyTrainSplit"}
    assert len(_harness_errors()) == 21


# -- which runs start children -------------------------------------------------

def test_one_cpu_takes_one_hashing_thread_and_no_child(tmp_path, data,
                                                       monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")

    workers = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(pipeline, "_CHILD_BREAK_EVEN", 0)
    monkeypatch.setattr(pipeline.subprocess, "Popen", refuse)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Recorded)
    assert pipeline._cpus() == 1
    result = run(_manifest(data, tmp_path / "run"))
    assert workers == [1]
    assert result.inference_calls == len(TEMPLATES) * sum(
        n_test for _, _, n_test in PAIRS)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_a_noop_resume_starts_no_child(tmp_path, data, monkeypatch):
    clean = _clean(data, tmp_path, monkeypatch)
    _refuse_children(monkeypatch)
    assert run(_manifest(data, clean)).inference_calls == 0


def test_a_resume_with_one_pair_to_do_starts_no_child(tmp_path, data,
                                                      monkeypatch):
    clean = _clean(data, tmp_path, monkeypatch)
    _drop_markers("si-en")(clean)
    _refuse_children(monkeypatch)
    assert run(_manifest(data, clean)).inference_calls == len(TEMPLATES) * 30


def test_an_http_run_starts_no_child(tmp_path, data, no_child):
    url = f"http://127.0.0.1:{_closed_port()}/v1/chat/completions"
    result = run(_manifest(data, tmp_path / "run", mock=None, templates=["gemba"],
                           inference={"endpoint_url": url, "max_retries": 0,
                                      "request_timeout": 2.0}))
    assert all(ledger.total == ledger.excluded_count > 0
               for ledger in result.ledgers)


def test_a_run_given_a_backend_starts_no_child(tmp_path, data, no_child):
    result = run(_manifest(data, tmp_path / "run"),
                 backend=MockBackend(Fixed("Score: 50")))
    assert result.inference_calls == len(TEMPLATES) * sum(
        n_test for _, _, n_test in PAIRS)


# -- how a run with children ends ---------------------------------------------

def _spoil(path: Path) -> bytes:
    """Give the TSV at path a valid row past its first 8 KiB text chunk and
    then a byte that is not UTF-8; returns its bytes before."""
    before = path.read_bytes()
    path.write_bytes(before + b"x" * 20000 + b"\tpadding\t50\n"
                     + b"\xff\tnot utf-8\t50\n")
    return before


def test_the_first_failed_pair_in_manifest_order_raises(tmp_path, data,
                                                        monkeypatch, started):
    clean = _clean(data, tmp_path, monkeypatch)
    # the two spoiled pairs are now the largest, so the parent and the child
    # start on them, and both fail
    kept = {path: _spoil(path) for path in (data.parent / "en-gu.train.tsv",
                                            data.parent / "si-en.test.tsv")}
    one, many = tmp_path / "one", tmp_path / "many"
    with monkeypatch.context() as patch:
        _one_process(patch)
        with pytest.raises(FileUnreadable) as in_one:
            run(_manifest(data, one))
    with pytest.raises(FileUnreadable) as in_many:
        run(_manifest(data, many))
    assert str(in_many.value) == str(in_one.value)
    assert "en-gu.train.tsv" in str(in_many.value)
    assert len(started) == 1
    _assert_nothing_left(many, started)
    # no pair started after the failures: et-en has no marker
    assert list((many / "fingerprints").iterdir()) == []
    for path, before in kept.items():
        path.write_bytes(before)
    run(_manifest(data, many))
    assert _comparable(many) == _comparable(clean)


def test_an_interrupt_stops_the_children_and_resumes(tmp_path, data,
                                                     monkeypatch, started):
    clean = _clean(data, tmp_path, monkeypatch)

    class Interrupt(logging.Handler):
        def emit(self, record):  # the first record a child made
            if record.process != os.getpid():
                raise KeyboardInterrupt

    logger = logging.getLogger("qeharness")
    handler = Interrupt()
    logger.addHandler(handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run(_manifest(data, tmp_path / "run"))
    finally:
        logger.removeHandler(handler)
    _assert_nothing_left(tmp_path / "run", started)
    run(_manifest(data, tmp_path / "run"))
    assert _comparable(tmp_path / "run") == _comparable(clean)


def test_a_killed_child_is_a_typed_error_and_resumes(tmp_path, data,
                                                     monkeypatch, started,
                                                     child_code):
    clean = _clean(data, tmp_path, monkeypatch)
    child_code("""
        import os
        import signal

        replace = os.replace

        def killing(src, dst):
            if str(dst).endswith("si-en__ag_icl7__unknown-model__seed5.jsonl"):
                os.kill(os.getpid(), signal.SIGKILL)
            replace(src, dst)

        def install():
            os.replace = killing
    """)
    out = tmp_path / "run"
    with pytest.raises(ChildFailed) as failed:
        run(_manifest(data, out))
    assert str(failed.value) == ("the child process running pair si-en "
                                 "exited with status -9 (Killed)")
    # the killed child left a staged file, which run removed
    _assert_nothing_left(out, started)
    assert list((out / "prompts").glob("si-en__gemba__*"))
    monkeypatch.setattr(pipeline, "_CHILD_CODE", _CHILD_CODE)
    run(_manifest(data, out))
    assert _comparable(out) == _comparable(clean)


_CHILD_CODE = pipeline._CHILD_CODE


def test_children_import_the_callers_package_not_its_main(tmp_path, data):
    """A script with no __main__ guard runs once, and its children import
    the qeharness it imported, not one on their working directory."""
    decoy = tmp_path / "decoy"
    (decoy / "qeharness").mkdir(parents=True)
    (decoy / "qeharness" / "__init__.py").write_text(
        "raise ImportError('the decoy package was imported')\n")
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(f"""
        import subprocess
        import sys
        sys.path.insert(0, {str(Path(qeharness.__file__).parent.parent)!r})
        from qeharness import pipeline

        started = []

        class Counted(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        subprocess.Popen = Counted
        pipeline._CHILD_BREAK_EVEN = 0
        pipeline._cpus = lambda: 2
        print("script ran", flush=True)
        result = pipeline.run(pipeline.RunManifest(
            corpora_manifest={str(data)!r}, templates=(pipeline.TemplateId.AG,),
            out_dir={str(tmp_path / "run")!r}, mock={{"policy": "echo-score"}}))
        print("children", len(started), "calls", result.inference_calls)
    """), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(script)], cwd=decoy,
                          env={**os.environ, "PYTHONPATH": str(decoy)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = sum(n_test for _, _, n_test in PAIRS)
    assert proc.stdout.splitlines() == ["script ran",
                                        f"children 1 calls {calls}"]


def test_a_killed_parent_stops_its_children_and_resumes(tmp_path, data,
                                                        monkeypatch):
    """SIGKILL a run's parent while it and its child are mid-pair: the
    child ends within 0.5 s without a traceback, nothing in the run
    directory changes after that, and a resume gives the files of an
    uninterrupted run."""
    clean = _clean(data, tmp_path, monkeypatch)
    out = tmp_path / "run"
    folder = tmp_path / "inject"
    folder.mkdir()
    # each mock call takes 20 ms, so each pair takes 0.8 s or more; a call
    # names its process as it starts
    (folder / "slow_child.py").write_text(textwrap.dedent("""
        import os
        import sys
        import time
        from qeharness import gateway

        original = gateway.MockBackend._apply

        def _apply(self, policy, prompt):
            print("working", os.getpid(), file=sys.stderr, flush=True)
            time.sleep(0.02)
            return original(self, policy, prompt)

        gateway.MockBackend._apply = _apply
    """), encoding="utf-8")
    script = tmp_path / "parent.py"
    script.write_text(textwrap.dedent(f"""
        import json
        import sys
        sys.path.insert(0, {str(Path(qeharness.__file__).parent.parent)!r})
        from qeharness import pipeline
        import slow_child

        pipeline._CHILD_BREAK_EVEN = 0
        pipeline._cpus = lambda: 2
        pipeline._CHILD_CODE = pipeline._CHILD_CODE.replace(
            "; _serve()", "; import slow_child; _serve()")
        pipeline.run(pipeline.RunManifest.from_dict(json.loads(
            {json.dumps(_manifest(data, out).to_dict())!r})))
    """), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(script)], stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(folder)})
    lines = SimpleQueue()  # stderr's lines, then None once every writer ended

    def drain():
        for line in proc.stderr:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    # the kill follows a line the parent prints as a mock call starts, once
    # the child works too: it lands in that call's 20 ms, while the
    # parent's main thread waits on the dispatch, never in a staged write
    seen = []
    pids = set()
    while True:
        seen.append(lines.get(timeout=60))
        assert seen[-1] is not None, "".join(seen[:-1])
        if seen[-1].startswith("working"):
            pid = int(seen[-1].split()[1])
            if pid == proc.pid and pids - {proc.pid}:
                break
            pids.add(pid)
    proc.kill()
    proc.wait()
    reader.join(0.5)  # a child still running holds stderr open
    assert not reader.is_alive(), "a child outlived its parent by 0.5 s"
    proc.stderr.close()
    while (line := lines.get()) is not None:
        seen.append(line)
    assert not any("Traceback" in line for line in seen), "".join(seen)
    files = _files(out)
    time.sleep(0.3)
    assert _files(out) == files
    assert list(out.rglob("*.tmp")) == []
    run(_manifest(data, out))
    assert _comparable(out) == _comparable(clean)


def test_a_child_whose_outcome_pipe_is_broken_exits_quietly():
    code = _CHILD_CODE.replace(
        "; _serve()", "; import qeharness.pipeline as p; "
        "p._run_pair = lambda *job: []; _serve()")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(Path(qeharness.__file__).parent.parent)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # no one reads the outcome
    pickle.dump(("a job",), proc.stdin)
    proc.stdin.flush()  # and stdin stays open: the parent is not gone
    assert proc.wait(timeout=60) == 1
    stderr = proc.stderr.read()
    proc.stdin.close()
    proc.stderr.close()
    assert b"Traceback" not in stderr, stderr.decode()
