"""Kill and damage sweeps through cli.main over a small finished run (two
pairs x two templates, a garbage mock). A run killed just before or just
after any of its file moves resumes to the bytes of an uninterrupted run
and leaves no temp file. A finished run with any one of its files damaged
either resumes to those bytes or exits 1 with a typed error naming the
file; a traceback is a failure. One exception is pinned elsewhere
(test_resume's test_changed_artifact_takes_the_full_path): an outputs file
that a damage leaves parseable is reused under its marker's fingerprint, so
its combo resumes to the damaged outputs (see _reuses_damaged_outputs)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from qeharness.cli import main

from conftest import synthetic_corpus, write_corpus_manifest

PAIRS = ("en-gu", "si-en")
SRC = Path(__file__).resolve().parent.parent / "src"
_KILLED = 70  # the exit status of a child killed at a move

# runs cli.main with argv[3:], ending the process with os._exit just
# before or just after (argv[2]) its argv[1]-th os.replace
_KILLER = f"""\
import os, sys
from qeharness.cli import main
at, when = int(sys.argv[1]), sys.argv[2]
replace, moves = os.replace, []
def killing(src, dst):
    moves.append(dst)
    if len(moves) == at and when == "before":
        os._exit({_KILLED})
    replace(src, dst)
    if len(moves) == at:
        os._exit({_KILLED})
os.replace = killing
sys.exit(main(sys.argv[3:]))
"""


class Clean(NamedTuple):
    """The uninterrupted run: its base directory, run manifest (resume on),
    artifacts (see _artifacts) and number of file moves."""

    base: Path
    manifest: Path
    artifacts: dict
    moves: int

    def __repr__(self) -> str:
        return f"Clean({self.base})"


def _cli(*argv) -> tuple[int, str]:
    """cli.main's exit status and stderr; a traceback is the status."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except Exception:  # a traceback fails the case that meets it
            return -1, traceback.format_exc()
    return code, err.getvalue()


def _artifacts(out: Path) -> dict:
    """Every file under out but log.txt, by its relative path. Of the run's
    manifest.json and summary.json, out_dir and inference_calls are left
    out: the one names the directory, the other counts only the calls of
    the last process."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "log.txt":
            data = path.read_bytes()
            if path.parent == out and path.suffix == ".json":
                data = {key: value for key, value in json.loads(data).items()
                        if key not in ("out_dir", "inference_calls")}
            files[path.relative_to(out).as_posix()] = data
    return files


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> Clean:
    base = tmp_path_factory.mktemp("sweeps")
    corpora = write_corpus_manifest(base / "data", [
        synthetic_corpus(pair, n_train=300, n_test=40) for pair in PAIRS])
    manifest = base / "run.json"
    manifest.write_text(json.dumps({
        "corpora_manifest": str(corpora), "templates": ["ag", "ag_icl3"],
        "out_dir": str(base / "clean"), "seed": 3, "resume": True,
        "inference": {"model_name": "m"},
        "mock": {"policy": "garbage", "p": 0.3}}), encoding="utf-8")
    moves = []
    replace = os.replace
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace",
                      lambda src, dst: (moves.append(dst), replace(src, dst)))
        assert _cli("run", "--manifest", manifest) == (0, "")
    return Clean(base, manifest, _artifacts(base / "clean"), len(moves))


def _resume(clean: Clean, out: Path) -> tuple[int, str]:
    return _cli("run", "--manifest", clean.manifest, "--out", out)


def _changed(clean: Clean, out: Path) -> list[str]:
    """The files under out whose artifacts differ from the clean run's."""
    artifacts = _artifacts(out)
    return sorted(name for name in {*artifacts, *clean.artifacts}
                  if artifacts.get(name) != clean.artifacts.get(name))


# -- kill sweep -----------------------------------------------------------------

# 16 of the run's 52 kill points, each a fresh interpreter
@settings(max_examples=16, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_run_killed_at_a_move_resumes_to_the_same_bytes(clean, data):
    at = data.draw(st.integers(1, clean.moves), label="move")
    when = data.draw(st.sampled_from(["before", "after"]), label="kill")
    out = Path(tempfile.mkdtemp(dir=clean.base)) / "run"
    killed = subprocess.run(
        [sys.executable, "-c", _KILLER, str(at), when, "run", "--manifest",
         str(clean.manifest), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert killed.returncode == _KILLED, killed.stderr
    assert _resume(clean, out) == (0, "")
    assert _changed(clean, out) == []
    assert not list(out.rglob("*.tmp"))
    shutil.rmtree(out.parent)


def test_the_kill_sweep_covers_every_move(clean):
    # 6 files per combo and manifest.json and summary.json; a kill point
    # past the last move would never be reached
    assert clean.moves == 4 * 6 + 2


# -- damage sweep ---------------------------------------------------------------

def _halve(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _flip_a_bit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _make_a_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


DAMAGES = {
    "halved": _halve,
    "emptied": lambda path: path.write_bytes(b""),
    "bit-flipped": _flip_a_bit,
    "not-utf8": lambda path: path.write_bytes(b"\xff\xfe"
                                              + path.read_bytes()),
    "empty-list": lambda path: path.write_bytes(b"[]"),
    "null": lambda path: path.write_bytes(b"null"),
    "directory": _make_a_directory,
}


def _reuses_damaged_outputs(name: str, damaged: bytes, out: Path,
                            changed: list[str]) -> bool:
    """Whether a resume that changed the files named changed did only what
    a marker naming the combo's fingerprint allows today: keep the damaged
    outputs file name, whose rows still parse, and rebuild from it that
    combo's other files and the summary. ROADMAP item 3's journal, which
    decides reuse by prompt, is to end this."""
    stem = Path(name).stem
    return (name.startswith("outputs/") and (out / name).read_bytes() == damaged
            and all(Path(c).stem == stem or c == "summary.json"
                    for c in changed))


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_damaged_file_resumes_or_is_named(clean, damage):
    failures = []
    for name in clean.artifacts:
        base = Path(tempfile.mkdtemp(dir=clean.base))
        out = base / "run"
        shutil.copytree(clean.base / "clean", out)
        DAMAGES[damage](out / name)
        damaged = (out / name).is_file() and (out / name).read_bytes()
        code, err = _resume(clean, out)
        if code == 0:
            changed = _changed(clean, out)
            if changed and not _reuses_damaged_outputs(name, damaged, out,
                                                       changed):
                failures.append(f"{name}: resumed to other bytes in "
                                f"{changed}")
        elif not (code == 1 and err.startswith("error[")
                  and str(out / name) in err):
            failures.append(f"{name}: exit {code}: {err}")
        shutil.rmtree(base)
    assert not failures, "\n".join(failures)
