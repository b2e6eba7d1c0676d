"""Compare two commits on perfbench, seed by seed, and write BENCH_<parent>.json.

    python3 tools/bench_ab.py --parent 7a65003 --change HEAD --seeds 151-160 \
        --work /tmp/bench_ab [--workloads mock_resume,mock_full] \
        [--seconds 10] [--traced-seed 151]

Each commit is exported with `git archive` to <work>/parent and
<work>/change, two paths of equal length, since perfbench's artifact_mb
depends on the length of the checkout path. For every workload and seed,
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` runs
in both copies, one after the other; odd seeds start with the parent, even
ones with the change, so drift in the host's speed falls on both sides
alike. With --traced-seed, one traced pair per workload (--trace 1) follows.
A run that fails or fails a check stops the comparison.

The file, written at the repository root (or --out), holds the parent and
change, the command, the method, every run's result line, the machine's
provenance, and per workload and end-to-end metric of BENCHMARK.json a
summary: the medians and quartiles (inclusive method) of both sides, the
number of seeds the change did better on (change_wins), the median change
in percent, the parent's interquartile range in percent of its median,
gain_met (at least 10 seeds, the change did better on at least 9 in 10 of
them, and its median is better than the parent's by more than the parent's
interquartile distance: the rule a claimed gain must meet), and two flags
against the metric's bound: worse_beyond_bound (the change's median is
worse by more than the bound) and unresolved (the parent's interquartile
range is wider than the bound, unless every change run did better than
every parent run). Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(pairs: list[dict], metrics: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """The summary of one workload's pairs: each pair is {"parent": result,
    "change": result} with perfbench's result lines; metrics maps each
    metric's name to "higher" or "lower", the better direction, and bounds
    a metric's name to its allowed relative worsening (BENCHMARK.json's
    bound). gain_met holds when there are at least 10 pairs, the change did
    better on at least 9 in 10 of them (a tie counts for neither side),
    and its median is better than the parent's by more than the parent's
    interquartile distance. A metric with a bound is flagged
    worse_beyond_bound when the change's median is worse than the parent's
    by more than the bound, and unresolved when the parent's interquartile
    range is wider than the bound, as a share of the parent's median, and
    some change run did no better than some parent run."""
    summary = {"pairs": len(pairs),
               "all_correct_no_failures": all(
                   pair[side]["correct"] and pair[side]["failed"] == 0
                   for pair in pairs for side in SIDES)}
    for name, better in metrics.items():
        values = {side: [pair[side]["metrics"][name]["value"]
                         for pair in pairs] for side in SIDES}
        parent, change = median(values["parent"]), median(values["change"])
        parent_q = _quartiles(values["parent"])
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in
                   zip(values["parent"], values["change"]))
        summary[name] = {
            "parent_median": parent,
            "parent_quartiles": parent_q,
            "change_median": change,
            "change_quartiles": _quartiles(values["change"]),
            "change_wins": wins,
            "median_change_pct": _pct(change - parent, parent),
            "parent_iqr_pct_of_median": _pct(parent_q[1] - parent_q[0],
                                             parent),
            "gain_met": (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                         and sign * (change - parent)
                         > parent_q[1] - parent_q[0]),
        }
        if bounds and name in bounds:
            bound = 100.0 * bounds[name]
            separated = all(sign * (c - p) > 0 for p in values["parent"]
                            for c in values["change"])
            summary[name]["worse_beyond_bound"] = (
                -sign * summary[name]["median_change_pct"] > bound)
            summary[name]["unresolved"] = (
                summary[name]["parent_iqr_pct_of_median"] > bound
                and not separated)
    return summary


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    low, _, high = quantiles(values, n=4, method="inclusive")
    return [low, high]


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of rev, extracted at dest (which must not exist)."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    # the "data" filter where this Python has it (3.12, and later patches
    # of 3.10 and 3.11), so that 3.14's change of default is not relied on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def bench(copy: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """The result line of one perfbench run in copy."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{copy.name} {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pair(copies: dict[str, Path], workload: str, seed: int, seconds: float,
         trace: int = 0) -> dict:
    """Both sides' results for one seed, the parent first on odd seeds."""
    order = SIDES if seed % 2 else SIDES[::-1]
    result = {"seed": seed, "first": order[0]}
    for side in order:
        result[side] = bench(copies[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} {side}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in
            result[side]["metrics"].items() if k in (
                "items_per_s", "setup_s", "pipeline.self_s")),
              file=sys.stderr, flush=True)
    return result


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def provenance() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(), "cpu": cpu,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="a seed or a range such as 151-160")
    parser.add_argument("--work", required=True, type=Path,
                        help="a directory for the two copies; must not exist")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    revs = {"parent": _git("rev-parse", "--short", args.parent),
            "change": _git("rev-parse", "--short", args.change)}
    copies = {side: args.work / side for side in SIDES}
    for side in SIDES:
        export(revs[side], copies[side])

    runs = {w: [pair(copies, w, seed, args.seconds) for seed in args.seeds]
            for w in workloads}
    doc = {
        "parent": revs["parent"],
        "change": revs["change"],
        "change_src_tree": _git("rev-parse", f"{revs['change']}:src"),
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0"),
        "method": (
            "parent and change run from git archive copies of their commits "
            "at paths of equal length, one after the other in one session, "
            "seed by seed, alternating which side runs first (odd seeds "
            f"start with the parent); seeds {args.seeds[0]}-{args.seeds[-1]} "
            f"for {', '.join(workloads)}; made by tools/bench_ab.py"),
    }
    doc["summary"] = {w: summarize(runs[w], metrics, bounds)
                      for w in workloads}
    doc["runs"] = runs
    if args.traced_seed is not None:
        doc["traced"] = {
            "command": (f"python3 perfbench/run.py --workload W --seed "
                        f"{args.traced_seed} --seconds {args.seconds:g} "
                        "--trace 1"),
            "runs": {w: [pair(copies, w, args.traced_seed, args.seconds, 1)]
                     for w in workloads}}
    doc["provenance"] = provenance()
    out = args.out or ROOT / f"BENCH_{revs['parent']}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
