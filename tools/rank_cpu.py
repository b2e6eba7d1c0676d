"""Time the seeded rankings in process: the pooled SFT shuffle and the ICL
exemplar selections.

    python3 tools/rank_cpu.py [--rounds 9] [--seed 1] [--work DIR]

Generates perfbench's corpora for the seed (perfbench/corpora.py) and loads
all eight pairs. Each round then times, with time.perf_counter:
- sft_rank_s: the `seeded_order` call of a pooled export (`export-sft
  --mode umt`, shuffle seed --seed) over all 75,000 train records, timed
  as perfbench traces it, through sft_export's module attribute;
- sft_export_s: that whole export, written under the work directory;
- icl_select_s: the 24 exemplar selections of a run, 8 pairs x 3 ICL
  templates under --seed, as pipeline.render_prompts makes them, with the
  bin-rank cache emptied first.
Prints one JSON object: the median of each over the rounds, each round's
readings and the Python version. The qeharness measured is this
checkout's src/. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpora  # noqa: E402  (perfbench's corpus generator)
from qeharness import prompts, sft_export  # noqa: E402
from qeharness.corpus import load_corpora  # noqa: E402
from qeharness.prompts import (ICL_TEMPLATES, IclConfig,  # noqa: E402
                               TemplateId, load_templates,
                               select_icl_exemplars)


def _round(corpus, template, seed: int, out: Path) -> dict:
    ranked = []
    seeded_order = sft_export.seeded_order

    def timed(*args, **kwargs):
        started = time.perf_counter()
        order = seeded_order(*args, **kwargs)
        ranked.append(time.perf_counter() - started)
        return order

    config = sft_export.SftConfig(mode=sft_export.SftMode.UMT,
                                  shuffle_seed=seed)
    sft_export.seeded_order = timed
    try:
        started = time.perf_counter()
        sft_export.export(corpus, config, out, template)
        exported = time.perf_counter() - started
    finally:
        sft_export.seeded_order = seeded_order

    prompts._ranked_ids.cache_clear()
    started = time.perf_counter()
    for c in corpus:
        for tid in ICL_TEMPLATES:
            select_icl_exemplars(list(c.train), IclConfig.for_template(tid),
                                 seed)
    selected = time.perf_counter() - started
    (rank_s,) = ranked
    return {"sft_rank_s": rank_s, "sft_export_s": exported,
            "icl_select_s": selected}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the corpora and the export "
                             "(default: a temporary one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        corpus = load_corpora(corpora.generate(work / "corpora", args.seed))
        template = load_templates()[TemplateId.AG]
        rounds = [_round(corpus, template, args.seed, work / "sft")
                  for _ in range(args.rounds)]
    print(json.dumps({
        "records": sum(len(c.train) for c in corpus), "rounds": rounds,
        **{name: statistics.median(r[name] for r in rounds)
           for name in ("sft_rank_s", "sft_export_s", "icl_select_s")},
        "python": platform.python_version()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
