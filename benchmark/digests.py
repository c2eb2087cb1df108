"""Print the manifests of the benchmark's serial reference runs.

    python3 benchmark/digests.py --seeds 1 2 3

For each seed and each corpus (sparse, dense) this builds the corpus and a
serial cold `cocite run` under `.bench_work/`, reusing them when the sources
have not changed, and prints one JSON line with the run's manifest. Run it
before and after a change: equal lines mean byte-identical outputs. The
benchmark does not gate on these values.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    for seed in args.seeds:
        for kind in ("sparse", "dense"):
            base = run.work_dir(kind, seed)
            ref = run.make_reference(run.make_corpus(kind, seed, base), base)
            print(json.dumps({"corpus": kind, "seed": seed, **run.manifest(ref)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
