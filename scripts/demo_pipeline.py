"""End-to-end demo: synthesize a corpus, run the pipeline, print a summary.

Usage:
    python3 scripts/demo_pipeline.py [--pairs 24] [--seed 0] [--workdir DIR]
"""

import argparse
import csv
import json
import tempfile
from collections import Counter
from pathlib import Path

from cocite.cli import main as cocite_main


def run(pairs: int, seed: int, workdir: Path) -> None:
    corpus = workdir / "corpus"
    out = workdir / "out"
    rc = cocite_main(["synth", "--out", str(corpus), "--pairs", str(pairs), "--seed", str(seed)])
    if rc != 0:
        raise SystemExit(rc)
    rc = cocite_main(
        [
            "run",
            "--papers",
            str(corpus / "papers.jsonl"),
            "--mentorships",
            str(corpus / "mentorships.jsonl"),
            "--out",
            str(out),
        ]
    )
    if rc != 0:
        raise SystemExit(rc)

    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "profiles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    print(f"\nprofiles built: {manifest['n_profiles']}")
    print(f"output files:   {', '.join(sorted(manifest['files']))}")
    strategies = Counter(r["strategy"] for r in rows)
    for name, count in strategies.most_common():
        print(f"  {name:20s} {count}")
    dists = sorted(float(r["ave_distance"]) for r in rows if r["ave_distance"])
    if dists:
        mid = dists[len(dists) // 2]
        print(f"ave_distance:   min={dists[0]:.3f} median={mid:.3f} max={dists[-1]:.3f}")
    truth = json.loads((corpus / "ground_truth.json").read_text())
    planted = Counter(p["strategy"] for p in truth["pairs"])
    print(f"planted mix:    {dict(planted)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=24)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", type=Path, default=None)
    args = ap.parse_args()
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        run(args.pairs, args.seed, args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="cocite_demo_") as tmp:
            run(args.pairs, args.seed, Path(tmp))


if __name__ == "__main__":
    main()
