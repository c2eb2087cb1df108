"""Benchmark of `cocite run`, driven from outside the program.

Run it from the root of a checkout:

    python3 benchmark/run.py --workload sparse-cold --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run spawns `python3 -m cocite.cli run` on a corpus made from the seed
(outside timing), checks every output against values computed apart from
the program (see checks.py), and prints one JSON object as its last line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
The per-seed corpora and a serial reference run are kept under
`.bench_work/` and reused by later runs with the same seed and sources.
Progress and a readable summary go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SPARSE_PAIRS = 200
POOL_WORKERS = 2
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    corpus: str
    warm: bool
    workers: int


# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "sparse-cold": Workload("sparse", warm=False, workers=1),
    "sparse-warm": Workload("sparse", warm=True, workers=1),
    "dense-cold": Workload("dense", warm=False, workers=1),
    "dense-pool": Workload("dense", warm=False, workers=POOL_WORKERS),
}

# Layers every run must call; the per-pair layers are called on cold runs
# only, and a warm run that calls them has missed its cache.
ALWAYS = ("corpus.ingest", "pipeline.digest", "pipeline.pair_stage", "pipeline.cohort", "stats.fit", "pipeline.manifest")
PER_PAIR = (
    "profiles.pair", "pairgraph.build", "community.detect", "topics.classify",
    "impact.allocate", "distance.average", "career.series", "topics.citations",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], log: Path) -> Sample:
    """Run `python3 ARGS` in its own process group; time it spawn to exit.

    CPU time and peak RSS come from wait4, so they cover the process and
    every descendant it reaped, such as pool workers.
    """
    with open(log, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *map(str, args)], env=child_env(), stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out.seek(0)
        text = out.read()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args))} exited {proc.returncode}:\n{text[-2000:]}")
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, text)


COCITE = ["-m", "cocite.cli"]


def run_args(corpus: Path, out: Path, workers: int) -> list:
    """Arguments of `cocite run`."""
    return [
        "--papers", corpus / "papers.jsonl", "--mentorships", corpus / "mentorships.jsonl",
        "--out", out, "--workers", workers,
    ]


# ---------------------------------------------------------------------------
# inputs, made once per seed outside timing


def code_digest() -> str:
    """Digest of the program and generator sources, so cached inputs and
    reference runs are never reused across code versions."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cocite").rglob("*.py")) + [HERE / "dense.py"]:
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def build_once(final: Path, build) -> Path:
    """Build a directory under a temporary name and rename it into place."""
    if final.exists():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    build(tmp)
    try:
        tmp.rename(final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def make_corpus(kind: str, seed: int, base: Path) -> Path:
    def build(tmp: Path) -> None:
        if kind == "sparse":
            tmp.mkdir(parents=True)
            spawn([*COCITE, "synth", "--out", tmp, "--pairs", SPARSE_PAIRS, "--seed", seed], tmp / "log")
        else:
            import dense

            dense.generate(seed, tmp)

    return build_once(base / "corpus", build)


def make_reference(corpus: Path, base: Path) -> Path:
    """A serial cold run; every timed run must reproduce its manifest."""
    def build(tmp: Path) -> None:
        tmp.mkdir(parents=True)
        spawn([*COCITE, "run", *run_args(corpus, tmp / "out", 1)], tmp / "log")

    return build_once(base / "ref", build) / "out"


def work_dir(kind: str, seed: int) -> Path:
    return WORK / f"{kind}-{seed}-{code_digest()}"


def manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# one benchmark run


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        base = work_dir(self.wl.corpus, seed)
        self.corpus = make_corpus(self.wl.corpus, seed, base)
        self.ref = base / "ref" / "out"
        self.ref_manifest: dict | None = None
        if self.ref.exists() or self.wl.warm or self.wl.workers > 1:
            make_reference(self.corpus, base)
            self.ref_manifest = manifest(self.ref)
        # Otherwise the first timed run, serial and cold, becomes the reference.
        with open(self.corpus / "mentorships.jsonl", encoding="utf-8") as fh:
            self.n_pairs = sum(1 for _ in fh)
        self.scratch = base / f"{name}.{os.getpid()}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self.warm_dir = self.scratch / "warm"
        if self.wl.warm:
            shutil.copytree(self.ref, self.warm_dir)
        self.n_runs = 0
        self.mismatched = 0
        self.errors: list[str] = []
        self.checked: Path | None = None
        self.below_plant = 0

    def out_dir(self, tag: str) -> Path:
        return self.warm_dir if self.wl.warm else self.scratch / tag

    def cocite_run(self, tag: str, tracer: Path | None = None) -> Sample:
        """One `cocite run`; its outputs must match the reference byte for byte."""
        out = self.out_dir(tag)
        args = run_args(self.corpus, out, self.wl.workers)
        prefix = [*COCITE, "run"] if tracer is None else [HERE / "trace.py", tracer, "--"]
        sample = spawn([*prefix, *args], self.scratch / f"{tag}.log")
        self.n_runs += 1
        if self.ref_manifest is None:
            build_once(self.ref.parent, lambda tmp: shutil.copytree(out, tmp / "out"))
            self.ref_manifest = manifest(self.ref)
        if manifest(out) != self.ref_manifest:
            self.mismatched += 1
            self.errors.append(f"run {tag}: manifest differs from the serial cold reference")
        stats = json.loads((out / "run_stats.json").read_text(encoding="utf-8"))
        expected = (self.n_pairs, 0) if self.wl.warm else (0, self.n_pairs)
        if (stats["cache_hits"], stats["cache_misses"]) != expected:
            self.errors.append(f"run {tag}: cache hits/misses {stats['cache_hits']}/{stats['cache_misses']}, expected {expected}")
        if self.checked is None:
            self.checked = out
        elif out != self.checked:
            shutil.rmtree(out)
        return sample

    def setup_probe(self, tag: str) -> float:
        start = time.perf_counter()
        sample = spawn(
            [HERE / "setup_probe.py", self.corpus / "papers.jsonl", self.corpus / "mentorships.jsonl"],
            self.scratch / f"{tag}.log",
        )
        return float(sample.log.split()[-1]) - start

    def rounds(self, seconds: float, one_round, min_rounds: int) -> None:
        """Whole rounds while at least half of the next one fits in the run length.

        The last round may end up to half a round late, so on average a run
        measures for its full length.
        """
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            start = time.perf_counter()
            one_round(n)
            n += 1
            now = time.perf_counter()
            if n >= min_rounds and now + (now - start) / 2 > deadline:
                return

    def verdict(self) -> dict:
        """Check the first run's outputs apart from the program.

        Every other run reproduced the reference manifest, so its outputs
        are byte-identical to the ones checked here.
        """
        import checks

        res = checks.check_run(self.checked, self.corpus, self.wl.corpus, sample_seed=self.seed)
        self.errors += res.errors
        self.below_plant = len(res.below_plant)
        per_run = self.n_pairs - len(res.left_out)
        # A run whose outputs differ from the reference has no checked pair.
        failed = len(res.failed) * (self.n_runs - self.mismatched) + per_run * self.mismatched
        for pair, reported, planted in res.below_plant:
            outcome = "left out of the counts" if pair in res.left_out else "failed"
            print(f"note: {pair[0]}/{pair[1]}: topic modularity {reported!r} below planted {planted!r}; {outcome}",
                  file=sys.stderr)
        for line in res.summary():
            print(f"check: {line}", file=sys.stderr)
        for line in self.errors:
            print(f"error: {line}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": per_run * self.n_runs, "failed": failed}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float) -> tuple[list[Sample], list[float]]:
    samples: list[Sample] = []
    setups: list[float] = []

    # A probe on each side of every run: single probes vary by about 10 %
    # (CV) back to back, so one per round left setup_s too noisy.
    def one_round(i: int) -> None:
        setups.append(bench.setup_probe(f"setup{i}a"))
        samples.append(bench.cocite_run(f"run{i}"))
        setups.append(bench.setup_probe(f"setup{i}b"))

    bench.rounds(seconds, one_round, min_rounds=2)
    return samples, setups


def end_to_end(samples: list[Sample], setups: list[float], completed: int) -> dict:
    return {
        "wall_s": (median([s.wall_s for s in samples]), "s"),
        "pairs_per_s": (median([completed / s.wall_s for s in samples]), "1/s"),
        "cpu_s": (median([s.cpu_s for s in samples]), "s"),
        "peak_rss_mb": (median([s.peak_rss_mb for s in samples]), "MB"),
        "setup_s": (median(setups), "s"),
    }


# ---------------------------------------------------------------------------
# traced runs


def load_spans(path: Path) -> tuple[dict, list[dict]]:
    head = json.loads(path.read_text(encoding="utf-8"))
    spans = list(head["spans"])
    for extra in sorted(path.parent.glob(path.name + ".*")):
        spans += [json.loads(line) for line in extra.read_text(encoding="utf-8").splitlines()]
    return head, spans


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    edge = lo
    for a, b in sorted(intervals):
        a, b = max(a, edge), min(b, hi)
        if b > a:
            total += b - a
            edge = b
    return total


def layer_metrics(head: dict, spans: list[dict], warm: bool) -> dict[str, float]:
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append((s["start"], s["end"]))
    for name in ALWAYS + PER_PAIR:
        called = bool(by_name[name])
        if name in ALWAYS and not called:
            raise BenchError(f"trace: layer {name} recorded no calls")
        if name in PER_PAIR and called == warm:
            raise BenchError(f"trace: layer {name} {'ran on a warm run' if warm else 'recorded no calls'}")

    def time_in(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s["end"] - s["start"] - covered(children[s["id"]], s["start"], s["end"]) for s in by_name[name])

    def count(name: str, key: str) -> float:
        return sum(s["counts"][key] for s in by_name[name])

    main_ingest = next(s for s in by_name["corpus.ingest"] if s["pid"] == head["pid"])
    pairs = [s["end"] - s["start"] for s in by_name["profiles.pair"]]
    return {
        "import.wall_s": head["import_s"],
        "corpus.ingest_s": time_in("corpus.ingest"),
        "corpus.papers": main_ingest["counts"]["papers"],
        "corpus.rss_mb": main_ingest["counts"]["rss_mb"],
        "pipeline.digest_s": time_in("pipeline.digest"),
        "pipeline.pair_stage_s": time_in("pipeline.pair_stage"),
        "pipeline.pair_stage_self_s": self_time("pipeline.pair_stage"),
        "pipeline.cache_hits": count("pipeline.pair_stage", "cache_hits"),
        "pipeline.cache_misses": count("pipeline.pair_stage", "cache_misses"),
        "distance.average_s": time_in("distance.average"),
        "distance.node_pairs": count("distance.average", "node_pairs"),
        "pairgraph.build_s": time_in("pairgraph.build"),
        "pairgraph.nodes": count("pairgraph.build", "nodes"),
        "pairgraph.edges": count("pairgraph.build", "edges"),
        "community.detect_s": time_in("community.detect"),
        "community.topics": count("community.detect", "topics"),
        "impact.allocate_s": time_in("impact.allocate"),
        "impact.pool_papers": count("impact.allocate", "pool_papers"),
        "topics.classify_s": time_in("topics.classify"),
        "topics.citations_s": time_in("topics.citations"),
        "career.series_s": time_in("career.series"),
        "profiles.self_s": self_time("profiles.pair"),
        "profiles.pair_p50_s": median(pairs),
        "profiles.pair_max_s": max(pairs, default=0.0),
        "pipeline.cohort_s": time_in("pipeline.cohort"),
        "stats.fit_s": time_in("stats.fit"),
        "pipeline.manifest_s": time_in("pipeline.manifest"),
    }


UNITS = {"_s": "s", "_mb": "MB"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def measure_traced(bench: Bench, seconds: float) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []

    def one_round(i: int) -> None:
        plain.append(bench.cocite_run(f"plain{i}").wall_s)
        spans = bench.scratch / f"spans{i}" / "spans.json"
        spans.parent.mkdir()
        traced.append(bench.cocite_run(f"traced{i}", tracer=spans).wall_s)
        layers.append(layer_metrics(*load_spans(spans), bench.wl.warm))

    bench.rounds(seconds, one_round, min_rounds=1)
    metrics = {name: (median([m[name] for m in layers]), unit_of(name)) for name in layers[0]}
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return metrics


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(name, seed)
    try:
        if trace:
            metrics = measure_traced(bench, seconds)
            result = bench.verdict()
            metrics["community.below_plant"] = (bench.below_plant, "count")
        else:
            samples, setups = measure(bench, seconds)
            result = bench.verdict()
            completed = (result["attempted"] - result["failed"]) // bench.n_runs
            metrics = end_to_end(samples, setups, completed)
            walls = " ".join(f"{s.wall_s:.3f}" for s in samples)
            print(f"{name} seed {seed}: run walls {walls} s, setups {' '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    finally:
        bench.close()
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    shown = "  ".join(f"{k} {v:.4g} {u}" for k, (v, u) in metrics.items())
    print(f"{name} seed {seed}: {shown}  attempted {result['attempted']} failed {result['failed']}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of `cocite run`.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cocite" / "__init__.py").is_file():
        print(f"error: no cocite sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"workload": name, **result} if args.workload == "all" else result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
