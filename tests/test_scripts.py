"""Smoke tests of the example and benchmark scripts, run as a user would
run them."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cocite.cli import main
from cocite.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]

# Every layer benchmark/trace.py wraps: the run-level ones and those that run
# at least once per pair. A renamed or removed program function drops its
# layer from the trace.
RUN_LAYERS = {
    "corpus.ingest",
    "pipeline.digest",
    "pipeline.pair_stage",
    "pipeline.cohort",
    "stats.fit",
    "pipeline.manifest",
}
PER_PAIR_LAYERS = {
    "profiles.pair",
    "pairgraph.build",
    "community.detect",
    "topics.classify",
    "impact.allocate",
    "distance.average",
    "career.series",
    "topics.citations",
}
N_PAIRS = 12


def run_script(name, *args, folder="scripts"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / folder / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_distance_curve_experiment():
    proc = run_script("distance_curve_experiment.py", "--n", "300")
    assert proc.returncode == 0, proc.stderr
    assert "model ladder" in proc.stdout
    assert "m6_full" in proc.stdout
    # Every ladder row, the longest name included, starts its R^2 column at
    # the same place.
    rows = [line for line in proc.stdout.splitlines() if " r2=" in line]
    assert len(rows) == 6 and len({line.index(" r2=") for line in rows}) == 1


def test_demo_pipeline(tmp_path):
    proc = run_script("demo_pipeline.py", "--pairs", "12", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "profiles built: 12" in proc.stdout
    assert (tmp_path / "out" / "manifest.json").is_file()


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth12")
    assert main(["synth", "--out", str(out), "--pairs", str(N_PAIRS), "--seed", "1"]) == 0
    return out / "papers.jsonl", out / "mentorships.jsonl"


def traced_run(synth_corpus, spans_path, out):
    """The spans of one `benchmark/trace.py` run into `out`."""
    papers, mentorships = synth_corpus
    proc = run_script(
        "trace.py",
        str(spans_path),
        "--",
        "--papers",
        str(papers),
        "--mentorships",
        str(mentorships),
        "--out",
        str(out),
        "--workers",
        "1",
        folder="benchmark",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())["spans"]


def in_window_papers(papers):
    """The papers count the trace reads off the index, recounted from the JSONL."""
    config = PipelineConfig()
    with open(papers, encoding="utf-8") as fh:
        years = [json.loads(line)["pub_year"] for line in fh]
    return sum(config.year_min <= y <= config.year_max for y in years)


def test_benchmark_trace(synth_corpus, tmp_path):
    spans = traced_run(synth_corpus, tmp_path / "SPANS", tmp_path / "out")
    names = Counter(span["name"] for span in spans)
    assert set(names) == RUN_LAYERS | PER_PAIR_LAYERS
    assert names["profiles.pair"] == N_PAIRS
    for layer in PER_PAIR_LAYERS:
        assert names[layer] >= N_PAIRS, layer

    (ingest,) = [span for span in spans if span["name"] == "corpus.ingest"]
    assert ingest["counts"]["papers"] == in_window_papers(synth_corpus[0])


def test_benchmark_trace_of_a_warm_run(synth_corpus, tmp_path):
    # A warm run still calls every run-level layer, ingest included, and
    # its index counts the same papers.
    traced_run(synth_corpus, tmp_path / "SPANS.cold", tmp_path / "out")
    spans = traced_run(synth_corpus, tmp_path / "SPANS.warm", tmp_path / "out")
    assert {span["name"] for span in spans} == RUN_LAYERS
    (ingest,) = [span for span in spans if span["name"] == "corpus.ingest"]
    assert ingest["counts"]["papers"] == in_window_papers(synth_corpus[0])
    stats = json.loads((tmp_path / "out" / "run_stats.json").read_text())
    assert (stats["ingest_cache"], stats["cache_hits"], stats["cache_misses"]) == ("hit", N_PAIRS, 0)


def test_benchmark_output_checks():
    # The benchmark's checks read the outputs by column name, so an output
    # change that breaks them fails here.
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "benchmark/test_checks.py::test_sparse_output_passes",
            "benchmark/test_checks.py::test_dense_output_passes",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_setup_probe(synth_corpus):
    proc = run_script("setup_probe.py", *map(str, synth_corpus), folder="benchmark")
    assert proc.returncode == 0, proc.stderr
    float(proc.stdout)


def test_sources_parse_as_python_3_10():
    """Every .py file of the repo parses under Python 3.10's grammar, the
    oldest that pyproject.toml allows, so syntax such as `except*` or
    3.12 type-parameter lists fails here first.

    This checks grammar only: a library API missing from 3.10 or from the
    oldest numpy or SciPy still passes.
    """
    sources = [p for folder in ("src", "tests", "benchmark", "scripts") for p in sorted((ROOT / folder).rglob("*.py"))]
    assert len(sources) > 30
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# The package's modules in pipeline order: each may import only those before it.
LAYERS = [
    "errors", "corpus", "pairgraph", "community", "topics", "impact", "distance",
    "career", "stats", "profiles", "synth", "pipeline", "cli",
]


def test_modules_import_only_earlier_layers():
    """Every relative import under src/cocite, also those under
    TYPE_CHECKING and inside functions, names a module before the importer
    in LAYERS. `from . import __version__` is allowed anywhere; `__init__`
    only re-exports and is outside the order."""
    package = ROOT / "src" / "cocite"
    assert {p.stem for p in package.glob("*.py")} - {"__init__"} == set(LAYERS)
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            targets = [node.module] if node.module else [a.name for a in node.names if a.name != "__version__"]
            for target in targets:
                assert LAYERS.index(target) < rank, f"{name}.py:{node.lineno} imports {target}"
