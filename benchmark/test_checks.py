"""The benchmark's output checks pass on real output and catch one altered value.

    python3 -m pytest benchmark/test_checks.py

Run from the root of a checkout; the program is imported from src/.
"""

from __future__ import annotations

import csv
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import dense  # noqa: E402
from cocite.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from cocite.synth import SynthConfig, synthesize_corpus, write_corpus  # noqa: E402


def run_cocite(corpus: Path, out: Path) -> Path:
    run_pipeline(PipelineConfig(
        papers=str(corpus / "papers.jsonl"), mentorships=str(corpus / "mentorships.jsonl"), out=str(out)
    ))
    return out


@pytest.fixture(scope="module")
def sparse(tmp_path_factory):
    base = tmp_path_factory.mktemp("sparse")
    write_corpus(synthesize_corpus(SynthConfig(n_pairs=40, seed=3)), base / "corpus")
    return base / "corpus", run_cocite(base / "corpus", base / "out")


@pytest.fixture(scope="module")
def below_plant(tmp_path_factory):
    """The benchmark's sparse corpus for seed 8, where Louvain merges two
    planted topics of pair mto0041/mte0041 and stops below the plant."""
    base = tmp_path_factory.mktemp("below_plant")
    write_corpus(synthesize_corpus(SynthConfig(n_pairs=200, seed=8)), base / "corpus")
    return base / "corpus", run_cocite(base / "corpus", base / "out")


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("dense")
    dense.generate(2, base / "corpus")
    return base / "corpus", run_cocite(base / "corpus", base / "out")


def altered(out: Path, tmp: Path, name: str, row: int, column: str, change) -> Path:
    """A copy of out with one CSV cell replaced by change(old text)."""
    copy = tmp / "altered"
    shutil.copytree(out, copy)
    with open(copy / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = change(rows[row][column])
    with open(copy / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return copy


def next_up(text: str) -> str:
    return repr(math.nextafter(float(text), math.inf))


def plus_one(text: str) -> str:
    return str(int(text) + 1)


def test_sparse_output_passes(sparse):
    corpus, out = sparse
    res = checks.check_run(out, corpus, "sparse")
    assert not res.failed and not res.errors, res.summary()


def test_dense_output_passes(dense_run):
    corpus, out = dense_run
    res = checks.check_run(out, corpus, "dense", sample_seed=2)
    assert not res.failed and not res.errors, res.summary()


SPARSE_ALTERATIONS = [
    ("profiles.csv", 0, "n_topics", plus_one),
    ("profiles.csv", 1, "strategy", lambda s: "pure_innovate" if s != "pure_innovate" else "pure_follow"),
    ("profiles.csv", 2, "R", next_up),
    ("profiles.csv", 3, "C_r_total", next_up),
    ("profiles.csv", 4, "common_collaborators_count", plus_one),
    ("profiles.csv", 5, "career_len_mto", plus_one),
    ("pair_series.csv", -1, "cumulative", next_up),
    ("ternary.csv", 0, "share_new", lambda s: repr(float(s) + 1e-9)),
    ("quadrants.csv", 0, "count", plus_one),
    ("ccdf.csv", -1, "p_greater", lambda s: "0.01"),
    ("curve.csv", 0, "count", plus_one),
]


@pytest.mark.parametrize("name,row,column,change", SPARSE_ALTERATIONS)
def test_sparse_alteration_is_caught(sparse, tmp_path, name, row, column, change):
    corpus, out = sparse
    res = checks.check_run(altered(out, tmp_path, name, row, column, change), corpus, "sparse")
    assert res.failed or res.errors


@pytest.mark.parametrize("column,change", [("n_edges", plus_one), ("ave_distance", next_up)])
def test_dense_alteration_is_caught(dense_run, tmp_path, column, change):
    corpus, out = dense_run
    res = checks.check_run(altered(out, tmp_path, "profiles.csv", 7, column, change), corpus, "dense", sample_seed=2)
    assert len(res.failed) == 1 and not res.errors


@pytest.mark.parametrize("column", ["C_e_total", "C_r_total"])
def test_impact_oracle_catches_one_ulp(dense_run, column):
    corpus, out = dense_run
    rows = {(r["mentor_id"], r["mentee_id"]): r for r in checks.read_csv(out / "profiles.csv")}
    pair = checks.impact_sample(rows, seed=2)[0]
    rows[pair][column] = next_up(rows[pair][column])
    res = checks.CheckResult()
    checks.check_dense(corpus / "papers.jsonl", rows, res, sample_seed=2)
    assert list(res.failed) == [pair] and "oracle" in res.failed[pair][0]


BELOW = ("mto0041", "mte0041")


def profile_rows(out: Path) -> dict:
    return {(r["mentor_id"], r["mentee_id"]): r for r in checks.read_csv(out / "profiles.csv")}


def test_below_plant_pair_is_left_out(below_plant):
    corpus, out = below_plant
    res = checks.check_run(out, corpus, "sparse")
    assert not res.failed and not res.errors, res.summary()
    assert [pair for pair, _, _ in res.below_plant] == [BELOW] and res.left_out == {BELOW}
    _, reported, planted = res.below_plant[0]
    assert reported < planted


@pytest.mark.parametrize("column", ["C_r_total", "ave_distance", "n_edges", "modularity_q"])
def test_below_plant_pair_alteration_is_caught(below_plant, column):
    corpus, out = below_plant
    rows = profile_rows(out)
    rows[BELOW][column] = (plus_one if column == "n_edges" else next_up)(rows[BELOW][column])
    res = checks.CheckResult()
    checks.check_truth(corpus, rows, res)
    assert list(res.failed) == [BELOW] and not res.left_out


def test_second_below_plant_pair_fails_the_run(below_plant):
    """A Louvain change that loses modularity on more pairs is caught."""
    corpus, out = below_plant
    rows = profile_rows(out)
    other = ("mto0042", "mte0042")
    rows[other]["n_topics"] = plus_one(rows[other]["n_topics"])
    rows[other]["modularity_q"] = repr(float(rows[other]["modularity_q"]) - 0.01)
    res = checks.CheckResult()
    checks.check_truth(corpus, rows, res)
    assert res.errors and set(res.failed) == {BELOW, other} and not res.left_out


def test_claimed_higher_modularity_is_caught(sparse):
    """A pair off the plant that reports more modularity than its topics
    have is not excused."""
    corpus, out = sparse
    rows = profile_rows(out)
    pair = sorted(rows)[0]
    rows[pair]["strategy"] = "pure_innovate" if rows[pair]["strategy"] != "pure_innovate" else "pure_follow"
    rows[pair]["modularity_q"] = repr(float(rows[pair]["modularity_q"]) + 0.01)
    res = checks.CheckResult()
    checks.check_truth(corpus, rows, res)
    assert list(res.failed) == [pair] and not res.below_plant
