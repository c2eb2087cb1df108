"""Invariants that no output of `cocite run` may break.

Each test runs `run_pipeline` on a seeded synthetic corpus and on a variant
of it, each into its own output directory, and compares the files that the
manifest hashes:
- shuffling the lines of both input files changes no file;
- papers by new authors that cite only each other change only the
  `papers,ingested` count of `ingest_report.csv`;
- papers by new authors that cite citers of pair papers, and no pair paper,
  change only that count as well;
- dropping mentorships from the file leaves every remaining pair's profile
  the same, apart from the cohort-wide `is_elite` and `outperforming`.

The new papers take ids and author ids that sort between those of the
corpus, so they also renumber the pair papers and authors in the index.
"""

import csv
import json
import random

import pytest

from cocite.pipeline import PipelineConfig, run_pipeline
from cocite.synth import SynthConfig, synthesize_corpus, write_corpus

N_PAIRS = 12
N_ADDED = 300
COHORT_WIDE = ("is_elite", "outperforming")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("invariants")
    write_corpus(synthesize_corpus(SynthConfig(n_pairs=N_PAIRS, seed=3)), out)
    papers = (out / "papers.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    mentorships = (out / "mentorships.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    return papers, mentorships


def run(tmp_path, name, papers, mentorships):
    """The run's hashed files, read as text, by name."""
    folder = tmp_path / name
    folder.mkdir()
    (folder / "papers.jsonl").write_text("".join(papers), encoding="utf-8")
    (folder / "mentorships.jsonl").write_text("".join(mentorships), encoding="utf-8")
    config = PipelineConfig(
        papers=str(folder / "papers.jsonl"),
        mentorships=str(folder / "mentorships.jsonl"),
        out=str(folder / "out"),
        n_bins=4,
    )
    result = run_pipeline(config)
    files = json.loads(result.manifest_path.read_text())["files"]
    return {f: (result.out_dir / f).read_text(encoding="utf-8") for f in files}


@pytest.fixture(scope="module")
def base(corpus, tmp_path_factory):
    return run(tmp_path_factory.mktemp("base"), "base", *corpus)


def with_more_ingested(outputs, n):
    """`outputs` with `n` more papers counted as ingested."""
    rows = []
    for row in csv.reader(outputs["ingest_report.csv"].splitlines()):
        if row[:2] == ["papers", "ingested"]:
            row = [*row[:2], str(int(row[2]) + n)]
        rows.append(",".join(row) + "\n")
    return {**outputs, "ingest_report.csv": "".join(rows)}


def added_paper(k, authors, year, refs):
    # Pair k % N_PAIRS's papers sort as p<pair>c... (citers) and p<pair>w...,
    # so p<pair>u... lands between them.
    return json.dumps(
        {
            "paper_id": f"p{k % N_PAIRS:03d}u{k:05d}",
            "author_ids": authors,
            "pub_year": year,
            "field": "fieldA",
            "reference_ids": refs,
        }
    ) + "\n"


def test_line_order(corpus, base, tmp_path):
    papers, mentorships = (list(lines) for lines in corpus)
    rng = random.Random(0)
    rng.shuffle(papers)
    rng.shuffle(mentorships)
    assert run(tmp_path, "shuffled", papers, mentorships) == base


def test_unrelated_papers(corpus, base, tmp_path):
    papers, mentorships = corpus
    rng = random.Random(1)
    added = [
        added_paper(
            k,
            [f"p{k % N_PAIRS:03d}ua{rng.randrange(40):03d}"],
            rng.randint(1960, 2021),
            [f"p{j % N_PAIRS:03d}u{j:05d}" for j in rng.sample(range(N_ADDED), 3) if j != k],
        )
        for k in range(N_ADDED)
    ]
    outputs = run(tmp_path, "unrelated", papers + added, mentorships)
    assert outputs == with_more_ingested(base, N_ADDED)


def test_citations_of_citers(corpus, base, tmp_path):
    papers, mentorships = corpus
    records = [json.loads(line) for line in papers]
    # In a synthetic corpus only the citers of pair papers hold references.
    citers = [r for r in records if r["reference_ids"]]
    rng = random.Random(2)
    added = []
    for k in range(N_ADDED):
        cited = rng.sample(citers, 4)
        year = max(r["pub_year"] for r in cited)
        added.append(added_paper(k, [f"p{k % N_PAIRS:03d}ua{k:05d}"], year, [r["paper_id"] for r in cited]))
    outputs = run(tmp_path, "citers", papers + added, mentorships)
    assert outputs == with_more_ingested(base, N_ADDED)


def profile_rows(outputs):
    """profiles.csv by (mentor_id, mentee_id), without the cohort-wide columns."""
    rows = list(csv.DictReader(outputs["profiles.csv"].splitlines()))
    return {
        (r["mentor_id"], r["mentee_id"]): {k: v for k, v in r.items() if k not in COHORT_WIDE} for r in rows
    }


def test_other_mentorships(corpus, base, tmp_path):
    papers, mentorships = corpus
    kept = mentorships[::3]
    outputs = run(tmp_path, "subset", papers, kept)
    subset, full = profile_rows(outputs), profile_rows(base)
    assert len(subset) == len(kept)
    assert subset == {pair: full[pair] for pair in subset}
