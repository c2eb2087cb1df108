"""Pinned digests of the outputs that the citation index decides.

A seeded synthetic corpus is run through `run_pipeline` and `cocite pair`.
Appended to it are one cross pair (the mentor of one planted pair and the
mentee of another, so their graph falls apart and the distance is
substituted) and two papers of the first pair that cite its own papers, so
that `exclude_self_cocitation` changes the graph. They also carry a
repeated author, non-ASCII ids, a forward reference and a reference to an
id with no record. Only files that no BLAS routine touches are pinned: the
regression and fit files may differ in their last bits between builds of
numpy.
"""

import hashlib
import json

import pytest

from cocite.cli import main
from cocite.pipeline import PipelineConfig, run_pipeline
from cocite.synth import SynthConfig, synthesize_corpus, write_corpus

RUN_DIGESTS = {
    False: {
        "ingest_report.csv": "0fe340c8c488821ca64b02bf581799139b57a3cc9bd46b2f1872a1963d626d8b",
        "profiles.csv": "72821ff510dc5541924123ded6228932f36b47bb58453a39d2ff2af4008f368f",
        "failures.csv": "ad855c288ce78aef3ae6a3cb1fc5f87115659af63c5ab57e32c7f48332e49f80",
    },
    True: {
        "ingest_report.csv": "0fe340c8c488821ca64b02bf581799139b57a3cc9bd46b2f1872a1963d626d8b",
        "profiles.csv": "3015bc6b8f7c2d79614d43f4b81fd4aa0225bc48266e06245dcf49f49b183118",
        "failures.csv": "ad855c288ce78aef3ae6a3cb1fc5f87115659af63c5ab57e32c7f48332e49f80",
    },
}

PAIR_DIGESTS = {
    False: {
        "nodes.csv": "75c71b125c6a55022c69922840517f567dcf49ec7daac7ef94130932aec8ec77",
        "edges.csv": "a26d306dcebaa63f6e71ab0f95095d2a5b06e7c0c74c8a549882ecbbae24bef9",
        "topics.csv": "175376278523b098d26651a0bdf282b3952d2951e78826241fe17217a5b9b5c2",
        "impact.csv": "3a36cee7d58a43b58012907a69144e3e2754c922a0dc42583dbbcca2b2360822",
    },
    True: {
        "nodes.csv": "75c71b125c6a55022c69922840517f567dcf49ec7daac7ef94130932aec8ec77",
        "edges.csv": "a366d759d88409f9774265ad6aa1bdeeb660278dbfd2f228dde47fcb1805bc29",
        "topics.csv": "b6a92d1573182a18c85f05100a4a4f7db60191a486c203c3f71213b1fac36b1b",
        "impact.csv": "a573cd7068ea8d02858f9f47bd4ffd524d7f2be34f34f2eb6e81cb510050dcd9",
    },
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    corpus = synthesize_corpus(SynthConfig(n_pairs=6, seed=5))
    write_corpus(corpus, out)
    first, second = corpus.mentorships[:2]
    self_citing = [
        {
            "paper_id": "p000x\u00e9a",
            "author_ids": [first.mentor_id, first.mentor_id, "co-\u00fc"],
            "pub_year": 2000,
            "field": first.field,
            "reference_ids": ["p000w0000", "p000w0002", "p000w0004", "ghost", "p000x\u00e9b"],
        },
        {
            "paper_id": "p000x\u00e9b",
            "author_ids": [first.mentee_id],
            "pub_year": 2001,
            "field": first.field,
            "reference_ids": ["p000w0001", "p000w0003", "p000w0010"],
        },
    ]
    with (out / "papers.jsonl").open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in self_citing)
    cross = {"mentor_id": first.mentor_id, "mentee_id": second.mentee_id, "start_year": None, "field": first.field}
    with (out / "mentorships.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(cross) + "\n")
    return out


def digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("exclude", [False, True], ids=["default", "exclude_self_cocitation"])
def test_run_outputs_are_pinned(corpus_dir, tmp_path, exclude):
    config = PipelineConfig(
        papers=str(corpus_dir / "papers.jsonl"),
        mentorships=str(corpus_dir / "mentorships.jsonl"),
        out=str(tmp_path / "run"),
        exclude_self_cocitation=exclude,
    )
    result = run_pipeline(config)
    assert digests(result.out_dir, RUN_DIGESTS[exclude]) == RUN_DIGESTS[exclude]
    # A warm run loads the index from the cache and must give the same files.
    warm = run_pipeline(config)
    assert json.loads((warm.out_dir / "run_stats.json").read_text())["ingest_cache"] == "hit"
    assert digests(warm.out_dir, RUN_DIGESTS[exclude]) == RUN_DIGESTS[exclude]


@pytest.mark.parametrize("exclude", [False, True], ids=["default", "exclude_self_cocitation"])
def test_pair_outputs_are_pinned(corpus_dir, tmp_path, exclude):
    mentorship = json.loads((corpus_dir / "mentorships.jsonl").read_text().splitlines()[0])
    args = [
        "pair",
        "--papers", str(corpus_dir / "papers.jsonl"),
        "--mentorships", str(corpus_dir / "mentorships.jsonl"),
        "--mentor", mentorship["mentor_id"],
        "--mentee", mentorship["mentee_id"],
        "--out", str(tmp_path / "pair"),
    ]
    if exclude:
        args.append("--exclude-self-cocitation")
    assert main(args) == 0
    assert digests(tmp_path / "pair", PAIR_DIGESTS[exclude]) == PAIR_DIGESTS[exclude]
