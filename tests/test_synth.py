"""Synthetic corpus generators and their planted ground truth, and the
random builders and impact oracle in helpers."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from cocite.community import detect_topics
from cocite.corpus import CitationIndex, IngestConfig, cohort_flags, ingest_corpus
from cocite.impact import allocate_impact
from cocite.pairgraph import MENTEE_SIDE, MENTOR_SIDE
from cocite.synth import SynthConfig, planted_regression_cohort, synthesize_corpus, write_corpus
from cocite.topics import classify_strategy, classify_topics

from helpers import (
    make_index,
    named_pair_graph,
    oracle_impact,
    pair_graph,
    paper,
    planted_partition_pair_graph,
    random_pair_corpus,
    random_pair_graph,
    side_nodes,
)


def topic_ids(index, assignment):
    """Each detected topic's members as a set of paper ids."""
    return {j: frozenset(index.paper_ids[p] for p in ms) for j, ms in assignment.topics.items()}


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = SynthConfig(n_pairs=3, seed=42)
        p1 = write_corpus(synthesize_corpus(cfg), tmp_path / "a")
        p2 = write_corpus(synthesize_corpus(cfg), tmp_path / "b")
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = write_corpus(synthesize_corpus(SynthConfig(n_pairs=2, seed=1)), tmp_path / "a")
        b = write_corpus(synthesize_corpus(SynthConfig(n_pairs=2, seed=2)), tmp_path / "b")
        assert a[0].read_bytes() != b[0].read_bytes()

    @pytest.mark.parametrize(
        "cfg, digests",
        [
            (
                SynthConfig(n_pairs=200, seed=1),
                (
                    "7da9102707771cd1e680b9ef750cfc4f3e37897afd74a4239fcaa3b413e8dda1",
                    "f606bf19d0db1a1208f33433a37760de862cc591ca7f2b533d6fb47f9562116c",
                    "d99fd5bb2c1091425ccd1d43802bf149802f63df983670577e052e017fa20470",
                ),
            ),
            (
                SynthConfig(n_pairs=6, seed=4, p_in=0.5, p_out=0.1, fields=("x", "y", "z")),
                (
                    "9ae117ab7641ac40116a30383860bd242a8f91872913334806de630c84f87332",
                    "da4c315e9a8e4cd4865e4bad6d3eb1f98a5e39d9d10f9a42fdb10158c25b856d",
                    "7c7baac92681eb388e444b63c476de4e3a3c311e2ceab9aeb416794beae45afc",
                ),
            ),
        ],
        ids=["sparse-200-seed1", "small-nondefault"],
    )
    def test_pinned_bytes(self, cfg, digests, tmp_path):
        """The planted truth is the oracle for every other check, so its
        bytes are pinned: papers.jsonl, mentorships.jsonl, ground_truth.json."""
        paths = write_corpus(synthesize_corpus(cfg), tmp_path)
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == digests


@pytest.fixture(scope="module")
def corpus():
    return synthesize_corpus(SynthConfig(n_pairs=6, seed=7))


class TestPlantedPairs:
    def test_ingests_clean_through_default_filters(self, corpus, tmp_path):
        papers, mentorships, _ = write_corpus(corpus, tmp_path)
        result = ingest_corpus(papers, mentorships, IngestConfig())
        assert len(result.mentorships) == 6
        assert result.report["mentorships", "dropped_ineligible"] == 0

    def test_realized_careers_match_truth(self, corpus):
        index = CitationIndex(corpus.papers)
        for truth in corpus.truths.values():
            mte = cohort_flags(index.author(truth.mentee_id), index)
            mto = cohort_flags(index.author(truth.mentor_id), index)
            assert mte.first_pub_year == truth.mentee_first_year
            assert mte.career_len == truth.mentee_career_len
            assert mto.first_pub_year == truth.mentor_first_year
            assert mto.career_len == truth.mentor_career_len

    def test_detection_recovers_planted_topics(self, corpus):
        index = CitationIndex(corpus.papers)
        for (mentor, mentee), truth in corpus.truths.items():
            graph = pair_graph(mentor, mentee, index)
            assignment = detect_topics(graph)
            detected = set(topic_ids(index, assignment).values())
            planted = {}
            for pid, t in truth.topic_of.items():
                planted.setdefault(t, set()).add(pid)
            assert detected == {frozenset(ms) for ms in planted.values()}

    def test_planted_impact_matches_allocation(self, corpus):
        index = CitationIndex(corpus.papers)
        for (mentor, mentee), truth in corpus.truths.items():
            graph = pair_graph(mentor, mentee, index)
            assignment = detect_topics(graph)
            alloc = allocate_impact(graph, assignment, index)
            members = topic_ids(index, assignment)
            # Map detected ids onto planted ids via their member sets.
            planted_members = {}
            for pid, t in truth.topic_of.items():
                planted_members.setdefault(t, set()).add(pid)
            member_to_planted = {
                frozenset(ms): t for t, ms in planted_members.items()
            }
            for j, topic in alloc.topics.items():
                t = member_to_planted[members[j]]
                assert topic.c_mentee == truth.per_topic_mentee_impact[t]
                assert topic.c_mentor == truth.per_topic_mentor_impact[t]
            assert alloc.mentee_total == truth.mentee_total
            assert alloc.mentor_total == truth.mentor_total

    def test_planted_strategy_recovered(self, corpus):
        index = CitationIndex(corpus.papers)
        for (mentor, mentee), truth in corpus.truths.items():
            graph = pair_graph(mentor, mentee, index)
            assignment = detect_topics(graph)
            typing = classify_topics(graph, assignment)
            rec = classify_strategy(typing)
            assert rec.strategy is truth.strategy
            assert rec.n_shared == truth.n_shared
            assert rec.n_new == truth.n_new
            assert rec.new_topic_ratio == truth.new_topic_ratio

    def test_planted_primary_topics_recovered(self, corpus):
        index = CitationIndex(corpus.papers)
        for (mentor, mentee), truth in corpus.truths.items():
            graph = pair_graph(mentor, mentee, index)
            assignment = detect_topics(graph)
            typing = classify_topics(graph, assignment)
            members = topic_ids(index, assignment)
            planted_members = {}
            for pid, t in truth.topic_of.items():
                planted_members.setdefault(t, set()).add(pid)
            member_to_planted = {
                frozenset(ms): t for t, ms in planted_members.items()
            }
            primary = {
                member_to_planted[members[j]]
                for j, kind in typing.mentor_side.items()
                if kind.value == "primary"
            }
            assert primary == set(truth.mentor_primary_topics)

    def test_ground_truth_file_round_trips(self, corpus, tmp_path):
        _, _, truth_path = write_corpus(corpus, tmp_path)
        data = json.loads(truth_path.read_text())
        assert len(data["pairs"]) == 6
        strategies = {p["strategy"] for p in data["pairs"]}
        assert strategies == {"pure_follow", "follow_and_innovate", "pure_innovate"}


class TestOracleImpact:
    def test_hand_values(self):
        # Same layout as the impact hand fixture; the oracle must reproduce
        # the manually computed pools and scores through its forward scan.
        records = [
            paper("e1", "E"),
            paper("r1", ("R", "z1")),
            paper("j1", ("E", "R")),
            paper("c1", "x1", refs=("e1", "r1")),
            paper("c2", "x2", refs=("e1", "j1")),
            paper("c3", "x3", refs=("r1",)),
            paper("c4", "x4", refs=("r1", "j1")),
        ]
        graph = named_pair_graph("R", "E", make_index(*records))
        oracle = oracle_impact(records, graph.labels, {0: ("e1", "r1", "j1")})
        topic = oracle.topics[0]
        assert topic.pool == {"c1", "c2", "c4"}
        assert topic.w == {"e1": 2, "r1": 2, "j1": 2}
        assert topic.c_mentee == 3.0
        assert topic.c_mentor == 2.0
        assert float(topic.c_mentee_exact) == 3.0


class TestGeneratorValidity:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_pair_graph_has_both_sides(self, seed):
        g = random_pair_graph(seed)
        assert side_nodes(g, MENTEE_SIDE) and side_nodes(g, MENTOR_SIDE)
        for u, nbrs in g.adjacency.items():
            for v in nbrs:
                assert u in g.adjacency[v]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_pair_corpus_assignment_is_dense(self, seed):
        records, mentor, mentee, assignment = random_pair_corpus(seed)
        index = make_index(*records)
        assert index.author(mentor) is not None and index.author(mentee) is not None
        ids = sorted(assignment.topics)
        assert ids == list(range(len(ids)))
        sizes = [len(assignment.topics[j]) for j in ids]
        assert sizes == sorted(sizes, reverse=True)

    def test_planted_partition_shape(self):
        g, block_of = planted_partition_pair_graph(seed=0)
        assert len(g.nodes) == 60
        assert set(block_of.values()) == {0, 1, 2, 3}


class TestRegressionCohort:
    def test_columns_and_identity(self):
        table, truth = planted_regression_cohort(seed=1, n=50)
        assert truth["peak"] == 2.0
        total = table["colla_work_count"]
        split = table["colla_work_count_first_5y"] + table["colla_work_count_later"]
        assert (total == split).all()
        assert (table["ave_distance_sq"] == table["ave_distance"] ** 2).all()

    def test_deterministic(self):
        t1, _ = planted_regression_cohort(seed=9, n=20)
        t2, _ = planted_regression_cohort(seed=9, n=20)
        for k in t1:
            assert (t1[k] == t2[k]).all()
