"""Topic-specific impact allocation against hand values and the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocite.community import TopicAssignment
from cocite.impact import allocate_impact, cociting_pool
from cocite.pairgraph import MENTEE_SIDE

from helpers import (
    make_index,
    numbered_assignment,
    oracle_impact,
    pair_graph,
    paper,
    paper_number,
    random_pair_corpus,
)


def assignment_for(topics):
    topic_of = {}
    for j, members in topics.items():
        for m in members:
            topic_of[m] = j
    return TopicAssignment(
        topic_of=topic_of,
        topics={j: tuple(sorted(ms)) for j, ms in topics.items()},
        modularity_q=0.0,
    )


def ids(index, papers):
    return [index.paper_ids[p] for p in papers]


def hand_fixture():
    # Topic 0: e1 (1 author), r1 (2 authors), j1 (2 authors: E and R).
    # c1 cites e1+r1, c2 cites e1+j1, c3 cites only r1 (not in pool),
    # c4 cites r1+j1.
    index = make_index(
        paper("e1", "E"),
        paper("r1", ("R", "z1")),
        paper("j1", ("E", "R")),
        paper("c1", "x1", refs=("e1", "r1")),
        paper("c2", "x2", refs=("e1", "j1")),
        paper("c3", "x3", refs=("r1",)),
        paper("c4", "x4", refs=("r1", "j1")),
    )
    graph = pair_graph("R", "E", index)
    assignment = numbered_assignment(assignment_for({0: ["e1", "r1", "j1"]}), index)
    return index, graph, assignment


class TestHandValues:
    def test_pool_membership(self):
        index, _, _ = hand_fixture()
        pool, w = cociting_pool(np.array([paper_number(index, p) for p in ("e1", "r1", "j1")]), index)
        assert ids(index, pool) == ["c1", "c2", "c4"]
        assert w.tolist() == [2, 2, 2]

    def test_scores_and_shares(self):
        index, graph, assignment = hand_fixture()
        alloc = allocate_impact(graph, assignment, index)
        topic = alloc.topics[0]
        assert topic.p_j_size == 3
        w = {index.paper_ids[r.paper]: r.w for r in topic.rows}
        assert w == {"e1": 2, "r1": 2, "j1": 2}
        shares = {index.paper_ids[r.paper]: r.contribution for r in topic.rows}
        assert shares == {"e1": 2 / 1, "r1": 2 / 2, "j1": 2 / 2}
        # Joint paper lands on both sides.
        assert topic.c_mentee == pytest.approx(2.0 + 1.0)
        assert topic.c_mentor == pytest.approx(1.0 + 1.0)
        assert alloc.mentee_total == topic.c_mentee
        assert alloc.mentor_total == topic.c_mentor

    def test_lone_citations_score_zero(self):
        index = make_index(
            paper("e1", "E"),
            paper("e2", "E"),
            paper("r1", "R"),
            paper("c1", "x", refs=("e1", "e2")),
            paper("c2", "y", refs=("r1",)),
        )
        graph = pair_graph("R", "E", index)
        alloc = allocate_impact(graph, numbered_assignment(assignment_for({0: ["e1", "e2", "r1"]}), index), index)
        w = {index.paper_ids[r.paper]: r.w for r in alloc.topics[0].rows}
        assert w == {"e1": 1, "e2": 1, "r1": 0}
        assert alloc.mentor_total == 0.0

    def test_pool_is_per_topic(self):
        # c1 cites one member of each topic: in neither pool.
        index = make_index(
            paper("e1", "E"),
            paper("e2", "E"),
            paper("r1", "R"),
            paper("r2", "R"),
            paper("c1", "x", refs=("e1", "r1")),
            paper("c2", "y", refs=("e1", "e2")),
        )
        graph = pair_graph("R", "E", index)
        alloc = allocate_impact(
            graph, numbered_assignment(assignment_for({0: ["e1", "e2"], 1: ["r1", "r2"]}), index), index
        )
        assert ids(index, alloc.topics[0].pool) == ["c2"]
        assert ids(index, alloc.topics[1].pool) == []

    def test_unassigned_papers_excluded(self):
        index, graph, _ = hand_fixture()
        assignment = numbered_assignment(assignment_for({0: ["e1", "r1"]}), index)  # j1 left out
        alloc = allocate_impact(graph, assignment, index)
        assert "j1" not in ids(index, [r.paper for r in alloc.topics[0].rows])
        # Pool only needs >=2 members among {e1, r1}: c2 and c4 cite one each.
        assert ids(index, alloc.topics[0].pool) == ["c1"]


class TestConservation:
    def test_totals_are_fsum_of_rows(self):
        index, graph, assignment = hand_fixture()
        alloc = allocate_impact(graph, assignment, index)
        mentee_shares = [
            r.contribution
            for t in alloc.topics.values()
            for r in t.rows
            if r.authorship in MENTEE_SIDE
        ]
        assert alloc.mentee_total == math.fsum(mentee_shares)


class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_exact_equality(self, seed):
        records, mentor, mentee, assignment = random_pair_corpus(seed)
        index = make_index(*records)
        graph = pair_graph(mentor, mentee, index)
        alloc = allocate_impact(graph, numbered_assignment(assignment, index), index)
        labels = {index.paper_ids[n]: label for n, label in graph.labels.items()}
        oracle = oracle_impact(records, labels, assignment.topics)
        assert set(alloc.topics) == set(oracle.topics)
        for j, topic in alloc.topics.items():
            ora = oracle.topics[j]
            assert set(ids(index, topic.pool)) == ora.pool
            assert {index.paper_ids[r.paper]: r.w for r in topic.rows} == ora.w
            assert topic.c_mentee == ora.c_mentee
            assert topic.c_mentor == ora.c_mentor
            # Exact rational totals bound the float error of the fsum path.
            assert abs(topic.c_mentee - float(ora.c_mentee_exact)) < 1e-9
            assert abs(topic.c_mentor - float(ora.c_mentor_exact)) < 1e-9
        assert alloc.mentee_total == oracle.mentee_total
        assert alloc.mentor_total == oracle.mentor_total
