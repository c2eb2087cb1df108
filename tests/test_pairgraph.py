"""Pair co-citation graph construction."""

import pytest
from hypothesis import given, settings, strategies as st

from cocite.errors import EmptyPair
from cocite.pairgraph import MENTEE_SIDE, MENTOR_SIDE, Authorship, pair_authors

from helpers import (
    brute_force_edges,
    make_index,
    named_pair_graph,
    pair_graph,
    paper,
    random_pair_corpus,
    side_nodes,
)


def small_pair_index():
    return make_index(
        paper("e1", "E"),
        paper("e2", "E"),
        paper("r1", "R"),
        paper("j1", ("E", "R")),
        paper("c1", "x1", refs=("e1", "r1")),
        paper("c2", "x2", refs=("e1", "r1", "j1")),
        paper("c3", "x3", refs=("e2",)),
    )


class TestBuild:
    def test_labels(self):
        g = named_pair_graph("R", "E", small_pair_index())
        assert g.labels == {
            "e1": Authorship.MENTEE,
            "e2": Authorship.MENTEE,
            "r1": Authorship.MENTOR,
            "j1": Authorship.JOINT,
        }
        assert side_nodes(g, MENTEE_SIDE) == ["e1", "e2", "j1"]
        assert side_nodes(g, MENTOR_SIDE) == ["j1", "r1"]

    def test_edges_and_sources(self):
        g = named_pair_graph("R", "E", small_pair_index())
        assert list(g.cociting_sources) == [("e1", "j1"), ("e1", "r1"), ("j1", "r1")]
        assert g.cociting_sources[("e1", "r1")] == ("c1", "c2")
        assert g.cociting_sources[("e1", "j1")] == ("c2",)
        assert g.adjacency["e2"] == ()
        assert g.adjacency["e1"] == ("j1", "r1")

    def test_single_citation_makes_no_edge(self):
        idx = make_index(
            paper("e1", "E"),
            paper("r1", "R"),
            paper("c1", "x", refs=("e1",)),
            paper("c2", "y", refs=("r1",)),
        )
        g = pair_graph("R", "E", idx)
        assert g.n_edges == 0

    def test_empty_pair(self):
        idx = make_index(paper("e1", "E"))
        with pytest.raises(EmptyPair, match="mentor R has no papers"):
            pair_authors("R", "E", idx)
        with pytest.raises(EmptyPair, match="mentee missing has no papers"):
            pair_authors("E", "missing", idx)

    def test_as_weighted_symmetric(self):
        g = named_pair_graph("R", "E", small_pair_index())
        w = g.as_weighted()
        for u, nbrs in w.items():
            for v, weight in nbrs.items():
                assert weight == 1.0
                assert w[v][u] == 1.0


class TestSelfCocitation:
    def test_pair_paper_as_citer(self):
        # e2 cites e1 and r1; it is itself a pair node.
        idx = make_index(
            paper("e1", "E"),
            paper("e2", "E", refs=("e1", "r1")),
            paper("r1", "R"),
        )
        g = named_pair_graph("R", "E", idx)
        assert list(g.cociting_sources) == [("e1", "r1")]
        assert g.cociting_sources[("e1", "r1")] == ("e2",)

        g2 = named_pair_graph("R", "E", idx, exclude_self_cocitation=True)
        assert g2.n_edges == 0

    def test_mixed_sources_shrink(self):
        idx = make_index(
            paper("e1", "E"),
            paper("e2", "E", refs=("e1", "r1")),
            paper("r1", "R"),
            paper("c1", "x", refs=("e1", "r1")),
        )
        g = named_pair_graph("R", "E", idx, exclude_self_cocitation=True)
        assert g.cociting_sources[("e1", "r1")] == ("c1",)


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_forward_scan(self, seed):
        records, mentor, mentee, _ = random_pair_corpus(seed, max_papers=20, max_citers=60)
        g = named_pair_graph(mentor, mentee, make_index(*records))
        expected = brute_force_edges(records, set(g.nodes))
        assert set(g.cociting_sources) == set(expected)
        for edge, srcs in g.cociting_sources.items():
            assert set(srcs) == expected[edge]
        assert g.n_edges == len(expected)
        # Adjacency is the symmetrized edge list.
        for u, v in expected:
            assert v in g.adjacency[u] and u in g.adjacency[v]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_exclusion_flag_matches(self, seed):
        records, mentor, mentee, _ = random_pair_corpus(seed, max_papers=15, max_citers=40)
        g = named_pair_graph(mentor, mentee, make_index(*records), exclude_self_cocitation=True)
        expected = brute_force_edges(records, set(g.nodes), exclude_self_cocitation=True)
        assert set(g.cociting_sources) == set(expected)
        assert g.n_edges == len(expected)
        for edge, srcs in g.cociting_sources.items():
            assert set(srcs) == expected[edge]
