"""Average mentee-mentor distance against fixtures and a dense oracle."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cocite import distance
from cocite.distance import average_distance
from cocite.errors import NoFinitePaths
from cocite.pairgraph import Authorship

from helpers import (
    bfs_distances,
    bfs_max_finite_distance,
    graph_from_edges,
    oracle_average_distance,
    random_pair_graph,
)

E = Authorship.MENTEE
R = Authorship.MENTOR
J = Authorship.JOINT


def graph(labels, edges):
    return graph_from_edges(labels, edges)


def assert_builtin_types(res):
    """Every field is a plain Python scalar: profiles.csv writes floats with
    repr and the pair cache writes JSON, and numpy scalars change both."""
    assert type(res.ave_distance) is float
    assert type(res.n_pairs) is int
    assert type(res.n_disconnected) is int
    assert res.max_finite_distance is None or type(res.max_finite_distance) is int
    assert type(res.substituted) is bool


class TestBfs:
    def test_hop_counts(self):
        g = graph({"a": E, "b": E, "c": R, "d": R}, [("a", "b"), ("b", "c")])
        assert bfs_distances(g, "a") == {"a": 0, "b": 1, "c": 2}

    def test_unreachable_nodes_absent(self):
        g = graph({"a": E, "b": R}, [])
        assert bfs_distances(g, "a") == {"a": 0}


class TestFixtures:
    def test_single_edge(self):
        res = average_distance(graph({"e1": E, "r1": R}, [("e1", "r1")]))
        assert res.ave_distance == 1.0
        assert res.n_pairs == 1
        assert res.n_disconnected == 0
        assert not res.substituted

    def test_path_averages_over_all_pairs(self):
        # d(e1,r1)=2 and d(e2,r1)=1 average to 1.5.
        g = graph({"e1": E, "e2": E, "r1": R}, [("e1", "e2"), ("e2", "r1")])
        res = average_distance(g)
        assert res.ave_distance == 1.5
        assert res.n_pairs == 2

    def test_disconnected_pair_substitutes_max_finite(self):
        # e2 floats free; its pair with r1 borrows max finite distance 1.
        g = graph({"e1": E, "e2": E, "r1": R}, [("e1", "r1")])
        res = average_distance(g)
        assert res.max_finite_distance == 1
        assert res.n_disconnected == 1
        assert res.substituted
        assert res.ave_distance == (1 + 1) / 2

    def test_single_joint_paper_is_zero(self):
        res = average_distance(graph({"j1": J}, []))
        assert res.ave_distance == 0.0
        assert res.n_pairs == 1

    def test_joint_self_pairs_dilute_the_average(self):
        # Pairs: (j1,j1)=0, (j1,r1)=2, (x,r1)... x is mentee-side.
        g = graph({"j1": J, "x": E, "r1": R}, [("j1", "x"), ("x", "r1")])
        included = average_distance(g, include_joint_self_pairs=True)
        excluded = average_distance(g, include_joint_self_pairs=False)
        # Included: (j1,j1)=0 (j1,r1)=2 (x,j1)=1 (x,r1)=1 -> 4/4.
        assert included.ave_distance == 1.0
        assert included.n_pairs == 4
        # Excluded drops only the self pair: 4/3.
        assert excluded.ave_distance == pytest.approx(4 / 3)
        assert excluded.n_pairs == 3

    def test_no_finite_distance_anywhere_raises(self):
        with pytest.raises(NoFinitePaths):
            average_distance(graph({"e1": E, "r1": R}, []))

    def test_self_pairs_excluded_and_empty_raises(self):
        with pytest.raises(NoFinitePaths):
            average_distance(graph({"j1": J}, []), include_joint_self_pairs=False)

    def test_substitution_uses_global_max_not_pairwise(self):
        # The only finite paths run mentee-to-mentee (e1-a-b-e2, length 3);
        # the disconnected (e, r1) pairs still substitute that global max.
        g = graph(
            {"e1": E, "a": E, "b": E, "e2": E, "r1": R},
            [("e1", "a"), ("a", "b"), ("b", "e2")],
        )
        res = average_distance(g)
        assert res.max_finite_distance == 3
        assert res.n_disconnected == 4
        assert res.ave_distance == 3.0

    def test_substitution_max_between_mentor_only_nodes(self):
        # e1-r1 is the only mentee path (length 1); the largest finite
        # distance is r2-r3-r4 (length 2), between two mentor-only papers.
        g = graph(
            {"e1": E, "r1": R, "r2": R, "r3": R, "r4": R},
            [("e1", "r1"), ("r2", "r3"), ("r3", "r4")],
        )
        res = average_distance(g)
        assert res.max_finite_distance == 2
        assert (res.n_pairs, res.n_disconnected) == (4, 3)
        assert res.ave_distance == (1 + 3 * 2) / 4

    @pytest.mark.parametrize("include,n_pairs", [(True, 4), (False, 3)])
    def test_joint_paper_in_singleton_component(self, include, n_pairs):
        # j1 is on both sides but has no edge: (e1,r1)=1, (e1,j1) and (j1,r1)
        # borrow max finite 1, and (j1,j1)=0 counts only when included.
        g = graph({"j1": J, "e1": E, "r1": R}, [("e1", "r1")])
        res = average_distance(g, include_joint_self_pairs=include)
        assert (res.n_pairs, res.n_disconnected) == (n_pairs, 2)
        assert res.max_finite_distance == 1
        assert res.ave_distance == 3 / n_pairs
        assert oracle_average_distance(g, include_joint_self_pairs=include) == (
            res.ave_distance, res.n_pairs, res.n_disconnected,
        )

    @pytest.mark.parametrize(
        "labels,edges",
        [
            ({"e1": E, "e2": E, "r1": R}, [("e1", "r1")]),
            ({"e1": E, "e2": E, "r1": R}, [("e1", "e2"), ("e2", "r1")]),
        ],
        ids=["substituted", "connected"],
    )
    def test_fields_are_builtin_scalars(self, labels, edges):
        res = average_distance(graph(labels, edges))
        assert_builtin_types(res)


def check_against_oracles(seed, include):
    g = random_pair_graph(seed)
    expected = oracle_average_distance(g, include_joint_self_pairs=include)
    if expected is None:
        with pytest.raises(NoFinitePaths):
            average_distance(g, include_joint_self_pairs=include)
        return
    res = average_distance(g, include_joint_self_pairs=include)
    ave, n_pairs, n_disc = expected
    assert res.ave_distance == ave
    assert res.n_pairs == n_pairs
    assert res.n_disconnected == n_disc
    assert res.max_finite_distance == bfs_max_finite_distance(g)
    assert_builtin_types(res)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), include=st.booleans())
    def test_matches_floyd_warshall(self, seed, include):
        check_against_oracles(seed, include)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), include=st.booleans())
    def test_matches_floyd_warshall_one_row_chunks(self, seed, include):
        # random_pair_graph fits one chunk; one source row per chunk makes
        # every source cross a chunk boundary.
        with mock.patch.object(distance, "CHUNK_CELLS", 1):
            check_against_oracles(seed, include)
