"""Modularity scoring and community detection."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cocite.community import (
    DetectionConfig,
    _aggregate,
    detect_topics,
    louvain,
    modularity,
)
from cocite.pairgraph import Authorship

from helpers import (
    graph_from_edges,
    naive_modularity,
    nmi,
    planted_partition_pair_graph,
    random_pair_graph,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def weighted(edges, nodes=()):
    adj = {n: {} for n in nodes}
    for u, v, w in edges:
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
    return adj


def random_weighted_graph(seed, max_nodes=30):
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    adj = {u: {} for u in nodes}
    for i, u in enumerate(nodes):
        if rng.random() < 0.1:
            adj[u][u] = rng.choice((1.0, 2.0, rng.uniform(0.5, 3.0)))
        for v in nodes[i + 1:]:
            if rng.random() < rng.uniform(0.05, 0.4):
                w = rng.choice((1.0, rng.uniform(0.5, 3.0)))
                adj[u][v] = w
                adj[v][u] = w
    partition = {u: rng.randrange(1, 5) for u in nodes}
    return adj, partition


class TestModularity:
    def test_two_disjoint_edges(self):
        adj = weighted([("a", "b", 1.0), ("c", "d", 1.0)])
        part = {"a": 0, "b": 0, "c": 1, "d": 1}
        assert modularity(adj, part) == 0.5

    def test_all_singletons_formula(self):
        adj = weighted([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0), ("c", "d", 1.0)])
        part = {n: i for i, n in enumerate(sorted(adj))}
        two_m = sum(sum(nbrs.values()) for nbrs in adj.values())
        expected = -sum(
            (sum(nbrs.values()) / two_m) ** 2 for nbrs in adj.values()
        )
        assert modularity(adj, part) == pytest.approx(expected, abs=1e-15)

    def test_empty_graph_scores_zero(self):
        assert modularity({"a": {}, "b": {}}, {"a": 0, "b": 1}) == 0.0
        assert modularity({}, {}) == 0.0

    def test_gamma_scaling(self):
        adj = weighted([("a", "b", 1.0), ("c", "d", 1.0)])
        part = {"a": 0, "b": 0, "c": 1, "d": 1}
        for gamma in (0.5, 1.0, 2.0):
            assert modularity(adj, part, gamma) == pytest.approx(
                naive_modularity(adj, part, gamma), abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_naive_double_loop(self, seed):
        adj, partition = random_weighted_graph(seed)
        assert modularity(adj, partition) == pytest.approx(
            naive_modularity(adj, partition), abs=1e-12
        )


class TestLouvain:
    def test_deterministic(self):
        adj, _ = random_weighted_graph(42)
        assert louvain(adj, seed=3) == louvain(adj, seed=3)

    def test_beats_trivial_partitions(self):
        for seed in range(5):
            adj, _ = random_weighted_graph(seed, max_nodes=25)
            part = louvain(adj, seed=0)
            q = modularity(adj, part)
            singles = {n: i for i, n in enumerate(sorted(adj))}
            lumped = {n: 0 for n in adj}
            assert q >= modularity(adj, singles) - 1e-12
            assert q >= modularity(adj, lumped) - 1e-12

    def test_two_triangles_bridge(self):
        edges = [
            ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
            ("x", "y", 1.0), ("y", "z", 1.0), ("x", "z", 1.0),
            ("c", "x", 1.0),
        ]
        part = louvain(weighted(edges), seed=0)
        assert part["a"] == part["b"] == part["c"]
        assert part["x"] == part["y"] == part["z"]
        assert part["a"] != part["x"]

    def test_edgeless_graph(self):
        part = louvain({"a": {}, "b": {}})
        assert set(part) == {"a", "b"}

    def test_stops_on_extreme_gamma(self):
        # gamma = -1e308 makes every gain inf - inf = NaN; a sweep must still
        # end. The settings reject a negative gamma, so the kernel is called
        # directly, in a subprocess so that a hang fails on the timeout.
        adj, _ = random_weighted_graph(7)
        code = f"from cocite.community import louvain\nprint(len(louvain({adj!r}, gamma=-1e308)))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == len(adj)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), gamma=st.floats(0.0, 10.0))
    def test_modularity_of_partition_is_at_most_one(self, seed, gamma):
        # Q <= sum_c W_c / 2m <= 1 for gamma >= 0; W_c and 2m are summed in
        # different orders, so allow rounding (seed 1796, gamma 0 gives
        # 1.0000000000000002).
        adj, _ = random_weighted_graph(seed)
        assert modularity(adj, louvain(adj, gamma=gamma, seed=seed), gamma) <= 1.0 + 1e-12

    def test_aggregate_preserves_total_weight(self):
        adj, _ = random_weighted_graph(7)
        comm = louvain(adj, seed=0)
        agg, _ = _aggregate(adj, comm)
        before = sum(sum(nbrs.values()) for nbrs in adj.values())
        after = sum(sum(nbrs.values()) for nbrs in agg.values())
        assert after == pytest.approx(before, rel=1e-12)


class TestDetectTopics:
    def test_isolated_nodes_unassigned(self):
        labels = {f"n{i}": Authorship.MENTEE for i in range(12)}
        labels["iso"] = Authorship.MENTOR
        edges = [(f"n{i}", f"n{j}") for i in range(12) for j in range(i + 1, 12)]
        graph = graph_from_edges(labels, edges)
        result = detect_topics(graph, DetectionConfig(min_community_size=10))
        assert result.topic_of["iso"] is None
        assert result.n_topics == 1
        assert result.n_unassigned == 1

    def test_small_communities_filtered_ids_dense(self):
        labels = {}
        edges = []
        # One 12-clique, one 11-clique, one 3-clique.
        for name, size in (("a", 12), ("b", 11), ("c", 3)):
            members = [f"{name}{i:02d}" for i in range(size)]
            for m in members:
                labels[m] = Authorship.MENTEE
            edges += [
                (members[i], members[j])
                for i in range(size)
                for j in range(i + 1, size)
            ]
        graph = graph_from_edges(labels, edges)
        result = detect_topics(graph, DetectionConfig(min_community_size=10))
        assert result.n_topics == 2
        # Dense ids ordered by size: 12-clique first.
        assert set(result.topics[0]) == {f"a{i:02d}" for i in range(12)}
        assert set(result.topics[1]) == {f"b{i:02d}" for i in range(11)}
        for m in (f"c{i:02d}" for i in range(3)):
            assert result.topic_of[m] is None

    def test_modularity_is_prefilter(self):
        # The 3-clique is filtered out, but Q reflects the raw partition.
        labels = {}
        edges = []
        for name, size in (("a", 12), ("c", 3)):
            members = [f"{name}{i:02d}" for i in range(size)]
            for m in members:
                labels[m] = Authorship.MENTOR
            edges += [
                (members[i], members[j])
                for i in range(size)
                for j in range(i + 1, size)
            ]
        graph = graph_from_edges(labels, edges)
        result = detect_topics(graph, DetectionConfig(min_community_size=10))
        assert result.n_topics == 1
        raw = louvain(graph.as_weighted(), seed=0)
        assert result.modularity_q == pytest.approx(
            modularity(graph.as_weighted(), raw), abs=1e-15
        )

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_modularity_ignores_isolated_papers_exactly(self, gamma):
        # With no size filter every connected paper keeps its community, so
        # parking each isolated paper in a singleton gives the whole graph's
        # partition; Q over it must match bit for bit.
        n_with_isolated = 0
        for seed in range(40):
            graph = random_pair_graph(seed)
            result = detect_topics(graph, DetectionConfig(gamma=gamma, min_community_size=1))
            partition = {
                n: ("isolated", n) if t is None else t for n, t in result.topic_of.items()
            }
            isolated = [n for n, t in result.topic_of.items() if t is None]
            n_with_isolated += bool(isolated) and len(isolated) < graph.n_nodes
            assert result.modularity_q == modularity(graph.as_weighted(), partition, gamma=gamma)
        assert n_with_isolated >= 10

    def test_recovers_planted_blocks(self):
        graph, planted = planted_partition_pair_graph(seed=5)
        result = detect_topics(graph, DetectionConfig(min_community_size=10))
        detected = {n: result.topic_of[n] for n in graph.nodes}
        assert nmi(detected, planted) > 0.9

    def test_tie_break_stays_put(self):
        # Square: all partitions into two opposite pairs tie; the seeded
        # order plus keep-on-tie makes the result stable across calls.
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)]
        adj = weighted(edges)
        assert louvain(adj, seed=1) == louvain(adj, seed=1)
