"""Modularity and greedy community detection on weighted graphs.

Graphs are dict-of-dict symmetric weight maps. A self-loop stored as
``adj[i][i] = w`` counts once in the degree k_i and once in 2m; this is the
convention under which graph aggregation preserves both row sums and 2m, so
modularity scores are identical before and after a level is collapsed.
Pair graphs never carry self-loops; they appear only in aggregated levels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from .pairgraph import PairGraph

WeightedGraph = dict[Hashable, dict[Hashable, float]]

# Minimum modularity improvement (in Q units) for a sweep to count as progress.
GAIN_EPS = 1e-9


@dataclass
class DetectionConfig:
    # Q <= 1 holds only for a resolution of 0 or more.
    gamma: float = field(default=1.0, metadata={"min": 0.0})
    seed: int = 0
    min_community_size: int = 10


@dataclass(frozen=True)
class TopicAssignment:
    """Result of community detection on one pair graph.

    topic_of maps every paper to a dense topic id or None when the paper is
    unassigned (isolated, or in a community below the size threshold).
    modularity_q is the score of the raw detected partition before the size
    filter is applied.
    """

    topic_of: dict[Hashable, int | None]
    topics: dict[int, tuple[Hashable, ...]]
    modularity_q: float

    @property
    def n_topics(self) -> int:
        return len(self.topics)

    @property
    def n_unassigned(self) -> int:
        return sum(1 for t in self.topic_of.values() if t is None)


def modularity(adj: WeightedGraph, partition: Mapping[Hashable, Hashable], gamma: float = 1.0) -> float:
    """Modularity Q of a partition of every node of `adj`, computed in
    community form.

    Q = sum_c [ W_c / 2m - gamma * (D_c / 2m)^2 ] where W_c sums A_ij over
    ordered intra-community pairs and D_c sums member degrees. Equivalent to
    the double sum over ordered node pairs including the diagonal. An empty
    graph (2m = 0) scores 0 by convention.
    """
    degree = {n: sum(nbrs.values()) for n, nbrs in adj.items()}
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    w_in: dict[Hashable, float] = {}
    d_tot: dict[Hashable, float] = {}
    for n, nbrs in adj.items():
        c = partition[n]
        d_tot[c] = d_tot.get(c, 0.0) + degree[n]
        acc = w_in.get(c, 0.0)
        for v, w in nbrs.items():
            if partition[v] == c:
                acc += w
        w_in[c] = acc
    q = 0.0
    for c in w_in:
        q += w_in[c] / two_m - gamma * (d_tot[c] / two_m) ** 2
    return q


def _one_level(
    adj: WeightedGraph,
    gamma: float,
    rng: random.Random,
) -> tuple[dict[Hashable, int], float]:
    """One local-moving level; returns node -> community and the Q gained.

    Sweep order is the sorted node list shuffled once per sweep by the shared
    RNG. A node keeps its current community on ties; among strictly better
    alternatives the lowest community id wins (candidates are scanned in
    sorted order and replaced only on strict improvement).
    """
    nodes = sorted(adj)
    comm = {n: i for i, n in enumerate(nodes)}
    k = {n: sum(nbrs.values()) for n, nbrs in adj.items()}
    two_m = sum(k.values())
    tot = {comm[n]: k[n] for n in nodes}

    total_gain = 0.0
    while True:
        order = list(nodes)
        rng.shuffle(order)
        sweep_gain = 0.0
        for node in order:
            current = comm[node]
            k_i = k[node]
            # Weight from node to each adjacent community, self-loop excluded.
            w_to: dict[int, float] = {}
            for v, w in adj[node].items():
                if v == node:
                    continue
                cv = comm[v]
                w_to[cv] = w_to.get(cv, 0.0) + w
            # Detach node before evaluating candidate communities.
            tot[current] -= k_i
            stay_gain = w_to.get(current, 0.0) - gamma * tot[current] * k_i / two_m
            best_comm = current
            best_gain = stay_gain
            for c in sorted(w_to):
                if c == current:
                    continue
                gain = w_to[c] - gamma * tot[c] * k_i / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_comm = c
            comm[node] = best_comm
            tot[best_comm] += k_i
            sweep_gain += (best_gain - stay_gain) / two_m * 2.0
        total_gain += sweep_gain
        # Written so that a NaN gain (an extreme gamma gives inf - inf) stops.
        if not sweep_gain >= GAIN_EPS:
            break
    return comm, total_gain


def _aggregate(adj: WeightedGraph, comm: Mapping[Hashable, int]) -> tuple[WeightedGraph, dict[Hashable, int]]:
    """Collapse communities into super-nodes; intra weight becomes a self-loop."""
    ids = sorted(set(comm.values()))
    dense = {c: i for i, c in enumerate(ids)}
    agg: WeightedGraph = {i: {} for i in range(len(ids))}
    for u, nbrs in adj.items():
        cu = dense[comm[u]]
        row = agg[cu]
        for v, w in nbrs.items():
            cv = dense[comm[v]]
            row[cv] = row.get(cv, 0.0) + w
    return agg, {n: dense[c] for n, c in comm.items()}


def louvain(adj: WeightedGraph, gamma: float = 1.0, seed: int = 0) -> dict[Hashable, int]:
    """Greedy multilevel modularity optimization.

    Deterministic for a fixed seed: one RNG drives sweep shuffles across all
    levels, and all tie-breaking is by community id. Returns node -> integer
    community label (labels are arbitrary but stable).
    """
    two_m = sum(sum(nbrs.values()) for nbrs in adj.values())
    if two_m == 0:
        return {n: i for i, n in enumerate(sorted(adj))}
    rng = random.Random(seed)
    mapping = {n: n for n in adj}
    level_adj = adj
    while True:
        comm, gained = _one_level(level_adj, gamma, rng)
        n_comms = len(set(comm.values()))
        if n_comms == len(level_adj) or not gained >= GAIN_EPS:
            final = {n: comm[mapping[n]] for n in mapping}
            # Renumber densely for stable downstream handling.
            ids = sorted(set(final.values()))
            dense = {c: i for i, c in enumerate(ids)}
            return {n: dense[c] for n, c in final.items()}
        level_adj, lifted = _aggregate(level_adj, comm)
        mapping = {n: lifted[mapping[n]] for n in mapping}


def detect_topics(graph: PairGraph, config: DetectionConfig | None = None) -> TopicAssignment:
    """Detect topics on one pair graph and apply the size filter.

    Isolated papers are unassigned from the start and do not enter the
    optimization. Detected communities get dense ids ordered by descending
    size, ties broken by smallest member paper id; communities smaller than
    min_community_size are then dropped to unassigned. The reported
    modularity is that of the unfiltered detected partition.
    """
    cfg = config or DetectionConfig()
    # louvain and modularity only read their input, so the rows are shared.
    connected = {u: nbrs for u, nbrs in graph.as_weighted().items() if nbrs}
    raw = louvain(connected, gamma=cfg.gamma, seed=cfg.seed)
    # An isolated paper has degree 0 and adds exactly 0.0 to Q, so this is
    # also the pre-filter modularity of the whole graph.
    q = modularity(connected, raw, gamma=cfg.gamma)

    groups: dict[int, list[Hashable]] = {}
    for node, c in raw.items():
        groups.setdefault(c, []).append(node)
    ordered = sorted(
        (sorted(members) for members in groups.values()),
        key=lambda ms: (-len(ms), ms[0]),
    )

    topic_of: dict[Hashable, int | None] = {n: None for n in graph.nodes}
    topics: dict[int, tuple[Hashable, ...]] = {}
    next_id = 0
    for members in ordered:
        if len(members) < cfg.min_community_size:
            continue
        topics[next_id] = tuple(members)
        for n in members:
            topic_of[n] = next_id
        next_id += 1

    return TopicAssignment(topic_of=topic_of, topics=topics, modularity_q=q)
