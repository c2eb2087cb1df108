"""Shared test oracles and fixture builders.

Oracles here deliberately recompute results through different algorithms
and data paths than the package (naive double loops, dense matrix APSP,
forward reference scans) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import combinations
from typing import Hashable, Mapping

import numpy as np

from cocite.corpus import CitationIndex, PaperRecord, index_from_records
from cocite.pairgraph import PairGraph


def paper(pid, authors, year=2000, field="f", refs=()) -> PaperRecord:
    if isinstance(authors, str):
        authors = (authors,)
    return PaperRecord(pid, tuple(authors), year, field, tuple(refs))


def make_index(*records: PaperRecord) -> CitationIndex:
    return index_from_records(records)


# ---------------------------------------------------------------------------
# modularity oracle: literal double sum over ordered node pairs


def naive_modularity(adj: dict, partition: Mapping, gamma: float = 1.0) -> float:
    nodes = sorted(adj)
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((n, n))
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            a[pos[u], pos[v]] = w
    two_m = a.sum()
    if two_m == 0:
        return 0.0
    k = a.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if partition[nodes[i]] == partition[nodes[j]]:
                q += a[i, j] - gamma * k[i] * k[j] / two_m
    return q / two_m


# ---------------------------------------------------------------------------
# distance oracle: dense Floyd-Warshall with the same integer-sum semantics


def oracle_average_distance(
    graph: PairGraph, include_joint_self_pairs: bool = True
) -> tuple[float, int, int] | None:
    """(ave_distance, n_pairs, n_disconnected), or None when the package
    should raise instead (nothing finite to substitute, or no pairs)."""
    nodes = list(graph.nodes)
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u in nodes:
        for v in graph.adjacency[u]:
            d[pos[u], pos[v]] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])

    off_diag = d[~np.eye(n, dtype=bool)] if n > 1 else np.array([])
    finite = off_diag[np.isfinite(off_diag)]
    max_finite = int(finite.max()) if finite.size else None

    mentee = graph.mentee_nodes()
    mentor = graph.mentor_nodes()
    total = 0
    n_pairs = 0
    n_disc = 0
    for e in mentee:
        for r in mentor:
            if e == r:
                if include_joint_self_pairs:
                    n_pairs += 1
                continue
            n_pairs += 1
            dist = d[pos[e], pos[r]]
            if math.isinf(dist):
                n_disc += 1
            else:
                total += int(dist)
    if n_pairs == 0:
        return None
    if n_disc > 0:
        if max_finite is None:
            return None
        total += n_disc * max_finite
    return total / n_pairs, n_pairs, n_disc


# ---------------------------------------------------------------------------
# second distance oracle: breadth-first search over the adjacency dicts


def bfs_distances(graph: PairGraph, source: str) -> dict[str, int]:
    """Hop counts from source to every reachable node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.adjacency[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_max_finite_distance(graph: PairGraph) -> int | None:
    """Largest hop count between two distinct nodes, or None without edges."""
    longest = max((max(bfs_distances(graph, s).values()) for s in graph.nodes), default=0)
    return longest or None


# ---------------------------------------------------------------------------
# co-citation edge oracle: forward scan over reference lists


def brute_force_edges(
    index: CitationIndex,
    node_set: set[str],
    exclude_self_cocitation: bool = False,
) -> dict[tuple[str, str], set[str]]:
    edges: dict[tuple[str, str], set[str]] = {}
    for citer, refs in index.citing_map.items():
        if exclude_self_cocitation and citer in node_set:
            continue
        cited = sorted(set(refs) & node_set)
        for u, v in combinations(cited, 2):
            edges.setdefault((u, v), set()).add(citer)
    return edges


# ---------------------------------------------------------------------------
# normalized mutual information (arithmetic-mean normalization)


def nmi(a: Mapping[Hashable, Hashable], b: Mapping[Hashable, Hashable]) -> float:
    assert set(a) == set(b)
    n = len(a)
    ca = Counter(a.values())
    cb = Counter(b.values())
    joint = Counter((a[x], b[x]) for x in a)
    mi = 0.0
    for (la, lb), c in joint.items():
        p = c / n
        mi += p * math.log(p / ((ca[la] / n) * (cb[lb] / n)))
    ha = -sum((c / n) * math.log(c / n) for c in ca.values())
    hb = -sum((c / n) * math.log(c / n) for c in cb.values())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    return 2.0 * mi / (ha + hb)
