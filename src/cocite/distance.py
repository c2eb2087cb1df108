"""Average shortest-path distance between the two sides of a pair graph.

The distance between a mentee-side paper e and a mentor-side paper r is the
unweighted shortest-path length in the co-citation graph. The pair-level
distance averages d(e, r) over all mentee-side x mentor-side paper pairs.
Joint papers sit on both sides; their zero-length self pairings count by
default. Disconnected pairs substitute the largest finite distance observed
anywhere in the graph.

The kernel works on the pair graph as a CSR matrix. Its connected
components give the disconnected (e, r) count without any search:
|E|·|R| minus the sum over components c of |E ∩ c|·|R ∩ c|. Only nodes in
components of two or more nodes can reach anything, so only they are
sources of the unweighted shortest-path search, in chunks of at most
``CHUNK_CELLS`` distance cells so that no V x V matrix is ever held. The
largest finite distance comes from all of these rows; the finite mentee x
mentor distances are summed as exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFinitePaths
from .pairgraph import MENTEE_SIDE, MENTOR_SIDE, PairGraph

# Distance cells (8 bytes each) per shortest-path call: sources are taken
# CHUNK_CELLS // n_nodes rows at a time, at least one.
CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class DistanceResult:
    ave_distance: float
    n_pairs: int
    n_disconnected: int
    max_finite_distance: int | None
    substituted: bool


def average_distance(graph: PairGraph, include_joint_self_pairs: bool = True) -> DistanceResult:
    """Average mentee-to-mentor shortest-path distance for one pair graph.

    Distances are summed as integers and divided once, so the result is
    bit-identical to any correct all-pairs implementation. When some (e, r)
    pair is disconnected, the largest finite distance between distinct nodes
    anywhere in the graph stands in; if no such distance exists either,
    NoFinitePaths is raised. With ``include_joint_self_pairs`` disabled the
    zero-length pairings of joint papers with themselves are skipped and the
    denominator shrinks accordingly.
    """
    nodes = graph.nodes
    mentee = np.array([graph.labels[v] in MENTEE_SIDE for v in nodes], dtype=bool)
    mentor = np.array([graph.labels[v] in MENTOR_SIDE for v in nodes], dtype=bool)
    n_mentee, n_mentor = int(mentee.sum()), int(mentor.sum())
    n_pairs = n_mentee * n_mentor
    if not include_joint_self_pairs:
        n_pairs -= int((mentee & mentor).sum())
    if n_pairs == 0:
        raise NoFinitePaths("no mentee-mentor paper pairs to average")

    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components, shortest_path

    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum([len(graph.adjacency[v]) for v in nodes], out=indptr[1:])
    indices = np.fromiter(
        (pos[u] for v in nodes for u in graph.adjacency[v]), dtype=np.int32, count=int(indptr[-1])
    )
    csr = csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))

    n_comp, comp = connected_components(csr, directed=False)
    connected = int(
        np.bincount(comp[mentee], minlength=n_comp) @ np.bincount(comp[mentor], minlength=n_comp)
    )
    n_disconnected = n_mentee * n_mentor - connected

    sources = np.flatnonzero(np.bincount(comp)[comp] >= 2)
    rows_per_chunk = max(1, CHUNK_CELLS // n)
    longest = 0
    total = 0
    # shortest_path searches directed edges; the adjacency lists every edge
    # both ways, so the result is exact without a transpose per call.
    for start in range(0, sources.size, rows_per_chunk):
        chunk = sources[start:start + rows_per_chunk]
        dist = shortest_path(csr, method="D", unweighted=True, indices=chunk)
        longest = max(longest, int(dist[np.isfinite(dist)].max()))
        block = dist[np.ix_(mentee[chunk], mentor)]
        total += int(block[np.isfinite(block)].astype(np.int64).sum())

    # Every source reaches a neighbour, so longest is 0 only without sources.
    max_finite = longest or None
    if n_disconnected > 0:
        if max_finite is None:
            raise NoFinitePaths("disconnected pairs with no finite distance to substitute")
        total += n_disconnected * max_finite
    return DistanceResult(
        ave_distance=total / n_pairs,
        n_pairs=n_pairs,
        n_disconnected=n_disconnected,
        max_finite_distance=max_finite,
        substituted=n_disconnected > 0,
    )
