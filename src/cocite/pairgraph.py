"""Per-pair co-citation network construction.

For one mentor-mentee pair the node set is the union of both authors'
papers, as paper numbers of the citation index. Two papers are connected by
an unweighted edge when at least one corpus paper cites both of them: with
B the index's citer x paper matrix and B_N its columns for the pair's
nodes, the edges are the off-diagonal nonzeros of B_N^T B_N. The co-citing
source papers of each edge are listed only on request, for audit output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable

import numpy as np

from .corpus import CitationIndex
from .errors import EmptyPair


class Authorship(Enum):
    """Which side of the pair wrote a node's paper; JOINT papers act as both."""

    MENTEE = "mentee"
    MENTOR = "mentor"
    JOINT = "joint"


# Labels counted on each side; joint papers belong to both.
MENTEE_SIDE = (Authorship.MENTEE, Authorship.JOINT)
MENTOR_SIDE = (Authorship.MENTOR, Authorship.JOINT)


@dataclass(frozen=True)
class PairGraph:
    """Undirected unweighted co-citation graph over one pair's papers.

    `build_pair_graph` numbers the nodes as the citation index does; a graph
    built by hand may use any sortable ids. `cociting_sources` maps each
    edge (u, v), u < v, to the papers citing both, where the builder has
    them; `build_pair_graph` leaves it None, and `edge_sources` lists them.
    """

    mentor_id: str
    mentee_id: str
    nodes: tuple[Hashable, ...]
    labels: dict[Hashable, Authorship]
    adjacency: dict[Hashable, tuple[Hashable, ...]]
    cociting_sources: dict[tuple[Hashable, Hashable], tuple[Hashable, ...]] | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def as_weighted(self) -> dict[Hashable, dict[Hashable, float]]:
        """Dict-of-dicts weighted view (all weights 1.0) for community detection."""
        return {
            u: {v: 1.0 for v in nbrs}
            for u, nbrs in self.adjacency.items()
        }


def pair_authors(mentor_id: str, mentee_id: str, index: CitationIndex) -> tuple[int, int]:
    """The index numbers of a pair's mentor and mentee; an author without
    papers in the corpus raises EmptyPair."""
    mentor = index.author(mentor_id)
    if mentor is None:
        raise EmptyPair(f"mentor {mentor_id} has no papers in the corpus")
    mentee = index.author(mentee_id)
    if mentee is None:
        raise EmptyPair(f"mentee {mentee_id} has no papers in the corpus")
    return mentor, mentee


def build_pair_graph(
    mentor: int,
    mentee: int,
    index: CitationIndex,
    exclude_self_cocitation: bool = False,
) -> PairGraph:
    """Build the co-citation graph of the authors numbered `mentor` and
    `mentee` in the index.

    With ``exclude_self_cocitation`` enabled, citing papers that are
    themselves nodes of this pair graph do not count as co-citing sources;
    by default they do.
    """
    from scipy.sparse import csr_array

    mentor_papers = index.author_papers[mentor]
    mentee_papers = index.author_papers[mentee]
    nodes = np.union1d(mentor_papers, mentee_papers)
    node_list = nodes.tolist()
    labels = {
        n: Authorship.JOINT if r and e else Authorship.MENTEE if e else Authorship.MENTOR
        for n, r, e in zip(
            node_list, np.isin(nodes, mentor_papers).tolist(), np.isin(nodes, mentee_papers).tolist()
        )
    }

    # B_N^T: row j lists the citers of node j, renumbered densely.
    citers = index.cited_by.take(nodes)
    node_of = np.repeat(np.arange(nodes.size), index.cited_by.lengths(nodes))
    if exclude_self_cocitation:
        outside = ~np.isin(citers, nodes)
        citers, node_of = citers[outside], node_of[outside]
    dense_citers, citer_of = np.unique(citers, return_inverse=True)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(node_of, minlength=nodes.size))))
    b_t = csr_array(
        (np.ones(citer_of.size, dtype=np.int32), citer_of, indptr),
        shape=(nodes.size, dense_citers.size),
    )
    co = (b_t @ b_t.T).tocsr()
    co.sort_indices()

    row_of = np.repeat(np.arange(nodes.size), np.diff(co.indptr))
    off_diagonal = co.indices != row_of
    neighbours = nodes[co.indices[off_diagonal]].tolist()
    ends = np.cumsum(np.bincount(row_of[off_diagonal], minlength=nodes.size)).tolist()
    adjacency = {n: tuple(neighbours[start:end]) for n, start, end in zip(node_list, [0, *ends], ends)}

    return PairGraph(
        mentor_id=index.author_ids[mentor],
        mentee_id=index.author_ids[mentee],
        nodes=tuple(node_list),
        labels=labels,
        adjacency=adjacency,
    )


def edge_sources(
    graph: PairGraph, index: CitationIndex, exclude_self_cocitation: bool = False
) -> dict[tuple[int, int], tuple[int, ...]]:
    """The co-citing papers of each edge of a built pair graph, both sorted.

    ``exclude_self_cocitation`` must be the setting the graph was built with.
    """
    nodes = np.array(graph.nodes)
    sources = {}
    for u in graph.nodes:
        for v in graph.adjacency[u]:
            if u < v:
                common = np.intersect1d(index.cited_by[u], index.cited_by[v], assume_unique=True)
                if exclude_self_cocitation:
                    common = common[~np.isin(common, nodes)]
                sources[u, v] = tuple(common.tolist())
    return sources
