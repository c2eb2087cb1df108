"""Per-pair co-citation network construction.

For one mentor-mentee pair the node set is the union of both authors'
papers. Two papers are connected by an unweighted edge when at least one
corpus paper cites both of them. Each edge remembers the set of co-citing
source papers so downstream stages can audit where the link came from.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

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
    """Undirected unweighted co-citation graph over one pair's papers."""

    mentor_id: str
    mentee_id: str
    nodes: tuple[str, ...]
    labels: dict[str, Authorship]
    adjacency: dict[str, tuple[str, ...]]
    cociting_sources: dict[tuple[str, str], tuple[str, ...]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.cociting_sources)

    def as_weighted(self) -> dict[str, dict[str, float]]:
        """Dict-of-dicts weighted view (all weights 1.0) for community detection."""
        return {
            u: {v: 1.0 for v in nbrs}
            for u, nbrs in self.adjacency.items()
        }


def build_pair_graph(
    mentor_id: str,
    mentee_id: str,
    index: CitationIndex,
    exclude_self_cocitation: bool = False,
) -> PairGraph:
    """Build the co-citation graph for one pair.

    With ``exclude_self_cocitation`` enabled, citing papers that are
    themselves nodes of this pair graph do not count as co-citing sources;
    by default they do.
    """
    mentor_papers = index.author_papers.get(mentor_id, ())
    mentee_papers = index.author_papers.get(mentee_id, ())
    if not mentor_papers:
        raise EmptyPair(f"mentor {mentor_id} has no papers in the corpus")
    if not mentee_papers:
        raise EmptyPair(f"mentee {mentee_id} has no papers in the corpus")

    mentor_set = set(mentor_papers)
    mentee_set = set(mentee_papers)
    node_set = mentor_set | mentee_set
    nodes = tuple(sorted(node_set))
    labels: dict[str, Authorship] = {}
    for n in nodes:
        if n in mentor_set and n in mentee_set:
            labels[n] = Authorship.JOINT
        elif n in mentee_set:
            labels[n] = Authorship.MENTEE
        else:
            labels[n] = Authorship.MENTOR

    # Invert: which pair nodes does each corpus citer cite?
    cited_nodes_by_citer: dict[str, list[str]] = defaultdict(list)
    for node in nodes:
        for citer in index.cited_by_map[node]:
            cited_nodes_by_citer[citer].append(node)

    sources: dict[tuple[str, str], set[str]] = defaultdict(set)
    for citer, cited in cited_nodes_by_citer.items():
        if exclude_self_cocitation and citer in node_set:
            continue
        if len(cited) < 2:
            continue
        cited_sorted = sorted(set(cited))
        for i, u in enumerate(cited_sorted):
            for v in cited_sorted[i + 1:]:
                sources[(u, v)].add(citer)

    adjacency_sets: dict[str, set[str]] = {n: set() for n in nodes}
    for u, v in sources:
        adjacency_sets[u].add(v)
        adjacency_sets[v].add(u)

    return PairGraph(
        mentor_id=mentor_id,
        mentee_id=mentee_id,
        nodes=nodes,
        labels=labels,
        adjacency={n: tuple(sorted(s)) for n, s in adjacency_sets.items()},
        cociting_sources={e: tuple(sorted(cs)) for e, cs in sorted(sources.items())},
    )
