"""Shared test oracles and fixture builders.

Oracles here deliberately recompute results through different algorithms
and data paths than the package (naive double loops, dense matrix APSP,
forward reference scans) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from cocite.community import TopicAssignment
from cocite.corpus import CitationIndex, PaperRecord, _find
from cocite.pairgraph import (
    MENTEE_SIDE,
    MENTOR_SIDE,
    Authorship,
    PairGraph,
    build_pair_graph,
    edge_sources,
    pair_authors,
)


def paper(pid, authors, year=2000, field="f", refs=()) -> PaperRecord:
    if isinstance(authors, str):
        authors = (authors,)
    return PaperRecord(pid, tuple(authors), year, field, tuple(refs))


def make_index(*records: PaperRecord) -> CitationIndex:
    return CitationIndex(records)


def paper_number(index: CitationIndex, paper_id: str) -> int | None:
    """The number of the paper with this id, or None if it has no record."""
    return _find(index.paper_ids, paper_id)


@dataclass(frozen=True)
class DictIndex:
    """The citation index as string-keyed maps (see `dict_index`)."""

    cited_by_map: dict[str, tuple[str, ...]]
    author_papers: dict[str, tuple[str, ...]]
    paper_authors: dict[str, tuple[str, ...]]
    pub_year: dict[str, int]


def dict_index(records: Iterable[PaperRecord]) -> DictIndex:
    """The index built as dicts of id tuples in one pass over the records,
    as the package built it before it numbered papers and authors.

    cited_by_map lists, for every record, the records citing it, sorted;
    references to ids that are not records are dropped. author_papers lists
    each author's papers by (pub_year, paper_id), and paper_authors each
    paper's authors with repeats removed.
    """
    pub_year: dict[str, int] = {}
    authors: dict[str, tuple[str, ...]] = {}
    by_author: dict[str, list[str]] = defaultdict(list)
    cited_by: dict[str, list[str]] = defaultdict(list)
    for rec in records:
        uniq_authors = tuple(dict.fromkeys(rec.author_ids))
        pub_year[rec.paper_id] = rec.pub_year
        authors[rec.paper_id] = uniq_authors
        for a in uniq_authors:
            by_author[a].append(rec.paper_id)
        for ref in rec.reference_ids:
            cited_by[ref].append(rec.paper_id)
    return DictIndex(
        cited_by_map={pid: tuple(sorted(cited_by.get(pid, ()))) for pid in pub_year},
        author_papers={
            a: tuple(sorted(ps, key=lambda p: (pub_year[p], p))) for a, ps in by_author.items()
        },
        paper_authors=authors,
        pub_year=pub_year,
    )


def index_as_dicts(index: CitationIndex) -> DictIndex:
    """The same maps read back from a CitationIndex through its id lookups,
    with every paper and author number turned back into its id."""
    pids, aids = index.paper_ids, index.author_ids
    papers = [paper_number(index, pid) for pid in pids]
    authors = [index.author(aid) for aid in aids]
    return DictIndex(
        cited_by_map={pids[p]: tuple(pids[c] for c in index.cited_by[p]) for p in papers},
        author_papers={aids[a]: tuple(pids[p] for p in index.author_papers[a]) for a in authors},
        paper_authors={pids[p]: tuple(aids[a] for a in index.paper_authors[p]) for p in papers},
        pub_year={pids[p]: int(index.pub_year[p]) for p in papers},
    )


def pair_graph(
    mentor_id: str, mentee_id: str, index: CitationIndex, exclude_self_cocitation: bool = False
) -> PairGraph:
    """`build_pair_graph` for the two authors with these ids."""
    mentor, mentee = pair_authors(mentor_id, mentee_id, index)
    return build_pair_graph(mentor, mentee, index, exclude_self_cocitation=exclude_self_cocitation)


def named_graph(
    graph: PairGraph, index: CitationIndex, exclude_self_cocitation: bool = False
) -> PairGraph:
    """A built pair graph with every paper number turned back into its id,
    and with its edge sources filled in."""
    pid = index.paper_ids.__getitem__
    sources = edge_sources(graph, index, exclude_self_cocitation)
    return PairGraph(
        graph.mentor_id,
        graph.mentee_id,
        tuple(map(pid, graph.nodes)),
        {pid(n): label for n, label in graph.labels.items()},
        {pid(n): tuple(map(pid, nbrs)) for n, nbrs in graph.adjacency.items()},
        {(pid(u), pid(v)): tuple(map(pid, cs)) for (u, v), cs in sources.items()},
    )


def named_pair_graph(
    mentor_id: str, mentee_id: str, index: CitationIndex, exclude_self_cocitation: bool = False
) -> PairGraph:
    """`pair_graph` with paper ids for nodes (see `named_graph`)."""
    graph = pair_graph(mentor_id, mentee_id, index, exclude_self_cocitation)
    return named_graph(graph, index, exclude_self_cocitation)


def numbered_assignment(assignment: TopicAssignment, index: CitationIndex) -> TopicAssignment:
    """A topic assignment over paper ids, moved onto the index's paper numbers."""
    return TopicAssignment(
        topic_of={paper_number(index, p): t for p, t in assignment.topic_of.items()},
        topics={t: tuple(paper_number(index, m) for m in ms) for t, ms in assignment.topics.items()},
        modularity_q=assignment.modularity_q,
    )


def side_nodes(graph: PairGraph, side: tuple[Authorship, ...]) -> list[str]:
    """Nodes whose label is on `side` (MENTEE_SIDE or MENTOR_SIDE), in node
    order; joint papers are on both sides."""
    return [n for n in graph.nodes if graph.labels[n] in side]


# ---------------------------------------------------------------------------
# direct graph construction (no corpus round-trip)


def graph_from_edges(
    labels: Mapping[str, Authorship],
    edges: Iterable[tuple[str, str]],
    mentor_id: str = "R",
    mentee_id: str = "E",
) -> PairGraph:
    """Assemble a PairGraph straight from labels and an edge list.

    Co-citing sources get a placeholder entry per edge; builders that care
    about sources go through a real corpus instead.
    """
    nodes = tuple(sorted(labels))
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    sources: dict[tuple[str, str], tuple[str, ...]] = {}
    for u, v in edges:
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        adj[a].add(b)
        adj[b].add(a)
        sources[(a, b)] = ("src",)
    return PairGraph(
        mentor_id=mentor_id,
        mentee_id=mentee_id,
        nodes=nodes,
        labels=dict(labels),
        adjacency={n: tuple(sorted(s)) for n, s in adj.items()},
        cociting_sources=dict(sorted(sources.items())),
    )


def planted_partition_pair_graph(
    seed: int,
    n_blocks: int = 4,
    block_size: int = 15,
    p_in: float = 0.9,
    p_out: float = 0.02,
) -> tuple[PairGraph, dict[str, int]]:
    """Random graph with planted dense blocks and sparse cross links."""
    rng = random.Random(seed)
    labels: dict[str, Authorship] = {}
    block_of: dict[str, int] = {}
    for b in range(n_blocks):
        for k in range(block_size):
            node = f"b{b}n{k:02d}"
            labels[node] = Authorship.MENTEE if (b * block_size + k) % 2 == 0 else Authorship.MENTOR
            block_of[node] = b
    nodes = sorted(labels)
    edges = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            p = p_in if block_of[u] == block_of[v] else p_out
            if rng.random() < p:
                edges.append((u, v))
    return graph_from_edges(labels, edges), block_of


def random_pair_graph(seed: int, max_nodes: int = 50) -> PairGraph:
    """Random sparse pair graph; both sides guaranteed non-empty."""
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    nodes = [f"n{k:02d}" for k in range(n)]
    labels = {
        node: rng.choice((Authorship.MENTEE, Authorship.MENTOR, Authorship.JOINT))
        for node in nodes
    }
    if not any(lab in MENTEE_SIDE for lab in labels.values()) or not any(
        lab in MENTOR_SIDE for lab in labels.values()
    ):
        labels[nodes[0]] = Authorship.JOINT
    p = rng.uniform(0.02, 0.3)
    edges = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if rng.random() < p:
                edges.append((u, v))
    return graph_from_edges(labels, edges)


# ---------------------------------------------------------------------------
# random pair corpora for oracle comparisons


def random_pair_corpus(
    seed: int,
    max_papers: int = 30,
    max_citers: int = 200,
) -> tuple[list[PaperRecord], str, str, TopicAssignment]:
    """Small random corpus around one pair, plus an arbitrary topic split.

    Pair papers may cite each other (so pair papers can co-cite), citers
    cite 1 to 5 pair papers, topics are a random partition with a few
    papers possibly left unassigned. Returns (records, mentor_id, mentee_id,
    assignment).
    """
    rng = random.Random(seed)
    mentor_id, mentee_id = "R", "E"
    pool = [f"co{k}" for k in range(5)]
    n = rng.randint(4, max_papers)
    kinds = [rng.choice(("mte", "mto", "joint")) for _ in range(n)]
    if not any(k in ("mte", "joint") for k in kinds):
        kinds[0] = "mte"
    if not any(k in ("mto", "joint") for k in kinds):
        kinds[-1] = "mto"

    pair_ids = [f"w{k:03d}" for k in range(n)]
    records: list[PaperRecord] = []
    for pid, kind in zip(pair_ids, kinds):
        if kind == "mte":
            authors = [mentee_id]
        elif kind == "mto":
            authors = [mentor_id]
        else:
            authors = [mentee_id, mentor_id]
        authors += rng.sample(pool, rng.randint(0, 2))
        others = [q for q in pair_ids if q != pid]
        refs = rng.sample(others, rng.randint(0, min(3, len(others))))
        records.append(
            PaperRecord(pid, tuple(authors), rng.randint(1970, 2015), "f", tuple(refs))
        )
    n_citers = rng.randint(0, max_citers)
    for c in range(n_citers):
        refs = rng.sample(pair_ids, rng.randint(1, min(5, n)))
        records.append(
            PaperRecord(
                f"c{c:04d}",
                (f"ca{c:04d}",),
                rng.randint(1971, 2021),
                "f",
                tuple(refs),
            )
        )
    n_topics = rng.randint(1, 4)
    topic_of: dict[str, int | None] = {}
    members: dict[int, list[str]] = {}
    for pid in pair_ids:
        if rng.random() < 0.1:
            topic_of[pid] = None
            continue
        t = rng.randrange(n_topics)
        topic_of[pid] = t
        members.setdefault(t, []).append(pid)
    # Dense ids ordered by descending size then smallest member id.
    ordered = sorted(
        (sorted(ms) for ms in members.values()), key=lambda ms: (-len(ms), ms[0])
    )
    dense_of: dict[str, int | None] = {pid: None for pid in pair_ids}
    topics: dict[int, tuple[str, ...]] = {}
    for i, ms in enumerate(ordered):
        topics[i] = tuple(ms)
        for pid in ms:
            dense_of[pid] = i
    assignment = TopicAssignment(topic_of=dense_of, topics=topics, modularity_q=0.0)
    return records, mentor_id, mentee_id, assignment


@dataclass(frozen=True)
class OracleTopicImpact:
    pool: frozenset[str]
    w: dict[str, int]
    c_mentee: float
    c_mentor: float
    c_mentee_exact: Fraction
    c_mentor_exact: Fraction


@dataclass(frozen=True)
class OracleImpact:
    topics: dict[int, OracleTopicImpact]
    mentee_total: float
    mentor_total: float


def oracle_impact(
    records: Sequence[PaperRecord],
    labels: Mapping[str, Authorship],
    topics: Mapping[int, Sequence[str]],
) -> OracleImpact:
    """Impact allocation recomputed by exhaustive forward scans.

    Pools come from scanning every record's reference list against each
    topic's member set; per-paper scores recount citations the same way, and
    author counts come from the records, not the index. Totals are kept both
    as exact rationals and as fsum of the float shares.
    """
    refs_of = {rec.paper_id: set(rec.reference_ids) for rec in records}
    n_authors = {rec.paper_id: len(set(rec.author_ids)) for rec in records}
    out: dict[int, OracleTopicImpact] = {}
    mentee_shares: list[float] = []
    mentor_shares: list[float] = []
    for topic_id in sorted(topics):
        member_set = set(topics[topic_id])
        pool = set()
        for q, refs in refs_of.items():
            if len(member_set & refs) >= 2:
                pool.add(q)
        w: dict[str, int] = {}
        for p in member_set:
            w[p] = sum(1 for q in pool if p in refs_of[q])
        c_e: list[float] = []
        c_r: list[float] = []
        c_e_exact = Fraction(0)
        c_r_exact = Fraction(0)
        for p in sorted(member_set):
            s = n_authors[p]
            share = w[p] / s
            exact = Fraction(w[p], s)
            if labels[p] in MENTEE_SIDE:
                c_e.append(share)
                c_e_exact += exact
            if labels[p] in MENTOR_SIDE:
                c_r.append(share)
                c_r_exact += exact
        mentee_shares.extend(c_e)
        mentor_shares.extend(c_r)
        out[topic_id] = OracleTopicImpact(
            pool=frozenset(pool),
            w=w,
            c_mentee=math.fsum(c_e),
            c_mentor=math.fsum(c_r),
            c_mentee_exact=c_e_exact,
            c_mentor_exact=c_r_exact,
        )
    return OracleImpact(
        topics=out,
        mentee_total=math.fsum(mentee_shares),
        mentor_total=math.fsum(mentor_shares),
    )


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

    mentee = side_nodes(graph, MENTEE_SIDE)
    mentor = side_nodes(graph, MENTOR_SIDE)
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
    records: Iterable[PaperRecord],
    node_set: set[str],
    exclude_self_cocitation: bool = False,
) -> dict[tuple[str, str], set[str]]:
    edges: dict[tuple[str, str], set[str]] = {}
    for rec in records:
        if exclude_self_cocitation and rec.paper_id in node_set:
            continue
        cited = sorted(set(rec.reference_ids) & node_set)
        for u, v in combinations(cited, 2):
            edges.setdefault((u, v), set()).add(rec.paper_id)
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
