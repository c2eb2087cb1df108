"""Topic-specific impact allocation.

For a retained topic j with member papers M_j, the co-citing pool P_j is the
set of corpus papers citing at least two distinct members of M_j. A member
paper p scores w(p) = |citers(p) intersect P_j| and contributes w(p) / s(p)
impact, where s(p) is its author count. Mentee-side and mentor-side impact
sum these contributions over the respective members; joint papers are
counted on both sides, each normalized by the paper's own author count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .community import TopicAssignment
from .corpus import CitationIndex
from .pairgraph import MENTEE_SIDE, MENTOR_SIDE, Authorship, PairGraph


@dataclass(frozen=True)
class PaperImpact:
    """Allocation row for one member paper of one topic."""

    paper_id: str
    topic_id: int
    authorship: Authorship
    w: int
    author_count: int

    @property
    def contribution(self) -> float:
        return self.w / self.author_count


@dataclass(frozen=True)
class TopicImpact:
    """Per-topic allocation: pool, per-paper rows, and side totals."""

    topic_id: int
    pool: tuple[str, ...]
    rows: tuple[PaperImpact, ...]
    c_mentee: float
    c_mentor: float

    @property
    def p_j_size(self) -> int:
        return len(self.pool)


@dataclass(frozen=True)
class ImpactAllocation:
    """All topic allocations for one pair plus exact side totals.

    The side totals are fsum over the flat multiset of per-paper
    contributions (not a sum of per-topic floats), so any other stage that
    fsums the same multiset reproduces them bit for bit.
    """

    mentor_id: str
    mentee_id: str
    topics: dict[int, TopicImpact]
    mentee_total: float
    mentor_total: float


def cociting_pool(members: tuple[str, ...], index: CitationIndex) -> tuple[str, ...]:
    """Corpus papers citing at least two distinct members, sorted."""
    hits: dict[str, int] = {}
    for m in members:
        for citer in index.cited_by_map[m]:
            hits[citer] = hits.get(citer, 0) + 1
    return tuple(sorted(c for c, n in hits.items() if n >= 2))


def allocate_impact(
    graph: PairGraph,
    assignment: TopicAssignment,
    index: CitationIndex,
) -> ImpactAllocation:
    """Allocate topic-specific impact for every retained topic of one pair."""
    topics: dict[int, TopicImpact] = {}
    mentee_shares: list[float] = []
    mentor_shares: list[float] = []
    for topic_id in sorted(assignment.topics):
        members = assignment.topics[topic_id]
        pool = cociting_pool(members, index)
        pool_set = set(pool)
        rows = []
        for paper in members:
            w = sum(1 for c in index.cited_by_map[paper] if c in pool_set)
            rows.append(
                PaperImpact(
                    paper_id=paper,
                    topic_id=topic_id,
                    authorship=graph.labels[paper],
                    w=w,
                    author_count=len(index.paper_authors[paper]),
                )
            )
        c_mentee = math.fsum(r.contribution for r in rows if r.authorship in MENTEE_SIDE)
        c_mentor = math.fsum(r.contribution for r in rows if r.authorship in MENTOR_SIDE)
        mentee_shares.extend(r.contribution for r in rows if r.authorship in MENTEE_SIDE)
        mentor_shares.extend(r.contribution for r in rows if r.authorship in MENTOR_SIDE)
        topics[topic_id] = TopicImpact(
            topic_id=topic_id,
            pool=pool,
            rows=tuple(rows),
            c_mentee=c_mentee,
            c_mentor=c_mentor,
        )
    return ImpactAllocation(
        mentor_id=graph.mentor_id,
        mentee_id=graph.mentee_id,
        topics=topics,
        mentee_total=math.fsum(mentee_shares),
        mentor_total=math.fsum(mentor_shares),
    )
