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

import numpy as np

from .community import TopicAssignment
from .corpus import CitationIndex
from .pairgraph import MENTEE_SIDE, MENTOR_SIDE, Authorship, PairGraph


@dataclass(frozen=True)
class PaperImpact:
    """Allocation row for one member paper (its number in the index) of one
    topic."""

    paper: int
    authorship: Authorship
    w: int
    author_count: int

    @property
    def contribution(self) -> float:
        return self.w / self.author_count


@dataclass(frozen=True)
class TopicImpact:
    """Per-topic allocation: pool (sorted paper numbers), per-paper rows, and
    side totals."""

    topic_id: int
    pool: np.ndarray
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

    topics: dict[int, TopicImpact]
    mentee_total: float
    mentor_total: float


def cociting_pool(members: np.ndarray, index: CitationIndex) -> tuple[np.ndarray, np.ndarray]:
    """The corpus papers citing at least two distinct members, sorted, and
    w(p) for each member p: how many of them cite p.

    Both come from the members' columns of the citer x paper matrix: the
    pool is its rows with two or more entries, and w(p) counts column p's
    entries in those rows.
    """
    citers = index.cited_by.take(members)
    member_of = np.repeat(np.arange(members.size), index.cited_by.lengths(members))
    uniq, citer_of, per_citer = np.unique(citers, return_inverse=True, return_counts=True)
    w = np.bincount(member_of[per_citer[citer_of] >= 2], minlength=members.size)
    return uniq[per_citer >= 2], w


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
        members = np.array(assignment.topics[topic_id], dtype=np.int64)
        pool, w = cociting_pool(members, index)
        rows = tuple(
            PaperImpact(paper=paper, authorship=graph.labels[paper], w=w_p, author_count=s_p)
            for paper, w_p, s_p in zip(
                members.tolist(), w.tolist(), index.paper_authors.lengths(members).tolist()
            )
        )
        mentee = [r.contribution for r in rows if r.authorship in MENTEE_SIDE]
        mentor = [r.contribution for r in rows if r.authorship in MENTOR_SIDE]
        mentee_shares.extend(mentee)
        mentor_shares.extend(mentor)
        topics[topic_id] = TopicImpact(
            topic_id=topic_id,
            pool=pool,
            rows=rows,
            c_mentee=math.fsum(mentee),
            c_mentor=math.fsum(mentor),
        )
    return ImpactAllocation(
        topics=topics,
        mentee_total=math.fsum(mentee_shares),
        mentor_total=math.fsum(mentor_shares),
    )
