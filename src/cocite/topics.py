"""Topic typing and mentee strategy classification.

Mentor topics split into primary and secondary by whether the mentor's
share of papers in the topic exceeds the median share across their topics.
Retained topics then partition four ways from the mentee's point of view:
shared topics inherit the mentor-side type, topics without mentor papers
are new, topics without mentee papers are mentor-only. The mentee strategy
follows from the counts of shared and new topics.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable

from .community import TopicAssignment
from .errors import MenteeNoTopics, NoRetainedTopics
from .pairgraph import MENTEE_SIDE, MENTOR_SIDE, PairGraph


class TopicType(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"
    NEW = "new"
    MENTOR_ONLY = "mentor_only"


class Strategy(Enum):
    PURE_FOLLOW = "pure_follow"
    FOLLOW_AND_INNOVATE = "follow_and_innovate"
    PURE_INNOVATE = "pure_innovate"


@dataclass(frozen=True)
class TopicTyping:
    """Typed view of one pair's retained topics.

    type_of covers every retained topic. mentor_side additionally types
    every topic containing mentor papers as primary or secondary, including
    mentor-only topics, so mentor impact can be aggregated by type.
    degenerate_median flags pairs where no mentor topic clears the median
    (for example a mentor with a single topic), making every mentor topic
    secondary by the strict-inequality rule.
    """

    type_of: dict[int, TopicType]
    mentor_side: dict[int, TopicType]
    proportions: dict[int, float]
    degenerate_median: bool


@dataclass(frozen=True)
class StrategyRecord:
    strategy: Strategy
    n_shared: int
    n_new: int
    new_topic_ratio: float


def side_counts(graph: PairGraph, members: Iterable[Hashable]) -> tuple[int, int]:
    """(mentee-side, mentor-side) paper counts among the given members."""
    mentee = 0
    mentor = 0
    for m in members:
        label = graph.labels[m]
        if label in MENTEE_SIDE:
            mentee += 1
        if label in MENTOR_SIDE:
            mentor += 1
    return mentee, mentor


def classify_topics(graph: PairGraph, assignment: TopicAssignment) -> TopicTyping:
    """Type every retained topic of one pair."""
    if not assignment.topics:
        raise NoRetainedTopics(
            f"pair ({graph.mentor_id}, {graph.mentee_id}) kept no topics"
        )
    counts = {
        j: side_counts(graph, members) for j, members in assignment.topics.items()
    }
    mentor_topics = sorted(j for j, (_, r) in counts.items() if r > 0)
    mentor_paper_total = sum(counts[j][1] for j in mentor_topics)

    proportions: dict[int, float] = {}
    mentor_side: dict[int, TopicType] = {}
    degenerate = False
    if mentor_topics:
        proportions = {j: counts[j][1] / mentor_paper_total for j in mentor_topics}
        median = statistics.median(proportions.values())
        for j in mentor_topics:
            if proportions[j] > median:
                mentor_side[j] = TopicType.PRIMARY
            else:
                mentor_side[j] = TopicType.SECONDARY
        degenerate = all(t is TopicType.SECONDARY for t in mentor_side.values())

    type_of: dict[int, TopicType] = {}
    for j, (mentee_n, mentor_n) in counts.items():
        if mentee_n > 0 and mentor_n > 0:
            type_of[j] = mentor_side[j]
        elif mentee_n > 0:
            type_of[j] = TopicType.NEW
        else:
            type_of[j] = TopicType.MENTOR_ONLY

    return TopicTyping(
        type_of=type_of,
        mentor_side=mentor_side,
        proportions=proportions,
        degenerate_median=degenerate,
    )


def classify_strategy(typing: TopicTyping) -> StrategyRecord:
    """Classify the mentee's strategy from shared and new topic counts.

    Pure follow means every mentee topic is shared with the mentor; pure
    innovate means none is. The ratio is new / (new + shared).
    """
    kinds = Counter(typing.type_of.values())
    n_shared = kinds[TopicType.PRIMARY] + kinds[TopicType.SECONDARY]
    n_new = kinds[TopicType.NEW]
    if n_shared + n_new == 0:
        raise MenteeNoTopics("mentee has no retained topics")
    if n_new == 0:
        strategy = Strategy.PURE_FOLLOW
    elif n_shared == 0:
        strategy = Strategy.PURE_INNOVATE
    else:
        strategy = Strategy.FOLLOW_AND_INNOVATE
    return StrategyRecord(
        strategy=strategy,
        n_shared=n_shared,
        n_new=n_new,
        new_topic_ratio=n_new / (n_new + n_shared),
    )

