"""Topic typing and strategy classification."""

import pytest

from cocite.community import TopicAssignment
from cocite.errors import MenteeNoTopics, NoRetainedTopics
from cocite.pairgraph import Authorship
from cocite.topics import (
    Strategy,
    TopicType,
    author_citation_total,
    classify_strategy,
    classify_topics,
)

from helpers import graph_from_edges, make_index, paper

E = Authorship.MENTEE
R = Authorship.MENTOR
J = Authorship.JOINT


def typing_fixture(topic_labels):
    """Build a (graph, assignment) pair from topic -> label-list specs."""
    labels = {}
    topics = {}
    n = 0
    for j, labs in topic_labels.items():
        members = []
        for lab in labs:
            node = f"t{j}p{n:02d}"
            n += 1
            labels[node] = lab
            members.append(node)
        topics[j] = tuple(sorted(members))
    graph = graph_from_edges(labels, [])
    assignment = TopicAssignment(
        topic_of={m: j for j, ms in topics.items() for m in ms},
        topics=topics,
        modularity_q=0.0,
    )
    return graph, assignment


class TestTyping:
    def test_even_count_median_between_middle_shares(self):
        graph, assignment = typing_fixture(
            {
                0: [R] * 4 + [E],
                1: [R] * 3 + [E],
                2: [R] * 2 + [E],
                3: [R] * 1 + [E],
            }
        )
        t = classify_topics(graph, assignment)
        assert t.proportions == {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}
        assert t.type_of == {
            0: TopicType.PRIMARY,
            1: TopicType.PRIMARY,
            2: TopicType.SECONDARY,
            3: TopicType.SECONDARY,
        }
        assert not t.degenerate_median

    def test_odd_count_share_equal_to_median_is_secondary(self):
        graph, assignment = typing_fixture(
            {0: [R] * 3 + [E], 1: [R] * 2 + [E], 2: [R] * 1 + [E]}
        )
        t = classify_topics(graph, assignment)
        assert t.type_of[0] is TopicType.PRIMARY
        assert t.type_of[1] is TopicType.SECONDARY
        assert t.type_of[2] is TopicType.SECONDARY

    def test_single_mentor_topic_is_degenerate(self):
        graph, assignment = typing_fixture({0: [R, R, E]})
        t = classify_topics(graph, assignment)
        assert t.proportions == {0: 1.0}
        assert t.type_of[0] is TopicType.SECONDARY
        assert t.degenerate_median

    def test_four_way_partition(self):
        graph, assignment = typing_fixture(
            {0: [E, R, R, R], 1: [E, R], 2: [E], 3: [R]}
        )
        t = classify_topics(graph, assignment)
        assert t.type_of == {
            0: TopicType.PRIMARY,
            1: TopicType.SECONDARY,
            2: TopicType.NEW,
            3: TopicType.MENTOR_ONLY,
        }
        # Mentor-side view types the mentor-only topic too.
        assert t.mentor_side == {
            0: TopicType.PRIMARY,
            1: TopicType.SECONDARY,
            3: TopicType.SECONDARY,
        }

    def test_joint_paper_counts_on_both_sides(self):
        graph, assignment = typing_fixture({0: [J]})
        t = classify_topics(graph, assignment)
        assert t.type_of[0] in (TopicType.PRIMARY, TopicType.SECONDARY)
        assert t.proportions == {0: 1.0}

    def test_no_mentor_topics(self):
        graph, assignment = typing_fixture({0: [E], 1: [E, E]})
        t = classify_topics(graph, assignment)
        assert t.type_of == {0: TopicType.NEW, 1: TopicType.NEW}
        assert t.proportions == {}
        assert t.mentor_side == {}
        assert not t.degenerate_median

    def test_empty_assignment_raises(self):
        graph, _ = typing_fixture({0: [E, R]})
        empty = TopicAssignment(topic_of={}, topics={}, modularity_q=0.0)
        with pytest.raises(NoRetainedTopics):
            classify_topics(graph, empty)


class TestStrategy:
    def test_pure_follow(self):
        graph, assignment = typing_fixture({0: [E, R], 1: [E, R, R]})
        rec = classify_strategy(classify_topics(graph, assignment))
        assert rec.strategy is Strategy.PURE_FOLLOW
        assert (rec.n_shared, rec.n_new) == (2, 0)
        assert rec.new_topic_ratio == 0.0

    def test_follow_and_innovate(self):
        graph, assignment = typing_fixture(
            {0: [E, R], 1: [E, R], 2: [E, R, R], 3: [E]}
        )
        rec = classify_strategy(classify_topics(graph, assignment))
        assert rec.strategy is Strategy.FOLLOW_AND_INNOVATE
        assert (rec.n_shared, rec.n_new) == (3, 1)
        assert rec.new_topic_ratio == 0.25

    def test_pure_innovate(self):
        graph, assignment = typing_fixture({0: [E], 1: [E, E], 2: [R]})
        rec = classify_strategy(classify_topics(graph, assignment))
        assert rec.strategy is Strategy.PURE_INNOVATE
        assert (rec.n_shared, rec.n_new) == (0, 2)
        assert rec.new_topic_ratio == 1.0

    def test_mentor_only_topics_do_not_count(self):
        graph, assignment = typing_fixture({0: [R, R], 1: [R]})
        with pytest.raises(MenteeNoTopics):
            classify_strategy(classify_topics(graph, assignment))


class TestCitationTotals:
    def make(self):
        return make_index(
            paper("p1", "a", year=2000),
            paper("p2", "a", year=2010),
            paper("c1", "x", year=2003, refs=("p1",)),
            paper("c2", "y", year=2006, refs=("p1",)),
            paper("c3", "z", year=2010, refs=("p2",)),
            paper("c4", "q", year=1999, refs=("p1",)),
        )

    def test_window_is_inclusive(self):
        index = self.make()
        assert author_citation_total(index.author("a"), index, window=5) == 2

    def test_window_shrinks_total(self):
        index = self.make()
        assert author_citation_total(index.author("a"), index, window=2) == 1

    def test_wide_window_counts_all_later_citers(self):
        index = self.make()
        assert author_citation_total(index.author("a"), index, window=10) == 3
