"""Career-time series, typed rows, decade ratios, cohort averaging."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cocite.career import (
    CareerSeries,
    build_career_series,
    cohort_average_series,
    decade_type_ratios,
    typed_contributions,
)
from cocite.community import TopicAssignment
from cocite.impact import allocate_impact
from cocite.topics import TopicType, classify_topics

from helpers import make_index, numbered_assignment, pair_graph, paper


class TestSeries:
    def test_dense_axis_with_gaps(self):
        s = build_career_series([(0, 1.0), (3, 2.0), (3, 0.5)], career_len=5)
        assert s.yearly == (1.0, 0.0, 0.0, 2.5, 0.0, 0.0)
        assert s.cumulative == (1.0, 1.0, 1.0, 3.5, 3.5, 3.5)
        assert s.career_len == 5
        assert s.cumulative[-1] == 3.5

    def test_empty_contributions(self):
        s = build_career_series([], career_len=2)
        assert s.yearly == (0.0, 0.0, 0.0)
        assert s.cumulative[-1] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 30),
                st.floats(0, 10, allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        )
    )
    def test_final_cumulative_equals_flat_fsum(self, data):
        s = build_career_series(data, career_len=30)
        assert s.cumulative[-1] == math.fsum(share for _, share in data)
        # Cumulative never decreases for nonnegative contributions.
        assert all(a <= b for a, b in zip(s.cumulative, s.cumulative[1:]))


def pair_fixture():
    # Mentee first year 2000, mentor first year 1990. Topic 0 shared,
    # topic 1 mentee-only. Citers c1/c2 put both topics in their pools.
    index = make_index(
        paper("e1", "E", year=2000),
        paper("e2", "E", year=2005),
        paper("e3", "E", year=2012),
        paper("r1", "R", year=1990),
        paper("r2", "R", year=2001),
        paper("c1", "x", year=2006, refs=("e1", "r1", "r2")),
        paper("c2", "y", year=2013, refs=("e2", "e3")),
    )
    graph = pair_graph("R", "E", index)
    topics = {0: ("e1", "r1", "r2"), 1: ("e2", "e3")}
    assignment = numbered_assignment(
        TopicAssignment(
            topic_of={m: j for j, ms in topics.items() for m in ms},
            topics=topics,
            modularity_q=0.0,
        ),
        index,
    )
    allocation = allocate_impact(graph, assignment, index)
    typing = classify_topics(graph, assignment)
    return index, allocation, typing


class TestTypedRows:
    def test_years_are_role_relative(self):
        index, allocation, typing = pair_fixture()
        mentee_rows = typed_contributions(allocation, typing, index, "mentee", 2000)
        mentor_rows = typed_contributions(allocation, typing, index, "mentor", 1990)
        assert sorted(mentee_rows) == [
            (0, 1.0, typing.type_of[0]),
            (5, 1.0, TopicType.NEW),
            (12, 1.0, TopicType.NEW),
        ]
        # Mentor clock starts in 1990: r1 at 0, r2 at 11.
        assert sorted(mentor_rows) == [
            (0, 1.0, typing.mentor_side[0]),
            (11, 1.0, typing.mentor_side[0]),
        ]

    def test_unknown_role_raises(self):
        index, allocation, typing = pair_fixture()
        with pytest.raises(ValueError):
            typed_contributions(allocation, typing, index, "advisor", 2000)

    def test_rows_rebuild_the_series_total(self):
        index, allocation, typing = pair_fixture()
        rows = typed_contributions(allocation, typing, index, "mentee", 2000)
        series = build_career_series([(y, s) for y, s, _ in rows], career_len=12)
        assert series.cumulative[-1] == allocation.mentee_total


class TestDecadeRatios:
    def test_decade_boundaries(self):
        rows = [
            (9, 3.0, TopicType.PRIMARY),
            (10, 1.0, TopicType.NEW),
            (19, 1.0, TopicType.NEW),
            (20, 2.0, TopicType.SECONDARY),
        ]
        ratios = decade_type_ratios(rows)
        assert set(ratios) == {0, 1, 2}
        assert ratios[0] == {TopicType.PRIMARY: 1.0}
        assert ratios[1] == {TopicType.NEW: 1.0}
        assert ratios[2] == {TopicType.SECONDARY: 1.0}

    def test_ratios_sum_to_one(self):
        rows = [
            (0, 1.0, TopicType.PRIMARY),
            (4, 2.0, TopicType.NEW),
            (9, 1.0, TopicType.SECONDARY),
        ]
        ratios = decade_type_ratios(rows)
        assert math.fsum(ratios[0].values()) == pytest.approx(1.0)
        assert ratios[0][TopicType.NEW] == pytest.approx(0.5)

    def test_zero_impact_decades_omitted(self):
        rows = [(0, 0.0, TopicType.PRIMARY), (25, 1.0, TopicType.NEW)]
        assert set(decade_type_ratios(rows)) == {2}


class TestCohortAverage:
    def test_right_censoring(self):
        short = CareerSeries(yearly=(1.0, 1.0), cumulative=(1.0, 2.0))
        long = CareerSeries(yearly=(0.0, 0.0, 4.0), cumulative=(0.0, 0.0, 4.0))
        means, counts = cohort_average_series([short, long])
        assert counts == (2, 2, 1)
        assert means == (0.5, 1.0, 4.0)

    def test_single_member(self):
        s = CareerSeries(yearly=(2.0,), cumulative=(2.0,))
        means, counts = cohort_average_series([s])
        assert means == (2.0,)
        assert counts == (1,)
