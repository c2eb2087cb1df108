"""Per-pair profile assembly and its serialized round trip."""

import json
import math
from dataclasses import fields
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from cocite.corpus import CitationIndex, MentorshipRecord
from cocite.errors import CociteError, EmptyPair, NoRetainedTopics
from cocite.profiles import PairParams, PairProfile, build_pair_profile
from cocite.synth import SynthConfig, synthesize_corpus
from cocite.topics import TopicType

from helpers import make_index, paper, random_pair_corpus


@pytest.fixture(scope="module")
def built():
    corpus = synthesize_corpus(SynthConfig(n_pairs=3, seed=11))
    index = CitationIndex(corpus.papers)
    profiles = {
        key: build_pair_profile(m, index)
        for key, m in zip(corpus.truths, corpus.mentorships)
    }
    return corpus, profiles


def plain_values(value):
    """Every leaf value of a profile field: numbers, flags, strings and enums."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from plain_values(k)
            yield from plain_values(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from plain_values(v)
    elif hasattr(value, "__dataclass_fields__"):
        for f in fields(value):
            yield from plain_values(getattr(value, f.name))
    else:
        yield value


class TestAssembly:
    def test_values_are_python_scalars(self, built):
        # A numpy scalar would print differently in profiles.csv (np.bool_)
        # or in the cache's JSON.
        _, profiles = built
        for profile in profiles.values():
            for value in plain_values(profile):
                assert type(value) in (int, float, bool, str, type(None)) or isinstance(value, Enum), (
                    type(value)
                )

    def test_scalars_track_truth(self, built):
        corpus, profiles = built
        for key, profile in profiles.items():
            truth = corpus.truths[key]
            assert profile.strategy is truth.strategy
            assert profile.n_shared == truth.n_shared
            assert profile.n_new == truth.n_new
            assert profile.mentee_total_impact == truth.mentee_total
            assert profile.mentor_total_impact == truth.mentor_total
            assert profile.career_len_mte == truth.mentee_career_len
            assert profile.career_len_mto == truth.mentor_career_len
            assert profile.colla_work_count == truth.colla_work_count

    def test_series_final_equals_total(self, built):
        _, profiles = built
        for profile in profiles.values():
            assert profile.mentee_series.cumulative[-1] == profile.mentee_total_impact
            assert profile.mentor_series.cumulative[-1] == profile.mentor_total_impact
            assert profile.mentee_series.career_len == profile.career_len_mte

    def test_by_type_impacts_partition_the_total(self, built):
        _, profiles = built
        for profile in profiles.values():
            assert math.fsum(profile.mentee_impact_by_type.values()) == pytest.approx(
                profile.mentee_total_impact
            )
            assert set(profile.mentee_impact_by_type) == {
                TopicType.PRIMARY,
                TopicType.SECONDARY,
                TopicType.NEW,
            }
            assert set(profile.mentor_impact_by_type) == {
                TopicType.PRIMARY,
                TopicType.SECONDARY,
            }

    def test_collab_split_sums(self, built):
        _, profiles = built
        for profile in profiles.values():
            assert (
                profile.colla_work_count_first_5y + profile.colla_work_count_later
                == profile.colla_work_count
            )

    def test_distance_block_is_finite_here(self, built):
        _, profiles = built
        for profile in profiles.values():
            assert math.isfinite(profile.ave_distance)
            assert profile.ave_distance_sq == profile.ave_distance * profile.ave_distance
            assert profile.n_distance_pairs > 0

    def test_elite_flags_start_unset(self, built):
        _, profiles = built
        for profile in profiles.values():
            assert profile.is_elite is None
            assert profile.outperforming is None

    def test_ghost_mentor_raises(self, built):
        corpus, _ = built
        index = CitationIndex(corpus.papers)
        ghost = MentorshipRecord("nobody", corpus.mentorships[0].mentee_id, 1980, "fieldA")
        with pytest.raises(EmptyPair):
            build_pair_profile(ghost, index)


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self, built):
        _, profiles = built
        for profile in profiles.values():
            clone = PairProfile.from_dict(profile.to_dict())
            assert clone == profile

    def test_json_round_trip_is_exact(self, built):
        _, profiles = built
        for profile in profiles.values():
            clone = PairProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
            assert clone == profile

    def test_nan_distance_survives_json(self, built):
        _, profiles = built
        profile = next(iter(profiles.values()))
        d = profile.to_dict()
        d["ave_distance"] = math.nan
        clone = PairProfile.from_dict(json.loads(json.dumps(d)))
        assert math.isnan(clone.ave_distance)


class TestDistanceStage:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        min_community_size=st.sampled_from([0, 1, 2, 10]),
        include_joint_self_pairs=st.booleans(),
        exclude_self_cocitation=st.booleans(),
    )
    def test_distance_follows_every_classified_pair(
        self, seed, min_community_size, include_joint_self_pairs, exclude_self_cocitation
    ):
        # A retained topic is a community of connected papers, so a pair that
        # gets past classify has an edge and a finite distance to substitute.
        records, mentor, mentee, _ = random_pair_corpus(seed)
        params = PairParams(
            min_community_size=min_community_size,
            include_joint_self_pairs=include_joint_self_pairs,
            exclude_self_cocitation=exclude_self_cocitation,
        )
        m = MentorshipRecord(mentor, mentee, None, "f")
        try:
            build_pair_profile(m, CitationIndex(records), params)
        except CociteError as exc:
            assert exc.stage != "distance"

    @pytest.mark.parametrize("include_joint_self_pairs", [True, False])
    @pytest.mark.parametrize("min_community_size", [0, 1])
    def test_one_joint_paper_keeps_no_topic(self, min_community_size, include_joint_self_pairs):
        # The one-node graph has no edge, so detect ends the pair before the
        # distance stage, which has no pair to average without self pairs.
        index = make_index(paper("j", ("R", "E")), paper("c", "x", refs=("j",)))
        params = PairParams(
            min_community_size=min_community_size,
            include_joint_self_pairs=include_joint_self_pairs,
        )
        with pytest.raises(NoRetainedTopics):
            build_pair_profile(MentorshipRecord("R", "E", None, "f"), index, params)


class TestParams:
    def test_self_cocitation_knob_changes_the_graph(self, built):
        corpus, profiles = built
        index = CitationIndex(corpus.papers)
        m = corpus.mentorships[0]
        base = profiles[(m.mentor_id, m.mentee_id)]
        strict = build_pair_profile(
            m, index, PairParams(exclude_self_cocitation=True)
        )
        # Synthetic pair papers never cite each other, so nothing changes.
        assert strict.n_edges == base.n_edges
