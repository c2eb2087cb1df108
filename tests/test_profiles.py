"""Per-pair profile assembly and its serialized round trip."""

import json
import math
from dataclasses import fields

import pytest

from cocite.corpus import CitationIndex, MentorshipRecord
from cocite.errors import EmptyPair
from cocite.pipeline import PipelineConfig
from cocite.profiles import PairParams, PairProfile, build_pair_profile
from cocite.synth import SynthConfig, synthesize_corpus
from cocite.topics import TopicType


@pytest.fixture(scope="module")
def built():
    corpus = synthesize_corpus(SynthConfig(n_pairs=3, seed=11))
    index = CitationIndex(corpus.papers)
    profiles = {
        key: build_pair_profile(m, index)
        for key, m in zip(corpus.truths, corpus.mentorships)
    }
    return corpus, profiles


class TestAssembly:
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
            assert profile.mentee_series.total == profile.mentee_total_impact
            assert profile.mentor_series.total == profile.mentor_total_impact
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
            assert not profile.distance_failed
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
        d["distance_failed"] = True
        clone = PairProfile.from_dict(json.loads(json.dumps(d)))
        assert math.isnan(clone.ave_distance)
        assert clone.distance_failed


class TestParams:
    def test_param_dict_lists_every_knob(self):
        # Every per-pair knob is a hashed analysis setting of the pipeline
        # config, so the cache key (which covers the config hash) covers it.
        analysis = dict(PipelineConfig().analysis_items())
        assert {f.name for f in fields(PairParams)} <= set(analysis)

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
