"""Pipeline configuration, caching, and deterministic outputs."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cocite.corpus
import cocite.pipeline
import cocite.profiles
from cocite.errors import InvalidConfig, NoFinitePaths
from cocite.pipeline import (
    IngestCache,
    PipelineConfig,
    apply_config_values,
    assign_elites,
    build_profiles,
    corpus_digest,
    ingest_cache_key,
    load_config_file,
    pair_cache_key,
    profile_table,
    regression_table,
    run_pipeline,
    write_csv,
)
from cocite.corpus import MentorshipRecord, ingest_corpus
from cocite.synth import SynthConfig, synthesize_corpus, write_corpus


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(synthesize_corpus(SynthConfig(n_pairs=4, seed=3)), out)
    return out


def read_dicts(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def mentee(mentee_id, field, citation_total, impact=(0.0, 0.0)):
    """The profile fields assign_elites reads; impact is (mentee, mentor)."""
    return SimpleNamespace(
        mentee_id=mentee_id,
        field=field,
        mentee_citation_total=citation_total,
        mentee_total_impact=impact[0],
        mentor_total_impact=impact[1],
    )


def make_config(corpus_dir, out_dir, **kwargs) -> PipelineConfig:
    config = PipelineConfig(
        papers=str(corpus_dir / "papers.jsonl"),
        mentorships=str(corpus_dir / "mentorships.jsonl"),
        out=str(out_dir),
    )
    for k, v in kwargs.items():
        setattr(config, k, v)
    return config


class TestConfig:
    def test_hash_ignores_volatile_fields(self):
        a = PipelineConfig(papers="x.jsonl", mentorships="y.jsonl", out="o1", workers=1)
        b = PipelineConfig(papers="z.jsonl", mentorships="w.jsonl", out="o2", workers=8)
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_analysis_knobs(self):
        a = PipelineConfig()
        b = PipelineConfig(gamma=1.5)
        assert a.config_hash() != b.config_hash()

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ngamma = 2.0\nmin_papers=5\nfield=fieldA\n")
        values = load_config_file(path)
        assert values == {"gamma": "2.0", "min_papers": "5", "field": "fieldA"}

    def test_config_file_rejects_bare_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma\n")
        with pytest.raises(InvalidConfig):
            load_config_file(path)

    def test_apply_coerces_types(self):
        config = PipelineConfig()
        apply_config_values(
            config,
            {
                "gamma": "2.5",
                "min_papers": "7",
                "elite_global": "true",
                "regression_30y": "no",
                "field": "none",
            },
        )
        assert config.gamma == 2.5
        assert config.min_papers == 7
        assert config.elite_global is True
        assert config.regression_30y is False
        assert config.field is None

    def test_apply_rejects_unknown_and_private_keys(self):
        config = PipelineConfig()
        with pytest.raises(InvalidConfig):
            apply_config_values(config, {"nope": "1"})
        with pytest.raises(InvalidConfig):
            apply_config_values(config, {"_VOLATILE": "x"})
        with pytest.raises(InvalidConfig):
            apply_config_values(config, {"elite_global": "maybe"})
        # Values that do not parse name their key; none/null only where the
        # field's type admits None; floats must be finite.
        for key, raw in (
            ("min_papers", "abc"),
            ("gamma", "none"),
            ("workers", "null"),
            ("gamma", "nan"),
            ("gamma", "inf"),
            ("top_fraction", "-inf"),
        ):
            with pytest.raises(InvalidConfig, match=repr(key)):
                apply_config_values(config, {key: raw})
        assert config == PipelineConfig()


class TestCsv:
    def test_value_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], [(0.1, True, None, "x")])
        assert path.read_text() == "a,b,c,d\n0.1,true,,x\n"

    def test_special_characters_are_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        row = ("a,b", 'say "hi"', "two\nlines")
        write_csv(path, ["x", "y", "z"], [row])
        with path.open(newline="") as fh:
            assert list(csv.reader(fh)) == [["x", "y", "z"], list(row)]

    def test_float_repr_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 1 / 3
        write_csv(path, ["v"], [(value,)])
        cell = path.read_text().splitlines()[1]
        assert float(cell) == value


class TestCacheKeys:
    def test_key_depends_on_corpus_params_and_pair(self, corpus_dir):
        digest = corpus_digest(
            corpus_dir / "papers.jsonl", corpus_dir / "mentorships.jsonl"
        )
        config = PipelineConfig()
        result = ingest_corpus(
            corpus_dir / "papers.jsonl",
            corpus_dir / "mentorships.jsonl",
            config.ingest_config(),
        )
        m1, m2 = result.mentorships[:2]
        k_base = pair_cache_key(digest, m1, config)
        assert pair_cache_key(digest, m1, PipelineConfig()) == k_base
        assert pair_cache_key(digest, m2, config) != k_base
        assert pair_cache_key(digest, m1, PipelineConfig(gamma=2.0)) != k_base
        assert pair_cache_key(digest, m1, PipelineConfig(year_max=2005)) != k_base
        assert pair_cache_key("0" * 64, m1, config) != k_base
        # Cohort-only and volatile settings do not decide a profile.
        assert pair_cache_key(digest, m1, PipelineConfig(n_bins=10)) == k_base
        assert pair_cache_key(digest, m1, PipelineConfig(top_fraction=0.3, workers=2)) == k_base

    def test_pair_key_is_pinned(self, monkeypatch):
        # With the code digest held fixed, the key is a fixed function of
        # the corpus, the settings and the pair.
        monkeypatch.setattr(cocite.pipeline, "code_digest", lambda: "0" * 64)
        m = MentorshipRecord("mto\u00e9", "mte0", None, "fieldA")
        assert pair_cache_key("0" * 64, m, PipelineConfig()) == (
            "cda6b325288f2770a5541a7b5e017dae13b2ecb77e0d07daed2218ffd4ba66dd"
        )
        assert pair_cache_key("0" * 64, m, PipelineConfig(gamma=2.0, min_papers=5)) == (
            "a03dd40d60dfb29905f8c46a0ca46d58564475e404bd27c13024ec9360f0fc26"
        )

    def test_ingest_key_depends_on_corpus_and_ingest_settings_only(self):
        k_base = ingest_cache_key("0" * 64, PipelineConfig())
        assert ingest_cache_key("1" * 64, PipelineConfig()) != k_base
        for key, value in [("min_papers", 5), ("year_min", 1970), ("year_max", 2005), ("field", "fieldA")]:
            assert ingest_cache_key("0" * 64, PipelineConfig(**{key: value})) != k_base, key
        for key, value in [("gamma", 2.0), ("citation_window", 3), ("n_bins", 10), ("workers", 2)]:
            assert ingest_cache_key("0" * 64, PipelineConfig(**{key: value})) == k_base, key


class TestBuildProfiles:
    def test_cache_round_trip(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path)
        result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        digest = corpus_digest(config.papers, config.mentorships)
        cache = tmp_path / "cache"

        cold = build_profiles(result.index, result.mentorships, config, digest, cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(result.mentorships)

        warm = build_profiles(result.index, result.mentorships, config, digest, cache)
        assert warm.cache_hits == len(result.mentorships)
        assert warm.cache_misses == 0
        assert warm.profiles == cold.profiles

    def test_ingest_settings_force_misses(self, corpus_dir, tmp_path):
        cache = tmp_path / "cache"
        for kwargs in ({}, {"year_max": 2005, "min_papers": 5}):
            config = make_config(corpus_dir, tmp_path, **kwargs)
            result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
            digest = corpus_digest(config.papers, config.mentorships)
            stage = build_profiles(result.index, result.mentorships, config, digest, cache)
            assert stage.cache_hits == 0
            assert stage.cache_misses == len(result.mentorships) > 0

    def test_output_order_is_sorted(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path)
        result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        digest = corpus_digest(config.papers, config.mentorships)
        shuffled = list(reversed(result.mentorships))
        stage = build_profiles(result.index, shuffled, config, digest, tmp_path / "cache")
        keys = [(p.field, p.mentor_id, p.mentee_id) for p in stage.profiles]
        assert keys == sorted(keys)


class TestElites:
    def test_flags_filled_in_place(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path, top_fraction=0.5)
        result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        digest = corpus_digest(config.papers, config.mentorships)
        stage = build_profiles(result.index, result.mentorships, config, digest, tmp_path / "cache")
        assign_elites(stage.profiles, config)
        assert all(p.is_elite is not None for p in stage.profiles)
        assert all(p.outperforming is not None for p in stage.profiles)
        for p in stage.profiles:
            if p.outperforming:
                assert p.is_elite and p.mentee_total_impact > p.mentor_total_impact

    def test_empty_cohort_is_a_no_op(self):
        assign_elites([], PipelineConfig())

    def test_cut_is_rank_based(self):
        cohort = [mentee(f"m{i}", "A", i) for i in range(1, 11)]
        assign_elites(cohort, PipelineConfig(top_fraction=0.2))
        assert [p.mentee_id for p in cohort if p.is_elite] == ["m9", "m10"]

    def test_cut_top_half(self):
        cohort = [mentee(f"m{i}", "A", i) for i in range(1, 5)]
        assign_elites(cohort, PipelineConfig(top_fraction=0.5))
        assert [p.mentee_id for p in cohort if p.is_elite] == ["m3", "m4"]

    @pytest.mark.parametrize(
        "elite_global, elites",
        [(False, ["a2", "b2"]), (True, ["b1", "b2"])],
        ids=["per_field", "global"],
    )
    def test_field_cuts_or_one_global_cut(self, elite_global, elites):
        # Per field, a2 is elite although b1 dwarfs it; one cut over the
        # whole cohort (at 100) leaves field A with no elite.
        cohort = [
            mentee("a1", "A", 1),
            mentee("a2", "A", 2),
            mentee("b1", "B", 100),
            mentee("b2", "B", 200),
        ]
        assign_elites(cohort, PipelineConfig(top_fraction=0.5, elite_global=elite_global))
        assert [p.mentee_id for p in cohort if p.is_elite] == elites

    def test_mentee_counts_once_in_the_field_of_their_last_profile(self):
        # m1 has two mentors. Counted once, in field B, it makes B's cut
        # 5 and leaves A with only a1, who is then elite.
        cohort = [
            mentee("a1", "A", 1),
            mentee("m1", "A", 5),
            mentee("b1", "B", 3),
            mentee("m1", "B", 5),
        ]
        assign_elites(cohort, PipelineConfig(top_fraction=0.5))
        assert [p.is_elite for p in cohort] == [True, True, False, True]

    def test_outperforming_needs_elite_and_strict_excess(self):
        cohort = [
            mentee("m1", "A", 10, impact=(5.1, 5.0)),
            mentee("m2", "A", 10, impact=(5.0, 5.0)),
            mentee("m3", "A", 1, impact=(9.0, 1.0)),
        ]
        assign_elites(cohort, PipelineConfig(top_fraction=0.5))
        assert [(p.is_elite, p.outperforming) for p in cohort] == [
            (True, True),
            (True, False),
            (False, False),
        ]

    def test_flags_are_python_bools(self):
        # profiles.csv writes a bool as true/false and an np.bool_ as True.
        cohort = [mentee("m1", "A", 1, impact=(2.0, 1.0)), mentee("m2", "A", 2, impact=(2.0, 1.0))]
        assign_elites(cohort, PipelineConfig(top_fraction=0.5))
        assert all(type(p.is_elite) is bool and type(p.outperforming) is bool for p in cohort)


class TestTables:
    def test_profile_table_column_names(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path)
        result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        digest = corpus_digest(config.papers, config.mentorships)
        stage = build_profiles(result.index, result.mentorships, config, digest, tmp_path / "cache")
        header, rows = profile_table(stage.profiles)
        for required in ("R", "C_e_total", "C_r_total", "ave_distance", "strategy"):
            assert required in header
        assert len(rows) == len(stage.profiles)
        assert all(len(r) == len(header) for r in rows)

    def test_regression_table_filters_cohort(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path)
        result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        digest = corpus_digest(config.papers, config.mentorships)
        stage = build_profiles(result.index, result.mentorships, config, digest, tmp_path / "cache")
        open_table = regression_table(
            stage.profiles, make_config(corpus_dir, tmp_path, regression_30y=False)
        )
        narrow_table = regression_table(stage.profiles, config)
        n_eligible = sum(
            1 for p in stage.profiles if p.career_30y_mte and p.pre_1990_mte
        )
        assert len(open_table["ave_distance"]) == len(stage.profiles)
        assert len(narrow_table["ave_distance"]) == n_eligible


def cohort_files(result):
    """The files of a run's manifest that `cohort_outputs` wrote."""
    files = json.loads(result.manifest_path.read_text())["files"]
    return set(files) - {"ingest_report.csv", "failures.csv"}


def header_only_cohort_files(result):
    return {
        name
        for name in cohort_files(result)
        if len((result.out_dir / name).read_text().splitlines()) == 1
    }


class TestRunPipeline:
    def test_manifest_covers_written_files(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path / "run")
        result = run_pipeline(config)
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["n_profiles"] == result.n_profiles
        for name, digest in manifest["files"].items():
            path = result.out_dir / name
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_run_stats_are_not_in_manifest(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path / "run")
        result = run_pipeline(config)
        manifest = json.loads(result.manifest_path.read_text())
        assert "run_stats.json" not in manifest["files"]
        stats = json.loads((result.out_dir / "run_stats.json").read_text())
        assert set(stats) == {
            "cache_hits",
            "cache_misses",
            "cache_corrupt",
            "ingest_cache",
            "stages_s",
            "distance_substituted",
            "zero_impact",
            "degenerate_median",
            "empty_outputs",
            "workers",
            "peak_rss_mb",
        }
        assert stats["ingest_cache"] == "miss"
        assert set(stats["stages_s"]) == {"digest", "ingest", "pair_stage", "cohort", "manifest"}
        assert all(seconds >= 0 for seconds in stats["stages_s"].values())
        assert set(stats["peak_rss_mb"]) == {"self", "children"}
        assert stats["peak_rss_mb"]["self"] > 0
        with (result.out_dir / "profiles.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        for count in ("distance_substituted", "zero_impact", "degenerate_median"):
            assert stats[count] == sum(row[count] == "true" for row in rows), count

    def test_truncated_cache_entry_is_recomputed(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        cold_manifest = cold.manifest_path.read_bytes()
        entry = sorted((out / "cache").glob("*.json"))[0]
        entry.write_bytes(entry.read_bytes()[:100])

        warm = run_pipeline(make_config(corpus_dir, out))
        stats = json.loads((out / "run_stats.json").read_text())
        assert (stats["cache_corrupt"], stats["cache_misses"]) == (1, 1)
        assert warm.manifest_path.read_bytes() == cold_manifest
        assert len(entry.read_bytes()) > 100
        assert not list((out / "cache").glob("*.tmp"))

    def test_empty_cohort_outputs_record_their_reason(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(synthesize_corpus(SynthConfig(n_pairs=12, seed=0)), corpus)
        result = run_pipeline(make_config(corpus, tmp_path / "run"))
        empty = json.loads((result.out_dir / "run_stats.json").read_text())["empty_outputs"]
        assert empty["curve.csv"].startswith("InsufficientData: ")
        assert empty["regression.csv"].startswith("RankDeficient: ")
        assert header_only_cohort_files(result) == set(empty)

    def test_no_mentorship_leaves_cohort_outputs_header_only(self, corpus_dir, tmp_path):
        result = run_pipeline(make_config(corpus_dir, tmp_path / "run", min_papers=10**6))
        assert result.n_profiles == 0
        empty = json.loads((result.out_dir / "run_stats.json").read_text())["empty_outputs"]
        assert empty["ccdf.csv"].startswith("EmptyInput: ")
        assert empty["quadrants.csv"].startswith("EmptyInput: ")
        assert header_only_cohort_files(result) == cohort_files(result) == set(empty)
        for name in cohort_files(result):
            assert "nan" not in (result.out_dir / name).read_text()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_finite_paths_fails_only_its_pair(
        self, corpus_dir, tmp_path, monkeypatch, workers
    ):
        fresh = run_pipeline(make_config(corpus_dir, tmp_path / "fresh"))
        fresh_rows = read_dicts(fresh.out_dir / "profiles.csv")
        mentor, mentee = fresh_rows[0]["mentor_id"], fresh_rows[0]["mentee_id"]
        reason = "disconnected pairs with no finite distance to substitute"
        real = cocite.profiles.average_distance

        def no_paths_for_one_pair(graph, **kwargs):
            if (graph.mentor_id, graph.mentee_id) == (mentor, mentee):
                raise NoFinitePaths(reason)
            return real(graph, **kwargs)

        monkeypatch.setattr(cocite.profiles, "average_distance", no_paths_for_one_pair)
        result = run_pipeline(make_config(corpus_dir, tmp_path / "run", workers=workers))
        failures = read_dicts(result.out_dir / "failures.csv")
        expected = {"mentor_id": mentor, "mentee_id": mentee, "stage": "distance", "reason": reason}
        assert expected in failures
        others = [row for row in failures if row != expected]
        assert others == read_dicts(fresh.out_dir / "failures.csv")

        # Elite flags are cohort-wide, so they may move when a pair leaves.
        def per_pair(row):
            return {k: v for k, v in row.items() if k not in ("is_elite", "outperforming")}

        rows = read_dicts(result.out_dir / "profiles.csv")
        assert list(map(per_pair, rows)) == list(map(per_pair, fresh_rows[1:]))

    def test_cache_entries_with_dropped_fields_are_hits(self, corpus_dir, tmp_path):
        # Entries written while profiles still held distance_failed and
        # mentor_citation_total decode to the same profiles.
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        cold_manifest = cold.manifest_path.read_bytes()
        for entry in (out / "cache").glob("*.json"):
            d = json.loads(entry.read_text())
            d |= {"distance_failed": False, "mentor_citation_total": d["mto_citation_impact"]}
            entry.write_text(json.dumps(d, sort_keys=True))
        warm = run_pipeline(make_config(corpus_dir, out))
        assert (warm.cache_hits, warm.cache_misses) == (cold.n_profiles, 0)
        assert warm.manifest_path.read_bytes() == cold_manifest

    def test_cohort_setting_reuses_cache(self, corpus_dir, tmp_path):
        warm_dir = tmp_path / "warm"
        run_pipeline(make_config(corpus_dir, warm_dir))
        warm = run_pipeline(make_config(corpus_dir, warm_dir, n_bins=10))
        fresh = run_pipeline(make_config(corpus_dir, tmp_path / "fresh", n_bins=10))
        assert (warm.cache_hits, warm.cache_misses) == (fresh.n_profiles, 0)
        assert warm.manifest_path.read_bytes() == fresh.manifest_path.read_bytes()

    def test_cache_keeps_only_the_latest_run(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        run_pipeline(make_config(corpus_dir, out, gamma=1.0))
        (out / "cache" / "left.json.123.tmp").write_text("{")
        result = run_pipeline(make_config(corpus_dir, out, gamma=2.0))
        assert result.cache_misses == result.n_profiles > 0
        assert len(list((out / "cache").iterdir())) == result.n_profiles + 1
        assert (out / "cache" / "ingest.npz").is_file()
        again = run_pipeline(make_config(corpus_dir, out, gamma=2.0))
        assert (again.cache_hits, again.cache_misses) == (result.n_profiles, 0)

    @pytest.mark.parametrize(
        "key, value", [("n_bins", 0), ("top_fraction", 1.5), ("gamma", -1.0), ("workers", 0)]
    )
    def test_config_built_in_code_is_checked(self, corpus_dir, tmp_path, key, value):
        out = tmp_path / "run"
        with pytest.raises(InvalidConfig, match=repr(key)):
            run_pipeline(make_config(corpus_dir, out, **{key: value}))
        assert not (out / "profiles.csv").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_stage_keeps_finished_pairs(
        self, corpus_dir, tmp_path, monkeypatch, workers
    ):
        config = make_config(corpus_dir, tmp_path / "run", workers=workers)
        ingested = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        index = ingested.index
        # Pairs are computed largest first, ties in (field, mentor, mentee) order.
        ordered = sorted(
            sorted(ingested.mentorships, key=lambda m: (m.field, m.mentor_id, m.mentee_id)),
            key=lambda m: index.paper_count(m.mentor_id) + index.paper_count(m.mentee_id),
            reverse=True,
        )
        k = 3
        real = cocite.pipeline.build_pair_profile

        def interrupted(mentorship, *args, **kwargs):
            if mentorship == ordered[k - 1]:
                raise KeyboardInterrupt
            return real(mentorship, *args, **kwargs)

        monkeypatch.setattr(cocite.pipeline, "build_pair_profile", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        cache = tmp_path / "run" / "cache"
        expected = {
            f"{pair_cache_key(corpus_digest(config.papers, config.mentorships), m, config)}.json"
            for m in ordered[: k - 1]
        }
        assert {path.name for path in cache.iterdir()} == expected | {"ingest.npz"}
        assert not (tmp_path / "run" / "profiles.csv").exists()

        monkeypatch.undo()
        resumed = run_pipeline(config)
        fresh = run_pipeline(make_config(corpus_dir, tmp_path / "fresh"))
        assert (resumed.cache_hits, resumed.cache_misses) == (k - 1, len(ordered) - k + 1)
        assert resumed.manifest_path.read_bytes() == fresh.manifest_path.read_bytes()

    def test_interrupt_cancels_queued_pool_pairs(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(synthesize_corpus(SynthConfig(n_pairs=12, seed=0)), corpus)
        started = tmp_path / "started"
        real = cocite.pipeline.build_pair_profile

        def slow(mentorship, *args, **kwargs):
            with open(started, "a") as fh:
                fh.write(mentorship.mentee_id + "\n")
            time.sleep(0.5)
            return real(mentorship, *args, **kwargs)

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cocite.pipeline, "build_pair_profile", slow)
        monkeypatch.setattr(cocite.pipeline.PairCache, "store", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(make_config(corpus, tmp_path / "run", workers=2))
        # The interrupt cancels every pair not yet handed to a worker, so
        # only a few of the 12 ever start.
        assert len(started.read_text().splitlines()) < 12

    def test_pool_run_on_half_warm_cache(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        cold_manifest = cold.manifest_path.read_bytes()
        entries = sorted((out / "cache").glob("*.json"))
        for entry in entries[::2]:
            entry.unlink()

        pooled = run_pipeline(make_config(corpus_dir, out, workers=2))
        n_deleted = len(entries[::2])
        assert n_deleted > 0
        assert (pooled.cache_hits, pooled.cache_misses) == (len(entries) - n_deleted, n_deleted)
        assert pooled.manifest_path.read_bytes() == cold_manifest
        assert sorted((out / "cache").iterdir()) == sorted([*entries, out / "cache" / "ingest.npz"])

    def test_pool_workers_do_not_reingest(self, corpus_dir, tmp_path, monkeypatch):
        parent = os.getpid()
        real = cocite.pipeline.ingest_corpus

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("corpus ingested in a pool worker")
            return real(*args, **kwargs)

        monkeypatch.setattr(cocite.pipeline, "ingest_corpus", parent_only)
        result = run_pipeline(make_config(corpus_dir, tmp_path / "pool", workers=2))
        assert result.cache_misses == result.n_profiles > 0

    def test_pool_never_starts_more_workers_than_pending_pairs(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        sizes = []

        class RecordingPool(cocite.pipeline.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cocite.pipeline, "ProcessPoolExecutor", RecordingPool)
        pooled = run_pipeline(make_config(corpus_dir, tmp_path / "pool", workers=8))
        serial = run_pipeline(make_config(corpus_dir, tmp_path / "serial"))
        assert 1 < pooled.cache_misses < 8
        assert sizes == [pooled.cache_misses]
        assert pooled.manifest_path.read_bytes() == serial.manifest_path.read_bytes()

    def test_pool_starts_after_the_kernels_import_and_takes_largest_pairs_first(
        self, corpus_dir, tmp_path
    ):
        # A fresh interpreter, since this one has imported SciPy already.
        script = """
import json, sys
import cocite.pipeline
from cocite.pipeline import PipelineConfig, run_pipeline

seen = {}

class RecordingPool(cocite.pipeline.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        seen["csgraph_imported"] = "scipy.sparse.csgraph" in sys.modules
        super().__init__(*args, **kwargs)

    def map(self, fn, pairs, **kwargs):
        seen["order"] = [[m.mentor_id, m.mentee_id] for m in pairs]
        return super().map(fn, pairs, **kwargs)

cocite.pipeline.ProcessPoolExecutor = RecordingPool
papers, mentorships, out = sys.argv[1:]
run_pipeline(PipelineConfig(papers=papers, mentorships=mentorships, out=out, workers=2))
print(json.dumps(seen))
"""
        config = make_config(corpus_dir, tmp_path / "pool")
        proc = subprocess.run(
            [sys.executable, "-c", script, config.papers, config.mentorships, config.out],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["csgraph_imported"]
        index = ingest_corpus(config.papers, config.mentorships, config.ingest_config()).index
        sizes = [index.paper_count(mentor) + index.paper_count(mentee) for mentor, mentee in seen["order"]]
        assert len(sizes) > 1 and sizes == sorted(sizes, reverse=True)
        serial = run_pipeline(make_config(corpus_dir, tmp_path / "serial"))
        assert (tmp_path / "pool" / "manifest.json").read_bytes() == serial.manifest_path.read_bytes()

    def test_no_scipy_during_ingest_or_an_all_hit_pair_stage(self, corpus_dir, tmp_path):
        config = make_config(corpus_dir, tmp_path / "run")
        run_pipeline(config)
        script = """
import json, sys
from pathlib import Path

import cocite
from cocite.pipeline import PipelineConfig, assign_elites, build_profiles, cohort_outputs, corpus_digest

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

papers, mentorships, out = sys.argv[1:]
config = PipelineConfig(papers=papers, mentorships=mentorships, out=out)
ingested = cocite.ingest_corpus(papers, mentorships, config.ingest_config())
after_ingest = scipy_modules()
digest = corpus_digest(papers, mentorships)
stage = build_profiles(ingested.index, ingested.mentorships, config, digest, Path(out) / "cache")
after_stage = scipy_modules()
assign_elites(stage.profiles, config)
_, empty = cohort_outputs(stage.profiles, config, Path(out))
print(json.dumps([after_ingest, after_stage, stage.cache_misses, len(stage.profiles), scipy_modules(), sorted(empty)]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, config.papers, config.mentorships, config.out],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        after_ingest, after_stage, misses, n_profiles, after_cohort, empty = json.loads(proc.stdout)
        assert (after_ingest, after_stage, misses) == ([], [], 0)
        assert n_profiles > 0
        # The quadratic fit, and so its p-value, is computed.
        assert after_cohort == []
        assert "fit.csv" not in empty

    @pytest.mark.parametrize("min_community_size", [10, 10_000])
    def test_pool_run_matches_serial(self, corpus_dir, tmp_path, min_community_size):
        # At 10_000 no topic is retained and every pair lands in failures.csv.
        kwargs = {"min_community_size": min_community_size}
        serial = run_pipeline(make_config(corpus_dir, tmp_path / "serial", **kwargs))
        pooled = run_pipeline(make_config(corpus_dir, tmp_path / "pool", workers=2, **kwargs))
        assert pooled.cache_misses == serial.cache_misses > 0
        assert (serial.n_failures > 0) == (min_community_size > 10)
        for name in ("manifest.json", "failures.csv"):
            assert (pooled.out_dir / name).read_bytes() == (serial.out_dir / name).read_bytes()


def run_stats(out):
    return json.loads((out / "run_stats.json").read_text())


def edit_entry(edit):
    """A damage that stores the entry again after `edit(members)`."""

    def damage(path):
        with np.load(path, allow_pickle=False) as entry:
            members = {name: entry[name] for name in entry.files}
        edit(members)
        with open(path, "wb") as fh:
            np.savez(fh, **members)

    return damage


def json_member(array):
    return json.loads(array.tobytes())


def as_member(value):
    return np.frombuffer(json.dumps(value).encode("ascii"), dtype=np.uint8)


def flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


ENTRY_DAMAGE = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "garbage": lambda path: path.write_bytes(b"not an ingest entry"),
    "empty": lambda path: path.write_bytes(b""),
    "bad_crc": flip_middle_byte,
    "extra_member": edit_entry(lambda m: m.update(extra=np.zeros(1))),
    "missing_member": edit_entry(lambda m: m.pop("pub_year")),
    "wrong_dtype": edit_entry(lambda m: m.update(pub_year=m["pub_year"].astype(np.int32))),
    "indptr_end": edit_entry(lambda m: m["cited_by.indptr"].__setitem__(-1, len(m["cited_by.indices"]) + 1)),
    "index_out_of_range": edit_entry(
        lambda m: m["paper_authors.indices"].__setitem__(0, len(json_member(m["author_ids"])))
    ),
    "id_count": edit_entry(lambda m: m.update(paper_ids=as_member(json_member(m["paper_ids"])[:-1]))),
    "id_type": edit_entry(lambda m: m.update(paper_ids=as_member([1, *json_member(m["paper_ids"])[1:]]))),
}


class TestIngestCache:
    def test_warm_run_does_not_parse_the_corpus(self, corpus_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))

        def no_parse(*args):
            raise AssertionError("corpus parsed on a warm run")

        monkeypatch.setattr(cocite.corpus, "_kept_papers", no_parse)
        warm = run_pipeline(make_config(corpus_dir, out))
        assert run_stats(out)["ingest_cache"] == "hit"
        assert (warm.cache_hits, warm.cache_misses) == (cold.cache_misses, 0)
        assert warm.manifest_path.read_bytes() == cold.manifest_path.read_bytes()

    def test_pair_setting_reuses_the_ingest_entry(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        run_pipeline(make_config(corpus_dir, out))
        warm = run_pipeline(make_config(corpus_dir, out, gamma=2.0))
        fresh = run_pipeline(make_config(corpus_dir, tmp_path / "fresh", gamma=2.0))
        assert run_stats(out)["ingest_cache"] == "hit"
        assert (warm.cache_hits, warm.cache_misses) == (0, fresh.cache_misses)
        assert warm.manifest_path.read_bytes() == fresh.manifest_path.read_bytes()

    def test_other_code_misses_every_entry_once(self, corpus_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        monkeypatch.setattr(cocite.pipeline, "code_digest", lambda: "0" * 64)
        changed = run_pipeline(make_config(corpus_dir, out))
        assert run_stats(out)["ingest_cache"] == "miss"
        assert (changed.cache_hits, changed.cache_misses) == (0, cold.cache_misses)
        again = run_pipeline(make_config(corpus_dir, out))
        assert run_stats(out)["ingest_cache"] == "hit"
        assert (again.cache_hits, again.cache_misses) == (cold.cache_misses, 0)
        assert again.manifest_path.read_bytes() == cold.manifest_path.read_bytes()

    @pytest.mark.parametrize("key, value", [("min_papers", 5), ("field", "fieldA")])
    def test_ingest_setting_misses_and_overwrites_the_slot(self, corpus_dir, tmp_path, key, value):
        out = tmp_path / "run"
        run_pipeline(make_config(corpus_dir, out))
        changed = make_config(corpus_dir, out, **{key: value})
        run_pipeline(changed)
        assert run_stats(out)["ingest_cache"] == "miss"
        digest = corpus_digest(changed.papers, changed.mentorships)
        slot = IngestCache(out / "cache" / "ingest.npz", ingest_cache_key(digest, changed))
        assert slot.load() is not None and slot.status == "hit"
        assert [path.name for path in (out / "cache").iterdir() if path.suffix != ".json"] == ["ingest.npz"]
        fresh = run_pipeline(make_config(corpus_dir, tmp_path / "fresh", **{key: value}))
        assert (out / "manifest.json").read_bytes() == fresh.manifest_path.read_bytes()

    @pytest.mark.parametrize("damage", list(ENTRY_DAMAGE.values()), ids=list(ENTRY_DAMAGE))
    def test_damaged_entry_is_reparsed_counted_and_overwritten(self, corpus_dir, tmp_path, damage):
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        damage(out / "cache" / "ingest.npz")

        warm = run_pipeline(make_config(corpus_dir, out))
        stats = run_stats(out)
        assert (stats["ingest_cache"], stats["cache_corrupt"]) == ("corrupt", 1)
        assert (warm.cache_hits, warm.cache_misses) == (cold.cache_misses, 0)
        assert warm.manifest_path.read_bytes() == cold.manifest_path.read_bytes()
        assert not list((out / "cache").glob("*.tmp"))
        run_pipeline(make_config(corpus_dir, out))
        assert (run_stats(out)["ingest_cache"], run_stats(out)["cache_corrupt"]) == ("hit", 0)

    def test_damaged_pair_and_ingest_entries_count_once_each(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        pair_entry = sorted((out / "cache").glob("*.json"))[0]
        pair_entry.write_bytes(pair_entry.read_bytes()[:100])
        flip_middle_byte(out / "cache" / "ingest.npz")

        warm = run_pipeline(make_config(corpus_dir, out))
        stats = run_stats(out)
        assert (stats["ingest_cache"], stats["cache_corrupt"]) == ("corrupt", 2)
        assert (warm.cache_hits, warm.cache_misses) == (cold.cache_misses - 1, 1)
        assert warm.manifest_path.read_bytes() == cold.manifest_path.read_bytes()

    def test_cache_without_an_ingest_entry_hits_every_pair(self, corpus_dir, tmp_path):
        # As a cache filled before the ingest entry existed.
        out = tmp_path / "run"
        cold = run_pipeline(make_config(corpus_dir, out))
        (out / "cache" / "ingest.npz").unlink()
        warm = run_pipeline(make_config(corpus_dir, out))
        assert run_stats(out)["ingest_cache"] == "miss"
        assert (warm.cache_hits, warm.cache_misses) == (cold.cache_misses, 0)
        assert (out / "cache" / "ingest.npz").is_file()
