"""Command-line interface, end to end and in process."""

import contextlib
import csv
import io
import json
import math
from dataclasses import fields as dc_fields

import pytest

from cocite import profiles
from cocite.cli import _OFF_FLAGS, build_parser, config_from_args, main
from cocite.corpus import IngestConfig
from cocite.errors import NoFinitePaths
from cocite.profiles import PairParams
from cocite.synth import SynthConfig, synthesize_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorpus")
    assert main(["synth", "--out", str(out), "--pairs", "4", "--seed", "3"]) == 0
    return out


def corpus_args(corpus_dir):
    return [
        "--papers",
        str(corpus_dir / "papers.jsonl"),
        "--mentorships",
        str(corpus_dir / "mentorships.jsonl"),
    ]


def first_pair(corpus_dir):
    line = (corpus_dir / "mentorships.jsonl").read_text().splitlines()[0]
    rec = json.loads(line)
    return rec["mentor_id"], rec["mentee_id"]


@pytest.fixture(scope="module")
def pair_run(corpus_dir, tmp_path_factory):
    """`cocite pair` on the first pair: its output directory and stdout."""
    mentor, mentee = first_pair(corpus_dir)
    out = tmp_path_factory.mktemp("pair")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(pair_args(corpus_dir, mentor, mentee, out))
    assert code == 0
    return out, stdout.getvalue()


def pair_args(corpus_dir, mentor, mentee, out, *flags):
    return [
        "pair",
        *corpus_args(corpus_dir),
        "--mentor",
        mentor,
        "--mentee",
        mentee,
        "--out",
        str(out),
        *flags,
    ]


def read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


class TestParsing:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cocite" in capsys.readouterr().out

    def test_missing_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=2.0\nmin_papers=5\n")
        parser = build_parser()
        args = parser.parse_args(
            [
                "run",
                "--papers",
                "p.jsonl",
                "--mentorships",
                "m.jsonl",
                "--out",
                "o",
                "--config",
                str(cfg),
                "--gamma",
                "3.0",
            ]
        )
        config = config_from_args(args)
        assert config.gamma == 3.0  # flag beats file
        assert config.min_papers == 5  # file beats default
        assert config.year_min == 1960  # default untouched

    def test_negative_bool_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "run",
                "--papers",
                "p",
                "--mentorships",
                "m",
                "--out",
                "o",
                "--exclude-joint-self-pairs",
                "--no-regression-30y",
            ]
        )
        config = config_from_args(args)
        assert config.include_joint_self_pairs is False
        assert config.regression_30y is False


class TestErrors:
    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--papers",
                str(tmp_path / "nope.jsonl"),
                "--mentorships",
                str(tmp_path / "nope2.jsonl"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_pair_exits_two(self, corpus_dir, tmp_path, capsys):
        assert main(pair_args(corpus_dir, "ghost", "ghost2", tmp_path)) == 2
        assert "stage pairs: EmptyPair" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "pair"])
    def test_negative_gamma_exits_two(self, corpus_dir, tmp_path, capsys, command):
        args = [command, *corpus_args(corpus_dir), "--out", str(tmp_path / "out"), "--gamma=-1"]
        if command == "pair":
            mentor, mentee = first_pair(corpus_dir)
            args += ["--mentor", mentor, "--mentee", mentee]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_gamma_runs(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *corpus_args(corpus_dir), "--out", str(out), "--gamma=0"]) == 0
        assert (out / "manifest.json").is_file()

    def test_bad_config_file_exits_two(self, corpus_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("definitely not config\n")
        code = main(
            [
                "run",
                *corpus_args(corpus_dir),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_directory_as_corpus_exits_two(self, corpus_dir, tmp_path, capsys):
        code = main(
            [
                "run",
                "--papers",
                str(corpus_dir),
                "--mentorships",
                str(corpus_dir / "mentorships.jsonl"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "min_papers=abc",
            "gamma=none",
            "gamma=-1",
            "citation_window=-1",
            "n_bins=0",
            "top_fraction=1.5",
        ],
    )
    def test_unparsable_config_value_exits_two(self, corpus_dir, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = main(["run", *corpus_args(corpus_dir), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"config key {line.split('=')[0]!r}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_config_file_keys_of_other_commands_are_skipped(self, corpus_dir, pair_run, tmp_path):
        # n_bins=0 is out of bounds, but neither `pair` nor `ingest` reads it.
        cfg = tmp_path / "cohort.cfg"
        cfg.write_text("n_bins=0\n")
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "pair"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(pair_args(corpus_dir, mentor, mentee, out, "--config", str(cfg))) == 0
        ref_dir = pair_run[0]
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ref_dir.iterdir())
        for path in out.iterdir():
            assert path.read_bytes() == (ref_dir / path.name).read_bytes()

        plain, configured = tmp_path / "ing", tmp_path / "ing_cfg"
        assert main(["ingest", *corpus_args(corpus_dir), "--out", str(plain)]) == 0
        flags = ["--out", str(configured), "--config", str(cfg)]
        assert main(["ingest", *corpus_args(corpus_dir), *flags]) == 0
        report = "ingest_report.csv"
        assert (configured / report).read_bytes() == (plain / report).read_bytes()

    @pytest.mark.parametrize("command", ["ingest", "pair", "run"])
    def test_unknown_config_key_exits_two(self, corpus_dir, tmp_path, capsys, command):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("bogus=1\n")
        args = [command, *corpus_args(corpus_dir), "--out", str(tmp_path / "out")]
        if command == "pair":
            args += ["--mentor", "m", "--mentee", "e"]
        assert main([*args, "--config", str(cfg)]) == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err


class TestSinglePairCommands:
    """`cocite pair` runs the per-pair chain once and writes every stage's files."""

    def test_pairs_writes_nodes_and_edges(self, pair_run):
        out, _ = pair_run
        nodes = (out / "nodes.csv").read_text().splitlines()
        edges = (out / "edges.csv").read_text().splitlines()
        assert nodes[0] == "paper_id,authorship"
        assert edges[0] == "u,v,n_sources,sources"
        assert len(nodes) > 1 and len(edges) > 1

    def test_detect_writes_topics(self, pair_run):
        out, _ = pair_run
        header = (out / "topics.csv").read_text().splitlines()[0]
        assert header == "paper_id,topic_id,authorship"

    def test_impact_tables(self, pair_run):
        out, _ = pair_run
        impact = (out / "impact.csv").read_text().splitlines()
        topics = (out / "impact_topics.csv").read_text().splitlines()
        assert impact[0] == "topic_id,paper_id,authorship,w,s,contribution"
        assert topics[0] == "topic_id,P_j_size,C_e,C_r"

    def test_classify_matches_ground_truth(self, corpus_dir, tmp_path):
        truth = json.loads((corpus_dir / "ground_truth.json").read_text())["pairs"][0]
        out = tmp_path / "classify"
        assert main(pair_args(corpus_dir, truth["mentor_id"], truth["mentee_id"], out)) == 0
        assert (out / "topic_types.csv").read_text().startswith(
            "topic_id,topic_type,mentor_proportion\n"
        )
        row = (out / "strategy.csv").read_text().splitlines()[1].split(",")
        assert row[0] == truth["strategy"]
        assert int(row[1]) == truth["n_shared"]
        assert int(row[2]) == truth["n_new"]

    def test_distance_and_career(self, pair_run):
        out, _ = pair_run
        distance = (out / "distance.csv").read_text().splitlines()
        assert distance[0] == "ave_distance,n_pairs,n_disconnected,max_finite_distance,substituted"
        career = (out / "career.csv").read_text().splitlines()
        assert career[0] == "role,career_year,yearly,cumulative"
        roles = {line.split(",")[0] for line in career[1:]}
        assert roles == {"mentee", "mentor"}

    def test_summary_lines_in_stage_order(self, pair_run):
        _, stdout = pair_run
        heads = [line.split(":")[0] for line in stdout.splitlines()]
        assert heads == [
            "nodes",
            "topics",
            "modularity_q",
            "strategy",
            "C_e_total",
            "C_r_total",
            "ave_distance",
            "mentee total",
            "mentor total",
        ]

    def test_one_chain_gives_both_outputs(self, corpus_dir, pair_run, tmp_path):
        out, _ = pair_run
        mentor, mentee = first_pair(corpus_dir)
        run_out = tmp_path / "run"
        assert main(["run", *corpus_args(corpus_dir), "--out", str(run_out)]) == 0
        header, *rows = read_rows(run_out / "profiles.csv")
        profile = next(
            dict(zip(header, row)) for row in rows
            if (row[header.index("mentor_id")], row[header.index("mentee_id")]) == (mentor, mentee)
        )

        strategy_header, strategy = read_rows(out / "strategy.csv")
        assert strategy_header == ["strategy", "n_shared", "n_new", "R"]
        assert strategy == [profile[c] for c in strategy_header]
        distance = dict(zip(*read_rows(out / "distance.csv")))
        assert distance["ave_distance"] == profile["ave_distance"]
        assert distance["n_pairs"] == profile["n_distance_pairs"]
        assert distance["n_disconnected"] == profile["n_disconnected"]

        _, *series = read_rows(run_out / "pair_series.csv")
        _, *career = read_rows(out / "career.csv")
        assert career == [row[2:] for row in series if row[:2] == [mentor, mentee]]

        # The side totals fsum the per-paper contributions, so those reproduce
        # them bit for bit; each per-topic C_e and C_r is rounded once more.
        c_e, c_r = float(profile["C_e_total"]), float(profile["C_r_total"])
        _, *impact = read_rows(out / "impact.csv")
        mentee_side = [float(r[5]) for r in impact if r[2] in ("mentee", "joint")]
        mentor_side = [float(r[5]) for r in impact if r[2] in ("mentor", "joint")]
        assert (math.fsum(mentee_side), math.fsum(mentor_side)) == (c_e, c_r)
        _, *impact_topics = read_rows(out / "impact_topics.csv")
        assert math.fsum(float(r[2]) for r in impact_topics) == pytest.approx(c_e, rel=1e-12)
        assert math.fsum(float(r[3]) for r in impact_topics) == pytest.approx(c_r, rel=1e-12)

    def test_failed_stage_exits_two_and_keeps_earlier_files(self, corpus_dir, tmp_path, capsys):
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "fail"
        code = main(pair_args(corpus_dir, mentor, mentee, out, "--min-community-size", "10000"))
        assert code == 2
        assert "stage detect" in capsys.readouterr().err
        for name in ("nodes.csv", "edges.csv", "topics.csv"):
            assert (out / name).is_file()
        for name in ("strategy.csv", "impact.csv", "career.csv"):
            assert not (out / name).exists()

    def test_no_finite_paths_fails_at_distance(self, corpus_dir, tmp_path, capsys, monkeypatch):
        def no_paths(graph, include_joint_self_pairs=True):
            raise NoFinitePaths("disconnected pairs with no finite distance to substitute")

        monkeypatch.setattr(profiles, "average_distance", no_paths)
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "nopaths"
        assert main(pair_args(corpus_dir, mentor, mentee, out)) == 2
        captured = capsys.readouterr()
        assert "error: stage distance: NoFinitePaths: " in captured.err
        assert "ave_distance" not in captured.out
        earlier = ("nodes", "edges", "topics", "topic_types", "strategy", "impact", "impact_topics")
        for name in earlier:
            assert (out / f"{name}.csv").is_file()
        for name in ("distance.csv", "career.csv"):
            assert not (out / name).exists()

    def test_help_lists_every_pair_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cls in (IngestConfig, PairParams):
            for f in dc_fields(cls):
                assert _OFF_FLAGS.get(f.name, "--" + f.name.replace("_", "-")) in text

    def test_cohort_flag_is_an_error(self, corpus_dir, tmp_path):
        mentor, mentee = first_pair(corpus_dir)
        with pytest.raises(SystemExit) as exc:
            main(pair_args(corpus_dir, mentor, mentee, tmp_path / "o", "--n-bins", "5"))
        assert exc.value.code == 2


class TestRunCommand:
    def test_cold_runs_are_byte_identical(self, corpus_dir, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert main(["run", *corpus_args(corpus_dir), "--out", str(out)]) == 0
        m1 = (out1 / "manifest.json").read_bytes()
        m2 = (out2 / "manifest.json").read_bytes()
        assert m1 == m2
        for name in json.loads(m1)["files"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_warm_rerun_is_cache_complete(self, corpus_dir, tmp_path):
        out = tmp_path / "warm"
        assert main(["run", *corpus_args(corpus_dir), "--out", str(out)]) == 0
        cold_stats = json.loads((out / "run_stats.json").read_text())
        assert cold_stats["cache_hits"] == 0
        manifest_before = (out / "manifest.json").read_bytes()

        assert main(["run", *corpus_args(corpus_dir), "--out", str(out)]) == 0
        warm_stats = json.loads((out / "run_stats.json").read_text())
        assert warm_stats["cache_misses"] == 0
        assert warm_stats["cache_hits"] == cold_stats["cache_misses"]
        assert (out / "manifest.json").read_bytes() == manifest_before

    def test_profiles_csv_is_sorted(self, corpus_dir, tmp_path):
        out = tmp_path / "sorted"
        assert main(["run", *corpus_args(corpus_dir), "--out", str(out)]) == 0
        lines = (out / "profiles.csv").read_text().splitlines()
        header = lines[0].split(",")
        i_field = header.index("field")
        i_mentor = header.index("mentor_id")
        i_mentee = header.index("mentee_id")
        keys = [
            (row.split(",")[i_field], row.split(",")[i_mentor], row.split(",")[i_mentee])
            for row in lines[1:]
        ]
        assert keys == sorted(keys)

    def test_failure_reasons_with_commas_stay_one_field(self, corpus_dir, tmp_path):
        # No topic survives, so every pair fails with a reason holding a comma.
        out = tmp_path / "fail"
        flags = ["--out", str(out), "--min-community-size", "10000"]
        assert main(["run", *corpus_args(corpus_dir), *flags]) == 0
        with (out / "failures.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["mentor_id", "mentee_id", "stage", "reason"]
        assert len(rows) == 4
        for mentor, mentee, stage, reason in rows:
            assert (stage, reason) == ("detect", f"pair ({mentor}, {mentee}) kept no topics")

    def test_ingest_command(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "ing"
        assert main(["ingest", *corpus_args(corpus_dir), "--out", str(out)]) == 0
        assert "mentorships kept: 4" in capsys.readouterr().out
        report = (out / "ingest_report.csv").read_text().splitlines()
        assert report[0] == "stage,reason,count"


class TestSynthCommand:
    @pytest.mark.parametrize(
        "flags,config",
        [
            ([], SynthConfig()),
            (
                ["--p-in", "0.5", "--p-out", "0.1", "--fields", "x,y"],
                SynthConfig(p_in=0.5, p_out=0.1, fields=("x", "y")),
            ),
            (["--pairs", "5", "--seed", "7"], SynthConfig(n_pairs=5, seed=7)),
        ],
    )
    def test_flags_give_the_config_corpus(self, tmp_path, flags, config):
        assert main(["synth", "--out", str(tmp_path / "cli"), *flags]) == 0
        write_corpus(synthesize_corpus(config), tmp_path / "api")
        for name in ("papers.jsonl", "mentorships.jsonl", "ground_truth.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--pairs", "0"],
            ["--p-in", "1.5"],
            ["--p-out", "-0.1"],
            ["--p-in", "nan"],
            ["--fields", ","],
            ["--fields", "a,,b"],
        ],
    )
    def test_bad_values_exit_2_and_write_nothing(self, tmp_path, flags):
        # A bound is checked after parsing (return 2), an empty field name
        # while parsing (argparse exits 2).
        try:
            code = main(["synth", "--out", str(tmp_path / "out"), *flags])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not (tmp_path / "out").exists()
