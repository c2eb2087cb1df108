"""Command-line interface, end to end and in process."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cocite.cli import build_parser, config_from_args, main

SRC = Path(__file__).resolve().parents[1] / "src"


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
        code = main(
            [
                "pairs",
                *corpus_args(corpus_dir),
                "--mentor",
                "ghost",
                "--mentee",
                "ghost2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

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
        "line", ["min_papers=abc", "gamma=none", "n_bins=0", "top_fraction=1.5"]
    )
    def test_unparsable_config_value_exits_two(self, corpus_dir, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = main(["run", *corpus_args(corpus_dir), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"config key {line.split('=')[0]!r}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestSinglePairCommands:
    def test_pairs_writes_nodes_and_edges(self, corpus_dir, tmp_path):
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "pairs"
        code = main(
            [
                "pairs",
                *corpus_args(corpus_dir),
                "--mentor",
                mentor,
                "--mentee",
                mentee,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        nodes = (out / "nodes.csv").read_text().splitlines()
        edges = (out / "edges.csv").read_text().splitlines()
        assert nodes[0] == "paper_id,authorship"
        assert edges[0] == "u,v,n_sources,sources"
        assert len(nodes) > 1 and len(edges) > 1

    def test_detect_writes_topics(self, corpus_dir, tmp_path, capsys):
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "detect"
        code = main(
            [
                "detect",
                *corpus_args(corpus_dir),
                "--mentor",
                mentor,
                "--mentee",
                mentee,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "topics:" in capsys.readouterr().out
        header = (out / "topics.csv").read_text().splitlines()[0]
        assert header == "paper_id,topic_id,authorship"

    def test_detect_stops_on_extreme_gamma(self, corpus_dir, tmp_path):
        # gamma = -1e308 makes every Louvain gain inf - inf = NaN; a sweep
        # must still end. Run as a subprocess so a hang fails on the timeout.
        mentor, mentee = first_pair(corpus_dir)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cocite.cli",
                "detect",
                *corpus_args(corpus_dir),
                "--mentor",
                mentor,
                "--mentee",
                mentee,
                "--out",
                str(tmp_path / "detect"),
                "--gamma=-1e308",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "detect" / "topics.csv").is_file()

    def test_impact_tables(self, corpus_dir, tmp_path):
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "impact"
        code = main(
            [
                "impact",
                *corpus_args(corpus_dir),
                "--mentor",
                mentor,
                "--mentee",
                mentee,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        impact = (out / "impact.csv").read_text().splitlines()
        topics = (out / "impact_topics.csv").read_text().splitlines()
        assert impact[0] == "topic_id,paper_id,authorship,w,s,contribution"
        assert topics[0] == "topic_id,P_j_size,C_e,C_r"

    def test_classify_matches_ground_truth(self, corpus_dir, tmp_path):
        truth = json.loads((corpus_dir / "ground_truth.json").read_text())["pairs"][0]
        out = tmp_path / "classify"
        code = main(
            [
                "classify",
                *corpus_args(corpus_dir),
                "--mentor",
                truth["mentor_id"],
                "--mentee",
                truth["mentee_id"],
                "--out",
                str(out),
            ]
        )
        assert code == 0
        row = (out / "strategy.csv").read_text().splitlines()[1].split(",")
        assert row[0] == truth["strategy"]
        assert int(row[1]) == truth["n_shared"]
        assert int(row[2]) == truth["n_new"]

    def test_distance_and_career(self, corpus_dir, tmp_path):
        mentor, mentee = first_pair(corpus_dir)
        out = tmp_path / "dc"
        assert (
            main(
                [
                    "distance",
                    *corpus_args(corpus_dir),
                    "--mentor",
                    mentor,
                    "--mentee",
                    mentee,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "career",
                    *corpus_args(corpus_dir),
                    "--mentor",
                    mentor,
                    "--mentee",
                    mentee,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (out / "distance.csv").exists()
        career = (out / "career.csv").read_text().splitlines()
        assert career[0] == "role,career_year,yearly,cumulative"
        roles = {line.split(",")[0] for line in career[1:]}
        assert roles == {"mentee", "mentor"}


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
