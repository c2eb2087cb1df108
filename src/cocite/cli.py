"""Command-line interface.

`ingest` validates and filters a corpus, `pair` runs the per-pair chain for
one mentor-mentee pair and writes each stage's files, `run` runs the whole
pipeline over the cohort, and `synth` writes a synthetic corpus with its
ground truth. Options come from defaults, then an optional key=value
--config file, then explicit flags, in that order.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import astuple, fields as dc_fields
from pathlib import Path
from typing import Any

from . import __version__
from .corpus import IngestConfig, MentorshipRecord, ingest_corpus
from .distance import DistanceResult
from .errors import CociteError, InvalidConfig
from .pairgraph import PairGraph, edge_sources
from .pipeline import (
    CAREER_COLUMNS,
    SETTING_TYPES,
    PipelineConfig,
    apply_config_values,
    career_rows,
    check_config,
    load_config_file,
    parse_setting,
    run_pipeline,
    write_csv,
    write_ingest_report,
)
from .profiles import PairParams, build_pair_profile
from .synth import SynthConfig, synthesize_corpus, write_corpus


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--papers", required=True, help="papers JSONL path")
    p.add_argument("--mentorships", required=True, help="mentorships JSONL path")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")


# The flags that turn a default-true setting off; every other boolean flag
# turns its setting on.
_OFF_FLAGS = {
    "include_joint_self_pairs": "--exclude-joint-self-pairs",
    "regression_30y": "--no-regression-30y",
}


# The config dataclasses whose settings each command takes, as flags and as
# config-file keys.
_COMMAND_SETTINGS = {
    "ingest": (IngestConfig,),
    "pair": (IngestConfig, PairParams),
    "run": (PipelineConfig,),
}


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    """One flag per setting `command` takes: `--` and the field name with
    `_` as `-`, stored under the field name and parsed as in a config file.
    A flag left out sets nothing, so the file's value stands."""
    for cls in _COMMAND_SETTINGS[command]:
        for f in dc_fields(cls):
            if f.name in ("papers", "mentorships", "out"):  # _add_corpus_flags
                continue
            flag = "--" + f.name.replace("_", "-")
            if SETTING_TYPES[f.name] is bool:
                flag = _OFF_FLAGS[f.name] if f.default else flag
                kind = {"action": "store_const", "const": not f.default}
            else:
                kind = {"type": functools.partial(parse_setting, f.name)}
                kind["type"].__name__ = f.name  # argparse names it in errors
            p.add_argument(flag, dest=f.name, default=argparse.SUPPRESS, **kind)


def _field_names(raw: str) -> tuple[str, ...]:
    """The comma-separated field names of `synth --fields`, none empty."""
    names = tuple(raw.split(","))
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty field name in {raw!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocite",
        description="Mentor-mentee co-citation topic analytics.",
    )
    parser.add_argument("--version", action="version", version=f"cocite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate and filter a corpus")
    _add_corpus_flags(p_ingest)
    _add_config_flags(p_ingest, "ingest")

    p_pair = sub.add_parser(
        "pair", help="per-pair chain for one pair, writing each stage's files"
    )
    _add_corpus_flags(p_pair)
    _add_config_flags(p_pair, "pair")
    p_pair.add_argument("--mentor", required=True)
    p_pair.add_argument("--mentee", required=True)

    p_run = sub.add_parser("run", help="full pipeline: ingest, pairs, cohort stats, manifest")
    _add_corpus_flags(p_run)
    _add_config_flags(p_run, "run")

    # Each synth flag is stored under its SynthConfig field, and a flag left
    # out sets nothing, so the default is the field's.
    p_synth = sub.add_parser(
        "synth",
        help="write a synthetic corpus with ground truth",
        argument_default=argparse.SUPPRESS,
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--pairs", type=int, dest="n_pairs")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--p-in", type=float)
    p_synth.add_argument("--p-out", type=float)
    p_synth.add_argument("--fields", type=_field_names)
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then the --config file, then the flags given. A file key
    naming a setting the command does not take is skipped unparsed."""
    config = PipelineConfig()
    if args.config:
        taken = {f.name for cls in _COMMAND_SETTINGS[args.command] for f in dc_fields(cls)}
        values = load_config_file(args.config).items()
        apply_config_values(
            config, {k: v for k, v in values if k in taken or k not in SETTING_TYPES}
        )
    for name, value in vars(args).items():
        if name in SETTING_TYPES:
            setattr(config, name, value)
    return config


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ingest_report(out / "ingest_report.csv", result.report)
    print(f"papers indexed: {result.index.n_papers}")
    print(f"mentorships kept: {len(result.mentorships)}")
    print(f"report: {out / 'ingest_report.csv'}")
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    if args.mentor == args.mentee:
        raise InvalidConfig(f"--mentor and --mentee are both {args.mentor!r}")
    config = config_from_args(args)
    index = ingest_corpus(config.papers, config.mentorships, config.ingest_config()).index
    # No pair file shows the record's field or start year, so the pair need
    # not be an eligible mentorship.
    mentorship = MentorshipRecord(args.mentor, args.mentee, None, config.field or "")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph: PairGraph | None = None
    paper_id = index.paper_ids.__getitem__

    def write_stage(stage: str, result: Any) -> None:
        """Write one stage's files and print its summary lines."""
        nonlocal graph
        if stage == "pairs":
            graph = result
            write_csv(
                out / "nodes.csv",
                ["paper_id", "authorship"],
                [(paper_id(n), graph.labels[n].value) for n in graph.nodes],
            )
            sources = edge_sources(graph, index, config.exclude_self_cocitation)
            write_csv(
                out / "edges.csv",
                ["u", "v", "n_sources", "sources"],
                [
                    (paper_id(u), paper_id(v), len(srcs), ";".join(map(paper_id, srcs)))
                    for (u, v), srcs in sources.items()
                ],
            )
            print(f"nodes: {graph.n_nodes}  edges: {graph.n_edges}")
        elif stage == "detect":
            write_csv(
                out / "topics.csv",
                ["paper_id", "topic_id", "authorship"],
                [(paper_id(n), result.topic_of[n], graph.labels[n].value) for n in graph.nodes],
            )
            print(f"topics: {result.n_topics}  unassigned: {result.n_unassigned}")
            print(f"modularity_q: {result.modularity_q!r}")
        elif stage == "classify":
            typing, record = result
            write_csv(
                out / "topic_types.csv",
                ["topic_id", "topic_type", "mentor_proportion"],
                [
                    (j, typing.type_of[j].value, typing.proportions.get(j))
                    for j in sorted(typing.type_of)
                ],
            )
            write_csv(
                out / "strategy.csv",
                ["strategy", "n_shared", "n_new", "R"],
                [(record.strategy.value, record.n_shared, record.n_new, record.new_topic_ratio)],
            )
            print(f"strategy: {record.strategy.value}  R: {record.new_topic_ratio!r}")
        elif stage == "impact":
            topics = result.topics.values()
            write_csv(
                out / "impact.csv",
                ["topic_id", "paper_id", "authorship", "w", "s", "contribution"],
                [
                    (t.topic_id, paper_id(r.paper), r.authorship.value, r.w, r.author_count, r.contribution)
                    for t in topics
                    for r in t.rows
                ],
            )
            write_csv(
                out / "impact_topics.csv",
                ["topic_id", "P_j_size", "C_e", "C_r"],
                [(t.topic_id, t.p_j_size, t.c_mentee, t.c_mentor) for t in topics],
            )
            print(f"C_e_total: {result.mentee_total!r}")
            print(f"C_r_total: {result.mentor_total!r}")
        else:
            write_csv(
                out / "distance.csv", [f.name for f in dc_fields(DistanceResult)], [astuple(result)]
            )
            print(f"ave_distance: {result.ave_distance!r}")

    try:
        profile = build_pair_profile(mentorship, index, config.pair_params(), on_stage=write_stage)
    except CociteError as exc:
        print(f"error: stage {exc.stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    write_csv(out / "career.csv", CAREER_COLUMNS, career_rows(profile))
    print(f"mentee total: {profile.mentee_total_impact!r}")
    print(f"mentor total: {profile.mentor_total_impact!r}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    result = run_pipeline(config)
    print(f"profiles: {result.n_profiles}  failures: {result.n_failures}")
    print(f"cache hits: {result.cache_hits}  misses: {result.cache_misses}")
    print(f"manifest: {result.manifest_path}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    config = SynthConfig(**given)
    check_config(config)
    corpus = synthesize_corpus(config)
    papers_path, mentorships_path, truth_path = write_corpus(corpus, args.out)
    print(f"papers: {papers_path}")
    print(f"mentorships: {mentorships_path}")
    print(f"ground truth: {truth_path}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "pair": _cmd_pair,
    "run": _cmd_run,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CociteError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
