"""Acceptance gate: one test per release criterion.

Each test prints exactly one ``ACCEPTANCE <n>: PASS|FAIL`` line on the real
terminal (bypassing capture) and fails loudly on any violation. Criteria
with a runtime budget assert wall time too. Random seeds are frozen; the
margins were verified far wider than the thresholds before freezing.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from cocite.cli import main
from cocite.community import TopicAssignment, louvain, modularity
from cocite.corpus import CitationIndex, ingest_corpus
from cocite.distance import average_distance
from cocite.errors import NoFinitePaths
from cocite.impact import allocate_impact
from cocite.pairgraph import Authorship
from cocite.pipeline import PipelineConfig, build_profiles, corpus_digest
from cocite.stats import ccdf, equal_count_bins, fit_model_ladder, fit_quadratic, quadrant_counts, ternary_shares
from cocite.synth import planted_regression_cohort
from cocite.topics import Strategy, classify_strategy, classify_topics

from helpers import (
    graph_from_edges,
    naive_modularity,
    nmi,
    numbered_assignment,
    oracle_average_distance,
    oracle_impact,
    pair_graph,
    planted_partition_pair_graph,
    random_pair_corpus,
    random_pair_graph,
)

E = Authorship.MENTEE
R = Authorship.MENTOR


@contextmanager
def verdict(capsys, n: int):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS")


def random_weighted_graph(seed: int, max_nodes: int = 60):
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    nodes = list(range(n))
    adj = {u: {} for u in nodes}
    p = rng.uniform(0.02, 0.25)
    for i in range(n):
        for j in range(i, n):
            if rng.random() < p:
                w = float(rng.randint(1, 5))
                adj[i][j] = w
                if i != j:
                    adj[j][i] = w
    partition = {u: rng.randrange(1 + n // 4 or 1) for u in nodes}
    return adj, partition


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    """Shared 24-pair synthetic corpus plus two cold runs and a warm rerun."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--pairs", "24", "--seed", "0"]) == 0
    args = [
        "--papers",
        str(corpus / "papers.jsonl"),
        "--mentorships",
        str(corpus / "mentorships.jsonl"),
    ]
    assert main(["run", *args, "--out", str(root / "r1")]) == 0
    cold_stats = json.loads((root / "r1" / "run_stats.json").read_text())
    assert main(["run", *args, "--out", str(root / "r2")]) == 0
    assert main(["run", *args, "--out", str(root / "r1")]) == 0
    warm_stats = json.loads((root / "r1" / "run_stats.json").read_text())
    return root, corpus, cold_stats, warm_stats


def test_criterion_1_modularity_matches_naive_oracle(capsys):
    with verdict(capsys, 1):
        t0 = time.monotonic()
        for seed in range(200):
            adj, partition = random_weighted_graph(seed)
            gamma = (0.5, 1.0, 1.7)[seed % 3]
            q = modularity(adj, partition, gamma=gamma)
            q_ref = naive_modularity(adj, partition, gamma=gamma)
            assert abs(q - q_ref) <= 1e-12
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_planted_blocks_recovered(capsys):
    with verdict(capsys, 2):
        t0 = time.monotonic()
        recovered = 0
        for seed in range(100):
            graph, block_of = planted_partition_pair_graph(
                seed, n_blocks=4, block_size=15, p_in=0.9, p_out=0.02
            )
            adj = graph.as_weighted()
            detected = louvain(adj, seed=seed)
            if nmi(detected, block_of) >= 0.9:
                recovered += 1
            q_detected = modularity(adj, detected)
            q_singletons = modularity(adj, {n: i for i, n in enumerate(sorted(adj))})
            q_one = modularity(adj, {n: 0 for n in adj})
            assert q_detected >= q_singletons
            assert q_detected >= q_one
        assert recovered >= 95
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_impact_allocation_matches_oracle_exactly(capsys):
    with verdict(capsys, 3):
        t0 = time.monotonic()
        for seed in range(100):
            records, mentor, mentee, assignment = random_pair_corpus(seed)
            index = CitationIndex(records)
            graph = pair_graph(mentor, mentee, index)
            alloc = allocate_impact(graph, numbered_assignment(assignment, index), index)
            labels = {index.paper_ids[n]: label for n, label in graph.labels.items()}
            oracle = oracle_impact(records, labels, assignment.topics)
            assert set(alloc.topics) == set(oracle.topics)
            for j, topic in alloc.topics.items():
                assert {index.paper_ids[c] for c in topic.pool} == oracle.topics[j].pool
                assert {index.paper_ids[r.paper]: r.w for r in topic.rows} == oracle.topics[j].w
                assert topic.c_mentee == oracle.topics[j].c_mentee
                assert topic.c_mentor == oracle.topics[j].c_mentor
            assert alloc.mentee_total == oracle.mentee_total
            assert alloc.mentor_total == oracle.mentor_total
        assert time.monotonic() - t0 < 10.0


def test_criterion_4_strategy_fixtures_exact(capsys):
    def typed(topic_labels):
        labels, topics, n = {}, {}, 0
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
        return classify_strategy(classify_topics(graph, assignment))

    with verdict(capsys, 4):
        follow = typed({0: [E, R], 1: [E, R, R]})
        assert follow.strategy is Strategy.PURE_FOLLOW
        assert follow.new_topic_ratio == 0.0

        mixed = typed({0: [E, R], 1: [E, R], 2: [E, R, R], 3: [E]})
        assert mixed.strategy is Strategy.FOLLOW_AND_INNOVATE
        assert mixed.new_topic_ratio == 0.25

        innovate = typed({0: [E], 1: [E, E], 2: [R]})
        assert innovate.strategy is Strategy.PURE_INNOVATE
        assert innovate.new_topic_ratio == 1.0


def test_criterion_5_distance_matches_apsp_oracle(capsys):
    with verdict(capsys, 5):
        res = average_distance(graph_from_edges({"e": E, "r": R}, [("e", "r")]))
        assert res.ave_distance == 1.0
        with pytest.raises(NoFinitePaths):
            average_distance(graph_from_edges({"e": E, "r": R}, []))

        for seed in range(100):
            graph = random_pair_graph(seed, max_nodes=50)
            for include in (True, False):
                expected = oracle_average_distance(graph, include_joint_self_pairs=include)
                if expected is None:
                    with pytest.raises(NoFinitePaths):
                        average_distance(graph, include_joint_self_pairs=include)
                    continue
                res = average_distance(graph, include_joint_self_pairs=include)
                assert res.ave_distance == expected[0]
                assert res.n_pairs == expected[1]
                assert res.n_disconnected == expected[2]


def test_criterion_6_regression_recovers_planted_model(capsys):
    with verdict(capsys, 6):
        t0 = time.monotonic()
        table, truth = planted_regression_cohort(seed=42, n=2000)
        ladder = fit_model_ladder(table)
        r2 = [res.r2 for _, res in ladder]
        assert all(a <= b + 1e-12 for a, b in zip(r2, r2[1:]))
        full = dict(ladder)["m6_full"]
        for name in full.names:
            beta, se, _, _ = full.coef(name)
            assert abs(beta - truth[name]) < 3 * se
        beta_d2, _, _, p_d2 = full.coef("ave_distance_sq")
        assert beta_d2 < 0
        assert p_d2 < 0.001
        assert time.monotonic() - t0 < 20.0


def test_criterion_7_curve_peak_and_bins(capsys):
    with verdict(capsys, 7):
        table, truth = planted_regression_cohort(seed=42, n=2000)
        fit = fit_quadratic(table["ave_distance"], table["mentee_total_impact"])
        assert fit.inverted_u
        assert abs(fit.peak_x - truth["peak"]) <= 0.2
        curve = equal_count_bins(
            table["ave_distance"], table["mentee_total_impact"], n_bins=20
        )
        assert sum(curve.counts) == 2000
        assert all(a <= b for a, b in zip(curve.mean_x, curve.mean_x[1:]))


def test_criterion_8_pipeline_is_deterministic_and_cached(capsys, cli_bundle):
    with verdict(capsys, 8):
        root, _, cold_stats, warm_stats = cli_bundle
        m1 = (root / "r1" / "manifest.json").read_bytes()
        m2 = (root / "r2" / "manifest.json").read_bytes()
        assert m1 == m2
        manifest = json.loads(m1)
        assert manifest["n_profiles"] == 24
        for name in manifest["files"]:
            assert (root / "r1" / name).read_bytes() == (root / "r2" / name).read_bytes()
        assert cold_stats["cache_hits"] == 0
        assert cold_stats["cache_misses"] == 24
        assert warm_stats["cache_hits"] == 24
        assert warm_stats["cache_misses"] == 0


def test_criterion_9_cohort_conservation(capsys, cli_bundle, tmp_path):
    with verdict(capsys, 9):
        _, corpus, _, _ = cli_bundle
        config = PipelineConfig(
            papers=str(corpus / "papers.jsonl"),
            mentorships=str(corpus / "mentorships.jsonl"),
        )
        result = ingest_corpus(config.papers, config.mentorships, config.ingest_config())
        digest = corpus_digest(config.papers, config.mentorships)
        stage = build_profiles(result.index, result.mentorships, config, digest, tmp_path / "cache")
        assert stage.profiles and not stage.failures

        for p in stage.profiles:
            # Career series land exactly on the allocated totals.
            assert p.mentee_series.cumulative[-1] == p.mentee_total_impact
            assert p.mentor_series.cumulative[-1] == p.mentor_total_impact
            if not p.zero_impact:
                shares = ternary_shares(p.mentee_impact_by_type)
                assert abs(math.fsum(shares) - 1.0) <= 1e-12

        totals = [p.mentee_total_impact for p in stage.profiles]
        _, probs = ccdf(totals)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 0.0

        from cocite.topics import TopicType

        deltas = [
            (
                p.mentee_impact_by_type[TopicType.PRIMARY]
                - p.mentor_impact_by_type[TopicType.PRIMARY],
                p.mentee_impact_by_type[TopicType.SECONDARY]
                - p.mentor_impact_by_type[TopicType.SECONDARY],
            )
            for p in stage.profiles
        ]
        counts = quadrant_counts(deltas)
        assert sum(counts.values()) == len(stage.profiles)
