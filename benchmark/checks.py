"""Output checks for the benchmark, computed apart from the program.

Nothing here compares against a stored copy of earlier output. Every value
is recomputed from the corpus JSONL or from the planted ground truth:

- sparse corpora (`cocite synth`): each profile matches `ground_truth.json`;
- dense corpora (`dense.py`): pair graph sizes come from a forward scan of
  every reference list, `ave_distance` from scipy's all-pairs shortest paths
  summed as integers, and impact on a sample of pairs from an exact-fraction
  forward-scan oracle;
- every corpus: career series end on the impact totals, ternary rows sum to
  one, quadrant counts sum to the number of profiles, the CCDF falls to 0.

`check_run` returns the pairs that failed and the cohort-level errors.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

# Ingest defaults of `cocite run`, which the benchmark never overrides.
YEAR_MIN, YEAR_MAX = 1960, 2021
N_BINS = 20
IMPACT_SAMPLE = 3

Pair = tuple[str, str]


@dataclass
class CheckResult:
    failed: dict[Pair, list[str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    # (pair, reported, planted modularity) where Louvain stopped below the
    # planted partition; see check_truth.
    below_plant: list[tuple[Pair, float, float]] = field(default_factory=list)

    @property
    def left_out(self) -> set[Pair]:
        """Pairs the benchmark leaves out of its counts: below the plant
        within the allowance, and correct on every oracle."""
        return {pair for pair, _, _ in self.below_plant} - self.failed.keys()

    def fail(self, pair: Pair, why: str) -> None:
        self.failed.setdefault(pair, []).append(why)

    def summary(self, limit: int = 5) -> list[str]:
        lines = [f"{m}/{e}: {'; '.join(w)}" for (m, e), w in sorted(self.failed.items())]
        return (self.errors + lines)[:limit]


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_pairs(mentorships: Path) -> list[Pair]:
    with open(mentorships, encoding="utf-8") as fh:
        return [(r["mentor_id"], r["mentee_id"]) for r in map(json.loads, fh)]


def _truthy(text: str) -> bool:
    return text == "true"


# ---------------------------------------------------------------------------
# corpus-independent conservation


def check_conservation(out: Path, rows: dict[Pair, dict], res: CheckResult) -> None:
    last: dict[tuple[str, str, str], tuple[int, float]] = {}
    for r in read_csv(out / "pair_series.csv"):
        key = (r["mentor_id"], r["mentee_id"], r["role"])
        year = int(r["career_year"])
        if key not in last or year > last[key][0]:
            last[key] = (year, float(r["cumulative"]))
    for pair, row in rows.items():
        for role, col in (("mentee", "C_e_total"), ("mentor", "C_r_total")):
            end = last.get((*pair, role))
            if end is None or end[1] != float(row[col]):
                res.fail(pair, f"{role} series ends at {end and end[1]}, {col} is {row[col]}")

    for r in read_csv(out / "ternary.csv"):
        pair = (r["mentor_id"], r["mentee_id"])
        total = math.fsum(float(r[c]) for c in ("share_primary", "share_secondary", "share_new"))
        if abs(total - 1.0) > 1e-12:
            res.fail(pair, f"ternary shares sum to {total!r}")

    quadrants = sum(int(r["count"]) for r in read_csv(out / "quadrants.csv"))
    if quadrants != len(rows):
        res.errors.append(f"quadrant counts sum to {quadrants}, {len(rows)} profiles")

    by_dist: dict[str, list[tuple[float, float]]] = {}
    for r in read_csv(out / "ccdf.csv"):
        by_dist.setdefault(r["distribution"], []).append((float(r["x"]), float(r["p_greater"])))
    for name in ("C_e_total", "C_r_total"):
        pts = by_dist.get(name, [])
        xs = [x for x, _ in pts]
        ps = [p for _, p in pts]
        if not pts or ps[-1] != 0.0 or any(a < b for a, b in zip(ps, ps[1:])) or xs != sorted(set(xs)):
            res.errors.append(f"ccdf of {name} is not a non-increasing curve ending at 0")

    cohort = sum(
        1
        for r in rows.values()
        if _truthy(r["career_30y_mte"]) and _truthy(r["pre_1990_mte"]) and math.isfinite(float(r["ave_distance"]))
    )
    bins = read_csv(out / "curve.csv")
    if len(bins) != N_BINS or sum(int(b["count"]) for b in bins) != cohort:
        res.errors.append(f"curve.csv has {len(bins)} bins over {cohort} cohort pairs")
    if not read_csv(out / "regression.csv"):
        res.errors.append("regression.csv is empty")


# ---------------------------------------------------------------------------
# sparse corpora: planted ground truth


# Fields that follow from the detected topics, then fields that do not.
TOPIC_FIELDS = (
    ("strategy", "strategy", str),
    ("n_topics", "n_topics", int),
    ("R", "new_topic_ratio", float),
    ("C_e_total", "mentee_total", float),
    ("C_r_total", "mentor_total", float),
)
AUTHOR_FIELDS = (
    ("colla_work_count", "colla_work_count", int),
    ("common_collaborators_count", "common_collaborators_count", int),
    ("career_len_mte", "mentee_career_len", int),
    ("career_len_mto", "mentor_career_len", int),
)


def modularity(edges: set[tuple[str, str]], community: dict[str, object]) -> float:
    """Newman modularity (resolution 1) of an unweighted graph."""
    m = len(edges)
    inside: dict[object, int] = {}
    degree: dict[object, int] = {}
    for u, v in edges:
        cu, cv = community[u], community[v]
        degree[cu] = degree.get(cu, 0) + 1
        degree[cv] = degree.get(cv, 0) + 1
        if cu == cv:
            inside[cu] = inside.get(cu, 0) + 1
    return math.fsum(inside.get(c, 0) / m - (d / (2 * m)) ** 2 for c, d in degree.items())


# Louvain stops below the planted partition on about one pair in 200 on
# some seeds, a fault recorded in CHANGES.md. Up to this many such pairs
# are left out of a run's counts; more is a regression.
MAX_BELOW_PLANT = 1


def check_truth(corpus_dir: Path, rows: dict[Pair, dict], res: CheckResult) -> None:
    """Compare every profile with what `cocite synth` planted.

    A pair whose topic-dependent fields miss the plant is judged by the
    modularity of its reported partition against the plant's:

    - equal: the pair fails, since the program found a different partition
      that is no better;
    - higher: the plant is not the optimum, so the fields cannot be
      compared with it; graph, distance and impact are checked by the
      oracles used for dense corpora, and the pair counts as usual;
    - lower: the known Louvain fault. Up to MAX_BELOW_PLANT such pairs are
      checked by the oracles and, if those pass, left out of the counts
      (`CheckResult.left_out`); beyond that every one of them fails and the
      run is incorrect.
    """
    truths = json.loads((corpus_dir / "ground_truth.json").read_text(encoding="utf-8"))["pairs"]
    corpus = None
    for t in truths:
        pair = (t["mentor_id"], t["mentee_id"])
        row = rows.get(pair)
        if row is None:
            continue
        for col, key, kind in AUTHOR_FIELDS:
            if kind(row[col]) != t[key]:
                res.fail(pair, f"{col} {row[col]} != planted {t[key]!r}")
        wrong = [f"{col} {row[col]} != planted {t[key]!r}" for col, key, kind in TOPIC_FIELDS if kind(row[col]) != t[key]]
        if not wrong:
            continue
        corpus = corpus or load_corpus(corpus_dir / "papers.jsonl")
        nodes = corpus.papers_of[pair[0]] | corpus.papers_of[pair[1]]
        planted_q = modularity(pair_edges(corpus, nodes), t["topic_of"])
        reported_q = float(row["modularity_q"])
        if abs(reported_q - planted_q) <= 1e-9:
            for why in wrong:
                res.fail(pair, why)
            continue
        if reported_q < planted_q:
            res.below_plant.append((pair, reported_q, planted_q))
        check_pair(corpus, pair, row, res, impact=True)
    if len(res.below_plant) > MAX_BELOW_PLANT:
        res.errors.append(f"{len(res.below_plant)} pairs have topic modularity below the plant's, "
                          f"at most {MAX_BELOW_PLANT} allowed")
        for pair, reported_q, planted_q in res.below_plant:
            res.fail(pair, f"topic modularity {reported_q!r} below planted {planted_q!r}")


# ---------------------------------------------------------------------------
# dense corpora: brute-force graphs, all-pairs distances, impact oracle


@dataclass
class Corpus:
    refs: dict[str, frozenset[str]]
    n_authors: dict[str, int]
    papers_of: dict[str, set[str]]


def load_corpus(papers: Path) -> Corpus:
    refs: dict[str, frozenset[str]] = {}
    n_authors: dict[str, int] = {}
    papers_of: dict[str, set[str]] = {}
    with open(papers, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not YEAR_MIN <= rec["pub_year"] <= YEAR_MAX:
                continue
            pid = rec["paper_id"]
            refs[pid] = frozenset(rec["reference_ids"]) - {pid}
            authors = set(rec["author_ids"])
            n_authors[pid] = len(authors)
            for a in authors:
                papers_of.setdefault(a, set()).add(pid)
    # Dangling references never count as co-cited papers.
    known = refs.keys()
    refs = {p: r & known for p, r in refs.items()}
    return Corpus(refs, n_authors, papers_of)


def pair_edges(corpus: Corpus, nodes: set[str]) -> set[tuple[str, str]]:
    """Co-citation edges among nodes by a forward scan of every paper."""
    edges: set[tuple[str, str]] = set()
    for cited in corpus.refs.values():
        common = cited & nodes
        if len(common) >= 2:
            ordered = sorted(common)
            for i, u in enumerate(ordered):
                for v in ordered[i + 1:]:
                    edges.add((u, v))
    return edges


def distance_oracle(nodes: list[str], edges, mentee: set[str], mentor: set[str]) -> tuple[int, int, int | None, int]:
    """(sum of finite distances, pair count, max finite distance, disconnected)."""
    pos = {n: i for i, n in enumerate(nodes)}
    rows = [pos[u] for u, _ in edges]
    cols = [pos[v] for _, v in edges]
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(nodes), len(nodes))).tocsr()
    dist = shortest_path(adj, directed=False, unweighted=True)
    off = ~np.eye(len(nodes), dtype=bool)
    finite_off = dist[np.isfinite(dist) & off]
    max_finite = int(finite_off.max()) if finite_off.size else None
    sub = dist[np.ix_([pos[e] for e in sorted(mentee)], [pos[r] for r in sorted(mentor)])]
    finite = np.isfinite(sub)
    return int(sub[finite].astype(np.int64).sum()), sub.size, max_finite, int((~finite).sum())


def impact_oracle(corpus: Corpus, topics, mentee: set[str], mentor: set[str]) -> tuple[list[Fraction], list[Fraction]]:
    """Per-paper shares w(p)/s(p) by forward scans, as exact fractions."""
    e_shares: list[Fraction] = []
    r_shares: list[Fraction] = []
    for members in topics.values():
        member_set = set(members)
        pool = [cited for cited in corpus.refs.values() if len(cited & member_set) >= 2]
        for p in members:
            share = Fraction(sum(1 for cited in pool if p in cited), corpus.n_authors[p])
            if p in mentee:
                e_shares.append(share)
            if p in mentor:
                r_shares.append(share)
    return e_shares, r_shares


def impact_sample(rows: dict[Pair, dict], seed: int) -> list[Pair]:
    return random.Random(seed).sample(sorted(rows), min(IMPACT_SAMPLE, len(rows)))


def check_dense(papers: Path, rows: dict[Pair, dict], res: CheckResult, sample_seed: int) -> None:
    corpus = load_corpus(papers)
    sample = set(impact_sample(rows, sample_seed))
    for pair, row in rows.items():
        check_pair(corpus, pair, row, res, impact=pair in sample)


def check_pair(corpus: Corpus, pair: Pair, row: dict, res: CheckResult, impact: bool) -> None:
    """Graph size, distance and, with impact set, impact totals of one pair."""
    from cocite.community import DetectionConfig, detect_topics
    from cocite.pairgraph import Authorship, PairGraph

    mentor_id, mentee_id = pair
    mentor = corpus.papers_of.get(mentor_id, set())
    mentee = corpus.papers_of.get(mentee_id, set())
    nodes = sorted(mentor | mentee)
    edges = pair_edges(corpus, set(nodes))
    if (int(row["n_nodes"]), int(row["n_edges"])) != (len(nodes), len(edges)):
        res.fail(pair, f"graph {row['n_nodes']}x{row['n_edges']} != {len(nodes)}x{len(edges)}")
        return

    total, n_pairs, max_finite, n_disc = distance_oracle(nodes, edges, mentee, mentor)
    if n_disc and max_finite is None:
        if row["distance_failed"] != "true":
            res.fail(pair, "distance has nothing to substitute but did not fail")
    elif (float(row["ave_distance"]), int(row["n_distance_pairs"]), int(row["n_disconnected"])) != (
        (total + n_disc * (max_finite or 0)) / n_pairs, n_pairs, n_disc
    ):
        res.fail(pair, f"ave_distance {row['ave_distance']} != oracle")

    if not impact:
        return
    # The partition is an input to the impact rule, so it comes from the
    # program's Louvain run on the graph rebuilt here.
    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    labels = {
        n: Authorship.JOINT if n in mentor and n in mentee else Authorship.MENTEE if n in mentee else Authorship.MENTOR
        for n in nodes
    }
    graph = PairGraph(
        mentor_id, mentee_id, tuple(nodes), labels,
        {n: tuple(sorted(s)) for n, s in adjacency.items()},
        {e: () for e in sorted(edges)},
    )
    detected = detect_topics(graph, DetectionConfig())
    topics = detected.topics
    if (len(topics), detected.modularity_q) != (int(row["n_topics"]), float(row["modularity_q"])):
        res.fail(pair, f"topics {row['n_topics']} at Q {row['modularity_q']} != {len(topics)} at {detected.modularity_q!r}")
        return
    e_shares, r_shares = impact_oracle(corpus, topics, mentee, mentor)
    for col, shares in (("C_e_total", e_shares), ("C_r_total", r_shares)):
        got = float(row[col])
        exact = sum(shares, Fraction(0))
        if got != math.fsum(float(s) for s in shares) or abs(Fraction(got) - exact) > exact * Fraction(1, 10**12):
            res.fail(pair, f"{col} {row[col]} != oracle {float(exact)!r}")


# ---------------------------------------------------------------------------
# one run


def check_run(out: Path, corpus_dir: Path, kind: str, sample_seed: int = 0) -> CheckResult:
    """Check one `cocite run` output directory against its corpus."""
    res = CheckResult()
    pairs = read_pairs(corpus_dir / "mentorships.jsonl")
    rows = {(r["mentor_id"], r["mentee_id"]): r for r in read_csv(out / "profiles.csv")}
    for pair in pairs:
        if pair not in rows:
            res.fail(pair, "missing from profiles.csv")
    for r in read_csv(out / "failures.csv"):
        res.fail((r["mentor_id"], r["mentee_id"]), f"failed in {r['stage']}: {r['reason']}")
    check_conservation(out, rows, res)
    if kind == "sparse":
        check_truth(corpus_dir, rows, res)
    else:
        check_dense(corpus_dir / "papers.jsonl", rows, res, sample_seed)
    return res
