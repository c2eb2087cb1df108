"""Synthetic corpora with planted ground truth.

Generators here exist so every derived quantity in the package can be
checked against values known by construction: planted topic memberships,
planted strategies and new-topic ratios, per-topic impact computed
independently during generation, planted covariates, and a regression
cohort with known coefficients. All generators are deterministic functions
of their seed and write byte-stable JSONL.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .corpus import MentorshipRecord, PaperRecord
from .profiles import encode
from .topics import Strategy

# ---------------------------------------------------------------------------
# full synthetic corpora with planted pairs


@dataclass
class SynthConfig:
    n_pairs: int = dc_field(default=8, metadata={"min": 1})
    seed: int = 0
    p_in: float = dc_field(default=0.9, metadata={"min": 0.0, "max": 1.0})
    p_out: float = dc_field(default=0.02, metadata={"min": 0.0, "max": 1.0})
    fields: tuple[str, ...] = ("fieldA", "fieldB")


@dataclass
class PairTruth:
    """Everything planted for one pair, known by construction."""

    mentor_id: str
    mentee_id: str
    field: str
    strategy: Strategy
    n_shared: int
    n_new: int
    new_topic_ratio: float
    n_topics: int
    topic_of: dict[str, int]
    mentor_primary_topics: tuple[int, ...]
    per_topic_mentee_impact: dict[int, float]
    per_topic_mentor_impact: dict[int, float]
    mentee_total: float
    mentor_total: float
    colla_work_count: int
    common_collaborators_count: int
    mentee_first_year: int
    mentee_career_len: int
    mentor_first_year: int
    mentor_career_len: int

    def to_dict(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}


@dataclass
class SynthCorpus:
    papers: list[PaperRecord]
    mentorships: list[MentorshipRecord]
    truths: dict[tuple[str, str], PairTruth]


_STRATEGY_CYCLE = (Strategy.PURE_FOLLOW, Strategy.FOLLOW_AND_INNOVATE, Strategy.PURE_INNOVATE)


def _plant_pair(
    rng: random.Random, pair_no: int, cfg: SynthConfig
) -> tuple[list[PaperRecord], MentorshipRecord, PairTruth]:
    mentor_id = f"mto{pair_no:04d}"
    mentee_id = f"mte{pair_no:04d}"
    field = cfg.fields[pair_no % len(cfg.fields)]
    strategy = _STRATEGY_CYCLE[pair_no % len(_STRATEGY_CYCLE)]

    n_mentor_topics = rng.randint(3, 4)
    if strategy is Strategy.PURE_FOLLOW:
        k_shared = rng.randint(3, n_mentor_topics)
        n_new = 0
    elif strategy is Strategy.FOLLOW_AND_INNOVATE:
        k_shared = rng.randint(2, n_mentor_topics)
        n_new = rng.randint(1, 3)
    else:
        k_shared = 0
        n_new = rng.randint(2, 3)
    n_mentor_only = n_mentor_topics - k_shared
    n_topics = k_shared + n_new + n_mentor_only

    # Careers: mentee starts 1972-1985 so 30+ year spans stay inside 2021.
    mentee_first = rng.randint(1972, 1985)
    mentee_last = mentee_first + rng.randint(30, 36)
    mentor_first = max(1960, mentee_first - rng.randint(3, 12))
    mentor_last = min(mentor_first + rng.randint(30, 40), 2021)

    # Topic layout: ids 0..k_shared-1 shared, then new, then mentor-only.
    specs: list[tuple[str, int]] = []
    for t in range(k_shared):
        specs += [("mte", t)] * rng.randint(7, 10)
        specs += [("mto", t)] * rng.randint(7, 10)
    for t in range(k_shared, k_shared + n_new):
        specs += [("mte", t)] * rng.randint(12, 16)
    for t in range(k_shared + n_new, n_topics):
        specs += [("mto", t)] * rng.randint(12, 16)
    n_joint = rng.randint(0, 3) if k_shared > 0 else 0
    specs += [("joint", rng.randrange(k_shared)) for _ in range(n_joint)]

    # Years: pin the first two papers of each solo role to the career ends
    # so realized first year and span equal the planted ones.
    years: list[int] = []
    mte_seen = 0
    mto_seen = 0
    for kind, _ in specs:
        if kind == "mte":
            if mte_seen == 0:
                years.append(mentee_first)
            elif mte_seen == 1:
                years.append(mentee_last)
            else:
                years.append(rng.randint(mentee_first, mentee_last))
            mte_seen += 1
        elif kind == "mto":
            if mto_seen == 0:
                years.append(mentor_first)
            elif mto_seen == 1:
                years.append(mentor_last)
            else:
                years.append(rng.randint(mentor_first, mentor_last))
            mto_seen += 1
        else:
            years.append(rng.randint(mentee_first, min(mentee_last, mentor_last)))

    pool = [f"p{pair_no:03d}co{m}" for m in range(6)]
    records: list[PaperRecord] = []
    paper_ids: list[str] = []
    side_coauthors = {"mte": set(), "mto": set()}
    for j, ((kind, _topic), year) in enumerate(zip(specs, years)):
        pid = f"p{pair_no:03d}w{j:04d}"
        paper_ids.append(pid)
        extras = rng.sample(pool, rng.randint(0, 2))
        if kind == "mte":
            authors = (mentee_id, *extras)
            side_coauthors["mte"].update(extras)
        elif kind == "mto":
            authors = (mentor_id, *extras)
            side_coauthors["mto"].update(extras)
        else:
            authors = (mentee_id, mentor_id, *extras)
            side_coauthors["mte"].update(extras)
            side_coauthors["mto"].update(extras)
        records.append(PaperRecord(pid, authors, year, field, ()))

    members: dict[int, list[int]] = {}
    for j, (_, topic) in enumerate(specs):
        members.setdefault(topic, []).append(j)

    # Co-citing sources: one fresh citer per sampled paper pair. Same-topic
    # citers land in that topic's pool (they cite two members); cross-topic
    # citers only add stray edges.
    w = [0] * len(specs)
    citer_no = 0
    year_of = years

    def add_citer(u: int, v: int) -> None:
        nonlocal citer_no
        cid = f"p{pair_no:03d}c{citer_no:05d}"
        author = f"p{pair_no:03d}ca{citer_no:05d}"
        citer_no += 1
        year = min(2021, max(year_of[u], year_of[v]) + rng.randint(0, 3))
        records.append(
            PaperRecord(cid, (author,), year, field, (paper_ids[u], paper_ids[v]))
        )

    for topic in range(n_topics):
        ms = members[topic]
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                if rng.random() < cfg.p_in:
                    u, v = ms[a], ms[b]
                    add_citer(u, v)
                    w[u] += 1
                    w[v] += 1
    for t1 in range(n_topics):
        for t2 in range(t1 + 1, n_topics):
            for u in members[t1]:
                for v in members[t2]:
                    if rng.random() < cfg.p_out:
                        add_citer(u, v)

    # Planted impact from the tracked in-topic citation counts.
    per_topic_e: dict[int, float] = {}
    per_topic_r: dict[int, float] = {}
    flat_e: list[float] = []
    flat_r: list[float] = []
    for topic in range(n_topics):
        e_shares = []
        r_shares = []
        for j in members[topic]:
            share = w[j] / len(records[j].author_ids)
            if specs[j][0] in ("mte", "joint"):
                e_shares.append(share)
            if specs[j][0] in ("mto", "joint"):
                r_shares.append(share)
        per_topic_e[topic] = math.fsum(e_shares)
        per_topic_r[topic] = math.fsum(r_shares)
        flat_e.extend(e_shares)
        flat_r.extend(r_shares)

    # Planted mentor-side typing by the median-share rule.
    mentor_counts = {
        t: sum(1 for j in members[t] if specs[j][0] in ("mto", "joint"))
        for t in range(n_topics)
    }
    mentor_topics = [t for t, c in mentor_counts.items() if c > 0]
    total_mentor = sum(mentor_counts[t] for t in mentor_topics)
    props = sorted(mentor_counts[t] / total_mentor for t in mentor_topics)
    mid = len(props) // 2
    median = props[mid] if len(props) % 2 == 1 else (props[mid - 1] + props[mid]) / 2
    primary = tuple(
        t for t in sorted(mentor_topics) if mentor_counts[t] / total_mentor > median
    )

    common = side_coauthors["mte"] & side_coauthors["mto"]
    truth = PairTruth(
        mentor_id=mentor_id,
        mentee_id=mentee_id,
        field=field,
        strategy=strategy,
        n_shared=k_shared,
        n_new=n_new,
        new_topic_ratio=n_new / (n_new + k_shared),
        n_topics=n_topics,
        topic_of={paper_ids[j]: specs[j][1] for j in range(len(specs))},
        mentor_primary_topics=primary,
        per_topic_mentee_impact=per_topic_e,
        per_topic_mentor_impact=per_topic_r,
        mentee_total=math.fsum(flat_e),
        mentor_total=math.fsum(flat_r),
        colla_work_count=n_joint,
        common_collaborators_count=len(common),
        mentee_first_year=mentee_first,
        mentee_career_len=mentee_last - mentee_first,
        mentor_first_year=mentor_first,
        mentor_career_len=mentor_last - mentor_first,
    )
    mentorship = MentorshipRecord(mentor_id, mentee_id, mentee_first, field)
    return records, mentorship, truth


def synthesize_corpus(config: SynthConfig | None = None) -> SynthCorpus:
    cfg = config or SynthConfig()
    rng = random.Random(cfg.seed)
    papers: list[PaperRecord] = []
    mentorships: list[MentorshipRecord] = []
    truths: dict[tuple[str, str], PairTruth] = {}
    for i in range(cfg.n_pairs):
        records, mentorship, truth = _plant_pair(rng, i, cfg)
        papers.extend(records)
        mentorships.append(mentorship)
        truths[(truth.mentor_id, truth.mentee_id)] = truth
    return SynthCorpus(papers=papers, mentorships=mentorships, truths=truths)


def write_corpus(corpus: SynthCorpus, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write papers.jsonl, mentorships.jsonl, and ground_truth.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    papers_path = out / "papers.jsonl"
    mentorships_path = out / "mentorships.jsonl"
    truth_path = out / "ground_truth.json"
    for path, records in ((papers_path, corpus.papers), (mentorships_path, corpus.mentorships)):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
    truth_path.write_text(
        json.dumps(
            {"pairs": [t.to_dict() for t in corpus.truths.values()]},
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return papers_path, mentorships_path, truth_path


# ---------------------------------------------------------------------------
# planted regression cohort


def planted_regression_cohort(
    seed: int, n: int = 2000
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Covariate table with a known quadratic outcome model.

    outcome = 1 + 4 d - d^2 + 0.5 career_len + noise, with noise variance
    set to half the signal variance. The quadratic peak sits at d = 2. All
    other covariates carry true zero coefficients.
    """
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 3.5, n)
    career = rng.integers(30, 41, n).astype(float)
    mte5 = rng.integers(1, 16, n).astype(float)
    tnum = rng.integers(2, 6, n).astype(float)
    mcit = rng.integers(50, 501, n).astype(float)
    c5 = rng.integers(0, 11, n).astype(float)
    cl = rng.integers(0, 16, n).astype(float)
    cc = rng.integers(0, 21, n).astype(float)
    signal = 1.0 + 4.0 * d - d * d + 0.5 * career
    sigma = float(np.sqrt(signal.var() / 2.0))
    y = signal + rng.normal(0.0, sigma, n)
    table = {
        "ave_distance": d,
        "ave_distance_sq": d * d,
        "career_len_mte": career,
        "mte_work_count_first_5y": mte5,
        "topic_num_mto": tnum,
        "mto_citation_impact": mcit,
        "colla_work_count": c5 + cl,
        "colla_work_count_first_5y": c5,
        "colla_work_count_later": cl,
        "common_collaborators_count": cc,
        "mentee_total_impact": y,
    }
    truth = {
        "intercept": 1.0,
        "ave_distance": 4.0,
        "ave_distance_sq": -1.0,
        "career_len_mte": 0.5,
        "mte_work_count_first_5y": 0.0,
        "topic_num_mto": 0.0,
        "mto_citation_impact": 0.0,
        "colla_work_count": 0.0,
        "colla_work_count_first_5y": 0.0,
        "colla_work_count_later": 0.0,
        "common_collaborators_count": 0.0,
        "peak": 2.0,
        "sigma": sigma,
    }
    return table, truth
