"""Synthetic corpora with planted ground truth.

Generators here exist so every derived quantity in the package can be
checked against values known by construction: planted topic memberships,
planted strategies and new-topic ratios, per-topic impact computed
independently during generation, planted covariates, and a regression
cohort with known coefficients. All generators are deterministic functions
of their seed and write byte-stable JSONL.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .corpus import MentorshipRecord, PaperRecord
from .profiles import encode
from .stats import LADDER_COLUMNS
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
    # Per paper kind: the years its papers may take and its lead authors.
    span = {
        "mte": (mentee_first, mentee_last),
        "mto": (mentor_first, mentor_last),
        "joint": (mentee_first, min(mentee_last, mentor_last)),
    }
    leads = {"mte": (mentee_id,), "mto": (mentor_id,), "joint": (mentee_id, mentor_id)}

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

    # Years: the first two solo papers of each role sit at its career ends,
    # so realized first year and span equal the planted ones.
    years: list[int] = []
    seen = dict.fromkeys(span, 0)
    for kind, _ in specs:
        pinned = kind != "joint" and seen[kind] < 2
        years.append(span[kind][seen[kind]] if pinned else rng.randint(*span[kind]))
        seen[kind] += 1

    pool = [f"p{pair_no:03d}co{m}" for m in range(6)]
    records: list[PaperRecord] = []
    coauthors: dict[str, set[str]] = {mentee_id: set(), mentor_id: set()}
    for j, ((kind, _topic), year) in enumerate(zip(specs, years)):
        extras = rng.sample(pool, rng.randint(0, 2))
        for lead in leads[kind]:
            coauthors[lead].update(extras)
        pid = f"p{pair_no:03d}w{j:04d}"
        records.append(PaperRecord(pid, (*leads[kind], *extras), year, field, ()))
    members = [[j for j, (_, t) in enumerate(specs) if t == topic] for topic in range(n_topics)]

    # Co-citing sources: one fresh citer per sampled paper pair. Same-topic
    # citers land in that topic's pool (they cite two members); cross-topic
    # citers only add stray edges.
    w = [0] * len(specs)

    def add_citer(u: int, v: int) -> None:
        c = len(records) - len(specs)
        year = min(2021, max(years[u], years[v]) + rng.randint(0, 3))
        cites = (records[u].paper_id, records[v].paper_id)
        author = f"p{pair_no:03d}ca{c:05d}"
        records.append(PaperRecord(f"p{pair_no:03d}c{c:05d}", (author,), year, field, cites))

    for ms in members:
        for u, v in itertools.combinations(ms, 2):
            if rng.random() < cfg.p_in:
                add_citer(u, v)
                w[u] += 1
                w[v] += 1
    for ms1, ms2 in itertools.combinations(members, 2):
        for u, v in itertools.product(ms1, ms2):
            if rng.random() < cfg.p_out:
                add_citer(u, v)

    # Planted impact: each member paper adds w(p)/s(p) on the side of each
    # of its lead authors, so joint papers count on both sides.
    shares = {lead: [[] for _ in members] for lead in (mentee_id, mentor_id)}
    for topic, ms in enumerate(members):
        for j in ms:
            for lead in leads[specs[j][0]]:
                shares[lead][topic].append(w[j] / len(records[j].author_ids))

    # Mentor-side typing: a topic is primary when its share of the mentor's
    # papers is above the median share.
    mentor_counts = {t: len(s) for t, s in enumerate(shares[mentor_id]) if s}
    total_mentor = sum(mentor_counts.values())
    median = statistics.median(c / total_mentor for c in mentor_counts.values())
    primary = tuple(t for t, c in mentor_counts.items() if c / total_mentor > median)

    per_topic = {lead: dict(enumerate(map(math.fsum, s))) for lead, s in shares.items()}
    totals = {lead: math.fsum(itertools.chain(*s)) for lead, s in shares.items()}
    truth = PairTruth(
        mentor_id=mentor_id,
        mentee_id=mentee_id,
        field=field,
        strategy=strategy,
        n_shared=k_shared,
        n_new=n_new,
        new_topic_ratio=n_new / (n_new + k_shared),
        n_topics=n_topics,
        topic_of={records[j].paper_id: t for j, (_, t) in enumerate(specs)},
        mentor_primary_topics=primary,
        per_topic_mentee_impact=per_topic[mentee_id],
        per_topic_mentor_impact=per_topic[mentor_id],
        mentee_total=totals[mentee_id],
        mentor_total=totals[mentor_id],
        colla_work_count=n_joint,
        common_collaborators_count=len(coauthors[mentee_id] & coauthors[mentor_id]),
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
    set to half the signal variance. The quadratic peak sits at d = 2. Every
    other ladder column carries a true zero coefficient.
    """
    coef = {
        "intercept": 1.0,
        **dict.fromkeys(LADDER_COLUMNS, 0.0),
        "ave_distance": 4.0,
        "ave_distance_sq": -1.0,
        "career_len_mte": 0.5,
    }
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 3.5, n)
    career = rng.integers(30, 41, n).astype(float)
    mte5 = rng.integers(1, 16, n).astype(float)
    tnum = rng.integers(2, 6, n).astype(float)
    mcit = rng.integers(50, 501, n).astype(float)
    c5 = rng.integers(0, 11, n).astype(float)
    cl = rng.integers(0, 16, n).astype(float)
    cc = rng.integers(0, 21, n).astype(float)
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
    }
    # Summed left to right from the intercept, so the values are those of
    # 1 + 4 d - d^2 + 0.5 career_len bit for bit; zero terms add exactly 0.
    signal = sum((coef[c] * table[c] for c in LADDER_COLUMNS), coef["intercept"])
    sigma = float(np.sqrt(signal.var() / 2.0))
    table["mentee_total_impact"] = signal + rng.normal(0.0, sigma, n)
    peak = -coef["ave_distance"] / (2.0 * coef["ave_distance_sq"])
    return table, {**coef, "peak": peak, "sigma": sigma}
