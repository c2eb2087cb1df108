"""Dense synthetic corpus: prolific authors, shared citers, heavy tails.

`cocite synth` gives every pair its own papers and its own two-reference
citers, so its pair graphs stay small (about 77 nodes). This generator
builds the opposite case, which stresses the per-pair kernels:

- every author writes 300-1000 papers (truncated Pareto), spread over a
  30-36 year career that starts before 1990, so every pair enters the
  regression cohort;
- each mentor holds 4 of the field's 10 topics; the mentees in turn follow
  3 of them (pure-follow), follow 2 and add 2 new ones (follow-and-
  innovate), or take 3 new ones (pure-innovate);
- only a share of each author's papers is ever co-cited; the rest stay
  isolated nodes of the pair graph, as uncited papers do in real corpora;
- citer papers are shared by all pairs of a field: a citer picks one field
  topic and cites papers of that topic across every pair that has it, with
  a heavy-tailed reference count; a few bridge citers per pair link its
  topic blocks.

The output is plain JSONL in the format `cocite run` reads. Usage:

    python3 benchmark/dense.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

FIELDS = ("fieldA", "fieldB")
PAIRS_PER_FIELD = 10
TOPICS_PER_FIELD = 10
CITERS_PER_TOPIC = 350
ACTIVE_SHARE = 0.3
BRIDGES_PER_LINK = 2
PRODUCTIVITY = (300, 1000)
PARETO_ALPHA = 1.5
MAX_REFERENCES = 120


def truncated_pareto(u: float, lo: float, hi: float, alpha: float) -> float:
    """The u-quantile of a Pareto(alpha) law truncated to [lo, hi]."""
    tail = 1.0 - (lo / hi) ** alpha
    return lo / (1.0 - u * tail) ** (1.0 / alpha)


def strata(rng: random.Random, n: int) -> list[float]:
    """n evenly spaced quantiles in random order.

    Heavy-tailed sizes are drawn this way, so every seed gets the same
    multiset of sizes in a different arrangement and the total work of a
    run does not swing with the seed.
    """
    us = [(i + 0.5) / n for i in range(n)]
    rng.shuffle(us)
    return us


def _plant_pair(rng, field, pair_no, size_u, topic_pool, papers):
    mentor_id = f"{field}-mto{pair_no:02d}"
    mentee_id = f"{field}-mte{pair_no:02d}"
    strategy = ("pure_follow", "follow_and_innovate", "pure_innovate")[pair_no % 3]

    # Least-used field topics first, so every topic's citers spread over a
    # similar number of pairs whatever the seed.
    topics = sorted(topic_pool, key=lambda t: (len(topic_pool[t]), rng.random()))
    mentor_topics = topics[:4]
    mentee_topics = {
        "pure_follow": topics[:3],
        "follow_and_innovate": topics[:2] + topics[4:6],
        "pure_innovate": topics[4:7],
    }[strategy]
    shared = [t for t in mentee_topics if t in mentor_topics]

    mentee_first = rng.randint(1966, 1986)
    mentee_last = mentee_first + rng.randint(30, 35)
    mentor_first = max(1960, mentee_first - rng.randint(3, 12))
    mentor_last = min(2021, mentor_first + rng.randint(32, 45))

    collaborators = [f"{field}-co{pair_no:02d}-{k}" for k in range(12)]
    mentor_circle = collaborators[: rng.randint(5, 9)]
    mentee_circle = collaborators[rng.randint(2, 6):]

    def write(author_ids, kind, first, last, topic_choices, n):
        for j in range(n):
            pid = f"{field}-p{pair_no:02d}{kind}{j:04d}"
            year = first if j == 0 else last if j == 1 else rng.randint(first, last)
            circle = mentee_circle if kind == "e" else mentor_circle
            extras = rng.sample(circle, rng.randint(0, 3))
            papers.append({
                "paper_id": pid,
                "author_ids": [*author_ids, *extras],
                "pub_year": year,
                "field": field,
                "reference_ids": [],
            })
            if rng.random() < ACTIVE_SHARE:
                topic = rng.choice(topic_choices)
                topic_pool[topic].append((pid, year))
                blocks.setdefault(topic, []).append((pid, year))

    blocks: dict[int, list[tuple[str, int]]] = {}
    n_r, n_e = (int(truncated_pareto(u, *PRODUCTIVITY, PARETO_ALPHA)) for u in (size_u, (size_u + 0.5) % 1.0))
    write([mentor_id], "r", mentor_first, mentor_last, mentor_topics, n_r)
    write([mentee_id], "e", mentee_first, mentee_last, mentee_topics, n_e)
    n_joint = rng.randint(0, 8) if shared else 0
    write([mentee_id, mentor_id], "j", mentee_first, min(mentee_last, mentor_last), shared or mentee_topics, n_joint)

    # A few bridge citers join consecutive topic blocks of the pair, so the
    # co-cited papers of a pair always form one component.
    ordered = sorted(blocks)
    for j, (t1, t2) in enumerate(zip(ordered, ordered[1:])):
        for b in range(BRIDGES_PER_LINK):
            cited = dict([rng.choice(blocks[t1]), rng.choice(blocks[t2])])
            papers.append({
                "paper_id": f"{field}-p{pair_no:02d}b{j:02d}{b}",
                "author_ids": [f"{field}-ba{pair_no:02d}"],
                "pub_year": min(2021, max(cited.values()) + rng.randint(0, 3)),
                "field": field,
                "reference_ids": sorted(cited),
            })

    return {
        "mentor_id": mentor_id,
        "mentee_id": mentee_id,
        "start_year": mentee_first,
        "field": field,
    }


def _cite(rng, field, topic_pool, papers):
    """Citer papers shared by every pair of the field."""
    n = 0
    for topic in sorted(topic_pool):
        pool = topic_pool[topic]
        if len(pool) < 2:
            continue
        weights = [truncated_pareto(u, 1.0, 50.0, 1.2) for u in strata(rng, len(pool))]
        for u in strata(rng, CITERS_PER_TOPIC):
            k = min(len(pool), int(truncated_pareto(u, 2.0, MAX_REFERENCES, 1.3)))
            picked = {}
            while len(picked) < k:
                pid, year = rng.choices(pool, weights)[0]
                picked[pid] = year
            year = min(2021, max(picked.values()) + rng.randint(0, 3))
            papers.append({
                "paper_id": f"{field}-c{n:05d}",
                "author_ids": [f"{field}-ca{rng.randrange(400):03d}"],
                "pub_year": year,
                "field": field,
                "reference_ids": sorted(picked),
            })
            n += 1


def generate(seed: int, out_dir: str | Path) -> Path:
    """Write papers.jsonl and mentorships.jsonl into out_dir."""
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    papers: list[dict] = []
    mentorships: list[dict] = []
    sizes = iter(strata(rng, len(FIELDS) * PAIRS_PER_FIELD))
    for field in FIELDS:
        topic_pool: dict[int, list] = {t: [] for t in range(TOPICS_PER_FIELD)}
        for pair_no in range(PAIRS_PER_FIELD):
            mentorships.append(_plant_pair(rng, field, pair_no, next(sizes), topic_pool, papers))
        _cite(rng, field, topic_pool, papers)
    with open(out / "papers.jsonl", "w", encoding="utf-8") as fh:
        for rec in papers:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out / "mentorships.jsonl", "w", encoding="utf-8") as fh:
        for rec in mentorships:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
