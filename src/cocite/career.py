"""Career-time aggregation of allocated impact.

A role's career clock starts at their first publication year; every paper's
contribution lands at its publication career year. Yearly and cumulative
series are dense from year 0 through the career length, and every total is
an fsum over the flat multiset of contributions, so the final cumulative
value equals the role's total allocated impact bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import CitationIndex
from .impact import ImpactAllocation
from .pairgraph import MENTEE_SIDE, MENTOR_SIDE
from .topics import TopicType, TopicTyping


@dataclass(frozen=True)
class CareerSeries:
    """Dense per-year impact series for one role of one pair."""

    yearly: tuple[float, ...]
    cumulative: tuple[float, ...]

    @property
    def career_len(self) -> int:
        return len(self.yearly) - 1

    @property
    def total(self) -> float:
        return self.cumulative[-1]


def build_career_series(
    contributions: Iterable[tuple[int, float]],
    career_len: int,
) -> CareerSeries:
    """Lay (career_year, share) contributions, each year in [0, career_len],
    onto a dense year axis.

    cumulative[y] is recomputed as an fsum over the full prefix multiset
    rather than by adding increments, keeping it exactly consistent with an
    fsum over all contributions at the final year.
    """
    per_year: dict[int, list[float]] = {}
    for year, share in contributions:
        per_year.setdefault(year, []).append(share)
    yearly = []
    cumulative = []
    prefix: list[float] = []
    for y in range(career_len + 1):
        shares = per_year.get(y, [])
        yearly.append(math.fsum(shares))
        prefix.extend(shares)
        cumulative.append(math.fsum(prefix))
    return CareerSeries(yearly=tuple(yearly), cumulative=tuple(cumulative))


def typed_contributions(
    allocation: ImpactAllocation,
    typing: TopicTyping,
    index: CitationIndex,
    role: str,
    first_year: int,
) -> list[tuple[int, float, TopicType]]:
    """(career_year, share, topic_type) rows for one role of one pair.

    role is "mentee" or "mentor". Topic types come from the mentee view for
    the mentee and from the mentor-side primary/secondary split for the
    mentor. Career year is relative to `first_year`, the role's first
    publication year.
    """
    if role == "mentee":
        side = MENTEE_SIDE
        type_of: Mapping[int, TopicType] = typing.type_of
    elif role == "mentor":
        side = MENTOR_SIDE
        type_of = typing.mentor_side
    else:
        raise ValueError(f"unknown role {role!r}")
    out: list[tuple[int, float, TopicType]] = []
    for topic in allocation.topics.values():
        kind = type_of.get(topic.topic_id)
        if kind is None:
            continue
        for row in topic.rows:
            if row.authorship not in side:
                continue
            year = int(index.pub_year[row.paper]) - first_year
            out.append((year, row.contribution, kind))
    return out


def decade_type_ratios(
    rows: Sequence[tuple[int, float, TopicType]],
) -> dict[int, dict[TopicType, float]]:
    """Share of each topic type in the impact of each career decade.

    Decades with zero total impact are omitted; present decades' ratios sum
    to 1 up to one final rounding.
    """
    by_decade: dict[int, dict[TopicType, list[float]]] = {}
    for year, share, kind in rows:
        decade = year // 10
        by_decade.setdefault(decade, {}).setdefault(kind, []).append(share)
    out: dict[int, dict[TopicType, float]] = {}
    for decade in sorted(by_decade):
        type_sums = {k: math.fsum(v) for k, v in by_decade[decade].items()}
        total = math.fsum(s for shares in by_decade[decade].values() for s in shares)
        if total == 0:
            continue
        out[decade] = {k: s / total for k, s in sorted(type_sums.items(), key=lambda kv: kv[0].value)}
    return out


def cohort_average_series(
    serieses: Sequence[CareerSeries],
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Average cumulative impact by career year over one or more series,
    with drop-out censoring.

    Year y averages only members whose career extends to y, so late years
    are not diluted by members who stopped publishing earlier. Returns the
    mean series and the contributor count per year.
    """
    horizon = max(s.career_len for s in serieses) + 1
    means = []
    counts = []
    for y in range(horizon):
        alive = [s.cumulative[y] for s in serieses if y < len(s.cumulative)]
        counts.append(len(alive))
        means.append(math.fsum(alive) / len(alive))
    return tuple(means), tuple(counts)
