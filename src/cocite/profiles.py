"""Per-pair profile assembly.

One profile runs the whole per-pair chain (graph, topics, typing, strategy,
impact, distance, careers, covariates) and carries every scalar the
cohort-level stages need. Elite and outperforming flags stay unset here;
they need cohort-wide thresholds and are filled in by the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, get_args, get_origin, get_type_hints

import numpy as np

from .career import (
    CareerSeries,
    build_career_series,
    decade_type_ratios,
    typed_contributions,
)
from .community import DetectionConfig, detect_topics
from .corpus import CitationIndex, MentorshipRecord, author_citation_total, cohort_flags
from .distance import average_distance
from .impact import allocate_impact
from .pairgraph import Authorship, build_pair_graph, pair_authors
from .topics import (
    Strategy,
    TopicType,
    classify_strategy,
    classify_topics,
)

MENTEE_TYPES = (TopicType.PRIMARY, TopicType.SECONDARY, TopicType.NEW)
MENTOR_TYPES = (TopicType.PRIMARY, TopicType.SECONDARY)


@dataclass
class PairParams(DetectionConfig):
    """Knobs for the per-pair computation: topic detection plus the graph,
    distance and citation settings."""

    exclude_self_cocitation: bool = False
    include_joint_self_pairs: bool = True
    citation_window: int = dc_field(default=5, metadata={"min": 0})


def _same(value: Any) -> Any:
    return value


def _columns(**columns: Callable[[Any], object]) -> Any:
    """A profile field written as the given profiles.csv columns, each
    computed from the field's value. With no columns the field stays out of
    the table."""
    return dc_field(metadata={"columns": columns})


@dataclass(kw_only=True)
class PairProfile:
    """Everything the cohort stage needs about one pair.

    The field order is the profiles.csv column order. A field is one column
    under its own name unless `_columns` says otherwise; `to_dict` and
    `from_dict` are derived from the same fields.
    """

    field: str
    mentor_id: str
    mentee_id: str

    n_nodes: int
    n_edges: int
    n_topics: int
    n_unassigned: int
    modularity_q: float

    strategy: Strategy
    n_shared: int
    n_new: int
    new_topic_ratio: float = _columns(R=_same)

    ave_distance: float = _columns(ave_distance=_same, ave_distance_sq=lambda d: d * d)
    n_distance_pairs: int
    n_disconnected: int
    distance_substituted: bool

    mentee_total_impact: float = _columns(C_e_total=_same)
    mentor_total_impact: float = _columns(C_r_total=_same)
    zero_impact: bool

    mentee_citation_total: int

    first_pub_year_mte: int
    first_pub_year_mto: int
    career_len_mte: int
    career_len_mto: int
    pre_1990_mte: bool
    career_30y_mte: bool

    colla_work_count: int
    colla_work_count_first_5y: int
    colla_work_count_later: int
    common_collaborators_count: int
    mte_work_count_first_5y: int
    topic_num_mto: int
    mto_citation_impact: int

    is_elite: bool | None = None
    outperforming: bool | None = None
    degenerate_median: bool

    mentee_impact_by_type: dict[TopicType, float] = _columns(
        impact_primary_mte=itemgetter(TopicType.PRIMARY),
        impact_secondary_mte=itemgetter(TopicType.SECONDARY),
        impact_new_mte=itemgetter(TopicType.NEW),
    )
    mentor_impact_by_type: dict[TopicType, float] = _columns(
        impact_primary_mto=itemgetter(TopicType.PRIMARY),
        impact_secondary_mto=itemgetter(TopicType.SECONDARY),
    )

    mentee_series: CareerSeries = _columns()
    mentor_series: CareerSeries = _columns()
    mentee_decade_ratios: dict[int, dict[TopicType, float]] = _columns()
    mentor_decade_ratios: dict[int, dict[TopicType, float]] = _columns()

    @property
    def ave_distance_sq(self) -> float:
        return self.ave_distance * self.ave_distance

    def to_dict(self) -> dict:
        """JSON-ready form: enums as their values, series as [yearly,
        cumulative], dict keys as strings."""
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> PairProfile:
        return cls(**{name: _decode(tp, d[name]) for name, tp in _FIELD_TYPES.items()})


_FIELD_TYPES = get_type_hints(PairProfile)

# (column, field, value of the column given the field's value), in order.
PROFILE_COLUMNS: tuple[tuple[str, str, Callable[[Any], object]], ...] = tuple(
    (column, f.name, value)
    for f in fields(PairProfile)
    for column, value in f.metadata.get("columns", {f.name: _same}).items()
)


def encode(value: Any) -> Any:
    """A profile value as plain JSON data."""
    if isinstance(value, dict):
        return {str(encode(k)): encode(v) for k, v in value.items()}
    if isinstance(value, CareerSeries):
        return [list(value.yearly), list(value.cumulative)]
    return value.value if isinstance(value, Enum) else value


def _decode(tp: Any, value: Any) -> Any:
    """Inverse of `encode` for a value of type `tp`."""
    if get_origin(tp) is dict:
        key_type, value_type = get_args(tp)
        return {_decode(key_type, k): _decode(value_type, v) for k, v in value.items()}
    if tp is CareerSeries:
        return CareerSeries(*map(tuple, value))
    if tp is int or (isinstance(tp, type) and issubclass(tp, Enum)):
        return tp(value)
    return value


def _coauthors(author: int, index: CitationIndex) -> np.ndarray:
    """Everyone who wrote a paper with the author, the author included."""
    return np.unique(index.paper_authors.take(index.author_papers[author]))


def _no_hook(stage: str, result: Any) -> None:
    pass


def build_pair_profile(
    mentorship: MentorshipRecord,
    index: CitationIndex,
    params: PairParams | None = None,
    *,
    on_stage: Callable[[str, Any], None] = _no_hook,
) -> PairProfile:
    """Run the full per-pair chain and assemble the profile.

    A stage that cannot compute its result (an author without papers, no
    retained topics, a mentee without topics, no finite distance) raises to
    the caller for fault isolation, with the stage in the error's `stage`.

    `on_stage` is called after each stage, in this order, with the stage
    name and its result: "pairs" (the PairGraph), "detect" (the
    TopicAssignment), "classify" (the TopicTyping and StrategyRecord),
    "impact" (the ImpactAllocation) and "distance" (the DistanceResult).
    The career stage's result is the profile returned.
    """
    p = params or PairParams()
    mentor, mentee = pair_authors(mentorship.mentor_id, mentorship.mentee_id, index)

    graph = build_pair_graph(
        mentor, mentee, index, exclude_self_cocitation=p.exclude_self_cocitation
    )
    on_stage("pairs", graph)
    assignment = detect_topics(graph, p)
    on_stage("detect", assignment)
    typing = classify_topics(graph, assignment)
    strat = classify_strategy(typing)
    on_stage("classify", (typing, strat))
    allocation = allocate_impact(graph, assignment, index)
    on_stage("impact", allocation)

    dist = average_distance(graph, include_joint_self_pairs=p.include_joint_self_pairs)
    on_stage("distance", dist)

    flags_mte = cohort_flags(mentee, index)
    flags_mto = cohort_flags(mentor, index)
    first_mte = flags_mte.first_pub_year
    mentee_rows = typed_contributions(allocation, typing, index, "mentee", first_mte)
    mentor_rows = typed_contributions(allocation, typing, index, "mentor", flags_mto.first_pub_year)
    mentee_by_type = {
        t: math.fsum(share for _, share, k in mentee_rows if k is t) for t in MENTEE_TYPES
    }
    mentor_by_type = {
        t: math.fsum(share for _, share, k in mentor_rows if k is t) for t in MENTOR_TYPES
    }

    mentee_series = build_career_series(
        [(y, s) for y, s, _ in mentee_rows], flags_mte.career_len
    )
    mentor_series = build_career_series(
        [(y, s) for y, s, _ in mentor_rows], flags_mto.career_len
    )

    joint_papers = [n for n, lab in graph.labels.items() if lab is Authorship.JOINT]
    joint_first = int((index.pub_year[joint_papers] - first_mte <= 5).sum())
    mte_first = int((index.pub_year[index.author_papers[mentee]] - first_mte <= 5).sum())
    common = np.setdiff1d(
        np.intersect1d(_coauthors(mentee, index), _coauthors(mentor, index)), [mentor, mentee]
    )

    mto_citations = author_citation_total(mentor, index, window=p.citation_window)
    mte_citations = author_citation_total(mentee, index, window=p.citation_window)

    return PairProfile(
        mentor_id=mentorship.mentor_id,
        mentee_id=mentorship.mentee_id,
        field=mentorship.field,
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        n_topics=assignment.n_topics,
        n_unassigned=assignment.n_unassigned,
        modularity_q=assignment.modularity_q,
        degenerate_median=typing.degenerate_median,
        strategy=strat.strategy,
        n_shared=strat.n_shared,
        n_new=strat.n_new,
        new_topic_ratio=strat.new_topic_ratio,
        ave_distance=dist.ave_distance,
        n_distance_pairs=dist.n_pairs,
        n_disconnected=dist.n_disconnected,
        distance_substituted=dist.substituted,
        mentee_total_impact=allocation.mentee_total,
        mentor_total_impact=allocation.mentor_total,
        mentee_impact_by_type=mentee_by_type,
        mentor_impact_by_type=mentor_by_type,
        zero_impact=allocation.mentee_total == 0.0,
        mentee_citation_total=mte_citations,
        first_pub_year_mte=flags_mte.first_pub_year,
        first_pub_year_mto=flags_mto.first_pub_year,
        career_len_mte=flags_mte.career_len,
        career_len_mto=flags_mto.career_len,
        pre_1990_mte=flags_mte.pre_1990_starter,
        career_30y_mte=flags_mte.career_30y,
        colla_work_count=len(joint_papers),
        colla_work_count_first_5y=joint_first,
        colla_work_count_later=len(joint_papers) - joint_first,
        common_collaborators_count=common.size,
        mte_work_count_first_5y=mte_first,
        topic_num_mto=len(typing.mentor_side),
        mto_citation_impact=mto_citations,
        mentee_series=mentee_series,
        mentor_series=mentor_series,
        mentee_decade_ratios=decade_type_ratios(mentee_rows),
        mentor_decade_ratios=decade_type_ratios(mentor_rows),
    )
