"""Mentor-mentee co-citation topic analytics.

Builds per-pair co-citation networks over two authors' papers, detects
topic communities by modularity, allocates topic-specific impact, types
topics and classifies mentee strategies, measures mentee-mentor topic
distance, aggregates impact over careers, and fits the cohort-level
statistics, with a synthetic-corpus generator for end-to-end validation.
"""

__version__ = "0.1.0"

from .errors import (
    CociteError,
    DegenerateX,
    DuplicatePaperId,
    EmptyCohort,
    EmptyCorpus,
    EmptyInput,
    EmptyPair,
    InsufficientData,
    InvalidConfig,
    MalformedRecord,
    MenteeNoTopics,
    MissingImpacts,
    NoFinitePaths,
    NoRetainedTopics,
    PartitionMismatch,
    RankDeficient,
    TooFewRows,
    UnknownAuthor,
    UnknownPaper,
    UnknownTopic,
    ZeroImpact,
)
from .corpus import (
    CitationIndex,
    CohortFlags,
    IngestConfig,
    IngestReport,
    IngestResult,
    MentorshipRecord,
    PaperRecord,
    cohort_flags,
    five_year_citations,
    index_from_records,
    ingest_corpus,
)
from .pairgraph import Authorship, PairGraph, build_pair_graph
from .community import (
    DetectionConfig,
    TopicAssignment,
    detect_topics,
    louvain,
    modularity,
)
from .impact import ImpactAllocation, PaperImpact, TopicImpact, allocate_impact, cociting_pool
from .topics import (
    Strategy,
    StrategyRecord,
    TopicType,
    TopicTyping,
    author_citation_total,
    classify_strategy,
    classify_topics,
    elite_threshold,
    flag_elites,
    is_outperforming,
)
from .distance import DistanceResult, average_distance, bfs_distances
from .career import (
    CareerSeries,
    build_career_series,
    cohort_average_series,
    decade_type_ratios,
    typed_contributions,
)
from .profiles import PairParams, PairProfile, build_pair_profile
from .stats import (
    BinnedCurve,
    LadderResult,
    MODEL_LADDER,
    OlsResult,
    QuadraticFit,
    ccdf,
    equal_count_bins,
    fit_model_ladder,
    fit_ols,
    fit_quadratic,
    quadrant_counts,
    quadrant_of,
    ternary_shares,
)
from .synth import (
    OracleImpact,
    PairTruth,
    SynthConfig,
    SynthCorpus,
    graph_from_edges,
    oracle_impact,
    planted_partition_pair_graph,
    planted_regression_cohort,
    random_pair_corpus,
    random_pair_graph,
    synthesize_corpus,
    write_corpus,
)
from .pipeline import (
    PipelineConfig,
    RunResult,
    run_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
