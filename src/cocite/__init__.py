"""Mentor-mentee co-citation topic analytics.

Builds per-pair co-citation networks over two authors' papers, detects
topic communities by modularity, allocates topic-specific impact, types
topics and classifies mentee strategies, measures mentee-mentor topic
distance, aggregates impact over careers, and fits the cohort-level
statistics, with a synthetic-corpus generator for end-to-end validation.
"""

__version__ = "0.1.0"

from .corpus import ingest_corpus

__all__ = ["ingest_corpus"]
