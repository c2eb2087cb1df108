"""Corpus ingestion and citation indexing.

Input corpora are two JSONL files: one paper record per line
(paper_id, author_ids, pub_year, field, reference_ids) and one mentorship
record per line (mentor_id, mentee_id, start_year, field). Ingestion
validates every line, applies the year window / field filter, and streams
each kept paper straight into a CitationIndex that all downstream analyses
share read-only: who cites each paper, who wrote it, when, and which papers
each author wrote. The minimum-paper eligibility rule for mentorship pairs
is then checked against that index.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DuplicatePaperId, EmptyCorpus, MalformedRecord

# Hard validity bounds for any year value; records outside raise MalformedRecord.
# The (narrower) ingest window in IngestConfig drops records silently and counts
# them in the report instead.
VALID_YEAR_MIN = 1900
VALID_YEAR_MAX = 2100


@dataclass(frozen=True)
class PaperRecord:
    """One bibliographic record; author identifiers are assumed disambiguated."""

    paper_id: str
    author_ids: tuple[str, ...]
    pub_year: int
    field: str
    reference_ids: tuple[str, ...]


@dataclass(frozen=True)
class MentorshipRecord:
    mentor_id: str
    mentee_id: str
    start_year: int | None
    field: str


@dataclass(frozen=True)
class CohortFlags:
    """Career-level flags for one author, derived from their indexed papers."""

    first_pub_year: int
    career_len: int
    pre_1990_starter: bool
    career_30y: bool


@dataclass
class IngestConfig:
    min_papers: int = 20
    year_min: int = 1960
    year_max: int = 2021
    field: str | None = None


class CitationIndex:
    """Read-only citation maps over one corpus.

    cited_by_map lists, for every corpus paper, the corpus papers citing it,
    sorted; references to ids that are not corpus records are dropped.
    author_papers lists each author's papers by (pub_year, paper_id), and
    paper_authors each paper's authors with repeats removed. Construction is
    single-writer and consumes the records in one pass; afterwards the index
    is treated as read-only and may be shared freely across parallel workers.
    """

    __slots__ = ("cited_by_map", "author_papers", "paper_authors", "pub_year")

    def __init__(self, records: Iterable[PaperRecord]):
        pub_year: dict[str, int] = {}
        authors: dict[str, tuple[str, ...]] = {}
        by_author: dict[str, list[str]] = defaultdict(list)
        cited_by: dict[str, list[str]] = defaultdict(list)
        for rec in records:
            uniq_authors = tuple(dict.fromkeys(rec.author_ids))
            pub_year[rec.paper_id] = rec.pub_year
            authors[rec.paper_id] = uniq_authors
            for a in uniq_authors:
                by_author[a].append(rec.paper_id)
            for ref in rec.reference_ids:
                cited_by[ref].append(rec.paper_id)

        self.cited_by_map = {pid: tuple(sorted(cited_by.get(pid, ()))) for pid in pub_year}
        self.author_papers = {
            a: tuple(sorted(ps, key=lambda p: (pub_year[p], p)))
            for a, ps in by_author.items()
        }
        self.paper_authors = authors
        self.pub_year = pub_year

    @property
    def n_papers(self) -> int:
        return len(self.pub_year)


@dataclass
class IngestResult:
    index: CitationIndex
    mentorships: list[MentorshipRecord]
    # Events observed during ingestion, counted by (stage, reason).
    report: Counter[tuple[str, str]]


def _require(cond: bool, line_no: int, reason: str) -> None:
    if not cond:
        raise MalformedRecord(line_no, reason)


def _check_year(value, line_no: int, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), line_no, f"{name} must be an integer")
    _require(VALID_YEAR_MIN <= value <= VALID_YEAR_MAX, line_no, f"{name} {value} outside [{VALID_YEAR_MIN}, {VALID_YEAR_MAX}]")
    return value


def _parse_paper(obj, line_no: int, report: Counter[tuple[str, str]]) -> PaperRecord:
    _require(isinstance(obj, dict), line_no, "paper record must be a JSON object")
    try:
        paper_id = obj["paper_id"]
        author_ids = obj["author_ids"]
        pub_year = obj["pub_year"]
        field = obj["field"]
        reference_ids = obj["reference_ids"]
    except KeyError as exc:
        raise MalformedRecord(line_no, f"missing key {exc.args[0]}") from None
    _require(isinstance(paper_id, str) and paper_id != "", line_no, "paper_id must be a non-empty string")
    _require(isinstance(author_ids, list) and author_ids, line_no, "author_ids must be a non-empty array")
    _require(all(isinstance(a, str) and a for a in author_ids), line_no, "author_ids entries must be strings")
    _check_year(pub_year, line_no, "pub_year")
    _require(isinstance(field, str) and field != "", line_no, "field must be a non-empty string")
    _require(isinstance(reference_ids, list), line_no, "reference_ids must be an array")
    _require(all(isinstance(r, str) and r for r in reference_ids), line_no, "reference_ids entries must be strings")

    # Sanitize data noise: repeated references, self-references. The index
    # removes repeated authors.
    refs = []
    seen = set()
    for r in reference_ids:
        if r == paper_id:
            report["papers", "self_reference_removed"] += 1
            continue
        if r in seen:
            report["papers", "duplicate_reference_removed"] += 1
            continue
        seen.add(r)
        refs.append(r)
    return PaperRecord(paper_id, tuple(author_ids), pub_year, field, tuple(refs))


def _parse_mentorship(obj, line_no: int) -> MentorshipRecord:
    _require(isinstance(obj, dict), line_no, "mentorship record must be a JSON object")
    try:
        mentor_id = obj["mentor_id"]
        mentee_id = obj["mentee_id"]
        start_year = obj["start_year"]
        field = obj["field"]
    except KeyError as exc:
        raise MalformedRecord(line_no, f"missing key {exc.args[0]}") from None
    _require(isinstance(mentor_id, str) and mentor_id, line_no, "mentor_id must be a non-empty string")
    _require(isinstance(mentee_id, str) and mentee_id, line_no, "mentee_id must be a non-empty string")
    _require(mentor_id != mentee_id, line_no, "mentor_id equals mentee_id")
    if start_year is not None:
        _check_year(start_year, line_no, "start_year")
    _require(isinstance(field, str) and field != "", line_no, "field must be a non-empty string")
    return MentorshipRecord(mentor_id, mentee_id, start_year, field)


def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield line_no, json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from None


def _kept_papers(
    papers_path: str | Path, cfg: IngestConfig, report: Counter[tuple[str, str]]
) -> Iterator[PaperRecord]:
    """Validated paper records inside the year window and field filter.

    Duplicate ids raise even when a filter drops one of the copies.
    """
    seen_ids: set[str] = set()
    for line_no, obj in _iter_jsonl(papers_path):
        rec = _parse_paper(obj, line_no, report)
        if rec.paper_id in seen_ids:
            raise DuplicatePaperId(f"line {line_no}: {rec.paper_id}")
        seen_ids.add(rec.paper_id)
        if not (cfg.year_min <= rec.pub_year <= cfg.year_max):
            report["papers", "year_out_of_window"] += 1
        elif cfg.field is not None and rec.field != cfg.field:
            report["papers", "field_filtered"] += 1
        else:
            yield rec


def ingest_corpus(
    papers_path: str | Path,
    mentorships_path: str | Path,
    config: IngestConfig | None = None,
) -> IngestResult:
    """Read both JSONL files and build the citation index in one pass.

    Papers outside the configured year window or field are dropped and
    counted; mentorship records whose mentor or mentee has fewer than
    ``min_papers`` papers in the filtered corpus are dropped and counted.
    Structural problems (bad JSON, missing keys, duplicate ids) raise.
    """
    cfg = config or IngestConfig()
    report: Counter[tuple[str, str]] = Counter()

    index = CitationIndex(_kept_papers(papers_path, cfg, report))
    if not index.n_papers:
        raise EmptyCorpus(f"no paper records survived ingestion from {papers_path}")
    report["papers", "ingested"] = index.n_papers

    mentorships: list[MentorshipRecord] = []
    seen_pairs: set[tuple[str, str]] = set()
    n_raw = 0
    for line_no, obj in _iter_jsonl(mentorships_path):
        rec = _parse_mentorship(obj, line_no)
        n_raw += 1
        if cfg.field is not None and rec.field != cfg.field:
            report["mentorships", "field_filtered"] += 1
            continue
        key = (rec.mentor_id, rec.mentee_id)
        if key in seen_pairs:
            report["mentorships", "duplicate_pair"] += 1
            continue
        seen_pairs.add(key)
        mentor_n = len(index.author_papers.get(rec.mentor_id, ()))
        mentee_n = len(index.author_papers.get(rec.mentee_id, ()))
        dropped = False
        if mentor_n < cfg.min_papers:
            report["mentorships", "mentor_below_min_papers"] += 1
            dropped = True
        if mentee_n < cfg.min_papers:
            report["mentorships", "mentee_below_min_papers"] += 1
            dropped = True
        if dropped:
            report["mentorships", "dropped_ineligible"] += 1
            continue
        mentorships.append(rec)
    if n_raw == 0:
        raise EmptyCorpus(f"no mentorship records in {mentorships_path}")
    report["mentorships", "ingested"] = len(mentorships)

    return IngestResult(index, mentorships, report)


def cohort_flags(author_id: str, index: CitationIndex) -> CohortFlags:
    """Career flags for one author; pure function of the immutable index."""
    years = [index.pub_year[p] for p in index.author_papers[author_id]]
    first = min(years)
    career_len = max(years) - first
    return CohortFlags(
        first_pub_year=first,
        career_len=career_len,
        pre_1990_starter=first < 1990,
        career_30y=career_len >= 30,
    )


def five_year_citations(paper_id: str, index: CitationIndex, window: int = 5) -> int:
    """Citations received within ``window`` years of publication (inclusive).

    Citing papers whose year precedes the cited paper's year are treated as
    data noise and excluded from the windowed count (they stay in the graph).
    """
    pub_year = index.pub_year[paper_id]
    n = 0
    for citer in index.cited_by_map[paper_id]:
        offset = index.pub_year[citer] - pub_year
        if 0 <= offset <= window:
            n += 1
    return n
