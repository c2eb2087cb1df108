"""Corpus ingestion and citation indexing.

Input corpora are two JSONL files: one paper record per line
(paper_id, author_ids, pub_year, field, reference_ids) and one mentorship
record per line (mentor_id, mentee_id, start_year, field). Ingestion
validates every line, applies the year window / field filter and the
minimum-paper eligibility rule for mentorship pairs, and builds an
immutable CitationIndex that all downstream analyses share read-only.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DuplicatePaperId,
    EmptyCorpus,
    MalformedRecord,
    UnknownAuthor,
    UnknownPaper,
)

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


class PaperMeta(NamedTuple):
    pub_year: int
    author_count: int
    field: str


class IngestReport:
    """Counter of (stage, reason) events observed during ingestion."""

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}

    def add(self, stage: str, reason: str, n: int = 1) -> None:
        key = (stage, reason)
        self._counts[key] = self._counts.get(key, 0) + n

    def count(self, stage: str, reason: str) -> int:
        return self._counts.get((stage, reason), 0)

    def rows(self) -> list[tuple[str, str, int]]:
        return [(s, r, c) for (s, r), c in sorted(self._counts.items())]

    def write_csv(self, path: str | Path) -> None:
        lines = ["stage,reason,count"]
        lines += [f"{s},{r},{c}" for s, r, c in self.rows()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class CitationIndex:
    """Immutable forward/backward citation maps over one corpus.

    citing_map keeps the full (deduplicated) reference list of every corpus
    paper, including ids that are not themselves corpus records; such dangling
    ids carry no metadata and never act as co-citing sources. cited_by_map is
    the transpose restricted to corpus papers on both ends. Construction is
    single-writer; afterwards the index is treated as read-only and may be
    shared freely across parallel workers.
    """

    __slots__ = ("citing_map", "cited_by_map", "author_papers", "paper_meta", "paper_authors")

    def __init__(self, records: Iterable[PaperRecord]):
        citing: dict[str, tuple[str, ...]] = {}
        meta: dict[str, PaperMeta] = {}
        authors: dict[str, tuple[str, ...]] = {}
        by_author: dict[str, list[str]] = defaultdict(list)
        for rec in records:
            if rec.paper_id in meta:
                raise DuplicatePaperId(rec.paper_id)
            uniq_authors = tuple(dict.fromkeys(rec.author_ids))
            citing[rec.paper_id] = rec.reference_ids
            meta[rec.paper_id] = PaperMeta(rec.pub_year, len(uniq_authors), rec.field)
            authors[rec.paper_id] = uniq_authors
            for a in uniq_authors:
                by_author[a].append(rec.paper_id)

        cited_by: dict[str, list[str]] = {pid: [] for pid in meta}
        for src, refs in citing.items():
            for ref in refs:
                if ref in meta:
                    cited_by[ref].append(src)

        self.citing_map = citing
        self.cited_by_map = {pid: tuple(sorted(cs)) for pid, cs in cited_by.items()}
        self.author_papers = {
            a: tuple(sorted(ps, key=lambda p: (meta[p].pub_year, p)))
            for a, ps in by_author.items()
        }
        self.paper_meta = meta
        self.paper_authors = authors

    # -- lookups --------------------------------------------------------

    def citers_of(self, paper_id: str) -> tuple[str, ...]:
        try:
            return self.cited_by_map[paper_id]
        except KeyError:
            raise UnknownPaper(paper_id) from None

    def papers_of(self, author_id: str) -> tuple[str, ...]:
        try:
            return self.author_papers[author_id]
        except KeyError:
            raise UnknownAuthor(author_id) from None

    def authors_of(self, paper_id: str) -> tuple[str, ...]:
        try:
            return self.paper_authors[paper_id]
        except KeyError:
            raise UnknownPaper(paper_id) from None

    def meta(self, paper_id: str) -> PaperMeta:
        try:
            return self.paper_meta[paper_id]
        except KeyError:
            raise UnknownPaper(paper_id) from None

    @property
    def n_papers(self) -> int:
        return len(self.paper_meta)


@dataclass
class IngestResult:
    index: CitationIndex
    mentorships: list[MentorshipRecord]
    report: IngestReport


def _require(cond: bool, line_no: int, reason: str) -> None:
    if not cond:
        raise MalformedRecord(line_no, reason)


def _check_year(value, line_no: int, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), line_no, f"{name} must be an integer")
    _require(VALID_YEAR_MIN <= value <= VALID_YEAR_MAX, line_no, f"{name} {value} outside [{VALID_YEAR_MIN}, {VALID_YEAR_MAX}]")
    return value


def _parse_paper(obj, line_no: int, report: IngestReport) -> PaperRecord:
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

    # Sanitize data noise: repeated authors, repeated references, self-references.
    authors = tuple(dict.fromkeys(author_ids))
    refs = []
    seen = set()
    for r in reference_ids:
        if r == paper_id:
            report.add("papers", "self_reference_removed")
            continue
        if r in seen:
            report.add("papers", "duplicate_reference_removed")
            continue
        seen.add(r)
        refs.append(r)
    return PaperRecord(paper_id, authors, pub_year, field, tuple(refs))


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


def ingest_corpus(
    papers_path: str | Path,
    mentorships_path: str | Path,
    config: IngestConfig | None = None,
) -> IngestResult:
    """Read both JSONL files and build the cross-linked citation index.

    Papers outside the configured year window or field are dropped and
    counted; mentorship records whose mentor or mentee has fewer than
    ``min_papers`` papers in the filtered corpus are dropped and counted.
    Structural problems (bad JSON, missing keys, duplicate ids) raise.
    """
    cfg = config or IngestConfig()
    report = IngestReport()

    records: list[PaperRecord] = []
    seen_ids: set[str] = set()
    for line_no, obj in _iter_jsonl(papers_path):
        rec = _parse_paper(obj, line_no, report)
        if rec.paper_id in seen_ids:
            raise DuplicatePaperId(f"line {line_no}: {rec.paper_id}")
        seen_ids.add(rec.paper_id)
        if not (cfg.year_min <= rec.pub_year <= cfg.year_max):
            report.add("papers", "year_out_of_window")
            continue
        if cfg.field is not None and rec.field != cfg.field:
            report.add("papers", "field_filtered")
            continue
        records.append(rec)
    if not records:
        raise EmptyCorpus(f"no paper records survived ingestion from {papers_path}")
    report.add("papers", "ingested", len(records))

    index = CitationIndex(records)

    mentorships: list[MentorshipRecord] = []
    seen_pairs: set[tuple[str, str]] = set()
    n_raw = 0
    for line_no, obj in _iter_jsonl(mentorships_path):
        rec = _parse_mentorship(obj, line_no)
        n_raw += 1
        if cfg.field is not None and rec.field != cfg.field:
            report.add("mentorships", "field_filtered")
            continue
        key = (rec.mentor_id, rec.mentee_id)
        if key in seen_pairs:
            report.add("mentorships", "duplicate_pair")
            continue
        seen_pairs.add(key)
        mentor_n = len(index.author_papers.get(rec.mentor_id, ()))
        mentee_n = len(index.author_papers.get(rec.mentee_id, ()))
        dropped = False
        if mentor_n < cfg.min_papers:
            report.add("mentorships", "mentor_below_min_papers")
            dropped = True
        if mentee_n < cfg.min_papers:
            report.add("mentorships", "mentee_below_min_papers")
            dropped = True
        if dropped:
            report.add("mentorships", "dropped_ineligible")
            continue
        mentorships.append(rec)
    if n_raw == 0:
        raise EmptyCorpus(f"no mentorship records in {mentorships_path}")
    report.add("mentorships", "ingested", len(mentorships))

    return IngestResult(index, mentorships, report)


def cohort_flags(author_id: str, index: CitationIndex) -> CohortFlags:
    """Career flags for one author; pure function of the immutable index."""
    papers = index.papers_of(author_id)
    years = [index.paper_meta[p].pub_year for p in papers]
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
    pub_year = index.meta(paper_id).pub_year
    n = 0
    for citer in index.citers_of(paper_id):
        offset = index.paper_meta[citer].pub_year - pub_year
        if 0 <= offset <= window:
            n += 1
    return n
