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
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import DuplicatePaperId, EmptyCorpus, MalformedRecord

if TYPE_CHECKING:
    from .pipeline import Cache

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


class Rows:
    """The rows of a compressed sparse layout: row i is
    ``indices[indptr[i]:indptr[i + 1]]``."""

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices

    def __getitem__(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def lengths(self, rows: np.ndarray) -> np.ndarray:
        return self.indptr[rows + 1] - self.indptr[rows]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The given rows, concatenated in the given order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        # Output position k of row r reads indices[starts[r] + k - offsets[r]].
        offsets = np.cumsum(lengths) - lengths
        return self.indices[np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())]


def _compress(row_of: np.ndarray, values: np.ndarray, n_rows: int) -> Rows:
    """Rows holding each value under its row, rows in order; `row_of` must
    already be sorted."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=n_rows), out=indptr[1:])
    return Rows(indptr, values.astype(np.int32))


class CitationIndex:
    """Read-only citation arrays over one corpus.

    Papers and authors are numbered in the sorted order of their ids, so
    sorting numbers sorts ids: `paper_ids[i]` is the id of paper i and
    `author_ids[a]` that of author a. `cited_by[p]` lists the papers citing
    paper p, sorted (the columns of the citer x paper matrix); references to
    ids that are not corpus records are dropped. `author_papers[a]` lists
    author a's papers by (pub_year, id), and `paper_authors[p]` paper p's
    authors with repeats removed, in their first-seen order. `pub_year` is
    indexed by paper number.

    The ids are numbered in one pass over the records, as they stream in,
    and renumbered into sorted order once the stream ends. Afterwards the
    index has no mutable state and may be shared freely across forked
    workers.
    """

    __slots__ = ("paper_ids", "author_ids", "pub_year", "cited_by", "author_papers", "paper_authors")

    def __init__(self, records: Iterable[PaperRecord]):
        paper_no: dict[str, int] = {}  # every id seen, as a record or a reference
        author_no: dict[str, int] = {}
        record_no = array("i")  # the number each record's id was seen under
        years = array("h")
        n_refs = array("i")
        refs = array("i")
        n_authors = array("i")
        authors = array("i")
        for rec in records:
            record_no.append(paper_no.setdefault(rec.paper_id, len(paper_no)))
            years.append(rec.pub_year)
            n_refs.append(len(rec.reference_ids))
            refs.extend([paper_no.setdefault(r, len(paper_no)) for r in rec.reference_ids])
            uniq = dict.fromkeys(rec.author_ids)
            n_authors.append(len(uniq))
            authors.extend([author_no.setdefault(a, len(author_no)) for a in uniq])

        # Renumber the records and authors into sorted id order; a seen id
        # without a record gets -1. The dicts go before the arrays are built.
        seen_ids = list(paper_no)
        record_ids = [seen_ids[k] for k in record_no]
        seen_rank = np.full(len(seen_ids), -1, dtype=np.int32)
        del paper_no, seen_ids
        record_order = sorted(range(len(record_ids)), key=record_ids.__getitem__)
        self.paper_ids = [record_ids[r] for r in record_order]
        del record_ids
        n = len(record_order)
        order = np.array(record_order, dtype=np.int64)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n)
        seen_rank[np.frombuffer(record_no, dtype=np.int32)] = rank

        seen_authors = list(author_no)
        del author_no
        author_order = sorted(range(len(seen_authors)), key=seen_authors.__getitem__)
        self.author_ids = [seen_authors[a] for a in author_order]
        del seen_authors
        author_rank = np.empty(len(author_order), dtype=np.int32)
        author_rank[author_order] = np.arange(len(author_order))

        self.pub_year = np.frombuffer(years, dtype=np.int16)[order]

        # cited_by: one entry per reference to a record, grouped by the cited paper.
        citer = np.repeat(rank, np.frombuffer(n_refs, dtype=np.int32))
        cited = seen_rank[np.frombuffer(refs, dtype=np.int32)]
        kept = cited >= 0
        citer, cited = citer[kept], cited[kept]
        by_cited = np.lexsort((citer, cited))
        self.cited_by = _compress(cited[by_cited], citer[by_cited], n)

        # paper_authors: each record's authors, moved to the row of its paper.
        counts = np.frombuffer(n_authors, dtype=np.int32)
        by_record = Rows(
            np.concatenate(([0], np.cumsum(counts))), author_rank[np.frombuffer(authors, dtype=np.int32)]
        )
        paper_of = np.repeat(np.arange(n, dtype=np.int32), counts[order])
        self.paper_authors = _compress(paper_of, by_record.take(order), n)

        # author_papers: the same (paper, author) pairs by author, then (year, id).
        author = self.paper_authors.indices
        by_author = np.lexsort((paper_of, self.pub_year[paper_of], author))
        self.author_papers = _compress(author[by_author], paper_of[by_author], len(self.author_ids))

    @classmethod
    def from_arrays(
        cls,
        paper_ids: list[str],
        author_ids: list[str],
        pub_year: np.ndarray,
        cited_by: Rows,
        author_papers: Rows,
        paper_authors: Rows,
    ) -> CitationIndex:
        """An index over arrays laid out as `__init__` builds them."""
        self = cls.__new__(cls)
        self.paper_ids, self.author_ids, self.pub_year = paper_ids, author_ids, pub_year
        self.cited_by, self.author_papers, self.paper_authors = cited_by, author_papers, paper_authors
        return self

    @property
    def n_papers(self) -> int:
        return len(self.paper_ids)

    def author(self, author_id: str) -> int | None:
        """The number of the author with this id, or None if they have no paper."""
        return _find(self.author_ids, author_id)

    def paper_count(self, author_id: str) -> int:
        """How many papers the author with this id wrote."""
        a = self.author(author_id)
        return 0 if a is None else len(self.author_papers[a])


def _find(ids: list[str], key: str) -> int | None:
    i = bisect_left(ids, key)
    return i if i < len(ids) and ids[i] == key else None


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
    *,
    cache: Cache | None = None,
) -> IngestResult:
    """Read both JSONL files and build the citation index in one pass.

    Papers outside the configured year window or field are dropped and
    counted; mentorship records whose mentor or mentee has fewer than
    ``min_papers`` papers in the filtered corpus are dropped and counted.
    Structural problems (bad JSON, missing keys, duplicate ids) raise.

    With a `cache`, the entry named by the key of these files and the
    cache's config is returned if it loads; otherwise the parsed result is
    stored under that name. An entry under another key stays until the
    cache's next complete pair stage prunes it, so a run interrupted after
    an ingest setting changed leaves both entries behind.
    """
    if cache is not None and (cached := cache.load_ingest()) is not None:
        return cached
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
        mentor_n = index.paper_count(rec.mentor_id)
        mentee_n = index.paper_count(rec.mentee_id)
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

    result = IngestResult(index, mentorships, report)
    if cache is not None:
        cache.store_ingest(result)
    return result


def cohort_flags(author: int, index: CitationIndex) -> CohortFlags:
    """Career flags for one author; pure function of the immutable index."""
    years = index.pub_year[index.author_papers[author]]
    first = int(years.min())
    career_len = int(years.max()) - first
    return CohortFlags(
        first_pub_year=first,
        career_len=career_len,
        pre_1990_starter=first < 1990,
        career_30y=career_len >= 30,
    )


def author_citation_total(author: int, index: CitationIndex, window: int) -> int:
    """Citations to one author's papers made within `window` years of the
    cited paper's publication, inclusive.

    A citing paper dated before the paper it cites is data noise and is not
    counted (it stays in the graph).
    """
    papers = index.author_papers[author]
    cited_year = np.repeat(index.pub_year[papers], index.cited_by.lengths(papers))
    offset = index.pub_year[index.cited_by.take(papers)] - cited_year
    return int(((offset >= 0) & (offset <= window)).sum())
