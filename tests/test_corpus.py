"""Ingestion, validation, and citation index behavior."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cocite.corpus import (
    CitationIndex,
    CohortFlags,
    IngestConfig,
    author_citation_total,
    cohort_flags,
    ingest_corpus,
)
from cocite.errors import DuplicatePaperId, EmptyCorpus, MalformedRecord

from helpers import dict_index, index_as_dicts, make_index, paper, paper_number


def write_corpus(tmp_path, papers, mentorships):
    ppath = tmp_path / "papers.jsonl"
    mpath = tmp_path / "mentorships.jsonl"
    ppath.write_text("\n".join(json.dumps(r) for r in papers) + "\n")
    mpath.write_text("\n".join(json.dumps(r) for r in mentorships) + "\n")
    return ppath, mpath


def paper_obj(pid, authors, year=2000, field="f", refs=()):
    return {
        "paper_id": pid,
        "author_ids": list(authors),
        "pub_year": year,
        "field": field,
        "reference_ids": list(refs),
    }


def mship_obj(mentor, mentee, start_year=1990, field="f"):
    return {
        "mentor_id": mentor,
        "mentee_id": mentee,
        "start_year": start_year,
        "field": field,
    }


BASE_CFG = IngestConfig(min_papers=1)


class TestIngest:
    def test_roundtrip(self, tmp_path):
        papers = [
            paper_obj("p1", ["a1"], 1990, refs=["p2"]),
            paper_obj("p2", ["a2", "a1"], 1985),
            paper_obj("p3", ["a3"], 2000, refs=["p1", "p2"]),
        ]
        ppath, mpath = write_corpus(tmp_path, papers, [mship_obj("a1", "a2")])
        result = ingest_corpus(ppath, mpath, BASE_CFG)
        idx = result.index
        assert idx.n_papers == 3
        maps = index_as_dicts(idx)
        assert maps.cited_by_map == {"p1": ("p3",), "p2": ("p1", "p3"), "p3": ()}
        assert maps.author_papers["a1"] == ("p2", "p1")  # sorted by year
        assert maps.paper_authors["p2"] == ("a2", "a1")
        assert maps.pub_year == {"p1": 1990, "p2": 1985, "p3": 2000}
        assert len(result.mentorships) == 1

    def test_year_window_filter_counted(self, tmp_path):
        papers = [
            paper_obj("p1", ["a1"], 1955),
            paper_obj("p2", ["a1"], 1990),
            paper_obj("p3", ["a2"], 2021),
        ]
        ppath, mpath = write_corpus(tmp_path, papers, [mship_obj("a1", "a2")])
        result = ingest_corpus(ppath, mpath, BASE_CFG)
        assert paper_number(result.index, "p1") is None
        assert result.report["papers", "year_out_of_window"] == 1
        assert result.report["papers", "ingested"] == 2

    def test_field_filter(self, tmp_path):
        papers = [
            paper_obj("p1", ["a1"], field="x"),
            paper_obj("p2", ["a2"], field="y"),
        ]
        ments = [mship_obj("a1", "a2", field="x"), mship_obj("a1", "a2", field="y")]
        ppath, mpath = write_corpus(tmp_path, papers, ments)
        cfg = IngestConfig(min_papers=0, field="x")
        result = ingest_corpus(ppath, mpath, cfg)
        assert result.index.paper_ids == ["p1"]
        assert result.report["papers", "field_filtered"] == 1
        assert result.report["mentorships", "field_filtered"] == 1
        assert len(result.mentorships) == 1

    def test_min_papers_eligibility(self, tmp_path):
        papers = [paper_obj(f"p{i}", ["a1"]) for i in range(3)]
        papers.append(paper_obj("q1", ["a2"]))
        ppath, mpath = write_corpus(tmp_path, papers, [mship_obj("a1", "a2")])
        result = ingest_corpus(ppath, mpath, IngestConfig(min_papers=2))
        assert result.mentorships == []
        assert result.report["mentorships", "mentee_below_min_papers"] == 1
        assert result.report["mentorships", "dropped_ineligible"] == 1

    def test_duplicate_pair_dedupe(self, tmp_path):
        papers = [paper_obj("p1", ["a1"]), paper_obj("p2", ["a2"])]
        ments = [mship_obj("a1", "a2"), mship_obj("a1", "a2")]
        ppath, mpath = write_corpus(tmp_path, papers, ments)
        result = ingest_corpus(ppath, mpath, BASE_CFG)
        assert len(result.mentorships) == 1
        assert result.report["mentorships", "duplicate_pair"] == 1

    def test_reference_sanitization(self, tmp_path):
        papers = [paper_obj("p1", ["a1"], refs=["p1", "p2", "p2"]), paper_obj("p2", ["a2"])]
        ppath, mpath = write_corpus(tmp_path, papers, [mship_obj("a1", "a2")])
        result = ingest_corpus(ppath, mpath, BASE_CFG)
        assert index_as_dicts(result.index).cited_by_map == {"p1": (), "p2": ("p1",)}
        assert result.report["papers", "self_reference_removed"] == 1
        assert result.report["papers", "duplicate_reference_removed"] == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"author_ids": ["a"], "pub_year": 2000, "field": "f", "reference_ids": []},
            paper_obj("p", [], 2000),
            paper_obj("p", ["a"], 1899),
            paper_obj("p", ["a"], 2101),
            paper_obj("p", ["a"], "2000"),
            paper_obj("p", ["a"], True),
            {**paper_obj("p", ["a"]), "reference_ids": "p2"},
            {**paper_obj("p", ["a"]), "paper_id": ""},
        ],
    )
    def test_malformed_paper(self, tmp_path, bad):
        ppath, mpath = write_corpus(tmp_path, [bad], [mship_obj("a", "b")])
        with pytest.raises(MalformedRecord) as exc:
            ingest_corpus(ppath, mpath, BASE_CFG)
        assert exc.value.line_no == 1

    def test_invalid_json_line_number(self, tmp_path):
        # Blank lines are skipped, and the lines after them keep their numbers,
        # with \n or \r\n line ends. A byte that is not UTF-8 and nesting
        # too deep for the JSON decoder are named by their line too, in
        # either file.
        ppath = tmp_path / "papers.jsonl"
        mpath = tmp_path / "m.jsonl"
        good = {
            ppath: json.dumps(paper_obj("p1", ["a"])).encode(),
            mpath: json.dumps(mship_obj("a", "b")).encode(),
        }
        bad_lines = (
            (b"{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
            (b'{"field": "caf\xe9"}', "invalid UTF-8: invalid continuation byte"),
            (b"[" * 200_000, "invalid JSON: nested too deeply"),
        )
        for bad, reason in bad_lines:
            for path in good:
                for gap, line_no in ((b"", 2), (b"\n  \n", 4), (b"\r\n \r\n", 4)):
                    for p, line in good.items():
                        p.write_bytes(line + b"\n" + (gap + bad + b"\n" if p == path else b""))
                    with pytest.raises(MalformedRecord) as exc:
                        ingest_corpus(ppath, mpath, BASE_CFG)
                    assert (exc.value.line_no, exc.value.reason) == (line_no, reason)

    @pytest.mark.parametrize("key", ["paper_id", "mentor_id", "mentee_id", "field"])
    def test_lone_surrogate_is_rejected(self, tmp_path, key):
        # Ids and the mentorship field reach the UTF-8 outputs, so a lone
        # surrogate is refused on its line; an escaped pair (an emoji) passes.
        for value, reason in (("x\ud800", f"{key} holds a lone surrogate"), ("x\U0001f600", None)):
            papers = [paper_obj("a1", ["a"]), paper_obj("b1", ["b"])]
            mships = [mship_obj("a", "b"), mship_obj("b", "a")]
            records = papers if key == "paper_id" else mships
            records[1] = {**records[1], key: value}
            ppath, mpath = write_corpus(tmp_path, papers, mships)
            if reason is None:
                ingest_corpus(ppath, mpath, BASE_CFG)
                continue
            with pytest.raises(MalformedRecord) as exc:
                ingest_corpus(ppath, mpath, BASE_CFG)
            assert (exc.value.line_no, exc.value.reason) == (2, reason)

    def test_duplicate_paper_id(self, tmp_path):
        # In the second corpus the year window drops the first copy.
        for first in (paper_obj("p1", ["a"]), paper_obj("p1", ["a"], 1950)):
            papers = [first, paper_obj("p1", ["b"])]
            ppath, mpath = write_corpus(tmp_path, papers, [mship_obj("a", "b")])
            with pytest.raises(DuplicatePaperId):
                ingest_corpus(ppath, mpath, BASE_CFG)

    def test_mentor_equals_mentee(self, tmp_path):
        ppath, mpath = write_corpus(
            tmp_path, [paper_obj("p1", ["a"])], [mship_obj("a", "a")]
        )
        with pytest.raises(MalformedRecord):
            ingest_corpus(ppath, mpath, BASE_CFG)

    @pytest.mark.parametrize("key", ["mentor_id", "mentee_id", "start_year", "field"])
    def test_mentorship_missing_key(self, tmp_path, key):
        bad = {k: v for k, v in mship_obj("a", "b").items() if k != key}
        ppath, mpath = write_corpus(tmp_path, [paper_obj("p1", ["a"])], [mship_obj("a", "b"), bad])
        with pytest.raises(MalformedRecord) as exc:
            ingest_corpus(ppath, mpath, BASE_CFG)
        assert (exc.value.line_no, exc.value.reason) == (2, f"missing key {key}")

    def test_empty_corpus(self, tmp_path):
        ppath, mpath = write_corpus(
            tmp_path, [paper_obj("p1", ["a"], 1900)], [mship_obj("a", "b")]
        )
        with pytest.raises(EmptyCorpus, match="no paper records"):
            ingest_corpus(ppath, mpath, BASE_CFG)
        # A mentorships file with no records, only a blank line.
        ppath, mpath = write_corpus(tmp_path, [paper_obj("p1", ["a"])], [])
        with pytest.raises(EmptyCorpus, match="no mentorship records"):
            ingest_corpus(ppath, mpath, BASE_CFG)

    def test_null_start_year_allowed(self, tmp_path):
        ppath, mpath = write_corpus(
            tmp_path,
            [paper_obj("p1", ["a"]), paper_obj("p2", ["b"])],
            [mship_obj("a", "b", start_year=None)],
        )
        result = ingest_corpus(ppath, mpath, BASE_CFG)
        assert result.mentorships[0].start_year is None


class TestIndex:
    def test_author_dedup(self):
        maps = index_as_dicts(make_index(paper("p1", ("a", "a", "b"))))
        assert maps.paper_authors["p1"] == ("a", "b")
        assert maps.author_papers == {"a": ("p1",), "b": ("p1",)}

    def test_dangling_refs_never_enter_cited_by(self):
        idx = make_index(paper("p1", "a", refs=("ghost",)), paper("p2", "b", refs=("p1", "ghost")))
        assert index_as_dicts(idx).cited_by_map == {"p1": ("p2",), "p2": ()}
        assert paper_number(idx, "ghost") is None

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_cited_by_is_transpose(self, data):
        n = data.draw(st.integers(1, 10))
        ids = [f"p{i}" for i in range(n)]
        records = []
        for pid in ids:
            refs = data.draw(
                st.lists(st.sampled_from(ids + ["dangling"]), max_size=4, unique=True)
            )
            refs = [r for r in refs if r != pid]
            records.append(paper(pid, "a", refs=tuple(refs)))
        cited_by_map = index_as_dicts(CitationIndex(records)).cited_by_map
        assert list(cited_by_map) == ids
        for p in ids:
            for rec in records:
                assert (rec.paper_id in cited_by_map[p]) == (p in rec.reference_ids)
            assert cited_by_map[p] == tuple(sorted(cited_by_map[p]))


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_accessor_matches_dict_index(self, data):
        # Ids mix ASCII and non-ASCII characters; references may point
        # forward, back, to the citing paper itself or to ids with no record,
        # and author lists may repeat an author.
        ident = st.text(alphabet="aZ09-\u00e9\u00fc\u4e2d\U0001f600", min_size=1, max_size=4)
        ids = data.draw(st.lists(ident, min_size=1, max_size=12, unique=True))
        authors = data.draw(st.lists(ident, min_size=1, max_size=6, unique=True))
        ghosts = ["ghost", "\u00e9ghost"]
        records = [
            paper(
                pid,
                tuple(data.draw(st.lists(st.sampled_from(authors), min_size=1, max_size=4))),
                year=data.draw(st.integers(1960, 2021)),
                refs=tuple(data.draw(st.lists(st.sampled_from(ids + ghosts), max_size=5))),
            )
            for pid in ids
        ]
        idx = CitationIndex(records)
        oracle = dict_index(records)
        assert index_as_dicts(idx) == oracle
        assert idx.n_papers == len(ids)
        assert idx.paper_ids == sorted(ids)
        assert idx.author_ids == sorted(oracle.author_papers)
        # Sorting numbers sorts ids.
        subset = data.draw(st.lists(st.sampled_from(ids), unique=True))
        assert [idx.paper_ids[p] for p in sorted(paper_number(idx, pid) for pid in subset)] == sorted(subset)
        for g in ghosts:
            assert paper_number(idx, g) is None
            assert idx.author(g) is None
            assert idx.paper_count(g) == 0
        for a, papers in oracle.author_papers.items():
            assert idx.paper_count(a) == len(papers)
        window = data.draw(st.integers(0, 10))
        for a, papers in oracle.author_papers.items():
            expected = sum(
                1
                for pid in papers
                for c in oracle.cited_by_map[pid]
                if 0 <= oracle.pub_year[c] - oracle.pub_year[pid] <= window
            )
            assert author_citation_total(idx.author(a), idx, window) == expected


class TestCohortFlags:
    def test_flags(self):
        idx = make_index(
            paper("p1", "a", year=1980),
            paper("p2", "a", year=2011),
            paper("p3", "a", year=1995),
        )
        flags = cohort_flags(idx.author("a"), idx)
        assert flags == CohortFlags(
            first_pub_year=1980,
            career_len=31,
            pre_1990_starter=True,
            career_30y=True,
        )

    def test_short_career(self):
        idx = make_index(paper("p1", "a", year=1992), paper("p2", "a", year=2000))
        flags = cohort_flags(idx.author("a"), idx)
        assert not flags.pre_1990_starter
        assert not flags.career_30y
        assert flags.career_len == 8


class TestFiveYearCitations:
    def test_window_inclusive(self):
        idx = make_index(
            paper("p", "a", year=2000),
            paper("c0", "x", year=2000, refs=("p",)),
            paper("c5", "x2", year=2005, refs=("p",)),
            paper("c6", "x3", year=2006, refs=("p",)),
            paper("cpast", "x4", year=1999, refs=("p",)),
        )
        assert author_citation_total(idx.author("a"), idx, 5) == 2
        assert author_citation_total(idx.author("a"), idx, 6) == 3
