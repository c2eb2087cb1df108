"""Cohort pipeline: ingest, per-pair profiles with caching, cohort
statistics, and a deterministic report bundle. The module owns
`<out>/cache`: the keys of the ingest and pair entries, and how each is
written, read and pruned.

Every output file is byte-stable for a given corpus and configuration:
rows are fully sorted, floats are written with repr, and nothing volatile
(timestamps, absolute paths, cache statistics) lands in hashed outputs.
Cache statistics, stage times, distance-substitution counts and peak RSS
go to run_stats.json, which the manifest does not cover.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import multiprocessing
import os
import resource
import time
import zipfile
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field as dc_field, fields as dc_fields
from pathlib import Path
from types import NoneType
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, get_args, get_type_hints

import numpy as np

from . import __version__
from .career import cohort_average_series
from .corpus import CitationIndex, IngestConfig, IngestResult, MentorshipRecord, Rows, ingest_corpus
from .errors import CociteError, InvalidConfig
from .profiles import (
    MENTEE_TYPES,
    MENTOR_TYPES,
    PROFILE_COLUMNS,
    PairParams,
    PairProfile,
    build_pair_profile,
    encode,
)
from .stats import (
    LADDER_COLUMNS,
    LADDER_OUTCOME,
    QuadraticFit,
    ccdf,
    equal_count_bins,
    fit_model_ladder,
    fit_quadratic,
    quadrant_counts,
    ternary_shares,
)

# ---------------------------------------------------------------------------
# configuration


@dataclass
class PipelineConfig(PairParams, IngestConfig):
    """Every setting of `cocite run`: the ingest and per-pair settings that
    decide each profile are inherited, and the fields declared here are the
    volatile ones and those that decide only the cohort outputs."""

    papers: str = ""
    mentorships: str = ""
    out: str = ""

    top_fraction: float = dc_field(default=0.2, metadata={"min": 0.0, "max": 1.0})
    elite_global: bool = False
    n_bins: int = dc_field(default=20, metadata={"min": 1})
    log1p_outcome: bool = False
    regression_30y: bool = True

    workers: int = dc_field(default=1, metadata={"min": 1})

    # Fields that never influence results and stay out of the config hash.
    _VOLATILE = ("papers", "mentorships", "out", "workers")

    def _subset(self, cls):
        """An instance of dataclass `cls` with its fields taken from here."""
        return cls(**{f.name: getattr(self, f.name) for f in dc_fields(cls)})

    def ingest_config(self) -> IngestConfig:
        return self._subset(IngestConfig)

    def pair_params(self) -> PairParams:
        return self._subset(PairParams)

    def config_hash(self) -> str:
        items = sorted((f.name, getattr(self, f.name)) for f in dc_fields(self) if f.name not in self._VOLATILE)
        canon = json.dumps(items, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


SETTING_TYPES = get_type_hints(PipelineConfig)
# The "min" and "max" a setting's field declares in its metadata, if any.
SETTING_BOUNDS = {f.name: f.metadata for f in dc_fields(PipelineConfig)}


def check_setting(value: object, bounds: Mapping[str, object]) -> None:
    """Raise ValueError if `value` is a non-finite float or lies outside
    `bounds`, the "min" and "max" of its field's metadata."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r}")
    if "min" in bounds and value < bounds["min"]:
        raise ValueError(f"{value} is below {bounds['min']}")
    if "max" in bounds and value > bounds["max"]:
        raise ValueError(f"{value} is above {bounds['max']}")


def check_config(config: object) -> None:
    """Raise InvalidConfig if a field of the dataclass `config` fails
    `check_setting`. Parsing checks each value it reads; a config built in
    code is checked only here."""
    for f in dc_fields(config):
        try:
            check_setting(getattr(config, f.name), f.metadata)
        except ValueError as exc:
            raise InvalidConfig(f"setting {f.name!r}: {exc}") from None


def parse_setting(key: str, raw: str) -> object:
    """The value of setting `key` from its text in a config file or a flag.

    `none` and `null` mean None only where the field's type admits it.
    Raises ValueError if the text does not parse or `check_setting` rejects
    the value.
    """
    options = get_args(SETTING_TYPES[key]) or (SETTING_TYPES[key],)
    lowered = raw.lower()
    if lowered in ("none", "null") and NoneType in options:
        return None
    tp = next(t for t in options if t is not NoneType)
    if tp is not bool:
        value = tp(raw)
        check_setting(value, SETTING_BOUNDS[key])
        return value
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"bad boolean {raw!r}")


def load_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def apply_config_values(config: PipelineConfig, values: Mapping[str, str]) -> None:
    """Overlay string key=value settings onto a config, parsed by field type."""
    for key, raw in values.items():
        if key not in SETTING_TYPES:
            raise InvalidConfig(f"unknown config key {key!r}")
        try:
            setattr(config, key, parse_setting(key, raw))
        except ValueError as exc:
            raise InvalidConfig(f"config key {key!r}: {exc}") from None


# ---------------------------------------------------------------------------
# formatting


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """A field holding `,`, `"` or a line break is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_ingest_report(path: Path, report: Mapping[tuple[str, str], int]) -> None:
    write_csv(path, ["stage", "reason", "count"], [(*key, n) for key, n in sorted(report.items())])


DIGEST_CHUNK = 1 << 20


def _hash_file(h, path: str | Path) -> None:
    """Feed a file to the hash `h` in DIGEST_CHUNK pieces, so no file is held whole."""
    with open(path, "rb") as fh:
        while chunk := fh.read(DIGEST_CHUNK):
            h.update(chunk)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    _hash_file(h, path)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the cache under <out>/cache, and the per-pair stage


def corpus_digest(papers_path: str | Path, mentorships_path: str | Path) -> str:
    h = hashlib.sha256()
    _hash_file(h, papers_path)
    h.update(b"\x00")
    _hash_file(h, mentorships_path)
    return h.hexdigest()


@functools.cache
def code_digest() -> str:
    """sha256 over this package's own sources, file by file in name order,
    so that a cache entry written by other code is never served."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(f"{path.name}\0{len(source)}\0".encode("utf-8"))
        h.update(source)
    return h.hexdigest()


def _cache_key(corpus_hash: str, settings: dict[str, object], **pair: str) -> str:
    """The key of a cache entry decided by the corpus, these settings, the
    code and, for a pair's entry, the pair."""
    blob = json.dumps(
        {"corpus": corpus_hash, "settings": settings, "code": code_digest(), **pair}, sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def ingest_cache_key(corpus_hash: str, config: PipelineConfig) -> str:
    """Covers the ingest settings and the code, so the ingest entry
    is served only where a recompute would give the same result."""
    return _cache_key(corpus_hash, asdict(config.ingest_config()))


def pair_cache_key(corpus_hash: str, mentorship: MentorshipRecord, config: PipelineConfig) -> str:
    """Covers every ingest and per-pair setting and the code, so an
    entry is served only where a recompute would give the same profile; the
    cohort-only settings do not decide a profile and stay out."""
    return _cache_key(
        corpus_hash,
        asdict(config.ingest_config()) | asdict(config.pair_params()),
        mentor=mentorship.mentor_id,
        mentee=mentorship.mentee_id,
    )


# A cache entry whose read raises one of these is damaged: it is counted
# as corrupt and recomputed like a miss. A missing file is a plain miss.
_DAMAGED = (OSError, ValueError, LookupError, TypeError, AttributeError, EOFError, zipfile.BadZipFile)

# The Rows of an index, each with the id lists that count its rows and
# number its values.
_INDEX_ROWS = (
    ("cited_by", "paper_ids", "paper_ids"),
    ("author_papers", "author_ids", "paper_ids"),
    ("paper_authors", "paper_ids", "author_ids"),
)
_ID_LISTS = ("paper_ids", "author_ids")
# Every member of an ingest entry, with its dtype as CitationIndex builds
# it. Each id list is a JSON array, and `meta` (the mentorships and the
# report) a JSON object, as ASCII text.
_ENTRY_DTYPES = {
    "pub_year": np.dtype(np.int16),
    **{f"{rows}.indptr": np.dtype(np.int64) for rows, _, _ in _INDEX_ROWS},
    **{f"{rows}.indices": np.dtype(np.int32) for rows, _, _ in _INDEX_ROWS},
    **{name: np.dtype(np.uint8) for name in (*_ID_LISTS, "meta")},
}


def _check_entry(cond: bool) -> None:
    if not cond:
        raise ValueError("not an ingest cache entry")


def _unpack_rows(members: dict[str, np.ndarray], name: str, n_rows: int, n_values: int) -> Rows:
    indptr, indices = members[f"{name}.indptr"], members[f"{name}.indices"]
    _check_entry(len(indptr) == n_rows + 1 and indptr[0] == 0 and indptr[-1] == len(indices))
    _check_entry(bool((np.diff(indptr) >= 0).all()))
    _check_entry(not len(indices) or (indices.min() >= 0 and indices.max() < n_values))
    return Rows(indptr, indices)


def _read_ingest(path: Path) -> IngestResult:
    # Our own handle: np.load leaves its own open when zipfile rejects the file.
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as entry:
        _check_entry(sorted(entry.files) == sorted(_ENTRY_DTYPES))
        members = {name: entry[name] for name in _ENTRY_DTYPES}
    for name, dtype in _ENTRY_DTYPES.items():
        _check_entry(members[name].dtype == dtype and members[name].ndim == 1)
    meta = json.loads(members["meta"].tobytes())
    ids = {name: json.loads(members[name].tobytes()) for name in _ID_LISTS}
    _check_entry(all(type(i) is list and set(map(type, i)) <= {str} for i in ids.values()))
    _check_entry(len(members["pub_year"]) == len(ids["paper_ids"]))
    rows = {
        name: _unpack_rows(members, name, len(ids[counted]), len(ids[numbered]))
        for name, counted, numbered in _INDEX_ROWS
    }
    index = CitationIndex.from_arrays(ids["paper_ids"], ids["author_ids"], members["pub_year"], **rows)
    mentorships = [MentorshipRecord(*m) for m in meta["mentorships"]]
    report = Counter({(stage, reason): n for stage, reason, n in meta["report"]})
    return IngestResult(index, mentorships, report)


def _write_ingest(fh: BinaryIO, result: IngestResult) -> None:
    index = result.index
    members = {"pub_year": index.pub_year}
    for name, _, _ in _INDEX_ROWS:
        rows = getattr(index, name)
        members[f"{name}.indptr"], members[f"{name}.indices"] = rows.indptr, rows.indices
    texts = {name: getattr(index, name) for name in _ID_LISTS}
    texts["meta"] = {
        "mentorships": [astuple(m) for m in result.mentorships],
        "report": [[*key, n] for key, n in result.report.items()],
    }
    for name, value in texts.items():
        # ensure_ascii escapes any surrogate, so the text encodes as ASCII.
        members[name] = np.frombuffer(json.dumps(value).encode("ascii"), dtype=np.uint8)
    # A file object, since np.savez would append ".npz" to a path.
    np.savez(fh, **members)


_Entry = TypeVar("_Entry")


class Cache:
    """Every entry under `cache_dir`, each a file named by its key: the
    ingest result as `<ingest_cache_key>.npz` and each pair's profile as
    `<pair_cache_key>.json`.

    `lookups` maps the name of each entry looked up since the cache opened
    to what the lookup gave: "hit", "miss" (no file) or "corrupt" (a file
    this code did not write, or damaged; it is recomputed and overwritten
    like a miss). `prune` keeps only those entries.
    """

    def __init__(self, cache_dir: Path, corpus_hash: str, config: PipelineConfig):
        cache_dir.mkdir(parents=True, exist_ok=True)
        self.dir = cache_dir
        self.corpus_hash = corpus_hash
        self.config = config
        self.ingest_name = f"{ingest_cache_key(corpus_hash, config)}.npz"
        self.lookups: dict[str, str] = {}

    def _pair_name(self, mentorship: MentorshipRecord) -> str:
        return f"{pair_cache_key(self.corpus_hash, mentorship, self.config)}.json"

    def _load(self, name: str, read: Callable[[Path], _Entry]) -> _Entry | None:
        try:
            entry, self.lookups[name] = read(self.dir / name), "hit"
        except FileNotFoundError:
            entry, self.lookups[name] = None, "miss"
        except _DAMAGED:
            entry, self.lookups[name] = None, "corrupt"
        return entry

    def _store(self, name: str, write: Callable[[BinaryIO], object]) -> None:
        """Write an entry to a temporary file renamed into place, so no
        reader sees a partial entry; `prune` removes what a cut write leaves."""
        path = self.dir / name
        tmp = path.with_name(f"{name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)

    def load_ingest(self) -> IngestResult | None:
        return self._load(self.ingest_name, _read_ingest)

    def store_ingest(self, result: IngestResult) -> None:
        self._store(self.ingest_name, lambda fh: _write_ingest(fh, result))

    def load_profile(self, mentorship: MentorshipRecord) -> PairProfile | None:
        return self._load(
            self._pair_name(mentorship),
            lambda path: PairProfile.from_dict(json.loads(path.read_text(encoding="utf-8"))),
        )

    def store_profile(self, mentorship: MentorshipRecord, profile: PairProfile) -> None:
        blob = json.dumps(profile.to_dict(), sort_keys=True).encode("utf-8")
        self._store(self._pair_name(mentorship), lambda fh: fh.write(blob))

    def prune(self) -> None:
        """Delete the entries not looked up, written under other settings,
        code or corpora or for other pairs, and temporary files left by an
        interrupted write. Other files stay."""
        for path in self.dir.iterdir():
            stale = path.suffix in (".json", ".npz") and path.name not in self.lookups
            if stale or path.suffix == ".tmp":
                path.unlink()


Failure = tuple[str, str, str, str]  # mentor_id, mentee_id, stage, reason


def _pair_result(
    mentorship: MentorshipRecord, index: CitationIndex, params: PairParams
) -> PairProfile | Failure:
    """One pair's profile, or its failure row if the chain raised."""
    try:
        return build_pair_profile(mentorship, index, params)
    except CociteError as exc:
        return mentorship.mentor_id, mentorship.mentee_id, exc.stage, str(exc)


_WORKER_ARGS: tuple[CitationIndex, PairParams] | None = None


def _init_worker(index: CitationIndex, params: PairParams) -> None:
    """The pool forks its workers, so each inherits the parent's index
    without a copy."""
    global _WORKER_ARGS
    _WORKER_ARGS = index, params


def _worker_pair_result(mentorship: MentorshipRecord) -> PairProfile | Failure:
    return _pair_result(mentorship, *_WORKER_ARGS)


@dataclass
class PairStageResult:
    profiles: list[PairProfile]
    failures: list[Failure]
    cache_hits: int
    cache_misses: int


def build_profiles(
    index: CitationIndex,
    mentorships: Sequence[MentorshipRecord],
    config: PipelineConfig,
    cache: Cache,
) -> PairStageResult:
    """Per-pair stage with fault isolation, each profile cached in `cache`.

    Each profile is stored as it comes in, and the cache is pruned only
    after a complete stage. Output order is (field, mentor_id, mentee_id)
    regardless of worker scheduling.
    """
    ordered = sorted(mentorships, key=lambda m: (m.field, m.mentor_id, m.mentee_id))

    results: dict[MentorshipRecord, PairProfile | Failure | None] = {
        m: cache.load_profile(m) for m in ordered
    }
    # Largest pairs first, so that the slowest does not start last.
    pending = sorted(
        (m for m, profile in results.items() if profile is None),
        key=lambda m: index.paper_count(m.mentor_id) + index.paper_count(m.mentee_id),
        reverse=True,
    )

    args = (index, config.pair_params())
    pool = None
    if pending and config.workers > 1:
        # The workers inherit the kernels' SciPy modules instead of each
        # importing them for its first pair.
        import scipy.sparse.csgraph  # noqa: F401

        # A forked pool starts all its workers at the first submit.
        pool = ProcessPoolExecutor(
            max_workers=min(config.workers, len(pending)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=args,
        )
        computed = pool.map(_worker_pair_result, pending)
    else:
        computed = (_pair_result(m, *args) for m in pending)
    try:
        for m, result in zip(pending, computed):
            results[m] = result
            if isinstance(result, PairProfile):
                cache.store_profile(m, result)
    finally:
        if pool is not None:
            # After an interrupt, only the pairs already running are awaited.
            pool.shutdown(cancel_futures=True)
    cache.prune()

    ordered_results = [results[m] for m in ordered]
    return PairStageResult(
        profiles=[r for r in ordered_results if isinstance(r, PairProfile)],
        failures=[r for r in ordered_results if not isinstance(r, PairProfile)],
        cache_hits=len(ordered) - len(pending),
        cache_misses=len(pending),
    )


# ---------------------------------------------------------------------------
# cohort stage


def assign_elites(profiles: Sequence[PairProfile], config: PipelineConfig) -> None:
    """Fill in the elite and outperforming flags across the cohort, in place.

    A mentee is elite when their windowed citation total reaches the cut of
    their field, or of the whole cohort under `elite_global`: the smallest
    total that ranks in the top `top_fraction` of its mentees. A mentee with
    several mentors counts once, with the total and field of their last
    profile. A pair is outperforming when its mentee is elite and their
    allocated impact strictly exceeds their mentor's.
    """
    last = {p.mentee_id: p for p in profiles}
    group = {m: None if config.elite_global else p.field for m, p in last.items()}
    totals: defaultdict[str | None, list[int]] = defaultdict(list)
    for m, p in last.items():
        totals[group[m]].append(p.mentee_citation_total)
    cut = {g: np.quantile(v, 1.0 - config.top_fraction, method="higher") for g, v in totals.items()}
    for p in profiles:
        # A Python bool, which _fmt writes as true or false; np.bool_ is not one.
        p.is_elite = bool(last[p.mentee_id].mentee_citation_total >= cut[group[p.mentee_id]])
        p.outperforming = p.is_elite and p.mentee_total_impact > p.mentor_total_impact


def profile_table(profiles: Sequence[PairProfile]) -> tuple[list[str], list[list[object]]]:
    header = [column for column, _, _ in PROFILE_COLUMNS]
    rows = [
        [encode(value(getattr(p, name))) for _, name, value in PROFILE_COLUMNS]
        for p in profiles
    ]
    return header, rows


def regression_table(profiles: Sequence[PairProfile], config: PipelineConfig) -> dict[str, list[float]]:
    """Column table for the model ladder, after cohort filters."""
    selected = [
        p
        for p in profiles
        if not config.regression_30y or (p.career_30y_mte and p.pre_1990_mte)
    ]
    cols = (LADDER_OUTCOME, *LADDER_COLUMNS)
    return {c: [float(getattr(p, c)) for p in selected] for c in cols}


CAREER_COLUMNS = ("role", "career_year", "yearly", "cumulative")


def career_rows(profile: PairProfile) -> Iterator[tuple[object, ...]]:
    """The CAREER_COLUMNS rows of one pair's mentee and mentor series."""
    for role, series in (("mentee", profile.mentee_series), ("mentor", profile.mentor_series)):
        for y in range(len(series.yearly)):
            yield role, y, series.yearly[y], series.cumulative[y]


def cohort_outputs(
    profiles: Sequence[PairProfile], config: PipelineConfig, out_dir: Path
) -> tuple[list[str], dict[str, str]]:
    """Write every cohort-level CSV. Returns the file names written and, for
    each file left header-only, the reason: the error that stopped its
    statistic, or "no rows"."""
    profile_header, profile_rows = profile_table(profiles)
    table = regression_table(profiles, config)
    xs, ys = table["ave_distance"], table[LADDER_OUTCOME]

    def ccdf_rows() -> Iterator[Sequence[object]]:
        for name, values in (
            ("C_e_total", [p.mentee_total_impact for p in profiles]),
            ("C_r_total", [p.mentor_total_impact for p in profiles]),
        ):
            for x, p_greater in zip(*ccdf(values)):
                yield name, float(x), float(p_greater)

    def strategy_rows() -> list[Sequence[object]]:
        counts = Counter(p.strategy.value for p in profiles)
        return [(s, c, c / len(profiles)) for s, c in sorted(counts.items())]

    def quadrant_rows() -> list[Sequence[object]]:
        # Quadrants of the (mentee - mentor) primary and secondary impact deltas.
        counts = quadrant_counts(
            [
                tuple(p.mentee_impact_by_type[t] - p.mentor_impact_by_type[t] for t in MENTOR_TYPES)
                for p in profiles
            ]
        )
        return [(q, counts[q], counts[q] / len(profiles)) for q in (1, 2, 3, 4)]

    def career_series_rows() -> Iterator[Sequence[object]]:
        """Cohort-average career series by role and elite group."""
        groups = {
            "all": profiles,
            "elite": [p for p in profiles if p.is_elite],
            "non_elite": [p for p in profiles if not p.is_elite],
        }
        for role in ("mentee", "mentor"):
            for group, members in groups.items():
                if members:
                    serieses = [getattr(p, f"{role}_series") for p in members]
                    means, ns = cohort_average_series(serieses)
                    for y in range(len(means)):
                        yield role, group, y, means[y], ns[y]

    def decade_rows() -> list[Sequence[object]]:
        """Cohort-mean decade composition by topic type."""
        acc: defaultdict[tuple[str, int, str], list[float]] = defaultdict(list)
        for p in profiles:
            for role in ("mentee", "mentor"):
                for decade, kinds in getattr(p, f"{role}_decade_ratios").items():
                    for kind, value in kinds.items():
                        acc[role, decade, kind.value].append(value)
        return [(*key, math.fsum(vals) / len(vals), len(vals)) for key, vals in sorted(acc.items())]

    def curve_rows() -> list[Sequence[object]]:
        curve = equal_count_bins(xs, ys, n_bins=config.n_bins)
        return [(i, *row) for i, row in enumerate(zip(curve.mean_x, curve.mean_y, curve.counts))]

    def regression_rows() -> list[Sequence[object]]:
        return [
            (model, name, res.beta[i], res.se[i], res.t[i], res.p[i], res.r2, res.adj_r2, res.n, res.df)
            for model, res in fit_model_ladder(table, log1p_outcome=config.log1p_outcome)
            for i, name in enumerate(res.names)
        ]

    # Every cohort output, in the order written: name -> (header, rows).
    outputs: dict[str, tuple[Sequence[str], Callable[[], Iterable[Sequence[object]]]]] = {
        "profiles.csv": (profile_header, lambda: profile_rows),
        "ccdf.csv": (["distribution", "x", "p_greater"], ccdf_rows),
        "strategy_fractions.csv": (["strategy", "count", "fraction"], strategy_rows),
        "topic_counts.csv": (
            ["n_topics", "count"],
            lambda: sorted(Counter(p.n_topics for p in profiles).items()),
        ),
        "impact_ratios.csv": (
            [
                "mentor_id",
                "mentee_id",
                "C_e_primary",
                "C_e_secondary",
                "C_e_new",
                "C_r_primary",
                "C_r_secondary",
                "C_e_total",
                "C_r_total",
            ],
            lambda: [
                (
                    p.mentor_id,
                    p.mentee_id,
                    *(p.mentee_impact_by_type[t] for t in MENTEE_TYPES),
                    *(p.mentor_impact_by_type[t] for t in MENTOR_TYPES),
                    p.mentee_total_impact,
                    p.mentor_total_impact,
                )
                for p in profiles
            ],
        ),
        # Every contribution is >= 0, so zero_impact marks exactly the pairs
        # whose shares have no total to normalise by.
        "ternary.csv": (
            ["mentor_id", "mentee_id", "share_primary", "share_secondary", "share_new"],
            lambda: [
                (p.mentor_id, p.mentee_id, *ternary_shares(p.mentee_impact_by_type))
                for p in profiles
                if not p.zero_impact
            ],
        ),
        "quadrants.csv": (["quadrant", "count", "fraction"], quadrant_rows),
        "pair_series.csv": (
            ["mentor_id", "mentee_id", *CAREER_COLUMNS],
            lambda: [(p.mentor_id, p.mentee_id, *row) for p in profiles for row in career_rows(p)],
        ),
        "career_series.csv": (
            ["role", "group", "career_year", "mean_cumulative", "n_contributors"],
            career_series_rows,
        ),
        "decade_ratios.csv": (
            ["role", "decade", "topic_type", "mean_ratio", "n_pairs"],
            decade_rows,
        ),
        # Distance-impact curve, quadratic fit and model ladder on the
        # regression cohort.
        "curve.csv": (["bin", "mean_x", "mean_y", "count"], curve_rows),
        "fit.csv": (
            [f.name for f in dc_fields(QuadraticFit)],
            lambda: [astuple(fit_quadratic(xs, ys))],
        ),
        "regression.csv": (
            ["model", "term", "beta", "se", "t", "p", "r2", "adj_r2", "n", "df"],
            regression_rows,
        ),
    }

    empty: dict[str, str] = {}
    for name, (header, rows) in outputs.items():
        try:
            computed, reason = list(rows()), "no rows"
        except CociteError as exc:
            computed, reason = [], f"{type(exc).__name__}: {exc}"
        if not computed:
            empty[name] = reason
        write_csv(out_dir / name, header, computed)
    return list(outputs), empty


# ---------------------------------------------------------------------------
# full run


@dataclass
class RunResult:
    out_dir: Path
    n_profiles: int
    n_failures: int
    cache_hits: int
    cache_misses: int
    manifest_path: Path


# The stages of a run, in order, as `run_stats.json` times them.
RUN_STAGES = ("digest", "ingest", "pair_stage", "cohort", "manifest")


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Digest, ingest, per-pair stage, cohort stage, report bundle, manifest.

    The ingest result and each profile are cached under `<out>/cache`.
    """
    check_config(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ends = [time.perf_counter()]  # the start, then the end of each stage

    corpus_hash = corpus_digest(config.papers, config.mentorships)
    ends.append(time.perf_counter())

    cache = Cache(out_dir / "cache", corpus_hash, config)
    ingest_result = ingest_corpus(config.papers, config.mentorships, config.ingest_config(), cache=cache)
    write_ingest_report(out_dir / "ingest_report.csv", ingest_result.report)
    written = ["ingest_report.csv"]
    ends.append(time.perf_counter())

    stage = build_profiles(ingest_result.index, ingest_result.mentorships, config, cache)
    ends.append(time.perf_counter())
    assign_elites(stage.profiles, config)

    write_csv(
        out_dir / "failures.csv",
        ["mentor_id", "mentee_id", "stage", "reason"],
        stage.failures,
    )
    written.append("failures.csv")

    cohort_files, empty_outputs = cohort_outputs(stage.profiles, config, out_dir)
    written += cohort_files
    ends.append(time.perf_counter())

    manifest = {
        "version": __version__,
        "config_hash": config.config_hash(),
        "corpus_hash": corpus_hash,
        "n_mentorships": len(ingest_result.mentorships),
        "n_profiles": len(stage.profiles),
        "n_failures": len(stage.failures),
        "files": {name: file_digest(out_dir / name) for name in sorted(written)},
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    ends.append(time.perf_counter())

    run_stats = {
        "cache_hits": stage.cache_hits,
        "cache_misses": stage.cache_misses,
        "cache_corrupt": list(cache.lookups.values()).count("corrupt"),
        "ingest_cache": cache.lookups[cache.ingest_name],
        "stages_s": dict(zip(RUN_STAGES, np.diff(ends).tolist())),
        "distance_substituted": sum(p.distance_substituted for p in stage.profiles),
        "zero_impact": sum(p.zero_impact for p in stage.profiles),
        "degenerate_median": sum(p.degenerate_median for p in stage.profiles),
        "empty_outputs": empty_outputs,
        "workers": config.workers,
        "peak_rss_mb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        },
    }
    (out_dir / "run_stats.json").write_text(
        json.dumps(run_stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    return RunResult(
        out_dir=out_dir,
        n_profiles=len(stage.profiles),
        n_failures=len(stage.failures),
        cache_hits=stage.cache_hits,
        cache_misses=stage.cache_misses,
        manifest_path=manifest_path,
    )
