"""Cohort-level statistics: CCDF, quadrants, ternary shares, binned curves,
and ordinary least squares with a fixed ladder of nested models.

All regression rows are complete cases over the union of every ladder
column, so R-squared comparisons across nested models are apples to apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateX, EmptyInput, InsufficientData, RankDeficient, TooFewRows
from .topics import TopicType

# p-value cutoff for calling the quadratic term significantly negative.
CURVE_ALPHA = 0.05


# ---------------------------------------------------------------------------
# distributions


def ccdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF on the strictly-greater convention.

    Returns sorted unique values x and P(X > x); the final probability is
    always 0.
    """
    if len(values) == 0:
        raise EmptyInput("no values for ccdf")
    arr = np.sort(np.asarray(values, dtype=float))
    xs, counts = np.unique(arr, return_counts=True)
    greater = arr.size - np.cumsum(counts)
    return xs, greater / arr.size


# ---------------------------------------------------------------------------
# quadrants and ternary shares


def quadrant_of(delta_primary: float, delta_secondary: float) -> int:
    """Quadrant of the (mentee - mentor) impact deltas; ties go to the
    non-exceeding side."""
    if delta_primary > 0 and delta_secondary > 0:
        return 1
    if delta_primary <= 0 and delta_secondary > 0:
        return 2
    if delta_primary <= 0 and delta_secondary <= 0:
        return 3
    return 4


def quadrant_counts(deltas: Sequence[tuple[float, float]]) -> dict[int, int]:
    if len(deltas) == 0:
        raise EmptyInput("no pairs for quadrant counts")
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for dp, ds in deltas:
        counts[quadrant_of(dp, ds)] += 1
    return counts


def ternary_shares(by_type: Mapping[TopicType, float]) -> tuple[float, float, float]:
    """Normalized (primary, secondary, new) shares of a nonzero impact total."""
    p = by_type.get(TopicType.PRIMARY, 0.0)
    s = by_type.get(TopicType.SECONDARY, 0.0)
    n = by_type.get(TopicType.NEW, 0.0)
    total = p + s + n
    return p / total, s / total, n / total


# ---------------------------------------------------------------------------
# binned curve


@dataclass(frozen=True)
class BinnedCurve:
    mean_x: tuple[float, ...]
    mean_y: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class QuadraticFit:
    intercept: float
    slope: float
    curvature: float
    p_curvature: float
    peak_x: float
    inverted_u: bool
    n: int


def equal_count_bins(x: Sequence[float], y: Sequence[float], n_bins: int = 20) -> BinnedCurve:
    """Bin y by x, of the same length, into n_bins groups of (near) equal
    size along sorted x."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size < n_bins:
        raise InsufficientData(f"{xa.size} points for {n_bins} bins")
    order = np.argsort(xa, kind="stable")
    chunks = np.array_split(order, n_bins)
    mean_x = tuple(float(xa[c].mean()) for c in chunks)
    mean_y = tuple(float(ya[c].mean()) for c in chunks)
    counts = tuple(int(c.size) for c in chunks)
    return BinnedCurve(mean_x=mean_x, mean_y=mean_y, counts=counts)


def fit_quadratic(x: Sequence[float], y: Sequence[float]) -> QuadraticFit:
    """Quadratic OLS on the raw scatter; the curve is summarized by the
    vertex location and whether the curvature is significantly negative."""
    xa = np.asarray(x, dtype=float)
    if np.unique(xa).size < 3:
        raise DegenerateX("need at least 3 distinct x values for a quadratic")
    res = fit_ols({"x": xa, "x_sq": xa * xa}, y)
    c0, b, a = res.beta
    p_a = res.p[2]
    peak = -b / (2.0 * a) if a != 0 else math.nan
    return QuadraticFit(
        intercept=c0,
        slope=b,
        curvature=a,
        p_curvature=p_a,
        peak_x=peak,
        inverted_u=a < 0 and p_a < CURVE_ALPHA,
        n=int(xa.size),
    )


# ---------------------------------------------------------------------------
# Student t tail


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """r with I_x(a, b) = x^a y^b / B(a, b) * r, for x below
    (a + 1) / (a + b + 2) and y = 1 - x: the continued fraction of
    DiDonato & Morris (1992, ACM TOMS 18:360, BFRAC). It takes y as given,
    so an x rounded next to 1 costs no digits; in the Numerical Recipes
    form (§6.4) it costs about a * 1e-16 relative.
    """
    # 1 + a - (a + b) x, from whichever of x and y is near 0
    c = 1.0 + ((a + b) * y - b if a > b else a - (a + b) * x)
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    p, s, r = 1.0, a + 1.0, c1 / c
    for n in range(1, 10_000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * (1.0 + y))
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df >= 1 degrees of freedom, as
    I_x(df/2, 1/2) with x = df / (df + t^2). Within about 1e-13 relative
    where p >= 1e-300; a smaller p may come out as 0."""
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    a = 0.5 * df
    u = t * t / df
    if u > 1e200:  # 1 + u is u, and u itself may overflow
        log1p_u, y = 2.0 * math.log(abs(t)) - math.log(df), 1.0
    else:
        log1p_u, y = math.log1p(u), u / (1.0 + u)
    x = 1.0 / (1.0 + u)
    # 1 / B(a, 1/2) = gamma(a + 1/2) / (gamma(a) sqrt(pi)); gamma overflows
    # past 171, and a difference of lgamma loses about 4e-12 up there.
    if a < 160:
        inv_beta = math.gamma(a + 0.5) / (math.gamma(a) * math.sqrt(math.pi))
    else:
        r = 1.0 / a
        inv_beta = math.sqrt(a / math.pi) * math.exp(-r / 8 + r**3 / 192 - r**5 / 640)
    front = math.exp(-a * log1p_u) * math.sqrt(y) * inv_beta
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x, y)
    return 1.0 - front * _beta_cf(0.5, a, y, x)


# ---------------------------------------------------------------------------
# ordinary least squares


@dataclass(frozen=True)
class OlsResult:
    names: tuple[str, ...]
    beta: tuple[float, ...]
    se: tuple[float, ...]
    t: tuple[float, ...]
    p: tuple[float, ...]
    r2: float
    adj_r2: float
    n: int
    df: int

    def coef(self, name: str) -> tuple[float, float, float, float]:
        """(beta, se, t, p) for one named regressor."""
        i = self.names.index(name)
        return self.beta[i], self.se[i], self.t[i], self.p[i]


def _independent_columns(x: np.ndarray, names: Sequence[str]) -> list[str]:
    """Names of columns that do not extend the span of their predecessors."""
    redundant = []
    kept = np.empty((x.shape[0], 0))
    rank = 0
    for j, name in enumerate(names):
        candidate = np.column_stack([kept, x[:, j]])
        cand_rank = int(np.linalg.matrix_rank(candidate))
        if cand_rank > rank:
            kept = candidate
            rank = cand_rank
        else:
            redundant.append(name)
    return redundant


def fit_ols(columns: Mapping[str, Sequence[float]], y: Sequence[float]) -> OlsResult:
    """Classical OLS with an intercept, analytic standard errors and
    two-sided t tests. Every column has the length of y.

    Raises TooFewRows when there are not enough rows for one residual
    degree of freedom, RankDeficient (naming the offending columns) when
    the design matrix is singular, and DegenerateX when the outcome has no
    variance to explain.
    """
    names = list(columns)
    ya = np.asarray(y, dtype=float)
    n = ya.size
    cols = [np.asarray(columns[name], dtype=float) for name in names]
    design = np.column_stack([np.ones(n)] + cols)
    names = ["intercept"] + names
    k = design.shape[1]
    if n < k + 1:
        raise TooFewRows(f"{n} rows for {k} parameters")
    if np.linalg.matrix_rank(design) < k:
        raise RankDeficient(tuple(_independent_columns(design, names)))

    beta, _, _, _ = np.linalg.lstsq(design, ya, rcond=None)
    resid = ya - design @ beta
    rss = float(resid @ resid)
    df = n - k
    tss = float(np.sum((ya - ya.mean()) ** 2))
    if tss == 0:
        raise DegenerateX("outcome has zero variance")
    sigma2 = rss / df
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    r2 = 1.0 - rss / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df
    return OlsResult(
        names=tuple(names),
        beta=tuple(float(b) for b in beta),
        se=tuple(float(s) for s in se),
        t=tuple(float(t) for t in t_stats),
        p=tuple(t_two_sided_p(float(t), df) for t in t_stats),
        r2=r2,
        adj_r2=adj_r2,
        n=n,
        df=df,
    )


# ---------------------------------------------------------------------------
# model ladder

MODEL_LADDER: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("m1_distance", ("ave_distance", "ave_distance_sq")),
    ("m2_career", ("ave_distance", "ave_distance_sq", "career_len_mte", "mte_work_count_first_5y")),
    (
        "m3_mentor",
        (
            "ave_distance",
            "ave_distance_sq",
            "career_len_mte",
            "mte_work_count_first_5y",
            "topic_num_mto",
            "mto_citation_impact",
        ),
    ),
    (
        "m4_collab",
        (
            "ave_distance",
            "ave_distance_sq",
            "career_len_mte",
            "mte_work_count_first_5y",
            "topic_num_mto",
            "mto_citation_impact",
            "colla_work_count",
        ),
    ),
    (
        "m5_collab_split",
        (
            "ave_distance",
            "ave_distance_sq",
            "career_len_mte",
            "mte_work_count_first_5y",
            "topic_num_mto",
            "mto_citation_impact",
            "colla_work_count_first_5y",
            "colla_work_count_later",
        ),
    ),
    (
        "m6_full",
        (
            "ave_distance",
            "ave_distance_sq",
            "career_len_mte",
            "mte_work_count_first_5y",
            "topic_num_mto",
            "mto_citation_impact",
            "colla_work_count_first_5y",
            "colla_work_count_later",
            "common_collaborators_count",
        ),
    ),
)

# The outcome every ladder model explains.
LADDER_OUTCOME = "mentee_total_impact"

# Every column some ladder model uses, in order of first use.
LADDER_COLUMNS: tuple[str, ...] = tuple(dict.fromkeys(c for _, cols in MODEL_LADDER for c in cols))


@dataclass(frozen=True)
class LadderResult:
    models: tuple[tuple[str, OlsResult], ...]
    n_rows: int
    n_dropped: int


def fit_model_ladder(
    table: Mapping[str, Sequence[float]], log1p_outcome: bool = False
) -> LadderResult:
    """Fit the whole model ladder on one shared complete-case row set of
    `table`, which holds the outcome and every ladder column.

    Rows with a non-finite value in the outcome or in any column used by
    any ladder model are dropped once, up front.
    """
    needed = (LADDER_OUTCOME, *LADDER_COLUMNS)
    arrays = {c: np.asarray(table[c], dtype=float) for c in needed}
    n_total = arrays[LADDER_OUTCOME].size
    mask = np.ones(n_total, dtype=bool)
    for c in needed:
        mask &= np.isfinite(arrays[c])
    n_rows = int(mask.sum())
    y = arrays[LADDER_OUTCOME][mask]
    if log1p_outcome:
        y = np.log1p(y)
    models = []
    for name, cols in MODEL_LADDER:
        res = fit_ols({c: arrays[c][mask] for c in cols}, y)
        models.append((name, res))
    return LadderResult(models=tuple(models), n_rows=n_rows, n_dropped=n_total - n_rows)
