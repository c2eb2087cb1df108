"""Exception types shared across the toolkit."""

from __future__ import annotations


class CociteError(Exception):
    """Base class for every error raised by this package.

    `stage` names the per-pair stage reported in failures.csv when the error
    ends a pair's chain.
    """

    stage = "profile"


# -- corpus ------------------------------------------------------------


class MalformedRecord(CociteError):
    """A JSONL line failed validation. Carries the line number and reason."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class DuplicatePaperId(CociteError):
    pass


class EmptyCorpus(CociteError):
    pass


# -- pair graphs -------------------------------------------------------


class EmptyPair(CociteError):
    """One side of a mentorship pair has no papers in the corpus."""

    stage = "pairs"


# -- communities / topics ----------------------------------------------


class NoRetainedTopics(CociteError):
    stage = "detect"


class MenteeNoTopics(CociteError):
    stage = "classify"


# -- distance ----------------------------------------------------------


class NoFinitePaths(CociteError):
    """No finite cross-pair path exists and no substitute length is defined."""

    stage = "distance"


# -- stats -------------------------------------------------------------


class EmptyInput(CociteError):
    pass


class InsufficientData(CociteError):
    pass


class DegenerateX(CociteError):
    pass


class RankDeficient(CociteError):
    """Design matrix is not full rank. Names the offending columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"collinear columns: {', '.join(self.columns)}")


class TooFewRows(CociteError):
    pass


# -- settings ----------------------------------------------------------


class InvalidConfig(CociteError):
    pass

