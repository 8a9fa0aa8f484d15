"""Problem carriers for the embedded LP/MILP engine."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LE", "GE", "EQ", "LinearProgram", "MilpProblem", "SolveResult"]

LE = 0
GE = 1
EQ = 2


@dataclass
class LinearProgram:
    """Dense LP: objective, constraint rows with relations, variable bounds.

    Bounds may be +/-inf but not NaN; coefficients must be finite.  LPs
    made from one another (``with_objective``) share arrays, so none is
    changed in place.
    """

    c: np.ndarray
    A: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sense: str = "min"
    # The objective-free standard form of the rows and bounds, which the
    # first cold solve builds (``simplex``); ``with_objective`` shares it.
    _standard: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        n = self.c.size
        if n == 0:
            raise ValueError("LP needs at least one variable")
        self.A = np.asarray(self.A, dtype=np.float64).reshape(-1, n)
        self.rel = np.asarray(self.rel, dtype=np.int64).reshape(-1)
        self.rhs = np.asarray(self.rhs, dtype=np.float64).reshape(-1)
        if not (self.A.shape[0] == self.rel.size == self.rhs.size):
            raise ValueError("constraint rows, relations and rhs sizes disagree")
        self.lo, self.hi = _bounds(self.lo, self.hi, n)
        if not np.all(np.isfinite(self.A)) or not np.all(np.isfinite(self.c)):
            raise ValueError("LP coefficients must be finite")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("LP right-hand sides must be finite")
        _check_sense(self.sense)

    @classmethod
    def _built(cls, c, A, rel, rhs, lo, hi, sense) -> LinearProgram:
        """An LP from arrays that already have the dtypes and shapes the
        checks give them, without the checks: an encoder's rows are valid as
        it builds them."""
        lp = cls.__new__(cls)
        lp.c, lp.A, lp.rel, lp.rhs, lp.lo, lp.hi, lp.sense = c, A, rel, rhs, lo, hi, sense
        lp._standard = None
        return lp

    @property
    def num_vars(self) -> int:
        return self.c.size

    def with_objective(self, c, sense: str) -> LinearProgram:
        """The same LP under another objective and sense.  It shares ``A``,
        ``rel``, ``rhs``, ``lo`` and ``hi``, which are not validated again,
        and the standard form a cold solve has built of them."""
        c = np.asarray(c, dtype=np.float64).reshape(-1)
        if c.size != self.num_vars:
            raise ValueError("objective size disagrees with variable count")
        if not np.all(np.isfinite(c)):
            raise ValueError("LP coefficients must be finite")
        _check_sense(sense)
        lp = copy.copy(self)
        lp.c, lp.sense = c, sense
        return lp


def _check_sense(sense: str) -> None:
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")


def _bounds(lo, hi, n: int):
    lo = np.asarray(lo, dtype=np.float64).reshape(-1)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1)
    if lo.size != n or hi.size != n:
        raise ValueError("bounds sizes disagree with variable count")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("variable bounds must not be NaN")
    return lo, hi


@dataclass
class MilpProblem:
    """An LP plus the set of variables restricted to {0, 1}."""

    lp: LinearProgram
    binary_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.binary_idx = np.asarray(self.binary_idx, dtype=np.int64).reshape(-1)
        n = self.lp.num_vars
        if self.binary_idx.size:
            if self.binary_idx.min() < 0 or self.binary_idx.max() >= n:
                raise ValueError("binary index out of range")
            if np.unique(self.binary_idx).size != self.binary_idx.size:
                raise ValueError("binary indices must be distinct")
            # Branch and bound fixes a binary at 0 or 1, which a warm start
            # can do only in the box [0, 1].
            box = np.concatenate([self.lp.lo[self.binary_idx], self.lp.hi[self.binary_idx]])
            if not np.all((box == 0.0) | (box == 1.0)):
                raise ValueError("binary bounds must each be 0 or 1")

    @classmethod
    def _built(cls, lp: LinearProgram, binary_idx: np.ndarray) -> MilpProblem:
        """A problem from an int64 index array of distinct binaries whose
        bounds are each 0 or 1, without the checks."""
        milp = cls.__new__(cls)
        milp.lp, milp.binary_idx = lp, binary_idx
        return milp

    def with_objective(self, c, sense: str) -> MilpProblem:
        """The same problem under another objective and sense
        (``LinearProgram.with_objective``)."""
        milp = copy.copy(self)
        milp.lp = self.lp.with_objective(c, sense)
        return milp


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "node_limit" | "iteration_limit"
    objective: float | None = None
    x: np.ndarray | None = None
    nodes: int = 0
    # The final tableau of an optimal simplex solve.  A branch-and-bound
    # child, one more binary fixed, re-solves from a copy of it with only its
    # right-hand sides moved (``simplex_solve(lp, warm=(result, j, value))``).
    _tableau: object = field(default=None, repr=False, compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"
