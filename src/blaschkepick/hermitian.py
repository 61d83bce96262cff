"""Dense Hermitian linear algebra with explicit tolerance semantics.

Everything downstream (Schwarz-Pick matrices, Pick matrices, completions)
funnels its eigenvalue questions through this module so that rank and
definiteness always mean the same thing: a numerical rank counts
eigenvalues above tol * max(1, lambda_max), and definiteness tests compare
lambda_min against the same scale.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blaschke import _require_numbers
from .errors import ConvergenceFailure, Inconclusive, PrincipalNotPD

HERMITIAN_DEFECT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8
DEFAULT_PD_TOL = 1e-10


def _symmetrize(m: np.ndarray, strict: bool) -> tuple[np.ndarray, float]:
    """(M + M*) / 2 and the defect, the max-abs entry of M - M*, of a complex
    array, with the square and strict checks that :func:`make_report`
    states; a defect that is not finite, as a package-built matrix that
    overflowed gives, raises ValueError."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return m.copy(), 0.0
    mh = m.conj().T
    defect = float(np.abs(m - mh).max())
    if not math.isfinite(defect):
        raise ValueError(f"matrix entries must be finite, got a Hermitian defect of {defect}")
    if strict:
        _require_hermitian(defect, m)
    return 0.5 * (m + mh), defect


def _require_hermitian(defect: float, m, built: str | None = None) -> None:
    """The strict test of :func:`make_report`: raises ValueError when the
    defect of a matrix symmetrized from m exceeds
    HERMITIAN_DEFECT_TOL * max(1, |m|_inf).  A matrix the package built
    itself, named by `built`, raises Inconclusive instead: the caller's data
    were valid, but rounding in the build leaves its spectrum unreadable."""
    if m.size == 0:
        return
    limit = HERMITIAN_DEFECT_TOL * max(1.0, float(np.abs(m).max()))
    if defect > limit:
        if built is not None:
            raise Inconclusive(
                f"{built} is not Hermitian in floating point (defect {defect} exceeds {limit}), "
                "so its spectrum cannot back a verdict",
                defect,
                limit,
            )
        raise ValueError(f"matrix is not Hermitian: defect {defect} exceeds {limit}")


def eigen_h(matrix: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a symmetrized matrix; no caller reads an
    eigenbasis, so none is computed."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigvalsh did not converge: {exc}") from exc


def _require_tolerance(name: str, tol: float) -> None:
    """Raise ValueError unless tol is a finite nonnegative number."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} tolerance must be finite and nonnegative, got {tol!r}")


def _rank_above(w: np.ndarray, tol: float) -> int:
    """Count of ascending values w (eigenvalues, or singular values) above
    tol * max(1, the largest)."""
    if w.size == 0:
        return 0
    return int(np.count_nonzero(w > tol * max(1.0, float(w[-1]))))


def schur_complement(m, head: Sequence[int]) -> HermitianReport:
    """Report of the complement D - R P^{-1} R* of the principal block on
    `head`, at the default tolerances.

    `head` selects the rows/columns of the leading block P in the partition
    [[P, R*], [R, D]]; the complement lives on the remaining indices in
    ascending order.  m gets the strict Hermitian check of
    :func:`make_report`, and P must be positive definite (Cholesky is the
    test).

    With P = L L*, the complement is formed as D - Y* Y with Y = L^{-1} R*,
    which is Hermitian up to the rounding of Y* Y however much D and
    R P^{-1} R* cancel; the strict Hermitian test reads that rounding
    against the scale of Y* Y.
    """
    matrix, _ = _symmetrize(_require_numbers(m, "matrix", None), strict=True)
    return _schur(matrix, *_split(matrix.shape[0], head))


def _split(n: int, head: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Integer arrays of the distinct indices in head, in order of first
    appearance, and of the other indices of an n x n matrix, ascending.

    Raises ValueError for an index outside 0 .. n - 1.
    """
    head = list(dict.fromkeys(operator.index(i) for i in head))
    for i in head:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for a {n} x {n} matrix")
    in_head = set(head)
    tail = [i for i in range(n) if i not in in_head]
    return np.array(head, dtype=np.intp), np.array(tail, dtype=np.intp)


def _schur(mat: np.ndarray, head: np.ndarray, tail: np.ndarray) -> HermitianReport:
    """:func:`schur_complement` of the Hermitian matrix mat, given integer
    index arrays head and tail that partition its rows, tail ascending."""
    if not head.size:
        return make_report(mat[tail[:, None], tail])
    p = mat[head[:, None], head]
    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise PrincipalNotPD(f"principal block on {head.tolist()} is not positive definite") from exc
    if not tail.size:
        return make_report(np.zeros((0, 0), dtype=complex))
    y = np.linalg.solve(chol, mat[tail[:, None], head].conj().T)
    yy = y.conj().T @ y
    s, defect = _symmetrize(mat[tail[:, None], tail] - yy, strict=False)
    # D is exactly Hermitian, so any defect is rounding in Y* Y; judge it on
    # that product's scale, not on the complement's, which can be far smaller.
    _require_hermitian(defect, yy)
    return _read(s, defect, eigen_h(s), DEFAULT_RANK_TOL, DEFAULT_PD_TOL)


@dataclass(frozen=True, eq=False)
class HermitianReport:
    """Eigenvalue evidence for one symmetrized matrix, with the tolerances
    that read it; `defect` is the max-abs entry of M - M* before
    symmetrization."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    numerical_rank: int
    psd: bool
    pd: bool
    rank_tol: float
    pd_tol: float
    defect: float

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.eigenvalues.size else 0.0

    def rank_at(self, tol: float) -> int:
        """Numerical rank read at another cutoff, from the same eigenvalues."""
        _require_tolerance("rank", tol)
        return _rank_above(self.eigenvalues, tol)


def make_report(
    m,
    rank_tol: float = DEFAULT_RANK_TOL,
    pd_tol: float = DEFAULT_PD_TOL,
    *,
    strict: bool = True,
) -> HermitianReport:
    """Symmetrize m to (M + M*) / 2 and read its spectrum: rank at
    rank_tol, definiteness at pd_tol.

    Both tolerances must be finite and nonnegative, and m square (ValueError
    otherwise).  Its entries follow the number rule of
    :func:`blaschke._require_numbers`: TypeError for a non-number, a ragged
    nesting included, and ValueError for a NaN or infinite entry.  The
    report records the defect, the max-abs entry of M - M*.  With
    strict=True (the default) a defect above HERMITIAN_DEFECT_TOL *
    max(1, |M|_inf) raises ValueError; strict=False carries on, which is
    what feasibility checks on raw user data need.
    """
    _require_tolerance("rank", rank_tol)
    _require_tolerance("pd", pd_tol)
    matrix, defect = _symmetrize(_require_numbers(m, "matrix", None), strict)
    return _read(matrix, defect, eigen_h(matrix), rank_tol, pd_tol)


def _read(matrix: np.ndarray, defect: float, w: np.ndarray, rank_tol: float, pd_tol: float) -> HermitianReport:
    """The report of :func:`make_report` from the ascending spectrum w of the
    symmetrized matrix, at tolerances already checked.  Rank counts
    eigenvalues above rank_tol * max(1, lambda_max); PSD and PD compare
    lambda_min with -pd_tol and +pd_tol times the same scale."""
    if w.size:
        scale = max(1.0, float(w[-1]))
        psd = bool(w[0] >= -pd_tol * scale)
        pd = bool(w[0] > pd_tol * scale)
    else:
        psd, pd = True, True
    return HermitianReport(
        matrix=matrix,
        eigenvalues=w,
        numerical_rank=_rank_above(w, rank_tol),
        psd=psd,
        pd=pd,
        rank_tol=rank_tol,
        pd_tol=pd_tol,
        defect=defect,
    )
