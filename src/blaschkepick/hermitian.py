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

from .errors import ConvergenceFailure, PrincipalNotPD

HERMITIAN_DEFECT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8
DEFAULT_PD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A symmetrized matrix together with the asymmetry it arrived with.

    `defect` is the max-abs entry of M - M* before symmetrization.
    """

    matrix: np.ndarray
    defect: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def make_hermitian(m, *, strict: bool = True, defect_tol: float = HERMITIAN_DEFECT_TOL) -> HermitianMatrix:
    """Symmetrize (M + M*) / 2, recording the defect.

    With strict=True (the default) a defect above defect_tol * max(1, |M|_inf)
    raises ValueError; strict=False records the defect and carries on, which
    is what feasibility checks on raw user data need.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return HermitianMatrix(matrix=m.copy(), defect=0.0)
    mh = m.conj().T
    h = HermitianMatrix(matrix=0.5 * (m + mh), defect=float(np.abs(m - mh).max()))
    if strict:
        _require_hermitian(h, m, defect_tol)
    return h


def _require_hermitian(h: HermitianMatrix, m, defect_tol: float = HERMITIAN_DEFECT_TOL) -> None:
    """The strict test of :func:`make_hermitian` on h, already symmetrized
    from m: raises ValueError when h.defect exceeds defect_tol * max(1, |m|_inf)."""
    if h.n == 0:
        return
    scale = max(1.0, float(np.abs(m).max()))
    if h.defect > defect_tol * scale:
        raise ValueError(f"matrix is not Hermitian: defect {h.defect} exceeds {defect_tol * scale}")


def _as_hermitian(m) -> HermitianMatrix:
    return m if isinstance(m, HermitianMatrix) else make_hermitian(m)


def eigen_h(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending real eigenvalues and an orthonormal eigenbasis."""
    h = _as_hermitian(m)
    try:
        w, v = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return w, v


def _require_tolerance(name: str, tol: float) -> None:
    """Raise ValueError unless tol is a finite nonnegative number."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} tolerance must be finite and nonnegative, got {tol!r}")


def _rank_above(w: np.ndarray, tol: float) -> int:
    """Count of ascending eigenvalues w above tol * max(1, lambda_max)."""
    if w.size == 0:
        return 0
    return int(np.count_nonzero(w > tol * max(1.0, float(w[-1]))))


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of eigenvalues above tol * max(1, lambda_max); tol must be
    finite and nonnegative."""
    _require_tolerance("rank", tol)
    h = _as_hermitian(m)
    if h.n == 0:
        return 0
    return _rank_above(eigen_h(h)[0], tol)


def schur_complement(m, head: Sequence[int]) -> HermitianMatrix:
    """Complement D - R P^{-1} R* of the principal block on `head`.

    `head` selects the rows/columns of the leading block P in the partition
    [[P, R*], [R, D]]; the complement lives on the remaining indices in
    ascending order.  P must be positive definite (Cholesky is the test).

    With P = L L*, the complement is formed as D - Y* Y with Y = L^{-1} R*,
    which is Hermitian up to the rounding of Y* Y however much D and
    R P^{-1} R* cancel; the strict Hermitian test reads that rounding
    against the scale of Y* Y.
    """
    h = _as_hermitian(m)
    n = h.n
    head = list(dict.fromkeys(operator.index(i) for i in head))
    for i in head:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for a {n} x {n} matrix")
    in_head = set(head)
    tail = [i for i in range(n) if i not in in_head]
    mat = h.matrix
    if not head:
        return make_hermitian(mat[np.ix_(tail, tail)])
    p = mat[np.ix_(head, head)]
    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise PrincipalNotPD(f"principal block on {head} is not positive definite") from exc
    if not tail:
        return HermitianMatrix(matrix=np.zeros((0, 0), dtype=complex), defect=0.0)
    y = np.linalg.solve(chol, mat[np.ix_(tail, head)].conj().T)
    yy = y.conj().T @ y
    s = make_hermitian(mat[np.ix_(tail, tail)] - yy, strict=False)
    # D is exactly Hermitian, so any defect is rounding in Y* Y; judge it on
    # that product's scale, not on the complement's, which can be far smaller.
    _require_hermitian(s, yy)
    return s


@dataclass(frozen=True, eq=False)
class HermitianReport:
    """Eigenvalue evidence for one matrix, with the tolerances that read it."""

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
    """Full eigenvalue report: rank at rank_tol, definiteness at pd_tol.

    Both tolerances must be finite and nonnegative (ValueError otherwise).
    """
    h = make_hermitian(m, strict=strict) if not isinstance(m, HermitianMatrix) else m
    w, _ = eigen_h(h)
    return report_from_eigenvalues(h, w, rank_tol, pd_tol)


def report_from_eigenvalues(
    h: HermitianMatrix, eigenvalues: np.ndarray, rank_tol: float, pd_tol: float
) -> HermitianReport:
    """The report of :func:`make_report`, read from the ascending spectrum of
    h.matrix that :func:`eigen_h` already returned, without decomposing again."""
    _require_tolerance("rank", rank_tol)
    _require_tolerance("pd", pd_tol)
    w = eigenvalues
    if w.size:
        scale = max(1.0, float(w[-1]))
        psd = bool(w[0] >= -pd_tol * scale)
        pd = bool(w[0] > pd_tol * scale)
    else:
        psd, pd = True, True
    return HermitianReport(
        matrix=h.matrix,
        eigenvalues=w,
        numerical_rank=_rank_above(w, rank_tol),
        psd=psd,
        pd=pd,
        rank_tol=rank_tol,
        pd_tol=pd_tol,
        defect=h.defect,
    )
