"""Dense Hermitian linear algebra with explicit tolerance semantics.

Everything downstream (Schwarz-Pick matrices, Pick matrices, completions)
funnels its eigenvalue questions through this module so that rank and
definiteness always mean the same thing: a numerical rank counts
eigenvalues above tol * max(1, lambda_max), and definiteness tests compare
lambda_min against the same scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import _require_numbers
from .errors import ConvergenceFailure, Inconclusive

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
