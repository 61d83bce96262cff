"""Pick matrices from raw boundary jet data: feasibility, extension, completion.

The data, ``JetData``, is a list of Taylor-type coefficients prescribed
at distinct points of the unit circle.  ``sp_boundary_structured`` on its
values and points assembles the Hankel x Psi x Toeplitz matrix of the
structured boundary route from the raw numbers instead of a function,
which is what turns it into a feasibility object: data read off an
actual Schur-class function always has unimodular leading values and a
positive semidefinite matrix, a positive definite matrix guarantees
infinitely many interpolants, and a singular PSD matrix leaves room for
at most one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    _finite_jets,
    _require_layout,
    _require_numbers,
    _require_orders,
    validate_points,
)
from .hermitian import (
    DEFAULT_PD_TOL,
    DEFAULT_RANK_TOL,
    HermitianReport,
    _read,
    _require_tolerance,
    _schur,
    _split,
    _symmetrize,
    eigen_h,
    make_report,
)
from .schwarz_pick import SchwarzPickMatrix, _coefficient_table, psi_matrix, sp_boundary_structured

ADMISSIBLE_TOL = 1e-8


@dataclass(frozen=True)
class JetData:
    """Prescribed coefficients values[i][j] at circle points[i]; rows pass the jet row check."""

    points: tuple[complex, ...]
    values: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        pts = validate_points(self.points)
        if len(self.values) != len(pts):
            raise ValueError("points and values must have equal length")
        rows = [_require_numbers(row, f"values row {i}") for i, row in enumerate(self.values)]
        if not all(row.size for row in rows):
            raise ValueError("every point needs at least one prescribed value")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", tuple(tuple(row.tolist()) for row in rows))


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """Outcome of the feasibility check, truthiness being the verdict; `pick`
    holds the PSD reading and the tolerance it was read at."""

    ok: bool
    modulus_ok: bool
    modulus_defects: tuple[float, ...]
    pick: HermitianReport

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class Completion:
    """Record of a positive definite completion.

    `shift` was added to the diagonal entries listed in `complementary`
    (flat indices); everything else is unchanged.  `report` reads the
    modified matrix at the tolerances of the report it was completed from.
    """

    modified: object
    shift: float
    complementary: tuple[int, ...]
    margin: float
    report: HermitianReport


def extract_data(b: BlaschkeProduct, points, max_orders) -> JetData:
    """Read jets of b at the given circle points, through order max_orders[i].

    Points and orders get the layout check, with jet orders, before any
    jet is computed; raises PoleEvaluation for a point within 1e-12 of a
    pole.
    """
    pts, orders = _require_layout(points, max_orders, "max_orders", least=0)
    if not pts:
        return JetData(points=(), values=())
    jets = _finite_jets(b, pts, max(orders))
    return JetData(points=pts, values=tuple(tuple(row[: j + 1]) for row, j in zip(jets.tolist(), orders)))


def admissible(data: JetData, orders, tol: float = ADMISSIBLE_TOL) -> AdmissibilityReport:
    """Feasibility check: unimodular leading values and a PSD Pick matrix.

    The matrix from raw data need not be Hermitian; it is symmetrized with
    the defect recorded in the report, and the eigenvalue test reads
    lambda_min >= -tol * max(1, lambda_max).  tol must be finite and
    nonnegative (ValueError otherwise).
    """
    _require_tolerance("admissibility", tol)
    p = sp_boundary_structured(data.values, data.points, orders)
    defects = tuple(abs(abs(row[0]) - 1.0) for row in data.values)
    modulus_ok = all(d <= tol for d in defects)
    report = make_report(p.flat, rank_tol=tol, pd_tol=tol, strict=False)
    return AdmissibilityReport(
        ok=modulus_ok and report.psd,
        modulus_ok=modulus_ok,
        modulus_defects=defects,
        pick=report,
    )


def extend_pick(data: JetData, orders, extend_set) -> SchwarzPickMatrix:
    """Pick matrix with orders raised by one on the points in extend_set.

    Extended points need values through index 2 k_i + 1.  Entry
    ((i, x), (j, y)) reads coefficients through index x + y + 1 only, so
    the unraised matrix is the principal submatrix without the new rows,
    and b_{2k_i+1} moves only the new corner entry (:func:`corner_value`).
    The given orders get the order check, one per point of data.
    """
    ks = list(_require_orders(orders, "orders", count=len(data.points)))
    for i in set(operator.index(i) for i in extend_set):
        if not 0 <= i < len(ks):
            raise ValueError(f"extend index {i} out of range")
        ks[i] += 1
    return sp_boundary_structured(data.values, data.points, ks)


def corner_value(values: Sequence[complex], point: complex, order: int) -> complex:
    """Bottom diagonal entry of the one-step-extended diagonal block.

    With k = order and values b_0 .. b_{2k+1}, the entry is

        [b_{k+1} .. b_{2k+1}]  Psi_{k+1}(t)  [b_k .. b_0]^*

    which is affine in b_{2k+1} with slope (-1)^k t^(2k+1) conj(b_0).
    The values get the row check of :func:`sp_boundary_structured` at order
    k + 1: InsufficientJet for fewer than 2k + 2, TypeError or ValueError
    unless those are finite numbers.
    """
    (k,) = _require_orders((order,), "order", least=0)
    coeffs = _coefficient_table([values], (k + 1,))[0]
    return complex(coeffs[k + 1 : 2 * k + 2] @ psi_matrix(point, k + 1) @ coeffs[k::-1].conj())


def complete_to_pd(p_tilde, principal, margin: float = 1.0) -> Completion:
    """Raise the complementary diagonal until the whole matrix is PD.

    Args:
        p_tilde: SchwarzPickMatrix or plain square array.
        principal: flat indices of the block that must already be PD.
        margin: extra slack beyond the minimal shift; the shift is
            max(0, -lambda_min(S)) + margin with S the Schur complement of
            the principal block.  It must be finite and positive
            (ValueError otherwise), or the result need not be PD.

    Only the diagonal entries outside `principal` change.  Raises
    PrincipalNotPD when the principal block is not positive definite, and
    what :func:`make_report` raises for a matrix that is not square, holds
    a non-number or a non-finite entry.
    """
    _require_margin(margin)
    is_pick = isinstance(p_tilde, SchwarzPickMatrix)
    if not is_pick:
        p_tilde = _require_numbers(p_tilde, "matrix", None)
    matrix, defect = _symmetrize(p_tilde.flat if is_pick else p_tilde, strict=False)
    head, comp = _split(matrix.shape[0], principal)
    return _complete(p_tilde, matrix, defect, DEFAULT_RANK_TOL, DEFAULT_PD_TOL, head, comp, margin)


def _require_margin(margin: float) -> None:
    """Raise ValueError unless the completion margin is finite and positive."""
    if not (math.isfinite(margin) and margin > 0.0):
        raise ValueError(f"completion margin must be finite and positive, got {margin!r}")


def _complete(
    p_tilde, matrix: np.ndarray, defect: float, rank_tol: float, pd_tol: float,
    head: np.ndarray, comp: np.ndarray, margin: float,
) -> Completion:
    """:func:`complete_to_pd` given p_tilde, a SchwarzPickMatrix or a
    complex array, symmetrized as matrix with its defect, the checked
    tolerances that the completion's report reads at, and the principal
    indices split into integer arrays head and ascending complement comp.

    A real shift on the diagonal commutes with the symmetrization (M + M*) / 2
    bit for bit and leaves M - M* as it was, so the symmetrized modified
    matrix is `matrix` with the shift on the complement's diagonal, with the
    same defect.
    """
    is_pick = isinstance(p_tilde, SchwarzPickMatrix)
    flat = p_tilde.flat if is_pick else p_tilde
    # With an empty complement this only checks that the whole matrix is PD.
    s = _schur(matrix, head, comp)
    shift = max(0.0, -s.lambda_min) + float(margin) if comp.size else 0.0
    modified_flat = flat.copy()
    modified_flat[comp, comp] += shift
    modified_h = matrix.copy()
    modified_h[comp, comp] += shift
    return Completion(
        modified=SchwarzPickMatrix(modified_flat, p_tilde.points, p_tilde.orders) if is_pick else modified_flat,
        shift=shift,
        complementary=tuple(comp.tolist()),
        margin=float(margin),
        report=_read(modified_h, defect, eigen_h(modified_h), rank_tol, pd_tol),
    )

