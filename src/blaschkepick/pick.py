"""Pick matrices from raw boundary jet data: feasibility, corners, the completion record.

The data, ``JetData``, is a list of Taylor-type coefficients prescribed
at distinct points of the unit circle.  ``sp_boundary_structured`` on its
values and points assembles the Hankel x Psi x Toeplitz matrix of the
structured boundary route from the raw numbers instead of a function,
which is what turns it into a feasibility object: data read off an
actual Schur-class function always has unimodular leading values and a
positive semidefinite matrix, a positive definite matrix guarantees
infinitely many interpolants, and a singular PSD matrix leaves room for
at most one.  The same entry at orders raised by one on some points
builds the extended matrix: entry ((i, x), (j, y)) reads coefficients
through index x + y + 1 only, so the unraised matrix is its principal
submatrix without the new rows, and b_{2k_i+1} moves only the new corner
entry (:func:`corner_value`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .blaschke import (
    BlaschkeProduct,
    _finite_jets,
    _require_layout,
    _require_numbers,
    _require_orders,
    validate_points,
)
from .hermitian import HermitianReport, _require_tolerance, make_report
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

    modulus_ok: bool
    modulus_defects: tuple[float, ...]
    pick: HermitianReport

    def __bool__(self) -> bool:
        return self.modulus_ok and self.pick.psd


@dataclass(frozen=True, eq=False)
class Completion:
    """Record of the positive definite completion that ``decide`` certifies.

    `shift` was added to the diagonal entries listed in `complementary`
    (flat indices); everything else is unchanged.  It is the completion
    margin when any entry is listed and 0 otherwise: the extended matrix of
    a product's own jets is PSD by structure, so with its principal block
    positive definite any positive shift completes it.  `report` reads the
    modified matrix at the tolerances ``decide`` was given.
    """

    modified: SchwarzPickMatrix
    shift: float
    complementary: tuple[int, ...]
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
    return _admissibility([row[0] for row in data.values], p.flat, tol)


def _admissibility(leading, flat, tol: float) -> AdmissibilityReport:
    """The test of :func:`admissible` on the leading values w_0 and the
    structured matrix flat, at a tolerance already checked."""
    defects = tuple(abs(abs(complex(w)) - 1.0) for w in leading)
    report = make_report(flat, rank_tol=tol, pd_tol=tol, strict=False)
    return AdmissibilityReport(modulus_ok=all(d <= tol for d in defects), modulus_defects=defects, pick=report)


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
