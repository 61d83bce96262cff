"""Uniqueness decision for boundary contact problems with a finite Blaschke product.

A contact problem prescribes a finite Blaschke product b, distinct unit
circle points t_1 .. t_n and contact orders m_1 .. m_n.  A Schur-class
function f matches the problem when f(z) = b(z) + o((z - t_i)^{m_i})
radially at every point.  Writing k_i = floor((m_i + 1) / 2), the matching
functions collapse to f = b exactly when

    k_1 + ... + k_n  >  deg b,

and otherwise form an infinite family.  ``decide`` evaluates that
criterion and backs the verdict with matrix evidence:

* Unique:     the truncated-jet Pick matrix at orders k_i is positive
              semidefinite with numerical rank deg b, which is strictly
              below its size, so no positive definite completion exists.
* NonUnique:  the truncated matrix is positive definite; extending each
              even-order point by one derivative and raising the new
              bottom diagonal entries yields a positive definite extended
              matrix, and the raised entries are realized by explicit
              supplementary jet coefficients, so the jet problem stays
              solvable with room to spare.

The evidence is required to agree with the criterion; a contradiction
raises RankMismatch instead of silently overriding either side.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .blaschke import BlaschkeProduct, _require_finite
from .errors import RankMismatch
from .hermitian import (
    HermitianReport,
    _require_hermitian,
    _require_tolerance,
    eigen_h,
    make_hermitian,
    make_report,
    report_from_eigenvalues,
)
from .pick import Completion, _complete, _jet_data, _require_margin, build_pick, extend_pick
from .schwarz_pick import _structured_flat, validate_points

SUPPLEMENTARY_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for reading the matrix evidence.

    rank and pd are relative to max(1, lambda_max); completion_margin is
    multiplied by the same scale before completing.
    """

    rank: float = 1e-8
    pd: float = 1e-10
    completion_margin: float = 1.0

    def __post_init__(self):
        _require_tolerance("rank", self.rank)
        _require_tolerance("pd", self.pd)
        _require_margin(self.completion_margin)


@dataclass(frozen=True)
class ContactProblem:
    """A product b, distinct circle points, and contact orders m_i >= 1."""

    b: BlaschkeProduct
    points: tuple[complex, ...]
    contact_orders: tuple[int, ...]

    def __post_init__(self):
        pts = validate_points(self.points, on_circle=True)
        if not pts:
            raise ValueError("need at least one contact point")
        ms = _contact_orders(self.contact_orders)
        if len(ms) != len(pts):
            raise ValueError("points and contact_orders must have equal length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "contact_orders", ms)


@dataclass(frozen=True, eq=False)
class UniqueCertificate:
    """Singular PSD Pick matrix: rank = degree, strictly below the size."""

    rank: int
    order_total: int
    report: HermitianReport


@dataclass(frozen=True, eq=False)
class NonUniqueCertificate:
    """Positive definite completion of the extended jet problem.

    supplementary lists, per extended point index, the jet coefficient
    b_{2k+1} realizing the completed corner; roundtrip_residual is the
    max-abs difference between the completed matrix and the one rebuilt
    from the supplemented data.
    """

    completion: Completion
    extended_report: HermitianReport
    supplementary: tuple[tuple[int, complex], ...]
    odd_points: tuple[int, ...]
    even_points: tuple[int, ...]
    roundtrip_residual: float


@dataclass(frozen=True, eq=False)
class Verdict:
    """Decision plus the evidence it rests on."""

    unique: bool
    derivative_orders: tuple[int, ...]
    order_total: int
    degree: int
    pick: HermitianReport
    certificate: UniqueCertificate | NonUniqueCertificate

    @property
    def tag(self) -> str:
        return "unique" if self.unique else "non-unique"


def _contact_orders(contact_orders: Sequence[int]) -> tuple[int, ...]:
    """Contact orders as ints, each at least one (TypeError for a non-integral
    order, ValueError for one below one)."""
    ms = tuple(operator.index(m) for m in contact_orders)
    for m in ms:
        if m < 1:
            raise ValueError(f"contact orders must be at least one, got {m}")
    return ms


def criterion(contact_orders: Sequence[int], degree: int) -> bool:
    """The sharp combinatorial test: sum of floor((m_i + 1) / 2) > degree."""
    ms = _contact_orders(contact_orders)
    if operator.index(degree) < 0:
        raise ValueError("degree must be nonnegative")
    return sum((m + 1) // 2 for m in ms) > degree


def derivative_orders(contact_orders: Sequence[int]) -> tuple[int, ...]:
    """k_i = floor((m_i + 1) / 2) for each contact order."""
    return tuple((m + 1) // 2 for m in _contact_orders(contact_orders))


def decide(problem: ContactProblem, tolerances: Tolerances = Tolerances()) -> Verdict:
    """Decide the contact problem and assemble the matching certificate.

    The Pick matrix is built once from jets of b, at orders k_i + 1 on the
    even-order points of a non-unique problem and k_i everywhere else; the
    truncated matrix at orders k_i is its principal submatrix without the
    bottom rows of the extended blocks (see :func:`extend_pick`).  When the
    criterion says unique, the truncated matrix's numerical rank must equal
    deg b (strictly less than sum k_i); when it says non-unique, it must be
    positive definite, and the extension is completed.  Either check
    failing raises RankMismatch, since that means the numerics contradict
    an exact statement.  Each supplement is b_{2k+1} + shift / slope; a
    rebuilt corner that misses its target by more than
    SUPPLEMENTARY_RESIDUAL_TOL max(1, |target|) raises ValueError.
    """
    ks = derivative_orders(problem.contact_orders)
    k_total = sum(ks)
    d = problem.b.degree
    unique = k_total > d
    even = () if unique else tuple(i for i, m in enumerate(problem.contact_orders) if m % 2 == 0)
    data = _jet_data(problem.b, problem.points, tuple(2 * k + 1 for k in ks))
    p_tilde = extend_pick(data, ks, even) if even else build_pick(data, ks)
    corners = [p_tilde.row_index(i, ks[i]) for i in even]
    p_flat = p_tilde.flat
    if corners:
        principal = [j for j in range(len(p_flat)) if j not in corners]
        p_flat = p_flat[np.ix_(principal, principal)]
    pick_report = make_report(p_flat, rank_tol=tolerances.rank, pd_tol=tolerances.pd)

    if unique:
        if pick_report.numerical_rank != d:
            raise RankMismatch(
                f"criterion says unique (|k| = {k_total} > degree {d}) but the Pick matrix "
                f"has numerical rank {pick_report.numerical_rank} instead of {d}"
            )
        certificate = UniqueCertificate(
            rank=pick_report.numerical_rank, order_total=k_total, report=pick_report
        )
        return Verdict(
            unique=True,
            derivative_orders=ks,
            order_total=k_total,
            degree=d,
            pick=pick_report,
            certificate=certificate,
        )

    if not pick_report.pd:
        raise RankMismatch(
            f"criterion says non-unique (|k| = {k_total} <= degree {d}) but the truncated "
            f"Pick matrix is not positive definite (lambda_min = {pick_report.lambda_min})"
        )
    odd = tuple(i for i, m in enumerate(problem.contact_orders) if m % 2 == 1)
    if even:
        h_tilde = make_hermitian(p_tilde.flat, strict=False)
        w_tilde, _ = eigen_h(h_tilde)
        margin = tolerances.completion_margin * max(1.0, float(w_tilde[-1]))
        completion, h_completed = _complete(p_tilde, h_tilde, principal, corners, margin)

        # Only the corner moves with the top coefficient b_{2k+1}, with slope
        # (-1)^k t^(2k+1) conj(b_0) (corner_value); the supplement moves it
        # by the shift.
        values = [list(row) for row in data.values]
        corner_targets, supplementary = [], []
        for i, idx in zip(even, corners):
            k, t, row = ks[i], problem.points[i], values[i]
            slope = (-1.0) ** k * t ** (2 * k + 1) * row[0].conjugate()
            row[2 * k + 1] = _require_finite(row[2 * k + 1] + completion.shift / slope, "value")
            corner_targets.append((i, complex(completion.modified.flat[idx, idx])))
            supplementary.append((i, row[2 * k + 1]))
        completion = replace(completion, corner_targets=tuple(corner_targets))

        # Rebuild the extended matrix from the data with the supplements in
        # place of the product's own top coefficients.
        redone = _structured_flat(values, data.points, p_tilde.orders)
        for idx, (_, target) in zip(corners, corner_targets):
            residual = abs(redone[idx, idx] - target)
            bound = SUPPLEMENTARY_RESIDUAL_TOL * max(1.0, abs(target))
            if residual > bound:
                raise ValueError(f"supplemented corner misses its target by {residual}, above {bound}")
        roundtrip = float(np.max(np.abs(redone - completion.modified.flat)))
        # The strict Hermitian check, then the spectrum that the completion
        # computed from the same symmetrized matrix.
        _require_hermitian(h_completed, completion.modified.flat)
        extended_report = report_from_eigenvalues(
            h_completed,
            completion.eigenvalues,
            rank_tol=tolerances.rank,
            pd_tol=tolerances.pd,
        )
    else:
        # Nothing to extend: the completed matrix is the truncated one, whose
        # report has just shown it positive definite.
        completion = Completion(
            original=p_tilde,
            modified=p_tilde,
            shift=0.0,
            complementary=(),
            margin=tolerances.completion_margin * max(1.0, pick_report.lambda_max),
            eigenvalues=pick_report.eigenvalues,
        )
        supplementary, roundtrip, extended_report = [], 0.0, pick_report
    if not extended_report.pd:
        raise RankMismatch(
            f"completed extension failed to be positive definite "
            f"(lambda_min = {extended_report.lambda_min})"
        )
    certificate = NonUniqueCertificate(
        completion=completion,
        extended_report=extended_report,
        supplementary=tuple(supplementary),
        odd_points=odd,
        even_points=even,
        roundtrip_residual=roundtrip,
    )
    return Verdict(
        unique=False,
        derivative_orders=ks,
        order_total=k_total,
        degree=d,
        pick=pick_report,
        certificate=certificate,
    )


def matches_jets(candidate: BlaschkeProduct, problem: ContactProblem, tol: float = 1e-9) -> bool:
    """Whether a candidate product meets every contact condition of the problem.

    Compares Taylor coefficients of candidate and problem.b through order
    m_i at each point, entrywise within tol, which must be finite and
    nonnegative (ValueError otherwise).
    """
    _require_tolerance("jet match", tol)
    orders = problem.contact_orders
    want = _jet_data(problem.b, problem.points, orders).values
    got = _jet_data(candidate, problem.points, orders).values
    return all(abs(x - y) <= tol for row, ref in zip(got, want) for x, y in zip(row, ref))
