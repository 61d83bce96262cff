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
              bottom diagonal entries by the completion margin yields a
              positive definite extended matrix, and the raised entries
              are realized by explicit supplementary jet coefficients, so
              the jet problem stays solvable with room to spare.  Any
              positive shift completes: the extended matrix of b's own
              jets is P~ = R R*, positive semidefinite by structure, so
              with P positive definite the Schur complement of P in the
              shifted matrix is P~'s, PSD, plus the shift times I.

The evidence is required to agree with the criterion; a contradiction
raises RankMismatch instead of silently overriding either side.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .blaschke import BlaschkeProduct, _require_layout, _require_orders
from .errors import Inconclusive, RankMismatch
from .hermitian import (
    DEFAULT_PD_TOL,
    DEFAULT_RANK_TOL,
    HermitianReport,
    _require_hermitian,
    _require_tolerance,
    eigen_h,
)
from .pick import Completion, extract_data
from .schwarz_pick import PLAN_CACHE_SIZE, SchwarzPickMatrix, _structured_build, _structured_flat

SUPPLEMENTARY_RESIDUAL_TOL = 1e-10
# The completion's shift on the corner diagonal, relative to max(1, lambda_max(P~)).
COMPLETION_MARGIN = 1.0


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for reading the matrix evidence.

    rank and pd are relative to max(1, lambda_max).
    """

    rank: float = DEFAULT_RANK_TOL
    pd: float = DEFAULT_PD_TOL

    def __post_init__(self):
        _require_tolerance("rank", self.rank)
        _require_tolerance("pd", self.pd)


@dataclass(frozen=True)
class ContactProblem:
    """A product b, distinct circle points, and contact orders m_i >= 1."""

    b: BlaschkeProduct
    points: tuple[complex, ...]
    contact_orders: tuple[int, ...]

    def __post_init__(self):
        pts, ms = _require_layout(self.points, self.contact_orders, "contact orders")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "contact_orders", ms)


@dataclass(frozen=True, eq=False)
class UniqueCertificate:
    """Singular PSD Pick matrix: its numerical rank equals the degree, which
    is strictly below its size, the sum of the derivative orders.  The
    matrix and its report are the verdict's `pick`."""

    rank: int


@dataclass(frozen=True, eq=False)
class NonUniqueCertificate:
    """Positive definite completion of the extended jet problem.

    supplementary lists, per point whose block was extended by one row (the
    other points keep their orders), its index and the jet coefficient
    b_{2k+1} realizing the completed corner: the bottom diagonal entry the
    completion raised by its shift, at the flat index in
    `completion.complementary`.
    roundtrip_residual is the max-abs difference between the completed
    matrix and the one rebuilt from the supplemented data.
    """

    completion: Completion
    supplementary: tuple[tuple[int, complex], ...]
    roundtrip_residual: float

    @property
    def extended_report(self) -> HermitianReport:
        """The completion's report, which reads the completed matrix."""
        return self.completion.report


@dataclass(frozen=True, eq=False)
class Verdict:
    """Decision plus the evidence it rests on."""

    unique: bool
    derivative_orders: tuple[int, ...]
    degree: int
    pick: HermitianReport
    certificate: UniqueCertificate | NonUniqueCertificate

    @property
    def tag(self) -> str:
        return "unique" if self.unique else "non-unique"


def criterion(contact_orders: Sequence[int], degree: int) -> bool:
    """The sharp combinatorial test: sum of floor((m_i + 1) / 2) > degree."""
    ks = derivative_orders(contact_orders)
    if operator.index(degree) < 0:
        raise ValueError("degree must be nonnegative")
    return sum(ks) > degree


def derivative_orders(contact_orders: Sequence[int]) -> tuple[int, ...]:
    """k_i = floor((m_i + 1) / 2) for each contact order."""
    return tuple((m + 1) // 2 for m in _require_orders(contact_orders, "contact orders"))


def decide(problem: ContactProblem, tolerances: Tolerances = Tolerances()) -> Verdict:
    """Decide the contact problem and assemble the matching certificate.

    The Pick matrix is built once from jets of b, at orders k_i + 1 on the
    even-order points of a non-unique problem and k_i everywhere else, by
    :func:`_structured_build`, whose geometry serves the roundtrip rebuild
    too; one symmetrization serves the truncated matrix at orders k_i, its
    principal block without the bottom rows of the extended blocks (see
    :mod:`blaschkepick.pick`), and the completion.  When the criterion says
    unique, the truncated matrix's numerical rank must equal deg b (strictly
    less than sum k_i); when it says non-unique, it must be positive
    definite, and the extension is completed and must be positive definite
    too.  Any of these checks failing raises RankMismatch, since that means
    the numerics contradict an exact statement.  The completion adds the
    margin COMPLETION_MARGIN max(1, lambda_max(P~)) to the corners' diagonal
    as its shift: P~ = R R* is PSD by structure, so once P reads positive
    definite every positive shift completes, and the completed matrix's own
    checks are the certificate.  The truncated and the completed matrix get
    the strict Hermitian test of :func:`make_report`; failing it raises
    Inconclusive, since the data were valid but the rounding of the build
    hides the spectrum (the build refuses a non-finite entry so too).  Each
    supplement is b_{2k+1} + shift / slope; a rebuilt corner that misses its
    completed value by more than SUPPLEMENTARY_RESIDUAL_TOL max(1, |value|),
    or by NaN, raises Inconclusive too, a build of the package's own that
    failed on valid data.
    """
    ks = derivative_orders(problem.contact_orders)
    k_total, d = sum(ks), problem.b.degree
    unique = k_total > d
    even = () if unique else tuple(i for i, m in enumerate(problem.contact_orders) if m % 2 == 0)
    built = tuple(k + (i in even) for i, k in enumerate(ks))
    geometry, jets, flat = _structured_build(problem.b, problem.points, built)
    # (M + M*) / 2 and |M - M*| act entry by entry, so P's are the principal block of P~'s.
    flat_h = flat.conj().T
    sym, gap = 0.5 * (flat + flat_h), np.abs(flat - flat_h)
    p_flat, p_sym, p_gap = flat, sym, gap
    if even:
        # The bottom row of each extended block is its corner; the rest is P.
        corners, block, diagonal = _corner_split(built, even)
        p_flat, p_sym, p_gap = flat.take(block), sym.take(block), gap.take(block)
    pick = HermitianReport(p_sym, eigen_h(p_sym), tolerances.rank, tolerances.pd, float(p_gap.max()))
    _require_hermitian(pick.defect, p_flat, built="the Pick matrix")
    if unique and pick.numerical_rank != d:
        raise RankMismatch(
            f"criterion says unique (|k| = {k_total} > degree {d}) but the Pick matrix "
            f"has numerical rank {pick.numerical_rank} instead of {d}"
        )
    if not unique and not pick.pd:
        raise RankMismatch(
            f"criterion says non-unique (|k| = {k_total} <= degree {d}) but the truncated "
            f"Pick matrix is not positive definite (lambda_min = {pick.lambda_min})"
        )

    if unique:
        certificate = UniqueCertificate(rank=pick.numerical_rank)
    else:
        supplementary, roundtrip = [], 0.0
        if not even:
            # Nothing to extend: the completed matrix is the truncated one,
            # whose report has just shown it positive definite.
            p_tilde = SchwarzPickMatrix(flat=flat, points=problem.points, orders=built)
            completion = Completion(modified=p_tilde, shift=0.0, complementary=(), report=pick)
        else:
            shift = COMPLETION_MARGIN * max(1.0, float(eigen_h(sym)[-1]))
            # A real shift on the diagonal commutes with (M + M*) / 2 bit for
            # bit and leaves M - M* as it was, so sym with the shift is the
            # completed matrix symmetrized, with gap's defect.
            completed, completed_h = flat.copy(), sym.copy()
            completed.put(diagonal, flat.take(diagonal) + shift)
            completed_h.put(diagonal, sym.take(diagonal) + shift)
            report = HermitianReport(completed_h, eigen_h(completed_h), tolerances.rank, tolerances.pd, float(gap.max()))
            completion = Completion(
                modified=SchwarzPickMatrix(flat=completed, points=problem.points, orders=built),
                shift=shift,
                complementary=tuple(corners.tolist()),
                report=report,
            )

            # Only the corner moves with the top coefficient b_{2k+1}, with
            # slope (-1)^k t^(2k+1) conj(b_0) (corner_value); the supplement
            # moves it by the shift.
            supplemented = jets.copy()
            for i in even:
                k, t = ks[i], problem.points[i]
                slope = (-1.0) ** k * t ** (2 * k + 1) * complex(jets[i, 0]).conjugate()
                value = complex(jets[i, 2 * k + 1]) + shift / slope
                supplemented[i, 2 * k + 1] = value
                supplementary.append((i, value))

            # Rebuild the extended matrix from the jets with the supplements
            # in place of the product's own top coefficients.
            redone = _structured_flat(supplemented, *geometry)
            # Each |miss| and |target| is abs() of one complex number, which
            # np.hypot gives bit for bit; the array np.abs may differ in the last bit.
            target = completed.take(diagonal)
            miss = redone.take(diagonal) - target
            residual = np.hypot(miss.real, miss.imag)
            bound = SUPPLEMENTARY_RESIDUAL_TOL * np.maximum(1.0, np.hypot(target.real, target.imag))
            # Written so that a NaN residual misses too.
            for j in np.flatnonzero(~(residual <= bound))[:1]:
                message = f"supplemented corner misses its target by {residual[j]}, above {bound[j]}"
                raise Inconclusive(message, float(residual[j]), float(bound[j]))
            roundtrip = float(np.abs(redone - completed).max())
            # The strict Hermitian check of the completed matrix, whose
            # report was read at these tolerances.
            _require_hermitian(report.defect, completed, built="the completed matrix")
            if not report.pd:
                raise RankMismatch(
                    f"completed extension failed to be positive definite "
                    f"(lambda_min = {report.lambda_min})"
                )
        certificate = NonUniqueCertificate(
            completion=completion,
            supplementary=tuple(supplementary),
            roundtrip_residual=roundtrip,
        )
    return Verdict(unique=unique, derivative_orders=ks, degree=d, pick=pick, certificate=certificate)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _corner_split(built: tuple[int, ...], even: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only indices at orders built: the rows of the corners, the bottom
    row of each block in even, ascending, then the places of P, the matrix
    without those rows, and of the corners' diagonal entries in the raveled
    matrix, for ndarray.take."""
    n = sum(built)
    corners = (np.cumsum(built) - 1)[list(even)]
    principal = np.delete(np.arange(n), corners)
    split = corners, principal[:, None] * n + principal, corners * (n + 1)
    for array in split:
        array.flags.writeable = False
    return split


def matches_jets(candidate: BlaschkeProduct, problem: ContactProblem, tol: float = 1e-9) -> bool:
    """Whether a candidate product meets every contact condition of the problem.

    Compares Taylor coefficients of candidate and problem.b through order
    m_i at each point, entrywise within tol, which must be finite and
    nonnegative (ValueError otherwise).
    """
    _require_tolerance("jet match", tol)
    orders = problem.contact_orders
    want = extract_data(problem.b, problem.points, orders).values
    got = extract_data(candidate, problem.points, orders).values
    return all(abs(x - y) <= tol for row, ref in zip(got, want) for x, y in zip(row, ref))
