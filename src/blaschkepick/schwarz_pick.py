"""Schwarz-Pick matrices: interior, structured-boundary and radial routes.

For a function w analytic near the evaluation points, the Schwarz-Pick
matrix over points z_1 .. z_n with derivative orders k_1 .. k_n has block
(i, j) holding the mixed Taylor coefficients, through orders
(k_i - 1, k_j - 1), of the kernel

    K(z, u) = (1 - w(z) wh(u)) / (1 - z u)

expanded at (z_i, conj(z_j)).  Here wh is w with conjugated coefficients,
so that wh(conj(s)) = conj(w(s)); substituting u = conj(zeta) turns K into
the familiar two-variable Schwarz-Pick kernel of w.  For w in the Schur
class the matrix is positive semidefinite at interior points, and for a
finite Blaschke product it extends continuously to the circle.

Three independent computations of the boundary matrix live here and in
:mod:`blaschkepick.realization`:

* ``sp_boundary_structured`` closed Hankel x Psi x Toeplitz formulas in the
                             boundary Taylor coefficients,
* ``sp_via_realization``     the Gram matrix R R* of the resolvent rows of a
                             unitary realization of w,
* ``sp_boundary_radial``     the kernel coefficients at radius r = 1 - h,
                             each pair from one recurrence in place in
                             the numerator's coefficients (no reciprocal
                             series of 1 - z u is formed), read at h = 0
                             as a trapezoid mean over a circle in
                             complex h.

Agreement between the routes is the package's main internal consistency
check; they share no code beyond Taylor jets of w itself.  Interior
matrices, ``sp_interior``, are the realization's Gram matrix.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .blaschke import CIRCLE_TOL, BlaschkeProduct, _finite_jets, _jet_array, _require_finite, poles
from .errors import CoincidentPoints, ConvergenceFailure, DegenerateDenominator, InsufficientJet
from .realization import realize, sp_via_realization

DEGENERATE_DENOMINATOR_TOL = 1e-13
DISTINCT_POINT_TOL = 1e-12
RADIAL_CONVERGENCE_TOL = 1e-3
# The radial route's contour in h = 1 - r (see sp_boundary_radial): its node
# count, the ratio of the reach rho to its radius, and the constant of the
# rounding term of its error estimate.
CONTOUR_NODES = 32
CONTOUR_SHRINK = 6.0
CONTOUR_ROUNDING = 4.0
# exp(i pi (2m + 1) / CONTOUR_NODES) for m < CONTOUR_NODES / 2, then their
# conjugates; weights summing those upper-half nodes plainly and alternately.
_CONTOUR_UNITS = np.exp(1j * np.pi * (2 * np.arange(CONTOUR_NODES // 2) + 1) / CONTOUR_NODES)
_CONTOUR_UNITS = np.concatenate([_CONTOUR_UNITS, _CONTOUR_UNITS.conj()])
_CONTOUR_WEIGHTS = np.array([[1.0] * (CONTOUR_NODES // 2), [1.0, -1.0] * (CONTOUR_NODES // 4)], dtype=complex)
_STACK_ENTRIES = 1 << 14
# Order tuples whose shape plans stay cached; a plan of N flat rows holds
# about 50 N^2 bytes.
PLAN_CACHE_SIZE = 1024


@dataclass(frozen=True, eq=False)
class SchwarzPickMatrix:
    """Flat Hermitian-structured matrix plus its (point, derivative) block layout.

    Row block i spans offsets[i] .. offsets[i] + orders[i] - 1 and holds the
    derivative directions at points[i].  Schwarz-Pick matrices of functions
    and Pick matrices of raw jet data share this layout.
    """

    flat: np.ndarray
    points: tuple[complex, ...]
    orders: tuple[int, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.orders, initial=0))[:-1]

    def row_index(self, point_index: int, derivative: int) -> int:
        if not 0 <= derivative < self.orders[point_index]:
            raise IndexError(
                f"derivative {derivative} out of range for order {self.orders[point_index]}"
            )
        return self.offsets[point_index] + derivative

    def block(self, i: int, j: int) -> np.ndarray:
        """View of block (i, j); writing to it writes to `flat`."""
        off = self.offsets
        return self.flat[
            off[i] : off[i] + self.orders[i], off[j] : off[j] + self.orders[j]
        ]


class _ShapePlan(NamedTuple):
    """The read-only arrays of the structured identity that depend on the
    orders alone.  At flat row (i, x), column (j, y): `same` marks i == j,
    `pair_index` is i n + j, `exponent` is x + y + 1, and `factor` is
    (-1)^y binom(y, x) (Psi) where i == j and (-1)^x binom(x + y, x) (M)
    elsewhere, stored complex so that no arithmetic casts it again.
    `tri_index` and `hankel_index` gather T and Hk from the raveled
    coefficient table of :func:`_structured_flat`.
    """

    point: np.ndarray
    derivative: np.ndarray
    same: np.ndarray
    diagonal: np.ndarray
    pair_index: np.ndarray
    exponent: np.ndarray
    factor: np.ndarray
    tri_index: np.ndarray
    hankel_index: np.ndarray


@dataclass(frozen=True, eq=False)
class RadialDiagnostics:
    """Record of the radial route's contour mean.

    The mean ran over `nodes` points of the circle |h| = `radius` in
    h = 1 - r; `estimate` bounds its entrywise error, and `converged`
    states whether the estimate is at most `tol` times max(1, s), s the
    largest entry magnitude of the mean.
    """

    radius: float
    nodes: int
    estimate: float
    converged: bool
    tol: float


def _validate_orders(orders) -> tuple[int, ...]:
    ks = tuple(operator.index(k) for k in orders)
    if not ks:
        raise ValueError("need at least one point")
    for k in ks:
        if k < 1:
            raise ValueError(f"derivative orders must be positive, got {k}")
    return ks


def validate_points(points, *, on_circle: bool = False) -> tuple[complex, ...]:
    """Points as complex numbers, checked finite, pairwise distinct and, with
    on_circle, of modulus one within CIRCLE_TOL.

    Raises ValueError for a non-finite or off-circle point and
    CoincidentPoints for two points closer than DISTINCT_POINT_TOL.
    """
    pts = tuple(_require_finite(z, "point") for z in points)
    if on_circle:
        for t in pts:
            if abs(abs(t) - 1.0) > CIRCLE_TOL:
                raise ValueError(f"points must lie on the unit circle, got |t| = {abs(t)!r}")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < DISTINCT_POINT_TOL:
                raise CoincidentPoints(
                    f"points {pts[i]!r} and {pts[j]!r} coincide within {DISTINCT_POINT_TOL}"
                )
    return pts


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _shape_plan(ks: tuple[int, ...]) -> _ShapePlan:
    """The plan of orders ks, built on first use and kept in a bounded cache."""
    point = np.repeat(np.arange(len(ks)), ks)[:, None]
    r = np.concatenate([np.arange(k) for k in ks])[:, None]
    ell = r.T
    n = r + ell
    same = point == point.T
    width = 2 * max(ks) + 1
    binom = _pascal(width)
    plan = _ShapePlan(
        point=point,
        derivative=r,
        same=same,
        diagonal=np.arange(len(ks)),
        pair_index=point * len(ks) + point.T,
        exponent=n + 1,
        factor=np.where(same, (-1) ** ell * binom[ell, r], (-1) ** r * binom[n, r]).astype(complex),
        tri_index=point * width + np.where(same & (r >= ell), r - ell, width - 1),
        hankel_index=point * width + np.where(same, n + 1, width - 1),
    )
    for array in plan:
        array.flags.writeable = False
    return plan


def _kernel_stack(w, v, z, u, ks: tuple[int, ...]) -> np.ndarray:
    """Flat kernel matrices for a stack of center rows, shape (R, N, N).

    Row r pairs the z-centers z[r] with the u-centers u[r], both (R, n);
    w and v, (R, n, max(ks)), are the jets of w and of wh there.  Pair
    (i, j) holds the coefficients K[x, y] of the kernel at (z0, u0) =
    (z[r, i], u[r, j]).  Multiplying out (c - u0 h - z0 g - h g) K = N in
    h = z - z0, g = u - u0, with c = 1 - z0 u0 and N the numerator,
    N[0, 0] = 1 - w_0 v_0 and N[x, y] = -w_x v_y elsewhere, gives

        K[x, y] = (N[x, y] + u0 K[x-1, y] + z0 K[x, y-1] + K[x-1, y-1]) / c,

    a missing index counting as zero; it runs in place in N.  Coefficient
    (x, y) depends only on lower indices, so a block truncated to fewer
    terms is the leading corner of the full one.  The recurrence runs on the
    (R, n, n, K, K) stack of all pairs, K = max(ks), split along R into
    pieces of at most _STACK_ENTRIES coefficients, so that many points with
    one high order, which pad every pair to K x K, do not hold the whole
    padded stack in memory at once.  Raises DegenerateDenominator when some
    |c| < 1e-13.
    """
    if z.shape[1] != len(ks):
        raise ValueError("points and orders must have equal length")
    wz, vu = w[:, :, None, :, None], v[:, None, :, None, :]
    z0, u0 = z[:, :, None], u[:, None, :]
    c = 1.0 - z0 * u0
    bad = np.abs(c) < DEGENERATE_DENOMINATOR_TOL
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        zc, uc = np.broadcast_to(z0, bad.shape)[at], np.broadcast_to(u0, bad.shape)[at]
        raise DegenerateDenominator(
            f"1 - z0*u0 = {complex(c[at])!r} at centers ({complex(zc)!r}, {complex(uc)!r})"
        )
    plan = _shape_plan(ks)
    point, derivative = plan.point, plan.derivative
    k = max(ks)
    flat = np.empty((len(z), len(point), len(point)), dtype=complex)
    step = max(1, _STACK_ENTRIES // (len(ks) * k) ** 2)
    for lo in range(0, len(z), step):
        part = slice(lo, lo + step)
        zp, up, cp = z0[part], u0[part], c[part]
        coeffs = -wz[part] * vu[part]
        coeffs[..., 0, 0] += 1.0
        for x in range(k):
            for y in range(k):
                acc = coeffs[..., x, y]
                if x:
                    acc += up * coeffs[..., x - 1, y]
                if y:
                    acc += zp * coeffs[..., x, y - 1]
                if x and y:
                    acc += coeffs[..., x - 1, y - 1]
                acc /= cp
        flat[part] = coeffs[:, point, point.T, derivative, derivative.T]
    return flat


def sp_interior(b: BlaschkeProduct, points, orders) -> SchwarzPickMatrix:
    """Schwarz-Pick matrix at points of the open disk, as the Gram matrix
    R R* of the realization's resolvent rows (:func:`sp_via_realization`).

    No entry is formed by a subtraction that cancels as the points approach
    the circle, so every block, not only the constant term, stays accurate
    relative to the matrix's scale up to the circle.  Raises ValueError for
    a point with |z| >= 1 and for points and orders of unequal length.
    """
    ks = _validate_orders(orders)
    pts = validate_points(points)
    if len(pts) != len(ks):
        raise ValueError("points and orders must have equal length")
    for z in pts:
        if abs(z) >= 1.0:
            raise ValueError(f"interior route needs |z| < 1, got |z| = {abs(z)!r}")
    return SchwarzPickMatrix(flat=sp_via_realization(realize(b), pts, ks), points=pts, orders=ks)


@lru_cache(maxsize=None)
def _pascal(size: int) -> np.ndarray:
    """Read-only size x size table of binom(x, y), zero for y > x; the float
    sums are exact while the entries stay below 2**53."""
    table = np.zeros((size, size))
    table[:, 0] = 1.0
    for x in range(1, size):
        table[x, 1:] = table[x - 1, 1:] + table[x - 1, :-1]
    table.flags.writeable = False
    return table


def psi_matrix(t: complex, k: int) -> np.ndarray:
    """Upper triangular k x k matrix with entries (-1)^l binom(l, r) t^(l+r+1).

    Rows r and columns l are 0-based and the entry vanishes for r > l.  For
    |t| = 1 the determinant has modulus one, so the matrix is always
    invertible on the circle.
    """
    (t,) = validate_points([t], on_circle=True)
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be positive")
    plan = _shape_plan((k,))
    return plan.factor * t ** plan.exponent


def _coefficient_table(rows, ks: tuple[int, ...]) -> np.ndarray:
    """The (n, 2 max(ks) + 1) coefficient table of :func:`_structured_flat`,
    row i holding coefficients 0 .. 2 k_i - 1 of rows[i] and zeros after
    them.  Raises InsufficientJet for a row shorter than 2 k_i and
    ValueError for a non-finite coefficient among those."""
    table = np.zeros((len(ks), 2 * max(ks) + 1), dtype=complex)
    for i, (row, k) in enumerate(zip(rows, ks)):
        if len(row) < 2 * k:
            raise InsufficientJet(f"jet {i} has {len(row)} coefficients, need {2 * k}")
        table[i, : 2 * k] = row[: 2 * k]
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ValueError(f"jet {int(np.argmin(finite))} has a non-finite coefficient")
    return table


def _jet_table(b: BlaschkeProduct, pts: tuple[complex, ...], ks: tuple[int, ...]) -> np.ndarray:
    """The coefficient table of :func:`_structured_flat` at orders ks from
    b's own jets at checked points: every point through 2 max(ks) - 1 from
    one evaluation, checked finite, then the zero last column."""
    width = 2 * max(ks)
    table = np.zeros((len(ks), width + 1), dtype=complex)
    table[:, :width] = _finite_jets(b, pts, width - 1)
    return table


def _structured_flat(table: np.ndarray, pts: tuple[complex, ...], ks: tuple[int, ...]) -> np.ndarray:
    """The flat matrix of :func:`sp_boundary_structured` from the
    (n, 2 max(ks) + 1) coefficient table at checked points, with ks a tuple
    of positive ints.

    Row i is read below column 2 k_i only, so anything may stand beyond it
    there, but the last column must be zero for the gathers above the
    Toeplitz diagonals to point at.  M and Psi share one power array:
    base^(x + y + 1) with base t_i - t_j off the diagonal blocks and t_i on
    them.
    """
    plan = _shape_plan(ks)
    t = np.array(pts, dtype=complex)
    base = t[:, None] - t
    base[plan.diagonal, plan.diagonal] = t
    powers = base.ravel()[plan.pair_index] ** plan.exponent
    m = np.where(plan.same, 0.0, plan.factor / powers)
    psi = np.where(plan.same, plan.factor * powers, 0.0)
    coeff = table.ravel()
    tri = coeff[plan.tri_index]
    hankel = coeff[plan.hankel_index]
    return (hankel + tri @ m - m @ tri.T) @ psi @ tri.conj().T


def sp_boundary_structured(jets: Sequence[Sequence[complex]], points, orders) -> SchwarzPickMatrix:
    """Boundary Schwarz-Pick matrix, or Pick matrix of raw data, from
    boundary Taylor coefficients alone.

    jets[i] is the coefficient row w_0, w_1, .. at points[i]: an array of
    ``taylor_jet``, a row of ``JetData.values`` or any sequence.

    With rows and columns indexed by (point, derivative) pairs,

        P = (Hk + T M - M T^T) Psi T^*,

    where Hk, T and Psi are block diagonal: block i of Hk is the Hankel
    matrix of coefficients 1 .. 2 k_i - 1 at t_i, block i of T the lower
    triangular Toeplitz matrix of coefficients 0 .. k_i - 1, and block i of
    Psi is :func:`psi_matrix` at (t_i, k_i).  M vanishes on the diagonal
    blocks, and its entry in row (i, x), column (j, y), i != j, is the
    Taylor coefficient of 1 / (z - u) at (t_i, t_j),

        M[(i, x), (j, y)] = (-1)^x binom(x + y, x) / (t_i - t_j)^(x + y + 1).

    The formula looks one-sided but produces a Hermitian PSD matrix
    whenever the coefficients really are boundary jets of a Schur-class
    function.  Everything that depends on the orders alone comes from a
    cache of PLAN_CACHE_SIZE shapes.

    Requires distinct points on the circle and row i of length >= 2 k_i
    (InsufficientJet otherwise) with coefficients 0 .. 2 k_i - 1 finite
    (ValueError otherwise).
    """
    ks = _validate_orders(orders)
    pts = validate_points(points, on_circle=True)
    if not (len(jets) == len(pts) == len(ks)):
        raise ValueError("jets, points and orders must have equal length")
    flat = _structured_flat(_coefficient_table(jets, ks), pts, ks)
    return SchwarzPickMatrix(flat=flat, points=pts, orders=ks)


def sp_boundary_radial(b: BlaschkeProduct, points, orders) -> tuple[SchwarzPickMatrix, RadialDiagnostics]:
    """Boundary matrix as the value at h = 0 of the kernel coefficients at
    radius 1 - h, read as a trapezoid mean over a circle in complex h.

    At z_i = (1 - h) t_i and u_j = (1 - h) conj(t_j), with t_i the points
    scaled onto the circle, every block is analytic in h for |h| < rho, the
    distance in h to the nearest pole 1 / conj(a) of b and to the nearest
    off-diagonal zero of 1 - z u, at (1 - h)**2 = t_j / t_i.  On the
    diagonal the value at h = 0 is a removable 0 / 0, which the mean over
    the CONTOUR_NODES nodes h_m = R exp(i pi (2m + 1) / CONTOUR_NODES),
    R = min(rho, 1) / CONTOUR_SHRINK, reads with no cancellation and an
    error of order (R / rho)**CONTOUR_NODES (Trefethen & Weideman, SIAM
    Review 56 (2014)).  The matrix at conj(h) is the conjugate transpose of
    the one at h, so the kernel runs on the upper-half nodes only, and the
    mean (S + S^*) / CONTOUR_NODES of their sum S is Hermitian.

    The error estimate is the alternating-sign mean, the Fourier mode of
    order CONTOUR_NODES / 2, which stays far above the aliasing error, plus
    CONTOUR_ROUNDING eps max(1, max|node value|) binom(2K - 2, K - 1)
    (2R)**-(2K - 1), K = max(orders): what an absolute rounding error in
    the constant terms becomes in coefficient (K - 1, K - 1) through the
    recurrence of :func:`_kernel_stack`, whose homogeneous part is that of
    1 / (1 - z u) and whose divisor c is about 2R on the diagonal.
    `converged` states whether it is at most RADIAL_CONVERGENCE_TOL times
    max(1, largest entry of the mean).  Raises PoleEvaluation or
    DegenerateDenominator when a zero of b lies so close to the circle, or
    two points so close to each other, that a node meets a pole or a
    vanishing denominator, and ConvergenceFailure when the radius is so
    small for the orders that the mean or its estimate overflows.
    """
    ks = _validate_orders(orders)
    pts = validate_points(points, on_circle=True)
    units = [t / abs(t) for t in pts]
    pole_gaps = [abs(t - p) for p in poles(b) for t in units]
    # |1 - sqrt(conj(t_i) t_j)| = 2 |sin(theta_ij / 4)|
    pair_gaps = [abs(1.0 - cmath.sqrt(s.conjugate() * t)) for s, t in itertools.combinations(units, 2)]
    radius = min([1.0, *pole_gaps, *pair_gaps]) / CONTOUR_SHRINK
    # The z-centers at the upper-half nodes, then the conjugates of the
    # u-centers at the same nodes.
    half = CONTOUR_NODES // 2
    centers = np.multiply.outer(1.0 - radius * _CONTOUR_UNITS, units)
    k = max(ks)
    jets = _jet_array(b, centers, k - 1)
    # Overflow shows as an infinite or NaN mean or estimate, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        values = _kernel_stack(jets[:half], jets[half:].conj(), centers[:half], centers[half:].conj(), ks)
        total, alternating = (_CONTOUR_WEIGHTS @ values.reshape(half, -1)).reshape((2,) + values.shape[1:])
        mean = (total + total.conj().T) / CONTOUR_NODES
        rounding = CONTOUR_ROUNDING * sys.float_info.epsilon * max(1.0, float(np.abs(values).max()))
        rounding *= math.comb(2 * k - 2, k - 1) * np.float64(2.0 * radius) ** (1 - 2 * k)
        estimate = float(np.abs(alternating - alternating.conj().T).max() / CONTOUR_NODES + rounding)
    scale = float(np.abs(mean).max())
    if not (math.isfinite(estimate) and math.isfinite(scale)):
        raise ConvergenceFailure(
            f"the contour mean at radius {radius} overflows (error estimate {estimate}, "
            f"largest entry {scale})"
        )
    converged = estimate <= RADIAL_CONVERGENCE_TOL * max(1.0, scale)
    diags = RadialDiagnostics(radius, CONTOUR_NODES, estimate, converged, RADIAL_CONVERGENCE_TOL)
    return SchwarzPickMatrix(flat=mean, points=pts, orders=ks), diags
