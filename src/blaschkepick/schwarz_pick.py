"""Schwarz-Pick matrices: kernel-series, structured-boundary and radial routes.

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

* ``sp_interior``           the kernel series itself, usable up to |z| < 1,
* ``sp_boundary_structured`` closed Hankel x Psi x Toeplitz formulas in the
                             boundary Taylor coefficients,
* ``sp_boundary_radial``     the radial limit of ``sp_interior`` along a
                             schedule of radii.

Agreement between the routes is the package's main internal consistency
check; they share no code beyond Taylor jets of w itself.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .blaschke import (
    CIRCLE_TOL,
    BlaschkeProduct,
    Jet,
    _jet_array,
    _require_finite,
    modulus_defect,
)
from .errors import CoincidentPoints, DegenerateDenominator, InsufficientJet

DEGENERATE_DENOMINATOR_TOL = 1e-13
DISTINCT_POINT_TOL = 1e-12
DEFAULT_RADIAL_SCHEDULE: tuple[float, ...] = tuple(1.0 - 2.0 ** -m for m in range(4, 21))
RADIAL_CONVERGENCE_TOL = 1e-3
_STACK_ENTRIES = 1 << 14
# Order tuples whose shape plans stay cached; a plan of N flat rows holds
# about 50 N^2 bytes.
PLAN_CACHE_SIZE = 1024


@dataclass(frozen=True, eq=False)
class BivariateJet:
    """Mixed Taylor coefficients of a function of (z, u) at (center_z, center_u).

    coefficients[i, j] multiplies (z - center_z)**i (u - center_u)**j and
    equals the (i, j) mixed derivative divided by i! j!.
    """

    center_z: complex
    center_u: complex
    coefficients: np.ndarray


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
    """Convergence record of the radial route.

    step_deltas[m] is the max-abs entrywise change between schedule steps m
    and m+1; final_delta is the last per-entry change; `converged` states
    whether the last step moved every entry by less than `tol` relative to
    max(1, s), where s is the largest entry magnitude of the iterate that
    ends the smallest step.
    """

    radii: tuple[float, ...]
    step_deltas: tuple[float, ...]
    final_delta: np.ndarray
    converged: bool
    tol: float


def kernel_jet(
    w_jet_z: Jet,
    w_conj_jet_u: Jet,
    orders: tuple[int, int],
    constants: tuple[float, float] | None = None,
) -> BivariateJet:
    """Truncated expansion of (1 - w(z) wh(u)) / (1 - z u).

    Args:
        w_jet_z: coefficients of w at the z-center.
        w_conj_jet_u: coefficients of the conjugated function wh at the
            u-center; for u0 = conj(s0) these are the conjugates of the
            coefficients of w at s0.
        orders: highest retained powers (l_max, r_max) of (z - z0), (u - u0).
        constants: optional pair (1 - z0 u0, 1 - w(z0) wh(u0)) replacing the
            constant terms of the denominator and the numerator.  Both
            quantities shrink together as a conjugate pair of centers
            approaches the circle; forming them by direct subtraction then
            leaves only absolute accuracy, which the division blows up by
            roughly |1 - z0 u0|**-(l + r).  Callers that can evaluate the
            pair in a cancellation-free way, and from one shared value of
            1 - |z0|**2, should pass it here.

    This is the one-pair case of :func:`_kernel_series`, the recurrence that
    :func:`sp_interior` and :func:`sp_boundary_radial` run on whole stacks
    of center pairs; see there for the arithmetic.  Raises
    DegenerateDenominator when |1 - z0 u0| < 1e-13, and InsufficientJet when
    a jet is shorter than the requested order needs.
    """
    lmax, rmax = operator.index(orders[0]), operator.index(orders[1])
    if lmax < 0 or rmax < 0:
        raise ValueError("orders must be nonnegative")
    if len(w_jet_z.coefficients) < lmax + 1:
        raise InsufficientJet(
            f"z-jet has {len(w_jet_z.coefficients)} coefficients, need {lmax + 1}"
        )
    if len(w_conj_jet_u.coefficients) < rmax + 1:
        raise InsufficientJet(
            f"u-jet has {len(w_conj_jet_u.coefficients)} coefficients, need {rmax + 1}"
        )
    z0 = w_jet_z.center
    u0 = w_conj_jet_u.center
    w = np.asarray(w_jet_z.coefficients[: lmax + 1], dtype=complex)
    v = np.asarray(w_conj_jet_u.coefficients[: rmax + 1], dtype=complex)
    if constants is None:
        c, n0 = 1.0 - z0 * u0, 1.0 - w[0] * v[0]
    else:
        c, n0 = complex(constants[0]), complex(constants[1])
    coeffs = _kernel_series(w, v, z0, u0, c, n0)
    return BivariateJet(center_z=z0, center_u=u0, coefficients=coeffs)


def _first(mask: np.ndarray) -> tuple:
    """Index of the first True entry of `mask`, in row-major order."""
    return tuple(np.argwhere(mask)[0])


def _kernel_series(w, v, z0, u0, c, n0) -> np.ndarray:
    """Kernel coefficients for a stack of center pairs, shape (..., P, Q).

    w (..., P) and v (..., Q) are the jets of w at z0 and of wh at u0; z0,
    u0, the denominator constants c = 1 - z0 u0 and the numerator constants
    n0 broadcast over the stack dimensions.  The quotient is evaluated as
    numerator times the reciprocal series R = 1 / (1 - z u), whose
    coefficients follow from multiplying out (c - z0 g - u0 h - h g) R = 1
    in h = z - z0, g = u - u0:

        R[0, 0] = 1 / c,
        R[i, j] = (z0 R[i, j-1] + u0 R[i-1, j] + R[i-1, j-1]) / c,

    a missing index counting as zero.  When z0 u0 = 1 - c is real and
    positive, as for a conjugate pair of centers, the three terms share one
    phase, so each coefficient keeps a relative error of order (i + j) eps
    even when c is tiny; dividing the numerator series directly would
    instead divide every rounding error by c again at each later index it
    feeds.  The product is one shifted add of R per numerator coefficient.
    Coefficient (i, j) depends only on lower indices, so a block truncated
    to fewer terms is the leading corner of the full one.  Raises
    DegenerateDenominator when some |c| < 1e-13.
    """
    c = np.asarray(c)
    bad = np.abs(c) < DEGENERATE_DENOMINATOR_TOL
    if bad.any():
        at = _first(bad)
        zc, uc = np.broadcast_to(z0, bad.shape)[at], np.broadcast_to(u0, bad.shape)[at]
        raise DegenerateDenominator(
            f"1 - z0*u0 = {complex(c[at])!r} at centers ({complex(zc)!r}, {complex(uc)!r})"
        )
    num = -w[..., :, None] * v[..., None, :]
    num[..., 0, 0] = n0
    rows, cols = num.shape[-2:]
    recip = np.zeros(num.shape, dtype=complex)
    recip[..., 0, 0] = 1.0 / c
    for i in range(rows):
        for j in range(cols):
            if i == 0 and j == 0:
                continue
            acc = z0 * recip[..., i, j - 1] if j else 0.0
            if i:
                acc = acc + u0 * recip[..., i - 1, j]
                if j:
                    acc = acc + recip[..., i - 1, j - 1]
            recip[..., i, j] = acc / c
    coeffs = np.zeros(num.shape, dtype=complex)
    for p in range(rows):
        for q in range(cols):
            coeffs[..., p:, q:] += num[..., p, q, None, None] * recip[..., : rows - p, : cols - q]
    return coeffs


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


def _interior_stack(b: BlaschkeProduct, centers: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """Flat Schwarz-Pick matrices at every row of `centers`, shape (R, N, N).

    Row r of the (R, n) array `centers` holds the n points of one matrix
    with derivative orders ks; every row must be distinct points inside the
    disk, away from the poles.  One kernel recurrence runs on the
    (R, n, n, K, K) stack of all center pairs, K = max(ks), and the blocks
    are sliced out of it.  The stack is split along R into pieces of at
    most _STACK_ENTRIES coefficients, so that many points with one high
    order, which pad every pair to K x K, do not hold the whole padded
    stack in memory at once.  Diagonal pairs get the constant terms 1 - |z|**2
    and the modulus defect evaluated from that same value, so their ratio
    stays accurate to relative rounding error arbitrarily close to the
    circle.
    """
    if centers.shape[1] != len(ks):
        raise ValueError("points and orders must have equal length")
    outside = np.abs(centers) >= 1.0
    if outside.any():
        z = complex(centers[_first(outside)])
        raise ValueError(f"interior route needs |z| < 1, got |z| = {abs(z)!r}")
    close = np.triu(np.abs(centers[:, :, None] - centers[:, None, :]) < DISTINCT_POINT_TOL, 1)
    if close.any():
        r, i, j = _first(close)
        zi, zj = complex(centers[r, i]), complex(centers[r, j])
        raise CoincidentPoints(f"points {zi!r} and {zj!r} coincide within {DISTINCT_POINT_TOL}")
    size = max(ks)
    jets = _jet_array(b, centers, size - 1)
    w, v = jets[:, :, None, :], jets.conj()[:, None, :, :]
    z0, u0 = centers[:, :, None], centers.conj()[:, None, :]
    c = 1.0 - z0 * u0
    n0 = 1.0 - w[..., 0] * v[..., 0]
    diag = np.arange(len(ks))
    m = 1.0 - (centers.real * centers.real + centers.imag * centers.imag)
    c[:, diag, diag] = m
    n0[:, diag, diag] = modulus_defect(b, centers, complement=m)
    plan = _shape_plan(ks)
    point, derivative = plan.point, plan.derivative
    flat = np.empty((len(centers), len(point), len(point)), dtype=complex)
    step = max(1, _STACK_ENTRIES // (len(ks) * size) ** 2)
    for lo in range(0, len(centers), step):
        part = slice(lo, lo + step)
        coeffs = _kernel_series(w[part], v[part], z0[part], u0[part], c[part], n0[part])
        flat[part] = coeffs[:, point, point.T, derivative, derivative.T]
    return flat


def sp_interior(b: BlaschkeProduct, points, orders) -> SchwarzPickMatrix:
    """Schwarz-Pick matrix at points of the open disk, via kernel series.

    Block (i, j) is the kernel jet at (z_i, conj(z_j)) through orders
    (k_i - 1, k_j - 1).  Diagonal blocks take their constant terms from one
    shared value of 1 - |z_i|**2, which keeps them accurate as the points
    approach the circle.  This is the one-radius case of the stacked
    evaluation behind :func:`sp_boundary_radial`.
    """
    ks = _validate_orders(orders)
    pts = validate_points(points)
    flat = _interior_stack(b, np.array([pts], dtype=complex), ks)[0]
    return SchwarzPickMatrix(flat=flat, points=pts, orders=ks)


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


def _structured_flat(rows, pts: tuple[complex, ...], ks: tuple[int, ...]) -> np.ndarray:
    """The flat matrix of :func:`sp_boundary_structured` from coefficient
    rows at checked points, with ks a tuple of positive ints.

    Row i fills columns 0 .. 2 k_i - 1 of a table whose last column stays
    zero for the gathers to point at.  M and Psi share one power array:
    base^(x + y + 1) with base t_i - t_j off the diagonal blocks and t_i
    on them.  Raises InsufficientJet for a row shorter than 2 k_i.
    """
    plan = _shape_plan(ks)
    table = np.zeros((len(ks), 2 * max(ks) + 1), dtype=complex)
    for i, (row, k) in enumerate(zip(rows, ks)):
        if len(row) < 2 * k:
            raise InsufficientJet(f"jet {i} has {len(row)} coefficients, need {2 * k}")
        table[i, : 2 * k] = row[: 2 * k]
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


def sp_boundary_structured(jets: Sequence[Jet], points, orders) -> SchwarzPickMatrix:
    """Boundary Schwarz-Pick matrix from boundary Taylor coefficients alone.

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

    Requires distinct points on the circle, jet i centered at t_i (within
    DISTINCT_POINT_TOL) and of length >= 2 k_i.
    """
    ks = _validate_orders(orders)
    pts = validate_points(points, on_circle=True)
    if not (len(jets) == len(pts) == len(ks)):
        raise ValueError("jets, points and orders must have equal length")
    for i, (jet, t) in enumerate(zip(jets, pts)):
        if abs(jet.center - t) > DISTINCT_POINT_TOL:
            raise ValueError(f"jet {i} is centered at {jet.center!r}, not at its point {t!r}")
    flat = _structured_flat([jet.coefficients for jet in jets], pts, ks)
    return SchwarzPickMatrix(flat=flat, points=pts, orders=ks)


def _validate_schedule(schedule) -> tuple[float, ...]:
    if schedule is None:
        return DEFAULT_RADIAL_SCHEDULE
    rs = tuple(float(r) for r in schedule)
    if not rs:
        raise ValueError("schedule must be nonempty")
    for r in rs:
        if not 0.0 < r < 1.0:
            raise ValueError(f"schedule radii must lie in (0, 1), got {r}")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("schedule must be strictly increasing")
    return rs


def sp_boundary_radial(
    b: BlaschkeProduct, points, orders, schedule=None
) -> tuple[SchwarzPickMatrix, RadialDiagnostics]:
    """Boundary matrix as a radial limit of interior matrices.

    Evaluates the interior matrix of :func:`sp_interior` at r * t_i / |t_i|
    for every radius r of the schedule (default r_m = 1 - 2^-m, m = 4 .. 20) in
    one stacked kernel evaluation, with the interior route's checks applied
    at every radius, and returns the final iterate together with the
    successive-difference diagnostics.  Convergence means the last step
    changed no entry by more than 1e-3 relative to max(1, s), where s is
    the largest entry magnitude of the iterate that ends the smallest step;
    the iterates approach the limit linearly in 1 - r, so an absolute
    reading of the final step would say more about the matrix scale than
    about the route.  A converging schedule takes its smallest step last,
    so s is then the final iterate's own scale, however much the iterates
    grew on the way.  Iterates swamped by rounding noise instead grow far
    past the scale of the quietest step, which keeps the noise from
    widening its own acceptance test.

    The truncation error of an iterate shrinks linearly in 1 - r, but the
    rounding error of a diagonal block grows like (1 - r**2)**-(2k - 2), so
    orders k >= 3 hit a noise floor partway down the schedule (around
    r = 1 - 2^-10 in double precision) and the deeper iterates move away
    again, by far more than `tol` allows; `converged` then stays False.
    Orders one and two converge through the whole default schedule.
    """
    ks = _validate_orders(orders)
    pts = validate_points(points, on_circle=True)
    rs = _validate_schedule(schedule)
    units = np.array(pts, dtype=complex)
    iterates = _interior_stack(b, np.multiply.outer(rs, units / np.abs(units)), ks)
    deltas = np.max(np.abs(np.diff(iterates, axis=0)), axis=(1, 2))
    if len(rs) >= 2:
        final_delta = np.abs(iterates[-1] - iterates[-2])
        quietest = iterates[int(np.argmin(deltas)) + 1]
        scale = max(1.0, float(np.max(np.abs(quietest))))
        converged = bool(deltas[-1] < RADIAL_CONVERGENCE_TOL * scale)
    else:
        final_delta = np.full(iterates.shape[1:], np.inf)
        converged = False
    estimate = SchwarzPickMatrix(flat=iterates[-1], points=pts, orders=ks)
    diags = RadialDiagnostics(
        radii=rs,
        step_deltas=tuple(float(d) for d in deltas),
        final_delta=final_delta,
        converged=converged,
        tol=RADIAL_CONVERGENCE_TOL,
    )
    return estimate, diags


def membership_probe(b: BlaschkeProduct, t: complex, k: int, schedule=None) -> list[float]:
    """Diagonal Caratheodory-Julia quantity along the radius toward t.

    Value m is the (k-1, k-1) mixed kernel coefficient at z = r_m * t / |t|,
    the quantity whose boundedness as r -> 1 characterizes order-k boundary
    regularity at t.  For a finite Blaschke product it increases to the
    bottom diagonal entry of the order-k boundary block.  All radii share
    one stacked interior evaluation.
    """
    (t,) = validate_points([t], on_circle=True)
    ks = _validate_orders([k])
    rs = _validate_schedule(schedule)
    iterates = _interior_stack(b, np.multiply.outer(rs, [t / abs(t)]), ks)
    return [float(v) for v in iterates[:, ks[0] - 1, ks[0] - 1].real]
