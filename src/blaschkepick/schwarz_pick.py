"""Schwarz-Pick matrices: the structured-boundary and radial routes.

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
                             read at h = 0 as a trapezoid mean in h.

Agreement between the routes is the package's main internal consistency
check.  All three take their points and orders through one layout check.
The structured and radial routes also share the Taylor jets of w, from
one jet evaluator, and ``_shape_plan``, cached per order tuple: the index
arrays of the structured identity and the unpadded row order of the radial
recurrence.  The realization route reads no jets, only the realization of
w, and neither module imports the other; at points of the open disk it
gives the interior matrix.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .blaschke import BlaschkeProduct, _jet_array, _require_layout, _require_numbers, _require_size, poles
from .errors import ConvergenceFailure, DegenerateDenominator, InsufficientJet

DEGENERATE_DENOMINATOR_TOL = 1e-13
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
            raise IndexError(f"derivative {derivative} out of range for order {self.orders[point_index]}")
        return self.offsets[point_index] + derivative

    def block(self, i: int, j: int) -> np.ndarray:
        """View of block (i, j); writing to it writes to `flat`."""
        off = self.offsets
        return self.flat[off[i] : off[i] + self.orders[i], off[j] : off[j] + self.orders[j]]


class _ShapePlan(NamedTuple):
    """The read-only arrays of the structured identity and of the radial
    recurrence that depend on the orders alone.  At flat row (i, x), column
    (j, y): `same` marks i == j, `pair_index` is i n + j, `exponent` is
    x + y + 1, and `factor` is (-1)^y binom(y, x) (Psi) where i == j and
    (-1)^x binom(x + y, x) (M) elsewhere, stored complex so that no
    arithmetic casts it again.

    Both routes gather from the raveled jets of the evaluator, n rows of W
    coefficients: coefficient x at point i is entry i W + x.  `tri_index`
    and `hankel_index` gather T and Hk for :func:`_structured_flat` (W = 2
    max(ks)), every entry outside their bands pointing at entry n W, the
    one zero that function appends.  The kernel rows of
    :func:`_kernel_stack` go by derivative x, then by point in `order`,
    falling k_i first: rows starts[x] .. starts[x + 1] - 1 hold the points
    with k_i > x, `gather` reads row (i, x) from the jets (W = max(ks)),
    and kernel row back[f] is flat row f.
    """

    same: np.ndarray
    pair_index: np.ndarray
    exponent: np.ndarray
    factor: np.ndarray
    tri_index: np.ndarray
    hankel_index: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    gather: np.ndarray
    back: np.ndarray


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


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _shape_plan(ks: tuple[int, ...]) -> _ShapePlan:
    """The plan of orders ks, built on first use and kept in a bounded cache."""
    _require_size(sum(ks) ** 2, "the shape plan")
    point = np.repeat(np.arange(len(ks)), ks)[:, None]
    r = np.concatenate([np.arange(k) for k in ks])[:, None]
    ell = r.T
    n = r + ell
    same = point == point.T
    width = 2 * max(ks)
    binom = _pascal(width)
    order = sorted(range(len(ks)), key=lambda i: -ks[i])
    count = [sum(k > x for k in ks) for x in range(max(ks))]
    gather = [i * max(ks) + x for x, m in enumerate(count) for i in order[:m]]
    plan = _ShapePlan(
        same=same,
        pair_index=point * len(ks) + point.T,
        exponent=n + 1,
        factor=np.where(same, (-1) ** ell * binom[ell, r], (-1) ** r * binom[n, r]).astype(complex),
        tri_index=np.where(same & (r >= ell), point * width + r - ell, len(ks) * width),
        hankel_index=np.where(same, point * width + n + 1, len(ks) * width),
        order=np.array(order),
        starts=np.cumsum([0, *count]),
        gather=np.array(gather),
        back=np.array(sorted(range(len(gather)), key=gather.__getitem__)),
    )
    for array in plan:
        array.flags.writeable = False
    return plan


def _kernel_stack(w, v, z, u, ks: tuple[int, ...]) -> np.ndarray:
    """Kernel matrices for a stack of center rows, shape (R, N, N), in the
    kernel rows of the plan of ks; ``[:, back][:, :, back]`` is flat.

    Row r pairs the z-centers z[r] with the u-centers u[r], both (R, n);
    w and v, (R, n, max(ks)), are the jets of w and of wh there.  Pair
    (i, j) holds the coefficients K[x, y], x < k_i, y < k_j, of the kernel
    at (z0, u0) = (z[r, i], u[r, j]).  Multiplying out
    (c - u0 h - z0 g - h g) K = N in h = z - z0, g = u - u0, with
    c = 1 - z0 u0 and N the numerator, N[0, 0] = 1 - w_0 v_0 and
    N[x, y] = -w_x v_y elsewhere, gives

        K[x, y] = (N[x, y] + u0 K[x-1, y] + z0 K[x, y-1] + K[x-1, y-1]) / c,

    a missing index counting as zero; it runs in place in N.  Coefficient
    (x, y) depends only on lower indices, so a block truncated to fewer
    terms is the leading corner of the full one and no pair is padded:
    step (x, y) of every pair that has it and its three predecessors are
    four slices of the plan's rows, so pair (i, j) takes k_i k_j steps.
    Raises DegenerateDenominator, naming the first pair in the callers'
    order, when some |c| < 1e-13.
    """
    plan = _shape_plan(ks)
    z0, u0 = z[:, plan.order, None], u[:, None, plan.order]
    c = 1.0 - z0 * u0
    if (np.abs(c) < DEGENERATE_DENOMINATOR_TOL).any():
        c = 1.0 - z[:, :, None] * u[:, None, :]
        at, i, j = np.argwhere(np.abs(c) < DEGENERATE_DENOMINATOR_TOL)[0]
        zc, uc, cc = complex(z[at, i]), complex(u[at, j]), complex(c[at, i, j])
        raise DegenerateDenominator(f"1 - z0*u0 = {cc!r} at centers ({zc!r}, {uc!r})")
    flat = -w.reshape(len(w), -1)[:, plan.gather, None] * v.reshape(len(v), -1)[:, None, plan.gather]
    flat[:, : len(ks), : len(ks)] += 1.0
    s = plan.starts.tolist()
    for x, y in itertools.product(range(len(s) - 1), repeat=2):
        a, b = s[x + 1] - s[x], s[y + 1] - s[y]
        acc = flat[:, s[x] : s[x] + a, s[y] : s[y] + b]
        if x:
            acc += u0[..., :b] * flat[:, s[x - 1] : s[x - 1] + a, s[y] : s[y] + b]
        if y:
            acc += z0[:, :a] * flat[:, s[x] : s[x] + a, s[y - 1] : s[y - 1] + b]
        if x and y:
            acc += flat[:, s[x - 1] : s[x - 1] + a, s[y - 1] : s[y - 1] + b]
        acc /= c[:, :a, :b]
    return flat


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
    (t,), (k,) = _require_layout([t], [k], "k")
    plan = _shape_plan((k,))
    return plan.factor * t ** plan.exponent


def _coefficient_table(rows, ks: tuple[int, ...]) -> np.ndarray:
    """The (n, 2 max(ks)) jets of :func:`_structured_flat`, row i holding
    coefficients 0 .. 2 k_i - 1 of rows[i] and zeros after them.  Raises
    ValueError unless there is one row per order, InsufficientJet for a row
    shorter than 2 k_i, and otherwise the errors of
    :func:`blaschke._require_numbers` on those coefficients."""
    if len(rows) != len(ks):
        raise ValueError(f"{len(ks)} points but {len(rows)} jets")
    table = np.zeros((len(ks), 2 * max(ks)), dtype=complex)
    for i, (row, k) in enumerate(zip(rows, ks)):
        if len(row) < 2 * k:
            raise InsufficientJet(f"jet {i} has {len(row)} coefficients, need {2 * k}")
        table[i, : 2 * k] = _require_numbers(row[: 2 * k], f"jet {i}")
    return table


def _structured_flat(jets: np.ndarray, pts: tuple[complex, ...], ks: tuple[int, ...]) -> np.ndarray:
    """The flat matrix of :func:`sp_boundary_structured` from the
    (n, 2 max(ks)) jets at checked points, with ks a tuple of positive ints.

    Row i is read below column 2 k_i only, so anything may stand beyond it.
    M and Psi share one power array: base^(x + y + 1) with base t_i - t_j
    off the diagonal blocks and t_i on them.
    """
    plan = _shape_plan(ks)
    t = np.array(pts, dtype=complex)
    base = t[:, None] - t
    np.fill_diagonal(base, t)
    powers = base.ravel()[plan.pair_index] ** plan.exponent
    m = np.where(plan.same, 0.0, plan.factor / powers)
    psi = np.where(plan.same, plan.factor * powers, 0.0)
    coeff = np.concatenate((jets.ravel(), [0.0]))
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

    Requires the layout of :func:`blaschke._require_layout`, one row per
    point, and row i of length >= 2 k_i (InsufficientJet otherwise) with
    coefficients 0 .. 2 k_i - 1 finite numbers (:func:`blaschke._require_numbers`).
    """
    pts, ks = _require_layout(points, orders, "orders")
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
    small for the orders that the mean or its estimate overflows.  Points
    and orders get the layout check of every route before any jet is read.
    """
    pts, ks = _require_layout(points, orders, "orders")
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
    # Each step above acts entry by entry or takes a maximum, so only the mean leaves the kernel rows.
    back = _shape_plan(ks).back
    return SchwarzPickMatrix(flat=mean[back[:, None], back], points=pts, orders=ks), diags
