"""Finite Blaschke products: construction, evaluation, Taylor jets, level sets.

A finite Blaschke product of degree d is

    b(z) = u * prod_k (z - a_k) / (1 - conj(a_k) z)

with every zero a_k in the open unit disk and |u| = 1.  The function is
analytic across the unit circle; its only singularities are poles at the
reflected points 1 / conj(a_k), all of modulus greater than one.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    CoincidentPoints,
    ConstantNotUnimodular,
    PoleEvaluation,
    RootFindingFailure,
    ZeroOnOrOutsideDisk,
)

INTERIOR_MARGIN = 1e-12
UNIMODULAR_TOL = 1e-12
POLE_TOL = 1e-12
LEVEL_SET_RESIDUAL = 1e-8
CIRCLE_TOL = 1e-9
DISTINCT_POINT_TOL = 1e-12
# Entries allowed in each array that grows with the problem: the jet gather,
# a shape plan's N x N arrays, a realization's run products, the radial kernel
# stack and the resolvent stack (at the limit, one process on 2-vCPU x86-64
# with numpy 2.4 rose 130, 780, 410, 300 and 320 MB in 0.26, 1.1, 0.48, 0.56
# and 6.0 s), the resolvent rows and the Gram matrix R R*.  The rule bounds
# memory, not time: crosscheck at degree 2,000 and two points still runs, for
# about 9 s.  The worst fuzz draw gathers 4.1 M entries.
ARRAY_ENTRIES_MAX = 2**23


def _require_numbers(obj, what: str, ndim: int | None = 1) -> np.ndarray:
    """obj as an ndim-axis complex array by the one rule of what a number is:
    numpy reads it as kind b, i, u, f or c (bool, integer, real, complex),
    TypeError otherwise, a ragged nesting included, all finite, ValueError
    otherwise; both name what.  ndim=None takes any number of axes and
    leaves the shape to the caller, as the matrix readers do."""
    try:
        x = np.asarray(obj)
    except ValueError:  # a ragged nesting
        x = np.asarray(None)
    if x.dtype.kind not in "biufc" or ndim is not None and x.ndim != ndim:
        shape = {None: "an array of numbers", 0: "a number"}.get(ndim, "a flat row of numbers")
        raise TypeError(f"{what} must be {shape}, got {obj!r}")
    # count_nonzero, a C loop, takes about half the time of .all() here.
    if np.count_nonzero(np.isfinite(x)) != x.size:
        if ndim == 0:
            raise ValueError(f"{what} must be finite, got {obj!r}")
        raise ValueError(f"{what} has a non-finite {'entry' if ndim is None else 'coefficient'}")
    return x.astype(complex, copy=False)


def _require_finite(z: complex, what: str) -> complex:
    """z as a Python complex, one number by :func:`_require_numbers`; a
    finite Python int, float or complex, the usual input, skips numpy."""
    if isinstance(z, (int, float, complex)) and cmath.isfinite(z):
        return complex(z)
    return _require_numbers(z, what, 0).item()


def validate_points(points) -> tuple[complex, ...]:
    """Points as complex numbers, checked finite, pairwise distinct and of
    modulus one within CIRCLE_TOL.

    Raises TypeError for a non-number, ValueError for a non-finite or
    off-circle point and CoincidentPoints for two closer than DISTINCT_POINT_TOL.
    """
    pts = tuple(_require_finite(z, "point") for z in points)
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


def _require_orders(orders, name: str, *, least: int = 1, count: int | None = None) -> tuple[int, ...]:
    """The orders as ints, each at least `least` (1, or 0 for jet orders)
    and, given a point count, one per point.

    Raises TypeError for a non-integral order and ValueError for one below
    `least` or for a count mismatch; `name` names the orders in the message.
    """
    ks = tuple(map(operator.index, orders))
    for k in ks:
        if k < least:
            raise ValueError(f"{name} must be {'at least one' if least else 'nonnegative'}, got {k}")
    if count is not None and len(ks) != count:
        raise ValueError(f"{count} points but {len(ks)} {name}")
    return ks


def _require_layout(points, orders, name: str, *, least: int = 1) -> tuple[tuple[complex, ...], tuple[int, ...]]:
    """The (points, orders) layout of every entry: the points through
    :func:`validate_points`, then one order per point through
    :func:`_require_orders`.

    Orders of at least one lay out a matrix, which needs a point (ValueError
    otherwise); jet orders, least 0, may lay out no point at all.
    """
    pts = validate_points(points)
    ks = _require_orders(orders, name, least=least, count=len(pts))
    if least and not pts:
        raise ValueError("need at least one point")
    return pts, ks


def _require_size(entries: int, what: str) -> None:
    """ValueError naming what, entries and the limit if entries exceed ARRAY_ENTRIES_MAX."""
    if entries > ARRAY_ENTRIES_MAX:
        raise ValueError(f"{what} would hold {entries} entries, above the limit of {ARRAY_ENTRIES_MAX}")


@dataclass(frozen=True)
class BlaschkeProduct:
    """Zeros listed with multiplicity plus a unimodular constant.

    Use :func:`make_blaschke` for ordinary construction; the constructor
    itself validates, so invalid instances cannot exist.
    """

    zeros: tuple[complex, ...]
    unimodular_constant: complex

    def __post_init__(self):
        zs = tuple(_require_finite(a, "zero") for a in self.zeros)
        for a in zs:
            if abs(a) > 1.0 - INTERIOR_MARGIN:
                raise ZeroOnOrOutsideDisk(
                    f"zero {a!r} has modulus {abs(a)!r}, not strictly inside the disk"
                )
        u = _require_finite(self.unimodular_constant, "constant")
        if abs(abs(u) - 1.0) > UNIMODULAR_TOL:
            raise ConstantNotUnimodular(f"constant {u!r} has modulus {abs(u)!r}")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "unimodular_constant", u)

    @property
    def degree(self) -> int:
        return len(self.zeros)


def make_blaschke(zeros: Sequence[complex], unimodular_constant: complex = 1.0) -> BlaschkeProduct:
    """Validated construction from a zero list (with multiplicity) and a constant.

    Raises TypeError for a zero or constant that is not a number,
    ValueError for a non-finite one, ZeroOnOrOutsideDisk when some
    |a_k| > 1 - 1e-12 and ConstantNotUnimodular when | |u| - 1 | > 1e-12.
    """
    return BlaschkeProduct(tuple(zeros), unimodular_constant)


def evaluate(b: BlaschkeProduct, z: complex) -> complex:
    """Value b(z), for z away from the poles: coefficient w_0 of
    :func:`_finite_jets` at z.

    Raises PoleEvaluation when z lies within 1e-12 of some 1 / conj(a_k),
    by the test of :func:`_jet_array`, and ValueError for an overflow.
    """
    return complex(_finite_jets(b, _require_finite(z, "z"), 0)[0])


def poles(b: BlaschkeProduct) -> list[complex]:
    """Reflected points 1 / conj(a_k) for the nonzero zeros, with multiplicity."""
    return [1.0 / a.conjugate() for a in b.zeros if a != 0]


def taylor_jet(b: BlaschkeProduct, z0: complex, order: int) -> np.ndarray:
    """Coefficients w_0 .. w_order of b at z0, a 1-D complex array:
    :func:`_finite_jets` at the one center z0.

    Raises ValueError for a non-finite z0, a negative order, a non-finite
    coefficient or an oversize gather, TypeError for a non-number z0 or a
    non-integral order and PoleEvaluation for z0 within 1e-12 of a pole.
    """
    z0 = _require_finite(z0, "z0")
    (order,) = _require_orders((order,), "order", least=0)
    return _finite_jets(b, z0, order)


def _finite_jets(b: BlaschkeProduct, centers, order: int) -> np.ndarray:
    """:func:`_jet_array` at np.array(centers), shape that array's shape +
    (order + 1,), for the public readers: ValueError unless every coefficient is finite."""
    jets = _jet_array(b, np.array(centers), order)
    if np.count_nonzero(np.isfinite(jets)) != jets.size:
        raise ValueError(f"jet coefficients of b must be finite at {centers!r}")
    return jets


def _require_jet_gather(b: BlaschkeProduct, count: int, order: int) -> None:
    """The size rule of :func:`_jet_array` at `count` centers and coefficients
    through `order`, which callers that plan around the jets check first."""
    n = order + 1
    _require_size(max(1, b.degree) * count * n * n, "the jet gather")


def _jet_array(b: BlaschkeProduct, centers: np.ndarray, order: int) -> np.ndarray:
    """Coefficients w_0 .. w_order of b at every entry of `centers`.

    The result has shape centers.shape + (order + 1,).  Each factor
    (z - a) / (1 - conj(a) z), with D = 1 - conj(a) z0, has Taylor
    coefficients

        f_0 = (z0 - a) / D,  f_1 = (1 + conj(a) f_0) / D,  f_m = f_1 (conj(a) / D)^(m-1),

    the powers read by one cumulative product along the order axis for
    every zero and center at once.  Each factor's truncated convolution is
    a stacked product with the lower triangular Toeplitz matrix of its
    coefficients.  The result stays accurate on the unit circle where
    finite differencing would not: against a 40-digit series product, over
    random products of degree <= 12 with |a| <= 0.995, orders <= 17 and
    centers on the circle or at r = 1 - 2^-m, it stays within about 1e-14
    of max(1, |w_j|).

    Every jet of the package comes from here, read raw by the builds that
    refuse an overflow in their own result: the structured build of
    ``decide`` and the CLI route comparison, the radial route and
    :func:`level_set`'s root check.  :func:`evaluate`, :func:`taylor_jet`,
    ``extract_data`` and ``matches_jets`` read it through the finite check
    of :func:`_finite_jets`.  Raises PoleEvaluation for a center within
    1e-12 of a pole 1 / conj(a), read as |D| < |a| 1e-12.
    """
    _require_jet_gather(b, centers.size, order)
    n = order + 1
    a = np.array(b.zeros, dtype=complex).reshape((-1,) + (1,) * centers.ndim)
    d = 1.0 - a.conj() * centers
    near = np.abs(d) < np.abs(a) * POLE_TOL
    if near.any():
        k, *at = np.argwhere(near)[0]
        z, pole = complex(centers[tuple(at)]), 1.0 / complex(a.flat[k].conjugate())
        raise PoleEvaluation(f"{z!r} lies within {POLE_TOL} of the pole at {pole!r}")
    ac = a.conj()
    # A last column of zeros fills the Toeplitz gather above the diagonal.
    f = np.zeros(d.shape + (n + 1,), dtype=complex)
    f[..., 0] = (centers - a) / d
    if n > 1:
        f[..., 1] = (1.0 + ac * f[..., 0]) / d
        f[..., 2:n] = (ac / d)[..., None]
        np.cumprod(f[..., 1:n], axis=-1, out=f[..., 1:n])
    series = np.zeros(centers.shape + (n, 1), dtype=complex)
    series[..., 0, 0] = b.unimodular_constant
    for factor in f[..., _toeplitz_index(n)]:
        series = factor @ series
    return series[..., 0]


@lru_cache(maxsize=64)
def _toeplitz_index(n: int) -> np.ndarray:
    """Gather index of the lower triangular n x n Toeplitz matrix of n
    coefficients followed by a zero: entry (i, j) is i - j for i >= j and n
    above the diagonal."""
    lag = np.arange(n)[:, None] - np.arange(n)
    return np.where(lag >= 0, lag, n)


def level_set(b: BlaschkeProduct, tau: complex) -> list[complex]:
    """All d solutions of b(z) = tau on the unit circle, sorted by angle.

    The solutions are the roots of u * prod(z - a_k) - tau * prod(1 - conj(a_k) z),
    found from the companion matrix and polished with one Newton step each.
    For |tau| = 1 those d roots are simple and lie on the circle.

    Raises RootFindingFailure when a polished root leaves |b(root) - tau|
    above 1e-8, and ValueError above degree 2,896, by the jet gather's size rule.
    """
    tau = _require_finite(tau, "tau")
    if abs(abs(tau) - 1.0) > CIRCLE_TOL:
        raise ValueError(f"tau must have modulus one, got |tau| = {abs(tau)!r}")
    if b.degree < 1:
        raise ValueError("level sets need degree at least one")
    num = np.array([1.0], dtype=complex)
    den = np.array([1.0], dtype=complex)
    for a in b.zeros:
        num = np.convolve(num, np.array([-a, 1.0], dtype=complex))
        den = np.convolve(den, np.array([1.0, -a.conjugate()], dtype=complex))
    p = np.zeros(b.degree + 1, dtype=complex)
    p[: num.shape[0]] += b.unimodular_constant * num
    p[: den.shape[0]] -= tau * den
    p_desc = p[::-1]
    roots = np.roots(p_desc)
    slope = np.polyval(np.polyder(p_desc), roots)
    step = np.divide(np.polyval(p_desc, roots), slope, out=np.zeros_like(roots), where=slope != 0)
    polished = roots - step
    residual = np.abs(_jet_array(b, polished, 0)[:, 0] - tau)
    # Written so that a NaN residual fails too.
    bad = ~(residual <= LEVEL_SET_RESIDUAL)
    if bad.any():
        i = int(np.argmax(bad))
        raise RootFindingFailure(
            f"root {complex(polished[i])!r} has residual {float(residual[i])!r} above {LEVEL_SET_RESIDUAL}"
        )
    return sorted(polished.tolist(), key=cmath.phase)
