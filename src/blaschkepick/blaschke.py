"""Finite Blaschke products: construction, evaluation, Taylor jets, level sets.

A finite Blaschke product of degree d is

    b(z) = u * prod_k (z - a_k) / (1 - conj(a_k) z)

with every zero a_k in the open unit disk and |u| = 1.  The function is
analytic across the unit circle; its only singularities are poles at the
reflected points 1 / conj(a_k), all of modulus greater than one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
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


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


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

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients w_j = w^(j)(center) / j! of a function at a point."""

    center: complex
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center, "center"))
        cs = tuple(_require_finite(c, "coefficient") for c in self.coefficients)
        if not cs:
            raise ValueError("a jet needs at least one coefficient")
        object.__setattr__(self, "coefficients", cs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def make_blaschke(zeros: Sequence[complex], unimodular_constant: complex = 1.0) -> BlaschkeProduct:
    """Validated construction from a zero list (with multiplicity) and a constant.

    Raises ZeroOnOrOutsideDisk when some |a_k| > 1 - 1e-12 and
    ConstantNotUnimodular when | |u| - 1 | > 1e-12.
    """
    return BlaschkeProduct(tuple(complex(a) for a in zeros), complex(unimodular_constant))


def _check_not_pole(b: BlaschkeProduct, z: complex) -> None:
    for a in b.zeros:
        if a != 0 and abs(z - 1.0 / a.conjugate()) < POLE_TOL:
            raise PoleEvaluation(f"{z!r} lies within {POLE_TOL} of the pole at {1.0 / a.conjugate()!r}")


def evaluate(b: BlaschkeProduct, z: complex) -> complex:
    """Value b(z), for z away from the poles.

    Raises PoleEvaluation when z lies within 1e-12 of some 1 / conj(a_k).
    """
    z = _require_finite(z, "z")
    _check_not_pole(b, z)
    value = complex(b.unimodular_constant)
    for a in b.zeros:
        value *= (z - a) / (1.0 - a.conjugate() * z)
    return value


def poles(b: BlaschkeProduct) -> list[complex]:
    """Reflected points 1 / conj(a_k) for the nonzero zeros, with multiplicity."""
    return [1.0 / a.conjugate() for a in b.zeros if a != 0]


def modulus_defect(
    b: BlaschkeProduct, z: complex | np.ndarray, complement: float | np.ndarray | None = None
) -> float | np.ndarray:
    """1 - |b(z)|**2, evaluated without cancellation.

    Near the circle |b(z)| is close to one and the direct subtraction loses
    every digit past |1 - |z|**2|.  Each factor instead satisfies

        1 - |(z - a)/(1 - conj(a) z)|**2 = (1 - |a|**2)(1 - |z|**2) / |1 - conj(a) z|**2,

    so the defect is 1 - prod(1 - x_k) with the x_k given by the right hand
    side, accumulated as acc += x_k * (1 - acc).  Every quantity involved is
    a product of well-determined factors, so the result keeps full relative
    accuracy however close z is to the circle.  The unimodular constant
    drops out of the modulus and is ignored.

    `complement` substitutes a caller-supplied value of 1 - |z|**2; passing
    the exact same value used elsewhere in a computation keeps tiny
    quantities consistent with each other, which matters when they are
    later divided.

    z may also be an array of points, with `complement` of the same shape;
    the accumulation then runs on whole arrays and the result is an array
    of that shape.  A single point gives a float.
    """
    zs = np.asarray(z, dtype=complex)
    if not np.isfinite(zs).all():
        raise ValueError(f"z must be finite, got {z!r}")
    m = 1.0 - (zs.real * zs.real + zs.imag * zs.imag) if complement is None else complement
    a = np.array(b.zeros, dtype=complex).reshape((-1,) + (1,) * zs.ndim)
    den = 1.0 - a.conj() * zs
    x = (1.0 - abs(a)) * (1.0 + abs(a)) / (den.real * den.real + den.imag * den.imag) * m
    acc = np.zeros(zs.shape)
    for xk in x:
        acc += xk * (1.0 - acc)
    return float(acc) if acc.ndim == 0 else acc


def taylor_jet(b: BlaschkeProduct, z0: complex, order: int) -> Jet:
    """Jet of coefficients w_0 .. w_order of b at z0.

    Each factor (z - a) / (1 - conj(a) z), with D = 1 - conj(a) z0, has
    Taylor coefficients

        f_0 = (z0 - a) / D,  f_1 = (1 + conj(a) f_0) / D,  f_m = conj(a) f_(m-1) / D,

    one division per coefficient, and the factor series are multiplied by
    truncated convolution.  The result stays accurate on the unit circle
    where finite differencing would not.

    This scalar form serves callers that need one center at a time:
    ``sp_boundary_structured`` callers, the CLI route comparison and fuzz,
    and :func:`blaschkepick.uniqueness.matches_jets`.  At one center it is
    faster than :func:`_jet_array` (about 4 against 22 us at degree 0,
    order 1, and 13 against 35 us at degree 2, order 3), whose fixed numpy
    overhead only pays off over several centers.
    """
    z0 = _require_finite(z0, "z0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_not_pole(b, z0)
    n = order + 1
    series = np.zeros(n, dtype=complex)
    series[0] = b.unimodular_constant
    f = np.zeros(n, dtype=complex)
    for a in b.zeros:
        ac = np.complex128(a.conjugate())
        d = np.complex128(1.0 - a.conjugate() * z0)
        f[0] = np.complex128(z0 - a) / d
        if n > 1:
            f[1] = (1.0 + ac * f[0]) / d
        for m in range(2, n):
            f[m] = ac * f[m - 1] / d
        series = np.convolve(series, f)[:n]
    return Jet(center=z0, coefficients=tuple(series.tolist()))


def _jet_array(b: BlaschkeProduct, centers: np.ndarray, order: int) -> np.ndarray:
    """Coefficients w_0 .. w_order of b at every entry of `centers`.

    The result has shape centers.shape + (order + 1,).  The factor
    recurrence of :func:`taylor_jet` runs on every zero and center at once,
    and each factor's truncated convolution is a stacked product with the
    lower triangular Toeplitz matrix of its coefficients.  The result agrees
    with taylor_jet to rounding but not bit for bit, and is as accurate:
    against a 40-digit series product, over random products of degree <= 12
    with |a| <= 0.95 and orders <= 17, both stay within about 3e-14 of
    max(1, |w_j|).

    Callers with several centers use it: the radial route for every radius
    and point, and ``decide`` and ``extract_data`` for all of a problem's
    points in one call, which cuts their jet time by about 40% on the
    decide-mix benchmark pool (about 55 against 97 us per problem).  A
    single center is faster through taylor_jet.  Callers check that the
    result is finite.  Raises PoleEvaluation for a center within 1e-12 of a
    pole.
    """
    poles = np.array([1.0 / a.conjugate() for a in b.zeros if a != 0], dtype=complex)
    near = np.abs(centers[..., None] - poles) < POLE_TOL
    if near.any():
        *at, k = np.argwhere(near)[0]
        z, pole = complex(centers[tuple(at)]), complex(poles[k])
        raise PoleEvaluation(f"{z!r} lies within {POLE_TOL} of the pole at {pole!r}")
    n = order + 1
    a = np.array(b.zeros, dtype=complex).reshape((-1,) + (1,) * centers.ndim)
    ac = a.conj()
    d = 1.0 - ac * centers
    f = np.zeros(d.shape + (n,), dtype=complex)
    f[..., 0] = (centers - a) / d
    if n > 1:
        f[..., 1] = (1.0 + ac * f[..., 0]) / d
    for m in range(2, n):
        f[..., m] = ac * f[..., m - 1] / d
    series = np.zeros(centers.shape + (n, 1), dtype=complex)
    series[..., 0, 0] = b.unimodular_constant
    for factor in _toeplitz_lower(f, n):
        series = factor @ series
    return series[..., 0]


def _toeplitz_lower(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Lower triangular k x k Toeplitz matrices of coeffs[..., :k], stacked
    over the leading axes; entry (i, j) is coeffs[..., i - j] for i >= j."""
    lag = np.arange(k)[:, None] - np.arange(k)
    return np.where(lag >= 0, coeffs[..., np.abs(lag)], 0.0)


def level_set(b: BlaschkeProduct, tau: complex) -> list[complex]:
    """All d solutions of b(z) = tau on the unit circle, sorted by angle.

    The solutions are the roots of u * prod(z - a_k) - tau * prod(1 - conj(a_k) z),
    found from the companion matrix and polished with one Newton step each.
    For |tau| = 1 those d roots are simple and lie on the circle.

    Raises RootFindingFailure when a polished root leaves |b(root) - tau|
    above 1e-8.
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
    dp_desc = np.polyder(p_desc)
    roots = np.roots(p_desc)
    polished = []
    for r in roots:
        slope = np.polyval(dp_desc, r)
        if slope != 0:
            r = r - np.polyval(p_desc, r) / slope
        polished.append(complex(r))
    for r in polished:
        residual = abs(evaluate(b, r) - tau)
        if residual > LEVEL_SET_RESIDUAL:
            raise RootFindingFailure(
                f"root {r!r} has residual {residual!r} above {LEVEL_SET_RESIDUAL}"
            )
    return sorted(polished, key=cmath.phase)


def blaschke_to_json(b: BlaschkeProduct) -> dict:
    """JSON-ready dict: {"zeros": [[re, im], ...], "u": [re, im]}."""
    return {
        "zeros": [[a.real, a.imag] for a in b.zeros],
        "u": [b.unimodular_constant.real, b.unimodular_constant.imag],
    }


def _pair_from_json(pair, what: str) -> complex:
    re, im = pair
    for x in (re, im):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"{what} parts must be numbers, got {x!r}")
    return complex(re, im)


def blaschke_from_json(obj: dict) -> BlaschkeProduct:
    """Inverse of :func:`blaschke_to_json`, with full validation.

    Every part must be a JSON number; booleans and strings raise TypeError.
    """
    zeros = [_pair_from_json(pair, "zero") for pair in obj["zeros"]]
    return make_blaschke(zeros, _pair_from_json(obj["u"], "u"))
