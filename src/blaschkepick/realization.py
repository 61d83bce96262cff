"""Unitary state-space realizations of finite Blaschke products.

A degree-d product is written as w(z) = D + z C (I - z A)^{-1} B with the
(d+1) x (d+1) system matrix

    U = [[A, B],
         [C, D]]

unitary.  One elementary 2 x 2 unitary factor per zero, cascaded in the
order the zeros are listed, realizes the whole product; the unimodular
constant scales the output row, which keeps U unitary.  With all
eigenvalues of A strictly inside the disk, the resolvent (I - z A)^{-1}
exists for every z of modulus at most one, and powers of it give the
derivative structure used by the Gram-matrix route to Schwarz-Pick
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import INTERIOR_MARGIN, BlaschkeProduct, _require_finite
from .errors import SingularResolvent, ZeroOnOrOutsideDisk

RESOLVENT_RCOND = 1e-14
UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class UnitaryRealization:
    """State-space data (A, B, C, D) with a unitary system matrix.

    Shapes are (d, d), (d, 1), (1, d) and scalar.  Instances produced by
    :func:`elementary_realization`, :func:`cascade` and :func:`realize`
    satisfy the unitarity bound checked by :func:`unitarity_defect`;
    hand-built instances are allowed (tests use them) and can violate it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: complex

    def __post_init__(self):
        a = np.asarray(self.A, dtype=complex)
        b = np.asarray(self.B, dtype=complex)
        c = np.asarray(self.C, dtype=complex)
        d = a.shape[0] if a.ndim == 2 else -1
        if a.ndim != 2 or a.shape != (d, d):
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape != (d, 1):
            raise ValueError(f"B must have shape ({d}, 1), got {b.shape}")
        if c.shape != (1, d):
            raise ValueError(f"C must have shape (1, {d}), got {c.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", complex(self.D))

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]


def system_matrix(r: UnitaryRealization) -> np.ndarray:
    """The (d+1) x (d+1) block matrix [[A, B], [C, D]]."""
    d = r.state_dim
    u = np.zeros((d + 1, d + 1), dtype=complex)
    u[:d, :d] = r.A
    u[:d, d:] = r.B
    u[d:, :d] = r.C
    u[d, d] = r.D
    return u


def unitarity_defect(r: UnitaryRealization) -> float:
    """max-abs entry of U U* - I and U* U - I."""
    u = system_matrix(r)
    eye = np.eye(u.shape[0])
    return float(
        max(np.max(np.abs(u @ u.conj().T - eye)), np.max(np.abs(u.conj().T @ u - eye)))
    )


def elementary_realization(a: complex) -> UnitaryRealization:
    """Degree-one factor (z - a) / (1 - conj(a) z) as a 2 x 2 unitary system.

    A = [conj(a)], B = C = [sqrt(1 - |a|^2)], D = -a.
    """
    a = _require_finite(a, "zero")
    if abs(a) > 1.0 - INTERIOR_MARGIN:
        raise ZeroOnOrOutsideDisk(f"zero {a!r} has modulus {abs(a)!r}")
    s = math.sqrt(1.0 - abs(a) ** 2)
    return UnitaryRealization(
        A=np.array([[a.conjugate()]]),
        B=np.array([[s]]),
        C=np.array([[s]]),
        D=-a,
    )


def cascade(first: UnitaryRealization, second: UnitaryRealization) -> UnitaryRealization:
    """Series interconnection feeding the output of `first` into `second`.

    The transfer function is the product of the two transfers, and the
    cascade of unitary systems is unitary: its system matrix factors as the
    product of the two embedded system matrices.
    """
    d1, d2 = first.state_dim, second.state_dim
    a = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    a[:d1, :d1] = first.A
    a[d1:, :d1] = second.B @ first.C
    a[d1:, d1:] = second.A
    b = np.vstack([first.B, second.B * first.D])
    c = np.hstack([second.D * first.C, second.C])
    return UnitaryRealization(A=a, B=b, C=c, D=second.D * first.D)


def realize(b: BlaschkeProduct) -> UnitaryRealization:
    """Unitary realization of the product, one cascade step per zero."""
    r = UnitaryRealization(
        A=np.zeros((0, 0), dtype=complex),
        B=np.zeros((0, 1), dtype=complex),
        C=np.zeros((1, 0), dtype=complex),
        D=1.0,
    )
    for a in b.zeros:
        r = cascade(r, elementary_realization(a))
    u = b.unimodular_constant
    return UnitaryRealization(A=r.A, B=r.B, C=u * r.C, D=u * r.D)


def _resolvent(r: UnitaryRealization, z: complex) -> np.ndarray:
    """I - z A, after checking that it is safely invertible."""
    m = np.eye(r.state_dim, dtype=complex) - z * r.A
    cond = abs(np.linalg.cond(m, 1))
    rcond = 0.0 if not np.isfinite(cond) or cond == 0.0 else 1.0 / float(cond)
    if rcond < RESOLVENT_RCOND:
        raise SingularResolvent(
            f"I - z A at z = {z!r} has reciprocal condition {rcond}, below {RESOLVENT_RCOND}"
        )
    return m


def transfer_eval(r: UnitaryRealization, z: complex) -> complex:
    """Transfer function value D + z C (I - z A)^{-1} B."""
    z = _require_finite(z, "z")
    if r.state_dim == 0:
        return r.D
    x = np.linalg.solve(_resolvent(r, z), r.B)
    return complex(r.D + z * (r.C @ x)[0, 0])


def resolvent_rows(r: UnitaryRealization, z: complex, order: int) -> np.ndarray:
    """Rows C A^l (I - z A)^{-l-1} for l = 0 .. order-1, as an order x d array.

    A and the resolvent commute, so each row follows from the previous one
    with one multiplication by A and one solve against the transpose of
    I - z A.
    """
    z = _require_finite(z, "z")
    if order < 1:
        raise ValueError("order must be at least one")
    d = r.state_dim
    if d == 0:
        return np.zeros((order, 0), dtype=complex)
    # x (I - zA) = row  <=>  (I - zA)^T x^T = row^T
    m_t = _resolvent(r, z).T
    rows = np.zeros((order, d), dtype=complex)
    rows[0] = np.linalg.solve(m_t, r.C[0])
    for ell in range(1, order):
        rows[ell] = np.linalg.solve(m_t, rows[ell - 1] @ r.A)
    return rows


def sp_via_realization(r: UnitaryRealization, points, orders) -> np.ndarray:
    """Schwarz-Pick matrix as the Gram matrix P = R R* of stacked resolvent rows.

    Hermitian positive semidefinite by construction, with rank
    min(sum(orders), d) when the realization is minimal.
    """
    stacked = [resolvent_rows(r, z, k) for z, k in zip(points, orders, strict=True)]
    rr = np.vstack(stacked) if stacked else np.zeros((0, r.state_dim), dtype=complex)
    return rr @ rr.conj().T


def observability_matrix(r: UnitaryRealization) -> np.ndarray:
    """Stacked rows C, CA, ..., CA^{d-1}."""
    d = r.state_dim
    rows = []
    v = r.C.copy()
    for _ in range(d):
        rows.append(v)
        v = v @ r.A
    return np.vstack(rows) if rows else np.zeros((0, 0), dtype=complex)


def check_minimality(r: UnitaryRealization, tol: float = 1e-8) -> bool:
    """True when the observability matrix has full numerical rank d.

    Rank counts singular values above tol * max(1, sigma_max).  For SISO
    systems with B and C produced by :func:`realize`, observability is
    equivalent to minimality.
    """
    d = r.state_dim
    if d == 0:
        return True
    s = np.linalg.svd(observability_matrix(r), compute_uv=False)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0])))) == d
