"""Unitary state-space realizations of finite Blaschke products.

A degree-d product is written as w(z) = D + z C (I - z A)^{-1} B with the
(d+1) x (d+1) system matrix

    U = [[A, B],
         [C, D]]

unitary.  :func:`realize` writes U down in closed form: it is the product
of one elementary 2 x 2 unitary section per zero, in the order the zeros
are listed, with the unimodular constant scaling the output row.  A is
lower triangular with the conjugate zeros on its diagonal, so the
resolvent (I - z A)^{-1} exists for every z of modulus at most one, and
powers of it give the derivative structure of the Gram-matrix route to
Schwarz-Pick matrices: P = R R* with R the stacked rows of
:func:`resolvent_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct, _require_finite, _require_numbers, _require_orders, _require_size
from .errors import SingularResolvent
from .hermitian import _rank_above, _require_tolerance

RESOLVENT_RCOND = 1e-14


@dataclass(frozen=True, eq=False)
class UnitaryRealization:
    """State-space data (A, B, C, D) with a unitary system matrix.

    Shapes are (d, d), (d, 1), (1, d) and scalar, every entry a finite
    number: TypeError for a non-number, ValueError for a wrong shape or a
    non-finite entry.  Instances produced by :func:`realize` satisfy the
    unitarity bound checked by :func:`unitarity_defect`; hand-built
    instances are allowed (tests use them) and can violate it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: complex

    def __post_init__(self):
        a, b, c = (_require_numbers(getattr(self, name), name, None) for name in "ABC")
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
        object.__setattr__(self, "D", _require_finite(self.D, "D"))

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


def realize(b: BlaschkeProduct) -> UnitaryRealization:
    """Unitary realization of the product in closed form.

    With s_i = sqrt(1 - |a_i|^2) and the zeros a_i in listed order,
    A_ii = conj(a_i), A_ij = s_i s_j prod_{j<l<i} (-a_l) for i > j,
    B_i = s_i prod_{l<i} (-a_l), C_j = u s_j prod_{l>j} (-a_l) and
    D = u prod_l (-a_l).  With the input at position 0 and the output at
    d + 1, one strictly lower triangular matrix of such run products holds
    all four blocks.  Cumulative products down its columns build it with
    no division, so zeros at the origin need no special case.  That matrix
    of (d + 2)^2 entries passes the size check of :func:`blaschke._require_size`.
    """
    a = np.asarray(b.zeros, dtype=complex)
    n = a.size + 2
    _require_size(n * n, "the realization's run products")
    below_subdiagonal, below_diagonal = _triangles(n)
    weights = np.empty(n, dtype=complex)
    weights[0] = 1.0
    np.sqrt(1.0 - np.abs(a) ** 2, out=weights[1:-1])
    weights[-1] = b.unimodular_constant
    # Row e of `steps` carries -a at position e - 1, and only below the
    # subdiagonal, so that runs[e, f] = prod_{f<l<e} (-a_l).
    previous = np.ones(n, dtype=complex)
    np.negative(a, out=previous[2:])
    steps = np.where(below_subdiagonal, previous[:, None], 1.0)
    runs = np.where(below_diagonal, np.cumprod(steps, axis=0), 0.0) * np.outer(weights, weights)
    return UnitaryRealization(
        A=runs[1:-1, 1:-1] + np.diag(a.conj()),
        B=runs[1:-1, :1],
        C=runs[-1:, 1:-1],
        D=runs[-1, 0],
    )


@lru_cache(maxsize=64)
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the entries below the subdiagonal and below the
    diagonal of an n x n matrix."""
    return np.tri(n, k=-2, dtype=bool), np.tri(n, k=-1, dtype=bool)


def _reciprocal_condition(m: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """1 / (|m|_1 |m^{-1}|_1) for a stack of matrices and their inverses,
    formed as 1 / np.linalg.cond(m, 1) forms it; as there, an overflow makes
    the condition infinite (rcond 0) without a warning."""
    with np.errstate(all="ignore"):
        return 1.0 / (np.abs(m).sum(axis=-2).max(axis=-1) * np.abs(inverse).sum(axis=-2).max(axis=-1))


def resolvent_rows(r: UnitaryRealization, points, orders) -> np.ndarray:
    """The sum(orders) x d factor R of stacked rows C A^l (I - z A)^{-l-1}.

    Point z with order k contributes the rows l = 0 .. k-1, in point order.
    One stacked inverse of I - z A serves every point and row: A and the
    resolvent commute, so the rows are C (I - zA)^{-1} times powers of
    A (I - zA)^{-1}.  The same inverse gives the 1-norm reciprocal
    condition, formed as ``np.linalg.cond(m, 1)`` forms it (bit for bit).
    Raises :class:`SingularResolvent` at the first point whose I - z A has
    reciprocal condition below ``RESOLVENT_RCOND``.  The points need only
    be finite numbers; the orders get the order check, one per point.
    """
    zs = np.array([_require_finite(z, "point") for z in points], dtype=complex)
    ks = _require_orders(orders, "orders", count=zs.size)
    d = r.state_dim
    if d == 0 or zs.size == 0:
        return np.zeros((sum(ks), d), dtype=complex)
    m = np.eye(d) - zs[:, None, None] * r.A
    try:
        inverse = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        # Some point is exactly singular, which np.linalg.cond reads as rcond 0.
        rcond = np.zeros(zs.size)
    else:
        rcond = _reciprocal_condition(m, inverse)
    if not (rcond >= RESOLVENT_RCOND).all():
        # Only a refusal pays for np.linalg.cond, to name the first bad point.
        rcond = 1.0 / np.linalg.cond(m, 1)
        i = int(np.flatnonzero(~(rcond >= RESOLVENT_RCOND))[0])
        raise SingularResolvent(
            f"I - z A at z = {complex(zs[i])!r} has reciprocal condition {float(rcond[i])}, "
            f"below {RESOLVENT_RCOND}"
        )
    rows = np.empty((zs.size, max(ks), d), dtype=complex)
    x = r.C @ inverse
    rows[:, 0] = x[:, 0]
    if rows.shape[1] > 1:
        step = r.A @ inverse
        for ell in range(1, rows.shape[1]):
            x = x @ step
            rows[:, ell] = x[:, 0]
    return rows[np.arange(rows.shape[1]) < np.array(ks)[:, None]]


def transfer_eval(r: UnitaryRealization, z: complex) -> complex:
    """Transfer function value D + z C (I - z A)^{-1} B."""
    return complex(r.D + z * (resolvent_rows(r, [z], [1]) @ r.B)[0, 0])


def sp_via_realization(r: UnitaryRealization, points, orders) -> np.ndarray:
    """Schwarz-Pick matrix as the Gram matrix P = R R* of stacked resolvent rows.

    Hermitian positive semidefinite by construction, with rank
    min(sum(orders), d) when the realization is minimal.  At points of the
    open disk it is the interior matrix, with no entry formed by a
    subtraction that cancels as the points approach the circle.
    """
    rr = resolvent_rows(r, points, orders)
    return rr @ rr.conj().T


def check_minimality(r: UnitaryRealization, tol: float = 1e-8) -> bool:
    """True when the observability matrix has full numerical rank d.

    The observability matrix, rows C, CA, ..., CA^{d-1}, is the resolvent
    factor at z = 0 with order d, exactly, since I - 0 A = I.  Rank counts
    singular values above tol * max(1, sigma_max).  For SISO systems with B
    and C produced by :func:`realize`, observability is equivalent to
    minimality.  tol must be finite and nonnegative (ValueError otherwise).
    """
    _require_tolerance("minimality", tol)
    d = r.state_dim
    if d == 0:
        return True
    s = np.linalg.svd(resolvent_rows(r, [0.0], [d]), compute_uv=False)
    return _rank_above(s[::-1], tol) == d
