"""The cached shape plan behind the structured identity.

`reference_structured` is the structured route as it was built before the
plan existed, one uncached pass over every index array.  The cached route
must reproduce it to the last bit, however often a shape repeats and
however many shapes pass through the cache.
"""

import itertools

import numpy as np
import pytest

from blaschkepick import (
    JetData,
    make_blaschke,
    psi_matrix,
    sp_boundary_structured,
    sp_interior,
)
from blaschkepick.schwarz_pick import PLAN_CACHE_SIZE, _shape_plan
from helpers import random_circle_points


def _pascal(size):
    table = np.zeros((size, size))
    table[:, 0] = 1.0
    for x in range(1, size):
        table[x, 1:] = table[x - 1, 1:] + table[x - 1, :-1]
    return table


def _toeplitz_lower(coeffs, k):
    lag = np.arange(k)[:, None] - np.arange(k)
    return np.where(lag >= 0, coeffs[..., np.abs(lag)], 0.0)


def _psi(t, r, ell):
    n = r + ell
    return (-1) ** ell * _pascal(int(n.max()) + 1)[ell, r] * t ** (n + 1)


def reference_structured(rows, pts, ks):
    """P = (Hk + T M - M T^T) Psi T^*, every index array built afresh."""
    size = max(ks)
    coeff = np.zeros((len(ks), 2 * size), dtype=complex)
    for i, (row, k) in enumerate(zip(rows, ks)):
        coeff[i, : 2 * k] = row[: 2 * k]
    point = np.repeat(np.arange(len(ks)), ks)[:, None]
    r = np.concatenate([np.arange(k) for k in ks])[:, None]
    ell = r.T
    n = r + ell
    same = point == point.T
    t = np.array(pts, dtype=complex)[point]
    dt = np.where(same, 1.0, t - t.T)
    m = np.where(same, 0.0, (-1) ** r * _pascal(2 * size)[n, r] / dt ** (n + 1))
    tri = np.where(same, _toeplitz_lower(coeff, size)[point, r, ell], 0.0)
    hankel = np.where(same, coeff[point, n + 1], 0.0)
    psi = np.where(same, _psi(t, r, ell), 0.0)
    return (hankel + tri @ m - m @ tri.T) @ psi @ tri.conj().T


def random_rows(rng, ks):
    """Random circle points and random coefficient rows, as tuples; the
    identity is exercised as arithmetic, so the rows need not be jets of
    anything."""
    pts = random_circle_points(rng, len(ks))
    rows = tuple(tuple((rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)).tolist()) for k in ks)
    return rows, pts


def assert_same_bits(ks, rng):
    """The same rows as tuples, as 1-D arrays and as JetData.values give
    one flat matrix, bit for bit the uncached build."""
    rows, pts = random_rows(rng, ks)
    want = reference_structured(rows, pts, ks).tobytes()
    data = JetData(points=tuple(pts), values=rows)
    for jets in (rows, [np.array(row) for row in rows], data.values):
        assert sp_boundary_structured(jets, pts, ks).flat.tobytes() == want


def test_repeated_shapes_match_the_uncached_build():
    rng = np.random.default_rng(71)
    shapes = [
        tuple(int(k) for k in rng.integers(1, 7, size=int(rng.integers(1, 5))))
        for _ in range(40)
    ]
    for _ in range(240):
        assert_same_bits(shapes[int(rng.integers(len(shapes)))], rng)


def test_more_shapes_than_the_cache_holds():
    rng = np.random.default_rng(72)
    every = [ks for n in range(1, 5) for ks in itertools.product(range(1, 7), repeat=n)]
    order = rng.permutation(len(every))[: PLAN_CACHE_SIZE + 64]
    shapes = [every[i] for i in order]
    assert len(set(shapes)) > PLAN_CACHE_SIZE
    _shape_plan.cache_clear()
    for ks in shapes:
        assert_same_bits(ks, rng)
    # The first shapes have been evicted by now and are rebuilt.
    for ks in shapes[:32]:
        assert_same_bits(ks, rng)
    assert _shape_plan.cache_info().currsize <= PLAN_CACHE_SIZE


def test_plan_arrays_are_read_only():
    plan = _shape_plan((2, 3, 1))
    for name, array in plan._asdict().items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_mutating_a_result_leaves_the_next_call_alone():
    rng = np.random.default_rng(73)
    ks = (3, 2)
    rows, pts = random_rows(rng, ks)
    first = sp_boundary_structured(rows, pts, ks)
    want = first.flat.tobytes()
    first.flat[...] = 7.0
    assert sp_boundary_structured(rows, pts, ks).flat.tobytes() == want

    psi = psi_matrix(1j, 3)
    want = psi.tobytes()
    psi[...] = 0.0
    assert psi_matrix(1j, 3).tobytes() == want

    b = make_blaschke([0.3, -0.2j])
    inner = sp_interior(b, [0.5, -0.4j], ks)
    want = inner.flat.tobytes()
    inner.flat[...] = 0.0
    assert sp_interior(b, [0.5, -0.4j], ks).flat.tobytes() == want
