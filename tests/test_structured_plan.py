"""The cached shape plan behind the structured identity.

`reference_structured` is the structured route as it was built before the
plan existed, one uncached pass over every index array.  The cached route
must reproduce it to the last bit, however often a shape repeats and
however many shapes pass through the cache.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from blaschkepick import (
    ContactProblem,
    JetData,
    decide,
    make_blaschke,
    psi_matrix,
    realize,
    sp_boundary_structured,
    sp_via_realization,
)
from blaschkepick.schwarz_pick import DERIVATIVE_ORDER_MAX, PLAN_CACHE_SIZE, _shape_plan, _pascal as _pascal_table
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


@pytest.mark.parametrize("ks", [(1,), (4,), (2, 3, 1), (1, 3, 2), (3, 3, 1), (1, 1, 4), (6, 1, 1, 6, 2, 5)])
def test_kernel_rows_of_the_plan(ks):
    # Derivative x holds the points with k_i > x, as a prefix of `order`,
    # and `back` maps each flat row (i, x) to its kernel row.
    plan = _shape_plan(ks)
    assert sorted(plan.order) == list(range(len(ks)))
    assert sorted(plan.back) == list(range(sum(ks)))
    for x, (lo, hi) in enumerate(itertools.pairwise(plan.starts)):
        assert hi - lo == sum(k > x for k in ks)
        assert all(ks[i] > x for i in plan.order[: hi - lo])
        assert list(plan.gather[lo:hi]) == [i * max(ks) + x for i in plan.order[: hi - lo]]
    flat = [i * max(ks) + x for i, k in enumerate(ks) for x in range(k)]
    assert list(plan.gather[plan.back]) == flat


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

    r = realize(make_blaschke([0.3, -0.2j]))
    inner = sp_via_realization(r, [0.5, -0.4j], ks)
    want = inner.tobytes()
    inner[...] = 0.0
    assert sp_via_realization(r, [0.5, -0.4j], ks).tobytes() == want


def test_a_plan_at_the_largest_derivative_order_builds():
    # Two points of order 515 read the whole binomial table of width 1,030,
    # whose largest entry binom(1029, 514) is about 1.4e308.
    assert DERIVATIVE_ORDER_MAX == 515
    plan = _shape_plan.__wrapped__((DERIVATIVE_ORDER_MAX, DERIVATIVE_ORDER_MAX))
    assert plan.factor.shape == (1030, 1030)
    assert np.isfinite(plan.factor).all()
    assert np.isfinite(_pascal_table(2 * DERIVATIVE_ORDER_MAX)).all()


@pytest.mark.parametrize("ks", [(516,), (1, 516), (600, 2)])
def test_a_larger_derivative_order_is_refused_before_the_binomials(ks):
    before = _pascal_table.cache_info()
    with pytest.raises(ValueError, match=f"^derivative order {max(ks)} is above the limit of 515$"):
        _shape_plan.__wrapped__(ks)
    assert _pascal_table.cache_info() == before


def test_contact_order_1031_is_refused_without_a_warning():
    problem = ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(1031,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^derivative order 516 is above the limit of 515$"):
            decide(problem)


@pytest.mark.parametrize("route", ["decide", "compare-routes"])
def test_contact_order_1031_is_refused_before_any_jet(route):
    # The plan refuses derivative order 516 before the jets through order
    # 1,031 (1.07 M entries, 17 MB) are gathered, in decide and in the
    # route comparison that analyze runs first.
    from blaschkepick.cli import _compare_routes

    b = make_blaschke([0.5])
    calls = {
        "decide": lambda: decide(ContactProblem(b=b, points=(1.0,), contact_orders=(1031,))),
        "compare-routes": lambda: _compare_routes(b, [1.0], [516]),
    }
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^derivative order 516 is above the limit of 515$"):
            calls[route]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
